"""The benchmark's workloads: inputs made from the seed, the CLI calls that
are timed, and the checks of their outputs.

Each workload is driven through `rsinsdel.cli.main`, the public entry
point, with one thread unless a call says otherwise.  `smoke=True` swaps in
tiny inputs (GF(7)/GF(9), k=3 at q=251) so the whole harness runs in
seconds for its own tests.
"""

from __future__ import annotations

import json
import math

import oracles
from rsinsdel import EvaluationVector, analyze, bounds, field_new
from rsinsdel.construct import min_field_size


class Workload:
    name = ""
    items = 1  # items of work in one counted call
    min_units = 1  # counted calls a run makes even past --seconds
    layers: tuple[str, ...] = ()  # per-layer counts that must be nonzero when traced

    def calls(self, i: int) -> list[tuple[str, list[str]]]:
        """The (tag, argv) CLI calls of unit i; tag "1t" calls are timed."""
        raise NotImplementedError

    def counts(self, record) -> bool:
        return record.tag == "1t"

    def check(self, records) -> list[tuple[int, str]]:
        """(items failed, reason) for every failed check of these outputs."""
        raise NotImplementedError


def _result(record) -> dict:
    return json.loads(record.output)["result"]


class SampleGF81(Workload):
    """`sample` over GF(3^4), delta = 1/2: the affine engine."""

    name = "sample-gf81"
    layers = (
        "gf.scalar.calls",
        "gf.v_add.calls",
        "gf.v_mul.calls",
        "gf.vector.elements",
        "insdel.lcs_from_masks.calls",
        "insdel.lcs.symbols",
        "analyze.lcs_code_affine.calls",
        "analyze.affine.pairs_per_call",
        "rscode.vectors_built",
        "cli.overhead.s",
        "cli.output_bytes",
    )

    def __init__(self, seed: int, smoke: bool):
        self.fld = field_new(3, 2) if smoke else field_new(3, 4)
        self.items = 6 if smoke else 5
        self.oracle_trials = self.items if smoke else 2
        self.seed = seed

    def trial_seed(self, i: int) -> int:
        return self.seed * 1000 + i

    def calls(self, i):
        argv = ["sample", "--field", str(self.fld.q), "--delta", "0.5",
                "--trials", str(self.items), "--seed", str(self.trial_seed(i))]
        return [("1t", argv + ["--threads", "1"]), ("2t", argv + ["--threads", "2"])]

    def check(self, records):
        failures = []
        by_seed: dict[int, list] = {}
        for r in records:
            by_seed.setdefault(int(r.argv[r.argv.index("--seed") + 1]), []).append(r)
        q = self.fld.q
        for seed, group in sorted(by_seed.items()):
            if len({r.output for r in group}) != 1:
                failures.append((self.items, f"seed {seed}: --threads 1 and 2 outputs differ"))
                continue
            values = _result(group[0])["lcs_values"]
            if len(values) != self.items or not all(2 <= v <= q - 1 for v in values):
                failures.append((self.items, f"seed {seed}: lcs_values {values} malformed"))
        first = self.trial_seed(0)
        if first in by_seed:
            tables = oracles.FieldTables(self.fld.p, self.fld.m, self.fld.modulus)
            values = _result(by_seed[first][0])["lcs_values"]
            for t in range(min(self.oracle_trials, len(values))):
                want = oracles.affine_code_lcs(tables, oracles.sampled_ordering(q, first, t))
                if values[t] != want:
                    failures.append((1, f"seed {first} trial {t}: lcs {values[t]}, LIS oracle {want}"))
        return failures


class CensusGF11(Workload):
    """`census` over GF(11), all (q-2)! classes, default verification."""

    name = "census-gf11"
    layers = (
        "gf.scalar.calls",
        "rscode.equivalent.calls",
        "rscode.equivalent.hit_ratio",
        "rscode.vectors_built",
        "analyze.classify_bad_ordering.calls",
        "analyze.classify.equivalent_per_call",
        "analyze.lcs_code_affine.calls",
        "insdel.lcs_from_masks.calls",
        "cli.overhead.s",
        "cli.output_bytes",
    )
    EXPECTED = {11: (362_871, 9)}  # q -> (correcting classes, bad classes)

    def __init__(self, seed: int, smoke: bool):
        # The input is the whole class space, so the seed is not used.
        self.fld = field_new(7) if smoke else field_new(11)
        self.items = math.factorial(self.fld.q - 2)

    def calls(self, i):
        return [("1t", ["census", "--field", str(self.fld.q), "--max-classes", str(self.items)])]

    def check(self, records):
        tally = bounds.bad_class_count(self.fld)
        want_bad = {c["alpha"] for c in tally.classes}
        failures = []
        for r in records:
            res = _result(r)
            got_bad = {c["alpha"] for c in res["bad_classes"]}
            good = res["classes_correcting_one"]
            ok = (
                res["classes_total"] == self.items
                and good == self.items - tally.count
                and got_bad == want_bad
                and sum(res["reason_counts"].values()) == len(got_bad)
                and self.EXPECTED.get(self.fld.q, (good, tally.count)) == (good, tally.count)
            )
            if not ok:
                failures.append((self.items, f"census: {good} correcting, {len(got_bad)} bad classes"))
        return failures


def _primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi) if all(n % d for d in range(2, math.isqrt(n) + 1))]


class ConstructK4(Workload):
    """`construct --k 4 --verify certificate` at a seeded prime q."""

    name = "construct-k4"
    min_units = 3
    layers = (
        "gf.scalar.calls",
        "gf.v_add.calls",
        "gf.v_mul.calls",
        "gf.vector.elements",
        "poly.eval_all.calls",
        "poly.solve_linear.calls",
        "poly.rank.calls",
        "insdel.rank_certificate.calls",
        "insdel.rank_certificate.pairs_checked",
        "construct.extend.calls",
        "construct.base_case.s",
        "construct.bad_pairs",
        "cli.overhead.s",
        "cli.output_bytes",
    )
    REFERENCE = {1367: "GF(1367):0,1,2,5,3,4,6,10", 251: "GF(251):0,1,2,5,3,4"}
    # Stage work grows as q^2; the primes just above min_field_size(4) = 1363
    # keep the seed-to-seed difference in work under 5%.
    PRIMES = (1363, 1400)

    def __init__(self, seed: int, smoke: bool):
        self.k = 3 if smoke else 4
        primes = [251] if smoke else _primes(*self.PRIMES)
        self.q = primes[oracles.SplitMix64(seed).below(len(primes))]
        if self.q < min_field_size(self.k):
            raise ValueError(f"q={self.q} is below the guaranteed size for k={self.k}")
        self.fld = field_new(self.q)
        # stage sweeps: ordered index pairs times leading coefficients, per stage
        self.items = sum((2 * i - 2) * (2 * i - 3) * self.q for i in range(3, self.k + 1))

    def calls(self, i):
        return [("1t", ["construct", "--field", str(self.q), "--k", str(self.k), "--verify", "certificate"])]

    def check(self, records):
        failures = []
        if len({r.output for r in records}) > 1:
            failures.append((len(records), "repeated constructions differ"))
        for r in records:
            res = _result(r)
            points = [int(x) for x in res["alpha"].split(":")[1].split(",")]
            ok = (
                len(set(points)) == 2 * self.k
                and all(s["verification"] == "rank_certified" for s in res["stages"])
                and all(oracles.certifies_one_insdel(points[: 2 * i], i, self.q) for i in range(2, self.k + 1))
                and self.REFERENCE.get(self.q, res["alpha"]) == res["alpha"]
            )
            if not ok:
                failures.append((1, f"construct q={self.q}: {res['alpha']} failed its checks"))
        return failures


class BruteK3(Workload):
    """`analyze` (brute force, the default method) on seeded length-6 codes, k = 3."""

    name = "brute-k3"
    layers = (
        "gf.scalar.calls",
        "poly.eval_on.calls",
        "insdel.lcs_from_masks.calls",
        "insdel.lcs.symbols",
        "analyze.lcs_code_bruteforce.calls",
        "analyze.bruteforce.pairs_per_call",
        "cli.overhead.s",
        "cli.output_bytes",
    )
    K = 3
    min_units = 3

    def __init__(self, seed: int, smoke: bool):
        self.fld = field_new(7) if smoke else field_new(23)
        self.rng = oracles.SplitMix64(seed)
        self.vectors: list[tuple[int, ...]] = []

    def vector(self, i: int) -> tuple[int, ...]:
        while len(self.vectors) <= i:
            items = list(range(self.fld.q))
            for j in range(2 * self.K):
                r = j + self.rng.below(self.fld.q - j)
                items[j], items[r] = items[r], items[j]
            self.vectors.append(tuple(items[: 2 * self.K]))
        return self.vectors[i]

    def calls(self, i):
        alpha = ",".join(map(str, self.vector(i)))
        return [("1t", ["analyze", "--field", str(self.fld.q), "--k", str(self.K), "--alpha", alpha])]

    def counts(self, record):
        # Only codes the brute force must scan completely (LCS 2k-2) are
        # timed: an LCS of 2k-1 stops the scan at a point that varies
        # from code to code.
        return record.code == 0 and _result(record)["lcs_of_code"] == 2 * self.K - 2

    def check(self, records):
        failures = []
        for r in records:
            res = _result(r)
            points = [int(x) for x in r.argv[r.argv.index("--alpha") + 1].split(",")]
            lcs = res["lcs_of_code"]
            optimal = analyze.is_optimal_half_rate(EvaluationVector(self.fld, tuple(points)), self.K).optimal
            ok = (
                lcs in (2 * self.K - 2, 2 * self.K - 1)
                and (lcs == 2 * self.K - 1) == (not optimal)
                and oracles.witness_holds(points, res["witness"], lcs, self.fld.p)
            )
            if not ok:
                failures.append((1, f"analyze {points}: lcs {lcs}, optimal {optimal}"))
        return failures


WORKLOADS = {w.name: w for w in (SampleGF81, CensusGF11, ConstructK4, BruteK3)}
