"""Deterministic construction of rate-1/2 RS codes correcting one insdel
error: a scanned length-4 base case plus an inductive two-points-per-stage
extension.

Stage i takes a verified length-(2i-2) evaluation vector and appends two
fresh points.  For every ordered pair of distinct increasing index sequences
over the current positions and every value of the free leading coefficient,
the stage solves one square linear system for the unique normalized
polynomial pair that could realize a long common subsequence, then collects
every completion (alpha_{2i-1}, alpha_{2i}) of that near-collision into a bad
set via root finding.  Any pair of fresh distinct points outside the bad set
extends the code; the lexicographically least one is chosen, so runs are
fully reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analyze, insdel, poly
from .errors import InvariantViolation
from .gf import Field
from .rscode import EvaluationVector, RsCode


class NoBaseCaseError(ValueError):
    """No admissible length-4 starting vector exists (q < 7)."""


class NoGoodPairError(RuntimeError):
    """The bad set exhausted all candidate point pairs."""


class SingularSystemError(InvariantViolation):
    """The stage system was singular where the induction guarantees it
    cannot be; the input code was not actually optimal (or there is a bug)."""


def min_field_size(k: int, conservative: bool = False) -> int:
    """Smallest field order for which stage-by-stage success is guaranteed.

    The guarantee polynomial is 20k^4 - 90k^3 + 150k^2 - 106k + 27; for k = 2
    the base-case scan only needs q >= 7.  conservative=True returns the
    looser 100k^4 variant instead.
    """
    if k < 2:
        raise ValueError("rate-1/2 construction needs k >= 2")
    if conservative:
        return 100 * k**4
    if k == 2:
        return 7
    return 20 * k**4 - 90 * k**3 + 150 * k**2 - 106 * k + 27


def base_case(fld: Field) -> EvaluationVector:
    """Lexicographically least (0, 1, a1, a2) whose length-4 code corrects
    one insdel error; raises NoBaseCaseError when none exists (q < 7)."""
    for a1 in range(fld.q):
        if a1 in (0, 1):
            continue
        for a2 in range(fld.q):
            if a2 in (0, 1, a1):
                continue
            if analyze.optimal_4_2_pair(fld, a1, a2):
                return EvaluationVector(fld, (0, 1, a1, a2))
    raise NoBaseCaseError(f"no admissible length-4 vector over {fld.name()} (q={fld.q})")


def _collect_bad_pairs(fld: Field, fcoef, gcoef, last_point: int, bad: set) -> None:
    """Add every completion (x, y) of a near-collision (fcoef, gcoef) to bad.

    The five tail shapes of a hypothetical length-(2i-1) common subsequence
    reduce to pairs of single-point equations in x = alpha_{2i-1} and
    y = alpha_{2i}; each equation is solved by scanning precomputed value
    tables.  Degenerate shapes whose solution set would be all of GF(q)
    cannot complete an actual collision and are skipped:

    * constant g-side: the collision would force the monic nonconstant
      f-side to take a single value at 2i-1 distinct points;
    * f = g as polynomials: a collision needs two distinct codewords, and
      the normalization preserves distinctness, so only the cross-point
      tail shapes (systems 1 and 3) are kept for such pairs.
    """
    if poly.degree(gcoef) < 1:
        return
    f_vals = poly.eval_all(fld, fcoef)
    g_vals = poly.eval_all(fld, gcoef)
    f_last = int(f_vals[last_point])
    g_last = int(g_vals[last_point])
    degenerate = fcoef == gcoef

    xs_1 = np.flatnonzero(g_vals == f_last)  # g(x) = f(a_last)
    for x in xs_1:
        for y in np.flatnonzero(g_vals == int(f_vals[x])):  # g(y) = f(x)
            bad.add((int(x), int(y)))
    xs_3 = np.flatnonzero(f_vals == g_last)  # f(x) = g(a_last)
    for x in xs_3:
        for y in np.flatnonzero(f_vals == int(g_vals[x])):  # f(y) = g(x)
            bad.add((int(x), int(y)))
    if degenerate:
        return
    agree = np.flatnonzero(f_vals == g_vals)  # f(z) = g(z)
    for x in xs_1:
        for y in agree:
            bad.add((int(x), int(y)))
    for x in xs_3:
        for y in agree:
            bad.add((int(x), int(y)))
    for x in agree:
        for y in agree:
            bad.add((int(x), int(y)))


def _stage_pair_bad_set(
    fld: Field,
    points: tuple[int, ...],
    i: int,
    s_i: int,
    s_j: int,
) -> set[tuple[int, int]]:
    """Bad pairs contributed by one ordered index-sequence pair (drop s_i,
    drop s_j), sweeping all q values of the free leading coefficient."""
    n = len(points)
    q = fld.q
    ell = 2 * i - 3
    mid = i - 2  # free coefficients on each side
    d_h = abs(s_j - s_i)
    i_seq = tuple(t for t in range(1, n + 1) if t != s_i)
    j_seq = tuple(t for t in range(1, n + 1) if t != s_j)
    rows = []
    rhs_fixed = []
    rhs_lead = []
    for t in range(ell):
        ai = points[i_seq[t] - 1]
        aj = points[j_seq[t] - 1]
        row = [1]
        pw = 1
        for _ in range(mid):
            pw = fld.mul(pw, aj)
            row.append(pw)
        pw = 1
        for _ in range(mid):
            pw = fld.mul(pw, ai)
            row.append(fld.neg(pw))
        rows.append(row)
        rhs_fixed.append(fld.pow(ai, i - 1))
        rhs_lead.append(fld.pow(aj, i - 1))
    base = poly.solve_linear(fld, rows, rhs_fixed)
    bad: set[tuple[int, int]] = set()
    if base.status != "unique":
        if d_h >= i - 2:
            raise SingularSystemError(
                f"stage {i}: singular system at index pair with distance {d_h} >= {i-2}; "
                f"the input vector {points} cannot have been optimal"
            )
        # Below the distance threshold the system may legitimately be
        # singular, and no completed collision can use such a pair.
        return bad
    shift = poly.solve_linear(fld, rows, rhs_lead)
    u0, u1 = base.solution, shift.solution
    for lead in range(q):
        u = tuple(fld.sub(a, fld.mul(lead, b)) for a, b in zip(u0, u1))
        gcoef = poly.trim(u[: mid + 1] + (lead,))
        fcoef = poly.trim((0,) + u[mid + 1 :] + (1,))
        _collect_bad_pairs(fld, fcoef, gcoef, points[-1], bad)
    return bad


def extend(
    fld: Field,
    points: tuple[int, ...],
    i: int,
    restrict_dh: bool = False,
    threads: int = 1,
) -> tuple[tuple[int, ...], int]:
    """One stage: extend a verified length-(2i-2) vector by two points.

    Sweeps every ordered pair of distinct length-(2i-3) increasing index
    sequences (restrict_dh=True skips pairs whose Hamming distance is below
    i-2, which provably cannot contribute; the default keeps the full sweep)
    and every leading coefficient of the g-side.  The stage linear system's
    matrix is independent of that leading coefficient, so it is reduced once
    per index pair and the per-coefficient solutions are affine combinations
    of two base solutions.  The pair sweeps are independent and their bad
    sets merge as a union, so any thread count yields the same result.

    Returns (extended points, bad-set size).  Raises SingularSystemError if
    the system is singular for an index pair where the input's optimality
    forbids it, NoGoodPairError if the bad set exhausts all candidates.
    """
    n = len(points)
    q = fld.q
    if i < 3:
        raise ValueError("extension stages start at i = 3")
    if n != 2 * i - 2:
        raise ValueError(f"stage {i} needs {2*i - 2} input points, got {n}")
    if len(set(points)) != n:
        raise ValueError("input points must be pairwise distinct")
    tasks = [
        (s_i, s_j)
        for s_i in range(1, n + 1)
        for s_j in range(1, n + 1)
        if s_j != s_i and not (restrict_dh and abs(s_j - s_i) < i - 2)
    ]
    bad: set[tuple[int, int]] = set()
    for pair_bad in analyze.guarded_map(
        lambda sij: _stage_pair_bad_set(fld, points, i, *sij), tasks, threads
    ):
        bad |= pair_bad
        del pair_bad  # free it before the next pair set is built
    ceiling = math.comb(n, 2) * 5 * (i - 1) ** 2 * q
    if len(bad) > ceiling:
        raise InvariantViolation(
            f"stage {i}: bad set has {len(bad)} pairs, above the ceiling {ceiling}"
        )
    used = set(points)
    for x in range(q):
        if x in used:
            continue
        for y in range(q):
            if y == x or y in used or (x, y) in bad:
                continue
            return points + (x, y), len(bad)
    raise NoGoodPairError(
        f"stage {i}: bad set ({len(bad)} pairs) exhausted GF({q})^2; "
        + (
            f"q={q} is below the guaranteed bound {min_field_size(i)} for this stage"
            if q < min_field_size(i)
            else "q meets the guaranteed bound, so this indicates a defect"
        )
    )


VERIFY_EXACT = "exact"
VERIFY_CERTIFICATE = "certificate"
VERIFY_NONE = "none"


@dataclass(frozen=True)
class StageRecord:
    i: int
    bad_pair_count: int
    chosen_pair: tuple[int, int]
    verification: str

    def to_dict(self) -> dict:
        return {
            "i": self.i,
            "bad_pair_count": self.bad_pair_count,
            "chosen_pair": list(self.chosen_pair),
            "verification": self.verification,
        }


@dataclass(frozen=True)
class ConstructionTrace:
    q: int
    k: int
    verify_mode: str
    stages: tuple[StageRecord, ...]
    alpha: EvaluationVector

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "k": self.k,
            "verify_mode": self.verify_mode,
            "stages": [s.to_dict() for s in self.stages],
            "alpha": self.alpha.serialize(),
        }


def _verify_stage(fld: Field, points: tuple[int, ...], i: int, verify_mode: str) -> str:
    ev = EvaluationVector(fld, points)
    if verify_mode == VERIFY_EXACT:
        result = analyze.is_optimal_half_rate(ev, i)
        if not result.optimal:
            raise InvariantViolation(
                f"stage {i} output {points} failed the exact optimality check: "
                f"witness {result.witness}"
            )
        return "exact_optimal"
    if verify_mode == VERIFY_CERTIFICATE:
        cert = insdel.rank_certificate(RsCode(ev, i), 1)
        if not cert.certified:
            raise InvariantViolation(
                f"stage {i} output {points} failed the rank certificate: "
                f"witness pair {cert.witness}"
            )
        return "rank_certified"
    if verify_mode == VERIFY_NONE:
        return "skipped"
    raise ValueError(f"unknown verify mode {verify_mode!r}")


def construct_half_rate(
    fld: Field,
    k: int,
    verify_mode: str = VERIFY_EXACT,
    allow_small_q: bool = False,
    restrict_dh: bool = False,
    threads: int = 1,
) -> ConstructionTrace:
    """Build a length-2k dimension-k evaluation vector correcting one insdel.

    Runs the base case and then stages i = 3..k, verifying each intermediate
    vector per verify_mode ("exact" re-checks optimality by enumeration,
    "certificate" runs the rank certificate at t = 1, "none" trusts the
    counting guarantee).  q >= min_field_size(k) is required unless
    allow_small_q is set, in which case NoGoodPairError is a legitimate
    outcome.  Identical inputs produce identical traces.
    """
    if k < 2:
        raise ValueError("rate-1/2 construction needs k >= 2")
    analyze.check_threads(threads)
    if fld.q < min_field_size(k) and not allow_small_q:
        raise ValueError(
            f"q={fld.q} is below the guaranteed bound {min_field_size(k)} for k={k}; "
            "pass allow_small_q=True to attempt anyway"
        )
    stages = []
    ev = base_case(fld)
    points = ev.points
    stages.append(
        StageRecord(2, 0, (points[2], points[3]), _verify_stage(fld, points, 2, verify_mode))
    )
    for i in range(3, k + 1):
        points, bad_count = extend(fld, points, i, restrict_dh=restrict_dh, threads=threads)
        stages.append(
            StageRecord(
                i,
                bad_count,
                (points[-2], points[-1]),
                _verify_stage(fld, points, i, verify_mode),
            )
        )
    return ConstructionTrace(
        q=fld.q,
        k=k,
        verify_mode=verify_mode,
        stages=tuple(stages),
        alpha=EvaluationVector(fld, points),
    )
