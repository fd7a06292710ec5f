"""Acceptance suite: one test per acceptance criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Tolerances and time budgets are pinned in the asserts.

Sub-criteria 04b and 06b pin the verified q = 5 and q = 7 census rows
(1/6 = 0.167 and 115/120 = 0.958) and the tightness of the class-count bound
there.  Reference figures of 0.333 = 2/6 and 0.967 = 116/120 are sometimes
quoted for these rows; they omit the arithmetic-progression class, which is a
bad class of its own at every prime q.  Both tests carry the evidence against
the quoted figures; the complete classification, the exact affine-reduction
engine and a raw all-pairs LCS scan all give the verified values.  See the
README for details.
"""

import itertools
import math
import random
import time
from pathlib import Path

import pytest
from conftest import canonical_orderings

from rsinsdel import analyze, bounds, cli, construct, insdel, rscode
from rsinsdel.gf import euler_phi, field_from_order, field_new, prime_power
from rsinsdel.rscode import EvaluationVector, RsCode

ARTIFACT_DIR = Path(__file__).parent / "_artifacts"


def distinct_tuples(fld, length):
    return itertools.permutations(range(fld.q), length)


def is_subsequence(short, long):
    it = iter(long)
    return all(any(x == y for y in it) for x in short)


def run_cli(*argv):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def test_criterion_01_known_optimal_length4_code():
    t0 = time.perf_counter()
    code = RsCode(EvaluationVector(field_new(7), (0, 1, 2, 5)), 2)
    report = analyze.lcs_code_bruteforce(code)
    assert report.lcs_of_code == 2
    assert report.max_correctable == 1  # corrects one insdel error, not two
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_minimal_field_for_length4_codes():
    t0 = time.perf_counter()
    for q in (4, 5):
        fld = field_from_order(q)
        assert not any(
            analyze.is_optimal_half_rate(EvaluationVector(fld, tup), 2).optimal
            for tup in distinct_tuples(fld, 4)
        ), f"no optimal [4,2] code can exist over GF({q})"
    fld = field_new(7)
    assert any(
        analyze.is_optimal_half_rate(EvaluationVector(fld, tup), 2).optimal
        for tup in distinct_tuples(fld, 4)
    )
    assert time.perf_counter() - t0 < 30.0


def test_criterion_03_pair_predicate_equals_enumeration():
    t0 = time.perf_counter()
    mismatches = []
    for q in (7, 8, 9, 11, 13):
        fld = field_from_order(q)
        for a1 in range(fld.q):
            if a1 in (0, 1):
                continue
            for a2 in range(fld.q):
                if a2 in (0, 1, a1):
                    continue
                pred = analyze.optimal_4_2_pair(fld, a1, a2)
                enum = analyze.is_optimal_half_rate(
                    EvaluationVector(fld, (0, 1, a1, a2)), 2
                ).optimal
                if pred != enum:
                    mismatches.append((q, a1, a2, pred, enum))
    assert mismatches == []
    assert time.perf_counter() - t0 < 120.0


def test_criterion_04a_census_counts_verified():
    t0 = time.perf_counter()
    expected = {4: (2, 0), 8: (720, 708), 9: (5040, 5032)}
    for q, (total, good) in expected.items():
        census = analyze.census_2dim(field_from_order(q))
        assert (census.classes_total, census.classes_correcting_one) == (total, good)
    assert round(analyze.census_2dim(field_from_order(8)).proportion, 3) == 0.983
    assert round(analyze.census_2dim(field_from_order(9)).proportion, 3) == 0.998
    assert time.perf_counter() - t0 < 300.0  # stated: q<=8 in 5 min, q=9 in 2 h

    t1 = time.perf_counter()
    rows = cli.table_rows((11, 13))
    assert [r["proportion_3dp"] for r in rows] == ["0.999", "0.999"]
    assert time.perf_counter() - t1 < 1.0


def test_criterion_04b_reference_table_rows_q5_q7_as_stated():
    # Verified rows: 1/6 (0.167) at q=5 and 115/120 (0.958) at q=7.  The
    # quoted 2/6 (0.333) and 116/120 (0.967) count the arithmetic-progression
    # (AP) ordering (0, 1, .., q-1) as good; it is a bad class of its own.
    for q, good, proportion, quoted in [(5, 1, 0.167, 0.333), (7, 115, 0.958, 0.967)]:
        fld = field_new(q)
        census = analyze.census_2dim(fld)
        assert (census.classes_correcting_one, round(census.proportion, 3)) == (
            good,
            proportion,
        )

        # the AP code is bad: x and x+1 both contain (1, .., q-1), so their
        # LCS is at least n-1 and one deletion cannot be told apart
        ap = RsCode(EvaluationVector(fld, tuple(range(q))), 2)
        x = rscode.codeword(ap, (0, 1))
        x_plus_1 = rscode.codeword(ap, (1, 1))
        assert x == tuple(range(q))
        assert x_plus_1 == tuple(range(1, q)) + (0,)
        tail = tuple(range(1, q))
        assert is_subsequence(tail, x) and is_subsequence(tail, x_plus_1)
        assert analyze.lcs_code_bruteforce(ap, want_witness=False).max_correctable == 0

        # ...and its class is none of the geometric / reversed-geometric ones
        tally = bounds.bad_class_count(fld)
        assert tally.count - tally.multiplicative_count == 1
        assert census.classes_total - census.classes_correcting_one == tally.count

        # the quoted figure is the verified count plus exactly that one class
        assert round((good + 1) / math.factorial(q - 2), 3) == quoted


def test_criterion_05_characterization_is_iff():
    mismatches = 0
    for q in (5, 7, 8):
        fld = field_from_order(q)
        for ev in canonical_orderings(fld):
            bad = analyze.classify_bad_ordering(ev).bad
            exact = analyze.lcs_code_affine(ev, want_witness=False).lcs_of_code
            if bad != (exact == q - 1):
                mismatches += 1
    assert mismatches == 0


def test_criterion_06a_formula_is_lower_bound():
    for q in (4, 5, 7, 8, 9):
        census = analyze.census_2dim(field_from_order(q))
        assert bounds.good_class_lower_bound(q) <= census.classes_correcting_one


def test_criterion_06b_equality_pattern_as_stated():
    # The bound meets the census at every checked q.  The stated pattern
    # (equality at {4, 8, 9}, a gap at {5, 7}) is false: the explicit bad
    # classes are pairwise inequivalent at q=5 and q=7 too.  The stated gap is
    # the AP class that the prime-blind count (q-2)! - 2*phi(q-1) leaves out.
    for q in (4, 5, 7, 8, 9):
        census = analyze.census_2dim(field_from_order(q))
        assert bounds.good_class_lower_bound(q) == census.classes_correcting_one, q
    for q in (5, 7):
        census = analyze.census_2dim(field_new(q))
        prime_blind = math.factorial(q - 2) - 2 * euler_phi(q - 1)
        assert prime_blind - census.classes_correcting_one == 1, q


def test_criterion_07_construction_end_to_end():
    t0 = time.perf_counter()
    f251 = field_new(251)
    trace = construct.construct_half_rate(f251, 3, verify_mode=construct.VERIFY_EXACT)
    assert analyze.is_optimal_half_rate(trace.alpha, 3).optimal
    assert time.perf_counter() - t0 < 300.0

    t1 = time.perf_counter()
    q = 1363
    while prime_power(q) is None:
        q += 1
    assert q == 1367 == construct.min_field_size(4) + 4
    f1367 = field_new(q)
    trace4 = construct.construct_half_rate(f1367, 4, verify_mode=construct.VERIFY_CERTIFICATE)
    cert = insdel.rank_certificate(RsCode(trace4.alpha, 4), 1)
    assert cert.certified
    # stage invariant: the length-6 prefix (stage-3 output) is exactly optimal
    prefix = EvaluationVector(f1367, trace4.alpha.points[:6])
    assert analyze.is_optimal_half_rate(prefix, 3).optimal
    assert time.perf_counter() - t1 < 1800.0


def test_criterion_08_lcs_floor_never_violated():
    # the floor is asserted inside every exact report; run a broad battery
    violations = 0
    reports = []
    f7 = field_new(7)
    for ev in canonical_orderings(field_new(5)):
        reports.append(analyze.lcs_code_affine(ev, want_witness=False))
        reports.append(analyze.lcs_code_bruteforce(RsCode(ev, 2), want_witness=False))
    for tup in itertools.permutations(range(7), 4):
        reports.append(
            analyze.lcs_code_bruteforce(RsCode(EvaluationVector(f7, tup), 2), want_witness=False)
        )
    rng = random.Random(113)
    for _ in range(40):
        q = rng.choice([8, 9, 11, 13])
        fld = field_from_order(q)
        k = rng.choice([1, 2, 3])
        n = rng.randrange(max(k + 1, 2 * k - 1), min(8, fld.q) + 1)
        pts = tuple(rng.sample(range(fld.q), n))
        reports.append(
            analyze.lcs_code_bruteforce(RsCode(EvaluationVector(fld, pts), k), want_witness=False)
        )
    for rep in reports:
        if rep.lcs_of_code < 2 * rep.k - 2:
            violations += 1
    assert violations == 0 and len(reports) >= 800


def test_criterion_09_certificate_soundness():
    rng = random.Random(127)
    k2_orders = [5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64]
    k3_orders = [8, 9, 11]
    checked = 0
    certified = 0
    violations = 0
    while checked < 100:
        k = 3 if checked % 3 == 0 else 2
        q = rng.choice(k3_orders if k == 3 else k2_orders)
        fld = field_from_order(q)
        n = rng.randrange(2 * k, min(8, q) + 1)
        t = rng.randrange(1, n - (2 * k - 1) + 1)
        pts = tuple(rng.sample(range(q), n))
        code = RsCode(EvaluationVector(fld, pts), k)
        checked += 1
        result = insdel.rank_certificate(code, t)
        if result.certified:
            certified += 1
            if analyze.lcs_code_bruteforce(code, want_witness=False).max_correctable < t:
                violations += 1
    assert violations == 0
    assert checked >= 100
    assert certified >= 20  # the check must actually exercise the certified path


def test_criterion_10_random_orderings_statistics():
    t0 = time.perf_counter()
    f81 = field_new(3, 4)
    result = analyze.sample_orderings(f81, "0.5", 100, seed=42)
    assert result.lcs_threshold == 39
    # hard assertion: almost every ordering corrects at least one insdel
    assert result.fraction_correcting_one >= 0.95
    # soft threshold: shortfalls emit a warning artifact instead of failing
    if result.fraction_correcting < 0.90:
        ARTIFACT_DIR.mkdir(exist_ok=True)
        (ARTIFACT_DIR / "random_sampling_warning.json").write_text(
            cli.dumps(result)
        )
    assert time.perf_counter() - t0 < 1200.0


def test_criterion_11_tail_bound_at_250_bits():
    t0 = time.perf_counter()
    for q, delta in [(256, "0.25"), (256, "0.5"), (1024, "0.5")]:
        report = bounds.normalized_bad_fraction_bound(q, delta)
        assert report.verdict is True, (q, delta)
        assert report.values["precision_bits"] == 250
    assert time.perf_counter() - t0 < 60.0


def test_criterion_12_byte_identical_reports():
    threaded = [
        ("census", "--field", "7"),
        ("census", "--field", "8"),
        ("sample", "--field", "81", "--delta", "0.5", "--trials", "5", "--seed", "42"),
        ("construct", "--field", "251", "--k", "3"),
        ("table1", "--qs", "4,5,7"),
    ]
    for base in threaded:
        outputs = []
        for threads in ("1", "4"):
            code, out = run_cli(*base, "--threads", threads)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1], base

    unthreaded = [
        ("analyze", "--field", "7", "--k", "2", "--alpha", "0,1,2,5"),
        ("classify", "--field", "7", "--alpha", "0,1,3,2,6,4,5"),
        ("bounds", "tail-bound", "--q", "256", "--delta", "0.25"),
    ]
    for base in unthreaded:
        a = run_cli(*base)
        b = run_cli(*base)
        assert a == b, base
