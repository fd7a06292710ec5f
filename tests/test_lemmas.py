"""The two lemmas behind the rank certificate and the exact optimality
check, against the brute-force engine and against the all-pairs scan that
the optimality check ran before it swept only the rank-deficient pairs."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsinsdel import analyze, errors, insdel, poly
from rsinsdel.errors import InvariantViolation
from rsinsdel.gf import field_from_order, field_new
from rsinsdel.rscode import EvaluationVector, RsCode

# small prime and extension fields (q^3 stays far below the brute-force guard)
FIELDS = [(5, 1), (7, 1), (11, 1), (13, 1), (2, 3), (3, 2), (2, 4)]


def draw_points(data, fld, n):
    return tuple(data.draw(st.permutations(range(fld.q)))[:n])


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_certified_codes_correct_t_errors(data):
    # rank(V) = 2k-1 on every far pair proves that no two codewords share a
    # common subsequence of length n - t; at t = 1 a rank-deficient far pair
    # is a real collision, so there the certificate is exact
    fld = field_new(*data.draw(st.sampled_from(FIELDS)))
    k = data.draw(st.integers(2, 3 if fld.q >= 7 else 2))
    t = data.draw(st.integers(1, min(2, fld.q - 2 * k + 1)))
    n = data.draw(st.integers(2 * k - 1 + t, min(fld.q, 2 * k + 2)))
    code = RsCode(EvaluationVector(fld, draw_points(data, fld, n)), k)
    certified = insdel.rank_certificate(code, t).certified
    corrects = analyze.lcs_code_bruteforce(code, want_witness=False).lcs_of_code <= n - t - 1
    if certified:
        assert corrects
    if t == 1:
        assert certified == corrects


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_exact_optimality_equals_brute_force(data):
    fld = field_new(*data.draw(st.sampled_from(FIELDS)))
    k = data.draw(st.integers(2, 3 if fld.q >= 6 else 2))
    ev = EvaluationVector(fld, draw_points(data, fld, 2 * k))
    brute = analyze.lcs_code_bruteforce(RsCode(ev, k), want_witness=False)
    assert analyze.is_optimal_half_rate(ev, k).optimal == (brute.lcs_of_code <= 2 * k - 2)


def lagrange(fld, points, bound):
    """Reference interpolation, independent of poly.solve_linear: the
    Lagrange formula on the first `bound` points, one scalar field operation
    at a time, then a check of the others; None when one is off the curve."""
    head = points[:bound]
    coeffs = [0] * bound
    for i, (xi, yi) in enumerate(head):
        basis, denom = [1], 1
        for j, (xj, _) in enumerate(head):
            if j != i:  # basis *= (x - xj)
                basis = [fld.sub(lower, fld.mul(xj, c)) for lower, c in zip([0] + basis, basis + [0])]
                denom = fld.mul(denom, fld.sub(xi, xj))
        scale = fld.mul(yi, fld.inv(denom))
        coeffs = [fld.add(c, fld.mul(scale, b)) for c, b in zip(coeffs, basis)]
    g = poly.trim(coeffs)
    return g if all(poly.eval_poly(fld, g, x) == y for x, y in points[bound:]) else None


def all_pairs_optimality(ev, k):
    """The former scan: every (f, I, J) with I != J, interpolating g on the
    first k constraints of J and verifying the other k-1."""
    fld, n, points = ev.field, ev.n, ev.points
    seqs = list(itertools.combinations(range(1, n + 1), n - 1))
    for f in analyze._normalized_polys(fld, k):
        f_vals = poly.eval_on(fld, f, points)
        for i_seq in seqs:
            head_vals = [f_vals[i - 1] for i in i_seq[:k]]
            tail_vals = [f_vals[i - 1] for i in i_seq[k:]]
            for j_seq in seqs:
                if i_seq == j_seq:
                    continue
                g = lagrange(fld, [(points[j - 1], y) for j, y in zip(j_seq[:k], head_vals)], k)
                if g == f:
                    continue
                if all(poly.eval_poly(fld, g, points[j - 1]) == y for j, y in zip(j_seq[k:], tail_vals)):
                    witness = {"f": list(f), "g": list(g), "I": list(i_seq), "J": list(j_seq)}
                    return analyze.OptimalityResult(False, witness)
    return analyze.OptimalityResult(True, None)


def seeded_codes():
    rng = random.Random(2024)
    codes = [(field_new(7), (0, 1) + pair) for pair in ((2, 5), (2, 4), (3, 6), (4, 2), (5, 6))]
    for q, k, count in ((7, 3, 6), (8, 3, 6), (9, 3, 6), (11, 3, 6), (8, 4, 2), (9, 4, 2), (11, 4, 3)):
        fld = field_from_order(q)
        codes += [(fld, tuple(rng.sample(range(q), 2 * k))) for _ in range(count)]
    # k = 5: optimal codes need the former scan's full 2q^3 * 90 interpolations
    # (seconds each), so only non-optimal ones run here
    f11 = field_new(11)
    codes += [(f11, tuple(range(10))), (f11, (0, 1, 2, 3, 4, 5, 6, 7, 8, 10))]
    codes += [(field_new(13), tuple(range(10))), (f11, (0, 1, 2, 4, 8, 5, 10, 9, 7, 3))]
    return codes


def test_deficient_pair_sweep_matches_the_all_pairs_scan():
    verdicts = []
    for fld, points in seeded_codes():
        ev = EvaluationVector(fld, points)
        k = len(points) // 2
        result = analyze.is_optimal_half_rate(ev, k)
        assert result == all_pairs_optimality(ev, k), points
        verdicts.append(result.optimal)
        if not result.optimal:
            i_seq, j_seq = tuple(result.witness["I"]), tuple(result.witness["J"])
            assert insdel.hamming_increasing(i_seq, j_seq) >= k
            assert poly.rank(fld, insdel.build_V(fld, points, k, i_seq, j_seq)) < 2 * k - 1
    assert verdicts.count(True) >= 5 and verdicts.count(False) >= 20


@pytest.mark.parametrize("fld", [field_new(13), field_new(2, 3)], ids=str)
def test_pairs_closer_than_k_never_witness(fld):
    # agreement at k or more positions I_t = J_t forces g = f
    rng = random.Random(fld.q)
    for k in (2, 3):
        n = 2 * k
        kept = set(insdel.index_pairs(n, n - 1, k))
        close = [ij for ij in insdel.index_pairs(n, n - 1, 1) if ij not in kept]
        assert len(kept) == k * (k + 1) and len(close) == 2 * k * (2 * k - 1) - k * (k + 1)
        for _ in range(3):
            points = tuple(rng.sample(range(fld.q), n))
            for f in analyze._normalized_polys(fld, k):
                f_vals = poly.eval_on(fld, f, points)
                for i_seq, j_seq in close:
                    assert insdel.hamming_increasing(i_seq, j_seq) < k
                    pts = [(points[j - 1], f_vals[i - 1]) for i, j in zip(i_seq, j_seq)]
                    g = lagrange(fld, pts, k)
                    assert g is None or g == f


# -- the stacked witness scan against the former one ---------------------------


def deficient_pair_scan(ev, k):
    """The former witness scan: every (f, I, J) over the rank-deficient pairs,
    in order, g by the Lagrange reference through the J points."""
    fld, points = ev.field, ev.points
    sweep = insdel.deficient_pairs(fld, points, k, insdel.index_pairs(2 * k, 2 * k - 1, k))
    pairs = [ij for _, ij in sweep]
    for f in analyze._normalized_polys(fld, k):
        f_vals = poly.eval_on(fld, f, points)
        for i_seq, j_seq in pairs:
            g = lagrange(fld, [(points[j - 1], f_vals[i - 1]) for i, j in zip(i_seq, j_seq)], k)
            if g is not None and g != f:
                return analyze.OptimalityResult(False, {"f": list(f), "g": list(g), "I": list(i_seq), "J": list(j_seq)})
    return analyze.OptimalityResult(True, None)


def first_non_optimal(rng, fld, k):
    while True:
        points = tuple(rng.sample(range(fld.q), 2 * k))
        if not insdel.rank_certificate(RsCode(EvaluationVector(fld, points), k), 1).certified:
            return EvaluationVector(fld, points)


def test_stacked_scan_matches_the_former_scan_at_k5_and_k6():
    # the former scan takes seconds on most non-optimal k = 6 codes (its
    # witness comes late in the family); seed 11 draws codes it checks in
    # milliseconds, and the arithmetic progression over GF(11) adds 20 pairs
    rng = random.Random(11)
    evs = [first_non_optimal(rng, field_new(q), k) for q, k in ((11, 5), (13, 5), (13, 6))]
    evs.append(EvaluationVector(field_new(11), tuple(range(10))))
    for ev in evs:
        result = analyze.is_optimal_half_rate(ev, ev.n // 2)
        assert not result.optimal and result == deficient_pair_scan(ev, ev.n // 2), ev


def test_stacked_scan_over_extension_fields():
    rng = random.Random(5)
    verdicts = []
    for fld in (field_new(2, 3), field_new(2, 4), field_new(3, 2), field_new(5, 2)):
        for k in (2, 3, 4):
            for _ in range(4):
                ev = EvaluationVector(fld, tuple(rng.sample(range(fld.q), 2 * k)))
                result = analyze.is_optimal_half_rate(ev, k)
                assert result == deficient_pair_scan(ev, k), ev
                verdicts.append(result.optimal)
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10


def test_stacked_scan_on_pairs_with_large_kernels():
    # x -> x + 1 maps an arithmetic progression one step along itself, and
    # x -> theta x a geometric one, so every f meets the shifted pair's
    # conditions: its kernel has dimension k - 1
    f9 = field_new(3, 2)
    geometric = tuple(f9.pow(f9.generator(), e) for e in range(8))
    for ev, k in (
        (EvaluationVector(field_new(7), tuple(range(6))), 3),
        (EvaluationVector(field_new(11), tuple(range(8))), 4),
        (EvaluationVector(f9, geometric), 4),
    ):
        fld = ev.field
        sweep = insdel.deficient_pairs(fld, ev.points, k, insdel.index_pairs(2 * k, 2 * k - 1, k))
        ranks = [int(poly.rank(fld, insdel.build_V(fld, ev.points, k, *ij))) for _, ij in sweep]
        assert min(ranks) <= 2 * k - 3
        assert analyze.is_optimal_half_rate(ev, k) == deficient_pair_scan(ev, k)


def test_stacked_scan_skips_g_equal_to_f(monkeypatch):
    # the zero polynomial meets every pair's conditions with g = 0 = f: it
    # is never a witness, so a family of it alone finds no collision
    ev = EvaluationVector(field_new(7), (0, 1, 2, 4))
    witness = deficient_pair_scan(ev, 2).witness
    monkeypatch.setattr(analyze, "_normalized_polys", lambda fld, k: iter([()]))
    with pytest.raises(InvariantViolation, match="rank-deficient index pairs but no collision"):
        analyze.is_optimal_half_rate(ev, 2)
    monkeypatch.setattr(analyze, "_normalized_polys", lambda fld, k: iter([(), tuple(witness["f"])]))
    assert analyze.is_optimal_half_rate(ev, 2).witness == witness


@pytest.mark.parametrize("rows", [1, 3])
def test_stacked_scan_is_independent_of_block_size(monkeypatch, rows):
    # non-optimal codes whose witness f comes 33 to 116 members into the family
    cases = [
        (field_new(2, 3), (3, 0, 6, 5, 2, 7, 4, 1)),
        (field_new(3, 2), (1, 2, 7, 8, 5, 6, 3, 0)),
        (field_new(11), (6, 4, 1, 3, 0, 8, 10, 9)),
        (field_new(13), (10, 8, 9, 1, 3, 7, 11, 0)),
    ]
    for fld, points in cases:
        ev, k = EvaluationVector(fld, points), len(points) // 2
        want = deficient_pair_scan(ev, k)
        pairs = len(list(insdel.deficient_pairs(fld, points, k, insdel.index_pairs(2 * k, 2 * k - 1, k))))
        blocks = []

        def conditions_dot(fld, a, b, dot=analyze._dot):
            if a.ndim == 4:  # the (f, pair) conditions product, one row per f
                blocks.append(len(a))
            return dot(fld, a, b)

        with monkeypatch.context() as m:
            m.setattr(errors, "BLOCK_BYTES", rows * pairs * (k - 1) ** 2 * 8)  # rows x conditions.nbytes
            m.setattr(analyze, "_dot", conditions_dot)
            assert analyze.is_optimal_half_rate(ev, k) == want and not want.optimal
        assert max(blocks) == rows and sum(blocks) > 33
