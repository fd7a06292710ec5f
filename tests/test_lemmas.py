"""The two lemmas behind the rank certificate and the exact optimality
check, against the brute-force engine and against the all-pairs scan that
the optimality check ran before it swept only the rank-deficient pairs;
the witness the check reads off one elimination, against the family scan
that it ran before, and the check's memory."""

import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest
from conftest import normalized_with_scaled_copies, ordered_certificate, ordered_deficient_pairs, ordered_index_pairs
from hypothesis import given, settings
from hypothesis import strategies as st

from rsinsdel import analyze, cli, errors, insdel, poly
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
        kept = set(ordered_index_pairs(n, n - 1, k))
        close = [ij for ij in ordered_index_pairs(n, n - 1, 1) if ij not in kept]
        assert len(kept) == k * (k + 1) and len(close) == 2 * k * (2 * k - 1) - k * (k + 1)
        assert set(insdel.index_pairs(n, n - 1, k)) == {(i_seq, j_seq) for i_seq, j_seq in kept if i_seq < j_seq}
        for _ in range(3):
            points = tuple(rng.sample(range(fld.q), n))
            for f in analyze._normalized_polys(fld, k):
                f_vals = poly.eval_on(fld, f, points)
                for i_seq, j_seq in close:
                    assert insdel.hamming_increasing(i_seq, j_seq) < k
                    pts = [(points[j - 1], f_vals[i - 1]) for i, j in zip(i_seq, j_seq)]
                    g = lagrange(fld, pts, k)
                    assert g is None or g == f


# -- the elimination's witness against the family scan ------------------------


def deficient_pair_scan(ev, k, pairs=None, family=analyze._normalized_polys):
    """The family scan that the optimality check once ran, kept as the
    reference for its witness: every (f, I, J) over the rank-deficient pairs
    of the ordered sweep, both orientations ranked (or the given pairs), f
    in family order and the pairs in sweep order, g by the Lagrange
    reference through the J points, the first with g != f.  Lagrange shares
    no code with poly._row_echelon, which the check reduces its pairs with."""
    fld, points = ev.field, ev.points
    if pairs is None:
        pairs = [ij for _, ij in ordered_deficient_pairs(fld, points, k, 2 * k - 1, k)[0]]
    for f in family(fld, k):
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


def test_witness_matches_the_ordered_sweep():
    # seeded length-2k codes at k = 2..5 over prime and extension fields: the
    # elimination over both orientations of the unordered deficient pairs
    # gives the family scan's witness over the deficient pairs of the
    # ordered sweep, and the t = 1 certificate is the ordered sweep's
    rng = random.Random(42)
    verdicts = []
    for q in (11, 13, 8, 9, 16):
        fld = field_from_order(q)
        for k in range(2, min(5, q // 2) + 1):
            for _ in range(2):
                ev = EvaluationVector(fld, tuple(rng.sample(range(q), 2 * k)))
                result = analyze.is_optimal_half_rate(ev, k)
                assert result == deficient_pair_scan(ev, k), ev
                assert insdel.rank_certificate(RsCode(ev, k), 1) == ordered_certificate(RsCode(ev, k), 1), ev
                verdicts.append(result.optimal)
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10


def test_witness_reduces_the_ordered_sweeps_deficient_pairs_in_its_order(monkeypatch):
    # each pair (I, J), I < J, is reduced once, in the sweep's order, and
    # then the reverses (J, I) of the deficient ones, in the same order: one
    # block, so two build_V(J, I) calls; ties go to the earlier pair of the
    # ordered sweep by the pairs' sequences, not by the order of reduction
    calls, build = [], insdel.build_V

    def recorded(fld, points, k, i_seq, j_seq):
        calls.append(list(zip(map(tuple, np.asarray(j_seq).tolist()), map(tuple, np.asarray(i_seq).tolist()))))
        return build(fld, points, k, i_seq, j_seq)

    monkeypatch.setattr(insdel, "build_V", recorded)
    for ev in (EvaluationVector(field_new(11), tuple(range(8))), first_non_optimal(random.Random(3), field_new(3, 2), 3)):
        k = ev.n // 2
        deficient = [ij for _, ij in ordered_deficient_pairs(ev.field, ev.points, k, 2 * k - 1, k)[0] if ij[0] < ij[1]]
        calls.clear()
        assert not analyze.is_optimal_half_rate(ev, k).optimal
        assert calls == [list(insdel.index_pairs(2 * k, 2 * k - 1, k)), [ij[::-1] for ij in deficient]], ev
        assert deficient, ev


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
        deficient = ordered_deficient_pairs(fld, ev.points, k, 2 * k - 1, k)[0]
        ranks = [int(poly.rank(fld, insdel.build_V(fld, ev.points, k, *ij))) for _, ij in deficient]
        assert min(ranks) <= 2 * k - 3
        assert analyze.is_optimal_half_rate(ev, k) == deficient_pair_scan(ev, k)


def test_stacked_scan_skips_g_equal_to_f(monkeypatch):
    # the zero polynomial leads the family and meets every pair with
    # g = 0 = f, so it is never a witness: a sweep of one deficient pair
    # gives that pair's least nonzero member, its leading coefficient 1
    f9 = field_new(3, 2)
    evs = [
        EvaluationVector(field_new(7), (0, 1, 2, 4)),
        first_non_optimal(random.Random(4), field_new(2, 3), 3),
        first_non_optimal(random.Random(4), field_new(13), 3),
        EvaluationVector(field_new(11), (6, 4, 1, 3, 0, 8, 10, 9)),
        EvaluationVector(f9, tuple(f9.pow(f9.generator(), e) for e in range(8))),  # kernels of dimension 3
    ]
    for ev in evs:
        fld, k = ev.field, ev.n // 2
        deficient = ordered_deficient_pairs(fld, ev.points, k, 2 * k - 1, k)[0]
        for pair in [ij for _, ij in deficient if ij[0] < ij[1]]:
            with monkeypatch.context() as m:
                m.setattr(insdel, "index_pairs", lambda *args, one=pair: iter([one]))
                got = analyze.is_optimal_half_rate(ev, k)
            assert got == deficient_pair_scan(ev, k, [pair, pair[::-1]]) and got.witness["f"] != [], (ev, pair)


@pytest.mark.parametrize("rows", [1, 3])
def test_stacked_scan_is_independent_of_block_size(monkeypatch, rows):
    # non-optimal codes with 2 to 12 deficient ordered pairs, reduced `rows`
    # pairs at a time; the first two find their witness at the fifth and the
    # second ordered pair, and the arithmetic progression's least f comes at
    # its third and tenth, where a later block must not win
    cases = [
        (field_new(2, 3), (3, 0, 6, 5, 2, 7, 4, 1)),
        (field_new(3, 2), (1, 2, 7, 8, 5, 6, 3, 0)),
        (field_new(11), (6, 4, 1, 3, 0, 8, 10, 9)),
        (field_new(13), (10, 8, 9, 1, 3, 7, 11, 0)),
        (field_new(11), tuple(range(8))),
    ]
    for fld, points in cases:
        ev, k = EvaluationVector(fld, points), len(points) // 2
        want = deficient_pair_scan(ev, k)
        pairs = list(insdel.index_pairs(2 * k, 2 * k - 1, k))
        deficient = {ij for _, ij in ordered_deficient_pairs(fld, points, k, 2 * k - 1, k)[0]}
        with monkeypatch.context() as m:
            m.setattr(errors, "BLOCK_BYTES", rows * poly.echelon_bytes(2 * k - 1, 2 * k - 1))
            blocks = counted_reductions(m)
            assert analyze.is_optimal_half_rate(ev, k) == want and not want.optimal
        # each block of the k(k+1)/2 unordered pairs is reduced once, and
        # then the reverses of its deficient pairs, if it has any
        want_blocks = []
        for s in range(0, len(pairs), rows):
            reverses = sum(ij in deficient for ij in pairs[s : s + rows])
            want_blocks += [len(pairs[s : s + rows])] + [reverses] * (reverses > 0)
        assert blocks == want_blocks and max(blocks) == rows, (points, blocks)


def small_vectors():
    """Every length-2k vector (0, 1, ..) over GF(q <= 7) at k = 2 and 3,
    and seeded ones over GF(8) and GF(9) at k = 3 and GF(11) at k = 4."""
    for q in (4, 5, 7):
        fld = field_from_order(q)
        for k in (2, 3):
            for rest in itertools.permutations(range(2, q), 2 * k - 2):
                yield EvaluationVector(fld, (0, 1) + rest)
    rng = random.Random(39)
    for q, k, count in ((8, 3, 12), (9, 3, 12), (11, 4, 6)):
        fld = field_from_order(q)
        yield from (EvaluationVector(fld, tuple(rng.sample(range(q), 2 * k))) for _ in range(count))


def test_witness_equals_the_family_scan():
    # alike over the family with its scaled copies: a copy lam*f meets the
    # pairs f meets and comes after f
    verdicts = []
    for ev in small_vectors():
        k = ev.n // 2
        result = analyze.is_optimal_half_rate(ev, k)
        assert result == deficient_pair_scan(ev, k) == deficient_pair_scan(ev, k, family=normalized_with_scaled_copies), ev
        verdicts.append(result.optimal)
    assert len(verdicts) == 178 and verdicts.count(False) >= 100 and verdicts.count(True) >= 20


def collides(ev, witness):
    fld, points, (f, g) = ev.field, ev.points, (tuple(witness[key]) for key in "fg")
    f_vals = [poly.eval_poly(fld, f, points[i - 1]) for i in witness["I"]]
    return f != g and f_vals == [poly.eval_poly(fld, g, points[j - 1]) for j in witness["J"]]


def test_witnesses_beyond_the_family_scan(capsys):
    # inputs whose family scan (about q^(k-2) members) the former check
    # refused: each witness is a real collision
    ap = EvaluationVector(field_new(1367), tuple(range(8)))
    want = {"f": [0, 0, 1], "g": [1, 1365, 1], "I": [1, 2, 3, 4, 5, 6, 7], "J": [2, 3, 4, 5, 6, 7, 8]}
    assert analyze.is_optimal_half_rate(ap, 4) == analyze.OptimalityResult(False, want)
    assert collides(ap, want)
    argv = ["analyze", "--field", "1367", "--alpha", "0,1,2,3,4,5,6,7", "--k", "4", "--method", "optimal"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"] == {"optimal": False, "witness": want}
    rng = random.Random(16)
    f16 = field_from_order(16)
    for _ in range(3):
        ev = EvaluationVector(f16, tuple(rng.sample(range(16), 16)))
        result = analyze.is_optimal_half_rate(ev, 8)
        assert not result.optimal and collides(ev, result.witness), ev
    # the admitted example of the former guard's table, its witness as the
    # family scan found it
    ev = EvaluationVector(field_new(13), (0, 12, 6, 1, 9, 4, 7, 3, 11, 5, 10, 2))
    assert analyze.is_optimal_half_rate(ev, 6).witness == {
        "f": [0, 1, 7, 6, 6, 1], "g": [8, 8, 0, 8, 4, 9], "I": [1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12], "J": list(range(2, 13))
    }


def test_dimension_one_is_always_optimal(capsys):
    # k = 1: the one column of build_V is all ones, so no pair is deficient
    for q in (2, 7, 16):
        fld = field_from_order(q)
        for points in itertools.permutations(range(q), 2):
            assert analyze.is_optimal_half_rate(EvaluationVector(fld, points), 1) == analyze.OptimalityResult(True)
    assert cli.main(["analyze", "--field", "7", "--alpha", "3,5", "--k", "1", "--method", "optimal"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == {"optimal": True, "witness": None}


def counted_reductions(monkeypatch):
    """Patch poly._row_echelon to record the size of every stack it reduces."""
    reduced, echelon = [], poly._row_echelon

    def counted(fld, stack, ncols):
        reduced.append(len(stack))
        return echelon(fld, stack, ncols)

    monkeypatch.setattr(poly, "_row_echelon", counted)
    return reduced


@pytest.mark.parametrize("q, k", [(37, 16), (53, 26)])
def test_sweep_and_witness_stay_within_the_block_budget(monkeypatch, q, k):
    # the arithmetic progression leaves 120 of 136 and 325 of 351 unordered
    # pairs deficient; k = 26 is the largest k the guard admits.  One peak
    # covers the whole check: each block's pairs and its deficient reverses,
    # 256 and 676 eliminations, within the k(k+1) the guard charges.
    reduced = counted_reductions(monkeypatch)
    ev = EvaluationVector(field_new(q), tuple(range(2 * k)))
    tracemalloc.start()
    try:
        result = analyze.is_optimal_half_rate(ev, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= errors.BLOCK_BYTES, peak
    assert sum(reduced) - k * (k + 1) // 2 == {16: 120, 26: 325}[k] and sum(reduced) <= k * (k + 1)
    assert result.witness["f"] == [0] * (k - 2) + [1] and collides(ev, result.witness)


def test_check_runs_at_most_the_eliminations_its_guard_charges(monkeypatch):
    # the guard charges k(k+1) eliminations of (2k-1)^3: each of the
    # k(k+1)/2 unordered pairs is reduced once, and only the reverses of the
    # deficient ones a second time (the arithmetic progressions at k = 16
    # and 26 are in the block-budget test)
    reduced = counted_reductions(monkeypatch)
    rng, verdicts = random.Random(43), []
    for q in (11, 13, 16, 29):
        fld = field_from_order(q)
        for k in range(2, min(6, q // 2) + 1):
            ev = EvaluationVector(fld, tuple(rng.sample(range(q), 2 * k)))
            deficient = len(ordered_deficient_pairs(fld, ev.points, k, 2 * k - 1, k)[0]) // 2
            reduced.clear()
            verdicts.append(analyze.is_optimal_half_rate(ev, k).optimal)
            assert sum(reduced) == k * (k + 1) // 2 + deficient <= k * (k + 1), ev
    assert verdicts.count(True) >= 4 and verdicts.count(False) >= 4, verdicts
