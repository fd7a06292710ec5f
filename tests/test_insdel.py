"""Tests for LCS, index sequences, and rank certificates."""

import itertools
import math
import random
import time

import numpy as np
import pytest
from conftest import lcs, lcs_dp, ordered_certificate, ordered_index_pairs

from rsinsdel import analyze, errors, insdel, poly
from rsinsdel.errors import GuardExceeded
from rsinsdel.gf import field_from_order, field_new
from rsinsdel.rscode import EvaluationVector, RsCode

F7 = field_new(7)


def test_lcs_worked_example():
    s = (2, 4, 1, 3, 0, 2)
    t = (4, 3, 2, 1, 0)
    assert lcs(s, t) == lcs(t, s) == lcs_dp(s, t) == 3


def test_lcs_trivial_cases():
    s = (3, 1, 4, 1, 5)
    assert lcs(s, s) == len(s)
    assert lcs(s, ()) == lcs((), s) == lcs((), ()) == 0


def test_lcs_matches_oracle_random():
    rng = random.Random(101)
    for _ in range(500):
        m, n, sigma = rng.randrange(0, 14), rng.randrange(0, 14), rng.randrange(1, 9)
        a = tuple(rng.randrange(sigma) for _ in range(m))
        b = tuple(rng.randrange(sigma) for _ in range(n))
        assert lcs(a, b) == lcs_dp(a, b)


def test_lcs_symmetry_and_deletion_monotonicity():
    rng = random.Random(53)
    for _ in range(200):
        a = tuple(rng.randrange(5) for _ in range(rng.randrange(1, 10)))
        b = tuple(rng.randrange(5) for _ in range(rng.randrange(1, 10)))
        v = lcs(a, b)
        assert lcs(b, a) == v
        pos = rng.randrange(len(a))
        shorter = a[:pos] + a[pos + 1 :]
        assert v - 1 <= lcs(shorter, b) <= v


def test_edit_distance_affine_isometry():
    # for equal lengths the insdel distance is 2n - 2 * lcs, so an affine map
    # x -> lam*x + mu applied to both sequences must keep the LCS
    rng = random.Random(59)
    for fld in (F7, field_new(3, 2)):
        for _ in range(100):
            n = rng.randrange(1, 9)
            c = [rng.randrange(fld.q) for _ in range(n)]
            d = [rng.randrange(fld.q) for _ in range(n)]
            lam = rng.randrange(1, fld.q)
            mu = rng.randrange(fld.q)
            c2 = [fld.add(fld.mul(lam, x), mu) for x in c]
            d2 = [fld.add(fld.mul(lam, x), mu) for x in d]
            assert lcs(c2, d2) == lcs(c, d) == lcs_dp(c, d)


def test_lcs_witness_is_valid():
    rng = random.Random(61)
    for _ in range(200):
        a = tuple(rng.randrange(6) for _ in range(rng.randrange(0, 10)))
        b = tuple(rng.randrange(6) for _ in range(rng.randrange(0, 10)))
        length, i_seq, j_seq = insdel.lcs_with_witness(a, b)
        assert length == lcs_dp(a, b)
        assert len(i_seq) == len(j_seq) == length
        assert all(x < y for x, y in zip(i_seq, i_seq[1:]))
        assert all(x < y for x, y in zip(j_seq, j_seq[1:]))
        assert [a[i - 1] for i in i_seq] == [b[j - 1] for j in j_seq]


def test_hamming_increasing():
    assert insdel.hamming_increasing((1, 2, 3, 4), (2, 3, 4, 5)) == 4
    assert insdel.hamming_increasing((1, 2, 4), (1, 2, 4)) == 0
    assert insdel.hamming_increasing((1, 2, 4), (1, 3, 4)) == 1
    with pytest.raises(ValueError):
        insdel.hamming_increasing((1, 2), (1, 2, 3))


def test_missing_index_distance_identity():
    # for single-drop sequences the Hamming distance is the gap between
    # the dropped positions
    rng = random.Random(67)
    assert insdel.hamming_increasing((1, 2, 3, 4), (2, 3, 4, 5)) == 5 - 1
    for _ in range(200):
        n = rng.randrange(2, 10)
        s_i, s_j = rng.sample(range(1, n + 1), 2)
        i_seq = tuple(t for t in range(1, n + 1) if t != s_i)
        j_seq = tuple(t for t in range(1, n + 1) if t != s_j)
        assert insdel.hamming_increasing(i_seq, j_seq) == abs(s_j - s_i)
        # the omitted index is the one element of [1, n] not in the sequence
        assert set(range(1, n + 1)) - set(i_seq) == {s_i} and len(i_seq) == n - 1


def test_index_pairs_order_and_distance():
    seqs = list(itertools.combinations(range(1, 7), 4))
    for d in range(5):
        pairs = list(insdel.index_pairs(6, 4, d))
        assert pairs == sorted(pairs)  # I-major, each lexicographic
        assert pairs == [(a, b) for a in seqs for b in seqs if a < b and insdel.hamming_increasing(a, b) >= d]
    assert len(list(insdel.index_pairs(6, 4, 0))) == 15 * 14 // 2
    assert list(insdel.index_pairs(3, 2, 2)) == [((1, 2), (2, 3))]
    assert list(insdel.index_pairs(4, 3, 4)) == []
    assert list(insdel.index_pairs(3, 0, 0)) == []  # the one sequence () pairs only with itself
    assert all(type(x) is int for pair in insdel.index_pairs(6, 4, 3) for seq in pair for x in seq)
    assert all(type(x) is int for pair in insdel.index_pairs(6, 5, 3) for seq in pair for x in seq)
    with pytest.raises(ValueError):
        insdel.index_pairs(3, 4, 0)
    # n = 300 > 255: I and J of length n - 1 omit s_i and s_j (1 + .. + 300 =
    # 45150 less their sums), lie in descending order of the omitted index,
    # and differ in |s_i - s_j| places
    omitted = [tuple(45150 - sum(seq) for seq in pair) for pair in insdel.index_pairs(300, 299, 297)]
    assert omitted == [(a, b) for a in range(300, 0, -1) for b in range(a - 1, 0, -1) if a - b >= 297]


def test_index_pairs_is_the_upper_half_of_the_ordered_sweep():
    # every ell and distance at n <= 11, and at n = 12 every ell with at most
    # 220 sequences (the five middle ones would add about 5 s): the pairs
    # I < J of the ordered sweep, in its order, its distances one comparison
    # of each I with every candidate (the closed form at ell = n - 1
    # included); at ell = 0 the one sequence pairs only with itself
    for n in range(13):
        assert list(insdel.index_pairs(n, 0, 0)) == list(insdel.index_pairs(n, 0, 1)) == []
        for ell in range(1, n + 1):
            if n == 12 and math.comb(n, ell) > 220:
                continue
            combos = np.array(list(itertools.combinations(range(1, n + 1), ell)), np.int8)
            distance = np.count_nonzero(combos[:, None] != combos[None], axis=2)
            for d in range(ell + 2):
                first, second = np.nonzero(np.triu(distance >= d, 1))  # I-major; I < J as combos is sorted
                flat = itertools.chain.from_iterable(i_seq + j_seq for i_seq, j_seq in insdel.index_pairs(n, ell, d))
                got = np.fromiter(flat, np.int8).reshape(-1, 2, ell)
                assert np.array_equal(got, np.stack((combos[first], combos[second]), axis=1)), (n, ell, d)
    for n, ell, d in ((6, 4, 2), (7, 6, 3), (8, 5, 0)):
        assert list(insdel.index_pairs(n, ell, d)) == [(a, b) for a, b in ordered_index_pairs(n, ell, d) if a < b]


def test_index_pairs_guard_refuses_at_the_call(monkeypatch):
    # C(20, 10)^2 ordered candidates are refused before the generator is
    # even iterated; at ell = n - 1, where no candidate is built, the
    # (n - d)(n - d + 1)/2 pairs built are, d = max(min_distance, 1)
    message = r"^C\(20,10\)\^2 index pairs: estimated work 34134779536 exceeds the limit of 100000000$"
    with pytest.raises(GuardExceeded, match=message):
        insdel.index_pairs(20, 10, 0)
    monkeypatch.setattr(errors, "MAX_OPS", 27)
    message = r"^index pairs of length 7 of 1\.\.8 at distance >= 1: estimated work 28 exceeds the limit of 27$"
    for d in (0, 1):
        with pytest.raises(GuardExceeded, match=message):
            insdel.index_pairs(8, 7, d)
    monkeypatch.setattr(errors, "MAX_OPS", 28)
    assert len(list(insdel.index_pairs(8, 7, 0))) == 28
    monkeypatch.setattr(errors, "MAX_OPS", 0)
    for n, d in ((8, 8), (3, 9)):  # no pair is built
        assert list(insdel.index_pairs(n, n - 1, d)) == []
    monkeypatch.setattr(errors, "MAX_OPS", 10**8)
    message = r"^index pairs of length 20000 of 1\.\.20001 at distance >= 1: estimated work 200010000 exceeds"
    with pytest.raises(GuardExceeded, match=message):
        insdel.index_pairs(20001, 20000, 0)


def test_build_v_examples():
    v = insdel.build_V(F7, (0, 1, 2, 5), 2, (1, 2, 3), (2, 3, 4))
    assert v.tolist() == [[1, 0, 1], [1, 1, 2], [1, 2, 5]]
    v = insdel.build_V(F7, (0, 1, 2, 5, 3), 3, (1, 2, 3, 4, 5), (1, 2, 3, 4, 5))
    assert v.shape == (5, 5)
    v = insdel.build_V(F7, (0, 1, 2), 1, (1, 2), (2, 3))
    assert v.tolist() == [[1], [1]]
    with pytest.raises(ValueError):
        insdel.build_V(F7, (0, 1, 2), 2, (1, 2), (2, 4))


def test_build_v_stacks_index_pairs():
    # a stack of pairs gives the stack of their matrices; both checks cover it
    fld, points = field_new(2, 3), (0, 1, 2, 5, 3, 7)
    pairs = list(insdel.index_pairs(6, 5, 3))
    seqs = np.array(pairs)
    stack = insdel.build_V(fld, points, 3, seqs[:, 0], seqs[:, 1])
    assert stack.shape == (len(pairs), 5, 5)
    for matrix, (i_seq, j_seq) in zip(stack, pairs):
        assert matrix.tolist() == insdel.build_V(fld, points, 3, i_seq, j_seq).tolist()
        assert matrix[:, 2].tolist() == [fld.pow(points[i - 1], 2) for i in i_seq]
        assert matrix[:, 4].tolist() == [fld.pow(points[j - 1], 2) for j in j_seq]
    with pytest.raises(ValueError, match="equal length"):
        insdel.build_V(fld, points, 3, seqs[:, 0], seqs[:2, 1])
    with pytest.raises(ValueError, match="out of range"):
        insdel.build_V(fld, points, 3, seqs[:, 0], seqs[:, 1] + 1)


def test_rank_certificate_examples():
    ev = EvaluationVector(F7, (0, 1, 2, 5))
    res = insdel.rank_certificate(RsCode(ev, 2), 1)
    assert res.certified and res.witness is None
    assert res.pairs_checked == 6

    ap = EvaluationVector(F7, (0, 1, 2, 3))
    res = insdel.rank_certificate(RsCode(ap, 2), 1)
    assert not res.certified
    assert res.witness is not None
    i_seq, j_seq = res.witness
    v = insdel.build_V(F7, ap.points, 2, i_seq, j_seq)
    assert poly.rank(F7, v) < 3

    with pytest.raises(ValueError):
        insdel.rank_certificate(RsCode(ev, 2), 2)  # ell would drop below 2k-1


def test_rank_certificate_stops_after_one_budget_block(monkeypatch):
    # the AP code fails at its second k = 20 pair: one block of the budget
    # over poly.echelon_bytes(39, 39), 13 pairs, is ranked, not all 210
    ranked = []
    rank = poly.rank

    def counting_rank(fld, matrices):
        ranked.append(len(matrices))
        return rank(fld, matrices)

    monkeypatch.setattr(poly, "rank", counting_rank)
    res = insdel.rank_certificate(RsCode(EvaluationVector(field_new(41), tuple(range(40))), 20), 1)
    assert (res.certified, res.pairs_checked) == (False, 2)
    assert ranked == [errors.BLOCK_BYTES // poly.echelon_bytes(39, 39)] == [13]


def test_rank_certificate_matches_the_ordered_sweep():
    # seeded codes at k = 2..5 and n = 2k..2k+2, t = 1 and 2, over prime and
    # extension fields: the witness is the first deficient ordered pair, and
    # pairs_checked its position among the ordered pairs, or all of them
    rng = random.Random(42)
    verdicts = []
    for q in (11, 13, 1367, 8, 9, 16):
        fld = field_from_order(q)
        for k in range(2, 6):
            for n in range(2 * k, min(2 * k + 2, q) + 1):
                for points in [tuple(range(n))] + [tuple(rng.sample(range(q), n)) for _ in range(2)]:
                    code = RsCode(EvaluationVector(fld, points), k)
                    for t in range(1, min(2, n - 2 * k + 1) + 1):
                        res = insdel.rank_certificate(code, t)
                        assert res == ordered_certificate(code, t), (fld, points, k, t)
                        verdicts.append((t, res.certified))
    assert min(verdicts.count((t, c)) for t in (1, 2) for c in (True, False)) >= 10, verdicts


def test_t1_certificate_equals_the_brute_force_on_every_k3_class():
    # the certificate is exact at t = 1: certified exactly where the code
    # LCS is at most n - 2, on every class of GF(7) and GF(8)
    for q, bad in ((7, 86), (8, 258)):
        fld, failed = field_from_order(q), 0
        for rest in itertools.permutations(range(2, q)):
            code = RsCode(EvaluationVector(fld, (0, 1, *rest)), 3)
            certified = insdel.rank_certificate(code, 1).certified
            assert certified == (analyze.lcs_code_bruteforce(code, want_witness=False).lcs_of_code <= q - 2), rest
            failed += not certified
        assert failed == bad


def test_t1_certificate_equals_the_brute_force_on_seeded_k4_codes(monkeypatch):
    # at k = 4, n = 8 the certificate is certified exactly where the brute
    # force corrects one insdel, at the default budget and at one pair per
    # block; GF(8) and GF(9) give few certified codes, GF(11) more
    rng = random.Random(43)
    verdicts = []
    for q, count in ((8, 10), (9, 20), (11, 40)):
        fld = field_from_order(q)
        for _ in range(count):
            code = RsCode(EvaluationVector(fld, tuple(rng.sample(range(q), 8))), 4)
            corrects = analyze.lcs_code_bruteforce(code, want_witness=False).max_correctable >= 1
            result = insdel.rank_certificate(code, 1)
            with monkeypatch.context() as m:
                m.setattr(errors, "BLOCK_BYTES", 1)
                assert insdel.rank_certificate(code, 1) == result, code.ev
            assert result.certified == corrects, code.ev
            verdicts.append(corrects)
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 50


def test_rank_certificate_skips_low_distance_pairs():
    ev = EvaluationVector(F7, (0, 1, 2, 5))
    res = insdel.rank_certificate(RsCode(ev, 2), 1)
    # pairs with d_H < ell-k+1 = 2 are never built: 6 of the 4*4 pairs qualify
    assert res.pairs_checked == 6


def test_rank_certificate_guard(monkeypatch):
    # C(20, 10)^2 = 184756^2 index pairs are refused before enumeration
    ev = EvaluationVector(field_new(23), tuple(range(20)))
    message = r"^C\(20,10\)\^2 index pairs: estimated work 34134779536 exceeds the limit of 100000000$"
    with pytest.raises(GuardExceeded, match=message):
        insdel.rank_certificate(RsCode(ev, 2), 10)
    # the k = 4 construction's certificate ((8 - 4)(8 - 4 + 1)/2 = 10 pairs) still runs
    ev = EvaluationVector(field_new(1367), (0, 1, 2, 5, 3, 4, 6, 10))
    res = insdel.rank_certificate(RsCode(ev, 4), 1)
    assert res.certified and res.pairs_checked == 20
    monkeypatch.setattr(errors, "MAX_OPS", 9)
    message = r"^index pairs of length 7 of 1\.\.8 at distance >= 4: estimated work 10 exceeds the limit of 9$"
    with pytest.raises(GuardExceeded, match=message):
        insdel.rank_certificate(RsCode(ev, 4), 1)
    monkeypatch.setattr(errors, "MAX_OPS", 10)
    assert insdel.rank_certificate(RsCode(ev, 4), 1) == res


def test_rank_certificate_sweeps_a_long_code_at_t_1():
    # a seeded full-length k = 3 code over GF(10007): the t = 1 sweep builds
    # (n - 3)(n - 2)/2 = 6 pairs at distance n - 3, not C(n, n-1)^2 = n^2
    # candidates, which the guard once charged and refused
    points = list(range(10007))
    random.Random(3).shuffle(points)
    t0 = time.perf_counter()
    res = insdel.rank_certificate(RsCode(EvaluationVector(field_new(10007), tuple(points)), 3), 1)
    assert time.perf_counter() - t0 < 1.0
    assert res == insdel.CertificateResult(True, 1, None, 12)
