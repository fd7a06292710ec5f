"""Tests for LCS, index sequences, and rank certificates."""

import itertools
import random

import numpy as np
import pytest
from conftest import lcs, lcs_dp

from rsinsdel import errors, insdel, poly
from rsinsdel.errors import GuardExceeded
from rsinsdel.gf import field_new
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
        assert pairs == [(a, b) for a in seqs for b in seqs if insdel.hamming_increasing(a, b) >= d]
    assert len(list(insdel.index_pairs(6, 4, 0))) == 15**2
    assert list(insdel.index_pairs(3, 2, 2)) == [((1, 2), (2, 3)), ((2, 3), (1, 2))]
    assert list(insdel.index_pairs(4, 3, 4)) == []
    assert list(insdel.index_pairs(3, 0, 0)) == [((), ())]
    assert all(type(x) is int for pair in insdel.index_pairs(6, 4, 3) for seq in pair for x in seq)
    with pytest.raises(ValueError):
        insdel.index_pairs(3, 4, 0)
    # n = 300 > 255: I and J of length n - 1 omit s_i and s_j (1 + .. + 300 =
    # 45150 less their sums), lie in descending order of the omitted index,
    # and differ in |s_i - s_j| places
    omitted = [tuple(45150 - sum(seq) for seq in pair) for pair in insdel.index_pairs(300, 299, 297)]
    assert omitted == [(a, b) for a in range(300, 0, -1) for b in range(300, 0, -1) if abs(a - b) >= 297]


def test_index_pairs_guard_refuses_at_the_call(monkeypatch):
    # C(20, 10)^2 pairs are refused before the generator is even iterated
    message = r"^C\(20,10\)\^2 index pairs: estimated work 34134779536 exceeds the limit of 100000000$"
    with pytest.raises(GuardExceeded, match=message):
        insdel.index_pairs(20, 10, 0)
    monkeypatch.setattr(errors, "MAX_OPS", 63)
    with pytest.raises(GuardExceeded, match=r"C\(8,7\)\^2 index pairs: estimated work 64 exceeds the limit of 63"):
        insdel.index_pairs(8, 7, 0)
    monkeypatch.setattr(errors, "MAX_OPS", 64)
    assert len(list(insdel.index_pairs(8, 7, 0))) == 64


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


def test_rank_certificate_stops_early_in_growing_blocks(monkeypatch):
    # the AP code fails at its second k = 20 pair: blocks of 1 and 2 pairs
    # rank 3 matrices, not the whole 420-pair sweep
    ranked = []
    rank = poly.rank

    def counting_rank(fld, matrices):
        ranked.append(len(matrices))
        return rank(fld, matrices)

    monkeypatch.setattr(poly, "rank", counting_rank)
    res = insdel.rank_certificate(RsCode(EvaluationVector(field_new(41), tuple(range(40))), 20), 1)
    assert (res.certified, res.pairs_checked) == (False, 2)
    assert ranked == [1, 2]


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
    # the k = 4 construction's certificate (C(8, 7)^2 = 64 pairs) still runs
    ev = EvaluationVector(field_new(1367), (0, 1, 2, 5, 3, 4, 6, 10))
    res = insdel.rank_certificate(RsCode(ev, 4), 1)
    assert res.certified and res.pairs_checked > 0
    monkeypatch.setattr(errors, "MAX_OPS", 63)
    with pytest.raises(GuardExceeded, match=r"C\(8,7\)\^2 index pairs: estimated work 64 exceeds the limit of 63"):
        insdel.rank_certificate(RsCode(ev, 4), 1)
    monkeypatch.setattr(errors, "MAX_OPS", 64)
    assert insdel.rank_certificate(RsCode(ev, 4), 1) == res
