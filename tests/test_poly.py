"""Tests for polynomial arithmetic and exact linear algebra."""

import random

import pytest

from rsinsdel import poly
from rsinsdel.gf import field_new

F7 = field_new(7)


def rank_oracle_mod_p(matrix, p):
    """Independent row-echelon rank over F_p, written against plain ints."""
    rows = [list(r) for r in matrix]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_eval_examples():
    assert poly.eval_poly(F7, (0, 0, 1), 5) == 4
    assert poly.eval_on(F7, (), (0, 1, 2, 5)) == (0, 0, 0, 0)
    assert poly.eval_on(F7, (0, 1), (0, 1, 2, 5)) == (0, 1, 2, 5)


def test_eval_all_matches_pointwise():
    rng = random.Random(11)
    for fld in (F7, field_new(3, 2), field_new(2, 3)):
        for _ in range(20):
            coeffs = poly.trim([rng.randrange(fld.q) for _ in range(rng.randrange(5))])
            table = poly.eval_all(fld, coeffs)
            assert table.tolist() == [poly.eval_poly(fld, coeffs, x) for x in range(fld.q)]


def test_eval_all_on_stacked_rows():
    rng = random.Random(12)
    for fld in (F7, field_new(3, 2), field_new(2, 3)):
        rows = [[rng.randrange(fld.q) for _ in range(4)] for _ in range(3)]
        assert poly.eval_all(fld, rows).tolist() == [poly.eval_all(fld, row).tolist() for row in rows]


def test_interpolate_examples():
    assert poly.interpolate(F7, [(0, 0), (1, 1)], 2) == (0, 1)
    # the line through the first two points is x, and x(2) = 2 != 5
    assert poly.interpolate(F7, [(0, 0), (1, 1), (2, 5)], 2) is None
    assert poly.interpolate(F7, [(0, 3), (1, 3), (4, 3)], 3) == (3,)


def test_interpolate_duplicate_nodes():
    with pytest.raises(ValueError):
        poly.interpolate(F7, [(1, 0), (1, 1)], 2)


def test_interpolate_roundtrip_random():
    rng = random.Random(23)
    for fld in (F7, field_new(13), field_new(2, 3)):
        for _ in range(50):
            k = rng.randrange(1, min(5, fld.q))
            coeffs = poly.trim([rng.randrange(fld.q) for _ in range(k)])
            npts = rng.randrange(k, fld.q + 1)
            xs = rng.sample(range(fld.q), npts)
            pts = [(x, poly.eval_poly(fld, coeffs, x)) for x in xs]
            assert poly.interpolate(fld, pts, k) == coeffs


def test_roots_examples():
    assert poly.roots(F7, (6, 0, 1)) == [1, 6]
    assert poly.roots(F7, (1, 0, 1)) == []
    assert poly.roots(F7, (5,)) == []
    with pytest.raises(poly.ZeroPolynomialError):
        poly.roots(F7, (0, 0))


def test_roots_match_definition_scan():
    rng = random.Random(5)
    for fld in (F7, field_new(3, 2)):
        for _ in range(40):
            coeffs = poly.trim([rng.randrange(fld.q) for _ in range(rng.randrange(1, 5))])
            if not coeffs:
                continue
            expected = [x for x in range(fld.q) if poly.eval_poly(fld, coeffs, x) == 0]
            got = poly.roots(fld, coeffs)
            assert got == expected
            assert len(got) <= max(poly.degree(coeffs), 0)


def test_solve_linear_examples():
    sol = poly.solve_linear(F7, [[1, 0], [0, 1]], [3, 4])
    assert sol.status == "unique" and sol.solution == (3, 4)
    sol = poly.solve_linear(F7, [[1, 1], [2, 2]], [1, 2])
    assert sol.status == "underdetermined" and len(sol.kernel) == 1
    sol = poly.solve_linear(F7, [[1, 1], [2, 2]], [1, 3])
    assert sol.status == "inconsistent" and sol.solution is None


def test_solve_linear_substitutes():
    rng = random.Random(17)
    for _ in range(200):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        a = [[rng.randrange(7) for _ in range(n)] for _ in range(m)]
        b = [rng.randrange(7) for _ in range(m)]
        sol = poly.solve_linear(F7, a, b)
        if sol.status == "inconsistent":
            continue
        for row, target in zip(a, b):
            assert sum(r * x for r, x in zip(row, sol.solution)) % 7 == target
        for vec in sol.kernel:
            for row in a:
                assert sum(r * x for r, x in zip(row, vec)) % 7 == 0


def test_rank_examples():
    vandermonde = [[1, 0, 0], [1, 1, 1], [1, 2, 4]]
    assert poly.rank(F7, vandermonde) == 3
    assert poly.rank(F7, [[0, 0], [0, 0]]) == 0
    # determinant of [[1,0,1],[1,1,2],[1,2,5]] over F_7 is 2, so full rank
    assert poly.rank(F7, [[1, 0, 1], [1, 1, 2], [1, 2, 5]]) == 3


def test_rank_matches_independent_oracle():
    rng = random.Random(29)
    for _ in range(200):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        a = [[rng.randrange(7) for _ in range(n)] for _ in range(m)]
        assert poly.rank(F7, a) == rank_oracle_mod_p(a, 7)


def test_rank_invariant_under_shuffle_and_scaling():
    rng = random.Random(31)
    for _ in range(100):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        a = [[rng.randrange(7) for _ in range(n)] for _ in range(m)]
        r = poly.rank(F7, a)
        shuffled = a[:]
        rng.shuffle(shuffled)
        factors = [rng.randrange(1, 7) for _ in shuffled]
        scaled = [[(f * v) % 7 for v in row] for f, row in zip(factors, shuffled)]
        assert poly.rank(F7, shuffled) == r
        assert poly.rank(F7, scaled) == r


def test_poly_arithmetic_helpers():
    a, b = (1, 2), (6, 5, 3)
    s = poly.poly_add(F7, a, b)
    assert s == (0, 0, 3)
    assert poly.poly_sub(F7, s, b) == poly.trim(a)
    assert poly.poly_mul(F7, (1, 1), (6, 1)) == (6, 0, 1)
    assert poly.poly_mul(F7, (), (1, 2)) == ()
    assert poly.trim((0, 0)) == ()
    assert poly.degree(()) == -1
