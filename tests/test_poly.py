"""Tests for polynomial arithmetic and exact linear algebra."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from conftest import has_closed_form, interpolate
from hypothesis import given, settings
from hypothesis import strategies as st

from rsinsdel import errors, poly
from rsinsdel.gf import field_new, is_prime

F7 = field_new(7)


def echelon_oracle(fld, matrix, ncols):
    """Independent reduced row echelon form over the first ncols columns:
    textbook row swaps, one scalar field operation at a time.  Returns the
    rows and the pivot columns."""
    rows = [[int(v) for v in r] for r in matrix]
    pivots = []
    for c in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = fld.inv(rows[rank][c])
        rows[rank] = [fld.mul(v, inv) for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [fld.sub(v, fld.mul(f, w)) for v, w in zip(rows[i], rows[rank])]
        pivots.append(c)
    return rows, pivots


def rank_oracle(fld, matrix):
    return len(echelon_oracle(fld, matrix, len(matrix[0]))[1])


def solve_oracle(fld, matrix, rhs):
    """The solution set of A x = b for one right-hand side, from the oracle's
    echelon form: free variables 0, one kernel vector per free column."""
    ncols = len(matrix[0])
    rows, pivots = echelon_oracle(fld, [list(r) + [b] for r, b in zip(matrix, rhs)], ncols)
    if any(row[ncols] for row in rows[len(pivots) :]):
        return poly.LinearSolution("inconsistent", None, ())
    solution = [0] * ncols
    for r, c in enumerate(pivots):
        solution[c] = rows[r][ncols]
    kernel = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[free] = 1
        for r, c in enumerate(pivots):
            vec[c] = fld.neg(rows[r][free])
        kernel.append(tuple(vec))
    status = "underdetermined" if kernel else "unique"
    return poly.LinearSolution(status, tuple(solution), tuple(kernel))


def random_matrix(fld, rng, m, n, kind):
    """A random m x n matrix: "random" entries, "deficient" (its rows
    combine fewer than min(m, n) random rows), or "zero"."""
    if kind == "zero":
        return [[0] * n for _ in range(m)]
    if kind == "random":
        return [[rng.randrange(fld.q) for _ in range(n)] for _ in range(m)]
    base = [[rng.randrange(fld.q) for _ in range(n)] for _ in range(rng.randrange(min(m, n)))]
    out = []
    for _ in range(m):
        row = [0] * n
        for b in base:
            c = rng.randrange(fld.q)
            row = [fld.add(v, fld.mul(c, w)) for v, w in zip(row, b)]
        out.append(row)
    return out


ORACLE_FIELDS = [F7, field_new(1367), field_new(2, 8), field_new(3, 4), field_new(5, 3)]


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
    assert interpolate(F7, [(0, 0), (1, 1)], 2) == (0, 1)
    # the line through the first two points is x, and x(2) = 2 != 5
    assert interpolate(F7, [(0, 0), (1, 1), (2, 5)], 2) is None
    assert interpolate(F7, [(0, 3), (1, 3), (4, 3)], 3) == (3,)


def test_interpolate_duplicate_nodes():
    with pytest.raises(ValueError):
        interpolate(F7, [(1, 0), (1, 1)], 2)


def test_interpolate_degree_bound_edges():
    # bound 0 admits only the zero polynomial, so every value must be 0
    assert interpolate(F7, [], 0) == ()
    assert interpolate(F7, [(3, 0), (5, 0)], 0) == ()
    assert interpolate(F7, [(3, 0), (5, 2)], 0) is None
    with pytest.raises(ValueError):  # fewer points than the bound
        interpolate(F7, [(1, 0), (2, 1)], 3)
    # bound == len(points): a square Vandermonde system, always unique
    for fld in (F7, field_new(2, 3), field_new(3, 2)):
        rng = random.Random(fld.q)
        for n in range(1, 5):
            pts = [(x, rng.randrange(fld.q)) for x in rng.sample(range(fld.q), n)]
            g = interpolate(fld, pts, n)
            assert g is not None and poly.degree(g) < n
            assert [poly.eval_poly(fld, g, x) for x, _ in pts] == [y for _, y in pts]


def test_interpolate_roundtrip_random():
    rng = random.Random(23)
    for fld in (F7, field_new(13), field_new(2, 3)):
        for _ in range(50):
            k = rng.randrange(1, min(5, fld.q))
            coeffs = poly.trim([rng.randrange(fld.q) for _ in range(k)])
            npts = rng.randrange(k, fld.q + 1)
            xs = rng.sample(range(fld.q), npts)
            pts = [(x, poly.eval_poly(fld, coeffs, x)) for x in xs]
            assert interpolate(fld, pts, k) == coeffs


def test_roots_examples():
    assert poly.roots(F7, (6, 0, 1)) == [1, 6]
    assert poly.roots(F7, (1, 0, 1)) == []
    assert poly.roots(F7, (5,)) == []
    with pytest.raises(poly.ZeroPolynomialError):
        poly.roots(F7, (0, 0))


def test_roots_match_definition_scan(monkeypatch):
    # seeded polynomials up to degree 4, and every one of degree <= 2 over
    # the smallest fields, where the closed form meets each of its cases
    rng = random.Random(5)
    cases = [
        (fld, [rng.randrange(fld.q) for _ in range(rng.randrange(1, 5))])
        for fld in (F7, field_new(3, 2))
        for _ in range(40)
    ]
    for fld in (field_new(2), field_new(3), F7, field_new(2, 2)):
        cases += [(fld, coeffs) for coeffs in itertools.product(range(fld.q), repeat=3)]
    for fld, coeffs in cases:
        coeffs = poly.trim(coeffs)
        if not coeffs:
            continue
        expected = [x for x in range(fld.q) if poly.eval_poly(fld, coeffs, x) == 0]
        got = poly.roots(fld, coeffs)
        assert got == expected
        assert len(got) <= max(poly.degree(coeffs), 0)
    # every monic cubic, tagged by its index, in one tagged_roots call per
    # field: each root once, every row split, and rows of 0, 1, 2 and 3
    # roots.  GF(11) and GF(17) have q = 2 (mod 3), and 9 divides 17 + 1
    split_, split = poly._split, []

    def counted(fld, low, rounds):
        split.append(int((rounds == 0).sum()))
        return split_(fld, low, rounds)

    monkeypatch.setattr(poly, "_split", counted)
    for fld in (field_new(5), F7, field_new(11), field_new(13), field_new(17), field_new(5, 2)):
        q = fld.q
        rows = np.array([c + (1,) for c in itertools.product(range(q), repeat=3)])
        split.clear()
        codes = poly.tagged_roots(fld, np.arange(len(rows)), rows)
        assert len(set(codes.tolist())) == len(codes)
        hit, y = np.nonzero(poly.eval_all(fld, rows) == 0)
        assert np.array_equal(np.sort(codes), hit * q + y), fld
        assert sum(split) == len(rows), fld
        assert set(np.bincount(hit, minlength=len(rows)).tolist()) == {0, 1, 2, 3}, fld


@pytest.mark.parametrize("p", [1367, 1381, 65537])
def test_cubic_rows_over_large_prime_fields(p, monkeypatch):
    # seeded cubics, random and scaled products of three distinct lines or
    # of a line and y^2 - n for a non-square n, against a full scan: each
    # root once, and every row split
    fld, rng = field_new(p), random.Random(p)
    nonsquare = next(n for n in range(2, p) if fld.pow(n, (p - 1) // 2) == p - 1)
    rows = []
    for kind in range(300):
        lines = rng.sample(range(p), 3 if kind % 3 == 0 else 1)
        if kind % 3 == 2:
            row = [rng.randrange(p) for _ in range(3)] + [rng.randrange(1, p)]
        elif len(lines) == 3:
            row = [fld.mul(c, kind + 1) for c in expand(fld, lines)]
        else:  # (y - r)(y^2 - n)
            row = [fld.mul(fld.neg(nonsquare), fld.neg(lines[0])), fld.neg(nonsquare), fld.neg(lines[0]), 1]
        rows.append(row)
    rows = np.array(rows, dtype=np.int64)
    split_, split = poly._split, []

    def counted(fld_, low, rounds):
        split.append(int((rounds == 0).sum()))
        return split_(fld_, low, rounds)

    monkeypatch.setattr(poly, "_split", counted)
    codes = poly.tagged_roots(fld, np.arange(len(rows)), rows)
    assert len(set(codes.tolist())) == len(codes)
    scans = (poly.eval_all(fld, rows[lo : lo + 10]) == 0 for lo in range(0, len(rows), 10))  # 10 rows of p values
    expected = np.concatenate([np.flatnonzero(scan.ravel()) + lo * 10 * p for lo, scan in enumerate(scans)])
    assert np.array_equal(np.sort(codes), expected)
    assert sum(split) == len(rows)


@pytest.mark.parametrize("fld", [field_new(2, 8), field_new(3, 4)], ids=str)
def test_cubics_in_characteristic_2_and_3_are_split(fld, monkeypatch):
    # every seeded cubic row, random or a product of three lines, is split
    # in a first round, and gives the roots of a full scan
    rng = np.random.default_rng(fld.q)
    rows = rng.integers(0, fld.q, (200, 4))
    rows[:, 3] = rng.integers(1, fld.q, len(rows))
    for row in rows[::2]:
        row[:] = expand(fld, rng.choice(fld.q, 3, replace=False).tolist())
    split_, split = poly._split, []

    def counted(fld_, low, rounds):
        split.append(int((rounds == 0).sum()))
        return split_(fld_, low, rounds)

    monkeypatch.setattr(poly, "_split", counted)
    codes = poly.tagged_roots(fld, np.arange(len(rows)), rows)
    hit, y = np.nonzero(poly.eval_all(fld, rows) == 0)
    assert np.array_equal(np.sort(codes), hit * fld.q + y)
    assert sum(split) == len(rows) and not any(has_closed_form(fld, row) for row in rows.tolist())


def test_artin_schreier_keeps_the_last_fields_table_only():
    # quadratics y^2 + s*y + t, s != 0, in characteristic 2 read their roots
    # off the table of z^2 + z = c; only the last field's table is kept, and
    # a field used again rebuilds it
    for fld in (field_new(2, 3), field_new(2, 4), field_new(2, 3)):
        for s, t in itertools.product(range(1, fld.q), range(fld.q)):
            want = [y for y in range(fld.q) if fld.add(fld.mul(y, fld.add(y, s)), t) == 0]
            assert poly.roots(fld, (t, s, 1)) == want, (fld, s, t)
        info = poly._artin_schreier.cache_info()
        assert (info.maxsize, info.currsize) == (1, 1)


ROOT_FIELDS = [
    field_new(2),
    field_new(3),
    F7,
    field_new(1367),
    field_new(2, 2),
    field_new(2, 8),
    field_new(3, 4),
    field_new(5, 3),
]


def expand(fld, roots):
    """Coefficients, low first, of the product of (y - r) over roots."""
    coeffs = [1]
    for r in roots:
        shifted = [0] + coeffs
        coeffs = [fld.sub(s, fld.mul(r, c)) for s, c in zip(shifted, coeffs + [0])]
    return tuple(coeffs)


def trace(fld, x):
    """Tr(x) = x + x^p + ... + x^(p^(m-1)), by scalar field operations."""
    total = power = x
    for _ in range(fld.m - 1):
        power = fld.pow(power, fld.p)
        total = fld.add(total, power)
    return total


def one_class(fld):
    """Up to five distinct elements that the first round of the splitter
    leaves together: nonzero squares in odd characteristic, elements of
    trace 0 in characteristic 2."""
    if fld.p == 2:
        return [x for x in range(fld.q) if trace(fld, x) == 0][:5]
    return sorted({fld.mul(x, x) for x in range(1, fld.q)})[:5]


def pencils(fld, rng):
    """(a, b, leads) triples whose rows reach every case of the root finder:
    a line where lead kills the y^2 term of a quadratic pencil, y^2 + c
    where it kills the y term, rows that drop to constants and to the zero
    polynomial, cubic rows, a quartic pencil whose top term a lead kills,
    quintic rows, a double root in a quartic, rows that split into lines
    sharing the first round's class (so they need a second round), lines,
    and pencils with no y at all.  Every lead is taken when q <= 81, else
    the special ones plus five seeded ones."""
    q, neg = fld.q, fld.neg
    r = lambda: rng.randrange(q)
    a1 = r()
    a2 = rng.choice([v for v in range(q) if v != a1])
    l0 = r()
    cubic_a = (r(), r(), r(), r())
    quartic_a = (r(), r(), r(), r(), r())
    double = expand(fld, [a1, a1, a2, rng.choice([v for v in range(q) if v not in (a1, a2)] or [a1])])
    chosen = [
        ((r(), a1, a2), (r(), 1, 1), [neg(a1), neg(a2)]),  # y^2 + c at -a1, a line at -a2
        ((r(), 1, r()), (r(), 0, 1), []),  # the y coefficient is 1 on every row
        ((r(), neg(l0), neg(l0)), (r(), 1, 1), [l0]),  # constants at l0
        (cubic_a, (r(), r(), r(), 1), [neg(cubic_a[3])]),  # a quadratic at -a3
        (quartic_a, (r(), r(), r(), r(), 1), [neg(quartic_a[4])]),  # a cubic at -a4
        ((r(), r(), r(), r(), r(), 1), (r(), r(), 1), []),
        (double, (1,), [0]),  # lead = target gives the row (y - a1)^2 (y - a2)(y - c)
        (expand(fld, one_class(fld)), (1,), [0]),
        ((r(), r()), (r(), 1), []),
        ((), (), []),
        ((r(), r(), r()), (), []),
    ]
    out = []
    for a, b, special in chosen:
        leads = range(q) if q <= 81 else sorted(set(special + [r() for _ in range(5)]))
        out.append((a, b, np.array(leads, dtype=np.int64)))
    return out


def pencil_coefficients(fld, a, b, lead, target):
    """Coefficients of a + lead*b - target, one row per pencil row, by scalar
    field operations."""
    width = max(len(a), len(b), 1)
    a, b = list(a) + [0] * (width - len(a)), list(b) + [0] * (width - len(b))
    return [
        [fld.sub(fld.add(a[j], fld.mul(l, b[j])), t if j == 0 else 0) for j in range(width)]
        for l, t in zip(lead.tolist(), target.tolist())
    ]


def pencil_rows(fld, a, b, lead, target):
    """The coefficient rows, low first, of a + lead[r]*b - target[r]."""
    rows = fld.v_add(a, fld.v_mul(b, np.asarray(lead, np.int64)[:, None]))
    rows[:, 0] = fld.v_add(rows[:, 0], fld.v_mul(np.asarray(target, np.int64), fld.neg(1)))
    return rows


def pencil_roots(fld, a, b, lead, target):
    """Every (r, y) with a(y) + lead[r]*b(y) == target[r], as index arrays
    (rows, ys) in no set order: pencil_rows of a and b padded to one width,
    then poly.tagged_roots with each row tagged by its index."""
    ab = np.zeros((2, max(len(a), len(b), 1)), np.int64)
    ab[0, : len(a)], ab[1, : len(b)] = a, b
    rows = pencil_rows(fld, ab[0], ab[1], lead, target)
    return divmod(poly.tagged_roots(fld, np.arange(len(rows)), rows), fld.q)


@pytest.mark.parametrize("fld", ROOT_FIELDS, ids=str)
def test_pencil_roots_match_a_full_scan(fld, monkeypatch):
    # rows (lead, t) for every target t: the row a(y) + lead*b(y) - t vanishes
    # exactly at t = a(y) + lead*b(y), so a full scan of the values gives
    # every root; rows of degree >= 3 (no has_closed_form), and only those,
    # are split, and the cubic pieces a round leaves are split again
    q, rng = fld.q, random.Random(fld.q)
    split, rounds_seen, cubic_pieces, cubic_split = [], [], [], []
    split_round = poly._split

    def counted(fld_, low, rounds):
        split.append(int((rounds == 0).sum()))  # the rows of a first round
        rounds_seen.append(int(rounds.max(initial=0)))
        cubic_split.append(int((rounds > 0).sum()) if len(low) == 3 else 0)
        (root, z), (size, g) = split_round(fld_, low, rounds)
        cubic_pieces.append(int((size == 3).sum()))
        return (root, z), (size, g)

    monkeypatch.setattr(poly, "_split", counted)
    cases = set()
    for a, b, leads in pencils(fld, rng):
        lead, target = np.repeat(leads, q), np.tile(np.arange(q), len(leads))
        before = sum(split)
        rows, ys = pencil_roots(fld, a, b, lead, target)
        got = np.sort(rows * q + ys)
        width = max(len(a), len(b), 1)
        va, vb = poly.eval_all(fld, [list(a) + [0] * (width - len(a)), list(b) + [0] * (width - len(b))])
        values = fld.v_add(va, fld.v_mul(leads[:, None], vb))  # (leads, q)
        expected = np.sort(((np.arange(len(leads))[:, None] * q + values) * q + np.arange(q)).ravel())
        assert np.array_equal(got, expected), (a, b)
        coeffs = [poly.trim(c) for c in pencil_coefficients(fld, a, b, lead, target)]
        degrees = np.array([poly.degree(c) for c in coeffs])
        assert sum(split) - before == sum(not has_closed_form(fld, c) for c in coeffs)
        counts = np.bincount(expected // q, minlength=len(lead))
        for c, n in zip(coeffs, counts.tolist()):
            cases.add((poly.degree(c), n, len(c) == 3 and c[1] == 0))
    # zero polynomial, nonzero constants, lines, quadratics with no root
    # (non-squares, trace-1 right-hand sides), a double root and two roots,
    # y^2 + c, and rows of degree 3 to 5
    assert {(-1, q, False), (0, 0, False), (1, 1, False)} <= cases
    assert {n for d, n, _ in cases if d == 2} == {0, 1, 2}
    assert (2, 1, True) in cases and {3, 4, 5} <= {d for d, _, _ in cases}
    if fld.p > 2:
        assert (2, 1, False) in cases  # s^2/4 = t with s != 0
    # a double root among three roots of a quartic, and rows of degree >= 3
    # that split completely, some only in a second round
    if q > 3:
        assert (4, 3, False) in cases
    if q >= 7:
        assert sum(cubic_pieces) > 0 and sum(cubic_split) > 0, (cubic_pieces, cubic_split)
    full = one_class(fld)
    if len(full) >= 3:
        assert (len(full), len(full), False) in cases
        assert max(rounds_seen) >= 1


def test_pencil_roots_of_no_rows():
    rows, ys = pencil_roots(F7, (1, 2, 3, 4), (0, 1), [], [])
    assert rows.shape == ys.shape == (0,)


@pytest.mark.parametrize("fld", [field_new(1367), field_new(2, 8)], ids=str)
def test_roots_honour_the_block_budget(fld, monkeypatch):
    # with a budget below one row, no split_round call sees more than one
    # row: an octic of four roots the first round keeps together (nonzero
    # squares, trace 0) and four others it keeps together (non-squares,
    # trace 1), so two quartic pieces need a second round
    first = one_class(fld)[:4]
    other = [x for x in range(1, fld.q) if (trace(fld, x) if fld.p == 2 else fld.pow(x, fld.q // 2)) == fld.neg(1)][:4]
    coeffs = expand(fld, first + other)
    split_round, blocks = poly.split_round, []

    def counted(fld_, rows, rounds):
        blocks.append(len(rows))
        return split_round(fld_, rows, rounds)

    monkeypatch.setattr(poly, "split_round", counted)
    monkeypatch.setattr(errors, "BLOCK_BYTES", 1)
    got = poly.roots(fld, coeffs)
    assert got == np.flatnonzero(poly.eval_all(fld, coeffs) == 0).tolist() == sorted(first + other)
    assert blocks[0] == 1 and len(blocks) >= 3, blocks
    assert max(blocks) == 1, blocks


@pytest.mark.parametrize("fld", ROOT_FIELDS, ids=str)
def test_split_round_matches_a_full_scan_of_seeded_rows(fld):
    # rows of width 1..8 with random coefficients, zero rows, products of
    # chosen lines with repeats, and a random factor, and from width 5 on a
    # row whose first round leaves a cubic piece; the roots of every row,
    # round after round, against the values of the row on GF(q)
    rng = np.random.default_rng(fld.q)
    together = one_class(fld)[:3]
    for width in range(1, 9):
        rows = rng.integers(0, fld.q, (60, width))
        rows[:10] = 0
        for row in rows[10:40]:
            line_roots = rng.integers(0, fld.q, rng.integers(0, width)).tolist()
            row[:] = 0
            row[: len(line_roots) + 1] = [fld.mul(c, int(rng.integers(1, fld.q))) for c in expand(fld, line_roots)]
        if width >= 5 and len(together) == 3:
            rows[40] = 0
            rows[40, :5] = expand(fld, together + [next(x for x in range(1, fld.q) if x not in together)])
        source, rounds, found = np.arange(len(rows)), np.zeros(len(rows), np.int64), []
        left = rows
        while len(left):
            (hit, ys), (cut, left, rounds) = poly.split_round(fld, left, rounds)
            found += list(zip(source[hit].tolist(), ys.tolist()))
            # every piece of degree <= 2 is solved at once
            assert all(len(poly.trim(row)) >= 4 for row in left.tolist()), width
            source = source[cut]
        assert len(found) == len(set(found))  # each root once
        values = poly.eval_all(fld, rows)
        assert sorted(found) == sorted(zip(*map(np.ndarray.tolist, np.nonzero(values == 0)))), width


@pytest.mark.parametrize("fld", [field_new(1367), field_new(2, 8), field_new(3, 4), field_new(5, 3)], ids=str)
def test_split_round_stays_within_its_bytes_per_row(fld):
    # the peak tracemalloc sees in one round over 512 rows of each width,
    # all of full degree and a third of them products of distinct lines,
    # against split_bytes
    rng = np.random.default_rng(fld.q)
    for width in (1, 2, 3, 4, 5, 6, 8, 10):
        rows = rng.integers(0, fld.q, (512, width))
        rows[:, -1] = 1
        for row in rows[::3]:
            row[:] = expand(fld, rng.choice(fld.q, width - 1, replace=False).tolist())
        rounds = np.zeros(len(rows), np.int64)
        poly.split_round(fld, rows, rounds)  # the cached index arrays
        tracemalloc.start()
        try:
            poly.split_round(fld, rows, rounds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= len(rows) * poly.split_bytes(width), (width, peak / len(rows))


@pytest.mark.parametrize("fld", [field_new(53), field_new(2, 4), field_new(3, 2)], ids=str)
def test_row_echelon_stays_within_its_bytes_per_matrix(fld):
    # the peak tracemalloc sees in one elimination of a block of random
    # matrices as its callers size it, the stack included, against
    # echelon_bytes: the square build_V matrices of k = 2, 4, 16 and 26 at
    # t = 1, and a tall one of k = 3 at t = 2
    rng = np.random.default_rng(fld.q)
    for rows, cols in ((3, 3), (7, 7), (31, 31), (51, 51), (29, 5)):
        count = max(1, errors.BLOCK_BYTES // poly.echelon_bytes(rows, cols))
        tracemalloc.start()
        try:
            poly._row_echelon(fld, rng.integers(0, fld.q, (count, rows, cols)), cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= count * poly.echelon_bytes(rows, cols) <= errors.BLOCK_BYTES, (rows, cols, peak / count)


@pytest.mark.parametrize(
    "fld", [field_new(1367), field_new(1381), field_new(7, 2), field_new(7, 3), field_new(5, 3)], ids=str
)
def test_cubic_pass_stays_within_its_bytes_per_row(fld):
    # the peak tracemalloc sees in one split_round pass over 512 cubic rows
    # of each width, a third of them products of distinct lines, against
    # split_bytes: the cubic rows of stage 4 and the cubic pieces of later
    # rounds, over fields whose Zech additions (GF(7^2), GF(7^3), GF(5^3))
    # hold the most temporaries
    rng = np.random.default_rng(fld.q)
    for width in (4, 5, 6, 8, 10):
        rows = np.zeros((512, width), np.int64)
        rows[:, :3] = rng.integers(0, fld.q, (512, 3))
        rows[:, 3] = 1
        for row in rows[::3]:
            row[:4] = expand(fld, rng.choice(fld.q, 3, replace=False).tolist())
        rounds = np.zeros(len(rows), np.int64)
        poly.split_round(fld, rows, rounds)  # the cached index arrays
        tracemalloc.start()
        try:
            poly.split_round(fld, rows, rounds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= len(rows) * poly.split_bytes(width), (width, peak / len(rows))


@pytest.mark.parametrize("p", [65521, 65537, 1048573])
def test_pencil_roots_on_large_prime_fields(p):
    # the primes on either side of 2^16 and the largest below the 2^20
    # ceiling: rows of degree 3 to 5 made of chosen lines (with a double
    # root, and squares only, so that they need a second round) times
    # y^2 - n for a non-square n, so their roots are the chosen ones
    fld = field_new(p)
    rng = random.Random(p)
    nonsquare = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    cofactor = (fld.neg(nonsquare), 0, 1)
    chosen = [
        [rng.randrange(p) for _ in range(3)],
        [5, 5, 7],
        [fld.mul(x, x) for x in (2, 3, 4)],
        [0, p - 1, 1],
    ]
    for roots in chosen:
        line = expand(fld, roots)
        coeffs = [0] * (len(line) + 2)
        for i, c in enumerate(line):
            for j, e in enumerate(cofactor):
                coeffs[i + j] = fld.add(coeffs[i + j], fld.mul(c, e))
        assert poly.roots(fld, coeffs) == sorted(set(roots))


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_pencil_roots_property_over_prime_fields(data):
    # a random prime up to the ceiling, a random scaled product of lines
    # (repeats allowed) of degree up to 6 and a shift t: the roots of
    # product - t over GF(p) are the chosen lines' roots when t = 0, and in
    # every case exactly the y where the product takes the value t
    p = data.draw(st.integers(2, 1048573).map(next_prime))
    fld = field_new(p)
    roots = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=6))
    scale = data.draw(st.integers(1, p - 1))
    coeffs = [fld.mul(scale, c) for c in expand(fld, roots)]
    rows, ys = pencil_roots(fld, coeffs, (), [0], [0])
    assert sorted(ys.tolist()) == sorted(set(roots)) and not rows.any()
    candidates = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=5))
    t = poly.eval_poly(fld, coeffs, candidates[0])
    _, ys = pencil_roots(fld, coeffs, (), [0], [t])
    assert candidates[0] in ys.tolist()
    assert all(poly.eval_poly(fld, coeffs, y) == t for y in ys.tolist())
    assert len(ys) <= len(roots) and len(set(ys.tolist())) == len(ys)


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
        assert poly.rank(F7, a) == rank_oracle(F7, a)


@pytest.mark.parametrize("fld", ORACLE_FIELDS, ids=str)
def test_stacked_rank_matches_the_oracle(fld):
    # each stack mixes full-rank, deficient and zero matrices
    rng = random.Random(fld.q)
    kinds = set()
    for _ in range(12):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        stack = [random_matrix(fld, rng, m, n, rng.choice(["random", "random", "deficient", "zero"])) for _ in range(6)]
        want = [rank_oracle(fld, a) for a in stack]
        assert poly.rank(fld, stack).tolist() == want
        # leading axes are kept, and a single matrix gives a 0-d result
        assert poly.rank(fld, np.reshape(stack, (2, 3, m, n))).tolist() == [want[:3], want[3:]]
        assert np.ndim(poly.rank(fld, stack[0])) == 0 and poly.rank(fld, stack[0]) == want[0]
        kinds.update("full" if r == min(m, n) else "zero" if r == 0 else "deficient" for r in want)
    assert kinds == {"full", "deficient", "zero"}


@pytest.mark.parametrize("fld", ORACLE_FIELDS, ids=str)
def test_solve_linear_matches_the_oracle(fld):
    rng = random.Random(fld.q + 1)
    statuses = set()
    for _ in range(40):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        a = random_matrix(fld, rng, m, n, rng.choice(["random", "deficient", "zero"]))
        columns = []
        for _ in range(rng.randrange(1, 4)):
            if rng.random() < 0.5:  # a consistent right-hand side A x
                x = [rng.randrange(fld.q) for _ in range(n)]
                b = [0] * m
                for i, row in enumerate(a):
                    for v, xv in zip(row, x):
                        b[i] = fld.add(b[i], fld.mul(v, xv))
            else:
                b = [rng.randrange(fld.q) for _ in range(m)]
            columns.append(b)
        singles = [solve_oracle(fld, a, b) for b in columns]
        assert poly.solve_linear(fld, a, columns[0]) == singles[0]
        # several right-hand sides solve as columns, as in numpy.linalg.solve
        got = poly.solve_linear(fld, a, np.transpose(columns))
        if any(s.status == "inconsistent" for s in singles):
            assert got == poly.LinearSolution("inconsistent", None, ())
        else:
            assert got.status == singles[0].status and got.kernel == singles[0].kernel
            assert got.solution == tuple(zip(*(s.solution for s in singles)))
        statuses.update(s.status for s in singles)
    assert statuses == {"unique", "underdetermined", "inconsistent"}


@pytest.mark.parametrize("fld", ORACLE_FIELDS, ids=str)
def test_stacked_solve_matches_single_solves(fld):
    # a (B, R, C) stack solves as its matrices do one by one, with vector
    # and with column right-hand sides
    rng = random.Random(fld.q + 2)
    statuses = set()
    for _ in range(12):
        m, n, k = rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(1, 4)
        stack = [random_matrix(fld, rng, m, n, rng.choice(["random", "deficient", "zero"])) for _ in range(5)]
        rhs = []
        for a in stack:
            columns = []
            for _ in range(k):
                x = [rng.randrange(fld.q) for _ in range(n)]
                b = [rng.randrange(fld.q) for _ in range(m)]
                if rng.random() < 0.6:  # a consistent right-hand side A x
                    b = [0] * m
                    for i, row in enumerate(a):
                        for v, xv in zip(row, x):
                            b[i] = fld.add(b[i], fld.mul(v, xv))
                columns.append(b)
            rhs.append(np.transpose(columns))
        singles = tuple(poly.solve_linear(fld, a, b) for a, b in zip(stack, rhs))
        assert poly.solve_linear(fld, stack, rhs) == singles
        vectors = [b[:, 0] for b in rhs]
        assert poly.solve_linear(fld, stack, vectors) == tuple(poly.solve_linear(fld, a, b) for a, b in zip(stack, vectors))
        statuses.update(s.status for s in singles)
        with pytest.raises(ValueError):
            poly.solve_linear(fld, stack, rhs[:-1])
    assert statuses == {"unique", "underdetermined", "inconsistent"}
    assert poly.solve_linear(fld, np.zeros((0, 2, 2), dtype=np.int64), np.zeros((0, 2), dtype=np.int64)) == ()


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
    assert poly.trim((0, 0)) == ()
    assert poly.degree(()) == -1
