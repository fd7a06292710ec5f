"""Univariate polynomials over GF(q) and dense exact linear algebra.

Polynomials are tuples of element indices, low degree first, in canonical
form: no trailing zero coefficient, the zero polynomial being the empty
tuple.  Matrices are int64 arrays (or nested lists) of element indices;
the one Gaussian elimination, _row_echelon, reduces a whole stack of them
at once with the field's vector operations, one pass per column, so rank
ranks many small matrices in one call.  eval_all is the one stacked
Horner evaluation.  The one root finder, split_round, takes a stack of
coefficient rows of any degrees at once and finds their roots in rounds
(Berlekamp 1970; Cantor & Zassenhaus 1981), with no scan of GF(q):
closed forms up to degree 2, equal-degree splitting for the rest.  Its
one driver, tagged_roots, runs the rounds over tagged rows in blocks of
errors.BLOCK_BYTES: roots hands it a single row, the construction the
pencil rows of one row x of a stage's bad set.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import errors
from .gf import Field


class ZeroPolynomialError(ValueError):
    """Root query on the zero polynomial: every element is a root, and the
    caller must handle that case explicitly."""


def trim(coeffs) -> tuple[int, ...]:
    """Canonical form: drop trailing zeros."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(coeffs) -> int:
    """Degree of a canonical polynomial; -1 for the zero polynomial."""
    return len(coeffs) - 1


def eval_poly(fld: Field, coeffs, x: int) -> int:
    """Horner evaluation."""
    acc = 0
    for c in reversed(coeffs):
        acc = fld.add(fld.mul(acc, x), c)
    return acc


def eval_on(fld: Field, coeffs, xs) -> tuple[int, ...]:
    return tuple(eval_poly(fld, coeffs, x) for x in xs)


def eval_all(fld: Field, coeffs, xs=None) -> np.ndarray:
    """Values of the polynomial at the points xs, or on every field element,
    indexed by element, when xs is None: one stacked Horner pass.  A 2-D
    array of coefficient rows gives one row of values per polynomial."""
    xs = np.arange(fld.q, dtype=np.int64) if xs is None else np.asarray(xs, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=np.int64)
    acc = np.zeros(coeffs.shape[:-1] + xs.shape, dtype=np.int64)
    for c in coeffs.T[::-1]:
        acc = fld.v_add(fld.v_mul(acc, xs), c[..., None])
    return acc


def roots(fld: Field, coeffs) -> list[int]:
    """All roots in GF(q), ascending: tagged_roots of one row, tag 0."""
    coeffs = trim(coeffs)
    if not coeffs:
        raise ZeroPolynomialError("every field element is a root of the zero polynomial")
    return sorted(tagged_roots(fld, [0], [coeffs]).tolist())


def pencil_rows(fld: Field, a, b, lead, target) -> np.ndarray:
    """The coefficient rows, low first, of a[r] + lead[r]*b[r] - target[r]
    for (R, W) coefficient arrays a and b (or one W-row each, shared by
    every r) and 1-D lead and target of length R: an (R, W) array."""
    lead, target = np.asarray(lead, np.int64), np.asarray(target, np.int64)
    rows = fld.v_add(a, fld.v_mul(b, lead[:, None]))
    rows[:, 0] = fld.v_add(rows[:, 0], fld.v_mul(target, fld.neg(1)))
    return rows


def tagged_roots(fld: Field, tags, rows) -> np.ndarray:
    """The codes tag*q + y of the roots y in GF(q) of (R, W) coefficient
    rows, low first, each with an integer tag, in no set order: the one
    driver of split_round.  It runs split_round on blocks of
    errors.BLOCK_BYTES // split_bytes(W) rows in arrival order and queues
    the pieces a round leaves behind the rows still waiting, so rows that
    need more rounds share blocks with fresh ones."""
    tags, rows = np.asarray(tags, np.int64), np.asarray(rows, np.int64)
    rounds, codes = np.zeros(len(tags), np.int64), [np.empty(0, np.int64)]
    block = max(1, errors.BLOCK_BYTES // split_bytes(rows.shape[1]))
    while len(tags):
        (hit, y), (left, pieces, after) = split_round(fld, rows[:block], rounds[:block])
        codes.append(tags[hit] * fld.q + y)
        tags, rows, rounds = (
            np.concatenate((tags[block:], tags[left])),
            np.concatenate((rows[block:], pieces)),
            np.concatenate((rounds[block:], after)),
        )
    return np.concatenate(codes)


def split_bytes(width: int) -> int:
    """Working memory of split_round per row of width W, in bytes: an upper
    bound of its peak under tracemalloc (tests pin it), which holds a few
    int64 (W, W) arrays per row (the logs of y^k mod P, d <= k < 2d, the
    products of a square, the gcd's logs): at most 41 W^2 bytes for W >= 3
    on rows of full degree (653 at W = 4 and 3,316 at W = 10 over GF(5^3),
    whose Zech additions hold the most temporaries), below 190 bytes for
    shorter rows, which are padded to 3 columns."""
    return 44 * max(width, 3) ** 2


def split_round(fld: Field, rows, rounds) -> tuple[tuple[np.ndarray, np.ndarray], tuple]:
    """One round of the root finder on an (R, W) stack of coefficient rows,
    low first, each with the number of rounds it has had.  Returns the
    roots found, as index arrays (rows, ys), and the pieces left to split,
    as (rows, pieces, rounds): monic (R', W) rows of degree 3 or more, each
    with the row it divides and its round count plus one.

    A zero row has every y as root and a nonzero constant none; rows of
    degree 1 and 2 are solved in closed form (_closed_form).  A row P of
    degree d >= 3, a cubic included, is split by equal-degree splitting
    (Berlekamp 1970; Cantor & Zassenhaus 1981) into gcd(P, w + c) for two
    constants c.  In odd characteristic, in round j, delta = j (an element
    index), w = (y + delta)^((q-1)/2) mod P and c = -1, +1, and y = -delta
    is tested alone; in characteristic 2, delta = 2^j (the basis element
    x^j), w = Tr(delta*y) mod P and c = 0, 1, so any two roots are apart
    within m rounds.  Both gcd, from a Euclid of 2d - 1 masked steps
    (_gcd_pieces), are squarefree products of lines that hold every root of
    P but -delta between them.  A piece of degree <= 2 is solved in closed
    form at once; the others are left to split again with the next delta.
    """
    rows, rounds = np.asarray(rows, np.int64), np.asarray(rounds, np.int64)
    width = rows.shape[1]
    cols = np.zeros((max(width, 3), len(rows)), np.int64)  # coefficient-major
    cols[:width] = rows.T
    degree = np.where(cols != 0, np.arange(len(cols))[:, None], -1).max(axis=0, initial=-1)
    every = np.flatnonzero(degree < 0)
    hit, y = np.nonzero(np.ones((len(every), fld.q), bool))
    found, ys = [every[hit]], [y]
    monic = fld.v_mul(cols, fld.v_inv(cols[degree, np.arange(len(rows))]))
    del cols
    small = np.flatnonzero((degree == 1) | (degree == 2))
    sources, pieces, sizes = [small], [monic[:2, small]], [degree[small]]
    left, split = [np.empty(0, np.int64)], [np.empty((0, width), np.int64)]
    for d in np.flatnonzero(np.bincount(degree[degree >= 3])).tolist():
        source = np.flatnonzero(degree == d)
        (root, z), (size, g) = _split(fld, monic[:d, source], rounds[source])
        found.append(source[root])
        ys.append(z)
        source = np.concatenate((source, source))
        few = (size >= 1) & (size <= 2)
        sources.append(source[few])
        pieces.append(g[:2, few])
        sizes.append(size[few])
        left.append(source[size > 2])
        split.append(np.zeros((len(left[-1]), width), np.int64))
        split[-1][:, : d + 1] = g[:, size > 2].T
    hit, y = _closed_form(fld, np.concatenate(pieces, axis=1), np.concatenate(sizes))
    found.append(np.concatenate(sources)[hit])
    ys.append(y)
    left = np.concatenate(left)
    return (np.concatenate(found), np.concatenate(ys)), (left, np.concatenate(split), rounds[left] + 1)


@lru_cache(maxsize=None)
def _square_pattern(d: int, char2: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs (i, j) whose products w_i*w_j make up w^2 for w of degree
    below d, i <= j (and i = j in characteristic 2), with a last pair (d, d)
    that reads as 0, and for each k < 2d - 1 the pairs with i + j = k, those
    with i < j twice (2*w_i*w_j), padded with the last pair."""
    i, j = (np.arange(d), np.arange(d)) if char2 else np.triu_indices(d)
    groups = [np.repeat(np.flatnonzero(i + j == k), 1 + (i < j)[i + j == k]) for k in range(2 * d - 1)]
    width = max(map(len, groups))
    groups = [np.pad(g, (0, width - len(g)), constant_values=len(i)) for g in groups]
    return np.append(i, d), np.append(j, d), np.array(groups)


def _split(fld: Field, low, rounds):
    """One split, as split_round describes, of the monic rows y^d + low(y)
    given coefficient-major as a (d, R) array, d >= 3.  Returns the roots
    y = -delta found, as (rows, ys), and the two gcd of every row, row r
    and then row R + r for the constants c, as (degrees, pieces): monic,
    coefficient-major, in a (d + 1, 2R) array."""
    d, n = low.shape
    if fld.p == 2:
        return (rounds[:0], rounds[:0]), _gcd_pieces(fld, low, _power(fld, low, rounds), (0, 1))
    minus = fld.neg(1)
    z = fld.v_mul(rounds, minus)
    value = low[0]  # P(-delta), by Horner unless every delta is 0
    if rounds.any():
        value = np.ones(n, np.int64)
        for k in range(d - 1, -1, -1):
            value = fld.v_add(fld.v_mul(value, z), low[k])
    root = np.flatnonzero(value == 0)
    return (root, z[root]), _gcd_pieces(fld, low, _power(fld, low, rounds), (minus, 1))


def _power(fld: Field, low, rounds) -> np.ndarray:
    """w of split_round mod the monic rows P = y^d + low(y), low given
    coefficient-major as a (d, R) array, and so w: (y + delta)^((q-1)/2) by
    square and multiply, or Tr(delta*y) by m - 1 squares.  A square sums
    the products w_i*w_j (from the logs of w, taken once) into the 2d - 1
    coefficients of w^2, times y + delta where the exponent's bit is 1, and
    is reduced mod P by adding s_k * (y^k mod P) for every coefficient s_k
    of degree k >= d, with the logs of y^k mod P, d <= k < 2d, tabled once
    per call."""
    d, n = low.shape
    neg_low = fld.v_mul(low, fld.neg(1))
    powers = np.empty((d, d, n), np.int64)  # y^(d+k) mod P
    powers[0] = neg_low
    for k in range(1, d):
        powers[k, 0] = 0
        powers[k, 1:] = powers[k - 1, :-1]
        powers[k] = fld.v_add(powers[k], fld.v_mul(powers[k - 1, -1], neg_low))
    powers = fld.v_log(powers)
    i, j, groups = _square_pattern(d, fld.p == 2)
    logs = np.full((d + 1, n), 2 * (fld.q - 1))  # the logs of w, and a last 0

    shift, zero = bool(rounds.any()), np.zeros((1, n), np.int64)

    def square(w, times=False):
        """w^2 mod P, or w^2 * (y + delta) mod P with times: s mod P is
        s_low plus s_k * (y^k mod P) for each s_k of degree k >= d."""
        logs[:d] = fld.v_log(w)
        products = fld.v_exp(logs.take(i, axis=0) + logs.take(j, axis=0))
        s = fld.v_sum(products.take(groups, axis=0), axis=1)
        if times:
            shifted = np.concatenate((zero, s))
            if shift:
                shifted[:-1] = fld.v_add(shifted[:-1], fld.v_mul(s, rounds))
            s = shifted
        top = fld.v_exp(fld.v_log(s[d:])[:, None] + powers[: len(s) - d])
        return fld.v_sum(np.concatenate((s[None, :d], top)), axis=0)

    w = np.zeros((d, n), np.int64)
    if fld.p == 2:
        w[1] = 1 << rounds  # delta*y
        power = w
        for _ in range(fld.m - 1):  # Tr(delta*y) = sum of (delta*y)^(2^i), i < m
            power = square(power)
            w = fld.v_add(w, power)
        return w
    # (y + delta)^m for the exponent's leading bits m < d: products with
    # y + delta that need no reduction (w*y is w shifted, its top being 0)
    bits = bin((fld.q - 1) // 2)[2:]
    top = max(t for t in range(1, len(bits) + 1) if int(bits[:t], 2) < d)
    w[0] = 1
    for _ in range(int(bits[:top], 2)):
        times_y = np.concatenate((zero, w[:-1]))
        w = fld.v_add(times_y, fld.v_mul(w, rounds)) if shift else times_y
    for bit in bits[top:]:
        w = square(w, bit == "1")
    return w


def _gcd_pieces(fld: Field, low, w, constants) -> tuple[np.ndarray, np.ndarray]:
    """gcd(P, w + c) for the monic rows P = y^d + low(y) and both constants
    c, as (degrees, pieces): the pieces monic and coefficient-major in a
    (d + 1, 2R) array, row r and then R + r.  2d - 1 divsteps (Bernstein &
    Yang 2019, Theorem 6.2), kept as logs, on f = y^d P(1/y) and
    g = y^(d-1) (w + c)(1/y) leave a delta whose half is the degree of the
    gcd, which is y^(delta/2) f(1/y) / f(0)."""
    d, n = low.shape
    zero = 2 * (fld.q - 1)
    lf = np.full((d + 1, 2 * n), fld.v_log(1))
    lf[1:, :n] = lf[1:, n:] = fld.v_log(low[::-1])
    lg = np.full((d + 1, 2 * n), zero)
    lg[:d, :n] = lg[:d, n:] = fld.v_log(w[::-1])
    lg[d - 1] = fld.v_log(fld.v_add(np.concatenate((w[0], w[0])), np.repeat(constants, n)))
    half = fld.v_log(fld.neg(1))  # -x = g^(log x + half)
    delta = np.ones(2 * n, np.int64)
    for _ in range(2 * d - 1):
        swap = (delta > 0) & (lg[0] < zero)
        # h = f(0) g - g(0) f, shifted down
        h = fld.v_add(fld.v_exp(lf[0] + lg[1:]), fld.v_exp(fld.v_log(fld.v_exp(lg[0] + half)) + lf[1:]))
        np.copyto(lf, lg, where=swap)
        lg[:-1] = fld.v_log(h)
        delta = np.where(swap, -delta, delta) + 1
    del lg  # the pieces' temporaries set the round's peak memory (split_bytes)
    size = delta // 2
    at = size - np.arange(d + 1)[:, None]
    g = lf[np.maximum(at, 0), np.arange(2 * n)]
    g[at < 0] = zero
    g += fld.q - 1 - lf[0]
    return size, fld.v_exp(g)


@lru_cache(maxsize=1)
def _artin_schreier(fld: Field) -> np.ndarray:
    """For each c of GF(2^m), a root z of the Artin-Schreier equation
    z^2 + z = c, or -1 when there is none: a table of the field last used,
    built on its first use, so that no call scans GF(q) and a process holds
    one such table at a time."""
    z = np.arange(fld.q)
    table = np.full(fld.q, -1)
    table[fld.v_add(fld.v_mul(z, z), z)] = z
    return table


def _closed_form(fld: Field, low, degree) -> tuple[np.ndarray, np.ndarray]:
    """The roots (rows, ys) of monic rows of degree 1 or 2, given by their
    low coefficients, coefficient-major as a (2, R) array, with their
    degrees, read off the field's tables.  A line y + t has -t; a quadratic
    y^2 + s*y + t has -s/2 +- sqrt(s^2/4 - t) in odd characteristic; in
    characteristic 2 it has sqrt(t) when s = 0, and otherwise s*z and
    s*(z + 1) for z^2 + z = t/s^2 (_artin_schreier; none when t/s^2 is not
    such a value)."""
    minus = fld.neg(1)
    line = np.flatnonzero(degree == 1)
    rows, ys = [line], [fld.v_mul(low[0, line], minus)]
    r = np.flatnonzero(degree == 2)
    t, s = low[:2, r]
    if fld.p == 2:
        flat = s == 0
        rows.append(r[flat])
        ys.append(fld.v_sqrt(t[flat])[1])
        r, s, t = r[~flat], s[~flat], t[~flat]
        if len(r):
            z = _artin_schreier(fld)[fld.v_mul(t, fld.v_inv(fld.v_mul(s, s)))]
            r, s, z = r[z >= 0], s[z >= 0], z[z >= 0]
            rows += [r, r]
            ys += [fld.v_mul(s, z), fld.v_mul(s, fld.v_add(z, 1))]
    else:
        centre = fld.v_mul(s, fld.neg(fld.inv(fld.int_embed(2))))  # -s/2
        square, root = fld.v_sqrt(fld.v_add(fld.v_mul(centre, centre), fld.v_mul(t, minus)))
        r, centre, root = r[square], centre[square], root[square]
        two = root != 0
        rows += [r, r[two]]
        ys += [fld.v_add(centre, root), fld.v_add(centre[two], fld.v_mul(root[two], minus))]
    return np.concatenate(rows), np.concatenate(ys)


# -- linear algebra ------------------------------------------------------


@dataclass(frozen=True)
class LinearSolution:
    """Full description of the solution set of A x = b.

    status is "unique", "inconsistent", or "underdetermined"; `solution` is a
    particular solution when one exists (free variables 0; a row per unknown
    for a 2-D rhs), `kernel` a basis of the homogeneous solution space.
    """

    status: str
    solution: tuple | None
    kernel: tuple[tuple[int, ...], ...]


def _row_echelon(fld: Field, stack, ncols: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form, in lockstep, of every matrix of a (B, R, C)
    stack over its first ncols columns (later columns, such as right-hand
    sides, are carried along).  Rows stay in place: per column, each matrix
    scales its first free (not yet pivotal) row with a nonzero entry there
    to a leading 1 and clears the column in every other row.  Returns the
    reduced stack and the (B, ncols) pivot row of each column, -1 if none.
    """
    a = np.array(stack, dtype=np.int64)
    pivots = np.full((len(a), ncols), -1, dtype=np.int64)
    used = np.zeros(a.shape[:2], dtype=bool)
    each = np.arange(len(a))
    for c in range(ncols):
        found = (a[:, :, c] != 0) & ~used
        has = found.any(axis=1)
        row = found.argmax(axis=1)
        # A free row is zero left of c, so only columns c.. change.  With no
        # pivot the row read is zeroed (the inverse of 0 is 0) so that no used
        # row is subtracted; a pivot row is overwritten after the update.
        head = a[each, row, c:]
        head = fld.v_mul(head, fld.v_inv(np.where(has, head[:, 0], 0))[:, None])
        factor = fld.v_mul(a[:, :, c, None], fld.neg(1))
        a[:, :, c:] = fld.v_add(a[:, :, c:], fld.v_mul(factor, head[:, None, :]))
        a[each[has], row[has], c:] = head[has]
        pivots[has, c] = row[has]
        used[each[has], row[has]] = True
    return a, pivots


def echelon_bytes(rows: int, cols: int) -> int:
    """Working memory of _row_echelon per matrix of a stack of rows x cols
    matrices, the stack included, in bytes: an upper bound of its peak under
    tracemalloc (tests pin it), at most 6.1 int64 per entry (51 x 51 over
    GF(9), whose Zech additions hold the most), beside about 5 KiB a call."""
    return 8 * rows * (6 * cols + 16)


def rank(fld: Field, matrices) -> np.ndarray:
    """Rank of every matrix of a (..., R, C) stack, keeping the leading axes;
    a single matrix gives a 0-d result."""
    a = np.asarray(matrices, dtype=np.int64)
    _, pivots = _row_echelon(fld, a.reshape((-1,) + a.shape[-2:]), a.shape[-1])
    return (pivots >= 0).sum(axis=-1).reshape(a.shape[:-2])


def solve_linear(fld: Field, matrix, rhs) -> LinearSolution | tuple[LinearSolution, ...]:
    """Solve A x = b.  As in numpy.linalg.solve, a 2-D rhs holds one
    right-hand side per column and the solution has one column per
    right-hand side; the status covers them all.  A (B, R, C) stack of
    matrices takes a (B, R) or (B, R, K) stack of right-hand sides, is
    reduced in one pass, and gives a tuple of B solutions."""
    a, b = np.asarray(matrix, dtype=np.int64), np.asarray(rhs, dtype=np.int64)
    if a.ndim not in (2, 3) or b.ndim not in (a.ndim - 1, a.ndim) or b.shape[: a.ndim - 1] != a.shape[:-1]:
        raise ValueError("matrix/rhs dimension mismatch")
    ncols, columns = a.shape[-1], b.ndim == a.ndim
    stack = a if a.ndim == 3 else a[None]
    rhs_stack = b.reshape(stack.shape[:2] + (b.shape[-1] if columns else 1,))
    reduced, pivots = _row_echelon(fld, np.concatenate((stack, rhs_stack), axis=2), ncols)
    solved = tuple(_solution(fld, r, p, ncols, columns) for r, p in zip(reduced, pivots))
    return solved if a.ndim == 3 else solved[0]


def _solution(fld: Field, reduced, pivots, ncols: int, columns: bool) -> LinearSolution:
    """The LinearSolution read off one reduced matrix and its pivot rows."""
    if np.delete(reduced[:, ncols:], pivots[pivots >= 0], axis=0).any():
        return LinearSolution("inconsistent", None, ())
    pivot_cols, free_cols = np.flatnonzero(pivots >= 0), np.flatnonzero(pivots < 0)
    solution = np.zeros((ncols, reduced.shape[1] - ncols), dtype=np.int64)
    solution[pivot_cols] = reduced[pivots[pivot_cols], ncols:]
    kernel = np.eye(ncols, dtype=np.int64)[free_cols]
    kernel[:, pivot_cols] = fld.v_mul(reduced[pivots[pivot_cols]][:, free_cols].T, fld.neg(1))
    status = "unique" if not len(free_cols) else "underdetermined"
    solution = tuple(map(tuple, solution.tolist())) if columns else tuple(solution[:, 0].tolist())
    return LinearSolution(status, solution, tuple(map(tuple, kernel.tolist())))
