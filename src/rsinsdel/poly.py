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
closed forms up to degree 2, and for every cubic in characteristic p > 3
(Cardano 1545, through the norm-1 torus of GF(q^2) when the radicand is
not a square), equal-degree splitting for the rest.  Its one driver,
RootPool, solves the cubic rows and the cubic pieces of later rounds in
closed form as they arrive and runs the rounds on the others in blocks
of errors.BLOCK_BYTES: roots drains one over a single row, the
construction one over a stage's rows.  The torus table of a
field (_torus) takes 12 bytes per element, built on first use.  All
functions are pure; RootPool is the one object with state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import errors
from .gf import Field, factorize


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
    """All roots in GF(q), ascending: a drained RootPool of one row, tag 0."""
    coeffs = trim(coeffs)
    if not coeffs:
        raise ZeroPolynomialError("every field element is a root of the zero polynomial")
    pool = RootPool(fld)
    pool.add(np.zeros(1, np.int64), np.array([coeffs], np.int64))
    return sorted(pool.split(drain=True).tolist())


def pencil_rows(fld: Field, a, b, lead, target) -> np.ndarray:
    """The coefficient rows, low first, of a + lead[r]*b - target[r] for
    coefficient tuples a and b and 1-D lead and target of one length: an
    (R, W) array, W = max(len(a), len(b), 1)."""
    lead, target = np.asarray(lead, np.int64), np.asarray(target, np.int64)
    ab = np.zeros((2, max(len(a), len(b), 1)), np.int64)
    ab[0, : len(a)], ab[1, : len(b)] = a, b
    rows = fld.v_add(ab[0], fld.v_mul(ab[1], lead[:, None]))
    rows[:, 0] = fld.v_add(rows[:, 0], fld.v_mul(target, fld.neg(1)))
    return rows


class RootPool:
    """Coefficient rows with integer tags (the construction's first points)
    waiting for their roots: the one driver of split_round.  In
    characteristic p > 3 every row wide enough for a cubic, fresh or a
    piece a round left, first waits for the closed-form pass, which solves
    the cubics (_cardano) in chunks of errors.BLOCK_BYTES // cubic_bytes(W)
    rows, W the rows' width, so that blocks hold only rows that split_round
    must split or solves in closed form anyway (degree <= 2).  split() runs
    split_round on the others in blocks of errors.BLOCK_BYTES //
    split_bytes(W) rows, in arrival order, and queues the pieces a round
    leaves behind the waiting rows, so rows that need more rounds share
    blocks with fresh ones.  The closed-form pass stays a list of its own
    because running it inside split_round's blocks measured slower (2-core
    VM, Python 3.11.7, numpy 2.4.6, in process, construct with verification
    off): for fresh rows GF(1367), k = 4 went 46.7 -> 53.6 ms (22 -> 32
    split_round calls), GF(1381) 42.9 -> 47.4 ms and GF(4507), k = 5 0.442
    -> 0.468 s; for the cubic pieces of later rounds GF(11273), k = 6 went
    2.60 -> 2.72 s and GF(23789), k = 7 13.0-13.3 -> 13.7 s, one _cardano
    call per split_round block costing more than the rounds it saves."""

    def __init__(self, fld: Field):
        self.fld = fld
        self.fresh, self.untested = [], 0  # (tags, rows, rounds) not yet tested for a cubic
        self.queue, self.size = [], 0  # (tags, rows, rounds) to split; both lists in arrival order

    def add(self, tags, rows, rounds=None) -> None:
        """Queue (R, W) coefficient rows, low first, one W per pool, with R
        tags and the rounds each has had (none unless given).  Rows wide
        enough for a cubic, in characteristic p > 3, wait for the
        closed-form pass, which solves the cubics and queues the others."""
        rounds = np.zeros(len(tags), np.int64) if rounds is None else rounds
        if rows.shape[1] >= 4 and self.fld.p > 3:
            self.fresh.append((tags, rows, rounds))
            self.untested += len(tags)
        else:
            self.queue.append((tags, rows, rounds))
            self.size += len(tags)

    def split(self, drain: bool = False) -> np.ndarray:
        """The codes tag*q + y of the roots of every full chunk and block,
        or, with drain, of every row until the pool is empty, in no set
        order."""
        codes = [np.empty(0, np.int64)]
        while True:
            if self.untested:
                chunk = max(1, errors.BLOCK_BYTES // cubic_bytes(self.fresh[0][1].shape[1]))
                if drain or self.untested >= chunk:
                    (tags, rows, rounds), self.fresh = _first(self.fresh, chunk)
                    self.untested -= len(tags)
                    (hit, y), keep = _solve_cubics(self.fld, rows)
                    codes.append(tags[hit] * self.fld.q + y)
                    self.queue.append((tags[keep], rows[keep], rounds[keep]))
                    self.size += np.count_nonzero(keep)
                    continue
            if self.size:
                block = max(1, errors.BLOCK_BYTES // split_bytes(self.queue[0][1].shape[1]))
                if drain or self.size >= block:
                    (tags, rows, rounds), self.queue = _first(self.queue, block)
                    self.size -= len(tags)
                    (hit, y), (left, pieces, after) = split_round(self.fld, rows, rounds)
                    codes.append(tags[hit] * self.fld.q + y)
                    self.add(tags[left], pieces, after)
                    continue
            return np.concatenate(codes)


def _first(parts: list, count: int) -> tuple[list, list]:
    """The first count rows of a list of tuples of arrays, joined, and the
    list of the rest."""
    joined = [np.concatenate(part) for part in zip(*parts)]
    rest = [tuple(a[count:] for a in joined)] if len(joined[0]) > count else []
    return [a[:count] for a in joined], rest


def split_bytes(width: int) -> int:
    """Working memory of split_round per row of width W, in bytes: an upper
    bound of its peak under tracemalloc (tests pin it), which holds a few
    int64 (W, W) arrays per row (the logs of y^k mod P, d <= k < 2d, the
    products of a square, the gcd's logs): at most 41 W^2 bytes for W >= 3
    on rows of full degree (653 at W = 4 and 3,316 at W = 10 over GF(5^3),
    whose Zech additions hold the most temporaries), below 190 bytes for
    shorter rows, which are padded to 3 columns."""
    return 44 * max(width, 3) ** 2


def cubic_bytes(width: int) -> int:
    """Working memory of RootPool.add's closed-form pass (_solve_cubics)
    per row of width W >= 4, in bytes: an upper bound of its peak under
    tracemalloc (tests pin it), which holds the row's cubic test and, for a
    cubic row, its coefficients, the Cardano temporaries and up to three
    roots: on rows that are all cubic up to 203 bytes where q = 1 (mod 3)
    (GF(7^2) and GF(7^3), whose Zech additions hold the most temporaries)
    and up to 222 where q = 2 (mod 3) (GF(1367), GF(5^3) and GF(65537)),
    where the products of three lines take the torus path."""
    return 224 + width


def _solve_cubics(fld: Field, rows) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The roots (rows, ys) of the cubic rows of an (R, W) stack, W >= 4,
    in characteristic p > 3, and a mask of the other rows, left to split."""
    keep = (rows[:, 3] == 0) | rows[:, 4:].any(axis=1)
    cubic = np.flatnonzero(~keep)
    logs = fld.v_log(rows[cubic, :4].T)
    low = fld.v_exp(logs[:3] + (fld.q - 1 - logs[3]))  # made monic
    del logs  # freed before _cardano, whose temporaries set the peak (cubic_bytes)
    hit, y = _cardano(fld, low)
    return (cubic[hit], y), keep


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
    form at once; the others are left to split again with the next delta
    (RootPool solves the cubic ones first when p > 3).
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


@lru_cache(maxsize=None)
def _artin_schreier(fld: Field) -> np.ndarray:
    """For each c of GF(2^m), a root z of the Artin-Schreier equation
    z^2 + z = c, or -1 when there is none: one table per field, built on
    first use, so that no call scans GF(q)."""
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


def _cardano(fld: Field, low) -> tuple[np.ndarray, np.ndarray]:
    """The roots (rows, ys) of monic cubics y^3 + c2*y^2 + c1*y + c0 in
    characteristic p > 3, given coefficient-major as a (3, R) array
    (Cardano 1545).  y = z + t, t = -c2/3, gives z^3 + a*z + b; with
    e = a/3 and h = b/2 the radicand is D = h^2 + e^3, and the roots z are
    exactly the u - e/u, one for each cube root u of c = -h + sqrt(D) that
    lies in GF(q) when D is a square and has norm -e when it is not.
    D = 0 gives -h/e, twice, and 2h/e, or 0 alone when e = 0.  A nonzero
    square D gives c = -h + sqrt(D), or -h - sqrt(D) = -2h when that is 0,
    and its cube roots u in GF(q) are read off the logs: one when 3 does not
    divide N = q - 1 (log u = log c / 3 mod N), else three or none (log c / 3
    plus 0, N/3 and 2N/3, when 3 divides log c).  A non-square D has
    sqrt(D) = r*s in GF(q^2) = GF(q)[s]/(s^2 - g), g the field's generator,
    r = sqrt(D/g), and u - e/u = u + conj(u) = Tr(u) for u of norm -e:
    u = m*beta*tau with m^2 = -e and beta = 1, or m^2 = -e/N(beta) when -e
    is not a square (beta of _torus), and tau a cube root of
    c/(m*beta)^3 = c*conj(m*beta)^3/(-e)^3 in the norm-1 torus, of order
    q + 1: one (log / 3 mod q + 1) when q = 1 (mod 3), else three or none,
    as above.  A torus element missing from _torus's table is an
    InvariantViolation."""
    n, minus = fld.q - 1, fld.neg(1)
    third = fld.inv(fld.int_embed(3))
    c0, c1, c2 = low
    t = fld.v_mul(c2, fld.neg(third))
    e = fld.v_mul(fld.v_add(c1, fld.v_mul(c2, t)), third)  # a = c1 - c2^2/3
    # -h = t^3 - (c0 + c1*t)/2, as b = c0 + c1*t - 2t^3
    minus_h = fld.v_mul(fld.v_add(c0, fld.v_mul(c1, t)), fld.neg(fld.inv(fld.int_embed(2))))
    minus_h = fld.v_add(minus_h, fld.v_mul(fld.v_mul(t, t), t))
    radicand = fld.v_add(fld.v_mul(minus_h, minus_h), fld.v_mul(fld.v_mul(e, e), e))
    square, root = fld.v_sqrt(radicand)
    r = np.flatnonzero(radicand == 0)
    double = fld.v_mul(minus_h[r], fld.v_inv(e[r]))  # -h/e, and 0 when e = h = 0
    two = e[r] != 0
    rows, zs = [r, r[two]], [double, fld.v_mul(double[two], fld.neg(fld.int_embed(2)))]  # and 2h/e
    r = np.flatnonzero(~square)
    if len(r):
        zs.append(_torus_roots(fld, r, minus_h[r], radicand[r], e[r], rows))
    r = np.flatnonzero(square & (radicand != 0))
    c = fld.v_add(minus_h[r], root[r])
    log = fld.v_log(np.where(c == 0, fld.v_add(minus_h[r], minus_h[r]), c))
    r, logs = _cube_roots(r, log, n)
    # -e/u = g^(log(-e) + N - log u), 0 when e = 0 (its log is 2N)
    zs.append(fld.v_add(fld.v_exp(logs), fld.v_exp(fld.v_log(fld.v_mul(e[r], minus)) + n - logs)).ravel())
    rows.append(np.broadcast_to(r, logs.shape).ravel())
    rows = np.concatenate(rows)
    return rows, fld.v_add(np.concatenate(zs), t[rows])


def _cube_roots(rows, log, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The cube roots, as logs, of the elements with the given logs in a
    cyclic group of the given order: rows whose element has a cube root,
    and a (1, R') or (3, R') array of their roots' logs."""
    if order % 3:
        return rows, log[None] * pow(3, -1, order) % order
    has = log % 3 == 0
    return rows[has], log[has] // 3 + np.arange(0, order, order // 3)[:, None]


def _torus_roots(fld: Field, rows, minus_h, radicand, e, found: list) -> np.ndarray:
    """The roots z = Tr(m*beta*tau) of _cardano for its rows of non-square
    D, given their -h, D and e; appends the rows of the roots to found."""
    (powers, _), (bx, inv_norm, _) = _torus(fld)
    log_me = fld.v_log(fld.v_mul(e, fld.neg(1)))  # e != 0, as D is not a square
    flat = log_me % 2 == 0  # -e is a square: beta = 1
    log_m = (log_me + np.where(flat, 0, fld.v_log(inv_norm))) // 2
    j = _torus_log(fld, minus_h, radicand, log_me, log_m, flat)
    which, logs = _cube_roots(np.arange(len(rows)), j, fld.q + 1)
    x, y = powers[:, logs]
    real = np.where(flat[which], x, fld.v_add(fld.v_mul(x, bx), fld.v_mul(y, fld.generator())))  # of beta*tau
    found.append(np.broadcast_to(rows[which], logs.shape).ravel())
    return fld.v_mul(fld.v_exp(log_m[which]), fld.v_mul(real, fld.int_embed(2))).ravel()


def _torus_log(fld: Field, minus_h, radicand, log_me, log_m, flat) -> np.ndarray:
    """The logs in _torus's table of c/(m*beta)^3 = c*conj(beta)^3*(m/(-e))^3
    for _torus_roots' rows, c = -h + r*s, given -h, D, the logs of -e and m,
    and whether beta = 1.  An element missing from the table, or found at a
    y that is not +-y, is an InvariantViolation.  A function of its own so
    that its temporaries are freed before the roots are formed, which keeps
    the closed-form pass within cubic_bytes."""
    (powers, index), (_, _, cube) = _torus(fld)
    n, order, minus = fld.q - 1, fld.q + 1, fld.neg(1)
    scale = fld.v_exp(3 * (log_m + n - log_me) % n)  # (m/(-e))^3
    r = fld.v_exp((fld.v_log(radicand) - 1) // 2)  # sqrt(D/g), the log of g being 1
    tx, ty = _times(fld, (minus_h, r), (np.where(flat, 1, cube[0]), np.where(flat, 0, cube[1])))
    tx, ty = fld.v_mul(tx, scale), fld.v_mul(ty, scale)
    j = index[tx]
    y = powers[1, j]
    if not ((j >= 0) & ((y == ty) | (fld.v_mul(y, minus) == ty))).all():
        raise errors.InvariantViolation(f"an element of norm 1 over {fld.name()} is missing from its torus table")
    return np.where(y == ty, j, (order - j) % order)


def _times(fld: Field, a, b) -> tuple:
    """The product, as (x, y), of x + y*s and x' + y'*s in GF(q)[s]/(s^2 - g),
    g the field's generator, for a = (x, y) and b = (x', y')."""
    (ax, ay), (bx, by) = a, b
    return (
        fld.v_add(fld.v_mul(ax, bx), fld.v_mul(fld.v_mul(ay, by), fld.generator())),
        fld.v_add(fld.v_mul(ax, by), fld.v_mul(ay, bx)),
    )


@lru_cache(maxsize=None)
def _torus(fld: Field) -> tuple[tuple[np.ndarray, np.ndarray], tuple[int, int, tuple[int, int]]]:
    """The norm-1 torus T of GF(q^2) = GF(q)[s]/(s^2 - g), g the field's
    generator (a non-square), for odd q, and beta = x + s, x the least with
    a non-square norm x^2 - g.  T is cyclic of order q + 1; its table is
    the powers tau^j, j <= q, of a generator tau = w/conj(w), w = x + s for
    the least such x, as a (2, q + 1) array of (x, y), and for each x of
    GF(q) one j with tau^j = (x, +-y), -1 when there is none: 12 bytes per
    element, int32, built once per field on first use by doubling, in
    blocks of errors.BLOCK_BYTES.  Returns the table and beta's x, 1/N(beta)
    and conj(beta)^3 = (x^3 + 3gx, -3x^2 - g)."""
    nu = fld.generator()

    def power(a, k):
        out = (1, 0)
        for bit in bin(k)[2:]:
            out = _times(fld, out, out)
            out = _times(fld, out, a) if bit == "1" else out
        return out

    order, tau = fld.q + 1, (1, 0)
    for x in range(1, fld.q):  # x = 0 gives -1
        norm = fld.sub(fld.mul(x, x), nu)
        tau = tuple(fld.mul(v, fld.inv(norm)) for v in _times(fld, (x, 1), (x, 1)))
        if all(power(tau, order // f) != (1, 0) for f in factorize(order)):
            break
    powers, index = np.empty((2, order), np.int32), np.full(fld.q, -1, np.int32)
    powers[:, 0], index[1] = (1, 0), 0
    step, done, block = tau, 1, max(1, errors.BLOCK_BYTES // 64)  # _times' int64 temporaries
    while done < order:
        count = min(done, order - done)
        for lo in range(done, done + count, block):
            hi = min(lo + block, done + count)
            powers[:, lo:hi] = _times(fld, powers[:, lo - done : hi - done], step)
            index[powers[0, lo:hi]] = np.arange(lo, hi)
        step, done = _times(fld, step, step), done + count
    x = next(x for x in range(fld.q) if not fld.v_sqrt(fld.sub(fld.mul(x, x), nu))[0])
    square, three = fld.mul(x, x), fld.int_embed(3)
    cube = (fld.mul(x, fld.add(square, fld.mul(three, nu))), fld.neg(fld.add(fld.mul(three, square), nu)))
    return (powers, index), (x, fld.inv(fld.sub(square, nu)), cube)


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
