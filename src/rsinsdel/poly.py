"""Univariate polynomials over GF(q) and dense exact linear algebra.

Polynomials are tuples of element indices, low degree first, in canonical
form: no trailing zero coefficient, the zero polynomial being the empty
tuple.  Matrices are int64 arrays (or nested lists) of element indices;
the one Gaussian elimination, _row_echelon, reduces a whole stack of them
at once with the field's vector operations, one pass per column, so rank
ranks many small matrices in one call.  eval_all is the one stacked
Horner evaluation, and the one root finder, pencil_roots, likewise takes a
stack of rows a + lead*b - target at once.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """All roots in GF(q), ascending: pencil_roots on the one row coeffs."""
    coeffs = trim(coeffs)
    if not coeffs:
        raise ZeroPolynomialError("every field element is a root of the zero polynomial")
    _, ys = pencil_roots(fld, coeffs, (), [0], [0])
    return sorted(ys.tolist())


def pencil_roots(fld: Field, a, b, lead, target, values=None) -> tuple[np.ndarray, np.ndarray]:
    """Every (r, y) with a(y) + lead[r]*b(y) == target[r], for coefficient
    tuples a and b and 1-D lead and target of one length: the roots of one
    polynomial per row, as index arrays (rows, ys) in no set order.

    Rows of degree at most 2 are solved in closed form through the field's
    tables (the last step of Berlekamp 1970 and Cantor-Zassenhaus 1981): a
    nonzero constant has no root, the zero polynomial every y, a line one.
    A monic quadratic y^2 + s*y + t has the roots -s/2 +- sqrt(s^2/4 - t)
    in odd characteristic; in characteristic 2 it has sqrt(t) when s = 0,
    and otherwise s*z and s*(z + 1) for z^2 + z = t/s^2, read from a table
    of z^2 + z over GF(q) (none when t/s^2 is not such a value).  Only rows
    of degree 3 or more are tested at every y, by one Field.mul_add_matcher
    on the values of a and b over GF(q): `values`, the two rows of
    eval_all, when the caller has them.
    """
    q, minus = fld.q, fld.neg(1)
    lead, target = np.asarray(lead, np.int64), np.asarray(target, np.int64)
    ab = np.zeros((2, max(len(a), len(b), 3), 1), np.int64)  # columns 0..2 always exist
    ab[0, : len(a), 0], ab[1, : len(b), 0] = a, b
    coeffs = fld.v_add(ab[0], fld.v_mul(ab[1], lead))  # one column per row
    coeffs[0] = fld.v_add(coeffs[0], fld.v_mul(target, minus))
    degree = np.where(coeffs != 0, np.arange(len(coeffs))[:, None], -1).max(axis=0)
    rows, ys = [], []
    r = np.flatnonzero(degree >= 3)
    if len(r):
        va, vb = eval_all(fld, ab[..., 0]) if values is None else values
        hit, y = fld.mul_add_matcher(vb, va)(lead[r], target[r])
        rows.append(r[hit])
        ys.append(y)
    every = np.flatnonzero(degree < 0)
    hit, y = np.nonzero(np.ones((len(every), q), bool))
    r = np.flatnonzero(degree == 1)
    c0, c1 = coeffs[:2].take(r, axis=1)
    rows += [every[hit], r]
    ys += [y, fld.v_mul(c0, fld.v_mul(fld.v_inv(c1), minus))]
    r = np.flatnonzero(degree == 2)
    c0, c1, c2 = coeffs[:3].take(r, axis=1)
    inv = fld.v_inv(c2)
    s, t = fld.v_mul(c1, inv), fld.v_mul(c0, inv)
    if fld.p == 2:
        flat = s == 0
        rows.append(r[flat])
        ys.append(fld.v_sqrt(t[flat])[1])
        r, s, t = r[~flat], s[~flat], t[~flat]
        if len(r):
            z = np.arange(q)
            preimage = np.full(q, -1)
            preimage[fld.v_add(fld.v_mul(z, z), z)] = z
            z = preimage[fld.v_mul(t, fld.v_inv(fld.v_mul(s, s)))]
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
