"""Univariate polynomials over GF(q) and dense exact linear algebra.

Polynomials are tuples of element indices, low degree first, in canonical
form: no trailing zero coefficient, the zero polynomial being the empty
tuple.  Matrices are lists of row lists.  Sizes never exceed a few tens of
rows, so everything here is plain Gaussian elimination with exact field
arithmetic.  All functions are pure.
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


def poly_add(fld: Field, a, b) -> tuple[int, ...]:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(fld.add(x, y))
    return trim(out)


def poly_sub(fld: Field, a, b) -> tuple[int, ...]:
    return poly_add(fld, a, [fld.neg(c) for c in b])


def poly_scale(fld: Field, a, s: int) -> tuple[int, ...]:
    return trim([fld.mul(c, s) for c in a])


def poly_mul(fld: Field, a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = fld.add(out[i + j], fld.mul(x, y))
    return trim(out)


def eval_poly(fld: Field, coeffs, x: int) -> int:
    """Horner evaluation."""
    acc = 0
    for c in reversed(coeffs):
        acc = fld.add(fld.mul(acc, x), c)
    return acc


def eval_on(fld: Field, coeffs, xs) -> tuple[int, ...]:
    return tuple(eval_poly(fld, coeffs, x) for x in xs)


def eval_all(fld: Field, coeffs) -> np.ndarray:
    """Values of the polynomial on every field element, indexed by element.
    A 2-D array of coefficient rows gives one row of values per polynomial."""
    xs = np.arange(fld.q, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=np.int64)
    acc = np.zeros(coeffs.shape[:-1] + (fld.q,), dtype=np.int64)
    for c in coeffs.T[::-1]:
        acc = fld.v_add(fld.v_mul(acc, xs), c[..., None])
    return acc


def interpolate(fld: Field, points, bound: int) -> tuple[int, ...] | None:
    """Unique polynomial of degree < bound through the points, or None.

    Lagrange interpolation on the first `bound` points, then verification of
    the rest.  Duplicate x-values raise ValueError.
    """
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate interpolation nodes")
    if len(points) < bound:
        raise ValueError("need at least `bound` points")
    head = points[:bound]
    result: tuple[int, ...] = ()
    for i, (xi, yi) in enumerate(head):
        if yi == 0:
            continue
        basis: tuple[int, ...] = (1,)
        denom = 1
        for j, (xj, _) in enumerate(head):
            if j == i:
                continue
            basis = poly_mul(fld, basis, (fld.neg(xj), 1))
            denom = fld.mul(denom, fld.sub(xi, xj))
        result = poly_add(fld, result, poly_scale(fld, basis, fld.mul(yi, fld.inv(denom))))
    for x, y in points[bound:]:
        if eval_poly(fld, result, x) != y:
            return None
    return result


def roots(fld: Field, coeffs) -> list[int]:
    """All roots in GF(q), found by a full scan; ascending element order.

    The scan is O(q * deg) which is cheap at the field sizes used here and
    avoids factorization machinery.
    """
    coeffs = trim(coeffs)
    if not coeffs:
        raise ZeroPolynomialError("every field element is a root of the zero polynomial")
    if len(coeffs) == 1:
        return []
    vals = eval_all(fld, coeffs)
    return [int(x) for x in np.flatnonzero(vals == 0)]


# -- linear algebra ------------------------------------------------------


@dataclass(frozen=True)
class LinearSolution:
    """Full description of the solution set of A x = b.

    status is "unique", "inconsistent", or "underdetermined"; `solution` is a
    particular solution when one exists (free variables set to 0), `kernel` a
    basis of the homogeneous solution space.
    """

    status: str
    solution: tuple[int, ...] | None
    kernel: tuple[tuple[int, ...], ...]


def _row_echelon(fld: Field, rows: list[list[int]], ncols: int) -> list[int]:
    """In-place reduced row echelon over the first ncols columns.

    Returns the list of pivot column indices.  Columns beyond ncols (e.g. an
    augmented right-hand side) are carried along.
    """
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = fld.inv(rows[r][c])
        rows[r] = [fld.mul(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [fld.sub(v, fld.mul(factor, w)) for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(fld: Field, matrix) -> int:
    rows = [list(row) for row in matrix]
    if not rows:
        return 0
    return len(_row_echelon(fld, rows, len(rows[0])))


def solve_linear(fld: Field, matrix, rhs) -> LinearSolution:
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    if len(rows) != len(matrix) or len(rows) != len(rhs):
        raise ValueError("matrix/rhs dimension mismatch")
    ncols = len(matrix[0]) if matrix else 0
    pivots = _row_echelon(fld, rows, ncols)
    for i in range(len(pivots), len(rows)):
        if rows[i][ncols] != 0:
            return LinearSolution("inconsistent", None, ())
    solution = [0] * ncols
    for r, c in enumerate(pivots):
        solution[c] = rows[r][ncols]
    free_cols = [c for c in range(ncols) if c not in pivots]
    kernel = []
    for fc in free_cols:
        vec = [0] * ncols
        vec[fc] = 1
        for r, c in enumerate(pivots):
            vec[c] = fld.neg(rows[r][fc])
        kernel.append(tuple(vec))
    status = "unique" if not free_cols else "underdetermined"
    return LinearSolution(status, tuple(solution), tuple(kernel))
