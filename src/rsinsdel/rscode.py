"""Reed-Solomon codes: evaluation vectors, codewords, and the affine
equivalence of evaluation vectors.

An evaluation vector is a tuple of pairwise distinct field elements; the
code of dimension k consists of the evaluations of every polynomial of
degree < k at those points.  Two full-length vectors related by x -> lam*x + mu
(lam != 0) generate the same 2-dimensional code, which is what the census
machinery quotients by.  All values here are immutable.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from . import poly
from .gf import Field, field_new


@dataclass(frozen=True)
class EvaluationVector:
    field: Field
    points: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise ValueError("evaluation vector must be nonempty")
        if min(self.points) < 0 or max(self.points) >= self.field.q:
            for x in self.points:  # the first offending point names the error
                self.field.check(x)
        if len(set(self.points)) != len(self.points):
            raise ValueError("evaluation points must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.points)

    def is_full_length(self) -> bool:
        """True iff the vector is an ordering of the whole field."""
        return len(self.points) == self.field.q

    def serialize(self) -> str:
        return f"{self.field.name()}:" + ",".join(map(str, self.points))

    def __str__(self) -> str:
        return self.serialize()


_VEC_RE = re.compile(r"^GF\((\d+)(?:\^(\d+))?\):([0-9,]+)$")


def parse_vector(text: str) -> EvaluationVector:
    """Parse the `GF(p^m):i1,i2,...` text format."""
    m = _VEC_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed evaluation vector: {text!r}")
    p, deg, body = int(m.group(1)), int(m.group(2) or 1), m.group(3)
    fld = field_new(p, deg)
    return EvaluationVector(fld, tuple(int(tok) for tok in body.split(",")))


@dataclass(frozen=True)
class RsCode:
    ev: EvaluationVector
    k: int

    def __post_init__(self):
        if not 1 <= self.k < self.ev.n:
            raise ValueError(f"need 1 <= k < n, got k={self.k}, n={self.ev.n}")

    @property
    def n(self) -> int:
        return self.ev.n

    @property
    def q(self) -> int:
        return self.ev.field.q

    @property
    def field(self) -> Field:
        return self.ev.field


def codeword(code: RsCode, coeffs) -> tuple[int, ...]:
    """Evaluate a message polynomial (degree < k) at the code's points."""
    coeffs = poly.trim(coeffs)
    if poly.degree(coeffs) >= code.k:
        raise ValueError("message polynomial degree must be below k")
    return poly.eval_on(code.field, coeffs, code.ev.points)


def codewords(code: RsCode):
    """All q^k codewords, in lexicographic order of coefficient vectors."""
    fld, k = code.field, code.k
    for raw in itertools.product(range(fld.q), repeat=k):
        coeffs = poly.trim(raw)
        yield coeffs, poly.eval_on(fld, coeffs, code.ev.points)


def equivalent(a: EvaluationVector, b: EvaluationVector) -> tuple[int, int] | None:
    """Witness (lam, mu) with lam*a + mu = b componentwise, or None.

    lam and mu are forced by the first two coordinates (evaluation points are
    distinct, so both differences are nonzero and so is lam); the rest of
    the vector is verified.
    """
    if a.field != b.field:
        raise ValueError("vectors live in different fields")
    if a.n != b.n or a.n < 2:
        raise ValueError("vectors must have equal length >= 2")
    fld = a.field
    lam = fld.mul(fld.sub(b.points[1], b.points[0]), fld.inv(fld.sub(a.points[1], a.points[0])))
    mu = fld.sub(b.points[0], fld.mul(lam, a.points[0]))
    for x, y in zip(a.points, b.points):
        if fld.add(fld.mul(lam, x), mu) != y:
            return None
    return lam, mu

