"""Shared oracles: the canonical form of an evaluation vector, and the bad
family grouped by class, built member by member."""

import functools

import pytest

from rsinsdel import analyze
from rsinsdel.rscode import EvaluationVector


def canonical_form(a: EvaluationVector) -> EvaluationVector:
    """The unique equivalent vector whose first two coordinates are (0, 1),
    one scalar field operation at a time (analyze._normalize is the
    library's vectorized form)."""
    if a.n < 2:
        raise ValueError("need at least two coordinates to canonicalize")
    fld = a.field
    lam = fld.inv(fld.sub(a.points[1], a.points[0]))
    mu = fld.neg(fld.mul(lam, a.points[0]))
    return EvaluationVector(fld, tuple(fld.add(fld.mul(lam, x), mu) for x in a.points))


def _bad_class_index(fld):
    # canonical form -> the (reason, theta) of its family members, in family
    # order; dict order is the order of each class's first member
    index = {}
    for reason, theta, vec in analyze.bad_ordering_family(fld):
        index.setdefault(canonical_form(EvaluationVector(fld, vec)).points, []).append((reason, theta))
    return index


@pytest.fixture(scope="session")
def bad_class_index():
    """The index analyze.bad_classes replaced, as a per-field cached function."""
    return functools.cache(_bad_class_index)
