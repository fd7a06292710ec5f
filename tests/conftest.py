"""Shared oracle: the bad family grouped by class, built member by member."""

import functools

import pytest

from rsinsdel import analyze
from rsinsdel.rscode import EvaluationVector, canonical_form


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
