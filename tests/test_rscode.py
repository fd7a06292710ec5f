"""Tests for evaluation vectors, codewords, and affine equivalence."""

import random

import pytest
from conftest import canonical_form

from rsinsdel.gf import field_new
from rsinsdel.rscode import (
    EvaluationVector,
    RsCode,
    codeword,
    codewords,
    equivalent,
    parse_vector,
)

F7 = field_new(7)


def test_vector_validation():
    with pytest.raises(ValueError):
        EvaluationVector(F7, (0, 1, 1))
    with pytest.raises(ValueError):
        EvaluationVector(F7, ())
    with pytest.raises(ValueError):
        EvaluationVector(F7, (0, 9))


def test_full_length():
    assert not EvaluationVector(F7, (0, 1, 2, 5)).is_full_length()
    assert EvaluationVector(F7, tuple(range(7))).is_full_length()


def test_code_dimension_bounds():
    ev = EvaluationVector(F7, (0, 1, 2, 5))
    with pytest.raises(ValueError):
        RsCode(ev, 0)
    with pytest.raises(ValueError):
        RsCode(ev, 4)
    assert RsCode(ev, 3).n == 4


def test_codeword_examples():
    code = RsCode(EvaluationVector(F7, (0, 1, 2, 5)), 2)
    assert codeword(code, (0, 1)) == (0, 1, 2, 5)
    assert codeword(code, ()) == (0, 0, 0, 0)
    full = RsCode(EvaluationVector(F7, tuple(range(7))), 2)
    assert codeword(full, (1, 1)) == (1, 2, 3, 4, 5, 6, 0)
    with pytest.raises(ValueError):
        codeword(code, (0, 0, 1))


def test_codewords_enumeration():
    code = RsCode(EvaluationVector(F7, (0, 1, 2, 5)), 2)
    words = list(codewords(code))
    assert len(words) == 49
    assert len({w for _, w in words}) == 49  # distinct evaluation points => injective


def test_equivalent_examples():
    ev = EvaluationVector(F7, (0, 1, 2, 5))
    assert equivalent(ev, EvaluationVector(F7, (1, 2, 3, 6))) == (1, 1)
    assert equivalent(ev, EvaluationVector(F7, (0, 2, 4, 3))) == (2, 0)
    assert equivalent(ev, EvaluationVector(F7, (0, 1, 5, 2))) is None


def test_equivalent_rejects_mixed_fields():
    with pytest.raises(ValueError):
        equivalent(EvaluationVector(F7, (0, 1)), EvaluationVector(field_new(5), (0, 1)))


def test_equivalent_refuses_length_one_vectors():
    # a single coordinate leaves lam undetermined
    with pytest.raises(ValueError, match="equal length >= 2"):
        equivalent(EvaluationVector(F7, (3,)), EvaluationVector(F7, (4,)))


def test_equivalence_relation_properties():
    rng = random.Random(71)
    for fld in (F7, field_new(3, 2)):
        for _ in range(50):
            n = rng.randrange(2, min(7, fld.q) + 1)
            pts = tuple(rng.sample(range(fld.q), n))
            a = EvaluationVector(fld, pts)
            assert equivalent(a, a) == (1, 0)
            lam = rng.randrange(1, fld.q)
            mu = rng.randrange(fld.q)
            b = EvaluationVector(fld, tuple(fld.add(fld.mul(lam, x), mu) for x in pts))
            w = equivalent(a, b)
            assert w == (lam, mu)
            back = equivalent(b, a)
            assert back is not None
            # transitivity through a third vector
            lam2 = rng.randrange(1, fld.q)
            mu2 = rng.randrange(fld.q)
            c = EvaluationVector(fld, tuple(fld.add(fld.mul(lam2, x), mu2) for x in b.points))
            assert equivalent(a, c) is not None


def test_equivalent_vectors_same_2dim_code():
    rng = random.Random(73)
    for fld in (field_new(5), field_new(2, 2)):
        pts = tuple(range(fld.q))
        a = EvaluationVector(fld, pts)
        lam, mu = rng.randrange(1, fld.q), rng.randrange(fld.q)
        b = EvaluationVector(fld, tuple(fld.add(fld.mul(lam, x), mu) for x in pts))
        set_a = {w for _, w in codewords(RsCode(a, 2))}
        set_b = {w for _, w in codewords(RsCode(b, 2))}
        assert set_a == set_b


def test_canonical_form():
    ev = EvaluationVector(F7, (3, 5, 1, 2))
    canon = canonical_form(ev)
    assert canon.points[:2] == (0, 1)
    assert equivalent(ev, canon) is not None
    assert canonical_form(canon) == canon
    assert canonical_form(EvaluationVector(F7, (0, 1, 2, 5))).points == (0, 1, 2, 5)


def test_orbit_size_q_times_q_minus_one():
    for fld in (field_new(2, 2), field_new(5), field_new(7), field_new(2, 3)):
        pts = tuple(range(fld.q))
        orbit = set()
        for lam in range(1, fld.q):
            for mu in range(fld.q):
                orbit.add(tuple(fld.add(fld.mul(lam, x), mu) for x in pts))
        assert len(orbit) == fld.q * (fld.q - 1)


def test_serialization_roundtrip():
    ev = EvaluationVector(F7, (0, 1, 2, 5))
    assert ev.serialize() == "GF(7):0,1,2,5"
    assert parse_vector(ev.serialize()) == ev
    ev81 = EvaluationVector(field_new(3, 4), (0, 1, 80))
    assert parse_vector(ev81.serialize()) == ev81
    assert ev81.serialize().startswith("GF(3^4):")
    with pytest.raises(ValueError):
        parse_vector("GF(6):0,1")
    with pytest.raises(ValueError):
        parse_vector("7:0,1")
