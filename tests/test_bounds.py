"""Tests for the counting-bound evaluators."""

import json
import math

import mpmath
import pytest

from rsinsdel import analyze, bounds, cli, errors
from rsinsdel.errors import GuardExceeded
from rsinsdel.gf import field_from_order, field_new


def bad_ordering_sum_oracle(q, ell):
    """Literal term-by-term evaluation with explicit product loops."""
    total = 0
    for s in range(ell + 1, min(2 * ell, q) + 1):
        prod = 1
        for i in range(0, s - ell):
            prod *= q - i
        total += (
            math.comb(q, s)
            * math.comb(s, ell) ** 2
            * math.factorial(q - s)
            * (q - 1)
            * q
            * prod
        )
    return total


def test_half_singleton():
    assert bounds.half_singleton(4, 2) == 1
    assert bounds.half_singleton(10, 5) == 1
    assert bounds.half_singleton(7, 2) == 4
    with pytest.raises(ValueError):
        bounds.half_singleton(4, 4)


def test_good_class_lower_bound_values():
    assert bounds.good_class_lower_bound(4) == 0  # clamped from 2 - 4
    assert bounds.good_class_lower_bound(5) == 1
    assert bounds.good_class_lower_bound(7) == 115
    assert bounds.good_class_lower_bound(8) == 708
    assert bounds.good_class_lower_bound(9) == 5032
    assert bounds.good_class_lower_bound(11) == math.factorial(9) - 9


def test_bad_class_count_dedup():
    # distinct equivalence classes among the explicit bad orderings; the two
    # q = 4 coincidences are real (reversal is affine there), all larger
    # fields in this range have none
    expected = {4: 2, 5: 5, 7: 5, 8: 12, 9: 8, 11: 9, 13: 9}
    for q, count in expected.items():
        tally = bounds.bad_class_count(field_from_order(q))
        assert tally.count == count, (q, tally.count)
    # at q = 4 each surviving class is hit by both a geometric and a
    # reversed-geometric member
    tally4 = bounds.bad_class_count(field_new(2, 2))
    assert all(len(c["members"]) == 2 for c in tally4.classes)


def test_bad_class_count_agrees_with_census():
    # the index's class count against the exhaustive census, whose classes
    # are re-measured by the exact LCS engine (all of them for q <= 8)
    for q in (4, 5, 7, 8, 9):
        fld = field_from_order(q)
        tally = bounds.bad_class_count(fld)
        census = analyze.census_2dim(fld)
        assert census.classes_total - census.classes_correcting_one == tally.count


def test_formula_is_a_lower_bound_on_census():
    for q in (4, 5, 7, 8):
        census = analyze.census_2dim(field_from_order(q))
        assert bounds.good_class_lower_bound(q) <= census.classes_correcting_one


def test_bad_ordering_count_bound_empty_range():
    assert bounds.bad_ordering_count_bound(7, 7) == 0
    assert bounds.bad_ordering_count_bound(4, 4) == 0


def test_bad_ordering_count_bound_matches_literal_oracle():
    for q, ell in [(7, 5), (7, 3), (8, 4), (16, 8), (11, 6), (9, 1)]:
        assert bounds.bad_ordering_count_bound(q, ell) == bad_ordering_sum_oracle(q, ell)
    with pytest.raises(ValueError):
        bounds.bad_ordering_count_bound(7, 0)


def test_digit_guards_refuse_unprintable_results_before_any_factorial(monkeypatch):
    # (q-2)! has 4300 digits at q = 1560 and 4303 at q = 1561
    assert len(str(bounds.good_class_lower_bound(1560))) == errors.MAX_DIGITS
    message = r"^decimal digits of \(q-2\)! at q=1561: estimated work 4303 exceeds the limit of 4300$"
    with pytest.raises(GuardExceeded, match=message):
        bounds.good_class_lower_bound(1561)
    bounds.check_count_bound_digits(1000, 2)  # 2580 digits
    message = r"decimal digits of bad_ordering_count_bound\(3000, 2\): estimated work 9146 exceeds"
    with pytest.raises(GuardExceeded, match=message):
        bounds.check_count_bound_digits(3000, 2)
    bounds.check_count_bound_digits(3000, 3000)  # the empty sum is 0
    with pytest.raises(ValueError, match="need 1 <= ell <= q"):
        bounds.check_count_bound_digits(7, 0)
    # the lgamma estimate never undershoots, and overshoots by a few digits
    for q, ell in [(30, 7), (100, 50), (1000, 2), (1000, 500), (1400, 700)]:
        digits = len(str(bounds.bad_ordering_count_bound(q, ell)))
        monkeypatch.setattr(errors, "MAX_DIGITS", digits + 3)
        bounds.check_count_bound_digits(q, ell)
        monkeypatch.setattr(errors, "MAX_DIGITS", digits - 1)
        with pytest.raises(GuardExceeded):
            bounds.check_count_bound_digits(q, ell)


def test_sum_work_guard_refuses_before_any_factorial(monkeypatch):
    # tail-bound at q = 8000, delta = 1/2 took 14.5 s before the guard
    message = (
        r"^term-digits of bad_ordering_count_bound\(8000, 4000\), 4000 terms of up to 19900 digits: "
        r"estimated work 79600000 exceeds the limit of 10000000$"
    )
    with pytest.raises(GuardExceeded, match=message):
        bounds.normalized_bad_fraction_bound(8000, "0.5")
    # a 5e8-term sum is refused by the O(1) digit estimate
    with pytest.raises(GuardExceeded, match="estimated work 5035427766 exceeds"):
        bounds.check_count_bound_digits(10**9, 5 * 10**8)
    # the README point is admitted; the estimate is 512 terms times the
    # digits of the last term, s = 1024
    last = math.comb(1024, 512) ** 2 * 1023 * 1024 * math.perm(1024, 512)
    digits = bounds._digits(bounds._last_term_log(1024, 512))
    assert digits == len(str(last))
    assert bounds.normalized_bad_fraction_bound(1024, "0.5").verdict is True
    monkeypatch.setattr(errors, "MAX_SUM_WORK", 512 * digits)
    bounds.bad_ordering_count_bound(1024, 512)
    monkeypatch.setattr(errors, "MAX_SUM_WORK", 512 * digits - 1)
    with pytest.raises(GuardExceeded, match="512 terms of up to"):
        bounds.bad_ordering_count_bound(1024, 512)


def test_last_term_is_the_largest():
    for q, ell in [(7, 3), (8, 4), (16, 8), (11, 6), (30, 7), (40, 30)]:
        terms = [
            math.comb(q, s) * math.comb(s, ell) ** 2 * math.factorial(q - s) * (q - 1) * q * math.perm(q, s - ell)
            for s in range(ell + 1, min(2 * ell, q) + 1)
        ]
        assert all(b > 2 * a for a, b in zip(terms, terms[1:]))
        assert abs(bounds._last_term_log(q, ell) - math.log(terms[-1])) < 1e-9 * math.log(terms[-1])


def test_tail_bound_rejects_q_below_2():
    for q in (-5, 0, 1):
        with pytest.raises(ValueError, match="q must be a field order >= 2"):
            bounds.normalized_bad_fraction_bound(q, "0.5")


def test_tail_bound_acceptance_points():
    for q, delta in [(256, "0.25"), (256, "0.5"), (1024, "0.5")]:
        rep = bounds.normalized_bad_fraction_bound(q, delta)
        assert rep.verdict is True


def test_tail_bound_out_of_regime():
    rep = bounds.normalized_bad_fraction_bound(256, "0.001")
    assert rep.verdict is None
    assert rep.values["status"] == "out_of_regime"


def test_tail_bound_values_are_finite_precision():
    rep = bounds.normalized_bad_fraction_bound(256, "0.5")
    assert rep.values["precision_bits"] == 250
    # log10 of the normalized sum must be far below the closed form here
    lhs = float(rep.values["log10_normalized_sum"])
    rhs = float(rep.values["log10_closed_form"])
    assert lhs < rhs


def test_tail_bound_float_oracle_agreement():
    # cross-check the 250-bit comparison against a crude lgamma evaluation
    for q, delta in [(256, "0.5"), (1024, "0.5")]:
        frac = float(delta)
        ell = math.floor(frac * q)
        log_sum = None
        for s in range(ell + 1, min(2 * ell, q) + 1):
            term = (
                math.lgamma(q + 1)
                - math.lgamma(s + 1)
                - math.lgamma(q - s + 1)
                + 2 * (math.lgamma(s + 1) - math.lgamma(ell + 1) - math.lgamma(s - ell + 1))
                + math.lgamma(q - s + 1)
                + math.log(q - 1)
                + math.log(q)
                + (math.lgamma(q + 1) - math.lgamma(q - (s - ell) + 1))
                - math.lgamma(q + 1)
            )
            log_sum = term if log_sum is None else max(log_sum, term) + math.log1p(
                math.exp(min(log_sum, term) - max(log_sum, term))
            )
        log10_sum = log_sum / math.log(10)
        d_eff = ell / q
        log10_closed = 2 * math.log10(q) + ell * (
            math.log10(4) + 2 * math.log10(math.e) - 2 * math.log10(d_eff) - math.log10(q)
        )
        rep = bounds.normalized_bad_fraction_bound(q, delta)
        assert abs(float(rep.values["log10_normalized_sum"]) - log10_sum) < 0.01
        assert abs(float(rep.values["log10_closed_form"]) - log10_closed) < 0.01
        assert (log10_sum <= log10_closed) == rep.verdict


def test_bound_report_serialization():
    rep = bounds.normalized_bad_fraction_bound(256, "0.25")
    doc = json.loads(cli.dumps(rep))
    assert doc["name"] == "normalized_bad_fraction_bound"
    assert doc["verdict"] is True
    assert doc["parameters"] == {"delta": "1/4", "q": 256}
