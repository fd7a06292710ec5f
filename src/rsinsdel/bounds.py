"""Closed-form evaluators for the counting bounds on bad orderings.

Everything that fits in integers is computed exactly with big-integer
arithmetic; the normalized tail comparison runs in 250-bit precision via
mpmath.  Pure functions throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import analyze, errors
from .gf import Field, euler_phi, is_prime
from .rscode import EvaluationVector

MP_PRECISION_BITS = 250


def _digits(log_value: float) -> int:
    """Decimal digits of a value whose natural log is log_value."""
    return math.floor(log_value / math.log(10)) + 1


def _check_digits(what: str, log_value: float) -> None:
    """GuardExceeded when a value whose natural log is log_value would have
    more than errors.MAX_DIGITS decimal digits, estimated before any work."""
    errors.check_work(_digits(log_value), errors.MAX_DIGITS, f"decimal digits of {what}")


@dataclass(frozen=True)
class BoundReport:
    name: str
    parameters: dict
    values: dict | BadClassTally
    verdict: bool | None = None


def half_singleton(n: int, k: int) -> int:
    """Maximum number of insdel errors any [n, k] linear code can correct."""
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    return n - 2 * k + 1


def classes_total(q: int) -> int:
    """(q-2)!, the number of affine classes of full-length orderings of
    GF(q).  One of more than errors.MAX_DIGITS digits raises GuardExceeded
    before it is built."""
    _check_digits(f"(q-2)! at q={q}", math.lgamma(q - 1))
    return math.factorial(q - 2)


def good_class_lower_bound(q: int) -> int:
    """Lower bound on the number of ordering classes (out of (q-2)!) whose
    2-dimensional full-length code corrects one insdel error.

    Subtracts one class per explicit bad ordering: two per primitive element
    plus, for prime q, the arithmetic progression.  Clamped at zero.  The
    subtraction ignores coincidences between the explicit classes, so the
    unclamped value can undershoot the true count (at q = 4 it is 2 - 4,
    since reversal is affine there); the clamped bound equals the exact
    census at q = 4, 5, 7, 8 and 9.  A (q-2)! above errors.MAX_DIGITS
    digits raises GuardExceeded.
    """
    if q < 4:
        raise ValueError("meaningful only for q >= 4")
    bound = classes_total(q) - 2 * euler_phi(q - 1) - (1 if is_prime(q) else 0)
    return max(0, bound)


@dataclass(frozen=True)
class BadClassTally:
    """Deduplicated census of the explicit bad-ordering family."""

    count: int
    classes: tuple[dict, ...]
    multiplicative_count: int  # classes hit by a geometric/reversed vector


def bad_class_count(fld: Field) -> BadClassTally:
    """Count the distinct affine classes of the explicit bad family, as
    listed by analyze.bad_classes.

    Each class entry records every family member that lands on it, so
    coincidences between the explicit vectors are visible.
    """
    classes, mult = [], 0
    for form, members in sorted(analyze.bad_classes(fld)):
        mult += any(r != analyze.REASON_ARITHMETIC for r, _ in members)
        entries = [{"reason": r, "theta": t} for r, t in members]
        classes.append({"alpha": EvaluationVector(fld, form).serialize(), "members": entries})
    return BadClassTally(len(classes), tuple(classes), mult)


def bad_ordering_count_bound(q: int, ell: int) -> int:
    """Exact value of the combinatorial upper bound on the number of
    orderings of GF(q) whose 2-dimensional code fails to correct q - ell
    insdel errors:

        sum_{s=ell+1}^{min(2*ell, q)} C(q,s) * C(s,ell)^2 * (q-s)! * (q-1) * q
                                       * prod_{i=0}^{s-ell-1} (q-i)

    The empty range (ell = q) gives 0.  A sum whose terms times the digits
    of its largest term exceed errors.MAX_SUM_WORK raises GuardExceeded first.
    """
    terms = _term_count(q, ell)
    if terms:
        digits = _digits(_last_term_log(q, ell))
        what = f"term-digits of bad_ordering_count_bound({q}, {ell}), {terms} terms of up to {digits} digits"
        errors.check_work(terms * digits, errors.MAX_SUM_WORK, what)
    total = 0
    for s in range(ell + 1, ell + terms + 1):
        term = (
            math.comb(q, s)
            * math.comb(s, ell) ** 2
            * math.factorial(q - s)
            * (q - 1)
            * q
            * math.perm(q, s - ell)
        )
        total += term
    return total


def _term_count(q: int, ell: int) -> int:
    if not 1 <= ell <= q:
        raise ValueError("need 1 <= ell <= q")
    return min(2 * ell, q) - ell


def _last_term_log(q: int, ell: int) -> float:
    """Natural log, estimated with lgamma, of the last term (s = min(2*ell, q))
    of bad_ordering_count_bound.  Term s is q!^2 * s! * (q-1) * q /
    ((q-s+ell)! * ell!^2 * (s-ell)!^2), and term(s+1) / term(s) =
    (s+1)(q-s+ell) / (s-ell+1)^2 > 2 on the range, so the last term is the
    largest and the sum lies between it and the number of terms times it."""
    s = min(2 * ell, q)
    lg = math.lgamma
    return (
        2 * lg(q + 1) + lg(s + 1) - lg(q - s + ell + 1) - 2 * lg(ell + 1) - 2 * lg(s - ell + 1)
        + math.log((q - 1) * q)
    )


def check_count_bound_digits(q: int, ell: int) -> None:
    """GuardExceeded when bad_ordering_count_bound(q, ell) would have more
    than errors.MAX_DIGITS decimal digits, estimated in O(1) before any
    factorial as the number of terms times the largest term."""
    terms = _term_count(q, ell)
    if terms:
        _check_digits(f"bad_ordering_count_bound({q}, {ell})", _last_term_log(q, ell) + math.log(terms))


def normalized_bad_fraction_bound(q: int, delta) -> BoundReport:
    """Compare the exact bad-ordering fraction with its closed-form bound.

    Computes, in 250-bit arithmetic, both the exact sum from
    bad_ordering_count_bound normalized by q! and the closed form
    q^2 * (4e^2 / (delta^2 q))^(delta*q), using ell = floor(delta*q).
    The verdict asserts exact <= closed form.  When floor(delta*q) < 1 the
    pair is out of regime and no verdict is given.  q < 2 is no field order
    (ValueError).
    """
    if q < 2:
        raise ValueError(f"q must be a field order >= 2, got {q}")
    frac = analyze.parse_fraction(delta)
    if not 0 < frac < 1:
        raise ValueError("delta must satisfy 0 < delta < 1")
    ell = math.floor(frac * q)
    values, verdict = {"status": "out_of_regime", "ell": ell}, None
    if ell >= 1:
        import mpmath  # only here: importing it would add to every command's start-up

        exact_sum = bad_ordering_count_bound(q, ell)
        with mpmath.workprec(MP_PRECISION_BITS):
            d_eff = mpmath.mpf(ell) / q
            normalized = mpmath.mpf(exact_sum) / mpmath.factorial(q)
            closed = q**2 * (4 * mpmath.e**2 / (d_eff**2 * q)) ** ell
            verdict = bool(normalized <= closed)
            values = {
                "ell": ell,
                "delta_effective": str(Fraction(ell, q)),
                "log10_normalized_sum": mpmath.nstr(mpmath.log10(normalized), 20)
                if exact_sum
                else None,
                "log10_closed_form": mpmath.nstr(mpmath.log10(closed), 20),
                "precision_bits": MP_PRECISION_BITS,
            }
    return BoundReport("normalized_bad_fraction_bound", {"q": q, "delta": str(frac)}, values, verdict)
