"""Deterministic construction of rate-1/2 RS codes correcting one insdel
error: a scanned length-4 base case plus an inductive two-points-per-stage
extension.

Stage i takes a verified length-(2i-2) evaluation vector and appends two
fresh points (x, y).  For every unordered pair {I, J} of increasing index
sequences over the current positions at Hamming distance at least i - 2
(insdel.index_pairs; closer pairs have singular systems and cannot
contribute), the stage needs one square linear system for (I, J), I < J,
read off insdel.build_V, for the normalized polynomial pair that could
realize a long common subsequence; one stacked poly.solve_linear call
solves the systems of all the stage's pairs.  Each solution is affine in
the free leading coefficient (the lead), so a pair is four polynomials,
and every first-point condition, linear in the lead, is solved for it in
closed form.  The pair (x, y) is bad when it can complete such a
near-collision.  The least fresh pair outside the bad set is chosen, so
runs are fully reproducible, and it depends only on the rows of the bad
set up to its x: the stage builds row x for the least fresh x, and the
next only when that row is full (_stage_row).  A row costs, per pair, the
four polynomials at x and a_last and the roots of at most 5 rows of
degree at most i - 1, found by poly.tagged_roots: no pair is evaluated on
GF(q).  A row where a condition holds at x for every lead is all of GF(q)
(_stage_row), unless it is only the agreement of a pair with f = g.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analyze, errors, insdel, poly
from .errors import InvariantViolation
from .gf import Field
from .rscode import EvaluationVector, RsCode


class NoBaseCaseError(ValueError):
    """No admissible length-4 starting vector exists (q < 7)."""


class NoGoodPairError(RuntimeError):
    """Every fresh row of the bad set is full."""


class SingularSystemError(InvariantViolation):
    """The stage system was singular where the induction guarantees it
    cannot be; the input code was not actually optimal (or there is a bug)."""


def min_field_size(k: int) -> int:
    """Smallest field order for which stage-by-stage success is guaranteed.

    The guarantee polynomial is 20k^4 - 90k^3 + 150k^2 - 106k + 27; for k = 2
    the base-case scan only needs q >= 7.
    """
    if k < 2:
        raise ValueError("rate-1/2 construction needs k >= 2")
    if k == 2:
        return 7
    return 20 * k**4 - 90 * k**3 + 150 * k**2 - 106 * k + 27


def base_case(fld: Field) -> EvaluationVector:
    """Lexicographically least (0, 1, a1, a2) whose length-4 code corrects
    one insdel error; raises NoBaseCaseError when none exists (q < 7)."""
    for a1 in range(fld.q):
        if a1 in (0, 1):
            continue
        for a2 in range(fld.q):
            if a2 in (0, 1, a1):
                continue
            if analyze.optimal_4_2_pair(fld, a1, a2):
                return EvaluationVector(fld, (0, 1, a1, a2))
    raise NoBaseCaseError(f"no admissible length-4 vector over {fld.name()} (q={fld.q})")


def _stage_solutions(fld: Field, points: tuple[int, ...], i: int, pairs) -> list:
    """Solutions (u0, u1) of the stage system of every index pair (I, J) in
    `pairs` (see extend), in order, from one stacked poly.solve_linear call:
    per pair, insdel.build_V of dimension i over (J, I), its I block negated,
    its two top-degree columns moved to the right-hand sides (fixed part,
    leading-coefficient part).  The unknowns for leading coefficient `lead`
    are u0 - lead*u1.  The first singular system raises."""
    seqs = np.array(pairs, dtype=np.int64)  # (pairs, 2, ell)
    v = insdel.build_V(fld, points, i, seqs[:, 1], seqs[:, 0])
    rows = np.concatenate((v[..., : i - 1], fld.v_mul(v[..., i:-1], fld.neg(1))), axis=-1)
    solved = poly.solve_linear(fld, rows, v[..., [-1, i - 1]])
    for (i_seq, j_seq), s in zip(pairs, solved):
        if s.status != "unique":
            raise SingularSystemError(
                f"stage {i}: singular system at index pair with distance "
                f"{insdel.hamming_increasing(i_seq, j_seq)} >= {i-2}; "
                f"the input vector {points} cannot have been optimal"
            )
    return [tuple(zip(*s.solution)) for s in solved]


def _pencils(fld: Field, i: int, solutions) -> np.ndarray:
    """The coefficient rows, low first, of A, B, C, D, C - A and D - B for
    the stage solution (u0, u1) of every pair, as a (pairs, 6, i) array.
    For lead l the pair's near-collision is f = (0, u[mid+1:], 1),
    g = (u[:mid+1], l) with u = u0 - l*u1 and mid = i - 2, so g = A + l*B
    and f = C + l*D.  A constant A or D = 0, which no swept pair can have
    (_stage_row), raises InvariantViolation."""
    mid, minus = i - 2, fld.neg(1)
    u0, u1 = (np.array(u, np.int64) for u in zip(*solutions))
    u1 = fld.v_mul(u1, minus)
    polys = np.zeros((len(u0), 6, i), np.int64)
    polys[:, 0, : mid + 1] = u0[:, : mid + 1]
    polys[:, 1, : mid + 1], polys[:, 1, mid + 1] = u1[:, : mid + 1], 1
    polys[:, 2, 1 : mid + 1], polys[:, 2, mid + 1] = u0[:, mid + 1 :], 1
    polys[:, 3, 1 : mid + 1] = u1[:, mid + 1 :]
    polys[:, 4:] = fld.v_add(polys[:, 2:4], fld.v_mul(polys[:, :2], minus))
    if not (polys[:, 0, 1:].any(axis=1) & polys[:, 3].any(axis=1)).all():
        raise InvariantViolation(f"stage {i}: a swept pair has a constant A or D = 0, which its {2*i - 3} distinct points rule out")
    return polys


# the pencils X + lead*Y whose roots _stage_row takes, by row kind: the two
# cross rows, the agreement row of each condition, and at the lead infinity
# (lead 0 here) the two cross rows and the agreement row
_ROW_X = np.array([0, 2, 4, 4, 4, 1, 3, 5])
_ROW_Y = np.array([1, 3, 5, 5, 5, 1, 1, 1])


def _stage_row(fld: Field, polys: np.ndarray, last: int, x: int) -> tuple[np.ndarray, int]:
    """Row x of the stage's bad set: the sorted y such that (x, y) can
    complete a near-collision of some pair, given the pairs' _pencils and
    a_last, and the number of roots of its plain rows (below).

    The five tail shapes of a hypothetical length-(2i-1) common subsequence
    reduce to pairs of single-point equations in x = alpha_{2i-1} and
    y = alpha_{2i}: g(x) = f(a_last) with g(y) = f(x); f(x) = g(a_last)
    with f(y) = g(x); and x in either first set or in the agreement set
    f = g, with y in the agreement set.  Every first-point condition is
    linear in the lead, num + lead*den = 0, so x has the one lead -num/den,
    or every lead where num = den = 0.  At a hit's lead l the bad y are the
    roots of A + l*B - f(x) (first condition), of C + l*D - g(x) (second)
    and of the agreement pencil (C - A) + l*(D - B), each of degree at most
    i - 1.  At the lead infinity the pair, divided by the lead, is g = B,
    f = D, still a solution (B(a_J) = D(a_I)); shifted by -B(0) it is the
    reverse (J, I) at lead 0, f = B - B(0) and g = D - B(0), and at a lead
    l' != 0 the reverse is (I, J) at lead 1/l', rescaled and shifted, so
    the reverse adds nothing.  The shift cancels from every equation, so x
    is a first point there where den = 0, with the rows B - D(x), D - B(x)
    and D - B.  A condition either hits at one lead or has den = 0, so a
    pair gives at most 5 such plain rows, all handed to one
    poly.tagged_roots call: no pair is evaluated on GF(q).  f = g as
    polynomials (only possible at lead 1, as f is monic of degree mid + 1)
    cannot give a collision of two distinct codewords, so the agreement
    shapes skip that lead.

    Every swept pair has a nonconstant A and a nonzero D (_pencils checks
    it): its system, solved uniquely, gives g(a_J) = f(a_I) at every lead,
    so A(a_J) = C(a_I) and B(a_J) = D(a_I) at 2i - 3 distinct points, where
    the monic C and B, of degree i - 1 < 2i - 3, can neither take one value
    (A constant) nor vanish (D = 0).  So lead 0 is never barred, and a
    condition with den = 0 has its lead-infinity row.  Where a condition
    holds at x for every lead, y is bad on its side (agreement, g(y) = f(x)
    or f(y) = g(x)) unless no lead solves N(y) + lead*D(y) = 0, so D(y) =
    0: a root of the condition's own lead-infinity row (D - B, B - D(x),
    D - B(x)).  Such a row is all of GF(q), but for the agreement of a pair
    with f = g at lead 1, which opens no side.
    """
    pairs, _, width = polys.shape
    minus = fld.neg(1)
    values = poly.eval_all(fld, polys[:, :4].reshape(-1, width), (x, last)).reshape(pairs, 4, 2)
    (ax, bx, cx, dx), (al, bl, cl, dl) = values.transpose(2, 1, 0)
    # first points: g(x) = f(a_last), f(x) = g(a_last), f(x) = g(x)
    num = fld.v_add(np.stack((ax, cx, cx)), fld.v_mul(np.stack((cl, al, ax)), minus))
    den = fld.v_add(np.stack((bx, dx, dx)), fld.v_mul(np.stack((dl, bl, bx)), minus))
    lead = fld.v_mul(num, fld.v_mul(fld.v_inv(den), minus))
    one_agrees = fld.v_add(polys[:, 4], polys[:, 5]).any(axis=1)
    hit, infinity = den != 0, den == 0
    agree = hit & (one_agrees | (fld.v_add(num, den) != 0))
    every = infinity & (num == 0)
    zero = np.zeros(pairs, np.int64)
    leads = np.stack((lead[0], lead[1], *lead, zero, zero, zero))
    g_x, f_x = fld.v_add(ax, fld.v_mul(lead[1], bx)), fld.v_add(cx, fld.v_mul(lead[0], dx))
    targets = np.stack((f_x, g_x, zero, zero, zero, dx, bx, zero))
    kind, pair = np.nonzero(np.stack((hit[0], hit[1], *agree, infinity[0], infinity[1], infinity.any(axis=0))))
    rows = poly.pencil_rows(fld, polys[pair, _ROW_X[kind]], polys[pair, _ROW_Y[kind]], leads[kind, pair], targets[kind, pair])
    codes = poly.tagged_roots(fld, np.zeros_like(kind), rows)
    if (every[0] | every[1] | every[2] & one_agrees).any():
        return np.arange(fld.q), len(codes)
    return np.unique(codes), len(codes)


def extend(fld: Field, points: tuple[int, ...], i: int) -> tuple[tuple[int, ...], int]:
    """One stage: extend a verified length-(2i-2) vector by two points.

    Sweeps the unordered pairs {I, J} of length-(2i-3) increasing index
    sequences at Hamming distance at least i - 2 (no other pair can
    contribute), as insdel.index_pairs yields them, (I, J) with I < J: the
    reverse (J, I) adds nothing (_stage_row).  The stage linear system's
    matrix is independent of the leading coefficient, so the systems of all
    index pairs are reduced together, once, and the per-coefficient
    solutions are affine combinations of two base solutions (_pencils).
    The reverse's matrix is (I, J)'s with columns negated and permuted, so
    the two are singular together, and the first singular pair in sweep
    order is an (I, J).
    Then the rows of the bad set are built for the fresh x in increasing
    order (_stage_row), and the first row with a fresh y, other than x,
    outside it gives the least such y.

    Returns (extended points, bad pairs in the rows scanned).  Raises
    SingularSystemError if a swept pair's system is singular, which the
    input's optimality forbids, InvariantViolation if _pencils finds a
    constant A or D = 0 or a row's plain rows have more than 5 (i - 1)
    roots per swept pair, and NoGoodPairError if every fresh row is full.
    """
    n = len(points)
    q = fld.q
    if i < 3:
        raise ValueError("extension stages start at i = 3")
    if n != 2 * i - 2:
        raise ValueError(f"stage {i} needs {2*i - 2} input points, got {n}")
    if len(set(points)) != n:
        raise ValueError("input points must be pairwise distinct")
    # Closer pairs have a singular system: a position with I_t = J_t = a
    # gives the row (1, a, .., a^mid, -a, .., -a^mid), mid = i - 2, and all
    # such rows span at most i - 1 dimensions, so the rank is at most
    # (i - 1) + d_H(I, J) < 2i - 3, the number of unknowns.
    pairs = list(insdel.index_pairs(n, n - 1, i - 2))
    polys = _pencils(fld, i, _stage_solutions(fld, points, i, pairs))
    ceiling = 5 * len(pairs) * (i - 1)
    fresh = np.ones(q, bool)
    fresh[list(points)] = False
    count = 0
    for x in map(int, np.flatnonzero(fresh)):
        bad, roots = _stage_row(fld, polys, points[-1], x)
        count += len(bad)
        if roots > ceiling:
            raise InvariantViolation(f"stage {i}: row {x} has {roots} roots of its plain rows, above the ceiling {ceiling}")
        free = fresh.copy()
        free[bad] = free[x] = False
        if free.any():
            return points + (x, int(free.argmax())), count
    raise NoGoodPairError(
        f"stage {i}: every fresh row of GF({q})^2 is full ({count} bad pairs); "
        + (
            f"q={q} is below the guaranteed bound {min_field_size(i)} for this stage"
            if q < min_field_size(i)
            else "q meets the guaranteed bound, so this indicates a defect"
        )
    )


VERIFY_EXACT = "exact"
VERIFY_CERTIFICATE = "certificate"
VERIFY_NONE = "none"


@dataclass(frozen=True)
class StageRecord:
    i: int
    row_bad_pair_count: int
    chosen_pair: tuple[int, int]
    verification: str


@dataclass(frozen=True)
class ConstructionTrace:
    q: int
    k: int
    verify_mode: str
    stages: tuple[StageRecord, ...]
    alpha: EvaluationVector


def swept_pair_count(i: int) -> int:
    """The unordered index-sequence pairs stage i sweeps (see extend): two
    of the 2i - 2 sequences of length 2i - 3, omitting positions a and b,
    are at Hamming distance |a - b| >= i - 2, 2i - 2 - t pairs at each t."""
    return i * (i + 1) // 2


def stage_work(q: int, k: int) -> int:
    """Estimated work of stages 3..k over GF(q) in the worst case, in units
    the row loop spends, with b = ceil(log2 q), P = swept_pair_count(i) and
    d = i - 1 at stage i.

    * A row costs 10^5 units for the calls it makes, whatever its size, q
      for the values a full row materializes, and per swept pair 26i units
      for the values at x and a_last, the leads and the rows, and 8 rows of
      4d^2 units per bit of q in the root finder (the products of a square
      of the power mod P): the at most 5 plain rows a pair hands it
      (_stage_row) and 3 for the pieces of later rounds.  A row of degree
      d <= 2 (stage 3) costs 4 units instead.
    * A condition that holds at x for every lead has num = den = 0 there,
      and one of its num and den is a nonzero polynomial of degree at most
      d: den for the first and the agreement condition, as B is monic of
      degree d and D of lower degree; for the second den, as D(0) = 0 and
      D != 0 make D nonconstant.  So each pair and condition admit at most
      d such x: at most 3Pd per stage.
    * A row where no condition holds at every lead has at most 5Pd bad
      pairs (extend checks it), so it is full only while
      q - (2i - 2) - 1 <= 5Pd.  Above that, at most 1 + 3Pd rows are
      scanned; below it, every fresh row may be.

    The measured time of a unit is noted beside errors.MAX_STAGE_OPS."""
    bits = max(1, (q - 1).bit_length())
    total = 0
    for i in range(3, k + 1):
        pairs, d = swept_pair_count(i), i - 1
        fresh, split = q - (2 * i - 2), 8 * (d * d * bits if d >= 3 else 1)
        rows = fresh if fresh - 1 <= 5 * pairs * d else min(fresh, 1 + 3 * pairs * d)
        total += rows * (10**5 + q + pairs * (26 * i + 4 * split))
    return total


def _verify_stage(fld: Field, points: tuple[int, ...], i: int, verify_mode: str) -> str:
    ev = EvaluationVector(fld, points)
    if verify_mode == VERIFY_EXACT:
        result = analyze.is_optimal_half_rate(ev, i)
        if not result.optimal:
            raise InvariantViolation(
                f"stage {i} output {points} failed the exact optimality check: "
                f"witness {result.witness}"
            )
        return "exact_optimal"
    if verify_mode == VERIFY_CERTIFICATE:
        cert = insdel.rank_certificate(RsCode(ev, i), 1)
        if not cert.certified:
            raise InvariantViolation(
                f"stage {i} output {points} failed the rank certificate: "
                f"witness pair {cert.witness}"
            )
        return "rank_certified"
    return "skipped"


def construct_half_rate(
    fld: Field,
    k: int,
    verify_mode: str = VERIFY_EXACT,
    allow_small_q: bool = False,
) -> ConstructionTrace:
    """Build a length-2k dimension-k evaluation vector correcting one insdel.

    Runs the base case and then stages i = 3..k, verifying each intermediate
    vector per verify_mode ("exact" runs analyze.is_optimal_half_rate,
    "certificate" runs the rank certificate at t = 1, "none" trusts the
    counting guarantee); any other verify_mode raises ValueError before
    any work.  Stage 2, the base case, records a row bad-pair count of 0.
    q >= min_field_size(k) is required unless allow_small_q is set, in
    which case NoGoodPairError is a legitimate outcome.  An estimated stage
    work (see stage_work) above errors.MAX_STAGE_OPS raises GuardExceeded
    before any work.  Identical inputs produce identical traces.
    """
    if verify_mode not in (VERIFY_EXACT, VERIFY_CERTIFICATE, VERIFY_NONE):
        raise ValueError(f"unknown verify mode {verify_mode!r}")
    if k < 2:
        raise ValueError("rate-1/2 construction needs k >= 2")
    if fld.q < min_field_size(k) and not allow_small_q:
        raise ValueError(
            f"q={fld.q} is below the guaranteed bound {min_field_size(k)} for k={k}; "
            "pass allow_small_q=True to attempt anyway"
        )
    errors.check_work(stage_work(fld.q, k), errors.MAX_STAGE_OPS, f"units of the row sweep of stages 3..{k} at q={fld.q}")
    stages, points, bad_count = [], base_case(fld).points, 0
    for i in range(2, k + 1):
        if i > 2:
            points, bad_count = extend(fld, points, i)
        stages.append(StageRecord(i, bad_count, points[-2:], _verify_stage(fld, points, i, verify_mode)))
    return ConstructionTrace(
        q=fld.q,
        k=k,
        verify_mode=verify_mode,
        stages=tuple(stages),
        alpha=EvaluationVector(fld, points),
    )
