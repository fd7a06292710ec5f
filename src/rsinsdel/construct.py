"""Deterministic construction of rate-1/2 RS codes correcting one insdel
error: a scanned length-4 base case plus an inductive two-points-per-stage
extension.

Stage i takes a verified length-(2i-2) evaluation vector and appends two
fresh points.  For every unordered pair {I, J} of increasing index
sequences over the current positions at Hamming distance at least i - 2
(insdel.index_pairs; closer pairs have singular systems and cannot
contribute), the stage needs one square linear system for (I, J), I < J,
read off insdel.build_V, for the normalized polynomial pair that could
realize a long common subsequence; one stacked poly.solve_linear call
solves the systems of all the stage's pairs.  Each solution is affine in
the free leading coefficient, so the pair is four polynomials evaluated
once on GF(q), and every first-point condition, linear in that
coefficient, is solved for it in closed form.  The cross second points
are the roots of one polynomial of degree at most i - 1 in y per
(coefficient, point) solution.  The reverse (J, I) normalizes the same two
polynomials swapped: at a nonzero lead l' it is (I, J) at lead 1/l',
scaled and shifted by a constant, and its lead 0 is (I, J)'s pencil at
the lead infinity, shifted by a constant.  The stage therefore sweeps
each unordered pair once, (I, J) over every lead of GF(q) and infinity,
and hands one poly.RootPool for the whole stage the pair's cross rows,
tagged with their first point.  The pool finds their roots with no row
tested at every y of GF(q): rows of degree at most 2 (all of stage 3)
and, in characteristic p > 3, the cubic rows (all of stage 4) and the
cubic pieces of later rounds in closed form, the others by equal-degree
splitting in blocks.  Every completion
(alpha_{2i-1}, alpha_{2i}) of such a near-collision joins the stage's bad
set, kept as sorted codes x*q + y.
Any pair of fresh distinct points outside the bad set extends the code;
the lexicographically least one is chosen, so runs are fully
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analyze, errors, insdel, poly
from .errors import InvariantViolation
from .gf import Field
from .rscode import EvaluationVector, RsCode


class NoBaseCaseError(ValueError):
    """No admissible length-4 starting vector exists (q < 7)."""


class NoGoodPairError(RuntimeError):
    """The bad set exhausted all candidate point pairs."""


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


def _sorted_unique(codes: np.ndarray, kind: str = "quicksort") -> np.ndarray:
    """np.unique for int64 codes, which in numpy 2.x is over ten times
    slower than one sort and a neighbour comparison.  kind="stable" suits
    codes that are two sorted runs: numpy's stable sort finds the runs and
    merges them in linear time, where quicksort sorts them again."""
    codes = np.sort(codes, kind=kind)
    return np.concatenate((codes[:1], codes[1:][codes[1:] != codes[:-1]]))


def _lead_roots(fld: Field, num: np.ndarray, den: np.ndarray, neg_inv: np.ndarray, allowed: np.ndarray):
    """Leads solving num + lead*den = 0 pointwise: the one lead -num/den and
    whether it is allowed, where den != 0; and where num = den = 0, whether
    every lead solves it."""
    lead = fld.v_mul(num, neg_inv[den])
    return (den != 0) & allowed[lead], lead, (den == 0) & (num == 0)


def _stage_pair_bad_set(fld: Field, points: tuple[int, ...], i: int, u0, u1, neg_inv, cross: list) -> np.ndarray:
    """Bad pairs contributed by one unordered index-sequence pair {I, J},
    given the stage solutions (u0, u1) of (I, J), over every value of the
    free leading coefficient in GF(q) and infinity, as sorted unique codes
    x*q + y, but for the cross second points, whose rows are appended to
    `cross` for the stage's root pool; neg_inv[v] = -1/v (and 0 at 0).

    For coefficient `lead` the near-collision is f = (0, u[mid+1:], 1),
    g = (u[:mid+1], lead) with u = u0 - lead*u1, so g = A + lead*B and
    f = C + lead*D for four fixed polynomials.  The five tail shapes of a
    hypothetical length-(2i-1) common subsequence reduce to pairs of
    single-point equations in x = alpha_{2i-1} and y = alpha_{2i}:
    g(x) = f(a_last) with g(y) = f(x); f(x) = g(a_last) with f(y) = g(x); and
    x in either first set or in the agreement set f = g, with y in the
    agreement set.  Every first-point equation is linear in the lead,
    num(x) + lead*den(x) = 0, so each x has the one lead -num/den, or every
    lead where num = den = 0; the agreement y are bucketed by lead, and only
    the cross second points need the roots y of A + lead*B (or C + lead*D)
    minus the hit's target per (lead, x) hit, of degree at most i - 1: one
    poly.pencil_rows per side, appended to `cross` as (x, rows), side 0
    (g(y) = f(x)) first.  An x that hits at every lead pairs with every
    y whose own equation some allowed lead solves.
    At the lead infinity the pair, divided by the lead, is g = B, f = D,
    still a solution (B(a_J) = D(a_I)); shifted by -B(0) it is the reverse
    (J, I) at lead 0, f = B - B(0) and g = D - B(0).  The shift cancels from
    every equation, so the first points are the zeros of den, y is in the
    agreement set D = B, and the cross rows are B - D(x) and D - B(x).
    Degenerate shapes whose solution set would be all of GF(q) cannot
    complete an actual collision and are skipped, as leads that are not
    allowed:

    * a constant side (the g-side, only possible at lead 0, or the f-side
      at infinity): the collision would force the other, monic and
      nonconstant, side to take a single value at 2i-1 distinct points;
    * f = g as polynomials (only possible at lead = 1, as f is monic of
      degree mid + 1): a collision needs two distinct codewords, and the
      normalization preserves distinctness, so only the cross-point tail
      shapes are kept for that lead.
    """
    q = fld.q
    mid = i - 2
    u = tuple(fld.sub(c0, c1) for c0, c1 in zip(u0, u1))  # lead 1
    allowed = np.ones(q, dtype=bool)
    allowed[0] = any(u0[1 : mid + 1])  # the g-side at lead 0 is nonconstant
    agree_allowed = allowed.copy()
    agree_allowed[1] = poly.trim((0,) + u[mid + 1 :] + (1,)) != poly.trim(u[: mid + 1] + (1,))
    a, c = list(u0[: mid + 1]), list(u0[mid + 1 :])
    b, d = [fld.neg(v) for v in u1[: mid + 1]], [fld.neg(v) for v in u1[mid + 1 :]]
    polys = [a + [0], b + [1], [0] + c + [1], [0] + d + [0]]  # A, B, C, D
    vals = poly.eval_all(fld, polys)
    neg = fld.v_mul(vals, fld.neg(1))
    last = points[-1]
    # first points: g(x) = f(a_last), f(x) = g(a_last), f(x) = g(x)
    other = neg[[2, 0, 0, 3, 1, 1]]
    other[[0, 1, 3, 4]] = other[[0, 1, 3, 4], last, None]
    num, den = fld.v_add(vals[[0, 2, 2, 1, 3, 3]], other).reshape(2, 3, q)
    one, lead, every = _lead_roots(fld, num, den, neg_inv, allowed)
    one[2] &= agree_allowed[lead[2]]
    xs = [np.flatnonzero(row) for row in one]
    ls = [lead[s, x] for s, x in enumerate(xs)]
    # every den is a nonzero polynomial of degree <= i - 1, or num is, so
    # each every-lead set has at most i - 1 points
    es = [np.flatnonzero(row) for row in every]
    # agreement second points: the hit's own lead bucket, plus the y that
    # agree at every lead when the hit's lead allows agreement
    agree_ys = xs[2][np.argsort(ls[2], kind="stable")]
    bucket = np.bincount(ls[2], minlength=q)
    hit_x, hit_l = np.concatenate(xs), np.concatenate(ls)
    counts = bucket[hit_l]
    lo = (np.cumsum(bucket) - bucket)[hit_l]
    offsets = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    codes = [np.repeat(hit_x, counts) * q + agree_ys[offsets]]
    every_x = np.concatenate(es)
    codes.append((every_x[:, None] * q + agree_ys).ravel())
    joined = np.concatenate((hit_x[agree_allowed[hit_l]], every_x))
    codes.append((joined[:, None] * q + es[2]).ravel())
    # g(y) = f(x) for x in the first set (g = vals[0] + lead*vals[1]), and
    # f(y) = g(x) for x in the second (f = vals[2] + lead*vals[3])
    for x, l, base in ((xs[0], ls[0], 0), (xs[1], ls[1], 2)):
        target = fld.v_add(fld.v_mul(l, vals[3 - base, x]), vals[2 - base, x])
        cross.append((x, poly.pencil_rows(fld, polys[base], polys[base + 1], l, target)))
    if any(u1[mid + 1 :]):  # lead infinity, where the f-side D is nonconstant
        inf = [np.flatnonzero(row == 0) for row in den]
        for x, side in zip(inf, (1, 3)):
            cross.append((x, poly.pencil_rows(fld, polys[side], (), np.zeros(len(x), np.int64), vals[4 - side, x])))
        codes.append((np.concatenate(inf)[:, None] * q + inf[2]).ravel())
    # the same equations for x that hit at every lead: y is bad when some
    # allowed lead solves its equation
    side = np.repeat([0, 2], [len(es[0]), len(es[1])])
    e = np.concatenate(es[:2])
    num, den = fld.v_add(vals[[side, side + 1]], neg[[2 - side, 3 - side], e][..., None])
    one_e, _, every_e = _lead_roots(fld, num, den, neg_inv, allowed)
    hit, y = divmod(np.flatnonzero(one_e | every_e), q)
    codes.append(e[hit] * q + y)
    return _sorted_unique(np.concatenate(codes))


def extend(fld: Field, points: tuple[int, ...], i: int) -> tuple[tuple[int, ...], int]:
    """One stage: extend a verified length-(2i-2) vector by two points.

    Sweeps the unordered pairs {I, J} of length-(2i-3) increasing index
    sequences at Hamming distance at least i - 2 (no other pair can
    contribute), as (I, J) with I < J, and every leading coefficient of the
    g-side in GF(q) and infinity (_stage_pair_bad_set).  The reverse (J, I)
    normalizes (g, f) where (I, J) normalizes (f, g): at a lead l' != 0 it
    is (I, J)'s near-collision at lead 1/l', and at lead 0 (I, J)'s at
    infinity, each rescaled and shifted by a constant, so it adds nothing.
    The stage linear system's matrix is independent of the leading
    coefficient, so the systems of all index pairs are reduced together,
    once, and the per-coefficient solutions are affine combinations of two
    base solutions.  The reverse's matrix is (I, J)'s with columns negated
    and permuted, so the two are singular together, and the first singular
    pair in sweep order is an (I, J).  Each pair's cross rows go to the
    stage's poly.RootPool, and its bad set and the roots the pool finds,
    tagged with their first points, are merged, as sorted codes x*q + y,
    into the union.

    Returns (extended points, bad-set size).  Raises SingularSystemError if
    a swept pair's system is singular, which the input's optimality forbids,
    NoGoodPairError if the bad set exhausts all candidates.
    """
    n = len(points)
    q = fld.q
    if i < 3:
        raise ValueError("extension stages start at i = 3")
    if n != 2 * i - 2:
        raise ValueError(f"stage {i} needs {2*i - 2} input points, got {n}")
    if len(set(points)) != n:
        raise ValueError("input points must be pairwise distinct")
    bad = np.empty(0, dtype=np.int64)
    # Closer pairs have a singular system: a position with I_t = J_t = a
    # gives the row (1, a, .., a^mid, -a, .., -a^mid), mid = i - 2, and all
    # such rows span at most i - 1 dimensions, so the rank is at most
    # (i - 1) + d_H(I, J) < 2i - 3, the number of unknowns.
    pairs = [(i_seq, j_seq) for i_seq, j_seq in insdel.index_pairs(n, n - 1, i - 2) if i_seq < j_seq]
    neg_inv = fld.v_mul(fld.v_inv(np.arange(q, dtype=np.int64)), fld.neg(1))
    # new codes are merged into the bad set once they outnumber it four to
    # one, so memory stays within about five times the bad set, and the root
    # pool at one block
    pool, new = poly.RootPool(fld), []
    for u0, u1 in _stage_solutions(fld, points, i, pairs):
        cross = []
        new.append(_stage_pair_bad_set(fld, points, i, u0, u1, neg_inv, cross))
        for x, rows in cross:
            pool.add(x, rows)
        new.append(pool.split())
        if sum(map(len, new)) >= 4 * len(bad):
            bad, new = _sorted_unique(np.concatenate([bad, _sorted_unique(np.concatenate(new))]), "stable"), []
    new.append(pool.split(drain=True))
    bad = _sorted_unique(np.concatenate([bad, _sorted_unique(np.concatenate(new))]), "stable")
    bad_count = len(bad)
    ceiling = math.comb(n, 2) * 5 * (i - 1) ** 2 * q
    if bad_count > ceiling:
        raise InvariantViolation(
            f"stage {i}: bad set has {bad_count} pairs, above the ceiling {ceiling}"
        )
    for x in range(q):
        if x in points:
            continue
        lo, hi = np.searchsorted(bad, (x * q, (x + 1) * q))
        free = np.setdiff1d(np.arange(q), np.concatenate((bad[lo:hi] - x * q, points, (x,))))
        if len(free):
            return points + (x, int(free[0])), bad_count
    raise NoGoodPairError(
        f"stage {i}: bad set ({bad_count} pairs) exhausted GF({q})^2; "
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
    bad_pair_count: int
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
    are at Hamming distance |a - b|, which must be at least i - 2."""
    return sum(2 * i - 2 - t for t in range(i - 2, 2 * i - 2))


def stage_work(q: int, k: int) -> int:
    """Estimated work of stages 3..k over GF(q), in units the sweep's loops
    spend, with b = ceil(log2 q).  Stage i sweeps swept_pair_count(i)
    unordered index pairs (see extend).  Each costs 8b units per first
    point x over the leads of GF(q) (its vectors over GF(q) and the sort of
    the codes it emits, a few per x), and 2i per x at the lead infinity
    (three comparisons of values already evaluated, and the agreement codes
    they emit).  The pair sends at most about 2q cross rows to the root
    pool, one per first point and side, with half as many again allowed
    for the pieces split in later rounds.
    A row of degree d = i - 1 >= 3 costs d^2 units per bit of q (the
    squares of the power mod P; its gcd cost less), a row of degree <= 2
    one unit (the closed form), and so does a cubic row of stage 4 when q
    is prime to 6 (characteristic p > 3, where every cubic has a closed
    form).  Counting the units spent that way, the estimate on this
    package's test runs is 1.01 to 1.02 times them at stage 3 and at stage
    4 over GF(251), GF(1367) and GF(1381), 1.30 at stage 4 over GF(3^4)
    and 1.39 at stage 5 over GF(251).  The measured time of a unit is noted
    beside errors.MAX_STAGE_OPS."""
    bits = max(1, (q - 1).bit_length())
    closed = 4 if math.gcd(q, 6) == 1 else 3  # the last stage whose rows have a closed form
    return sum(
        swept_pair_count(i) * q * (8 * bits + 2 * i + 3 * ((i - 1) ** 2 * bits if i > closed else 1))
        for i in range(3, k + 1)
    )


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
    any work.  Stage 2, the base case, records a bad-pair count of 0.
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
    errors.check_work(stage_work(fld.q, k), errors.MAX_STAGE_OPS, f"element operations of stages 3..{k} at q={fld.q}")
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
