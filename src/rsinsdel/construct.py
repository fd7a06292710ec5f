"""Deterministic construction of rate-1/2 RS codes correcting one insdel
error: a scanned length-4 base case plus an inductive two-points-per-stage
extension.

Stage i takes a verified length-(2i-2) evaluation vector and appends two
fresh points.  For every ordered pair of increasing index sequences over
the current positions at Hamming distance at least i - 2
(insdel.index_pairs; closer pairs have singular systems and cannot
contribute), the stage solves one square linear system, read off
insdel.build_V, for the normalized polynomial pair that could realize a
long common subsequence.  Its solution is affine in the free leading
coefficient, so the pair's values on GF(q) for all q coefficients come from
four polynomial evaluations and one (coefficient, point) array sweep, in
blocks of coefficients.  Every completion (alpha_{2i-1}, alpha_{2i}) of such a
near-collision is a value match in those arrays and joins the stage's bad
set, kept as sorted codes x*q + y.  Any pair of fresh distinct points
outside the bad set extends the code; the lexicographically least one is
chosen, so runs are fully reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analyze, insdel, poly
from .errors import GuardExceeded, InvariantViolation
from .gf import Field
from .rscode import EvaluationVector, RsCode

# A stage sweeps leading coefficients in blocks of about this many
# (coefficient, point) elements, which keeps peak memory flat in q.
LEAD_BLOCK_ELEMENTS = 1 << 15
# Work budget of construct_half_rate in element operations of stages 3..k
# (see stage_work); admits k = 6 at q = min_field_size(6).
MAX_STAGE_OPS = 30_000_000_000


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


def _stage_system(fld: Field, points: tuple[int, ...], i: int, i_seq, j_seq):
    """Rows and the two right-hand sides (fixed part, leading-coefficient
    part) of the stage system for one ordered index-sequence pair: the
    matrix insdel.build_V of dimension i over (J, I), its I block negated,
    with the two top-degree columns moved to the right-hand sides."""
    rows, rhs_fixed, rhs_lead = [], [], []
    for row in insdel.build_V(fld, points, i, j_seq, i_seq):
        rows.append(row[: i - 1] + [fld.neg(c) for c in row[i:-1]])
        rhs_fixed.append(row[-1])
        rhs_lead.append(row[i - 1])
    return rows, rhs_fixed, rhs_lead


def _stage_solutions(fld: Field, points: tuple[int, ...], i: int, i_seq, j_seq):
    """Solutions (u0, u1) of the stage system for one swept index pair (see
    extend); the unknowns for leading coefficient `lead` are u0 - lead*u1."""
    rows, rhs_fixed, rhs_lead = _stage_system(fld, points, i, i_seq, j_seq)
    base = poly.solve_linear(fld, rows, rhs_fixed)
    if base.status != "unique":
        raise SingularSystemError(
            f"stage {i}: singular system at index pair with distance "
            f"{insdel.hamming_increasing(i_seq, j_seq)} >= {i-2}; "
            f"the input vector {points} cannot have been optimal"
        )
    return base.solution, poly.solve_linear(fld, rows, rhs_lead).solution


def _sorted_unique(codes: np.ndarray) -> np.ndarray:
    """np.unique for int64 codes, which in numpy 2.x is over ten times
    slower than one sort and a neighbour comparison."""
    codes = np.sort(codes)
    return np.concatenate((codes[:1], codes[1:][codes[1:] != codes[:-1]]))


def _stage_pair_bad_set(fld: Field, points: tuple[int, ...], i: int, i_seq, j_seq) -> np.ndarray:
    """Bad pairs contributed by one ordered index-sequence pair over all q
    values of the free leading coefficient, as sorted unique codes x*q + y.

    For coefficient `lead` the near-collision is f = (0, u[mid+1:], 1),
    g = (u[:mid+1], lead) with u = u0 - lead*u1, so g = A + lead*B and
    f = C + lead*D for four fixed polynomials; a block of leads gives g and
    f as (lead, x) arrays.  The five tail shapes of a hypothetical
    length-(2i-1) common subsequence reduce to pairs of single-point
    equations in x = alpha_{2i-1} and y = alpha_{2i}: g(x) = f(a_last) with
    g(y) = f(x); f(x) = g(a_last) with f(y) = g(x); and x in either first
    set or in the agreement set f = g, with y in the agreement set.
    Degenerate shapes whose solution set would be all of GF(q) cannot
    complete an actual collision and are skipped:

    * constant g-side (only possible at lead = 0): the collision would force
      the monic nonconstant f-side to take a single value at 2i-1 distinct
      points;
    * f = g as polynomials (only possible at lead = 1, as f is monic of
      degree mid + 1): a collision needs two distinct codewords, and the
      normalization preserves distinctness, so only the cross-point tail
      shapes are kept for that lead.
    """
    q = fld.q
    u0, u1 = _stage_solutions(fld, points, i, i_seq, j_seq)
    mid = i - 2
    a = poly.trim(u0[: mid + 1])  # the g-side at lead 0
    leads = np.arange(q, dtype=np.int64)
    if poly.degree(a) < 1:
        leads = leads[1:]
    u = tuple(fld.sub(c0, c1) for c0, c1 in zip(u0, u1))  # lead 1
    degenerate = poly.trim((0,) + u[mid + 1 :] + (1,)) == poly.trim(u[: mid + 1] + (1,))
    a_vals = poly.eval_all(fld, a)
    b_vals = poly.eval_all(fld, poly.poly_sub(fld, (0,) * (mid + 1) + (1,), u1[: mid + 1]))
    c_vals = poly.eval_all(fld, poly.trim((0,) + u0[mid + 1 :] + (1,)))
    d_vals = poly.eval_all(fld, poly.poly_sub(fld, (), (0,) + u1[mid + 1 :]))
    last = points[-1]
    step = max(1, LEAD_BLOCK_ELEMENTS // q)
    codes = []
    for start in range(0, len(leads), step):
        block = leads[start : start + step, None]
        g = fld.v_add(a_vals, fld.v_mul(block, b_vals))
        f = fld.v_add(c_vals, fld.v_mul(block, d_vals))
        agree = f == g
        if degenerate:
            agree[block[:, 0] == 1] = False
        l1, x1 = divmod(np.flatnonzero(g == f[:, last, None]), q)  # g(x) = f(a_last)
        l3, x3 = divmod(np.flatnonzero(f == g[:, last, None]), q)  # f(x) = g(a_last)
        la, xa = divmod(np.flatnonzero(agree), q)  # f(x) = g(x)
        # each (lead, x) hit selects one row of y: g(y) = f(x), f(y) = g(x), then agreement
        ys = (g[l1] == f[l1, x1, None], f[l3] == g[l3, x3, None], agree[l1], agree[l3], agree[la])
        hit, y = divmod(np.flatnonzero(np.concatenate(ys)), q)
        codes.append(np.concatenate((x1, x3, x1, x3, xa))[hit] * q + y)
    return _sorted_unique(np.concatenate(codes))


def extend(fld: Field, points: tuple[int, ...], i: int, threads: int = 1) -> tuple[tuple[int, ...], int]:
    """One stage: extend a verified length-(2i-2) vector by two points.

    Sweeps the ordered pairs of length-(2i-3) increasing index sequences at
    Hamming distance at least i - 2 (no other pair can contribute) and every
    leading coefficient of the g-side.  The stage linear system's matrix is
    independent of that leading coefficient, so it is reduced once per index
    pair and the per-coefficient solutions are affine combinations of two
    base solutions.
    The pair sweeps are independent and their bad sets merge as a union of
    sorted codes x*q + y, so any thread count yields the same result.

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
    pairs = insdel.index_pairs(n, n - 1, i - 2)
    # merged pair by pair, so memory stays at the size of the bad set
    for codes in analyze.guarded_map(lambda ij: _stage_pair_bad_set(fld, points, i, *ij), pairs, threads):
        bad = _sorted_unique(np.concatenate((bad, codes)))
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

    def to_dict(self) -> dict:
        return {
            "i": self.i,
            "bad_pair_count": self.bad_pair_count,
            "chosen_pair": list(self.chosen_pair),
            "verification": self.verification,
        }


@dataclass(frozen=True)
class ConstructionTrace:
    q: int
    k: int
    verify_mode: str
    stages: tuple[StageRecord, ...]
    alpha: EvaluationVector

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "k": self.k,
            "verify_mode": self.verify_mode,
            "stages": [s.to_dict() for s in self.stages],
            "alpha": self.alpha.serialize(),
        }


def stage_work(q: int, k: int) -> int:
    """Estimated element operations of stages 3..k over GF(q): stage i
    sweeps at most (2i-2)(2i-3) ordered index pairs, each over a q x q
    (leading coefficient, point) array."""
    return sum((2 * i - 2) * (2 * i - 3) for i in range(3, k + 1)) * q * q


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
    if verify_mode == VERIFY_NONE:
        return "skipped"
    raise ValueError(f"unknown verify mode {verify_mode!r}")


def construct_half_rate(
    fld: Field,
    k: int,
    verify_mode: str = VERIFY_EXACT,
    allow_small_q: bool = False,
    threads: int = 1,
) -> ConstructionTrace:
    """Build a length-2k dimension-k evaluation vector correcting one insdel.

    Runs the base case and then stages i = 3..k, verifying each intermediate
    vector per verify_mode ("exact" runs analyze.is_optimal_half_rate,
    "certificate" runs the rank certificate at t = 1, "none" trusts the
    counting guarantee).  q >= min_field_size(k) is required unless
    allow_small_q is set, in which case NoGoodPairError is a legitimate
    outcome.  An estimated stage work (see stage_work) above MAX_STAGE_OPS
    raises GuardExceeded before any work.  Identical inputs produce
    identical traces.
    """
    if k < 2:
        raise ValueError("rate-1/2 construction needs k >= 2")
    analyze.check_threads(threads)
    if fld.q < min_field_size(k) and not allow_small_q:
        raise ValueError(
            f"q={fld.q} is below the guaranteed bound {min_field_size(k)} for k={k}; "
            "pass allow_small_q=True to attempt anyway"
        )
    ops = stage_work(fld.q, k)
    if ops > MAX_STAGE_OPS:
        raise GuardExceeded(
            f"stages 3..{k} at q={fld.q}: estimated {ops} element operations "
            f"exceed the limit of {MAX_STAGE_OPS}"
        )
    stages = []
    ev = base_case(fld)
    points = ev.points
    stages.append(
        StageRecord(2, 0, (points[2], points[3]), _verify_stage(fld, points, 2, verify_mode))
    )
    for i in range(3, k + 1):
        points, bad_count = extend(fld, points, i, threads=threads)
        stages.append(
            StageRecord(
                i,
                bad_count,
                (points[-2], points[-1]),
                _verify_stage(fld, points, i, verify_mode),
            )
        )
    return ConstructionTrace(
        q=fld.q,
        k=k,
        verify_mode=verify_mode,
        stages=tuple(stages),
        alpha=EvaluationVector(fld, points),
    )
