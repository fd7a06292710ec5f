"""Shared oracles: the canonical form of an evaluation vector and every
canonical ordering of a field, the bad family grouped by class, built
member by member, the scalar single-pair LCS and the textbook dynamic
program, interpolation through one Vandermonde solve, the root
finder's closed-form test, the message family before its scaled
copies were dropped, and the ordered index-pair sweep with the rank
certificate on it."""

import functools
import itertools

import numpy as np
import pytest

from rsinsdel import analyze, insdel, poly
from rsinsdel.rscode import EvaluationVector


def lcs(s, t) -> int:
    """Length of a longest common subsequence.

    The single-pair form of insdel.lcs_from_masks' recurrence on Python
    integers; agrees with the classic dynamic program (see
    insdel.lcs_with_witness).
    """
    if len(s) > len(t):
        s, t = t, s
    if not s:
        return 0
    masks: dict = {}
    for i, c in enumerate(s):
        masks[c] = masks.get(c, 0) | (1 << i)
    full = (1 << len(s)) - 1
    v = full
    for c in t:
        u = v & masks.get(c, 0)
        v = ((v + u) | (v - u)) & full
    return len(s) - v.bit_count()


def lcs_dp(a, b) -> int:
    """Textbook dynamic program, kept independent of the library code."""
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[m][n]


def interpolate(fld, points, bound: int) -> tuple[int, ...] | None:
    """Unique polynomial of degree < bound through the points, or None.

    One poly.solve_linear call on the Vandermonde system of every point:
    with distinct nodes and at least `bound` of them its columns are
    independent, so the system is either unique or inconsistent.  Duplicate
    x-values raise ValueError.
    """
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate interpolation nodes")
    if len(points) < bound:
        raise ValueError("need at least `bound` points")
    vandermonde = poly.eval_all(fld, np.eye(bound, dtype=np.int64), xs).T
    solved = poly.solve_linear(fld, vandermonde, [y for _, y in points])
    return None if solved.solution is None else poly.trim(solved.solution)


def normalized_with_scaled_copies(fld, k):
    """analyze._normalized_polys before scaled copies were dropped: every
    lead-0 polynomial, then the lead-1 ones, in the same order."""
    if k == 1:
        yield ()
        return
    for lead in (0, 1):
        for mids in itertools.product(range(fld.q), repeat=k - 2):
            yield poly.trim((0, *mids, lead))


def ordered_index_pairs(n, ell, min_distance):
    """The ordered index-pair sweep that ranked (I, J) and (J, I) both:
    every pair of increasing length-ell sequences over 1..n, I == J
    included, I-major and each lexicographically, each I keeping its J by
    one comparison with every candidate."""
    combos = np.array(list(itertools.combinations(range(1, n + 1), ell)), dtype=np.int64, ndmin=2)
    for row in combos:
        kept = np.count_nonzero(combos != row, axis=1) >= min_distance
        for j_seq in combos[kept].tolist():
            yield tuple(row.tolist()), tuple(j_seq)


def ordered_deficient_pairs(fld, points, k, ell, min_distance):
    """(position from 1, (I, J)) for every ordered pair of the ordered sweep
    whose build_V matrix has rank below 2k - 1, each ranked on its own
    orientation, and the number of pairs swept."""
    pairs = list(ordered_index_pairs(len(points), ell, min_distance))
    if not pairs:
        return [], 0
    seqs = np.array(pairs)
    ranks = poly.rank(fld, insdel.build_V(fld, points, k, seqs[:, 0], seqs[:, 1]))
    return [(at + 1, pairs[at]) for at in np.flatnonzero(ranks < 2 * k - 1).tolist()], len(pairs)


def ordered_certificate(code, t):
    """insdel.rank_certificate on the ordered sweep: the first deficient
    ordered pair and its position, or every ordered pair swept."""
    ell = code.n - t
    deficient, swept = ordered_deficient_pairs(code.field, code.ev.points, code.k, ell, ell - code.k + 1)
    if not deficient:
        return insdel.CertificateResult(True, t, None, swept)
    at, witness = deficient[0]
    return insdel.CertificateResult(False, t, witness, at)


def has_closed_form(fld, coeffs) -> bool:
    """Whether the root finder solves a row, given by its trimmed
    coefficients, without splitting it: every row of degree <= 2."""
    return len(coeffs) <= 3


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


def canonical_orderings(fld):
    """Every full-length ordering of fld that starts (0, 1), one per affine
    class."""
    rest = [x for x in range(fld.q) if x not in (0, 1)]
    for perm in itertools.permutations(rest):
        yield EvaluationVector(fld, (0, 1) + perm)


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
