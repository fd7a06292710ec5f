"""Insdel-capability measurement for RS codes.

Capability is governed by the largest LCS between distinct codewords: a
length-n code corrects t insdel errors exactly when that maximum is at most
n - t - 1.  Two exact engines are provided, both measuring their codeword
pairs with insdel's batched LCS kernel: a guarded brute force for any
parameters, which measures each normalized f shifted by every constant c
against one table of the q^(k-1) codewords of zero constant term, and a
guarded fast path for full-length 2-dimensional codes that exploits the
affine edit-distance isometries.  In the fast path subtracting B from
both words of the pair (alpha, A*alpha + B) leaves the pattern A*alpha
against the row alpha - B, so an ordering's scan is one grid of its kept
A values against its q shifts, and one batched core (_affine_lcs)
measures a block of orderings as class patterns, or above q = 157 a block
of one ordering's A values, per kernel call; the engine is that core on
one ordering.  Beside them: the complete
classification of full-length 2-dimensional orderings that fail to correct
even one error, an optimality checker for length-2k dimension-k codes (a
rank sweep of the index pairs, then one elimination of the deficient ones,
whose first free column names each pair's least collision), a census
visiting only the verified classes, measured in blocks by the core, and
then the bad ones, and seeded random sampling.
Every blocked loop sizes its blocks by errors.BLOCK_BYTES.

No exact report may ever show a code LCS below 2k-2 (any k-dimensional
linear code has two distinct codewords agreeing on a subsequence that long);
that floor is asserted unconditionally.

Everything runs serially, in input order, so identical inputs give
identical results.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import errors, insdel, poly
from .errors import GuardExceeded, InvariantViolation
from .gf import Field, euler_phi
from .insdel import kernel_row_bytes, kernel_steps, lcs_from_masks
from .rscode import EvaluationVector, RsCode, equivalent

DEFAULT_MAX_CLASSES = 5_040
SPOT_CHECKS = 200  # classes re-measured by census verify="spot"


# -- reports ----------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisReport:
    """Result of one capability measurement.

    lcs_of_code and max_correctable are exact for the brute-force and affine
    methods.  max_correctable = n - 1 - lcs_of_code; optimal means the code
    corrects n - 2k + 1 insdel errors, the most any linear code can.
    """

    n: int
    k: int
    q: int
    method: str
    lcs_of_code: int
    max_correctable: int
    optimal: bool
    witness: dict | None = None


def _check_lcs_floor(lcs_value: int, n: int, k: int) -> None:
    # For n >= 2k-1, any k-dimensional linear code has two distinct codewords
    # sharing a common subsequence of length 2k-2, so an exact maximum below
    # that signals a broken engine, never a real code.  (Above rate 1/2 the
    # floor would exceed the trivial ceiling n-1 and does not apply.)
    floor = 2 * k - 2 if n >= 2 * k - 1 else 0
    if not floor <= lcs_value <= n - 1:
        raise InvariantViolation(
            f"exact code LCS {lcs_value} outside [{floor}, {n-1}] for n={n}, k={k}"
        )


def _report(code: RsCode, method: str, lcs_value: int, witness: dict | None) -> AnalysisReport:
    _check_lcs_floor(lcs_value, code.n, code.k)
    max_corr = code.n - 1 - lcs_value
    return AnalysisReport(
        n=code.n,
        k=code.k,
        q=code.q,
        method=method,
        lcs_of_code=lcs_value,
        max_correctable=max_corr,
        optimal=max_corr >= code.n - 2 * code.k + 1,
        witness=witness,
    )


def _normalized_polys(fld: Field, k: int):
    """The reduced message polynomials: zero constant term, leading
    coefficient 0 or 1, middle coefficients free, and, below degree k-1,
    first nonzero coefficient 1.

    Every pair of distinct codewords can be shifted and scaled (edit
    distance is invariant under both) so that one of them uses a polynomial
    from this family, which is what lets the quadratic factor q^2 be dropped
    from the pair enumeration.  A lead-0 polynomial whose first nonzero
    coefficient is not 1 is a scaled copy lam*f of one yielded before it;
    (lam*f, g) agrees wherever (f, g/lam) does, so dropping the copy loses
    no LCS value and, since the scans keep the first maximum, no witness.
    """
    if k == 1:
        yield ()
        return
    for mids in itertools.product(range(fld.q), repeat=k - 2):
        if next(filter(None, mids), 1) == 1:
            yield poly.trim((0, *mids))
    for mids in itertools.product(range(fld.q), repeat=k - 2):
        yield (0, *mids, 1)


def _family_size(q: int, k: int) -> int:
    # len(_normalized_polys): from k = 2 on, q^(k-2) of lead 1, 0 and (q^(k-2) - 1)/(q - 1) of lead 0
    return 1 if k == 1 else q ** (k - 2) + (q ** (k - 2) - 1) // (q - 1) + 1


def _affine_steps(q: int) -> int:
    # kernel_steps of lcs_code_affine's full scan: the (q + 1) // 2 patterns A*alpha against the q rows alpha - B
    return kernel_steps((q + 1) // 2, q, q, q)


def _codeword_table(code: RsCode) -> np.ndarray:
    """The q^(k-1) codewords of zero constant term, in rscode.codewords
    order, column-major (each column one contiguous read for the kernel) and
    in the narrowest unsigned dtype that holds q - 1: row w evaluates the
    coefficients (0, c_1, .., c_(k-1)) read off the k base-q digits of w,
    most significant first.  Built in blocks of rows, one poly.eval_all call
    each, whose int64 temporaries stay within errors.BLOCK_BYTES beside the
    table."""
    k, q, n = code.k, code.q, code.n
    table = np.empty((q ** (k - 1), n), dtype=np.min_scalar_type(q - 1), order="F")
    step = max(1, (errors.BLOCK_BYTES - table.nbytes) // (48 * n + 16 * k))
    for w0 in range(0, len(table), step):
        digits = np.arange(w0, min(w0 + step, len(table)))[:, None] // q ** np.arange(k - 1, -1, -1) % q
        table[w0 : w0 + step] = poly.eval_all(code.field, digits, code.ev.points)
    return table


def lcs_code_bruteforce(code: RsCode, want_witness: bool = True) -> AnalysisReport:
    """Exact code LCS by scanning normalized-vs-all codeword pairs.

    Subtracting c from both words keeps an LCS, so the pair of a normalized
    f and the codeword g = w + c, w of zero constant term, is measured as the
    pattern f - c against the row w: the rows are the q^(k-1) words w
    (_codeword_table), each f gives q patterns, and pattern (f, c) against
    row w is g at index c*q^(k-1) + w in codewords order.  The f-major
    pattern list, each against every row, thus walks the pairs in (f, g)
    order; (f, 0) against f's own row is g = f and skipped.  At k = 1 the one
    row is 0 and the patterns' other symbols share the code 1.  One loop
    measures fixed-size ranges of whole lane groups (64 //
    insdel.lane_bits(n) patterns), one lcs_from_masks call on the range's
    symbols each, within errors.BLOCK_BYTES beside the rows, counting the
    range's symbols, the kernel's tables (8 bytes per symbol and word of a
    lane group) and state, and two ranges' lengths.  Where one lane group
    over every row exceeds the budget (at the default from q = 137 to 140 at
    k = 3 and n = 6 down to 4, and from q = 16,373 at k = 2 and n = 3), each
    range is one lane group, measured against blocks of rows, one call
    each.  It keeps the first maximum in (pattern, row) order and
    stops after the first range reaching n - 1.
    More than errors.MAX_KERNEL_STEPS word-steps, counted as the |family|
    patterns against all q^k codewords, raise GuardExceeded before any table
    is built.
    """
    fld, k, n, q = code.field, code.k, code.n, code.q
    what = f"kernel word-steps of the brute force of n={n}, k={k} over {fld.name()}"
    errors.check_work(kernel_steps(_family_size(q, k), q**k, n, n), errors.MAX_KERNEL_STEPS, what)
    words = _codeword_table(code)
    family = list(_normalized_polys(fld, k))
    own = np.array([sum(c * q ** (k - 1 - j) for j, c in enumerate(f)) for f in family])  # f's row of words
    alphabet, lanes = q if k > 1 else 2, 64 // insdel.lane_bits(n)  # c_1*x takes every value at x != 0
    # per lane group: its symbols and tables, and per row its kernel state
    # and two ranges' lengths; the kernel's 8-byte column index per row
    fixed, per_row = lanes * 32 * n + 8 * alphabet * -(-n // 64), kernel_row_bytes(n, lanes) - 8 + 2 * lanes
    groups = (errors.BLOCK_BYTES - words.nbytes - 8 * len(words)) // (len(words) * per_row + fixed)
    step = lanes * max(1, groups)
    rows = len(words) if groups > 0 else max(1, (errors.BLOCK_BYTES - words.nbytes - fixed) // (per_row + 8))
    best = pattern = row = -1
    for p0 in range(0, len(family) * q, step):
        f, c = np.divmod(np.arange(p0, min(p0 + step, len(family) * q)), q)
        symbols = np.minimum(fld.v_add(words[own[f]], fld.v_mul(c, fld.neg(1))[:, None]), alphabet - 1)
        mine = np.flatnonzero(c == 0)
        mine_rows = own[f[mine]]
        for r0 in range(0, len(words), rows):
            lengths = lcs_from_masks(symbols, alphabet, words[r0 : r0 + rows])
            inside = (mine_rows >= r0) & (mine_rows < r0 + rows)
            lengths[mine[inside], mine_rows[inside] - r0] = -1  # g = f
            # a later block of rows may hold an earlier pattern of this range
            # at the same length
            if (top := int(lengths.max())) > best or (top == best and pattern >= p0):
                i, r = divmod(int(lengths.argmax()), lengths.shape[1])
                if top > best or p0 + i < pattern:
                    best, pattern, row = top, p0 + i, r0 + r
        if best == n - 1:
            break
    i, c = divmod(pattern, q)
    g = poly.trim((c, *(row // q ** (k - 1 - j) % q for j in range(1, k))))
    witness = _pair_witness(code, family[i], g) if want_witness else None
    return _report(code, "brute_force", best, witness)


def _pair_witness(code: RsCode, f, g) -> dict:
    cf, cg = (poly.eval_on(code.field, h, code.ev.points) for h in (f, g))
    _, i_seq, j_seq = insdel.lcs_with_witness(cf, cg)
    return {"f": list(f), "g": list(g), "I": list(i_seq), "J": list(j_seq)}


def _affine_rows(fld: Field) -> tuple[np.ndarray, np.ndarray]:
    """The (a, b) of the affine scan: every a != 0 and b, less (1, 0) and
    the larger of each pair (a, b), (1/a, -b/a).  a < 1/a keeps every b and
    a > 1/a none; a = 1 pairs b with -b and keeps 0 < b <= -b; a = -1 is its
    own pair and keeps all.  That leaves (q^2 - 1) // 2 rows.  Returns the
    kept a values ((q + 1) // 2 of them, kept[0] = 1) and the (kept, q) mask
    of the rows, whose cells [a index, b] in C order are the scan order (a,
    then b, ascending)."""
    q = fld.q
    a = np.arange(1, q)
    kept = a[a <= fld.v_inv(a)]
    b = np.arange(q)
    rows = np.ones((len(kept), q), dtype=bool)
    rows[0] = (b != 0) & (b <= fld.v_mul(b, fld.neg(1)))
    return kept, rows


def _affine_lcs(fld: Field, orderings) -> tuple[np.ndarray, np.ndarray]:
    """The code LCS of each full-length ordering of an (N, q) array, and
    the first row of _affine_rows, in scan order, that reaches it.

    Subtracting B from both words keeps an LCS, so LCS(alpha, A*alpha + B)
    = LCS(A*alpha, alpha - B): an ordering's scan is one grid of kernel
    cells, the patterns A*alpha of the kept A against the q rows alpha - B,
    gathered from the q x q table x - b, and row (A, B) is cell [A, B], read
    in _affine_rows' scan order.  Orderings share a call as class patterns:
    ordering o of a block maps each symbol x to o*q + x, so each pattern
    position holds one symbol per ordering and each row matches only its
    own ordering's.  Each call stays within errors.BLOCK_BYTES, counting per
    grid row and lane group the kernel's state, the tables' entries for the
    row's symbol, and each lane's int64 pattern symbols and lengths, read
    twice; per row its column index and, for blocks of whole orderings, its
    q symbols gathered twice.  The tables of one call (x - b, the scan mask)
    lie beside it.  While a whole ordering fits (q <= 157 at the default
    budget) a block holds as many as fit.  Otherwise each ordering's rows,
    which then lie beside the budget too, meet its A values in A-major
    blocks of whole lane groups, and the scan stops after the first block
    reaching q - 1.  On a 2-core VM (Python 3.11.7, numpy 2.4.6) one GF(3^4)
    ordering takes about 1.5 ms, one GF(257) ordering 0.12 s and one
    GF(509) ordering 1.8 s.  The callers check the work.
    """
    q = fld.q
    arr = np.asarray(orderings, dtype=np.int64).reshape(-1, q)
    best = np.full(len(arr), -1, dtype=np.int64)
    first = np.zeros(len(arr), dtype=np.int64)
    a_vals, scan = _affine_rows(fld)
    elements, diff = np.arange(q), np.empty((q, q), dtype=np.min_scalar_type(q - 1))
    negated = fld.v_mul(elements, fld.neg(1))
    step = max(1, errors.BLOCK_BYTES // (16 * q))  # rows of the int64 sum and v_add's temporary
    for x0 in range(0, q, step):
        diff[x0 : x0 + step] = fld.v_add(elements[x0 : x0 + step, None], negated)  # diff[x, b] = x - b
    lanes = 64 // insdel.lane_bits(q)
    per_group = kernel_row_bytes(q, lanes) - 8 + 8 * -(-q // 64) + 12 * lanes
    whole = q * (-(-len(a_vals) // lanes) * per_group + 8 + 4 * q)
    if whole <= errors.BLOCK_BYTES:
        count, width = errors.BLOCK_BYTES // whole, len(a_vals)
    else:
        count, width = 1, lanes * max(1, (errors.BLOCK_BYTES // q - 8) // per_group)
    for o0 in range(0, len(arr), count):
        block = arr[o0 : o0 + count]
        n, best_o, first_o = len(block), best[o0 : o0 + count], first[o0 : o0 + count]
        symbol = np.min_scalar_type(n * q - 1)
        rows = diff[block.T].astype(symbol, copy=False)  # rows[j, o, b] = alpha_o[j] - b
        rows += np.arange(0, n * q, q, dtype=symbol)[:, None]
        rows = rows.reshape(q, n * q).T  # column-major; row o*q + b is ordering o's alpha - b
        for a0 in range(0, len(a_vals), width):
            patterns = fld.v_mul(a_vals[a0 : a0 + width, None, None], block.T)  # (A, j, o): A * alpha_o[j]
            patterns += np.arange(0, n * q, q)
            lengths = lcs_from_masks(patterns, n * q, rows).reshape(-1, n, q)
            cells = lengths.transpose(1, 0, 2)[:, scan[a0 : a0 + width]]  # (o, this block's scan rows)
            f = cells.argmax(axis=1)
            top = cells[np.arange(n), f]
            better = top > best_o
            best_o[better], first_o[better] = top[better], np.count_nonzero(scan[:a0]) + f[better]
            if (best_o == q - 1).all():
                break
    return best, first


def lcs_code_affine(ev: EvaluationVector, want_witness: bool = True) -> AnalysisReport:
    """Exact code LCS for a full-length 2-dimensional code.

    Scaling and shifting both codewords leaves their LCS unchanged, so
    every pair of distinct non-constant codewords reduces to (alpha, A*alpha + B)
    with (A, B) != (1, 0), A != 0; pairs involving constants contribute at
    most 1.  The pair (A, B) and its inverse map give equal LCS, so only the
    lexicographically smaller of the two is evaluated (_affine_rows).  The
    scan is _affine_lcs on this one ordering; the witness is its first
    maximal row, on the original symbols.  More than errors.MAX_KERNEL_STEPS
    word-steps in the full scan raise GuardExceeded before any table is
    built; that admits q <= 577.
    """
    if not ev.is_full_length():
        raise ValueError("affine fast path requires a full-length ordering")
    fld = ev.field
    code = RsCode(ev, 2)
    what = f"kernel word-steps of the affine scan of {fld.name()}"
    errors.check_work(_affine_steps(fld.q), errors.MAX_KERNEL_STEPS, what)
    (best,), (row,) = _affine_lcs(fld, [ev.points])
    witness = None
    if want_witness:
        a_vals, scan = _affine_rows(fld)
        a, b = divmod(int(np.flatnonzero(scan)[row]), fld.q)
        witness = _pair_witness(code, (0, 1), (b, int(a_vals[a])))
    return _report(code, "affine", int(best), witness)


# -- optimality of length-2k dimension-k codes -------------------------------


@dataclass(frozen=True)
class OptimalityResult:
    optimal: bool
    witness: dict | None = None


def _least_collision(ev: EvaluationVector, k: int, seqs: np.ndarray):
    """The rank-deficient pairs of a (pairs, I/J, 2k-1) stack and their
    least (f key, pair, g), or None, off one reduction (is_optimal_half_rate)."""
    fld = ev.field
    order = np.r_[:k, 2 * k - 3 : k - 1 : -1, 2 * k - 2]  # g, then f_(k-2) .. f_1, f_(k-1)
    matrices = insdel.build_V(fld, ev.points, k, seqs[:, 1], seqs[:, 0])[:, :, order]
    reduced, pivots = poly._row_echelon(fld, matrices, 2 * k - 1)
    deficient = (pivots < 0).any(axis=1)
    if not deficient.any():
        return seqs[deficient], None
    seqs, reduced, pivots = seqs[deficient], reduced[deficient], pivots[deficient]
    each, free = np.arange(len(seqs)), (pivots < 0).argmax(axis=1)
    if (bad := np.flatnonzero(free < k)).size:
        i_seq, j_seq = seqs[bad[0]].tolist()
        raise InvariantViolation(f"rank-deficient pair I={i_seq}, J={j_seq} has no collision on {ev.serialize()}")
    vec = np.where(pivots >= 0, reduced[each[:, None], np.maximum(pivots, 0), free[:, None]], 0)
    vec[each, free] = fld.neg(1)
    f = fld.v_mul(vec[:, k:], fld.neg(1))  # reversed key order: with the pairs, the keys of np.lexsort
    i = np.lexsort(np.hstack((seqs.reshape(len(seqs), -1)[:, ::-1], f)).T)[0]
    return seqs, (f[i, ::-1].tolist(), seqs[i].tolist(), vec[i, :k].tolist())


def is_optimal_half_rate(ev: EvaluationVector, k: int) -> OptimalityResult:
    """Decide whether the length-2k code corrects one insdel error.

    The code fails exactly when some reduced f (see _normalized_polys) and
    some g of degree < k with g != f agree along a pair of increasing index
    sequences I, J of length 2k-1.  Two kinds of pair would force g = f: a
    pair closer than k (f = g on the k or more points a_t with I_t = J_t;
    index_pairs(n, n-1, k) keeps k(k+1)/2 of the k(2k-1) unordered pairs),
    and a pair whose insdel.build_V matrix has full rank 2k-1 (its kernel,
    which holds (f0-g0, f1.., -g1..), is zero).

    Each pair (I, J), I < J, is reduced once: poly._row_echelon on its
    build_V(J, I), the columns g_0 .. g_(k-1) and then f's in reversed key
    order (f_(k-1), f_1, .., f_(k-2)).  A free column marks it deficient,
    and only the reverses (J, I) of the deficient pairs, which hold the
    same columns, are reduced again; the code is optimal when no pair is
    deficient.  On a deficient pair g = f forces f = 0 (f would take one
    value on the d + 1 > k points of the shifted run), and the nonzero
    family members, whose first nonzero coefficient in the key order is 1,
    come sorted by that key, so the least in a pair's solution space is the
    one whose leading coefficient comes latest: g's columns pivot (the J
    points are distinct), and the first free column c is that coefficient,
    the kernel vector -1 at c and R[pivot row, c] at each earlier pivot
    column being (g, -f).  A pair with no free f column has no collision
    (InvariantViolation).  The witness is the least (f, pair), ties going
    to the pair first in the ordered sweep: one np.lexsort per reduction,
    compared across blocks of errors.BLOCK_BYTES // poly.echelon_bytes(2k-1,
    2k-1) pairs.  At most k(k+1) eliminations, k(k+1)(2k-1)^3, are checked
    against errors.MAX_OPS before any pair is built (GuardExceeded).
    """
    n = ev.n
    if n != 2 * k:
        raise ValueError("optimality checker requires n = 2k")
    errors.check_work(k * (k + 1) * (2 * k - 1) ** 3, errors.MAX_OPS, f"field operations of the rank sweep at k={k}")
    pairs, best = insdel.index_pairs(n, n - 1, k), None
    size = max(1, errors.BLOCK_BYTES // poly.echelon_bytes(n - 1, n - 1))
    while block := list(itertools.islice(pairs, size)):
        seqs, least = _least_collision(ev, k, np.array(block))  # (pairs, I/J, 2k-1)
        if least is not None:
            _, reverse = _least_collision(ev, k, seqs[:, ::-1])  # (J, I) is deficient with (I, J)
            best = min(filter(None, (best, least, reverse)))
    if best is None:
        return OptimalityResult(True, None)
    (lead, *mids), (i_seq, j_seq), g = best
    witness = {"f": list(poly.trim((0, *mids, lead))), "g": list(poly.trim(g)), "I": i_seq, "J": j_seq}
    return OptimalityResult(False, witness)


def optimal_4_2_pair(fld: Field, a1: int, a2: int) -> bool:
    """Closed-form test: does (0, 1, a1, a2) give a length-4 dimension-2 code
    correcting one insdel error?

    Requires a1 not in {0, 1} and a2 not in {0, 1, a1}.  The forbidden values
    are a1^2, a1^2 - a1 + 1, and (when a1 != 2) -1/(a1 - 2); integer literals
    are taken in the field, so characteristic 2 and 3 are handled correctly.
    """
    fld.check(a1)
    fld.check(a2)
    one = 1
    two = fld.int_embed(2)
    if a1 in (0, one):
        raise ValueError("a1 must avoid 0 and 1")
    if a2 in (0, one, a1):
        raise ValueError("a2 must avoid 0, 1, and a1")
    sq = fld.mul(a1, a1)
    if a2 == sq:
        return False
    if a2 == fld.add(fld.sub(sq, a1), one):
        return False
    if a1 != two and a2 == fld.neg(fld.inv(fld.sub(a1, two))):
        return False
    return True


# -- bad-ordering classification and census ---------------------------------

REASON_GEOMETRIC = "geometric"
REASON_REVERSED = "reversed_geometric"
REASON_ARITHMETIC = "arithmetic_progression"
REASON_NOT_BAD = "not_bad"


@dataclass(frozen=True)
class BadOrderingVerdict:
    bad: bool
    reason: str
    witness: dict | None = None


def _geometric_vector(fld: Field, theta: int) -> tuple[int, ...]:
    """(0, 1, theta, .., theta^(q-2)) from the log table: theta^j is
    g^(j log theta mod (q - 1)), theta being primitive and so nonzero."""
    logs = np.arange(fld.q - 1, dtype=np.int64) * int(fld.v_log(theta)) % (fld.q - 1)
    return (0, *fld.v_exp(logs).tolist())


def bad_ordering_family(fld: Field):
    """The explicit full-length orderings whose 2-dimensional code fails to
    correct a single insdel, yielded one at a time as (reason, theta,
    vector): (0,1,theta,..,theta^(q-2)) and its reverse for every primitive
    theta, plus (0,1,..,q-1) when q is prime."""
    for theta in fld.primitive_elements():
        geo = _geometric_vector(fld, theta)
        yield REASON_GEOMETRIC, theta, geo
        yield REASON_REVERSED, theta, tuple(reversed(geo))
    if fld.m == 1:
        yield REASON_ARITHMETIC, None, tuple(range(fld.q))


def _normalize(fld: Field, arr: np.ndarray) -> np.ndarray:
    # the affine image lam * arr + mu that starts (0, 1)
    lam = fld.inv(fld.sub(int(arr[1]), int(arr[0])))
    mu = fld.neg(fld.mul(lam, int(arr[0])))
    return fld.v_add(fld.v_mul(arr, np.int64(lam)), np.int64(mu))


def _class_members(fld: Field, points) -> tuple[np.ndarray, list]:
    """The canonical form beta of a full-length ordering and the
    bad_ordering_family members (reason, theta) in its class, in family
    order, from three O(q) comparisons: beta is geometric (beta[i+1] =
    beta[2] * beta[i] from i = 1 on, which makes beta[2] primitive), the
    reversal's canonical form is geometric, or q is prime and beta =
    (0, 1, .., q-1).  A class holds a geometric and a reversed member only
    at q = 3 and 4, with equal theta (mapping reverse(geo(theta)) onto
    geo(theta') forces theta'^j = 1 - theta^-j for j = 1 .. q-2), so the
    members come out in family order.  q < 3 raises ValueError.
    """
    q = fld.q
    if q < 3:
        raise ValueError(
            f"the bad-ordering classification needs q >= 3 (full-length codes of dimension 2), got q={q}"
        )
    arr = np.asarray(points, dtype=np.int64)
    beta = _normalize(fld, arr)
    members = []
    for reason, form in ((REASON_GEOMETRIC, beta), (REASON_REVERSED, _normalize(fld, arr[::-1]))):
        if np.array_equal(form[2:], fld.v_mul(form[1:-1], form[2])):
            members.append((reason, int(form[2])))
    if fld.m == 1 and np.array_equal(beta, np.arange(q)):
        members.append((REASON_ARITHMETIC, None))
    return beta, members


def bad_classes(fld: Field):
    """Yield each affine class of bad_ordering_family once, at its first
    member in family order, as (canonical form, _class_members members).
    Before the first class, q < 3 raises ValueError and more than
    errors.MAX_OPS elements in the 2*phi(q-1)+1 family vectors raise
    GuardExceeded."""
    elements = (2 * euler_phi(fld.q - 1) + 1) * fld.q
    errors.check_work(elements, errors.MAX_OPS, f"elements of the bad family of {fld.name()}")
    for reason, theta, vec in bad_ordering_family(fld):
        form, members = _class_members(fld, vec)  # refuses q < 3 at the first member
        if members[0] == (reason, theta):
            yield tuple(form.tolist()), members


def classify_bad_ordering(ev: EvaluationVector) -> BadOrderingVerdict:
    """Match a full-length ordering against the complete bad family.

    A full-length 2-dimensional code fails to correct a single insdel error
    exactly when its ordering is affinely equivalent to a member of
    bad_ordering_family, as _class_members decides.  The witness maps the
    first member of that class, in family order, onto ev: lam * member +
    mu = ev, read from two coordinates, since every member starts (0, 1)
    but the reversed one, which ends (1, 0).
    """
    if not ev.is_full_length():
        raise ValueError("classification requires a full-length ordering")
    fld = ev.field
    _, members = _class_members(fld, ev.points)
    if not members:
        return BadOrderingVerdict(False, REASON_NOT_BAD, None)
    reason, theta = members[0]
    ends = ((1, 0), ev.points[-2:]) if reason == REASON_REVERSED else ((0, 1), ev.points[:2])
    lam, mu = equivalent(*(EvaluationVector(fld, end) for end in ends))
    return BadOrderingVerdict(True, reason, {"lam": lam, "mu": mu, "theta": theta})


@dataclass(frozen=True)
class CensusResult:
    q: int
    classes_total: int
    classes_correcting_one: int
    proportion: float
    bad_classes: tuple[dict, ...]
    reason_counts: dict
    verified: int


def _class_rank(form) -> int:
    """The rank of a (0, 1)-prefixed ordering of GF(q) in class order,
    itertools.permutations order of 2 .. q-1: its Lehmer code, each item's
    place among the items not yet placed, read in the factorial base."""
    left, rank = sorted(form[2:]), 0
    for x in form[2:]:
        rank = rank * len(left) + left.index(x)
        left.remove(x)
    return rank


def _decode_classes(q: int, ranks: np.ndarray) -> np.ndarray:
    """The (0, 1)-prefixed orderings of GF(q) of the given ranks in class
    order, as an (N, q) int64 array: one Lehmer decode of all ranks at
    once, the rank's factorial-base digit j picking the item at position
    2 + j among the items not yet placed.  Ranks of 2^63 and more come as
    an object array of Python integers."""
    n, count = q - 2, len(ranks)
    out = np.empty((count, q), dtype=np.int64)
    out[:, 0], out[:, 1] = 0, 1
    left, each, rest = np.tile(np.arange(2, q), (count, 1)), np.arange(count), ranks
    for j in range(n):
        base = math.factorial(n - 1 - j)
        digit = (rest // base).astype(np.int64)
        rest = rest % base
        out[:, 2 + j] = left[each, digit]
        left = left[np.arange(n - j) != digit[:, None]].reshape(count, n - j - 1)
    return out


def _factorial_above(n: int, limit: int) -> bool:
    # n! > limit, multiplying 1*2*... only until the product passes limit
    prod = 1
    for i in range(2, n + 1):
        prod *= i
        if prod > limit:
            return True
    return prod > limit


def census_2dim(fld: Field, max_classes: int = DEFAULT_MAX_CLASSES, verify: str = "auto") -> CensusResult:
    """Classify every equivalence class of full-length orderings (k = 2).

    Each class has a unique representative starting (0, 1), its canonical
    form; the bad ones are the forms of bad_classes, and the other classes
    are counted, not visited.  verify picks the classes re-measured with the
    exact affine engine by rank in class order: "all" every class, "spot" an
    evenly spaced sample of about SPOT_CHECKS, "none" none, "auto" "all" for
    q <= 8 and "spot" above; any other mode is a ValueError before any work.
    One loop re-measures the verified classes in rank order, in chunks of
    errors.BLOCK_BYTES (each class decoded from its rank into an int64 row
    by _decode_classes, with its items not yet placed and their mask):
    those whose rank is a bad form's one at a time by lcs_code_affine, each
    of which must reach q - 1, and the others together by _affine_lcs, each
    of which must stay below it.  The first disagreement in rank order is an
    invariant violation.  A second loop then lists the bad forms, sorted,
    with their verdicts.  q must be at least 3, and (q-2)! at
    most max_classes (GuardExceeded, decided without building a larger
    (q-2)!); a negative max_classes is a ValueError before any work.  The
    verified classes' affine scans share the engine's limit,
    errors.MAX_KERNEL_STEPS, checked before the bad family is walked.
    """
    q = fld.q
    if verify == "auto":
        verify = "all" if q <= 8 else "spot"
    if verify not in ("all", "spot", "none"):
        raise ValueError(f"unknown verify mode {verify!r}")
    if max_classes < 0:
        raise ValueError(f"max_classes must be >= 0, got {max_classes}")
    if _factorial_above(q - 2, max_classes):
        # the exact count only while it fits in 64 bits
        count = f"(q-2)! = {math.factorial(q - 2)}" if q <= 22 else f"(q-2)! at q={q}"
        raise GuardExceeded(f"{count} exceeds max_classes={max_classes}")
    total = math.factorial(q - 2)
    spot = range(0, total, max(1, total // SPOT_CHECKS))
    verify_idx = {"all": range(total), "spot": spot, "none": range(0)}[verify]
    what = f"kernel word-steps of verifying {len(verify_idx)} classes of {fld.name()}"
    errors.check_work(len(verify_idx) * _affine_steps(q), errors.MAX_KERNEL_STEPS, what)
    forms = [form for form, _ in bad_classes(fld)]  # refuses q < 3 before any work
    stray = [form for form in forms if form[:2] != (0, 1) or sorted(form) != list(range(q))]
    if stray:  # the classes between bad forms are counted, so every form must be a class
        raise InvariantViolation(f"bad-class form {stray[0]} is not a (0, 1)-prefixed ordering of {fld.name()}")
    bad = [_class_rank(form) for form in forms]
    size = max(1, errors.BLOCK_BYTES // (17 * q + 32))
    dtype = np.int64 if total <= 2**63 else object  # every rank is below total
    for start in range(0, len(verify_idx), size):
        ranks = np.array(verify_idx[start : start + size], dtype=dtype)
        chunk = _decode_classes(q, ranks)
        flagged = np.isin(ranks, bad)
        lengths, _ = _affine_lcs(fld, chunk[~flagged])
        wrong = np.flatnonzero(~flagged)[lengths == q - 1].tolist()
        for i in np.flatnonzero(flagged).tolist():
            ev = EvaluationVector(fld, tuple(chunk[i].tolist()))
            if lcs_code_affine(ev, want_witness=False).lcs_of_code != q - 1:
                wrong.append(i)
        if wrong:
            ev = EvaluationVector(fld, tuple(chunk[min(wrong)].tolist()))
            raise InvariantViolation(f"classifier disagrees with exact LCS on {ev.serialize()}")
    bad_entries = []
    for form in sorted(forms):
        ev = EvaluationVector(fld, form)
        verdict = classify_bad_ordering(ev)
        bad_entries.append({"alpha": ev.serialize(), "reason": verdict.reason, "witness": verdict.witness})
    reason_counts = dict(Counter(entry["reason"] for entry in bad_entries))
    good = total - len(bad_entries)
    return CensusResult(
        q=q,
        classes_total=total,
        classes_correcting_one=good,
        proportion=good / total,
        bad_classes=tuple(bad_entries),
        reason_counts=reason_counts,
        verified=len(verify_idx),
    )


# -- seeded random sampling of orderings -------------------------------------

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 sequence; fixed algorithm so runs reproduce everywhere."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform draw in [0, n) by rejection sampling."""
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n


def random_ordering(q: int, rng: SplitMix64) -> tuple[int, ...]:
    """Fisher-Yates shuffle of the canonical element order 0..q-1."""
    items = list(range(q))
    for i in range(q - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]
    return tuple(items)


def _trial_rng(seed: int, index: int) -> SplitMix64:
    # Per-trial stream derived only from (seed, index), so a trial's outcome
    # does not depend on the trials before it.
    return SplitMix64((seed ^ ((index + 1) * 0x9E3779B97F4A7C15)) & _MASK64)


@dataclass(frozen=True)
class SampleResult:
    q: int
    delta: str
    trials: int
    seed: int
    lcs_threshold: int
    lcs_values: tuple[int, ...]
    fraction_correcting: float
    fraction_correcting_one: float


def parse_fraction(text) -> Fraction:
    """Exact value of a decimal or p/q literal; ValueError when malformed."""
    try:
        return Fraction(str(text))
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def sample_orderings(
    fld: Field,
    delta,
    trials: int,
    seed: int,
) -> SampleResult:
    """Measure code LCS over seeded random full-length orderings (k = 2).

    A trial counts as correcting (1-delta)*q insdel errors when its code LCS
    is at most floor(delta*q) - 1 (delta*q is floored when fractional).
    fraction_correcting_one reports how many trials correct at least one
    error, i.e. have LCS below q - 1.  The trials' affine scans share the
    engine's limit, checked before the first trial (GuardExceeded).
    """
    q = fld.q
    if q < 3:
        raise ValueError(f"sampling needs q >= 3 (full-length codes of dimension 2), got q={q}")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    frac = parse_fraction(delta)
    if not 0 < frac <= 1:
        raise ValueError("delta must satisfy 0 < delta <= 1")
    what = f"kernel word-steps of the affine scans of {fld.name()}, trials={trials}"
    errors.check_work(trials * _affine_steps(q), errors.MAX_KERNEL_STEPS, what)
    threshold = math.floor(frac * q) - 1
    values = []
    for idx in range(trials):
        ordering = random_ordering(q, _trial_rng(seed, idx))
        values.append(lcs_code_affine(EvaluationVector(fld, ordering), want_witness=False).lcs_of_code)
    n_correct = sum(1 for v in values if v <= threshold)
    n_one = sum(1 for v in values if v < q - 1)
    return SampleResult(
        q=q,
        delta=str(frac),
        trials=trials,
        seed=seed,
        lcs_threshold=threshold,
        lcs_values=tuple(values),
        fraction_correcting=n_correct / trials if trials else 0.0,
        fraction_correcting_one=n_one / trials if trials else 0.0,
    )
