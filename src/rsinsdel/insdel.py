"""Longest common subsequences, increasing index sequences, and rank
certificates for insdel-correction capability.

Sequences are tuples/lists of field element indices (the scalar routines
accept any hashable symbols).  Index sequences are 1-based strictly
increasing tuples; index_pairs is the one sweep over pairs of them, each
unordered pair once as (I, J) with I < J (at ell = n - 1 built from the
two omitted positions), and build_V the one matrix over a pair or a stack
of pairs, behind the rank certificate, the exact optimality check
(analyze) and the stage systems (construct).  (I, J) and (J, I) hold the
same columns, so the certificate and the optimality check reduce one of
them per unordered pair, in blocks of errors.BLOCK_BYTES.  All pure.

The exact capability engines measure LCS values of a few patterns of one
length m against many rows: lcs_from_masks takes the (P, m) stack of the
patterns' symbols, or a (P, m, S) stack of symbol classes, scatters their
position bits into its bit tables, and runs the Allison-Dix / Hyyro
bit-vector recurrence over every row of an (R, n) array at once, one numpy
pass per column and word, below m = 64 with the patterns packed side by
side into lanes of lane_bits(m) bits, each with a guard bit above m for its
carry (Hyyro, Fredriksson and Navarro's increased bit-parallelism), and
from m = 65 up with a top word no wider than its bits.  A class pattern
matches any symbol of its class at each position (Baeza-Yates and Gonnet's
shift-and classes), so rows over disjoint alphabets share one call.  The
engines check kernel_steps, the word-steps of a scan, against the one limit
before building anything, and size their blocks by kernel_row_bytes, the
kernel's memory per row.  lcs_with_witness is the dynamic program that
recovers one common subsequence of a single pair.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import errors, poly
from .rscode import RsCode


def lane_bits(m: int) -> int:
    """Bits of one pattern's lane in lcs_from_masks: the narrowest of 8, 16,
    32 and 64 above m, which leaves each lane a guard bit, and 64 from m =
    64 up."""
    return min(64, max(8, 1 << m.bit_length()))


@functools.cache
def _layout(m: int, patterns: int) -> tuple[np.dtype, int, np.dtype, tuple[np.dtype, ...]]:
    """lcs_from_masks' words for P patterns of length m: the lane dtype, the
    lanes to a word, the word dtype and the dtype of each of v's ceil(m/64)
    words.  Below m = 64 a word holds as many lanes as the patterns need, up
    to 64 // lane_bits(m); from m = 65 up the top word holds m - 64 (words -
    1) bits, in the narrowest of 8, 16, 32 and 64 bits that holds them."""
    bits = lane_bits(m)
    lanes = min(64 // bits, 1 << (patterns - 1).bit_length())
    word = np.dtype(f"u{bits * lanes // 8}")
    widths = [word] * -(-m // 64)
    if len(widths) > 1:
        widths[-1] = np.dtype(f"u{max(8, 1 << (m - 64 * len(widths) + 63).bit_length()) // 8}")
    return np.dtype(f"u{bits // 8}"), lanes, word, tuple(widths)


def kernel_steps(patterns: int, rows: int, m: int, n: int) -> int:
    """Word-steps of lcs_from_masks over patterns of length m and rows of
    length n, in calls of up to 64 // lane_bits(m) patterns: one per word
    of each lane group, row and column.  A scan that stops early takes fewer."""
    return -(-patterns // (64 // lane_bits(m))) * rows * n * -(-m // 64)


def kernel_row_bytes(m: int, patterns: int = 1) -> int:
    """Working memory of lcs_from_masks per row, in bytes, for P patterns of
    length m: per group of lanes v's words (_layout), u and v & ~u at the
    word width, two one-byte carry flags and, from three words on, about 2
    bytes more for the carry test of a middle word; per row the 8-byte
    column index."""
    _, lanes, word, widths = _layout(m, patterns)
    group = sum(w.itemsize for w in widths) + 2 * word.itemsize + 2 + (2 if len(widths) >= 3 else 0)
    return -(-patterns // lanes) * group + 8


def lcs_from_masks(patterns, alphabet: int, rows) -> np.ndarray:
    """LCS lengths of a (P, m) stack of patterns, their symbols in [0,
    alphabet), against every row of an (R, n) symbol array: the (P, R)
    lengths, in the narrowest signed dtype that holds every length and -1.
    A (P, m, S) stack gives each position of a pattern a class of S
    symbols, any of which it matches (repeats allowed); S = 1 is the (P, m)
    stack.

    v keeps one bit per position of a pattern, set while that position is
    still unmatched.  Each column c updates u = v & M[c], v = (v + u) |
    (v & ~u), where the addition carries from word to word.  Carries only
    move upwards, so the bits above m never reach the ones below it, and
    v & ~u sets them all again; v starts all ones, so LCS = (bits of its
    words) - popcount(v).  Below m = 64 each pattern has its own lane of L =
    lane_bits(m) bits, and the patterns share words of up to 64 // L lanes,
    as narrow as their count allows (a lone pattern runs in an L-bit word).
    Where a word holds more than one lane, each column clears the bits of
    every lane from m up before the addition, so bit m, the guard, catches
    the lane's carry before it reaches the next lane.  From m = 64 up each
    pattern has its own words, 64-bit ones under a top word as narrow as
    its bits allow, whose carry out is dropped.  Each word has its own
    table M, one row of lane groups per symbol, built by one scatter of
    the patterns' position bits: bit j % 64 of pattern p's lane in row c
    of word j // 64 is set exactly where c is in the class patterns[p][j].
    Column-major rows (order="F") make each column one contiguous read.
    """
    patterns = np.asarray(patterns, dtype=np.intp)
    if patterns.ndim == 2:
        patterns = patterns[..., None]
    rows = np.asarray(rows)
    count, n = rows.shape
    p, m, _ = patterns.shape
    if not m:
        return np.zeros((p, count), dtype=np.int8)
    lane, lanes, word, widths = _layout(m, p)
    groups, words = -(-p // lanes), len(widths)
    if lanes > 1:  # m < 64: each lane's bits below m
        keep = np.array([(1 << m) - 1] * lanes, dtype=lane).view(word)
    u = np.empty((count, groups), dtype=word)
    rest = np.empty_like(u)
    carry = np.zeros((count, groups), dtype=bool)
    spill = np.zeros((count, groups), dtype=bool)
    col = np.empty(count, dtype=np.intp)
    bits = np.left_shift(np.uint64(1), np.arange(m, dtype=np.uint64) % 64)
    v, state = [], []
    for w, width in enumerate(widths):
        # lane i takes pattern i's bits, repeated symbols accumulating; a word's
        # lanes lie side by side in memory, so viewing them as words packs them
        span = slice(64 * w, 64 * w + 64)
        table = np.zeros((alphabet, groups * lanes), dtype=lane if width == word else width)
        np.bitwise_or.at(table, (patterns[:, span], np.arange(p)[:, None, None]), bits[span, None].astype(table.dtype))
        vw = np.empty((count, groups), dtype=width)
        vw.fill((1 << 8 * width.itemsize) - 1)
        v.append(vw)
        if width == word:
            state.append((table.view(word), vw, u, rest))
        else:  # the narrow top word, over the first bytes of u and rest
            uw, rw = (a.reshape(-1).view(width)[: count * groups].reshape(count, groups) for a in (u, rest))
            state.append((table, vw, uw, rw))
    for j in range(n):
        col[...] = rows[:, j]
        for w, (mw, vw, uw, rw) in enumerate(state):
            mw.take(col, axis=0, out=uw, mode="clip")
            uw &= vw
            np.bitwise_xor(vw, uw, out=rw)  # v & ~u, since u lies inside v
            if lanes > 1:
                vw &= keep  # clear the guards
            vw += uw  # wraps modulo the word
            if w + 1 < words:
                np.less(vw, uw, out=spill)  # the carry out of this word
            if w:
                vw += carry
                if w + 1 < words:
                    spill |= carry & (vw == 0)
            vw |= rw
            carry, spill = spill, carry
    u = rest = uw = rw = col = carry = spill = state = table = None  # the read-out's arrays take their place
    total = sum(8 * w.itemsize for w in widths) // lanes
    unmatched = np.bitwise_count(v[0].view(lane)).astype(np.min_scalar_type(-1 - total))  # (R, groups * lanes)
    for vw in v[1:]:
        unmatched += np.bitwise_count(vw)
    return total - unmatched[:, :p].T


def lcs_with_witness(s, t) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """LCS length plus 1-based witness index sequences (I into s, J into t).

    Classic O(|s|*|t|) dynamic program with deterministic backtracking.
    """
    m, n = len(s), len(t)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        row, prev = table[i], table[i - 1]
        si = s[i - 1]
        for j in range(1, n + 1):
            if si == t[j - 1]:
                row[j] = prev[j - 1] + 1
            else:
                row[j] = prev[j] if prev[j] >= row[j - 1] else row[j - 1]
    i_idx: list[int] = []
    j_idx: list[int] = []
    i, j = m, n
    while i > 0 and j > 0:
        if s[i - 1] == t[j - 1] and table[i][j] == table[i - 1][j - 1] + 1:
            i_idx.append(i)
            j_idx.append(j)
            i -= 1
            j -= 1
        elif table[i - 1][j] >= table[i][j - 1]:
            i -= 1
        else:
            j -= 1
    i_idx.reverse()
    j_idx.reverse()
    return table[m][n], tuple(i_idx), tuple(j_idx)


# -- increasing index sequences -------------------------------------------


def hamming_increasing(i_seq, j_seq) -> int:
    """Number of positions where two equal-length index sequences differ."""
    if len(i_seq) != len(j_seq):
        raise ValueError("index sequences must have equal length")
    return sum(1 for a, b in zip(i_seq, j_seq) if a != b)


def index_pairs(n: int, ell: int, min_distance: int):
    """The pairs (I, J), I < J, of increasing length-ell sequences over 1..n
    at Hamming distance >= min_distance, I-major, each lexicographically:
    one of each unordered pair, in the order of the ordered sweep that
    holds (J, I) too.

    At ell = n - 1 the pairs are built from the positions a > b that I and
    J omit, at distance a - b, with no candidates: I omits a in n, n - 1, ..
    and J omits b in a - d, .., 1, d = max(min_distance, 1), which makes (n
    - d)(n - d + 1)/2 pairs.  Otherwise the candidates are one (C(n, ell),
    ell) array in the narrowest unsigned dtype that holds n, and each I
    keeps its J by one comparison with the candidates after it.  More than
    errors.MAX_OPS pairs built, or ordered candidate pairs C(n, ell)^2
    below ell = n - 1, raise GuardExceeded at the call, before any sequence
    is built.
    """
    if not 0 <= ell <= n:
        raise ValueError("need 0 <= ell <= n")
    if ell == n - 1:
        d = max(min_distance, 1)
        built = max(0, n - d) * (n - d + 1) // 2
        errors.check_work(built, errors.MAX_OPS, f"index pairs of length {ell} of 1..{n} at distance >= {d}")
        full = tuple(range(1, n + 1))
        return (
            (full[: a - 1] + full[a:], full[: b - 1] + full[b:])
            for a in range(n, 0, -1)
            for b in range(a - d, 0, -1)
        )
    count = math.comb(n, ell)
    errors.check_work(count**2, errors.MAX_OPS, f"C({n},{ell})^2 index pairs")
    flat = itertools.chain.from_iterable(itertools.combinations(range(1, n + 1), ell))
    combos = np.fromiter(flat, dtype=np.min_scalar_type(n), count=count * ell).reshape(count, ell)

    def sweep():
        for r, row in enumerate(combos):
            later = combos[r + 1 :]
            kept = np.count_nonzero(later != row, axis=1) >= min_distance
            i_seq = tuple(row.tolist())
            for j_seq in later[kept].tolist():
                yield i_seq, tuple(j_seq)

    return sweep()


# -- the ell x (2k-1) coefficient matrix and its rank certificate -----------


def build_V(fld, points, k: int, i_seq, j_seq) -> np.ndarray:
    """Row t is (1, a_{I_t}, .., a_{I_t}^{k-1}, a_{J_t}, .., a_{J_t}^{k-1})
    where a = points; shape len(I) x (2k-1).  Stacks of index sequences
    (..., ell) give the stack of their matrices (..., ell, 2k-1)."""
    i_idx, j_idx = np.asarray(i_seq, dtype=np.int64), np.asarray(j_seq, dtype=np.int64)
    if i_idx.shape != j_idx.shape:
        raise ValueError("index sequences must have equal length")
    if i_idx.size and not 1 <= min(i_idx.min(), j_idx.min()) <= max(i_idx.max(), j_idx.max()) <= len(points):
        raise ValueError("index out of range")
    powers = np.ones((len(points), k), dtype=np.int64)  # powers[s, e] = a_s^e
    for e in range(1, k):
        powers[:, e] = fld.v_mul(powers[:, e - 1], np.asarray(points, dtype=np.int64))
    return np.concatenate((powers[i_idx - 1], powers[j_idx - 1, 1:]), axis=-1)


@dataclass(frozen=True)
class CertificateResult:
    """Outcome of the full-rank sweep.

    certified=True proves the code corrects t insdel errors.  certified=False
    reports the first rank-deficient index pair.  At t = 1 that proves
    failure, so the certificate is exact there; for t >= 2 it is one-sided
    (rank deficiency is necessary for failure, not sufficient).
    """

    certified: bool
    t: int
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None
    pairs_checked: int


def rank_certificate(code: RsCode, t: int) -> CertificateResult:
    """Check rank(V) = 2k-1 for every index pair that could witness failure.

    Sweeps index_pairs(n, ell, ell - k + 1), ell = n - t: pairs closer than
    ell - k + 1 cannot witness failure.  Full rank everywhere certifies
    that the code corrects t insdel errors.  At t = 1 a deficient pair also
    proves failure: its kernel vector gives f(a_I) = g(a_J), g0 = 0, and
    f = g would be constant on the d + 1 > k points of the one run of d >=
    n - k shifted positions, hence 0.  The witness is the first deficient
    ordered pair in lexicographic order, which is an (I, J) with I < J (the
    reverse of a deficient pair is deficient and comes later), and
    pairs_checked is its position among the ordered pairs, or all of them,
    twice the pairs swept, when the code is certified.  (I, J) and (J, I)
    hold the same columns, so each unordered pair is ranked once, in blocks
    of errors.BLOCK_BYTES // poly.echelon_bytes(ell, 2k - 1) pairs, one
    poly.rank call each, and the sweep stops after the first block that
    holds a deficient pair.  Its position is its place among the pairs
    plus the pairs (X, Y) with Y <= I, whose reverses come before it: those
    have X < I, so they are swept before (I, J).  index_pairs' guard runs
    before any pair.
    """
    fld, n, k = code.field, code.n, code.k
    ell = n - t
    if not 2 * k - 1 <= ell <= n:
        raise ValueError(f"need 2k-1 <= n-t <= n, got ell={ell}, k={k}, n={n}")
    pairs, swept, seconds = index_pairs(n, ell, ell - k + 1), 0, collections.Counter()
    size = max(1, errors.BLOCK_BYTES // poly.echelon_bytes(ell, 2 * k - 1))
    while block := list(itertools.islice(pairs, size)):
        seqs = np.array(block)  # (pairs, 2, ell)
        seconds.update(j_seq for _, j_seq in block)
        ranks = poly.rank(fld, build_V(fld, code.ev.points, k, seqs[:, 0], seqs[:, 1]))
        if (deficient := np.flatnonzero(ranks < 2 * k - 1)).size:
            b = int(deficient[0])
            before = sum(c for j_seq, c in seconds.items() if j_seq <= block[b][0])
            return CertificateResult(False, t, block[b], swept + b + 1 + before)
        swept += len(block)
    return CertificateResult(True, t, None, 2 * swept)
