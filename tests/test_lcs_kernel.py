"""Differential tests of the batched bit-parallel LCS kernel and of the two
exact engines built on it.

The references are kept independent of the kernel: the textbook dynamic
program, scalar per-pair ports of the engines' earlier loops (one
single-word LCS per codeword pair, scanning the full normalized family with
its scaled copies), and, for full-length orderings, the longest increasing
subsequence of the position map (Hunt-Szymanski).
"""

import bisect
import itertools
import random
import re
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from conftest import lcs, lcs_dp, normalized_with_scaled_copies

from rsinsdel import analyze, bounds, cli, errors, insdel, poly
from rsinsdel.gf import field_from_order, field_new
from rsinsdel.rscode import EvaluationVector, RsCode, codeword, codewords


def lis_length(seq):
    tails = []
    for v in seq:
        i = bisect.bisect_left(tails, v)
        tails[i : i + 1] = [v]
    return len(tails)


# -- the kernel ---------------------------------------------------------------


@pytest.mark.parametrize(
    "m", [0, 1, 7, 8, 15, 16, 31, 32, 63, 64, 65, 72, 80, 81, 96, 97, 112, 113, 127, 128, 129, 130, 200, 509]
)
def test_kernel_matches_dp(m):
    # Word counts 0..8, so carries cross up to seven word boundaries, and
    # below 64 lanes of 8, 16, 32 and 64 bits on both sides of each width;
    # from 65 up top words of 1 to 64 bits (8, 16, 17, 32, 33, 48, 49 and 61
    # among them), in 8-, 16-, 32- and 64-bit words; small alphabets give
    # long carry chains, large ones sparse matches.
    rng = random.Random(1000 + m)
    for alphabet in (2, 3, 11, 200):
        s = [rng.randrange(alphabet) for _ in range(m)]
        shapes = ((1, "C", np.uint8), (min(m, 200), "F", np.uint8), (rng.randrange(2, 260), "C", np.int64))
        for n, order, dtype in shapes:
            rows = [[rng.randrange(alphabet) for _ in range(n)] for _ in range(9)]
            rows = np.array(rows, dtype=dtype, order=order)
            if m:
                rows[0] = (s * n)[:n]  # a row sharing a prefix with s
            got = insdel.lcs_from_masks([s], alphabet, rows)
            assert got.shape == (1, len(rows)) and got.dtype.kind == "i"
            assert got.tolist() == [[lcs_dp(s, list(r)) for r in rows]]
    # The kernel's scatter: alphabets of 1 and 2 repeat symbols, whose bits
    # must accumulate, and 509 leaves most entries empty; a pattern given as
    # a list, tuple, int64 or uint16 sequence, and a stack of them given
    # either way, measure alike; the pattern 0 .. m-1 sets one bit per symbol.
    for alphabet in (1, 2, 7, 509):
        seqs = [[rng.randrange(alphabet) for _ in range(m)] for _ in range(3)]
        rows = np.array([[rng.randrange(alphabet) for _ in range(24)] for _ in range(3)], dtype=np.uint16)
        want = [[lcs_dp(s, list(r)) for r in rows] for s in seqs]
        s = seqs[0]
        for seq in (s, tuple(s), np.array(s, dtype=np.int64), np.array(s, dtype=np.uint16)):
            assert insdel.lcs_from_masks([seq], alphabet, rows).tolist() == want[:1]
        for stack in (seqs, np.array(seqs, dtype=np.int64), np.array(seqs, dtype=np.uint16)):
            assert insdel.lcs_from_masks(stack, alphabet, rows).tolist() == want
    rows = np.array([[rng.randrange(max(m, 1)) for _ in range(24)] for _ in range(3)])
    got = insdel.lcs_from_masks(np.arange(m)[None], m, rows)
    assert got.tolist() == [[lcs_dp(list(range(m)), list(r)) for r in rows]]


def test_kernel_all_ones_carry_chain():
    # s = 0^m against rows of 0s: every column carries through every word,
    # into a narrow top word (72: 8 bits, 81: 17 bits in 32, 96: all 32,
    # 129: 1 bit in 8) and out of it.
    for m in (64, 72, 81, 96, 97, 129, 200):
        rows = np.zeros((3, 150), dtype=np.int32)
        rows[1, ::2] = 1
        rows[2, :] = 1
        assert insdel.lcs_from_masks([[0] * m], 2, rows).tolist() == [[min(m, 150), min(m, 75), 0]]


def test_kernel_edge_shapes():
    assert insdel.lcs_from_masks([[1, 2, 3]], 4, np.zeros((0, 5), dtype=np.uint8)).tolist() == [[]]
    assert insdel.lcs_from_masks([[1, 2, 3]], 4, np.zeros((2, 0), dtype=np.uint8)).tolist() == [[0, 0]]
    assert insdel.lcs_from_masks([[]], 4, [[1, 2]]).tolist() == [[0]]
    # repeated symbols on both sides of the word edge: 2 at positions 0, 2
    # and 65, 1 at 3 .. 64
    s = [2, 0, 2] + [1] * 62 + [2]
    rows = [s, s[::-1], [2] * 66, [1, 0] * 33]
    assert insdel.lcs_from_masks([s], 3, rows).tolist() == [[lcs_dp(s, r) for r in rows]]


@pytest.mark.parametrize("m", [1, 6, 7, 8, 15, 16, 31, 32, 63, 64, 65])
def test_stacked_kernel_matches_lcs(m):
    # P patterns share words of 64 // lane_bits(m) lanes, so 7, 9 and 17
    # leave the last word ragged; every pattern must still read its own lane.
    rng = random.Random(2000 + m)
    lanes = 64 // insdel.lane_bits(m)
    assert lanes == {1: 8, 6: 8, 7: 8, 8: 4, 15: 4, 16: 2, 31: 2, 32: 1, 63: 1}.get(m, 1)
    for patterns in (1, 2, 7, 8, 9, 17):
        alphabet = rng.choice((2, 3, 23))
        seqs = [[rng.randrange(alphabet) for _ in range(m)] for _ in range(patterns)]
        n = rng.randrange(1, 2 * m + 3)
        rows = np.array([[rng.randrange(alphabet) for _ in range(n)] for _ in range(7)], dtype=np.uint8, order="F")
        rows[0] = (seqs[-1] * n)[:n]  # a row sharing a prefix with the last pattern
        got = insdel.lcs_from_masks(seqs, alphabet, rows)
        assert got.shape == (patterns, 7) and got.dtype.kind == "i"
        assert got.tolist() == [[lcs(s, list(r)) for r in rows] for s in seqs]
        for s, lengths in zip(seqs, got):
            alone = insdel.lcs_from_masks([s], alphabet, rows)
            assert alone.dtype == got.dtype and np.array_equal(alone, [lengths])


@pytest.mark.parametrize("m", [1, 6, 7, 8, 15, 16, 31, 32, 63])
def test_stacked_kernel_all_carry_in_every_lane(m):
    # s = 0^m against rows of 0s: each column adds every unmatched bit of
    # a lane to itself, so its carry runs into the guard bit; a guard left
    # set would pass the next column's carry into the neighbouring lane.
    n = 2 * m + 5
    rows = np.ones((3, n), dtype=np.uint8)
    rows[0] = 0
    rows[1, ::2] = 0
    for patterns in (2, 8, 9, 17):
        got = insdel.lcs_from_masks([[0] * m] * patterns, 2, rows)
        assert got.tolist() == [[m, min(m, (n + 1) // 2), 0]] * patterns


def test_stacked_kernel_edge_shapes():
    stack = [[1, 2, 3], [3, 3, 0], [0, 1, 2]]
    for rows, want in ((np.zeros((0, 5), dtype=np.uint8), (3, 0)), (np.zeros((2, 0), dtype=np.uint8), (3, 2))):
        got = insdel.lcs_from_masks(stack, 4, rows)
        assert got.shape == want and not got.any()
    # m = 0: no words at all
    assert insdel.lcs_from_masks([[]] * 9, 4, [[1, 2], [0, 3]]).tolist() == [[0, 0]] * 9


@pytest.mark.parametrize("m", [3, 31, 64, 65, 81, 100, 128, 129, 193, 257, 577])
def test_kernel_stays_within_its_bytes_per_row(m):
    # the tracemalloc peak of one call at two row counts separates the
    # per-row slope from the fixed buffers, the bit tables the call builds
    # among them; one pattern in its narrow lane and a full word group each
    # reach kernel_row_bytes(m, patterns) within a byte
    rng = np.random.default_rng(m)
    for patterns in sorted({1, 64 // insdel.lane_bits(m)}):
        seqs = rng.integers(0, 8, (patterns, m))
        peaks = []
        for count in (20_000, 60_000):
            rows = np.asfortranarray(rng.integers(0, 8, (count, 3), dtype=np.intp))
            tracemalloc.start()
            try:
                insdel.lcs_from_masks(seqs, 8, rows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        slope = (peaks[1] - peaks[0]) / 40_000
        fixed = peaks[0] - 20_000 * slope
        charge = insdel.kernel_row_bytes(m, patterns)
        assert charge - 1 < slope <= charge and fixed <= 128 << 10, (patterns, slope, fixed)


def lcs_class_dp(classes, row):
    """The LCS dynamic program of a pattern whose position j matches every
    symbol of classes[j]."""
    prev = [0] * (len(row) + 1)
    for cls in classes:
        cur = [0]
        for j, x in enumerate(row):
            cur.append(prev[j] + 1 if x in cls else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


@pytest.mark.parametrize("m", [3, 31, 64, 65, 81, 129])
def test_class_patterns_match_the_dp(m):
    # a (P, m, S) stack: position j of pattern p matches any of its S
    # symbols, repeats among them, for one pattern and more than a word
    # group; S = 1 is the (P, m) stack, to the dtype
    rng = np.random.default_rng(300 + m)
    for patterns in (1, 64 // insdel.lane_bits(m) + 1):
        for size in (1, 2, 5):
            alphabet = 4 * size
            stack = rng.integers(0, alphabet, (patterns, m, size))
            stack[:, ::3, -1] = stack[:, ::3, 0]  # a repeated symbol in every third class
            rows = rng.integers(0, alphabet, (12, 2 * m + 1))
            rows[0] = stack[-1, np.arange(2 * m + 1) % m, 0]  # a row sharing a prefix with the last pattern
            got = insdel.lcs_from_masks(stack, alphabet, rows)
            assert got.shape == (patterns, 12) and got.dtype.kind == "i"
            assert got.tolist() == [[lcs_class_dp([set(c) for c in p.tolist()], r.tolist()) for r in rows] for p in stack]
            if size == 1:
                flat = insdel.lcs_from_masks(stack[..., 0], alphabet, rows)
                assert flat.dtype == got.dtype and np.array_equal(flat, got)


# -- the affine engine ----------------------------------------------------------


def affine_reference(ev):
    """Port of the per-pair affine scan: (a, b) ascending, the larger of each
    inverse pair skipped, one scalar LCS per pair, stop at q - 1."""
    fld, q, points = ev.field, ev.field.q, ev.points
    arr = np.array(points, dtype=np.int64)
    best, best_ab = -1, None
    for a in range(1, q):
        a_inv = fld.inv(a)
        scaled = fld.v_mul(arr, np.int64(a))
        for b in range(q):
            if (a == 1 and b == 0) or (a, b) > (a_inv, fld.neg(fld.mul(a_inv, b))):
                continue
            val = lcs(points, fld.v_add(scaled, np.int64(b)).tolist())
            if val > best:
                best, best_ab = val, (a, b)
                if best == q - 1:
                    return best, best_ab
    return best, best_ab


def affine_lis_oracle(ev):
    """Max over every (a, b) != (1, 0), a != 0, of the LIS of the position
    map of alpha into a*alpha + b; no inverse-pair reduction."""
    fld, q = ev.field, ev.field.q
    pos = [0] * q
    for i, x in enumerate(ev.points):
        pos[x] = i
    best = 1
    for a in range(1, q):
        scaled = [fld.mul(a, x) for x in ev.points]
        for b in range(q):
            if a == 1 and b == 0:
                continue
            best = max(best, lis_length([pos[fld.add(x, b)] for x in scaled]))
    return best


def orderings(q, count, seed):
    fld = field_from_order(q)
    rng = analyze.SplitMix64(seed)
    out = [EvaluationVector(fld, analyze.random_ordering(q, rng)) for _ in range(count)]
    fam = list(analyze.bad_ordering_family(fld))
    out += [EvaluationVector(fld, fam[0][2]), EvaluationVector(fld, fam[-1][2])]
    return out


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 32, 49])
def test_affine_rows_match_the_pairwise_filter(q):
    fld = field_from_order(q)
    a_vals, scan = analyze._affine_rows(fld)
    assert scan.shape == ((q + 1) // 2, q) and scan.dtype == bool
    a_idx, b_rows = np.nonzero(scan)  # C order, the scan order
    want = [
        (a, b)
        for a in range(1, q)
        for b in range(q)
        if not (a == 1 and b == 0) and (a, b) <= (fld.inv(a), fld.neg(fld.mul(fld.inv(a), b)))
    ]
    assert list(zip(a_vals[a_idx].tolist(), b_rows.tolist())) == want


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13, 16, 25, 27, 32])
def test_affine_matches_reference_and_lis_oracle(q):
    for ev in orderings(q, 4, seed=q):
        report = analyze.lcs_code_affine(ev)
        best, (a, b) = affine_reference(ev)
        assert (report.lcs_of_code, report.witness["g"]) == (best, [b, a])
        assert report.lcs_of_code == affine_lis_oracle(ev)


@pytest.mark.parametrize("q", [81, 131, 257])
def test_affine_large_fields(q):
    # q = 81 needs two words per row, 131 three, 257 five and int32 symbols.
    evs = orderings(q, 1, seed=q)
    for ev in evs:
        report = analyze.lcs_code_affine(ev)
        best, (a, b) = affine_reference(ev)
        assert (report.lcs_of_code, report.witness["g"]) == (best, [b, a])
    assert [analyze.lcs_code_affine(ev).lcs_of_code for ev in evs[1:]] == [q - 1, q - 1]
    if q == 81:
        assert analyze.lcs_code_affine(evs[0]).lcs_of_code == affine_lis_oracle(evs[0])


def affine_kernel_reference(ev):
    """The scan on the original symbols: every row a*alpha + b of
    _affine_rows built with v_mul/v_add, one kernel call against the
    pattern alpha, the first maximum."""
    fld, q = ev.field, ev.field.q
    arr = np.array(ev.points, dtype=np.int64)
    a_vals, scan = analyze._affine_rows(fld)
    a_idx, b_rows = np.nonzero(scan)
    rows = np.empty((len(b_rows), q), dtype=np.uint16, order="F")
    for i, a in enumerate(a_vals):
        sel = a_idx == i
        rows[sel] = fld.v_add(fld.v_mul(arr, a)[None, :], b_rows[sel, None])
    lengths = insdel.lcs_from_masks([ev.points], q, rows)[0]
    i = int(lengths.argmax())
    return int(lengths[i]), [int(b_rows[i]), int(a_vals[a_idx[i]])]


def scan_rows(fld, best, first):
    """The core's (best, first) as (LCS, [b, a]) of each ordering's first
    maximal row."""
    a_vals, scan = analyze._affine_rows(fld)
    cells = np.flatnonzero(scan)[first]
    return [(int(lcs), [int(c % fld.q), int(a_vals[c // fld.q])]) for lcs, c in zip(best, cells)]


@dataclass(frozen=True)
class KernelCall:
    """One kernel call: a copy of its (P, m) or (P, m, S) patterns, its
    alphabet and its rows."""

    patterns: np.ndarray
    alphabet: int
    rows: object

    @property
    def steps(self) -> int:
        """Word-steps, read off the arguments as the kernel lays them out:
        one per word of each group of lanes, row and column."""
        patterns, m = self.patterns.shape[:2]
        lanes = min(64 // insdel.lane_bits(m), 1 << (patterns - 1).bit_length())
        return -(-patterns // lanes) * self.rows.shape[0] * self.rows.shape[1] * -(-m // 64)


def kernel_calls(monkeypatch):
    """Patch the kernel the exact engines call; the list collects a
    KernelCall per call."""
    seen = []
    real = insdel.lcs_from_masks

    def kernel(patterns, alphabet, rows):
        seen.append(KernelCall(np.array(patterns), alphabet, rows))
        return real(patterns, alphabet, rows)

    monkeypatch.setattr(analyze, "lcs_from_masks", kernel)
    return seen


def test_affine_block_size_does_not_change_results(monkeypatch):
    evs = orderings(27, 1, seed=5) + orderings(11, 3, seed=6)
    want = [analyze.lcs_code_affine(ev) for ev in evs]
    # 1 byte: blocks of one lane group of A values; 4 KiB: a few lane groups
    # of GF(27) and a whole GF(11) ordering; 16 KiB: a whole GF(27) ordering
    for budget in (1, 1 << 12, 1 << 14):
        monkeypatch.setattr(errors, "BLOCK_BYTES", budget)
        assert [analyze.lcs_code_affine(ev) for ev in evs] == want


def test_affine_stops_at_the_first_block_reaching_q_minus_1(monkeypatch):
    # a geometric ordering of GF(27): its q - 1 row (a = 3, b = 0) is in the
    # second of the seven blocks of one lane group (two A values) that a
    # 1-byte budget gives, and the blocks after it never run
    fld = field_new(3, 3)
    ev = EvaluationVector(fld, next(analyze.bad_ordering_family(fld))[2])
    want = affine_kernel_reference(ev)
    assert want == (26, [0, 3])
    monkeypatch.setattr(errors, "BLOCK_BYTES", 1)
    seen = kernel_calls(monkeypatch)
    report = analyze.lcs_code_affine(ev)
    assert (report.lcs_of_code, report.witness["g"]) == want
    assert [(call.patterns.shape, call.rows.shape) for call in seen] == [((2, 27, 1), (27, 27))] * 2
    a_vals, _ = analyze._affine_rows(fld)
    assert seen[1].patterns[:, :, 0].tolist() == [fld.v_mul(np.array(ev.points), a).tolist() for a in a_vals[2:4]]


def kernel_calls_by_shape(seen, q):
    """The block shapes of a run of the core: several orderings, one whole
    ordering (all (q + 1) // 2 patterns), or a block of one ordering's A
    values."""
    return {"many" if len(c.rows) > q else "one" if len(c.patterns) == (q + 1) // 2 else "range" for c in seen}


@pytest.mark.parametrize("q", [5, 8, 9, 16, 27, 81, 127])
def test_affine_core_matches_engine_and_lis_oracle_in_every_block_shape(q, monkeypatch):
    fld = field_from_order(q)
    evs = orderings(q, 4, seed=100 + q)
    # the first maximal row of a scan of every row on the original symbols
    want = [affine_kernel_reference(ev) for ev in evs]
    oracle = evs if q < 81 else evs[:1]
    assert [lcs for lcs, _ in want[: len(oracle)]] == [affine_lis_oracle(ev) for ev in oracle]
    reports = [analyze.lcs_code_affine(ev) for ev in evs]
    assert [(r.lcs_of_code, r.witness["g"]) for r in reports] == want
    seen = kernel_calls(monkeypatch)
    shapes = set()
    # from blocks of one lane group of A values up to every ordering at once
    for budget in (1, *(4**k for k in range(6, 13))):
        monkeypatch.setattr(errors, "BLOCK_BYTES", budget)
        del seen[:]
        lengths, first = analyze._affine_lcs(fld, [ev.points for ev in evs])
        assert scan_rows(fld, lengths, first) == want, budget
        assert [analyze.lcs_code_affine(ev) for ev in evs] == reports, budget
        shapes |= kernel_calls_by_shape(seen, q)
    # one lane group holds every A value of GF(5) and GF(8)
    assert shapes == ({"many", "one"} if q in (5, 8) else {"many", "one", "range"})


def test_affine_core_gf11_spectrum():
    # every class of GF(11), in blocks of 40,320 orderings: the exact code LCS
    # spectrum, whose top bin is the bad classes
    fld = field_new(11)
    perms = itertools.permutations(range(2, 11))
    spectrum = Counter()
    while block := list(itertools.islice(perms, 40_320)):
        orders = np.zeros((len(block), 11), dtype=np.int64)
        orders[:, 1], orders[:, 2:] = 1, block
        spectrum.update(analyze._affine_lcs(fld, orders)[0].tolist())
    assert spectrum == {6: 128_045, 7: 213_170, 8: 20_942, 9: 714, 10: 9}
    assert spectrum[10] == bounds.bad_class_count(fld).count


def seeded_ordering(q, s):
    # [0, 1] followed by 2 .. q-1 shuffled by random.Random(s)
    rest = list(range(2, q))
    random.Random(s).shuffle(rest)
    return [0, 1] + rest


@pytest.mark.parametrize("q, want", [(97, [23, 22]), (127, [27, 28])])
def test_affine_core_agrees_in_whole_and_a_blocks(q, want, monkeypatch):
    # the seeded orderings s = 0, 1: both in one call (a large budget), at
    # the default budget (both at GF(97), one whole ordering a call at
    # GF(127)), and in A blocks of several lane groups and of one, give the
    # same (best, first), the LIS oracle's
    fld = field_new(q)
    orders = [seeded_ordering(q, s) for s in (0, 1)]
    seen = kernel_calls(monkeypatch)
    runs, kinds = [], []
    for budget in (64 << 20, 1 << 20, 1 << 18, 1):
        monkeypatch.setattr(errors, "BLOCK_BYTES", budget)
        del seen[:]
        best, first = analyze._affine_lcs(fld, orders)
        runs.append((best.tolist(), first.tolist()))
        kinds.append(kernel_calls_by_shape(seen, q))
    assert runs[0] == runs[1] == runs[2] == runs[3]
    assert kinds == [{"many"}, {"many" if q == 97 else "one"}, {"range"}, {"range"}]
    assert {len(call.patterns) for call in seen} == {1}
    assert runs[0][0] == want == [affine_lis_oracle(EvaluationVector(fld, tuple(o))) for o in orders]


@pytest.mark.parametrize("q, want", [(97, (23, 645)), (127, (27, 7135)), (257, (37, 19238)), (509, (52, 68372))])
def test_affine_core_pins_the_seeded_ordering(q, want):
    # the seeded ordering s = 0: its code LCS and first maximal row
    (best,), (first,) = analyze._affine_lcs(field_new(q), [seeded_ordering(q, 0)])
    assert (int(best), int(first)) == want


def test_affine_core_stays_within_the_block_budget(monkeypatch):
    # the traced peak of a call, past its per-call tables (the q x q table x
    # - b, an ordering's q x q rows and the scan mask), stays within
    # errors.BLOCK_BYTES: blocks of 200 GF(11) and 8 GF(3^4) orderings, one
    # whole GF(127) ordering, and a GF(257) ordering in A blocks at two budgets
    cases = [(11, 200, 1 << 20), (81, 8, 1 << 20), (127, 1, 1 << 20), (257, 1, 1 << 20), (257, 1, 256 << 10)]
    for q, count, budget in cases:
        fld = field_from_order(q)
        orders = [seeded_ordering(q, s) for s in range(count)]
        monkeypatch.setattr(errors, "BLOCK_BYTES", budget)
        want = analyze._affine_lcs(fld, orders)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            got = analyze._affine_lcs(fld, orders)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        tables = 2 * q * q * np.min_scalar_type(q - 1).itemsize + (q + 1) // 2 * q
        assert peak <= budget + tables, (q, count, budget, peak)


def test_affine_runs_one_kernel_call_per_gf81_ordering(monkeypatch):
    fld = field_new(3, 4)
    seen = kernel_calls(monkeypatch)
    adds = []
    real_add = type(fld).v_add
    monkeypatch.setattr(type(fld), "v_add", lambda self, a, b: adds.append(1) or real_add(self, a, b))
    analyze.sample_orderings(fld, "0.5", 5, seed=3)
    # the 41 patterns A*alpha against the 81 rows alpha - B per ordering; the
    # q x q table x - b is the one v_add
    assert [(call.patterns.shape, call.rows.shape) for call in seen] == [((41, 81, 1), (81, 81))] * 5
    assert len(adds) == 5


@pytest.mark.parametrize("q", [256, 257])
def test_affine_on_both_sides_of_the_symbol_dtype_switch(q, monkeypatch):
    # a block of N orderings of GF(q') has rows over N * q' symbols: one
    # GF(256) ordering and 16 of GF(16) have 256, in uint8, one GF(257)
    # ordering and 17 of GF(16) more, in uint16; GF(256) and GF(257) run in
    # A blocks at the default budget
    dtype = np.dtype(np.uint8 if q == 256 else np.uint16)
    ev = orderings(q, 1, seed=q)[0]
    want = affine_kernel_reference(ev)
    seen = kernel_calls(monkeypatch)
    report = analyze.lcs_code_affine(ev)
    assert (report.lcs_of_code, report.witness["g"]) == want
    assert kernel_calls_by_shape(seen, q) == {"range"} and {call.rows.dtype for call in seen} == {dtype}
    count = 16 if q == 256 else 17
    evs = orderings(16, count - 2, seed=q)
    monkeypatch.setattr(errors, "BLOCK_BYTES", 64 << 20)
    del seen[:]
    best, first = analyze._affine_lcs(field_from_order(16), [ev.points for ev in evs])
    assert [(call.alphabet, call.rows.shape, call.rows.dtype) for call in seen] == [(16 * count, (16 * count, 16), dtype)]
    assert scan_rows(field_from_order(16), best, first) == [affine_kernel_reference(ev) for ev in evs]


def test_affine_guard_counts_the_scanned_symbols(monkeypatch):
    # the scan is (q + 1) // 2 patterns of q symbols against q rows of q, one
    # word-step per word of a pattern for each symbol
    for q in (3, 4, 5, 8, 9, 25, 32):
        a_vals, scan = analyze._affine_rows(field_from_order(q))
        assert len(a_vals) == (q + 1) // 2 and np.count_nonzero(scan) == (q * q - 1) // 2
    for q, work in ((587, 1_013_032_860), (1021, 8_522_997_616), (1024, 8_589_934_592)):
        assert work == (q + 1) // 2 * q * q * -(-q // 64)
        ev = EvaluationVector(field_from_order(q), tuple(range(q)))
        t0 = time.perf_counter()
        with pytest.raises(analyze.GuardExceeded, match=f"estimated work {work} exceeds the limit of 1000000000"):
            analyze.lcs_code_affine(ev)
        assert time.perf_counter() - t0 < 1.0

    class Admitted(Exception):
        pass

    def kernel(patterns, alphabet, rows):
        raise Admitted

    # q = 577 (962,164,810 word-steps) and GF(2^9) (536,870,912) pass the
    # guard and reach the kernel
    monkeypatch.setattr(analyze, "lcs_from_masks", kernel)
    for q in (577, 512):
        with pytest.raises(Admitted):
            analyze.lcs_code_affine(EvaluationVector(field_from_order(q), tuple(range(q))))


# -- the brute-force engine -------------------------------------------------------


def bruteforce_reference(code):
    """Port of the per-(f, c) scan: one scalar LCS of cf - c against each
    zero-constant codeword w, skipping w == cf - c; first maximum wins."""
    fld, k, n = code.field, code.k, code.n
    words = list(itertools.islice(codewords(code), fld.q ** (k - 1)))
    best, best_pair = -1, None
    for f, c in itertools.product(normalized_with_scaled_copies(fld, k), range(fld.q)):
        # f and every g0 have zero constant term, so the shifts set it
        shifted = poly.eval_on(fld, poly.trim((fld.neg(c), *f[1:])), code.ev.points)
        for g0, w in words:
            if w == shifted:
                continue
            val = lcs(shifted, w)
            if val > best:
                best, best_pair = val, (list(f), list(poly.trim((c, *g0[1:]))))
                if best == n - 1:
                    return best, best_pair
    return best, best_pair


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bruteforce_matches_reference(k):
    rng = random.Random(40 + k)
    for q in (5, 7, 8, 9, 11):
        fld = field_from_order(q)
        for _ in range(4):
            n = rng.randrange(k + 1, min(q, 2 * k + 3) + 1)
            code = RsCode(EvaluationVector(fld, tuple(rng.sample(range(q), n))), k)
            report = analyze.lcs_code_bruteforce(code)
            best, (f, g) = bruteforce_reference(code)
            assert (report.lcs_of_code, report.witness["f"], report.witness["g"]) == (best, f, g)


def test_bruteforce_rows_are_the_codewords(monkeypatch):
    # every pass reads one table: the q^(k-1) codewords of zero constant term,
    # column-major
    cases = [
        RsCode(EvaluationVector(field_new(7), (0, 1, 2, 3, 6, 4)), 3),
        # k = 1 over a full-length GF(97) ordering: one row of 97 zeros
        RsCode(EvaluationVector(field_new(97), tuple(range(97))), 1),
    ]
    seen = kernel_calls(monkeypatch)
    for code in cases:
        seen.clear()
        report = analyze.lcs_code_bruteforce(code)
        assert all(call.rows is seen[0].rows for call in seen)
        assert np.array_equal(seen[0].rows, [w for _, w in itertools.islice(codewords(code), code.q ** (code.k - 1))])
        assert seen[0].rows.flags.f_contiguous
        best, (f, g) = bruteforce_reference(code)
        assert (report.lcs_of_code, report.witness["f"], report.witness["g"]) == (best, f, g)
    assert report.lcs_of_code == 0 and report.witness["g"] == [1]


def shifted_patterns(code):
    """The brute force's pattern list: f - c for each normalized f, then
    each c, on the code's points."""
    fld = code.field
    return [
        list(poly.eval_on(fld, poly.trim((fld.neg(c), *f[1:])), code.ev.points))
        for f in analyze._normalized_polys(fld, code.k)
        for c in range(fld.q)
    ]


def bruteforce_budget(code, rows=None):
    """The least errors.BLOCK_BYTES at which the brute force measures one
    lane group against `rows` rows a call (every row when None), as
    lcs_code_bruteforce counts its memory: the word table, per row the
    kernel's column index and state and two ranges' lengths, and the lane
    group's symbols and tables.  Below it for every row, the rows come in
    blocks."""
    n, q = code.n, code.q
    words = analyze._codeword_table(code)
    lanes, alphabet = 64 // insdel.lane_bits(n), q if code.k > 1 else 2
    per_row = insdel.kernel_row_bytes(n, lanes) + 2 * lanes
    return words.nbytes + (len(words) if rows is None else rows) * per_row + lanes * 32 * n + 8 * alphabet * -(-n // 64)


# (q, points, the witness f's place in _normalized_polys, patterns of each
# pass under the budget of one lane group against every row)
LANE_CASES = [
    # a full scan of 19 * 17 patterns, whose first maximum, LCS 5, is f 9's
    (17, (7, 4, 5, 3, 14, 15, 9), 9, [8] * 40 + [3]),
    # n - 1 = 5 reached by pattern 13 * 16 + 2 of 288, in pass 26: the last nine never run
    (16, (13, 12, 0, 2, 9, 4), 13, [8] * 27),
]


@pytest.mark.parametrize("q, points, place, passes", LANE_CASES)
def test_bruteforce_walks_each_pass_in_order(q, points, place, passes, monkeypatch):
    fld = field_from_order(q)
    code = RsCode(EvaluationVector(fld, points), 3)
    monkeypatch.setattr(errors, "BLOCK_BYTES", bruteforce_budget(code))
    seen = kernel_calls(monkeypatch)
    report = analyze.lcs_code_bruteforce(code)
    best, (f, g) = bruteforce_reference(code)
    assert (report.lcs_of_code, report.witness["f"], report.witness["g"]) == (best, f, g)
    assert list(analyze._normalized_polys(fld, 3)).index(tuple(f)) == place
    assert [len(call.patterns) for call in seen] == passes
    assert all(len(call.rows) == q * q for call in seen)
    # pass i holds patterns 8i .. 8i + 7 of the f-major list
    patterns = shifted_patterns(code)
    for i, call in enumerate(seen):
        assert call.patterns.tolist() == patterns[8 * i : 8 * i + 8]


def test_bruteforce_packs_eight_polynomials_per_pass(monkeypatch):
    # GF(23), k = 3: 25 normalized f of length 6 give 575 patterns f - c, 8
    # to a lane group; every pass but the last holds whole lane groups
    code = RsCode(EvaluationVector(field_new(23), (3, 20, 17, 18, 0, 19)), 3)
    want = (4, {"f": [0, 1], "g": [0, 19, 16], "I": [3, 4, 5, 6], "J": [1, 2, 5, 6]})
    seen = kernel_calls(monkeypatch)
    for budget in (errors.BLOCK_BYTES, bruteforce_budget(code)):
        monkeypatch.setattr(errors, "BLOCK_BYTES", budget)
        seen.clear()
        report = analyze.lcs_code_bruteforce(code)
        assert (report.lcs_of_code, report.witness) == want
        passes = [len(call.patterns) for call in seen]
        assert sum(passes) == 575 and all(p % 8 == 0 for p in passes[:-1])
        assert all(len(call.rows) == 529 for call in seen)
    assert passes == [8] * 71 + [7]
    patterns = shifted_patterns(code)
    assert [call.patterns.tolist() for call in seen] == [patterns[i : i + 8] for i in range(0, 575, 8)]


def test_bruteforce_scan_stays_within_the_block_budget():
    cases = [
        # the 529 rows, the kernel's state and the lengths of whole lane groups
        (RsCode(EvaluationVector(field_new(23), (3, 20, 17, 18, 0, 19)), 3), 4),
        # 1021 rows of 3 symbols, and 2042 patterns whose tables have 1021 entries each
        (RsCode(EvaluationVector(field_new(1021), (0, 1, 2)), 2), 2),
        # 3,481 rows of 6 and 3,599 patterns: ranges of several lane groups
        (RsCode(EvaluationVector(field_new(59), (0, 1, 2, 5, 3, 4)), 3), 4),
        # 10,007 rows of 3: the floor, one lane group against every row, with
        # tables of 10,007 entries
        (RsCode(EvaluationVector(field_new(10007), (0, 1, 2)), 2), 2),
        # 39,601 and 38,809 rows of 4 and 5: one lane group against every row
        # exceeds the budget, so the rows come in blocks
        (RsCode(EvaluationVector(field_new(199), (0, 1, 2, 3)), 3), 3),
        (RsCode(EvaluationVector(field_new(197), (0, 1, 2, 3, 4)), 3), 4),
    ]
    for code, lcs_value in cases:
        analyze.lcs_code_bruteforce(code)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            report = analyze.lcs_code_bruteforce(code)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert report.lcs_of_code == lcs_value
        assert peak <= errors.BLOCK_BYTES


def test_bruteforce_chunk_size_does_not_change_results(monkeypatch):
    # GF(7), (5, 2, 6, 4, 1), k = 3: the witness, member 1 at c = 4, is
    # pattern 11 of 63, so under a 1-byte budget the scan stops after the
    # second of its eight passes, each one lane group against one row at a
    # time; below one lane group against every row the rows come in blocks
    codes = [
        RsCode(EvaluationVector(field_new(7), (5, 2, 6, 4, 1)), 3),
        RsCode(EvaluationVector(field_new(23), (3, 20, 17, 18, 0, 19)), 3),
        RsCode(EvaluationVector(field_new(97), tuple(range(97))), 1),
        RsCode(EvaluationVector(field_new(11), (10, 9, 0, 6)), 2),
    ] + [RsCode(EvaluationVector(field_from_order(q), points), 3) for q, points, _, _ in LANE_CASES]
    want = [analyze.lcs_code_bruteforce(code) for code in codes]
    for code, report in zip(codes, want):
        best, (f, g) = bruteforce_reference(code)
        assert (report.lcs_of_code, report.witness["f"], report.witness["g"]) == (best, f, g)
    for code, report in zip(codes, want):
        rows = code.q ** (code.k - 1)
        for budget in {bruteforce_budget(code), bruteforce_budget(code, rows - 1), bruteforce_budget(code, -(-rows // 3))}:
            monkeypatch.setattr(errors, "BLOCK_BYTES", budget)
            assert analyze.lcs_code_bruteforce(code) == report, (code.q, budget)
    for budget in (1, 300, 3000):
        monkeypatch.setattr(errors, "BLOCK_BYTES", budget)
        assert [analyze.lcs_code_bruteforce(code) for code in codes[::3]] == want[::3]
    monkeypatch.setattr(errors, "BLOCK_BYTES", 1)
    seen = kernel_calls(monkeypatch)
    analyze.lcs_code_bruteforce(codes[0])
    assert [len(call.patterns) for call in seen] == [8] * 98
    assert [len(call.rows) for call in seen] == [1] * 98


def test_bruteforce_pattern_alphabets_at_the_edges(monkeypatch):
    seen = kernel_calls(monkeypatch)
    # GF(2^8), k = 2: the rows hold all 256 symbols in uint8, so no pattern
    # symbol needs the extra code
    code = RsCode(EvaluationVector(field_from_order(256), (5, 77, 130, 201, 9)), 2)
    report = analyze.lcs_code_bruteforce(code)
    best, (f, g) = bruteforce_reference(code)
    assert (report.lcs_of_code, report.witness["f"], report.witness["g"]) == (best, f, g)
    assert {(call.alphabet, call.rows.dtype) for call in seen} == {(256, np.dtype(np.uint8))}
    # k = 1 over GF(65537), n = 3: the 65,537 constant patterns -c against
    # the one row 0, every nonzero symbol on the extra code 1
    seen.clear()
    t0 = time.perf_counter()
    report = analyze.lcs_code_bruteforce(RsCode(EvaluationVector(field_new(65537), (0, 1, 2)), 1))
    assert time.perf_counter() - t0 < 1.0
    assert (report.lcs_of_code, report.witness["f"], report.witness["g"]) == (0, [], [1])
    assert {call.alphabet for call in seen} == {2}
    assert sum(len(call.patterns) for call in seen) == 65537
    # k = 4 over GF(17), a seeded full-length ordering: 308 * 17 patterns
    # against 17^3 rows, pinned
    code = RsCode(EvaluationVector(field_new(17), tuple(seeded_ordering(17, 1))), 4)
    report = analyze.lcs_code_bruteforce(code)
    assert (report.lcs_of_code, report.witness["f"], report.witness["g"]) == (12, [0, 1, 3, 1], [0, 12, 7, 11])


# -- the kernel-work guard -------------------------------------------------------


def test_kernel_steps_count_the_bruteforce_passes(monkeypatch):
    # a full scan takes exactly kernel_steps(|family| * q, q^(k-1), n, n), its
    # patterns f - c against the zero-constant rows, at most the guard's
    # estimate of |family| patterns against all q^k codewords; a scan that
    # reaches n - 1 before its last pass takes fewer
    seen = kernel_calls(monkeypatch)
    full_scans = [
        RsCode(EvaluationVector(field_new(23), (3, 20, 17, 18, 0, 19)), 3),  # 575 patterns, 8 to a word
        RsCode(EvaluationVector(field_new(17), (7, 4, 5, 3, 14, 15, 9)), 3),
        RsCode(EvaluationVector(field_new(97), tuple(range(97))), 1),  # two words per row
        RsCode(EvaluationVector(field_new(67), analyze.random_ordering(67, analyze.SplitMix64(1))), 2),
        RsCode(EvaluationVector(field_new(7), (0, 1, 2, 5)), 2),
    ]
    early_stops = [
        RsCode(EvaluationVector(field_from_order(16), (13, 12, 0, 2, 9, 4)), 3),  # n - 1 in pass 26 of 36
        RsCode(EvaluationVector(field_new(7), tuple(range(7))), 2),
    ]
    # at one lane group a pass, against every row or (one byte less) in two
    # blocks of rows, GF(16) skips its last passes and GF(7) reaches n - 1 in
    # its last
    for less, want in ((None, [False, False]), (0, [True, False]), (1, [True, False])):
        skipped = []
        for code in full_scans + early_stops:
            budget = errors.BLOCK_BYTES if less is None else bruteforce_budget(code) - less
            monkeypatch.setattr(errors, "BLOCK_BYTES", budget)
            seen.clear()
            report = analyze.lcs_code_bruteforce(code, want_witness=False)
            family = analyze._family_size(code.q, code.k)
            exact = insdel.kernel_steps(family * code.q, code.q ** (code.k - 1), code.n, code.n)
            assert exact <= insdel.kernel_steps(family, code.q**code.k, code.n, code.n)
            assert (report.lcs_of_code < code.n - 1) == (code in full_scans)
            steps = sum(call.steps for call in seen)
            rows = code.q ** (code.k - 1)
            assert {len(call.rows) for call in seen} == ({rows} if less != 1 or rows == 1 else {rows - 1, 1})
            if code in full_scans:
                assert steps == exact
            else:
                assert steps <= exact
                skipped.append(steps < exact)
        assert skipped == want


@pytest.mark.parametrize("q", [11, 27, 81, 131])
def test_kernel_steps_count_the_affine_passes(q, monkeypatch):
    # the passes of one full scan add up to its estimate, in one call and
    # in blocks of one lane group of A values
    seen = kernel_calls(monkeypatch)
    patterns, lanes = (q + 1) // 2, 64 // insdel.lane_bits(q)
    estimate = insdel.kernel_steps(patterns, q, q, q)
    kinds = set()
    for budget, calls in ((errors.BLOCK_BYTES, 1), (1, -(-patterns // lanes))):
        monkeypatch.setattr(errors, "BLOCK_BYTES", budget)
        for ev in orderings(q, 2, seed=q):  # two random orderings, then two bad ones
            seen.clear()
            full = analyze.lcs_code_affine(ev, want_witness=False).lcs_of_code < q - 1
            steps = sum(call.steps for call in seen)
            assert (steps == estimate and len(seen) == calls) if full else steps <= estimate
            kinds.add(full)
    assert kinds == {True, False}


def test_family_size_counts_the_normalized_polys():
    for q in (2, 3, 4, 5, 7, 8, 9):
        fld = field_from_order(q)
        for k in range(1, 6):
            assert analyze._family_size(q, k) == len(list(analyze._normalized_polys(fld, k)))


def test_kernel_work_guard_boundary(monkeypatch):
    # each engine is refused one unit below its estimate, with a message
    # naming its work and unit, and runs at it
    code = RsCode(EvaluationVector(field_new(7), (0, 1, 2, 3, 6, 4)), 3)
    ev = EvaluationVector(field_new(11), analyze.random_ordering(11, analyze.SplitMix64(2)))
    ap6 = EvaluationVector(field_new(7), tuple(range(6)))
    runs = [
        # 9 patterns of 6, 8 to a word
        ("MAX_KERNEL_STEPS", -(-9 // 8) * 7**3 * 6, "kernel word-steps of the brute force of n=6, k=3 over GF(7)",
         lambda: analyze.lcs_code_bruteforce(code)),
        # 6 patterns of 11, 4 to a word, against 11 rows of 11
        ("MAX_KERNEL_STEPS", 2 * 11 * 11, "kernel word-steps of the affine scan of GF(11)",
         lambda: analyze.lcs_code_affine(ev)),
        ("MAX_KERNEL_STEPS", 3 * 2 * 11 * 11, "kernel word-steps of the affine scans of GF(11), trials=3",
         lambda: analyze.sample_orderings(ev.field, "0.5", 3, seed=1)),
        # all 3! classes of GF(5), 3 patterns in one word against 5 rows of 5 each
        ("MAX_KERNEL_STEPS", 6 * 5 * 5, "kernel word-steps of verifying 6 classes of GF(5)",
         lambda: analyze.census_2dim(field_new(5), verify="all")),
        # k(k+1)(2k-1)^3 at k = 3, before any pair is built
        ("MAX_OPS", 3 * 4 * 5**3, "field operations of the rank sweep at k=3",
         lambda: analyze.is_optimal_half_rate(ap6, 3)),
    ]
    for limit, estimate, what, run in runs:
        monkeypatch.setattr(errors, limit, estimate - 1)
        message = f"^{re.escape(what)}: estimated work {estimate} exceeds the limit of {estimate - 1}$"
        with pytest.raises(analyze.GuardExceeded, match=message):
            run()
        monkeypatch.setattr(errors, limit, estimate)
        run()
    with pytest.raises(TypeError):
        errors.check_work(2, 1)  # no message without its work named


def test_bruteforce_guard_counts_kernel_steps(monkeypatch):
    # k = 1 over all of GF(8191): one pattern against 8191 rows of 128 words,
    # refused before the codeword table is built
    code = RsCode(EvaluationVector(field_new(8191), tuple(range(8191))), 1)
    with monkeypatch.context() as m:
        m.setattr(analyze, "_codeword_table", None)
        t0 = time.perf_counter()
        with pytest.raises(analyze.GuardExceeded, match="estimated work 8587837568 exceeds the limit of 1000000000"):
            analyze.lcs_code_bruteforce(code)
        assert time.perf_counter() - t0 < 1.0

    class Admitted(Exception):
        pass

    def kernel(patterns, alphabet, rows):
        raise Admitted

    # k = 3 over all of GF(59), 739,159,021 word-steps, and k = 2 over all of
    # GF(139), the largest k >= 2 scan of the former 20,000-codeword limit, pass
    monkeypatch.setattr(analyze, "lcs_from_masks", kernel)
    for q, k, work in ((59, 3, 739_159_021), (139, 2, 16_113_714)):
        assert insdel.kernel_steps(analyze._family_size(q, k), q**k, q, q) == work
        with pytest.raises(Admitted):
            analyze.lcs_code_bruteforce(RsCode(EvaluationVector(field_new(q), tuple(range(q))), k))


@pytest.mark.parametrize("q", [7, 8, 9, 23])
def test_codeword_table_matches_codewords(q, monkeypatch):
    # the q^(k-1) codewords of zero constant term, column-major in uint8,
    # alike when built in one block and one row at a time
    fld = field_from_order(q)
    points = (3, 0, 5, 1, 6)
    for k in (1, 2, 3, 4):
        code = RsCode(EvaluationVector(fld, points), k)
        want = [w for _, w in itertools.islice(codewords(code), q ** (k - 1))]
        for budget in (1 << 20, 1):
            monkeypatch.setattr(errors, "BLOCK_BYTES", budget)
            table = analyze._codeword_table(code)
            assert table.dtype == np.uint8 and table.flags.f_contiguous
            assert np.array_equal(table, want)
    assert table[-1].tolist() == list(codeword(code, (0,) + (q - 1,) * 3))


def test_normalized_polys_drop_scaled_copies():
    fld = field_new(23)
    assert len(list(analyze._normalized_polys(fld, 3))) == 25
    assert len(list(normalized_with_scaled_copies(fld, 3))) == 46
    for q, k in ((5, 4), (9, 3), (8, 4)):
        fld = field_from_order(q)
        kept = list(analyze._normalized_polys(fld, k))
        seen = []
        for f in normalized_with_scaled_copies(fld, k):
            copies = {poly.trim(tuple(fld.mul(lam, c) for c in f)) for lam in range(2, q)}
            # kept exactly when no scaled copy was yielded before it
            assert (f in kept) == (not copies & set(seen))
            seen.append(f)


def test_sample_is_byte_identical_across_threads(capsys):
    outputs = []
    for threads in ("1", "2"):
        argv = ["sample", "--field", "49", "--delta", "0.5", "--trials", "6", "--seed", "11", "--threads", threads]
        code = cli.main(argv)
        outputs.append((code, capsys.readouterr()))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
