"""Tests for the rate-1/2 construction."""

import functools
import itertools
import json
import math
import random

import numpy as np
import pytest
from conftest import has_closed_form

from rsinsdel import analyze, cli, construct, errors, insdel, poly
from rsinsdel.errors import GuardExceeded, InvariantViolation
from rsinsdel.gf import field_new
from rsinsdel.rscode import EvaluationVector, RsCode

F7 = field_new(7)
F251 = field_new(251)


def test_min_field_size_values():
    assert construct.min_field_size(2) == 7
    assert construct.min_field_size(3) == 249
    assert construct.min_field_size(4) == 1363
    with pytest.raises(ValueError):
        construct.min_field_size(1)


def test_base_case_q7_lexicographic():
    # for a1 = 2 the excluded values are {0,1,2,4,3}, leaving 5
    assert construct.base_case(F7).points == (0, 1, 2, 5)


def test_base_case_small_fields_impossible():
    for fld in (field_new(2, 2), field_new(5)):
        with pytest.raises(construct.NoBaseCaseError):
            construct.base_case(fld)


def test_base_case_extension_fields():
    for fld in (field_new(2, 3), field_new(3, 2)):
        ev = construct.base_case(fld)
        assert analyze.is_optimal_half_rate(ev, 2).optimal


def test_extend_validates_input():
    with pytest.raises(ValueError):
        construct.extend(F251, (0, 1, 2, 5), 2)
    with pytest.raises(ValueError):
        construct.extend(F251, (0, 1, 2), 3)
    with pytest.raises(ValueError):
        construct.extend(F251, (0, 1, 2, 2), 3)


def test_extend_rejects_non_optimal_input():
    # (0,1,2,4) is not optimal (4 = 2^2), which must surface as a singular
    # stage system at an index pair where optimality forbids it; the message
    # names the first singular pair in sweep order
    with pytest.raises(construct.SingularSystemError) as err:
        construct.extend(F251, (0, 1, 2, 4), 3)
    assert str(err.value) == (
        "stage 3: singular system at index pair with distance 2 >= 1; "
        "the input vector (0, 1, 2, 4) cannot have been optimal"
    )


def pair_solutions(fld, points, i, i_seq, j_seq):
    """The stage solutions (u0, u1) of one index pair."""
    (solution,) = construct._stage_solutions(fld, points, i, [(i_seq, j_seq)])
    return solution


def reference_bad_set(fld, points, i, i_seq, j_seq, leads=None):
    """Set-based per-coefficient sweep: two eval_all calls and the five
    tail-shape loops for each leading coefficient in turn (every one of
    GF(q) unless `leads` names them)."""
    u0, u1 = pair_solutions(fld, points, i, i_seq, j_seq)
    bad = set()
    mid = i - 2
    for lead in range(fld.q) if leads is None else leads:
        u = tuple(fld.sub(a, fld.mul(lead, b)) for a, b in zip(u0, u1))
        gcoef = poly.trim(u[: mid + 1] + (lead,))
        fcoef = poly.trim((0,) + u[mid + 1 :] + (1,))
        if poly.degree(gcoef) < 1:
            continue
        f_vals = poly.eval_all(fld, fcoef)
        g_vals = poly.eval_all(fld, gcoef)
        xs_1 = np.flatnonzero(g_vals == f_vals[points[-1]])
        xs_3 = np.flatnonzero(f_vals == g_vals[points[-1]])
        bad |= {(x, y) for x in xs_1 for y in np.flatnonzero(g_vals == f_vals[x])}
        bad |= {(x, y) for x in xs_3 for y in np.flatnonzero(f_vals == g_vals[x])}
        if fcoef != gcoef:
            agree = np.flatnonzero(f_vals == g_vals)
            bad |= {(x, y) for x in (*xs_1, *xs_3, *agree) for y in agree}
    return {(int(x), int(y)) for x, y in bad}


def neg_inverses(fld):
    return fld.v_mul(fld.v_inv(np.arange(fld.q)), fld.neg(1))


def pair_bad_set(fld, points, i, u0, u1, neg_inv, pool=None):
    """One pair's whole bad set as sorted unique codes: the codes the sweep
    finds itself and the roots of its cross rows, both sides queued on a
    pool of its own (a poly.RootPool unless another is given), drained."""
    pool, cross = poly.RootPool(fld) if pool is None else pool, []
    codes = construct._stage_pair_bad_set(fld, points, i, u0, u1, neg_inv, cross)
    for x, rows in cross:
        pool.add(x, rows)
    return construct._sorted_unique(np.concatenate((codes, pool.split(drain=True))))


def swept_bad_set(fld, points, i, i_seq, j_seq):
    u0, u1 = pair_solutions(fld, points, i, i_seq, j_seq)
    codes = pair_bad_set(fld, points, i, u0, u1, neg_inverses(fld))
    return {divmod(int(c), fld.q) for c in codes}


def reference_pass(fld, points, i, i_seq, j_seq):
    """What one pair's pass must find: (I, J) over every lead and the
    reverse (J, I) at lead 0, each from its own system."""
    return reference_bad_set(fld, points, i, i_seq, j_seq) | reference_bad_set(fld, points, i, j_seq, i_seq, leads=(0,))


def system_rank(fld, points, i, i_seq, j_seq):
    """Rank of the stage system's matrix: build_V over (J, I) without its two
    top-degree columns, the I block negated (negation keeps the rank)."""
    v = insdel.build_V(fld, points, i, j_seq, i_seq)
    return poly.rank(fld, np.delete(v, [i - 1, 2 * i - 2], axis=1))


def stage_pairs(n, i):
    """The index pairs stage i sweeps over n points."""
    return list(insdel.index_pairs(n, n - 1, i - 2))


def omitted(n, seq):
    """The one index of 1..n that a length-(n-1) sequence leaves out."""
    return n * (n + 1) // 2 - sum(seq)


SWEEP_INPUTS = [
    (F251, (0, 1, 2, 5)),
    (field_new(3, 4), (0, 1, 2, 5)),
    (field_new(2, 8), (0, 1, 2, 5)),
    (field_new(5, 3), (0, 1, 2, 5)),
    (field_new(13), (0, 1, 2, 5, 3, 12)),
    (field_new(31), (0, 1, 2, 5, 3, 4)),
]


@pytest.mark.parametrize("fld, points", SWEEP_INPUTS, ids=str)
def test_block_sweep_matches_per_coefficient_reference(fld, points):
    i = len(points) // 2 + 1
    for i_seq, j_seq in stage_pairs(len(points), i):
        assert swept_bad_set(fld, points, i, i_seq, j_seq) == reference_pass(fld, points, i, i_seq, j_seq)


def test_closed_form_matches_reference_at_q1367():
    # stage 4 over GF(1367): one pair with f = g at lead 1, one without, and
    # every-lead first points in each
    fld, points = field_new(1367), (0, 1, 2, 5, 3, 4)
    for i_seq, j_seq in (((1, 2, 3, 5, 6), (1, 3, 4, 5, 6)), ((1, 2, 4, 5, 6), (1, 2, 3, 4, 5))):
        assert swept_bad_set(fld, points, 4, i_seq, j_seq) == reference_pass(fld, points, 4, i_seq, j_seq)


@pytest.mark.parametrize(
    "fld", [F251, field_new(1367), field_new(3, 4), field_new(2, 8), field_new(5, 3)], ids=str
)
def test_stacked_stage_solutions_match_per_pair_solves(fld):
    # every swept pair of stages 3 and 4, each right-hand side solved alone
    points = construct.base_case(fld).points
    for i in (3, 4):
        pairs = stage_pairs(len(points), i)
        stacked = construct._stage_solutions(fld, points, i, pairs)
        assert len(stacked) == len(pairs)
        for (i_seq, j_seq), (u0, u1) in zip(pairs, stacked):
            v = insdel.build_V(fld, points, i, j_seq, i_seq)
            rows = np.hstack((v[:, : i - 1], fld.v_mul(v[:, i:-1], fld.neg(1))))
            fixed, lead = (poly.solve_linear(fld, rows, v[:, col]) for col in (-1, i - 1))
            assert fixed.status == lead.status == "unique"
            assert (u0, u1) == (fixed.solution, lead.solution)
        if i == 3:
            points, _ = construct.extend(fld, points, i)


def sweep_branches(fld, points, i, i_seq, j_seq):
    """Which special cases of the closed-form sweep one index pair reaches:
    f = g at lead 1, and first points that hit at every lead for each of
    g(x) = f(a_last), f(x) = g(a_last) and f(x) = g(x).  Each condition is
    affine in the lead, so it holds at every lead iff at leads 0 and 1."""
    u0, u1 = pair_solutions(fld, points, i, i_seq, j_seq)
    mid, last = i - 2, points[-1]
    values = []
    for lead in (0, 1):
        u = tuple(fld.sub(a, fld.mul(lead, b)) for a, b in zip(u0, u1))
        g = poly.eval_all(fld, poly.trim(u[: mid + 1] + (lead,)))
        f = poly.eval_all(fld, poly.trim((0,) + u[mid + 1 :] + (1,)))
        values.append((g, f, g == f[last], f == g[last], f == g))
    (_, _, *at0), (g1, f1, *at1) = values
    names = ("every-lead g(x) = f(a_last)", "every-lead f(x) = g(a_last)", "every-lead agreement")
    branches = {name: bool((x0 & x1).any()) for name, x0, x1 in zip(names, at0, at1)}
    return {"lead 1 f = g": bool((f1 == g1).all()), **branches}


def test_reference_inputs_reach_every_branch():
    reached = {}
    for fld, points in SWEEP_INPUTS:
        i = len(points) // 2 + 1
        for ij in stage_pairs(len(points), i):
            for name, hit in sweep_branches(fld, points, i, *ij).items():
                reached[name] = reached.get(name, 0) + hit
    assert all(reached.values()), reached
    degenerate = [sweep_branches(F251, (0, 1, 2, 5), 3, *ij)["lead 1 f = g"] for ij in stage_pairs(4, 3)]
    assert sum(degenerate) == 6 and len(degenerate) == 12


def test_constant_g_side_skips_lead_zero(monkeypatch):
    # no real input has a constant g-side at lead 0, nor a constant f-side D
    # at the lead infinity (the reverse's g-side at its lead 0): force both
    # by zeroing the nonconstant g coefficients of u0 and the f-part of u1;
    # neither lead then adds a code, and lead infinity no cross row, so the
    # pass is (I, J)'s reference, which solves through the same function
    solve = construct._stage_solutions

    def constant_sides(fld, points, i, pairs):
        return [
            ((u0[0],) + (0,) * (i - 2) + tuple(u0[i - 1 :]), tuple(u1[: i - 1]) + (0,) * (i - 2))
            for u0, u1 in solve(fld, points, i, pairs)
        ]

    monkeypatch.setattr(construct, "_stage_solutions", constant_sides)
    for fld, points in SWEEP_INPUTS[:2] + SWEEP_INPUTS[-1:]:
        i, neg_inv = len(points) // 2 + 1, neg_inverses(fld)
        for i_seq, j_seq in stage_pairs(len(points), i):
            u0, u1 = pair_solutions(fld, points, i, i_seq, j_seq)
            assert poly.degree(poly.trim(u0[: i - 1])) < 1 and not any(u1[i - 1 :])
            cross = []
            construct._stage_pair_bad_set(fld, points, i, u0, u1, neg_inv, cross)
            assert len(cross) == 2  # the two sides over the leads of GF(q)
            assert swept_bad_set(fld, points, i, i_seq, j_seq) == reference_bad_set(fld, points, i, i_seq, j_seq)


def test_block_sweep_is_independent_of_block_size(monkeypatch):
    # stages 3 to 5 over GF(1367) and 3 and 4 over GF(3^4): budgets of a few
    # rows and (over GF(3^4)) of less than one row, one row per block, give
    # the default's codes on the first swept pair, from more blocks of the
    # root pool for each smaller budget, none above its budget; the cubic
    # rows of stage 4 over GF(1367) are all solved by the closed-form pass,
    # whose chunks obey the same rule with cubic_bytes
    split_round, solve_cubics, blocks, chunks = poly.split_round, poly._solve_cubics, [], []

    def counted(fld, rows, rounds):
        blocks.append(len(rows))
        return split_round(fld, rows, rounds)

    def chunked(fld, rows):
        chunks.append(len(rows))
        return solve_cubics(fld, rows)

    monkeypatch.setattr(poly, "split_round", counted)
    monkeypatch.setattr(poly, "_solve_cubics", chunked)
    for fld, stages in ((field_new(1367), (3, 4, 5)), (field_new(3, 4), (3, 4))):
        points, neg_inv = construct.base_case(fld).points, neg_inverses(fld)
        for i in stages:
            solutions = construct._stage_solutions(fld, points, i, stage_pairs(len(points), i))[:1]
            cubic = i == 4 and fld.p > 3
            per_row = poly.cubic_bytes(i) if cubic else poly.split_bytes(i)
            counts, full = [], None
            for budget in (errors.BLOCK_BYTES, 3 * per_row) + ((1,) if fld.q < 1367 else ()):
                with monkeypatch.context() as m:
                    m.setattr(errors, "BLOCK_BYTES", budget)
                    blocks.clear()
                    chunks.clear()
                    got = [pair_bad_set(fld, points, i, *uu, neg_inv) for uu in solutions]
                full = got if full is None else full
                assert all(np.array_equal(a, b) for a, b in zip(got, full))
                seen = chunks if cubic else blocks
                assert max(seen) <= max(1, budget // per_row)
                counts.append(len(seen))
            assert counts == sorted(set(counts)), counts  # more blocks for each smaller budget
            if i < stages[-1]:
                points, _ = construct.extend(fld, points, i)


def reference_stage(fld, points, i):
    """Stage i with every ordered pair swept over every lead, its rows
    queued and its pool drained.  Returns the bad set as sorted codes and
    the least fresh distinct pair outside it (None when there is none)."""
    neg_inv = neg_inverses(fld)
    solutions = construct._stage_solutions(fld, points, i, stage_pairs(len(points), i))
    bad = np.unique(np.concatenate([pair_bad_set(fld, points, i, *uu, neg_inv) for uu in solutions]))
    taken, q = set(bad.tolist()), fld.q
    fresh = [v for v in range(q) if v not in points]
    pair = next(((x, y) for x in fresh for y in fresh if y != x and x * q + y not in taken), None)
    return bad, pair


@pytest.mark.parametrize(
    "fld, k",
    [(F251, 5), (field_new(3, 4), 4), (field_new(5, 3), 4), (field_new(2, 8), 4), (field_new(13), 4), (F7, 3)],
    ids=str,
)
def test_dropped_cross_rows_change_no_stage(fld, k, monkeypatch):
    # extend sweeps each unordered pair once, leaving out the reverse's
    # cross rows at every lead but 0; per stage its bad set (the last
    # merge) and chosen pair equal those of the sweep of every directed pair
    # over every lead (over GF(7) the bad set exhausts GF(7)^2 at stage 3
    # in both)
    merged, sorted_unique = [], construct._sorted_unique
    monkeypatch.setattr(construct, "_sorted_unique", lambda *args: merged.append(sorted_unique(*args)) or merged[-1])
    points = construct.base_case(fld).points
    for i in range(3, k + 1):
        bad, pair = reference_stage(fld, points, i)
        if pair is None:
            with pytest.raises(construct.NoGoodPairError):
                construct.extend(fld, points, i)
            assert np.array_equal(merged[-1], bad) and len(bad) == fld.q**2
            return
        points, count = construct.extend(fld, points, i)
        assert np.array_equal(merged[-1], bad) and count == len(bad), (fld, i)
        assert points[-2:] == pair, (fld, i)
    assert fld.q > 7


@pytest.mark.parametrize("fld, points", SWEEP_INPUTS, ids=str)
def test_forward_sweep_and_reverse_lead_zero_cover_both_directions(fld, points):
    # each ordered pair's pass, over every lead of GF(q) and infinity, finds
    # the near-collisions of both directions over every lead, each solved
    # from its own system, so the passes of (I, J) and (J, I) agree
    i = len(points) // 2 + 1
    for i_seq, j_seq in stage_pairs(len(points), i):
        both = reference_bad_set(fld, points, i, i_seq, j_seq) | reference_bad_set(fld, points, i, j_seq, i_seq)
        assert swept_bad_set(fld, points, i, i_seq, j_seq) == both


def test_reverse_lead_zero_is_not_covered_by_the_forward_sweep():
    # the reverse's lead 0 has a g-side of degree below i - 1, (I, J)'s
    # f-side, which no lead of GF(q) can give: on every input some pair's pass
    # holds pairs that (I, J)'s reference lacks, all of them the reverse's
    # at lead 0, so dropping the lead infinity changes the union
    for fld, points in SWEEP_INPUTS:
        i = len(points) // 2 + 1
        fresh = []
        for i_seq, j_seq in stage_pairs(len(points), i):
            if i_seq < j_seq:
                extra = swept_bad_set(fld, points, i, i_seq, j_seq) - reference_bad_set(fld, points, i, i_seq, j_seq)
                assert extra <= reference_bad_set(fld, points, i, j_seq, i_seq, leads=(0,))
                fresh.append(extra)
        assert any(fresh), (fld, points)


@pytest.mark.parametrize("fld", [F251, field_new(1367), field_new(3, 4), field_new(2, 8), field_new(5, 3)], ids=str)
def test_reverse_lead_zero_is_the_forward_pencil_at_infinity(fld):
    # every unordered pair of stages 3 to 5: the reverse's own lead-0
    # solution u0 is the forward's pencil at infinity, (B, D) shifted by
    # -B(0), read off the forward's u1
    points = construct.base_case(fld).points
    for i in (3, 4, 5):
        mid = i - 2
        pairs = stage_pairs(len(points), i)
        solutions = dict(zip(pairs, construct._stage_solutions(fld, points, i, pairs)))
        for (i_seq, j_seq), (_, u1) in solutions.items():
            if i_seq < j_seq:
                neg = [fld.neg(c) for c in u1]
                assert solutions[j_seq, i_seq][0] == (u1[0], *neg[mid + 1 :], *neg[1 : mid + 1]), (i, i_seq, j_seq)
        if i < 5:
            points, _ = construct.extend(fld, points, i)


def test_extend_sweeps_each_unordered_pair_once(monkeypatch):
    # stage i solves and sweeps each unordered pair once, as (I, J) with
    # I < J, not each ordered pair
    calls, solved = {}, {}
    sweep, solve = construct._stage_pair_bad_set, construct._stage_solutions

    def counted(fld_, points, i, *rest):
        calls[i] = calls.get(i, 0) + 1
        return sweep(fld_, points, i, *rest)

    def solve_counted(fld_, points, i, pairs):
        assert all(i_seq < j_seq for i_seq, j_seq in pairs)
        solved[i] = solved.get(i, 0) + len(pairs)
        return solve(fld_, points, i, pairs)

    monkeypatch.setattr(construct, "_stage_pair_bad_set", counted)
    monkeypatch.setattr(construct, "_stage_solutions", solve_counted)
    construct.construct_half_rate(F251, 5, verify_mode="none", allow_small_q=True)
    for i in (3, 4, 5):
        assert construct.swept_pair_count(i) == calls[i] == solved[i]
    assert [calls[i] for i in (3, 4, 5)] == [solved[i] for i in (3, 4, 5)] == [6, 10, 15]


def product_row(fld, roots, cofactor):
    """Coefficients, low first, of cofactor times the product of (y - r)
    over roots, by scalar field operations."""
    coeffs = list(cofactor)
    for r in roots:
        shifted = [0] + coeffs
        coeffs = [fld.sub(s, fld.mul(r, c)) for s, c in zip(shifted, coeffs + [0])]
    return coeffs


@pytest.mark.parametrize("p, m", [(1367, 1), (2, 8), (3, 4), (65537, 1)])
def test_root_pool_is_independent_of_block_size(p, m, monkeypatch):
    # rows of degree 3 to 5 with known roots (a double one, five that the
    # first round leaves together), a zero row and a constant, added in
    # ragged batches with a split after each: every budget, from one row per
    # block to blocks with a ragged end, gives the roots of a full scan, from
    # blocks none above its budget; an empty pool gives none
    fld, width = field_new(p, m), 6
    rng = random.Random(fld.q)
    r = lambda: rng.randrange(fld.q)
    if fld.p == 2:  # elements of trace 0
        trace = lambda x: functools.reduce(fld.add, [fld.pow(x, fld.p**j) for j in range(fld.m)])
        together = [x for x in range(fld.q) if trace(x) == 0][:5]
    else:  # nonzero squares
        together = sorted({fld.mul(x, x) for x in range(1, 40)})[:5]
    rows = [product_row(fld, together, [1]), product_row(fld, [1, 1, 2], [r(), r(), 1]), [0] * width, [r() or 1]]
    for _ in range(56):
        d = rng.randrange(3, width)
        k = rng.randrange(d + 1)
        rows.append(product_row(fld, [r() for _ in range(k)], [r() for _ in range(d - k)] + [rng.randrange(1, fld.q)]))
    rows = np.array([row + [0] * (width - len(row)) for row in rows], dtype=np.int64)
    xs = 7 * np.arange(len(rows)) + 3
    hit, y = np.nonzero(poly.eval_all(fld, rows) == 0)
    expected = np.sort(xs[hit] * fld.q + y)
    split_round, blocks, rounds_seen = poly.split_round, [], []

    def counted(fld_, rows_, rounds):
        blocks.append(len(rows_))
        rounds_seen.append(int(rounds.max(initial=0)))
        return split_round(fld_, rows_, rounds)

    monkeypatch.setattr(poly, "split_round", counted)
    for budget in (errors.BLOCK_BYTES, 1, 2 * poly.split_bytes(width), 7 * poly.split_bytes(width)):
        monkeypatch.setattr(errors, "BLOCK_BYTES", budget)
        pool, codes, blocks[:] = poly.RootPool(fld), [], []
        for start in range(0, len(rows), 13):
            pool.add(xs[start : start + 13], rows[start : start + 13])
            codes.append(pool.split())
        codes.append(pool.split(drain=True))
        assert np.array_equal(np.sort(np.concatenate(codes)), expected), budget
        assert pool.size == 0 and max(blocks) <= max(1, budget // poly.split_bytes(width))
        assert budget == errors.BLOCK_BYTES or len(blocks) > len(rows) // 7
    assert max(rounds_seen) >= 1  # the five together need a second round
    assert poly.RootPool(fld).split(drain=True).shape == (0,)


def reduced_matcher(fld, calls):
    """The cross-second-point row test as the sweep once ran it, a scan of
    every y: rows a*b + c reduced with % p (uint32 where p(p - 1) < 2^32,
    int64 above), then compared with their targets."""

    def matcher(b, c):
        def match(a, t):
            a, t = np.asarray(a)[:, None], np.asarray(t)[:, None]
            calls.append(a.size * len(b))
            if fld.m > 1:
                return np.nonzero(fld.v_add(fld.v_mul(a, b), c) == t)
            dtype = np.uint32 if fld.p * (fld.p - 1) < 1 << 32 else np.int64
            return np.nonzero((np.asarray(a, dtype) * np.asarray(b, dtype) + np.asarray(c, dtype)) % fld.p == t)

        return match

    return matcher


class ScanPool:
    """The root pool as the sweep ran before the splitter: every cross row
    a + lead*b - target tested at every y by `matcher` on the values of a
    and b over GF(q).  Needs poly.pencil_rows patched to hand over the
    pencil itself (scan_pencils)."""

    def __init__(self, fld, matcher):
        self.fld, self.matcher, self.codes = fld, matcher, [np.empty(0, np.int64)]

    def add(self, xs, pencil):
        a, b, lead, target = pencil
        va, vb = (poly.eval_all(self.fld, c or (0,)) for c in (a, b))
        hit, y = self.matcher(vb, va)(lead, target)
        self.codes.append(xs[hit] * self.fld.q + y)

    def split(self, drain=False):
        codes, self.codes = np.concatenate(self.codes), [np.empty(0, np.int64)]
        return codes


def scan_pencils(monkeypatch):
    monkeypatch.setattr(poly, "pencil_rows", lambda fld, a, b, lead, target: (a, b, lead, target))


@pytest.mark.parametrize("fld, stages", [(F251, (3, 4)), (field_new(1367), (3, 4)), (field_new(3, 4), (3,))], ids=str)
def test_division_free_rows_match_reduced_rows(fld, stages, monkeypatch):
    # every cross row of the swept pairs, of every degree, through the root
    # pool (closed form and splitter) against the reduced row test above
    points, neg_inv = construct.base_case(fld).points, neg_inverses(fld)
    for i in stages:
        pairs = stage_pairs(len(points), i)
        solutions = construct._stage_solutions(fld, points, i, pairs)
        swept = [pair_bad_set(fld, points, i, *uu, neg_inv) for uu in solutions]
        calls = []
        with monkeypatch.context() as m:
            scan_pencils(m)
            reduced = [pair_bad_set(fld, points, i, *uu, neg_inv, ScanPool(fld, reduced_matcher(fld, calls))) for uu in solutions]
        assert sum(calls) >= len(pairs) * fld.q  # the cross rows ran through the port
        for ij, new, old in zip(pairs, swept, reduced):
            assert new.dtype == old.dtype and np.array_equal(new, old), ij
        if i < stages[-1]:
            points, _ = construct.extend(fld, points, i)


@pytest.mark.parametrize("fld", [field_new(1367), field_new(3, 4), field_new(2, 8), field_new(5, 3)], ids=str)
def test_closed_form_rows_match_the_row_scan(fld, monkeypatch):
    # every swept pair of stages 3 and 4 (and 5 over GF(1367)) against the
    # sweep that tests every cross row at every y; the splitter sees no
    # stage-3 row (all are of degree <= 2), no stage-4 row when p > 3 (all
    # are cubic), and from then on the rows of degree 3 or more
    points, neg_inv = construct.base_case(fld).points, neg_inverses(fld)
    stages = (3, 4, 5) if fld.q == 1367 else (3, 4)
    split = poly._split
    for i in stages:
        pairs = stage_pairs(len(points), i)
        solutions = construct._stage_solutions(fld, points, i, pairs)
        split_rows = []
        with monkeypatch.context() as m:
            m.setattr(poly, "_split", lambda fld_, low, rounds: split_rows.append(len(rounds)) or split(fld_, low, rounds))
            swept = [pair_bad_set(fld, points, i, *uu, neg_inv) for uu in solutions]
        with monkeypatch.context() as m:
            scan_pencils(m)
            scanned = [pair_bad_set(fld, points, i, *uu, neg_inv, ScanPool(fld, reduced_matcher(fld, []))) for uu in solutions]
        for ij, new, old in zip(pairs, swept, scanned):
            assert np.array_equal(new, old), ij
        assert (sum(split_rows) == 0) == (i == 3 or (i == 4 and fld.p > 3)), sum(split_rows)
        if i < stages[-1]:
            points, _ = construct.extend(fld, points, i)


def test_block_sweep_singular_branch():
    # (0,1,2,4) is not optimal: some index pair must raise, and every pair
    # that does not agrees with the reference
    raised = 0
    for i_seq, j_seq in stage_pairs(4, 3):
        try:
            swept = swept_bad_set(F251, (0, 1, 2, 4), 3, i_seq, j_seq)
        except construct.SingularSystemError:
            raised += 1
            continue
        assert swept == reference_pass(F251, (0, 1, 2, 4), 3, i_seq, j_seq)
    assert raised > 0


def test_stage_pairs_keep_every_distinct_pair_at_stage_3():
    seqs = list(itertools.combinations(range(1, 5), 3))
    assert stage_pairs(4, 3) == [(a, b) for a in seqs for b in seqs if a != b]
    assert len(stage_pairs(6, 4)) == 20  # the 10 ordered pairs at distance 1 are skipped
    # omitting s_i and s_j puts the sequences at distance |s_j - s_i|
    for i_seq, j_seq in stage_pairs(6, 4):
        assert insdel.hamming_increasing(i_seq, j_seq) == abs(omitted(6, j_seq) - omitted(6, i_seq)) >= 2


@pytest.mark.parametrize("fld", [field_new(13), field_new(1367), field_new(3, 4), field_new(2, 8)], ids=str)
def test_pairs_below_the_distance_threshold_are_singular(fld):
    # rows at the positions where I and J agree span at most i - 1
    # dimensions, so rank <= (i - 1) + d_H(I, J) < 2i - 3 unknowns
    rng = random.Random(fld.q)
    for i in (4, 5, 6):
        n = 2 * i - 2
        skipped = set(insdel.index_pairs(n, n - 1, 0)) - set(stage_pairs(n, i))
        distance = {ij: insdel.hamming_increasing(*ij) for ij in skipped}
        assert set(distance.values()) == set(range(i - 2))
        for _ in range(10):
            points = tuple(rng.sample(range(fld.q), n))
            for ij in skipped:
                assert system_rank(fld, points, i, *ij) <= i - 1 + distance[ij] < 2 * i - 3


def test_singular_swept_pair_raises():
    # random length-6 point sets over GF(13) are rarely optimal, so some
    # swept pairs are singular; each one, and extend, must raise; the
    # reverse's matrix is the forward's with columns negated and permuted,
    # so (I, J) is singular exactly when (J, I) is
    fld = field_new(13)
    rng = random.Random(6)
    singular = 0
    for _ in range(5):
        points = tuple(rng.sample(range(fld.q), 6))
        hits = [ij for ij in stage_pairs(6, 4) if system_rank(fld, points, 4, *ij) < 5]
        assert {(j_seq, i_seq) for i_seq, j_seq in hits} == set(hits)
        for i_seq, j_seq in hits:
            distance = abs(omitted(6, j_seq) - omitted(6, i_seq))
            with pytest.raises(construct.SingularSystemError, match=f"distance {distance} >= 2"):
                pair_solutions(fld, points, 4, i_seq, j_seq)
        if hits:
            # the stacked solve names the first singular pair in sweep order
            first = abs(omitted(6, hits[0][1]) - omitted(6, hits[0][0]))
            with pytest.raises(construct.SingularSystemError, match=f"distance {first} >= 2"):
                construct.extend(fld, points, 4)
        singular += len(hits)
    assert singular > 0


def test_extend_picks_least_fresh_distinct_pair(monkeypatch):
    q = F251.q
    monkeypatch.setattr(construct, "_stage_pair_bad_set", lambda *args: np.array([3 * q + 4]))
    assert construct.extend(F251, (0, 1, 2, 5), 3) == ((0, 1, 2, 5, 3, 6), 1)
    # row 3 is free only at y = 3, which repeats x
    row3 = np.array([3 * q + y for y in range(q) if y != 3])
    monkeypatch.setattr(construct, "_stage_pair_bad_set", lambda *args: row3)
    assert construct.extend(F251, (0, 1, 2, 5), 3) == ((0, 1, 2, 5, 4, 3), q - 1)


def test_extend_produces_verified_stage():
    points, bad_count = construct.extend(F251, (0, 1, 2, 5), 3)
    assert len(points) == 6 and len(set(points)) == 6
    assert analyze.is_optimal_half_rate(EvaluationVector(F251, points), 3).optimal
    ceiling = math.comb(4, 2) * 5 * 4 * 251
    assert 0 < bad_count <= ceiling


def test_extend_thread_invariance():
    a = construct.extend(F251, (0, 1, 2, 5), 3)
    b = construct.extend(F251, (0, 1, 2, 5), 3)
    assert a == b


def test_construct_k2():
    trace = construct.construct_half_rate(F7, 2)
    assert trace.alpha.points == (0, 1, 2, 5)
    assert trace.stages[0].verification == "exact_optimal"


def test_construct_k3_exact_and_deterministic():
    t1 = construct.construct_half_rate(F251, 3, verify_mode="exact")
    t2 = construct.construct_half_rate(F251, 3, verify_mode="exact")
    assert t1 == t2
    assert analyze.is_optimal_half_rate(t1.alpha, 3).optimal
    assert [s.i for s in t1.stages] == [2, 3]


def test_construct_restricted_sweep_also_verifies():
    # stage 4 over GF(251) sweeps only the pairs at distance >= 2; every
    # other ordered pair is singular and adds nothing to the bad set
    t = construct.construct_half_rate(F251, 4, verify_mode="certificate", allow_small_q=True)
    assert all(s.verification == "rank_certified" for s in t.stages)
    points = t.alpha.points[:6]
    full = set()
    for i_seq, j_seq in insdel.index_pairs(6, 5, 1):
        if system_rank(F251, points, 4, i_seq, j_seq) == 5:
            full |= swept_bad_set(F251, points, 4, i_seq, j_seq)
    assert len(full) == t.stages[2].bad_pair_count


def test_construct_certificate_mode():
    t = construct.construct_half_rate(F251, 3, verify_mode="certificate")
    assert all(s.verification == "rank_certified" for s in t.stages)
    cert = insdel.rank_certificate(RsCode(t.alpha, 3), 1)
    assert cert.certified


def test_construct_none_mode_skips_verification():
    t = construct.construct_half_rate(F251, 3, verify_mode="none")
    assert all(s.verification == "skipped" for s in t.stages)
    # still verifiable after the fact
    assert analyze.is_optimal_half_rate(t.alpha, 3).optimal


def test_construct_small_q_guard_and_override():
    with pytest.raises(ValueError):
        construct.construct_half_rate(F7, 3)
    with pytest.raises(construct.NoGoodPairError):
        construct.construct_half_rate(F7, 3, allow_small_q=True)


def test_stage_work_guard_admits_guaranteed_sizes_up_to_k6():
    for q, k in ((1367, 4), (1399, 4), (construct.min_field_size(5), 5), (construct.min_field_size(6), 6)):
        assert construct.stage_work(q, k) <= errors.MAX_STAGE_OPS
    assert construct.stage_work(construct.min_field_size(7), 7) > errors.MAX_STAGE_OPS
    # 6 and 10 unordered pairs at 1367 * (8 * 11 + 2i + 3): for q prime to
    # 6 the cubic rows of stage 4 take one unit, and over GF(3^4) 3 * 9 * 7
    assert construct.stage_work(1367, 4) == 6 * 1367 * 97 + 10 * 1367 * 99 == 2148924
    assert construct.stage_work(81, 4) == 6 * 81 * (8 * 7 + 6 + 3) + 10 * 81 * (8 * 7 + 8 + 3 * 9 * 7) == 236520
    assert construct.stage_work(7, 2) == 0
    # k = 6 is admitted up to q = 45511 for q prime to 6 and up to q = 41466
    # for the others, and k = 3 up to q = 1883239
    assert construct.stage_work(45511, 6) <= errors.MAX_STAGE_OPS < construct.stage_work(45515, 6)
    assert construct.stage_work(41466, 6) <= errors.MAX_STAGE_OPS < construct.stage_work(41468, 6)
    assert construct.stage_work(1883239, 3) <= errors.MAX_STAGE_OPS < construct.stage_work(1883240, 3)


def test_swept_pair_count_counts_the_swept_pairs():
    for i in range(3, 9):
        n = 2 * i - 2
        assert construct.swept_pair_count(i) == sum(i_seq < j_seq for i_seq, j_seq in stage_pairs(n, i))


def test_stage_work_charges_half_the_ordered_pairs():
    # the estimate per stage is half the ordered pairs times the per-pair
    # units at every (q, k), so no guard boundary moves
    for q in (7, 8, 81, 251, 256, 1367, 1381, 4507, 11273, 23789, 65537):
        bits, closed = max(1, (q - 1).bit_length()), 4 if math.gcd(q, 6) == 1 else 3
        for k in range(3, 9):
            units = [8 * bits + 2 * i + 3 * ((i - 1) ** 2 * bits if i > closed else 1) for i in range(3, k + 1)]
            ordered = [len(stage_pairs(2 * i - 2, i)) for i in range(3, k + 1)]
            assert construct.stage_work(q, k) == sum(n // 2 * q * u for n, u in zip(ordered, units)), (q, k)


def test_stage_work_bounds_the_counted_work(monkeypatch):
    # the units the sweep spends, counted as stage_work charges them: 8b per
    # first point of each pass over the leads of GF(q), 2i per first point
    # at its lead infinity; per row reaching the root pool d^2 b for
    # degree d >= 3, but 1 for a row of degree <= 2 or a cubic with a
    # closed form (has_closed_form: every cubic when p > 3); and d^2 b per
    # piece of a later round; the estimate is at least that and within
    # twice it
    for q, k in ((251, 4), (251, 5), (field_new(3, 4).q, 4), (1367, 4), (1381, 4)):
        fld = field_new(*{81: (3, 4)}.get(q, (q,)))
        bits, counted = max(1, (q - 1).bit_length()), {}
        pair_bad_set_, add_, split_round = construct._stage_pair_bad_set, poly.RootPool.add, poly.split_round

        def pair(fld_, points, i, *rest):
            counted[i] = counted.get(i, 0) + 8 * bits * q + 2 * i * q
            return pair_bad_set_(fld_, points, i, *rest)

        def charge(i, rows):
            degree = np.array([poly.degree(poly.trim(row)) for row in rows])
            counted[i] = counted.get(i, 0) + int(np.where(degree >= 3, degree**2 * bits, 1).sum())

        def add(pool, tags, rows, rounds=None):
            if rounds is None:
                coeffs = [poly.trim(row) for row in rows.tolist()]
                charge(rows.shape[1], [c for c in coeffs if not has_closed_form(fld, c)])
                counted[rows.shape[1]] += sum(has_closed_form(fld, c) for c in coeffs)
            return add_(pool, tags, rows, rounds)

        def split(fld_, rows, rounds):
            charge(rows.shape[1], rows[rounds > 0].tolist())
            return split_round(fld_, rows, rounds)

        points = construct.base_case(fld).points
        with monkeypatch.context() as m:
            m.setattr(construct, "_stage_pair_bad_set", pair)
            m.setattr(poly.RootPool, "add", add)
            m.setattr(poly, "split_round", split)
            for i in range(3, k + 1):
                points, _ = construct.extend(fld, points, i)
        for i in range(3, k + 1):
            estimate = construct.stage_work(q, i) - construct.stage_work(q, i - 1)
            assert counted[i] <= estimate <= 2 * counted[i], (q, i, counted[i], estimate)


def test_stage_work_guard_refuses_before_any_work(monkeypatch):
    monkeypatch.setattr(errors, "MAX_STAGE_OPS", construct.stage_work(251, 3) - 1)
    monkeypatch.setattr(construct, "extend", None)  # never reached
    message = r"^element operations of stages 3\.\.3 at q=251: estimated work 109938 exceeds the limit of 109937$"
    with pytest.raises(GuardExceeded, match=message):
        construct.construct_half_rate(F251, 3)
    monkeypatch.undo()
    monkeypatch.setattr(errors, "MAX_STAGE_OPS", construct.stage_work(251, 3))
    t = construct.construct_half_rate(F251, 3, verify_mode="none")
    assert t.alpha.points == (0, 1, 2, 5, 3, 4)


def test_construct_small_q_can_succeed_between_bounds():
    # q = 13 is far below the stage-3 guarantee (249), but the bad set may
    # still leave room; either outcome is legitimate, a success must verify
    fld = field_new(13)
    try:
        t = construct.construct_half_rate(fld, 3, allow_small_q=True)
    except construct.NoGoodPairError:
        return
    assert analyze.is_optimal_half_rate(t.alpha, 3).optimal


def test_bad_set_stays_under_ceiling_k3():
    t = construct.construct_half_rate(F251, 3, verify_mode="none")
    stage3 = t.stages[1]
    assert stage3.bad_pair_count <= math.comb(4, 2) * 5 * 4 * 251


def test_extend_refuses_a_bad_set_above_its_ceiling(monkeypatch):
    # every code of GF(251)^2 is far above the stage-3 ceiling C(4,2) * 5 * 2^2 * 251
    everything = np.arange(F251.q**2, dtype=np.int64)
    monkeypatch.setattr(construct, "_stage_pair_bad_set", lambda *args: everything)
    with pytest.raises(InvariantViolation, match=r"^stage 3: bad set has 63001 pairs, above the ceiling 30120$"):
        construct.extend(F251, (0, 1, 2, 5), 3)


def test_every_verify_mode_checks_what_extend_returns(monkeypatch, capsys):
    # (0, 1, 2, 5, 3, 34) is not optimal over GF(251): both checks refuse it
    bad = (0, 1, 2, 5, 3, 34)
    assert not analyze.is_optimal_half_rate(EvaluationVector(F251, bad), 3).optimal
    monkeypatch.setattr(construct, "extend", lambda fld, points, i: (bad, 0))
    with pytest.raises(InvariantViolation, match="failed the exact optimality check"):
        construct.construct_half_rate(F251, 3)
    with pytest.raises(InvariantViolation, match="failed the rank certificate"):
        construct.construct_half_rate(F251, 3, verify_mode="certificate")
    t = construct.construct_half_rate(F251, 3, verify_mode="none")
    assert [s.verification for s in t.stages] == ["skipped", "skipped"]
    assert t.alpha.points == bad and t.stages[1].chosen_pair == (3, 34)
    assert cli.main(["construct", "--field", "251", "--k", "3"]) == cli.EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "InvariantViolation" and "failed the exact optimality check" in error["message"]


def test_exact_verification_names_the_collision_of_a_late_stage(monkeypatch, capsys):
    # stage 3 runs the real extend; stage 4 returns range(8), which is not
    # optimal over GF(1367): the exact check names its collision (exit 4)
    # instead of refusing the scan of its 1367^2 family members (exit 3)
    real = construct.extend
    monkeypatch.setattr(construct, "extend", lambda fld, points, i: real(fld, points, i) if i == 3 else (tuple(range(8)), 0))
    assert cli.main(["construct", "--field", "1367", "--k", "4", "--verify", "exact"]) == cli.EXIT_INVARIANT
    captured = capsys.readouterr()
    error = json.loads(captured.err)["error"]
    assert captured.out == "" and error["type"] == "InvariantViolation"
    assert error["message"] == (
        "stage 4 output (0, 1, 2, 3, 4, 5, 6, 7) failed the exact optimality check: witness "
        "{'f': [0, 0, 1], 'g': [1, 1365, 1], 'I': [1, 2, 3, 4, 5, 6, 7], 'J': [2, 3, 4, 5, 6, 7, 8]}"
    )


def test_unknown_verify_mode_is_refused_before_any_work(monkeypatch):
    def never(fld):
        raise AssertionError("the base case ran")

    monkeypatch.setattr(construct, "base_case", never)
    with pytest.raises(ValueError, match="unknown verify mode 'bogus'"):
        construct.construct_half_rate(F7, 2, verify_mode="bogus")


def test_trace_serialization_shape():
    t = construct.construct_half_rate(F7, 2)
    doc = json.loads(cli.dumps(t))
    assert doc["alpha"] == "GF(7):0,1,2,5"
    assert doc["stages"][0]["chosen_pair"] == [2, 5]
    assert doc["q"] == 7 and doc["k"] == 2
