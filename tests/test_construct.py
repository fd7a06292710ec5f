"""Tests for the rate-1/2 construction."""

import itertools
import json
import math
import random

import numpy as np
import pytest

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


def reference_bad_set(fld, points, i, i_seq, j_seq):
    """Set-based per-coefficient sweep: two eval_all calls and the five
    tail-shape loops for each leading coefficient in turn."""
    u0, u1 = pair_solutions(fld, points, i, i_seq, j_seq)
    bad = set()
    mid = i - 2
    for lead in range(fld.q):
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


def swept_bad_set(fld, points, i, i_seq, j_seq):
    u0, u1 = pair_solutions(fld, points, i, i_seq, j_seq)
    codes = construct._stage_pair_bad_set(fld, points, i, u0, u1, neg_inverses(fld))
    return {divmod(int(c), fld.q) for c in codes}


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
        assert swept_bad_set(fld, points, i, i_seq, j_seq) == reference_bad_set(fld, points, i, i_seq, j_seq)


def test_closed_form_matches_reference_at_q1367():
    # stage 4 over GF(1367): one pair with f = g at lead 1, one without, and
    # every-lead first points in each
    fld, points = field_new(1367), (0, 1, 2, 5, 3, 4)
    for i_seq, j_seq in (((1, 2, 3, 5, 6), (1, 3, 4, 5, 6)), ((1, 2, 4, 5, 6), (1, 2, 3, 4, 5))):
        assert swept_bad_set(fld, points, 4, i_seq, j_seq) == reference_bad_set(fld, points, 4, i_seq, j_seq)


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
    # no real input has a constant g-side at lead 0: force one by zeroing the
    # nonconstant g coefficients of u0; the reference solves through the
    # same function, so both see the same system
    solve = construct._stage_solutions

    def constant_g_side(fld, points, i, pairs):
        return [((u0[0],) + (0,) * (i - 2) + tuple(u0[i - 1 :]), u1) for u0, u1 in solve(fld, points, i, pairs)]

    monkeypatch.setattr(construct, "_stage_solutions", constant_g_side)
    for fld, points in SWEEP_INPUTS[:2] + SWEEP_INPUTS[-1:]:
        i = len(points) // 2 + 1
        for i_seq, j_seq in stage_pairs(len(points), i):
            assert poly.degree(poly.trim(pair_solutions(fld, points, i, i_seq, j_seq)[0][: i - 1])) < 1
            assert swept_bad_set(fld, points, i, i_seq, j_seq) == reference_bad_set(fld, points, i, i_seq, j_seq)


def test_block_sweep_is_independent_of_block_size(monkeypatch):
    # stages 3 and 4 over a prime and an extension field: budgets of a few
    # rows and of less than one row (one row per block) against the default
    for fld in (field_new(1367), field_new(3, 4)):
        points, neg_inv = construct.base_case(fld).points, neg_inverses(fld)
        for i in (3, 4):
            solutions = construct._stage_solutions(fld, points, i, stage_pairs(len(points), i))
            full = [construct._stage_pair_bad_set(fld, points, i, *uu, neg_inv) for uu in solutions]
            for budget in (3 * fld.q * 25, 1):
                monkeypatch.setattr(errors, "BLOCK_BYTES", budget)
                for uu, codes in zip(solutions, full):
                    assert np.array_equal(construct._stage_pair_bad_set(fld, points, i, *uu, neg_inv), codes)
            monkeypatch.undo()
            if i == 3:
                points, _ = construct.extend(fld, points, i)


def reduced_matcher(fld, calls):
    """The cross-second-point row test as the sweep ran it before the
    division-free matcher: rows a*b + c reduced with % p (uint32 where
    p(p - 1) < 2^32, int64 above), then compared with their targets."""

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


def row_scan(fld, matcher):
    """poly.pencil_roots as the sweep ran before the closed form: every
    cross row, whatever its degree, tested at every y by matcher."""

    def pencil_roots(_, a, b, lead, target, values=None):
        va, vb = poly.eval_all(fld, [a, b])
        return matcher(vb, va)(lead, target)

    return pencil_roots


@pytest.mark.parametrize("fld, stages", [(F251, (3, 4)), (field_new(1367), (3, 4)), (field_new(3, 4), (3,))], ids=str)
def test_division_free_rows_match_reduced_rows(fld, stages, monkeypatch):
    # stage 3 rows are quadratics, solved in closed form with no matcher
    # call, so there the reference sends every cross row through the port
    points, neg_inv = construct.base_case(fld).points, neg_inverses(fld)
    for i in stages:
        pairs = stage_pairs(len(points), i)
        solutions = construct._stage_solutions(fld, points, i, pairs)
        swept = [construct._stage_pair_bad_set(fld, points, i, *uu, neg_inv) for uu in solutions]
        calls = []
        with monkeypatch.context() as m:
            if i == 3:
                m.setattr(poly, "pencil_roots", row_scan(fld, reduced_matcher(fld, calls)))
            else:
                m.setattr(fld, "mul_add_matcher", reduced_matcher(fld, calls))
            reduced = [construct._stage_pair_bad_set(fld, points, i, *uu, neg_inv) for uu in solutions]
        assert sum(calls) >= len(pairs) * fld.q  # the cross rows ran through the port
        for ij, new, old in zip(pairs, swept, reduced):
            assert new.dtype == old.dtype and np.array_equal(new, old), ij
        if i < stages[-1]:
            points, _ = construct.extend(fld, points, i)


def counted(matcher, rows):
    """matcher, recording how many rows each match call tests."""

    def prepare(b, c):
        match = matcher(b, c)
        return lambda a, t: rows.append(len(a)) or match(a, t)

    return prepare


@pytest.mark.parametrize("fld", [field_new(1367), field_new(3, 4), field_new(2, 8), field_new(5, 3)], ids=str)
def test_closed_form_rows_match_the_row_scan(fld, monkeypatch):
    # every swept pair of stages 3 and 4 against the sweep that tests every
    # cross row at every y by Field.mul_add_matcher; the closed form leaves
    # the matcher no stage-3 row (all are of degree <= 2), and at stage 4
    # only the cubic rows
    points, neg_inv = construct.base_case(fld).points, neg_inverses(fld)
    scan, matcher = row_scan(fld, fld.mul_add_matcher), fld.mul_add_matcher
    for i in (3, 4):
        pairs = stage_pairs(len(points), i)
        solutions = construct._stage_solutions(fld, points, i, pairs)
        matched = []
        with monkeypatch.context() as m:
            m.setattr(fld, "mul_add_matcher", counted(matcher, matched))
            swept = [construct._stage_pair_bad_set(fld, points, i, *uu, neg_inv) for uu in solutions]
        with monkeypatch.context() as m:
            m.setattr(poly, "pencil_roots", scan)
            scanned = [construct._stage_pair_bad_set(fld, points, i, *uu, neg_inv) for uu in solutions]
        for ij, new, old in zip(pairs, swept, scanned):
            assert np.array_equal(new, old), ij
        assert (sum(matched) == 0) == (i == 3), sum(matched)
        if i == 3:
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
        assert swept == reference_bad_set(F251, (0, 1, 2, 4), 3, i_seq, j_seq)
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
    # swept pairs are singular; each one, and extend, must raise
    fld = field_new(13)
    rng = random.Random(6)
    singular = 0
    for _ in range(5):
        points = tuple(rng.sample(range(fld.q), 6))
        hits = [ij for ij in stage_pairs(6, 4) if system_rank(fld, points, 4, *ij) < 5]
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
        assert construct.stage_work(q, k) <= construct.MAX_STAGE_OPS
    assert construct.stage_work(1367, 4) == 42 * 1367**2
    assert construct.stage_work(7, 2) == 0
    # k = 3 is admitted up to q = 50000 and refused above
    assert construct.stage_work(50000, 3) <= construct.MAX_STAGE_OPS < construct.stage_work(50001, 3)


def test_stage_work_guard_refuses_before_any_work(monkeypatch):
    monkeypatch.setattr(construct, "MAX_STAGE_OPS", 12 * 251**2 - 1)
    monkeypatch.setattr(construct, "extend", None)  # never reached
    with pytest.raises(GuardExceeded, match=r"estimated 756012 element operations exceed the limit of 756011"):
        construct.construct_half_rate(F251, 3)
    monkeypatch.undo()
    monkeypatch.setattr(construct, "MAX_STAGE_OPS", 12 * 251**2)
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


def test_trace_serialization_shape():
    t = construct.construct_half_rate(F7, 2)
    doc = json.loads(cli.dumps(t))
    assert doc["alpha"] == "GF(7):0,1,2,5"
    assert doc["stages"][0]["chosen_pair"] == [2, 5]
    assert doc["q"] == 7 and doc["k"] == 2
