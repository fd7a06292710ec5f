"""Tests for the rate-1/2 construction."""

import math

import numpy as np
import pytest

from rsinsdel import analyze, construct, insdel, poly
from rsinsdel.errors import GuardExceeded, InvariantViolation
from rsinsdel.gf import field_new
from rsinsdel.rscode import EvaluationVector, RsCode

F7 = field_new(7)
F251 = field_new(251)


def test_min_field_size_values():
    assert construct.min_field_size(2) == 7
    assert construct.min_field_size(3) == 249
    assert construct.min_field_size(4) == 1363
    assert construct.min_field_size(2, conservative=True) == 1600
    assert construct.min_field_size(3, conservative=True) == 8100
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
    # stage system at an index pair where optimality forbids it
    with pytest.raises(construct.SingularSystemError):
        construct.extend(F251, (0, 1, 2, 4), 3)


def reference_bad_set(fld, points, i, s_i, s_j):
    """Set-based per-coefficient sweep: two eval_all calls and the five
    tail-shape loops for each leading coefficient in turn."""
    sol = construct._stage_solutions(fld, points, i, s_i, s_j)
    bad = set()
    if sol is None:
        return bad
    u0, u1 = sol
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


def swept_bad_set(fld, points, i, s_i, s_j):
    codes = construct._stage_pair_bad_set(fld, points, i, s_i, s_j)
    return {divmod(int(c), fld.q) for c in codes}


def index_pairs(n):
    return [(s_i, s_j) for s_i in range(1, n + 1) for s_j in range(1, n + 1) if s_i != s_j]


@pytest.mark.parametrize(
    "fld, points",
    [
        (F251, (0, 1, 2, 5)),
        (field_new(3, 4), (0, 1, 2, 5)),
        (field_new(2, 8), (0, 1, 2, 5)),
        (field_new(5, 3), (0, 1, 2, 5)),
        (field_new(13), (0, 1, 2, 5, 3, 12)),
        (field_new(31), (0, 1, 2, 5, 3, 4)),
    ],
    ids=str,
)
def test_block_sweep_matches_per_coefficient_reference(fld, points):
    i = len(points) // 2 + 1
    for s_i, s_j in index_pairs(len(points)):
        assert swept_bad_set(fld, points, i, s_i, s_j) == reference_bad_set(fld, points, i, s_i, s_j)


def test_block_sweep_is_independent_of_block_size(monkeypatch):
    fld, points = field_new(31), (0, 1, 2, 5, 3, 4)
    full = [swept_bad_set(fld, points, 4, *sij) for sij in index_pairs(6)]
    monkeypatch.setattr(construct, "LEAD_BLOCK_ELEMENTS", 3 * fld.q)
    assert [swept_bad_set(fld, points, 4, *sij) for sij in index_pairs(6)] == full


def test_block_sweep_singular_branch():
    # (0,1,2,4) is not optimal: some index pair must raise, and every pair
    # that does not agrees with the reference
    raised = 0
    for s_i, s_j in index_pairs(4):
        try:
            swept = swept_bad_set(F251, (0, 1, 2, 4), 3, s_i, s_j)
        except construct.SingularSystemError:
            raised += 1
            continue
        assert swept == reference_bad_set(F251, (0, 1, 2, 4), 3, s_i, s_j)
    assert raised > 0


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
    a = construct.extend(F251, (0, 1, 2, 5), 3, threads=1)
    b = construct.extend(F251, (0, 1, 2, 5), 3, threads=4)
    assert a == b


def test_construct_k2():
    trace = construct.construct_half_rate(F7, 2)
    assert trace.alpha.points == (0, 1, 2, 5)
    assert trace.stages[0].verification == "exact_optimal"


def test_construct_k3_exact_and_deterministic():
    t1 = construct.construct_half_rate(F251, 3, verify_mode="exact")
    t2 = construct.construct_half_rate(F251, 3, verify_mode="exact")
    assert t1.to_dict() == t2.to_dict()
    assert analyze.is_optimal_half_rate(t1.alpha, 3).optimal
    assert [s.i for s in t1.stages] == [2, 3]


def test_construct_restricted_sweep_also_verifies():
    t = construct.construct_half_rate(F251, 3, verify_mode="exact", restrict_dh=True)
    assert analyze.is_optimal_half_rate(t.alpha, 3).optimal


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
    doc = t.to_dict()
    assert doc["alpha"] == "GF(7):0,1,2,5"
    assert doc["stages"][0]["chosen_pair"] == [2, 5]
    assert doc["q"] == 7 and doc["k"] == 2
