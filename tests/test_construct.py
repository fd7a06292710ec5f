"""Tests for the rate-1/2 construction."""

import collections
import functools
import itertools
import json
import random

import numpy as np
import pytest
from conftest import ordered_index_pairs

from rsinsdel import analyze, cli, construct, errors, gf, insdel, poly
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


# -- the full sweep: every row of the bad set, kept as the row sweep's oracle


def lead_roots(fld, num, den, neg_inv, allowed):
    """Leads solving num + lead*den = 0 pointwise: the one lead -num/den and
    whether it is allowed, where den != 0; and where num = den = 0, whether
    every lead solves it."""
    lead = fld.v_mul(num, neg_inv[den])
    return (den != 0) & allowed[lead], lead, (den == 0) & (num == 0)


def full_pair_bad_set(fld, points, i, u0, u1, neg_inv, cross):
    """Bad pairs contributed by one unordered index-sequence pair {I, J},
    given the stage solutions (u0, u1) of (I, J), over every value of the
    free leading coefficient in GF(q) and infinity and every first point x
    of GF(q), as unique codes x*q + y, but for the cross second points,
    whose rows are appended to `cross` as (x, rows); neg_inv[v] = -1/v (and
    0 at 0).  The equations are construct._stage_row's, solved for every x
    at once: the agreement y are bucketed by lead, an x that hits at every
    lead pairs with every y whose own equation some allowed lead solves."""
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
    one, lead, every = lead_roots(fld, num, den, neg_inv, allowed)
    one[2] &= agree_allowed[lead[2]]
    xs = [np.flatnonzero(row) for row in one]
    ls = [lead[s, x] for s, x in enumerate(xs)]
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
            zero = np.zeros(len(x), np.int64)
            cross.append((x, poly.pencil_rows(fld, polys[side], polys[side], zero, vals[4 - side, x])))
        codes.append((np.concatenate(inf)[:, None] * q + inf[2]).ravel())
    # the same equations for x that hit at every lead: y is bad when some
    # allowed lead solves its equation
    side = np.repeat([0, 2], [len(es[0]), len(es[1])])
    e = np.concatenate(es[:2])
    num, den = fld.v_add(vals[[side, side + 1]], neg[[2 - side, 3 - side], e][..., None])
    one_e, _, every_e = lead_roots(fld, num, den, neg_inv, allowed)
    hit, y = divmod(np.flatnonzero(one_e | every_e), q)
    codes.append(e[hit] * q + y)
    return np.unique(np.concatenate(codes))


class SplitPool:
    """Tagged rows waiting for their roots, found by poly.tagged_roots."""

    def __init__(self, fld):
        self.fld, self.parts = fld, []

    def add(self, tags, rows):
        self.parts.append((tags, rows))

    def split(self):
        parts, self.parts = self.parts, []
        if not parts:
            return np.empty(0, np.int64)
        return poly.tagged_roots(self.fld, *(np.concatenate(a) for a in zip(*parts)))


def pair_bad_set(fld, points, i, u0, u1, neg_inv, pool=None):
    """One pair's whole bad set as sorted unique codes: the codes the full
    sweep finds itself and the roots of its cross rows, both sides queued
    on a pool of its own (a SplitPool unless another is given)."""
    pool, cross = SplitPool(fld) if pool is None else pool, []
    codes = full_pair_bad_set(fld, points, i, u0, u1, neg_inv, cross)
    for x, rows in cross:
        pool.add(x, rows)
    return np.unique(np.concatenate((codes, pool.split())))


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
    """The ordered index pairs, both orientations, at stage i's distance over
    n points."""
    return list(ordered_index_pairs(n, n - 1, i - 2))


def forward_pairs(n, i):
    """The pairs (I, J), I < J, that extend solves."""
    return [(i_seq, j_seq) for i_seq, j_seq in stage_pairs(n, i) if i_seq < j_seq]


def full_rows(fld, points, i, solutions):
    """The full sweep's bad set over the given pair solutions, as sorted
    codes x*q + y."""
    neg_inv = neg_inverses(fld)
    return np.unique(np.concatenate([pair_bad_set(fld, points, i, *uu, neg_inv) for uu in solutions]))


def every_lead_conditions(fld, polys, last):
    """Where each pair's first-point condition holds at every lead, from
    A, B, C and D evaluated on GF(q): a (3, pairs, q) mask of num(x) =
    den(x) = 0 for g(x) = f(a_last), f(x) = g(a_last) and f(x) = g(x)."""
    pairs, _, width = polys.shape
    vals = poly.eval_all(fld, polys[:, :4].reshape(-1, width)).reshape(pairs, 4, fld.q)
    a, b, c, d = vals.transpose(1, 0, 2)
    al, bl, cl, dl = vals[:, :, last, None].transpose(1, 0, 2)
    return np.stack(((a == cl) & (b == dl), (c == al) & (d == bl), (c == a) & (d == b)))


def assert_rows_match(fld, points, i, solutions, bad, xs=None):
    """construct._stage_row over the pencils of the given solutions equals
    the row of `bad`, sorted codes, at every fresh x (or the given ones),
    and the roots of its plain rows stay within 5 (i - 1) per pair.
    Returns the number of those rows where some condition holds at every
    lead."""
    polys = construct._pencils(fld, i, solutions)
    q = fld.q
    xs = [x for x in range(q) if x not in points] if xs is None else xs
    for x in xs:
        got, roots = construct._stage_row(fld, polys, points[-1], x)
        lo, hi = np.searchsorted(bad, (x * q, (x + 1) * q))
        assert np.array_equal(got, bad[lo:hi] - x * q), (fld, points, i, x)
        assert roots <= 5 * len(polys) * (i - 1), (fld, points, i, x)
    return int(every_lead_conditions(fld, polys, points[-1]).any(axis=(0, 1))[xs].sum())


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


def test_degenerate_stage_solutions_are_refused(monkeypatch, capsys):
    # no swept pair has a constant g-side A (lead 0 barred) or a zero f-side
    # D (no lead infinity): g(a_J) = f(a_I) at 2i - 3 distinct points rules
    # both out.  Forced solutions of either shape, A constant, or D = 0
    # with C = A + B, make extend and the construct command refuse the stage
    solve = construct._stage_solutions

    def constant_g(fld, points, i, pairs):
        return [((u0[0],) + (0,) * (i - 2) + tuple(u0[i - 1 :]), u1) for u0, u1 in solve(fld, points, i, pairs)]

    def zero_d(fld, points, i, pairs):
        mid, out = i - 2, []
        for u0, u1 in solve(fld, points, i, pairs):
            v1 = u1[: mid + 1] + (0,) * mid
            out.append(((v1[0],) + u0[1 : mid + 1] + tuple(fld.sub(u0[t], v1[t]) for t in range(1, mid + 1)), v1))
        return out

    for degenerate in (constant_g, zero_d):
        monkeypatch.setattr(construct, "_stage_solutions", degenerate)
        for fld, points in SWEEP_INPUTS[:2] + SWEEP_INPUTS[-1:]:
            i = len(points) // 2 + 1
            for u0, u1 in construct._stage_solutions(fld, points, i, forward_pairs(len(points), i)):
                assert not any(u0[1 : i - 1]) if degenerate is constant_g else not any(u1[i - 1 :])
            with pytest.raises(InvariantViolation, match=rf"^stage {i}: a swept pair has a constant A or D = 0, which its {2 * i - 3} distinct points rule out$"):
                construct.extend(fld, points, i)
        assert cli.main(["construct", "--field", "1367", "--k", "4"]) == cli.EXIT_INVARIANT
        captured = capsys.readouterr()
        error = json.loads(captured.err)["error"]
        assert captured.out == "" and error == {"type": "InvariantViolation", "message": "stage 3: a swept pair has a constant A or D = 0, which its 3 distinct points rule out"}


def test_block_sweep_is_independent_of_block_size(monkeypatch):
    # stages 3 to 5 over GF(1367) and 3 and 4 over GF(3^4): budgets of a few
    # rows and (over GF(3^4)) of less than one row, one row per block, give
    # the default's codes on the first swept pair of the full sweep and on
    # the first three rows of the row sweep, from more blocks of the root
    # finder for each smaller budget, none above its budget
    split_round, blocks = poly.split_round, []

    def counted(fld, rows, rounds):
        blocks.append(len(rows))
        return split_round(fld, rows, rounds)

    monkeypatch.setattr(poly, "split_round", counted)
    for fld, stages in ((field_new(1367), (3, 4, 5)), (field_new(3, 4), (3, 4))):
        points, neg_inv = construct.base_case(fld).points, neg_inverses(fld)
        for i in stages:
            solutions = construct._stage_solutions(fld, points, i, forward_pairs(len(points), i))
            polys = construct._pencils(fld, i, solutions)
            fresh = [x for x in range(fld.q) if x not in points][:3]
            per_row = poly.split_bytes(i)
            counts, full = [], None
            for budget in (errors.BLOCK_BYTES, 3 * per_row) + ((1,) if fld.q < 1367 else ()):
                with monkeypatch.context() as m:
                    m.setattr(errors, "BLOCK_BYTES", budget)
                    blocks.clear()
                    got = [pair_bad_set(fld, points, i, *solutions[0], neg_inv)]
                    got += [construct._stage_row(fld, polys, points[-1], x)[0] for x in fresh]
                full = got if full is None else full
                assert all(np.array_equal(a, b) for a, b in zip(got, full))
                assert max(blocks) <= max(1, budget // per_row)
                counts.append(len(blocks))
            assert counts == sorted(set(counts)), counts  # more blocks for each smaller budget
            if i < stages[-1]:
                points, _ = construct.extend(fld, points, i)


def reference_stage(fld, points, i):
    """Stage i with every ordered pair swept over every lead and every row
    of GF(q).  Returns the bad set as sorted codes and
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
def test_dropped_cross_rows_change_no_stage(fld, k):
    # extend sweeps each unordered pair once, leaving out the reverse's
    # cross rows at every lead but 0, and builds only the rows up to its x;
    # per stage its chosen pair is the least fresh pair outside the bad set
    # of every directed pair over every lead, and its count is that set's
    # bad pairs in the fresh rows up to the chosen x (over GF(7) the bad set
    # exhausts GF(7)^2 at stage 3 in both)
    points = construct.base_case(fld).points
    for i in range(3, k + 1):
        bad, pair = reference_stage(fld, points, i)
        if pair is None:
            with pytest.raises(construct.NoGoodPairError):
                construct.extend(fld, points, i)
            assert len(bad) == fld.q**2
            return
        scanned = [x for x in range(pair[0] + 1) if x not in points]
        points, count = construct.extend(fld, points, i)
        assert points[-2:] == pair, (fld, i)
        assert count == np.isin(bad // fld.q, scanned).sum(), (fld, i)
    assert fld.q > 7


def test_row_sweep_matches_the_full_sweep_on_random_inputs():
    # seeded stage-3 and stage-4 inputs over fields with q <= 101 whose
    # swept systems are all nonsingular: at every fresh x the row equals the
    # full sweep's, of every ordered pair over every lead; some rows have a
    # condition that holds at every lead
    rng = random.Random(41)
    fields = [field_new(p, m) for p, m in ((11, 1), (13, 1), (2, 4), (17, 1), (3, 3), (31, 1), (7, 2), (2, 6), (67, 1), (101, 1))]
    stages, every_lead = 0, 0
    while stages < 28:
        fld, i = rng.choice(fields), rng.choice((3, 4))
        points = tuple(rng.sample(range(fld.q), 2 * i - 2))
        pairs = stage_pairs(2 * i - 2, i)
        try:
            solutions = construct._stage_solutions(fld, points, i, pairs)
        except construct.SingularSystemError:
            continue
        forward = [s for (i_seq, j_seq), s in zip(pairs, solutions) if i_seq < j_seq]
        every_lead += assert_rows_match(fld, points, i, forward, full_rows(fld, points, i, solutions))
        stages += 1
    assert every_lead > 0


def test_row_sweep_matches_the_full_sweep_on_every_lead_rows():
    # seeded stage-3 to stage-5 inputs over fields with q <= 101, each
    # compared with the full sweep only at the fresh x where some pair's
    # condition holds at every lead (rare: about 5 of the random test's
    # 1,100 rows), until 50 such rows.  Every row where such a condition
    # opens a side (all but an agreement of a pair with f = g at lead 1) is
    # all of GF(q), as _stage_row proves
    rng = random.Random(45)
    fields = [field_new(*f) for f in ((11,), (13,), (23,), (31,), (67,), (101,), (3, 3), (3, 4), (5, 2), (7, 2), (2, 4), (2, 5), (2, 6))]
    seen = collections.Counter()
    while seen["rows"] < 50:
        fld, i = rng.choice(fields), rng.choice((3, 4, 5))
        points = tuple(rng.sample(range(fld.q), 2 * i - 2))
        try:
            solutions = construct._stage_solutions(fld, points, i, forward_pairs(2 * i - 2, i))
        except construct.SingularSystemError:
            continue
        polys = construct._pencils(fld, i, solutions)
        every = every_lead_conditions(fld, polys, points[-1])
        every[..., list(points)] = False
        xs = np.flatnonzero(every.any(axis=(0, 1))).tolist()
        if not xs:
            continue
        bad = full_rows(fld, points, i, solutions)
        assert assert_rows_match(fld, points, i, solutions, bad, xs) == len(xs)
        f_equals_g = ~fld.v_add(polys[:, 4], polys[:, 5]).any(axis=1)
        family = "characteristic 2" if fld.p == 2 else "odd extension" if fld.m > 1 else "prime"
        for x in xs:
            kinds = (every[0, :, x].any(), every[1, :, x].any(), every[:, f_equals_g, x].any())
            names = ("g(x) = f(a_last)", "f(x) = g(a_last)", "f = g side")
            opens = bool((every[0, :, x] | every[1, :, x] | every[2, :, x] & ~f_equals_g).any())
            full = np.searchsorted(bad, (x + 1) * fld.q) - np.searchsorted(bad, x * fld.q) == fld.q
            assert full or not opens, (fld, points, i, x)
            seen.update(["rows", family, ("opens", opens)] + [name for name, hit in zip(names, kinds) if hit])
    kinds = ("prime", "odd extension", "characteristic 2", "g(x) = f(a_last)", "f(x) = g(a_last)", "f = g side", ("opens", True))
    assert all(seen[kind] for kind in kinds), seen


def test_f_equals_g_agreement_rows_match_the_full_sweep():
    # no real input has a fresh x where an f = g pair's agreement holds at
    # every lead, so force every pair to f = g at lead 1 (C = A + B - D,
    # A and D kept): where that agreement is a row's only every-lead
    # condition it opens no side, and the row, not always full, still
    # equals the full sweep's
    rng = random.Random(46)
    fields = [field_new(*f) for f in ((11,), (13,), (23,), (31,), (3, 3), (5, 2), (2, 4), (2, 5))]
    seen = collections.Counter()
    while seen["agreement only"] < 10:
        fld, i = rng.choice(fields), rng.choice((3, 4))
        points, mid = tuple(rng.sample(range(fld.q), 2 * i - 2)), i - 2
        try:
            solutions = construct._stage_solutions(fld, points, i, forward_pairs(2 * i - 2, i))
        except construct.SingularSystemError:
            continue
        solutions = [((u1[0],) + u0[1 : mid + 1] + tuple(fld.add(fld.sub(u0[t], u1[t]), u1[mid + t]) for t in range(1, mid + 1)), u1) for u0, u1 in solutions]
        polys = construct._pencils(fld, i, solutions)
        assert not fld.v_add(polys[:, 4], polys[:, 5]).any()
        every = every_lead_conditions(fld, polys, points[-1])
        every[..., list(points)] = False
        xs = np.flatnonzero(every[2].any(axis=0) & ~every[:2].any(axis=(0, 1))).tolist()
        if not xs:
            continue
        bad = full_rows(fld, points, i, solutions)
        assert_rows_match(fld, points, i, solutions, bad, xs)
        seen["agreement only"] += len(xs)
        seen["not full"] += int(sum(np.searchsorted(bad, (x + 1) * fld.q) - np.searchsorted(bad, x * fld.q) < fld.q for x in xs))
    assert seen["not full"], seen


@pytest.mark.parametrize(
    "fld, k",
    [(field_new(*f), k) for f, k in (((13,), 6), ((23,), 6), ((29,), 6), ((3, 4), 6), ((5, 3), 6), ((251,), 6), ((2, 8), 6), ((1367,), 6), ((4507,), 5))],
    ids=str,
)
def test_row_sweep_matches_the_full_sweep_on_construction_chains(fld, k):
    # the first three rows of every stage of the construction chain, up to
    # k or the stage whose every fresh row is full (stage 5 over GF(13))
    points = construct.base_case(fld).points
    for i in range(3, k + 1):
        solutions = construct._stage_solutions(fld, points, i, forward_pairs(len(points), i))
        fresh = [x for x in range(fld.q) if x not in points][:3]
        assert_rows_match(fld, points, i, solutions, full_rows(fld, points, i, solutions), fresh)
        try:
            points, _ = construct.extend(fld, points, i)
        except construct.NoGoodPairError:
            assert (fld.q, i) == (13, 5)
            return


def test_extend_chains_to_k12_at_the_guaranteed_field_size():
    # stages 3 to 12 over GF(279557), min_field_size(12) = 279555 rounded up
    # to a prime: the vector is optimal, and its prefix is the integer one
    # that every large field builds
    fld = field_new(279557)
    assert construct.min_field_size(12) <= fld.q
    points = construct.base_case(fld).points
    for i in range(3, 13):
        points, count = construct.extend(fld, points, i)
        assert count > 0
    assert points == (0, 1, 2, 5, 3, 4, 6, 10, 7, 8, 9, 12, 11, 13, 14, 16, 15, 17, 18, 20, 19, 21, 22, 24)
    assert analyze.is_optimal_half_rate(EvaluationVector(fld, points), 12).optimal


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
    pencils, solve = construct._pencils, construct._stage_solutions

    def counted(fld_, i, solutions):
        calls[i] = calls.get(i, 0) + len(solutions)
        return pencils(fld_, i, solutions)

    def solve_counted(fld_, points, i, pairs):
        assert all(i_seq < j_seq for i_seq, j_seq in pairs)
        solved[i] = solved.get(i, 0) + len(pairs)
        return solve(fld_, points, i, pairs)

    monkeypatch.setattr(construct, "_pencils", counted)
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
    # first round leaves together), a zero row and a constant, tagged: every
    # budget, from one row per block to blocks with a ragged end, gives the
    # roots of a full scan, from blocks none above its budget; no rows give
    # none
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
    default = errors.BLOCK_BYTES
    for budget in (default, 1, 2 * poly.split_bytes(width), 7 * poly.split_bytes(width)):
        monkeypatch.setattr(errors, "BLOCK_BYTES", budget)
        blocks[:] = []
        codes = poly.tagged_roots(fld, xs, rows)
        assert np.array_equal(np.sort(codes), expected), budget
        assert max(blocks) <= max(1, budget // poly.split_bytes(width))
        assert budget == default or len(blocks) > len(rows) // 7
    assert max(rounds_seen) >= 1  # the five together need a second round
    assert poly.tagged_roots(fld, [], np.zeros((0, width), np.int64)).shape == (0,)


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

    def split(self):
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
    # stage-3 row (all are of degree <= 2), and from then on the rows of
    # degree 3 or more
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
        assert (sum(split_rows) == 0) == (i == 3), sum(split_rows)
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
        skipped = set(ordered_index_pairs(n, n - 1, 0)) - set(stage_pairs(n, i))
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
    empty = np.empty(0, np.int64)
    monkeypatch.setattr(construct, "_stage_row", lambda fld, polys, last, x: (np.array([4]) if x == 3 else empty, 1))
    assert construct.extend(F251, (0, 1, 2, 5), 3) == ((0, 1, 2, 5, 3, 6), 1)
    # row 3 is free only at y = 3, which repeats x; the ceiling bounds the
    # roots of its plain rows, not the y of a row that opens a side
    row3 = np.array([y for y in range(q) if y != 3])
    monkeypatch.setattr(construct, "_stage_row", lambda fld, polys, last, x: (row3, 2) if x == 3 else (empty, 0))
    assert construct.extend(F251, (0, 1, 2, 5), 3) == ((0, 1, 2, 5, 4, 3), q - 1)


def test_extend_produces_verified_stage():
    points, bad_count = construct.extend(F251, (0, 1, 2, 5), 3)
    assert len(points) == 6 and len(set(points)) == 6
    assert analyze.is_optimal_half_rate(EvaluationVector(F251, points), 3).optimal
    assert 0 < bad_count <= 5 * construct.swept_pair_count(3) * 2  # one row, below its ceiling


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
    # other ordered pair is singular and adds nothing to the bad set, so
    # the rows scanned, up to the chosen x, hold as many bad pairs
    t = construct.construct_half_rate(F251, 4, verify_mode="certificate", allow_small_q=True)
    assert all(s.verification == "rank_certified" for s in t.stages)
    points = t.alpha.points[:6]
    full = set()
    for i_seq, j_seq in ordered_index_pairs(6, 5, 1):
        if system_rank(F251, points, 4, i_seq, j_seq) == 5:
            full |= swept_bad_set(F251, points, 4, i_seq, j_seq)
    chosen = t.stages[2].chosen_pair[0]
    scanned = [x for x in range(chosen + 1) if x not in points]
    assert sum(x in scanned for x, _ in full) == t.stages[2].row_bad_pair_count > 0


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


def test_stage_work_guard_admits_guaranteed_sizes_up_to_k8():
    for q, k in ((1367, 4), (1399, 4), (construct.min_field_size(5), 5), (construct.min_field_size(6), 6)):
        assert construct.stage_work(q, k) <= errors.MAX_STAGE_OPS
    # the least primes above min_field_size(k), k = 7, 8 and 9
    assert construct.stage_work(23789, 7) <= errors.MAX_STAGE_OPS
    assert construct.stage_work(44621, 8) <= errors.MAX_STAGE_OPS < construct.stage_work(76837, 9)
    # over GF(1367) no row is full without a condition that holds at every
    # lead (1362 > 5Pd), so 1 + 3Pd rows, each charged q: at stage 3,
    # 6 pairs, 37 rows of 10^5 + 1367 + 6 * (26 * 3 + 32) units; at stage 4,
    # 10 pairs, 91 rows of 10^5 + 1367 + 10 * (26 * 4 + 32 * 3^2 * 11)
    assert construct.stage_work(1367, 4) == 37 * 102027 + 91 * 134087 == 15976916
    # over GF(7) every fresh row can be full: 3 rows
    assert construct.stage_work(7, 3) == 3 * (10**5 + 7 + 6 * 110) == 302001
    assert construct.stage_work(7, 2) == 0
    # k = 8 is admitted up to q = 290357, and k = 7 at every order of the
    # library (above the few rows where rows fill, the work grows with q)
    assert construct.stage_work(290357, 8) <= errors.MAX_STAGE_OPS < construct.stage_work(290358, 8)
    assert construct.stage_work(gf.MAX_ORDER, 7) <= errors.MAX_STAGE_OPS


def test_swept_pair_count_counts_the_swept_pairs():
    for i in range(3, 13):
        n = 2 * i - 2
        assert construct.swept_pair_count(i) == sum(i_seq < j_seq for i_seq, j_seq in stage_pairs(n, i))


def test_stage_work_charges_half_the_ordered_pairs():
    # the estimate per stage charges P, half the ordered pairs, at every
    # (q, k), in each of its parts
    for q in (7, 8, 81, 251, 256, 1367, 1381, 4507, 11273, 23789, 65537):
        bits = max(1, (q - 1).bit_length())
        for k in range(3, 9):
            total = 0
            for i in range(3, k + 1):
                pairs, d = len(stage_pairs(2 * i - 2, i)) // 2, i - 1
                rows = q - 2 * i + 2 if q - 2 * i + 1 <= 5 * pairs * d else min(q - 2 * i + 2, 1 + 3 * pairs * d)
                split = 4 * (d * d * bits if d >= 3 else 1)
                total += rows * (10**5 + q + pairs * (26 * i + 8 * split))
            assert construct.stage_work(q, k) == total, (q, k)


def test_stage_work_bounds_the_counted_work(monkeypatch):
    # real stages, counted as stage_work charges them: 10^5 + q + 26i units
    # per pair per row, and 4d^2 units per bit of q for every row the root
    # finder splits, fresh or a later piece, of degree d >= 3 (1 below);
    # within the estimate, and within each part of the worst case: at most
    # 5 plain rows per pair handed to the root finder per row, and the rows
    # scanned within the bound; over the small fields rows fill, some of
    # them the whole field
    row_, roots_, split_ = construct._stage_row, poly.tagged_roots, poly.split_round
    full_rows_seen, whole_field_seen = 0, 0
    for spec, k in (((7,), 3), ((13,), 6), ((23,), 6), ((29,), 8), ((3, 4), 4), ((251,), 5), ((1367,), 4), ((4507,), 5)):
        fld = field_new(*spec)
        q, bits, counted, current = fld.q, max(1, (fld.q - 1).bit_length()), {}, []

        def row(fld_, polys, last, x):
            nonlocal whole_field_seen
            pairs, _, i = polys.shape
            current[:] = [counted.setdefault(i, {"i": i, "pairs": pairs, "rows": 0, "units": 0})]
            current[0]["rows"] += 1
            current[0]["units"] += 10**5 + q + pairs * 26 * i
            bad, roots = row_(fld_, polys, last, x)
            whole_field_seen += len(bad) == q
            return bad, roots

        def roots(fld_, tags, rows):
            assert len(rows) <= 5 * current[0]["pairs"] and rows.shape[1] == current[0]["i"]
            return roots_(fld_, tags, rows)

        def split(fld_, rows, rounds):
            degree = np.array([poly.degree(poly.trim(r)) for r in rows.tolist()])
            current[0]["units"] += int(np.where(degree >= 3, 4 * degree**2 * bits, 1).sum())
            return split_(fld_, rows, rounds)

        with monkeypatch.context() as m:
            m.setattr(construct, "_stage_row", row)
            m.setattr(poly, "tagged_roots", roots)
            m.setattr(poly, "split_round", split)
            points = construct.base_case(fld).points
            try:
                for i in range(3, k + 1):
                    points, _ = construct.extend(fld, points, i)
            except construct.NoGoodPairError:
                assert (q, i) in ((7, 3), (13, 5))
        for i, c in counted.items():
            pairs, d = construct.swept_pair_count(i), i - 1
            fresh = q - 2 * i + 2
            assert c["pairs"] == pairs
            assert c["rows"] <= (fresh if fresh - 1 <= 5 * pairs * d else 1 + 3 * pairs * d)
            estimate = construct.stage_work(q, i) - construct.stage_work(q, i - 1)
            assert c["units"] <= estimate, (q, i, c, estimate)
            full_rows_seen += c["rows"] > 1
    assert full_rows_seen and whole_field_seen


def test_stage_work_guard_refuses_before_any_work(monkeypatch):
    monkeypatch.setattr(errors, "MAX_STAGE_OPS", construct.stage_work(251, 3) - 1)
    monkeypatch.setattr(construct, "extend", None)  # never reached
    message = r"^units of the row sweep of stages 3\.\.3 at q=251: estimated work 3733707 exceeds the limit of 3733706$"
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
    assert stage3.row_bad_pair_count <= 5 * construct.swept_pair_count(3) * 2


def test_extend_refuses_a_bad_set_above_its_ceiling(monkeypatch):
    # a root finder that calls every y a root fills row 3 of stage 3 over
    # GF(251), far above the row's ceiling of 5 rows of degree 2 for each
    # of its 6 pairs, where no condition holds at every lead
    monkeypatch.setattr(poly, "tagged_roots", lambda fld, tags, rows: np.arange(fld.q))
    with pytest.raises(InvariantViolation, match=r"^stage 3: row 3 has 251 roots of its plain rows, above the ceiling 60$"):
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
