"""Tests for the capability engines, classifier, census, and sampling."""

import collections
import itertools
import json
import math
import random
import time

import numpy as np
import pytest
from conftest import canonical_orderings

from rsinsdel import analyze, bounds, cli, errors, insdel, poly
from rsinsdel.errors import GuardExceeded, InvariantViolation
from rsinsdel.gf import field_from_order, field_new
from rsinsdel.rscode import EvaluationVector, RsCode, equivalent

F7 = field_new(7)


# -- exact engines -----------------------------------------------------------


def test_bruteforce_known_codes():
    r = analyze.lcs_code_bruteforce(RsCode(EvaluationVector(F7, (0, 1, 2, 5)), 2))
    assert (r.lcs_of_code, r.max_correctable, r.optimal) == (2, 1, True)
    r = analyze.lcs_code_bruteforce(RsCode(EvaluationVector(F7, tuple(range(7))), 2))
    assert (r.lcs_of_code, r.max_correctable) == (6, 0)
    r = analyze.lcs_code_bruteforce(RsCode(EvaluationVector(F7, (0, 1, 2)), 1))
    assert (r.lcs_of_code, r.max_correctable, r.optimal) == (0, 2, True)


def test_bruteforce_witness_checks_out():
    r = analyze.lcs_code_bruteforce(RsCode(EvaluationVector(F7, (0, 1, 2, 5)), 2))
    w = r.witness
    assert len(w["I"]) == len(w["J"]) == r.lcs_of_code


def test_bruteforce_guard():
    with pytest.raises(GuardExceeded):
        analyze.lcs_code_bruteforce(RsCode(EvaluationVector(field_new(251), (0, 1, 2, 5)), 3))


def test_bruteforce_normalization_matches_unreduced_scan():
    # the normalized-f reduction must agree with the raw all-pairs maximum
    rng = random.Random(79)
    for fld in (field_new(5), field_new(2, 3)):
        for _ in range(6):
            n = rng.randrange(3, min(6, fld.q) + 1)
            k = rng.randrange(2, min(3, n - 1) + 1)
            pts = tuple(rng.sample(range(fld.q), n))
            code = RsCode(EvaluationVector(fld, pts), k)
            report = analyze.lcs_code_bruteforce(code)
            from conftest import lcs
            from rsinsdel.rscode import codewords

            words = [w for _, w in codewords(code)]
            raw = max(
                lcs(a, b) for a, b in itertools.combinations(words, 2)
            )
            assert report.lcs_of_code == raw


def test_affine_known_codes():
    assert analyze.lcs_code_affine(EvaluationVector(F7, tuple(range(7)))).lcs_of_code == 6
    assert analyze.lcs_code_affine(EvaluationVector(F7, (0, 1, 3, 2, 6, 4, 5))).lcs_of_code == 6
    good = analyze.lcs_code_affine(EvaluationVector(F7, (0, 1, 2, 5, 3, 6, 4)))
    assert good.lcs_of_code <= 5


def test_affine_requires_full_length():
    with pytest.raises(ValueError):
        analyze.lcs_code_affine(EvaluationVector(F7, (0, 1, 2, 5)))


def test_affine_agrees_with_bruteforce_exhaustively_small_q():
    for fld in (field_new(2, 2), field_new(5), F7):
        for ev in canonical_orderings(fld):
            fast = analyze.lcs_code_affine(ev, want_witness=False)
            slow = analyze.lcs_code_bruteforce(RsCode(ev, 2), want_witness=False)
            assert fast.lcs_of_code == slow.lcs_of_code, ev


def test_affine_agrees_with_bruteforce_q8_exhaustive_q9_sampled():
    f8 = field_new(2, 3)
    for ev in canonical_orderings(f8):
        fast = analyze.lcs_code_affine(ev, want_witness=False)
        slow = analyze.lcs_code_bruteforce(RsCode(ev, 2), want_witness=False)
        assert fast.lcs_of_code == slow.lcs_of_code, ev
    f9 = field_new(3, 2)
    rng = random.Random(83)
    rest = [x for x in range(9) if x not in (0, 1)]
    for _ in range(200):
        perm = tuple(rng.sample(rest, len(rest)))
        ev = EvaluationVector(f9, (0, 1) + perm)
        fast = analyze.lcs_code_affine(ev, want_witness=False)
        slow = analyze.lcs_code_bruteforce(RsCode(ev, 2), want_witness=False)
        assert fast.lcs_of_code == slow.lcs_of_code, ev


def test_corrects():
    # LCS 2 on n = 4: the code corrects one insdel error, not two
    code = RsCode(EvaluationVector(F7, (0, 1, 2, 5)), 2)
    assert analyze.lcs_code_bruteforce(code, want_witness=False).max_correctable == 1


@pytest.mark.parametrize("q", [7, 8, 9, 11, 13])
def test_capability_is_monotone_in_k(q):
    # RS_2 is a subcode of RS_3 on one ordering, so the code LCS cannot
    # fall from k = 2 to k = 3, and a class that fails at k = 2 fails at
    # k = 3; the t = 1 certificate is exact at both k
    fld = field_from_order(q)
    rng = random.Random(q)
    orderings = [(0, 1, *rng.sample(range(2, q), q - 2)) for _ in range(5)]
    orderings += [vec for _, _, vec in analyze.bad_ordering_family(fld)]
    for points in orderings:
        ev = EvaluationVector(fld, points)
        lcs2 = analyze.lcs_code_affine(ev, want_witness=False).lcs_of_code
        lcs3 = analyze.lcs_code_bruteforce(RsCode(ev, 3), want_witness=False).lcs_of_code
        certified2 = insdel.rank_certificate(RsCode(ev, 2), 1).certified
        certified3 = insdel.rank_certificate(RsCode(ev, 3), 1).certified
        assert lcs2 <= lcs3, points
        assert certified2 == (lcs2 <= q - 2) and certified3 == (lcs3 <= q - 2), points
        assert certified2 or not certified3, points


@pytest.mark.parametrize("q, two_runs, one_run", [(7, 4, 1), (8, 12, 0), (9, 8, 0)])
def test_two_runs_of_an_affine_map_fail_at_k3(q, two_runs, one_run):
    # an ordering is two runs of phi(x) = lam*x + mu != id when
    # alpha_(s+1) = phi(alpha_s) at every s but s0; with u = alpha_(s0),
    # v = alpha_(s0+1), f = (x - phi(u))(x - v) and g = f o phi give
    # g(alpha_s) = f(alpha_(s+1)) at every s, and f != g (f has degree
    # 2 < q, so its values decide), so the k = 3 code has a collision and
    # the t = 1 certificate refuses it.  A single run (GF(7)'s arithmetic
    # progression) is the case v = phi(u), at any s0
    fld = field_from_order(q)
    xs = np.arange(q)
    maps = [fld.v_add(fld.v_mul(xs, lam), mu) for lam in range(1, q) for mu in range(q) if (lam, mu) != (1, 0)]
    alphas, runs = np.array([ev.points for ev in canonical_orderings(fld)]), collections.Counter()
    for phi in maps:
        breaks = phi[alphas[:, :-1]] != alphas[:, 1:]
        keep = breaks.sum(axis=1) <= 1
        for alpha, jumps in zip(alphas[keep], breaks[keep]):
            s0 = jumps.argmax()
            u, v = alpha[s0 : s0 + 2]
            f = poly.eval_all(fld, (fld.mul(phi[u], v), fld.neg(fld.add(phi[u], v)), 1))
            assert np.array_equal(f[phi[alpha[:-1]]], f[alpha[1:]]) and (f[phi] != f).any(), (alpha, phi)
            assert not insdel.rank_certificate(RsCode(EvaluationVector(fld, tuple(alpha.tolist())), 3), 1).certified, alpha
            runs[int(jumps.sum())] += 1
    assert (runs[1], runs[0]) == (two_runs, one_run)


def test_half_singleton_floor_is_enforced():
    with pytest.raises(InvariantViolation):
        analyze._check_lcs_floor(1, 4, 2)
    with pytest.raises(InvariantViolation):
        analyze._check_lcs_floor(4, 4, 2)
    analyze._check_lcs_floor(2, 4, 2)


# -- optimality checker ------------------------------------------------------


def test_is_optimal_examples():
    assert analyze.is_optimal_half_rate(EvaluationVector(F7, (0, 1, 2, 5)), 2).optimal
    res = analyze.is_optimal_half_rate(EvaluationVector(F7, (0, 1, 2, 4)), 2)
    assert not res.optimal and res.witness is not None
    for tup in itertools.permutations(range(5), 4):
        assert not analyze.is_optimal_half_rate(EvaluationVector(field_new(5), tup), 2).optimal


def test_is_optimal_witness_is_a_real_collision():
    from rsinsdel import poly

    res = analyze.is_optimal_half_rate(EvaluationVector(F7, (0, 1, 2, 4)), 2)
    w = res.witness
    pts = (0, 1, 2, 4)
    f_vals = [poly.eval_poly(F7, tuple(w["f"]), pts[i - 1]) for i in w["I"]]
    g_vals = [poly.eval_poly(F7, tuple(w["g"]), pts[j - 1]) for j in w["J"]]
    assert f_vals == g_vals
    assert tuple(w["f"]) != tuple(w["g"])


def test_is_optimal_refuses_a_deficient_pair_without_collision(monkeypatch, capsys):
    # GF(7):0,1,2,5 is optimal; with g's constant column zeroed its first
    # index pair is deficient at a g column and leaves no free column of f,
    # which is a broken engine, never a collision
    build = insdel.build_V

    def without_g0(*args):
        matrices = build(*args)
        matrices[..., 0] = 0
        return matrices

    monkeypatch.setattr(insdel, "build_V", without_g0)
    message = r"^rank-deficient pair I=\[1, 2, 3\], J=\[1, 3, 4\] has no collision on GF\(7\):0,1,2,5$"
    with pytest.raises(InvariantViolation, match=message):
        analyze.is_optimal_half_rate(EvaluationVector(F7, (0, 1, 2, 5)), 2)
    argv = ["analyze", "--field", "7", "--alpha", "0,1,2,5", "--k", "2", "--method", "optimal"]
    assert cli.main(argv) == 4
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "InvariantViolation"


def test_is_optimal_agrees_with_bruteforce_k2():
    for q in (7, 8, 9, 11, 13):
        fld = field_new(*__import__("rsinsdel.gf", fromlist=["prime_power"]).prime_power(q))
        for a1 in range(2, fld.q):
            if a1 in (0, 1):
                continue
            for a2 in range(fld.q):
                if a2 in (0, 1, a1):
                    continue
                ev = EvaluationVector(fld, (0, 1, a1, a2))
                enum = analyze.is_optimal_half_rate(ev, 2).optimal
                brute = analyze.lcs_code_bruteforce(RsCode(ev, 2), want_witness=False)
                assert enum == brute.optimal, ev


def test_is_optimal_agrees_with_bruteforce_k3_random():
    rng = random.Random(89)
    for q in (11, 13):
        fld = field_new(q)
        for _ in range(8):
            pts = tuple(rng.sample(range(q), 6))
            ev = EvaluationVector(fld, pts)
            enum = analyze.is_optimal_half_rate(ev, 3).optimal
            brute = analyze.lcs_code_bruteforce(RsCode(ev, 3), want_witness=False)
            assert enum == brute.optimal, ev


def test_is_optimal_guard(monkeypatch):
    # k = 3: the rank sweep is 3 * 4 * 5^3 = 1500, refused before any pair is built
    ap = EvaluationVector(F7, (0, 1, 2, 3, 4, 5))
    monkeypatch.setattr(errors, "MAX_OPS", 1499)
    with monkeypatch.context() as m:
        m.setattr(insdel, "index_pairs", None)
        with pytest.raises(GuardExceeded, match="estimated work 1500 exceeds the limit of 1499"):
            analyze.is_optimal_half_rate(ap, 3)
    monkeypatch.setattr(errors, "MAX_OPS", 1500)
    assert analyze.is_optimal_half_rate(EvaluationVector(F7, (0, 1, 2, 5, 3, 4)), 3).optimal is True
    # the arithmetic progression leaves 6 deficient pairs, and the sweep's
    # limit is the only one: after it index_pairs checks the (6 - 3)(6 - 3 +
    # 1)/2 = 6 pairs it builds
    estimates = []
    check_work = errors.check_work
    monkeypatch.setattr(errors, "check_work", lambda work, *args: estimates.append(work) or check_work(work, *args))
    res = analyze.is_optimal_half_rate(ap, 3)
    assert estimates == [1500, 6]
    assert res.witness == {"f": [0, 1], "g": [6, 1], "I": [1, 2, 3, 4, 5], "J": [2, 3, 4, 5, 6]}
    # range(8) over GF(11), k = 4: 12 deficient pairs, answered at the sweep's 4 * 5 * 7^3 = 6860
    ap8 = EvaluationVector(field_new(11), tuple(range(8)))
    monkeypatch.setattr(errors, "MAX_OPS", 6860)
    assert analyze.is_optimal_half_rate(ap8, 4).witness == {
        "f": [0, 0, 1], "g": [1, 9, 1], "I": [1, 2, 3, 4, 5, 6, 7], "J": [2, 3, 4, 5, 6, 7, 8]
    }


def test_optimal_4_2_pair_examples():
    assert analyze.optimal_4_2_pair(F7, 2, 5)
    assert not analyze.optimal_4_2_pair(F7, 2, 4)
    assert not analyze.optimal_4_2_pair(F7, 3, 6)
    with pytest.raises(ValueError):
        analyze.optimal_4_2_pair(F7, 1, 5)
    with pytest.raises(ValueError):
        analyze.optimal_4_2_pair(F7, 2, 2)


# -- classifier and census ---------------------------------------------------


def test_classify_examples():
    v = analyze.classify_bad_ordering(EvaluationVector(F7, tuple(range(7))))
    assert v.bad and v.reason == analyze.REASON_ARITHMETIC
    v = analyze.classify_bad_ordering(EvaluationVector(F7, (0, 1, 3, 2, 6, 4, 5)))
    assert v.bad and v.reason == analyze.REASON_GEOMETRIC and v.witness["theta"] == 3
    v = analyze.classify_bad_ordering(EvaluationVector(F7, (0, 1, 2, 5, 3, 6, 4)))
    assert not v.bad and v.reason == analyze.REASON_NOT_BAD


def test_classify_requires_full_length():
    with pytest.raises(ValueError):
        analyze.classify_bad_ordering(EvaluationVector(F7, (0, 1, 2, 5)))


def test_classifier_matches_exact_engine_everywhere_small_q():
    # the executable both-directions check of the complete characterization
    for fld in (field_new(2, 2), field_new(5), F7, field_new(2, 3)):
        for ev in canonical_orderings(fld):
            bad = analyze.classify_bad_ordering(ev).bad
            exact = analyze.lcs_code_affine(ev, want_witness=False)
            assert bad == (exact.lcs_of_code == fld.q - 1), ev


def scan_classifier(ev):
    # independent route: equivalent() against every family member in family
    # order, the first hit wins (no canonical forms, no index)
    fld = ev.field
    for reason, theta, vec in analyze.bad_ordering_family(fld):
        w = equivalent(EvaluationVector(fld, vec), ev)
        if w is not None:
            return analyze.BadOrderingVerdict(True, reason, {"lam": w[0], "mu": w[1], "theta": theta})
    return analyze.BadOrderingVerdict(False, analyze.REASON_NOT_BAD, None)


def test_index_classifier_matches_scan_on_every_canonical_ordering():
    for q in (4, 5, 7, 8):
        fld = field_from_order(q)
        for ev in canonical_orderings(fld):
            assert analyze.classify_bad_ordering(ev) == scan_classifier(ev), ev


def test_index_classifier_matches_scan_on_sampled_orderings():
    for fld in (field_new(11), field_new(13), field_new(2, 4), field_new(5, 2), field_new(3, 3), field_new(2, 5)):
        rng = analyze.SplitMix64(2024 + fld.q)
        orderings = [analyze.random_ordering(fld.q, rng) for _ in range(150)]
        family = list(analyze.bad_ordering_family(fld))
        for _, _, vec in family:
            lam, mu = 1 + rng.below(fld.q - 1), rng.below(fld.q)
            orderings.append(tuple(fld.add(fld.mul(lam, x), mu) for x in vec))
        bad = 0
        for ordering in orderings:
            ev = EvaluationVector(fld, ordering)
            verdict = analyze.classify_bad_ordering(ev)
            assert verdict == scan_classifier(ev), ev
            bad += verdict.bad
        assert bad >= len(family)


def test_bad_classes_match_the_index_oracle(bad_class_index):
    # forms, class order and member order against canonical_form per member
    for q in (3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64, 81, 128, 256):
        fld = field_from_order(q)
        assert list(analyze.bad_classes(fld)) == list(bad_class_index(fld).items()), q


def test_census_gf11_full():
    fld = field_new(11)
    c = analyze.census_2dim(fld, max_classes=math.factorial(9))
    assert (c.classes_total, c.classes_correcting_one, len(c.bad_classes)) == (362_880, 362_871, 9)
    assert {e["alpha"] for e in c.bad_classes} == {
        e["alpha"] for e in bounds.bad_class_count(fld).classes
    }
    assert c.verified == len(range(0, 362_880, 362_880 // 200))


def test_census_small_fields():
    c = analyze.census_2dim(field_new(2, 2))
    assert (c.classes_total, c.classes_correcting_one) == (2, 0)
    c = analyze.census_2dim(field_new(5))
    assert (c.classes_total, c.classes_correcting_one) == (6, 1)
    assert c.reason_counts == {
        analyze.REASON_ARITHMETIC: 1,
        analyze.REASON_GEOMETRIC: 2,
        analyze.REASON_REVERSED: 2,
    }
    c = analyze.census_2dim(F7)
    assert (c.classes_total, c.classes_correcting_one) == (120, 115)


def test_census_q5_q7_against_raw_all_pairs_scan():
    # third route: no normalization, no equivalence, no classifier - just the
    # maximum LCS over every one of the q^2-choose-2 codeword pairs
    from conftest import lcs
    from rsinsdel.rscode import codewords

    for q, expected_good in [(5, 1), (7, 115)]:
        fld = field_new(q)
        good = 0
        for ev in canonical_orderings(fld):
            words = [w for _, w in codewords(RsCode(ev, 2))]
            best = 0
            for a, b in itertools.combinations(words, 2):
                val = lcs(a, b)
                if val > best:
                    best = val
                    if best == q - 1:
                        break
            if best == q - 1:
                continue
            good += 1
        assert good == expected_good, q
        census = analyze.census_2dim(fld)
        assert census.classes_correcting_one == good


def test_census_flags_classifier_disagreeing_with_exact_engine(monkeypatch):
    # an enumerator missing every bad class must trip the exact cross-check
    monkeypatch.setattr(analyze, "bad_classes", lambda fld: iter(()))
    with pytest.raises(InvariantViolation, match="disagrees"):
        analyze.census_2dim(field_new(5), verify="all")


def test_census_guard():
    with pytest.raises(GuardExceeded):
        analyze.census_2dim(field_new(11))


def test_census_needs_q_at_least_3():
    with pytest.raises(ValueError, match="needs q >= 3"):
        analyze.census_2dim(field_new(2))
    assert analyze.census_2dim(field_new(3)).classes_total == 1


def test_classification_needs_q_at_least_3():
    f2 = field_new(2)
    calls = (
        lambda: list(analyze.bad_classes(f2)),
        lambda: analyze.classify_bad_ordering(EvaluationVector(f2, (0, 1))),
        lambda: bounds.bad_class_count(f2),
        lambda: cli.table_rows((2,)),
    )
    for call in calls:
        with pytest.raises(ValueError, match="needs q >= 3"):
            call()
    assert analyze.classify_bad_ordering(EvaluationVector(field_new(3), (0, 1, 2))).bad


def test_bad_classes_guard(monkeypatch):
    # 2 * phi(65536) + 1 = 65537 family vectors of length 65537
    message = r"^elements of the bad family of GF\(65537\): estimated work 4295098369 exceeds the limit of 100000000$"
    with pytest.raises(GuardExceeded, match=message):
        next(analyze.bad_classes(field_new(65537)))
    # GF(7): (2 * phi(6) + 1) * 7 = 35 elements
    monkeypatch.setattr(errors, "MAX_OPS", 34)
    with pytest.raises(GuardExceeded, match=r"^elements of the bad family of GF\(7\): estimated work 35 exceeds the limit of 34"):
        next(analyze.bad_classes(F7))
    monkeypatch.setattr(errors, "MAX_OPS", 35)
    assert len(list(analyze.bad_classes(F7))) == 5


def test_census_thread_invariance(capsys):
    # the census runs serially; the CLI's --threads leaves its result as is
    want = json.loads(cli.dumps(analyze.census_2dim(field_new(5))))
    assert cli.main(["census", "--field", "5", "--threads", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == want


def test_census_refuses_before_walking_the_bad_family(monkeypatch):
    def walked(fld):
        raise AssertionError("the bad family was walked")

    monkeypatch.setattr(analyze, "bad_classes", walked)
    # an unknown verify mode, at GF(16) (over the default max_classes) and at GF(7)
    for fld in (field_new(2, 4), F7):
        with pytest.raises(ValueError, match="unknown verify mode 'bogus'"):
            analyze.census_2dim(fld, verify="bogus")
    # verification over the kernel limit: 14! classes of GF(16) at 1,024
    # word-steps each, 200 of GF(151) at 5,198,628, 11! of GF(13) at 338
    refused = [
        (field_new(2, 4), "all", "verifying 87178291200 classes of GF\\(2\\^4\\): estimated work 89270570188800 "),
        (field_new(151), "auto", "verifying 200 classes of GF\\(151\\): estimated work 1039725600 "),
        (field_new(13), "all", "estimated work 13491878400 "),
    ]
    for fld, verify, message in refused:
        t0 = time.perf_counter()
        with pytest.raises(GuardExceeded, match=message):
            analyze.census_2dim(fld, max_classes=10**300, verify=verify)
        assert time.perf_counter() - t0 < 1.0
    # GF(149)'s default verification, 200 classes at 4,995,225 word-steps, and
    # GF(11)'s 9! classes at 242 are admitted and walk the bad family
    for fld, verify in ((field_new(149), "auto"), (field_new(11), "all")):
        with pytest.raises(AssertionError, match="walked"):
            analyze.census_2dim(fld, max_classes=10**300, verify=verify)


def test_bruteforce_analyze_evaluates_only_the_witness(monkeypatch, capsys):
    # a fully scanned code (LCS 2k - 2): every scanned codeword comes from
    # the one table, so eval_on runs only for the witness pair
    calls = []
    eval_on = poly.eval_on
    monkeypatch.setattr(poly, "eval_on", lambda fld, f, xs: calls.append(tuple(f)) or eval_on(fld, f, xs))
    assert cli.main(["analyze", "--field", "23", "--k", "3", "--alpha", "4,18,2,8,3,15"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["lcs_of_code"] == 4
    assert calls == [tuple(result["witness"]["f"]), tuple(result["witness"]["g"])]


def test_threads_below_one_rejected(capsys):
    # --threads is checked once, in the CLI, before any work
    commands = (
        ["census", "--field", "5"],
        ["sample", "--field", "16", "--delta", "0.5", "--trials", "0", "--seed", "1"],
        ["construct", "--field", "7", "--k", "2"],
        ["table1", "--qs", "11"],
    )
    for threads in ("0", "-1"):
        for argv in commands:
            assert cli.main([*argv, "--threads", threads]) == 2
            assert "threads" in json.loads(capsys.readouterr().err)["error"]["message"]


# -- sampling ----------------------------------------------------------------


def test_splitmix_determinism_and_permutation_validity():
    rng = analyze.SplitMix64(42)
    first = [rng.next_u64() for _ in range(4)]
    rng2 = analyze.SplitMix64(42)
    assert [rng2.next_u64() for _ in range(4)] == first
    ordering = analyze.random_ordering(16, analyze.SplitMix64(7))
    assert sorted(ordering) == list(range(16))
    assert analyze.random_ordering(16, analyze.SplitMix64(7)) == ordering


def test_sample_trivial_cases():
    f16 = field_new(2, 4)
    empty = analyze.sample_orderings(f16, "0.5", 0, seed=1)
    assert empty.lcs_values == () and empty.fraction_correcting == 0.0
    vac = analyze.sample_orderings(f16, "1", 5, seed=1)
    assert vac.fraction_correcting == 1.0  # threshold q-1 always holds


def test_sample_reproducible_across_threads(capsys):
    # trials run serially; the CLI's --threads leaves the result as is
    want = json.loads(cli.dumps(analyze.sample_orderings(field_new(2, 4), "0.5", 12, seed=9)))
    argv = ["sample", "--field", "16", "--delta", "0.5", "--trials", "12", "--seed", "9", "--threads", "4"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"] == want


def test_sample_guard(monkeypatch):
    # trials full affine scans of the (q + 1) // 2 patterns A*alpha against
    # the q rows alpha - B, one word-step per word of each pattern and
    # symbol, refused before the first trial
    monkeypatch.setattr(analyze, "lcs_code_affine", None)
    for q, trials, work in ((587, 1, 1_013_032_860), (257, 24, 24 * 42_601_605)):
        with pytest.raises(GuardExceeded, match=f"estimated work {work} exceeds the limit of 1000000000"):
            analyze.sample_orderings(field_new(q), "0.5", trials, seed=0)
