"""The census against the per-ordering scan it replaced, and its pinned rows.

census_2dim visits only the bad classes (the forms of analyze.bad_classes)
and the verified ones, in rank order, measuring the latter in blocks of the
batched affine core.  The oracle here is the scan it replaced: every
(0, 1)-prefixed ordering, in itertools.permutations order and in chunks,
looked up in the bad-class index built member by member (the
bad_class_index fixture), each verified class re-measured by the
one-ordering engine.
"""

import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest

from rsinsdel import analyze, bounds, cli, errors
from rsinsdel.errors import InvariantViolation
from rsinsdel.gf import field_from_order, field_new
from rsinsdel.rscode import EvaluationVector

ORACLE_CHUNK = 512
DIFFERENTIAL_QS = (3, 4, 5, 7, 8, 9, 11)
# verify="all" runs up to REAL_ALL_MAX_Q, where the oracle re-measures
# every class with the one-ordering engine; GF(11), whose 362,880 classes
# take that engine tens of seconds, runs "spot" and "none" only.
REAL_ALL_MAX_Q = 9


def _oracle_chunk(fld, index, verify_idx, chunk):
    base, perms = chunk
    bad_entries = []
    for off, perm in enumerate(perms):
        points = (0, 1) + perm
        bad = points in index
        verify = base + off in verify_idx
        if not (bad or verify):
            continue
        ev = EvaluationVector(fld, points)
        if bad:
            verdict = analyze.classify_bad_ordering(ev)
            bad_entries.append({"alpha": ev.serialize(), "reason": verdict.reason, "witness": verdict.witness})
        if verify and bad != (analyze.lcs_code_affine(ev, want_witness=False).lcs_of_code == fld.q - 1):
            raise InvariantViolation(f"classifier disagrees with exact LCS on {ev.serialize()}")
    return bad_entries


def census_oracle(fld, index, verify):
    """The census as the per-ordering scan over all (q-2)! classes."""
    q = fld.q
    total = math.factorial(q - 2)
    verify_idx = {
        "all": range(total),
        "spot": range(0, total, max(1, total // analyze.SPOT_CHECKS)),
        "none": range(0),
    }[verify]
    perms = itertools.permutations(range(2, q))
    chunks = ((i, tuple(itertools.islice(perms, ORACLE_CHUNK))) for i in range(0, total, ORACLE_CHUNK))
    bad_entries = [entry for chunk in chunks for entry in _oracle_chunk(fld, index, verify_idx, chunk)]
    good = total - len(bad_entries)
    return analyze.CensusResult(
        q=q,
        classes_total=total,
        classes_correcting_one=good,
        proportion=good / total,
        bad_classes=tuple(bad_entries),
        reason_counts=dict(Counter(entry["reason"] for entry in bad_entries)),
        verified=len(verify_idx),
    )


@pytest.fixture
def exact_engine(monkeypatch):
    """Record every class the one-ordering engine re-measures."""
    calls = []
    real_engine = analyze.lcs_code_affine

    def engine(ev, want_witness=True):
        calls.append(ev.points)
        return real_engine(ev, want_witness)

    monkeypatch.setattr(analyze, "lcs_code_affine", engine)
    return calls


@pytest.mark.parametrize("q", DIFFERENTIAL_QS)
def test_census_matches_per_ordering_scan(q, exact_engine, bad_class_index):
    fld = field_from_order(q)
    total = math.factorial(q - 2)
    index = bad_class_index(fld)
    for verify in ("all", "spot", "none") if q <= REAL_ALL_MAX_Q else ("spot", "none"):
        del exact_engine[:]
        want = census_oracle(fld, index, verify)
        oracle_calls = Counter(exact_engine)
        del exact_engine[:]
        got = analyze.census_2dim(fld, max_classes=total, verify=verify)
        assert got == want, (q, verify)
        assert len(oracle_calls) == want.verified
        # the census measures the other verified classes in blocks of the batched core
        verified_bad = Counter({points: n for points, n in oracle_calls.items() if points in index})
        assert Counter(exact_engine) == verified_bad, (q, verify)


def test_census_names_the_first_disagreement_in_rank_order(monkeypatch):
    # GF(7)'s bad classes have ranks 0, 28, 70, 88 and 102.  A bad class
    # left out of the bad list reaches q - 1 in the batched core; a good
    # class put in it stays below q - 1 in the one-ordering engine.
    fld = field_new(7)
    forms = [(0, 1) + perm for perm in itertools.permutations(range(2, 7))]
    classes = list(analyze.bad_classes(fld))
    assert sorted(forms.index(form) for form, _ in classes) == [0, 28, 70, 88, 102]
    cases = (
        (28, [29], 28),  # a bad class missing before a good one listed
        (28, [27], 27),  # a good class listed before a bad one missing
        (None, [40, 33], 33),  # good classes listed, out of rank order
    )
    for missing, listed, first in cases:
        bad = [entry for entry in classes if entry[0] != forms[missing]] if missing else classes
        bad += [(forms[rank], [(analyze.REASON_ARITHMETIC, None)]) for rank in listed]
        monkeypatch.setattr(analyze, "bad_classes", lambda fld: iter(bad))
        # every class in one chunk, and in chunks of 3
        for budget in (1 << 20, 3 * 8 * 7):
            monkeypatch.setattr(errors, "BLOCK_BYTES", budget)
            with pytest.raises(InvariantViolation) as raised:
                analyze.census_2dim(fld, verify="all")
            named = EvaluationVector(fld, forms[first]).serialize()
            assert str(raised.value) == f"classifier disagrees with exact LCS on {named}", (missing, listed, budget)


def test_decode_matches_permutations_for_small_n():
    # every rank of GF(n + 2), decoded at once, against itertools, and each
    # class's rank read back
    for n in range(1, 8):
        q = n + 2
        perms = [(0, 1) + perm for perm in itertools.permutations(range(2, q))]
        assert analyze._decode_classes(q, np.arange(len(perms))).tolist() == [list(p) for p in perms], n
        assert [analyze._class_rank(p) for p in perms] == list(range(len(perms))), n


def test_decode_gf11_first_last_and_spot_indices():
    q, total = 11, math.factorial(9)
    wanted = {0, total - 1, *range(0, total, total // analyze.SPOT_CHECKS)}
    perms = itertools.permutations(range(2, q))
    expected = [(0, 1) + perm for i, perm in enumerate(perms) if i in wanted]
    assert analyze._decode_classes(q, np.array(sorted(wanted))).tolist() == [list(p) for p in expected]
    assert expected[0] == tuple(range(q)) and expected[-1] == (0, 1) + tuple(range(q - 1, 1, -1))


def test_decode_ranks_beyond_64_bits():
    # GF(149)'s spot ranks reach 147! - 1, far above 2^63: decoded as Python
    # integers, each is a (0, 1)-prefixed ordering whose rank reads back, and
    # the last of all ranks is the descending one
    q, total = 149, math.factorial(147)
    ranks = list(range(0, total, total // analyze.SPOT_CHECKS)) + [total - 1]
    rows = analyze._decode_classes(q, np.array(ranks, dtype=object))
    assert rows.dtype == np.int64 and rows.shape == (len(ranks), q)
    assert all(sorted(row) == list(range(q)) and row[:2] == [0, 1] for row in rows.tolist())
    assert [analyze._class_rank(row) for row in rows.tolist()] == ranks
    assert rows[-1].tolist() == [0, 1] + list(range(q - 1, 1, -1))


@pytest.mark.parametrize(
    "key",
    [
        (0, 2, 1, 3, 4),  # not (0, 1)-prefixed
        (0, 1, 2, 2, 4),  # repeats an element
        (0, 1, 2, 3),  # not full length
        (0, 1, 2, 3, 5),  # not an element of GF(5)
    ],
)
def test_census_refuses_malformed_index_key(monkeypatch, key):
    fld = field_new(5)
    classes = list(analyze.bad_classes(fld))
    classes.append((key, [(analyze.REASON_ARITHMETIC, None)]))
    monkeypatch.setattr(analyze, "bad_classes", lambda fld: iter(classes))
    for verify in ("all", "none"):
        with pytest.raises(InvariantViolation, match="not a \\(0, 1\\)-prefixed ordering of GF\\(5\\)"):
            analyze.census_2dim(fld, verify=verify)


def test_census_refuses_a_negative_max_classes_before_any_work(capsys, monkeypatch):
    fld = field_new(5)
    monkeypatch.setattr(analyze, "bad_classes", None)  # reached only after the limits are checked
    with pytest.raises(ValueError, match="^max_classes must be >= 0, got -3$"):
        analyze.census_2dim(fld, max_classes=-3)
    monkeypatch.undo()
    # 0 stays a limit: every census has at least one class, so it refuses with exit 3
    runs = (("-3", 2, "max_classes must be >= 0, got -3"), ("0", 3, "(q-2)! = 6 exceeds max_classes=0"))
    for limit, expected, message in runs:
        code = cli.main(["census", "--field", "5", "--max-classes", limit])
        out, err = capsys.readouterr()
        assert (code, out) == (expected, "")
        assert json.loads(err)["error"]["message"] == message


def test_census_gf13_row_through_cli(capsys):
    # 11! = 39,916,800 classes: the old per-ordering scan took over 10 s
    code = cli.main(["census", "--field", "13", "--max-classes", "39916800"])
    result = json.loads(capsys.readouterr().out)["result"]
    assert code == 0
    assert result["classes_correcting_one"] == 39_916_791 == bounds.good_class_lower_bound(13)
    bad = result["classes_total"] - result["classes_correcting_one"]
    assert bad == bounds.bad_class_count(field_new(13)).count == 9


def test_census_gf16_row():
    fld = field_new(2, 4)
    census = analyze.census_2dim(fld, max_classes=math.factorial(14))
    assert census.classes_correcting_one == 87_178_291_184 == bounds.good_class_lower_bound(16)
    assert census.classes_total - census.classes_correcting_one == bounds.bad_class_count(fld).count == 16
    assert census.verified == len(range(0, math.factorial(14), math.factorial(14) // analyze.SPOT_CHECKS))
