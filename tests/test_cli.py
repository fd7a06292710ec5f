"""Tests for the command-line interface."""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsinsdel import analyze, cli, rscode

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def replay_golden(capsys, name):
    golden = json.loads((GOLDEN / name).read_text())
    for command, expected in golden.items():
        code, out, err = run_cli(capsys, *command.split())
        assert code == 0, err
        assert out == expected, command


def test_analyze_brute(capsys):
    doc = run_json(capsys, "analyze", "--field", "7", "--k", "2", "--alpha", "0,1,2,5")
    assert doc["schema"] == 2
    assert doc["result"]["lcs_of_code"] == 2
    assert doc["result"]["optimal"] is True
    assert doc["result"]["max_correctable"] == 1


def test_analyze_affine(capsys):
    doc = run_json(
        capsys, "analyze", "--field", "7", "--k", "2", "--alpha", "0,1,2,3,4,5,6", "--method", "affine"
    )
    assert doc["result"]["max_correctable"] == 0


def test_analyze_certificate(capsys):
    doc = run_json(
        capsys,
        "analyze", "--field", "7", "--k", "2", "--alpha", "0,1,2,5",
        "--method", "certificate", "--t", "1",
    )
    assert doc["result"]["certified"] is True


def test_analyze_optimal_method(capsys):
    doc = run_json(
        capsys, "analyze", "--field", "7", "--k", "2", "--alpha", "0,1,2,4", "--method", "optimal"
    )
    assert doc["result"]["optimal"] is False


def test_analyze_gf_prefixed_alpha(capsys):
    doc = run_json(capsys, "analyze", "--alpha", "GF(3^4):0,1,2,5", "--k", "2")
    assert doc["params"]["alpha"] == "GF(3^4):0,1,2,5"


def test_parse_error_exit_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "--field", "7", "--k", "2", "--alpha", "0,1,zz")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ValueError"
    assert out == ""


def test_usage_error_exit_2(capsys):
    # argparse's own errors are JSON errors with exit 2, like every other
    # usage error
    code, out, err = run_cli(capsys, "analyze")  # missing required flags
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"type": "ValueError", "message": "rsinsdel analyze: the following arguments are required: --alpha, --k"}


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "rsinsdel: the following arguments are required: command"),
        (["bogus"], "rsinsdel: argument command: invalid choice: 'bogus'"),
        (["bounds", "nope"], "rsinsdel bounds: argument bound: invalid choice: 'nope'"),
        (["analyze", "--field", "7", "--alpha", "0,1,2,5", "--k", "x"], "rsinsdel analyze: argument --k: invalid int value: 'x'"),
        (["construct", "--field", "7"], "rsinsdel construct: the following arguments are required: --k"),
        (["census", "--field", "5", "--bogus"], "rsinsdel: unrecognized arguments: --bogus"),
    ],
    ids=["no-command", "unknown-command", "unknown-bound", "non-integer", "missing-flag", "unknown-flag"],
)
def test_parse_errors_are_json_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError" and error["message"].startswith(message), error


def test_help_stays_plain_text(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["construct", "--help"])
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.out.startswith("usage: rsinsdel construct") and captured.err == ""


def test_classify(capsys):
    doc = run_json(capsys, "classify", "--field", "7", "--alpha", "0,1,2,3,4,5,6")
    assert doc["result"]["reason"] == "arithmetic_progression"


def test_classify_answers_on_gf65521(capsys):
    # an O(q) test per ordering: no bad family of 2*phi(65520)+1 vectors is built
    from rsinsdel.gf import field_new

    fld = field_new(65521)
    theta = fld.primitive_elements()[-1]
    member = [0, 1]
    for _ in range(fld.q - 2):
        member.append(fld.mul(member[-1], theta))
    member.reverse()
    scaled = [fld.add(fld.mul(12345, x), 678) for x in member]
    for ordering, reason in ((range(fld.q), "arithmetic_progression"), (scaled, "reversed_geometric")):
        t0 = time.perf_counter()
        doc = run_json(capsys, "classify", "--field", "65521", "--alpha", ",".join(map(str, ordering)))
        assert time.perf_counter() - t0 < 1.0
        result = doc["result"]
        assert result["bad"] and result["reason"] == reason
        lam, mu, got_theta = (result["witness"][key] for key in ("lam", "mu", "theta"))
        if reason == "arithmetic_progression":
            assert (lam, mu, got_theta) == (1, 0, None)
        else:
            assert got_theta == theta
            assert [fld.add(fld.mul(lam, x), mu) for x in member] == scaled


def test_census_and_guard(capsys):
    doc = run_json(capsys, "census", "--field", "5")
    assert doc["result"]["classes_correcting_one"] == 1
    code, out, err = run_cli(capsys, "census", "--field", "11")
    assert code == 3
    assert json.loads(err)["error"]["type"] == "GuardExceeded"


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--field", "1048573"),
        ("census", "--field", "1567"),
        ("table1", "--qs", "1048573"),
    ],
)
def test_large_q_class_guards_exit_3_at_once(capsys, argv):
    # (q-2)! is compared with its limit without being built
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["type"] == "GuardExceeded"


def test_analyze_affine_guard_exit_3_at_once(capsys, monkeypatch):
    # 511 patterns of 1021 symbols, 16 words each, against 1021 rows: refused before any table is built
    alpha = ",".join(map(str, range(1021)))
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", "--field", "1021", "--k", "2", "--alpha", alpha, "--method", "affine")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "GuardExceeded"
    assert error["message"] == (
        "kernel word-steps of the affine scan of GF(1021): estimated work 8522997616 exceeds the limit of 1000000000"
    )

    class Admitted(Exception):
        pass

    def kernel(patterns, alphabet, rows):
        raise Admitted

    # q = 577 (962,164,810 word-steps) passes the guard and reaches the kernel
    monkeypatch.setattr(analyze, "lcs_from_masks", kernel)
    with pytest.raises(Admitted):
        cli.main(["analyze", "--field", "577", "--k", "2", "--alpha", ",".join(map(str, range(577))), "--method", "affine"])


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--field", "5"),
        ("sample", "--field", "16", "--delta", "0.5", "--trials", "2", "--seed", "1"),
        ("construct", "--field", "7", "--k", "2"),
        ("table1", "--qs", "11"),
        ("census", "--field", "13"),
        ("sample", "--field", "256", "--delta", "0.5", "--trials", "1", "--seed", "1"),
    ],
)
def test_threads_below_one_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--threads", "0")
    assert code == 2 and out == ""
    assert "threads" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("bound", sorted(cli.BOUND_REQUIRED))
def test_bounds_missing_arguments_exit_2(capsys, bound):
    code, out, err = run_cli(capsys, "bounds", bound)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    for name in cli.BOUND_REQUIRED[bound]:
        assert f"--{name}" in error["message"]


def test_invariant_violation_exit_4(capsys, monkeypatch):
    from rsinsdel.errors import InvariantViolation

    def boom(*args, **kwargs):
        raise InvariantViolation("forced for the exit-code test")

    monkeypatch.setattr(cli.analyze, "census_2dim", boom)
    code, out, err = run_cli(capsys, "census", "--field", "5")
    assert code == 4
    assert json.loads(err)["error"]["type"] == "InvariantViolation"


def test_sample_reproducible(capsys):
    args = ("sample", "--field", "16", "--delta", "0.5", "--trials", "6", "--seed", "42")
    a = run_cli(capsys, *args)
    b = run_cli(capsys, *args)
    assert a == b
    doc = json.loads(a[1])
    assert doc["result"]["trials"] == 6


def test_sample_runs_above_q_128(capsys):
    # one GF(2^8) scan is 128 patterns of 256 symbols, 4 words each, against 256 rows: 33,554,432 word-steps
    doc = run_json(capsys, "sample", "--field", "256", "--delta", "0.5", "--trials", "1", "--seed", "1")
    assert len(doc["result"]["lcs_values"]) == 1


def test_sample_thread_count_invariance(capsys):
    base = ("sample", "--field", "16", "--delta", "0.5", "--trials", "6", "--seed", "7")
    a = run_cli(capsys, *base, "--threads", "1")
    b = run_cli(capsys, *base, "--threads", "4")
    assert a[1] == b[1]


def test_construct(capsys):
    doc = run_json(capsys, "construct", "--field", "7", "--k", "2")
    assert doc["result"]["alpha"] == "GF(7):0,1,2,5"


def test_construct_stage_guard_exit_3(capsys):
    code, out, err = run_cli(capsys, "construct", "--field", "76837", "--k", "9")
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "GuardExceeded"
    assert error["message"] == (
        "units of the row sweep of stages 3..9 at q=76837: estimated work 3361291980 exceeds the limit of 2000000000"
    )


def test_construct_k7_at_its_guaranteed_field_size(capsys):
    # the least prime above min_field_size(7) is admitted, and every stage
    # passes the exact check
    result = run_json(capsys, "construct", "--field", "23789", "--k", "7")["result"]
    assert result["alpha"] == "GF(23789):0,1,2,5,3,4,6,10,7,8,9,12,11,13"
    assert [s["verification"] for s in result["stages"]] == ["exact_optimal"] * 6


def test_construct_matches_golden_file(capsys):
    # construct traces pinned byte for byte, as table1.json pins table1
    replay_golden(capsys, "construct.json")


def test_commands_match_golden_file(capsys):
    # analyze, classify, census, sample and bounds reports pinned byte for byte
    replay_golden(capsys, "commands.json")


def test_benchmark_tracer_finds_and_restores_its_seams(capsys, monkeypatch):
    # the benchmark's tracer patches fixed names; a rename breaks it here first
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing

    seams = [(owner, attr) for owner, attr, _ in tracing.SPANS.values()]
    originals = [getattr(owner, attr) for owner, attr in seams]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, out, err = run_cli(capsys, "census", "--field", "7")
    finally:
        tracer.remove()
    assert code == 0, err
    assert tracer.spans["analyze.census_2dim"].calls == 1
    assert analyze.equivalent is rscode.equivalent
    assert [getattr(owner, attr) for owner, attr in seams] == originals


def test_benchmark_tracer_sees_the_construct_layers(capsys, monkeypatch):
    # the traced construct workload needs calls in each of these spans
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, out, err = run_cli(capsys, "construct", "--field", "251", "--k", "3", "--verify", "certificate")
    finally:
        tracer.remove()
    assert code == 0, err
    for name in ("poly.rank", "poly.solve_linear", "poly.eval_all", "insdel.rank_certificate", "construct.extend"):
        assert tracer.spans[name].calls > 0, name


def test_default_exact_construct_matches_certificate_golden(capsys):
    # the default exact check admits k = 4 at q = 1367 and builds the same code
    golden = json.loads((GOLDEN / "construct.json").read_text())
    certified = json.loads(golden["construct --field 1367 --k 4 --verify certificate"])
    exact = run_json(capsys, "construct", "--field", "1367", "--k", "4")
    for doc, mode in ((exact, "exact"), (certified, "certificate")):
        assert doc["params"].pop("verify") == doc["result"].pop("verify_mode") == mode
    assert [s.pop("verification") for s in exact["result"]["stages"]] == ["exact_optimal"] * 3
    assert [s.pop("verification") for s in certified["result"]["stages"]] == ["rank_certified"] * 3
    assert exact == certified


def test_certificate_guard_exit_3(capsys):
    alpha = ",".join(str(x) for x in range(20))
    code, out, err = run_cli(
        capsys, "analyze", "--field", "23", "--alpha", alpha, "--k", "2", "--method", "certificate", "--t", "10"
    )
    assert code == 3
    assert json.loads(err)["error"]["type"] == "GuardExceeded"


def test_census_q2_exit_2(capsys):
    code, out, err = run_cli(capsys, "census", "--field", "2")
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError" and "needs q >= 3" in error["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--field", "2", "--alpha", "0,1"),
        ("bounds", "bad-classes", "--q", "2"),
        ("table1", "--qs", "2"),
    ],
)
def test_classification_q2_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError" and "needs q >= 3" in error["message"]


def test_bad_classes_guard_exit_3(capsys):
    code, out, err = run_cli(capsys, "bounds", "bad-classes", "--q", "65537")
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "GuardExceeded"
    assert error["message"] == (
        "elements of the bad family of GF(65537): estimated work 4295098369 exceeds the limit of 100000000"
    )
    for q in (3, 4, 5, 7, 8, 9, 11, 13, 16):
        assert run_json(capsys, "bounds", "bad-classes", "--q", str(q))["result"]["values"]["count"] >= 1


def test_construct_no_base_case_exit_2(capsys):
    # below the guarantee the precondition trips first...
    code, out, err = run_cli(capsys, "construct", "--field", "5", "--k", "2")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ValueError"
    # ...and with the override the scan itself reports the impossibility
    code, out, err = run_cli(capsys, "construct", "--field", "5", "--k", "2", "--allow-small-q")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "NoBaseCaseError"


def test_bounds_commands(capsys):
    doc = run_json(capsys, "bounds", "half-singleton", "--n", "4", "--k", "2")
    assert doc["result"]["values"]["max_correctable"] == 1
    doc = run_json(capsys, "bounds", "class-lower-bound", "--q", "8")
    assert doc["result"]["values"]["lower_bound"] == 708
    doc = run_json(capsys, "bounds", "bad-classes", "--q", "7")
    assert doc["result"]["values"]["count"] == 5
    doc = run_json(capsys, "bounds", "fail-count-bound", "--q", "7", "--ell", "7")
    assert doc["result"]["values"]["bad_orderings_at_most"] == 0
    doc = run_json(capsys, "bounds", "tail-bound", "--q", "256", "--delta", "0.25")
    assert doc["result"]["verdict"] is True


def test_table_json(capsys):
    doc = run_json(capsys, "table1", "--qs", "4,5,7")
    rows = doc["result"]["rows"]
    assert [r["q"] for r in rows] == [4, 5, 7]
    assert rows[0]["proportion_3dp"] == "0.000"
    assert rows[1]["proportion_3dp"] == "0.167"
    assert rows[2]["proportion_3dp"] == "0.958"


def test_table_dedup_path(capsys):
    doc = run_json(capsys, "table1", "--qs", "11,13")
    rows = doc["result"]["rows"]
    assert all(r["method"] == "bad_family_dedup" for r in rows)
    assert all(r["proportion_3dp"] == "0.999" for r in rows)


def test_table_matches_golden_file(capsys):
    golden = (GOLDEN / "table1.json").read_text()
    code, out, err = run_cli(capsys, "table1", "--qs", "4,5,7,8,9,11,13")
    assert code == 0
    assert out == golden


def test_table_csv(capsys):
    code, out, err = run_cli(capsys, "table1", "--qs", "4,5", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("q,method,")
    assert lines[1].startswith("4,census,2,0,0.000")


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "analyze", "--field", "7", "--k", "2", "--alpha", "0,1,2,5", "--output", str(target)
    )
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["result"]["optimal"] is True


# Orders above the ceiling are refused before any primality test or
# factorization, and the fail-count sum before any factorial.
QUICK_REFUSALS = [
    pytest.param(2, ("census", "--field", "1000000000000000003"), id="2-argv45"),
    pytest.param(2, ("census", "--field", "1000000000000000003^1"), id="2-argv46"),
    pytest.param(2, ("classify", "--alpha", "GF(1000000000000000003):0,1"), id="2-argv47"),
    pytest.param(2, ("bounds", "bad-classes", "--q", "1000000000000000003"), id="2-argv48"),
    pytest.param(3, ("bounds", "tail-bound", "--q", "8000", "--delta", "0.5"), id="3-argv49"),
    pytest.param(3, ("bounds", "fail-count-bound", "--q", "1000000000", "--ell", "500000000"), id="3-argv50"),
]
# One malformed or out-of-range input per row, with its documented exit code.
# Every row names its own id, so adding or deleting a row renames no other;
# the "N-argvI" ids are the positional names the rows had before.
MALFORMED = [
    pytest.param(2, ("analyze", "--field", "6", "--k", "2", "--alpha", "0,1,2"), id="2-argv0"),
    pytest.param(2, ("analyze", "--field", "2^0", "--k", "2", "--alpha", "0,1,2"), id="2-argv1"),
    pytest.param(2, ("analyze", "--field", "4^2", "--k", "2", "--alpha", "0,1,2"), id="2-argv2"),
    pytest.param(2, ("analyze", "--field", "2^30", "--k", "2", "--alpha", "0,1,2"), id="2-argv3"),
    pytest.param(2, ("analyze", "--field", "x", "--k", "2", "--alpha", "0,1,2"), id="2-argv4"),
    pytest.param(2, ("analyze", "--k", "2", "--alpha", "0,1,2"), id="2-argv5"),
    pytest.param(2, ("analyze", "--k", "2", "--alpha", "GF(7:0,1"), id="2-argv6"),
    pytest.param(2, ("analyze", "--field", "7", "--k", "2", "--alpha", "0,1,9"), id="2-argv7"),
    pytest.param(2, ("analyze", "--field", "7", "--k", "2", "--alpha", "0,1,1"), id="2-argv8"),
    pytest.param(2, ("analyze", "--field", "7", "--k", "2", "--alpha", ""), id="2-argv9"),
    pytest.param(2, ("analyze", "--field", "7", "--k", "0", "--alpha", "0,1,2"), id="2-argv10"),
    pytest.param(2, ("analyze", "--field", "7", "--k", "3", "--alpha", "0,1,2"), id="2-argv11"),
    # 176 passes of 8 patterns against 37^4 rows of 5: 1,649,261,680 word-steps
    pytest.param(3, ("analyze", "--field", "37", "--k", "4", "--alpha", "0,1,2,3,4"), id="3-argv12"),
    pytest.param(2, ("analyze", "--field", "7", "--k", "3", "--alpha", "0,1,2,3", "--method", "affine"), id="2-argv13"),
    pytest.param(2, ("analyze", "--field", "7", "--k", "2", "--alpha", "0,1,2", "--method", "affine"), id="2-argv14"),
    pytest.param(
        2, ("analyze", "--field", "7", "--k", "2", "--alpha", "0,1,2,5", "--method", "certificate"), id="2-argv15"
    ),
    pytest.param(
        2,
        ("analyze", "--field", "7", "--k", "2", "--alpha", "0,1,2,5", "--method", "certificate", "--t", "-1"),
        id="2-argv16",
    ),
    pytest.param(
        2, ("analyze", "--field", "7", "--k", "3", "--alpha", "0,1,2,5", "--method", "optimal"), id="2-argv17"
    ),
    pytest.param(2, ("classify", "--field", "7", "--alpha", "0,1,2"), id="2-argv18"),
    pytest.param(2, ("classify", "--alpha", "0,1"), id="2-argv19"),
    pytest.param(2, ("census", "--field", "6"), id="2-argv20"),
    # a negative limit is a usage error, not a guard refusal
    pytest.param(2, ("census", "--field", "7", "--max-classes", "-1"), id="2-argv21"),
    # 14! classes verified at 1,024 kernel word-steps each: refused before the bad family is walked
    pytest.param(3, ("census", "--field", "16", "--max-classes", "100000000000", "--verify", "all"), id="3-argv22"),
    pytest.param(2, ("sample", "--field", "7", "--delta", "0", "--trials", "1", "--seed", "1"), id="2-argv23"),
    pytest.param(2, ("sample", "--field", "7", "--delta", "abc", "--trials", "1", "--seed", "1"), id="2-argv24"),
    pytest.param(2, ("sample", "--field", "7", "--delta", "1/0", "--trials", "1", "--seed", "1"), id="2-argv25"),
    pytest.param(2, ("sample", "--field", "7", "--delta", "0.5", "--trials", "-1", "--seed", "1"), id="2-argv26"),
    pytest.param(2, ("sample", "--field", "2", "--delta", "0.5", "--trials", "1", "--seed", "1"), id="2-argv27"),
    pytest.param(3, ("sample", "--field", "587", "--delta", "0.5", "--trials", "1", "--seed", "1"), id="3-argv28"),
    pytest.param(2, ("construct", "--field", "7", "--k", "1"), id="2-argv29"),
    pytest.param(2, ("construct", "--field", "7", "--k", "3", "--allow-small-q"), id="2-argv30"),
    pytest.param(2, ("construct", "--field", "2", "--k", "2", "--allow-small-q"), id="2-argv31"),
    pytest.param(2, ("construct", "--field", "6", "--k", "2"), id="2-argv32"),
    pytest.param(2, ("bounds", "half-singleton", "--n", "2", "--k", "5"), id="2-argv33"),
    pytest.param(2, ("bounds", "class-lower-bound", "--q", "3"), id="2-argv34"),
    pytest.param(2, ("bounds", "bad-classes", "--q", "6"), id="2-argv35"),
    pytest.param(2, ("bounds", "fail-count-bound", "--q", "7", "--ell", "0"), id="2-argv36"),
    pytest.param(2, ("bounds", "tail-bound", "--q", "7", "--delta", "2"), id="2-argv37"),
    pytest.param(2, ("bounds", "tail-bound", "--q", "7", "--delta", "1/0"), id="2-argv38"),
    pytest.param(2, ("table1", "--qs", "6"), id="2-argv39"),
    pytest.param(2, ("table1", "--qs", "a"), id="2-argv40"),
    pytest.param(2, ("table1", "--qs", "1"), id="2-argv41"),
    pytest.param(2, ("bounds", "tail-bound", "--q", "-5", "--delta", "0.5"), id="2-argv42"),
    pytest.param(3, ("bounds", "class-lower-bound", "--q", "2000"), id="3-argv43"),
    pytest.param(3, ("bounds", "fail-count-bound", "--q", "3000", "--ell", "2"), id="3-argv44"),
    *QUICK_REFUSALS,
    # a GF(..) prefix must name the same field as --field
    pytest.param(2, ("analyze", "--field", "7", "--k", "2", "--alpha", "GF(11):0,1,2,5"), id="2-argv51"),
    pytest.param(2, ("analyze", "--field", "2^2", "--k", "2", "--alpha", "GF(2^3):0,1,2,5"), id="2-argv52"),
    pytest.param(2, ("classify", "--field", "7", "--alpha", "GF(11):0,1,2,3,4,5,6,7,8,9,10"), id="2-argv53"),
    # the class-count lower bound needs q >= 4, in table1 as in bounds class-lower-bound (2-argv34)
    pytest.param(2, ("table1", "--qs", "3"), id="2-table1-q3"),
    # --t belongs to the certificate alone; no other method takes it
    pytest.param(
        2, ("analyze", "--field", "7", "--alpha", "0,1,2,5", "--k", "2", "--method", "optimal", "--t", "3"), id="2-t-optimal"
    ),
    pytest.param(2, ("analyze", "--field", "7", "--alpha", "0,1,2,5", "--k", "2", "--t", "1"), id="2-t-brute"),
]
# The message of some MALFORMED rows, pinned where it names the offending input.
MESSAGES = {
    ("analyze", "--field", "7", "--k", "2", "--alpha", "GF(11):0,1,2,5"): (
        "--field GF(7) and --alpha GF(11) name different fields"
    ),
    ("analyze", "--field", "2^2", "--k", "2", "--alpha", "GF(2^3):0,1,2,5"): (
        "--field GF(2^2) and --alpha GF(2^3) name different fields"
    ),
    ("classify", "--field", "7", "--alpha", "GF(11):0,1,2,3,4,5,6,7,8,9,10"): (
        "--field GF(7) and --alpha GF(11) name different fields"
    ),
    ("census", "--field", "7", "--max-classes", "-1"): "max_classes must be >= 0, got -1",
    ("bounds", "bad-classes", "--q", "6"): "6 is not a prime power",
    ("bounds", "class-lower-bound", "--q", "3"): "meaningful only for q >= 4",
    ("table1", "--qs", "3"): "meaningful only for q >= 4",
    ("analyze", "--field", "7", "--alpha", "0,1,2,5", "--k", "2", "--method", "optimal", "--t", "3"): (
        "--t applies only to --method certificate"
    ),
    ("sample", "--field", "2", "--delta", "0.5", "--trials", "1", "--seed", "1"): (
        "sampling needs q >= 3 (full-length codes of dimension 2), got q=2"
    ),
}

# The smallest valid call of every command, for the unwritable-output rows.
VALID = [
    ("analyze", "--field", "7", "--k", "2", "--alpha", "0,1,2,5"),
    ("classify", "--field", "7", "--alpha", "0,1,2,3,4,5,6"),
    ("census", "--field", "5"),
    ("sample", "--field", "7", "--delta", "0.5", "--trials", "1", "--seed", "1"),
    ("construct", "--field", "7", "--k", "2"),
    ("bounds", "half-singleton", "--n", "4", "--k", "2"),
    ("table1", "--qs", "5"),
    ("table1", "--qs", "5", "--format", "csv"),
]


@pytest.mark.parametrize("expected, argv", MALFORMED)
def test_malformed_input_exits_with_a_documented_code(capsys, expected, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == expected and out == ""
    error = json.loads(err)["error"]
    assert set(error) == {"type", "message"}
    assert MESSAGES.get(argv, "") in error["message"]


def test_alpha_prefix_matching_field_is_accepted(capsys):
    plain = run_json(capsys, "analyze", "--k", "2", "--alpha", "GF(2^2):0,1,2,3")
    for field in ("4", "2^2"):
        doc = run_json(capsys, "analyze", "--field", field, "--k", "2", "--alpha", "GF(2^2):0,1,2,3")
        assert doc == plain
    assert plain["params"]["alpha"] == "GF(2^2):0,1,2,3"


def test_huge_inputs_are_refused_at_once(capsys):
    for expected, argv in (row.values for row in QUICK_REFUSALS):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0, argv
        assert code == expected and out == ""
        message = json.loads(err)["error"]["message"]
        assert ("exceeds ceiling" in message) == (expected == 2), message


@pytest.mark.parametrize("argv", VALID)
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    for target, reason in ((tmp_path / "missing" / "report", "No such file"), (tmp_path, "Is a directory")):
        code, out, err = run_cli(capsys, *argv, "--output", str(target))
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError" and reason in error["message"] and str(target) in error["message"]


def test_timing_flag_adds_wall_time(capsys):
    argv = ("analyze", "--field", "7", "--k", "2", "--alpha", "0,1,2,5")
    plain = run_json(capsys, *argv)
    doc = run_json(capsys, *argv, "--timing")
    assert doc.pop("wall_time_s") >= 0
    assert doc == plain  # only the top level carries the time, never the result


def test_default_output_is_byte_identical_across_runs(capsys):
    args = ("census", "--field", "7")
    a = run_cli(capsys, *args)
    b = run_cli(capsys, *args)
    assert a[1] == b[1]


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # The parser is built on the first call and reused; --timing, --output
    # and a usage error between the plain calls must leave them printing
    # exactly what each prints alone in a fresh interpreter.
    analyze_argv = ["analyze", "--field", "7", "--k", "2", "--alpha", "0,1,2,5"]
    census_argv = ["census", "--field", "7"]
    sample_argv = ["sample", "--field", "16", "--delta", "0.5", "--trials", "6", "--seed", "42"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    alone = {
        tuple(argv): subprocess.run(
            [sys.executable, "-m", "rsinsdel.cli", *argv], capture_output=True, text=True, env=env, check=True
        ).stdout
        for argv in (analyze_argv, census_argv, sample_argv)
    }
    target = tmp_path / "report.json"
    plain = []
    assert "wall_time_s" in run_json(capsys, *analyze_argv, "--timing")
    plain.append((analyze_argv, run_cli(capsys, *analyze_argv)))
    assert run_cli(capsys, *census_argv, "--output", str(target))[:2] == (0, "")
    assert target.read_text() == alone[tuple(census_argv)]
    plain.append((census_argv, run_cli(capsys, *census_argv)))
    code, out, err = run_cli(capsys, "analyze", "--field", "7", "--alpha", "0,1,2,5")  # no --k
    assert (code, out) == (2, "") and json.loads(err)["error"]["message"].endswith("required: --k")
    plain.append((sample_argv, run_cli(capsys, *sample_argv)))
    plain.append((analyze_argv, run_cli(capsys, *analyze_argv)))
    for argv, (code, out, err) in plain:
        assert code == 0 and err == "", argv
        assert out == alone[tuple(argv)], argv
        assert "wall_time_s" not in json.loads(out), argv
    assert cli.build_parser() is cli.build_parser()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rsinsdel.cli", "bounds", "half-singleton", "--n", "6", "--k", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["values"]["max_correctable"] == 1


def test_cli_import_leaves_mpmath_unloaded():
    # only the normalized tail bound uses mpmath, and it imports it on use,
    # so no other command pays for loading it
    probe = "import sys, rsinsdel.cli; print('mpmath' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_docs_and_cli_options_agree():
    # every long option of every command is documented, and every option on
    # a documented `rsinsdel <command> ...` line is one that command accepts
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    docs = {name: (ROOT / name).read_text() for name in ("README.md", "docs/formats.md")}
    for command, sub in commands.items():
        for option in sub._option_string_actions:
            if option.startswith("--") and option != "--help":
                assert re.search(re.escape(option) + r"(?![\w-])", docs["docs/formats.md"]), (command, option)
    lines = [m for text in docs.values() for m in re.finditer(r"(?:^|`)rsinsdel ([\w-]+)([^`\n#]*)", text, re.M)]
    assert len(lines) >= 9
    for line in lines:
        command, rest = line.groups()
        assert command in commands, line[0]
        for option in re.findall(r"--[\w-]+", rest):
            assert option in commands[command]._option_string_actions, line[0]


# Edge values for the drawn command lines: fields up to 31 beside malformed
# ones and one above the order ceiling, and sizes either small or far past
# a guard, so every drawn run answers at once.
BIG = str(10**20)
EDGE_FIELDS = ["2", "3", "4", "5", "7", "8", "9", "11", "13", "16", "25", "27", "29", "31", "2^3", "3^2", "6", "1", "0", "-7", "x", "4^2", "2^0", "1000000000000000003"]
EDGE_ALPHAS = ["0,1,2,5", "0,1,1", "", "0,1,99", "GF(7):0,1,2,5", "GF(7:0,1"]
ORDERS = {"2^3": 8, "3^2": 9, **{f: int(f) for f in EDGE_FIELDS[:14]}}
EDGE_INTS = ["-1", "0", "1", "2", "3", "4", "8", BIG, "x"]


@st.composite
def command_lines(draw):
    pick = lambda values: draw(st.sampled_from(values))
    optional = lambda flag, values: [flag, pick(values)] if draw(st.booleans()) else []
    command = pick(["analyze", "classify", "census", "sample", "construct", "bounds", "table1", "bogus"])
    threads = optional("--threads", ["-1", "0", "1", "2", BIG])
    field = pick(EDGE_FIELDS)
    points = ",".join(map(str, range(min(ORDERS.get(field, 7), pick([2, 4, 6, 31])))))
    alpha = pick([["--field", field, "--alpha", points], ["--alpha", f"GF({field}):{points}"], ["--field", field, "--alpha", pick(EDGE_ALPHAS)]])
    if command == "analyze":
        argv = alpha + ["--k", pick(EDGE_INTS)] + optional("--method", ["brute", "affine", "certificate", "optimal", "bogus"]) + optional("--t", EDGE_INTS)
    elif command == "classify":
        argv = alpha
    elif command == "census":
        argv = ["--field", field] + optional("--verify", ["auto", "spot", "none", "all", "bogus"])
        argv += optional("--max-classes", ["-1", "0", "1", "120", "5040", BIG]) + threads
    elif command == "sample":
        argv = ["--field", field, "--delta", pick(["0.5", "1/2", "0", "1", "2", "-0.5", "1e-400", "1/31", "abc", "1/0"])]
        argv += ["--trials", pick(["-1", "0", "1", "2", "30", BIG]), "--seed", pick(["-1", "0", "1", str(2**64)])] + threads
    elif command == "construct":
        allow = draw(st.booleans())
        # with --allow-small-q stage_work sums every stage up to k before its
        # guard, so k stays small there
        argv = ["--field", field, "--k", pick(EDGE_INTS[:-2] if allow else EDGE_INTS)] + ["--allow-small-q"] * allow
        argv += optional("--verify", ["exact", "certificate", "none", "bogus"]) + threads
    elif command == "bounds":
        argv = [pick([*cli.BOUND_REQUIRED, "bogus"])] + optional("--q", ["-5", "0", "3", "4", "7", "31", "8000", BIG])
        argv += optional("--n", EDGE_INTS) + optional("--k", EDGE_INTS) + optional("--ell", EDGE_INTS) + optional("--delta", ["0.5", "1e-400", "2", "1/0"])
    elif command == "table1":
        argv = optional("--qs", ["4", "5,7", "29,31", "4,5,7,8,9,11,13", "6", "1", "3", "a", "1000000000000000003"])
        argv += optional("--census-max-q", ["-1", "0", "9", "31"]) + optional("--format", ["json", "csv", "bogus"]) + threads
    else:
        argv = []
    return [command] + argv + ["--timing"] * draw(st.booleans())


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(command_lines())
def test_every_command_line_exits_with_a_documented_code(argv):
    # the exit-code contract: 0, or 2, 3 or 4 with one JSON error object on
    # stderr and nothing on stdout; never a traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4), argv
    if code == 0:
        assert err.getvalue() == "" and out.getvalue(), argv
    else:
        doc = json.loads(err.getvalue())
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1, argv
        assert doc["schema"] == cli.SCHEMA and set(doc["error"]) == {"type", "message"}, argv
