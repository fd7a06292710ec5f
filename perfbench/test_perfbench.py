"""Self-tests of the benchmark, on the tiny --smoke inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from rsinsdel import EvaluationVector, RsCode, analyze, field_new, insdel  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0.5", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = result_line(run_bench("--workload", name, "--trace", "0", "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_covers_the_workload_layers_with_identical_output(name):
    # correct=True includes: traced bytes == untraced bytes, and every layer
    # listed for the workload recorded work.
    result = result_line(run_bench("--workload", name, "--trace", "1", "--smoke"))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for layer in WORKLOADS[name].layers:
        assert result["metrics"][layer]["value"] > 0, layer


def test_runner_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "brute-k3", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_reject_a_tampered_output(name):
    wl = WORKLOADS[name](3, True)
    records = [worker.invoke(tag, argv) for tag, argv in wl.calls(0)]
    assert worker.check(wl, records) == []
    doc = json.loads(records[0].output)
    res = doc["result"]
    if "lcs_values" in res:
        res["lcs_values"][0] -= 1
    elif "classes_correcting_one" in res:
        res["classes_correcting_one"] += 1
    elif "alpha" in res:
        res["alpha"] = res["alpha"].replace(",2,", ",6,")
    else:
        res["lcs_of_code"] ^= 1
    tampered = dataclasses.replace(records[0], output=json.dumps(doc))
    assert worker.check(wl, [tampered] + records[1:])


def test_lis_oracle_matches_the_affine_engine():
    fld = field_new(3, 2)
    tables = oracles.FieldTables(fld.p, fld.m, fld.modulus)
    for idx in range(6):
        ordering = oracles.sampled_ordering(fld.q, 5, idx)
        assert tuple(ordering) == analyze.random_ordering(fld.q, analyze._trial_rng(5, idx))
        want = analyze.lcs_code_affine(EvaluationVector(fld, tuple(ordering)), want_witness=False)
        assert oracles.affine_code_lcs(tables, ordering) == want.lcs_of_code


def test_rank_oracle_matches_the_certificate():
    fld = field_new(13)
    for points in [(0, 1, 2, 5), (0, 1, 3, 9), (0, 1, 2, 3), (0, 1, 4, 6, 2, 7)]:
        k = len(points) // 2
        cert = insdel.rank_certificate(RsCode(EvaluationVector(fld, points), k), 1)
        assert oracles.certifies_one_insdel(points, k, fld.q) == cert.certified


def test_speed_probe_reports_reference_loops_at_the_reference_speed():
    def work():
        for _ in range(150):
            speed.reference_loop()
        return "done"

    probe = speed.SpeedProbe()
    t0 = time.perf_counter()
    result, wall, adjusted = probe.call(work)
    total = time.perf_counter() - t0
    assert result == "done"
    assert len(probe.samples) >= 4  # one before, one after, ticks during
    assert abs(wall + probe.spent_wall - total) < 0.02
    assert 0.8 < adjusted / (150 * speed.REFERENCE_S) < 1.25
