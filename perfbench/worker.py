"""One benchmark run in a fresh interpreter; started by run.py.

Setup (imports, field_new, input generation) ends with a READY line, so
the parent can time it.  The worker then either measures the workload
untraced for --seconds, or makes one traced pass (--trace 1), checks the
outputs outside the timed region and prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy
import rsinsdel
from rsinsdel import cli

import speed
import tracing
from workloads import WORKLOADS


@dataclass
class Record:
    tag: str
    argv: list[str]
    code: int
    output: str
    seconds: float
    adjusted: float  # seconds scaled to the reference speed (speed.py)


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:  # a traceback is a failed item, not a dead run
        traceback.print_exc()
        code = -1
    return code, buf.getvalue()


def invoke(tag: str, argv: list[str], probe: speed.SpeedProbe | None = None) -> Record:
    """One CLI call.  With a probe, the reference loop is sampled during the
    call, which is only sound while no other thread wants the interpreter."""
    if probe is None:
        t0 = time.perf_counter()
        code, out = _cli(argv)
        seconds = adjusted = time.perf_counter() - t0
    else:
        (code, out), seconds, adjusted = probe.call(lambda: _cli(argv))
    return Record(tag, argv, code, out, seconds, adjusted)


def check(wl, records) -> list[tuple[int, str]]:
    """(items failed, reason) per failed check; every call does wl.items items."""
    failures = [(wl.items, f"exit {r.code}: {' '.join(r.argv)}") for r in records if r.code != 0]
    try:
        failures += wl.check([r for r in records if r.code == 0])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        failures.append((wl.items * len(records), f"unreadable output: {exc!r}"))
    return failures


def measure(wl, seconds: float) -> dict:
    probe = speed.SpeedProbe()
    records: list[Record] = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or sum(map(wl.counts, records)) < wl.min_units:
        records += [invoke(tag, argv, probe if tag == "1t" else None) for tag, argv in wl.calls(i)]
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counted = [r for r in records if wl.counts(r)]
    wall_s = statistics.median(r.adjusted for r in counted)
    extra = {
        "units": len(counted),
        "unit_s": [r.seconds for r in counted],
        "unit_adjusted_s": [r.adjusted for r in counted],
        "median_unit_s": statistics.median(r.seconds for r in counted),
    }
    two = [r.seconds for r in records if r.tag == "2t"]
    if two:
        one = [r.seconds for r in records if r.tag == "1t"]
        extra["speedup_2t"] = statistics.median(one) / statistics.median(two)
    metrics = {"wall_s": wall_s, "items_per_s": wl.items / wall_s, "peak_rss_mb": peak_rss_mb}
    return {"records": records, "metrics": metrics, "extra": extra}


def traced(wl) -> dict:
    """Run unit 0.. untraced until one counted call, then repeat its 1-thread
    calls under the tracer; the two must print the same bytes."""
    plain: list[Record] = []
    i = 0
    while not any(wl.counts(r) for r in plain):
        plain += [invoke(tag, argv) for tag, argv in wl.calls(i)]
        i += 1
    plain_1t = [r for r in plain if r.tag == "1t"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        again = [invoke(r.tag, r.argv) for r in plain_1t]
    finally:
        tracer.remove()
    metrics = tracer.metrics()
    metrics["cli.output_bytes"] = sum(len(r.output.encode()) for r in again)
    metrics["trace_overhead_s"] = sum(r.seconds for r in again) - sum(r.seconds for r in plain_1t)
    two = [r.seconds for r in plain if r.tag == "2t"]
    metrics["speedup_2t"] = sum(r.seconds for r in plain_1t) / sum(two) if two else 0.0
    failures = [(wl.items, f"traced output differs: {' '.join(a.argv)}")
                for a, b in zip(again, plain_1t) if a.output != b.output]
    failures += [(0, f"layer {name} recorded nothing") for name in wl.layers if not metrics.get(name)]
    return {"records": plain + again, "metrics": metrics, "extra": {}, "failures": failures}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(rsinsdel.__file__).resolve().parent.parent != src:
        print(f"rsinsdel imported from {rsinsdel.__file__}, not {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    # CPU seconds since the interpreter started: set-up time without steal
    print(f"READY {time.process_time()}", flush=True)
    if args.setup_only:
        return 0

    run = traced(wl) if args.trace else measure(wl, args.seconds)
    records = run["records"]
    failures = run.get("failures", []) + check(wl, records)
    for _, reason in failures:
        print(f"check failed: {reason}", file=sys.stderr)
    attempted = wl.items * len(records)
    out = {
        "attempted": attempted,
        "failed": min(attempted, sum(n for n, _ in failures)),
        "check_failures": len(failures),
        "metrics": run["metrics"],
        "extra": run["extra"],
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__},
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
