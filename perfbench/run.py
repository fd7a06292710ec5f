"""rsinsdel benchmark runner.

    python3 perfbench/run.py --workload sample-gf81 --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/` directory; nothing is installed.  Every run starts fresh
interpreters: six set-up probes plus the measuring worker, so imports,
`field_new` and input generation land in `setup_s` (the median of the seven
set-ups), never in `wall_s` (the median timed CLI call).  Both are
speed-adjusted: CPU seconds scaled to a reference speed of the host,
measured as it runs (see speed.py); raw wall times are in the first
output line.

Prints two JSON lines.  The first records the machine and the run's
details (git sha, nproc, Python and numpy versions, load average at start,
error_rate, per-unit times).  The last holds `correct`, `attempted`,
`failed` and `metrics`: every `end_to_end` metric of BENCHMARK.json with
`--trace 0`, every `per_layer` metric with `--trace 1`.  `--smoke` swaps in
tiny inputs (GF(7)/GF(9)) so a run takes seconds; the benchmark's own tests
use it.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


class Worker:
    """A fresh interpreter running worker.py; times its set-up to READY."""

    def __init__(self, args: list[str], deadline: float):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], self._left())
            line = self.proc.stdout.readline() if ready else ""
            self.setup_s = time.perf_counter() - t0
            word, _, cpu = line.partition(" ")
            if word != "READY":
                raise RuntimeError(f"worker set-up failed: {line.strip() or 'no READY line'}")
            self.setup_cpu_s = float(cpu)
        except BaseException:
            self.stop()
            raise

    def _left(self) -> float:
        return max(0.0, self.deadline - time.perf_counter())

    def finish(self) -> str:
        try:
            out, _ = self.proc.communicate(timeout=self._left())
        except subprocess.TimeoutExpired:
            self.stop()
            raise RuntimeError(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return out

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()

    if not (ROOT / "src" / "rsinsdel" / "__init__.py").is_file():
        print(f"no rsinsdel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "loadavg_start": os.getloadavg(),
    }
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    deadline = started + RUN_LIMIT_S
    setups, setups_adjusted = [], []

    def start(extra_args):
        # The worker's CPU time to READY, scaled by the reference loop timed
        # here just before the spawn, the way speed.py scales call times.
        ref = speed.reference_time()
        w = Worker(common + extra_args, deadline)
        setups.append(w.setup_s)
        setups_adjusted.append(w.setup_cpu_s * speed.REFERENCE_S / ref)
        return w

    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            start(["--setup-only"]).finish()
    worker = start(["--seconds", str(args.seconds), "--trace", str(args.trace)])
    report = json.loads(worker.finish().strip().splitlines()[-1])

    measured = dict(report["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(setups_adjusted)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(wanted) - set(measured))
    if missing:
        print(f"worker did not report {missing}", file=sys.stderr)
        return 1
    attempted, failed = report["attempted"], report["failed"]
    context.update(report["extra"])
    context["setup_samples_s"] = setups
    context["setup_adjusted_s"] = setups_adjusted
    context["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
    context["check_failures"] = report["check_failures"]
    context["versions"] = report["versions"]
    context["run_s"] = time.perf_counter() - started
    print(json.dumps({"context": context}))
    result = {
        "correct": report["check_failures"] == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in wanted.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
