"""Speed-adjusted timing for a shared host.

Other tenants of a shared VM host slow this machine in two ways, each for
tens of seconds at a time: the hypervisor takes the CPU away (steal time,
up to a third here) and the CPU runs slower while it has it (up to about
1.8x).  Raw run times of identical work then spread by 15-40% from run
to run, wider than any useful regression bound.

So a call is timed in CPU seconds of the measuring thread, which excludes
steal, and a fixed reference loop is timed the same way every
SAMPLE_EVERY_S from a SIGALRM handler in that thread: on the same core, at
the same moments as the work.  The adjusted time is the call's CPU time
(minus the handler's) scaled by REFERENCE_S / the median reference time
seen during the call: the seconds the call would take alone on a host
where the loop takes REFERENCE_S.  Only single-threaded calls can be
timed this way.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# The reference loop's CPU time on an idle host of the kind the benchmark
# was tuned on (2-core x86-64 VM, Python 3.11); only ratios to it matter.
REFERENCE_S = 0.002
SAMPLE_EVERY_S = 0.1
_ARRAY = np.arange(1400, dtype=np.int64)


def reference_loop() -> int:
    """Interpreter work (small ints, tuples, a dict) plus small numpy array
    operations, the mix the workloads spend their time in; on construct-
    and census-like calls this mix tracked speed changes better than pure
    integer loops did."""
    acc, table = 0, {}
    for i in range(12_000):
        acc = (acc * 31 + i) % 1_000_003
        pair = (i, acc)
        table[pair[0] & 63] = pair
    arr = _ARRAY
    for _ in range(55):
        arr = (arr * 7 + _ARRAY) % 1367
    return acc


def reference_time(reps: int = 3) -> float:
    """Median CPU time of a few reference loops, taken now."""
    times = []
    for _ in range(reps):
        t0 = time.thread_time()
        reference_loop()
        times.append(time.thread_time() - t0)
    return statistics.median(times)


class SpeedProbe:
    """Times calls while sampling the reference loop during them."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_cpu = 0.0
        self.spent_wall = 0.0

    def _tick(self, signum=None, frame=None):
        w0, c0 = time.perf_counter(), time.thread_time()
        reference_loop()
        cpu = time.thread_time() - c0
        self.samples.append(cpu)
        self.spent_cpu += cpu
        self.spent_wall += time.perf_counter() - w0

    def call(self, fn):
        """Run fn(); return (result, wall seconds, adjusted seconds), both
        without the sampling handler's own time."""
        self._tick()
        first, cpu0, wall0 = len(self.samples) - 1, self.spent_cpu, self.spent_wall
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        w0, c0 = time.perf_counter(), time.thread_time()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            cpu = time.thread_time() - c0 - (self.spent_cpu - cpu0)
            wall = time.perf_counter() - w0 - (self.spent_wall - wall0)
            signal.signal(signal.SIGALRM, previous)
        self._tick()
        return result, wall, cpu * REFERENCE_S / statistics.median(self.samples[first:])
