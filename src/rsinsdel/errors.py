"""Shared error types and work limits.

Guards are explicit limits, never silent truncation: exceeding one raises
GuardExceeded so results are all-or-nothing.  InvariantViolation marks
conditions that the underlying theory rules out; seeing one means a bug or a
broken precondition, not an unlucky input.  Every fixed limit is defined
here and checked by check_work, and every guard reads its limit at call time.
"""

# Work limit of the index-pair sweep, the optimality checker and the bad family.
MAX_OPS = 100_000_000
# Word-steps (insdel.kernel_steps) of one exact LCS engine run.  It bounds
# kernel work, and wall time only for large scans.  On a 2-core VM (Python
# 3.11.7, numpy 2.4.6, in process) a word-step of one seeded ordering's
# affine grid takes 2.8 ns at q = 81 (1.5 ms), 2.5 ns at q = 127 (5.2 ms),
# 3.5 ns at q = 257 (0.15 s) and 4.5 ns at q = 509 (2.4 s) and q = 577
# (4.3 s, the largest admitted); one of the full-length k = 3 brute force
# over GF(59), counted as its guard counts them, 1.1-1.25 ns (0.83-0.92 s
# on seeded orderings).  A one-ordering grid, as sample runs them, costs
# 114-1,753 ns per word-step at q = 7..16 (86-116 us, mostly fixed cost);
# census measures its verified classes in blocks of orderings, and `census
# --field 11 --verify all` (8.8*10^7 word-steps) takes about 1.4 s.
MAX_KERNEL_STEPS = 10**9
# Working memory of one block of every blocked loop, in bytes, read at call
# time; in `sample --field 81` runs 2^20 beat 2^18 and 2^19 by 20-30%.
BLOCK_BYTES = 1 << 20
# Units of construct.stage_work in one construct_half_rate run, a bound of
# the worst case.  On a 2-core VM (Python 3.11.7, numpy 2.4.6, in process,
# no verification) the units real runs spend, counted as stage_work charges
# them, took 9-22 ns each at the guaranteed field sizes from k = 4
# (GF(1367), 2.8 ms) to k = 16 (GF(978821), 0.71 s), and 11-15 ns at k = 6
# over GF(13) and k = 8 over GF(29), where rows fill: the limit is at most
# about 45 s.  Real runs spend 71 to 4,800 times fewer units than estimated
# at those sizes (4 and 7 times over GF(13) and GF(29)); the limit admits
# k <= 7 at every field order up to gf.MAX_ORDER and k = 8 up to
# q = 290,357 (1.3*10^9 at GF(44621)), and refuses k = 9 at 76,837
# (3.4*10^9).
MAX_STAGE_OPS = 2_000_000_000
# Python's default limit on converting an integer to decimal text: a report
# holding a larger integer would fail in cli.dumps after all the work.
MAX_DIGITS = 4300
# Work ceiling of the exact fail-count sum: its number of terms times the
# decimal digits of its largest term.  tail-bound at q = 1024, delta = 1/2
# needs 1.1e6 (0.05 s); 1e7 takes about 1 s on a 2-core VM (Python 3.11).
MAX_SUM_WORK = 10**7


class GuardExceeded(RuntimeError):
    """A configured work limit would be exceeded; no partial results."""


class InvariantViolation(RuntimeError):
    """A mathematically impossible condition was observed."""


def check_work(estimate: int, limit: int, what: str) -> None:
    """GuardExceeded, before any work, when estimate exceeds limit; what
    names the bounded work and its unit, and prefixes the message."""
    if estimate > limit:
        raise GuardExceeded(f"{what}: estimated work {estimate} exceeds the limit of {limit}")
