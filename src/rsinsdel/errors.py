"""Shared error types.

Guards are explicit limits, never silent truncation: exceeding one raises
GuardExceeded so results are all-or-nothing.  InvariantViolation marks
conditions that the underlying theory rules out; seeing one means a bug or a
broken precondition, not an unlucky input.
"""

# Default work budget of the guarded super-linear entry points.
DEFAULT_MAX_OPS = 100_000_000
# Word-steps (insdel.kernel_steps) of one exact LCS engine run, 3-15 ns each.
MAX_KERNEL_STEPS = 10**9
# Working memory of one block of every blocked loop, in bytes, read at call
# time; in `sample --field 81` runs 2^20 beat 2^18 and 2^19 by 20-30%.
BLOCK_BYTES = 1 << 20


class GuardExceeded(RuntimeError):
    """A configured work/time limit would be exceeded; no partial results."""


class InvariantViolation(RuntimeError):
    """A mathematically impossible condition was observed."""
