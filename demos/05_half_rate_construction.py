#!/usr/bin/env python3
"""Deterministic construction of rate-1/2 codes correcting one insdel.

Rate 1/2 is the ceiling for linear codes correcting a single insertion or
deletion, and a length-2k dimension-k code at that ceiling exists once the
field is large enough (growing like k^4).  The construction is fully
deterministic: a lexicographic scan finds the length-4 base, then each stage
solves small linear systems to rule out every pair of new points that could
create a long common subsequence, and picks the least surviving pair.  A
stage builds only the rows of the excluded set up to its choice, so it
reports the bad pairs in those rows.
"""

import time

from rsinsdel import field_new
from rsinsdel import analyze, construct

print("Guaranteed field sizes:", {k: construct.min_field_size(k) for k in (2, 3, 4, 5)})

f7 = field_new(7)
print()
print("Base case over GF(7):", construct.base_case(f7).points, "(the smallest field that works)")
for q in (4, 5):
    try:
        construct.base_case(field_new(2, 2) if q == 4 else field_new(5))
    except construct.NoBaseCaseError as exc:
        print(f"  q={q}: {exc}")

print()
t0 = time.time()
f251 = field_new(251)
trace = construct.construct_half_rate(f251, 3, verify_mode="exact")
print(f"k=3 over GF(251)  ({time.time()-t0:.1f}s):")
for stage in trace.stages:
    print(f"  stage {stage.i}: chose {stage.chosen_pair}, "
          f"{stage.row_bad_pair_count} bad pairs in the rows scanned, verification={stage.verification}")
print("  final evaluation vector:", trace.alpha.points)
print("  independent re-check:", analyze.is_optimal_half_rate(trace.alpha, 3).optimal)

print()
t0 = time.time()
f1367 = field_new(1367)
trace = construct.construct_half_rate(f1367, 4)  # the default exact check
print(f"k=4 over GF(1367)  ({time.time()-t0:.1f}s):")
for stage in trace.stages:
    print(f"  stage {stage.i}: chose {stage.chosen_pair}, "
          f"{stage.row_bad_pair_count} bad pairs in the rows scanned, verification={stage.verification}")
print("  final evaluation vector:", trace.alpha.points)
print("  independent re-check:", analyze.is_optimal_half_rate(trace.alpha, 4).optimal)
