#!/usr/bin/env python3
"""Random orderings correct far more than one insdel error.

For a random permutation of GF(q) used as the evaluation vector of a
2-dimensional code, the code LCS concentrates near 2*sqrt(q), far below the
ceiling q - 1.  Sampling is driven by a splitmix64-seeded Fisher-Yates
shuffle, so every result is reproducible from (seed, trial index) alone.
"""

import collections

from rsinsdel import field_new
from rsinsdel import analyze

f81 = field_new(3, 4)
result = analyze.sample_orderings(f81, delta="0.5", trials=40, seed=2024)

print("q = 81, 40 seeded random orderings, threshold floor(q/2)-1 =", result.lcs_threshold)
hist = collections.Counter(result.lcs_values)
for value in sorted(hist):
    print(f"  LCS(C) = {value:>3}: {'#' * hist[value]}")
print("fraction with LCS <= threshold (corrects ~q/2 insdels):", result.fraction_correcting)
print("fraction correcting at least one insdel:", result.fraction_correcting_one)

print()
print("Same seed reproduces byte-identical results:")
again = analyze.sample_orderings(f81, delta="0.5", trials=40, seed=2024)
print("  identical:", result == again)
