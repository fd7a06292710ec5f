#!/usr/bin/env python3
"""How many insertions/deletions can an RS code correct?

The answer is a pure function of the largest LCS between distinct codewords:
a length-n code corrects t insdel errors exactly when LCS(C) <= n - t - 1.
This demo measures a few codes exactly and then shows the rank certificate,
which decides correction capability without enumerating codeword pairs:
exactly at t = 1, one-sided for t >= 2.
"""

from rsinsdel import EvaluationVector, RsCode, field_new
from rsinsdel import analyze, insdel

f7 = field_new(7)

print("The length-4 dimension-2 code on (0,1,2,5) over GF(7):")
code = RsCode(EvaluationVector(f7, (0, 1, 2, 5)), 2)
report = analyze.lcs_code_bruteforce(code)
print("  LCS(C) =", report.lcs_of_code, " max correctable =", report.max_correctable,
      " optimal =", report.optimal)
print("  witness pair:", report.witness)

print()
print("The natural ordering (0,1,...,6) is as bad as it gets for k=2:")
full = EvaluationVector(f7, tuple(range(7)))
report = analyze.lcs_code_affine(full)
print("  LCS(C) =", report.lcs_of_code, "=> corrects", report.max_correctable, "insdels")
print("  the codewords f(x)=x and g(x)=x+1 collide after one deletion each:")
print("  ", (0, 1, 2, 3, 4, 5, 6), "drop first  ->", (1, 2, 3, 4, 5, 6))
print("  ", (1, 2, 3, 4, 5, 6, 0), "drop last   ->", (1, 2, 3, 4, 5, 6))

print()
print("Rank certificate on (0,1,2,5), t=1:")
cert = insdel.rank_certificate(code, 1)
print("  certified:", cert.certified, " index pairs checked:", cert.pairs_checked)

print()
print("Rank certificate on the arithmetic progression (0,1,2,3), t=1:")
bad = RsCode(EvaluationVector(f7, (0, 1, 2, 3)), 2)
cert = insdel.rank_certificate(bad, 1)
print("  certified:", cert.certified, " first rank-deficient pair:", cert.witness)
print("  (at t = 1 not certified proves failure; the exact engine agrees)")
print("  exact:", analyze.lcs_code_bruteforce(bad).lcs_of_code, "= n-1, so one insdel breaks it")
