#!/usr/bin/env python3
"""Finite fields and polynomial machinery.

Elements of GF(p^m) are plain integers: the residue itself for prime fields,
the base-p digit encoding of the residue polynomial for extension fields.
This keeps the hot loops cheap and makes every result reproducible, because
the modulus is chosen deterministically.
"""

import numpy as np

from rsinsdel import field_new
from rsinsdel import poly

f7 = field_new(7)
print("GF(7):", "3*5 =", f7.mul(3, 5), " inv(3) =", f7.inv(3), " -3 =", f7.neg(3))

f4 = field_new(2, 2)
print("GF(4) modulus (low-first coefficients):", f4.modulus)
print("GF(4): x*x =", f4.mul(2, 2), " (x is index 2, x+1 is index 3)")

f81 = field_new(3, 4)
print("GF(81) generator:", f81.generator())
print("GF(81) number of primitive elements:", len(f81.primitive_elements()))

print()
print("Polynomials are low-first coefficient tuples over a field.")
f = (6, 0, 1)  # x^2 - 1 over GF(7)
print("roots of x^2-1 over GF(7):", poly.roots(f7, f))
print("roots of x^2+1 over GF(7):", poly.roots(f7, (1, 0, 1)), "(no square root of -1 mod 7)")

pts = [(0, 0), (1, 1), (2, 4), (3, 2)]
xs, ys = zip(*pts)
for bound in (3, 2):
    # the Vandermonde system of the points: row j is (1, x_j, .., x_j^(bound-1))
    vandermonde = poly.eval_all(f7, np.eye(bound, dtype=np.int64), xs).T
    sol = poly.solve_linear(f7, vandermonde, ys)
    print(f"interpolating {pts} with degree bound {bound}:", sol.status, sol.solution)
print("(degree bound 2: the line through the first two points misses (2,4))")

print()
print("Exact linear algebra over the field:")
a = [[1, 1], [2, 2]]
print("rank of [[1,1],[2,2]] over GF(7):", poly.rank(f7, a))
sol = poly.solve_linear(f7, a, [1, 2])
print("solve [[1,1],[2,2]] x = (1,2):", sol.status, "particular:", sol.solution, "kernel:", sol.kernel)
