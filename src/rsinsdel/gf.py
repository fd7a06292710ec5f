"""Arithmetic in finite fields GF(p^m).

Field elements are plain integers in [0, q).  For a prime field the value is
the residue itself; for an extension field it is the base-p digit encoding of
the residue polynomial (constant coefficient = least significant digit), so
equal elements always have equal indices.  A :class:`Field` carries the
modulus and provides all operations.  Fields are immutable after
construction; every operation is pure, so instances can be shared freely
across threads.

Every field builds, once, the powers of its smallest-index generator g and
the discrete logs; multiplication, inversion, powers, square roots and
negation are table lookups.  Addition is modular in a prime field, XOR in
characteristic 2 and, in the other extension fields, a lookup in the Zech
logs log(1 + g^i).  A prime field's tables take 40 bytes per element:
GF(1048573), the largest prime below the 2^20 ceiling, holds about 42 MB and
builds in about 55 ms (2-core x86-64 VM, numpy 2).

For stacked polynomial arithmetic (poly.split_round) Field.v_log and
Field.v_exp expose the tables themselves, so a product of many pairs takes
each factor's log once, and Field.v_sum adds a whole axis at once, with one
reduction per sum in a prime field.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import errors

MAX_ORDER = 1 << 20
MAX_DEGREE = MAX_ORDER.bit_length() - 1  # p^m <= MAX_ORDER forces m <= 20


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (n <= 2**20 in all callers)."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def euler_phi(n: int) -> int:
    """Count of integers in [1, n] coprime to n."""
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    result = n
    for prime in factorize(n):
        result = result // prime * (prime - 1)
    return result


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, m) with q = p^m, or None if q is not a prime power."""
    if q < 2:
        return None
    factors = factorize(q)
    if len(factors) != 1:
        return None
    ((p, m),) = factors.items()
    return p, m


def _digit_rows(values, p: int, m: int) -> np.ndarray:
    """Base-p digits, least significant first, along a new last axis."""
    return np.asarray(values, dtype=np.int64)[..., None] // p ** np.arange(m, dtype=np.int64) % p


def _irreducible(coeffs: list[int], p: int) -> bool:
    """Trial division of a monic polynomial (low-first coefficients) by every
    monic polynomial of degree <= deg/2."""
    m = len(coeffs) - 1
    for d in range(1, m // 2 + 1):
        for low in _digit_rows(np.arange(p**d), p, d).tolist():
            rem = list(coeffs)
            for top in range(m, d - 1, -1):  # cancel x^top with a multiple of x^d + low
                lead = rem[top]
                for i, c in enumerate(low):
                    rem[top - d + i] = (rem[top - d + i] - lead * c) % p
            if not any(rem[:d]):
                return False
    return True


def _find_modulus(p: int, m: int) -> tuple[int, ...]:
    """Deterministic modulus: the monic irreducible of degree m over F_p whose
    low-first coefficient vector encodes the smallest base-p integer."""
    for enc in range(p**m):
        coeffs = _digit_rows(enc, p, m).tolist() + [1]
        if _irreducible(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError(f"no irreducible polynomial of degree {m} over F_{p}")  # unreachable


def _orbit(step: np.ndarray, length: int, p: int) -> np.ndarray:
    """Indices of c^0 .. c^(length-1), where row j of the m x m matrix step
    holds the digits of c * x^j (so digits(y) @ step = digits(y * c)).

    Doubling: the block c^L .. c^(2L-1) is the block c^0 .. c^(L-1) times
    the matrix of c^L, and squaring that matrix gives the next one.
    """
    weights = p ** np.arange(len(step), dtype=np.int64)
    block = max(1, errors.BLOCK_BYTES // (3 * 8 * len(step)))  # three (rows, m) int64 temporaries
    out = np.empty(length, dtype=np.int64)
    out[0] = 1
    done = 1
    while done < length:
        count = min(done, length - done)
        for lo in range(0, count, block):
            hi = min(lo + block, count)
            out[done + lo : done + hi] = _digit_rows(out[lo:hi], p, len(step)) @ step % p @ weights
        done += count
        step = step @ step % p
    return out


class Field:
    """The finite field GF(p^m) with elements encoded as integers in [0, q)."""

    def __init__(self, p: int, m: int = 1):
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        # the ceiling comes before any primality test or big power
        if p > MAX_ORDER or m > MAX_DEGREE or p**m > MAX_ORDER:
            order = p if m == 1 else f"{p}^{m}"
            raise ValueError(f"field order {order} exceeds ceiling {MAX_ORDER}")
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = None if m == 1 else _find_modulus(p, m)
        self._build_tables()
        self._wraps = [np.uint64(p << shift) for shift in range(64 - p.bit_length())]  # p * 2^t, for v_add, v_sum

    # -- representation ------------------------------------------------

    def name(self) -> str:
        return f"GF({self.p})" if self.m == 1 else f"GF({self.p}^{self.m})"

    def __repr__(self) -> str:
        return self.name()

    def __eq__(self, other) -> bool:
        # the modulus is a function of (p, m)
        return isinstance(other, Field) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self) -> int:
        return hash((self.p, self.m))

    def check(self, x: int) -> int:
        if not 0 <= x < self.q:
            raise ValueError(f"{x} is not an element index of {self.name()}")
        return x

    def int_embed(self, n: int) -> int:
        """Image of the integer n under Z -> GF(p^m) (repeated addition of 1)."""
        return n % self.p

    # -- tables ------------------------------------------------------------
    #
    # With N = q - 1, log[y] is the discrete log of y != 0 and log[0] = 2N.
    # exp has length 4N + 1: exp[i] = g^(i mod N) for i < 2N and 0 beyond, so
    # exp[log[x] + log[y]] is x * y with no zero test.  An extension field of
    # odd characteristic also has zech: zech[d + 2N] is the shift s with
    # y + z = exp[log[y] + s] for d = log[z] - log[y]: log(1 + g^d) for
    # |d| < N (2N when 1 + g^d = 0), d itself when y = 0 (d < -N, so the sum
    # is z) and 0 when z = 0 (d > N, so the sum is y).

    def _build_tables(self) -> None:
        p, m, n = self.p, self.m, self.q - 1
        x_step = np.eye(m, k=1, dtype=np.int64)  # row j: x^(j+1)
        if m > 1:
            x_step[m - 1] = np.negative(self.modulus[:m]) % p
        # hankel[i, j] = digits of x^(i+j)
        hankel = _digit_rows(_orbit(x_step, 2 * m - 1, p), p, m)[np.add.outer(np.arange(m), np.arange(m))]

        def matrix(c):
            """Row j: the digits of c * x^j (a stack of matrices for an array c)."""
            return np.tensordot(_digit_rows(c, p, m), hankel, axes=1) % p

        # c generates iff c^(n/r) != 1 for every prime r | n.  Each such power
        # is c^(e % b) * (c^b)^(e // b), read off b + 1 baby and b giant steps.
        b = math.isqrt(n - 1) + 1
        exps = np.array([n // r for r in factorize(n)], dtype=np.int64)
        weights = p ** np.arange(m, dtype=np.int64)
        # in an extension field the indices below p are constants, of order
        # dividing p - 1; in a prime field 1 generates only when q = 2
        for g in range(1 if m == 1 else p, self.q):
            baby = _orbit(matrix(g), b + 1, p)
            giant = _orbit(matrix(baby[b]), b, p)
            low = _digit_rows(baby[exps % b], p, m)
            if (np.einsum("ij,ijk->ik", low, matrix(giant[exps // b])) % p @ weights != 1).all():
                break
        powers = _orbit(matrix(g), n, p)
        log = np.empty(self.q, dtype=np.int64)
        log[powers] = np.arange(n)
        log[0] = 2 * n
        self._nlog = log
        self._nexp = np.concatenate([powers, powers, np.zeros(2 * n + 1, dtype=np.int64)])
        self._log, self._exp = log.data, self._nexp.data  # scalar lookups give plain ints
        if m > 1 and p > 2:
            low = powers % p  # adding 1 changes only the constant digit
            zech = log[powers - low + (low + 1) % p]
            self._nzech = np.concatenate(
                [np.arange(-2 * n, -n), [0], zech[1:], zech, np.zeros(n + 1, dtype=np.int64)]
            )
            self._zech = self._nzech.data

    # -- scalar arithmetic ----------------------------------------------

    def add(self, x: int, y: int) -> int:
        if self.m == 1:
            return (x + y) % self.p
        if self.p == 2:
            return x ^ y
        lx = self._log[x]
        return self._exp[lx + self._zech[self._log[y] - lx + 2 * (self.q - 1)]]

    def neg(self, x: int) -> int:
        if self.p == 2:
            return x
        # -1 = g^(N/2); log[0] + N/2 lies in the zero region of exp
        return self._exp[self._log[x] + (self.q - 1) // 2]

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        return self._exp[self._log[x] + self._log[y]]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self.name()}")
        return self._exp[self.q - 1 - self._log[x]]

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(x), -e)
        if x == 0:
            return 0 if e else 1
        return self._exp[self._log[x] * e % (self.q - 1)]

    # -- multiplicative structure ----------------------------------------

    def generator(self) -> int:
        """Smallest-index generator of the multiplicative group."""
        return self._exp[1]

    def primitive_elements(self) -> list[int]:
        """All elements of multiplicative order q-1, ascending; len == phi(q-1)."""
        # g^e generates exactly when gcd(e, q-1) = 1; log[0] is left out, as
        # gcd(2, 1) = 1 would take 0 for a generator of GF(2)
        return (np.flatnonzero(np.gcd(self._nlog[1:], self.q - 1) == 1) + 1).tolist()

    # -- vectorized arithmetic on numpy int64 arrays ----------------------

    def v_add(self, a, b):
        if self.m == 1:
            # for elements a + b < 2p, and as uint64 the sum minus p wraps
            # above the sum exactly when the sum is below p
            total = np.add(a, b, dtype=np.int64)
            if not isinstance(total, np.ndarray):
                return total % self.p
            unsigned = total.view(np.uint64)
            np.minimum(unsigned, unsigned - self._wraps[0], out=unsigned)
            return total
        if self.p == 2:
            return np.bitwise_xor(a, b)
        la = self._nlog[a]
        return self._nexp[la + self._nzech[self._nlog[b] - la + 2 * (self.q - 1)]]

    def v_mul(self, a, b):
        return self._nexp[self._nlog[a] + self._nlog[b]]

    def v_log(self, a):
        """Elementwise discrete logs, with 2N for 0 (N = q - 1): a sum of two
        logs is >= 2N exactly when a factor is 0, and v_exp gives 0 there."""
        return self._nlog[a]

    def v_exp(self, e):
        """Elementwise g^e for 0 <= e < 2N and 0 for 2N <= e <= 4N, so that
        v_exp of a sum of two v_log values is the product."""
        return self._nexp.take(e, mode="clip")

    def v_sum(self, a, axis: int = -1):
        """Sum of the elements along an axis: modular in a prime field, XOR
        in characteristic 2 and a chain of v_add otherwise."""
        if self.m == 1:
            # the sum of n elements is below 2^t * p for 2^t >= n: t steps
            # subtract p * 2^(t-1), .., p where they do not wrap (as in v_add)
            total = np.add.reduce(a, axis=axis, dtype=np.int64)
            unsigned = total.view(np.uint64)
            for wrap in reversed(self._wraps[: (np.shape(a)[axis] - 1).bit_length()]):
                np.minimum(unsigned, unsigned - wrap, out=unsigned)
            return total
        if self.p == 2:
            return np.bitwise_xor.reduce(a, axis=axis)
        a = np.moveaxis(a, axis, 0)
        total = a[0]
        for b in a[1:]:
            total = self.v_add(total, b)
        return total

    def v_inv(self, a):
        """Elementwise inverse, with 0 mapped to 0."""
        # log[0] = 2N gives the index -N, which wraps into the zero region of exp
        return self._nexp[self.q - 1 - self._nlog[a]]

    def v_sqrt(self, a):
        """Elementwise square roots: (whether a is a square, a root where it
        is), with 0 its own root.  g^e is a square exactly when e is even,
        with root g^(e/2), or when N = q - 1 is odd (characteristic 2), where
        g^((e + N)/2) is the one root for odd e."""
        a = np.asarray(a, np.int64)
        n = self.q - 1
        log = self._nlog[a]
        if n % 2:
            square = np.ones(a.shape, bool)
            log = log + n * (log % 2)
        else:
            square = log % 2 == 0
        # log[0] = 2N would halve to N, the log of 1: keep 2N, where exp is 0
        return square, self._nexp[np.where(a == 0, 2 * n, log // 2)]


@lru_cache(maxsize=None)
def _field_cached(p: int, m: int) -> Field:
    return Field(p, m)


def field_new(p: int, m: int = 1) -> Field:
    """Build GF(p^m) with the deterministic modulus; cached per (p, m)."""
    return _field_cached(p, m)


def field_from_order(q: int) -> Field:
    """Build GF(q) from the order, rejecting non-prime-powers."""
    if q > MAX_ORDER:  # before factorizing
        raise ValueError(f"field order {q} exceeds ceiling {MAX_ORDER}")
    pm = prime_power(q)
    if pm is None:
        raise ValueError(f"{q} is not a prime power")
    return field_new(*pm)
