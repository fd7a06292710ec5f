"""Arithmetic in finite fields GF(p^m).

Field elements are plain integers in [0, q).  For a prime field the value is
the residue itself; for an extension field it is the base-p digit encoding of
the residue polynomial (constant coefficient = least significant digit), so
equal elements always have equal indices.  A :class:`Field` carries the
modulus and provides all operations.  Fields are immutable after
construction; every operation is pure, so instances can be shared freely
across threads.

Extension fields of order at most 2**16 precompute log/antilog tables
(multiplication-bound callers dominate the workload); larger extension
fields fall back to polynomial arithmetic.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

MAX_ORDER = 1 << 20
TABLE_MAX = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod_p(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Division with remainder in F_p[x]; b must be nonzero."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, p - 2, p) if p > 2 else lb
    quot = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        shift = len(a) - 1 - db
        factor = (a[-1] * inv_lb) % p
        quot[shift] = factor
        for i, coef in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * coef) % p
        _poly_trim(a)
    return quot, a


def _irreducible(candidate: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(candidate) - 1
    for d in range(1, deg // 2 + 1):
        for enc in range(p**d):
            divisor = [(enc // p**i) % p for i in range(d)] + [1]
            _, rem = _poly_divmod_p(candidate, divisor, p)
            if not rem:
                return False
    return True


def _find_modulus(p: int, m: int) -> tuple[int, ...]:
    """Deterministic modulus: the monic irreducible of degree m over F_p whose
    low-first coefficient vector encodes the smallest base-p integer."""
    for enc in range(p**m):
        coeffs = [(enc // p**i) % p for i in range(m)] + [1]
        if _irreducible(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError(f"no irreducible polynomial of degree {m} over F_{p}")  # unreachable


class Field:
    """The finite field GF(p^m) with elements encoded as integers in [0, q)."""

    def __init__(self, p: int, m: int = 1):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        q = p**m
        if q > MAX_ORDER:
            raise ValueError(f"field order {q} exceeds ceiling {MAX_ORDER}")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = None if m == 1 else _find_modulus(p, m)
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._nexp: np.ndarray | None = None
        self._nlog: np.ndarray | None = None
        self._red: list[int] | None = None
        if m > 1:
            self._red = self._reduction_rows()
            if q <= TABLE_MAX:
                self._build_tables()

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

    def elements(self) -> range:
        return range(self.q)

    def int_embed(self, n: int) -> int:
        """Image of the integer n under Z -> GF(p^m) (repeated addition of 1)."""
        return n % self.p

    def digits(self, x: int) -> list[int]:
        d = []
        for _ in range(self.m):
            d.append(x % self.p)
            x //= self.p
        return d

    def _undigits(self, d: list[int]) -> int:
        v = 0
        for coef in reversed(d):
            v = v * self.p + coef
        return v

    # -- scalar arithmetic ----------------------------------------------

    def add(self, x: int, y: int) -> int:
        if self.m == 1:
            return (x + y) % self.p
        if self.p == 2:
            return x ^ y
        p = self.p
        out, mult = 0, 1
        for _ in range(self.m):
            out += ((x + y) % p) * mult
            x //= p
            y //= p
            mult *= p
        return out

    def neg(self, x: int) -> int:
        if self.m == 1:
            return (-x) % self.p
        if self.p == 2:
            return x
        p = self.p
        out, mult = 0, 1
        for _ in range(self.m):
            out += ((-x) % p) * mult
            x //= p
            mult *= p
        return out

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def _reduction_rows(self) -> list[int]:
        """Indices of x^m .. x^(2m-2) reduced modulo the field modulus."""
        p, m = self.p, self.m
        rows = []
        # x^m = -(modulus minus leading term)
        cur = [(-c) % p for c in self.modulus[:m]]
        rows.append(self._undigits(cur))
        for _ in range(m - 2):
            # multiply current residue by x, reduce once if degree reaches m
            nxt = [0] + cur[: m - 1]
            top = cur[m - 1]
            if top:
                for i in range(m):
                    nxt[i] = (nxt[i] + top * ((-self.modulus[i]) % p)) % p
            rows.append(self._undigits(nxt))
            cur = nxt
        return rows

    def _mul_poly(self, x: int, y: int) -> int:
        p, m = self.p, self.m
        xd, yd = self.digits(x), self.digits(y)
        conv = [0] * (2 * m - 1)
        for i, xi in enumerate(xd):
            if xi:
                for j, yj in enumerate(yd):
                    conv[i + j] += xi * yj
        out = 0
        mult = 1
        low = [c % p for c in conv[:m]]
        for d in range(m, 2 * m - 1):
            hi = conv[d] % p
            if hi:
                red = self.digits(self._red[d - m])
                for i in range(m):
                    low[i] = (low[i] + hi * red[i]) % p
        for i in range(m):
            out += low[i] * mult
            mult *= p
        return out

    def mul(self, x: int, y: int) -> int:
        if self.m == 1:
            return (x * y) % self.p
        if x == 0 or y == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[x] + self._log[y]) % (self.q - 1)]
        return self._mul_poly(x, y)

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self.name()}")
        if self.m == 1:
            return pow(x, self.p - 2, self.p)
        if self._exp is not None:
            return self._exp[(self.q - 1 - self._log[x]) % (self.q - 1)]
        return self.pow(x, self.q - 2)

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(x), -e)
        if self.m == 1:
            return pow(x, e, self.p)
        if x == 0:
            return 0 if e else 1
        if self._exp is not None:
            return self._exp[(self._log[x] * e) % (self.q - 1)]
        result, base = 1, x
        while e:
            if e & 1:
                result = self._mul_poly(result, base)
            base = self._mul_poly(base, base)
            e >>= 1
        return result

    # -- multiplicative structure ----------------------------------------

    def _order_divides_check(self, x: int, e: int) -> bool:
        return self.pow(x, e) == 1

    def generator(self) -> int:
        """Smallest-index generator of the multiplicative group."""
        if self.q == 2:
            return 1
        prime_factors = list(factorize(self.q - 1))
        for g in range(2, self.q):
            if all(not self._order_divides_check(g, (self.q - 1) // r) for r in prime_factors):
                return g
        raise RuntimeError("no generator found")  # unreachable for a field

    def primitive_elements(self) -> list[int]:
        """All elements of multiplicative order q-1, ascending; len == phi(q-1)."""
        if self.q == 2:
            return [1]
        prime_factors = list(factorize(self.q - 1))
        out = []
        for x in range(2, self.q):
            if all(not self._order_divides_check(x, (self.q - 1) // r) for r in prime_factors):
                out.append(x)
        return out

    def _build_tables(self) -> None:
        g = self.generator()
        exp = [1] * (self.q - 1)
        for i in range(1, self.q - 1):
            exp[i] = self._mul_poly(exp[i - 1], g)
        log = [0] * self.q
        for i, v in enumerate(exp):
            log[v] = i
        self._exp, self._log = exp, log
        self._nexp = np.array(exp, dtype=np.int64)
        self._nlog = np.array(log, dtype=np.int64)

    # -- vectorized arithmetic on numpy int64 arrays ----------------------

    def v_add(self, a, b):
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return np.bitwise_xor(a, b)
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        mult = 1
        for _ in range(self.m):
            out += ((a + b) % self.p) * mult
            a, b = a // self.p, b // self.p
            mult *= self.p
        return out

    def v_mul(self, a, b):
        if self.m == 1:
            return (a * b) % self.p
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self._nexp is not None:
            res = self._nexp[(self._nlog[a] + self._nlog[b]) % (self.q - 1)]
            return np.where((a == 0) | (b == 0), 0, res)
        combined = np.frompyfunc(self.mul, 2, 1)(a, b)
        return np.asarray(combined, dtype=np.int64)


@lru_cache(maxsize=None)
def _field_cached(p: int, m: int) -> Field:
    return Field(p, m)


def field_new(p: int, m: int = 1) -> Field:
    """Build GF(p^m) with the deterministic modulus; cached per (p, m)."""
    return _field_cached(p, m)


def field_from_order(q: int) -> Field:
    """Build GF(q) from the order, rejecting non-prime-powers."""
    pm = prime_power(q)
    if pm is None:
        raise ValueError(f"{q} is not a prime power")
    return field_new(*pm)
