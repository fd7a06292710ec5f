"""Tests for finite field arithmetic."""

import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsinsdel import errors, gf
from rsinsdel.gf import Field, euler_phi, factorize, field_from_order, field_new, is_prime, prime_power


def brute_irreducible_quadratics_f2():
    # A monic quadratic over F_2 is irreducible iff it has no roots.
    out = []
    for c0 in (0, 1):
        for c1 in (0, 1):
            if all((x * x + c1 * x + c0) % 2 != 0 for x in (0, 1)):
                out.append((c0, c1, 1))
    return out


def brute_orders(fld):
    orders = {}
    for x in range(1, fld.q):
        acc, n = x, 1
        while acc != 1:
            acc = fld.mul(acc, x)
            n += 1
        orders[x] = n
    return orders


def test_prime_field_basics():
    f7 = field_new(7)
    assert f7.q == 7 and f7.p == 7 and f7.m == 1
    assert f7.mul(3, 5) == 1
    assert f7.inv(3) == 5
    assert f7.add(6, 5) == 4
    assert f7.neg(3) == 4


def test_f4_modulus_is_unique_irreducible_quadratic():
    assert brute_irreducible_quadratics_f2() == [(1, 1, 1)]
    f4 = field_new(2, 2)
    assert f4.modulus == (1, 1, 1)
    # x * x reduces to x + 1
    assert f4.mul(2, 2) == 3


def test_nonprime_characteristic_rejected():
    with pytest.raises(ValueError):
        field_new(6, 1)
    with pytest.raises(ValueError):
        field_new(1, 1)


def test_order_ceiling():
    with pytest.raises(ValueError):
        field_new(2, 21)


def test_inv_zero():
    with pytest.raises(ZeroDivisionError):
        field_new(7).inv(0)


def test_primitive_elements_against_order_scan():
    for p, m in [(7, 1), (2, 2), (2, 1), (3, 2), (13, 1), (2, 4)]:
        fld = field_new(p, m)
        orders = brute_orders(fld)
        expected = sorted(x for x, o in orders.items() if o == fld.q - 1)
        assert fld.primitive_elements() == expected
        assert len(expected) == euler_phi(fld.q - 1)


def test_primitive_elements_known_values():
    assert field_new(7).primitive_elements() == [3, 5]
    assert field_new(2, 2).primitive_elements() == [2, 3]
    assert field_new(2).primitive_elements() == [1]


def test_euler_phi():
    assert euler_phi(6) == 2
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(80) == 32
    with pytest.raises(ValueError):
        euler_phi(0)


def test_field_axioms_random():
    rng = random.Random(7)
    for p, m in [(7, 1), (251, 1), (2, 3), (3, 2), (3, 4), (5, 2)]:
        fld = field_new(p, m)
        for _ in range(200):
            a, b, c = (rng.randrange(fld.q) for _ in range(3))
            assert fld.add(a, b) == fld.add(b, a)
            assert fld.mul(a, b) == fld.mul(b, a)
            assert fld.add(fld.add(a, b), c) == fld.add(a, fld.add(b, c))
            assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
            assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
            assert fld.sub(a, b) == fld.add(a, fld.neg(b))
            assert fld.pow(a, fld.q) == a
            if a:
                assert fld.mul(a, fld.inv(a)) == 1


def test_pow_matches_repeated_multiplication():
    rng = random.Random(3)
    for fld in (field_new(13), field_new(2, 4)):
        for _ in range(50):
            a = rng.randrange(1, fld.q)
            e = rng.randrange(0, 30)
            acc = 1
            for _ in range(e):
                acc = fld.mul(acc, a)
            assert fld.pow(a, e) == acc


def test_vectorized_ops_match_scalar():
    for p, m in [(7, 1), (3, 4), (2, 3), (1367, 1)]:
        fld = field_new(p, m)
        xs = np.arange(min(fld.q, 400), dtype=np.int64)
        for a in (0, 1, fld.q - 1, min(5, fld.q - 1)):
            assert fld.v_add(xs, np.int64(a)).tolist() == [fld.add(int(x), a) for x in xs]
            assert fld.v_mul(xs, np.int64(a)).tolist() == [fld.mul(int(x), a) for x in xs]


def mul_add(fld, a, b, c):
    return fld.v_add(fld.v_mul(a, b), c)


def expected_mul_add(fld, a, b, c):
    a, b, c = np.broadcast_arrays(a, b, c)
    return [[fld.add(fld.mul(x, y), z) for x, y, z in zip(*rows)] for rows in zip(a.tolist(), b.tolist(), c.tolist())]


@pytest.mark.parametrize("p, m", [(7, 1), (251, 1), (3, 4), (2, 8), (5, 3)])
def test_fused_ops_match_scalar_on_every_element(p, m):
    fld = field_new(p, m)
    xs = np.arange(fld.q, dtype=np.int64)
    inverses = fld.v_inv(xs)
    assert inverses[0] == 0  # 0 maps to 0; callers mask it
    assert inverses[1:].tolist() == [fld.inv(int(x)) for x in xs[1:]]
    # every (a, b) product with a third operand that varies along both axes
    c = (xs[:, None] + 3 * xs) % fld.q
    assert mul_add(fld, xs[:, None], xs, c).tolist() == expected_mul_add(fld, xs[:, None], xs, c)
    # the stage sweep's (block, 1) x (q,) broadcast: one row per lead
    leads = xs[::-1][:13, None]
    rows = mul_add(fld, leads, xs, xs[::-1])
    assert rows.shape == (len(leads), fld.q)
    assert rows.tolist() == expected_mul_add(fld, leads, xs, xs[::-1])


@pytest.mark.parametrize("p", [65521, 65537, 1048573])
def test_fused_ops_on_large_prime_fields(p):
    # the primes on either side of 2^16 and the largest below the 2^20 ceiling
    fld = field_new(p)
    rng = np.random.default_rng(p)
    a, b, c = rng.integers(0, p, (3, 2000))
    a[:3], b[:3], c[:3] = p - 1, p - 1, (p - 1, 0, 1)  # the largest products
    out = mul_add(fld, a, b, c)
    assert out.tolist() == [fld.add(fld.mul(x, y), z) for x, y, z in zip(a.tolist(), b.tolist(), c.tolist())]
    assert mul_add(fld, a[:40, None], b[:50], c[:50]).tolist() == expected_mul_add(fld, a[:40, None], b[:50], c[:50])
    inverses = fld.v_inv(np.concatenate(([0], a)))
    assert inverses[0] == 0
    assert inverses[1:].tolist() == [fld.inv(x) if x else 0 for x in a.tolist()]


@pytest.mark.parametrize("p, m", [(2, 1), (7, 1), (1367, 1), (2, 8), (3, 4), (5, 3)])
def test_log_exp_and_sums_match_scalar(p, m):
    # every product through the logs, including 0 on either side, and sums
    # along each axis of stacks of 1..9 elements against chains of add
    fld = field_new(p, m)
    xs = np.arange(fld.q, dtype=np.int64)
    logs = fld.v_log(xs)
    assert fld.v_exp(logs[:, None] + logs).tolist() == fld.v_mul(xs[:, None], xs).tolist()
    rng = np.random.default_rng(fld.q)
    for count in range(1, 10):
        stack = rng.integers(0, fld.q, (count, 3, 7))
        stack[0, 0] = fld.q - 1  # the largest sums
        for axis in range(3):
            total = np.zeros(np.delete(stack.shape, axis), np.int64)
            for part in np.moveaxis(stack, axis, 0):
                total = np.vectorize(fld.add)(total, part)
            assert fld.v_sum(stack, axis=axis).tolist() == total.tolist()


@pytest.mark.parametrize("p", [2, 3, 65521, 65537, 1048573])
def test_prime_field_add_at_the_wrap(p):
    # a + b >= p and a + b < p on either side of p, scalars and arrays
    fld = field_new(p)
    a = np.array([0, p - 1, p - 1, p // 2, 1 % p, p - 1])
    b = np.array([0, 0, p - 1, p - p // 2, p - 1, 1 % p])
    assert fld.v_add(a, b).tolist() == [(x + y) % p for x, y in zip(a.tolist(), b.tolist())]
    assert fld.v_add(p - 1, p - 1) == (2 * p - 2) % p and fld.v_add(np.int64(p - 1), 1 % p) == p % p


@pytest.mark.parametrize("p, m", [(1367, 1), (2, 8), (3, 4)])
def test_tables_are_independent_of_the_orbit_block_size(p, m, monkeypatch):
    want = Field(p, m)
    sizes = []
    digit_rows = gf._digit_rows
    monkeypatch.setattr(gf, "_digit_rows", lambda v, p, m: sizes.append(np.size(v)) or digit_rows(v, p, m))
    monkeypatch.setattr(errors, "BLOCK_BYTES", 1)
    got = Field(p, m)
    assert sizes.count(1) >= want.q - 2  # the powers past g^1, each laid out as a one-row block
    tables = [name for name in ("_nlog", "_nexp", "_nzech") if hasattr(want, name)]
    assert tables == [name for name in ("_nlog", "_nexp", "_nzech") if hasattr(got, name)]
    for name in tables:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (7, 1), (1367, 1), (2, 2), (2, 8), (3, 4), (5, 3)])
def test_v_sqrt_matches_the_squares(p, m):
    # every element against the set of squares, with every root squared back
    fld = field_new(p, m)
    xs = np.arange(fld.q)
    squares = set(fld.v_mul(xs, xs).tolist())
    square, root = fld.v_sqrt(xs)
    assert square.tolist() == [x in squares for x in range(fld.q)]
    assert np.array_equal(fld.v_mul(root, root)[square], xs[square])
    assert square[0] and root[0] == 0


@pytest.mark.parametrize("p", [p for p in range(200) if is_prime(p)] + [1367, 65521, 65537, 1048573])
def test_prime_field_tables_match_integer_arithmetic(p):
    fld = field_new(p)
    divisors = list(factorize(p - 1))

    def generates(x):
        return all(pow(x, (p - 1) // r, p) != 1 for r in divisors)

    # the rule the tables replaced: the smallest x >= 1 of full order
    assert fld.generator() == next(x for x in range(1, p) if generates(x))
    if p < 200:
        assert fld.primitive_elements() == [x for x in range(1, p) if generates(x)]
    # every nonzero element up to 1367, a seeded sample above
    xs = list(range(1, p)) if p <= 1367 else np.random.default_rng(p).integers(1, p, 500).tolist()
    ys = xs[1:] + xs[:1]
    inverses = [pow(x, -1, p) for x in xs]
    assert [fld.inv(x) for x in xs] == inverses
    assert fld.v_inv(np.array([0] + xs)).tolist() == [0] + inverses
    for e in (0, 1, 2, 5, p - 2, p - 1, p, 3 * p + 7, -1, -2, -(p + 3)):
        assert [fld.pow(x, e) for x in xs] == [pow(x, e, p) for x in xs]
    assert fld.pow(0, 0) == 1 and fld.pow(0, 5) == 0
    assert [fld.mul(x, y) for x, y in zip(xs, ys)] == [x * y % p for x, y in zip(xs, ys)]
    assert fld.v_mul(np.array(xs), np.array(ys)).tolist() == [x * y % p for x, y in zip(xs, ys)]
    assert [fld.neg(x) for x in [0] + xs] == [-x % p for x in [0] + xs]


def test_inverse_in_gf2():
    # N = 1 there: 1 = exp[N - log 1] and 0 = exp[N - 2N], in the zero region
    assert field_new(2).v_inv(np.array([0, 1])).tolist() == [0, 1]


class Schoolbook:
    """Arithmetic in F_p[x] / (modulus) on digit lists, independent of the
    field's tables: digit-wise addition, a polynomial product reduced by
    long division, and powers (hence inverses) by square-and-multiply."""

    def __init__(self, fld):
        self.p, self.m, self.q = fld.p, fld.m, fld.q
        self.modulus = list(fld.modulus)

    def digits(self, x):
        return [x // self.p**i % self.p for i in range(self.m)]

    def encode(self, d):
        return sum(c * self.p**i for i, c in enumerate(d))

    def add(self, x, y):
        return self.encode([(a + b) % self.p for a, b in zip(self.digits(x), self.digits(y))])

    def neg(self, x):
        return self.encode([(-a) % self.p for a in self.digits(x)])

    def mul(self, x, y):
        p, m = self.p, self.m
        prod = [0] * (2 * m - 1)
        for i, a in enumerate(self.digits(x)):
            for j, b in enumerate(self.digits(y)):
                prod[i + j] += a * b
        for top in range(2 * m - 2, m - 1, -1):  # modulus is monic
            lead = prod[top] % p
            for i in range(m + 1):
                prod[top - m + i] -= lead * self.modulus[i]
        return self.encode([c % p for c in prod[:m]])

    def pow(self, x, e):
        if e < 0:
            return self.pow(self.inv(x), -e)
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, x)
            x = self.mul(x, x)
            e >>= 1
        return result

    def inv(self, x):
        assert x != 0
        return self.pow(x, self.q - 2)

    def has_full_order(self, x):
        return x != 0 and all(self.pow(x, (self.q - 1) // r) != 1 for r in factorize(self.q - 1))


def check_pairs_against_schoolbook(fld, xs, ys):
    ob = Schoolbook(fld)
    for x, y in zip(xs, ys):
        assert fld.add(x, y) == ob.add(x, y), (fld, x, y)
        assert fld.sub(x, y) == ob.add(x, ob.neg(y)), (fld, x, y)
        assert fld.mul(x, y) == ob.mul(x, y), (fld, x, y)
        assert fld.neg(x) == ob.neg(x), (fld, x)
        if y:
            assert ob.mul(fld.inv(y), y) == 1 and fld.div(x, y) == ob.mul(x, fld.inv(y)), (fld, x, y)
    a, b = np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)
    assert fld.v_add(a, b).tolist() == [ob.add(x, y) for x, y in zip(xs, ys)]
    assert fld.v_mul(a, b).tolist() == [ob.mul(x, y) for x, y in zip(xs, ys)]
    assert fld.v_add(a, b).dtype == fld.v_mul(a, b).dtype == np.int64


@pytest.mark.parametrize("p, m", [(2, 3), (3, 2), (5, 2), (7, 2)])
def test_small_extension_fields_match_schoolbook_on_every_pair(p, m):
    fld = field_new(p, m)
    ob = Schoolbook(fld)
    # the modulus has no root (degree <= 3: irreducible), and every monic
    # polynomial of smaller encoding has one
    def has_root(coeffs):
        return any(sum(c * t**i for i, c in enumerate(coeffs)) % p == 0 for t in range(p))

    assert not has_root(fld.modulus) and fld.modulus[-1] == 1
    assert all(has_root(ob.digits(enc) + [1]) for enc in range(ob.encode(list(fld.modulus[:m]))))
    pairs = [(x, y) for x in range(fld.q) for y in range(fld.q)]
    check_pairs_against_schoolbook(fld, [x for x, _ in pairs], [y for _, y in pairs])
    grid = np.arange(fld.q, dtype=np.int64)
    assert fld.v_add(grid[:, None], grid[None, :]).tolist() == [[ob.add(x, y) for y in grid] for x in grid]
    assert fld.v_mul(grid[:, None], grid[None, :]).tolist() == [[ob.mul(x, y) for y in grid] for x in grid]
    for x in range(1, fld.q):
        assert fld.inv(x) == ob.inv(x)
        for e in (-3, -1, 0, 1, 2, fld.q - 2, fld.q - 1, fld.q, 3 * fld.q + 1):
            assert fld.pow(x, e) == ob.pow(x, e), (x, e)
    assert fld.pow(0, 0) == 1 and fld.pow(0, 5) == 0
    primitive = [x for x in range(fld.q) if ob.has_full_order(x)]
    assert fld.primitive_elements() == primitive and fld.generator() == primitive[0]


SAMPLED_FIELDS = [(3, 4), (5, 3), (2, 8), (2, 16), (3, 10), (2, 17), (3, 11), (2, 20)]


@pytest.mark.parametrize("p, m", SAMPLED_FIELDS)
def test_extension_fields_match_schoolbook_on_seeded_samples(p, m):
    fld = Field(p, m)  # uncached: the largest tables are released after the test
    ob = Schoolbook(fld)
    rng = random.Random(p * 100 + m)
    xs = [0, 0, 1, fld.q - 1] + [rng.randrange(fld.q) for _ in range(300)]
    ys = [0, 5, fld.q - 1, fld.q - 1] + [rng.randrange(fld.q) for _ in range(300)]
    check_pairs_against_schoolbook(fld, xs, ys)
    for _ in range(30):
        x, e = rng.randrange(1, fld.q), rng.randrange(-fld.q, 2 * fld.q)
        assert fld.inv(x) == ob.inv(x)
        assert fld.pow(x, e) == ob.pow(x, e), (x, e)
    # the smallest-index generator: indices below p are constants
    g = fld.generator()
    assert ob.has_full_order(g) and not any(ob.has_full_order(c) for c in range(p, g))
    primitive = fld.primitive_elements()
    assert len(primitive) == euler_phi(fld.q - 1) and primitive[0] == g
    assert all(ob.has_full_order(x) for x in rng.sample(primitive, 10))


FIELD_POOL = [(2, 3), (3, 2), (5, 2), (7, 2), (2, 4), (3, 3), (3, 4), (5, 3), (2, 8), (3, 5), (11, 2)]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_field_ops_property_against_schoolbook(data):
    fld = field_new(*data.draw(st.sampled_from(FIELD_POOL)))
    ob = Schoolbook(fld)
    x, y, z = (data.draw(st.integers(0, fld.q - 1)) for _ in range(3))
    e = data.draw(st.integers(0, 3 * fld.q))
    check_pairs_against_schoolbook(fld, [x, y], [y, z])
    assert fld.pow(x, e) == ob.pow(x, e)
    assert fld.mul(x, fld.add(y, z)) == ob.add(ob.mul(x, y), ob.mul(x, z))
    if x:
        assert fld.inv(x) == ob.inv(x) and fld.pow(x, -e) == ob.pow(x, -e)


def test_huge_orders_refused_before_any_factorization():
    # trial division of these would run for minutes; the ceiling comes first
    t0 = time.perf_counter()
    for p, m in [(10**18 + 3, 1), (2, 10**12), (10**18 + 3, 2), (3, 13)]:
        with pytest.raises(ValueError, match="exceeds ceiling"):
            Field(p, m)
    with pytest.raises(ValueError, match="exceeds ceiling"):
        field_from_order(10**18 + 3)
    assert time.perf_counter() - t0 < 1.0


def test_int_embed_characteristic():
    f8 = field_new(2, 3)
    assert f8.int_embed(2) == 0
    f9 = field_new(3, 2)
    assert f9.int_embed(3) == 0
    assert f9.int_embed(4) == 1
    assert field_new(7).int_embed(9) == 2


def test_prime_power_detection():
    assert prime_power(8) == (2, 3)
    assert prime_power(7) == (7, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert is_prime(1367) and not is_prime(1365)


def test_field_from_order():
    assert field_from_order(81) == field_new(3, 4)
    with pytest.raises(ValueError):
        field_from_order(12)


def test_field_identity_and_hash():
    assert field_new(7) == field_new(7)
    assert field_new(2, 2) != field_new(2, 3)
    assert hash(field_new(3, 2)) == hash(field_new(3, 2))
    assert repr(field_new(3, 2)) == "GF(3^2)"
    assert field_new(7).name() == "GF(7)"


def test_check_range():
    f7 = field_new(7)
    with pytest.raises(ValueError):
        f7.check(7)
    with pytest.raises(ValueError):
        f7.check(-1)
    assert f7.check(6) == 6
