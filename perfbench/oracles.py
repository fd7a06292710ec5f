"""Independent routes to the numbers the workloads check.

Nothing here calls into the package's arithmetic or engines: field tables
are rebuilt from the modulus, orderings from the documented splitmix64 +
Fisher-Yates recipe, code LCS from the longest increasing subsequence of a
position map, and ranks from a separate Gaussian elimination mod p.
"""

from __future__ import annotations

import bisect
import itertools

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n


def sampled_ordering(q: int, seed: int, index: int) -> list[int]:
    """Ordering of trial `index` of `rsinsdel sample --seed seed`."""
    rng = SplitMix64(seed ^ ((index + 1) * GOLDEN))
    items = list(range(q))
    for i in range(q - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


class FieldTables:
    """GF(p^m) add/mul tables over base-p digit encodings, built from the modulus."""

    def __init__(self, p: int, m: int, modulus):
        q = p**m
        digits = [[(x // p**i) % p for i in range(m)] for x in range(q)]

        def encode(d):
            return sum(c * p**i for i, c in enumerate(d))

        def mul(x, y):
            prod = [0] * (2 * m - 1)
            for i, a in enumerate(digits[x]):
                for j, b in enumerate(digits[y]):
                    prod[i + j] += a * b
            for deg in range(2 * m - 2, m - 1, -1):
                top = prod[deg] % p
                if top:
                    for i in range(m + 1):
                        prod[deg - m + i] -= top * modulus[i]
            return encode([c % p for c in prod[:m]])

        self.q = q
        self.add = [[encode([(a + b) % p for a, b in zip(digits[x], digits[y])]) for y in range(q)] for x in range(q)]
        if m == 1:
            self.mul = [[x * y % p for y in range(q)] for x in range(q)]
        else:
            self.mul = [[mul(x, y) for y in range(q)] for x in range(q)]


def lis_length(seq) -> int:
    tails: list[int] = []
    for v in seq:
        i = bisect.bisect_left(tails, v)
        if i == len(tails):
            tails.append(v)
        else:
            tails[i] = v
    return len(tails)


def affine_code_lcs(tables: FieldTables, ordering) -> int:
    """Largest LCS between distinct codewords of the full-length k=2 code.

    Every pair reduces to (alpha, a*alpha + b) with a != 0, (a, b) != (1, 0);
    both are permutations of the field, so their LCS is the LIS of the
    position map.  Pairs involving a constant codeword contribute 1.
    """
    q = tables.q
    pos = [0] * q
    for i, x in enumerate(ordering):
        pos[x] = i
    best = 1
    for a in range(1, q):
        scaled = [tables.mul[a][x] for x in ordering]
        for b in range(q):
            if a == 1 and b == 0:
                continue
            add_b = tables.add[b]
            best = max(best, lis_length([pos[add_b[x]] for x in scaled]))
    return best


def rank_mod_p(rows, p: int) -> int:
    rows = [[v % p for v in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def certifies_one_insdel(points, k: int, p: int) -> bool:
    """Rank certificate at t = 1 over the prime field GF(p): every pair of
    length-(n-1) index sequences at Hamming distance >= n-k has a full-rank
    (n-1) x (2k-1) matrix of rows (1, a_I..a_I^(k-1), a_J..a_J^(k-1))."""
    n = len(points)
    ell = n - 1
    seqs = list(itertools.combinations(range(n), ell))
    for i_seq in seqs:
        for j_seq in seqs:
            if sum(a != b for a, b in zip(i_seq, j_seq)) < ell - k + 1:
                continue
            rows = []
            for it, jt in zip(i_seq, j_seq):
                ai, aj = points[it], points[jt]
                rows.append([1] + [pow(ai, e, p) for e in range(1, k)] + [pow(aj, e, p) for e in range(1, k)])
            if rank_mod_p(rows, p) < 2 * k - 1:
                return False
    return True


def eval_mod_p(coeffs, x: int, p: int) -> int:
    return sum(c * pow(x, e, p) for e, c in enumerate(coeffs)) % p


def witness_holds(points, witness: dict, length: int, p: int) -> bool:
    """f and g agree along the 1-based index sequences I and J, which are
    strictly increasing and `length` long; f != g."""
    f, g, i_seq, j_seq = witness["f"], witness["g"], witness["I"], witness["J"]
    if f == g or len(i_seq) != length or len(j_seq) != length:
        return False
    for seq in (i_seq, j_seq):
        if any(b <= a for a, b in zip(seq, seq[1:])) or not all(1 <= v <= len(points) for v in seq):
            return False
    return all(
        eval_mod_p(f, points[i - 1], p) == eval_mod_p(g, points[j - 1], p) for i, j in zip(i_seq, j_seq)
    )
