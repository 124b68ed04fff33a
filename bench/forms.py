"""The benchmark's own exact arithmetic, written apart from evenlat.

Inputs are orthogonal sums of small blocks whose discriminant forms are
known in closed form, so every reference value the checks compare
against (determinants, invariant factors, isotropic counts, subgroup
counts, fingerprints) is computed here without calling the program.

A block is a tuple: ("U", m) is U(m) (U(1) is the hyperbolic plane),
("diag", n) is the rank-1 lattice <n>, and ("E8",) is the negative
definite E8.  For U(m) and <n> the standard dual basis (the rows of the
inverse Gram) is an invariant-factor basis of the discriminant group, so
the block form is the inverse Gram with generator orders m, m or |n|.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import product

# Dynkin diagram of E8: chain 0-1-2-3-4-5-6 with node 7 attached to node 4
_E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7))


def block_gram(block) -> list[list[int]]:
    kind = block[0]
    if kind == "U":
        m = block[1]
        return [[0, m], [m, 0]]
    if kind == "diag":
        return [[block[1]]]
    if kind == "E8":
        g = [[-2 if i == j else 0 for j in range(8)] for i in range(8)]
        for i, j in _E8_EDGES:
            g[i][j] = g[j][i] = 1
        return g
    raise ValueError(f"unknown block {block!r}")


def block_name(block) -> str:
    if block[0] == "U":
        return "U" if block[1] == 1 else f"U({block[1]})"
    if block[0] == "diag":
        return "A1" if block[1] == -2 else f"<{block[1]}>"
    return "E8"


def expr_name(blocks) -> str:
    return "+".join(block_name(b) for b in blocks)


def sum_gram(blocks) -> list[list[int]]:
    grams = [block_gram(b) for b in blocks]
    n = sum(len(g) for g in grams)
    out = [[0] * n for _ in range(n)]
    at = 0
    for g in grams:
        for i, row in enumerate(g):
            out[at + i][at: at + len(row)] = row
        at += len(g)
    return out


def scramble(gram, rng, steps: int):
    """U * gram * U^T for a random unimodular U: a signed permutation of the
    basis, then ``steps`` row additions r_i += s * r_j (i != j, s = +-1),
    all drawn from ``rng``."""
    n = len(gram)
    perm = rng.sample(range(n), n)
    u = [[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        u[i] = [a + s * b for a, b in zip(u[i], u[j])]
    ug = [[sum(u[i][k] * gram[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(ug[i][k] * u[j][k] for k in range(n)) for j in range(n)] for i in range(n)]


def det(rows) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * prev


class BlockForm:
    """The discriminant form of an orthogonal sum of blocks.

    Values are integer-scaled: with N the lcm of the generator orders,
    b(x, y) * N is kept mod N and q(x) * N mod 2N.
    """

    def __init__(self, blocks):
        orders, diag, pairs = [], [], []
        for block in blocks:
            if block[0] == "U" and block[1] != 1:
                m = block[1]
                k = len(orders)
                orders += [m, m]
                diag += [Fraction(0), Fraction(0)]
                pairs.append((k, k + 1, Fraction(1, m)))
            elif block[0] == "diag" and abs(block[1]) != 1:
                orders.append(abs(block[1]))
                diag.append(Fraction(1, block[1]))
        self.orders = tuple(orders)
        k = len(orders)
        self.level = math.lcm(*orders) if orders else 1
        big = self.level
        self.bmat = [[0] * k for _ in range(k)]
        for i, d in enumerate(diag):
            self.bmat[i][i] = int(d * big)
        for i, j, v in pairs:
            self.bmat[i][j] = self.bmat[j][i] = int(v * big)

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    def elements(self):
        return product(*(range(d) for d in self.orders))

    def q(self, x) -> int:
        """q(x) * N, reduced mod 2N."""
        k = len(x)
        total = sum(self.bmat[i][i] * x[i] * x[i] for i in range(k))
        total += 2 * sum(
            self.bmat[i][j] * x[i] * x[j] for i in range(k) for j in range(i + 1, k)
        )
        return total % (2 * self.level)

    def b(self, x, y) -> int:
        """b(x, y) * N, reduced mod N."""
        k = len(x)
        return sum(self.bmat[i][j] * x[i] * y[j] for i in range(k) for j in range(k)) % self.level

    def add(self, x, y):
        return tuple((a + c) % d for a, c, d in zip(x, y, self.orders))

    def element_order(self, x) -> int:
        return math.lcm(*(d // math.gcd(a, d) for a, d in zip(x, self.orders)))

    def isotropic_elements(self) -> list[tuple[int, ...]]:
        return [x for x in self.elements() if any(x) and self.q(x) == 0]

    def fingerprint(self) -> Counter:
        """Multiset of (element order, q) over the group: an isomorphism invariant."""
        return Counter((self.element_order(x), self.q(x)) for x in self.elements())

    def isotropic_subgroup_orders(self) -> Counter:
        """Number of isotropic subgroups of each order, the trivial one included.

        H + <x> is isotropic exactly when H is, q(x) = 0 and b(x, g) = 0
        for the generators g of H; each subgroup is kept once.
        """
        zero = tuple(0 for _ in self.orders)
        iso = self.isotropic_elements()
        seen = {frozenset((zero,))}
        frontier = [(frozenset((zero,)), ())]
        while frontier:
            nxt = []
            for elems, gens in frontier:
                for x in iso:
                    if x in elems or any(self.b(x, g) for g in gens):
                        continue
                    grown = set(elems)
                    step = x
                    while step != zero:
                        grown.update(self.add(h, step) for h in elems)
                        step = self.add(step, x)
                    grown = frozenset(grown)
                    if grown not in seen:
                        seen.add(grown)
                        nxt.append((grown, gens + (x,)))
            frontier = nxt
        return Counter(len(h) for h in seen)


def invariant_factors(orders) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of a product of cyclic groups."""
    powers: dict[int, list[int]] = {}
    for d in orders:
        p = 2
        while d > 1:
            if d % p == 0:
                e = 1
                while d % p == 0:
                    d //= p
                    e *= p
                powers.setdefault(p, []).append(e)
            p += 1
    length = max((len(v) for v in powers.values()), default=0)
    out = [1] * length
    for v in powers.values():
        for i, e in enumerate(sorted(v, reverse=True)):
            out[length - 1 - i] *= e
    return tuple(out)


def singular_subspace_counts(k: int) -> Counter:
    """Totally singular subspaces of the hyperbolic quadratic space of
    dimension 2k over F2 (the form of U(2)^k), by order 2^t:
    prod_{i<t} (2^(k-i) - 1)(2^(k-i-1) + 1) / (2^(i+1) - 1)."""
    out = Counter({1: 1})
    count = 1
    for t in range(1, k + 1):
        i = t - 1
        count = count * (2 ** (k - i) - 1) * (2 ** (k - i - 1) + 1) // (2 ** (i + 1) - 1)
        out[2 ** t] = count
    return out
