"""Finite quadratic modules (discriminant forms) and the overlattice map.

Elements are exponent vectors against invariant-factor generators; q takes
values in Q/2Z (reduced to [0, 2)) and b in Q/Z (reduced to [0, 1)).
Internally both are integers: with the level M (the lcm of all the
denominators), M*q is taken mod 2M and M*b mod M.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

from .exactlinalg import IntMat, _clear_denominators, lattice_rows_hnf
from .lattice import DualVector, Lattice, _induced_gram_rational, discriminant_group

GroupElement = tuple[int, ...]

DEFAULT_GUARD_ORDER = 1 << 10


def _mod2(x: Fraction) -> Fraction:
    return x - 2 * math.floor(x / 2)


def _mod1(x: Fraction) -> Fraction:
    return x - math.floor(x)


@dataclass(frozen=True)
class FiniteQuadraticModule:
    """Generators g_i of order d_i with q(g_i) in Q/2Z and b(g_i, g_j) in Q/Z."""

    orders: tuple[int, ...]
    q_diag: tuple[Fraction, ...]
    b_mat: tuple[tuple[Fraction, ...], ...]
    source: Lattice | None = None
    lifts: tuple[tuple[Fraction, ...], ...] | None = None
    dual_transform: IntMat | None = None
    dual_diagonal: tuple[Fraction, ...] | None = None
    # derived: the level M and the integer tables M*q_diag and M*b_mat
    level: int = field(init=False, repr=False, compare=False)
    q_int: tuple[int, ...] = field(init=False, repr=False, compare=False)
    b_int: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = len(self.orders)
        if any(d < 2 for d in self.orders):
            raise ValueError("generator orders must be at least 2")
        if len(self.q_diag) != k or len(self.b_mat) != k:
            raise ValueError("inconsistent generator data")
        for i in range(k):
            if not (0 <= self.q_diag[i] < 2):
                raise ValueError("q values must be reduced into [0, 2)")
            for j in range(k):
                if not (0 <= self.b_mat[i][j] < 1):
                    raise ValueError("b values must be reduced into [0, 1)")
                if self.b_mat[i][j] != self.b_mat[j][i]:
                    raise ValueError("b must be symmetric")
            if _mod1(self.q_diag[i]) != self.b_mat[i][i]:
                raise ValueError("b(g, g) must equal q(g) mod Z")
            if _mod2(self.orders[i] ** 2 * self.q_diag[i]) != 0:
                raise ValueError("q incompatible with the generator order")
            for j in range(k):
                if _mod1(self.orders[i] * self.b_mat[i][j]) != 0:
                    raise ValueError("b incompatible with the generator orders")
        level = math.lcm(*(x.denominator for x in self.q_diag),
                         *(x.denominator for row in self.b_mat for x in row))
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "q_int", tuple(int(x * level) for x in self.q_diag))
        object.__setattr__(
            self, "b_int", tuple(tuple(int(x * level) for x in row) for row in self.b_mat)
        )

    @property
    def ngens(self) -> int:
        return len(self.orders)

    @property
    def order(self) -> int:
        n = 1
        for d in self.orders:
            n *= d
        return n

    def zero(self) -> GroupElement:
        return (0,) * self.ngens

    def reduce(self, x) -> GroupElement:
        return tuple(int(e) % d for e, d in zip(x, self.orders))

    def add(self, x: GroupElement, y: GroupElement) -> GroupElement:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.orders))

    def neg(self, x: GroupElement) -> GroupElement:
        return tuple((-a) % d for a, d in zip(x, self.orders))

    def smul(self, n: int, x: GroupElement) -> GroupElement:
        return tuple((n * a) % d for a, d in zip(x, self.orders))

    def element_order(self, x: GroupElement) -> int:
        n = 1
        for a, d in zip(x, self.orders):
            if a:
                g = d // math.gcd(a, d)
                n = n * g // math.gcd(n, g)
        return n

    def elements(self):
        return itertools.product(*(range(d) for d in self.orders))

    def lift(self, x: GroupElement) -> tuple[Fraction, ...]:
        """A dual-lattice representative, available for lattice-backed modules."""
        if self.lifts is None:
            raise ValueError("module has no lattice back-reference")
        rows, den = _clear_denominators(self.lifts)
        out = [0] * len(rows[0])
        for e, row in zip(x, rows):
            if e:
                out = [a + e * b for a, b in zip(out, row)]
        return tuple(Fraction(a, den) for a in out)


def _b_scaled(module: FiniteQuadraticModule, x: GroupElement, y: GroupElement) -> int:
    """M*b(x, y) mod M, for reduced x and y."""
    total = 0
    for a, row in zip(x, module.b_int):
        if a:
            total += a * sum(c * r for c, r in zip(y, row) if c)
    return total % module.level


def q_value(module: FiniteQuadraticModule, x) -> Fraction:
    """q(x) in Q/2Z, reduced into [0, 2)."""
    x = module.reduce(x)
    k = module.ngens
    total = 0
    for i, e in enumerate(x):
        if e:
            total += e * e * module.q_int[i]
            row = module.b_int[i]
            for j in range(i + 1, k):
                if x[j]:
                    total += 2 * e * x[j] * row[j]
    return Fraction(total % (2 * module.level), module.level)


def b_value(module: FiniteQuadraticModule, x, y) -> Fraction:
    """b(x, y) in Q/Z, reduced into [0, 1)."""
    return Fraction(_b_scaled(module, module.reduce(x), module.reduce(y)), module.level)


def from_lattice(lattice: Lattice) -> FiniteQuadraticModule:
    """Discriminant quadratic module of an even nondegenerate lattice."""
    if not lattice.is_even:
        raise ValueError("discriminant form needs an even lattice (q is mod 2Z)")
    disc = discriminant_group(lattice)
    orders = disc.invariant_factors
    lifts = tuple(v.coords for v in disc.generator_lifts)
    k = len(orders)
    raw = [[lattice.pairing(lifts[i], lifts[j]) for j in range(k)] for i in range(k)]
    q_diag = tuple(_mod2(raw[i][i]) for i in range(k))
    b_mat = tuple(tuple(_mod1(raw[i][j]) for j in range(k)) for i in range(k))
    return FiniteQuadraticModule(
        orders, q_diag, b_mat, lattice, lifts, disc.dual_transform, disc.dual_diagonal
    )


def class_of(module: FiniteQuadraticModule, vector: DualVector) -> GroupElement:
    """Class of a dual vector in A_L, for lattice-backed modules.

    The construction recorded S*gram^-1*T = D, and the rows of D*T^-1 are
    a Z-basis of the dual lattice, so v has the coordinates v*T / D in it.
    The rows with a non-integral diagonal entry are the generators.
    """
    if module.dual_transform is None or module.source is None:
        raise ValueError("module has no lattice back-reference")
    den = math.lcm(*(c.denominator for c in vector.coords))
    num = [c.numerator * (den // c.denominator) for c in vector.coords]
    coords = [
        Fraction(sum(a * b for a, b in zip(num, col)), den) / di
        for col, di in zip(zip(*module.dual_transform.entries), module.dual_diagonal)
    ]
    if any(c.denominator != 1 for c in coords):
        raise ValueError("vector is not in the dual lattice")
    exps = [int(c) for c, di in zip(coords, module.dual_diagonal) if di.denominator != 1]
    return module.reduce(exps)


def isotropic_elements(module: FiniteQuadraticModule) -> list[GroupElement]:
    """All nonzero x with q(x) = 0, in lexicographic exponent order."""
    out = []
    for x in module.elements():
        if any(x) and q_value(module, x) == 0:
            out.append(x)
    return out


@dataclass(frozen=True)
class IsotropicSubgroup:
    module: FiniteQuadraticModule
    gens: tuple[GroupElement, ...]
    elements: frozenset[GroupElement]

    @property
    def order(self) -> int:
        return len(self.elements)


def _adjoin(module: FiniteQuadraticModule, elements, x) -> list[GroupElement]:
    """The elements of H + <x>, H given by its elements: H and its cosets H + kx."""
    members = frozenset(elements)
    out = list(elements)
    step = x
    while step not in members:
        out.extend(module.add(h, step) for h in elements)
        step = module.add(step, x)
    return out


def _span(module: FiniteQuadraticModule, gens) -> frozenset[GroupElement]:
    elements = [module.zero()]
    for g in gens:
        elements = _adjoin(module, elements, g)
    return frozenset(elements)


def _canonical_gens(module: FiniteQuadraticModule, generators) -> tuple[GroupElement, ...]:
    """Canonical generators: HNF of the preimage lattice in Z^k, reduced mod d.

    Any generating set of the subgroup gives the same preimage lattice, and
    so the same generators.
    """
    k = module.ngens
    rows = [list(x) for x in sorted(generators)]
    for i in range(k):
        rows.append([module.orders[i] if j == i else 0 for j in range(k)])
    h = lattice_rows_hnf(IntMat.from_rows(rows))
    gens = []
    for row in h.entries:
        red = module.reduce(row)
        if any(red):
            gens.append(red)
    return tuple(gens)


def isotropic_subgroups(module: FiniteQuadraticModule) -> list[IsotropicSubgroup]:
    """All subgroups on which q vanishes identically, the trivial one included.

    Every nonzero element of an isotropic subgroup is isotropic, so each
    subgroup is a set of isotropic elements, kept as a bit mask over them.
    H + <x> is isotropic exactly when H is, q(x) = 0 and b(x, g) = 0 for
    the generators g adjoined to H so far, since
    q(h + kx) = q(h) + k^2 q(x) + 2k b(h, x).  Each subgroup therefore
    carries the mask of the isotropic elements orthogonal to all its
    generators, and is grown only by those, coset by coset.  The elements
    h + kx with k prime to the order n of x mod H all give the same
    subgroup H + <x>, so only one of them is tried.
    """
    iso = isotropic_elements(module)
    index = {x: i for i, x in enumerate(iso)}
    orth = [
        sum(1 << j for j, y in enumerate(iso) if _b_scaled(module, x, y) == 0) for x in iso
    ]
    # mask of the nonzero elements -> (elements, adjoined generators, perp mask)
    found = {0: ([module.zero()], (), (1 << len(iso)) - 1)}
    frontier = [0]
    while frontier:
        new_frontier = []
        for mask in frontier:
            elements, adjoined, perp = found[mask]
            size = len(elements)
            todo = perp & ~mask
            while todo:
                i = (todo & -todo).bit_length() - 1
                grown = _adjoin(module, elements, iso[i])
                n = len(grown) // size
                grown_mask = mask
                for k in range(1, n):
                    coset = 0
                    for y in grown[k * size:(k + 1) * size]:
                        coset |= 1 << index[y]
                    grown_mask |= coset
                    if math.gcd(k, n) == 1:
                        todo &= ~coset
                if grown_mask not in found:
                    found[grown_mask] = (grown, adjoined + (iso[i],), perp & orth[i])
                    new_frontier.append(grown_mask)
        frontier = new_frontier
    out = []
    for elements, adjoined, _ in found.values():
        gens = _canonical_gens(module, adjoined) if adjoined else ()
        out.append(IsotropicSubgroup(module, gens, frozenset(elements)))
    out.sort(key=lambda s: (s.order, sorted(s.elements)))
    return out


def overlattice(lattice: Lattice, subgroup: IsotropicSubgroup) -> Lattice:
    """Even overlattice generated by L and the lifts of an isotropic subgroup.

    The result is presented on a basis extending the correspondence: its
    determinant is det(L) / |H|^2 and it contains L with index |H|.
    """
    module = subgroup.module
    if module.source is None or module.source.gram != lattice.gram:
        raise ValueError("subgroup does not belong to this lattice's discriminant form")
    for x in subgroup.elements:
        if q_value(module, x) != 0:
            raise ValueError("subgroup is not isotropic")
    n = lattice.rank
    rows = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    for g in subgroup.gens:
        rows.append(module.lift(g))
    gram = _induced_gram_rational(lattice.gram, rows)
    if any(gram.entries[i][i] % 2 for i in range(n)):
        raise ValueError("overlattice is odd; subgroup was not isotropic for q")
    return Lattice(gram, None)


def negate(module: FiniteQuadraticModule) -> FiniteQuadraticModule:
    q = tuple(_mod2(-x) for x in module.q_diag)
    b = tuple(tuple(_mod1(-x) for x in row) for row in module.b_mat)
    return FiniteQuadraticModule(module.orders, q, b)


def direct_sum(m1: FiniteQuadraticModule, m2: FiniteQuadraticModule) -> FiniteQuadraticModule:
    orders = m1.orders + m2.orders
    q = m1.q_diag + m2.q_diag
    k1, k2 = m1.ngens, m2.ngens
    b = []
    for i in range(k1):
        b.append(tuple(m1.b_mat[i]) + (Fraction(0),) * k2)
    for i in range(k2):
        b.append((Fraction(0),) * k1 + tuple(m2.b_mat[i]))
    return FiniteQuadraticModule(orders, q, tuple(b))


def submodule_on(module: FiniteQuadraticModule, gens, orders) -> FiniteQuadraticModule:
    """The quadratic module presented on the given elements as generators.

    Used for change of generators: the elements must generate the whole
    group with the stated orders (checked).
    """
    gens = [module.reduce(g) for g in gens]
    k = len(gens)
    if _span(module, gens) != frozenset(module.elements()):
        raise ValueError("elements do not generate the module")
    for g, d in zip(gens, orders):
        if module.element_order(g) != d:
            raise ValueError("stated generator order is wrong")
    q = tuple(q_value(module, g) for g in gens)
    b = tuple(tuple(b_value(module, gens[i], gens[j]) for j in range(k)) for i in range(k))
    return FiniteQuadraticModule(tuple(orders), q, b)


def guard_order() -> int:
    env = os.environ.get("EVENLAT_GUARD_ORDER")
    if env:
        return int(env)
    return DEFAULT_GUARD_ORDER


def are_isomorphic(
    m1: FiniteQuadraticModule, m2: FiniteQuadraticModule, guard: int | None = None
) -> tuple[GroupElement, ...] | None:
    """Search for a group isomorphism preserving q (b follows from q).

    On success returns the images in m2 of m1's generators, in order;
    None when no isomorphism exists.  The search backtracks over
    candidate images filtered by element order, q value, and b pairings
    with the images already chosen, then checks surjectivity.  The span
    of the images chosen so far is kept, grown by cosets: an image of
    order d some multiple k*cand (0 < k < d) of which already lies in it
    would make the span too small at the leaf, so it is skipped at once.
    """
    limit = guard if guard is not None else guard_order()
    if m1.order > limit or m2.order > limit:
        raise GuardExceeded(
            f"module order {max(m1.order, m2.order)} exceeds the search guard {limit}"
        )
    if m1.order != m2.order:
        return None
    fp1 = sorted((m1.element_order(x), q_value(m1, x)) for x in m1.elements())
    fp2 = sorted((m2.element_order(x), q_value(m2, x)) for x in m2.elements())
    if fp1 != fp2:
        return None
    by_order_q: dict[tuple, list[GroupElement]] = {}
    for y in m2.elements():
        by_order_q.setdefault((m2.element_order(y), q_value(m2, y)), []).append(y)
    k = m1.ngens
    gens1 = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    images: list[GroupElement] = []

    def extend(depth: int, span: list[GroupElement]) -> bool:
        if depth == k:
            return len(span) == m2.order
        g = gens1[depth]
        d = m1.orders[depth]
        key = (d, q_value(m1, g))
        members = frozenset(span)
        for cand in by_order_q.get(key, ()):
            if any(m2.smul(j, cand) in members for j in range(1, d)):
                continue
            ok = True
            for prev_i in range(depth):
                if b_value(m2, images[prev_i], cand) != m1.b_mat[prev_i][depth]:
                    ok = False
                    break
            if not ok:
                continue
            images.append(cand)
            if extend(depth + 1, _adjoin(m2, span, cand)):
                return True
            images.pop()
        return False

    if extend(0, [m2.zero()]):
        return tuple(images)
    return None


class GuardExceeded(Exception):
    """Isomorphism search refused: module order above the configured guard."""
