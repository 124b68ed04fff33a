"""Finite quadratic modules (discriminant forms) and the overlattice map.

Elements are exponent vectors against invariant-factor generators; q takes
values in Q/2Z (reduced to [0, 2)) and b in Q/Z (reduced to [0, 1)).
Internally both are integers: with the level M (the lcm of all the
denominators), M*q is taken mod 2M and M*b mod M.  Scans over every
element (isotropic elements, the isomorphism fingerprint) read the integer
table of (element order, M*q mod 2M) and build no Fraction.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

from .exactlinalg import (
    IntMat,
    _clear_denominators,
    _dots,
    bilinear_table,
    lattice_rows_hnf,
    rational_product,
)
from .lattice import DualVector, Lattice, _induced_gram_rational, discriminant_group

GroupElement = tuple[int, ...]

DEFAULT_GUARD_ORDER = 1 << 10


@dataclass(frozen=True)
class FiniteQuadraticModule:
    """Generators g_i of order d_i with q(g_i) in Q/2Z and b(g_i, g_j) in Q/Z."""

    orders: tuple[int, ...]
    q_diag: tuple[Fraction, ...]
    b_mat: tuple[tuple[Fraction, ...], ...]
    source: Lattice | None = None
    lifts: tuple[tuple[Fraction, ...], ...] | None = None
    class_columns: tuple[tuple[int, ...], ...] | None = None
    # derived: the level M and the integer tables M*q_diag and M*b_mat;
    # the lifts as integer rows over one denominator, lifts = lift_num / lift_den
    level: int = field(init=False, repr=False, compare=False)
    q_int: tuple[int, ...] = field(init=False, repr=False, compare=False)
    b_int: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    lift_num: tuple[tuple[int, ...], ...] | None = field(init=False, repr=False, compare=False)
    lift_den: int = field(init=False, repr=False, compare=False)

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
            if self.q_diag[i] % 1 != self.b_mat[i][i]:
                raise ValueError("b(g, g) must equal q(g) mod Z")
            if self.orders[i] ** 2 * self.q_diag[i] % 2 != 0:
                raise ValueError("q incompatible with the generator order")
            for j in range(k):
                if self.orders[i] * self.b_mat[i][j] % 1 != 0:
                    raise ValueError("b incompatible with the generator orders")
        level = math.lcm(*(x.denominator for x in self.q_diag),
                         *(x.denominator for row in self.b_mat for x in row))
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "q_int", tuple(int(x * level) for x in self.q_diag))
        object.__setattr__(
            self, "b_int", tuple(tuple(int(x * level) for x in row) for row in self.b_mat)
        )
        num, den = _clear_denominators(self.lifts or ())
        object.__setattr__(self, "lift_num", None if self.lifts is None else tuple(map(tuple, num)))
        object.__setattr__(self, "lift_den", den)

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
        if not self.lifts:
            return (Fraction(0),) * self.source.rank
        (num,) = _dots([x], tuple(zip(*self.lift_num)))
        return tuple(Fraction(a, self.lift_den) for a in num)


def _b_scaled(module: FiniteQuadraticModule, x: GroupElement, y: GroupElement) -> int:
    """M*b(x, y) mod M, for reduced x and y."""
    total = 0
    for a, row in zip(x, module.b_int):
        if a:
            total += a * sum(c * r for c, r in zip(y, row) if c)
    return total % module.level


def _q_scaled(module: FiniteQuadraticModule, x: GroupElement) -> int:
    """M*q(x) mod 2M, for reduced x."""
    k = module.ngens
    total = 0
    for i, e in enumerate(x):
        if e:
            total += e * e * module.q_int[i]
            row = module.b_int[i]
            for j in range(i + 1, k):
                if x[j]:
                    total += 2 * e * x[j] * row[j]
    return total % (2 * module.level)


def _value_table(module: FiniteQuadraticModule) -> list[tuple[int, int]]:
    """(order, M*q mod 2M) of every element, in ``elements()`` order."""
    return [(module.element_order(x), _q_scaled(module, x)) for x in module.elements()]


def q_value(module: FiniteQuadraticModule, x) -> Fraction:
    """q(x) in Q/2Z, reduced into [0, 2)."""
    return Fraction(_q_scaled(module, module.reduce(x)), module.level)


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
    raw, den = bilinear_table(lifts, lattice.gram.entries, lifts)
    q_diag = tuple(Fraction(row[i] % (2 * den), den) for i, row in enumerate(raw))
    b_mat = tuple(tuple(Fraction(e % den, den) for e in row) for row in raw)
    return FiniteQuadraticModule(orders, q_diag, b_mat, lattice, lifts, disc.class_columns)


def class_of(module: FiniteQuadraticModule, vector: DualVector) -> GroupElement:
    """Class of a dual vector in A_L, for lattice-backed modules.

    w = v*gram is integral exactly when v lies in the dual lattice, and the
    class is then (w . col_j mod n_j)_j over the class table built by
    ``discriminant_group``.
    """
    if module.class_columns is None or module.source is None:
        raise ValueError("module has no lattice back-reference")
    (num,), den = rational_product([vector.coords], module.source.gram.entries)
    if any(e % den for e in num):
        raise ValueError("vector is not in the dual lattice")
    (dots,) = _dots([[e // den for e in num]], module.class_columns)
    return tuple(e % n for e, n in zip(dots, module.orders))


# ---------------------------------------------------------------------------
# uniqueness and splitting predicates for even lattices (Nikulin 1979)
#
# Each reads the signature of the source lattice and l(A_L), the minimum
# number of generators of A_L, which is ngens: the orders are the invariant
# factors, all at least 2.  A lattice-backed module comes from an even
# nondegenerate lattice, so the signature has no zero part.

def _source_signature(module: FiniteQuadraticModule) -> tuple[int, int]:
    if module.source is None:
        raise ValueError("module has no lattice back-reference")
    t_plus, t_minus, _ = module.source.signature
    return t_plus, t_minus


def nikulin_unique(module: FiniteQuadraticModule) -> bool:
    """Even indefinite L with rank >= 2 + l(A_L) is unique in its genus."""
    t_plus, t_minus = _source_signature(module)
    return t_plus >= 1 and t_minus >= 1 and t_plus + t_minus >= 2 + module.ngens


def splits_E8(module: FiniteQuadraticModule) -> bool:
    t_plus, t_minus = _source_signature(module)
    return t_plus >= 1 and t_minus >= 8 and t_plus + t_minus >= 9 + module.ngens


def splits_U(module: FiniteQuadraticModule) -> bool:
    t_plus, t_minus = _source_signature(module)
    return t_plus >= 1 and t_minus >= 1 and t_plus + t_minus >= 3 + module.ngens


def two_elem_invariants(module: FiniteQuadraticModule) -> tuple[tuple[int, int], int, int] | None:
    """(signature, l, delta) for a 2-elementary even lattice, else None.

    delta = 0 iff every value of the discriminant quadratic form is an
    integer mod 2Z; for 2-elementary groups checking the generators
    suffices because 2*b(x, y) is always integral there.
    """
    signature = _source_signature(module)
    if any(d != 2 for d in module.orders):
        return None
    delta = int(any(q.denominator != 1 for q in module.q_diag))
    return signature, module.ngens, delta


def isotropic_elements(module: FiniteQuadraticModule) -> list[GroupElement]:
    """All nonzero x with q(x) = 0, in lexicographic exponent order."""
    out = []
    for x in module.elements():
        if any(x) and _q_scaled(module, x) == 0:
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
    level = module.level
    orth = [
        sum(1 << j for j, e in enumerate(row) if e % level == 0)
        for row in _dots(_dots(iso, module.b_int), iso)
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
    gens = subgroup.gens
    for i, g in enumerate(gens):
        if q_value(module, g) != 0 or any(_b_scaled(module, g, h) for h in gens[:i]):
            raise ValueError("subgroup is not isotropic")
    rows = _dots(gens, tuple(zip(*module.lift_num)))
    gram = _induced_gram_rational(lattice.gram, rows, module.lift_den)
    if any(gram.entries[i][i] % 2 for i in range(lattice.rank)):
        raise ValueError("overlattice is odd; subgroup was not isotropic for q")
    return Lattice(gram, None)


def negate(module: FiniteQuadraticModule) -> FiniteQuadraticModule:
    q = tuple(-x % 2 for x in module.q_diag)
    b = tuple(tuple(-x % 1 for x in row) for row in module.b_mat)
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
    if len(_span(module, gens)) != module.order:
        raise ValueError("elements do not generate the module")
    for g, d in zip(gens, orders):
        if module.element_order(g) != d:
            raise ValueError("stated generator order is wrong")
    q = tuple(q_value(module, g) for g in gens)
    b = tuple(tuple(b_value(module, gens[i], gens[j]) for j in range(k)) for i in range(k))
    return FiniteQuadraticModule(tuple(orders), q, b)


def guard_order() -> int:
    """The search guard: EVENLAT_GUARD_ORDER if set, a positive integer."""
    env = os.environ.get("EVENLAT_GUARD_ORDER")
    if not env:
        return DEFAULT_GUARD_ORDER
    try:
        limit = int(env)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError(f"EVENLAT_GUARD_ORDER must be a positive integer, got {env!r}")
    return limit


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

    Before the search, both modules are compared by their level and by the
    multiset of (element order, M*q mod 2M) over all elements, in integers.
    The level is an isometry invariant: it is the lcm of the denominators
    of all values of q and b.  Only the distinct keys of m2 become
    (order, q) pairs with a Fraction q, to match q_value on m1's generators.
    """
    limit = guard if guard is not None else guard_order()
    if m1.order > limit or m2.order > limit:
        raise GuardExceeded(
            f"module order {max(m1.order, m2.order)} exceeds the search guard {limit}"
        )
    if m1.order != m2.order or m1.level != m2.level:
        return None
    table2 = _value_table(m2)
    if sorted(_value_table(m1)) != sorted(table2):
        return None
    buckets: dict[tuple[int, int], list[GroupElement]] = {}
    for y, key in zip(m2.elements(), table2):
        buckets.setdefault(key, []).append(y)
    by_order_q = {(d, Fraction(v, m2.level)): ys for (d, v), ys in buckets.items()}
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
