"""Finite quadratic modules (discriminant forms) and the overlattice map.

Elements are exponent vectors against invariant-factor generators; q takes
values in Q/2Z (reduced to [0, 2)) and b in Q/Z (reduced to [0, 1)).
Both are stored once, as integers: with the level M (the lcm of all the
denominators), M*q is taken mod 2M and M*b mod M; Fractions appear only at
the API edge.  Scans over every element (isotropic elements, the
isomorphism fingerprint) read the integer table of (element order,
M*q mod 2M) and build no Fraction; each module builds that table once, on
first use, and keeps it.  The isotropic subgroup search and the
isomorphism search pack each element into one int, a bit field per
coordinate, so that adding two elements and reducing them mod the orders
is a few integer operations; their results are tuples again.  Two
nondegenerate 2-elementary modules are compared by their F2 normal forms,
with no table and no search.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, mod, mul

from .exactlinalg import IntMat, _dots, hnf, rational_product
from .lattice import DiscGroupData, DualVector, Lattice, _induced_gram_rational, discriminant_group

GroupElement = tuple[int, ...]

DEFAULT_GUARD_ORDER = 1 << 10


@dataclass(frozen=True)
class FiniteQuadraticModule:
    """Generators g_i of order d_i with q(g_i) in Q/2Z and b(g_i, g_j) in Q/Z.

    q_int[i] = M*q(g_i) mod 2M and b_int[i][j] = M*b(g_i, g_j) mod M over
    the level M; a lattice-backed module keeps its discriminant group.
    The value table and its sorted copy are built on first use and kept;
    they are not fields, so equality, hash and repr never see them.
    """

    orders: tuple[int, ...]
    level: int
    q_int: tuple[int, ...]
    b_int: tuple[tuple[int, ...], ...]
    disc: DiscGroupData | None = None

    def __post_init__(self):
        k = len(self.orders)
        q, b, m = self.q_int, self.b_int, self.level
        if any(d < 2 for d in self.orders):
            raise ValueError("generator orders must be at least 2")
        if len(q) != k or len(b) != k or any(len(row) != k for row in b):
            raise ValueError("inconsistent generator data")
        if m < 1:
            raise ValueError("level must be a positive integer")
        for i in range(k):
            if not (0 <= q[i] < 2 * m):
                raise ValueError("q values must be reduced into [0, 2)")
            for j in range(k):
                if not (0 <= b[i][j] < m):
                    raise ValueError("b values must be reduced into [0, 1)")
                if b[i][j] != b[j][i]:
                    raise ValueError("b must be symmetric")
            if q[i] % m != b[i][i]:
                raise ValueError("b(g, g) must equal q(g) mod Z")
            if self.orders[i] ** 2 * q[i] % (2 * m):
                raise ValueError("q incompatible with the generator order")
            if any(self.orders[i] * e % m for e in b[i]):
                raise ValueError("b incompatible with the generator orders")
        if math.gcd(m, *q, *(e for row in b for e in row)) != 1:
            raise ValueError("level must be the least common denominator of q and b")

    @property
    def q_diag(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.level) for v in self.q_int)

    @property
    def b_mat(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(v, self.level) for v in row) for row in self.b_int)

    @property
    def ngens(self) -> int:
        return len(self.orders)

    @property
    def order(self) -> int:
        return math.prod(self.orders)

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

    @cached_property
    def value_table(self) -> tuple[tuple[int, int], ...]:
        """(order, M*q mod 2M) of every element, in ``elements()`` order.

        Built one generator at a time.  Each partial entry x has its order
        and M*q(x), and alongside, its pairings M*b(x, g_j) with the
        generators still to come.  Adding t*g_i adds
        t*(t*M*q(g_i) + 2*M*b(x, g_i)) to M*q, and the order becomes the lcm
        with n_i / gcd(t, n_i).  The pairings enter only as 2*M*b mod 2M, so
        they need no reduction mod M.
        """
        two_m = 2 * self.level
        table, pairings = [(1, 0)], [(0,) * self.ngens]
        for i, n in enumerate(self.orders):
            q_i, b_later = self.q_int[i], self.b_int[i][i + 1:]
            steps = [(t, n // math.gcd(t, n), t * q_i) for t in range(n)]
            table = [
                (math.lcm(order, n_t), (q + t * (tq + 2 * lin[0])) % two_m)
                for (order, q), lin in zip(table, pairings)
                for t, n_t, tq in steps
            ]
            if b_later:
                shifts = [tuple(t * b for b in b_later) for t in range(n)]
                pairings = [
                    tuple(map(add, lin[1:], shift)) for lin in pairings for shift in shifts
                ]
        return tuple(table)

    @cached_property
    def fingerprint(self) -> tuple[tuple[int, int], ...]:
        """The value table sorted, an isometry invariant."""
        return tuple(sorted(self.value_table))

    def lift(self, x: GroupElement) -> tuple[Fraction, ...]:
        """A dual-lattice representative, available for lattice-backed modules."""
        if self.disc is None:
            raise ValueError("module has no lattice back-reference")
        if not self.ngens:
            return (Fraction(0),) * self.disc.lattice.rank
        (num,) = _dots([x], tuple(zip(*self.disc.lift_num)))
        return tuple(Fraction(a, self.disc.lift_den) for a in num)


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
    # the pairings of the lifts are raw / den, both divided by their gcd
    raw = _dots(_dots(disc.lift_num, lattice.gram.entries), disc.lift_num)
    den = disc.lift_den * disc.lift_den
    g = math.gcd(den, *(e for row in raw for e in row))
    level = den // g
    q = tuple(row[i] // g % (2 * level) for i, row in enumerate(raw))
    b = tuple(tuple(e // g % level for e in row) for row in raw)
    return FiniteQuadraticModule(disc.invariant_factors, level, q, b, disc)


def class_of(module: FiniteQuadraticModule, vector: DualVector) -> GroupElement:
    """Class of a dual vector in A_L, for lattice-backed modules.

    w = v*gram is integral exactly when v lies in the dual lattice, and the
    class is then ``class_of_pairings(module, w)``.
    """
    disc = module.disc
    if disc is None:
        raise ValueError("module has no lattice back-reference")
    if vector.lattice.gram != disc.lattice.gram:
        raise ValueError("vector does not belong to this module's lattice")
    (num,), den = rational_product([vector.coords], disc.lattice.gram.entries)
    if any(e % den for e in num):
        raise ValueError("vector is not in the dual lattice")
    return class_of_pairings(module, [e // den for e in num])


def class_of_pairings(module: FiniteQuadraticModule, row) -> GroupElement:
    """Class of the dual vector v with the integral row w = v*gram.

    The class is (w . col_j mod n_j)_j over the class table built by
    ``discriminant_group``; the module must be lattice-backed.
    """
    (dots,) = _dots([row], module.disc.class_columns)
    return tuple(e % n for e, n in zip(dots, module.orders))


# ---------------------------------------------------------------------------
# genus predicates for even lattices (Nikulin 1979)
#
# Each reads the signature of the source lattice and l(A_L), the minimum
# number of generators of A_L, which is ngens: the orders are the invariant
# factors, all at least 2.  A lattice-backed module comes from an even
# nondegenerate lattice, so the signature has no zero part.

def _source_signature(module: FiniteQuadraticModule) -> tuple[int, int]:
    if module.disc is None:
        raise ValueError("module has no lattice back-reference")
    t_plus, t_minus, _ = module.disc.lattice.signature
    return t_plus, t_minus


def nikulin_unique(module: FiniteQuadraticModule) -> bool:
    """Even indefinite L with rank >= 2 + l(A_L) is unique in its genus."""
    t_plus, t_minus = _source_signature(module)
    return t_plus >= 1 and t_minus >= 1 and t_plus + t_minus >= 2 + module.ngens


def two_elem_invariants(module: FiniteQuadraticModule) -> tuple[tuple[int, int], int, int] | None:
    """(signature, l, delta) for a 2-elementary even lattice, else None.

    delta = 0 iff every value of the discriminant quadratic form is an
    integer mod 2Z; for 2-elementary groups checking the generators
    suffices because 2*b(x, y) is always integral there.
    """
    signature = _source_signature(module)
    if any(d != 2 for d in module.orders):
        return None
    delta = int(any(v % module.level for v in module.q_int))
    return signature, module.ngens, delta


def isotropic_elements(module: FiniteQuadraticModule) -> list[GroupElement]:
    """All nonzero x with q(x) = 0, in lexicographic exponent order."""
    # the zero element comes first
    return [x for x, (_, q) in zip(module.elements(), module.value_table) if q == 0][1:]


@dataclass(frozen=True)
class IsotropicSubgroup:
    module: FiniteQuadraticModule
    gens: tuple[GroupElement, ...]
    elements: frozenset[GroupElement]

    @property
    def order(self) -> int:
        return len(self.elements)


def _canonical_gens(module: FiniteQuadraticModule, generators) -> tuple[GroupElement, ...]:
    """Canonical generators: HNF of the preimage lattice in Z^k, reduced mod d.

    Any generating set of the subgroup gives the same preimage lattice, and
    so the same generators.  The HNF rows that vanish mod the orders (the
    zero rows among them) are dropped.
    """
    orders = module.orders
    rows = sorted(generators) + [
        [d if j == i else 0 for j in range(module.ngens)] for i, d in enumerate(orders)
    ]
    gens = []
    for row in hnf(IntMat.from_rows(rows)).entries:
        red = tuple(map(mod, row, orders))
        if any(red):
            gens.append(red)
    return tuple(gens)


def _packing(orders):
    """(pack, translate) for elements packed into ints.

    Coordinate i of an element is one field of w = max(orders).bit_length() + 1
    bits of an int, coordinate 0 in the most significant field, so that
    int order is tuple order: ``pack`` turns a reduced tuple into its int.
    A sum of two reduced fields fits in w bits, and it is at least d_i
    exactly when it reaches bit w-1 after d_i is taken from 2^(w-1); so
    one addition, one shift and two masks add two elements and reduce
    every field.  ``translate(x, ys)`` is the list of x + y over the packed
    ys, for a packed x.
    """
    w = max(orders, default=1).bit_length() + 1
    top, field = w - 1, (1 << w) - 1
    shifts = [w * i for i in reversed(range(len(orders)))]
    off = sum(((1 << top) - d) << s for d, s in zip(orders, shifts))
    ones = sum(1 << s for s in shifts)
    ds = sum(d << s for d, s in zip(orders, shifts))

    def pack(x) -> int:
        return sum(e << s for e, s in zip(x, shifts))

    def translate(x: int, ys) -> list[int]:
        return [s - ((((s + off) >> top) & ones) * field & ds) for s in map(x.__add__, ys)]

    return pack, translate


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

    The cosets are grown on packed elements (``_packing``), which become
    tuples only in the result and in the adjoined generators.
    """
    iso = isotropic_elements(module)
    level = module.level
    orth = [
        sum(1 << j for j, e in enumerate(row) if e % level == 0)
        for row in _dots(_dots(iso, module.b_int), iso)
    ]
    pack, translate = _packing(module.orders)
    packed = [pack(x) for x in iso]
    bit = {p: 1 << i for i, p in enumerate(packed)}
    # mask of the nonzero elements -> (elements, adjoined generators, perp mask)
    found = {0: ([0], (), (1 << len(iso)) - 1)}
    frontier = [0]
    while frontier:
        new_frontier = []
        for mask in frontier:
            elements, adjoined, perp = found[mask]
            todo = perp & ~mask
            while todo:
                i = (todo & -todo).bit_length() - 1
                x = packed[i]
                grown, grown_mask, coset_masks = list(elements), mask, []
                # step + (H, then x) is the coset step + H, then the next step
                step, ahead = x, elements + [x]
                # k*x lies in H exactly when it is 0 or one of H's bits
                while step and not bit[step] & mask:
                    coset = translate(step, ahead)
                    step = coset.pop()
                    grown += coset
                    # distinct bits: their sum is their union
                    coset_masks.append(sum(map(bit.__getitem__, coset)))
                n = len(coset_masks) + 1
                for k, coset_mask in enumerate(coset_masks, 1):
                    grown_mask |= coset_mask
                    if math.gcd(k, n) == 1:
                        todo &= ~coset_mask
                if grown_mask not in found:
                    found[grown_mask] = (grown, adjoined + (iso[i],), perp & orth[i])
                    new_frontier.append(grown_mask)
        frontier = new_frontier
    # the packed elements sort as their tuples do
    out = sorted(
        (len(elements), sorted(elements), adjoined) for elements, adjoined, _ in found.values()
    )
    unpack = dict(zip(packed, iso))
    unpack[0] = module.zero()
    return [
        IsotropicSubgroup(
            module,
            _canonical_gens(module, adjoined) if adjoined else (),
            frozenset(map(unpack.__getitem__, elements)),
        )
        for _, elements, adjoined in out
    ]


def overlattice(lattice: Lattice, subgroup: IsotropicSubgroup) -> Lattice:
    """Even overlattice generated by L and the lifts of an isotropic subgroup.

    The result is presented on a basis extending the correspondence: its
    determinant is det(L) / |H|^2 and it contains L with index |H|.  The
    generators must have q = 0 and pair to 0 (checked), so q vanishes on H
    and the overlattice is even.
    """
    module = subgroup.module
    disc = module.disc
    if disc is None or disc.lattice.gram != lattice.gram:
        raise ValueError("subgroup does not belong to this lattice's discriminant form")
    gens = subgroup.gens
    for i, g in enumerate(gens):
        if q_value(module, g) != 0 or any(_b_scaled(module, g, h) for h in gens[:i]):
            raise ValueError("subgroup is not isotropic")
    rows = _dots(gens, tuple(zip(*disc.lift_num)))
    return Lattice(_induced_gram_rational(lattice.gram, rows, disc.lift_den), None)


def negate(module: FiniteQuadraticModule) -> FiniteQuadraticModule:
    m = module.level
    q = tuple(-v % (2 * m) for v in module.q_int)
    b = tuple(tuple(-v % m for v in row) for row in module.b_int)
    return FiniteQuadraticModule(module.orders, m, q, b)


def direct_sum(m1: FiniteQuadraticModule, m2: FiniteQuadraticModule) -> FiniteQuadraticModule:
    """The orthogonal sum, its values rescaled to the lcm of the two levels."""
    level = math.lcm(m1.level, m2.level)
    s1, s2 = level // m1.level, level // m2.level
    q = tuple(s1 * v for v in m1.q_int) + tuple(s2 * v for v in m2.q_int)
    k1, k2 = m1.ngens, m2.ngens
    b = tuple(tuple(s1 * v for v in row) + (0,) * k2 for row in m1.b_int) + tuple(
        (0,) * k1 + tuple(s2 * v for v in row) for row in m2.b_int
    )
    return FiniteQuadraticModule(m1.orders + m2.orders, level, q, b)


def submodule_on(module: FiniteQuadraticModule, gens, orders) -> FiniteQuadraticModule:
    """The quadratic module presented on the given elements as generators.

    Used for change of generators: the elements must generate the whole
    group with the stated orders (checked), so the level stays the same.
    """
    gens = [module.reduce(g) for g in gens]
    # they generate exactly when their preimage lattice is Z^k, whose
    # canonical generators are the unit vectors (any list generates when k = 0)
    k = module.ngens
    if k and _canonical_gens(module, gens) != IntMat.identity(k).entries:
        raise ValueError("elements do not generate the module")
    for g, d in zip(gens, orders):
        if module.element_order(g) != d:
            raise ValueError("stated generator order is wrong")
    q = tuple(_q_scaled(module, g) for g in gens)
    b = tuple(tuple(_b_scaled(module, x, y) for y in gens) for x in gens)
    return FiniteQuadraticModule(tuple(orders), module.level, q, b)


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
    m1: FiniteQuadraticModule, m2: FiniteQuadraticModule
) -> tuple[GroupElement, ...] | None:
    """An isomorphism of the two modules preserving q (b follows from q).

    On success returns the images in m2 of m1's generators, in order;
    None when no isomorphism exists.  When both modules are 2-elementary
    and nondegenerate, each is reduced to its F2 normal form
    (``_two_elementary_form``); the modules are isomorphic exactly when
    the two forms agree, and the witness maps one canonical basis onto the
    other.  Every other pair goes to the backtracking search
    (``_isomorphism_search``), which refuses modules of order above
    ``guard_order()``.  EVENLAT_GUARD_ORDER is read on every call, so a
    malformed value fails on either path.  Before it is returned, q_value
    and b_value check the witness on every generator and every pair of
    generators.
    """
    limit = guard_order()
    forms = _two_elementary_form(m1), _two_elementary_form(m2)
    if None not in forms:
        (key1, basis1), (key2, basis2) = forms
        if key1 != key2:
            return None
        return _checked_witness(m1, m2, _basis_witness(basis1, basis2))
    if m1.order > limit or m2.order > limit:
        raise GuardExceeded(
            f"module order {max(m1.order, m2.order)} exceeds the search guard {limit}"
        )
    return _isomorphism_search(m1, m2)


def _isomorphism_search(
    m1: FiniteQuadraticModule, m2: FiniteQuadraticModule
) -> tuple[GroupElement, ...] | None:
    """Backtracking search for an isomorphism preserving q.

    Before the search, the two modules must agree in order and level, and
    then in their stored ``fingerprint``s, the sorted (element order,
    M*q mod 2M) over all elements; each module builds its table once, so a
    module compared again costs no scan.  The level is an isometry
    invariant: it is the lcm of the denominators of all values of q and b.

    The search backtracks, in integers, over the images of the generators
    in turn.  The candidates for g_i are the elements of m2 with g_i's key
    (order d_i, M*q(g_i)) in m2's ``value_table``, in ``elements()``
    order.  A candidate must pair with each image y chosen before it as g_i does,
    tested as M*b through y's integer pairing row over ``b_int``.  It
    must also meet the span of the images chosen so far only in 0; that
    span is kept as packed elements (``_packing``), grown coset by coset.
    A candidate c of order d meets it in more than 0 exactly when (d/r)*c
    lies in it for some prime r | d, since every nontrivial subgroup of
    <c> holds the one of order r.  The span of all k images then has
    d_1 * ... * d_k = |m2| elements, so the images generate m2.  The
    witness returned is the first in candidate order, checked by
    ``_checked_witness``.
    """
    if m1.order != m2.order or m1.level != m2.level:
        return None
    if m1.fingerprint != m2.fingerprint:
        return None
    k, level = m1.ngens, m1.level
    pack, translate = _packing(m2.orders)
    # key -> (element y, its packed multiples (d/r)*y over the primes r | d)
    buckets = {key: [] for key in zip(m1.orders, m1.q_int)}
    steps = {d: [d // r for r in _prime_divisors(d)] for d in m1.orders}
    scaled = {t: _packed_multiples(m2.orders, pack, t) for t in set().union(*steps.values())}
    for i, (y, key) in enumerate(zip(m2.elements(), m2.value_table)):
        if key in buckets:
            buckets[key].append((y, [scaled[t][i] for t in steps[key[0]]]))
    candidates = [buckets[key] for key in zip(m1.orders, m1.q_int)]
    images: list[GroupElement] = []
    rows: list[list[int]] = []  # M*b(image, g) over m2's generators g
    spans = [{0}]               # packed span of the images, per depth
    stack = [iter(candidates[0])] if k else []
    while stack:
        depth = len(stack) - 1
        span = spans[-1]
        want = [m1.b_int[i][depth] for i in range(depth)]
        for y, multiples in stack[-1]:
            if any(p in span for p in multiples):
                continue
            if any(sum(map(mul, row, y)) % level != v for row, v in zip(rows, want)):
                continue
            images.append(y)
            if depth + 1 == k:
                return _checked_witness(m1, m2, images)
            rows.append(_dots([y], m2.b_int)[0])
            grown, coset, c = set(span), span, pack(y)
            for _ in range(m1.orders[depth] - 1):
                coset = translate(c, coset)
                grown.update(coset)
            spans.append(grown)
            stack.append(iter(candidates[depth + 1]))
            break
        else:
            stack.pop()
            if images:
                images.pop()
                rows.pop()
                spans.pop()
    return () if k == 0 else None


def _packed_multiples(orders, pack, t: int) -> list[int]:
    """t*y packed, for every y in ``elements()`` order: built one
    coordinate at a time, a reduced value times the packed unit vector
    filling its field."""
    out = [0]
    for i, n in enumerate(orders):
        unit = pack([int(i == j) for j in range(len(orders))])
        column = [t * e % n * unit for e in range(n)]
        out = [p + c for p in out for c in column]
    return out


def _prime_divisors(n: int) -> list[int]:
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


# In the F2 normal form below, an element of a 2-elementary module of level
# 2 is the triple (x, p, t): x the bit mask of its exponents over the
# generators (bit i for g_i), p its pairing mask (bit j is 2*b(x, g_j)) and
# t = M*q(x) mod 4.  Both masks are F2-linear in x, and
# q(x + y) = q(x) + q(y) + 2b(x, y).

def _f2_pair(x, y) -> int:
    """2*b(x, y) in F2."""
    return (x[1] & y[0]).bit_count() & 1


def _f2_plus(x, y):
    return x[0] ^ y[0], x[1] ^ y[1], (x[2] + y[2] + 2 * _f2_pair(x, y)) % 4


def _two_elementary_form(module: FiniteQuadraticModule):
    """(key, basis): the F2 normal form of a nondegenerate 2-elementary
    module of level 2, with its canonical basis; None for any other module.

    While some element has odd M*q (b(x, x) = 1/2, which is linear in x,
    so the remaining basis vectors tell), it splits off as <+-1/2> and
    the rest is projected orthogonally to it.  Otherwise a hyperbolic
    plane splits off, normalised to u (q = 0, 0) or v (q = 1, 1); a basis
    vector that pairs with no other remaining one spans part of the
    radical, and the module is degenerate.  Then, when some summand is
    odd (delta = 1), each plane (e, f) with an odd g becomes the three odd
    summands e+g, f+g, e+f+g, and each four <-1/2> become the four sums of
    three of them, each <1/2>, until fewer than four are left.  When
    delta = 0, each v + v becomes u + u.

    The key is M*q over the canonical basis: when delta = 1, the <1/2>
    summands, then fewer than four <-1/2>; when delta = 0, the u planes,
    then at most one v, each plane a consecutive pair with b = 1/2.  Its
    counts are fixed by l, delta and the signature mod 8, which decide a
    2-elementary form (Nikulin 1979, 1.8 and 3.6), so two modules are
    isomorphic exactly when their keys agree.
    """
    if module.level != 2 or any(d != 2 for d in module.orders):
        return None
    rest = [
        (1 << i, sum(e << j for j, e in enumerate(row)), q)
        for i, (row, q) in enumerate(zip(module.b_int, module.q_int))
    ]
    odd, planes = [], []
    while rest:
        g = next((x for x in rest if x[2] % 2), None)
        if g is not None:
            rest.remove(g)
            odd.append(g)
            rest = [_f2_plus(x, g) if _f2_pair(x, g) else x for x in rest]
            continue
        e = rest.pop()
        f = next((x for x in rest if _f2_pair(e, x)), None)
        if f is None:
            return None
        rest.remove(f)
        if e[2] != f[2]:
            e, f = (f if e[2] else e), _f2_plus(e, f)
        planes.append((e, f))
        projected = []
        for x in rest:
            if _f2_pair(x, f):
                x = _f2_plus(x, e)
            if _f2_pair(x, e):
                x = _f2_plus(x, f)
            projected.append(x)
        rest = projected
    if odd:
        for e, f in planes:
            g = odd.pop()
            odd += [_f2_plus(e, g), _f2_plus(f, g), _f2_plus(_f2_plus(e, f), g)]
        halves = [x for x in odd if x[2] == 1]
        minus = [x for x in odd if x[2] == 3]
        while len(minus) >= 4:
            four, minus = minus[:4], minus[4:]
            halves += [_f2_plus(_f2_plus(a, b), c) for a, b, c in itertools.combinations(four, 3)]
        basis = halves + minus
    else:
        us = [p for p in planes if not p[0][2]]
        vs = [p for p in planes if p[0][2]]
        while len(vs) >= 2:
            (e1, f1), (e2, f2) = vs.pop(), vs.pop()
            e1f1 = _f2_plus(e1, f1)
            us += [
                (_f2_plus(e1, e2), _f2_plus(f1, e2)),
                (_f2_plus(e1f1, f2), _f2_plus(_f2_plus(e1f1, e2), f2)),
            ]
        basis = [x for plane in us + vs for x in plane]
    return tuple(x[2] for x in basis), basis


def _basis_witness(basis1, basis2) -> list[GroupElement]:
    """Images of m1's generators under an isometry taking one canonical
    basis of a normal form to another.

    The map basis1[i] -> basis2[s(i)], s swapping the two vectors of each
    plane, preserves q and b, since both vectors of a plane have the same
    q.  Over F2 the Gram matrix 2b of a canonical basis is s itself, so
    g_j = sum_i 2b(g_j, basis1[s(i)]) basis1[i]; the map therefore sends
    g_j to the sum of the basis2[i] with 2b(g_j, basis1[i]) = 1, which is
    bit j of basis1[i]'s pairing mask.
    """
    k = len(basis1)
    images = []
    for j in range(k):
        y = 0
        for d, x in zip(basis1, basis2):
            if d[1] >> j & 1:
                y ^= x[0]
        images.append(tuple(y >> i & 1 for i in range(k)))
    return images


def _checked_witness(m1, m2, images) -> tuple[GroupElement, ...]:
    """The images as a witness, once q_value and b_value agree on them."""
    gens = [tuple(int(i == j) for j in range(m1.ngens)) for i in range(m1.ngens)]
    for i, (g, y) in enumerate(zip(gens, images)):
        if q_value(m1, g) != q_value(m2, y) or any(
            b_value(m1, g, h) != b_value(m2, y, z) for h, z in zip(gens[:i], images)
        ):
            raise AssertionError("isomorphism search found images that do not preserve q")
    return tuple(images)


class GuardExceeded(Exception):
    """Isomorphism search refused: module order above the configured guard."""
