"""Reference Fraction rules for the discriminant-form operations.

These are the direct definitions that ``evenlat.discform`` replaced by
integer tables and coset growth: the constructor's validity rules on
Fraction values, q and b summed over Fractions, subgroups
spanned by a BFS over all their elements and re-checked element by
element, and the overlattice Gram as a Fraction product B * G * B^T.  The
genus predicates take the lattice, rebuild its discriminant group and
re-pair each generator lift, as they did before they took the module.
``class_of`` takes the coordinates v * T / D of the rational SNF, as it
did before the class table.  ``full_snf_discriminant_group`` reads the
discriminant group off the full rational SNF, which the package stops
once only unit factors are left.  ``is_two_elementary_nondegenerate``
tells, by the F2 rank of 2b, which pairs ``are_isomorphic`` decides by
its normal form.  The differential tests compare the two.  The span
basis and the Hermite form behind the canonical subgroup generators come
from ``linalg_oracle``; only the discriminant group and the rational SNF
come from the package.
"""

import math
from fractions import Fraction

from evenlat.discform import FiniteQuadraticModule, IsotropicSubgroup
from evenlat.exactlinalg import snf_rational
from evenlat.lattice import DiscGroupData, discriminant_group
from linalg_oracle import hnf, span_basis


def _mod2(x):
    return x - 2 * math.floor(x / 2)


def _mod1(x):
    return x - math.floor(x)


def check_fraction_rules(orders, q_diag, b_mat):
    """The constructor's rules on Fraction values q(g_i) and b(g_i, g_j)."""
    k = len(orders)
    if any(d < 2 for d in orders):
        raise ValueError("generator orders must be at least 2")
    if len(q_diag) != k or len(b_mat) != k:
        raise ValueError("inconsistent generator data")
    for i in range(k):
        if not (0 <= q_diag[i] < 2):
            raise ValueError("q values must be reduced into [0, 2)")
        for j in range(k):
            if not (0 <= b_mat[i][j] < 1):
                raise ValueError("b values must be reduced into [0, 1)")
            if b_mat[i][j] != b_mat[j][i]:
                raise ValueError("b must be symmetric")
        if q_diag[i] % 1 != b_mat[i][i]:
            raise ValueError("b(g, g) must equal q(g) mod Z")
        if orders[i] ** 2 * q_diag[i] % 2 != 0:
            raise ValueError("q incompatible with the generator order")
        for j in range(k):
            if orders[i] * b_mat[i][j] % 1 != 0:
                raise ValueError("b incompatible with the generator orders")


def module_from_values(orders, level, q_int, b_int):
    """The module with the values q_int / level and b_int / level, level >= 1.

    The Fraction rules decide validity; the level must then be the lcm of
    the denominators of all the values.
    """
    q_diag = tuple(Fraction(v, level) for v in q_int)
    b_mat = tuple(tuple(Fraction(v, level) for v in row) for row in b_int)
    check_fraction_rules(orders, q_diag, b_mat)
    values = q_diag + tuple(e for row in b_mat for e in row)
    if math.lcm(*(e.denominator for e in values)) != level:
        raise ValueError("level must be the least common denominator of q and b")
    return FiniteQuadraticModule(tuple(orders), level, tuple(q_int), tuple(map(tuple, b_int)))


def module_from_fractions(orders, q_diag, b_mat):
    """The module with the Fraction values q(g_i) and b(g_i, g_j), at their level."""
    values = tuple(q_diag) + tuple(e for row in b_mat for e in row)
    level = math.lcm(*(e.denominator for e in values))
    q_int = [int(v * level) for v in q_diag]
    b_int = [[int(v * level) for v in row] for row in b_mat]
    return module_from_values(orders, level, q_int, b_int)


def q_value(module, x):
    """q(x) in Q/2Z, reduced into [0, 2)."""
    x = module.reduce(x)
    q_diag, b_mat = module.q_diag, module.b_mat
    total = Fraction(0)
    for i, e in enumerate(x):
        total += e * e * q_diag[i]
        for j in range(i + 1, module.ngens):
            total += 2 * e * x[j] * b_mat[i][j]
    return _mod2(total)


def b_value(module, x, y):
    """b(x, y) in Q/Z, reduced into [0, 1)."""
    x, y = module.reduce(x), module.reduce(y)
    b_mat = module.b_mat
    total = Fraction(0)
    for i, a in enumerate(x):
        for j, c in enumerate(y):
            total += a * c * b_mat[i][j]
    return _mod1(total)


def span(module, gens):
    """Subgroup generated by gens: BFS adding every generator to every element."""
    seen = {module.zero()}
    frontier = [module.zero()]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = module.add(cur, g)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def element_order(module, x):
    """Order of x: the lcm over its coordinates of d_i / gcd(x_i, d_i)."""
    return math.lcm(*(d // math.gcd(e, d) for e, d in zip(module.reduce(x), module.orders)))


def isotropic_elements(module):
    """Every nonzero element whose Fraction q is 0, in ``elements()`` order."""
    return [x for x in module.elements() if any(x) and q_value(module, x) == 0]


def canonical_gens(module, elements):
    """HNF rows of [elements; diag(orders)], reduced mod the orders, zero rows dropped."""
    k = module.ngens
    rows = [list(x) for x in sorted(elements)]
    rows += [[d if j == i else 0 for j in range(k)] for i, d in enumerate(module.orders)]
    h, _ = hnf(rows)
    reduced = [module.reduce(row) for row in h]
    return tuple(row for row in reduced if any(row))


def isotropic_subgroups(module):
    """Closure of isotropic elements, every candidate respanned and q-checked."""
    iso = isotropic_elements(module)
    trivial = frozenset({module.zero()})
    found = {trivial}
    frontier = [trivial]
    while frontier:
        new_frontier = []
        for sub in frontier:
            for x in iso:
                if x in sub:
                    continue
                cand = span(module, list(sub) + [x])
                if cand in found:
                    continue
                if all(q_value(module, y) == 0 for y in cand):
                    found.add(cand)
                    new_frontier.append(cand)
        frontier = new_frontier
    out = []
    for elems in found:
        gens = canonical_gens(module, elems) if len(elems) > 1 else ()
        out.append(IsotropicSubgroup(module, gens, elems))
    out.sort(key=lambda s: (s.order, sorted(s.elements)))
    return out


def overlattice_gram(lattice, subgroup):
    """Gram B * G * B^T over Fractions, B a basis of L + lifts of the generators."""
    module = subgroup.module
    n = lattice.rank
    basis = span_basis([module.lift(g) for g in subgroup.gens], n)
    g = lattice.gram.entries
    gram = [
        [sum(u[i] * g[i][j] * v[j] for i in range(n) for j in range(n)) for v in basis]
        for u in basis
    ]
    if any(e.denominator != 1 for row in gram for e in row):
        raise ValueError("lift pairings are not integral")
    return tuple(tuple(int(e) for e in row) for row in gram)


def are_isomorphic(m1, m2):
    """Backtracking over images by order, q and b; surjectivity checked at the leaf."""
    if m1.order != m2.order:
        return None
    fp1 = sorted((m1.element_order(x), q_value(m1, x)) for x in m1.elements())
    fp2 = sorted((m2.element_order(x), q_value(m2, x)) for x in m2.elements())
    if fp1 != fp2:
        return None
    k = m1.ngens
    b1 = m1.b_mat
    images = []

    def extend(depth):
        if depth == k:
            return len(span(m2, images)) == m2.order
        g = tuple(int(i == depth) for i in range(k))
        for cand in m2.elements():
            if (m2.element_order(cand), q_value(m2, cand)) != (m1.orders[depth], q_value(m1, g)):
                continue
            if any(b_value(m2, images[i], cand) != b1[i][depth] for i in range(depth)):
                continue
            images.append(cand)
            if extend(depth + 1):
                return True
            images.pop()
        return False

    return tuple(images) if extend(0) else None


def is_two_elementary_nondegenerate(module):
    """Every generator order is 2 and b is nondegenerate: the F2 matrix
    2*b over the generators has full rank k >= 1."""
    k = module.ngens
    if not k or any(d != 2 for d in module.orders):
        return False
    rows = [sum(int(2 * e) << j for j, e in enumerate(row)) for row in module.b_mat]
    rank = 0
    for bit in range(k):
        pivot = next((r for r in rows if r >> bit & 1), None)
        if pivot is not None:
            rows.remove(pivot)
            rows = [r ^ pivot if r >> bit & 1 else r for r in rows]
            rank += 1
    return rank == k


def _require_even(lattice):
    if not lattice.is_even:
        raise ValueError("predicate defined for even lattices only")


def min_generators(lattice):
    """l(A_L): the minimum number of generators of the discriminant group."""
    return len(discriminant_group(lattice).invariant_factors)


def nikulin_unique(lattice):
    """Even indefinite L with rank >= 2 + l(A_L) is unique in its genus."""
    _require_even(lattice)
    t_plus, t_minus, t_zero = lattice.signature
    if t_zero or t_plus < 1 or t_minus < 1:
        return False
    return t_plus + t_minus >= 2 + min_generators(lattice)


def two_elem_invariants(lattice):
    """(signature, l, delta) for a 2-elementary even lattice, else None;
    delta = 1 iff some generator lift has a non-integral norm."""
    _require_even(lattice)
    disc = discriminant_group(lattice)
    if any(d != 2 for d in disc.invariant_factors):
        return None
    lifts = [lattice.dual_vector([Fraction(a, disc.lift_den) for a in row]) for row in disc.lift_num]
    delta = int(any(lift.pair(lift).denominator != 1 for lift in lifts))
    t_plus, t_minus, _ = lattice.signature
    return (t_plus, t_minus), len(disc.invariant_factors), delta


def dual_transform(lattice):
    """T and the diagonal of D for the rational SNF S * gram^-1 * T = D."""
    d, _, t = snf_rational(lattice.gram.inverse())
    return t, tuple(d.entries[i][i] for i in range(lattice.rank))


def full_snf_discriminant_group(lattice):
    """DiscGroupData read off the full rational SNF S * gram^-1 * T = D.

    Its ``snf_diagonal``, derived from the invariant factors and the rank,
    is asserted to be the diagonal of D.  The generators are the j with a
    non-integral d_j = 1/n_j; the lift of generator j is row j of
    S * gram^-1 and its class column n_j * gram^-1 * T[:, j] mod n_j, both
    summed over Fractions.
    """
    n = lattice.rank
    inv_mat = lattice.gram.inverse()
    inv = inv_mat.entries
    d, s, t = snf_rational(inv_mat)
    diag = tuple(d.entries[i][i] for i in range(n))
    gens = [j for j, e in enumerate(diag) if e.denominator != 1]
    lifts = [
        [sum(s.entries[j][k] * inv[k][i] for k in range(n)) for i in range(n)] for j in gens
    ]
    lift_den = math.lcm(*(e.denominator for row in lifts for e in row))
    columns = []
    for j in gens:
        order = diag[j].denominator
        col = [order * sum(inv[i][k] * t.entries[k][j] for k in range(n)) for i in range(n)]
        assert all(e.denominator == 1 for e in col)
        columns.append(tuple(int(e) % order for e in col))
    data = DiscGroupData(
        lattice,
        tuple(diag[j].denominator for j in gens),
        tuple(tuple(int(e * lift_den) for e in row) for row in lifts),
        lift_den,
        tuple(columns),
    )
    assert data.snf_diagonal == diag
    return data


def class_of(transform, coords):
    """Class of a dual vector: its coordinates v * T / D in the dual basis
    D * T^-1, at the rows with a non-integral d_i = 1/n_i, reduced mod n_i.

    transform is ``dual_transform(lattice)``; raises ValueError for a
    vector outside the dual lattice.
    """
    t, diag = transform
    cols = zip(*t.entries)
    exps = [sum(Fraction(v) * c for v, c in zip(coords, col)) / di for col, di in zip(cols, diag)]
    if any(e.denominator != 1 for e in exps):
        raise ValueError("vector is not in the dual lattice")
    return tuple(int(e) % di.denominator for e, di in zip(exps, diag) if di.denominator != 1)
