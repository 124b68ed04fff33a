"""Reference Fraction rules for the discriminant-form operations.

These are the direct definitions that ``evenlat.discform`` replaced by
integer tables and coset growth: q and b summed over Fractions, subgroups
spanned by a BFS over all their elements and re-checked element by
element, and the overlattice Gram as a Fraction product B * G * B^T.  The
differential tests compare the two.  Only the canonical HNF generators
and the span basis come from the package.
"""

import math
from fractions import Fraction

from evenlat.discform import IsotropicSubgroup, _canonical_gens
from evenlat.lattice import rational_span_basis


def _mod2(x):
    return x - 2 * math.floor(x / 2)


def _mod1(x):
    return x - math.floor(x)


def q_value(module, x):
    """q(x) in Q/2Z, reduced into [0, 2)."""
    x = module.reduce(x)
    total = Fraction(0)
    for i, e in enumerate(x):
        total += e * e * module.q_diag[i]
        for j in range(i + 1, module.ngens):
            total += 2 * e * x[j] * module.b_mat[i][j]
    return _mod2(total)


def b_value(module, x, y):
    """b(x, y) in Q/Z, reduced into [0, 1)."""
    x, y = module.reduce(x), module.reduce(y)
    total = Fraction(0)
    for i, a in enumerate(x):
        for j, c in enumerate(y):
            total += a * c * module.b_mat[i][j]
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


def isotropic_subgroups(module):
    """Closure of isotropic elements, every candidate respanned and q-checked."""
    iso = [x for x in module.elements() if any(x) and q_value(module, x) == 0]
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
        gens = _canonical_gens(module, elems) if len(elems) > 1 else ()
        out.append(IsotropicSubgroup(module, gens, elems))
    out.sort(key=lambda s: (s.order, sorted(s.elements)))
    return out


def overlattice_gram(lattice, subgroup):
    """Gram B * G * B^T over Fractions, B a basis of L + lifts of the generators."""
    module = subgroup.module
    n = lattice.rank
    rows = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    rows += [module.lift(g) for g in subgroup.gens]
    basis = rational_span_basis(rows)
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
    images = []

    def extend(depth):
        if depth == k:
            return len(span(m2, images)) == m2.order
        g = tuple(int(i == depth) for i in range(k))
        for cand in m2.elements():
            if (m2.element_order(cand), q_value(m2, cand)) != (m1.orders[depth], q_value(m1, g)):
                continue
            if any(b_value(m2, images[i], cand) != m1.b_mat[i][depth] for i in range(depth)):
                continue
            images.append(cand)
            if extend(depth + 1):
                return True
            images.pop()
        return False

    return tuple(images) if extend(0) else None
