"""Constrained reconstruction of the 24-curve and 20-curve configurations.

The 24-curve intersection matrix is recovered by exhaustive search over
hexagon arrangements of the six 4-curve groups and equivariant fillings of
the adjacency blocks, under the published structural constraints.  The
search runs in escalating tiers and reports the full solution census of
each tier; nothing is ever silently picked from an ambiguous census.

Tier 1: involution equivariance, internal disjointness of the groups,
degree-8 cover bookkeeping, and the affine-E8-plus-section shape on the
distinguished ten curves.
Tier 2: tier 1 plus the printed rank-6 block Gram, entrywise.
Tier 3: tier 2 plus the two printed curve relations as identities.

The tier-1 solutions of one arrangement and node assignment form a product
of independent per-block completions.  Tier 1 is counted by the sizes of
these products, after a checked condition that they are pairwise disjoint
(any overlap is enumerated and counted once).  Tier 2 is found per product
by a split join: the rank-6 Gram conditions are linear in the orbit
values, so the sums of two halves of the blocks are matched in a table
instead of testing every tier-1 solution.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from . import refdata
from .curves import (
    CurveConfig,
    CurvePresentation,
    FixedPointData,
    InvolutionAction,
    QuotientResult,
    present,
    quotient_by_involution,
)
from .exactlinalg import IntMat, bilinear_table, signature, solve_rational

# affine E8: chain of eight nodes with multiplicities 1-2-3-4-5-6-4-2 and a
# multiplicity-3 node attached to the multiplicity-6 one
E8A_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8))
E8A_MARKS = (1, 2, 3, 4, 5, 6, 4, 2, 3)
_E8A_EDGE_SET = frozenset(frozenset(e) for e in E8A_EDGES)

_GROUPS = refdata.GROUPS_24
_GROUP_OF = {}
for _gi, _grp in enumerate(_GROUPS):
    for _c in _grp:
        _GROUP_OF[_c] = _gi

_INVOLUTIONS = (refdata.IOTA_001, refdata.IOTA_010, refdata.IOTA_011)


def _pair_orbits() -> tuple[dict, dict]:
    """Orbits of the involution group on cross-group index pairs."""
    orbit_of: dict[frozenset, int] = {}
    members: dict[int, list[frozenset]] = {}
    next_id = 0
    for i in range(24):
        for j in range(i + 1, 24):
            if _GROUP_OF[i] == _GROUP_OF[j]:
                continue
            pair = frozenset((i, j))
            if pair in orbit_of:
                continue
            orbit = set()
            frontier = [pair]
            while frontier:
                cur = frontier.pop()
                if cur in orbit:
                    continue
                orbit.add(cur)
                a, b = tuple(cur)
                for perm in _INVOLUTIONS:
                    nxt = frozenset((perm[a], perm[b]))
                    if nxt not in orbit:
                        frontier.append(nxt)
            for p in orbit:
                orbit_of[p] = next_id
            members[next_id] = sorted(orbit, key=sorted)
            next_id += 1
    return orbit_of, members


_ORBIT_OF, _ORBIT_MEMBERS = _pair_orbits()


def _hexagon_arrangements():
    """Cyclic orders of the six groups, reflection-reduced, group 0 first."""
    for perm in itertools.permutations(range(1, 6)):
        if perm[0] < perm[-1]:
            yield (0,) + perm


def _adjacency(arrangement) -> frozenset:
    n = len(arrangement)
    return frozenset(
        frozenset((arrangement[k], arrangement[(k + 1) % n])) for k in range(n)
    )


class ReconstructionError(Exception):
    pass


def _e8_embeddings(adjacency):
    """All assignments of the fiber curves to affine-E8 nodes compatible with
    the given hexagon adjacency and with involution equivariance of the
    entries the shape constraint pins."""
    fiber = refdata.FIBER_CURVES
    section = refdata.SECTION
    results = []
    assigned: list[int] = []  # assigned[n] = curve at node n
    used = set()
    orbit_vals: dict[int, int] = {}

    def pin(i, j, value, undo):
        gi, gj = _GROUP_OF[i], _GROUP_OF[j]
        if gi == gj:
            return value == 0  # internal disjointness
        if frozenset((gi, gj)) not in adjacency:
            return value == 0  # non-adjacent groups never meet
        orb = _ORBIT_OF[frozenset((i, j))]
        if orb in orbit_vals:
            return orbit_vals[orb] == value
        orbit_vals[orb] = value
        undo.append(orb)
        return True

    def place(node: int) -> None:
        if node == 9:
            results.append((tuple(assigned), dict(orbit_vals)))
            return
        wants = [1 if frozenset((prev, node)) in _E8A_EDGE_SET else 0 for prev in range(node)]
        section_want = 1 if E8A_MARKS[node] == 1 else 0
        for curve in fiber:
            if curve in used:
                continue
            undo: list[int] = []
            ok = True
            for prev, want in enumerate(wants):
                if not pin(assigned[prev], curve, want, undo):
                    ok = False
                    break
            if ok:
                ok = pin(section, curve, section_want, undo)
            if ok:
                assigned.append(curve)
                used.add(curve)
                place(node + 1)
                used.remove(curve)
                assigned.pop()
            for orb in undo:
                del orbit_vals[orb]

    place(0)
    return results


def _block_completions(g1: int, g2: int, adjacent: bool, orbit_vals: dict, cap: int):
    """Orbit-value assignments for one group-pair block: entries in 0..cap,
    total intersection 8 for hexagon-adjacent groups and 0 otherwise."""
    orbits = {}
    for i in _GROUPS[g1]:
        for j in _GROUPS[g2]:
            orb = _ORBIT_OF[frozenset((i, j))]
            orbits[orb] = orbits.get(orb, 0) + 1
    target = 8 if adjacent else 0
    fixed_total = 0
    free = []
    for orb, size in sorted(orbits.items()):
        if orb in orbit_vals:
            fixed_total += size * orbit_vals[orb]
        else:
            free.append((orb, size))
    remainder = target - fixed_total
    if remainder < 0:
        return []
    out = []

    def rec(pos: int, left: int, acc: list):
        if pos == len(free):
            if left == 0:
                out.append(tuple(acc))
            return
        orb, size = free[pos]
        for v in range(0, cap + 1):
            used = size * v
            if used > left:
                break
            acc.append((orb, v))
            rec(pos + 1, left - used, acc)
            acc.pop()

    rec(0, remainder, [])
    return out


_N_ORBITS = len(_ORBIT_MEMBERS)


def _assemble(orbit_vals) -> IntMat:
    g = [[0] * 24 for _ in range(24)]
    for i in range(24):
        g[i][i] = -2
    for orb, val in enumerate(orbit_vals):
        if val == 0:
            continue
        for pair in _ORBIT_MEMBERS[orb]:
            i, j = tuple(pair)
            g[i][j] = g[j][i] = val
    return IntMat.from_rows(g)


def _s_block_valid(orbit_vals: dict) -> bool:
    """Even unimodular signature (1,9) check on the distinguished ten curves.

    Every entry of that submatrix is pinned by the shape constraints, so
    this is decided once per node assignment."""
    idx = refdata.S_BASIS
    s = [[0] * 10 for _ in range(10)]
    for a in range(10):
        s[a][a] = -2
        for b in range(a + 1, 10):
            i, j = idx[a], idx[b]
            if _GROUP_OF[i] == _GROUP_OF[j]:
                v = 0
            else:
                v = orbit_vals.get(_ORBIT_OF[frozenset((i, j))], 0)
            s[a][b] = s[b][a] = v
    sm = IntMat.from_rows(s)
    if abs(sm.det()) != 1:
        return False
    return signature(sm) == (1, 9, 0)


def _qgram_linear_tests():
    """The printed rank-6 Gram as affine conditions on the orbit values."""
    qvecs = refdata.Q_BASIS.entries
    tests = []
    for a in range(6):
        for b in range(a, 6):
            const = sum(-2 * qvecs[a][i] * qvecs[b][i] for i in range(24))
            coeff = [0] * _N_ORBITS
            for orb, pairs in _ORBIT_MEMBERS.items():
                c = 0
                for pair in pairs:
                    i, j = tuple(pair)
                    c += qvecs[a][i] * qvecs[b][j] + qvecs[a][j] * qvecs[b][i]
                if c:
                    coeff[orb] = c
            terms = tuple((orb, c) for orb, c in enumerate(coeff) if c)
            tests.append((terms, refdata.Q_GRAM.entries[a][b] - const))
    return tests


def q_gram_of(gram24: IntMat) -> IntMat:
    """Gram of the published rank-6 basis vectors against a 24-curve Gram."""
    qm = refdata.Q_BASIS
    return qm * gram24 * qm.transpose()


def relations_hold(gram24: IntMat) -> bool:
    """The two printed curve relations, checked by pairing against all 24."""
    g = gram24.entries
    for fam in refdata.RELATION_FAMILIES_24:
        left, right = fam[:4], fam[4:]
        for k in range(24):
            if sum(g[i][k] for i in left) != sum(g[i][k] for i in right):
                return False
    return True


# A product is a pair (pinned, blocks) for one feasible hexagon arrangement
# and node assignment.  Its solutions take the pinned orbit values plus one
# completion from each of the 15 blocks.  Every orbit lies in exactly one
# block, and completions assign only unpinned orbits, so distinct choices
# give distinct solutions: a product holds the product of its block sizes.

def _base_values(pinned: dict) -> list[int]:
    base = [0] * _N_ORBITS
    for orb, v in pinned.items():
        base[orb] = v
    return base


def _solution_key(base: list[int], parts) -> bytes:
    vals = list(base)
    for part in parts:
        for orb, v in part:
            vals[orb] = v
    return bytes(vals)


def _orbit_values(pinned: dict, blocks) -> list[set[int]]:
    """The values each orbit takes over the solutions of one product."""
    values = [{v} for v in _base_values(pinned)]
    for comps in blocks:
        free: dict[int, set[int]] = {}
        for part in comps:
            for orb, v in part:
                free.setdefault(orb, set()).add(v)
        for orb, vs in free.items():
            values[orb] = vs
    return values


def _union_size(products) -> int:
    """Number of distinct solutions over all products.

    Two products are disjoint when some orbit takes no common value in
    them.  A product proven disjoint from every other one counts the
    product of its block sizes; the solutions of the others are enumerated
    into one set, so an overlap is counted once.
    """
    values = [_orbit_values(pinned, blocks) for pinned, blocks in products]
    shared = set()
    for a, b in itertools.combinations(range(len(products)), 2):
        if not any(x.isdisjoint(y) for x, y in zip(values[a], values[b])):
            shared.update((a, b))
    count = sum(
        math.prod(map(len, blocks))
        for k, (_, blocks) in enumerate(products)
        if k not in shared
    )
    keys = set()
    for k in shared:
        pinned, blocks = products[k]
        base = _base_values(pinned)
        keys.update(_solution_key(base, parts) for parts in itertools.product(*blocks))
    return count + len(keys)


def _qgram_solutions(pinned: dict, blocks, qtests):
    """Keys of the solutions of one product that pass every rank-6 Gram test.

    The tests are affine in the orbit values and the blocks own disjoint
    orbits, so each completion adds a fixed vector to the test sums.  The
    blocks are split into two halves of about equal product size; the sums
    of the left half go into a table, and each right-half sum looks up the
    left sums that complete it to the targets (the Horowitz-Sahni split).
    """
    columns = defaultdict(list)  # orbit -> its (test, coefficient) pairs
    for t, (terms, _) in enumerate(qtests):
        for orb, c in terms:
            columns[orb].append((t, c))
    zero = (0,) * len(qtests)

    def effect(part) -> tuple[int, ...]:
        vec = list(zero)
        for orb, v in part:
            for t, c in columns[orb]:
                vec[t] += c * v
        return tuple(vec)

    def total(choice) -> tuple[int, ...]:
        return tuple(map(sum, zip(zero, *(vec for vec, _ in choice))))

    need = tuple(rhs - e for (_, rhs), e in zip(qtests, effect(pinned.items())))
    halves: tuple[list, list] = ([], [])
    sizes = [1, 1]
    for comps in sorted(blocks, key=len, reverse=True):
        side = 0 if sizes[0] <= sizes[1] else 1
        halves[side].append([(effect(part), part) for part in comps])
        sizes[side] *= len(comps)
    left_parts = defaultdict(list)
    for choice in itertools.product(*halves[0]):
        left_parts[total(choice)].append(tuple(part for _, part in choice))
    base = _base_values(pinned)
    for choice in itertools.product(*halves[1]):
        rest = tuple(n - s for n, s in zip(need, total(choice)))
        for parts in left_parts.get(rest, ()):
            yield _solution_key(base, parts + tuple(part for _, part in choice))


@dataclass(frozen=True)
class Reconstruction24:
    """Census of the 24-curve reconstruction, by tier.

    Tier-1 solutions are only counted, by product sizes under a checked
    disjointness condition (the census is large); the tier-2 solutions are
    found by a split join on the rank-6 Gram conditions and, with the
    tier-3 ones, materialized as Gram matrices sorted by orbit values.
    """

    tier1_count: int
    tier2: tuple[IntMat, ...]
    tier3: tuple[IntMat, ...]
    tier_used: int
    requested_policy: str
    multiplicity_cap: int

    @property
    def solutions(self) -> tuple[IntMat, ...]:
        if self.tier_used == 1:
            raise ReconstructionError(
                f"tier 1 census holds {self.tier1_count} solutions; "
                "they are reported by count only"
            )
        return self.tier2 if self.tier_used == 2 else self.tier3

    @property
    def gram(self) -> IntMat:
        sols = self.solutions
        if len(sols) != 1:
            raise ReconstructionError(
                f"tier {self.tier_used} census holds {len(sols)} label-inequivalent "
                "solutions; inspect the census instead of picking one"
            )
        return sols[0]

    def config(self) -> CurveConfig:
        labels = tuple(f"R{i + 1}" for i in range(24))
        return CurveConfig.from_gram(labels, self.gram)

    def census_sizes(self) -> dict[str, int]:
        return {
            "tier1": self.tier1_count,
            "tier2": len(self.tier2),
            "tier3": len(self.tier3),
        }


def reconstruct_24(tier_policy: str = "auto", multiplicity_cap: int = 2) -> Reconstruction24:
    """Recover the 24-curve intersection matrix by an exhaustive tiered census.

    ``tier_policy``: "auto" escalates tiers until the census is a single
    Gram; "1", "2", "3" stop at the stated tier regardless of ambiguity.
    ``multiplicity_cap`` bounds the per-pair intersection numbers explored
    (2 by default; raise it to scan for solutions beyond simple tangencies).
    An unknown policy or a cap below 1 raises ``ValueError``.
    """
    if tier_policy not in ("auto", "1", "2", "3"):
        raise ValueError(f"unknown tier policy: {tier_policy!r}")
    if multiplicity_cap < 1:
        raise ValueError(
            f"multiplicity cap must be at least 1, since the shape constraint "
            f"pins entries to 1: {multiplicity_cap!r}"
        )
    products = []
    for arrangement in _hexagon_arrangements():
        adjacency = _adjacency(arrangement)
        for _assignment, pinned in _e8_embeddings(adjacency):
            if not _s_block_valid(pinned):
                continue
            blocks = []
            for g1, g2 in itertools.combinations(range(6), 2):
                adjacent = frozenset((g1, g2)) in adjacency
                comps = _block_completions(g1, g2, adjacent, pinned, multiplicity_cap)
                if not comps:
                    break
                blocks.append(comps)
            else:
                products.append((pinned, blocks))
    tier1_count = _union_size(products)
    if not tier1_count:
        raise ReconstructionError("no solution at tier 1: constraint bug")
    qtests = _qgram_linear_tests()
    tier2_keys = set()
    for pinned, blocks in products:
        tier2_keys.update(_qgram_solutions(pinned, blocks, qtests))
    tier2 = tuple(_assemble(key) for key in sorted(tier2_keys))
    tier3 = tuple(g for g in tier2 if relations_hold(g))
    if tier_policy == "auto":
        if tier1_count == 1:
            used = 1
        elif len(tier2) == 1:
            used = 2
        else:
            used = 3
    else:
        used = int(tier_policy)
    return Reconstruction24(
        tier1_count, tier2, tier3, used, tier_policy, multiplicity_cap
    )


# ---------------------------------------------------------------------------
# the quotient configuration on X'

@dataclass(frozen=True)
class XprimeReconstruction:
    config: CurveConfig                      # C1..C12, N1..N8
    quotient: QuotientResult
    presentation: CurvePresentation          # span of the 20 curves
    m_presentation: CurvePresentation        # with N, Lambda1, Lambda2 adjoined
    m_basis: tuple[tuple[Fraction, ...], ...]  # 16 generators over the 20 curves
    m_gram: IntMat
    relation_report: tuple[tuple[str, bool], ...]
    incidence_kernel_dim: int


def reconstruct_xprime(base24: CurveConfig) -> XprimeReconstruction:
    """The 20-curve configuration on the symplectic quotient.

    The 12 image curves come from the free involution quotient; the eight
    exceptional curves over the fixed points are disjoint from everything
    because the fixed points avoid the 24 curves.  The published linear
    relations are then verified as identities against every curve, and the
    relation-only linear system for the hypothetical C.N incidences is
    solved to document how far those relations alone would pin them.
    """
    act = InvolutionAction(refdata.IOTA_011)
    quot = quotient_by_involution(base24, act, FixedPointData(count=8))
    expected_orbits = tuple(
        (base24.labels[i], base24.labels[j]) for i, j in refdata.QUOTIENT_ORBITS
    )
    got_orbits = tuple(quot.orbit_map[lab] for lab in quot.config.labels)
    if got_orbits != expected_orbits:
        raise ReconstructionError(f"unexpected quotient orbits: {got_orbits}")
    cg = quot.config.gram()
    n = 20
    gram20 = [[0] * n for _ in range(n)]
    for i in range(12):
        for j in range(12):
            gram20[i][j] = cg.entries[i][j]
    for i in range(12, 20):
        gram20[i][i] = -2
    labels = refdata.xprime_labels()
    config = CurveConfig.from_gram(labels, IntMat.from_rows(gram20))
    pres = present(config)

    gens = [_unit(n, i) for i in range(n)]
    gens.append(_half(n, refdata.N_SUPPORT))
    gens.append(_half(n, refdata.LAMBDA1_SUPPORT))
    gens.append(_half(n, refdata.LAMBDA2_SUPPORT))
    # table[a][b] / den = gens[a] . gens[b]; the first n generators are the curves
    table, den = bilinear_table(gens, config.gram().entries, gens)

    report = []
    for target, combo in refdata.XPRIME_RELATIONS:
        rhs = [sum(c * table[gi][k] for gi, c in combo.items()) for k in range(n)]
        report.append((f"generator {target} relation", table[target][:n] == rhs))
    for gi in (20, 21, 22):
        integral = all(e % den == 0 for e in table[gi][:n])
        even = table[gi][gi] % (2 * den) == 0
        report.append((f"generator {gi} integral and even", integral and even))
    if not all(ok for _, ok in report):
        raise ReconstructionError(f"published relations fail on the quotient: {report}")

    index = refdata.M_BASIS_CURVES + (20, 21, 22)
    if any(table[a][b] % den for a in index for b in index):
        raise ReconstructionError("rank-16 basis Gram is not integral")
    m_gram = IntMat.from_rows([[table[a][b] // den for b in index] for a in index])
    basis = [gens[i] for i in index]
    m_pres = pres.adjoin([gens[20], gens[21], gens[22]])

    kdim = _incidence_kernel_dim(config, gens)
    return XprimeReconstruction(
        config, quot, pres, m_pres, tuple(tuple(b) for b in basis), m_gram,
        tuple(report), kdim,
    )


def _unit(n, i):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return tuple(v)


def _half(n, support):
    return tuple(Fraction(1, 2) if i in support else Fraction(0) for i in range(n))


def _incidence_kernel_dim(config: CurveConfig, gens) -> int:
    """Rank deficiency of the relation-only system for the C.N incidences.

    Treat the 96 products C_i.N_j as unknowns and impose only that the
    published relations pair equally against every curve; the dimension of
    the solution space records that the relations alone underdetermine the
    incidences (the fixed-point geometry is what pins them to zero).
    """
    nvars = 12 * 8
    rows = []
    rhs = []
    for target, combo in refdata.XPRIME_RELATIONS:
        coeffs = {target: Fraction(-1)}
        for gi, c in combo.items():
            coeffs[gi] = coeffs.get(gi, Fraction(0)) + c
        # the combination must pair to zero with every N_j
        for j in range(8):
            row = [Fraction(0)] * nvars
            const = Fraction(0)
            for gi, c in coeffs.items():
                if c == 0:
                    continue
                for ci, w in _c_weights(gi):
                    row[ci * 8 + j] += c * w
                const += c * _n_part_pairing(gi, j)
            rows.append(row)
            rhs.append(-const)
    a = IntMat.from_rows(
        [[int(e * 2) for e in row] for row in rows]  # entries in (1/2)Z
    )
    sol = solve_rational(a, [e * 2 for e in rhs])
    if sol is None:
        raise ReconstructionError("relation-only incidence system inconsistent")
    return len(sol.kernel)


def _c_weights(gi):
    """Weight of each C-row in generator gi (half sums weigh 1/2)."""
    if gi < 12:
        return ((gi, Fraction(1)),)
    if gi < 20:
        return ()
    support = {20: refdata.N_SUPPORT, 21: refdata.LAMBDA1_SUPPORT, 22: refdata.LAMBDA2_SUPPORT}[gi]
    return tuple((i, Fraction(1, 2)) for i in support if i < 12)


def _n_part_pairing(gi, j) -> Fraction:
    """Pairing of the pure-N part of generator gi with N_j (N_i.N_j known)."""
    nj = 12 + j
    if gi < 12:
        return Fraction(0)
    if gi < 20:
        return Fraction(-2) if gi == nj else Fraction(0)
    support = {20: refdata.N_SUPPORT, 21: refdata.LAMBDA1_SUPPORT, 22: refdata.LAMBDA2_SUPPORT}[gi]
    return Fraction(-1) if nj in support else Fraction(0)
