"""Reference rules for the 24-curve reconstruction and the X' incidences.

``reconstruct_24`` is the direct search that ``evenlat.reconstruct``
replaced by product counting and a split join: every tier-1 solution is
built as a ``bytes`` key and put into a set, and each key is tested
against the 21 affine rank-6 Gram conditions one by one.  It runs the
reference embedding search below, keyed by frozensets, with a
determinant and signature check of the ten-curve block of every
embedding.  ``incidence_kernel_dim`` solves the relation-only incidence
system as one 56x96 system, with generator weights of its own built from
the printed supports, and ``m_solution`` solves for the coordinates of
one half-sum of X' curves in the rank-16 basis, one side per solve.
``qgram_solutions`` tests every choice of block completions of one
product against unpacked affine tests, where the package joins packed
half-sums.  ``qgram_linear_tests`` reads the rank-6 Gram conditions off
every member pair of every orbit, where the package sums over the
supports of the basis vectors.  ``block_completions`` tries every value
up to the block total for each orbit, so the census does not rest on the
package's derived entry bound.  The differential tests compare each with
the package.  The arrangements and the assembly come from the package.
"""

import itertools
from fractions import Fraction

import evenlat.refdata as refdata
from evenlat.exactlinalg import IntMat, signature, solve_rational
from evenlat.reconstruct import (
    _GROUP_OF,
    _INVOLUTIONS,
    _N_ORBITS,
    E8A_EDGES,
    E8A_MARKS,
    Reconstruction24,
    ReconstructionError,
    _adjacency,
    _assemble,
    _hexagon_arrangements,
    relations_hold,
)

_E8A_EDGE_SET = frozenset(frozenset(e) for e in E8A_EDGES)


def pair_orbits() -> tuple[dict, dict]:
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


ORBIT_OF, ORBIT_MEMBERS = pair_orbits()


def e8_embeddings(adjacency):
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
        orb = ORBIT_OF[frozenset((i, j))]
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


def s_block_valid(orbit_vals: dict) -> bool:
    """Even unimodular signature (1,9) check on the distinguished ten curves
    of one embedding."""
    idx = refdata.S_BASIS
    s = [[0] * 10 for _ in range(10)]
    for a in range(10):
        s[a][a] = -2
        for b in range(a + 1, 10):
            i, j = idx[a], idx[b]
            if _GROUP_OF[i] == _GROUP_OF[j]:
                v = 0
            else:
                v = orbit_vals.get(ORBIT_OF[frozenset((i, j))], 0)
            s[a][b] = s[b][a] = v
    sm = IntMat.from_rows(s)
    if abs(sm.det()) != 1:
        return False
    return signature(sm) == (1, 9, 0)


def qgram_linear_tests():
    """The printed rank-6 Gram as affine conditions (terms, rhs) on the
    orbit values: the coefficient of an orbit sums both products of each
    of its member pairs, and the constant is the diagonal's -2 entries."""
    qvecs = refdata.Q_BASIS.entries
    tests = []
    for a in range(6):
        for b in range(a, 6):
            const = sum(-2 * qvecs[a][i] * qvecs[b][i] for i in range(24))
            terms = []
            for orb, pairs in ORBIT_MEMBERS.items():
                c = 0
                for pair in pairs:
                    i, j = sorted(pair)
                    c += qvecs[a][i] * qvecs[b][j] + qvecs[a][j] * qvecs[b][i]
                if c:
                    terms.append((orb, c))
            tests.append((tuple(sorted(terms)), refdata.Q_GRAM.entries[a][b] - const))
    return tests


def generator_weights() -> list[dict[int, Fraction]]:
    """The 23 generators of X' over the 20 curves, as {curve index: weight}:
    the curves themselves, then N, Lambda1 and Lambda2, the half-sums over
    their printed supports."""
    weights = [{i: Fraction(1)} for i in range(20)]
    for support in (refdata.N_SUPPORT, refdata.LAMBDA1_SUPPORT, refdata.LAMBDA2_SUPPORT):
        weights.append({i: Fraction(1, 2) for i in support})
    return weights


def incidence_kernel_dim() -> int:
    """Kernel dimension of the relation-only C.N incidence system, solved
    as one system in the 96 unknowns C_i.N_j (unknown index 8i + j).  The
    N-curves are disjoint (-2)-curves, so N_k.N_j = -2 exactly when k = j."""
    weights = generator_weights()
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
                for curve, w in weights[gi].items():
                    if curve < 12:
                        row[curve * 8 + j] += c * w
                    elif curve == 12 + j:
                        const -= 2 * c * w
            rows.append(row)
            rhs.append(-const)
    a = IntMat.from_rows(
        [[int(e * 2) for e in row] for row in rows]  # entries in (1/2)Z
    )
    [sol] = solve_rational(a, [[e * 2 for e in rhs]])
    if sol is None:
        raise ReconstructionError("relation-only incidence system inconsistent")
    return len(sol.kernel)


def block_completions(g1: int, g2: int, adjacent: bool, orbit_vals: dict) -> list[tuple]:
    """Orbit-value assignments for one group-pair block, of total 8 for
    adjacent groups and 0 otherwise, trying each free orbit at every value
    0..8."""
    sizes: dict[int, int] = {}
    for i in refdata.GROUPS_24[g1]:
        for j in refdata.GROUPS_24[g2]:
            orb = ORBIT_OF[frozenset((i, j))]
            sizes[orb] = sizes.get(orb, 0) + 1
    target = 8 if adjacent else 0
    free = sorted(orb for orb in sizes if orb not in orbit_vals)
    fixed = sum(size * orbit_vals[orb] for orb, size in sizes.items() if orb in orbit_vals)
    out = []

    def rec(pos: int, total: int, acc: list):
        if pos == len(free):
            if total == target:
                out.append(tuple(acc))
            return
        for v in range(9):
            # entries are nonnegative, so a total past the target stays past it
            if total + sizes[free[pos]] * v > target:
                break
            acc.append((free[pos], v))
            rec(pos + 1, total + sizes[free[pos]] * v, acc)
            acc.pop()

    rec(0, fixed, [])
    return out


def reconstruct_24() -> Reconstruction24:
    qtests = qgram_linear_tests()
    tier1_keys = set()
    tier2_keys = set()
    for arrangement in _hexagon_arrangements():
        adjacency = _adjacency(arrangement)
        for _assignment, pinned in e8_embeddings(adjacency):
            if not s_block_valid(pinned):
                continue
            blocks = []
            feasible = True
            for g1, g2 in itertools.combinations(range(6), 2):
                adjacent = frozenset((g1, g2)) in adjacency
                comps = block_completions(g1, g2, adjacent, pinned)
                if not comps:
                    feasible = False
                    break
                blocks.append(comps)
            if not feasible:
                continue
            base = [0] * _N_ORBITS
            for orb, v in pinned.items():
                base[orb] = v
            for choice in itertools.product(*blocks):
                vals = list(base)
                for part in choice:
                    for orb, v in part:
                        vals[orb] = v
                key = bytes(vals)
                tier1_keys.add(key)
                if key not in tier2_keys:
                    if all(
                        sum(c * vals[orb] for orb, c in terms) == rhs
                        for terms, rhs in qtests
                    ):
                        tier2_keys.add(key)
    if not tier1_keys:
        raise ReconstructionError("no solution at tier 1: constraint bug")
    tier2 = tuple(_assemble(key) for key in sorted(tier2_keys))
    tier3 = tuple(g for g in tier2 if relations_hold(g))
    return Reconstruction24(len(tier1_keys), tier2, tier3)


def qgram_solutions(pinned: dict, blocks, tests) -> list[bytes]:
    """Keys of the solutions of one product that pass every affine test,
    by testing each choice of one completion per block, test by test."""
    base = [0] * _N_ORBITS
    for orb, v in pinned.items():
        base[orb] = v
    keys = []
    for choice in itertools.product(*blocks):
        vals = list(base)
        for part in choice:
            for orb, v in part:
                vals[orb] = v
        if all(sum(c * vals[orb] for orb, c in terms) == rhs for terms, rhs in tests):
            keys.append(bytes(vals))
    return keys


def m_solution(halfset):
    """The solve of B^T x = (1/2) sum of the curves in halfset, or None when
    it is inconsistent.  B is the printed rank-16 basis of M on X' over the
    20 curves: the curves ``M_BASIS_CURVES``, then N, Lambda1 and Lambda2,
    each half the sum of its printed support."""
    rows = [[2 * int(i == k) for i in range(20)] for k in refdata.M_BASIS_CURVES]
    rows += [
        [int(i in support) for i in range(20)]
        for support in (refdata.N_SUPPORT, refdata.LAMBDA1_SUPPORT, refdata.LAMBDA2_SUPPORT)
    ]
    cols = IntMat.from_rows([list(col) for col in zip(*rows)])
    [sol] = solve_rational(cols, [[int(i in halfset) for i in range(20)]])
    return sol
