"""Constrained reconstruction of the 24-curve and 20-curve configurations.

The 24-curve intersection matrix is recovered by exhaustive search over
hexagon arrangements of the six 4-curve groups and equivariant fillings of
the adjacency blocks, under the published structural constraints.  The
search computes the full solution census of three nested tiers; the answer
is tier 3, and nothing is ever silently picked from an ambiguous census.

Tier 1: involution equivariance, internal disjointness of the groups,
degree-8 cover bookkeeping, and the affine-E8-plus-section shape on the
distinguished ten curves.
Tier 2: tier 1 plus the printed rank-6 block Gram, entrywise.
Tier 3: tier 2 plus the two printed curve relations as identities.

Of the 60 hexagon arrangements, only the 18 whose position parities can
carry the shape tree are searched.  Every edge of the tree is pinned to 1,
which only hexagon-adjacent groups allow, so each edge flips the parity
of the hexagon position: the distinguished curves at an even offset from
the section's group must be as many as the tree positions at an even
distance from the section.  The 42 arrangements that fail this count
hold no embedding.

The node assignments of each arrangement come from a depth-first search
driven by tables: a 24x24 table of pair orbits and the entries each node
pins against the earlier nodes and the section, built once, and per
arrangement one row for each of the ten distinguished curves, the orbit
of its entry with every curve, or -1 where that entry must be 0 (one
group, or groups not adjacent in the hexagon).  The search state is
flat: the pinned value of each orbit in a list indexed by orbit, one
stack of the orbits in pin order, which each candidate cuts back to its
length before the candidate, and a used flag per curve.  The shape gives
every node one edge back to an earlier node or the section, its parent,
so a node's candidates are the fiber curves that can meet its parent's
curve (listed once per arrangement), and a candidate whose edge orbit is
already pinned to 0 is passed over before it pins anything.  The search
pins every entry among the ten distinguished curves to the affine-E8-
plus-section shape, so the unimodularity and signature of their block
are checked once, on the shape Gram, per census.  The orbits of each of
the 15 group-pair blocks, with their sizes, are one table built at
import.

The tier-1 solutions of one arrangement and node assignment form a product
of independent per-block completions, and the products are pairwise
disjoint, so tier 1 is the sum of their sizes.  The 60 arrangements are
the 60 Hamiltonian cycles of K6, so two of them differ in a block that is
adjacent in one, where it totals 8, and not in the other, where it totals
0.  Within one arrangement, each node assignment pins the ten-curve block
to the shape Gram; the tree has arms of lengths 1, 2 and 6 from its branch
node, so it has no automorphism, and two assignments pin some shared orbit
to different values.  The search checks this last condition and raises
if it fails.

Tier 2 is found per product by a split join: the rank-6 Gram conditions
are linear in the orbit values, so the sums of two halves of the blocks
are matched in a table instead of testing every tier-1 solution.  The
21 test sums of a completion are packed into one integer, test t in the
digits of weight 2^(w*t), so a half-sum is one integer sum and a table
key one integer.  The coefficients of the tests are summed over the few
nonzero entries of the printed basis vectors.
The width w = reach.bit_length() + 2, with reach the largest
|rhs_t| + ENTRY_BOUND * sum |c_t| over the tests, keeps every compared sum
inside its signed digits, so equal packed sums are equal test vectors.

No entry needs a cap: an adjacent block totals 8 over orbits of 2 and 4
entries, so an orbit value is at most ENTRY_BOUND = 8 // 2 = 4, and each
free orbit of a block takes the values up to what its total leaves.

On X', the relation-only system for the curve/exceptional incidences
is one 7x12 coefficient matrix, read off the generator rows with their
denominators cleared, with one right-hand side per exceptional curve N_j.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass

from . import refdata
from .curves import (
    CurveConfig,
    CurvePresentation,
    InvolutionAction,
    QuotientResult,
    half_sum,
    present,
    quotient_by_involution,
)
from .exactlinalg import (
    IntMat,
    _clear_denominators,
    bilinear_table,
    block_diag,
    signature,
    solve_rational,
)

# affine E8: chain of eight nodes with multiplicities 1-2-3-4-5-6-4-2 and a
# multiplicity-3 node attached to the multiplicity-6 one
E8A_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8))
E8A_MARKS = (1, 2, 3, 4, 5, 6, 4, 2, 3)
# the entries the shape pins when node n is placed: against each earlier
# node (1 along an edge), then against the section (1 at a mark-1 node)
_NODE_WANTS = tuple(
    tuple(int((prev, node) in E8A_EDGES) for prev in range(node)) + (int(E8A_MARKS[node] == 1),)
    for node in range(9)
)

_GROUPS = refdata.GROUPS_24
_GROUP_OF = [0] * 24
for _gi, _grp in enumerate(_GROUPS):
    for _c in _grp:
        _GROUP_OF[_c] = _gi

_INVOLUTIONS = (refdata.IOTA_001, refdata.IOTA_010, refdata.IOTA_011)


def _pair_orbits() -> tuple[list[list[int]], dict[int, list[tuple[int, int]]]]:
    """Orbits of the involution group on cross-group index pairs.

    Returns the 24x24 orbit table (-1 for a within-group pair) and the
    member pairs (i, j), i < j, of each orbit in sorted order.
    """
    orbit_of = [[-1] * 24 for _ in range(24)]
    members: dict[int, list[tuple[int, int]]] = {}
    for i in range(24):
        for j in range(i + 1, 24):
            if _GROUP_OF[i] == _GROUP_OF[j] or orbit_of[i][j] >= 0:
                continue
            orbit = set()
            frontier = [(i, j)]
            while frontier:
                a, b = frontier.pop()
                pair = (a, b) if a < b else (b, a)
                if pair in orbit:
                    continue
                orbit.add(pair)
                frontier.extend((perm[a], perm[b]) for perm in _INVOLUTIONS)
            orb = len(members)
            for a, b in orbit:
                orbit_of[a][b] = orbit_of[b][a] = orb
            members[orb] = sorted(orbit)
    return orbit_of, members


_ORBIT_OF, _ORBIT_MEMBERS = _pair_orbits()
_N_ORBITS = len(_ORBIT_MEMBERS)


def _block_orbits() -> list[list[tuple[tuple[int, int], ...]]]:
    """The (orbit, size) pairs of each group-pair block, in orbit order; the
    sizes count the entries of the 4x4 block, so they sum to 16."""
    table = [[()] * 6 for _ in range(6)]
    for g1, g2 in itertools.combinations(range(6), 2):
        sizes: dict[int, int] = {}
        for i in _GROUPS[g1]:
            for j in _GROUPS[g2]:
                orb = _ORBIT_OF[i][j]
                sizes[orb] = sizes.get(orb, 0) + 1
        table[g1][g2] = table[g2][g1] = tuple(sorted(sizes.items()))
    return table


_BLOCK_ORBITS = _block_orbits()
# the intersection of two hexagon-adjacent groups; other group pairs meet in 0
_ADJACENT_TOTAL = 8
# the largest value an orbit can take within its block's total
ENTRY_BOUND = max(
    _ADJACENT_TOTAL // size for row in _BLOCK_ORBITS for block in row for _, size in block
)


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


def _parents() -> list[int]:
    """Each node's parent: its first entry of value 1 in ``_NODE_WANTS``, as
    a position in the placed list (an earlier node, or the section last)."""
    parents = []
    for node, wants in enumerate(_NODE_WANTS):
        if 1 not in wants:
            raise ReconstructionError(
                f"the affine-E8-plus-section shape has node {node} meeting no "
                "earlier node and not the section"
            )
        parents.append(wants.index(1))
    return parents


def _shape_arrangements() -> list[tuple[int, ...]]:
    """The hexagon arrangements whose position parities can carry the shape.

    Each node's edge to its parent is pinned to 1, which the embedding
    search allows only between curves of hexagon-adjacent groups, and
    adjacent positions of the 6-cycle differ in parity.  So a curve at tree
    distance t from the section lies at a position whose offset from the
    section's group has the parity of t, and an arrangement can carry the
    shape only when as many of the ten distinguished curves lie at an even
    offset as the tree has positions at an even distance.
    """
    depth = []  # tree distance of each node from the section
    for node, parent in enumerate(_parents()):
        depth.append(1 if parent == node else depth[parent] + 1)
    even_nodes = 1 + sum(d % 2 == 0 for d in depth)  # the section is at distance 0
    groups = [_GROUP_OF[c] for c in (*refdata.FIBER_CURVES, refdata.SECTION)]
    kept = []
    for arrangement in _hexagon_arrangements():
        home = arrangement.index(_GROUP_OF[refdata.SECTION])
        if sum((arrangement.index(g) - home) % 2 == 0 for g in groups) == even_nodes:
            kept.append(arrangement)
    return kept


def _e8_embeddings(adjacency):
    """All assignments of the fiber curves to affine-E8 nodes compatible with
    the given hexagon adjacency and with involution equivariance of the
    entries the shape constraint pins.

    An entry between curves of one group, or of two groups that are not
    adjacent, must be 0; any other entry pins the value of its orbit.  The
    candidates of a node are the unplaced fiber curves that can meet its
    parent, whose entry the shape pins to 1, so every other curve is
    passed over before any entry is pinned.
    """
    fiber = refdata.FIBER_CURVES
    parents = _parents()
    adjacent = [[frozenset((g1, g2)) in adjacency for g2 in range(6)] for g1 in range(6)]
    # live[c][d]: the orbit of the entry c.d when it is free to be pinned,
    # -1 when it must be 0 (one group, or groups not adjacent)
    live = {}
    for c in (*fiber, refdata.SECTION):
        near, row = adjacent[_GROUP_OF[c]], _ORBIT_OF[c]
        live[c] = [orb if near[g] else -1 for orb, g in zip(row, _GROUP_OF)]
    # the fiber curves, in fiber order, that can meet each possible parent
    meets = {p: tuple(c for c in fiber if row[c] >= 0) for p, row in live.items()}
    results = []
    placed = [refdata.SECTION]  # the curves at nodes 0, 1, ..., then the section
    used = [False] * 24
    vals = [-1] * _N_ORBITS  # the pinned value of each orbit, -1 while free
    order: list[int] = []  # the pinned orbits, in pin order

    def place(node: int) -> None:
        if node == 9:
            results.append((tuple(placed[:-1]), {orb: vals[orb] for orb in order}))
            return
        wants = _NODE_WANTS[node]
        parent = placed[parents[node]]
        parent_row = live[parent]
        mark = len(order)
        for curve in meets[parent]:
            # pinned values are 0 or 1: an edge orbit pinned to 0 is closed
            if used[curve] or vals[parent_row[curve]] == 0:
                continue
            row = live[curve]
            for prev, want in zip(placed, wants):
                orb = row[prev]
                if orb < 0:
                    if want:
                        break
                    continue
                have = vals[orb]
                if have < 0:
                    vals[orb] = want
                    order.append(orb)
                elif have != want:
                    break
            else:
                placed.insert(node, curve)
                used[curve] = True
                place(node + 1)
                used[curve] = False
                del placed[node]
            while len(order) > mark:
                vals[order.pop()] = -1

    place(0)
    del place  # place calls itself through its closure: unbind it to leave no reference cycle
    return results


def _block_completions(g1: int, g2: int, adjacent: bool, orbit_vals: dict):
    """Orbit-value assignments for one group-pair block: nonnegative entries
    of total intersection 8 for hexagon-adjacent groups and 0 otherwise."""
    target = _ADJACENT_TOTAL if adjacent else 0
    fixed_total = 0
    free = []
    for orb, size in _BLOCK_ORBITS[g1][g2]:
        if orb in orbit_vals:
            fixed_total += size * orbit_vals[orb]
        else:
            free.append((orb, size))
    # (assignment so far, total left), in lexicographic order of the values
    partial = [((), target - fixed_total)]
    for orb, size in free:
        partial = [
            (acc + ((orb, v),), left - size * v)
            for acc, left in partial
            for v in range(left // size + 1)
        ]
    return [acc for acc, left in partial if left == 0]


def _assemble(orbit_vals) -> IntMat:
    g = [[0] * 24 for _ in range(24)]
    for i in range(24):
        g[i][i] = -2
    for orb, val in enumerate(orbit_vals):
        if val == 0:
            continue
        for i, j in _ORBIT_MEMBERS[orb]:
            g[i][j] = g[j][i] = val
    return IntMat.from_rows(g)


def _check_shape() -> None:
    """Even unimodular signature (1,9) check on the distinguished ten curves.

    The embedding search pins every entry among them to the affine-E8-plus-
    section shape, so their Gram block is the shape Gram under a permutation
    of the nodes, which keeps det and signature: one check of the shape
    serves every embedding."""
    g = [[-2 if a == b else 0 for b in range(10)] for a in range(10)]
    for node, wants in enumerate(_NODE_WANTS):  # the section is index 9
        for prev, want in zip([*range(node), 9], wants):
            g[prev][node] = g[node][prev] = want
    shape = IntMat.from_rows(g)
    if abs(shape.det()) != 1 or signature(shape) != (1, 9, 0):
        raise ReconstructionError("the affine-E8-plus-section shape is not unimodular of signature (1,9)")


def _qgram_linear_tests():
    """The printed rank-6 Gram as affine conditions on the orbit values."""
    qvecs = refdata.Q_BASIS.entries
    # the nonzero entries of each basis vector: a few of the 24
    supports = [[(i, x) for i, x in enumerate(q) if x] for q in qvecs]
    tests = []
    for a in range(6):
        for b in range(a, 6):
            const = sum(-2 * qvecs[a][i] * qvecs[b][i] for i in range(24))
            # the entry i.j of a cross-group pair lies in its orbit, so each
            # ordered pair of the supports adds q_a[i] * q_b[j] to that orbit
            coeff = [0] * _N_ORBITS
            for i, x in supports[a]:
                orbit_row = _ORBIT_OF[i]
                for j, y in supports[b]:
                    orb = orbit_row[j]
                    if orb >= 0:
                        coeff[orb] += x * y
            terms = tuple((orb, c) for orb, c in enumerate(coeff) if c)
            tests.append((terms, refdata.Q_GRAM.entries[a][b] - const))
    return tests


def q_gram_of(gram24: IntMat) -> IntMat:
    """Gram of the published rank-6 basis vectors against a 24-curve Gram."""
    qm = refdata.Q_BASIS
    return qm * gram24 * qm.transpose()


def config_24(gram24: IntMat) -> CurveConfig:
    """The 24-curve configuration R1..R24 of a 24-curve Gram."""
    return CurveConfig(tuple(f"R{i + 1}" for i in range(24)), gram24)


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


def _packed(tests, bound: int) -> tuple[list[int], int]:
    """The affine tests packed into integers: per-orbit columns and the target.

    Test t takes the digits of weight 2^(w*t), so a vector x of test sums
    packs to the integer sum of x_t * 2^(w*t), and packing is linear.  A
    vector with every |x_t| < 2^w packs to 0 only when it is 0.  The join
    compares a left-half sum with the target minus a right-half sum; they
    differ by the residual A(v) - rhs of one choice v of orbit values in
    0..bound, the largest possible entry, whose entries are at most
    reach = max over t of (|rhs_t| + bound * sum |c_t|) in absolute value.
    So w = reach.bit_length() would already separate them; w is two bits
    wider, so that every compared sum also fits its own signed digit,
    |x_t| < 2^(w-1).
    """
    reach = max(abs(rhs) + bound * sum(abs(c) for _, c in terms) for terms, rhs in tests)
    w = reach.bit_length() + 2
    columns = [0] * _N_ORBITS
    target = 0
    for t, (terms, rhs) in enumerate(tests):
        for orb, c in terms:
            columns[orb] += c << (w * t)
        target += rhs << (w * t)
    return columns, target


def _with_effects(comps, columns) -> list[tuple[int, tuple]]:
    """(packed effect, completion) for each completion of one block."""
    return [(sum(columns[orb] * v for orb, v in part), part) for part in comps]


def _qgram_solutions(pinned: dict, blocks, packed):
    """Keys of the solutions of one product that pass every rank-6 Gram test.

    The tests are affine in the orbit values and the blocks own disjoint
    orbits, so each completion adds a fixed vector to the test sums.  Each
    block pairs its completions with these vectors, each packed into one
    integer by the columns of ``packed`` (``_with_effects``), so a sum of
    completions is one integer sum.  The blocks are split into two halves
    of about equal product size; the sums of the left half go into a table,
    and each right-half sum looks up the left sums that complete it to the
    targets (the Horowitz-Sahni split).

    A half is held as its list of sums alone, in ``itertools.product``
    order, so the sum at index k takes from each block the completion
    given by the digits of k in mixed radix over the block sizes, the last
    block fastest.  Only the rare matches decode their completions.
    """
    columns, target = packed

    def sums(half) -> list[int]:
        out = [0]
        for comps in half:
            out = [s + e for s in out for e, _ in comps]
        return out

    def parts(half, k: int) -> tuple:
        # the completions at index k of sums(half)
        out = []
        for comps in reversed(half):
            k, digit = divmod(k, len(comps))
            out.append(comps[digit][1])
        return tuple(reversed(out))

    need = target - sum(columns[orb] * v for orb, v in pinned.items())
    halves: tuple[list, list] = ([], [])
    sizes = [1, 1]
    for comps in sorted(blocks, key=len, reverse=True):
        side = 0 if sizes[0] <= sizes[1] else 1
        halves[side].append(comps)
        sizes[side] *= len(comps)
    left_index = defaultdict(list)
    for k, s in enumerate(sums(halves[0])):
        left_index[s].append(k)
    base = _base_values(pinned)
    for k, s in enumerate(sums(halves[1])):
        matches = left_index.get(need - s)
        if matches:
            right = parts(halves[1], k)
            for m in matches:
                yield _solution_key(base, parts(halves[0], m) + right)


@dataclass(frozen=True)
class Reconstruction24:
    """Census of the 24-curve reconstruction, by tier.

    Tier-1 solutions are only counted, as the sum of the sizes of pairwise
    disjoint products (the census is large); the tier-2 solutions are
    found by a split join on the rank-6 Gram conditions and, with the
    tier-3 ones, materialized as Gram matrices sorted by orbit values.
    """

    tier1_count: int
    tier2: tuple[IntMat, ...]
    tier3: tuple[IntMat, ...]

    @property
    def gram(self) -> IntMat:
        """The single tier-3 Gram: the configuration meeting every constraint."""
        if len(self.tier3) != 1:
            raise ReconstructionError(
                f"tier 3 census holds {len(self.tier3)} label-inequivalent "
                "solutions; inspect the census instead of picking one"
            )
        return self.tier3[0]

    def config(self) -> CurveConfig:
        return config_24(self.gram)

    def census_sizes(self) -> dict[str, int]:
        return {
            "tier1": self.tier1_count,
            "tier2": len(self.tier2),
            "tier3": len(self.tier3),
        }


def reconstruct_24() -> Reconstruction24:
    """Recover the 24-curve intersection matrix by an exhaustive tiered census.

    Every tier is computed in full, over every entry up to ``ENTRY_BOUND``,
    the most the block totals allow.  The answer is the tier-3 census,
    which ``Reconstruction24.gram`` reads when it holds a single Gram.
    """
    _check_shape()
    columns, _ = packed = _packed(_qgram_linear_tests(), ENTRY_BOUND)
    tier1_count = 0
    tier2_keys = set()
    # a block's completions, with their packed effects, depend only on the block,
    # its adjacency and the pinned values of its own orbits, which recur across embeddings
    effects = {}
    for arrangement in _shape_arrangements():
        adjacency = _adjacency(arrangement)
        kept = []
        for _assignment, pinned in _e8_embeddings(adjacency):
            blocks = []
            for g1, g2 in itertools.combinations(range(6), 2):
                adjacent = frozenset((g1, g2)) in adjacency
                key = (g1, g2, adjacent, tuple(pinned.get(orb) for orb, _ in _BLOCK_ORBITS[g1][g2]))
                block = effects.get(key)
                if block is None:
                    comps = _block_completions(g1, g2, adjacent, pinned)
                    block = effects[key] = _with_effects(comps, columns)
                if not block:
                    break
                blocks.append(block)
            else:
                # products of one arrangement are disjoint when they pin some shared orbit apart
                if any(all(other.get(orb, v) == v for orb, v in pinned.items()) for other in kept):
                    raise ReconstructionError(
                        "two products of one arrangement agree on every shared pinned orbit"
                    )
                kept.append(pinned)
                tier1_count += math.prod(map(len, blocks))
                tier2_keys.update(_qgram_solutions(pinned, blocks, packed))
    if not tier1_count:
        raise ReconstructionError("no solution at tier 1: constraint bug")
    tier2 = tuple(_assemble(key) for key in sorted(tier2_keys))
    tier3 = tuple(g for g in tier2 if relations_hold(g))
    return Reconstruction24(tier1_count, tier2, tier3)


# ---------------------------------------------------------------------------
# the quotient configuration on X'

@dataclass(frozen=True)
class XprimeReconstruction:
    config: CurveConfig                      # C1..C12, N1..N8
    quotient: QuotientResult
    presentation: CurvePresentation          # span of the 20 curves
    m_presentation: CurvePresentation        # M, on its printed rank-16 basis
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
    quot = quotient_by_involution(base24, act)
    expected_orbits = tuple(
        (base24.labels[i], base24.labels[j]) for i, j in refdata.QUOTIENT_ORBITS
    )
    got_orbits = tuple(quot.orbit_map[lab] for lab in quot.config.labels)
    if got_orbits != expected_orbits:
        raise ReconstructionError(f"unexpected quotient orbits: {got_orbits}")
    # N1..N8 are eight disjoint (-2)-curves
    config = CurveConfig(
        refdata.xprime_labels(), block_diag(quot.config.gram, IntMat.diagonal([-2] * 8))
    )
    n = config.size
    pres = present(config)

    gens = [[int(k == i) for k in range(n)] for i in range(n)]
    gens.append(half_sum(refdata.N_SUPPORT, n))
    gens.append(half_sum(refdata.LAMBDA1_SUPPORT, n))
    gens.append(half_sum(refdata.LAMBDA2_SUPPORT, n))
    # table[a][b] / den = gens[a] . gens[b]; the first n generators are the curves
    table, den = bilinear_table(gens, config.gram.entries, gens)

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

    # raises unless the printed basis spans the curves, N, Lambda1 and
    # Lambda2 with an integral Gram
    m_pres = pres.rebase([gens[i] for i in refdata.M_BASIS_CURVES + (20, 21, 22)])

    kdim = _incidence_kernel_dim(gens)
    return XprimeReconstruction(config, quot, pres, m_pres, tuple(report), kdim)


def _incidence_kernel_dim(gens) -> int:
    """Rank deficiency of the relation-only system for the C.N incidences.

    Treat the 96 products C_i.N_j as unknowns and impose only that the
    published relations pair equally against every curve; the dimension of
    the solution space records that the relations alone underdetermine the
    incidences (the fixed-point geometry is what pins them to zero).  A
    relation, as the vector r = sum of its coefficients times gens over the
    20 curves, pairs with N_j to sum_i r_i C_i.N_j - 2 r_(N_j).  So the
    equations against N_j contain only the unknowns C_i.N_j, with one 7x12
    coefficient matrix for every j: the 56x96 system is one solve with
    eight right-hand sides, and the dimension is the sum of their kernel
    dimensions.  The denominators of the generators are cleared once, to d,
    so each relation is the integer row d * r, and the system is d * r[:12]
    against 2 * d * r[12 + j].
    """
    cleared, _ = _clear_denominators(gens)
    # d * r for each relation r, in integers
    rels = [
        [sum(c * cleared[gi][k] for gi, c in combo.items()) - cleared[target][k] for k in range(20)]
        for target, combo in refdata.XPRIME_RELATIONS
    ]
    a = IntMat.from_rows([r[:12] for r in rels])
    sols = solve_rational(a, [[2 * r[12 + j] for r in rels] for j in range(8)])
    if None in sols:
        raise ReconstructionError("relation-only incidence system inconsistent")
    return sum(len(sol.kernel) for sol in sols)
