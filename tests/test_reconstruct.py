import itertools
import os
import subprocess
import sys
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

import evenlat
import evenlat.refdata as rd
import linalg_oracle as oracle
import reconstruct_oracle
from deck_oracle import golden_gram_rows
from evenlat.curves import InvolutionAction, present, triple_double_tower
from evenlat.exactlinalg import IntMat, snf_rational
from evenlat.lattice import discriminant_group
from evenlat import reconstruct
from evenlat.verify import reconstruction_entry
from evenlat.reconstruct import (
    _BLOCK_ORBITS,
    _GROUP_OF,
    _N_ORBITS,
    _NODE_WANTS,
    _ORBIT_MEMBERS,
    _ORBIT_OF,
    Reconstruction24,
    ReconstructionError,
    _adjacency,
    _e8_embeddings,
    _hexagon_arrangements,
    _packed,
    _qgram_linear_tests,
    _qgram_solutions,
    _shape_arrangements,
    _with_effects,
    q_gram_of,
    reconstruct_24,
    relations_hold,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_GROUP_PAIRS = [frozenset(pair) for pair in itertools.combinations(range(6), 2)]


class TestCensus:
    def test_census_sizes(self, reconstruction):
        sizes = reconstruction.census_sizes()
        assert sizes["tier2"] == 2
        assert sizes["tier3"] == 1
        assert sizes["tier1"] == 121536

    def test_matches_deck_oracle(self, gram24):
        assert gram24.entries == golden_gram_rows()

    def test_tier2_solutions_differ_in_relations(self, reconstruction):
        flags = [relations_hold(g) for g in reconstruction.tier2]
        assert sorted(flags) == [False, True]
        for g in reconstruction.tier2:
            assert q_gram_of(g).entries == rd.Q_GRAM.entries

    def test_ambiguous_tier3_fails(self, reconstruction):
        # both tier-2 Grams kept at tier 3: the answer is no longer single
        ambiguous = Reconstruction24(
            reconstruction.tier1_count, reconstruction.tier2, reconstruction.tier2
        )
        entry = reconstruction_entry(ambiguous)
        assert entry.status == "fail"
        assert entry.witnesses["selected_solutions"] == 2
        assert entry.notes == ("tier 3 leaves 2 label-inequivalent solutions",)
        for rec in (ambiguous, Reconstruction24(reconstruction.tier1_count, reconstruction.tier2, ())):
            with pytest.raises(ReconstructionError, match=f"holds {len(rec.tier3)} "):
                rec.gram


class TestAgainstEnumeration:
    @pytest.fixture(scope="class")
    def enumerated(self):
        return reconstruct_oracle.reconstruct_24()

    @pytest.mark.parametrize("tier", ["1", "2", "3"])
    def test_census_matches_enumeration(self, reconstruction, enumerated, tier):
        def census(rec):
            return {
                "1": rec.tier1_count,
                "2": [g.entries for g in rec.tier2],
                "3": [g.entries for g in rec.tier3],
            }[tier]

        assert census(reconstruction) == census(enumerated)

    def test_orbit_table_matches_oracle(self):
        want_members = {
            orb: [tuple(sorted(pair)) for pair in pairs]
            for orb, pairs in reconstruct_oracle.ORBIT_MEMBERS.items()
        }
        assert _ORBIT_MEMBERS == want_members
        for i in range(24):
            for j in range(24):
                want = reconstruct_oracle.ORBIT_OF.get(frozenset((i, j)), -1)
                assert _ORBIT_OF[i][j] == want

    def test_e8_embeddings_match_oracle(self):
        # same assignments, pinned values and pin order, in the same order
        def listed(embeddings):
            return [(assignment, list(pinned.items())) for assignment, pinned in embeddings]

        for arrangement in _hexagon_arrangements():
            adjacency = _adjacency(arrangement)
            got = listed(_e8_embeddings(adjacency))
            assert got == listed(reconstruct_oracle.e8_embeddings(adjacency))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.sets(st.sampled_from(_GROUP_PAIRS)))
    @example(set())
    @example(set(_GROUP_PAIRS))  # the complete graph: 1,504 embeddings
    def test_e8_embeddings_match_oracle_on_any_adjacency(self, pairs):
        def listed(embeddings):
            return [(assignment, list(pinned.items())) for assignment, pinned in embeddings]

        adjacency = frozenset(pairs)
        assert listed(_e8_embeddings(adjacency)) == listed(reconstruct_oracle.e8_embeddings(adjacency))

    def test_every_embedding_has_a_valid_s_block(self):
        # the single shape check in reconstruct_24 rests on this: every
        # embedding pins the ten-curve block to the shape
        embeddings = [
            pinned
            for arrangement in _hexagon_arrangements()
            for _, pinned in _e8_embeddings(_adjacency(arrangement))
        ]
        assert len(embeddings) == 56
        assert all(reconstruct_oracle.s_block_valid(pinned) for pinned in embeddings)

    def test_parity_count_keeps_every_arrangement_with_an_embedding(self):
        # reconstruct_24 searches only the kept arrangements; the oracle
        # searches all 60, so the census comparison checks the pruning too
        arrangements = list(_hexagon_arrangements())
        kept = _shape_arrangements()
        assert len(arrangements) == 60
        assert len(kept) == 18
        for arrangement in arrangements:
            if arrangement not in kept:
                assert reconstruct_oracle.e8_embeddings(_adjacency(arrangement)) == []
        found = {a: _e8_embeddings(_adjacency(a)) for a in arrangements}
        carrying = [a for a, embeddings in found.items() if embeddings]
        assert len(carrying) == 12
        assert sum(map(len, found.values())) == 56
        assert set(carrying) <= set(kept)

    def test_bad_shape_fails_closed(self, monkeypatch):
        # the section leaves node 0: affine E8 plus a disjoint curve is degenerate
        wants = (_NODE_WANTS[0][:-1] + (0,),) + _NODE_WANTS[1:]
        monkeypatch.setattr(reconstruct, "_NODE_WANTS", wants)
        with pytest.raises(ReconstructionError, match="shape"):
            reconstruct_24()

    @pytest.mark.parametrize("node", range(8))
    def test_node_without_parent_fails_closed(self, monkeypatch, node):
        # the node keeps only its edges to later nodes, so no earlier node
        # or the section can anchor its candidates
        wants = list(_NODE_WANTS)
        wants[node] = (0,) * len(wants[node])
        monkeypatch.setattr(reconstruct, "_NODE_WANTS", tuple(wants))
        with pytest.raises(ReconstructionError, match="shape"):
            _e8_embeddings(_adjacency(next(_hexagon_arrangements())))

    def test_split_incidence_system_matches_oracle(self, xprime):
        assert xprime.incidence_kernel_dim == reconstruct_oracle.incidence_kernel_dim() == 64

    def test_qgram_linear_tests_match_oracle(self):
        assert _qgram_linear_tests() == reconstruct_oracle.qgram_linear_tests()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(
        st.lists(st.sampled_from((0, 0, 0, 0, -2, -1, 1, 2)), min_size=24, max_size=24),
        min_size=6, max_size=6,
    ))
    def test_qgram_linear_tests_match_oracle_on_any_basis(self, rows):
        # the sum over the supports of two basis vectors against the walk
        # over every member pair of every orbit, on drawn bases: supports
        # inside one group, overlapping, dense, empty
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rd, "Q_BASIS", IntMat.from_rows(rows))
            assert _qgram_linear_tests() == reconstruct_oracle.qgram_linear_tests()

    def test_every_orbit_lies_in_one_block(self):
        # the product count and the split join both rest on this
        for pairs in _ORBIT_MEMBERS.values():
            blocks = {frozenset(_GROUP_OF[i] for i in pair) for pair in pairs}
            assert len(blocks) == 1

    def test_block_orbit_table_counts_each_block(self):
        for g1, g2 in itertools.combinations(range(6), 2):
            sizes = {}
            for i in rd.GROUPS_24[g1]:
                for j in rd.GROUPS_24[g2]:
                    sizes[_ORBIT_OF[i][j]] = sizes.get(_ORBIT_OF[i][j], 0) + 1
            assert _BLOCK_ORBITS[g1][g2] == tuple(sorted(sizes.items()))
            assert sum(size for _, size in _BLOCK_ORBITS[g1][g2]) == 16
            assert _BLOCK_ORBITS[g2][g1] == _BLOCK_ORBITS[g1][g2]

    def test_arrangements_have_distinct_adjacencies(self):
        # products of two arrangements are disjoint: some block is adjacent
        # in one, where it totals 8, and not in the other, where it totals 0
        assert len({_adjacency(a) for a in _hexagon_arrangements()}) == 60

    def test_overlapping_products_fail_closed(self, monkeypatch):
        # each embedding twice: two products agree on every pinned orbit, so
        # the sum of product sizes would count their solutions twice
        search = reconstruct._e8_embeddings

        def twice(adjacency):
            return [emb for emb in search(adjacency) for _ in range(2)]

        monkeypatch.setattr(reconstruct, "_e8_embeddings", twice)
        with pytest.raises(ReconstructionError, match="agree on every shared pinned orbit"):
            reconstruct_24()


@st.composite
def affine_products(draw):
    """One product (pinned, blocks) over a few orbits, affine tests on them
    with negative coefficients, and an entry bound on every value.

    Each right-hand side is drawn, taken from one choice of completions so
    that the tests have a solution, or, for the first test, set so that
    the packing reach max |rhs_t| + bound * sum |c_t| is a power of two."""
    bound = draw(st.integers(1, 4))
    orbits = draw(st.lists(st.integers(0, _N_ORBITS - 1), min_size=1, max_size=8, unique=True))
    owners = draw(st.lists(st.integers(-1, 3), min_size=len(orbits), max_size=len(orbits)))
    values = st.integers(0, bound)
    pinned = {orb: draw(values) for orb, owner in zip(orbits, owners) if owner < 0}
    blocks = []
    for k in range(4):
        members = [orb for orb, owner in zip(orbits, owners) if owner == k]
        if members:
            rows = draw(st.lists(
                st.tuples(*[values] * len(members)), min_size=1, max_size=4, unique=True
            ))
            blocks.append([tuple(zip(members, row)) for row in rows])
    coeffs = st.lists(st.integers(-5, 5), min_size=len(orbits), max_size=len(orbits))
    terms = [
        tuple((orb, c) for orb, c in zip(orbits, draw(coeffs)) if c)
        for _ in range(draw(st.integers(1, 4)))
    ]
    vals = dict(pinned)
    for comps in blocks:
        vals.update(comps[draw(st.integers(0, len(comps) - 1))])
    rhs = [sum(c * vals[orb] for orb, c in t) for t in terms]
    mode = draw(st.sampled_from(("drawn", "solvable", "power of two")))
    if mode == "drawn":
        rhs = [draw(st.integers(-40, 40)) for _ in terms]
    elif mode == "power of two":
        spans = [bound * sum(abs(c) for _, c in t) for t in terms]
        top = max([spans[0]] + [abs(r) + m for r, m in zip(rhs[1:], spans[1:])])
        reach = 1 << max(top - 1, 0).bit_length()
        rhs[0] = draw(st.sampled_from((1, -1))) * (reach - spans[0])
    return pinned, blocks, tuple(zip(terms, rhs)), bound


@settings(max_examples=300, deadline=None, derandomize=True)
@given(affine_products())
# reach 4 gives w = 5; with w = 2 the candidate (1, 0), residuals (4, -1),
# would pack to 0 and falsely match the targets
@example(({}, [[((0, 0),), ((0, 1),)], [((1, 0),), ((1, 1),)]],
          ((((0, 4),), 0), (((1, 1),), 1)), 1))
def test_packed_join_matches_brute_force(system):
    pinned, blocks, tests, bound = system
    packed = _packed(tests, bound)
    got = sorted(_qgram_solutions(pinned, [_with_effects(c, packed[0]) for c in blocks], packed))
    assert got == sorted(reconstruct_oracle.qgram_solutions(pinned, blocks, tests))


def test_census_script():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(evenlat.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "reconstruction_census.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # one search, so one census line
    assert [line for line in lines if "tier1=" in line] == ["  census: tier1=121536 tier2=2 tier3=1"]
    assert "  hexagon arrangements searched: 18 of 60" in lines
    # the script's one use of present
    assert (
        "  hexagon pullback census: 4 sheet assignments, 1 with the rank-16 determinant -64 shape"
        in lines
    )


class TestStructure:
    def test_involutions_are_isometries(self, config24):
        for perm in (rd.IOTA_001, rd.IOTA_010, rd.IOTA_011):
            assert InvolutionAction(perm).is_isometry(config24)

    def test_groups_internally_disjoint(self, gram24):
        for group in rd.GROUPS_24:
            for i in group:
                for j in group:
                    if i != j:
                        assert gram24.entries[i][j] == 0

    def test_adjacent_group_totals(self, gram24):
        totals = {}
        for a in range(6):
            for b in range(a + 1, 6):
                total = sum(
                    gram24.entries[i][j]
                    for i in rd.GROUPS_24[a]
                    for j in rd.GROUPS_24[b]
                )
                totals[(a, b)] = total
        assert sorted(totals.values()) == [0] * 9 + [8] * 6

    def test_multiplicities_at_most_two(self, gram24):
        for i in range(24):
            for j in range(24):
                if i != j:
                    assert 0 <= gram24.entries[i][j] <= 2

    def test_diagonal(self, gram24):
        assert all(gram24.entries[i][i] == -2 for i in range(24))

    def test_tower_option_isomorphic(self, gram24):
        tower = triple_double_tower()

        def to_graph(g):
            graph = nx.Graph()
            graph.add_nodes_from(range(g.rows))
            for i in range(g.rows):
                for j in range(i + 1, g.rows):
                    if g.entries[i][j]:
                        graph.add_edge(i, j, w=g.entries[i][j])
            return graph

        target = to_graph(gram24)
        matches = 0
        for opt in tower.final.options:
            gm = nx.algorithms.isomorphism.GraphMatcher(
                to_graph(opt.config.gram), target,
                edge_match=lambda a, b: a["w"] == b["w"],
            )
            matches += gm.is_isomorphic()
        assert matches == 1


class TestXprime:
    def test_quotient_orbits_match(self, xprime):
        got = tuple(xprime.quotient.orbit_map[lab] for lab in xprime.quotient.config.labels)
        expected = tuple(
            (f"R{i + 1}", f"R{j + 1}") for i, j in rd.QUOTIENT_ORBITS
        )
        assert got == expected

    def test_disjoint_sets(self, xprime):
        g = xprime.config.gram.entries
        for i in range(12):
            for j in range(12, 20):
                assert g[i][j] == 0
        for i in range(12, 20):
            for j in range(12, 20):
                assert g[i][j] == (-2 if i == j else 0)

    def test_relations_hold(self, xprime):
        assert all(ok for _, ok in xprime.relation_report)

    def test_m_gram_invariants(self, xprime):
        lat = xprime.m_presentation.lattice
        assert lat.rank == 16
        assert lat.det == -256
        assert lat.signature == (1, 15, 0)
        assert lat.is_even
        assert discriminant_group(lat).invariant_factors == (2, 2, 2, 2, 4, 4)

    def test_pairings_match_fraction_rule(self, xprime):
        # the printed basis: 13 curves, then N, Lambda1 and Lambda2
        config = xprime.config
        n = config.size
        units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
        halves = [
            tuple(Fraction(1, 2) if i in support else 0 for i in range(n))
            for support in (rd.N_SUPPORT, rd.LAMBDA1_SUPPORT, rd.LAMBDA2_SUPPORT)
        ]
        gens = units + halves
        basis = [gens[i] for i in rd.M_BASIS_CURVES + (20, 21, 22)]
        assert xprime.m_presentation.lattice.gram.entries == tuple(
            tuple(oracle.pair(config, u, v) for v in basis) for u in basis
        )
        want = []
        for target, combo in rd.XPRIME_RELATIONS:
            rhs = [sum(c * gens[gi][k] for gi, c in combo.items()) for k in range(n)]
            want.append(all(
                oracle.pair(config, gens[target], u) == oracle.pair(config, rhs, u)
                for u in units
            ))
        for v in halves:
            integral = all(oracle.pair(config, v, u).denominator == 1 for u in units)
            want.append(integral and oracle.pair(config, v, v) % 2 == 0)
        assert [ok for _, ok in xprime.relation_report] == want

    def test_m_snf_diagonal(self, xprime):
        d, _, _ = snf_rational(xprime.m_presentation.lattice.gram.inverse())
        diag = tuple(d.entries[i][i] for i in range(16))
        assert diag == (1,) * 10 + (Fraction(1, 2),) * 4 + (Fraction(1, 4),) * 2

    def test_relation_only_incidence_freedom(self, xprime):
        # the published relations alone leave a 64-dimensional rational
        # solution space for the curve/exceptional intersection numbers;
        # only the fixed-point geometry pins them to zero
        assert xprime.incidence_kernel_dim == 64

    def test_half_sum_memberships(self, xprime):
        n = xprime.config.size
        n_half = [Fraction(1, 2) if i in rd.N_SUPPORT else Fraction(0) for i in range(n)]
        assert xprime.m_presentation.contains(n_half)
        assert not xprime.presentation.contains(n_half)
        four = [Fraction(1, 2) if i in (0, 1, 2, 3) else Fraction(0) for i in range(n)]
        assert not xprime.m_presentation.contains(four)


class TestSelfChecksFire:
    """Fault injection: each internal check fails closed on the wrong input."""

    def test_shape_that_is_not_unimodular(self, monkeypatch):
        # node 8 also meets the section: det -16
        wants = _NODE_WANTS[:8] + (_NODE_WANTS[8][:-1] + (1,),)
        monkeypatch.setattr(reconstruct, "_NODE_WANTS", wants)
        with pytest.raises(ReconstructionError, match="not unimodular"):
            reconstruct_24()

    def test_no_arrangement_left(self, monkeypatch):
        monkeypatch.setattr(reconstruct, "_shape_arrangements", lambda: [])
        with pytest.raises(ReconstructionError, match="no solution at tier 1"):
            reconstruct_24()

    def test_quotient_orbits_other_than_printed(self, monkeypatch, config24):
        monkeypatch.setattr(rd, "QUOTIENT_ORBITS", rd.QUOTIENT_ORBITS[::-1])
        with pytest.raises(ReconstructionError, match="unexpected quotient orbits"):
            reconstruct.reconstruct_xprime(config24)

    def test_published_relation_that_fails(self, monkeypatch, config24):
        # C6 = C3 - C4 + 2 C5 instead of C3 - C4 + C5
        target, combo = rd.XPRIME_RELATIONS[0]
        wrong = ((target, {**combo, 4: 2}),) + rd.XPRIME_RELATIONS[1:]
        monkeypatch.setattr(rd, "XPRIME_RELATIONS", wrong)
        with pytest.raises(ReconstructionError, match="published relations fail"):
            reconstruct.reconstruct_xprime(config24)

    def test_inconsistent_incidence_system(self, monkeypatch):
        # the relation N1 = 0 pairs with N1 to -2 on one side and 0 on the other
        monkeypatch.setattr(rd, "XPRIME_RELATIONS", ((12, {}),))
        units = [[int(i == k) for k in range(20)] for i in range(20)]
        with pytest.raises(ReconstructionError, match="incidence system inconsistent"):
            reconstruct._incidence_kernel_dim(units)
