import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import linalg_oracle as oracle
import pullback_oracle
from evenlat.curves import (
    CoverStep,
    CurveConfig,
    CurvePresentation,
    InvolutionAction,
    double_cover_pullback,
    find_even_four_certificate,
    hexagon_config,
    present,
    quotient_by_involution,
    triple_double_tower,
)
from evenlat.exactlinalg import IntMat, kernel_saturated, snf
from evenlat.lattice import discriminant_group

F = Fraction


def single_curve(self_int=-1, label="c"):
    return CurveConfig((label,), IntMat.from_rows([[self_int]]))


def two_curves(s1, s2, m):
    return CurveConfig(("a", "b"), IntMat.from_rows([[s1, m], [m, s2]]))


class TestConfig:
    def test_hexagon_gram(self):
        g = hexagon_config().gram
        assert all(g.entries[i][i] == -1 for i in range(6))
        for i in range(6):
            for j in range(6):
                if i != j:
                    expected = 1 if (i - j) % 6 in (1, 5) else 0
                    assert g.entries[i][j] == expected

    def test_single_curve_gram(self):
        assert single_curve(-2).gram.entries == ((-2,),)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            CurveConfig(("a", "b"), IntMat.from_rows([[-1, 1], [0, -1]]))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            CurveConfig(("a", "a"), IntMat.from_rows([[-1, 0], [0, -1]]))

    @pytest.mark.parametrize("labels", [("a",), ("a", "b", "c")])
    def test_rejects_a_gram_of_another_size(self, labels):
        # one label would drop the second curve, three would index past the Gram
        with pytest.raises(ValueError, match="2x2 Gram"):
            CurveConfig(labels, IntMat.from_rows([[-2, 1], [1, -2]]))

    def test_rejects_a_negative_multiplicity(self):
        with pytest.raises(ValueError, match="multiplicities must be nonnegative"):
            CurveConfig(("a", "b"), IntMat.from_rows([[-2, -1], [-1, -2]]))

    @pytest.mark.parametrize("s", [-4, -2, -1, 0, 3])
    def test_accepts_any_self_intersection(self, s):
        cfg = CurveConfig(("a", "b"), IntMat.from_rows([[s, 1], [1, -2]]))
        assert cfg.gram.entries[0][0] == s

    @pytest.mark.parametrize("s", [F(1, 2), F(-2), True])
    def test_rejects_a_non_integer_self_intersection(self, s):
        # IntMat refuses the entry, so no configuration can hold it
        with pytest.raises(TypeError):
            CurveConfig(("a",), IntMat.from_rows([[s]]))


class TestInvolution:
    def test_order_check(self):
        with pytest.raises(ValueError):
            InvolutionAction((1, 2, 0))

    def test_isometry_check(self):
        cfg = two_curves(-1, -2, 1)
        assert not InvolutionAction((1, 0)).is_isometry(cfg)
        cfg2 = two_curves(-2, -2, 1)
        assert InvolutionAction((1, 0)).is_isometry(cfg2)


class TestPullback:
    def test_branched_curve_doubles_self_intersection(self):
        cfg = single_curve(-1)
        step = CoverStep(frozenset({"l0", "l1"}), {"c": ("x", "y")}, {})
        out = double_cover_pullback(cfg, step).unique()
        assert out.config.labels == ("c",)
        assert out.config.gram.entries == ((-2,),)

    def test_unbranched_curve_splits(self):
        cfg = single_curve(-2)
        step = CoverStep(frozenset({"l0"}), {}, {})
        out = double_cover_pullback(cfg, step).unique()
        assert out.config.labels == ("ca", "cb")
        assert out.config.gram.entries == ((-2, 0), (0, -2))

    def test_split_split_intersection_distributes(self):
        cfg = two_curves(-1, -1, 1)
        step = CoverStep(frozenset({"l0"}), {}, {frozenset(("a", "b")): ("p",)})
        out = double_cover_pullback(cfg, step).unique()
        c = out.config
        total = sum(
            c.gram.entries[i][j] for i in range(4) for j in range(i + 1, 4)
        )
        assert total == 2  # projection formula: 2 * (a.b)
        # sheets match: aa meets ba, ab meets bb
        i = {lab: k for k, lab in enumerate(c.labels)}
        assert c.gram.entries[i["aa"]][i["ba"]] == 1
        assert c.gram.entries[i["ab"]][i["bb"]] == 1

    def test_ramified_meets_both_copies(self):
        cfg = two_curves(-1, -1, 1)
        step = CoverStep(
            frozenset({"l0"}), {"a": ("x", "y")}, {frozenset(("a", "b")): ("p",)}
        )
        out = double_cover_pullback(cfg, step).unique()
        c = out.config
        i = {lab: k for k, lab in enumerate(c.labels)}
        assert c.gram.entries[i["a"]][i["a"]] == -2
        assert c.gram.entries[i["a"]][i["ba"]] == 1
        assert c.gram.entries[i["a"]][i["bb"]] == 1

    @pytest.mark.parametrize("m, ids", [(3, ("p",)), (1, ()), (0, ("p",))])
    def test_shared_points_must_match_multiplicity(self, m, ids):
        cfg = two_curves(-1, -1, m)
        shared = {frozenset(("a", "b")): ids} if ids else {}
        step = CoverStep(frozenset({"l0"}), {}, shared)
        with pytest.raises(ValueError, match=f"a.b = {m} but {len(ids)} shared point ids"):
            double_cover_pullback(cfg, step)

    def test_repeated_shared_point_id_rejected(self):
        # the ids are outside input, and an option's shared_points would
        # name the repeated point twice
        cfg = two_curves(-2, -2, 2)
        step = CoverStep(frozenset({"l0"}), {}, {frozenset(("a", "b")): ("p", "q")})
        assert len(double_cover_pullback(cfg, step).options) == 2
        step = CoverStep(frozenset({"l0"}), {}, {frozenset(("a", "b")): ("p", "p")})
        with pytest.raises(ValueError, match=r"a.b lists a shared point id twice: \['p', 'p'\]"):
            double_cover_pullback(cfg, step)

    @pytest.mark.parametrize("kind", ["branch", "marked"])
    def test_repeated_branch_or_marked_point_id_rejected(self, kind):
        # one point listed twice on the branch is a tangency, not two
        # ramification points; a marked point twice would label two
        # preimages alike
        points = {"c": ("x", "x")}
        step = CoverStep(
            frozenset({"l0"}),
            points if kind == "branch" else {},
            {},
            points if kind == "marked" else {},
        )
        with pytest.raises(ValueError, match=rf"c lists a {kind} point id twice: \['x', 'x'\]"):
            double_cover_pullback(single_curve(-1), step)

    def test_odd_branch_count_rejected(self):
        cfg = single_curve(-1)
        step = CoverStep(frozenset({"l0"}), {"c": ("x",)}, {})
        with pytest.raises(ValueError):
            double_cover_pullback(cfg, step)

    def test_four_branch_points_rejected(self):
        cfg = single_curve(-1)
        step = CoverStep(frozenset({"l0"}), {"c": ("x", "y", "z", "w")}, {})
        with pytest.raises(ValueError):
            double_cover_pullback(cfg, step)

    def test_tracked_branch_curve_rejected(self):
        cfg = single_curve(-1)
        step = CoverStep(frozenset({"c"}), {}, {})
        with pytest.raises(ValueError):
            double_cover_pullback(cfg, step)

    def test_cycle_is_ambiguous(self):
        # a square of four unbranched curves: the sheet matching around the
        # cycle is invisible to the incidence data
        labels = ("a", "b", "c", "d")
        gram = [[-2 if i == j else 0 for j in range(4)] for i in range(4)]
        for i, j in ((0, 1), (1, 2), (2, 3), (3, 0)):
            gram[i][j] = gram[j][i] = 1
        cfg = CurveConfig(labels, IntMat.from_rows(gram))
        shared = {
            frozenset(("a", "b")): ("p1",),
            frozenset(("b", "c")): ("p2",),
            frozenset(("c", "d")): ("p3",),
            frozenset(("a", "d")): ("p4",),
        }
        result = double_cover_pullback(cfg, CoverStep(frozenset({"l0"}), {}, shared))
        assert result.is_ambiguous
        assert len(result.options) == 2
        with pytest.raises(ValueError):
            result.unique()

    @pytest.mark.parametrize("m, count", [(2, 12), (3, 36), (4, 80)])
    def test_split_triangle_counts_crossings_per_pair(self, m, count):
        # a.b and a.c span the forest and cross 0..m-1 of their points;
        # b.c closes the cycle and crosses 0..m
        labels = ("a", "b", "c")
        cfg = CurveConfig(labels, IntMat.from_rows([[-2, m, m], [m, -2, m], [m, m, -2]]))
        shared = {
            frozenset(pair): tuple("".join(pair) + str(t) for t in range(m))
            for pair in itertools.combinations(labels, 2)
        }
        step = CoverStep(frozenset({"l0"}), {}, shared)
        options = double_cover_pullback(cfg, step).options
        assert len(options) == count == m * m * (m + 1)
        assert options == pullback_oracle.double_cover_pullback(cfg, step).options

    def test_projection_formula_total_degree(self):
        tower = triple_double_tower()
        base = hexagon_config()
        for stage, cfg_before in ((tower.stage1, base), (tower.stage2, tower.stage1.config)):
            c = stage.config
            for la in cfg_before.labels:
                for lb in cfg_before.labels:
                    if la >= lb:
                        continue
                    before = cfg_before.gram.entries[cfg_before.index(la)][cfg_before.index(lb)]
                    after = sum(
                        c.gram.entries[c.index(x)][c.index(y)]
                        for x in stage.label_map[la]
                        for y in stage.label_map[lb]
                    )
                    assert after == 2 * before
                # self-intersection bookkeeping: (pullback)^2 = 2 C^2
                pieces = stage.label_map[la]
                square = sum(
                    c.gram.entries[c.index(x)][c.index(y)]
                    for x in pieces
                    for y in pieces
                )
                assert square == 2 * cfg_before.gram.entries[
                    cfg_before.index(la)
                ][cfg_before.index(la)]


@st.composite
def cover_data(draw):
    """A configuration of 1-5 curves, some ramified, with valid cover data.

    Multiplicities are 0-3, at most 10 shared points in all, so the
    oracle's sweep stays under 2^10 sign vectors; ids are listed in a
    shuffled order, and a pair that does not meet may list no ids.
    """
    labels = draw(st.permutations("abcde"))[: draw(st.integers(1, 5))]
    n = len(labels)
    gram = [[0] * n for _ in range(n)]
    shared = {}
    budget = 10
    for i, j in itertools.combinations(range(n), 2):
        m = min(draw(st.sampled_from((0, 0, 1, 2, 3))), budget)
        budget -= m
        gram[i][j] = gram[j][i] = m
        if m or draw(st.booleans()):
            ids = [f"{labels[i]}{labels[j]}{t}" for t in range(m)]
            shared[frozenset((labels[i], labels[j]))] = tuple(draw(st.permutations(ids)))
    ram = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    branch_points = {lab: (lab + "x", lab + "y") for lab, r in zip(labels, ram) if r}
    marked = {}
    for lab in labels:
        pts = draw(st.lists(st.sampled_from(("m", "n")), unique=True, max_size=2))
        if pts:
            marked[lab] = tuple(lab + p for p in pts)
    for i in range(n):
        gram[i][i] = draw(st.sampled_from((-1, -2)))
    cfg = CurveConfig(tuple(labels), IntMat.from_rows(gram))
    return cfg, CoverStep(frozenset({"l0", "l1"}), branch_points, shared, marked)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cover_data())
def test_pullback_matches_the_sign_sweep(data):
    # same options, in the same order, field for field
    cfg, step = data
    assert double_cover_pullback(cfg, step).options == (
        pullback_oracle.double_cover_pullback(cfg, step).options
    )


class TestTower:
    def test_stage_sizes(self):
        tower = triple_double_tower()
        assert tower.stage1.config.size == 10
        assert tower.stage2.config.size == 16
        assert all(opt.config.size == 24 for opt in tower.final.options)

    def test_final_census(self):
        tower = triple_double_tower()
        assert len(tower.final.options) == 4
        ranks = []
        for opt in tower.final.options:
            g = opt.config.gram.entries
            assert {g[i][i] for i in range(opt.config.size)} == {-2}
            lat = present(opt.config).lattice
            ranks.append((lat.rank, lat.det))
        # exactly one option has the rank-16 determinant -64 shape
        assert ranks.count((16, -64)) == 1

    def test_unique_option_invariants(self):
        tower = triple_double_tower()
        good = [
            opt
            for opt in tower.final.options
            if present(opt.config).lattice.rank == 16
            and present(opt.config).lattice.det == -64
        ]
        lat = present(good[0].config).lattice
        assert lat.is_even and lat.signature == (1, 15, 0)
        assert discriminant_group(lat).invariant_factors == (2, 2, 4, 4)


class TestQuotient:
    def test_identity_rejected(self):
        cfg = two_curves(-2, -2, 0)
        with pytest.raises(ValueError):
            quotient_by_involution(cfg, InvolutionAction((0, 1)))

    def test_swap_two_spheres(self):
        cfg = two_curves(-2, -2, 0)
        quot = quotient_by_involution(cfg, InvolutionAction((1, 0)))
        assert quot.config.size == 1
        assert quot.config.gram.entries == ((-2,),)

    def test_projection_formula(self, config24):
        from evenlat.refdata import IOTA_011

        act = InvolutionAction(IOTA_011)
        quot = quotient_by_involution(config24, act)
        g24 = config24.gram.entries
        gq = quot.config.gram.entries
        orbits = [tuple(config24.index(lab) for lab in quot.orbit_map[c])
                  for c in quot.config.labels]
        for a, (i, ip) in enumerate(orbits):
            for b, (j, jp) in enumerate(orbits):
                total = g24[i][j] + g24[i][jp] + g24[ip][j] + g24[ip][jp]
                assert 2 * gq[a][b] == total


class TestCertificates:
    def test_immediate_weight_four(self, xprime):
        (cert,) = find_even_four_certificate([("C1", "C2", "C7", "C8")], [], xprime.m_presentation)
        assert cert is not None
        assert cert.steps == ()
        assert cert.final == ("C1", "C2", "C7", "C8")

    def test_reduction_example(self, xprime):
        import evenlat.refdata as rd

        cfg = xprime.config
        labels = cfg.labels
        families = [tuple(labels[i] for i in fam) for fam in rd.XPRIME_RELATION_FAMILIES]
        start = ("C1", "C2", "C7", "C8", "N2", "N3", "N5", "N7")
        (cert,) = find_even_four_certificate([start], families, xprime.m_presentation)
        assert cert is not None
        # the published endpoint is reachable in this coset
        reachable = set(start)
        for fam in (
            rd.XPRIME_RELATION_FAMILIES[0],  # C1+C2+C3+C4 = C7+C8+C9+C10
            rd.XPRIME_RELATION_FAMILIES[2],  # C3+C5 = C4+C6
            rd.LAMBDA1_SUPPORT,
        ):
            reachable ^= {labels[i] for i in fam}
        assert reachable == {"N1", "N4", "N5", "N7"}
        mult = cfg.gram.entries
        ids = sorted(cfg.index(lab) for lab in reachable)
        assert all(mult[i][j] == 0 for k, i in enumerate(ids) for j in ids[k + 1:])

    def test_even_eight_has_no_certificate(self, xprime):
        import evenlat.refdata as rd

        cfg = xprime.config
        labels = cfg.labels
        families = [tuple(labels[i] for i in fam) for fam in rd.XPRIME_RELATION_FAMILIES]
        nset = tuple(labels[i] for i in rd.N_SUPPORT)
        assert find_even_four_certificate([nset], families, xprime.m_presentation) == (None,)

    def test_bad_relation_rejected(self, xprime):
        with pytest.raises(ValueError):
            find_even_four_certificate(
                [("C1", "C2", "C7", "C8")], [("C1", "C2")], xprime.m_presentation
            )

    def test_bad_relation_rejected_without_halfsets(self, xprime):
        with pytest.raises(ValueError, match="relation half-sum not in the lattice"):
            find_even_four_certificate([], [("C1", "C2")], xprime.m_presentation)

    def test_each_relation_checked_once_per_search(self, xprime, monkeypatch):
        import evenlat.refdata as rd
        from evenlat import curves

        labels = xprime.config.labels
        families = [[labels[i] for i in fam] for fam in rd.XPRIME_RELATION_FAMILIES]
        starts = [[labels[i] for i in halfset] for halfset in rd.ISOTROPIC_AM_HALFSETS]
        row_sum, replay = CurvePresentation.row_sum, curves._replay_check
        sums, replays = [], []

        def counted_sum(pres, indices):
            sums.append(sorted(indices))
            return row_sum(pres, indices)

        def counted_replay(cert, pres):
            replays.append(cert)
            return replay(cert, pres)

        monkeypatch.setattr(CurvePresentation, "row_sum", counted_sum)
        monkeypatch.setattr(curves, "_replay_check", counted_replay)
        certs = find_even_four_certificate(starts, families, xprime.m_presentation)
        assert None not in certs
        # the 8 relation checks come first; then each certificate is
        # replayed once, from the row sums of its start and final sets
        assert sums[:8] == [sorted(fam) for fam in rd.XPRIME_RELATION_FAMILIES]
        assert replays == list(certs)
        assert len(sums) == 8 + 2 * 31

    def test_replay_rejects_a_forged_certificate(self, xprime):
        # a final set whose half-sum differs from the start's by half of
        # two curves, outside the lattice by the Fraction rule of contains
        from evenlat.curves import _replay_check

        pres = xprime.m_presentation
        cfg = xprime.config
        (cert,) = find_even_four_certificate([("C1", "C2", "C7", "C8")], [], pres)
        assert cert.final == ("C1", "C2", "C7", "C8")

        def half_difference(lab):
            diff = [F(0)] * cfg.size
            diff[cfg.index("C8")] = F(1, 2)
            diff[cfg.index(lab)] = F(-1, 2)
            return diff

        lab = next(
            lab for lab in cfg.labels
            if lab not in cert.final and not pres.contains(half_difference(lab))
        )
        forged = dataclasses.replace(cert, final=cert.final[:3] + (lab,))
        with pytest.raises(AssertionError, match="replay failed"):
            _replay_check(forged, pres)
        _replay_check(cert, pres)

    def test_repeated_label_rejected(self, xprime):
        # ("C1", "C1", "C2", "C7", "C8") is C1 + (C2 + C7 + C8) / 2, not the
        # half-sum of (C1, C2, C7, C8) that a set of labels would make of it
        import evenlat.refdata as rd

        cfg = xprime.config
        pres = xprime.m_presentation
        with pytest.raises(ValueError, match="repeated curve in halfset"):
            find_even_four_certificate([("C1", "C1", "C2", "C7", "C8")], [], pres)
        family = [cfg.labels[i] for i in rd.XPRIME_RELATION_FAMILIES[0]]
        with pytest.raises(ValueError, match="repeated curve in relation"):
            find_even_four_certificate(
                [("C1", "C2", "C7", "C8")], [family + family[:1]], pres
            )

    @pytest.mark.parametrize("method", ["contains", "coords"])
    @pytest.mark.parametrize("vec", [[0] * 20 + [F(1, 2)], [1]])
    def test_wrong_length_rejected(self, xprime, method, vec):
        with pytest.raises(ValueError, match="length"):
            getattr(xprime.m_presentation, method)(vec)

    @pytest.mark.parametrize("method", ["contains", "coords"])
    @pytest.mark.parametrize("bad", [0.5, "1", True])
    def test_non_rational_entry_rejected(self, xprime, method, bad):
        with pytest.raises(TypeError, match="int or Fraction"):
            getattr(xprime.m_presentation, method)([bad] + [0] * 19)

    def test_replay_is_exact(self, xprime):
        import evenlat.refdata as rd

        cfg = xprime.config
        labels = cfg.labels
        families = [tuple(labels[i] for i in fam) for fam in rd.XPRIME_RELATION_FAMILIES]
        pres = xprime.m_presentation
        starts = [tuple(labels[i] for i in halfset) for halfset in rd.ISOTROPIC_AM_HALFSETS[:6]]
        for cert in find_even_four_certificate(starts, families, pres):
            assert cert is not None
            diff = [F(0)] * cfg.size
            for lab in cert.start:
                diff[cfg.index(lab)] += F(1, 2)
            for lab in cert.final:
                diff[cfg.index(lab)] -= F(1, 2)
            assert pres.contains(diff)


def random_presentation(rng, scale=1):
    n = rng.randint(2, 7)
    g = [[-2 * scale if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = scale * rng.choice((0, 0, 1, 2))
    labels = tuple(f"c{i}" for i in range(n))
    return present(CurveConfig(labels, IntMat.from_rows(g)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(0, 10**6),
    st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=24), min_size=7, max_size=7),
)
def test_coords_match_fraction_rule(seed, entries):
    # the entry-by-entry rule coords replaced: sum_i vec_i * member[i][j]
    pres = random_presentation(random.Random(seed))
    vec = entries[: pres.member.rows]
    want = tuple(
        sum(vec[i] * pres.member.entries[i][j] for i in range(len(vec)))
        for j in range(pres.member.cols)
    )
    got = pres.coords(vec)
    assert got == want
    assert all(type(c) is Fraction for c in got)


def _lift(pres, coords):
    """A rational curve combination whose plain-span coordinates are coords."""
    particular, _ = oracle.solve(tuple(zip(*pres.member.entries)), coords)
    return particular


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.integers(0, 10**6),
    st.lists(st.sampled_from((2, 3, 4, 6)), max_size=3),
    st.booleans(),
)
def test_contains_matches_inverted_basis(seed, dens, scaled):
    # the rule rebase replaced: on a basis B of curve combinations, the
    # coordinates of v are proj(v) * proj(B)^-1, proj the plain span's
    # coordinates.  proj(B) is the Z-basis of Z^r and some projected
    # fractional vectors, moved by a few unimodular row steps; B is its
    # lift to the curves.  A Gram scaled by 144 = 12^2 keeps every such
    # overlattice integral
    rng = random.Random(seed)
    pres = random_presentation(rng, 144 if scaled else 1)
    n, r = pres.member.rows, pres.member.cols
    extra = [tuple(F(rng.randint(0, k - 1), k) for _ in range(n)) for k in dens]
    basis = [list(row) for row in oracle.span_basis([pres.coords(v) for v in extra], r)]
    for _ in range(3):
        i, j = rng.sample(range(r), 2) if r > 1 else (0, 0)
        if i != j:
            c = rng.randint(-2, 2)
            basis[i] = [a + c * b for a, b in zip(basis[i], basis[j])]
    gram = oracle.matmul(oracle.matmul(basis, pres.lattice.gram.entries), tuple(zip(*basis)))
    lifted = [_lift(pres, b) for b in basis]
    if any(e.denominator != 1 for row in gram for e in row):
        with pytest.raises(ValueError, match="Gram is not integral"):
            pres.rebase(lifted)
        return
    over = pres.rebase(lifted)
    assert over.lattice.gram.entries == gram
    basis_inv = oracle.inverse(basis)
    for _ in range(10):
        vec = [F(rng.randint(-3, 3)) for _ in range(n)]
        for v in extra:
            c = rng.randint(-2, 2)
            vec = [a + c * b for a, b in zip(vec, v)]
        if rng.random() < 0.3:
            vec[rng.randrange(n)] += F(1, rng.randint(2, 6))
        proj = pres.coords(vec)
        (coords,) = oracle.matmul([proj], basis_inv)
        assert over.coords(vec) == coords
        assert over.contains(vec) == all(c.denominator == 1 for c in coords)
        assert pres.contains(vec) == all(c.denominator == 1 for c in proj)


class TestRebase:
    def test_singular_basis_rejected(self):
        pres = present(two_curves(-2, -2, 1))
        with pytest.raises(ValueError, match="singular"):
            pres.rebase([(1, 0), (2, 0)])

    def test_basis_missing_a_curve_rejected(self):
        # a and 2b span an index-2 sublattice of the curve span
        pres = present(two_curves(-2, -2, 1))
        with pytest.raises(ValueError, match="does not span every curve"):
            pres.rebase([(1, 0), (0, 2)])

    def test_vector_of_another_length_rejected(self):
        # the product with member would drop the third entry, and the two
        # rows left are a basis of the plain span
        pres = present(two_curves(-2, -2, 1))
        with pytest.raises(ValueError, match="vector of length 3 over a configuration of 2"):
            pres.rebase([(1, 0, 0), (0, 1)])

    def test_non_integral_gram_rejected(self):
        # (a + b) / 2 has square (-2 + 2 - 2) / 4 = -1/2
        pres = present(two_curves(-2, -2, 1))
        with pytest.raises(ValueError, match="Gram is not integral"):
            pres.rebase([(1, 0), (F(1, 2), F(1, 2))])



def random_degenerate_config(rng):
    """Curves with dependent ones: k base curves with a random Gram, then up
    to four curves that repeat a nonnegative combination of base curves,
    in shuffled order.  A combination that would give two curves a negative
    multiplicity is left out.  The first base curve has a nonzero square:
    a zero Gram presents no lattice."""
    k = rng.randint(1, 6)
    base = [[rng.choice((-2, -1, 0, 1, 2)) if i == j else 0 for j in range(k)] for i in range(k)]
    base[0][0] = rng.choice((-2, -1, 1, 2))
    for i, j in itertools.combinations(range(k), 2):
        base[i][j] = base[j][i] = rng.choice((0, 0, 1, 2))
    combos = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(rng.randint(1, 4)):
        for _ in range(20):
            a = [rng.randint(0, 2) for _ in range(k)]
            trial = combos + [a]
            g = oracle.matmul(oracle.matmul(trial, base), tuple(zip(*trial)))
            if any(a) and all(g[-1][j] >= 0 for j in range(len(combos))):
                combos = trial
                break
    rng.shuffle(combos)
    g = oracle.matmul(oracle.matmul(combos, base), tuple(zip(*combos)))
    labels = tuple(f"c{i}" for i in range(len(combos)))
    return CurveConfig(labels, IntMat.from_rows([[int(e) for e in row] for row in g]))


def assert_presents(config):
    # the plain presentation is onto Z^r, and the curves' Gram pulls back
    # through it: member is the quotient by the saturated radical
    pres = present(config)
    g, member = pres.lattice.gram, pres.member
    assert member * g * member.transpose() == config.gram
    assert g.det() != 0
    assert g.rows == config.size - len(kernel_saturated(config.gram))
    d, _, _ = snf(member)
    assert all(d.entries[i][i] == 1 for i in range(member.cols))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_present_is_the_quotient_by_the_radical(seed):
    assert_presents(random_degenerate_config(random.Random(seed)))


def test_present_on_the_24_curves_and_on_xprime(config24, xprime):
    assert_presents(config24)
    assert_presents(xprime.config)


class TestInputRules:
    @pytest.mark.parametrize("perm", [(5,), (0, 0), (1, 2, 2)])
    def test_involution_must_permute_its_labels(self, perm):
        with pytest.raises(ValueError, match="not a permutation"):
            InvolutionAction(perm)

    @pytest.mark.parametrize("halfsets, relations", [
        ([["h1", "zz", "h3", "h5"]], []), ([["zz"]], []), ([], [["h1", "zz"]]),
    ])
    def test_unknown_curve(self, halfsets, relations):
        with pytest.raises(ValueError, match="unknown curve"):
            find_even_four_certificate(halfsets, relations, present(hexagon_config()))

    def test_quotient_needs_an_isometry(self):
        # a.c = 1 but b.d = 0; the projection formula alone would still give
        # a symmetric quotient Gram
        gram = [[-2, 0, 1, 0], [0, -2, 0, 0], [1, 0, -2, 0], [0, 0, 0, -2]]
        config = CurveConfig(("a", "b", "c", "d"), IntMat.from_rows(gram))
        with pytest.raises(ValueError, match="not an isometry"):
            quotient_by_involution(config, InvolutionAction((1, 0, 3, 2)))

    def test_present_rejects_a_zero_intersection_matrix(self):
        config = CurveConfig(("a", "b"), IntMat.from_rows([[0, 0], [0, 0]]))
        with pytest.raises(ValueError, match="span the zero lattice"):
            present(config)
