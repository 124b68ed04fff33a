import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import linalg_oracle as oracle
from evenlat.curves import (
    CoverStep,
    CurveConfig,
    FixedPointData,
    InvolutionAction,
    double_cover_pullback,
    find_even_four_certificate,
    hexagon_config,
    present,
    quotient_by_involution,
    triple_double_tower,
)
from evenlat.exactlinalg import IntMat
from evenlat.lattice import discriminant_group, rational_span_basis

F = Fraction


def single_curve(self_int=-1, label="c"):
    return CurveConfig((label,), (self_int,), IntMat.from_rows([[0]]))


def two_curves(s1, s2, m):
    return CurveConfig(("a", "b"), (s1, s2), IntMat.from_rows([[0, m], [m, 0]]))


class TestConfig:
    def test_hexagon_gram(self):
        g = hexagon_config().gram()
        assert all(g.entries[i][i] == -1 for i in range(6))
        for i in range(6):
            for j in range(6):
                if i != j:
                    expected = 1 if (i - j) % 6 in (1, 5) else 0
                    assert g.entries[i][j] == expected

    def test_single_curve_gram(self):
        assert single_curve(-2).gram().entries == ((-2,),)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            CurveConfig(("a", "b"), (-1, -1), IntMat.from_rows([[0, 1], [0, 0]]))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            CurveConfig(("a", "a"), (-1, -1), IntMat.from_rows([[0, 0], [0, 0]]))


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
        assert out.config.self_int == (-2,)

    def test_unbranched_curve_splits(self):
        cfg = single_curve(-2)
        step = CoverStep(frozenset({"l0"}), {}, {})
        out = double_cover_pullback(cfg, step).unique()
        assert out.config.labels == ("ca", "cb")
        assert out.config.self_int == (-2, -2)
        assert out.config.mult.entries == ((0, 0), (0, 0))

    def test_split_split_intersection_distributes(self):
        cfg = two_curves(-1, -1, 1)
        step = CoverStep(frozenset({"l0"}), {}, {frozenset(("a", "b")): ("p",)})
        out = double_cover_pullback(cfg, step).unique()
        c = out.config
        total = sum(
            c.mult.entries[i][j] for i in range(4) for j in range(i + 1, 4)
        )
        assert total == 2  # projection formula: 2 * (a.b)
        # sheets match: aa meets ba, ab meets bb
        i = {lab: k for k, lab in enumerate(c.labels)}
        assert c.mult.entries[i["aa"]][i["ba"]] == 1
        assert c.mult.entries[i["ab"]][i["bb"]] == 1

    def test_ramified_meets_both_copies(self):
        cfg = two_curves(-1, -1, 1)
        step = CoverStep(
            frozenset({"l0"}), {"a": ("x", "y")}, {frozenset(("a", "b")): ("p",)}
        )
        out = double_cover_pullback(cfg, step).unique()
        c = out.config
        i = {lab: k for k, lab in enumerate(c.labels)}
        assert c.self_int[i["a"]] == -2
        assert c.mult.entries[i["a"]][i["ba"]] == 1
        assert c.mult.entries[i["a"]][i["bb"]] == 1

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
        mult = [[0] * 4 for _ in range(4)]
        for i, j in ((0, 1), (1, 2), (2, 3), (3, 0)):
            mult[i][j] = mult[j][i] = 1
        cfg = CurveConfig(labels, (-2,) * 4, IntMat.from_rows(mult))
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

    def test_projection_formula_total_degree(self):
        tower = triple_double_tower()
        base = hexagon_config()
        for stage, cfg_before in ((tower.stage1, base), (tower.stage2, tower.stage1.config)):
            c = stage.config
            for la in cfg_before.labels:
                for lb in cfg_before.labels:
                    if la >= lb:
                        continue
                    before = cfg_before.mult.entries[cfg_before.index(la)][cfg_before.index(lb)]
                    after = sum(
                        c.mult.entries[c.index(x)][c.index(y)]
                        for x in stage.label_map[la]
                        for y in stage.label_map[lb]
                    )
                    assert after == 2 * before
                # self-intersection bookkeeping: (pullback)^2 = 2 C^2
                pieces = stage.label_map[la]
                square = sum(
                    c.gram().entries[c.index(x)][c.index(y)]
                    for x in pieces
                    for y in pieces
                )
                assert square == 2 * cfg_before.gram().entries[
                    cfg_before.index(la)
                ][cfg_before.index(la)]


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
            assert set(opt.config.self_int) == {-2}
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
            quotient_by_involution(cfg, InvolutionAction((0, 1)), FixedPointData(8))

    def test_fixed_points_on_curves_rejected(self):
        cfg = two_curves(-2, -2, 0)
        with pytest.raises(ValueError):
            quotient_by_involution(
                cfg,
                InvolutionAction((1, 0)),
                FixedPointData(8, frozenset({"a"})),
            )

    def test_swap_two_spheres(self):
        cfg = two_curves(-2, -2, 0)
        quot = quotient_by_involution(cfg, InvolutionAction((1, 0)), FixedPointData(8))
        assert quot.config.size == 1
        assert quot.config.self_int == (-2,)

    def test_projection_formula(self, config24):
        from evenlat.refdata import IOTA_011

        act = InvolutionAction(IOTA_011)
        quot = quotient_by_involution(config24, act, FixedPointData(8))
        g24 = config24.gram().entries
        gq = quot.config.gram().entries
        orbits = [tuple(config24.index(lab) for lab in quot.orbit_map[c])
                  for c in quot.config.labels]
        for a, (i, ip) in enumerate(orbits):
            for b, (j, jp) in enumerate(orbits):
                total = g24[i][j] + g24[i][jp] + g24[ip][j] + g24[ip][jp]
                assert 2 * gq[a][b] == total


class TestCertificates:
    def test_immediate_weight_four(self, xprime):
        cfg = xprime.config
        cert = find_even_four_certificate(
            ("C1", "C2", "C7", "C8"), [], cfg, xprime.m_presentation
        )
        assert cert is not None
        assert cert.steps == ()
        assert cert.final == ("C1", "C2", "C7", "C8")

    def test_reduction_example(self, xprime):
        import evenlat.refdata as rd

        cfg = xprime.config
        labels = cfg.labels
        families = [tuple(labels[i] for i in fam) for fam in rd.XPRIME_RELATION_FAMILIES]
        start = ("C1", "C2", "C7", "C8", "N2", "N3", "N5", "N7")
        cert = find_even_four_certificate(start, families, cfg, xprime.m_presentation)
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
        mult = cfg.mult.entries
        ids = sorted(cfg.index(lab) for lab in reachable)
        assert all(mult[i][j] == 0 for k, i in enumerate(ids) for j in ids[k + 1:])

    def test_even_eight_has_no_certificate(self, xprime):
        import evenlat.refdata as rd

        cfg = xprime.config
        labels = cfg.labels
        families = [tuple(labels[i] for i in fam) for fam in rd.XPRIME_RELATION_FAMILIES]
        nset = tuple(labels[i] for i in rd.N_SUPPORT)
        assert find_even_four_certificate(nset, families, cfg, xprime.m_presentation) is None

    def test_bad_relation_rejected(self, xprime):
        cfg = xprime.config
        with pytest.raises(ValueError):
            find_even_four_certificate(
                ("C1", "C2", "C7", "C8"), [("C1", "C2")], cfg, xprime.m_presentation
            )

    def test_replay_is_exact(self, xprime):
        import evenlat.refdata as rd

        cfg = xprime.config
        labels = cfg.labels
        families = [tuple(labels[i] for i in fam) for fam in rd.XPRIME_RELATION_FAMILIES]
        pres = xprime.m_presentation
        for halfset in rd.ISOTROPIC_AM_HALFSETS[:6]:
            start = tuple(labels[i] for i in halfset)
            cert = find_even_four_certificate(start, families, cfg, pres)
            assert cert is not None
            diff = [F(0)] * cfg.size
            for lab in cert.start:
                diff[cfg.index(lab)] += F(1, 2)
            for lab in cert.final:
                diff[cfg.index(lab)] -= F(1, 2)
            assert pres.contains(diff)


def random_presentation(rng):
    n = rng.randint(2, 7)
    g = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = rng.choice((0, 0, 1, 2))
    labels = tuple(f"c{i}" for i in range(n))
    return present(CurveConfig.from_gram(labels, IntMat.from_rows(g)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(0, 10**6),
    st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=24), min_size=7, max_size=7),
)
def test_project_matches_fraction_rule(seed, entries):
    # the entry-by-entry rule project replaced: sum_i vec_i * proj[i][j]
    pres = random_presentation(random.Random(seed))
    vec = entries[: pres.proj.rows]
    want = tuple(
        sum(vec[i] * pres.proj.entries[i][j] for i in range(len(vec)))
        for j in range(pres.proj.cols)
    )
    got = pres.project(vec)
    assert got == want
    assert all(type(c) is Fraction for c in got)


def test_contains_matches_inverted_basis():
    # the rule contains replaced: proj * B^-1 integral, B the Z-basis of
    # the overlattice spanned by Z^r and the projected adjoined vectors
    rng = random.Random(4711)
    for _ in range(40):
        pres = random_presentation(rng)
        n = pres.proj.rows
        extra = [
            tuple(F(rng.randint(0, k - 1), k) for _ in range(n))
            for k in rng.choices((2, 3, 4), k=rng.randint(1, 2))
        ]
        over = pres.adjoin(extra)
        r = pres.proj.cols
        rows = [tuple(F(int(i == j)) for j in range(r)) for i in range(r)]
        rows += [pres.project(v) for v in extra]
        basis_inv = oracle.inverse(rational_span_basis(rows))
        for _ in range(10):
            vec = [F(rng.randint(-3, 3)) for _ in range(n)]
            for v in extra:
                c = rng.randint(-2, 2)
                vec = [a + c * b for a, b in zip(vec, v)]
            if rng.random() < 0.3:
                vec[rng.randrange(n)] += F(1, rng.randint(2, 6))
            proj = pres.project(vec)
            coords = [sum(proj[i] * basis_inv[i][j] for i in range(r)) for j in range(r)]
            assert over.contains(vec) == all(c.denominator == 1 for c in coords)
            assert pres.contains(vec) == all(c.denominator == 1 for c in proj)
