import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import discform_oracle
import evenlat.discform as df
import linalg_oracle as oracle
from evenlat.exactlinalg import IntMat, snf_rational
from evenlat.lattice import Lattice, make_named, parse_lattice_expr
from test_exactlinalg import random_unimodular

F = Fraction

Q_GRAM = IntMat.from_rows(
    [
        [-2, 0, 1, 0, 2, -1],
        [0, -6, -1, -4, 4, -5],
        [1, -1, -8, 6, 2, 0],
        [0, -4, 6, -16, 4, -2],
        [2, 4, 2, 4, -8, 6],
        [-1, -5, 0, -2, 6, -12],
    ]
)

# M_Z2_3 under a signed permutation and 42 row additions drawn from
# random.Random(8), as the benchmark scrambles its inputs
SCRAMBLED_M_Z2_3 = (
    (-20, -16, -11, 13, -15, -5, -14, 5, 22, 1, 6, 1, -5, 4),
    (-16, -14, -9, 16, -14, -4, -12, 3, 22, 3, 4, 2, -5, 4),
    (-11, -9, -18, 13, 3, -2, -10, 6, 12, -2, 3, -17, 8, -8),
    (13, 16, 13, -126, 41, -2, 10, 11, -110, -45, 2, 0, 19, -23),
    (-15, -14, 3, 41, -42, -11, -10, -9, 52, 23, 2, 27, -21, 21),
    (-5, -4, -2, -2, -11, -16, -5, -6, 11, 7, -1, 9, -1, 0),
    (-14, -12, -10, 10, -10, -5, -12, 3, 16, 1, 4, -2, -2, 1),
    (5, 3, 6, 11, -9, -6, 3, -10, 13, 13, -4, 10, -5, 5),
    (22, 22, 12, -110, 52, 11, 16, 13, -112, -45, 0, -12, 24, -25),
    (1, 3, -2, -45, 23, 7, 1, 13, -45, -26, 4, -12, 11, -12),
    (6, 4, 3, 2, 2, -1, 4, -4, 0, 4, -4, 2, 1, -1),
    (1, 2, -17, 0, 27, 9, -2, 10, -12, -12, 2, -36, 17, -16),
    (-5, -5, 8, 19, -21, -1, -2, -5, 24, 11, 1, 17, -16, 15),
    (4, 4, -8, -23, 21, 0, 1, 5, -25, -12, -1, -16, 15, -16),
)


@pytest.fixture(scope="module")
def a_q():
    return df.from_lattice(Lattice(Q_GRAM, "Q"))


def printed_generator_classes(module):
    lat = module.source
    printed = {
        "v1": (F(1, 2), F(-1, 2), 0, 0, F(1, 2), 0),
        "v2": (F(-1, 2), F(1, 2), 0, 0, 0, 0),
        "w1": (F(1, 2), 0, 0, F(-1, 4), 0, 0),
        "w2": (0, 0, F(1, 4), F(-1, 4), F(-1, 4), F(-1, 4)),
    }
    return {k: df.class_of(module, lat.dual_vector(v)) for k, v in printed.items()}


def random_even_lattice(rng, max_rank=4, max_entry=3):
    while True:
        n = rng.randint(1, max_rank)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-max_entry, max_entry)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-max_entry, max_entry)
        m = IntMat.from_rows(g)
        if m.det() != 0:
            return Lattice(m)


GLUE_BLOCKS = ("U(2)", "U(3)", "U(4)", "<4>", "<-4>", "<-8>", "<12>", "A1", "<2>", "<6>")


def random_small_module(rng, max_order=256):
    """A scrambled even lattice with a discriminant form of order <= max_order.

    Mostly sums of small glue blocks, whose forms have many isotropic
    subgroups; otherwise a random even lattice, possibly rescaled by 2.
    """
    while True:
        if rng.random() < 0.25:
            lat = random_even_lattice(rng)
            lat = Lattice(lat.gram.scale(rng.choice((1, 2))))
        else:
            lat = parse_lattice_expr("+".join(rng.choices(GLUE_BLOCKS, k=rng.randint(1, 3))))
        if abs(lat.det) > max_order:
            continue
        u = random_unimodular(rng, lat.rank, steps=2 * lat.rank)
        lat = Lattice(u * lat.gram * u.transpose())
        return lat, df.from_lattice(lat)


class TestFromLattice:
    def test_a_q_orders(self, a_q):
        assert a_q.orders == (2, 2, 4, 4)
        assert a_q.order == 64

    def test_minus_four(self):
        m = df.from_lattice(make_named("<-4>"))
        assert m.orders == (4,)
        assert m.q_diag == (F(7, 4),)  # -1/4 mod 2Z

    def test_unimodular_trivial(self):
        m = df.from_lattice(make_named("U"))
        assert m.orders == ()
        assert list(m.elements()) == [()]
        assert df.isotropic_elements(m) == []

    def test_odd_lattice_rejected(self):
        with pytest.raises(ValueError):
            df.from_lattice(Lattice(IntMat.diagonal([1, -3])))


class TestValues:
    def test_isotropic_value_of_2w1(self, a_q):
        cls = printed_generator_classes(a_q)
        assert df.q_value(a_q, a_q.smul(2, cls["w1"])) == 0

    def test_v1_value(self, a_q):
        cls = printed_generator_classes(a_q)
        assert df.q_value(a_q, cls["v1"]) == 1  # -5 mod 2Z

    def test_zero(self, a_q):
        assert df.q_value(a_q, a_q.zero()) == 0
        assert df.b_value(a_q, a_q.zero(), (1, 1, 1, 1)) == 0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_q_b_compatibility_random_modules(self, seed):
        rng = random.Random(seed)
        lat = random_even_lattice(rng)
        module = df.from_lattice(lat)
        if module.order == 1:
            return
        elems = list(module.elements())
        x = elems[rng.randrange(len(elems))]
        y = elems[rng.randrange(len(elems))]
        lhs = (df.q_value(module, module.add(x, y)) - df.q_value(module, x)
               - df.q_value(module, y)) % 2
        assert lhs == (2 * df.b_value(module, x, y)) % 2

    def test_square_scaling(self, a_q):
        cls = printed_generator_classes(a_q)
        w1 = cls["w1"]
        for n in range(5):
            lhs = df.q_value(a_q, a_q.smul(n, w1))
            rhs = (n * n * df.q_value(a_q, w1)) % 2
            assert lhs == rhs


class TestIsotropic:
    def test_a_q_has_seven(self, a_q):
        iso = df.isotropic_elements(a_q)
        assert len(iso) == 7
        cls = printed_generator_classes(a_q)

        def combo(a, b, c, d):
            out = a_q.zero()
            for e, g in zip((a, b, c, d), (cls["v1"], cls["v2"], cls["w1"], cls["w2"])):
                out = a_q.add(out, a_q.smul(e, g))
            return out

        printed = {
            combo(0, 0, 2, 0), combo(0, 1, 0, 0), combo(0, 1, 2, 0),
            combo(1, 0, 0, 2), combo(1, 0, 2, 2), combo(1, 1, 0, 0),
            combo(1, 1, 2, 0),
        }
        assert printed == set(iso)

    def test_closed_under_negation(self, a_q):
        iso = set(df.isotropic_elements(a_q))
        assert {a_q.neg(x) for x in iso} == iso

    def test_deterministic_order(self, a_q):
        assert df.isotropic_elements(a_q) == sorted(df.isotropic_elements(a_q))


class TestSubgroups:
    def test_hyperbolic_rank_two(self):
        lat = parse_lattice_expr("diag(2)+diag(-2)")
        subs = df.isotropic_subgroups(df.from_lattice(lat))
        assert [s.order for s in subs] == [1, 2]

    def test_trivial_module(self):
        subs = df.isotropic_subgroups(df.from_lattice(make_named("U")))
        assert len(subs) == 1 and subs[0].order == 1

    # U(2)^4 has the quadratic form of O+(8, 2): the totally singular
    # subspaces of dimension m number prod_{i<m} (2^(4-i) - 1)(2^(3-i) + 1)
    # / (2^(i+1) - 1).  diag(-2)^8 has q(x) = -|x|/2: the counts are those
    # of today's enumeration, equal to the respanning one it replaced.
    @pytest.mark.parametrize(
        "expr, counts",
        [
            ("+".join(["U(2)"] * 4), {1: 1, 2: 135, 4: 1575, 8: 2025, 16: 270}),
            ("+".join(["diag(-2)"] * 8), {1: 1, 2: 71, 4: 455, 8: 345, 16: 30}),
        ],
    )
    def test_closed_counts(self, expr, counts):
        subs = df.isotropic_subgroups(df.from_lattice(parse_lattice_expr(expr)))
        by_order = {}
        for sub in subs:
            by_order[sub.order] = by_order.get(sub.order, 0) + 1
        assert by_order == counts
        assert len(subs) == sum(counts.values())

    def test_a_q_census(self, a_q):
        subs = df.isotropic_subgroups(a_q)
        assert [s.order for s in subs] == [1, 2, 2, 2, 2, 2, 2, 2, 4, 4, 4]
        for sub in subs:
            for x in sub.elements:
                assert df.q_value(a_q, x) == 0
            for x in sub.elements:
                for y in sub.elements:
                    assert df.b_value(a_q, x, y) == 0


class TestOverlattice:
    def test_glue_to_hyperbolic_plane(self):
        lat = parse_lattice_expr("diag(2)+diag(-2)")
        module = df.from_lattice(lat)
        sub = [s for s in df.isotropic_subgroups(module) if s.order == 2][0]
        over = df.overlattice(lat, sub)
        assert over.gram.entries == ((0, -1), (-1, -2))
        assert over.det == -1 and over.is_even and over.signature == (1, 1, 0)

    def test_nikulin_from_eight_spheres(self):
        base = parse_lattice_expr("+".join(["diag(-2)"] * 8))
        module = df.from_lattice(base)
        all_half = (1,) * 8
        assert df.q_value(module, all_half) == 0
        target = None
        for sub in df.isotropic_subgroups(module):
            if sub.elements == frozenset({module.zero(), all_half}):
                target = sub
        assert target is not None
        over = df.overlattice(base, target)
        assert over.gram.entries == make_named("Nikulin").gram.entries

    def test_trivial_subgroup(self, a_q):
        lat = Lattice(Q_GRAM, "Q")
        trivial = [s for s in df.isotropic_subgroups(a_q) if s.order == 1][0]
        over = df.overlattice(lat, trivial)
        assert over.gram.entries == Q_GRAM.entries

    def test_determinant_and_index(self):
        # the determinant drops by the square of the glue order, which pins
        # the inclusion index exactly
        rng = random.Random(777)
        checked = 0
        while checked < 60:
            lat = random_even_lattice(rng, max_rank=4)
            module = df.from_lattice(lat)
            if module.order > 256:
                continue
            for sub in df.isotropic_subgroups(module):
                over = df.overlattice(lat, sub)
                assert abs(over.det) * sub.order**2 == abs(lat.det)
            checked += 1


class TestAgainstFractionOracle:
    """The integer tables and coset growth against the Fraction definitions."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_q_and_b_values(self, seed):
        rng = random.Random(seed)
        _, module = random_small_module(rng)
        elems = list(module.elements())
        gens = [tuple(int(i == j) for j in range(module.ngens)) for i in range(module.ngens)]
        for x in elems:
            assert df.q_value(module, x) == discform_oracle.q_value(module, x)
            for y in gens + [rng.choice(elems)]:
                assert df.b_value(module, x, y) == discform_oracle.b_value(module, x, y)
        x = [rng.randint(-50, 50) for _ in range(module.ngens)]
        y = [rng.randint(-50, 50) for _ in range(module.ngens)]
        assert df.q_value(module, x) == discform_oracle.q_value(module, x)
        assert df.b_value(module, x, y) == discform_oracle.b_value(module, x, y)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_subgroups_and_overlattices(self, seed):
        # order <= 128: the respanning oracle needs 25 s for some forms of
        # order 256, such as (Z/2)^4 + (Z/4)^2 with its 502 subgroups
        rng = random.Random(seed)
        lat, module = random_small_module(rng, max_order=128)
        subs = df.isotropic_subgroups(module)
        want = discform_oracle.isotropic_subgroups(module)
        assert [(s.order, s.gens, s.elements) for s in subs] == [
            (s.order, s.gens, s.elements) for s in want
        ]
        for sub in subs:
            assert df.overlattice(lat, sub).gram.entries == discform_oracle.overlattice_gram(
                lat, sub
            )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_span(self, seed):
        rng = random.Random(seed)
        _, module = random_small_module(rng)
        elems = list(module.elements())
        gens = [rng.choice(elems) for _ in range(rng.randint(0, 3))]
        assert df._span(module, gens) == discform_oracle.span(module, gens)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_isomorphism_witness(self, seed):
        # the pruned search returns the first witness of the unpruned one
        rng = random.Random(seed)
        lat, module = random_small_module(rng, max_order=64)
        u = random_unimodular(rng, lat.rank, steps=3 * lat.rank)
        other = df.from_lattice(Lattice(u * lat.gram * u.transpose()))
        for m1, m2 in ((other, module), (module, df.negate(module))):
            assert df.are_isomorphic(m1, m2) == discform_oracle.are_isomorphic(m1, m2)


class TestIsomorphism:
    def test_u2_vs_split_plane(self):
        m1 = df.from_lattice(make_named("U(2)"))
        m2 = df.from_lattice(parse_lattice_expr("diag(2)+diag(-2)"))
        assert df.are_isomorphic(m1, m2) is None

    def test_a_q_matches_abstract_block_form(self, a_q):
        # the finite form presented by the published 4x4 block matrix:
        # hyperbolic 1/2-block on two order-2 generators plus 1/4, 1/4
        half, quarter = F(1, 2), F(1, 4)
        b = [
            (F(0), half, F(0), F(0)),
            (half, F(0), F(0), F(0)),
            (F(0), F(0), quarter, F(0)),
            (F(0), F(0), F(0), quarter),
        ]
        block = df.FiniteQuadraticModule(
            (2, 2, 4, 4), (F(0), F(0), quarter, quarter), tuple(b)
        )
        assert df.are_isomorphic(a_q, block) is not None

    def test_t_x_matches_minus_ns(self, a_q):
        cand = df.from_lattice(parse_lattice_expr("U+U(2)+diag(-4,-4)"))
        witness = df.are_isomorphic(cand, df.negate(a_q))
        assert witness is not None
        neg = df.negate(a_q)
        k = cand.ngens
        gens = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        for i in range(k):
            assert df.q_value(cand, gens[i]) == df.q_value(neg, witness[i])
            for j in range(k):
                assert df.b_value(cand, gens[i], gens[j]) == df.b_value(
                    neg, witness[i], witness[j]
                )

    def test_generator_orders_in_another_sequence(self):
        m1 = df.from_lattice(parse_lattice_expr("U(2)+diag(-4)"))
        m2 = df.direct_sum(
            df.from_lattice(parse_lattice_expr("diag(-4)")),
            df.from_lattice(parse_lattice_expr("U(2)")),
        )
        assert (m1.orders, m2.orders) == ((2, 2, 4), (4, 2, 2))
        witness = df.are_isomorphic(m1, m2)
        assert witness is not None
        # submodule_on checks that the images generate m2 with m1's orders
        image = df.submodule_on(m2, witness, m1.orders)
        assert (image.q_diag, image.b_mat) == (m1.q_diag, m1.b_mat)

    def test_scrambled_presentation_is_pruned(self, monkeypatch):
        # dependent image tuples are cut where they arise, not at the leaf:
        # the search without that pruning made 213,820 b_value calls here
        plain = df.from_lattice(make_named("M_Z2_3"))
        scrambled = df.from_lattice(Lattice(IntMat.from_rows(SCRAMBLED_M_Z2_3)))
        calls = 0
        b_value = df.b_value

        def counted(*args):
            nonlocal calls
            calls += 1
            return b_value(*args)

        monkeypatch.setattr(df, "b_value", counted)
        witness = df.are_isomorphic(scrambled, plain)
        assert calls < 2000
        monkeypatch.undo()
        assert witness is not None
        image = df.submodule_on(plain, witness, scrambled.orders)
        assert (image.q_diag, image.b_mat) == (scrambled.q_diag, scrambled.b_mat)

    def test_self_isomorphic(self, a_q):
        assert df.are_isomorphic(a_q, a_q) is not None

    def test_guard(self, a_q):
        with pytest.raises(df.GuardExceeded):
            df.are_isomorphic(a_q, a_q, guard=32)

    def test_guard_env_override(self, a_q, monkeypatch):
        monkeypatch.setenv("EVENLAT_GUARD_ORDER", "32")
        with pytest.raises(df.GuardExceeded):
            df.are_isomorphic(a_q, a_q)
        monkeypatch.setenv("EVENLAT_GUARD_ORDER", "1024")
        assert df.are_isomorphic(a_q, a_q) is not None


class TestNegateAndSum:
    def test_negate_involution(self, a_q):
        assert df.negate(df.negate(a_q)) == df.FiniteQuadraticModule(
            a_q.orders, a_q.q_diag, a_q.b_mat
        )

    def test_direct_sum_with_trivial(self, a_q):
        trivial = df.from_lattice(make_named("U"))
        s = df.direct_sum(a_q, trivial)
        assert s.orders == a_q.orders and s.q_diag == a_q.q_diag

    def test_direct_sum_block(self):
        m1 = df.from_lattice(make_named("<-4>"))
        m2 = df.from_lattice(make_named("U(2)"))
        s = df.direct_sum(m1, m2)
        assert s.orders == m1.orders + m2.orders
        assert s.b_mat[0][1] == 0 and s.b_mat[0][2] == 0


class TestLatticeBackReference:
    def test_class_of_round_trip(self, a_q):
        for i, d in enumerate(a_q.orders):
            gen = tuple(int(j == i) for j in range(a_q.ngens))
            lift = a_q.lift(gen)
            assert df.class_of(a_q, a_q.source.dual_vector(lift)) == gen

    def test_class_of_matches_inverted_dual_basis(self):
        # the rule class_of replaced: coordinates v * B^-1 in the dual basis
        # B = S * gram^-1, with the non-integral rows of B as generators
        rng = random.Random(2718)
        grams = [Q_GRAM] + [random_even_lattice(rng, max_rank=5).gram for _ in range(40)]
        for gram in grams:
            u = random_unimodular(rng, gram.rows, steps=3 * gram.rows)
            lat = Lattice(u * gram * u.transpose())
            module = df.from_lattice(lat)
            inv = lat.gram.inverse()
            _, s, _ = snf_rational(inv)
            basis = (s.to_rational() * inv).entries
            basis_inv = oracle.inverse(basis)
            gen_rows = [i for i, row in enumerate(basis) if any(c.denominator != 1 for c in row)]
            n = lat.rank
            for _ in range(6):
                c = [rng.randint(-5, 5) for _ in range(n)]
                v = [sum(ci * row[j] for ci, row in zip(c, basis)) for j in range(n)]
                if rng.random() < 0.3:
                    v[rng.randrange(n)] += F(1, rng.randint(2, 5))
                coords = [sum(v[i] * basis_inv[i][j] for i in range(n)) for j in range(n)]
                if all(x.denominator == 1 for x in coords):
                    want = module.reduce([int(coords[i]) for i in gen_rows])
                    assert df.class_of(module, lat.dual_vector(v)) == want
                else:
                    with pytest.raises(ValueError):
                        df.class_of(module, lat.dual_vector(v))

    def test_from_lattice_invariant_under_generator_choice(self, a_q):
        # presenting the same module on the printed generators gives an
        # isomorphic quadratic module
        cls = printed_generator_classes(a_q)
        other = df.submodule_on(
            a_q, [cls["v1"], cls["v2"], cls["w1"], cls["w2"]], (2, 2, 4, 4)
        )
        assert df.are_isomorphic(a_q, other) is not None
