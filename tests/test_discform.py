import cmath
import dataclasses
import functools
import math
import os
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import discform_oracle
import evenlat.discform as df
import linalg_oracle as oracle
from evenlat.exactlinalg import IntMat, snf
from evenlat.lattice import Lattice, direct_sum, make_named, parse_lattice_expr
from evenlat.refdata import M_Z23_PERP_EXPR, T_X_EXPR
from test_exactlinalg import hnf_against_oracle, random_unimodular

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


# the same with random.Random(7): the search takes seconds on it
# scrambled-first and milliseconds plain-first
SEED_7_M_Z2_3 = (
    (-50, -30, 24, 2, -23, -34, -16, -24, 14, 14, -40, 38, 2, -2),
    (-30, -30, 14, 0, -16, -22, -14, -16, 12, 20, -26, 30, 2, 0),
    (24, 14, -52, -4, 8, 7, 26, 7, -26, -15, 34, -35, -2, -1),
    (2, 0, -4, -2, -1, 0, 1, 0, -1, 0, 1, -1, 0, 0),
    (-23, -16, 8, -1, -22, -17, -6, -11, 6, 7, -19, 19, 3, -3),
    (-34, -22, 7, 0, -17, -28, -7, -17, 7, 6, -25, 24, 2, -2),
    (-16, -14, 26, 1, -6, -7, -16, -7, 15, 14, -20, 23, 1, 1),
    (-24, -16, 7, 0, -11, -17, -7, -14, 5, 9, -17, 17, 0, -1),
    (14, 12, -26, -1, 6, 7, 15, 5, -18, -10, 17, -22, -1, 1),
    (14, 20, -15, 0, 7, 6, 14, 9, -10, -24, 16, -21, 0, -2),
    (-40, -26, 34, 1, -19, -25, -20, -17, 17, 16, -44, 39, 3, 1),
    (38, 30, -35, -1, 19, 24, 23, 17, -22, -21, 39, -42, -3, 0),
    (2, 2, -2, 0, 3, 2, 1, 0, -1, 0, 3, -3, -2, 0),
    (-2, 0, -1, 0, -3, -2, 1, -1, 1, -2, 1, 0, 0, -2),
)

# M*q mod 4 and 2b over F2 of the summands of a 2-elementary form of
# level 2: the planes u and v, <1/2> ("+") and <-1/2> ("-")
F2_SUMMANDS = {
    "u": ((0, 0), ((0, 1), (1, 0))),
    "v": ((2, 2), ((0, 1), (1, 0))),
    "+": ((1,), ((1,),)),
    "-": ((3,), ((1,),)),
}


def f2_sum(kinds):
    """The orthogonal sum of the named summands."""
    return functools.reduce(df.direct_sum, (
        df.FiniteQuadraticModule((2,) * len(q), 2, q, b) for q, b in map(F2_SUMMANDS.get, kinds)
    ))


def f2_presentation(rng, module):
    """The module on the rows of a random invertible F2 matrix: the unit
    vectors under 3k row additions, then permuted."""
    k = module.ngens
    rows = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(3 * k if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        rows[i] = [(a + c) % 2 for a, c in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return df.submodule_on(module, rows, module.orders)


def normal_form_signature(module):
    """The signature mod 8 of the normal form: +1 for <1/2>, -1 for <-1/2>,
    4 for v (two entries 2 of the key), 0 for u."""
    key, _ = df._two_elementary_form(module)
    return sum({0: 0, 1: 1, 2: 2, 3: -1}[t] for t in key) % 8


# D4, whose discriminant form is v
D4_GRAM = IntMat.from_rows([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])


def two_elementary_lattice(names):
    """The direct sum of named lattices, D4 among them."""
    return direct_sum(*(Lattice(D4_GRAM, "D4") if n == "D4" else make_named(n) for n in names))


@pytest.fixture(scope="module")
def a_q():
    return df.from_lattice(Lattice(Q_GRAM, "Q"))


def printed_generator_classes(module):
    lat = module.disc.lattice
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


# blocks, with their ranks, of the scrambled sums up to rank 22 that
# class_of is checked on
CLASS_BLOCKS = {"U": 2, "U(2)": 2, "U(3)": 2, "E8": 8, "A1": 1, "<-4>": 1, "<4>": 1,
                "<-8>": 1, "<12>": 1, "<6>": 1}
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


def random_handbuilt_module(rng):
    """A form with no lattice behind it, on one to three cyclic generators.

    b(g_i, g_j) = c / gcd(d_i, d_j) and q(g_i) = b(g_i, g_i) + t with t in
    {0, 1}; for odd d_i, d_i^2 q(g_i) in 2Z forces t = c mod 2.
    """
    orders = tuple(rng.choice((2, 3, 4, 6, 8)) for _ in range(rng.randint(1, 3)))
    k = len(orders)
    b = [[F(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            g = math.gcd(orders[i], orders[j])
            b[i][j] = b[j][i] = F(rng.randrange(g), g)
    q = []
    for i, d in enumerate(orders):
        c = int(b[i][i] * d)
        q.append(b[i][i] + (c % 2 if d % 2 else rng.randint(0, 1)))
    return discform_oracle.module_from_fractions(orders, q, b)


def mixed_orders_module():
    """Z/3 + Z/12 + Z/2 + Z/4, odd and even orders, every pairing allowed
    by the orders nonzero."""
    b = [
        [F(1, 3), F(2, 3), F(0), F(0)],
        [F(2, 3), F(5, 12), F(1, 2), F(3, 4)],
        [F(0), F(1, 2), F(1, 2), F(1, 2)],
        [F(0), F(3, 4), F(1, 2), F(1, 4)],
    ]
    q = [F(4, 3), F(5, 12), F(1, 2), F(5, 4)]
    return discform_oracle.module_from_fractions((3, 12, 2, 4), q, b)


def second_generating_set(rng, module):
    """x_i = u_i g_i + sum_{j<i} c_ij (d_j / gcd(d_i, d_j)) g_j, u_i a unit mod d_i.

    Each term of the sum has an order dividing d_i, so x_i has order d_i,
    and the triangular change with unit diagonal keeps the set generating.
    When the orders ascend by divisibility, the factors d_j / gcd(d_i, d_j)
    are all 1.
    """
    orders = module.orders
    gens = []
    for i, d in enumerate(orders):
        u = rng.choice([a for a in range(1, d) if math.gcd(a, d) == 1])
        gens.append(tuple(
            u if j == i
            else rng.randrange(orders[j]) * (orders[j] // math.gcd(d, orders[j])) % orders[j]
            if j < i else 0
            for j in range(module.ngens)
        ))
    return gens


def fresh_copy(module):
    """An equal module with nothing built on it yet."""
    return dataclasses.replace(module)


def assert_value_table(module):
    """The stored table, its sorted copy and the isotropic scan against the
    Fraction rules, the scan asked twice of the same module."""
    fresh = fresh_copy(module)
    want = tuple(
        (discform_oracle.element_order(fresh, x),
         discform_oracle.q_value(fresh, x) * fresh.level)
        for x in fresh.elements()
    )
    want_iso = discform_oracle.isotropic_elements(fresh)
    assert df.isotropic_elements(module) == want_iso
    assert df.isotropic_elements(module) == want_iso
    assert module.value_table == want
    assert module.fingerprint == tuple(sorted(want))


def assert_isomorphism_witnesses(pairs):
    """Each pair asked twice on the same module objects, against the oracle
    on freshly built equal modules.  The search returns the oracle's first
    witness.  A pair of nondegenerate 2-elementary modules is decided by
    the normal form, whose witness is another one: there the verdict must
    agree, and the images must carry m1's q and b and generate m2."""
    for m1, m2 in pairs:
        want = discform_oracle.are_isomorphic(fresh_copy(m1), fresh_copy(m2))
        if not all(map(discform_oracle.is_two_elementary_nondegenerate, (m1, m2))):
            assert df.are_isomorphic(m1, m2) == want
            assert df.are_isomorphic(m1, m2) == want
            continue
        for _ in range(2):
            witness = df.are_isomorphic(m1, m2)
            assert (witness is None) == (want is None)
            if witness is not None:
                assert_witness_presents(m1, m2, witness)


def assert_witness_presents(m1, m2, witness):
    """submodule_on accepts the images as generators of m2 with m1's
    orders, and they carry m1's q and b."""
    image = df.submodule_on(m2, witness, m1.orders)
    assert (image.q_diag, image.b_mat) == (m1.q_diag, m1.b_mat)


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
        assert m.lift(()) == (0, 0)

    def test_odd_lattice_rejected(self):
        with pytest.raises(ValueError):
            df.from_lattice(Lattice(IntMat.diagonal([1, -3])))


@st.composite
def module_values(draw):
    """(orders, level, q_int, b_int): a valid form, maybe with one datum changed.

    The form is ``random_handbuilt_module`` written over its level, or the
    trivial one; the change scales the level and values (so the level is
    no longer minimal), moves one q or b entry, or replaces one order or
    the level.  Valid and invalid inputs both occur often.
    """
    if draw(st.integers(0, 7)):
        module = random_handbuilt_module(random.Random(draw(st.integers(0, 10**6))))
    else:
        module = df.FiniteQuadraticModule((), 1, (), ())
    orders, level = list(module.orders), module.level
    q, b = list(module.q_int), [list(row) for row in module.b_int]
    k = len(orders)
    change = draw(st.sampled_from(("none", "scale", "q", "b", "order", "level")))
    if change == "scale":
        f = draw(st.integers(2, 3))
        level, q, b = f * level, [f * v for v in q], [[f * v for v in row] for row in b]
    elif change == "q" and k:
        i = draw(st.integers(0, k - 1))
        q[i] += draw(st.integers(-2 * level, 2 * level))
    elif change == "b" and k:
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        b[i][j] += draw(st.integers(-level, level))
    elif change == "order" and k:
        orders[draw(st.integers(0, k - 1))] = draw(st.integers(1, 9))
    elif change == "level":
        level = draw(st.integers(1, 2 * level + 1))
    return tuple(orders), level, tuple(q), tuple(map(tuple, b))


class TestConstructor:
    # one minimal module per check, each passing the checks before it
    @pytest.mark.parametrize(
        "orders, level, q_int, b_int, message",
        [
            pytest.param((1,), 1, (0,), ((0,),), "generator orders must be at least 2", id="order"),
            pytest.param((2,), 1, (0, 0), ((0,),), "inconsistent generator data", id="ragged"),
            pytest.param(
                (2,), 1, (0,), ((0, 0),), "inconsistent generator data", id="ragged_row"
            ),
            pytest.param((2,), 0, (0,), ((0,),), "level must be a positive integer", id="level"),
            pytest.param(
                (2,), 1, (2,), ((0,),), "q values must be reduced into [0, 2)", id="q_reduced"
            ),
            pytest.param(
                (2,), 1, (0,), ((1,),), "b values must be reduced into [0, 1)", id="b_reduced"
            ),
            pytest.param(
                (2, 2), 2, (0, 0), ((0, 1), (0, 0)), "b must be symmetric", id="b_symmetric"
            ),
            pytest.param(
                (2,), 2, (1,), ((0,),), "b(g, g) must equal q(g) mod Z", id="b_diagonal"
            ),
            pytest.param(
                (2,), 4, (1,), ((1,),), "q incompatible with the generator order", id="q_order"
            ),
            pytest.param(
                (2, 2), 4, (0, 0), ((0, 1), (1, 0)), "b incompatible with the generator orders",
                id="b_orders",
            ),
            # q = b = 1/2 written over level 4: are_isomorphic compares levels
            pytest.param(
                (4,), 4, (2,), ((2,),), "level must be the least common denominator of q and b",
                id="level_minimal",
            ),
        ],
    )
    def test_rejects_bad_module(self, orders, level, q_int, b_int, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            df.FiniteQuadraticModule(orders, level, q_int, b_int)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(module_values())
    def test_integer_rules_match_fraction_rules(self, values):
        # the same inputs accepted, and rejected with the same message
        def outcome(build):
            try:
                return build(*values)
            except ValueError as exc:
                return str(exc)

        got = outcome(df.FiniteQuadraticModule)
        want = outcome(discform_oracle.module_from_values)
        assert got == want
        if isinstance(got, df.FiniteQuadraticModule):
            orders, level, q, b = values
            assert got.q_diag == tuple(F(v, level) for v in q)
            assert got.b_mat == tuple(tuple(F(v, level) for v in row) for row in b)

    def test_lift_needs_a_lattice(self):
        with pytest.raises(ValueError, match="no lattice back-reference"):
            df.FiniteQuadraticModule((), 1, (), ()).lift(())


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


# Milgram's formula for a lattice-backed module:
# sum over A_L of exp(pi i q(x)) = sqrt|A_L| * exp(2 pi i sigma / 8), sigma the signature
MILGRAM_LATTICES = (
    "U(2)+A1", T_X_EXPR, "M_Z2_3", M_Z23_PERP_EXPR, "Nikulin", "E8+A1", "U(3)+<-4>",
    "U(2)+<-8>", "<6>", "U(4)+A1+A1",
)


def assert_milgram(module):
    n_plus, n_minus, _ = module.disc.lattice.signature
    # the table holds M*q(x) mod 2M, M the level
    gauss = sum(cmath.exp(1j * math.pi * v / module.level) for _, v in module.value_table)
    want = math.sqrt(module.order) * cmath.exp(2j * math.pi * (n_plus - n_minus) / 8)
    assert abs(gauss - want) < 1e-9


class TestMilgram:
    @pytest.mark.parametrize("expr", MILGRAM_LATTICES)
    def test_named_lattices(self, expr):
        assert_milgram(df.from_lattice(parse_lattice_expr(expr)))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_scrambled_sums(self, seed):
        _, module = random_small_module(random.Random(seed))
        assert_milgram(module)


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

    def test_generators_pairing_nontrivially_rejected(self):
        # on U(2) both generators have q = 0, but b between them is 1/2
        lat = make_named("U(2)")
        module = df.from_lattice(lat)
        gens = ((1, 0), (0, 1))
        assert [df.q_value(module, g) for g in gens] == [0, 0]
        assert df.b_value(module, *gens) == F(1, 2)
        sub = df.IsotropicSubgroup(module, gens, frozenset(module.elements()))
        with pytest.raises(ValueError, match="not isotropic"):
            df.overlattice(lat, sub)

    def test_generator_with_nonzero_q_rejected(self):
        lat = make_named("U(2)")
        module = df.from_lattice(lat)
        assert df.q_value(module, (1, 1)) == 1
        sub = df.IsotropicSubgroup(module, ((1, 1),), frozenset({(0, 0), (1, 1)}))
        with pytest.raises(ValueError, match="not isotropic"):
            df.overlattice(lat, sub)

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
    @example(None)
    def test_subgroups_of_handbuilt_modules(self, seed):
        # no lattice behind the form, orders 2, 3, 4, 6 and 8: the packed
        # fields of 3 and 6 are not filled by powers of two; None is the
        # form on no generators
        rng = random.Random(seed or 0)
        if seed is None:
            module = df.FiniteQuadraticModule((), 1, (), ())
        else:
            module = random_handbuilt_module(rng)
        subs = df.isotropic_subgroups(module)
        want = discform_oracle.isotropic_subgroups(module)
        assert [(s.gens, s.elements) for s in subs] == [(s.gens, s.elements) for s in want]
        for sub in subs[1:]:
            # the same subgroup from a shuffled, redundant generating set
            gens = list(sub.gens) + rng.sample(sorted(sub.elements), min(3, sub.order))
            rng.shuffle(gens)
            assert df._canonical_gens(module, gens) == sub.gens

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_normal_forms_of_scaled_inverse_gram(self, seed):
        # den * G^-1 is the matrix snf_rational hands to snf for from_lattice
        lat, _ = random_small_module(random.Random(seed))
        inv = lat.gram.inverse().entries
        den = math.lcm(*(e.denominator for row in inv for e in row))
        rows = tuple(tuple(int(e * den) for e in row) for row in inv)
        a = IntMat(rows)
        hnf_against_oracle(a)
        assert tuple(m.entries for m in snf(a)) == oracle.snf(rows)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_from_lattice_table(self, seed):
        # one draw in four is unimodular: no lifts and an empty table
        rng = random.Random(seed)
        if rng.random() < 0.25:
            lat = parse_lattice_expr(rng.choice(("U", "E8", "U+E8")))
            u = random_unimodular(rng, lat.rank, steps=2 * lat.rank)
            lat = Lattice(u * lat.gram * u.transpose())
            module = df.from_lattice(lat)
        else:
            lat, module = random_small_module(rng)
        assert all(b % a == 0 for a, b in zip(module.orders, module.orders[1:]))
        g = lat.gram.entries
        disc = module.disc
        assert disc.lattice is lat
        lifts = [tuple(F(a, disc.lift_den) for a in row) for row in disc.lift_num]
        raw = [[oracle.pairing(g, x, y) for y in lifts] for x in lifts]
        assert module.q_diag == tuple(discform_oracle._mod2(row[i]) for i, row in enumerate(raw))
        assert module.b_mat == tuple(tuple(discform_oracle._mod1(e) for e in row) for row in raw)
        values = module.q_diag + tuple(e for row in module.b_mat for e in row)
        assert module.level == math.lcm(*(e.denominator for e in values))
        for x in lifts:
            assert lat.dual_vector(x).in_dual() and oracle.in_dual(g, x)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_genus_predicates(self, seed):
        # 2-elementary blocks (U(2), A1, <2>, diag(-2,-2)) and unimodular
        # ones (U, E8) with a few others, so that None, delta 0 and delta 1
        # all occur and each bound is met and missed
        rng = random.Random(seed)
        blocks = ("U(2)", "A1", "<2>", "diag(-2,-2)", "E8", "U", "U(3)", "<-4>")
        lat = parse_lattice_expr("+".join(rng.choices(blocks, k=rng.randint(1, 4))))
        u = random_unimodular(rng, lat.rank, steps=2 * lat.rank)
        lat = Lattice(u * lat.gram * u.transpose())
        module = df.from_lattice(lat)
        for name in ("nikulin_unique", "two_elem_invariants"):
            assert getattr(df, name)(module) == getattr(discform_oracle, name)(lat), name

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_generation(self, seed):
        # submodule_on accepts exactly the sets whose span is the whole
        # group; a zero element would state the order 1, which no module
        # takes, so the draws are nonzero
        rng = random.Random(seed)
        _, module = random_small_module(rng)
        nonzero = list(module.elements())[1:]
        gens = [rng.choice(nonzero) for _ in range(rng.randint(0, 3) if nonzero else 0)]
        orders = [discform_oracle.element_order(module, g) for g in gens]
        if len(discform_oracle.span(module, gens)) == module.order:
            assert df.submodule_on(module, gens, orders).orders == tuple(orders)
        else:
            with pytest.raises(ValueError, match="do not generate"):
                df.submodule_on(module, gens, orders)

    def test_generation_edge_cases(self):
        # every list of elements generates the trivial group
        trivial = df.FiniteQuadraticModule((), 1, (), ())
        assert df.submodule_on(trivial, [], []).order == 1
        # the form of <4>^10, on (Z/4)^10 of order 2^20: the unit vectors
        # generate, and raising the last one to (0, ..., 0, 2) leaves a
        # subgroup of index 2
        units = tuple(tuple(int(i == j) for j in range(10)) for i in range(10))
        four = df.FiniteQuadraticModule((4,) * 10, 4, (1,) * 10, units)
        assert df.submodule_on(four, units, [4] * 10) == four
        with pytest.raises(ValueError, match="do not generate"):
            df.submodule_on(four, units[:-1] + ((0,) * 9 + (2,),), [4] * 9 + [2])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_isomorphism_witness(self, seed):
        # the pruned integer search returns the first witness of the
        # unpruned Fraction one
        rng = random.Random(seed)
        lat, module = random_small_module(rng, max_order=64)
        u = random_unimodular(rng, lat.rank, steps=3 * lat.rank)
        other = df.from_lattice(Lattice(u * lat.gram * u.transpose()))
        # the same form presented on another generating set: same level
        represented = df.submodule_on(module, second_generating_set(rng, module), module.orders)
        assert represented.level == module.level
        assert df.are_isomorphic(module, represented) is not None
        # Z/4 with q = 1/2 (level 2) and with q = 1/4 (level 4)
        half = df.FiniteQuadraticModule((4,), 2, (1,), ((1,),))
        quarter = df.FiniteQuadraticModule((4,), 4, (1,), ((1,),))
        assert (half.order, half.level, quarter.level) == (quarter.order, 2, 4)
        assert df.are_isomorphic(half, quarter) is None
        # forms with no lattice behind them, orders 2, 3, 4, 6 and 8 in any
        # sequence: the multiples (d/r)*y of the pruning run over r = 2 and
        # r = 3, and most pairs of independent draws are not isomorphic
        hand = random_handbuilt_module(rng)
        hand_represented = df.submodule_on(hand, second_generating_set(rng, hand), hand.orders)
        assert df.are_isomorphic(hand, hand_represented) is not None
        pairs = ((other, module), (module, df.negate(module)), (module, represented),
                 (half, quarter), (hand, hand_represented), (hand_represented, hand),
                 (hand, df.negate(hand)), (hand, random_handbuilt_module(rng)))
        assert_isomorphism_witnesses(pairs)

    def test_isomorphism_witness_of_mixed_orders(self):
        # Z/3 + Z/12 + Z/2 + Z/4 on another generating set, its negative,
        # and the same group with one q value moved (not isomorphic)
        rng = random.Random(12)
        mixed = mixed_orders_module()
        represented = df.submodule_on(mixed, second_generating_set(rng, mixed), mixed.orders)
        q = list(mixed.q_int)
        q[2] = (q[2] + mixed.level) % (2 * mixed.level)
        moved = df.FiniteQuadraticModule(mixed.orders, mixed.level, tuple(q), mixed.b_int)
        pairs = ((mixed, represented), (represented, mixed), (mixed, df.negate(mixed)),
                 (mixed, moved))
        witnesses = [df.are_isomorphic(m1, m2) for m1, m2 in pairs]
        assert witnesses[0] is not None and witnesses[3] is None
        assert_isomorphism_witnesses(pairs)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_value_table_and_isotropic_elements(self, seed):
        # lattice-backed forms, and forms with no lattice behind them
        rng = random.Random(seed)
        _, module = random_small_module(rng, max_order=64)
        module = rng.choice((
            module,
            df.negate(module),
            df.direct_sum(module, random_handbuilt_module(rng)),
            random_handbuilt_module(rng),
        ))
        assert_value_table(module)

    def test_value_table_trivial_and_mixed_orders(self):
        trivial = df.FiniteQuadraticModule((), 1, (), ())
        assert trivial.value_table == ((1, 0),)
        assert df.isotropic_elements(trivial) == []
        assert_value_table(trivial)
        mixed = mixed_orders_module()
        assert (mixed.order, mixed.level) == (288, 12)
        assert_value_table(mixed)
        assert df.isotropic_elements(mixed)


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
        block = discform_oracle.module_from_fractions(
            (2, 2, 4, 4), (F(0), F(0), quarter, quarter), b
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

    def test_submodule_on_rejects_non_generating_set(self, a_q):
        gens = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2)]
        with pytest.raises(ValueError, match="do not generate"):
            df.submodule_on(a_q, gens, (2, 2, 4, 2))

    def test_scrambled_presentation_is_pruned(self, monkeypatch):
        # dependent image tuples are cut where they arise, not at the leaf:
        # each node of the search grows its span by one coset on (Z/2)^8,
        # and this search takes 7 nodes to its witness
        plain = df.from_lattice(make_named("M_Z2_3"))
        scrambled = df.from_lattice(Lattice(IntMat.from_rows(SCRAMBLED_M_Z2_3)))
        cosets = 0
        packing = df._packing

        def counted_packing(orders):
            pack, translate = packing(orders)

            def counted(x, ys):
                nonlocal cosets
                cosets += 1
                return translate(x, ys)

            return pack, counted

        monkeypatch.setattr(df, "_packing", counted_packing)
        # the search itself: are_isomorphic takes the normal form on (Z/2)^8
        witness = df._isomorphism_search(scrambled, plain)
        assert cosets < 100
        monkeypatch.undo()
        assert witness is not None
        assert_witness_presents(scrambled, plain, witness)

    def test_self_isomorphic(self, a_q):
        assert df.are_isomorphic(a_q, a_q) is not None

    def test_guard_env_override(self, a_q, monkeypatch):
        monkeypatch.setenv("EVENLAT_GUARD_ORDER", "32")
        with pytest.raises(df.GuardExceeded):
            df.are_isomorphic(a_q, a_q)
        monkeypatch.setenv("EVENLAT_GUARD_ORDER", "1024")
        assert df.are_isomorphic(a_q, a_q) is not None


def refuse_search(m1, m2):
    raise AssertionError("the search was entered")


class TestTwoElementaryNormalForm:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_matches_search(self, seed):
        # a sum of one to four planes and <+-1/2>, of order <= 256, half of
        # them of planes alone (delta = 0), on random generators, against
        # its plain sum (isomorphic by construction), its negation and the
        # form with one q value moved by 1, in both orders; the search gives
        # the verdict on the last two
        rng = random.Random(seed)
        plain = f2_sum(rng.choices(rng.choice(("uv", "uv+-")), k=rng.randint(1, 4)))
        module = f2_presentation(rng, plain)
        q = list(module.q_int)
        i = rng.randrange(module.ngens)
        q[i] = (q[i] + 2) % 4
        moved = dataclasses.replace(module, q_int=tuple(q))
        for m1, m2 in ((module, plain), (plain, module)):
            assert_witness_presents(m1, m2, df.are_isomorphic(m1, m2))
        for partner in (df.negate(module), moved):
            want = df._isomorphism_search(module, partner) is None
            for m1, m2 in ((module, partner), (partner, module)):
                witness = df.are_isomorphic(m1, m2)
                assert (witness is None) == want
                if witness is not None:
                    assert_witness_presents(m1, m2, witness)

    @pytest.mark.parametrize("expr", [
        "M_Z2_3", M_Z23_PERP_EXPR, "Nikulin", "E8+A1", "U(2)+A1", "A1+A1+A1+A1+A1",
        "U(2)+U(2)", "D4", "D4+D4", "D4+D4+<2>",
    ])
    def test_signature_is_milgrams(self, expr):
        # the normal form's signature mod 8 is (t+ - t-) mod 8 of the lattice
        lat = two_elementary_lattice(expr.split("+"))
        t_plus, t_minus, _ = lat.signature
        assert normal_form_signature(df.from_lattice(lat)) == (t_plus - t_minus) % 8

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_signature_is_milgrams_on_drawn_sums(self, seed):
        # one to three 2-elementary blocks and at most one unimodular one,
        # on a scrambled basis
        rng = random.Random(seed)
        names = rng.choices(("U(2)", "A1", "<2>", "D4", "Nikulin"), k=rng.randint(1, 3))
        names += rng.choices(("U", "E8"), k=rng.randint(0, 1))
        rng.shuffle(names)
        lat = two_elementary_lattice(names)
        u = random_unimodular(rng, lat.rank, steps=2 * lat.rank)
        module = df.from_lattice(Lattice(u * lat.gram * u.transpose()))
        t_plus, t_minus, _ = lat.signature
        assert normal_form_signature(module) == (t_plus - t_minus) % 8

    @pytest.mark.parametrize("scrambled_first", [True, False])
    def test_seed_7_scramble_takes_no_search(self, monkeypatch, scrambled_first):
        plain = df.from_lattice(make_named("M_Z2_3"))
        scrambled = df.from_lattice(Lattice(IntMat.from_rows(SEED_7_M_Z2_3)))
        m1, m2 = (scrambled, plain) if scrambled_first else (plain, scrambled)
        monkeypatch.setattr(df, "_isomorphism_search", refuse_search)
        assert_witness_presents(m1, m2, df.are_isomorphic(m1, m2))

    def test_degenerate_forms_take_the_search(self, monkeypatch):
        # 2-elementary, with a radical: <1/2> + (q = 1, b = 0) and
        # u + (q = 0, b = 0) at level 2, and (q = 1, b = 0) at level 1
        degenerate = (
            df.FiniteQuadraticModule((2, 2), 2, (1, 2), ((1, 0), (0, 0))),
            df.FiniteQuadraticModule((2, 2, 2), 2, (0, 0, 0), ((0, 1, 0), (1, 0, 0), (0, 0, 0))),
            df.FiniteQuadraticModule((2,), 1, (1,), ((0,),)),
        )
        searched = []
        search = df._isomorphism_search

        def spy(m1, m2):
            searched.append((m1, m2))
            return search(m1, m2)

        monkeypatch.setattr(df, "_isomorphism_search", spy)
        rng = random.Random(3)
        for module in degenerate:
            assert not discform_oracle.is_two_elementary_nondegenerate(module)
            pairs = [(module, f2_presentation(rng, module)), (module, df.negate(module))]
            assert_isomorphism_witnesses(pairs)
            assert all(pair in searched for pair in pairs)

    def test_guard_limits_only_the_search(self, monkeypatch):
        # (Z/2)^12, of order 4096 above the default guard of 1024
        lat = parse_lattice_expr("U(2)+U(2)+U(2)+U(2)+A1+A1+A1+<2>")
        u = random_unimodular(random.Random(5), lat.rank, steps=2 * lat.rank)
        m1 = df.from_lattice(lat)
        m2 = df.from_lattice(Lattice(u * lat.gram * u.transpose()))
        assert m1.order == m2.order == 4096
        monkeypatch.delenv("EVENLAT_GUARD_ORDER", raising=False)
        assert df.guard_order() == 1024
        assert_witness_presents(m1, m2, df.are_isomorphic(m1, m2))
        assert df.are_isomorphic(m1, df.negate(m2)) is None
        # (Z/4)^6, of the same order: the pair goes to the search
        quartic = df.from_lattice(parse_lattice_expr("diag(4,4,4,4,4,4)"))
        with pytest.raises(df.GuardExceeded):
            df.are_isomorphic(m1, quartic)
        monkeypatch.setenv("EVENLAT_GUARD_ORDER", "abc")
        with pytest.raises(ValueError, match="EVENLAT_GUARD_ORDER"):
            df.are_isomorphic(m1, m2)


class TestNegateAndSum:
    def test_negate_involution(self, a_q):
        assert df.negate(df.negate(a_q)) == df.FiniteQuadraticModule(
            a_q.orders, a_q.level, a_q.q_int, a_q.b_int
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
        # levels 4 and 2: the sum is written over level 4
        assert (m1.level, m2.level, s.level) == (4, 2, 4)
        assert s.q_diag == m1.q_diag + m2.q_diag
        assert s.b_mat[1][2] == m2.b_mat[0][1] == F(1, 2)


class TestStoredTable:
    def test_built_lazily(self):
        # order 2^40: building the table at construction would not finish
        n = 1 << 20
        big = df.from_lattice(Lattice(IntMat.from_rows([[0, n], [n, 0]])))
        assert big.orders == (n, n)
        modules = (big, df.negate(big), df.direct_sum(big, df.negate(big)))
        with pytest.raises(df.GuardExceeded):
            df.are_isomorphic(big, modules[1])
        for module in modules:
            assert "value_table" not in vars(module)
            assert "fingerprint" not in vars(module)

    def test_invisible_to_equality_hash_and_repr(self, a_q):
        built, unbuilt = fresh_copy(a_q), fresh_copy(a_q)
        assert df.are_isomorphic(built, a_q) is not None
        assert {"value_table", "fingerprint"} <= vars(built).keys()
        assert "value_table" not in vars(unbuilt)
        assert built == unbuilt
        assert hash(built) == hash(unbuilt)
        assert repr(built) == repr(unbuilt)


class TestLatticeBackReference:
    def test_class_of_round_trip(self, a_q):
        for i, d in enumerate(a_q.orders):
            gen = tuple(int(j == i) for j in range(a_q.ngens))
            lift = a_q.lift(gen)
            assert df.class_of(a_q, a_q.disc.lattice.dual_vector(lift)) == gen

    def test_class_of_rejects_another_lattice(self):
        module = df.from_lattice(parse_lattice_expr("U(2)+A1"))
        other = parse_lattice_expr("U(4)+A1")
        vector = other.dual_vector([0, F(1, 2), 0])
        assert vector.in_dual()
        with pytest.raises(ValueError, match="does not belong"):
            df.class_of(module, vector)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_class_of_matches_inverted_dual_basis(self, seed):
        # the rule before the class table: coordinates v * T / D in the dual
        # basis D * T^-1, T / D being its inverse; on scrambled even sums up
        # to rank 22 and small random even lattices, for dual vectors
        # c * gram^-1 and for vectors moved off the dual by a fraction
        rng = random.Random(seed)
        if rng.random() < 0.25:
            gram = random_even_lattice(rng, max_rank=5).gram
        else:
            target = rng.randint(1, 22)
            blocks, rank = [], 0
            while rank < target:
                block = rng.choice(list(CLASS_BLOCKS))
                if rank + CLASS_BLOCKS[block] <= 22:
                    blocks.append(block)
                    rank += CLASS_BLOCKS[block]
            gram = parse_lattice_expr("+".join(blocks)).gram
        u = random_unimodular(rng, gram.rows, steps=gram.rows)
        lat = Lattice(u * gram * u.transpose())
        module = df.from_lattice(lat)
        transform = discform_oracle.dual_transform(lat)
        inv = lat.gram.inverse().entries
        n = lat.rank
        for _ in range(4):
            c = [rng.randint(-5, 5) for _ in range(n)]
            v = [sum(ci * row[j] for ci, row in zip(c, inv)) for j in range(n)]
            if rng.random() < 0.4:
                v[rng.randrange(n)] += F(1, rng.randint(2, 5))
            try:
                want = discform_oracle.class_of(transform, v)
            except ValueError:
                with pytest.raises(ValueError):
                    df.class_of(module, lat.dual_vector(v))
            else:
                assert df.class_of(module, lat.dual_vector(v)) == want

    def test_from_lattice_invariant_under_generator_choice(self, a_q):
        # presenting the same module on the printed generators gives an
        # isomorphic quadratic module
        cls = printed_generator_classes(a_q)
        other = df.submodule_on(
            a_q, [cls["v1"], cls["v2"], cls["w1"], cls["w2"]], (2, 2, 4, 4)
        )
        assert df.are_isomorphic(a_q, other) is not None


class TestInputRules:
    def test_class_of_needs_a_lattice_back_reference(self):
        lat = Lattice(Q_GRAM)
        with pytest.raises(ValueError, match="no lattice back-reference"):
            df.class_of(df.negate(df.from_lattice(lat)), lat.dual_vector([0] * 6))

    @pytest.mark.parametrize("other", ["U(2)", "U(2)+U+U+U(3)"])
    def test_overlattice_of_a_foreign_subgroup(self, other):
        sub = df.isotropic_subgroups(df.from_lattice(Lattice(Q_GRAM)))[1]
        with pytest.raises(ValueError, match="does not belong"):
            df.overlattice(parse_lattice_expr(other), sub)

    def test_submodule_on_a_wrong_stated_order(self):
        module = df.from_lattice(Lattice(Q_GRAM))
        units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
        assert df.submodule_on(module, units, (2, 2, 4, 4)) == dataclasses.replace(module, disc=None)
        with pytest.raises(ValueError, match="stated generator order is wrong"):
            df.submodule_on(module, units, (2, 2, 4, 2))


def test_witness_check_rejects_images_that_change_q():
    # fault injection: the first two generators, q = 0 and q = 1, swapped
    module = df.from_lattice(Lattice(Q_GRAM))
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    assert df._checked_witness(module, module, units) == tuple(units)
    with pytest.raises(AssertionError, match="do not preserve q"):
        df._checked_witness(module, module, [units[1], units[0], *units[2:]])
