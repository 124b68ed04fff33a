import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import evenlat.discform as df
import linalg_oracle as oracle
from evenlat.exactlinalg import IntMat, hnf
from evenlat.lattice import (
    Lattice,
    _induced_gram_rational,
    direct_sum,
    discriminant_group,
    is_primitive,
    make_named,
    norm_gcd,
    orthogonal_complement,
    parse_lattice_expr,
    rescale,
    saturation,
    scale_gcd,
    sublattice,
)

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


def random_even_nondegenerate(rng, max_rank=4, max_entry=4):
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


def random_mixed_vector(rng, n):
    """Zero, negative and fractional coordinates, as ints or Fractions."""
    return [
        rng.choice((0, rng.randint(-5, 5), F(rng.randint(-9, 9), rng.randint(1, 6))))
        for _ in range(n)
    ]


class TestAgainstFractionOracle:
    """pairing and in_dual against the entry-by-entry Fraction rules."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_pairing(self, seed):
        rng = random.Random(seed)
        lat = random_even_nondegenerate(rng, max_rank=6)
        x, y = random_mixed_vector(rng, lat.rank), random_mixed_vector(rng, lat.rank)
        assert lat.pairing(x, y) == oracle.pairing(lat.gram.entries, x, y)
        v = lat.dual_vector(x)
        assert v.pair(v) == oracle.pairing(lat.gram.entries, x, x)

    def test_pairing_rejects_wrong_length(self):
        u = make_named("U")
        for x, y in (((1,), (1, 0)), ((1, 0), (1, 0, 0))):
            with pytest.raises(ValueError, match="rank"):
                u.pairing(x, y)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_in_dual(self, seed):
        # half the draws are dual vectors: integer combinations of gram^-1 rows
        rng = random.Random(seed)
        lat = random_even_nondegenerate(rng, max_rank=6)
        if rng.random() < 0.5:
            coords = random_mixed_vector(rng, lat.rank)
        else:
            inv = lat.gram.inverse().entries
            coords = [
                sum(rng.randint(-3, 3) * row[j] for row in inv) for j in range(lat.rank)
            ]
        v = lat.dual_vector(coords)
        assert v.in_dual() == oracle.in_dual(lat.gram.entries, coords)


class TestInducedGram:
    def test_half_sum_glue(self):
        rows = [[F(int(i == j)) for j in range(2)] for i in range(2)] + [[F(1, 2), F(1, 2)]]
        gram = _induced_gram_rational(IntMat.diagonal([2, -2]), rows)
        assert gram.entries == ((0, -1), (-1, -2))

    def test_non_integral_span_rejected(self):
        with pytest.raises(ValueError, match="integral"):
            _induced_gram_rational(IntMat.diagonal([2, 2]), [[F(1, 2), F(0)], [F(0), F(1)]])


class TestNamedLattices:
    def test_u(self):
        u = make_named("U")
        assert u.det == -1 and u.is_even and u.signature == (1, 1, 0)

    def test_e8(self):
        e8 = make_named("E8")
        assert e8.rank == 8 and e8.det == 1 and e8.signature == (0, 8, 0) and e8.is_even

    def test_nikulin(self):
        nik = make_named("Nikulin")
        assert nik.rank == 8 and nik.is_even and nik.signature == (0, 8, 0)
        # index-2 overlattice of <-2>^8: determinant drops by 4
        base = parse_lattice_expr("+".join(["diag(-2)"] * 8))
        assert base.det == 256
        assert nik.det == base.det // 4 == 64

    def test_m_z23(self):
        m = make_named("M_Z2_3")
        assert m.rank == 14 and m.signature == (0, 14, 0)
        assert discriminant_group(m).invariant_factors == (2,) * 8

    def test_diag_and_angle(self):
        assert make_named("diag(-4,-4)").gram.entries == ((-4, 0), (0, -4))
        assert make_named("<-8>").gram.entries == ((-8,),)
        assert make_named("A1").gram.entries == ((-2,),)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_named("F4")


class TestSumsAndRescale:
    def test_rescale_u(self):
        u2 = rescale(make_named("U"), 2)
        assert u2.gram.entries == ((0, 2), (2, 0))
        assert u2.det == -4

    def test_u_plus_e8(self):
        s = direct_sum(make_named("U"), make_named("E8"))
        assert s.signature == (1, 9, 0) and s.det == -1 and s.is_even

    def test_t_x_block_sum(self):
        t = parse_lattice_expr("U+U(2)+diag(-4,-4)")
        assert t.signature == (2, 4, 0)
        # determinant oracle: product of the block determinants
        blocks = [make_named(n) for n in ("U", "U(2)", "<-4>", "<-4>")]
        expected = 1
        for b in blocks:
            expected *= b.det
        assert t.det == expected == 64


class TestDiscriminantGroup:
    def test_q_gram(self):
        disc = discriminant_group(Lattice(Q_GRAM, "Q"))
        assert disc.invariant_factors == (2, 2, 4, 4)
        assert disc.order == 64 == abs(Q_GRAM.det())
        assert len(disc.lift_num) == 4
        for d, row in zip(disc.invariant_factors, disc.lift_num):
            lift = disc.lattice.dual_vector([F(a, disc.lift_den) for a in row])
            assert lift.in_dual()
            assert all((d * c).denominator == 1 for c in lift.coords)
        # lift_den is the least common denominator of the lifts
        assert math.gcd(disc.lift_den, *(a for row in disc.lift_num for a in row)) == 1

    def test_printed_generators_generate_same_group(self):
        lat = Lattice(Q_GRAM, "Q")
        module = df.from_lattice(lat)
        printed = [
            (F(1, 2), F(-1, 2), 0, 0, F(1, 2), 0),
            (F(-1, 2), F(1, 2), 0, 0, 0, 0),
            (F(1, 2), 0, 0, F(-1, 4), 0, 0),
            (0, 0, F(1, 4), F(-1, 4), F(-1, 4), F(-1, 4)),
        ]
        classes = [df.class_of(module, lat.dual_vector(v)) for v in printed]
        df.submodule_on(module, classes, (2, 2, 4, 4))  # raises if not generating

    def test_unimodular_trivial(self):
        assert discriminant_group(make_named("U")).invariant_factors == ()

    def test_order_matches_det(self):
        rng = random.Random(31415)
        for _ in range(100):
            lat = random_even_nondegenerate(rng)
            assert discriminant_group(lat).order == abs(lat.det)


class TestParityInvariants:
    def test_norm_gcd_omega_perp(self):
        assert norm_gcd(parse_lattice_expr("U(2)+U(2)+U(2)+diag(-4,-4)")) == 4

    def test_scale_gcd_m_perp(self):
        assert scale_gcd(parse_lattice_expr("diag(2,2)+U(2)+diag(-2,-2,-2,-2)")) == 2

    def test_u_values(self):
        u = make_named("U")
        assert norm_gcd(u) == 2 and scale_gcd(u) == 1


class TestSublattices:
    def test_identity_generators(self):
        lat = Lattice(Q_GRAM)
        sub = sublattice(lat, IntMat.identity(6))
        assert sub.induced_gram.entries == Q_GRAM.entries

    def test_distinguished_sublattices_of_the_curve_host(self, gram24):
        import evenlat.refdata as rd

        host = Lattice(gram24)  # degenerate host, fine for intermediate use
        s_rows = IntMat.from_rows(
            [[1 if k == i else 0 for k in range(24)] for i in rd.S_BASIS]
        )
        s_sub = sublattice(host, s_rows)
        s_lat = Lattice(s_sub.induced_gram, "S")
        assert s_lat.is_even and s_lat.det == -1 and s_lat.signature == (1, 9, 0)
        q_rows = []
        for qv in rd.Q_BASIS_VECTORS:
            row = [0] * 24
            for i, c in qv.items():
                row[i] = c
            q_rows.append(row)
        q_sub = sublattice(host, IntMat.from_rows(q_rows))
        assert q_sub.induced_gram.entries == rd.Q_GRAM.entries

    def test_dependent_generators_rejected(self):
        with pytest.raises(ValueError):
            sublattice(make_named("U"), IntMat.from_rows([[1, 0], [2, 0]]))

    def test_primitivity_examples(self):
        host = parse_lattice_expr("U(2)+diag(-8)")
        assert is_primitive(host, IntMat.from_rows([[1, 1, 1], [-1, 1, 0]]))
        host2 = parse_lattice_expr("U+U(2)+diag(-4,-4)")
        assert is_primitive(host2, IntMat.from_rows([[1, 2, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0]]))
        assert not is_primitive(make_named("U"), IntMat.from_rows([[2, 0]]))
        # dependent rows: only the span counts
        assert is_primitive(make_named("U"), IntMat.from_rows([[1, 0], [0, 0]]))
        assert is_primitive(make_named("U"), IntMat.from_rows([[1, 0], [0, 1], [1, 1]]))
        assert not is_primitive(make_named("U"), IntMat.from_rows([[2, 0], [4, 0]]))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=1, max_size=4
            )
        ).filter(lambda rows: any(map(any, rows)))
    )
    def test_primitive_iff_span_is_saturation(self, rows):
        gens = IntMat.from_rows(rows)
        host = Lattice(IntMat.diagonal([2] * gens.cols))
        span = tuple(row for row in hnf(gens).entries if any(row))
        assert is_primitive(host, gens) == (span == saturation(host, gens).entries)

    def test_saturation(self):
        u = make_named("U")
        assert saturation(u, IntMat.from_rows([[2, 0]])).entries == ((1, 0),)
        sat = saturation(u, IntMat.from_rows([[2, 0], [0, 2]]))
        assert sat.entries == IntMat.identity(2).entries
        # idempotence and primitivity of the result
        rng = random.Random(2718)
        for _ in range(100):
            n = rng.randint(1, 4)
            k = rng.randint(1, n)
            gens = IntMat.from_rows(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
            )
            if all(e == 0 for row in gens.entries for e in row):
                continue
            host = Lattice(IntMat.diagonal([2] * n))
            sat1 = saturation(host, gens)
            assert saturation(host, sat1).entries == sat1.entries
            assert is_primitive(host, sat1)

    def test_orthogonal_complement_u_plus_u(self):
        host = parse_lattice_expr("U+U")
        comp = orthogonal_complement(host, IntMat.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]]))
        assert comp.induced_gram.entries == ((0, 1), (1, 0))

    def test_orthogonal_complement_degenerate_case(self):
        host = Lattice(IntMat.diagonal([2, -2]))
        comp = orthogonal_complement(host, IntMat.from_rows([[1, 1]]))
        assert comp.basis_coords.entries == ((1, 1),)
        assert comp.induced_gram.entries == ((0,),)
        assert comp.is_degenerate

    def test_orthogonal_complement_of_nothing(self):
        host = make_named("U")
        comp = orthogonal_complement(host, None)
        assert comp.induced_gram.entries == host.gram.entries

    def test_complement_pairs_to_zero(self):
        rng = random.Random(555)
        for _ in range(100):
            host = random_even_nondegenerate(rng, max_rank=4)
            k = rng.randint(1, host.rank)
            gens = IntMat.from_rows(
                [[rng.randint(-3, 3) for _ in range(host.rank)] for _ in range(k)]
            )
            try:
                comp = orthogonal_complement(host, gens)
            except ValueError:
                continue
            prod = gens * host.gram * comp.basis_coords.transpose()
            assert all(e == 0 for row in prod.entries for e in row)


class TestPredicates:
    def test_t_x_unique(self):
        t = df.from_lattice(parse_lattice_expr("U+U(2)+diag(-4,-4)"))
        assert df.nikulin_unique(t)  # rank 6 >= 2 + 4

    def test_two_elementary_u2(self):
        assert df.two_elem_invariants(df.from_lattice(make_named("U(2)"))) == ((1, 1), 2, 0)

    def test_two_elementary_none_for_q(self):
        assert df.two_elem_invariants(df.from_lattice(Lattice(Q_GRAM))) is None

    def test_odd_lattice_rejected(self):
        # an odd lattice has no discriminant quadratic form to test
        with pytest.raises(ValueError):
            df.nikulin_unique(df.from_lattice(Lattice(IntMat.diagonal([1, -1]))))

    def test_module_without_lattice_rejected(self):
        # the predicates read the signature off the source lattice
        module = df.negate(df.from_lattice(make_named("U(2)")))
        for predicate in (df.nikulin_unique, df.two_elem_invariants):
            with pytest.raises(ValueError):
                predicate(module)


class TestComplementDiscriminantDuality:
    def test_u_plus_u(self):
        host = parse_lattice_expr("U+U")
        gens = IntMat.from_rows([[1, 2, 0, 1], [0, 0, 1, 1]])
        sat = saturation(host, gens)
        sub = sublattice(host, sat)
        comp = orthogonal_complement(host, sat)
        if sub.is_degenerate or comp.is_degenerate:
            pytest.skip("degenerate sample")
        assert abs(sub.induced_gram.det()) == abs(comp.induced_gram.det())

    def test_random_primitive_sublattices(self):
        rng = random.Random(909)
        host = direct_sum(make_named("U"), make_named("U"), make_named("E8"))
        checked = 0
        while checked < 25:
            gens = IntMat.from_rows(
                [[rng.randint(-2, 2) for _ in range(12)] for _ in range(2)]
            )
            try:
                sat = saturation(host, gens)
            except ValueError:
                continue
            if sat.rows != 2:
                continue
            sub = sublattice(host, sat)
            if sub.is_degenerate:
                continue
            comp = orthogonal_complement(host, sat)
            if comp.is_degenerate:
                continue
            assert abs(sub.induced_gram.det()) == abs(comp.induced_gram.det())
            s_lat = Lattice(sub.induced_gram)
            c_lat = Lattice(comp.induced_gram)
            if not (s_lat.is_even and c_lat.is_even) or abs(s_lat.det) > 64:
                continue
            witness = df.are_isomorphic(
                df.from_lattice(s_lat), df.negate(df.from_lattice(c_lat))
            )
            assert witness is not None
            checked += 1


# each rule broken alone: the input is otherwise valid, and the message
# names the rule, so a later check raising some other ValueError fails it
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Lattice(IntMat.from_rows([[0, 1], [2, 0]])), "must be symmetric",
                 id="asymmetric"),
    pytest.param(lambda: make_named("U").dual_vector([F(1, 2)]), "coordinate length",
                 id="dual-vector-length"),
    pytest.param(lambda: discriminant_group(Lattice(IntMat.from_rows([[2, 2], [2, 2]]))),
                 "needs a nondegenerate lattice", id="degenerate"),
    pytest.param(lambda: make_named("U(0)"), r"U\(0\) is degenerate", id="U(0)"),
    pytest.param(lambda: direct_sum(), "direct sum of no lattices", id="empty-sum"),
    pytest.param(lambda: rescale(make_named("U"), 0), "rescaling by zero", id="rescale-zero"),
    pytest.param(lambda: sublattice(make_named("U"), IntMat.from_rows([[1, 0, 0]])),
                 "generator length", id="sublattice-length"),
    pytest.param(lambda: saturation(make_named("U"), IntMat.from_rows([[1, 0, 0]])),
                 "generator length", id="saturation-length"),
    pytest.param(lambda: saturation(make_named("U"), IntMat.from_rows([[0, 0], [0, 0]])),
                 "span is zero", id="zero-span"),
    pytest.param(lambda: orthogonal_complement(make_named("U"), IntMat.from_rows([[1, 0, 0]])),
                 "generator length", id="complement-length"),
    pytest.param(lambda: orthogonal_complement(make_named("U"), IntMat.identity(2)),
                 "orthogonal complement is zero", id="zero-complement"),
])
def test_each_input_rule_alone(call, message):
    with pytest.raises(ValueError, match=message):
        call()
