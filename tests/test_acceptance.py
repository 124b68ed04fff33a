"""Acceptance suite: one test per criterion, exact equality throughout.

Every test prints one line so a full run reads as a checklist.  The
reconstruction census (criterion 11) carries the ``census`` marker so CI
can run it as a separate stage; it is fast enough to stay in the default
run as well.
"""

import random
from fractions import Fraction

import pytest

import evenlat.discform as df
import evenlat.refdata as rd
from evenlat.curves import find_even_four_certificate, present
from evenlat.exactlinalg import IntMat, signature, snf, snf_rational
from evenlat.lattice import (
    Lattice,
    discriminant_group,
    is_primitive,
    norm_gcd,
    parse_lattice_expr,
    scale_gcd,
    sublattice,
)
from evenlat.ratfun import mobius_images
from evenlat.reconstruct import q_gram_of, relations_hold
from reconstruct_oracle import m_solution
from test_exactlinalg import hnf_against_oracle

F = Fraction


def report(n, text):
    print(f"[criterion {n:>2}] PASS {text}")


def test_criterion_01_rational_snf_and_discriminant_group(gram24):
    q_gram = q_gram_of(gram24)
    assert q_gram.entries == rd.Q_GRAM.entries
    d, s, t = snf_rational(q_gram.inverse())
    diag = tuple(d.entries[i][i] for i in range(6))
    assert diag == (1, 1, F(1, 2), F(1, 2), F(1, 4), F(1, 4))
    assert (s.to_rational() * q_gram.inverse() * t.to_rational()).entries == d.entries
    assert discriminant_group(Lattice(q_gram)).invariant_factors == (2, 2, 4, 4)
    report(1, "rational SNF of the inverse rank-6 Gram is diag(1,1,1/2,1/2,1/4,1/4); group Z2^2+Z4^2")


def test_criterion_02_dual_pairing_table(gram24):
    lat = Lattice(q_gram_of(gram24), "Q")
    vs = [lat.dual_vector(v) for v in (rd.V1_Q, rd.V2_Q, rd.W1_Q, rd.W2_Q)]
    table = [[a.pair(b) for b in vs] for a in vs]
    assert tuple(tuple(row) for row in table) == rd.PAIRING_TABLE_Q
    report(2, "dual pairing table on (v1, v2, w1, w2) matches entrywise")


def test_criterion_03_isotropic_enumeration(gram24):
    lat = Lattice(q_gram_of(gram24), "Q")
    module = df.from_lattice(lat)
    iso = df.isotropic_elements(module)
    assert len(iso) == 7
    classes = {df.class_of(module, lat.dual_vector(v)): name
               for name, v in (("v1", rd.V1_Q), ("v2", rd.V2_Q), ("w1", rd.W1_Q), ("w2", rd.W2_Q))}
    gen = {name: cls for cls, name in classes.items()}
    printed = set()
    for exps in rd.ISOTROPIC_AQ:
        x = module.zero()
        for e, name in zip(exps, ("v1", "v2", "w1", "w2")):
            x = module.add(x, module.smul(e, gen[name]))
        printed.add(x)
    assert printed == set(iso)
    report(3, "exactly 7 nonzero isotropic classes, equal to the printed list as a set")


def test_criterion_04_even_four_certificates(gram24, config24):
    pres = present(config24)
    lat = pres.lattice
    module = df.from_lattice(lat)
    labels = config24.labels
    families = [tuple(labels[i] for i in fam) for fam in rd.RELATION_FAMILIES_24]
    certified = set()
    certs = find_even_four_certificate(
        [tuple(labels[i] for i in halfset) for halfset in rd.HALFSET_AQ.values()], families, pres
    )
    for (exps, halfset), cert in zip(rd.HALFSET_AQ.items(), certs, strict=True):
        vec = [F(1, 2) if i in halfset else F(0) for i in range(24)]
        dual = lat.dual_vector(pres.coords(vec))
        assert dual.in_dual()
        assert cert is not None
        # replay over Z: difference of half-sums is a lattice vector
        diff = [F(0)] * 24
        for lab in cert.start:
            diff[config24.index(lab)] += F(1, 2)
        for lab in cert.final:
            diff[config24.index(lab)] -= F(1, 2)
        assert pres.contains(diff)
        certified.add(df.class_of(module, dual))
    assert certified == set(df.isotropic_elements(module))
    report(4, "all 7 isotropic classes carry even-four certificates from the printed relations")


def test_criterion_05_transcendental_lattice_of_x(gram24):
    cand = parse_lattice_expr(rd.T_X_EXPR)
    assert cand.is_even and cand.signature == (2, 4, 0)
    ns_module = df.from_lattice(Lattice(q_gram_of(gram24), "Q"))
    cand_mod = df.from_lattice(cand)
    witness = df.are_isomorphic(cand_mod, df.negate(ns_module))
    assert witness is not None
    neg = df.negate(ns_module)
    k = cand_mod.ngens
    for i in range(k):
        gi = tuple(int(a == i) for a in range(k))
        assert df.q_value(cand_mod, gi) == df.q_value(neg, witness[i])
        for j in range(k):
            gj = tuple(int(a == j) for a in range(k))
            assert df.b_value(cand_mod, gi, gj) == df.b_value(neg, witness[i], witness[j])
    assert cand.rank >= 2 + cand_mod.ngens
    assert df.nikulin_unique(cand_mod)
    report(5, "U+U(2)+<-4>^2 is even of signature (2,4) with q = -q_NS and is unique in its genus")


def test_criterion_06_mobius_images():
    # z -> (s + s^3)/2 * (z - s)/(s*z - 1) at s, -s, -1/s, 1/s; a point is (u, v) = u/v
    s, one = (0, 1), (1,)
    images = mobius_images(
        ((0, 1, 0, 1), (2,)), (one, (0, -1), s, (-1,)),
        [(s, one), ((0, -1), one), ((-1,), s), (one, s)],
    )
    assert images[0] == ((), one)
    assert images[1] == ((0, 0, 1), one)
    # (1 + s^2)^2/4
    assert images[2] == (tuple(Fraction(c, 4) for c in (1, 0, 2, 0, 1)), one)
    assert images[3] == (one, ())
    report(6, "branch points map exactly to 0, s^2, (1+s^2)^2/4, infinity")


def test_criterion_07_obstruction_witnesses():
    tx = parse_lattice_expr(rd.T_X_EXPR)
    assert tx.pairing(rd.SQUARE_TWO_VECTOR, rd.SQUARE_TWO_VECTOR) == 2
    assert norm_gcd(parse_lattice_expr(rd.OMEGA_Z23_PERP_EXPR)) == 4
    assert scale_gcd(parse_lattice_expr(rd.M_Z23_PERP_EXPR)) == 2
    mz = parse_lattice_expr("M_Z2_3")
    assert mz.rank == 14
    assert discriminant_group(mz).invariant_factors == (2,) * 8
    report(7, "square-2 vector, norm gcd 4, scale gcd 2, and the rank-14 lattice with A = Z2^8")


def test_criterion_08_section_six(xprime):
    m_pres = xprime.m_presentation
    m_lat = m_pres.lattice
    d, _, _ = snf_rational(m_lat.gram.inverse())
    diag = tuple(d.entries[i][i] for i in range(16))
    assert diag == (1,) * 10 + (F(1, 2),) * 4 + (F(1, 4),) * 2
    module = df.from_lattice(m_lat)
    gens = {}
    for name, data in (("v1", rd.V1_M), ("v2", rd.V2_M), ("v3", rd.V3_M),
                       ("v4", rd.V4_M), ("w1", rd.W1_M), ("w2", rd.W2_M)):
        coords = [F(0)] * 16
        for i, c in data.items():
            coords[i] = c
        vec = m_lat.dual_vector(coords)
        assert vec.in_dual()
        gens[name] = df.class_of(module, vec)
    elems = []
    for exps, _order in rd.SECTION6_BASIS:
        x = module.zero()
        for e, name in zip(exps, ("v1", "v2", "v3", "v4", "w1", "w2")):
            x = module.add(x, module.smul(e, gens[name]))
        elems.append(x)
    assert tuple(df.q_value(module, x) for x in elems) == rd.SECTION6_Q_DIAG
    b_off = {(i, j): df.b_value(module, elems[i], elems[j])
             for i in range(6) for j in range(i + 1, 6)
             if df.b_value(module, elems[i], elems[j]) != 0}
    assert b_off == rd.SECTION6_B_OFFDIAG
    # every nonzero isotropic class carries a certificate; the even eight is
    # a member of the lattice and correctly yields none
    iso = set(df.isotropic_elements(module))
    assert len(iso) == 31
    labels = xprime.config.labels
    families = [tuple(labels[i] for i in fam) for fam in rd.XPRIME_RELATION_FAMILIES]
    seen = set()
    certs = find_even_four_certificate(
        [tuple(labels[i] for i in halfset) for halfset in rd.ISOTROPIC_AM_HALFSETS], families, m_pres
    )
    for halfset, cert in zip(rd.ISOTROPIC_AM_HALFSETS, certs, strict=True):
        assert cert is not None
        sol = m_solution(halfset)
        assert sol is not None and not sol.kernel
        seen.add(df.class_of(module, m_lat.dual_vector(sol.particular)))
    assert seen == iso
    n_half = [F(1, 2) if i in rd.N_SUPPORT else F(0) for i in range(20)]
    assert m_pres.contains(n_half)
    assert find_even_four_certificate(
        [tuple(labels[i] for i in rd.N_SUPPORT)], families, m_pres
    ) == (None,)
    cand = parse_lattice_expr(rd.T_XPRIME_EXPR)
    assert cand.is_even and cand.signature == (2, 4, 0)
    assert df.are_isomorphic(df.from_lattice(cand), df.negate(module)) is not None
    report(8, "16x16 lattice: SNF, printed block form, 31 certified classes, even eight kept, U(2)^2+<-4>^2 matches")


def test_criterion_09_primitive_embedding():
    ambient = parse_lattice_expr(rd.P62_AMBIENT_EXPR)
    gens = IntMat.from_rows(rd.P62_GENS)
    sub = sublattice(ambient, gens)
    assert sub.induced_gram.entries == ((-4, 0), (0, -4))
    d, _, _ = snf(gens)
    assert (d.entries[0][0], d.entries[1][1]) == (1, 1)
    assert is_primitive(ambient, gens)
    report(9, "(1,1,1) and (-1,1,0) in U(2)+<-8> span diag(-4,-4) primitively")


class TestCriterion10PropertySuites:
    """Seeded property suites; shift all of them with ``pytest --seed N``."""

    CASES = 200

    def _random_even(self, rng, max_rank=4, max_entry=3):
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

    def test_normal_form_transform_identities(self, seed_base):
        rng = random.Random(seed_base + 101)
        for _ in range(self.CASES):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            a = IntMat.from_rows([[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)])
            d, s, t = snf(a)
            assert (s * a * t).entries == d.entries
            assert s.det() in (1, -1) and t.det() in (1, -1)
            diag = [d.entries[i][i] for i in range(min(n, m))]
            for x, y in zip(diag, diag[1:]):
                assert (x == 0 and y == 0) or y % x == 0
            hnf_against_oracle(a)
        report(10, "SNF/HNF transform identities hold on 200 random matrices")

    def test_determinant_equals_group_order(self, seed_base):
        rng = random.Random(seed_base + 102)
        for _ in range(self.CASES):
            lat = self._random_even(rng)
            assert discriminant_group(lat).order == abs(lat.det)
        report(10, "|det L| = |A_L| on 200 random even lattices")

    def test_overlattice_round_trip(self, seed_base):
        from evenlat.exactlinalg import RatMat
        from linalg_oracle import span_basis

        rng = random.Random(seed_base + 103)
        for _ in range(self.CASES):
            lat = self._random_even(rng)
            n = lat.rank
            module = df.from_lattice(lat)
            # brute force: index-2 even overlattices from half-vectors
            brute = {}
            for bits in range(1, 2**n):
                w = [(bits >> k) & 1 for k in range(n)]
                pair_integral = all(
                    sum(w[a] * lat.gram.entries[a][b] for a in range(n)) % 2 == 0
                    for b in range(n)
                )
                norm = sum(
                    w[a] * lat.gram.entries[a][b] * w[b] for a in range(n) for b in range(n)
                )
                if pair_integral and norm % 8 == 0:
                    half = tuple(F(x, 2) for x in w)
                    cls = df.class_of(module, lat.dual_vector(half))
                    basis = RatMat.from_rows(span_basis([half], n))
                    gram = (basis * lat.gram.to_rational() * basis.transpose()).to_integer()
                    brute[cls] = gram.entries
            order2 = [s for s in df.isotropic_subgroups(module) if s.order == 2]
            assert len(order2) == len(brute)
            for sub in order2:
                over = df.overlattice(lat, sub)
                assert abs(over.det) * 4 == abs(lat.det)
                assert over.is_even
                glue = next(x for x in sub.elements if any(x))
                assert over.gram.entries == brute[glue]
        report(10, "index-2 overlattices round-trip against the brute-force census on 200 random even lattices")

    def test_signature_congruence_invariance(self, seed_base):
        rng = random.Random(seed_base + 104)
        for _ in range(self.CASES):
            n = rng.randint(1, 5)
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    g[i][j] = g[j][i] = rng.randint(-5, 5)
            gm = IntMat.from_rows(g)
            u = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(10):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    c = rng.randint(-2, 2)
                    for k in range(n):
                        u[i][k] += c * u[j][k]
            p = IntMat.from_rows(u)
            assert signature(p.transpose() * gm * p) == signature(gm)
        report(10, "signature is congruence-invariant on 200 random symmetric matrices")

    def test_q_bilinearity(self, seed_base):
        rng = random.Random(seed_base + 105)
        for _ in range(self.CASES):
            lat = self._random_even(rng)
            module = df.from_lattice(lat)
            if module.order == 1:
                continue
            elems = list(module.elements())
            x = elems[rng.randrange(len(elems))]
            y = elems[rng.randrange(len(elems))]
            lhs = (
                df.q_value(module, module.add(x, y))
                - df.q_value(module, x)
                - df.q_value(module, y)
            ) % 2
            assert lhs == (2 * df.b_value(module, x, y)) % 2
        report(10, "q(x+y) - q(x) - q(y) = 2 b(x,y) mod 2Z on 200 random modules")


@pytest.mark.census
def test_criterion_11_reconstruction_census(reconstruction, gram24):
    sizes = reconstruction.census_sizes()
    assert sizes["tier3"] == 1
    # every tier-3 solution passes criteria 1-4 and matches the printed
    # rank-6 Gram entrywise
    for g in reconstruction.tier3:
        assert q_gram_of(g).entries == rd.Q_GRAM.entries
        assert relations_hold(g)
        lat = Lattice(q_gram_of(g))
        assert discriminant_group(lat).invariant_factors == (2, 2, 4, 4)
    # the tier-2 census shares the abstract invariants even where the curve
    # relations fail, which is why the answer is read at tier 3
    for g in reconstruction.tier2:
        assert q_gram_of(g).entries == rd.Q_GRAM.entries
    report(11, f"census tier1={sizes['tier1']} tier2={sizes['tier2']} tier3={sizes['tier3']}, "
               "tier 3 unique")
