import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import linalg_oracle as oracle
from evenlat.exactlinalg import (
    IntMat,
    RatMat,
    hnf,
    kernel_saturated,
    signature,
    snf,
    snf_rational,
    solve_rational,
)
from evenlat.lattice import _row_rank

F = Fraction


def small_intmat(max_dim=5, max_entry=9):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.integers(1, max_dim).flatmap(
            lambda m: st.lists(
                st.lists(st.integers(-max_entry, max_entry), min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            ).map(IntMat.from_rows)
        )
    )


def random_unimodular(rng, n, steps=12):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        for k in range(n):
            u[i][k] += c * u[j][k]
    return IntMat.from_rows(u)


class TestHNF:
    def test_identity(self):
        a = IntMat.identity(3)
        h, u = hnf(a)
        assert h.entries == a.entries
        assert u.entries == a.entries

    def test_worked_example(self):
        a = IntMat.from_rows([[2, 4], [6, 8]])
        h, u = hnf(a)
        assert (u * a).entries == h.entries
        assert u.det() in (1, -1)
        assert h.entries == ((2, 0), (0, 4))

    def test_zero_matrix(self):
        a = IntMat.zeros(2, 2)
        h, u = hnf(a)
        assert h.entries == a.entries
        assert u.entries == IntMat.identity(2).entries

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(small_intmat())
    def test_transform_identity(self, a):
        h, u = hnf(a)
        assert (u * a).entries == h.entries
        assert u.det() in (1, -1)

    def test_invariant_under_unimodular_row_action(self):
        rng = random.Random(20240811)
        for _ in range(200):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            a = IntMat.from_rows(
                [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
            )
            p = random_unimodular(rng, n)
            assert hnf(p * a)[0].entries == hnf(a)[0].entries


class TestSNF:
    def test_worked_example(self):
        a = IntMat.from_rows([[2, 4], [6, 8]])
        d, s, t = snf(a)
        assert (s * a * t).entries == d.entries
        assert [d.entries[i][i] for i in range(2)] == [2, 4]

    def test_identity(self):
        a = IntMat.identity(4)
        d, _, _ = snf(a)
        assert d.entries == a.entries

    def test_unimodular_input(self):
        a = IntMat.from_rows([[0, 1], [1, 0]])
        d, _, _ = snf(a)
        assert [d.entries[i][i] for i in range(2)] == [1, 1]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(small_intmat())
    def test_transform_identities(self, a):
        d, s, t = snf(a)
        assert (s * a * t).entries == d.entries
        assert s.det() in (1, -1)
        assert t.det() in (1, -1)
        diag = [d.entries[i][i] for i in range(min(a.rows, a.cols))]
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            if x != 0:
                assert y % x == 0
            else:
                assert y == 0
        for i in range(d.rows):
            for j in range(d.cols):
                if i != j:
                    assert d.entries[i][j] == 0


class TestRationalSNF:
    def test_scalar(self):
        a = RatMat.from_rows([[F(1, 3)]])
        d, s, t = snf_rational(a)
        assert d.entries == ((F(1, 3),),)
        assert s.entries == ((1,),) and t.entries == ((1,),)

    def test_inverse_q_gram(self):
        q = IntMat.from_rows(
            [
                [-2, 0, 1, 0, 2, -1],
                [0, -6, -1, -4, 4, -5],
                [1, -1, -8, 6, 2, 0],
                [0, -4, 6, -16, 4, -2],
                [2, 4, 2, 4, -8, 6],
                [-1, -5, 0, -2, 6, -12],
            ]
        )
        d, s, t = snf_rational(q.inverse())
        diag = tuple(d.entries[i][i] for i in range(6))
        assert diag == (1, 1, F(1, 2), F(1, 2), F(1, 4), F(1, 4))
        assert (s.to_rational() * q.inverse() * t.to_rational()).entries == d.entries
        assert s.det() in (1, -1) and t.det() in (1, -1)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            snf_rational(RatMat.from_rows([[1, 1], [1, 1]]))

    def test_descending_chain(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 4)
            while True:
                a = IntMat.from_rows(
                    [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
                )
                if a.det() != 0:
                    break
            m = RatMat.from_rows(
                [[F(e, rng.randint(1, 4)) for e in row] for row in a.entries]
            )
            if m.det() == 0:
                continue
            d, s, t = snf_rational(m)
            assert (s.to_rational() * m * t.to_rational()).entries == d.entries
            diag = [d.entries[i][i] for i in range(n)]
            for x, y in zip(diag, diag[1:]):
                assert (x / y).denominator == 1  # each entry divides the previous


class TestSignature:
    def test_hyperbolic_plane(self):
        assert signature(IntMat.from_rows([[0, 1], [1, 0]])) == (1, 1, 0)

    def test_diagonal_sign_counts(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(1, 6)
            diag = [rng.randint(-5, 5) for _ in range(n)]
            got = signature(IntMat.diagonal(diag))
            want = (
                sum(1 for x in diag if x > 0),
                sum(1 for x in diag if x < 0),
                sum(1 for x in diag if x == 0),
            )
            assert got == want

    def test_congruence_invariance(self):
        rng = random.Random(12345)
        for _ in range(200):
            n = rng.randint(1, 5)
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    g[i][j] = g[j][i] = rng.randint(-5, 5)
            gm = IntMat.from_rows(g)
            p = random_unimodular(rng, n)
            assert signature(p.transpose() * gm * p) == signature(gm)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            signature(IntMat.from_rows([[0, 1], [2, 0]]))

    @pytest.mark.parametrize(
        "rows, want",
        [
            ([[0, 1, 1, 2], [1, 0, -1, -2], [1, -1, 0, -1], [2, -2, -1, 0]], (3, 1, 0)),
            (
                [[0, -2, 0, 0, 2], [-2, 0, 3, -2, 1], [0, 3, 0, -2, -2],
                 [0, -2, -2, 0, 0], [2, 1, -2, 0, 0]],
                (2, 2, 1),
            ),
        ],
    )
    def test_zero_diagonal(self, rows, want):
        assert signature(IntMat.from_rows(rows)) == want


class TestSolveRational:
    def test_identity(self):
        sol = solve_rational(IntMat.identity(3), [F(1, 2), 3, F(-7, 5)])
        assert sol is not None and sol.is_unique
        assert sol.particular == (F(1, 2), F(3), F(-7, 5))

    def test_diagonal(self):
        sol = solve_rational(IntMat.diagonal([2, 2]), [1, 3])
        assert sol.particular == (F(1, 2), F(3, 2))

    def test_inconsistent(self):
        a = IntMat.from_rows([[1, 1], [1, 1]])
        assert solve_rational(a, [0, 1]) is None

    def test_underdetermined(self):
        a = IntMat.from_rows([[1, 1]])
        sol = solve_rational(a, [2])
        assert sol is not None and not sol.is_unique
        assert len(sol.kernel) == 1
        x = sol.particular
        assert x[0] + x[1] == 2
        k = sol.kernel[0]
        assert k[0] + k[1] == 0

    def test_round_trip_recovers_dual_generator(self):
        q = IntMat.from_rows(
            [
                [-2, 0, 1, 0, 2, -1],
                [0, -6, -1, -4, 4, -5],
                [1, -1, -8, 6, 2, 0],
                [0, -4, 6, -16, 4, -2],
                [2, 4, 2, 4, -8, 6],
                [-1, -5, 0, -2, 6, -12],
            ]
        )
        v1 = (F(1, 2), F(-1, 2), 0, 0, F(1, 2), 0)
        rhs = [
            sum(q.entries[i][j] * F(v1[j]) for j in range(6)) for i in range(6)
        ]
        sol = solve_rational(q, rhs)
        assert sol is not None and sol.is_unique
        assert sol.particular == tuple(F(x) for x in v1)


class TestKernel:
    def test_examples(self):
        assert kernel_saturated(IntMat.from_rows([[1, 1]])) == ((1, -1),)
        assert kernel_saturated(IntMat.from_rows([[2, 2]])) == ((1, -1),)
        assert kernel_saturated(IntMat.identity(3)) == ()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(small_intmat(max_dim=4, max_entry=6))
    def test_annihilates_and_primitive(self, a):
        rows = kernel_saturated(a)
        for row in rows:
            prod = a * IntMat.from_rows([row]).transpose()
            assert all(e == 0 for col in prod.entries for e in col)
        if rows:
            d, _, _ = snf(IntMat.from_rows(rows))
            assert all(d.entries[i][i] == 1 for i in range(len(rows)))


def rational_matrix(rows, cols, max_entry=6, max_den=4):
    entry = st.builds(F, st.integers(-max_entry, max_entry), st.integers(1, max_den))
    return st.lists(
        st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


def int_matrix(rows, cols, max_entry=9):
    return st.lists(
        st.lists(st.integers(-max_entry, max_entry), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(IntMat.from_rows)


def low_rank_intmat(max_dim=5, max_entry=3, square=False):
    """Products of n x r and r x m factors: singular, rectangular, any rank."""
    dims = st.tuples(st.integers(1, max_dim), st.integers(1, max_dim), st.integers(1, max_dim))

    def build(nrm):
        n, r, m = nrm
        m = n if square else m
        return st.tuples(
            int_matrix(n, r, max_entry), int_matrix(r, m, max_entry)
        ).map(lambda ab: ab[0] * ab[1])

    return dims.flatmap(build)


class TestAgainstFractionOracle:
    """The kernel-derived functions against the textbook Fraction loops."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 6).flatmap(lambda n: int_matrix(n, n)) | low_rank_intmat(square=True))
    def test_int_det(self, a):
        assert F(a.det()) == oracle.det(a.entries)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.integers(1, 5).flatmap(lambda n: rational_matrix(n, n))
        | low_rank_intmat(square=True).map(lambda a: [[F(e, 3) for e in row] for row in a.entries])
    )
    def test_rational_det_and_inverse(self, rows):
        a = RatMat.from_rows(rows)
        det = oracle.det(rows)
        assert a.det() == det
        if det == 0:
            with pytest.raises(ValueError):
                a.inverse()
        else:
            assert a.inverse().entries == oracle.inverse(rows)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(low_rank_intmat() | small_intmat())
    def test_rank(self, a):
        assert _row_rank(a) == oracle.rank(a.entries)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        low_rank_intmat(),
        st.lists(st.builds(F, st.integers(-6, 6), st.integers(1, 4)), min_size=5, max_size=5),
        st.booleans(),
    )
    def test_solve(self, a, x, consistent):
        if consistent:
            # b = A*x: always solvable, unique only at full column rank
            b = [sum(e * xi for e, xi in zip(row, x)) for row in a.entries]
        else:
            b = x[: a.rows]
        sol = solve_rational(a, b)
        want = oracle.solve(a.entries, b)
        if want is None:
            assert sol is None
        else:
            assert (sol.particular, sol.kernel) == want


def test_bareiss_matches_fraction_gauss():
    rng = random.Random(4242)
    for _ in range(100):
        n = rng.randint(1, 5)
        a = IntMat.from_rows([[rng.randint(-8, 8) for _ in range(n)] for _ in range(n)])
        assert F(a.det()) == a.to_rational().det()


def test_normal_forms_with_large_entries():
    rng = random.Random(1729)
    for _ in range(20):
        n = rng.randint(2, 4)
        a = IntMat.from_rows(
            [[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(n)]
        )
        d, s, t = snf(a)
        assert (s * a * t).entries == d.entries
        assert s.det() in (1, -1) and t.det() in (1, -1)
        h, u = hnf(a)
        assert (u * a).entries == h.entries


def _char_poly(g: IntMat):
    """det(x*I - G) by Leibniz expansion over polynomials (test oracle)."""
    import itertools

    n = g.rows
    coeffs = [0] * (n + 1)

    def poly_mul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    total = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            k = start
            while not seen[k]:
                seen[k] = True
                k = perm[k]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = [1]
        for i in range(n):
            j = perm[i]
            entry = [-g.entries[i][j]] if i != j else [-g.entries[i][j], 1]
            term = poly_mul(term, entry)
        for k, c in enumerate(term):
            total[k] += sign * c
    return total


def _descartes_positive_roots(coeffs):
    """Sign changes = number of positive roots, all roots being real."""
    signs = [c for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def test_signature_against_characteristic_polynomial():
    # symmetric matrices have real spectra, so Descartes' rule counts the
    # positive and negative eigenvalues exactly: an oracle that shares no
    # code with the congruence reduction
    rng = random.Random(31337)
    for k in range(400):
        n = rng.randint(1, 5)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-4, 4)
            if k % 2:
                g[i][i] = 0  # all-zero diagonal: congruence steps only
        gm = IntMat.from_rows(g)
        p = _char_poly(gm)
        n_plus = _descartes_positive_roots(p)
        n_minus = _descartes_positive_roots([c * (-1) ** k for k, c in enumerate(p)])
        n_zero = next(k for k, c in enumerate(p) if c != 0)
        assert signature(gm) == (n_plus, n_minus, n_zero)
