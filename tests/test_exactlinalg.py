import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import evenlat
import evenlat.discform as discform
import evenlat.exactlinalg as exactlinalg
import linalg_oracle as oracle
from evenlat.exactlinalg import (
    IntMat,
    RatMat,
    _bareiss,
    bilinear_table,
    hnf,
    hnf_mod,
    kernel_saturated,
    rational_product,
    row_rank,
    signature,
    snf,
    snf_rational,
    solve_rational,
)
from evenlat.lattice import Lattice, parse_lattice_expr

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


def hnf_against_oracle(a: IntMat) -> IntMat:
    """hnf(A), checked against the oracle's Hermite form and its transform.

    H equals the oracle's entry by entry, and the oracle's U is unimodular
    and carries A to it: U*A = hnf(A), det U = +-1.
    """
    h = hnf(a)
    want, u = oracle.hnf(a.entries)
    assert h.entries == want
    u = IntMat(u)
    assert (u * a).entries == h.entries
    assert u.det() in (1, -1)
    return h


class TestHNF:
    def test_identity(self):
        a = IntMat.identity(3)
        assert hnf_against_oracle(a).entries == a.entries

    def test_worked_example(self):
        a = IntMat.from_rows([[2, 4], [6, 8]])
        assert hnf_against_oracle(a).entries == ((2, 0), (0, 4))

    def test_zero_matrix(self):
        a = IntMat.from_rows([[0, 0], [0, 0]])
        assert hnf_against_oracle(a).entries == a.entries

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(small_intmat())
    def test_transform_identity(self, a):
        hnf_against_oracle(a)

    def test_invariant_under_unimodular_row_action(self):
        rng = random.Random(20240811)
        for _ in range(200):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            a = IntMat.from_rows(
                [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
            )
            p = random_unimodular(rng, n)
            assert hnf(p * a).entries == hnf(a).entries


def mod_hnf_case():
    """(rows, d, n): up to 4 rows of length n with entries of either sign."""
    return st.tuples(st.integers(1, 5), st.integers(1, 30)).flatmap(
        lambda nd: st.tuples(
            st.lists(
                st.lists(st.integers(-60, 60), min_size=nd[0], max_size=nd[0]), max_size=4
            ),
            st.just(nd[1]),
            st.just(nd[0]),
        )
    )


class TestHNFMod:
    """hnf_mod against the oracle's HNF of the stacked [d*I; rows]."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(mod_hnf_case())
    @example(([], 6, 3))                                # no rows: d*I
    @example(([[5, -7, 3]], 1, 3))                      # d = 1: Z^n
    @example(([[12, -24, 36], [0, 6, -6]], 6, 3))      # rows = 0 mod d
    @example(([[0, 0, 0], [2, -3, 4], [0, 0, 0]], 8, 3))  # zero rows
    @example(([[-3, -5], [-7, 2]], 12, 2))              # negative entries
    def test_matches_stacked_hnf(self, case):
        rows, d, n = case
        stacked = [[d * (i == j) for j in range(n)] for i in range(n)] + rows
        # d*I has full rank, so the first n rows are the nonzero ones
        assert hnf_mod(rows, d, n).entries == oracle.hnf(stacked)[0][:n]

    def test_worked_example(self):
        # span((1, 2)) + 4*Z^2 = {(a, b): b = 2a mod 4}
        assert hnf_mod([[1, 2]], 4, 2).entries == ((1, 2), (0, 4))


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
        [sol] = solve_rational(IntMat.identity(3), [[F(1, 2), 3, F(-7, 5)]])
        assert sol is not None and not sol.kernel
        assert sol.particular == (F(1, 2), F(3), F(-7, 5))

    def test_diagonal(self):
        [sol] = solve_rational(IntMat.diagonal([2, 2]), [[1, 3]])
        assert sol.particular == (F(1, 2), F(3, 2))

    def test_inconsistent(self):
        a = IntMat.from_rows([[1, 1], [1, 1]])
        assert solve_rational(a, [[0, 1]]) == [None]

    def test_underdetermined(self):
        a = IntMat.from_rows([[1, 1]])
        [sol] = solve_rational(a, [[2]])
        assert sol is not None and sol.kernel
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
        [sol] = solve_rational(q, [rhs])
        assert sol is not None and not sol.kernel
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


# zero, negative, integral and proper fractional entries, as ints or Fractions
MIXED_ENTRY = st.integers(-9, 9) | st.builds(F, st.integers(-9, 9), st.integers(1, 6))


def mixed_rows(rows, cols):
    return st.lists(
        st.lists(MIXED_ENTRY, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


def fraction_matrix(rows, cols):
    """Fraction rows: integer only, mixed denominators, one common denominator,
    or numerators sharing a factor c with a common denominator c * den, so
    that c cancels in every entry."""
    ints = st.lists(
        st.lists(st.integers(-9, 9), min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )
    return st.one_of(
        ints,
        mixed_rows(rows, cols),
        st.tuples(ints, st.integers(1, 12)).map(
            lambda a: [[F(e, a[1]) for e in row] for row in a[0]]
        ),
        st.tuples(ints, st.integers(1, 4), st.integers(2, 3)).map(
            lambda a: [[F(a[2] * e, a[2] * a[1]) for e in row] for row in a[0]]
        ),
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


@st.composite
def zero_heavy_intmat(draw, max_dim=6):
    """Sparse integer matrices, often rank-deficient or needing row swaps.

    A row with a zero in the pivot column sits out that step, so sparse
    rows sit out several steps in a row.  Optionally the rows with a zero
    in the first column come first, forcing a swap, and a combination of
    two rows is inserted, lowering the rank.
    """
    n, w = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    zeros = draw(st.integers(3, 9))
    cell = st.tuples(st.integers(0, 9), st.integers(-9, 9)).map(
        lambda t: 0 if t[0] < zeros else t[1]
    )
    rows = draw(st.lists(st.lists(cell, min_size=w, max_size=w), min_size=n, max_size=n))
    if draw(st.booleans()):
        rows.sort(key=lambda row: row[0] != 0)
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.insert(draw(st.integers(0, n)), [a * x + b * y for x, y in zip(rows[i], rows[j])])
    return IntMat.from_rows(rows)


class TestBareissKernel:
    """Both modes of the lazily scaled kernel against the Fraction RREF."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(zero_heavy_intmat() | low_rank_intmat(max_dim=6))
    def test_both_modes(self, a):
        rows = a.entries
        reduced, want_pivots = oracle.rref(rows)
        det = oracle.det(rows) if a.rows == a.cols else None
        for above in (True, False):
            m = [list(row) for row in rows]
            pivots, d, sign = _bareiss(m, above=above)
            assert pivots == want_pivots
            assert len(pivots) == oracle.rank(rows)
            if det is not None:
                assert (sign * d if len(pivots) == a.rows else 0) == det
            if above:
                assert m == [[d * e for e in row] for row in reduced]

    def test_pivot_row_keeps_its_scale(self):
        # the pivot row counts as being at the new scale after its step;
        # left at the old one, the final rescale would double it
        m = [[2, 5], [0, 0]]
        assert _bareiss(m) == ([0], 2, 1)
        assert m == [[2, 5], [0, 0]]


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
        | st.integers(1, 4).flatmap(lambda n: fraction_matrix(n, n))
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
        assert row_rank(a) == oracle.rank(a.entries)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        low_rank_intmat(),
        st.lists(
            st.tuples(
                st.booleans(),
                st.lists(
                    st.builds(F, st.integers(-6, 6), st.integers(1, 4)), min_size=5, max_size=5
                ),
            ),
            max_size=4,
        ),
    )
    def test_solve(self, a, draws):
        # up to four sides per matrix, consistent and drawn ones in a drawn
        # order: b = A*x is always solvable, unique only at full column
        # rank; a drawn b is inconsistent once it leaves the column space
        sides = [
            [sum(e * xi for e, xi in zip(row, x)) for row in a.entries] if consistent
            else x[: a.rows]
            for consistent, x in draws
        ]
        sols = solve_rational(a, sides)
        assert len(sols) == len(sides)
        for sol, b in zip(sols, sides):
            want = oracle.solve(a.entries, b)
            if want is None:
                assert sol is None
            else:
                assert (sol.particular, sol.kernel) == want


def with_zero_rows(mats):
    """The drawn matrices with any subset of their rows replaced by zeros."""
    def zero_out(a):
        return st.lists(st.booleans(), min_size=a.rows, max_size=a.rows).map(
            lambda zs: IntMat.from_rows(
                [0] * a.cols if z else row for z, row in zip(zs, a.entries)
            )
        )

    return mats.flatmap(zero_out)


class TestNormalFormsAgainstTwoMatrixForms:
    """The one-table HNF and SNF against the forms that step each transform apart."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(low_rank_intmat(max_dim=6) | small_intmat(max_dim=7) | with_zero_rows(small_intmat()))
    def test_identical_outputs(self, a):
        hnf_against_oracle(a)
        d, s, t = snf(a)
        assert (d.entries, s.entries, t.entries) == oracle.snf(a.entries)


class TestKernelAgainstTwoHermiteForms:
    """The kernel read off one HNF of [A^T | I] against the transform route."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(low_rank_intmat(max_dim=6) | small_intmat(max_dim=6) | with_zero_rows(small_intmat()))
    @example(IntMat.from_rows([[0, 0, 0], [0, 0, 0]]))            # kernel Z^3
    @example(IntMat.from_rows([[2, 1, 0], [0, 3, 5], [1, 0, 7]]))  # full rank: no kernel
    def test_matches_oracle(self, a):
        rows = kernel_saturated(a)
        assert rows == oracle.kernel_saturated(a.entries)
        assert len(rows) == a.cols - row_rank(a)


class TestRationalProduct:
    """The denominator-cleared integer product against entry-by-entry Fractions."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)).flatmap(
            lambda d: st.tuples(
                mixed_rows(d[0], d[1]), int_matrix(d[1], d[2]), mixed_rows(d[1], d[2])
            )
        )
    )
    def test_product(self, args):
        a, b, c = args
        num, den = rational_product(a, b.entries)
        assert tuple(tuple(F(e, den) for e in row) for row in num) == oracle.matmul(a, b.entries)
        assert (RatMat.from_rows(a) * RatMat.from_rows(c)).entries == oracle.matmul(a, c)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.tuples(st.integers(1, 5), st.integers(0, 3), st.integers(0, 3)).flatmap(
            lambda d: st.tuples(
                int_matrix(d[0], d[0]), mixed_rows(d[1], d[0]), mixed_rows(d[2], d[0])
            )
        )
    )
    def test_bilinear_table(self, args):
        # 1x1 forms and empty sides (a unimodular lattice has no lifts) included
        gram, xs, ys = args
        num, den = bilinear_table(xs, gram.entries, ys)
        assert [[F(e, den) for e in row] for row in num] == [
            [oracle.pairing(gram.entries, x, y) for y in ys] for x in xs
        ]

    def test_no_rows(self):
        assert rational_product([], [[1, 2], [3, 4]]) == ([], 1)


def fractions(rows):
    return tuple(tuple(F(e) for e in row) for row in rows)


class TestRationalRepresentation:
    """RatMat's integer rows over a least denominator against Fraction entries."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).flatmap(
            lambda d: st.tuples(
                fraction_matrix(d[0], d[1]), fraction_matrix(d[0], d[1]), fraction_matrix(d[1], d[2])
            )
        )
    )
    def test_against_oracle(self, draws):
        # det and inverse: TestAgainstFractionOracle draws these matrices too
        ra, rb, rc = draws
        a, b, c = map(RatMat.from_rows, draws)
        want = fractions(ra)
        assert a.entries == want
        assert a.den == math.lcm(*(e.denominator for row in want for e in row))
        assert (a * c).entries == oracle.matmul(ra, rc)
        assert a.transpose().entries == tuple(zip(*want))
        if all(e.denominator == 1 for row in want for e in row):
            assert a.to_integer().entries == tuple(tuple(map(int, row)) for row in want)
        else:
            with pytest.raises(ValueError):
                a.to_integer()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.tuples(st.integers(1, 2), st.integers(1, 2)).flatmap(
            lambda d: st.tuples(fraction_matrix(*d), fraction_matrix(*d))
        )
    )
    def test_equal_exactly_when_entries_are(self, draws):
        a, b = map(RatMat.from_rows, draws)
        assert (a == b) == (a.entries == b.entries)
        # the same matrix reached by another route has the same fields
        again = a.transpose().transpose() * RatMat.from_rows(
            [[int(i == j) for j in range(a.cols)] for i in range(a.cols)]
        )
        assert again == a and hash(again) == hash(a)


SCRAMBLE_BLOCKS = (("U", 2), ("E8", 8), ("U(2)", 2), ("U(4)", 2), ("A1", 1), ("<-4>", 1))


class TestRationalSNFAgainstClearing:
    """snf_rational on stored integer rows against clearing Fraction entries."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 5).flatmap(lambda n: fraction_matrix(n, n)))
    def test_random_matrices(self, rows):
        a = RatMat.from_rows(rows)
        if oracle.det(rows) == 0:
            with pytest.raises(ValueError):
                snf_rational(a)
            return
        d, s, t = snf_rational(a)
        assert (d.entries, s.entries, t.entries) == oracle.snf_rational(rows)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_scrambled_inverse_grams(self, seed):
        # sums of U, E8, U(2), U(4), A1 and <-4> up to rank 22 under n/2
        # random row additions, as the benchmark's discriminant-form queries
        rng = random.Random(seed)
        blocks, rank = [], 0
        target = rng.randint(2, 22)
        while rank < target:
            block, size = rng.choice(SCRAMBLE_BLOCKS)
            if rank + size <= 22:
                blocks.append(block)
                rank += size
        gram = parse_lattice_expr("+".join(blocks)).gram
        u = random_unimodular(rng, rank, steps=rank // 2)
        inv = (u * gram * u.transpose()).inverse()
        d, s, t = snf_rational(inv)
        assert (d.entries, s.entries, t.entries) == oracle.snf_rational(inv.entries)


class TestIntegerEntries:
    @pytest.mark.parametrize("bad", [F(1, 2), F(3), True, 2.0])
    def test_non_int_entries_rejected(self, bad):
        # a Fraction such as 1/2 must never be truncated to 0
        with pytest.raises(TypeError):
            IntMat.from_rows([[1, bad]])
        with pytest.raises(TypeError):
            IntMat.diagonal([bad])
        with pytest.raises(TypeError):
            RatMat(((1, bad),))

    @pytest.mark.parametrize("bad", [True, 2.0, F(2)])
    def test_non_int_denominator_rejected(self, bad):
        with pytest.raises(TypeError):
            RatMat(((1,),), bad)

    @pytest.mark.parametrize(
        "num, den", [(((1,),), 0), (((1,),), -1), (((2,),), 4), (((0, 0),), 2), (((2, 4),), 6)]
    )
    def test_denominator_not_least_rejected(self, num, den):
        with pytest.raises(ValueError):
            RatMat(num, den)

    @pytest.mark.parametrize("bad", [2.0, "1/2", True, 0.5, "1"])
    def test_from_rows_takes_ints_and_fractions(self, bad):
        assert RatMat.from_rows([[1, F(2, 4)]]) == RatMat(((2, 1),), 2)
        with pytest.raises(TypeError):
            RatMat.from_rows([[1, bad]])
        # every rational row is checked where its denominators are cleared;
        # none is converted with Fraction(), which would read 0.5 as 1/2
        with pytest.raises(TypeError, match="int or Fraction"):
            rational_product([[1, bad]], [[1, 2], [3, 4]])
        one = IntMat.identity(1)
        assert solve_rational(one, [[F(1, 3)]])[0].particular == (F(1, 3),)
        with pytest.raises(TypeError, match="int or Fraction"):
            solve_rational(one, [[bad]])
        assert Lattice(one).dual_vector([F(1, 2)]).coords == (F(1, 2),)
        with pytest.raises(TypeError, match="int or Fraction"):
            Lattice(one).dual_vector([bad])


def test_from_lattice_makes_one_fraction_in_exactlinalg(monkeypatch):
    # a rank-22 discriminant form: the inverse, its determinant, the rational
    # SNF and the lift product run on integer rows; the one Fraction is the
    # value that the nonsingularity check's RatMat.det returns
    gram = parse_lattice_expr("U+E8+E8+U(2)+<-4>+<-4>").gram
    u = random_unimodular(random.Random(3), 22, steps=11)
    lat = Lattice(u * gram * u.transpose())
    made = []

    class Counting(Fraction):
        def __new__(cls, *args):
            made.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(exactlinalg, "Fraction", Counting)
    module = discform.from_lattice(lat)
    assert module.orders == (2, 2, 4, 4)
    assert len(made) == 1


def test_only_exactlinalg_runs_bareiss():
    # the elimination kernel stays private: every other module goes through
    # the solvers built on it (det, inverse, solve_rational, row_rank)
    offenders = set()
    for path in sorted(Path(evenlat.__file__).parent.glob("*.py")):
        if path.stem == "exactlinalg":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and "_bareiss" in (a.name for a in node.names):
                offenders.add(path.stem)
            elif isinstance(node, ast.Attribute) and node.attr == "_bareiss":
                offenders.add(path.stem)
    assert offenders == set()


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
        hnf_against_oracle(a)


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


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: IntMat.identity(2) * IntMat.identity(3), "dimension mismatch in product",
                 id="int-product"),
    pytest.param(lambda: IntMat.from_rows([[1, 2]]).det(), "determinant of a non-square",
                 id="int-det"),
    pytest.param(lambda: IntMat.identity(2).stack(IntMat.identity(3)),
                 "dimension mismatch in stack", id="stack"),
    pytest.param(lambda: RatMat.from_rows([[1, 2]]) * RatMat.from_rows([[1, 2]]),
                 "dimension mismatch in product", id="rational-product"),
    pytest.param(lambda: RatMat.from_rows([[1, F(1, 2)]]).det(), "determinant of a non-square",
                 id="rational-det"),
    pytest.param(lambda: RatMat.from_rows([[1, 2]]).inverse(), "inverse of a non-square",
                 id="rational-inverse"),
    pytest.param(lambda: snf_rational(RatMat.from_rows([[1, 2]])), "determinant of a non-square",
                 id="rational-snf"),
    pytest.param(lambda: IntMat(()), "at least 1x1", id="no-rows"),
    pytest.param(lambda: IntMat(((),)), "at least 1x1", id="empty-row"),
    pytest.param(lambda: IntMat(((1, 2), (3,))), "ragged rows", id="ragged"),
    pytest.param(lambda: solve_rational(IntMat.identity(2), [[1, 2, 3]]), "right-hand side",
                 id="solve-side"),
])
def test_shape_rules(call, message):
    # each call is well formed but for its shape
    with pytest.raises(ValueError, match=message):
        call()
