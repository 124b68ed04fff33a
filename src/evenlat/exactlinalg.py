"""Exact dense linear algebra over the integers and rationals.

Everything here is arbitrary precision: matrices carry Python ints or
``fractions.Fraction`` entries and no operation ever rounds.  The normal
forms (Hermite, Smith) return their unimodular transforms so callers can
replay every identity exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


@dataclass(frozen=True)
class IntMat:
    """Immutable dense integer matrix, row-major."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise ValueError("matrix dimensions must be at least 1x1")
        width = len(self.entries[0])
        for row in self.entries:
            if len(row) != width:
                raise ValueError("ragged rows")
            for e in row:
                if not isinstance(e, int):
                    raise TypeError(f"integer entry expected, got {type(e).__name__}")

    @classmethod
    def from_rows(cls, rows) -> IntMat:
        return cls(tuple(tuple(int(e) for e in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> IntMat:
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> IntMat:
        return cls(tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def diagonal(cls, diag) -> IntMat:
        d = tuple(int(x) for x in diag)
        n = len(d)
        return cls(tuple(tuple(d[i] if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.entries[ij[0]][ij[1]]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def transpose(self) -> IntMat:
        return IntMat(tuple(zip(*self.entries)))

    def __mul__(self, other: IntMat) -> IntMat:
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        bt = tuple(zip(*other.entries))
        return IntMat(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
                for row in self.entries
            )
        )

    def __add__(self, other: IntMat) -> IntMat:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in sum")
        return IntMat(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            )
        )

    def __neg__(self) -> IntMat:
        return self.scale(-1)

    def scale(self, m: int) -> IntMat:
        return IntMat(tuple(tuple(m * e for e in row) for row in self.entries))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.entries for e in row)

    def to_rational(self) -> RatMat:
        return RatMat(tuple(tuple(Fraction(e) for e in row) for row in self.entries))

    def det(self) -> int:
        """Determinant by fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        pivots, d, sign = _bareiss([list(row) for row in self.entries])
        return sign * d if len(pivots) == self.rows else 0

    def inverse(self) -> RatMat:
        return self.to_rational().inverse()

    def stack(self, other: IntMat) -> IntMat:
        if self.cols != other.cols:
            raise ValueError("dimension mismatch in stack")
        return IntMat(self.entries + other.entries)

    def submatrix(self, row_indices, col_indices) -> IntMat:
        return IntMat(
            tuple(tuple(self.entries[i][j] for j in col_indices) for i in row_indices)
        )


@dataclass(frozen=True)
class RatMat:
    """Immutable dense rational matrix; entries are normalized Fractions."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise ValueError("matrix dimensions must be at least 1x1")
        width = len(self.entries[0])
        for row in self.entries:
            if len(row) != width:
                raise ValueError("ragged rows")
            for e in row:
                if not isinstance(e, Fraction):
                    raise TypeError(f"Fraction entry expected, got {type(e).__name__}")

    @classmethod
    def from_rows(cls, rows) -> RatMat:
        return cls(tuple(tuple(Fraction(e) for e in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> RatMat:
        one, zero = Fraction(1), Fraction(0)
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.entries[ij[0]][ij[1]]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def transpose(self) -> RatMat:
        return RatMat(tuple(zip(*self.entries)))

    def __mul__(self, other: RatMat) -> RatMat:
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        bt = tuple(zip(*other.entries))
        return RatMat(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
                for row in self.entries
            )
        )

    def __add__(self, other: RatMat) -> RatMat:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in sum")
        return RatMat(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            )
        )

    def scale(self, m: Fraction) -> RatMat:
        return RatMat(tuple(tuple(m * e for e in row) for row in self.entries))

    def is_integral(self) -> bool:
        return all(e.denominator == 1 for row in self.entries for e in row)

    def to_integer(self) -> IntMat:
        if not self.is_integral():
            raise ValueError("matrix has non-integral entries")
        return IntMat(tuple(tuple(int(e) for e in row) for row in self.entries))

    def denominator_lcm(self) -> int:
        d = 1
        for row in self.entries:
            for e in row:
                d = lcm(d, e.denominator)
        return d

    def det(self) -> Fraction:
        """det(den*A) / den^n, den*A being the integer matrix cleared of denominators."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        rows, den = _clear_denominators(self.entries)
        pivots, d, sign = _bareiss(rows)
        return Fraction(sign * d, den**self.rows) if len(pivots) == self.rows else Fraction(0)

    def inverse(self) -> RatMat:
        """Gauss-Jordan inverse of den*A on [den*A | I]; raises on singular input."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        rows, den = _clear_denominators(self.entries)
        m = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
        pivots, d, _ = _bareiss(m)
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        # m = d * [I | (den*A)^-1]
        return RatMat(tuple(tuple(Fraction(den * e, d) for e in row[n:]) for row in m))


def block_diag(*mats: IntMat) -> IntMat:
    """Block-diagonal sum of integer matrices."""
    total_r = sum(m.rows for m in mats)
    total_c = sum(m.cols for m in mats)
    out = [[0] * total_c for _ in range(total_r)]
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                out[r0 + i][c0 + j] = m.entries[i][j]
        r0 += m.rows
        c0 += m.cols
    return IntMat.from_rows(out)


# ---------------------------------------------------------------------------
# row operations shared by the normal forms (operate on lists of lists)

def _swap(m: list[list[int]], i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def _negate_row(m: list[list[int]], i: int) -> None:
    m[i] = [-e for e in m[i]]


def _addmul_row(m: list[list[int]], dst: int, src: int, q: int) -> None:
    if q:
        m[dst] = [a + q * b for a, b in zip(m[dst], m[src])]


def _clear_denominators(rows) -> tuple[list[list[int]], int]:
    """(den * rows as integer lists, den), den the lcm of all denominators."""
    den = 1
    for row in rows:
        for e in row:
            den = lcm(den, e.denominator)
    return [[e.numerator * (den // e.denominator) for e in row] for row in rows], den


def _pivot_step(m: list[list[int]], r: int, c: int, prev: int) -> None:
    """One fraction-free Gauss-Jordan step on pivot m[r][c].

    Every other row becomes (p * row - row[c] * m[r]) / prev, p = m[r][c]
    and prev the previous pivot (1 before the first).  Each entry is then a
    minor of the input, so the division is exact.
    """
    pivot_row = m[r]
    p = pivot_row[c]
    for i, row in enumerate(m):
        if i == r:
            continue
        f = row[c]
        if f:
            m[i] = [(p * a - f * b) // prev for a, b in zip(row, pivot_row)]
        elif p != prev:
            m[i] = [p * a // prev for a in row]


def _bareiss(m: list[list[int]]) -> tuple[list[int], int, int]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of integer rows, in place.

    Leaves m equal to d times its reduced row echelon form, zero rows at the
    bottom, where d is the last pivot (1 when there is none).  Returns the
    pivot columns, d and the sign of the row swaps.  For a square matrix of
    full rank, sign * d is the determinant.
    """
    pivots: list[int] = []
    d = sign = 1
    for c in range(len(m[0])):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            _swap(m, r, piv)
            sign = -sign
        _pivot_step(m, r, c, d)
        d = m[r][c]
        pivots.append(c)
    return pivots, d, sign


def hnf(a: IntMat) -> tuple[IntMat, IntMat]:
    """Row Hermite normal form with transform: U*A = H, det U = +-1.

    Convention: row echelon, positive pivots, entries above each pivot
    reduced into [0, pivot); zero rows at the bottom.
    """
    m, n = a.rows, a.cols
    h = [list(row) for row in a.entries]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if h[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            _swap(h, r, piv)
            _swap(u, r, piv)
        for i in range(r + 1, m):
            if h[i][c] != 0:
                a0, b0 = h[r][c], h[i][c]
                if b0 % a0 == 0:
                    q = -(b0 // a0)
                    _addmul_row(h, i, r, q)
                    _addmul_row(u, i, r, q)
                else:
                    x, y, g = xgcd(a0, b0)
                    ag, bg = a0 // g, b0 // g
                    hr, hi = h[r], h[i]
                    ur, ui = u[r], u[i]
                    h[r] = [x * p + y * q for p, q in zip(hr, hi)]
                    h[i] = [-bg * p + ag * q for p, q in zip(hr, hi)]
                    u[r] = [x * p + y * q for p, q in zip(ur, ui)]
                    u[i] = [-bg * p + ag * q for p, q in zip(ur, ui)]
        if h[r][c] < 0:
            _negate_row(h, r)
            _negate_row(u, r)
        for i in range(r):
            q = -(h[i][c] // h[r][c])
            _addmul_row(h, i, r, q)
            _addmul_row(u, i, r, q)
        r += 1
        if r == m:
            break
    return IntMat.from_rows(h), IntMat.from_rows(u)


def snf(a: IntMat) -> tuple[IntMat, IntMat, IntMat]:
    """Smith normal form with transforms: S*A*T = D.

    D is diagonal with nonnegative invariant factors d1 | d2 | ... ;
    S, T are unimodular.  Pivots are chosen by minimal absolute value
    to limit coefficient growth.
    """
    m, n = a.rows, a.cols
    d = [list(row) for row in a.entries]
    s = [[int(i == j) for j in range(m)] for i in range(m)]
    t = [[int(i == j) for j in range(n)] for i in range(n)]

    def col_combine(mat, trans, j, k, c_row):
        # column operations via the transposed picture
        a0, b0 = mat[c_row][j], mat[c_row][k]
        if b0 == 0:
            return
        if a0 == 0:
            for row in mat:
                row[j], row[k] = row[k], row[j]
            for row in trans:
                row[j], row[k] = row[k], row[j]
            return
        if b0 % a0 == 0:
            q = b0 // a0
            for row in mat:
                row[k] -= q * row[j]
            for row in trans:
                row[k] -= q * row[j]
            return
        x, y, g = xgcd(a0, b0)
        ag, bg = a0 // g, b0 // g
        for row in mat:
            pj, pk = row[j], row[k]
            row[j] = x * pj + y * pk
            row[k] = -bg * pj + ag * pk
        for row in trans:
            pj, pk = row[j], row[k]
            row[j] = x * pj + y * pk
            row[k] = -bg * pj + ag * pk

    rank_bound = min(m, n)
    k = 0
    while k < rank_bound:
        piv = None
        best = None
        for i in range(k, m):
            for j in range(k, n):
                e = d[i][j]
                if e != 0 and (best is None or abs(e) < best):
                    best = abs(e)
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        if pi != k:
            _swap(d, k, pi)
            _swap(s, k, pi)
        if pj != k:
            for row in d:
                row[k], row[pj] = row[pj], row[k]
            for row in t:
                row[k], row[pj] = row[pj], row[k]
        while True:
            for i in range(k + 1, m):
                if d[i][k] != 0:
                    a0, b0 = d[k][k], d[i][k]
                    if b0 % a0 == 0:
                        q = -(b0 // a0)
                        _addmul_row(d, i, k, q)
                        _addmul_row(s, i, k, q)
                    else:
                        x, y, g = xgcd(a0, b0)
                        ag, bg = a0 // g, b0 // g
                        dk, di = d[k], d[i]
                        sk, si = s[k], s[i]
                        d[k] = [x * p + y * q for p, q in zip(dk, di)]
                        d[i] = [-bg * p + ag * q for p, q in zip(dk, di)]
                        s[k] = [x * p + y * q for p, q in zip(sk, si)]
                        s[i] = [-bg * p + ag * q for p, q in zip(sk, si)]
            for j in range(k + 1, n):
                if d[k][j] != 0:
                    col_combine(d, t, k, j, k)
            if all(d[i][k] == 0 for i in range(k + 1, m)) and all(
                d[k][j] == 0 for j in range(k + 1, n)
            ):
                # enforce divisibility of the remaining block by the pivot
                stuck = None
                p = d[k][k]
                for i in range(k + 1, m):
                    for j in range(k + 1, n):
                        if d[i][j] % p != 0:
                            stuck = i
                            break
                    if stuck is not None:
                        break
                if stuck is None:
                    break
                _addmul_row(d, k, stuck, 1)
                _addmul_row(s, k, stuck, 1)
        k += 1
    for i in range(min(m, n)):
        if d[i][i] < 0:
            _negate_row(d, i)
            _negate_row(s, i)
    return IntMat.from_rows(d), IntMat.from_rows(s), IntMat.from_rows(t)


def snf_rational(a: RatMat) -> tuple[RatMat, IntMat, IntMat]:
    """Smith normal form of a nonsingular rational matrix.

    Clears the global lcm of denominators, runs the integer SNF, and
    rescales back, so S and T stay unimodular over the integers.  The
    diagonal is ordered with the largest entry first (each entry divides
    the previous one in Q); for the inverse Gram matrix of a lattice this
    puts the unit factors first and the discriminant denominators last.
    """
    if a.rows != a.cols:
        raise ValueError("rational SNF requires a square matrix")
    if a.det() == 0:
        raise ValueError("rational SNF requires a nonsingular matrix")
    scaled, mden = _clear_denominators(a.entries)
    d_int, s, t = snf(IntMat.from_rows(scaled))
    n = a.rows
    # reverse the divisibility chain: largest invariant factor first
    perm = list(range(n - 1, -1, -1))
    diag = [Fraction(d_int.entries[i][i], mden) for i in perm]
    d = RatMat.from_rows(
        [[diag[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    )
    s_rev = IntMat.from_rows([s.entries[i] for i in perm])
    t_rev = IntMat.from_rows([[t.entries[i][perm[j]] for j in range(n)] for i in range(n)])
    return d, s_rev, t_rev


def signature(g: IntMat) -> tuple[int, int, int]:
    """Sign counts (n_plus, n_minus, n_zero) of a symmetric matrix.

    Fraction-free symmetric elimination: pivot on a nonzero diagonal entry
    of the block not yet used as pivots.  That block is the previous pivot
    times the Schur complement, so the sign of pivot_k / pivot_(k-1) is
    the sign of the square split off.  When its diagonal is all zero, the
    congruence e_i += e_j with g_ij != 0 makes the diagonal entry 2*g_ij;
    it touches only rows and columns not yet used, so the division stays
    exact.
    """
    if not g.is_symmetric():
        raise ValueError("signature requires a symmetric matrix")
    m = [list(row) for row in g.entries]
    active = list(range(g.rows))
    n_plus = n_minus = 0
    prev = 1
    while active:
        piv = next((i for i in active if m[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in active for j in active if i < j and m[i][j]), None)
            if pair is None:
                break
            piv, j = pair
            m[piv] = [a + b for a, b in zip(m[piv], m[j])]
            for row in m:
                row[piv] += row[j]
        p = m[piv][piv]
        if (p > 0) == (prev > 0):
            n_plus += 1
        else:
            n_minus += 1
        _pivot_step(m, piv, piv, prev)
        prev = p
        active.remove(piv)
    return n_plus, n_minus, len(active)


@dataclass(frozen=True)
class RationalSolution:
    """A solution of A*x = b: one particular solution and a kernel basis."""

    particular: tuple[Fraction, ...]
    kernel: tuple[tuple[Fraction, ...], ...]

    @property
    def is_unique(self) -> bool:
        return not self.kernel


def solve_rational(a: IntMat, b) -> RationalSolution | None:
    """Solve A*x = b exactly over Q.

    b is a sequence of rationals of length a.rows.  Returns None when the
    system is inconsistent; otherwise a particular solution together with
    a basis of the rational kernel (empty when the solution is unique).
    """
    rhs = [Fraction(e) for e in b]
    if len(rhs) != a.rows:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    n = a.cols
    (cleared,), den = _clear_denominators([rhs])
    # [A | den*b] becomes d * its reduced row echelon form
    mat = [list(row) + [e] for row, e in zip(a.entries, cleared)]
    pivots, d, _ = _bareiss(mat)
    if pivots and pivots[-1] == n:
        return None
    x = [Fraction(0)] * n
    for row, c in zip(mat, pivots):
        x[c] = Fraction(row[n], d * den)
    kernel = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, c in zip(mat, pivots):
            v[c] = Fraction(-row[fc], d)
        kernel.append(tuple(v))
    return RationalSolution(tuple(x), tuple(kernel))


def kernel_saturated(a: IntMat) -> tuple[tuple[int, ...], ...]:
    """Z-basis of the saturated right kernel {x in Z^n : A*x^T = 0}.

    The rows returned are primitive (unit invariant factors) and in row
    Hermite normal form, so the output is canonical.  May be empty.
    """
    h, u = hnf(a.transpose())
    zero_rows = [i for i in range(h.rows) if all(e == 0 for e in h.entries[i])]
    if not zero_rows:
        return ()
    basis = IntMat.from_rows([u.entries[i] for i in zero_rows])
    canon = hnf(basis)[0]
    return tuple(row for row in canon.entries if any(e != 0 for e in row))


def lattice_rows_hnf(rows: IntMat) -> IntMat:
    """Canonical basis (HNF, zero rows dropped) of the row span over Z."""
    h, _ = hnf(rows)
    keep = [row for row in h.entries if any(e != 0 for e in row)]
    if not keep:
        raise ValueError("zero lattice has no basis rows")
    return IntMat.from_rows(keep)
