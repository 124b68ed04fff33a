"""Exact dense linear algebra over the integers and rationals.

Everything here is arbitrary precision: matrices carry Python ints, a
rational matrix being integer rows over one least denominator, and no
operation ever rounds.  The Smith forms return their unimodular
transforms so callers can replay every identity exactly.  The Hermite
forms build none: ``hnf`` reduces A alone, and ``hnf_mod``, the HNF of
a lattice containing d*Z^n, works mod d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul


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
        _check_int_rows(self.entries)

    @classmethod
    def from_rows(cls, rows) -> IntMat:
        return cls(tuple(map(tuple, rows)))

    @classmethod
    def identity(cls, n: int) -> IntMat:
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def diagonal(cls, diag) -> IntMat:
        d = tuple(diag)
        n = len(d)
        return cls(tuple(tuple(d[i] if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def transpose(self) -> IntMat:
        return IntMat(tuple(zip(*self.entries)))

    def __mul__(self, other: IntMat) -> IntMat:
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        return IntMat(tuple(map(tuple, _dots(self.entries, tuple(zip(*other.entries))))))

    def scale(self, m: int) -> IntMat:
        return IntMat(tuple(tuple(m * e for e in row) for row in self.entries))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def to_rational(self) -> RatMat:
        return RatMat(self.entries)

    def det(self) -> int:
        """Determinant by fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        pivots, d, sign = _bareiss([list(row) for row in self.entries], "below")
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
    """Immutable dense rational matrix num / den, stored in integers.

    num holds integer rows and den >= 1 is the least common denominator of
    the entries, so gcd(den, every entry of num) == 1 and equal matrices
    have equal fields.  ``entries`` is a read-only view as Fractions.
    """

    num: tuple[tuple[int, ...], ...]
    den: int = 1

    def __post_init__(self):
        _check_int_rows(self.num)
        if type(self.den) is not int:
            raise TypeError(f"integer denominator expected, got {type(self.den).__name__}")
        if self.den < 1:
            raise ValueError("denominator must be at least 1")
        if self.den != 1 and gcd(self.den, *chain.from_iterable(self.num)) != 1:
            raise ValueError("denominator must be the least common denominator")

    @classmethod
    def from_rows(cls, rows) -> RatMat:
        """The matrix of rows of ints and Fractions."""
        rows = [tuple(row) for row in rows]
        # the lcm of the denominators of normalized entries is already least
        num, den = _clear_denominators(rows)
        return cls(tuple(map(tuple, num)), den)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(e, self.den) for e in row) for row in self.num)

    @property
    def rows(self) -> int:
        return len(self.num)

    @property
    def cols(self) -> int:
        return len(self.num[0])

    def transpose(self) -> RatMat:
        return RatMat(tuple(zip(*self.num)), self.den)

    def __mul__(self, other: RatMat) -> RatMat:
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        return _reduced(_dots(self.num, tuple(zip(*other.num))), self.den * other.den)

    def is_integral(self) -> bool:
        return self.den == 1

    def to_integer(self) -> IntMat:
        if not self.is_integral():
            raise ValueError("matrix has non-integral entries")
        return IntMat(self.num)

    def det(self) -> Fraction:
        """det(num) / den^n."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        pivots, d, sign = _bareiss([list(row) for row in self.num], "below")
        return Fraction(sign * d, self.den**self.rows) if len(pivots) == self.rows else Fraction(0)

    def inverse(self) -> RatMat:
        """The inverse den * num^-1; raises on singular input.

        ``_bareiss`` runs Gauss-Jordan on num alone, writing the inverse
        into the columns it has eliminated, instead of on [num | I].
        """
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        m = [list(row) for row in self.num]
        _, d, _ = _bareiss(m, "inverse")
        # m = d * num^-1
        return _reduced([[self.den * e for e in row] for row in m], d)


def _check_int_rows(rows) -> None:
    """Raise unless rows is a nonempty rectangle of ints (bools excluded)."""
    if not rows or not rows[0]:
        raise ValueError("matrix dimensions must be at least 1x1")
    width = len(rows[0])
    types = set()
    for row in rows:
        if len(row) != width:
            raise ValueError("ragged rows")
        types.update(map(type, row))
    types.discard(int)
    if types:
        raise TypeError(f"integer entry expected, got {types.pop().__name__}")


def _reduced(rows, den: int) -> RatMat:
    """The RatMat rows / den for integer rows and a nonzero den, in lowest terms."""
    g = gcd(den, *chain.from_iterable(rows))
    if den < 0:
        g = -g
    if g != 1:
        rows = [[e // g for e in row] for row in rows]
    return RatMat(tuple(map(tuple, rows)), den // g)


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
# unimodular steps shared by the normal forms (operate on lists of lists)

def _addmul_row(m: list[list[int]], dst: int, src: int, q: int) -> None:
    if q:
        m[dst] = [a + q * b for a, b in zip(m[dst], m[src])]


def _gcd_rows(m: list[list[int]], r: int, i: int, c: int) -> None:
    """Zero m[i][c] against the pivot m[r][c] != 0 by a unimodular step on rows r and i.

    m[r][c] stays nonzero: it is unchanged, or becomes gcd(m[r][c], m[i][c]).
    """
    a0, b0 = m[r][c], m[i][c]
    if b0 % a0 == 0:
        _addmul_row(m, i, r, -(b0 // a0))
        return
    x, y, g = xgcd(a0, b0)
    ag, bg = a0 // g, b0 // g
    mr, mi = m[r], m[i]
    m[r] = [x * p + y * q for p, q in zip(mr, mi)]
    m[i] = [-bg * p + ag * q for p, q in zip(mr, mi)]


def _gcd_cols(m: list[list[int]], j: int, k: int, r: int) -> None:
    """Zero m[r][k] against the pivot m[r][j] != 0 by a unimodular step on columns j and k.

    The step runs down every row of m; m[r][j] stays nonzero as in ``_gcd_rows``.
    """
    a0, b0 = m[r][j], m[r][k]
    if b0 % a0 == 0:
        q = b0 // a0
        for row in m:
            row[k] -= q * row[j]
        return
    x, y, g = xgcd(a0, b0)
    ag, bg = a0 // g, b0 // g
    for row in m:
        pj, pk = row[j], row[k]
        row[j] = x * pj + y * pk
        row[k] = -bg * pj + ag * pk


def _check_rational(entries) -> None:
    """Raise ``TypeError`` unless every entry is an int or a Fraction."""
    bad = set(map(type, entries)) - {int, Fraction}
    if bad:
        raise TypeError(f"int or Fraction entry expected, got {bad.pop().__name__}")


def _clear_denominators(rows) -> tuple[list[list[int]], int]:
    """(den * rows as integer lists, den), den the lcm of all denominators.

    Every rational row passes through here, so this is where an entry that
    is not an int or a Fraction (a bool included) raises ``TypeError``;
    ``Lattice.dual_vector`` makes the same check on its coordinates.
    """
    _check_rational(chain.from_iterable(rows))
    den = lcm(*{e.denominator for row in rows for e in row})
    return [[e.numerator * (den // e.denominator) for e in row] for row in rows], den


def _dots(a, b) -> list[list[int]]:
    """a * b^T for integer rows a and b: the table of their dot products."""
    return [[sum(map(mul, x, y)) for y in b] for x in a]


def rational_product(rows, mat) -> tuple[list[list[int]], int]:
    """The product rows * mat of rational rows and an integer matrix.

    rows mix ints and Fractions; mat is a sequence of integer rows.
    Returns (num, den) with rows * mat = num / den: the denominators of
    rows are cleared once, with den their lcm, the product is taken over
    Z, and the caller divides once.  den is not reduced against num.
    """
    num, den = _clear_denominators(rows)
    return _dots(num, tuple(zip(*mat))), den


def bilinear_table(xs, gram, ys) -> tuple[list[list[int]], int]:
    """The table of x * gram * y^T over rational rows x of xs and y of ys.

    Returns (num, den) as ``rational_product`` does; xs or ys may be empty.
    """
    left, dx = rational_product(xs, gram)
    right, dy = _clear_denominators(ys)
    return _dots(left, right), dx * dy


def _bareiss(m: list[list[int]], mode: str = "reduce") -> tuple[list[int], int, int]:
    """Fraction-free (Bareiss) elimination of integer rows, in place.

    Returns the pivot columns, the last pivot d (1 when there is none) and
    the sign of the row swaps; for a square matrix of full rank, sign * d
    is the determinant.  ``mode`` says how much of m is kept:

    - "reduce" (Gauss-Jordan): the rows above each pivot are eliminated
      too, and m ends as d times its reduced row echelon form, zero rows
      at the bottom.
    - "inverse": m is square, and it ends as d * m^-1 (Gauss-Jordan by
      column replacement).  A column without a pivot raises "matrix is
      singular".
    - "below": only the rows below each pivot are eliminated, and only in
      the columns right of the pivot: the pivot row and the rows below it
      are zero left of it, so nothing else can change.  Only the pivots
      and d are meaningful.

    At the step on pivot p = m[r][c], with prev the previous pivot, eager
    Bareiss replaces each other row by (p * row - row[c] * m[r]) / prev:
    its entries stay minors of the input, so the division is exact.  For
    row[c] == 0 that only rescales the row by p / prev, so such a row is
    left alone here, and scale[i] records the pivot it was last brought
    to: the eager row is row * prev / scale[i].  Substituted into the step,
    the factor prev / scale[i] cancels, and a combined row becomes
    (p * row - row[c] * m[r]) / scale[i], at scale p.  The pivot row is
    brought to prev before its step and is at scale p after it; in the
    Gauss-Jordan modes every row is brought to d at the end.

    The inverse mode is the "reduce" mode on [m | I] without the I.  Up to
    the step on row r, the identity column of the input row now at r is
    that row's scale in row r and zero elsewhere, and after the step
    column c is p in row r and zero elsewhere.  So the step writes the
    identity column into column c: prev in the pivot row and
    -row[c] * prev / scale[i] in a combined row, zero in a row that sits
    out.  Column c then holds the identity column of the row that was its
    pivot row, and undoing the row swaps on the columns at the end gives
    d * m^-1.
    """
    n = len(m)
    below, inverse = mode == "below", mode == "inverse"
    pivots: list[int] = []
    scale = [1] * n
    order = list(range(n))
    d = sign = 1
    for c in range(len(m[0])):
        r = len(pivots)
        if r == n:
            break
        piv = next((i for i in range(r, n) if m[i][c]), None)
        if piv is None:
            if inverse:
                raise ValueError("matrix is singular")
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            scale[r], scale[piv] = scale[piv], scale[r]
            order[r], order[piv] = order[piv], order[r]
            sign = -sign
        s = scale[r]
        if below:
            p, tail = m[r][c], m[r][c + 1:]
            if s != d:
                p, tail = p * d // s, [a * d // s for a in tail]
            for i in range(r + 1, n):
                row = m[i]
                f = row[c]
                if f:
                    s = scale[i]
                    row[c + 1:] = [(p * a - f * b) // s for a, b in zip(row[c + 1:], tail)]
                    scale[i] = p
        else:
            if s != d:
                m[r] = [a * d // s for a in m[r]]
            pivot_row = m[r]
            p = pivot_row[c]
            for i in range(n):
                row = m[i]
                f = row[c]
                if i == r or not f:
                    continue
                s = scale[i]
                m[i] = row = [(p * a - f * b) // s for a, b in zip(row, pivot_row)]
                if inverse:
                    row[c] = -f * d // s
                scale[i] = p
            if inverse:
                pivot_row[c] = d
        scale[r] = d = p
        pivots.append(c)
    if not below:
        for i, s in enumerate(scale):
            if s != d:
                m[i] = [a * d // s for a in m[i]]
    if inverse and order != list(range(n)):
        # column k holds the identity column of input row order[k]
        where = sorted(range(n), key=order.__getitem__)
        for i, row in enumerate(m):
            m[i] = [row[k] for k in where]
    return pivots, d, sign


def hnf(a: IntMat) -> IntMat:
    """Row Hermite normal form H = U*A of A, for some unimodular U.

    Convention: row echelon, positive pivots, entries above each pivot
    reduced into [0, pivot); zero rows at the bottom.  The row steps
    reduce A alone, so U is not built.
    """
    m, n = a.rows, a.cols
    h = [list(row) for row in a.entries]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if h[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            h[r], h[piv] = h[piv], h[r]
        for i in range(r + 1, m):
            if h[i][c] != 0:
                _gcd_rows(h, r, i, c)
        if h[r][c] < 0:
            h[r] = [-e for e in h[r]]
        for i in range(r):
            _addmul_row(h, i, r, -(h[i][c] // h[r][c]))
        r += 1
        if r == m:
            break
    return IntMat.from_rows(h)


def snf(a: IntMat, *, stop_mod: int | None = None) -> tuple[IntMat, IntMat, IntMat]:
    """Smith normal form with transforms: S*A*T = D.

    D is diagonal with nonnegative invariant factors d1 | d2 | ... ;
    S, T are unimodular.  Pivots are chosen by minimal absolute value
    to limit coefficient growth: step k pivots on the first entry of
    least absolute value, in row-major order, of the block of rows and
    columns >= k.  The steps run on one table: [A | I_m] over I_n.  Row
    steps touch its first m rows and column steps its first n columns,
    so it ends as [D | S] over T.

    With ``stop_mod``, a positive int, the elimination stops before step
    k once the block of rows and columns >= k is divisible by stop_mod;
    the one scan of that block that looks for the pivot decides it.  Then
    every invariant factor left is a multiple of stop_mod.  S*A*T = D
    still holds, D is diagonal in its first k rows and columns, and the
    trailing block is left unreduced.  Step k touches only rows and
    columns >= k, so the first k diagonal entries, rows of S and columns
    of T are those of the full form.
    """
    m, n = a.rows, a.cols
    d = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(a.entries)]
    d += [[int(i == j) for j in range(n)] for i in range(n)]
    rank_bound = min(m, n)
    k = 0
    while k < rank_bound:
        # one scan of the block left: the pivot, and whether some entry
        # is not divisible by stop_mod
        piv = None
        best = 0
        live = stop_mod is None
        for i in range(k, m):
            for j, e in enumerate(d[i][k:n], k):
                if e:
                    if not live and e % stop_mod:
                        live = True
                    if not best or abs(e) < best:
                        best = abs(e)
                        piv = (i, j)
        if piv is None or not live:
            break
        pi, pj = piv
        if pi != k:
            d[k], d[pi] = d[pi], d[k]
        if pj != k:
            for row in d:
                row[k], row[pj] = row[pj], row[k]
        while True:
            for i in range(k + 1, m):
                if d[i][k] != 0:
                    _gcd_rows(d, k, i, k)
            for j in range(k + 1, n):
                if d[k][j] != 0:
                    _gcd_cols(d, k, j, k)
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
        k += 1
    for i in range(k):
        if d[i][i] < 0:
            d[i] = [-e for e in d[i]]
    return (
        IntMat.from_rows(row[:n] for row in d[:m]),
        IntMat.from_rows(row[n:] for row in d[:m]),
        IntMat.from_rows(d[m:]),
    )


def snf_rational(a: RatMat, *, stop_mod: int | None = None) -> tuple[RatMat, IntMat, IntMat]:
    """Smith normal form of a nonsingular rational matrix.

    Runs the integer SNF on num and divides by den, so S and T stay
    unimodular over the integers.  The diagonal is ordered with the
    largest entry first (each entry divides the previous one in Q); for
    the inverse Gram matrix of a lattice this puts the unit factors first
    and the discriminant denominators last.

    ``stop_mod`` goes to ``snf`` on num.  With stop_mod = den, the block
    left unreduced is integral and comes first: for the inverse Gram
    matrix it holds exactly the unit factors, since num = den * gram^-1
    has the invariant factors den / d_i for those d_i of the Gram matrix.
    """
    if a.det() == 0:
        raise ValueError("rational SNF requires a nonsingular matrix")
    d_int, s, t = snf(IntMat(a.num), stop_mod=stop_mod)
    # reverse the divisibility chain: largest invariant factor first
    d = _reduced([row[::-1] for row in d_int.entries[::-1]], a.den)
    return d, IntMat(s.entries[::-1]), IntMat(tuple(row[::-1] for row in t.entries))


def signature(g: IntMat) -> tuple[int, int, int]:
    """Sign counts (n_plus, n_minus, n_zero) of a symmetric matrix.

    Fraction-free symmetric elimination: pivot on a nonzero diagonal entry
    of the block not yet used as pivots.  That block is the previous pivot
    times the Schur complement, so the sign of pivot_k / pivot_(k-1) is
    the sign of the square split off.  When its diagonal is all zero, the
    congruence e_i += e_j with g_ij != 0 makes the diagonal entry 2*g_ij;
    it touches only rows and columns not yet used, so the division stays
    exact.  Nothing outside that block is read, so m holds only the block:
    each step removes its pivot's row and column and updates the rest.
    """
    if not g.is_symmetric():
        raise ValueError("signature requires a symmetric matrix")
    m = [list(row) for row in g.entries]
    n_plus = n_minus = 0
    prev = 1
    while m:
        piv = next((i for i, row in enumerate(m) if row[i]), None)
        if piv is None:
            pair = next(
                ((i, j) for i, row in enumerate(m) for j in range(i + 1, len(m)) if row[j]), None
            )
            if pair is None:
                break
            piv, j = pair
            m[piv] = [a + b for a, b in zip(m[piv], m[j])]
            for row in m:
                row[piv] += row[j]
        pivot_row = m.pop(piv)
        p = pivot_row.pop(piv)
        if (p > 0) == (prev > 0):
            n_plus += 1
        else:
            n_minus += 1
        for i, row in enumerate(m):
            f = row.pop(piv)
            if f:
                m[i] = [(p * a - f * b) // prev for a, b in zip(row, pivot_row)]
            elif p != prev:
                m[i] = [p * a // prev for a in row]
        prev = p
    return n_plus, n_minus, len(m)


@dataclass(frozen=True)
class RationalSolution:
    """A solution of A*x = b: one particular solution and a kernel basis."""

    particular: tuple[Fraction, ...]
    kernel: tuple[tuple[Fraction, ...], ...]


def solve_rational(a: IntMat, sides) -> list[RationalSolution | None]:
    """Solve A*x = b exactly over Q for each right-hand side b in sides.

    Each b is a sequence of rationals of length a.rows.  One elimination of
    [A | den*B], B holding the sides as columns, serves them all, and the
    kernel basis (empty when solutions are unique) is shared.  The columns
    of A come first, so the first pivots are theirs; side t is consistent
    exactly when its column is zero below those pivot rows, and then its
    solution is its entries on them divided by den and the final pivot.
    Returns one solution per side, None for an inconsistent one.
    """
    cleared, den = _clear_denominators(sides)
    if any(len(b) != a.rows for b in cleared):
        raise ValueError("dimension mismatch between matrix and right-hand side")
    n = a.cols
    # [A | den*B] becomes d * its reduced row echelon form
    mat = [list(row) + [b[i] for b in cleared] for i, row in enumerate(a.entries)]
    pivots, d, _ = _bareiss(mat)
    pivots = [c for c in pivots if c < n]
    kernel = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, c in zip(mat, pivots):
            v[c] = Fraction(-row[fc], d)
        kernel.append(tuple(v))
    kernel = tuple(kernel)
    out = []
    for t in range(n, n + len(cleared)):
        if any(row[t] for row in mat[len(pivots):]):
            out.append(None)
            continue
        x = [Fraction(0)] * n
        for row, c in zip(mat, pivots):
            x[c] = Fraction(row[t], d * den)
        out.append(RationalSolution(tuple(x), kernel))
    return out


def row_rank(a: IntMat) -> int:
    """Rank of an integer matrix over Q."""
    return len(_bareiss([list(row) for row in a.entries], "below")[0])


def kernel_saturated(a: IntMat) -> tuple[tuple[int, ...], ...]:
    """Z-basis of the saturated right kernel {x in Z^n : A*x^T = 0}.

    Read off the HNF of [A^T | I], which is unique: its rows with a zero A^T
    part, cut to their I part, are the kernel's canonical HNF basis.  May be empty.
    """
    eye = IntMat.identity(a.cols).entries
    h = hnf(IntMat.from_rows(r + e for r, e in zip(a.transpose().entries, eye)))
    return tuple(row[a.rows:] for row in h.entries if not any(row[:a.rows]))


def hnf_mod(rows, d: int, n: int) -> IntMat:
    """Row HNF of span(rows) + d*Z^n, in ``hnf``'s convention, computed mod d.

    rows are integer rows of length n, possibly none, and d >= 1.  Every
    pivot divides d, so the work rows are kept reduced mod d and no
    transform is built (Cohen, Alg. 2.4.8).  Column by column, the live
    rows are gcd-ed into one pivot row p, and p[c] with d*e_c into
    g = x*p[c] + y*d: the basis row is x*p + y*d*e_c, and the other half
    of that unimodular step, -(d/g)*p + (p[c]/g)*d*e_c, is zero in column
    c and goes back to the work rows.  The entries above the pivots are
    reduced last, over the integers.  The HNF is unique, so the result is
    the nonzero rows of ``hnf`` of [d*I; rows], always n x n.
    """
    basis = []
    work = [[e % d for e in row] for row in rows]
    for c in range(n):
        pivot = None
        rest = []
        for w in work:
            if w[0]:
                if pivot is None:
                    pivot = w
                    continue
                a, b = pivot[0], w[0]
                if b % a == 0:
                    q = b // a
                    w = [(t - q * p) % d for p, t in zip(pivot, w)]
                else:
                    x, y, g = xgcd(a, b)
                    ag, bg = a // g, b // g
                    pivot, w = (
                        [(x * p + y * t) % d for p, t in zip(pivot, w)],
                        [(ag * t - bg * p) % d for p, t in zip(pivot, w)],
                    )
            if any(w):
                rest.append(w[1:])
        if pivot is None:
            basis.append([0] * c + [d] + [0] * (n - c - 1))
        else:
            x, _, g = xgcd(pivot[0], d)
            basis.append([0] * c + [g] + [x * e % d for e in pivot[1:]])
            left = [-(d // g) * e % d for e in pivot[1:]]
            if any(left):
                rest.append(left)
        work = rest
    for c in range(1, n):
        row = basis[c]
        for i in range(c):
            q = basis[i][c] // row[c]
            if q:
                basis[i] = [a - q * b for a, b in zip(basis[i], row)]
    return IntMat.from_rows(basis)
