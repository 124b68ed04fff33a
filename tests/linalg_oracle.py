"""Reference Fraction loops for the exact linear algebra.

These are the textbook eliminations over Q, one loop per operation, that
``evenlat.exactlinalg`` derives from its single fraction-free kernel, and
the entry-by-entry Fraction products that it replaced by one
denominator-cleared integer product, the Hermite and Smith forms that
step a matrix and its transforms separately (the package steps one
augmented table for the Smith form and builds no Hermite transform), the
rational Smith form that clears a Fraction matrix
where the package reads its stored integer rows, and the span basis of
Z^n and rational rows from the full Hermite form, where the package works
mod the denominator, and the saturated kernel from a Hermite transform
and a second Hermite form, where the package reads it off one Hermite
form of [A^T | I].  The
differential tests compare the two; nothing here shares code with the
package.
"""

import math
from fractions import Fraction


def det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    m = [[Fraction(e) for e in row] for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    res = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        res *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] * inv
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return sign * res


def inverse(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Gauss-Jordan inverse over Q; raises on singular input."""
    n = len(rows)
    m = [[Fraction(e) for e in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        m[k], m[piv] = m[piv], m[k]
        inv = 1 / m[k][k]
        m[k] = [e * inv for e in m[k]]
        for i in range(n):
            if i != k and m[i][k] != 0:
                f = m[i][k]
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return tuple(tuple(row[n:]) for row in m)


def _rref(rows, ncols):
    """Reduced row echelon form over Q, pivots searched in the first ncols columns."""
    m = [[Fraction(e) for e in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [e * inv for e in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [p - f * q for p, q in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rref(rows):
    """(reduced row echelon form over Q, pivot columns)."""
    return _rref(rows, len(rows[0]))


def rank(rows) -> int:
    return len(rref(rows)[1])


def solve(rows, b):
    """(particular, kernel basis) of A*x = b over Q, or None when inconsistent."""
    n = len(rows[0])
    mat, pivots = _rref([list(row) + [e] for row, e in zip(rows, b)], n)
    if any(mat[i][n] != 0 for i in range(len(pivots), len(mat))):
        return None
    x = [Fraction(0)] * n
    for row_idx, c in enumerate(pivots):
        x[c] = mat[row_idx][n]
    kernel = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row_idx, c in enumerate(pivots):
            v[c] = -mat[row_idx][fc]
        kernel.append(tuple(v))
    return tuple(x), tuple(kernel)


def matmul(a, b):
    """Product of two matrices of ints and Fractions, entry by entry over Q."""
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum((Fraction(x) * y for x, y in zip(row, col)), Fraction(0)) for col in bt)
        for row in a
    )


def pairing(gram, x, y) -> Fraction:
    """x * gram * y^T as a double sum of Fraction products."""
    n = len(gram)
    return sum(
        (Fraction(x[i]) * gram[i][j] * Fraction(y[j]) for i in range(n) for j in range(n)),
        Fraction(0),
    )


def pair(config, u, v) -> Fraction:
    """u . v over the curves of a configuration, skipping zero coordinates."""
    g = config.gram.entries
    n = config.size
    total = Fraction(0)
    for i in range(n):
        if u[i]:
            for j in range(n):
                if v[j]:
                    total += u[i] * g[i][j] * v[j]
    return total


def in_dual(gram, coords) -> bool:
    """Every entry of gram * coords^T is an integer."""
    n = len(gram)
    return all(
        sum((gram[i][j] * Fraction(coords[j]) for j in range(n)), Fraction(0)).denominator == 1
        for i in range(n)
    )


# The two-matrix normal forms: every unimodular step is applied to the
# matrix and then, separately, to its transform.  ``evenlat.exactlinalg``
# runs the Smith steps once on an augmented table, and its D, S and T must
# equal these entry for entry.  Its Hermite form builds no transform: its
# H must equal this H, and this U must carry A to it.

def _entries(m):
    return tuple(map(tuple, m))


def _swap(m: list[list[int]], i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def _negate_row(m: list[list[int]], i: int) -> None:
    m[i] = [-e for e in m[i]]


def _addmul_row(m: list[list[int]], dst: int, src: int, q: int) -> None:
    if q:
        m[dst] = [a + q * b for a, b in zip(m[dst], m[src])]


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


def hnf(rows):
    """Row Hermite normal form with transform: U*A = H, det U = +-1.

    Convention: row echelon, positive pivots, entries above each pivot
    reduced into [0, pivot); zero rows at the bottom.
    """
    m, n = len(rows), len(rows[0])
    h = [list(row) for row in rows]
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
    return _entries(h), _entries(u)


def kernel_saturated(rows):
    """Canonical Z-basis of {x : A*x^T = 0}, by two Hermite forms.

    With U*A^T = H, the rows of U at the zero rows of H are a basis of the
    left kernel of A^T, saturated because U is unimodular; their Hermite
    form, by ``hnf`` above, is the canonical basis.
    """
    h, u = hnf([list(col) for col in zip(*rows)])
    basis = [u[i] for i, row in enumerate(h) if not any(row)]
    if not basis:
        return ()
    return tuple(row for row in hnf(basis)[0] if any(row))


def snf(rows):
    """Smith normal form with transforms: S*A*T = D.

    D is diagonal with nonnegative invariant factors d1 | d2 | ... ;
    S, T are unimodular.  Pivots are chosen by minimal absolute value
    to limit coefficient growth.
    """
    m, n = len(rows), len(rows[0])
    d = [list(row) for row in rows]
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
    return _entries(d), _entries(s), _entries(t)


def span_basis(rows, n):
    """Z-basis of Z^n + span(rows) for rational rows, as Fraction rows.

    The rows are cleared to D * rows, stacked under D * I, and put in
    Hermite form by ``hnf`` above; the n nonzero rows over D are the basis.
    """
    den = math.lcm(*(Fraction(e).denominator for row in rows for e in row))
    stacked = [[den * int(i == j) for j in range(n)] for i in range(n)]
    stacked += [[int(den * Fraction(e)) for e in row] for row in rows]
    h, _ = hnf(stacked)
    return tuple(tuple(Fraction(e, den) for e in row) for row in h[:n])


def snf_rational(rows):
    """(D as Fraction rows, S, T) for a nonsingular rational matrix, by clearing.

    The denominators are cleared by their lcm, the integer matrix goes
    through ``snf`` above, and the diagonal is divided back entry by entry
    and reversed, largest invariant factor first, with S's rows and T's
    columns reversed to match.
    """
    n = len(rows)
    den = math.lcm(*(Fraction(e).denominator for row in rows for e in row))
    d, s, t = snf([[int(den * Fraction(e)) for e in row] for row in rows])
    perm = range(n - 1, -1, -1)
    diag = [Fraction(d[i][i], den) for i in perm]
    d_rev = tuple(tuple(diag[i] if i == j else Fraction(0) for j in range(n)) for i in range(n))
    s_rev = tuple(s[i] for i in perm)
    t_rev = tuple(tuple(row[j] for j in perm) for row in t)
    return d_rev, s_rev, t_rev
