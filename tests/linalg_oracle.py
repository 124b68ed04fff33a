"""Reference Fraction Gauss loops for the exact linear algebra.

These are the textbook eliminations over Q, one loop per operation, that
``evenlat.exactlinalg`` derives from its single fraction-free kernel.  The
differential tests compare the two; nothing here shares code with the
package.
"""

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


def rank(rows) -> int:
    return len(_rref(rows, len(rows[0]))[1])


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
