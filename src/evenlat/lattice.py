"""Integral lattices presented by Gram matrices.

A lattice here is a symmetric integer Gram matrix with cached invariants.
Dual vectors are stored in rational host-basis coordinates (membership in
the dual is the integrality of gram*coords), so lattice elements, dual
elements, and discriminant-group lifts share one coordinate system.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, prod
from operator import mul

from .exactlinalg import (
    IntMat,
    _check_rational,
    _clear_denominators,
    _dots,
    bilinear_table,
    block_diag,
    hnf_mod,
    kernel_saturated,
    rational_product,
    row_rank,
    signature,
    snf,
    snf_rational,
)


@dataclass(frozen=True)
class Lattice:
    gram: IntMat
    name: str | None = None

    def __post_init__(self):
        if not self.gram.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return self.gram.rows

    @cached_property
    def det(self) -> int:
        return self.gram.det()

    @property
    def is_nondegenerate(self) -> bool:
        return self.det != 0

    @cached_property
    def signature(self) -> tuple[int, int, int]:
        return signature(self.gram)

    @cached_property
    def is_even(self) -> bool:
        return all(self.gram.entries[i][i] % 2 == 0 for i in range(self.rank))

    def pairing(self, x, y) -> Fraction:
        """Bilinear form on rational coordinate vectors."""
        if len(x) != self.rank or len(y) != self.rank:
            raise ValueError("coordinate length does not match lattice rank")
        ((num,),), den = bilinear_table([x], self.gram.entries, [y])
        return Fraction(num, den)

    def dual_vector(self, coords) -> DualVector:
        coords = tuple(coords)
        _check_rational(coords)
        return DualVector(self, tuple(map(Fraction, coords)))

    def __repr__(self):
        label = self.name or f"rank-{self.rank} lattice"
        return f"Lattice({label}, det={self.det})"


@dataclass(frozen=True)
class DualVector:
    """A rational vector in the host-basis coordinates of a lattice."""

    lattice: Lattice
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != self.lattice.rank:
            raise ValueError("coordinate length does not match lattice rank")

    def in_dual(self) -> bool:
        (num,), den = rational_product([self.coords], self.lattice.gram.entries)
        return all(e % den == 0 for e in num)

    def pair(self, other: DualVector) -> Fraction:
        return self.lattice.pairing(self.coords, other.coords)


@dataclass(frozen=True)
class DiscGroupData:
    """Invariant factors, generator lifts and class table of the discriminant group.

    Generator i lifts to the dual vector ``lift_num[i] / lift_den``, in
    host-basis coordinates; ``lift_den`` is the least common denominator
    of all the lifts.  ``class_columns`` holds, for each generator j of
    order n_j, the integer column j of S^-1 reduced mod n_j, where
    S * gram^-1 * T = D is the rational SNF.  A dual vector v has the class
    ((v * gram) . col_j mod n_j)_j.  ``snf_diagonal`` is the diagonal of
    the full SNF D: 1/n_j at each generator and 1 at each unit factor,
    whose block ``discriminant_group`` leaves unreduced.
    """

    lattice: Lattice
    invariant_factors: tuple[int, ...]
    lift_num: tuple[tuple[int, ...], ...] = field(repr=False)
    lift_den: int
    class_columns: tuple[tuple[int, ...], ...] = field(repr=False)
    snf_diagonal: tuple[Fraction, ...] = field(repr=False)

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)


def discriminant_group(lattice: Lattice) -> DiscGroupData:
    """Discriminant group A_L = L*/L via the rational SNF S*gram^-1*T = D.

    The rows of S*gram^-1 form a Z-basis of the dual lattice; the
    generator lifts are those whose diagonal entry d_j = 1/n_j is
    non-integral.  ``snf_rational`` orders the diagonal so that each entry
    divides the previous one, so the invariant factors come out with
    n_i | n_(i+1).  A dual vector v has the coordinates (v*gram) * S^-1 in
    that basis, v*gram being integral, and S^-1 = gram^-1 * T * D^-1 has
    the integer column n_j * gram^-1 * T[:, j] for generator j; those
    columns, reduced mod n_j, are the class table.

    Only the generator rows of S and columns of T are read, so the SNF
    stops once the block left is integral: that block holds the unit
    factors d_i = 1, and the rows and columns before it are those of the
    full form.
    """
    if not lattice.is_nondegenerate:
        raise ValueError("discriminant group needs a nondegenerate lattice")
    inv = lattice.gram.inverse()
    d, s, t = snf_rational(inv, stop_mod=inv.den)
    # d_i = d.num[i][i] / d.den, whose reduced denominator is n_i; the
    # diagonal of the unreduced unit block is integral, so its n_i are 1
    diagonal = [d.num[i][i] for i in range(lattice.rank)]
    orders = [d.den // gcd(e, d.den) for e in diagonal]
    gens = [i for i, n in enumerate(orders) if n != 1]
    factors = tuple(orders[i] for i in gens)
    # one product den * gram^-1 * [S^T | T] on the generator columns, each
    # row of cols one column: gram^-1 is symmetric, so column i of
    # gram^-1 * S^T is row i of S * gram^-1
    t_cols = tuple(zip(*t.entries))
    cols = _dots([s.entries[i] for i in gens] + [t_cols[i] for i in gens], inv.num)
    den = inv.den
    k = len(gens)
    g = gcd(den, *(e for col in cols[:k] for e in col))
    lifts = tuple(tuple(e // g for e in col) for col in cols[:k])
    columns = tuple(tuple(e * n // den % n for e in col) for col, n in zip(cols[k:], factors))
    snf_diagonal = tuple(Fraction(1, n) for n in orders)
    return DiscGroupData(lattice, factors, lifts, den // g, columns, snf_diagonal)


# ---------------------------------------------------------------------------
# named lattices and sums

# negative definite E8: Dynkin diagram 1-2-3-4-5-6-7 with node 8 attached to 5
_E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7))


def _e8_gram() -> IntMat:
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2
    for i, j in _E8_EDGES:
        g[i][j] = g[j][i] = 1
    return IntMat.from_rows(g)


def _nikulin_gram() -> IntMat:
    # span of N1..N8 (disjoint, square -2) and their half sum; basis
    # {N1..N7, (N1+...+N8)/2}
    amb = IntMat.diagonal([-2] * 8)
    return _induced_gram_rational(amb, [[Fraction(1, 2)] * 8])


def _m_z2_3_gram() -> IntMat:
    # rank-14 span of m1..m14 (disjoint, square -2) plus three half sums
    half = Fraction(1, 2)
    gens = [
        [half] * 8 + [0] * 6,
        [0] * 4 + [half] * 8 + [0] * 2,
        [half, half, 0, 0, half, half, 0, 0, half, half, 0, 0, half, half],
    ]
    amb = IntMat.diagonal([-2] * 14)
    return _induced_gram_rational(amb, gens)


def _induced_gram_rational(ambient_gram: IntMat, rows, den: int = 1) -> IntMat:
    """Gram of the lattice Z^n + span(rows / den) inside a form of rank n.

    With the basis N / e from ``rational_span_basis``, the Gram is
    N * G * N^T / e^2.  G is symmetric, so only the entries on and above
    the diagonal are computed, and the others mirror them.
    """
    basis, e = rational_span_basis(rows, ambient_gram.rows, den)
    b = basis.entries
    n, e2 = len(b), e * e
    gram = [[0] * n for _ in range(n)]
    for i, x in enumerate(_dots(b, ambient_gram.entries)):
        for j in range(i, n):
            v, r = divmod(sum(map(mul, x, b[j])), e2)
            if r:
                raise ValueError("generators do not span an integral lattice")
            gram[i][j] = gram[j][i] = v
    return IntMat(tuple(map(tuple, gram)))


def rational_span_basis(rows, n: int, den: int = 1) -> tuple[IntMat, int]:
    """(N, e): N / e is the canonical Z-basis of Z^n + span(rows / den).

    rows mix ints and Fractions and may be empty.  The denominators are
    cleared once, to D, and N is the HNF of D * (Z^n + span), which
    contains D * Z^n, so ``hnf_mod`` finds it; N and D are then divided by
    their common gcd, so e is the least common denominator of N / e.
    """
    scaled, d = _clear_denominators(rows)
    d *= den
    h = hnf_mod(scaled, d, n)
    g = gcd(d, *(x for row in h.entries for x in row))
    return IntMat.from_rows([[x // g for x in row] for row in h.entries]), d // g


_DIAG_RE = re.compile(r"^diag\(\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\)$")
_U_RE = re.compile(r"^U\(\s*(-?\d+)\s*\)$")
_ANGLE_RE = re.compile(r"^<\s*(-?\d+)\s*>$")


def make_named(name: str) -> Lattice:
    """Standard lattices by name: U, U(m), E8, A1, diag(...), Nikulin, M_Z2_3."""
    token = name.strip()
    if token == "U":
        return Lattice(IntMat.from_rows([[0, 1], [1, 0]]), "U")
    m = _U_RE.match(token)
    if m:
        k = int(m.group(1))
        if k == 0:
            raise ValueError("U(0) is degenerate")
        return Lattice(IntMat.from_rows([[0, k], [k, 0]]), token)
    if token == "E8":
        return Lattice(_e8_gram(), "E8")
    if token == "A1":
        return Lattice(IntMat.from_rows([[-2]]), "A1")
    m = _DIAG_RE.match(token) or _ANGLE_RE.match(token)
    if m:
        diag = [int(x) for x in m.group(1).split(",")]
        if 0 in diag:
            raise ValueError(f"{token} is degenerate")
        return Lattice(IntMat.diagonal(diag), token)
    if token == "Nikulin":
        return Lattice(_nikulin_gram(), "Nikulin")
    if token == "M_Z2_3":
        return Lattice(_m_z2_3_gram(), "M_Z2_3")
    raise ValueError(f"unknown lattice name: {name!r}")


def parse_lattice_expr(expr: str) -> Lattice:
    """Direct sums of named lattices, e.g. 'U+U(2)+diag(-4,-4)'."""
    parts = expr.split("+")
    if not all(p.strip() for p in parts):
        raise ValueError(f"empty summand in lattice expression {expr!r}")
    lat = make_named(parts[0])
    for p in parts[1:]:
        lat = direct_sum(lat, make_named(p))
    return Lattice(lat.gram, expr.strip())


def direct_sum(*lattices: Lattice) -> Lattice:
    if not lattices:
        raise ValueError("direct sum of no lattices")
    g = block_diag(*(l.gram for l in lattices))
    name = "+".join(l.name or "?" for l in lattices)
    return Lattice(g, name)


def rescale(lattice: Lattice, m: int) -> Lattice:
    if m == 0:
        raise ValueError("rescaling by zero")
    name = f"{lattice.name}({m})" if lattice.name else None
    return Lattice(lattice.gram.scale(m), name)


# ---------------------------------------------------------------------------
# gcd invariants

def scale_gcd(lattice: Lattice) -> int:
    """gcd of all Gram entries: the largest d dividing every pairing x.y."""
    g = 0
    for row in lattice.gram.entries:
        for e in row:
            g = gcd(g, e)
    return g


def norm_gcd(lattice: Lattice) -> int:
    """gcd({g_ii} and {2 g_ij, i<j}): the largest d dividing every x^2."""
    n = lattice.rank
    g = 0
    for i in range(n):
        g = gcd(g, lattice.gram.entries[i][i])
        for j in range(i + 1, n):
            g = gcd(g, 2 * lattice.gram.entries[i][j])
    return g


# ---------------------------------------------------------------------------
# sublattices

@dataclass(frozen=True)
class SublatticeData:
    host: Lattice
    basis_coords: IntMat
    induced_gram: IntMat

    @property
    def rank(self) -> int:
        return self.basis_coords.rows

    @property
    def is_degenerate(self) -> bool:
        return self.induced_gram.det() == 0


def sublattice(host: Lattice, gens: IntMat) -> SublatticeData:
    """Sublattice spanned by integer generator rows (must be independent)."""
    if gens.cols != host.rank:
        raise ValueError("generator length does not match host rank")
    if row_rank(gens) != gens.rows:
        raise ValueError("generators are linearly dependent; use saturation instead")
    induced = gens * host.gram * gens.transpose()
    return SublatticeData(host, gens, induced)


def saturation(host: Lattice, gens: IntMat) -> IntMat:
    """Z-basis of (span tensor Q) intersected with Z^n; canonical HNF rows."""
    if gens.cols != host.rank:
        raise ValueError("generator length does not match host rank")
    ker = kernel_saturated(gens)
    if not ker:
        return IntMat.identity(host.rank)
    sat = kernel_saturated(IntMat.from_rows(ker))
    if not sat:
        raise ValueError("span is zero")
    return IntMat.from_rows(sat)


def is_primitive(host: Lattice, gens: IntMat) -> bool:
    """True iff the span of the rows is saturated in Z^n.

    The rows may be dependent: only the nonzero invariant factors count.
    """
    d, _, _ = snf(gens)
    return all(d.entries[i][i] in (0, 1) for i in range(min(gens.rows, gens.cols)))


def orthogonal_complement(host: Lattice, gens: IntMat | None) -> SublatticeData:
    """Saturated orthogonal complement of the span of gens inside the host.

    The induced Gram may be degenerate when the input span is degenerate;
    callers must inspect ``is_degenerate`` rather than rely on an error.
    """
    if gens is None:
        basis = IntMat.identity(host.rank)
        return SublatticeData(host, basis, host.gram)
    if gens.cols != host.rank:
        raise ValueError("generator length does not match host rank")
    pairing_rows = gens * host.gram
    ker = kernel_saturated(pairing_rows)
    if not ker:
        raise ValueError("orthogonal complement is zero; no basis to return")
    basis = IntMat.from_rows(ker)
    induced = basis * host.gram * basis.transpose()
    return SublatticeData(host, basis, induced)

