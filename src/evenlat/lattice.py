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
from math import gcd

from .exactlinalg import (
    IntMat,
    _bareiss,
    _clear_denominators,
    block_diag,
    kernel_saturated,
    lattice_rows_hnf,
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
        g = self.gram.entries
        return sum(
            Fraction(x[i]) * g[i][j] * Fraction(y[j])
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def dual_vector(self, coords) -> DualVector:
        return DualVector(self, tuple(Fraction(c) for c in coords))

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
        g = self.lattice.gram.entries
        n = self.lattice.rank
        return all(
            sum(g[i][j] * self.coords[j] for j in range(n)).denominator == 1
            for i in range(n)
        )

    def pair(self, other: DualVector) -> Fraction:
        return self.lattice.pairing(self.coords, other.coords)

    def norm(self) -> Fraction:
        return self.pair(self)

    def add(self, other: DualVector) -> DualVector:
        return DualVector(self.lattice, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def scale(self, m) -> DualVector:
        f = Fraction(m)
        return DualVector(self.lattice, tuple(f * c for c in self.coords))


def contains(lattice: Lattice, v: DualVector) -> bool:
    """Membership of a rational vector in the lattice itself."""
    return all(c.denominator == 1 for c in v.coords)


@dataclass(frozen=True)
class DiscGroupData:
    """Invariant factors and generator lifts of the discriminant group.

    ``dual_transform`` (T) and ``dual_diagonal`` (the diagonal of D) come
    from S * gram^-1 * T = D; the rows of D * T^-1 are a Z-basis of the
    dual lattice.
    """

    lattice: Lattice
    invariant_factors: tuple[int, ...]
    generator_lifts: tuple[DualVector, ...]
    dual_transform: IntMat = field(repr=False)
    dual_diagonal: tuple[Fraction, ...] = field(repr=False)

    @property
    def order(self) -> int:
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n


def discriminant_group(lattice: Lattice) -> DiscGroupData:
    """Discriminant group A_L = L*/L via the rational SNF S*gram^-1*T = D.

    The rows of S*gram^-1 = D*T^-1 form a Z-basis of the dual lattice; the
    generator lifts are those whose diagonal invariant is non-integral.
    T and the diagonal of D are kept, so a dual vector v has coordinates
    v*T / D in that basis.
    """
    if not lattice.is_nondegenerate:
        raise ValueError("discriminant group needs a nondegenerate lattice")
    inv = lattice.gram.inverse()
    d, s, t = snf_rational(inv)
    dual_rows = s.to_rational() * inv
    factors = []
    lifts = []
    for i in range(lattice.rank):
        di = d.entries[i][i]
        if di.denominator != 1:
            factors.append(di.denominator)
            lifts.append(DualVector(lattice, dual_rows.entries[i]))
    factors_sorted = sorted(factors)
    if factors_sorted != factors:
        order = sorted(range(len(factors)), key=lambda k: factors[k])
        factors = [factors[k] for k in order]
        lifts = [lifts[k] for k in order]
    diagonal = tuple(d.entries[i][i] for i in range(lattice.rank))
    return DiscGroupData(lattice, tuple(factors), tuple(lifts), t, diagonal)


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
    rows = [[Fraction(int(i == j)) for j in range(8)] for i in range(7)]
    rows.append([Fraction(1, 2)] * 8)
    amb = IntMat.diagonal([-2] * 8)
    return _induced_gram_rational(amb, rows)


def _m_z2_3_gram() -> IntMat:
    # rank-14 span of m1..m14 (disjoint, square -2) plus three half sums
    half = Fraction(1, 2)
    gens = [[Fraction(int(i == j)) for j in range(14)] for i in range(14)]
    gens.append([half] * 8 + [Fraction(0)] * 6)
    gens.append([Fraction(0)] * 4 + [half] * 8 + [Fraction(0)] * 2)
    gens.append([half, half, 0, 0, half, half, 0, 0, half, half, 0, 0, half, half])
    gens = [[Fraction(e) for e in row] for row in gens]
    amb = IntMat.diagonal([-2] * 14)
    return _induced_gram_rational(amb, gens)


def _induced_gram_rational(ambient_gram: IntMat, gen_rows) -> IntMat:
    """Gram of the lattice generated by rational rows inside a form.

    With B = N / den for an integer N, the Gram is N * G * N^T / den^2.
    """
    num, den = _clear_denominators(rational_span_basis(gen_rows))
    n = IntMat.from_rows(num)
    scaled = n * ambient_gram * n.transpose()
    den2 = den * den
    if any(e % den2 for row in scaled.entries for e in row):
        raise ValueError("generators do not span an integral lattice")
    return IntMat.from_rows([[e // den2 for e in row] for row in scaled.entries])


def rational_span_basis(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Z-basis (canonical HNF scaled back) of the Z-span of rows of ints and Fractions."""
    scaled, den = _clear_denominators(rows)
    basis = lattice_rows_hnf(IntMat.from_rows(scaled))
    return tuple(tuple(Fraction(e, den) for e in row) for row in basis.entries)


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
    m = _DIAG_RE.match(token)
    if m:
        diag = [int(x) for x in m.group(1).split(",")]
        return Lattice(IntMat.diagonal(diag), token)
    m = _ANGLE_RE.match(token)
    if m:
        return Lattice(IntMat.diagonal([int(m.group(1))]), token)
    if token == "Nikulin":
        return Lattice(_nikulin_gram(), "Nikulin")
    if token == "M_Z2_3":
        return Lattice(_m_z2_3_gram(), "M_Z2_3")
    raise ValueError(f"unknown lattice name: {name!r}")


def parse_lattice_expr(expr: str) -> Lattice:
    """Direct sums of named lattices, e.g. 'U+U(2)+diag(-4,-4)'."""
    parts = [p for p in expr.split("+") if p.strip()]
    if not parts:
        raise ValueError("empty lattice expression")
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
# parity and gcd invariants

def is_even(lattice: Lattice) -> bool:
    return lattice.is_even


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

    def as_lattice(self, name: str | None = None) -> Lattice:
        return Lattice(self.induced_gram, name)


def sublattice(host: Lattice, gens: IntMat) -> SublatticeData:
    """Sublattice spanned by integer generator rows (must be independent)."""
    if gens.cols != host.rank:
        raise ValueError("generator length does not match host rank")
    if _row_rank(gens) != gens.rows:
        raise ValueError("generators are linearly dependent; use saturation instead")
    induced = gens * host.gram * gens.transpose()
    return SublatticeData(host, gens, induced)


def _row_rank(a: IntMat) -> int:
    return len(_bareiss([list(row) for row in a.entries])[0])


def saturation(host: Lattice, gens: IntMat) -> IntMat:
    """Z-basis of (span tensor Q) intersected with Z^n; canonical HNF rows."""
    if gens.cols != host.rank:
        raise ValueError("generator length does not match host rank")
    ker = kernel_saturated(gens)
    if not ker:
        return lattice_rows_hnf(IntMat.identity(host.rank))
    sat = kernel_saturated(IntMat.from_rows(ker))
    if not sat:
        raise ValueError("span is zero")
    return IntMat.from_rows(sat)


def is_primitive(host: Lattice, gens: IntMat) -> bool:
    """True iff the span of the rows is saturated in Z^n."""
    d, _, _ = snf(gens)
    k = min(gens.rows, gens.cols)
    diag = [d.entries[i][i] for i in range(k)]
    if any(x == 0 for x in diag[: gens.rows]):
        return False
    return all(x == 1 for x in diag[: gens.rows])


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


# ---------------------------------------------------------------------------
# uniqueness and splitting predicates for even lattices

def _require_even(lattice: Lattice) -> None:
    if not lattice.is_even:
        raise ValueError("predicate defined for even lattices only")


def min_generators(lattice: Lattice) -> int:
    """l(A_L): the minimum number of generators of the discriminant group."""
    return len(discriminant_group(lattice).invariant_factors)


def nikulin_unique(lattice: Lattice) -> bool:
    """Even indefinite L with rank >= 2 + l(A_L) is unique in its genus."""
    _require_even(lattice)
    t_plus, t_minus, t_zero = lattice.signature
    if t_zero or t_plus < 1 or t_minus < 1:
        return False
    return t_plus + t_minus >= 2 + min_generators(lattice)


def splits_E8(lattice: Lattice) -> bool:
    _require_even(lattice)
    t_plus, t_minus, t_zero = lattice.signature
    if t_zero:
        return False
    return t_plus >= 1 and t_minus >= 8 and t_plus + t_minus >= 9 + min_generators(lattice)


def splits_U(lattice: Lattice) -> bool:
    _require_even(lattice)
    t_plus, t_minus, t_zero = lattice.signature
    if t_zero:
        return False
    return t_plus >= 1 and t_minus >= 1 and t_plus + t_minus >= 3 + min_generators(lattice)


def two_elem_invariants(lattice: Lattice) -> tuple[tuple[int, int], int, int] | None:
    """(signature, l, delta) for a 2-elementary even lattice, else None.

    delta = 0 iff every value of the discriminant quadratic form is an
    integer mod 2Z; for 2-elementary groups checking the generator lifts
    suffices because 2*b(x, y) is always integral there.
    """
    _require_even(lattice)
    disc = discriminant_group(lattice)
    if any(d != 2 for d in disc.invariant_factors):
        return None
    delta = 0
    for lift in disc.generator_lifts:
        if lift.norm().denominator != 1:
            delta = 1
            break
    t_plus, t_minus, _ = lattice.signature
    return (t_plus, t_minus), len(disc.invariant_factors), delta
