"""Labeled configurations of smooth rational curves.

A configuration is its labels and one intersection matrix.  A
presentation of a lattice spanned by curves is one lattice and one
coordinate map from curve combinations to its basis: ``present`` gives the
plain span, with the radical of the intersection matrix quotiented out,
and ``rebase`` moves it onto a basis of rational curve combinations (an
overlattice of the span).  The module also implements branched
double-cover pullback, free involution quotients, and the GF(2) reduction
search that turns a candidate half-sum of curves into half the sum of four
pairwise disjoint ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add

from .exactlinalg import IntMat, _dots, _reduced, hnf, rational_product
from .lattice import Lattice


@dataclass(frozen=True)
class CurveConfig:
    """Labeled curves and their intersection matrix: self-intersections on
    the diagonal, nonnegative multiplicities off it."""

    labels: tuple[str, ...]
    gram: IntMat

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("curve labels must be unique")
        g = self.gram
        if g.rows != n or g.cols != n:
            raise ValueError(f"{g.rows}x{g.cols} Gram for {n} curve labels")
        if not g.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")
        if any(e < 0 for i, row in enumerate(g.entries) for j, e in enumerate(row) if i != j):
            raise ValueError("multiplicities must be nonnegative")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)


@dataclass(frozen=True)
class InvolutionAction:
    """A label permutation of order at most 2, given by 0-based images."""

    perm: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError("not a permutation")
        for i in range(n):
            if self.perm[self.perm[i]] != i:
                raise ValueError("permutation must have order at most 2")

    def is_isometry(self, config: CurveConfig) -> bool:
        g = config.gram.entries
        p = self.perm
        n = len(p)
        return all(g[p[i]][p[j]] == g[i][j] for i in range(n) for j in range(i, n))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i for i, j in enumerate(self.perm) if i == j)


# ---------------------------------------------------------------------------
# the lattice spanned by a configuration

@dataclass(frozen=True)
class CurvePresentation:
    """A lattice spanned by rational combinations of the curves, exactly.

    ``member`` maps a row coordinate vector over the curves to its
    coordinates in the basis of ``lattice``: ``coords(vec)`` is
    ``vec * member``, and the vector lies in the lattice exactly when those
    coordinates are integral.  For the plain curve span (``present``) the
    basis is Z^n modulo the Gram radical; ``rebase`` moves to a basis of
    rational curve combinations.  A vector of another length than the
    number of curves raises ``ValueError``.
    """

    config: CurveConfig
    lattice: Lattice
    member: IntMat = field(repr=False)

    def _check_length(self, vec) -> None:
        if len(vec) != self.config.size:
            raise ValueError(
                f"vector of length {len(vec)} over a configuration of {self.config.size} curves"
            )

    def _times(self, vec) -> tuple[list[int], int]:
        """(num, den) with vec * member = num / den, for a vector over the curves."""
        self._check_length(vec)
        (num,), den = rational_product([vec], self.member.entries)
        return num, den

    def coords(self, vec) -> tuple[Fraction, ...]:
        num, den = self._times(vec)
        return tuple(Fraction(e, den) for e in num)

    def contains(self, vec) -> bool:
        num, den = self._times(vec)
        return all(e % den == 0 for e in num)

    def row_sum(self, indices) -> list[int]:
        """The sum of the ``member`` rows of the curves at ``indices``.

        It is twice the coordinates of their half-sum, which therefore lies
        in the lattice exactly when every entry is even.
        """
        rows = self.member.entries
        total = [0] * self.member.cols
        for i in indices:
            total = list(map(add, total, rows[i]))
        return total

    def rebase(self, basis_vectors) -> CurvePresentation:
        """The presentation on the basis of the given rational curve combinations.

        With R the rows of their ``coords``, the membership matrix becomes
        member * R^-1 and the Gram R * G * R^T.  R is one product
        num / den of the vectors and ``member``, in lowest terms, so the
        Gram is num * G * num^T / den^2 in integers.  Raises ``ValueError``
        when a vector's length is not the number of curves, when R is
        singular, when member * R^-1 is not integral (the basis misses a
        curve, so it does not span a lattice holding them all), or when the
        Gram is not integral.
        """
        for vec in basis_vectors:
            self._check_length(vec)
        r = _reduced(*rational_product(basis_vectors, self.member.entries))
        member = self.member.to_rational() * r.inverse()
        if not member.is_integral():
            raise ValueError("basis does not span every curve")
        num, den = r.num, r.den
        # num * G * num^T, by rows: G is symmetric
        table = _dots(_dots(num, self.lattice.gram.entries), num)
        square = den * den
        if any(e % square for row in table for e in row):
            raise ValueError("basis Gram is not integral")
        gram = IntMat.from_rows([[e // square for e in row] for row in table])
        return CurvePresentation(self.config, Lattice(gram), member.to_integer())


def present(config: CurveConfig) -> CurvePresentation:
    """Quotient the curve span by the radical of its intersection matrix.

    One Hermite form U*[G | I] = [U*G | U] holds everything (Cohen, 2.4):
    its rows with a zero U*G part span the radical, and the r rows above
    them complete those to a basis of Z^n, so their images are a basis of
    the quotient, with Gram (U*G)[:r] * U[:r]^T.  A curve combination
    v = x*U has coordinates x[:r] there: ``member`` is the first r columns
    of U^-1.  Without a radical, the presentation is G on the curves.  A
    zero G raises ``ValueError``: the span is the zero lattice.
    """
    g = config.gram
    n = g.rows
    h = hnf(IntMat.from_rows(row + e for row, e in zip(g.entries, IntMat.identity(n).entries)))
    r = sum(1 for row in h.entries if any(row[:n]))
    if r == 0:
        raise ValueError("the intersection matrix is zero: the curves span the zero lattice")
    if r == n:
        return CurvePresentation(config, Lattice(g), IntMat.identity(n))
    u = h.submatrix(range(n), range(n, 2 * n))
    gram = h.submatrix(range(r), range(n)) * u.submatrix(range(r), range(n)).transpose()
    member = u.inverse().to_integer().submatrix(range(n), range(r))
    return CurvePresentation(config, Lattice(gram), member)


# ---------------------------------------------------------------------------
# branched double covers

@dataclass(frozen=True)
class CoverStep:
    """Branch data for one double cover, restricted to the tracked curves.

    ``branch`` names the (untracked) branch divisor components;
    ``branch_points`` lists, per tracked curve, the ids of its intersection
    points with the branch divisor; ``shared_points`` gives an id for each
    intersection point of two tracked curves (one id per intersection).
    ``marked_points`` are additional per-curve marked points (for instance
    the branch points of later covers) transported through the pullback.
    """

    branch: frozenset[str]
    branch_points: dict[str, tuple[str, ...]]
    shared_points: dict[frozenset, tuple[str, ...]]
    marked_points: dict[str, tuple[str, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class PullbackOption:
    """One consistent preimage configuration of a double-cover pullback."""

    config: CurveConfig
    label_map: dict
    shared_points: dict
    marked_points: dict


@dataclass(frozen=True)
class PullbackResult:
    options: tuple[PullbackOption, ...]

    @property
    def is_ambiguous(self) -> bool:
        return len(self.options) > 1

    def unique(self) -> PullbackOption:
        if self.is_ambiguous:
            raise ValueError(
                f"{len(self.options)} consistent point distributions; "
                "incidence data does not determine the pullback"
            )
        return self.options[0]


def double_cover_pullback(config: CurveConfig, step: CoverStep) -> PullbackResult:
    """Pull a configuration back through a double cover.

    Curves with no branch point split into two disjoint copies; curves with
    two branch points pull back to one irreducible curve with doubled
    self-intersection.  Intersections are distributed by the projection
    formula; where the incidence data leaves the sheet matching of two split
    curves undetermined, all consistent distributions are returned, one per
    vector of crossing counts.  A spanning forest of the split pairs, taken
    in sorted label order, keeps the first point of each forest pair on
    parallel sheets.  Each split pair then crosses the last k of its listed
    ids, k from 0 to its point count (one less on a forest pair), so there
    are prod (choices of k) options, in ascending lexicographic order of
    the counts.  Every pair of tracked curves must list one shared point id
    per intersection, all distinct, or ``ValueError`` is raised.  So is a
    branch or marked point id listed twice on one curve: a point listed
    twice in the branch points is a tangency to the branch divisor, not two
    ramification points.
    """
    tracked_branch = step.branch & set(config.labels)
    if tracked_branch:
        raise ValueError(f"tracked curves in the branch divisor: {sorted(tracked_branch)}")
    untracked = set().union(
        *step.shared_points, step.marked_points, step.branch_points
    ) - set(config.labels)
    if untracked:
        raise ValueError(
            f"shared, marked or branch points on untracked curves: {sorted(untracked)}"
        )
    mult = config.gram.entries
    for (i, a), (j, b) in itertools.combinations(enumerate(config.labels), 2):
        ids = step.shared_points.get(frozenset((a, b)), ())
        if len(ids) != mult[i][j]:
            raise ValueError(f"{a}.{b} = {mult[i][j]} but {len(ids)} shared point ids are listed")
        if len(set(ids)) != len(ids):
            raise ValueError(f"{a}.{b} lists a shared point id twice: {list(ids)}")
    for kind, points in (("branch", step.branch_points), ("marked", step.marked_points)):
        for lab, ids in points.items():
            if len(set(ids)) != len(ids):
                raise ValueError(f"{lab} lists a {kind} point id twice: {list(ids)}")
    kcount = {}
    for lab in config.labels:
        pts = step.branch_points.get(lab, ())
        if len(pts) % 2 != 0:
            raise ValueError(f"odd branch point count on {lab}")
        if len(pts) >= 4:
            raise ValueError(f"{len(pts)} branch points on {lab}: not supported here")
        kcount[lab] = len(pts)
    split = [lab for lab in config.labels if kcount[lab] == 0]
    ram = [lab for lab in config.labels if kcount[lab] == 2]

    # sheet matching of split pairs: each pair owns four entries of the
    # labelled matrix, fixed by how many of its points cross sheets
    comp = {lab: lab for lab in split}

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    pairs, tops = [], []
    for pair, ids in sorted(step.shared_points.items(), key=lambda kv: sorted(kv[0])):
        a, b = sorted(pair)
        if ids and a in split and b in split:
            ra, rb = find(a), find(b)
            tree = ra != rb
            if tree:
                comp[ra] = rb
            pairs.append((a, b))
            tops.append(len(ids) - tree)
    return PullbackResult(
        tuple(
            _assemble_pullback(config, step, ram, dict(zip(pairs, counts)))
            for counts in itertools.product(*(range(top + 1) for top in tops))
        )
    )


def _assemble_pullback(config, step, ram, crossed) -> PullbackOption:
    label_map = {lab: (lab,) if lab in ram else (lab + "a", lab + "b") for lab in config.labels}
    new_labels = [nl for copies in label_map.values() for nl in copies]
    idx = {lab: i for i, lab in enumerate(new_labels)}
    n = len(new_labels)
    gram = [[0] * n for _ in range(n)]
    g = config.gram.entries
    for i, lab in enumerate(config.labels):
        # a ramified curve's square doubles; each sheet of a split one keeps it
        for nl in label_map[lab]:
            gram[idx[nl]][idx[nl]] = 2 * g[i][i] if lab in ram else g[i][i]
    new_shared: dict[frozenset, list] = {}

    def sheet(lab, s):
        # a ramified curve is its own single sheet
        return lab if lab in ram else label_map[lab][s]

    for pair, ids in step.shared_points.items():
        a, b = sorted(pair)
        # preimage s of a point joins sheet s of a to sheet s of b, or to
        # sheet 1 - s on the last crossed[(a, b)] points of a split pair
        parallel = len(ids) - crossed.get((a, b), 0)
        for pos, pid in enumerate(ids):
            for s in (0, 1):
                x, y = sheet(a, s), sheet(b, s ^ (pos >= parallel))
                gram[idx[x]][idx[y]] += 1
                gram[idx[y]][idx[x]] += 1
                new_shared.setdefault(frozenset((x, y)), []).append(f"{pid}.{s}")
    new_marked: dict[str, list] = {}
    for lab, pts in step.marked_points.items():
        if lab in ram:
            # both preimages of a marked point land on the single component
            new_marked.setdefault(lab, []).extend(p + s for p in pts for s in (".0", ".1"))
        else:
            for copy, suffix in zip(label_map[lab], (".a", ".b")):
                new_marked.setdefault(copy, []).extend(p + suffix for p in pts)
    cfg = CurveConfig(tuple(new_labels), IntMat.from_rows(gram))
    return PullbackOption(
        cfg,
        label_map,
        {k: tuple(v) for k, v in new_shared.items()},
        {k: tuple(v) for k, v in new_marked.items()},
    )


# ---------------------------------------------------------------------------
# involution quotient

@dataclass(frozen=True)
class QuotientResult:
    config: CurveConfig
    orbit_map: dict


def quotient_by_involution(config: CurveConfig, act: InvolutionAction) -> QuotientResult:
    """Quotient a configuration by a free involution on its curves.

    Every orbit {R, iR} with R != iR maps to a single curve; images pair by
    the degree-2 projection formula, which assumes the involution's fixed
    points avoid the curves.  Fixed curves would need ramification data
    and are rejected.
    """
    if len(act.perm) != config.size:
        raise ValueError("involution length does not match configuration")
    if not act.is_isometry(config):
        raise ValueError("involution is not an isometry of the configuration")
    if act.fixed_points():
        raise ValueError("involution fixes a curve; quotient needs ramification data")
    g = config.gram.entries
    orbits = []
    seen = set()
    for i in range(config.size):
        if i in seen:
            continue
        j = act.perm[i]
        seen.update((i, j))
        orbits.append((i, j))
    labels = tuple(f"C{k + 1}" for k in range(len(orbits)))
    m = len(orbits)
    gram_q = [[0] * m for _ in range(m)]
    # the involution is an isometry, so (R_i + R_i').(R_j + R_j') / 2 = R_i.R_j + R_i.R_j'
    for a, (i, _) in enumerate(orbits):
        for b, (j, jp) in enumerate(orbits):
            gram_q[a][b] = g[i][j] + g[i][jp]
    cfg = CurveConfig(labels, IntMat.from_rows(gram_q))
    orbit_map = {
        labels[k]: (config.labels[i], config.labels[j]) for k, (i, j) in enumerate(orbits)
    }
    return QuotientResult(cfg, orbit_map)


# ---------------------------------------------------------------------------
# even-four certificates

@dataclass(frozen=True)
class EvenFourCertificate:
    """A replayable reduction of a half-sum to four disjoint curves.

    ``steps`` lists the 2-divisible families XORed into the start set, in
    order; the invariant replayed over Z is that half the sum of ``final``
    differs from half the sum of ``start`` by a lattice vector.
    """

    start: tuple[str, ...]
    steps: tuple[tuple[str, ...], ...]
    final: tuple[str, ...]


def find_even_four_certificate(
    halfsets, relations, pres: CurvePresentation
) -> tuple[EvenFourCertificate | None, ...]:
    """Search the GF(2) coset of each half-sum for four pairwise disjoint curves.

    The curves and their disjointness are those of the configuration of
    ``pres``.  ``relations`` are label sets whose half-sums must already lie
    in its lattice; each is checked once, before any search, and a failing
    relation is an error even when ``halfsets`` is empty.  Returns one entry
    per half-set, in order: the first certificate in deterministic order
    (shortest chains first), or None when the coset holds no disjoint
    weight-4 representative.  An unknown or repeated label in a halfset or
    a relation raises ``ValueError``: a repeated label would not be a
    half-sum of distinct curves.
    """
    labels = pres.config.labels
    index = {lab: i for i, lab in enumerate(labels)}
    starts = [_label_set(halfset, index, "halfset") for halfset in halfsets]
    rel_sets = []
    for rel in relations:
        chi = _label_set(rel, index, "relation")
        if any(e % 2 for e in pres.row_sum([index[lab] for lab in chi])):
            raise ValueError(f"relation half-sum not in the lattice: {sorted(chi)}")
        rel_sets.append(chi)
    return tuple(_coset_certificate(start, rel_sets, pres, index) for start in starts)


def _coset_certificate(start, rel_sets, pres, index) -> EvenFourCertificate | None:
    """The first disjoint weight-4 set in the coset of ``start``, combinations
    of fewer relations first, replayed over Z; None when there is none."""
    labels = pres.config.labels
    mult = pres.config.gram.entries
    for size in range(len(rel_sets) + 1):
        for combo in itertools.combinations(range(len(rel_sets)), size):
            current = set(start)
            for k in combo:
                current ^= rel_sets[k]
            if len(current) != 4:
                continue
            ids = sorted(index[lab] for lab in current)
            if any(mult[i][j] != 0 for i, j in itertools.combinations(ids, 2)):
                continue
            final = tuple(labels[i] for i in ids)
            cert = EvenFourCertificate(
                tuple(sorted(start)),
                tuple(tuple(sorted(rel_sets[k])) for k in combo),
                final,
            )
            _replay_check(cert, pres)
            return cert
    return None


def half_sum(indices, n: int) -> list:
    """Half the sum of the curves at ``indices``, as a coordinate vector over n curves."""
    vec = [0] * n
    for i in indices:
        vec[i] = Fraction(1, 2)
    return vec


def _label_set(labs, index: dict, what: str) -> frozenset:
    """The labels as a set, after checking each is known and none repeats."""
    labs = tuple(labs)
    for lab in labs:
        if lab not in index:
            raise ValueError(f"unknown curve in {what}: {lab}")
    chi = frozenset(labs)
    if len(chi) != len(labs):
        raise ValueError(f"repeated curve in {what}: {sorted(labs)}")
    return chi


def _replay_check(cert: EvenFourCertificate, pres: CurvePresentation) -> None:
    """Half the sum of ``start`` minus half the sum of ``final`` lies in the
    lattice exactly when the difference of their member row sums is even."""
    index = {lab: i for i, lab in enumerate(pres.config.labels)}
    start = pres.row_sum([index[lab] for lab in cert.start])
    final = pres.row_sum([index[lab] for lab in cert.final])
    if any((s - f) % 2 for s, f in zip(start, final)):
        raise AssertionError("certificate replay failed: difference not in the lattice")


# ---------------------------------------------------------------------------
# the hexagon tower: three double covers over the six (-1)-curves

def hexagon_config() -> CurveConfig:
    """Six (-1)-curves meeting in a cycle: h1-h2-...-h6-h1."""
    labels = tuple(f"h{i + 1}" for i in range(6))
    gram = [[-1 if i == j else 0 for j in range(6)] for i in range(6)]
    for i in range(6):
        j = (i + 1) % 6
        gram[i][j] = gram[j][i] = 1
    return CurveConfig(labels, IntMat.from_rows(gram))


# each double cover is branched along a pair of disjoint lines crossing two
# opposite hexagon curves twice in total (once per line)
TOWER_BRANCH_CURVES = (("h1", "h4"), ("h3", "h6"), ("h2", "h5"))


@dataclass(frozen=True)
class TowerResult:
    """The three pullback stages over the hexagon.

    The first two covers are determined by the incidence data (the
    unbranched curves form forests there); at the third cover they contain
    cycles, so the sheet monodromy is not visible to the local data and
    ``final`` carries every consistent distribution.  Downstream structure
    (the involution actions and the rank-6 block) selects among them.
    """

    stage1: PullbackOption
    stage2: PullbackOption
    final: PullbackResult


def triple_double_tower() -> TowerResult:
    """Pull the hexagon back through the three double covers.

    The final options each have 24 curves of self-intersection -2 in six
    internally disjoint groups of four over the hexagon curves.
    """
    config = hexagon_config()
    shared = {
        frozenset((f"h{i + 1}", f"h{(i + 1) % 6 + 1}")): (f"p{i + 1}",) for i in range(6)
    }
    marked: dict[str, list[str]] = {}
    for k, curve_pair in enumerate(TOWER_BRANCH_CURVES, start=1):
        for lab in curve_pair:
            marked.setdefault(lab, []).extend(f"b{k}.{lab}.{t}" for t in (0, 1))
    stages = []
    result = None
    for k in range(1, 4):
        prefix = f"b{k}."
        branch_points = {}
        carried = {}
        for lab, pts in marked.items():
            now = tuple(p for p in pts if p.startswith(prefix))
            later = [p for p in pts if not p.startswith(prefix)]
            if now:
                branch_points[lab] = now
            if later:
                carried[lab] = tuple(later)
        step = CoverStep(
            branch=frozenset((f"l{2 * k - 2}", f"l{2 * k - 1}")),
            branch_points=branch_points,
            shared_points=shared,
            marked_points=carried,
        )
        result = double_cover_pullback(config, step)
        if k == 3:
            break
        option = result.unique()
        stages.append(option)
        config = option.config
        shared = option.shared_points
        marked = {lab: list(pts) for lab, pts in option.marked_points.items()}
    return TowerResult(stages[0], stages[1], result)
