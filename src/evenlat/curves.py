"""Labeled configurations of smooth rational curves.

A configuration stores self-intersections and pairwise multiplicities; the
lattice it spans is presented exactly by quotienting out the radical of its
intersection matrix.  The module also implements branched double-cover
pullback, free involution quotients, and the GF(2) reduction search that
turns a candidate half-sum of curves into half the sum of four pairwise
disjoint ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .exactlinalg import IntMat, RatMat, _clear_denominators, kernel_saturated, snf
from .lattice import Lattice


@dataclass(frozen=True)
class CurveConfig:
    labels: tuple[str, ...]
    self_int: tuple[int, ...]
    mult: IntMat

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("curve labels must be unique")
        if len(self.self_int) != n or self.mult.rows != n or self.mult.cols != n:
            raise ValueError("inconsistent configuration sizes")
        if not self.mult.is_symmetric():
            raise ValueError("multiplicity matrix must be symmetric")
        for i in range(n):
            if self.mult.entries[i][i] != 0:
                raise ValueError("multiplicity matrix must have zero diagonal")
            for j in range(n):
                if self.mult.entries[i][j] < 0:
                    raise ValueError("multiplicities must be nonnegative")

    @classmethod
    def from_gram(cls, labels, gram: IntMat) -> CurveConfig:
        n = len(labels)
        self_int = tuple(gram.entries[i][i] for i in range(n))
        mult = IntMat.from_rows(
            [[0 if i == j else gram.entries[i][j] for j in range(n)] for i in range(n)]
        )
        return cls(tuple(labels), self_int, mult)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def gram(self) -> IntMat:
        n = self.size
        return IntMat.from_rows(
            [
                [self.self_int[i] if i == j else self.mult.entries[i][j] for j in range(n)]
                for i in range(n)
            ]
        )


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
        g = config.gram().entries
        p = self.perm
        n = len(p)
        return all(g[p[i]][p[j]] == g[i][j] for i in range(n) for j in range(i, n))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i for i, j in enumerate(self.perm) if i == j)


# ---------------------------------------------------------------------------
# the lattice spanned by a configuration

@dataclass(frozen=True)
class CurvePresentation:
    """A lattice spanned by the curves, presented exactly.

    ``proj`` maps a row coordinate vector (over the curves) to coordinates
    in Z^n modulo the Gram radical.  For the plain curve span a rational
    combination lies in the lattice exactly when its projection is
    integral.  When half-sum generators have been adjoined (an overlattice
    of the span), ``overlattice_basis`` holds den times its basis as an
    integer echelon matrix, and membership reduces den * projection
    against it.
    """

    config: CurveConfig
    lattice: Lattice
    proj: IntMat = field(repr=False)
    radical_rank: int
    overlattice_basis: IntMat | None = field(repr=False, default=None)
    overlattice_den: int = 1

    def project(self, vec) -> tuple[Fraction, ...]:
        (num,), den = _clear_denominators([vec])
        out = [0] * self.proj.cols
        for a, row in zip(num, self.proj.entries):
            if a:
                for j, p in enumerate(row):
                    out[j] += a * p
        return tuple(Fraction(e, den) for e in out)

    def contains(self, vec) -> bool:
        x = [c * self.overlattice_den for c in self.project(vec)]
        if any(c.denominator != 1 for c in x):
            return False
        if self.overlattice_basis is None:
            return True
        # square upper-triangular basis: row k has its pivot in column k
        x = [int(c) for c in x]
        for k, row in enumerate(self.overlattice_basis.entries):
            q, rem = divmod(x[k], row[k])
            if rem:
                return False
            if q:
                x = [a - q * b for a, b in zip(x, row)]
        return True

    def adjoin(self, extra_vectors) -> CurvePresentation:
        """Presentation of the overlattice generated with the given rational
        curve combinations (for instance 2-divisible half sums)."""
        from .lattice import rational_span_basis

        r = self.proj.cols
        rows = [tuple(Fraction(int(i == j)) for j in range(r)) for i in range(r)]
        for vec in extra_vectors:
            rows.append(self.project(vec))
        basis = RatMat.from_rows(rational_span_basis(rows))
        den = basis.denominator_lcm()
        return CurvePresentation(
            self.config, self.lattice, self.proj, self.radical_rank,
            basis.scale(Fraction(den)).to_integer(), den,
        )


def present(config: CurveConfig) -> CurvePresentation:
    """Quotient the curve span by the radical of its intersection matrix."""
    g = config.gram()
    ker = kernel_saturated(g)
    n = g.rows
    if not ker:
        return CurvePresentation(config, Lattice(g), IntMat.identity(n), 0)
    k = len(ker)
    kmat = IntMat.from_rows(ker)
    _, _, t = snf(kmat)
    # rows of T^-1: the first k span the radical; v |-> (v*T)[k:] projects
    tinv = t.inverse().to_integer()
    proj_cols = [[t.entries[i][j] for j in range(k, n)] for i in range(n)]
    proj = IntMat.from_rows(proj_cols)
    full = tinv * g * tinv.transpose()
    induced = IntMat.from_rows(
        [[full.entries[i][j] for j in range(k, n)] for i in range(k, n)]
    )
    for i in range(k):
        if any(full.entries[i][j] != 0 for j in range(n)):
            raise AssertionError("radical reduction failed")
    return CurvePresentation(config, Lattice(induced), proj, k)


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
    curves undetermined, all consistent distributions are returned.
    """
    tracked_branch = step.branch & set(config.labels)
    if tracked_branch:
        raise ValueError(f"tracked curves in the branch divisor: {sorted(tracked_branch)}")
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

    # sheet matching for split-split intersection points: fix a spanning
    # forest gauge, one free sign for every remaining point
    pair_points = []  # (label_a, label_b, point_id)
    for pair, ids in sorted(step.shared_points.items(), key=lambda kv: sorted(kv[0])):
        a, b = sorted(pair)
        if a in split and b in split:
            for pid in ids:
                pair_points.append((a, b, pid))
    fixed = {}
    tree_adj = set()
    comp = {lab: lab for lab in split}

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    free_points = []
    for a, b, pid in pair_points:
        ra, rb = find(a), find(b)
        if ra != rb:
            comp[ra] = rb
            fixed[(a, b, pid)] = 0  # parallel: a-sheet meets b-sheet
            tree_adj.add((a, b))
        else:
            free_points.append((a, b, pid))

    options = []
    for signs in itertools.product((0, 1), repeat=len(free_points)):
        orient = dict(fixed)
        orient.update({pt: s for pt, s in zip(free_points, signs)})
        options.append(_assemble_pullback(config, step, split, ram, orient))
    # distinct labeled configurations only
    seen = {}
    for opt in options:
        key = (opt.config.labels, opt.config.self_int, opt.config.mult.entries)
        if key not in seen:
            seen[key] = opt
    return PullbackResult(tuple(seen.values()))


def _assemble_pullback(config, step, split, ram, orient) -> PullbackOption:
    new_labels = []
    label_map = {}
    for lab in config.labels:
        if lab in ram:
            new_labels.append(lab)
            label_map[lab] = (lab,)
        else:
            la, lb = lab + "a", lab + "b"
            new_labels.extend([la, lb])
            label_map[lab] = (la, lb)
    idx = {lab: i for i, lab in enumerate(new_labels)}
    n = len(new_labels)
    self_int = [0] * n
    for lab in config.labels:
        s = config.self_int[config.index(lab)]
        if lab in ram:
            self_int[idx[lab]] = 2 * s
        else:
            for nl in label_map[lab]:
                self_int[idx[nl]] = s
    mult = [[0] * n for _ in range(n)]
    new_shared: dict[frozenset, list] = {}

    def bump(x, y, pid):
        mult[idx[x]][idx[y]] += 1
        mult[idx[y]][idx[x]] += 1
        new_shared.setdefault(frozenset((x, y)), []).append(pid)

    for pair, ids in step.shared_points.items():
        a, b = sorted(pair)
        for pid in ids:
            if a in ram and b in ram:
                bump(a, b, pid + ".0")
                bump(a, b, pid + ".1")
            elif a in ram:
                bump(a, b + "a", pid + ".0")
                bump(a, b + "b", pid + ".1")
            elif b in ram:
                bump(b, a + "a", pid + ".0")
                bump(b, a + "b", pid + ".1")
            else:
                if orient[(a, b, pid)] == 0:
                    bump(a + "a", b + "a", pid + ".0")
                    bump(a + "b", b + "b", pid + ".1")
                else:
                    bump(a + "a", b + "b", pid + ".0")
                    bump(a + "b", b + "a", pid + ".1")
    new_marked: dict[str, list] = {}
    for lab, pts in step.marked_points.items():
        if lab in ram:
            # both preimages of a marked point land on the single component
            new_marked.setdefault(lab, []).extend(p + s for p in pts for s in (".0", ".1"))
        else:
            for copy, suffix in zip(label_map[lab], (".a", ".b")):
                new_marked.setdefault(copy, []).extend(p + suffix for p in pts)
    cfg = CurveConfig(tuple(new_labels), tuple(self_int), IntMat.from_rows(mult))
    return PullbackOption(
        cfg,
        label_map,
        {k: tuple(v) for k, v in new_shared.items()},
        {k: tuple(v) for k, v in new_marked.items()},
    )


# ---------------------------------------------------------------------------
# involution quotient

@dataclass(frozen=True)
class FixedPointData:
    """How the involution's fixed points sit relative to the curves."""

    count: int
    curves_through_fixed_points: frozenset = frozenset()


@dataclass(frozen=True)
class QuotientResult:
    config: CurveConfig
    orbit_map: dict


def quotient_by_involution(
    config: CurveConfig, act: InvolutionAction, fixed: FixedPointData
) -> QuotientResult:
    """Quotient a configuration by a free involution on its curves.

    Every orbit {R, iR} with R != iR maps to a single curve; images pair by
    the degree-2 projection formula.  Fixed curves would need ramification
    data and are rejected, as are fixed points lying on the curves.
    """
    if len(act.perm) != config.size:
        raise ValueError("involution length does not match configuration")
    if not act.is_isometry(config):
        raise ValueError("involution is not an isometry of the configuration")
    if act.fixed_points():
        raise ValueError("involution fixes a curve; quotient needs ramification data")
    if fixed.curves_through_fixed_points:
        raise ValueError("fixed points on curves are out of scope")
    g = config.gram().entries
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
    for a, (i, ip) in enumerate(orbits):
        for b, (j, jp) in enumerate(orbits):
            tot = g[i][j] + g[i][jp] + g[ip][j] + g[ip][jp]
            if tot % 2 != 0:
                raise AssertionError("projection formula gave a non-integer")
            gram_q[a][b] = tot // 2
    cfg = CurveConfig.from_gram(labels, IntMat.from_rows(gram_q))
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
    halfset,
    relations,
    config: CurveConfig,
    presentation: CurvePresentation | None = None,
) -> EvenFourCertificate | None:
    """Search the GF(2) coset of a half-sum for four pairwise disjoint curves.

    ``relations`` are label sets whose half-sums must already lie in the
    curve lattice (verified first; a failing relation is an error).  Returns
    the first certificate in deterministic order (shortest chains first),
    or None when the coset holds no disjoint weight-4 representative.
    """
    pres = presentation if presentation is not None else present(config)
    labels = config.labels
    index = {lab: i for i, lab in enumerate(labels)}
    for lab in halfset:
        if lab not in index:
            raise ValueError(f"unknown curve in halfset: {lab}")
    rel_sets = []
    for rel in relations:
        chi = frozenset(rel)
        if not chi <= set(labels):
            raise ValueError(f"unknown curve in relation: {sorted(chi)}")
        half = [Fraction(1, 2) if lab in chi else Fraction(0) for lab in labels]
        if not pres.contains(half):
            raise ValueError(f"relation half-sum not in the lattice: {sorted(chi)}")
        rel_sets.append(chi)
    start = frozenset(halfset)
    mult = config.mult.entries
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


def _replay_check(cert: EvenFourCertificate, pres: CurvePresentation) -> None:
    labels = pres.config.labels
    diff = [Fraction(0)] * len(labels)
    for lab in cert.start:
        diff[labels.index(lab)] += Fraction(1, 2)
    for lab in cert.final:
        diff[labels.index(lab)] -= Fraction(1, 2)
    if not pres.contains(diff):
        raise AssertionError("certificate replay failed: difference not in the lattice")


# ---------------------------------------------------------------------------
# the hexagon tower: three double covers over the six (-1)-curves

def hexagon_config() -> CurveConfig:
    """Six (-1)-curves meeting in a cycle: h1-h2-...-h6-h1."""
    labels = tuple(f"h{i + 1}" for i in range(6))
    mult = [[0] * 6 for _ in range(6)]
    for i in range(6):
        j = (i + 1) % 6
        mult[i][j] = mult[j][i] = 1
    return CurveConfig(labels, (-1,) * 6, IntMat.from_rows(mult))


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
