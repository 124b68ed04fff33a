"""One checker per published lattice computation, with exact witnesses.

Each checker recomputes printed values from scratch as named witnesses and
returns them through one judge: an entry passes exactly when every value
that ``refdata.EXPECTED`` lists for it equals the witness of the same name,
by exact integer or rational equality, never approximately.  A checker
stops early only where a later computation needs what failed; the
expectations it did not reach then fail the entry.  Conclusions whose
published arguments are geometric rather than arithmetic are carried as
report-only entries.  Their witnesses are fixed strings, typed here or
taken from ``refdata``, that the report prints and nothing compares.

The even-set cardinality rule (an even set of disjoint smooth rational
curves on a K3 surface cannot have four elements) is a trusted geometric
axiom of this harness: certificates reduce candidates to it, they do not
prove it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import discform as df
from . import refdata as rd
from .curves import find_even_four_certificate, half_sum, present, triple_double_tower
from .exactlinalg import IntMat, _dots, snf, snf_rational
from .lattice import Lattice, norm_gcd, parse_lattice_expr, scale_gcd, sublattice
from .ratfun import mobius_images, render
from .reconstruct import ENTRY_BOUND, Reconstruction24, config_24, reconstruct_24, reconstruct_xprime, q_gram_of

AXIOM_NOTE = "even-set rejection rule (no even set of size four) used as a trusted geometric axiom"


@dataclass(frozen=True)
class Entry:
    result_id: str
    status: str  # "pass" | "fail" | "report-only"
    witnesses: dict
    expected: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class VerificationReport:
    entries: tuple[Entry, ...]

    @property
    def all_passed(self) -> bool:
        return all(e.status != "fail" for e in self.entries)

    def entry(self, result_id: str) -> Entry:
        for e in self.entries:
            if e.result_id == result_id:
                return e
        raise KeyError(result_id)

    def to_dict(self) -> dict:
        """The report as plain data; ``cli`` writes it with "schema" first,
        as it writes every document."""
        return {
            "all_passed": self.all_passed,
            "entries": [
                {
                    "result_id": e.result_id,
                    "status": e.status,
                    "witnesses": jsonable(e.witnesses),
                    "expected": jsonable(e.expected),
                    "notes": list(e.notes),
                }
                for e in self.entries
            ],
        }

    def to_markdown(self) -> str:
        lines = ["# Verification report", ""]
        lines.append(f"Overall: {'PASS' if self.all_passed else 'FAIL'}")
        lines.append("")
        for e in self.entries:
            lines.append(f"## {e.result_id}: {e.status}")
            for k, v in e.witnesses.items():
                lines.append(f"- computed {k}: {jsonable(v)}")
            for k, v in e.expected.items():
                lines.append(f"- expected {k}: {jsonable(v)}")
            for note in e.notes:
                lines.append(f"- note: {note}")
            lines.append("")
        return "\n".join(lines)


def jsonable(value):
    """Exact JSON encoding: integers stay integers, rationals become 'p/q'."""
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool) or isinstance(value, int) or isinstance(value, str) or value is None:
        return value
    if isinstance(value, IntMat):
        return [list(row) for row in value.entries]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return str(value)


def _judge(result_id, witnesses, notes=()) -> Entry:
    """The entry of a checker: ``pass`` exactly when every value that
    ``refdata.EXPECTED`` lists for ``result_id`` equals the witness of the
    same name by ``==``; a missing witness fails it."""
    expected = rd.EXPECTED[result_id]
    ok = all(k in witnesses and v == witnesses[k] for k, v in expected.items())
    return Entry(result_id, "pass" if ok else "fail", witnesses, dict(expected), tuple(notes))


def _fail(result_id, witnesses, expected, notes=()):
    return Entry(result_id, "fail", witnesses, expected, tuple(notes))


# ---------------------------------------------------------------------------
# reconstruction bookkeeping

def reconstruction_entry(rec: Reconstruction24) -> Entry:
    sizes = rec.census_sizes()
    tower = triple_double_tower()
    selected = len(rec.tier3)
    witnesses = {
        "census": sizes,
        "entry_bound": ENTRY_BOUND,
        "pullback_census": len(tower.final.options),
        "selected_solutions": selected,
    }
    if selected == 1:
        note = (
            "tier 1: shape constraints only; tier 2 adds the printed rank-6 Gram; "
            "tier 3 adds the two printed curve relations"
        )
    else:
        note = f"tier 3 leaves {selected} label-inequivalent solutions"
    return _judge("reconstruction_24", witnesses, (note,))


# ---------------------------------------------------------------------------
# individual results

def verify_lemma_3_1(gram24: IntMat) -> Entry:
    s = gram24.submatrix(rd.S_BASIS, rd.S_BASIS)
    s_lat = Lattice(s, "S")
    cross = gram24.submatrix(rd.S_BASIS, range(24)) * rd.Q_BASIS.transpose()
    qg = q_gram_of(gram24)
    witnesses = {
        "S_det": s_lat.det,
        "S_signature": s_lat.signature,
        "S_even": s_lat.is_even,
        "S_dot_Q": next(
            (
                {"row": i + 1, "col": j + 1, "value": v}
                for i, row in enumerate(cross.entries)
                for j, v in enumerate(row)
                if v
            ),
            "all zero",
        ),
        "Q_gram": qg,
    }
    mismatch = next(
        (
            {"row": i + 1, "col": j + 1, "computed": a, "expected": b}
            for i, (row, printed) in enumerate(zip(qg.entries, rd.Q_GRAM.entries))
            for j, (a, b) in enumerate(zip(row, printed))
            if a != b
        ),
        None,
    )
    if mismatch is not None:
        witnesses["Q_gram_mismatch"] = mismatch
    return _judge("lemma_3_1", witnesses)


def verify_lemma_4_1(aq) -> Entry:
    lat, module, _, _ = aq
    inv = lat.gram.inverse()
    d, s, t = snf_rational(inv)
    entries = d.entries
    return _judge("lemma_4_1", {
        "snf_diagonal": tuple(entries[i][i] for i in range(6)),
        "transform_identity": s.to_rational() * inv * t.to_rational() == d,
        "invariant_factors": module.orders,
        "order": module.order,
        "det": lat.det,
    })


def _aq_with_printed_generators(q_gram: IntMat):
    """The discriminant form of Q and the printed generators v1, v2, w1, w2.

    Returns (lattice, module, printed dual vectors, their classes).
    """
    lat = Lattice(q_gram, "Q")
    module = df.from_lattice(lat)
    printed = {}
    for name, coords in (("v1", rd.V1_Q), ("v2", rd.V2_Q), ("w1", rd.W1_Q), ("w2", rd.W2_Q)):
        printed[name] = lat.dual_vector(coords)
    classes = {name: df.class_of(module, v) for name, v in printed.items()}
    return lat, module, printed, classes


def _combine(module, gens, exps):
    """The sum of e * g over the exponents e and the generator classes g, in order."""
    x = module.zero()
    for e, g in zip(exps, gens):
        x = module.add(x, module.smul(e, g))
    return x


def _block_form(module, elems) -> dict:
    """q of each element and the nonzero b of each pair, as the witnesses
    ``block_q_diag`` and ``block_b_offdiag``."""
    q_diag = tuple(df.q_value(module, x) for x in elems)
    b_off = {}
    for i, j in combinations(range(len(elems)), 2):
        b = df.b_value(module, elems[i], elems[j])
        if b:
            b_off[i, j] = b
    return {"block_q_diag": q_diag, "block_b_offdiag": rd.report_pairs(b_off)}


def verify_lemma_4_2(aq) -> Entry:
    _, module, printed, classes = aq
    iso = set(df.isotropic_elements(module))
    printed_classes = {_combine(module, classes.values(), exps) for exps in rd.ISOTROPIC_AQ}
    return _judge("lemma_4_2", {
        "pairing_table": tuple(tuple(a.pair(b) for b in printed.values()) for a in printed.values()),
        "isotropic_count": len(iso),
        "printed_classes_distinct": len(printed_classes),
        "printed_is_whole_set": printed_classes == iso,
    })


def verify_thm_4_3(gram24: IntMat) -> Entry:
    pres = present(config_24(gram24))
    lat = pres.lattice
    witnesses = {"curve_lattice_det": lat.det, "curve_lattice_signature": lat.signature}
    # the distinguished 16 vectors form a basis of the curve lattice
    member = pres.member
    pmat = member.submatrix(rd.S_BASIS, range(member.cols)).stack(rd.Q_BASIS * member)
    witnesses["s_plus_q_index"] = abs(pmat.det())
    module = df.from_lattice(lat)
    subgroups = df.isotropic_subgroups(module)
    nontrivial = [s for s in subgroups if s.order > 1]
    witnesses["isotropic_subgroups"] = len(subgroups)
    # certificate for each of the seven nonzero isotropic classes
    outside, found = _halfset_classes(pres, module, rd.HALFSET_AQ.values(), rd.RELATION_FAMILIES_24)
    if outside is not None:
        witnesses["halfset_not_in_dual"] = outside
        return _judge("thm_4_3", witnesses)
    certified = {cls for cls, cert in found if cert is not None}
    witnesses["classes_without_certificate"] = tuple(
        exps for exps, (_, cert) in zip(rd.HALFSET_AQ, found) if cert is None
    )
    witnesses["certified_classes"] = len(certified)
    unexcluded = tuple(
        tuple(sorted(sub.elements))
        for sub in nontrivial
        if not any(x in certified for x in sub.elements if any(x))
    )
    witnesses["subgroups_without_certified_class"] = unexcluded
    witnesses["nontrivial_subgroups_excluded"] = len(nontrivial) - len(unexcluded)
    # explicit splitting: fiber + section + eight fiber components + Q block
    witnesses["splitting"] = _splitting_check(pres)
    witnesses["ns_invariant_factors"] = module.orders
    return _judge("thm_4_3", witnesses, (AXIOM_NOTE,))


def _halfset_classes(pres, module, halfsets, families):
    """The class and even-four certificate of each printed half-set, from one search.

    Returns (None, [(class of the half-sum in ``module``, certificate or
    None)] per half-set), or (h, None) before any search for the first
    half-set h whose half-sum lies outside the dual of the lattice of
    ``pres``.  Half-sets and relation ``families`` are tuples of curve
    indices.  A half-sum v has 2v = ``pres.row_sum(h)`` in the lattice
    basis, so v lies in the dual exactly when w = 2v * gram is even, and
    its class is that of the row w / 2."""
    labels = pres.config.labels
    twice = _dots([pres.row_sum(h) for h in halfsets], pres.lattice.gram.entries)
    for h, w in zip(halfsets, twice):
        if any(e % 2 for e in w):
            return h, None
    certs = find_even_four_certificate(
        [[labels[i] for i in h] for h in halfsets], [[labels[i] for i in f] for f in families], pres
    )
    return None, [
        (df.class_of_pairings(module, [e // 2 for e in w]), c) for w, c in zip(twice, certs)
    ]


def _splitting_check(pres) -> dict:
    fib = [0] * 24
    for i, c in rd.FIBER_VECTOR.items():
        fib[i] = c
    member = pres.member
    pmat = (
        (IntMat.from_rows([fib]) * member)
        .stack(member.submatrix((rd.SECTION, *rd.U_E8_Q_E8_PART), range(member.cols)))
        .stack(rd.Q_BASIS * member)
    )
    gram = pmat * pres.lattice.gram * pmat.transpose()
    u_block = [[gram.entries[i][j] for j in range(2)] for i in range(2)]
    e8_block = IntMat.from_rows([[gram.entries[i][j] for j in range(2, 10)] for i in range(2, 10)])
    q_block = tuple(tuple(gram.entries[i][j] for j in range(10, 16)) for i in range(10, 16))
    off = all(
        gram.entries[i][j] == 0
        for i in range(16)
        for j in range(16)
        if (i < 2) != (j < 2) or (2 <= i < 10) != (2 <= j < 10)
    )
    e8_lat = Lattice(e8_block)
    return {
        "basis": abs(pmat.det()) == 1,
        "block_diagonal": off,
        "u_block_hyperbolic": u_block == [[0, 1], [1, -2]],
        "e8_block_is_e8": e8_lat.det == 1 and e8_lat.signature == (0, 8, 0) and e8_lat.is_even,
        "q_block_printed": q_block == rd.Q_GRAM.entries,
    }


def verify_prop_4_4(aq) -> Entry:
    _, ns_module, _, classes = aq
    candidate = parse_lattice_expr(rd.T_X_EXPR)
    cand_module = df.from_lattice(candidate)
    iso = df.are_isomorphic(cand_module, df.negate(ns_module))
    ell = cand_module.ngens
    witnesses = {
        "candidate": rd.T_X_EXPR,
        "even": candidate.is_even,
        "signature": candidate.signature,
        "disc_isomorphic": iso is not None,
        "disc_isomorphism_witness": iso,
        "l_of_A": ell,
        "rank_bound": candidate.rank >= 2 + ell,
        "uniqueness_predicate": df.nikulin_unique(cand_module),
    }
    # printed block form of q in the change of generators
    elems = [_combine(ns_module, classes.values(), exps) for exps in rd.PROP44_BASIS]
    witnesses |= _block_form(ns_module, elems)
    return _judge("prop_4_4", witnesses)


def verify_thm_4_5_mobius() -> Entry:
    # z -> (s + s^3)/2 * (z - s)/(s*z - 1) at the branch points s, -s, -1/s, 1/s
    s, one = (0, 1), (1,)
    images = mobius_images(
        ((0, 1, 0, 1), (2,)),
        (one, (0, -1), s, (-1,)),
        [(s, one), ((0, -1), one), ((-1,), s), (one, s)],
    )
    return _judge("thm_4_5_mobius", {"images": tuple(map(render, images))})


def _embedding_entry(result_id: str, ambient_expr: str, gen_rows) -> Entry:
    """The Gram that printed generator rows induce in the ambient lattice,
    and the SNF invariant factors of the rows (all 1 when they span a
    primitive sublattice)."""
    gens = IntMat.from_rows(gen_rows)
    sub = sublattice(parse_lattice_expr(ambient_expr), gens)
    d, _, _ = snf(gens)
    return _judge(result_id, {
        "gram": sub.induced_gram,
        "snf_invariant_factors": tuple(d.entries[i][i] for i in range(gens.rows)),
    })


def verify_km_embedding() -> Entry:
    return _embedding_entry("km_embedding", rd.T_X_EXPR, [rd.KM_ALPHA, rd.KM_BETA])


def verify_prop_4_6() -> Entry:
    tx = parse_lattice_expr(rd.T_X_EXPR)
    vec = rd.SQUARE_TWO_VECTOR
    mz = parse_lattice_expr("M_Z2_3")
    mz_module = df.from_lattice(mz)
    perp_candidate = parse_lattice_expr(rd.M_Z23_PERP_EXPR)
    perp_module = df.from_lattice(perp_candidate)
    inv_c = df.two_elem_invariants(perp_module)
    iso = df.are_isomorphic(perp_module, df.negate(mz_module))
    witnesses = {
        "square_two_vector": vec,
        "square": tx.pairing(vec, vec),
        "norm_gcd_omega_perp": norm_gcd(parse_lattice_expr(rd.OMEGA_Z23_PERP_EXPR)),
        "m_z23_rank": mz.rank,
        "m_z23_invariant_factors": mz_module.orders,
        "m_z23_negative_definite": mz.signature == (0, mz.rank, 0),
        "perp_candidate_invariants": inv_c,
    }
    if inv_c is not None:  # None unless the complement is 2-elementary
        witnesses["perp_candidate_signature"], witnesses["perp_candidate_l"], _ = inv_c
    witnesses |= {
        "perp_disc_isomorphic": iso is not None,
        "perp_disc_isomorphism_witness": iso,
        "scale_gcd_perp": scale_gcd(perp_candidate),
        "odd_pairing_in_tx": tx.pairing(*rd.ODD_PAIRING_VECTORS),
    }
    notes = (
        "2-elementary uniqueness (signature, l, delta) identifies the "
        "complement with the candidate; the pairing parity then obstructs "
        "a primitive embedding of the transcendental lattice",
    )
    return _judge("prop_4_6", witnesses, notes)


def verify_section_6(gram24: IntMat) -> Entry:
    config24 = config_24(gram24)
    xp = reconstruct_xprime(config24)
    witnesses = {
        "relation_report": {name: ok for name, ok in xp.relation_report},
        "incidence_kernel_dim": xp.incidence_kernel_dim,
    }
    if not all(ok for _, ok in xp.relation_report):
        return _judge("section_6", witnesses)
    m_pres = xp.m_presentation
    m_lat = m_pres.lattice
    module = df.from_lattice(m_lat)
    # the rational SNF of gram^-1 that the discriminant group is read off
    # has the entries 1/e_i, e_i the invariant factors of the gram
    witnesses["snf_diagonal"] = module.disc.snf_diagonal
    witnesses["disc_invariant_factors"] = module.orders
    # published dual generators and the block form of q
    gens = []
    for name, data in (
        ("v1", rd.V1_M), ("v2", rd.V2_M), ("v3", rd.V3_M),
        ("v4", rd.V4_M), ("w1", rd.W1_M), ("w2", rd.W2_M),
    ):
        coords = [Fraction(0)] * 16
        for i, c in data.items():
            coords[i] = c
        vec = m_lat.dual_vector(coords)
        if not vec.in_dual():
            witnesses["generator_not_in_dual"] = name
            return _judge("section_6", witnesses)
        gens.append(df.class_of(module, vec))
    try:
        df.submodule_on(module, gens, (2, 2, 2, 2, 4, 4))
    except ValueError as exc:
        witnesses["generators"] = str(exc)
        return _judge("section_6", witnesses)
    elems = [_combine(module, gens, exps) for exps, _ord in rd.SECTION6_BASIS]
    witnesses |= _block_form(module, elems)
    # isotropic census and even-four certificates
    iso = set(df.isotropic_elements(module))
    witnesses["isotropic_count"] = len(iso)
    # N lies in M, so its half-sum is never the one outside the dual
    halfsets = rd.ISOTROPIC_AM_HALFSETS
    outside, found = _halfset_classes(
        m_pres, module, halfsets + (rd.N_SUPPORT,), rd.XPRIME_RELATION_FAMILIES
    )
    if outside is not None:
        witnesses["halfset_outside_dual"] = outside
        return _judge("section_6", witnesses)
    *found, (_, n_cert) = found
    printed_classes = {cls for cls, _ in found}
    witnesses["halfsets_without_certificate"] = tuple(
        h for h, (_, cert) in zip(halfsets, found) if cert is None
    )
    witnesses["printed_classes"] = len(printed_classes)
    witnesses["printed_equals_isotropic_set"] = printed_classes == iso
    witnesses["even_eight_half_sum_in_lattice"] = m_pres.contains(half_sum(rd.N_SUPPORT, 20))
    witnesses["even_eight_certificate"] = None if n_cert is None else "found"
    # transcendental lattice candidate
    cand = parse_lattice_expr(rd.T_XPRIME_EXPR)
    cand_module = df.from_lattice(cand)
    witness_iso = df.are_isomorphic(cand_module, df.negate(module))
    witnesses |= {
        "t_xprime_candidate": rd.T_XPRIME_EXPR,
        "t_xprime_even": cand.is_even,
        "t_xprime_signature": cand.signature,
        "t_xprime_disc_isomorphic": witness_iso is not None,
        "t_xprime_disc_isomorphism_witness": witness_iso,
        "t_xprime_uniqueness_predicate": df.nikulin_unique(cand_module),
    }
    notes = (
        AXIOM_NOTE,
        "the rank-6 uniqueness bound does not apply here (rank 6 < 2 + 6); "
        "identifying the transcendental lattice with the candidate from the "
        "matching discriminant form rests on the cited classification of "
        "indefinite lattices in this genus, outside this harness",
        "the published relations alone leave the curve/exceptional "
        f"incidences a {xp.incidence_kernel_dim}-dimensional freedom; they "
        "are pinned to zero by the fixed points avoiding the curves",
    )
    return _judge("section_6", witnesses, notes)


def verify_prop_6_2() -> Entry:
    return _embedding_entry("prop_6_2", rd.P62_AMBIENT_EXPR, rd.P62_GENS)


# ---------------------------------------------------------------------------
# the full run

# (result_id, prerequisite or None) in report order: an entry whose
# prerequisite failed is recorded as failed without running its checker
CHECKS = (
    ("reconstruction_24", None),
    ("lemma_3_1", "reconstruction_24"),
    ("lemma_4_1", "lemma_3_1"),
    ("lemma_4_2", "lemma_4_1"),
    ("thm_4_3", "lemma_4_2"),
    ("prop_4_4", "thm_4_3"),
    ("thm_4_5_mobius", None),
    ("thm_4_5_fibration", None),
    ("km_embedding", None),
    ("prop_4_6", "prop_4_4"),
    ("section_6", "thm_4_3"),
    ("prop_6_2", None),
    ("prop_6_2_ii", None),
    ("prop_6_2_iii", None),
)
RESULT_IDS = tuple(rid for rid, _ in CHECKS)

# conclusions argued geometrically: (witnesses, note).  The witnesses are
# fixed strings that no judge compares: mobius_fragment is typed here, not
# read off the images that thm_4_5_mobius computes
REPORT_ONLY = {
    "thm_4_5_fibration": (
        {"mobius_fragment": "branch points move to 0, s^2, (1+s^2)^2/4, infinity"},
        "matching the resulting genus-1 pencil with the known elliptic "
        "fibration of the square-periods Kummer surface is a geometric "
        "identification, outside this harness",
    ),
    "prop_6_2_ii": (
        {"t_xprime": rd.T_XPRIME_EXPR},
        "exclusion from the published table of transcendental lattices "
        "of rank-15 quotient resolutions is a table lookup in the "
        "cited classification, outside this harness",
    ),
    "prop_6_2_iii": (
        {},
        "realizing the quotient surface from the exponent-2 covering "
        "by the complementary symplectic action is geometric, outside "
        "this harness",
    ),
}


def run_all(gram24: IntMat | None = None) -> VerificationReport:
    """Run every row of ``CHECKS`` in order and aggregate the entries.

    The reconstruction entry checks the tier-3 census of ``reconstruct_24``
    and passes its single Gram on to the checks that read the 24 curves.
    ``gram24`` overrides the reconstructed 24-curve Gram (used by the
    fault-injection tests) and yields a report-only reconstruction entry.
    A checker crash becomes a failed entry that lists the checker's
    expectations.  Once lemma 3.1 has pinned the Q block to the printed Q,
    which is even and nondegenerate, its discriminant form is built once
    and shared by lemmas 4.1 and 4.2 and proposition 4.4.
    """
    aq = None

    def reconstruction():
        nonlocal gram24
        if gram24 is not None:
            return Entry(
                "reconstruction_24",
                "report-only",
                {},
                {},
                ("24-curve Gram supplied by the caller",),
            )
        rec = reconstruct_24()
        entry = reconstruction_entry(rec)
        if entry.status == "pass":
            gram24 = rec.gram
        return entry

    def lemma_3_1():
        nonlocal aq
        entry = verify_lemma_3_1(gram24)
        if entry.status == "pass":
            aq = _aq_with_printed_generators(q_gram_of(gram24))
        return entry

    # looked up by global name on each run, so wrapped checkers are seen
    checkers = {
        "reconstruction_24": reconstruction,
        "lemma_3_1": lemma_3_1,
        "lemma_4_1": lambda: verify_lemma_4_1(aq),
        "lemma_4_2": lambda: verify_lemma_4_2(aq),
        "thm_4_3": lambda: verify_thm_4_3(gram24),
        "prop_4_4": lambda: verify_prop_4_4(aq),
        "thm_4_5_mobius": verify_thm_4_5_mobius,
        "km_embedding": verify_km_embedding,
        "prop_4_6": verify_prop_4_6,
        "section_6": lambda: verify_section_6(gram24),
        "prop_6_2": verify_prop_6_2,
    }
    status: dict[str, str] = {}
    entries: list[Entry] = []
    for rid, prereq in CHECKS:
        if prereq is not None and status[prereq] == "fail":
            entry = _fail(rid, {}, {}, (f"prerequisite {prereq} did not pass",))
        elif rid in REPORT_ONLY:
            witnesses, note = REPORT_ONLY[rid]
            entry = Entry(rid, "report-only", dict(witnesses), {}, (note,))
        else:
            # a checker crash is itself a failed verification, never an exception
            try:
                entry = checkers[rid]()
            except Exception as exc:  # noqa: BLE001
                entry = _fail(rid, {"exception": repr(exc)}, dict(rd.EXPECTED[rid]))
        status[rid] = entry.status
        entries.append(entry)
    return VerificationReport(tuple(entries))
