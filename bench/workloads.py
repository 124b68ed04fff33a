"""The three workloads: their seeded inputs, one op each, and the checks.

Every workload exposes the same four functions, used by run.py:

* ``build(seed, workdir)`` makes the inputs (timed as set-up);
* ``op(inp)`` is one timed operation on one input;
* ``canon(out)`` turns an op's output into a comparable value, so that
  repeats of an input across rounds can be compared for identity;
* ``check(inp, canon_value)`` returns a list of error strings, empty when
  the output is correct.  The checks compare against the mathematics or
  against forms.py, never against a stored copy of today's output.

The program is reached only through module attributes (``discform.x``),
so that the traced mode's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import forms

# ---------------------------------------------------------------------------
# paper: one op is one full run_all(), the verify-paper path

PAPER_COMPUTED = (
    "reconstruction_24", "lemma_3_1", "lemma_4_1", "lemma_4_2", "thm_4_3",
    "prop_4_4", "thm_4_5_mobius", "km_embedding", "prop_4_6", "section_6",
    "prop_6_2",
)
PAPER_GEOMETRIC = ("thm_4_5_fibration", "prop_6_2_ii", "prop_6_2_iii")
PAPER_ORDER = (
    "reconstruction_24", "lemma_3_1", "lemma_4_1", "lemma_4_2", "thm_4_3",
    "prop_4_4", "thm_4_5_mobius", "thm_4_5_fibration", "km_embedding",
    "prop_4_6", "section_6", "prop_6_2", "prop_6_2_ii", "prop_6_2_iii",
)
# values printed in the paper: Lemma 4.1 (SNF of Q^-1) and Section 6 (A_M)
LEMMA_4_1_SNF = ["1", "1", "1/2", "1/2", "1/4", "1/4"]
SECTION_6_SNF = ["1"] * 10 + ["1/2"] * 4 + ["1/4"] * 2
SECTION_6_FACTORS = [2, 2, 2, 2, 4, 4]


def paper_build(seed, workdir):
    # run_all takes no input: the seed has nothing to vary here
    return [None]


def paper_op(_inp):
    from evenlat import verify

    return verify.run_all()


def paper_canon(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def paper_check(_inp, text) -> list[str]:
    report = json.loads(text)
    errors = []
    if report.get("all_passed") is not True:
        errors.append("paper: all_passed is not true")
    entries = {e["result_id"]: e for e in report["entries"]}
    ids = [e["result_id"] for e in report["entries"]]
    if ids != list(PAPER_ORDER):
        errors.append(f"paper: entry ids {ids}")
    for rid in PAPER_COMPUTED:
        if rid in entries and entries[rid]["status"] != "pass":
            errors.append(f"paper: {rid} is {entries[rid]['status']}, expected pass")
    for rid in PAPER_GEOMETRIC:
        if rid in entries and entries[rid]["status"] != "report-only":
            errors.append(f"paper: {rid} is {entries[rid]['status']}, expected report-only")
    w41 = entries.get("lemma_4_1", {}).get("witnesses", {})
    if w41.get("snf_diagonal") != LEMMA_4_1_SNF:
        errors.append(f"paper: lemma_4_1 SNF diagonal {w41.get('snf_diagonal')}")
    w6 = entries.get("section_6", {}).get("witnesses", {})
    if w6.get("snf_diagonal") != SECTION_6_SNF:
        errors.append(f"paper: section_6 SNF diagonal {w6.get('snf_diagonal')}")
    if w6.get("disc_invariant_factors") != SECTION_6_FACTORS:
        errors.append(f"paper: section_6 invariant factors {w6.get('disc_invariant_factors')}")
    return errors


# ---------------------------------------------------------------------------
# overlattices: one op is `evenlat overlattices <gram.json>`, in-process

# Ops of similar size (within about 3x of each other), so that the median
# op sits among several inputs and not on one.
OVERLATTICE_SET = (
    (("U", 2), ("U", 2), ("U", 2)),
    (("U", 2), ("U", 2), ("diag", -4), ("diag", -4)),
    (("U", 4), ("U", 2), ("diag", -4)),
    (("U", 2), ("U", 2), ("U", 3)),
    (("U", 4), ("U", 2), ("diag", -2)),
    (("U", 2), ("diag", -4), ("diag", -4), ("diag", -2), ("diag", -2)),
)
# An op's cost moves by up to a third with the scramble; two scrambles of
# each sum keep the median op from resting on one scramble's cost.
SCRAMBLES_PER_SUM = 2


@dataclass(frozen=True)
class OverlatticeInput:
    blocks: tuple
    gram: tuple
    path: str


def overlattices_build(seed, workdir, catalogue=OVERLATTICE_SET, scrambles=SCRAMBLES_PER_SUM):
    inputs = []
    for index, blocks in enumerate(catalogue):
        plain = forms.sum_gram(blocks)
        for r in range(scrambles):
            rng = random.Random(f"overlattices/{seed}/{index}/{r}")
            gram = forms.scramble(plain, rng, 3 * len(plain))
            path = os.path.join(workdir, f"overlattices-{index}-{r}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"schema": 1, "gram": gram, "name": forms.expr_name(blocks)}, fh)
            inputs.append(OverlatticeInput(blocks, tuple(map(tuple, gram)), path))
    return inputs


def overlattices_op(inp):
    from evenlat import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["overlattices", inp.path])
    return code, buf.getvalue()


def expected_subgroups(blocks):
    """Isotropic subgroup counts by order, made apart from the program."""
    if all(b == ("U", 2) for b in blocks):
        return forms.singular_subspace_counts(len(blocks))
    return forms.BlockForm(blocks).isotropic_subgroup_orders()


def overlattices_check(inp, out) -> list[str]:
    code, text = out
    name = forms.expr_name(inp.blocks)
    if code != 0:
        return [f"overlattices {name}: exit code {code}"]
    found = json.loads(text)["overlattices"]
    errors = []
    by_order = {}
    for e in found:
        by_order[e["glue_order"]] = by_order.get(e["glue_order"], 0) + 1
    want = dict(expected_subgroups(inp.blocks))
    if by_order != want:
        errors.append(f"overlattices {name}: subgroups by order {by_order}, expected {want}")
    det_l = forms.det(inp.gram)
    n = len(inp.gram)
    for e in found:
        g = e["gram"]
        h = e["glue_order"]
        if len(g) != n or any(len(row) != n for row in g):
            errors.append(f"overlattices {name}: overlattice Gram is not {n}x{n}")
            continue
        if any(g[i][j] != g[j][i] or not isinstance(g[i][j], int) for i in range(n) for j in range(n)):
            errors.append(f"overlattices {name}: overlattice Gram is not symmetric integral")
        if any(g[i][i] % 2 for i in range(n)):
            errors.append(f"overlattices {name}: overlattice of glue order {h} is odd")
        d = forms.det(g)
        if d != e["det"] or d * h * h != det_l:
            errors.append(
                f"overlattices {name}: det {d} (reported {e['det']}) * {h}^2 != det L = {det_l}"
            )
    return errors


# ---------------------------------------------------------------------------
# queries: one op analyses one lattice with the lookup functions of discform

U1, E8 = ("U", 1), ("E8",)
A1, D4, D8, D12 = ("diag", -2), ("diag", -4), ("diag", -8), ("diag", -12)
# (lattice blocks, partner with the same group and a different q).  No form
# here has 2-rank above 4: on (Z/2)^6 the are_isomorphic backtracking
# swings from 40 to 43,000 b_value calls with the scramble.
QUERY_SET = (
    ((U1, E8, E8, ("U", 2), D4, D4), (U1, E8, E8, A1, A1, D4, D4)),
    ((U1, E8, ("U", 2), D4, D4), (U1, E8, A1, A1, D4, D4)),
    ((U1, ("U", 2), E8, E8, D8), (U1, A1, A1, E8, E8, D8)),
    ((("U", 2), E8, E8, ("U", 4)), (A1, A1, E8, E8, ("U", 4))),
    ((U1, E8, E8, D4, D4, D4, D4), (U1, E8, E8, ("U", 4), D4, D4)),
    ((U1, ("U", 2), E8, D4, D12), (U1, A1, A1, E8, D4, D12)),
)
SCRAMBLES_PER_LATTICE = 3


@dataclass(frozen=True)
class QueryInput:
    blocks: tuple
    partner_blocks: tuple
    gram: object            # evenlat IntMat of the scrambled lattice
    x: tuple                # class_of(lift(x)) must give x
    y: tuple                # class_of(lift(y) + v) must give y
    v: tuple                # a lattice vector
    plain: object           # from_lattice of the unscrambled lattice
    partner: object         # from_lattice of the partner


def queries_build(seed, workdir, catalogue=QUERY_SET, scrambles=SCRAMBLES_PER_LATTICE):
    from evenlat import discform, exactlinalg, lattice

    inputs = []
    for index, (blocks, partner_blocks) in enumerate(catalogue):
        plain_rows = forms.sum_gram(blocks)
        plain = discform.from_lattice(lattice.Lattice(exactlinalg.IntMat.from_rows(plain_rows)))
        partner = discform.from_lattice(
            lattice.Lattice(exactlinalg.IntMat.from_rows(forms.sum_gram(partner_blocks)))
        )
        factors = forms.invariant_factors(forms.BlockForm(blocks).orders)
        for r in range(scrambles):
            rng = random.Random(f"queries/{seed}/{index}/{r}")
            # n/2 row additions: from n on, the SNF transforms behind the dual
            # basis now and then reach thousands of digits, and one class_of
            # call then takes seconds instead of tens of milliseconds
            gram = forms.scramble(plain_rows, rng, len(plain_rows) // 2)
            x = tuple(rng.randrange(d) for d in factors)
            y = tuple(rng.randrange(d) for d in factors)
            v = tuple(rng.randint(-3, 3) for _ in plain_rows)
            inputs.append(
                QueryInput(
                    blocks, partner_blocks, exactlinalg.IntMat.from_rows(gram),
                    x, y, v, plain, partner,
                )
            )
    return inputs


@dataclass(frozen=True)
class QueryResult:
    orders: tuple
    q_diag: tuple
    b_mat: tuple
    isotropic_count: int
    class_x: tuple
    class_y: tuple
    witness: tuple | None
    partner_witness: tuple | None


def queries_op(inp):
    from evenlat import discform, lattice

    lat = lattice.Lattice(inp.gram)     # a fresh object: no cached det between rounds
    module = discform.from_lattice(lat)
    iso = discform.isotropic_elements(module)
    class_x = discform.class_of(module, lat.dual_vector(module.lift(inp.x)))
    lift_y = module.lift(inp.y)
    shifted = tuple(a + b for a, b in zip(lift_y, inp.v))
    class_y = discform.class_of(module, lat.dual_vector(shifted))
    witness = discform.are_isomorphic(module, inp.plain)
    partner_witness = discform.are_isomorphic(module, inp.partner)
    return QueryResult(
        module.orders, module.q_diag, module.b_mat, len(iso),
        class_x, class_y, witness, partner_witness,
    )


def _q(orders, q_diag, b_mat, x) -> Fraction:
    total = sum(e * e * q_diag[i] for i, e in enumerate(x))
    total += 2 * sum(
        x[i] * x[j] * b_mat[i][j] for i in range(len(x)) for j in range(i + 1, len(x))
    )
    return total - 2 * math.floor(total / 2)


def _b(b_mat, x, y) -> Fraction:
    total = sum(a * c * b_mat[i][j] for i, a in enumerate(x) for j, c in enumerate(y))
    return total - math.floor(total)


def _span_size(orders, gens) -> int:
    zero = tuple(0 for _ in orders)
    seen = {zero}
    todo = [zero]
    while todo:
        cur = todo.pop()
        for g in gens:
            nxt = tuple((a + c) % d for a, c, d in zip(cur, g, orders))
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return len(seen)


def witness_errors(res: QueryResult, target, images) -> list[str]:
    """Does g_i -> images[i] give an isometry from res's form onto target's?"""
    if images is None:
        return ["no witness for isomorphic forms"]
    k = len(res.orders)
    if len(images) != k:
        return [f"witness has {len(images)} images for {k} generators"]
    errors = []
    for i, y in enumerate(images):
        order = math.lcm(*(d // math.gcd(a, d) for a, d in zip(y, target.orders)))
        if order != res.orders[i]:
            errors.append(f"image {i} has order {order}, generator order {res.orders[i]}")
        if _q(target.orders, target.q_diag, target.b_mat, y) != res.q_diag[i]:
            errors.append(f"image {i} does not preserve q")
        for j in range(i + 1, k):
            if _b(target.b_mat, y, images[j]) != res.b_mat[i][j]:
                errors.append(f"images {i},{j} do not preserve b")
    if _span_size(target.orders, images) != math.prod(target.orders):
        errors.append("images do not generate the group")
    return errors


def queries_check(inp, res: QueryResult) -> list[str]:
    name = forms.expr_name(inp.blocks)
    form = forms.BlockForm(inp.blocks)
    errors = []
    factors = forms.invariant_factors(form.orders)
    if tuple(res.orders) != factors:
        errors.append(f"invariant factors {res.orders}, expected {factors}")
    if math.prod(res.orders) != abs(forms.det(inp.gram.entries)):
        errors.append("product of invariant factors is not |det L|")
    if res.class_x != inp.x:
        errors.append(f"class_of(lift(x)) = {res.class_x}, x = {inp.x}")
    if res.class_y != inp.y:
        errors.append(f"class_of(lift(y) + v) = {res.class_y}, y = {inp.y}")
    if res.isotropic_count != len(form.isotropic_elements()):
        errors.append(
            f"{res.isotropic_count} isotropic elements, expected {len(form.isotropic_elements())}"
        )
    errors += witness_errors(res, inp.plain, res.witness)
    if form.fingerprint() == forms.BlockForm(inp.partner_blocks).fingerprint():
        errors.append("partner form has the same fingerprint: not a valid non-isomorphic partner")
    if res.partner_witness is not None:
        errors.append("are_isomorphic found a witness against a form with a different q")
    return [f"queries {name}: {e}" for e in errors]


def as_is(out):
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    build: object
    op: object
    canon: object
    check: object


WORKLOADS = {
    "paper": Workload("paper", paper_build, paper_op, paper_canon, paper_check),
    "overlattices": Workload(
        "overlattices", overlattices_build, overlattices_op, as_is, overlattices_check,
    ),
    "queries": Workload("queries", queries_build, queries_op, as_is, queries_check),
}
