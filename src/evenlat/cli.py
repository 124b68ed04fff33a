"""Command-line front end.

Subcommands expose the library: exact normal forms, discriminant data,
isotropic enumeration, overlattices, orthogonal complements, primitive
embedding checks, configuration operations, and the full verification run.
Output is deterministic JSON (or Markdown for reports).

Exit codes: 0 success, 1 verification failure, 2 parse error,
3 precondition violation, 4 search guard exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import discform as df
from . import serialize as ser
from .curves import double_cover_pullback, quotient_by_involution
from .exactlinalg import IntMat, snf, snf_rational
from .lattice import Lattice, orthogonal_complement, parse_lattice_expr, sublattice, is_primitive
from .reconstruct import reconstruct_24
from .verify import RESULT_IDS, VerificationReport, run_all

EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_GUARD = 4


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as a parse error: exit 2 with one
    stderr line, like every other malformed input."""

    def error(self, message):
        raise ser.ParseError(f"{self.prog}: {message}")


def _load_gram(path: str) -> tuple[IntMat, str | None]:
    return ser.gram_from_json(ser.load_json(path))


def _load_lattice_arg(arg: str) -> Lattice:
    """A lattice given either as a JSON Gram file or a name expression."""
    if os.path.exists(arg) or arg.endswith(".json"):
        gram, name = _load_gram(arg)
        return Lattice(gram, name)
    try:
        return parse_lattice_expr(arg)
    except ValueError as exc:
        raise ser.ParseError(f"{arg!r} is neither a file nor a lattice expression: {exc}")


def _load_rows_arg(arg: str) -> IntMat:
    """Generator rows given inline as JSON or as a file with a 'rows' field."""
    text = arg.strip()
    if text.startswith("["):
        try:
            data = json.loads(text)
        # a JSONDecodeError, an integer past the digit limit, or nesting past the stack
        except (ValueError, RecursionError) as exc:
            raise ser.ParseError(f"inline rows: malformed JSON: {exc}")
        return ser.rows_from_json(data)
    return ser.rows_from_json(ser.load_json(arg))


def _emit(data) -> None:
    sys.stdout.write(ser.dumps(data) + "\n")


def cmd_snf(args) -> int:
    gram, _name = _load_gram(args.input)
    if args.rational or args.inverse:
        mat = gram.to_rational()
        if args.inverse:
            try:
                mat = gram.inverse()
            except ValueError:
                raise ValueError("matrix is singular; no inverse to decompose")
        d, s, t = snf_rational(mat)
    else:
        d, s, t = snf(gram)
    # integer entries print as integers, so one layout serves both forms
    entries = d.entries
    _emit(
        {
            "schema": ser.SCHEMA,
            "D": ser.ratmat_to_json(d),
            "S": ser.intmat_to_json(s),
            "T": ser.intmat_to_json(t),
            "invariant_factors": [
                ser.rational_to_json(entries[i][i]) for i in range(min(d.rows, d.cols))
            ],
        }
    )
    return 0


def cmd_disc(args) -> int:
    gram, name = _load_gram(args.input)
    module = df.from_lattice(Lattice(gram, name))
    _emit(
        {
            "schema": ser.SCHEMA,
            "invariant_factors": list(module.orders),
            "order": module.order,
            "generators": [
                [ser.rational_to_json(Fraction(a, module.disc.lift_den)) for a in row]
                for row in module.disc.lift_num
            ],
            "q_table": [ser.rational_to_json(q) for q in module.q_diag],
            "b_table": [
                [ser.rational_to_json(b) for b in row] for row in module.b_mat
            ],
        }
    )
    return 0


def _guard_limit() -> int:
    """The search guard; a malformed EVENLAT_GUARD_ORDER is a parse error."""
    try:
        return df.guard_order()
    except ValueError as exc:
        raise ser.ParseError(str(exc)) from exc


def _check_enumeration_guard(module: df.FiniteQuadraticModule) -> None:
    limit = _guard_limit()
    if module.order > limit:
        raise df.GuardExceeded(
            f"module order {module.order} exceeds the enumeration guard {limit}"
        )


def cmd_isotropic(args) -> int:
    gram, name = _load_gram(args.input)
    module = df.from_lattice(Lattice(gram, name))
    _check_enumeration_guard(module)
    out = {
        "schema": ser.SCHEMA,
        "orders": list(module.orders),
        "isotropic_elements": [list(x) for x in df.isotropic_elements(module)],
    }
    if args.subgroups:
        out["isotropic_subgroups"] = [
            {"order": sub.order, "generators": [list(g) for g in sub.gens]}
            for sub in df.isotropic_subgroups(module)
        ]
    _emit(out)
    return 0


def cmd_overlattices(args) -> int:
    gram, name = _load_gram(args.input)
    lat = Lattice(gram, name)
    module = df.from_lattice(lat)
    _check_enumeration_guard(module)
    out = []
    for sub in df.isotropic_subgroups(module):
        over = df.overlattice(lat, sub)
        out.append(
            {
                "glue_order": sub.order,
                "glue_generators": [list(g) for g in sub.gens],
                "gram": ser.intmat_to_json(over.gram),
                # L has index |H| in L', so det(L') = det(L) / |H|^2 exactly
                "det": lat.det // (sub.order * sub.order),
            }
        )
    _emit({"schema": ser.SCHEMA, "overlattices": out})
    return 0


def cmd_complement(args) -> int:
    ambient = _load_lattice_arg(args.ambient)
    gens = _load_rows_arg(args.gens)
    comp = orthogonal_complement(ambient, gens)
    _emit(
        {
            "schema": ser.SCHEMA,
            "basis": ser.intmat_to_json(comp.basis_coords),
            "gram": ser.intmat_to_json(comp.induced_gram),
            "degenerate": comp.is_degenerate,
        }
    )
    return 0


def cmd_embed_check(args) -> int:
    ambient = _load_lattice_arg(args.ambient)
    gens = _load_rows_arg(args.gens)
    sub = sublattice(ambient, gens)
    _emit(
        {
            "schema": ser.SCHEMA,
            "primitive": is_primitive(ambient, gens),
            "gram": ser.intmat_to_json(sub.induced_gram),
        }
    )
    return 0


def cmd_config(args) -> int:
    if args.operation == "reconstruct":
        if args.config is not None:
            raise ser.ParseError("config reconstruct: takes no file arguments")
    else:
        for name in ("config", "data"):
            if getattr(args, name) is None:
                raise ser.ParseError(f"config {args.operation}: missing the {name} file argument")
    if args.operation == "pullback":
        config = ser.config_from_json(ser.load_json(args.config))
        step = ser.cover_step_from_json(ser.load_json(args.data))
        result = double_cover_pullback(config, step)
        _emit(
            {
                "schema": ser.SCHEMA,
                "ambiguous": result.is_ambiguous,
                "options": [
                    {
                        "config": ser.config_to_json(opt.config),
                        "label_map": {k: list(v) for k, v in sorted(opt.label_map.items())},
                    }
                    for opt in result.options
                ],
            }
        )
        return 0
    if args.operation == "quotient":
        config = ser.config_from_json(ser.load_json(args.config))
        act = ser.involution_from_json(ser.load_json(args.data))
        quot = quotient_by_involution(config, act)
        _emit(
            {
                "schema": ser.SCHEMA,
                "config": ser.config_to_json(quot.config),
                "orbit_map": {k: list(v) for k, v in sorted(quot.orbit_map.items())},
            }
        )
        return 0
    # argparse admits no other operation than reconstruct here
    rec = reconstruct_24()
    out = {"schema": ser.SCHEMA, "census": rec.census_sizes()}
    if len(rec.tier3) == 1:
        out["config"] = ser.config_to_json(rec.config())
    else:
        out["solutions"] = [ser.intmat_to_json(g) for g in rec.tier3]
    _emit(out)
    return 0


def cmd_verify_paper(args) -> int:
    _guard_limit()
    if args.result and args.result not in RESULT_IDS:
        raise ValueError(
            f"unknown result id {args.result!r}; known: {', '.join(RESULT_IDS)}"
        )
    entries = run_all().entries
    if args.result:
        entries = tuple(e for e in entries if e.result_id == args.result)
    filtered = VerificationReport(entries)
    if args.format == "md":
        sys.stdout.write(filtered.to_markdown())
    else:
        _emit(filtered.to_dict())
    return 0 if filtered.all_passed else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="evenlat",
        description="Exact lattice computations for the triple-double K3 family",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snf", help="Smith normal form with transforms")
    p.add_argument("input", help="path to a Gram-matrix JSON file")
    p.add_argument("--rational", action="store_true", help="rational SNF of the matrix")
    p.add_argument("--inverse", action="store_true", help="decompose the inverse matrix")
    p.set_defaults(func=cmd_snf)

    p = sub.add_parser("disc", help="discriminant group and quadratic form")
    p.add_argument("input")
    p.set_defaults(func=cmd_disc)

    p = sub.add_parser("isotropic", help="isotropic elements of the discriminant form")
    p.add_argument("input")
    p.add_argument("--subgroups", action="store_true", help="also enumerate isotropic subgroups")
    p.set_defaults(func=cmd_isotropic)

    p = sub.add_parser("overlattices", help="even overlattices via isotropic subgroups")
    p.add_argument("input")
    p.set_defaults(func=cmd_overlattices)

    p = sub.add_parser("complement", help="saturated orthogonal complement")
    p.add_argument("ambient", help="Gram file or lattice expression like 'U+U(2)+diag(-4,-4)'")
    p.add_argument("gens", help="rows file or inline JSON like '[[1,1,1],[-1,1,0]]'")
    p.set_defaults(func=cmd_complement)

    p = sub.add_parser("embed-check", help="induced Gram and primitivity of a sublattice")
    p.add_argument("ambient")
    p.add_argument("gens")
    p.set_defaults(func=cmd_embed_check)

    p = sub.add_parser("config", help="curve configuration operations")
    p.add_argument("operation", choices=("pullback", "quotient", "reconstruct"))
    p.add_argument("config", nargs="?", help="configuration JSON file")
    p.add_argument("data", nargs="?", help="cover step or involution JSON file")
    p.set_defaults(func=cmd_config)

    p = sub.add_parser("verify-paper", help="run the verification harness")
    p.add_argument("--result", help="restrict to one result id")
    p.add_argument("--format", default="json", choices=("json", "md"))
    p.set_defaults(func=cmd_verify_paper)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ser.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except df.GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
