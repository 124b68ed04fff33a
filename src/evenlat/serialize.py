"""JSON schemas for matrices, configurations, and involutions.

Integers are JSON integers and rationals are strings "p/q", so nothing is
ever rounded.  Parsing errors carry the offending coordinates.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .curves import CoverStep, CurveConfig, InvolutionAction
from .exactlinalg import IntMat, RatMat

SCHEMA = 1


class ParseError(ValueError):
    """Malformed or schema-violating input."""


def rational_to_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def intmat_to_json(m: IntMat) -> list:
    return [list(row) for row in m.entries]


def ratmat_to_json(m: RatMat) -> list:
    return [[rational_to_json(e) for e in row] for row in m.entries]


def gram_to_json(m: IntMat, name: str | None = None) -> dict:
    out = {"schema": SCHEMA, "gram": intmat_to_json(m)}
    if name:
        out["name"] = name
    return out


def gram_from_json(data) -> tuple[IntMat, str | None]:
    if not isinstance(data, dict) or "gram" not in data:
        raise ParseError("expected an object with a 'gram' field")
    rows = data["gram"]
    if not isinstance(rows, list) or not rows:
        raise ParseError("'gram' must be a nonempty array of rows")
    n = len(rows)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"row {i + 1}: expected {n} entries")
        for j, e in enumerate(row):
            if not isinstance(e, int) or isinstance(e, bool):
                raise ParseError(f"entry ({i + 1},{j + 1}) is not an integer")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ParseError(
                    f"matrix is not symmetric at ({i + 1},{j + 1}) vs ({j + 1},{i + 1})"
                )
    return IntMat.from_rows(rows), data.get("name")


def rows_from_json(data) -> IntMat:
    if isinstance(data, dict):
        data = data.get("rows")
    if not isinstance(data, list) or not data:
        raise ParseError("expected a nonempty array of integer rows")
    width = None
    for i, row in enumerate(data):
        if not isinstance(row, list) or not row:
            raise ParseError(f"row {i + 1} is not a nonempty array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"row {i + 1}: expected {width} entries")
        for j, e in enumerate(row):
            if not isinstance(e, int) or isinstance(e, bool):
                raise ParseError(f"entry ({i + 1},{j + 1}) is not an integer")
    return IntMat.from_rows(data)


def config_to_json(config: CurveConfig) -> dict:
    mult = []
    for i in range(config.size):
        for j in range(i + 1, config.size):
            m = config.mult.entries[i][j]
            if m:
                mult.append([config.labels[i], config.labels[j], m])
    return {
        "schema": SCHEMA,
        "curves": [
            {"label": lab, "self": s} for lab, s in zip(config.labels, config.self_int)
        ],
        "mult": mult,
    }


def config_from_json(data) -> CurveConfig:
    if not isinstance(data, dict) or "curves" not in data:
        raise ParseError("expected an object with a 'curves' field")
    curves = data["curves"]
    if not isinstance(curves, list) or not curves:
        raise ParseError("'curves' must be a nonempty array")
    labels = []
    self_int = []
    for k, c in enumerate(curves):
        if not isinstance(c, dict) or "label" not in c or "self" not in c:
            raise ParseError(f"curve {k + 1}: expected fields 'label' and 'self'")
        if not isinstance(c["label"], str):
            raise ParseError(f"curve {k + 1}: label must be a string")
        if not isinstance(c["self"], int):
            raise ParseError(f"curve {k + 1}: self-intersection must be an integer")
        labels.append(c["label"])
        self_int.append(c["self"])
    if len(set(labels)) != len(labels):
        raise ParseError("curve labels must be unique")
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    mult = [[0] * n for _ in range(n)]
    for k, item in enumerate(data.get("mult", [])):
        if not isinstance(item, list) or len(item) != 3:
            raise ParseError(f"mult entry {k + 1}: expected [label, label, count]")
        la, lb, m = item
        if la not in index or lb not in index:
            raise ParseError(f"mult entry {k + 1}: unknown label")
        if not isinstance(m, int) or m < 0:
            raise ParseError(f"mult entry {k + 1}: multiplicity must be a nonnegative integer")
        i, j = index[la], index[lb]
        if i == j:
            raise ParseError(f"mult entry {k + 1}: self-intersections go in 'curves'")
        mult[i][j] = mult[j][i] = m
    return CurveConfig(tuple(labels), tuple(self_int), IntMat.from_rows(mult))


def involution_from_json(data) -> InvolutionAction:
    if not isinstance(data, dict) or "perm" not in data:
        raise ParseError("expected an object with a 'perm' field (0-based images)")
    perm = data["perm"]
    if not isinstance(perm, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in perm
    ):
        raise ParseError("'perm' must be an array of integers")
    try:
        return InvolutionAction(tuple(perm))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def cover_step_from_json(data) -> CoverStep:
    if not isinstance(data, dict) or "branch" not in data:
        raise ParseError("expected an object with 'branch' and point data")
    branch = data["branch"]
    if not isinstance(branch, list) or not all(isinstance(x, str) for x in branch):
        raise ParseError("'branch' must be an array of labels")
    bp = data.get("branch_points", {})
    if not isinstance(bp, dict):
        raise ParseError("'branch_points' must map labels to arrays of point ids")
    branch_points = {}
    for lab, pts in bp.items():
        if not isinstance(pts, list) or not all(isinstance(p, str) for p in pts):
            raise ParseError(f"branch points of {lab!r} must be an array of ids")
        branch_points[lab] = tuple(pts)
    shared = {}
    for k, item in enumerate(data.get("shared_points", [])):
        if not isinstance(item, list) or len(item) != 3:
            raise ParseError(f"shared point entry {k + 1}: expected [label, label, [ids]]")
        la, lb, ids = item
        if not isinstance(ids, list) or not all(isinstance(p, str) for p in ids):
            raise ParseError(f"shared point entry {k + 1}: ids must be strings")
        shared[frozenset((la, lb))] = tuple(ids)
    marked = {}
    for lab, pts in data.get("marked_points", {}).items():
        if not isinstance(pts, list) or not all(isinstance(p, str) for p in pts):
            raise ParseError(f"marked points of {lab!r} must be an array of ids")
        marked[lab] = tuple(pts)
    return CoverStep(frozenset(branch), branch_points, shared, marked)


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed JSON: {exc}") from exc


def dumps(data) -> str:
    return json.dumps(data, indent=2, sort_keys=False)
