"""The JSON format, in both directions: Gram matrices, generator rows,
curve configurations, cover steps and involutions.

``dumps`` writes ints, tuples and Fractions exactly: an integral Fraction
becomes a JSON integer and any other the string "p/q", so nothing is ever
rounded.  ``parse_json`` and ``load_json`` read JSON text, and the
``*_from_json`` readers check a parsed document against its schema.  Every
malformed input is a ``ParseError`` that names the offending coordinates.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from fractions import Fraction

from .curves import CoverStep, CurveConfig, InvolutionAction
from .exactlinalg import IntMat

SCHEMA = 1


class ParseError(ValueError):
    """Malformed or schema-violating input."""


def _check_schema(data: dict) -> None:
    """Accept a document whose 'schema' is absent or the integer SCHEMA."""
    schema = data.get("schema", SCHEMA)
    if type(schema) is not int or schema != SCHEMA:
        raise ParseError(f"'schema' must be {SCHEMA} when present")


@contextmanager
def _all_digits():
    """Convert integers of any length to text inside this block.

    Python caps the decimal conversion of an int, by default at 4300
    digits, to bound the cost of parsing untrusted text.  The cap stays on
    while input is read, so an oversized input integer is still a parse
    error; output prints exact results, such as Smith transforms, in full.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _check_int_row(i: int, row, width: int) -> None:
    """Row i (0-based) must be an array of width integers."""
    if not isinstance(row, list) or len(row) != width:
        raise ParseError(f"row {i + 1}: expected {width} entries")
    for j, e in enumerate(row):
        if not isinstance(e, int) or isinstance(e, bool):
            raise ParseError(f"entry ({i + 1},{j + 1}) is not an integer")


def gram_from_json(data) -> tuple[IntMat, str | None]:
    if not isinstance(data, dict) or "gram" not in data:
        raise ParseError("expected an object with a 'gram' field")
    _check_schema(data)
    rows = data["gram"]
    if not isinstance(rows, list) or not rows:
        raise ParseError("'gram' must be a nonempty array of rows")
    n = len(rows)
    for i, row in enumerate(rows):
        _check_int_row(i, row, n)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ParseError(
                    f"matrix is not symmetric at ({i + 1},{j + 1}) vs ({j + 1},{i + 1})"
                )
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError("'name' must be a string")
    return IntMat.from_rows(rows), name


def rows_from_json(data) -> IntMat:
    if isinstance(data, dict):
        _check_schema(data)
        data = data.get("rows")
    if not isinstance(data, list) or not data:
        raise ParseError("expected a nonempty array of integer rows")
    for i, row in enumerate(data):
        if not isinstance(row, list) or not row:
            raise ParseError(f"row {i + 1} is not a nonempty array")
        # the first row, checked above, sets the width
        _check_int_row(i, row, len(data[0]))
    return IntMat.from_rows(data)


def config_to_json(config: CurveConfig) -> dict:
    g, labels, n = config.gram.entries, config.labels, config.size
    return {
        "schema": SCHEMA,
        "curves": [{"label": lab, "self": g[i][i]} for i, lab in enumerate(labels)],
        "mult": [
            [labels[i], labels[j], g[i][j]] for i in range(n) for j in range(i + 1, n) if g[i][j]
        ],
    }


def config_from_json(data) -> CurveConfig:
    if not isinstance(data, dict) or "curves" not in data:
        raise ParseError("expected an object with a 'curves' field")
    _check_schema(data)
    curves = data["curves"]
    if not isinstance(curves, list) or not curves:
        raise ParseError("'curves' must be a nonempty array")
    labels = []
    diag = []
    for k, c in enumerate(curves):
        if not isinstance(c, dict) or "label" not in c or "self" not in c:
            raise ParseError(f"curve {k + 1}: expected fields 'label' and 'self'")
        if not isinstance(c["label"], str):
            raise ParseError(f"curve {k + 1}: label must be a string")
        if not isinstance(c["self"], int) or isinstance(c["self"], bool):
            raise ParseError(f"curve {k + 1}: self-intersection must be an integer")
        labels.append(c["label"])
        diag.append(c["self"])
    if len(set(labels)) != len(labels):
        raise ParseError("curve labels must be unique")
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    gram = [[s if i == j else 0 for j in range(n)] for i, s in enumerate(diag)]
    items = data.get("mult", [])
    if not isinstance(items, list):
        raise ParseError("'mult' must be an array of [label, label, count] entries")
    seen = set()
    for k, item in enumerate(items):
        if not isinstance(item, list) or len(item) != 3:
            raise ParseError(f"mult entry {k + 1}: expected [label, label, count]")
        la, lb, m = item
        if not isinstance(la, str) or not isinstance(lb, str):
            raise ParseError(f"mult entry {k + 1}: labels must be strings")
        if la not in index or lb not in index:
            raise ParseError(f"mult entry {k + 1}: unknown label")
        if not isinstance(m, int) or isinstance(m, bool) or m < 0:
            raise ParseError(f"mult entry {k + 1}: multiplicity must be a nonnegative integer")
        i, j = index[la], index[lb]
        if i == j:
            raise ParseError(f"mult entry {k + 1}: self-intersections go in 'curves'")
        if (i, j) in seen:
            raise ParseError(f"mult entry {k + 1}: repeats the pair {la}, {lb}")
        seen |= {(i, j), (j, i)}
        gram[i][j] = gram[j][i] = m
    return CurveConfig(tuple(labels), IntMat.from_rows(gram))


def involution_from_json(data) -> InvolutionAction:
    if not isinstance(data, dict) or "perm" not in data:
        raise ParseError("expected an object with a 'perm' field (0-based images)")
    _check_schema(data)
    perm = data["perm"]
    if not isinstance(perm, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in perm
    ):
        raise ParseError("'perm' must be an array of integers")
    try:
        return InvolutionAction(tuple(perm))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _points_by_label(data, kind: str) -> dict:
    """data[kind + "_points"], a map from labels to arrays of point ids."""
    raw = data.get(f"{kind}_points", {})
    if not isinstance(raw, dict):
        raise ParseError(f"'{kind}_points' must map labels to arrays of point ids")
    points = {}
    for lab, pts in raw.items():
        if not isinstance(pts, list) or not all(isinstance(p, str) for p in pts):
            raise ParseError(f"{kind} points of {lab!r} must be an array of ids")
        points[lab] = tuple(pts)
    return points


def cover_step_from_json(data) -> CoverStep:
    if not isinstance(data, dict) or "branch" not in data:
        raise ParseError("expected an object with 'branch' and point data")
    _check_schema(data)
    branch = data["branch"]
    if not isinstance(branch, list) or not all(isinstance(x, str) for x in branch):
        raise ParseError("'branch' must be an array of labels")
    branch_points = _points_by_label(data, "branch")
    items = data.get("shared_points", [])
    if not isinstance(items, list):
        raise ParseError("'shared_points' must be an array of [label, label, [ids]] entries")
    shared = {}
    for k, item in enumerate(items):
        if not isinstance(item, list) or len(item) != 3:
            raise ParseError(f"shared point entry {k + 1}: expected [label, label, [ids]]")
        la, lb, ids = item
        if not isinstance(la, str) or not isinstance(lb, str) or la == lb:
            raise ParseError(f"shared point entry {k + 1}: expected two distinct labels")
        if not isinstance(ids, list) or not all(isinstance(p, str) for p in ids):
            raise ParseError(f"shared point entry {k + 1}: ids must be strings")
        pair = frozenset((la, lb))
        if pair in shared:
            raise ParseError(f"shared point entry {k + 1}: repeats the pair {la}, {lb}")
        shared[pair] = tuple(ids)
    marked = _points_by_label(data, "marked")
    return CoverStep(frozenset(branch), branch_points, shared, marked)


def parse_json(text: str, where: str):
    """The document in JSON text; malformed text is a ParseError naming where."""
    try:
        return json.loads(text)
    # a JSONDecodeError, an integer past the digit limit, or nesting past the stack
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{where}: malformed JSON: {exc}") from exc


def load_json(path: str):
    """The document in the UTF-8 JSON file at path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: malformed JSON: {exc}") from exc
    return parse_json(text, path)


def _fraction_to_json(x):
    """The json default hook: an integral Fraction as an int, any other as "p/q"."""
    if not isinstance(x, Fraction):
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    if x.denominator == 1:
        return x.numerator
    return f"{x.numerator}/{x.denominator}"


def dumps(data) -> str:
    """JSON text of data, indented by 2; Fractions are written exactly."""
    with _all_digits():
        return json.dumps(data, indent=2, default=_fraction_to_json)
