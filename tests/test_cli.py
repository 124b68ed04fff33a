import contextlib
import io
import itertools
import json
import os
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import evenlat.cli as cli
import evenlat.discform as df
import evenlat.serialize as ser
from evenlat.cli import main
from evenlat.serialize import (
    ParseError,
    config_from_json,
    config_to_json,
    cover_step_from_json,
    gram_from_json,
    involution_from_json,
    rows_from_json,
)
from serialize_oracle import encode, intmat_to_json, ratmat_to_json, rational_to_json
from evenlat.curves import hexagon_config
from evenlat.exactlinalg import IntMat, RatMat, snf, snf_rational
from evenlat.lattice import parse_lattice_expr
from evenlat.verify import run_all
from deck_oracle import golden_gram_rows
import linalg_oracle

Q_ROWS = [
    [-2, 0, 1, 0, 2, -1],
    [0, -6, -1, -4, 4, -5],
    [1, -1, -8, 6, 2, 0],
    [0, -4, 6, -16, 4, -2],
    [2, 4, 2, 4, -8, 6],
    [-1, -5, 0, -2, 6, -12],
]

CFG_AB = {
    "schema": 1,
    "curves": [{"label": "a", "self": -2}, {"label": "b", "self": -2}],
    "mult": [["a", "b", 1]],
}
INV_AB = {"perm": [1, 0]}
STEP_AB = {"schema": 1, "branch": ["l0"], "branch_points": {"a": ["x", "y"]}}


@pytest.fixture()
def q_file(tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"schema": 1, "gram": Q_ROWS, "name": "Q"}))
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


@contextlib.contextmanager
def no_digit_cap():
    """Lift Python's cap on int-to-str conversion, to read exact output."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestSNF:
    def test_rational_inverse(self, capsys, q_file):
        code, out, _ = run_cli(capsys, "snf", q_file, "--rational", "--inverse")
        assert code == 0
        data = json.loads(out)
        assert data["invariant_factors"] == [1, 1, "1/2", "1/2", "1/4", "1/4"]

    def test_integer_identity(self, capsys, tmp_path):
        path = tmp_path / "id.json"
        path.write_text(json.dumps({"schema": 1, "gram": [[1, 0], [0, 1]]}))
        code, out, _ = run_cli(capsys, "snf", str(path))
        assert code == 0
        assert json.loads(out)["D"] == [[1, 0], [0, 1]]

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run_cli(capsys, "snf", str(path))
        assert code == 2
        assert "malformed" in err

    def test_asymmetric_exits_2_with_coordinates(self, capsys, tmp_path):
        path = tmp_path / "asym.json"
        path.write_text(json.dumps({"schema": 1, "gram": [[0, 1], [2, 0]]}))
        code, _, err = run_cli(capsys, "snf", str(path))
        assert code == 2
        assert "(1,2)" in err

    def test_singular_rational_exits_3(self, capsys, tmp_path):
        path = tmp_path / "sing.json"
        path.write_text(json.dumps({"schema": 1, "gram": [[1, 1], [1, 1]]}))
        code, _, err = run_cli(capsys, "snf", str(path), "--rational")
        assert code == 3
        assert err == "error: rational SNF requires a nonsingular matrix\n"

    @pytest.mark.parametrize("gram", [[[1, 1], [1, 1]], [[0]]])
    @pytest.mark.parametrize("flags", [["--inverse"], ["--rational", "--inverse"]])
    def test_singular_inverse_exits_3(self, capsys, tmp_path, gram, flags):
        path = tmp_path / "sing.json"
        path.write_text(json.dumps({"schema": 1, "gram": gram}))
        code, out, err = run_cli(capsys, "snf", str(path), *flags)
        assert code == 3
        assert out == ""
        assert err == "error: matrix is singular; no inverse to decompose\n"


    @pytest.mark.parametrize("flags", [[], ["--rational"]])
    def test_transforms_past_the_digit_cap(self, capsys, flags):
        # a scrambled sum U+E8+E8+U(2)+<-4>+<-4> with 2-digit entries,
        # whose Smith transforms pass the 4300 digits that Python converts
        # to text by default; input past the cap still exits 2 (_HUGE below)
        path = os.path.join(GOLDEN, "snf_digit_limit.gram.json")
        cap = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "snf", path, *flags)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == cap
        with open(path) as fh:
            gram = IntMat.from_rows(json.load(fh)["gram"])
        d, s, t = snf_rational(gram.to_rational()) if flags else snf(gram)
        with no_digit_cap():
            data = json.loads(out)
            assert max(len(str(abs(e))) for row in s.entries + t.entries for e in row) > cap
        assert data == {
            "schema": 1,
            "D": ratmat_to_json(d),
            "S": intmat_to_json(s),
            "T": intmat_to_json(t),
            "invariant_factors": [rational_to_json(d.entries[i][i]) for i in range(d.rows)],
        }

    def test_rational_entries_past_the_digit_cap(self, capsys, q_file, monkeypatch):
        big = 10**5000
        monkeypatch.setattr(
            cli, "snf_rational", lambda a: (RatMat(((1,),), big), IntMat(((big,),)), IntMat(((1,),)))
        )
        code, out, err = run_cli(capsys, "snf", q_file, "--rational")
        assert (code, err) == (0, "")
        with no_digit_cap():
            data = json.loads(out)
            assert data["D"] == [[f"1/{big}"]] and data["invariant_factors"] == [f"1/{big}"]
            assert data["S"] == [[big]]


class TestDiscAndIsotropic:
    def test_deeply_nested_json_exits_2(self, capsys, tmp_path):
        # deep enough to overflow the decoder's recursion
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, "disc", str(path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and "malformed JSON" in err
        assert "Traceback" not in err

    def test_disc(self, capsys, q_file):
        code, out, _ = run_cli(capsys, "disc", q_file)
        assert code == 0
        data = json.loads(out)
        assert data["invariant_factors"] == [2, 2, 4, 4]
        assert data["order"] == 64

    def test_isotropic(self, capsys, q_file):
        code, out, _ = run_cli(capsys, "isotropic", q_file, "--subgroups")
        assert code == 0
        data = json.loads(out)
        assert len(data["isotropic_elements"]) == 7
        assert len(data["isotropic_subgroups"]) == 11

    def test_guard_exceeded_exits_4(self, capsys, q_file, monkeypatch):
        monkeypatch.setenv("EVENLAT_GUARD_ORDER", "16")
        code, _, err = run_cli(capsys, "isotropic", q_file)
        assert code == 4

    @pytest.mark.parametrize("command", [["isotropic", "--subgroups"], ["overlattices"]])
    def test_guard_exits_4_before_enumeration(self, capsys, q_file, monkeypatch, command):
        def refuse(module):
            raise AssertionError("enumeration started above the guard")

        monkeypatch.setenv("EVENLAT_GUARD_ORDER", "16")
        monkeypatch.setattr(df, "isotropic_elements", refuse)
        monkeypatch.setattr(df, "isotropic_subgroups", refuse)
        code, out, err = run_cli(capsys, *command, q_file)
        assert code == 4
        assert out == ""
        assert "exceeds the enumeration guard 16" in err

    @pytest.mark.parametrize(
        "command, value",
        [(["isotropic"], "abc"), (["overlattices"], "0"), (["isotropic", "--subgroups"], "-5")],
    )
    def test_malformed_guard_exits_2(self, capsys, q_file, monkeypatch, command, value):
        monkeypatch.setenv("EVENLAT_GUARD_ORDER", value)
        code, out, err = run_cli(capsys, *command, q_file)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "EVENLAT_GUARD_ORDER" in err and repr(value) in err

    def test_overlattices(self, capsys, tmp_path):
        path = tmp_path / "pm.json"
        path.write_text(json.dumps({"schema": 1, "gram": [[2, 0], [0, -2]]}))
        code, out, _ = run_cli(capsys, "overlattices", str(path))
        assert code == 0
        data = json.loads(out)
        assert [o["glue_order"] for o in data["overlattices"]] == [1, 2]
        assert data["overlattices"][1]["det"] == -1

    def test_determinism(self, capsys, q_file):
        _, out1, _ = run_cli(capsys, "isotropic", q_file, "--subgroups")
        _, out2, _ = run_cli(capsys, "isotropic", q_file, "--subgroups")
        assert out1 == out2


class TestComplementAndEmbed:
    def test_embed_check_published_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "embed-check", "U(2)+diag(-8)", "[[1,1,1],[-1,1,0]]"
        )
        assert code == 0
        data = json.loads(out)
        assert data == {
            "schema": 1,
            "primitive": True,
            "gram": [[-4, 0], [0, -4]],
        }

    def test_complement(self, capsys):
        code, out, _ = run_cli(capsys, "complement", "U+U", "[[1,0,0,0],[0,1,0,0]]")
        assert code == 0
        assert json.loads(out)["gram"] == [[0, 1], [1, 0]]

    def test_dimension_mismatch_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "complement", "U", "[[1,0,0]]")
        assert code == 3

    def test_bad_expression_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "embed-check", "NotALattice", "[[1]]")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["complement", "-U", "[[0]]"], ["complement", "U"], ["config", "nope"], [],
    ])
    def test_malformed_command_line_exits_2(self, capsys, argv):
        # an expression with a leading "-" reads as an option to the argument parser
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: evenlat")

    def test_deeply_nested_inline_rows_exit_2(self, capsys):
        rows = "[" * 20_000 + "]" * 20_000
        code, out, err = run_cli(capsys, "complement", "U", rows)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: inline rows: malformed JSON")
        assert "Traceback" not in err

    @pytest.mark.parametrize("expr, rows", [
        ("U+", "[[1,0]]"), ("+U", "[[1,0]]"), ("U++U", "[[1,0,0,0]]"), ("U+ +U", "[[1,0,0,0]]"),
    ])
    def test_empty_summand_exits_2(self, capsys, expr, rows):
        code, _, err = run_cli(capsys, "complement", expr, rows)
        assert code == 2
        assert "empty summand" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("expr, rows", [
        ("diag(0)", "[[1]]"), ("diag(2,0)", "[[1,0]]"), ("<0>", "[[1]]"),
        ("U+diag(0,-2)", "[[1,0,0,0]]"),
    ])
    def test_zero_diagonal_entry_exits_2(self, capsys, expr, rows):
        code, _, err = run_cli(capsys, "complement", expr, rows)
        assert code == 2
        assert "degenerate" in err and len(err.splitlines()) == 1


class TestConfigCommands:
    def test_quotient(self, capsys, tmp_path):
        cfg = {
            "schema": 1,
            "curves": [{"label": "a", "self": -2}, {"label": "b", "self": -2}],
            "mult": [],
        }
        inv = {"perm": [1, 0]}
        cfg_path = tmp_path / "cfg.json"
        inv_path = tmp_path / "inv.json"
        cfg_path.write_text(json.dumps(cfg))
        inv_path.write_text(json.dumps(inv))
        code, out, _ = run_cli(capsys, "config", "quotient", str(cfg_path), str(inv_path))
        assert code == 0
        data = json.loads(out)
        assert data["config"]["curves"] == [{"label": "C1", "self": -2}]

    @pytest.mark.parametrize(
        "curves, mult",
        [
            ([{"label": "a", "self": True}, {"label": "b", "self": -2}], []),
            ([{"label": "a", "self": -2}, {"label": "b", "self": -2}], [["a", "b", True]]),
        ],
    )
    def test_boolean_intersection_number_exits_2(self, capsys, tmp_path, curves, mult):
        cfg_path = tmp_path / "cfg.json"
        inv_path = tmp_path / "inv.json"
        cfg_path.write_text(json.dumps({"schema": 1, "curves": curves, "mult": mult}))
        inv_path.write_text(json.dumps({"perm": [1, 0]}))
        code, _, err = run_cli(capsys, "config", "quotient", str(cfg_path), str(inv_path))
        assert code == 2
        assert "integer" in err

    @pytest.mark.parametrize(
        "operation, config, data, message",
        [
            ("pullback", None, None, "missing the config file argument"),
            ("quotient", CFG_AB, None, "missing the data file argument"),
            ("quotient", dict(CFG_AB, mult=[[{}, "b", 1]]), INV_AB, "labels must be strings"),
            ("quotient", dict(CFG_AB, mult=5), INV_AB, "'mult' must be an array"),
            ("quotient", dict(CFG_AB, mult=None), INV_AB, "'mult' must be an array"),
            ("pullback", CFG_AB, dict(STEP_AB, shared_points=5), "'shared_points' must be"),
            ("pullback", CFG_AB, dict(STEP_AB, shared_points=[[{}, "b", ["p"]]]), "two distinct"),
            ("pullback", CFG_AB, dict(STEP_AB, shared_points=[["a", "a", ["p"]]]), "two distinct"),
            ("pullback", CFG_AB, dict(STEP_AB, marked_points=[]), "'marked_points' must map"),
            ("reconstruct", "nothere.json", None, "takes no file arguments"),
            ("reconstruct", "nothere.json", "alsonot.json", "takes no file arguments"),
            ("reconstruct", CFG_AB, INV_AB, "takes no file arguments"),
            (
                "quotient", dict(CFG_AB, mult=[["a", "b", 1], ["b", "a", 3]]), INV_AB,
                "mult entry 2: repeats the pair b, a",
            ),
            (
                "pullback", CFG_AB, dict(STEP_AB, shared_points=[["a", "b", ["p"]], ["b", "a", []]]),
                "shared point entry 2: repeats the pair b, a",
            ),
            ("pullback", CFG_AB, dict(STEP_AB, marked_points={"a": [3]}), "marked points of 'a'"),
            ("pullback", CFG_AB, dict(STEP_AB, branch_points={"a": "xy"}), "branch points of 'a'"),
            # branch_points is read before shared_points
            (
                "pullback", CFG_AB, dict(STEP_AB, branch_points=[], shared_points=5),
                "'branch_points' must map",
            ),
        ],
    )
    def test_malformed_document_exits_2(self, capsys, tmp_path, operation, config, data, message):
        # a document is written to a file; a string is passed as a path as it is
        paths = []
        for name, doc in (("cfg.json", config), ("data.json", data)):
            if isinstance(doc, str):
                paths.append(str(tmp_path / doc))
            elif doc is not None:
                (tmp_path / name).write_text(json.dumps(doc))
                paths.append(str(tmp_path / name))
        code, out, err = run_cli(capsys, "config", operation, *paths)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize(
        "points, label",
        [
            ({"shared_points": [["X", "b", ["p"]]]}, "X"),
            ({"marked_points": {"Z": ["p"]}}, "Z"),
            ({"branch_points": {"a": ["x", "y"], "W": ["u", "v"]}}, "W"),
        ],
    )
    def test_pullback_untracked_curve_exits_3(self, capsys, tmp_path, points, label):
        (tmp_path / "cfg.json").write_text(json.dumps(CFG_AB))
        (tmp_path / "step.json").write_text(json.dumps(dict(STEP_AB, **points)))
        code, out, err = run_cli(
            capsys, "config", "pullback", str(tmp_path / "cfg.json"), str(tmp_path / "step.json")
        )
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and f"untracked curves: ['{label}']" in err

    def test_pullback_repeated_point_id_exits_3(self, capsys, tmp_path):
        cfg = dict(CFG_AB, mult=[["a", "b", 2]])
        step = {"schema": 1, "branch": ["l0"], "shared_points": [["a", "b", ["p", "p"]]]}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        (tmp_path / "step.json").write_text(json.dumps(step))
        code, out, err = run_cli(
            capsys, "config", "pullback", str(tmp_path / "cfg.json"), str(tmp_path / "step.json")
        )
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and "a.b lists a shared point id twice" in err

    @pytest.mark.parametrize(
        "points, message",
        [
            ({"branch_points": {"a": ["x", "x"]}}, "a lists a branch point id twice"),
            ({"marked_points": {"b": ["m", "m"]}}, "b lists a marked point id twice"),
        ],
    )
    def test_pullback_repeated_branch_or_marked_id_exits_3(self, capsys, tmp_path, points, message):
        (tmp_path / "cfg.json").write_text(json.dumps(dict(CFG_AB, mult=[])))
        (tmp_path / "step.json").write_text(json.dumps({"branch": ["l0"], **points}))
        code, out, err = run_cli(
            capsys, "config", "pullback", str(tmp_path / "cfg.json"), str(tmp_path / "step.json")
        )
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and message in err

    def test_pullback(self, capsys, tmp_path):
        cfg = {
            "schema": 1,
            "curves": [{"label": "c", "self": -1}],
            "mult": [],
        }
        step = {
            "schema": 1,
            "branch": ["l0", "l1"],
            "branch_points": {"c": ["x", "y"]},
            "shared_points": [],
        }
        cfg_path = tmp_path / "cfg.json"
        step_path = tmp_path / "step.json"
        cfg_path.write_text(json.dumps(cfg))
        step_path.write_text(json.dumps(step))
        code, out, _ = run_cli(capsys, "config", "pullback", str(cfg_path), str(step_path))
        assert code == 0
        data = json.loads(out)
        assert data["ambiguous"] is False
        assert data["options"][0]["config"]["curves"] == [{"label": "c", "self": -2}]

    def test_pullback_counts_crossed_points(self, capsys, tmp_path):
        # two split curves meeting 40 times: option k crosses k points
        m = 40
        cfg = dict(CFG_AB, mult=[["a", "b", m]])
        ids = [f"p{t}" for t in range(m)]
        step = {"schema": 1, "branch": ["l0"], "shared_points": [["a", "b", ids]]}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        (tmp_path / "step.json").write_text(json.dumps(step))
        code, out, _ = run_cli(
            capsys, "config", "pullback", str(tmp_path / "cfg.json"), str(tmp_path / "step.json")
        )
        assert code == 0
        options = json.loads(out)["options"]
        assert len(options) == m
        for k, opt in enumerate(options):
            mult = {(x, y): n for x, y, n in opt["config"]["mult"]}
            assert [mult.get(pair, 0) for pair in [("aa", "bb"), ("ab", "ba")]] == [k, k]
            assert [mult.get(pair, 0) for pair in [("aa", "ba"), ("ab", "bb")]] == [m - k, m - k]

    def test_reconstruct(self, capsys):
        code, out, _ = run_cli(capsys, "config", "reconstruct")
        assert code == 0
        data = json.loads(out)
        assert data["census"] == {"tier1": 121536, "tier2": 2, "tier3": 1}
        assert len(data["config"]["curves"]) == 24

    def test_reconstruct_matches_golden_file(self, capsys):
        # the committed output; regenerate it only for an intended change
        code, out, _ = run_cli(capsys, "config", "reconstruct")
        assert code == 0
        with open(os.path.join(GOLDEN, "config_reconstruct.json"), encoding="utf-8", newline="") as fh:
            assert out == fh.read()

    def test_pullback_matches_golden_file(self, capsys):
        # the tower's last cover over its 16-curve second stage: 4 options
        code, out, _ = run_cli(
            capsys, "config", "pullback",
            os.path.join(GOLDEN, "config_pullback.config.json"),
            os.path.join(GOLDEN, "config_pullback.step.json"),
        )
        assert code == 0
        with open(os.path.join(GOLDEN, "config_pullback.json"), encoding="utf-8", newline="") as fh:
            assert out == fh.read()

    def test_quotient_matches_golden_file(self, capsys, tmp_path):
        # the reconstructed 24 curves by iota_011
        with open(os.path.join(GOLDEN, "config_reconstruct.json"), encoding="utf-8") as fh:
            config = json.load(fh)["config"]
        cfg_path = tmp_path / "r24.json"
        cfg_path.write_text(json.dumps(config))
        code, out, _ = run_cli(
            capsys, "config", "quotient", str(cfg_path),
            os.path.join(GOLDEN, "config_quotient.involution.json"),
        )
        assert code == 0
        with open(os.path.join(GOLDEN, "config_quotient.json"), encoding="utf-8", newline="") as fh:
            assert out == fh.read()

    def test_reconstruct_then_quotient_pipeline(self, capsys, tmp_path):
        from evenlat.refdata import IOTA_011

        code, out, _ = run_cli(capsys, "config", "reconstruct")
        assert code == 0
        cfg = json.loads(out)["config"]
        cfg_path = tmp_path / "r24.json"
        inv_path = tmp_path / "iota.json"
        cfg_path.write_text(json.dumps(cfg))
        inv_path.write_text(json.dumps({"perm": list(IOTA_011)}))
        code, out, _ = run_cli(capsys, "config", "quotient", str(cfg_path), str(inv_path))
        assert code == 0
        data = json.loads(out)
        assert len(data["config"]["curves"]) == 12
        assert data["orbit_map"]["C1"] == ["R1", "R4"]
        assert all(c["self"] == -2 for c in data["config"]["curves"])


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


OVERLATTICE_CASES = ("u2_u2_m4", "u4_m4_a1", "u2_u3_m2")


class TestOverlatticeGolden:
    """Stdout of overlattices, isotropic --subgroups and disc on fixed scrambled Grams."""

    @pytest.mark.parametrize("case", OVERLATTICE_CASES)
    @pytest.mark.parametrize(
        "command, suffix",
        [
            (["overlattices"], "overlattices"),
            (["isotropic", "--subgroups"], "isotropic"),
            (["disc"], "disc"),
        ],
    )
    def test_matches_golden_file(self, capsys, case, command, suffix):
        # the committed output; regenerate it only for an intended change
        gram = os.path.join(GOLDEN, f"overlattices_{case}.gram.json")
        code, out, _ = run_cli(capsys, command[0], gram, *command[1:])
        assert code == 0
        path = os.path.join(GOLDEN, f"overlattices_{case}.{suffix}.json")
        with open(path, encoding="utf-8", newline="") as fh:
            assert out == fh.read()

    @pytest.mark.parametrize("case", OVERLATTICE_CASES)
    def test_printed_det_is_the_gram_det(self, capsys, case):
        gram = os.path.join(GOLDEN, f"overlattices_{case}.gram.json")
        code, out, _ = run_cli(capsys, "overlattices", gram)
        assert code == 0
        for entry in json.loads(out)["overlattices"]:
            assert entry["det"] == IntMat.from_rows(entry["gram"]).det()


COMMAND_GOLDENS = [
    (["snf", "overlattices_u2_u3_m2.gram.json"], "overlattices_u2_u3_m2.snf.json"),
    (["snf", "overlattices_u2_u3_m2.gram.json", "--rational"],
     "overlattices_u2_u3_m2.snf_rational.json"),
    # the inverse has non-integral entries, printed as "p/q"
    (["snf", "overlattices_u2_u3_m2.gram.json", "--rational", "--inverse"],
     "overlattices_u2_u3_m2.snf_rational_inverse.json"),
    (["complement", "U+U(2)+diag(-4,-4)", "[[1,2,0,0,0,0],[0,0,1,1,0,0]]"], "complement.json"),
    (["embed-check", "U(2)+diag(-8)", "[[1,1,1],[-1,1,0]]"], "embed_check.json"),
]


@pytest.mark.parametrize("argv, golden", COMMAND_GOLDENS)
def test_command_matches_golden_file(capsys, argv, golden):
    # the committed output; regenerate it only for an intended change
    argv = [os.path.join(GOLDEN, a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    with open(os.path.join(GOLDEN, golden), encoding="utf-8", newline="") as fh:
        assert out == fh.read()


class TestVerifyPaper:
    @pytest.mark.parametrize("fmt", ["json", "md"])
    def test_full_report_matches_golden_file(self, capsys, fmt):
        # the committed report; regenerate it only for an intended change
        code, out, _ = run_cli(capsys, "verify-paper", "--format", fmt)
        assert code == 0
        with open(os.path.join(GOLDEN, f"verify_paper.{fmt}"), encoding="utf-8", newline="") as fh:
            assert out == fh.read()

    def test_single_result(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper", "--result", "lemma_4_2")
        assert code == 0
        data = json.loads(out)
        assert data["all_passed"] is True
        assert data["entries"][0]["result_id"] == "lemma_4_2"
        assert data["entries"][0]["status"] == "pass"

    def test_markdown_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper", "--result", "prop_6_2", "--format", "md")
        assert code == 0
        assert "## prop_6_2: pass" in out

    def test_unknown_result_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "verify-paper", "--result", "nope")
        assert code == 3

    def test_malformed_guard_exits_2_before_any_checker(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the harness started with a malformed guard")

        monkeypatch.setenv("EVENLAT_GUARD_ORDER", "abc")
        monkeypatch.setattr(cli, "run_all", refuse)
        code, out, err = run_cli(capsys, "verify-paper")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "EVENLAT_GUARD_ORDER" in err and "'abc'" in err

    def test_unknown_result_exits_3_before_any_checker(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the harness started for an unknown result id")

        monkeypatch.setattr(cli, "run_all", refuse)
        code, out, err = run_cli(capsys, "verify-paper", "--result", "nope")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "unknown result id 'nope'" in err

    def test_failing_report_exits_1(self, capsys, monkeypatch):
        # R16.R12 raised by one on both sides: the printed rank-6 block no longer holds
        rows = [list(row) for row in golden_gram_rows()]
        rows[15][11] += 1
        rows[11][15] += 1
        report = run_all(gram24=IntMat.from_rows(rows))
        monkeypatch.setattr(cli, "run_all", lambda: report)
        code, out, _ = run_cli(capsys, "verify-paper")
        assert code == 1
        assert json.loads(out)["all_passed"] is False
        code, out, _ = run_cli(capsys, "verify-paper", "--format", "md")
        assert code == 1
        assert "Overall: FAIL" in out


class TestSchemas:
    def test_gram_round_trip(self, q_file):
        data = json.load(open(q_file))
        gram, name = gram_from_json(data)
        assert [list(r) for r in gram.entries] == Q_ROWS and name == "Q"

    def test_emitted_gram_reparses_equal(self):
        from evenlat.serialize import SCHEMA
        from serialize_oracle import intmat_to_json
        from evenlat.exactlinalg import IntMat

        gram = IntMat.from_rows(Q_ROWS)
        emitted = {"schema": SCHEMA, "gram": intmat_to_json(gram), "name": "Q"}
        back, name = gram_from_json(json.loads(json.dumps(emitted)))
        assert back.entries == gram.entries and name == "Q"

    def test_config_round_trip(self):
        cfg = hexagon_config()
        data = config_to_json(cfg)
        back = config_from_json(data)
        assert back.labels == cfg.labels
        assert back.gram.entries == cfg.gram.entries

    @pytest.mark.parametrize("schema, accepted", [
        ("absent", True), (1, True), (0, False), (2, False), ("1", False), (1.0, False),
        (True, False), (None, False), ([1], False),
    ])
    @pytest.mark.parametrize("reader, doc", [
        (gram_from_json, {"gram": [[2]]}),
        (rows_from_json, {"rows": [[1]]}),
        (config_from_json, CFG_AB),
        (involution_from_json, INV_AB),
        (cover_step_from_json, STEP_AB),
    ])
    def test_schema_is_absent_or_1(self, reader, doc, schema, accepted):
        doc = {k: v for k, v in doc.items() if k != "schema"}
        if schema != "absent":
            doc["schema"] = schema
        if accepted:
            reader(doc)
        else:
            with pytest.raises(ParseError, match="'schema' must be 1"):
                reader(doc)


# ---------------------------------------------------------------------------
# dumps writes Fractions itself, as the field-by-field encoders did

# integers past Python's 4300-digit limit on int-string conversion among small ones
_EXACT_INTS = st.integers(-(10**6), 10**6) | st.integers(4301, 4400).map(lambda k: -(10**k) - 7)
_EXACT_SCALARS = _EXACT_INTS | st.builds(Fraction, _EXACT_INTS, _EXACT_INTS.filter(bool))
_EXACT_VALUES = st.recursive(
    _EXACT_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text("abq", max_size=3), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_EXACT_VALUES)
@example([Fraction(4, 2), Fraction(-3, 6), (Fraction(0),)])
def test_dumps_matches_the_reference_encoders(value):
    cap = sys.get_int_max_str_digits()
    text = ser.dumps(value)
    assert sys.get_int_max_str_digits() == cap
    with no_digit_cap():
        assert text == json.dumps(encode(value), indent=2)


@pytest.mark.parametrize("value", [object(), {1, 2}, 1.5j, IntMat(((1,),))])
def test_dumps_rejects_unsupported_objects(value):
    cap = sys.get_int_max_str_digits()
    with pytest.raises(TypeError, match="is not JSON serializable"):
        ser.dumps({"a": [Fraction(1, 3), value]})
    assert sys.get_int_max_str_digits() == cap


# ---------------------------------------------------------------------------
# the fail-closed input boundary, over generated documents and expressions

# an integer literal past Python's 4300-digit limit on int-string conversion
_HUGE = "9" * 5000
_SUMMANDS = {"U": 2, "U(2)": 2, "U(-3)": 2, "A1": 1, "E8": 8, "diag(-4,-4)": 2, "<-2>": 1}
_BAD_SUMMANDS = (
    "", " ", "U(0)", "diag(2,0)", "<0>", "diag()", "E9", "U(", "diag(1,,2)", "<2.5>",
    "A1(2)", f"diag({_HUGE})",
)
_EDIT_CHARS = "(),+-<>0123456789 dU"
# a present "schema" must be the integer 1
_BAD_SCHEMAS = (0, 2, "1", 1.0, True, None, [1])


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("docs") / "doc.json")


@st.composite
def lattice_exprs(draw):
    """(expression, rank), rank None when the expression is malformed.

    Summands are drawn from known good names, and one of them may be swapped
    for a known bad one, so that a good expression, under which the rows
    document is read, is drawn often; a final edit of one character is
    classified by the library parser, since it can turn a bad expression
    good or a good one bad."""
    parts = draw(st.lists(st.sampled_from(tuple(_SUMMANDS)), min_size=1, max_size=3))
    if draw(st.integers(0, 2)) == 2:
        parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(_BAD_SUMMANDS))
    expr = "+".join(parts)
    rank = sum(_SUMMANDS[p] for p in parts) if all(p in _SUMMANDS for p in parts) else None
    if draw(st.integers(0, 2)) < 2:
        return expr, rank
    at = draw(st.integers(0, len(expr)))
    if draw(st.booleans()) and at < len(expr):
        expr = expr[:at] + expr[at + 1:]
    else:
        expr = expr[:at] + draw(st.sampled_from(_EDIT_CHARS)) + expr[at:]
    try:
        return expr, parse_lattice_expr(expr).rank
    except ValueError:
        return expr, None


def _mutated_rows(draw, rows, mutation):
    """Rows with one malformed entry or row, by mutation name."""
    rows = [list(row) for row in rows]
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[i]) - 1))
    if mutation == "float":
        rows[i][j] = draw(st.sampled_from((0.5, 2.0, -1e300)))
    elif mutation == "bool":
        rows[i][j] = draw(st.booleans())
    elif mutation == "huge":
        rows[i][j] = "HUGE"  # spliced into the JSON text as a bare literal
    elif mutation == "ragged":
        rows.append(rows[-1] + [0])
    return rows


def _json_text(doc, truncate: bool) -> str:
    text = json.dumps(doc).replace('"HUGE"', _HUGE)
    return text[:-1] if truncate else text


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_exit(argv, want):
    # an exception escaping main fails the test with its traceback
    code, out, err = _run_main(argv)
    assert code == want, (argv[:1], err)
    if code:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_gram_documents_fail_closed(doc_path, data):
    """disc and snf --inverse exit 2 on a malformed Gram document (a wrong
    schema included; a deleted one is accepted) and 3 on a well-formed one
    that is singular (or odd, for disc)."""
    n = data.draw(st.integers(1, 3))
    upper = {(i, j): data.draw(st.integers(-3, 3)) for i in range(n) for j in range(i, n)}
    gram = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    if data.draw(st.booleans()):  # an entry far past any fixed-width integer
        i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        gram[i][j] = gram[j][i] = data.draw(st.sampled_from((2, -1))) * 10**30
    doc = {"schema": 1, "gram": gram, "name": "G"}
    mutation = data.draw(st.sampled_from((
        None, "delete", "gram type", "document type", "name type", "ragged", "float", "bool",
        "huge", "truncate", "schema",
    ) + (("asymmetric",) if n > 1 else ())))
    malformed = mutation is not None
    if mutation == "delete":
        key = data.draw(st.sampled_from(sorted(doc)))
        del doc[key]
        malformed = key == "gram"
    elif mutation == "gram type":
        doc["gram"] = data.draw(st.sampled_from(("x", 3, None, {}, [], [1], [[]], [[1, 2]])))
    elif mutation == "document type":
        doc = data.draw(st.sampled_from((gram, "gram", 3, None)))
    elif mutation == "name type":
        doc["name"] = data.draw(st.sampled_from((3, True, ["G"], {"G": 1})))
    elif mutation == "schema":
        doc["schema"] = data.draw(st.sampled_from(_BAD_SCHEMAS))
    elif mutation == "asymmetric":
        gram[0][1] = gram[1][0] + 1
    elif mutation not in (None, "truncate"):
        doc["gram"] = _mutated_rows(data.draw, gram, mutation)
    with open(doc_path, "w") as fh:
        fh.write(_json_text(doc, mutation == "truncate"))
    det = linalg_oracle.det(gram) if not malformed else None
    odd = any(gram[i][i] % 2 for i in range(n))
    _assert_exit(["disc", doc_path], 2 if malformed else 3 if det == 0 or odd else 0)
    _assert_exit(["snf", doc_path, "--inverse"], 2 if malformed else 3 if det == 0 else 0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), expr=lattice_exprs())
def test_rows_and_expressions_fail_closed(doc_path, data, expr):
    """complement and embed-check exit 2 on a malformed expression or rows
    document, and 3 on a rank mismatch, dependent generators (embed-check)
    or a full-rank span with no complement."""
    expr, rank = expr
    fit = rank or 2
    width = data.draw(st.sampled_from((fit, fit, fit, fit + 1, max(fit - 1, 1))))
    rows = data.draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=width, max_size=width), min_size=1, max_size=3,
    ))
    inline = data.draw(st.booleans())
    mutation = data.draw(st.sampled_from((
        None, None, "ragged", "float", "bool", "huge", "truncate", "rows type",
    ) + (() if inline else ("delete", "document type", "schema"))))
    malformed = rank is None or mutation is not None
    doc = rows if inline else {"schema": 1, "rows": rows}
    if mutation == "delete":
        del doc["rows"]
    elif mutation == "rows type":
        bad = data.draw(st.sampled_from(([], [1, 2], [[]], [["1"]], [None])))
        doc = bad if inline else {"schema": 1, "rows": bad}
    elif mutation == "document type":
        doc = data.draw(st.sampled_from(("rows", 3, None, {})))
    elif mutation == "schema":
        doc["schema"] = data.draw(st.sampled_from(_BAD_SCHEMAS))
    elif mutation not in (None, "truncate"):
        mutated = _mutated_rows(data.draw, rows, mutation)
        doc = mutated if inline else {"schema": 1, "rows": mutated}
    text = _json_text(doc, mutation == "truncate")
    if inline:
        gens = text
    else:
        with open(doc_path, "w") as fh:
            fh.write(text)
        gens = doc_path
    if malformed:
        want_complement = want_embed = 2
    elif width != rank:
        want_complement = want_embed = 3
    else:
        span = linalg_oracle.rank(rows)
        want_complement = 3 if span == rank else 0
        want_embed = 3 if span < len(rows) else 0
    _assert_exit(["complement", expr, gens], want_complement)
    _assert_exit(["embed-check", expr, gens], want_embed)


@pytest.fixture(scope="module")
def config_paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("configs")
    return str(folder / "config.json"), str(folder / "data.json")


# "a" splits into "aa" and "ab", which collides with a ramified "ab"
_CONFIG_LABELS = ("a", "b", "c", "ab")


def _involution(draw, n: int) -> list[int]:
    """A permutation of range(n) of order at most 2, mostly without fixed points."""
    order = draw(st.permutations(range(n)))
    perm = list(range(n))
    for i, j in zip(order[::2], order[1::2]):
        if draw(st.sampled_from((True,) * 5 + (False,))):
            perm[i], perm[j] = j, i
    return perm


def _quotient_want(self_int, mult, perm) -> int:
    """3 when a precondition of the quotient breaks: the perm has the wrong
    length, changes an intersection number or fixes a curve."""
    n = len(self_int)
    if len(perm) != n:
        return 3
    g = [[self_int[i] if i == j else mult[frozenset((i, j))] for j in range(n)] for i in range(n)]
    if any(g[perm[i]][perm[j]] != g[i][j] for i in range(n) for j in range(n)):
        return 3
    return 3 if any(perm[i] == i for i in range(n)) else 0


def _pullback_broken(labels, mult, step) -> set[str]:
    """The preconditions of the pullback that a cover step breaks, by name:
    "branch", a tracked curve in the branch; "untracked", points on an
    untracked curve; "count", a shared-point count other than the
    multiplicity; "repeat", a shared id repeated within a pair; "repeat on
    a curve", a branch or marked point id repeated on one curve; "branch
    count", a branch-point count other than 0 or 2; "collision", two
    preimages with one label.  The step holds the lists and maps "branch",
    "branch_points", "shared" and "marked"."""
    branch_points, shared, marked = step["branch_points"], step["shared"], step["marked"]
    broken = set()
    if set(step["branch"]) & set(labels):
        broken.add("branch")
    if (set(branch_points) | set(marked) | {lab for pair in shared for lab in pair}) - set(labels):
        broken.add("untracked")
    for i, j in itertools.combinations(range(len(labels)), 2):
        ids = shared.get(frozenset((labels[i], labels[j])), [])
        if len(ids) != mult[frozenset((i, j))]:
            broken.add("count")
        if len(set(ids)) != len(ids):
            broken.add("repeat")
    if any(len(set(ids)) != len(ids) for ids in [*branch_points.values(), *marked.values()]):
        broken.add("repeat on a curve")
    if any(len(branch_points.get(lab, ())) not in (0, 2) for lab in labels):
        broken.add("branch count")
    preimages = [
        copy
        for lab in labels
        for copy in ((lab,) if lab in branch_points else (lab + "a", lab + "b"))
    ]
    if len(set(preimages)) != len(preimages):
        broken.add("collision")
    return broken


# each change to a cover step, and the precondition it breaks on a step
# that breaks none: the change edits the first curve and the pair "some"
_PULLBACK_CHANGES = {
    "branch": "branch",
    "count": "count",
    "repeat": "repeat",
    "repeat a branch id": "repeat on a curve",
    "repeat a marked id": "repeat on a curve",
    "odd": "branch count",
    "four": "branch count",
    "shared on z": "untracked",
    "marked on z": "untracked",
    "points on z": "untracked",
}


def _change_step(change, step, first, some) -> None:
    """Apply one of ``_PULLBACK_CHANGES`` to a cover step, in place.  A
    change that needs a shared pair does nothing without one; "repeat"
    makes the last id of the pair a copy of the first, or appends a copy
    when the pair has only one."""
    shared = step["shared"]
    if change == "branch":
        step["branch"] = step["branch"] + [first]
    elif change == "count" and some:
        shared[some] = shared[some][1:] or ["q"]
    elif change == "repeat" and some and shared[some]:
        ids = shared[some]
        shared[some] = ids[:-1] + ids[:1] if len(ids) > 1 else ids + ids
    elif change == "repeat a branch id":
        step["branch_points"][first] = ["y", "y"]
    elif change == "repeat a marked id":
        step["marked"][first] = ["y", "y"]
    elif change in ("odd", "four"):
        step["branch_points"][first] = [f"y{k}" for k in range(1 if change == "odd" else 4)]
    elif change == "shared on z":
        shared[frozenset((first, "z"))] = []
    elif change == "marked on z":
        step["marked"]["z"] = ["m"]
    elif change == "points on z":
        step["branch_points"]["z"] = ["zx0", "zx1"]


def _maybe(draw, doc: dict, key: str, value) -> None:
    """Set an optional field, or sometimes leave it out when it is empty."""
    if value or draw(st.booleans()):
        doc[key] = value


def _step_doc(draw, step) -> dict:
    """The cover-step document of a step, with empty optional fields sometimes left out."""
    doc = {"branch": step["branch"]}
    _maybe(draw, doc, "branch_points", step["branch_points"])
    _maybe(draw, doc, "shared_points", [[*sorted(p), v] for p, v in step["shared"].items()])
    _maybe(draw, doc, "marked_points", step["marked"])
    return doc


def _document_mutations(target: str, operation: str, labels) -> dict:
    """The mutations that make one document malformed, by name.

    Each is (field, how, bad values): "set" replaces the field (the whole
    document for None), "delete" deletes it, "append" adds an entry to its
    array, and "key" maps the first label to the value in its object."""
    first, second = labels[:2]
    required = "curves" if target == "config" else "perm" if operation == "quotient" else "branch"
    mutations = {
        "document type": (None, "set", ([], "doc", 3, None)),
        "schema": ("schema", "set", _BAD_SCHEMAS),
        "delete": (required, "delete", (None,)),
        "truncate": (None, "truncate", (None,)),
    }
    if target == "config":
        mutations.update({
            "curves": ("curves", "set", ("x", 3, None, {}, [])),
            "curve": ("curves", "append", (
                "a", 3, None, [], {"label": "q"}, {"self": -2}, {"label": 3, "self": -2},
                {"label": "q", "self": "-2"}, {"label": "q", "self": True},
                {"label": "q", "self": -2.0}, {"label": "q", "self": "HUGE"},
                {"label": first, "self": -2},
            )),
            "mult": ("mult", "set", ("x", 3, None, {})),
            "mult entry": ("mult", "append", (
                [], [first, second], [first, second, 1, 2], "ab", [1, first, 1], [first, "zz", 1],
                [first, second, -1], [first, second, True], [first, second, 1.5],
                [first, first, 1], [first, second, "HUGE"],
            )),
        })
    elif operation == "quotient":
        n = len(labels)
        mutations["perm"] = ("perm", "set", (
            "x", 3, None, {}, [0.0, 1], [True, False], ["0", "1"], [0, "HUGE"],
            [0] * n, [-1, *range(1, n)], [*range(1, n), 0] if n > 2 else [2, 0],
        ))
    else:
        mutations.update({
            "branch": ("branch", "set", ("l0", 3, None, {}, [3], [None], ["HUGE"])),
            "branch_points": ("branch_points", "set", ([], "x", 3, None)),
            "branch point entry": ("branch_points", "key", ("x", 3, None, [3], [None], {})),
            "shared_points": ("shared_points", "set", ("x", 3, None, {})),
            "shared entry": ("shared_points", "append", (
                [], [first, second], [first, second, ["p"], 1], "ab", [3, second, []],
                [first, first, []], [first, second, "p"], [first, second, [3]],
            )),
            "marked_points": ("marked_points", "set", ([], "x", 3, None)),
            "marked entry": ("marked_points", "key", ("x", 3, None, [3], {})),
        })
    return mutations


def _mutate(docs, target, field, how, bad, first) -> None:
    """Apply a mutation of ``_document_mutations`` with one of its bad values
    to the document named target, in place."""
    doc = docs[target]
    if how == "set" and field is None:
        docs[target] = bad
    elif how == "set":
        doc[field] = bad
    elif how == "delete":
        del doc[field]
    elif how == "append":
        doc[field] = doc.get(field, []) + [bad]
    elif how == "key":
        doc[field] = dict(doc.get(field, {}), **{first: bad})


def _assert_config_exit(config_paths, operation, docs, want, truncated=None) -> None:
    """Write the configuration and data documents, the one named truncated cut
    short, and check the exit code of config quotient or pullback on them."""
    for (name, doc), path in zip(docs.items(), config_paths):
        with open(path, "w") as fh:
            fh.write(_json_text(doc, name == truncated))
    _assert_exit(["config", operation, *config_paths], want)


@pytest.mark.parametrize("operation", ["quotient", "pullback"])
@pytest.mark.parametrize("target", ["config", "data"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_configuration_documents_fail_closed(config_paths, operation, target, data):
    """config quotient and config pullback exit 2 on a malformed
    configuration, involution or cover-step document (a wrong schema
    included; a missing one is accepted) and 3 on well-formed documents
    that break a precondition of the operation.  Target names the document
    that a mutation edits: the configuration, or the involution or cover
    step."""
    draw = data.draw
    names = sorted(_document_mutations(target, operation, _CONFIG_LABELS))
    mutation = draw(st.sampled_from([None] * 3 + names))
    n = draw(st.sampled_from((2, 3, 4, 4)))
    labels = tuple(draw(st.permutations(_CONFIG_LABELS))[:n])
    first = labels[0]

    pairs = [frozenset(p) for p in itertools.combinations(range(n), 2)]
    self_int = [draw(st.sampled_from((-2, -1))) for _ in range(n)]
    mult = {p: draw(st.integers(0, 2)) for p in pairs}
    if operation == "quotient":
        perm = _involution(draw, n)
        if draw(st.integers(0, 4)):  # intersection numbers that the perm preserves
            self_int = [self_int[min(i, perm[i])] for i in range(n)]
            mult = {p: mult[min(p, frozenset(perm[i] for i in p), key=sorted)] for p in pairs}
        if draw(st.integers(0, 5)) == 0:
            mult[draw(st.sampled_from(pairs))] += 1
        if draw(st.integers(0, 5)) == 0:
            perm = _involution(draw, draw(st.sampled_from((n - 1, n + 1))))
        want = _quotient_want(self_int, mult, perm)
        data_doc = {"perm": perm}
    else:
        ids = (f"p{k}" for k in itertools.count())
        step = {
            "branch": ["l0", "l1"][:draw(st.integers(0, 2))],
            "branch_points": {
                lab: [f"{lab}x0", f"{lab}x1"] for lab in labels if draw(st.booleans())
            },
            "shared": {
                frozenset(labels[i] for i in p): [next(ids) for _ in range(m)]
                for p, m in mult.items()
                if m or draw(st.booleans())
            },
            "marked": {lab: ["m"] for lab in draw(st.lists(st.sampled_from(labels), unique=True))},
        }
        shared = step["shared"]
        some = draw(st.sampled_from(sorted(shared, key=sorted))) if shared else None
        change = draw(st.sampled_from((None,) * 6 + tuple(_PULLBACK_CHANGES)))
        _change_step(change, step, first, some)
        want = 3 if _pullback_broken(labels, mult, step) else 0
        data_doc = _step_doc(draw, step)
    config = {"curves": [{"label": lab, "self": s} for lab, s in zip(labels, self_int)]}
    _maybe(draw, config, "mult", [
        [*(labels[i] for i in sorted(p)), m] for p, m in mult.items() if m
    ])
    docs = {"config": config, "data": data_doc}
    for doc in docs.values():
        if draw(st.booleans()):
            doc["schema"] = 1

    if mutation is not None:
        want = 2
        field, how, values = _document_mutations(target, operation, labels)[mutation]
        _mutate(docs, target, field, how, draw(st.sampled_from(values)), first)
    truncated = target if mutation == "truncate" else None
    _assert_config_exit(config_paths, operation, docs, want, truncated)


# A valid configuration on which both operations succeed: iota swaps a
# with b and c with d, and the cover ramifies a and splits the rest, so
# no preimage label collides
_BASE_LABELS = ("a", "b", "c", "d")
_BASE_MULT = {
    frozenset(p): 2 if p in ((0, 2), (1, 3)) else 0 for p in itertools.combinations(range(4), 2)
}


def _base_step() -> dict:
    return {
        "branch": ["l0"],
        "branch_points": {"a": ["ax0", "ax1"]},
        "shared": {frozenset(("a", "c")): ["p0", "p1"], frozenset(("b", "d")): ["p2", "p3"]},
        "marked": {"b": ["m"]},
    }


def _keep(_strategy) -> bool:
    """A draw for ``_maybe`` that keeps every optional field."""
    return True


def _base_documents(operation: str, step=None) -> dict:
    """The valid documents, with the given cover step in place of the valid one."""
    config = {
        "schema": 1,
        "curves": [{"label": lab, "self": -2} for lab in _BASE_LABELS],
        "mult": [["a", "c", 2], ["b", "d", 2]],
    }
    if operation == "quotient":
        data = {"schema": 1, "perm": [1, 0, 3, 2]}
    else:
        data = {"schema": 1, **_step_doc(_keep, step or _base_step())}
    return {"config": config, "data": data}


@pytest.mark.parametrize("operation", ["quotient", "pullback"])
def test_base_documents_are_valid(config_paths, operation):
    assert not _pullback_broken(_BASE_LABELS, _BASE_MULT, _base_step())
    _assert_config_exit(config_paths, operation, _base_documents(operation), 0)


@pytest.mark.parametrize(
    ("operation", "target", "mutation"),
    [
        (operation, target, mutation)
        for operation in ("quotient", "pullback")
        for target in ("config", "data")
        for mutation in _document_mutations(target, operation, _BASE_LABELS)
    ],
)
def test_each_bad_value_exits_2(config_paths, operation, target, mutation):
    """Every bad value of every document mutation, each on its own in an
    otherwise valid pair of documents, exits 2."""
    field, how, values = _document_mutations(target, operation, _BASE_LABELS)[mutation]
    for bad in values:
        docs = _base_documents(operation)
        _mutate(docs, target, field, how, bad, _BASE_LABELS[0])
        truncated = target if mutation == "truncate" else None
        _assert_config_exit(config_paths, operation, docs, 2, truncated)


@pytest.mark.parametrize("change", sorted(_PULLBACK_CHANGES))
def test_each_pullback_change_breaks_one_rule(config_paths, change):
    """Each change to the valid cover step breaks exactly its precondition and exits 3."""
    step = _base_step()
    _change_step(change, step, _BASE_LABELS[0], frozenset(("a", "c")))
    assert _pullback_broken(_BASE_LABELS, _BASE_MULT, step) == {_PULLBACK_CHANGES[change]}
    _assert_config_exit(config_paths, "pullback", _base_documents("pullback", step), 3)


# ---------------------------------------------------------------------------
# each input rule broken alone, through main: its exit code, one stderr line
# that names the rule, and nothing on stdout

def _assert_rule(argv, want, message):
    code, out, err = _run_main(argv)
    assert (code, out) == (want, ""), err
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


@pytest.mark.parametrize("command", ["disc", "isotropic", "overlattices"])
@pytest.mark.parametrize("gram, message", [
    ([[1, 0], [0, 2]], "needs an even lattice"),
    ([[2, 2], [2, 2]], "needs a nondegenerate lattice"),
    ([[1, 1], [1, 1]], "needs an even lattice"),
], ids=["odd", "degenerate", "odd-degenerate"])
def test_discriminant_commands_need_an_even_nondegenerate_lattice(tmp_path, command, gram, message):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"gram": gram}))
    _assert_rule([command, str(path)], 3, message)


@pytest.mark.parametrize("command", ["complement", "embed-check"])
def test_generator_length_must_match_the_ambient_rank(command):
    _assert_rule([command, "U", "[[1,0,0]]"], 3, "generator length does not match host rank")


@pytest.mark.parametrize("perm", [[5], [0, 0], [1, 2]])
def test_involution_that_is_not_a_permutation_exits_2(tmp_path, perm):
    cfg, inv = tmp_path / "cfg.json", tmp_path / "inv.json"
    cfg.write_text(json.dumps(CFG_AB))
    inv.write_text(json.dumps({"perm": perm}))
    _assert_rule(["config", "quotient", str(cfg), str(inv)], 2, "not a permutation")


def test_quotient_by_a_non_isometry_exits_3(tmp_path):
    cfg, inv = tmp_path / "cfg.json", tmp_path / "inv.json"
    labels = ["a", "b", "c", "d"]
    cfg.write_text(json.dumps({
        "curves": [{"label": lab, "self": -2} for lab in labels], "mult": [["a", "c", 1]],
    }))
    inv.write_text(json.dumps({"perm": [1, 0, 3, 2]}))
    _assert_rule(["config", "quotient", str(cfg), str(inv)], 3, "not an isometry")


def test_degenerate_hyperbolic_plane_exits_2():
    _assert_rule(["complement", "U(0)", "[[1,0]]"], 2, "U(0) is degenerate")


@pytest.mark.parametrize("name", ["missing.json", "."])
def test_unreadable_file_exits_2(tmp_path, name):
    _assert_rule(["disc", str(tmp_path / name)], 2, "cannot read")


@pytest.mark.parametrize("raw", [b"\xff", b'{"gram": [[2]], "name": "\xe9"}'])
@pytest.mark.parametrize("command", [["disc"], ["embed-check", "U(2)+diag(-8)"]])
def test_file_that_is_not_utf8_exits_2(tmp_path, raw, command):
    path = tmp_path / "latin.json"
    path.write_bytes(raw)
    _assert_rule([*command, str(path)], 2, f"{path}: malformed JSON: 'utf-8' codec")
