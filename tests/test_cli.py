import json

import pytest

import evenlat.discform as df
from evenlat.cli import main
from evenlat.serialize import config_from_json, config_to_json, gram_from_json
from evenlat.curves import hexagon_config

Q_ROWS = [
    [-2, 0, 1, 0, 2, -1],
    [0, -6, -1, -4, 4, -5],
    [1, -1, -8, 6, 2, 0],
    [0, -4, 6, -16, 4, -2],
    [2, 4, 2, 4, -8, 6],
    [-1, -5, 0, -2, 6, -12],
]


@pytest.fixture()
def q_file(tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"schema": 1, "gram": Q_ROWS, "name": "Q"}))
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


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


class TestDiscAndIsotropic:
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

    def test_reconstruct(self, capsys):
        code, out, _ = run_cli(capsys, "config", "reconstruct")
        assert code == 0
        data = json.loads(out)
        assert data["tier_used"] == 3
        assert data["census"] == {"tier1": 111456, "tier2": 2, "tier3": 1}
        assert len(data["config"]["curves"]) == 24

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


class TestVerifyPaper:
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

    def test_ambiguous_tier_exits_1(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-paper", "--tier", "2", "--result", "reconstruction_24"
        )
        assert code == 1
        data = json.loads(out)
        assert data["entries"][0]["status"] == "fail"
        assert data["entries"][0]["witnesses"]["census"]["tier2"] == 2


class TestSchemas:
    def test_gram_round_trip(self, q_file):
        data = json.load(open(q_file))
        gram, name = gram_from_json(data)
        assert [list(r) for r in gram.entries] == Q_ROWS and name == "Q"

    def test_emitted_gram_reparses_equal(self):
        from evenlat.serialize import gram_to_json
        from evenlat.exactlinalg import IntMat

        gram = IntMat.from_rows(Q_ROWS)
        back, name = gram_from_json(json.loads(json.dumps(gram_to_json(gram, "Q"))))
        assert back.entries == gram.entries and name == "Q"

    def test_config_round_trip(self):
        cfg = hexagon_config()
        data = config_to_json(cfg)
        back = config_from_json(data)
        assert back.labels == cfg.labels
        assert back.self_int == cfg.self_int
        assert back.mult.entries == cfg.mult.entries
