"""Tests of the benchmark itself: reduced-size smoke runs of each workload,
and for each correctness check a corrupted result that it must reject.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import forms  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

run.load_program()

SMALL_OVERLATTICES = ((("U", 3), ("U", 3), ("diag", -2)), (("U", 4), ("diag", -4), ("diag", -4)))
SMALL_QUERIES = wl.QUERY_SET[1:3]


@pytest.fixture(scope="module")
def paper_text():
    loop, _, errors = run.measure(wl.WORKLOADS["paper"], [None], 0, False)
    assert errors == []
    return loop.first[0]


@pytest.fixture(scope="module")
def overlattice_case(tmp_path_factory):
    inputs = wl.overlattices_build(3, str(tmp_path_factory.mktemp("in")), SMALL_OVERLATTICES, 1)
    return inputs[0], wl.overlattices_op(inputs[0])


@pytest.fixture(scope="module")
def query_case():
    inputs = wl.queries_build(3, None, SMALL_QUERIES, scrambles=1)
    return inputs[0], wl.queries_op(inputs[0])


# ---------------------------------------------------------------------------
# smoke runs

def test_paper_smoke(paper_text):
    assert wl.paper_check(None, paper_text) == []


@pytest.mark.parametrize("trace", [False, True])
def test_overlattices_smoke(tmp_path, trace):
    inputs = wl.overlattices_build(5, str(tmp_path), SMALL_OVERLATTICES, 1)
    loop, metrics, errors = run.measure(wl.WORKLOADS["overlattices"], inputs, 0, trace)
    assert errors == []
    assert (loop.attempted, loop.failed) == ((4, 0) if trace else (2, 0))
    if trace:
        assert set(metrics) == {name for name, _ in tracing.PER_LAYER}
        assert metrics["discform.isotropic_subgroups.found"] == 25 + 34
        assert metrics["curves.present.calls"] == 0
    else:
        assert metrics["ops_per_s"] > 0 and metrics["op_p50_s"] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_queries_smoke(trace):
    inputs = wl.queries_build(5, None, SMALL_QUERIES, scrambles=1)
    loop, metrics, errors = run.measure(wl.WORKLOADS["queries"], inputs, 0, trace)
    assert errors == []
    assert loop.failed == 0
    if trace:
        assert metrics["discform.class_of.calls"] == 4
        assert metrics["discform.isotropic_subgroups.calls"] == 0


def test_same_seed_same_inputs(tmp_path):
    a = wl.overlattices_build(9, str(tmp_path), SMALL_OVERLATTICES)
    b = wl.overlattices_build(9, str(tmp_path), SMALL_OVERLATTICES)
    c = wl.overlattices_build(10, str(tmp_path), SMALL_OVERLATTICES)
    assert [i.gram for i in a] == [i.gram for i in b] != [i.gram for i in c]


def test_command_prints_result_line():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "paper",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


# ---------------------------------------------------------------------------
# the traced mode

def test_tracer_restores_the_program():
    from evenlat import discform, lattice, verify
    from evenlat.exactlinalg import RatMat

    before = (discform.from_lattice, lattice.snf_rational, verify.snf_rational, vars(RatMat)["inverse"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert discform.from_lattice is not before[0]
        assert lattice.snf_rational is verify.snf_rational is not before[1]
        discform.from_lattice(lattice.parse_lattice_expr("U(2)+A1"))
    finally:
        tracer.uninstall()
    assert (discform.from_lattice, lattice.snf_rational, verify.snf_rational,
            vars(RatMat)["inverse"]) == before
    assert tracer.calls["discform.from_lattice"] == 1
    assert tracer.calls["exactlinalg.snf_rational"] == 1
    inner = tracer.total["lattice.discriminant_group"]
    assert tracer.self_time["discform.from_lattice"] <= tracer.total["discform.from_lattice"] - inner


# ---------------------------------------------------------------------------
# the independent arithmetic

def test_subgroup_count_formula_matches_enumeration():
    for k in (1, 2, 3):
        blocks = (("U", 2),) * k
        assert forms.singular_subspace_counts(k) == forms.BlockForm(blocks).isotropic_subgroup_orders()
    assert sum(forms.singular_subspace_counts(3).values()) == 1 + 35 + 105 + 30


def test_invariant_factors_and_det():
    assert forms.invariant_factors((2, 2, 4, 12)) == (2, 2, 4, 12)
    assert forms.invariant_factors((4, 6, 2)) == (2, 2, 12)
    assert forms.det(forms.sum_gram((("E8",),))) == 1
    assert forms.det(forms.sum_gram((("U", 3), ("diag", -4)))) == 36


# ---------------------------------------------------------------------------
# each check rejects a corrupted result

def _paper_mutated(text, mutate):
    report = json.loads(text)
    mutate(report, {e["result_id"]: e for e in report["entries"]})
    return json.dumps(report, sort_keys=True)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r, e: r.update(all_passed=False),
        lambda r, e: e["lemma_4_2"].update(status="fail"),
        lambda r, e: e["prop_6_2_ii"].update(status="pass"),
        lambda r, e: r["entries"].pop(),
        lambda r, e: e["lemma_4_1"]["witnesses"]["snf_diagonal"].__setitem__(5, "1/8"),
        lambda r, e: e["section_6"]["witnesses"]["disc_invariant_factors"].__setitem__(0, 4),
    ],
    ids=["all_passed", "status", "report_only", "missing_entry", "lemma_4_1_snf", "section_6_factors"],
)
def test_paper_check_rejects(paper_text, mutate):
    assert wl.paper_check(None, _paper_mutated(paper_text, mutate))


def test_changed_output_between_rounds_is_rejected():
    outputs = iter(["a", "a", "b"])
    fake = wl.Workload("fake", None, lambda _: next(outputs), lambda o: o, lambda i, o: [])
    loop = run.Loop(fake, [None])
    for _ in range(3):
        loop.round()
    assert loop.errors() == ["fake input 0: output changed between rounds"]


def test_failed_op_fails_the_run(monkeypatch, capsys):
    def op(_inp):
        raise ValueError("injected failure")

    fake = wl.Workload("fake", lambda seed, workdir: [None, None], op, lambda o: o, lambda i, o: [])
    monkeypatch.setitem(wl.WORKLOADS, "fake", fake)
    assert run.run_one("fake", 1, 0, False) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 2)


def _overlattices_mutated(out, mutate):
    code, text = out
    data = json.loads(text)
    mutate(data["overlattices"])
    return code, json.dumps(data)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda subs: subs.pop(),
        lambda subs: subs[-1].update(det=subs[-1]["det"] * 2),
        lambda subs: subs[-1].update(glue_order=subs[-1]["glue_order"] * 3),
        lambda subs: subs[-1]["gram"][0].__setitem__(0, subs[-1]["gram"][0][0] + 1),
        lambda subs: subs[-1]["gram"][0].__setitem__(1, subs[-1]["gram"][0][1] + 2),
    ],
    ids=["dropped_subgroup", "wrong_det", "wrong_order", "odd", "asymmetric"],
)
def test_overlattices_check_rejects(overlattice_case, mutate):
    inp, out = overlattice_case
    assert wl.overlattices_check(inp, out) == []
    assert wl.overlattices_check(inp, _overlattices_mutated(out, mutate))


def test_overlattices_check_rejects_failed_command(overlattice_case):
    inp, out = overlattice_case
    assert wl.overlattices_check(inp, (3, out[1]))


def _other_q_element(res, target, index):
    """An element of target with the right order but another q than generator index."""
    want = res.q_diag[index]
    for y in target.elements():
        if target.element_order(y) == res.orders[index] and wl._q(
            target.orders, target.q_diag, target.b_mat, y
        ) != want:
            return y
    raise AssertionError("no such element")


def test_queries_check_rejects(query_case):
    inp, res = query_case
    assert wl.queries_check(inp, res) == []
    bad_image = _other_q_element(res, inp.plain, 0)
    zero = tuple(0 for _ in res.orders)
    corrupted = [
        dataclasses.replace(res, orders=res.orders[:-1] + (res.orders[-1] * 2,)),
        dataclasses.replace(res, class_x=tuple((e + 1) % d for e, d in zip(res.class_x, res.orders))),
        dataclasses.replace(res, class_y=zero if any(inp.y) else res.orders),
        dataclasses.replace(res, isotropic_count=res.isotropic_count + 1),
        dataclasses.replace(res, witness=(bad_image,) + res.witness[1:]),
        dataclasses.replace(res, witness=(zero,) * len(res.orders)),
        dataclasses.replace(res, witness=None),
        dataclasses.replace(res, partner_witness=res.witness),
    ]
    for bad in corrupted:
        assert wl.queries_check(inp, bad), bad


def test_queries_check_rejects_isomorphic_partner(query_case):
    inp, res = query_case
    same = dataclasses.replace(inp, partner_blocks=inp.blocks)
    assert any("fingerprint" in e for e in wl.queries_check(same, res))
