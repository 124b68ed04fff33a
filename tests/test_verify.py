import dataclasses
import gc
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import evenlat
import evenlat.refdata as rd
from evenlat import discform as df
from evenlat import lattice, verify
from evenlat.curves import half_sum, present
from evenlat.exactlinalg import IntMat, RatMat, snf_rational
from evenlat.lattice import Lattice
from evenlat.reconstruct import Reconstruction24, q_gram_of
from evenlat.verify import (
    CHECKS,
    REPORT_ONLY,
    RESULT_IDS,
    _aq_with_printed_generators,
    _halfset_classes,
    jsonable,
    reconstruction_entry,
    run_all,
    verify_km_embedding,
    verify_lemma_3_1,
    verify_lemma_4_1,
    verify_lemma_4_2,
    verify_prop_4_4,
    verify_prop_4_6,
    verify_prop_6_2,
    verify_section_6,
    verify_thm_4_3,
    verify_thm_4_5_mobius,
)
import linalg_oracle as oracle
from reconstruct_oracle import m_solution


@pytest.fixture(scope="module")
def report():
    return run_all()


class TestFullRun:
    def test_all_passed(self, report):
        assert report.all_passed

    def test_entry_ids_and_order(self, report):
        assert tuple(e.result_id for e in report.entries) == RESULT_IDS

    def test_report_only_entries(self, report):
        report_only = {e.result_id for e in report.entries if e.status == "report-only"}
        assert report_only == {"thm_4_5_fibration", "prop_6_2_ii", "prop_6_2_iii"}

    def test_reconstruction_entry_records_tier(self, report):
        entry = report.entry("reconstruction_24")
        assert entry.witnesses["census"] == {"tier1": 121536, "tier2": 2, "tier3": 1}

    def test_json_round_trip(self, report):
        data = report.to_dict()
        assert data["all_passed"] is True
        text = json.dumps(data)
        assert json.loads(text) == data

    def test_markdown_contains_entries(self, report):
        md = report.to_markdown()
        for rid in RESULT_IDS:
            assert f"## {rid}:" in md

    def test_deterministic(self, report):
        assert run_all().to_dict() == report.to_dict()

    def test_ambiguous_census_fails_honestly(self, reconstruction, monkeypatch):
        monkeypatch.setattr(verify, "reconstruct_24", lambda: _ambiguous(reconstruction))
        rep = run_all()
        entry = rep.entry("reconstruction_24")
        assert entry.status == "fail"
        assert entry.notes == ("tier 3 leaves 2 label-inequivalent solutions",)
        assert not rep.all_passed
        assert tuple(e.result_id for e in rep.entries) == RESULT_IDS
        prereq = dict(CHECKS)
        for e in rep.entries:
            if any(n.startswith("prerequisite ") for n in e.notes):
                assert e.notes == (f"prerequisite {prereq[e.result_id]} did not pass",)
                assert rep.entry(prereq[e.result_id]).status == "fail"


def _ambiguous(reconstruction):
    """The census with both tier-2 Grams kept at tier 3."""
    return Reconstruction24(reconstruction.tier1_count, reconstruction.tier2, reconstruction.tier2)


def _perturbed_q(gram24):
    """gram24 with R16.R12 raised by one: the rank-6 block entry (1, 5) moves."""
    g = [list(row) for row in gram24.entries]
    g[15][11] += 1
    g[11][15] += 1
    return IntMat.from_rows(g)


def _blocked(entry):
    return any(n.startswith("prerequisite ") for n in entry.notes)


def _dependents(rid):
    """rid and every entry that depends on it through CHECKS, transitively."""
    out = {rid}
    for r, prereq in CHECKS:  # prerequisites come first in report order
        if prereq in out:
            out.add(r)
    return out


class _Unequal:
    """An expectation that no witness equals."""

    def __eq__(self, other):
        return False

    __hash__ = None


CHECKED_IDS = tuple(rid for rid in RESULT_IDS if rid not in REPORT_ONLY)
EXPECTED_KEYS = [(rid, key) for rid, expected in rd.EXPECTED.items() for key in expected]


class TestJudge:
    """An entry passes exactly when each expected value equals its witness."""

    @pytest.fixture(scope="class")
    def checkers(self, reconstruction, gram24):
        aq = _aq_with_printed_generators(q_gram_of(gram24))
        return {
            "reconstruction_24": lambda: reconstruction_entry(reconstruction),
            "lemma_3_1": lambda: verify_lemma_3_1(gram24),
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

    def test_every_checked_entry_has_expectations(self, checkers):
        assert set(rd.EXPECTED) == set(CHECKED_IDS) == set(checkers)
        assert all(rd.EXPECTED.values())

    @pytest.mark.parametrize("run", ["default", "ambiguous", "perturbed_q", "crash"])
    def test_status_follows_the_rule(self, report, reconstruction, gram24, monkeypatch, run):
        if run == "crash":
            monkeypatch.setattr(verify, "verify_prop_6_2", lambda: 1 // 0)
        if run == "ambiguous":
            monkeypatch.setattr(verify, "reconstruct_24", lambda: _ambiguous(reconstruction))
        rep = {
            "default": lambda: report,
            "ambiguous": run_all,
            "perturbed_q": lambda: run_all(gram24=_perturbed_q(gram24)),
            "crash": run_all,
        }[run]()
        for e in rep.entries:
            if e.status == "report-only" or _blocked(e):
                assert e.expected == {}, e.result_id
                continue
            assert e.expected == rd.EXPECTED[e.result_id]
            equal = all(k in e.witnesses and v == e.witnesses[k] for k, v in e.expected.items())
            assert (e.status == "pass") == equal, e.result_id
            if e.status == "pass":
                assert set(e.expected) <= set(e.witnesses), e.result_id

    def test_pass_shows_expected_as_its_witness(self, report):
        for e in report.entries:
            if e.status == "pass":
                for k, v in e.expected.items():
                    assert jsonable(v) == jsonable(e.witnesses[k]), (e.result_id, k)

    @pytest.mark.parametrize("rid,key", EXPECTED_KEYS)
    def test_each_expectation_is_compared(self, checkers, monkeypatch, rid, key):
        assert checkers[rid]().status == "pass"
        sentinel = _Unequal()
        monkeypatch.setitem(rd.EXPECTED[rid], key, sentinel)
        entry = checkers[rid]()
        assert entry.status == "fail"
        assert entry.expected[key] is sentinel

    @pytest.fixture(scope="class")
    def injected(self, gram24):
        return run_all(gram24=gram24)

    @pytest.mark.parametrize("rid", CHECKED_IDS)
    def test_a_perturbed_entry_fails_with_its_dependents(
        self, report, injected, gram24, monkeypatch, rid
    ):
        # the reconstruction entry is checked only when the Gram is not injected
        if rid == "reconstruction_24":
            before, run = report, run_all
        else:
            before, run = injected, lambda: run_all(gram24=gram24)
        monkeypatch.setitem(rd.EXPECTED[rid], next(iter(rd.EXPECTED[rid])), _Unequal())
        after = run()
        failed = _dependents(rid)
        for old, new in zip(before.entries, after.entries):
            assert old.status != "fail"
            want = "fail" if new.result_id in failed else old.status
            assert new.status == want, new.result_id


class TestGuards:
    """An early exit judges the witnesses so far: the expectations it did
    not reach fail the entry, and the entry still lists all of them."""

    @staticmethod
    def _check(entry, rid, last_key):
        assert entry.status == "fail"
        assert list(entry.witnesses)[-1] == last_key
        assert entry.expected == rd.EXPECTED[rid]

    def test_half_sum_not_in_the_dual(self, gram24, monkeypatch):
        # a lone curve meets others, so half of it pairs to 1/2 with them
        monkeypatch.setattr(rd, "HALFSET_AQ", {(0, 0, 0, 0): (0,)})
        self._check(verify_thm_4_3(gram24), "thm_4_3", "halfset_not_in_dual")

    def test_failed_relation(self, gram24, xprime, monkeypatch):
        (name, _), *rest = xprime.relation_report
        broken = dataclasses.replace(xprime, relation_report=((name, False), *rest))
        monkeypatch.setattr(verify, "reconstruct_xprime", lambda _config: broken)
        self._check(verify_section_6(gram24), "section_6", "incidence_kernel_dim")

    def test_generator_not_in_the_dual(self, gram24, monkeypatch):
        monkeypatch.setattr(rd, "V1_M", {0: Fraction(1, 3)})
        self._check(verify_section_6(gram24), "section_6", "generator_not_in_dual")

    def test_generators_do_not_generate(self, gram24, monkeypatch):
        monkeypatch.setattr(rd, "V2_M", rd.V1_M)
        self._check(verify_section_6(gram24), "section_6", "generators")

    def test_half_set_outside_the_span(self, gram24, xprime, monkeypatch):
        # half of one curve, outside the dual of M
        pres = xprime.m_presentation
        outside = next(
            (i,) for i in range(20)
            if not pres.lattice.dual_vector(pres.coords(_half_sum((i,)))).in_dual()
        )
        monkeypatch.setattr(rd, "ISOTROPIC_AM_HALFSETS", (outside,) + rd.ISOTROPIC_AM_HALFSETS)
        self._check(verify_section_6(gram24), "section_6", "halfset_outside_dual")


class TestHalfSetClasses:
    """Each printed half-set's class from its member row sum, against the
    class of the dual vector that ``coords`` gives its half-sum."""

    @staticmethod
    def _check(pres, halfsets, families):
        lat = pres.lattice
        module = df.from_lattice(lat)
        outside, found = _halfset_classes(pres, module, halfsets, families)
        assert outside is None and len(found) == len(halfsets)
        n = pres.config.size
        for h, (cls, _) in zip(halfsets, found):
            assert cls == df.class_of(module, lat.dual_vector(pres.coords(half_sum(h, n))))

    def test_printed_half_sets_on_x(self, config24):
        halfsets = tuple(rd.HALFSET_AQ.values())
        assert len(halfsets) == 7
        self._check(present(config24), halfsets, rd.RELATION_FAMILIES_24)

    def test_printed_half_sets_and_n_on_xprime(self, xprime):
        halfsets = rd.ISOTROPIC_AM_HALFSETS + (rd.N_SUPPORT,)
        assert len(halfsets) == 31 + 1
        self._check(xprime.m_presentation, halfsets, rd.XPRIME_RELATION_FAMILIES)


class TestIndividualCheckers:
    @pytest.fixture(scope="class")
    def aq(self, gram24):
        return _aq_with_printed_generators(q_gram_of(gram24))

    def test_lemma_3_1(self, gram24):
        entry = verify_lemma_3_1(gram24)
        assert entry.status == "pass"
        assert entry.witnesses["S_det"] == -1

    def test_lemma_4_1(self, aq):
        entry = verify_lemma_4_1(aq)
        assert entry.status == "pass"
        assert entry.witnesses["order"] == 64

    @pytest.mark.parametrize("corrupt", ["swap_s_rows", "shear_t"])
    def test_lemma_4_1_fails_on_a_wrong_transform(self, aq, monkeypatch, corrupt):
        # S and T stay unimodular and D keeps the right diagonal, so only the
        # exact comparison S * Q^-1 * T == D can fail the entry
        def wrong(a):
            d, s, t = snf_rational(a)
            if corrupt == "swap_s_rows":
                rows = list(s.entries)
                rows[0], rows[1] = rows[1], rows[0]
                return d, IntMat.from_rows(rows), t
            rows = [list(row) for row in t.entries]
            for row in rows:
                row[0] += row[1]
            return d, s, IntMat.from_rows(rows)

        monkeypatch.setattr(verify, "snf_rational", wrong)
        entry = verify_lemma_4_1(aq)
        assert entry.status == "fail"
        assert entry.witnesses["transform_identity"] is False
        assert entry.witnesses["snf_diagonal"] == entry.expected["snf_diagonal"]

    def test_lemma_4_2(self, aq):
        entry = verify_lemma_4_2(aq)
        assert entry.status == "pass"
        assert entry.witnesses["isotropic_count"] == 7

    def test_thm_4_3(self, gram24):
        entry = verify_thm_4_3(gram24)
        assert entry.status == "pass"
        assert entry.witnesses["certified_classes"] == 7
        assert entry.witnesses["nontrivial_subgroups_excluded"] == 10
        assert all(entry.witnesses["splitting"].values())

    def test_prop_4_4(self, aq):
        entry = verify_prop_4_4(aq)
        assert entry.status == "pass"
        assert entry.witnesses["uniqueness_predicate"] is True

    def test_mobius(self):
        assert verify_thm_4_5_mobius().status == "pass"

    def test_km_embedding(self):
        entry = verify_km_embedding()
        assert entry.status == "pass"
        assert entry.witnesses["snf_invariant_factors"] == (1, 1)

    def test_prop_4_6(self):
        entry = verify_prop_4_6()
        assert entry.status == "pass"
        assert entry.witnesses["square"] == 2
        assert entry.witnesses["norm_gcd_omega_perp"] == 4
        assert entry.witnesses["scale_gcd_perp"] == 2

    def test_section_6(self, gram24):
        entry = verify_section_6(gram24)
        assert entry.status == "pass"
        assert entry.witnesses["isotropic_count"] == 31
        assert entry.witnesses["printed_equals_isotropic_set"] is True
        assert entry.witnesses["t_xprime_uniqueness_predicate"] is False
        assert any("classification" in note for note in entry.notes)

    def test_prop_6_2(self):
        entry = verify_prop_6_2()
        assert entry.status == "pass"
        assert entry.witnesses["gram"].entries == ((-4, 0), (0, -4))


def _half_sum(halfset):
    return [Fraction(1, 2) if i in halfset else Fraction(0) for i in range(20)]


def _m_basis():
    """The printed basis of M over the 20 curves: 13 curves, N, Lambda1, Lambda2."""
    units = [[int(i == k) for i in range(20)] for k in rd.M_BASIS_CURVES]
    supports = (rd.N_SUPPORT, rd.LAMBDA1_SUPPORT, rd.LAMBDA2_SUPPORT)
    return units + [_half_sum(support) for support in supports]


class TestHalfSumCoordinates:
    """``coords`` on the printed basis of M against one solve per half-set."""

    def test_printed_half_sets(self, xprime):
        got = [xprime.m_presentation.coords(_half_sum(h)) for h in rd.ISOTROPIC_AM_HALFSETS]
        assert got == [m_solution(h).particular for h in rd.ISOTROPIC_AM_HALFSETS]

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.lists(st.sets(st.integers(0, 19)), max_size=12))
    def test_mixed_batches(self, xprime, drawn):
        # drawn subsets are mostly outside the rational span of the basis
        # over the 20 curves; coords then agrees with the solve modulo the
        # radical: the combination of the basis differs from the half-sum
        # by a vector pairing to 0 with every curve
        halfsets = list(rd.ISOTROPIC_AM_HALFSETS) + [tuple(sorted(h)) for h in drawn]
        config = xprime.config
        units = [[int(i == k) for i in range(20)] for k in range(20)]
        for h in halfsets:
            got = xprime.m_presentation.coords(_half_sum(h))
            sol = m_solution(h)
            if sol is not None:
                assert got == sol.particular
            (back,) = oracle.matmul([got], _m_basis())
            diff = [b - t for b, t in zip(back, _half_sum(h))]
            assert all(oracle.pair(config, diff, u) == 0 for u in units)


class TestSection6FailPaths:
    def test_isotropic_count_is_compared(self, gram24, xprime, monkeypatch):
        # one printed half-set and its class dropped together: the printed
        # classes still equal the isotropic set, but there are 30, not 31
        module = df.from_lattice(xprime.m_presentation.lattice)
        halfset = rd.ISOTROPIC_AM_HALFSETS[0]
        coords = xprime.m_presentation.coords(_half_sum(halfset))
        dropped = df.class_of(module, module.disc.lattice.dual_vector(coords))
        isotropic_elements = df.isotropic_elements
        monkeypatch.setattr(rd, "ISOTROPIC_AM_HALFSETS", rd.ISOTROPIC_AM_HALFSETS[1:])
        monkeypatch.setattr(
            df, "isotropic_elements", lambda m: [x for x in isotropic_elements(m) if x != dropped]
        )
        entry = verify_section_6(gram24)
        assert entry.status == "fail"
        assert entry.witnesses["isotropic_count"] == 30
        assert entry.expected["isotropic_count"] == 31

    def test_snf_diagonal_is_read_off_the_rational_snf(self, gram24, monkeypatch):
        # one wrong invariant factor in the SNF of M^-1 that the discriminant
        # group reads fails the entry through its snf_diagonal witness
        def one_wrong(a, **kwargs):
            d, s, t = snf_rational(a, **kwargs)
            rows = [list(row) for row in d.entries]
            rows[-1][-1] /= 2
            return RatMat.from_rows(rows), s, t

        monkeypatch.setattr(lattice, "snf_rational", one_wrong)
        entry = verify_section_6(gram24)
        assert entry.status == "fail"
        quarter, eighth = Fraction(1, 4), Fraction(1, 8)
        assert entry.witnesses["snf_diagonal"][-2:] == (quarter, eighth)
        assert entry.expected["snf_diagonal"][-2:] == (quarter, quarter)

    def test_block_form_expectation_has_report_keys(self, gram24, monkeypatch):
        monkeypatch.setitem(rd.EXPECTED["section_6"], "block_q_diag", (0,) * 6)
        entry = verify_section_6(gram24)
        assert entry.status == "fail"
        half = Fraction(1, 2)
        assert entry.expected["block_b_offdiag"] == {"1,2": half, "3,4": half}
        assert entry.witnesses["block_b_offdiag"] == entry.expected["block_b_offdiag"]


def test_each_discriminant_form_is_built_once(monkeypatch):
    # wrap every evenlat binding of discriminant_group, as the benchmark's
    # tracer does: Q, the 16-curve lattice, T_X, M_Z2_3, its complement,
    # M and T_X' are seven lattices, each built once
    grams = []
    original = lattice.discriminant_group

    def counted(lat):
        grams.append(lat.gram.entries)
        return original(lat)

    for name, module in list(sys.modules.items()):
        if name.startswith("evenlat") and getattr(module, "discriminant_group", None) is original:
            monkeypatch.setattr(module, "discriminant_group", counted)
    assert run_all().all_passed
    assert len(grams) == 7
    assert len(set(grams)) == 7


def test_run_all_leaves_no_reference_cycle():
    # everything one run allocates is freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        assert run_all().all_passed
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_traced_paper_run_is_correct():
    # the traced benchmark requires calls > 0 of every span it expects on
    # the paper workload (solve_rational and signature among them)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(evenlat.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(repo, "bench", "run.py"), "--workload", "paper",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


class TestFaultInjection:
    def test_perturbed_q_entry_fails_with_coordinates(self, gram24):
        report = run_all(gram24=_perturbed_q(gram24))
        entry = report.entry("lemma_3_1")
        assert entry.status == "fail"
        mismatch = entry.witnesses["Q_gram_mismatch"]
        assert (mismatch["row"], mismatch["col"]) == (1, 5)
        assert not report.all_passed

    def test_dependents_blocked_after_failure(self, gram24):
        report = run_all(gram24=_perturbed_q(gram24))
        prereq = dict(CHECKS)
        for rid in ("lemma_4_1", "lemma_4_2", "thm_4_3", "prop_4_4"):
            entry = report.entry(rid)
            assert entry.status == "fail"
            assert entry.notes == (f"prerequisite {prereq[rid]} did not pass",)

    def test_random_single_entry_faults_are_detected(self, gram24):
        rng = random.Random(1618)
        for _ in range(8):
            i = rng.randrange(24)
            j = rng.randrange(24)
            delta = rng.choice((1, -1, 2))
            g = [list(row) for row in gram24.entries]
            g[i][j] += delta
            g[j][i] = g[i][j] if i != j else g[i][j]
            report = run_all(gram24=IntMat.from_rows(g))
            assert not report.all_passed, (i, j, delta)

    def test_failures_never_crash(self, gram24):
        g = [list(row) for row in gram24.entries]
        for i in range(24):
            g[i][i] = 0  # degenerate input must yield fail entries, not raise
        report = run_all(gram24=IntMat.from_rows(g))
        assert not report.all_passed


def test_entry_of_an_unknown_id_raises(report):
    assert report.entry("lemma_4_2").result_id == "lemma_4_2"
    with pytest.raises(KeyError):
        report.entry("no_such_result")
