"""Tests of the benchmark's own machinery: tracer, failure rule, Theta oracle.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import sys

import numpy as np
import pytest

import oracle
import tracer as tracing
import workloads
from qdilate import qpair


@pytest.fixture()
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def _qdilate_modules():
    return {n: m for n, m in sys.modules.items()
            if m is not None and (n == "qdilate" or n.startswith("qdilate."))}


def _verify_task(tmp_path, pair, *argv):
    path = workloads._write_pair(pair, tmp_path / "pair.json")
    return workloads.Task(0, "test", "verify", path, argv)


def test_every_binding_of_a_traced_function_is_wrapped():
    originals = {}
    for name, (mod, attr) in tracing.FUNCTIONS.items():
        originals[name] = getattr(sys.modules[f"qdilate.{mod}"], attr)
    holders = {name: [(n, k) for n, m in _qdilate_modules().items()
                      for k, v in vars(m).items() if v is fn]
               for name, fn in originals.items()}
    # names imported into consumer modules, not only the defining one
    assert ("qdilate.hardy", "opnorm") in holders["matcore.opnorm"]
    assert ("qdilate.model", "cnu_decompose") in holders["qpair.cnu_decompose"]
    assert ("qdilate.lifts", "materialize") in holders["hardy.materialize"]

    t = tracing.Tracer()
    t.install()
    try:
        for name, places in holders.items():
            for modname, key in places:
                assert getattr(sys.modules[modname], key) is t.wrapped[name], (modname, key)
        remaining = [(n, k) for n, m in _qdilate_modules().items()
                     for k, v in vars(m).items()
                     if any(v is fn for fn in originals.values())]
        assert remaining == []
        cli = sys.modules["qdilate.cli"]
        assert all(fn is t.wrapped[f"cli.suite.{s}"] for s, fn in cli._SUITE_FNS.items())
    finally:
        t.uninstall()
    for name, places in holders.items():
        for modname, key in places:
            assert getattr(sys.modules[modname], key) is originals[name]


def test_calls_from_consumer_modules_are_recorded(tmp_path, tracer):
    pair = qpair.gen_nilpotent(3, 1j, 0.8, 0.9)
    task = _verify_task(tmp_path, pair, "--suites", "douglas,model", "--trunc", "6")
    outcome = tracer.run_task(0, workloads.run_task, task)
    assert not outcome.error
    names = [s[0] for s in tracer.spans]
    parent_of = {i: tracer.spans[s[3]][0] for i, s in enumerate(tracer.spans) if s[3] >= 0}
    opnorm_parents = {parent_of[i] for i, n in enumerate(names) if n == "matcore.opnorm"}
    assert "lifts.verify_lift" in opnorm_parents        # imported by name into lifts
    assert "hardy.materialize" in names and "model.model_compress" in names
    assert names.count("cli.suite.douglas") == 1


def test_self_times_fit_inside_parents(tmp_path, tracer):
    pair = qpair.gen_conjugated(qpair.gen_nilpotent(4, 1j, 0.9, 0.8), 3)[0]
    task = _verify_task(tmp_path, pair, "--trunc", "8")
    tracer.run_task(0, workloads.run_task, task)
    spans = tracer.spans
    child_total = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        assert end >= start
        if parent >= 0:
            child_total[parent] += end - start
            assert spans[parent][1] <= start and end <= spans[parent][2]
    own = [(end - start) - child_total[i] for i, (_, start, end, _, _) in enumerate(spans)]
    assert min(own) >= -1e-9
    roots = [i for i, s in enumerate(spans) if s[0] == tracing.TASK]
    assert len(roots) == 1
    root = spans[roots[0]]
    in_task = [i for i, s in enumerate(spans) if s[4] == 0]
    assert sum(own[i] for i in in_task) == pytest.approx(root[2] - root[1], abs=1e-9)
    totals, _ = tracer.self_times()
    assert sum(totals.values()) == pytest.approx(sum(own), abs=1e-9)


@pytest.fixture(scope="module")
def corpus_outcome(tmp_path_factory):
    pair = qpair.gen_nilpotent(3, 1j, 0.8, 0.9)
    task = _verify_task(tmp_path_factory.mktemp("corpus"), pair, "--trunc", "8")
    outcome = workloads.run_task(task)
    report = json.loads(outcome.outputs["verify"])
    return outcome, report, oracle.report_statuses(report)


def _with_report(outcome, report):
    changed = copy.deepcopy(outcome)
    changed.outputs["verify"] = json.dumps(report)
    return changed


def test_unchanged_report_passes(corpus_outcome):
    outcome, _, manifest = corpus_outcome
    verdict = oracle.judge_verify(outcome, manifest)
    assert not verdict.failed and not verdict.regressions


def test_removed_check_counts_as_failed(corpus_outcome):
    outcome, report, manifest = corpus_outcome
    report = copy.deepcopy(report)
    removed = report["records"].pop(3)
    verdict = oracle.judge_verify(_with_report(outcome, report), manifest)
    assert verdict.failed
    assert verdict.regressions == [f"{removed['id']} missing"]


def test_skipped_or_failing_check_counts_as_failed(corpus_outcome):
    outcome, report, manifest = corpus_outcome
    for change in ({"skipped": True}, {"pass": False}):
        edited = copy.deepcopy(report)
        edited["records"][0].update(change)
        verdict = oracle.judge_verify(_with_report(outcome, edited), manifest)
        assert verdict.failed and verdict.regressions


def test_extra_checks_and_known_failures(corpus_outcome):
    outcome, report, manifest = corpus_outcome
    extra = copy.deepcopy(report)
    extra["records"].append({**extra["records"][0], "id": "ando/new-check"})
    assert not oracle.judge_verify(_with_report(outcome, extra), manifest).failed

    known = copy.deepcopy(manifest)
    known["model"]["model/error"] = "fail"
    erring = copy.deepcopy(report)
    erring["records"].append({**erring["records"][0], "id": "model/error", "pass": False})
    verdict = oracle.judge_verify(_with_report(outcome, erring), known)
    assert verdict.failed and not verdict.regressions
    # a former failure that now passes is allowed
    assert not oracle.judge_verify(outcome, known).failed


def test_crash_is_a_regression():
    outcome = workloads.Outcome(error="Traceback ...\nZeroDivisionError: boom\n")
    verdict = oracle.judge_verify(outcome, {})
    assert verdict.failed and verdict.regressions == ["raised ZeroDivisionError: boom"]


@pytest.fixture(scope="module")
def charfn_task(tmp_path_factory):
    pair = qpair.gen_conjugated(qpair.gen_nilpotent(6, np.exp(1j), 0.9, 0.9), 4)[0]
    return workloads._charfn_task(0, "test", pair, 5, tmp_path_factory.mktemp("charfn"),
                                  grid=(3, 5))


def test_charfn_oracle_accepts_qdilate(charfn_task):
    outcome = workloads.run_task(charfn_task)
    verdict = oracle.judge_charfn(outcome, charfn_task)
    assert not verdict.failed, verdict.problems


def test_charfn_oracle_rejects_perturbed_theta(charfn_task):
    outcome = workloads.run_task(charfn_task)
    lines = outcome.outputs["charfn"].splitlines()
    re_z, im_z, svs, delta = lines[4].split(",")
    values = [float(s) for s in svs.split(";")]
    values[0] += 1e-6
    lines[4] = ",".join([re_z, im_z, ";".join(f"{v:.12e}" for v in values), delta])
    bad = copy.deepcopy(outcome)
    bad.outputs["charfn"] = "\n".join(lines) + "\n"
    verdict = oracle.judge_charfn(bad, charfn_task)
    assert verdict.failed and len(verdict.regressions) == 1
    assert "singular values off by" in verdict.regressions[0]


def test_theta_oracle_is_basis_free():
    pair = qpair.gen_conjugated(qpair.gen_clock_shift(5, 0.9), 2)[0]
    t = pair.product()
    w = qpair.haar_unitary(5, np.random.default_rng(9))
    z = 0.4 + 0.3j
    np.testing.assert_allclose(oracle.theta_singular_values(t, z),
                               oracle.theta_singular_values(w @ t @ w.conj().T, z),
                               atol=1e-12)


def test_calibration_samples_once_per_second_of_task_time():
    import worker
    cal = worker.Calibration()
    for _ in range(10):
        cal.after_task(0.4)
    assert len(cal.samples) == 5         # one at the start, then one per second
    cal.after_task(3.1)
    assert len(cal.samples) == 8
    assert all(s > 0 for s in cal.samples)
