"""Tests of the benchmark itself: python3 -m pytest -q perfbench/selftest.py"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------ planted answers

def _write(root, rel, doc):
    p = Path(root) / rel
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(doc))


def _failed(ops, kind):
    return [op for op in ops if op[0] == kind and not op[2]]


def _eigs_job(verdicts=None):
    exp = {"roots": [1.0, 4.0], "abs_tol": 1e-7}
    if verdicts is not None:
        exp["verdicts"] = verdicts
    return {"id": "j00", "steps": [{"cmd": "eigs", "out": "j00/eigs.json"}],
            "expect": {"eigs": exp}}


def _result(e, verdict="OnlyOriginal"):
    return {"E": e, "mismatch": 1e-12,
            "verdicts": [{"site": 0, "parameter": p, "verdict": v}
                         for p, v in (("theta", "PeriodicInTheta"), ("r", verdict),
                                      ("alpha", "OnlyOriginal"))]}


VERDICTS = [[{"theta": "PeriodicInTheta", "r": "OnlyOriginal", "alpha": "OnlyOriginal"}]] * 2


def test_correct_answers_pass(tmp_path):
    _write(tmp_path, "j00/eigs.json", {"results": [_result(1.0), _result(4.0 + 1e-9)]})
    ops = check.check([_eigs_job(VERDICTS)], [[0]], tmp_path)
    assert all(op[2] for op in ops)
    assert len(ops) == 1 + 2 + 2 + 6


def test_dropped_eigenvalue_fails(tmp_path):
    _write(tmp_path, "j00/eigs.json", {"results": [_result(1.0)]})
    ops = check.check([_eigs_job(VERDICTS)], [[0]], tmp_path)
    assert [op[3] for op in _failed(ops, "eigenvalue")] == ["E=4.0"]
    assert len(_failed(ops, "verdict")) == 3  # the missed one's verdicts


def test_spurious_eigenvalue_fails(tmp_path):
    _write(tmp_path, "j00/eigs.json",
           {"results": [_result(1.0), _result(2.5), _result(4.0)]})
    ops = check.check([_eigs_job()], [[0]], tmp_path)
    assert len(_failed(ops, "reported")) == 1
    assert not _failed(ops, "eigenvalue")


def test_flipped_verdict_fails(tmp_path):
    _write(tmp_path, "j00/eigs.json",
           {"results": [_result(1.0), _result(4.0, verdict="AllValues")]})
    ops = check.check([_eigs_job(VERDICTS)], [[0]], tmp_path)
    assert len(_failed(ops, "verdict")) == 1


def test_step_expectations_are_per_step(tmp_path):
    steps = [{"cmd": "eigs", "out": f"j00/eigs{s}.json",
              "expect": {"eigs": {"roots": [r], "abs_tol": 1e-7}}}
             for s, r in enumerate((1.0, 4.0))]
    _write(tmp_path, "j00/eigs0.json", {"results": [_result(1.0)]})
    _write(tmp_path, "j00/eigs1.json", {"results": [_result(1.0)]})
    ops = check.check([{"id": "j00", "steps": steps, "expect": {}}], [[0, 0]], tmp_path)
    assert [op[3] for op in _failed(ops, "eigenvalue")] == ["E=4.0"]
    assert len(_failed(ops, "reported")) == 1


def test_wrong_hit_count_fails(tmp_path):
    job = {"id": "j00", "steps": [{"cmd": "montecarlo", "out": "j00/mc.json"}],
           "expect": {"mc": {"samples": 10, "hits": 0, "seed": 5}}}
    report = {"samples": 10, "hits": 3, "failures": 1, "seed": 5, "epsilon": 1e-9,
              "mismatch_quantiles": [[0.0, 0.0], [0.5, 0.3], [1.0, 1.0]]}
    _write(tmp_path, "j00/mc.json", {"report": report})
    ops = check.check([job], [[0]], tmp_path)
    assert len(_failed(ops, "sample")) == 4
    assert len([op for op in ops if op[0] == "sample"]) == 10


def test_broken_shear_blindness_fails(tmp_path):
    job = {"id": "j00", "steps": [{"cmd": "montecarlo", "out": "j00/mc.json"}],
           "expect": {"mc": {"samples": 4, "hits": 4, "seed": 5, "mismatch": 0.0}}}
    report = {"samples": 4, "hits": 4, "failures": 0, "seed": 5, "epsilon": 1e-6,
              "mismatch_quantiles": [[0.0, 0.0], [0.5, 1e-13], [1.0, 1e-9]]}
    _write(tmp_path, "j00/mc.json", {"report": report})
    ops = check.check([job], [[0]], tmp_path)
    assert len(_failed(ops, "blindness")) == 1


def test_failed_job_fails_its_operations(tmp_path):
    ops = check.check([_eigs_job(VERDICTS)], [[3]], tmp_path)
    assert len(_failed(ops, "job")) == 1
    assert len(_failed(ops, "eigenvalue")) == 2
    assert len(_failed(ops, "verdict")) == 6


def test_missing_output_is_unreadable(tmp_path):
    with pytest.raises(check.Unreadable):
        check.check([_eigs_job()], [[0]], tmp_path)


def test_samples_per_s_counts_completed_samples_only(tmp_path):
    import run
    step = {"cmd": "montecarlo", "out": "j/mc.json"}
    jobs = [{"id": "j0", "steps": [dict(step, out="j0/mc.json")]},
            {"id": "j1", "steps": [{"cmd": "eigs", "out": "j1/eigs.json"},
                                   dict(step, out="j1/mc.json")]}]
    _write(tmp_path, "j0/mc.json", {"report": {"samples": 64, "failures": 4}})
    steps, samples = run.mc_completed(jobs, [[0], [2, "skipped"]], tmp_path)
    assert (steps, samples) == ([(0, 0)], 60)


def test_steps_after_a_failure_run_unless_they_build_on_it(tmp_path):
    import runner

    class FakeCli:
        codes = {"degenerate": 0, "eigs": 3, "transfer": 0}

        def main(self, argv):
            Path(argv[argv.index("--output") + 1]).write_text("{}")
            return self.codes[argv[-1]]

    steps = [{"cmd": "degenerate", "config": "c.json", "out": "j/built.json"},
             {"cmd": "eigs", "base": "j/built.json", "patch": {}, "out": "j/eigs.json"},
             {"cmd": "transfer", "base": "j/built.json", "patch": {}, "out": "j/t.json"},
             {"cmd": "transfer", "base": "j/eigs.json", "patch": {}, "out": "j/t2.json"}]
    codes, _ = runner.run_job(FakeCli(), {"steps": steps}, tmp_path, io.StringIO())
    assert codes == [0, 3, 0, "skipped"]


# ------------------------------------------------------------- generation

@pytest.fixture(scope="module")
def plans():
    return {name: workloads.generate(name, 3) for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generation_is_a_function_of_the_seed(plans, name):
    again = workloads.generate(name, 3)
    assert json.dumps(again, sort_keys=True) == json.dumps(plans[name], sort_keys=True)
    other = workloads.generate(name, 4)
    assert other["files"] != plans[name]["files"]


def test_study_exact_keeps_the_shear_box(plans):
    box = plans["study-exact"]["jobs"][-1]
    assert any(abs(e - 2.70849) < 1e-4 for e in box["expect"]["eigs"]["roots"])


# ---------------------------------------------------- traced vs untraced

def _run_runner(work, tag, spans, extra=()):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    cmd = [sys.executable, str(HERE / "runner.py"), "--plan", "plan.json", "--out-root", tag,
           "--seconds", "0", "--report", f"{tag}.json", *extra]
    if spans:
        cmd += ["--spans", f"{tag}.npz"]
    subprocess.run(cmd, cwd=work, env=env, check=True, timeout=300)
    return json.loads((work / f"{tag}.json").read_text())


SMALL = {"mc-sites20": slice(0, 1), "eigs-grid": slice(0, 1), "study-exact": slice(-3, None)}


@pytest.fixture(scope="module")
def small_runs(plans, tmp_path_factory):
    """A few jobs of each workload, run once untraced and twice traced."""
    runs = {}
    for name, part in SMALL.items():
        work = tmp_path_factory.mktemp(name)
        for rel, text in plans[name]["files"].items():
            (work / rel).parent.mkdir(parents=True, exist_ok=True)
            (work / rel).write_text(text)
        jobs = plans[name]["jobs"][part]
        (work / "plan.json").write_text(json.dumps({"jobs": jobs}))
        runs[name] = (jobs, _run_runner(work, "plain", False),
                      _run_runner(work, "traced1", True), _run_runner(work, "traced2", True))
    return runs


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_trace_only_observes(small_runs, name):
    _, plain, traced, _ = small_runs[name]
    assert plain["hashes"] and plain["hashes"] == traced["hashes"]
    assert plain["exit_codes"] == traced["exit_codes"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_call_counts_repeat(small_runs, name):
    _, _, first, second = small_runs[name]
    assert first["rounds"][0]["trace"]["calls"] == second["rounds"][0]["trace"]["calls"]


def test_call_counts_follow_the_layers(small_runs):
    jobs, _, traced, _ = small_runs["mc-sites20"]
    calls = traced["rounds"][0]["trace"]["calls"]
    samples = sum(j["expect"]["mc"]["samples"] for j in jobs)
    assert calls["random.sample_realization"] == samples
    assert calls["problem.with_site_params"] == 20 * samples
    assert calls["transfer.propagate_state.rk4"] == 0
    calls = small_runs["eigs-grid"][2]["rounds"][0]["trace"]["calls"]
    assert calls["random.sample_realization"] == 0
    assert calls["transfer.propagate_state.rk4"] > 0



def test_setup_probes_stop_at_their_count(plans, tmp_path):
    # the round overruns --seconds 0, which must not start more probes
    plan = plans["mc-sites20"]
    for rel, text in plan["files"].items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    jobs = plan["jobs"][:1]
    (tmp_path / "plan.json").write_text(json.dumps({"jobs": jobs}))
    report = _run_runner(tmp_path, "probed", False,
                         ("--setup-probes", "2", "--setup-config", jobs[0]["steps"][0]["config"]))
    assert len(report["setup_s"]) == 2 and all(t > 0 for t in report["setup_s"])
