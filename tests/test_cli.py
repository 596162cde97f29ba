"""End-to-end CLI checks: exit codes, file outputs, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import slspec
import slspec.cli
from slspec.cli import main
from slspec.problem import problem_from_json
from slspec.spectra import eigen_test

PI = math.pi


def box_problem_doc(interactions=()):
    return {
        "a": 0.0, "b": PI,
        "potential": {"kind": "constant", "value": 0.0},
        "interactions": list(interactions),
        "bc_left": 0.0, "bc_right": 0.0,
    }


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(*argv):
    return main(list(argv))


# ------------------------------------------------------------------ decompose

def test_decompose_identity(capsys):
    assert run("decompose", "1", "0", "0", "1") == 0
    out = capsys.readouterr().out
    assert "alpha=0.0" in out and "r=1.0" in out and "theta=0.0" in out


def test_decompose_delta_matrix(capsys):
    assert run("decompose", "1", "0", "1", "1") == 0
    out = capsys.readouterr().out
    assert "alpha=0.5" in out
    assert repr(1 / math.sqrt(2))[:8] in out


def test_decompose_rejects_non_unimodular(capsys):
    assert run("decompose", "1", "0", "0", "2") == 2
    assert "error" in capsys.readouterr().err


def test_decompose_degrees_and_output(tmp_path, capsys):
    out_file = tmp_path / "decomp.json"
    assert run("--output", str(out_file), "decompose", "0", "-1", "1", "0",
               "--degrees") == 0
    printed = capsys.readouterr().out
    assert "90.0" in printed
    doc = json.loads(out_file.read_text())
    assert abs(doc["theta"] - PI / 2) < 1e-12  # file stays in radians


DELTA_LINE = ("alpha=0.5 r=0.7071067811865475 theta=0.7853981633974483 rad "
              "residual=2.220446049250313e-16\n")


def test_decompose_quiet_keeps_the_result_and_drops_the_chatter(tmp_path, capsys):
    # without --output the line is the result, so --quiet prints it
    assert run("--quiet", "decompose", "1", "0", "1", "1") == 0
    assert capsys.readouterr() == (DELTA_LINE, "")
    out_file = tmp_path / "f.json"
    assert run("--quiet", "--output", str(out_file), "decompose", "1", "0", "1", "1") == 0
    assert capsys.readouterr() == ("", "")
    assert json.loads(out_file.read_text())["alpha"] == 0.5


def test_decompose_writes_its_output_in_the_format_flag(tmp_path, capsys):
    out_file = tmp_path / "f.csv"
    assert run("--format", "csv", "--output", str(out_file), "decompose", "1", "0", "1", "1") == 0
    assert capsys.readouterr() == (DELTA_LINE + f"wrote {out_file}\n", "")
    assert out_file.read_text() == ("alpha,r,theta,residual\n"
                                    "0.5,0.7071067811865475,0.7853981633974483,"
                                    "2.220446049250313e-16\n")


@pytest.mark.parametrize("entries, code, out, err", [
    ("1e200 0 0 1e-200", 0, "alpha=0.0 r=1e+200 theta=0.0 rad residual=0.0\n", ""),
    ("1e-200 0 0 1e200", 0, "alpha=0.0 r=1e-200 theta=0.0 rad residual=0.0\n", ""),
    ("1e160 1e160 0 1e-160", 3, "", "numerical failure: the Iwasawa factors of "
                                    "(1e+160, 1e+160, 0.0, 1e-160) are not finite\n"),
    ("nan 0 0 1", 2, "", "error: det = nan is not 1 within 1e-09\n"),
    ("inf 0 0 0", 2, "", "error: det = nan is not 1 within 1e-09\n"),
])
def test_decompose_prints_only_finite_numbers(entries, code, out, err, capsys):
    assert run("decompose", *entries.split()) == code
    assert capsys.readouterr() == (out, err)


# --------------------------------------------------------------------- eigs

def test_eigs_box_spectrum(tmp_path):
    cfg = {
        "schema": 1,
        "problem": box_problem_doc(),
        "eigs": {"e_lo": 0.5, "e_hi": 20.0, "grid": 200},
        "output": {"path": str(tmp_path / "eigs.json"), "format": "json"},
    }
    path = write_config(tmp_path, cfg)
    assert run("--quiet", "--config", path, "eigs") == 0
    doc = json.loads((tmp_path / "eigs.json").read_text())
    got = [r["E"] for r in doc["results"]]
    assert len(got) == 4
    for e, want in zip(got, (1.0, 4.0, 9.0, 16.0)):
        assert abs(e - want) < 1e-6


def test_eigs_grid_of_one_is_config_error(tmp_path, capsys):
    cfg = {"schema": 1, "problem": box_problem_doc(),
           "eigs": {"e_lo": 0.5, "e_hi": 20.0, "grid": 1}}
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "eigs") == 2
    assert "grid" in capsys.readouterr().err


def test_eigs_grid_above_step_budget_exits_2_at_once(tmp_path, capsys):
    # a grid of 1e15 energies is refused before it is listed or propagated
    cfg = {"schema": 1, "problem": box_problem_doc(),
           "eigs": {"e_lo": 0.5, "e_hi": 20.0, "grid": 10**15},
           "output": {"path": str(tmp_path / "eigs.json")}}
    start = time.perf_counter()
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "eigs") == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: grid = 1000000000000000 is more than step.max_steps = 500000\n")
    assert not (tmp_path / "eigs.json").exists()


def test_eigs_rerun_is_byte_identical(tmp_path):
    cfg = {
        "schema": 1,
        "problem": box_problem_doc([{"x": 1.0, "alpha": 0.5, "r": 1.2, "theta": 0.3}]),
        "eigs": {"e_lo": 0.5, "e_hi": 25.0, "grid": 150},
        "output": {"path": str(tmp_path / "a.json")},
    }
    path = write_config(tmp_path, cfg)
    assert run("--quiet", "--config", path, "eigs") == 0
    first = (tmp_path / "a.json").read_bytes()
    assert run("--quiet", "--config", path, "eigs") == 0
    assert (tmp_path / "a.json").read_bytes() == first


def test_eigs_csv_format(tmp_path):
    cfg = {"schema": 1, "problem": box_problem_doc(),
           "eigs": {"e_lo": 0.5, "e_hi": 5.0, "grid": 60}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "eigs.csv"
    assert run("--quiet", "--config", path, "--output", str(out),
               "--format", "csv", "eigs") == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "E,mismatch"
    assert len(lines) == 3  # header + E=1, E=4


def test_eigs_csv_with_classification(tmp_path):
    cfg = {
        "schema": 1,
        "problem": box_problem_doc([{"x": PI / 2, "alpha": 0.0, "r": 1.0,
                                     "theta": 0.0}]),
        "eigs": {"e_lo": 3.0, "e_hi": 5.0, "grid": 40, "classify": True},
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "verdicts.csv"
    assert run("--quiet", "--config", path, "--output", str(out),
               "--format", "csv", "eigs") == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "E,site,parameter,verdict"
    assert len(lines) == 4  # one eigenvalue x three parameters
    assert any("PeriodicInTheta" in line for line in lines)


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = {"schema": 1, "problem": box_problem_doc(), "bogus": {},
           "eigs": {"e_lo": 0.5, "e_hi": 5.0, "grid": 50}}
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "eigs") == 2
    assert "bogus" in capsys.readouterr().err


def test_missing_schema_rejected(tmp_path):
    cfg = {"problem": box_problem_doc(),
           "eigs": {"e_lo": 0.5, "e_hi": 5.0, "grid": 50}}
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "eigs") == 2


# ----------------------------------------------------------------- dichotomy

def test_dichotomy_table(tmp_path):
    cfg = {
        "schema": 1,
        "problem": box_problem_doc([{"x": PI / 2, "alpha": 0.0, "r": 1.0, "theta": 0.0}]),
        "dichotomy": {"energy": 4.0, "site": 0},
        "output": {"path": str(tmp_path / "d.json")},
    }
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "dichotomy") == 0
    doc = json.loads((tmp_path / "d.json").read_text())
    verdicts = {v["parameter"]: v["verdict"] for v in doc["verdicts"]}
    assert verdicts["theta"] == "PeriodicInTheta"
    assert set(verdicts) == {"theta", "r", "alpha"}
    assert doc["mismatch"] <= 1e-8


def test_dichotomy_csv_table(tmp_path, capsys):
    cfg = {
        "schema": 1,
        "problem": box_problem_doc([{"x": PI / 2, "alpha": 0.0, "r": 1.0, "theta": 0.0}]),
        "dichotomy": {"energy": 4.0, "site": 0},
    }
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "--format", "csv",
               "dichotomy") == 0
    assert capsys.readouterr().out == ("E,site,parameter,verdict\n"
                                       "4.0,0,theta,PeriodicInTheta\n"
                                       "4.0,0,r,AllValues\n"
                                       "4.0,0,alpha,OnlyOriginal\n")


def test_dichotomy_not_an_eigenvalue_exits_3(tmp_path, capsys):
    cfg = {
        "schema": 1,
        "problem": box_problem_doc([{"x": 1.0, "alpha": 1.0, "r": 1.0, "theta": 0.0}]),
        "dichotomy": {"energy": 2.0, "site": 0},
    }
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "dichotomy") == 3
    assert "mismatch" in capsys.readouterr().err


# ---------------------------------------------------------------- monte carlo

def montecarlo_config(tmp_path, out_name="mc.json", seed=77, samples=400):
    return {
        "schema": 1,
        "problem": box_problem_doc([{"x": 1.0, "alpha": 0.0, "r": 1.0, "theta": 0.0}]),
        "montecarlo": {
            "energy": 4.0,
            "ensemble": {"target": "lambda",
                         "sites": [{"kind": "uniform", "lo": -1.0, "hi": 1.0}],
                         "seed": seed},
            "samples": samples,
            "epsilon": 1e-6,
        },
        "output": {"path": str(tmp_path / out_name)},
    }


def test_montecarlo_outputs_report_and_histogram(tmp_path):
    cfg = montecarlo_config(tmp_path)
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "montecarlo") == 0
    doc = json.loads((tmp_path / "mc.json").read_text())
    assert doc["report"]["samples"] == 400
    assert doc["report"]["hits"] == 0
    hist = (tmp_path / "mc_hist.csv").read_text().strip().splitlines()
    assert hist[0] == "bin_lo,bin_hi,count"
    total = sum(int(line.split(",")[2]) for line in hist[1:])
    assert total == 400


def test_montecarlo_deterministic_across_workers(tmp_path):
    cfg = montecarlo_config(tmp_path)
    path = write_config(tmp_path, cfg)
    assert run("--quiet", "--config", path, "montecarlo") == 0
    first = (tmp_path / "mc.json").read_bytes()
    first_hist = (tmp_path / "mc_hist.csv").read_bytes()
    assert run("--quiet", "--config", path, "--workers", "2", "montecarlo") == 0
    assert (tmp_path / "mc.json").read_bytes() == first
    assert (tmp_path / "mc_hist.csv").read_bytes() == first_hist


def test_montecarlo_seed_override(tmp_path):
    cfg = montecarlo_config(tmp_path)
    path = write_config(tmp_path, cfg)
    assert run("--quiet", "--config", path, "--seed", "123", "montecarlo") == 0
    doc = json.loads((tmp_path / "mc.json").read_text())
    assert doc["report"]["seed"] == 123


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--seed", str(2 ** 64)),
                                         ("--workers", "0"), ("--workers", "-3")])
def test_montecarlo_bad_seed_or_workers_exit_2(tmp_path, capsys, flag, value):
    path = write_config(tmp_path, montecarlo_config(tmp_path, samples=3))
    assert run("--quiet", "--config", path, flag, value, "montecarlo") == 2
    assert f"error: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "mc.json").exists()


@pytest.mark.parametrize("target, site", [
    ("r", {"kind": "pointmass", "value": math.nan}),
    ("lambda", {"kind": "gaussian", "mean": math.nan, "sd": 1.0}),
    ("lambda", {"kind": "gaussian", "mean": 0.0, "sd": math.inf}),
    ("theta", {"kind": "pointmass", "value": -math.inf}),
    ("r", {"kind": "uniform", "lo": 0.5, "hi": math.inf}),
    ("lambda", {"kind": "uniform", "lo": None, "hi": 1.0}),
], ids=["nan-r-point-mass", "nan-gaussian-mean", "inf-gaussian-sd", "inf-point-mass",
        "inf-uniform-hi", "null-uniform-lo"])
def test_montecarlo_non_finite_distribution_exits_2(tmp_path, capsys, target, site):
    # json writes NaN and Infinity, and Python's json reads them back
    cfg = montecarlo_config(tmp_path, samples=3)
    cfg["montecarlo"]["ensemble"].update(target=target, sites=[site])
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "montecarlo") == 2
    assert "error: montecarlo.ensemble" in capsys.readouterr().err
    assert not (tmp_path / "mc.json").exists()


def test_montecarlo_one_bin_exits_2(tmp_path, capsys):
    # the first bin holds the mismatches at or below 1e-12 alone, so one bin
    # would drop every other sample from the histogram
    cfg = montecarlo_config(tmp_path, samples=3)
    cfg["montecarlo"]["bins"] = 1
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "montecarlo") == 2
    assert capsys.readouterr().err == "error: montecarlo.bins must be an integer >= 2\n"
    assert not (tmp_path / "mc.json").exists()


def test_montecarlo_two_bins_count_every_sample(tmp_path):
    cfg = montecarlo_config(tmp_path, samples=50)
    cfg["montecarlo"]["bins"] = 2
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "montecarlo") == 0
    rows = [line.split(",") for line in (tmp_path / "mc_hist.csv").read_text().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [0.0, 1e-12]
    assert sum(int(r[2]) for r in rows) == 50


def test_histogram_first_bin_holds_mismatches_at_or_below_1e_12():
    edges = [row[:2] for row in slspec.cli._histogram([], 12)]
    inner = edges[5][1]
    mismatches = [0.0, 1e-12, math.nextafter(1e-12, 1.0), inner, math.nextafter(inner, 1.0),
                  PI / 2]
    rows = slspec.cli._histogram(mismatches, 12)
    assert [row[:2] for row in rows] == edges
    assert edges[0] == (0.0, 1e-12) and edges[-1][1] == PI / 2
    # a mismatch on an edge counts in the bin that edge closes
    assert [row[2] for row in rows] == [2, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.floats(0.0, PI / 2), st.sampled_from([0.0, 1e-12, PI / 2])),
                max_size=60), st.integers(2, 60))
def test_histogram_counts_each_mismatch_once_in_its_bin(mismatches, bins):
    rows = slspec.cli._histogram(mismatches, bins)
    assert len(rows) == bins and sum(row[2] for row in rows) == len(mismatches)
    assert [row[2] for row in rows] == [
        sum(1 for m in mismatches if (i == 0 or lo < m) and m <= hi)
        for i, (lo, hi, _) in enumerate(rows)]


def test_montecarlo_csv_format_swaps_files(tmp_path):
    cfg = montecarlo_config(tmp_path, out_name="mc.csv", samples=100)
    cfg["output"]["format"] = "csv"
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "montecarlo") == 0
    hist = (tmp_path / "mc.csv").read_text().splitlines()
    assert hist[0] == "bin_lo,bin_hi,count"
    doc = json.loads((tmp_path / "mc_report.json").read_text())
    assert doc["report"]["samples"] == 100


def test_montecarlo_csv_without_a_path_prints_the_histogram(tmp_path, capsys):
    cfg = montecarlo_config(tmp_path, samples=50)
    del cfg["output"]
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "--format", "csv",
               "montecarlo") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "bin_lo,bin_hi,count" and len(lines) == 51
    assert sum(int(line.split(",")[2]) for line in lines[1:]) == 50
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_montecarlo_site_count_mismatch(tmp_path, capsys):
    cfg = montecarlo_config(tmp_path)
    cfg["montecarlo"]["ensemble"]["sites"].append({"kind": "pointmass", "value": 0.0})
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "montecarlo") == 2
    assert "sites" in capsys.readouterr().err


# ----------------------------------------------------------------- degenerate

def degenerate_config(tmp_path):
    return {
        "schema": 1,
        "problem": {
            "a": 0.0, "b": 4 * PI,
            "potential": {"kind": "constant", "value": 0.0},
            "interactions": [],
            "bc_left": 0.0, "bc_right": 0.0,
        },
        "degenerate": {"energy": 1.0, "thetas": [0.0], "rs": [1.0]},
        "output": {"path": str(tmp_path / "built.json")},
    }


def test_degenerate_constructs_and_roundtrips(tmp_path):
    cfg = degenerate_config(tmp_path)
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "degenerate") == 0
    doc = json.loads((tmp_path / "built.json").read_text())
    prob = problem_from_json(doc["problem"])
    assert abs(prob.interactions[0].x - 3 * PI / 2) < 1e-9
    assert eigen_test(prob, 1.0).mismatch <= 1e-7
    # the emitted file is itself a runnable eigs config
    out2 = tmp_path / "recheck.json"
    assert run("--quiet", "--config", str(tmp_path / "built.json"),
               "--output", str(out2), "eigs") == 0
    found = [r["E"] for r in json.loads(out2.read_text())["results"]]
    assert any(abs(e - 1.0) < 1e-6 for e in found)


def test_degenerate_prints_its_progress_and_the_path_it_wrote(tmp_path, capsys):
    cfg = degenerate_config(tmp_path)
    assert run("--config", write_config(tmp_path, cfg), "degenerate") == 0
    assert capsys.readouterr() == ("sites at [4.71238898038469], residual mismatch 4.441e-16\n"
                                   f"wrote {tmp_path / 'built.json'}\n", "")


def test_degenerate_insufficient_oscillation_exits_3(tmp_path, capsys):
    cfg = degenerate_config(tmp_path)
    cfg["problem"]["b"] = PI
    cfg["degenerate"]["energy"] = 0.01
    cfg["degenerate"]["allow_non_eigenvalue"] = True
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "degenerate") == 3
    assert "zeros" in capsys.readouterr().err


def test_degenerate_refuses_csv(tmp_path, capsys):
    cfg = degenerate_config(tmp_path)
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "--format", "csv",
               "degenerate") == 2
    assert capsys.readouterr().err == "error: degenerate emits a problem config; use json format\n"
    assert not (tmp_path / "built.json").exists()


def test_degenerate_refuses_a_problem_with_interactions(tmp_path, capsys):
    cfg = degenerate_config(tmp_path)
    cfg["problem"]["interactions"] = [{"x": 1.0, "alpha": 0.0, "r": 1.0, "theta": 0.0}]
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "degenerate") == 2
    assert capsys.readouterr().err == ("error: degenerate construction starts from a problem "
                                       "without interactions\n")
    assert not (tmp_path / "built.json").exists()


def test_degenerate_checks_every_r_before_any_walk(tmp_path, capsys):
    cfg = degenerate_config(tmp_path)
    # E = 2 is no eigenvalue: a walk first would exit 3 with its mismatch
    cfg["degenerate"].update(energy=2.0, rs=[-1.0])
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "degenerate") == 2
    assert capsys.readouterr().err == "error: r = -1.0 must be > 0\n"
    assert not (tmp_path / "built.json").exists()


def test_degenerate_rerun_byte_identical(tmp_path):
    cfg = degenerate_config(tmp_path)
    path = write_config(tmp_path, cfg)
    assert run("--quiet", "--config", path, "degenerate") == 0
    first = (tmp_path / "built.json").read_bytes()
    assert run("--quiet", "--config", path, "degenerate") == 0
    assert (tmp_path / "built.json").read_bytes() == first


# ------------------------------------------------------------------- transfer

def test_transfer_matrix_output(tmp_path):
    cfg = {
        "schema": 1,
        "problem": box_problem_doc(),
        "transfer": {"energy": 1.0, "x": PI / 2, "y": 0.0},
        "output": {"path": str(tmp_path / "t.json")},
    }
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "transfer") == 0
    doc = json.loads((tmp_path / "t.json").read_text())
    a, b, c, d = doc["matrix"]
    assert abs(a) < 1e-12 and abs(b - 1.0) < 1e-12
    assert abs(doc["det"] - 1.0) < 1e-12


def test_transfer_matrix_csv(tmp_path, capsys):
    cfg = {"schema": 1, "problem": box_problem_doc(),
           "transfer": {"energy": 1.0, "x": PI / 2, "y": 0.0}}
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "--format", "csv",
               "transfer") == 0
    assert capsys.readouterr().out == ("a,b,c,d\n"
                                       "6.123233995736766e-17,1.0,-1.0,6.123233995736766e-17\n")


def test_transfer_prufer_trace_csv(tmp_path):
    cfg = {
        "schema": 1,
        "problem": box_problem_doc(),
        "transfer": {"energy": 1.0, "trace_resolution": 0.1},
        "output": {"path": str(tmp_path / "trace.csv"), "format": "csv"},
    }
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "transfer") == 0
    lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "x,phi"
    x, phi = map(float, lines[-1].split(","))
    assert abs(x - PI) < 1e-12 and abs(phi - PI) < 1e-9


def overflow_problem_doc():
    # two V = 1000 pieces of length 15 overflow the exact route
    return {**box_problem_doc(), "b": 30.0,
            "potential": {"kind": "piecewise", "breakpoints": [0.0, 15.0, 30.0],
                          "values": [1000.0, 1000.0]}}


def test_transfer_overflow_exits_3(tmp_path, capsys):
    cfg = {"schema": 1, "problem": overflow_problem_doc(), "transfer": {"energy": 1.0},
           "output": {"path": str(tmp_path / "t.json")}}
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "transfer") == 3
    assert capsys.readouterr().err == ("numerical failure: the solution at x = 30.0 "
                                       "is not finite at E = 1.0\n")
    assert not (tmp_path / "t.json").exists()


def test_transfer_overflowing_piece_exits_3(tmp_path, capsys):
    # E - V times the piece's squared length overflows: numerical, not a config error
    cfg = {"schema": 1, "problem": box_problem_doc(), "transfer": {"energy": 1.0, "x": 1e308},
           "output": {"path": str(tmp_path / "t.json")}}
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "transfer") == 3
    assert capsys.readouterr().err == ("numerical failure: piece of length 1e+308 at "
                                       "E - V = 1.0 overflows\n")
    assert not (tmp_path / "t.json").exists()


def test_transfer_outside_domain_exits_2(tmp_path, capsys):
    cfg = {"schema": 1, "problem": overflow_problem_doc(),
           "transfer": {"energy": 1.0, "x": 31.0},
           "output": {"path": str(tmp_path / "t.json")}}
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "transfer") == 2
    assert capsys.readouterr().err == ("error: x = 31.0 outside potential domain "
                                       "[0.0, 30.0]\n")
    assert not (tmp_path / "t.json").exists()


def test_non_finite_trace_sample_exits_3(tmp_path, capsys):
    # on a forbidden piece of length 236.5 the closed form reaches 9 sinh(709.5) / 3,
    # which overflows, so the state at the trace's last sample is NaN
    problem = {**box_problem_doc(), "b": 236.5,
               "potential": {"kind": "constant", "value": 9.0}}
    cfg = {"schema": 1, "problem": problem,
           "transfer": {"energy": 0.0, "trace_resolution": 0.1, "x": 1.0},
           "output": {"path": str(tmp_path / "t.json")}}
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "transfer") == 3
    assert capsys.readouterr().err == ("numerical failure: the Pruefer phase at x = 236.5 "
                                       "is not finite at E = 0.0\n")
    assert not (tmp_path / "t.json").exists()


def shear_box_doc():
    # V = 0 on [0, 3], Dirichlet ends, a shear alpha = 8 at x = 1
    return {**box_problem_doc([{"x": 1.0, "alpha": 8.0, "r": 1.0, "theta": 0.0}]), "b": 3.0}


@pytest.mark.parametrize("command, problem, block, piece", [
    ("eigs", shear_box_doc(), {"e_lo": -1e6, "e_hi": -1e5, "grid": 3},
     "piece of length 1.0 at E - V = -1000000.0"),
    ("dichotomy", shear_box_doc(), {"energy": -1e6, "site": 0},
     "piece of length 1.0 at E - V = -1000000.0"),
    ("transfer", {**box_problem_doc(), "b": 30.0, "potential": {"kind": "constant",
                                                                "value": 1000.0}},
     {"energy": 1.0}, "piece of length 30.0 at E - V = -999.0"),
], ids=["eigs", "dichotomy", "transfer"])
def test_overflowing_cosh_names_the_piece(command, problem, block, piece, tmp_path, capsys):
    # the closed form's cosh overflows on a long forbidden piece with z = w dx^2 finite
    cfg = {"schema": 1, "problem": problem, command: block,
           "output": {"path": str(tmp_path / "out.json")}}
    assert run("--quiet", "--config", write_config(tmp_path, cfg), command) == 3
    assert capsys.readouterr().err == f"numerical failure: {piece} overflows\n"
    assert not (tmp_path / "out.json").exists()


# ----------------------------------------------------------------------- JSON

def json_dumps_text(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


json_floats = st.floats() | st.sampled_from([math.inf, -math.inf, math.nan, -0.0])
json_scalars = (st.none() | st.booleans() | st.integers() | json_floats
                | json_floats.map(np.float64) | st.text())
# the shapes the template formats: float lists and equal-length float rows,
# with inf, nan or np.float64 among the items
float_items = json_floats | json_floats.map(np.float64)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
float_rows = st.tuples(st.integers(0, 4), st.sampled_from([finite_floats, float_items])).flatmap(
    lambda shape: st.lists(st.lists(shape[1], min_size=shape[0], max_size=shape[0])
                           | st.tuples(*[shape[1]] * shape[0]), max_size=6))


def json_dicts(values):
    # one key type per dict: json sorts the keys, and mixed types do not compare
    return (st.dictionaries(st.text(), values, max_size=5)
            | st.dictionaries(st.integers() | st.booleans(), values, max_size=4)
            | st.dictionaries(json_floats, values, max_size=4)
            | st.dictionaries(st.none(), values))


json_documents = st.recursive(
    json_scalars | st.lists(float_items) | st.lists(finite_floats) | float_rows
    | st.lists(st.lists(json_floats, max_size=3)),
    lambda children: (st.lists(children, max_size=5) | st.tuples(children, children)
                      | json_dicts(children)),
    max_leaves=30)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(json_documents)
def test_json_text_equals_indented_json_dumps(doc):
    assert slspec.cli._json_text(doc) == json_dumps_text(doc)


@pytest.mark.parametrize("doc", [
    object(), [1.0, {1}], {"a": [[1.0, 2.0], [np.int64(3), 4.0]]}, {(1, 2): 0.5},
    {"a": 1, 2: 0.5}, [b"bytes"], {"x": np.array([1.0])},
])
def test_json_text_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError) as want:
        json_dumps_text(doc)
    with pytest.raises(TypeError) as got:
        slspec.cli._json_text(doc)
    assert str(got.value) == str(want.value)


# ----------------------------------------------------------------- validation

GRID_PROBLEM = {
    "a": 0.0, "b": PI,
    "potential": {"kind": "grid", "x": [0.0, PI], "values": [0.0, 0.0]},
    "interactions": [],
    "bc_left": 0.0, "bc_right": 0.0,
}
IDENTITY_SITES = [{"x": x, "alpha": 0.0, "r": 1.0, "theta": 0.0} for x in (1.0, 2.0)]
SMALL_EIGS = {"e_lo": 0.5, "e_hi": 5.0, "grid": 4}
MC_BLOCK = {
    "energy": 4.0,
    "ensemble": {"target": "lambda",
                 "sites": [{"kind": "uniform", "lo": -1.0, "hi": 1.0}] * 2,
                 "seed": 5},
    "samples": 3,
    "epsilon": 1e-6,
}

# every integer field rejects bools and non-integers, every flag needs a JSON
# boolean, step limits below their minimum are config errors, and so is a
# JSON null or a NaN in the problem, its potential or the degenerate sites, a
# kind or output path of the wrong type, a tolerance, resolution or
# dilation the library rejects, and a dichotomy site past the last one, even
# where the walk would overflow
BAD_CONFIGS = {
    "dichotomy-site-bool": ("dichotomy", {
        "problem": box_problem_doc(IDENTITY_SITES),
        "dichotomy": {"energy": 4.0, "site": True}}),
    "dichotomy-site-past-an-overflow": ("dichotomy", {
        "problem": shear_box_doc(), "dichotomy": {"energy": -1e6, "site": 5}}),
    "montecarlo-samples-bool": ("montecarlo", {
        "problem": box_problem_doc(IDENTITY_SITES),
        "montecarlo": {**MC_BLOCK, "samples": True}}),
    "montecarlo-bins-bool": ("montecarlo", {
        "problem": box_problem_doc(IDENTITY_SITES),
        "montecarlo": {**MC_BLOCK, "bins": True}}),
    "step-max-refine-float": ("eigs", {
        "problem": GRID_PROBLEM, "step": {"max_refine": 2.7}, "eigs": SMALL_EIGS}),
    "step-max-refine-bool": ("eigs", {
        "problem": GRID_PROBLEM, "step": {"max_refine": True}, "eigs": SMALL_EIGS}),
    "step-max-refine-negative": ("eigs", {
        "problem": GRID_PROBLEM, "step": {"max_refine": -1}, "eigs": SMALL_EIGS}),
    "step-max-steps-zero": ("eigs", {
        "problem": GRID_PROBLEM, "step": {"max_steps": 0}, "eigs": SMALL_EIGS}),
    "eigs-classify-string": ("eigs", {
        "problem": box_problem_doc(IDENTITY_SITES),
        "eigs": {**SMALL_EIGS, "classify": "no"}}),
    "degenerate-allow-int": ("degenerate", {
        "problem": {**box_problem_doc(), "b": 4 * PI},
        "degenerate": {"energy": 1.0, "thetas": [0.0], "rs": [1.0],
                       "allow_non_eigenvalue": 1}}),
    "problem-alpha-null": ("eigs", {
        "problem": box_problem_doc([{"x": 1.0, "alpha": None, "r": 1.0, "theta": 0.0}]),
        "eigs": SMALL_EIGS}),
    "problem-theta-nan": ("dichotomy", {
        "problem": box_problem_doc([{"x": 1.0, "alpha": 0.0, "r": 1.0, "theta": math.nan}]),
        "dichotomy": {"energy": 1.0, "site": 0}}),
    "potential-value-nan": ("eigs", {
        "problem": {**box_problem_doc(), "potential": {"kind": "constant", "value": math.nan}},
        "eigs": SMALL_EIGS}),
    "degenerate-theta-null": ("degenerate", {
        "problem": {**box_problem_doc(), "b": 4 * PI},
        "degenerate": {"energy": 1.0, "thetas": [None], "rs": [1.0]}}),
    "output-path-int": ("eigs", {
        "problem": box_problem_doc(), "eigs": SMALL_EIGS, "output": {"path": 5}}),
    "potential-kind-list": ("eigs", {
        "problem": {**box_problem_doc(), "potential": {"kind": ["constant"], "value": 0.0}},
        "eigs": SMALL_EIGS}),
    "distribution-kind-list": ("montecarlo", {
        "problem": box_problem_doc(IDENTITY_SITES),
        "montecarlo": {**MC_BLOCK, "ensemble": {
            **MC_BLOCK["ensemble"],
            "sites": [{"kind": ["uniform"], "lo": -1.0, "hi": 1.0}] * 2}}}),
    "transfer-trace-resolution-negative": ("transfer", {
        "problem": box_problem_doc(), "transfer": {"energy": 1.0, "trace_resolution": -1}}),
    "eigs-tol-negative": ("eigs", {
        "problem": box_problem_doc(), "eigs": {**SMALL_EIGS, "tol": -1}}),
    "degenerate-r-zero": ("degenerate", {
        "problem": {**box_problem_doc(), "b": 4 * PI},
        "degenerate": {"energy": 1.0, "thetas": [0.0], "rs": [0.0]}}),
    "schema-bool": ("eigs", {
        "schema": True, "problem": box_problem_doc(), "eigs": SMALL_EIGS}),
    "ensemble-seed-bool": ("montecarlo", {
        "problem": box_problem_doc(IDENTITY_SITES),
        "montecarlo": {**MC_BLOCK, "ensemble": {**MC_BLOCK["ensemble"], "seed": True}}}),
    "dichotomy-tol-negative": ("dichotomy", {
        "problem": box_problem_doc([{"x": PI / 2, "alpha": 0.0, "r": 1.0, "theta": 0.0}]),
        "dichotomy": {"energy": 1.0, "site": 0, "tol": -1.0}}),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_mistyped_config_fields_exit_2(name, tmp_path, capsys):
    command, blocks = BAD_CONFIGS[name]
    path = write_config(tmp_path, {"schema": 1, **blocks})
    assert run("--quiet", "--config", path, command) == 2
    assert "error" in capsys.readouterr().err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"schema": 1, "problem": "\xff"}')
    assert run("--quiet", "--config", str(path), "eigs") == 2
    assert capsys.readouterr().err.startswith(f"error: config {path} is not valid JSON: "
                                              "'utf-8' codec can't decode byte 0xff")


# every number of a command block must be finite; Python's json writes and
# reads NaN and Infinity
NON_FINITE = {
    "transfer-energy-nan": ("transfer", "transfer", {"energy": math.nan}, "energy"),
    "transfer-x-inf": ("transfer", "transfer", {"energy": 1.0, "x": math.inf}, "x"),
    "eigs-e-hi-inf": ("eigs", "eigs", {**SMALL_EIGS, "e_hi": math.inf}, "e_hi"),
    "eigs-tol-nan": ("eigs", "eigs", {**SMALL_EIGS, "tol": math.nan}, "tol"),
    "step-tol-inf": ("eigs", "step", {"tol": math.inf}, "tol"),
    "dichotomy-energy-nan": ("dichotomy", "dichotomy", {"energy": math.nan, "site": 0},
                             "energy"),
    "dichotomy-tol-inf": ("dichotomy", "dichotomy", {"energy": 4.0, "site": 0,
                                                     "tol": math.inf}, "tol"),
    "montecarlo-energy-minus-inf": ("montecarlo", "montecarlo",
                                    {**MC_BLOCK, "energy": -math.inf}, "energy"),
    "montecarlo-epsilon-nan": ("montecarlo", "montecarlo",
                               {**MC_BLOCK, "epsilon": math.nan}, "epsilon"),
    "degenerate-energy-nan": ("degenerate", "degenerate",
                              {"energy": math.nan, "thetas": [0.0], "rs": [1.0]}, "energy"),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE))
def test_non_finite_numbers_exit_2(name, tmp_path, capsys):
    command, block_name, block, key = NON_FINITE[name]
    problem = ({**box_problem_doc(), "b": 4 * PI} if command == "degenerate"
               else box_problem_doc(IDENTITY_SITES))
    cfg = {"schema": 1, "problem": problem, block_name: block,
           "output": {"path": str(tmp_path / "out.json")}}
    if block_name == "step":
        cfg["eigs"] = SMALL_EIGS
    assert run("--quiet", "--config", write_config(tmp_path, cfg), command) == 2
    assert capsys.readouterr().err == f"error: {block_name}.{key} must be a finite number\n"
    assert not (tmp_path / "out.json").exists()


def test_eigs_nan_mismatch_exits_3(tmp_path, capsys):
    # the overflow problem's walk overflows at every grid energy; that is a
    # failure, not an empty spectrum
    cfg = {"schema": 1, "problem": overflow_problem_doc(),
           "eigs": {"e_lo": -5.0, "e_hi": 34.0, "grid": 20},
           "output": {"path": str(tmp_path / "eigs.json")}}
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "eigs") == 3
    assert capsys.readouterr().err == ("numerical failure: the solution at x = 30.0 "
                                       "is not finite at E = -5.0\n")
    assert not (tmp_path / "eigs.json").exists()


def test_tiny_trace_resolution_exits_2_at_once(tmp_path, capsys):
    # pi / 1e-300 samples would never finish; the step budget caps them first
    cfg = {"schema": 1, "problem": box_problem_doc(),
           "transfer": {"energy": 1.0, "trace_resolution": 1e-300},
           "output": {"path": str(tmp_path / "t.json")}}
    start = time.perf_counter()
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "transfer") == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: transfer.trace_resolution = 1e-300 needs at least 3.14e+300 samples, "
        "more than step.max_steps = 500000\n")
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("command, block", [
    ("transfer", {"energy": 1e12, "trace_resolution": 0.05}),
    ("degenerate", {"energy": 1e12, "thetas": [0.5], "rs": [1.0],
                    "allow_non_eigenvalue": True}),
])
def test_huge_energy_lift_walk_exits_2_at_once(command, block, tmp_path, capsys):
    # a trace's lift walk at spacing 0.45 / 1e12 would take 7e12 samples over
    # [0, pi]; the step budget caps them before the first one.  The degenerate
    # construction solves the box's constant piece in closed form, without
    # samples, so it finishes (and exits 0) just as fast
    code = 2 if command == "transfer" else 0
    cfg = {"schema": 1, "problem": box_problem_doc(), command: block,
           "output": {"path": str(tmp_path / "out.json")}}
    start = time.perf_counter()
    assert run("--quiet", "--config", write_config(tmp_path, cfg), command) == code
    assert time.perf_counter() - start < 1.0
    if code == 2:
        assert capsys.readouterr().err == (
            "error: E = 1000000000000.0 needs at least 6.98e+12 samples, "
            "more than step.max_steps = 500000\n")
        assert not (tmp_path / "out.json").exists()


def test_degenerate_nan_mismatch_is_not_an_eigenvalue(tmp_path, capsys):
    # the V = 1000 pieces overflow the exact route, which raises before any
    # tolerance could admit E
    problem = {**box_problem_doc(), "b": 40.0,
               "potential": {"kind": "piecewise", "breakpoints": [0.0, 10.0, 25.0, 40.0],
                             "values": [0.0, 1000.0, 1000.0]}}
    cfg = {"schema": 1, "problem": problem,
           "degenerate": {"energy": 5.0, "thetas": [0.5, 1.0], "rs": [1.0, 2.0]},
           "output": {"path": str(tmp_path / "built.json")}}
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "degenerate") == 3
    assert capsys.readouterr().err == ("numerical failure: the solution at x = 40.0 "
                                       "is not finite at E = 5.0\n")
    assert not (tmp_path / "built.json").exists()


def test_degenerate_nan_mismatch_exits_3_when_non_eigenvalues_are_allowed(tmp_path, capsys):
    # allow_non_eigenvalue admits a finite mismatch above the tolerance; the
    # overflowing walk is a numerical failure all the same
    problem = {**box_problem_doc(), "b": 40.0,
               "potential": {"kind": "piecewise", "breakpoints": [0.0, 10.0, 25.0, 40.0],
                             "values": [0.0, 1000.0, 1000.0]}}
    cfg = {"schema": 1, "problem": problem,
           "degenerate": {"energy": 5.0, "thetas": [0.5, 1.0], "rs": [1.0, 2.0],
                          "allow_non_eigenvalue": True},
           "output": {"path": str(tmp_path / "built.json")}}
    assert run("--config", write_config(tmp_path, cfg), "degenerate") == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numerical failure: the solution at x = 40.0 is not finite at E = 5.0\n"
    assert not (tmp_path / "built.json").exists()


@pytest.mark.parametrize("epsilon", [0.0, -1.0])
def test_montecarlo_epsilon_is_checked_before_sampling(epsilon, tmp_path, capsys,
                                                       monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking epsilon")

    monkeypatch.setattr(slspec.cli, "mismatch_samples", no_sampling)
    cfg = montecarlo_config(tmp_path)
    cfg["montecarlo"]["epsilon"] = epsilon
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "montecarlo") == 2
    assert capsys.readouterr().err == "error: montecarlo.epsilon must be positive\n"


@pytest.mark.parametrize("where", ["eigs-flag", "eigs-config", "montecarlo-config",
                                   "decompose-flag"])
def test_unwritable_output_exits_2(where, tmp_path, capsys):
    target = str(tmp_path / "missing-dir" / "out.json")
    cfg = {"schema": 1, "problem": box_problem_doc(), "eigs": SMALL_EIGS}
    if where == "eigs-flag":
        argv = ["--config", write_config(tmp_path, cfg), "--output", target, "eigs"]
    elif where == "eigs-config":
        cfg["output"] = {"path": target}
        argv = ["--config", write_config(tmp_path, cfg), "eigs"]
    elif where == "montecarlo-config":
        cfg = {**montecarlo_config(tmp_path, samples=3), "output": {"path": target}}
        argv = ["--config", write_config(tmp_path, cfg), "montecarlo"]
    else:
        argv = ["--output", target, "decompose", "1", "0", "0", "1"]
    assert run("--quiet", *argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write output {target}: ")


def test_parser_is_built_once(tmp_path):
    from slspec.cli import build_parser
    assert build_parser() is build_parser()
    # reparsing through the one parser gives every call its own namespace
    path = write_config(tmp_path, montecarlo_config(tmp_path, samples=3))
    assert run("--quiet", "--config", path, "--seed", "9", "montecarlo") == 0
    assert json.loads((tmp_path / "mc.json").read_text())["report"]["seed"] == 9
    assert run("--quiet", "--config", path, "montecarlo") == 0
    assert json.loads((tmp_path / "mc.json").read_text())["report"]["seed"] == 77


def python(*argv):
    """A fresh interpreter run with argv, importing this slspec."""
    src = str(Path(slspec.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=60)


def test_import_leaves_out_numpy_random_and_process_pools():
    # start-up time is import time: numpy.random and the process pool load
    # only in the commands that use them, scipy, mpmath and hypothesis only in tests
    heavy = ("numpy.random", "concurrent.futures", "multiprocessing", "scipy", "mpmath",
             "hypothesis")
    code = f"import sys, slspec.cli; print(sorted(m for m in {heavy!r} if m in sys.modules))"
    res = python("-c", code)
    assert (res.returncode, res.stdout) == (0, "[]\n")


def test_module_entry_point_exits_with_the_code_of_main(tmp_path):
    shear = {"schema": 1, "problem": shear_box_doc(),
             "eigs": {"e_lo": -1e6, "e_hi": -1e5, "grid": 3}}
    good = {"schema": 1, "problem": box_problem_doc(),
            "eigs": {"e_lo": 0.5, "e_hi": 5.0, "grid": 20}}
    runs = [python("-m", "slspec.cli", *argv) for argv in (
        ["eigs"],
        ["--config", write_config(tmp_path, shear, "shear.json"), "eigs"],
        ["--config", write_config(tmp_path, good, "good.json"), "eigs"])]
    assert [res.returncode for res in runs] == [2, 3, 0]
    assert runs[0].stderr == "error: this command requires --config\n"
    assert runs[1].stderr == ("numerical failure: piece of length 1.0 at "
                              "E - V = -1000000.0 overflows\n")
    assert [r["E"] for r in json.loads(runs[2].stdout)["results"]] == pytest.approx([1.0, 4.0])


NUMERICAL_FAILURES = {
    "ZeroVector": ValueError, "IntegrationFailure": RuntimeError,
    "NotAnEigenvalue": ValueError, "CrossCheckFailure": RuntimeError,
    "UnsupportedSupport": ValueError, "InsufficientOscillation": ValueError,
    "NotUnperturbedEigenvalue": ValueError, "TargetNotBracketed": ValueError,
}


@pytest.mark.parametrize("name", sorted(NUMERICAL_FAILURES))
def test_numerical_failures_are_arithmetic_errors(name):
    # main exits 3 on any ArithmeticError, checked before ValueError's exit 2
    cls = getattr(slspec, name)
    assert issubclass(cls, slspec.NumericalFailure)
    assert issubclass(cls, ArithmeticError) and issubclass(cls, NUMERICAL_FAILURES[name])


@pytest.mark.parametrize("name", ["NonUnimodular", "InvalidDilation", "DomainError"])
def test_config_errors_are_not_arithmetic_errors(name):
    cls = getattr(slspec, name)
    assert issubclass(cls, ValueError) and not issubclass(cls, ArithmeticError)


def test_unreadable_config_exits_2(tmp_path, capsys):
    path = tmp_path / "missing.json"
    assert run("--config", str(path), "eigs") == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read config {path}: ")


def test_unsupported_schema_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {"schema": 2, "problem": box_problem_doc()})
    assert run("--config", path, "eigs") == 2
    assert capsys.readouterr().err == "error: unsupported schema 2, expected 1\n"


@pytest.mark.parametrize("key", ["eigs", "e_lo"])
def test_repeated_config_key_exits_2(key, tmp_path, capsys):
    # json.loads would keep the last value, here a search from 3.0
    first = '"e_lo": 0.5, "e_hi": 5.0, "grid": 20'
    second = first + (', "e_lo": 3.0' if key == "e_lo" else "")
    path = tmp_path / "config.json"
    path.write_text(f'{{"schema": 1, "problem": {json.dumps(box_problem_doc())}, '
                    f'"eigs": {{{first}}}, "eigs": {{{second}}}}}')
    assert run("--quiet", "--config", str(path), "eigs") == 2
    assert capsys.readouterr() == ("", f"error: config {path} is not valid JSON: "
                                       f"key '{key}' repeats\n")


def test_config_required(capsys):
    assert run("eigs") == 2
    assert "config" in capsys.readouterr().err


# ------------------------------------------------------------------ fuzzing

FUZZ_VALUES = (None, True, [], "x", math.nan, -1, 0)


def fuzz_base_config(command):
    """A small valid config with every block; degenerate starts without interactions."""
    sites = [] if command == "degenerate" else [{"x": 1.0, "alpha": 0.0, "r": 1.0,
                                                 "theta": 0.0}]
    return {
        "schema": 1,
        "problem": {"a": 0.0, "b": 2 * PI,
                    "potential": {"kind": "piecewise", "breakpoints": [0.0, PI, 2 * PI],
                                  "values": [0.0, 0.0]},
                    "interactions": sites, "bc_left": 0.0, "bc_right": 0.0},
        "step": {"tol": 1e-9, "max_refine": 8, "max_steps": 500_000},
        "transfer": {"energy": 1.0, "x": PI, "y": 0.0, "trace_resolution": 0.5},
        "eigs": {"e_lo": 0.5, "e_hi": 5.0, "grid": 40, "tol": 1e-10, "classify": False},
        "dichotomy": {"energy": 1.0, "site": 0, "tol": 1e-6},
        "montecarlo": {"energy": 1.0,
                       "ensemble": {"target": "lambda",
                                    "sites": [{"kind": "uniform", "lo": -1.0, "hi": 1.0}],
                                    "seed": 3},
                       "samples": 16, "epsilon": 1e-6, "bins": 10},
        "degenerate": {"energy": 1.0, "thetas": [0.0], "rs": [1.0],
                       "allow_non_eigenvalue": False},
        "output": {"path": "out.json", "format": "json"},
    }


def _paths(node, prefix=()):
    """The path of every value inside node: dict keys and list indices."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def mutated_configs(draw):
    """(command, config): a base config with one key dropped or added, or one value
    replaced, in a block that the command reads."""
    command = draw(st.sampled_from(("transfer", "eigs", "dichotomy", "montecarlo",
                                    "degenerate")))
    cfg = fuzz_base_config(command)
    paths = [p for p in _paths(cfg) if p[0] in ("schema", "problem", "step", "output", command)]
    mutation = draw(st.sampled_from(("drop", "add", "replace")))
    if mutation == "add":
        objects = [()] + [p for p in paths if isinstance(_at(cfg, p), dict)]
        _at(cfg, draw(st.sampled_from(objects)))["bogus"] = 1
    elif mutation == "drop":
        path = draw(st.sampled_from([p for p in paths if isinstance(p[-1], str)]))
        del _at(cfg, path[:-1])[path[-1]]
    else:
        path = draw(st.sampled_from(paths))
        _at(cfg, path[:-1])[path[-1]] = draw(st.sampled_from(FUZZ_VALUES))
    return command, cfg


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_configs())
def test_mutated_configs_exit_cleanly(case, tmp_path, monkeypatch):
    # a malformed config is a config error (2) or, where it is well formed but
    # its problem fails, a numerical one (3); it never escapes main
    monkeypatch.chdir(tmp_path)
    command, cfg = case
    path = write_config(tmp_path, cfg)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run("--quiet", "--config", path, command) in (0, 2, 3)
