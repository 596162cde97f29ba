"""End-to-end CLI checks: exit codes, file outputs, determinism."""

import json
import math

import pytest

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


def test_montecarlo_csv_format_swaps_files(tmp_path):
    cfg = montecarlo_config(tmp_path, out_name="mc.csv", samples=100)
    cfg["output"]["format"] = "csv"
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "montecarlo") == 0
    hist = (tmp_path / "mc.csv").read_text().splitlines()
    assert hist[0] == "bin_lo,bin_hi,count"
    doc = json.loads((tmp_path / "mc_report.json").read_text())
    assert doc["report"]["samples"] == 100


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


def test_degenerate_insufficient_oscillation_exits_3(tmp_path, capsys):
    cfg = degenerate_config(tmp_path)
    cfg["problem"]["b"] = PI
    cfg["degenerate"]["energy"] = 0.01
    cfg["degenerate"]["allow_non_eigenvalue"] = True
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "degenerate") == 3
    assert "zeros" in capsys.readouterr().err


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
    assert capsys.readouterr().err == ("numerical failure: non-finite transfer matrix: "
                                       "determinant nan\n")
    assert not (tmp_path / "t.json").exists()


def test_transfer_outside_domain_exits_2(tmp_path, capsys):
    cfg = {"schema": 1, "problem": overflow_problem_doc(),
           "transfer": {"energy": 1.0, "x": 31.0},
           "output": {"path": str(tmp_path / "t.json")}}
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "transfer") == 2
    assert capsys.readouterr().err == ("error: x = 31.0 outside potential domain "
                                       "[0.0, 30.0]\n")
    assert not (tmp_path / "t.json").exists()


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
# JSON null or a NaN in the problem, its potential or the degenerate sites
BAD_CONFIGS = {
    "dichotomy-site-bool": ("dichotomy", {
        "problem": box_problem_doc(IDENTITY_SITES),
        "dichotomy": {"energy": 4.0, "site": True}}),
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
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_mistyped_config_fields_exit_2(name, tmp_path, capsys):
    command, blocks = BAD_CONFIGS[name]
    path = write_config(tmp_path, {"schema": 1, **blocks})
    assert run("--quiet", "--config", path, command) == 2
    assert "error" in capsys.readouterr().err


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
    # the overflow problem gives a NaN mismatch at every grid energy; that is
    # a failure, not an empty spectrum
    cfg = {"schema": 1, "problem": overflow_problem_doc(),
           "eigs": {"e_lo": -5.0, "e_hi": 34.0, "grid": 20},
           "output": {"path": str(tmp_path / "eigs.json")}}
    assert run("--quiet", "--config", write_config(tmp_path, cfg), "eigs") == 3
    assert capsys.readouterr().err == ("numerical failure: boundary mismatch is nan "
                                       "at E = -5.0\n")
    assert not (tmp_path / "eigs.json").exists()


def test_parser_is_built_once(tmp_path):
    from slspec.cli import build_parser
    assert build_parser() is build_parser()
    # reparsing through the one parser gives every call its own namespace
    path = write_config(tmp_path, montecarlo_config(tmp_path, samples=3))
    assert run("--quiet", "--config", path, "--seed", "9", "montecarlo") == 0
    assert json.loads((tmp_path / "mc.json").read_text())["report"]["seed"] == 9
    assert run("--quiet", "--config", path, "montecarlo") == 0
    assert json.loads((tmp_path / "mc.json").read_text())["report"]["seed"] == 77


def test_config_required(capsys):
    assert run("eigs") == 2
    assert "config" in capsys.readouterr().err
