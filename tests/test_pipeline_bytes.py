"""The degenerate -> eigs -> dichotomy -> transfer -> montecarlo pipeline keeps its bytes.

One small piecewise-constant problem runs through cli.main, each step's
config built from the output before it, as a study does.  Every output
file's sha256 is pinned: a change to the propagation, the classification or
the Monte Carlo summary that moves any bit of any output fails here.  A
classified eigs scan of a two-jump grid problem is pinned the same way, so
the RK4 route, the scan's refinements and its skipped wrap-around cell are
covered too, and so is a Monte Carlo run in which a third of the samples
overflow and count as failures.  The pins were recorded with Python 3.11 and numpy 2 on
x86-64 Linux; another libm may round a transcendental differently and move
them.
"""

import hashlib
import json
import math

from slspec.cli import main

PROBLEM = {
    "a": 0.0, "b": 3.5, "bc_left": 0.3, "bc_right": 1.891949231236558,
    "interactions": [],
    "potential": {"kind": "piecewise", "breakpoints": [0.0, 1.0, 2.0, 3.5],
                  "values": [0.0, 60.0, -5.0]},
}
# E = 40 is an eigenvalue of PROBLEM; sites at theta 0 or pi keep it one
DEGENERATE = {"energy": 40.0, "thetas": [0.0, 3.141592653589793, 0.0], "rs": [1.3, 0.8, 1.1]}
MONTECARLO = {"samples": 96, "epsilon": 0.02, "bins": 12,
              "ensemble": {"target": "theta", "seed": 2024,
                           "sites": [{"kind": "uniform", "lo": -0.5, "hi": 0.5},
                                     {"kind": "gaussian", "mean": 3.1, "sd": 0.2},
                                     {"kind": "pointmass", "value": 0.0}]}}

PINNED = {
    "built.json": "6906270e91fdb1a9278ac7bc8e0bbcfa55d44120c694433828bfa87d5d2e0563",
    "dichotomy.csv": "398867788cf7e582a5b00bdf4af2b616d8aaacca7bdd00a6665a98b509171376",
    "dichotomy.json": "7801853cd2a52260ea1f10f4b6c317b6d3585a02658eed106572e97372fdfd6b",
    "eigs.csv": "859cad8468fd6482d92b68377eaee851fefe7062c6e930b0a977bb8b5b7724b2",
    "eigs.json": "ceb92e5e47cec89b70c00814ba13ec477d41eb5086dd978d7883e384d43a4727",
    "mc.json": "bb5a3a98fcfd1786c7e3575c3f9cbdbefc5cbb4f398cdb564c51ddaf20b864ed",
    "mc_hist.csv": "2861cfeed487a49de84663f1a4bd5c1c1dca863c912b8ba8d2abf8499c55fdd6",
    "transfer.csv": "98a427a7218e83be03496af0f3508cd40447214639a3953d9a6179885df6ac2c",
    "transfer.json": "cebe6a50e6ecc0d4640e473ab8e15183bfe3e5b3f5568c728c7cd12bb1ad46fc",
}

# a two-jump grid problem (tests/test_golden.py's SCAN_PROBLEM) and a scan
# window holding three eigenvalues, near 51.3, 99.6 and 125.2, with a sign
# change across the cut between the last two, where the mismatch falls from
# 0.16 to -0.16; the cell of 51.3 is one where it falls without changing sign
_NODES = [0.05 * i for i in range(21)]
GRID_PROBLEM = {
    "a": 0.0, "b": 1.0, "bc_left": 0.0, "bc_right": 0.3,
    "interactions": [{"x": 0.35, "alpha": 0.8, "r": 1.3, "theta": 0.4},
                     {"x": 0.725, "alpha": -0.5, "r": 0.9, "theta": 2.2}],
    "potential": {"kind": "grid", "x": _NODES,
                  "values": [3.0 * math.cos(2.5 * x) + x * x for x in _NODES]},
}
GRID_EIGS = {"e_lo": 0.0, "e_hi": 140.0, "grid": 12, "classify": True}

GRID_PINNED = {
    "grid_eigs.csv": "4e2d1a450aca67dd6e9f9a917095c5feda9862ad83620b9a6c9eb5bc3f033031",
    "grid_eigs.json": "db0cd2fb30845583718b15ec5997954ada668cb39dd5cf94dfc80d7c2aeabf7c",
}


def run(tmp_path, cfg, command, out, *flags):
    path = tmp_path / f"{command}_cfg.json"
    path.write_text(json.dumps(dict(cfg, schema=1)))
    argv = ["--quiet", "--config", str(path), "--output", str(tmp_path / out), *flags, command]
    assert main(argv) == 0


def test_pipeline_outputs_keep_their_bytes(tmp_path):
    run(tmp_path, {"problem": PROBLEM, "degenerate": DEGENERATE}, "degenerate", "built.json")
    built = json.loads((tmp_path / "built.json").read_text())
    built["eigs"]["classify"] = True
    run(tmp_path, built, "eigs", "eigs.json")
    run(tmp_path, built, "eigs", "eigs.csv", "--format", "csv")
    results = json.loads((tmp_path / "eigs.json").read_text())["results"]
    assert len(results) == 1 and len(results[0]["verdicts"]) == 9
    problem = built["problem"]
    dichotomy = {"problem": problem, "dichotomy": {"energy": results[0]["E"], "site": 1}}
    run(tmp_path, dichotomy, "dichotomy", "dichotomy.json")
    run(tmp_path, dichotomy, "dichotomy", "dichotomy.csv", "--format", "csv")
    # the trace crosses the three built sites, so its jumps are in the pinned bytes
    transfer = {"energy": results[0]["E"], "trace_resolution": 0.05}
    run(tmp_path, {"problem": problem, "transfer": transfer}, "transfer", "transfer.json")
    run(tmp_path, {"problem": problem, "transfer": transfer}, "transfer", "transfer.csv",
        "--format", "csv")
    run(tmp_path, {"problem": problem, "montecarlo": dict(MONTECARLO, energy=results[0]["E"])},
        "montecarlo", "mc.json")
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir()) if not p.name.endswith("_cfg.json")}
    assert got == PINNED


def test_grid_scan_keeps_its_bytes(tmp_path):
    cfg = {"problem": GRID_PROBLEM, "eigs": GRID_EIGS}
    run(tmp_path, cfg, "eigs", "grid_eigs.json")
    run(tmp_path, cfg, "eigs", "grid_eigs.csv", "--format", "csv")
    results = json.loads((tmp_path / "grid_eigs.json").read_text())["results"]
    assert [round(r["E"], 4) for r in results] == [51.3361, 99.5828, 125.2012]
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir()) if not p.name.endswith("_cfg.json")}
    assert got == GRID_PINNED


# shears of sd 3e304 before a forbidden barrier: 204 of the 600 samples, in
# both chunks of 512 and 88, overflow and count as failures
FAILING_PROBLEM = {
    "a": 0.0, "b": 1.0, "bc_left": 0.4, "bc_right": 1.0,
    "interactions": [{"x": 0.3, "alpha": 0.0, "r": 1.0, "theta": 0.5}],
    "potential": {"kind": "piecewise", "breakpoints": [0.0, 0.5, 1.0], "values": [100.0, 110.0]},
}
FAILING_MONTECARLO = {"energy": 1.0, "samples": 600, "epsilon": 1e-6, "bins": 12,
                      "ensemble": {"target": "lambda", "seed": 7,
                                   "sites": [{"kind": "gaussian", "mean": 0.0, "sd": 3e304}]}}

FAILING_PINNED = {
    "mc_failing.json": "a539d58b181c4545a56f031565cd069c1bc150e3e88ada7524be9cdbb4472a6c",
    "mc_failing_hist.csv": "592f2f72f25d3b5fbbb856f8e5961a32b42a8f0964d023266cee1feb180e7764",
}


def test_montecarlo_with_failing_samples_keeps_its_bytes(tmp_path):
    run(tmp_path, {"problem": FAILING_PROBLEM, "montecarlo": FAILING_MONTECARLO}, "montecarlo",
        "mc_failing.json")
    report = json.loads((tmp_path / "mc_failing.json").read_text())["report"]
    assert (report["samples"], report["failures"]) == (600, 204)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir()) if not p.name.endswith("_cfg.json")}
    assert got == FAILING_PINNED
