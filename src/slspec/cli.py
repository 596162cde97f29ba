"""Command-line front end: experiment configs in, JSON/CSV results out.

Subcommands: decompose, transfer, eigs, dichotomy, montecarlo, degenerate.
Configs are strict JSON documents with a top-level "schema": 1; unknown keys
are rejected anywhere.  All tolerances live in the config (never in flags),
so a config fully determines the result; reruns produce byte-identical
output files regardless of the worker count.

Exit codes: 0 success, 2 config or validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .problem import Problem, problem_from_json, problem_to_json, prufer_trace
from .random import (
    InsufficientOscillation,
    NotUnperturbedEigenvalue,
    TargetNotBracketed,
    UnsupportedSupport,
    construct_degenerate,
    ensemble_from_json,
    ensemble_to_json,
    mismatch_samples,
    report_to_json,
    summarize_mismatches,
)
from .sl2 import Mat2, NonUnimodular, iwasawa_compose, iwasawa_decompose
from .spectra import (
    CrossCheckFailure,
    NotAnEigenvalue,
    PARAMETERS,
    classify_dichotomy,
    eigen_test,
    eigenvalues_in_range,
)
from .transfer import (DomainError, IntegrationFailure, StepControl, finite_numbers,
                       transfer_matrix)

TOP_KEYS = {"schema", "problem", "step", "transfer", "eigs", "dichotomy",
            "montecarlo", "degenerate", "output"}

NUMERICAL_ERRORS = (IntegrationFailure, NotAnEigenvalue, CrossCheckFailure,
                    InsufficientOscillation, NotUnperturbedEigenvalue,
                    UnsupportedSupport, TargetNotBracketed, ArithmeticError)


class ConfigError(ValueError):
    pass


# ------------------------------------------------------------- config loading

def _check_keys(obj, required, optional, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(obj) - required - optional
    missing = required - set(obj)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _number(obj, key, where):
    v = obj[key]
    # Python's json reads NaN and Infinity; NaN fails the comparison too
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{where}.{key} must be a finite number")
    return float(v)


def _integer(obj, key, where, minimum):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int) or v < minimum:
        raise ConfigError(f"{where}.{key} must be an integer >= {minimum}")
    return v


def _boolean(obj, key, where):
    v = obj.get(key, False)
    if not isinstance(v, bool):
        raise ConfigError(f"{where}.{key} must be true or false")
    return v


def load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    _check_keys(cfg, {"schema"}, TOP_KEYS - {"schema"}, "config")
    if cfg["schema"] != 1:
        raise ConfigError(f"unsupported schema {cfg['schema']!r}, expected 1")
    return cfg


def _get_block(cfg, name):
    if name not in cfg:
        raise ConfigError(f"config is missing the '{name}' block")
    return cfg[name]


def parse_problem_block(cfg) -> Problem:
    block = _get_block(cfg, "problem")
    try:
        return problem_from_json(block)
    except ValueError as exc:
        raise ConfigError(f"problem: {exc}") from exc


def parse_step_block(cfg) -> StepControl:
    if "step" not in cfg:
        return StepControl()
    block = cfg["step"]
    _check_keys(block, set(), {"tol", "max_refine", "max_steps"}, "step")
    kwargs = {}
    if "tol" in block:
        kwargs["tol"] = _number(block, "tol", "step")
    if "max_refine" in block:
        kwargs["max_refine"] = _integer(block, "max_refine", "step", 0)
    if "max_steps" in block:
        kwargs["max_steps"] = _integer(block, "max_steps", "step", 1)
    try:
        return StepControl(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"step: {exc}") from exc


def resolve_output(args, cfg):
    """Output path and format from the config, overridable by flags."""
    path = None
    fmt = "json"
    if "output" in cfg:
        block = cfg["output"]
        _check_keys(block, {"path"}, {"format"}, "output")
        path = block["path"]
        fmt = block.get("format", "json")
    if args.output is not None:
        path = args.output
    if args.format is not None:
        fmt = args.format
    if fmt not in ("json", "csv"):
        raise ConfigError(f"unknown output format {fmt!r}")
    return path, fmt


# ------------------------------------------------------------------- emitters

def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(c) if isinstance(c, float) else str(c)
                              for c in row))
    return "\n".join(lines) + "\n"


def _emit(args, path, text):
    if path is None:
        sys.stdout.write(text)
        return
    Path(path).write_text(text)
    if not args.quiet:
        print(f"wrote {path}")


# ------------------------------------------------------------------- commands

def cmd_decompose(args):
    m = Mat2.sl2(*args.entry)
    p = iwasawa_decompose(m)
    back = iwasawa_compose(p)
    residual = max(abs(s - t) for s, t in zip(back.entries(), m.entries()))
    theta_shown = math.degrees(p.theta) if args.degrees else p.theta
    unit = "deg" if args.degrees else "rad"
    if not args.quiet:
        print(f"alpha={p.alpha!r} r={p.r!r} theta={theta_shown!r} {unit} "
              f"residual={residual!r}")
    if args.output is not None:
        doc = {"schema": 1, "command": "decompose", "alpha": p.alpha, "r": p.r,
               "theta": p.theta, "residual": residual}
        Path(args.output).write_text(_json_text(doc))
    return 0


def cmd_transfer(args):
    cfg = load_config(args.config)
    prob = parse_problem_block(cfg)
    step = parse_step_block(cfg)
    block = _get_block(cfg, "transfer")
    _check_keys(block, {"energy"}, {"x", "y", "trace_resolution"}, "transfer")
    e = _number(block, "energy", "transfer")
    x = _number(block, "x", "transfer") if "x" in block else prob.b
    y = _number(block, "y", "transfer") if "y" in block else prob.a
    try:
        m = transfer_matrix(prob.potential, x, y, e, step)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    doc = {"schema": 1, "command": "transfer", "energy": e, "x": x, "y": y,
           "matrix": list(m.entries()), "det": m.det}
    trace = None
    if "trace_resolution" in block:
        res = _number(block, "trace_resolution", "transfer")
        trace = prufer_trace(prob, e, prob.initial_state(), res, step)
        doc["prufer"] = [[t, phi] for t, phi in trace]
    path, fmt = resolve_output(args, cfg)
    if fmt == "csv":
        if trace is not None:
            text = _csv_text(("x", "phi"), trace)
        else:
            text = _csv_text(("a", "b", "c", "d"), [m.entries()])
    else:
        text = _json_text(doc)
    _emit(args, path, text)
    return 0


def cmd_eigs(args):
    cfg = load_config(args.config)
    prob = parse_problem_block(cfg)
    step = parse_step_block(cfg)
    block = _get_block(cfg, "eigs")
    _check_keys(block, {"e_lo", "e_hi", "grid"}, {"tol", "classify"}, "eigs")
    e_lo = _number(block, "e_lo", "eigs")
    e_hi = _number(block, "e_hi", "eigs")
    grid = _integer(block, "grid", "eigs", 2)
    tol = _number(block, "tol", "eigs") if "tol" in block else 1e-10
    classify = _boolean(block, "classify", "eigs")
    if not e_lo < e_hi:
        raise ConfigError("eigs needs e_lo < e_hi")
    reports = eigenvalues_in_range(prob, e_lo, e_hi, grid, tol, step)
    results = []
    for rep in reports:
        entry = {"E": rep.E, "mismatch": rep.mismatch}
        if classify:
            entry["verdicts"] = [
                {"site": i, "parameter": par,
                 "verdict": classify_dichotomy(prob, rep.E, i, par, step=step).verdict}
                for i in range(len(prob.interactions))
                for par in PARAMETERS
            ]
        results.append(entry)
    path, fmt = resolve_output(args, cfg)
    if fmt == "csv":
        if classify:
            rows = [(r["E"], v["site"], v["parameter"], v["verdict"])
                    for r in results for v in r["verdicts"]]
            text = _csv_text(("E", "site", "parameter", "verdict"), rows)
        else:
            text = _csv_text(("E", "mismatch"),
                             [(r["E"], r["mismatch"]) for r in results])
    else:
        text = _json_text({"schema": 1, "command": "eigs", "results": results})
    _emit(args, path, text)
    return 0


def cmd_dichotomy(args):
    cfg = load_config(args.config)
    prob = parse_problem_block(cfg)
    step = parse_step_block(cfg)
    block = _get_block(cfg, "dichotomy")
    _check_keys(block, {"energy", "site"}, {"tol"}, "dichotomy")
    e = _number(block, "energy", "dichotomy")
    site = _integer(block, "site", "dichotomy", 0)
    if site >= len(prob.interactions):
        raise ConfigError(f"dichotomy.site must be an index into the "
                          f"{len(prob.interactions)} interaction(s)")
    tol = _number(block, "tol", "dichotomy") if "tol" in block else 1e-6
    verdicts = []
    for par in PARAMETERS:
        v = classify_dichotomy(prob, e, site, par, tol, step)
        verdicts.append({
            "parameter": par,
            "verdict": v.verdict,
            "matched_fixed_class": (None if v.matched_fixed_class is None
                                    else v.matched_fixed_class.angle),
        })
    mismatch = eigen_test(prob, e, step).mismatch
    path, fmt = resolve_output(args, cfg)
    if fmt == "csv":
        rows = [(e, site, v["parameter"], v["verdict"]) for v in verdicts]
        text = _csv_text(("E", "site", "parameter", "verdict"), rows)
    else:
        text = _json_text({"schema": 1, "command": "dichotomy", "E": e,
                           "site": site, "mismatch": mismatch,
                           "verdicts": verdicts})
    _emit(args, path, text)
    return 0


def _histogram(mismatches, bins):
    """Log-spaced mismatch histogram rows (bin_lo, bin_hi, count).

    The first bin collects everything at or below 1e-12, making the
    probability-zero gap visible as an empty midrange.
    """
    edges = np.concatenate([[0.0], np.logspace(-12, math.log10(math.pi / 2), bins)])
    counts, _ = np.histogram(np.asarray(mismatches, dtype=float), bins=edges)
    return [(float(edges[i]), float(edges[i + 1]), int(counts[i]))
            for i in range(len(counts))]


def cmd_montecarlo(args):
    cfg = load_config(args.config)
    prob = parse_problem_block(cfg)
    step = parse_step_block(cfg)
    block = _get_block(cfg, "montecarlo")
    _check_keys(block, {"energy", "ensemble", "samples", "epsilon"},
                {"bins"}, "montecarlo")
    e = _number(block, "energy", "montecarlo")
    try:
        ensemble = ensemble_from_json(block["ensemble"])
    except ValueError as exc:
        raise ConfigError(f"montecarlo.ensemble: {exc}") from exc
    if args.seed is not None:
        try:
            ensemble = replace(ensemble, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from exc
    if args.workers < 1:
        raise ConfigError("--workers must be at least 1")
    samples = _integer(block, "samples", "montecarlo", 1)
    epsilon = _number(block, "epsilon", "montecarlo")
    if epsilon <= 0:
        raise ConfigError("montecarlo.epsilon must be positive")
    bins = _integer(block, "bins", "montecarlo", 1) if "bins" in block else 50
    if len(ensemble.sites) != len(prob.interactions):
        raise ConfigError(f"ensemble has {len(ensemble.sites)} sites but the "
                          f"problem has {len(prob.interactions)} interactions")
    mismatches, failures = mismatch_samples(prob, e, ensemble, samples, step,
                                            workers=args.workers)
    report = summarize_mismatches(mismatches, failures, epsilon, ensemble.seed)
    doc = {"schema": 1, "command": "montecarlo", "energy": e,
           "ensemble": ensemble_to_json(ensemble),
           "report": report_to_json(report)}
    hist_text = _csv_text(("bin_lo", "bin_hi", "count"),
                          _histogram(mismatches, bins))
    path, fmt = resolve_output(args, cfg)
    if path is None:
        _emit(args, None, _json_text(doc))
        return 0
    p = Path(path)
    if fmt == "csv":
        _emit(args, path, hist_text)
        _emit(args, str(p.with_name(p.stem + "_report.json")), _json_text(doc))
    else:
        _emit(args, path, _json_text(doc))
        _emit(args, str(p.with_name(p.stem + "_hist.csv")), hist_text)
    return 0


def cmd_degenerate(args):
    cfg = load_config(args.config)
    prob = parse_problem_block(cfg)
    step = parse_step_block(cfg)
    if prob.interactions:
        raise ConfigError("degenerate construction starts from a problem "
                          "without interactions")
    block = _get_block(cfg, "degenerate")
    _check_keys(block, {"energy", "thetas", "rs"}, {"allow_non_eigenvalue"},
                "degenerate")
    e = _number(block, "energy", "degenerate")
    thetas = block["thetas"]
    rs = block["rs"]
    if (not isinstance(thetas, list) or not isinstance(rs, list)
            or not thetas or len(thetas) != len(rs)):
        raise ConfigError("degenerate.thetas and .rs must be nonempty lists "
                          "of equal length")
    allow = _boolean(block, "allow_non_eigenvalue", "degenerate")
    try:
        thetas = finite_numbers(thetas, "degenerate.thetas")
        rs = finite_numbers(rs, "degenerate.rs")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    built = construct_degenerate(prob.potential, e, thetas, rs,
                                 prob.a, prob.b, prob.bc_left, prob.bc_right,
                                 step, allow_non_eigenvalue=allow)
    residual = eigen_test(built, e, step).mismatch
    out = {"schema": 1,
           "problem": problem_to_json(built),
           "eigs": {"e_lo": e - 0.5, "e_hi": e + 0.5, "grid": 201, "tol": 1e-10}}
    path, fmt = resolve_output(args, cfg)
    if fmt == "csv":
        raise ConfigError("degenerate emits a problem config; use json format")
    if not args.quiet:
        print(f"sites at {[s.x for s in built.interactions]}, "
              f"residual mismatch {residual:.3e}")
    _emit(args, path, _json_text(out))
    return 0


# ----------------------------------------------------------------- entrypoint

@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="slspec",
        description="Spectra of Sturm-Liouville operators with SL(2,R) "
                    "point interactions")
    parser.add_argument("--config", help="experiment JSON document")
    parser.add_argument("--output", help="output file path (default: config's "
                                         "output block, else stdout)")
    parser.add_argument("--format", choices=("json", "csv"),
                        help="output format (default: config's output block, "
                             "else json)")
    parser.add_argument("--seed", type=int, help="override the ensemble seed")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for Monte Carlo sampling; "
                             "does not affect results")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress chatter")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="Iwasawa-decompose an SL(2,R) matrix")
    p.add_argument("entry", type=float, nargs=4,
                   help="row-major matrix entries a b c d")
    p.add_argument("--degrees", action="store_true",
                   help="print theta in degrees")
    p.set_defaults(func=cmd_decompose)

    for name, func, needs_config in (
            ("transfer", cmd_transfer, True),
            ("eigs", cmd_eigs, True),
            ("dichotomy", cmd_dichotomy, True),
            ("montecarlo", cmd_montecarlo, True),
            ("degenerate", cmd_degenerate, True)):
        p = sub.add_parser(name)
        p.set_defaults(func=func, needs_config=needs_config)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "needs_config", False) and args.config is None:
        print("error: this command requires --config", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ConfigError, NonUnimodular, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
