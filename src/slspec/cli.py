"""Command-line front end: experiment configs in, JSON/CSV results out.

Subcommands: decompose, transfer, eigs, dichotomy, montecarlo, degenerate.
Configs are strict JSON documents with a top-level "schema": 1; unknown and
repeated keys are rejected anywhere.  All tolerances live in the config
(never in flags), so a config fully determines the result; reruns produce
byte-identical output files regardless of the worker count.

A command's document goes to --output, else output.path, else stdout, in
--format, else output.format, else JSON; decompose prints a line and writes
only to --output.  --quiet drops chatter ("wrote PATH", degenerate's
progress line), never a result.

Exit codes: 0 success; 3 numerical failure, any ArithmeticError (overflow and
every slspec.NumericalFailure); 2 any other ValueError: a malformed flag,
matrix or config, whose fields slspec.fields reads and names.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from dataclasses import replace
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .fields import boolean, check_keys, integer, number, numbers, string
from .problem import (Problem, check_resolution, problem_from_json, problem_to_json,
                      prufer_trace)
from .random import (check_epsilon, construct_degenerate, ensemble_from_json, ensemble_to_json,
                     mismatch_samples, report_to_json, summarize_mismatches)
from .sl2 import Mat2, iwasawa_compose, iwasawa_decompose
from .spectra import PARAMETERS, classify_at, classify_sites, eigen_test, eigenvalues_in_range
from .transfer import DEFAULT_STEP, StepControl, transfer_matrix

TOP_KEYS = {"schema", "problem", "step", "transfer", "eigs", "dichotomy",
            "montecarlo", "degenerate", "output"}


# ------------------------------------------------------------- config loading

@contextlib.contextmanager
def _prefixed(where):
    """Re-raise a ValueError raised inside with where: before its message."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _strict_object(pairs):
    """A JSON object as a dict, refusing a repeated key whose last value json would keep."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"key {next(k for k in keys if keys.count(k) > 1)!r} repeats")
    return obj


def load_config(path):
    if path is None:
        raise ValueError("this command requires --config")
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_strict_object)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    check_keys(cfg, "config", {"schema"}, TOP_KEYS - {"schema"})
    if integer(cfg, "schema", "config", 1) != 1:
        raise ValueError(f"unsupported schema {cfg['schema']!r}, expected 1")
    return cfg


def _inputs(args, name, required, optional):
    """(problem, step control, command block, output path (None: stdout), format).

    --output and --format win over the config's output block.
    """
    cfg = load_config(args.config)
    prob = parse_problem_block(cfg)
    step = parse_step_block(cfg)
    if name not in cfg:
        raise ValueError(f"config is missing the '{name}' block")
    block = check_keys(cfg[name], name, required, optional)
    path, fmt = None, "json"
    if "output" in cfg:
        out = check_keys(cfg["output"], "output", {"path"}, {"format"})
        path = string(out, "path", "output")
        fmt = string(out, "format", "output", ("json", "csv"), "json")
    return (prob, step, block, path if args.output is None else args.output,
            fmt if args.format is None else args.format)


def parse_problem_block(cfg) -> Problem:
    if "problem" not in cfg:
        raise ValueError("config is missing the 'problem' block")
    with _prefixed("problem"):
        return problem_from_json(cfg["problem"])


def parse_step_block(cfg) -> StepControl:
    block = check_keys(cfg.get("step", {}), "step", (), {"tol", "max_refine", "max_steps"})
    tol = number(block, "tol", "step", DEFAULT_STEP.tol)
    max_refine = integer(block, "max_refine", "step", 0, DEFAULT_STEP.max_refine)
    max_steps = integer(block, "max_steps", "step", 1, DEFAULT_STEP.max_steps)
    with _prefixed("step"):
        return StepControl(tol, max_refine, max_steps)


# ------------------------------------------------------------------- emitters

def _json_text(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) + "\n", character for character.

    json writes indented text with its pure-Python encoder.  This writer
    takes the same steps, but formats a list of floats, or of equal-length
    lists of floats, with one % template (_float_block).
    """
    return _json_value(obj, "\n") + "\n"


_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _json_float(t):
    text = float.__repr__(t)
    return _NON_FINITE.get(text, text)


_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: _json_float,
            bool: lambda t: "true" if t else "false", type(None): lambda t: "null"}


def _json_key(key):
    """A dict key as json writes it: a string, or a scalar's JSON text as one."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring_ascii(_json_value(key, ""))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _json_value(obj, nl):
    """obj as json writes it on a line that starts with nl, its newline and indent."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return _float_block(obj, nl) or (
            "[" + inner + ("," + inner).join([_json_value(t, inner) for t in obj]) + nl + "]")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [_json_key(k) + ": " + _json_value(t, inner) for k, t in sorted(obj.items())]
        ) + nl + "}"
    # subclasses, such as np.float64, as json's isinstance checks take them
    for kind in (str, int, float):
        if isinstance(obj, kind):
            return _SCALARS[kind](obj)
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _float_block(obj, nl):
    """A non-empty list of floats, or of equal-length lists of floats, as json writes it.

    The items must be exactly float, whose %r is float.__repr__.  None for
    any other list, and for one holding inf or nan, the only floats whose
    repr has the letter n: json writes those Infinity and NaN.
    """
    kinds = set(map(type, obj))
    if kinds == {float}:
        flat, item = obj, "%r"
    elif kinds <= {list, tuple} and len(set(map(len, obj))) == 1 and obj[0]:
        flat = [t for row in obj for t in row]
        if set(map(type, flat)) != {float}:
            return None
        inner = nl + "    "
        item = "[" + inner + ("," + inner).join(["%r"] * len(obj[0])) + nl + "  ]"
    else:
        return None
    inner = nl + "  "
    text = ("[" + inner + ("," + inner).join([item] * len(obj)) + nl + "]") % tuple(flat)
    return None if "n" in text else text


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(c) if isinstance(c, float) else str(c)
                              for c in row))
    return "\n".join(lines) + "\n"


def _emit(args, path, text):
    """Write text to path, saying so unless --quiet, or to stdout if path is None."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write output {path}: {exc}") from exc
    if not args.quiet:
        print(f"wrote {path}")


def _finish(args, path, fmt, doc, header=(), rows=()):
    """Emit doc as JSON, or header and rows as CSV if fmt is csv, to path; exit code 0."""
    _emit(args, path, _csv_text(header, rows) if fmt == "csv" else _json_text(doc))
    return 0


# ------------------------------------------------------------------- commands

def cmd_decompose(args):
    m = Mat2.sl2(*args.entry)
    p = iwasawa_decompose(m)
    back = iwasawa_compose(p)
    residual = max(abs(s - t) for s, t in zip(back.entries(), m.entries()))
    theta_shown = math.degrees(p.theta) if args.degrees else p.theta
    unit = "deg" if args.degrees else "rad"
    if args.output is None or not args.quiet:  # the result, or chatter beside the file
        print(f"alpha={p.alpha!r} r={p.r!r} theta={theta_shown!r} {unit} "
              f"residual={residual!r}")
    doc = {"schema": 1, "command": "decompose", "alpha": p.alpha, "r": p.r,
           "theta": p.theta, "residual": residual}
    return 0 if args.output is None else _finish(
        args, args.output, args.format, doc, ("alpha", "r", "theta", "residual"),
        [(p.alpha, p.r, p.theta, residual)])


def cmd_transfer(args):
    prob, step, block, path, fmt = _inputs(args, "transfer", {"energy"},
                                           {"x", "y", "trace_resolution"})
    e = number(block, "energy", "transfer")
    x = number(block, "x", "transfer", prob.b)
    y = number(block, "y", "transfer", prob.a)
    res = None
    if "trace_resolution" in block:
        res = check_resolution(prob, e, number(block, "trace_resolution", "transfer"), step,
                               "transfer.trace_resolution")
    m = transfer_matrix(prob.potential, x, y, e, step)
    doc = {"schema": 1, "command": "transfer", "energy": e, "x": x, "y": y,
           "matrix": list(m.entries()), "det": m.det}
    header, rows = ("a", "b", "c", "d"), [m.entries()]
    if res is not None:
        header, rows = ("x", "phi"), prufer_trace(prob, e, res, step)
        doc["prufer"] = [[t, phi] for t, phi in rows]
    return _finish(args, path, fmt, doc, header, rows)


def cmd_eigs(args):
    prob, step, block, path, fmt = _inputs(args, "eigs", {"e_lo", "e_hi", "grid"},
                                           {"tol", "classify"})
    e_lo = number(block, "e_lo", "eigs")
    e_hi = number(block, "e_hi", "eigs")
    grid = integer(block, "grid", "eigs", 2)
    tol = number(block, "tol", "eigs", 1e-10)
    classify = boolean(block, "classify", "eigs")
    reports = eigenvalues_in_range(prob, e_lo, e_hi, grid, tol, step)
    results = []
    for rep in reports:
        entry = {"E": rep.E, "mismatch": rep.mismatch}
        if classify:
            sites = range(len(prob.interactions))
            # with no site there is nothing to classify, nor a mismatch to fail
            verdicts = classify_sites(prob, rep, sites, step=step) if sites else []
            entry["verdicts"] = [{"site": i, "parameter": v.parameter, "verdict": v.verdict}
                                 for i, row in zip(sites, verdicts) for v in row]
        results.append(entry)
    header, rows = ("E", "mismatch"), [(r["E"], r["mismatch"]) for r in results]
    if classify:
        header = ("E", "site", "parameter", "verdict")
        rows = [(r["E"], v["site"], v["parameter"], v["verdict"])
                for r in results for v in r["verdicts"]]
    return _finish(args, path, fmt, {"schema": 1, "command": "eigs", "results": results},
                   header, rows)


def cmd_dichotomy(args):
    prob, step, block, path, fmt = _inputs(args, "dichotomy", {"energy", "site"}, {"tol"})
    e = number(block, "energy", "dichotomy")
    site = integer(block, "site", "dichotomy", 0)
    tol = number(block, "tol", "dichotomy", 1e-6)
    report, (row,) = classify_at(prob, e, [site], PARAMETERS, tol, step)
    verdicts = [{"parameter": v.parameter, "verdict": v.verdict,
                 "matched_fixed_class": (None if v.matched_fixed_class is None
                                         else v.matched_fixed_class.angle)}
                for v in row]
    doc = {"schema": 1, "command": "dichotomy", "E": e, "site": site,
           "mismatch": report.mismatch, "verdicts": verdicts}
    return _finish(args, path, fmt, doc, ("E", "site", "parameter", "verdict"),
                   [(e, site, v["parameter"], v["verdict"]) for v in verdicts])


def _histogram(mismatches, bins):
    """Log-spaced mismatch histogram rows (bin_lo, bin_hi, count).

    A bin counts the mismatches above its bin_lo and at or below its
    bin_hi, so the first collects everything at or below 1e-12, making the
    probability-zero gap visible as an empty midrange.
    """
    edges = np.concatenate([[0.0], np.logspace(-12, math.log10(math.pi / 2), bins)])
    # the bin of m is the number of inner edges below it
    counts = np.bincount(np.searchsorted(edges[1:-1], np.asarray(mismatches, dtype=float)),
                         minlength=bins)
    return [(float(edges[i]), float(edges[i + 1]), int(counts[i]))
            for i in range(len(counts))]


def cmd_montecarlo(args):
    prob, step, block, path, fmt = _inputs(args, "montecarlo",
                                           {"energy", "ensemble", "samples", "epsilon"}, {"bins"})
    e = number(block, "energy", "montecarlo")
    with _prefixed("montecarlo.ensemble"):
        ensemble = ensemble_from_json(block["ensemble"])
    if args.seed is not None:
        with _prefixed("--seed"):
            ensemble = replace(ensemble, seed=args.seed)
    if args.workers < 1:
        raise ValueError("--workers must be at least 1")
    samples = integer(block, "samples", "montecarlo", 1)
    epsilon = check_epsilon(number(block, "epsilon", "montecarlo"), "montecarlo.epsilon")
    # the first bin is the gap at or below 1e-12, so one bin would hold nothing else
    bins = integer(block, "bins", "montecarlo", 2, 50)
    mismatches, failures = mismatch_samples(prob, e, ensemble, samples, step,
                                            workers=args.workers)
    report = summarize_mismatches(mismatches, failures, epsilon, ensemble.seed)
    doc = {"schema": 1, "command": "montecarlo", "energy": e,
           "ensemble": ensemble_to_json(ensemble),
           "report": report_to_json(report)}
    header, rows = ("bin_lo", "bin_hi", "count"), _histogram(mismatches, bins)
    _finish(args, path, fmt, doc, header, rows)
    if path is not None:  # the document of the other format goes beside it
        p = Path(path)
        suffix, text = (("_report.json", _json_text(doc)) if fmt == "csv"
                        else ("_hist.csv", _csv_text(header, rows)))
        _emit(args, str(p.with_name(p.stem + suffix)), text)
    return 0


def cmd_degenerate(args):
    prob, step, block, path, fmt = _inputs(args, "degenerate", {"energy", "thetas", "rs"},
                                           {"allow_non_eigenvalue"})
    if prob.interactions:
        raise ValueError("degenerate construction starts from a problem "
                         "without interactions")
    e = number(block, "energy", "degenerate")
    thetas = numbers(block, "thetas", "degenerate")
    rs = numbers(block, "rs", "degenerate")
    allow = boolean(block, "allow_non_eigenvalue", "degenerate")
    if fmt == "csv":
        raise ValueError("degenerate emits a problem config; use json format")
    built = construct_degenerate(prob.potential, e, thetas, rs,
                                 prob.a, prob.b, prob.bc_left, prob.bc_right,
                                 step, allow_non_eigenvalue=allow)
    residual = eigen_test(built, e, step).mismatch
    out = {"schema": 1,
           "problem": problem_to_json(built),
           "eigs": {"e_lo": e - 0.5, "e_hi": e + 0.5, "grid": 201, "tol": 1e-10}}
    if not args.quiet:
        print(f"sites at {[s.x for s in built.interactions]}, "
              f"residual mismatch {residual:.3e}")
    return _finish(args, path, fmt, out)


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
                        help="drop the 'wrote PATH' lines and degenerate's progress "
                             "line; results still print")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="Iwasawa-decompose an SL(2,R) matrix")
    p.add_argument("entry", type=float, nargs=4,
                   help="row-major matrix entries a b c d")
    p.add_argument("--degrees", action="store_true",
                   help="print theta in degrees")
    p.set_defaults(func=cmd_decompose)

    for name, func in (("transfer", cmd_transfer), ("eigs", cmd_eigs),
                       ("dichotomy", cmd_dichotomy), ("montecarlo", cmd_montecarlo),
                       ("degenerate", cmd_degenerate)):
        sub.add_parser(name).set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ArithmeticError as exc:  # before ValueError: many numerical failures are both
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
