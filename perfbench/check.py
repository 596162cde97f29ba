"""Compare a run's CLI output files with the references of its plan.

Each checked item is one operation; `check` returns them all as
(kind, job id, ok, detail) tuples.  The kinds are:

  job         every CLI call of the job exits with 0
  eigenvalue  a reference eigenvalue in the window is reported (missed: fail)
  reported    a reported eigenvalue has a reference partner (spurious: fail)
  verdict     one dichotomy verdict equals the reference verdict
  sample      one Monte Carlo sample: failures, and hits off the reference
              count, fail one sample each
  site        a degenerate site lies at the reference class point
  transfer    the transfer matrix and the end of the Pruefer trace agree
  blindness   all Monte Carlo mismatches equal the unperturbed mismatch
              within 1e-12, as shear-blindness requires

A step that fails, or is skipped because a step it builds on failed, fails
all its operations.  Output that is missing or malformed although its step
exited with 0 cannot be checked; `check` raises Unreadable for it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from reference import proj_distance

BLIND_TOL = 1e-12
MISMATCH_TOL = 1e-8
TRANSFER_TOL = 1e-8


class Unreadable(ValueError):
    """An output file of a successful step is missing or malformed."""


def _load(out_root, rel):
    try:
        return json.loads((Path(out_root) / rel).read_text())
    except (OSError, ValueError) as exc:
        raise Unreadable(f"{rel}: {exc}") from exc


def match_eigenvalues(roots, reported, tol_of):
    """Pair reference roots with reported energies, nearest first.

    Returns (partner of each root or None, set of matched reported indices).
    """
    pairs = sorted((abs(r - e), i, k) for i, r in enumerate(roots)
                   for k, e in enumerate(reported) if abs(r - e) <= tol_of(r))
    partner, used = [None] * len(roots), set()
    for _, i, k in pairs:
        if partner[i] is None and k not in used:
            partner[i] = k
            used.add(k)
    return partner, used


def _eigs_ops(jid, exp, doc):
    """Ops of one eigs output; doc is None when the step did not run."""
    ops = []
    roots = exp["roots"]
    results = doc["results"] if doc is not None else []
    reported = [r["E"] for r in results]
    if "rel_tol" in exp:
        def tol_of(e):
            return exp["rel_tol"] * max(1.0, abs(e))
    else:
        def tol_of(e):
            return exp["abs_tol"]
    partner, used = match_eigenvalues(roots, reported, tol_of)
    for i, r in enumerate(roots):
        ops.append(("eigenvalue", jid, partner[i] is not None, f"E={r!r}"))
    for k, e in enumerate(reported):
        ops.append(("reported", jid, k in used,
                    f"E={e!r} mismatch={results[k]['mismatch']!r}"))
    for i, per_site in enumerate(exp.get("verdicts", [])):
        got = {}
        if partner[i] is not None:
            got = {(v["site"], v["parameter"]): v["verdict"]
                   for v in results[partner[i]].get("verdicts", [])}
        for site, verdicts in enumerate(per_site):
            for par, want in verdicts.items():
                have = got.get((site, par))
                ops.append(("verdict", jid, have == want,
                            f"E={roots[i]!r} site={site} {par}: {have} vs {want}"))
    return ops


def _mc_ops(jid, exp, doc):
    n = exp["samples"]
    if doc is None:
        return [("sample", jid, False, "not run")] * n + (
            [("blindness", jid, False, "not run")] if "mismatch" in exp else [])
    rep = doc["report"]
    if rep["samples"] != n or rep["seed"] != exp["seed"]:
        raise Unreadable(f"{jid}: report is for {rep['samples']} samples, seed {rep['seed']}")
    bad = min(n, rep["failures"] + abs(rep["hits"] - exp["hits"]))
    detail = f"hits={rep['hits']} (want {exp['hits']}) failures={rep['failures']}"
    ops = [("sample", jid, False, detail)] * bad + [("sample", jid, True, "")] * (n - bad)
    if "mismatch" in exp:
        q = dict((float(k), v) for k, v in rep["mismatch_quantiles"])
        spread = q[1.0] - q[0.0]
        off = abs(q[0.5] - exp["mismatch"])
        ops.append(("blindness", jid, spread <= BLIND_TOL and off <= MISMATCH_TOL,
                    f"spread={spread:.3e} median-ref={off:.3e}"))
    return ops


def _transfer_ok(exp, doc):
    m = doc["matrix"]
    scale = max(1.0, max(abs(t) for t in exp["matrix"]))
    err = max(abs(a - b) for a, b in zip(m, exp["matrix"])) / scale
    end = proj_distance(doc["prufer"][-1][1] % math.pi, exp["end_class"])
    return err <= TRANSFER_TOL and end <= TRANSFER_TOL, f"matrix={err:.3e} end={end:.3e}"


def _degenerate_ops(jid, exp, doc):
    sites = doc["problem"]["interactions"] if doc is not None else []
    ops = []
    for i, x in enumerate(exp["sites"]):
        if i >= len(sites):
            ops.append(("site", jid, False, f"site {i} missing"))
            continue
        s = sites[i]
        ok = (abs(s["x"] - x) <= exp["abs_tol"] and s["alpha"] == 0.0
              and s["r"] == exp["rs"][i]
              and proj_distance(s["theta"] / 2, exp["thetas"][i] / 2) <= 1e-12)
        ops.append(("site", jid, ok, f"x={s['x']!r} ref={x!r}"))
    if len(sites) > len(exp["sites"]):
        ops.append(("site", jid, False, f"{len(sites)} sites, want {len(exp['sites'])}"))
    return ops


def check(jobs, exit_codes, out_root):
    ops = []
    for job, codes in zip(jobs, exit_codes):
        jid = job["id"]
        ops.append(("job", jid, all(c == 0 for c in codes), f"exit codes {codes}"))
        for step, code in zip(job["steps"], codes):
            # a step's own expectations take the place of the job's
            exp = dict(job["expect"], **step.get("expect", {}))
            cmd = step["cmd"]
            doc = _load(out_root, step["out"]) if code == 0 else None
            if cmd == "degenerate":
                ops += _degenerate_ops(jid, exp["degenerate"], doc)
            elif cmd == "eigs":
                ops += _eigs_ops(jid, exp["eigs"], doc)
            elif cmd == "dichotomy":
                got = {v["parameter"]: v["verdict"] for v in doc["verdicts"]} if doc else {}
                for par, want in exp["dichotomy"].items():
                    ops.append(("verdict", jid, got.get(par) == want,
                                f"dichotomy {par}: {got.get(par)} vs {want}"))
            elif cmd == "transfer":
                ok, detail = _transfer_ok(exp["transfer"], doc) if doc else (False, "not run")
                ops.append(("transfer", jid, ok, detail))
            elif cmd == "montecarlo":
                ops += _mc_ops(jid, exp["mc"], doc)
    return ops
