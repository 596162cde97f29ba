"""The slspec benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run generates the workload's configs
and reference answers from the seed (workloads.py, reference.py), runs the
job list in one runner process by calling slspec.cli.main in-process, with
set-up probes in fresh interpreters between rounds (runner.py), checks every
output file against the references (check.py) and prints one line per
metric, then one JSON object as the last line of standard output.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half the time
untraced (for the tracing overhead and the micro-timings) and half traced,
and reports the per-layer metrics.  Scratch files go to .bench_work/ and a
result record with provenance to .bench_results/, both in the checkout.
NOTES.md explains the workloads and the metrics.
"""

from __future__ import annotations

import os

# set before numpy loads anywhere, and inherited by every child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 15
RUNNER_GRACE_S = 120

def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _tree_sha256(root):
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _git_commit(root):
    if not (root / ".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                         text=True, timeout=30)
    return res.stdout.strip() or None


def _env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_runner(root, work, seconds, tag, spans=False, micro=False, setup_config=None):
    report = work / f"{tag}_report.json"
    cmd = [sys.executable, str(HERE / "runner.py"), "--plan", "plan.json",
           "--out-root", tag, "--seconds", repr(seconds), "--report", report.name]
    if setup_config:
        cmd += ["--setup-probes", str(SETUP_PROBES), "--setup-config", setup_config]
    if spans:
        cmd += ["--spans", f"{tag}_spans.npz"]
    if micro:
        cmd.append("--micro")
    with open(work / f"{tag}.log", "w") as log:
        res = subprocess.run(cmd, cwd=work, env=_env(root), stdout=log, stderr=log,
                             timeout=seconds + RUNNER_GRACE_S)
    if res.returncode != 0:
        raise RuntimeError(f"runner failed, see {work / (tag + '.log')}")
    return json.loads(report.read_text())


def mc_completed(jobs, exit_codes, out_root):
    """The montecarlo steps that exited 0, and the samples they completed.

    A sample the report counts in `failures` is not completed.
    """
    steps, samples = [], 0
    for si, job in enumerate(jobs):
        for k, st in enumerate(job["steps"]):
            if st["cmd"] != "montecarlo" or exit_codes[si][k] != 0:
                continue
            try:
                rep = json.loads((out_root / st["out"]).read_text())["report"]
            except (OSError, ValueError, KeyError):
                continue  # the checker reports the unreadable output
            steps.append((si, k))
            samples += rep["samples"] - rep["failures"]
    return steps, samples


def timing_metrics(report, jobs, out_root):
    rounds = report["rounds"]
    job_s = [t for r in rounds for t in r["job_s"]]
    job_cpu_s = [t for r in rounds for t in r["job_cpu_s"]]
    mc, samples = mc_completed(jobs, report["exit_codes"], out_root)
    mc_s = [sum(r["step_s"][si][k] for si, k in mc) for r in rounds]
    return {
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "job_cpu_s.p50": statistics.median(job_cpu_s),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "job_s.p50": statistics.median(job_s),
        "job_s.p90": statistics.quantiles(job_s, n=10, method="inclusive")[-1],
        "n_jobs": len(job_s),
        "rounds": len(rounds),
        "samples_per_s": samples / statistics.median(mc_s) if samples else 0.0,
        "samples": samples,
        "peak_rss_mb": report["peak_rss_mb"],
    }


def layer_metrics(untraced, traced, timing_u):
    rounds = traced["rounds"]
    first = rounds[0]["trace"]
    counts_repeat = all(r["trace"]["calls"] == first["calls"] for r in rounds)
    out = {}
    for name, n in first["calls"].items():
        out[f"{name}.calls"] = (n, "count")
        if name in first["self_s"]:
            out[f"{name}.self_s"] = (statistics.median(r["trace"]["self_s"][name]
                                                       for r in rounds), "s")
    found = first["eigs_found"]
    evals = first["calls"]["spectra.boundary_mismatch"]
    out["spectra.eigenvalues_in_range.found"] = (found, "count")
    out["spectra.evals_per_eig"] = (evals / found if found else 0.0, "ratio")
    cpu_t = statistics.median(r["cpu_s"] for r in rounds)
    out["trace.overhead_frac"] = (cpu_t / timing_u["cpu_s"] - 1.0, "ratio")
    out["samples_per_s"] = (timing_u["samples_per_s"], "1/s")
    for name in ("wall_s", "job_s.p50", "job_s.p90"):
        out[name] = (timing_u[name], "s")
    for name, v in untraced["micro"].items():
        out[name] = (v, name.rsplit(".", 1)[1])
    return out, counts_repeat


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "slspec" / "cli.py").is_file():
        print("error: run from the root of an slspec checkout (no src/slspec/cli.py)",
              file=sys.stderr)
        return 2

    import numpy as np
    import check
    import workloads

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t0 = time.perf_counter()
    plan = workloads.generate(args.workload, args.seed)
    gen_s = time.perf_counter() - t0
    for rel, text in plan["files"].items():
        (work / rel).parent.mkdir(parents=True, exist_ok=True)
        (work / rel).write_text(text)
    (work / "plan.json").write_text(json.dumps({"jobs": plan["jobs"]}))
    jobs = plan["jobs"]

    if args.trace:
        untraced = run_runner(root, work, args.seconds / 2, "out", micro=True)
        traced = run_runner(root, work, args.seconds / 2, "out_traced", spans=True)
    else:
        untraced = run_runner(root, work, args.seconds, "out",
                              setup_config=sorted(plan["files"])[0])
        traced = None
    if not untraced["slspec_file"].startswith(str(root / "src")):
        raise RuntimeError(f"slspec was imported from {untraced['slspec_file']}")

    problems = []
    if not untraced["deterministic"]:
        problems.append("outputs changed between rounds of the same job list")
    try:
        ops = check.check(jobs, untraced["exit_codes"], work / "out")
    except check.Unreadable as exc:
        problems.append(f"unreadable output: {exc}")
        ops = [("job", job["id"], False, "unchecked") for job in jobs]
    timing = timing_metrics(untraced, jobs, work / "out")
    attempted = len(ops)
    failed = sum(1 for op in ops if not op[2])

    if args.trace:
        if (traced["hashes"], traced["exit_codes"]) != (untraced["hashes"],
                                                        untraced["exit_codes"]):
            problems.append("traced and untraced runs wrote different outputs")
        layers, counts_repeat = layer_metrics(untraced, traced, timing)
        if not counts_repeat:
            problems.append("call counts differ between traced rounds")
        layers["fail_frac"] = (failed / attempted, "ratio")
        metrics = layers
    else:
        setup_s = statistics.median(untraced["setup_s"])
        setup_wall_s = statistics.median(untraced["setup_wall_s"])
        metrics = {"setup_s": (setup_s, "s"), "cpu_s": (timing["cpu_s"], "s"),
                   "job_cpu_s.p50": (timing["job_cpu_s.p50"], "s"),
                   "peak_rss_mb": (timing["peak_rss_mb"], "MB")}

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root), "src_sha256": _tree_sha256(root / "src"),
        "configs": {rel: _sha256(text.encode()) for rel, text in sorted(plan["files"].items())},
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"python {provenance['python']} numpy {provenance['numpy']} "
          f"nproc {provenance['nproc']} commit {provenance['git_commit']} "
          f"src {provenance['src_sha256'][:16]}")
    print(f"generated {len(jobs)} jobs, {len(plan['files'])} configs in {gen_s:.2f} s; "
          f"{timing['rounds']} rounds of the job list")
    if not args.trace:
        print(f"setup_s {setup_s:.6f} s CPU (median of {SETUP_PROBES} fresh interpreters; "
              f"wall {setup_wall_s:.6f} s)")
    print(f"cpu_s {timing['cpu_s']:.6f} s (median of {timing['rounds']} rounds)")
    print(f"job_cpu_s.p50 {timing['job_cpu_s.p50']:.6f} s (n={timing['n_jobs']})")
    print(f"wall_s {timing['wall_s']:.6f} s (median of {timing['rounds']} rounds)")
    print(f"job_s.p50 {timing['job_s.p50']:.6f} s (n={timing['n_jobs']})")
    valid = "" if timing["n_jobs"] >= 100 else ", fewer than 100 jobs: not a valid p90"
    print(f"job_s.p90 {timing['job_s.p90']:.6f} s (n={timing['n_jobs']}{valid})")
    if timing["samples"]:
        print(f"samples_per_s {timing['samples_per_s']:.3f} 1/s "
              f"({timing['samples']} samples completed per round)")
    else:
        print("samples_per_s n/a (no montecarlo jobs)")
    print(f"fail_frac {failed / attempted:.6f} ({failed} failed / {attempted} attempted)")
    print(f"peak_rss_mb {timing['peak_rss_mb']:.3f} MB")
    if args.trace:
        for name, (v, unit) in sorted(metrics.items()):
            print(f"{name} {v!r} {unit}")
    by_kind = {}
    for kind, _, ok, _ in ops:
        a, f = by_kind.get(kind, (0, 0))
        by_kind[kind] = (a + 1, f + (not ok))
    print("operations " + ", ".join(f"{k} {f}/{a} failed" for k, (a, f) in sorted(by_kind.items())))
    seen = set()
    for kind, jid, ok, detail in ops:
        if not ok and (kind, jid, detail) not in seen:
            seen.add((kind, jid, detail))
            print(f"failed {kind} {jid}: {detail}")
    for p in problems:
        print(f"problem: {p}")

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(result, provenance=provenance, problems=problems,
                  failures=[op for op in ops if not op[2]])
    out = root / ".bench_results"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
