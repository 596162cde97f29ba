"""Run a job list in this one process by calling slspec.cli.main in-process.

    python3 runner.py --plan PLAN --out-root DIR --seconds S --report FILE
                      [--spans FILE] [--micro] [--setup-probes N --setup-config CFG]

Run from the work directory, with the checkout's src/ on PYTHONPATH.  The
job list is repeated, round after round, for about S seconds (at least one
round; a round starts while it fits).  Each round's outputs are hashed; a
round whose outputs or exit codes differ from the first one's marks the run
non-deterministic.  Rounds and jobs are timed in wall and in CPU seconds.
With --spans the slspec functions are traced and the spans are written to
FILE at exit; --micro adds the fixed-input micro-timings after the rounds.
--setup-probes times N fresh interpreters (wall and CPU) that import
slspec.cli and load and validate CFG; they run between rounds, spread over
the S seconds, so that a slow stretch of the machine reaches only some of
them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_CODE = """
import sys, time
t0, c0 = time.perf_counter(), time.process_time()
import slspec.cli as cli
cfg = cli.load_config(sys.argv[1])
cli.parse_problem_block(cfg)
cli.parse_step_block(cfg)
if "montecarlo" in cfg:
    from slspec.random import ensemble_from_json
    ensemble_from_json(cfg["montecarlo"]["ensemble"])
print(repr(time.perf_counter() - t0), repr(time.process_time() - c0))
"""


def cpu_time():
    """CPU seconds of this process and of its children that have ended.

    The runner runs one thread and starts no process while a job runs, so a
    job's CPU time is its wall time less the time the machine's hypervisor
    gave the processor to another guest.
    """
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def setup_probe(config):
    """(wall, CPU) seconds a fresh interpreter takes to import slspec.cli and
    validate config."""
    res = subprocess.run([sys.executable, "-c", SETUP_CODE, config], capture_output=True,
                         text=True, timeout=60)
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
    wall, cpu = res.stdout.strip().splitlines()[-1].split()
    return float(wall), float(cpu)


def _merge(base, patch):
    out = dict(base)
    for k, v in patch.items():
        out[k] = _merge(out[k], v) if isinstance(v, dict) and isinstance(out.get(k), dict) else v
    return out


def _argv(step, config, out_root):
    argv = ["--config", config, "--output", str(out_root / step["out"]), "--quiet"]
    if step["cmd"] == "montecarlo":
        argv += ["--workers", "1"]
    return argv + [step["cmd"]]


def _call(cli, argv, err):
    """Exit status of one CLI call; an escaped exception is a failure too."""
    try:
        with contextlib.redirect_stderr(err):
            return cli.main(argv)
    except SystemExit as exc:
        return f"exit:{exc.code}"
    except Exception as exc:  # any escape is a failed job, recorded by type
        print(f"{type(exc).__name__}: {exc}", file=err)
        return f"exception:{type(exc).__name__}"


def run_job(cli, job, out_root, err):
    """Run one job's steps in order.

    A step whose base config is the output of a failed step is skipped; the
    others run, so a failed step leaves the rest of the job's work in place.
    """
    codes, step_s, failed = [], [], set()
    for step in job["steps"]:
        if step.get("base") in failed:
            codes.append("skipped")
            step_s.append(0.0)
            failed.add(step["out"])
            continue
        t0 = time.perf_counter()
        if "base" in step:
            # the step's config is the written base config plus its patch
            out = out_root / step["out"]
            config = out.with_name(out.stem + "_cfg.json")
            base = json.loads((out_root / step["base"]).read_text())
            config.write_text(json.dumps(_merge(base, step["patch"]), sort_keys=True))
            config = str(config)
        else:
            config = step["config"]
        (out_root / step["out"]).parent.mkdir(parents=True, exist_ok=True)
        code = _call(cli, _argv(step, config, out_root), err)
        step_s.append(time.perf_counter() - t0)
        codes.append(code)
        if code != 0:
            failed.add(step["out"])
    return codes, step_s


def _hashes(root):
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--out-root", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--micro", action="store_true")
    ap.add_argument("--setup-probes", type=int, default=0)
    ap.add_argument("--setup-config")
    args = ap.parse_args(argv)

    import slspec.cli as cli
    tracer = None
    if args.spans:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    jobs = json.loads(Path(args.plan).read_text())["jobs"]
    out_root = Path(args.out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    err = io.StringIO()
    rounds = []
    first = None
    deterministic = True
    probes = []
    start = time.perf_counter()
    deadline = start + args.seconds
    # a round starts while it fits before the deadline, judged by the
    # rounds so far, so that a run overshoots the deadline by little
    while not rounds or (time.perf_counter() + statistics.median(r["wall_s"] for r in rounds)
                         <= deadline):
        while (len(probes) < args.setup_probes and
               len(probes) * args.seconds < args.setup_probes * (time.perf_counter() - start)):
            probes.append(setup_probe(args.setup_config))
        if tracer:
            tracer.reset_totals()
        t0, c0 = time.perf_counter(), cpu_time()
        job_s, job_cpu_s, steps, codes = [], [], [], []
        for j, job in enumerate(jobs):
            if tracer:
                tracer.job = j
            s0, sc0 = time.perf_counter(), cpu_time()
            c, st = run_job(cli, job, out_root, err)
            job_s.append(time.perf_counter() - s0)
            job_cpu_s.append(cpu_time() - sc0)
            codes.append(c)
            steps.append(st)
        wall, cpu = time.perf_counter() - t0, cpu_time() - c0
        outputs = (codes, _hashes(out_root))
        if first is None:
            first = outputs
        elif outputs != first:
            deterministic = False
        rounds.append({"wall_s": wall, "cpu_s": cpu, "job_s": job_s, "job_cpu_s": job_cpu_s,
                       "step_s": steps,
                       "trace": tracer.totals() if tracer else None})
    while len(probes) < args.setup_probes:
        probes.append(setup_probe(args.setup_config))

    report = {"rounds": rounds, "exit_codes": first[0], "hashes": first[1],
              "deterministic": deterministic,
              "setup_s": [c for _, c in probes], "setup_wall_s": [w for w, _ in probes],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "slspec_file": os.path.abspath(sys.modules["slspec"].__file__),
              "stderr": err.getvalue()[-4000:]}
    if tracer:
        tracer.save(args.spans)
    if args.micro:
        import micro
        report["micro"] = micro.run()
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
