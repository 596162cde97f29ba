"""Workload generation: configs, job lists and reference answers from a seed.

`generate(name, seed)` is a pure function of its arguments.  It returns the
config files to write (relative path -> JSON text) and the job list; every
job carries the reference answers the checker compares its outputs with.
The references come from `reference`, never from slspec.

Draws are stratified: each job slot fixes the structure (number of sites,
potential kind, grid, theta pattern) and the seed only moves continuous
parameters, so the work in a job list, and with it the run time, changes
little from seed to seed while the inputs do.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref

WORKLOADS = ("mc-sites20", "eigs-grid", "study-exact")

DICHOTOMY_TOL = 1e-6  # the CLI's default dichotomy and classify tolerance


def _text(obj):
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _rng(name, seed):
    return np.random.default_rng([WORKLOADS.index(name), seed])


def _f(x):
    return float(x)


def _away_from(x, points, gap=1e-3):
    """Nudge x off any of `points` by at least gap."""
    for p in points:
        if abs(x - p) < gap:
            x = p + 2 * gap
    return x


def generate(name, seed):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    if not 0 <= seed < 2 ** 32:
        raise ValueError("seed must be in [0, 2**32)")
    return {"mc-sites20": _mc_sites20, "eigs-grid": _eigs_grid,
            "study-exact": _study_exact}[name](_rng(name, seed))


def _config(problem, **blocks):
    return {"schema": 1, "problem": problem, **blocks}


# --------------------------------------------------------------- mc-sites20

MC_JOBS, MC_SAMPLES, MC_SITES, MC_EPSILON = 12, 100, 20, 1e-9


def _mc_sites20(rng):
    bps = [0.0] + [_f(0.25 * i + rng.uniform(-0.08, 0.08)) for i in range(1, 40)] + [10.0]
    values = [_f(v) for v in rng.uniform(0.0, 4.0, 40)]
    sites = []
    for k in range(MC_SITES):
        x = _away_from(_f(0.25 + 0.5 * k + rng.uniform(-0.1, 0.1)), bps)
        sites.append({"x": x, "alpha": 0.0, "r": _f(rng.uniform(0.8, 1.25)),
                      "theta": _f(rng.uniform(0.0, 2 * math.pi))})
    problem = {"a": 0.0, "b": 10.0,
               "potential": {"kind": "piecewise", "breakpoints": bps, "values": values},
               "interactions": sites,
               "bc_left": _f(rng.uniform(0.0, math.pi)),
               "bc_right": _f(rng.uniform(0.0, math.pi))}
    energy = _f(rng.uniform(3.0, 12.0))
    files, jobs = {}, []
    for j in range(MC_JOBS):
        ensemble = {"target": "lambda",
                    "sites": [{"kind": "uniform", "lo": -1.0, "hi": 1.0}] * MC_SITES,
                    "seed": int(rng.integers(0, 2 ** 63))}
        cfg = f"cfg/j{j:02d}.json"
        files[cfg] = _text(_config(problem, montecarlo={
            "energy": energy, "ensemble": ensemble, "samples": MC_SAMPLES,
            "epsilon": MC_EPSILON}))
        # a continuous ensemble at a fixed energy of a non-degenerate problem
        # hits an eigenvalue with probability zero
        jobs.append({"id": f"j{j:02d}", "steps": [
            {"cmd": "montecarlo", "config": cfg, "out": f"j{j:02d}/mc.json"}],
            "expect": {"mc": {"samples": MC_SAMPLES, "hits": 0, "seed": ensemble["seed"]}}})
    return {"files": files, "jobs": jobs}


# ---------------------------------------------------------------- eigs-grid

# Each job is a list of scans (jumps, eigs grid, eigenvalues in the window).
# Four jobs are one-eigenvalue scans of noisy samplings of one jump-free
# potential; their RK4 step counts move by about 5% between seeds.  The last
# job scans the two jump problems: the two-jump one at grid 40, which
# reports a spurious eigenvalue on most seeds (adding about 20% to that
# scan), and the one-jump one at grid 200; it takes at least 4x the steps
# of the others.  So `job_cpu_s.p50`, pooled over the rounds, always falls
# among the four like jobs, and which eigenvalues a seed's problems make a
# scan miss or invent moves only `cpu_s`.
GRID_JOBS = (((0, 40, 1),),) * 4 + (((2, 40, 3), (1, 200, 1)),)
GRID_LENGTH, GRID_NODES = 2.0, 300
GRID_E_LO, GRID_E_CAP = -10.0, 150.0


def _grid_problem(rng, n_jumps):
    """A grid problem whose shape is fixed by its jump count; the seed adds noise.

    The number of mismatch evaluations of a scan follows the eigenvalues it
    finds, so letting the seed redraw the whole shape would make the run
    time a lottery over which eigenvalues are missed.
    """
    shape = np.random.default_rng([WORKLOADS.index("eigs-grid"), 2 ** 32 + n_jumps])
    # uniform nodes, as sampled potentials usually come; their spacing is
    # above the base RK4 step at the default step.tol of 1e-9, so each halving
    # of the step changes the pass and refinement runs until the passes agree
    xs = [_f(GRID_LENGTH * i / (GRID_NODES - 1)) for i in range(GRID_NODES)]
    amp = shape.uniform(-3.0, 3.0, 4)
    phase = shape.uniform(0.0, 2 * math.pi, 4)
    noise = rng.normal(0.0, 0.3, GRID_NODES)
    values = [_f(sum(amp[k] * math.sin((k + 1) * math.pi * x / GRID_LENGTH + phase[k])
                     for k in range(4)) + noise[i]) for i, x in enumerate(xs)]
    sites = []
    for x in sorted(shape.uniform(0.125, 0.875, n_jumps) * GRID_LENGTH):
        x = _away_from(_f(x + rng.uniform(-0.0125, 0.0125) * GRID_LENGTH), xs)
        if sites and x - sites[-1]["x"] < 0.075 * GRID_LENGTH:
            x = sites[-1]["x"] + 0.075 * GRID_LENGTH
        jitter = rng.uniform(0.9, 1.1)
        if shape.uniform() < 0.5:
            sites.append({"x": x, "alpha": _f(shape.uniform(0.5, 2.0) * jitter),
                          "r": 1.0, "theta": 0.0})
        else:
            sites.append({"x": x, "alpha": 0.0, "r": _f(shape.uniform(1.3, 2.0) * jitter),
                          "theta": 0.0})
    bcs = [0.0 if shape.uniform() < 0.5 else _f(shape.uniform(0.5, 2.6)) for _ in range(2)]
    return {"a": 0.0, "b": GRID_LENGTH,
            "potential": {"kind": "grid", "x": xs, "values": values},
            "interactions": sites, "bc_left": bcs[0], "bc_right": bcs[1]}


def _grid_scan(rng, cfg, out, n_jumps, grid, n_eigs):
    """One eigs scan: its config text, and its step with the reference roots."""
    problem = _grid_problem(rng, n_jumps)
    e_lo = GRID_E_LO
    roots = ref.grid_eigenvalues(problem, e_lo, GRID_E_CAP)
    # the window ends halfway between the scan's last eigenvalue and the
    # next; at step.tol 1e-9 a mismatch costs 10-30 ms, which limits a round
    # of the job list to about 700 mismatches
    above = [e for e in roots if e > e_lo]
    if len(above) > n_eigs:
        e_hi = 0.5 * (above[n_eigs - 1] + above[n_eigs])
    else:
        e_hi = GRID_E_CAP
    # no step block: the CLI's default step.tol of 1e-9, as in the README
    text = _text(_config(problem, eigs={"e_lo": e_lo, "e_hi": _f(e_hi), "grid": grid}))
    step = {"cmd": "eigs", "config": cfg, "out": out,
            "expect": {"eigs": {"roots": [_f(e) for e in roots if e_lo <= e <= e_hi],
                                "rel_tol": 1e-5}}}
    return text, step


def _eigs_grid(rng):
    files, jobs = {}, []
    for j, scans in enumerate(GRID_JOBS):
        steps = []
        for s, scan in enumerate(scans):
            cfg, out = f"cfg/j{j:02d}s{s}.json", f"j{j:02d}/eigs{s}.json"
            files[cfg], step = _grid_scan(rng, cfg, out, *scan)
            steps.append(step)
        jobs.append({"id": f"j{j:02d}", "steps": steps, "expect": {}})
    return {"files": files, "jobs": jobs}


# -------------------------------------------------------------- study-exact

STUDY_SLOTS = tuple((k, pot, "pi") for k in (1, 2, 3, 4)
                    for pot in ("constant", "piecewise") for _ in range(2)) + (
    (1, "constant", "generic"), (1, "piecewise", "generic"),
    (2, "constant", "generic"), (3, "piecewise", "generic"))
STUDY_MC_SAMPLES = 64
STUDY_MC_EPSILON = 1e-6
STUDY_EIG_TOL = 1e-7

# The shear box of the roadmap: [0, 3], V = 0, Dirichlet, one shear
# alpha = 8 at x = 1.  eigs at grid 200 misses E ~ 2.70849 at the parent
# commit; it stays in every study-exact job list.
SHEAR_BOX = {"a": 0.0, "b": 3.0, "potential": {"kind": "constant", "value": 0.0},
             "interactions": [{"x": 1.0, "alpha": 8.0, "r": 1.0, "theta": 0.0}],
             "bc_left": 0.0, "bc_right": 0.0}


def _verdicts(problem, e, site):
    """Reference verdicts for one site at an eigenvalue, by fixed classes."""
    theta = problem["interactions"][site]["theta"]
    cls = ref.mp_left_class(problem, e, site)
    d_alpha = ref.proj_distance(cls, ref.alpha_fixed_angle(theta))
    d_r = min(d_alpha, ref.proj_distance(cls, theta % math.pi))
    return {"theta": "PeriodicInTheta",
            "r": "AllValues" if d_r <= DICHOTOMY_TOL else "OnlyOriginal",
            "alpha": "AllValues" if d_alpha <= DICHOTOMY_TOL else "OnlyOriginal"}


def _eig_expect(problem, e_lo, e_hi):
    roots = ref.exact_eigenvalues(problem, e_lo, e_hi)
    return {"roots": roots, "abs_tol": STUDY_EIG_TOL,
            "verdicts": [[_verdicts(problem, e, i) for i in range(len(problem["interactions"]))]
                         for e in roots]}


def _transfer_expect(problem, e):
    u, du = ref.mp_state(problem, e)
    return {"matrix": list(ref.mp_potential_matrix(problem, e)),
            "end_class": ref.class_angle(float(u), float(du))}


def _theta(rng, mode):
    if mode == "pi":
        return 0.0 if rng.uniform() < 0.5 else math.pi
    # keep the class point away from the zeros (theta near pi/2 mod pi)
    return _f(rng.uniform(0.25, 1.25) if rng.uniform() < 0.5 else rng.uniform(1.9, 2.9))


def _study_base(rng, pot_kind, k):
    b = _f(rng.uniform(2.0, 3.5) * math.pi)
    if pot_kind == "constant":
        potential = {"kind": "constant", "value": _f(rng.uniform(-1.0, 0.3))}
        v_min = v_max = potential["value"]
    else:
        n = int(rng.integers(3, 7))
        inner = sorted(_f(t) for t in rng.uniform(0.1 * b, 0.9 * b, n - 1))
        values = [_f(v) for v in rng.uniform(-1.0, 0.3, n)]
        potential = {"kind": "piecewise", "breakpoints": [0.0] + inner + [b], "values": values}
        v_min, v_max = min(values), max(values)

    def bc():
        return 0.0 if rng.uniform() < 0.5 else _f(rng.uniform(0.3, 2.8))

    base = {"a": 0.0, "b": b, "potential": potential, "interactions": [],
            "bc_left": bc(), "bc_right": bc()}
    n = k + 1 + int(rng.integers(0, 3))
    roots = ref.exact_eigenvalues(base, v_min - 15.0, v_max + ((n + 6) * math.pi / b) ** 2)
    # the n-th eigenfunction has n interior zeros; E above V keeps the
    # class turning monotonically between them
    roots = [e for e in roots if e > v_max + 0.3]
    return base, roots[n]


def _study_job(rng, j, k, pot_kind, mode):
    jid = f"j{j:02d}"
    base, energy = _study_base(rng, pot_kind, k)
    thetas = [_theta(rng, mode) for _ in range(k)]
    rs = [_f(rng.uniform(0.5, 2.0)) for _ in range(k)]
    xs = ref.degenerate_sites(base, energy, thetas)
    built = dict(base, interactions=[{"x": x, "alpha": 0.0, "r": r, "theta": t % (2 * math.pi)}
                                     for x, r, t in zip(xs, rs, thetas)])
    if mode == "pi":
        e_d = energy
    else:
        # E is no longer an eigenvalue once theta is off {0, pi}; classify at
        # the nearest one of the built problem instead
        near = ref.exact_eigenvalues(built, energy - 3.0, energy + 3.0)
        e_d = min(near, key=lambda e: abs(e - energy))
    site = int(rng.integers(0, k))
    ensemble = {"target": "lambda",
                "sites": [{"kind": "uniform", "lo": -2.0, "hi": 2.0}] * k,
                "seed": int(rng.integers(0, 2 ** 63))}
    m_ref = ref.mp_mismatch(built, energy)
    cfg = f"cfg/{jid}.json"
    files = {cfg: _text(_config(base, degenerate={"energy": energy, "thetas": thetas, "rs": rs}))}
    built_out = f"{jid}/built.json"
    steps = [
        {"cmd": "degenerate", "config": cfg, "out": built_out},
        {"cmd": "eigs", "base": built_out, "patch": {"eigs": {"classify": True}},
         "out": f"{jid}/eigs.json"},
        {"cmd": "dichotomy", "base": built_out,
         "patch": {"dichotomy": {"energy": e_d, "site": site}}, "out": f"{jid}/dichotomy.json"},
        {"cmd": "transfer", "base": built_out,
         "patch": {"transfer": {"energy": e_d, "trace_resolution": 0.05}},
         "out": f"{jid}/transfer.json"},
        {"cmd": "montecarlo", "base": built_out,
         "patch": {"montecarlo": {"energy": energy, "ensemble": ensemble,
                                  "samples": STUDY_MC_SAMPLES, "epsilon": STUDY_MC_EPSILON}},
         "out": f"{jid}/mc.json"},
    ]
    expect = {
        "degenerate": {"sites": xs, "rs": rs, "thetas": [t % (2 * math.pi) for t in thetas],
                       "abs_tol": STUDY_EIG_TOL},
        "eigs": _eig_expect(built, energy - 0.5, energy + 0.5),
        "dichotomy": _verdicts(built, e_d, site),
        "transfer": _transfer_expect(built, e_d),
        # shear-blindness: every realization keeps the unperturbed mismatch
        "mc": {"samples": STUDY_MC_SAMPLES, "seed": ensemble["seed"], "mismatch": m_ref,
               "hits": STUDY_MC_SAMPLES if m_ref <= STUDY_MC_EPSILON else 0},
    }
    return files, {"id": jid, "steps": steps, "expect": expect,
                   "slot": {"sites": k, "potential": pot_kind, "theta": mode}}


def _shear_box_job(j):
    jid = f"j{j:02d}"
    roots = ref.exact_eigenvalues(SHEAR_BOX, 0.1, 20.0)
    e_d = roots[1]  # ~2.70849, the eigenvalue the grid-200 scan misses
    cfg = f"cfg/{jid}.json"
    files = {cfg: _text(_config(
        SHEAR_BOX, eigs={"e_lo": 0.1, "e_hi": 20.0, "grid": 200, "classify": True},
        dichotomy={"energy": e_d, "site": 0},
        transfer={"energy": e_d, "trace_resolution": 0.05}))}
    steps = [{"cmd": c, "config": cfg, "out": f"{jid}/{c}.json"}
             for c in ("eigs", "dichotomy", "transfer")]
    expect = {"eigs": _eig_expect(SHEAR_BOX, 0.1, 20.0),
              "dichotomy": _verdicts(SHEAR_BOX, e_d, 0),
              "transfer": _transfer_expect(SHEAR_BOX, e_d)}
    return files, {"id": jid, "steps": steps, "expect": expect,
                   "slot": {"sites": 1, "potential": "shear-box", "theta": "pi"}}


def _study_exact(rng):
    files, jobs = {}, []
    for j, (k, pot_kind, mode) in enumerate(STUDY_SLOTS):
        f, job = _study_job(rng, j, k, pot_kind, mode)
        files.update(f)
        jobs.append(job)
    f, job = _shear_box_job(len(STUDY_SLOTS))
    files.update(f)
    jobs.append(job)
    return {"files": files, "jobs": jobs}
