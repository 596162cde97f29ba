"""Micro-timings of single slspec layers on fixed inputs.

Each figure is the median over a few repeats of a loop's time per call, so
one slow repeat (a context switch, a page fault) does not move it.
"""

from __future__ import annotations

import math
import statistics
import time

from slspec import (ConstantPotential, Ensemble, GridPotential, IwasawaParams,
                    PiecewisePotential, PointInteraction, Problem, ProjPoint, SolutionState,
                    Uniform, eigen_test, eigenvalues_in_range, iwasawa_compose,
                    iwasawa_decompose, mismatch_samples, propagate_state, transfer_matrix)


def _per_call(fn, n, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times)


def _sites20():
    bps = tuple(0.25 * i for i in range(41))
    vals = tuple(1.0 + 0.5 * math.sin(1.7 * i) for i in range(40))
    sites = tuple(PointInteraction(0.3 + 0.5 * k, IwasawaParams(0.2, 1.0 + 0.01 * k, 0.1 * k))
                  for k in range(20))
    return Problem(0.0, 10.0, PiecewisePotential(bps, vals), sites,
                   ProjPoint(0.3), ProjPoint(1.1))


def run():
    out = {}
    p = IwasawaParams(0.7, 1.3, 0.4)
    m = iwasawa_compose(p)
    out["sl2.iwasawa_compose.us"] = 1e6 * _per_call(lambda: iwasawa_compose(p), 5000)
    out["sl2.iwasawa_decompose.us"] = 1e6 * _per_call(lambda: iwasawa_decompose(m), 5000)

    const = ConstantPotential(1.0)
    out["transfer.segment.us"] = 1e6 * _per_call(
        lambda: transfer_matrix(const, 1.0, 0.0, 4.0), 2000)
    sites20 = _sites20()
    start = SolutionState(0.0, 0.0, 1.0)
    out["transfer.propagate_state.exact.us"] = 1e6 * _per_call(
        lambda: propagate_state(sites20.potential, start, 10.0, 5.0), 200)
    # an eigs-grid potential at the default step.tol: the step is halved
    # until two passes agree
    xs = tuple(2.0 * i / 299 for i in range(300))
    grid = GridPotential(xs, tuple(3.0 * math.sin(3.0 * x) for x in xs))
    out["transfer.propagate_state.rk4.ms"] = 1e3 * _per_call(
        lambda: propagate_state(grid, start, 2.0, 20.0), 5)

    box1 = Problem(0.0, math.pi, ConstantPotential(0.0),
                   (PointInteraction(1.0, IwasawaParams(0.5, 1.2, 0.3)),),
                   ProjPoint(0.0), ProjPoint(0.0))
    out["spectra.eigen_test.sites1.us"] = 1e6 * _per_call(lambda: eigen_test(box1, 4.0), 1000)
    out["spectra.eigen_test.sites20.us"] = 1e6 * _per_call(
        lambda: eigen_test(sites20, 5.0), 100)
    box = Problem(0.0, math.pi, ConstantPotential(0.0), (), ProjPoint(0.0), ProjPoint(0.0))
    out["spectra.eigenvalues_in_range.box.ms"] = 1e3 * _per_call(
        lambda: eigenvalues_in_range(box, 0.5, 20.0, 200), 10)

    ens = Ensemble("lambda", (Uniform(-1.0, 1.0),) * 20, seed=11)
    out["random.mc_sample.sites20.us"] = 1e6 * _per_call(
        lambda: mismatch_samples(sites20, 5.0, ens, 128), 1, repeats=3) / 128
    # two chunks of 512 samples, one per worker, pool start-up included
    out["random.mc_sample.sites20.workers2.us"] = 1e6 * _per_call(
        lambda: mismatch_samples(sites20, 5.0, ens, 1024, workers=2), 1, repeats=3) / 1024
    return out
