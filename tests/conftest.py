"""Shared fixtures: fast paths checked against the scalar loops they replaced.

The scan refines each bracket by ITP (slspec.spectra.refine_root).  The
reference here is the bisection loop that preceded it, kept only in the
tests; both tests/test_spectra.py and the scan pins of tests/test_golden.py
check the scan against it through the fixtures below.  Likewise the trace
of a piecewise-constant problem, whose phases come from one array pass, is
checked against the walk that called _Piece.at once per sample, and the
dichotomy re-tests, which classify_sites takes from its site maps, against
a walk of each re-test group (spectra.realized_mismatches).
"""

import math
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest

import slspec.spectra
from slspec.problem import _lift_samples, _normalized, _pieces, _wrap_half_pi
from slspec.sl2 import iwasawa_compose
from slspec.spectra import (PARAMETERS, WRAP_GUARD, _retest_values, boundary_mismatch,
                            classify_sites, eigen_test, eigenvalues_in_range, realized_mismatches)
from slspec.transfer import DEFAULT_STEP, SolutionState


def grid_energies(e_lo, e_hi, grid):
    return [e_lo + (e_hi - e_lo) * i / (grid - 1) for i in range(grid)]


def bisection_by_cell(problem, e_lo, e_hi, grid, tol, step=DEFAULT_STEP):
    """The scan with the bisection refinement that ITP replaced.

    Returns {grid cell: (root, evaluations)}; a grid energy whose mismatch
    is exactly zero is a root of its own cell, found with no evaluation.
    """
    es = grid_energies(e_lo, e_hi, grid)
    ms = boundary_mismatch(problem, np.array(es), step)
    roots = {}
    for i in range(grid - 1):
        m0, m1 = ms[i], ms[i + 1]
        if m0 == 0.0:
            roots[i] = (es[i], 0)
        elif m0 * m1 < 0.0 and abs(m1 - m0) < WRAP_GUARD:
            lo, hi, mlo, n = es[i], es[i + 1], m0, 0
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                mm = boundary_mismatch(problem, mid, step)
                n += 1
                if mm == 0.0:
                    lo = hi = mid
                    break
                if mm * mlo < 0.0 and abs(mm - mlo) < WRAP_GUARD:
                    hi = mid
                else:
                    lo, mlo = mid, mm
            roots[i] = (0.5 * (lo + hi), n)
    if ms[-1] == 0.0:
        roots[grid - 1] = (es[-1], 0)
    return roots


def scan_by_cell(problem, e_lo, e_hi, grid, tol, step=DEFAULT_STEP, budget=10_000):
    """eigenvalues_in_range's reports and its refinement evaluations per grid cell.

    More than budget evaluations fail the test instead of running on.
    """
    es = grid_energies(e_lo, e_hi, grid)
    cells = Counter()
    real = slspec.spectra.boundary_mismatch

    def counted(prob, e, st=DEFAULT_STEP):
        if not isinstance(e, np.ndarray):
            cells[bisect_right(es, e) - 1] += 1
            assert cells.total() <= budget, "refinement does not terminate"
        return real(prob, e, st)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(slspec.spectra, "boundary_mismatch", counted)
        reports = eigenvalues_in_range(problem, e_lo, e_hi, grid, tol, step)
    return reports, cells


def within_bisection_bound(problem, e_lo, e_hi, grid, tol, step=DEFAULT_STEP):
    """The scan's reports, after checking them cell by cell against bisection.

    ITP (n0 = 1) takes at most one evaluation more than bisection in every
    cell.  Where bisection found a genuine root (mismatch at most 1e-6),
    the scan reports a root within tol of it.  A cell where bisection's
    root is spurious (a wrap-around inside a sign change, no root) gives
    no report.
    """
    ref = bisection_by_cell(problem, e_lo, e_hi, grid, tol, step)
    reports, cells = scan_by_cell(problem, e_lo, e_hi, grid, tol, step)
    assert set(cells) <= set(ref)
    genuine = []
    for cell, (root, n) in sorted(ref.items()):
        assert cells[cell] <= n + 1
        if eigen_test(problem, root, step).mismatch <= 1e-6:
            genuine.append(root)
    assert len(reports) == len(genuine)
    for rep, root in zip(reports, genuine):
        assert abs(rep.E - root) <= tol
    return reports


@pytest.fixture(scope="session")
def bisection_bound():
    """within_bisection_bound: the scan's reports, checked against bisection."""
    return within_bisection_bound


@pytest.fixture(scope="session")
def counted_scan():
    """scan_by_cell: the scan's reports and its evaluations per grid cell."""
    return scan_by_cell


def scalar_piece_trace(problem, e, resolution, step=DEFAULT_STEP):
    """prufer_trace on a piecewise-constant potential, one _Piece.at call per sample.

    Each sample is evaluated on the first piece that ends at or after it,
    the pieces taken in turn as the walk reaches them, and each jump acts on
    the state of the last sample before its site.
    """
    v = problem.potential
    state = _normalized(problem.initial_state())
    phi = math.atan2(state.u, state.du)
    out = [(state.x, phi)]
    stops = [(site.x, site.params) for site in problem.interactions]
    stops.append((problem.b, None))
    for x_stop, params in stops:
        lo = state.x
        n = _lift_samples(v, lo, x_stop, e, step, resolution)
        pieces = _pieces(v, state, phi, x_stop, e)
        piece = next(pieces)
        for i in range(1, n + 1):
            x = min(lo + (x_stop - lo) * i / n, x_stop)
            while x > piece.q:
                piece = next(pieces)
            state, phi = piece.at(x)
            out.append((x, phi))
        if params is not None:
            u, du = iwasawa_compose(params).apply((state.u, state.du))
            phi += _wrap_half_pi(math.atan2(u, du) - math.atan2(state.u, state.du))
            state = SolutionState(x_stop, u, du)
            out.append((x_stop, phi))
    return out


@pytest.fixture(scope="session")
def piece_trace_reference():
    """scalar_piece_trace: the trace with one _Piece.at call per sample."""
    return scalar_piece_trace


def mapped_and_walked_retests(problem, e, step=DEFAULT_STEP):
    """[(site, parameter, mapped, walked)] for every re-test group of every site at e.

    mapped holds the group's mismatches as classify_sites takes them from
    its site maps, every group recorded and none judged (tol = pi passes
    any energy); walked holds realized_mismatches of a walk with the group's
    values at its site, or the ArithmeticError that walk raised.
    """
    sites = range(len(problem.interactions))
    mapped = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(slspec.spectra, "_check_retests",
                   lambda e, parameter, verdict, mismatches, tol: mapped.append(mismatches))
        classify_sites(problem, e, sites, PARAMETERS, math.pi, step)
    out = []
    for (i, parameter), ms in zip([(i, p) for i in sites for p in PARAMETERS], mapped,
                                  strict=True):
        values = _retest_values(problem.interactions[i].params, parameter)
        columns = [np.full(len(values), getattr(site.params, parameter))
                   for site in problem.interactions]
        columns[i] = np.array(values)
        try:
            walked = realized_mismatches(problem, e, parameter, columns, step)
        except ArithmeticError as exc:
            walked = exc
        out.append((i, parameter, ms, walked))
    return out


@pytest.fixture(scope="session")
def retest_reference():
    """mapped_and_walked_retests: each re-test group from the site maps and from a walk."""
    return mapped_and_walked_retests
