"""Eigenvalue detection by projective shooting and the stability classifiers.

E is an eigenvalue exactly when the solution admitted by the left boundary
angle, pushed through every jump, lands on the right boundary class.  In
floating point that membership is tolerance-relative, so every report
carries the raw angular mismatch for consumers to re-threshold.

The eigenvalue scan evaluates its grid energies as one batch of lanes (see
transfer), each equal bit for bit to that energy alone; the ITP root
refinement and the reports run one energy at a time.

A realization is the problem with one Iwasawa field of its jumps replaced.
realized_mismatches evaluates a batch of them as one walk at a fixed energy,
one lane per realization, each equal bit for bit to eigen_test on that
realized problem.  The dichotomy re-tests and Monte Carlo both use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import Problem, _wrap_half_pi, propagate_through
from .sl2 import (TWO_PI, InvalidDilation, ProjPoint, _compose, alpha_fixed_class, proj_class,
                  r_fixed_classes)
from .transfer import DEFAULT_STEP, StepControl

ALL_VALUES = "AllValues"
ONLY_ORIGINAL = "OnlyOriginal"
PERIODIC_IN_THETA = "PeriodicInTheta"

PARAMETERS = ("theta", "r", "alpha")

# near-pi jumps of the signed mismatch are wrap-arounds, not roots
WRAP_GUARD = math.pi / 2


class NotAnEigenvalue(ValueError):
    """The classifier was handed an energy whose mismatch exceeds tolerance."""


class CrossCheckFailure(RuntimeError):
    """Perturbed re-tests contradicted the fixed-class verdict."""


@dataclass(frozen=True)
class EigenReport:
    """Energy, angular defect at b, and the solution classes left of each site."""

    E: float
    mismatch: float
    left_limit_classes: tuple


@dataclass(frozen=True)
class DichotomyVerdict:
    """How the eigenvalue responds when one Iwasawa parameter is varied."""

    parameter: str
    verdict: str
    matched_fixed_class: ProjPoint | None = None


def eigen_test(problem: Problem, e: float,
               step: StepControl = DEFAULT_STEP) -> EigenReport:
    """Propagate the left-admissible solution and measure the defect at b."""
    res = propagate_through(problem, e, step)
    final_class = proj_class(res.final.u, res.final.du)
    lefts = tuple(proj_class(s.u, s.du) for s in res.lefts)
    return EigenReport(e, final_class.distance(problem.bc_right), lefts)


def matching_gamma(problem: Problem, e: float,
                   step: StepControl = DEFAULT_STEP) -> ProjPoint:
    """The unique right boundary angle making e an eigenvalue; bc_right is ignored."""
    res = propagate_through(problem, e, step)
    return proj_class(res.final.u, res.final.du)


def _signed_defect(problem, gamma):
    return _wrap_half_pi(gamma.angle - problem.bc_right.angle)


def _lane_classes(problem, e, step, jumps=None):
    """The final class of every lane of one walk; see propagate_through."""
    # Python floats overflow to inf and nan without a word; so do the lanes
    with np.errstate(over="ignore", invalid="ignore"):
        final = propagate_through(problem, e, step, jumps).final
    return [proj_class(u, du) for u, du in zip(final.u.tolist(), final.du.tolist())]


def boundary_mismatch(problem: Problem, e, step: StepControl = DEFAULT_STEP):
    """Signed angular defect at b in (-pi/2, pi/2]; vanishes exactly at eigenvalues.

    e may also be a 1-D array of energies; they are propagated together as
    lanes and the result is the list of their defects, each equal bit for
    bit to the defect of that energy alone.
    """
    if not isinstance(e, np.ndarray):
        return _signed_defect(problem, matching_gamma(problem, e, step))
    return [_signed_defect(problem, g) for g in _lane_classes(problem, e, step)]


def realized_mismatches(problem: Problem, e: float, field: str, columns,
                        step: StepControl = DEFAULT_STEP):
    """eigen_test's mismatch at e with one Iwasawa field of every jump replaced.

    field is "alpha", "r" or "theta"; columns[k] is a 1-D array holding site
    k's value of that field in each lane, and the other two fields keep the
    site's own values.  All lanes are one walk at the one energy e, so the
    exact route builds each piece matrix and the RK4 route each pass's step
    product once, and each lane's state converges on its own.  Only the
    jumps differ between lanes: alpha and r enter them through + - * /
    alone, theta through math per lane, so each lane has the bits of
    eigen_test on its realized problem.
    """
    if field not in PARAMETERS:
        raise ValueError(f"field must be one of {PARAMETERS}")
    jumps = []
    for site, col in zip(problem.interactions, columns):
        p = site.params
        if field == "theta":
            thetas = [t % TWO_PI for t in col.tolist()]
            ct = np.array([math.cos(t) for t in thetas])
            st = np.array([math.sin(t) for t in thetas])
        else:
            ct, st = math.cos(p.theta), math.sin(p.theta)
        if field == "r" and not (col > 0.0).all():
            raise InvalidDilation(f"r = {float(col[~(col > 0.0)][0])!r} must be > 0")
        jumps.append(_compose(col if field == "alpha" else p.alpha,
                              col if field == "r" else p.r, ct, st))
    return [g.distance(problem.bc_right) for g in _lane_classes(problem, e, step, jumps)]


def _finite(e, m):
    """m, the mismatch at e, unless it is NaN or infinite: then a numerical failure."""
    if not math.isfinite(m):
        raise FloatingPointError(f"boundary mismatch is {m!r} at E = {e!r}")
    return m


def _guarded(m0, m1):
    """Whether mismatches m0 and m1 straddle a root rather than a wrap-around."""
    return m0 * m1 < 0.0 and abs(m1 - m0) < WRAP_GUARD


def _refine(problem, lo, hi, mlo, mhi, tol, step):
    """A root of the mismatch in the guarded sign change (lo, hi), by ITP.

    The ITP method (Oliveira and Takahashi, ACM TOMS 47(1), 2020) with
    kappa1 = 0.2 / (hi - lo), kappa2 = 2 and n0 = 1 steps from the
    regula-falsi point towards the midpoint, never farther from the midpoint
    than keeps the bracket within one halving of bisection's schedule: it
    needs at most one evaluation more than bisection, and far fewer on a
    smooth mismatch.  A trial point x replaces hi only when (lo, x) is a
    guarded sign change, otherwise it replaces lo; while (lo, hi) is not a
    guarded sign change (a wrap-around of the cut lies inside) the trial
    point is the midpoint.  An exact zero is returned as it is; otherwise
    the result is the midpoint once the bracket is no wider than tol or no
    float lies strictly between its ends.
    """
    kappa1 = 0.2 / (hi - lo)
    n_max = max(0, math.ceil(math.log2(hi - lo) - math.log2(tol))) + 1
    # after step j the bracket is at most (tol - 2 ulp) * 2**(n_max - j - 1)
    # + 2 ulp wide: bisection's schedule, less what the midpoint's rounding
    # by up to an ulp of the ends can add on the halvings still to come
    ulp = math.ulp(max(abs(lo), abs(hi)))
    j = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        x = mid
        if _guarded(mlo, mhi):
            r = max(0.0, math.ldexp(tol - 2.0 * ulp, n_max - j - 1) - 0.5 * (hi - lo))
            xf = (lo * mhi - hi * mlo) / (mhi - mlo)
            sigma = math.copysign(1.0, mid - xf)
            delta = kappa1 * (hi - lo) ** 2
            xt = xf + sigma * delta if delta <= abs(mid - xf) else mid
            x = xt if abs(xt - mid) <= r else mid - sigma * r
            if not lo < x < hi:
                x = mid
        m = _finite(x, boundary_mismatch(problem, x, step))
        if m == 0.0:
            return x
        if _guarded(mlo, m):
            hi, mhi = x, m
        else:
            lo, mlo = x, m
        j += 1
    return 0.5 * (lo + hi)


def eigenvalues_in_range(problem: Problem, e_lo: float, e_hi: float, grid: int,
                         tol: float = 1e-10,
                         step: StepControl = DEFAULT_STEP):
    """Eigenvalues found by bracketing sign changes of the signed mismatch.

    The mismatch is evaluated at `grid` equispaced energies, all in one
    batched propagation with one lane per energy; each sign change that is
    not a wrap-around of the cut is refined by ITP (see _refine), one energy
    at a time, until the energy bracket is narrower than tol.  Complete only
    up to the grid resolution: roots closer together than one grid cell can
    be missed.  A NaN or infinite mismatch, on the grid or in a refinement,
    raises FloatingPointError naming its energy.
    """
    if not e_lo < e_hi:
        raise ValueError("need e_lo < e_hi")
    if grid < 2:
        raise ValueError("grid must be at least 2")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    es = [e_lo + (e_hi - e_lo) * i / (grid - 1) for i in range(grid)]
    ms = [_finite(e, m) for e, m in zip(es, boundary_mismatch(problem, np.array(es), step))]
    found = []
    for i in range(grid - 1):
        m0, m1 = ms[i], ms[i + 1]
        if m0 == 0.0:
            found.append(es[i])
        elif _guarded(m0, m1):
            found.append(_refine(problem, es[i], es[i + 1], m0, m1, tol, step))
    if ms[-1] == 0.0:
        found.append(es[-1])
    return [eigen_test(problem, e, step) for e in sorted(found)]


# ---------------------------------------------------------------- dichotomies

_ALPHA_OFFSETS = (-2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0)
_THETA_OFFSETS = (math.pi / 3, -math.pi / 4, 0.7, -1.1, 1.9, 2.5, -2.9, 0.4)
_R_FACTORS = (0.25, 0.5, 2.0, 4.0) + tuple(
    np.random.default_rng(181_818).uniform(0.1, 10.0, 4))


def _cross_check(problem, e, site_index, parameter, verdict, tol, step):
    """Re-test e with perturbed values of the parameter, all as lanes of one walk."""
    params = problem.interactions[site_index].params
    if parameter == "alpha":
        values = [params.alpha + d for d in _ALPHA_OFFSETS]
    elif parameter == "r":
        values = [params.r * f for f in _R_FACTORS]
    else:
        # pi-shifts keep the eigenvalue, everything else must lose it
        values = [params.theta + math.pi, params.theta - math.pi]
        values += [params.theta + d for d in _THETA_OFFSETS]
    columns = [np.full(len(values), getattr(site.params, parameter))
               for site in problem.interactions]
    columns[site_index] = np.array(values)
    outcomes = [m <= tol for m in realized_mismatches(problem, e, parameter, columns, step)]
    if parameter == "theta":
        if not all(outcomes[:2]):
            raise CrossCheckFailure(f"theta shift by pi lost E = {e}")
        outcomes, expect_keep = outcomes[2:], False
    else:
        expect_keep = verdict == ALL_VALUES
    if any(o != expect_keep for o in outcomes):
        raise CrossCheckFailure(
            f"{parameter} verdict {verdict} contradicted by re-tests {outcomes}")


def classify_dichotomy(problem: Problem, e: float, site_index: int, parameter: str,
                       tol: float = 1e-6, step: StepControl = DEFAULT_STEP,
                       cross_check: bool = True) -> DichotomyVerdict:
    """Decide whether varying one Iwasawa parameter at one site keeps e an eigenvalue.

    theta always yields PeriodicInTheta (pi-shifts and nothing else keep the
    eigenvalue).  For r and alpha the verdict is AllValues exactly when the
    eigenfunction's class just left of the site lies on the corresponding
    fixed class(es); for r the matched class is reported since the two fixed
    classes arise differently; tol bounds both the mismatch at e and the
    distance to a fixed class.  With cross_check the verdict is confirmed by
    re-testing 8 perturbed parameter values (for theta also the two
    pi-shifts), all as lanes of one walk at e.
    """
    if parameter not in PARAMETERS:
        raise ValueError(f"parameter must be one of {PARAMETERS}")
    if not 0 <= site_index < len(problem.interactions):
        raise ValueError(f"no interaction site #{site_index}")
    report = eigen_test(problem, e, step)
    if not report.mismatch <= tol:  # a NaN mismatch fails too
        raise NotAnEigenvalue(
            f"E = {e} has mismatch {report.mismatch:.3e} > tol {tol}")
    params = problem.interactions[site_index].params
    cls = report.left_limit_classes[site_index]
    matched = None
    if parameter == "theta":
        verdict = PERIODIC_IN_THETA
    elif parameter == "r":
        first, second = r_fixed_classes(params)
        if cls.distance(first) <= tol:
            matched = first
        elif cls.distance(second) <= tol:
            matched = second
        verdict = ALL_VALUES if matched is not None else ONLY_ORIGINAL
    else:
        fixed = alpha_fixed_class(params)
        if cls.distance(fixed) <= tol:
            matched = fixed
        verdict = ALL_VALUES if matched is not None else ONLY_ORIGINAL
    if cross_check:
        _cross_check(problem, e, site_index, parameter, verdict, tol, step)
    return DichotomyVerdict(parameter, verdict, matched)
