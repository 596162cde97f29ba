"""Eigenvalue detection by projective shooting and the stability classifiers.

E is an eigenvalue exactly when the solution admitted by the left boundary
angle, pushed through every jump, lands on the right boundary class.  In
floating point that membership is tolerance-relative, so every report
carries the raw angular mismatch for consumers to re-threshold.

The eigenvalue scan evaluates its grid energies as one batch of lanes (see
transfer), each equal bit for bit to that energy alone; the ITP root
refinement (refine_root, also used on lift crossings by slspec.random) and
the reports run one energy at a time.

A realization is the problem with Iwasawa fields of its jumps replaced.
realized_mismatches evaluates a batch of them as one walk at a fixed energy,
one lane per realization, each equal bit for bit to eigen_test on that
realized problem; the lanes' final classes and mismatches are array
operations over angles that math's atan2 gives lane by lane.  Monte Carlo
uses it with one field; classify_sites puts the dichotomy re-tests of every
parameter of every site it classifies into one such walk, after one
eigen_test that gives all their fixed-class verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .problem import Problem, _wrap_half_pi, propagate_through
from .sl2 import (TWO_PI, InvalidDilation, NumericalFailure, ProjPoint, ZeroVector, _compose,
                  alpha_fixed_class, proj_class, r_fixed_classes)
from .transfer import DEFAULT_STEP, StepControl, _mapped

ALL_VALUES = "AllValues"
ONLY_ORIGINAL = "OnlyOriginal"
PERIODIC_IN_THETA = "PeriodicInTheta"

PARAMETERS = ("theta", "r", "alpha")

# near-pi jumps of the signed mismatch are wrap-arounds, not roots
WRAP_GUARD = math.pi / 2


class NotAnEigenvalue(NumericalFailure, ValueError):
    """The classifier was handed an energy whose mismatch exceeds tolerance."""


class CrossCheckFailure(NumericalFailure, RuntimeError):
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
    """The final class angle of every lane of one walk, as one array; see propagate_through.

    The angles are proj_class's: atan2 per lane through math, then ProjPoint's
    reduction mod pi and its guard as array operations.  A (0, 0) lane
    raises ZeroVector; a NaN lane gives a NaN angle.
    """
    # Python floats overflow to inf and nan without a word; so do the lanes
    with np.errstate(over="ignore", invalid="ignore"):
        final = propagate_through(problem, e, step, jumps).final
        u, du = final.u, final.du
        if ((u == 0.0) & (du == 0.0)).any():
            raise ZeroVector("the zero vector has no projective class")
        angles = _mapped(math.atan2, u, du) % math.pi
    return np.where(angles >= math.pi, 0.0, angles)


def boundary_mismatch(problem: Problem, e, step: StepControl = DEFAULT_STEP):
    """Signed angular defect at b in (-pi/2, pi/2]; vanishes exactly at eigenvalues.

    e may also be a 1-D array of energies; they are propagated together as
    lanes and the result is the list of their defects, each equal bit for
    bit to the defect of that energy alone.
    """
    if not isinstance(e, np.ndarray):
        return _signed_defect(problem, matching_gamma(problem, e, step))
    with np.errstate(invalid="ignore"):
        d = (_lane_classes(problem, e, step) - problem.bc_right.angle) % math.pi
    return np.where(d > math.pi / 2, d - math.pi, d).tolist()


def realized_mismatches(problem: Problem, e: float, columns,
                        step: StepControl = DEFAULT_STEP):
    """eigen_test's mismatch at e with Iwasawa fields of the jumps replaced, lane by lane.

    columns maps a field, "alpha", "r" or "theta", to one 1-D array per site
    holding that site's value of the field in each lane; a field missing
    from columns keeps every site's own value.  All lanes are one walk at
    the one energy e, so the exact route builds each piece matrix and the
    RK4 route each pass's step product once, and each lane's state
    converges on its own.  Only the jumps differ between lanes: alpha and r
    enter them through + - * / alone, theta through math per lane, so each
    lane has the bits of eigen_test on its realized problem.
    """
    if not set(columns) <= set(PARAMETERS):
        raise ValueError(f"fields must be among {PARAMETERS}")
    jumps = []
    for k, site in enumerate(problem.interactions):
        p = site.params
        alpha, r = (columns[f][k] if f in columns else getattr(p, f) for f in ("alpha", "r"))
        if "theta" in columns:
            thetas = [t % TWO_PI for t in columns["theta"][k].tolist()]
            ct = np.array(list(map(math.cos, thetas)))
            st = np.array(list(map(math.sin, thetas)))
        else:
            ct, st = math.cos(p.theta), math.sin(p.theta)
        if "r" in columns and not (r > 0.0).all():
            raise InvalidDilation(f"r = {float(r[~(r > 0.0)][0])!r} must be > 0")
        jumps.append(_compose(alpha, r, ct, st))
    with np.errstate(invalid="ignore"):
        d = np.abs(_lane_classes(problem, e, step, jumps) - problem.bc_right.angle) % math.pi
        return np.minimum(d, math.pi - d).tolist()


def _finite(e, m):
    """m, the mismatch at e, unless it is NaN or infinite: then a numerical failure."""
    if not math.isfinite(m):
        raise FloatingPointError(f"boundary mismatch is {m!r} at E = {e!r}")
    return m


def _guarded(m0, m1):
    """Whether mismatches m0 and m1 straddle a root rather than a wrap-around."""
    return m0 * m1 < 0.0 and abs(m1 - m0) < WRAP_GUARD


def refine_root(f, lo, hi, flo, fhi, tol):
    """A root of f in the guarded sign change (lo, hi), by ITP; None if there is none.

    flo and fhi are f(lo) and f(hi).  The ITP method (Oliveira and Takahashi,
    ACM TOMS 47(1), 2020) with kappa1 = 0.2 / (hi - lo), kappa2 = 2 and n0 = 1
    steps from the regula-falsi point towards the midpoint, never farther
    from it than keeps the bracket within one halving of bisection's
    schedule: at most one evaluation more than bisection, far fewer on a
    smooth f.  A trial point x replaces hi only when (lo, x) is a guarded
    sign change, otherwise lo; while (lo, hi) is not one (a wrap-around of
    the cut lies inside) the trial point is the midpoint.  An exact zero is
    returned as it is, else the midpoint once the bracket is no wider than
    tol or no float lies strictly between its ends, or None if the bracket
    is then no guarded sign change: a wrap-around, not a root.
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
        if _guarded(flo, fhi):
            r = max(0.0, math.ldexp(tol - 2.0 * ulp, n_max - j - 1) - 0.5 * (hi - lo))
            xf = (lo * fhi - hi * flo) / (fhi - flo)
            sigma = math.copysign(1.0, mid - xf)
            delta = kappa1 * (hi - lo) ** 2
            xt = xf + sigma * delta if delta <= abs(mid - xf) else mid
            x = xt if abs(xt - mid) <= r else mid - sigma * r
            if not lo < x < hi:
                x = mid
        fx = f(x)
        if fx == 0.0:
            return x
        if _guarded(flo, fx):
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
        j += 1
    return 0.5 * (lo + hi) if _guarded(flo, fhi) else None


def eigenvalues_in_range(problem: Problem, e_lo: float, e_hi: float, grid: int,
                         tol: float = 1e-10,
                         step: StepControl = DEFAULT_STEP):
    """Eigenvalues found by bracketing sign changes of the signed mismatch.

    The mismatch is evaluated at `grid` equispaced energies, all in one
    batched propagation with one lane per energy; each sign change that is
    not a wrap-around of the cut is refined by refine_root, one energy at a
    time, to tol; a cell that held a wrap-around and no root gives no
    report.  Complete only up to the grid resolution: roots closer together
    than one grid cell can be missed.  A NaN or infinite mismatch, on the
    grid or in a refinement, raises FloatingPointError naming its energy.
    """
    if not e_lo < e_hi:
        raise ValueError("need e_lo < e_hi")
    if grid < 2:
        raise ValueError("grid must be at least 2")
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    def mismatch(e):  # looked up per call, so wrappers of boundary_mismatch see it
        return _finite(e, boundary_mismatch(problem, e, step))
    es = [e_lo + (e_hi - e_lo) * i / (grid - 1) for i in range(grid)]
    ms = [_finite(e, m) for e, m in zip(es, boundary_mismatch(problem, np.array(es), step))]
    found = []
    for i in range(grid - 1):
        m0, m1 = ms[i], ms[i + 1]
        if m0 == 0.0:
            found.append(es[i])
        elif _guarded(m0, m1):
            found.append(refine_root(mismatch, es[i], es[i + 1], m0, m1, tol))
    if ms[-1] == 0.0:
        found.append(es[-1])
    return [eigen_test(problem, e, step) for e in sorted(e for e in found if e is not None)]


# ---------------------------------------------------------------- dichotomies

_ALPHA_OFFSETS = (-2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0)
_THETA_OFFSETS = (math.pi / 3, -math.pi / 4, 0.7, -1.1, 1.9, 2.5, -2.9, 0.4)
# the last four are np.random.default_rng(181_818).uniform(0.1, 10.0, 4)
_R_FACTORS = (0.25, 0.5, 2.0, 4.0,
              2.600069789982977, 1.9879809928131342, 4.001663524563106, 2.6929767327061156)


def _retest_values(params, parameter):
    """The perturbed values of one parameter at which a site's verdict is re-tested."""
    if parameter == "alpha":
        return [params.alpha + d for d in _ALPHA_OFFSETS]
    if parameter == "r":
        return [params.r * f for f in _R_FACTORS]
    # pi-shifts keep the eigenvalue, everything else must lose it
    return ([params.theta + math.pi, params.theta - math.pi]
            + [params.theta + d for d in _THETA_OFFSETS])


def _fixed_class_verdict(params, parameter, cls, tol):
    """The verdict of one parameter from the class cls just left of its site."""
    if parameter == "theta":
        return DichotomyVerdict(parameter, PERIODIC_IN_THETA)
    fixed = r_fixed_classes(params) if parameter == "r" else (alpha_fixed_class(params),)
    matched = next((f for f in fixed if cls.distance(f) <= tol), None)
    return DichotomyVerdict(parameter, ONLY_ORIGINAL if matched is None else ALL_VALUES, matched)


def _check_retests(e, parameter, verdict, outcomes):
    """Raise CrossCheckFailure unless the re-test outcomes (kept or not) fit the verdict."""
    if parameter == "theta":
        if not all(outcomes[:2]):
            raise CrossCheckFailure(f"theta shift by pi lost E = {e}")
        outcomes, expect_keep = outcomes[2:], False
    else:
        expect_keep = verdict == ALL_VALUES
    if any(o != expect_keep for o in outcomes):
        raise CrossCheckFailure(
            f"{parameter} verdict {verdict} contradicted by re-tests {outcomes}")


def _cross_check(problem, e, checks, tol, step):
    """Re-test every (site index, verdict) pair of checks as lanes of one walk at e.

    The checks run in order, so the first contradicted verdict raises.  If
    the joint walk fails, each verdict's re-tests are walked alone in turn,
    so the first one whose walk fails raises as it would on its own.
    """
    if not checks:
        return
    values = [_retest_values(problem.interactions[i].params, v.parameter) for i, v in checks]
    ends = list(accumulate(map(len, values), initial=0))
    # every lane holds each site's own fields but for its verdict's one value
    columns = {par: [np.full(ends[-1], getattr(site.params, par))
                     for site in problem.interactions]
               for par in dict.fromkeys(v.parameter for _, v in checks)}
    for (i, v), vals, lo, hi in zip(checks, values, ends, ends[1:]):
        columns[v.parameter][i][lo:hi] = vals
    try:
        ms = realized_mismatches(problem, e, columns, step)
    except ArithmeticError:
        ms = None
    for (i, v), lo, hi in zip(checks, ends, ends[1:]):
        if ms is None:
            group = realized_mismatches(
                problem, e, {v.parameter: [c[lo:hi] for c in columns[v.parameter]]}, step)
        else:
            group = ms[lo:hi]
        _check_retests(e, v.parameter, v.verdict, [m <= tol for m in group])


def classify_sites(problem: Problem, e: float, sites, parameters=PARAMETERS,
                   tol: float = 1e-6, step: StepControl = DEFAULT_STEP):
    """eigen_test's report at e and the verdict of every parameter at every site.

    sites holds site indices.  Returns (report, verdicts), where
    verdicts[j][n] is the DichotomyVerdict of parameters[n] at site
    sites[j] (see classify_dichotomy for their meaning).  One eigen_test
    gives every fixed-class verdict.  The re-tests of all of them, 8 alpha,
    8 r and 10 theta values per site, are lanes of one walk at e, and the
    verdicts are checked site by site in the order of parameters: the first
    one the re-tests contradict raises CrossCheckFailure.
    """
    sites = list(sites)
    for parameter in parameters:
        if parameter not in PARAMETERS:
            raise ValueError(f"parameter must be one of {PARAMETERS}")
    for i in sites:
        if not 0 <= i < len(problem.interactions):
            raise ValueError(f"no interaction site #{i}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    report = eigen_test(problem, e, step)
    if not report.mismatch <= tol:  # a NaN mismatch fails too
        raise NotAnEigenvalue(
            f"E = {e} has mismatch {report.mismatch:.3e} > tol {tol}")
    verdicts = [[_fixed_class_verdict(problem.interactions[i].params, par,
                                      report.left_limit_classes[i], tol) for par in parameters]
                for i in sites]
    _cross_check(problem, e, [(i, v) for i, row in zip(sites, verdicts) for v in row], tol, step)
    return report, verdicts


def classify_dichotomy(problem: Problem, e: float, site_index: int, parameter: str,
                       tol: float = 1e-6, step: StepControl = DEFAULT_STEP) -> DichotomyVerdict:
    """Decide whether varying one Iwasawa parameter at one site keeps e an eigenvalue.

    theta always yields PeriodicInTheta (pi-shifts and nothing else keep the
    eigenvalue).  For r and alpha the verdict is AllValues exactly when the
    eigenfunction's class just left of the site lies on the corresponding
    fixed class(es); for r the matched class is reported since the two fixed
    classes arise differently; tol bounds both the mismatch at e and the
    distance to a fixed class.  The verdict is confirmed by re-testing 8
    perturbed parameter values (for theta also the two pi-shifts), all as
    lanes of one walk at e.  It is classify_sites for one site and one
    parameter.
    """
    ((verdict,),) = classify_sites(problem, e, [site_index], [parameter], tol, step)[1]
    return verdict
