"""Eigenvalue detection by projective shooting and the stability classifiers.

E is an eigenvalue exactly when the solution admitted by the left boundary
angle, pushed through every jump, lands on the right boundary class.  In
floating point that membership is tolerance-relative, so every report
carries the raw angular mismatch for consumers to re-threshold.

The eigenvalue scan evaluates its grid energies as one batch of lanes (see
transfer), each equal bit for bit to that energy alone; the ITP root
refinement (refine_root, also used on lift crossings by slspec.random) and
the reports run one energy at a time.

A realization is the problem with one Iwasawa field of its jumps replaced.
realized_mismatches evaluates a batch of them as one walk at a fixed energy,
one lane per realization, each equal bit for bit to eigen_test on that
realized problem; the lanes' final classes and mismatches are array
operations over angles that math's atan2 gives lane by lane.  Monte Carlo
uses it.  A dichotomy re-test changes site k alone, so it ends in the class
of T_k J' w_k: J' is its jump, w_k the class just left of the site, and the
site map T_k carries data from just right of site k to b.  classify_sites
takes every w_k from the eigen_test that gives the fixed-class verdicts,
builds the maps once, backwards from b, and walks no re-test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import Problem, _wrap_half_pi, propagate_through
from .sl2 import (TWO_PI, InvalidDilation, Mat2, NumericalFailure, ProjPoint, ZeroVector,
                  _compose, alpha_fixed_class, iwasawa_compose, proj_class, r_fixed_classes)
from .transfer import DEFAULT_STEP, StepControl, _mapped, transfer_matrix

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


def _class_angles(u, du):
    """The class angle of every lane (u, du), as proj_class gives it, as one array.

    atan2 per lane through math, then ProjPoint's reduction mod pi and its
    guard; a (0, 0) lane raises ZeroVector and a NaN lane gives NaN.
    """
    if ((u == 0.0) & (du == 0.0)).any():
        raise ZeroVector("the zero vector has no projective class")
    angles = _mapped(math.atan2, u, du) % math.pi
    return np.where(angles >= math.pi, 0.0, angles)


def _mismatches(problem, u, du):
    """eigen_test's mismatch of every lane (u, du) at b, as a list."""
    d = np.abs(_class_angles(u, du) - problem.bc_right.angle) % math.pi
    return np.minimum(d, math.pi - d).tolist()


def boundary_mismatch(problem: Problem, e, step: StepControl = DEFAULT_STEP):
    """Signed angular defect at b in (-pi/2, pi/2]; vanishes exactly at eigenvalues.

    e may also be a 1-D array of energies; they are propagated together as
    lanes and the result is the list of their defects, each equal bit for
    bit to the defect of that energy alone.
    """
    if not isinstance(e, np.ndarray):
        return _signed_defect(problem, matching_gamma(problem, e, step))
    # Python floats overflow to inf and nan without a word; so do the lanes
    with np.errstate(over="ignore", invalid="ignore"):
        final = propagate_through(problem, e, step).final
        d = (_class_angles(final.u, final.du) - problem.bc_right.angle) % math.pi
    return np.where(d > math.pi / 2, d - math.pi, d).tolist()


def _site_jumps(params, field, values):
    """P_alpha H_r E_theta of params with field set to each of the array values, as lanes.

    Each lane has the bits of iwasawa_compose: theta goes through math per lane.
    """
    alpha, r = (values if f == field else getattr(params, f) for f in ("alpha", "r"))
    if field == "r" and not (r > 0.0).all():
        raise InvalidDilation(f"r = {float(r[~(r > 0.0)][0])!r} must be > 0")
    if field == "theta":
        thetas = values % TWO_PI  # numpy's float remainder is Python's
        return _compose(alpha, r, _mapped(math.cos, thetas), _mapped(math.sin, thetas))
    return _compose(alpha, r, math.cos(params.theta), math.sin(params.theta))


def realized_mismatches(problem: Problem, e: float, field: str, columns,
                        step: StepControl = DEFAULT_STEP):
    """eigen_test's mismatch at e with one Iwasawa field of the jumps replaced, lane by lane.

    field is "alpha", "r" or "theta"; columns holds one 1-D array per site
    with that site's value of the field in each lane.  All lanes are one
    walk at e, which builds each piece matrix or RK4 pass product once; each
    lane's state converges on its own and has the bits of eigen_test on its
    realized problem.
    """
    if field not in PARAMETERS:
        raise ValueError(f"field must be one of {PARAMETERS}")
    jumps = [_site_jumps(site.params, field, col)
             for site, col in zip(problem.interactions, columns)]
    # Python floats overflow to inf and nan without a word; so do the lanes
    with np.errstate(over="ignore", invalid="ignore"):
        final = propagate_through(problem, e, step, jumps).final
        return _mismatches(problem, final.u, final.du)


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


def _check_retests(e, parameter, verdict, mismatches, tol):
    """Raise CrossCheckFailure unless the re-tests keeping e (mismatch <= tol) fit the verdict."""
    outcomes = [m <= tol for m in mismatches]
    if parameter == "theta":
        if not all(outcomes[:2]):
            raise CrossCheckFailure(f"theta shift by pi lost E = {e}")
        outcomes, expect_keep = outcomes[2:], False
    else:
        expect_keep = verdict == ALL_VALUES
    if any(o != expect_keep for o in outcomes):
        raise CrossCheckFailure(
            f"{parameter} verdict {verdict} contradicted by re-tests {outcomes}")


def _cross_check(problem, e, lefts, checks, tol, step):
    """Re-test every (site index, verdict) pair of checks at e from the site maps, in order.

    A re-test with jump J' at site k ends in the class of T_k J' lefts[k]
    (see the module docstring).  The maps are built backwards from b, from
    transfer_matrix between consecutive sites and the sites' own jumps, each
    rescaled to a largest entry of 1 since only classes are read.  The first
    contradicted verdict raises.
    """
    sites = problem.interactions
    maps, x, t = {}, problem.b, Mat2.identity()
    for k in range(len(sites) - 1, min((i for i, _ in checks), default=len(sites)) - 1, -1):
        t = t @ transfer_matrix(problem.potential, x, sites[k].x, e, step)
        top = max(map(abs, t.entries()))
        maps[k] = t = Mat2(*(c / top for c in t.entries()))
        t, x = t @ iwasawa_compose(sites[k].params), sites[k].x
    for i, v in checks:
        params = sites[i].params
        jumps = _site_jumps(params, v.parameter, np.array(_retest_values(params, v.parameter)))
        # overflow and NaN are silent, as in a walk, and fail their re-test
        with np.errstate(over="ignore", invalid="ignore"):
            ms = _mismatches(problem, *maps[i].apply(jumps.apply(lefts[i].vector())))
        _check_retests(e, v.parameter, v.verdict, ms, tol)


def classify_sites(problem: Problem, e: float, sites, parameters=PARAMETERS,
                   tol: float = 1e-6, step: StepControl = DEFAULT_STEP):
    """eigen_test's report at e and the verdict of every parameter at every site.

    sites holds site indices.  Returns (report, verdicts), where
    verdicts[j][n] is the DichotomyVerdict of parameters[n] at site
    sites[j] (see classify_dichotomy for their meaning).  One eigen_test
    gives every fixed-class verdict.  The re-tests of all of them, 8 alpha,
    8 r and 10 theta values per site, come from the site maps at e with no
    further walk (see _cross_check), and the verdicts are checked site by
    site in the order of parameters: the first one the re-tests contradict
    raises CrossCheckFailure.
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
    _cross_check(problem, e, report.left_limit_classes,
                 [(i, v) for i, row in zip(sites, verdicts) for v in row], tol, step)
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
    perturbed parameter values (for theta also the two pi-shifts), all from
    the site maps at e.  It is classify_sites for one site and one
    parameter.
    """
    ((verdict,),) = classify_sites(problem, e, [site_index], [parameter], tol, step)[1]
    return verdict
