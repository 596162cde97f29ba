"""Eigenvalue detection by projective shooting and the stability classifiers.

E is an eigenvalue exactly when the solution admitted by the left boundary
angle, pushed through every jump, lands on the right boundary class.  In
floating point that membership is tolerance-relative, so every report
carries the raw angular mismatch for consumers to re-threshold.

The eigenvalue scan evaluates its grid energies as one batch of lanes (see
transfer), each equal bit for bit to that energy alone; the ITP root
refinement (problem.refine_root, which also refines the lift crossings
of grid walks) and the reports run one energy at a time.  The lifted end angle rises strictly
with E (d theta_b / dE is the integral of u^2 / rho^2), and no jump, being
unimodular and independent of E, stops it rising: the oscillation-theorem
argument of SLEIGN2.  So the signed mismatch rises except where it wraps
from pi/2 down to -pi/2.  Plus pi wherever it lies below its value at a
cell's start, it is the end angle less a constant across any cell where
that angle rises by less than pi, and the scan refines each cell where
this lift ends above its target, 0 or pi.

A realization is the problem with one Iwasawa field of its jumps replaced.
realized_mismatches evaluates a batch of them as one walk at a fixed energy,
one lane per realization, each equal bit for bit to eigen_test on that
realized problem; the lanes' final classes and mismatches are array
operations over angles that math's atan2 gives lane by lane.  Monte Carlo
uses it.  A dichotomy re-test changes site k alone, so it ends in the class
of T_k J' w_k: J' is its jump, w_k the class just left of the site, and the
site map T_k carries data from just right of site k to b.  classify_sites
takes every w_k and fixed-class verdict from its caller's eigen_test
report, builds the maps once, backwards from b, and walks no re-test;
classify_at runs that eigen_test first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import Problem, _wrap_half_pi, propagate_through, refine_root
from .sl2 import (InvalidDilation, Mat2, NumericalFailure, ProjPoint, _compose,
                  _reduced_angle, iwasawa_compose, proj_class, r_fixed_classes)
from .transfer import DEFAULT_STEP, StepControl, _mapped, transfer_matrix

ALL_VALUES = "AllValues"
ONLY_ORIGINAL = "OnlyOriginal"
PERIODIC_IN_THETA = "PeriodicInTheta"

PARAMETERS = ("theta", "r", "alpha")

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


def _class_angles(u, du):
    """The class angle of every lane (u, du), as proj_class gives it, as one array.

    atan2 per lane through math, then ProjPoint's reduction mod pi and its
    guard; a (0, 0) lane, which has no class, and a NaN lane give NaN.
    """
    angles = _mapped(math.atan2, u, du) % math.pi
    angles[(u == 0.0) & (du == 0.0)] = math.nan
    return np.where(angles >= math.pi, 0.0, angles)


def _mismatches(problem, u, du):
    """eigen_test's mismatch of every lane (u, du) at b, as a list."""
    d = np.abs(_class_angles(u, du) - problem.bc_right.angle) % math.pi
    return np.minimum(d, math.pi - d).tolist()


def boundary_mismatch(problem: Problem, e, step: StepControl = DEFAULT_STEP):
    """Signed angular defect at b in (-pi/2, pi/2]; vanishes exactly at eigenvalues.

    e may also be a 1-D array of energies; they are propagated together as
    lanes and the result is the list of their defects, each equal bit for
    bit to the defect of that energy alone.  A walk that overflows raises
    FloatingPointError (see transfer), a batch its first failed lane's error.
    """
    if not isinstance(e, np.ndarray):
        return _wrap_half_pi(matching_gamma(problem, e, step).angle - problem.bc_right.angle)
    # lanes overflow without a word, as Python floats do, until the walk's check
    with np.errstate(over="ignore", invalid="ignore"):
        final = propagate_through(problem, e, step).final
        ms = _wrap_half_pi(_class_angles(final.u, final.du) - problem.bc_right.angle)
    if np.isnan(ms).any():  # the first failed energy raises its error alone
        matching_gamma(problem, e[np.isnan(ms).argmax()].item(), step)
    return ms.tolist()


def _jumps(alpha, r, theta):
    """P_alpha H_r E_theta with iwasawa_compose's bits; any argument may be a lane array.

    One body: theta is reduced as IwasawaParams reduces it, which keeps the
    thetas it holds, and cos and sin go through transfer._mapped; an array r
    raises InvalidDilation at its first lane not > 0.
    """
    if isinstance(r, np.ndarray) and not (r > 0.0).all():
        raise InvalidDilation(f"r = {float(r[~(r > 0.0)][0])!r} must be > 0")
    theta = _reduced_angle(theta)
    return _compose(alpha, r, _mapped(math.cos, theta), _mapped(math.sin, theta))


def realized_mismatches(problem: Problem, e: float, field: str, columns,
                        step: StepControl = DEFAULT_STEP):
    """eigen_test's mismatch at e with one Iwasawa field of the jumps replaced, lane by lane.

    field is "alpha", "r" or "theta"; columns holds one 1-D array per site
    with that site's value of the field in each lane.  All lanes are one
    walk at e, which builds each piece matrix or RK4 pass product once; each
    lane's state converges on its own and has the bits of eigen_test on its
    realized problem, or is NaN where that eigen_test raises.  No sites, or
    another count of columns, is a ValueError before any walk.
    """
    if field not in PARAMETERS:
        raise ValueError(f"field must be one of {PARAMETERS}")
    if not problem.interactions or len(columns) != len(problem.interactions):
        raise ValueError(f"{len(columns)} columns for {len(problem.interactions) or 'no'} sites")
    jumps = [_jumps(**(vars(site.params) | {field: col}))
             for site, col in zip(problem.interactions, columns)]
    # lanes overflow without a word, as Python floats do, until the walk's check
    with np.errstate(over="ignore", invalid="ignore"):
        final = propagate_through(problem, e, step, jumps).final
        return _mismatches(problem, final.u, final.du)


def _lifted(m, m0, t):
    """The mismatch m plus pi where it lies below m0, the cell's first mismatch, less t."""
    return (m if m >= m0 else m + math.pi) - t


def eigenvalues_in_range(problem: Problem, e_lo: float, e_hi: float, grid: int,
                         tol: float = 1e-10,
                         step: StepControl = DEFAULT_STEP):
    """Eigenvalues found by refining each grid cell where the lifted mismatch passes its target.

    The mismatch is evaluated at `grid` equispaced energies, all in one
    batched propagation with one lane per energy.  A cell starting at
    m0 != 0 is refined by refine_root, one energy at a time, to tol, on its
    lift (_lifted, target 0 if m0 < 0, else pi) when that ends above 0:
    every sign change where the mismatch rises, whatever its jump, and
    every cell where it falls without changing sign, but no downward wrap
    (m0 > 0 > m1).  Complete only up to the grid resolution: a cell across
    which the end angle rises by more than pi can lose its roots.  A grid
    above step.max_steps, or an e_lo, e_hi or e_hi - e_lo that is not
    finite, is a ValueError before any propagation; a walk that overflows,
    on the grid or in a refinement, raises FloatingPointError naming its
    energy.
    """
    # a window too wide for a float has a NaN first energy, e_lo + inf * 0
    if not math.isfinite(e_hi - e_lo):
        raise ValueError(f"the energy range [{e_lo!r}, {e_hi!r}] must be finite")
    if not e_lo < e_hi:
        raise ValueError("need e_lo < e_hi")
    if grid < 2:
        raise ValueError("grid must be at least 2")
    if grid > step.max_steps:
        raise ValueError(f"grid = {grid} is more than step.max_steps = {step.max_steps}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    es = [e_lo + (e_hi - e_lo) * i / (grid - 1) for i in range(grid)]
    ms = boundary_mismatch(problem, np.array(es), step)
    found = []
    for i in range(grid - 1):
        m0 = ms[i]
        if m0 == 0.0:
            found.append(es[i])
            continue
        t = 0.0 if m0 < 0.0 else math.pi
        f1 = _lifted(ms[i + 1], m0, t)
        if f1 > 0.0:
            found.append(refine_root(  # boundary_mismatch is looked up per call, for wrappers
                lambda e, m0=m0, t=t: _lifted(boundary_mismatch(problem, e, step), m0, t),
                es[i], es[i + 1], m0 - t, f1, tol))
    if ms[-1] == 0.0:
        found.append(es[-1])
    return [eigen_test(problem, e, step) for e in sorted(found)]


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
    # the alpha-fixed class is the second r-fixed class
    fixed = r_fixed_classes(params)[0 if parameter == "r" else 1:]
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


def _cross_check(problem, report, checks, tol, step):
    """Re-test every (site index, verdict) pair of checks at report.E from the site maps, in order.

    A re-test with jump J' at site k ends in the class of T_k J' w_k, w_k
    the report's class left of site k (see the module docstring).  The maps
    are built backwards from b, from transfer_matrix between consecutive
    sites and the sites' own jumps, each rescaled to a largest entry of 1
    since only classes are read.  All re-tests of all groups are one lane
    array, and the groups are judged in order from its mismatches: the first
    contradicted verdict raises.  A nonpositive r in any lane raises before
    any judgment; a zero end vector, a NaN mismatch, fails its re-test.
    """
    if not checks:
        return
    e, sites = report.E, problem.interactions
    maps, x, t = {}, problem.b, Mat2.identity()
    for k in range(len(sites) - 1, min(i for i, _ in checks) - 1, -1):
        t = t @ transfer_matrix(problem.potential, x, sites[k].x, e, step)
        top = max(map(abs, t.entries()))
        maps[k] = t = Mat2(*(c / top for c in t.entries()))
        t, x = t @ iwasawa_compose(sites[k].params), sites[k].x
    # every re-test of every group is one lane: its site's map and w repeated,
    # its jump composed from the site's parameters with one field replaced
    fields, counts, rows = {f: [] for f in PARAMETERS}, [], []
    for i, v in checks:
        params = sites[i].params
        values = _retest_values(params, v.parameter)
        for f, col in fields.items():
            col += values if f == v.parameter else [getattr(params, f)] * len(values)
        counts.append(len(values))
        rows.append(maps[i].entries() + report.left_limit_classes[i].vector())
    ta, tb, tc, td, w1, w2 = np.repeat(np.array(rows), counts, axis=0).T
    jumps = _jumps(**{f: np.array(col) for f, col in fields.items()})
    # overflow and NaN are silent here (no walk checks them) and fail their re-test
    with np.errstate(over="ignore", invalid="ignore"):
        ms = _mismatches(problem, *Mat2(ta, tb, tc, td).apply(jumps.apply((w1, w2))))
    start = 0
    for (_, v), n in zip(checks, counts):
        _check_retests(e, v.parameter, v.verdict, ms[start:start + n], tol)
        start += n


def _check_sites(problem: Problem, sites, parameters, tol: float) -> list:
    """sites as a list, once it, parameters and tol suit classify_sites; checked before any walk."""
    sites = list(sites)
    for parameter in parameters:
        if parameter not in PARAMETERS:
            raise ValueError(f"parameter must be one of {PARAMETERS}")
    for i in sites:
        if not 0 <= i < len(problem.interactions):
            raise ValueError(f"no interaction site #{i}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    return sites


def classify_sites(problem: Problem, report: EigenReport, sites, parameters=PARAMETERS,
                   tol: float = 1e-6, step: StepControl = DEFAULT_STEP):
    """The verdict of every parameter at every site, from eigen_test's report at E.

    report must be eigen_test(problem, report.E, step), as the caller holds
    it: a report with another number of sites than problem raises
    ValueError, and one of another problem or step gives wrong verdicts.
    sites holds site indices.  Returns verdicts, where verdicts[j][n] is the
    DichotomyVerdict of parameters[n] at site sites[j] (see
    classify_dichotomy).  The report gives every fixed-class verdict.  The
    re-tests of all of them, 8 alpha, 8 r and 10 theta values per site,
    come from the site maps at E with no walk of the problem (see
    _cross_check), and are checked site by site in the order of
    parameters: the first contradicted verdict raises CrossCheckFailure.
    After the arguments, a report mismatch above tol raises NotAnEigenvalue.
    """
    sites = _check_sites(problem, sites, parameters, tol)
    if len(report.left_limit_classes) != len(problem.interactions):
        raise ValueError(f"report has {len(report.left_limit_classes)} sites, problem has "
                         f"{len(problem.interactions)} interactions")
    if report.mismatch > tol:
        raise NotAnEigenvalue(
            f"E = {report.E} has mismatch {report.mismatch:.3e} > tol {tol}")
    verdicts = [[_fixed_class_verdict(problem.interactions[i].params, par,
                                      report.left_limit_classes[i], tol) for par in parameters]
                for i in sites]
    _cross_check(problem, report, [(i, v) for i, row in zip(sites, verdicts) for v in row],
                 tol, step)
    return verdicts


def classify_at(problem: Problem, e: float, sites, parameters=PARAMETERS,
                tol: float = 1e-6, step: StepControl = DEFAULT_STEP):
    """(eigen_test's report at e, classify_sites' verdicts on it).

    The arguments are checked, and sites listed, before the walk, so a bad
    site, parameter or tol raises ValueError whatever the walk would do.
    """
    sites = _check_sites(problem, sites, parameters, tol)
    report = eigen_test(problem, e, step)
    return report, classify_sites(problem, report, sites, parameters, tol, step)


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
    the site maps at e.  It is classify_at for one site and one parameter.
    """
    ((verdict,),) = classify_at(problem, e, [site_index], [parameter], tol, step)[1]
    return verdict
