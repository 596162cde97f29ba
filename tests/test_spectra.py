"""Eigenvalue detection, the matching right angle, and the dichotomy verdicts."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slspec.spectra
from slspec.cli import main
from slspec.problem import PointInteraction, Problem, problem_from_json, with_site_params
from slspec.sl2 import IwasawaParams, Mat2, ProjPoint, iwasawa_decompose, proj_class
from slspec.spectra import (
    ALL_VALUES,
    ONLY_ORIGINAL,
    PARAMETERS,
    PERIODIC_IN_THETA,
    CrossCheckFailure,
    NotAnEigenvalue,
    boundary_mismatch,
    classify_dichotomy,
    classify_sites,
    eigen_test,
    eigenvalues_in_range,
    matching_gamma,
)
from slspec.transfer import (DEFAULT_STEP, ConstantPotential, GridPotential, IntegrationFailure,
                             PiecewisePotential, StepControl, propagate_state)

PI = math.pi


def dirichlet_box(length=PI, v=0.0, interactions=()):
    return Problem(0.0, length, ConstantPotential(v), tuple(interactions),
                   ProjPoint(0.0), ProjPoint(0.0))


def delta_site(x, strength):
    return PointInteraction(x, iwasawa_decompose(Mat2(1.0, 0.0, strength, 1.0)))


def site_class(problem, x, e):
    """Class of the unperturbed left-admissible solution at x."""
    s = propagate_state(problem.potential, problem.initial_state(), x, e)
    return proj_class(s.u, s.du)


def aligned_problem(theta_offset, x0=1.0, e=4.0, alpha=0.7, r=1.3):
    """Box problem with one site whose theta is tied to the solution class there.

    theta = psi + offset with psi the class angle at the site; the right
    boundary angle is then chosen to make e an exact eigenvalue.
    """
    base = dirichlet_box()
    psi = site_class(base, x0, e).angle
    site = PointInteraction(x0, IwasawaParams(alpha, r, psi + theta_offset))
    prob = Problem(0.0, PI, base.potential, (site,), base.bc_left, ProjPoint(0.0))
    gamma = matching_gamma(prob, e)
    return Problem(0.0, PI, base.potential, (site,), base.bc_left, gamma)


# ------------------------------------------------------------------ eigen_test

def test_box_ground_state():
    rep = eigen_test(dirichlet_box(), 1.0)
    assert rep.E == 1.0
    assert rep.mismatch <= 1e-8
    assert rep.left_limit_classes == ()


def test_box_non_eigenvalue():
    assert eigen_test(dirichlet_box(), 2.0).mismatch > 0.1


def test_delta_at_node_keeps_eigenvalue_for_every_strength():
    # u = sin(2x) vanishes at pi/2, so the jump there acts trivially on the
    # class and E = 4 stays an eigenvalue for every delta strength
    for strength in (-5.0, -1.0, 0.0, 1.0, 5.0):
        prob = dirichlet_box(interactions=[delta_site(PI / 2, strength)])
        assert eigen_test(prob, 4.0).mismatch <= 1e-8


def test_delta_off_node_destroys_ground_state():
    for strength in (-1.0, -0.1, 0.1, 1.0):
        prob = dirichlet_box(interactions=[delta_site(PI / 2, strength)])
        assert eigen_test(prob, 1.0).mismatch > 1e-3
    prob = dirichlet_box(interactions=[delta_site(PI / 2, 0.0)])
    assert eigen_test(prob, 1.0).mismatch <= 1e-8


def test_left_limit_classes_recorded():
    prob = dirichlet_box(interactions=[delta_site(PI / 2, 1.0)])
    rep = eigen_test(prob, 4.0)
    assert len(rep.left_limit_classes) == 1
    assert rep.left_limit_classes[0].distance(proj_class(0.0, 1.0)) < 1e-9


# -------------------------------------------------------------- matching gamma

def test_matching_gamma_quarter_circle():
    prob = Problem(0.0, PI / 2, ConstantPotential(0.0), (),
                   ProjPoint(0.0), ProjPoint(0.0))
    g = matching_gamma(prob, 1.0)
    assert g.distance(ProjPoint(PI / 2)) < 1e-9


def test_matching_gamma_short_interval_limit():
    prob = Problem(0.0, 1e-8, ConstantPotential(0.0), (),
                   ProjPoint(0.7), ProjPoint(0.0))
    assert matching_gamma(prob, 5.0).distance(ProjPoint(0.7)) < 1e-6


def test_matching_gamma_stable_under_tolerance_change():
    # two integration tolerances must agree mod pi within the looser one;
    # a grid potential exercises the step-controlled route
    from slspec.transfer import GridPotential, StepControl
    xs = np.linspace(0.0, 2.0, 41)
    v = GridPotential(tuple(xs), tuple(np.sin(3 * xs)))
    prob = Problem(0.0, 2.0, v, (), ProjPoint(0.4), ProjPoint(0.0))
    for e in (1.0, 7.0, 19.0):
        loose = matching_gamma(prob, e, StepControl(tol=1e-6))
        tight = matching_gamma(prob, e, StepControl(tol=1e-10))
        assert loose.distance(tight) <= 1e-6


def test_matching_gamma_self_consistency():
    rng = np.random.default_rng(63)
    for _ in range(25):
        v = PiecewisePotential((0.0, 0.7, 1.4, 2.0), tuple(rng.uniform(-3, 3, 3)))
        sites = [PointInteraction(0.9, IwasawaParams(rng.uniform(-2, 2),
                                                     rng.uniform(0.4, 2.5),
                                                     rng.uniform(0, 2 * PI)))]
        e = rng.uniform(-2, 15)
        prob = Problem(0.0, 2.0, v, tuple(sites),
                       ProjPoint(rng.uniform(0, PI)), ProjPoint(0.0))
        g = matching_gamma(prob, e)
        tuned = Problem(0.0, 2.0, v, tuple(sites), prob.bc_left, g)
        assert eigen_test(tuned, e).mismatch <= 1e-7


# ------------------------------------------------------------------- searching

def test_box_spectrum():
    reports = eigenvalues_in_range(dirichlet_box(), 0.5, 20.0, 200, tol=1e-10)
    got = [r.E for r in reports]
    assert len(got) == 4
    for e, want in zip(got, (1.0, 4.0, 9.0, 16.0)):
        assert abs(e - want) < 1e-6


@pytest.mark.parametrize("length", [1.0, PI, 2.5])
def test_box_spectrum_lengths(length):
    want = [(n * PI / length) ** 2 for n in range(1, 6)]
    reports = eigenvalues_in_range(dirichlet_box(length), want[0] / 2,
                                   want[-1] + 1.0, 400, tol=1e-12)
    got = [r.E for r in reports]
    assert len(got) == 5
    for e, w in zip(got, want):
        assert abs(e - w) / w < 1e-6


# ----------------------------------------------- root refinement vs bisection

# the reference bisection and the counted scan are fixtures in conftest.py

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def scan_cases(draw):
    """A piecewise problem with up to two sites and a scan fine enough for its spectrum."""
    length = draw(st.floats(1.0, 3.0, **finite))
    pieces = draw(st.integers(1, 3))
    values = draw(st.lists(st.floats(-5.0, 5.0, **finite), min_size=pieces, max_size=pieces))
    breaks = tuple(length * k / pieces for k in range(pieces)) + (length,)
    sites = tuple(
        PointInteraction(draw(st.floats(0.1, 0.9)) * length,
                         IwasawaParams(draw(st.floats(-2.0, 2.0)), draw(st.floats(0.5, 2.0)),
                                       draw(st.floats(0.0, 2 * PI))))
        for _ in range(draw(st.integers(0, 2))))
    sites = tuple(sorted({s.x: s for s in sites}.values(), key=lambda s: s.x))
    problem = Problem(0.0, length, PiecewisePotential(breaks, tuple(values)), sites,
                      ProjPoint(draw(st.floats(0.0, PI))), ProjPoint(draw(st.floats(0.0, PI))))
    e_lo = draw(st.floats(-5.0, 5.0, **finite))
    e_hi = e_lo + draw(st.floats(10.0, 40.0, **finite))
    grid = draw(st.integers(60, 120))
    tol = draw(st.sampled_from([1e-8, 1e-10, 1e-12]))
    return problem, e_lo, e_hi, grid, tol


# the mismatch of this cell near E = 0 bends so that regula falsi stalls on
# one side: ITP runs on bisection's schedule to its last step
STALLING = (Problem(0.0, 3.0, PiecewisePotential((0.0, 1.5, 3.0), (0.0, 2.0)), (),
                    ProjPoint(2.0), ProjPoint(0.5)), 0.0, 10.0, 60, 1e-8)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scan_cases())
@example(STALLING)
def test_itp_against_reference_bisection(bisection_bound, case):
    bisection_bound(*case)


def test_refinement_stops_at_adjacent_floats(counted_scan):
    # a tol below the float spacing: the bracket stops shrinking once no
    # float lies strictly between its ends; the wrap-around cell near
    # E = 1.44 is refined as long and then gives no report
    problem = Problem(0.0, 3.0, ConstantPotential(0.37), (), ProjPoint(0.2), ProjPoint(1.1))
    reports, cells = counted_scan(problem, 0.5, 9.0, 10, 1e-17, budget=500)
    assert len(reports) == 2 and len(cells) == 3 and max(cells.values()) <= 64
    genuine = eigenvalues_in_range(problem, 0.5, 9.0, 10, 1e-10)
    for got, want in zip(reports, genuine):
        assert abs(got.E - want.E) <= 1e-10


def test_nan_mismatch_names_its_energy():
    # two V = 1000 pieces of length 15: the exact route overflows to NaN
    problem = Problem(0.0, 30.0, PiecewisePotential((0.0, 15.0, 30.0), (1000.0, 1000.0)),
                      (), ProjPoint(0.0), ProjPoint(0.0))
    with pytest.raises(FloatingPointError, match=r"nan at E = -5\.0$"):
        eigenvalues_in_range(problem, -5.0, 34.0, 20)


def test_search_validation():
    prob = dirichlet_box()
    with pytest.raises(ValueError):
        eigenvalues_in_range(prob, 2.0, 1.0, 10)
    with pytest.raises(ValueError):
        eigenvalues_in_range(prob, 0.0, 1.0, 1)


def test_search_against_dense_scan():
    # independent oracle: a 10x denser mismatch scan must bracket the same roots
    prob = dirichlet_box(interactions=[delta_site(PI / 2, 1.0)])
    reports = eigenvalues_in_range(prob, 0.5, 26.0, 120, tol=1e-10)
    es = np.linspace(0.5, 26.0, 1200)
    ms = [boundary_mismatch(prob, float(e)) for e in es]
    dense = []
    for i in range(len(es) - 1):
        if ms[i] * ms[i + 1] < 0 and abs(ms[i + 1] - ms[i]) < PI / 2:
            dense.append((es[i], es[i + 1]))
    assert len(reports) == len(dense)
    for rep, (lo, hi) in zip(reports, dense):
        assert lo - 1e-9 <= rep.E <= hi + 1e-9


# ------------------------------------------------------------------ dichotomy

def test_dichotomy_requires_eigenvalue():
    with pytest.raises(NotAnEigenvalue):
        classify_dichotomy(dirichlet_box(interactions=[delta_site(1.0, 0.5)]),
                           2.0, 0, "alpha")


@pytest.mark.parametrize("parameter", PARAMETERS)
def test_dichotomy_nan_mismatch_is_not_an_eigenvalue(parameter):
    # a NaN theta makes the mismatch NaN, which no tolerance admits
    site = PointInteraction(1.0, IwasawaParams(0.0, 1.0, math.nan))
    with pytest.raises(NotAnEigenvalue):
        classify_dichotomy(dirichlet_box(interactions=[site]), 1.0, 0, parameter)


def test_dichotomy_theta_always_periodic():
    prob = aligned_problem(0.123)
    v = classify_dichotomy(prob, 4.0, 0, "theta")
    assert v.verdict == PERIODIC_IN_THETA
    params = prob.interactions[0].params
    kept = eigen_test(with_site_params(prob, 0, theta=params.theta + PI), 4.0)
    assert kept.mismatch <= 1e-9
    lost = eigen_test(with_site_params(prob, 0, theta=params.theta + PI / 3), 4.0)
    assert lost.mismatch > 1e-4


def test_dichotomy_alpha_all_values_when_aligned():
    # theta = psi + pi/2 puts the solution class on (cos t, -sin t)
    prob = aligned_problem(PI / 2)
    va = classify_dichotomy(prob, 4.0, 0, "alpha")
    assert va.verdict == ALL_VALUES
    vr = classify_dichotomy(prob, 4.0, 0, "r")
    assert vr.verdict == ALL_VALUES
    assert vr.matched_fixed_class is not None


def test_dichotomy_r_all_values_alpha_original_when_on_first_class():
    # theta = psi puts the solution class on (sin t, cos t): r-insensitive
    # but alpha-sensitive
    prob = aligned_problem(0.0)
    vr = classify_dichotomy(prob, 4.0, 0, "r")
    assert vr.verdict == ALL_VALUES
    va = classify_dichotomy(prob, 4.0, 0, "alpha")
    assert va.verdict == ONLY_ORIGINAL


def test_dichotomy_generic_only_original():
    prob = aligned_problem(0.456)
    assert classify_dichotomy(prob, 4.0, 0, "alpha").verdict == ONLY_ORIGINAL
    assert classify_dichotomy(prob, 4.0, 0, "r").verdict == ONLY_ORIGINAL


def test_dichotomy_delta_at_node():
    # with u(p-) = 0 the class (0,1) is off both Iwasawa fixed classes of the
    # decomposed delta matrix (theta* = pi/4), so the Iwasawa-shear and
    # dilation directions lose the eigenvalue even though the delta-strength
    # family itself keeps it
    prob = dirichlet_box(interactions=[delta_site(PI / 2, 1.0)])
    assert classify_dichotomy(prob, 4.0, 0, "alpha").verdict == ONLY_ORIGINAL
    assert classify_dichotomy(prob, 4.0, 0, "r").verdict == ONLY_ORIGINAL
    assert classify_dichotomy(prob, 4.0, 0, "theta").verdict == PERIODIC_IN_THETA


def test_dichotomy_validation():
    prob = aligned_problem(0.2)
    with pytest.raises(ValueError):
        classify_dichotomy(prob, 4.0, 0, "beta")
    with pytest.raises(ValueError):
        classify_dichotomy(prob, 4.0, 3, "alpha")
    # a tolerance no mismatch can meet is a usage error, not a failed eigen test
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="^tol must be positive$"):
            classify_dichotomy(prob, 4.0, 0, "alpha", tol)


def test_r_factors_are_the_seeded_draws():
    # the dilation re-tests' factors are written out, so that importing
    # slspec does not load numpy.random; they are these draws
    drawn = np.random.default_rng(181_818).uniform(0.1, 10.0, 4).tolist()
    assert slspec.spectra._R_FACTORS == (0.25, 0.5, 2.0, 4.0, *drawn)


# A problem that the degenerate construction built for one generic-theta
# benchmark job (piecewise V, three sites).  The eigenfunction's class left of
# site 0 is 0.013 from its shear-fixed class, far outside tol, so the class
# test says OnlyOriginal, while six of the eight shear re-tests keep E
# within tol.
BUILT_PROBLEM = {
    "a": 0.0, "b": 7.3884674152157785, "bc_left": 0.0, "bc_right": 0.0,
    "interactions": [
        {"x": 1.196626355598318, "alpha": 0.0, "r": 1.282051540828449,
         "theta": 1.96113599014826},
        {"x": 2.3596950853370675, "alpha": 0.0, "r": 1.2736110566231,
         "theta": 0.8063800911084402},
        {"x": 3.1383649029934215, "alpha": 0.0, "r": 0.7339364500873236,
         "theta": 2.6768322112397263}],
    "potential": {"kind": "piecewise",
                  "breakpoints": [0.0, 0.9878495723749079, 3.722372543176356,
                                  3.9784666618285, 7.3884674152157785],
                  "values": [-0.23763421857103284, -0.6677941524905437,
                             -0.4156012355106723, 0.2743076147155388]}}
CONTRADICTED = ("alpha verdict OnlyOriginal contradicted by re-tests "
                "[False, True, True, True, True, True, True, False]")


def test_cross_check_failure_on_a_built_problem(bisection_bound, tmp_path, capsys):
    problem = problem_from_json(BUILT_PROBLEM)
    (rep,) = bisection_bound(problem, 10.916949039553856, 11.916949039553856, 201, 1e-10)
    assert rep.E.hex() == "0x1.70d76f6881723p+3"
    for site in range(3):
        for parameter in PARAMETERS:
            if (site, parameter) == (0, "alpha"):
                with pytest.raises(CrossCheckFailure) as exc:
                    classify_dichotomy(problem, rep.E, site, parameter)
                assert str(exc.value) == CONTRADICTED
            else:
                expected = PERIODIC_IN_THETA if parameter == "theta" else ONLY_ORIGINAL
                assert classify_dichotomy(problem, rep.E, site, parameter).verdict == expected
    cfg = {"schema": 1, "problem": BUILT_PROBLEM,
           "eigs": {"e_lo": 10.916949039553856, "e_hi": 11.916949039553856, "grid": 201,
                    "classify": True},
           "output": {"path": str(tmp_path / "eigs.json")}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["--quiet", "--config", str(path), "eigs"]) == 3
    assert capsys.readouterr().err == f"numerical failure: {CONTRADICTED}\n"


def test_theta_countability_scaffold():
    # scanning theta on a pi/720 grid that contains the template angle finds
    # exactly that one admissible angle mod pi
    theta0 = 37 * PI / 720
    base = dirichlet_box()
    site = PointInteraction(1.0, IwasawaParams(0.4, 1.2, theta0))
    prob = Problem(0.0, PI, base.potential, (site,), base.bc_left, ProjPoint(0.0))
    prob = Problem(0.0, PI, base.potential, (site,), base.bc_left,
                   matching_gamma(prob, 4.0))
    admissible = []
    for k in range(720):
        theta = k * PI / 720
        rep = eigen_test(with_site_params(prob, 0, theta=theta), 4.0)
        if rep.mismatch <= 1e-6:
            admissible.append(theta)
    assert len(admissible) == 1
    assert abs(admissible[0] - theta0) < 1e-12


# ------------------------------------------------------- batched classification

def generic_problem(k, e=9.0):
    """The box with k sites of generic parameters; the right angle makes e an eigenvalue."""
    sites = tuple(PointInteraction(PI * (j + 0.7) / (k + 1),
                                   IwasawaParams(0.3 + 0.2 * j, 1.1 + 0.1 * j, 0.4 + 0.5 * j))
                  for j in range(k))
    prob = Problem(0.0, PI, ConstantPotential(0.0), sites, ProjPoint(0.0), ProjPoint(0.0))
    return Problem(0.0, PI, prob.potential, sites, prob.bc_left, matching_gamma(prob, e))


def verdict_bits(v):
    matched = v.matched_fixed_class
    return v.parameter, v.verdict, None if matched is None else matched.angle.hex()


def classified_one_by_one(problem, e, sites, parameters, tol, step):
    """classify_dichotomy of each (site, parameter) in turn, or the first failure."""
    try:
        return [[verdict_bits(classify_dichotomy(problem, e, i, par, tol, step))
                 for par in parameters] for i in sites]
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        return type(exc), str(exc)


def classified_at_once(problem, e, sites, parameters, tol, step):
    try:
        report, verdicts = classify_sites(problem, e, sites, parameters, tol, step)
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        return type(exc), str(exc)
    assert report == eigen_test(problem, e, step)
    return [[verdict_bits(v) for v in row] for row in verdicts]


def tight_grid_problem():
    """Two sites on a grid potential, classified with at most two RK4 refinements.

    A walk of the site-1 theta or alpha re-tests then fails to converge, but
    the site maps do converge; the site-0 alpha re-tests contradict their
    verdict.
    """
    xs = (0.0, 0.42614069282345335, 0.695018778938658, 0.9240854991551473,
          1.3958381296162714, 1.5343549962846472)
    vs = (6.063764206950566, 12.648786692054848, 4.973744496486752, -8.86166548136228,
          -19.882839017235856, 16.684822682591488)
    sites = (PointInteraction(0.5036907251272945,
                              IwasawaParams(-0.4317141447460209, 1.6597690364473792,
                                            4.017375425483777)),
             PointInteraction(0.618125489821457,
                              IwasawaParams(-1.5666998342870304, 1.586104145145881,
                                            5.863518878973802)))
    step = StepControl(tol=5.944956419949145e-06, max_refine=2)
    e = 24.60103476628788
    prob = Problem(0.0, xs[-1], GridPotential(xs, vs), sites, ProjPoint(0.0), ProjPoint(0.0))
    prob = Problem(0.0, xs[-1], prob.potential, sites, prob.bc_left,
                   matching_gamma(prob, e, step))
    return prob, e, [0, 1], step


BUILT_E = float.fromhex("0x1.70d76f6881723p+3")
CLASSIFY_CASES = [
    *[(aligned_problem(offset), 4.0, [0], DEFAULT_STEP) for offset in (0.0, PI / 2, 0.123, 0.456)],
    (dirichlet_box(interactions=[delta_site(PI / 2, 1.0)]), 4.0, [0], DEFAULT_STEP),
    (dirichlet_box(interactions=[delta_site(1.0, 0.5)]), 2.0, [0], DEFAULT_STEP),
    (generic_problem(3), 9.0, [0, 1, 2], DEFAULT_STEP),
    (generic_problem(4), 9.0, [3, 1], DEFAULT_STEP),
    *[(problem_from_json(BUILT_PROBLEM), BUILT_E, sites, DEFAULT_STEP)
      for sites in ([0, 1, 2], [2, 1, 0])],
    tight_grid_problem(),
]


@pytest.mark.parametrize("problem, e, sites, step", CLASSIFY_CASES)
@pytest.mark.parametrize("parameters", [PARAMETERS, PARAMETERS[::-1], ("alpha",), ("r", "theta")])
@pytest.mark.parametrize("tol", [1e-6, 1e-3, 1e-2])
def test_classify_sites_equals_one_by_one(problem, e, sites, step, parameters, tol):
    assert (classified_at_once(problem, e, sites, parameters, tol, step)
            == classified_one_by_one(problem, e, sites, parameters, tol, step))


@pytest.mark.parametrize("problem, e, sites, step", CLASSIFY_CASES)
def test_site_maps_keep_the_walked_outcomes(retest_reference, problem, e, sites, step):
    # every re-test keeps or loses e as a walk of its realization does, at
    # each tol classified above, wherever that walk converges
    unwalked = []
    for i, parameter, mapped, walked in retest_reference(problem, e, step):
        if isinstance(walked, IntegrationFailure):
            unwalked.append((i, parameter))
            continue
        for tol in (1e-6, 1e-3, 1e-2):
            assert [m <= tol for m in mapped] == [m <= tol for m in walked]
    on_grid = not problem.potential.is_piecewise_constant
    assert unwalked == ([(1, "theta"), (1, "alpha")] if on_grid else [])


def test_site_maps_classify_where_a_re_test_walk_fails():
    problem, e, sites, step = tight_grid_problem()
    assert classify_dichotomy(problem, e, 1, "theta", step=step).verdict == PERIODIC_IN_THETA
    assert classify_dichotomy(problem, e, 1, "alpha", step=step).verdict == ONLY_ORIGINAL
    with pytest.raises(CrossCheckFailure, match="^alpha verdict OnlyOriginal contradicted"):
        classify_sites(problem, e, sites, step=step)


def test_classify_sites_of_nothing():
    problem = generic_problem(2)
    assert classify_sites(problem, 9.0, iter([0, 1]), [])[1] == [[], []]
    assert classify_sites(problem, 9.0, [])[1] == []


def test_first_contradicted_group_raises():
    # at tol 1e-3 the re-tests contradict both the r and the alpha verdict of
    # site 0; the groups are checked in the order given
    problem = problem_from_json(BUILT_PROBLEM)
    messages = {}
    for parameter in ("r", "alpha"):
        with pytest.raises(CrossCheckFailure) as exc:
            classify_dichotomy(problem, BUILT_E, 0, parameter, 1e-3)
        messages[parameter] = str(exc.value)
    assert messages["r"].startswith("r verdict OnlyOriginal contradicted")
    assert messages["alpha"].startswith("alpha verdict OnlyOriginal contradicted")
    for parameters, first in ((PARAMETERS, "r"), (PARAMETERS[::-1], "alpha")):
        with pytest.raises(CrossCheckFailure) as exc:
            classify_sites(problem, BUILT_E, [0, 1, 2], parameters, 1e-3)
        assert str(exc.value) == messages[first]


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_classifying_an_eigenvalue_walks_once(monkeypatch, k):
    # one eigen_test, and the site maps, one transfer_matrix per site, for
    # all 26 k re-tests; at k = 8 the re-tests contradict a verdict, which is
    # found with no further walk too
    problem = generic_problem(k)
    calls = []

    def counted(name):
        real = getattr(slspec.spectra, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(slspec.spectra, name, call)
    for name in ("propagate_through", "transfer_matrix", "realized_mismatches"):
        counted(name)
    try:
        classify_sites(problem, 9.0, range(k))
    except CrossCheckFailure:
        assert k == 8
    assert calls == ["propagate_through"] + ["transfer_matrix"] * k
