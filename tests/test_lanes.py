"""Batched energy lanes (their piece matrices and final classes included) and
the vectorized grid sampler agree bit for bit with the one-energy and
one-point paths they replace in the eigenvalue scan, and the realization
lanes of Monte Carlo with eigen_test on each realized problem; the
dichotomy re-tests, taken from site maps, agree with those lanes."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

import slspec.spectra

from slspec.cli import main
from slspec.problem import (PointInteraction, Problem, PropagationResult, _normalized,
                            problem_from_json, with_site_params)
from slspec.random import (
    Ensemble,
    Gaussian,
    PointMass,
    Uniform,
    _draws,
    mismatch_samples,
    monte_carlo,
    sample_realization,
)
from slspec.sl2 import InvalidDilation, IwasawaParams, ProjPoint, ZeroVector, proj_class
from slspec.spectra import (
    boundary_mismatch,
    eigen_test,
    eigenvalues_in_range,
    realized_mismatches,
)
from slspec.transfer import (
    DomainError,
    GridPotential,
    IntegrationFailure,
    PiecewisePotential,
    SolutionState,
    StepControl,
    _const_coeff_matrix,
    _piece_matrix,
)

finite = dict(allow_nan=False, allow_infinity=False)
spacings = st.lists(st.floats(0.02, 0.4, **finite), min_size=1, max_size=25)


@st.composite
def grid_potentials(draw):
    gaps = draw(spacings)
    x0 = draw(st.floats(-2.0, 2.0, **finite))
    xs = [x0]
    for g in gaps:
        xs.append(xs[-1] + g)
    values = draw(st.lists(st.floats(-20.0, 20.0, **finite),
                           min_size=len(xs), max_size=len(xs)))
    return GridPotential(tuple(xs), tuple(values))


@st.composite
def piecewise_potentials(draw):
    gaps = draw(spacings)
    xs = [draw(st.floats(-2.0, 2.0, **finite))]
    for g in gaps:
        xs.append(xs[-1] + g)
    values = draw(st.lists(st.floats(-20.0, 20.0, **finite),
                           min_size=len(gaps), max_size=len(gaps)))
    return PiecewisePotential(tuple(xs), tuple(values))


@st.composite
def problems(draw, potentials, min_sites=0, max_sites=3):
    v = draw(potentials)
    a, b = v.domain
    fractions = draw(st.lists(st.floats(0.05, 0.95, **finite), min_size=min_sites,
                              max_size=max_sites, unique=True))
    sites = []
    for x in sorted(a + f * (b - a) for f in fractions):
        if a < x < b and (not sites or x > sites[-1].x):
            params = IwasawaParams(draw(st.floats(-3.0, 3.0, **finite)),
                                   draw(st.floats(0.3, 3.0, **finite)),
                                   draw(st.floats(0.0, 2 * math.pi, **finite)))
            sites.append(PointInteraction(x, params))
    angle = st.floats(0.0, math.pi, exclude_max=True, **finite)
    return Problem(a, b, v, tuple(sites), ProjPoint(draw(angle)), ProjPoint(draw(angle)))


# short and long batches of energies
energy = st.floats(-25.0, 60.0, **finite)
energies = st.one_of(st.lists(energy, min_size=1, max_size=6),
                     st.lists(energy, min_size=32, max_size=40))
steps = st.sampled_from([StepControl(tol=1e-5), StepControl(tol=1e-6, max_refine=3)])


def one_by_one(problem, es, step):
    """Per-energy defects as hex strings, or the exception type of the first failure."""
    try:
        return [boundary_mismatch(problem, e, step).hex() for e in es]
    except IntegrationFailure:
        return IntegrationFailure


def batched(problem, es, step):
    try:
        return [m.hex() for m in boundary_mismatch(problem, np.array(es), step)]
    except IntegrationFailure:
        return IntegrationFailure


@settings(max_examples=40, deadline=None)
@given(problems(grid_potentials()), energies, steps)
def test_grid_lanes_equal_single_energies(problem, es, step):
    assert batched(problem, es, step) == one_by_one(problem, es, step)


@settings(max_examples=40, deadline=None)
@given(problems(piecewise_potentials()), energies, steps)
def test_piecewise_lanes_equal_single_energies(problem, es, step):
    assert batched(problem, es, step) == one_by_one(problem, es, step)


def test_lanes_converging_at_different_passes():
    # low energies settle on the base step, high ones take several halvings;
    # the live lanes thin out from pass to pass
    nodes = tuple(0.1 * i for i in range(21))
    v = GridPotential(nodes, tuple(4.0 * math.sin(2.0 * x) for x in nodes))
    problem = Problem(0.0, 2.0, v, (PointInteraction(0.9, IwasawaParams(0.5, 1.5, 1.0)),),
                      ProjPoint(0.2), ProjPoint(1.1))
    es = [-10.0 + 410.0 * i / 39 for i in range(40)]
    step = StepControl(tol=1e-8)
    assert batched(problem, es, step) == one_by_one(problem, es, step)


def test_overflowing_lanes_stay_silent_like_floats():
    # exp(sqrt(1000) * 30) overflows: floats go to inf and nan without a
    # warning, and the lanes must do the same, with the same bits
    for v in (PiecewisePotential((0.0, 15.0, 30.0), (1000.0, 1000.0)),
              GridPotential((0.0, 10.0, 30.0), (900.0, 1000.0, 1000.0))):
        problem = Problem(0.0, 30.0, v, (), ProjPoint(0.0), ProjPoint(0.0))
        es = [-5.0 + i for i in range(40)]
        step = StepControl(tol=1e-3, max_refine=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert batched(problem, es, step) == one_by_one(problem, es, step)


# ------------------------------------------------------------------ sampler

@settings(max_examples=60, deadline=None)
@given(grid_potentials(), st.lists(st.floats(0.0, 1.0, **finite), max_size=20))
def test_sampler_equals_call(v, fractions):
    xs = v.x
    ts = list(xs)  # every node, both ends included
    for k, f in enumerate(fractions):
        i = k % (len(xs) - 1)
        ts.append(min(xs[i] + f * (xs[i + 1] - xs[i]), xs[-1]))  # inside cell i
    got = v.sample(np.array(ts))
    assert [t.hex() for t in got.tolist()] == [v(t).hex() for t in ts]


@settings(max_examples=30, deadline=None)
@given(grid_potentials(), st.floats(1e-9, 5.0, **finite), st.booleans())
def test_sampler_rejects_points_outside(v, gap, below):
    lo, hi = v.domain
    for t in (lo - gap if below else hi + gap,
              math.nextafter(lo, -math.inf) if below else math.nextafter(hi, math.inf)):
        with pytest.raises(DomainError):
            v(t)
        with pytest.raises(DomainError):
            v.sample(np.array([lo, t, hi]))


def test_sampler_rejects_nan():
    v = GridPotential((0.0, 1.0), (1.0, 2.0))
    with pytest.raises(DomainError):
        v.sample(np.array([0.5, math.nan]))


# ----------------------------------------------------------------- failures

GRID_DOC = {"a": 0.0, "b": 2.0,
            "potential": {"kind": "grid", "x": [0.0, 1.0, 2.0],
                          "values": [0.0, 3.0, 1.0]},
            "interactions": [{"x": 0.7, "alpha": 1.0, "r": 1.2, "theta": 0.3}],
            "bc_left": 0.0, "bc_right": 0.0}
# a tiny step budget; no second pass to compare with; a tolerance below
# roundoff, which successive passes never meet
STARVED = {"max_steps": 10}, {"max_refine": 0}, {"tol": 1e-15, "max_refine": 2}
STARVED_IDS = ["step-budget", "no-refinement", "no-convergence"]


@pytest.mark.parametrize("block", STARVED, ids=STARVED_IDS)
def test_scan_failures_raise_integration_failure(block):
    problem = problem_from_json(GRID_DOC)
    with pytest.raises(IntegrationFailure):
        eigenvalues_in_range(problem, 0.0, 20.0, 40, step=StepControl(**block))


@pytest.mark.parametrize("block", STARVED, ids=STARVED_IDS)
def test_scan_failures_exit_3(tmp_path, capsys, block):
    cfg = {"schema": 1, "problem": GRID_DOC, "step": block,
           "eigs": {"e_lo": 0.0, "e_hi": 20.0, "grid": 40},
           "output": {"path": str(tmp_path / "eigs.json"), "format": "json"}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["--quiet", "--config", str(path), "eigs"]) == 3
    assert "numerical failure" in capsys.readouterr().err


# ---------------------------------------------------------------- monte carlo

def site_distributions(target):
    if target == "r":
        # gaussians with mass below 0 exercise the rejection loop
        return st.one_of(
            st.builds(Uniform, st.floats(0.2, 1.0, **finite), st.floats(1.5, 3.0, **finite)),
            st.builds(Gaussian, st.floats(0.0, 2.0, **finite), st.floats(0.1, 1.0, **finite)),
            st.builds(PointMass, st.floats(0.3, 3.0, **finite)))
    return st.one_of(
        st.builds(Uniform, st.floats(-4.0, 0.0, **finite), st.floats(0.5, 8.0, **finite)),
        st.builds(Gaussian, st.floats(-2.0, 2.0, **finite), st.floats(0.1, 3.0, **finite)),
        st.builds(PointMass, st.floats(-3.0, 3.0, **finite)))


@st.composite
def ensembles(draw, n_sites):
    target = draw(st.sampled_from(["lambda", "r", "theta"]))
    sites = draw(st.lists(site_distributions(target), min_size=n_sites, max_size=n_sites))
    return Ensemble(target, tuple(sites), draw(st.integers(0, 2 ** 64 - 1)))


def per_sample(problem, e, ensemble, n, step):
    """eigen_test on each realized problem, failures counted per sample.

    A NaN mismatch (an overflowed walk) counts as a failure, as in Monte Carlo.
    """
    field = {"lambda": "alpha", "r": "r", "theta": "theta"}[ensemble.target]
    mismatches, failures = [], 0
    for i in range(n):
        realized = problem
        for k, value in enumerate(sample_realization(ensemble, i)):
            realized = with_site_params(realized, k, **{field: value})
        try:
            m = eigen_test(realized, e, step).mismatch
        except (ArithmeticError, RuntimeError):
            m = math.nan
        if math.isfinite(m):
            mismatches.append(m.hex())
        else:
            failures += 1
    return mismatches, failures


def lanes(problem, e, ensemble, n, step, workers=1):
    mismatches, failures = mismatch_samples(problem, e, ensemble, n, step, workers)
    return [m.hex() for m in mismatches], failures


@st.composite
def mc_cases(draw, potentials):
    problem = draw(problems(potentials, min_sites=1, max_sites=4))
    ensemble = draw(ensembles(len(problem.interactions)))
    return problem, ensemble


mc_energy = st.floats(-10.0, 40.0, **finite)


@settings(max_examples=30, deadline=None)
@given(mc_cases(piecewise_potentials()), mc_energy, st.integers(1, 40), st.sampled_from([1, 2]))
def test_piecewise_sample_lanes_equal_eigen_test(case, e, n, workers):
    problem, ensemble = case
    step = StepControl()
    assert lanes(problem, e, ensemble, n, step, workers) == per_sample(problem, e, ensemble, n,
                                                                       step)


@settings(max_examples=20, deadline=None)
@given(mc_cases(grid_potentials()), mc_energy, st.integers(1, 40), steps,
       st.sampled_from([1, 2]))
def test_grid_sample_lanes_equal_eigen_test(case, e, n, step, workers):
    problem, ensemble = case
    assert lanes(problem, e, ensemble, n, step, workers) == per_sample(problem, e, ensemble, n,
                                                                       step)


SHORT_GRID = GridPotential((0.0, 0.25, 0.5, 0.75, 1.0), (1.0, -2.0, 0.5, 3.0, 2.0))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("v, target, sites", [
    (PiecewisePotential((0.0, 0.4, 1.0), (2.0, -1.0)), "theta",
     (Uniform(-1.0, 7.0), Gaussian(1.0, 2.0))),
    (SHORT_GRID, "lambda", (Uniform(-2.0, 2.0),)),
])
def test_sample_lanes_across_chunks(v, target, sites, workers):
    # 513 samples make a full chunk of 512 and a chunk of one
    interactions = tuple(PointInteraction(0.3 + 0.4 * k, IwasawaParams(0.5, 1.5, 2.0))
                         for k in range(len(sites)))
    problem = Problem(0.0, 1.0, v, interactions, ProjPoint(0.2), ProjPoint(1.3))
    ensemble = Ensemble(target, sites, seed=99)
    step = StepControl(tol=1e-5)
    assert lanes(problem, 7.0, ensemble, 513, step, workers) == per_sample(
        problem, 7.0, ensemble, 513, step)


# alpha draws near 1e304 overflow some lanes to inf and nan past a forbidden
# barrier; on a grid potential a lane whose passes overflow differently cannot
# converge and fails
HUGE_SHEARS = Ensemble("lambda", (Gaussian(0.0, 3e304),), seed=7)


def forbidden_grid(height):
    return GridPotential(tuple(0.1 * i for i in range(11)),
                         tuple(height + 5.0 * math.sin(0.3 * i) for i in range(11)))


# at E = 1: 21 of the 40 lanes overflow to a NaN mismatch and none fails
OVERFLOWING_GRID = forbidden_grid(120.0)
# at E = 1: 11 lanes fail, 28 overflow to a NaN mismatch, one stays finite
FAILING_GRID = forbidden_grid(180.0)


def huge_shear_problem(v):
    return Problem(0.0, 1.0, v, (PointInteraction(0.3, IwasawaParams(0.0, 1.0, 0.5)),),
                   ProjPoint(0.4), ProjPoint(1.0))


def shear_lanes(problem, e, ensemble, n, step):
    """realized_mismatches of samples 0..n-1 as one walk, as Monte Carlo's chunk."""
    (draws,) = _draws(ensemble, 0, n)
    return [m.hex() for m in realized_mismatches(problem, e, "alpha", [draws], step)]


def test_chunk_with_some_failing_samples_falls_back_to_samples():
    problem = huge_shear_problem(FAILING_GRID)
    step = StepControl(tol=1e-6, max_refine=4)
    with pytest.raises(IntegrationFailure):
        shear_lanes(problem, 1.0, HUGE_SHEARS, 40, step)
    mismatches, failures = lanes(problem, 1.0, HUGE_SHEARS, 40, step)
    assert 0 < failures < 40
    assert (mismatches, failures) == per_sample(problem, 1.0, HUGE_SHEARS, 40, step)


@pytest.mark.parametrize("v", [OVERFLOWING_GRID,
                               PiecewisePotential((0.0, 0.5, 1.0), (100.0, 110.0))],
                         ids=["grid", "piecewise"])
def test_overflowing_sample_lanes_stay_silent(v):
    problem = huge_shear_problem(v)
    step = StepControl(tol=1e-6, max_refine=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        raw = shear_lanes(problem, 1.0, HUGE_SHEARS, 40, step)
        got = lanes(problem, 1.0, HUGE_SHEARS, 40, step)
    assert 0 < raw.count("nan") < len(raw)
    assert raw == [eigen_test(with_site_params(problem, 0, alpha=a), 1.0, step).mismatch.hex()
                   for a in _draws(HUGE_SHEARS, 0, 40)[0].tolist()]
    # Monte Carlo counts each NaN lane as a failure
    assert got == per_sample(problem, 1.0, HUGE_SHEARS, 40, step)
    assert got[1] == raw.count("nan")


def test_renormalized_halves_finite_data_whose_norm_overflows():
    u, du = [1.5e308, 0.6, math.inf], [-1.5e308, 0.8, 1.0]
    floats = [_normalized(SolutionState(0.0, a, b)) for a, b in zip(u, du)]
    assert floats[0].u == -floats[0].du == pytest.approx(math.sqrt(0.5), abs=1e-15)
    with np.errstate(invalid="ignore"):
        state = _normalized(SolutionState(0.0, np.array(u), np.array(du)))
    assert [(t.hex(), v.hex()) for t, v in zip(state.u, state.du)] == [
        (s.u.hex(), s.du.hex()) for s in floats]


def test_huge_finite_lanes_keep_their_class():
    # some lanes end finite but so large that hypot overflows; their class is
    # well defined and must survive the renormalization
    problem = huge_shear_problem(forbidden_grid(115.0))
    step = StepControl(tol=1e-6, max_refine=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        raw = shear_lanes(problem, 1.0, HUGE_SHEARS, 40, step)
    assert raw == [eigen_test(with_site_params(problem, 0, alpha=a), 1.0, step).mismatch.hex()
                   for a in _draws(HUGE_SHEARS, 0, 40)[0].tolist()]
    assert lanes(problem, 1.0, HUGE_SHEARS, 40, step) == per_sample(problem, 1.0, HUGE_SHEARS,
                                                                    40, step)


def test_nan_mismatches_are_failures_not_quantiles():
    problem = huge_shear_problem(PiecewisePotential((0.0, 0.5, 1.0), (100.0, 110.0)))
    step = StepControl(tol=1e-6, max_refine=4)
    nans = shear_lanes(problem, 1.0, HUGE_SHEARS, 40, step).count("nan")
    report = monte_carlo(problem, 1.0, HUGE_SHEARS, 40, 1e-6, step)
    assert 0 < nans < 40
    assert (report.samples, report.failures) == (40, nans)
    assert all(math.isfinite(q) for _, q in report.mismatch_quantiles)


# ------------------------------------------------------------ realized jumps

@st.composite
def retest_cases(draw, potentials):
    """A problem, a field, a site, and that site's values of the field, one per lane.

    theta cases start with the site's own theta shifted by +pi and -pi, as
    the dichotomy re-tests do; a few cases have 32 or more lanes.
    """
    problem = draw(problems(potentials, min_sites=1, max_sites=4))
    field = draw(st.sampled_from(["alpha", "r", "theta"]))
    site = draw(st.integers(0, len(problem.interactions) - 1))
    value = {"alpha": st.floats(-6.0, 6.0, **finite), "r": st.floats(0.1, 10.0, **finite),
             "theta": st.floats(-10.0, 10.0, **finite)}[field]
    values = draw(st.one_of(st.lists(value, min_size=1, max_size=10),
                            st.lists(value, min_size=32, max_size=36)))
    if field == "theta":
        theta = problem.interactions[site].params.theta
        values = [theta + math.pi, theta - math.pi] + values
    return problem, field, site, values


def realized(problem, e, field, site, values, step):
    """realized_mismatches with the site's values and every other site's own value."""
    columns = [np.full(len(values), getattr(s.params, field)) for s in problem.interactions]
    columns[site] = np.array(values)
    try:
        return [m.hex() for m in realized_mismatches(problem, e, field, columns, step)]
    except (ArithmeticError, RuntimeError) as exc:
        return type(exc)


def rebuilt(problem, e, field, site, values, step):
    """eigen_test on the problem rebuilt with each value, failures by type."""
    try:
        return [eigen_test(with_site_params(problem, site, **{field: v}), e, step).mismatch.hex()
                for v in values]
    except (ArithmeticError, RuntimeError) as exc:
        return type(exc)


@settings(max_examples=40, deadline=None)
@given(retest_cases(piecewise_potentials()), mc_energy)
def test_piecewise_realized_lanes_equal_rebuilt_problems(case, e):
    problem, field, site, values = case
    step = StepControl()
    assert realized(problem, e, field, site, values, step) == rebuilt(problem, e, field, site,
                                                                      values, step)


@settings(max_examples=20, deadline=None)
@given(retest_cases(grid_potentials()), mc_energy, steps)
def test_grid_realized_lanes_equal_rebuilt_problems(case, e, step):
    problem, field, site, values = case
    assert realized(problem, e, field, site, values, step) == rebuilt(problem, e, field, site,
                                                                      values, step)


def test_realized_field_must_be_an_iwasawa_parameter():
    problem = huge_shear_problem(SHORT_GRID)
    with pytest.raises(ValueError):
        realized_mismatches(problem, 1.0, "lambda", [np.array([0.5])])


def test_realized_r_lanes_must_be_positive():
    problem = huge_shear_problem(SHORT_GRID)
    with pytest.raises(InvalidDilation) as exc:
        realized_mismatches(problem, 1.0, "r", [np.array([1.0, -0.5, 0.0])])
    assert str(exc.value) == "r = -0.5 must be > 0"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(problems(piecewise_potentials(), min_sites=1, max_sites=4), mc_energy)
def test_piecewise_site_maps_equal_walked_re_tests(retest_reference, problem, e):
    # the exact route: the maps and the walk differ by rounding alone
    assume(problem.interactions)
    for _, _, mapped, walked in retest_reference(problem, e, StepControl()):
        assert np.allclose(mapped, walked, rtol=0.0, atol=1e-12)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(problems(grid_potentials(), min_sites=1, max_sites=4), mc_energy, steps)
def test_grid_site_maps_equal_walked_re_tests_within_the_step_tolerance(retest_reference,
                                                                        problem, e, step):
    # an RK4 pass converges on the data it carries: a map on transfer_matrix's
    # two identity columns, a walk on each lane's state, so the two can stop
    # at different refinements; they agree within the integration tolerance
    # (at most 1.8 step.tol over 1013 random re-test groups), and with few
    # refinements allowed either one can fail where the other converges
    assume(problem.interactions)
    try:
        rows = retest_reference(problem, e, step)
    except IntegrationFailure:
        reject()
    for _, _, mapped, walked in rows:
        if not isinstance(walked, IntegrationFailure):
            assert np.allclose(mapped, walked, rtol=0.0, atol=2.0 * step.tol)


# ------------------------------------------------------------- piece matrices

# E - V values by the regime of z = (E - V) dx^2 they give: oscillatory,
# hyperbolic, the series at |z| <= 1e-10 and its two edges, and zero
z_targets = st.one_of(st.floats(1e-10, 2e4, exclude_min=True, **finite),
                      st.floats(-4e5, -1e-10, exclude_max=True, **finite),
                      st.floats(-1e-10, 1e-10, **finite),
                      st.sampled_from([1e-10, -1e-10, 0.0, -0.0]))
# powers of two keep w2 = z / dx^2 exact, so the edge lanes sit on z = +-1e-10
piece_lengths = st.one_of(st.sampled_from([0.25, -0.5, 1.0, 2.0, -4.0]),
                          st.floats(-3.0, 3.0, **finite).filter(lambda t: abs(t) > 1e-3))


def entry_bits(m):
    return [[t.hex() for t in np.atleast_1d(e).tolist()] for e in m.entries()]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(z_targets, min_size=1, max_size=40), piece_lengths)
@example([1e-10, -1e-10, 0.0, 5e-11, 2.0, -2.0], 1.0)
def test_lane_piece_matrices_equal_per_lane_matrices(zs, dx):
    w2 = np.array(zs) / dx / dx
    rows = [_const_coeff_matrix(t, dx).entries() for t in w2.tolist()]
    assert entry_bits(_piece_matrix(w2, dx)) == [[t.hex() for t in col] for col in zip(*rows)]


@pytest.mark.parametrize("w2, dx", [
    ([1.0, 1e300, -1e6], 1e10),   # z = inf in lane 1 comes before lane 2's cosh
    ([1.0, -1e6, 1e300], 1.0),    # lane 1's cosh overflows first
    ([1.0, -1e6], 1.0),           # a cosh overflow and no non-finite z
    ([math.nan, 2.0], 0.5),
])
def test_overflowing_lane_piece_matrix_raises_as_its_float(w2, dx):
    with pytest.raises(OverflowError) as lone:
        for t in w2:
            _const_coeff_matrix(t, dx)
    with pytest.raises(OverflowError) as lanes:
        _piece_matrix(np.array(w2), dx)
    assert str(lanes.value) == str(lone.value)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(z_targets, piece_lengths), min_size=1, max_size=40))
@example([(1e-10, 1.0), (-1e-10, 0.25), (0.0, -4.0), (-0.0, 2.0), (5e-11, -0.5), (2.0, 1.0)])
def test_lane_piece_matrices_of_lane_lengths_equal_per_lane_matrices(lanes):
    dx = np.array([d for _, d in lanes])
    w2 = np.array([z for z, _ in lanes]) / dx / dx
    rows = [_const_coeff_matrix(t, d).entries() for t, d in zip(w2.tolist(), dx.tolist())]
    assert entry_bits(_piece_matrix(w2, dx)) == [[t.hex() for t in col] for col in zip(*rows)]


@pytest.mark.parametrize("w2, dx", [
    ([1.0, 1.0, -1e6], [1.0, 1e200, 1.0]),    # z = inf in lane 1 comes before lane 2's cosh
    ([1.0, -1e6, 1.0], [2.0, 1.0, 1e200]),    # lane 1's cosh overflows first
    ([-1e6, -1e6], [1e-3, 1.0]),              # a cosh overflow and no non-finite z
    ([2.0, 2.0], [0.5, math.nan]),
])
def test_overflowing_lane_piece_matrix_of_lane_lengths_raises_as_its_floats(w2, dx):
    with pytest.raises(OverflowError) as lone:
        for t, d in zip(w2, dx):
            _const_coeff_matrix(t, d)
    with pytest.raises(OverflowError) as lanes:
        _piece_matrix(np.array(w2), np.array(dx))
    assert str(lanes.value) == str(lone.value)


# ----------------------------------------------------------------- lane classes

def with_final_lanes(monkeypatch, u, du):
    """Make the lanes of every walk in spectra end at (u, du)."""
    def walk(problem, e, step, jumps=None):
        return PropagationResult(SolutionState(problem.b, np.array(u), np.array(du)), ())
    monkeypatch.setattr(slspec.spectra, "propagate_through", walk)


def test_zero_lane_has_no_class(monkeypatch):
    problem = Problem(0.0, 1.0, PiecewisePotential((0.0, 1.0), (0.0,)), (), ProjPoint(0.0),
                      ProjPoint(0.3))
    with_final_lanes(monkeypatch, [0.6, 0.0], [0.8, 0.0])
    with pytest.raises(ZeroVector):
        boundary_mismatch(problem, np.array([1.0, 2.0]))


def test_lane_classes_reduce_like_proj_class(monkeypatch):
    # atan2(-1e-17, 1) % pi rounds to pi, which ProjPoint maps to 0; a NaN
    # lane keeps a NaN class and so a NaN mismatch, which Monte Carlo counts
    # as a failure (test_nan_mismatches_are_failures_not_quantiles)
    u, du = [-1e-17, math.nan, 0.6, -0.0, 1.0], [1.0, 1.0, -0.8, -1.0, 0.0]
    problem = Problem(0.0, 1.0, PiecewisePotential((0.0, 1.0), (0.0,)), (), ProjPoint(0.0),
                      ProjPoint(0.3))
    with_final_lanes(monkeypatch, u, du)
    angles = slspec.spectra._class_angles(np.array(u), np.array(du))
    assert angles[0] == 0.0
    assert math.isnan(angles[1])
    assert [t.hex() for t in angles.tolist()[2:]] == [
        proj_class(a, b).angle.hex() for a, b in zip(u[2:], du[2:])]
    mismatches = realized_mismatches(problem, 1.0, "alpha", [])
    assert math.isnan(mismatches[1])
    assert [m.hex() for i, m in enumerate(mismatches) if i != 1] == [
        proj_class(a, b).distance(problem.bc_right).hex()
        for i, (a, b) in enumerate(zip(u, du)) if i != 1]


def test_zero_lane_fails_its_sample_alone(monkeypatch):
    # a lane ending at (0, 0) raises ZeroVector, a numerical failure: Monte
    # Carlo walks the chunk again one sample at a time, counts that sample as
    # one failure and keeps the other samples' mismatches
    problem = Problem(0.0, 1.0, PiecewisePotential((0.0, 0.5, 1.0), (0.0, 2.0)),
                      (PointInteraction(0.3, IwasawaParams(0.0, 1.0, 0.0)),), ProjPoint(0.4),
                      ProjPoint(1.0))
    ensemble = Ensemble("lambda", (Uniform(0.0, 1.0),), seed=11)
    step = StepControl()
    shears = _draws(ensemble, 0, 40)[0].tolist()
    mismatches, failures = lanes(problem, 1.0, ensemble, 40, step)
    assert failures == 0
    kept = [m for m, a in zip(mismatches, shears) if a <= 0.9]
    walk = slspec.spectra.propagate_through

    def zeroing(problem, e, step, jumps=None):
        # with r = 1 and theta = 0 a site's jump is [[1, alpha], [0, 1]]
        result = walk(problem, e, step, jumps)
        keep = jumps[0].b <= 0.9
        final = SolutionState(result.final.x, result.final.u * keep, result.final.du * keep)
        return PropagationResult(final, result.lefts)

    monkeypatch.setattr(slspec.spectra, "propagate_through", zeroing)
    with pytest.raises(ZeroVector):
        realized_mismatches(problem, 1.0, "alpha", [np.array(shears)], step)
    assert 0 < len(kept) < 40
    assert lanes(problem, 1.0, ensemble, 40, step) == (kept, 40 - len(kept))
