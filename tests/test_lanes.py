"""Batched energy lanes and the vectorized grid sampler agree bit for bit
with the one-energy and one-point paths they replace in the eigenvalue scan,
and the realization lanes of Monte Carlo and of the dichotomy re-tests with
eigen_test on each realized problem."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slspec.cli import main
from slspec.problem import (PointInteraction, Problem, _normalized, problem_from_json,
                            with_site_params)
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
from slspec.sl2 import IwasawaParams, ProjPoint
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
