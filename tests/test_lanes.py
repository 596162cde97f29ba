"""Batched energy lanes (their piece matrices and final classes included) and
the vectorized grid sampler agree bit for bit with the one-energy and
one-point paths they replace in the eigenvalue scan, and the realization
lanes of Monte Carlo with eigen_test on each realized problem; the
dichotomy re-tests, taken from site maps, agree with those lanes."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

import slspec.random
import slspec.spectra

from slspec.cli import main
from slspec.problem import (PointInteraction, Problem, PropagationResult, _normalized, _Piece,
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
from slspec.sl2 import (InvalidDilation, IwasawaParams, ProjPoint, ZeroVector, iwasawa_compose,
                        proj_class)
from slspec.spectra import (
    _jumps,
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
    """Per-energy defects as hex strings, or the type and message of the first failure."""
    try:
        return [boundary_mismatch(problem, e, step).hex() for e in es]
    except ArithmeticError as exc:
        return type(exc), str(exc)


def batched(problem, es, step):
    try:
        return [m.hex() for m in boundary_mismatch(problem, np.array(es), step)]
    except ArithmeticError as exc:
        return type(exc), str(exc)


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


OVERFLOW = "the solution at x = 30.0 is not finite at E = {}"


def test_overflowing_lanes_raise_as_their_first_failing_float():
    # exp(sqrt(1000) * 30) overflows: an energy alone raises, naming x and E,
    # and lanes raise what their first failing energy raises alone, with no
    # warning on the way
    for v in (PiecewisePotential((0.0, 15.0, 30.0), (1000.0, 1000.0)),
              GridPotential((0.0, 10.0, 30.0), (900.0, 1000.0, 1000.0))):
        problem = Problem(0.0, 30.0, v, (), ProjPoint(0.0), ProjPoint(0.0))
        es = [-5.0 + i for i in range(40)]
        step = StepControl(tol=1e-3, max_refine=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = batched(problem, es, step)
        assert got == one_by_one(problem, es, step)
        assert got == (FloatingPointError, OVERFLOW.format(-5.0))


def test_lanes_raise_the_failure_of_their_first_failing_lane():
    # on the V = 1000 grid, E = 1 overflows and E = 1500 does not converge
    # within one refinement; whichever comes first in lane order is raised
    v = GridPotential(tuple(0.1 * i for i in range(301)), (1000.0,) * 301)
    problem = Problem(0.0, 30.0, v, (), ProjPoint(0.0), ProjPoint(0.0))
    step = StepControl(tol=1e-6, max_refine=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert batched(problem, [999.0, 1.0, 1500.0], step) == (FloatingPointError,
                                                              OVERFLOW.format(1.0))
        assert batched(problem, [999.0, 1500.0, 1.0], step) == (
            IntegrationFailure, "no convergence within 1 refinements at tolerance 1e-06")
    for es in ([999.0, 1.0, 1500.0], [999.0, 1500.0, 1.0]):
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
# a tiny step budget (still no smaller than the scan's grid of 40, which it
# bounds); no second pass to compare with; a tolerance below roundoff, which
# successive passes never meet
STARVED = {"max_steps": 40}, {"max_refine": 0}, {"tol": 1e-15, "max_refine": 2}
STARVED_IDS = ["step-budget", "no-refinement", "no-convergence"]


@pytest.mark.parametrize("potential", [GRID_DOC["potential"],
                                       {"kind": "piecewise", "breakpoints": [0.0, 1.0, 2.0],
                                        "values": [0.0, 3.0]}], ids=["grid", "piecewise"])
def test_no_lanes_give_no_mismatches(potential):
    problem = problem_from_json({**GRID_DOC, "potential": potential})
    assert boundary_mismatch(problem, np.array([])) == []


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

    A numerical failure (an overflowed walk included) counts as a failure,
    as in Monte Carlo; every mismatch eigen_test returns is finite.
    """
    field = {"lambda": "alpha", "r": "r", "theta": "theta"}[ensemble.target]
    mismatches, failures = [], 0
    for i in range(n):
        realized = problem
        for k, value in enumerate(sample_realization(ensemble, i)):
            realized = with_site_params(realized, k, **{field: value})
        try:
            m = eigen_test(realized, e, step).mismatch
        except ArithmeticError:
            failures += 1
            continue
        assert math.isfinite(m)
        mismatches.append(m.hex())
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


# alpha draws near 1e304 overflow some samples' walks past a forbidden
# barrier; each such walk raises FloatingPointError, alone and among lanes
HUGE_SHEARS = Ensemble("lambda", (Gaussian(0.0, 3e304),), seed=7)


def forbidden_grid(height):
    return GridPotential(tuple(0.1 * i for i in range(11)),
                         tuple(height + 5.0 * math.sin(0.3 * i) for i in range(11)))


# at E = 1 with the step below, 29 of the first 40 samples overflow
OVERFLOWING_GRID = forbidden_grid(120.0)
# at E = 1, 34 of them overflow
FAILING_GRID = forbidden_grid(180.0)


def huge_shear_problem(v):
    return Problem(0.0, 1.0, v, (PointInteraction(0.3, IwasawaParams(0.0, 1.0, 0.5)),),
                   ProjPoint(0.4), ProjPoint(1.0))


def shear_lanes(problem, e, ensemble, n, step):
    """realized_mismatches of samples 0..n-1 as one walk, as Monte Carlo's chunk."""
    (draws,) = _draws(ensemble, 0, n)
    return [m.hex() for m in realized_mismatches(problem, e, "alpha", [draws], step)]


def lone_shears(problem, e, alphas, step):
    """eigen_test's mismatch as hex for each alpha alone, or the type and message of a failure."""
    out = []
    for a in alphas:
        try:
            out.append(eigen_test(with_site_params(problem, 0, alpha=a), e, step).mismatch.hex())
        except ArithmeticError as exc:
            out.append((type(exc), str(exc)))
    return out


def counted_walks(monkeypatch):
    """The lane count of every realized_mismatches walk Monte Carlo makes from now on."""
    walks = []
    real = slspec.random.realized_mismatches

    def counted(problem, e, field, columns, step):
        walks.append(len(columns[0]))
        return real(problem, e, field, columns, step)
    monkeypatch.setattr(slspec.random, "realized_mismatches", counted)
    return walks


def test_chunk_with_some_failing_samples_is_one_walk(monkeypatch):
    # the chunk's walk fails in its failing samples' lanes alone, which are
    # NaN; Monte Carlo counts each as one failure and walks the chunk once
    problem = huge_shear_problem(FAILING_GRID)
    step = StepControl(tol=1e-6, max_refine=4)
    (alphas,) = _draws(HUGE_SHEARS, 0, 40)
    lone = lone_shears(problem, 1.0, alphas.tolist(), step)
    assert [m == "nan" for m in shear_lanes(problem, 1.0, HUGE_SHEARS, 40, step)] == [
        isinstance(t, tuple) for t in lone]
    walks = counted_walks(monkeypatch)
    mismatches, failures = lanes(problem, 1.0, HUGE_SHEARS, 40, step)
    assert walks == [40]
    assert 0 < failures < 40
    assert (mismatches, failures) == per_sample(problem, 1.0, HUGE_SHEARS, 40, step)


@pytest.mark.parametrize("v", [OVERFLOWING_GRID,
                               PiecewisePotential((0.0, 0.5, 1.0), (100.0, 110.0))],
                         ids=["grid", "piecewise"])
def test_monte_carlo_walks_each_chunk_once_when_samples_fail(monkeypatch, v):
    walks = counted_walks(monkeypatch)
    mismatches, failures = mismatch_samples(huge_shear_problem(v), 1.0, HUGE_SHEARS, 1000,
                                            StepControl(tol=1e-6, max_refine=4))
    assert walks == [512, 488]
    assert 0 < failures < 1000 and len(mismatches) + failures == 1000


@pytest.mark.parametrize("v", [OVERFLOWING_GRID,
                               PiecewisePotential((0.0, 0.5, 1.0), (100.0, 110.0))],
                         ids=["grid", "piecewise"])
def test_overflowing_sample_lanes_are_nan_where_their_samples_fail(v):
    problem = huge_shear_problem(v)
    step = StepControl(tol=1e-6, max_refine=4)
    (alphas,) = _draws(HUGE_SHEARS, 0, 40)
    lone = lone_shears(problem, 1.0, alphas.tolist(), step)
    failed = [isinstance(t, tuple) for t in lone]
    assert 0 < sum(failed) < len(lone)
    assert {t[0] for t in lone if isinstance(t, tuple)} == {FloatingPointError}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        walked = shear_lanes(problem, 1.0, HUGE_SHEARS, 40, step)
        got = lanes(problem, 1.0, HUGE_SHEARS, 40, step)
    # a failing sample's lane is NaN; every other lane keeps its lone bits
    assert walked == ["nan" if f else t for f, t in zip(failed, lone)]
    # Monte Carlo counts each failing sample as a failure
    assert got == per_sample(problem, 1.0, HUGE_SHEARS, 40, step)
    assert got[1] == sum(failed)


def test_renormalized_halves_finite_data_whose_norm_overflows():
    u, du = [1.5e308, 0.6, math.inf], [-1.5e308, 0.8, 1.0]
    floats = [_normalized(SolutionState(0.0, a, b)) for a, b in zip(u, du)]
    assert floats[0].u == -floats[0].du == pytest.approx(math.sqrt(0.5), abs=1e-15)
    with np.errstate(invalid="ignore"):
        state = _normalized(SolutionState(0.0, np.array(u), np.array(du)))
    assert [(t.hex(), v.hex()) for t, v in zip(state.u, state.du)] == [
        (s.u.hex(), s.du.hex()) for s in floats]


@st.composite
def lane_pieces(draw):
    """(pieces, at, xs): an oscillatory, a near-zero and a forbidden piece, and
    samples xs[i] on pieces[at[i]], each piece sampled at least once."""
    regimes = (st.floats(1e-3, 400.0), st.floats(-1e-12, 1e-12), st.floats(-40.0, -1e-3))
    pieces = []
    for w in regimes:
        p = draw(st.floats(-2.0, 2.0))
        q = p + draw(st.floats(1e-3, 3.0))
        u, du = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
        assume(u != 0.0 or du != 0.0)
        phi = math.atan2(u, du) + math.pi * draw(st.integers(-3, 3))
        pieces.append(_Piece(p, q, 1.5, draw(w), SolutionState(p, u, du), phi))
    at = [0, 1, 2] + draw(st.lists(st.integers(0, 2), max_size=10))
    xs = [min(pieces[i].p + (pieces[i].q - pieces[i].p) * draw(st.floats(0.0, 1.0)),
              pieces[i].q) for i in at]
    return pieces, at, xs


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lane_pieces())
def test_lane_piece_at_has_the_bits_of_each_float(case):
    pieces, at, xs = case
    with np.errstate(over="ignore", invalid="ignore"):
        s, phi = _Piece.lanes(pieces, np.array(at)).at(np.array(xs))
    lanes = list(zip(s.u.tolist(), s.du.tolist(), phi.tolist()))
    floats = []
    for i, x in zip(at, xs):
        t, psi = pieces[i].at(x)
        floats.append((t.u, t.du, psi))
    assert [tuple(v.hex() for v in lane) for lane in lanes] == [
        tuple(v.hex() for v in lone) for lone in floats]


def test_float_formulas_stay_on_python_floats():
    # a numpy call on a float returns a numpy scalar or array, not a float
    state = _normalized(SolutionState(0.0, 3.0, -4.0))
    piece = _Piece(0.0, 2.0, 1.0, 2.5, SolutionState(0.0, 0.6, 0.8), 0.6435)
    s, phi = piece.at(1.5)
    forbidden = _Piece(0.0, 2.0, 1.0, -2.5, SolutionState(0.0, 0.6, 0.8), 0.6435).at(1.5)
    m = _jumps(0.5, 1.5, 1.0)
    values = [state.u, state.du, s.u, s.du, phi, forbidden[0].u, forbidden[1], *m.entries()]
    assert {type(v) for v in values} == {float}


def test_jump_lanes_of_a_theta_rounded_up_to_two_pi():
    # -1e-20 mod 2 pi rounds to 2 pi, which IwasawaParams reduces once more,
    # to 0; a lane of that raw theta and a float theta held by IwasawaParams
    # both give the site's own jump
    params = IwasawaParams(0.5, 1.5, -1e-20)
    assert params.theta == 0.0
    jump = [t.hex() for t in iwasawa_compose(params).entries()]
    lane = _jumps(np.array([0.5]), np.array([1.5]), np.array([-1e-20]))
    assert [t.item().hex() for t in lane.entries()] == jump
    float_theta = _jumps(np.array([0.5]), np.array([1.5]), params.theta)
    assert [t.item().hex() for t in float_theta.entries()] == jump


def test_huge_finite_lanes_keep_their_class():
    # walks that stay finite after a jump of alpha near 1e304 reach huge data,
    # and their classes must survive the renormalization in lanes as alone
    problem = huge_shear_problem(forbidden_grid(115.0))
    step = StepControl(tol=1e-6, max_refine=4)
    (alphas,) = _draws(HUGE_SHEARS, 0, 40)
    lone = lone_shears(problem, 1.0, alphas.tolist(), step)
    ok = np.array([a for a, t in zip(alphas.tolist(), lone) if not isinstance(t, tuple)])
    assert 0 < ok.size < 40
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        raw = [m.hex() for m in realized_mismatches(problem, 1.0, "alpha", [ok], step)]
    assert raw == [t for t in lone if not isinstance(t, tuple)]
    assert lanes(problem, 1.0, HUGE_SHEARS, 40, step) == per_sample(problem, 1.0, HUGE_SHEARS,
                                                                    40, step)


def test_nan_mismatches_are_failures_not_quantiles():
    # overflowed walks are failures, never mismatches; the reports are pinned bit for bit
    for v, failures, quantiles in [
        (PiecewisePotential((0.0, 0.5, 1.0), (100.0, 110.0)), 19,
         ["0x1.cf1bbb235fe42p-1"] * 5 + ["0x1.cf1bbb235fe44p-1"] * 6),
        (OVERFLOWING_GRID, 29,
         ["0x1.d174e62dddca8p-1"] * 4 + ["0x1.d174e62dddca9p-1"] * 2
         + ["0x1.d174e62dddcaap-1"] + ["0x1.d174e62dddcacp-1"] * 4),
    ]:
        report = monte_carlo(huge_shear_problem(v), 1.0, HUGE_SHEARS, 40, 1e-6,
                             StepControl(tol=1e-6, max_refine=4))
        assert (report.samples, report.hits, report.failures) == (40, 0, failures)
        assert [q.hex() for _, q in report.mismatch_quantiles] == quantiles


def heavy_sites(target):
    """Gaussians wide enough that some samples' walks overflow past a barrier."""
    if target == "r":
        return st.just(Gaussian(1.0, 3e304))
    return st.builds(Gaussian, st.floats(-2.0, 2.0, **finite), st.just(3e304))


def shifted(v, height):
    """The potential v plus height."""
    if isinstance(v, GridPotential):
        return GridPotential(v.x, tuple(t + height for t in v.values))
    return PiecewisePotential(v.breakpoints, tuple(t + height for t in v.values))


@st.composite
def failing_mc_cases(draw, potentials):
    """(problem, ensemble, E) whose walks can overflow: a barrier after a heavy-tailed site.

    The potential is raised so that sqrt(V - E) times the length past the
    first site is near log(1.8e308 / 3e304), where a draw's size decides
    whether its walk overflows.
    """
    problem = draw(problems(potentials, min_sites=1, max_sites=3))
    e = draw(mc_energy)
    growth = draw(st.floats(7.0, 12.0))
    height = e + (growth / (problem.b - problem.interactions[0].x)) ** 2
    problem = replace(problem, potential=shifted(problem.potential, height))
    target = draw(st.sampled_from(["lambda", "r", "theta"]))
    sites = [draw(heavy_sites(target))] + draw(st.lists(
        st.one_of(heavy_sites(target), site_distributions(target)),
        min_size=len(problem.interactions) - 1, max_size=len(problem.interactions) - 1))
    return problem, Ensemble(target, tuple(sites), draw(st.integers(0, 2 ** 64 - 1))), e


def walked_and_alone(problem, e, ensemble, n, step):
    """realized_mismatches of samples 0..n-1 as one walk, and eigen_test of each alone, in hex.

    A sample that fails alone (any ArithmeticError) reads "nan", as NaN's
    hex does.  A walk that raises fails on what every sample shares, so it
    reads "nan" in every lane.
    """
    field = {"lambda": "alpha", "r": "r", "theta": "theta"}[ensemble.target]
    try:
        walked = [m.hex() for m in realized_mismatches(problem, e, field,
                                                       _draws(ensemble, 0, n), step)]
    except ArithmeticError:
        walked = ["nan"] * n
    alone = []
    for i in range(n):
        realized = problem
        for k, value in enumerate(sample_realization(ensemble, i)):
            realized = with_site_params(realized, k, **{field: value})
        try:
            alone.append(eigen_test(realized, e, step).mismatch.hex())
        except ArithmeticError:
            alone.append("nan")
    return walked, alone


FAILING_STEP = StepControl(tol=1e-6, max_refine=4)


@settings(max_examples=30, deadline=None)
@given(failing_mc_cases(piecewise_potentials()), st.integers(10, 40))
@example((huge_shear_problem(PiecewisePotential((0.0, 0.5, 1.0), (100.0, 110.0))), HUGE_SHEARS,
          1.0), 40)
def test_piecewise_lanes_are_nan_exactly_where_samples_fail(case, n):
    problem, ensemble, e = case
    walked, alone = walked_and_alone(problem, e, ensemble, n, FAILING_STEP)
    assert walked == alone


@settings(max_examples=20, deadline=None)
@given(failing_mc_cases(grid_potentials()), st.integers(10, 40), steps)
@example((huge_shear_problem(OVERFLOWING_GRID), HUGE_SHEARS, 1.0), 40, FAILING_STEP)
@example((huge_shear_problem(FAILING_GRID), HUGE_SHEARS, 1.0), 40, FAILING_STEP)
def test_grid_lanes_are_nan_exactly_where_samples_fail(case, n, step):
    problem, ensemble, e = case
    walked, alone = walked_and_alone(problem, e, ensemble, n, step)
    assert walked == alone


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
    """realized_mismatches with the site's values and every other site's own value, in hex.

    A walk that raises fails on what every lane shares: "nan" in every lane.
    """
    columns = [np.full(len(values), getattr(s.params, field)) for s in problem.interactions]
    columns[site] = np.array(values)
    try:
        return [m.hex() for m in realized_mismatches(problem, e, field, columns, step)]
    except ArithmeticError:
        return ["nan"] * len(values)


def rebuilt(problem, e, field, site, values, step):
    """eigen_test on the problem rebuilt with each value, in hex, "nan" where it fails."""
    out = []
    for v in values:
        try:
            out.append(eigen_test(with_site_params(problem, site, **{field: v}), e,
                                  step).mismatch.hex())
        except ArithmeticError:
            out.append("nan")
    return out


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


def test_realized_columns_must_match_the_sites():
    sites = tuple(PointInteraction(x, IwasawaParams(0.5, 1.5, 1.0)) for x in (0.5, 1.0, 1.5))
    problem = Problem(0.0, 2.0, PiecewisePotential((0.0, 2.0), (1.0,)), sites, ProjPoint(0.2),
                      ProjPoint(0.7))
    with pytest.raises(ValueError, match="^2 columns for 3 sites$"):
        realized_mismatches(problem, 1.0, "alpha", [np.array([0.5, 1.0])] * 2)
    with pytest.raises(ValueError, match="^0 columns for no sites$"):
        realized_mismatches(replace(problem, interactions=()), 1.0, "alpha", [])


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
        ok = ~np.isnan(walked)  # a re-test whose walk fails
        assert np.allclose(np.array(mapped)[ok], np.array(walked)[ok], rtol=0.0,
                           atol=2.0 * step.tol)


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
    # a walk at E = 2 ends at (0, 0), in a lane and alone: the lane's class
    # and mismatch are NaN, and a batch raises what that energy raises alone
    problem = Problem(0.0, 1.0, PiecewisePotential((0.0, 1.0), (0.0,)), (), ProjPoint(0.0),
                      ProjPoint(0.3))

    def walk(problem, e, step, jumps=None):
        u, du = (np.where(e == 2.0, 0.0, t) for t in (0.6, 0.8))
        if not isinstance(e, np.ndarray):
            u, du = u.item(), du.item()
        return PropagationResult(SolutionState(problem.b, u, du), ())
    monkeypatch.setattr(slspec.spectra, "propagate_through", walk)
    angles = slspec.spectra._class_angles(np.array([0.6, 0.0]), np.array([0.8, 0.0]))
    assert angles[0] == proj_class(0.6, 0.8).angle and math.isnan(angles[1])
    mismatches = slspec.spectra._mismatches(problem, np.array([0.0, 0.6]), np.array([0.0, 0.8]))
    assert mismatches[0] != mismatches[0]
    assert boundary_mismatch(problem, np.array([1.0, 3.0])) == [
        boundary_mismatch(problem, 1.0)] * 2
    with pytest.raises(ZeroVector, match="^the zero vector has no projective class$"):
        boundary_mismatch(problem, np.array([1.0, 2.0]))


def test_lane_classes_reduce_like_proj_class(monkeypatch):
    # atan2(-1e-17, 1) % pi rounds to pi, which ProjPoint maps to 0; a NaN
    # lane, a failed one (see test_overflowing_sample_lanes_are_nan_where_their_samples_fail),
    # keeps a NaN class and so a NaN mismatch
    u, du = [-1e-17, math.nan, 0.6, -0.0, 1.0], [1.0, 1.0, -0.8, -1.0, 0.0]
    problem = Problem(0.0, 1.0, PiecewisePotential((0.0, 1.0), (0.0,)),
                      (PointInteraction(0.5, IwasawaParams(0.0, 1.0, 0.0)),), ProjPoint(0.0),
                      ProjPoint(0.3))
    with_final_lanes(monkeypatch, u, du)
    angles = slspec.spectra._class_angles(np.array(u), np.array(du))
    assert angles[0] == 0.0
    assert math.isnan(angles[1])
    assert [t.hex() for t in angles.tolist()[2:]] == [
        proj_class(a, b).angle.hex() for a, b in zip(u[2:], du[2:])]
    mismatches = realized_mismatches(problem, 1.0, "alpha", [np.zeros(5)])
    assert math.isnan(mismatches[1])
    assert [m.hex() for i, m in enumerate(mismatches) if i != 1] == [
        proj_class(a, b).distance(problem.bc_right).hex()
        for i, (a, b) in enumerate(zip(u, du)) if i != 1]


def test_zero_lane_fails_its_sample_alone(monkeypatch):
    # a lane ending at (0, 0) has no class, a NaN mismatch, as that sample
    # alone raises ZeroVector: Monte Carlo counts that sample as one failure
    # and keeps the other samples' mismatches
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
    walked = realized_mismatches(problem, 1.0, "alpha", [np.array(shears)], step)
    assert [m != m for m in walked] == [a > 0.9 for a in shears]
    assert 0 < len(kept) < 40
    assert lanes(problem, 1.0, ensemble, 40, step) == (kept, 40 - len(kept))
