"""Ensembles, Monte Carlo hit rates, and the degenerate construction."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import slspec.problem
import slspec.random
from slspec.problem import PointInteraction, Problem, _normalized, prufer_trace
from slspec.random import (
    CROSSING_TOL,
    Ensemble,
    Gaussian,
    InsufficientOscillation,
    MonteCarloReport,
    NotUnperturbedEigenvalue,
    PointMass,
    TargetNotBracketed,
    Uniform,
    UnsupportedSupport,
    construct_degenerate,
    distribution_from_json,
    distribution_to_json,
    ensemble_from_json,
    ensemble_to_json,
    find_class_point,
    mismatch_samples,
    monte_carlo,
    sample_realization,
    summarize_mismatches,
    zeros_of_eigenfunction,
)
from slspec.sl2 import InvalidDilation, IwasawaParams, ProjPoint, proj_class
from slspec.spectra import eigen_test, eigenvalues_in_range
from slspec.transfer import (
    DEFAULT_STEP,
    ConstantPotential,
    PiecewisePotential,
    StepControl,
    propagate_state,
)

PI = math.pi
DIRICHLET = ProjPoint(0.0)


def free_problem(length):
    return Problem(0.0, length, ConstantPotential(0.0), (), DIRICHLET, DIRICHLET)


# ------------------------------------------------------------------- sampling

def test_pointmass_realizations_are_constant():
    ens = Ensemble("lambda", (PointMass(0.5), PointMass(-2.0)), seed=1)
    for idx in (0, 1, 99):
        assert sample_realization(ens, idx) == (0.5, -2.0)


def test_sampling_is_deterministic_and_varies_with_index():
    ens = Ensemble("lambda", (Uniform(0, 1), Gaussian(0, 1), Uniform(-3, 3)), seed=7)
    a = sample_realization(ens, 5)
    b = sample_realization(ens, 5)
    c = sample_realization(ens, 6)
    assert a == b
    assert a != c


def test_sampling_depends_on_seed():
    e1 = Ensemble("lambda", (Uniform(0, 1),), seed=1)
    e2 = Ensemble("lambda", (Uniform(0, 1),), seed=2)
    assert sample_realization(e1, 0) != sample_realization(e2, 0)


def test_uniform_marginal_ks():
    # hand-rolled Kolmogorov-Smirnov against the uniform cdf, n = 1e4
    ens = Ensemble("lambda", (Uniform(-1.0, 3.0),), seed=123)
    n = 10_000
    draws = np.sort([sample_realization(ens, i)[0] for i in range(n)])
    cdf = (draws - (-1.0)) / 4.0
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    d = max(np.max(np.abs(emp_hi - cdf)), np.max(np.abs(cdf - emp_lo)))
    assert d < 1.95 / math.sqrt(n)  # alpha ~ 0.001


def test_sites_look_independent():
    ens = Ensemble("lambda", (Uniform(0, 1), Uniform(0, 1)), seed=55)
    xs, ys = zip(*(sample_realization(ens, i) for i in range(4000)))
    r = np.corrcoef(xs, ys)[0, 1]
    assert abs(r) < 0.05


def test_consecutive_samples_share_no_gaussian_words():
    # site 0 rejects four nonpositive draws at sample 511, so it reads more
    # than one Philox block; those words are not sample 512's
    ens = Ensemble("r", (Gaussian(-0.5, 1.0),), seed=20240611)
    assert sample_realization(ens, 511) != sample_realization(ens, 512)
    for i in (0, 511, 10 ** 6):
        words = slspec.random._site_rng(ens.seed, i, 0).bit_generator.random_raw(8)
        after = slspec.random._site_rng(ens.seed, i + 1, 0).bit_generator.random_raw(8)
        assert not set(words.tolist()) & set(after.tolist())


def test_r_target_rejection_cap():
    ens = Ensemble("r", (Gaussian(-5.0, 0.1),), seed=3)
    with pytest.raises(UnsupportedSupport):
        sample_realization(ens, 0)


def test_rejection_failure_names_the_first_site_of_the_first_sample():
    # sites 1 and 2 can never draw a positive r; drawing sample by sample
    # meets site 1 of sample 0 first, whichever order a chunk draws in
    ens = Ensemble("r", (Uniform(0.5, 1.0), Gaussian(-100.0, 1.0), Gaussian(-100.0, 1.0)),
                   seed=3)
    problem = Problem(0.0, 1.0, ConstantPotential(0.0),
                      tuple(PointInteraction(x, IwasawaParams(0.0, 1.0, 0.0))
                            for x in (0.2, 0.5, 0.8)),
                      ProjPoint(0.0), ProjPoint(0.0))
    with pytest.raises(UnsupportedSupport, match="^site 1:"):
        mismatch_samples(problem, 1.0, ens, 20)


def test_unusable_draws_raise_as_one_sample_would():
    # numpy's uniform refuses an infinite range, and a NaN r is no dilation
    problem = Problem(0.0, 1.0, ConstantPotential(0.0),
                      (PointInteraction(0.5, IwasawaParams(0.0, 1.0, 0.0)),),
                      ProjPoint(0.0), ProjPoint(0.0))
    with pytest.raises(OverflowError):
        mismatch_samples(problem, 1.0, Ensemble("lambda", (Uniform(-1e308, 1e308),), 3), 5)
    with pytest.raises(InvalidDilation):
        mismatch_samples(problem, 1.0, Ensemble("r", (PointMass(math.nan),), 3), 5)


def test_r_target_mild_rejection_succeeds():
    ens = Ensemble("r", (Gaussian(1.0, 1.0),), seed=3)
    for i in range(200):
        assert sample_realization(ens, i)[0] > 0


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble("mu", (Uniform(0, 1),), seed=1)
    with pytest.raises(ValueError):
        Ensemble("lambda", (), seed=1)
    with pytest.raises(ValueError):
        Ensemble("lambda", (Uniform(0, 1),), seed=-1)
    with pytest.raises(ValueError):
        Ensemble("r", (Uniform(-1, 1),), seed=1)
    with pytest.raises(ValueError):
        Ensemble("r", (PointMass(0.0),), seed=1)
    with pytest.raises(InvalidDilation):
        Ensemble("r", (PointMass(math.nan),), seed=1)
    with pytest.raises(ValueError):
        Uniform(2.0, 1.0)
    with pytest.raises(ValueError):
        Gaussian(0.0, 0.0)


def test_distribution_json_roundtrip():
    for d in (Uniform(-1, 1), Gaussian(0.5, 2.0), PointMass(3.0)):
        assert distribution_from_json(distribution_to_json(d)) == d
    with pytest.raises(ValueError):
        distribution_from_json({"kind": "uniform", "lo": 0})
    ens = Ensemble("theta", (Uniform(0, PI), PointMass(1.0)), seed=42)
    assert ensemble_from_json(ensemble_to_json(ens)) == ens


# ---------------------------------------------------------------------- zeros

def test_zeros_of_sine():
    zs = zeros_of_eigenfunction(free_problem(4 * PI), 1.0)
    assert len(zs) == 3
    for z, want in zip(zs, (PI, 2 * PI, 3 * PI)):
        assert abs(z - want) < 1e-9


def test_no_zeros_below_barrier():
    assert zeros_of_eigenfunction(free_problem(4 * PI), -1.0) == []
    assert zeros_of_eigenfunction(free_problem(4 * PI), 0.0) == []


def test_zeros_match_dense_sign_sampling():
    rng = np.random.default_rng(202)
    for _ in range(8):
        v = PiecewisePotential(tuple(np.sort(np.concatenate([[0.0, 3.0],
                                                             rng.uniform(0, 3, 4)]))),
                               tuple(rng.uniform(-4, 4, 5)))
        prob = Problem(0.0, 3.0, v, (), ProjPoint(rng.uniform(0, PI)), DIRICHLET)
        e = rng.uniform(3, 30)
        zs = zeros_of_eigenfunction(prob, e)
        state = prob.initial_state()
        us = []
        xs = np.linspace(0.0, 3.0, 10_000)
        for x in xs[1:]:
            state = propagate_state(v, state, float(x), e)
            us.append(state.u)
        signs = np.sign(us)
        count = int(np.sum(signs[1:] * signs[:-1] < 0))
        assert len(zs) == count


def test_zeros_beyond_the_step_budget_are_refused():
    # sin(1e6 x) has about 1e6 zeros on (0, pi), which the closed form would
    # list one by one without end in sight
    with pytest.raises(ValueError, match="more than step.max_steps = 1000 zeros"):
        zeros_of_eigenfunction(free_problem(PI), 1e12, StepControl(max_steps=1000))


def test_zeros_reject_interactions():
    from slspec.problem import PointInteraction
    from slspec.sl2 import IwasawaParams
    prob = Problem(0.0, PI, ConstantPotential(0.0),
                   (PointInteraction(1.0, IwasawaParams(0, 1, 0)),),
                   DIRICHLET, DIRICHLET)
    with pytest.raises(ValueError):
        zeros_of_eigenfunction(prob, 1.0)


# ----------------------------------------------------------------- find class

def test_find_class_point_max_of_sine():
    prob = free_problem(PI)
    x0 = find_class_point(prob, 1.0, 0.0, PI, proj_class(1.0, 0.0))
    assert abs(x0 - PI / 2) < 1e-9


def test_find_class_point_zero_class_returns_t1():
    prob = free_problem(PI)
    x0 = find_class_point(prob, 1.0, 0.0, PI, proj_class(0.0, 1.0))
    assert x0 == 0.0


def test_find_class_point_target_passed_at_t1():
    # u(t1) = sin(1e-7) passes as a zero, but its class is already past the
    # target of angle 5e-8: the point is t1 itself
    prob = free_problem(PI)
    assert find_class_point(prob, 1.0, 1e-7, PI, ProjPoint(5e-8)) == 1e-7


def test_find_class_point_random_targets():
    rng = np.random.default_rng(404)
    for _ in range(10):
        v = PiecewisePotential((0.0, 1.0, 2.0, 3.0), tuple(rng.uniform(-2, 2, 3)))
        prob = Problem(0.0, 3.0, v, (), ProjPoint(rng.uniform(0, PI)), DIRICHLET)
        e = rng.uniform(8, 30)
        zs = zeros_of_eigenfunction(prob, e)
        if len(zs) < 2:
            continue
        target = ProjPoint(rng.uniform(0, PI))
        x0 = find_class_point(prob, e, zs[0], zs[1], target)
        assert zs[0] <= x0 < zs[1]
        s = propagate_state(v, prob.initial_state(), x0, e)
        assert proj_class(s.u, s.du).distance(target) < 1e-9


def test_sampling_positions_never_pass_the_end():
    # lo + (hi - lo) * i / n rounds one ulp above hi at i = n for these ends;
    # the positions are clamped to hi, so the walk stays inside the domain
    b = 3.6162554045266595
    prob = Problem(0.0, b, PiecewisePotential((0.0, b), (0.0,)), (), DIRICHLET, DIRICHLET)
    k = math.sqrt(1.3)
    assert zeros_of_eigenfunction(prob, 1.3) == pytest.approx([PI / k], abs=1e-9)
    e = 2.472
    b = 1.9981387375956057  # pi / sqrt(e), the first interior zero
    prob = Problem(0.0, b, PiecewisePotential((0.0, b), (0.0,)), (), DIRICHLET, DIRICHLET)
    k = math.sqrt(e)
    # the class of angle pi - 1e-3 is reached within the last sampling step
    x0 = find_class_point(prob, e, 0.0, b, ProjPoint(PI - 1e-3))
    assert x0 == pytest.approx((PI - math.atan(k * math.tan(1e-3))) / k, abs=1e-9)


def test_find_class_point_rejects_non_zero_endpoints():
    prob = free_problem(PI)
    with pytest.raises(TargetNotBracketed):
        find_class_point(prob, 1.0, 0.3, PI, proj_class(1.0, 0.0))


# ------------------------------------------------ crossings against mpmath

# the crossing refinement stops within CROSSING_TOL / 2 of the float
# crossing; the float lift may differ from the exact one by up to this much,
# from rounding in the piece matrices and in the positions of the lift
# walk's samples, and a crossing moves by that over the lift's speed there
# (on 300 random cases of the strategy below no zero was off by more than
# 4.9e-13, and no class point by more than CROSSING_TOL)
PHASE_ALLOWANCE = 1e-12


def mp_crossings(problem, e, psi):
    """The x in (a, b] where the class of the solution is psi mod pi, with the lift's speed.

    The solution starts from problem.initial_state() and is followed in
    closed form at 40 digits.  On a piece where V is constant, h = u cos(psi)
    - u' sin(psi) solves h'' = (V - E) h, like u, so its zeros there have
    closed forms too; at each one the lift of the class moves at speed
    cos(psi)**2 + (E - V) sin(psi)**2.
    """
    v = problem.potential
    with mpmath.workdps(40):
        start = problem.initial_state()
        u, du = mpmath.mpf(start.u), mpmath.mpf(start.du)
        cp, sp = mpmath.cos(psi), mpmath.sin(psi)
        found = []
        for x0, x1, value in zip(v.breakpoints, v.breakpoints[1:], v.values):
            q, length = mpmath.mpf(value) - e, mpmath.mpf(x1) - mpmath.mpf(x0)
            h, dh = u * cp - du * sp, du * cp - q * u * sp
            if q < 0:
                k = mpmath.sqrt(-q)
                delta = mpmath.atan2(dh / k, h)  # h(x0 + t) = R cos(k t - delta)
                n = mpmath.ceil((-delta - mpmath.pi / 2) / mpmath.pi)
                ts = []
                while (delta + mpmath.pi / 2 + n * mpmath.pi) / k <= length:
                    t = (delta + mpmath.pi / 2 + n * mpmath.pi) / k
                    if t > 0:
                        ts.append(t)
                    n += 1
                c, s, dc, ds = (mpmath.cos(k * length), mpmath.sin(k * length) / k,
                                -k * mpmath.sin(k * length), mpmath.cos(k * length))
            elif q > 0:
                k = mpmath.sqrt(q)
                r = -h * k / dh if dh != 0 else mpmath.mpf(-1)
                ts = [mpmath.atanh(r) / k] if 0 < r < 1 else []
                c, s, dc, ds = (mpmath.cosh(k * length), mpmath.sinh(k * length) / k,
                                k * mpmath.sinh(k * length), mpmath.cosh(k * length))
            else:
                ts = [-h / dh] if dh != 0 and -h / dh > 0 else []
                c, s, dc, ds = mpmath.mpf(1), length, mpmath.mpf(0), mpmath.mpf(1)
            speed = cp ** 2 - q * sp ** 2
            found += [(float(x0 + t), float(speed)) for t in ts if t <= length]
            u, du = u * c + du * s, u * dc + du * ds
    return found


@st.composite
def crossing_cases(draw):
    """A jump-free piecewise-constant problem, some pieces above E, and a target class."""
    length = draw(st.floats(2.0, 6.0))
    pieces = draw(st.integers(1, 4))
    inner = sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=pieces - 1,
                                 max_size=pieces - 1, unique=True)))
    breaks = (0.0,) + tuple(length * t for t in inner) + (length,)
    values = tuple(draw(st.lists(st.floats(-10.0, 30.0), min_size=pieces, max_size=pieces)))
    problem = Problem(0.0, length, PiecewisePotential(breaks, values), (),
                      ProjPoint(draw(st.floats(0.0, 3.1))), DIRICHLET)
    return problem, draw(st.floats(0.0, 40.0)), draw(st.floats(0.01, 3.13))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(crossing_cases())
def test_crossings_match_mpmath(case):
    problem, e, psi = case
    a, b = problem.a, problem.b
    margin = 1e-7 * (b - a) + 1e-12
    want = [x for x, _ in mp_crossings(problem, e, 0.0)]
    assume(all(abs(x - a - margin) > 1e-9 and abs(x - b + margin) > 1e-9 for x in want))
    want = [x for x in want if a + margin < x < b - margin]
    zeros = zeros_of_eigenfunction(problem, e)
    assert len(zeros) == len(want)
    # the lift moves at unit speed through every zero
    for got, x in zip(zeros, want):
        assert abs(got - x) <= CROSSING_TOL + PHASE_ALLOWANCE
    if len(zeros) < 2:
        return
    t1, t2 = zeros[0], zeros[1]
    x0 = find_class_point(problem, e, t1, t2, ProjPoint(psi))
    assert t1 <= x0 < t2
    x, speed = min(mp_crossings(problem, e, psi), key=lambda c: abs(c[0] - x0))
    assert abs(x0 - x) <= CROSSING_TOL + PHASE_ALLOWANCE / abs(speed)


def mp_end_state(problem, e):
    """(u, u') at b of the solution from problem.initial_state(), at 40 digits."""
    v = problem.potential
    with mpmath.workdps(40):
        start = problem.initial_state()
        u, du = mpmath.mpf(start.u), mpmath.mpf(start.du)
        for x0, x1, value in zip(v.breakpoints, v.breakpoints[1:], v.values):
            w, t = e - mpmath.mpf(value), mpmath.mpf(x1) - mpmath.mpf(x0)
            k = mpmath.sqrt(w)  # imaginary where w < 0; cos and sin / k stay real
            c, s = mpmath.cos(k * t), (mpmath.sin(k * t) / k if w != 0 else t)
            u, du = mpmath.re(c * u + s * du), mpmath.re(-w * s * u + c * du)
        return u, du


@settings(max_examples=30, deadline=None, derandomize=True)
@given(crossing_cases())
def test_trace_end_phase_matches_mpmath(case):
    # the lifted phase at b is (the zeros passed) pi plus the class angle in
    # [0, pi), counted from the multiple of pi at or below the start
    problem, e, _ = case
    zeros = [x for x, _ in mp_crossings(problem, e, 0.0)]
    assume(all(abs(x - problem.b) > 1e-9 for x in zeros))
    start = problem.initial_state()
    u, du = mp_end_state(problem, e)
    end = (math.pi * (math.floor(math.atan2(start.u, start.du) / math.pi) + len(zeros))
           + float(mpmath.atan2(u, du) % mpmath.pi))
    assert abs(prufer_trace(problem, e, 0.5)[-1][1] - end) <= 1e-10


# ------------------------------------- closed form against the sampled walk

@st.composite
def piece_cases(draw):
    """A jump-free piecewise problem with pieces above, below and at E, and a target class.

    A piece "at" E has |(E - V) dx^2| <= 1e-10, which the piece matrices
    treat as degenerate.  Half the problems start at a Dirichlet end on a
    first piece above E that ends exactly at the solution's first zero.
    """
    e = draw(st.floats(0.5, 30.0))
    n = draw(st.integers(1, 5))
    lengths = draw(st.lists(st.floats(0.2, 2.0), min_size=n, max_size=n))
    kinds = draw(st.lists(st.sampled_from(("above", "below", "at")), min_size=n, max_size=n))
    on_zero = draw(st.booleans())
    ws = []
    for i, (length, kind) in enumerate(zip(lengths, kinds)):
        if on_zero and i == 0:
            ws.append(draw(st.floats(2.5, 40.0)))
            lengths[0] = math.pi / math.sqrt(ws[0])
        elif kind == "at":
            ws.append(draw(st.floats(-1e-10, 1e-10)) / length ** 2)
        else:
            ws.append((1 if kind == "above" else -1) * draw(st.floats(0.05, 40.0)))
    breaks = [0.0]
    for length in lengths:
        breaks.append(breaks[-1] + length)
    bc = DIRICHLET if on_zero else ProjPoint(draw(st.floats(0.0, 3.1)))
    problem = Problem(0.0, breaks[-1], PiecewisePotential(breaks, [e - w for w in ws]), (),
                      bc, DIRICHLET)
    return problem, e, draw(st.floats(0.01, 3.13))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(piece_cases())
def test_closed_form_crossings_match_the_sampled_walk(case):
    problem, e, psi = case
    v, b = problem.potential, problem.b
    state = _normalized(problem.initial_state())
    first = math.pi * (math.floor(math.atan2(state.u, state.du) / math.pi) + 1)
    exact = list(slspec.random._piece_rises(v, state, first, b, e))
    sampled = list(slspec.random._sampled_rises(v, state, first, b, e, DEFAULT_STEP))
    # a zero within reach of b may fall on either side of it
    assume(all(b - x > 1e-9 for x in exact + sampled))
    assert len(exact) == len(sampled)
    # the lift moves at unit speed through every zero
    for x, y in zip(exact, sampled):
        assert abs(x - y) <= CROSSING_TOL + PHASE_ALLOWANCE
    for t1, t2 in zip(exact, exact[1:]):
        s1 = _normalized(propagate_state(v, problem.initial_state(), t1, e))
        phi1 = math.atan2(s1.u, s1.du)
        base = math.pi * round(phi1 / math.pi)
        goal = base + (psi - base) % math.pi
        assume(goal > phi1)
        x = next(slspec.random._piece_rises(v, s1, goal, t2, e))
        y = next(slspec.random._sampled_rises(v, s1, goal, t2, e, DEFAULT_STEP))
        speed = math.cos(psi) ** 2 + (e - v(x)) * math.sin(psi) ** 2
        tol = CROSSING_TOL + PHASE_ALLOWANCE / abs(speed)
        assert x <= y + tol
        if y - x > tol:
            # the lift rose through the goal and fell back below it on a piece
            # below E, between two samples of the walk, which missed it
            s = propagate_state(v, s1, x, e)
            assert proj_class(s.u, s.du).distance(ProjPoint(psi)) < 1e-9


def test_construct_degenerate_propagates_a_handful_of_times(monkeypatch):
    # one propagation for the eigen test and one to each site's zero; the
    # zeros and class points themselves come piece by piece in closed form
    v = PiecewisePotential((0.0, 1.0, 2.5, 3.0, 4.5, 6.0), (1.0, -2.0, 5.0, 0.0, 3.0))
    (report,) = eigenvalues_in_range(Problem(0.0, 6.0, v, (), DIRICHLET, DIRICHLET),
                                     14.0, 15.5, 200, 1e-12)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return propagate_state(*args, **kwargs)

    for module in (slspec.problem, slspec.random):
        monkeypatch.setattr(module, "propagate_state", counted)
    thetas = (0.3, 1.2, 2.0, 2.9)
    prob = construct_degenerate(v, report.E, thetas, (1.0,) * 4, 0.0, 6.0,
                                DIRICHLET, DIRICHLET)
    assert len(prob.interactions) == 4
    assert len(calls) == 1 + len(thetas)


def test_class_point_between_two_samples_of_the_walk():
    # the lift rises through the target's class at 0.49969, just before the
    # piece below E, on which it falls back through the class at 0.50052;
    # the sampled walk saw neither and reported the next rise, at 1.87008
    v = PiecewisePotential((0.0, 0.5, 1.5, 3.5), (-350.0, 219.0, -2.0))
    problem = Problem(0.0, 3.5, v, (), ProjPoint(1.0), DIRICHLET)
    zeros = zeros_of_eigenfunction(problem, 1.0)
    x0 = find_class_point(problem, 1.0, zeros[2], zeros[3], ProjPoint(0.5))
    (x, speed), *later = [c for c in mp_crossings(problem, 1.0, 0.5) if zeros[2] < c[0]]
    assert speed > 0.0 and later[0][1] < 0.0
    assert abs(x0 - x) <= CROSSING_TOL + PHASE_ALLOWANCE / speed


# ----------------------------------------------------- degenerate construction

def test_construct_degenerate_single_site():
    # sin's zero pair (pi, 2pi), target class (1, 0): u' = 0 at 3pi/2
    prob = construct_degenerate(ConstantPotential(0.0), 1.0, [0.0], [1.0],
                                0.0, 4 * PI, DIRICHLET, DIRICHLET)
    assert len(prob.interactions) == 1
    assert abs(prob.interactions[0].x - 3 * PI / 2) < 1e-9
    for alpha in (-5.0, -1.0, 0.0, 1.0, 5.0):
        from slspec.problem import with_site_params
        assert eigen_test(with_site_params(prob, 0, alpha=alpha), 1.0).mismatch <= 1e-7


def test_construct_degenerate_two_sites():
    prob = construct_degenerate(ConstantPotential(0.0), 1.0, [0.0, 0.0], [1.0, 1.0],
                                0.0, 4 * PI, DIRICHLET, DIRICHLET)
    xs = [s.x for s in prob.interactions]
    assert abs(xs[0] - 3 * PI / 2) < 1e-9
    assert abs(xs[1] - 5 * PI / 2) < 1e-9


def test_construct_degenerate_rejects_non_eigenvalue():
    with pytest.raises(NotUnperturbedEigenvalue):
        construct_degenerate(ConstantPotential(0.0), 1.2, [0.0], [1.0],
                             0.0, 4 * PI, DIRICHLET, DIRICHLET)
    prob = construct_degenerate(ConstantPotential(0.0), 1.2, [0.0], [1.0],
                                0.0, 4 * PI, DIRICHLET, DIRICHLET,
                                allow_non_eigenvalue=True)
    assert len(prob.interactions) == 1


def test_construct_degenerate_insufficient_oscillation():
    # sin(0.1 x) has no interior zero on (0, pi); only the endpoint zero at 0
    # is usable, which is one short of a gap
    with pytest.raises(InsufficientOscillation) as info:
        construct_degenerate(ConstantPotential(0.0), 0.01, [0.0], [1.0],
                             0.0, PI, DIRICHLET, DIRICHLET,
                             allow_non_eigenvalue=True)
    assert info.value.zeros_found == 1


def test_construct_degenerate_nontrivial_rotations_and_dilations():
    # theta multiples of pi keep the continuation proportional to the
    # eigenfunction, so arbitrary dilations are harmless too
    prob = construct_degenerate(ConstantPotential(0.0), 1.0, [PI, 0.0], [2.0, 0.5],
                                0.0, 4 * PI, DIRICHLET, DIRICHLET)
    from slspec.problem import with_site_params
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = prob
        for i in range(2):
            p = with_site_params(p, i, alpha=float(rng.uniform(-4, 4)))
        assert eigen_test(p, 1.0).mismatch <= 1e-7


# ---------------------------------------------------------------- monte carlo

def degenerate_problem():
    return construct_degenerate(ConstantPotential(0.0), 1.0, [0.0], [1.0],
                                0.0, 4 * PI, DIRICHLET, DIRICHLET)


def generic_one_site_problem():
    # identity interaction off the nodes of sin(2x): E = 4 is an eigenvalue
    # only at the template shear
    from slspec.problem import PointInteraction
    from slspec.sl2 import IwasawaParams
    return Problem(0.0, PI, ConstantPotential(0.0),
                   (PointInteraction(1.0, IwasawaParams(0.0, 1.0, 0.0)),),
                   DIRICHLET, DIRICHLET)


def test_monte_carlo_pointmass_consistency():
    prob = generic_one_site_problem()
    ens = Ensemble("lambda", (PointMass(0.0),), seed=5)
    rep = monte_carlo(prob, 4.0, ens, 64, epsilon=1e-6)
    assert rep.hits == rep.samples == 64
    assert rep.failures == 0


def test_monte_carlo_degenerate_all_hits():
    prob = degenerate_problem()
    for dist in (Uniform(-2.0, 2.0), Gaussian(0.0, 1.0)):
        rep = monte_carlo(prob, 1.0, Ensemble("lambda", (dist,), seed=11),
                          100, epsilon=1e-6)
        assert rep.hits == 100


def test_monte_carlo_generic_zero_hits():
    prob = generic_one_site_problem()
    rep = monte_carlo(prob, 4.0, Ensemble("lambda", (Uniform(-2.0, 2.0),), seed=17),
                      1000, epsilon=1e-6)
    assert rep.hits == 0
    assert rep.failures == 0


def test_monte_carlo_theta_ensemble_zero_hits():
    prob = generic_one_site_problem()
    rep = monte_carlo(prob, 4.0, Ensemble("theta", (Uniform(0.0, PI),), seed=23),
                      1000, epsilon=1e-6)
    assert rep.hits == 0


def test_monte_carlo_deterministic_and_worker_independent():
    prob = generic_one_site_problem()
    ens = Ensemble("lambda", (Uniform(-1.0, 1.0),), seed=29)
    a = monte_carlo(prob, 4.0, ens, 600, epsilon=1e-6)
    b = monte_carlo(prob, 4.0, ens, 600, epsilon=1e-6)
    c = monte_carlo(prob, 4.0, ens, 600, epsilon=1e-6, workers=2)
    assert a == b == c


def test_monte_carlo_quantiles_are_sorted_pairs():
    prob = generic_one_site_problem()
    rep = monte_carlo(prob, 4.0, Ensemble("lambda", (Uniform(-1, 1),), seed=31),
                      200, epsilon=1e-6)
    qs = [q for q, _ in rep.mismatch_quantiles]
    vals = [v for _, v in rep.mismatch_quantiles]
    assert qs == sorted(qs)
    assert vals == sorted(vals)
    assert isinstance(rep, MonteCarloReport)


def test_monte_carlo_counts_failures_separately():
    # an impossible integration tolerance makes every propagation fail;
    # failures must be reported, never counted as hits
    from slspec.problem import PointInteraction
    from slspec.sl2 import IwasawaParams
    from slspec.transfer import GridPotential, StepControl
    g = GridPotential((0.0, 0.5, 1.0), (0.0, 2.0, 0.0))
    prob = Problem(0.0, 1.0, g,
                   (PointInteraction(0.4, IwasawaParams(0.0, 1.0, 0.0)),),
                   DIRICHLET, DIRICHLET)
    bad = StepControl(tol=1e-18, max_refine=2, max_steps=10_000)
    rep = monte_carlo(prob, 1.0, Ensemble("lambda", (Uniform(-1, 1),), seed=3),
                      8, epsilon=1e-6, step=bad)
    assert rep.failures == 8
    assert rep.hits == 0
    assert rep.mismatch_quantiles == ()


def test_monte_carlo_validation():
    prob = generic_one_site_problem()
    ens2 = Ensemble("lambda", (Uniform(0, 1), Uniform(0, 1)), seed=1)
    with pytest.raises(ValueError):
        monte_carlo(prob, 4.0, ens2, 10, epsilon=1e-6)
    ens = Ensemble("lambda", (Uniform(0, 1),), seed=1)
    with pytest.raises(ValueError):
        monte_carlo(prob, 4.0, ens, 0, epsilon=1e-6)
    with pytest.raises(ValueError):
        monte_carlo(prob, 4.0, ens, 10, epsilon=0.0)


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan])
def test_monte_carlo_checks_epsilon_before_sampling(epsilon, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking epsilon")

    monkeypatch.setattr(slspec.random, "mismatch_samples", no_sampling)
    ens = Ensemble("lambda", (Uniform(0, 1),), seed=1)
    with pytest.raises(ValueError, match="^epsilon must be positive$"):
        monte_carlo(generic_one_site_problem(), 4.0, ens, 10, epsilon=epsilon)


def test_summary_counts_hits_at_epsilon_and_interpolates_quantiles():
    report = summarize_mismatches([0.3, 1e-6, 0.0, 2e-6, 0.1], 2, 1e-6, seed=5)
    assert (report.samples, report.hits, report.failures) == (7, 2, 2)
    quantiles = dict(report.mismatch_quantiles)
    assert (quantiles[0.0], quantiles[0.5], quantiles[1.0]) == (0.0, 2e-6, 0.3)
    assert quantiles[0.25] == 1e-6 and quantiles[0.9] == pytest.approx(0.22)
    assert summarize_mismatches([], 3, 1e-6, seed=5).mismatch_quantiles == ()
