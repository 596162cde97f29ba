"""Whole-problem propagation: jumps, traces, and the Pruefer lift."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slspec.problem
from slspec.problem import (
    PointInteraction,
    Problem,
    _Piece,
    _normalized,
    _piece_phases,
    problem_from_json,
    problem_to_json,
    propagate_through,
    prufer_trace,
    with_site_params,
)
from slspec.sl2 import (
    IwasawaParams,
    Mat2,
    ProjPoint,
    iwasawa_compose,
    iwasawa_decompose,
    proj_class,
)
from slspec.transfer import (
    ConstantPotential,
    PiecewisePotential,
    SolutionState,
    StepControl,
    propagate_state,
    transfer_matrix,
)

PI = math.pi
IDENTITY_PARAMS = IwasawaParams(0.0, 1.0, 0.0)


def dirichlet_box(length=PI, v=0.0, interactions=()):
    return Problem(0.0, length, ConstantPotential(v), tuple(interactions),
                   ProjPoint(0.0), ProjPoint(0.0))


def delta_params(strength):
    """Iwasawa data of the jump [[1,0],[strength,1]]: u continuous, u' += strength*u."""
    return iwasawa_decompose(Mat2(1.0, 0.0, strength, 1.0))


# ----------------------------------------------------------------- validation

def test_problem_validation():
    v = ConstantPotential(0.0)
    with pytest.raises(ValueError):
        Problem(1.0, 0.0, v, (), ProjPoint(0), ProjPoint(0))
    with pytest.raises(ValueError):
        Problem(0.0, math.inf, v, (), ProjPoint(0), ProjPoint(0))
    with pytest.raises(ValueError):
        Problem(0.0, 1.0, v, (PointInteraction(1.5, IDENTITY_PARAMS),),
                ProjPoint(0), ProjPoint(0))
    with pytest.raises(ValueError):
        Problem(0.0, 1.0, v,
                (PointInteraction(0.6, IDENTITY_PARAMS),
                 PointInteraction(0.4, IDENTITY_PARAMS)),
                ProjPoint(0), ProjPoint(0))
    with pytest.raises(ValueError):
        Problem(0.0, 2.0, PiecewisePotential((0.0, 1.0), (1.0,)), (),
                ProjPoint(0), ProjPoint(0))


def test_initial_state_matches_left_angle():
    p = Problem(0.0, 1.0, ConstantPotential(0.0), (), ProjPoint(0.7), ProjPoint(0))
    s = p.initial_state()
    assert abs(s.u - math.sin(0.7)) < 1e-15
    assert abs(s.du - math.cos(0.7)) < 1e-15


# ---------------------------------------------------------------- propagation

def test_no_interactions_equals_propagate_state():
    prob = Problem(0.0, 2.0, ConstantPotential(1.5), (), ProjPoint(0.36), ProjPoint(0.0))
    res = propagate_through(prob, 3.0)
    direct = propagate_state(prob.potential, prob.initial_state(), 2.0, 3.0)
    assert res.lefts == ()
    assert abs(math.hypot(res.final.u, res.final.du) - 1.0) < 1e-15
    assert proj_class(res.final.u, res.final.du).distance(proj_class(direct.u, direct.du)) < 1e-10


def test_identity_interaction_is_invisible():
    plain = dirichlet_box(2.0)
    with_id = dirichlet_box(2.0, interactions=[PointInteraction(1.0, IDENTITY_PARAMS)])
    a = propagate_through(plain, 1.0)
    b = propagate_through(with_id, 1.0)
    assert abs(a.final.u - b.final.u) < 1e-8
    assert abs(a.final.du - b.final.du) < 1e-8


def test_delta_jump_action():
    # the delta jump keeps u and kicks u' by strength * u
    strength = 2.5
    prob = dirichlet_box(PI, interactions=[PointInteraction(1.0, delta_params(strength))])
    res = propagate_through(prob, 2.0)
    (left,) = res.lefts
    u, du = iwasawa_compose(prob.interactions[0].params).apply((left.u, left.du))
    assert abs(u - left.u) < 1e-12
    assert abs(du - (left.du + strength * left.u)) < 1e-12
    # the walk carries on from exactly that jumped state
    assert res.final == _normalized(propagate_state(prob.potential, SolutionState(1.0, u, du),
                                                    PI, 2.0))


def test_trace_consistency_right_equals_jump_times_left():
    # each recorded left state, jumped by its site's matrix and walked on,
    # gives the next left state (or the final one) bit for bit
    rng = np.random.default_rng(42)
    for _ in range(20):
        sites = []
        xs = np.sort(rng.uniform(0.2, 2.8, 3))
        for x in xs:
            sites.append(PointInteraction(
                float(x),
                IwasawaParams(rng.uniform(-2, 2), rng.uniform(0.3, 3),
                              rng.uniform(0, 2 * PI))))
        prob = Problem(0.0, 3.0, ConstantPotential(0.0), tuple(sites),
                       ProjPoint(rng.uniform(0, PI)), ProjPoint(0))
        e = rng.uniform(-2, 9)
        res = propagate_through(prob, e)
        v = prob.potential
        assert res.lefts[0] == _normalized(propagate_state(v, prob.initial_state(), sites[0].x, e))
        stops = [*res.lefts[1:], res.final]
        for site, left, nxt in zip(sites, res.lefts, stops):
            m = iwasawa_compose(site.params)
            assert left.x == site.x
            assert nxt == _normalized(propagate_state(v, SolutionState(site.x, *m.apply(
                (left.u, left.du))), nxt.x, e))


def test_interleaving_matches_matrix_product():
    rng = np.random.default_rng(8)
    for _ in range(20):
        v = PiecewisePotential((0.0, 0.8, 1.7, 3.0),
                               tuple(rng.uniform(-3, 3, 3)))
        sites = [PointInteraction(0.9, IwasawaParams(1.0, 2.0, 0.7)),
                 PointInteraction(2.1, IwasawaParams(-0.5, 0.8, 4.0))]
        prob = Problem(0.0, 3.0, v, tuple(sites), ProjPoint(0.3), ProjPoint(0))
        e = rng.uniform(-1, 8)
        init = prob.initial_state()
        res = propagate_through(prob, e)
        m = transfer_matrix(v, 0.9, 0.0, e)
        m = iwasawa_compose(sites[0].params) @ m
        m = transfer_matrix(v, 2.1, 0.9, e) @ m
        m = iwasawa_compose(sites[1].params) @ m
        m = transfer_matrix(v, 3.0, 2.1, e) @ m
        want = proj_class(*m.apply((init.u, init.du)))
        assert abs(math.hypot(res.final.u, res.final.du) - 1.0) < 1e-15
        assert proj_class(res.final.u, res.final.du).distance(want) < 1e-7


def test_with_site_params():
    prob = dirichlet_box(PI, interactions=[PointInteraction(1.0, IDENTITY_PARAMS)])
    out = with_site_params(prob, 0, alpha=3.0)
    assert out.interactions[0].params.alpha == 3.0
    assert prob.interactions[0].params.alpha == 0.0


# --------------------------------------------------------------- Pruefer lift

def test_prufer_free_particle_is_linear():
    prob = dirichlet_box(3.5 * PI)
    trace = prufer_trace(prob, 1.0, resolution=0.05)
    for x, phi in trace:
        assert abs(phi - x) < 1e-9


def test_prufer_zero_count_free():
    # sin has interior zeros pi, 2pi, 3pi on [0, 3.5pi]: the lift passes
    # 3 multiples of pi strictly inside
    prob = dirichlet_box(3.5 * PI)
    trace = prufer_trace(prob, 1.0, resolution=0.05)
    crossings = 0
    for (_, p0), (_, p1) in zip(trace, trace[1:]):
        if math.floor(p1 / PI) > math.floor(p0 / PI):
            crossings += 1
    assert crossings == 3


def test_prufer_trace_ends_exactly_at_the_stop():
    # seg_lo + (x_stop - seg_lo) * i / n rounds one ulp above b at i = n here
    b = 3.6162554045266595
    prob = Problem(0.0, b, PiecewisePotential((0.0, b), (0.0,)), (),
                   ProjPoint(0.0), ProjPoint(0.0))
    trace = prufer_trace(prob, 1.3, b / 11)
    xs = [x for x, _ in trace]
    assert xs[-1] == b
    assert xs == sorted(xs)


def test_prufer_zero_count_matches_sign_sampling():
    rng = np.random.default_rng(97)
    for _ in range(10):
        v = PiecewisePotential(tuple(np.sort(np.concatenate([[0.0, 3.0],
                                                             rng.uniform(0, 3, 4)]))),
                               tuple(rng.uniform(-4, 4, 5)))
        prob = Problem(0.0, 3.0, v, (), ProjPoint(rng.uniform(0, PI)), ProjPoint(0))
        e = rng.uniform(2, 25)
        init = prob.initial_state()
        trace = prufer_trace(prob, e, resolution=0.01)
        lift_count = sum(
            1 for (_, p0), (_, p1) in zip(trace, trace[1:])
            if math.floor(p1 / PI) > math.floor(p0 / PI))
        xs = np.linspace(0.0, 3.0, 4000)
        us = []
        state = init
        for x in xs[1:]:
            state = propagate_state(v, state, float(x), e)
            us.append(state.u)
        signs = np.sign(us)
        sign_count = int(np.sum(signs[1:] * signs[:-1] < 0))
        assert lift_count == sign_count


def test_prufer_smooth_crossings_increase():
    # within smooth pieces the lift can only pass multiples of pi upward
    rng = np.random.default_rng(31)
    for _ in range(10):
        sites = [PointInteraction(1.3, IwasawaParams(rng.uniform(-2, 2),
                                                     rng.uniform(0.3, 3),
                                                     rng.uniform(0, 2 * PI)))]
        prob = Problem(0.0, 3.0, ConstantPotential(rng.uniform(-3, 3)),
                       tuple(sites), ProjPoint(rng.uniform(0, PI)), ProjPoint(0))
        trace = prufer_trace(prob, rng.uniform(-2, 12), resolution=0.02)
        for (x0, p0), (x1, p1) in zip(trace, trace[1:]):
            if x1 == x0:  # interaction jump, not a smooth crossing
                continue
            if math.floor(p1 / PI) != math.floor(p0 / PI):
                assert p1 > p0


def test_prufer_jump_branch_bounded():
    prob = dirichlet_box(PI, interactions=[PointInteraction(
        1.0, IwasawaParams(2.0, 0.5, 1.0))])
    trace = prufer_trace(prob, 4.0, resolution=0.05)
    jumps = [(p1 - p0) for (x0, p0), (x1, p1) in zip(trace, trace[1:]) if x1 == x0]
    assert len(jumps) == 1
    assert -PI / 2 < jumps[0] <= PI / 2


def trace_bits(trace):
    assert all(type(x) is float and type(phi) is float for x, phi in trace)
    return [(x.hex(), phi.hex()) for x, phi in trace]


@st.composite
def piece_trace_cases(draw):
    """A piecewise-constant problem, an energy and a resolution for a trace.

    Piece ends sit on multiples of 1/8, some pieces take V = E (so E - V = 0
    there) and some sites sit on piece ends.  With E and V small the
    resolution, a power of two, sets the spacing, so samples fall on piece
    ends too.
    """
    e = draw(st.sampled_from([0.25, 0.5, 1.5, 6.0, 30.0]) | st.floats(-10.0, 40.0))
    gaps = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    ends = [0.125 * k for k in np.cumsum([0] + gaps).tolist()]
    values = draw(st.lists(st.just(e) | st.sampled_from([0.0, 2.0, -1.0]) | st.floats(-20.0, 40.0),
                           min_size=len(gaps), max_size=len(gaps)))
    a, b = ends[0], ends[-1]
    inside = draw(st.lists(st.sampled_from(ends[1:-1]) if len(ends) > 2 else st.nothing()))
    inside += draw(st.lists(st.floats(a, b, exclude_min=True, exclude_max=True), max_size=3))
    sites = [PointInteraction(x, IwasawaParams(draw(st.floats(-3.0, 3.0)), draw(st.floats(0.2, 5.0)),
                                               draw(st.floats(0.0, 2 * PI))))
             for x in sorted(set(inside))]
    problem = Problem(a, b, PiecewisePotential(tuple(ends), tuple(values)), tuple(sites),
                      ProjPoint(draw(st.floats(0.0, PI))), ProjPoint(0.0))
    resolution = draw(st.sampled_from([0.125, 0.0625, 0.03125]) | st.floats(0.01, 0.5))
    return problem, e, resolution


@settings(max_examples=150, deadline=None, derandomize=True)
@given(piece_trace_cases(), st.integers(1, 9))
def test_piece_trace_equals_the_per_sample_walk(piece_trace_reference, case, block):
    problem, e, resolution = case
    want = trace_bits(piece_trace_reference(problem, e, resolution))
    # a small block puts seams between the samples of one piece and of one stop
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(slspec.problem, "_BLOCK", block)
        assert trace_bits(prufer_trace(problem, e, resolution)) == want


def test_piece_trace_samples_a_piece_end(piece_trace_reference):
    # the samples at 1.0 and 1.5 are the ends of the first two pieces, and a
    # site sits on the second; E - V is 0.25, 0 and -0.5 on the pieces
    v = PiecewisePotential((0.0, 1.0, 1.5, 2.0), (0.0, 0.25, 0.75))
    prob = Problem(0.0, 2.0, v, (PointInteraction(1.5, IwasawaParams(0.7, 1.3, 0.4)),),
                   ProjPoint(0.3), ProjPoint(0.0))
    trace = prufer_trace(prob, 0.25, 0.125)
    xs = [x for x, _ in trace]
    assert xs.count(1.0) == 1 and xs.count(1.5) == 2
    assert trace_bits(trace) == trace_bits(piece_trace_reference(prob, 0.25, 0.125))


@pytest.mark.parametrize("lo, x, n", [(0.238, 0.8278063027663567, 7),
                                      (0.013, 0.8667221738868139, 11),
                                      (0.523, 1.2901266705813412, 13),
                                      (0.507, 0.9542796329604123, 5)])
def test_jump_acts_on_the_last_sample_an_ulp_short_of_its_site(piece_trace_reference,
                                                              lo, x, n):
    # lo + (x - lo) * n / n rounds one ulp below x: the n samples between the
    # two sites end an ulp short of the second, and its jump acts there
    v = PiecewisePotential((0.0, 0.6, 2.0), (0.0, 0.5))
    sites = (PointInteraction(lo, IwasawaParams(0.7, 1.3, 0.4)),
             PointInteraction(x, IwasawaParams(-0.4, 0.6, 2.0)))
    prob = Problem(0.0, 2.0, v, sites, ProjPoint(0.3), ProjPoint(0.0))
    resolution = (x - lo) / n * 1.0001
    trace = prufer_trace(prob, 0.75, resolution)
    xs = [t for t, _ in trace]
    assert xs[xs.index(x) - n - 1] == lo and xs[xs.index(x) - 1] < x
    assert trace_bits(trace) == trace_bits(piece_trace_reference(prob, 0.75, resolution))


def test_piece_trace_longer_than_a_block(piece_trace_reference):
    v = PiecewisePotential((0.0, 2.5, 4.0, 7.0), (1.0, 9.0, -3.0))
    prob = Problem(0.0, 7.0, v, (PointInteraction(4.0, IwasawaParams(-0.5, 2.0, 1.1)),),
                   ProjPoint(1.0), ProjPoint(0.0))
    trace = prufer_trace(prob, 4.0, 1e-4)
    assert len(trace) > slspec.problem._BLOCK + 3
    assert trace_bits(trace) == trace_bits(piece_trace_reference(prob, 4.0, 1e-4))


def test_non_finite_phase_is_a_floating_point_error():
    # cosh(3 * 236.5) is finite, but 9 times sinh of it over 3 is not
    v = ConstantPotential(9.0)
    piece = _Piece(0.0, 236.5, 0.0, -9.0, SolutionState(0.0, 0.0, 1.0), 0.0)
    message = r"^the Pruefer phase at x = 236\.5 is not finite at E = 0\.0$"
    with pytest.raises(FloatingPointError, match=message):
        piece.at(236.5)
    with pytest.raises(FloatingPointError, match=message):
        _piece_phases([piece], np.array([1.0, 236.5]), np.array([0, 0]), 0.0)
    prob = Problem(0.0, 236.5, v, (), ProjPoint(0.0), ProjPoint(0.0))
    with pytest.raises(FloatingPointError, match=message):
        prufer_trace(prob, 0.0, 0.1)


def test_prufer_resolution_validation():
    prob = dirichlet_box()
    with pytest.raises(ValueError):
        prufer_trace(prob, 1.0, resolution=0.0)
    # pi / 1e-6 samples exceed the step budget of a million
    with pytest.raises(ValueError, match=r"^resolution = 1e-06 needs at least 3\.14e\+06 "
                                         r"samples, more than step\.max_steps = 1000000$"):
        prufer_trace(prob, 1.0, 1e-6, StepControl(max_steps=10 ** 6))


# ----------------------------------------------------------------------- JSON

def test_problem_json_roundtrip():
    prob = Problem(0.0, 2.0, PiecewisePotential((0.0, 1.0, 2.0), (1.0, -1.0)),
                   (PointInteraction(0.5, IwasawaParams(0.2, 1.5, 0.9)),),
                   ProjPoint(0.1), ProjPoint(1.2))
    back = problem_from_json(problem_to_json(prob))
    assert back == prob


def test_problem_json_rejects_unknown_keys():
    doc = problem_to_json(dirichlet_box())
    doc["extra"] = 1
    with pytest.raises(ValueError):
        problem_from_json(doc)
    doc.pop("extra")
    doc.pop("a")
    with pytest.raises(ValueError):
        problem_from_json(doc)
