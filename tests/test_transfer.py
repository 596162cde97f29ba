"""Transfer-matrix checks: closed forms, cocycle/inverse identities, Wronskian."""

import json
import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slspec.transfer import (
    POTENTIAL_KINDS,
    ConstantPotential,
    PiecewisePotential,
    GridPotential,
    SolutionState,
    StepControl,
    IntegrationFailure,
    DomainError,
    _converged,
    _lane_max,
    transfer_matrix,
    propagate_state,
    potential_from_json,
    potential_to_json,
)


def free_matrix(e, dx):
    """Reference free-particle matrix, written from the closed-form solutions."""
    if e > 0:
        k = math.sqrt(e)
        return ((math.cos(k * dx), math.sin(k * dx) / k),
                (-k * math.sin(k * dx), math.cos(k * dx)))
    if e < 0:
        k = math.sqrt(-e)
        return ((math.cosh(k * dx), math.sinh(k * dx) / k),
                (k * math.sinh(k * dx), math.cosh(k * dx)))
    return ((1.0, dx), (0.0, 1.0))


def entries(m):
    return (m.a, m.b, m.c, m.d)


def flat(ref):
    (a, b), (c, d) = ref
    return (a, b, c, d)


def random_piecewise(rng, lo=-1.0, hi=1.5, pieces=5, vmax=4.0):
    # desk-scale ranges: hyperbolic growth exp(kappa * length) amplifies
    # roundoff, so lengths and potential sizes stay moderate
    bp = np.sort(rng.uniform(lo, hi, pieces + 1))
    while np.any(np.diff(bp) < 1e-3):
        bp = np.sort(rng.uniform(lo, hi, pieces + 1))
    vals = rng.uniform(-vmax, vmax, pieces)
    return PiecewisePotential(tuple(bp), tuple(vals))


# ------------------------------------------------------------- closed forms

def test_identity_at_coincident_points():
    v = ConstantPotential(3.0)
    m = transfer_matrix(v, 1.5, 1.5, 2.0)
    assert entries(m) == (1.0, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("e", [-4.0, -1.0, 0.25, 1.0, 9.0])
@pytest.mark.parametrize("dx", [-3.0, -0.4, 0.7, 2.5, 8.0])
def test_free_particle_exact_route(e, dx):
    # relative comparison: hyperbolic entries reach cosh(16) ~ 4e6
    m = transfer_matrix(ConstantPotential(0.0), dx, 0.0, e)
    for got, want in zip(entries(m), flat(free_matrix(e, dx))):
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_shifted_constant_potential():
    # V = 5, E = 9 behaves like a free particle at energy 4
    m = transfer_matrix(ConstantPotential(5.0), 1.3, 0.2, 9.0)
    for got, want in zip(entries(m), flat(free_matrix(4.0, 1.1))):
        assert abs(got - want) < 1e-12


def test_zero_energy_edge_case():
    m = transfer_matrix(ConstantPotential(0.0), 2.0, 0.0, 0.0)
    assert abs(m.b - 2.0) < 1e-12 and abs(m.a - 1.0) < 1e-12
    assert abs(m.det - 1.0) < 1e-14


def test_rk4_route_matches_closed_form():
    # Independent route: a two-node zero grid takes the step-controlled
    # integrator on the free particle; both routes must match the closed form.
    for free in (ConstantPotential(0.0), GridPotential((-10.0, 10.0), (0.0, 0.0))):
        for e in (-4.0, -1.0, 0.25, 1.0, 9.0):
            for dx in (-2.0, 1.0, 3.7):
                m = transfer_matrix(free, dx, 0.0, e)
                for got, want in zip(entries(m), flat(free_matrix(e, dx))):
                    assert abs(got - want) < 1e-7 * max(1.0, abs(want))


def test_grid_potential_matches_exact_on_constant():
    # A two-node grid interpolates a constant exactly, so the integrator can
    # be cross-validated against the exact piecewise route.
    g = GridPotential((-5.0, 5.0), (2.0, 2.0))
    c = ConstantPotential(2.0)
    for e in (-1.0, 3.0, 7.5):
        mg = transfer_matrix(g, 2.0, -1.0, e)
        mc = transfer_matrix(c, 2.0, -1.0, e)
        assert max(abs(p - q) for p, q in zip(entries(mg), entries(mc))) < 1e-8


# ---------------------------------------------------------------- invariants

def test_cocycle_and_inverse_on_random_piecewise():
    rng = np.random.default_rng(101)
    for _ in range(100):
        v = random_piecewise(rng)
        lo, hi = v.domain
        e = rng.uniform(-5, 12)
        x, y, z = rng.uniform(lo, hi, 3)
        mxy = transfer_matrix(v, x, y, e)
        myz = transfer_matrix(v, y, z, e)
        mxz = transfer_matrix(v, x, z, e)
        prod = mxy @ myz
        assert max(abs(p - q) for p, q in zip(entries(prod), entries(mxz))) < 1e-7
        myx = transfer_matrix(v, y, x, e)
        inv = mxy @ myx
        assert max(abs(p - q) for p, q in zip(entries(inv), (1, 0, 0, 1))) < 1e-7


def test_wronskian_constancy():
    rng = np.random.default_rng(55)
    for _ in range(30):
        v = random_piecewise(rng)
        lo, hi = v.domain
        e = rng.uniform(-2, 8)
        s1 = SolutionState(lo, rng.normal(), rng.normal())
        s2 = SolutionState(lo, rng.normal(), rng.normal())
        w0 = s1.u * s2.du - s1.du * s2.u
        for t in np.linspace(lo, hi, 7)[1:]:
            a = propagate_state(v, s1, float(t), e)
            b = propagate_state(v, s2, float(t), e)
            w = a.u * b.du - a.du * b.u
            assert abs(w - w0) < 1e-7 * max(1.0, abs(w0))


def test_propagate_state_matches_matrix_route():
    rng = np.random.default_rng(77)
    for _ in range(50):
        v = random_piecewise(rng)
        lo, hi = v.domain
        e = rng.uniform(-5, 10)
        x0, x1 = rng.uniform(lo, hi, 2)
        s = SolutionState(x0, rng.normal(), rng.normal())
        direct = propagate_state(v, s, x1, e)
        m = transfer_matrix(v, x1, x0, e)
        u, du = m.apply((s.u, s.du))
        assert abs(direct.u - u) < 1e-7 * max(1.0, abs(u))
        assert abs(direct.du - du) < 1e-7 * max(1.0, abs(du))


def test_propagate_state_trivial_and_sine():
    v = ConstantPotential(0.0)
    s = SolutionState(0.0, 0.0, 1.0)
    assert propagate_state(v, s, 0.0, 1.0) is s
    out = propagate_state(v, s, math.pi / 2, 1.0)
    assert abs(out.u - 1.0) < 1e-8 and abs(out.du) < 1e-8


def test_propagate_state_rk4_route_on_grid():
    g = GridPotential(tuple(np.linspace(0, 3, 31)),
                      tuple(np.sin(np.linspace(0, 3, 31))))
    s = SolutionState(0.0, 1.0, 0.3)
    out = propagate_state(g, s, 2.7, 4.0)
    m = transfer_matrix(g, 2.7, 0.0, 4.0)
    u, du = m.apply((s.u, s.du))
    assert abs(out.u - u) < 1e-7
    assert abs(out.du - du) < 1e-7


def test_rk4_backward_propagation_on_grid():
    # backward runs integrate with a negative step; forward-then-back must
    # return to the start
    g = GridPotential(tuple(np.linspace(0, 2, 21)),
                      tuple(np.cos(np.linspace(0, 2, 21))))
    s = SolutionState(0.3, 0.7, -0.2)
    fwd = propagate_state(g, s, 1.9, 5.0)
    back = propagate_state(g, fwd, 0.3, 5.0)
    assert abs(back.u - s.u) < 1e-7
    assert abs(back.du - s.du) < 1e-7
    m_back = transfer_matrix(g, 0.3, 1.9, 5.0)
    prod = m_back @ transfer_matrix(g, 1.9, 0.3, 5.0)
    assert max(abs(p - q) for p, q in zip(prod.entries(), (1, 0, 0, 1))) < 1e-7


# ------------------------------------------------------------------- plumbing

def test_domain_errors():
    v = PiecewisePotential((0.0, 1.0, 2.0), (1.0, -1.0))
    with pytest.raises(DomainError):
        transfer_matrix(v, 2.5, 0.5, 1.0)
    with pytest.raises(DomainError):
        propagate_state(v, SolutionState(-0.5, 1.0, 0.0), 1.0, 1.0)
    with pytest.raises(DomainError):
        v(5.0)


def test_step_control_validation():
    with pytest.raises(ValueError):
        StepControl(tol=0.0)
    with pytest.raises(ValueError):
        StepControl(tol=-1e-9)


def test_integration_failure_on_impossible_tolerance():
    g = GridPotential((0.0, 0.5, 1.0), (0.0, 2.0, 0.0))
    with pytest.raises(IntegrationFailure):
        transfer_matrix(g, 1.0, 0.0, 1.0,
                        step=StepControl(tol=1e-18, max_refine=20, max_steps=50_000))


def test_step_budget_counts_the_steps_a_pass_takes():
    # a pass takes at least one step per cell: 5000 on this grid, though
    # |x - y| / h is only 178 at the base step
    xs = tuple(i / 5000 for i in range(5001))
    g = GridPotential(xs, tuple(math.sin(7.0 * x) for x in xs))
    with pytest.raises(IntegrationFailure,
                       match=r"^step budget 1000 exhausted before tolerance 1e-09$"):
        transfer_matrix(g, 1.0, 0.0, 1.0, step=StepControl(max_steps=1000))
    assert transfer_matrix(g, 1.0, 0.0, 1.0, step=StepControl(max_steps=10_000)).det


def test_overflowing_matrix_is_an_integration_failure():
    # one V = 1000 piece of length 15 has entries near 1e205: finite, but the
    # determinant overflows to NaN, which must not pass the det gate
    v = PiecewisePotential((0.0, 15.0), (1000.0,))
    with pytest.raises(IntegrationFailure,
                       match=r"^non-finite transfer matrix: determinant nan$"):
        transfer_matrix(v, 15.0, 0.0, 1.0)


def test_huge_finite_matrix_passes_the_det_gate():
    # the squared size of the shear overflows, and the det gate then admits
    # any finite determinant instead of failing on the square
    shear = PiecewisePotential((0.0, 1e200), (0.0,))
    m = transfer_matrix(shear, 1e200, 0.0, 0.0)
    assert m.entries() == (1.0, 1e200, 0.0, 1.0)


ENTRIES = [0.0, 1.0, -2.5, 3.0, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("values", [[1.0, 0.5, 3.0, 2.0], [1.0, math.nan, 3.0],
                                    [math.nan, 3.0], [1.0, math.inf, math.nan, 2.0],
                                    [0.5, -math.inf, 0.25]])
def test_lane_max_is_max_until_a_nan(values):
    got = _lane_max(values)
    want = math.nan if any(map(math.isnan, values)) else max(values)
    assert got == want or math.isnan(got) and math.isnan(want)
    # lanes: every pairing of entries, each lane as its floats
    lanes = [np.array(ENTRIES * len(ENTRIES)), np.repeat(ENTRIES, len(ENTRIES))]
    per_lane = [_lane_max([1.0, a, b]) for a, b in zip(*(t.tolist() for t in lanes))]
    assert np.array_equal(_lane_max([1.0] + lanes), per_lane, equal_nan=True)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 1, 3])
def test_passes_that_are_not_finite_never_converge(bad, where):
    # Python's max drops a NaN that is not first; the change must keep it
    good = [(0.5, 1.0), (2.0, -1.0)]
    cur = [list(col) for col in good]
    cur[where // 2][where % 2] = bad
    assert _converged(good, good, 1e-9)
    assert not _converged(cur, good, 1e-9)
    assert not _converged(good, cur, 1e-9)
    assert not _converged(cur, cur, 1e-9)
    lanes = [tuple(np.array([g, c]) for g, c in zip(gc, cc)) for gc, cc in zip(good, cur)]
    with np.errstate(invalid="ignore"):
        assert _converged(lanes, lanes, 1e-9).tolist() == [True, False]


def test_overflowing_piece_argument_is_an_overflow():
    # w2 * dx * dx overflows to inf, which math.cos would reject as a domain error
    with pytest.raises(OverflowError, match=r"^piece of length 1e\+308 at E - V = 1\.0"):
        transfer_matrix(ConstantPotential(0.0), 1e308, 0.0, 1.0)


def test_potential_validation():
    with pytest.raises(ValueError):
        PiecewisePotential((0.0, 0.0, 1.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        PiecewisePotential((0.0, 1.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        GridPotential((0.0, 1.0), (1.0,))


def test_grid_potential_equality_is_float_equality():
    base = GridPotential((0.0, 0.5, 1.0), (0.0, 1.0, 0.0))
    same = GridPotential([0, 0.5, 1], [0, 1, 0])
    signed = GridPotential((-0.0, 0.5, 1.0), (0.0, 1.0, -0.0))
    moved = GridPotential((0.0, 0.25, 1.0), (0.0, 1.0, 0.0))
    longer = GridPotential((0.0, 0.5, 1.0, 1.5), (0.0, 1.0, 0.0, 0.0))
    for other in (base, same, signed, moved, longer):
        floats = (other.x, other.values) == (base.x, base.values)
        assert (other == base) is (base == other) is floats
        if floats:
            assert hash(other) == hash(base)
    assert base != PiecewisePotential((0.0, 0.5, 1.0), (0.0, 1.0))
    assert {base: 1}[signed] == 1


def test_potential_json_roundtrip():
    pots = [ConstantPotential(2.5),
            PiecewisePotential((0.0, 1.0, 2.5), (1.0, -3.0)),
            GridPotential((0.0, 0.5, 1.0), (0.0, 1.0, 0.0))]
    for p in pots:
        assert potential_from_json(potential_to_json(p)) == p
    with pytest.raises(ValueError):
        potential_from_json({"kind": "constant", "value": 1.0, "extra": 2})
    with pytest.raises(ValueError):
        potential_from_json({"kind": "nope"})


# ------------------------------------------------------- one copy per rule

FINITE = st.floats(-1e6, 1e6, allow_nan=False)
# strictly increasing nodes: a start plus 1 to 6 positive gaps
NODES = st.tuples(FINITE, st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=6)).map(
    lambda t: tuple(np.cumsum((t[0], *t[1])).tolist()))
POTENTIALS = {
    "constant": st.builds(ConstantPotential, FINITE),
    "piecewise": NODES.flatmap(lambda xs: st.builds(
        PiecewisePotential, st.just(xs), st.lists(FINITE, min_size=len(xs) - 1,
                                                  max_size=len(xs) - 1).map(tuple))),
    "grid": NODES.flatmap(lambda xs: st.builds(
        GridPotential, st.just(xs), st.lists(FINITE, min_size=len(xs),
                                             max_size=len(xs)).map(tuple))),
}


def test_every_potential_kind_has_a_strategy():
    assert set(POTENTIALS) == set(POTENTIAL_KINDS)


@pytest.mark.parametrize("kind", sorted(POTENTIALS))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_potential_json_round_trips_with_lists(kind, data):
    v = data.draw(POTENTIALS[kind])
    doc = potential_to_json(v)
    assert doc["kind"] == kind
    assert potential_from_json(doc) == v
    # a tuple would come back from JSON as a list and compare unequal
    assert json.loads(json.dumps(doc)) == doc


def test_potential_to_json_refuses_other_objects():
    with pytest.raises(TypeError, match=r"^not a potential: 2\.5$"):
        potential_to_json(2.5)


def _bisect_interpolation(v, t):
    """V at t by bisection over the nodes, one point at a time: the reference for sample."""
    i = min(max(bisect_right(v.x, t) - 1, 0), len(v.x) - 2)
    w = (t - v.x[i]) / (v.x[i + 1] - v.x[i])
    return (1.0 - w) * v.values[i] + w * v.values[i + 1]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(POTENTIALS["grid"], st.lists(st.floats(0.0, 1.0), max_size=10))
def test_grid_value_at_a_point_is_its_sample(v, fractions):
    lo, hi = v.domain
    ts = [*v.x, lo, hi, *(min(lo + f * (hi - lo), hi) for f in fractions)]
    for t, s in zip(ts, v.sample(np.array(ts)).tolist()):
        assert type(v(t)) is float
        assert v(t).hex() == s.hex() == _bisect_interpolation(v, t).hex()


@pytest.mark.parametrize("t", [-0.5, 2.5, math.nan, -math.inf])
def test_grid_value_outside_the_domain_names_the_point(t):
    v = GridPotential((0.0, 1.0, 2.0), (0.0, 1.0, 0.0))
    with pytest.raises(DomainError, match=rf"^x = {t!r} outside \[0\.0, 2\.0\]$"):
        v(t)
