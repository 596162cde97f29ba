"""Transfer-matrix checks: closed forms, cocycle/inverse identities, Wronskian."""

import math

import numpy as np
import pytest

from slspec.transfer import (
    ConstantPotential,
    PiecewisePotential,
    GridPotential,
    SolutionState,
    StepControl,
    IntegrationFailure,
    DomainError,
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


def test_overflowing_matrix_is_an_integration_failure():
    # two V = 1000 pieces of length 15 overflow the exact route: the entries
    # go infinite and the determinant NaN, which must not pass the det gate
    v = PiecewisePotential((0.0, 15.0, 30.0), (1000.0, 1000.0))
    with pytest.raises(IntegrationFailure, match="non-finite transfer matrix"):
        transfer_matrix(v, 30.0, 0.0, 1.0)


def test_potential_validation():
    with pytest.raises(ValueError):
        PiecewisePotential((0.0, 0.0, 1.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        PiecewisePotential((0.0, 1.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        GridPotential((0.0, 1.0), (1.0,))


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
