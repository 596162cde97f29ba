"""Metamorphic relations of the eigenvalue search, on both routes.

Each relation changes a problem in a way that moves its eigenvalues by a
known amount, or not at all, and compares the two eigenvalue lists of
spectra.eigenvalues_in_range: the same count, and each pair within a
stated relative bound (relative to max(1, |E|)).

- shift: V + c, searched on the window shifted by c, has the eigenvalues
  E + c;
- identity site: a site whose jump is the identity matrix changes nothing;
- refinement: on piecewise-constant V a breakpoint inside a piece, with the
  piece's value on both sides, and on grids a node at V's interpolated
  value, change nothing;
- dilation: x -> lam x, lam in {0.5, 2, 3}, maps u to w(x) = u(x / lam), so
  the potential V(x / lam) / lam^2, on breakpoints or nodes times lam, has
  the eigenvalues E / lam^2 on the window [-10 / lam^2, 30 / lam^2].  The
  state (w, w') is S (u, u') with S = diag(1, 1 / lam), so a site at x_k
  with jump J moves to lam x_k with the parameters of S J S^-1, and a
  boundary angle psi, the class of (sin psi, cos psi), becomes
  atan2(sin psi, cos psi / lam).  The dilated eigenvalues are compared
  after multiplying by lam^2.

The exact route differs only by rounding, and its bound is 1e-9.  On grids
the site and the node also move the RK4 steps, so the bound there is the
step tolerance, 1e-8.  Over 300 random piecewise examples and 60 grid
ones the largest deviations were 3.9e-11 (piecewise), and on grids
1.0e-11 (shift), 6.1e-10 (identity site) and 3.0e-11 (node), with equal
counts throughout.  Under dilation, over the 25 piecewise and 8 grid
examples the tests draw, the largest were 3.7e-10 (piecewise) and
4.2e-10 (grid), with equal counts.
"""

import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from slspec.problem import PointInteraction, Problem
from slspec.sl2 import IwasawaParams, Mat2, ProjPoint, iwasawa_compose, iwasawa_decompose
from slspec.spectra import eigenvalues_in_range
from slspec.transfer import GridPotential, PiecewisePotential, StepControl

finite = dict(allow_nan=False, allow_infinity=False)
IDENTITY = IwasawaParams(0.0, 1.0, 0.0)
GRID_STEP = StepControl(1e-8)
PIECEWISE_BOUND = 1e-9
GRID_BOUND = GRID_STEP.tol


@st.composite
def sites_and_angles(draw, a, b, max_sites):
    fractions = draw(st.lists(st.floats(0.1, 0.9, **finite), min_size=1,
                              max_size=max_sites, unique=True))
    sites = []
    for x in sorted(a + f * (b - a) for f in fractions):
        if not sites or x > sites[-1].x:
            params = IwasawaParams(draw(st.floats(-2.0, 2.0, **finite)),
                                   draw(st.floats(0.5, 2.0, **finite)),
                                   draw(st.floats(0.0, 2 * math.pi, **finite)))
            sites.append(PointInteraction(x, params))
    angle = st.floats(0.0, math.pi, exclude_max=True, **finite)
    return tuple(sites), ProjPoint(draw(angle)), ProjPoint(draw(angle))


@st.composite
def piecewise_problems(draw):
    """A problem on three pieces of [0, b] with one to three sites."""
    b = draw(st.floats(1.0, 3.0, **finite))
    c0 = draw(st.floats(0.2, 0.5, **finite))
    c1 = c0 + draw(st.floats(0.1, 0.3, **finite))
    values = draw(st.lists(st.floats(-10.0, 10.0, **finite), min_size=3, max_size=3))
    sites, left, right = draw(sites_and_angles(0.0, b, 3))
    bp = (0.0, c0 * b, c1 * b, b)
    return Problem(0.0, b, PiecewisePotential(bp, tuple(values)), sites, left, right)


@st.composite
def grid_problems(draw):
    """A problem on a grid of 12 nodes over [0, b] with one site."""
    b = draw(st.floats(1.0, 3.0, **finite))
    xs = (*(b * i / 11 for i in range(11)), b)
    values = draw(st.lists(st.floats(-10.0, 10.0, **finite), min_size=12, max_size=12))
    sites, left, right = draw(sites_and_angles(0.0, b, 1))
    return Problem(0.0, b, GridPotential(xs, tuple(values)), sites, left, right)


def with_identity_site(problem, fraction):
    """The problem with an identity site added at a + fraction (b - a), off the others."""
    x = problem.a + fraction * (problem.b - problem.a)
    taken = [site.x for site in problem.interactions]
    while x in taken:
        x = math.nextafter(x, problem.b)
    sites = sorted((*problem.interactions, PointInteraction(x, IDENTITY)), key=lambda s: s.x)
    return replace(problem, interactions=tuple(sites))


def dilated(problem, lam, potential):
    """problem under x -> lam x, with potential its dilated potential (a = 0)."""
    s, s_inv = Mat2(1.0, 0.0, 0.0, 1.0 / lam), Mat2(1.0, 0.0, 0.0, lam)
    sites = tuple(PointInteraction(lam * site.x,
                                   iwasawa_decompose(s @ iwasawa_compose(site.params) @ s_inv))
                  for site in problem.interactions)
    left, right = (ProjPoint(math.atan2(math.sin(p.angle), math.cos(p.angle) / lam))
                   for p in (problem.bc_left, problem.bc_right))
    return Problem(0.0, lam * problem.b, potential, sites, left, right)


def eigenvalues(problem, e_lo, e_hi, grid, step=StepControl()):
    return [r.E for r in eigenvalues_in_range(problem, e_lo, e_hi, grid, step=step)]


def assert_close(got, want, bound, relation):
    assert len(got) == len(want), f"{relation}: {len(got)} eigenvalues, not {len(want)}"
    worst = max((abs(g - w) / max(1.0, abs(w)) for g, w in zip(got, want)), default=0.0)
    assert worst <= bound, f"{relation}: relative deviation {worst:.3g} > {bound:.3g}"


@settings(max_examples=25, deadline=None, derandomize=True)
@given(piecewise_problems(), st.floats(-5.0, 5.0, **finite), st.floats(0.05, 0.95, **finite),
       st.integers(0, 2), st.floats(0.1, 0.9, **finite))
def test_piecewise_eigenvalues_under_shift_identity_site_and_break(problem, c, at, piece, f):
    base = eigenvalues(problem, -10.0, 30.0, 800)
    v = problem.potential
    shifted = replace(problem, potential=PiecewisePotential(
        v.breakpoints, tuple(t + c for t in v.values)))
    assert_close(eigenvalues(shifted, -10.0 + c, 30.0 + c, 800), [e + c for e in base],
                 PIECEWISE_BOUND, "shift")
    assert_close(eigenvalues(with_identity_site(problem, at), -10.0, 30.0, 800), base,
                 PIECEWISE_BOUND, "identity site")
    p, q = v.breakpoints[piece], v.breakpoints[piece + 1]
    bp = (*v.breakpoints[:piece + 1], p + f * (q - p), *v.breakpoints[piece + 1:])
    values = (*v.values[:piece + 1], *v.values[piece:])
    broken = replace(problem, potential=PiecewisePotential(bp, values))
    assert_close(eigenvalues(broken, -10.0, 30.0, 800), base, PIECEWISE_BOUND, "break")


@settings(max_examples=8, deadline=None, derandomize=True)
@given(grid_problems(), st.floats(-5.0, 5.0, **finite), st.floats(0.05, 0.95, **finite),
       st.integers(0, 10), st.floats(0.1, 0.9, **finite))
def test_grid_eigenvalues_under_shift_identity_site_and_node(problem, c, at, cell, f):
    base = eigenvalues(problem, -10.0, 30.0, 120, GRID_STEP)
    v = problem.potential
    shifted = replace(problem, potential=GridPotential(v.x, tuple(t + c for t in v.values)))
    assert_close(eigenvalues(shifted, -10.0 + c, 30.0 + c, 120, GRID_STEP),
                 [e + c for e in base], GRID_BOUND, "shift")
    assert_close(eigenvalues(with_identity_site(problem, at), -10.0, 30.0, 120, GRID_STEP),
                 base, GRID_BOUND, "identity site")
    x = v.x[cell] + f * (v.x[cell + 1] - v.x[cell])
    node = GridPotential((*v.x[:cell + 1], x, *v.x[cell + 1:]),
                         (*v.values[:cell + 1], v(x), *v.values[cell + 1:]))
    assert_close(eigenvalues(replace(problem, potential=node), -10.0, 30.0, 120, GRID_STEP),
                 base, GRID_BOUND, "node")


@settings(max_examples=25, deadline=None, derandomize=True)
@given(piecewise_problems(), st.sampled_from([0.5, 2.0, 3.0]))
def test_piecewise_eigenvalues_under_dilation(problem, lam):
    base = eigenvalues(problem, -10.0, 30.0, 800)
    v = problem.potential
    potential = PiecewisePotential(tuple(lam * x for x in v.breakpoints),
                                   tuple(t / lam ** 2 for t in v.values))
    got = eigenvalues(dilated(problem, lam, potential), -10.0 / lam ** 2, 30.0 / lam ** 2, 800)
    assert_close([e * lam ** 2 for e in got], base, PIECEWISE_BOUND, "dilation")


@settings(max_examples=8, deadline=None, derandomize=True)
@given(grid_problems(), st.sampled_from([0.5, 2.0, 3.0]))
def test_grid_eigenvalues_under_dilation(problem, lam):
    base = eigenvalues(problem, -10.0, 30.0, 120, GRID_STEP)
    v = problem.potential
    potential = GridPotential(tuple(lam * x for x in v.x), tuple(t / lam ** 2 for t in v.values))
    got = eigenvalues(dilated(problem, lam, potential), -10.0 / lam ** 2, 30.0 / lam ** 2, 120,
                      GRID_STEP)
    assert_close([e * lam ** 2 for e in got], base, GRID_BOUND, "dilation")
