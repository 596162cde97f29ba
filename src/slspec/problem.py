"""Full spectral problems: interval, potential, ordered jumps, boundary angles.

A boundary angle psi admits the solutions with (u, u') proportional to
(sin psi, cos psi) at the endpoint, i.e. u cos(psi) - u' sin(psi) = 0, so the
admissible data at angle psi is exactly the projective point of angle psi.
At each interior site x_n the data jumps by left-multiplication with the
interaction matrix P_alpha H_r E_theta.  Shooting reads only projective
classes, so walks keep their states at unit norm and no magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .sl2 import IwasawaParams, ProjPoint, iwasawa_compose
from .transfer import (
    DEFAULT_STEP,
    DomainError,
    Potential,
    SolutionState,
    StepControl,
    finite_numbers,
    potential_from_json,
    potential_to_json,
    propagate_state,
)


@dataclass(frozen=True)
class PointInteraction:
    """One jump site: location x and the Iwasawa data of its matrix."""

    x: float
    params: IwasawaParams


@dataclass(frozen=True)
class Problem:
    """The operator on [a, b] with potential, ordered jumps, and boundary angles."""

    a: float
    b: float
    potential: Potential
    interactions: tuple
    bc_left: ProjPoint
    bc_right: ProjPoint

    def __post_init__(self):
        object.__setattr__(self, "interactions", tuple(self.interactions))
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("endpoints must be finite (regular problems only)")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")
        lo, hi = self.potential.domain
        if not (lo <= self.a and self.b <= hi):
            raise DomainError(f"potential domain [{lo}, {hi}] does not cover "
                              f"[{self.a}, {self.b}]")
        xs = [p.x for p in self.interactions]
        if any(not self.a < x < self.b for x in xs):
            raise ValueError("interaction locations must lie strictly inside (a, b)")
        if any(q <= p for p, q in zip(xs, xs[1:])):
            raise ValueError("interaction locations must be strictly increasing")

    def initial_state(self) -> SolutionState:
        """Unit data at a admitted by the left boundary angle."""
        return SolutionState(self.a, math.sin(self.bc_left.angle),
                             math.cos(self.bc_left.angle))


def with_site_params(problem: Problem, site_index: int, **changes) -> Problem:
    """Copy of the problem with one site's Iwasawa parameters replaced."""
    site = problem.interactions[site_index]
    new_site = PointInteraction(site.x, replace(site.params, **changes))
    sites = list(problem.interactions)
    sites[site_index] = new_site
    return replace(problem, interactions=tuple(sites))


@dataclass(frozen=True)
class PropagationResult:
    """Terminal state plus the states just left of each site.

    Only projective classes are read, so every state is normalized to unit
    norm after each smooth piece, which keeps large-energy runs from
    overflowing; the removed factors are not kept.
    """

    final: SolutionState
    lefts: tuple


def _normalized(state):
    """state scaled to unit norm; finite data whose norm overflows is halved first.

    Zero data is returned as it is.
    """
    if isinstance(state.u, np.ndarray):
        # lanes are scaled one by one with math, as a lone state would be
        norms = [math.hypot(u, du) for u, du in zip(state.u.tolist(), state.du.tolist())]
        if math.inf in norms:
            halve = np.isinf(norms) & np.isfinite(state.u) & np.isfinite(state.du)
            state = SolutionState(state.x, np.where(halve, state.u / 2.0, state.u),
                                  np.where(halve, state.du / 2.0, state.du))
            norms = [math.hypot(u, du) for u, du in zip(state.u.tolist(), state.du.tolist())]
        n = np.array([t if t != 0.0 else 1.0 for t in norms])
        return SolutionState(state.x, state.u / n, state.du / n)
    n = math.hypot(state.u, state.du)
    if n == math.inf and math.isfinite(state.u) and math.isfinite(state.du):
        state = SolutionState(state.x, state.u / 2.0, state.du / 2.0)
        n = math.hypot(state.u, state.du)
    if n == 0.0:
        return state
    return SolutionState(state.x, state.u / n, state.du / n)


def propagate_through(problem: Problem, e, step: StepControl = DEFAULT_STEP,
                      jumps=None) -> PropagationResult:
    """Alternate smooth propagation with jump matrices, left endpoint to right.

    The walk starts from problem.initial_state().  e may be a 1-D array of
    energies: the states then hold one lane per energy (see
    transfer._propagate), each equal bit for bit to the run of that energy
    alone.  jumps, if given, holds one matrix per site to use instead of the
    site's own; its entries may be lane arrays, one lane per realization of
    the jumps, which is how Monte Carlo walks a fixed energy.
    """
    v = problem.potential
    state = problem.initial_state()
    if jumps is None:
        jumps = [iwasawa_compose(site.params) for site in problem.interactions]
    lefts = []
    for site, m in zip(problem.interactions, jumps):
        state = _normalized(propagate_state(v, state, site.x, e, step))
        lefts.append(state)
        state = SolutionState(site.x, *m.apply((state.u, state.du)))
    state = _normalized(propagate_state(v, state, problem.b, e, step))
    return PropagationResult(state, tuple(lefts))


def _continue_lift(prev, raw):
    """The representative of raw mod pi nearest to the running lift."""
    return raw + math.pi * round((prev - raw) / math.pi)


def _wrap_half_pi(d):
    """Reduce an angle difference mod pi into (-pi/2, pi/2]."""
    d = d % math.pi
    if d > math.pi / 2:
        d -= math.pi
    return d


def _lift_walk(v, state, phi, x_stop, e, step, resolution=math.inf):
    """Samples (x, normalized state, lifted phase) of the walk from state.x to x_stop.

    The samples are equispaced and the last one sits exactly on x_stop.  The
    spacing is at most resolution and at most 0.45 / bound, where bound =
    max(1, |E| + max |V|) caps the speed of the Pruefer phase, so the phase
    moves by less than pi/2 between samples and phi is lifted from the
    previous sample without ambiguity.
    """
    lo = state.x
    bound = max(1.0, abs(e) + v.abs_bound(lo, x_stop))
    n = max(1, math.ceil((x_stop - lo) / min(resolution, 0.45 / bound)))
    for i in range(1, n + 1):
        x = min(lo + (x_stop - lo) * i / n, x_stop)
        state = _normalized(propagate_state(v, state, x, e, step))
        phi = _continue_lift(phi, math.atan2(state.u, state.du))
        yield x, state, phi


def prufer_trace(problem: Problem, e: float, resolution: float,
                 step: StepControl = DEFAULT_STEP):
    """Continuously lifted phase phi(x) = arg(u'(x) + i u(x)) along the problem.

    The walk starts from problem.initial_state().  Samples at spacing <=
    resolution (refined further where the phase can turn fast); zeros of u
    are the points where phi crosses a multiple of pi.  At each site the
    trace records the x twice: the jump's angular displacement is booked
    with the branch in (-pi/2, pi/2].
    """
    if not resolution > 0.0:
        raise ValueError("resolution must be positive")
    v = problem.potential
    state = _normalized(problem.initial_state())
    phi = math.atan2(state.u, state.du)
    out = [(state.x, phi)]
    stops = [(site.x, site.params) for site in problem.interactions]
    stops.append((problem.b, None))
    for x_stop, params in stops:
        for x, state, phi in _lift_walk(v, state, phi, x_stop, e, step, resolution):
            out.append((x, phi))
        if params is not None:
            u, du = iwasawa_compose(params).apply((state.u, state.du))
            jump = _wrap_half_pi(math.atan2(u, du) - math.atan2(state.u, state.du))
            phi += jump
            state = SolutionState(x_stop, u, du)
            out.append((x_stop, phi))
    return out


# ------------------------------------------------------------------------ JSON

PROBLEM_KEYS = {"a", "b", "potential", "interactions", "bc_left", "bc_right"}
INTERACTION_KEYS = {"x", "alpha", "r", "theta"}


def problem_to_json(problem: Problem) -> dict:
    return {
        "a": problem.a,
        "b": problem.b,
        "potential": potential_to_json(problem.potential),
        "interactions": [
            {"x": s.x, "alpha": s.params.alpha, "r": s.params.r, "theta": s.params.theta}
            for s in problem.interactions
        ],
        "bc_left": problem.bc_left.angle,
        "bc_right": problem.bc_right.angle,
    }


def problem_from_json(obj) -> Problem:
    if not isinstance(obj, dict):
        raise ValueError("problem must be an object")
    extra = set(obj) - PROBLEM_KEYS
    missing = PROBLEM_KEYS - set(obj)
    if extra or missing:
        raise ValueError(f"problem: unknown keys {sorted(extra)}, "
                         f"missing keys {sorted(missing)}")
    sites = []
    if not isinstance(obj["interactions"], list):
        raise ValueError("interactions must be a list")
    for i, s in enumerate(obj["interactions"]):
        if not isinstance(s, dict) or set(s) != INTERACTION_KEYS:
            raise ValueError(f"interaction #{i} must have exactly the keys "
                             f"{sorted(INTERACTION_KEYS)}")
        x, alpha, r, theta = finite_numbers([s["x"], s["alpha"], s["r"], s["theta"]],
                                            f"interaction #{i} x, alpha, r and theta")
        sites.append(PointInteraction(x, IwasawaParams(alpha, r, theta)))
    a, b, bc_left, bc_right = finite_numbers([obj["a"], obj["b"], obj["bc_left"], obj["bc_right"]],
                                             "a, b, bc_left and bc_right")
    return Problem(a, b, potential_from_json(obj["potential"]), tuple(sites),
                   ProjPoint(bc_left), ProjPoint(bc_right))
