"""Full spectral problems: interval, potential, ordered jumps, boundary angles.

A boundary angle psi admits the solutions with (u, u') proportional to
(sin psi, cos psi) at the endpoint, i.e. u cos(psi) - u' sin(psi) = 0, so the
admissible data at angle psi is exactly the projective point of angle psi.
At each interior site x_n the data jumps by left-multiplication with the
interaction matrix P_alpha H_r E_theta.  Shooting reads only projective
classes, so walks keep their states at unit norm and no magnitudes.

The Pruefer lift, the continuous phase of (u', u), is followed along one of
two routes chosen by the potential's kind, as transfer._propagate chooses
its route.  On piecewise-constant potentials each piece has a closed form
(_Piece): the state and lift anywhere on it follow from its start, and so
do its crossings of any goal angle, which random.py solves for zeros and
class points.  A trace walks the piece ends with _Piece.at and then takes
the phases of all its samples from their pieces' starts in one array pass
(_piece_phases).  On grids the lift is sampled (_lift_walk).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import check_keys, items, number
from .sl2 import IwasawaParams, ProjPoint, iwasawa_compose
from .transfer import (
    _BLOCK,
    DEFAULT_STEP,
    DomainError,
    Potential,
    SolutionState,
    StepControl,
    _const_coeff_matrix,
    _mapped,
    _piece_matrix,
    _walk_points,
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
    """state scaled to unit norm, halved first if its norm overflows; zero data as it is.

    Halving an entry that is not finite changes no bit of the result.
    """
    if isinstance(state.u, np.ndarray):
        # the norms come from math's hypot, lane by lane, as a lone state's would
        norms = _mapped(math.hypot, state.u, state.du)
        halve = np.isinf(norms)
        if halve.any():
            state = SolutionState(state.x, np.where(halve, state.u / 2.0, state.u),
                                  np.where(halve, state.du / 2.0, state.du))
            norms = _mapped(math.hypot, state.u, state.du)
        n = np.where(norms != 0.0, norms, 1.0)
        return SolutionState(state.x, state.u / n, state.du / n)
    n = math.hypot(state.u, state.du)
    if n == math.inf:
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
    """Reduce an angle difference mod pi into (-pi/2, pi/2]; d is a float or a lane array."""
    d = d % math.pi
    return d - math.pi * (d > math.pi / 2)


def _class_gap(rough, y, x):
    """The angle difference near rough that equals the angle of (x, y) mod pi.

    The part mod pi is the angle of (x, y) turned into the right half-plane,
    so a small gap keeps its relative precision; rough, good to well within
    pi / 2, only picks the multiple of pi.
    """
    return _continue_lift(rough, math.atan2(y, x) if x >= 0.0 else math.atan2(-y, -x))


def _phase_failure(x, e):
    return FloatingPointError(f"the Pruefer phase at x = {x!r} is not finite at E = {e!r}")


class _Piece:
    """One piece [p, q] of a walk on which E - V = w is constant.

    The walk enters it at p with data (u, du) and lifted phase phi.  Where
    w > 0 the scaled phase psi = atan2(sqrt(w) u, u') advances by exactly
    sqrt(w) per unit length; psi and phi lie in the same quarter turn, so
    the lift of either fixes the other's.  Where w <= 0, phi' = cos^2 phi +
    w sin^2 phi is an autonomous flow, so phi is monotone on the piece and
    moves by less than pi.
    """

    __slots__ = ("p", "q", "e", "w", "u", "du", "phi", "k", "psi")

    def __init__(self, p, q, e, w, state, phi):
        self.p, self.q, self.e, self.w = p, q, e, w
        self.u, self.du, self.phi = state.u, state.du, phi
        self.k = self.psi = math.nan
        if w > 0.0:
            self.k = math.sqrt(w)
            self.psi = _continue_lift(phi, math.atan2(self.k * state.u, state.du))

    def at(self, x):
        """The normalized state and lifted phase at x in [p, q], in closed form from p.

        A state that is not finite there is a FloatingPointError.
        """
        m = _const_coeff_matrix(self.w, x - self.p)
        s = _normalized(SolutionState(x, m.a * self.u + m.b * self.du,
                                      m.c * self.u + m.d * self.du))
        raw = math.atan2(s.u, s.du)
        if self.w > 0.0:
            psi = self.psi + self.k * (x - self.p)
            gap = psi - math.atan2(self.k * s.u, s.du)
        else:
            # the turn of the vector (u', u) from p, which is less than pi
            turn = math.atan2(s.u * self.du - s.du * self.u, s.du * self.du + s.u * self.u)
            gap = self.phi + turn - raw
        if not math.isfinite(gap):
            raise _phase_failure(x, self.e)
        return s, raw + math.pi * round(gap / math.pi)

    def rise(self, goal):
        """The offset from p at which the lift first reaches goal, or inf if it never does.

        0 if the lift is at goal already, up to rounding.  Where w <= 0 the
        lift is taken to lie above goal - pi at p, as it does between the
        crossings of a walk.
        """
        c, s = math.cos(goal), math.sin(goal)
        # h = u cos(goal) - u' sin(goal) vanishes where the class is the goal's
        h = self.u * c - self.du * s
        dh = self.du * c + self.w * self.u * s
        if self.w > 0.0:
            m = round(goal / math.pi)
            r = goal - m * math.pi
            psi_goal = m * math.pi + math.atan2(self.k * math.sin(r), math.cos(r))
            return max(_class_gap(psi_goal - self.psi, -self.k * h, dh), 0.0) / self.k
        gap = _class_gap(goal - self.phi, -h, self.du * c + self.u * s)
        if gap <= 0.0:
            return 0.0
        # the lift climbs less than pi, and it crosses the goal's class in one
        # direction only: upward where phi' > 0 there
        if gap >= math.pi or c * c + self.w * s * s <= 0.0 or dh == 0.0:
            return math.inf
        if self.w == 0.0:
            t = -h / dh
        else:
            # h(p + t) = h cosh(kappa t) + dh sinh(kappa t) / kappa
            kappa = math.sqrt(-self.w)
            r = -h * kappa / dh
            t = math.atanh(r) / kappa if 0.0 <= r < 1.0 else math.inf
        return t if t >= 0.0 else math.inf


def _pieces(v, state, phi, x_stop, e):
    """The pieces of the walk from state.x to x_stop over a piecewise-constant v.

    Each piece is entered with the state and phase that the one before it
    leaves at its end, so the walk needs no propagate_state.
    """
    pts = _walk_points(v, state.x, x_stop)
    for p, q in zip(pts, pts[1:]):
        piece = _Piece(p, q, e, e - v(0.5 * (p + q)), state, phi)
        yield piece
        state, phi = piece.at(q)


def _lift_samples(v, lo, hi, e, step, resolution=math.inf, name="resolution"):
    """The sample count of a lift walk over [lo, hi] at e, once it is at most step.max_steps.

    The spacing is at most resolution (called name in messages) and at most
    0.45 / max(1, |E| + max |V|), which caps the speed of the Pruefer phase,
    so the phase moves by less than 0.45 between samples.
    """
    if not resolution > 0.0:
        raise ValueError(f"{name} must be positive")
    spacing = min(resolution, 0.45 / max(1.0, abs(e) + v.abs_bound(lo, hi)))
    need = (hi - lo) / spacing
    if need > step.max_steps:
        cause = f"{name} = {resolution!r}" if spacing == resolution else f"E = {e!r}"
        raise ValueError(f"{cause} needs at least {need:.3g} samples, more than "
                         f"step.max_steps = {step.max_steps}")
    return max(1, math.ceil(need))


def _lift_walk(v, state, phi, x_stop, e, step, resolution=math.inf):
    """Samples (x, normalized state, lifted phase) of the walk from state.x to x_stop.

    The samples are equispaced, as many as _lift_samples gives before the
    first propagation, and the last one sits exactly on x_stop.  Each is
    propagated from the one before it.
    """
    lo = state.x
    n = _lift_samples(v, lo, x_stop, e, step, resolution)
    for i in range(1, n + 1):
        x = min(lo + (x_stop - lo) * i / n, x_stop)
        state = _normalized(propagate_state(v, state, x, e, step))
        phi = _continue_lift(phi, math.atan2(state.u, state.du))
        yield x, state, phi


def check_resolution(problem: Problem, e: float, resolution: float, step: StepControl,
                     name: str = "resolution") -> float:
    """resolution, once it is positive and a trace at e takes at most step.max_steps samples."""
    _lift_samples(problem.potential, problem.a, problem.b, e, step, resolution, name)
    return resolution


def _piece_phases(pieces, xs, at, e):
    """The lifted phase at each x of xs on its piece pieces[at], as _Piece.at gives it.

    One array pass over all samples, in blocks of at most transfer._BLOCK:
    each sample's piece matrix, normalization and angles run _Piece.at's
    arithmetic in numpy in the same order, with hypot and atan2 mapped
    through math and np.round rounding half to even as round does, so each
    phase has the bits of its scalar evaluation.
    """
    data = np.array([(pc.p, pc.w, pc.u, pc.du, pc.phi, pc.k, pc.psi) for pc in pieces])
    out = []
    for i in range(0, len(xs), _BLOCK):
        x = xs[i:i + _BLOCK]
        p, w, u, du, phi, k, psi = data[at[i:i + _BLOCK]].T
        # overflow and NaN are silent, as with Python floats, until the check below
        with np.errstate(over="ignore", invalid="ignore"):
            dx = x - p
            m = _piece_matrix(w, dx)
            s = _normalized(SolutionState(x, m.a * u + m.b * du, m.c * u + m.d * du))
            raw = _mapped(math.atan2, s.u, s.du)
            pos = w > 0.0
            # the scaled phase where w > 0, the turn from p elsewhere
            t = _mapped(math.atan2, np.where(pos, k * s.u, s.u * du - s.du * u),
                        np.where(pos, s.du, s.du * du + s.u * u))
            gap = np.where(pos, psi + k * dx - t, phi + t - raw)
        bad = ~np.isfinite(gap)
        if bad.any():
            raise _phase_failure(x[bad][0].item(), e)
        out += (raw + math.pi * np.round(gap / math.pi)).tolist()
    return out


def prufer_trace(problem: Problem, e: float, resolution: float,
                 step: StepControl = DEFAULT_STEP):
    """Continuously lifted phase phi(x) = arg(u'(x) + i u(x)) along the problem.

    The walk starts from problem.initial_state().  Samples at spacing <=
    resolution (refined further where the phase can turn fast); zeros of u
    are the points where phi crosses a multiple of pi.  On grids each
    sample is propagated from the one before.  On piecewise-constant
    potentials a scalar walk finds each piece's start and the state at each
    stop's last sample, and one array pass (_piece_phases) gives every
    sample's phase in closed form from the start of its piece.  At each site
    the trace records the x twice: the jump's angular displacement is
    booked with the branch in (-pi/2, pi/2].
    """
    check_resolution(problem, e, resolution, step)
    v = problem.potential
    state = _normalized(problem.initial_state())
    phi = math.atan2(state.u, state.du)
    out = [(state.x, phi)]
    # piecewise-constant v: the walk's pieces, and where in out each stop's
    # samples go, their positions and their pieces
    pieces, runs = [], []
    stops = [(site.x, site.params) for site in problem.interactions]
    stops.append((problem.b, None))
    for x_stop, params in stops:
        if v.is_piecewise_constant:
            lo = state.x
            n = _lift_samples(v, lo, x_stop, e, step, resolution)
            xs = np.minimum(lo + (x_stop - lo) * np.arange(1, n + 1) / n, x_stop)
            walk = list(_pieces(v, state, phi, x_stop, e))
            # the first piece that ends at or after each sample
            at = len(pieces) + np.searchsorted([pc.q for pc in walk], xs, side="left")
            pieces += walk
            runs.append((len(out), xs, at))
            out += [None] * n
            # the jump acts on the last sample's state, even an ulp short of the stop
            state, phi = pieces[at[-1]].at(xs[-1].item())
        else:
            for x, state, phi in _lift_walk(v, state, phi, x_stop, e, step, resolution):
                out.append((x, phi))
        if params is not None:
            u, du = iwasawa_compose(params).apply((state.u, state.du))
            phi += _wrap_half_pi(math.atan2(u, du) - math.atan2(state.u, state.du))
            state = SolutionState(x_stop, u, du)
            out.append((x_stop, phi))
    if runs:
        phases = iter(_piece_phases(pieces, np.concatenate([xs for _, xs, _ in runs]),
                                    np.concatenate([at for _, _, at in runs]), e))
        for i, xs, _ in runs:
            out[i:i + len(xs)] = zip(xs.tolist(), phases)
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
    check_keys(obj, "", PROBLEM_KEYS)
    sites = []
    for i, site in enumerate(items(obj, "interactions", "")):
        where = f"interactions[{i}]"
        check_keys(site, where, INTERACTION_KEYS)
        x, alpha, r, theta = (number(site, key, where) for key in ("x", "alpha", "r", "theta"))
        sites.append(PointInteraction(x, IwasawaParams(alpha, r, theta)))
    a, b, bc_left, bc_right = (number(obj, key, "") for key in ("a", "b", "bc_left", "bc_right"))
    return Problem(a, b, potential_from_json(obj["potential"], "potential"), tuple(sites),
                   ProjPoint(bc_left), ProjPoint(bc_right))
