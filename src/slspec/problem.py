"""Full spectral problems: interval, potential, ordered jumps, boundary angles.

A boundary angle psi admits the solutions with (u, u') proportional to
(sin psi, cos psi) at the endpoint, i.e. u cos(psi) - u' sin(psi) = 0, so the
admissible data at angle psi is exactly the projective point of angle psi.
At each interior site x_n the data jumps by left-multiplication with the
interaction matrix P_alpha H_r E_theta.  Shooting reads only projective
classes, so walks keep their states at unit norm and no magnitudes.

The Pruefer lift, the continuous phase of (u', u), is followed by one
walker, _pieces, whose pieces have a closed form on piecewise-constant
potentials (_Piece) and are sample steps on grids (_Step).  Both give the
state and lift at a point (at) and where the lift first reaches a goal
(rise), which slspec.random reads for zeros and class points; a step
refines its crossing by refine_root, the ITP routine that the eigenvalue
scan uses too.  A trace reads its phases from each step's end, or with
_Piece.at on lane pieces, one body for floats and lanes (transfer._mapped).
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
    _first_passes,
    _mapped,
    _piece_matrix,
    _propagate,
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

    One body for floats and lanes: a lane divides by 1.0 + overflowed, so by
    2 or 1, then by its norm, or by 1 if that is zero; a zero float state is
    returned itself.  Halving an entry that is not finite changes no bit.
    """
    n = _mapped(math.hypot, state.u, state.du)
    over = n == math.inf
    # a float's comparison is a bool, a lane array's an array
    if over is True or over is not False and over.any():
        state = SolutionState(state.x, state.u / (1.0 + over), state.du / (1.0 + over))
        n = _mapped(math.hypot, state.u, state.du)
    zero = n == 0.0
    if zero is True:
        return state
    return SolutionState(state.x, state.u / (n + zero), state.du / (n + zero))


def propagate_through(problem: Problem, e, step: StepControl = DEFAULT_STEP,
                      jumps=None) -> PropagationResult:
    """Alternate smooth propagation with jump matrices, left endpoint to right.

    The walk starts from problem.initial_state().  e may be a 1-D array of
    energies: the states then hold one lane per energy (see
    transfer._propagate), each equal bit for bit to the run of that energy
    alone.  jumps, if given, holds one matrix per site to use instead of the
    site's own (another count is a ValueError); its entries may be lane
    arrays, one lane per realization of the jumps, which is how Monte Carlo
    walks a fixed energy.  At one energy
    on a grid all segments' first RK4 passes are multiplied at once
    (transfer._first_passes), and the problem's domain is not checked again.
    """
    v = problem.potential
    state = problem.initial_state()
    if jumps is None:
        jumps = [iwasawa_compose(site.params) for site in problem.interactions]
    elif len(jumps) != len(problem.interactions):
        raise ValueError(f"{len(jumps)} jumps for {len(problem.interactions)} sites")
    pts = [problem.a, *(site.x for site in problem.interactions), problem.b]
    first = ([()] * len(pts) if v.is_piecewise_constant or isinstance(e, np.ndarray)
             else _first_passes(v, pts, e, step))
    lefts = []
    for x, m, passes in zip(pts[1:], [*jumps, None], first):
        if passes:
            ((u, du),) = _propagate(v, state.x, x, e, step, ((state.u, state.du),), passes)
            state = SolutionState(x, u, du)
        else:
            state = propagate_state(v, state, x, e, step)
        state = _normalized(state)
        if m is not None:
            lefts.append(state)
            state = SolutionState(x, *m.apply((state.u, state.du)))
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


def _turns(x, e, gap):
    """round(gap / pi), once gap is finite; else the FloatingPointError of the phase at x."""
    if not math.isfinite(gap):
        raise FloatingPointError(f"the Pruefer phase at x = {x!r} is not finite at E = {e!r}")
    return round(gap / math.pi)


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

    @classmethod
    def lanes(cls, pieces, at):
        """The lane piece whose lane i holds the fields of pieces[at[i]]."""
        piece = cls.__new__(cls)
        fields = np.array([[getattr(pc, f) for f in cls.__slots__] for pc in pieces]).T
        for f, col in zip(cls.__slots__, fields):
            setattr(piece, f, col[at])
        return piece

    def at(self, x):
        """The normalized state and lifted phase at x in [p, q], in closed form from p.

        x is a float, or on a lane piece one position per lane, each with its
        float's bits (the caller sets np.errstate).  A phase that is not
        finite is a FloatingPointError naming x, on lanes the first one's.
        """
        dx = x - self.p
        m = _piece_matrix(self.w, dx)
        s = _normalized(SolutionState(x, m.a * self.u + m.b * self.du,
                                      m.c * self.u + m.d * self.du))
        raw = _mapped(math.atan2, s.u, s.du)
        pos = self.w > 0.0
        pick = np.where if isinstance(pos, np.ndarray) else lambda c, a, b: a if c else b
        # where w > 0 the scaled phase; elsewhere the turn of the vector (u', u)
        # from p, which is less than pi
        t = _mapped(math.atan2, pick(pos, self.k * s.u, s.u * self.du - s.du * self.u),
                    pick(pos, s.du, s.du * self.du + s.u * self.u))
        gap = pick(pos, self.psi + self.k * dx - t, self.phi + t - raw)
        return s, raw + math.pi * _mapped(_turns, x, self.e, gap)

    def rise(self, goal):
        """The x in [p, q] at which the lift first reaches goal, or inf if it does not by q.

        p if the lift is at goal already, up to rounding.  Where w <= 0 the
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
            t = max(_class_gap(psi_goal - self.psi, -self.k * h, dh), 0.0) / self.k
        elif (gap := _class_gap(goal - self.phi, -h, self.du * c + self.u * s)) <= 0.0:
            t = 0.0
        # the lift climbs less than pi, and it crosses the goal's class in one
        # direction only: upward where phi' > 0 there
        elif gap >= math.pi or c * c + self.w * s * s <= 0.0 or dh == 0.0:
            t = math.inf
        elif self.w == 0.0:
            t = -h / dh
        else:
            # h(p + t) = h cosh(kappa t) + dh sinh(kappa t) / kappa
            kappa = math.sqrt(-self.w)
            r = -h * kappa / dh
            t = math.atanh(r) / kappa if 0.0 <= r < 1.0 else math.inf
        return min(self.p + t, self.q) if 0.0 <= t <= self.q - self.p else math.inf


# the width to which a _Step refines a crossing
CROSSING_TOL = 1e-12


def refine_root(f, lo, hi, flo, fhi, tol):
    """A root of f in (lo, hi), where flo = f(lo) < 0 < f(hi) = fhi, by ITP.

    The ITP method (Oliveira and Takahashi, ACM TOMS 47(1), 2020) with
    kappa1 = 0.2 / (hi - lo), kappa2 = 2 and n0 = 1 steps from the
    regula-falsi point towards the midpoint, never farther from it than
    keeps the bracket within one halving of bisection's schedule: at most
    one evaluation more than bisection, far fewer on a smooth f.  A trial
    point x replaces hi when f(x) > 0, otherwise lo, so the bracket keeps
    f(lo) < 0 < f(hi).  An exact zero is returned as it is, else the
    midpoint once the bracket is no wider than tol or no float lies
    strictly between its ends.  Where f is continuous but for downward
    jumps, the bracket closes on an upward crossing, a root.
    """
    kappa1 = 0.2 / (hi - lo)
    n_max = max(0, math.ceil(math.log2(hi - lo) - math.log2(tol))) + 1
    # after step j the bracket is at most (tol - 2 ulp) * 2**(n_max - j - 1)
    # + 2 ulp wide: bisection's schedule, less what the midpoint's rounding
    # by up to an ulp of the ends can add on the halvings still to come
    ulp = math.ulp(max(abs(lo), abs(hi)))
    j = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        r = max(0.0, math.ldexp(tol - 2.0 * ulp, n_max - j - 1) - 0.5 * (hi - lo))
        xf = (lo * fhi - hi * flo) / (fhi - flo)
        sigma = math.copysign(1.0, mid - xf)
        delta = kappa1 * (hi - lo) ** 2
        xt = xf + sigma * delta if delta <= abs(mid - xf) else mid
        x = xt if abs(xt - mid) <= r else mid - sigma * r
        if not lo < x < hi:
            x = mid
        fx = f(x)
        if fx == 0.0:
            return x
        if fx > 0.0:
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
        j += 1
    return 0.5 * (lo + hi)


class _Step:
    """One sample interval [p, q] of a walk over a grid potential.

    The walk enters it at p with the normalized state and lifted phase phi;
    its end is propagated at once, and the lift there continued from phi.
    """

    __slots__ = ("p", "q", "v", "e", "step", "start", "phi", "end")

    def __init__(self, v, p, q, e, step, state, phi):
        self.p, self.q, self.v, self.e, self.step = p, q, v, e, step
        self.start, self.phi = state, phi
        end = _normalized(propagate_state(v, state, q, e, step))
        self.end = end, _continue_lift(phi, math.atan2(end.u, end.du))

    def at(self, x):
        """The normalized state and lifted phase at x = q, the one point a walk reads a step at."""
        return self.end

    def rise(self, goal):
        """The x in [p, q] at which the lift, below goal at p, first reaches it, or inf.

        A crossing inside the step is refined to CROSSING_TOL on the lift of
        the unnormalized state propagated from p.
        """
        lift = self.end[1]
        if lift <= goal:
            return self.q if lift == goal else math.inf

        def f(x):
            s = propagate_state(self.v, self.start, x, self.e, self.step)
            return _continue_lift(self.phi, math.atan2(s.u, s.du)) - goal

        return refine_root(f, self.p, self.q, self.phi - goal, lift - goal, CROSSING_TOL)


def _pieces(v, state, phi, x_stop, e, step=DEFAULT_STEP, resolution=math.inf):
    """The pieces of the walk from state.x to x_stop, each entered as the last one ends.

    On a piecewise-constant v they are v's pieces (_Piece), and the walk
    needs no propagate_state; on grids they are the _lift_samples equispaced
    sample steps (_Step), the last one ending exactly on x_stop.
    """
    exact = v.is_piecewise_constant
    if exact:
        ends = _walk_points(v, state.x, x_stop)[1:]
    else:
        lo = state.x
        n = _lift_samples(v, lo, x_stop, e, step, resolution)
        ends = (min(lo + (x_stop - lo) * i / n, x_stop) for i in range(1, n + 1))
    for q in ends:
        p = state.x
        piece = (_Piece(p, q, e, e - v(0.5 * (p + q)), state, phi) if exact
                 else _Step(v, p, q, e, step, state, phi))
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


def check_resolution(problem: Problem, e: float, resolution: float, step: StepControl,
                     name: str = "resolution") -> float:
    """resolution, once it is positive and a trace at e takes at most step.max_steps samples."""
    _lift_samples(problem.potential, problem.a, problem.b, e, step, resolution, name)
    return resolution


def prufer_trace(problem: Problem, e: float, resolution: float,
                 step: StepControl = DEFAULT_STEP):
    """Continuously lifted phase phi(x) = arg(u'(x) + i u(x)) along the problem.

    The walk starts from problem.initial_state().  Samples at spacing <=
    resolution (refined further where the phase can turn fast); zeros of u
    are the points where phi crosses a multiple of pi.  One walk of pieces
    (_pieces) goes from stop to stop.  On grids each sample's phase is its
    step's end; on piecewise-constant potentials _Piece.at on lane pieces,
    in blocks of at most transfer._BLOCK samples, gives every phase in
    closed form from the start of its piece.  At each site the trace records
    the x twice: the jump's angular displacement is booked with the branch
    in (-pi/2, pi/2].
    """
    check_resolution(problem, e, resolution, step)
    v = problem.potential
    state = _normalized(problem.initial_state())
    phi = math.atan2(state.u, state.du)
    out = [(state.x, phi)]
    exact = v.is_piecewise_constant
    # the walk's pieces, and where in out each stop's samples go, their
    # positions and their pieces
    pieces, runs = [], []
    stops = [(site.x, site.params) for site in problem.interactions]
    stops.append((problem.b, None))
    for x_stop, params in stops:
        lo = state.x
        n = _lift_samples(v, lo, x_stop, e, step, resolution)
        xs = np.minimum(lo + (x_stop - lo) * np.arange(1, n + 1) / n, x_stop)
        walk = list(_pieces(v, state, phi, x_stop, e, step, resolution))
        # the first piece that ends at or after each sample; on grids the
        # sample's own step, even where two samples round to one float
        at = len(pieces) + (np.searchsorted([pc.q for pc in walk], xs, side="left") if exact
                            else np.arange(n))
        pieces += walk
        runs.append((len(out), xs, at))
        out += [None] * n
        # the jump acts on the last sample's state, even an ulp short of the stop
        state, phi = pieces[at[-1]].at(xs[-1].item())
        if params is not None:
            u, du = iwasawa_compose(params).apply((state.u, state.du))
            phi += _wrap_half_pi(math.atan2(u, du) - math.atan2(state.u, state.du))
            state = SolutionState(x_stop, u, du)
            out.append((x_stop, phi))
    xs, at = (np.concatenate([run[j] for run in runs]) for j in (1, 2))
    if exact:
        # overflow and NaN are silent in lanes, as with Python floats, until at's check
        with np.errstate(over="ignore", invalid="ignore"):
            phases = iter(np.concatenate([
                _Piece.lanes(pieces, at[i:i + _BLOCK]).at(xs[i:i + _BLOCK])[1]
                for i in range(0, len(xs), _BLOCK)]).tolist())
    else:
        phases = (pc.at(pc.q)[1] for pc in pieces)
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
