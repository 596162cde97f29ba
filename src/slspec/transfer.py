"""Transfer matrices of -u'' + V u = E u by direct integration.

The matrix M(x, y; E) carries solution data (u, u') from y to x and is
unimodular because the Wronskian of the two canonical solutions is constant.
Piecewise-constant potentials are propagated exactly, piece by piece, with
the closed-form constant-coefficient solution; sampled (grid) potentials use
a fixed-step classic fourth-order method whose step is halved until two
successive answers agree within the requested tolerance.  The route follows
the potential's kind alone.  transfer_matrix (two identity columns) and
propagate_state (one column) share one walker, so both run the same
arithmetic on the same segment data.

The walker also carries k energies, or k states at one energy, as lanes of
numpy arrays; a lone float energy runs the same source on Python floats.
Lanes use only + - * /, which numpy rounds exactly as Python does, while
everything transcendental stays per lane in math, so a lane reproduces its
lone run bit for bit.

An RK4 step is linear in (u, u'), so a pass is one matrix: the step
matrices' entries, written out in V - E at each step's start, midpoint and
end, are built for all steps (and lanes) at once, multiplied as a pairwise
tree and applied to each column.  Each pass agrees with stepping (u, u')
one step at a time within a relative 1e-12.  A pass's energy-independent
data (cut points, step sizes, potential samples) is cached, so a scan's
bisections, which walk the same segments at many energies, build it once.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .sl2 import Mat2


class IntegrationFailure(RuntimeError):
    """Step control could not reach the requested tolerance."""


class DomainError(ValueError):
    """Evaluation point outside the potential's domain."""


@dataclass(frozen=True)
class StepControl:
    """Integration accuracy: target tolerance plus refinement and work limits.

    The base step is tol**(1/4); refinement halves it until two successive
    passes agree entrywise within tol.  For hyperbolically growing solutions
    the tolerance acts relative to the solution size, since that is the best
    any floating-point propagation can promise.
    """

    tol: float = 1e-9
    max_refine: int = 8
    max_steps: int = 500_000

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_refine < 0 or self.max_steps < 1:
            raise ValueError("need max_refine >= 0 and max_steps >= 1")

    def base_step(self) -> float:
        return self.tol ** 0.25


DEFAULT_STEP = StepControl()


@dataclass(frozen=True)
class SolutionState:
    """Solution data (u(x), u'(x)) at position x."""

    x: float
    u: float
    du: float


# ------------------------------------------------------------------ potentials

def finite_numbers(values, what):
    """values as a tuple of floats if each is a finite number; JSON null and booleans are not."""
    for t in values:
        if isinstance(t, bool) or not isinstance(t, (int, float)) or not math.isfinite(t):
            raise ValueError(f"{what} must be finite numbers, got {t!r}")
    return tuple(float(t) for t in values)


@dataclass(frozen=True)
class ConstantPotential:
    """V(x) = value on the whole line."""

    value: float
    is_piecewise_constant = True

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("value must be finite")

    @property
    def domain(self):
        return (-math.inf, math.inf)

    def __call__(self, x):
        return self.value

    def cuts(self, lo, hi):
        return ()

    def abs_bound(self, lo, hi):
        return abs(self.value)


@dataclass(frozen=True)
class PiecewisePotential:
    """Piecewise-constant V: values[i] on [breakpoints[i], breakpoints[i+1])."""

    breakpoints: tuple
    values: tuple
    is_piecewise_constant = True

    def __post_init__(self):
        bp = tuple(float(t) for t in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if len(bp) < 2 or len(vals) != len(bp) - 1:
            raise ValueError("need n+1 breakpoints for n piece values")
        if any(q <= p for p, q in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if not all(map(math.isfinite, bp + vals)):
            raise ValueError("breakpoints and values must be finite")

    @property
    def domain(self):
        return (self.breakpoints[0], self.breakpoints[-1])

    def __call__(self, x):
        lo, hi = self.domain
        if not lo <= x <= hi:
            raise DomainError(f"x = {x!r} outside [{lo}, {hi}]")
        i = bisect_right(self.breakpoints, x) - 1
        return self.values[min(i, len(self.values) - 1)]

    def cuts(self, lo, hi):
        return tuple(t for t in self.breakpoints[1:-1] if lo < t < hi)

    def abs_bound(self, lo, hi):
        i = max(bisect_right(self.breakpoints, lo) - 1, 0)
        j = min(bisect_right(self.breakpoints, hi), len(self.values))
        return max(abs(v) for v in self.values[i:max(j, i + 1)])


@dataclass(frozen=True)
class GridPotential:
    """V sampled on strictly increasing nodes, linearly interpolated between them."""

    x: tuple
    values: tuple
    is_piecewise_constant = False

    def __post_init__(self):
        xs = tuple(float(t) for t in self.x)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "x", xs)
        object.__setattr__(self, "values", vals)
        if len(xs) < 2 or len(vals) != len(xs):
            raise ValueError("need matching node and value arrays, at least 2 nodes")
        if any(q <= p for p, q in zip(xs, xs[1:])):
            raise ValueError("grid nodes must be strictly increasing")
        if not all(map(math.isfinite, xs + vals)):
            raise ValueError("nodes and values must be finite")

    @property
    def domain(self):
        return (self.x[0], self.x[-1])

    def __call__(self, t):
        lo, hi = self.domain
        if not lo <= t <= hi:
            raise DomainError(f"x = {t!r} outside [{lo}, {hi}]")
        i = min(max(bisect_right(self.x, t) - 1, 0), len(self.x) - 2)
        x0, x1 = self.x[i], self.x[i + 1]
        w = (t - x0) / (x1 - x0)
        return (1.0 - w) * self.values[i] + w * self.values[i + 1]

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        # the RK4 pass cache hashes its potential on every lookup
        return hash((self.x, self.values))

    @cached_property
    def _arrays(self):
        return np.array(self.x), np.array(self.values)

    def sample(self, ts):
        """V at every point of the float array ts: __call__'s cells and arithmetic."""
        lo, hi = self.domain
        if not (lo <= ts.min() and ts.max() <= hi):  # NaN fails too
            t = ts[~((lo <= ts) & (ts <= hi))][0]
            raise DomainError(f"x = {float(t)!r} outside [{lo}, {hi}]")
        xs, vals = self._arrays
        # every t >= xs[0] here, so the cell index is never below 0
        i = np.minimum(np.searchsorted(xs, ts, side="right") - 1, len(xs) - 2)
        x0, x1 = xs[i], xs[i + 1]
        w = (ts - x0) / (x1 - x0)
        return (1.0 - w) * vals[i] + w * vals[i + 1]

    def cuts(self, lo, hi):
        return tuple(t for t in self.x[1:-1] if lo < t < hi)

    def abs_bound(self, lo, hi):
        # linear interpolation attains its extrema at the nodes
        i = max(bisect_right(self.x, lo) - 1, 0)
        j = min(bisect_right(self.x, hi) + 1, len(self.x))
        return max(abs(v) for v in self.values[i:max(j, i + 1)])


def potential_to_json(v) -> dict:
    if isinstance(v, ConstantPotential):
        return {"kind": "constant", "value": v.value}
    if isinstance(v, PiecewisePotential):
        return {"kind": "piecewise", "breakpoints": list(v.breakpoints),
                "values": list(v.values)}
    if isinstance(v, GridPotential):
        return {"kind": "grid", "x": list(v.x), "values": list(v.values)}
    raise TypeError(f"not a potential: {v!r}")


def potential_from_json(obj) -> "Potential":
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("potential must be an object with a 'kind' field")
    kind = obj["kind"]
    kinds = {"constant": (ConstantPotential, ("value",)),
             "piecewise": (PiecewisePotential, ("breakpoints", "values")),
             "grid": (GridPotential, ("x", "values"))}
    if kind not in kinds:
        raise ValueError(f"unknown potential kind {kind!r}")
    cls, keys = kinds[kind]
    extra = set(obj) - {"kind", *keys}
    missing = set(keys) - set(obj)
    if extra or missing:
        raise ValueError(f"potential kind {kind!r}: unknown keys {sorted(extra)}, "
                         f"missing keys {sorted(missing)}")
    if kind == "constant":
        return cls(*finite_numbers([obj["value"]], "potential value"))
    if not all(isinstance(obj[key], list) for key in keys):
        raise ValueError(f"potential {' and '.join(keys)} must be lists")
    return cls(*(finite_numbers(obj[key], f"potential {key}") for key in keys))


Potential = ConstantPotential | PiecewisePotential | GridPotential


# ----------------------------------------------------------------- propagation

def _check_domain(v, t):
    lo, hi = v.domain
    if not lo <= t <= hi:
        raise DomainError(f"x = {t!r} outside potential domain [{lo}, {hi}]")


def _const_coeff_matrix(w2, dx):
    """Exact solution matrix across a piece with constant E - V = w2.

    Maps (u, u') at 0 to (u, u') at dx; works for either sign of dx.  The
    oscillatory, hyperbolic, and near-degenerate regimes share the form
    [[C, dx*S], [-w2*dx*S, C]] with C, S the trig/hyperbolic pair in z = w2*dx^2.
    """
    z = w2 * dx * dx
    if z > 1e-10:
        rz = math.sqrt(z)
        c = math.cos(rz)
        s = math.sin(rz) / rz
    elif z < -1e-10:
        rz = math.sqrt(-z)
        c = math.cosh(rz)
        s = math.sinh(rz) / rz
    else:
        c = 1.0 - z / 2.0 + z * z / 24.0
        s = 1.0 - z / 6.0 + z * z / 120.0
    return Mat2(c, dx * s, -w2 * dx * s, c)


def _walk_points(v, y, x):
    """Segment endpoints from y to x, split at the potential's cut points."""
    lo, hi = (y, x) if x >= y else (x, y)
    cuts = list(v.cuts(lo, hi))
    if x < y:
        cuts.reverse()
    return [y] + cuts + [x]


def _piece_matrix(w2, dx):
    """_const_coeff_matrix for one E - V value, or entrywise for a lane array."""
    if isinstance(w2, np.ndarray):
        rows = [_const_coeff_matrix(t, dx).entries() for t in w2.tolist()]
        return Mat2(*np.array(rows).T)
    return _const_coeff_matrix(w2, dx)


@lru_cache(maxsize=32)
def _rk4_pass(v, y, x, h_target):
    """V at each step's start, midpoint and end, and the h terms of one RK4 pass.

    Each piece (p, q) takes n = ceil(|q - p| / h_target) steps of
    h = (q - p) / n.  Positional stepping, p + (q - p) * i / n, keeps the
    points exactly inside the domain.  The end of one piece is the start of
    the next: both are a grid node, where the interpolation reads the node
    value whatever the sign of a zero coordinate, so one sample serves both.
    The cache shares the arrays, so they are read-only.
    """
    ends = np.array(_walk_points(v, y, x))
    dx = ends[1:] - ends[:-1]
    n = np.maximum(1, np.ceil(np.abs(dx) / h_target)).astype(np.int64)
    i = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    h = np.repeat(dx / n, n)
    x0 = np.repeat(ends[:-1], n) + np.repeat(dx, n) * i / np.repeat(n, n)
    vals = v.sample(np.concatenate((x0, ends[-1:], x0 + 0.5 * h)))
    m = len(x0)
    q = h * h
    data = (vals[:m], vals[m + 1:], vals[1:m + 1],
            h, h * q / 6.0, q / 6.0, q * q / 24.0, h / 6.0, h * q / 12.0)
    for t in data:
        t.flags.writeable = False
    return data


def _step_matrices(e, data):
    """Every step matrix I + h/6 (K1 + 2 K2 + 2 K3 + K4) of a pass, as (2, 2, *lanes, n).

    Written out in w = V - E at the step's start (w0), midpoint (wm) and end (w1).
    """
    v0, vm, v1, h, hq6, q6, q24, h6, hq12 = data
    if isinstance(e, np.ndarray):
        e = e[:, None]
    w0, wm, w1 = v0 - e, vm - e, v1 - e
    a = 1.0 + q6 * (w0 + 2.0 * wm) + q24 * (w0 * wm)
    b = h + hq6 * wm
    c = h6 * (w0 + 4.0 * wm + w1) + hq12 * (wm * (w0 + w1))
    d = 1.0 + q6 * (2.0 * wm + w1) + q24 * (wm * w1)
    return np.array(((a, b), (c, d)))


def _tree_product(m):
    """M[n-1] ... M[0] of the stacked matrices m as a pairwise tree of + - * /.

    Each level multiplies neighbours; an odd last matrix waits a level.
    """
    while m.shape[-1] > 1:
        even = m.shape[-1] & ~1
        early, late = m[..., 0:even:2], m[..., 1:even:2]
        p = late[:, 0:1] * early[0:1] + late[:, 1:2] * early[1:2]
        if even < m.shape[-1]:
            p = np.concatenate((p, m[..., even:]), axis=-1)
        m = p
    return m[..., 0]


# lanes enter the step-matrix kernel in blocks of at most this many
# (lane, step) entries, which bounds its memory for any walk and lane count
_BLOCK = 1 << 16


def _rk4_product(e, data):
    """The pass's matrix (a, b, c, d): floats for one energy, lane arrays for k.

    Overflow is silent, as with Python floats, so lanes keep the floats' bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if not isinstance(e, np.ndarray):
            return _tree_product(_step_matrices(e, data)).ravel().tolist()
        per = max(1, _BLOCK // len(data[0]))
        blocks = [_tree_product(_step_matrices(e[i:i + per], data))
                  for i in range(0, e.size, per)]
        m = np.concatenate(blocks, axis=-1)
    return m[0, 0], m[0, 1], m[1, 0], m[1, 1]


def _lane_max(values):
    """Python's max(values), lane by lane: a later value wins only if larger."""
    return reduce(lambda top, t: np.where(t > top, t, top)
                  if isinstance(t, np.ndarray) else max(top, t), values)


def _converged(cur, prev, tol):
    """Whether two successive passes agree within tol, per lane.

    The largest entry change is taken over the lane's columns and measured
    against max(1, largest |entry| of prev).
    """
    scale = _lane_max([1.0, _lane_max([abs(t) for col in prev for t in col])])
    change = _lane_max([abs(s - t) for c, d in zip(cur, prev) for s, t in zip(c, d)])
    return change / scale <= tol


def _propagate(v, y, x, e, step, cols):
    """Carry each (u, u') column in cols from y to x along one shared walk.

    e is one energy (a float) or k of them (a 1-D float array, the lanes);
    column entries are floats or length-k arrays.  The segment data is built
    once for all columns and lanes: the exact piece matrices for
    piecewise-constant potentials, otherwise the step-matrix product of each
    RK4 pass.  The RK4 step is halved until two successive passes agree
    within step.tol, entrywise relative to max(1, |entries|), judged per
    lane; a lane that has converged drops out of later passes.
    """
    _check_domain(v, x)
    _check_domain(v, y)
    if x == y:
        return cols
    if v.is_piecewise_constant:
        pts = _walk_points(v, y, x)
        mats = [_piece_matrix(e - v(0.5 * (p + q)), q - p)
                for p, q in zip(pts, pts[1:])]
        out = []
        for u, du in cols:
            for m in mats:
                u, du = m.a * u + m.b * du, m.c * u + m.d * du
            out.append((u, du))
        return out
    shape = np.broadcast(e, *(t for col in cols for t in col)).shape
    if shape:
        cols = [(np.broadcast_to(u, shape), np.broadcast_to(du, shape)) for u, du in cols]
        out = [(np.empty(shape), np.empty(shape)) for _ in cols]
        live = np.arange(shape[0])
    h_target = step.base_step()
    prev = None
    for _ in range(step.max_refine + 1):
        if abs(x - y) / h_target > step.max_steps:
            raise IntegrationFailure(
                f"step budget {step.max_steps} exhausted before tolerance {step.tol}")
        a, b, c, d = _rk4_product(e, _rk4_pass(v, y, x, h_target))
        cur = [(a * u + b * du, c * u + d * du) for u, du in cols]
        if prev is not None:
            done = _converged(cur, prev, step.tol)
            if not shape and done:
                return cur
            if shape and done.any():
                for (ou, od), (u, du) in zip(out, cur):
                    ou[live[done]], od[live[done]] = u[done], du[done]
                keep = ~done
                if not keep.any():
                    return out
                live = live[keep]
                if isinstance(e, np.ndarray):
                    e = e[keep]
                cols = [(u[keep], du[keep]) for u, du in cols]
                cur = [(u[keep], du[keep]) for u, du in cur]
        prev = cur
        h_target *= 0.5
    raise IntegrationFailure(
        f"no convergence within {step.max_refine} refinements at tolerance {step.tol}")


def transfer_matrix(v, x, y, e, step: StepControl = DEFAULT_STEP) -> Mat2:
    """M(x, y; E): columns are the solutions with identity data at y, evaluated at x.

    Determinant drift is checked against 10x the tolerance and never
    repaired silently.
    """
    (a, c), (b, d) = _propagate(v, y, x, e, step, ((1.0, 0.0), (0.0, 1.0)))
    m = Mat2(a, b, c, d)
    # det is a quadratic form in the entries, so its roundoff floor scales
    # with the squared matrix size
    det_scale = max(1.0, max(abs(t) for t in m.entries()) ** 2)
    if not math.isfinite(m.det):
        # a finite det needs finite entries; an overflowed one is inf or nan
        raise IntegrationFailure(f"non-finite transfer matrix: determinant {m.det}")
    if not abs(m.det - 1.0) <= 10.0 * step.tol * det_scale:
        raise IntegrationFailure(
            f"determinant drift {m.det - 1.0:.3e} exceeds 10x tolerance {step.tol}")
    return m


def propagate_state(v, state: SolutionState, x_target, e,
                    step: StepControl = DEFAULT_STEP) -> SolutionState:
    """Carry a single solution from state.x to x_target by direct integration.

    Agrees with applying transfer_matrix(v, x_target, state.x, e) to (u, u')
    within the integration tolerance, integrating one column instead of two.
    """
    ((u, du),) = _propagate(v, state.x, x_target, e, step, ((state.u, state.du),))
    return state if x_target == state.x else SolutionState(x_target, u, du)
