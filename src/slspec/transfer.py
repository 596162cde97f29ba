"""Transfer matrices of -u'' + V u = E u by direct integration.

The matrix M(x, y; E) carries solution data (u, u') from y to x and is
unimodular because the Wronskian of the two canonical solutions is constant.
Piecewise-constant potentials are propagated exactly, piece by piece, with
the closed-form constant-coefficient solution; sampled (grid) potentials use
a fixed-step classic fourth-order method whose step is halved until two
successive answers agree within the requested tolerance, the coarser one
with a step that resolves the local wavelength.  The route follows
the potential's kind alone.  transfer_matrix (two identity columns) and
propagate_state (one column) share one walker, so both run the same
arithmetic on the same segment data.  No walk returns an entry that is not
finite: where a long forbidden stretch overflows, it raises FloatingPointError.

The walker also carries k energies, or k states at one energy, as lanes of
numpy arrays; a lone float energy runs the same source on Python floats.
Lanes use + - * / and sqrt, which numpy rounds exactly as Python does, as
whole arrays, while everything transcendental is mapped element by element
through math (_mapped), so a lane reproduces its lone run bit for bit.  The
exact piece matrices of a batch of energies, or of a batch of trace samples
each with its own length from its piece's start, are built that way.

An RK4 step is linear in (u, u'), so a pass is one matrix.  Each entry of
a step matrix is a quadratic in E whose coefficients depend only on the
step size and on V at the step's start, midpoint and end.  A pass's
energy-independent data (cut points, step sizes, potential samples, and
from them those coefficients) is cached, so a scan's root refinements,
which walk the same segments at many energies, build it once.  At each
energy the quadratics are evaluated for all steps (and lanes) at once,
multiplied as a pairwise tree and applied to each column.  Lane passes
write their step matrices and wide tree levels into one 4 MB scratch array
per thread, made once and reused: fresh arrays that large would be mapped
anew and page-faulted in on every pass.  For one float energy the tree's
levels run in numpy while they are wide and the last ones, from at most 32
matrices on, on Python floats: the same pairs in the same operand order,
each * and + rounded as numpy rounds it, so the product keeps every bit.
Each pass agrees with stepping (u, u') one step at a time within a
relative 1e-12.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import cycle

import numpy as np

from .fields import number, numbers, tagged
from .sl2 import Mat2, NumericalFailure


class IntegrationFailure(NumericalFailure, RuntimeError):
    """Step control could not reach the requested tolerance."""


class DomainError(ValueError):
    """Evaluation point outside the potential's domain."""


@dataclass(frozen=True)
class StepControl:
    """Integration accuracy: target tolerance plus refinement and work limits.

    The base step is tol**(1/4); refinement halves it until two successive
    passes agree entrywise within tol, the coarser of them with a step that
    resolves the local wavelength (see _propagate).  For hyperbolically
    growing solutions the tolerance acts relative to the solution size,
    since that is the best any floating-point propagation can promise.
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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key == other._key

    def __hash__(self):
        return hash(self._key)

    @cached_property
    def _key(self):
        # the RK4 pass cache hashes and compares its potential on every
        # lookup; adding 0.0 turns -0.0 into 0.0, so the bytes are equal
        # exactly when the floats are
        return (np.array(self.x + self.values) + 0.0).tobytes()

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


POTENTIAL_FIELDS = {"constant": ("value",), "piecewise": ("breakpoints", "values"),
                    "grid": ("x", "values")}


def potential_from_json(obj, where="") -> "Potential":
    """The potential of a JSON object; where is its path in the document, for errors."""
    kind = tagged(obj, where, POTENTIAL_FIELDS)
    if kind == "constant":
        return ConstantPotential(number(obj, "value", where))
    cls = PiecewisePotential if kind == "piecewise" else GridPotential
    return cls(*(numbers(obj, key, where) for key in POTENTIAL_FIELDS[kind]))


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
    try:
        if not math.isfinite(z):
            raise OverflowError
        if z > 1e-10:
            rz = math.sqrt(z)
            c = math.cos(rz)
            s = math.sin(rz) / rz
        elif z < -1e-10:
            rz = math.sqrt(-z)
            c = math.cosh(rz)  # overflows once rz passes about 710
            s = math.sinh(rz) / rz
        else:
            c = 1.0 - z / 2.0 + z * z / 24.0
            s = 1.0 - z / 6.0 + z * z / 120.0
    except OverflowError:
        raise OverflowError(f"piece of length {dx!r} at E - V = {w2!r} overflows") from None
    return Mat2(c, dx * s, -w2 * dx * s, c)


def _walk_points(v, y, x):
    """Segment endpoints from y to x, split at the potential's cut points."""
    lo, hi = (y, x) if x >= y else (x, y)
    cuts = list(v.cuts(lo, hi))
    if x < y:
        cuts.reverse()
    return [y] + cuts + [x]


def _mapped(f, *arrays):
    """f of every element (of every tuple of elements) of the float arrays, one call each.

    f is a math function: numpy's own versions can differ from it by an ulp.
    """
    return np.fromiter(map(f, *(t.tolist() for t in arrays)), float, count=arrays[0].size)


def _piece_matrix(w2, dx):
    """_const_coeff_matrix for one E - V value, or entrywise for lane arrays.

    w2 is a float or a lane array; with an array, dx is one length for all
    lanes or an array of one length per lane.  Lanes run its arithmetic in
    numpy in the same order, with cos, sin, cosh and sinh mapped through
    math, so each lane has the bits of its floats and a lane that overflows
    raises as its floats do.
    """
    if not isinstance(w2, np.ndarray):
        return _const_coeff_matrix(w2, dx)
    # overflow is silent, as with Python floats, until a lane fails as its floats do
    with np.errstate(over="ignore", invalid="ignore"):
        z = w2 * dx * dx
        try:
            if not np.isfinite(z).all():
                raise OverflowError
            osc, hyp = z > 1e-10, z < -1e-10
            mid = ~(osc | hyp)
            c, s = np.empty_like(z), np.empty_like(z)
            rz = np.sqrt(z[osc])
            c[osc], s[osc] = _mapped(math.cos, rz), _mapped(math.sin, rz) / rz
            rz = np.sqrt(-z[hyp])
            c[hyp], s[hyp] = _mapped(math.cosh, rz), _mapped(math.sinh, rz) / rz
            t = z[mid]
            c[mid] = 1.0 - t / 2.0 + t * t / 24.0
            s[mid] = 1.0 - t / 6.0 + t * t / 120.0
        except OverflowError:
            # raises at the first lane that fails alone
            for t, d in zip(*(a.tolist() for a in np.broadcast_arrays(w2, dx))):
                _const_coeff_matrix(t, d)
            raise
        return Mat2(c, dx * s, -w2 * dx * s, c)


@lru_cache(maxsize=32)
def _rk4_pass(v, y, x, h_target, max_steps):
    """The coefficients of one RK4 pass's step matrices as quadratics in E.

    Each piece (p, q) takes n = ceil(|q - p| / h_target) steps of
    h = (q - p) / n; past max_steps steps in all the pass is None, unbuilt.
    Positional stepping, p + (q - p) * i / n, keeps the points exactly inside
    the domain.  The end of one piece is the start of the next: both are a
    grid node, where the interpolation reads the node value whatever the
    sign of a zero coordinate, so one sample serves both.

    With V sampled at each step's start (v0), midpoint (vm) and end (v1),
    the step matrix I + h/6 (K1 + 2 K2 + 2 K3 + K4) has the entries

        a = A0 - E A1 + E^2 q24,    b = B0 - E hq6,
        c = C0 - E C1 + E^2 hq6,    d = D0 - E D1 + E^2 q24

    (q = h^2, q24 = q^2/24, hq6 = h q/6), whose coefficients are returned as
    (A0, A1, B0, C0, C1, D0, D1, hq6, q24), one value per step, followed by
    the least sample of V, a float.  The cache shares the arrays, so they are
    read-only.
    """
    ends = np.array(_walk_points(v, y, x))
    dx = ends[1:] - ends[:-1]
    n = np.maximum(1, np.ceil(np.abs(dx) / h_target)).astype(np.int64)
    if n.sum() > max_steps:
        return None
    i = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    h = np.repeat(dx / n, n)
    x0 = np.repeat(ends[:-1], n) + np.repeat(dx, n) * i / np.repeat(n, n)
    vals = v.sample(np.concatenate((x0, ends[-1:], x0 + 0.5 * h)))
    m = len(x0)
    v0, vm, v1 = vals[:m], vals[m + 1:], vals[1:m + 1]
    q = h * h
    q6, q24, hq6, hq12 = q / 6.0, q * q / 24.0, h * q / 6.0, h * q / 12.0
    data = (1.0 + q6 * (v0 + 2.0 * vm) + q24 * (v0 * vm),
            0.5 * q + q24 * (v0 + vm),
            h + hq6 * vm,
            h / 6.0 * (v0 + 4.0 * vm + v1) + hq12 * (vm * (v0 + v1)),
            h + hq12 * (v0 + 2.0 * vm + v1),
            1.0 + q6 * (2.0 * vm + v1) + q24 * (vm * v1),
            0.5 * q + q24 * (vm + v1),
            hq6, q24)
    for t in data:
        t.flags.writeable = False
    return data + (float(vals.min()),)


def _step_matrices(e, data, out=None):
    """Every step matrix of a pass, as (2, 2, *lanes, n), evaluated at E in place.

    a and d share E q24, and b and c share E hq6; the quadratics run in
    Horner form, A0 + E (E q24 - A1), so each lane costs 12 operations per step.
    The matrices fill the head of the flat float array out, if one is given.
    """
    a0, a1, b0, c0, c1, d0, d1, hq6, q24 = data[:9]
    shape = a0.shape
    if isinstance(e, np.ndarray):
        shape = e.shape + shape
        e = e[:, None]
    m = (np.empty((2, 2, *shape)) if out is None
         else out[:4 * math.prod(shape)].reshape(2, 2, *shape))
    (a, b), (c, d) = m
    np.multiply(e, q24, out=d)
    np.subtract(d, a1, out=a)
    np.subtract(d, d1, out=d)
    np.multiply(e, hq6, out=c)
    np.subtract(b0, c, out=b)
    np.subtract(c, c1, out=c)
    for t, t0 in ((a, a0), (c, c0), (d, d0)):
        t *= e
        t += t0
    return m


# tree levels of at least this many doubles go into the scratch array; the
# smaller ones cost fewer calls as new arrays, and are too small to fault
_SMALL_LEVEL = 1 << 12


def _tree_product(m, width=1, spare=None):
    """M[n-1] ... M[0] of the stacked matrices m as a pairwise tree of + - * /.

    Each level multiplies neighbours; an odd last matrix waits a level.
    With a larger width the levels stop once at most width matrices are
    left, and those are returned, stacked, for the rest of the tree.  Given
    spare, a flat float array of m.size doubles or more, each level of at
    least _SMALL_LEVEL doubles goes, with its product temporary, into spare
    and into m's memory in turn, so m is used up; other levels are new arrays.
    """
    turns = None if spare is None else cycle((spare, m.reshape(-1)))
    while (n := m.shape[-1]) > width:
        half = n // 2
        early, late = m[..., 0:2 * half:2], m[..., 1:2 * half:2]
        if turns is None or m.size < _SMALL_LEVEL:
            out = late[:, 0:1] * early[0:1] + late[:, 1:2] * early[1:2]
            if n & 1:
                out = np.concatenate((out, m[..., n - 1:]), axis=-1)
        else:
            flat, k = next(turns), m.size // n * (n - half)
            out = flat[:k].reshape(*m.shape[:-1], n - half)
            p, tmp = out[..., :half], flat[k:m.size].reshape(*m.shape[:-1], half)
            np.add(np.multiply(late[:, 0:1], early[0:1], p),
                   np.multiply(late[:, 1:2], early[1:2], tmp), p)
            if n & 1:
                out[..., half] = m[..., n - 1]
        m = out
    return m[..., 0] if width == 1 else m


# a single energy's tree leaves numpy once a level is at most this wide:
# below that a level costs more in numpy calls than in float arithmetic
_FLOAT_TAIL = 32


def _float_tree(m):
    """The product (a, b, c, d) of the (2, 2, n) matrices m: _tree_product on Python floats.

    The same pairs in the same operand order; Python rounds each * and +
    as numpy does, with no fused multiply-add, and overflows as silently.
    """
    ms = list(zip(*m.reshape(4, -1).tolist()))
    while len(ms) > 1:
        p = [(la * ea + lb * ec, la * eb + lb * ed, lc * ea + ld * ec, lc * eb + ld * ed)
             for (ea, eb, ec, ed), (la, lb, lc, ld) in zip(ms[0::2], ms[1::2])]
        if len(ms) & 1:
            p.append(ms[-1])
        ms = p
    return list(ms[0])


# lanes enter the step-matrix kernel in blocks of at most this many
# (lane, step) entries, which bounds its memory for any walk and lane count:
# 8 doubles an entry, 4 MB, in the one scratch array each thread reuses, as
# arrays that large, made afresh, are mapped and page-faulted in every pass
_BLOCK = 1 << 16
_scratch = threading.local()


def _rk4_product(e, data):
    """The pass's matrix (a, b, c, d): floats for one energy, lane arrays for k.

    Overflow is silent, as with Python floats, so lanes keep the floats' bits.
    No lane array returned is a view of the scratch array.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if not isinstance(e, np.ndarray):
            return _float_tree(_tree_product(_step_matrices(e, data), _FLOAT_TAIL))
        per = max(1, _BLOCK // len(data[0]))
        size = 4 * min(per, e.size) * len(data[0])
        buf = getattr(_scratch, "buf", None)
        if buf is None:
            buf = _scratch.buf = np.empty(8 * _BLOCK)
        if buf.size < 2 * size:  # a lone lane of more than _BLOCK steps, not kept
            buf = np.empty(2 * size)
        m = np.empty((2, 2, e.size))
        for i in range(0, e.size, per):
            m[..., i:i + per] = _tree_product(_step_matrices(e[i:i + per], data, buf), 1,
                                              buf[size:])
    return m[0, 0], m[0, 1], m[1, 0], m[1, 1]


def _lane_max(values):
    """Python's max(values) lane by lane, but NaN wins: a later value wins if larger or NaN."""
    return reduce(lambda top, t: np.where((t > top) | (t != t), t, top)
                  if isinstance(t, np.ndarray) else (t if t > top or t != t else top), values)


def _converged(cur, prev, tol):
    """Whether two successive passes agree within tol, per lane.

    The largest entry change is taken over the lane's columns and measured
    against max(1, largest |entry| of prev); _lane_max keeps a NaN, so a
    pass that is not finite never agrees.
    """
    scale = _lane_max([1.0, _lane_max([abs(t) for col in prev for t in col])])
    change = _lane_max([abs(s - t) for c, d in zip(cur, prev) for s, t in zip(c, d)])
    return change / scale <= tol


def _finite(x, e, cols):
    """cols, the columns at x, if all finite; else FloatingPointError naming x and E (a lane's)."""
    entries = [t for col in cols for t in col]
    if not isinstance(entries[0], np.ndarray):
        if all(map(math.isfinite, entries)):
            return cols
    elif (ok := np.isfinite(entries).all(axis=0)).all():
        return cols
    elif isinstance(e, np.ndarray):
        e = e[ok.argmin()].item()
    raise FloatingPointError(f"the solution at x = {x!r} is not finite at E = {e!r}")


def _propagate(v, y, x, e, step, cols):
    """Carry each (u, u') column in cols from y to x along one shared walk.

    e is one energy (a float) or k of them (a 1-D float array, the lanes);
    column entries are floats or length-k arrays.  The segment data is built
    once for all columns and lanes: the exact piece matrices for
    piecewise-constant potentials, otherwise the step-matrix product of each
    RK4 pass.  The RK4 step is halved until two successive finite passes
    agree within step.tol, entrywise relative to max(1, |entries|), and the
    coarser one, of step 2 h, resolves the wavelength, 2 h sqrt(E - V) <= 1/2
    for every V below E that the pass samples: RK4 damps a pass by about
    (h sqrt(E - V))**6 / 144 per step, so two coarse passes can both shrink
    to nothing and agree.  Where E lies below V the solution is not
    oscillatory, and the agreement test alone settles the step.  Both are
    judged per lane, each with its own E; a lane that has converged drops
    out of later passes.  No walk returns an entry that is not finite: an
    exact walk raises _finite's FloatingPointError, and so does an RK4 lane
    whose last pass is not finite once the refinements run out; else it is
    an IntegrationFailure.
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
        return _finite(x, e, out)
    shape = np.broadcast(e, *(t for col in cols for t in col)).shape
    if shape:
        cols = [(np.broadcast_to(u, shape), np.broadcast_to(du, shape)) for u, du in cols]
        out = [(np.empty(shape), np.empty(shape)) for _ in cols]
        if not shape[0]:
            return out
        live = np.arange(shape[0])
    h_target = step.base_step()
    prev = None
    for _ in range(step.max_refine + 1):
        data = _rk4_pass(v, y, x, h_target, step.max_steps)
        if data is None:
            raise IntegrationFailure(
                f"step budget {step.max_steps} exhausted before tolerance {step.tol}")
        a, b, c, d = _rk4_product(e, data)
        cur = [(a * u + b * du, c * u + d * du) for u, du in cols]
        if prev is not None:
            cap = (0.25 / h_target) ** 2  # the E - V at which 2 h sqrt(E - V) = 1/2
            done = _converged(cur, prev, step.tol) & (e - data[-1] <= cap)
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
    if shape:  # the first lane left fails as it would alone
        prev, e = [(u[:1], du[:1]) for u, du in prev], (e[:1] if isinstance(e, np.ndarray) else e)
    _finite(x, e, prev)
    raise IntegrationFailure(
        f"no convergence within {step.max_refine} refinements at tolerance {step.tol}")


def transfer_matrix(v, x, y, e, step: StepControl = DEFAULT_STEP) -> Mat2:
    """M(x, y; E): columns are the solutions with identity data at y, evaluated at x.

    Determinant drift is checked against 10x the tolerance and never
    repaired silently.
    """
    (a, c), (b, d) = _propagate(v, y, x, e, step, ((1.0, 0.0), (0.0, 1.0)))
    m = Mat2(a, b, c, d)
    if not math.isfinite(m.det):  # finite entries can overflow it
        raise IntegrationFailure(f"non-finite transfer matrix: determinant {m.det}")
    # det is a quadratic form in the entries, so its roundoff floor scales
    # with the squared matrix size (inf once that overflows)
    top = max(abs(t) for t in m.entries())
    if not abs(m.det - 1.0) <= 10.0 * step.tol * max(1.0, top * top):
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
