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
finite: where a long forbidden stretch overflows, a float walk raises
FloatingPointError, and a lane fails in itself, NaN in every column.
A grid potential has one interpolation, sample, which its value at one point
calls too; one table of kinds serves potential_to_json and potential_from_json.
A point outside a potential's domain is one DomainError with one message,
whether a potential or a walk's end finds it (_check_domain).

The walker also carries k energies, or k states at one energy, as lanes of
numpy arrays; a lone float energy runs the same source on Python floats.
Lanes use + - * / and sqrt, which numpy rounds exactly as Python does, as
whole arrays, while everything transcendental is mapped element by element
through math (_mapped, which calls math on a float as it is, so one body
serves both), and a lane reproduces its lone run bit for bit.  The exact
piece matrices of a batch of energies, or of a batch of trace samples
each with its own length from its piece's start, are built that way.

An RK4 step is linear in (u, u'), so a pass is one matrix.  Each entry of
a step matrix is a quadratic in E whose coefficients depend only on the
step size and on V at the step's start, midpoint and end.  A pass's
energy-independent data (cut points, step sizes, potential samples, and
from them those coefficients) is cached, so a scan's root refinements,
which walk the same segments at many energies, build it once.  At each
energy the quadratics are evaluated for all steps (and lanes) at once and
multiplied as a pairwise tree, M[2i+1] M[2i] at each level, whose steps
are stored in the order it reads them, so every level multiplies two
contiguous halves (lanes innermost); lane passes reuse one scratch array
per thread, as fresh arrays that large are page-faulted in on every pass.
A walk at one energy through a problem's segments multiplies the first
three passes of every segment in one stacked tree, in which each product
keeps the pairs and operand order, so the bits, of its own tree.  Each
pass agrees with stepping (u, u') one step at a time within a relative 1e-12.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .fields import number, numbers, tagged, to_tagged
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
        _check_domain(self, x)
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
        return self.sample(np.array([t], dtype=float))[0].item()

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
        """V at every point of the float array ts, interpolated in the cell of nodes about it."""
        lo, hi = self.domain
        if not (lo <= ts.min() and ts.max() <= hi):  # NaN fails too
            _check_domain(self, float(ts[~((lo <= ts) & (ts <= hi))][0]))
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


POTENTIAL_KINDS = {"constant": (ConstantPotential, ("value",)),
                   "piecewise": (PiecewisePotential, ("breakpoints", "values")),
                   "grid": (GridPotential, ("x", "values"))}


def potential_to_json(v) -> dict:
    return to_tagged(v, POTENTIAL_KINDS, "potential")


def potential_from_json(obj, where="") -> "Potential":
    """The potential of a JSON object; where is its path in the document, for errors."""
    cls, keys = tagged(obj, where, POTENTIAL_KINDS)
    read = number if cls is ConstantPotential else numbers
    return cls(*(read(obj, key, where) for key in keys))


Potential = ConstantPotential | PiecewisePotential | GridPotential


# ----------------------------------------------------------------- propagation

def _check_domain(v, *ts):
    """DomainError naming the first of the floats ts outside v's domain (NaN is), if any."""
    lo, hi = v.domain
    for t in ts:
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


def _mapped(f, *xs):
    """f(*xs) on floats; on lane arrays, f of every tuple of their elements, one call each.

    The first of xs picks floats or lanes for a formula with one body for
    both.  f is made of math: numpy's own versions can differ by an ulp.
    """
    if not isinstance(xs[0], np.ndarray):
        return f(*xs)
    return np.fromiter(map(f, *(t.tolist() for t in xs)), float, count=xs[0].size)


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
    (A0, A1, B0, C0, C1, D0, D1, hq6, q24), one value per step in the order
    its tree reads them (_tree_plan), followed by the least sample of V, a
    float.  The cache shares the arrays, so they are read-only.
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
    order = _tree_plan((m,))[1]
    data = tuple(t[order] for t in (
        1.0 + q6 * (v0 + 2.0 * vm) + q24 * (v0 * vm),
        0.5 * q + q24 * (v0 + vm),
        h + hq6 * vm,
        h / 6.0 * (v0 + 4.0 * vm + v1) + hq12 * (vm * (v0 + v1)),
        h + hq12 * (v0 + 2.0 * vm + v1),
        1.0 + q6 * (2.0 * vm + v1) + q24 * (vm * v1),
        0.5 * q + q24 * (vm + v1),
        hq6, q24))
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


@lru_cache(maxsize=64)
def _tree_plan(counts):
    """How _tree_product multiplies stacked products of counts[j] matrices each.

    Each product keeps its own tree: M[2i+1] M[2i] at each level, an odd
    last matrix waiting.  A level holds every pair's early matrix in its
    first half places, the late one half places on, then the waiting ones;
    the products, made over the early ones, come out in the next level's
    order but for each product's last matrix and the waiting ones, which
    move.  Returns the product and its index of each place at level 0 and
    the plan: per level the pair count, the next width and the move, None
    or (start, source), by which the places from start on take those at
    source.  The last level is one matrix per product, in product order.
    """
    ns = [np.asarray(counts)]
    while (ns[-1] > 1).any():
        ns.append(ns[-1] - ns[-1] // 2)
    prod, idx = np.arange(len(counts)), np.zeros(len(counts), np.int64)
    plan = []
    for n in reversed(ns[:-1]):  # (prod, idx) is the next level's order
        h = n // 2
        made, last = idx < h[prod], idx == (n - h - 1)[prod]
        src = np.concatenate((np.flatnonzero(made & ~last), np.flatnonzero(made & last),
                              np.flatnonzero(~made)))
        half = int(made.sum())
        # the next level's k-th matrix is the made[k]-th product, or waits
        # at 2 half on from its place among the waiting ones
        place = np.empty_like(src)
        place[src] = np.arange(len(src))
        place[place >= half] += half
        moved = np.flatnonzero(place != np.arange(len(src)))
        move = None
        if len(moved):
            source = place[moved[0]:]
            # a run of consecutive places is a slice, which copies faster
            if (np.diff(source) == 1).all():
                source = slice(int(source[0]), int(source[-1]) + 1)
            move = int(moved[0]), source
        plan.append((half, len(src), move))
        p, i, w = prod[src[:half]], idx[src[:half]], prod[src[half:]]
        prod, idx = np.concatenate((p, p, w)), np.concatenate((2 * i, 2 * i + 1, n[w] - 1))
    return prod, idx, plan[::-1]


def _tree_product(m, plan=None, spare=None):
    """The products of the stacked matrices m, (2, 2, n, *lanes), in the order of plan.

    No plan means one product's plan (_tree_plan).  The levels, in + - * /,
    write over m, so it is used up; given spare, a flat float array of
    m.size doubles or more, their partial products go there, not into new
    arrays.  Returns the stack of one matrix per product.
    """
    for half, width, move in _tree_plan((m.shape[2],))[2] if plan is None else plan:
        early, late = m[:, :, :half], m[:, :, half:2 * half]
        if spare is None:  # all late[r, j] early[j, c] at once: fewer calls
            p = late[:, :, None] * early
            np.add(p[:, 0], p[:, 1], early)
        else:  # in two halves, which stream through memory faster
            p = spare[:2 * early.size].reshape(2, *early.shape)
            np.add(np.multiply(late[:, 0:1], early[0:1], p[0]),
                   np.multiply(late[:, 1:2], early[1:2], p[1]), early)
        if move is not None:
            m[:, :, move[0]:width] = m[:, :, move[1]]
        m = m[:, :, :width]
    return m


@lru_cache(maxsize=8)
def _walk_passes(v, pts, step):
    """The first min(3, step.max_refine + 1) passes of each segment of the walk through pts.

    A pass past step.max_steps, which the walk may never need, is left out.
    Returns their coefficients stacked for _tree_plan (None without any
    pass), the plan, and per segment the (product index, least V) of each.
    """
    passes, segments = [], []
    for y, x in zip(pts, pts[1:]):
        segments.append([])
        h_target = step.base_step()
        # most walks need a third pass; a fourth is rare
        for _ in range(min(3, step.max_refine + 1)):
            data = _rk4_pass(v, y, x, h_target, step.max_steps)
            if data is None:
                break
            segments[-1].append(len(passes))
            passes.append(data)
            h_target *= 0.5
    if not passes:
        return None, [], segments
    prod, _, plan = _tree_plan(tuple(len(d[0]) for d in passes))
    # each pass's steps keep their order among the leaves
    at = np.empty_like(prod)
    at[np.argsort(prod, kind="stable")] = np.arange(len(prod))
    leaves = tuple(np.concatenate([d[i] for d in passes])[at] for i in range(9))
    return leaves, plan, [[(j, passes[j][-1]) for j in seg] for seg in segments]


def _first_passes(v, pts, e, step):
    """Per segment of the walk through pts at the float e, its first passes' (product, least V).

    One tree for the whole walk; each product has _rk4_product's bits.
    """
    leaves, plan, segments = _walk_passes(v, tuple(pts), step)
    if leaves is None:
        return segments
    with np.errstate(over="ignore", invalid="ignore"):
        flat = _tree_product(_step_matrices(e, leaves), plan).reshape(4, -1).T.tolist()
    return [[(flat[i], low) for i, low in seg] for seg in segments]


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
            return _tree_product(_step_matrices(e, data)).ravel().tolist()
        per = max(1, _BLOCK // len(data[0]))
        size = 4 * min(per, e.size) * len(data[0])
        buf = getattr(_scratch, "buf", None)
        if buf is None:
            buf = _scratch.buf = np.empty(8 * _BLOCK)
        if buf.size < 2 * size:  # a lone lane of more than _BLOCK steps, not kept
            buf = np.empty(2 * size)
        m = np.empty((2, 2, e.size))
        for i in range(0, e.size, per):
            lanes = e[i:i + per]
            # the quadratics run faster with the steps innermost, the tree
            # with the lanes innermost, where each half of a level is one block
            leaves = buf[:4 * lanes.size * len(data[0])].reshape(2, 2, -1, lanes.size)
            np.copyto(leaves, _step_matrices(lanes, data, buf[size:]).swapaxes(2, 3))
            m[..., i:i + per] = _tree_product(leaves, spare=buf[size:])[:, :, 0]
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
    """cols, the columns at x, if finite; else FloatingPointError naming x and E, or NaN lanes."""
    entries = [t for col in cols for t in col]
    if not isinstance(entries[0], np.ndarray):
        if not all(map(math.isfinite, entries)):
            raise FloatingPointError(f"the solution at x = {x!r} is not finite at E = {e!r}")
    elif not (ok := np.isfinite(entries).all(axis=0)).all():
        # NaN in every column of a failed lane: an inf would still give a finite angle
        return [(np.where(ok, u, math.nan), np.where(ok, du, math.nan)) for u, du in cols]
    return cols


def _propagate(v, y, x, e, step, cols, first=()):
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
    out of later passes.  No walk returns an entry that is not finite: at a
    float e an exact walk raises _finite's FloatingPointError, and so does
    an RK4 walk whose last pass is not finite once the refinements run out,
    else IntegrationFailure; a lane is NaN there, and walked no further.
    first holds the (product, least V) of the first passes at a float e, as
    _first_passes gives them for the walk's segment (y, x); the later passes
    are built here.  The callers check the domain.
    """
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
    if shape:  # a lane stays NaN unless it converges
        cols = [(np.broadcast_to(u, shape), np.broadcast_to(du, shape)) for u, du in cols]
        out = [(np.full(shape, math.nan), np.full(shape, math.nan)) for _ in cols]
        live = np.flatnonzero(np.isfinite([t for col in cols for t in col]).all(axis=0))
        if not live.size:
            return out
        cols = [(u[live], du[live]) for u, du in cols]
        e = e[live] if isinstance(e, np.ndarray) else e
    h_target = step.base_step()
    prev = None
    for i in range(step.max_refine + 1):
        if i < len(first):
            (a, b, c, d), low = first[i]
        else:
            data = _rk4_pass(v, y, x, h_target, step.max_steps)
            if data is None:
                if shape:
                    return out
                raise IntegrationFailure(
                    f"step budget {step.max_steps} exhausted before tolerance {step.tol}")
            (a, b, c, d), low = _rk4_product(e, data), data[-1]
        cur = [(a * u + b * du, c * u + d * du) for u, du in cols]
        if prev is not None:
            cap = (0.25 / h_target) ** 2  # the E - V at which 2 h sqrt(E - V) = 1/2
            done = _converged(cur, prev, step.tol) & (e - low <= cap)
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
    if shape:
        return out
    _finite(x, e, prev)
    raise IntegrationFailure(
        f"no convergence within {step.max_refine} refinements at tolerance {step.tol}")


def transfer_matrix(v, x, y, e, step: StepControl = DEFAULT_STEP) -> Mat2:
    """M(x, y; E): columns are the solutions with identity data at y, evaluated at x.

    Determinant drift is checked against 10x the tolerance and never
    repaired silently.
    """
    _check_domain(v, x, y)
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
    _check_domain(v, x_target, state.x)
    ((u, du),) = _propagate(v, state.x, x_target, e, step, ((state.u, state.du),))
    return state if x_target == state.x else SolutionState(x_target, u, du)
