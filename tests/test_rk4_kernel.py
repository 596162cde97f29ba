"""The RK4 step-matrix kernel against the sequential loop it replaced and an
independent closed form, the scratch array its lane passes reuse, and the
stacked tree that multiplies a single-energy walk's first passes at once.

The kernel evaluates each step matrix's entries as quadratics in E and
multiplies the step matrices of a pass as a pairwise tree, so its rounding
differs from stepping (u, u') one step at a time.  The bound stated
in tests/test_golden.py holds pass by pass: every entry within a relative
1e-12 of the sequential loop's, relative to max(1, |entry|).
"""

import math
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slspec.transfer
from slspec.problem import problem_from_json, propagate_through
from slspec.spectra import _mismatches, boundary_mismatch, eigen_test
from slspec.transfer import (
    DEFAULT_STEP,
    GridPotential,
    IntegrationFailure,
    StepControl,
    _BLOCK,
    _first_passes,
    _rk4_pass,
    _rk4_product,
    _scratch,
    _step_matrices,
    _tree_plan,
    _tree_product,
    _walk_passes,
    _walk_points,
    transfer_matrix,
)

BOUND = 1e-12
# the step budget of a kernel pass called directly
STEPS = DEFAULT_STEP.max_steps


# ----------------------------------------------------------- sequential oracle

def sequential_samples(v, pts, h_target):
    """Step sizes, and V at the n + 1 step points and n midpoints of one pass."""
    ends = np.array(pts, dtype=float)
    dx = ends[1:] - ends[:-1]
    n = np.maximum(1, np.ceil(np.abs(dx) / h_target)).astype(np.int64)
    i = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    h = np.repeat(dx / n, n)
    x0 = np.repeat(ends[:-1], n) + np.repeat(dx, n) * i / np.repeat(n, n)
    vals = v.sample(np.concatenate((x0, ends[-1:], x0 + 0.5 * h))).tolist()
    return h.tolist(), vals[:len(x0) + 1], vals[len(x0) + 1:]


def sequential_column(u, du, e, hs, vx, vm):
    """Classic RK4 on u' = du, du' = (V - E) u, one step after another."""
    w0 = vx[0] - e
    for h, v_mid, v_end in zip(hs, vm, vx[1:]):
        wh, w1 = v_mid - e, v_end - e
        k1u, k1d = du, w0 * u
        u2, d2 = u + 0.5 * h * k1u, du + 0.5 * h * k1d
        k2u, k2d = d2, wh * u2
        u3, d3 = u + 0.5 * h * k2u, du + 0.5 * h * k2d
        k3u, k3d = d3, wh * u3
        u4, d4 = u + h * k3u, du + h * k3d
        k4u, k4d = d4, w1 * u4
        u = u + h * (k1u + 2 * k2u + 2 * k3u + k4u) / 6.0
        du = du + h * (k1d + 2 * k2d + 2 * k3d + k4d) / 6.0
        w0 = w1
    return u, du


def sequential_propagate(v, y, x, e, step, cols):
    """The sequential loop's step halving on one float energy."""
    pts = _walk_points(v, y, x)
    h_target = step.base_step()
    prev = None
    for _ in range(step.max_refine + 1):
        samples = sequential_samples(v, pts, h_target)
        cur = [sequential_column(u, du, e, *samples) for u, du in cols]
        if prev is not None:
            scale = max(1.0, max(abs(t) for col in prev for t in col))
            change = max(abs(s - t) for c, d in zip(cur, prev) for s, t in zip(c, d))
            if change / scale <= step.tol:
                return cur
        prev = cur
        h_target *= 0.5
    raise IntegrationFailure("no convergence")


# the grid cases of tests/test_golden.py with their sequential-loop pins:
# (x, y, E, step, transfer_matrix entries, state from (y, 0.6, -1.1))
_NODES = tuple(0.1 * i for i in range(11))
GRID = GridPotential(_NODES, tuple(2.0 * math.sin(3.0 * x) - 1.0 for x in _NODES))
HALVING = StepControl(tol=1e-6)
SEQUENTIAL_PINS = [
    (0.95, 0.05, 6.0, DEFAULT_STEP,
     ('-0x1.14aca66ac0ff2p-1', '0x1.84135e0f1f40bp-2', '-0x1.e848512290c96p+0', '-0x1.06987234f5c10p-1'),
     ('-0x1.7b723dfbb3f5fp-1', '-0x1.29157d5503ac3p-1')),
    (0.05, 0.95, 6.0, DEFAULT_STEP,
     ('-0x1.06987234f5c15p-1', '-0x1.84135e0f1f404p-2', '0x1.e848512290c98p+0', '-0x1.14aca66ac0fecp-1'),
     ('0x1.bf1313445448cp-4', '0x1.bd23f29c41048p+0')),
    (0.9, 0.0, -2.0, DEFAULT_STEP,
     ('0x1.0747b487d20f6p+1', '0x1.3ff6e6c5e30bep+0', '0x1.6ccfda210cb7dp+1', '0x1.1be88b30b235ap+1'),
     ('-0x1.2032c34f20a45p-3', '-0x1.75a5f286f1992p-1')),
    (1.0, 0.0, 30.0, HALVING,
     ('0x1.585bde7f0a80ep-1', '-0x1.139f0fb11be49p-3', '0x1.0574e15b18bdbp+2', '0x1.56b7cfe7a03d1p-1'),
     ('0x1.1a694369bac5ep-1', '0x1.b700374e700c7p+0')),
    (0.0, 1.0, 30.0, HALVING,
     ('0x1.56b7cfe7a03d8p-1', '0x1.139f0fb11be4dp-3', '-0x1.0574e15b18bdcp+2', '0x1.585bde7f0a80cp-1'),
     ('0x1.03ab7883fb754p-2', '-0x1.9872537f56b92p+1')),
]


def within(got, want, bound=BOUND):
    return all(abs(g - w) <= bound * max(1.0, abs(w)) for g, w in zip(got, want))


@pytest.mark.parametrize("x, y, e, step, matrix, state", SEQUENTIAL_PINS)
def test_oracle_is_the_sequential_loop(x, y, e, step, matrix, state):
    # the oracle reproduces the pins the sequential loop wrote, bit for bit
    (a, c), (b, d) = sequential_propagate(GRID, y, x, e, step, ((1.0, 0.0), (0.0, 1.0)))
    assert tuple(t.hex() for t in (a, b, c, d)) == matrix
    ((u, du),) = sequential_propagate(GRID, y, x, e, step, ((0.6, -1.1),))
    assert (u.hex(), du.hex()) == state
    # and the kernel's matrix lies within the bound of those pins
    got = transfer_matrix(GRID, x, y, e, step).entries()
    assert within(got, [float.fromhex(t) for t in matrix])


finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def grid_walks(draw):
    """A grid potential and two points of its domain, in either order."""
    gaps = draw(st.lists(st.floats(0.02, 0.4, **finite), min_size=1, max_size=25))
    xs = [draw(st.floats(-2.0, 2.0, **finite))]
    for g in gaps:
        xs.append(xs[-1] + g)
    values = draw(st.lists(st.floats(-20.0, 20.0, **finite),
                           min_size=len(xs), max_size=len(xs)))
    v = GridPotential(tuple(xs), tuple(values))
    f, g = draw(st.lists(st.floats(0.0, 1.0, **finite), min_size=2, max_size=2, unique=True))
    lo, hi = v.domain
    return v, min(lo + f * (hi - lo), hi), min(lo + g * (hi - lo), hi)


energy = st.floats(-25.0, 60.0, **finite)
h_targets = st.sampled_from([0.1, 0.03, 0.01, 0.003])


@settings(max_examples=60, deadline=None)
@given(grid_walks(), energy, h_targets)
def test_kernel_pass_matches_sequential_pass(walk, e, h_target):
    v, y, x = walk
    samples = sequential_samples(v, _walk_points(v, y, x), h_target)
    (a, c), (b, d) = [sequential_column(u, du, e, *samples) for u, du in ((1.0, 0.0), (0.0, 1.0))]
    got = _rk4_product(e, _rk4_pass(v, y, x, h_target, STEPS))
    assert within(got, (a, b, c, d))


@settings(max_examples=30, deadline=None)
@given(grid_walks(), st.lists(energy, min_size=1, max_size=8), h_targets)
def test_kernel_lanes_match_sequential_passes(walk, es, h_target):
    v, y, x = walk
    samples = sequential_samples(v, _walk_points(v, y, x), h_target)
    lanes = _rk4_product(np.array(es), _rk4_pass(v, y, x, h_target, STEPS))
    for k, e in enumerate(es):
        (a, c), (b, d) = [sequential_column(u, du, e, *samples)
                          for u, du in ((1.0, 0.0), (0.0, 1.0))]
        assert within([t[k] for t in lanes], (a, b, c, d))


# |E| far above |V| <= 20; at E = 1e4 and h = 0.01, E h^2 = 1, where the
# E^2 terms of the step matrices' entries cancel against the others most
_NODES_FAST = tuple(0.05 * i for i in range(41))
FAST = GridPotential(_NODES_FAST, tuple(20.0 * math.sin(7.0 * x) for x in _NODES_FAST))
LARGE_E = (1e4, 9999.5, 5e3, 1e3, -2e3, -1e4)


@pytest.mark.parametrize("y, x", [(0.0, 2.0), (2.0, 0.1), (0.3, 0.8)])
@pytest.mark.parametrize("h_target", [0.01, 0.005])
def test_kernel_matches_sequential_pass_at_large_energies(y, x, h_target):
    data = _rk4_pass(FAST, y, x, h_target, STEPS)
    samples = sequential_samples(FAST, _walk_points(FAST, y, x), h_target)
    lanes = _rk4_product(np.array(LARGE_E), data)
    for k, e in enumerate(LARGE_E):
        (a, c), (b, d) = [sequential_column(u, du, e, *samples)
                          for u, du in ((1.0, 0.0), (0.0, 1.0))]
        assert within(_rk4_product(e, data), (a, b, c, d))
        assert [t[k] for t in lanes] == _rk4_product(e, data)


@pytest.mark.parametrize("full, rest", [(0, 1), (1, 0), (1, 1), (3, 6)])
def test_lanes_across_blocks_match_lone_energies(full, rest):
    # the lanes fill `full` blocks of _BLOCK // steps lanes each, and `rest`
    # more start another; each lane keeps its lone bits
    data = _rk4_pass(GRID, 0.0, 1.0, 0.0005, STEPS)
    per = _BLOCK // len(data[0])
    es = np.linspace(-20.0, 50.0, full * per + rest)
    got = _rk4_product(es, data)
    for k, e in enumerate(es.tolist()):
        assert [t[k] for t in got] == _rk4_product(e, data)


def test_a_lane_longer_than_a_block_keeps_its_lone_bits():
    # each lane of about 2 * _BLOCK steps makes a block of its own, too
    # large for the scratch array, which stays at its size
    data = _rk4_pass(GRID, 0.0, 1.0, 0.5 / _BLOCK, STEPS)
    assert len(data[0]) > 2 * _BLOCK
    es = np.array([3.25, -20.0])
    got = _rk4_product(es, data)
    for k, e in enumerate(es.tolist()):
        assert [t[k] for t in got] == _rk4_product(e, data)
    assert _scratch.buf.size == 8 * _BLOCK


# ---------------------------------------------------- the scratch array

def grid_problem(nodes, scale):
    xs = [2.0 * i / (nodes - 1) for i in range(nodes)]
    return problem_from_json({
        "a": 0.0, "b": 2.0, "bc_left": 0.0, "bc_right": 0.3,
        "potential": {"kind": "grid", "x": xs,
                      "values": [scale * math.sin(3.0 * x) for x in xs]},
        "interactions": [{"x": 0.9, "alpha": 0.4, "r": 1.3, "theta": 0.2}]})


def test_lane_passes_allocate_no_step_arrays():
    # 300 nodes on [0, 2] take 598 steps at the base step; once this thread's
    # scratch array exists, a 200-lane pass allocates less than one
    # lanes x steps float array (the step matrices alone take four)
    v = grid_problem(300, 5.0).potential
    data = _rk4_pass(v, 0.0, 2.0, DEFAULT_STEP.base_step(), STEPS)
    assert len(data[0]) == 598
    es, again = np.linspace(-10.0, 50.0, 200), np.linspace(-9.0, 51.0, 200)
    first = _rk4_product(es, data)
    tracemalloc.start()
    try:
        second = _rk4_product(again, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < es.size * len(data[0]) * 8
    # the arrays a pass returns are its own, also where its tree ends in the
    # scratch array (2048 lanes of 16 steps): a pass of another shape leaves them be
    short = _rk4_pass(v, 0.0, v.x[8], DEFAULT_STEP.base_step(), STEPS)
    assert len(short[0]) == 16
    wide = _rk4_product(np.linspace(-10.0, 50.0, 2048), short)
    kept = [t.copy() for t in first + wide]
    other = _rk4_pass(v, 1.7, 0.2, DEFAULT_STEP.base_step() / 2, STEPS)
    _rk4_product(np.linspace(0.0, 5.0, 7), other)
    assert all(np.array_equal(t, k) for t, k in zip(first + wide, kept))
    assert not any(np.shares_memory(t, _scratch.buf) for t in first + second + wide)


def test_threads_scanning_at_once_keep_their_bits():
    # each thread writes its lane passes into a scratch array of its own
    jobs = [(grid_problem(300, 5.0), np.linspace(-10.0, 40.0, 200)),
            (grid_problem(217, -8.0), np.linspace(-5.0, 60.0, 150))]
    alone = [boundary_mismatch(p, es) for p, es in jobs]
    got = [[], []]
    start = threading.Barrier(2, timeout=60)

    def scan(k):
        start.wait()
        for _ in range(4):
            got[k].append(boundary_mismatch(*jobs[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=scan, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[alone[0]] * 4, [alone[1]] * 4]


# ------------------------------------------------------ the stacked tree

def float_bits(xs):
    return np.array(xs, dtype=float).view(np.uint64).tolist()


def pairwise_tree(m):
    """M[n-1] ... M[0] of the (2, 2, n) matrices m in step order, the tree the
    kernel keeps: M[2i+1] M[2i] at each level, an odd last matrix waiting."""
    while (n := m.shape[-1]) > 1:
        half = n // 2
        early, late = m[..., 0:2 * half:2], m[..., 1:2 * half:2]
        out = late[:, 0:1] * early[0:1] + late[:, 1:2] * early[1:2]
        m = np.concatenate((out, m[..., 2 * half:]), axis=-1)
    return m[..., 0]


def pairing_order(n):
    """The order in which the tree of one n-matrix product reads them."""
    return _tree_plan((n,))[1]


def stack_in_plan_order(ms):
    """The (2, 2, n_j) stacks ms as _walk_passes stacks passes: each in its
    own pairing order, in the level-0 order of _tree_plan."""
    prod, _, plan = _tree_plan(tuple(m.shape[-1] for m in ms))
    stacked = np.concatenate([m[..., pairing_order(m.shape[-1])] for m in ms], axis=-1)
    at = np.empty_like(prod)
    at[np.argsort(prod, kind="stable")] = np.arange(len(prod))
    return stacked[..., at], plan


# widths with an odd level far up the tree, and small ones
TREE_WIDTHS = st.one_of(st.integers(1, 3000),
                        st.sampled_from([1, 2, 3, 32, 33, 65, 255, 1001, 2047, 2999, 3001]))
# no NaN: the step matrices come from finite coefficients at a finite E, so a
# NaN in the tree is made by inf - inf or 0 * inf and is the machine's one
# default NaN; where two NaNs of different payloads meet, numpy's vector
# loops may keep either
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, 1e308, -1e308, 5e-324, -5e-324])


@st.composite
def stacks(draw):
    """(2, 2, n) matrices of magnitudes up to 1e150, so that products overflow
    to inf and NaN, with zeros of either sign, infinities and subnormals mixed in."""
    n = draw(TREE_WIDTHS)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = rng.uniform(-2.0, 2.0, (2, 2, n)) * 10.0 ** rng.integers(-150, 151, (2, 2, n))
    special = rng.random((2, 2, n)) < draw(st.sampled_from([0.0, 0.01, 0.2]))
    m[special] = rng.choice(SPECIALS, special.sum())
    if draw(st.booleans()):  # mostly zeros, so that signed zeros reach the product
        zero = rng.random((2, 2, n)) < 0.95
        m[zero] = rng.choice([0.0, -0.0], zero.sum())
    return m


@settings(max_examples=150, deadline=None)
@given(st.lists(stacks(), min_size=1, max_size=9))
def test_stacked_tree_keeps_each_products_bits(ms):
    # one tree over all stacks gives each the bits of its own tree, alone
    # in its pairing order or in step order; I M would differ from M on -0.0
    leaves, plan = stack_in_plan_order(ms)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        got = _tree_product(leaves, plan)
        assert got.shape == (2, 2, len(ms))
        for j, m in enumerate(ms):
            want = float_bits(pairwise_tree(m.copy()).ravel())
            alone = _tree_product(m[..., pairing_order(m.shape[-1])].copy())
            assert float_bits(alone.ravel()) == want
            assert float_bits(got[..., j].ravel()) == want


def test_plan_of_one_product_moves_only_its_odd_last_matrix():
    for n in (1, 2, 3, 5, 598, 897, 1495, 2990):
        prod, idx, plan = _tree_plan((n,))
        assert (prod == 0).all() and len(plan) == math.ceil(math.log2(n))
        assert sorted(idx.tolist()) == list(range(n))
        assert all(move is None or width - move[0] == 1 for _, width, move in plan)


@pytest.mark.parametrize("h_target", [0.1, 0.01, 0.0005])
@pytest.mark.parametrize("e", [-20.0, 3.25, 1e4])
def test_single_energy_product_is_the_numpy_tree(h_target, e):
    data = _rk4_pass(GRID, 0.0, 1.0, h_target, STEPS)
    n = len(data[0])
    in_steps = _step_matrices(e, data)[..., np.argsort(pairing_order(n))]
    want = pairwise_tree(in_steps).ravel().tolist()
    assert float_bits(_rk4_product(e, data)) == float_bits(want)


WALKS = [(0.0, 1.0), (0.05, 0.95), (0.9, 0.0), (0.0, 0.33, 0.71, 1.0), (1.0, 0.5, 0.25, 0.0)]


@pytest.mark.parametrize("pts", WALKS)
@pytest.mark.parametrize("step", [DEFAULT_STEP, HALVING, StepControl(tol=1e-12),
                                  StepControl(max_refine=1)])
def test_first_passes_are_each_pass_product(pts, step):
    # every segment's first passes at once, each with the bits of its pass
    # alone, on floats and in lanes that straddle a block boundary
    h0 = step.base_step()
    for e in (-20.0, 3.25, 60.0, 1e4):
        first = _first_passes(GRID, pts, e, step)
        assert len(first) == len(pts) - 1
        for (y, x), passes in zip(zip(pts, pts[1:]), first):
            assert len(passes) == min(3, step.max_refine + 1)
            for i, (product, low) in enumerate(passes):
                data = _rk4_pass(GRID, y, x, h0 / 2 ** i, step.max_steps)
                assert low == data[-1]
                assert float_bits(product) == float_bits(_rk4_product(e, data))
                per = _BLOCK // len(data[0])
                es = np.full(per + 1, 0.5)
                es[per - 1:] = e
                lanes = _rk4_product(es, data)
                for k in (per - 1, per):
                    assert float_bits([t[k] for t in lanes]) == float_bits(product)


def test_first_passes_stop_at_the_step_budget():
    # a pass past step.max_steps is not built, and raises nothing until a
    # walk needs it: at E = 3.25 two passes agree, at E = 30 four are needed
    h0 = DEFAULT_STEP.base_step()
    sizes = [len(_rk4_pass(GRID, 0.0, 1.0, h0 / 2 ** i, STEPS)[0]) for i in range(3)]
    step = StepControl(max_steps=sizes[1])
    assert [len(p) for p in _first_passes(GRID, (0.0, 1.0), 3.25, step)] == [2]
    assert _first_passes(GRID, (0.0, 1.0), 3.25, StepControl(max_steps=10)) == [[]]
    problem = problem_from_json({"a": 0.0, "b": 1.0, "bc_left": 0.0, "bc_right": 0.0,
                                 "potential": {"kind": "grid", "x": list(GRID.x),
                                               "values": list(GRID.values)},
                                 "interactions": []})
    assert propagate_through(problem, 3.25, step) == propagate_through(problem, 3.25)
    for e, budget in ((30.0, step), (3.25, StepControl(max_steps=10))):
        with pytest.raises(IntegrationFailure, match=f"step budget {budget.max_steps} exhausted"):
            propagate_through(problem, e, budget)


def two_jump_problem():
    xs = [2.0 * i / 299 for i in range(300)]
    return problem_from_json({
        "a": 0.0, "b": 2.0, "bc_left": 0.0, "bc_right": 0.3,
        "potential": {"kind": "grid", "x": xs, "values": [5.0 * math.sin(3.0 * x) for x in xs]},
        "interactions": [{"x": 0.6, "alpha": 0.4, "r": 1.3, "theta": 0.2},
                         {"x": 1.3, "alpha": -0.7, "r": 0.8, "theta": 2.1}]})


def test_single_energy_walk_builds_its_first_passes_once(monkeypatch):
    # one stack of step matrices for all three segments' first passes, and
    # the lane walk's bits
    problem = two_jump_problem()
    calls = []
    kernel = slspec.transfer._step_matrices

    def counted(e, data, out=None):
        calls.append(len(data[0]))
        return kernel(e, data, out)

    monkeypatch.setattr(slspec.transfer, "_step_matrices", counted)
    e = 7.5
    report = eigen_test(problem, e)
    pts = (0.0, 0.6, 1.3, 2.0)
    h0 = DEFAULT_STEP.base_step()
    assert calls == [sum(len(_rk4_pass(problem.potential, y, x, h0 / 2 ** i, STEPS)[0])
                         for y, x in zip(pts, pts[1:]) for i in range(3))]
    assert len(_walk_passes(problem.potential, pts, DEFAULT_STEP)[1]) > 1
    final = propagate_through(problem, np.array([e])).final
    assert float_bits([report.mismatch]) == float_bits(_mismatches(problem, final.u, final.du))


# ------------------------------------------------------------- closed form

def airy_matrix(v0, slope, x, y, e):
    """M(x, y; E) for V = v0 + slope * t from Airy functions at 30 digits.

    u'' = (slope * t + v0 - E) u is solved by Ai and Bi of
    z = slope**(1/3) * (t + (v0 - E) / slope).
    """
    with mpmath.workdps(30):
        k = mpmath.cbrt(slope)

        def fundamental(t):
            z = k * (t + (v0 - e) / mpmath.mpf(slope))
            return mpmath.matrix([[mpmath.airyai(z), mpmath.airybi(z)],
                                  [k * mpmath.airyai(z, 1), k * mpmath.airybi(z, 1)]])

        m = fundamental(mpmath.mpf(x)) * mpmath.inverse(fundamental(mpmath.mpf(y)))
        return [float(m[0, 0]), float(m[0, 1]), float(m[1, 0]), float(m[1, 1])]


@pytest.mark.parametrize("x, y, e", [(2.0, 0.0, 10.0), (0.0, 2.0, 10.0), (1.7, 0.3, -3.0),
                                     (2.0, 0.5, 40.0)])
def test_linear_potential_matches_airy_closed_form(x, y, e):
    # the grid's linear interpolation makes V exactly linear on [0, 2]
    v = GridPotential((0.0, 2.0), (-1.0, 5.0))
    step = StepControl(tol=1e-10)
    got = transfer_matrix(v, x, y, e, step).entries()
    assert within(got, airy_matrix(-1.0, 3.0, x, y, e), 1e-10)
