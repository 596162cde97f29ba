"""Bit-level pins of both propagation routes: float.hex of fixed outputs.

The exact-route propagation values were produced by the separate matrix and
state integrators that preceded the shared propagation walker, and the
uniform Monte Carlo draws by one Philox generator per (sample, site), which
preceded the vectorized per-site draws.  Any change in the order of the floating-point operations on either route
shows up here as a changed bit.

The RK4 (grid) values are pinned from the step-matrix kernel, which
evaluates each step matrix's entries as quadratics in E and multiplies a
pass's step matrices as a pairwise tree, instead of stepping (u, u') one
step at a time.  They are re-pinned only within a stated bound of the
sequential loop's pins: every matrix entry, state entry and Pruefer phase
within a relative 1e-12 (of max(1, |value|)), every eigenvalue within the
scan's tol, and every mismatch within 1e-12.  When the entries became
quadratics in E, the largest moves from the previous pins were 7.8e-15
relative (entries; 4.9e-15 from the sequential loop's), 1.4e-14
(eigenvalues), 2.2e-15 (mismatches) and 4.4e-16 relative (phases); the
spurious scan reports stayed in their cells, within 3.6e-15.  The grid
zeros and class points kept every bit.  tests/test_rk4_kernel.py checks
the kernel against a copy of the sequential loop, which reproduces the
old pins bit for bit.

The scan pins come from the ITP root refinement of the lifted mismatch: in
a cell starting at mismatch m0, the mismatch plus pi wherever it lies below
m0, less its target 0 (m0 < 0) or pi.  Each scan first passes
tests/conftest.py's check against bisection of the same lift: in every
grid cell at most one evaluation more, every root of bisection genuine,
and one report within the scan's tol of each.  Three reports from cells
with a wrap-around and no root, pinned before (mismatches 0.87, 0.59 and
1.25), went when the scan stopped reporting such cells.  When the lift
took over from a guard against jumps of pi / 2 or more, which never
refined a cell where the mismatch falls without changing sign, the first
scan gained 51.336 and the third 51.336 and 99.583, each from such a
cell; every root pinned before kept every bit.  The fourth scan was added
then, for such a cell.

The zeros and class points come from the ITP crossing refinement, which
took over from two bisections.  The bisections' pins stay as
BISECTION_ZEROS, and a test checks that ZEROS lies within a bound of them:
on the exact route zeros within 1e-10 and class points within 1e-12, on
the grid route within the integration tolerance.  The largest moves were 3.4e-11 (zeros)
and 6.5e-13 (class points) on the exact route and 1.2e-10 and 3.6e-11 at
step.tol 1e-7 on the grid route.

On piecewise-constant potentials the zeros, class points and trace phases
now come in closed form, piece by piece, instead of from the sampled lift
walk.  The walk's pins stay as LIFT_WALK_ZEROS and LIFT_WALK_TRACES, and
tests check the bounds: zeros and class points within CROSSING_TOL
(largest moves 1.8e-15 and 4.7e-13), trace phases within a relative 1e-12
(largest move 4.4e-16) at the same sample positions.  The grid pins kept
every bit.
"""

import math

import pytest

from slspec.problem import CROSSING_TOL, PointInteraction, Problem, prufer_trace
from slspec.random import (
    Ensemble,
    Gaussian,
    PointMass,
    Uniform,
    find_class_point,
    sample_realization,
    zeros_of_eigenfunction,
)
from slspec.sl2 import IwasawaParams, ProjPoint, proj_class
from slspec.transfer import (
    DEFAULT_STEP,
    GridPotential,
    PiecewisePotential,
    SolutionState,
    StepControl,
    propagate_state,
    transfer_matrix,
)

PIECEWISE = PiecewisePotential((-1.0, -0.2, 0.5, 1.3, 2.0), (3.0, -2.5, 7.0, 0.5))
_NODES = tuple(0.1 * i for i in range(11))
GRID = GridPotential(_NODES, tuple(2.0 * math.sin(3.0 * x) - 1.0 for x in _NODES))
# at E = 30 on GRID this tolerance takes three step halvings before two
# successive passes agree
HALVING = StepControl(tol=1e-6)

# (potential, x, y, E, step, transfer_matrix(x, y) entries,
#  propagate_state from (y, 0.6, -1.1) to x)
CASES = [
    (PIECEWISE, 1.7, -0.6, 4.2, DEFAULT_STEP,
     ('-0x1.0f3d91b89b116p+2', '-0x1.280891d32dbf1p+0', '0x1.1855a76b70260p-3', '-0x1.96bdf119d66f0p-3'),
     ('-0x1.455723b9283dfp+0', '0x1.33cef6d4d794cp-2')),
    (PIECEWISE, -0.6, 1.7, 4.2, DEFAULT_STEP,
     ('-0x1.96bdf119d66e7p-3', '0x1.280891d32dbf2p+0', '-0x1.1855a76b70260p-3', '-0x1.0f3d91b89b116p+2'),
     ('-0x1.642478e3d59aap+0', '0x1.251bb85aa6df4p+2')),
    (PIECEWISE, 1.9, -0.9, -3.0, DEFAULT_STEP,
     ('0x1.0dc356c301c18p+8', '0x1.c307dc715ad37p+6', '0x1.0a45ea2a18ac1p+9', '0x1.bd33ff46e7068p+7'),
     ('0x1.2e9855150d697p+5', '0x1.2aa9ff2e13c54p+6')),
    (GRID, 0.95, 0.05, 6.0, DEFAULT_STEP,
     ('-0x1.14aca66ac0ff8p-1', '0x1.84135e0f1f413p-2', '-0x1.e848512290cc0p+0', '-0x1.06987234f5c24p-1'),
     ('-0x1.7b723dfbb3f6ep-1', '-0x1.29157d5503ac1p-1')),
    (GRID, 0.05, 0.95, 6.0, DEFAULT_STEP,
     ('-0x1.06987234f5c26p-1', '-0x1.84135e0f1f415p-2', '0x1.e848512290cbdp+0', '-0x1.14aca66ac0ffap-1'),
     ('0x1.bf13134454474p-4', '0x1.bd23f29c4106ep+0')),
    (GRID, 0.9, 0.0, -2.0, DEFAULT_STEP,
     ('0x1.0747b487d2105p+1', '0x1.3ff6e6c5e30c9p+0', '0x1.6ccfda210cb9bp+1', '0x1.1be88b30b2367p+1'),
     ('-0x1.2032c34f209f0p-3', '-0x1.75a5f286f1988p-1')),
    (GRID, 1.0, 0.0, 30.0, HALVING,
     ('0x1.585bde7f0a807p-1', '-0x1.139f0fb11be45p-3', '0x1.0574e15b18bdap+2', '0x1.56b7cfe7a03ccp-1'),
     ('0x1.1a694369bac58p-1', '0x1.b700374e700c0p+0')),
    (GRID, 0.0, 1.0, 30.0, HALVING,
     ('0x1.56b7cfe7a03c8p-1', '0x1.139f0fb11be49p-3', '-0x1.0574e15b18bdbp+2', '0x1.585bde7f0a80cp-1'),
     ('0x1.03ab7883fb74dp-2', '-0x1.9872537f56b8ep+1')),
]


@pytest.mark.parametrize("v, x, y, e, step, matrix, state", CASES)
def test_transfer_matrix_bits(v, x, y, e, step, matrix, state):
    m = transfer_matrix(v, x, y, e, step)
    assert tuple(t.hex() for t in m.entries()) == matrix


@pytest.mark.parametrize("v, x, y, e, step, matrix, state", CASES)
def test_propagate_state_bits(v, x, y, e, step, matrix, state):
    s = propagate_state(v, SolutionState(y, 0.6, -1.1), x, e, step)
    assert (s.u.hex(), s.du.hex()) == state


# a grid potential with two jumps; the scans mix genuine eigenvalues with
# sign changes across the cut, where the mismatch falls and which the scan
# does not refine, and cells where the mismatch falls without changing sign,
# which hold a root
_SCAN_NODES = tuple(0.05 * i for i in range(21))
SCAN_PROBLEM = Problem(
    0.0, 1.0,
    GridPotential(_SCAN_NODES, tuple(3.0 * math.cos(2.5 * x) + x * x
                                     for x in _SCAN_NODES)),
    (PointInteraction(0.35, IwasawaParams(0.8, 1.3, 0.4)),
     PointInteraction(0.725, IwasawaParams(-0.5, 0.9, 2.2))),
    ProjPoint(0.0), ProjPoint(0.3))

# (e_lo, e_hi, grid, refinement tol, step, [(E, mismatch), ...])
SCANS = [
    (-5.0, 60.0, 10, 1e-10, DEFAULT_STEP,
     [('0x1.1df82fa66085ap+3', '0x1.0000000000000p-53'),
      ('0x1.9ab0471ffd63ep+5', '0x1.856b000000000p-38')]),
    (5.0, 30.0, 6, 1e-8, HALVING,
     [('0x1.1df83007322fep+3', '0x1.0000000000000p-53')]),
    (20.0, 140.0, 8, 1e-9, StepControl(tol=1e-7),
     [('0x1.9ab04725b6542p+5', '0x1.3f2ea80000000p-33'),
      ('0x1.8e54d31351d5bp+6', '0x1.5a06c00000000p-36'),
      ('0x1.f4ce04ca0cedep+6', '0x1.8000000000000p-53')]),
    # the mismatch falls from -0.096 to -0.249 across (50.91, 63.64) without
    # changing sign: its lift rose through 0 and wrapped, and the cell holds
    # 51.3361.  The first cell, (0, 12.73), rises from -1.54 to -1.15 but by
    # more than pi, through 0 and once round: its root 8.9365, which the
    # first two scans find, stays missed
    (0.0, 140.0, 12, 1e-10, DEFAULT_STEP,
     [('0x1.9ab0471ffd911p+5', '0x1.08bb000000000p-38'),
      ('0x1.8e54d30c23224p+6', '0x1.8000000000000p-53'),
      ('0x1.f4ce04c355ea6p+6', '0x1.8000000000000p-53')]),
]


@pytest.mark.parametrize("e_lo, e_hi, grid, tol, step, found", SCANS)
def test_eigenvalues_in_range_bits(bisection_bound, e_lo, e_hi, grid, tol, step, found):
    reports = bisection_bound(SCAN_PROBLEM, e_lo, e_hi, grid, tol, step)
    assert [(r.E.hex(), r.mismatch.hex()) for r in reports] == found


def test_scans_refine_no_downward_cell(downward_unrefined):
    # the third scan has no downward sign change, the others one or two
    downward = [downward_unrefined(SCAN_PROBLEM, *scan[:5]) for scan in SCANS]
    assert downward == [{0, 2}, {1}, set(), {8}]


# uniform, gaussian and point-mass sites under each target; site 0 of the r
# ensemble rejects nonpositive gaussian draws (2, 2, 4, 2 and 3 times at the
# indices below), and the key of the first ensemble is near the top of its range.
# The gaussian pins come from each sample's own counter domain [0, i, k, 1];
# under the earlier layout [i, k, 0, 0] samples 511 and 512 of the r ensemble
# both drew 0x1.8b9a7fbcb045ap-2 at site 0, because the fifth word of sample
# 511 was the first word of sample 512.  The uniform and point-mass pins kept
# every bit.
DRAW_ENSEMBLES = {
    "lambda": Ensemble("lambda", (Uniform(-1.0, 2.0), Gaussian(0.5, 2.0), PointMass(0.25)),
                       seed=2 ** 64 - 5),
    "r": Ensemble("r", (Gaussian(-0.5, 1.0), Uniform(0.5, 2.0), PointMass(1.5)),
                  seed=20240611),
    "theta": Ensemble("theta", (Uniform(-10.0, 10.0), Gaussian(3.0, 5.0), PointMass(7.0)),
                      seed=0),
}

# (ensemble, sample index, float.hex of each site's draw)
DRAWS = [
    ("lambda", 0, ('0x1.703de4f06ce00p+0', '0x1.4e9e0cfb40cffp+0', '0x1.0000000000000p-2')),
    ("lambda", 1, ('0x1.80952c96ea2acp+0', '0x1.d44b72a3ba024p+0', '0x1.0000000000000p-2')),
    ("lambda", 511, ('-0x1.0ba5f787d5289p-1', '0x1.41a1bc3301f0bp+1', '0x1.0000000000000p-2')),
    ("lambda", 512, ('-0x1.65482f46f6424p-2', '-0x1.18b8e8ee92026p+0', '0x1.0000000000000p-2')),
    ("lambda", 10 ** 6, ('0x1.76e247d997198p-3', '0x1.0c6864930e857p+0', '0x1.0000000000000p-2')),
    ("r", 0, ('0x1.31820638879e5p+0', '0x1.1f3ed53e3e3aep-1', '0x1.8000000000000p+0')),
    ("r", 1, ('0x1.caf95c0fa2478p-1', '0x1.8919d06f7a8d8p+0', '0x1.8000000000000p+0')),
    ("r", 511, ('0x1.ce1e67d62d11ap-2', '0x1.0c3c8c128bd8ap+0', '0x1.8000000000000p+0')),
    ("r", 512, ('0x1.fdbb8433ab9aap-1', '0x1.133dcdd3af624p-1', '0x1.8000000000000p+0')),
    ("r", 10 ** 6, ('0x1.c09a274455a6cp+0', '0x1.105415fce62cbp+0', '0x1.8000000000000p+0')),
    ("theta", 0, ('-0x1.389c2e05e9c3ep+3', '0x1.a923b29d45d82p+2', '0x1.c000000000000p+2')),
    ("theta", 1, ('0x1.85dfd6548fc00p-5', '0x1.6c3e8ee7b65e9p+0', '0x1.c000000000000p+2')),
    ("theta", 511, ('0x1.b2f87ef960288p+1', '0x1.c7ed77cc9a4dfp+1', '0x1.c000000000000p+2')),
    ("theta", 512, ('-0x1.2f2ce1ecbff56p+3', '-0x1.7a652846284d8p-1', '0x1.c000000000000p+2')),
    ("theta", 10 ** 6, ('-0x1.e902d3563e3b0p+0', '0x1.ae119fe28fd54p-1', '0x1.c000000000000p+2')),
]


@pytest.mark.parametrize("name, index, draws", DRAWS)
def test_sample_realization_bits(name, index, draws):
    values = sample_realization(DRAW_ENSEMBLES[name], index)
    assert tuple(v.hex() for v in values) == draws


# the Pruefer lift walk: two-jump piecewise and one-jump grid problems; the
# second site of the first sits 2**-20 right of a breakpoint
LIFT_PIECEWISE = PiecewisePotential((0.0, 0.7, 1.3, 2.0), (0.5, -0.3, 0.8))
_LIFT_NODES = tuple(0.125 * i for i in range(9))
LIFT_GRID = GridPotential(_LIFT_NODES, tuple(0.4 * math.sin(5.0 * x) for x in _LIFT_NODES))
TRACE_PROBLEMS = {
    "piecewise": Problem(0.0, 2.0, LIFT_PIECEWISE,
                         (PointInteraction(0.5, IwasawaParams(0.8, 1.3, 0.4)),
                          PointInteraction(1.3 + 2 ** -20, IwasawaParams(-0.5, 0.7, 2.9))),
                         ProjPoint(0.2), ProjPoint(1.1)),
    "grid": Problem(0.0, 1.0, LIFT_GRID,
                    (PointInteraction(0.6, IwasawaParams(1.5, 1.1, 4.0)),),
                    ProjPoint(0.0), ProjPoint(0.0)),
    "close": Problem(0.0, 2.0, LIFT_PIECEWISE,
                     (PointInteraction(0.5, IwasawaParams(0.8, 1.3, 0.4)),
                      PointInteraction(0.8, IwasawaParams(-0.5, 0.7, 2.9))),
                     ProjPoint(0.2), ProjPoint(1.1)),
}

# (problem, E, resolution, step, [(x, phi), ...]); the phase bound sets the
# spacing of the first trace, the resolution that of the second, and the
# third walks the 0.3 between its sites in one sample
TRACES = [
    ("piecewise", 1.5, 0.4, DEFAULT_STEP,
     [('0x0.0p+0', '0x1.999999999999ap-3'),
      ('0x1.5555555555555p-3', '0x1.7777777777777p-2'),
      ('0x1.5555555555555p-2', '0x1.1111111111110p-1'),
      ('0x1.0000000000000p-1', '0x1.6666666666666p-1'),
      ('0x1.0000000000000p-1', '0x1.d8d1dab342864p-1'),
      ('0x1.51eb8b851eb85p-1', '0x1.155eb31c309f5p+0'),
      ('0x1.a3d7170a3d70ap-1', '0x1.540364297869dp+0'),
      ('0x1.f5c2a28f5c290p-1', '0x1.9d31cd8cd6c6cp+0'),
      ('0x1.23d7170a3d70ap+0', '0x1.e59a0a6cb614dp+0'),
      ('0x1.4cccdcccccccdp+0', '0x1.1462a96f4a7d9p+1'),
      ('0x1.4cccdcccccccdp+0', '0x1.3100ee491a75ep+1'),
      ('0x1.7999a5999999ap+0', '0x1.44ba790768c56p+1'),
      ('0x1.a6666e6666666p+0', '0x1.596fc2f76a094p+1'),
      ('0x1.d333373333333p+0', '0x1.6efe94506e880p+1'),
      ('0x1.0000000000000p+1', '0x1.8524c34cb83bdp+1')]),
    ("grid", 0.3, 0.15, StepControl(tol=1e-6),
     [('0x0.0p+0', '0x0.0p+0'),
      ('0x1.3333333333333p-3', '0x1.3123181a8456cp-3'),
      ('0x1.3333333333333p-2', '0x1.2a25b210abe44p-2'),
      ('0x1.cccccccccccccp-2', '0x1.afbde9a4952e9p-2'),
      ('0x1.3333333333333p-1', '0x1.161a7630850b7p-1'),
      ('0x1.3333333333333p-1', '0x1.abbc3dda3186fp-1'),
      ('0x1.7777777777777p-1', '0x1.d6cd33217dd24p-1'),
      ('0x1.bbbbbbbbbbbbcp-1', '0x1.0409fa487c316p+0'),
      ('0x1.0000000000000p+0', '0x1.1dcef2c987758p+0')]),
    ("close", 0.2, 1.0, DEFAULT_STEP,
     [('0x0.0p+0', '0x1.999999999999ap-3'),
      ('0x1.0000000000000p-2', '0x1.ac42eba17a95ap-2'),
      ('0x1.0000000000000p-1', '0x1.2e79d3134d0c8p-1'),
      ('0x1.0000000000000p-1', '0x1.b0847cf5faecep-1'),
      ('0x1.999999999999ap-1', '0x1.ebfe162615fd5p-1'),
      ('0x1.999999999999ap-1', '0x1.4fe67326709b9p-1'),
      ('0x1.3333333333333p+0', '0x1.e7272ef605fe0p-1'),
      ('0x1.999999999999ap+0', '0x1.f5060ea6e8cb0p-1'),
      ('0x1.0000000000000p+1', '0x1.e5637d1e710d8p-1')]),
]


# the piecewise trace as the sampled lift walk gave it, each sample propagated
# from the one before; TRACES evaluates each sample in closed form from the
# start of its piece, and a test checks it against this reference (the
# "close" trace kept every bit)
LIFT_WALK_TRACES = {
    "piecewise": [
        ('0x0.0p+0', '0x1.999999999999ap-3'),
        ('0x1.5555555555555p-3', '0x1.7777777777777p-2'),
        ('0x1.5555555555555p-2', '0x1.1111111111111p-1'),
        ('0x1.0000000000000p-1', '0x1.6666666666667p-1'),
        ('0x1.0000000000000p-1', '0x1.d8d1dab342865p-1'),
        ('0x1.51eb8b851eb85p-1', '0x1.155eb31c309f5p+0'),
        ('0x1.a3d7170a3d70ap-1', '0x1.540364297869dp+0'),
        ('0x1.f5c2a28f5c290p-1', '0x1.9d31cd8cd6c6cp+0'),
        ('0x1.23d7170a3d70ap+0', '0x1.e59a0a6cb614ep+0'),
        ('0x1.4cccdcccccccdp+0', '0x1.1462a96f4a7d9p+1'),
        ('0x1.4cccdcccccccdp+0', '0x1.3100ee491a75ep+1'),
        ('0x1.7999a5999999ap+0', '0x1.44ba790768c56p+1'),
        ('0x1.a6666e6666666p+0', '0x1.596fc2f76a094p+1'),
        ('0x1.d333373333333p+0', '0x1.6efe94506e881p+1'),
        ('0x1.0000000000000p+1', '0x1.8524c34cb83bdp+1'),
    ],
}


@pytest.mark.parametrize("name, e, resolution, step, trace", TRACES)
def test_prufer_trace_bits(name, e, resolution, step, trace):
    problem = TRACE_PROBLEMS[name]
    got = prufer_trace(problem, e, resolution, step)
    assert [(x.hex(), phi.hex()) for x, phi in got] == trace


@pytest.mark.parametrize("name, trace", LIFT_WALK_TRACES.items())
def test_trace_pins_within_bound_of_lift_walk(name, trace):
    # the same sample positions, and every phase within a relative 1e-12
    pins = next(t[-1] for t in TRACES if t[0] == name)
    assert [x for x, _ in pins] == [x for x, _ in trace]
    for (_, new), (_, old) in zip(pins, trace, strict=True):
        new, old = float.fromhex(new), float.fromhex(old)
        assert abs(new - old) <= 1e-12 * max(1.0, abs(old))


ZERO_POTENTIALS = {
    "piecewise": PiecewisePotential((0.0, 1.5, 3.2, 6.0), (2.0, -1.0, 4.0)),
    "grid": GridPotential(tuple(0.5 * i for i in range(13)),
                          tuple(3.0 * math.cos(0.9 * i) for i in range(13))),
}

# (potential, E, step, zeros, [(theta, class point between the first two
#  zeros, class point between the last two zeros), ...]); the class sought is
# (cos theta, -sin theta), as in the degenerate construction.  These are the
# pins of the two bisections that preceded the ITP crossing refinement (zeros
# to 1e-10 on the sign of u, class points to 1e-12 on the lift), kept as the
# reference that ZEROS is checked against.
BISECTION_ZEROS = [
    ("piecewise", 9.0, DEFAULT_STEP,
     ['0x1.db3990b39611cp-1', '0x1.018ad810e5846p+1', '0x1.80b480b9dcb08p+1',
      '0x1.19754195e5848p+2', '0x1.73602b4a611a8p+2'],
     [(0.7, '0x1.98fecd0356550p+0', '0x1.50ba4849563f2p+2'),
      (2.6, '0x1.6ff7b120856e2p+0', '0x1.3ee4fff9c904cp+2')]),
    ("piecewise", 16.5, StepControl(tol=1e-7),
     ['0x1.31d9567000002p-1', '0x1.6c215a6acd8c2p+0', '0x1.163fd410abe9ap+1',
      '0x1.766014d5c077ap+1', '0x1.e40d07815f4cap+1', '0x1.2ae4f4169cf6bp+2',
      '0x1.63c3646ca0b37p+2'],
     [(0.7, '0x1.11299886f6384p+0', '0x1.4b8ff97611e9fp+2'),
      (2.6, '0x1.effc7fe7cfcdap-1', '0x1.444720f9bfb7ap+2')]),
    ("grid", 9.0, DEFAULT_STEP,
     ['0x1.de38b5894cccdp-1', '0x1.df6f1c97a6668p+0', '0x1.6dbc6b9f39999p+1',
      '0x1.0635a75256666p+2', '0x1.458b7f8b63334p+2'],
     [(0.7, '0x1.7bf5c46f11db6p+0', '0x1.2bf77fca4df90p+2'),
      (2.6, '0x1.5c098dd70440cp+0', '0x1.2311784fa6beap+2')]),
    ("grid", 16.5, StepControl(tol=1e-7),
     ['0x1.3852221f23726p-1', '0x1.5ebb4c2cbd0bep+0', '0x1.0b2593d885e86p+1',
      '0x1.6bfc37b162762p+1', '0x1.d74dc4caccccep+1', '0x1.1f3cf9f9c4ec6p+2',
      '0x1.4dd834f7c4ec4p+2', '0x1.7c478e820bd0ep+2'],
     [(0.7, '0x1.0b401e0c4d540p+0', '0x1.67ae2bd9d5af0p+2'),
      (2.6, '0x1.ebef403ee02a3p-1', '0x1.62d1e7330b2a6p+2')]),
]

# the same outputs from the ITP crossing refinement, to 1e-12 on the lift, on
# grids, and in closed form piece by piece on the piecewise potential
ZEROS = [
    ("piecewise", 9.0, DEFAULT_STEP,
     ['0x1.db3990b373f86p-1', '0x1.018ad810d63d0p+1', '0x1.80b480b9e0babp+1',
      '0x1.19754195e19edp+2', '0x1.73602b4a6530ep+2'],
     [(0.7, '0x1.98fecd0356748p+0', '0x1.50ba484956470p+2'),
      (2.6, '0x1.6ff7b1208572ap+0', '0x1.3ee4fff9c9169p+2')]),
    ("piecewise", 16.5, StepControl(tol=1e-7),
     ['0x1.31d9567001608p-1', '0x1.6c215a6ad9057p+0', '0x1.163fd410b2920p+1',
      '0x1.766014d5d324bp+1', '0x1.e40d07815ad78p+1', '0x1.2ae4f416a50eap+2',
      '0x1.63c3646c9cb17p+2'],
     [(0.7, '0x1.11299886f5dc4p+0', '0x1.4b8ff97611f6dp+2'),
      (2.6, '0x1.effc7fe7d0450p-1', '0x1.444720f9bfa2fp+2')]),
    ("grid", 9.0, DEFAULT_STEP,
     ['0x1.de38b589128b8p-1', '0x1.df6f1c979e90cp+0', '0x1.6dbc6b9f4c239p+1',
      '0x1.0635a7525b11cp+2', '0x1.458b7f8b5c164p+2'],
     [(0.7, '0x1.7bf5c46f11dfap+0', '0x1.2bf77fca4e0a4p+2'),
      (2.6, '0x1.5c098dd704aebp+0', '0x1.2311784fa6e16p+2')]),
    ("grid", 16.5, StepControl(tol=1e-7),
     ['0x1.3852221f39514p-1', '0x1.5ebb4c2d3e90ap+0', '0x1.0b2593d876feap+1',
      '0x1.6bfc37b1553b6p+1', '0x1.d74dc4cae917fp+1', '0x1.1f3cf9f9c873fp+2',
      '0x1.4dd834f7ba194p+2', '0x1.7c478e8217e95p+2'],
     [(0.7, '0x1.0b401e0c751c0p+0', '0x1.67ae2bd9dbad8p+2'),
      (2.6, '0x1.ebef403ef61d2p-1', '0x1.62d1e7330c42ep+2')]),
]


# the piecewise ZEROS as the sampled lift walk gave them, each crossing
# bracketed by samples and refined by ITP; ZEROS solves each piece in closed
# form, and a test checks it against this reference
LIFT_WALK_ZEROS = [
    ("piecewise", 9.0, DEFAULT_STEP,
     ['0x1.db3990b373f89p-1', '0x1.018ad810d63d1p+1', '0x1.80b480b9e0badp+1',
      '0x1.19754195e19edp+2', '0x1.73602b4a6530fp+2'],
     [(0.7, '0x1.98fecd0356749p+0', '0x1.50ba484956470p+2'),
      (2.6, '0x1.6ff7b1208572bp+0', '0x1.3ee4fff9c9328p+2')]),
    ("piecewise", 16.5, StepControl(tol=1e-7),
     ['0x1.31d956700160bp-1', '0x1.6c215a6ad9058p+0', '0x1.163fd410b2922p+1',
      '0x1.766014d5d324ep+1', '0x1.e40d07815ad79p+1', '0x1.2ae4f416a50ecp+2',
      '0x1.63c3646c9cb18p+2'],
     [(0.7, '0x1.11299886f5dc4p+0', '0x1.4b8ff97611f6ep+2'),
      (2.6, '0x1.effc7fe7d1166p-1', '0x1.444720f9bfc3cp+2')]),
]


@pytest.mark.parametrize("name, e, step, zeros, points", ZEROS)
def test_zeros_and_class_points_bits(name, e, step, zeros, points):
    problem = Problem(0.0, 6.0, ZERO_POTENTIALS[name], (), ProjPoint(0.3), ProjPoint(0.0))
    got = zeros_of_eigenfunction(problem, e, step)
    assert [z.hex() for z in got] == zeros
    for theta, first, last in points:
        target = proj_class(math.cos(theta), -math.sin(theta))
        assert find_class_point(problem, e, got[0], got[1], target, step).hex() == first
        assert find_class_point(problem, e, got[-2], got[-1], target, step).hex() == last


def _moves(new, old):
    return [abs(float.fromhex(x) - float.fromhex(y)) for x, y in zip(new, old, strict=True)]


@pytest.mark.parametrize("pins, reference", zip(ZEROS, BISECTION_ZEROS))
def test_zero_pins_within_bound_of_bisection(pins, reference):
    # the exact route moves by less than the tolerances of the bisections
    # (1e-10 for zeros, 1e-12 for class points), the grid route by less than
    # the integration tolerance, since each refinement now propagates from
    # the left sample of its bracket
    name, e, step, zeros, points = pins
    assert reference[:3] == (name, e, step)
    exact = ZERO_POTENTIALS[name].is_piecewise_constant
    zero_bound, point_bound = (1e-10, 1e-12) if exact else (step.tol, step.tol)

    assert max(_moves(zeros, reference[3])) <= zero_bound
    for (theta, *new), (ref_theta, *old) in zip(points, reference[4], strict=True):
        assert theta == ref_theta and max(_moves(new, old)) <= point_bound


@pytest.mark.parametrize("pins, reference", zip(ZEROS, LIFT_WALK_ZEROS))
def test_zero_pins_within_bound_of_lift_walk(pins, reference):
    # the sampled walk refines each crossing to CROSSING_TOL on its lift;
    # the closed form lies within that of it
    name, e, step, zeros, points = pins
    assert reference[:3] == (name, e, step)
    assert ZERO_POTENTIALS[name].is_piecewise_constant

    assert max(_moves(zeros, reference[3])) <= CROSSING_TOL
    for (theta, *new), (ref_theta, *old) in zip(points, reference[4], strict=True):
        assert theta == ref_theta and max(_moves(new, old)) <= CROSSING_TOL
