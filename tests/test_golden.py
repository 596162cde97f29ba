"""Bit-level pins of both propagation routes: float.hex of fixed outputs.

The exact-route propagation values were produced by the separate matrix and
state integrators that preceded the shared propagation walker, the Monte
Carlo draws by one Philox generator per (sample, site), which preceded the
vectorized per-site draws, and the piecewise Pruefer traces, zeros and
class points by the three sampling loops that preceded the one lift walk.
Any change in the order of the floating-point operations on either route
shows up here as a changed bit.

The RK4 (grid) values are pinned from the step-matrix kernel, which
multiplies each pass's step matrices as a pairwise tree instead of stepping
(u, u') one step at a time.  They were re-pinned only within a stated bound
of the sequential loop's pins: every matrix entry, state entry and Pruefer
phase within a relative 1e-12 (of max(1, |value|)), every eigenvalue within
the scan's bisection tol, and every mismatch within 1e-12.  The largest
moves were 4.7e-15 relative (entries), 0 (eigenvalues: all bits kept) and
4.5e-16 (mismatches and phases).  The grid zeros and class points kept
every bit.  tests/test_rk4_kernel.py checks the kernel against a copy of
the sequential loop, which reproduces the old pins bit for bit.

The scan pins come from the ITP root refinement.  Each scan first passes
tests/conftest.py's check against the bisection it replaced: in every
grid cell at most one evaluation more, and every genuine root within the
scan's tol of bisection's.  In a cell with a wrap-around and no root the
reported point is wherever the trial path meets the wrap, so it is only
bounded by its cell: two of the three such pins below (mismatch 0.59 and
1.25) moved from bisection's 13.06 and 12.49999999534 to 16.67 and 12.48.
"""

import math

import pytest

from slspec.problem import PointInteraction, Problem, prufer_trace
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
     ('-0x1.14aca66ac0ff4p-1', '0x1.84135e0f1f40dp-2', '-0x1.e848512290c93p+0', '-0x1.06987234f5c0ep-1'),
     ('-0x1.7b723dfbb3f6cp-1', '-0x1.29157d5503ab5p-1')),
    (GRID, 0.05, 0.95, 6.0, DEFAULT_STEP,
     ('-0x1.06987234f5c11p-1', '-0x1.84135e0f1f410p-2', '0x1.e848512290c92p+0', '-0x1.14aca66ac0ff6p-1'),
     ('0x1.bf131344544c4p-4', '0x1.bd23f29c41052p+0')),
    (GRID, 0.9, 0.0, -2.0, DEFAULT_STEP,
     ('0x1.0747b487d20e8p+1', '0x1.3ff6e6c5e30acp+0', '0x1.6ccfda210cb69p+1', '0x1.1be88b30b2345p+1'),
     ('-0x1.2032c34f20a08p-3', '-0x1.75a5f286f1968p-1')),
    (GRID, 1.0, 0.0, 30.0, HALVING,
     ('0x1.585bde7f0a807p-1', '-0x1.139f0fb11be50p-3', '0x1.0574e15b18bdbp+2', '0x1.56b7cfe7a03d5p-1'),
     ('0x1.1a694369bac5ap-1', '0x1.b700374e700bep+0')),
    (GRID, 0.0, 1.0, 30.0, HALVING,
     ('0x1.56b7cfe7a03d2p-1', '0x1.139f0fb11be50p-3', '-0x1.0574e15b18bdbp+2', '0x1.585bde7f0a805p-1'),
     ('0x1.03ab7883fb754p-2', '-0x1.9872537f56b98p+1')),
]


@pytest.mark.parametrize("v, x, y, e, step, matrix, state", CASES)
def test_transfer_matrix_bits(v, x, y, e, step, matrix, state):
    m = transfer_matrix(v, x, y, e, step)
    assert tuple(t.hex() for t in m.entries()) == matrix


@pytest.mark.parametrize("v, x, y, e, step, matrix, state", CASES)
def test_propagate_state_bits(v, x, y, e, step, matrix, state):
    s = propagate_state(v, SolutionState(y, 0.6, -1.1), x, e, step)
    assert (s.u.hex(), s.du.hex()) == state


# a grid potential with two jumps; every scan mixes genuine eigenvalues with
# sign changes across the cut, which the scan reports with a large mismatch
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
     [('0x1.1c71c71c63556p+1', '0x1.be1c6a35ed250p-1'),
      ('0x1.1df82fa66085ap+3', '0x1.0000000000000p-54'),
      ('0x1.0aaaaaaaa8608p+4', '0x1.2db90e9883168p-1')]),
    (5.0, 30.0, 6, 1e-8, HALVING,
     [('0x1.1df83007322fcp+3', '0x1.e000000000000p-51'),
      ('0x1.8f643c33668a2p+3', '0x1.40294a51e95a5p+0')]),
    (20.0, 140.0, 8, 1e-9, StepControl(tol=1e-7),
     [('0x1.f4ce04ca0cedfp+6', '0x1.8000000000000p-53')]),
]


@pytest.mark.parametrize("e_lo, e_hi, grid, tol, step, found", SCANS)
def test_eigenvalues_in_range_bits(bisection_bound, e_lo, e_hi, grid, tol, step, found):
    reports = bisection_bound(SCAN_PROBLEM, e_lo, e_hi, grid, tol, step)
    assert [(r.E.hex(), r.mismatch.hex()) for r in reports] == found


# uniform, gaussian and point-mass sites under each target; site 0 of the r
# ensemble rejects nonpositive gaussian draws (2, 0, 5, 1 and 2 times at the
# indices below), and the key of the first ensemble is near the top of its range
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
    ("lambda", 0, ('0x1.703de4f06ce00p+0', '0x1.663163d846968p-5', '0x1.0000000000000p-2')),
    ("lambda", 1, ('0x1.80952c96ea2acp+0', '-0x1.a79493dc70022p+0', '0x1.0000000000000p-2')),
    ("lambda", 511, ('-0x1.0ba5f787d5289p-1', '0x1.7597ca10418b4p-1', '0x1.0000000000000p-2')),
    ("lambda", 512, ('-0x1.65482f46f6424p-2', '-0x1.561ec8a28f670p-2', '0x1.0000000000000p-2')),
    ("lambda", 10 ** 6, ('0x1.76e247d997198p-3', '0x1.67d68753f67c6p+1', '0x1.0000000000000p-2')),
    ("r", 0, ('0x1.13845a81fd595p+0', '0x1.1f3ed53e3e3aep-1', '0x1.8000000000000p+0')),
    ("r", 1, ('0x1.0d0bd260b2618p+0', '0x1.8919d06f7a8d8p+0', '0x1.8000000000000p+0')),
    ("r", 511, ('0x1.8b9a7fbcb045ap-2', '0x1.0c3c8c128bd8ap+0', '0x1.8000000000000p+0')),
    ("r", 512, ('0x1.8b9a7fbcb045ap-2', '0x1.133dcdd3af624p-1', '0x1.8000000000000p+0')),
    ("r", 10 ** 6, ('0x1.d1fb4552459e6p+0', '0x1.105415fce62cbp+0', '0x1.8000000000000p+0')),
    ("theta", 0, ('-0x1.389c2e05e9c3ep+3', '0x1.fa852d6e454f5p+2', '0x1.c000000000000p+2')),
    ("theta", 1, ('0x1.85dfd6548fc00p-5', '0x1.ac3fb86e893aap+2', '0x1.c000000000000p+2')),
    ("theta", 511, ('0x1.b2f87ef960288p+1', '0x1.0185d286b365cp+1', '0x1.c000000000000p+2')),
    ("theta", 512, ('-0x1.2f2ce1ecbff56p+3', '0x1.08516dde37ce6p+2', '0x1.c000000000000p+2')),
    ("theta", 10 ** 6, ('-0x1.e902d3563e3b0p+0', '-0x1.c3acdc836a300p-3', '0x1.c000000000000p+2')),
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
      ('0x1.0000000000000p+1', '0x1.8524c34cb83bdp+1')]),
    ("grid", 0.3, 0.15, StepControl(tol=1e-6),
     [('0x0.0p+0', '0x0.0p+0'),
      ('0x1.3333333333333p-3', '0x1.3123181a8456ap-3'),
      ('0x1.3333333333333p-2', '0x1.2a25b210abe42p-2'),
      ('0x1.cccccccccccccp-2', '0x1.afbde9a4952e8p-2'),
      ('0x1.3333333333333p-1', '0x1.161a7630850b5p-1'),
      ('0x1.3333333333333p-1', '0x1.abbc3dda3186dp-1'),
      ('0x1.7777777777777p-1', '0x1.d6cd33217dd24p-1'),
      ('0x1.bbbbbbbbbbbbcp-1', '0x1.0409fa487c314p+0'),
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


@pytest.mark.parametrize("name, e, resolution, step, trace", TRACES)
def test_prufer_trace_bits(name, e, resolution, step, trace):
    problem = TRACE_PROBLEMS[name]
    got = prufer_trace(problem, e, resolution, step)
    assert [(x.hex(), phi.hex()) for x, phi in got] == trace


ZERO_POTENTIALS = {
    "piecewise": PiecewisePotential((0.0, 1.5, 3.2, 6.0), (2.0, -1.0, 4.0)),
    "grid": GridPotential(tuple(0.5 * i for i in range(13)),
                          tuple(3.0 * math.cos(0.9 * i) for i in range(13))),
}

# (potential, E, step, zeros, [(theta, class point between the first two
#  zeros, class point between the last two zeros), ...]); the class sought is
# (cos theta, -sin theta), as in the degenerate construction
ZEROS = [
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


@pytest.mark.parametrize("name, e, step, zeros, points", ZEROS)
def test_zeros_and_class_points_bits(name, e, step, zeros, points):
    problem = Problem(0.0, 6.0, ZERO_POTENTIALS[name], (), ProjPoint(0.3), ProjPoint(0.0))
    got = zeros_of_eigenfunction(problem, e, step)
    assert [z.hex() for z in got] == zeros
    for theta, first, last in points:
        target = proj_class(math.cos(theta), -math.sin(theta))
        assert find_class_point(problem, e, got[0], got[1], target, step).hex() == first
        assert find_class_point(problem, e, got[-2], got[-1], target, step).hex() == last
