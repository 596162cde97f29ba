"""Bit-level pins of both propagation routes: float.hex of fixed outputs.

The propagation values were produced by the separate matrix and state
integrators that preceded the shared propagation walker, and the eigenvalue
scans by the one-energy-at-a-time scan that preceded the batched lanes.  Any
change in the order of the floating-point operations on either route shows
up here as a changed bit.
"""

import math

import pytest

from slspec.problem import PointInteraction, Problem
from slspec.sl2 import IwasawaParams, ProjPoint
from slspec.spectra import eigenvalues_in_range
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
     ('-0x1.14aca66ac0ff2p-1', '0x1.84135e0f1f40bp-2', '-0x1.e848512290c96p+0', '-0x1.06987234f5c10p-1'),
     ('-0x1.7b723dfbb3f5fp-1', '-0x1.29157d5503ac3p-1')),
    (GRID, 0.05, 0.95, 6.0, DEFAULT_STEP,
     ('-0x1.06987234f5c15p-1', '-0x1.84135e0f1f404p-2', '0x1.e848512290c98p+0', '-0x1.14aca66ac0fecp-1'),
     ('0x1.bf1313445448cp-4', '0x1.bd23f29c41048p+0')),
    (GRID, 0.9, 0.0, -2.0, DEFAULT_STEP,
     ('0x1.0747b487d20f6p+1', '0x1.3ff6e6c5e30bep+0', '0x1.6ccfda210cb7dp+1', '0x1.1be88b30b235ap+1'),
     ('-0x1.2032c34f20a45p-3', '-0x1.75a5f286f1992p-1')),
    (GRID, 1.0, 0.0, 30.0, HALVING,
     ('0x1.585bde7f0a80ep-1', '-0x1.139f0fb11be49p-3', '0x1.0574e15b18bdbp+2', '0x1.56b7cfe7a03d1p-1'),
     ('0x1.1a694369bac5ep-1', '0x1.b700374e700c7p+0')),
    (GRID, 0.0, 1.0, 30.0, HALVING,
     ('0x1.56b7cfe7a03d8p-1', '0x1.139f0fb11be4dp-3', '-0x1.0574e15b18bdcp+2', '0x1.585bde7f0a80cp-1'),
     ('0x1.03ab7883fb754p-2', '-0x1.9872537f56b92p+1')),
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

# (e_lo, e_hi, grid, bisection tol, step, [(E, mismatch), ...])
SCANS = [
    (-5.0, 60.0, 10, 1e-10, DEFAULT_STEP,
     [('0x1.1c71c71c63556p+1', '0x1.be1c6a35ed24cp-1'),
      ('0x1.1df82fa6610e3p+3', '0x1.b338000000000p-41'),
      ('0x1.a1c71c71c3801p+3', '0x1.09c41dea59f2ep+0')]),
    (5.0, 30.0, 6, 1e-8, HALVING,
     [('0x1.1df8300680000p+3', '0x1.1bfb840000000p-32'),
      ('0x1.8ffffffd80000p+3', '0x1.3df4c86a6b503p+0')]),
    (20.0, 140.0, 8, 1e-9, StepControl(tol=1e-7),
     [('0x1.f4ce04ca10924p+6', '0x1.1aa5000000000p-38')]),
]


@pytest.mark.parametrize("e_lo, e_hi, grid, tol, step, found", SCANS)
def test_eigenvalues_in_range_bits(e_lo, e_hi, grid, tol, step, found):
    reports = eigenvalues_in_range(SCAN_PROBLEM, e_lo, e_hi, grid, tol, step)
    assert [(r.E.hex(), r.mismatch.hex()) for r in reports] == found
