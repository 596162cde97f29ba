"""Spectra of one-dimensional Sturm-Liouville operators with SL(2,R) point interactions.

The library propagates solutions of -u'' + V u = E u across an interval,
applies prescribed SL(2,R) jumps of the solution data (u, u') at interior
points, and decides eigenvalue membership by comparing projective boundary
angles.  On top of that it classifies how eigenvalues respond to varying one
Iwasawa parameter of a jump matrix, runs Monte Carlo campaigns over random
interaction parameters, and constructs the degenerate point configurations
for which a chosen energy survives every realization.
"""

from .sl2 import (
    Mat2,
    IwasawaParams,
    ProjPoint,
    NonUnimodular,
    InvalidDilation,
    ZeroVector,
    iwasawa_compose,
    iwasawa_decompose,
    proj_class,
    proj_apply,
    r_fixed_classes,
    alpha_fixed_class,
)
from .transfer import (
    ConstantPotential,
    PiecewisePotential,
    GridPotential,
    SolutionState,
    StepControl,
    DEFAULT_STEP,
    IntegrationFailure,
    DomainError,
    transfer_matrix,
    propagate_state,
    potential_from_json,
    potential_to_json,
)
from .problem import (
    PointInteraction,
    Problem,
    PropagationResult,
    propagate_through,
    prufer_trace,
    with_site_params,
    problem_from_json,
    problem_to_json,
)
from .spectra import (
    EigenReport,
    DichotomyVerdict,
    NotAnEigenvalue,
    eigen_test,
    matching_gamma,
    boundary_mismatch,
    eigenvalues_in_range,
    classify_dichotomy,
)
from .random import (
    Uniform,
    Gaussian,
    PointMass,
    Ensemble,
    MonteCarloReport,
    UnsupportedSupport,
    InsufficientOscillation,
    NotUnperturbedEigenvalue,
    TargetNotBracketed,
    sample_realization,
    mismatch_samples,
    monte_carlo,
    zeros_of_eigenfunction,
    find_class_point,
    construct_degenerate,
    ensemble_from_json,
    ensemble_to_json,
    report_to_json,
)

__version__ = "0.1.0"
