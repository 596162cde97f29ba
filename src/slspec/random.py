"""Random interaction ensembles, Monte Carlo hit rates, and degenerate point sets.

Sites draw independently (a product measure over sites); each draw is a pure
function of (seed, sample index, site index) through a counter-based Philox
stream, so samples can be evaluated in any order or in parallel and still
reproduce bit-exactly.

Monte Carlo evaluates a chunk of samples as one walk at its fixed energy,
one lane per sample (spectra.realized_mismatches, with the lambda target as
the alpha field).  A site's draws for the whole chunk come from one vector
call, the smooth pieces between sites are shared by every lane, and only
the jump matrices differ; each lane's mismatch has the bits of eigen_test on
that sample's realized problem.

The degenerate construction places one site between consecutive zeros of the
unperturbed eigenfunction, at the point where the solution's class equals
(cos theta, -sin theta): every shear then maps that class to (1, 0) scaled by
r, so the jump output cannot see the shear value at all.  Zeros and class
points are the first upward crossings of the Pruefer lift through a goal
angle plus k pi.  On piecewise-constant potentials each piece gives them in
closed form (problem._Piece.rise), so a walk needs one propagate_state at
most, to its start; on grids the lift is sampled by problem._lift_walk and
each crossing refined by the scan's ITP routine spectra.refine_root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .fields import check_keys, is_integer, items, number, tagged, to_tagged
from .problem import (
    PointInteraction,
    Problem,
    _continue_lift,
    _lift_walk,
    _normalized,
    _pieces,
)
from .sl2 import InvalidDilation, IwasawaParams, NumericalFailure, ProjPoint, proj_class
from .spectra import eigen_test, realized_mismatches, refine_root
from .transfer import DEFAULT_STEP, StepControl, propagate_state

TARGETS = ("lambda", "r", "theta")
_REJECTION_CAP = 64
_CHUNK = 512
# the largest unperturbed mismatch at which construct_degenerate accepts E
EIGEN_TOL = 1e-6

DEFAULT_QUANTILES = (0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0)


class UnsupportedSupport(NumericalFailure, ValueError):
    """An r-target draw stayed nonpositive past the rejection cap."""


class InsufficientOscillation(NumericalFailure, ValueError):
    """Too few interior zeros for the requested number of sites."""

    def __init__(self, message, zeros_found):
        super().__init__(message)
        self.zeros_found = zeros_found


class NotUnperturbedEigenvalue(NumericalFailure, ValueError):
    """The construction requires E to be an eigenvalue of the jump-free problem."""


class TargetNotBracketed(NumericalFailure, ValueError):
    """t1, t2 are not consecutive zeros of the propagated solution."""


# -------------------------------------------------------------- distributions

@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"uniform needs lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class Gaussian:
    mean: float
    sd: float

    def __post_init__(self):
        if not self.sd > 0.0:
            raise ValueError(f"gaussian needs sd > 0, got {self.sd}")

    def sample(self, rng):
        return self.mean + self.sd * rng.standard_normal()


@dataclass(frozen=True)
class PointMass:
    value: float


DISTRIBUTION_KINDS = {"uniform": (Uniform, ("lo", "hi")), "gaussian": (Gaussian, ("mean", "sd")),
                      "pointmass": (PointMass, ("value",))}


def distribution_to_json(d) -> dict:
    return to_tagged(d, DISTRIBUTION_KINDS, "site distribution")


def distribution_from_json(obj, where=""):
    """The site distribution of a JSON object; where is its path in the document, for errors."""
    cls, keys = tagged(obj, where, DISTRIBUTION_KINDS)
    return cls(*(number(obj, key, where) for key in keys))


@dataclass(frozen=True)
class Ensemble:
    """Independent per-site distributions over one interaction parameter."""

    target: str
    sites: tuple
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(self.sites))
        if self.target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}")
        if not self.sites:
            raise ValueError("ensemble needs at least one site")
        if not is_integer(self.seed) or not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.target == "r":
            for i, d in enumerate(self.sites):
                if isinstance(d, Uniform) and d.lo <= 0.0:
                    raise ValueError(f"site {i}: r-target uniform support must be positive")
                if isinstance(d, PointMass) and not d.value > 0.0:
                    raise InvalidDilation(f"site {i}: r-target point mass must be positive")


def ensemble_to_json(e: Ensemble) -> dict:
    return {"target": e.target,
            "sites": [distribution_to_json(d) for d in e.sites],
            "seed": e.seed}


def ensemble_from_json(obj) -> Ensemble:
    check_keys(obj, "", {"target", "sites", "seed"})
    return Ensemble(obj["target"],
                    tuple(distribution_from_json(d, f"sites[{i}]")
                          for i, d in enumerate(items(obj, "sites", ""))),
                    obj["seed"])


# ------------------------------------------------------------------- sampling

def _site_rng(seed, sample_index, site_index):
    """The generator of one sample's Gaussian draw at one site.

    Its blocks [1, i, k, 1], [2, i, k, 1], ... share no word with another
    sample's, nor with the uniform words at [i + 1, k, 0, 0].
    """
    return np.random.Generator(
        np.random.Philox(key=seed, counter=[0, sample_index, site_index, 1]))


def _draws(ensemble: Ensemble, lo: int, hi: int):
    """The draws of samples lo..hi-1, one array of hi - lo values per site.

    A uniform draw of sample i at site k is the first word of the Philox
    block at counter [i + 1, k, 0, 0], so every fourth word of one stream
    started at [lo, k, 0, 0] gives the words of samples lo, lo + 1, ...,
    which become numpy's uniform bit for bit.  Gaussian draws (ziggurat, and
    the r-target rejection loop) take a varying number of words and keep one
    generator per sample, _site_rng, whose counter domain is disjoint from
    every other sample's, so draws of consecutive samples share no word.
    """
    n = hi - lo
    cols, rejected = [], []
    for k, dist in enumerate(ensemble.sites):
        if isinstance(dist, PointMass):
            cols.append(np.full(n, dist.value))
        elif isinstance(dist, Uniform):
            span = dist.hi - dist.lo
            if not math.isfinite(span):
                raise OverflowError("high - low range exceeds valid bounds")
            bits = np.random.Philox(key=ensemble.seed,
                                    counter=[lo, k, 0, 0]).random_raw(4 * n)[::4]
            cols.append(dist.lo + span * ((bits >> 11) * 2.0 ** -53))
        else:
            col = []
            for i in range(lo, hi):
                rng = _site_rng(ensemble.seed, i, k)
                value = dist.sample(rng)
                if ensemble.target == "r":
                    tries = 0
                    while value <= 0.0 and tries < _REJECTION_CAP:
                        value = dist.sample(rng)
                        tries += 1
                    if value <= 0.0:
                        rejected.append((i, k))
                col.append(value)
            cols.append(np.array(col))
    if rejected:
        # the first sample's first site, as a sample-by-sample draw meets it
        raise UnsupportedSupport(
            f"site {min(rejected)[1]}: no positive draw in {_REJECTION_CAP} tries")
    return cols


def sample_realization(ensemble: Ensemble, sample_index: int):
    """One joint draw, a pure function of (seed, sample_index, site index).

    It is the one-sample slice of the draws Monte Carlo makes for a chunk.
    """
    if sample_index < 0:
        raise ValueError("sample_index must be nonnegative")
    return tuple(float(col[0]) for col in _draws(ensemble, sample_index, sample_index + 1))


def _mc_chunk(args):
    """The mismatches of samples lo..hi-1, evaluated as one batch of lanes; None for a failure.

    A numerical failure (any ArithmeticError, an overflowed walk included)
    in any lane fails the batch; the chunk is then evaluated one sample at
    a time, so the failures are counted per sample.
    """
    problem, e, ensemble, lo, hi, step = args
    draws = _draws(ensemble, lo, hi)
    field = "alpha" if ensemble.target == "lambda" else ensemble.target
    try:
        return realized_mismatches(problem, e, field, draws, step)
    except ArithmeticError:
        pass
    results = []
    for j in range(hi - lo):
        try:
            results += realized_mismatches(problem, e, field, [c[j:j + 1] for c in draws], step)
        except ArithmeticError:
            results.append(None)
    return results


@dataclass(frozen=True)
class MonteCarloReport:
    """Hit count at threshold epsilon plus the mismatch distribution."""

    samples: int
    hits: int
    epsilon: float
    mismatch_quantiles: tuple
    seed: int
    failures: int = 0


def report_to_json(r: MonteCarloReport) -> dict:
    return {"samples": r.samples, "hits": r.hits, "epsilon": r.epsilon,
            "seed": r.seed, "failures": r.failures,
            "mismatch_quantiles": [[q, v] for q, v in r.mismatch_quantiles]}


def mismatch_samples(problem: Problem, e: float, ensemble: Ensemble,
                     n_samples: int, step: StepControl = DEFAULT_STEP,
                     workers: int = 1):
    """Mismatches of all realizations in sample order, plus the failure count.

    Samples are evaluated in fixed-size chunks whose composition does not
    depend on the worker count, so the output is bit-identical however the
    work is scheduled.  Each chunk is one walk at the fixed energy e with
    one lane per sample: its draws come site by site in one vector call,
    the smooth pieces are shared by all lanes, and only the jump at each
    site differs.  Every mismatch equals eigen_test on that sample's
    realized problem bit for bit.  A chunk whose walk fails, an overflowed
    one included, is walked again one sample at a time, and each failing
    sample counts as one failure, never as a mismatch.
    """
    if len(ensemble.sites) != len(problem.interactions):
        raise ValueError(f"ensemble has {len(ensemble.sites)} sites, problem has "
                         f"{len(problem.interactions)} interactions")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    chunks = [(problem, e, ensemble, lo, min(lo + _CHUNK, n_samples), step)
              for lo in range(0, n_samples, _CHUNK)]
    if workers > 1:
        # imported here, so that importing slspec does not load it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk_results = list(pool.map(_mc_chunk, chunks))
    else:
        chunk_results = [_mc_chunk(c) for c in chunks]
    results = [m for chunk in chunk_results for m in chunk]
    mismatches = [m for m in results if m is not None]
    return mismatches, len(results) - len(mismatches)


def check_epsilon(epsilon: float, name: str = "epsilon") -> float:
    """epsilon, once it is a positive hit threshold; name is its name in messages.

    Monte Carlo runs check it before drawing any sample.
    """
    if not epsilon > 0.0:
        raise ValueError(f"{name} must be positive")
    return epsilon


def summarize_mismatches(mismatches, failures: int, epsilon: float,
                         seed: int) -> MonteCarloReport:
    """Hit count at epsilon and DEFAULT_QUANTILES of one run's mismatches."""
    arr = np.sort(np.asarray(mismatches, dtype=float))
    hits = int(np.count_nonzero(arr <= epsilon))
    qs = ()
    if arr.size:
        qs = tuple(zip(DEFAULT_QUANTILES, np.quantile(arr, DEFAULT_QUANTILES).tolist()))
    return MonteCarloReport(samples=len(mismatches) + failures, hits=hits,
                            epsilon=epsilon, mismatch_quantiles=qs, seed=seed,
                            failures=failures)


def monte_carlo(problem: Problem, e: float, ensemble: Ensemble, n_samples: int,
                epsilon: float, step: StepControl = DEFAULT_STEP,
                workers: int = 1) -> MonteCarloReport:
    """Substitute each realization into the problem and count near-eigenvalues.

    Propagation failures are counted separately, never as hits.  The report
    is a pure function of (problem, ensemble, n_samples, epsilon); the worker
    count only changes how the fixed-size sample chunks are scheduled.
    """
    check_epsilon(epsilon)
    mismatches, failures = mismatch_samples(problem, e, ensemble, n_samples,
                                            step, workers)
    return summarize_mismatches(mismatches, failures, epsilon, ensemble.seed)


# ------------------------------------------------------- oscillation machinery

# the width to which eigenfunction zeros and class points are refined
CROSSING_TOL = 1e-12


def _sampled_rises(v, state, goal, x_stop, e, step):
    """Each x in (state.x, x_stop] where the Pruefer lift rises through goal + k pi.

    The lift starts at the phase of state, below goal.  Each crossing is
    bracketed between two samples of _lift_walk (0.45 apart in lift at most)
    and refined by refine_root on lift(x) - goal, each evaluation propagating
    from the bracket's left sample.
    """
    xa, la = state.x, math.atan2(state.u, state.du)
    for xb, sb, lb in _lift_walk(v, state, la, x_stop, e, step):
        if lb >= goal:
            def f(x, sa=state, la=la, goal=goal):
                s = propagate_state(v, sa, x, e, step)
                return _continue_lift(la, math.atan2(s.u, s.du)) - goal

            yield xb if lb == goal else refine_root(f, xa, xb, la - goal, lb - goal,
                                                    CROSSING_TOL)
            goal += math.pi
        xa, state, la = xb, sb, lb


def _piece_rises(v, state, goal, x_stop, e):
    """_sampled_rises's crossings over a piecewise-constant v, piece by piece in closed form."""
    for piece in _pieces(v, state, math.atan2(state.u, state.du), x_stop, e):
        while (t := piece.rise(goal)) <= piece.q - piece.p:
            yield min(piece.p + t, piece.q)
            goal += math.pi


def _rises(v, state, goal, x_stop, e, step):
    """Where the lift first reaches goal, goal + pi, ... in turn, from state.x to x_stop.

    The route follows the potential's kind: closed form on piecewise-constant
    potentials, the sampled walk on grids.
    """
    if v.is_piecewise_constant:
        return _piece_rises(v, state, goal, x_stop, e)
    return _sampled_rises(v, state, goal, x_stop, e, step)


def _interior_zeros(problem: Problem, e: float, step: StepControl):
    """The zeros of zeros_of_eigenfunction, one at a time."""
    if problem.interactions:
        raise ValueError("zeros are computed on the interaction-free problem")
    a, b = problem.a, problem.b
    state = _normalized(problem.initial_state())
    first = math.pi * (math.floor(math.atan2(state.u, state.du) / math.pi) + 1)
    margin = 1e-7 * (b - a) + 1e-12
    for z in _rises(problem.potential, state, first, b, e, step):
        if z >= b - margin:
            return
        if z > a + margin:
            yield z


def zeros_of_eigenfunction(problem: Problem, e: float,
                           step: StepControl = DEFAULT_STEP):
    """Interior zeros of the left-admissible solution of a jump-free problem.

    Zeros are where the Pruefer lift rises through a multiple of pi (at a
    zero it moves at unit speed, so it never falls back through one).  On
    piecewise-constant potentials each piece gives its zeros in closed form;
    on grids the sampled lift walk brackets them and refine_root refines
    them to CROSSING_TOL.  More than step.max_steps zeros is a ValueError,
    as a walk of more samples is.
    """
    zeros = list(islice(_interior_zeros(problem, e, step), step.max_steps + 1))
    if len(zeros) > step.max_steps:
        raise ValueError(f"E = {e!r} gives more than step.max_steps = {step.max_steps} zeros")
    return zeros


def find_class_point(problem: Problem, e: float, t1: float, t2: float,
                     target: ProjPoint, step: StepControl = DEFAULT_STEP) -> float:
    """The x in [t1, t2) where the solution's class equals target.

    Between consecutive zeros the lift rises by exactly pi, so each class is
    attained; this is the first rise of the lift through the target's angle.
    The walk propagates once, to t1; on piecewise-constant potentials the
    rise then comes in closed form, piece by piece, and on grids from the
    sampled lift walk, refined to CROSSING_TOL.
    """
    if problem.interactions:
        raise ValueError("class points are located on the interaction-free problem")
    if not problem.a <= t1 < t2 <= problem.b:
        raise ValueError(f"need a <= t1 < t2 <= b, got [{t1}, {t2}]")
    state = _normalized(propagate_state(problem.potential, problem.initial_state(), t1, e, step))
    if abs(state.u) > 1e-6:
        raise TargetNotBracketed(f"u(t1) = {state.u:.3e}, t1 is not a zero")
    phi1 = math.atan2(state.u, state.du)
    base = math.pi * round(phi1 / math.pi)
    offset = (target.angle - base) % math.pi
    if offset < 1e-9 or math.pi - offset < 1e-9 or phi1 >= base + offset:
        return t1  # the zero class itself, or a class already passed at t1
    for x in _rises(problem.potential, state, base + offset, t2, e, step):
        return x
    raise TargetNotBracketed("the lift stays below the target over [t1, t2); "
                             "are t1, t2 consecutive zeros?")


def construct_degenerate(v, e: float, thetas, rs, a: float, b: float,
                         bc_left: ProjPoint, bc_right: ProjPoint,
                         step: StepControl = DEFAULT_STEP,
                         allow_non_eigenvalue: bool = False) -> Problem:
    """Place sites so that the shear value at every site cannot affect the data.

    Site i goes between consecutive zeros t_{i-1}, t_i of the unperturbed
    eigenfunction, at the point where its class is (cos theta_i, -sin theta_i);
    the jump sends that class to r_i * (1, 0) for every shear value.  E must
    be an eigenvalue of the jump-free problem; allow_non_eigenvalue skips the
    gate for exploration, in which case nothing guarantees the right boundary
    match and eigen_test reports the residual mismatch.  A walk that
    overflows is a numerical failure either way (FloatingPointError, from
    eigen_test).  Every site's parameters are built, and each r checked,
    before any walk.  Only the first len(thetas) + 1 interior zeros are located.
    """
    thetas = list(thetas)
    rs = list(rs)
    if not thetas or len(thetas) != len(rs):
        raise ValueError("need matching nonempty theta and r lists")
    params = [IwasawaParams(0.0, r, theta) for theta, r in zip(thetas, rs)]
    base = Problem(a, b, v, (), bc_left, bc_right)
    rep = eigen_test(base, e, step)
    if rep.mismatch > EIGEN_TOL and not allow_non_eigenvalue:
        raise NotUnperturbedEigenvalue(
            f"E = {e} has unperturbed mismatch {rep.mismatch:.3e} > {EIGEN_TOL}")
    need = len(thetas) + 1
    zeros = list(islice(_interior_zeros(base, e, step), need))
    if len(zeros) < need:
        # endpoint zeros are consecutive-zero partners too; fall back on them
        # when the interior ones do not suffice
        if base.initial_state().u == 0.0:
            zeros = [a] + zeros
        if len(zeros) < need:
            tail = _normalized(propagate_state(v, base.initial_state(), b, e, step))
            if abs(tail.u) <= 1e-6:
                zeros = zeros + [b]
    if len(zeros) < need:
        raise InsufficientOscillation(
            f"found {len(zeros)} usable zeros, need {need}",
            zeros_found=len(zeros))
    sites = []
    for i, (theta, site_params) in enumerate(zip(thetas, params)):
        target = proj_class(math.cos(theta), -math.sin(theta))
        x_i = find_class_point(base, e, zeros[i], zeros[i + 1], target, step)
        if x_i <= a:
            raise InsufficientOscillation(
                f"site {i} lands on the endpoint {a}; theta = {theta} needs an "
                f"interior zero gap", zeros_found=len(zeros))
        sites.append(PointInteraction(x_i, site_params))
    return Problem(a, b, v, tuple(sites), bc_left, bc_right)
