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
r, so the jump output cannot see the shear value at all.  The zeros and the
class points are bracketed on the sampled Pruefer lift of problem._lift_walk,
which prufer_trace uses too, and then refined by bisection.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .problem import PointInteraction, Problem, _continue_lift, _lift_walk, _normalized
from .sl2 import InvalidDilation, IwasawaParams, ProjPoint, proj_class
from .spectra import eigen_test, realized_mismatches
from .transfer import DEFAULT_STEP, StepControl, finite_numbers, propagate_state

TARGETS = ("lambda", "r", "theta")
_REJECTION_CAP = 64
_CHUNK = 512
# the largest unperturbed mismatch at which construct_degenerate accepts E
EIGEN_TOL = 1e-6

DEFAULT_QUANTILES = (0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0)


class UnsupportedSupport(ValueError):
    """An r-target draw stayed nonpositive past the rejection cap."""


class InsufficientOscillation(ValueError):
    """Too few interior zeros for the requested number of sites."""

    def __init__(self, message, zeros_found):
        super().__init__(message)
        self.zeros_found = zeros_found


class NotUnperturbedEigenvalue(ValueError):
    """The construction requires E to be an eigenvalue of the jump-free problem."""


class TargetNotBracketed(ValueError):
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


SiteDistribution = Uniform | Gaussian | PointMass


def distribution_to_json(d) -> dict:
    if isinstance(d, Uniform):
        return {"kind": "uniform", "lo": d.lo, "hi": d.hi}
    if isinstance(d, Gaussian):
        return {"kind": "gaussian", "mean": d.mean, "sd": d.sd}
    if isinstance(d, PointMass):
        return {"kind": "pointmass", "value": d.value}
    raise TypeError(f"not a site distribution: {d!r}")


def distribution_from_json(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("site distribution must be an object with a 'kind' field")
    kind = obj["kind"]
    kinds = {"uniform": (Uniform, ("lo", "hi")),
             "gaussian": (Gaussian, ("mean", "sd")),
             "pointmass": (PointMass, ("value",))}
    if kind not in kinds:
        raise ValueError(f"unknown distribution kind {kind!r}")
    cls, keys = kinds[kind]
    if set(obj) != {"kind", *keys}:
        raise ValueError(f"distribution kind {kind!r} takes exactly the keys "
                         f"{sorted(('kind',) + keys)}")
    return cls(*finite_numbers([obj[key] for key in keys], f"distribution {kind} numbers"))


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
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2 ** 64:
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
    if not isinstance(obj, dict) or set(obj) != {"target", "sites", "seed"}:
        raise ValueError("ensemble takes exactly the keys target, sites, seed")
    if not isinstance(obj["sites"], list):
        raise ValueError("ensemble sites must be a list")
    if not isinstance(obj["seed"], int):
        raise ValueError("ensemble seed must be an integer")
    return Ensemble(obj["target"],
                    tuple(distribution_from_json(d) for d in obj["sites"]),
                    obj["seed"])


# ------------------------------------------------------------------- sampling

def _site_rng(seed, sample_index, site_index):
    return np.random.Generator(
        np.random.Philox(key=seed, counter=[sample_index, site_index, 0, 0]))


def _draws(ensemble: Ensemble, lo: int, hi: int):
    """The draws of samples lo..hi-1, one array of hi - lo values per site.

    Sample i draws site k from Philox(key=seed, counter=[i, k, 0, 0]).  A
    uniform draw is the first word of that stream's first block, counter
    [i + 1, k, 0, 0], so every fourth word of one stream started at
    [lo, k, 0, 0] gives the words of samples lo, lo + 1, ..., which become
    numpy's uniform bit for bit.  Gaussian draws (ziggurat, and the r-target
    rejection loop) take a varying number of words and keep one generator
    per sample.
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


def _outcome(m):
    """(ok, mismatch) of one lane: a mismatch that is not finite is a failure."""
    return (True, m) if math.isfinite(m) else (False, math.nan)


def _mc_chunk(args):
    """(ok, mismatch) of samples lo..hi-1, evaluated as one batch of lanes.

    A failure in any lane fails the batch; the chunk is then evaluated one
    sample at a time, so the failures are counted per sample.  A lane whose
    walk overflowed to a NaN mismatch fails on its own.
    """
    problem, e, ensemble, lo, hi, step = args
    draws = _draws(ensemble, lo, hi)
    field = "alpha" if ensemble.target == "lambda" else ensemble.target
    try:
        return [_outcome(m) for m in realized_mismatches(problem, e, field, draws, step)]
    except (ArithmeticError, RuntimeError):
        pass
    results = []
    for j in range(hi - lo):
        try:
            (m,) = realized_mismatches(problem, e, field, [col[j:j + 1] for col in draws], step)
            results.append(_outcome(m))
        except (ArithmeticError, RuntimeError):
            results.append((False, math.nan))
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
    realized problem bit for bit.  A chunk whose walk fails is walked again
    one sample at a time, and each failing sample counts as one failure, as
    does each sample whose walk overflowed to a NaN mismatch.
    """
    if len(ensemble.sites) != len(problem.interactions):
        raise ValueError(f"ensemble has {len(ensemble.sites)} sites, problem has "
                         f"{len(problem.interactions)} interactions")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    chunks = [(problem, e, ensemble, lo, min(lo + _CHUNK, n_samples), step)
              for lo in range(0, n_samples, _CHUNK)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk_results = list(pool.map(_mc_chunk, chunks))
    else:
        chunk_results = [_mc_chunk(c) for c in chunks]
    mismatches = []
    failures = 0
    for chunk in chunk_results:
        for ok, m in chunk:
            if ok:
                mismatches.append(m)
            else:
                failures += 1
    return mismatches, failures


def summarize_mismatches(mismatches, failures: int, epsilon: float,
                         seed: int) -> MonteCarloReport:
    """Hit count at epsilon and DEFAULT_QUANTILES of one run's mismatches."""
    hits = sum(1 for m in mismatches if m <= epsilon)
    if mismatches:
        arr = np.sort(np.asarray(mismatches))
        qs = tuple((q, float(np.quantile(arr, q))) for q in DEFAULT_QUANTILES)
    else:
        qs = ()
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
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    mismatches, failures = mismatch_samples(problem, e, ensemble, n_samples,
                                            step, workers)
    return summarize_mismatches(mismatches, failures, epsilon, ensemble.seed)


# ------------------------------------------------------- oscillation machinery

def _bisect_zero(v, left_state, x_right, e, step):
    """Refine the single sign change of u inside (left_state.x, x_right]."""
    state = left_state
    ul = state.u
    lo, hi = state.x, x_right
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        ms = propagate_state(v, state, mid, e, step)
        if ms.u == 0.0:
            return mid
        if (ms.u > 0) == (ul > 0):
            lo, state = mid, _normalized(ms)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def zeros_of_eigenfunction(problem: Problem, e: float,
                           step: StepControl = DEFAULT_STEP):
    """Interior zeros of the left-admissible solution of a jump-free problem.

    Zeros are where the Pruefer lift crosses a multiple of pi; the sampling
    step is chosen so the lift moves less than pi/2 between samples, which
    pins each zero to a single sign change of u (nontrivial solutions cannot
    touch zero without crossing).  Each is refined by bisection to 1e-10.
    """
    if problem.interactions:
        raise ValueError("zeros are computed on the interaction-free problem")
    v = problem.potential
    a, b = problem.a, problem.b
    state = _normalized(problem.initial_state())
    zeros = []
    for xi, nxt, _ in _lift_walk(v, state, math.atan2(state.u, state.du), b, e, step):
        if nxt.u == 0.0:
            zeros.append(xi)
        elif state.u != 0.0 and (state.u > 0) != (nxt.u > 0):
            zeros.append(_bisect_zero(v, state, xi, e, step))
        state = nxt
    margin = 1e-7 * (b - a) + 1e-12
    return [z for z in zeros if a + margin < z < b - margin]


def find_class_point(problem: Problem, e: float, t1: float, t2: float,
                     target: ProjPoint, step: StepControl = DEFAULT_STEP) -> float:
    """The x in [t1, t2) where the solution's class equals target.

    Between consecutive zeros the lift rises by exactly pi, so each class is
    attained; the crossing is found by bisection on the lift.
    """
    if problem.interactions:
        raise ValueError("class points are located on the interaction-free problem")
    if not problem.a <= t1 < t2 <= problem.b:
        raise ValueError(f"need a <= t1 < t2 <= b, got [{t1}, {t2}]")
    v = problem.potential
    state = _normalized(propagate_state(v, problem.initial_state(), t1, e, step))
    if abs(state.u) > 1e-6:
        raise TargetNotBracketed(f"u(t1) = {state.u:.3e}, t1 is not a zero")
    phi1 = math.atan2(state.u, state.du)
    base = math.pi * round(phi1 / math.pi)
    offset = (target.angle - base) % math.pi
    if offset < 1e-9 or math.pi - offset < 1e-9:
        return t1  # the zero class itself
    goal = base + offset
    xa, sa, la = t1, state, phi1
    for xb, s, lift in _lift_walk(v, state, phi1, t2, e, step):
        if lift >= goal:
            break
        xa, sa, la = xb, s, lift
    else:
        raise TargetNotBracketed(
            f"lift advanced {la - phi1:.6f} over [t1, t2); are t1, t2 consecutive zeros?")
    while xb - xa > 1e-12:
        mid = 0.5 * (xa + xb)
        sm = _normalized(propagate_state(v, sa, mid, e, step))
        lm = _continue_lift(la, math.atan2(sm.u, sm.du))
        if lm >= goal:
            xb = mid
        else:
            xa, sa, la = mid, sm, lm
    return 0.5 * (xa + xb)


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
    match and eigen_test reports the residual mismatch.
    """
    thetas = list(thetas)
    rs = list(rs)
    if not thetas or len(thetas) != len(rs):
        raise ValueError("need matching nonempty theta and r lists")
    base = Problem(a, b, v, (), bc_left, bc_right)
    rep = eigen_test(base, e, step)
    if rep.mismatch > EIGEN_TOL and not allow_non_eigenvalue:
        raise NotUnperturbedEigenvalue(
            f"E = {e} has unperturbed mismatch {rep.mismatch:.3e} > {EIGEN_TOL}")
    need = len(thetas) + 1
    zeros = zeros_of_eigenfunction(base, e, step)
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
    for i, (theta, r) in enumerate(zip(thetas, rs)):
        target = proj_class(math.cos(theta), -math.sin(theta))
        x_i = find_class_point(base, e, zeros[i], zeros[i + 1], target, step)
        if x_i <= a:
            raise InsufficientOscillation(
                f"site {i} lands on the endpoint {a}; theta = {theta} needs an "
                f"interior zero gap", zeros_found=len(zeros))
        sites.append(PointInteraction(x_i, IwasawaParams(0.0, r, theta)))
    return Problem(a, b, v, tuple(sites), bc_left, bc_right)
