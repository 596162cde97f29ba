"""Acceptance suite: the full-scale library guarantees, one criterion per test.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Closed-form comparisons are relative where hyperbolic growth
makes entries large; every other tolerance is as stated.
"""

import functools
import json
import math

import numpy as np

from slspec.cli import main as cli_main
from slspec.problem import PointInteraction, Problem, with_site_params
from slspec.random import (
    Ensemble,
    Gaussian,
    Uniform,
    construct_degenerate,
    monte_carlo,
)
from slspec.sl2 import (
    IwasawaParams,
    Mat2,
    ProjPoint,
    alpha_fixed_class,
    iwasawa_compose,
    iwasawa_decompose,
    proj_apply,
    proj_class,
    r_fixed_classes,
)
from slspec.spectra import (
    ALL_VALUES,
    ONLY_ORIGINAL,
    PERIODIC_IN_THETA,
    classify_dichotomy,
    eigen_test,
    eigenvalues_in_range,
    matching_gamma,
)
from slspec.transfer import (
    ConstantPotential,
    GridPotential,
    PiecewisePotential,
    SolutionState,
    propagate_state,
    transfer_matrix,
)

PI = math.pi
DIRICHLET = ProjPoint(0.0)


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {description}")
                raise
            print(f"criterion {number}: PASS - {description}")
        return run
    return wrap


def random_piecewise(rng, lo=0.0, hi=2.5, pieces=5, vmax=4.0):
    # breakpoints pinned to the endpoints so the domain covers [lo, hi]
    while True:
        bp = np.concatenate([[lo], np.sort(rng.uniform(lo, hi, pieces - 1)), [hi]])
        if np.all(np.diff(bp) >= 1e-3):
            break
    return PiecewisePotential(tuple(bp), tuple(rng.uniform(-vmax, vmax, pieces)))


# --------------------------------------------------------------- criterion 1

@criterion(1, "unimodularity and Iwasawa roundtrip, 1e5 samples")
def test_criterion_1_iwasawa():
    rng = np.random.default_rng(1001)
    alphas = rng.uniform(-10, 10, 100_000)
    rs = rng.uniform(0.1, 10, 100_000)
    thetas = rng.uniform(0, 2 * PI, 100_000)
    worst_det = 0.0
    worst_round = 0.0
    for a, r, t in zip(alphas, rs, thetas):
        p = IwasawaParams(a, r, t)
        m = iwasawa_compose(p)
        worst_det = max(worst_det, abs(m.det - 1.0))
        q = iwasawa_decompose(m)
        dt = abs(q.theta - p.theta) % (2 * PI)
        worst_round = max(worst_round, abs(q.alpha - p.alpha), abs(q.r - p.r),
                          min(dt, 2 * PI - dt))
    assert worst_det <= 1e-12, worst_det
    assert worst_round <= 1e-9, worst_round


# --------------------------------------------------------------- criterion 2

def free_closed_form(e, dx):
    if e > 0:
        k = math.sqrt(e)
        return (math.cos(k * dx), math.sin(k * dx) / k,
                -k * math.sin(k * dx), math.cos(k * dx))
    if e < 0:
        k = math.sqrt(-e)
        return (math.cosh(k * dx), math.sinh(k * dx) / k,
                k * math.sinh(k * dx), math.cosh(k * dx))
    return (1.0, dx, 0.0, 1.0)


@criterion(2, "transfer matrices: closed forms, cocycle, inverse, Wronskian")
def test_criterion_2_transfer():
    # the constant takes the exact route, the two-node zero grid the RK4 route
    for free in (ConstantPotential(0.0), GridPotential((-10.0, 10.0), (0.0, 0.0))):
        for e in (-4.0, -1.0, 0.25, 1.0, 9.0):
            for dx in (-10.0, -3.3, 0.7, 4.2, 10.0):
                want = free_closed_form(e, dx)
                m = transfer_matrix(free, dx, 0.0, e)
                for got, ref in zip(m.entries(), want):
                    assert abs(got - ref) <= 1e-6 * max(1.0, abs(ref)), (e, dx, free)

    rng = np.random.default_rng(1002)
    for _ in range(1000):
        v = random_piecewise(rng)
        lo, hi = v.domain
        e = rng.uniform(-2, 8)
        x, y, z = rng.uniform(lo, hi, 3)
        mxy = transfer_matrix(v, x, y, e)
        myz = transfer_matrix(v, y, z, e)
        mxz = transfer_matrix(v, x, z, e)
        prod = mxy @ myz
        assert max(abs(p - q) for p, q in
                   zip(prod.entries(), mxz.entries())) <= 1e-7
        ident = mxy @ transfer_matrix(v, y, x, e)
        assert max(abs(p - q) for p, q in
                   zip(ident.entries(), (1, 0, 0, 1))) <= 1e-7
        # Wronskian constancy for two independently propagated unit solutions
        psi = rng.uniform(0, PI)
        s1 = SolutionState(lo, math.sin(psi), math.cos(psi))
        s2 = SolutionState(lo, -math.cos(psi), math.sin(psi))
        w0 = s1.u * s2.du - s1.du * s2.u
        for t in np.linspace(lo, hi, 5)[1:]:
            a1 = propagate_state(v, s1, float(t), e)
            a2 = propagate_state(v, s2, float(t), e)
            assert abs(a1.u * a2.du - a1.du * a2.u - w0) <= 1e-7


# --------------------------------------------------------------- criterion 3

@criterion(3, "lemma suite: theta/r/alpha fixed-class characterizations")
def test_criterion_3_lemmas():
    rng = np.random.default_rng(1003)
    # theta lemma: moving the rotation moves the class iff the shift is not
    # a multiple of pi
    for _ in range(10_000):
        params = IwasawaParams(rng.uniform(-10, 10), rng.uniform(0.1, 10),
                               rng.uniform(0, 2 * PI))
        v = ProjPoint(rng.uniform(0, PI))
        k = int(rng.integers(-2, 3))
        if rng.uniform() < 0.4:
            theta_alt = params.theta + k * PI
            expect_moved = False
        else:
            theta_alt = params.theta + k * PI + rng.uniform(0.01, PI - 0.01)
            expect_moved = True
        a = proj_apply(iwasawa_compose(params), v)
        b = proj_apply(iwasawa_compose(
            IwasawaParams(params.alpha, params.r, theta_alt)), v)
        assert (a.distance(b) > 1e-9) == expect_moved

    # r lemma: 100 instances, 360-point class grid, 1e-6 exclusion band
    for _ in range(100):
        params = IwasawaParams(rng.uniform(-3, 3), rng.uniform(0.4, 2.0),
                               rng.uniform(0, 2 * PI))
        r_alt = params.r * rng.choice([0.25, 0.5, 2.0, 4.0])
        alt = IwasawaParams(params.alpha, r_alt, params.theta)
        fixed = r_fixed_classes(params)
        for k in range(360):
            v = ProjPoint(k * PI / 360)
            d = proj_apply(iwasawa_compose(params), v).distance(
                proj_apply(iwasawa_compose(alt), v))
            if min(v.distance(fixed[0]), v.distance(fixed[1])) <= 1e-6:
                continue
            assert d > 1e-9
        for v in fixed:
            d = proj_apply(iwasawa_compose(params), v).distance(
                proj_apply(iwasawa_compose(alt), v))
            assert d <= 1e-12

    # alpha lemma: shears are parabolic, so near the fixed class the
    # separation is quadratic; moderate dilations keep the band edge
    # resolvable above a 1e-13 equality threshold
    for _ in range(100):
        params = IwasawaParams(rng.uniform(-3, 3), rng.uniform(0.4, 1.0),
                               rng.uniform(0, 2 * PI))
        alpha_alt = params.alpha + rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 3.0)
        alt = IwasawaParams(alpha_alt, params.r, params.theta)
        fixed = alpha_fixed_class(params)
        for k in range(360):
            v = ProjPoint(k * PI / 360)
            if v.distance(fixed) <= 1e-6:
                continue
            d = proj_apply(iwasawa_compose(params), v).distance(
                proj_apply(iwasawa_compose(alt), v))
            assert d > 1e-13
        d = proj_apply(iwasawa_compose(params), fixed).distance(
            proj_apply(iwasawa_compose(alt), fixed))
        assert d <= 1e-14


# --------------------------------------------------------------- criterion 4

@criterion(4, "particle-in-a-box spectrum (n pi / L)^2, L in {1, pi, 2.5}")
def test_criterion_4_box_spectrum():
    for length in (1.0, PI, 2.5):
        prob = Problem(0.0, length, ConstantPotential(0.0), (),
                       DIRICHLET, DIRICHLET)
        want = [(n * PI / length) ** 2 for n in range(1, 6)]
        reports = eigenvalues_in_range(prob, want[0] / 2, want[-1] + 1.0,
                                       400, tol=1e-12)
        got = [r.E for r in reports]
        assert len(got) == 5, (length, got)
        for e, w in zip(got, want):
            assert abs(e - w) / w <= 1e-6


# --------------------------------------------------------------- criterion 5

@criterion(5, "delta at the node keeps E=4 for every strength; E=1 only at 0")
def test_criterion_5_delta_dichotomy():
    def with_delta(strength):
        site = PointInteraction(PI / 2, iwasawa_decompose(
            Mat2(1.0, 0.0, strength, 1.0)))
        return Problem(0.0, PI, ConstantPotential(0.0), (site,),
                       DIRICHLET, DIRICHLET)

    for strength in (-5.0, -1.0, 0.0, 1.0, 5.0):
        assert eigen_test(with_delta(strength), 4.0).mismatch <= 1e-7
    for strength in (-1.0, -0.1, 0.1, 1.0):
        assert eigen_test(with_delta(strength), 1.0).mismatch > 1e-7
    assert eigen_test(with_delta(0.0), 1.0).mismatch <= 1e-7


# --------------------------------------------------------------- criterion 6

ALPHA_OFFSETS = (-2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0)
R_FACTORS = (0.25, 0.5, 2.0, 4.0, 0.3, 0.7, 3.3, 7.7)
THETA_OFFSETS = (PI / 3, -PI / 4, 0.7, -1.1, 1.9, 2.5, -2.9, 0.4)


def make_detected_problem(rng, kind):
    """One-site problem with an exactly engineered eigenvalue.

    kind 'alpha': site theta puts the solution class on the shear-fixed
    class; 'r': on the first dilation-fixed class; 'generic': safely off
    both (transversal by at least 0.1).
    """
    length = rng.uniform(2.0, 3.5)
    v = random_piecewise(rng, 0.0, length, pieces=4, vmax=3.0)
    bc_left = ProjPoint(rng.uniform(0, PI))
    e = rng.uniform(6.0, 20.0)
    x0 = rng.uniform(0.35 * length, 0.65 * length)
    base = Problem(0.0, length, v, (), bc_left, DIRICHLET)
    s = propagate_state(v, base.initial_state(), x0, e)
    psi = proj_class(s.u, s.du).angle
    if kind == "alpha":
        theta = psi + PI / 2
    elif kind == "r":
        theta = psi
    else:
        theta = psi + rng.uniform(0.1, PI / 2 - 0.1)
    site = PointInteraction(x0, IwasawaParams(rng.uniform(-1.5, 1.5),
                                              rng.uniform(0.5, 2.0), theta))
    prob = Problem(0.0, length, v, (site,), bc_left, DIRICHLET)
    gamma = matching_gamma(prob, e)
    return Problem(0.0, length, v, (site,), bc_left, gamma), e


@criterion(6, "dichotomy exclusivity across 50 problems, 8 re-tests each")
def test_criterion_6_dichotomy_exclusivity():
    rng = np.random.default_rng(1006)
    kinds = ["alpha"] * 17 + ["r" ] * 16 + ["generic"] * 17
    for kind in kinds:
        prob, e_true = make_detected_problem(rng, kind)
        reports = eigenvalues_in_range(prob, e_true - 0.4, e_true + 0.4,
                                       41, tol=1e-12)
        match = [r for r in reports if abs(r.E - e_true) < 1e-6]
        assert match, f"engineered eigenvalue near {e_true} not detected"
        e = match[0].E
        params = prob.interactions[0].params

        for par, values, field in (
                ("alpha", [params.alpha + d for d in ALPHA_OFFSETS], "alpha"),
                ("r", [params.r * f for f in R_FACTORS], "r"),
                ("theta", [params.theta + d for d in THETA_OFFSETS], "theta")):
            verdict = classify_dichotomy(prob, e, 0, par).verdict
            outcomes = [
                eigen_test(with_site_params(prob, 0, **{field: val}), e).mismatch <= 1e-6
                for val in values]
            assert len(set(outcomes)) == 1, f"mixed outcomes for {par}"
            if par == "theta":
                assert verdict == PERIODIC_IN_THETA
                assert not any(outcomes)
                kept = eigen_test(with_site_params(
                    prob, 0, theta=params.theta + PI), e)
                assert kept.mismatch <= 1e-6
            elif all(outcomes):
                assert verdict == ALL_VALUES
            else:
                assert verdict == ONLY_ORIGINAL
        if kind == "alpha":
            assert classify_dichotomy(prob, e, 0, "alpha").verdict == ALL_VALUES
        if kind == "r":
            assert classify_dichotomy(prob, e, 0, "r").verdict == ALL_VALUES
        if kind == "generic":
            assert classify_dichotomy(prob, e, 0, "alpha").verdict == ONLY_ORIGINAL


# --------------------------------------------------------------- criterion 7

@criterion(7, "degenerate construction: 100 realizations keep E at 1-3 sites")
def test_criterion_7_degenerate_construction():
    free = ConstantPotential(0.0)
    cases = [
        ([0.0], [1.0], (Uniform(-2.0, 2.0),)),
        ([0.0, PI], [2.0, 0.5], (Uniform(-2.0, 2.0), Gaussian(0.0, 1.0))),
        ([PI, 0.0, PI], [1.0, 2.0, 0.5],
         (Gaussian(0.0, 1.5), Uniform(-3.0, 3.0), Uniform(-1.0, 5.0))),
    ]
    for thetas, rs, dists in cases:
        prob = construct_degenerate(free, 1.0, thetas, rs, 0.0, 4 * PI,
                                    DIRICHLET, DIRICHLET)
        rep = monte_carlo(prob, 1.0, Ensemble("lambda", dists, seed=1007),
                          100, epsilon=1e-6)
        assert rep.hits == 100, (thetas, rep.hits)
        assert rep.failures == 0


# --------------------------------------------------------------- criterion 8

@criterion(8, "Pastur-type null: 1e4 samples, zero hits, 1st pct > 1e-3")
def test_criterion_8_probability_zero():
    site = PointInteraction(1.0, IwasawaParams(0.0, 1.0, 0.0))
    prob = Problem(0.0, PI, ConstantPotential(0.0), (site,),
                   DIRICHLET, DIRICHLET)
    e = 4.0
    assert eigen_test(prob, e).mismatch <= 1e-9
    assert classify_dichotomy(prob, e, 0, "alpha").verdict == ONLY_ORIGINAL

    lam = monte_carlo(prob, e, Ensemble("lambda", (Uniform(-2.0, 2.0),),
                                        seed=1008), 10_000, epsilon=1e-6)
    assert lam.hits == 0
    q01 = dict(lam.mismatch_quantiles)[0.01]
    assert q01 > 1e-3, q01

    theta = monte_carlo(prob, e, Ensemble("theta", (Uniform(0.0, PI),),
                                          seed=1009), 10_000, epsilon=1e-6)
    assert theta.hits == 0
    q01t = dict(theta.mismatch_quantiles)[0.01]
    assert q01t > 1e-3, q01t


# --------------------------------------------------------------- criterion 9

@criterion(9, "CLI determinism: byte-identical reruns, any worker count")
def _run_criterion_9(tmp_path):
    def run(*argv):
        assert cli_main(list(argv)) == 0

    mc_cfg = {
        "schema": 1,
        "problem": {"a": 0.0, "b": PI,
                    "potential": {"kind": "constant", "value": 0.0},
                    "interactions": [{"x": 1.0, "alpha": 0.0, "r": 1.0,
                                      "theta": 0.0}],
                    "bc_left": 0.0, "bc_right": 0.0},
        "montecarlo": {"energy": 4.0,
                       "ensemble": {"target": "lambda",
                                    "sites": [{"kind": "uniform",
                                               "lo": -1.0, "hi": 1.0}],
                                    "seed": 4242},
                       "samples": 2000, "epsilon": 1e-6},
        "output": {"path": str(tmp_path / "mc.json")},
    }
    cfg_path = tmp_path / "mc_config.json"
    cfg_path.write_text(json.dumps(mc_cfg))
    outputs = []
    for workers in ("1", "2", "3"):
        run("--quiet", "--config", str(cfg_path), "--workers", workers,
            "montecarlo")
        outputs.append(((tmp_path / "mc.json").read_bytes(),
                        (tmp_path / "mc_hist.csv").read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]

    eigs_cfg = {
        "schema": 1,
        "problem": mc_cfg["problem"],
        "eigs": {"e_lo": 0.5, "e_hi": 22.0, "grid": 200, "classify": True},
        "output": {"path": str(tmp_path / "eigs.json")},
    }
    cfg_path2 = tmp_path / "eigs_config.json"
    cfg_path2.write_text(json.dumps(eigs_cfg))
    run("--quiet", "--config", str(cfg_path2), "eigs")
    first = (tmp_path / "eigs.json").read_bytes()
    run("--quiet", "--config", str(cfg_path2), "eigs")
    assert (tmp_path / "eigs.json").read_bytes() == first

    deg_cfg = {
        "schema": 1,
        "problem": {"a": 0.0, "b": 4 * PI,
                    "potential": {"kind": "constant", "value": 0.0},
                    "interactions": [], "bc_left": 0.0, "bc_right": 0.0},
        "degenerate": {"energy": 1.0, "thetas": [0.0, PI], "rs": [1.0, 2.0]},
        "output": {"path": str(tmp_path / "deg.json")},
    }
    cfg_path3 = tmp_path / "deg_config.json"
    cfg_path3.write_text(json.dumps(deg_cfg))
    run("--quiet", "--config", str(cfg_path3), "degenerate")
    first = (tmp_path / "deg.json").read_bytes()
    run("--quiet", "--config", str(cfg_path3), "degenerate")
    assert (tmp_path / "deg.json").read_bytes() == first


def test_criterion_9_cli_determinism(tmp_path):
    _run_criterion_9(tmp_path)
