"""Checks for the SL(2,R) factorization and projective-line machinery."""

import math

import numpy as np
import pytest

from slspec.sl2 import (
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

PI = math.pi


def random_params(rng):
    return IwasawaParams(rng.uniform(-10, 10), rng.uniform(0.1, 10),
                         rng.uniform(0, 2 * PI))


def mat_diff(m, n):
    return max(abs(x - y) for x, y in zip(m.entries(), n.entries()))


# ---------------------------------------------------------------- Mat2 basics

def test_sl2_constructor_checks_det():
    Mat2.sl2(1, 0, 0, 1)
    Mat2.sl2(2, 0, 0, 0.5)
    with pytest.raises(NonUnimodular):
        Mat2.sl2(1, 0, 0, 2)


def test_plain_constructor_allows_gl2():
    m = Mat2(3.0, 0.0, 0.0, 1.0)
    assert m.det == 3.0


def test_matmul_and_inverse():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = iwasawa_compose(random_params(rng))
        prod = m @ m.inverse()
        assert mat_diff(prod, Mat2.identity()) < 1e-12


# ------------------------------------------------------- Iwasawa composition

def test_compose_identity():
    assert mat_diff(iwasawa_compose(IwasawaParams(0, 1, 0)), Mat2.identity()) == 0


def test_compose_pure_rotation():
    m = iwasawa_compose(IwasawaParams(0, 1, PI / 2))
    assert mat_diff(m, Mat2(0, -1, 1, 0)) < 1e-15


def test_compose_shear_dilation():
    # P_1 H_2 by hand: [[1,1],[0,1]] @ [[2,0],[0,1/2]] = [[2, 1/2], [0, 1/2]]
    m = iwasawa_compose(IwasawaParams(1, 2, 0))
    assert mat_diff(m, Mat2(2.0, 0.5, 0.0, 0.5)) < 1e-15


def test_compose_det_is_one():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        assert abs(iwasawa_compose(random_params(rng)).det - 1.0) <= 1e-12


def test_invalid_dilation_rejected():
    with pytest.raises(InvalidDilation):
        IwasawaParams(0, 0.0, 0)
    with pytest.raises(InvalidDilation):
        IwasawaParams(0, -1.0, 0)


def test_theta_canonicalized():
    p = IwasawaParams(0, 1, -PI / 2)
    assert abs(p.theta - 3 * PI / 2) < 1e-15
    assert IwasawaParams(0, 1, 2 * PI).theta == 0.0


# ----------------------------------------------------- Iwasawa decomposition

def test_decompose_identity():
    p = iwasawa_decompose(Mat2.identity())
    assert p.alpha == 0 and p.r == 1 and p.theta == 0


def test_decompose_shear():
    p = iwasawa_decompose(Mat2(1, 0.75, 0, 1))
    assert abs(p.alpha - 0.75) < 1e-15
    assert abs(p.r - 1) < 1e-15
    assert p.theta == 0.0


def test_decompose_rejects_non_unimodular():
    with pytest.raises(NonUnimodular):
        iwasawa_decompose(Mat2(1, 0, 0, 2))


def numpy_theta_recovery(m, alpha, r):
    """Independent theta recovery: form E = H_r^-1 P_alpha^-1 m with numpy."""
    A = np.array([[m.a, m.b], [m.c, m.d]])
    Pinv = np.linalg.inv(np.array([[1.0, alpha], [0.0, 1.0]]))
    Hinv = np.linalg.inv(np.array([[r, 0.0], [0.0, 1.0 / r]]))
    E = Hinv @ Pinv @ A
    return math.atan2(E[1, 0], E[0, 0]) % (2 * PI)


def test_decompose_delta_matrix():
    # Moebius orbit of i under [[1,0],[a,1]] is (a + i)/(1 + a^2), worked by
    # hand, so alpha = a/(1+a^2) and r = (1+a^2)^(-1/2); theta via the
    # independent matrix route.  For a = 1 that gives (1/2, 2^-1/2, pi/4).
    for a in (1.0, -2.0, 0.5, 3.0):
        m = Mat2(1.0, 0.0, a, 1.0)
        p = iwasawa_decompose(m)
        assert abs(p.alpha - a / (1 + a * a)) < 1e-14
        assert abs(p.r - 1 / math.sqrt(1 + a * a)) < 1e-14
        assert abs(p.theta - numpy_theta_recovery(m, p.alpha, p.r)) < 1e-12
    p1 = iwasawa_decompose(Mat2(1.0, 0.0, 1.0, 1.0))
    assert abs(p1.alpha - 0.5) < 1e-15
    assert abs(p1.r - math.sqrt(0.5)) < 1e-15
    assert abs(p1.theta - PI / 4) < 1e-14


def test_roundtrip_params_and_matrices():
    rng = np.random.default_rng(23)
    for _ in range(2000):
        p = random_params(rng)
        m = iwasawa_compose(p)
        q = iwasawa_decompose(m)
        assert abs(q.alpha - p.alpha) < 1e-9
        assert abs(q.r - p.r) < 1e-9
        dt = abs(q.theta - p.theta) % (2 * PI)
        assert min(dt, 2 * PI - dt) < 1e-9
        assert mat_diff(iwasawa_compose(q), m) < 1e-10


# ------------------------------------------------------------ RP^1 machinery

def test_proj_class_axes():
    assert proj_class(0, 1).angle == 0.0
    assert abs(proj_class(1, 0).angle - PI / 2) < 1e-15


def test_proj_class_angle_parameterization():
    rng = np.random.default_rng(3)
    for _ in range(200):
        psi = rng.uniform(-10, 10)
        p = proj_class(math.sin(psi), math.cos(psi))
        assert p.distance(ProjPoint(psi)) < 1e-12


def test_proj_class_scale_invariance():
    rng = np.random.default_rng(5)
    for _ in range(200):
        v1, v2 = rng.normal(size=2)
        if v1 == 0 and v2 == 0:
            continue
        lam = rng.choice([-3.0, -0.011, 0.4, 17.0])
        assert proj_class(v1, v2).distance(proj_class(lam * v1, lam * v2)) < 1e-12


def test_proj_class_zero_vector():
    with pytest.raises(ZeroVector):
        proj_class(0.0, 0.0)


def test_proj_apply_identity_and_rotation():
    # E_t rotates the vector (v1, v2) by t, which in the arg(v2 + i*v1)
    # coordinate shifts the projective angle by -t.
    rng = np.random.default_rng(9)
    for _ in range(100):
        p = ProjPoint(rng.uniform(0, PI))
        assert proj_apply(Mat2.identity(), p).distance(p) < 1e-12
        t = rng.uniform(-5, 5)
        rot = iwasawa_compose(IwasawaParams(0, 1, t))
        shifted = proj_apply(rot, p)
        assert shifted.distance(ProjPoint(p.angle - t)) < 1e-12


def test_proj_apply_dilation_example():
    # H_2 maps (1, 1) to (2, 1/2), applied by hand.
    h2 = Mat2(2.0, 0.0, 0.0, 0.5)
    out = proj_apply(h2, ProjPoint(PI / 4))
    assert out.distance(proj_class(2.0, 0.5)) < 1e-12


def test_proj_apply_rejects_non_unimodular():
    with pytest.raises(NonUnimodular):
        proj_apply(Mat2(2.0, 0.0, 0.0, 1.0), ProjPoint(0.3))


def test_proj_apply_group_action():
    rng = np.random.default_rng(13)
    for _ in range(500):
        a = iwasawa_compose(random_params(rng))
        b = iwasawa_compose(random_params(rng))
        p = ProjPoint(rng.uniform(0, PI))
        lhs = proj_apply(a @ b, p, tol=1e-6)
        rhs = proj_apply(a, proj_apply(b, p))
        assert lhs.distance(rhs) < 1e-9


# ----------------------------------------------------- fixed-class predicates

def test_r_fixed_classes_theta_zero():
    cls = r_fixed_classes(IwasawaParams(0.3, 2.0, 0.0))
    assert cls[0].distance(proj_class(0, 1)) < 1e-12
    assert cls[1].distance(proj_class(1, 0)) < 1e-12


def test_r_fixed_classes_theta_quarter():
    cls = r_fixed_classes(IwasawaParams(-1.0, 0.5, PI / 4))
    s = math.sqrt(2) / 2
    assert cls[0].distance(proj_class(s, s)) < 1e-12
    assert cls[1].distance(proj_class(s, -s)) < 1e-12


def test_alpha_fixed_class_examples():
    assert alpha_fixed_class(IwasawaParams(1, 1, 0)).distance(proj_class(1, 0)) < 1e-12
    assert alpha_fixed_class(IwasawaParams(1, 1, PI / 2)).distance(proj_class(0, -1)) < 1e-12
    assert proj_class(0, -1).distance(proj_class(0, 1)) == 0.0


def brute_force_r_moved(params, v, r_alt):
    a = proj_apply(iwasawa_compose(params), v)
    b = proj_apply(iwasawa_compose(IwasawaParams(params.alpha, r_alt, params.theta)), v)
    return a.distance(b)


def brute_force_alpha_moved(params, v, alpha_alt):
    a = proj_apply(iwasawa_compose(params), v)
    b = proj_apply(iwasawa_compose(IwasawaParams(alpha_alt, params.r, params.theta)), v)
    return a.distance(b)


def lemma_instance(rng, for_shear):
    # Shears are parabolic (tangent to the identity at their fixed class), so
    # the displacement of a class at distance d from the fixed class is of
    # order d^2 * d_alpha / r^4; moderate dilations keep the 1e-6 exclusion
    # band resolvable above the threshold.
    r_hi = 1.0 if for_shear else 2.0
    return IwasawaParams(rng.uniform(-3, 3), rng.uniform(0.4, r_hi),
                         rng.uniform(0, 2 * PI))


def test_r_fixed_classes_characterize_invariance():
    # Sweep a grid of classes: off the 1e-6 band around the two returned
    # classes the image must move, and on the classes themselves it must not.
    rng = np.random.default_rng(19)
    for _ in range(20):
        params = lemma_instance(rng, for_shear=False)
        fixed = r_fixed_classes(params)
        r_alt = params.r * rng.choice([0.25, 0.5, 2.0, 4.0])
        for k in range(360):
            v = ProjPoint(k * PI / 360)
            if min(v.distance(fixed[0]), v.distance(fixed[1])) <= 1e-6:
                continue
            assert brute_force_r_moved(params, v, r_alt) > 1e-9
        for v in fixed:
            assert brute_force_r_moved(params, v, r_alt) <= 1e-12


def test_alpha_fixed_class_characterizes_invariance():
    rng = np.random.default_rng(29)
    for _ in range(20):
        params = lemma_instance(rng, for_shear=True)
        fixed = alpha_fixed_class(params)
        alpha_alt = params.alpha + rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 3.0)
        for k in range(360):
            v = ProjPoint(k * PI / 360)
            if v.distance(fixed) <= 1e-6:
                continue
            assert brute_force_alpha_moved(params, v, alpha_alt) > 1e-13
        assert brute_force_alpha_moved(params, fixed, alpha_alt) <= 1e-14


def test_fixed_class_verification_examples():
    # v off both r-fixed classes moves when r changes 1 -> 3; v off the
    # alpha-fixed class moves when alpha changes 0 -> 1.
    params = IwasawaParams(0.0, 1.0, 0.0)
    v = ProjPoint(PI / 3)
    assert brute_force_r_moved(params, v, 3.0) > 1e-6
    assert brute_force_alpha_moved(params, v, 1.0) > 1e-6


# ------------------------------------------------------- one copy per rule

@pytest.mark.parametrize("entries", [(math.nan, 0.0, 0.0, 1.0), (math.inf, 0.0, 0.0, 0.0),
                                     (1.0, math.nan, 0.0, 1.0), (1.0, 0.0, 0.0, 2.0)])
def test_every_unimodularity_check_refuses_a_nan_determinant(entries):
    m = Mat2(*entries)
    message = rf"^det = {m.det!r} is not 1 within 1e-09$"
    for check in (lambda: Mat2.sl2(*entries), lambda: iwasawa_decompose(m),
                  lambda: proj_apply(m, ProjPoint(0.3))):
        with pytest.raises(NonUnimodular, match=message):
            check()


@pytest.mark.parametrize("entries", [(math.nan, 0.0, 0.0, 1.0), (1.0, 0.0, math.nan, 1.0),
                                     (math.inf, 0.0, 0.0, 1.0), (1e200, 0.0, 1e200, 1e200),
                                     (1.0, 2.0, 0.5, 1.0), (0.0, 0.0, 0.0, 0.0)])
def test_inverse_refuses_a_determinant_that_is_not_finite_and_nonzero(entries):
    m = Mat2(*entries)
    with pytest.raises(NonUnimodular, match=rf"^det = {m.det!r}: the matrix has no inverse$"):
        m.inverse()


def test_inverse_of_a_finite_nonzero_determinant():
    assert Mat2(2.0, 0.0, 0.0, 4.0).inverse() == Mat2(0.5, -0.0, -0.0, 0.25)


@pytest.mark.parametrize("entries, params", [
    ((1e200, 0.0, 0.0, 1e-200), IwasawaParams(0.0, 1e200, 0.0)),
    ((1e-200, 0.0, 0.0, 1e200), IwasawaParams(0.0, 1e-200, 0.0)),
    ((1.0, 0.0, 1.0, 1.0), IwasawaParams(0.5, 1 / math.sqrt(2), PI / 4)),
])
def test_decompose_reads_r_and_theta_off_the_second_row(entries, params):
    got = iwasawa_decompose(Mat2.sl2(*entries))
    assert got.alpha == params.alpha
    assert math.isclose(got.r, params.r, rel_tol=1e-15)
    assert math.isclose(got.theta, params.theta, rel_tol=1e-15, abs_tol=0.0)


def test_decompose_refuses_factors_that_are_not_finite():
    with pytest.raises(OverflowError, match="not finite"):
        iwasawa_decompose(Mat2.sl2(1e160, 1e160, 0.0, 1e-160))


@pytest.mark.parametrize("theta", [0.0, 0.3, PI / 2, 2.5, PI, 4.0, 2 * PI - 1e-9])
def test_alpha_fixed_class_is_the_second_r_fixed_class(theta):
    params = IwasawaParams(0.7, 1.3, theta)
    assert alpha_fixed_class(params) == r_fixed_classes(params)[1]
    t = params.theta
    assert alpha_fixed_class(params) == proj_class(math.cos(t), -math.sin(t))
