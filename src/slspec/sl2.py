"""Exact SL(2,R) arithmetic, Iwasawa factorization, and the projective-line action.

Three one-parameter subgroups are used throughout:

    shear     P_a = [[1, a], [0, 1]]
    dilation  H_r = [[r, 0], [0, 1/r]],  r > 0
    rotation  E_t = [[cos t, -sin t], [sin t, cos t]]

Every unimodular matrix factors uniquely as P_a H_r E_t; one test decides
unimodularity, |det - 1| <= tol, which a NaN determinant fails.  A point of
the real projective line is stored as an angle in [0, pi); the class of a
nonzero vector (v1, v2) sits at arg(v2 + i*v1) mod pi, so (sin t, cos t) has angle t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DET_TOL = 1e-9
TWO_PI = 2.0 * math.pi


class NonUnimodular(ValueError):
    """Determinant is not 1 within tolerance (or the matrix is singular)."""


class InvalidDilation(ValueError):
    """Dilation factor r must be strictly positive."""


class NumericalFailure(ArithmeticError):
    """The numbers failed, not the input; each subclass is also a ValueError or RuntimeError."""


class ZeroVector(NumericalFailure, ValueError):
    """The zero vector has no projective class."""


@dataclass(frozen=True)
class Mat2:
    """Real 2x2 matrix with row-major entries a, b, c, d.

    The plain constructor performs no determinant check, which is what the
    projective action needs for general invertible matrices; use ``Mat2.sl2``
    to construct checked SL(2,R) values.
    """

    a: float
    b: float
    c: float
    d: float

    @classmethod
    def sl2(cls, a, b, c, d, tol: float = DET_TOL) -> "Mat2":
        return _unimodular(cls(float(a), float(b), float(c), float(d)), tol)

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1.0, 0.0, 0.0, 1.0)

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply(self, v):
        """Matrix-vector product on a pair (v1, v2)."""
        v1, v2 = v
        return (self.a * v1 + self.b * v2, self.c * v1 + self.d * v2)

    def inverse(self) -> "Mat2":
        """The inverse; NonUnimodular unless det is finite and nonzero (NaN is not)."""
        det = self.det
        if not (math.isfinite(det) and det != 0.0):
            raise NonUnimodular(f"det = {det!r}: the matrix has no inverse")
        return Mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def entries(self):
        """Row-major tuple (a, b, c, d), the JSON serialization order."""
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class IwasawaParams:
    """Factor data (alpha, r, theta) of P_alpha H_r E_theta.

    theta is canonicalized to [0, 2*pi): E_theta and E_{theta+2pi} coincide
    while E_theta and E_{theta+pi} do not, so matrix-level uniqueness needs
    the full circle.  Projective predicates reduce mod pi internally.
    """

    alpha: float
    r: float
    theta: float

    def __post_init__(self):
        if not self.r > 0.0:
            raise InvalidDilation(f"r = {self.r!r} must be > 0")
        object.__setattr__(self, "theta", self.theta % TWO_PI)


@dataclass(frozen=True)
class ProjPoint:
    """A point of RP^1: the line through (sin angle, cos angle), angle in [0, pi)."""

    angle: float

    def __post_init__(self):
        a = self.angle % math.pi
        if a >= math.pi:  # guard against rounding in the modulo itself
            a = 0.0
        object.__setattr__(self, "angle", a)

    def vector(self):
        """Unit representative (sin angle, cos angle)."""
        return (math.sin(self.angle), math.cos(self.angle))

    def distance(self, other: "ProjPoint") -> float:
        """Angular distance on RP^1, min(|d|, pi - |d|), in [0, pi/2]."""
        d = abs(self.angle - other.angle) % math.pi
        return min(d, math.pi - d)


def proj_class(v1: float, v2: float) -> ProjPoint:
    """Projective class of the nonzero vector (v1, v2)."""
    if v1 == 0.0 and v2 == 0.0:
        raise ZeroVector("the zero vector has no projective class")
    return ProjPoint(math.atan2(v1, v2))


def iwasawa_compose(p: IwasawaParams) -> Mat2:
    """The product P_alpha H_r E_theta; unimodular by construction."""
    return _compose(p.alpha, p.r, math.cos(p.theta), math.sin(p.theta))


def _compose(alpha, r, ct, st) -> Mat2:
    """P_alpha H_r E_theta from alpha, r, cos theta and sin theta.

    Only + - * / act here, so any argument may be a lane array (one value
    per lane) and each lane gets the bits of its lone float composition.
    """
    ar = alpha / r
    # P_alpha H_r = [[r, alpha/r], [0, 1/r]], then right-multiply the rotation.
    return Mat2(r * ct + ar * st, -r * st + ar * ct, st / r, ct / r)


def _unimodular(m: Mat2, tol: float) -> Mat2:
    """m, once |det m - 1| <= tol; else NonUnimodular, for a NaN determinant too."""
    if not abs(m.det - 1.0) <= tol:
        raise NonUnimodular(f"det = {m.det!r} is not 1 within {tol}")
    return m


def iwasawa_decompose(m: Mat2, tol: float = DET_TOL) -> IwasawaParams:
    """The unique (alpha, r, theta) with m = P_alpha H_r E_theta.

    P_alpha leaves the second row of H_r E_theta, (sin theta, cos theta) / r,
    alone, so r and theta are read off m's second row; alpha is the real
    part of the upper-half-plane Moebius image of i under m.  A factor that
    is not finite, where m's entries are too far apart, is an OverflowError.
    """
    _unimodular(m, tol)
    w = (m.a * 1j + m.b) / (m.c * 1j + m.d)
    alpha, r, theta = w.real, 1.0 / math.hypot(m.c, m.d), math.atan2(m.c, m.d)
    if not (math.isfinite(alpha) and math.isfinite(r)):
        raise OverflowError(f"the Iwasawa factors of {m.entries()} are not finite")
    return IwasawaParams(alpha, r, theta)


def proj_apply(m: Mat2, p: ProjPoint, tol: float = DET_TOL) -> ProjPoint:
    """Induced action of the unimodular m on RP^1; NonUnimodular unless |det m - 1| <= tol."""
    w1, w2 = _unimodular(m, tol).apply(p.vector())
    return proj_class(w1, w2)


def r_fixed_classes(params: IwasawaParams):
    """The two classes on which varying the dilation r leaves [A v] unchanged.

    These are the preimages under E_theta of the coordinate axes: the classes
    of (sin theta, cos theta) and (cos theta, -sin theta).
    """
    t = params.theta
    return (proj_class(math.sin(t), math.cos(t)),
            proj_class(math.cos(t), -math.sin(t)))


def alpha_fixed_class(params: IwasawaParams) -> ProjPoint:
    """The single class on which varying the shear alpha leaves [A v] unchanged.

    E_theta sends (cos theta, -sin theta), the second r-fixed class, to
    (1, 0), which every shear fixes.
    """
    return r_fixed_classes(params)[1]
