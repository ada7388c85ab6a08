"""Small fixed-size real linear algebra, least-squares slopes, and the
shared domain types.

All values are immutable after construction and every operation is a
pure function, so everything here is safe to share across threads or
processes without locking.

Units are Gaussian (CGS): E in statvolt/cm, B in gauss, mass density in
g/cm^3. Direction vectors and the susceptibility tensor chi are
dimensionless. The boost axis is fixed to +z by convention; BoostSpec
stores only the dimensionless speed beta = v/c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _require_finite(label: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{label} must be finite, got {v!r}")


@dataclass(frozen=True, slots=True)
class Vec3:
    x: float
    y: float
    z: float

    def __post_init__(self):
        _require_finite("Vec3 component", self.x, self.y, self.z)

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def scale(self, s: float) -> "Vec3":
        return Vec3(s * self.x, s * self.y, s * self.z)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


ZERO3 = Vec3(0.0, 0.0, 0.0)
ZHAT = Vec3(0.0, 0.0, 1.0)


def dot(a: Vec3, b: Vec3) -> float:
    return a.x * b.x + a.y * b.y + a.z * b.z


def cross(a: Vec3, b: Vec3) -> Vec3:
    """Right-handed cross product.

    Component expressions are ordered so that cross(b, a) is the exact
    floating point negation of cross(a, b): IEEE products commute and
    x - y == -(y - x) for every rounding case (modulo signed zeros,
    which compare equal anyway).
    """
    return Vec3(
        a.y * b.z - a.z * b.y,
        a.z * b.x - a.x * b.z,
        a.x * b.y - a.y * b.x,
    )


@dataclass(frozen=True, slots=True)
class Mat3:
    """3x3 real matrix, row-major fields xx..zz (row then column)."""

    xx: float
    xy: float
    xz: float
    yx: float
    yy: float
    yz: float
    zx: float
    zy: float
    zz: float

    def __post_init__(self):
        _require_finite(
            "Mat3 entry",
            self.xx, self.xy, self.xz,
            self.yx, self.yy, self.yz,
            self.zx, self.zy, self.zz,
        )

    @classmethod
    def zero(cls) -> "Mat3":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def transpose(self) -> "Mat3":
        return Mat3(
            self.xx, self.yx, self.zx,
            self.xy, self.yy, self.zy,
            self.xz, self.yz, self.zz,
        )

    def rows(self):
        return (
            (self.xx, self.xy, self.xz),
            (self.yx, self.yy, self.yz),
            (self.zx, self.zy, self.zz),
        )


def mat_apply(m: Mat3, v: Vec3) -> Vec3:
    """Matrix-vector product M v (column-vector semantics).

    mat_apply(m.transpose(), v) therefore realizes v^T M, which is how
    the chi^T couplings are written out.
    """
    return Vec3(
        m.xx * v.x + m.xy * v.y + m.xz * v.z,
        m.yx * v.x + m.yy * v.y + m.yz * v.z,
        m.zx * v.x + m.zy * v.y + m.zz * v.z,
    )


def fit_slope(xs, ys) -> float | None:
    """Least-squares slope of ys against xs, or None when it is undefined.

    None means fewer than two points or xs all equal. Otherwise this is
    the formula of Python 3.11's statistics.linear_regression (fsum
    means, an fsum of centred products, then sxy / sxx), so the slope
    matches it bit for bit without importing statistics, which pulls in
    fractions and decimal.
    """
    n = len(xs)
    if n < 2:
        return None
    xbar = math.fsum(xs) / n
    ybar = math.fsum(ys) / n
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    sxx = math.fsum((d := x - xbar) * d for x in xs)
    if sxx == 0.0:
        return None
    return sxy / sxx


def fit_loglog_slope(xs, ys) -> float | None:
    """fit_slope of log y against log x over the points with y > 0."""
    kept = [(x, y) for x, y in zip(xs, ys) if y > 0.0]
    return fit_slope([math.log(x) for x, _ in kept], [math.log(y) for _, y in kept])


@dataclass(frozen=True, slots=True)
class Material:
    """Intrinsic medium parameters in its rest frame.

    epsilon, mu: scalar permittivity and permeability (dimensionless,
    Gaussian). chi: magnetoelectric susceptibility tensor, dimensionless,
    no symmetry imposed. rho0: rest mass density in g/cm^3.
    """

    epsilon: float
    mu: float
    chi: Mat3
    rho0: float

    def __post_init__(self):
        _require_finite("Material parameter", self.epsilon, self.mu, self.rho0)
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon!r}")
        if self.mu <= 0.0:
            raise ValueError(f"mu must be > 0, got {self.mu!r}")
        if self.rho0 <= 0.0:
            raise ValueError(f"rho0 must be > 0, got {self.rho0!r}")

    @property
    def index(self) -> float:
        """Refractive index n = sqrt(epsilon mu)."""
        return math.sqrt(self.epsilon * self.mu)


@dataclass(frozen=True, slots=True)
class BoostSpec:
    """Uniform boost along +z at speed beta = v/c, |beta| < 1."""

    beta: float

    def __post_init__(self):
        _require_finite("beta", self.beta)
        if not abs(self.beta) < 1.0:
            raise ValueError(f"|beta| must be < 1, got {self.beta!r}")


@dataclass(frozen=True, slots=True)
class FieldState:
    """Lab-frame field pair: E in statvolt/cm, B in gauss."""

    E: Vec3
    B: Vec3
