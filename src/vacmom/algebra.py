"""Small fixed-size real linear algebra, least-squares slopes, and the
shared domain types and rules.

The domain types here and the records of the other modules are
immutable named tuples: they unpack and iterate in field order, and
they compare equal to a plain tuple of the same values. The validated
types check their values in __new__, and _make and _replace go
through it too. Every operation is a pure function, so everything here
is safe to share across threads or processes without locking.

Units are Gaussian (CGS): E in statvolt/cm, B in gauss, mass density in
g/cm^3. Direction vectors and the susceptibility tensor chi are
dimensionless. The boost axis is fixed to +z by convention; BoostSpec
stores only the dimensionless speed beta = v/c. The grid_n rule of the
vacuum mode sums lives here too, so the config and the CLI check it
without loading the vacuum layer.
"""

from __future__ import annotations

import math
from collections import namedtuple

_isfinite = math.isfinite
_new = tuple.__new__


def _require_finite(label: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{label} must be finite, got {v!r}")


def _checked(typename: str, field_names: str):
    """A namedtuple base whose _make, and so _replace, calls the class.

    The plain namedtuple _make builds the tuple directly and would skip
    the validation a subclass __new__ does.
    """
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class Vec3(_checked("Vec3", "x y z")):
    __slots__ = ()

    def __new__(cls, x: float, y: float, z: float):
        # the hot record: test inline, call the helper only for its message
        if not (_isfinite(x) and _isfinite(y) and _isfinite(z)):
            _require_finite("Vec3 component", x, y, z)
        return _new(cls, (x, y, z))

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def as_tuple(self) -> tuple[float, float, float]:
        return tuple(self)


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


class Mat3(_checked("Mat3", "xx xy xz yx yy yz zx zy zz")):
    """3x3 real matrix, row-major fields xx..zz (row then column)."""

    __slots__ = ()

    def __new__(cls, xx, xy, xz, yx, yy, yz, zx, zy, zz):
        entries = (xx, xy, xz, yx, yy, yz, zx, zy, zz)
        if not (
            _isfinite(xx) and _isfinite(xy) and _isfinite(xz)
            and _isfinite(yx) and _isfinite(yy) and _isfinite(yz)
            and _isfinite(zx) and _isfinite(zy) and _isfinite(zz)
        ):
            _require_finite("Mat3 entry", *entries)
        return _new(cls, entries)

    @classmethod
    def zero(cls) -> "Mat3":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def mat_apply(m: Mat3, v: Vec3) -> Vec3:
    """Matrix-vector product M v (column-vector semantics)."""
    return Vec3(
        m.xx * v.x + m.xy * v.y + m.xz * v.z,
        m.yx * v.x + m.yy * v.y + m.yz * v.z,
        m.zx * v.x + m.zy * v.y + m.zz * v.z,
    )


def mat_t_apply(m: Mat3, v: Vec3) -> Vec3:
    """M^T v (that is v^T M) without building M^T: each component is the
    sum mat_apply forms at the transposed matrix, in the same order."""
    return Vec3(
        m.xx * v.x + m.yx * v.y + m.zx * v.z,
        m.xy * v.x + m.yy * v.y + m.zy * v.z,
        m.xz * v.x + m.yz * v.y + m.zz * v.z,
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


class Material(_checked("Material", "epsilon mu chi rho0")):
    """Intrinsic medium parameters in its rest frame.

    epsilon, mu: scalar permittivity and permeability (dimensionless,
    Gaussian). chi: magnetoelectric susceptibility tensor, dimensionless,
    no symmetry imposed. rho0: rest mass density in g/cm^3.
    """

    __slots__ = ()

    def __new__(cls, epsilon: float, mu: float, chi: Mat3, rho0: float):
        if not (_isfinite(epsilon) and _isfinite(mu) and _isfinite(rho0)):
            _require_finite("Material parameter", epsilon, mu, rho0)
        if epsilon <= 0.0:
            raise ValueError(f"epsilon must be > 0, got {epsilon!r}")
        if mu <= 0.0:
            raise ValueError(f"mu must be > 0, got {mu!r}")
        if rho0 <= 0.0:
            raise ValueError(f"rho0 must be > 0, got {rho0!r}")
        return _new(cls, (epsilon, mu, chi, rho0))

    @property
    def index(self) -> float:
        """Refractive index n = sqrt(epsilon mu)."""
        return math.sqrt(self.epsilon * self.mu)


class BoostSpec(_checked("BoostSpec", "beta")):
    """Uniform boost along +z at speed beta = v/c, |beta| < 1."""

    __slots__ = ()

    def __new__(cls, beta: float):
        _check_beta(beta)
        return _new(cls, (beta,))


def _check_beta(beta: float) -> None:
    """Raise ValueError unless beta is finite with |beta| < 1: the rule
    of BoostSpec, for a caller that checks a beta without the record."""
    # abs(nan) < 1.0 is false too, so one test passes every valid beta
    if not abs(beta) < 1.0:
        _require_finite("beta", beta)
        raise ValueError(f"|beta| must be < 1, got {beta!r}")


class FieldState(namedtuple("FieldState", "E B")):
    """Lab-frame field pair: E in statvolt/cm, B in gauss."""

    __slots__ = ()


# The largest grid_n any vacuum command builds. A grid holds about
# (pi/12) grid_n^3 +/-k pairs in a quarter as many orbits. grid_n 96,
# the finest grid of the convergence study, gives 231,700 pairs in
# 57,925 orbits, built and summed with every channel in 0.35-0.45 s at
# a peak RSS of 40 MB on a 2-vCPU Xeon; grid_n 128 gives about 550,000
# pairs.
# Larger requests, such as a cutoff sweep whose scaled grid outgrows
# this, are rejected before any grid is built.
MAX_GRID_N = 128


def _check_grid_n(grid_n, read=None) -> None:
    """Raise ValueError unless grid_n is an int in [2, MAX_GRID_N]; the
    message shows read, the value as the caller read it, if given."""
    # type(), since a bool is an int to isinstance
    if type(grid_n) is not int or not 2 <= grid_n <= MAX_GRID_N:
        raise ValueError(
            f"grid_n must be an integer in [2, MAX_GRID_N={MAX_GRID_N}],"
            f" got {grid_n if read is None else read!r}"
        )
