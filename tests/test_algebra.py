"""Vector and matrix primitives plus domain type validation."""

import math
import statistics
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import XHAT, YHAT, diagonal, neg, norm
from vacmom import (
    BoostSpec,
    Mat3,
    Material,
    Vec3,
    ZHAT,
    cross,
    dot,
    mat_apply,
)
from vacmom.algebra import fit_slope

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
vectors = st.builds(Vec3, finite, finite, finite)
matrices = st.builds(Mat3, *([finite] * 9))


def test_dot_examples():
    assert dot(XHAT, YHAT) == 0.0
    assert dot(Vec3(1.0, 2.0, 3.0), Vec3(1.0, 2.0, 3.0)) == 14.0
    assert dot(Vec3(1.0, 2.0, 3.0), Vec3(4.0, 5.0, 6.0)) == 32.0


def test_cross_examples():
    assert cross(XHAT, YHAT) == ZHAT
    a = Vec3(0.7, -1.2, 3.4)
    assert cross(a, a) == Vec3(0.0, 0.0, 0.0)
    assert cross(Vec3(1.0, 2.0, 3.0), Vec3(4.0, 5.0, 6.0)) == Vec3(-3.0, 6.0, -3.0)


@given(vectors, vectors)
def test_cross_antisymmetry_exact(a, b):
    assert cross(a, b) == neg(cross(b, a))


def test_mat_apply_examples():
    v = Vec3(0.3, -2.0, 5.5)
    assert mat_apply(diagonal(1.0, 1.0, 1.0), v) == v
    assert mat_apply(Mat3.zero(), v) == Vec3(0.0, 0.0, 0.0)
    assert mat_apply(diagonal(1.0, 2.0, 3.0), Vec3(1.0, 1.0, 1.0)) == Vec3(1.0, 2.0, 3.0)


def _triple(a, b, c):
    """Scalar triple product a . (b x c)."""
    return dot(a, cross(b, c))


def test_triple_examples():
    assert _triple(XHAT, YHAT, ZHAT) == 1.0
    a = Vec3(0.4, 1.1, -0.2)
    c = Vec3(2.0, 3.0, 4.0)
    # repeated argument collapses the parallelepiped; the cross pair is
    # exactly zero, the mixed pair only up to round-off
    assert _triple(a, c, c) == 0.0
    assert abs(_triple(a, a, c)) <= 1e-15 * norm(a) ** 2 * norm(c)
    assert _triple(Vec3(1, 0, 0), Vec3(1, 1, 0), Vec3(1, 1, 1)) == 1.0


@settings(max_examples=200)
@given(vectors, vectors, vectors)
def test_triple_cyclic(a, b, c):
    # the cyclic identity vector_form_density relies on
    scale = norm(a) * norm(b) * norm(c)
    assert abs(_triple(a, b, c) - _triple(c, a, b)) <= 1e-12 * max(scale, 1e-30)


@given(matrices)
def test_transpose_involution_exact(m):
    assert m.transpose().transpose() == m


def test_vec3_rejects_non_finite():
    with pytest.raises(ValueError):
        Vec3(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        Vec3(0.0, float("inf"), 0.0)


def test_mat3_rejects_non_finite():
    with pytest.raises(ValueError):
        Mat3(0, 0, 0, 0, float("nan"), 0, 0, 0, 0)


def test_material_validation():
    chi = Mat3.zero()
    with pytest.raises(ValueError):
        Material(-1.0, 1.0, chi, 1.0)
    with pytest.raises(ValueError):
        Material(0.0, 1.0, chi, 1.0)
    with pytest.raises(ValueError):
        Material(1.0, -2.0, chi, 1.0)
    with pytest.raises(ValueError):
        Material(1.0, 1.0, chi, 0.0)
    with pytest.raises(ValueError):
        Material(float("inf"), 1.0, chi, 1.0)
    m = Material(2.25, 1.0, chi, 1.0)
    assert m.index == 1.5


def test_boost_validation():
    with pytest.raises(ValueError):
        BoostSpec(1.0)
    with pytest.raises(ValueError):
        BoostSpec(-1.2)
    with pytest.raises(ValueError):
        BoostSpec(float("nan"))
    assert BoostSpec(0.999).beta == 0.999


def test_mat3_from_rows_round_trip():
    rows = ((1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0, 8.0, 9.0))
    assert Mat3(*(x for row in rows for x in row)).rows() == rows


def test_vec3_arithmetic():
    a = Vec3(1.0, 2.0, 3.0)
    b = Vec3(0.5, -1.0, 2.0)
    assert a + b == Vec3(1.5, 1.0, 5.0)
    assert a - b == Vec3(0.5, 3.0, 1.0)
    assert a.scale(2.0) == Vec3(2.0, 4.0, 6.0)
    assert neg(a) == Vec3(-1.0, -2.0, -3.0)
    assert math.isclose(norm(Vec3(3.0, 4.0, 0.0)), 5.0, rel_tol=1e-15)


# log-log fit points: logs of cutoffs or betas, with repeated and constant xs
_log = st.floats(min_value=-700.0, max_value=700.0, allow_nan=False, allow_infinity=False)
_points = st.lists(
    st.tuples(st.one_of(st.sampled_from((-9.2, 0.0, 5.5)), _log), _log), max_size=12
)


@settings(max_examples=200, deadline=None)
@given(_points)
@example([(-9.2, 1.0), (-9.2, 3.0)])  # x constant
@example([(-9.2, 1.0)])
@example([])
def test_fit_slope_matches_statistics(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    slope = fit_slope(xs, ys)
    try:
        reference = statistics.linear_regression(xs, ys).slope
    except statistics.StatisticsError:  # fewer than two points, or x constant
        assert slope is None
        return
    if sys.version_info < (3, 12):
        assert slope.hex() == reference.hex()
    else:
        # 3.12 forms sxy and sxx with sumprod, which rounds differently:
        # an error in sxy of a few ulp of sqrt(sxx syy) moves the slope
        # by as many ulp of sqrt(syy / sxx)
        xbar, ybar = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
        sxx = math.fsum((x - xbar) ** 2 for x in xs)
        syy = math.fsum((y - ybar) ** 2 for y in ys)
        assert math.isclose(slope, reference, rel_tol=1e-12, abs_tol=1e-12 * math.sqrt(syy / sxx))
