"""Vector and matrix primitives plus domain type validation."""

import dataclasses
import importlib
import math
import pkgutil
import statistics
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vacmom
from conftest import XHAT, YHAT, add, diagonal, neg, norm, scale, transpose
from vacmom import (
    Bilinears,
    BoostSpec,
    FieldState,
    Mat3,
    Material,
    Vec3,
    ZHAT,
    build_mode_set,
    cross,
    dot,
    mat_apply,
    mat_t_apply,
    medium_velocity,
    me_density_first_order,
    parse_config,
    sweep_sums,
    transform_constants,
    vacuum_bilinears,
    verify_expansion,
)
from vacmom.algebra import fit_slope

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
vectors = st.builds(Vec3, finite, finite, finite)
matrices = st.builds(Mat3, *([finite] * 9))
# signed zeros, subnormals and magnitudes whose products still fit a float
wide = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False, allow_infinity=False)


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
    # the cyclic identity that turns me_density_first_order's mixing
    # bracket into z . (B x chi B - E x chi^T E)
    scale = norm(a) * norm(b) * norm(c)
    assert abs(_triple(a, b, c) - _triple(c, a, b)) <= 1e-12 * max(scale, 1e-30)


@given(st.builds(Mat3, *([wide] * 9)), st.builds(Vec3, wide, wide, wide))
def test_mat_t_apply_is_mat_apply_of_the_transpose_bitwise(m, v):
    got = [c.hex() for c in mat_t_apply(m, v)]
    assert got == [c.hex() for c in mat_apply(transpose(m), v)]


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
    m = Mat3(*(x for row in rows for x in row))
    assert ((m.xx, m.xy, m.xz), (m.yx, m.yy, m.yz), (m.zx, m.zy, m.zz)) == rows


def test_vec3_arithmetic():
    a = Vec3(1.0, 2.0, 3.0)
    b = Vec3(0.5, -1.0, 2.0)
    assert add(a, b) == Vec3(1.5, 1.0, 5.0)
    assert a - b == Vec3(0.5, 3.0, 1.0)
    assert scale(a, 2.0) == Vec3(2.0, 4.0, 6.0)
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


# (valid record, field changes that make it invalid, the ValueError message)
_NAN, _INF = float("nan"), float("inf")
_V = Vec3(1.0, 2.0, 3.0)
_M = Mat3(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0)
_MAT = Material(2.25, 1.0, _M, 1.0)
_B = BoostSpec(0.5)
INVALID = [
    (_V, {"x": _NAN}, "Vec3 component must be finite, got nan"),
    (_V, {"y": -_INF}, "Vec3 component must be finite, got -inf"),
    (_V, {"z": _INF}, "Vec3 component must be finite, got inf"),
    (_M, {"yy": _NAN}, "Mat3 entry must be finite, got nan"),
    (_M, {"zz": -_INF}, "Mat3 entry must be finite, got -inf"),
    (_MAT, {"epsilon": _INF}, "Material parameter must be finite, got inf"),
    (_MAT, {"rho0": _NAN}, "Material parameter must be finite, got nan"),
    (_MAT, {"epsilon": 0.0}, "epsilon must be > 0, got 0.0"),
    (_MAT, {"mu": -2.0}, "mu must be > 0, got -2.0"),
    (_MAT, {"rho0": -0.0}, "rho0 must be > 0, got -0.0"),
    (_B, {"beta": _NAN}, "beta must be finite, got nan"),
    (_B, {"beta": -_INF}, "beta must be finite, got -inf"),
    (_B, {"beta": 1.0}, "|beta| must be < 1, got 1.0"),
    (_B, {"beta": -1.2}, "|beta| must be < 1, got -1.2"),
]


@pytest.mark.parametrize("how", ["positional", "keyword", "_make", "_replace"])
@pytest.mark.parametrize(
    "valid, changes, message",
    INVALID,
    ids=[f"{type(v).__name__}-{k}={x}" for v, c, _ in INVALID for k, x in c.items()],
)
def test_every_construction_path_validates(valid, changes, message, how):
    # a plain namedtuple _make, which _replace calls, skips __new__
    cls = type(valid)
    values = {**valid._asdict(), **changes}
    build = {
        "positional": lambda: cls(*values.values()),
        "keyword": lambda: cls(**values),
        "_make": lambda: cls._make(values.values()),
        "_replace": lambda: valid._replace(**changes),
    }[how]
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_valid_records_rebuild_through_every_path():
    for valid in (_V, _M, _MAT, _B):
        cls = type(valid)
        assert cls._make(valid) == valid == cls(**valid._asdict())
        assert type(valid._replace()) is cls


def _records():
    """One instance of every record type of the library."""
    cfg = parse_config(
        {
            "material": {"epsilon": 2.25, "mu": 1.0, "chi": list(_M), "rho0": 1.0},
            "fields": {"E": [1.0, 0.0, 0.0], "B": [0.0, 1.0, 0.0]},
            "vacuum": {"grid_n": 4, "cutoff": 1e5, "volume": 1.0},
            "sweep": {"parameter": "beta", "values": [1e-3, 1e-2, 3e-2]},
        }
    )
    m, f = cfg.material, cfg.fields
    return [
        f.E,
        m.chi,
        m,
        _B,
        f,
        transform_constants(m, _B),
        me_density_first_order(m, f, _B),
        verify_expansion(m, f, cfg.sweep.values),
        medium_velocity(m, f),
        Bilinears(f.E, f.E, f.B, 0.0),
        cfg.vacuum,
        cfg.sweep,
        cfg,
        build_mode_set(m, 4, 1e5, 1.0),
        sweep_sums(build_mode_set(m, 4, 1e5, 1.0), m),
        vacuum_bilinears(build_mode_set(m, 4, 1e5, 1.0), m),
    ]


def test_records_are_immutable():
    records = _records()
    assert len({type(r) for r in records}) == 16
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], getattr(record, record._fields[-1]))
        with pytest.raises(AttributeError):
            record.extra = 1.0


def test_records_are_tuples_with_signed_zero_reprs():
    v = Vec3(0.0, -0.0, 1.0)
    assert repr(v) == "Vec3(x=0.0, y=-0.0, z=1.0)"
    assert repr(FieldState(v, Vec3(-0.0, 0.0, -0.0))) == (
        "FieldState(E=Vec3(x=0.0, y=-0.0, z=1.0), B=Vec3(x=-0.0, y=0.0, z=-0.0))"
    )
    assert repr(BoostSpec(-0.0)) == "BoostSpec(beta=-0.0)"
    x, y, z = v
    assert (x, y, z) == v == (0.0, 0.0, 1.0)
    assert hash(v) == hash((0.0, 0.0, 1.0))


def test_no_class_is_a_dataclass():
    # a record that turns back into a dataclass shows only as import time
    classes = {
        obj
        for info in pkgutil.iter_modules(vacmom.__path__)
        if info.name != "__main__"
        for obj in vars(importlib.import_module(f"vacmom.{info.name}")).values()
        if isinstance(obj, type) and obj.__module__.startswith("vacmom.")
    }
    assert [c for c in classes if dataclasses.is_dataclass(c)] == []
    assert len(classes) > 14
