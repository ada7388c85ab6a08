"""Constant and field transforms: fixed points, goldens, invariances."""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import YHAT, add, scale
from moving_medium_reference import lab_fields, moving_constants
from vacmom import (
    BoostSpec,
    DegenerateBoost,
    FieldState,
    Mat3,
    Material,
    Vec3,
    cross,
    index_of,
    transform_constants,
    transform_fields,
)

CHI0 = Mat3.zero()


def _material(eps, mu):
    return Material(eps, mu, CHI0, 1.0)


def _vector_form(f, beta, order):
    """The boost in Vec3 operations. order "exact" is the reference the
    float arithmetic of transform_fields must match bit for bit, signed
    zeros included; "first_order" is E + beta x B, B - beta x E."""
    bvec = Vec3(0.0, 0.0, beta)
    if order == "first_order":
        return FieldState(add(f.E, cross(bvec, f.B)), f.B - cross(bvec, f.E))
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    e_par, e_perp = Vec3(0.0, 0.0, f.E.z), Vec3(f.E.x, f.E.y, 0.0)
    b_par, b_perp = Vec3(0.0, 0.0, f.B.z), Vec3(f.B.x, f.B.y, 0.0)
    return FieldState(
        add(e_par, scale(add(e_perp, cross(bvec, f.B)), gamma)),
        add(b_par, scale(b_perp - cross(bvec, f.E), gamma)),
    )


def test_zero_boost_is_bitwise_identity():
    m = _material(2.25, 1.0)
    tc = transform_constants(m, BoostSpec(0.0))
    assert tc.epsilon_prime == m.epsilon
    assert tc.mu_prime == m.mu
    assert tc._fields == ("epsilon_prime", "mu_prime")


def test_unit_index_is_fixed_point():
    # eps*mu = 1 exactly in floating point, so the boost factor is
    # (1+beta)/(1+beta) == 1.0 and the constants pass through exactly
    m = _material(2.0, 0.5)
    tc = transform_constants(m, BoostSpec(0.3))
    assert tc.epsilon_prime == 2.0
    assert tc.mu_prime == 0.5


def test_transform_constants_golden():
    # independent high precision evaluation: eps'=48/23, mu'=64/69
    tc = transform_constants(_material(2.25, 1.0), BoostSpec(0.1))
    assert math.isclose(tc.epsilon_prime, 2.0869565217391304, rel_tol=1e-14)
    assert math.isclose(tc.mu_prime, 0.927536231884058, rel_tol=1e-14)


def test_degenerate_boost_raises():
    m = _material(4.0, 1.0)  # n = 2
    with pytest.raises(DegenerateBoost):
        transform_constants(m, BoostSpec(-0.5))  # 1 + n beta = 0
    with pytest.raises(DegenerateBoost):
        transform_constants(m, BoostSpec(-0.6))  # 1 + n beta < 0


def test_index_of():
    m = _material(2.25, 1.0)
    assert index_of(transform_constants(m, BoostSpec(0.0))) == m.index
    assert index_of(transform_constants(_material(2.0, 0.5), BoostSpec(0.4))) == 1.0
    got = index_of(transform_constants(m, BoostSpec(0.1)))
    assert math.isclose(got, 1.3913043478260870, rel_tol=1e-14)
    assert math.isclose(got, (1.5 + 0.1) / (1.0 + 0.15), rel_tol=1e-14)


def test_transform_fields_zero_boost_identity():
    f = FieldState(Vec3(0.3, -1.2, 0.7), Vec3(-2.0, 0.1, 0.9))
    for out in (transform_fields(f, BoostSpec(0.0)), _vector_form(f, 0.0, "first_order")):
        assert out.E == f.E
        assert out.B == f.B


def test_first_order_reference_golden():
    f = FieldState(Vec3(0.0, 0.0, 0.0), YHAT)
    out = _vector_form(f, 0.01, "first_order")
    assert out.E == Vec3(-0.01, 0.0, 0.0)
    assert out.B == YHAT


def test_transform_fields_orders_agree_at_small_beta():
    # the library's exact boost against the first-order map of the tests
    f = FieldState(Vec3(1.0, -1.0, 0.5), Vec3(0.25, 1.0, -0.75))
    exact = transform_fields(f, BoostSpec(1e-6))
    first = _vector_form(f, 1e-6, "first_order")
    for u, v in ((exact.E, first.E), (exact.B, first.B)):
        for x, y in zip(u, v):
            assert abs(x - y) <= 1e-11


def test_transform_fields_takes_no_order():
    # the exact boost is the only one: the first-order map lives in the tests
    f = FieldState(YHAT, YHAT)
    with pytest.raises(TypeError):
        transform_fields(f, BoostSpec(0.1), "exact")


component = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


@settings(max_examples=150)
@given(
    st.floats(min_value=0.1, max_value=10, allow_nan=False),
    st.floats(min_value=0.1, max_value=10, allow_nan=False),
    st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
)
def test_impedance_invariance(eps, mu, beta):
    n = math.sqrt(eps * mu)
    assume(1.0 + n * beta > 0.0)
    tc = transform_constants(_material(eps, mu), BoostSpec(beta))
    assert abs(tc.epsilon_prime / tc.mu_prime - eps / mu) <= 1e-12 * (eps / mu)


@settings(max_examples=150)
@given(
    st.floats(min_value=0.3, max_value=3.0, allow_nan=False),
    st.floats(min_value=0.3, max_value=3.0, allow_nan=False),
    st.floats(min_value=-0.3, max_value=0.3, allow_nan=False),
    st.floats(min_value=-0.3, max_value=0.3, allow_nan=False),
)
def test_velocity_addition_composition(eps, mu, beta1, beta2):
    m = _material(eps, mu)
    n = m.index
    assume(n + beta1 > 1e-3)  # primed constants must stay positive
    tc1 = transform_constants(m, BoostSpec(beta1))
    m1 = _material(tc1.epsilon_prime, tc1.mu_prime)
    assume(m1.index + beta2 > 1e-3)
    # the composed index can exceed the original, so the second stage
    # needs its own denominator guard
    assume(1.0 + m1.index * beta2 > 1e-3)
    tc2 = transform_constants(m1, BoostSpec(beta2))
    combined = (beta1 + beta2) / (1.0 + beta1 * beta2)
    assume(m.index + combined > 1e-3)
    assume(1.0 + m.index * combined > 1e-3)
    tc_direct = transform_constants(m, BoostSpec(combined))
    assert math.isclose(index_of(tc2), index_of(tc_direct), rel_tol=1e-10)


@settings(max_examples=150)
@given(
    st.builds(Vec3, component, component, component),
    st.builds(Vec3, component, component, component),
    st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
)
def test_exact_transform_round_trip(e, b, beta):
    f = FieldState(e, b)
    there = transform_fields(f, BoostSpec(beta))
    back = transform_fields(there, BoostSpec(-beta))
    for u, v in ((back.E, f.E), (back.B, f.B)):
        for x, y in zip(u.as_tuple(), v.as_tuple()):
            assert abs(x - y) <= 1e-12 * max(1.0, abs(y))


# signed zeros and magnitudes from 1e-300 to 1e300, where the 0.0
# products and additions of the vector form decide the zeros' signs
_signed = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0)),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
)
_vectors = st.builds(Vec3, _signed, _signed, _signed)


@settings(max_examples=300)
@given(
    _vectors,
    _vectors,
    st.one_of(st.sampled_from((0.0, -0.0, 0.95, -0.95)), st.floats(-0.99, 0.99)),
)
def test_transform_fields_is_the_vector_form_bitwise(e, b, beta):
    f = FieldState(e, b)
    try:
        want = _vector_form(f, beta, "exact")
    except ValueError:  # a component overflows
        with pytest.raises(ValueError):
            transform_fields(f, BoostSpec(beta))
        return
    got = transform_fields(f, BoostSpec(beta))
    for u, v in ((got.E, want.E), (got.B, want.B)):
        assert [c.hex() for c in u] == [c.hex() for c in v]


# the constants are a few roundings from their inputs on both sides
_PLANE_WAVE_RTOL = 1e-13


def _plane_wave_draws():
    """Seeded (eps, mu, beta): eps and mu log-uniform in [0.1, 10], and
    |beta| n below 0.9, so that the boost at -beta is defined too."""
    rng = random.Random(1004)
    for _ in range(500):
        eps, mu = (10.0 ** rng.uniform(-1.0, 1.0) for _ in range(2))
        limit = 0.9 * min(1.0, 1.0 / math.sqrt(eps * mu))
        yield eps, mu, rng.uniform(-limit, limit)


def test_plane_waves_of_the_moving_medium_satisfy_the_minkowski_relations():
    # the oracle's own check: D - beta H = eps (E - beta B) and
    # B - beta E = mu (H - beta D) along x and y
    for eps, mu, beta in _plane_wave_draws():
        for direction in (1, -1):
            e, b, d, h = lab_fields(eps, mu, beta, direction)
            assert math.isclose(d - beta * h, eps * (e - beta * b), rel_tol=_PLANE_WAVE_RTOL)
            assert math.isclose(b - beta * e, mu * (h - beta * d), rel_tol=_PLANE_WAVE_RTOL)


def test_transform_constants_are_what_plane_waves_along_z_see():
    # the wave along +z sees the constants at beta, the one along -z
    # those at -beta
    for eps, mu, beta in _plane_wave_draws():
        m = _material(eps, mu)
        for direction in (1, -1):
            want = moving_constants(eps, mu, beta, direction)
            got = transform_constants(m, BoostSpec(direction * beta))
            assert math.isclose(got.epsilon_prime, want[0], rel_tol=_PLANE_WAVE_RTOL)
            assert math.isclose(got.mu_prime, want[1], rel_tol=_PLANE_WAVE_RTOL)
