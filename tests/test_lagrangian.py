"""Interaction density: exact and first-order forms, order verification."""

import math
import struct

import pytest

from conftest import XHAT, YHAT, diagonal, draw_config, make_rng, scale, transpose
from test_relativity import _vector_form
from vacmom import (
    ZHAT,
    BoostSpec,
    DegenerateGrid,
    ExpansionReport,
    FieldState,
    Mat3,
    Material,
    NonFiniteResult,
    Vec3,
    cross,
    isolate_mu_term,
    lagrangian,
    mat_apply,
    mat_t_apply,
    dot,
    me_density_exact,
    me_density_first_order,
    verify_expansion,
)
from vacmom.algebra import fit_loglog_slope

GRID = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2)

# antisymmetric coupling used in several goldens
CHI_A = Mat3(0.0, 1e-3, 0.0, -1e-3, 0.0, 0.0, 0.0, 0.0, 0.0)
M_GOLDEN = Material(2.25, 1.0, CHI_A, 1.0)
F_GOLDEN = FieldState(XHAT, YHAT)


def test_exact_density_zero_boost_reduces_to_rest_term():
    b = BoostSpec(0.0)
    expected = (1.0 / M_GOLDEN.mu) * dot(
        F_GOLDEN.B, mat_apply(transpose(M_GOLDEN.chi), F_GOLDEN.E)
    )
    assert me_density_exact(M_GOLDEN, F_GOLDEN, b) == expected


def test_exact_density_vanishes_without_coupling():
    m = Material(2.25, 1.0, Mat3.zero(), 1.0)
    f = FieldState(Vec3(0.3, -0.2, 0.0), Vec3(1.0, 0.4, 0.0))
    assert me_density_exact(m, f, BoostSpec(0.2)) == 0.0


def test_exact_density_golden():
    # frozen from an arbitrary-precision evaluation of the same composition
    got = me_density_exact(M_GOLDEN, F_GOLDEN, BoostSpec(0.01))
    assert math.isclose(got, 0.0009883122418202085, rel_tol=1e-13)


def test_first_order_pieces_zero_boost():
    bk = me_density_first_order(M_GOLDEN, F_GOLDEN, BoostSpec(0.0))
    assert bk.mixing == 0.0
    assert bk.mu_correction == 0.0
    assert bk.total_first_order == bk.zeroth
    assert bk.zeroth == 1e-3


def test_first_order_golden_pieces():
    bk = me_density_first_order(M_GOLDEN, F_GOLDEN, BoostSpec(0.01))
    assert math.isclose(bk.zeroth, 1e-3, rel_tol=1e-15)
    assert math.isclose(bk.mixing, -2e-5, rel_tol=1e-14)
    assert math.isclose(bk.mu_correction, 8.333333333333334e-06, rel_tol=1e-14)
    assert bk.total_first_order == bk.zeroth + bk.mixing + bk.mu_correction


def test_mu_correction_closed_form_golden():
    m = Material(2.25, 1.0, diagonal(1e-3, 1e-3, 1e-3), 1.0)
    bk = me_density_first_order(m, FieldState(XHAT, XHAT), BoostSpec(0.01))
    assert math.isclose(bk.mu_correction, 8.333333333333334e-06, rel_tol=1e-14)


def test_mu_correction_vanishes_at_unit_index():
    # dyadic pairs make eps*mu == 1.0 exactly, so n - 1/n is exactly zero
    for eps, mu in ((2.0, 0.5), (4.0, 0.25), (1.0, 1.0), (0.5, 2.0)):
        m = Material(eps, mu, CHI_A, 1.0)
        bk = me_density_first_order(m, F_GOLDEN, BoostSpec(0.07))
        assert bk.mu_correction == 0.0


def test_mu_correction_tiny_when_index_near_unity():
    chi = Mat3(0.0, 0.5, 0.0, -0.5, 0.0, 0.0, 0.0, 0.0, 0.0)
    m = Material(1.0 + 5e-15, 1.0, chi, 1.0)
    assert abs(m.epsilon * m.mu - 1.0) <= 1e-14
    bk = me_density_first_order(m, F_GOLDEN, BoostSpec(0.1))
    assert abs(bk.mu_correction) <= 1e-15


def test_scalar_chi_leaves_no_mixing():
    # for chi = c*I both cross products involve parallel vectors
    m = Material(2.25, 1.0, diagonal(0.2, 0.2, 0.2), 1.0)
    f = FieldState(Vec3(0.3, -0.4, 0.1), Vec3(0.7, 0.2, -0.5))
    bk = me_density_first_order(m, f, BoostSpec(0.03))
    assert abs(bk.mixing) <= 1e-15 * abs(bk.zeroth)


def test_breakdown_bilinearity_piecewise():
    rng = make_rng(31)
    for _ in range(50):
        m, f = draw_config(rng)
        beta = float(rng.uniform(1e-3, 0.5))
        s = float(rng.uniform(0.1, 10.0))
        b = BoostSpec(beta)
        base = me_density_first_order(m, f, b)
        scaled_e = me_density_first_order(m, FieldState(scale(f.E, s), f.B), b)
        # zeroth and mu_correction are linear in E
        assert math.isclose(scaled_e.zeroth, s * base.zeroth, rel_tol=1e-12, abs_tol=1e-300)
        assert math.isclose(
            scaled_e.mu_correction, s * base.mu_correction, rel_tol=1e-12, abs_tol=1e-300
        )
        # the mixing term splits into a B-quadratic part (E independent)
        # and an E-quadratic part; test each in isolation
        zero = Vec3(0.0, 0.0, 0.0)
        b_part = me_density_first_order(m, FieldState(zero, f.B), b).mixing
        e_part = me_density_first_order(m, FieldState(f.E, zero), b).mixing
        b_part_scaled = me_density_first_order(
            m, FieldState(zero, scale(f.B, s)), b
        ).mixing
        e_part_scaled = me_density_first_order(
            m, FieldState(scale(f.E, s), zero), b
        ).mixing
        assert math.isclose(b_part_scaled, s * s * b_part, rel_tol=1e-12, abs_tol=1e-300)
        assert math.isclose(e_part_scaled, s * s * e_part, rel_tol=1e-12, abs_tol=1e-300)


def test_degenerate_fields_are_legal():
    zero = Vec3(0.0, 0.0, 0.0)
    f = FieldState(zero, zero)
    assert me_density_exact(M_GOLDEN, f, BoostSpec(0.3)) == 0.0
    assert me_density_first_order(M_GOLDEN, f, BoostSpec(0.3)).total_first_order == 0.0


def test_verify_expansion_grid_validation():
    with pytest.raises(DegenerateGrid):
        verify_expansion(M_GOLDEN, F_GOLDEN, (1e-4, 1e-3))
    with pytest.raises(DegenerateGrid):
        verify_expansion(M_GOLDEN, F_GOLDEN, (1e-4, 1e-3, 0.2))
    with pytest.raises(DegenerateGrid):
        verify_expansion(M_GOLDEN, F_GOLDEN, (1e-4, 1e-3, -1e-2))
    with pytest.raises(DegenerateGrid):
        verify_expansion(M_GOLDEN, F_GOLDEN, (1e-3, 1e-4, 1e-2))


def test_verify_expansion_golden_config():
    rep = verify_expansion(M_GOLDEN, F_GOLDEN, GRID)
    assert not rep.identically_zero
    assert rep.slope is not None
    assert 1.9 <= rep.slope <= 2.1
    assert rep.derivative_rel <= 1e-8
    assert len(rep.residuals) == len(GRID)
    # residuals grow roughly like beta^2 across the grid
    assert rep.residuals[-1] > rep.residuals[0] * 1e3


def test_verify_expansion_flags_identically_zero():
    m = Material(2.25, 1.0, Mat3.zero(), 1.0)
    rep = verify_expansion(m, F_GOLDEN, GRID)
    assert rep.identically_zero
    assert rep.slope is None
    assert all(r == 0.0 for r in rep.residuals)
    assert rep.derivative_delta == 0.0


def test_verify_expansion_unit_index_still_second_order():
    # eps*mu == 1 removes the mu correction but not the O(beta^2) remainder
    m = Material(2.0, 0.5, CHI_A, 1.0)
    rep = verify_expansion(m, F_GOLDEN, GRID)
    assert not rep.identically_zero
    assert 1.9 <= rep.slope <= 2.1
    assert rep.derivative_rel <= 1e-8
    bk = me_density_first_order(m, F_GOLDEN, BoostSpec(1e-2))
    assert bk.mu_correction == 0.0


def test_isolate_mu_term_degenerate_cases():
    assert isolate_mu_term(M_GOLDEN, F_GOLDEN, BoostSpec(0.0)) == 0.0
    m = Material(2.0, 0.5, CHI_A, 1.0)
    for beta in (0.1, 0.3, -0.2):
        assert isolate_mu_term(m, F_GOLDEN, BoostSpec(beta)) == 0.0


def test_isolate_mu_term_tracks_mu_correction():
    # unit B.chi^T E: chi_xy couples E=x to B=y through the transpose
    chi = Mat3(0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    m = Material(2.25, 1.0, chi, 1.0)
    f = FieldState(XHAT, YHAT)
    assert dot(f.B, mat_apply(transpose(m.chi), f.E)) == 1.0
    b = BoostSpec(1e-3)
    iso = isolate_mu_term(m, f, b)
    muc = me_density_first_order(m, f, b).mu_correction
    # remainder is O(beta^2); on this configuration about 5.6e-7
    assert abs(iso - muc) <= 1e-6
    assert abs(iso - muc) / abs(muc) <= 1e-3


def _first_order_reference(m, f, beta):
    """The first-order pieces (zeroth, mixing, mu_correction, total) as
    one expression per beta, each operation in the library's order."""
    chi_t_e = mat_t_apply(m.chi, f.E)
    bce = dot(f.B, chi_t_e)
    zeroth = (1.0 / m.mu) * bce
    mixing = (beta / m.mu) * (
        dot(f.B, mat_t_apply(m.chi, cross(ZHAT, f.B))) + dot(cross(f.E, ZHAT), chi_t_e)
    )
    n = m.index
    mu_correction = (beta / m.mu) * (n - 1.0 / n) * bce
    return zeroth, mixing, mu_correction, zeroth + mixing + mu_correction


def _exact_reference(m, f, beta):
    """(1/mu') B' . chi^T E' from the tests' own arithmetic, at beta != 0:
    mu' = sqrt(mu/eps) ((n + beta) / (1 + n beta)) and the Vec3 boost of
    test_relativity, none of it through relativity's per-beta parts."""
    n = m.index
    mu_prime = math.sqrt(m.mu / m.epsilon) * ((n + beta) / (1.0 + n * beta))
    fp = _vector_form(f, beta, "exact")
    return (1.0 / mu_prime) * dot(fp.B, mat_t_apply(m.chi, fp.E))


def _verify_expansion_reference(m, f, grid):
    """verify_expansion on a valid grid as a loop that forms both
    densities afresh at each beta: the rate from the first beta, then
    the central difference at +-h."""
    try:
        residuals = []
        for beta in grid:
            exact = _exact_reference(m, f, beta)
            _, mixing, mu_correction, total = _first_order_reference(m, f, beta)
            if not residuals:
                rate = (mixing + mu_correction) / beta
            residuals.append(abs(exact - total))
        h = min(1e-6, 0.5 / m.index)
        fd = (_exact_reference(m, f, h) - _exact_reference(m, f, -h)) / (2.0 * h)
    except (ValueError, ZeroDivisionError):
        raise NonFiniteResult(lagrangian._out_of_range(m, f)) from None
    delta = abs(fd - rate)
    if not (delta < math.inf and all(r < math.inf for r in residuals)):
        raise NonFiniteResult(lagrangian._out_of_range(m, f))
    scale = max(abs(fd), abs(rate))
    return ExpansionReport(
        beta_grid=tuple(grid),
        residuals=tuple(residuals),
        slope=fit_loglog_slope(grid, residuals),
        derivative_delta=delta,
        derivative_rel=delta / scale if scale > 0.0 else 0.0,
        identically_zero=not any(residuals),
    )


def _bits(value):
    """value with every float replaced by its IEEE bytes, so -0.0 != 0.0
    and a nan equals the same nan."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    return value


def _outcome(call, *args):
    try:
        return "report", _bits(call(*args))
    except Exception as exc:
        return "raised", type(exc), str(exc)


def _expansion_cases():
    """Seeded (material, fields, grid) draws: generic, chi = 0, unit
    index, n from 5e5 to 1e7 (the probe step becomes 0.5 / n), fields
    from 1e-150 to 1e150, and inputs whose densities leave the float
    range."""
    rng = make_rng(2311)
    for i in range(240):
        m, f = draw_config(rng)
        kind = i % 8
        if kind == 1:
            m = Material(m.epsilon, m.mu, Mat3.zero(), 1.0)
        elif kind == 2:
            eps = (0.25, 0.5, 1.0, 2.0, 4.0)[i % 5]
            m = Material(eps, 1.0 / eps, m.chi, 1.0)
        elif kind == 3:
            m = Material(float(rng.uniform(2.5e11, 1e14)) / m.mu, m.mu, m.chi, 1.0)
        elif kind == 4:
            s = 10.0 ** float(rng.uniform(-150.0, 150.0))
            f = FieldState(scale(f.E, s), scale(f.B, s))
        elif kind == 5:
            # past 1e154 the field bilinears overflow; at 1e308 chi^T E does
            s = (1e200, 1e308)[i % 2]
            f = FieldState(scale(f.E, s), scale(f.B, s))
        elif kind == 6:
            # eps mu underflows to 0, so 1/n has no value
            m = Material(4.4e-289, 4.1e-68, m.chi, 1.0)
        if i % 3 == 0:
            exponents = sorted(rng.choice(range(-9, 0), int(rng.integers(3, 6)), replace=False))
            grid = tuple(float(10.0 ** (e - rng.random())) for e in exponents)
        else:
            grid = GRID
        yield m, f, grid


def test_verify_expansion_is_the_per_beta_loop_bit_for_bit():
    kinds = set()
    for m, f, grid in _expansion_cases():
        got = _outcome(verify_expansion, m, f, grid)
        assert got == _outcome(_verify_expansion_reference, m, f, grid), (m, f, grid)
        for beta in grid:
            assert _outcome(me_density_first_order, m, f, BoostSpec(beta)) == _outcome(
                _first_order_reference, m, f, beta
            )
            assert _outcome(me_density_exact, m, f, BoostSpec(beta)) == _outcome(
                _exact_reference, m, f, beta
            )
        kinds.add(got[0] if got[0] == "raised" else ("report", got[1][-1]))
    # every kind of outcome came up: a fitted report, an identically
    # zero one and a NonFiniteResult
    assert kinds == {("report", False), ("report", True), "raised"}
