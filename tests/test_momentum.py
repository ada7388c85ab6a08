"""Medium-velocity assembly, term attribution, and the consistency check."""

import math

from conftest import XHAT, YHAT, diagonal, draw_config, make_rng, neg, transpose
from vacmom.constants import C_LIGHT, FOUR_PI
from vacmom import (
    BoostSpec,
    FieldState,
    Mat3,
    Material,
    Vec3,
    ZHAT,
    cross,
    dot,
    lagrangian_consistency_check,
    mat_apply,
    medium_velocity,
    me_density_first_order,
    term_ratio_of,
)

CHI_G = Mat3(0.0, 1e-4, 0.0, -1e-4, 0.0, 0.0, 0.0, 0.0, 0.0)
M_GOLDEN = Material(2.25, 1.0, CHI_G, 1.0)
F_GOLDEN = FieldState(XHAT, YHAT)


def _rotate_z(v, c, s):
    return Vec3(c * v.x - s * v.y, s * v.x + c * v.y, v.z)


def _rotate_mat_z(m, c, s):
    r = Mat3(c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0)
    rt = transpose(r)
    cols = tuple(mat_apply(m, Vec3(*col)) for col in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    rot_cols = tuple(mat_apply(r, w) for w in cols)
    # build R m R^T column by column: columns of m R^T are R applied to
    # combinations picked out by rows of R^T, i.e. columns of R
    out_cols = []
    for j in range(3):
        rj = (r.xx, r.yx, r.zx)[j], (r.xy, r.yy, r.zy)[j], (r.xz, r.yz, r.zz)[j]
        col = Vec3(
            rot_cols[0].x * rj[0] + rot_cols[1].x * rj[1] + rot_cols[2].x * rj[2],
            rot_cols[0].y * rj[0] + rot_cols[1].y * rj[1] + rot_cols[2].y * rj[2],
            rot_cols[0].z * rj[0] + rot_cols[1].z * rj[1] + rot_cols[2].z * rj[2],
        )
        out_cols.append(col)
    c0, c1, c2 = out_cols
    return Mat3(c0.x, c1.x, c2.x, c0.y, c1.y, c2.y, c0.z, c1.z, c2.z)


def test_vacuum_like_medium_is_inert():
    m = Material(1.0, 1.0, Mat3.zero(), 1.0)
    res = medium_velocity(m, FieldState(XHAT, YHAT))
    assert res.rhs_vector == Vec3(0.0, 0.0, 0.0)
    assert res.v_z == 0.0
    assert res.mu_term_z == 0.0


def test_crossed_fields_without_coupling():
    m = Material(2.25, 1.5, Mat3.zero(), 2.0)
    e0, b0 = 0.7, 1.3
    res = medium_velocity(m, FieldState(Vec3(e0, 0, 0), Vec3(0, b0, 0)))
    want = (m.epsilon * m.mu - 1.0) * e0 * b0 / (FOUR_PI * m.mu * C_LIGHT * m.rho0)
    assert math.isclose(res.v_z, want, rel_tol=1e-14)
    assert res.transverse_residual == 0.0
    assert res.chi_E_term == Vec3(0.0, 0.0, 0.0)
    assert res.chi_B_term == Vec3(0.0, 0.0, 0.0)
    assert res.mu_term_z == 0.0


def test_classical_golden_attribution():
    res = medium_velocity(M_GOLDEN, F_GOLDEN)
    assert math.isclose(res.abraham_minkowski_term.z, 3.3180234117975904e-12, rel_tol=1e-13)
    assert math.isclose(res.chi_E_term.z, 2.654418729438072e-16, rel_tol=1e-13)
    assert math.isclose(res.chi_B_term.z, 2.654418729438072e-16, rel_tol=1e-13)
    assert math.isclose(res.mu_term_z, -2.2120156078650602e-16, rel_tol=1e-13)
    assert math.isclose(res.v_z, 3.3183330939826914e-12, rel_tol=1e-13)
    ratio = term_ratio_of(res)
    assert math.isclose(ratio, 6.665600170639365e-05, rel_tol=1e-13)


def test_rhs_recomposes_from_terms_bitwise():
    rng = make_rng(5)
    for _ in range(100):
        m, f = draw_config(rng)
        res = medium_velocity(m, f)
        total = res.abraham_minkowski_term + res.chi_E_term + res.chi_B_term
        total = total + Vec3(0.0, 0.0, res.mu_term_z)
        assert res.rhs_vector == total.scale(1.0 / m.rho0)
        assert res.v_z == res.rhs_vector.z
        r = res.rhs_vector
        assert res.transverse_residual == (r.x * r.x + r.y * r.y) ** 0.5


def test_unit_index_kills_mu_term():
    for eps, mu in ((2.0, 0.5), (4.0, 0.25), (0.5, 2.0)):
        m = Material(eps, mu, CHI_G, 1.0)
        res = medium_velocity(m, F_GOLDEN)
        assert res.mu_term_z == 0.0


def test_field_scaling_is_quadratic():
    rng = make_rng(9)
    for _ in range(50):
        m, f = draw_config(rng)
        s = float(rng.uniform(0.1, 10.0))
        base = medium_velocity(m, f)
        scaled = medium_velocity(m, FieldState(f.E.scale(s), f.B.scale(s)))
        assert math.isclose(scaled.v_z, s * s * base.v_z, rel_tol=1e-12, abs_tol=1e-300)
        assert math.isclose(
            scaled.mu_term_z, s * s * base.mu_term_z, rel_tol=1e-12, abs_tol=1e-300
        )


def test_mu_term_invariant_under_rotation_about_flow_axis():
    rng = make_rng(13)
    for _ in range(50):
        m, f = draw_config(rng)
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        c, s = math.cos(theta), math.sin(theta)
        m_rot = Material(m.epsilon, m.mu, _rotate_mat_z(m.chi, c, s), m.rho0)
        f_rot = FieldState(_rotate_z(f.E, c, s), _rotate_z(f.B, c, s))
        a = medium_velocity(m, f)
        b = medium_velocity(m_rot, f_rot)
        assert math.isclose(b.mu_term_z, a.mu_term_z, rel_tol=1e-12, abs_tol=1e-300)
        assert math.isclose(b.v_z, a.v_z, rel_tol=1e-10, abs_tol=1e-300)


def test_axial_fields_leave_only_mu_term():
    # E and B along z with diagonal chi: every cross product vanishes
    m = Material(2.25, 1.0, diagonal(0.1, 0.2, 0.3), 1.0)
    f = FieldState(ZHAT.scale(0.5), ZHAT.scale(2.0))
    res = medium_velocity(m, f)
    assert res.abraham_minkowski_term == Vec3(0.0, 0.0, 0.0)
    assert res.chi_E_term == Vec3(0.0, 0.0, 0.0)
    assert res.chi_B_term == Vec3(0.0, 0.0, 0.0)
    bce = dot(f.B, mat_apply(transpose(m.chi), f.E))
    n = m.index
    want = -(n - 1.0 / n) * bce / (FOUR_PI * m.mu * C_LIGHT)
    assert math.isclose(res.v_z, want, rel_tol=1e-14)


def test_magnetic_reversal_flips_signed_terms():
    rng = make_rng(21)
    for _ in range(50):
        m, f = draw_config(rng)
        a = medium_velocity(m, f)
        b = medium_velocity(m, FieldState(f.E, neg(f.B)))
        # terms linear in B flip sign exactly, the B-quadratic one does not
        assert b.abraham_minkowski_term == neg(a.abraham_minkowski_term)
        assert b.mu_term_z == -a.mu_term_z
        assert b.chi_E_term == a.chi_E_term
        assert b.chi_B_term == a.chi_B_term


def test_term_ratio_golden_and_degenerate():
    assert term_ratio_of(medium_velocity(M_GOLDEN, F_GOLDEN)) > 0.0
    zero = Vec3(0.0, 0.0, 0.0)
    assert term_ratio_of(medium_velocity(M_GOLDEN, FieldState(zero, zero))) is None


def test_consistency_check_without_coupling():
    m = Material(2.25, 1.3, Mat3.zero(), 1.0)
    f = FieldState(Vec3(0.3, -0.2, 0.1), Vec3(1.0, 0.4, -0.6))
    assert lagrangian_consistency_check(m, f) == 0.0


def test_consistency_check_small_on_seeded_configs():
    rng = make_rng(1)
    for _ in range(100):
        m, f = draw_config(rng)
        res = medium_velocity(m, f)
        scale = abs(res.chi_E_term.z) + abs(res.chi_B_term.z) + abs(res.mu_term_z)
        check = lagrangian_consistency_check(m, f)
        rel = check / scale if scale > 0.0 else 0.0
        assert rel <= 1e-8


def test_consistency_check_scales_quadratically_with_fields():
    m, f = draw_config(make_rng(3))
    a = lagrangian_consistency_check(m, f)
    b = lagrangian_consistency_check(m, FieldState(f.E.scale(10.0), f.B.scale(10.0)))
    # the residual is roundoff on a quadratic-in-fields quantity
    assert b <= 200.0 * a + 1e-25


def test_velocity_reacts_to_first_order_density_slope():
    # cross-check attribution against a central difference of the vector form
    m, f = draw_config(make_rng(8))
    bp = 1e-4
    plus = me_density_first_order(m, f, BoostSpec(bp))
    minus = me_density_first_order(m, f, BoostSpec(-bp))
    deriv = (
        (plus.mixing + plus.mu_correction) - (minus.mixing + minus.mu_correction)
    ) / (2.0 * C_LIGHT * bp)
    res = medium_velocity(m, f)
    chi_part = res.chi_E_term.z + res.chi_B_term.z + res.mu_term_z
    assert math.isclose(deriv / FOUR_PI, -chi_part, rel_tol=1e-10, abs_tol=1e-300)


def test_cross_product_orientation_of_am_term():
    # E along x, B along y pushes along +z when eps*mu > 1
    m = Material(4.0, 1.0, Mat3.zero(), 1.0)
    res = medium_velocity(m, FieldState(XHAT, YHAT))
    assert res.v_z > 0.0
    assert cross(XHAT, YHAT) == ZHAT
