"""Medium-velocity assembly and term attribution."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import record_reference
from conftest import XHAT, YHAT, add, diagonal, draw_config, make_rng, neg, scale, transpose
from record_reference import outcome, wide
from vacmom.constants import C_LIGHT, FOUR_PI
from vacmom import (
    BilinearSums,
    Bilinears,
    BoostSpec,
    FieldState,
    Mat3,
    Material,
    NonFiniteResult,
    Vec3,
    ZHAT,
    build_mode_set,
    cross,
    dot,
    mat_apply,
    medium_velocity,
    me_density_first_order,
    term_ratio_of,
    vacuum_bilinears,
    velocity_from_bilinears,
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
        total = add(res.abraham_minkowski_term, res.chi_E_term, res.chi_B_term)
        total = add(total, Vec3(0.0, 0.0, res.mu_term_z))
        assert res.rhs_vector == scale(total, 1.0 / m.rho0)
        assert res.v_z == res.rhs_vector.z
        r = res.rhs_vector
        assert res.transverse_residual == (r.x * r.x + r.y * r.y) ** 0.5


def test_plain_float_velocity_is_the_record_form():
    """medium_velocity and velocity_from_bilinears give the repr, or the
    exception type and message, of the record-built forms, at values
    from 1e-300 to 1e300 and signed zeros."""
    rng = random.Random(28)
    kinds = set()

    def vec3():
        return Vec3(wide(rng), wide(rng), wide(rng))

    for _ in range(3000):
        m = Material(
            abs(wide(rng)) or 1.0,
            abs(wide(rng)) or 1.0,
            Mat3(*(wide(rng) for _ in range(9))),
            abs(wide(rng)) or 1.0,
        )
        f = FieldState(vec3(), vec3())
        got = outcome(medium_velocity, m, f)
        assert got == outcome(record_reference.medium_velocity, m, f)
        bilinears = Bilinears(vec3(), vec3(), vec3(), wide(rng))
        got_b = outcome(velocity_from_bilinears, m, bilinears)
        assert got_b == outcome(record_reference.velocity_from_bilinears, m, bilinears)
        for text in (got, got_b):
            kinds.add(text.partition(" at ")[0] if text.startswith("NonFinite") else "result")
    # every outcome was drawn: a result and each message
    assert kinds == {
        "result",
        "NonFiniteResult: field bilinears leave the float range",
        "NonFiniteResult: velocity terms leave the float range",
        "NonFiniteResult: velocity leaves the float range",
        "NonFiniteResult: the index n = sqrt(epsilon mu) underflows to 0",
    }


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
        scaled = medium_velocity(m, FieldState(scale(f.E, s), scale(f.B, s)))
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
    f = FieldState(scale(ZHAT, 0.5), scale(ZHAT, 2.0))
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


def test_velocity_reacts_to_first_order_density_slope():
    # cross-check attribution against a central difference of the first-order pieces
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


M_GENERIC = Material(
    2.6, 0.74, Mat3(-0.09, -0.16, -0.38, 0.33, 0.33, -0.25, -0.41, 0.13, -0.3), 1.7
)
# every signed channel nonzero, unlike a vacuum sum's odd ones
_HAND_SUMS = BilinearSums(
    e_cross_b=Vec3(0.3, -1.2, 2.5),
    e_cross_chiT_e=Vec3(-0.07, 0.11, 0.4),
    b_cross_chi_b=Vec3(0.21, 0.05, -0.33),
    b_dot_chiT_e=-0.8,
    abs_e_cross_b=None,
    abs_e_cross_chiT_e=None,
    abs_b_cross_chi_b=None,
    abs_b_dot_chiT_e=None,
    mode_count=4,
    zero_point_energy=None,
)


@pytest.mark.parametrize("kind", ["vacuum", "hand-made"])
def test_bilinear_sums_give_the_velocity_of_their_bilinears(kind):
    if kind == "vacuum":
        sums = vacuum_bilinears(build_mode_set(M_GENERIC, 6, 1e5, 1.0), M_GENERIC)
    else:
        sums = _HAND_SUMS
    own = Bilinears(sums.e_cross_b, sums.e_cross_chiT_e, sums.b_cross_chi_b, sums.b_dot_chiT_e)
    assert repr(velocity_from_bilinears(M_GENERIC, sums)) == repr(
        velocity_from_bilinears(M_GENERIC, own)
    )


def _hand_bilinears(m, f):
    """The four bilinears written out component by component."""
    xx, xy, xz, yx, yy, yz, zx, zy, zz = m.chi
    (ex, ey, ez), (bx, by, bz) = f
    # t = chi^T E and s = chi B
    tx = xx * ex + yx * ey + zx * ez
    ty = xy * ex + yy * ey + zy * ez
    tz = xz * ex + yz * ey + zz * ez
    sx = xx * bx + xy * by + xz * bz
    sy = yx * bx + yy * by + yz * bz
    sz = zx * bx + zy * by + zz * bz
    return Bilinears(
        Vec3(ey * bz - ez * by, ez * bx - ex * bz, ex * by - ey * bx),
        Vec3(ey * tz - ez * ty, ez * tx - ex * tz, ex * ty - ey * tx),
        Vec3(by * sz - bz * sy, bz * sx - bx * sz, bx * sy - by * sx),
        bx * tx + by * ty + bz * tz,
    )


_component = st.floats(-1e3, 1e3)
_vec = st.builds(Vec3, _component, _component, _component)


@settings(max_examples=200, deadline=None)
@given(
    eps=st.floats(0.3, 4.0),
    mu=st.floats(0.3, 4.0),
    chi=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
    rho0=st.floats(0.1, 10.0),
    f=st.builds(FieldState, _vec, _vec),
)
def test_classical_velocity_is_the_velocity_of_its_bilinears(eps, mu, chi, rho0, f):
    m = Material(eps, mu, Mat3(*chi), rho0)
    assert repr(medium_velocity(m, f)) == repr(velocity_from_bilinears(m, _hand_bilinears(m, f)))


_BIG = Vec3(1e300, 0.0, 0.0)
_UNIT_CHI = Material(2.25, 1.0, diagonal(1.0, 1.0, 1.0), 1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: velocity_from_bilinears(Material(1e-200, 1e-200, CHI_G, 1.0), _HAND_SUMS),
            "the index n = sqrt(epsilon mu) underflows to 0 at epsilon=1e-200, mu=1e-200",
        ),
        (
            lambda: velocity_from_bilinears(Material(1e308, 1e308, CHI_G, 1.0), _HAND_SUMS),
            "velocity terms leave the float range at epsilon=1e+308, mu=1e+308",
        ),
        (
            lambda: velocity_from_bilinears(Material(2.25, 1.0, CHI_G, 1e-320), _HAND_SUMS),
            "velocity leaves the float range at rho0=1e-320",
        ),
        (
            lambda: medium_velocity(M_GOLDEN, FieldState(scale(XHAT, 1e200), scale(YHAT, 1e200))),
            "field bilinears leave the float range at"
            " fields.E=[1e+200, 0.0, 0.0], fields.B=[0.0, 1e+200, 0.0]",
        ),
        (
            # parallel E and B: every cross product is 0, B . chi^T E overflows
            lambda: medium_velocity(_UNIT_CHI, FieldState(_BIG, _BIG)),
            "field bilinears leave the float range at"
            " fields.E=[1e+300, 0.0, 0.0], fields.B=[1e+300, 0.0, 0.0]",
        ),
    ],
    ids=["index-underflow", "terms-overflow", "rho0-underflow", "cross-overflow", "dot-overflow"],
)
def test_non_finite_result_messages(call, message):
    with pytest.raises(NonFiniteResult) as exc:
        call()
    assert str(exc.value) == message
