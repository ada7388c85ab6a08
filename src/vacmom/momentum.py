"""Momentum balance of the moving medium, term by term.

The stationary-velocity equation assembled here reads, per unit volume,

    rho0 v zhat = (1/4 pi mu c) [ (eps mu - 1) E x B
                                  + E x (chi^T E) - B x (chi B) ]
                  - (1/4 pi mu c) (n - 1/n) (B . chi^T E) zhat

with n = sqrt(eps mu). The first bracket collects the classical
Abraham-Minkowski piece and the two magnetoelectric cross terms; the
trailing scalar is the correction inherited from the boost transform of
mu (mu_term_z below). The right side is generically not parallel to
zhat; we expose the full vector plus the magnitude of its transverse
part instead of silently projecting.

Fields are lab-frame values at v -> 0, consistent with the first-order
derivation of the underlying Lagrangian.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .algebra import BoostSpec, FieldState, Material, Vec3
from .constants import C_LIGHT, FOUR_PI
from .errors import NonFiniteResult
from .lagrangian import vector_form_density

_RATIO_FLOOR = 1e-300
_isfinite = math.isfinite


class VelocityResult(
    namedtuple(
        "VelocityResult",
        "rhs_vector v_z abraham_minkowski_term chi_E_term chi_B_term mu_term_z"
        " transverse_residual",
    )
):
    """Full right-hand side of the velocity equation and its breakdown.

    The three vector terms and mu_term_z are momentum densities
    (g cm^-2 s^-1); rhs_vector and v_z are those divided by rho0, i.e.
    velocities in cm/s. transverse_residual is the Euclidean norm of the
    (x, y) part of rhs_vector.
    """

    __slots__ = ()


class Bilinears(
    namedtuple("Bilinears", "e_cross_b e_cross_chiT_e b_cross_chi_b b_dot_chiT_e")
):
    """The velocity equation's bilinears: three Vec3 and B . chi^T E."""

    __slots__ = ()


def velocity_from_bilinears(m: Material, bilinears: Bilinears) -> VelocityResult:
    """Assemble the velocity equation from precomputed field bilinears.

    Classical single-field evaluation and vacuum-expectation evaluation
    share this path; the bilinears are substituted term for term.
    bilinears is a Bilinears or any record with its four attributes,
    such as the BilinearSums of vacuum_bilinears.
    Raises NonFiniteResult if a term (for instance at huge epsilon and
    mu) or the division by rho0 leaves the float range, or if
    epsilon mu underflows to 0, which leaves 1/n undefined.
    """
    return _assemble(
        m,
        *bilinears.e_cross_b,
        *bilinears.e_cross_chiT_e,
        *bilinears.b_cross_chi_b,
        bilinears.b_dot_chiT_e,
    )


def _assemble(m, ax, ay, az, ex, ey, ez, bx, by, bz, b_dot_chiT_e) -> VelocityResult:
    """velocity_from_bilinears on plain floats: the components of E x B
    (a), E x chi^T E (e) and B x chi B (b), then B . chi^T E.

    Each value is the product or sum the Vec3 form (scale, +, then
    scale by 1/rho0) takes, in its order: the x and y totals add the
    0.0 of the z-only mu term, which turns a -0.0 into 0.0.
    """
    pref = 1.0 / (FOUR_PI * m.mu * C_LIGHT)
    n = m.index
    if n == 0.0:
        raise NonFiniteResult(
            "the index n = sqrt(epsilon mu) underflows to 0 at"
            f" epsilon={m.epsilon!r}, mu={m.mu!r}"
        )
    am = pref * (m.epsilon * m.mu - 1.0)
    am_x, am_y, am_z = am * ax, am * ay, am * az
    chi_e_x, chi_e_y, chi_e_z = pref * ex, pref * ey, pref * ez
    chi_b = -pref
    chi_b_x, chi_b_y, chi_b_z = chi_b * bx, chi_b * by, chi_b * bz
    mu_term_z = -pref * (n - 1.0 / n) * b_dot_chiT_e
    total_x = am_x + chi_e_x + chi_b_x + 0.0
    total_y = am_y + chi_e_y + chi_b_y + 0.0
    total_z = am_z + chi_e_z + chi_b_z + mu_term_z
    # a float sum is finite only if every term and partial sum is, so
    # the totals stand for every term of the three vectors and mu_term_z
    if not (_isfinite(total_x) and _isfinite(total_y) and _isfinite(total_z)):
        raise NonFiniteResult(
            f"velocity terms leave the float range at epsilon={m.epsilon!r},"
            f" mu={m.mu!r}"
        )
    per_mass = 1.0 / m.rho0
    v_x, v_y, v_z = per_mass * total_x, per_mass * total_y, per_mass * total_z
    if not (_isfinite(v_x) and _isfinite(v_y) and _isfinite(v_z)):
        raise NonFiniteResult(f"velocity leaves the float range at rho0={m.rho0!r}")
    return VelocityResult(
        Vec3(v_x, v_y, v_z),
        v_z,
        Vec3(am_x, am_y, am_z),
        Vec3(chi_e_x, chi_e_y, chi_e_z),
        Vec3(chi_b_x, chi_b_y, chi_b_z),
        mu_term_z,
        _transverse_norm(v_x, v_y),
    )


def _transverse_norm(x: float, y: float) -> float:
    """sqrt(x^2 + y^2), with math.hypot only where the squares misbehave.

    The plain formula is kept wherever x^2 + y^2 is a normal float, so
    those results stay bit for bit what they always were; hypot takes
    over where the sum overflows or falls below the normal range.
    """
    s = x * x + y * y
    if sys.float_info.min <= s < math.inf:
        return s**0.5
    return math.hypot(x, y)


def medium_velocity(m: Material, f: FieldState) -> VelocityResult:
    """Velocity equation for a single classical field configuration.

    Raises NonFiniteResult if a field bilinear leaves the float range.
    """
    (ex, ey, ez), (bx, by, bz) = f
    xx, xy, xz, yx, yy, yz, zx, zy, zz = m.chi
    # chi^T E and chi B as mat_t_apply and mat_apply form them, B . chi^T E
    # as dot, and the cross products as cross, each in its order
    tx = xx * ex + yx * ey + zx * ez
    ty = xy * ex + yy * ey + zy * ez
    tz = xz * ex + yz * ey + zz * ez
    cx = xx * bx + xy * by + xz * bz
    cy = yx * bx + yy * by + yz * bz
    cz = zx * bx + zy * by + zz * bz
    b_dot_chiT_e = bx * tx + by * ty + bz * tz
    bilinears = (
        ey * bz - ez * by, ez * bx - ex * bz, ex * by - ey * bx,
        ey * tz - ez * ty, ez * tx - ex * tz, ex * ty - ey * tx,
        by * cz - bz * cy, bz * cx - bx * cz, bx * cy - by * cx,
        b_dot_chiT_e,
    )
    # a product or sum with a non-finite factor or term is non-finite, so
    # B . chi^T E and B x chi B stand for chi^T E and chi B as well
    if not all(map(_isfinite, bilinears)):
        raise NonFiniteResult(
            "field bilinears leave the float range at"
            f" fields.E={list(f.E)!r}, fields.B={list(f.B)!r}"
        )
    return _assemble(m, *bilinears)


def term_ratio_of(vr: VelocityResult) -> float | None:
    """|mu_term_z| relative to the z-projection of the other three terms.

    Quantifies the size of the permeability-transform correction against
    the previously known contributions. Returns None when those
    contributions have no z-component to compare against.
    """
    denom = vr.abraham_minkowski_term.z + vr.chi_E_term.z + vr.chi_B_term.z
    if abs(denom) < _RATIO_FLOOR:
        return None
    return abs(vr.mu_term_z) / abs(denom)


def lagrangian_consistency_check(m: Material, f: FieldState) -> float:
    """Cross-check between the Lagrangian and the velocity equation.

    vector_form_density is linear in beta, so its beta-slope is twice its
    value at beta = 1/2; scaling by a power of two is exact, so short of
    subnormals this is the coefficient (1/mu) [z . (B x chi B - E x chi^T E)
    + (n - 1/n) B . chi^T E] bit for bit. Divided by c and the 4pi measure
    it is the v-derivative of the interaction density at v = 0, compared
    against the chi-dependent part of rho0 * rhs. The equation of motion
    carries that derivative with a flipped sign, so the check returns
    |derivative + chi_part|, pure round-off when both sides agree. The
    (eps mu - 1) E x B term originates elsewhere and is excluded.
    """
    derivative = 2.0 * vector_form_density(m, f, BoostSpec(0.5)) / C_LIGHT / FOUR_PI
    vr = medium_velocity(m, f)
    chi_part = vr.chi_E_term.z + vr.chi_B_term.z + vr.mu_term_z
    return abs(derivative + chi_part)
