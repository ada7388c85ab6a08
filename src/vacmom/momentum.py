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

from .algebra import (
    BoostSpec, FieldState, Material, Vec3, cross, dot, mat_apply, mat_t_apply
)
from .constants import C_LIGHT, FOUR_PI
from .errors import NonFiniteResult
from .lagrangian import vector_form_density

_RATIO_FLOOR = 1e-300


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
    pref = 1.0 / (FOUR_PI * m.mu * C_LIGHT)
    n = m.index
    if n == 0.0:
        raise NonFiniteResult(
            "the index n = sqrt(epsilon mu) underflows to 0 at"
            f" epsilon={m.epsilon!r}, mu={m.mu!r}"
        )
    try:
        am = bilinears.e_cross_b.scale(pref * (m.epsilon * m.mu - 1.0))
        chi_e = bilinears.e_cross_chiT_e.scale(pref)
        chi_b = bilinears.b_cross_chi_b.scale(-pref)
        mu_term_z = -pref * (n - 1.0 / n) * bilinears.b_dot_chiT_e
        total = am + chi_e + chi_b + Vec3(0.0, 0.0, mu_term_z)
    except ValueError as exc:  # Vec3 rejects the non-finite components
        raise NonFiniteResult(
            f"velocity terms leave the float range at epsilon={m.epsilon!r},"
            f" mu={m.mu!r}"
        ) from exc
    try:
        rhs = total.scale(1.0 / m.rho0)
    except ValueError as exc:  # Vec3 rejects the non-finite components
        raise NonFiniteResult(
            f"velocity leaves the float range at rho0={m.rho0!r}"
        ) from exc
    return VelocityResult(
        rhs_vector=rhs,
        v_z=rhs.z,
        abraham_minkowski_term=am,
        chi_E_term=chi_e,
        chi_B_term=chi_b,
        mu_term_z=mu_term_z,
        transverse_residual=_transverse_norm(rhs.x, rhs.y),
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
    try:
        chi_t_e = mat_t_apply(m.chi, f.E)
        b_dot_chiT_e = dot(f.B, chi_t_e)
        if not math.isfinite(b_dot_chiT_e):
            raise ValueError(f"B . chi^T E must be finite, got {b_dot_chiT_e!r}")
        bilinears = Bilinears(
            cross(f.E, f.B), cross(f.E, chi_t_e), cross(f.B, mat_apply(m.chi, f.B)), b_dot_chiT_e
        )
    except ValueError as exc:  # Vec3 rejects the non-finite components
        raise NonFiniteResult(
            "field bilinears leave the float range at"
            f" fields.E={list(f.E)!r}, fields.B={list(f.B)!r}"
        ) from exc
    return velocity_from_bilinears(m, bilinears)


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
