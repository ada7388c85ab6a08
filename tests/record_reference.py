"""The record-built forms of the classical velocity and the transform rows.

momentum.medium_velocity and velocity_from_bilinears assemble the
velocity equation in plain floats, and the CLI forms each transform row
from the plain floats of the constant transform. This module keeps the
forms they replace, built from the records:

- medium_velocity: the field bilinears from cross, mat_apply,
  mat_t_apply and dot into a Bilinears, then velocity_from_bilinears;
- velocity_from_bilinears: each term a scaled Vec3, the total their
  Vec3 sum, the velocity that total scaled by 1/rho0, each Vec3
  rejecting a non-finite component;
- transform_rows: each beta of a sweep checked as a BoostSpec first,
  then per beta transform_constants and index_of.

Each raises what the library raises, with the same message, so the
tests compare outcome() of each form over draws of wide().
"""

import math

from conftest import add, scale
from vacmom import (
    Bilinears,
    BoostSpec,
    ConfigError,
    NonFiniteResult,
    VelocityResult,
    Vec3,
    cross,
    dot,
    index_of,
    mat_apply,
    mat_t_apply,
    transform_constants,
)
from vacmom.constants import C_LIGHT, FOUR_PI
from vacmom.momentum import _transverse_norm


def velocity_from_bilinears(m, bilinears) -> VelocityResult:
    pref = 1.0 / (FOUR_PI * m.mu * C_LIGHT)
    n = m.index
    if n == 0.0:
        raise NonFiniteResult(
            "the index n = sqrt(epsilon mu) underflows to 0 at"
            f" epsilon={m.epsilon!r}, mu={m.mu!r}"
        )
    try:
        am = scale(bilinears.e_cross_b, pref * (m.epsilon * m.mu - 1.0))
        chi_e = scale(bilinears.e_cross_chiT_e, pref)
        chi_b = scale(bilinears.b_cross_chi_b, -pref)
        mu_term_z = -pref * (n - 1.0 / n) * bilinears.b_dot_chiT_e
        total = add(am, chi_e, chi_b, Vec3(0.0, 0.0, mu_term_z))
    except ValueError as exc:
        raise NonFiniteResult(
            f"velocity terms leave the float range at epsilon={m.epsilon!r},"
            f" mu={m.mu!r}"
        ) from exc
    try:
        rhs = scale(total, 1.0 / m.rho0)
    except ValueError as exc:
        raise NonFiniteResult(f"velocity leaves the float range at rho0={m.rho0!r}") from exc
    return VelocityResult(
        rhs_vector=rhs,
        v_z=rhs.z,
        abraham_minkowski_term=am,
        chi_E_term=chi_e,
        chi_B_term=chi_b,
        mu_term_z=mu_term_z,
        transverse_residual=_transverse_norm(rhs.x, rhs.y),
    )


def medium_velocity(m, f) -> VelocityResult:
    try:
        chi_t_e = mat_t_apply(m.chi, f.E)
        b_dot_chiT_e = dot(f.B, chi_t_e)
        if not math.isfinite(b_dot_chiT_e):
            raise ValueError(f"B . chi^T E must be finite, got {b_dot_chiT_e!r}")
        bilinears = Bilinears(
            cross(f.E, f.B), cross(f.E, chi_t_e), cross(f.B, mat_apply(m.chi, f.B)), b_dot_chiT_e
        )
    except ValueError as exc:
        raise NonFiniteResult(
            "field bilinears leave the float range at"
            f" fields.E={list(f.E)!r}, fields.B={list(f.B)!r}"
        ) from exc
    return velocity_from_bilinears(m, bilinears)


def _out_of_range(m, boost) -> NonFiniteResult:
    return NonFiniteResult(
        "transformed constants leave the float range at"
        f" epsilon={m.epsilon!r}, mu={m.mu!r}, beta={boost.beta!r}"
    )


def transform_rows(m, betas) -> list:
    """The (column, value) rows the transform command writes for a beta
    sweep over m, or what it raises."""
    try:
        boosts = [BoostSpec(v) for v in betas]
    except ValueError as exc:
        raise ConfigError(f"sweep.values: {exc}") from exc
    n = m.index
    rows = []
    for boost in boosts:
        tc = transform_constants(m, boost)
        if tc.mu_prime == 0.0:
            raise _out_of_range(m, boost)
        n_prime = index_of(tc)
        impedance = tc.epsilon_prime / tc.mu_prime
        expected_index = (n + boost.beta) / (1.0 + n * boost.beta)
        row = (
            ("beta", boost.beta),
            ("epsilon_prime", tc.epsilon_prime),
            ("mu_prime", tc.mu_prime),
            ("index_prime", n_prime),
            ("impedance_ratio", impedance),
            ("impedance_delta", abs(impedance - m.epsilon / m.mu)),
            ("index_delta", abs(n_prime - expected_index)),
        )
        _, values = zip(*row)
        if not all(map(math.isfinite, values)):
            raise _out_of_range(m, boost)
        rows.append(row)
    return rows


def wide(rng) -> float:
    """A signed zero in one draw of four, else a float of either sign
    from 1e-300 to 1e300, most of them within 1e+-150 or 1e+-30, so that
    many draws stay in the float range."""
    if rng.randrange(4) == 0:
        return rng.choice((0.0, -0.0))
    span = rng.choice((300.0, 150.0, 30.0))
    return rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-span, span)


def outcome(fn, *args) -> str:
    """The repr of fn(*args), or the type and message of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
