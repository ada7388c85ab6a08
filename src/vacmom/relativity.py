"""Boost transforms of optical constants and of field pairs.

The medium moves along +z at v = c beta relative to the observer frame.
For the transverse (x-y plane) components the scalar constants transform
as

    mu'  = sqrt(mu/eps) (n + beta) / (1 + n beta)
    eps' = sqrt(eps/mu) (n + beta) / (1 + n beta),   n = sqrt(eps mu),

which leaves the impedance eps'/mu' = eps/mu invariant and sends the
index to the relativistic velocity sum (n + beta)/(1 + n beta). The
susceptibility chi is deliberately not transformed; only the constants
and the fields are.

Longitudinal (z) components of eps and mu are outside this model; all
downstream users assume transverse field configurations and the CLI
warns when inputs violate that.

Each transform is written once, split into its beta-independent inputs
and a per-beta part that returns plain floats: _constant_factors and
_constants_at for the constants, the six lab components and _fields_at
for the fields. transform_constants and transform_fields wrap one call
of each in their records; lagrangian.verify_expansion forms the inputs
once and calls the per-beta parts at each beta of its grid, and the
CLI's transform rows do the same over a beta sweep.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .algebra import BoostSpec, FieldState, Material, Vec3
from .errors import DegenerateBoost


class TransformedConstants(namedtuple("TransformedConstants", "epsilon_prime mu_prime")):
    __slots__ = ()


def _constant_factors(m: Material) -> tuple[float, float, float, float, float]:
    """The beta-independent inputs of the transformed constants:
    eps, mu, n = sqrt(eps mu), sqrt(eps/mu) and sqrt(mu/eps)."""
    return (
        m.epsilon,
        m.mu,
        m.index,
        math.sqrt(m.epsilon / m.mu),
        math.sqrt(m.mu / m.epsilon),
    )


def _constants_at(factors, beta: float) -> tuple[float, float]:
    """(eps', mu') at beta from _constant_factors, as plain floats."""
    epsilon, mu, n, root_eps, root_mu = factors
    if beta == 0.0:
        return epsilon, mu
    denom = 1.0 + n * beta
    if denom <= 0.0:
        raise DegenerateBoost(f"1 + n*beta = {denom!r} <= 0 for n={n!r}, beta={beta!r}")
    factor = (n + beta) / denom
    return root_eps * factor, root_mu * factor


def transform_constants(m: Material, b: BoostSpec) -> TransformedConstants:
    """Optical constants of the moving medium seen from the rest frame.

    Raises DegenerateBoost when 1 + n beta <= 0 (the denominator of the
    velocity-addition factor loses its sign, an unphysical drag regime
    for the given index). beta = 0 short-circuits and returns the input
    constants bit-identically.
    """
    return TransformedConstants(*_constants_at(_constant_factors(m), b.beta))


def index_of(tc: TransformedConstants) -> float:
    """Refractive index of the transformed constants.

    Equals (n + beta)/(1 + n beta) of the source medium, including its
    sign: a boost with beta < -n drives both constants negative, and a
    double-negative medium carries a negative index (the usual
    left-handed convention), so the root is taken with the sign of
    eps'. tc may be any pair (eps', mu'), such as the plain floats of
    _constants_at.
    """
    epsilon_prime, mu_prime = tc
    return math.copysign(math.sqrt(epsilon_prime * mu_prime), epsilon_prime)


def _fields_at(components, beta: float) -> tuple[float, float, float, float, float, float]:
    """The six components of the boosted (E, B) at beta, as plain floats,
    from the six lab components (E then B): the beta-independent inputs
    of the field boost are those components themselves."""
    # (beta z) x B and (beta z) x E with the 0.0 products of cross(): each
    # operation is that of the vector form, in its order, signed zeros too
    ex, ey, ez, bx, by, bz = components
    zbx, zby, zbz = 0.0 * bz - beta * by, beta * bx - 0.0 * bz, 0.0 * by - 0.0 * bx
    zex, zey, zez = 0.0 * ez - beta * ey, beta * ex - 0.0 * ez, 0.0 * ey - 0.0 * ex
    g = 1.0 / math.sqrt(1.0 - beta * beta)
    # E_par + gamma (E_perp + beta z x B) and B_par + gamma (B_perp - beta z x E)
    return (
        0.0 + g * (ex + zbx), 0.0 + g * (ey + zby), ez + g * (0.0 + zbz),
        0.0 + g * (bx - zex), 0.0 + g * (by - zey), bz + g * (0.0 - zez),
    )


def transform_fields(f: FieldState, b: BoostSpec) -> FieldState:
    """Field pair in the frame where the medium moves at +beta z.

    Longitudinal components are unchanged; transverse ones get the
    exact gamma (E_t + beta x B) / gamma (B_t - beta x E) form.
    """
    ex, ey, ez, bx, by, bz = _fields_at((*f.E, *f.B), b.beta)
    return FieldState(Vec3(ex, ey, ez), Vec3(bx, by, bz))
