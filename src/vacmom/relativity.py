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
"""

from __future__ import annotations

import math
from collections import namedtuple

from .algebra import BoostSpec, FieldState, Material, Vec3
from .errors import DegenerateBoost


class TransformedConstants(namedtuple("TransformedConstants", "epsilon_prime mu_prime")):
    __slots__ = ()


def transform_constants(m: Material, b: BoostSpec) -> TransformedConstants:
    """Optical constants of the moving medium seen from the rest frame.

    Raises DegenerateBoost when 1 + n beta <= 0 (the denominator of the
    velocity-addition factor loses its sign, an unphysical drag regime
    for the given index). beta = 0 short-circuits and returns the input
    constants bit-identically.
    """
    if b.beta == 0.0:
        return TransformedConstants(m.epsilon, m.mu)
    n = m.index
    denom = 1.0 + n * b.beta
    if denom <= 0.0:
        raise DegenerateBoost(
            f"1 + n*beta = {denom!r} <= 0 for n={n!r}, beta={b.beta!r}"
        )
    factor = (n + b.beta) / denom
    mu_prime = math.sqrt(m.mu / m.epsilon) * factor
    epsilon_prime = math.sqrt(m.epsilon / m.mu) * factor
    return TransformedConstants(epsilon_prime, mu_prime)


def index_of(tc: TransformedConstants) -> float:
    """Refractive index of the transformed constants.

    Equals (n + beta)/(1 + n beta) of the source medium, including its
    sign: a boost with beta < -n drives both constants negative, and a
    double-negative medium carries a negative index (the usual
    left-handed convention), so the root is taken with the sign of
    eps'.
    """
    return math.copysign(
        math.sqrt(tc.epsilon_prime * tc.mu_prime), tc.epsilon_prime
    )


def transform_fields(f: FieldState, b: BoostSpec) -> FieldState:
    """Field pair in the frame where the medium moves at +beta z.

    Longitudinal components are unchanged; transverse ones get the
    exact gamma (E_t + beta x B) / gamma (B_t - beta x E) form.
    """
    # (beta z) x B and (beta z) x E with the 0.0 products of cross(): each
    # operation is that of the vector form, in its order, signed zeros too
    beta = b.beta
    ex, ey, ez = f.E
    bx, by, bz = f.B
    zbx, zby, zbz = 0.0 * bz - beta * by, beta * bx - 0.0 * bz, 0.0 * by - 0.0 * bx
    zex, zey, zez = 0.0 * ez - beta * ey, beta * ex - 0.0 * ez, 0.0 * ey - 0.0 * ex
    g = 1.0 / math.sqrt(1.0 - beta * beta)
    # E_par + gamma (E_perp + beta z x B) and B_par + gamma (B_perp - beta z x E)
    return FieldState(
        Vec3(0.0 + g * (ex + zbx), 0.0 + g * (ey + zby), ez + g * (0.0 + zbz)),
        Vec3(0.0 + g * (bx - zex), 0.0 + g * (by - zey), bz + g * (0.0 - zez)),
    )
