"""Optical constants of a moving medium, read off its plane waves.

The library states the constants of a medium moving at beta along +z
as closed forms (relativity.transform_constants). This module derives
them another way, with the standard library only:

1. In the rest frame of a medium with permittivity eps and
   permeability mu, a plane wave along s z (s = +1 or -1) has
   E' = x, B' = s n y with n = sqrt(eps mu), D' = eps E' and
   H' = B' / mu.
2. The lab frame sees the rest frame move at +beta z. The transverse
   fields map as E = gamma (E' - beta z x B') and
   B = gamma (B' + beta z x E'), and (D, H) map as (E, B) do.
3. In the lab frame the wave still has E along x and B along y, so the
   constants the moving medium shows that wave are eps' = D / E and
   mu' = B / H.

The lab fields satisfy the Minkowski relations of a moving medium,
D + beta x H = eps (E + beta x B) and B - beta x E = mu (H - beta x D),
and tests/test_relativity.py checks that they do. For s = +1 the
constants are those transform_constants gives at beta; for s = -1,
those at -beta.
"""

import math


def lab_fields(epsilon: float, mu: float, beta: float, direction: int):
    """(E_x, B_y, D_x, H_y) in the lab frame of the rest-frame plane
    wave along direction * z, with E'_x = 1."""
    n = math.sqrt(epsilon * mu)
    e0, b0 = 1.0, direction * n
    d0, h0 = epsilon * e0, b0 / mu
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    # z x y = -x and z x x = y
    return (
        gamma * (e0 + beta * b0),
        gamma * (b0 + beta * e0),
        gamma * (d0 + beta * h0),
        gamma * (h0 + beta * d0),
    )


def moving_constants(epsilon: float, mu: float, beta: float, direction: int):
    """(eps', mu') = (D/E, B/H) of the wave along direction * z in the
    medium moving at beta along +z."""
    e, b, d, h = lab_fields(epsilon, mu, beta, direction)
    return d / e, b / h
