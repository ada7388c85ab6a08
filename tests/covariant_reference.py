"""The velocity bracket from the Lorentz-scalar Lagrangian density.

The library assembles the velocity equation of a moving medium from
field bilinears (momentum.medium_velocity). This module derives its
bracket another way, with the standard library only:

1. The lab frame sees the medium move at beta along a unit direction
   n. Its rest frame sees the fields
   E' = E_par + gamma (E_perp + beta n x B) and
   B' = B_par + gamma (B_perp - beta n x E),
   split along and across n. Along n = z this is
   relativity.transform_fields.
2. The Lagrangian density is a Lorentz scalar, so at any beta it is the
   rest-frame density of the rest-frame fields, with the rest-frame
   eps, mu and chi:
   L = (eps E'^2 - B'^2 / mu) / 8 pi + (1 / 4 pi mu) B' . chi^T E'.
3. To first order E' = E + beta x B and B' = B - beta x E, so the
   momentum density -(1/c) dL/dbeta_i at beta = 0 is
   (1 / 4 pi mu c) [(eps mu - 1) E x B + E x chi^T E - B x chi B]_i.

That is the bracket of the velocity equation, in every component, and
it has no (n - 1/n) B . chi^T E term: with rest-frame constants the
mu-term of the comment does not come from the scalar density.
Vectors are 3-tuples and chi a row-major 9-tuple (xx, xy, ..., zz), so
the library's Vec3 and Mat3 serve as they are.
"""

import math

# cm/s; exact by the SI definition of the metre
C_LIGHT = 2.99792458e10


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _chi_t(chi, v):
    """chi^T v."""
    return tuple(_dot(chi[j::3], v) for j in range(3))


def _chi(chi, v):
    """chi v."""
    return tuple(_dot(chi[3 * i : 3 * i + 3], v) for i in range(3))


def boost_fields(e, b, direction, beta):
    """(E', B') in the rest frame of a medium moving at beta along the
    unit vector direction."""
    g = 1.0 / math.sqrt(1.0 - beta * beta)
    bvec = tuple(beta * c for c in direction)
    out = []
    for field, turn in ((e, _cross(bvec, b)), (b, tuple(-c for c in _cross(bvec, e)))):
        along = _dot(direction, field)
        par = tuple(along * c for c in direction)
        perp = tuple(f - p for f, p in zip(field, par))
        out.append(tuple(p + g * (q + t) for p, q, t in zip(par, perp, turn)))
    return tuple(out)


def rest_density(epsilon, mu, chi, e, b):
    """(eps E^2 - B^2 / mu) / 8 pi + (1 / 4 pi mu) B . chi^T E of
    rest-frame fields."""
    field = (epsilon * _dot(e, e) - _dot(b, b) / mu) / (8.0 * math.pi)
    return field + _dot(b, _chi_t(chi, e)) / (4.0 * math.pi * mu)


def lab_density(epsilon, mu, chi, e, b, direction, beta):
    """The scalar density of lab fields (E, B) at beta along direction."""
    return rest_density(epsilon, mu, chi, *boost_fields(e, b, direction, beta))


def momentum_density(epsilon, mu, chi, e, b):
    """-(1/c) dL/dbeta_i at beta = 0, i = x, y, z, in closed form."""
    exb = _cross(e, b)
    exe = _cross(e, _chi_t(chi, e))
    bxb = _cross(b, _chi(chi, b))
    pref = 1.0 / (4.0 * math.pi * mu * C_LIGHT)
    return tuple(pref * ((epsilon * mu - 1.0) * p + q - r) for p, q, r in zip(exb, exe, bxb))
