"""The velocity equation against the Lorentz-scalar Lagrangian density.

tests/covariant_reference.py derives the bracket of the velocity
equation from the rest-frame density of boosted fields. These tests
check that derivation against the library term by term, and state
where the comment's mu-term comes from instead: mu'(beta) replacing mu
in the rest-frame form, which the scalar density does not do.

Draws: eps in [0.5, 4], mu in [0.5, 3], chi entries in +-0.5 and field
components in +-1. Each bound is 6 to 12 times the worst gap measured
over 2,000 such draws.
"""

import math

from conftest import make_rng
from covariant_reference import boost_fields, lab_density, momentum_density
from vacmom import (
    BoostSpec,
    FieldState,
    Mat3,
    Material,
    Vec3,
    dot,
    isolate_mu_term,
    mat_t_apply,
    medium_velocity,
    transform_fields,
)
from vacmom.constants import C_LIGHT, FOUR_PI

AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _draws(seed, count=500):
    rng = make_rng(seed)
    for _ in range(count):
        eps = float(rng.uniform(0.5, 4.0))
        mu = float(rng.uniform(0.5, 3.0))
        chi = Mat3(*rng.uniform(-0.5, 0.5, 9).tolist())
        e, b = rng.uniform(-1.0, 1.0, (2, 3)).tolist()
        yield Material(eps, mu, chi, 1.0), FieldState(Vec3(*e), Vec3(*b))


def _bracket(m, f):
    res = medium_velocity(m, f)
    terms = zip(res.abraham_minkowski_term, res.chi_E_term, res.chi_B_term)
    return [a + e + b for a, e, b in terms]


def test_boost_along_z_is_transform_fields():
    rng = make_rng(60)
    for m, f in _draws(61, 200):
        beta = float(rng.uniform(-0.9, 0.9))
        got = transform_fields(f, BoostSpec(beta))
        assert boost_fields(f.E, f.B, AXES[2], beta) == (tuple(got.E), tuple(got.B))


def test_boost_keeps_the_field_invariants():
    # E^2 - B^2 and E . B along any direction; the worst gap measured
    # was 8.3e-16 of E'^2 + B'^2
    rng = make_rng(62)
    for m, f in _draws(63, 200):
        beta = float(rng.uniform(-0.9, 0.9))
        n = rng.normal(size=3)
        direction = tuple((n / math.sqrt(n @ n)).tolist())
        e, b = (Vec3(*v) for v in boost_fields(f.E, f.B, direction, beta))
        size = dot(e, e) + dot(b, b)
        assert abs(dot(e, e) - dot(b, b) - (dot(f.E, f.E) - dot(f.B, f.B))) <= 1e-14 * size
        assert abs(dot(e, b) - dot(f.E, f.B)) <= 1e-14 * size


def test_closed_form_gradient_is_the_velocity_bracket():
    # every component, not only z; the worst gap measured was 1.3e-15
    # of the largest component
    for m, f in _draws(64):
        want = momentum_density(m.epsilon, m.mu, m.chi, f.E, f.B)
        got = _bracket(m, f)
        top = max(map(abs, want))
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-14 * top


def test_closed_form_gradient_is_the_boosted_density_slope():
    # central differences at h = 1e-5; the worst gap measured was
    # 1.6e-9 of the largest component
    h = 1e-5
    for m, f in _draws(65):
        want = momentum_density(m.epsilon, m.mu, m.chi, f.E, f.B)
        rest = (m.epsilon, m.mu, m.chi, f.E, f.B)
        got = [
            (lab_density(*rest, axis, -h) - lab_density(*rest, axis, h)) / (2.0 * h * C_LIGHT)
            for axis in AXES
        ]
        top = max(map(abs, want))
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-8 * top


def test_mu_term_is_the_slope_of_the_transformed_permeability():
    # mu_term_z = -(1/4 pi c) d/dbeta [1/mu'(beta) - 1/mu] B . chi^T E at
    # beta = 0, by central differences at h = 1e-6. The gap is measured
    # against the term with n + 1/n for n - 1/n, which does not vanish
    # near n = 1; the worst measured was 1.2e-10.
    h = 1e-6
    for m, f in _draws(66):
        got = medium_velocity(m, f).mu_term_z
        plus, minus = (isolate_mu_term(m, f, BoostSpec(beta)) for beta in (h, -h))
        want = -(plus - minus) / (2.0 * h * FOUR_PI * C_LIGHT)
        n = m.index
        bce = dot(f.B, mat_t_apply(m.chi, f.E))
        size = abs(bce) * (n + 1.0 / n) / (FOUR_PI * m.mu * C_LIGHT)
        assert abs(got - want) <= 1e-9 * size
