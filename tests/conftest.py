"""Shared random-sample and vector helpers for the test suite.

The seeded generators below are part of the frozen test contract: the
acceptance tests draw their configuration samples through these exact
calls (numpy default_rng, draw order epsilon, mu, chi, E, B), so the
sampled configurations are reproducible byte for byte.

The basis vectors, norm, sum, negation, scaling, diagonal matrices and the transpose
below are used by the tests only, so they live here rather than in the
library.
"""

import math
import os
import pathlib

import numpy as np

from vacmom import FieldState, Mat3, Material, Vec3

ROOT = pathlib.Path(__file__).resolve().parent.parent

XHAT = Vec3(1.0, 0.0, 0.0)
YHAT = Vec3(0.0, 1.0, 0.0)


def norm(v: Vec3) -> float:
    return math.sqrt(v.x * v.x + v.y * v.y + v.z * v.z)


def add(first: Vec3, *rest: Vec3) -> Vec3:
    """The sum first + rest[0] + ..., taken left to right component-wise,
    each partial sum a Vec3 that rejects a non-finite component."""
    total = first
    for v in rest:
        total = Vec3(total.x + v.x, total.y + v.y, total.z + v.z)
    return total


def neg(v: Vec3) -> Vec3:
    return Vec3(-v.x, -v.y, -v.z)


def scale(v: Vec3, s: float) -> Vec3:
    return Vec3(s * v.x, s * v.y, s * v.z)


def diagonal(a: float, b: float, c: float) -> Mat3:
    return Mat3(a, 0.0, 0.0, 0.0, b, 0.0, 0.0, 0.0, c)


def transpose(m: Mat3) -> Mat3:
    return Mat3(m.xx, m.yx, m.zx, m.xy, m.yy, m.zy, m.xz, m.yz, m.zz)


def src_env() -> dict:
    """The environment with the repository's src/ first on PYTHONPATH.

    Subprocesses that import vacmom need it: pytest's pythonpath
    setting reaches only the test process itself.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def draw_material(rng, eps_lo=0.3, eps_hi=4.0, chi_scale=0.5, rho0=1.0):
    eps = float(rng.uniform(eps_lo, eps_hi))
    mu = float(rng.uniform(eps_lo, eps_hi))
    chi = rng.uniform(-chi_scale, chi_scale, (3, 3))
    return Material(eps, mu, Mat3(*chi.ravel().tolist()), rho0)


def draw_fields(rng, scale=1.0):
    e = rng.uniform(-scale, scale, 3)
    b = rng.uniform(-scale, scale, 3)
    return FieldState(Vec3(*e.tolist()), Vec3(*b.tolist()))


def draw_config(rng):
    """One magnetoelectric configuration: material plus field pair."""
    m = draw_material(rng)
    f = draw_fields(rng)
    return m, f


def make_rng(seed):
    return np.random.default_rng(seed)
