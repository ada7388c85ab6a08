"""Shared random-sample helpers for the test suite.

The seeded generators below are part of the frozen test contract: the
acceptance tests draw their configuration samples through these exact
calls (numpy default_rng, draw order epsilon, mu, chi, E, B), so the
sampled configurations are reproducible byte for byte.
"""

import os
import pathlib

import numpy as np

from vacmom import FieldState, Mat3, Material, Vec3

ROOT = pathlib.Path(__file__).resolve().parent.parent


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
    return Material(eps, mu, Mat3.from_rows(chi.tolist()), rho0)


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
