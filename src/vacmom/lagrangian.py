"""Magnetoelectric interaction Lagrangian density of a moving medium.

Two views of the same physics:

* me_density_exact: the full composition (1/mu'(beta)) B' . chi^T E'
  with exactly transformed constants and fields. This is the reference
  model whose Taylor expansion in beta the truncated forms must match;
  the expansion order is enforced numerically by verify_expansion,
  which forms its inputs once (_exact_factors) and the density at each
  beta in plain floats (_exact_at), bit for bit what me_density_exact
  gives, through relativity's beta-independent and per-beta parts.
* me_density_first_order: the expansion truncated at first order in
  beta, split into named pieces (zeroth, field mixing, mu correction).
  Only their factor beta/mu depends on beta: _first_order_factors
  forms the others and _first_order_at the pieces at one beta, so
  verify_expansion forms the factors once for its whole grid.

Densities here carry no 1/4pi measure; that constant enters once, in
the momentum module.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .algebra import (
    BoostSpec,
    FieldState,
    Material,
    ZHAT,
    cross,
    dot,
    fit_loglog_slope,
    mat_t_apply,
)
from .errors import DegenerateGrid, NonFiniteResult
from .relativity import (
    _constant_factors,
    _constants_at,
    _fields_at,
    transform_constants,
    transform_fields,
)

# central difference step for the derivative check; balances truncation
# against round-off for double precision. The probe at -h needs
# 1 - n h > 0, so from n = 5e5 on the step is 0.5 / n instead.
_FD_STEP = 1e-6


class LagrangianBreakdown(
    namedtuple("LagrangianBreakdown", "zeroth mixing mu_correction total_first_order")
):
    """Named pieces of the first-order interaction density.

    total_first_order is always the literal sum of the three pieces,
    assembled once at construction and never re-derived.
    """

    __slots__ = ()


class ExpansionReport(
    namedtuple(
        "ExpansionReport",
        "beta_grid residuals slope derivative_delta derivative_rel identically_zero",
    )
):
    __slots__ = ()


def me_density_exact(m: Material, f: FieldState, b: BoostSpec) -> float:
    """(1/mu'(beta)) B' . chi^T E' with exact transforms throughout."""
    tc = transform_constants(m, b)
    fp = transform_fields(f, b)
    return (1.0 / tc.mu_prime) * dot(fp.B, mat_t_apply(m.chi, fp.E))


def _exact_factors(m: Material, f: FieldState) -> tuple:
    """The beta-independent inputs of the exact density: those of the
    transformed constants, the six lab field components, and chi."""
    return _constant_factors(m), (*f.E, *f.B), m.chi


def _exact_at(factors, beta: float) -> float:
    """me_density_exact at beta from _exact_factors, in plain floats.

    mu' and the boosted fields come from relativity's per-beta parts,
    and chi^T E' and B' . chi^T E' take the operations of mat_t_apply
    and dot in their order, so a finite value is bit for bit that of
    me_density_exact. Where a boosted component or chi^T E' leaves the
    float range, me_density_exact raises ValueError; this returns the
    nan or inf instead.
    """
    constants, fields, chi = factors
    _, mu_prime = _constants_at(constants, beta)
    ex, ey, ez, bx, by, bz = _fields_at(fields, beta)
    xx, xy, xz, yx, yy, yz, zx, zy, zz = chi
    cx = xx * ex + yx * ey + zx * ez
    cy = xy * ex + yy * ey + zy * ez
    cz = xz * ex + yz * ey + zz * ez
    return (1.0 / mu_prime) * (bx * cx + by * cy + bz * cz)


def _first_order_factors(m: Material, f: FieldState) -> tuple[float, float, float, float]:
    """The beta-independent factors of the first-order pieces:

    zeroth   (1/mu) B . chi^T E
    bce      B . chi^T E
    bracket  B . chi^T (z x B) + (E x z) . chi^T E
    stretch  n - 1/n
    """
    chi_t_e = mat_t_apply(m.chi, f.E)
    bce = dot(f.B, chi_t_e)
    zeroth = (1.0 / m.mu) * bce
    bracket = dot(f.B, mat_t_apply(m.chi, cross(ZHAT, f.B))) + dot(cross(f.E, ZHAT), chi_t_e)
    n = m.index
    return zeroth, bce, bracket, n - 1.0 / n


def _first_order_at(mu: float, factors, beta: float) -> LagrangianBreakdown:
    """The first-order pieces at beta from _first_order_factors."""
    zeroth, bce, bracket, stretch = factors
    mixing = (beta / mu) * bracket
    mu_correction = (beta / mu) * stretch * bce
    return LagrangianBreakdown(zeroth, mixing, mu_correction, zeroth + mixing + mu_correction)


def me_density_first_order(m: Material, f: FieldState, b: BoostSpec) -> LagrangianBreakdown:
    """First-order truncation in beta, split into its named pieces.

    zeroth        (1/mu) B . chi^T E
    mixing        (beta/mu) [B . chi^T (z x B) + (E x z) . chi^T E]
    mu_correction (beta/mu) (n - 1/n) B . chi^T E
    """
    return _first_order_at(m.mu, _first_order_factors(m, f), b.beta)


def isolate_mu_term(m: Material, f: FieldState, b: BoostSpec) -> float:
    """[1/mu'(beta) - 1/mu] B . chi^T E with untransformed fields.

    Isolates the contribution of the permeability transform alone; it
    reproduces mu_correction up to O(beta^2).
    """
    tc = transform_constants(m, b)
    bce = dot(f.B, mat_t_apply(m.chi, f.E))
    return (1.0 / tc.mu_prime - 1.0 / m.mu) * bce


def _out_of_range(m: Material, f: FieldState) -> str:
    chi = max(map(abs, m.chi))
    return (
        "expand-check densities leave the float range at"
        f" epsilon={m.epsilon!r}, mu={m.mu!r}, chi up to {chi!r},"
        f" fields.E={list(f.E)!r}, fields.B={list(f.B)!r}"
    )


def verify_expansion(m: Material, f: FieldState, beta_grid) -> ExpansionReport:
    """Check that the truncation error of the first-order form is O(beta^2).

    For each beta in the grid computes r = |exact - total_first_order|,
    fits the log-log slope of r against beta (expected near 2), and
    compares the central-difference derivative of the exact density at
    beta = 0 with the analytic first-order rate (mixing + mu_correction)
    divided by beta. The first-order pieces and the exact densities at
    the grid and at +-h come from beta-independent factors formed once
    per call, bit for bit what me_density_first_order and
    me_density_exact give at each beta; no record is built per beta.
    Residuals that vanish identically (chi = 0 or degenerate fields)
    are flagged instead of fitted. Raises NonFiniteResult when a
    density, a residual or the derivative comparison leaves the float
    range.
    """
    grid = tuple(float(x) for x in beta_grid)
    if len(grid) < 3:
        raise DegenerateGrid(f"need at least 3 grid points, got {len(grid)}")
    for x in grid:
        if not (0.0 < x <= 0.1):
            raise DegenerateGrid(f"grid values must lie in (0, 0.1], got {x!r}")
    if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise DegenerateGrid("grid must be strictly increasing")

    try:
        # the first-order pieces differ between betas only by their
        # factor beta/mu, and the exact density's inputs do not depend
        # on beta, so both are formed once
        factors = _first_order_factors(m, f)
        exact_factors = _exact_factors(m, f)
        residuals = []
        for beta in grid:
            exact = _exact_at(exact_factors, beta)
            bk = _first_order_at(m.mu, factors, beta)
            if not residuals:
                # the analytic first-order rate, taken at the smallest beta
                rate = (bk.mixing + bk.mu_correction) / beta
            residuals.append(abs(exact - bk.total_first_order))

        h = min(_FD_STEP, 0.5 / m.index)
        fd = (_exact_at(exact_factors, h) - _exact_at(exact_factors, -h)) / (2.0 * h)
    except (ValueError, ZeroDivisionError) as exc:
        # Vec3 rejects an overflowing field or chi product of the
        # first-order factors; 1/mu' or 1/n has no value where mu' or n
        # underflows to 0. An exact density out of the float range is
        # nan or inf, and the checks below reject it.
        raise NonFiniteResult(_out_of_range(m, f)) from exc
    delta = abs(fd - rate)
    # nan or inf; a finite delta means fd and rate are finite too
    if not delta < math.inf:
        raise NonFiniteResult(_out_of_range(m, f))
    scale = max(abs(fd), abs(rate))
    rel = delta / scale if scale > 0.0 else 0.0

    # rejects nan as well as inf
    if not all(r < math.inf for r in residuals):
        raise NonFiniteResult(_out_of_range(m, f))

    return ExpansionReport(
        beta_grid=grid,
        residuals=tuple(residuals),
        slope=fit_loglog_slope(grid, residuals),
        derivative_delta=delta,
        derivative_rel=rel,
        identically_zero=not any(residuals),
    )
