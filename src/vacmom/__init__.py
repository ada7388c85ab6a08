"""vacmom: momentum of a moving magnetoelectric medium.

Computes the relativistic transformation of the optical constants of a
medium in uniform motion, the first-order magnetoelectric interaction
Lagrangian with a numerical check of its truncation order, the velocity
equation with per-term attribution, and zero-point mode sums that turn
the per-field formulas into vacuum expectation values.

Gaussian (CGS) units throughout; the boost axis is fixed to +z.

Each exported name is imported from its module on first use (PEP 562):
importing the package loads no submodule, and a caller of the constant
transforms never loads the vacuum layer.
"""

import importlib

__version__ = "0.1.0"

# module -> the names it exports
_EXPORTS = {
    "algebra": "BoostSpec FieldState MAX_GRID_N Mat3 Material Vec3 ZERO3 ZHAT"
    " cross dot mat_apply mat_t_apply",
    "config": "RunConfig SweepSpec VacuumSpec load_config parse_config",
    "constants": "C_LIGHT FOUR_PI HBAR",
    "errors": "ConfigError DegenerateBoost DegenerateGrid EmptyModeSet NonFiniteResult"
    " VacmomError",
    "lagrangian": "ExpansionReport LagrangianBreakdown isolate_mu_term me_density_exact"
    " me_density_first_order vector_form_density verify_expansion",
    "momentum": "Bilinears VelocityResult lagrangian_consistency_check medium_velocity"
    " term_ratio_of velocity_from_bilinears",
    "relativity": "TransformedConstants index_of transform_constants transform_fields",
    "vacuum": "MAGNITUDE_CHANNELS BilinearSums ModeSet SweepSums build_mode_set"
    " cutoff_sweep scaling_slopes sweep_sums vacuum_bilinears",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # cached, so the next access is a plain global lookup
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
