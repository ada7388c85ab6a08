"""vacmom: momentum of a moving magnetoelectric medium.

Computes the relativistic transformation of the optical constants of a
medium in uniform motion, the first-order magnetoelectric interaction
Lagrangian with a numerical check of its truncation order, the velocity
equation with per-term attribution, and zero-point mode sums that turn
the per-field formulas into vacuum expectation values.

Gaussian (CGS) units throughout; the boost axis is fixed to +z.
"""

from .algebra import (
    BoostSpec,
    FieldState,
    Mat3,
    Material,
    Vec3,
    ZERO3,
    ZHAT,
    cross,
    dot,
    mat_apply,
    mat_t_apply,
)
from .config import RunConfig, SweepSpec, VacuumSpec, load_config, parse_config
from .constants import C_LIGHT, FOUR_PI, HBAR
from .errors import (
    ConfigError,
    DegenerateBoost,
    DegenerateGrid,
    EmptyModeSet,
    NonFiniteResult,
    VacmomError,
)
from .lagrangian import (
    ExpansionReport,
    LagrangianBreakdown,
    isolate_mu_term,
    me_density_exact,
    me_density_first_order,
    vector_form_density,
    verify_expansion,
)
from .momentum import (
    Bilinears,
    VelocityResult,
    lagrangian_consistency_check,
    medium_velocity,
    term_ratio_of,
    velocity_from_bilinears,
)
from .relativity import (
    TransformedConstants,
    index_of,
    transform_constants,
    transform_fields,
)
from .vacuum import (
    MAGNITUDE_CHANNELS,
    MAX_GRID_N,
    BilinearSums,
    ModeSet,
    build_mode_set,
    cutoff_sweep,
    scaling_slopes,
    vacuum_bilinears,
)

__version__ = "0.1.0"

__all__ = [
    "BilinearSums",
    "Bilinears",
    "BoostSpec",
    "C_LIGHT",
    "ConfigError",
    "DegenerateBoost",
    "DegenerateGrid",
    "EmptyModeSet",
    "ExpansionReport",
    "FOUR_PI",
    "FieldState",
    "HBAR",
    "LagrangianBreakdown",
    "MAGNITUDE_CHANNELS",
    "MAX_GRID_N",
    "Mat3",
    "Material",
    "ModeSet",
    "NonFiniteResult",
    "RunConfig",
    "SweepSpec",
    "TransformedConstants",
    "VacmomError",
    "VacuumSpec",
    "Vec3",
    "VelocityResult",
    "ZERO3",
    "ZHAT",
    "build_mode_set",
    "cross",
    "cutoff_sweep",
    "dot",
    "index_of",
    "isolate_mu_term",
    "lagrangian_consistency_check",
    "load_config",
    "mat_apply",
    "mat_t_apply",
    "me_density_exact",
    "me_density_first_order",
    "medium_velocity",
    "parse_config",
    "scaling_slopes",
    "term_ratio_of",
    "transform_constants",
    "transform_fields",
    "vacuum_bilinears",
    "vector_form_density",
    "velocity_from_bilinears",
    "verify_expansion",
]
