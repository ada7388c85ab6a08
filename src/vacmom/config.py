"""Run configuration: strict nested JSON schema.

Top-level sections: material (required), boost, fields, vacuum, sweep.
Unknown keys anywhere are rejected so typos fail loudly instead of
silently falling back to defaults. Parse and validation failures raise
ConfigError with a field path (or line/column for malformed JSON).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Real

from .algebra import BoostSpec, FieldState, Mat3, Material, Vec3
from .errors import ConfigError
from .vacuum import MAX_GRID_N

_SWEEP_PARAMETERS = ("beta", "cutoff", "grid_n")


@dataclass(frozen=True, slots=True)
class VacuumSpec:
    grid_n: int
    cutoff: float
    volume: float


@dataclass(frozen=True, slots=True)
class SweepSpec:
    parameter: str
    values: tuple[float, ...]


@dataclass(frozen=True, slots=True)
class RunConfig:
    material: Material
    boost: BoostSpec | None
    fields: FieldState | None
    vacuum: VacuumSpec | None
    sweep: SweepSpec | None


def _expect_mapping(node, path):
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object, got {type(node).__name__}")


def _reject_unknown(node: dict, allowed, path):
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(unknown)}")


def _require(node: dict, key, path):
    if key not in node:
        raise ConfigError(f"{path}: missing required key '{key}'")
    return node[key]


def _number(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)

def _integer(value, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _number_list(value, count, path) -> list[float]:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of {count} numbers")
    if len(value) != count:
        raise ConfigError(f"{path}: expected {count} numbers, got {len(value)}")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _parse_material(node, path) -> Material:
    _expect_mapping(node, path)
    _reject_unknown(node, ("epsilon", "mu", "chi", "rho0"), path)
    eps = _number(_require(node, "epsilon", path), f"{path}.epsilon")
    mu = _number(_require(node, "mu", path), f"{path}.mu")
    chi_raw = _number_list(_require(node, "chi", path), 9, f"{path}.chi")
    rho0 = _number(_require(node, "rho0", path), f"{path}.rho0")
    try:
        return Material(eps, mu, Mat3(*chi_raw), rho0)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_boost(node, path) -> BoostSpec:
    _expect_mapping(node, path)
    _reject_unknown(node, ("beta",), path)
    beta = _number(_require(node, "beta", path), f"{path}.beta")
    try:
        return BoostSpec(beta)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_fields(node, path) -> FieldState:
    _expect_mapping(node, path)
    _reject_unknown(node, ("E", "B"), path)
    e = _number_list(_require(node, "E", path), 3, f"{path}.E")
    b = _number_list(_require(node, "B", path), 3, f"{path}.B")
    try:
        return FieldState(Vec3(*e), Vec3(*b))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_vacuum(node, path) -> VacuumSpec:
    _expect_mapping(node, path)
    _reject_unknown(node, ("grid_n", "cutoff", "volume"), path)
    grid_n = _integer(_require(node, "grid_n", path), f"{path}.grid_n")
    cutoff = _number(_require(node, "cutoff", path), f"{path}.cutoff")
    volume = _number(_require(node, "volume", path), f"{path}.volume")
    if not 2 <= grid_n <= MAX_GRID_N:
        raise ConfigError(
            f"{path}.grid_n: must lie in [2, MAX_GRID_N={MAX_GRID_N}], got {grid_n}"
        )
    if not cutoff > 0.0:
        raise ConfigError(f"{path}.cutoff: must be > 0, got {cutoff!r}")
    if not volume > 0.0:
        raise ConfigError(f"{path}.volume: must be > 0, got {volume!r}")
    return VacuumSpec(grid_n, cutoff, volume)


def _parse_sweep(node, path) -> SweepSpec:
    _expect_mapping(node, path)
    _reject_unknown(node, ("parameter", "values"), path)
    parameter = _require(node, "parameter", path)
    if parameter not in _SWEEP_PARAMETERS:
        raise ConfigError(
            f"{path}.parameter: must be one of {', '.join(_SWEEP_PARAMETERS)},"
            f" got {parameter!r}"
        )
    values = _require(node, "values", path)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{path}.values: expected a nonempty list of numbers")
    parsed = tuple(_number(v, f"{path}.values[{i}]") for i, v in enumerate(values))
    return SweepSpec(parameter, parsed)


def parse_config(data, label: str = "config") -> RunConfig:
    """Validate a decoded JSON document into a RunConfig."""
    _expect_mapping(data, label)
    _reject_unknown(data, ("material", "boost", "fields", "vacuum", "sweep"), label)
    material = _parse_material(_require(data, "material", label), f"{label}.material")
    boost = _parse_boost(data["boost"], f"{label}.boost") if "boost" in data else None
    fields = _parse_fields(data["fields"], f"{label}.fields") if "fields" in data else None
    vacuum = _parse_vacuum(data["vacuum"], f"{label}.vacuum") if "vacuum" in data else None
    sweep = _parse_sweep(data["sweep"], f"{label}.sweep") if "sweep" in data else None
    return RunConfig(material, boost, fields, vacuum, sweep)


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    return parse_config(data, label=path)


def config_to_dict(cfg: RunConfig) -> dict:
    """Re-serialize a RunConfig into the schema it was parsed from.

    Floats pass through untouched, so emitting this dict as JSON and
    re-parsing reproduces the configuration bit for bit.
    """
    m = cfg.material
    out: dict = {
        "material": {
            "epsilon": m.epsilon,
            "mu": m.mu,
            "chi": [x for row in m.chi.rows() for x in row],
            "rho0": m.rho0,
        }
    }
    if cfg.boost is not None:
        out["boost"] = {"beta": cfg.boost.beta}
    if cfg.fields is not None:
        out["fields"] = {
            "E": list(cfg.fields.E.as_tuple()),
            "B": list(cfg.fields.B.as_tuple()),
        }
    if cfg.vacuum is not None:
        out["vacuum"] = {
            "grid_n": cfg.vacuum.grid_n,
            "cutoff": cfg.vacuum.cutoff,
            "volume": cfg.vacuum.volume,
        }
    if cfg.sweep is not None:
        out["sweep"] = {
            "parameter": cfg.sweep.parameter,
            "values": list(cfg.sweep.values),
        }
    return out
