"""Batch command line front end.

Subcommands: transform | expand-check | velocity | vacuum-sweep. Each
reads one JSON config file, writes CSV (default) or JSON to stdout and
diagnostics to stderr, and uses the exit code contract

    0  success
    2  configuration error (parse, schema, or value rejection, including
       values whose results leave the float range)
    3  degenerate boost (1 + n beta <= 0)
    4  expansion-order verification failed (expand-check only)
    5  empty vacuum mode set

CSV floats are written with 17 significant digits and JSON floats with
the shortest exact representation, so both round-trip bit for bit.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import replace

from .algebra import BoostSpec, FieldState, Material
from .config import (
    RunConfig,
    VacuumSpec,
    config_to_dict,
    load_config,
)
from .errors import (
    ConfigError,
    DegenerateBoost,
    DegenerateGrid,
    EmptyModeSet,
    NonFiniteResult,
)
from .lagrangian import verify_expansion
from .momentum import medium_velocity, term_ratio_of, velocity_from_bilinears
from .relativity import index_of, transform_constants
from .vacuum import (
    MAGNITUDE_CHANNELS,
    MAX_GRID_N,
    build_mode_set,
    cutoff_sweep,
    scaling_slopes,
    vacuum_bilinears,
)

DEFAULT_BETA_GRID = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2)
SLOPE_WINDOW = (1.9, 2.1)

_LONGITUDINAL_TOL = 1e-9


def _csv_cell(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit(cfg: RunConfig, args, command: str, header, rows) -> None:
    if args.format == "json":
        payload = {
            "command": command,
            "config": config_to_dict(cfg),
            "result": {
                "columns": list(header),
                "rows": [dict(zip(header, row)) for row in rows],
            },
        }
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])


def _warn_longitudinal(f: FieldState) -> None:
    """The constant transforms are transverse-only; flag z components."""
    for name, v in (("E", f.E), ("B", f.B)):
        transverse = math.hypot(v.x, v.y)
        if abs(v.z) > _LONGITUDINAL_TOL * transverse:
            print(
                f"warning: {name} has a longitudinal (z) component;"
                " the constant transforms only cover transverse fields",
                file=sys.stderr,
            )


def _boost_list(cfg: RunConfig) -> list[BoostSpec]:
    if cfg.sweep is not None and cfg.sweep.parameter == "beta":
        boosts = []
        for v in cfg.sweep.values:
            try:
                boosts.append(BoostSpec(v))
            except ValueError as exc:
                raise ConfigError(f"sweep.values: {exc}") from exc
        return boosts
    if cfg.boost is None:
        raise ConfigError("transform requires a boost section or a beta sweep")
    return [cfg.boost]


def _transform_out_of_range(m: Material, boost: BoostSpec) -> NonFiniteResult:
    return NonFiniteResult(
        "transformed constants leave the float range at"
        f" epsilon={m.epsilon!r}, mu={m.mu!r}, beta={boost.beta!r}"
    )


def cmd_transform(cfg: RunConfig, args) -> int:
    m = cfg.material
    n = m.index
    header = (
        "beta",
        "epsilon_prime",
        "mu_prime",
        "index_prime",
        "impedance_ratio",
        "impedance_delta",
        "index_delta",
    )
    rows = []
    for boost in _boost_list(cfg):
        tc = transform_constants(m, boost)
        # mu' is 0 where mu/eps underflows or beta = -n
        if tc.mu_prime == 0.0:
            raise _transform_out_of_range(m, boost)
        n_prime = index_of(tc)
        impedance = tc.epsilon_prime / tc.mu_prime
        expected_index = (n + boost.beta) / (1.0 + n * boost.beta)
        row = (
            boost.beta,
            tc.epsilon_prime,
            tc.mu_prime,
            n_prime,
            impedance,
            abs(impedance - m.epsilon / m.mu),
            abs(n_prime - expected_index),
        )
        # n = sqrt(eps mu) or eps/mu overflows at extreme constants
        if not all(map(math.isfinite, row)):
            raise _transform_out_of_range(m, boost)
        rows.append(row)
    _emit(cfg, args, "transform", header, rows)
    return 0


def cmd_expand_check(cfg: RunConfig, args) -> int:
    if cfg.fields is None:
        raise ConfigError("expand-check requires a fields section")
    _warn_longitudinal(cfg.fields)
    if cfg.sweep is not None and cfg.sweep.parameter == "beta":
        grid = cfg.sweep.values
    else:
        grid = DEFAULT_BETA_GRID
    report = verify_expansion(cfg.material, cfg.fields, grid)
    header = (
        "beta",
        "residual",
        "slope",
        "derivative_delta",
        "derivative_rel",
        "identically_zero",
    )
    rows = [
        (
            beta,
            res,
            report.slope,
            report.derivative_delta,
            report.derivative_rel,
            report.identically_zero,
        )
        for beta, res in zip(report.beta_grid, report.residuals)
    ]
    _emit(cfg, args, "expand-check", header, rows)
    if report.identically_zero:
        return 0
    if report.slope is None or not (SLOPE_WINDOW[0] <= report.slope <= SLOPE_WINDOW[1]):
        print(
            f"expansion-order verification failed: slope {report.slope!r}"
            f" outside [{SLOPE_WINDOW[0]}, {SLOPE_WINDOW[1]}]",
            file=sys.stderr,
        )
        return 4
    return 0


def cmd_velocity(cfg: RunConfig, args) -> int:
    m = cfg.material
    if cfg.vacuum is not None:
        ms = build_mode_set(m, cfg.vacuum.grid_n, cfg.vacuum.cutoff, cfg.vacuum.volume)
        sums = vacuum_bilinears(ms, m, magnitudes=False)
        vr = velocity_from_bilinears(
            m,
            e_cross_b=sums.e_cross_b,
            e_cross_chiT_e=sums.e_cross_chiT_e,
            b_cross_chi_b=sums.b_cross_chi_b,
            b_dot_chiT_e=sums.b_dot_chiT_e,
        )
    else:
        if cfg.fields is None:
            raise ConfigError("velocity requires a fields or a vacuum section")
        _warn_longitudinal(cfg.fields)
        vr = medium_velocity(m, cfg.fields)
    header = (
        "v_x",
        "v_y",
        "v_z",
        "transverse_residual",
        "am_x",
        "am_y",
        "am_z",
        "chi_E_x",
        "chi_E_y",
        "chi_E_z",
        "chi_B_x",
        "chi_B_y",
        "chi_B_z",
        "mu_term_z",
        "term_ratio",
    )
    rows = [
        (
            vr.rhs_vector.x,
            vr.rhs_vector.y,
            vr.rhs_vector.z,
            vr.transverse_residual,
            vr.abraham_minkowski_term.x,
            vr.abraham_minkowski_term.y,
            vr.abraham_minkowski_term.z,
            vr.chi_E_term.x,
            vr.chi_E_term.y,
            vr.chi_E_term.z,
            vr.chi_B_term.x,
            vr.chi_B_term.y,
            vr.chi_B_term.z,
            vr.mu_term_z,
            term_ratio_of(vr),
        )
    ]
    _emit(cfg, args, "velocity", header, rows)
    return 0


def cmd_vacuum_sweep(cfg: RunConfig, args) -> int:
    if cfg.vacuum is None:
        raise ConfigError("vacuum-sweep requires a vacuum section")
    if cfg.sweep is None:
        raise ConfigError("vacuum-sweep requires a sweep section")
    m = cfg.material
    vac = cfg.vacuum
    sweep = cfg.sweep

    if sweep.parameter == "cutoff":
        try:
            entries = cutoff_sweep(m, vac.grid_n, sweep.values, vac.volume)
        except ValueError as exc:
            raise ConfigError(f"sweep.values: {exc}") from exc
        slopes = scaling_slopes(entries)
        labelled = [(c, s) for c, s in entries]
    elif sweep.parameter == "grid_n":
        # every value is checked before any grid is built; the range test
        # comes first, so int() never meets inf or nan
        for v in sweep.values:
            if not (2 <= v <= MAX_GRID_N and v == int(v)):
                raise ConfigError(
                    "sweep.values: grid_n must be an integer in"
                    f" [2, MAX_GRID_N={MAX_GRID_N}], got {v!r}"
                )
        labelled = []
        for v in sweep.values:
            ms = build_mode_set(m, int(v), vac.cutoff, vac.volume)
            labelled.append((int(v), vacuum_bilinears(ms, m)))
        slopes = dict.fromkeys(MAGNITUDE_CHANNELS)
    else:
        raise ConfigError(
            "vacuum-sweep supports sweeping 'cutoff' or 'grid_n',"
            f" got {sweep.parameter!r}"
        )

    def _maybe_nan(x):
        if x is None or (isinstance(x, float) and math.isnan(x)):
            return None
        return x

    header = (
        "sweep_parameter",
        "sweep_value",
        "mode_count",
        "zero_point_energy",
        "e_cross_b_z",
        "e_cross_chiT_e_z",
        "b_cross_chi_b_z",
        "b_dot_chiT_e",
        *MAGNITUDE_CHANNELS,
        *(f"slope_{name}" for name in MAGNITUDE_CHANNELS),
    )
    rows = []
    for value, sums in labelled:
        rows.append(
            (
                sweep.parameter,
                value,
                sums.mode_count,
                sums.zero_point_energy,
                sums.e_cross_b.z,
                sums.e_cross_chiT_e.z,
                sums.b_cross_chi_b.z,
                sums.b_dot_chiT_e,
                *(getattr(sums, name) for name in MAGNITUDE_CHANNELS),
                *(_maybe_nan(slopes[name]) for name in MAGNITUDE_CHANNELS),
            )
        )
    _emit(cfg, args, "vacuum-sweep", header, rows)
    return 0


_COMMANDS = {
    "transform": cmd_transform,
    "expand-check": cmd_expand_check,
    "velocity": cmd_velocity,
    "vacuum-sweep": cmd_vacuum_sweep,
}


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.beta is not None:
        try:
            boost = BoostSpec(args.beta)
        except ValueError as exc:
            raise ConfigError(f"--beta: {exc}") from exc
        cfg = replace(cfg, boost=boost)
    if args.cutoff is not None:
        if cfg.vacuum is None:
            raise ConfigError("--cutoff given but the config has no vacuum section")
        if not args.cutoff > 0.0:
            raise ConfigError(f"--cutoff: must be > 0, got {args.cutoff!r}")
        cfg = replace(
            cfg,
            vacuum=VacuumSpec(cfg.vacuum.grid_n, args.cutoff, cfg.vacuum.volume),
        )
    return cfg


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process.

    parse_args gives a fresh Namespace on every call and writes usage
    and errors to sys.stdout and sys.stderr as they are at that call,
    so reusing the parser leaves every call's output unchanged.
    """
    parser = argparse.ArgumentParser(
        prog="vacmom",
        description="Momentum of a moving magnetoelectric medium:"
        " constant transforms, expansion checks, velocity terms,"
        " and zero-point mode sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("transform", "boosted optical constants and consistency deltas"),
        ("expand-check", "verify the first-order truncation is O(beta^2)"),
        ("velocity", "velocity equation terms, classical or vacuum-summed"),
        ("vacuum-sweep", "zero-point bilinear sums across cutoff or grid size"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to JSON config file")
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            default="csv",
            help="output format (default csv)",
        )
        p.add_argument("--beta", type=float, default=None,
                       help="override boost.beta from the config")
        p.add_argument("--cutoff", type=float, default=None,
                       help="override vacuum.cutoff from the config")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, DegenerateGrid, NonFiniteResult) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DegenerateBoost as exc:
        print(f"degenerate boost: {exc}", file=sys.stderr)
        return 3
    except EmptyModeSet as exc:
        print(f"empty mode set: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    raise SystemExit(main())
