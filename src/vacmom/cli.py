"""Batch command line front end.

Subcommands: transform | expand-check | velocity | vacuum-sweep. Each
reads one JSON config file, writes CSV (default) or JSON to stdout and
diagnostics to stderr, and uses the exit code contract

    0  success
    1  stdout was closed before all output was written
    2  configuration error (decoding, parse, schema, or value rejection,
       including a key repeated within one object, values whose results
       leave the float range, a sweep of a parameter the subcommand does
       not read and an override of the parameter swept)
    3  degenerate boost (1 + n beta <= 0)
    4  expansion-order verification failed (expand-check only)
    5  empty vacuum mode set

CSV floats are written with 17 significant digits and JSON floats with
the shortest exact representation, so both round-trip bit for bit. An
undefined value (None or nan) is nan in CSV and null in JSON. An
override option is registered only on the subcommands that read it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from json.encoder import c_make_encoder, encode_basestring_ascii

from .algebra import BoostSpec, FieldState, Material
from .config import RunConfig, _positive, config_to_dict, load_config
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

# the argparse of Python 3.11 reads a token as a negative number, and so
# as an option's value, only in the forms -1, -1.5 and -.5; this matcher
# takes exponent forms such as -1e-05 too
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _csv_cell(value) -> str:
    """The CSV cell of a value that is not a float; _emit writes floats."""
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


_CONTAINERS = (list, tuple, dict)


@functools.cache
def _encoder(depth: int):
    """The C encoder of a container of scalars at this depth.

    Built with the arguments json.JSONEncoder.iterencode passes for
    indent=None. A call returns the text as a sequence of chunks.
    """
    return c_make_encoder(
        None,  # markers: no circular-reference check
        json.JSONEncoder().default,
        encode_basestring_ascii,
        None,  # indent
        ": ",  # key separator
        ",\n" + "  " * (depth + 1),  # item separator
        False,  # sort_keys
        False,  # skipkeys
        True,  # allow_nan
    )


def _json(value, depth: int = 0) -> str:
    """json.dumps(value, indent=2), byte for byte, for str-keyed dicts.

    json.dumps indents with its pure-Python encoder; here Python lays
    out only the containers of containers, and the C encoder the rest.
    """
    encode = _encoder(depth)
    if not isinstance(value, _CONTAINERS) or not value:
        return "".join(encode(value, 0))
    inner = "\n" + "  " * (depth + 1)
    children = value.values() if isinstance(value, dict) else value
    for child in children:
        if isinstance(child, _CONTAINERS):
            break
    else:
        # the C encoder writes no line break after "[" and before "]"
        text = "".join(encode(value, 0))
        return text[0] + inner + text[1:-1] + inner[:-2] + text[-1]
    items = [
        _json(v, depth + 1) if isinstance(v, _CONTAINERS) else "".join(encode(v, 0))
        for v in children
    ]
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {item}" for k, item in zip(value, items)]
        return "{" + inner + ("," + inner).join(items) + inner[:-2] + "}"
    return "[" + inner + ("," + inner).join(items) + inner[:-2] + "]"


def _emit(cfg: RunConfig, args, rows) -> None:
    """Write rows of (column, value) pairs; the first row names the columns.

    The output is built whole and written once. No CSV cell needs
    quoting: each is a number, nan, true, false, a column name or a
    sweep parameter, none of which holds a comma, a quote or a line
    break.
    """
    header = [column for column, _ in rows[0]]
    if args.format == "json":
        payload = {
            "command": args.command,
            "config": config_to_dict(cfg),
            "result": {
                "columns": header,
                # nan, the one value unequal to itself, is written as null
                "rows": [{c: None if v != v else v for c, v in row} for row in rows],
            },
        }
        sys.stdout.write(_json(payload) + "\n")
    else:
        lines = [",".join(header)]
        for row in rows:
            lines.append(
                ",".join(
                    [format(v, ".17g") if type(v) is float else _csv_cell(v) for _, v in row]
                )
            )
        sys.stdout.write("\n".join(lines) + "\n")


def _xyz(prefix: str, v) -> tuple:
    return ((f"{prefix}_x", v.x), (f"{prefix}_y", v.y), (f"{prefix}_z", v.z))


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
    if cfg.sweep is None:
        if cfg.boost is None:
            raise ConfigError("transform requires a boost section or a beta sweep")
        return [cfg.boost]
    if cfg.boost is not None:
        raise ConfigError(
            "boost.beta cannot be combined with the beta sweep given in sweep.values"
        )
    try:
        return [BoostSpec(v) for v in cfg.sweep.values]
    except ValueError as exc:
        raise ConfigError(f"sweep.values: {exc}") from exc


def _transform_out_of_range(m: Material, boost: BoostSpec) -> NonFiniteResult:
    return NonFiniteResult(
        "transformed constants leave the float range at"
        f" epsilon={m.epsilon!r}, mu={m.mu!r}, beta={boost.beta!r}"
    )


def cmd_transform(cfg: RunConfig, args) -> int:
    m = cfg.material
    n = m.index
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
            ("beta", boost.beta),
            ("epsilon_prime", tc.epsilon_prime),
            ("mu_prime", tc.mu_prime),
            ("index_prime", n_prime),
            ("impedance_ratio", impedance),
            ("impedance_delta", abs(impedance - m.epsilon / m.mu)),
            ("index_delta", abs(n_prime - expected_index)),
        )
        # n = sqrt(eps mu) or eps/mu overflows at extreme constants
        _, values = zip(*row)
        if not all(map(math.isfinite, values)):
            raise _transform_out_of_range(m, boost)
        rows.append(row)
    _emit(cfg, args, rows)
    return 0


def cmd_expand_check(cfg: RunConfig, args) -> int:
    if cfg.fields is None:
        raise ConfigError("expand-check requires a fields section")
    _warn_longitudinal(cfg.fields)
    grid = DEFAULT_BETA_GRID if cfg.sweep is None else cfg.sweep.values
    report = verify_expansion(cfg.material, cfg.fields, grid)
    rows = [
        (
            ("beta", beta),
            ("residual", res),
            ("slope", report.slope),
            ("derivative_delta", report.derivative_delta),
            ("derivative_rel", report.derivative_rel),
            ("identically_zero", report.identically_zero),
        )
        for beta, res in zip(report.beta_grid, report.residuals)
    ]
    _emit(cfg, args, rows)
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
    row = (
        *_xyz("v", vr.rhs_vector),
        ("transverse_residual", vr.transverse_residual),
        *_xyz("am", vr.abraham_minkowski_term),
        *_xyz("chi_E", vr.chi_E_term),
        *_xyz("chi_B", vr.chi_B_term),
        ("mu_term_z", vr.mu_term_z),
        ("term_ratio", term_ratio_of(vr)),
    )
    _emit(cfg, args, [row])
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
    else:
        # a grid_n sweep: every value is checked before any grid is
        # built; the range test comes first, so int() never meets inf
        # or nan
        for v in sweep.values:
            if not (2 <= v <= MAX_GRID_N and v == int(v)):
                raise ConfigError(
                    "sweep.values: grid_n must be an integer in"
                    f" [2, MAX_GRID_N={MAX_GRID_N}], got {v!r}"
                )
        entries = []
        for v in sweep.values:
            ms = build_mode_set(m, int(v), vac.cutoff, vac.volume)
            entries.append((int(v), vacuum_bilinears(ms, m)))
        slopes = dict.fromkeys(MAGNITUDE_CHANNELS)

    rows = [
        (
            ("sweep_parameter", sweep.parameter),
            ("sweep_value", value),
            ("mode_count", sums.mode_count),
            ("zero_point_energy", sums.zero_point_energy),
            ("e_cross_b_z", sums.e_cross_b.z),
            ("e_cross_chiT_e_z", sums.e_cross_chiT_e.z),
            ("b_cross_chi_b_z", sums.b_cross_chi_b.z),
            ("b_dot_chiT_e", sums.b_dot_chiT_e),
            *((name, getattr(sums, name)) for name in MAGNITUDE_CHANNELS),
            *((f"slope_{name}", slopes[name]) for name in MAGNITUDE_CHANNELS),
        )
        for value, sums in entries
    ]
    _emit(cfg, args, rows)
    return 0


def _override_beta(cfg: RunConfig, beta: float) -> RunConfig:
    try:
        return cfg._replace(boost=BoostSpec(beta))
    except ValueError as exc:
        raise ConfigError(f"--beta: {exc}") from exc


def _override_cutoff(cfg: RunConfig, cutoff: float) -> RunConfig:
    if cfg.vacuum is None:
        raise ConfigError("--cutoff given but the config has no vacuum section")
    return cfg._replace(vacuum=cfg.vacuum._replace(cutoff=_positive(cutoff, "--cutoff")))


# option name -> (help, function that checks its value and applies it)
_OVERRIDES = {
    "beta": ("override boost.beta from the config", _override_beta),
    "cutoff": ("override vacuum.cutoff from the config", _override_cutoff),
}

# subcommand -> (handler, help, the overrides it reads, the sweep
# parameters it reads)
_SUBCOMMANDS = {
    "transform": (
        cmd_transform,
        "boosted optical constants and consistency deltas",
        ("beta",),
        ("beta",),
    ),
    "expand-check": (
        cmd_expand_check,
        "verify the first-order truncation is O(beta^2)",
        (),
        ("beta",),
    ),
    "velocity": (
        cmd_velocity,
        "velocity equation terms, classical or vacuum-summed",
        ("cutoff",),
        (),
    ),
    "vacuum-sweep": (
        cmd_vacuum_sweep,
        "zero-point bilinear sums across cutoff or grid size",
        ("cutoff",),
        ("cutoff", "grid_n"),
    ),
}


_FORMATS = ("csv", "json")


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's print_help drops the OSError of a closed stdout
        (sys.stdout if file is None else file).write(self.format_help())

    def _get_values(self, action, arg_strings):
        # argparse before 3.13 stores [] for an option's value "--", as
        # in --beta=--; 3.13 converts and checks it as any other value
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and only when needed.

    Parsing gives a fresh Namespace on every call and writes usage and
    errors to sys.stdout and sys.stderr as they are at that call, so
    reusing the parser leaves every call's output unchanged.
    """
    parser = _Parser(
        prog="vacmom",
        description="Momentum of a moving magnetoelectric medium:"
        " constant transforms, expansion checks, velocity terms,"
        " and zero-point mode sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, overrides, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.add_argument("config", help="path to JSON config file")
        p.add_argument(
            "--format",
            choices=_FORMATS,
            default="csv",
            help="output format (default csv)",
        )
        for option in overrides:
            p.add_argument(f"--{option}", type=float, help=_OVERRIDES[option][0])
    return parser


# subcommand -> the namespace parse_args gives it before any option, in
# parse_args' attribute order
_DEFAULTS = {
    name: {"command": name, "config": None, "format": "csv", **dict.fromkeys(overrides)}
    for name, (_, _, overrides, _) in _SUBCOMMANDS.items()
}
_DESTS = {f"--{dest}": dest for dest in ("format", *_OVERRIDES)}


def _parse_own_form(argv: list) -> argparse.Namespace | None:
    """The Namespace parse_args(argv) gives, if argv has the CLI's own form.

    That form is a subcommand, one config path that does not start with
    "-", and any of --format and the subcommand's overrides, each as
    "--name value" or "--name=value", the last one winning. A separate
    value may start with "-" only as a number the subparsers read as
    one. --format takes csv or json; an override takes what float()
    takes, as argparse converts it. Any other argv gives None.
    """
    defaults = _DEFAULTS.get(argv[0]) if argv else None
    if defaults is None:
        return None
    values = defaults.copy()
    config = None
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            if not token.startswith("-"):
                if config is not None:
                    return None
                config = token
                continue
            option, eq, value = token.partition("=")
            dest = _DESTS.get(option)
            if dest not in values:
                return None
            if not eq:
                value = next(tokens, None)
                if value is None or (
                    value.startswith("-") and not _NEGATIVE_NUMBER.match(value)
                ):
                    return None
            if dest == "format":
                if value not in _FORMATS:
                    return None
            else:
                value = float(value)
            values[dest] = value
    except (AttributeError, TypeError, ValueError):
        # a token that is not a str, or a value float() rejects
        return None
    if config is None:
        return None
    values["config"] = config
    # Namespace(**values) would set the attributes one by one, slowly
    args = argparse.Namespace()
    vars(args).update(values)
    return args


def _parse_args(argv) -> argparse.Namespace:
    """parser.parse_args(argv), without the parser for the CLI's own form.

    An argv of that form (see _parse_own_form) is read in one pass; any
    other, help, usage errors, abbreviations and "--" included, goes to
    the argparse parser, which is then built if it is not yet.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_own_form(argv)
    if args is None:
        return _build_parser().parse_args(argv)
    return args


def main(argv=None) -> int:
    try:
        try:
            args = _parse_args(argv)
        except SystemExit:
            # --help prints and exits in parse_args: flush to catch a closed stdout
            sys.stdout.flush()
            raise
        handler, _, overrides, sweeps = _SUBCOMMANDS[args.command]
        cfg = load_config(args.config)
        for option in overrides:
            value = getattr(args, option)
            if value is not None:
                cfg = _OVERRIDES[option][1](cfg, value)
        if cfg.sweep is not None:
            swept = cfg.sweep.parameter
            if swept not in sweeps:
                raise ConfigError(
                    f"{args.command} does not read a {swept!r} sweep"
                    f" (it sweeps: {', '.join(sweeps) or 'nothing'})"
                )
            # the sweep would win and the override be silently dropped
            if getattr(args, swept, None) is not None:
                raise ConfigError(
                    f"--{swept} cannot override the {swept} sweep given in sweep.values"
                )
        code = handler(cfg, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; pointing fd 1 at devnull keeps the
        # flush at interpreter exit from reporting the same error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
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
