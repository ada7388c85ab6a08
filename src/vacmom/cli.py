"""Batch command line front end.

Subcommands: transform | expand-check | velocity | vacuum-sweep. Each
reads one JSON config file, writes CSV (default) or JSON to stdout and
diagnostics to stderr, and uses the exit code contract

    0  success
    1  stdout was closed before all output was written
    2  usage error (an argv of another form, an abbreviated option and
       "--" included: the usage line and the reason go to stderr) or
       configuration error (decoding, parse, schema, or value rejection,
       including a key repeated within one object, values whose results
       leave the float range, a sweep of a parameter the subcommand does
       not read and an override of the parameter swept)
    3  degenerate boost (1 + n beta <= 0)
    4  expansion-order verification failed (expand-check only)
    5  empty vacuum mode set

CSV floats are written with 17 significant digits and JSON floats with
the shortest exact representation, so both round-trip bit for bit. An
undefined value (None or nan) is nan in CSV and null in JSON. An
override option is read only by the subcommands that use it. -h or
--help anywhere in argv prints help and exits 0.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import sys
from json.encoder import c_make_encoder, encode_basestring_ascii
from types import SimpleNamespace

from .algebra import BoostSpec, FieldState, Material, _check_beta, _check_grid_n
from .config import _SCHEMA, RunConfig, _positive, load_config
from .errors import (
    ConfigError,
    DegenerateBoost,
    DegenerateGrid,
    EmptyModeSet,
    NonFiniteResult,
)
from .lagrangian import verify_expansion
from .momentum import medium_velocity, term_ratio_of, velocity_from_bilinears
from .relativity import _constant_factors, _constants_at, index_of
from .vacuum import (
    MAGNITUDE_CHANNELS,
    SweepSums,
    build_mode_set,
    cutoff_sweep,
    scaling_slopes,
    sweep_sums,
    vacuum_bilinears,
)

DEFAULT_BETA_GRID = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2)
SLOPE_WINDOW = (1.9, 2.1)

_LONGITUDINAL_TOL = 1e-9
_isfinite = math.isfinite

# a separate option value that starts with "-": -1, -1.5, -.5, -1e-05
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _csv_cell(value) -> str:
    """The CSV cell of a value that is not a float; _emit writes floats."""
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# json.JSONEncoder's C encoder for indent=None (markers, default,
# encoder, indent, key and item separators, sort_keys, skipkeys,
# allow_nan), with "\n" between a list's items: no encoded scalar holds
# a raw line break, since encode_basestring_ascii escapes them all
_ENCODE_LEAVES = c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii, None, ": ", "\n",
    False, False, True,
)


def _block(items: list, depth: int, brackets: str) -> str:
    """The json.dumps(indent=2) layout of a container of laid-out items."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + inner[:-2] + brackets[1]


def _key(name: str) -> str:
    return encode_basestring_ascii(name).replace("%", "%%") + ": "


@functools.lru_cache(maxsize=32)
def _layout(shape: tuple, header: tuple, row_count: int) -> str:
    """The %s template json.dumps(indent=2) fills for one payload shape.

    shape holds, per config section present, its name and, per key, the
    length of its list or None for a scalar.
    """
    config = []
    for name, lengths in shape:
        keys = zip(_SCHEMA[name][1], lengths)
        items = [_key(k) + ("%s" if n is None else _block(["%s"] * n, 3, "[]")) for k, n in keys]
        config.append(_key(name) + _block(items, 2, "{}"))
    row = _block([_key(column) + "%s" for column in header], 3, "{}")
    result = [
        _key("columns") + _block(["%s"] * len(header), 2, "[]"),
        _key("rows") + _block([row] * row_count, 2, "[]"),
    ]
    top = [_key("command") + "%s", _key("config") + _block(config, 1, "{}")]
    return _block([*top, _key("result") + _block(result, 1, "{}")], 0, "{}") + "\n"


def _emit(cfg: RunConfig, args, rows) -> None:
    """Write rows of (column, value) pairs; the first row names the
    columns, and every row has them in that order.

    The output is built whole and written once. JSON is
    json.dumps(indent=2) of {"command", "config", "result": {"columns",
    "rows"}}, byte for byte: the C encoder writes every scalar in one
    pass and a template cached per shape lays them out. No CSV cell
    needs quoting: each is a number, nan, true, false, a column name or
    a sweep parameter, none of which holds a comma, a quote or a line
    break.
    """
    header = [column for column, _ in rows[0]]
    if args.format == "json":
        leaves = [args.command]
        shape = []
        # RunConfig's fields are the schema's sections and each
        # section record's fields its keys, in schema order
        for name, spec in zip(_SCHEMA, cfg):
            if spec is not None:
                lengths = []
                for value in spec:
                    if isinstance(value, tuple):
                        leaves += value
                        lengths.append(len(value))
                    else:
                        leaves.append(value)
                        lengths.append(None)
                shape.append((name, tuple(lengths)))
        leaves += header
        for row in rows:
            # nan, the one value unequal to itself, is written as null
            leaves += [None if v != v else v for _, v in row]
        text = "".join(_ENCODE_LEAVES(leaves, 0))
        layout = _layout(tuple(shape), tuple(header), len(rows))
        sys.stdout.write(layout % tuple(text[1:-1].split("\n")))
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


def _betas(cfg: RunConfig) -> tuple[float, ...]:
    """The betas transform writes a row for, each checked before any row."""
    if cfg.sweep is None:
        if cfg.boost is None:
            raise ConfigError("transform requires a boost section or a beta sweep")
        return (cfg.boost.beta,)
    if cfg.boost is not None:
        raise ConfigError(
            "boost.beta cannot be combined with the beta sweep given in sweep.values"
        )
    try:
        for beta in cfg.sweep.values:
            _check_beta(beta)
    except ValueError as exc:
        raise ConfigError(f"sweep.values: {exc}") from exc
    return cfg.sweep.values


def _transform_out_of_range(m: Material, beta: float) -> NonFiniteResult:
    return NonFiniteResult(
        "transformed constants leave the float range at"
        f" epsilon={m.epsilon!r}, mu={m.mu!r}, beta={beta!r}"
    )


def cmd_transform(cfg: RunConfig, args) -> int:
    m = cfg.material
    betas = _betas(cfg)
    factors = _constant_factors(m)
    n = factors[2]
    impedance_rest = m.epsilon / m.mu
    rows = []
    for beta in betas:
        constants = _constants_at(factors, beta)
        epsilon_prime, mu_prime = constants
        # mu' is 0 where mu/eps underflows or beta = -n
        if mu_prime == 0.0:
            raise _transform_out_of_range(m, beta)
        n_prime = index_of(constants)
        impedance = epsilon_prime / mu_prime
        impedance_delta = abs(impedance - impedance_rest)
        index_delta = abs(n_prime - (n + beta) / (1.0 + n * beta))
        # n = sqrt(eps mu) or eps/mu overflows at extreme constants. A
        # non-finite eps' leaves the impedance non-finite and a non-finite
        # mu' the index (eps' and mu' share a sign), and either its delta
        if not (_isfinite(impedance_delta) and _isfinite(index_delta)):
            raise _transform_out_of_range(m, beta)
        rows.append(
            (
                ("beta", beta),
                ("epsilon_prime", epsilon_prime),
                ("mu_prime", mu_prime),
                ("index_prime", n_prime),
                ("impedance_ratio", impedance),
                ("impedance_delta", impedance_delta),
                ("index_delta", index_delta),
            )
        )
    _emit(cfg, args, rows)
    return 0


def cmd_expand_check(cfg: RunConfig, args) -> int:
    if cfg.fields is None:
        raise ConfigError("expand-check requires a fields section")
    grid = DEFAULT_BETA_GRID if cfg.sweep is None else cfg.sweep.values
    try:
        report = verify_expansion(cfg.material, cfg.fields, grid)
    except DegenerateGrid as exc:
        # the default grid is valid, so the sweep is at fault
        raise ConfigError(f"sweep.values: {exc}") from exc
    _warn_longitudinal(cfg.fields)
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
        vr = velocity_from_bilinears(m, sums)
    else:
        if cfg.fields is None:
            raise ConfigError("velocity requires a fields or a vacuum section")
        vr = medium_velocity(m, cfg.fields)
        # after the velocity, so a run it rejects prints only the error
        _warn_longitudinal(cfg.fields)
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
        # JSON's 4.0 is the grid 4; every value is checked before any
        # grid is built
        grids = [int(v) if v.is_integer() else v for v in sweep.values]
        try:
            for grid_n, v in zip(grids, sweep.values):
                _check_grid_n(grid_n, v)
        except ValueError as exc:
            raise ConfigError(f"sweep.values: {exc}") from exc
        entries = [
            (grid_n, sweep_sums(build_mode_set(m, grid_n, vac.cutoff, vac.volume), m))
            for grid_n in grids
        ]
        slopes = dict.fromkeys(MAGNITUDE_CHANNELS)

    rows = [
        (
            ("sweep_parameter", sweep.parameter),
            ("sweep_value", value),
            *zip(SweepSums._fields, sums),
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
    try:
        cutoff = _positive(cutoff)
    except ValueError as exc:
        raise ConfigError(f"--cutoff: {exc}") from None
    return cfg._replace(vacuum=cfg.vacuum._replace(cutoff=cutoff))


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

# subcommand -> the namespace it starts from, before any option
_DEFAULTS = {
    name: {"command": name, "config": None, "format": "csv", **dict.fromkeys(overrides)}
    for name, (_, _, overrides, _) in _SUBCOMMANDS.items()
}
_DESTS = {f"--{dest}": dest for dest in ("format", *_OVERRIDES)}


class _Usage(Exception):
    """An argv the CLI does not read. Its args are the reason and the
    subcommand whose usage line goes with it, None for vacmom's own."""


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: vacmom [-h] {{{','.join(_SUBCOMMANDS)}}} ..."
    overrides = "".join(f" [--{o} {o.upper()}]" for o in _SUBCOMMANDS[command][2])
    return f"usage: vacmom {command} [-h] [--format {{{','.join(_FORMATS)}}}]{overrides} config"


def _help(command: str | None) -> str:
    """The usage line, then one line per argument and option."""
    head = [_usage(command), ""]
    options = [("-h, --help", "show this help message and exit")]
    if command is None:
        head += [
            "Momentum of a moving magnetoelectric medium: constant transforms, expansion",
            "checks, velocity terms, and zero-point mode sums.",
            "",
        ]
        arguments = [(name, entry[1]) for name, entry in _SUBCOMMANDS.items()]
    else:
        arguments = [("config", "path to JSON config file")]
        options.append((f"--format {{{','.join(_FORMATS)}}}", "output format (default csv)"))
        options += [(f"--{o} {o.upper()}", _OVERRIDES[o][0]) for o in _SUBCOMMANDS[command][2]]
    width = max(len(name) for name, _ in arguments + options)
    for title, rows in (("positional arguments", arguments), ("options", options)):
        head += [f"{title}:", *(f"  {name:<{width}}  {text}" for name, text in rows), ""]
    return "\n".join(head)


def _parse_own_form(argv: list) -> SimpleNamespace:
    """The command, config path, format and overrides argv gives.

    The CLI reads a subcommand, one config path that does not start with
    "-", and any of --format and the subcommand's overrides, each as
    "--name value" or "--name=value", the last one winning. A separate
    value may start with "-" only as a number such as -1e-05. --format
    takes csv or json; an override takes what float() takes. Any other
    argv, an abbreviated option and "--" included, raises _Usage.
    """
    if not argv:
        raise _Usage("the following arguments are required: command", None)
    try:
        values = _DEFAULTS[argv[0]].copy()
    except (KeyError, TypeError):
        raise _Usage(
            f"argument command: invalid choice: {argv[0]!r}"
            f" (choose from {', '.join(map(repr, _SUBCOMMANDS))})",
            None,
        ) from None
    command = argv[0]
    config = None
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            if not token.startswith("-") and config is None:
                config = token
                continue
            # a second config path, as an unknown option, is not in _DESTS
            option, eq, value = token.partition("=")
            dest = _DESTS.get(option)
            if dest not in values:
                raise _Usage(f"unrecognized argument: {token}", command)
            if not eq:
                value = next(tokens, None)
                if value is None or (
                    value.startswith("-") and not _NEGATIVE_NUMBER.match(value)
                ):
                    raise _Usage(f"argument {option}: expected one argument", command)
            if dest == "format":
                if value not in _FORMATS:
                    raise _Usage(
                        f"argument --format: invalid choice: {value!r}"
                        f" (choose from {', '.join(map(repr, _FORMATS))})",
                        command,
                    )
            else:
                value = float(value)
            values[dest] = value
    except (AttributeError, TypeError):
        # a token that is not a str
        token = next(t for t in argv if not isinstance(t, str))
        raise _Usage(f"argument {token!r} is not a str", command) from None
    except ValueError:
        raise _Usage(f"argument {option}: invalid float value: {value!r}", command) from None
    if config is None:
        raise _Usage("the following arguments are required: config", command)
    values["config"] = config
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            args = _parse_own_form(argv)
        except _Usage as exc:
            reason, command = exc.args
            # -h and --help are neither a config path nor a value, so
            # every argv that holds one ends here
            if "-h" in argv or "--help" in argv:
                sys.stdout.write(_help(command))
                sys.stdout.flush()
                return 0
            print(f"{_usage(command)}\nvacmom: error: {reason}", file=sys.stderr)
            return 2
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
    except (ConfigError, NonFiniteResult) as exc:
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
