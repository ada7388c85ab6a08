"""Stdlib-only checks of the CLI against the standard library and an oracle.

The CLI reads its argv without argparse, writes JSON's scalars in one
pass of CPython's C encoder into an indent=2 layout of its own, and
joins CSV lines itself. Each of these copies behaviour of
the standard library that a Python release could change, so this
script checks them against the standard library of the interpreter
that runs it:

- ``cli.main`` and its argv reader ``cli._parse_own_form`` against
  ``reference_parser()``, the argparse parser the CLI once used, over a
  seeded argv corpus: an argv the reader accepts gives the reference's
  namespace (nan equal to itself), with a format the CLI writes and
  overrides that are None or floats; an argv the reference rejects
  exits 2 with a usage line on stderr; an argv the reference reads and
  the reader does not holds an abbreviated option, "--" or a config
  path that starts with "-"; help is printed, with exit 0, if and only
  if -h or --help is a token; and no argv raises;
- the JSON that ``cli._emit`` writes against ``json.dumps(indent=2)``,
  in one write, for seeded payloads: every set of config sections,
  lists of every length, and every kind of scalar (nan, signed zero,
  subnormal, huge and infinite floats, ints past 2**64, bools, None,
  strings with escapes, non-ASCII text and "%"), in keys too;
- the CSV that ``cli._emit`` writes against ``csv.writer``;
- the malformed-file table, run through ``cli.main``;
- ``parse_config`` against ``CONFIG_REJECTIONS``, a table from each
  schema rule to its exact rejection message;
- random CLI runs against ``check_run``, the oracle of a whole run:
  ``FIXED_RUNS``, then seeded draws of ``random_run``, the one generator
  of random configs, which the CLI fuzz test (through hypothesis) and
  ``tests/parent_diff.py`` also call. A run gives help, a usage error, a
  documented exit code with a message or finite output, and never a
  traceback; its JSON stdout is ``json.dumps(indent=2)`` of itself.

It needs nothing beyond the standard library, so it runs on any Python
>= 3.10, with or without pytest, from the repository root:

    python tests/portable_checks.py [--seed N] [--count N]

It prints one line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import random
import struct
import sys
import tempfile

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from vacmom import MAX_GRID_N, BoostSpec, ConfigError, FieldState, Material, cli  # noqa: E402
from vacmom.config import _SCHEMA, RunConfig, SweepSpec, VacuumSpec, parse_config  # noqa: E402

SUBCOMMANDS = tuple(cli._SUBCOMMANDS)

# stand-ins for config paths; tests/parent_diff.py swaps in real files
CONFIG_TOKENS = ("config.json", "other.json")

_FORMAT_VALUES = ("csv", "json")
_NUMBER_VALUES = (
    "0.1", "-0.8", "2e5", "1e-05", "-1e-05", "-1.5E+3", "1e-300", "1e400", "-0.0",
    "-1", "-.5", "1.", "nan", "inf", "1_0", " 1 ",
)
# values argparse rejects, or takes only in the --name=value spelling
_BAD_VALUES = ("xml", "JSON", "", "-nan", "-inf", "-1_0", "0x10", "-1 2", "x", "-x", "--")
# the tokens of the argvs drawn token by token: every subcommand and
# option, = forms, abbreviations, "--", "-", help and unknown options
_TOKENS = (
    *SUBCOMMANDS, "vel", "bogus", *CONFIG_TOKENS,
    "--format", "--format=json", "--format=csv", "--format=xml", "--format=",
    "--form", "--fo=json", "--f", "--=json",
    "--beta", "--beta=0.1", "--beta=-1e-05", "--beta=", "--bet", "--b=2",
    "--cutoff", "--cutoff=2e5", "--cutoff=-inf", "--cut",
    "--", "-", "-h", "--help", "--he", "-x", "--bogus", "--bogus=1",
    *_FORMAT_VALUES, *_NUMBER_VALUES, *_BAD_VALUES,
)


def _near_own_form(rng: random.Random) -> list[str]:
    """A subcommand, a config path and options, some spelled each way,
    some repeated, abbreviated or not read by the subcommand; now and
    then one token is replaced, inserted or removed."""
    command = rng.choice(SUBCOMMANDS)
    options = ["--format", *(f"--{o}" for o in cli._SUBCOMMANDS[command][2])]
    if rng.random() < 0.2:
        options += [f"--{o}" for o in cli._OVERRIDES]
    parts = [[rng.choice(CONFIG_TOKENS)]]
    for _ in range(rng.randrange(5)):
        option = rng.choice(options)
        if rng.random() < 0.1:
            # an abbreviation, or "-" or "--"
            option = option[: rng.choice((1, 2, rng.randrange(3, len(option))))]
        if rng.random() < 0.15:
            value = rng.choice(_BAD_VALUES + _FORMAT_VALUES + _NUMBER_VALUES)
        else:
            value = rng.choice(_FORMAT_VALUES if option == "--format" else _NUMBER_VALUES)
        parts.append([f"{option}={value}"] if rng.random() < 0.5 else [option, value])
    rng.shuffle(parts)
    argv = [command, *(token for part in parts for token in part)]
    if rng.random() < 0.3:
        i = rng.randrange(len(argv) + 1)
        edit = rng.randrange(3)
        if edit == 0 and i < len(argv):
            argv[i] = rng.choice(_TOKENS)
        elif edit == 1:
            argv.insert(i, rng.choice(_TOKENS))
        elif i < len(argv):
            del argv[i]
    return argv


# argvs every corpus starts with: "-", "--" and "--=" are prefixes of
# every option, expand-check reads only --format, and a token that is
# not a str is a usage error
_EDGE_ARGVS = (
    [],
    ["-h"],
    ["bogus", "-h"],
    ["velocity", "config.json", "--format", "--help"],
    ["velocity", "-1"],
    ["velocity", "-"],
    [None],
    ["velocity", 7],
    ["velocity", "config.json", "--cutoff", 3.0],
    ["transform", "config.json", "--beta", 0.1, "-h"],
    ["vel", "config.json"],
    ["--format", "json", "velocity", "config.json"],
    ["velocity", "-h"],
    ["velocity", "--he"],
    ["velocity", "config.json", "--"],
    ["velocity", "--", "config.json"],
    ["velocity", "-", "config.json"],
    ["expand-check", "config.json", "--", "json"],
    ["expand-check", "config.json", "-", "csv"],
    ["expand-check", "config.json", "--=json"],
    ["expand-check", "config.json", "-=json"],
    ["transform", "config.json", "--fo", "json"],
    ["transform", "config.json", "--b=0.1"],
    ["transform", "config.json", "--beta", "-1e-05"],
    ["transform", "config.json", "--beta", "-inf"],
    ["transform", "config.json", "--beta=-inf"],
    ["transform", "config.json", "--format", "xml"],
    ["transform", "config.json", "--beta"],
    ["transform", "config.json", "--cutoff", "1"],
    # before 3.13 argparse stored [] for an option's explicit "--"
    ["transform", "config.json", "--beta=--"],
    ["velocity", "config.json", "--cutoff=--"],
    ["transform", "config.json", "--format=--"],
)


def argv_corpus(seed: int, count: int) -> list[list[str]]:
    """`count` seeded argvs after the edge argvs: half near the CLI's own
    form, half drawn token by token, most of those after a subcommand."""
    rng = random.Random(f"argv/{seed}")
    corpus = [list(argv) for argv in _EDGE_ARGVS]
    for i in range(count - len(corpus)):
        if i % 2 == 0:
            corpus.append(_near_own_form(rng))
            continue
        argv = [rng.choice(_TOKENS) for _ in range(rng.randrange(7))]
        if argv and rng.random() < 0.6:
            argv[0] = rng.choice(SUBCOMMANDS)
        corpus.append(argv)
    return corpus


class _ReferenceParser(argparse.ArgumentParser):
    def _get_values(self, action, arg_strings):
        # argparse before 3.13 stores [] for an option's value "--", as
        # in --beta=--; 3.13 converts and checks it as any other value
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI read argv with before it read argv
    itself: the oracle of check_parse, as polarization_reference.py is
    the oracle of the vacuum kernel."""
    parser = _ReferenceParser(prog="vacmom")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, overrides, _) in cli._SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        # the matcher of some Pythons reads -1e-05 as an option, not a number
        p._negative_number_matcher = cli._NEGATIVE_NUMBER
        p.add_argument("config", help="path to JSON config file")
        p.add_argument("--format", choices=cli._FORMATS, default="csv")
        for option in overrides:
            p.add_argument(f"--{option}", type=float, help=cli._OVERRIDES[option][0])
    return parser


def _outcome(call, argv):
    """(result or None, exit code or the exception raised, stdout, stderr)
    of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result, code = call(argv), None
        except SystemExit as exc:
            result, code = None, exc.code
        except Exception as exc:
            result, code = None, repr(exc)
    return result, code, out.getvalue(), err.getvalue()


def _key(namespace) -> str:
    """A namespace as text that counts nan equal to itself and tells -0.0
    from 0.0."""
    return repr(sorted(vars(namespace).items()))


def _typed(args) -> bool:
    """Whether a namespace holds what cli.main reads: a format it writes
    and each override None or a float."""
    return args.format in cli._FORMATS and all(
        type(getattr(args, option, None)) in (type(None), float) for option in cli._OVERRIDES
    )


_LONG_OPTIONS = ("--help", "--format", *(f"--{option}" for option in cli._OVERRIDES))


def _argparse_only(argv, namespace) -> bool:
    """Whether an argv argparse reads holds what only argparse reads: an
    abbreviated option or the "--" separator, each a proper prefix of a
    long option, or a config path that starts with "-" ("-", "-1")."""
    prefixes = {t.partition("=")[0] for t in argv if isinstance(t, str) and t.startswith("--")}
    if any(o.startswith(p) and o != p for p in prefixes for o in _LONG_OPTIONS):
        return True
    return namespace is not None and namespace.config.startswith("-")


def _usage_error(code, out: str, err: str) -> bool:
    lines = err.splitlines()
    return (code, out, len(lines)) == (2, "", 2) and (
        lines[0].startswith("usage: vacmom") and lines[1].startswith("vacmom: error: ")
    )


def check_parse(seed: int, count: int) -> tuple[str, list[str]]:
    reference = reference_parser()
    failures, accepted = [], 0
    for argv in argv_corpus(seed, count):
        want, want_code, _, _ = _outcome(reference.parse_args, argv)
        got, _, _, _ = _outcome(cli._parse_own_form, argv)
        accepted += got is not None
        code, raised, out, err = _outcome(cli.main, argv)
        helped = "-h" in argv or "--help" in argv
        if raised is not None:
            problem = f"cli.main raised {raised}"
        elif helped != (code == 0 and out.startswith("usage: vacmom")):
            problem = f"help {'not ' * helped}printed"
        elif helped:
            problem = None if err == "" else f"help with stderr {err!r}"
        elif got is not None:
            if want is None or _key(got) != _key(want):
                problem = f"namespace {_key(got)}, reference {want and _key(want)}"
            else:
                problem = None if _typed(got) else f"namespace {_key(got)}"
        elif not _usage_error(code, out, err):
            problem = f"exit {code}, stdout {out!r}, stderr {err!r}"
        elif (want is not None or want_code == 0) and not _argparse_only(argv, want):
            problem = f"the reference reads it: {want and _key(want)}, exit {want_code}"
        else:
            problem = None
        if problem:
            failures.append(f"{argv!r}: {problem}")
    # a corpus the reader never accepts would check no namespace
    if accepted < count // 5:
        failures.append(f"the reader accepted only {accepted} argvs")
    return f"{count} argvs, {accepted} accepted", failures


_SPECIAL_FLOATS = (
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
    2.2250738585072014e-308, 1e-300, 1e300, 1e308, -1e308, 1.7976931348623157e308,
    0.1, 1e16,
)
_CHARS = 'aZ0s% é€"\\/\n\t\x00\x1f\x7f \ud800\U0001f600'


def _string(rng: random.Random) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(5)))


def _float(rng: random.Random) -> float:
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice(_SPECIAL_FLOATS)
    if kind == 1:
        return rng.uniform(-1e3, 1e3)
    # any bit pattern: subnormals, huge exponents, nan payloads
    return struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]


def _int(rng: random.Random) -> int:
    """An int of up to 8, 64 or 1,100 bits, so past the float range too."""
    bound = 2 ** rng.choice((8, 64, 1100))
    return rng.randint(-bound, bound)


def _scalar(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice((None, True, False))
    if kind == 1:
        return _int(rng)
    if kind == 2:
        return _float(rng)
    return _string(rng)


# the CSV header of each subcommand, as test_acceptance pins it
PINNED_CSV_HEADER = {
    "transform": "beta,epsilon_prime,mu_prime,index_prime,impedance_ratio,"
    "impedance_delta,index_delta",
    "expand-check": "beta,residual,slope,derivative_delta,derivative_rel,identically_zero",
    "velocity": "v_x,v_y,v_z,transverse_residual,am_x,am_y,am_z,chi_E_x,chi_E_y,"
    "chi_E_z,chi_B_x,chi_B_y,chi_B_z,mu_term_z,term_ratio",
    "vacuum-sweep": "sweep_parameter,sweep_value,mode_count,zero_point_energy,"
    "e_cross_b_z,e_cross_chiT_e_z,b_cross_chi_b_z,b_dot_chiT_e,abs_e_cross_b,"
    "abs_e_cross_chiT_e,abs_b_cross_chi_b,abs_b_dot_chiT_e,slope_abs_e_cross_b,"
    "slope_abs_e_cross_chiT_e,slope_abs_b_cross_chi_b,slope_abs_b_dot_chiT_e",
}
_COLUMNS = sorted({c for header in PINNED_CSV_HEADER.values() for c in header.split(",")})


def _csv_value(rng: random.Random):
    kind = rng.randrange(5)
    if kind == 0:
        return _int(rng)
    if kind == 1:
        return rng.choice((None, True, False))
    if kind == 2:
        return rng.choice(("beta", "cutoff", "grid_n"))
    return _float(rng)


def _reference_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def expected_csv(rows) -> str:
    """What cli._emit writes as CSV for rows of (column, value) pairs:
    csv.writer's lines for the first row's columns and each row's cells."""
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow([column for column, _ in rows[0]])
    for row in rows:
        writer.writerow([_reference_cell(v) for _, v in row])
    return expected.getvalue()


def check_csv(seed: int, count: int) -> tuple[str, list[str]]:
    rng = random.Random(f"csv/{seed}")
    failures = []
    for _ in range(count):
        rows = [
            [(rng.choice(_COLUMNS), _csv_value(rng)) for _ in range(1 + rng.randrange(16))]
            for _ in range(1 + rng.randrange(4))
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(None, argparse.Namespace(format="csv"), rows)
        if out.getvalue() != expected_csv(rows):
            failures.append(f"{rows!r}")
    return f"{count} tables", failures


GOLDEN_MATERIAL = {
    "epsilon": 2.25,
    "mu": 1.0,
    "chi": [0.0, 1e-4, 0.0, -1e-4, 0.0, 0.0, 0.0, 0.0, 0.0],
    "rho0": 1.0,
}
CROSSED_FIELDS = {"E": [1.0, 0.0, 0.0], "B": [0.0, 1.0, 0.0]}


# each config section's record, built below with tuple.__new__ so that
# it holds any scalar, and the keys that hold a list
_SECTION_RECORDS = {
    "material": Material,
    "boost": BoostSpec,
    "fields": FieldState,
    "vacuum": VacuumSpec,
    "sweep": SweepSpec,
}
_LIST_KEYS = ("chi", "E", "B", "values")


def _payload(command: str, cfg: RunConfig, rows) -> dict:
    """What cli._emit writes as JSON, as a dict json.dumps lays out."""
    return {
        "command": command,
        "config": {
            name: {key: _plain(getattr(spec, key)) for key in keys}
            for name, (_, keys) in _SCHEMA.items()
            if (spec := getattr(cfg, name)) is not None
        },
        "result": {
            "columns": [column for column, _ in rows[0]],
            "rows": [{c: None if v != v else v for c, v in row} for row in rows],
        },
    }


def _plain(value):
    return list(value) if isinstance(value, tuple) else value


def _emit_input(rng: random.Random) -> tuple[str, RunConfig, list]:
    """A command, a config of any set of sections, each list of any
    length and each value any scalar, and 1 to 4 rows of any scalars
    under 0 to 16 distinct columns."""
    sections = [
        tuple.__new__(
            _SECTION_RECORDS[name],
            [
                tuple(_scalar(rng) for _ in range(rng.randrange(11)))
                if key in _LIST_KEYS
                else _scalar(rng)
                for key in keys
            ],
        )
        if rng.random() < 0.5
        else None
        for name, (_, keys) in _SCHEMA.items()
    ]
    columns = dict.fromkeys(
        rng.choice(_COLUMNS) if rng.random() < 0.5 else _string(rng)
        for _ in range(rng.randrange(17))
    )
    rows = [[(c, _scalar(rng)) for c in columns] for _ in range(1 + rng.randrange(4))]
    command = rng.choice(SUBCOMMANDS) if rng.random() < 0.5 else _string(rng)
    return command, RunConfig(*sections), rows


# checked before the random inputs: every section, a row of every kind
# of scalar and columns that need escaping
_EMIT_EXAMPLE = (
    "transform",
    parse_config(
        {
            "material": GOLDEN_MATERIAL,
            "boost": {"beta": -0.0},
            "fields": CROSSED_FIELDS,
            "vacuum": {"grid_n": 4, "cutoff": 5e-324, "volume": 1e308},
            "sweep": {"parameter": "beta", "values": [0.1, math.inf, -1e308]},
        }
    ),
    [
        [
            ("beta", math.nan),
            ("a\u00e9\n\x00", -0.0),
            ("%s %% %(x)s", 5e-324),
            ('"\\', math.inf),
            ("\ud800\U0001f600", 2**64 + 1),
            ("mode_count", -(2**70)),
            ("slope", True),
            ("identically_zero", False),
            ("term_ratio", None),
            ("sweep_parameter", 'a"\\\n\t\x1f\x7f \u00e9\u20ac %s %'),
        ]
    ]
    * 2,
)


def check_json(seed: int, count: int) -> tuple[str, list[str]]:
    """cli._emit's JSON against json.dumps(indent=2), in one write."""
    rng = random.Random(f"json/{seed}")
    failures = []
    inputs = [_EMIT_EXAMPLE, *(_emit_input(rng) for _ in range(count - 1))]
    for command, cfg, rows in inputs:
        writes = _Writes()
        with contextlib.redirect_stdout(writes):
            cli._emit(cfg, argparse.Namespace(format="json", command=command), rows)
        expected = json.dumps(_payload(command, cfg, rows), indent=2) + "\n"
        if writes != [expected]:
            failures.append(f"{command!r}, {cfg!r}, {rows!r}")
    return f"{count} payloads", failures


class _Writes(list):
    """A stdout that keeps each write."""

    write = list.append


def _golden_config_text(*edits) -> str:
    """A transform config as JSON text; each (old, new) edit replaces the
    first occurrence of old."""
    text = json.dumps(
        {
            "material": GOLDEN_MATERIAL,
            "boost": {"beta": 0.1},
            "sweep": {"parameter": "beta", "values": [0.1, 0.2]},
        }
    )
    for old, new in edits:
        text = text.replace(old, new, 1)
    return text


_HUGE_INT = "1" + "0" * 400

# the lines of a file with a fault at line 2, column 19, whatever
# ends its lines
BROKEN_LINES = (b'{"material": {', b'  "epsilon": 2.25,,', b"}}")
_AT_2_19 = ":2:19: Expecting property name enclosed in double quotes"

# files that do not decode into a config, each with a piece of the
# message that must follow "config error: <path>"
MALFORMED_FILES = {
    # read with text mode's universal newlines, as CRLF and lone CR
    "crlf": (b"\r\n".join(BROKEN_LINES), _AT_2_19),
    "lone-cr": (b"\r".join(BROKEN_LINES), _AT_2_19),
    "invalid-utf-8": (b"\xff" + _golden_config_text().encode(), "can't decode byte 0xff"),
    "utf-16": (_golden_config_text().encode("utf-16"), "can't decode byte"),
    "deep-nesting": (b"[" * 100_000, "maximum recursion depth"),
    "int-digit-limit": (_golden_config_text(("2.25", "1" * 5000)).encode(), "4300"),
    "huge-int-epsilon": (
        _golden_config_text(("2.25", _HUGE_INT)).encode(),
        ".material.epsilon: too large for a float",
    ),
    "huge-int-sweep-value": (
        _golden_config_text(("0.2]", _HUGE_INT + "]")).encode(),
        ".sweep.values[1]: too large for a float",
    ),
    "duplicate-key": (
        _golden_config_text(('"mu": 1.0', '"epsilon": 9.0, "mu": 1.0')).encode(),
        "duplicate key 'epsilon'",
    ),
    "duplicate-section": (
        _golden_config_text(('"boost"', '"boost": {"beta": 0.3}, "boost"')).encode(),
        "duplicate key 'boost'",
    ),
}


def rejected_cutoffs(c: float) -> list[list[float]]:
    """Cutoff sweep values at a vacuum cutoff c > 0 that the CLI must
    reject, one rule broken in each, at every grid_n from 2: unsorted,
    repeated, <= 0, nan, inf, and a scaled grid past MAX_GRID_N. The
    CLI fuzz test and tests/parent_diff.py draw them."""
    return [
        [2.0 * c, c], [c, c], [0.0, c], [-c, c], [c, math.nan], [c, math.inf],
        [c, c * (MAX_GRID_N / 2 + 1)],
    ]


# grid_n sweep values the CLI must reject: not integers in [2, MAX_GRID_N]
REJECTED_GRID_NS = (4.5, 1, MAX_GRID_N + 1, math.nan)


def check_malformed_files(seed: int, count: int) -> tuple[str, list[str]]:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for case, (content, message) in MALFORMED_FILES.items():
            path = os.path.join(tmp, f"{case}.json")
            with open(path, "wb") as fh:
                fh.write(content)
            code, raised, out, err = _outcome(cli.main, ["transform", path])
            if (code, out) != (2, "") or not (
                err.startswith(f"config error: {path}") and message in err
            ):
                failures.append(f"{case}: exit {code} ({raised}), stdout {out!r}, stderr {err!r}")
    return f"{len(MALFORMED_FILES)} files", failures


# a config with every section, which the schema accepts
FULL_CONFIG = {
    "material": GOLDEN_MATERIAL,
    "boost": {"beta": 0.1},
    "fields": CROSSED_FIELDS,
    "vacuum": {"grid_n": 4, "cutoff": 1e5, "volume": 1.0},
    "sweep": {"parameter": "beta", "values": [0.1, 0.2]},
}

# an edit's value that deletes the item at its path
DELETE = object()

_GRID_N_RULE = f"grid_n must be an integer in [2, MAX_GRID_N={MAX_GRID_N}], got"

# rule -> (edits of FULL_CONFIG, the message of the ConfigError that
# parse_config raises at the default label "config"). An edit is a path
# of keys and list indices, () for the whole document, and the value it
# sets there. The document goes through json.dumps and json.loads, so
# nan and inf are read from the NaN and Infinity literals.
CONFIG_REJECTIONS = {
    "document not an object": ([((), [1.0])], "config: expected an object, got list"),
    "section not an object": (
        [(("fields",), [1.0, 0.0])],
        "config.fields: expected an object, got list",
    ),
    "unknown section": ([(("boosts",), {"beta": 0.1})], "config: unknown key(s) boosts"),
    "unknown keys": (
        [(("material", "zeta"), 1.0), (("material", "alpha"), 1.0)],
        "config.material: unknown key(s) alpha, zeta",
    ),
    "missing section": ([(("material",), DELETE)], "config: missing required key 'material'"),
    "missing key": (
        [(("vacuum", "volume"), DELETE)],
        "config.vacuum: missing required key 'volume'",
    ),
    "string scalar": (
        [(("material", "epsilon"), "2.25")],
        "config.material.epsilon: expected a number, got '2.25'",
    ),
    "bool scalar": ([(("boost", "beta"), True)], "config.boost.beta: expected a number, got True"),
    "null scalar": (
        [(("vacuum", "cutoff"), None)],
        "config.vacuum.cutoff: expected a number, got None",
    ),
    "bool element": (
        [(("material", "chi", 3), False)],
        "config.material.chi[3]: expected a number, got False",
    ),
    "string element": (
        [(("fields", "B", 2), "1")],
        "config.fields.B[2]: expected a number, got '1'",
    ),
    "object sweep value": (
        [(("sweep", "values", 1), {})],
        "config.sweep.values[1]: expected a number, got {}",
    ),
    "huge int scalar": (
        [(("material", "rho0"), 10**400)],
        "config.material.rho0: too large for a float",
    ),
    "huge int element": (
        [(("fields", "E", 0), -(10**400))],
        "config.fields.E[0]: too large for a float",
    ),
    "huge int sweep value": (
        [(("sweep", "values", 0), 2**1024)],
        "config.sweep.values[0]: too large for a float",
    ),
    "scalar for a list": (
        [(("material", "chi"), 1.0)],
        "config.material.chi: expected a list of 9 numbers",
    ),
    "object for a list": (
        [(("fields", "E"), {"x": 1.0})],
        "config.fields.E: expected a list of 3 numbers",
    ),
    "short list": ([(("fields", "B"), [0.0, 1.0])], "config.fields.B: expected 3 numbers, got 2"),
    "long list": (
        [(("material", "chi"), [0.0] * 10)],
        "config.material.chi: expected 9 numbers, got 10",
    ),
    "NaN epsilon": (
        [(("material", "epsilon"), math.nan)],
        "config.material: Material parameter must be finite, got nan",
    ),
    "Infinity chi": (
        [(("material", "chi", 8), math.inf)],
        "config.material: Mat3 entry must be finite, got inf",
    ),
    "-Infinity field": (
        [(("fields", "E", 1), -math.inf)],
        "config.fields: Vec3 component must be finite, got -inf",
    ),
    "NaN beta": ([(("boost", "beta"), math.nan)], "config.boost: beta must be finite, got nan"),
    "Infinity cutoff": (
        [(("vacuum", "cutoff"), math.inf)],
        "config.vacuum.cutoff: must be finite and > 0, got inf",
    ),
    "NaN volume": (
        [(("vacuum", "volume"), math.nan)],
        "config.vacuum.volume: must be finite and > 0, got nan",
    ),
    "epsilon 0": (
        [(("material", "epsilon"), 0.0)],
        "config.material: epsilon must be > 0, got 0.0",
    ),
    "mu < 0": ([(("material", "mu"), -1)], "config.material: mu must be > 0, got -1.0"),
    "rho0 -0.0": ([(("material", "rho0"), -0.0)], "config.material: rho0 must be > 0, got -0.0"),
    "beta 1": ([(("boost", "beta"), 1)], "config.boost: |beta| must be < 1, got 1.0"),
    "beta < -1": ([(("boost", "beta"), -1.5)], "config.boost: |beta| must be < 1, got -1.5"),
    "grid_n 1": ([(("vacuum", "grid_n"), 1)], f"config.vacuum.grid_n: {_GRID_N_RULE} 1"),
    "grid_n past the largest": (
        [(("vacuum", "grid_n"), MAX_GRID_N + 1)],
        f"config.vacuum.grid_n: {_GRID_N_RULE} {MAX_GRID_N + 1}",
    ),
    "grid_n float": ([(("vacuum", "grid_n"), 4.0)], f"config.vacuum.grid_n: {_GRID_N_RULE} 4.0"),
    "grid_n bool": ([(("vacuum", "grid_n"), True)], f"config.vacuum.grid_n: {_GRID_N_RULE} True"),
    "cutoff 0": (
        [(("vacuum", "cutoff"), 0)],
        "config.vacuum.cutoff: must be finite and > 0, got 0.0",
    ),
    "volume < 0": (
        [(("vacuum", "volume"), -1e-300)],
        "config.vacuum.volume: must be finite and > 0, got -1e-300",
    ),
    "sweep parameter": (
        [(("sweep", "parameter"), "mass")],
        "config.sweep.parameter: must be one of beta, cutoff, grid_n, got 'mass'",
    ),
    "empty sweep values": (
        [(("sweep", "values"), [])],
        "config.sweep.values: expected a nonempty list of numbers",
    ),
    "scalar sweep values": (
        [(("sweep", "values"), 0.1)],
        "config.sweep.values: expected a nonempty list of numbers",
    ),
    # the sections, then each section's keys, are checked in schema order
    "first fault in schema order": (
        [(("sweep", "values"), []), (("material", "chi", 0), None), (("material", "mu"), "x")],
        "config.material.mu: expected a number, got 'x'",
    ),
}


def _edited(edits) -> dict:
    """FULL_CONFIG with the edits of a CONFIG_REJECTIONS entry."""
    document = json.loads(json.dumps(FULL_CONFIG))
    for path, value in edits:
        if not path:
            document = value
            continue
        *parents, last = path
        node = document
        for step in parents:
            node = node[step]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
    return document


def check_config(seed: int, count: int) -> tuple[str, list[str]]:
    """parse_config's exact message for each rule of CONFIG_REJECTIONS."""
    failures = []
    if parse_config(json.loads(json.dumps(FULL_CONFIG))) is None:
        failures.append("FULL_CONFIG did not parse")
    for rule, (edits, message) in CONFIG_REJECTIONS.items():
        try:
            parse_config(json.loads(json.dumps(_edited(edits))))
            got = "accepted"
        except ConfigError as exc:
            got = str(exc)
        except Exception as exc:
            got = f"raised {type(exc).__name__}: {exc}"
        if got != message:
            failures.append(f"{rule}: {got!r}, want {message!r}")
    return f"{len(CONFIG_REJECTIONS)} rules", failures


# each subcommand with the sweep parameters it does not read
UNREAD_SWEEPS = {
    "transform": ("cutoff", "grid_n"),
    "expand-check": ("cutoff", "grid_n"),
    "velocity": ("beta", "cutoff", "grid_n"),
    "vacuum-sweep": ("beta",),
}

_NUMBERS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
    1e300, -1e300, 1e308, 1.7976931348623157e308, 1e-05, -1e-05, 0.5, 1.0, 2.25,
)


def _number(rng: random.Random, wild: bool, positive: bool = False) -> float:
    """A power of ten within 1e+-12 of either sign, made positive for a
    key the schema requires > 0. In a wild run a quarter are one of
    _NUMBERS and a quarter within 1e+-300, and one in ten of those for a
    key required > 0 keeps its sign."""
    kind = rng.randrange(4) if wild else 2
    if kind == 0:
        x = rng.choice(_NUMBERS)
    else:
        span = 300.0 if kind == 1 else 12.0
        x = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-span, span)
    return abs(x) if positive and (not wild or rng.randrange(10) < 9) else x


def _beta(rng: random.Random) -> float:
    """0, a beta in [-0.99, 0.99], or +-10^-x for x in [0, 12] or [0, 300]."""
    kind = rng.randrange(3)
    if kind == 0:
        return 0.0
    if kind == 1:
        return rng.uniform(-0.99, 0.99)
    return rng.choice((1.0, -1.0)) * 10.0 ** -rng.uniform(0.0, rng.choice((12.0, 300.0)))


def _beta_grid(rng: random.Random) -> tuple[list[float], bool]:
    """3 or 4 ascending betas in (1e-7, 0.1] or (1e-301, 0.1], and whether
    the grid breaks a rule of verify_expansion instead, as in about one
    draw of four: two points, a descending grid or a last value past 0.1."""
    exponents = sorted(rng.sample(range(rng.choice((-6, -300)), 0), rng.randint(3, 4)))
    grid = [10.0 ** (e - rng.random()) for e in exponents]
    if rng.randrange(4) < 3:
        return grid, False
    return rng.choice((grid[:2], grid[::-1], [*grid[:-1], 0.2])), True


def _vacuum_sweep(rng: random.Random, cutoff: float) -> tuple[dict, bool]:
    """A cutoff or grid_n sweep, and whether one of its values breaks a
    sweep rule, as in about one draw of four."""
    bad = rng.randrange(4) == 3
    if rng.randrange(2) == 0:
        if bad:
            values = rng.choice(rejected_cutoffs(abs(cutoff)))
        else:
            # ascending cutoffs whose scaled grids stay small
            factors = sorted(rng.sample((1.0, 1.5, 2.0, 3.0), rng.randint(1, 4)))
            values = [cutoff * f for f in factors]
        return {"parameter": "cutoff", "values": values}, bad
    values = [rng.randint(2, 6) for _ in range(rng.randint(1, 3))]
    if bad:
        values.insert(rng.randint(0, len(values)), rng.choice(REJECTED_GRID_NS))
    return {"parameter": "grid_n", "values": values}, bad


def _spelled(rng: random.Random, option: str, value: str) -> list[str]:
    """The option and its value as one token or as two."""
    return [f"{option}={value}"] if rng.randrange(2) else [option, value]


def random_run(rng: random.Random) -> tuple[str, dict | str, list[str], bool]:
    """One random CLI run: (command, config, flags, rejected).

    The config is a dict, or JSON text where it repeats a section, which
    json.dumps cannot write. The flags hold --format and the overrides
    the command reads, each spelled as one token or as two, in random
    order. rejected says that the config must be rejected with exit 2.

    Every subcommand is drawn: transform with a boost, a beta sweep or
    both, expand-check with the default or a drawn beta grid, in about
    one of four a grid verify_expansion rejects, velocity classical or
    vacuum, and vacuum-sweep over cutoff or grid_n, in about one of four
    with a value from rejected_cutoffs or REJECTED_GRID_NS. Numbers come
    from _NUMBERS and from powers of ten out to 1e+-300, and vacuum
    cutoffs up to the largest float and at grid_n / 2 * 2**-1021, where
    half the grid's step turns subnormal, the two floats below it and
    the one above. Options
    --beta and --cutoff (written by repr, so negative exponents come up)
    may override the swept parameter. On top of that, each in about one
    draw of ten: an option value "--" (--beta=--), -h, --help or the
    abbreviation --form, an int past the float range, or a repeated
    section; and in one of five the sweep is replaced by one of a
    parameter the command does not read.
    """
    # a wild run explores the float range; in a tame one, a config error
    # comes from the drawn fault alone
    wild = rng.randrange(2) == 1
    number = functools.partial(_number, rng, wild)
    cfg = {
        "material": {
            "epsilon": number(positive=True),
            "mu": number(positive=True),
            "chi": [number() for _ in range(9)],
            "rho0": number(positive=True),
        }
    }
    command = rng.choice(SUBCOMMANDS)
    options, rejected = [], False
    if command == "transform":
        sections = rng.choice((("boost",), ("sweep",), ("boost", "sweep")))
        if "boost" in sections:
            cfg["boost"] = {"beta": _beta(rng)}
        if "sweep" in sections:
            betas = [_beta(rng) for _ in range(rng.randint(1, 3))]
            cfg["sweep"] = {"parameter": "beta", "values": betas}
        # the sweep would win and boost.beta be dropped
        rejected = len(sections) == 2
        if rng.randrange(3) == 2:
            options.append(_spelled(rng, "--beta", repr(_beta(rng))))
            rejected = rejected or "sweep" in sections
    elif command == "expand-check" or (command == "velocity" and rng.randrange(2)):
        cfg["fields"] = {"E": [number() for _ in range(3)], "B": [number() for _ in range(3)]}
        if command == "expand-check" and rng.randrange(2):
            values, rejected = _beta_grid(rng)
            cfg["sweep"] = {"parameter": "beta", "values": values}
    else:
        grid_n = rng.randint(2, 6)
        kind = rng.randrange(5) if wild else 0
        if kind == 4:
            cutoff = rng.uniform(1e300, sys.float_info.max)
        elif kind == 3:
            # half the step 2 cutoff / grid_n is 2**-1022 at edge; two
            # ulps below, it rounds below that at every grid_n, and the
            # grid is filtered at that step instead of at step 1
            edge = grid_n / 2.0 * 2.0**-1021
            below = math.nextafter(edge, 0.0)
            cutoff = rng.choice(
                (math.nextafter(below, 0.0), below, edge, math.nextafter(edge, 1.0))
            )
        else:
            cutoff = number(positive=True)
        cfg["vacuum"] = {
            "grid_n": grid_n,
            "cutoff": cutoff,
            "volume": number(positive=True),
        }
        if command == "vacuum-sweep":
            cfg["sweep"], rejected = _vacuum_sweep(rng, cutoff)
        cutoff_swept = cfg.get("sweep", {}).get("parameter") == "cutoff"
        # --cutoff would be rejected before a bad value of the sweep is read
        if not (rejected and cutoff_swept) and rng.randrange(5) >= 3:
            options.append(_spelled(rng, "--cutoff", repr(number(positive=True))))
            rejected = rejected or cutoff_swept
    options.append(_spelled(rng, "--format", rng.choice(cli._FORMATS)))
    rng.shuffle(options)
    flags = [token for option in options for token in option]
    if rng.randrange(10) == 9:
        flags.append(rng.choice(("--beta=--", "--cutoff=--", "--format=--")))
    if rng.randrange(10) == 9:
        flags += rng.choice((["-h"], ["--help"], ["--form", "json"]))
    if rng.randrange(5) == 4:
        values = [number() for _ in range(rng.randint(1, 3))]
        cfg["sweep"] = {"parameter": rng.choice(UNREAD_SWEEPS[command]), "values": values}
        rejected = True
    fault = rng.randrange(10)
    if fault == 8:
        places = [
            (section, key)
            for section in ("material", "boost", "vacuum", "sweep")
            for key in cfg.get(section, ())
            if key not in ("chi", "grid_n", "parameter")
        ]
        section, key = rng.choice(places)
        huge = rng.choice((10**400, -(10**400), 2**1024))
        if key == "values":
            cfg[section][key][-1] = huge
        else:
            cfg[section][key] = huge
        rejected = True
    elif fault == 9:
        section = rng.choice(sorted(cfg))
        cfg = json.dumps(cfg)[:-1] + f", {json.dumps(section)}: {json.dumps(cfg[section])}}}"
        rejected = True
    return command, cfg, flags, rejected


# n V underflows to 0 at these; both once ended in a ZeroDivisionError
_UNDERFLOWING_INDEX = {"epsilon": 4.4e-289, "mu": 4.1e-68, "chi": [0.0] * 9, "rho0": 1.0}
_UNDERFLOWING_N_VOLUME = dict(_UNDERFLOWING_INDEX, epsilon=1.0, mu=5.2e-292)

# runs that once failed or that pin a rule, checked before the random ones
FIXED_RUNS = (
    (
        "velocity",
        {"material": _UNDERFLOWING_INDEX, "vacuum": {"grid_n": 2, "cutoff": 1e5, "volume": 1.0}},
        ["--format", "csv"],
        False,
    ),
    (
        "vacuum-sweep",
        {
            "material": _UNDERFLOWING_N_VOLUME,
            "vacuum": {"grid_n": 2, "cutoff": 1e5, "volume": 5.8e-199},
            "sweep": {"parameter": "grid_n", "values": [2]},
        },
        ["--format", "csv"],
        False,
    ),
    (
        "transform",
        {"material": dict(GOLDEN_MATERIAL, epsilon=1e308, mu=1e308)},
        ["--format", "csv", "--beta=0.1"],
        False,
    ),
    (
        "expand-check",
        {"material": _UNDERFLOWING_INDEX, "fields": CROSSED_FIELDS},
        ["--format", "csv"],
        False,
    ),
    ("transform", {"material": GOLDEN_MATERIAL}, ["--format=json", "--beta", "-1e-05"], False),
    # the CLI reads JSON's 4.0 as the grid 4, and must not read 4.5 as 4
    (
        "vacuum-sweep",
        {
            "material": GOLDEN_MATERIAL,
            "vacuum": {"grid_n": 4, "cutoff": 1e5, "volume": 1.0},
            "sweep": {"parameter": "grid_n", "values": [4.0, 4.5]},
        },
        ["--format", "csv"],
        True,
    ),
    # but vacuum.grid_n must be an int: only a sweep value is read as one
    (
        "velocity",
        {"material": GOLDEN_MATERIAL, "vacuum": {"grid_n": 4.0, "cutoff": 1e5, "volume": 1.0}},
        ["--format", "csv"],
        True,
    ),
    # expand-check where random draws seldom go: chi = 0 leaves the
    # slope out, n = 1e6 moves the probe step to 0.5 / n, and the
    # first-order bracket B . chi^T (z x B) of these fields overflows
    (
        "expand-check",
        {"material": dict(GOLDEN_MATERIAL, chi=[0.0] * 9), "fields": CROSSED_FIELDS},
        ["--format", "csv"],
        False,
    ),
    (
        "expand-check",
        {"material": dict(GOLDEN_MATERIAL, epsilon=1e12), "fields": CROSSED_FIELDS},
        ["--format", "json"],
        False,
    ),
    (
        "expand-check",
        {"material": GOLDEN_MATERIAL, "fields": {"E": [0.0] * 3, "B": [1e160, 1e160, 0.0]}},
        ["--format", "csv"],
        True,
    ),
)


def check_run(run, path: str) -> tuple[object, str | None]:
    """The exit code of one run of random_run's form, its config written
    to path, and what is wrong with its outcome, or None.

    -h or --help prints help with exit 0; --form or an option value "--"
    is a usage error. Any other run exits 0, 2, 3, 4 or 5, and 2 if it
    is rejected, with "duplicate key" on stderr for a repeated section;
    a nonzero exit writes a message to stderr. Every number of an exit
    0 is finite but an unfitted slope, a magnitude slope and term_ratio,
    and its JSON stdout is json.dumps(indent=2) of what it decodes to.
    """
    command, cfg, flags, rejected = run
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cfg if isinstance(cfg, str) else json.dumps(cfg))
    code, raised, out, err = _outcome(cli.main, [command, path, *flags])
    if raised is not None:
        return code, f"cli.main raised {raised}"
    if "-h" in flags or "--help" in flags:
        helped = (code, err) == (0, "") and out.startswith("usage: vacmom")
        return code, None if helped else f"no help: exit {code}, stderr {err!r}"
    # both are read as argv, before the config
    if "--form" in flags or any(token.endswith("=--") for token in flags):
        usage = _usage_error(code, out, err)
        return code, None if usage else f"no usage error: exit {code}, stderr {err!r}"
    if code not in (0, 2, 3, 4, 5) or (rejected and code != 2):
        return code, f"exit {code}, stderr {err!r}"
    if isinstance(cfg, str) and "duplicate key" not in err:
        return code, f"a repeated section gave stderr {err!r}"
    if code != 0:
        return code, None if err else f"exit {code} with an empty stderr"
    if out.startswith("{"):
        payload = json.loads(out)
        if out != json.dumps(payload, indent=2) + "\n":
            return code, "JSON stdout not laid out as json.dumps(indent=2)"
        rows = payload["result"]["rows"]
    else:
        rows = list(csv.DictReader(io.StringIO(out)))
    for row in rows:
        for column, value in row.items():
            try:
                x = float(value)
            except (TypeError, ValueError):  # null, or a parameter name
                continue
            # expand-check leaves the slope out when every residual is 0
            unfitted = column == "slope" and row["identically_zero"] in (True, "true")
            if not (math.isfinite(x) or unfitted or column == "term_ratio"):
                if not column.startswith("slope_"):
                    return code, f"{column} = {value!r}"
    return code, None


def check_runs(seed: int, count: int) -> tuple[str, list[str]]:
    rng = random.Random(f"runs/{seed}")
    runs = [*FIXED_RUNS, *(random_run(rng) for _ in range(count))]
    failures, passed = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        for run in runs:
            code, problem = check_run(run, path)
            passed += code == 0
            if problem:
                failures.append(f"{run!r}: {problem}")
    # runs that never get past the schema would check no output
    if passed < count // 10:
        failures.append(f"only {passed} runs exit 0")
    return f"{len(runs)} runs, {passed} exit 0", failures


CHECKS = {
    "parse_args": check_parse,
    "json": check_json,
    "csv": check_csv,
    "malformed files": check_malformed_files,
    "config": check_config,
    "runs": check_runs,
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--count",
        type=int,
        default=3000,
        help="argvs; a sixth as many values, tables and random runs",
    )
    args = p.parse_args(argv)
    print(f"python {sys.version.split()[0]}, seed {args.seed}")
    failed = False
    for name, check in CHECKS.items():
        count = args.count if name == "parse_args" else max(1, args.count // 6)
        summary, failures = check(args.seed, count)
        failed = failed or bool(failures)
        print(f"{name}: {summary}: {'FAILED' if failures else 'ok'}")
        for failure in failures[:5]:
            print(f"  {failure}")
        if len(failures) > 5:
            print(f"  ... and {len(failures) - 5} more")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
