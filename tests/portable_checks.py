"""Stdlib-only checks of the CLI's fast paths against the code they copy.

The CLI parses its own argv forms without argparse, lays out JSON with
CPython's C encoder and joins CSV lines itself. Each of these copies
behaviour of the standard library that a Python release could change,
so this script checks them against the standard library of the
interpreter that runs it:

- ``cli._parse_args`` against the CLI parser's own ``parse_args``, over
  a seeded argv corpus: the namespace (nan equal to itself), the exit
  code, and stdout and stderr at COLUMNS=80; and every namespace it
  returns holds a format the CLI writes and overrides that are None or
  floats;
- ``cli._json`` against ``json.dumps(indent=2)``;
- the CSV that ``cli._emit`` writes against ``csv.writer``;
- the malformed-file table, run through ``cli.main``.

It needs nothing beyond the standard library, so it runs on any Python
>= 3.10, with or without pytest, from the repository root:

    python tests/portable_checks.py [--seed N] [--count N]

It prints one line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
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

from vacmom import cli  # noqa: E402

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
# every option, and expand-check reads only --format
_EDGE_ARGVS = (
    [],
    ["-h"],
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


def parse_outcome(parse, argv):
    """(namespace repr or None, exit code or None, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            # the repr counts nan equal to itself and tells -0.0 from 0.0
            namespace, code = repr(sorted(vars(parse(argv)).items())), None
        except SystemExit as exc:
            namespace, code = None, exc.code
    return namespace, code, out.getvalue(), err.getvalue()


def _typed(args) -> bool:
    """Whether a namespace holds what cli.main reads: a format it writes
    and each override None or a float."""
    return args.format in cli._FORMATS and all(
        type(getattr(args, option, None)) in (type(None), float) for option in cli._OVERRIDES
    )


def check_parse(seed: int, count: int) -> tuple[str, list[str]]:
    parser = cli._build_parser()
    failures, own_form = [], 0
    for argv in argv_corpus(seed, count):
        own_form += cli._parse_own_form(argv) is not None
        got = parse_outcome(cli._parse_args, argv)
        want = parse_outcome(parser.parse_args, argv)
        if got != want:
            failures.append(f"{argv!r}: _parse_args gave {got!r}, parse_args {want!r}")
        elif got[0] is not None and not _typed(cli._parse_args(argv)):
            failures.append(f"{argv!r}: _parse_args gave {got[0]}")
    # a corpus that never reaches the direct parse would check nothing
    if own_form < count // 5:
        failures.append(f"only {own_form} argvs reached the direct parse")
    return f"{count} argvs, {own_form} in the CLI's own form", failures


_SPECIAL_FLOATS = (
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
    2.2250738585072014e-308, 1e-300, 1e300, 1.7976931348623157e308, 0.1, 1e16,
)
_CHARS = 'aZ0 é"\\/\n\t\x00\x1f\x7f \ud800\U0001f600'


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


def _scalar(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice((None, True, False))
    if kind == 1:
        return rng.randint(-(10**20), 10**20)
    if kind == 2:
        return _float(rng)
    return _string(rng)


def _json_value(rng: random.Random, depth: int):
    """A list or dict nested up to `depth` deep, empty ones included."""
    children = []
    for _ in range(rng.randrange(4)):
        nested = depth > 1 and rng.random() < 0.5
        children.append(_json_value(rng, depth - 1) if nested else _scalar(rng))
    if rng.random() < 0.5:
        return children
    return {_string(rng): child for child in children}


def check_json(seed: int, count: int) -> tuple[str, list[str]]:
    rng = random.Random(f"json/{seed}")
    failures = []
    for i in range(count):
        value = _json_value(rng, 1 + i % 6)
        if cli._json(value) != json.dumps(value, indent=2):
            failures.append(f"{value!r}")
    return f"{count} values", failures


_COLUMNS = ("beta", "v_x", "mode_count", "slope_abs_e_cross_b", "sweep_parameter")


def _csv_value(rng: random.Random):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randint(-(10**6), 10**6)
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


def check_csv(seed: int, count: int) -> tuple[str, list[str]]:
    rng = random.Random(f"csv/{seed}")
    failures = []
    for _ in range(count):
        rows = [
            [(rng.choice(_COLUMNS), _csv_value(rng)) for _ in range(1 + rng.randrange(16))]
            for _ in range(1 + rng.randrange(4))
        ]
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow([column for column, _ in rows[0]])
        for row in rows:
            writer.writerow([_reference_cell(v) for _, v in row])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(None, argparse.Namespace(format="csv"), rows)
        if out.getvalue() != expected.getvalue():
            failures.append(f"{rows!r}")
    return f"{count} tables", failures


def _golden_config_text(*edits) -> str:
    """A transform config as JSON text; each (old, new) edit replaces the
    first occurrence of old."""
    text = json.dumps(
        {
            "material": {
                "epsilon": 2.25,
                "mu": 1.0,
                "chi": [0.0, 1e-4, 0.0, -1e-4, 0.0, 0.0, 0.0, 0.0, 0.0],
                "rho0": 1.0,
            },
            "boost": {"beta": 0.1},
            "sweep": {"parameter": "beta", "values": [0.1, 0.2]},
        }
    )
    for old, new in edits:
        text = text.replace(old, new, 1)
    return text


_HUGE_INT = "1" + "0" * 400

# files that do not decode into a config, each with a piece of the
# message that must follow "config error: <path>"
MALFORMED_FILES = {
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


def check_malformed_files(seed: int, count: int) -> tuple[str, list[str]]:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for case, (content, message) in MALFORMED_FILES.items():
            path = os.path.join(tmp, f"{case}.json")
            with open(path, "wb") as fh:
                fh.write(content)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["transform", path])
            err = err.getvalue()
            if (code, out.getvalue()) != (2, "") or not (
                err.startswith(f"config error: {path}") and message in err
            ):
                failures.append(f"{case}: exit {code}, stdout {out.getvalue()!r}, stderr {err!r}")
    return f"{len(MALFORMED_FILES)} files", failures


CHECKS = {
    "parse_args": check_parse,
    "json": check_json,
    "csv": check_csv,
    "malformed files": check_malformed_files,
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--count", type=int, default=3000, help="argvs; a sixth as many values and tables"
    )
    args = p.parse_args(argv)
    # argparse wraps usage to the terminal width
    os.environ["COLUMNS"] = "80"
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
