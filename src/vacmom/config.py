"""Run configuration: strict nested JSON schema.

Top-level sections: material (required), boost, fields, vacuum, sweep.
Unknown keys anywhere are rejected so typos fail loudly instead of
silently falling back to defaults, and so is a key repeated within one
object, whose earlier value JSON would silently drop. Parse and
validation failures raise ConfigError with a field path (or line/column
for malformed JSON).
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from numbers import Real

from .algebra import BoostSpec, FieldState, Mat3, Material, Vec3, _check_grid_n
from .errors import ConfigError

_SWEEP_PARAMETERS = ("beta", "cutoff", "grid_n")


class VacuumSpec(namedtuple("VacuumSpec", "grid_n cutoff volume")):
    __slots__ = ()


class SweepSpec(namedtuple("SweepSpec", "parameter values")):
    __slots__ = ()


class RunConfig(namedtuple("RunConfig", "material boost fields vacuum sweep")):
    __slots__ = ()


def _check_keys(node, allowed, required, path) -> None:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object, got {type(node).__name__}")
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(unknown)}")
    for key in required:
        if key not in node:
            raise ConfigError(f"{path}: missing required key '{key}'")


class _Rejected(ValueError):
    """A value a parser rejects. args: the problem, then the index of the
    list element at fault, if any; the caller names the field, so a path
    is formatted only for a value that is rejected."""


def _number(value) -> float:
    # a float skips the numbers.Real check, which is slow
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, Real):
        raise _Rejected(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise _Rejected("too large for a float") from None


def _element_numbers(value) -> list[float]:
    """_number of each element of a list; a rejection names its index."""
    numbers = []
    for i, v in enumerate(value):
        try:
            numbers.append(_number(v))
        except _Rejected as exc:
            raise _Rejected(exc.args[0], i) from None
    return numbers


def _positive(value) -> float:
    x = _number(value)
    if not 0.0 < x < math.inf:
        raise _Rejected(f"must be finite and > 0, got {x!r}")
    return x


def _grid_n(value) -> int:
    try:
        _check_grid_n(value)
    except ValueError as exc:
        raise _Rejected(str(exc)) from None
    return value


# the element types of a list of JSON floats
_FLOAT = {float}


def _numbers(count):
    def parse(value) -> list[float]:
        if not isinstance(value, list):
            raise _Rejected(f"expected a list of {count} numbers")
        if len(value) != count:
            raise _Rejected(f"expected {count} numbers, got {len(value)}")
        # a list of floats, the usual case, takes one scan of its types
        if _FLOAT.issuperset(map(type, value)):
            return value
        return _element_numbers(value)

    return parse


def _sweep_parameter(value) -> str:
    if value not in _SWEEP_PARAMETERS:
        raise _Rejected(f"must be one of {', '.join(_SWEEP_PARAMETERS)}, got {value!r}")
    return value


def _sweep_values(value) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise _Rejected("expected a nonempty list of numbers")
    if _FLOAT.issuperset(map(type, value)):
        return tuple(value)
    return tuple(_element_numbers(value))


# section -> (constructor, {key: parser of its value}). The section
# names are the fields of RunConfig, and material, listed first, is the
# only required section. Every key of a section is required, and the
# parsed values reach the constructor in this order; the record it
# builds holds them as its fields in the same order, which the CLI's
# JSON output reads.
_SCHEMA = {
    "material": (
        lambda epsilon, mu, chi, rho0: Material(epsilon, mu, Mat3(*chi), rho0),
        {"epsilon": _number, "mu": _number, "chi": _numbers(9), "rho0": _number},
    ),
    "boost": (BoostSpec, {"beta": _number}),
    "fields": (
        lambda e, b: FieldState(Vec3(*e), Vec3(*b)),
        {"E": _numbers(3), "B": _numbers(3)},
    ),
    "vacuum": (
        VacuumSpec,
        {"grid_n": _grid_n, "cutoff": _positive, "volume": _positive},
    ),
    "sweep": (SweepSpec, {"parameter": _sweep_parameter, "values": _sweep_values}),
}
_REQUIRED_SECTIONS = tuple(_SCHEMA)[:1]


def _parse_section(name, node, label):
    """The record of section name from its decoded node. Each check runs
    in schema order; the path label.name, with the key and the index at
    fault, is formatted only for the message of a check that fails."""
    build, keys = _SCHEMA[name]
    # one comparison of key sets passes a well-formed section; any other
    # node goes through the checks that name what is wrong with it
    if type(node) is not dict or node.keys() != keys.keys():
        _check_keys(node, keys, keys, f"{label}.{name}")
    values = []
    try:
        for key, parse in keys.items():
            values.append(parse(node[key]))
        return build(*values)
    except _Rejected as exc:
        problem, *index = exc.args
        where = "".join(f"[{i}]" for i in index)
        raise ConfigError(f"{label}.{name}.{key}{where}: {problem}") from None
    except ValueError as exc:
        raise ConfigError(f"{label}.{name}: {exc}") from exc


def parse_config(data, label: str = "config") -> RunConfig:
    """Validate a decoded JSON document into a RunConfig."""
    if type(data) is not dict or not (data.keys() <= _SCHEMA.keys() and "material" in data):
        _check_keys(data, _SCHEMA, _REQUIRED_SECTIONS, label)
    return RunConfig(
        *[_parse_section(name, data[name], label) if name in data else None for name in _SCHEMA]
    )


def _unique_keys(pairs) -> dict:
    """The object of a decoded list of (key, value) pairs, each key once."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


# one decoder for every file: json.loads(..., object_pairs_hook=...)
# would build a new one per call
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON config file.

    The file is read in one unbuffered read and decoded as UTF-8, with
    the universal newlines of text mode: CRLF and a lone CR each become
    LF, so a malformed file reports the line and column a text-mode read
    would.
    """
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        if text.startswith("\ufeff"):
            # what json.loads reports before it decodes
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        data = _DECODER.decode(text)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # invalid UTF-8, a duplicate key, an integer past the digit
        # limit of int(), or nesting past the recursion limit
        raise ConfigError(f"{path}: {exc}") from exc
    return parse_config(data, label=path)

