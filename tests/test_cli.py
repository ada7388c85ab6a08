"""Command line behavior: schema rejection, outputs, exit codes."""

import contextlib
import copy
import csv
import fractions
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import numpy
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vacmom.cli as cli
import vacmom.vacuum as vacuum
from vacmom import (
    MAX_GRID_N,
    BoostSpec,
    ConfigError,
    EmptyModeSet,
    Mat3,
    Material,
    Vec3,
    parse_config,
)
from vacmom.config import RunConfig, SweepSpec, load_config

import record_reference
from conftest import ROOT, src_env
from record_reference import outcome, wide
from portable_checks import (
    BROKEN_LINES,
    CROSSED_FIELDS,
    FIXED_RUNS,
    GOLDEN_MATERIAL,
    UNREAD_SWEEPS,
    check_run,
    random_run,
)

# a draw whose truncation residual picks up an unusually large cubic
# contribution; the fitted log-log slope lands near 2.25
STEEP_CONFIG = {
    "material": {
        "epsilon": 2.6245853223753843,
        "mu": 0.7421894974469743,
        "chi": [
            -0.09209751881855477,
            -0.15567816579310978,
            -0.3807526572444556,
            0.32903893297519704,
            0.3338824007664941,
            -0.24860440439933051,
            -0.410860099554869,
            0.12722729437466906,
            -0.2960008058009419,
        ],
        "rho0": 1.0,
    },
    "fields": {
        "E": [0.16701742781078277, -0.21862549606584514, 0.7213778610136117],
        "B": [-0.3764936872077551, 0.03956654977504437, -0.8358426547216944],
    },
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def read_rows(out):
    return list(csv.DictReader(io.StringIO(out)))


def test_unknown_top_level_key_rejected(tmp_path, capsys):
    path = write_config(tmp_path, {"material": GOLDEN_MATERIAL, "boos": {"beta": 0.1}})
    rc, out, err = run_cli(capsys, ["transform", path])
    assert rc == 2
    assert "config error" in err
    assert "boos" in err


def test_wrong_chi_length_names_the_field(tmp_path, capsys):
    bad = dict(GOLDEN_MATERIAL, chi=[0.0] * 11)
    path = write_config(tmp_path, {"material": bad, "boost": {"beta": 0.1}})
    rc, out, err = run_cli(capsys, ["transform", path])
    assert rc == 2
    assert "material.chi" in err
    assert "11" in err


def test_malformed_json_reports_position(tmp_path, capsys):
    # a lone CR must end a line as in text mode: decoded as it is, that
    # file is one line and the fault would be reported at 1:34
    for name, newline in (("lf", b"\n"), ("crlf", b"\r\n"), ("cr", b"\r")):
        path = tmp_path / f"broken-{name}.json"
        path.write_bytes(newline.join(BROKEN_LINES))
        rc, out, err = run_cli(capsys, ["transform", str(path)])
        assert rc == 2, name
        assert f"{path}:2:19:" in err, name


@pytest.mark.parametrize("command", ["transform", "expand-check", "velocity"])
def test_lone_cr_config_prints_the_bytes_of_its_lf_twin(tmp_path, capsys, command):
    text = json.dumps(
        {"material": GOLDEN_MATERIAL, "boost": {"beta": 0.1}, "fields": CROSSED_FIELDS},
        indent=2,
    ).encode()
    lf, cr = tmp_path / "lf.json", tmp_path / "cr.json"
    lf.write_bytes(text)
    cr.write_bytes(text.replace(b"\n", b"\r"))
    want = run_cli(capsys, [command, str(lf)])
    assert want[0] == 0
    assert run_cli(capsys, [command, str(cr)]) == want


def test_nonpositive_epsilon_rejected(tmp_path, capsys):
    bad = dict(GOLDEN_MATERIAL, epsilon=-1.0)
    path = write_config(tmp_path, {"material": bad, "boost": {"beta": 0.1}})
    rc, out, err = run_cli(capsys, ["transform", path])
    assert rc == 2
    assert "epsilon" in err


def test_missing_file_is_config_error(capsys):
    rc, out, err = run_cli(capsys, ["transform", "/nonexistent/nowhere.json"])
    assert rc == 2


_NUMBER_LISTS = {
    "material.chi[3]": ("material", "chi", 3),
    "fields.E[2]": ("fields", "E", 2),
    "sweep.values[1]": ("sweep", "values", 1),
}


def _config_with(path, value):
    section, key, index = _NUMBER_LISTS[path]
    cfg = {
        "material": copy.deepcopy(GOLDEN_MATERIAL),
        "fields": copy.deepcopy(CROSSED_FIELDS),
        "sweep": {"parameter": "beta", "values": [1e-3, 2e-3, 3e-3]},
    }
    cfg[section][key][index] = value
    return cfg


@pytest.mark.parametrize("path", _NUMBER_LISTS)
@pytest.mark.parametrize("value", ["0.5", True, None], ids=["str", "bool", "null"])
def test_a_non_number_in_a_list_names_its_index(path, value):
    with pytest.raises(ConfigError) as exc:
        parse_config(_config_with(path, value))
    assert str(exc.value) == f"config.{path}: expected a number, got {value!r}"


@pytest.mark.parametrize("path", _NUMBER_LISTS)
@pytest.mark.parametrize(
    "value", [3, fractions.Fraction(1, 3), numpy.float64(0.1)], ids=repr
)
def test_real_numbers_in_a_list_parse_to_their_float(path, value):
    section, key, index = _NUMBER_LISTS[path]
    cfg = parse_config(_config_with(path, value))
    entry = list(getattr(getattr(cfg, section), key))[index]
    assert type(entry) is float
    assert entry == float(value)


def test_transform_zero_boost_row(tmp_path, capsys):
    path = write_config(tmp_path, {"material": GOLDEN_MATERIAL, "boost": {"beta": 0.0}})
    rc, out, err = run_cli(capsys, ["transform", path])
    assert rc == 0
    (row,) = read_rows(out)
    assert float(row["beta"]) == 0.0
    assert float(row["epsilon_prime"]) == 2.25
    assert float(row["mu_prime"]) == 1.0
    assert float(row["impedance_delta"]) == 0.0
    assert float(row["index_delta"]) == 0.0


def test_transform_unit_index_fixed_point(tmp_path, capsys):
    mat = dict(GOLDEN_MATERIAL, epsilon=2.0, mu=0.5)
    path = write_config(tmp_path, {"material": mat, "boost": {"beta": 0.37}})
    rc, out, err = run_cli(capsys, ["transform", path])
    assert rc == 0
    (row,) = read_rows(out)
    assert float(row["epsilon_prime"]) == 2.0
    assert float(row["mu_prime"]) == 0.5
    assert float(row["index_prime"]) == 1.0


def test_transform_beta_sweep_matches_closed_form(tmp_path, capsys):
    betas = [-0.3, -0.1, 0.0, 0.1, 0.3]
    path = write_config(
        tmp_path,
        {
            "material": GOLDEN_MATERIAL,
            "sweep": {"parameter": "beta", "values": betas},
        },
    )
    rc, out, err = run_cli(capsys, ["transform", path])
    assert rc == 0
    rows = read_rows(out)
    assert [float(r["beta"]) for r in rows] == betas
    n = 1.5
    indices = [float(r["index_prime"]) for r in rows]
    for beta, got in zip(betas, indices):
        assert math.isclose(got, (n + beta) / (1.0 + n * beta), rel_tol=1e-14)
    # for n > 1 the composed index decreases toward 1 as beta grows
    assert indices == sorted(indices, reverse=True)


def test_transform_degenerate_boost_exit_code(tmp_path, capsys):
    mat = dict(GOLDEN_MATERIAL, epsilon=4.0)
    path = write_config(tmp_path, {"material": mat, "boost": {"beta": 0.1}})
    rc, out, err = run_cli(capsys, ["transform", path, "--beta", "-0.6"])
    assert rc == 3
    assert "degenerate boost" in err


def test_transform_rows_are_the_record_form(monkeypatch):
    """cmd_transform's plain-float rows are the repr, or the exception
    type and message, of rows built from transform_constants and
    index_of, over constants from 1e-300 to 1e300 and betas that are
    valid, degenerate, out of range or not finite."""
    written = []
    monkeypatch.setattr(cli, "_emit", lambda cfg, args, rows: written.append(rows))

    def rows(cfg):
        written.clear()
        cli.cmd_transform(cfg, None)
        return written[0]

    rng = random.Random(28)
    kinds = set()
    chi = Mat3.zero()
    for _ in range(3000):
        m = Material(abs(wide(rng)) or 1.0, abs(wide(rng)) or 1.0, chi, 1.0)
        betas = [
            rng.choice(
                (
                    rng.uniform(-1.0, 1.0),
                    wide(rng),
                    # 1 + n beta = 0 where n > 1
                    -1.0 / max(m.index, 1.0),
                    1.0,
                    math.nan,
                    -math.inf,
                )
            )
            for _ in range(rng.randint(1, 4))
        ]
        if len(betas) == 1 and abs(betas[0]) < 1.0 and rng.randrange(2):
            cfg = RunConfig(m, BoostSpec(betas[0]), None, None, None)
        else:
            cfg = RunConfig(m, None, None, None, SweepSpec("beta", tuple(betas)))
        got = outcome(rows, cfg)
        assert got == outcome(record_reference.transform_rows, m, betas)
        kinds.add(got.partition(":")[0] if got[0].isalpha() else "rows")
    assert kinds == {"rows", "ConfigError", "DegenerateBoost", "NonFiniteResult"}


def test_beta_override_replaces_config_boost(tmp_path, capsys):
    path = write_config(tmp_path, {"material": GOLDEN_MATERIAL, "boost": {"beta": 0.0}})
    rc, out, err = run_cli(capsys, ["transform", path, "--beta", "0.2"])
    assert rc == 0
    (row,) = read_rows(out)
    assert float(row["beta"]) == 0.2
    assert float(row["epsilon_prime"]) != 2.25


def test_expand_check_golden_config(tmp_path, capsys):
    path = write_config(
        tmp_path, {"material": GOLDEN_MATERIAL, "fields": CROSSED_FIELDS}
    )
    rc, out, err = run_cli(capsys, ["expand-check", path])
    assert rc == 0
    rows = read_rows(out)
    assert [float(r["beta"]) for r in rows] == list(cli.DEFAULT_BETA_GRID)
    assert all(r["identically_zero"] == "false" for r in rows)
    slope = float(rows[0]["slope"])
    assert 1.9 <= slope <= 2.1
    assert float(rows[0]["derivative_rel"]) <= 1e-8
    residuals = [float(r["residual"]) for r in rows]
    assert residuals == sorted(residuals)


def test_expand_check_custom_beta_grid(tmp_path, capsys):
    grid = [2e-4, 6e-4, 2e-3, 6e-3]
    path = write_config(
        tmp_path,
        {
            "material": GOLDEN_MATERIAL,
            "fields": CROSSED_FIELDS,
            "sweep": {"parameter": "beta", "values": grid},
        },
    )
    rc, out, err = run_cli(capsys, ["expand-check", path])
    assert rc == 0
    rows = read_rows(out)
    assert [float(r["beta"]) for r in rows] == grid


def test_expand_check_identically_zero_coupling(tmp_path, capsys):
    mat = dict(GOLDEN_MATERIAL, chi=[0.0] * 9)
    path = write_config(tmp_path, {"material": mat, "fields": CROSSED_FIELDS})
    rc, out, err = run_cli(capsys, ["expand-check", path])
    assert rc == 0
    rows = read_rows(out)
    assert all(r["identically_zero"] == "true" for r in rows)
    assert all(r["slope"] == "nan" for r in rows)
    assert all(float(r["residual"]) == 0.0 for r in rows)


def test_expand_check_failure_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, STEEP_CONFIG)
    rc, out, err = run_cli(capsys, ["expand-check", path])
    assert rc == 4
    assert "expansion-order verification failed" in err
    rows = read_rows(out)
    slope = float(rows[0]["slope"])
    assert slope > 2.1


@pytest.mark.parametrize(
    "values, message, fields",
    [
        ([1e-3, 2e-3], "need at least 3 grid points, got 2", CROSSED_FIELDS),
        ([1e-3, 3e-3, 2e-3], "grid must be strictly increasing", CROSSED_FIELDS),
        ([1e-3, 2e-3, 0.2], "grid values must lie in (0, 0.1], got 0.2", CROSSED_FIELDS),
        # a rejected sweep is reported before, and instead of, the
        # warnings of longitudinal fields
        (
            [1e-3, 3e-3, 2e-3],
            "grid must be strictly increasing",
            {"E": [1.0, 0.0, 0.5], "B": [0.0, 1.0, -0.5]},
        ),
    ],
    ids=["too-few", "unsorted", "out-of-range", "unsorted-longitudinal"],
)
def test_expand_check_names_the_sweep_it_rejects(tmp_path, capsys, values, message, fields):
    path = write_config(
        tmp_path,
        {
            "material": GOLDEN_MATERIAL,
            "fields": fields,
            "sweep": {"parameter": "beta", "values": values},
        },
    )
    rc, out, err = run_cli(capsys, ["expand-check", path])
    assert (rc, out, err) == (2, "", f"config error: sweep.values: {message}\n")


def test_velocity_rejects_overflowing_bilinears_before_any_warning(tmp_path, capsys):
    # E and B have z components, but a run medium_velocity rejects
    # prints only the config error
    fields = {"E": [1e200, 0.0, 1e200], "B": [0.0, 1e200, 0.0]}
    path = write_config(tmp_path, {"material": GOLDEN_MATERIAL, "fields": fields})
    rc, out, err = run_cli(capsys, ["velocity", path])
    message = (
        "config error: field bilinears leave the float range at"
        " fields.E=[1e+200, 0.0, 1e+200], fields.B=[0.0, 1e+200, 0.0]\n"
    )
    assert (rc, out, err) == (2, "", message)


def test_velocity_classical_golden(tmp_path, capsys):
    path = write_config(
        tmp_path, {"material": GOLDEN_MATERIAL, "fields": CROSSED_FIELDS}
    )
    rc, out, err = run_cli(capsys, ["velocity", path])
    assert rc == 0
    (row,) = read_rows(out)
    assert math.isclose(float(row["v_z"]), 3.3183330939826914e-12, rel_tol=1e-13)
    assert math.isclose(float(row["am_z"]), 3.3180234117975904e-12, rel_tol=1e-13)
    assert math.isclose(float(row["mu_term_z"]), -2.2120156078650602e-16, rel_tol=1e-13)
    assert math.isclose(float(row["term_ratio"]), 6.665600170639365e-05, rel_tol=1e-13)
    assert float(row["transverse_residual"]) == 0.0


def test_velocity_without_coupling(tmp_path, capsys):
    mat = dict(GOLDEN_MATERIAL, chi=[0.0] * 9)
    path = write_config(tmp_path, {"material": mat, "fields": CROSSED_FIELDS})
    rc, out, err = run_cli(capsys, ["velocity", path])
    assert rc == 0
    (row,) = read_rows(out)
    for col in ("chi_E_x", "chi_E_y", "chi_E_z", "chi_B_x", "chi_B_y", "chi_B_z"):
        assert float(row[col]) == 0.0
    assert float(row["mu_term_z"]) == 0.0
    assert float(row["term_ratio"]) == 0.0
    assert float(row["v_z"]) > 0.0


def test_velocity_zero_fields_ratio_nan(tmp_path, capsys):
    fields = {"E": [0.0, 0.0, 0.0], "B": [0.0, 0.0, 0.0]}
    path = write_config(tmp_path, {"material": GOLDEN_MATERIAL, "fields": fields})
    rc, out, err = run_cli(capsys, ["velocity", path])
    assert rc == 0
    (row,) = read_rows(out)
    assert row["term_ratio"] == "nan"
    assert float(row["v_z"]) == 0.0


def test_velocity_vacuum_golden(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "material": GOLDEN_MATERIAL,
            "vacuum": {"grid_n": 8, "cutoff": 1e5, "volume": 1.0},
        },
    )
    rc, out, err = run_cli(capsys, ["velocity", path])
    assert rc == 0
    (row,) = read_rows(out)
    assert math.isclose(float(row["v_z"]), 3.2398576541866306e-24, rel_tol=5e-14)
    assert math.isclose(float(row["chi_E_z"]), 9.9687927821127096e-25, rel_tol=5e-14)
    assert math.isclose(float(row["chi_B_z"]), 2.2429783759753597e-24, rel_tol=5e-14)
    # signed vacuum sums behind am_z and mu_term_z cancel exactly
    assert float(row["am_z"]) == 0.0
    assert float(row["mu_term_z"]) == 0.0
    assert float(row["term_ratio"]) == 0.0


def test_velocity_cutoff_override(tmp_path, capsys):
    cfg = {
        "material": GOLDEN_MATERIAL,
        "vacuum": {"grid_n": 8, "cutoff": 1e5, "volume": 1.0},
    }
    path = write_config(tmp_path, cfg)
    rc_a, out_a, _ = run_cli(capsys, ["velocity", path])
    rc_b, out_b, _ = run_cli(capsys, ["velocity", path, "--cutoff", "5e4"])
    assert rc_a == 0 and rc_b == 0
    (row_a,) = read_rows(out_a)
    (row_b,) = read_rows(out_b)
    assert float(row_b["v_z"]) != float(row_a["v_z"])


def test_cutoff_override_without_vacuum_section(tmp_path, capsys):
    path = write_config(
        tmp_path, {"material": GOLDEN_MATERIAL, "fields": CROSSED_FIELDS}
    )
    rc, out, err = run_cli(capsys, ["velocity", path, "--cutoff", "5e4"])
    assert rc == 2
    assert "vacuum" in err


def test_longitudinal_field_warning(tmp_path, capsys):
    fields = {"E": [0.0, 0.0, 1.0], "B": [0.0, 1.0, 0.0]}
    path = write_config(tmp_path, {"material": GOLDEN_MATERIAL, "fields": fields})
    rc, out, err = run_cli(capsys, ["velocity", path])
    assert rc == 0
    assert "longitudinal" in err


def test_vacuum_sweep_cutoff_scaling(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "material": GOLDEN_MATERIAL,
            "vacuum": {"grid_n": 4, "cutoff": 2e4, "volume": 1.0},
            "sweep": {"parameter": "cutoff", "values": [2e4, 4e4, 8e4]},
        },
    )
    rc, out, err = run_cli(capsys, ["vacuum-sweep", path])
    assert rc == 0
    rows = read_rows(out)
    assert [r["sweep_parameter"] for r in rows] == ["cutoff"] * 3
    assert [int(r["mode_count"]) for r in rows] == [64, 560, 4352]
    slope = float(rows[0]["slope_abs_b_dot_chiT_e"])
    assert 3.8 <= slope <= 4.2
    assert len({r["slope_abs_b_dot_chiT_e"] for r in rows}) == 1
    for r in rows:
        assert float(r["e_cross_b_z"]) == 0.0
        assert float(r["b_dot_chiT_e"]) == 0.0


def test_vacuum_sweep_grid_refinement(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "material": GOLDEN_MATERIAL,
            "vacuum": {"grid_n": 4, "cutoff": 1e5, "volume": 1.0},
            "sweep": {"parameter": "grid_n", "values": [4, 8, 16]},
        },
    )
    rc, out, err = run_cli(capsys, ["vacuum-sweep", path])
    assert rc == 0
    rows = read_rows(out)
    assert [int(r["mode_count"]) for r in rows] == [64, 560, 4352]
    assert all(r["slope_abs_e_cross_b"] == "nan" for r in rows)
    zpe = [float(r["zero_point_energy"]) for r in rows]
    assert zpe == sorted(zpe)
    # the per-mode average magnitude converges under refinement
    per_mode = [
        float(r["abs_e_cross_b"]) / int(r["mode_count"]) for r in rows
    ]
    d1 = abs(per_mode[1] - per_mode[0]) / per_mode[0]
    d2 = abs(per_mode[2] - per_mode[1]) / per_mode[1]
    assert d2 < d1


@pytest.mark.parametrize("cutoff", [1e-300, 1e5, 1e300])
def test_vacuum_sweep_extreme_cutoffs(tmp_path, capsys, cutoff):
    # |k| is formed with hypot, so k.k neither underflows to a zero norm
    # nor overflows and empties the sphere
    path = write_config(
        tmp_path,
        {
            "material": GOLDEN_MATERIAL,
            "vacuum": {"grid_n": 4, "cutoff": cutoff, "volume": 1.0},
            "sweep": {"parameter": "grid_n", "values": [4, 6]},
        },
    )
    rc, out, err = run_cli(capsys, ["vacuum-sweep", path])
    assert rc == 0, err
    rows = read_rows(out)
    assert [int(r["mode_count"]) for r in rows] == [64, 272]
    assert all(float(r["zero_point_energy"]) > 0.0 for r in rows)


@pytest.mark.parametrize("cutoff", [1e307, 9e307, 1e308, 1.7e308])
def test_velocity_cutoffs_past_half_the_largest_float(tmp_path, capsys, cutoff):
    # 2.0 * cutoff overflows from about 8.99e307 on; a grid step built
    # from it once put every cell at inf and left no mode
    path = write_config(
        tmp_path,
        {
            "material": GOLDEN_MATERIAL,
            "vacuum": {"grid_n": 4, "cutoff": cutoff, "volume": 1.0},
        },
    )
    rc, out, err = run_cli(capsys, ["velocity", path])
    assert rc == 0, err
    (row,) = read_rows(out)
    assert all(math.isfinite(float(value)) for value in row.values())
    assert float(row["v_z"]) > 0.0


def test_vacuum_sweep_cutoffs_near_the_largest_float(tmp_path, capsys):
    # the scaled grid of 1e308 is 40 cells a side; grid_n * 1e308
    # overflows before the division by 1e307 and once rejected it
    path = write_config(
        tmp_path,
        {
            "material": GOLDEN_MATERIAL,
            "vacuum": {"grid_n": 4, "cutoff": 1e307, "volume": 1.0},
            "sweep": {"parameter": "cutoff", "values": [1e307, 1e308]},
        },
    )
    rc, out, err = run_cli(capsys, ["vacuum-sweep", path])
    assert rc == 0, err
    rows = read_rows(out)
    # two modes per cell with 0 < |k| <= cutoff of the 4- and 40-cell grids
    assert [int(r["mode_count"]) for r in rows] == [64, 67104]


_TINY_RHO0 = dict(GOLDEN_MATERIAL, rho0=1e-320)
_SPLIT_CONSTANTS = dict(GOLDEN_MATERIAL, epsilon=1e300, mu=1e-300)
_HUGE_CONSTANTS = dict(GOLDEN_MATERIAL, epsilon=1e308, mu=1e308)
_UNIT_CHI = dict(GOLDEN_MATERIAL, chi=[0.0, 1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize(
    "command, cfg, fields",
    [
        # a^2 overflows to inf per wavevector
        (
            "velocity",
            {"vacuum": {"grid_n": 4, "cutoff": 1e200, "volume": 1e-300}},
            ("cutoff", "volume"),
        ),
        (
            "velocity",
            {"vacuum": {"grid_n": 4, "cutoff": 1e150, "volume": 1e-300}},
            ("cutoff", "volume"),
        ),
        # every term is finite, and so is the sum over one member of each
        # +/-k pair, but twice that sum is not: here a magnitude channel,
        # which only vacuum-sweep computes
        (
            "vacuum-sweep",
            {
                "vacuum": {"grid_n": 2, "cutoff": 1e23, "volume": 1e-300},
                "sweep": {"parameter": "grid_n", "values": [2]},
            },
            ("cutoff", "volume"),
        ),
        # the same grid with a chi of order 1: twice the B x chi B sum,
        # which velocity reads, overflows
        (
            "velocity",
            {
                "material": _UNIT_CHI,
                "vacuum": {"grid_n": 2, "cutoff": 1e23, "volume": 1e-300},
            },
            ("cutoff", "volume"),
        ),
        # the scaled grid size grid_n * 1e300 / 1e-300 overflows
        (
            "vacuum-sweep",
            {
                "vacuum": {"grid_n": 4, "cutoff": 1e5, "volume": 1.0},
                "sweep": {"parameter": "cutoff", "values": [1e-300, 1e300]},
            },
            ("sweep.values",),
        ),
        # 1 / rho0 overflows
        ("velocity", {"material": _TINY_RHO0, "fields": CROSSED_FIELDS}, ("rho0",)),
        (
            "velocity",
            {
                "material": _TINY_RHO0,
                "vacuum": {"grid_n": 4, "cutoff": 1e5, "volume": 1.0},
            },
            ("rho0",),
        ),
        # E x B overflows
        (
            "velocity",
            {"fields": {"E": [1e200, 0.0, 0.0], "B": [0.0, 1e200, 0.0]}},
            ("fields.E", "fields.B"),
        ),
        # epsilon mu overflows and 1 / (4 pi mu c) underflows to 0
        (
            "velocity",
            {
                "material": dict(GOLDEN_MATERIAL, epsilon=1e308, mu=1e308),
                "fields": CROSSED_FIELDS,
            },
            ("epsilon", "mu"),
        ),
        # epsilon mu underflows to 0, so n = 0: n V and 1 / n have no value
        (
            "velocity",
            {
                "material": dict(GOLDEN_MATERIAL, epsilon=4.4e-289, mu=4.1e-68),
                "vacuum": {"grid_n": 4, "cutoff": 1e5, "volume": 1.0},
            },
            ("epsilon", "mu", "volume"),
        ),
        (
            "velocity",
            {
                "material": dict(GOLDEN_MATERIAL, epsilon=4.4e-289, mu=4.1e-68),
                "fields": CROSSED_FIELDS,
            },
            ("epsilon", "mu"),
        ),
        # n is about 1e-145, and n V underflows to 0
        (
            "vacuum-sweep",
            {
                "material": dict(GOLDEN_MATERIAL, epsilon=1.0, mu=5.2e-292),
                "vacuum": {"grid_n": 4, "cutoff": 1e5, "volume": 5.8e-199},
                "sweep": {"parameter": "grid_n", "values": [2]},
            },
            ("epsilon", "mu", "volume"),
        ),
        # mu/eps underflows to 0, so mu' = 0 and eps'/mu' has no value
        (
            "transform",
            {"material": _SPLIT_CONSTANTS, "boost": {"beta": 0.1}},
            ("epsilon", "mu"),
        ),
        # n = sqrt(eps mu) overflows: boosted, the factor is inf/inf ...
        (
            "transform",
            {"material": _HUGE_CONSTANTS, "boost": {"beta": 0.1}},
            ("epsilon", "mu"),
        ),
        # ... and unboosted, the transformed index is inf
        (
            "transform",
            {"material": _HUGE_CONSTANTS, "boost": {"beta": 0.0}},
            ("epsilon", "mu"),
        ),
        # beta = -n sends eps' and mu' to exactly 0
        (
            "transform",
            {"material": dict(GOLDEN_MATERIAL, epsilon=0.5, mu=0.5), "boost": {"beta": -0.5}},
            ("epsilon", "mu", "beta"),
        ),
        # 1 / mu' with mu' = 0
        ("expand-check", {"material": _SPLIT_CONSTANTS, "fields": CROSSED_FIELDS}, ("epsilon", "mu")),
        # 1 / n with eps mu underflowing to 0
        (
            "expand-check",
            {
                "material": dict(GOLDEN_MATERIAL, epsilon=4.4e-289, mu=4.1e-68),
                "fields": CROSSED_FIELDS,
            },
            ("epsilon", "mu"),
        ),
        # the boosted fields overflow
        (
            "expand-check",
            {"fields": {"E": [1.79e308, 0.0, 0.0], "B": [0.0, -1.79e308, 0.0]}},
            ("fields.E", "fields.B"),
        ),
        # chi^T E overflows
        (
            "expand-check",
            {
                "material": dict(GOLDEN_MATERIAL, chi=[0.0, 1e300] + [0.0] * 7),
                "fields": {"E": [1e10, 0.0, 0.0], "B": [0.0, 1.0, 0.0]},
            },
            ("chi", "fields.E"),
        ),
        # B . chi^T E overflows and every residual is inf - inf = nan
        (
            "expand-check",
            {"fields": {"E": [1e200, 0.0, 0.0], "B": [0.0, 1e200, 0.0]}},
            ("fields.E", "fields.B"),
        ),
    ],
    ids=[
        "vacuum-1e200",
        "vacuum-1e150",
        "vacuum-doubled-sum",
        "velocity-doubled-chi-sum",
        "sweep-ratio",
        "rho0-classical",
        "rho0-vacuum",
        "fields-overflow",
        "epsilon-mu-overflow",
        "vacuum-index-underflow",
        "classical-index-underflow",
        "sweep-n-volume-underflow",
        "transform-mu-prime-underflow",
        "transform-index-overflow",
        "transform-unboosted-index-overflow",
        "transform-beta-minus-n",
        "expand-mu-prime-underflow",
        "expand-index-underflow",
        "expand-fields-overflow",
        "expand-chi-overflow",
        "expand-nan-residuals",
    ],
)
def test_non_finite_results_are_config_errors(tmp_path, capsys, command, cfg, fields):
    path = write_config(tmp_path, {"material": GOLDEN_MATERIAL, **cfg})
    rc, out, err = run_cli(capsys, [command, path])
    assert rc == 2
    assert out == ""
    assert err.startswith("config error:")
    assert "Traceback" not in err
    for field in fields:
        assert field in err


def test_velocity_skips_the_magnitude_channels(tmp_path, capsys):
    # the vacuum-doubled-sum grid: only a magnitude channel overflows,
    # and velocity prints none of them
    path = write_config(
        tmp_path,
        {
            "material": GOLDEN_MATERIAL,
            "vacuum": {"grid_n": 2, "cutoff": 1e23, "volume": 1e-300},
        },
    )
    rc, out, err = run_cli(capsys, ["velocity", path])
    assert rc == 0, err
    (row,) = read_rows(out)
    assert all(math.isfinite(float(v)) for v in row.values())
    assert 1e293 < float(row["v_z"]) < 1.1e293


def test_velocity_bytes_see_one_ulp_of_the_chi_sums(tmp_path, capsys, monkeypatch):
    path = write_config(
        tmp_path,
        {
            "material": GOLDEN_MATERIAL,
            "vacuum": {"grid_n": 8, "cutoff": 1e5, "volume": 1.0},
        },
    )
    rc, before, _ = run_cli(capsys, ["velocity", path])
    assert rc == 0
    original = cli.vacuum_bilinears

    def up(v):
        return Vec3(*(math.nextafter(c, math.inf) for c in v.as_tuple()))

    def bumped(*args, **kwargs):
        sums = original(*args, **kwargs)
        return sums._replace(
            e_cross_chiT_e=up(sums.e_cross_chiT_e),
            b_cross_chi_b=up(sums.b_cross_chi_b),
        )

    monkeypatch.setattr(cli, "vacuum_bilinears", bumped)
    rc, after, _ = run_cli(capsys, ["velocity", path])
    assert rc == 0
    assert after != before


@pytest.mark.parametrize("seed", range(3))
def test_sweep_oracles_reject_one_ulp_of_the_sweep_sums(tmp_path, capsys, monkeypatch, seed):
    # the benchmark's cutoff-sweep ops and oracles, in process: every op
    # passes as shipped and fails with each float of its sums one ulp up
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from oracles import check
    from workloads import Generator

    ops = Generator("cutoff-sweep", seed, tiny=True).cycle(0)

    def problems():
        found = []
        for op in ops:
            rc, out, _ = run_cli(capsys, op.argv(write_config(tmp_path, op.config)))
            found.append(check(op, rc, out))
        return found

    assert problems() == [[]] * len(ops)
    original = vacuum.sweep_sums

    def up(v):
        return math.nextafter(v, math.inf) if isinstance(v, float) else v

    def bumped(ms, m):
        return vacuum.SweepSums(*map(up, original(ms, m)))

    monkeypatch.setattr(vacuum, "sweep_sums", bumped)
    monkeypatch.setattr(cli, "sweep_sums", bumped)
    assert all(problems())


@pytest.mark.parametrize("scale", [1e85, 1e-80])
def test_transverse_residual_survives_extreme_fields(tmp_path, capsys, scale):
    # the squares of v_y ~ 3e158 overflow and those of v_y ~ 3e-172
    # underflow
    fields = {"E": [scale, 0.0, 0.0], "B": [0.0, 0.0, scale]}
    path = write_config(tmp_path, {"material": GOLDEN_MATERIAL, "fields": fields})
    rc, out, err = run_cli(capsys, ["velocity", path])
    assert rc == 0, err
    (row,) = read_rows(out)
    assert float(row["v_x"]) == 0.0
    v_y = float(row["v_y"])
    assert math.isfinite(v_y) and v_y != 0.0
    assert float(row["transverse_residual"]) == abs(v_y)


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("velocity", {"vacuum": {"grid_n": MAX_GRID_N + 1, "cutoff": 1e5, "volume": 1.0}}),
        # vacuum.grid_n goes through the rule of the grid_n sweep
        ("velocity", {"vacuum": {"grid_n": 1, "cutoff": 1e5, "volume": 1.0}}),
        ("velocity", {"vacuum": {"grid_n": 4.0, "cutoff": 1e5, "volume": 1.0}}),
        ("velocity", {"vacuum": {"grid_n": True, "cutoff": 1e5, "volume": 1.0}}),
        ("velocity", {"vacuum": {"grid_n": "4", "cutoff": 1e5, "volume": 1.0}}),
        (
            "vacuum-sweep",
            {
                "vacuum": {"grid_n": 4, "cutoff": 1e5, "volume": 1.0},
                "sweep": {"parameter": "grid_n", "values": [4, MAX_GRID_N + 1]},
            },
        ),
        (
            "vacuum-sweep",
            {
                "vacuum": {"grid_n": 4, "cutoff": 1e5, "volume": 1.0},
                "sweep": {"parameter": "grid_n", "values": [4, math.inf]},
            },
        ),
        # the scaled grid of the last cutoff would be 4,000,000 cells a side
        (
            "vacuum-sweep",
            {
                "vacuum": {"grid_n": 4, "cutoff": 1.0, "volume": 1.0},
                "sweep": {"parameter": "cutoff", "values": [1.0, 1e6]},
            },
        ),
        # the cutoff ratio itself overflows
        (
            "vacuum-sweep",
            {
                "vacuum": {"grid_n": 4, "cutoff": 1e5, "volume": 1.0},
                "sweep": {"parameter": "cutoff", "values": [1e-300, 1e300]},
            },
        ),
    ],
    ids=[
        "vacuum-grid_n",
        "vacuum-grid_n-1",
        "vacuum-grid_n-float",
        "vacuum-grid_n-bool",
        "vacuum-grid_n-str",
        "grid_n-sweep",
        "grid_n-sweep-inf",
        "cutoff-sweep",
        "cutoff-sweep-inf",
    ],
)
def test_grid_ceiling_is_config_error(tmp_path, capsys, monkeypatch, command, cfg):
    built = []

    def record(m, grid_n, cutoff, volume):
        # stand-in that builds nothing: an oversized grid would never finish
        built.append(grid_n)
        raise EmptyModeSet("not built in this test")

    monkeypatch.setattr(cli, "build_mode_set", record)
    monkeypatch.setattr(vacuum, "build_mode_set", record)
    path = write_config(tmp_path, {"material": GOLDEN_MATERIAL, **cfg})
    rc, out, err = run_cli(capsys, [command, path])
    assert built == []
    assert rc == 2
    assert out == ""
    assert err.startswith("config error:")
    assert "MAX_GRID_N" in err


@pytest.mark.parametrize("value", [1, MAX_GRID_N + 1, 4.0, True, "4"], ids=repr)
def test_vacuum_grid_n_rejection_names_its_field(value):
    cfg = {"material": GOLDEN_MATERIAL, "vacuum": {"grid_n": value, "cutoff": 1e5, "volume": 1.0}}
    with pytest.raises(ConfigError) as exc:
        parse_config(cfg)
    assert str(exc.value) == (
        f"config.vacuum.grid_n: grid_n must be an integer in [2, MAX_GRID_N={MAX_GRID_N}],"
        f" got {value!r}"
    )


@pytest.mark.parametrize("value", [2, MAX_GRID_N])
def test_vacuum_grid_n_accepts_the_ends_of_its_range(value):
    cfg = {"material": GOLDEN_MATERIAL, "vacuum": {"grid_n": value, "cutoff": 1e5, "volume": 1.0}}
    assert parse_config(cfg).vacuum.grid_n == value


def test_vacuum_sweep_rejects_fractional_grid(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "material": GOLDEN_MATERIAL,
            "vacuum": {"grid_n": 4, "cutoff": 1e5, "volume": 1.0},
            "sweep": {"parameter": "grid_n", "values": [4, 4.5]},
        },
    )
    rc, out, err = run_cli(capsys, ["vacuum-sweep", path])
    assert rc == 2
    assert "grid_n" in err


@pytest.mark.parametrize(
    "command, parameter",
    [(c, p) for c, params in UNREAD_SWEEPS.items() for p in params],
    ids=lambda v: v,
)
def test_unread_sweep_is_config_error(tmp_path, capsys, command, parameter):
    # every other section a command may read is present, so without the
    # check it would run and drop the sweep
    path = write_config(
        tmp_path,
        {
            "material": GOLDEN_MATERIAL,
            "boost": {"beta": 0.1},
            "fields": CROSSED_FIELDS,
            "vacuum": {"grid_n": 4, "cutoff": 1e5, "volume": 1.0},
            "sweep": {"parameter": parameter, "values": [4]},
        },
    )
    rc, out, err = run_cli(capsys, [command, path])
    assert rc == 2
    assert out == ""
    assert err.startswith("config error:")
    assert command in err and repr(parameter) in err


def test_boost_with_a_beta_sweep_is_config_error(tmp_path, capsys):
    # the sweep would win and boost.beta would be silently dropped
    path = write_config(
        tmp_path,
        {
            "material": GOLDEN_MATERIAL,
            "boost": {"beta": 0.3},
            "sweep": {"parameter": "beta", "values": [0.1]},
        },
    )
    rc, out, err = run_cli(capsys, ["transform", path])
    assert rc == 2
    assert out == ""
    assert err.startswith("config error:")
    assert "boost.beta" in err and "sweep" in err


def test_vacuum_sweep_requires_sections(tmp_path, capsys):
    path = write_config(tmp_path, {"material": GOLDEN_MATERIAL})
    rc, out, err = run_cli(capsys, ["vacuum-sweep", path])
    assert rc == 2


def test_json_output_round_trips_config(tmp_path, capsys):
    cfg = {
        "material": GOLDEN_MATERIAL,
        "fields": CROSSED_FIELDS,
        "boost": {"beta": 0.1},
    }
    path = write_config(tmp_path, cfg)
    rc, out, err = run_cli(capsys, ["transform", path, "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["command"] == "transform"
    # the echoed config re-parses to exactly the config that was loaded
    assert parse_config(payload["config"]) == load_config(path)
    assert payload["result"]["columns"][0] == "beta"
    assert payload["result"]["rows"][0]["beta"] == 0.1


def test_json_and_csv_agree_bitwise(tmp_path, capsys):
    path = write_config(
        tmp_path, {"material": GOLDEN_MATERIAL, "fields": CROSSED_FIELDS}
    )
    rc_c, out_c, _ = run_cli(capsys, ["velocity", path])
    rc_j, out_j, _ = run_cli(capsys, ["velocity", path, "--format", "json"])
    assert rc_c == 0 and rc_j == 0
    (row_c,) = read_rows(out_c)
    row_j = json.loads(out_j)["result"]["rows"][0]
    for col, value in row_j.items():
        if isinstance(value, float):
            assert float(row_c[col]) == value, col


def test_emit_gets_no_subclass_of_a_builtin_type(tmp_path, capsys, monkeypatch):
    """_emit formats only exact floats as floats: every value the
    commands hand it, integers in the config included, has an exact
    builtin type."""
    seen = set()
    emit = cli._emit

    def recording_emit(cfg, args, rows):
        seen.update(type(v) for row in rows for _, v in row)
        emit(cfg, args, rows)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    material = dict(GOLDEN_MATERIAL, mu=1, rho0=1)
    vacuum_cfg = {"grid_n": 4, "cutoff": 100000, "volume": 1}
    runs = [
        ("transform", {"boost": {"beta": 0}}, ["--beta", "-1e-05"]),
        ("transform", {"sweep": {"parameter": "beta", "values": [0, 0.5]}}, []),
        ("expand-check", {"fields": {"E": [1, 0, 0], "B": [0, 1, 0]}}, []),
        ("velocity", {"fields": {"E": [1, 0, 0], "B": [0, 1, 0]}}, []),
        ("velocity", {"vacuum": vacuum_cfg}, ["--cutoff=200000"]),
        (
            "vacuum-sweep",
            {"vacuum": vacuum_cfg, "sweep": {"parameter": "cutoff", "values": [100000, 200000]}},
            [],
        ),
        (
            "vacuum-sweep",
            {"vacuum": vacuum_cfg, "sweep": {"parameter": "grid_n", "values": [4, 6]}},
            [],
        ),
    ]
    for command, cfg, flags in runs:
        path = write_config(tmp_path, {"material": material, **cfg})
        for fmt in ("csv", "json"):
            rc, _, err = run_cli(capsys, [command, path, "--format", fmt, *flags])
            assert rc == 0, (command, err)
    assert seen <= {float, int, bool, str, type(None)}, seen
    assert float in seen and int in seen and bool in seen and str in seen


def test_json_null_for_undefined_ratio(tmp_path, capsys):
    vacuum_cfg = {"grid_n": 4, "cutoff": 1e5, "volume": 1.0}
    cases = [
        # the reference terms of term_ratio vanish
        (
            "velocity",
            {"fields": {"E": [0.0, 0.0, 0.0], "B": [0.0, 0.0, 0.0]}},
            ("term_ratio",),
        ),
        # a grid_n sweep fits no slope ...
        (
            "vacuum-sweep",
            {"vacuum": vacuum_cfg, "sweep": {"parameter": "grid_n", "values": [4, 6]}},
            tuple(f"slope_{name}" for name in vacuum.MAGNITUDE_CHANNELS),
        ),
        # ... and neither does a sweep of one cutoff
        (
            "vacuum-sweep",
            {"vacuum": vacuum_cfg, "sweep": {"parameter": "cutoff", "values": [1e5]}},
            tuple(f"slope_{name}" for name in vacuum.MAGNITUDE_CHANNELS),
        ),
        # every residual is 0 at chi = 0, so there is nothing to fit
        (
            "expand-check",
            {"material": dict(GOLDEN_MATERIAL, chi=[0.0] * 9), "fields": CROSSED_FIELDS},
            ("slope",),
        ),
    ]
    for command, cfg, columns in cases:
        path = write_config(tmp_path, {"material": GOLDEN_MATERIAL, **cfg})
        rc, out, err = run_cli(capsys, [command, path, "--format", "json"])
        assert rc == 0, (command, err)
        assert "NaN" not in out
        rows = json.loads(out)["result"]["rows"]
        assert rows
        for row in rows:
            for column in columns:
                assert row[column] is None, (command, column)
        rc, out, err = run_cli(capsys, [command, path])
        for row in read_rows(out):
            for column in columns:
                assert row[column] == "nan", (command, column)


@pytest.mark.parametrize(
    "command, option",
    [
        ("transform", "--cutoff"),
        ("expand-check", "--beta"),
        ("expand-check", "--cutoff"),
        ("velocity", "--beta"),
        ("vacuum-sweep", "--beta"),
    ],
)
def test_override_a_subcommand_does_not_read_is_a_usage_error(tmp_path, command, option):
    cfg = {
        "material": GOLDEN_MATERIAL,
        "boost": {"beta": 0.1},
        "fields": CROSSED_FIELDS,
        "vacuum": {"grid_n": 4, "cutoff": 1e5, "volume": 1.0},
        "sweep": {"parameter": "cutoff", "values": [1e5, 2e5]},
    }
    path = write_config(tmp_path, cfg)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([command, path, option, "0.3"])
    assert rc == 2
    assert out.getvalue() == ""
    usage, error = err.getvalue().splitlines()
    # the usage line names the subcommand and not the option
    assert usage.startswith(f"usage: vacmom {command} [-h]") and option not in usage
    assert error == f"vacmom: error: unrecognized argument: {option}"


def test_vacuum_sweep_cutoff_override_changes_a_grid_sweep(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "material": GOLDEN_MATERIAL,
            "vacuum": {"grid_n": 4, "cutoff": 1e5, "volume": 1.0},
            "sweep": {"parameter": "grid_n", "values": [4, 6]},
        },
    )
    rc_a, out_a, _ = run_cli(capsys, ["vacuum-sweep", path])
    rc_b, out_b, _ = run_cli(capsys, ["vacuum-sweep", path, "--cutoff", "5e4"])
    assert rc_a == 0 and rc_b == 0
    rows_a, rows_b = read_rows(out_a), read_rows(out_b)
    assert [r["mode_count"] for r in rows_a] == [r["mode_count"] for r in rows_b]
    for row_a, row_b in zip(rows_a, rows_b):
        assert float(row_b["zero_point_energy"]) < float(row_a["zero_point_energy"])


_BETA_SWEEP = {"sweep": {"parameter": "beta", "values": [0.1, 0.2]}}
_CUTOFF_SWEEP = {
    "vacuum": {"grid_n": 4, "cutoff": 1e5, "volume": 1.0},
    "sweep": {"parameter": "cutoff", "values": [1e5, 2e5]},
}


@pytest.mark.parametrize(
    "command, cfg, flags",
    [
        ("transform", _BETA_SWEEP, ("--beta", "0.5")),
        ("vacuum-sweep", _CUTOFF_SWEEP, ("--cutoff", "0.5")),
        ("transform", _BETA_SWEEP, ("--beta=0.5",)),
        ("vacuum-sweep", _CUTOFF_SWEEP, ("--cutoff=2e5",)),
    ],
    ids=[
        "transform-beta-sweep",
        "vacuum-sweep-cutoff-sweep",
        "transform-beta-sweep-one-token",
        "vacuum-sweep-cutoff-sweep-one-token",
    ],
)
def test_override_of_the_swept_parameter_is_config_error(
    tmp_path, capsys, command, cfg, flags
):
    # the sweep would win and the override would be silently dropped
    path = write_config(tmp_path, {"material": GOLDEN_MATERIAL, **cfg})
    rc, out, err = run_cli(capsys, [command, path, *flags])
    option = flags[0].partition("=")[0]
    assert rc == 2
    assert out == ""
    assert err == (
        f"config error: {option} cannot override the {option[2:]} sweep"
        " given in sweep.values\n"
    )


# the CLI's input rules, in the order they are checked: an override's
# value, a sweep the command does not read, an override of the swept
# parameter, then the command's own rules
@pytest.mark.parametrize(
    "command, cfg, flags, message",
    [
        (
            "transform",
            _BETA_SWEEP,
            ("--beta", "5"),
            "--beta: |beta| must be < 1",
        ),
        (
            "velocity",
            _CUTOFF_SWEEP,
            ("--cutoff", "2e5"),
            "velocity does not read a 'cutoff' sweep",
        ),
        (
            "transform",
            {"boost": {"beta": 0.3}, **_BETA_SWEEP},
            ("--beta", "0.5"),
            "--beta cannot override the beta sweep",
        ),
    ],
    ids=["bad-value-before-superseded", "unread-before-superseded", "superseded-before-boost"],
)
def test_input_rules_are_checked_in_order(tmp_path, capsys, command, cfg, flags, message):
    path = write_config(tmp_path, {"material": GOLDEN_MATERIAL, **cfg})
    rc, out, err = run_cli(capsys, [command, path, *flags])
    assert rc == 2
    assert out == ""
    assert err.startswith(f"config error: {message}")


def _cutoffs(*values):
    return {"sweep": {"parameter": "cutoff", "values": list(values)}}


@pytest.mark.parametrize(
    "command, edits, flags, field",
    [
        ("velocity", {"vacuum": {"cutoff": math.inf}}, (), "vacuum.cutoff"),
        ("velocity", {"vacuum": {"volume": math.inf}}, (), "vacuum.volume"),
        ("vacuum-sweep", {"vacuum": {"volume": math.inf}}, (), "vacuum.volume"),
        ("velocity", {}, ("--cutoff", "inf"), "--cutoff"),
        # once failed converting nan to a grid size, after the 1e5 grid
        ("vacuum-sweep", _cutoffs(1e5, math.nan, 2e5), (), "sweep.values"),
        ("vacuum-sweep", _cutoffs(math.nan, 1e5), (), "sweep.values"),
        ("vacuum-sweep", _cutoffs(1e5, math.inf), (), "sweep.values"),
    ],
    ids=[
        "cutoff", "volume", "sweep-volume", "cutoff-override",
        "sweep-nan-cutoff", "sweep-nan-base-cutoff", "sweep-inf-cutoff",
    ],
)
def test_infinite_vacuum_size_is_config_error(tmp_path, capsys, command, edits, flags, field):
    # json writes math.inf and math.nan as the tokens Infinity and NaN,
    # which json.load accepts
    cfg = {
        "material": GOLDEN_MATERIAL,
        "vacuum": {"grid_n": 4, "cutoff": 1e5, "volume": 1.0},
        "sweep": {"parameter": "grid_n", "values": [4, 6]},
    }
    for section, values in edits.items():
        cfg[section] = {**cfg[section], **values}
    path = write_config(tmp_path, cfg)
    rc, out, err = run_cli(capsys, [command, path, *flags])
    assert rc == 2
    assert out == ""
    assert err.startswith("config error:")
    assert field in err and "finite" in err


def test_expand_check_probe_stays_inside_the_boost_range(tmp_path, capsys):
    # n = 1.05e6: a derivative probe at beta = -1e-6 would have
    # 1 + n beta = -0.05, although every beta of the grid is positive
    mat = dict(GOLDEN_MATERIAL, epsilon=1.1e12, mu=1.0)
    path = write_config(tmp_path, {"material": mat, "fields": CROSSED_FIELDS})
    rc, out, err = run_cli(capsys, ["expand-check", path])
    assert rc in (0, 4), err
    assert "degenerate boost" not in err
    rows = read_rows(out)
    assert [float(r["beta"]) for r in rows] == list(cli.DEFAULT_BETA_GRID)
    assert all(math.isfinite(float(r["derivative_rel"])) for r in rows)


def test_empty_mode_set_exit_code(tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise EmptyModeSet("no modes survive the configured filter")

    monkeypatch.setattr(cli, "build_mode_set", explode)
    path = write_config(
        tmp_path,
        {
            "material": GOLDEN_MATERIAL,
            "vacuum": {"grid_n": 8, "cutoff": 1e5, "volume": 1.0},
        },
    )
    rc, out, err = run_cli(capsys, ["velocity", path])
    assert rc == 5
    assert "empty mode set" in err


def test_calls_in_one_process_print_what_fresh_processes_print(tmp_path):
    """Calls in one process print what each argv prints in a process of its own."""
    transform = write_config(
        tmp_path, {"material": GOLDEN_MATERIAL, "boost": {"beta": 0.2}}, "transform.json"
    )
    vacuum_cfg = write_config(
        tmp_path,
        {"material": GOLDEN_MATERIAL, "vacuum": {"grid_n": 6, "cutoff": 1e5, "volume": 1.0}},
        "vacuum.json",
    )
    calls = [
        ["transform", transform, "--beta", "0.05"],
        ["transform", transform, "--beta", "-1e-05"],  # a negative exponent form
        ["transform", transform, "--beta=-1e-05"],
        ["transform", transform],  # the config's boost again
        ["velocity", vacuum_cfg, "--cutoff", "2e5"],
        ["velocity", vacuum_cfg],  # the config's cutoff again
        ["velocity", vacuum_cfg, "--format", "xml"],  # usage and exit 2
        ["transform", transform, "--format", "json"],
        ["transform", transform],  # csv again
    ]
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "vacmom", *argv],
            capture_output=True,
            text=True,
            env=src_env(),
            timeout=60,
        )
        assert (rc, out.getvalue(), err.getvalue()) == (
            fresh.returncode,
            fresh.stdout,
            fresh.stderr,
        ), argv


# argv -> (exit code, the one stream written, how it starts); "config.json"
# stands for a config that every subcommand but vacuum-sweep runs on
_PARSE_TABLE = {
    (): (2, "stderr", "usage: vacmom [-h] {"),
    ("-h",): (0, "stdout", "usage: vacmom [-h] {"),
    ("velocity", "-h"): (0, "stdout", "usage: vacmom velocity [-h]"),
    ("velocity", "--he"): (2, "stderr", "usage: vacmom velocity"),
    ("transform", "config.json", "--form", "json"): (2, "stderr", "usage: vacmom transform"),
    ("transform", "config.json", "--format=json"): (0, "stdout", '{\n  "command": "transform"'),
    ("transform", "config.json", "--beta", "-1e-05"): (0, "stdout", "beta,"),
    ("transform", "config.json", "--beta"): (2, "stderr", "usage: vacmom transform"),
    ("velocity", "--", "config.json"): (2, "stderr", "usage: vacmom velocity"),
    ("velocity", "config.json", "--"): (2, "stderr", "usage: vacmom velocity"),
    ("velocity", "config.json", "extra"): (2, "stderr", "usage: vacmom velocity"),
    ("velocity", "config.json", "--bogus", "1"): (2, "stderr", "usage: vacmom velocity"),
    ("velocity",): (2, "stderr", "usage: vacmom velocity"),
    ("--format", "json", "velocity", "config.json"): (2, "stderr", "usage: vacmom [-h]"),
    ("--", "velocity", "config.json"): (2, "stderr", "usage: vacmom [-h]"),
    ("vel", "config.json"): (2, "stderr", "usage: vacmom [-h]"),
    ("velocity", "config.json", "--format", "xml"): (2, "stderr", "usage: vacmom velocity"),
    ("transform", "config.json", "--beta=nan", "--format=json", "--beta", "-1e-05"): (
        0, "stdout", '{\n  "command": "transform"',
    ),
    ("transform", "config.json", "--beta", "-inf"): (2, "stderr", "usage: vacmom transform"),
    ("transform", "config.json", "--beta", "1_0"): (2, "stderr", "config error: --beta:"),
    ("expand-check", "config.json", "--", "json"): (2, "stderr", "usage: vacmom expand-check"),
    ("transform", "config.json", "--beta=--"): (2, "stderr", "usage: vacmom transform"),
    # a token that is not a str
    ("velocity", pathlib.Path("config.json")): (2, "stderr", "usage: vacmom velocity"),
    ("velocity", "config.json", "--cutoff", 3.0): (2, "stderr", "usage: vacmom velocity"),
    # help anywhere, whatever comes before it
    ("bogus", "-h"): (0, "stdout", "usage: vacmom [-h] {"),
    ("velocity", "config.json", "--format", "--help"): (0, "stdout", "usage: vacmom velocity"),
    ("transform", "config.json", "--beta", 0.1, "-h"): (0, "stdout", "usage: vacmom transform"),
    # spellings only argparse read: an abbreviation, a config path that
    # starts with "-"
    ("transform", "config.json", "--b=0.1"): (2, "stderr", "usage: vacmom transform"),
    ("velocity", "-1"): (2, "stderr", "usage: vacmom velocity"),
    ("velocity", "-"): (2, "stderr", "usage: vacmom velocity"),
}


@pytest.mark.parametrize("argv", [list(argv) for argv in _PARSE_TABLE])
def test_subcommand_first_parse_matches_parse_args(tmp_path, capsys, argv):
    """Each argv exits with its code and writes to one stream only."""
    code, stream, start = _PARSE_TABLE[tuple(argv)]
    cfg = {
        "material": GOLDEN_MATERIAL,
        "boost": {"beta": 0.1},
        "vacuum": {"grid_n": 4, "cutoff": 1e5, "volume": 1.0},
    }
    path = write_config(tmp_path, cfg)
    real = {"config.json": path, pathlib.Path("config.json"): pathlib.Path(path)}
    rc, out, err = run_cli(capsys, [real.get(token, token) for token in argv])
    written = {"stdout": out, "stderr": err}
    assert rc == code, written
    assert written.pop(stream).startswith(start), (out, err)
    assert written.popitem()[1] == ""


def test_cli_process_never_imports_argparse_or_statistics(tmp_path):
    expand = write_config(
        tmp_path, {"material": GOLDEN_MATERIAL, "fields": CROSSED_FIELDS}, "expand.json"
    )
    sweep = write_config(
        tmp_path,
        {
            "material": GOLDEN_MATERIAL,
            "vacuum": {"grid_n": 4, "cutoff": 1e5, "volume": 1.0},
            "sweep": {"parameter": "cutoff", "values": [1e5, 2e5]},
        },
        "sweep.json",
    )
    code = textwrap.dedent(
        f"""
        import contextlib, io, sys
        import vacmom.cli as cli
        print("argparse" in sys.modules)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            codes = [cli.main(["expand-check", {expand!r}]),
                     cli.main(["vacuum-sweep", {sweep!r}]),
                     cli.main(["-h"]),
                     cli.main(["expand-check", {expand!r}, "--form", "json"])]
        print(codes)
        loaded = ("argparse", "statistics", "fractions", "decimal")
        print(sorted(m for m in loaded if m in sys.modules))
        print("slope_abs_e_cross_b" in out.getvalue())
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=60,
    )
    assert result.stdout.splitlines() == ["False", "[0, 0, 0, 2]", "[]", "True"], result.stderr


def _run_into_closed_stdout(argv, unbuffered):
    """Run the CLI in a subprocess whose stdout is a pipe with no reader."""
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "vacmom", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_1_quietly(tmp_path, unbuffered):
    # buffered, the write succeeds and the flush fails; unbuffered, the
    # write itself fails
    path = write_config(tmp_path, {"material": GOLDEN_MATERIAL, "fields": CROSSED_FIELDS})
    result = _run_into_closed_stdout(["expand-check", path], unbuffered)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert "Exception ignored" not in result.stderr


@pytest.mark.parametrize("argv", [["--help"], ["velocity", "--help"]])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_help_into_closed_stdout_is_quiet(argv, unbuffered):
    # buffered, the flush of the help fails, unbuffered, its write
    result = _run_into_closed_stdout(argv, unbuffered)
    assert result.returncode == 1
    assert result.stderr == ""


def test_repeated_runs_are_identical(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "material": GOLDEN_MATERIAL,
            "vacuum": {"grid_n": 6, "cutoff": 1e5, "volume": 1.0},
        },
    )
    _, out_a, _ = run_cli(capsys, ["velocity", path])
    _, out_b, _ = run_cli(capsys, ["velocity", path])
    assert out_a == out_b


@settings(max_examples=250, deadline=None)
@given(run=st.randoms(use_true_random=False).map(random_run))
@example(run=FIXED_RUNS[0])
@example(run=FIXED_RUNS[1])
@example(run=FIXED_RUNS[2])
@example(run=FIXED_RUNS[3])
@example(run=FIXED_RUNS[4])
@example(run=FIXED_RUNS[5])
@example(run=FIXED_RUNS[6])
@example(run=FIXED_RUNS[7])
@example(run=FIXED_RUNS[8])
@example(run=FIXED_RUNS[9])
def test_any_finite_config_gives_output_or_an_exit_code(tmp_path_factory, run):
    """A random run gives help, a usage error, a documented exit code
    with a message or finite output (portable_checks.check_run)."""
    path = tmp_path_factory.getbasetemp() / "fuzz-config.json"
    _, problem = check_run(run, str(path))
    assert problem is None, problem
