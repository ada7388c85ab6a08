"""Command line behavior: schema rejection, outputs, exit codes."""

import argparse
import contextlib
import copy
import csv
import dataclasses
import fractions
import io
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vacmom.cli as cli
import vacmom.vacuum as vacuum
from vacmom import MAX_GRID_N, ConfigError, EmptyModeSet, Vec3, parse_config
from vacmom.config import config_to_dict, load_config

from conftest import src_env
from portable_checks import MALFORMED_FILES, parse_outcome
from test_acceptance import PINNED_CSV_HEADER

GOLDEN_MATERIAL = {
    "epsilon": 2.25,
    "mu": 1.0,
    "chi": [0.0, 1e-4, 0.0, -1e-4, 0.0, 0.0, 0.0, 0.0, 0.0],
    "rho0": 1.0,
}
CROSSED_FIELDS = {"E": [1.0, 0.0, 0.0], "B": [0.0, 1.0, 0.0]}

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
    path = tmp_path / "broken.json"
    path.write_text('{"material": {\n  "epsilon": 2.25,,\n}}')
    rc, out, err = run_cli(capsys, ["transform", str(path)])
    assert rc == 2
    assert ":2:" in err


def test_nonpositive_epsilon_rejected(tmp_path, capsys):
    bad = dict(GOLDEN_MATERIAL, epsilon=-1.0)
    path = write_config(tmp_path, {"material": bad, "boost": {"beta": 0.1}})
    rc, out, err = run_cli(capsys, ["transform", path])
    assert rc == 2
    assert "epsilon" in err


def test_missing_file_is_config_error(capsys):
    rc, out, err = run_cli(capsys, ["transform", "/nonexistent/nowhere.json"])
    assert rc == 2


@pytest.mark.parametrize("case", list(MALFORMED_FILES))
def test_malformed_file_is_config_error(tmp_path, capsys, case):
    content, message = MALFORMED_FILES[case]
    path = tmp_path / "config.json"
    path.write_bytes(content)
    rc, out, err = run_cli(capsys, ["transform", str(path)])
    assert (rc, out) == (2, "")
    assert err.startswith(f"config error: {path}")
    assert message in err


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
        return dataclasses.replace(
            sums,
            e_cross_chiT_e=up(sums.e_cross_chiT_e),
            b_cross_chi_b=up(sums.b_cross_chi_b),
        )

    monkeypatch.setattr(cli, "vacuum_bilinears", bumped)
    rc, after, _ = run_cli(capsys, ["velocity", path])
    assert rc == 0
    assert after != before


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
    ],
    ids=["vacuum-grid_n", "grid_n-sweep", "grid_n-sweep-inf", "cutoff-sweep"],
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


# each command with a sweep of a parameter it does not read
_UNREAD_SWEEPS = {
    "transform": ("cutoff", "grid_n"),
    "expand-check": ("cutoff", "grid_n"),
    "velocity": ("beta", "cutoff", "grid_n"),
    "vacuum-sweep": ("beta",),
}


@pytest.mark.parametrize(
    "command, parameter",
    [(c, p) for c, params in _UNREAD_SWEEPS.items() for p in params],
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
    assert config_to_dict(load_config(path)) == payload["config"]
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


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, 1e-308]),
    st.text(),
)


def _json_containers(depth):
    """Lists and dicts nested up to `depth` deep, empty ones included."""
    children = _json_scalars if depth == 1 else _json_scalars | _json_containers(depth - 1)
    return st.lists(children, max_size=3) | st.dictionaries(st.text(), children, max_size=3)


@settings(max_examples=300, deadline=None)
@given(value=st.one_of([_json_containers(depth) for depth in range(1, 7)]))
@example(value={"a\u00e9\n\x00": [[], {}, [[{"b": -0.0}]]], "": [math.nan, 5e-324, -1e308]})
def test_json_is_laid_out_as_json_dumps_indent_2(value):
    assert cli._json(value) == json.dumps(value, indent=2)


_COLUMNS = sorted({c for header in PINNED_CSV_HEADER.values() for c in header.split(",")})
_csv_values = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324]),
    st.integers(),
    st.booleans(),
    st.none(),
    st.sampled_from(["beta", "cutoff", "grid_n"]),
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.tuples(st.sampled_from(_COLUMNS), _csv_values), min_size=1, max_size=16),
        min_size=1,
        max_size=4,
    )
)
def test_csv_is_written_as_csv_writer_writes_it(rows):
    def cell(value):
        if isinstance(value, float):
            return format(value, ".17g")
        if value is None:
            return "nan"
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow([column for column, _ in rows[0]])
    for row in rows:
        writer.writerow([cell(v) for _, v in row])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(None, argparse.Namespace(format="csv"), rows)
    assert out.getvalue() == expected.getvalue()


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
        with pytest.raises(SystemExit) as exc:
            cli.main([command, path, option, "0.3"])
    assert exc.value.code == 2
    assert out.getvalue() == ""
    assert f"unrecognized arguments: {option} 0.3" in err.getvalue()


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


@pytest.mark.parametrize(
    "command, vacuum_spec, flags, field",
    [
        ("velocity", {"cutoff": math.inf}, (), "vacuum.cutoff"),
        ("velocity", {"volume": math.inf}, (), "vacuum.volume"),
        ("vacuum-sweep", {"volume": math.inf}, (), "vacuum.volume"),
        ("velocity", {}, ("--cutoff", "inf"), "--cutoff"),
    ],
    ids=["cutoff", "volume", "sweep-volume", "cutoff-override"],
)
def test_infinite_vacuum_size_is_config_error(
    tmp_path, capsys, command, vacuum_spec, flags, field
):
    # json writes math.inf as the token Infinity, which json.load accepts
    cfg = {
        "material": GOLDEN_MATERIAL,
        "vacuum": {"grid_n": 4, "cutoff": 1e5, "volume": 1.0, **vacuum_spec},
        "sweep": {"parameter": "grid_n", "values": [4, 6]},
    }
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


def test_reused_parser_matches_fresh_processes(tmp_path, monkeypatch):
    """Calls in one process print what each argv prints in a process of its own."""
    # argparse wraps usage to the terminal width; fix it on both sides
    monkeypatch.setenv("COLUMNS", "80")
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
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
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
    assert cli._build_parser.cache_info().currsize == 1


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["velocity", "-h"],
        ["velocity", "--he"],
        ["transform", "config.json", "--form", "json"],
        ["transform", "config.json", "--format=json"],
        ["transform", "config.json", "--beta", "-1e-05"],
        ["transform", "config.json", "--beta"],
        ["velocity", "--", "config.json"],
        ["velocity", "config.json", "--"],
        ["velocity", "config.json", "extra"],
        ["velocity", "config.json", "--bogus", "1"],
        ["velocity"],
        ["--format", "json", "velocity", "config.json"],
        ["--", "velocity", "config.json"],
        ["vel", "config.json"],
        ["velocity", "config.json", "--format", "xml"],
        ["transform", "config.json", "--beta=nan", "--format=json", "--beta", "-1e-05"],
        ["transform", "config.json", "--beta", "-inf"],
        ["transform", "config.json", "--beta", "1_0"],
        ["expand-check", "config.json", "--", "json"],
    ],
)
def test_subcommand_first_parse_matches_parse_args(monkeypatch, argv):
    # argparse wraps usage to the terminal width; fix it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    parser = cli._build_parser()
    assert parse_outcome(cli._parse_args, argv) == parse_outcome(parser.parse_args, argv)


def test_cli_process_builds_one_parser_and_never_imports_statistics(tmp_path):
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
        built_on_import = cli._build_parser.cache_info().currsize
        with contextlib.redirect_stdout(io.StringIO()) as out:
            codes = [cli.main(["expand-check", {expand!r}]),
                     cli.main(["vacuum-sweep", {sweep!r}])]
        print(built_on_import, cli._build_parser.cache_info().misses, codes)
        print(sorted(m for m in ("statistics", "fractions", "decimal") if m in sys.modules))
        print("slope_abs_e_cross_b" in out.getvalue())
        # an abbreviated option is left to argparse, which builds the parser
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["expand-check", {expand!r}, "--form", "json"])]
        print(cli._build_parser.cache_info().misses, codes)
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["0 0 [0, 0]", "[]", "True", "1 [0]"]


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
    # argparse prints the help and exits inside parse_args; buffered,
    # the flush fails, unbuffered, the write of the help itself
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


_magnitude = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
_signed = st.one_of(
    st.just(0.0),
    st.tuples(st.sampled_from((-1.0, 1.0)), _magnitude).map(lambda p: p[0] * p[1]),
)
_vector = st.lists(_signed, min_size=3, max_size=3)
# vacuum cutoffs: the magnitudes above, or past 1e300 up to the largest
# float, where 2.0 * cutoff overflows
_cutoff = st.one_of(_magnitude, st.floats(1e300, sys.float_info.max))


_beta = st.one_of(
    st.just(0.0),
    st.tuples(
        st.sampled_from((-1.0, 1.0)), st.floats(-300.0, 0.0, exclude_max=True)
    ).map(lambda p: p[0] * 10.0 ** p[1]),
)
# increasing expansion grids in (0, 0.1]
_beta_grid = st.lists(
    st.floats(-300.0, -1.0).map(lambda e: 10.0**e), min_size=3, max_size=4, unique=True
).map(sorted)


@st.composite
def _any_run(draw):
    """One run of any command: (command, config, extra argv).

    transform (config boost, beta sweep, both or --beta), expand-check
    (default or drawn grid), velocity (vacuum or classical) and
    vacuum-sweep (cutoff or grid_n), those with a vacuum section with
    or without --cutoff, which may override the swept parameter. Each
    option is spelled as one token or as two, with a value written by
    repr, so negative exponents come up. In about one draw of five the
    sweep is replaced by one of a parameter the command does not read,
    and in about one of ten an option's value is "--" (--beta=--). In
    about one draw of ten a number is an integer beyond the float
    range, and in another a section is repeated; json.dumps cannot
    write a repeated key, so that config comes as its JSON text.
    """
    command, cfg, flags = draw(_run_of_each_command())
    if draw(st.integers(0, 9)) == 9:
        flags = (*flags, draw(st.sampled_from(("--beta=--", "--cutoff=--", "--format=--"))))
    if draw(st.integers(0, 4)) == 4:
        cfg["sweep"] = {
            "parameter": draw(st.sampled_from(_UNREAD_SWEEPS[command])),
            "values": draw(st.lists(_signed, min_size=1, max_size=3)),
        }
    fault = draw(st.integers(0, 9))
    if fault == 8:
        places = [
            (name, key)
            for name in ("material", "boost", "vacuum", "sweep")
            for key in cfg.get(name, ())
            if key not in ("chi", "grid_n", "parameter")
        ]
        section, key = draw(st.sampled_from(places))
        huge = draw(st.sampled_from((10**400, -(10**400), 2**1024)))
        if key == "values":
            cfg[section][key][-1] = huge
        else:
            cfg[section][key] = huge
    elif fault == 9:
        section = draw(st.sampled_from(sorted(cfg)))
        cfg = json.dumps(cfg)[:-1] + f", {json.dumps(section)}: {json.dumps(cfg[section])}}}"
    return command, cfg, flags


def _spelled(draw, option, value):
    """The option and its value as one token or as two, drawn."""
    return draw(st.sampled_from(((f"{option}={value}",), (option, value))))


@st.composite
def _run_of_each_command(draw):
    cfg = {
        "material": {
            "epsilon": draw(_magnitude),
            "mu": draw(_magnitude),
            "chi": draw(st.lists(_signed, min_size=9, max_size=9)),
            "rho0": draw(_magnitude),
        },
    }
    kind = draw(
        st.sampled_from(
            ("transform", "transform-beta", "expand-check",
             "classical", "vacuum", "cutoff", "grid_n")
        )
    )
    if kind.startswith("transform"):
        sections = draw(st.sampled_from((("boost",), ("sweep",), ("boost", "sweep"))))
        if "boost" in sections:
            cfg["boost"] = {"beta": draw(_beta)}
        if "sweep" in sections:
            cfg["sweep"] = {
                "parameter": "beta",
                "values": draw(st.lists(_beta, min_size=1, max_size=3)),
            }
        flags = ()
        if kind == "transform-beta":
            flags = _spelled(draw, "--beta", repr(draw(_beta)))
        return "transform", cfg, flags
    if kind in ("expand-check", "classical"):
        cfg["fields"] = {"E": draw(_vector), "B": draw(_vector)}
        if kind == "classical":
            return "velocity", cfg, ()
        if draw(st.booleans()):
            cfg["sweep"] = {"parameter": "beta", "values": draw(_beta_grid)}
        return "expand-check", cfg, ()
    vac = {
        "grid_n": draw(st.integers(2, 6)),
        "cutoff": draw(_cutoff),
        "volume": draw(_magnitude),
    }
    cfg["vacuum"] = vac
    flags = _spelled(draw, "--cutoff", repr(draw(_signed))) if draw(st.booleans()) else ()
    if kind == "vacuum":
        return "velocity", cfg, flags
    if kind == "cutoff":
        # ascending cutoffs whose scaled grids stay small
        factors = draw(st.lists(st.sampled_from((1.0, 1.5, 2.0, 3.0)), min_size=1, unique=True))
        values = [vac["cutoff"] * f for f in sorted(factors)]
    else:
        values = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))
    cfg["sweep"] = {"parameter": kind, "values": values}
    return "vacuum-sweep", cfg, flags


# n V underflows to 0 at these; both once ended in a ZeroDivisionError
_UNDERFLOWING_INDEX = {"epsilon": 4.4e-289, "mu": 4.1e-68, "chi": [0.0] * 9, "rho0": 1.0}
_UNDERFLOWING_N_VOLUME = dict(_UNDERFLOWING_INDEX, epsilon=1.0, mu=5.2e-292)


@settings(max_examples=250, deadline=None)
@given(run=_any_run(), fmt=st.sampled_from(("csv", "json")).flatmap(
    lambda fmt: st.sampled_from((("--format", fmt), (f"--format={fmt}",)))
))
@example(
    run=("velocity", {"material": _UNDERFLOWING_INDEX,
                      "vacuum": {"grid_n": 2, "cutoff": 1e5, "volume": 1.0}}, ()),
    fmt=("--format", "csv"),
)
@example(
    run=("vacuum-sweep", {"material": _UNDERFLOWING_N_VOLUME,
                          "vacuum": {"grid_n": 2, "cutoff": 1e5, "volume": 5.8e-199},
                          "sweep": {"parameter": "grid_n", "values": [2]}}, ()),
    fmt=("--format", "csv"),
)
@example(
    run=("transform", {"material": _HUGE_CONSTANTS}, ("--beta=0.1",)),
    fmt=("--format", "csv"),
)
@example(
    run=("expand-check", {"material": _UNDERFLOWING_INDEX, "fields": CROSSED_FIELDS}, ()),
    fmt=("--format", "csv"),
)
@example(
    run=("transform", {"material": GOLDEN_MATERIAL}, ("--beta", "-1e-05")),
    fmt=("--format=json",),
)
def test_any_finite_config_gives_output_or_an_exit_code(tmp_path_factory, run, fmt):
    command, cfg, flags = run
    path = tmp_path_factory.getbasetemp() / "fuzz-config.json"
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([command, str(path), *fmt, *flags])
        except SystemExit as exc:
            # argparse's usage error, on every Python, before the config is read
            assert exc.code == 2 and any(token.endswith("=--") for token in flags)
            return
    assert rc in (0, 2, 3, 4, 5)
    if isinstance(cfg, str):
        assert rc == 2 and "duplicate key" in err.getvalue()
    elif "sweep" in cfg:
        # an override of the swept parameter is rejected, not dropped
        swept = f"--{cfg['sweep']['parameter']}"
        if any(token.partition("=")[0] == swept for token in flags):
            assert rc == 2
    if rc != 0:
        assert err.getvalue()
        return
    if fmt[-1].endswith("json"):
        rows = json.loads(out.getvalue())["result"]["rows"]
    else:
        rows = read_rows(out.getvalue())
    for row in rows:
        for column, value in row.items():
            try:
                x = float(value)
            except (TypeError, ValueError):  # null, or a parameter name
                continue
            if not math.isfinite(x):
                # expand-check leaves the slope out when every residual is 0
                unfitted = column == "slope" and row["identically_zero"] in (True, "true")
                assert unfitted or column == "term_ratio" or column.startswith("slope_"), (
                    column,
                    value,
                )
