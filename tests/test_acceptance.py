"""Acceptance gate: one test per headline guarantee of the package.

Each test is a self-contained statement of a contract with its
tolerance; `pytest -v` therefore reports one pass/fail line per
guarantee. Sample draws go through the seeded conftest generators so
reruns check byte-identical configurations.
"""

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys

import vacmom.cli as cli
from conftest import draw_config, draw_fields, make_rng, norm, src_env
from covariant_reference import lab_density
from portable_checks import PINNED_CSV_HEADER
from vacmom.constants import C_LIGHT, FOUR_PI
from vacmom import (
    BoostSpec,
    FieldState,
    Mat3,
    Material,
    Vec3,
    build_mode_set,
    cutoff_sweep,
    index_of,
    isolate_mu_term,
    me_density_first_order,
    medium_velocity,
    scaling_slopes,
    transform_constants,
    vacuum_bilinears,
    verify_expansion,
)

BETA_GRID = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2)


def _unit_index_pairs(rng, count):
    """(eps, mu) with eps * mu == 1.0 exactly in floating point."""
    pairs = []
    while len(pairs) < count:
        eps = float(rng.uniform(0.3, 4.0))
        mu = 1.0 / eps
        if eps * mu == 1.0:
            pairs.append((eps, mu))
    return pairs


def test_unit_index_transform_fixed_point():
    """eps' = eps and mu' = mu within 1e-14 relative when eps mu = 1."""
    rng = make_rng(11)
    for eps, mu in _unit_index_pairs(rng, 1000):
        beta = float(rng.uniform(-0.9, 0.9))
        m = Material(eps, mu, Mat3.zero(), 1.0)
        tc = transform_constants(m, BoostSpec(beta))
        assert abs(tc.epsilon_prime - eps) <= 1e-14 * eps
        assert abs(tc.mu_prime - mu) <= 1e-14 * mu


def test_impedance_invariance():
    """|eps'/mu' - eps/mu| <= 1e-12 (eps/mu) over 1000 admissible boosts."""
    rng = make_rng(12)
    done = 0
    while done < 1000:
        eps = float(rng.uniform(0.1, 10.0))
        mu = float(rng.uniform(0.1, 10.0))
        beta = float(rng.uniform(-0.5, 0.5))
        n = math.sqrt(eps * mu)
        if 1.0 + n * beta <= 0.0:
            continue
        m = Material(eps, mu, Mat3.zero(), 1.0)
        tc = transform_constants(m, BoostSpec(beta))
        ratio = tc.epsilon_prime / tc.mu_prime
        assert abs(ratio - eps / mu) <= 1e-12 * (eps / mu)
        done += 1


def test_index_velocity_addition():
    """sqrt(eps' mu') = (n + beta)/(1 + n beta) within 1e-12 relative."""
    rng = make_rng(12)
    done = 0
    while done < 1000:
        eps = float(rng.uniform(0.1, 10.0))
        mu = float(rng.uniform(0.1, 10.0))
        beta = float(rng.uniform(-0.5, 0.5))
        n = math.sqrt(eps * mu)
        if 1.0 + n * beta <= 0.0:
            continue
        m = Material(eps, mu, Mat3.zero(), 1.0)
        composed = index_of(transform_constants(m, BoostSpec(beta)))
        target = (n + beta) / (1.0 + n * beta)
        assert abs(composed - target) <= 1e-12 * abs(target)
        done += 1


def test_truncation_residual_order():
    """Exact-minus-truncated residual fits slope 2 +- 0.1; derivative
    of the exact density at beta = 0 matches the truncation rate to 1e-8."""
    rng = make_rng(1)
    checked = 0
    for _ in range(100):
        m, f = draw_config(rng)
        rep = verify_expansion(m, f, BETA_GRID)
        if rep.identically_zero:
            continue
        assert rep.slope is not None
        assert 1.9 <= rep.slope <= 2.1
        assert rep.derivative_rel <= 1e-8
        checked += 1
    assert checked >= 100


def test_mu_term_attribution():
    """isolate_mu_term deviates from the analytic mu correction by at
    most a fitted C beta^2, and by <= 1e-3 relative at beta = 1e-4."""
    rng = make_rng(1)
    checked = 0
    for _ in range(100):
        m, f = draw_config(rng)
        muc = {}
        dev = {}
        skip = False
        for beta in BETA_GRID:
            bk = me_density_first_order(m, f, BoostSpec(beta))
            if bk.mu_correction == 0.0:
                skip = True
                break
            muc[beta] = bk.mu_correction
            dev[beta] = abs(isolate_mu_term(m, f, BoostSpec(beta)) - bk.mu_correction)
        if skip:
            continue
        # per-configuration quadratic envelope: least-squares C for
        # dev ~= C beta^2, then every grid point must respect it
        num = sum(dev[b] * b * b for b in BETA_GRID)
        den = sum(b**4 for b in BETA_GRID)
        c_fit = num / den
        for beta in BETA_GRID:
            assert dev[beta] <= 1.35 * c_fit * beta * beta + 1e-12 * abs(muc[beta])
        assert dev[1e-4] <= 1e-3 * abs(muc[1e-4])
        checked += 1
    assert checked >= 95


def test_covariant_bracket():
    """-(1/c) dL/dbeta_i at beta = 0 of the Lorentz-scalar density, by
    central differences of the exact boost along x, y and z, is the
    velocity bracket (eps mu - 1) E x B + E x chi^T E - B x chi B over
    4 pi mu c, with no mu-term, to 1e-8 of its largest component."""
    rng = make_rng(14)
    h = 1e-5
    for _ in range(100):
        m, f = draw_config(rng)
        res = medium_velocity(m, f)
        bracket = [
            a + e + b
            for a, e, b in zip(res.abraham_minkowski_term, res.chi_E_term, res.chi_B_term)
        ]
        rest = (m.epsilon, m.mu, m.chi, f.E, f.B)
        gradient = [
            (lab_density(*rest, axis, -h) - lab_density(*rest, axis, h)) / (2.0 * h * C_LIGHT)
            for axis in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        ]
        top = max(map(abs, bracket))
        assert max(abs(g - b) for g, b in zip(gradient, bracket)) <= 1e-8 * top


def test_velocity_equation_degeneracies():
    """mu_term_z vanishes (<= 1e-15) when eps mu = 1; without coupling
    and with crossed transverse fields v_z reduces to the classical
    (eps mu - 1) E0 B0 / (4 pi mu c rho0) within 1e-14 relative."""
    rng = make_rng(15)
    for eps, mu in _unit_index_pairs(rng, 1000):
        chi = Mat3(*rng.uniform(-0.5, 0.5, (3, 3)).ravel().tolist())
        m = Material(eps, mu, chi, 1.0)
        f = draw_fields(rng)
        assert abs(medium_velocity(m, f).mu_term_z) <= 1e-15
    for _ in range(1000):
        eps = float(rng.uniform(0.3, 4.0))
        mu = float(rng.uniform(0.3, 4.0))
        rho0 = float(rng.uniform(0.5, 2.0))
        e0 = float(rng.uniform(0.1, 3.0))
        b0 = float(rng.uniform(0.1, 3.0))
        m = Material(eps, mu, Mat3.zero(), rho0)
        f = FieldState(Vec3(e0, 0.0, 0.0), Vec3(0.0, b0, 0.0))
        res = medium_velocity(m, f)
        want = (eps * mu - 1.0) * e0 * b0 / (FOUR_PI * mu * C_LIGHT * rho0)
        assert abs(res.v_z - want) <= 1e-14 * abs(want)
        assert res.transverse_residual == 0.0


def test_lagrangian_velocity_consistency():
    """The exact d/dv of the first-order interaction density matches the
    chi-dependent terms of the velocity equation to 1e-8 relative."""
    rng = make_rng(1)
    for _ in range(100):
        m, f = draw_config(rng)
        res = medium_velocity(m, f)
        scale = abs(res.chi_E_term.z) + abs(res.chi_B_term.z) + abs(res.mu_term_z)
        # linear in beta, so the beta-slope is twice the value at 1/2
        bk = me_density_first_order(m, f, BoostSpec(0.5))
        derivative = 2.0 * (bk.mixing + bk.mu_correction) / C_LIGHT / FOUR_PI
        # the equation of motion carries the derivative with a flipped sign
        check = abs(derivative + res.chi_E_term.z + res.chi_B_term.z + res.mu_term_z)
        rel = check / scale if scale > 0.0 else 0.0
        assert rel <= 1e-8


def test_vacuum_isotropy_and_cutoff_scaling():
    """Signed <E x B> over the symmetric mode set with chi = 0 is below
    1e-12 of the magnitude channel; the coupling channel grows like
    cutoff^4 within +-0.2 across a decade."""
    for eps, mu in ((1.0, 1.0), (2.25, 1.0), (1.4, 0.7)):
        m = Material(eps, mu, Mat3.zero(), 1.0)
        bs = vacuum_bilinears(build_mode_set(m, 10, 1e5, 1.0), m)
        assert norm(bs.e_cross_b) <= 1e-12 * bs.abs_e_cross_b
    chi = Mat3(0.0, 1e-4, 0.0, -1e-4, 0.0, 0.0, 0.0, 0.0, 0.0)
    m = Material(2.25, 1.0, chi, 1.0)
    cuts = [
        20000.0,
        35565.588200778455,
        63245.553203367585,
        112468.26503806982,
        200000.0,
    ]
    slopes = scaling_slopes(cutoff_sweep(m, 6, cuts, 1.0))
    assert 3.8 <= slopes["abs_b_dot_chiT_e"] <= 4.2


_CLI_MATERIAL = {
    "epsilon": 2.25,
    "mu": 1.0,
    "chi": [0.0, 1e-4, 0.0, -1e-4, 0.0, 0.0, 0.0, 0.0, 0.0],
    "rho0": 1.0,
}
CLI_CONFIGS = {
    "transform": {"material": _CLI_MATERIAL, "boost": {"beta": 0.123456789}},
    "expand-check": {
        "material": _CLI_MATERIAL,
        "fields": {"E": [1.0, 0.0, 0.0], "B": [0.0, 1.0, 0.0]},
    },
    "velocity": {
        "material": _CLI_MATERIAL,
        "vacuum": {"grid_n": 6, "cutoff": 1e5, "volume": 1.0},
    },
    "vacuum-sweep": {
        "material": _CLI_MATERIAL,
        "vacuum": {"grid_n": 4, "cutoff": 2e4, "volume": 1.0},
        "sweep": {"parameter": "cutoff", "values": [2e4, 4e4]},
    },
}


def test_cli_determinism(tmp_path):
    """Every subcommand is byte-deterministic on a fixed config and the
    JSON config echo round-trips bit for bit."""
    for command, cfg in CLI_CONFIGS.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
        for fmt in ("csv", "json"):
            argv = [sys.executable, "-m", "vacmom", command, str(path), "--format", fmt]
            first = subprocess.run(argv, capture_output=True, check=True, env=src_env())
            second = subprocess.run(argv, capture_output=True, check=True, env=src_env())
            assert first.stdout == second.stdout, (command, fmt)
        payload = json.loads(first.stdout)
        echoed = json.dumps(payload["config"])
        assert json.loads(echoed) == cfg, command


# sha256 of stdout for each CLI_CONFIGS command and format, recorded
# before the CLI kept its column, option and key names in one table each
PINNED_STDOUT_SHA256 = {
    ("transform", "csv"): "ba5f134515dc7c2c967aec64fa4a5dfb015ab658c610774cb92150e77e6c5b67",
    ("transform", "json"): "e82cf54d39f5251ce29d96f6509f03342952174972b92c3a43acb10ab4163f33",
    ("expand-check", "csv"): "e2ee6ab46100555952f2af14f8656245ebd19c4aeb79ee8e3a1d79b6ec79a520",
    ("expand-check", "json"): "a0f6473eaf976d5fef8246bf36022a8ee3c7187d480c46e9b8c4f97c4f99b48c",
    ("velocity", "csv"): "ca6d8f98c95be4d19000b7d491e574349eb02428a84e29c4d5699068cbb2bf94",
    ("velocity", "json"): "fb344e1709991ebc35475166698e2da15b1e3d3c884e21f0f1f0809250d1c196",
    ("vacuum-sweep", "csv"): "1ba9b952f6891a73d6396912890dc20ca216f8e6354919aa49db0c70732a43a8",
    ("vacuum-sweep", "json"): "45d7e1123b98b6e8b4d5dece32cbcb8cd2307b87b1d26106144a7fd54d944200",
}


def test_cli_bytes_pinned(tmp_path):
    """Column order, formatting and the JSON layout of every subcommand
    stay byte for byte what they were when pinned."""
    for command, cfg in CLI_CONFIGS.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
        for fmt in ("csv", "json"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main([command, str(path), "--format", fmt])
            assert rc == 0, (command, fmt)
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
            assert digest == PINNED_STDOUT_SHA256[command, fmt], (command, fmt)
            if fmt == "csv":
                assert out.getvalue().split("\n", 1)[0] == PINNED_CSV_HEADER[command]


# n = sqrt(0.99) < 1 / 0.95, so the boost at beta = -0.95 is not degenerate
_EDGE_MATERIAL = {
    "epsilon": 1.1,
    "mu": 0.9,
    "chi": [0.3, -0.7, 0.2, 0.5, -0.1, 0.4, -0.6, 0.25, 0.15],
    "rho0": 2.5,
}
EDGE_FIELDS = {
    "signed-zero": {"E": [-0.0, 1.25, -0.0], "B": [0.75, -0.0, 0.0]},
    "longitudinal": {"E": [0.3, -0.7, 0.9], "B": [-1.1, 0.4, -0.6]},
    "huge": {"E": [1e150, -3e149, 2e149], "B": [-2e150, 5e149, 0.0]},
    "tiny": {"E": [1e-150, 2e-150, -0.0], "B": [-3e-150, 0.0, 1e-150]},
}
EDGE_CONFIGS = {
    ("transform", "beta-0.95"): {
        "material": _EDGE_MATERIAL,
        "sweep": {"parameter": "beta", "values": [-0.95, 0.95]},
    },
    **{
        (command, name): {"material": _EDGE_MATERIAL, "fields": fields}
        for name, fields in EDGE_FIELDS.items()
        for command in ("expand-check", "velocity")
    },
}
# (exit code, sha256 of stdout) per command, config and format, recorded
# while the records were still dataclasses and the boost was still
# composed of Vec3 operations
PINNED_EDGE_STDOUT = {
    ("transform", "beta-0.95", "csv"): (0, "967c160fb89b0d368b7f6685756a47f13c8710650b708744fe4ed7adac94e453"),
    ("transform", "beta-0.95", "json"): (0, "f5204e9ec6e77f989771246ccb7e2b3c4e120431e66a7cc340998a8d41c2caeb"),
    ("expand-check", "signed-zero", "csv"): (0, "ce9503ca07f8368d72baa3d0cb3aa7586a337de5ef4d39d2d48b3d4d584eab80"),
    ("expand-check", "signed-zero", "json"): (0, "27e3fc1c51d3e609eb8c436c4c8e5431ff25b5100883f288c31687c6c87ec861"),
    ("velocity", "signed-zero", "csv"): (0, "3971c7a9c95187a482eff5dcbee13de704fa51d66f7d0b47365b6217733ac325"),
    ("velocity", "signed-zero", "json"): (0, "a6196128c9e7e75f206cce00bcec822e2ba1235b82f1feaef1aac13114c031e6"),
    ("expand-check", "longitudinal", "csv"): (0, "e7691ddbb499dc92b4dc900d8da3ef30ea1168b5f51316baece45a4f1f63ee32"),
    ("expand-check", "longitudinal", "json"): (0, "1ca1fb7d07d1ce1ceb77f6c151f002709ac910c15e4cea287f665a01290c9b47"),
    ("velocity", "longitudinal", "csv"): (0, "0f34e80739c5523190951ccdf2671fdadee609016190cd5301eb3efaae3656dc"),
    ("velocity", "longitudinal", "json"): (0, "24e31e4428c29779462503e9b052ac85a4e05fcb553228d24cf9b016f1f6c895"),
    ("expand-check", "huge", "csv"): (0, "29fd66e300d5d09927a8c5ee4296e8be50dc5f5cc0b6b639f90101e38d5d4993"),
    ("expand-check", "huge", "json"): (0, "66aa72ce461c80e66a64fef9ececf1c67354bc1409164946a100de8784438c39"),
    ("velocity", "huge", "csv"): (0, "b057abef644af106df390c645bd07bab0db9e9e3e2b3a8ed479419362d92bfae"),
    ("velocity", "huge", "json"): (0, "3814deaf8ac61a36b0049f915f8dfda7b3e16b7d1eed3a1158dded69622ee528"),
    ("expand-check", "tiny", "csv"): (0, "ff97808dc0e7a50beaa11831d8fec7a0b2697d9ca32222304e7d708eee5af306"),
    ("expand-check", "tiny", "json"): (0, "8b19cde0469f9d135a009ad9a2e116746ba1c243638c432304a77e7450c10cff"),
    ("velocity", "tiny", "csv"): (0, "3fa78e26db2c77beed0a5c52e4fc8c1af201c800128fa765fb52d664220291b1"),
    ("velocity", "tiny", "json"): (0, "114e7ef9493ea1d92a9f5aa1ce84d05a38da7c163d14a4dfb8e77e003d2b137c"),
}


def test_cli_edge_bytes_pinned(tmp_path):
    """Signed zeros, longitudinal components, fields near 1e+-150 and
    boosts at beta = +-0.95 give the bytes they gave when pinned."""
    for (command, name), cfg in EDGE_CONFIGS.items():
        path = tmp_path / f"{command}-{name}.json"
        path.write_text(json.dumps(cfg))
        for fmt in ("csv", "json"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main([command, str(path), "--format", fmt])
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
            assert (rc, digest) == PINNED_EDGE_STDOUT[command, name, fmt], (command, name, fmt)
