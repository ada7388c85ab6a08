"""Checks of every benchmark op against oracles independent of vacmom.

Nothing here imports vacmom: the expected values come from closed forms,
from the paper's velocity equation evaluated with plain floats, and
from integer geometry. ``check`` returns a list of problems, empty when
the op's exit code and output are right.

The golden gate (``golden_problems``) is the exception: it calls the
library on the two fixed inputs of ``tests/test_vacuum.py`` and compares
with the golden sums recorded there, before anything is timed.
"""

from __future__ import annotations

import csv
import io
import json
import math

C_LIGHT = 2.99792458e10  # cm/s, exact by the SI definition
CLOSED_FORM_RTOL = 1e-12
EQUATION_RTOL = 1e-12
SLOPE_WINDOW = (1.9, 2.1)
CUTOFF_SLOPE_WINDOW = (3.8, 4.2)


def _value(raw):
    """A CSV cell or JSON value as a Python value; nan for 'nan' or null."""
    if raw is None:
        return math.nan
    if raw in ("true", "false"):
        return raw == "true"
    if isinstance(raw, str):
        try:
            return float(raw)
        except ValueError:
            return raw
    return raw


def _rows(stdout: str, fmt: str) -> list[dict]:
    if fmt == "json":
        rows = json.loads(stdout)["result"]["rows"]
    else:
        rows = list(csv.DictReader(io.StringIO(stdout)))
    return [{key: _value(raw) for key, raw in row.items()} for row in rows]


def _close(got: float, want: float, rtol: float, scale: float = 0.0) -> bool:
    """|got - want| <= rtol * max(|got|, |want|, scale)."""
    if not (math.isfinite(got) and math.isfinite(want)):
        return False
    return abs(got - want) <= rtol * max(abs(got), abs(want), scale)


def _axial(chi: list[float]) -> tuple[float, float, float]:
    """ax(chi) = (chi_yz - chi_zy, chi_zx - chi_xz, chi_xy - chi_yx)."""
    return (chi[5] - chi[7], chi[6] - chi[2], chi[1] - chi[3])


_MODE_COUNTS: dict[int, int] = {}


def mode_count(grid_n: int) -> int:
    """Modes kept on the cell-centred grid: two per cell with 0 < |k| <= cutoff.

    Cell i sits at k = (2 i + 1 - grid_n) * cutoff / grid_n, so the
    sphere test is an integer one; no cell lies on the sphere.
    """
    if grid_n not in _MODE_COUNTS:
        offsets = [2 * i + 1 - grid_n for i in range(grid_n)]
        squares = [d * d for d in offsets]
        limit = grid_n * grid_n
        cells = sum(
            1
            for a in squares
            for b in squares
            for c in squares
            if 0 < a + b + c <= limit
        )
        _MODE_COUNTS[grid_n] = 2 * cells
    return _MODE_COUNTS[grid_n]


def _fmt(op) -> str:
    flags = list(op.flags)
    return flags[flags.index("--format") + 1] if "--format" in flags else "csv"


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _apply(chi, v, transpose=False):
    if transpose:
        return tuple(sum(chi[3 * j + i] * v[j] for j in range(3)) for i in range(3))
    return tuple(sum(chi[3 * i + j] * v[j] for j in range(3)) for i in range(3))


def _check_vacuum_velocity(op, rows) -> list[str]:
    if len(rows) != 1:
        return [f"expected 1 row, got {len(rows)}"]
    row = rows[0]
    m = op.config["material"]
    n2 = m["epsilon"] * m["mu"]
    problems = []
    for name in ("am_x", "am_y", "am_z", "mu_term_z"):
        if row[name] != 0.0:
            problems.append(f"{name} = {row[name]!r}, expected exactly 0")
    for axis in "xyz":
        chi_e, chi_b = row[f"chi_E_{axis}"], row[f"chi_B_{axis}"]
        if not _close(chi_b, n2 * chi_e, CLOSED_FORM_RTOL):
            problems.append(f"chi_B_{axis} = {chi_b!r} != n^2 chi_E_{axis} = {n2 * chi_e!r}")
    return problems


def _check_vacuum_sweep(op, rows) -> list[str]:
    if len(rows) != len(op.grids):
        return [f"expected {len(op.grids)} rows, got {len(rows)}"]
    m = op.config["material"]
    volume = op.config["vacuum"]["volume"]
    n2 = m["epsilon"] * m["mu"]
    ax_z = _axial(m["chi"])[2]
    problems = []
    for grid_n, row in zip(op.grids, rows):
        where = f"grid_n={grid_n}"
        if row["mode_count"] != mode_count(grid_n):
            problems.append(f"{where}: mode_count {row['mode_count']!r} != {mode_count(grid_n)}")
        for name in ("e_cross_b_z", "b_dot_chiT_e"):
            if row[name] != 0.0:
                problems.append(f"{where}: odd channel {name} = {row[name]!r}, expected exactly 0")
        # cubic symmetry of the grid: E x chi^T E = (2/3)(2 pi / V) ZPE ax(chi)
        want = (2.0 / 3.0) * (2.0 * math.pi / volume) * row["zero_point_energy"] * ax_z
        if not _close(row["e_cross_chiT_e_z"], want, CLOSED_FORM_RTOL):
            problems.append(f"{where}: e_cross_chiT_e_z {row['e_cross_chiT_e_z']!r} != {want!r}")
        if not _close(row["b_cross_chi_b_z"], -n2 * want, CLOSED_FORM_RTOL):
            problems.append(f"{where}: b_cross_chi_b_z {row['b_cross_chi_b_z']!r} != {-n2 * want!r}")
        slope = row["slope_abs_b_dot_chiT_e"]
        if op.kind == "cutoff-chain":
            lo, hi = CUTOFF_SLOPE_WINDOW
            if not lo <= slope <= hi:
                problems.append(f"{where}: slope_abs_b_dot_chiT_e {slope!r} outside [{lo}, {hi}]")
        elif not math.isnan(slope):
            problems.append(f"{where}: grid_n sweep has slope {slope!r}, expected nan")
    return problems


def _check_transform(op, rows) -> list[str]:
    m = op.config["material"]
    betas = op.config["sweep"]["values"]
    if len(rows) != len(betas):
        return [f"expected {len(betas)} rows, got {len(rows)}"]
    n = math.sqrt(m["epsilon"] * m["mu"])
    impedance = m["epsilon"] / m["mu"]
    problems = []
    for beta, row in zip(betas, rows):
        eps_p, mu_p = row["epsilon_prime"], row["mu_prime"]
        if row["beta"] != beta:
            problems.append(f"beta {row['beta']!r} != {beta!r}")
        if not _close(eps_p / mu_p, impedance, EQUATION_RTOL):
            problems.append(f"beta={beta!r}: impedance {eps_p / mu_p!r} != {impedance!r}")
        index = (n + beta) / (1.0 + n * beta)
        if not _close(math.sqrt(eps_p * mu_p), index, EQUATION_RTOL):
            problems.append(f"beta={beta!r}: index {math.sqrt(eps_p * mu_p)!r} != {index!r}")
    return problems


def _check_expand(op, rows) -> list[str]:
    if len(rows) != 5:
        return [f"expected 5 rows (default beta grid), got {len(rows)}"]
    problems = []
    for row in rows:
        lo, hi = SLOPE_WINDOW
        if row["identically_zero"] is not False:
            problems.append("residuals flagged identically zero")
        if not lo <= row["slope"] <= hi:
            problems.append(f"slope {row['slope']!r} outside [{lo}, {hi}]")
    return problems


def _check_classical_velocity(op, rows) -> list[str]:
    """Compare with the paper's equation evaluated term by term:

    rho0 v = (1/4 pi mu c) [ (eps mu - 1) E x B + E x (chi^T E) - B x (chi B) ]
             - (1/4 pi mu c) (n - 1/n) (B . chi^T E) zhat
    """
    if len(rows) != 1:
        return [f"expected 1 row, got {len(rows)}"]
    row = rows[0]
    m = op.config["material"]
    E, B = op.config["fields"]["E"], op.config["fields"]["B"]
    chi = m["chi"]
    pref = 1.0 / (4.0 * math.pi * m["mu"] * C_LIGHT)
    n = math.sqrt(m["epsilon"] * m["mu"])
    am = [pref * (m["epsilon"] * m["mu"] - 1.0) * x for x in _cross(E, B)]
    chi_e = [pref * x for x in _cross(E, _apply(chi, E, transpose=True))]
    chi_b = [-pref * x for x in _cross(B, _apply(chi, B))]
    bce = sum(b * x for b, x in zip(B, _apply(chi, E, transpose=True)))
    mu_z = -pref * (n - 1.0 / n) * bce
    rhs = [a + e + b for a, e, b in zip(am, chi_e, chi_b)]
    rhs[2] += mu_z
    scale = max(abs(x) for x in am + chi_e + chi_b + [mu_z])
    want = {"mu_term_z": mu_z}
    for i, axis in enumerate("xyz"):
        want[f"am_{axis}"] = am[i]
        want[f"chi_E_{axis}"] = chi_e[i]
        want[f"chi_B_{axis}"] = chi_b[i]
        want[f"v_{axis}"] = rhs[i] / m["rho0"]
    problems = []
    for name, value in want.items():
        s = scale / m["rho0"] if name.startswith("v_") else scale
        if not _close(row[name], value, EQUATION_RTOL, s):
            problems.append(f"{name} {row[name]!r} != {value!r}")
    residual = math.hypot(row["v_x"], row["v_y"])
    if not _close(row["transverse_residual"], residual, EQUATION_RTOL, scale / m["rho0"]):
        problems.append(f"transverse_residual {row['transverse_residual']!r} != {residual!r}")
    return problems


_CHECKS = {
    "vacuum-velocity": _check_vacuum_velocity,
    "cutoff-chain": _check_vacuum_sweep,
    "grid-sweep": _check_vacuum_sweep,
    "transform": _check_transform,
    "expand-check": _check_expand,
    "velocity": _check_classical_velocity,
}


def check(op, code, stdout: str) -> list[str]:
    """Problems with one op's exit code and stdout; empty when correct."""
    if code != op.expect:
        return [f"exit code {code!r}, expected {op.expect}"]
    if op.expect != 0:
        return [] if stdout == "" else ["rejected op wrote to stdout"]
    try:
        rows = _rows(stdout, _fmt(op))
        return _CHECKS[op.kind](op, rows)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


# Golden sums from tests/test_vacuum.py (test_regression_sums_trivial_medium
# and test_golden_sums_coupled_medium), compared at the same rel_tol.
GOLDEN_RTOL = 1e-12
GOLDEN_CUTOFF = 1e5


def golden_problems() -> list[str]:
    """Compare the library's vacuum sums with the recorded golden values."""
    from vacmom import Mat3, Material, Vec3, build_mode_set, vacuum_bilinears

    zero = Vec3(0.0, 0.0, 0.0)
    problems = []

    def exact(label, got, want):
        if got != want:
            problems.append(f"{label}: got {got!r}, golden {want!r}")

    def close(label, got, want):
        if not math.isclose(got, want, rel_tol=GOLDEN_RTOL):
            problems.append(f"{label}: got {got!r}, golden {want!r}")

    empty = Material(1.0, 1.0, Mat3.zero(), 1.0)
    bs = vacuum_bilinears(build_mode_set(empty, 16, GOLDEN_CUTOFF, 1.0), empty)
    exact("M_EMPTY grid 16 mode_count", bs.mode_count, 4352)
    close("M_EMPTY grid 16 zero_point_energy", bs.zero_point_energy, 5.18501083524518e-09)
    close("M_EMPTY grid 16 abs_e_cross_b", bs.abs_e_cross_b, 6.515676779515894e-08)
    exact("M_EMPTY grid 16 e_cross_b", bs.e_cross_b, zero)
    exact("M_EMPTY grid 16 b_dot_chiT_e", bs.b_dot_chiT_e, 0.0)
    exact("M_EMPTY grid 16 e_cross_chiT_e", bs.e_cross_chiT_e, zero)
    exact("M_EMPTY grid 16 b_cross_chi_b", bs.b_cross_chi_b, zero)

    chi = Mat3(0.0, 1e-4, 0.0, -1e-4, 0.0, 0.0, 0.0, 0.0, 0.0)
    coupled = Material(2.25, 1.0, chi, 1.0)
    bs = vacuum_bilinears(build_mode_set(coupled, 8, GOLDEN_CUTOFF, 1.0), coupled)
    exact("M_COUPLED grid 8 mode_count", bs.mode_count, 560)
    exact("M_COUPLED grid 8 e_cross_chiT_e.x", bs.e_cross_chiT_e.x, 0.0)
    exact("M_COUPLED grid 8 e_cross_chiT_e.y", bs.e_cross_chiT_e.y, 0.0)
    close("M_COUPLED grid 8 e_cross_chiT_e.z", bs.e_cross_chiT_e.z, 3.755546429640758e-13)
    exact("M_COUPLED grid 8 b_cross_chi_b.x", bs.b_cross_chi_b.x, 0.0)
    exact("M_COUPLED grid 8 b_cross_chi_b.y", bs.b_cross_chi_b.y, 0.0)
    close("M_COUPLED grid 8 b_cross_chi_b.z", bs.b_cross_chi_b.z, -8.449979466691705e-13)
    close("M_COUPLED grid 8 abs_b_dot_chiT_e", bs.abs_b_dot_chiT_e, 4.250994131694042e-13)
    exact("M_COUPLED grid 8 e_cross_b", bs.e_cross_b, zero)
    exact("M_COUPLED grid 8 b_dot_chiT_e", bs.b_dot_chiT_e, 0.0)
    return problems
