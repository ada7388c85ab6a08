"""Zero-point plane-wave sums of the velocity-equation field bilinears.

Wavevectors live on a cell-centered Cartesian grid: grid_n cells per
axis tile [-cutoff, cutoff], each cell contributing its center, and the
result is filtered to the sharp sphere |k| <= cutoff with k = 0 excluded.
Cell centers come in exact +/-k floating point pairs, which the
cancellation diagnostics rely on.

Each retained k stands for two transverse polarization modes with
in-medium frequency omega = c |k| / n and zero-point amplitude a, where

    a^2 = 2 pi hbar omega / V = 2 pi hbar c |k| / (n V).

Cycle averaging of the real fields is absorbed into that amplitude, so
per polarization e the fields are E = a e and B = n a (khat x e).
Summed over both polarizations, e e^T is the transverse projector
I - khat khat^T whatever basis is chosen, so no basis is built: each
bilinear has a closed form per wavevector. With ax(chi) =
(chi_yz - chi_zy, chi_zx - chi_xz, chi_xy - chi_yx),

    E x B         =  2 n a^2 khat
    E x (chi^T E) =  a^2 (ax(chi) - khat x chi^T khat)
    B x (chi B)   = -n^2 a^2 (ax(chi) + khat x chi khat)
    B . chi^T E   =  n a^2 khat . ax(chi)

Every channel is reduced with math.fsum, which is exactly rounded, so
the sums do not depend on the order of the wavevectors and the terms of
a +/-k pair that are exact negations cancel to exactly 0.0.

Alongside the four signed sums we track per-wavevector magnitude
channels (sum over k of |per-k polarization-summed bilinear|). The
signed sums of odd-in-k quantities cancel over the symmetric grid by
construction; the magnitude channels are what grows with the cutoff and
what the scaling diagnostics fit.
"""

from __future__ import annotations

import math
import statistics
from array import array
from dataclasses import dataclass

from .algebra import Material, Vec3
from .constants import C_LIGHT, HBAR
from .errors import EmptyModeSet

MAGNITUDE_CHANNELS = (
    "abs_e_cross_b",
    "abs_e_cross_chiT_e",
    "abs_b_cross_chi_b",
    "abs_b_dot_chiT_e",
)


@dataclass(frozen=True, slots=True)
class ModeSet:
    """Wavevectors (kx, ky, kz) in rad/cm, each carrying two modes."""

    wavevectors: tuple[tuple[float, float, float], ...]
    cutoff: float
    volume: float
    grid_n: int

    @property
    def mode_count(self) -> int:
        return 2 * len(self.wavevectors)


@dataclass(frozen=True, slots=True)
class BilinearSums:
    """Vacuum-summed field bilinears over a mode set.

    e_cross_b, e_cross_chiT_e, b_cross_chi_b, b_dot_chiT_e are the
    signed sums entering the velocity equation. The abs_* fields are the
    per-wavevector magnitude channels described in the module docstring.
    zero_point_energy is sum hbar omega / 2 over modes, in erg.
    """

    e_cross_b: Vec3
    e_cross_chiT_e: Vec3
    b_cross_chi_b: Vec3
    b_dot_chiT_e: float
    abs_e_cross_b: float
    abs_e_cross_chiT_e: float
    abs_b_cross_chi_b: float
    abs_b_dot_chiT_e: float
    mode_count: int
    zero_point_energy: float


def build_mode_set(m: Material, grid_n: int, cutoff: float, volume: float) -> ModeSet:
    """Discretize the zero-point field below the cutoff.

    grid_n >= 2 cells per axis; cutoff in rad/cm; volume in cm^3. The
    grid itself does not depend on the material m.
    Raises EmptyModeSet if the spherical filter removes everything.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n!r}")
    if not cutoff > 0.0:
        raise ValueError(f"cutoff must be > 0, got {cutoff!r}")
    if not volume > 0.0:
        raise ValueError(f"volume must be > 0, got {volume!r}")

    step = 2.0 * cutoff / grid_n
    # cell centers; the +/- symmetry is exact because i + 0.5 - grid_n/2
    # is an exact multiple of 0.5 and IEEE negation commutes with the
    # final multiply
    coords = [(i + 0.5 - grid_n / 2.0) * step for i in range(grid_n)]
    # hypot neither underflows nor overflows where k.k would
    wavevectors = tuple(
        (kx, ky, kz)
        for kx in coords
        for ky in coords
        for kz in coords
        if 0.0 < math.hypot(kx, ky, kz) <= cutoff
    )
    if not wavevectors:
        raise EmptyModeSet(
            f"no modes survive cutoff={cutoff!r} with grid_n={grid_n!r}"
        )
    return ModeSet(wavevectors, cutoff, volume, grid_n)


# per wavevector: e_cross_b (3), e_cross_chiT_e (3), b_cross_chi_b (3),
# b_dot_chiT_e, the four magnitude channels and hbar c |k| / n
_CHANNELS = 15


def vacuum_bilinears(ms: ModeSet, m: Material) -> BilinearSums:
    """Sum the velocity-equation bilinears over all zero-point modes."""
    if not ms.wavevectors:
        raise EmptyModeSet("mode set is empty")
    n = m.index
    (xx, xy, xz), (yx, yy, yz), (zx, zy, zz) = m.chi.rows()
    ax, ay, az = yz - zy, zx - xz, xy - yx
    a2_per_k = 2.0 * math.pi * HBAR * C_LIGHT / (n * ms.volume)
    zpe_per_k = HBAR * C_LIGHT / n

    # the channels of each wavevector, interleaved in the order above
    terms = array("d")
    for kx, ky, kz in ms.wavevectors:
        k = math.hypot(kx, ky, kz)
        ux, uy, uz = kx / k, ky / k, kz / k
        a2 = a2_per_k * k
        # chi^T khat and chi khat
        tx = xx * ux + yx * uy + zx * uz
        ty = xy * ux + yy * uy + zy * uz
        tz = xz * ux + yz * uy + zz * uz
        sx = xx * ux + xy * uy + xz * uz
        sy = yx * ux + yy * uy + yz * uz
        sz = zx * ux + zy * uy + zz * uz
        two_na2 = 2.0 * n * a2
        exb = (two_na2 * ux, two_na2 * uy, two_na2 * uz)
        exce = (
            a2 * (ax - (uy * tz - uz * ty)),
            a2 * (ay - (uz * tx - ux * tz)),
            a2 * (az - (ux * ty - uy * tx)),
        )
        minus_n2a2 = -n * n * a2
        bxcb = (
            minus_n2a2 * (ax + (uy * sz - uz * sy)),
            minus_n2a2 * (ay + (uz * sx - ux * sz)),
            minus_n2a2 * (az + (ux * sy - uy * sx)),
        )
        bce = n * a2 * (ux * ax + uy * ay + uz * az)
        terms.extend((
            *exb, *exce, *bxcb, bce,
            math.hypot(*exb), math.hypot(*exce), math.hypot(*bxcb), abs(bce),
            zpe_per_k * k,
        ))

    sums = [math.fsum(terms[i::_CHANNELS]) for i in range(_CHANNELS)]
    return BilinearSums(
        e_cross_b=Vec3(*sums[0:3]),
        e_cross_chiT_e=Vec3(*sums[3:6]),
        b_cross_chi_b=Vec3(*sums[6:9]),
        b_dot_chiT_e=sums[9],
        abs_e_cross_b=sums[10],
        abs_e_cross_chiT_e=sums[11],
        abs_b_cross_chi_b=sums[12],
        abs_b_dot_chiT_e=sums[13],
        mode_count=ms.mode_count,
        zero_point_energy=sums[14],
    )


def cutoff_sweep(m: Material, grid_n: int, cutoffs, volume: float):
    """Bilinear sums across a range of cutoffs at fixed k-space resolution.

    The grid is scaled proportionally with the cutoff (constant cell
    size in k space), so the sweep probes the ultraviolet growth rather
    than discretization changes. Returns a list of (cutoff, BilinearSums).
    """
    cuts = [float(c) for c in cutoffs]
    if not cuts:
        raise ValueError("cutoffs must be nonempty")
    if any(c <= 0.0 for c in cuts):
        raise ValueError("cutoffs must be > 0")
    if any(c2 <= c1 for c1, c2 in zip(cuts, cuts[1:])):
        raise ValueError("cutoffs must be sorted ascending")
    base = cuts[0]
    out = []
    for c in cuts:
        scaled_n = max(2, round(grid_n * c / base))
        ms = build_mode_set(m, scaled_n, c, volume)
        out.append((c, vacuum_bilinears(ms, m)))
    return out


def scaling_slopes(sweep) -> dict[str, float]:
    """Log-log growth exponents of each magnitude channel over a sweep.

    Takes the output of cutoff_sweep. Channels that are zero somewhere
    (or with fewer than two usable points) get nan.
    """
    slopes: dict[str, float] = {}
    for name in MAGNITUDE_CHANNELS:
        pts = [
            (math.log(c), math.log(getattr(s, name)))
            for c, s in sweep
            if getattr(s, name) > 0.0
        ]
        if len(pts) < 2:
            slopes[name] = float("nan")
            continue
        slope, _ = statistics.linear_regression(
            [p[0] for p in pts], [p[1] for p in pts]
        )
        slopes[name] = slope
    return slopes
