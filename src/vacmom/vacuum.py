"""Zero-point plane-wave sums of the velocity-equation field bilinears.

Wavevectors live on a cell-centered Cartesian grid: grid_n cells per
axis tile [-cutoff, cutoff], each cell contributing its center, and the
result is filtered to the sharp sphere |k| <= cutoff with k = 0 excluded.
Cell centers come in exact +/-k floating point pairs, and a ModeSet
keeps one wavevector per pair: the member whose first nonzero
coordinate is negative. Each pair stands for four modes.

Each wavevector carries two transverse polarization modes with
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

E x B and B . chi^T E are odd in k. The terms of a pair are exact
negations, so over the grid they sum to exactly 0.0, and the library
returns 0.0 for them without computing any term. Every other channel,
the two chi cross products, the magnitudes below and the zero-point
energy, is even in k: its terms at k and -k are bitwise equal. It is
summed over the kept wavevectors with math.fsum and doubled. fsum is
exactly rounded and doubling is exact short of overflow, so this is
bit for bit the fsum over the whole grid, whatever the order of the
wavevectors. The doubling is applied to the sum and never to a factor
of the terms, which would round differently where they are subnormal.

Alongside the four signed sums we track per-wavevector magnitude
channels (sum over k of |per-k polarization-summed bilinear|). These
are what grows with the cutoff and what the scaling diagnostics fit.
The velocity equation reads only the signed sums, so a caller can ask
for those alone and skip the magnitudes and the zero-point energy.
A sum that leaves the float range raises NonFiniteResult.
"""

from __future__ import annotations

import math
import statistics
from array import array
from dataclasses import dataclass
from itertools import chain, product

from .algebra import ZERO3, Material, Vec3
from .constants import C_LIGHT, HBAR
from .errors import EmptyModeSet, NonFiniteResult

# The largest grid_n any vacuum command builds. A grid holds about
# (pi/12) grid_n^3 +/-k pairs. grid_n 96, the finest grid of the
# convergence study, gives 231,700 pairs, built and summed in 0.7 s at a
# peak RSS of 52 MB on a 2-vCPU Xeon; grid_n 128 gives about 550,000.
# Larger requests, such as a cutoff sweep whose scaled grid outgrows
# this, are rejected before any grid is built.
MAX_GRID_N = 128

MAGNITUDE_CHANNELS = (
    "abs_e_cross_b",
    "abs_e_cross_chiT_e",
    "abs_b_cross_chi_b",
    "abs_b_dot_chiT_e",
)


@dataclass(frozen=True, slots=True)
class ModeSet:
    """One wavevector (kx, ky, kz) in rad/cm per +/-k pair of the grid.

    Each pair stands for k and -k, two polarization modes each, so a
    ModeSet counts four modes per entry of pairs. build_mode_set keeps
    the member whose first nonzero coordinate is negative; the sums
    treat any entry as standing for itself and its negation.
    """

    pairs: tuple[tuple[float, float, float], ...]
    cutoff: float
    volume: float
    grid_n: int

    @property
    def mode_count(self) -> int:
        return 4 * len(self.pairs)


@dataclass(frozen=True, slots=True)
class BilinearSums:
    """Vacuum-summed field bilinears over a mode set.

    e_cross_b, e_cross_chiT_e, b_cross_chi_b, b_dot_chiT_e are the
    signed sums entering the velocity equation. The abs_* fields are the
    per-wavevector magnitude channels described in the module docstring.
    zero_point_energy is sum hbar omega / 2 over modes, in erg. The abs_*
    fields and zero_point_energy are None when the sum left them out.
    """

    e_cross_b: Vec3
    e_cross_chiT_e: Vec3
    b_cross_chi_b: Vec3
    b_dot_chiT_e: float
    abs_e_cross_b: float | None
    abs_e_cross_chiT_e: float | None
    abs_b_cross_chi_b: float | None
    abs_b_dot_chiT_e: float | None
    mode_count: int
    zero_point_energy: float | None


def build_mode_set(m: Material, grid_n: int, cutoff: float, volume: float) -> ModeSet:
    """Discretize the zero-point field below the cutoff.

    grid_n in [2, MAX_GRID_N] cells per axis; cutoff in rad/cm; volume
    in cm^3. The grid itself does not depend on the material m.
    Raises EmptyModeSet if the spherical filter removes everything.
    """
    if not 2 <= grid_n <= MAX_GRID_N:
        raise ValueError(
            f"grid_n must lie in [2, MAX_GRID_N={MAX_GRID_N}], got {grid_n!r}"
        )
    if not cutoff > 0.0:
        raise ValueError(f"cutoff must be > 0, got {cutoff!r}")
    if not volume > 0.0:
        raise ValueError(f"volume must be > 0, got {volume!r}")

    step = 2.0 * cutoff / grid_n
    # cell centers; the +/- symmetry is exact because i + 0.5 - grid_n/2
    # is an exact multiple of 0.5 and IEEE negation commutes with the
    # final multiply
    coords = [(i + 0.5 - grid_n / 2.0) * step for i in range(grid_n)]
    # coords[grid_n - 1 - i] == -coords[i], so the cells whose first
    # nonzero coordinate is negative hold one member of every pair; mid
    # is the zero coordinate of an odd grid
    neg = coords[: grid_n // 2]
    mid = coords[grid_n // 2 : (grid_n + 1) // 2]
    candidates = chain(
        product(neg, coords, coords),
        product(mid, neg, coords),
        product(mid, mid, neg),
    )
    # hypot neither underflows nor overflows where k.k would
    pairs = tuple(k for k in candidates if 0.0 < math.hypot(*k) <= cutoff)
    if not pairs:
        raise EmptyModeSet(
            f"no modes survive cutoff={cutoff!r} with grid_n={grid_n!r}"
        )
    return ModeSet(pairs, cutoff, volume, grid_n)


def vacuum_bilinears(
    ms: ModeSet, m: Material, *, magnitudes: bool = True
) -> BilinearSums:
    """Sum the velocity-equation bilinears over all zero-point modes.

    magnitudes=False computes only the signed sums, which are all the
    velocity equation reads; the abs_* fields and zero_point_energy are
    then None. The signed sums are bit for bit those of the default call.
    Raises NonFiniteResult if a computed sum leaves the float range.
    """
    if not ms.pairs:
        raise EmptyModeSet("mode set is empty")
    n = m.index
    (xx, xy, xz), (yx, yy, yz), (zx, zy, zz) = m.chi.rows()
    ax, ay, az = yz - zy, zx - xz, xy - yx
    a2_per_k = 2.0 * math.pi * HBAR * C_LIGHT / (n * ms.volume)
    zpe_per_k = HBAR * C_LIGHT / n
    minus_n2 = -n * n
    two_n = 2.0 * n

    # one array per even channel: e_cross_chiT_e (3), b_cross_chi_b (3)
    # and, with magnitudes, the four magnitude channels and hbar c |k| / n
    channels = [array("d") for _ in range(11 if magnitudes else 6)]
    appends = [channel.append for channel in channels]
    put_ex, put_ey, put_ez, put_bx, put_by, put_bz = appends[:6]
    if magnitudes:
        put_abs_exb, put_abs_ex, put_abs_bx, put_abs_bce, put_zpe = appends[6:]
    for kx, ky, kz in ms.pairs:
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
        ex = a2 * (ax - (uy * tz - uz * ty))
        ey = a2 * (ay - (uz * tx - ux * tz))
        ez = a2 * (az - (ux * ty - uy * tx))
        minus_n2a2 = minus_n2 * a2
        bx = minus_n2a2 * (ax + (uy * sz - uz * sy))
        by = minus_n2a2 * (ay + (uz * sx - ux * sz))
        bz = minus_n2a2 * (az + (ux * sy - uy * sx))
        put_ex(ex)
        put_ey(ey)
        put_ez(ez)
        put_bx(bx)
        put_by(by)
        put_bz(bz)
        if magnitudes:
            two_na2 = two_n * a2
            put_abs_exb(math.hypot(two_na2 * ux, two_na2 * uy, two_na2 * uz))
            put_abs_ex(math.hypot(ex, ey, ez))
            put_abs_bx(math.hypot(bx, by, bz))
            put_abs_bce(abs(n * a2 * (ux * ax + uy * ay + uz * az)))
            put_zpe(zpe_per_k * k)

    # the odd channels are exactly 0 whatever the size of their terms;
    # with magnitudes, a non-finite odd term also makes its magnitude
    # channel non-finite, so the checks below cover every channel computed
    overflow = (
        f"zero-point sums leave the float range at cutoff={ms.cutoff!r},"
        f" volume={ms.volume!r}"
    )
    try:
        sums = [2.0 * math.fsum(channel) for channel in channels]
    except (OverflowError, ValueError) as exc:  # overflow, or inf - inf
        raise NonFiniteResult(overflow) from exc
    if not all(map(math.isfinite, sums)):
        raise NonFiniteResult(overflow)
    abs_exb, abs_ex, abs_bx, abs_bce, zpe = sums[6:] if magnitudes else [None] * 5
    return BilinearSums(
        e_cross_b=ZERO3,
        e_cross_chiT_e=Vec3(*sums[0:3]),
        b_cross_chi_b=Vec3(*sums[3:6]),
        b_dot_chiT_e=0.0,
        abs_e_cross_b=abs_exb,
        abs_e_cross_chiT_e=abs_ex,
        abs_b_cross_chi_b=abs_bx,
        abs_b_dot_chiT_e=abs_bce,
        mode_count=ms.mode_count,
        zero_point_energy=zpe,
    )


def cutoff_sweep(m: Material, grid_n: int, cutoffs, volume: float):
    """Bilinear sums across a range of cutoffs at fixed k-space resolution.

    The grid is scaled proportionally with the cutoff (constant cell
    size in k space), so the sweep probes the ultraviolet growth rather
    than discretization changes. Returns a list of (cutoff, BilinearSums).
    Raises ValueError before building any grid if the largest scaled
    grid_n exceeds MAX_GRID_N.
    """
    cuts = [float(c) for c in cutoffs]
    if not cuts:
        raise ValueError("cutoffs must be nonempty")
    if any(c <= 0.0 for c in cuts):
        raise ValueError("cutoffs must be > 0")
    if any(c2 <= c1 for c1, c2 in zip(cuts, cuts[1:])):
        raise ValueError("cutoffs must be sorted ascending")
    base = cuts[0]
    largest = grid_n * cuts[-1] / base
    if not (math.isfinite(largest) and round(largest) <= MAX_GRID_N):
        raise ValueError(
            f"scaled grid size grid_n * {cuts[-1]!r} / {base!r} = {largest!r}"
            f" exceeds MAX_GRID_N={MAX_GRID_N}"
        )
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
