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


# per kept wavevector, the channels that are even in k: e_cross_chiT_e
# (3), b_cross_chi_b (3), the four magnitude channels and hbar c |k| / n
_EVEN_CHANNELS = 11


def vacuum_bilinears(ms: ModeSet, m: Material) -> BilinearSums:
    """Sum the velocity-equation bilinears over all zero-point modes.

    Raises NonFiniteResult if a sum leaves the float range.
    """
    if not ms.pairs:
        raise EmptyModeSet("mode set is empty")
    n = m.index
    (xx, xy, xz), (yx, yy, yz), (zx, zy, zz) = m.chi.rows()
    ax, ay, az = yz - zy, zx - xz, xy - yx
    a2_per_k = 2.0 * math.pi * HBAR * C_LIGHT / (n * ms.volume)
    zpe_per_k = HBAR * C_LIGHT / n

    # the even channels of each kept wavevector, interleaved in the order
    # above
    terms = array("d")
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
        two_na2 = 2.0 * n * a2
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
        terms.extend((
            *exce, *bxcb,
            math.hypot(two_na2 * ux, two_na2 * uy, two_na2 * uz),
            math.hypot(*exce),
            math.hypot(*bxcb),
            abs(n * a2 * (ux * ax + uy * ay + uz * az)),
            zpe_per_k * k,
        ))

    # a non-finite odd term also makes its magnitude channel non-finite,
    # so checking the even sums covers every channel
    overflow = (
        f"zero-point sums leave the float range at cutoff={ms.cutoff!r},"
        f" volume={ms.volume!r}"
    )
    try:
        sums = [
            2.0 * math.fsum(terms[i::_EVEN_CHANNELS])
            for i in range(_EVEN_CHANNELS)
        ]
    except (OverflowError, ValueError) as exc:  # overflow, or inf - inf
        raise NonFiniteResult(overflow) from exc
    if not all(map(math.isfinite, sums)):
        raise NonFiniteResult(overflow)
    return BilinearSums(
        e_cross_b=ZERO3,
        e_cross_chiT_e=Vec3(*sums[0:3]),
        b_cross_chi_b=Vec3(*sums[3:6]),
        b_dot_chiT_e=0.0,
        abs_e_cross_b=sums[6],
        abs_e_cross_chiT_e=sums[7],
        abs_b_cross_chi_b=sums[8],
        abs_b_dot_chiT_e=sums[9],
        mode_count=ms.mode_count,
        zero_point_energy=sums[10],
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
    if not math.isfinite(grid_n * cuts[-1] / base):
        raise ValueError(
            f"grid size grid_n * {cuts[-1]!r} / {base!r} overflows"
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
