"""Zero-point plane-wave sums of the velocity-equation field bilinears.

Wavevectors live on a cell-centered Cartesian grid: grid_n cells per
axis tile [-cutoff, cutoff], each cell contributing its center, and the
result is filtered to the sharp sphere |k| <= cutoff with k = 0 excluded.
Cell centers come in exact +/-k floating point pairs, and each pair
stands for four modes. The reflections ky -> -ky and kz -> -kz map the
pairs onto each other in orbits of four, and a ModeSet keeps one entry
per orbit: the cell whose coordinates are all negative. Only the
middle planes of an odd grid, where a coordinate is zero, hold smaller
orbits: flipping 0.0 gives -0.0, the same pair again, so such a pair
is summed once, and an entry there stands for two pairs or one.

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
summed over one member of each pair with math.fsum and doubled. fsum
is exactly rounded and doubling is exact short of overflow, so this is
bit for bit the fsum over the whole grid, whatever the order of the
terms. The doubling is applied to the sum and never to a factor of the
terms, which would round differently where they are subnormal.

The pairs of an orbit share |k|, a^2 and, up to sign, khat and every
product of chi with khat, so the sum computes these once per orbit
and forms the terms of its pairs from them. Each term is still the
IEEE result of the closed form at that pair's own signed khat:
math.hypot takes |x| of each coordinate, so all pairs of an orbit get
the same |k| (and the cutoff filter keeps or drops an orbit whole);
negation commutes exactly with * and /, so the products at a negated
component are the negated products; and p + (-q) is exactly p - q. A
value that is the same on all pairs of an orbit, |E x B| or
hbar c |k| / n, is entered once per pair, never as a multiple of
itself, so every channel holds exactly the terms of a pair-by-pair sum.

Alongside the four signed sums we track per-wavevector magnitude
channels (sum over k of |per-k polarization-summed bilinear|). These
are what grows with the cutoff and what the scaling diagnostics fit.
The velocity equation reads only the signed sums, so a caller can ask
for those alone and skip the magnitudes and the zero-point energy.
A sum that leaves the float range raises NonFiniteResult.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, product
from struct import Struct

from .algebra import ZERO3, Material, Vec3, fit_loglog_slope
from .constants import C_LIGHT, HBAR
from .errors import EmptyModeSet, NonFiniteResult

# The largest grid_n any vacuum command builds. A grid holds about
# (pi/12) grid_n^3 +/-k pairs in a quarter as many orbits. grid_n 96,
# the finest grid of the convergence study, gives 231,700 pairs in
# 57,925 orbits, built and summed with every channel in 0.35-0.45 s at
# a peak RSS of 40 MB on a 2-vCPU Xeon; grid_n 128 gives about 550,000
# pairs.
# Larger requests, such as a cutoff sweep whose scaled grid outgrows
# this, are rejected before any grid is built.
MAX_GRID_N = 128

MAGNITUDE_CHANNELS = (
    "abs_e_cross_b",
    "abs_e_cross_chiT_e",
    "abs_b_cross_chi_b",
    "abs_b_dot_chiT_e",
)


class ModeSet(namedtuple("ModeSet", "orbits cutoff volume grid_n")):
    """The wavevectors (kx, ky, kz) in rad/cm of a grid, grouped in orbits.

    An entry (kx, ky, kz, count) of orbits stands for the first count of
    the +/-k pairs (kx, ky, kz), (kx, ky, -kz), (kx, -ky, kz) and
    (kx, -ky, -kz), and each pair for k and -k, two polarization modes
    each. A ModeSet therefore counts four modes per pair. The sums
    treat any entry this way, whether or not build_mode_set made it.
    orbits is a tuple of such entries.
    """

    __slots__ = ()

    @property
    def mode_count(self) -> int:
        return 4 * sum(orbit[3] for orbit in self.orbits)


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

    # the one rounding of 2 cutoff / grid_n: grid_n / 2 is exact, and
    # unlike 2.0 * cutoff the quotient cannot overflow
    half = grid_n / 2.0
    step = cutoff / half
    # cell centers; the +/- symmetry is exact because i + 0.5 - grid_n/2
    # is an exact multiple of 0.5 and IEEE negation commutes with the
    # final multiply
    coords = [(i + 0.5 - half) * step for i in range(grid_n)]
    # coords[grid_n - 1 - i] == -coords[i]; mid is the zero coordinate
    # of an odd grid, and flipping it gives the same pair again
    neg = coords[: grid_n // 2]
    mid = coords[grid_n // 2 : (grid_n + 1) // 2]
    candidates = (
        # no coordinate zero: four pairs
        (4, product(neg, neg, neg)),
        # ky zero, or kx zero, where the ky flip of a pair is the
        # negation of its kz flip: two pairs, by the kz flip
        (2, chain(product(neg, mid, neg), product(mid, neg, neg))),
        # kz zero, where only the ky flip gives a second pair: both
        # signs of ky as entries of their own; and the three axes
        (
            1,
            chain(
                product(neg, coords, mid),
                product(mid, neg, mid),
                product(mid, mid, neg),
            ),
        ),
    )
    # hypot neither underflows nor overflows where k.k would, and it
    # takes |x| of each coordinate, so an orbit passes or fails as one
    orbits = tuple(
        (kx, ky, kz, count)
        for count, cells in candidates
        for kx, ky, kz in cells
        if 0.0 < math.hypot(kx, ky, kz) <= cutoff
    )
    if not orbits:
        raise EmptyModeSet(
            f"no modes survive cutoff={cutoff!r} with grid_n={grid_n!r}"
        )
    return ModeSet(orbits, cutoff, volume, grid_n)


def vacuum_bilinears(
    ms: ModeSet, m: Material, *, magnitudes: bool = True
) -> BilinearSums:
    """Sum the velocity-equation bilinears over all zero-point modes.

    magnitudes=False computes only the signed sums, which are all the
    velocity equation reads; the abs_* fields and zero_point_energy are
    then None. The signed sums are bit for bit those of the default call.
    Raises NonFiniteResult if a computed sum leaves the float range, or
    if n V underflows to 0, which leaves the amplitude undefined.
    """
    if not ms.orbits:
        raise EmptyModeSet("mode set is empty")
    n = m.index
    n_volume = n * ms.volume
    if n_volume == 0.0:
        raise NonFiniteResult(
            "the zero-point amplitude is undefined: n * volume underflows to 0"
            f" at epsilon={m.epsilon!r}, mu={m.mu!r}, volume={ms.volume!r}"
        )
    (xx, xy, xz), (yx, yy, yz), (zx, zy, zz) = m.chi.rows()
    ax, ay, az = yz - zy, zx - xz, xy - yx
    a2_per_k = 2.0 * math.pi * HBAR * C_LIGHT / n_volume
    zpe_per_k = HBAR * C_LIGHT / n
    minus_n2 = -n * n
    two_n = 2.0 * n
    hypot = math.hypot

    # one record of terms per pair, and the four records of an orbit
    # packed at once: e_cross_chiT_e (3), b_cross_chi_b (3) and, with
    # magnitudes, the four magnitude channels and hbar c |k| / n
    width = 11 if magnitudes else 6
    pack = Struct(f"{4 * width}d").pack
    records = bytearray()
    for kx, ky, kz, count in ms.orbits:
        k = hypot(kx, ky, kz)
        ux, uy, uz = kx / k, ky / k, kz / k
        vy, vz = -uy, -uz
        a2 = a2_per_k * k
        # t = chi^T khat and s = chi khat at the members 1 to 4, whose
        # khat is (ux, uy, uz), (ux, uy, vz), (ux, vy, uz), (ux, vy, vz):
        # each component is p + q + r at member 1, the others negate r,
        # q or both, and p + (-q) is bit for bit p - q
        p, q, r = xx * ux, yx * uy, zx * uz
        f, g = p + q, p - q
        t1x, t2x = f + r, f - r
        t3x, t4x = g + r, g - r
        p, q, r = xy * ux, yy * uy, zy * uz
        f, g = p + q, p - q
        t1y, t2y = f + r, f - r
        t3y, t4y = g + r, g - r
        p, q, r = xz * ux, yz * uy, zz * uz
        f, g = p + q, p - q
        t1z, t2z = f + r, f - r
        t3z, t4z = g + r, g - r
        p, q, r = xx * ux, xy * uy, xz * uz
        f, g = p + q, p - q
        s1x, s2x = f + r, f - r
        s3x, s4x = g + r, g - r
        p, q, r = yx * ux, yy * uy, yz * uz
        f, g = p + q, p - q
        s1y, s2y = f + r, f - r
        s3y, s4y = g + r, g - r
        p, q, r = zx * ux, zy * uy, zz * uz
        f, g = p + q, p - q
        s1z, s2z = f + r, f - r
        s3z, s4z = g + r, g - r
        e1x = a2 * (ax - (uy * t1z - uz * t1y))
        e1y = a2 * (ay - (uz * t1x - ux * t1z))
        e1z = a2 * (az - (ux * t1y - uy * t1x))
        e2x = a2 * (ax - (uy * t2z - vz * t2y))
        e2y = a2 * (ay - (vz * t2x - ux * t2z))
        e2z = a2 * (az - (ux * t2y - uy * t2x))
        e3x = a2 * (ax - (vy * t3z - uz * t3y))
        e3y = a2 * (ay - (uz * t3x - ux * t3z))
        e3z = a2 * (az - (ux * t3y - vy * t3x))
        e4x = a2 * (ax - (vy * t4z - vz * t4y))
        e4y = a2 * (ay - (vz * t4x - ux * t4z))
        e4z = a2 * (az - (ux * t4y - vy * t4x))
        minus_n2a2 = minus_n2 * a2
        b1x = minus_n2a2 * (ax + (uy * s1z - uz * s1y))
        b1y = minus_n2a2 * (ay + (uz * s1x - ux * s1z))
        b1z = minus_n2a2 * (az + (ux * s1y - uy * s1x))
        b2x = minus_n2a2 * (ax + (uy * s2z - vz * s2y))
        b2y = minus_n2a2 * (ay + (vz * s2x - ux * s2z))
        b2z = minus_n2a2 * (az + (ux * s2y - uy * s2x))
        b3x = minus_n2a2 * (ax + (vy * s3z - uz * s3y))
        b3y = minus_n2a2 * (ay + (uz * s3x - ux * s3z))
        b3z = minus_n2a2 * (az + (ux * s3y - vy * s3x))
        b4x = minus_n2a2 * (ax + (vy * s4z - vz * s4y))
        b4y = minus_n2a2 * (ay + (vz * s4x - ux * s4z))
        b4z = minus_n2a2 * (az + (ux * s4y - vy * s4x))
        if magnitudes:
            # |E x B| and hbar c |k| / n are the same on all four members
            # (hypot takes |x|) and go into every record as they are
            two_na2 = two_n * a2
            exb = hypot(two_na2 * ux, two_na2 * uy, two_na2 * uz)
            zpe = zpe_per_k * k
            na2 = n * a2
            p, q, r = ux * ax, uy * ay, uz * az
            f, g = p + q, p - q
            records += pack(
                e1x, e1y, e1z, b1x, b1y, b1z, exb, hypot(e1x, e1y, e1z),
                hypot(b1x, b1y, b1z), abs(na2 * (f + r)), zpe,
                e2x, e2y, e2z, b2x, b2y, b2z, exb, hypot(e2x, e2y, e2z),
                hypot(b2x, b2y, b2z), abs(na2 * (f - r)), zpe,
                e3x, e3y, e3z, b3x, b3y, b3z, exb, hypot(e3x, e3y, e3z),
                hypot(b3x, b3y, b3z), abs(na2 * (g + r)), zpe,
                e4x, e4y, e4z, b4x, b4y, b4z, exb, hypot(e4x, e4y, e4z),
                hypot(b4x, b4y, b4z), abs(na2 * (g - r)), zpe,
            )
        else:
            records += pack(
                e1x, e1y, e1z, b1x, b1y, b1z,
                e2x, e2y, e2z, b2x, b2y, b2z,
                e3x, e3y, e3z, b3x, b3y, b3z,
                e4x, e4y, e4z, b4x, b4y, b4z,
            )
        if count < 4:
            # keep the records of the orbit's count distinct pairs
            del records[8 * width * (count - 4) :]

    # the odd channels are exactly 0 whatever the size of their terms;
    # with magnitudes, a non-finite odd term also makes its magnitude
    # channel non-finite, so the checks below cover every channel computed
    overflow = (
        f"zero-point sums leave the float range at cutoff={ms.cutoff!r},"
        f" volume={ms.volume!r}"
    )
    terms = memoryview(records).cast("d")
    try:
        sums = [2.0 * math.fsum(terms[i::width]) for i in range(width)]
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

    Takes the output of cutoff_sweep. A channel gets nan where its
    slope is undefined: fewer than two cutoffs where it is nonzero, or
    only one distinct cutoff among them.
    """
    cutoffs = [c for c, _ in sweep]
    slopes: dict[str, float] = {}
    for name in MAGNITUDE_CHANNELS:
        slope = fit_loglog_slope(cutoffs, [getattr(s, name) for _, s in sweep])
        slopes[name] = math.nan if slope is None else slope
    return slopes
