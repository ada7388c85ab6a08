"""Zero-point plane-wave sums of the velocity-equation field bilinears.

Wavevectors live on a cell-centered Cartesian grid: grid_n cells per
axis tile [-cutoff, cutoff], each cell contributing its center, and the
result is filtered to the sharp sphere |k| <= cutoff with k = 0 excluded.
grid_n is an int in [2, MAX_GRID_N]: that rule, and why the ceiling is
128, is in algebra, where the config reads it without this module.

A ModeSet holds the cell centers in units of the step 2 cutoff / grid_n,
as the exact multiples of 0.5 x = i + 0.5 - grid_n / 2, and the sums
form each wavevector component as the one rounding x * step. Which
centers pass the filter then depends on grid_n alone wherever x * step
is a normal float. In exact arithmetic |x|^2 is an
integer plus 0.75 on an even grid and an integer on an odd one, while
(grid_n / 2)^2 is an integer or an integer plus 0.25, so no center
lies closer to the sphere than a relative 1 / (8 (grid_n / 2)^2),
at least 3e-5, far beyond the few ulps by which x * step and hypot
round. The filtered lattice is therefore built at step 1 and cutoff
grid_n / 2 and kept: the last one built stays cached, so a process
that sums one grid_n over and over builds it once and holds one
lattice. Where half the step is subnormal, x * step loses bits, and
the lattice is filtered at the actual step and cutoff instead, by the
same test.

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
component are the negated products; and p + (-q) is exactly p - q.
Each pair's signed terms are formed once, and |E x chi^T E| and
|B x chi B| are math.hypot of those same floats, taken in the loop. A
value that is the same on all pairs of an orbit, |E x B| or
hbar c |k| / n, is computed once per orbit and entered once per pair,
never as a multiple, so every channel is the fsum of exactly the terms
a pair-by-pair sum forms.

Alongside the four signed sums we track per-wavevector magnitude
channels (sum over k of |per-k polarization-summed bilinear|). These
are what grows with the cutoff and what the scaling diagnostics fit.
The sums take one of two passes over the orbits. The signed pass
sums the x, y and z components of the chi cross products, all that
the velocity equation reads. The magnitude pass, sweep_sums, sums
what a vacuum-sweep row reads: the magnitudes, the energy and only the
z components of the chi cross products; it never packs or sums an x or
y component. Both form a pair's signed terms by the same statements,
so their z components agree bit for bit. vacuum_bilinears takes the
signed pass, and by default also sweep_sums, whose magnitudes and
energy it returns as they are; magnitudes=False skips the second pass.
A sum that leaves the float range raises NonFiniteResult.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import lru_cache
from itertools import chain, product
from struct import Struct

from .algebra import MAX_GRID_N, ZERO3, Material, Vec3, _check_grid_n, fit_loglog_slope
from .constants import C_LIGHT, HBAR
from .errors import EmptyModeSet, NonFiniteResult

MAGNITUDE_CHANNELS = (
    "abs_e_cross_b",
    "abs_e_cross_chiT_e",
    "abs_b_cross_chi_b",
    "abs_b_dot_chiT_e",
)


class ModeSet(namedtuple("ModeSet", "orbits cutoff volume step")):
    """The wavevectors of a grid in units of step rad/cm, grouped in orbits.

    An entry (x, y, z, count) of orbits stands for the first count of
    the +/-k pairs (x, y, z), (x, y, -z), (x, -y, z) and (x, -y, -z),
    each multiplied by step, and each pair for k and -k, two
    polarization modes each. A ModeSet therefore counts four modes per
    pair. The sums treat any entry with a count from 1 to 4 this way,
    whether or not build_mode_set made it, and reject any other count.
    orbits is a tuple of such entries. A set made by hand in rad/cm
    passes step 1.0, and x * 1.0 is x. build_mode_set's entries are the
    exact cell centers i + 0.5 - grid_n / 2, and at one grid_n every
    set it builds with a normal step shares one orbits tuple, the cached
    lattice of the module docstring.
    """

    __slots__ = ()


class BilinearSums(
    namedtuple(
        "BilinearSums",
        "e_cross_b e_cross_chiT_e b_cross_chi_b b_dot_chiT_e abs_e_cross_b"
        " abs_e_cross_chiT_e abs_b_cross_chi_b abs_b_dot_chiT_e mode_count zero_point_energy",
    )
):
    """Vacuum-summed field bilinears over a mode set.

    e_cross_b, e_cross_chiT_e, b_cross_chi_b (Vec3) and b_dot_chiT_e are
    the signed sums entering the velocity equation. The abs_* fields are
    the per-wavevector magnitude channels described in the module
    docstring, and zero_point_energy is sum hbar omega / 2 over modes,
    in erg: the fields of the same names of sweep_sums(ms, m). The
    abs_* fields and zero_point_energy are None when the sum left them
    out.
    """

    __slots__ = ()


class SweepSums(
    namedtuple(
        "SweepSums",
        "mode_count zero_point_energy e_cross_b_z e_cross_chiT_e_z b_cross_chi_b_z"
        " b_dot_chiT_e abs_e_cross_b abs_e_cross_chiT_e abs_b_cross_chi_b abs_b_dot_chiT_e",
    )
):
    """The vacuum sums one vacuum-sweep row prints, as sweep_sums returns them.

    The fields are the row's columns in order. e_cross_b_z and
    b_dot_chiT_e are the odd channels, exactly 0; e_cross_chiT_e_z and
    b_cross_chi_b_z are the z components of the chi cross products, bit
    for bit those of vacuum_bilinears. The abs_* fields are the
    magnitude channels and zero_point_energy is sum hbar omega / 2 in
    erg: the default vacuum_bilinears takes these five from here.
    """

    __slots__ = ()


def build_mode_set(m: Material, grid_n: int, cutoff: float, volume: float) -> ModeSet:
    """Discretize the zero-point field below the cutoff.

    grid_n an int in [2, MAX_GRID_N] cells per axis; cutoff in rad/cm and
    volume in cm^3, both finite and > 0. The grid itself does not
    depend on the material m.
    Raises EmptyModeSet if the spherical filter removes everything.
    """
    _check_grid_n(grid_n)
    if not 0.0 < cutoff < math.inf:
        raise ValueError(f"cutoff must be finite and > 0, got {cutoff!r}")
    if not 0.0 < volume < math.inf:
        raise ValueError(f"volume must be finite and > 0, got {volume!r}")

    # the one rounding of 2 cutoff / grid_n: grid_n / 2 is exact, and
    # unlike 2.0 * cutoff the quotient cannot overflow
    half = grid_n / 2.0
    step = cutoff / half
    # no nonzero |x * step| is below 0.5 * step: where that is normal,
    # the margin of the module docstring makes the filter exact
    if 0.5 * step >= sys.float_info.min:
        orbits = _lattice(grid_n, 1.0, half)
    else:
        orbits = _lattice(grid_n, step, cutoff)
    if not orbits:
        raise EmptyModeSet(
            f"no modes survive cutoff={cutoff!r} with grid_n={grid_n!r}"
        )
    return ModeSet(orbits, cutoff, volume, step)


@lru_cache(maxsize=1)
def _lattice(grid_n: int, s: float, cutoff: float) -> tuple:
    """The orbit entries of the cell centers x with 0 < |x s| <= cutoff."""
    # cell centers in units of the step, exact multiples of 0.5; the
    # +/- symmetry is exact, and IEEE negation commutes with x * s
    coords = [i + 0.5 - grid_n / 2.0 for i in range(grid_n)]
    # coords[grid_n - 1 - i] == -coords[i]; mid is the zero coordinate
    # of an odd grid, and flipping it gives the same pair again
    neg = coords[: grid_n // 2]
    mid = coords[grid_n // 2 : (grid_n + 1) // 2]
    candidates = (
        # no coordinate zero: four pairs
        (4, product(neg, neg, neg)),
        # y zero, or x zero, where the y flip of a pair is the
        # negation of its z flip: two pairs, by the z flip
        (2, chain(product(neg, mid, neg), product(mid, neg, neg))),
        # z zero, where only the y flip gives a second pair: both
        # signs of y as entries of their own; and the three axes
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
    return tuple(
        (x, y, z, count)
        for count, cells in candidates
        for x, y, z in cells
        if 0.0 < math.hypot(x * s, y * s, z * s) <= cutoff
    )


def vacuum_bilinears(
    ms: ModeSet, m: Material, *, magnitudes: bool = True
) -> BilinearSums:
    """Sum the velocity-equation bilinears over all zero-point modes.

    The signed sums come from one pass. By default the abs_* fields and
    zero_point_energy are those of sweep_sums(ms, m), a second pass;
    magnitudes=False leaves them None and computes only the signed sums,
    which are all the velocity equation reads.
    Raises ValueError if an orbit's count is not 1 to 4, and
    NonFiniteResult if a computed sum leaves the float range, or
    if n V underflows to 0, which leaves the amplitude undefined.
    """
    pairs, sums = _sums(ms, m, True)
    if magnitudes:
        sweep = sweep_sums(ms, m)
        abs_exb, abs_ex = sweep.abs_e_cross_b, sweep.abs_e_cross_chiT_e
        abs_bx, abs_bce = sweep.abs_b_cross_chi_b, sweep.abs_b_dot_chiT_e
        zpe = sweep.zero_point_energy
    else:
        abs_ex = abs_bx = abs_bce = abs_exb = zpe = None
    return BilinearSums(
        e_cross_b=ZERO3,
        e_cross_chiT_e=Vec3(*sums[0:3]),
        b_cross_chi_b=Vec3(*sums[3:6]),
        b_dot_chiT_e=0.0,
        abs_e_cross_b=abs_exb,
        abs_e_cross_chiT_e=abs_ex,
        abs_b_cross_chi_b=abs_bx,
        abs_b_dot_chiT_e=abs_bce,
        mode_count=4 * pairs,
        zero_point_energy=zpe,
    )


def sweep_sums(ms: ModeSet, m: Material) -> SweepSums:
    """The channels of one vacuum-sweep row, summed over all zero-point modes.

    e_cross_chiT_e_z and b_cross_chi_b_z are bit for bit the z
    components of vacuum_bilinears(ms, m); the x and y components are
    neither packed nor summed. Raises what vacuum_bilinears(ms, m)
    raises, with the same message.
    """
    pairs, (ez, bz, abs_ex, abs_bx, abs_bce, abs_exb, zpe) = _sums(ms, m, False)
    return SweepSums(4 * pairs, zpe, 0.0, ez, bz, 0.0, abs_exb, abs_ex, abs_bx, abs_bce)


def _sums(ms: ModeSet, m: Material, signed: bool):
    """One pass over the orbits of ms: the pair count and the doubled sums.

    With signed, the sums are the x, y and z components of E x chi^T E
    and of B x chi B. Without, they are the z components of both,
    |E x chi^T E|, |B x chi B|, |B . chi^T E|, |E x B| and the
    zero-point energy.
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
    xx, xy, xz, yx, yy, yz, zx, zy, zz = m.chi
    ax, ay, az = yz - zy, zx - xz, xy - yx
    a2_per_k = 2.0 * math.pi * HBAR * C_LIGHT / n_volume
    zpe_per_k = HBAR * C_LIGHT / n
    minus_n2 = -n * n
    two_n = 2.0 * n
    hypot = math.hypot

    # one record per pair: with signed, its six signed terms; without,
    # its e_z, b_z, |E x chi^T E|, |B x chi B|, |B . chi^T E|, |E x B|
    # and hbar c |k| / n
    width = 6 if signed else 7
    pack = Struct(f"{4 * width}d").pack
    terms = bytearray()
    step = ms.step
    for x, y, z, count in ms.orbits:
        kx, ky, kz = x * step, y * step, z * step
        k = hypot(kx, ky, kz)
        ux, uy, uz = kx / k, ky / k, kz / k
        vy, vz = -uy, -uz
        a2 = a2_per_k * k
        # t = chi^T khat and s = chi khat at the members 1 to 4, whose
        # khat is (ux, uy, uz), (ux, uy, vz), (ux, vy, uz), (ux, vy, vz):
        # each component is p + q + r at member 1, the others negate r,
        # q or both, and p + (-q) is bit for bit p - q; the diagonal
        # products enter both t and s
        dx, dy, dz = xx * ux, yy * uy, zz * uz
        p, q, r = dx, yx * uy, zx * uz
        f, g = p + q, p - q
        t1x, t2x = f + r, f - r
        t3x, t4x = g + r, g - r
        p, q, r = xy * ux, dy, zy * uz
        f, g = p + q, p - q
        t1y, t2y = f + r, f - r
        t3y, t4y = g + r, g - r
        p, q, r = xz * ux, yz * uy, dz
        f, g = p + q, p - q
        t1z, t2z = f + r, f - r
        t3z, t4z = g + r, g - r
        p, q, r = dx, xy * uy, xz * uz
        f, g = p + q, p - q
        s1x, s2x = f + r, f - r
        s3x, s4x = g + r, g - r
        p, q, r = yx * ux, dy, yz * uz
        f, g = p + q, p - q
        s1y, s2y = f + r, f - r
        s3y, s4y = g + r, g - r
        p, q, r = zx * ux, zy * uy, dz
        f, g = p + q, p - q
        s1z, s2z = f + r, f - r
        s3z, s4z = g + r, g - r
        minus_n2a2 = minus_n2 * a2
        e1x = a2 * (ax - (uy * t1z - uz * t1y))
        e1y = a2 * (ay - (uz * t1x - ux * t1z))
        e1z = a2 * (az - (ux * t1y - uy * t1x))
        b1x = minus_n2a2 * (ax + (uy * s1z - uz * s1y))
        b1y = minus_n2a2 * (ay + (uz * s1x - ux * s1z))
        b1z = minus_n2a2 * (az + (ux * s1y - uy * s1x))
        e2x = a2 * (ax - (uy * t2z - vz * t2y))
        e2y = a2 * (ay - (vz * t2x - ux * t2z))
        e2z = a2 * (az - (ux * t2y - uy * t2x))
        b2x = minus_n2a2 * (ax + (uy * s2z - vz * s2y))
        b2y = minus_n2a2 * (ay + (vz * s2x - ux * s2z))
        b2z = minus_n2a2 * (az + (ux * s2y - uy * s2x))
        e3x = a2 * (ax - (vy * t3z - uz * t3y))
        e3y = a2 * (ay - (uz * t3x - ux * t3z))
        e3z = a2 * (az - (ux * t3y - vy * t3x))
        b3x = minus_n2a2 * (ax + (vy * s3z - uz * s3y))
        b3y = minus_n2a2 * (ay + (uz * s3x - ux * s3z))
        b3z = minus_n2a2 * (az + (ux * s3y - vy * s3x))
        e4x = a2 * (ax - (vy * t4z - vz * t4y))
        e4y = a2 * (ay - (vz * t4x - ux * t4z))
        e4z = a2 * (az - (ux * t4y - vy * t4x))
        b4x = minus_n2a2 * (ax + (vy * s4z - vz * s4y))
        b4y = minus_n2a2 * (ay + (vz * s4x - ux * s4z))
        b4z = minus_n2a2 * (az + (ux * s4y - vy * s4x))
        if signed:
            terms += pack(
                e1x, e1y, e1z, b1x, b1y, b1z, e2x, e2y, e2z, b2x, b2y, b2z,
                e3x, e3y, e3z, b3x, b3y, b3z, e4x, e4y, e4z, b4x, b4y, b4z,
            )
        else:
            # |E x chi^T E| and |B x chi B| are hypot of the pair's own
            # signed terms; |E x B| and hbar c |k| / n are the same on all
            # pairs of the orbit, and each pair enters them once
            na2 = n * a2
            p, q, r = ux * ax, uy * ay, uz * az
            f, g = p + q, p - q
            two_na2 = two_n * a2
            exb = hypot(two_na2 * ux, two_na2 * uy, two_na2 * uz)
            zpe = zpe_per_k * k
            bce1, bce2 = abs(na2 * (f + r)), abs(na2 * (f - r))
            bce3, bce4 = abs(na2 * (g + r)), abs(na2 * (g - r))
            ex1, bx1 = hypot(e1x, e1y, e1z), hypot(b1x, b1y, b1z)
            ex2, bx2 = hypot(e2x, e2y, e2z), hypot(b2x, b2y, b2z)
            ex3, bx3 = hypot(e3x, e3y, e3z), hypot(b3x, b3y, b3z)
            ex4, bx4 = hypot(e4x, e4y, e4z), hypot(b4x, b4y, b4z)
            terms += pack(
                e1z, b1z, ex1, bx1, bce1, exb, zpe,
                e2z, b2z, ex2, bx2, bce2, exb, zpe,
                e3z, b3z, ex3, bx3, bce3, exb, zpe,
                e4z, b4z, ex4, bx4, bce4, exb, zpe,
            )
        if count != 4:
            if not 0 < count < 4:
                raise ValueError(f"orbit count must be 1 to 4, got {(x, y, z, count)!r}")
            # keep the records of the orbit's count distinct pairs
            del terms[8 * width * (count - 4) :]

    # the odd channels are exactly 0 whatever the size of their terms;
    # without signed, a non-finite odd term makes its magnitude channel
    # non-finite, so the checks below cover every channel computed. That
    # pass raises wherever the signed one does: each x or y term is at
    # most its pair's hypot term, so where the x or y sum would overflow,
    # the magnitude sum does too
    overflow = (
        f"zero-point sums leave the float range at cutoff={ms.cutoff!r},"
        f" volume={ms.volume!r}"
    )
    fsum = math.fsum
    terms = memoryview(terms).cast("d")
    try:
        sums = [2.0 * fsum(terms[i::width]) for i in range(width)]
    except (OverflowError, ValueError) as exc:  # overflow, or inf - inf
        raise NonFiniteResult(overflow) from exc
    if not all(map(math.isfinite, sums)):
        raise NonFiniteResult(overflow)
    # one record per pair survives the loop
    return len(terms) // width, sums


def cutoff_sweep(m: Material, grid_n: int, cutoffs, volume: float):
    """Bilinear sums across a range of cutoffs at close to one k-space step.

    Each cutoff c gets round(grid_n * c / cutoffs[0]) cells a side, so
    its step 2 c / size differs from the first cutoff's by at most a
    relative 1 / (2 size), and not at all where grid_n * c / cutoffs[0]
    is an integer: [2e4, 6.3e4, 2e5] at grid_n 8 gives 8, 25 and 80
    cells and steps of 5,000, 5,040 and 5,000 rad/cm. The sweep so
    probes the ultraviolet growth rather than discretization changes.
    Returns a list of (cutoff, SweepSums), each record the sweep_sums of
    that cutoff's mode set.
    Raises ValueError before building any grid if grid_n is not an int
    in [2, MAX_GRID_N], if a cutoff is not finite and > 0, if the
    cutoffs do not ascend, or if the largest scaled grid_n exceeds
    MAX_GRID_N.
    """
    _check_grid_n(grid_n)
    cuts = [float(c) for c in cutoffs]
    if not cuts:
        raise ValueError("cutoffs must be nonempty")
    if not all(0.0 < c < math.inf for c in cuts):
        raise ValueError(f"cutoffs must be finite and > 0, got {cuts!r}")
    if any(c2 <= c1 for c1, c2 in zip(cuts, cuts[1:])):
        raise ValueError("cutoffs must be sorted ascending")
    base = cuts[0]
    # grid_n * c / base settles ties such as 3 * 1.5; divide first only where it overflows
    sizes = [grid_n * c / base if grid_n * c < math.inf else c / base * grid_n for c in cuts]
    if not (math.isfinite(sizes[-1]) and round(sizes[-1]) <= MAX_GRID_N):
        raise ValueError(
            f"scaled grid size grid_n * {cuts[-1]!r} / {base!r} = {sizes[-1]!r}"
            f" exceeds MAX_GRID_N={MAX_GRID_N}"
        )
    # every size is at least grid_n, since no cutoff is below the base
    out = []
    for c, size in zip(cuts, sizes):
        ms = build_mode_set(m, round(size), c, volume)
        out.append((c, sweep_sums(ms, m)))
    return out


def scaling_slopes(sweep) -> dict[str, float]:
    """Log-log growth exponents of each magnitude channel over a sweep.

    Takes the output of cutoff_sweep, or any list of (cutoff, record)
    whose records hold the MAGNITUDE_CHANNELS by name, as SweepSums and
    a default BilinearSums do. A channel gets nan where its
    slope is undefined: fewer than two cutoffs where it is nonzero, or
    only one distinct cutoff among them.
    """
    cutoffs = [c for c, _ in sweep]
    slopes: dict[str, float] = {}
    for name in MAGNITUDE_CHANNELS:
        slope = fit_loglog_slope(cutoffs, [getattr(s, name) for _, s in sweep])
        slopes[name] = math.nan if slope is None else slope
    return slopes
