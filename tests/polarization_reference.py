"""Explicit references for the vacuum bilinear sums.

The library sums each bilinear per wavevector in closed form, over one
orbit of +/-k pairs per entry of a ModeSet. This module keeps two
references that walk every wavevector one by one:

- reference_bilinears, the direct construction the closed forms
  replace: two transverse unit polarizations per wavevector, per-mode
  fields E = a e and B = n a (khat x e) with a = sqrt(2 pi hbar omega / V),
  and every bilinear summed over the two modes, at k and -k of every
  pair of a ModeSet;
- full_grid_closed_form, the closed forms of all 15 channels evaluated
  at every wavevector of a grid built here by cell_centres, and reduced
  with math.fsum, which the library's sums must equal bit for bit.

pairs gives the wavevectors of a ModeSet in rad/cm, its entries times
its step.
"""

import math
from array import array
from dataclasses import dataclass

from conftest import XHAT, add, norm, scale, transpose
from vacmom import BilinearSums, Material, ModeSet, Vec3, ZHAT, cross, dot, mat_apply
from vacmom.constants import C_LIGHT, HBAR


@dataclass(frozen=True)
class Mode:
    khat: Vec3
    polarization: Vec3
    amplitude: float
    E: Vec3
    B: Vec3


def polarization_pair(khat: Vec3, theta: float = 0.0) -> tuple[Vec3, Vec3]:
    """Two unit vectors transverse to khat and to each other.

    They are built from the reference axis z, or x when khat is within
    about 25 degrees of z, then rotated by theta about khat.
    """
    ref = ZHAT if abs(khat.z) <= 0.9 else XHAT
    e1 = cross(ref, khat)
    e1 = scale(e1, 1.0 / norm(e1))
    e2 = cross(khat, e1)
    if theta:
        c, s = math.cos(theta), math.sin(theta)
        e1, e2 = add(scale(e1, c), scale(e2, s)), scale(e2, c) - scale(e1, s)
    return e1, e2


def amplitude(kmag: float, m: Material, volume: float) -> float:
    return math.sqrt(2.0 * math.pi * HBAR * (C_LIGHT * kmag / m.index) / volume)


def modes(k, m: Material, volume: float, theta: float = 0.0) -> tuple[Mode, Mode]:
    """The two zero-point modes of wavevector k = (kx, ky, kz)."""
    kvec = Vec3(*k)
    khat = scale(kvec, 1.0 / norm(kvec))
    amp = amplitude(norm(kvec), m, volume)
    return tuple(
        Mode(
            khat,
            e,
            amp,
            scale(e, amp),
            scale(cross(khat, e), m.index * amp),
        )
        for e in polarization_pair(khat, theta)
    )


def wavevector_bilinears(k, m: Material, volume: float, theta: float = 0.0):
    """(E x B, E x chi^T E, B x chi B, B . chi^T E) summed over the modes of k."""
    chi_t = transpose(m.chi)
    exb = exce = bxcb = Vec3(0.0, 0.0, 0.0)
    bce = 0.0
    for mode in modes(k, m, volume, theta):
        e, b = mode.E, mode.B
        exb = add(exb, cross(e, b))
        exce = add(exce, cross(e, mat_apply(chi_t, e)))
        bxcb = add(bxcb, cross(b, mat_apply(m.chi, b)))
        bce = bce + dot(b, mat_apply(chi_t, e))
    return exb, exce, bxcb, bce


def pairs(ms: ModeSet) -> tuple[tuple[float, float, float], ...]:
    """One wavevector per +/-k pair of ms in rad/cm, each pair once."""
    s = ms.step
    return tuple(
        pair
        for x, y, z, count in ms.orbits
        for kx, ky, kz in [(x * s, y * s, z * s)]
        for pair in (
            (kx, ky, kz), (kx, ky, -kz), (kx, -ky, kz), (kx, -ky, -kz)
        )[:count]
    )


def full_grid(ms: ModeSet):
    """Both members k and -k of every pair of ms."""
    for kx, ky, kz in pairs(ms):
        yield kx, ky, kz
        yield -kx, -ky, -kz


def cell_centres(grid_n: int, cutoff: float) -> list[tuple[float, float, float]]:
    """Every wavevector of the grid: the cell centres with 0 < |k| <= cutoff."""
    return _inside(_coords(grid_n, cutoff), cutoff)


def octant_cell_centres(grid_n: int, cutoff: float) -> list[tuple[float, float, float]]:
    """The cell centres of cell_centres with no coordinate above 0.

    The coordinates are symmetric about 0 and hypot reads |k| of each, so
    every cell of cell_centres is one of these up to the signs of its
    coordinates, at an eighth of the cost.
    """
    return _inside(_coords(grid_n, cutoff)[: (grid_n + 1) // 2], cutoff)


def _coords(grid_n: int, cutoff: float) -> list[float]:
    step = 2.0 * cutoff / grid_n
    return [(i + 0.5 - grid_n / 2.0) * step for i in range(grid_n)]


def _inside(coords: list[float], cutoff: float) -> list[tuple[float, float, float]]:
    return [
        (kx, ky, kz)
        for kx in coords
        for ky in coords
        for kz in coords
        if 0.0 < math.hypot(kx, ky, kz) <= cutoff
    ]


def _bilinear_sums(sums, wavevector_count: int) -> BilinearSums:
    return BilinearSums(
        e_cross_b=Vec3(*sums[0:3]),
        e_cross_chiT_e=Vec3(*sums[3:6]),
        b_cross_chi_b=Vec3(*sums[6:9]),
        b_dot_chiT_e=sums[9],
        abs_e_cross_b=sums[10],
        abs_e_cross_chiT_e=sums[11],
        abs_b_cross_chi_b=sums[12],
        abs_b_dot_chiT_e=sums[13],
        mode_count=2 * wavevector_count,
        zero_point_energy=sums[14],
    )


def reference_bilinears(ms: ModeSet, m: Material, theta: float = 0.0) -> BilinearSums:
    """vacuum_bilinears computed mode by mode in an explicit basis."""
    channels = [[] for _ in range(15)]
    wavevectors = list(full_grid(ms))
    for k in wavevectors:
        exb, exce, bxcb, bce = wavevector_bilinears(k, m, ms.volume, theta)
        kmag = norm(Vec3(*k))
        row = (
            *exb.as_tuple(),
            *exce.as_tuple(),
            *bxcb.as_tuple(),
            bce,
            math.hypot(*exb.as_tuple()),
            math.hypot(*exce.as_tuple()),
            math.hypot(*bxcb.as_tuple()),
            abs(bce),
            HBAR * C_LIGHT * kmag / m.index,
        )
        for channel, value in zip(channels, row):
            channel.append(value)
    sums = [math.fsum(channel) for channel in channels]
    return _bilinear_sums(sums, len(wavevectors))


def full_grid_closed_form(grid, m: Material, volume: float) -> BilinearSums:
    """The closed forms of all 15 channels summed over the wavevectors of grid.

    Odd channels are computed and summed like the others, so their
    cancellation over the grid is measured, not assumed.
    """
    n = m.index
    xx, xy, xz, yx, yy, yz, zx, zy, zz = m.chi
    ax, ay, az = yz - zy, zx - xz, xy - yx
    a2_per_k = 2.0 * math.pi * HBAR * C_LIGHT / (n * volume)
    zpe_per_k = HBAR * C_LIGHT / n
    terms = array("d")
    for kx, ky, kz in grid:
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
    return _bilinear_sums([math.fsum(terms[i::15]) for i in range(15)], len(grid))
