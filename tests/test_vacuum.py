"""Zero-point mode construction, vacuum bilinear sums, cutoff scaling."""

import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import norm, scale
from polarization_reference import (
    amplitude,
    cell_centres,
    full_grid,
    full_grid_closed_form,
    modes,
    octant_cell_centres,
    pairs,
    reference_bilinears,
)
import vacmom.vacuum as vacuum
from vacmom.constants import C_LIGHT, HBAR
from vacmom import (
    MAGNITUDE_CHANNELS,
    MAX_GRID_N,
    EmptyModeSet,
    Mat3,
    Material,
    ModeSet,
    NonFiniteResult,
    SweepSums,
    Vec3,
    build_mode_set,
    cross,
    cutoff_sweep,
    dot,
    scaling_slopes,
    sweep_sums,
    vacuum_bilinears,
)

CUTOFF = 1e5

M_EMPTY = Material(1.0, 1.0, Mat3.zero(), 1.0)
CHI_G = Mat3(0.0, 1e-4, 0.0, -1e-4, 0.0, 0.0, 0.0, 0.0, 0.0)
M_COUPLED = Material(2.25, 1.0, CHI_G, 1.0)
M_GENERIC = Material(
    2.6, 0.74, Mat3(-0.09, -0.16, -0.38, 0.33, 0.33, -0.25, -0.41, 0.13, -0.3), 1.0
)
# exact zeros of both signs, with ax(chi) = (-0.0, 0.0, 0.75)
M_SIGNED_ZEROS = Material(
    1.7, 0.9, Mat3(0.0, 0.25, -0.0, -0.5, -0.0, -0.0, 0.0, 0.0, 0.75), 1.0
)


def mode_count(ms):
    """The modes a ModeSet stands for: four per +/-k pair, count pairs per entry."""
    return 4 * sum(entry[3] for entry in ms.orbits)


def sweep_channels(bs):
    """The SweepSums that a default BilinearSums holds, field by field."""
    return SweepSums(
        mode_count=bs.mode_count,
        zero_point_energy=bs.zero_point_energy,
        e_cross_b_z=bs.e_cross_b.z,
        e_cross_chiT_e_z=bs.e_cross_chiT_e.z,
        b_cross_chi_b_z=bs.b_cross_chi_b.z,
        b_dot_chiT_e=bs.b_dot_chiT_e,
        abs_e_cross_b=bs.abs_e_cross_b,
        abs_e_cross_chiT_e=bs.abs_e_cross_chiT_e,
        abs_b_cross_chi_b=bs.abs_b_cross_chi_b,
        abs_b_dot_chiT_e=bs.abs_b_dot_chiT_e,
    )


def assert_sums_match(got, want, m, a2):
    """Channel by channel within 1e-12 of the channel's natural scale."""
    chi_scale = a2 * max(map(abs, m.chi))
    for name, scale in (
        ("e_cross_b", a2),
        ("e_cross_chiT_e", chi_scale),
        ("b_cross_chi_b", chi_scale),
    ):
        for g, w in zip(getattr(got, name).as_tuple(), getattr(want, name).as_tuple()):
            assert abs(g - w) <= 1e-12 * scale, name
    for name, scale in (
        ("b_dot_chiT_e", chi_scale),
        ("abs_e_cross_b", a2),
        ("abs_e_cross_chiT_e", chi_scale),
        ("abs_b_cross_chi_b", chi_scale),
        ("abs_b_dot_chiT_e", chi_scale),
    ):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12 * scale, name
    assert got.mode_count == want.mode_count
    assert math.isclose(got.zero_point_energy, want.zero_point_energy, rel_tol=1e-12)


def test_minimal_grid_geometry():
    ms = build_mode_set(M_EMPTY, 2, CUTOFF, 1.0)
    # 8 octant cell centers, all inside the sphere, in 4 +/-k pairs of
    # two polarizations each
    assert len(pairs(ms)) == 4
    assert mode_count(ms) == 16
    kmags = {math.hypot(*k) for k in pairs(ms)}
    assert len(kmags) == 1
    (kmag,) = kmags
    assert math.isclose(kmag, math.sqrt(3.0) / 2.0 * CUTOFF, rel_tol=1e-15)


def test_wavevectors_come_in_exact_opposite_pairs():
    for grid_n in (*range(2, 18), 32, 33):
        ms = build_mode_set(M_COUPLED, grid_n, CUTOFF, 1.0)
        kset = set(pairs(ms))
        # each pair once, however many orbits share a plane
        assert len(kset) == len(pairs(ms))
        negated = {(-kx, -ky, -kz) for kx, ky, kz in kset}
        # no pair holds both k and -k
        assert not kset & negated
        for k in kset:
            first = next(c for c in k if c != 0.0)
            assert first < 0.0
        # the kept members and their negations make up the filtered grid
        grid = cell_centres(grid_n, CUTOFF)
        assert kset | negated == set(grid)
        # two polarization modes per cell
        assert mode_count(ms) == 2 * len(grid)


@settings(max_examples=200, deadline=None)
@given(
    grid_n=st.integers(2, 12),
    # up to half the largest float, above which 2.0 * cutoff overflows
    cutoff=st.floats(5e-324, sys.float_info.max / 2),
)
@example(grid_n=2, cutoff=1e-310)
@example(grid_n=3, cutoff=1e-315)
# a subnormal step at which the one cell's hypot, sqrt(3) * 5e-324,
# rounds to the cutoff itself: a strict filter keeps nothing
@example(grid_n=2, cutoff=1e-323)
@example(grid_n=9, cutoff=2.2250738585072014e-308)
def test_grid_is_the_cell_centres_of_step_2_cutoff_over_grid_n(grid_n, cutoff):
    # the reference steps by 2.0 * cutoff / grid_n, subnormal cutoffs too
    want = cell_centres(grid_n, cutoff)
    if not want:
        with pytest.raises(EmptyModeSet):
            build_mode_set(M_EMPTY, grid_n, cutoff, 1.0)
        return
    got = pairs(build_mode_set(M_EMPTY, grid_n, cutoff, 1.0))
    assert {k for pair in got for k in (pair, tuple(-x for x in pair))} == set(want)
    assert 2 * len(got) == len(want)


@pytest.mark.parametrize("grid_n", [*range(2, 65), 96, 127, 128])
def test_lattice_times_the_step_is_the_float_filtered_grid(grid_n):
    # wherever half the step is normal, the lattice is filtered once at
    # step 1, and its cells times the step must be the cells that the
    # float filter of cell_centres keeps; edge is the smallest cutoff
    # with 0.5 * step = 2**-1022, and the ulps below it reach down to
    # the first cutoff whose halved step rounds below 2**-1022, where
    # the lattice is filtered at the actual step. Compared by the cells
    # with no coordinate above 0, which stand for the grid up to signs.
    half = grid_n / 2.0
    edge = half * 2.0**-1021
    cutoffs = [1.0, 1e300, sys.float_info.max / 2, edge]
    while 0.5 * (cutoffs[-1] / half) >= sys.float_info.min:
        cutoffs.append(math.nextafter(cutoffs[-1], 0.0))
    lattice = build_mode_set(M_EMPTY, grid_n, CUTOFF, 1.0).orbits
    for cutoff in cutoffs:
        ms = build_mode_set(M_EMPTY, grid_n, cutoff, 1.0)
        assert (ms.orbits is lattice) == (cutoff != cutoffs[-1])
        s = ms.step
        got = {(-abs(x * s), -abs(y * s), -abs(z * s)) for x, y, z, _ in ms.orbits}
        want = octant_cell_centres(grid_n, cutoff)
        assert got == set(want)
        # an octant cell with j zero coordinates stands for 2**(3 - j)
        # cells, two modes each
        assert mode_count(ms) == 2 * sum(8 >> k.count(0.0) for k in want)


def test_one_lattice_is_cached_for_the_last_grid_n():
    # the lattice depends on grid_n alone wherever the step is normal
    a = build_mode_set(M_EMPTY, 11, CUTOFF, 1.0)
    b = build_mode_set(M_COUPLED, 11, 3e-7, 2.0)
    assert b.orbits is a.orbits
    assert (a.step, b.step) == (CUTOFF / 5.5, 3e-7 / 5.5)
    # another grid_n replaces it
    build_mode_set(M_EMPTY, 12, CUTOFF, 1.0)
    c = build_mode_set(M_EMPTY, 11, CUTOFF, 1.0)
    assert c.orbits is not a.orbits
    assert c.orbits == a.orbits
    assert vacuum._lattice.cache_info().currsize == 1


@pytest.mark.parametrize("step", [1e4, 0.1, math.pi * 1e-3, 3e-320, 1e290], ids=repr)
@pytest.mark.parametrize(
    "m", [M_GENERIC, M_SIGNED_ZEROS], ids=["generic", "signed-zeros"]
)
def test_a_step_sums_like_entries_premultiplied_by_it(m, step):
    # the sums form each component as x * step, and x * 1.0 is x
    entries = (
        (-3.0, -2.0, -5.0, 4), (1.0, -7.5, 0.25, 3), (-6.0, 4.0, 0.0, 1), (2.0, 0.0, -8.0, 2)
    )
    scaled = ModeSet(entries, CUTOFF, 1.0, step)
    premultiplied = ModeSet(
        tuple((x * step, y * step, z * step, c) for x, y, z, c in entries), CUTOFF, 1.0, 1.0
    )
    for magnitudes in (True, False):
        got = vacuum_bilinears(scaled, m, magnitudes=magnitudes)
        assert repr(got) == repr(vacuum_bilinears(premultiplied, m, magnitudes=magnitudes))


def test_modes_are_grouped_by_wavevector():
    # two polarization modes at each of k and -k per pair, each pair
    # listed once
    ms = build_mode_set(M_COUPLED, 4, CUTOFF, 1.0)
    assert mode_count(ms) == 4 * len(pairs(ms))
    assert len(set(pairs(ms))) == len(pairs(ms))
    assert vacuum_bilinears(ms, M_COUPLED).mode_count == mode_count(ms)


def test_mode_invariants():
    m = Material(2.25, 1.5, CHI_G, 1.0)
    n = m.index
    volume = 3.0
    ms = build_mode_set(m, 4, CUTOFF, volume)
    for k in pairs(ms):
        kmag = math.hypot(*k)
        assert kmag <= CUTOFF
        assert kmag > 0.0
        khat = scale(Vec3(*k), 1.0 / kmag)
        want_amp = math.sqrt(2.0 * math.pi * HBAR * (C_LIGHT * kmag / n) / volume)
        pair = modes(k, m, volume)
        for mode in pair:
            e = mode.polarization
            assert abs(norm(e) - 1.0) <= 1e-12
            assert abs(dot(e, khat)) <= 1e-12
            assert math.isclose(mode.amplitude, want_amp, rel_tol=1e-12)
        assert abs(dot(pair[0].polarization, pair[1].polarization)) <= 1e-12
        # the library's |E x B| carries the same amplitude: 2 n a^2 at
        # each of k and -k
        single = vacuum_bilinears(ModeSet(((*k, 1),), CUTOFF, volume, 1.0), m)
        assert math.isclose(single.abs_e_cross_b, 4.0 * n * want_amp**2, rel_tol=1e-12)


def test_odd_grid_excludes_origin_and_covers_axial_reference_branch():
    ms = build_mode_set(M_EMPTY, 3, CUTOFF, 1.0)
    # 27 centers, minus the origin, minus the 8 corner diagonals outside
    # the sphere, leaves 18 wavevectors in 9 pairs
    assert len(pairs(ms)) == 9
    assert mode_count(ms) == 36
    assert all(math.hypot(*k) > 0.0 for k in pairs(ms))
    axial = [k for k in pairs(ms) if abs(k[2]) / math.hypot(*k) > 0.9]
    assert axial
    for k in axial:
        # the reference basis switches to the x axis here
        for mode in modes(k, M_EMPTY, 1.0):
            assert abs(mode.polarization.z) <= 1e-12


def test_build_validation():
    with pytest.raises(ValueError):
        build_mode_set(M_EMPTY, 1, CUTOFF, 1.0)
    with pytest.raises(ValueError, match="MAX_GRID_N"):
        build_mode_set(M_EMPTY, MAX_GRID_N + 1, CUTOFF, 1.0)


@pytest.mark.parametrize("value", [0.0, -1e5, math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["cutoff", "volume"])
def test_build_rejects_a_cutoff_or_volume_not_finite_and_positive(name, value):
    # at cutoff inf every cell centre was (-inf, -inf, -inf), and at
    # volume inf every signed sum was 0
    kwargs = {"cutoff": CUTOFF, "volume": 1.0, name: value}
    with pytest.raises(ValueError, match=rf"^{name} must be finite and > 0, got {value!r}$"):
        build_mode_set(M_EMPTY, 4, **kwargs)


def test_empty_mode_set_rejected_by_summation():
    empty = ModeSet((), CUTOFF, 1.0, 1.0)
    with pytest.raises(EmptyModeSet):
        vacuum_bilinears(empty, M_EMPTY)


def test_single_axial_mode_bilinears():
    # one pair along z: at each of k and -k the two modes give
    # |E x B| = 2 n a^2, and since chi^T zhat = chi zhat = 0 for CHI_G
    # the chi channels reduce to a^2 ax(chi) = a^2 (0, 0, 2e-4) each;
    # the odd channels E x B and B . chi^T E cancel within the pair
    n = M_COUPLED.index
    k0 = 0.25 * CUTOFF
    a2 = 2.0 * math.pi * HBAR * C_LIGHT * k0 / n
    ms = ModeSet(((0.0, 0.0, k0, 1),), CUTOFF, 1.0, 1.0)
    bs = vacuum_bilinears(ms, M_COUPLED)
    assert bs.mode_count == 4
    assert bs.e_cross_b == Vec3(0.0, 0.0, 0.0)
    assert bs.b_dot_chiT_e == 0.0
    assert math.isclose(bs.abs_e_cross_b, 2.0 * 2.0 * n * a2, rel_tol=1e-15)
    assert math.isclose(bs.e_cross_chiT_e.z, 2.0 * a2 * 2e-4, rel_tol=1e-15)
    assert math.isclose(bs.b_cross_chi_b.z, 2.0 * -n * n * a2 * 2e-4, rel_tol=1e-15)
    assert math.isclose(bs.abs_b_dot_chiT_e, 2.0 * n * a2 * 2e-4, rel_tol=1e-15)
    assert math.isclose(bs.zero_point_energy, 2.0 * HBAR * C_LIGHT * k0 / n, rel_tol=1e-15)
    assert_sums_match(bs, reference_bilinears(ms, M_COUPLED), M_COUPLED, a2)


def test_per_mode_poynting_is_longitudinal():
    m = Material(1.7, 0.8, Mat3.zero(), 1.0)
    ms = build_mode_set(m, 4, CUTOFF, 1.0)
    for k in pairs(ms):
        for mode in modes(k, m, 1.0):
            khat = mode.khat
            s = cross(mode.E, mode.B)
            transverse = s - scale(khat, dot(s, khat))
            assert norm(transverse) <= 1e-12 * norm(s)


def test_regression_sums_trivial_medium():
    ms = build_mode_set(M_EMPTY, 16, CUTOFF, 1.0)
    bs = vacuum_bilinears(ms, M_EMPTY)
    assert bs.mode_count == 4352
    assert math.isclose(bs.zero_point_energy, 5.18501083524518e-09, rel_tol=1e-12)
    assert math.isclose(bs.abs_e_cross_b, 6.515676779515894e-08, rel_tol=1e-12)
    # signed momentum-like sums cancel pairwise over the symmetric grid
    assert bs.e_cross_b == Vec3(0.0, 0.0, 0.0)
    assert bs.b_dot_chiT_e == 0.0
    assert bs.e_cross_chiT_e == Vec3(0.0, 0.0, 0.0)
    assert bs.b_cross_chi_b == Vec3(0.0, 0.0, 0.0)


def test_golden_sums_coupled_medium():
    ms = build_mode_set(M_COUPLED, 8, CUTOFF, 1.0)
    bs = vacuum_bilinears(ms, M_COUPLED)
    assert bs.mode_count == 560
    assert bs.e_cross_chiT_e.x == 0.0
    assert bs.e_cross_chiT_e.y == 0.0
    assert math.isclose(bs.e_cross_chiT_e.z, 3.755546429640758e-13, rel_tol=1e-12)
    assert bs.b_cross_chi_b.x == 0.0
    assert bs.b_cross_chi_b.y == 0.0
    assert math.isclose(bs.b_cross_chi_b.z, -8.449979466691705e-13, rel_tol=1e-12)
    assert math.isclose(bs.abs_b_dot_chiT_e, 4.250994131694042e-13, rel_tol=1e-12)
    # odd-in-k channels vanish exactly
    assert bs.e_cross_b == Vec3(0.0, 0.0, 0.0)
    assert bs.b_dot_chiT_e == 0.0


def test_no_coupling_means_no_chi_channels():
    m = Material(2.25, 1.3, Mat3.zero(), 1.0)
    ms = build_mode_set(m, 10, CUTOFF, 1.0)
    bs = vacuum_bilinears(ms, m)
    assert bs.e_cross_chiT_e == Vec3(0.0, 0.0, 0.0)
    assert bs.b_cross_chi_b == Vec3(0.0, 0.0, 0.0)
    assert bs.b_dot_chiT_e == 0.0
    assert bs.abs_e_cross_chiT_e == 0.0
    assert bs.abs_b_cross_chi_b == 0.0
    assert bs.abs_b_dot_chiT_e == 0.0
    assert bs.abs_e_cross_b > 0.0


def test_polarization_basis_rotation_leaves_observables():
    # the explicit-basis sums agree at any basis angle, and with the
    # library, which builds no basis
    ms = build_mode_set(M_COUPLED, 6, CUTOFF, 1.0)
    base = reference_bilinears(ms, M_COUPLED)
    for rot in (reference_bilinears(ms, M_COUPLED, theta=0.7), vacuum_bilinears(ms, M_COUPLED)):
        assert math.isclose(rot.e_cross_chiT_e.z, base.e_cross_chiT_e.z, rel_tol=1e-12)
        assert math.isclose(rot.b_cross_chi_b.z, base.b_cross_chi_b.z, rel_tol=1e-12)
        assert math.isclose(rot.zero_point_energy, base.zero_point_energy, rel_tol=1e-12)
        for name in MAGNITUDE_CHANNELS:
            assert math.isclose(getattr(rot, name), getattr(base, name), rel_tol=1e-12)
        assert abs(rot.b_dot_chiT_e) <= 1e-12 * base.abs_b_dot_chiT_e
        assert norm(rot.e_cross_b) <= 1e-12 * base.abs_e_cross_b


def test_summation_is_deterministic():
    a = vacuum_bilinears(build_mode_set(M_COUPLED, 7, CUTOFF, 1.0), M_COUPLED)
    b = vacuum_bilinears(build_mode_set(M_COUPLED, 7, CUTOFF, 1.0), M_COUPLED)
    assert a == b


def test_summation_is_order_independent():
    ms = build_mode_set(M_GENERIC, 7, CUTOFF, 1.0)
    reversed_ms = ModeSet(ms.orbits[::-1], ms.cutoff, ms.volume, ms.step)
    assert vacuum_bilinears(reversed_ms, M_GENERIC) == vacuum_bilinears(ms, M_GENERIC)


@pytest.mark.parametrize(
    "cutoff, volume",
    [
        *(pytest.param(c, 1.0, id=str(c)) for c in (1e-310, 1e-300, CUTOFF, 1e300)),
        pytest.param(1e-310, 1e-300, id="1e-310-volume-1e-300"),
    ],
)
@pytest.mark.parametrize(
    "m",
    [M_EMPTY, M_COUPLED, M_GENERIC, M_SIGNED_ZEROS],
    ids=["empty", "coupled", "generic", "signed-zeros"],
)
@pytest.mark.parametrize("grid_n", [2, 3, 4, 5, 7, 8, 16, 17, 32, 33])
def test_half_grid_sums_equal_full_grid_bitwise(grid_n, m, cutoff, volume):
    # at cutoff 1e-300 the terms are subnormal, where doubling a factor
    # of them instead of their sum would round differently; at 1e-310
    # the cell centres are subnormal too, and every term underflows to 0
    # at volume 1 but the chi channels are normal at volume 1e-300, so a
    # grid step rounded differently shows there. The zero-point energy
    # has no volume and is 0 at 1e-310. Odd grids hold the zero planes,
    # whose pairs make orbits of fewer than four.
    ms = build_mode_set(m, grid_n, cutoff, volume)
    got = vacuum_bilinears(ms, m)
    want = full_grid_closed_form(cell_centres(grid_n, cutoff), m, volume)
    assert got == want
    # repr tells -0.0 from 0.0, which the CSV output would print
    assert repr(got) == repr(want)
    # the odd channels cancel exactly over the full grid
    assert want.e_cross_b.as_tuple() == (0.0, 0.0, 0.0)
    assert want.b_dot_chiT_e == 0.0
    # the signed sums alone are the same bits, and nothing else is summed
    fast = vacuum_bilinears(ms, m, magnitudes=False)
    for name in ("e_cross_b", "e_cross_chiT_e", "b_cross_chi_b", "b_dot_chiT_e"):
        assert getattr(fast, name) == getattr(got, name), name
        assert repr(getattr(fast, name)) == repr(getattr(got, name)), name
    for name in (*MAGNITUDE_CHANNELS, "zero_point_energy"):
        assert getattr(fast, name) is None, name
    assert fast.mode_count == got.mode_count
    # and a sweep row's channels alone are the same bits as well
    assert repr(sweep_sums(ms, m)) == repr(sweep_channels(want))


# entries of any sign, as a caller may make them; build_mode_set makes
# no entry of count 3
_HAND_MADE = ((-3e4, -2e4, -5e4), (1e4, -7e4, 3e3), (-6e4, 4e4, 0.0), (2e4, 0.0, -8e4))


@pytest.mark.parametrize(
    "counts",
    [(1,) * 4, (2,) * 4, (3,) * 4, (4,) * 4, (3, 1, 4, 2)],
    ids=["1", "2", "3", "4", "mixed"],
)
@pytest.mark.parametrize(
    "m", [M_GENERIC, M_SIGNED_ZEROS], ids=["generic", "signed-zeros"]
)
def test_hand_made_entries_of_every_count(m, counts):
    # each entry stands for its first count pairs, in both modes
    entries = tuple((*k, count) for k, count in zip(_HAND_MADE, counts))
    ms = ModeSet(entries, CUTOFF, 1.0, 1.0)
    want = full_grid_closed_form(list(full_grid(ms)), m, 1.0)
    got = vacuum_bilinears(ms, m)
    assert repr(got) == repr(want)
    fast = vacuum_bilinears(ms, m, magnitudes=False)
    for name in ("e_cross_b", "e_cross_chiT_e", "b_cross_chi_b", "b_dot_chiT_e", "mode_count"):
        assert repr(getattr(fast, name)) == repr(getattr(want, name)), name
    for name in (*MAGNITUDE_CHANNELS, "zero_point_energy"):
        assert getattr(fast, name) is None, name
    assert repr(sweep_sums(ms, m)) == repr(sweep_channels(want))


@pytest.mark.parametrize("count", [0, 5, -1])
@pytest.mark.parametrize("magnitudes", [True, False])
def test_entries_of_a_count_outside_1_to_4_are_rejected(count, magnitudes):
    # a count of 5 once summed 4 pairs while mode_count counted 5, and
    # -1 trimmed records of the entry before it
    entries = ((*_HAND_MADE[0], 4), (*_HAND_MADE[1], count))
    ms = ModeSet(entries, CUTOFF, 1.0, 1.0)
    message = rf"^orbit count must be 1 to 4, got \(.*, {count}\)$"
    with pytest.raises(ValueError, match=message):
        vacuum_bilinears(ms, M_GENERIC, magnitudes=magnitudes)
    # and the sweep's pass
    with pytest.raises(ValueError, match=message):
        sweep_sums(ms, M_GENERIC)


@pytest.mark.parametrize("grid_n", range(2, 25))
def test_sweep_sums_are_the_default_channels_bitwise(grid_n):
    # seeded media at normal scales, and hand-made entries of every
    # count at random coordinates: the pass that packs no x or y term
    # and the signed pass each give the bits of the closed forms summed
    # over the full grid, so their z components agree
    rng = random.Random(f"sweep-sums/{grid_n}")
    for _ in range(3):
        m, cutoff, volume = _scaling_draw(rng)
        grid = build_mode_set(m, grid_n, cutoff, volume)
        entries = tuple(
            (*(rng.uniform(-1.0, 1.0) for _ in range(3)), rng.randint(1, 4))
            for _ in range(grid_n)
        )
        for ms in (grid, ModeSet(entries, cutoff, volume, cutoff)):
            want = full_grid_closed_form(list(full_grid(ms)), m, volume)
            assert repr(sweep_sums(ms, m)) == repr(sweep_channels(want))
            signed = want._replace(**dict.fromkeys((*MAGNITUDE_CHANNELS, "zero_point_energy")))
            assert repr(vacuum_bilinears(ms, m, magnitudes=False)) == repr(signed)


_unit = st.floats(-1.0, 1.0)
# entries below 1e-6 could push every chi channel into the subnormal
# range, where no sum holds 1e-12 of its scale
_chi_entry = _unit.filter(lambda x: x == 0.0 or abs(x) >= 1e-6)
# general directions, and directions within the reference basis's
# |khat_z| > 0.9 branch
_direction = st.one_of(
    st.tuples(_unit, _unit, _unit),
    st.tuples(
        st.floats(-0.3, 0.3), st.floats(-0.3, 0.3), st.sampled_from((-1.0, 1.0))
    ),
).filter(lambda v: math.hypot(*v) > 1e-3)


@settings(max_examples=200, deadline=None)
@given(
    chi=st.lists(_chi_entry, min_size=9, max_size=9),
    eps=st.floats(0.3, 4.0),
    mu=st.floats(0.3, 4.0),
    direction=_direction,
    kmag=st.floats(1e3, 1e6),
)
@example(chi=[0.0, 1e-4, 0.0, -1e-4, 0.0, 0.0, 0.0, 0.0, 0.0], eps=2.25, mu=1.0,
         direction=(0.0, 0.0, 1.0), kmag=CUTOFF)
def test_closed_form_matches_polarization_sum(chi, eps, mu, direction, kmag):
    m = Material(eps, mu, Mat3(*chi), 1.0)
    norm = math.hypot(*direction)
    k = tuple(kmag * c / norm for c in direction)
    ms = ModeSet(((*k, 1),), kmag, 1.0, 1.0)
    got = vacuum_bilinears(ms, m)
    want = reference_bilinears(ms, m)
    a2 = amplitude(math.hypot(*k), m, 1.0) ** 2
    assert_sums_match(got, want, m, a2)


@settings(max_examples=60, deadline=None)
@given(
    chi=st.lists(_chi_entry, min_size=9, max_size=9),
    eps=st.floats(0.3, 4.0),
    mu=st.floats(0.3, 4.0),
    grid_n=st.integers(2, 13),
    volume=st.floats(0.1, 10.0),
)
@example(chi=[0.3, -0.2, 0.7, 0.1, -0.5, 0.4, -0.6, 0.9, 0.2], eps=2.25, mu=1.3,
         grid_n=8, volume=1.0)
@example(chi=[0.3, -0.2, 0.7, 0.1, -0.5, 0.4, -0.6, 0.9, 0.2], eps=2.25, mu=1.3,
         grid_n=9, volume=1.0)
def test_signed_sums_follow_the_two_thirds_law(chi, eps, mu, grid_n, volume):
    # the grid is symmetric under axis permutations and reflections, so
    # sum_k a^2 khat khat^T = (S/3) I with S = sum_k a^2 = (2 pi / V) ZPE;
    # only the antisymmetric part of chi survives the sums
    m = Material(eps, mu, Mat3(*chi), 1.0)
    ms = build_mode_set(m, grid_n, CUTOFF, volume)
    sweep = sweep_sums(ms, m)
    s = 2.0 * math.pi / volume * sweep.zero_point_energy
    # per wavevector |E x B| = 2 n a^2 and hbar omega = hbar c |k| / n,
    # so over the grid |E x B| = (4 pi n / V) ZPE
    law = 4.0 * math.pi * m.index / volume * sweep.zero_point_energy
    assert math.isclose(sweep.abs_e_cross_b, law, rel_tol=1e-13)
    fast = vacuum_bilinears(ms, m, magnitudes=False)
    xx, xy, xz, yx, yy, yz, zx, zy, zz = m.chi
    ax_chi = (yz - zy, zx - xz, xy - yx)
    # rounding in the terms scales with chi as a whole, not with ax(chi)
    tol = 1e-12 * s * max(map(abs, chi))
    n2 = m.index**2
    for got_e, got_b, a in zip(
        fast.e_cross_chiT_e.as_tuple(), fast.b_cross_chi_b.as_tuple(), ax_chi
    ):
        assert abs(got_e - 2.0 / 3.0 * s * a) <= tol
        assert abs(got_b + 2.0 / 3.0 * n2 * s * a) <= n2 * tol


def test_cutoff_sweep_validation():
    with pytest.raises(ValueError):
        cutoff_sweep(M_COUPLED, 4, [], 1.0)
    with pytest.raises(ValueError):
        cutoff_sweep(M_COUPLED, 4, [1e5, 5e4], 1.0)
    with pytest.raises(ValueError):
        cutoff_sweep(M_COUPLED, 4, [1e5, 1e5], 1.0)


@pytest.mark.parametrize(
    "cutoffs",
    [[-1e4, 1e5], [0.0, 1e5], [1e5, math.nan, 2e5], [math.nan, 1e5], [1e5, math.inf]],
    ids=["negative", "zero", "nan-after-base", "nan-base", "inf"],
)
def test_cutoff_sweep_rejects_a_cutoff_not_finite_and_positive(cutoffs, monkeypatch):
    # a nan after the first cutoff once failed only after the grids
    # before it were built and summed
    built = []
    monkeypatch.setattr(vacuum, "build_mode_set", lambda *a: built.append(a))
    with pytest.raises(ValueError, match="^cutoffs must be finite and > 0, got "):
        cutoff_sweep(M_COUPLED, 4, cutoffs, 1.0)
    assert built == []


@pytest.mark.parametrize(
    "grid_n", [0, 1, -3, MAX_GRID_N + 1, 2.5, 4.0, True, math.nan], ids=repr
)
def test_grid_n_not_an_int_in_range_is_rejected_before_any_grid(grid_n, monkeypatch):
    # cutoff_sweep once clamped grid_n 0, 1, -3, 2.5 and True to a grid
    # of 2, and build_mode_set raised TypeError from range() at 4.0
    message = rf"^grid_n must be an integer in \[2, MAX_GRID_N={MAX_GRID_N}\], got "
    with pytest.raises(ValueError, match=message):
        build_mode_set(M_EMPTY, grid_n, CUTOFF, 1.0)
    built = []
    monkeypatch.setattr(vacuum, "build_mode_set", lambda *a: built.append(a))
    with pytest.raises(ValueError, match=message):
        cutoff_sweep(M_COUPLED, grid_n, [1e5, 2e5, 3e5], 1.0)
    assert built == []


def test_cutoff_sweep_scales_grid_with_cutoff():
    sweep = cutoff_sweep(M_EMPTY, 4, [1e4, 2e4, 4e4], 1.0)
    assert [c for c, _ in sweep] == [1e4, 2e4, 4e4]
    counts = [bs.mode_count for _, bs in sweep]
    # doubling the cutoff doubles the grid, so counts grow roughly 8x
    assert counts[1] > 4 * counts[0]
    assert counts[2] > 4 * counts[1]


def test_cutoff_sweep_rounds_a_scaled_grid_near_a_half():
    # 3 * 1609146302.7355752 / 1072764201.8237168 is 4.5 + 1.7e-16
    # exactly; dividing first rounds the ratio to 1.5, and 4.5 to grid 4
    sweep = cutoff_sweep(M_EMPTY, 3, [1072764201.8237168, 1609146302.7355752], 1.0)
    assert [bs.mode_count for _, bs in sweep] == [36, 160]


def test_quartic_ultraviolet_growth():
    cuts = [
        20000.0,
        35565.588200778455,
        63245.553203367585,
        112468.26503806982,
        200000.0,
    ]
    sweep = cutoff_sweep(M_COUPLED, 6, cuts, 1.0)
    slopes = scaling_slopes(sweep)
    assert math.isclose(slopes["abs_b_dot_chiT_e"], 3.8897429999298, rel_tol=1e-12)
    assert math.isclose(slopes["abs_e_cross_b"], 3.891667698780366, rel_tol=1e-12)
    for name, slope in slopes.items():
        assert 3.8 <= slope <= 4.2, name
    # each record is the default sums' channels at the scaled grid, and
    # the signed odd-in-k channels stay cancelled at every cutoff
    for c, record in sweep:
        ms = build_mode_set(M_COUPLED, round(6 * c / cuts[0]), c, 1.0)
        bs = vacuum_bilinears(ms, M_COUPLED)
        assert repr(record) == repr(sweep_channels(bs))
        assert bs.e_cross_b == Vec3(0.0, 0.0, 0.0)
        assert bs.b_dot_chiT_e == 0.0


def test_scaling_slopes_degenerate_channels():
    sweep = cutoff_sweep(Material(1.0, 1.0, Mat3.zero(), 1.0), 4, [1e4, 2e4], 1.0)
    slopes = scaling_slopes(sweep)
    assert math.isnan(slopes["abs_b_dot_chiT_e"])
    assert math.isnan(slopes["abs_e_cross_chiT_e"])
    assert not math.isnan(slopes["abs_e_cross_b"])


def test_density_is_volume_intensive():
    # doubling the volume while scaling the grid linearly with V^(1/3)
    # should leave the summed densities nearly unchanged
    a = vacuum_bilinears(build_mode_set(M_EMPTY, 12, CUTOFF, 1.0), M_EMPTY)
    b = vacuum_bilinears(build_mode_set(M_EMPTY, 15, CUTOFF, 2.0), M_EMPTY)
    rel = abs(b.abs_e_cross_b - a.abs_e_cross_b) / a.abs_e_cross_b
    assert rel <= 0.05


def _scaling_draw(rng):
    """A medium, cutoff and volume whose sums stay far from subnormals
    and overflow, and stay there when cutoff or volume is doubled."""
    chi = Mat3(*(rng.choice((-1, 1)) * 10.0 ** rng.uniform(-6, 0) for _ in range(9)))
    m = Material(10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-1, 1), chi, 1.0)
    return m, 10.0 ** rng.uniform(-3, 8), 10.0 ** rng.uniform(-3, 3)


def _channels(sums) -> dict:
    """Every channel by name; compared by repr, which tells -0.0 from 0.0."""
    return {name: getattr(sums, name) for name in sums._fields if name != "mode_count"}


def _times(value, factor):
    if isinstance(value, Vec3):
        return Vec3(*(factor * x for x in value))
    return factor * value


@pytest.mark.parametrize("grid_n", [6, 9])
@pytest.mark.parametrize("seed", range(6))
def test_doubling_the_cutoff_doubles_every_channel_bitwise(seed, grid_n):
    # the grid, |k| and so every amplitude double exactly; the cutoff
    # filter keeps the same cells
    m, cutoff, volume = _scaling_draw(random.Random(f"cutoff-doubling/{seed}"))
    ms_a = build_mode_set(m, grid_n, cutoff, volume)
    ms_b = build_mode_set(m, grid_n, 2.0 * cutoff, volume)
    for sums in (vacuum_bilinears, sweep_sums):
        a, b = sums(ms_a, m), sums(ms_b, m)
        assert b.mode_count == a.mode_count
        want = {name: _times(value, 2.0) for name, value in _channels(a).items()}
        assert repr(_channels(b)) == repr(want)


@pytest.mark.parametrize("grid_n", [6, 9])
@pytest.mark.parametrize("seed", range(6))
def test_doubling_the_volume_halves_every_channel_but_the_energy_bitwise(seed, grid_n):
    # a^2 = 2 pi hbar omega / V; the zero-point energy has no volume
    m, cutoff, volume = _scaling_draw(random.Random(f"volume-doubling/{seed}"))
    ms_a = build_mode_set(m, grid_n, cutoff, volume)
    ms_b = build_mode_set(m, grid_n, cutoff, 2.0 * volume)
    for sums in (vacuum_bilinears, sweep_sums):
        a, b = sums(ms_a, m), sums(ms_b, m)
        assert b.mode_count == a.mode_count
        want = {name: _times(value, 0.5) for name, value in _channels(a).items()}
        want["zero_point_energy"] = a.zero_point_energy
        assert repr(_channels(b)) == repr(want)


def _outcome(sums):
    """repr of the record sums() returns, or the error it raises."""
    try:
        return repr(sums())
    except NonFiniteResult as exc:
        return f"{type(exc).__name__}: {exc}"


def test_sweep_sums_raise_where_the_default_call_does():
    # volumes that put the sums near overflow, with terms up to overflow
    # themselves; sums in and below the subnormal range; and volumes so
    # small that n V can underflow to 0. The sweep sums no x or y
    # component, and each of those terms is at most its pair's hypot term
    rng = random.Random("sweep-sums-edges")
    kinds = set()
    for i in range(300):
        m, cutoff, _ = _scaling_draw(rng)
        ms = build_mode_set(m, rng.randint(2, 9), cutoff, 1.0)
        # every channel but the energy scales as 1 / volume
        largest = max(sweep_sums(ms, m)[6:])
        if i % 3 == 0:
            exponent = rng.uniform(306.0, 309.0 + math.log10(4 * len(ms.orbits)))
        elif i % 3 == 1:
            exponent = rng.uniform(-340.0, -300.0)
        # channels near 10^exponent; 10^(-exponent) itself may overflow
        volume = largest * 10.0 ** (-exponent / 2) * 10.0 ** (-exponent / 2)
        if i % 3 == 2:
            volume = 10.0 ** rng.uniform(-324.0, -320.0)
        ms = ms._replace(volume=volume)
        got = _outcome(lambda: sweep_sums(ms, m))
        assert got == _outcome(lambda: sweep_channels(vacuum_bilinears(ms, m)))
        kinds.add(got.partition("(" if got.startswith("SweepSums") else " at ")[0])
    assert kinds == {
        "SweepSums",
        "NonFiniteResult: zero-point sums leave the float range",
        "NonFiniteResult: the zero-point amplitude is undefined: n * volume underflows to 0",
    }
