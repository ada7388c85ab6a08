"""Zero-point mode construction, vacuum bilinear sums, cutoff scaling."""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import norm
from polarization_reference import (
    amplitude,
    cell_centres,
    full_grid_closed_form,
    modes,
    pairs,
    reference_bilinears,
)
from vacmom.constants import C_LIGHT, HBAR
from vacmom import (
    MAGNITUDE_CHANNELS,
    MAX_GRID_N,
    EmptyModeSet,
    Mat3,
    Material,
    ModeSet,
    Vec3,
    build_mode_set,
    cross,
    cutoff_sweep,
    dot,
    scaling_slopes,
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


def assert_sums_match(got, want, m, a2):
    """Channel by channel within 1e-12 of the channel's natural scale."""
    chi_scale = a2 * max(abs(x) for row in m.chi.rows() for x in row)
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
    assert ms.mode_count == 16
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
        assert ms.mode_count == 2 * len(grid)


@settings(max_examples=200, deadline=None)
@given(
    grid_n=st.integers(2, 12),
    # up to half the largest float, above which 2.0 * cutoff overflows
    cutoff=st.floats(5e-324, sys.float_info.max / 2),
)
@example(grid_n=2, cutoff=1e-310)
@example(grid_n=3, cutoff=1e-315)
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


def test_modes_are_grouped_by_wavevector():
    # two polarization modes at each of k and -k per pair, each pair
    # listed once
    ms = build_mode_set(M_COUPLED, 4, CUTOFF, 1.0)
    assert ms.mode_count == 4 * len(pairs(ms))
    assert len(set(pairs(ms))) == len(pairs(ms))
    assert vacuum_bilinears(ms, M_COUPLED).mode_count == ms.mode_count


def test_mode_invariants():
    m = Material(2.25, 1.5, CHI_G, 1.0)
    n = m.index
    volume = 3.0
    ms = build_mode_set(m, 4, CUTOFF, volume)
    for k in pairs(ms):
        kmag = math.hypot(*k)
        assert kmag <= CUTOFF
        assert kmag > 0.0
        khat = Vec3(*k).scale(1.0 / kmag)
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
        single = vacuum_bilinears(ModeSet(((*k, 1),), CUTOFF, volume, 4), m)
        assert math.isclose(single.abs_e_cross_b, 4.0 * n * want_amp**2, rel_tol=1e-12)


def test_odd_grid_excludes_origin_and_covers_axial_reference_branch():
    ms = build_mode_set(M_EMPTY, 3, CUTOFF, 1.0)
    # 27 centers, minus the origin, minus the 8 corner diagonals outside
    # the sphere, leaves 18 wavevectors in 9 pairs
    assert len(pairs(ms)) == 9
    assert ms.mode_count == 36
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
    with pytest.raises(ValueError):
        build_mode_set(M_EMPTY, 4, 0.0, 1.0)
    with pytest.raises(ValueError):
        build_mode_set(M_EMPTY, 4, -1e5, 1.0)
    with pytest.raises(ValueError):
        build_mode_set(M_EMPTY, 4, CUTOFF, 0.0)
    with pytest.raises(ValueError, match="MAX_GRID_N"):
        build_mode_set(M_EMPTY, MAX_GRID_N + 1, CUTOFF, 1.0)


def test_empty_mode_set_rejected_by_summation():
    empty = ModeSet((), CUTOFF, 1.0, 4)
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
    ms = ModeSet(((0.0, 0.0, k0, 1),), CUTOFF, 1.0, 2)
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
            transverse = s - khat.scale(dot(s, khat))
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
    reversed_ms = ModeSet(ms.orbits[::-1], ms.cutoff, ms.volume, ms.grid_n)
    assert vacuum_bilinears(reversed_ms, M_GENERIC) == vacuum_bilinears(ms, M_GENERIC)


@pytest.mark.parametrize("cutoff", [1e-310, 1e-300, CUTOFF, 1e300])
@pytest.mark.parametrize(
    "m",
    [M_EMPTY, M_COUPLED, M_GENERIC, M_SIGNED_ZEROS],
    ids=["empty", "coupled", "generic", "signed-zeros"],
)
@pytest.mark.parametrize("grid_n", [2, 3, 4, 5, 7, 8, 16, 17, 32, 33])
def test_half_grid_sums_equal_full_grid_bitwise(grid_n, m, cutoff):
    # at cutoff 1e-300 the terms are subnormal, where doubling a factor
    # of them instead of their sum would round differently; at 1e-310
    # the cell centres are subnormal too. Odd grids hold the zero planes,
    # whose pairs make orbits of fewer than four.
    ms = build_mode_set(m, grid_n, cutoff, 1.0)
    got = vacuum_bilinears(ms, m)
    want = full_grid_closed_form(cell_centres(grid_n, cutoff), m, 1.0)
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
    ms = ModeSet(((*k, 1),), kmag, 1.0, 2)
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
    s = 2.0 * math.pi / volume * vacuum_bilinears(ms, m).zero_point_energy
    fast = vacuum_bilinears(ms, m, magnitudes=False)
    (xx, xy, xz), (yx, yy, yz), (zx, zy, zz) = m.chi.rows()
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
        cutoff_sweep(M_COUPLED, 4, [-1e4, 1e5], 1.0)
    with pytest.raises(ValueError):
        cutoff_sweep(M_COUPLED, 4, [1e5, 1e5], 1.0)


def test_cutoff_sweep_scales_grid_with_cutoff():
    sweep = cutoff_sweep(M_EMPTY, 4, [1e4, 2e4, 4e4], 1.0)
    assert [c for c, _ in sweep] == [1e4, 2e4, 4e4]
    counts = [bs.mode_count for _, bs in sweep]
    # doubling the cutoff doubles the grid, so counts grow roughly 8x
    assert counts[1] > 4 * counts[0]
    assert counts[2] > 4 * counts[1]


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
    # signed odd-in-k channels stay cancelled at every cutoff
    for _, bs in sweep:
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
