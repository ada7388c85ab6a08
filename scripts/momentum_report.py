#!/usr/bin/env python3
"""Term-by-term momentum report for one magnetoelectric configuration.

Evaluates the stationary-velocity equation twice: once for a classical
crossed-field pair and once with the field bilinears replaced by their
zero-point vacuum expectation over a cutoff sphere. Prints each term's
z-component, the resulting medium velocity, and the size of the
permeability-transform correction relative to the other terms.
"""

import argparse

from vacmom import (
    FieldState,
    Mat3,
    Material,
    Vec3,
    build_mode_set,
    lagrangian_consistency_check,
    medium_velocity,
    term_ratio_of,
    vacuum_bilinears,
    velocity_from_bilinears,
)


def report(tag, vr, ratio):
    print(f"[{tag}]")
    print(f"  (eps mu - 1) E x B   z: {vr.abraham_minkowski_term.z: .6e}")
    print(f"  E x (chi^T E)        z: {vr.chi_E_term.z: .6e}")
    print(f"  -B x (chi B)         z: {vr.chi_B_term.z: .6e}")
    print(f"  mu-transform term    z: {vr.mu_term_z: .6e}")
    print(f"  v_z                   : {vr.v_z: .6e} cm/s")
    print(f"  transverse residual   : {vr.transverse_residual: .6e}")
    if ratio is None:
        print("  correction/others     : undefined (others vanish)")
    else:
        print(f"  correction/others     : {ratio: .6e}")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilon", type=float, default=2.25)
    ap.add_argument("--mu", type=float, default=1.0)
    ap.add_argument("--chi-xy", type=float, default=1e-4,
                    help="antisymmetric coupling strength (chi_xy = -chi_yx)")
    ap.add_argument("--rho0", type=float, default=1.0, help="mass density, g/cm^3")
    ap.add_argument("--e0", type=float, default=1.0, help="E field amplitude, statvolt/cm")
    ap.add_argument("--b0", type=float, default=1.0, help="B field amplitude, gauss")
    ap.add_argument("--grid", type=int, default=8, help="vacuum grid cells per axis")
    ap.add_argument("--cutoff", type=float, default=1e5, help="UV cutoff, rad/cm")
    args = ap.parse_args()

    g = args.chi_xy
    chi = Mat3(0.0, g, 0.0, -g, 0.0, 0.0, 0.0, 0.0, 0.0)
    m = Material(args.epsilon, args.mu, chi, args.rho0)

    f = FieldState(Vec3(args.e0, 0.0, 0.0), Vec3(0.0, args.b0, 0.0))
    classical = medium_velocity(m, f)
    report("classical crossed fields", classical, term_ratio_of(classical))
    check = lagrangian_consistency_check(m, f)
    print(f"  Lagrangian consistency residual: {check:.3e}")
    print()

    ms = build_mode_set(m, args.grid, args.cutoff, 1.0)
    sums = vacuum_bilinears(ms, m)
    vac = velocity_from_bilinears(m, sums)
    report(f"vacuum expectation, {sums.mode_count} modes", vac, term_ratio_of(vac))
    print(f"  zero-point energy density: {sums.zero_point_energy:.6e} erg/cm^3")


if __name__ == "__main__":
    main()
