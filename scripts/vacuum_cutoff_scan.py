#!/usr/bin/env python3
"""Ultraviolet growth of the zero-point bilinear sums.

Runs a cutoff sweep (grid scaled with the cutoff and rounded to whole
cells, so the k-space cell size stays within a relative 1/(2 cells a
side) of the lowest cutoff's) and reports the per-wavevector magnitude
channels and their fitted log-log slopes. All four channels integrate |k|^3 d^3k
style measures and should grow close to cutoff^4.
"""

import argparse
import math

from vacmom import MAGNITUDE_CHANNELS, Mat3, Material, cutoff_sweep, scaling_slopes


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilon", type=float, default=2.25)
    ap.add_argument("--mu", type=float, default=1.0)
    ap.add_argument("--chi-xy", type=float, default=1e-4,
                    help="antisymmetric coupling strength (chi_xy = -chi_yx)")
    ap.add_argument("--grid", type=int, default=6,
                    help="grid cells per axis at the lowest cutoff")
    ap.add_argument("--cutoff-lo", type=float, default=2e4)
    ap.add_argument("--cutoff-hi", type=float, default=2e5)
    ap.add_argument("--points", type=int, default=5)
    args = ap.parse_args()

    g = args.chi_xy
    chi = Mat3(0.0, g, 0.0, -g, 0.0, 0.0, 0.0, 0.0, 0.0)
    m = Material(args.epsilon, args.mu, chi, 1.0)
    ratio = args.cutoff_hi / args.cutoff_lo
    cuts = [
        args.cutoff_lo * ratio ** (i / (args.points - 1))
        for i in range(args.points)
    ]

    sweep = cutoff_sweep(m, args.grid, cuts, 1.0)
    print(f"{'cutoff':>12} {'modes':>8}", *(f"{c:>14}" for c in MAGNITUDE_CHANNELS))
    for cutoff, sums in sweep:
        print(
            f"{cutoff:12.4e} {sums.mode_count:>8}",
            *(f"{getattr(sums, c):14.6e}" for c in MAGNITUDE_CHANNELS),
        )
    print()
    slopes = scaling_slopes(sweep)
    for name in MAGNITUDE_CHANNELS:
        s = slopes[name]
        label = "n/a" if math.isnan(s) else f"{s:.4f}"
        print(f"slope {name:<22}: {label}")


if __name__ == "__main__":
    main()
