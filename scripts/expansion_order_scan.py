#!/usr/bin/env python3
"""Scan the first-order truncation over random magnetoelectric configurations.

For each draw we verify that the residual between the exact boosted
interaction density and its first-order truncation shrinks like beta^2,
and that a central difference of the exact density at beta = 0
reproduces the analytic first-order rate. Prints one line per
configuration plus a summary of the worst slope and derivative mismatch.
"""

import argparse
import random

from vacmom import FieldState, Mat3, Material, Vec3, verify_expansion

BETA_GRID = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2)


def draw_configuration(rng):
    eps = rng.uniform(0.3, 4.0)
    mu = rng.uniform(0.3, 4.0)
    chi = Mat3(*(rng.uniform(-0.5, 0.5) for _ in range(9)))
    e = Vec3(*(rng.uniform(-1.0, 1.0) for _ in range(3)))
    b = Vec3(*(rng.uniform(-1.0, 1.0) for _ in range(3)))
    return Material(eps, mu, chi, 1.0), FieldState(e, b)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=50, help="number of draws")
    ap.add_argument("--seed", type=int, default=7, help="RNG seed")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    worst_slope = 2.0
    worst_rel = 0.0
    print(f"{'#':>4} {'eps':>8} {'mu':>8} {'slope':>8} {'deriv_rel':>10}")
    for i in range(args.count):
        m, f = draw_configuration(rng)
        rep = verify_expansion(m, f, BETA_GRID)
        if rep.identically_zero:
            print(f"{i:>4} {m.epsilon:8.4f} {m.mu:8.4f} {'--':>8} {'--':>10}")
            continue
        print(
            f"{i:>4} {m.epsilon:8.4f} {m.mu:8.4f}"
            f" {rep.slope:8.4f} {rep.derivative_rel:10.2e}"
        )
        if abs(rep.slope - 2.0) > abs(worst_slope - 2.0):
            worst_slope = rep.slope
        worst_rel = max(worst_rel, rep.derivative_rel)
    print()
    print(f"worst slope          : {worst_slope:.4f} (target 2.0 +- 0.1)")
    print(f"worst derivative rel : {worst_rel:.2e} (target <= 1e-8)")


if __name__ == "__main__":
    main()
