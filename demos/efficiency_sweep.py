#!/usr/bin/env python3
"""Walk-through: why the quadratic total is not conserved under inefficient
spin detection.

With detection efficiency eta, each Stern-Gerlach direction has three
outcomes (up, down, nothing), so the quadratic measure is evaluated with
n = 3 and its total becomes an eta-dependent quadratic.  Below ~0.29 and
above ~0.91 that total exceeds log2(3) bits, the largest amount a single
spin could even encode, while Shannon uncertainties stay within range for
every eta.
"""

import numpy as np

from infolab import (
    bz_measure,
    bz_total_closed,
    ideal_bz_total,
    outcome_probabilities,
    ratio_sweep,
    shannon,
    thresholds,
)
from infolab.efficiency import K_THREE


def main():
    print("Outcome statistics (up, down, none) for a spin-up-x particle:")
    for eta in (1.0, 2.0 / 3.0, 0.25):
        px, py, _ = outcome_probabilities(eta)
        print(f"  eta = {eta:.4f}:  along x {np.round(px.probs, 4).tolist()}"
              f"   along y,z {np.round(py.probs, 4).tolist()}")

    print("\nQuadratic information per direction and in total:")
    for eta in (0.0, 0.25, 0.6, 0.905505, 1.0):
        i1, i2, i3 = map(bz_measure, outcome_probabilities(eta))
        total = bz_total_closed(eta)
        print(
            f"  eta = {eta:.4f}:  I = ({i1:.4f}, {i2:.4f}, {i3:.4f})"
            f"   total = {total:.4f}   total/k = {total / K_THREE:.4f}"
        )

    lo, hi = thresholds()
    print(f"\nThe total exceeds the k = log2(3) capacity outside [{lo:.6f}, {hi:.6f}]")
    print("  (those are the roots of 15 eta^2 - 18 eta + 4 = 0)")

    print("\nShannon uncertainties behave tamely across the same range:")
    for eta in (0.25, 0.5, 2.0 / 3.0, 0.9):
        hx, hy, _ = map(shannon, outcome_probabilities(eta))
        print(f"  eta = {eta:.4f}:  Hx = {hx:.5f}   Hy = Hz = {hy:.5f}")
    print("  Hx peaks at eta = 1/2 (1 bit); Hy = Hz peaks at eta = 2/3 (log2 3 bits).")

    print("\nPerfect detection is a structural change, not a limit:")
    print(f"  three-outcome total at eta = 1: {bz_total_closed(1.0):.5f} bits")
    print(f"  two-outcome (ideal mode) total: {ideal_bz_total():.5f} bit")
    print("  Comparing experiments with different eta therefore compares different")
    print("  outcome counts, and the 'conserved' total is not conserved at all.")

    table = ratio_sweep(0.0, 1.0, 11)
    table.validate()
    print("\nCoarse sweep (eta, total/k):")
    for eta, ratio in zip(table.eta, table.ratio):
        bar = "#" * int(round(20 * ratio / 3.0))
        print(f"  {eta:4.1f}  {ratio:6.3f}  {bar}")
    print("\nFor full 201-point CSVs and the two SVG charts run:")
    print("  infolab efficiency figures --out-dir figs/")


if __name__ == "__main__":
    main()
