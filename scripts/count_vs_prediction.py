#!/usr/bin/env python3
"""Exact pi(x) for PGL_2(Q) against the adelic volume predictions.

Prints the exact counts and their ties next to the two exponent
conventions and the sandwich bracket from the global ball volume.  One
census serves the whole x-grid: it weights each (determinant, Frobenius
norm) cell by a product of sums-of-two-squares counts, about x^2 log x
cells at B = 1, so --xmax in the hundreds is practical.

Usage:
    python scripts/count_vs_prediction.py --xmax 8 --B 1.0
"""

import argparse

from heightcount import compare_report


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--xmax", type=float, default=8.0)
    ap.add_argument("--B", type=float, default=1.0)
    ap.add_argument("--step", type=float, default=1.0)
    ap.add_argument("--covolume", type=float, default=1.0)
    args = ap.parse_args()

    grid = []
    x = 1.0
    while x <= args.xmax + 1e-9:
        grid.append(round(x, 6))
        x += args.step
    rep = compare_report(grid, args.B, covolume=args.covolume)

    print(f"# B={args.B} covolume={args.covolume} entry_bound={rep.entry_bound_used}")
    print(
        f"{'x':>6} {'pi(x)':>8} {'ties':>5} {'conv B':>12} {'conv 2B':>12} "
        f"{'lower':>12} {'upper':>12}"
    )
    for i, x in enumerate(rep.x_grid):
        print(
            f"{x:6.2f} {rep.pi_values[i]:8d} {rep.tie_counts[i]:5d} "
            f"{rep.predicted_low_exponent[i]:12.4g} "
            f"{rep.predicted_high_exponent[i]:12.4g} "
            f"{rep.lower_sandwich[i]:12.4g} {rep.upper_sandwich[i]:12.4g}"
        )
    print()
    print(f"slack (count / lower sandwich, worst case): {rep.slack:.4g}")


if __name__ == "__main__":
    main()
