#!/usr/bin/env python3
"""Sweep archimedean ball volumes over R and fit the growth exponent.

For d = 2 the closed form (cosh(2BR) - 1)/2 is printed alongside the
tabulated series as a sanity column.  The fit runs over the top half of the
radius range, so pick --rmax comfortably above the transient region.

Usage:
    python scripts/scan_ball_volumes.py --d 3 --B 1.0 --rmax 8 --points 25
"""

import argparse
import math

from heightcount import growth_exponent_fit
from heightcount.archimedean import ball_volume_table


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--B", type=float, default=1.0)
    ap.add_argument("--rmin", type=float, default=1.0)
    ap.add_argument("--rmax", type=float, default=8.0)
    ap.add_argument("--points", type=int, default=25)
    args = ap.parse_args()

    table = ball_volume_table(args.d, args.B, args.rmax)
    radii = [
        args.rmin + i * (args.rmax - args.rmin) / (args.points - 1)
        for i in range(args.points)
    ]
    vols = [table(r) for r in radii]

    print(f"# d={args.d} B={args.B}")
    header = f"{'R':>8} {'volume':>16}"
    if args.d == 2:
        header += f" {'closed':>16}"
    print(header)
    for r, v in zip(radii, vols):
        line = f"{r:8.3f} {v:16.8e}"
        if args.d == 2:
            line += f" {(math.cosh(2 * args.B * r) - 1) / 2:16.8e}"
        print(line)

    fit = growth_exponent_fit(radii, vols)
    print()
    print(f"fit over R in [{radii[len(radii) // 2]:.2f}, {args.rmax:.2f}]:")
    print(f"  exponential slope : {fit.slope:.6f}   (compare with 2B = {2 * args.B})")
    print(f"  polynomial degree : {fit.poly_degree:+.6f}")
    print(f"  log intercept     : {fit.intercept:+.6f}")


if __name__ == "__main__":
    main()
