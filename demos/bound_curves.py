#!/usr/bin/env python3
"""Sweep the upper-bound families over d and compose the pointwise best.

Writes the same CSV schema as the command line tool, one row per family
per d plus a `best` row naming the winner. Each family, and the pointwise
best, is evaluated once over the whole grid. Redirect to a file to plot.
"""

import argparse
import sys

from delcap import (BoundSpec, build_default_table, compose_best_upper,
                    d_grid, evaluate_bound)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--step", type=float, default=0.05)
    parser.add_argument("--L", type=int, default=8,
                        help="block length for the c3 and c4 curves")
    args = parser.parse_args()

    table = build_default_table()
    specs = [
        BoundSpec("c1_star", {"D": 2, "l_max": table.l_max}),
        BoundSpec("c2_star", {"R": 4, "l_max": table.l_max}),
        BoundSpec("c3", {"L": args.L}),
        BoundSpec("c4", {"L": args.L}),
    ]

    grid = d_grid(args.step, 1.0 - args.step, args.step)
    curves = [evaluate_bound(spec, grid, table).tolist() for spec in specs]
    best, winners = compose_best_upper(grid, specs, table)

    print("kind,params,d,value,side,tolerance")
    for i, d in enumerate(grid):
        for spec, curve in zip(specs, curves):
            params = ";".join(f"{k}={spec.parameters[k]}"
                              for k in sorted(spec.parameters))
            print(f"{spec.kind},{params},{d!r},{curve[i]!r},upper,"
                  f"{spec.solver_tolerance!r}")
        value, winner = float(best[i]), winners[i]
        print(f"best,winner={winner.kind},{d!r},{value!r},upper,"
              f"{winner.solver_tolerance!r}")
        print(f"# d={d:.2f}: best={value:.4f} from {winner.kind}",
              file=sys.stderr)


if __name__ == "__main__":
    main()
