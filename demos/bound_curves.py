#!/usr/bin/env python3
"""Sweep the upper-bound families over d and compose the pointwise best.

Writes the same CSV schema as the command line tool, one row per family
per d plus a `best` row naming the winner. Each family is evaluated once
over the whole grid, and c4 is solved once per d. Redirect to a file to
plot.
"""

import argparse
import sys

import numpy as np

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
    curves = [evaluate_bound(spec, grid, table) for spec in specs]
    # compose the table-backed families, then let c4, the last spec, win
    # where it is strictly below them, as compose_best_upper would, so
    # each c4 point is solved once
    best, winners = compose_best_upper(grid, specs[:-1], table)
    c4_wins = curves[-1] < best
    best = np.where(c4_wins, curves[-1], best)
    winners = [specs[-1] if win else winner
               for win, winner in zip(c4_wins.tolist(), winners)]
    curves = [curve.tolist() for curve in curves]

    print("kind,params,d,value,side,tolerance")
    for i, d in enumerate(grid):
        for spec, curve in zip(specs, curves):
            params = ";".join(f"{k}={spec.parameters[k]}"
                              for k in sorted(spec.parameters))
            print(f"{spec.kind},{params},{d!r},{curve[i]!r},upper,"
                  f"{table.tolerance!r}")
        value, winner = float(best[i]), winners[i]
        print(f"best,winner={winner.kind},{d!r},{value!r},upper,"
              f"{table.tolerance!r}")
        print(f"# d={d:.2f}: best={value:.4f} from {winner.kind}",
              file=sys.stderr)


if __name__ == "__main__":
    main()
