#!/usr/bin/env python3
"""Estimator accuracy map over (pair probability, trial budget).

Runs repeated reconstructions of random pair-source distributions on a
log grid and writes the long-format sweep table; the mean RMSLE per cell
is the desk-scale version of the accuracy-region maps.

Example:
    python3 scripts/accuracy_map.py --method ml-2x2d --reps 20 \
        --p-g 1e-4 1e-3 1e-2 --n-m 1e7 1e8 1e9 --out accuracy_ml2x2d.csv
"""

import argparse
from collections import defaultdict

import numpy as np

from ppskit.simulate import SweepSpec, run_sweep, write_sweep_csv


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--method", default="ml-2x2d",
                        choices=["ml-1d", "ml-2d", "ml-2x2d", "eml-1d", "eml-2d", "eml-2x2d"])
    parser.add_argument("--p-g", type=float, nargs="+", default=[1e-4, 1e-3, 1e-2])
    parser.add_argument("--n-m", type=float, nargs="+", default=[1e7, 1e8, 1e9])
    parser.add_argument("--eta", type=float, default=0.5)
    parser.add_argument("--reps", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="accuracy_map.csv")
    args = parser.parse_args(argv)

    spec = SweepSpec(
        p_g_grid=tuple(args.p_g),
        n_m_grid=tuple(args.n_m),
        eta_grid=(args.eta,),
        reps=args.reps,
        n_starts=3,
    )
    rows = run_sweep(spec, args.method, seed=args.seed)
    write_sweep_csv(args.out, rows)

    cells = defaultdict(list)
    for row in rows:
        cells[(row["p_g"], row["n_m"])].append(row["rmsle"])
    print(f"{args.method}: mean RMSLE per cell ({args.reps} reps)")
    for (p_g, n_m), values in sorted(cells.items()):
        print(f"  p_g={p_g:<8g} n_m={n_m:<8g} -> {np.nanmean(values):.3f}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
