#!/usr/bin/env python3
"""Per-stage times of the synthesis path on the benchmark's two JSD kinds.

The ``chirped`` kind is a complex Gaussian JSD (chirp 80) with Gaussian
filters, so all four branches are live; the ``rect`` kind is the same
JSD without chirp (a real grid) with a signal filter that passes the
whole axis and a narrow idler slit, so two branches are empty.  Both
JSDs are rotated by ``--theta-deg`` (45 by default, the benchmark's
angle, where the chirp is a product of one phase per axis).  For each
kind the script times, in process, ``gaussian_jsd``, ``segment``, the
low-rank factor that ``segment`` runs (on a fresh copy of the scaled
grid) and ``schmidt_number_analytic``, and prints the median of each
over the repeats.  It also prints the factor's columns (``direct`` when
the grid takes the direct route) and the median of the minor page
faults (``ru_minflt``) that one ``segment`` call takes.

Example:
    python3 scripts/synthesis_stages.py --n 1024 --repeats 7 --theta-deg 30
"""

import argparse
import math
import resource
import statistics
import time
from functools import partial

from ppskit import jsd as jsd_module
from ppskit.jsd import FilterProfile, gaussian_jsd, schmidt_number_analytic, segment

SIGMA_PLUS, SIGMA_MINUS, SPAN = 0.05, 0.24, 10.0


def make_kind(kind: str, n: int, theta: float):
    """The kind's JSD (built once) and its filters."""
    chirp = 80.0 if kind == "chirped" else 0.0
    jsd = gaussian_jsd(SIGMA_PLUS, SIGMA_MINUS, theta, n, n, SPAN, chirp=chirp)
    if kind == "chirped":
        filters = (FilterProfile.gauss(jsd.axis_s, 0.02, 0.3),
                   FilterProfile.gauss(jsd.axis_i, -0.01, 0.15))
    else:
        # 5% wider than the signal axis, so it passes all of it.
        width = 1.05 * (jsd.axis_s[-1] - jsd.axis_s[0])
        filters = (FilterProfile.rect(jsd.axis_s, 0.0, width),
                   FilterProfile.rect(jsd.axis_i, 0.0, 0.2))
    return chirp, jsd, filters


def timed(function, *args):
    start = time.perf_counter()
    result = function(*args)
    return time.perf_counter() - start, result


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(kind: str, n: int, repeats: int, theta: float) -> dict:
    chirp, jsd, filters = make_kind(kind, n, theta)
    build_jsd = partial(gaussian_jsd, SIGMA_PLUS, SIGMA_MINUS, theta, n, n, SPAN, chirp=chirp)
    times = {"gaussian_jsd": [], "segment": [], "factor": [], "k_analytic": []}
    faults = []
    for _ in range(repeats):
        times["gaussian_jsd"].append(timed(build_jsd)[0])
        before = minor_faults()
        times["segment"].append(timed(segment, jsd, *filters)[0])
        faults.append(minor_faults() - before)
        seconds, factor = timed(jsd_module._low_rank_factor, jsd.scaled())
        times["factor"].append(seconds)
        times["k_analytic"].append(timed(schmidt_number_analytic, jsd)[0])
    row = {stage: 1e3 * statistics.median(values) for stage, values in times.items()}
    row["columns"] = "direct" if factor is None else factor[0].shape[1]
    row["segment_minflt"] = statistics.median(faults)
    return row


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1024, help="grid points per axis")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--kinds", nargs="+", default=["chirped", "rect"],
                        choices=["chirped", "rect"])
    parser.add_argument("--theta-deg", type=float, default=45.0,
                        help="rotation of the JSD's correlation axes, in degrees")
    args = parser.parse_args(argv)

    print(f"n = {args.n}, theta = {args.theta_deg:g} deg,"
          f" medians of {args.repeats} in-process calls (ms)")
    print(f"{'kind':<8} {'gaussian_jsd':>12} {'segment':>8} {'factor':>8} {'k_analytic':>10}"
          f" {'columns':>8} {'segment_minflt':>14}")
    for kind in args.kinds:
        row = measure(kind, args.n, args.repeats, math.radians(args.theta_deg))
        print(f"{kind:<8} {row['gaussian_jsd']:>12.2f} {row['segment']:>8.2f} {row['factor']:>8.2f}"
              f" {row['k_analytic']:>10.2f} {row['columns']!s:>8} {row['segment_minflt']:>14g}")


if __name__ == "__main__":
    main()
