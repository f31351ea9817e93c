#!/usr/bin/env python3
"""Newton steps and time per cell and per fit of the benchmark's 16 sweep kinds.

Each kind is one (method, p_g, n_m, eta, d) cell of 20 reps, as the
benchmark's ``sweep`` workload runs it (``_sweep_kinds`` in
``perfbench/workloads.py``): each method meets four grid points in a
Latin square, and the bipartite EML fits use the four-setting "va4"
plan.  For every kind the script runs one untimed cell, then
``--repeats`` timed cells through ``simulate.run_sweep``, cell i from
sweep seed ``--seed + i``.  It prints the median and the largest Newton
steps over all their fits, the median milliseconds per cell and the
median milliseconds of the cell's batched fit (``estimate._fit_stack``,
starts included) and ``digest``, the first 12 hex digits of a sha256
over the bytes of every array those timed fits returned, then the same
over every kind, with the sums of the kinds' median times and one digest
over all the kinds' arrays.  Equal digests from two checkouts mean
byte-identical fits.  Run it with one BLAS thread, as the benchmark runs
the sweep.

Example:
    OPENBLAS_NUM_THREADS=1 python3 scripts/sweep_steps.py --repeats 9
"""

import argparse
import dataclasses
import hashlib
import statistics
import time

import numpy as np

from ppskit import estimate, simulate
from ppskit.simulate import SweepSpec

METHODS = ("ml-2x2d", "eml-2x2d", "ml-2d", "ml-1d")
P_GS = (1e-4, 1e-3, 1e-2, 1e-1)
BIPARTITE_N_MS = (1e6, 1e8, 1e10, 1e12)
SINGLE_N_MS = (1e8, 1e9, 1e10, 1e12)
REPS = 20


def sweep_kinds() -> list:
    """(label, method, p_g, n_m, eta, d) of each kind, in the benchmark's order."""
    kinds = []
    for k in range(4):
        for m, method in enumerate(METHODS):
            n_m = (BIPARTITE_N_MS if method.endswith("2x2d") else SINGLE_N_MS)[(k - m) % 4]
            p_g, eta, d = P_GS[k], (0.5, 1.0)[(k + m) % 2], (0.0, 1e-6)[(k // 2 + m) % 2]
            label = f"{method}_p{p_g:.0e}_n{n_m:.0e}_eta{eta}_d{d:.0e}"
            kinds.append((label, method, p_g, n_m, eta, d))
    return kinds


def run_cells(method, p_g, n_m, eta, d, seeds) -> tuple:
    """The ``_fit_stack`` result of every cell, and seconds of each cell
    and of its ``_fit_stack`` call, one cell per seed."""
    spec = SweepSpec(
        p_g_grid=(p_g,), n_m_grid=(n_m,), eta_grid=(eta,), d_grid=(d,),
        gamma_design="va4" if method.startswith("eml") else "none", reps=REPS,
    )
    stack_fits, seconds, fit_seconds, fit_stack = [], [], [], estimate._fit_stack

    def counting_stack(*args, **kwargs):
        start = time.perf_counter()
        fits = fit_stack(*args, **kwargs)
        fit_seconds.append(time.perf_counter() - start)
        stack_fits.append(fits)
        return fits

    estimate._fit_stack = counting_stack
    try:
        for seed in seeds:
            start = time.perf_counter()
            simulate.run_sweep(spec, method, seed=seed)
            seconds.append(time.perf_counter() - start)
    finally:
        estimate._fit_stack = fit_stack
    return stack_fits, seconds, fit_seconds


def fit_bytes(fits) -> bytes:
    """The bytes of every array of a ``_fit_stack`` result, field by field."""
    return b"".join(getattr(fits, field.name).tobytes() for field in dataclasses.fields(fits))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=9, help="timed cells per kind")
    parser.add_argument("--seed", type=int, default=4242, help="sweep seed of the first timed cell")
    args = parser.parse_args(argv)

    print(
        f"{args.repeats} cells a kind, {REPS} reps each: "
        "Newton steps of every fit, ms per cell and in its fit, digest of its fits"
    )
    print(
        f"{'kind':<38} {'steps_median':>12} {'steps_max':>9} {'ms_median':>9} "
        f"{'fit_ms_median':>13} {'digest':>12}"
    )
    all_steps, total_ms, total_fit_ms, total_hash = [], 0.0, 0.0, hashlib.sha256()
    for label, *cell in sweep_kinds():
        run_cells(*cell, [args.seed - 1])
        fits, seconds, fit_seconds = run_cells(*cell, range(args.seed, args.seed + args.repeats))
        ms, fit_ms = 1e3 * statistics.median(seconds), 1e3 * statistics.median(fit_seconds)
        steps = np.concatenate([fit.steps for fit in fits])
        data = b"".join(map(fit_bytes, fits))
        total_hash.update(data)
        all_steps.append(steps)
        total_ms += ms
        total_fit_ms += fit_ms
        print(
            f"{label:<38} {np.median(steps):>12g} {steps.max():>9d} {ms:>9.2f} {fit_ms:>13.2f} "
            f"{hashlib.sha256(data).hexdigest()[:12]:>12}"
        )
    steps = np.concatenate(all_steps)
    print(
        f"{'all (ms: sum of medians)':<38} {np.median(steps):>12g} {steps.max():>9d} "
        f"{total_ms:>9.2f} {total_fit_ms:>13.2f} {total_hash.hexdigest()[:12]:>12}"
    )


if __name__ == "__main__":
    main()
