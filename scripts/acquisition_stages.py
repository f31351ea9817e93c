#!/usr/bin/env python3
"""Per-command times of ``ppskit estimate`` on the benchmark's two acquisition inputs.

Each input is the wide/narrow source
(``presets.wide_narrow_study(xi_sq).source_pnd()``) measured with the
reference detectors at (xi_sq, n_m) = (1e-4, 1e8) and (1e-2, 1e12): one
simulated counts file, fitted with ML and five starts as the benchmark's
``acquisition`` op fits it.  The inputs are written to a temporary
directory.  For each point the script times two in-process
``cli.main`` runs, interleaved over the repeats after one untimed run
of each: ``estimate`` alone and ``estimate`` with a ``--n-boot``-draw
``[bootstrap]`` section, each into its own output directory.  It prints
one row per point and command: the median in milliseconds and
``digest``, the first 12 hex digits of a sha256 over the names and
bytes of the files the command wrote.  Equal digests from
two checkouts mean byte-identical command outputs.  Run it with one BLAS
thread to compare digests across checkouts.

Example:
    OPENBLAS_NUM_THREADS=1 python3 scripts/acquisition_stages.py --repeats 15 --n-boot 20
"""

import argparse
import contextlib
import hashlib
import io
import os
import statistics
import tempfile
import time

from ppskit import cli, presets
from ppskit.detection import write_counts_csv
from ppskit.simulate import ExperimentConfig, simulate_records

POINTS = ((1e-4, 1e8), (1e-2, 1e12))  # (xi_sq, n_m)
COMMANDS = ("estimate", "estimate+boot")


def write_inputs(workdir: str, xi_sq: float, n_m: float, n_boot: int) -> dict:
    """The point's counts file and the argv of each command, minus ``--out``.

    The configs set no [detectors] keys, so the CLI fits with the
    reference detectors that the counts were simulated with.
    """
    tag = f"xi{xi_sq:.0e}_n{n_m:.0e}"
    det_s, det_i = presets.reference_detectors()
    truth = presets.wide_narrow_study(xi_sq).source_pnd()
    counts = os.path.join(workdir, f"counts_{tag}.csv")
    write_counts_csv(counts, simulate_records(
        ExperimentConfig(pnd=truth, det_s=det_s, det_i=det_i, n_m=int(n_m), seed=1)
    ))
    plain = os.path.join(workdir, f"plain_{tag}.cfg")
    boot = os.path.join(workdir, f"boot_{tag}.cfg")
    estimate = "[estimate]\nmethod = ml\nn_starts = 5\nseed = 2\n"
    with open(plain, "w") as fh:
        fh.write(estimate)
    with open(boot, "w") as fh:
        fh.write(estimate + f"\n[bootstrap]\nn_boot = {n_boot}\nseed = 3\n")
    return {
        "tag": tag,
        "estimate": ["estimate", "--config", plain, "--counts", counts],
        "estimate+boot": ["estimate", "--config", boot, "--counts", counts],
    }


def timed_run(argv, out: str) -> float:
    """Seconds of one in-process ``ppskit <argv> --out out``, its prints discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv + ["--out", out])
        seconds = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"ppskit {' '.join(argv)} exited {code}")
    return seconds


def digest(out: str) -> str:
    """First 12 hex digits of a sha256 over the names and bytes of the files in ``out``."""
    total = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            total.update(name.encode() + b"\0" + fh.read())
    return total.hexdigest()[:12]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--n-boot", type=int, default=20, help="bootstrap draws per sample size")
    args = parser.parse_args(argv)

    print(
        f"medians of {args.repeats} in-process runs (ms), {args.n_boot} bootstrap draws, "
        "digest of the files written"
    )
    print(f"{'point':<14} {'command':<13} {'ms_median':>9} {'digest':>12}")
    with tempfile.TemporaryDirectory() as workdir:
        for xi_sq, n_m in POINTS:
            runs = write_inputs(workdir, xi_sq, n_m, args.n_boot)
            outs = {name: os.path.join(workdir, runs["tag"], name) for name in COMMANDS}
            for name in COMMANDS:
                timed_run(runs[name], outs[name])
            times = {name: [] for name in COMMANDS}
            for _ in range(args.repeats):
                for name in COMMANDS:
                    times[name].append(timed_run(runs[name], outs[name]))
            for name in COMMANDS:
                print(
                    f"{runs['tag']:<14} {name:<13} {1e3 * statistics.median(times[name]):>9.2f} "
                    f"{digest(outs[name]):>12}"
                )


if __name__ == "__main__":
    main()
