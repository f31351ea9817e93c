"""ppskit benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a ppskit checkout; ppskit is imported from ./src:

    python3 perfbench/run.py --workload synthesis --seed 1 --seconds 25 --trace 0

Workloads are ``synthesis``, ``acquisition`` and ``sweep`` (see
perfbench/README.md).  Every run is closed-loop with one caller: set-up
times fresh ``import ppskit`` interpreters, one warm-up operation runs
untimed, then operations run back to back for ``--seconds``, with a fixed
reference kernel (reference.py) timed before the first and after each.
The first timed operation replays the warm-up input and must produce
byte-identical outputs.  With ``--trace 1`` a second window runs with every public layer
function wrapped in a span recorder, and the per-layer metrics are
reported instead of the end-to-end ones.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))

# name -> (unit, better); only these appear in the final JSON line.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_norm": ("ref", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Printed with the report only: the raw op and kernel times swing with
# the host's speed, and the rest do not apply to every workload (fits,
# accuracy, enough ops for a tail) or read 0 on a healthy run.
REPORTED = {
    "op_s": ("s", "lower"),
    "ref_s": ("s", "lower"),
    "op_tail_s": ("s", "lower"),
    "fits_per_s": ("1/s", "higher"),
    "fail_frac": ("ratio", "lower"),
    "rmsle_mean": ("log10", "lower"),
}
# The estimator workloads' arrays are a few cells wide, so a second
# OpenBLAS thread only spins on the other core; it runs on one thread.
ONE_BLAS_THREAD = ("acquisition", "sweep")
OP_POOL = 256  # generated inputs; a run wraps around if it needs more
SETUP_REPEATS = 6
TAIL_MIN_OPS = 20
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def find_checkout() -> str:
    """The current directory, which must hold the ppskit sources."""
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ppskit", "__init__.py")):
        raise SystemExit(f"error: {root} holds no src/ppskit; run from a ppskit checkout")
    return root


def per_kind_mean(outcomes) -> float:
    """Median op time of each kind, averaged over kinds.

    This keeps op_s independent of how many ops of each kind fit in the
    window, since the kinds differ several-fold in cost.
    """
    by_kind: dict[int, list[float]] = {}
    for out in outcomes:
        by_kind.setdefault(out.kind, []).append(out.seconds)
    return statistics.fmean(statistics.median(v) for v in by_kind.values())


def op_norm(outcomes, refs) -> float:
    """op_s over the median time of the reference kernel run between the
    same ops: both medians see the same mix of fast and slow spells."""
    ok = [o for o in outcomes if math.isfinite(o.seconds)]
    return per_kind_mean(ok) / statistics.median(refs) if ok else float("nan")


def tail(times) -> tuple[float, int, int] | None:
    """(value, percentile, n): the highest percentile with at least ten
    ops beyond it, reported only from TAIL_MIN_OPS ops on."""
    n = len(times)
    if n < TAIL_MIN_OPS:
        return None
    ordered = sorted(times)
    return ordered[n - TAIL_BEYOND - 1], math.floor(100 * (n - TAIL_BEYOND) / n), n


class Runner:
    """Runs a workload's ops one at a time and keeps every outcome."""

    def __init__(self, workload, workdir, outcome_cls):
        self.workload = workload
        self.outcome_cls = outcome_cls
        self.workdir = workdir
        self.outcomes = []  # every op run, warm-up included
        self.index = 0

    def run_op(self, op_index: int, before=None):
        w = self.workload
        op = w.ops[op_index % len(w.ops)]
        outdir = os.path.join(self.workdir, "out")
        if before is not None:
            before(self.index)
        try:
            out = w.run(op, outdir)
        except Exception:  # an op that raises is a failed op, never retried
            out = self.outcome_cls(op.kind, float("nan"), problems=[traceback.format_exc()])
        for problem in out.problems:
            print(f"op {self.index} ({w.kinds[op.kind]}): {problem}", file=sys.stderr)
        self.outcomes.append(out)
        self.index += 1
        return out

    def window(self, seconds: float, before=None) -> tuple[list, list]:
        """Ops back to back for ``seconds``, from op input 0 onwards.

        The reference kernel runs ``ref_calls`` times before the first op
        and after every op.  At least one op of every kind runs.  After that an op starts only
        if its kind's last time, with the kernel's, still fits in the
        window.  Returns the ops' outcomes and the kernel's times.
        """
        import reference

        w = self.workload
        start = time.perf_counter()
        refs = [reference.seconds(w.reference) for _ in range(w.ref_calls)]
        last: dict[int, float] = {}
        done = []
        i = 0
        while True:
            kind = w.ops[i % len(w.ops)].kind
            if i >= len(w.kinds):
                elapsed = time.perf_counter() - start
                if elapsed + last.get(kind, 0.0) > seconds:
                    break
            out = self.run_op(i, before)
            after = [reference.seconds(w.reference) for _ in range(w.ref_calls)]
            refs += after
            if math.isfinite(out.seconds):
                last[kind] = out.seconds + sum(after)
            done.append(out)
            i += 1
        return done, refs


def summarize(workload, timed, refs, setup_times) -> tuple[dict, dict]:
    """End-to-end values from the untraced window, and a note per metric."""
    times = [o.seconds for o in timed if math.isfinite(o.seconds)]
    ok = [o for o in timed if math.isfinite(o.seconds)]
    values = {
        "setup_s": statistics.median(setup_times),
        "op_norm": op_norm(timed, refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_s": per_kind_mean(ok) if ok else float("nan"),
        "ref_s": statistics.median(refs),
    }
    notes = {"ref_s": f"median of {len(refs)} runs of the {workload.reference!r} kernel"}
    t = tail(times)
    if t:
        values["op_tail_s"] = t[0]
        notes["op_tail_s"] = f"p{t[1]} of {t[2]} ops"
    else:
        notes["op_tail_s"] = f"absent: {len(times)} ops < {TAIL_MIN_OPS}"
    if workload.fits_per_op:
        values["fits_per_s"] = sum(o.fits for o in ok) / sum(times)
        # The first full cycle always runs, so this mean is fixed by the seed.
        first = [r for o in timed[: len(workload.kinds)] for r in o.rmsles]
        values["rmsle_mean"] = statistics.fmean(first) if first else float("nan")
        notes["rmsle_mean"] = f"{len(first)} fits of the first {len(workload.kinds)} ops"
    else:
        notes["fits_per_s"] = notes["rmsle_mean"] = "absent: the workload makes no fits"
    return values, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    root = find_checkout()
    if args.workload in ONE_BLAS_THREAD:  # read when numpy loads, just below
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = "1"
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    base = os.path.join(root, ".perfbench_work")
    workdir = os.path.join(base, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, root, workdir, base)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_window(runner, args, root, workdir, base, untraced_op_norm):
    """A second window with every layer wrapped; per-layer metrics."""
    import layers
    import startup
    import workloads
    from spans import Tracer

    workload = runner.workload
    tracer = Tracer()
    layers.install(tracer)
    first = runner.index

    def set_op(index):
        tracer.op = index

    try:
        traced, refs = runner.window(args.seconds, before=set_op)
    finally:
        tracer.uninstall()
    op_kinds = {first + i: o.kind for i, o in enumerate(traced)}
    extra = startup.import_breakdown(root)
    extra["trace.overhead_frac"] = op_norm(traced, refs) / untraced_op_norm - 1.0
    if isinstance(workload, workloads.Synthesis):
        gauss = next(op for op in workload.ops if workload.kinds[op.kind] == "gauss")
        extra["jsd.blas_1thread_s"] = startup.blas_1thread_seconds(
            root, gauss.inputs["config"], os.path.join(workdir, "blas1")
        )
    else:
        extra["jsd.blas_1thread_s:absent"] = "measured on synthesis only"
    if isinstance(workload, workloads.Sweep):
        extra["cli.bytes_written:absent"] = "run_sweep writes no file"
    else:
        extra["cli.bytes_written"] = layers.per_op(
            op_kinds, {op: o.bytes_written for op, o in zip(op_kinds, traced)}
        )
    spans_path = os.path.join(base, f"spans-{args.workload}-s{args.seed}.json")
    with open(spans_path, "w") as fh:
        json.dump({"kinds": workload.kinds, "op_kinds": op_kinds,
                   "spans": tracer.to_json()}, fh)
    print(f"spans written to {os.path.relpath(spans_path, root)}")
    return layers.per_layer(tracer.spans, op_kinds, extra, args.workload)


def measure(args, root, workdir, base) -> int:
    import layers
    import reference
    import startup
    import workloads

    env = startup.environment(root, args.seed)
    # Half the import samples come before the ops and half after them, so
    # the median spans the run rather than one moment of the machine's load.
    setup_times = startup.cold_import_seconds(root, SETUP_REPEATS // 2)

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, OP_POOL)
    setup_problems = workload.setup_problems()
    for problem in setup_problems:
        print(f"set-up check: {problem}", file=sys.stderr)

    runner = Runner(workload, workdir, workloads.Outcome)
    warm = runner.run_op(0)
    for _ in range(3):  # the first calls load code and cost up to 0.4 s
        reference.seconds(workload.reference)
    timed, refs = runner.window(args.seconds)
    setup_times += startup.cold_import_seconds(root, SETUP_REPEATS // 2, warm=False)
    replay_ok = bool(warm.digest) and warm.digest == timed[0].digest
    if not replay_ok:
        print("replay: op 0 outputs differ from the warm-up run", file=sys.stderr)

    values, notes = summarize(workload, timed, refs, setup_times)
    layer_values, absent = {}, {}
    if args.trace:
        layer_values, absent = traced_window(runner, args, root, workdir, base, values["op_norm"])

    attempted = len(runner.outcomes)
    failed = sum(o.failed for o in runner.outcomes)
    fits = sum(o.fits for o in runner.outcomes)
    nonconverged = sum(o.nonconverged for o in runner.outcomes)
    values["fail_frac"] = failed / attempted
    notes["fail_frac"] = (f"{failed} of {attempted} ops; "
                          f"{nonconverged} of {fits} fits not converged")
    correct = failed == 0 and replay_ok and not setup_problems

    print(f"workload {args.workload}: {len(timed)} timed ops over "
          f"{len(workload.kinds)} kinds, seconds={args.seconds:g}, trace={args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_times)}")
    for kind, label in enumerate(workload.kinds):
        times = [o.seconds for o in timed if o.kind == kind]
        print(f"op times {label}: {', '.join(f'{t:.4f}' for t in times)}")
    print(f"reference kernel times: {', '.join(f'{t:.4f}' for t in refs)}")
    for name, (unit, better) in {**END_TO_END, **REPORTED}.items():
        note = notes.get(name, "")
        if name in values:
            print(f"metric {name} = {values[name]:.6g} {unit} ({better} is better) {note}".rstrip())
        else:
            print(f"metric {name} ({unit}, {better} is better): {note}")
    for name, value in layer_values.items():
        why = f"  absent: {absent[name]}" if name in absent else ""
        print(f"layer {name} = {value:.6g} {layers.PER_LAYER[name][0]}{why}")
    print(f"checks: correct={correct} replay_identical={replay_ok} "
          f"setup_checks={'ok' if not setup_problems else 'FAILED'}")

    chosen = (
        {k: (layer_values[k], layers.PER_LAYER[k][0]) for k in layer_values}
        if args.trace else {k: (values[k], END_TO_END[k][0]) for k in END_TO_END}
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
