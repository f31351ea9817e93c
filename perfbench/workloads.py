"""The three benchmark workloads: inputs, one operation, output checks.

Every input is generated from the workload seed before timing starts; the
program sees only the generated config, counts and sweep specs.  Each
workload cycles through a fixed list of operation kinds, and ``run`` times
only the call into ppskit.  The checks after the call are untimed, and a
failed check makes the operation count as failed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import random
import time
from dataclasses import dataclass, field

# cli.main and simulate.run_sweep are called through their modules so that
# the traced run's wrappers, installed on the ppskit modules, see the calls.
from ppskit import cli, presets, simulate
from ppskit.detection import write_counts_csv
from ppskit.jsd import (
    FilterProfile,
    complex_overlap,
    gaussian_jsd,
    pair_overlap,
    segment,
)
from ppskit.metrics import rmsle
from ppskit.pnd import CharacteristicSet, read_pnd_csv
from ppskit.simulate import ExperimentConfig, SweepSpec, simulate_records, write_sweep_csv

SUM_TOL = 1e-9


@dataclass
class Op:
    kind: int
    inputs: dict


@dataclass
class Outcome:
    """Result of one operation: wall time of the ppskit call plus checks."""

    kind: int
    seconds: float
    problems: list = field(default_factory=list)
    fits: int = 0
    nonconverged: int = 0
    rmsles: list = field(default_factory=list)
    digest: str = ""
    bytes_written: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _call_cli(argv) -> tuple[int, float, str]:
    """Run ``ppskit <argv>`` in-process; the CLI's own prints are captured."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    return code, seconds, err.getvalue()


def _digest_dir(path: str) -> tuple[str, int]:
    """sha256 over the names and bytes of every file, and the byte total."""
    h = hashlib.sha256()
    total = 0
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + data + b"\0")
        total += len(data)
    return h.hexdigest(), total


def _read_report(path: str) -> dict:
    with open(path, newline="") as fh:
        return {row["metric"]: float(row["value"]) for row in csv.DictReader(fh)}


def _pnd_sum(path: str) -> float:
    with open(path, newline="") as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        return math.fsum(float(row["p"]) for row in rows)


def _fresh_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)
    for name in os.listdir(path):
        os.remove(os.path.join(path, name))


class Workload:
    """Base: ``kinds`` names the operation kinds, cycled in order, and
    ``reference`` the kernel in reference.py timed ``ref_calls`` times
    between ops."""

    name = ""
    kinds: tuple = ()
    fits_per_op = 0
    reference = "fit"
    ref_calls = 1

    def __init__(self, seed: int, workdir: str, pool: int):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.ops = [self.make_op(i % len(self.kinds), i) for i in range(pool)]

    def setup_problems(self) -> list[str]:
        """Checks made once during set-up; empty when all pass."""
        return []

    def make_op(self, kind: int, index: int) -> Op:
        raise NotImplementedError

    def run(self, op: Op, outdir: str) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# synthesis: one ``ppskit jsd`` call on an n = 1024 grid


class Synthesis(Workload):
    """Gaussian filters on a chirped JSD (four branches) alternate with
    rect wide/narrow filters (signal and reflected-signal branches empty)."""

    name = "synthesis"
    kinds = ("rect", "gauss")  # the cheap kind first: it is the warm-up op
    n_grid = 1024
    reference = "blas"
    ref_calls = 4  # a run has only about six ops

    def make_op(self, kind, index):
        # Widths are fixed: at n = 1024 the Gaussian op's time depends on
        # the JSD and filter widths (3.8 s against 6.4 s in one check),
        # so a seed that drew widths would move op_s by itself.  The seed
        # draws the phase, the idler slit and the gain.
        r = self.rng
        sigma_plus, sigma_minus, span = 0.05, 0.24, 10.0
        xi_sq = 10 ** r.uniform(-4, -2)
        lines = [
            "[jsd]", "source = gaussian", f"sigma_plus = {sigma_plus!r}",
            f"sigma_minus = {sigma_minus!r}", "theta_deg = 45",
            f"n_s = {self.n_grid}", f"n_i = {self.n_grid}", f"span = {span!r}",
        ]
        if self.kinds[kind] == "gauss":
            lines += [
                f"chirp = {r.uniform(40.0, 120.0)!r}",
                "[filter_s]", "kind = gauss", "center = 0.02", "fwhm = 0.3",
                "[filter_i]", "kind = gauss", "center = -0.01", "fwhm = 0.15",
            ]
        else:
            # The signal filter passes the whole signal axis, so every
            # reflected-signal amplitude is exactly zero on the grid.
            std_x = math.sqrt((sigma_plus**2 + sigma_minus**2) / 4.0)
            lines += [
                "[filter_s]", "kind = rect", f"width = {2.1 * span * std_x!r}",
                "[filter_i]", "kind = rect", f"width = {r.uniform(0.15, 0.25)!r}",
            ]
        lines += ["[gain]", f"xi_sq = {xi_sq!r}"]
        path = os.path.join(self.workdir, f"jsd_{index:03d}.cfg")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return Op(kind, {"config": path})

    def setup_problems(self):
        """Contract overlaps against the O(n^4) brute-force oracle, n = 48."""
        jsd = gaussian_jsd(0.05, 0.24, math.pi / 4, 48, 48, 6.0, chirp=80.0)
        seg = segment(
            jsd,
            FilterProfile.gauss(jsd.axis_s, 0.02, 0.3),
            FilterProfile.gauss(jsd.axis_i, -0.01, 0.15),
        )
        p = seg.parts
        pairs = {
            "ox13": (seg.ox13, pair_overlap(p[0], p[2], "x", method="brute")),
            "ox24": (seg.ox24, pair_overlap(p[1], p[3], "x", method="brute")),
            "oy14": (seg.oy14, pair_overlap(p[0], p[3], "y", method="brute")),
            "oy23": (seg.oy23, pair_overlap(p[1], p[2], "y", method="brute")),
            "oc": (seg.oc, complex_overlap(*p, method="brute")),
        }
        return [
            f"overlap {name}: contract {a!r} != brute {b!r}"
            for name, (a, b) in pairs.items()
            if not abs(a - b) <= 1e-10 * max(1.0, abs(b))
        ]

    def run(self, op, outdir):
        _fresh_dir(outdir)
        code, seconds, err = _call_cli(
            ["jsd", "--config", op.inputs["config"], "--out", outdir]
        )
        out = Outcome(op.kind, seconds)
        if code != 0:
            out.problems.append(f"ppskit jsd exit {code}: {err.strip()}")
            return out
        rep = _read_report(os.path.join(outdir, "report.csv"))
        k_svd, k_an = rep["k_svd"], rep["k_analytic"]
        if not abs(k_svd - k_an) <= 1e-9 * abs(k_an):
            out.problems.append(f"k_svd {k_svd!r} != k_analytic {k_an!r}")
        q = [rep[f"q{j}"] for j in range(1, 5)]
        if abs(math.fsum(q) - 1.0) > SUM_TOL:
            out.problems.append(f"q1..q4 sum to {math.fsum(q)!r}")
        empty = [j + 1 for j in range(4) if q[j] == 0.0]
        expected = [] if self.kinds[op.kind] == "gauss" else [2, 4]
        if empty != expected:
            out.problems.append(f"empty branches {empty}, expected {expected}")
        total = _pnd_sum(os.path.join(outdir, "pnd.csv"))
        if abs(total - 1.0) > SUM_TOL:
            out.problems.append(f"pnd.csv sums to {total!r}")
        out.digest, out.bytes_written = _digest_dir(outdir)
        return out


# ---------------------------------------------------------------------------
# acquisition: one ``ppskit estimate`` call with a 20-sample bootstrap


class Acquisition(Workload):
    """Counts simulated from the wide/narrow source with the reference
    detectors, reconstructed with the same calibration."""

    name = "acquisition"
    # The two corners of the vacuum-dominated regime, (xi_sq, n_m).
    points = ((1e-4, 1e8), (1e-2, 1e12))
    kinds = tuple(f"xi{xi:.0e}_n{n:.0e}" for xi, n in points)
    # 20 rather than a lab's usual 100: an op of 100 fits lasts 2 to 7 s,
    # long enough for the host's speed to change within it, so the
    # reference kernel timed around it would not gauge the speed it ran at.
    n_boot = 20
    fits_per_op = 1 + n_boot

    def __init__(self, seed, workdir, pool):
        self._truth = {}
        det_s, det_i = presets.reference_detectors()
        self._dets = (det_s, det_i)
        self._detector_lines = [
            "[detectors]",
            f"T_s = {det_s.T!r}", f"T_i = {det_i.T!r}",
            f"eta1 = {det_s.eta_t!r}", f"eta2 = {det_s.eta_r!r}",
            f"eta3 = {det_i.eta_t!r}", f"eta4 = {det_i.eta_r!r}",
            f"d1 = {det_s.d_t!r}", f"d2 = {det_s.d_r!r}",
            f"d3 = {det_i.d_t!r}", f"d4 = {det_i.d_r!r}",
            f"rep_rate_hz = {presets.REFERENCE_REP_RATE_HZ!r}",
        ]
        super().__init__(seed, workdir, pool)

    def make_op(self, kind, index):
        xi_sq, n_m = self.points[kind]
        if xi_sq not in self._truth:
            self._truth[xi_sq] = presets.wide_narrow_study(xi_sq).source_pnd()
        truth = self._truth[xi_sq]
        det_s, det_i = self._dets
        config = ExperimentConfig(
            pnd=truth, det_s=det_s, det_i=det_i, n_m=int(n_m),
            seed=self.rng.randrange(2**31),
        )
        counts = os.path.join(self.workdir, f"counts_{index:03d}.csv")
        write_counts_csv(counts, simulate_records(config))
        # Each op draws its own start and resampling seeds: the number of
        # likelihood evaluations an op needs moves by about 10 % with them,
        # and the median over a run's ops averages that out.
        path = os.path.join(self.workdir, f"estimate_{index:03d}.cfg")
        with open(path, "w") as fh:
            fh.write("\n".join(self._detector_lines + [
                "[estimate]", "method = ml", "n_starts = 5",
                f"seed = {self.rng.randrange(2**31)}",
                "[bootstrap]", f"n_boot = {self.n_boot}",
                f"seed = {self.rng.randrange(2**31)}",
            ]) + "\n")
        return Op(kind, {"counts": counts, "config": path, "truth": truth})

    def run(self, op, outdir):
        _fresh_dir(outdir)
        code, seconds, err = _call_cli([
            "estimate", "--config", op.inputs["config"], "--counts", op.inputs["counts"],
            "--out", outdir,
        ])
        out = Outcome(op.kind, seconds, fits=self.fits_per_op)
        if code != 0:
            out.problems.append(f"ppskit estimate exit {code}: {err.strip()[-300:]}")
            if code == 4:
                out.nonconverged += 1
            return out
        # A file that does not parse raises, which fails the op.
        p_hat, meta = read_pnd_csv(os.path.join(outdir, "pnd_hat.csv"))
        if abs(math.fsum(p_hat.p.reshape(-1)) - 1.0) > SUM_TOL:
            out.problems.append("pnd_hat.csv does not sum to 1")
        if not math.isfinite(float(meta.get("loglik", "nan"))):
            out.problems.append(f"loglik {meta.get('loglik')!r} is not finite")
        if meta.get("converged") != "True":
            out.nonconverged += 1
            out.problems.append("fit did not converge")
        out.rmsles.append(rmsle(p_hat, op.inputs["truth"]))
        with open(os.path.join(outdir, "bootstrap_summary.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        missing = set(CharacteristicSet.FIELDS) - {row["characteristic"] for row in rows}
        if missing:
            out.problems.append(f"bootstrap_summary.csv lacks {sorted(missing)}")
        n_fail = max((int(row["n_fail"]) for row in rows), default=0)
        if n_fail:
            out.nonconverged += n_fail
            out.problems.append(f"bootstrap n_fail = {n_fail}")
        out.digest, out.bytes_written = _digest_dir(outdir)
        return out


# ---------------------------------------------------------------------------
# sweep: one ``run_sweep`` call on a single cell with 20 repetitions


def _sweep_kinds():
    """Each method meets four grid points in a Latin square, so every
    method sees every p_g level, four n_m levels, both efficiencies and
    both noise levels.

    Single-mode fits start at n_m = 1e8: below that, about one fit in a
    few hundred to a few thousand ends without converging (seen at
    n_m = 1e6 for ml-1d and ml-2d), and a run must not fail by chance.
    """
    methods = ("ml-2x2d", "eml-2x2d", "ml-2d", "ml-1d")
    p_gs = (1e-4, 1e-3, 1e-2, 1e-1)
    bipartite_n_ms = (1e6, 1e8, 1e10, 1e12)
    single_n_ms = (1e8, 1e9, 1e10, 1e12)
    return tuple(
        (method, p_gs[k],
         (bipartite_n_ms if method.endswith("2x2d") else single_n_ms)[(k - m) % 4],
         (0.5, 1.0)[(k + m) % 2], (0.0, 1e-6)[(k // 2 + m) % 2])
        for k in range(4)
        for m, method in enumerate(methods)
    )


class Sweep(Workload):
    name = "sweep"
    grid = _sweep_kinds()
    kinds = tuple(f"{m}_p{p:.0e}_n{n:.0e}_eta{e}_d{d:.0e}" for m, p, n, e, d in grid)
    reps = 20
    fits_per_op = reps

    def make_op(self, kind, index):
        return Op(kind, {"seed": self.rng.randrange(2**31)})

    def run(self, op, outdir):
        method, p_g, n_m, eta, d = self.grid[op.kind]
        spec = SweepSpec(
            p_g_grid=(p_g,), n_m_grid=(n_m,), eta_grid=(eta,), d_grid=(d,),
            gamma_design="va4" if method.startswith("eml") else "none",
            reps=self.reps,
        )
        t0 = time.perf_counter()
        rows = simulate.run_sweep(spec, method, seed=op.inputs["seed"])
        out = Outcome(op.kind, time.perf_counter() - t0, fits=self.fits_per_op)
        if len(rows) != self.reps or [r["rep"] for r in rows] != list(range(self.reps)):
            out.problems.append(f"{len(rows)} rows for {self.reps} reps")
        for row in rows:
            if not row["converged"]:
                out.nonconverged += 1
                out.problems.append(f"rep {row['rep']} did not converge")
            elif not math.isfinite(row["rmsle"]):
                out.problems.append(f"rep {row['rep']} has rmsle {row['rmsle']!r}")
            else:
                out.rmsles.append(row["rmsle"])
        _fresh_dir(outdir)
        write_sweep_csv(os.path.join(outdir, "sweep.csv"), rows)
        out.digest, _ = _digest_dir(outdir)
        return out


WORKLOADS = {w.name: w for w in (Synthesis, Acquisition, Sweep)}

