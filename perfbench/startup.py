"""Set-up cost of ``import ppskit`` and a record of the run environment.

Every child process started here is waited for before its function
returns; a child that outlives its timeout is killed and reaped.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import subprocess
import sys
import time

CHILD_TIMEOUT_S = 120


def child_env(root: str, **extra) -> dict:
    env = dict(os.environ)
    # Children always use and write the bytecode cache, as a user's
    # interpreter does by default, whatever this process was started with.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


def run_child(args, root: str, **extra_env) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=root, env=child_env(root, **extra_env),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )


_TIMED_IMPORT = (
    "import time; t0 = time.perf_counter(); import ppskit; "
    "print(repr(time.perf_counter() - t0))"
)


def cold_import_seconds(root: str, repeats: int, warm: bool = True) -> list[float]:
    """Time of ``import ppskit`` in fresh interpreters, timed in the child.

    Interpreter start and exit stay outside the timing.  With ``warm``,
    one untimed import first writes the bytecode cache, which every CLI
    call after a user's first also finds in place.
    """
    if warm:
        run_child(["-c", "import ppskit"], root)
    return [
        float(run_child(["-c", _TIMED_IMPORT], root).stdout.strip())
        for _ in range(repeats)
    ]


def parse_importtime(stderr: str) -> dict[str, tuple[int, int]]:
    """Map module name -> (self us, cumulative us) from ``-X importtime``.

    The first entry wins when a module name appears twice.
    """
    out: dict[str, tuple[int, int]] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except ValueError:  # the header line
            continue
        out.setdefault(parts[2].strip(), (self_us, cum_us))
    return out


def import_breakdown(root: str, repeats: int = 3) -> dict[str, float]:
    """Median over fresh interpreters of the import-time shares, in s."""
    samples: dict[str, list[float]] = {}
    for _ in range(repeats):
        table = parse_importtime(
            run_child(["-X", "importtime", "-c", "import ppskit"], root).stderr
        )
        values = {
            "setup.scipy_special_s": table.get("scipy.special", (0, 0))[1] / 1e6,
            "setup.scipy_optimize_s": table.get("scipy.optimize", (0, 0))[1] / 1e6,
            "setup.ppskit_self_s": sum(
                s for name, (s, _) in table.items()
                if name == "ppskit" or name.startswith("ppskit.")
            ) / 1e6,
        }
        for key, value in values.items():
            samples.setdefault(key, []).append(value)
    return {key: statistics.median(vals) for key, vals in samples.items()}


_BLAS_CHILD = """
import sys, time, contextlib, io
import numpy as np
from ppskit.cli import main
a = np.random.default_rng(0).standard_normal((256, 256))
np.linalg.svd(a @ a.T + 1j * a)  # first LAPACK call, outside the timing
with contextlib.redirect_stdout(io.StringIO()):
    t0 = time.perf_counter()
    code = main(["jsd", "--config", sys.argv[1], "--out", sys.argv[2]])
    seconds = time.perf_counter() - t0
if code != 0:
    sys.exit(code)
print(repr(seconds))
"""


def blas_1thread_seconds(root: str, config: str, outdir: str) -> float:
    """One ``ppskit jsd`` op in a child with BLAS pinned to one thread."""
    one = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    proc = run_child(["-c", _BLAS_CHILD, config, outdir], root, **one)
    return float(proc.stdout.strip().splitlines()[-1])


def _blas_threads() -> str:
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def _git_commit(root: str) -> str:
    """HEAD of the checkout, read from ``.git`` without starting git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: str, seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # show_config differs between numpy versions
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }
