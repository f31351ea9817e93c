"""Fixed reference kernels, timed next to every op to gauge the machine.

On a shared host the speed of one core swings by up to 1.6x over tens of
seconds, more for interpreter-bound code than for BLAS-bound code.  A run
times one of these kernels before the first op and after every op, and
``op_norm`` divides the window's median op time by the kernel's median
time over the same window.  The kernels use no ppskit code and fixed inputs, so a change
to ppskit moves ``op_norm`` as it moves the op time, while a slow spell
of the host moves both times alike.

Each workload names the kernel whose time is spent like its ops':
``fit`` for the estimator workloads (scipy's L-BFGS-B on a fixed logistic
likelihood, Python callbacks on small numpy arrays) and ``blas`` for
synthesis (complex matrix products like its Gram matrices, on BLAS's
default threads).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import minimize

_rng = np.random.default_rng(0)
_X = _rng.random((200, 12))
_Y = (_X.sum(axis=1) > 6.0).astype(float)
_MATRIX = _rng.random((512, 512)) + 1j * _rng.random((512, 512))


def _logistic_nll(w):
    z = _X @ w
    p = 1.0 / (1.0 + np.exp(-z))
    return float(np.sum(np.logaddexp(0.0, z) - _Y * z)), _X.T @ (p - _Y)


def _fit() -> None:
    for start in range(24):
        minimize(_logistic_nll, np.full(12, 0.01 * start), jac=True, method="L-BFGS-B")


def _blas() -> None:
    for _ in range(2):
        _MATRIX @ _MATRIX
        _MATRIX.conj().T @ _MATRIX


KERNELS = {"fit": _fit, "blas": _blas}


def seconds(name: str) -> float:
    """Wall time of one call of the named kernel."""
    kernel = KERNELS[name]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
