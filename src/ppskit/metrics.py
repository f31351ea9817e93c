"""Estimation-accuracy metrics and bootstrap uncertainties.

For pair sources the vacuum cell dominates, so Bhattacharyya fidelity is
blind to errors in the small cells; the root mean squared logarithmic
error compares cells by ratio instead, with one fixed guard against empty
cells, and is the primary accuracy metric here.  Uncertainties come from
resampling the observed outcome frequencies with replacement
(:func:`bootstrap`), refitting every draw, and summarizing the refits
(:func:`bootstrap_stats`).
"""

from __future__ import annotations

import math

import numpy as np

from .detection import CountRecord
from .errors import InvalidInputError, PpskitError, check_count, check_trials
from .pnd import PndMatrix
from .rng import multinomial_counts, substream
from .tables import write_table


# Divergence guard of the log-ratio metric: added to both cells before
# taking the ratio so empty cells stay finite; it suits distributions whose
# smallest meaningful cells sit far above 1e-15.
_ALPHA = 1e-15


def _cells(P) -> np.ndarray:
    if isinstance(P, PndMatrix):
        return P.p
    return np.asarray(P, dtype=float)


def rmsle(P, O) -> float:
    """Root mean squared log10 cell ratio between two distributions.

    Zero iff the inputs agree; a uniform cell ratio of r gives |log10 r|.
    Symmetric in its arguments.
    """
    p = _cells(P)
    o = _cells(O)
    if p.shape != o.shape:
        raise InvalidInputError(f"shape mismatch: {p.shape} vs {o.shape}")
    logs = np.log10((p + _ALPHA) / (o + _ALPHA))
    return float(np.sqrt(np.mean(logs**2)))


def fidelity(P, O) -> float:
    """Bhattacharyya overlap sum(sqrt(P * O)); 1 iff equal, 0 iff disjoint.

    Close to 1 for any two pair-source distributions regardless of how
    different their photon cells are, which is why rmsle is preferred.
    """
    p = _cells(P)
    o = _cells(O)
    if p.shape != o.shape:
        raise InvalidInputError(f"shape mismatch: {p.shape} vs {o.shape}")
    return float(np.sum(np.sqrt(p * o)))


def bootstrap(record: CountRecord, n_boot: int, sample_size: int, seed: int = 0) -> list[CountRecord]:
    """Resample a count record with replacement at the trial level.

    Each sample is a multinomial draw of ``sample_size`` trials from the
    empirical outcome distribution f / n_m.  All ``n_boot`` samples are
    drawn in one call from ``substream(seed, "bootstrap", record.nu)``, one
    row per sample, so sample b does not depend on ``n_boot``.
    Deterministic under the seed.
    """
    check_trials("sample_size", sample_size, 1)
    check_count("n_boot", n_boot, 0)
    total = float(record.f.sum())
    if total <= 0:
        raise InvalidInputError("cannot bootstrap an empty record")
    probs = np.broadcast_to((record.f / total).reshape(-1), (int(n_boot), 16))
    counts = multinomial_counts(int(sample_size), probs, substream(seed, "bootstrap", record.nu))
    return [
        CountRecord(f, int(sample_size), nu=record.nu)
        for f in counts.astype(float).reshape(-1, 4, 4)
    ]


def bootstrap_stats(draws, pipeline, sample_size: int) -> list[dict]:
    """Summary statistics of a pipeline over bootstrap draws.

    ``pipeline`` maps one draw (a resampled record, or the refit of one,
    say) to a mapping of characteristic name to value; draws on which it
    raises a package error (or returns non-finite values) are tallied in
    ``n_fail`` instead of aborting the aggregation.  ``sample_size`` is the
    number of trials in one draw, reported with every row.  Returns one
    row per characteristic, sorted by name, with mean, std and the 5 / 50
    / 95 percent quantiles.
    """
    if not draws:
        raise InvalidInputError("no bootstrap samples given")
    values: dict[str, list[float]] = {}
    n_fail = 0
    for draw in draws:
        try:
            result = pipeline(draw)
        except (PpskitError, ArithmeticError):
            n_fail += 1
            continue
        if not all(math.isfinite(value) for value in result.values()):
            n_fail += 1
            continue
        for name, value in result.items():
            values.setdefault(name, []).append(float(value))
    if not values:
        raise PpskitError(
            f"bootstrap pipeline failed on all {len(draws)} samples"
        )
    rows = []
    for name in sorted(values):
        vals = np.asarray(values[name], dtype=float)
        q05, q50, q95 = np.quantile(vals, [0.05, 0.5, 0.95])
        rows.append(
            {
                "characteristic": name,
                "sample_size": sample_size,
                "mean": float(vals.mean()),
                "std": float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
                "q05": float(q05),
                "q50": float(q50),
                "q95": float(q95),
                "n_fail": n_fail,
            }
        )
    return rows


BOOTSTRAP_COLUMNS = (
    "characteristic",
    "sample_size",
    "mean",
    "std",
    "q05",
    "q50",
    "q95",
    "n_fail",
)


def write_bootstrap_csv(path, rows) -> None:
    write_table(path, BOOTSTRAP_COLUMNS, ([row[col] for col in BOOTSTRAP_COLUMNS] for row in rows))
