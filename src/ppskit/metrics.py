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
    Symmetric in its arguments.  This is the one-row case of
    :func:`rmsle_many`.
    """
    p = _cells(P)
    o = _cells(O)
    if p.shape != o.shape:
        raise InvalidInputError(f"shape mismatch: {p.shape} vs {o.shape}")
    return float(rmsle_many(p.reshape(-1), o.reshape(-1)))


def rmsle_many(p, o) -> np.ndarray:
    """:func:`rmsle` of every pair of rows of two stacks of distributions,
    each row holding one distribution's cells along the last axis."""
    logs = np.log10((p + _ALPHA) / (o + _ALPHA))
    return np.sqrt(np.mean(logs**2, axis=-1))


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


def _resample(record: CountRecord, n_boot: int, sample_size: int, seed: int = 0) -> np.ndarray:
    """The counts of :func:`bootstrap`'s samples, one row per sample
    (n_boot x outcomes, float), drawn in one call."""
    check_trials("sample_size", sample_size, 1)
    check_count("n_boot", n_boot, 0)
    total = float(record.f.sum())
    if total <= 0:
        raise InvalidInputError("cannot bootstrap an empty record")
    probs = np.broadcast_to((record.f / total).reshape(-1), (int(n_boot), record.f.size))
    counts = multinomial_counts(int(sample_size), probs, substream(seed, "bootstrap", record.nu))
    return counts.astype(float)


def bootstrap(record: CountRecord, n_boot: int, sample_size: int, seed: int = 0) -> list[CountRecord]:
    """Resample a count record with replacement at the trial level.

    Each sample is a multinomial draw of ``sample_size`` trials from the
    empirical outcome distribution f / n_m.  All ``n_boot`` samples are
    drawn in one call from ``substream(seed, "bootstrap", record.nu)``, one
    row per sample (``_resample``), so sample b does not depend on
    ``n_boot``.  Deterministic under the seed.
    """
    counts = _resample(record, n_boot, sample_size, seed)
    return [CountRecord(f, int(sample_size), nu=record.nu) for f in counts.reshape(-1, 4, 4)]


def bootstrap_stats(draws, pipeline, sample_size: int) -> list[dict]:
    """Summary statistics of a pipeline over bootstrap draws.

    ``pipeline`` maps one draw (a resampled record, or the refit of one,
    say) to a mapping of characteristic name to value, the same names on
    every draw; draws on which it raises a package error (or returns
    non-finite values) are tallied in ``n_fail`` instead of aborting the
    aggregation.  ``sample_size`` is the number of trials in one draw,
    reported with every row.  Returns one row per characteristic, sorted
    by name, with mean, std and the 5 / 50 / 95 percent quantiles
    (``_summarize``).
    """
    if not draws:
        raise InvalidInputError("no bootstrap samples given")
    results = []
    for draw in draws:
        try:
            results.append(pipeline(draw))
        except (PpskitError, ArithmeticError):
            results.append(None)
    names = next((list(result) for result in results if result is not None), [])
    values = np.full((len(results), len(names)), np.nan)
    for row, result in zip(values, results):
        if result is None:
            continue
        if set(result) != set(names):
            raise InvalidInputError(
                f"bootstrap pipeline returned {sorted(result)} on one draw, {sorted(names)} on another"
            )
        row[:] = [result[name] for name in names]
    return _summarize(names, values, np.array([r is not None for r in results]), sample_size)


def _summarize(names, values: np.ndarray, ok: np.ndarray, sample_size: int) -> list[dict]:
    """Bootstrap summary rows of every draw's values (draws x names).

    The draws marked ``ok`` whose values are all finite are summarized,
    all characteristics at once; the others count in ``n_fail``.  Returns
    one row per name, sorted by name, with mean, std and the 5 / 50 / 95
    percent quantiles; PpskitError if no draw is left.
    """
    ok = ok & np.isfinite(values).all(axis=-1)
    if not ok.any():
        raise PpskitError(f"bootstrap pipeline failed on all {len(values)} samples")
    order = sorted(range(len(names)), key=lambda i: names[i])
    # One contiguous row per name, so each reduces as a lone vector would.
    kept = np.ascontiguousarray(values[ok][:, order].T)
    q05, q50, q95 = np.quantile(kept, [0.05, 0.5, 0.95], axis=1).tolist()
    std = kept.std(axis=1, ddof=1) if kept.shape[1] > 1 else np.zeros(len(kept))
    n_fail = len(values) - int(ok.sum())
    return [
        dict(zip(BOOTSTRAP_COLUMNS, (names[i], sample_size, *stats, n_fail)))
        for i, *stats in zip(order, kept.mean(axis=1).tolist(), std.tolist(), q05, q50, q95)
    ]


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
