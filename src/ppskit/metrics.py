"""Estimation-accuracy metrics and bootstrap uncertainties.

For pair sources the vacuum cell dominates, so Bhattacharyya fidelity is
blind to errors in the small cells; the root mean squared logarithmic
error compares cells by ratio instead and is the primary accuracy metric
here.  Uncertainties come from resampling the observed outcome
frequencies with replacement and pushing every resample through the full
estimation pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import CountRecord
from .errors import InvalidInputError, PpskitError
from .pnd import PndMatrix
from .rng import multinomial_counts, substream
from .tables import write_table


@dataclass(frozen=True)
class MetricConfig:
    """Divergence guard for the log-ratio metric.

    ``alpha`` is added to both cells before taking the ratio so empty
    cells stay finite; the default suits distributions whose smallest
    meaningful cells sit far above 1e-15.
    """

    alpha: float = 1e-15

    def __post_init__(self):
        if self.alpha <= 0:
            raise InvalidInputError("alpha must be positive")


def _cells(P) -> np.ndarray:
    if isinstance(P, PndMatrix):
        return P.p
    return np.asarray(P, dtype=float)


def rmsle(P, O, cfg: MetricConfig | None = None) -> float:
    """Root mean squared log10 cell ratio between two distributions.

    Zero iff the inputs agree; a uniform cell ratio of r gives |log10 r|.
    Symmetric in its arguments.
    """
    cfg = cfg or MetricConfig()
    p = _cells(P)
    o = _cells(O)
    if p.shape != o.shape:
        raise InvalidInputError(f"shape mismatch: {p.shape} vs {o.shape}")
    logs = np.log10((p + cfg.alpha) / (o + cfg.alpha))
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
    empirical outcome distribution f / n_m.  Deterministic under the seed.
    """
    if sample_size <= 0:
        raise InvalidInputError("sample_size must be positive")
    if n_boot < 0:
        raise InvalidInputError("n_boot must be nonnegative")
    total = float(record.f.sum())
    if total <= 0:
        raise InvalidInputError("cannot bootstrap an empty record")
    probs = (record.f / total).reshape(-1)
    samples = []
    for b in range(n_boot):
        rng = substream(seed, "bootstrap", record.nu, b)
        counts = multinomial_counts(int(sample_size), probs, rng).reshape(4, 4)
        samples.append(
            CountRecord(counts.astype(float), int(sample_size), nu=record.nu)
        )
    return samples


def bootstrap_stats(samples, pipeline, batch=None) -> list[dict]:
    """Summary statistics of a pipeline over bootstrap samples.

    A sample is one CountRecord, or a tuple of records (one per setting)
    resampled together, whose ``sample_size`` is then their total trials.
    ``pipeline`` maps one sample to a mapping of characteristic name
    to value; samples on which it raises a package error (or returns
    non-finite values) are tallied in ``n_fail`` instead of aborting the
    aggregation.  ``batch``, if given, maps the whole sample list to one
    value per sample (say, every refit from one batched solve), and
    ``pipeline`` then receives those values instead of the samples.
    Returns one row per characteristic, sorted by name, with mean, std and
    the 5 / 50 / 95 percent quantiles.
    """
    if not samples:
        raise InvalidInputError("no bootstrap samples given")
    values: dict[str, list[float]] = {}
    n_fail = 0
    first = samples[0]
    sample_size = sum(r.n_m for r in first) if isinstance(first, tuple) else first.n_m
    for sample in samples if batch is None else batch(samples):
        try:
            result = pipeline(sample)
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
            f"bootstrap pipeline failed on all {len(samples)} samples"
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
