"""Synthetic experiments: count sampling, random sources, parameter sweeps.

Counts are exact multinomial draws (:func:`ppskit.rng.multinomial_counts`),
so a trial budget of 1e12 costs the same as 1e3.  They are drawn from
the fit's own outcome probabilities W = K p, K being the detection
model's stored ``kernels``, so the simulator and the estimators share one
forward model.  Every repetition draws from its own counter-based
streams (see :mod:`ppskit.rng`): its truth from ``substream(seed, "pnd",
cell, rep)`` and all its settings' counts in one draw, from
``substream(seed, "counts", cell, rep)`` in a sweep cell and
``substream(seed, "experiment", rep)`` in :func:`simulate_records`.  So
results do not depend on execution order, and rep r's counts do not
depend on how many reps run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import estimate as est
from .detection import (
    CountRecord,
    DetectorPair,
    OutcomeProbs,
    SingleCountRecord,
    check_counts,
)
from .errors import InvalidInputError, check_count, check_trials
from .metrics import _cells, rmsle_many
from .pnd import PndMatrix, _g2_truncated, characteristics_many, checked_cells
from .rng import check_seed, multinomial_counts, outcome_rows, substream, substreams
from .tables import write_table

DEFAULT_SINGLE_GAMMAS = tuple(round(0.1 * k, 1) for k in range(1, 11))

SWEEP_COLUMNS = (
    "cell_id",
    "p_g",
    "n_m",
    "eta",
    "d",
    "gamma",
    "rep",
    "rmsle",
    "pg_hat",
    "etaHs_hat",
    "etaHi_hat",
    "g2s_hat",
    "g2i_hat",
    "gh2s_hat",
    "gh2i_hat",
    "converged",
)


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return substream(0 if seed is None else seed)


def sample_counts(W: OutcomeProbs, n_m: int, seed, nu: int = 0) -> CountRecord:
    """Multinomial count table for one setting; same seed, same counts."""
    check_trials("n_m", n_m, 0)
    if W.probs.shape != (4, 4):
        raise InvalidInputError("sample_counts expects a bipartite outcome table")
    rng = _as_rng(seed)
    counts = multinomial_counts(n_m, W.probs.reshape(-1), rng).reshape(4, 4)
    return CountRecord(counts.astype(float), int(n_m), nu=nu)


def sample_single_counts(probs: np.ndarray, n_m: int, seed, nu: int = 0) -> SingleCountRecord:
    """Multinomial draw over single-mode outcomes (length 2 or 4)."""
    check_trials("n_m", n_m, 0)
    rng = _as_rng(seed)
    counts = multinomial_counts(n_m, np.asarray(probs, dtype=float), rng)
    return SingleCountRecord(counts.astype(float), int(n_m), nu=nu)


def _check_p_g(p_g) -> None:
    if not (0.0 < p_g <= 0.1):
        raise InvalidInputError(f"p_g must lie in (0, 0.1], got {p_g}")


# Photon order max(j, k) of each cell of a 3 x 3 PND but the vacuum, row-major.
_PAIR_ORDER = np.maximum.outer(np.arange(3), np.arange(3)).reshape(-1)[1:]


def _random_pps_cells(p_g: float, rngs) -> np.ndarray:
    """Cells (truths x 9, row-major) of one :func:`random_pps_pnd` matrix
    per generator of ``rngs``, each drawn from its own as it is taken; the
    PND rules run once over the stack."""
    _check_p_g(p_g)
    r = np.stack([rng.uniform(0.5, 1.5, size=8) for rng in rngs])  # vacuum skipped
    p = np.zeros((len(r), 9))
    p[:, 1:] = np.where(_PAIR_ORDER == 1, p_g, p_g**2) * r
    p[:, 0] = 1.0 - p.sum(axis=-1)  # at most 0.66 for p_g <= 0.1
    return checked_cells(p.reshape(-1, 3, 3)).reshape(-1, 9)


def random_pps_pnd(p_g: float, seed) -> PndMatrix:
    """Random pair-source matrix: first-order cells p_g * r, second-order
    cells p_g^2 * r with fresh r ~ U[0.5, 1.5] per cell; vacuum completes."""
    return PndMatrix(_random_pps_cells(p_g, [_as_rng(seed)]).reshape(3, 3))


def _random_single_cells(p_g: float, rngs) -> np.ndarray:
    """One :func:`random_single_pnd` vector per generator of ``rngs``
    (truths x 3), each drawn from its own as it is taken."""
    _check_p_g(p_g)
    p2 = p_g**2 * np.array([rng.uniform(1.0, 2.0) for rng in rngs]) / 2.0
    return np.stack([1.0 - p_g - p2, np.full_like(p2, p_g), p2], axis=-1)


def random_single_pnd(p_g: float, seed) -> np.ndarray:
    """Random single-mode vector (1 - p_g - P2, p_g, P2) with
    P2 = p_g^2 g2 / 2 and g2 ~ U[1, 2]."""
    return _random_single_cells(p_g, [_as_rng(seed)])[0]


@dataclass(frozen=True)
class ExperimentConfig:
    """One synthetic acquisition: a source, detectors, settings, a budget,
    and the ``model`` they make at the source's ``n_max``, built once."""

    pnd: PndMatrix
    det_s: DetectorPair
    det_i: DetectorPair
    settings: tuple = ((1.0, 1.0),)
    n_m: int = 10**6
    seed: int = 0
    reps: int = 1
    model: est.LikelihoodModel = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        check_trials("n_m", self.n_m, 1)
        check_count("reps", self.reps, 1)
        check_seed(self.seed)
        if self.pnd.subnormalized:
            raise InvalidInputError(
                "pnd must be normalized to draw counts; use PndMatrix.renormalized()"
            )
        model = est.LikelihoodModel(self.det_s, self.det_i, self.settings, self.pnd.n_max)
        object.__setattr__(self, "model", model)


def _draw_counts(model, truths: np.ndarray, n_m: int, rngs) -> np.ndarray:
    """Counts of every setting of ``model`` under each of ``truths``, the
    truths' cells one row each (truths x settings x outcomes).  The tables
    are the fit's own W = K p (:func:`ppskit.estimate._probs` on
    ``model.kernels``), all formed in one product.  Returns the expected
    counts n_m W if ``rngs`` is None.  Otherwise the tables are checked
    once (:func:`~ppskit.rng.outcome_rows`) and truth r's drawn as one
    multinomial call of ``n_m`` trials per setting, from the r-th
    generator of ``rngs``, drawn as it is taken."""
    W = est._probs(model.kernels, truths)
    if rngs is None:
        return n_m * W
    W = outcome_rows(W)
    return np.stack([rng.multinomial(n_m, w) for w, rng in zip(W, rngs)]).astype(float)


def _draw_records(model, truth, n_m: int, rng) -> list:
    """One record per setting of ``model``: expected counts if ``rng`` is
    None, else sampled from it (see :func:`_draw_counts`)."""
    n_m = check_trials("n_m", n_m, 0)
    F = _draw_counts(model, _cells(truth).reshape(1, -1), n_m, None if rng is None else [rng])[0]
    if isinstance(model, est.LikelihoodModel):
        return [CountRecord(f.reshape(4, 4), n_m, nu=nu) for nu, f in enumerate(F)]
    return [SingleCountRecord(f, n_m, nu=nu) for nu, f in enumerate(F)]


def simulate_records(config: ExperimentConfig, rep: int = 0) -> list[CountRecord]:
    """Sampled count records for every attenuator setting of one repetition,
    all drawn from ``substream(config.seed, "experiment", rep)``."""
    return _draw_records(config.model, config.pnd, config.n_m, substream(config.seed, "experiment", rep))


@dataclass(frozen=True)
class SweepSpec:
    """Grid of simulated estimation problems.

    ``gamma_design`` chooses the attenuator plan for bipartite methods:
    "none" measures once at full transmission, "va4" adds the four
    combinations of 0.5 / 1.0 on the two arms (four times the raw budget).
    Single-mode methods always use the ten attenuators
    ``DEFAULT_SINGLE_GAMMAS``.  ``n_starts`` and ``max_iter`` are each
    fit's :class:`~ppskit.estimate.EstimateOptions`; with the default one
    start, EML ascends once from its moment start, as ML does.
    """

    p_g_grid: tuple
    n_m_grid: tuple
    eta_grid: tuple = (0.5,)
    d_grid: tuple = (0.0,)
    gamma_design: str = "none"
    reps: int = 100
    bs_T: float = 0.5
    exact_counts: bool = False
    n_starts: int = 1
    max_iter: int = 10000

    def __post_init__(self):
        for name in ("p_g_grid", "n_m_grid", "eta_grid", "d_grid"):
            if len(getattr(self, name)) == 0:
                raise InvalidInputError(f"{name} must be nonempty")
        if self.gamma_design not in ("none", "va4"):
            raise InvalidInputError(f"unknown gamma design {self.gamma_design!r}")
        check_count("reps", self.reps, 1)
        for n_m in self.n_m_grid:
            check_trials("n_m_grid entry", n_m, 1)
        for p_g in self.p_g_grid:
            _check_p_g(p_g)
        for eta in self.eta_grid:  # checked as a cell's detectors check them
            for d in self.d_grid:
                DetectorPair(T=self.bs_T, eta_t=eta, eta_r=eta, d_t=d, d_r=d)
        est.EstimateOptions(n_starts=self.n_starts, max_iter=self.max_iter)  # validates both


def _bipartite_settings(design: str) -> tuple:
    if design == "va4":
        return ((1.0, 1.0), (1.0, 0.5), (0.5, 1.0), (0.5, 0.5))
    return ((1.0, 1.0),)


_NAN = float("nan")  # every undefined row value, so that equal rows compare equal


def _cell(spec, method, layout, p_g, n_m, eta, d, seed, cell_id, rows):
    if layout == "2x2d":
        det = DetectorPair(T=spec.bs_T, eta_t=eta, eta_r=eta, d_t=d, d_r=d)
        settings = _bipartite_settings(spec.gamma_design)
        model = est.LikelihoodModel(det_s=det, det_i=det, settings=settings)
        random_cells, gamma_label = _random_pps_cells, spec.gamma_design
    else:
        settings = DEFAULT_SINGLE_GAMMAS
        if layout == "2d":
            model = est.SingleModeModel.two_detector(T=spec.bs_T, eta=eta, d=d, gammas=settings)
        else:
            model = est.SingleModeModel.one_detector(eta=eta, d=d, gammas=settings)
        random_cells, gamma_label = _random_single_cells, f"va{len(settings)}"
    options = est.EstimateOptions(n_starts=spec.n_starts, max_iter=spec.max_iter)
    # Every rep shares the model, and the cell holds its reps as arrays
    # from the draw to the rows: all truths in one stack, every rep's tables
    # in one product and its counts in one draw from its own stream, into
    # one stack F (reps x settings x outcomes), checked once and fitted in
    # one batched call, whose cells give every rep's figures at once.
    trials, reps = int(n_m), range(int(spec.reps))
    truths = random_cells(p_g, substreams(seed, "pnd", cell_id, count=len(reps)))
    rngs = None if spec.exact_counts else substreams(seed, "counts", cell_id, count=len(reps))
    F = _draw_counts(model, truths, trials, rngs)
    check_counts(F, trials)
    fits = est._fit_stack(model.kernels, F, model, options, eml=method == "eml")
    P = fits.p
    if layout == "2x2d":
        chars, undefined = characteristics_many(P.reshape(-1, 3, 3))
    else:
        chars = np.full((len(P), 7), np.nan)
        chars[:, 0], chars[:, 3] = P[:, 1], _g2_truncated(P[:, 1], P[:, 2])
        undefined = np.isnan(chars[:, 3])
    # A rep whose figures are undefined is data, not fatal: NaN, unconverged.
    values = np.column_stack([rmsle_many(P, truths), chars])
    values[undefined] = np.nan
    cells = values.astype(object)
    cells[np.isnan(values)] = _NAN
    converged = fits.converged & ~undefined
    for rep, row, ok in zip(reps, cells.tolist(), converged.tolist()):
        rows.append(dict(zip(SWEEP_COLUMNS, (cell_id, p_g, n_m, eta, d, gamma_label, rep, *row, ok))))


def run_sweep(spec: SweepSpec, method: str = "ml-2x2d", seed: int = 0) -> list[dict]:
    """Run every (p_g, n_m, eta, d) cell of the sweep for one method.

    ``method`` is one of ml/eml crossed with 1d/2d/2x2d.  Rows are
    deterministic given the seed because each cell and repetition draws
    from its own substream; failures surface as converged=False rows.
    """
    try:
        kind, layout = method.split("-")
    except ValueError:
        raise InvalidInputError(f"method must look like 'ml-2x2d', got {method!r}")
    if kind not in ("ml", "eml") or layout not in ("1d", "2d", "2x2d"):
        raise InvalidInputError(f"unknown sweep method {method!r}")

    rows: list[dict] = []
    cell_id = 0
    for p_g in spec.p_g_grid:
        for n_m in spec.n_m_grid:
            for eta in spec.eta_grid:
                for d in spec.d_grid:
                    _cell(spec, kind, layout, p_g, n_m, eta, d, seed, cell_id, rows)
                    cell_id += 1
    return rows


def write_sweep_csv(path, rows) -> None:
    write_table(path, SWEEP_COLUMNS, ([row.get(col) for col in SWEEP_COLUMNS] for row in rows))
