"""Synthetic experiments: count sampling, random sources, parameter sweeps.

Counts are exact multinomial draws implemented as a conditional-binomial
chain, so a trial budget of 1e12 costs the same as 16 binomial draws.
Sweep cells and repetitions are keyed into independent counter-based
streams (see :mod:`ppskit.rng`), which makes results independent of
execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import estimate as est
from .detection import CountRecord, DetectorPair, OutcomeProbs, SingleCountRecord, bipartite_probs
from .errors import InvalidInputError, PpskitError, check_count
from .metrics import rmsle
from .pnd import PndMatrix, g2_marginal
from .rng import multinomial_counts, substream
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
    return substream(0 if seed is None else int(seed))


def sample_counts(W: OutcomeProbs, n_m: int, seed, nu: int = 0) -> CountRecord:
    """Multinomial count table for one setting; same seed, same counts."""
    if n_m < 0:
        raise InvalidInputError("n_m must be nonnegative")
    if W.probs.shape != (4, 4):
        raise InvalidInputError("sample_counts expects a bipartite outcome table")
    rng = _as_rng(seed)
    counts = multinomial_counts(n_m, W.probs.reshape(-1), rng).reshape(4, 4)
    return CountRecord(counts.astype(float), int(n_m), nu=nu)


def sample_single_counts(probs: np.ndarray, n_m: int, seed, nu: int = 0) -> SingleCountRecord:
    """Multinomial draw over single-mode outcomes (length 2 or 4)."""
    rng = _as_rng(seed)
    counts = multinomial_counts(n_m, np.asarray(probs, dtype=float), rng)
    return SingleCountRecord(counts.astype(float), int(n_m), nu=nu)


def random_pps_pnd(p_g: float, seed) -> PndMatrix:
    """Random pair-source matrix: first-order cells p_g * r, second-order
    cells p_g^2 * r with fresh r ~ U[0.5, 1.5] per cell; vacuum completes."""
    if not (0.0 < p_g <= 0.1):
        raise InvalidInputError(f"p_g must lie in (0, 0.1], got {p_g}")
    rng = _as_rng(seed)
    p = np.zeros((3, 3))
    for j in range(3):
        for k in range(3):
            if max(j, k) == 1:
                p[j, k] = p_g * rng.uniform(0.5, 1.5)
            elif max(j, k) == 2:
                p[j, k] = p_g**2 * rng.uniform(0.5, 1.5)
    rest = p.sum()
    if rest >= 1.0:
        raise InvalidInputError(f"p_g={p_g} too large to normalize")
    p[0, 0] = 1.0 - rest
    return PndMatrix(p)


def random_single_pnd(p_g: float, seed) -> np.ndarray:
    """Random single-mode vector (1 - p_g - P2, p_g, P2) with
    P2 = p_g^2 g2 / 2 and g2 ~ U[1, 2]."""
    if not (0.0 < p_g <= 0.1):
        raise InvalidInputError(f"p_g must lie in (0, 0.1], got {p_g}")
    rng = _as_rng(seed)
    g2 = rng.uniform(1.0, 2.0)
    p2 = p_g**2 * g2 / 2.0
    return np.array([1.0 - p_g - p2, p_g, p2])


@dataclass(frozen=True)
class ExperimentConfig:
    """One synthetic acquisition: a source, detectors, settings, a budget."""

    pnd: PndMatrix
    det_s: DetectorPair
    det_i: DetectorPair
    settings: tuple = ((1.0, 1.0),)
    n_m: int = 10**6
    seed: int = 0
    reps: int = 1

    def __post_init__(self):
        check_count("n_m", self.n_m, 1)
        check_count("reps", self.reps, 1)
        if not self.settings:
            raise InvalidInputError("at least one attenuator setting is required")


def _setting_record(model, truth, nu: int, n_m: int, rng):
    """Record of setting ``nu``: expected counts if ``rng`` is None, else sampled."""
    if isinstance(model, est.LikelihoodModel):
        W = bipartite_probs(truth, *model.detectors(nu))
        if rng is None:
            return CountRecord(n_m * W.probs, n_m, nu=nu)
        return sample_counts(W, n_m, rng, nu=nu)
    probs = model.forward_probs(truth, nu)
    if rng is None:
        return SingleCountRecord(n_m * probs, n_m, nu=nu)
    return sample_single_counts(probs, n_m, rng, nu=nu)


def simulate_records(config: ExperimentConfig, rep: int = 0) -> list[CountRecord]:
    """Sampled count records for every attenuator setting of one repetition."""
    model = est.LikelihoodModel(det_s=config.det_s, det_i=config.det_i, settings=config.settings)
    return [
        _setting_record(model, config.pnd, nu, config.n_m, substream(config.seed, "experiment", rep, nu))
        for nu in range(len(config.settings))
    ]


@dataclass(frozen=True)
class SweepSpec:
    """Grid of simulated estimation problems.

    ``gamma_design`` chooses the attenuator plan for bipartite methods:
    "none" measures once at full transmission, "va4" adds the four
    combinations of 0.5 / 1.0 on the two arms (four times the raw budget).
    Single-mode methods always use ``single_gammas``.
    """

    p_g_grid: tuple
    n_m_grid: tuple
    eta_grid: tuple = (0.5,)
    d_grid: tuple = (0.0,)
    gamma_design: str = "none"
    reps: int = 100
    bs_T: float = 0.5
    single_gammas: tuple = DEFAULT_SINGLE_GAMMAS
    exact_counts: bool = False
    n_starts: int = 5
    max_iter: int = 10000

    def __post_init__(self):
        for name in ("p_g_grid", "n_m_grid", "eta_grid", "d_grid"):
            if len(getattr(self, name)) == 0:
                raise InvalidInputError(f"{name} must be nonempty")
        if self.gamma_design not in ("none", "va4"):
            raise InvalidInputError(f"unknown gamma design {self.gamma_design!r}")
        check_count("reps", self.reps, 1)
        for n_m in self.n_m_grid:
            check_count("n_m_grid entry", n_m, 1)
        est.EstimateOptions(n_starts=self.n_starts, max_iter=self.max_iter)  # validates both


def _bipartite_settings(design: str) -> tuple:
    if design == "va4":
        return ((1.0, 1.0), (1.0, 0.5), (0.5, 1.0), (0.5, 0.5))
    return ((1.0, 1.0),)


_FIT_FAILURES = (PpskitError, ArithmeticError, np.linalg.LinAlgError)

_NAN_CHARS = {name: float("nan") for name in
              ("pg_hat", "etaHs_hat", "etaHi_hat", "g2s_hat", "g2i_hat",
               "gh2s_hat", "gh2i_hat")}


def _cell(spec, method, layout, p_g, n_m, eta, d, seed, cell_id, rows):
    if layout == "2x2d":
        det = DetectorPair(T=spec.bs_T, eta_t=eta, eta_r=eta, d_t=d, d_r=d)
        settings = _bipartite_settings(spec.gamma_design)
        model = est.LikelihoodModel(det_s=det, det_i=det, settings=settings)
        random_truth, gamma_label = random_pps_pnd, spec.gamma_design
    else:
        settings = spec.single_gammas
        if layout == "2d":
            model = est.SingleModeModel.two_detector(T=spec.bs_T, eta=eta, d=d, gammas=settings)
        else:
            model = est.SingleModeModel.one_detector(eta=eta, d=d, gammas=settings)
        random_truth, gamma_label = random_single_pnd, f"va{len(settings)}"
    options = est.EstimateOptions(n_starts=spec.n_starts, max_iter=spec.max_iter)
    truths, record_sets = [], []
    for rep in range(int(spec.reps)):
        truth = random_truth(p_g, substream(seed, "pnd", cell_id, rep))
        truths.append(truth)
        record_sets.append([
            _setting_record(
                model, truth, nu, int(n_m),
                None if spec.exact_counts else substream(seed, "counts", cell_id, rep, nu),
            )
            for nu in range(len(settings))
        ])
    # Every rep shares the model, so one call fits them all.
    fit_many = est.ml_estimate_many if method == "ml" else est.eml_estimate_many
    fits = fit_many(record_sets, model, options)
    for rep, (truth, fit) in enumerate(zip(truths, fits)):
        row = {
            "cell_id": cell_id, "p_g": p_g, "n_m": n_m, "eta": eta, "d": d,
            "gamma": gamma_label, "rep": rep, **_NAN_CHARS,
        }
        try:
            row["rmsle"] = rmsle(fit.p_hat, truth)
            if layout == "2x2d":
                chars = est.characterize(fit)
                row.update(
                    pg_hat=chars.p_g, etaHs_hat=chars.eta_H_s, etaHi_hat=chars.eta_H_i,
                    g2s_hat=chars.g2_s, g2i_hat=chars.g2_i,
                    gh2s_hat=chars.gh2_s, gh2i_hat=chars.gh2_i,
                )
            else:
                row.update(
                    pg_hat=float(fit.p_hat[1]), g2s_hat=g2_marginal(fit.p_hat, truncated=True)
                )
            row["converged"] = fit.converged
        except _FIT_FAILURES:  # failures are data, not fatal; coding bugs still raise
            row.update(rmsle=float("nan"), converged=False, **_NAN_CHARS)
        rows.append(row)


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
