"""Maximum-likelihood reconstruction of photon number distributions.

The full-information estimator maximizes the ordinary multinomial
log-likelihood over all click outcomes (including the all-click events,
which carry the only direct evidence about two-photon cells).  Outcome
probabilities are linear in the cells, so that log-likelihood is concave
and one projected Fisher-scoring ascent in softmax coordinates, with every
cell floored relative to the vacuum cell, reaches its maximum.

Both estimators start from Neyman's minimum chi-square inversion of that
linear model, with no formula per detector layout; a cell the counts do
not resolve above one standard error starts on the floor.

A baseline estimator replicating the older extended-maximum-likelihood
scheme is included for comparison: it discards outcomes in which all
detectors of a mode clicked and fits setting-renormalized probabilities,
so it needs at least two attenuator settings.  Its objective is not
concave, so it runs multi-start L-BFGS on the same likelihood terms.

Record sets that share a model (bootstrap draws, the reps of a sweep
cell) go through one call of either estimator's ``*_many`` form: ML runs
one ascent vectorized over the sets, EML fits them one after another.

Count-ratio estimators of g2 / heralded g2 / pair probability are provided
for comparison with the reconstructed values; they accept raw or
noise-corrected records.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .detection import (
    CountRecord,
    DetectorPair,
    counts_with_clicks,
    outcome_map,
    singles,
)
from .errors import (
    DataModelMismatchError,
    InvalidInputError,
    UndefinedCharacteristicError,
    check_count,
)
from .pnd import CharacteristicSet, PndMatrix, characteristics
from .rng import substream

_FLOOR = 1e-15  # smallest cell, relative to cell 0
_KKT_TOL = 1e-9  # ML: largest per-count gain of growing any cell
_GAIN_TOL = 1e-14  # ML: largest relative log-likelihood gain left at convergence
_GTOL = 1e-11  # EML's L-BFGS per-count gradient tolerance
_FTOL = 1e-14  # EML's L-BFGS relative objective tolerance
_MAX_STEP = 2.0  # ML: max-norm cap of one Newton step in z
_TINY = np.finfo(float).smallest_subnormal  # below every positive probability


@dataclass(frozen=True)
class LikelihoodModel:
    """Known detection parameters of a bipartite measurement.

    Detector efficiencies, splitter ratios and noise probabilities are
    assumed calibrated beforehand; ``settings`` lists the attenuator pair
    (gamma_s, gamma_i) of each setting index nu, so both detector pairs
    keep ``gamma = 1``.
    """

    det_s: DetectorPair
    det_i: DetectorPair
    settings: tuple = ((1.0, 1.0),)
    n_max: int = 2

    def __post_init__(self):
        if not self.settings:
            raise InvalidInputError("model needs at least one setting")
        if self.n_max < 1:
            raise InvalidInputError("n_max must be >= 1")
        if self.det_s.gamma != 1.0 or self.det_i.gamma != 1.0:
            raise InvalidInputError(
                "detector pairs of a model must have gamma = 1; put attenuators in settings"
            )
        for nu in range(len(self.settings)):
            self.detectors(nu)  # checks the setting's gammas

    def detectors(self, nu: int) -> tuple[DetectorPair, DetectorPair]:
        """Signal and idler detector pairs behind setting ``nu``'s attenuators."""
        gamma_s, gamma_i = self.settings[nu]
        return self.det_s.with_gamma(gamma_s), self.det_i.with_gamma(gamma_i)

    def maps(self, nu: int) -> tuple[np.ndarray, np.ndarray]:
        det_s, det_i = self.detectors(nu)
        return outcome_map(det_s, self.n_max), outcome_map(det_i, self.n_max)

    def outcome_probs(self, P: np.ndarray, nu: int) -> np.ndarray:
        A, B = self.maps(nu)
        return A @ P @ B.T

    def hash(self) -> str:
        text = repr(
            (
                self.det_s,
                self.det_i,
                tuple((float(a), float(b)) for a, b in self.settings),
                self.n_max,
            )
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class SingleModeModel:
    """Known detection parameters of a single-mode measurement.

    ``layout`` is "2d" for the split-and-two-detectors scheme or "1d" for
    a plain on/off detector, in which case everything is routed to the
    transmitted detector and the outcomes collapse to (no click, click).
    """

    T: float
    eta_t: float
    eta_r: float
    d_t: float
    d_r: float
    gammas: tuple
    layout: str = "2d"
    n_max: int = 2

    def __post_init__(self):
        if not self.gammas:
            raise InvalidInputError("model needs at least one attenuator setting")
        if self.layout not in ("1d", "2d"):
            raise InvalidInputError(f"layout must be '1d' or '2d', got {self.layout!r}")
        for nu in range(len(self.gammas)):
            self.detector(nu)  # checks the detector parameters and the setting's gamma

    @classmethod
    def two_detector(cls, T, eta, d, gammas, n_max: int = 2) -> "SingleModeModel":
        return cls(T=T, eta_t=eta, eta_r=eta, d_t=d, d_r=d, gammas=tuple(gammas), n_max=n_max)

    @classmethod
    def one_detector(cls, eta, d, gammas, n_max: int = 2) -> "SingleModeModel":
        return cls(
            T=1.0, eta_t=eta, eta_r=0.0, d_t=d, d_r=0.0,
            gammas=tuple(gammas), layout="1d", n_max=n_max,
        )

    @property
    def n_outcomes(self) -> int:
        return 2 if self.layout == "1d" else 4

    def detector(self, nu: int) -> DetectorPair:
        """The detector pair behind setting ``nu``'s attenuator."""
        return DetectorPair(
            T=self.T, eta_t=self.eta_t, eta_r=self.eta_r,
            d_t=self.d_t, d_r=self.d_r, gamma=self.gammas[nu],
        )

    def map(self, nu: int) -> np.ndarray:
        C = outcome_map(self.detector(nu), self.n_max)
        if self.layout == "1d":
            C = np.vstack([C[0] + C[1], C[2] + C[3]])
        return C

    def forward_probs(self, pv, nu: int) -> np.ndarray:
        return self.map(nu) @ np.asarray(pv, dtype=float)


@dataclass(frozen=True)
class EstimateOptions:
    """Fit budget.

    ``max_iter`` caps the Newton steps of an ML fit and the L-BFGS
    iterations of each EML start.  ``n_starts`` and ``seed`` only steer
    EML's jittered restarts: the ML log-likelihood is concave, so ML
    ascends once from the moment start.
    """

    n_starts: int = 5
    max_iter: int = 10000
    seed: int = 0

    def __post_init__(self):
        check_count("n_starts", self.n_starts, 1)
        check_count("max_iter", self.max_iter, 0)


@dataclass(frozen=True)
class StartResult:
    loglik: float
    iterations: int
    converged: bool


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """Best reconstruction over all starts plus per-start diagnostics."""

    p_hat: object  # PndMatrix for bipartite fits, ndarray for single-mode
    loglik: float
    iterations: int
    converged: bool
    starts: tuple = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# likelihood machinery
#
# Every model is a kernel stack K (records x outcomes x cells) with counts
# F (records x outcomes): record v has outcome probabilities W_v = K_v p
# in the row-major cells p.  One loglik, score and expected Fisher matrix
# of W serve every estimator; EML adds its per-outcome renormalization
# term.
#
# F, W and p may carry a leading problem axis over one shared K (problems
# x records x outcomes, problems x cells).  Every reduction then runs per
# problem exactly as for a lone problem, so no value depends on its batch.


def _check_records(records, model) -> None:
    if not isinstance(model, (LikelihoodModel, SingleModeModel)):
        raise InvalidInputError(f"unknown model type {type(model)!r}")
    if not records:
        raise InvalidInputError("at least one count record is required")
    n_settings = len(model.settings) if isinstance(model, LikelihoodModel) else len(model.gammas)
    for rec in records:
        if not (0 <= rec.nu < n_settings):
            raise DataModelMismatchError(
                f"record setting nu={rec.nu} outside model settings (0..{n_settings - 1})"
            )
        if isinstance(model, SingleModeModel) and rec.f.shape != (model.n_outcomes,):
            raise DataModelMismatchError(
                f"record has {rec.f.shape[0]} outcomes, model expects {model.n_outcomes}"
            )


def _kernels(records, model) -> np.ndarray:
    """Kernel stack K of the records' settings; a bipartite kernel is kron(A, B)."""
    bipartite = isinstance(model, LikelihoodModel)
    return np.stack(
        [np.kron(*model.maps(rec.nu)) if bipartite else model.map(rec.nu) for rec in records]
    )


def _counts(records) -> np.ndarray:
    """Count stack F (records x outcomes)."""
    return np.stack([rec.f.reshape(-1) for rec in records])


def _probs(K, p) -> np.ndarray:
    """Outcome probabilities W = K p of every record (and problem)."""
    return (K @ p[..., None, :, None])[..., 0]


def _loglik(W, F, used=None) -> np.ndarray:
    """Log-likelihood sum F log W per problem; -inf where counts meet W = 0.

    A ``used`` outcome mask gives EML's objective instead: only the used
    outcomes count, each renormalized over the records (settings).
    """
    seen = F > 0 if used is None else (F > 0) & used
    W_seen = np.where(seen, W, 1.0)
    infeasible = (W_seen <= 0.0).any(axis=-1).any(axis=-1)
    # Per-record sums first, so that swapping two records keeps every bit.
    # _TINY only keeps the logs of infeasible problems finite.
    ll = np.where(seen, F * np.log(np.maximum(W_seen, _TINY)), 0.0).sum(axis=-1).sum(axis=-1)
    if used is not None:
        S = W.sum(axis=-2)[..., used]
        infeasible |= (S <= 0.0).any(axis=-1)
        ll = ll - (F.sum(axis=-2)[..., used] * np.log(np.maximum(S, _TINY))).sum(axis=-1)
    return np.where(infeasible, -np.inf, ll)


def _score(K, W, F, used=None) -> np.ndarray:
    """Gradient of ``_loglik`` in the cells p, where W = K p."""
    seen = F > 0 if used is None else (F > 0) & used
    ratio = np.where(seen, F / np.where(seen, W, 1.0), 0.0)
    if used is not None:
        totals = F.sum(axis=-2, keepdims=True) / np.where(used, W.sum(axis=-2, keepdims=True), 1.0)
        ratio -= np.where(used, totals, 0.0)
    return np.einsum("...vo,voc->...c", ratio, K)


def _fisher(K, W, F) -> np.ndarray:
    """Expected information in the cells p, sum_v n_v K_v^T diag(1/W_v) K_v."""
    weight = F.sum(axis=-1)[..., None] / np.where(W > 0.0, W, np.inf)
    return np.einsum("voc,...vo,vod->...cd", K, weight, K)


def _softmax_cells(z: np.ndarray) -> np.ndarray:
    """Probabilities over n cells from n-1 free coordinates (cell 0 pinned)."""
    pinned = np.zeros(z.shape[:-1] + (1,))
    e = np.exp(np.concatenate([pinned, z], axis=-1) - z.max(axis=-1, initial=0.0, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_jacobian(p: np.ndarray) -> np.ndarray:
    """d p_j / d z_c for the free coordinates c = 1..n-1; shape (..., n-1, n)."""
    n = p.shape[-1]
    J = -(p[..., :, None] * p[..., None, :])
    J.reshape(J.shape[:-2] + (n * n,))[..., :: n + 1] += p  # the diagonal: p - p**2
    return J[..., 1:, :]


def log_likelihood(P, records, model) -> float:
    """Total multinomial log-likelihood of count records under P.

    ``P`` may be a PndMatrix with a bipartite model or a probability
    vector with a single-mode model.  Outcomes with zero probability but
    nonzero counts make the result -inf, the typed infeasible value.
    """
    _check_records(records, model)
    p = P.p if isinstance(P, PndMatrix) else np.asarray(P, dtype=float)
    return float(_loglik(_probs(_kernels(records, model), p.reshape(-1)), _counts(records)))


def _solve_each(a, b) -> np.ndarray:
    """Solutions of a stack of systems; NaN for a singular one."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full(b.shape, np.nan)
        return np.concatenate([_solve_each(a[i : i + 1], b[i : i + 1]) for i in range(len(a))])


def _scaled_solve(info, rhs):
    """Solutions of a stack of systems info x = rhs, and the scales
    1 / sqrt(diag info), each coordinate's standard error with the others
    held.  The 1e-12 ridge goes on after scaling to unit diagonal, so it
    cannot swamp a small cell, whose entry scales as its square.
    """
    d = 1.0 / np.sqrt(info.diagonal(axis1=-2, axis2=-1))
    scaled = d[..., :, None] * info * d[..., None, :] + 1e-12 * np.eye(d.shape[-1])
    return d * _solve_each(scaled, d * rhs), d


def _scoring_steps(J, fisher, score, free) -> np.ndarray:
    """Fisher-scoring steps in z over each problem's ``free`` coordinates.

    Problems with the same free set are solved as one stack.
    """
    step = np.zeros(score.shape)
    if len(free) == 1 or (free == free[0]).all():
        groups = [slice(None)]
    else:
        by_mask: dict[bytes, list[int]] = {}
        for i, row in enumerate(free):
            by_mask.setdefault(row.tobytes(), []).append(i)
        groups = list(by_mask.values())
    for rows in groups:
        mask = free[rows][0]
        if not mask.any():
            continue
        Jf = J[rows][:, mask]
        x, _ = _scaled_solve(Jf @ fisher[rows] @ Jf.transpose(0, 2, 1), score[rows][:, mask])
        step[(rows, mask) if isinstance(rows, slice) else np.ix_(rows, mask)] = x
    return step


def _fisher_scoring(K, F, Z, max_iter: int):
    """Projected Fisher-scoring ascent of the concave ML log-likelihood.

    Fits every problem of the count stack F (problems x records x outcomes)
    from its start in Z (problems x cells-1).  Cells stay at or above
    ``_FLOOR`` relative to cell 0.  A cell on the floor with an outward
    score is held there; one whose step crosses the floor with an outward
    score is sent there, and the rest are solved again without it.  The
    other moves are capped at ``_MAX_STEP``, and the projected step is
    halved until the log-likelihood does not fall.  Converged means the
    KKT conditions hold in p (no cell gains more than ``_KKT_TOL`` per
    count from growing) and a full step would gain at most ``_GAIN_TOL``
    of the log-likelihood.  A problem leaves the live set once it
    converges or fails; each takes exactly the steps it would take alone.
    Returns (Z, steps, converged), one entry per problem.
    """
    n = np.maximum(F.reshape(len(F), -1).sum(axis=1), 1.0)
    z_floor = np.log(_FLOOR)
    Z = np.maximum(Z, z_floor)
    steps = np.zeros(len(F), dtype=int)
    converged = np.zeros(len(F), dtype=bool)
    ll = _loglik(_probs(K, _softmax_cells(Z)), F)
    # The live problems, each k steps in; one leaves by writing back its z.
    live = np.flatnonzero(np.isfinite(ll))
    z, f, n, ll = Z[live], F[live], n[live], ll[live]
    k = 0
    while live.size:
        p = _softmax_cells(z)
        W = _probs(K, p)
        score_p = _score(K, W, f) / n[:, None]
        J = _softmax_jacobian(p)
        score, fisher = (J @ score_p[..., None])[..., 0], _fisher(K, W, f) / n[:, None, None]
        free = (z > z_floor) | (score > 0.0)
        step = _scoring_steps(J, fisher, score, free)
        gain = 0.5 * n * (score[:, None, :] @ step[..., None])[:, 0, 0]
        done = (score_p.max(axis=1) - 1.0 <= _KKT_TOL) & (
            gain <= _GAIN_TOL * np.maximum(np.abs(ll), 1.0)
        )
        stay = ~done & np.isfinite(step).all(axis=1) & (k < max_iter)
        if not stay.all():
            converged[live[done]] = True
            Z[live[~stay]], steps[live[~stay]] = z[~stay], k
            live, z, f, n, ll, step = live[stay], z[stay], f[stay], n[stay], ll[stay], step[stay]
            J, fisher, score, free = J[stay], fisher[stay], score[stay], free[stay]
            if not live.size:
                break
        lands = free & (z + step <= z_floor) & (score < 0.0)
        again = np.flatnonzero(lands.any(axis=1))
        if again.size:
            resolved = _scoring_steps(J[again], fisher[again], score[again], (free & ~lands)[again])
            step[again] = np.where(lands[again], step[again], resolved)
        moves = np.where(lands, 0.0, np.abs(np.maximum(z + step, z_floor) - z))
        norm = moves.max(axis=1, initial=0.0)
        capped = norm > _MAX_STEP
        if capped.any():
            step[capped] *= (_MAX_STEP / norm[capped])[:, None]
        # Backtracking: up to 30 tries, the step halved after each miss.
        floor_ll = ll - 1e-12 * np.maximum(np.abs(ll), 1.0)
        trial = np.maximum(z + step, z_floor)
        ll_trial = _loglik(_probs(K, _softmax_cells(trial)), f)
        short = np.flatnonzero(~(ll_trial >= floor_ll))
        for _ in range(29):
            if not short.size:
                break
            step[short] *= 0.5
            trial[short] = np.maximum(z[short] + step[short], z_floor)
            ll_trial[short] = _loglik(_probs(K, _softmax_cells(trial[short])), f[short])
            short = short[~(ll_trial[short] >= floor_ll[short])]
        moved = ~(trial == z).all(axis=1)
        moved[short] = False
        if not moved.all():
            Z[live[~moved]], steps[live[~moved]] = z[~moved], k
            live, f, n, trial, ll_trial = live[moved], f[moved], n[moved], trial[moved], ll_trial[moved]
        z, ll = trial, ll_trial
        k += 1
    return Z, steps, converged


def _starts(K, F) -> np.ndarray:
    """Moment start of every problem in the free coordinates z.

    Neyman's minimum chi-square: the least-squares inversion of W = K p
    against the observed frequencies y_vo = F_vo / n_v, each outcome
    weighted by n_v^2 / max(F_vo, 1), so one never seen pins its prediction
    near 0.  Its normal equations are the information and score of
    ``_fisher`` and ``_score`` taken at those frequencies, with an unseen
    outcome counted once.  A cell whose solution is not above its standard
    error with the other cells held (NaN included) starts on ``_FLOOR``.
    """
    n = np.maximum(F.sum(axis=-1, keepdims=True), 1.0)
    seen = np.maximum(F, 1.0) / n
    p, se = _scaled_solve(_fisher(K, seen, F), _score(K, seen, F))
    resolved = p > se
    # An unresolved vacuum cell leaves no scale; the others then count from 1.
    vacuum = np.where(resolved[..., :1], p[..., :1], 1.0)
    return np.log(np.where(resolved[..., 1:], p[..., 1:] / vacuum, _FLOOR))


# ---------------------------------------------------------------------------
# fits


def _fitted(p: np.ndarray, model):
    return PndMatrix(p.reshape(model.n_max + 1, -1)) if isinstance(model, LikelihoodModel) else p


def ml_estimate(records, model, options: EstimateOptions | None = None) -> EstimateResult:
    """Full-information maximum likelihood over all click outcomes.

    The log-likelihood is concave in the cells, so one projected
    Fisher-scoring ascent from the moment start reaches the maximum; its
    Newton steps are the fit's iterations.  This is the one-set call of
    :func:`ml_estimate_many`.
    """
    return ml_estimate_many([records], model, options)[0]


def ml_estimate_many(record_sets, model, options: EstimateOptions | None = None) -> list:
    """:func:`ml_estimate` of every record set, fitted in one batched ascent.

    Every set must hold the same settings in the same order, as the
    bootstrap draws of one acquisition or the reps of one sweep cell do,
    so that all share one kernel stack; otherwise DataModelMismatchError.
    Each set's result is bit-identical to its lone ``ml_estimate`` fit.  A
    set whose fit fails, such as one with counts on an outcome the model
    cannot produce, comes back with ``converged=False``; the others are
    not disturbed.
    """
    options = options or EstimateOptions()
    record_sets = [list(records) for records in record_sets]
    if not record_sets:
        raise InvalidInputError("at least one record set is required")
    nus = [rec.nu for rec in record_sets[0]]
    for i, records in enumerate(record_sets):
        _check_records(records, model)
        if [rec.nu for rec in records] != nus:
            raise DataModelMismatchError(
                f"record set {i} has settings {[rec.nu for rec in records]}, "
                f"the first set {nus}"
            )
    K = _kernels(record_sets[0], model)
    F = np.stack([_counts(records) for records in record_sets])
    Z, steps, converged = _fisher_scoring(K, F, _starts(K, F), options.max_iter)
    P = _softmax_cells(Z)
    results = []
    for p, loglik, n_steps, ok in zip(P, _loglik(_probs(K, P), F), steps.tolist(), converged.tolist()):
        loglik = float(loglik)
        results.append(
            EstimateResult(
                p_hat=_fitted(p, model),
                loglik=loglik,
                iterations=n_steps,
                converged=ok,
                starts=(StartResult(loglik=loglik, iterations=n_steps, converged=ok),),
            )
        )
    return results


def _eml_used_mask(model) -> np.ndarray:
    """Outcome mask used by the baseline: drop any status in which both
    detectors of a mode clicked."""
    if isinstance(model, LikelihoodModel):
        keep = np.arange(4) < 3
        return np.outer(keep, keep).reshape(-1)
    return np.arange(model.n_outcomes) < model.n_outcomes - 1


def _neg_eml(z, K, F, used, scale):
    """Negated EML objective over ``scale`` and its z-gradient."""
    p = _softmax_cells(z)
    W = _probs(K, p)
    ll = float(_loglik(W, F, used))
    if not np.isfinite(ll):
        return np.inf, np.zeros_like(z)
    return -ll / scale, -(_softmax_jacobian(p) @ _score(K, W, F, used)) / scale


def eml_estimate(records, model, options: EstimateOptions | None = None) -> EstimateResult:
    """Baseline fit on setting-renormalized probabilities.

    For every used outcome o the probabilities across settings are
    renormalized to W_o(nu) / sum_lambda W_o(lambda) and the counts fitted
    against that distribution, so the absolute click fraction carries no
    weight.  All-click outcomes are excluded.  Needs >= 2 settings.  The
    objective is not concave, so L-BFGS runs from the moment start and
    from ``n_starts - 1`` jittered restarts; the best final value wins.
    """
    options = options or EstimateOptions()
    _check_records(records, model)
    n_settings = len(model.settings) if isinstance(model, LikelihoodModel) else len(model.gammas)
    if n_settings < 2:
        raise InvalidInputError("the baseline needs at least two attenuator settings")
    K, F = _kernels(records, model), _counts(records)
    used = _eml_used_mask(model)
    scale = max(float(F[:, used].sum()), 1.0)
    z0 = _starts(K, F[None])[0]
    rng = substream(options.seed, "estimate-starts")
    best, starts = None, []
    for z in [z0] + [z0 + rng.standard_normal(z0.size) for _ in range(int(options.n_starts) - 1)]:
        res = minimize(
            _neg_eml, z, args=(K, F, used, scale), jac=True, method="L-BFGS-B",
            options={"maxiter": options.max_iter, "ftol": _FTOL, "gtol": _GTOL, "maxls": 60},
        )
        starts.append(StartResult(loglik=-res.fun, iterations=res.nit, converged=bool(res.success)))
        if best is None or -res.fun > -best.fun:
            best = res
    return EstimateResult(
        p_hat=_fitted(_softmax_cells(best.x), model),
        loglik=-best.fun * scale,
        iterations=int(best.nit),
        converged=bool(best.success),
        starts=tuple(starts),
    )


def eml_estimate_many(record_sets, model, options: EstimateOptions | None = None) -> list:
    """:func:`eml_estimate` of every record set, one fit per set in order.

    Takes the arguments of :func:`ml_estimate_many`, so callers fit many
    record sets the same way with either estimator.
    """
    if not record_sets:
        raise InvalidInputError("at least one record set is required")
    return [eml_estimate(list(records), model, options) for records in record_sets]


# ---------------------------------------------------------------------------
# count-ratio estimators


def count_based_g2(rec: CountRecord, mode: str = "s") -> float:
    """g2 from the classic coincidence-over-singles ratio C_tr / (S_t S_r).

    Marginalizes the 16-outcome record onto the chosen mode's detector
    pair.  Noise clicks bias this estimator toward 1; feed it a
    noise-corrected record to undo that.
    """
    if mode not in ("s", "i"):
        raise InvalidInputError(f"mode must be 's' or 'i', got {mode!r}")
    f = rec.f if mode == "s" else rec.f.T
    S_t = float(f[2:, :].sum())
    S_r = float(f[np.ix_((1, 3), range(4))].sum())
    if S_t <= 0.0 or S_r <= 0.0:
        raise UndefinedCharacteristicError("count-based g2 undefined: zero singles")
    C = float(f[3, :].sum())
    return C * rec.n_m / (S_t * S_r)


def count_based_gh2(rec: CountRecord, heralded: str = "s") -> float:
    """Heralded g2 from counting rates, C_trh * S_h / (C_th * C_rh).

    The heralding mode collapses to the union click of its two detectors.
    With imperfect heralding-side detection this ratio sits above the
    distribution value by up to a factor (2 - eta) when two-pair emission
    dominates the heralded mode's double clicks.
    """
    if heralded not in ("s", "i"):
        raise InvalidInputError(f"heralded must be 's' or 'i', got {heralded!r}")
    f = rec.f if heralded == "s" else rec.f.T
    S_h = float(f[:, 1:].sum())
    C_trh = float(f[3, 1:].sum())
    C_th = float(f[2:, 1:].sum())
    C_rh = float(f[np.ix_((1, 3), (1, 2, 3))].sum())
    if C_th <= 0.0 or C_rh <= 0.0:
        raise UndefinedCharacteristicError(
            "count-based heralded g2 undefined: zero heralded coincidences"
        )
    return C_trh * S_h / (C_th * C_rh)


def count_based_pg_eta(rec: CountRecord, etas) -> tuple[float, float, float]:
    """Pair probability and heralding efficiencies from corrected counts.

    p_g sums the four cross coincidence rates divided by the detector
    efficiency products (the splitter ratios cancel in the sum); the
    heralding efficiencies divide p_g by the efficiency-corrected singles
    of the opposite mode.  Returns (p_g, eta_H_s, eta_H_i).
    """
    etas = tuple(float(v) for v in etas)
    if len(etas) != 4 or any(not (0.0 < v <= 1.0) for v in etas):
        raise InvalidInputError("etas must be four efficiencies in (0, 1]")
    n = max(rec.n_m, 1)
    pair = 0.0
    for j in (1, 2):
        for k in (3, 4):
            pair += counts_with_clicks(rec.f, [j, k]) / (etas[j - 1] * etas[k - 1])
    p_g = pair / n
    S = singles(rec)
    den_i = (S[2] / etas[2] + S[3] / etas[3]) / n
    den_s = (S[0] / etas[0] + S[1] / etas[1]) / n
    if den_i <= 0.0 or den_s <= 0.0:
        raise UndefinedCharacteristicError("count-based eta_H undefined: zero singles")
    return p_g, p_g / den_i, p_g / den_s


def characterize(result: EstimateResult) -> CharacteristicSet:
    """Source characteristics of a reconstructed distribution.

    Pure delegation to the distribution-level formulas; callers should
    check ``result.converged`` before trusting the values.
    """
    if not isinstance(result.p_hat, PndMatrix):
        raise InvalidInputError("characterize needs a bipartite estimate")
    return characteristics(result.p_hat)
