"""Maximum-likelihood reconstruction of photon number distributions.

The full-information estimator maximizes the ordinary multinomial
log-likelihood over all click outcomes (including the all-click events,
which carry the only direct evidence about two-photon cells).  Outcome
probabilities are linear in the cells, so that log-likelihood is concave
and one projected Fisher-scoring ascent in softmax coordinates, with every
cell floored relative to the vacuum cell, reaches its maximum.

A baseline estimator replicating the older extended-maximum-likelihood
scheme is included for comparison: it discards outcomes in which all
detectors of a mode clicked and fits setting-renormalized probabilities,
so it needs at least two attenuator settings.  Its objective is not
concave, so it runs multi-start L-BFGS on the same likelihood terms.

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
    noise_correct,
    noise_correct_single,
    outcome_map,
    singles,
)
from .errors import (
    DataModelMismatchError,
    InvalidInputError,
    UndefinedCharacteristicError,
)
from .pnd import CharacteristicSet, PndMatrix, characteristics
from .rng import substream

_FLOOR = 1e-15  # smallest cell, relative to cell 0
_KKT_TOL = 1e-9  # ML: largest per-count gain of growing any cell
_GAIN_TOL = 1e-14  # ML: largest relative log-likelihood gain left at convergence
_GTOL = 1e-11  # EML's L-BFGS per-count gradient tolerance
_FTOL = 1e-14  # EML's L-BFGS relative objective tolerance
_MAX_STEP = 2.0  # ML: max-norm cap of one Newton step in z


@dataclass(frozen=True)
class LikelihoodModel:
    """Known detection parameters of a bipartite measurement.

    Detector efficiencies, splitter ratios and noise probabilities are
    assumed calibrated beforehand; ``settings`` lists the attenuator pair
    (gamma_s, gamma_i) of each setting index nu.
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

    def maps(self, nu: int) -> tuple[np.ndarray, np.ndarray]:
        gamma_s, gamma_i = self.settings[nu]
        A = outcome_map(self.det_s.with_gamma(gamma_s), self.n_max)
        B = outcome_map(self.det_i.with_gamma(gamma_i), self.n_max)
        return A, B

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

    def map(self, nu: int) -> np.ndarray:
        det = DetectorPair(
            T=self.T, eta_t=self.eta_t, eta_r=self.eta_r,
            d_t=self.d_t, d_r=self.d_r, gamma=self.gammas[nu],
        )
        C = outcome_map(det, self.n_max)
        if self.layout == "1d":
            C = np.vstack([C[0] + C[1], C[2] + C[3]])
        return C

    def forward_probs(self, pv, nu: int) -> np.ndarray:
        return self.map(nu) @ np.asarray(pv, dtype=float)

    def hash(self) -> str:
        text = repr(
            (
                self.T, self.eta_t, self.eta_r, self.d_t, self.d_r,
                tuple(float(g) for g in self.gammas), self.layout, self.n_max,
            )
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


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


@dataclass(frozen=True)
class StartResult:
    loglik: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
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
# serve every estimator; EML adds its per-outcome renormalization term.


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


def _kernels(records, model) -> tuple[np.ndarray, np.ndarray]:
    """Kernel stack K and count stack F; a bipartite kernel is kron(A, B)."""
    bipartite = isinstance(model, LikelihoodModel)
    K = [np.kron(*model.maps(rec.nu)) if bipartite else model.map(rec.nu) for rec in records]
    return np.stack(K), np.stack([rec.f.reshape(-1) for rec in records])


def _loglik(K, F, p, used=None) -> float:
    """Log-likelihood sum F log W; -inf where counts meet W = 0.

    A ``used`` outcome mask gives EML's objective instead: only the used
    outcomes count, each renormalized over the records (settings).
    """
    W = K @ p
    seen = F > 0 if used is None else (F > 0) & used
    if np.any(W[seen] <= 0.0):
        return -np.inf
    # Per-record sums first, so that swapping two records keeps every bit.
    ll = np.where(seen, F * np.log(np.where(seen, W, 1.0)), 0.0).sum(axis=1).sum()
    if used is not None:
        S = W.sum(axis=0)[used]
        if np.any(S <= 0.0):
            return -np.inf
        ll -= np.sum(F.sum(axis=0)[used] * np.log(S))
    return float(ll)


def _score(K, F, p, used=None) -> np.ndarray:
    """Gradient of ``_loglik`` in the cells p."""
    W = K @ p
    seen = F > 0 if used is None else (F > 0) & used
    ratio = np.where(seen, F / np.where(seen, W, 1.0), 0.0)
    if used is not None:
        ratio -= np.where(used, F.sum(axis=0) / np.where(used, W.sum(axis=0), 1.0), 0.0)
    return np.einsum("vo,voc->c", ratio, K)


def _fisher(K, F, p) -> np.ndarray:
    """Expected information in the cells p, sum_v n_v K_v^T diag(1/W_v) K_v."""
    W = K @ p
    weight = F.sum(axis=1)[:, None] / np.where(W > 0.0, W, np.inf)
    return np.einsum("voc,vo,vod->cd", K, weight, K)


def _softmax_cells(z: np.ndarray) -> np.ndarray:
    """Probabilities over n cells from n-1 free coordinates (cell 0 pinned)."""
    e = np.exp(np.concatenate([[0.0], z]) - np.max(z, initial=0.0))
    return e / e.sum()


def _softmax_jacobian(p: np.ndarray) -> np.ndarray:
    """d p_j / d z_c for the free coordinates c = 1..n-1; shape (n-1, n)."""
    return (np.diag(p) - np.outer(p, p))[1:]


def log_likelihood(P, records, model) -> float:
    """Total multinomial log-likelihood of count records under P.

    ``P`` may be a PndMatrix with a bipartite model or a probability
    vector with a single-mode model.  Outcomes with zero probability but
    nonzero counts make the result -inf, the typed infeasible value.
    """
    _check_records(records, model)
    p = P.p if isinstance(P, PndMatrix) else np.asarray(P, dtype=float)
    return _loglik(*_kernels(records, model), p.reshape(-1))


def _scoring_step(J, fisher, score, free) -> np.ndarray:
    """Fisher-scoring step in z over the ``free`` coordinates.

    The information is scaled to unit diagonal before the ridge goes on,
    so the ridge cannot swamp a small cell, whose entry scales as its
    square.
    """
    info = J[free] @ fisher @ J[free].T
    d = 1.0 / np.sqrt(np.diag(info))
    step = np.zeros(score.size)
    step[free] = d * np.linalg.solve(
        d[:, None] * info * d + 1e-12 * np.eye(d.size), d * score[free]
    )
    return step


def _fisher_scoring(K, F, z, max_iter: int):
    """Projected Fisher-scoring ascent of the concave ML log-likelihood.

    Cells stay at or above ``_FLOOR`` relative to cell 0.  A cell on the
    floor with an outward score is held there; one whose step crosses the
    floor with an outward score is sent there, and the rest are solved
    again without it.  The other moves are capped at ``_MAX_STEP``, and
    the projected step is halved until the log-likelihood does not fall.
    Converged means the KKT conditions hold in p (no cell gains more than
    ``_KKT_TOL`` per count from growing) and a full step would gain at
    most ``_GAIN_TOL`` of the log-likelihood.  Returns (z, steps, converged).
    """
    n = max(float(F.sum()), 1.0)
    z_floor = np.log(_FLOOR)
    z = np.maximum(z, z_floor)
    ll = _loglik(K, F, _softmax_cells(z))
    steps = 0
    while np.isfinite(ll):
        p = _softmax_cells(z)
        score_p = _score(K, F, p) / n
        J = _softmax_jacobian(p)
        score, fisher = J @ score_p, _fisher(K, F, p) / n
        free = (z > z_floor) | (score > 0.0)
        step = _scoring_step(J, fisher, score, free)
        gain = 0.5 * n * float(score @ step)
        if np.max(score_p) - 1.0 <= _KKT_TOL and gain <= _GAIN_TOL * max(abs(ll), 1.0):
            return z, steps, True
        if steps >= max_iter or not np.all(np.isfinite(step)):
            break
        lands = free & (z + step <= z_floor) & (score < 0.0)
        if np.any(lands):
            step[~lands] = _scoring_step(J, fisher, score, free & ~lands)[~lands]
        norm = np.max(np.abs(np.maximum(z + step, z_floor) - z)[~lands], initial=0.0)
        if norm > _MAX_STEP:
            step *= _MAX_STEP / norm
        for _ in range(30):
            trial = np.maximum(z + step, z_floor)
            ll_trial = _loglik(K, F, _softmax_cells(trial))
            if ll_trial >= ll - 1e-12 * max(abs(ll), 1.0):
                break
            step *= 0.5
        else:
            break
        if np.array_equal(trial, z):
            break
        z, ll = trial, ll_trial
        steps += 1
    return z, steps, False


def _start(records, model, n_cells: int) -> np.ndarray:
    """Moment start in the free coordinates.  Cells without signal, and
    cells past the one- and two-photon cells, start at ``_FLOOR``."""
    init = _init_bipartite if isinstance(model, LikelihoodModel) else _init_single
    moments = init(records, model)
    cells = np.full(n_cells - 1, _FLOOR)
    cells[: moments.size] = np.maximum(moments, _FLOOR)
    if cells.sum() >= 1.0:
        cells *= 0.5 / cells.sum()
    return np.log(cells / (1.0 - cells.sum()))


def _init_bipartite(records, model: LikelihoodModel) -> np.ndarray:
    """Moment inversion of (noise-corrected) counts for the starting point.

    Singles and pair coincidences give the one-photon cells; double-click
    rates give the two-photon cells.
    """
    best_nu = max(
        range(len(model.settings)),
        key=lambda nu: model.settings[nu][0] * model.settings[nu][1],
    )
    candidates = [rec for rec in records if rec.nu == best_nu] or list(records)
    rec = candidates[0]
    gamma_s, gamma_i = model.settings[rec.nu]
    det_s, det_i = model.det_s, model.det_i
    corr = noise_correct(rec, det_s.d_t, det_s.d_r, det_i.d_t, det_i.d_r)
    f = corr.f
    n = max(rec.n_m, 1)
    e = (
        gamma_s * det_s.eta_t,
        gamma_s * det_s.eta_r,
        gamma_i * det_i.eta_t,
        gamma_i * det_i.eta_r,
    )
    pair = 0.0
    for j in (1, 2):
        for k in (3, 4):
            if e[j - 1] > 0 and e[k - 1] > 0:
                pair += counts_with_clicks(f, [j, k]) / (e[j - 1] * e[k - 1])
    p11 = pair / n

    S = [counts_with_clicks(f, [j]) for j in (1, 2, 3, 4)]
    s_mean = sum(S[j] / e[j] for j in (0, 1) if e[j] > 0) / n
    i_mean = sum(S[j] / e[j] for j in (2, 3) if e[j] > 0) / n
    p10 = s_mean - p11
    p01 = i_mean - p11

    den_s2 = 2.0 * det_s.T * det_s.R * e[0] * e[1]
    den_i2 = 2.0 * det_i.T * det_i.R * e[2] * e[3]
    one_i = det_i.T * e[2] + det_i.R * e[3]
    one_s = det_s.T * e[0] + det_s.R * e[1]
    p22 = f[3, 3] / (n * den_s2 * den_i2) if den_s2 > 0 and den_i2 > 0 else 0.0
    p21 = f[3, 1:3].sum() / (n * den_s2 * one_i) if den_s2 > 0 and one_i > 0 else 0.0
    p12 = f[1:3, 3].sum() / (n * den_i2 * one_s) if den_i2 > 0 and one_s > 0 else 0.0
    p20 = f[3, 0] / (n * den_s2) if den_s2 > 0 else 0.0
    p02 = f[0, 3] / (n * den_i2) if den_i2 > 0 else 0.0

    return np.array([p01, p02, p10, p11, p12, p20, p21, p22])  # row-major minus (0, 0)


def _init_single(records, model: SingleModeModel) -> np.ndarray:
    best_nu = max(range(len(model.gammas)), key=lambda nu: model.gammas[nu])
    candidates = [rec for rec in records if rec.nu == best_nu] or list(records)
    rec = candidates[0]
    gamma = model.gammas[rec.nu]
    f = noise_correct_single(rec, model.d_t, model.d_r)
    n = max(rec.n_m, 1)
    if model.layout == "1d":
        # No double-click observable here; the no-click probability is the
        # exact polynomial sum_n P_n x^n with x = 1 - gamma * eta, so the
        # attenuation curve across settings is the moment inversion.
        xs, ys = [], []
        for r in records:
            fr = noise_correct_single(r, model.d_t, model.d_r)
            xs.append(1.0 - model.gammas[r.nu] * model.eta_t)
            ys.append(fr[0] / max(r.n_m, 1))
        p1 = p2 = 0.0
        if len(set(xs)) >= 3:
            coeffs = np.polynomial.polynomial.polyfit(xs, ys, 2)
            p1, p2 = float(coeffs[1]), float(coeffs[2])
        elif model.eta_t > 0:
            p1 = f[1] / (n * gamma * model.eta_t)
    else:
        e_t, e_r = gamma * model.eta_t, gamma * model.eta_r
        one = model.T * e_t + (1 - model.T) * e_r
        two = 2.0 * model.T * (1 - model.T) * e_t * e_r
        p1 = (f[1] + f[2]) / (n * one) if one > 0 else 0.0
        p2 = f[3] / (n * two) if two > 0 else 0.0
    return np.array([p1, p2])


# ---------------------------------------------------------------------------
# fits


def _fitted(p: np.ndarray, model):
    return PndMatrix(p.reshape(model.n_max + 1, -1)) if isinstance(model, LikelihoodModel) else p


def ml_estimate(records, model, options: EstimateOptions | None = None) -> EstimateResult:
    """Full-information maximum likelihood over all click outcomes.

    The log-likelihood is concave in the cells, so one projected
    Fisher-scoring ascent from the moment start reaches the maximum; its
    Newton steps are the fit's iterations.
    """
    options = options or EstimateOptions()
    _check_records(records, model)
    K, F = _kernels(records, model)
    z0 = _start(records, model, K.shape[2])
    z, steps, converged = _fisher_scoring(K, F, z0, options.max_iter)
    p = _softmax_cells(z)
    loglik = _loglik(K, F, p)
    return EstimateResult(
        p_hat=_fitted(p, model),
        loglik=loglik,
        iterations=steps,
        converged=converged,
        starts=(StartResult(loglik=loglik, iterations=steps, converged=converged),),
    )


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
    ll = _loglik(K, F, p, used)
    if not np.isfinite(ll):
        return np.inf, np.zeros_like(z)
    return -ll / scale, -(_softmax_jacobian(p) @ _score(K, F, p, used)) / scale


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
    K, F = _kernels(records, model)
    used = _eml_used_mask(model)
    scale = max(float(F[:, used].sum()), 1.0)
    z0 = _start(records, model, K.shape[2])
    rng = substream(options.seed, "estimate-starts")
    best, starts = None, []
    for z in [z0] + [z0 + rng.standard_normal(z0.size) for _ in range(options.n_starts - 1)]:
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
