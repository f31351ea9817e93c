"""Maximum-likelihood reconstruction of photon number distributions.

The full-information estimator maximizes the ordinary multinomial
log-likelihood over all click outcomes (including the all-click events,
which carry the only direct evidence about two-photon cells).  Outcome
probabilities are linear in the cells, W_nu = K_nu p with the kernels
K_nu that a detection model stores at construction (the simulator draws
its counts from the same map), so that log-likelihood is concave and one
projected Fisher-scoring ascent in softmax coordinates, with every cell
floored relative to the vacuum cell, reaches its maximum.

Both estimators start from Neyman's minimum chi-square inversion of that
linear model, with no formula per detector layout; a cell the counts do
not resolve above one standard error starts on the floor.

A baseline estimator replicating the older extended-maximum-likelihood
scheme is included for comparison: it discards outcomes in which all
detectors of a mode clicked and fits setting-renormalized probabilities,
so it needs at least two attenuator settings.  The same ascent, fed
EML's score and expected information, runs once from the moment start of
the used outcomes.  EML's objective is not concave, but on the sweep
grids checked jittered restarts gain only roundoff over that start, and
at most 2e-4 nats in its flattest cell, far out of the accuracy region.
The restarts stay available through ``EstimateOptions.n_starts`` above
1, and then the best start wins.

Record sets that share a model (bootstrap draws, the reps of a sweep
cell) go through one call of either estimator's ``*_many`` form: one
ascent over the sets (and, for EML, their starts), which each leave
through one block that hands back their cells and objective.
A caller that already holds the counts as one stack hands it to
``_fit_stack``, the batched core of both, and reads its arrays without
building a result per set: a sweep cell its reps, and the command line
a counts file's own counts together with all their bootstrap draws.

Count-ratio estimators of g2 / heralded g2 / pair probability are provided
for comparison with the reconstructed values; they accept raw or
noise-corrected records.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field

import numpy as np

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
from .metrics import _cells
from .pnd import CharacteristicSet, PndMatrix, characteristics
from .rng import check_seed, substream

_FLOOR = 1e-15  # smallest cell, relative to cell 0
_KKT_TOL = 1e-9  # largest per-count gain over the KKT multiplier of growing a cell
_GAIN_TOL = 1e-14  # ML: largest relative log-likelihood gain left at convergence
_EML_GAIN_TOL = 1e-6  # EML: largest objective gain left at convergence, in nats
_TINY = np.finfo(float).smallest_subnormal  # below every positive probability


def _frozen(C: np.ndarray) -> np.ndarray:
    C.setflags(write=False)
    return C


@dataclass(frozen=True)
class LikelihoodModel:
    """Known detection parameters of a bipartite measurement.

    Detector efficiencies, splitter ratios and noise probabilities are
    assumed calibrated beforehand; ``settings`` lists the attenuator pair
    (gamma_s, gamma_i) of each setting index nu, so both detector pairs
    keep ``gamma = 1``.  ``kernels`` (settings x 16 outcomes x cells,
    read-only) holds each setting's kernel K_nu, the kron of its signal
    and idler outcome maps, built once at construction: W_nu = K_nu
    P.reshape(-1).
    """

    det_s: DetectorPair
    det_i: DetectorPair
    settings: tuple = ((1.0, 1.0),)
    n_max: int = 2
    kernels: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.settings:
            raise InvalidInputError("model needs at least one setting")
        object.__setattr__(self, "n_max", check_count("n_max", self.n_max, 1))
        if self.det_s.gamma != 1.0 or self.det_i.gamma != 1.0:
            raise InvalidInputError(
                "detector pairs of a model must have gamma = 1; put attenuators in settings"
            )
        kernels = [  # with_gamma checks each gamma
            np.kron(outcome_map(self.det_s.with_gamma(gamma_s), self.n_max),
                    outcome_map(self.det_i.with_gamma(gamma_i), self.n_max))
            for gamma_s, gamma_i in self.settings
        ]
        object.__setattr__(self, "kernels", _frozen(np.stack(kernels)))

    @property
    def n_settings(self) -> int:
        return len(self.settings)

    n_outcomes = 16  # signal outcome x idler outcome, row-major

    def eml_used(self) -> np.ndarray:
        """Outcomes the baseline keeps: none in which both detectors of a mode clicked."""
        keep = np.arange(4) < 3
        return np.outer(keep, keep).reshape(-1)

    def fitted(self, p: np.ndarray) -> PndMatrix:
        return PndMatrix(p.reshape(self.n_max + 1, -1))

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

    ``det`` is the calibrated detector pair (``gamma = 1``) and ``gammas``
    the attenuator of each setting index nu.  ``layout`` is "2d" for the
    split-and-two-detectors scheme or "1d" for a plain on/off detector, in
    which case everything is routed to the transmitted detector and the
    outcomes collapse to (no click, click).  ``kernels`` (settings x
    outcomes x cells, read-only) holds each setting's outcome map K_nu,
    collapsed for "1d", built once at construction: W_nu = K_nu p.
    """

    det: DetectorPair
    gammas: tuple
    layout: str = "2d"
    n_max: int = 2
    kernels: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.gammas:
            raise InvalidInputError("model needs at least one attenuator setting")
        if self.layout not in ("1d", "2d"):
            raise InvalidInputError(f"layout must be '1d' or '2d', got {self.layout!r}")
        object.__setattr__(self, "n_max", check_count("n_max", self.n_max, 1))
        if self.det.gamma != 1.0:
            raise InvalidInputError(
                "the detector pair of a model must have gamma = 1; put attenuators in gammas"
            )
        kernels = np.stack([  # with_gamma checks each gamma
            outcome_map(self.det.with_gamma(gamma), self.n_max) for gamma in self.gammas
        ])
        if self.layout == "1d":
            kernels = kernels[:, 0::2] + kernels[:, 1::2]  # rows XX + XO, OX + OO
        object.__setattr__(self, "kernels", _frozen(kernels))

    @classmethod
    def two_detector(cls, T, eta, d, gammas, n_max: int = 2) -> "SingleModeModel":
        det = DetectorPair(T=T, eta_t=eta, eta_r=eta, d_t=d, d_r=d)
        return cls(det=det, gammas=tuple(gammas), n_max=n_max)

    @classmethod
    def one_detector(cls, eta, d, gammas, n_max: int = 2) -> "SingleModeModel":
        det = DetectorPair(T=1.0, eta_t=eta, eta_r=0.0, d_t=d, d_r=0.0)
        return cls(det=det, gammas=tuple(gammas), layout="1d", n_max=n_max)

    @property
    def n_settings(self) -> int:
        return len(self.gammas)

    @property
    def n_outcomes(self) -> int:
        return 2 if self.layout == "1d" else 4

    def eml_used(self) -> np.ndarray:
        """Outcomes the baseline keeps: all but the one with every detector clicked."""
        return np.arange(self.n_outcomes) < self.n_outcomes - 1

    def fitted(self, p: np.ndarray) -> np.ndarray:
        return p


@dataclass(frozen=True)
class EstimateOptions:
    """Fit budget.

    ``max_iter`` caps the Newton steps of an ML fit and of each EML
    start.  ``n_starts`` and ``seed`` only steer EML: by default it
    ascends once from its moment start, as ML always does, and
    ``n_starts`` above 1 adds ``n_starts - 1`` jittered restarts drawn
    from ``seed``, a whole number.
    """

    n_starts: int = 1
    max_iter: int = 10000
    seed: int = 0

    def __post_init__(self):
        check_count("n_starts", self.n_starts, 1)
        check_count("max_iter", self.max_iter, 0)
        check_seed(self.seed)


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
# Every model stores the kernel K_nu (outcomes x cells) of each setting in
# ``kernels``: record v has outcome probabilities W_v = K_v p in the
# row-major cells p, and records stack into K (records x outcomes x cells)
# with counts F (records x outcomes).  One loglik, score and expected
# Fisher matrix of W serve every estimator; EML adds its per-outcome
# renormalization term.  The simulator draws its counts from the same
# W = K p (``_probs``).
#
# F, W and p carry a leading problem axis over one shared K (problems x
# records x outcomes, problems x cells), and a fit builds the terms that
# depend only on its counts once (``_Terms``).  Every reduction and every
# product runs per problem exactly as for a lone problem, so no value
# depends on its batch.


def _stack(record_sets, model):
    """Shared kernel stack K and counts F (sets x records x outcomes).

    Every record must fit the model's settings and outcomes, and every
    set must hold the same settings in the same order; otherwise
    DataModelMismatchError.
    """
    if not isinstance(model, (LikelihoodModel, SingleModeModel)):
        raise InvalidInputError(f"unknown model type {type(model)!r}")
    record_sets = [list(records) for records in record_sets]
    if not record_sets:
        raise InvalidInputError("at least one record set is required")
    n_settings, n_outcomes = model.n_settings, model.n_outcomes
    nus = [rec.nu for rec in record_sets[0]]
    for i, records in enumerate(record_sets):
        if not records:
            raise InvalidInputError("at least one count record is required")
        for rec in records:
            if not (0 <= rec.nu < n_settings):
                raise DataModelMismatchError(
                    f"record setting nu={rec.nu} outside model settings (0..{n_settings - 1})"
                )
            if rec.f.size != n_outcomes:
                raise DataModelMismatchError(
                    f"record has {rec.f.size} outcomes, model expects {n_outcomes}"
                )
        if [rec.nu for rec in records] != nus:
            raise DataModelMismatchError(
                f"record set {i} has settings {[rec.nu for rec in records]}, "
                f"the first set {nus}"
            )
    F = np.array([[rec.f.reshape(-1) for rec in records] for records in record_sets])
    return model.kernels[nus], F


def _probs(K, p) -> np.ndarray:
    """Outcome probabilities W = K p of every record (and problem)."""
    return (K @ p[..., None, :, None])[..., 0]


class _Terms:
    """Count-only terms of the objective of a count stack, built once a fit.

    ML keeps every outcome of the kernel stack K (records x outcomes x
    cells) and of the counts F (problems x records x outcomes), with each
    record's trials n_v = sum_o F_vo.  EML, given its outcome mask
    ``used``, keeps only the used outcomes, with their totals over the
    records N_o = sum_v F_vo and the kernel's column sums k_o = sum_v K_vo.
    ``seen`` marks the counted outcomes, and ``n`` is each problem's count
    scale, its kept counts (at least 1).  The contractions run over the
    flattened (records x outcomes) axis: ``K2`` is K as (records *
    outcomes) x cells, and ML's ``KK`` holds every outer product K_vo
    K_vo^T as (records * outcomes) x cells^2.  The kernel terms are shared
    and ``take`` subsets the count terms by problem.
    """

    def __init__(self, K, F, used=None):
        self.ml = used is None
        if not self.ml:
            K, F = K[:, used], F[..., used]
        # Contiguous: a boolean index on the last axis leaves the rows
        # strided, and numpy then sums them in another order.
        self.K, self.F = np.ascontiguousarray(K), np.ascontiguousarray(F)
        n_rows, n_cells = K.shape[0] * K.shape[1], K.shape[2]
        self.K2 = self.K.reshape(n_rows, n_cells)
        self.seen = self.F > 0
        if self.ml:
            self.totals = self.F.sum(axis=-1)  # n_v
            self.KK = (self.K2[:, :, None] * self.K2[:, None, :]).reshape(n_rows, -1)
        else:
            self.totals = self.F.sum(axis=-2)  # N_o
            self.k = self.K.sum(axis=0)
        self.n = np.maximum(self.totals.sum(axis=-1), 1.0)

    def take(self, rows) -> "_Terms":
        """The terms of the problems ``rows``, sharing the kernel terms."""
        part = object.__new__(_Terms)
        part.__dict__.update(
            self.__dict__, F=self.F[rows], seen=self.seen[rows], totals=self.totals[rows],
            n=self.n[rows],
        )
        return part

    def probs(self, p) -> np.ndarray:
        """The kept outcome probabilities W = K p of every problem."""
        return _probs(self.K, p)


def _loglik(terms: _Terms, W) -> np.ndarray:
    """Log-likelihood sum F log W per problem; -inf where counts meet W = 0.

    ML subtracts sum_v n_v log sum_o W_vo, which is 0 in exact arithmetic:
    without it, a sum of p off 1 by an ulp would move the objective by
    N (sum p - 1), above the line search's roundoff slack at N = 1e11.
    EML's objective instead renormalizes each used outcome over the
    records (settings): sum_o N_o log S_o with S_o = sum_v W_vo.
    """
    W_seen = np.where(terms.seen, W, 1.0)
    infeasible = (W_seen <= 0.0).any(axis=(-2, -1))
    # Per-record sums first, so that swapping two records keeps every bit.
    # _TINY only keeps the logs of infeasible problems finite.
    ll = (terms.F * np.log(np.maximum(W_seen, _TINY))).sum(axis=-1)
    if terms.ml:
        ll = ll - terms.totals * np.log(np.maximum(W.sum(axis=-1), _TINY))
        ll = ll.sum(axis=-1)
    else:
        S = W.sum(axis=-2)
        infeasible |= (S <= 0.0).any(axis=-1)
        ll = ll.sum(axis=-1) - (terms.totals * np.log(np.maximum(S, _TINY))).sum(axis=-1)
    return np.where(infeasible, -np.inf, ll)


def _score(terms: _Terms, W) -> np.ndarray:
    """Gradient of ``_loglik`` in the cells p, where W = K p, without ML's
    sum_v n_v log sum_o W_vo term: on the simplex that term's gradient is
    constant across the cells, and the softmax Jacobian annihilates it.

    The ratio F_vo / W_vo (EML: less N_o / S_o) of each problem is one row
    (problems x 1 x records * outcomes) of a product with K2.  Problems
    stay on the stack axis of every product and never share a row axis of
    one 2-D product, whose blocking would make a problem's bits depend on
    its batch.
    """
    ratio = terms.F / np.where(terms.seen, W, 1.0)
    if not terms.ml:
        ratio -= (terms.totals / W.sum(axis=-2))[..., None, :]
    return (ratio.reshape(len(ratio), 1, -1) @ terms.K2)[:, 0]


def _fisher(terms: _Terms, W) -> np.ndarray:
    """Expected information of ``_loglik`` in the cells p, where W = K p.

    ML: sum_v n_v K_v^T diag(1/W_v) K_v, the weights n_v / W_vo of each
    problem as one row (problems x 1 x records * outcomes) of a product
    with the outer products KK.  EML, with N_o = sum_v F_vo,
    S_o = sum_v W_vo and k_o = sum_v K_vo over the used outcomes:
    sum_o N_o [sum_v K_vo K_vo^T / (S_o W_vo) - k_o k_o^T / S_o^2].  It is
    summed as sum_vo w_vo R_vo R_vo^T, w_vo = N_o / (S_o W_vo), with the
    centred rows R_vo = K_vo - (W_vo / S_o) k_o, so that no difference of
    large terms can leave it indefinite; R_vo . p = 0, so EML's
    information is singular along p itself.  Each problem's sum is one
    product (R o w)^T R of its cells x (records * outcomes) rows.  As in
    ``_score``, problems stay on the stack axis of every product.
    """
    n_problems, n_cells = len(W), terms.K.shape[-1]
    if terms.ml:
        weight = terms.totals[..., None] / np.where(W > 0.0, W, np.inf)
        return (weight.reshape(n_problems, 1, -1) @ terms.KK).reshape(n_problems, n_cells, n_cells)
    S = W.sum(axis=-2, keepdims=True)
    R = (terms.K - (W / S)[..., None] * terms.k).reshape(n_problems, -1, n_cells)
    weight = (terms.totals[:, None] / (S * np.where(W > 0.0, W, np.inf))).reshape(n_problems, -1, 1)
    return (R * weight).transpose(0, 2, 1) @ R


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
    vector with a single-mode model.  Each record's outcome probabilities
    count over their sum, which is 1 up to roundoff for a distribution,
    so a sum of cells off 1 by roundoff moves no value.  Outcomes with
    zero probability but nonzero counts make the result -inf, the typed
    infeasible value.
    """
    K, F = _stack([records], model)
    terms = _Terms(K, F)
    return float(_loglik(terms, terms.probs(_cells(P).reshape(-1)[None]))[0])


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
    cannot swamp a small cell, whose entry scales as its square.  A
    coordinate with a zero diagonal entry, which no count informs (a set
    with no trials), solves to 0 with an infinite scale.
    """
    diag = info.diagonal(axis1=-2, axis2=-1)
    if diag.all():
        d = scale = 1.0 / np.sqrt(diag)
    else:
        empty = diag == 0.0
        d = 1.0 / np.sqrt(np.where(empty, np.inf, diag))
        scale = np.where(empty, np.inf, d)
    scaled = info * d[..., None, :]
    scaled *= d[..., :, None]
    scaled += _diagonal(info.shape[-1], 1e-12)
    return d * _solve_each(scaled, d * rhs), scale


@functools.cache
def _diagonal(n: int, value: float) -> np.ndarray:
    """The read-only n x n matrix with ``value`` on its diagonal, built once."""
    return _frozen(value * np.eye(n))


def _scoring_steps(info, score, free) -> np.ndarray:
    """Newton steps info x = score in z over each problem's ``free``
    coordinates.  Every problem is solved in one stack: a held
    coordinate's row and column become those of the identity and its
    score 0, so it decouples and steps exactly 0.
    """
    n = score.shape[-1]
    info = np.where(free[:, :, None] & free[:, None, :], info, _diagonal(n, 1.0))
    x, _ = _scaled_solve(info, np.where(free, score, 0.0))
    return np.where(free, x, 0.0)


def _ratio_moves(step) -> np.ndarray:
    """Moves in z of Newton steps ``step`` in z: a growing coordinate moves
    its cell's ratio to cell 0 by the factor 1 + s, the Newton target in
    p, so a floor cell reaches it in one move; log1p(s) = s + O(s^2), so
    the steps stay quadratic."""
    return np.where(step > 0.0, np.log1p(np.maximum(step, 0.0)), step)


def _rises(ll, ll_trial, z, trial, score, n, slack) -> np.ndarray:
    """Whether each trial rises enough: by at least a tenth of the linear
    gain n score . (trial - z) of the move it makes, where that gain is
    positive, less the roundoff ``slack``."""
    linear = n * (score[:, None, :] @ (trial - z)[..., None])[:, 0, 0]
    return ll_trial >= ll + 0.1 * np.maximum(linear, 0.0) - slack


def _fisher_scoring(terms: _Terms, Z, max_iter: int):
    """Projected Fisher-scoring ascent of the ML log-likelihood, or of
    EML's objective when ``terms`` keep EML's used outcomes.

    Fits every problem of the count stack of ``terms`` from its start in
    Z (problems x cells-1).  Cells stay at or above ``_FLOOR`` relative
    to cell 0.  A cell on the floor with an outward
    score is held there; one whose step crosses the floor with an outward
    score is sent there, and the rest are solved again without it.  Each
    step's information J (F/n) J^T in z is formed once and serves both
    solves, each one masked stack over every problem (``_scoring_steps``),
    in which held cells step exactly 0 whatever mix of free sets the
    problems hold.  A coordinate with a growing step s moves by log1p(s)
    (``_ratio_moves``), so its cell's ratio to cell 0 moves to the Newton
    target in p, 1 + s times the ratio: a cell on the floor, whose step in
    z can reach 1e11, gets there in one move.  The Newton step is halved,
    and mapped to moves again, until the trial rises by at least a tenth
    of its move's linear gain, less a roundoff slack (``_rises``), so no
    trial falls by more than that slack.  A flat coordinate whose full
    step overshoots is shortened there, where a trial that need only not
    fall could zigzag about the maximum for good.  Converged means the
    KKT conditions hold in p (no cell gains more than ``_KKT_TOL`` per
    count over the multiplier from growing) and a full step would gain at
    most ``_GAIN_TOL`` of the log-likelihood.  ML's multiplier is 1
    (p . score = N).

    EML's objective is homogeneous of degree 0 in p, so its multiplier is
    0.  It is not concave, and it is nearly flat along cells that only set
    the ratio of tiny outcome probabilities across settings, so three
    things differ.  Its information takes an exp-curvature term on the
    diagonal of cells expected to give less than one used count.  Its KKT
    test looks only at the cells on the floor and leaves the others to the
    gain test, which allows ``_EML_GAIN_TOL`` nats.  Its line search's
    roundoff slack is 1e-14 per used count, because its gains near the
    maximum are far below ML's slack of 1e-12 |loglik|.

    A problem that has converged, failed (a step that is not finite) or
    taken ``max_iter`` steps takes a zero step, which rises at once; the
    line search is skipped when no problem moves.  Those problems, and
    any whose trial did not rise in 30 tries or left z as it was, leave
    through one block after the line search, which writes back their
    cells, objective, steps and convergence.  Each problem takes exactly
    the steps it would take alone, each from the p and W of the trial its
    line search took.  Returns (P, loglik, steps, converged): the cells
    and objective of each problem's last accepted point.
    """
    ml = terms.ml
    z_floor = np.log(_FLOOR)
    Z = np.maximum(Z, z_floor)
    steps = np.zeros(len(Z), dtype=int)
    converged = np.zeros(len(Z), dtype=bool)
    P = _softmax_cells(Z)
    W = terms.probs(P)
    loglik = _loglik(terms, W)
    # The live problems, each k steps in; one leaves by writing back its p and ll.
    live = np.flatnonzero(np.isfinite(loglik))
    z, p, W, ll, part = Z[live], P[live], W[live], loglik[live], terms.take(live)
    k = 0
    while live.size:
        n = part.n
        score_p = _score(part, W) / n[:, None]
        J = _softmax_jacobian(p)
        score = (J @ score_p[..., None])[..., 0]
        info = J @ (_fisher(part, W) / n[:, None, None]) @ J.transpose(0, 2, 1)
        if not ml:
            # A cell worth less than one count enters the objective as about
            # c + t e^z, whose curvature in z equals its score in z; the
            # information in p leaves that term out, so without it a
            # shrinking cell's step can run orders of magnitude past where
            # the objective stops rising.
            tiny = n[:, None] * p[:, 1:] < 1.0
            info.reshape(len(info), -1)[:, :: info.shape[-1] + 1] += np.where(
                tiny, np.maximum(-score, 0.0), 0.0
            )
        free = (z > z_floor) | (score > 0.0)
        step = _scoring_steps(info, score, free)
        gain = 0.5 * n * (score[:, None, :] @ step[..., None])[:, 0, 0]
        if ml:
            done = (score_p.max(axis=1) - 1.0 <= _KKT_TOL) & (
                gain <= _GAIN_TOL * np.maximum(np.abs(ll), 1.0)
            )
        else:
            excess = np.where(z <= z_floor, score_p[:, 1:], -np.inf)
            done = (excess.max(axis=1) <= _KKT_TOL) & (gain <= _EML_GAIN_TOL)
        step[done | ~np.isfinite(step).all(axis=1) | (k >= max_iter)] = 0.0
        lands = free & (z + step <= z_floor) & (score < 0.0)
        again = np.flatnonzero(lands.any(axis=1))
        if again.size:
            resolved = _scoring_steps(info[again], score[again], (free & ~lands)[again])
            step[again] = np.where(lands[again], step[again], resolved)
        # Backtracking, none when no step moves: up to 30 tries of every
        # problem, from the Newton step, each halving the steps whose trial
        # did not rise.  A step that rose is kept, so its trial repeats.
        slack = 1e-12 * np.maximum(np.abs(ll), 1.0) if ml else 1e-14 * n
        trial, p_try, W_try, ll_try, short = z, p, W, ll, np.zeros(len(z), dtype=bool)
        for _ in range(30 if step.any() else 0):
            trial = np.maximum(z + _ratio_moves(step), z_floor)
            p_try = _softmax_cells(trial)
            W_try = part.probs(p_try)
            ll_try = _loglik(part, W_try)
            short = ~_rises(ll, ll_try, z, trial, score, n, slack)
            if not short.any():
                break
            step[short] *= 0.5
        moved = ~short & ~(trial == z).all(axis=1)
        if not moved.all():
            gone = live[~moved]
            P[gone], loglik[gone] = p[~moved], ll[~moved]
            steps[gone], converged[gone] = k, done[~moved]
            live = live[moved]
            if not live.size:
                break
            part = part.take(moved)
            trial, p_try, W_try, ll_try = (a[moved] for a in (trial, p_try, W_try, ll_try))
        z, p, W, ll = trial, p_try, W_try, ll_try
        k += 1
    return P, loglik, steps, converged


def _starts(terms: _Terms) -> np.ndarray:
    """Moment start of every problem of ML ``terms`` in the free coordinates z.

    Neyman's minimum chi-square: the least-squares inversion of W = K p
    against the observed frequencies y_vo = F_vo / n_v, each outcome
    weighted by n_v^2 / max(F_vo, 1), so one never seen pins its prediction
    near 0.  Its normal equations are the information and score of
    ``_fisher`` and ``_score`` taken at those frequencies, with an unseen
    outcome counted once.  A cell whose solution is not above its standard
    error with the other cells held (NaN included) starts on ``_FLOOR``.
    """
    freq = np.maximum(terms.F, 1.0) / np.maximum(terms.totals[..., None], 1.0)
    p, se = _scaled_solve(_fisher(terms, freq), _score(terms, freq))
    resolved = p > se
    # An unresolved vacuum cell leaves no scale; the others then count from 1.
    vacuum = np.where(resolved[..., :1], p[..., :1], 1.0)
    return np.log(np.where(resolved[..., 1:], p[..., 1:] / vacuum, _FLOOR))


# ---------------------------------------------------------------------------
# fits


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
    return _results(_fit_stack(*_stack(record_sets, model), model, options, eml=False), model)


def _eml_starts(K, F, used, options: EstimateOptions) -> np.ndarray:
    """EML starts of every set (sets x n_starts x cells-1).

    The first is the moment start of the used outcomes alone, each record
    keeping its trial count; the others add the same ``n_starts - 1``
    standard-normal jitters, drawn from ``options.seed``, to it.
    """
    z0 = _starts(_Terms(np.where(used[:, None], K, 0.0), F))
    jitter = substream(options.seed, "estimate-starts").standard_normal(
        (int(options.n_starts) - 1, z0.shape[-1])
    )
    return np.concatenate([z0[:, None], z0[:, None] + jitter], axis=1)


def eml_estimate(records, model, options: EstimateOptions | None = None) -> EstimateResult:
    """Baseline fit on setting-renormalized probabilities.

    For every used outcome o the probabilities across settings are
    renormalized to W_o(nu) / sum_lambda W_o(lambda) and the counts fitted
    against that distribution, so the absolute click fraction carries no
    weight.  All-click outcomes are excluded.  Needs >= 2 settings.  The
    projected Fisher-scoring ascent, with EML's score and expected
    information, runs from the moment start of the used outcomes.  The
    objective is not concave, so ``n_starts`` above 1 adds
    ``n_starts - 1`` jittered restarts; the start with the highest
    objective wins, the first among equals.  This is the one-set call of
    :func:`eml_estimate_many`.
    """
    return eml_estimate_many([records], model, options)[0]


def eml_estimate_many(record_sets, model, options: EstimateOptions | None = None) -> list:
    """:func:`eml_estimate` of every record set, fitted in one batched ascent.

    Takes the arguments of :func:`ml_estimate_many`, so callers fit many
    record sets the same way with either estimator.  Every start of every
    set is one problem of the batch; each set's result is bit-identical to
    its lone ``eml_estimate`` fit.
    """
    return _results(_fit_stack(*_stack(record_sets, model), model, options, eml=True), model)


@dataclass(frozen=True, eq=False)
class _StackFit:
    """Arrays of the fits of a count stack, one entry per set: the winning
    start's cells, loglik, Newton steps and convergence, and every start's
    (sets x starts)."""

    p: np.ndarray
    loglik: np.ndarray
    steps: np.ndarray
    converged: np.ndarray
    start_loglik: np.ndarray
    start_steps: np.ndarray
    start_converged: np.ndarray


def _fit_stack(K, F, model, options: EstimateOptions | None, eml: bool) -> _StackFit:
    """ML (or, with ``eml``, EML) fits of every set of a count stack F
    (sets x records x outcomes) on the shared kernel stack K, as
    :func:`_stack` builds them, in one batched ascent.

    Each start of each set is one problem: ML runs the moment start
    alone, on the count terms it shares with its ascent, EML its
    ``n_starts`` starts with the model's used outcomes.  The start with
    the highest objective wins, the first among equals; the ascent gives
    each start's cells and objective, so none is evaluated again.
    The counts are taken as checked: ``*_estimate_many`` is the entry
    for record sets, and :func:`_results` wraps the arrays into
    :class:`EstimateResult` objects.
    """
    options = options or EstimateOptions()
    if eml:
        if model.n_settings < 2:
            raise InvalidInputError("the baseline needs at least two attenuator settings")
        used = model.eml_used()
        Z0 = _eml_starts(K, F, used, options)
        terms = _Terms(K, np.repeat(F, Z0.shape[1], axis=0), used)
    else:
        terms = _Terms(K, F)
        Z0 = _starts(terms)[:, None]
    n_sets, n_starts = Z0.shape[:2]
    fits = _fisher_scoring(terms, Z0.reshape(n_sets * n_starts, -1), options.max_iter)
    P, ll, steps, converged = (a.reshape(n_sets, n_starts, *a.shape[1:]) for a in fits)
    best = (np.arange(n_sets), np.argmax(ll, axis=1))
    return _StackFit(P[best], ll[best], steps[best], converged[best], ll, steps, converged)


def _results(fits: _StackFit, model) -> list:
    """One :class:`EstimateResult` per set of a :func:`_fit_stack` result."""
    results = []
    for p, loglik, k, ok, logliks, steps, converged in zip(
        fits.p, fits.loglik.tolist(), fits.steps.tolist(), fits.converged.tolist(),
        fits.start_loglik.tolist(), fits.start_steps.tolist(), fits.start_converged.tolist(),
    ):
        starts = tuple(map(StartResult, logliks, steps, converged))
        results.append(EstimateResult(model.fitted(p), loglik, k, ok, starts))
    return results


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


def __getattr__(name: str):
    # No fit calls scipy.  This lazy alias exists only for the
    # ("ppskit.estimate", "minimize", ...) entry of TRACED in
    # perfbench/layers.py, whose tracer looks the name up with getattr;
    # importing this module loads no scipy.
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
