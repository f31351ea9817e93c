"""Click detection: beam splitters, finite-efficiency detectors, noise.

Each mode is split on a beam splitter and monitored by two on/off
detectors, so one mode yields four outcomes ordered (XX, XO, OX, OO) where
the letters are the (transmitted, reflected) detectors and O means a click.
A bipartite source yields the 4 x 4 outcome table indexed
[signal outcome, idler outcome], i.e. row-major status order
XXXX, XXXO, XXOX, XXOO, XOXX, ... OOOO for detectors D1 D2 D3 D4.

The photon-number to outcome map is a conversion matrix M, per-trial noise
clicks are a lower-triangular matrix N, and attenuators fold exactly into
the detector efficiencies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataModelMismatchError, InvalidInputError
from .pnd import PndMatrix
from .tables import parse_int, read_table, write_table

STATUS_LABELS = ("XX", "XO", "OX", "OO")

# Outcome indices of one mode pair in which a given detector clicked.
T_CLICK = (2, 3)  # transmitted-port detector (D1 on signal, D3 on idler)
R_CLICK = (1, 3)  # reflected-port detector (D2 on signal, D4 on idler)


@dataclass(frozen=True)
class DetectorPair:
    """Beam splitter plus two on/off detectors monitoring one mode.

    ``T`` is the splitter transmittance (reflectance 1 - T), ``eta_t`` /
    ``eta_r`` the detector efficiencies, ``d_t`` / ``d_r`` per-trial noise
    click probabilities, and ``gamma`` an optional attenuator in front of
    the splitter (folded into the efficiencies).
    """

    T: float
    eta_t: float
    eta_r: float
    d_t: float = 0.0
    d_r: float = 0.0
    gamma: float = 1.0

    def __post_init__(self):
        for name in ("T", "eta_t", "eta_r", "gamma"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise InvalidInputError(f"{name} must lie in [0, 1], got {value}")
        for name in ("d_t", "d_r"):
            value = getattr(self, name)
            if not (0.0 <= value < 1.0):
                raise InvalidInputError(f"{name} must lie in [0, 1), got {value}")

    @property
    def R(self) -> float:
        return 1.0 - self.T

    def with_gamma(self, gamma: float) -> "DetectorPair":
        return replace(self, gamma=gamma)


def _check_counts(f: np.ndarray, n_m, raw: bool = True) -> None:
    if not np.all(np.isfinite(f)):
        raise InvalidInputError("counts must be finite")
    if not 0 <= n_m < np.inf:
        raise InvalidInputError(f"n_m must be finite and nonnegative, got {n_m}")
    if raw and np.any(f < 0):
        raise InvalidInputError("raw counts must be nonnegative")
    if raw and abs(f.sum() - n_m) > max(0.5, 2e-12 * n_m):
        raise DataModelMismatchError(f"counts sum to {f.sum()} but n_m={n_m}")


@dataclass(frozen=True, eq=False)
class OutcomeProbs:
    """Outcome probabilities of one trial: 4-vector or 4 x 4 table."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape not in ((4,), (4, 4)):
            raise InvalidInputError(f"outcome array must be (4,) or (4,4), got {probs.shape}")
        if not np.all(np.isfinite(probs)):
            raise InvalidInputError("outcome probabilities must be finite")
        if np.any(probs < -1e-12):
            raise InvalidInputError("negative outcome probability")
        probs = np.where(probs < 0.0, 0.0, probs)
        if abs(probs.sum() - 1.0) > 1e-10:
            raise InvalidInputError(f"outcome probabilities sum to {probs.sum()}")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True, eq=False)
class CountRecord:
    """Observed frequencies of the 16 outcomes for one setting.

    ``f[a, b]`` counts trials with signal-pair outcome a and idler-pair
    outcome b in the status order above.  Every cell is finite.  Raw
    records hold nonnegative counts summing to ``n_m``: exact integers
    when read by :func:`read_counts_csv`, real-valued expectations in
    ``exact_counts`` sweeps.  Noise-corrected records hold real values
    whose total may deviate after clamping.
    """

    f: np.ndarray
    n_m: int
    nu: int = 0
    noise_corrected: bool = False

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        if f.shape != (4, 4):
            raise InvalidInputError(f"count table must be 4x4, got {f.shape}")
        _check_counts(f, self.n_m, raw=not self.noise_corrected)
        f.setflags(write=False)
        object.__setattr__(self, "f", f)


@dataclass(frozen=True, eq=False)
class SingleCountRecord:
    """Outcome counts of a single-mode measurement under one attenuator.

    ``f`` has length 4 for the two-detector layout or length 2 (no click,
    click) when only the transmitted detector exists.  ``nu`` indexes the
    attenuator in the model's ``gammas``.
    """

    f: np.ndarray
    n_m: int
    nu: int = 0

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        if f.shape not in ((4,), (2,)):
            raise InvalidInputError(f"single-mode counts must be (4,) or (2,), got {f.shape}")
        _check_counts(f, self.n_m)
        f.setflags(write=False)
        object.__setattr__(self, "f", f)


def conversion_matrix(T: float, eta_t: float, eta_r: float, n_max: int = 2) -> np.ndarray:
    """Photon number to click outcome map M, shape 4 x (n_max + 1).

    Column n gives the outcome probabilities for exactly n photons hitting
    the splitter, assuming photons act independently: transmitted with
    probability T then detected with eta_t, reflected and detected with
    eta_r.  Columns sum to 1.
    """
    for name, value in (("T", T), ("eta_t", eta_t), ("eta_r", eta_r)):
        if not (0.0 <= value <= 1.0):
            raise InvalidInputError(f"{name} must lie in [0, 1], got {value}")
    pt = T * eta_t          # per-photon click at the transmitted detector
    pr = (1.0 - T) * eta_r  # per-photon click at the reflected detector
    n = np.arange(n_max + 1)
    none = (1.0 - pt - pr) ** n
    no_t = (1.0 - pt) ** n
    no_r = (1.0 - pr) ** n
    M = np.empty((4, n_max + 1))
    M[0] = none
    M[1] = no_t - none           # reflected detector only
    M[2] = no_r - none           # transmitted detector only
    M[3] = 1.0 - no_t - no_r + none
    return M


def noise_matrix(d_t: float, d_r: float) -> np.ndarray:
    """Per-trial noise click map N over (XX, XO, OX, OO); columns sum to 1."""
    for name, value in (("d_t", d_t), ("d_r", d_r)):
        if not (0.0 <= value <= 1.0):
            raise InvalidInputError(f"{name} must lie in [0, 1], got {value}")
    return np.array(
        [
            [(1 - d_t) * (1 - d_r), 0.0, 0.0, 0.0],
            [(1 - d_t) * d_r, 1 - d_t, 0.0, 0.0],
            [d_t * (1 - d_r), 0.0, 1 - d_r, 0.0],
            [d_t * d_r, d_t, d_r, 1.0],
        ]
    )


def outcome_map(det: DetectorPair, n_max: int = 2) -> np.ndarray:
    """Full per-mode map N . M with the attenuator folded into efficiencies."""
    M = conversion_matrix(det.T, det.gamma * det.eta_t, det.gamma * det.eta_r, n_max)
    return noise_matrix(det.d_t, det.d_r) @ M


def single_mode_probs(pv, det: DetectorPair) -> OutcomeProbs:
    """Outcome probabilities of one mode with distribution ``pv``."""
    pv = np.asarray(pv, dtype=float)
    return OutcomeProbs(outcome_map(det, pv.size - 1) @ pv)


def bipartite_probs(P: PndMatrix, det_s: DetectorPair, det_i: DetectorPair) -> OutcomeProbs:
    """16-outcome probability table of a bipartite source.

    W = (N_s M_s) P (N_i M_i)^T with attenuators folded into the
    efficiencies of each side.  ``P`` must be normalized (renormalize
    truncated inputs first).
    """
    if P.subnormalized:
        raise InvalidInputError(
            "bipartite_probs needs a normalized PND; use PndMatrix.renormalized()"
        )
    A = outcome_map(det_s, P.n_max)
    B = outcome_map(det_i, P.n_max)
    return OutcomeProbs(A @ P.p @ B.T)


def noise_correct_counts(f, d1: float, d2: float, d3: float, d4: float) -> np.ndarray:
    """Raw 4 x 4 count tables, or a stack of them (..., 4, 4), with the
    expected noise-click increments removed and negative cells clamped at
    zero."""
    for d in (d1, d2, d3, d4):
        if not (0.0 <= d < 1.0):
            raise InvalidInputError("noise probabilities must lie in [0, 1)")
    inv_s = np.linalg.inv(noise_matrix(d1, d2))
    inv_i = np.linalg.inv(noise_matrix(d3, d4))
    corrected = inv_s @ f @ inv_i.T
    return np.where(corrected < 0.0, 0.0, corrected)


def noise_correct(
    rec: CountRecord, d1: float, d2: float, d3: float, d4: float
) -> CountRecord:
    """Remove expected noise-click increments from a raw count table.

    Applies the inverses of the per-mode noise maps and clamps negative
    cells at zero.  The result is real-valued and flagged noise_corrected;
    its total may differ from n_m after clamping.
    """
    return CountRecord(
        noise_correct_counts(rec.f, d1, d2, d3, d4), rec.n_m, nu=rec.nu, noise_corrected=True
    )


def noise_correct_single(counts, d_t: float, d_r: float = 0.0) -> np.ndarray:
    """Noise-corrected single-mode counts (returned as a bare array).

    ``counts`` is a SingleCountRecord or an array whose last axis holds
    the 2 or 4 outcomes of one or more records.
    """
    f = counts.f if isinstance(counts, SingleCountRecord) else np.asarray(counts, dtype=float)
    if f.shape[-1] == 2:
        inv = np.linalg.inv(np.array([[1 - d_t, 0.0], [d_t, 1.0]]))
    else:
        inv = np.linalg.inv(noise_matrix(d_t, d_r))
    corrected = (inv @ f[..., None])[..., 0]
    return np.where(corrected < 0.0, 0.0, corrected)


# ---------------------------------------------------------------------------
# count marginals


def detector_clicked_mask(detector: int) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks (rows, cols) of the 4x4 table where detector 1..4 clicked."""
    if detector not in (1, 2, 3, 4):
        raise InvalidInputError(f"detector index must be 1..4, got {detector}")
    click = np.zeros(4, dtype=bool)
    click[list(T_CLICK if detector in (1, 3) else R_CLICK)] = True
    if detector <= 2:
        return click, np.ones(4, dtype=bool)
    return np.ones(4, dtype=bool), click


def counts_with_clicks(f: np.ndarray, detectors):
    """Total counts in which every listed detector clicked.

    A float for one 4 x 4 table, an array for a stack (..., 4, 4).
    """
    rows = np.ones(4, dtype=bool)
    cols = np.ones(4, dtype=bool)
    for det in detectors:
        r, c = detector_clicked_mask(det)
        rows &= r
        cols &= c
    block = f[..., rows, :][..., cols]
    total = block.reshape(block.shape[:-2] + (-1,)).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def singles(rec: CountRecord) -> np.ndarray:
    """Single-detector counts S_1..S_4 (clicks regardless of the others)."""
    return np.array([counts_with_clicks(rec.f, [j]) for j in (1, 2, 3, 4)])


# ---------------------------------------------------------------------------
# CSV interface

_COUNT_HEADER = ["nu", "n_m"] + [f"f{a + 1}{b + 1}" for a in range(4) for b in range(4)]


def write_counts_csv(path, records) -> None:
    """Write count records in the 16-column status order, one row per record."""
    write_table(path, _COUNT_HEADER, ([rec.nu, rec.n_m, *rec.f.reshape(-1)] for rec in records))


def read_counts_csv(path) -> tuple[list[CountRecord], dict]:
    """Read count records, summing rows that share a setting id.

    Data acquired as many short rows per setting (e.g. per-second dumps)
    aggregates to one record per ``nu``.  Every cell must be an exact
    integer (see :func:`ppskit.tables.parse_int`), and rows are summed
    exactly.  Returns the records ordered by setting id plus a small info
    dict recording how many rows each setting contributed.
    """
    rows, _ = read_table(
        path, _COUNT_HEADER, "count",
        lambda row: (parse_int(row["nu"]), [parse_int(row[name]) for name in _COUNT_HEADER[1:]]),
        ordered=True,
    )
    sums: dict[int, list[int]] = {}  # n_m, then the 16 cells
    rows_per_nu: dict[int, int] = {}
    for nu, values in rows:
        sums[nu] = [a + b for a, b in zip(sums.get(nu, [0] * 17), values)]
        rows_per_nu[nu] = rows_per_nu.get(nu, 0) + 1
    records = [
        CountRecord(np.array(sums[nu][1:], dtype=float).reshape(4, 4), sums[nu][0], nu=nu)
        for nu in sorted(sums)
    ]
    return records, {"rows_per_setting": rows_per_nu}
