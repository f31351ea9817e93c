"""Click detection: beam splitters, finite-efficiency detectors, noise.

Each mode is split on a beam splitter and monitored by two on/off
detectors, so one mode yields four outcomes ordered (XX, XO, OX, OO) where
the letters are the (transmitted, reflected) detectors and O means a click.
A bipartite source yields the 4 x 4 outcome table indexed
[signal outcome, idler outcome], i.e. row-major status order
XXXX, XXXO, XXOX, XXOO, XOXX, ... OOOO for detectors D1 D2 D3 D4.

The photon-number to outcome map is a conversion matrix M, per-trial noise
clicks are a lower-triangular matrix N, and attenuators fold exactly into
the detector efficiencies.  A detection model (:mod:`ppskit.estimate`)
stacks each setting's maps into the kernel K of W = K p, the one forward
model that the fits and the simulator read; :func:`bipartite_probs` and
:func:`single_mode_probs` give one checked table of the same maps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataModelMismatchError, InvalidInputError, check_count
from .pnd import PndMatrix
from .tables import parse_int, read_table, write_table

# Largest n_max of an outcome map; see conversion_matrix.
_MAX_PHOTONS = 10**4
# In which of a mode's outcomes (XX, XO, OX, OO) its transmitted-port
# detector (D1 on signal, D3 on idler, row 0) and its reflected-port
# detector (D2, D4, row 1) clicked.
_CLICKED = np.array([[False, False, True, True], [False, True, False, True]])


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

    def with_gamma(self, gamma: float) -> "DetectorPair":
        return replace(self, gamma=gamma)


def check_counts(F: np.ndarray, n_m, raw: bool = True) -> None:
    """Check count records of ``n_m`` trials each, one per row of ``F``'s
    last axis (a lone record is one flat row): every count is finite, and
    raw counts are nonnegative and each record sums to ``n_m``."""
    if not np.all(np.isfinite(F)):
        raise InvalidInputError("counts must be finite")
    check_count("n_m", n_m, 0)
    if not raw:
        return
    if np.any(F < 0):
        raise InvalidInputError("raw counts must be nonnegative")
    totals = F.sum(axis=-1)
    off = np.abs(totals - n_m) > max(0.5, 2e-12 * n_m)
    if np.any(off):
        raise DataModelMismatchError(f"counts sum to {totals[off].flat[0]} but n_m={n_m}")


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
    """Observed frequencies of the 16 outcomes for setting index ``nu`` >= 0.

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
        check_counts(f.reshape(-1), self.n_m, raw=not self.noise_corrected)
        f.setflags(write=False)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "nu", check_count("nu", self.nu, 0))


@dataclass(frozen=True, eq=False)
class SingleCountRecord:
    """Outcome counts of a single-mode measurement under one attenuator.

    ``f`` has length 4 for the two-detector layout or length 2 (no click,
    click) when only the transmitted detector exists.  ``nu`` >= 0 indexes
    the attenuator in the model's ``gammas``.
    """

    f: np.ndarray
    n_m: int
    nu: int = 0

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        if f.shape not in ((4,), (2,)):
            raise InvalidInputError(f"single-mode counts must be (4,) or (2,), got {f.shape}")
        check_counts(f, self.n_m)
        f.setflags(write=False)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "nu", check_count("nu", self.nu, 0))


def conversion_matrix(T: float, eta_t: float, eta_r: float, n_max: int = 2) -> np.ndarray:
    """Photon number to click outcome map M, shape 4 x (n_max + 1).

    Column n gives the outcome probabilities for exactly n photons hitting
    the splitter, assuming photons act independently: transmitted with
    probability T then detected with eta_t, reflected and detected with
    eta_r.  Columns sum to 1 within roundoff, and every entry is
    nonnegative.

    ``n_max`` is a whole number of at most 10^4, checked before any column
    is built: the columns come from a Python loop over the photon numbers,
    which a huge ``n_max`` would run until memory ran out.  No larger
    truncation is of use here, since a bipartite model's kernel holds
    16 (n_max + 1)² floats per setting, 12.8 GB at the bound, and a
    PndMatrix at the bound already has 10^8 cells.
    """
    for name, value in (("T", T), ("eta_t", eta_t), ("eta_r", eta_r)):
        if not (0.0 <= value <= 1.0):
            raise InvalidInputError(f"{name} must lie in [0, 1], got {value}")
    n_max = check_count("n_max", n_max, 0)
    if n_max > _MAX_PHOTONS:
        raise InvalidInputError(f"n_max must be at most {_MAX_PHOTONS}, got {n_max}")
    pt = T * eta_t          # per-photon click at the transmitted detector
    pr = (1.0 - T) * eta_r  # per-photon click at the reflected detector
    x, y = 1.0 - pt, 1.0 - pr  # per-photon miss at each detector
    z = max(x - pr, 0.0)       # per-photon miss at both; xy - z = pt pr
    photons = range(1, n_max + 1)  # past the vacuum, whose column is fixed

    # Each cell past the vacuum is formed without subtracting numbers near
    # 1, so a small click probability keeps its relative accuracy.
    def gap(a, u):
        """a^k - (a - u)^k for each photon number k, for 0 <= u <= a, as
        -a^k expm1(k log1p(-u/a))."""
        if u >= a:  # (a - u)^k = 0
            return [a**k for k in photons]
        log_ratio = math.log1p(-u / a)
        return [-(a**k) * math.expm1(k * log_ratio) for k in photons]

    # Both: 1 - x^k - y^k + z^k = (1 - x^k)(1 - y^k) - ((xy)^k - z^k), a
    # difference that loses at most about one bit (the second term is at
    # most half the first for k >= 2).  One photon never clicks both.
    both = [max(ct * cr - pair, 0.0)
            for ct, cr, pair in zip(gap(1.0, pt), gap(1.0, pr), gap(x * y, pt * pr))]
    both[0] = 0.0
    return np.array([
        [1.0] + [z**k for k in photons],
        [0.0] + gap(x, pr),  # reflected detector only: x^k - z^k
        [0.0] + gap(y, pt),  # transmitted detector only: y^k - z^k
        [0.0] + both,
    ])


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
    efficiencies of each side (:func:`outcome_map`).  ``P`` must be
    normalized (renormalize truncated inputs first).
    """
    if P.subnormalized:
        raise InvalidInputError(
            "outcome probabilities need a normalized PND; use PndMatrix.renormalized()"
        )
    return OutcomeProbs(outcome_map(det_s, P.n_max) @ P.p @ outcome_map(det_i, P.n_max).T)


def noise_correct(
    rec: CountRecord, d1: float, d2: float, d3: float, d4: float
) -> CountRecord:
    """Remove expected noise-click increments from a raw count table.

    Applies the inverses of the per-mode noise maps and clamps negative
    cells at zero.  The result is real-valued and flagged noise_corrected;
    its total may differ from n_m after clamping.
    """
    for d in (d1, d2, d3, d4):
        if not (0.0 <= d < 1.0):
            raise InvalidInputError("noise probabilities must lie in [0, 1)")
    inv_s = np.linalg.inv(noise_matrix(d1, d2))
    inv_i = np.linalg.inv(noise_matrix(d3, d4))
    corrected = inv_s @ rec.f @ inv_i.T
    return CountRecord(
        np.where(corrected < 0.0, 0.0, corrected), rec.n_m, nu=rec.nu, noise_corrected=True
    )


# ---------------------------------------------------------------------------
# count marginals


@functools.cache
def _click_cells(detectors: frozenset) -> np.ndarray:
    """Flat 4 x 4 cells in which every one of ``detectors`` clicked, in the
    row-major order of the f[np.ix_(rows, cols)] block, so that a total
    over them sums in that order.  Each set's cells are built once."""
    clicked = np.ones((2, 4), dtype=bool)  # signal outcomes (rows), idler outcomes (cols)
    for det in detectors:
        mode, port = divmod(int(det) - 1, 2)
        clicked[mode] &= _CLICKED[port]
    rows, cols = np.flatnonzero(clicked[0]), np.flatnonzero(clicked[1])
    return (4 * rows[:, None] + cols).reshape(-1)


def counts_with_clicks(f: np.ndarray, detectors) -> float:
    """Total counts of a 4 x 4 table in which every listed detector clicked."""
    detectors = list(detectors)
    for det in detectors:
        if det not in (1, 2, 3, 4):
            raise InvalidInputError(f"detector index must be 1..4, got {det}")
    return float(np.take(f, _click_cells(frozenset(detectors))).sum())


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
