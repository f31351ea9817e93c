"""Photon number distribution matrices, loss channels and characteristics.

The central object is a truncated matrix P[j, k] = probability of j signal
and k idler photons.  Loss (including detector efficiency modeled as a beam
splitter) acts by binomial transfer matrices; the derived source figures of
merit (pair probability, heralding bounds, marginal and heralded
second-order correlations) are plain functions of the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UndefinedCharacteristicError
from .tables import parse_int, read_table, write_table

_SUM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class PndMatrix:
    """(n_max+1) x (n_max+1) photon-number probability matrix.

    Row index = signal photon number, column index = idler photon number.
    ``subnormalized`` marks intermediate pieces (truncated tails, expansion
    orders) whose total may be below 1; characteristic operations reject
    such inputs.
    """

    p: np.ndarray
    subnormalized: bool = False

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 2:
            raise InvalidInputError(f"PND matrix must be square and >= 2x2, got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise InvalidInputError("PND matrix has non-finite entries")
        if np.any(p < -1e-12):
            raise InvalidInputError("PND matrix has negative entries")
        p = np.where(p < 0.0, 0.0, p)
        total = float(p.sum())
        if self.subnormalized:
            if total > 1.0 + _SUM_TOL:
                raise InvalidInputError(f"subnormalized PND sums to {total} > 1")
        elif abs(total - 1.0) > _SUM_TOL:
            raise InvalidInputError(f"PND must sum to 1 within {_SUM_TOL}, got {total}")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    @property
    def n_max(self) -> int:
        return self.p.shape[0] - 1

    def total(self) -> float:
        return float(self.p.sum())

    def renormalized(self) -> "PndMatrix":
        """Rescale so the cells sum to 1 (e.g. to drop a truncated tail)."""
        return PndMatrix(self.p / self.total())


@dataclass(frozen=True)
class LossChannel:
    """Transmittance of one optical path (a loss element or attenuator)."""

    T: float

    def __post_init__(self):
        if not (0.0 <= self.T <= 1.0):
            raise InvalidInputError(f"transmittance must lie in [0, 1], got {self.T}")


@dataclass(frozen=True)
class CharacteristicSet:
    """Source figures of merit computed from a PND matrix."""

    p_g: float
    eta_H_s: float
    eta_H_i: float
    g2_s: float
    g2_i: float
    gh2_s: float
    gh2_i: float

    def as_dict(self) -> dict:
        return {
            "p_g": self.p_g,
            "eta_H_s": self.eta_H_s,
            "eta_H_i": self.eta_H_i,
            "g2_s": self.g2_s,
            "g2_i": self.g2_i,
            "gh2_s": self.gh2_s,
            "gh2_i": self.gh2_i,
        }

    FIELDS = ("p_g", "eta_H_s", "eta_H_i", "g2_s", "g2_i", "gh2_s", "gh2_i")


def tmsv_pnd(mu: float, n_max: int = 2) -> PndMatrix:
    """Two-mode squeezed vacuum: diagonal thermal distribution (1-mu) mu^j.

    The truncated tail (weight mu^(n_max+1)) is dropped and the result is
    flagged subnormalized whenever mu > 0.
    """
    if not (0.0 <= mu < 1.0):
        raise InvalidInputError(f"mu must lie in [0, 1), got {mu}")
    p = np.zeros((n_max + 1, n_max + 1))
    for j in range(n_max + 1):
        p[j, j] = (1.0 - mu) * mu**j
    return PndMatrix(p, subnormalized=mu > 0.0)


def loss_matrix(T, n_max: int = 2) -> np.ndarray:
    """Binomial loss transfer matrix L[n, m] = C(m, n) T^n (1-T)^(m-n).

    Maps an input distribution over m photons to the output distribution
    over n <= m survivors; columns sum to 1.  Accepts a bare transmittance
    or a :class:`LossChannel`.
    """
    if isinstance(T, LossChannel):
        T = T.T
    if not (0.0 <= T <= 1.0):
        raise InvalidInputError(f"transmittance must lie in [0, 1], got {T}")
    size = n_max + 1
    L = np.zeros((size, size))
    for m in range(size):
        for n in range(m + 1):
            L[n, m] = math.comb(m, n) * T**n * (1.0 - T) ** (m - n)
    return L


def apply_loss_bipartite(P: PndMatrix, T_s: float, T_i: float) -> PndMatrix:
    """Independent losses on both modes: Q = L_s(T_s) . P . L_i(T_i)^T.

    The loss matrices are column-stochastic, so the total probability (and
    the subnormalized flag) carries over unchanged.
    """
    L_s = loss_matrix(T_s, P.n_max)
    L_i = loss_matrix(T_i, P.n_max)
    return PndMatrix(L_s @ P.p @ L_i.T, subnormalized=P.subnormalized)


def marginal(P: PndMatrix, mode: str) -> np.ndarray:
    """Photon-number distribution of one mode: row sums (s) or column sums (i)."""
    if mode == "s":
        return P.p.sum(axis=1)
    if mode == "i":
        return P.p.sum(axis=0)
    raise InvalidInputError(f"mode must be 's' or 'i', got {mode!r}")


def pair_gen_prob(P: PndMatrix) -> float:
    """Pair generation probability, defined as the (1, 1) cell."""
    return float(P.p[1, 1])


def _require_normalized(P: PndMatrix, op: str) -> None:
    if P.subnormalized:
        raise InvalidInputError(f"{op} requires a normalized PND matrix")


def heralding_bounds(P: PndMatrix) -> tuple[float, float]:
    """Loss-free upper bounds on the heralding efficiencies (s, i).

    eta_H_s = P(both present) / P(idler present); eta_H_i symmetric.  These
    depend only on the source distribution, not on detector efficiencies.
    """
    _require_normalized(P, "heralding_bounds")
    both = float(P.p[1:, 1:].sum())
    idler_only = float(P.p[0, 1:].sum())
    signal_only = float(P.p[1:, 0].sum())
    if both + idler_only <= 0.0 or both + signal_only <= 0.0:
        raise UndefinedCharacteristicError(
            "heralding bound undefined: no photons on one of the modes"
        )
    return both / (idler_only + both), both / (signal_only + both)


def g2_marginal(pv, truncated: bool = False) -> float:
    """Time-integrated second-order autocorrelation of one mode.

    The full form is sum(n(n-1) P_n) / (sum(n P_n))^2.  ``truncated=True``
    returns 2 P_2 / P_1^2, the two-photon approximation appropriate when
    the mean photon number is far below 1.
    """
    pv = np.asarray(pv, dtype=float)
    if truncated:
        if pv.size < 3 or pv[1] <= 0.0:
            raise UndefinedCharacteristicError("truncated g2 undefined: P_1 is zero")
        return 2.0 * float(pv[2]) / float(pv[1]) ** 2
    n = np.arange(pv.size)
    mean = float(np.sum(n * pv))
    if mean <= 0.0:
        raise UndefinedCharacteristicError("g2 undefined: mean photon number is zero")
    return float(np.sum((n**2 - n) * pv)) / mean**2


def gh2(P: PndMatrix, heralded: str = "s") -> float:
    """Heralded second-order correlation in the two-pair approximation.

    For heralded signal photons: 2 (P21 + P22)(P01 + P11) / P11^2; the
    idler case is the index transpose.
    """
    p = P.p
    if heralded == "i":
        p = p.T
    elif heralded != "s":
        raise InvalidInputError(f"heralded must be 's' or 'i', got {heralded!r}")
    p11 = float(p[1, 1])
    if p11 <= 0.0:
        raise UndefinedCharacteristicError("gh2 undefined: P11 is zero")
    return 2.0 * float(p[2, 1] + p[2, 2]) * float(p[0, 1] + p[1, 1]) / p11**2


def characteristics(P: PndMatrix) -> CharacteristicSet:
    """All derived figures of merit of a normalized PND matrix.

    Marginal g2 values use the truncated two-photon form, which is the
    faithful one for pair sources with mean photon number far below 1.
    """
    _require_normalized(P, "characteristics")
    eta_s, eta_i = heralding_bounds(P)
    return CharacteristicSet(
        p_g=pair_gen_prob(P),
        eta_H_s=eta_s,
        eta_H_i=eta_i,
        g2_s=g2_marginal(marginal(P, "s"), truncated=True),
        g2_i=g2_marginal(marginal(P, "i"), truncated=True),
        gh2_s=gh2(P, "s"),
        gh2_i=gh2(P, "i"),
    )


def write_pnd_csv(path, P: PndMatrix, metadata: dict | None = None) -> None:
    """Write a PND matrix as j,k,p rows (all cells, zeros included).

    ``metadata`` entries are emitted as leading ``# key=value`` lines.
    """
    cells = ([j, k, p] for j, row in enumerate(P.p) for k, p in enumerate(row))
    write_table(path, ["j", "k", "p"], cells, metadata)


def _parse_pnd_row(row: dict) -> tuple[int, int, float]:
    j, k = parse_int(row["j"]), parse_int(row["k"])
    if j < 0 or k < 0:
        raise ValueError(f"negative photon number in cell ({j}, {k})")
    return j, k, float(row["p"])


def read_pnd_csv(path) -> tuple[PndMatrix, dict]:
    """Read a PND matrix written by :func:`write_pnd_csv`, with its metadata.

    The rows must list every cell of an (n+1) x (n+1) matrix exactly once,
    zeros included; the row count fixes n before anything is allocated.
    """
    rows, metadata = read_table(path, ["j", "k", "p"], "PND", _parse_pnd_row)
    side = math.isqrt(len(rows))
    cells = {(j, k) for j, k, _ in rows}
    if side * side != len(rows) or len(cells) != len(rows) or max(map(max, cells)) >= side:
        raise InvalidInputError(
            f"PND CSV has {len(rows)} rows; it must list every cell of an "
            "(n+1) x (n+1) matrix exactly once, zeros included"
        )
    p = np.zeros((side, side))
    for j, k, value in rows:
        p[j, k] = value
    return PndMatrix(p, subnormalized=p.sum() < 1.0 - _SUM_TOL), metadata
