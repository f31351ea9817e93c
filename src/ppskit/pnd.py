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

from .errors import InvalidInputError, UndefinedCharacteristicError, check_count
from .tables import parse_int, read_table, write_table

_SUM_TOL = 1e-10
_MAX_CELLS = (2**63 - 1) // 8  # float64 cells whose bytes numpy can count


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
        p = checked_cells(p, self.subnormalized)
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


def checked_cells(p: np.ndarray, subnormalized: bool = False) -> np.ndarray:
    """The :class:`PndMatrix` rules, run once over a stack of matrices
    (... x N x N): every entry finite and none below -1e-12, and each
    matrix summing to 1 within ``_SUM_TOL`` (to at most 1 + ``_SUM_TOL``
    if ``subnormalized``).  Returns a copy with the roundoff below 0 set
    to 0."""
    if not np.all(np.isfinite(p)):
        raise InvalidInputError("PND matrix has non-finite entries")
    if np.any(p < -1e-12):
        raise InvalidInputError("PND matrix has negative entries")
    p = np.where(p < 0.0, 0.0, p)
    totals = p.sum(axis=(-2, -1))
    if subnormalized:
        off = totals > 1.0 + _SUM_TOL
        if np.any(off):
            raise InvalidInputError(f"subnormalized PND sums to {totals[off].flat[0]} > 1")
    else:
        off = np.abs(totals - 1.0) > _SUM_TOL
        if np.any(off):
            raise InvalidInputError(f"PND must sum to 1 within {_SUM_TOL}, got {totals[off].flat[0]}")
    return p


@dataclass(frozen=True)
class CharacteristicSet:
    """Source figures of merit computed from a PND matrix.

    Every field is finite.  A figure whose denominator is 0 is undefined,
    and so are g2 (over P_1^2) and gh2 (over P11^2) wherever that square
    is below the smallest normal float (``np.finfo(float).tiny``), so no
    ratio can overflow: :func:`characteristics` raises
    ``UndefinedCharacteristicError`` for such a matrix, and
    :func:`characteristics_many` returns NaN and flags it.
    """

    p_g: float
    eta_H_s: float
    eta_H_i: float
    g2_s: float
    g2_i: float
    gh2_s: float
    gh2_i: float

    FIELDS = ("p_g", "eta_H_s", "eta_H_i", "g2_s", "g2_i", "gh2_s", "gh2_i")

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


def _check_n_max(n_max, minimum: int) -> int:
    """``n_max`` as an int: a whole number >= ``minimum`` whose (n_max + 1)²
    float64 cells numpy can count."""
    n_max = check_count("n_max", n_max, minimum)
    if (n_max + 1) ** 2 > _MAX_CELLS:
        raise InvalidInputError(f"n_max must be at most {math.isqrt(_MAX_CELLS) - 1}, got {n_max}")
    return n_max


def tmsv_pnd(mu: float, n_max: int = 2) -> PndMatrix:
    """Two-mode squeezed vacuum: diagonal thermal distribution (1-mu) mu^j.

    The truncated tail (weight mu^(n_max+1)) is dropped and the result is
    flagged subnormalized whenever mu > 0.
    """
    if not (0.0 <= mu < 1.0):
        raise InvalidInputError(f"mu must lie in [0, 1), got {mu}")
    n_max = _check_n_max(n_max, 1)
    p = np.zeros((n_max + 1, n_max + 1))
    for j in range(n_max + 1):
        p[j, j] = (1.0 - mu) * mu**j
    return PndMatrix(p, subnormalized=mu > 0.0)


def loss_matrix(T, n_max: int = 2) -> np.ndarray:
    """Binomial loss transfer matrix L[n, m] = C(m, n) T^n (1-T)^(m-n).

    Maps an input distribution over m photons to the output distribution
    over n <= m survivors; columns sum to 1.  ``n_max`` must be at most
    1000: past 1029 a binomial coefficient C(m, n) leaves the float range.
    """
    if not (0.0 <= T <= 1.0):
        raise InvalidInputError(f"transmittance must lie in [0, 1], got {T}")
    n_max = _check_n_max(n_max, 0)
    if n_max > 1000:
        raise InvalidInputError(f"n_max of a loss matrix must be at most 1000, got {n_max}")
    L = np.zeros((n_max + 1, n_max + 1))
    for m in range(n_max + 1):
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


# Why each CharacteristicSet field can be undefined; the fields are in the
# order characteristics() checks them, so the first undefined one names it.
_UNDEFINED = (
    None,
    "heralding bound undefined: no photons on one of the modes",
    "heralding bound undefined: no photons on one of the modes",
    "truncated g2 undefined: P_1 is zero or its square underflows",
    "truncated g2 undefined: P_1 is zero or its square underflows",
    "gh2 undefined: P11 is zero or its square underflows",
    "gh2 undefined: P11 is zero or its square underflows",
)

# g2 and gh2 are defined only where their squared denominator is at least
# the smallest normal float: every numerator is at most 2, so no defined
# ratio can overflow.
_TINY = np.finfo(float).tiny


def _ratio(num, den, defined) -> np.ndarray:
    """num / den where ``defined``, NaN elsewhere."""
    return np.divide(num, den, out=np.full(np.shape(den), np.nan), where=defined)


def _squared(x) -> np.ndarray:
    """x^2 through libm's pow, rounded as Python's float ``x ** 2``."""
    return np.float_power(x, 2.0)


def _g2_truncated(p1, p2) -> np.ndarray:
    """2 P_2 / P_1^2 of every marginal; NaN where P_1 is 0 or P_1^2 < _TINY."""
    square = _squared(p1)
    return _ratio(2.0 * p2, square, (p1 > 0.0) & (square >= _TINY))


def _gh2(p) -> np.ndarray:
    """2 (P21 + P22)(P01 + P11) / P11^2 of every matrix of a stack;
    NaN where P11 is 0 or P11^2 < _TINY."""
    p11 = p[..., 1, 1]
    square = _squared(p11)
    pairs = 2.0 * (p[..., 2, 1] + p[..., 2, 2]) * (p[..., 0, 1] + p[..., 1, 1])
    return _ratio(pairs, square, (p11 > 0.0) & (square >= _TINY))


def characteristics_many(p) -> tuple[np.ndarray, np.ndarray]:
    """Characteristics of a stack of normalized PND matrices (... x N x N).

    Returns the values (..., 7), in ``CharacteristicSet.FIELDS`` order,
    and a mask (...) of the matrices with any of them undefined, whose
    undefined values are NaN.  Each value is rounded as
    :func:`characteristics` rounds it, which is the one-matrix case.
    Without two-photon cells (N = 2) both g2 and gh2 are undefined.
    """
    p = np.asarray(p, dtype=float)
    both = p[..., 1:, 1:].sum(axis=(-2, -1))
    idler_only = p[..., 0, 1:].sum(axis=-1)
    signal_only = p[..., 1:, 0].sum(axis=-1)
    heralded = (both + idler_only > 0.0) & (both + signal_only > 0.0)
    values = [p[..., 1, 1], _ratio(both, idler_only + both, heralded),
              _ratio(both, signal_only + both, heralded)]
    if p.shape[-1] < 3:
        values += [np.full(both.shape, np.nan)] * 4
    else:
        marginal_s, marginal_i = p.sum(axis=-1), p.sum(axis=-2)
        values += [
            _g2_truncated(marginal_s[..., 1], marginal_s[..., 2]),
            _g2_truncated(marginal_i[..., 1], marginal_i[..., 2]),
            _gh2(p),
            _gh2(np.swapaxes(p, -2, -1)),
        ]
    values = np.stack(values, axis=-1)
    return values, np.isnan(values).any(axis=-1)


def _one_matrix(P: PndMatrix, fields) -> list[float]:
    """The named characteristics of P, raising for the first undefined one."""
    values, _ = characteristics_many(P.p)
    for index in fields:
        if math.isnan(values[index]):
            raise UndefinedCharacteristicError(_UNDEFINED[index])
    return values[list(fields)].tolist()


def heralding_bounds(P: PndMatrix) -> tuple[float, float]:
    """Loss-free upper bounds on the heralding efficiencies (s, i).

    eta_H_s = P(both present) / P(idler present); eta_H_i symmetric.  These
    depend only on the source distribution, not on detector efficiencies.
    """
    _require_normalized(P, "heralding_bounds")
    eta_s, eta_i = _one_matrix(P, (1, 2))
    return eta_s, eta_i


def g2_marginal(pv, truncated: bool = False) -> float:
    """Time-integrated second-order autocorrelation of one mode.

    The full form is sum(n(n-1) P_n) / (sum(n P_n))^2.  ``truncated=True``
    returns 2 P_2 / P_1^2, the two-photon approximation appropriate when
    the mean photon number is far below 1.  Every entry must be a finite
    probability in [0, 1].  Either form is undefined where its squared
    denominator is 0 or below the smallest normal float; with entries in
    [0, 1] neither ratio can then overflow.
    """
    pv = np.asarray(pv, dtype=float)
    if not np.all((pv >= 0.0) & (pv <= 1.0)):
        raise InvalidInputError("marginal entries must be finite and lie in [0, 1]")
    if truncated:
        g2 = float(_g2_truncated(pv[1], pv[2])) if pv.size >= 3 else math.nan
        if math.isnan(g2):
            raise UndefinedCharacteristicError(_UNDEFINED[3])
        return g2
    n = np.arange(pv.size)
    mean = float(np.sum(n * pv))
    if mean**2 < _TINY:  # zero included; no entry is negative
        raise UndefinedCharacteristicError(
            "g2 undefined: mean photon number is zero or its square underflows"
        )
    return float(np.sum((n**2 - n) * pv)) / mean**2


def gh2(P: PndMatrix, heralded: str = "s") -> float:
    """Heralded second-order correlation in the two-pair approximation.

    For heralded signal photons: 2 (P21 + P22)(P01 + P11) / P11^2; the
    idler case is the index transpose.
    """
    if heralded not in ("s", "i"):
        raise InvalidInputError(f"heralded must be 's' or 'i', got {heralded!r}")
    if P.n_max < 2:
        raise UndefinedCharacteristicError("gh2 undefined: no two-photon cells")
    (value,) = _one_matrix(P, (5 if heralded == "s" else 6,))
    return value


def characteristics(P: PndMatrix) -> CharacteristicSet:
    """All derived figures of merit of a normalized PND matrix.

    Marginal g2 values use the truncated two-photon form, which is the
    faithful one for pair sources with mean photon number far below 1.
    This is the one-matrix case of :func:`characteristics_many`.
    """
    _require_normalized(P, "characteristics")
    return CharacteristicSet(*_one_matrix(P, range(7)))


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
