"""Joint spectral densities and their photon-number content.

A photon-pair source is described here by a normalized joint spectral
density (JSD) f(omega_s, omega_i) sampled on a uniform rectangular grid.
This module computes effective mode numbers (by SVD and by an equivalent
quadruple-integral contraction), splits the JSD into the four branches
produced by a pair of bandpass filters, and assembles the photon number
distribution matrix up to two-pair events.

Quadrature is a plain Riemann sum on the grid; every grid is renormalized
explicitly after discretization, so the algebraic identities between the
segmentation weights, overlaps and the synthesized distribution hold at
grid resolution rather than only in the continuum limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInputError
from .pnd import PndMatrix
from .tables import read_table, write_table

# Branch weights below this value are treated as exactly zero and the
# corresponding normalized branch is flagged empty (avoids 0/0).
EMPTY_SEGMENT_THRESHOLD = 1e-15

_UNIFORM_RTOL = 1e-12
_NORM_TOL = 1e-12

# Factored route of :func:`segment`.  The sketch is drawn from a fixed
# seed so that segmentation is deterministic.  It grows by blocks of
# columns until the residual of the unit-norm scaled grid falls to
# roundoff, and gives up once it would need more than the rank fraction
# of min(n_s, n_i) columns.  A live branch whose measured relative error
# exceeds the branch error bound sends the whole segmentation to the
# direct Gram route.
_SKETCH_SEED = 5304
_SKETCH_BLOCK = 32
_SKETCH_RANK_FRACTION = 0.25
_SKETCH_RESIDUAL_TOL = 1e-14
_BRANCH_ERROR_BOUND = 1e-13


def _uniform_step(axis: np.ndarray, name: str) -> float:
    axis = np.asarray(axis, dtype=float)
    if axis.ndim != 1 or axis.size < 2:
        raise InvalidInputError(f"{name} must be a 1-D grid with at least 2 points")
    if not np.all(np.isfinite(axis)):
        raise InvalidInputError(f"{name} must be finite")
    diffs = np.diff(axis)
    step = float(diffs.mean())
    if step <= 0:
        raise InvalidInputError(f"{name} must be strictly increasing")
    if np.max(np.abs(diffs - step)) > _UNIFORM_RTOL * abs(step) * max(1.0, axis.size):
        raise InvalidInputError(f"{name} is not uniform")
    return step


@dataclass(frozen=True, eq=False)
class JsdGrid:
    """Discretized complex joint spectral amplitude on a uniform grid.

    ``values[a, b]`` holds f(axis_s[a], axis_i[b]).  The amplitude is
    renormalized on construction so that sum(|f|^2) * step_s * step_i == 1.
    Instances are immutable; the arrays are marked read-only.
    """

    values: np.ndarray
    axis_s: np.ndarray
    axis_i: np.ndarray
    step_s: float = field(init=False)
    step_i: float = field(init=False)

    def __post_init__(self):
        axis_s = np.asarray(self.axis_s, dtype=float)
        axis_i = np.asarray(self.axis_i, dtype=float)
        step_s = _uniform_step(axis_s, "axis_s")
        step_i = _uniform_step(axis_i, "axis_i")
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (axis_s.size, axis_i.size):
            raise InvalidInputError(
                f"values shape {values.shape} does not match axes "
                f"({axis_s.size}, {axis_i.size})"
            )
        norm_sq = float(np.sum(np.abs(values) ** 2)) * step_s * step_i
        if not math.isfinite(norm_sq) or norm_sq <= 0.0:
            raise InvalidInputError("JSD has zero or non-finite norm")
        values = values / math.sqrt(norm_sq)
        for arr in (values, axis_s, axis_i):
            arr.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "axis_s", axis_s)
        object.__setattr__(self, "axis_i", axis_i)
        object.__setattr__(self, "step_s", step_s)
        object.__setattr__(self, "step_i", step_i)

    def scaled(self) -> np.ndarray:
        """Values scaled by sqrt(step_s * step_i), so plain sums are integrals."""
        return self.values * math.sqrt(self.step_s * self.step_i)

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2)) * self.step_s * self.step_i


@dataclass(frozen=True, eq=False)
class FilterProfile:
    """Amplitude transmittance t(omega) of a spectral (or spatial) filter.

    The filter acts as a frequency-dependent beam splitter: amplitude t
    transmitted, amplitude r = sqrt(1 - t^2) reflected.  ``t`` must lie in
    [0, 1]; intensity data is converted with :meth:`from_intensity`.
    """

    omega: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        t = np.asarray(self.t, dtype=float)
        _uniform_step(omega, "filter axis")
        if t.shape != omega.shape:
            raise InvalidInputError("filter t and omega must have the same shape")
        if not np.all(np.isfinite(t)):
            raise InvalidInputError("filter transmittance must be finite")
        if np.any(t < -1e-12) or np.any(t > 1.0 + 1e-12):
            raise InvalidInputError("amplitude transmittance must lie in [0, 1]")
        t = np.clip(t, 0.0, 1.0)
        for arr in (omega, t):
            arr.setflags(write=False)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "t", t)

    @property
    def r(self) -> np.ndarray:
        """Amplitude reflectance, sqrt(1 - t^2) pointwise."""
        return np.sqrt(np.clip(1.0 - self.t**2, 0.0, 1.0))

    @classmethod
    def from_intensity(cls, omega, transmittance) -> "FilterProfile":
        """Build from intensity transmittance T(omega); stores t = sqrt(T)."""
        T = np.asarray(transmittance, dtype=float)
        if np.any(T < -1e-12) or np.any(T > 1.0 + 1e-12):
            raise InvalidInputError("intensity transmittance must lie in [0, 1]")
        return cls(omega, np.sqrt(np.clip(T, 0.0, 1.0)))

    @classmethod
    def rect(cls, axis, center: float, width: float) -> "FilterProfile":
        """Ideal bandpass: t = 1 for |omega - center| <= width / 2, else 0."""
        axis = np.asarray(axis, dtype=float)
        t = (np.abs(axis - center) <= width / 2.0).astype(float)
        return cls(axis, t)

    @classmethod
    def gauss(cls, axis, center: float, fwhm: float) -> "FilterProfile":
        """Gaussian bandpass with the given intensity FWHM."""
        axis = np.asarray(axis, dtype=float)
        T = np.exp(-4.0 * math.log(2.0) * (axis - center) ** 2 / fwhm**2)
        return cls.from_intensity(axis, T)

    @classmethod
    def all_pass(cls, axis) -> "FilterProfile":
        axis = np.asarray(axis, dtype=float)
        return cls(axis, np.ones_like(axis))

    @classmethod
    def blocking(cls, axis) -> "FilterProfile":
        axis = np.asarray(axis, dtype=float)
        return cls(axis, np.zeros_like(axis))


@dataclass(frozen=True)
class PumpGain:
    """Dimensionless pair-generation strength |xi|^2 of the pump.

    The synthesis truncates at two-pair events, which is only meaningful
    when three-pair terms of order |xi|^6 are negligible; construction
    therefore requires 0 < xi_sq < 0.1.
    """

    xi_sq: float

    def __post_init__(self):
        if not (0.0 < self.xi_sq < 0.1):
            raise InvalidInputError(
                f"xi_sq={self.xi_sq!r} outside (0, 0.1); two-pair truncation invalid"
            )


@dataclass(frozen=True, eq=False)
class Segmentation:
    """Four-branch split of a JSD by the signal and idler filters.

    Branch indices follow (transmitted s & reflected i, reflected s &
    transmitted i, both transmitted, both reflected):

    ===== ===========================  =====================
    index amplitude weight             feeds
    ===== ===========================  =====================
    0     t_s * r_i * f  (weight q1)   one signal photon
    1     r_s * t_i * f  (weight q2)   one idler photon
    2     t_s * t_i * f  (weight q3)   a transmitted pair
    3     r_s * r_i * f  (weight q4)   nothing detected
    ===== ===========================  =====================

    ``kappa`` holds the branch effective mode numbers (1 for branches whose
    weight fell below :data:`EMPTY_SEGMENT_THRESHOLD`), and the remaining
    fields the pairwise exchange overlaps entering two-pair probabilities.
    ``singular_values`` are those of the low-rank factor of the scaled grid
    when :func:`segment` took the factored route, else ``None``.

    ``parts`` holds the renormalized branch amplitudes (``None`` for empty
    branches).  It is built from the JSD and filter amplitudes on first
    read, since nothing in the synthesis needs the four full grids.
    """

    q: np.ndarray
    kappa: np.ndarray
    ox13: float
    ox24: float
    oy14: float
    oy23: float
    oc: complex
    singular_values: np.ndarray | None = None
    _jsd: JsdGrid | None = field(default=None, repr=False)
    _branches: tuple = field(default=(), repr=False)

    def __post_init__(self):
        for name in ("q", "kappa", "singular_values"):
            value = getattr(self, name)
            if value is not None:
                value = np.asarray(value, dtype=float)
                value.setflags(write=False)
                object.__setattr__(self, name, value)

    @cached_property
    def parts(self) -> tuple:
        if self._jsd is None:
            raise InvalidInputError("segmentation holds no JSD to build its branches from")
        return tuple(
            JsdGrid(wx[:, None] * wy[None, :] * self._jsd.values,
                    self._jsd.axis_s, self._jsd.axis_i)  # renormalizes
            if qj > 0.0 else None
            for qj, (wx, wy) in zip(self.q, self._branches)
        )


def _require_normalized(jsd: JsdGrid) -> None:
    if abs(jsd.norm_squared() - 1.0) > 1e-10:
        raise InvalidInputError("JSD grid is not normalized")


def schmidt_number_svd(jsd: JsdGrid) -> float:
    """Effective mode number K from the singular values of the grid.

    With the grid scaled so its squared Frobenius norm is 1, the singular
    values c_k satisfy sum(c_k^2) = 1 and K = 1 / sum(c_k^4).
    """
    _require_normalized(jsd)
    s = np.linalg.svd(jsd.scaled(), compute_uv=False)
    return 1.0 / float(np.sum(s**4))


def schmidt_number_analytic(jsd: JsdGrid) -> float:
    """Effective mode number K without an SVD.

    1/K equals the exchange integral
    ``∫∫∫∫ f*(x1,y1) f*(x2,y2) f(x1,y2) f(x2,y1) dx1 dx2 dy1 dy2``,
    which contracts to trace((A A^dag)^2) for the scaled grid A.  The
    contraction costs O(n^3); it never forms the quadruple sum.
    """
    _require_normalized(jsd)
    a = jsd.scaled()
    gram = a @ a.conj().T
    purity = float(np.einsum("ij,ji->", gram, gram).real)
    return 1.0 / purity


def _require_same_axes(fa: JsdGrid, fb: JsdGrid) -> None:
    ok = (
        fa.values.shape == fb.values.shape
        and np.allclose(fa.axis_s, fb.axis_s, rtol=0, atol=1e-9 * fa.step_s)
        and np.allclose(fa.axis_i, fb.axis_i, rtol=0, atol=1e-9 * fa.step_i)
    )
    if not ok:
        raise InvalidInputError("grids do not share axes")


def pair_overlap(fa, fb, axis: str = "x", method: str = "contract") -> float:
    """Partial exchange overlap of two normalized amplitudes on one axis.

    For axis='x' (the signal axis) this evaluates
    ``∫∫∫∫ h*(x1,y1) g*(x2,y2) h(x2,y1) g(x1,y2)`` and for axis='y' the
    y-swapped analogue.  Either argument being ``None`` (an empty
    segmentation branch) yields 0.  ``method='brute'`` evaluates the raw
    O(n^4) quadruple sum and exists only as a test oracle.
    """
    if fa is None or fb is None:
        return 0.0
    _require_same_axes(fa, fb)
    if axis not in ("x", "y"):
        raise InvalidInputError(f"axis must be 'x' or 'y', got {axis!r}")
    a = fa.scaled()
    b = fb.scaled()
    if method == "brute":
        if axis == "x":
            val = np.einsum("ab,cd,cb,ad->", a.conj(), b.conj(), a, b, optimize=False)
        else:
            val = np.einsum("ab,cd,ad,cb->", a.conj(), b.conj(), a, b, optimize=False)
        return float(val.real)
    if method != "contract":
        raise InvalidInputError(f"unknown overlap method {method!r}")
    if axis == "x":
        # trace(A A† B B†) == ||B† A||_F²: x-parts inner-producted, y traced out
        m = b.conj().T @ a
    else:
        m = a @ b.conj().T
    return float(np.sum(np.abs(m) ** 2))


def complex_overlap(f1, f2, f3, f4, method: str = "contract") -> complex:
    """Four-branch exchange overlap O_c entering the two-pair coincidence cell.

    Evaluates ``∫∫∫∫ F1*(x1,y1) F2*(x2,y2) F3(x1,y2) F4(x2,y1)``; any empty
    branch makes the overlap 0.
    """
    if any(f is None for f in (f1, f2, f3, f4)):
        return 0.0 + 0.0j
    for other in (f2, f3, f4):
        _require_same_axes(f1, other)
    a1, a2, a3, a4 = (f.scaled() for f in (f1, f2, f3, f4))
    if method == "brute":
        val = np.einsum("ab,cd,ad,cb->", a1.conj(), a2.conj(), a3, a4, optimize=False)
        return complex(val)
    if method != "contract":
        raise InvalidInputError(f"unknown overlap method {method!r}")
    m13 = a1.conj().T @ a3
    m24 = a2.conj().T @ a4
    return complex(np.einsum("ij,ji->", m13, m24))


def _require_filter_axis(filt: FilterProfile, axis: np.ndarray, step: float, name: str):
    if filt.omega.shape != axis.shape or not np.allclose(
        filt.omega, axis, rtol=0, atol=1e-9 * step
    ):
        raise InvalidInputError(f"{name} filter axis does not match the JSD axis")


def _signal_weighted_gram(f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """F† D_w² F for the scaled grid F: an idler-indexed Gram."""
    a = w[:, None] * f
    return a.conj().T @ a


def _idler_weighted_gram(f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """F D_w² F† for the scaled grid F: a signal-indexed Gram."""
    a = f * w[None, :]
    return a @ a.conj().T


def _weighted_square_sum(gram: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """sum_bc u_b |gram_bc|² v_c."""
    return float(u @ (gram.real**2 + gram.imag**2) @ v)


def _low_rank_factor(f: np.ndarray):
    """U S, S and V of F = U S V† + R with the residual R at roundoff.

    A blocked randomized range finder with one power iteration per block
    (Halko, Martinsson & Tropp, SIAM Rev. 53, 217 (2011)) that works on
    the running residual, so each block costs O(n_s n_i b) and growing the
    rank repeats no work.  Returns ``(us, s, v, r)``, or ``None`` as soon
    as the residual, shrinking at its rate so far, would not reach roundoff
    within the rank cap.
    """
    n_s, n_i = f.shape
    cap = _SKETCH_RANK_FRACTION * min(n_s, n_i)
    rng = np.random.default_rng(_SKETCH_SEED)
    r = f
    qs, bs = [], []
    rank, residual = 0, float(np.linalg.norm(f))
    while residual > _SKETCH_RESIDUAL_TOL:
        if rank + _SKETCH_BLOCK > cap:
            return None
        y = np.linalg.qr(r @ rng.standard_normal((n_i, _SKETCH_BLOCK)))[0]
        y = r @ (y.conj().T @ r).conj().T  # power iteration: R R† Y
        for q_prev in qs:  # reorthogonalize against the earlier blocks
            y -= q_prev @ (q_prev.conj().T @ y)
        q = np.linalg.qr(y)[0]
        b = q.conj().T @ r
        r = r - q @ b
        qs.append(q)
        bs.append(b)
        rank += _SKETCH_BLOCK
        previous, residual = residual, float(np.linalg.norm(r))
        if residual >= previous or (
            residual > _SKETCH_RESIDUAL_TOL
            and rank + _SKETCH_BLOCK * math.log(residual / _SKETCH_RESIDUAL_TOL)
            / math.log(previous / residual) > cap
        ):
            return None
    # B = [b_1; b_2; ...] = R_b† Q_b† with B† = Q_b R_b, and R_b† = U_r S W_r
    q_b, r_b = np.linalg.qr(np.vstack(bs).conj().T)
    u_r, sv, w_r = np.linalg.svd(r_b.conj().T)
    return (np.hstack(qs) @ u_r) * sv, sv, q_b @ w_r.conj().T, r


def _small_gram(m: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """M† D_w² M for a factor M with rank-r columns: an r×r Gram."""
    return (m.conj().T * w2) @ m


def _factored_quantities(us, v, weights, q, live):
    """Branch mode numbers and overlaps as traces of r×r products.

    With F = U S V†, the branch Gram P_j† P_j is D_wy V A_x V† D_wy / q_j
    with A_x = S U† D_wx² U S, so with B_y = V† D_wy² V and M_j = A_x B_y
    every quantity is tr(M_i M_j): 1/kappa_j from tr(M_j²), ox13 from
    tr(M_3 M_1), ox24 from tr(M_4 M_2), oy14 from tr(M_1 M_4), oy23 from
    tr(M_2 M_3) and O_c from tr(M_3 M_4) (branches numbered from 1).
    """
    tx2, rx2, ty2, ry2 = (w**2 for w in weights)
    a_t, a_r = _small_gram(us, tx2), _small_gram(us, rx2)
    b_t, b_r = _small_gram(v, ty2), _small_gram(v, ry2)
    m = (a_t @ b_r, a_r @ b_t, a_t @ b_t, a_r @ b_r)

    def trace(i, j):
        return complex(np.sum(m[i] * m[j].T))

    def overlap(i, j):
        return trace(i, j).real / (q[i] * q[j]) if live[i] and live[j] else 0.0

    kappa = np.array([q[j] ** 2 / trace(j, j).real if live[j] else 1.0 for j in range(4)])
    oc = trace(2, 3) / math.sqrt(q.prod()) if all(live) else 0.0 + 0.0j
    return kappa, overlap(0, 2), overlap(1, 3), overlap(0, 3), overlap(1, 2), oc


def _direct_quantities(f, weights, q, live):
    """Branch mode numbers and overlaps from up to four n×n Gram products.

    Every branch amplitude is D_wx F D_wy, so each quantity is an O(n^2)
    weighted contraction of one or two of H_t = F† D_tx² F and
    H_r = F† D_rx² F (mode numbers, the x overlaps and O_c), G_t =
    F D_ty² F† and G_r = F D_ry² F† (the y overlaps).  Each Gram is formed
    directly from its own weights, never as a difference such as
    F F† - G_t, which would cost small branches their relative accuracy;
    and only when a live branch needs it.
    """
    tx, rx, ty, ry = weights
    tx2, rx2, ty2, ry2 = tx**2, rx**2, ty**2, ry**2
    kappa = np.ones(4)
    ox13 = ox24 = oy14 = oy23 = 0.0
    oc = 0.0 + 0.0j

    h_t = _signal_weighted_gram(f, tx) if live[0] or live[2] else None
    h_r = _signal_weighted_gram(f, rx) if live[1] or live[3] else None
    # 1/kappa_j = ||P_j† P_j||_F² with P_j† P_j = D_wy H D_wy / q_j
    for j, h, wy2 in ((0, h_t, ry2), (1, h_r, ty2), (2, h_t, ty2), (3, h_r, ry2)):
        if live[j]:
            kappa[j] = q[j] ** 2 / _weighted_square_sum(h, wy2, wy2)
    if live[0] and live[2]:
        ox13 = _weighted_square_sum(h_t, ty2, ry2) / (q[0] * q[2])
    if live[1] and live[3]:
        ox24 = _weighted_square_sum(h_r, ry2, ty2) / (q[1] * q[3])
    if all(live):
        # O_c = trace((P_1† P_3)(P_2† P_4)), P_1† P_3 = D_ry H_t D_ty / sqrt(q1 q3)
        oc = complex(ry2 @ (h_t * h_r.T) @ ty2) / math.sqrt(q[0] * q[1] * q[2] * q[3])
    del h_t, h_r  # hold at most one Gram from here on, for peak memory
    if live[0] and live[3]:
        oy14 = _weighted_square_sum(_idler_weighted_gram(f, ry), tx2, rx2) / (q[0] * q[3])
    if live[1] and live[2]:
        oy23 = _weighted_square_sum(_idler_weighted_gram(f, ty), rx2, tx2) / (q[1] * q[2])
    return kappa, ox13, ox24, oy14, oy23, oc


def segment(jsd: JsdGrid, filt_s: FilterProfile, filt_i: FilterProfile) -> Segmentation:
    """Split a JSD into its four filter branches with weights and overlaps.

    The branch weights always sum to 1 because |t|^2 + |r|^2 = 1 pointwise
    on both axes.  Empty branches get kappa = 1 and overlaps 0.

    Every branch amplitude is D_wx F D_wy for the scaled grid F and the
    filter amplitudes w, so q_j = wx²·|F|²·wy² and every mode number and
    overlap is a trace of weighted Gram products.  A downconversion JSD
    has a small Schmidt number, so F is first factored as U S V† + R with
    the residual R at roundoff, and the traces run on r×r matrices in
    O(n r² + r³).  The factor is accurate in absolute terms, not entry by
    entry, so a branch of tiny weight can lose its relative accuracy: the
    direct n×n Gram route runs instead when the factor would need too many
    columns, or when a live branch's error sqrt(wx²·|R|²·wy² / q_j)
    exceeds the branch error bound.
    """
    _require_filter_axis(filt_s, jsd.axis_s, jsd.step_s, "signal")
    _require_filter_axis(filt_i, jsd.axis_i, jsd.step_i, "idler")

    tx, rx, ty, ry = weights = (filt_s.t, filt_s.r, filt_i.t, filt_i.r)
    branches = ((tx, ry), (rx, ty), (tx, ty), (rx, ry))

    def branch_sums(a2):
        """sum_ab wx_a² a2_ab wy_b² of each branch."""
        return np.array([float(wx**2 @ a2 @ wy**2) for wx, wy in branches])

    f = jsd.scaled()
    q = branch_sums(f.real**2 + f.imag**2)
    q[q < EMPTY_SEGMENT_THRESHOLD] = 0.0
    if abs(q.sum() - 1.0) > 1e-10:
        raise InvalidInputError("filter branches do not preserve the JSD norm")
    live = q > 0.0

    factor = _low_rank_factor(f)
    if factor is not None:
        us, sv, v, r = factor
        error2 = branch_sums(r.real**2 + r.imag**2)
        if np.any(live & (error2 > _BRANCH_ERROR_BOUND**2 * q)):
            factor = None
    if factor is None:
        sv = None
        kappa, ox13, ox24, oy14, oy23, oc = _direct_quantities(f, weights, q, live)
    else:
        kappa, ox13, ox24, oy14, oy23, oc = _factored_quantities(us, v, weights, q, live)

    return Segmentation(
        q=q,
        kappa=kappa,
        ox13=ox13,
        ox24=ox24,
        oy14=oy14,
        oy23=oy23,
        oc=oc,
        singular_values=sv,
        _jsd=jsd,
        _branches=branches,
    )


def _require_n_max(n_max: int) -> None:
    if n_max < 2:
        raise InvalidInputError("n_max must be at least 2")


def synthesize_pnd(
    jsd: JsdGrid,
    filt_s: FilterProfile,
    filt_i: FilterProfile,
    gain: PumpGain,
    n_max: int = 2,
) -> PndMatrix:
    """Photon number distribution of the filtered source, two-pair exact.

    Segments the JSD and hands the result to :func:`pnd_from_segmentation`.
    """
    _require_n_max(n_max)
    return pnd_from_segmentation(segment(jsd, filt_s, filt_i), gain, n_max)


def pnd_from_segmentation(seg: Segmentation, gain: PumpGain, n_max: int = 2) -> PndMatrix:
    """Photon number distribution of a segmented source, two-pair exact.

    Single-pair events distribute the branch weights onto the one-photon
    cells; two-pair events fill the two-photon cells with the exact
    mode-number and exchange-overlap corrections.  The vacuum cell absorbs
    the remainder so the matrix is normalized.
    """
    _require_n_max(n_max)
    mu = gain.xi_sq
    q1, q2, q3, q4 = seg.q
    k1, k2, k3, k4 = seg.kappa

    single = mu * np.array(
        [
            [q4, q2, 0.0],
            [q1, q3, 0.0],
            [0.0, 0.0, 0.0],
        ]
    )
    oc_re = seg.oc.real
    double = mu**2 * np.array(
        [
            [
                q4**2 * (1 + 1 / k4) / 2,
                q2 * q4 * (1 + seg.ox24),
                q2**2 * (1 + 1 / k2) / 2,
            ],
            [
                q1 * q4 * (1 + seg.oy14),
                q1 * q2 + q3 * q4 + 2 * math.sqrt(q1 * q2 * q3 * q4) * oc_re,
                q2 * q3 * (1 + seg.oy23),
            ],
            [
                q1**2 * (1 + 1 / k1) / 2,
                q1 * q3 * (1 + seg.ox13),
                q3**2 * (1 + 1 / k3) / 2,
            ],
        ]
    )
    p = single + double
    p[0, 0] = 0.0
    p[0, 0] = 1.0 - p.sum()
    if n_max > 2:
        padded = np.zeros((n_max + 1, n_max + 1))
        padded[:3, :3] = p
        p = padded
    return PndMatrix(p)


def gaussian_jsd(
    sigma_plus: float,
    sigma_minus: float,
    theta: float = math.pi / 4,
    n_s: int = 256,
    n_i: int = 256,
    span: float = 5.0,
    chirp: float = 0.0,
) -> JsdGrid:
    """Correlated two-dimensional Gaussian amplitude on rotated axes.

    The amplitude is exp(-u^2 / (2 sigma_plus^2) - v^2 / (2 sigma_minus^2))
    with u = cos(theta) x + sin(theta) y and v the orthogonal coordinate;
    theta = pi/4 with sigma_plus < sigma_minus gives the frequency
    anti-correlation typical of downconversion.  A nonzero ``chirp`` adds a
    phase exp(i * chirp * u * v), making the amplitude genuinely complex.
    The grid spans ``span`` marginal standard deviations on each axis.

    For this family the continuum mode number is (r + 1/r) / 2 with
    r = sigma_minus / sigma_plus, handy as an external cross-check.
    """
    if sigma_plus <= 0 or sigma_minus <= 0:
        raise InvalidInputError("sigmas must be positive")
    c, s = math.cos(theta), math.sin(theta)
    std_x = math.sqrt((c**2 * sigma_plus**2 + s**2 * sigma_minus**2) / 2.0)
    std_y = math.sqrt((s**2 * sigma_plus**2 + c**2 * sigma_minus**2) / 2.0)
    axis_s = np.linspace(-span * std_x, span * std_x, n_s)
    axis_i = np.linspace(-span * std_y, span * std_y, n_i)
    X, Y = np.meshgrid(axis_s, axis_i, indexing="ij")
    u = c * X + s * Y
    v = -s * X + c * Y
    amp = np.exp(
        -(u**2) / (2 * sigma_plus**2)
        - v**2 / (2 * sigma_minus**2)
        + (1j * chirp * u * v if chirp else 0.0)
    )
    return JsdGrid(amp, axis_s, axis_i)


_JSD_HEADER = ["omega_s", "omega_i", "re", "im"]


def read_jsd_csv(path) -> JsdGrid:
    """Load a JSD from CSV with columns omega_s, omega_i, re, im.

    The rows must cover a complete rectangular lattice (any order).
    """
    rows, _ = read_table(
        path, _JSD_HEADER, "JSD", lambda row: tuple(float(row[name]) for name in _JSD_HEADER)
    )
    ws = np.array(sorted({r[0] for r in rows}))
    wi = np.array(sorted({r[1] for r in rows}))
    if len(rows) != ws.size * wi.size:
        raise InvalidInputError(
            "JSD CSV does not cover a complete rectangular lattice"
        )
    index_s = {w: a for a, w in enumerate(ws)}
    index_i = {w: b for b, w in enumerate(wi)}
    values = np.full((ws.size, wi.size), np.nan, dtype=complex)
    for w_s, w_i, re, im in rows:
        values[index_s[w_s], index_i[w_i]] = re + 1j * im
    if np.any(np.isnan(values)):
        raise InvalidInputError("JSD CSV has duplicate or missing lattice points")
    return JsdGrid(values, ws, wi)


def write_jsd_csv(path, jsd: JsdGrid) -> None:
    write_table(path, _JSD_HEADER, (
        [w_s, w_i, val.real, val.imag]
        for w_s, row in zip(jsd.axis_s, jsd.values)
        for w_i, val in zip(jsd.axis_i, row)
    ))


def read_filter_csv(path, kind: str = "amplitude") -> FilterProfile:
    """Load a filter from CSV with columns omega, t.

    ``kind`` selects whether the t column is an amplitude or an intensity
    transmittance; intensities are converted via sqrt.
    """
    if kind not in ("amplitude", "intensity"):
        raise InvalidInputError(f"filter kind must be amplitude|intensity, got {kind!r}")
    rows, _ = read_table(
        path, ["omega", "t"], "filter", lambda row: (float(row["omega"]), float(row["t"]))
    )
    omega, t = np.array(sorted(rows)).T
    if kind == "intensity":
        return FilterProfile.from_intensity(omega, t)
    return FilterProfile(omega, t)
