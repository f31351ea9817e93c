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
import numbers
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce

import numpy as np

from .errors import InvalidInputError, check_count
from .pnd import PndMatrix
from .tables import parse_finite, read_table, write_table

# Branch weights below this value are treated as exactly zero and the
# corresponding normalized branch is flagged empty (avoids 0/0).
EMPTY_SEGMENT_THRESHOLD = 1e-15

_UNIFORM_RTOL = 1e-12

# Gaussian widths, spans and filter centres stay below this bound: the
# amplitudes square products of two of them, which must stay finite.
_GAUSS_SCALE_MAX = 1e75

# Real and imaginary components below this fraction of a grid's largest
# component magnitude are zeroed on construction.  Products of such tail
# entries underflow to subnormals, which cost many times a normal product
# in every Gram and factor built on the grid, while a flushed component
# changes |f|^2 by less than 1e-300 of the peak's square.  The flush runs
# over blocks of about _FLUSH_BLOCK components, so its masks stay small.
_FLUSH_RATIO = 1e-150
_FLUSH_BLOCK = 8192

# segment's branch sums square a grid's real components in row blocks of
# about this many, which stay in cache and leave no grid-sized temporary.
_SQUARE_BLOCK = 32768

# Factored route of :func:`segment`.  The sketch is drawn from a fixed
# seed so that segmentation is deterministic.  It grows by blocks of at
# most _SKETCH_BLOCK columns, each later block sized in steps of
# _SKETCH_BLOCK_STEP, until the residual of the unit-norm scaled grid
# falls to roundoff, and gives up once it would need more than the rank
# fraction of min(n_s, n_i) columns.  A live branch whose measured
# relative error exceeds the branch error bound sends the whole
# segmentation to the direct Gram route.
_SKETCH_SEED = 5304
_SKETCH_BLOCK = 32
_SKETCH_BLOCK_STEP = 8
_CHOLESKY_MIN_EIGENVALUE = 1e-2
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


def _flush_tail(values: np.ndarray) -> None:
    """Zero, in place, every real or imaginary component of the C-ordered
    ``values`` whose magnitude is below ``_FLUSH_RATIO`` times the largest."""
    parts = values.view(float)  # each row's components, interleaved
    cut = _FLUSH_RATIO * max(-parts.min(), parts.max())
    rows = max(1, _FLUSH_BLOCK // parts.shape[1])
    for start in range(0, parts.shape[0], rows):
        block = parts[start : start + rows]
        # A product with the mask costs the same however much of the block
        # is tail; adding 0.0 then turns each -0.0 it leaves into 0.0.
        block *= np.abs(block) >= cut
        block += 0.0


def _abs2(x: np.ndarray) -> np.ndarray:
    """|x|² elementwise: x * x for a real array, re² + im² for a complex one."""
    if np.iscomplexobj(x):
        return x.real**2 + x.imag**2
    return x * x


def _squares_times(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(x ∘ x) @ w for a real 2-D ``x``, squared in blocks of rows."""
    rows = max(1, _SQUARE_BLOCK // x.shape[1])
    return np.concatenate([np.square(x[i : i + rows]) @ w for i in range(0, x.shape[0], rows)])


def _grid_norm_squared(values: np.ndarray, step_s: float, step_i: float) -> float:
    with np.errstate(over="ignore"):  # JsdGrid rescales a grid whose |f|^2 overflows
        return float(np.sum(np.abs(values) ** 2)) * step_s * step_i


@dataclass(frozen=True, eq=False)
class JsdGrid:
    """Discretized joint spectral amplitude on a uniform grid.

    ``values[a, b]`` holds f(axis_s[a], axis_i[b]).  Real input is stored
    as float64 and complex input as complex128; every function on the grid
    takes either.  The amplitude is renormalized on construction so that
    sum(|f|^2) * step_s * step_i == 1 (a grid whose |f|^2 over- or
    underflows is first divided by its largest component magnitude), and
    its underflowing tail is flushed: each real or imaginary component
    whose magnitude is below 1e-150 of the largest component magnitude is
    set to exactly 0.  That changes no sum that holds the peak, and spares
    every product on the grid the subnormal arithmetic of the tail.
    Non-numeric and non-finite values are rejected.  Instances are
    immutable; the arrays are marked read-only.
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
        values = np.asarray(self.values)
        if values.dtype.kind not in "biufc":
            raise InvalidInputError(f"JSD values must be numeric, got dtype {values.dtype}")
        values = np.asarray(values, dtype=complex if values.dtype.kind == "c" else float)
        if values.shape != (axis_s.size, axis_i.size):
            raise InvalidInputError(
                f"values shape {values.shape} does not match axes "
                f"({axis_s.size}, {axis_i.size})"
            )
        norm_sq = _grid_norm_squared(values, step_s, step_i)
        if not 0.0 < norm_sq < math.inf:
            if not np.all(np.isfinite(values)):
                raise InvalidInputError("JSD values must be finite")
            # |f|^2 left the float range: rescale by the peak and retry.
            peak = max(float(np.abs(part).max()) for part in (values.real, values.imag))
            if peak > 0.0:
                values = values / peak
                norm_sq = _grid_norm_squared(values, step_s, step_i)
            if not 0.0 < norm_sq < math.inf:
                raise InvalidInputError("JSD has zero or non-finite norm")
        # The norm is taken before the private copy exists, so no
        # magnitude array sits next to the copy; the flushed components
        # add nothing to it.  The flush then runs on the copy in place.
        # Multiplying by the reciprocal is what numpy's complex-by-real
        # division does, so a real grid holds its complex twin's real part.
        values = np.multiply(values, 1.0 / math.sqrt(norm_sq), order="C")
        _flush_tail(values)
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
        return _grid_norm_squared(self.values, self.step_s, self.step_i)


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
        if not (math.isfinite(center) and width >= 0):
            raise InvalidInputError(
                f"rect filter needs a finite center and width >= 0, got {center}, {width}"
            )
        axis = np.asarray(axis, dtype=float)
        t = (np.abs(axis - center) <= width / 2.0).astype(float)
        return cls(axis, t)

    @classmethod
    def gauss(cls, axis, center: float, fwhm: float) -> "FilterProfile":
        """Gaussian bandpass with the given intensity FWHM."""
        if not abs(center) < _GAUSS_SCALE_MAX:
            raise InvalidInputError(f"|center| must be below {_GAUSS_SCALE_MAX:g}, got {center}")
        if not 0 < fwhm < _GAUSS_SCALE_MAX:
            raise InvalidInputError(f"fwhm must lie in (0, {_GAUSS_SCALE_MAX:g}), got {fwhm}")
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
        if not (isinstance(self.xi_sq, numbers.Real) and 0.0 < self.xi_sq < 0.1):
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
    ``purity`` is sum(s_k^4) over the singular values s_k of the scaled
    grid F (so 1 / ``purity`` is its mode number), from either route of
    :func:`segment`.  On the factored route, F = Q B + R with Q of
    orthonormal columns, ``singular_values`` are the s_k of Q B, computed
    from B on first read; on the direct route they are ``None``.

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
    purity: float
    _factor_b: np.ndarray | None = field(default=None, repr=False)
    _jsd: JsdGrid | None = field(default=None, repr=False)
    _branches: tuple = field(default=(), repr=False)

    def __post_init__(self):
        for name in ("q", "kappa"):
            value = np.asarray(getattr(self, name), dtype=float)
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @cached_property
    def singular_values(self) -> np.ndarray | None:
        if self._factor_b is None:
            return None
        s = np.linalg.svd(self._factor_b, compute_uv=False)
        s.setflags(write=False)
        return s

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


def schmidt_number_svd(jsd: JsdGrid) -> float:
    """Effective mode number K from the singular values of the grid.

    With the grid scaled so its squared Frobenius norm is 1, the singular
    values c_k satisfy sum(c_k^2) = 1 and K = 1 / sum(c_k^4).
    """
    s = np.linalg.svd(jsd.scaled(), compute_uv=False)
    return 1.0 / float(np.sum(s**4))


def schmidt_number_analytic(jsd: JsdGrid) -> float:
    """Effective mode number K without an SVD.

    1/K equals the exchange integral
    ``∫∫∫∫ f*(x1,y1) f*(x2,y2) f(x1,y2) f(x2,y1) dx1 dx2 dy1 dy2``,
    which contracts to trace((A A^dag)^2) = ||A A^dag||_F^2 for the scaled
    grid A.  The contraction costs O(n^3); it never forms the quadruple sum.

    A complex grid A = X + iY runs in real arithmetic: Re(A A^dag) = C C^T
    with C = [X | Y], one symmetric rank-k product, and Im(A A^dag) =
    M - M^T with M = Y X^T, so the Gram costs half the multiplications
    of a complex product and no conjugate copy.
    """
    values = jsd.values
    if not np.iscomplexobj(values):
        a = jsd.scaled()
        gram = a @ a.T
        return 1.0 / float(np.vdot(gram, gram))
    scale = math.sqrt(jsd.step_s * jsd.step_i)
    n_i = values.shape[1]
    c = np.empty((values.shape[0], 2 * n_i))
    np.multiply(values.real, scale, out=c[:, :n_i])
    np.multiply(values.imag, scale, out=c[:, n_i:])
    gram = c @ c.T  # Re(A A^dag)
    purity = float(np.vdot(gram, gram))
    del gram  # hold one n_s x n_s piece at a time, for peak memory
    m = c[:, n_i:] @ c[:, :n_i].T
    del c
    gram = m - m.T  # Im(A A^dag)
    del m
    return 1.0 / (purity + float(np.vdot(gram, gram)))


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


def _gram(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """X† D_w² X, with the weights w on the rows of X."""
    return (x.conj().T * w**2) @ x


def _norm(a: np.ndarray) -> float:
    """Frobenius norm of a C-contiguous array, in one BLAS pass."""
    return math.sqrt(np.vdot(a, a).real)


def _low_rank_factor(r: np.ndarray):
    """Q and B of F = Q B + R with the residual R at roundoff.

    A blocked randomized range finder (Halko, Martinsson & Tropp, SIAM
    Rev. 53, 217 (2011)) on the residual, which ``r`` holds in place of F:
    each block sketches R once, orthonormalizes the sketch with one
    Householder QR, projects it off the earlier blocks into Q_k and takes
    Q_k Q_k† R off R, in O(n_s n_i b).  The projected block Y is
    orthonormalized again by one Cholesky pass, Y L⁻† with L L† = Y† Y
    (Yamamoto et al., ETNA 44, 306 (2015)).  Y was orthonormal, and the
    residual it sketched is orthogonal to Q up to roundoff, so Y† Y = I -
    P† P for its small overlap P with Q: the pass loses orthogonality by
    roundoff over the smallest eigenvalue of Y† Y, which is about 1.  A
    block whose columns sketch mostly roundoff, as a last one can, may
    overlap Q more; where that eigenvalue falls below
    _CHOLESKY_MIN_EIGENVALUE, the block takes a second QR instead.

    The first block has _SKETCH_BLOCK columns.  Each later block is sized
    to the columns that the residual, shrinking at its rate so far, still
    needs, rounded up to a multiple of _SKETCH_BLOCK_STEP and at most
    _SKETCH_BLOCK.  Returns ``(q, b, r)``, or ``None`` as soon as the
    residual stops shrinking or would need more columns than the cap.
    """
    n_s, n_i = r.shape
    cap = _SKETCH_RANK_FRACTION * min(n_s, n_i)
    rng = np.random.default_rng(_SKETCH_SEED)
    qs, bs = [], []
    rank, residual, width = 0, _norm(r), _SKETCH_BLOCK
    while residual > _SKETCH_RESIDUAL_TOL:
        if rank + width > cap:
            return None
        # Orthonormalized first: projecting the raw sketch would leave overlaps
        # of roundoff times its condition number with the earlier blocks.
        y = np.linalg.qr(r @ rng.standard_normal((n_i, width)))[0]
        for q_prev in qs:  # project off the earlier blocks
            y -= q_prev @ (q_prev.conj().T @ y)
        if qs:
            gram = y.conj().T @ y
            if np.linalg.eigvalsh(gram)[0] < _CHOLESKY_MIN_EIGENVALUE:
                y = np.linalg.qr(y)[0]
            else:
                y = y @ np.linalg.inv(np.linalg.cholesky(gram)).conj().T
        b = y.conj().T @ r
        r -= y @ b
        qs.append(y)
        bs.append(b)
        rank += width
        previous, residual = residual, _norm(r)
        if residual >= previous:
            return None
        if residual > _SKETCH_RESIDUAL_TOL:
            left = width * math.log(residual / _SKETCH_RESIDUAL_TOL) / math.log(previous / residual)
            if rank + left > cap:
                return None
            step = _SKETCH_BLOCK_STEP
            width = min(_SKETCH_BLOCK, step * math.ceil(left / step))
    return np.hstack(qs), np.vstack(bs), r


def _segment_quantities(traces, q, live):
    """Branch mode numbers and overlaps from the traces tr(M_i M_j).

    Each route builds one matrix M_j per branch j, and every quantity is
    one trace of them (branches numbered from 1): 1/kappa_j is
    tr(M_j²) / q_j², ox13, ox24, oy14 and oy23 are tr(M_3 M_1), tr(M_4 M_2),
    tr(M_1 M_4) and tr(M_2 M_3) over q_i q_j, and O_c is tr(M_3 M_4) /
    sqrt(q1 q2 q3 q4).  ``traces(pairs)`` maps each pair (i, j) it is given,
    numbered from 0 and all of live branches, to tr(M_i M_j).  Empty
    branches get kappa 1 and overlaps 0; O_c needs all four live.
    """
    overlaps = ((0, 2), (1, 3), (0, 3), (1, 2))  # ox13, ox24, oy14, oy23
    pairs = [(j, j) for j in range(4)] + list(overlaps)
    if all(live):
        pairs.append((2, 3))  # O_c
    t = traces([(i, j) for i, j in pairs if live[i] and live[j]])
    kappa = np.array([q[j] ** 2 / t[j, j].real if live[j] else 1.0 for j in range(4)])
    ox13, ox24, oy14, oy23 = (
        t[i, j].real / (q[i] * q[j]) if (i, j) in t else 0.0 for i, j in overlaps
    )
    oc = t[2, 3] / math.sqrt(q.prod()) if all(live) else 0.0 + 0.0j
    return kappa, ox13, ox24, oy14, oy23, oc


def _factored_traces(q, wx, b_y, pairs):
    """tr(M_i M_j) of each pair from r×r products.

    With F = Q B, the branch Gram P_j† P_j is D_wy B† A_x B D_wy / q_j
    with A_x = Q† D_wx² Q, so M_j = A_x B_y with B_y = B D_wy² B†.
    ``wx`` holds the signal amplitudes (t, r) and ``b_y`` the idler
    Grams (B_t, B_r).  The SVD's U S and V† would give every M_j up to
    one r×r similarity.
    """
    a_t, a_r = (_gram(q, w) for w in wx)
    b_t, b_r = b_y
    m = (a_t @ b_r, a_r @ b_t, a_t @ b_t, a_r @ b_r)
    return {(i, j): complex(np.sum(m[i] * m[j].T)) for i, j in pairs}


def _direct_traces(h, wy, pairs):
    """tr(M_i M_j) of each pair from at most two n×n Gram products.

    Every branch amplitude is D_wx F D_wy, so M_j = H D_wy² with H_t =
    F† D_tx² F for branches 1 and 3 and H_r = F† D_rx² F for 2 and 4, and
    tr(M_i M_j) = wy_j² · (H_i ∘ H_jᵀ) · wy_i² is an O(n²) contraction of
    |H_t|², |H_r|² or H_t ∘ H_rᵀ.  The one pair with H_r first, oy23's
    tr(M_2 M_3), has ty² on both sides, so H_t ∘ H_rᵀ serves it too.
    ``h`` holds (H_t, H_r), each ``None`` where both its branches are
    empty, and ``wy`` the idler amplitudes (t, r).  The products are
    formed one at a time, for peak memory.
    """
    ty, ry = wy
    wy2 = (ry**2, ty**2, ty**2, ry**2)
    side = (0, 1, 0, 1)  # the Gram of branch j: H_t or H_r
    traces = {}
    for a, b in ((0, 0), (1, 1), (0, 1)):  # |H_t|², |H_r|², H_t ∘ H_rᵀ
        group = [(i, j) for i, j in pairs if {side[i], side[j]} == {a, b}]
        if group:
            product = _abs2(h[a]) if a == b else h[a] * h[b].T
            for i, j in group:
                traces[i, j] = complex(wy2[j] @ product @ wy2[i])
            del product
    return traces


def segment(jsd: JsdGrid, filt_s: FilterProfile, filt_i: FilterProfile) -> Segmentation:
    """Split a JSD into its four filter branches with weights and overlaps.

    The branch weights always sum to 1 because |t|^2 + |r|^2 = 1 pointwise
    on both axes.  Empty branches get kappa = 1 and overlaps 0.

    Every branch amplitude is D_wx F D_wy for the scaled grid F and the
    filter amplitudes w, so q_j = wx²·|F|²·wy² and every mode number and
    overlap is a trace of weighted Gram products.  A downconversion JSD
    has a small Schmidt number, so F is first factored as Q B + R, with Q
    of r orthonormal columns and the residual R at roundoff, and the
    traces run on r×r matrices in O(n r² + r³).  The factor is accurate
    in absolute terms, not entry by entry, so a branch of tiny weight can
    lose its relative accuracy: the direct route runs instead when the
    factor would need too many columns, or when a live branch's error
    sqrt(wx²·|R|²·wy² / q_j) exceeds the branch error bound.  It forms at
    most two n×n Grams, F† D_tx² F and F† D_rx² F, and takes every trace
    from them in O(n²).  Both routes hand their traces to one map onto
    the mode numbers and overlaps, and take the purity ||G_t + G_r||_F²
    from the two Grams their traces read, B D_wy² B† or F† D_wx² F, whose
    sum is B B† or F† F.  Each Gram is formed from its own weights, never
    as a difference such as F† F - H_t, which would cost small branches
    their relative accuracy.
    """
    _require_filter_axis(filt_s, jsd.axis_s, jsd.step_s, "signal")
    _require_filter_axis(filt_i, jsd.axis_i, jsd.step_i, "idler")

    tx, rx, ty, ry = filt_s.t, filt_s.r, filt_i.t, filt_i.r
    branches = ((tx, ry), (rx, ty), (tx, ty), (rx, ry))

    # Every q_j and branch error is wx²·|X|²·wy² for X = F or R.  The real
    # components of X (a complex X's re and im interleaved in each row, so
    # each idler weight is repeated) are squared block by block, and each
    # block of squares meets both idler weights in one product; the signal
    # weights follow.
    wx2 = np.stack([tx, rx]) ** 2
    wy2 = np.stack([ty, ry], axis=1) ** 2
    if np.iscomplexobj(jsd.values):
        wy2 = np.repeat(wy2, 2, axis=0)

    def branch_sums(x):
        """wx²·|X|²·wy² of each branch."""
        (tt, tr), (rt, rr) = wx2 @ _squares_times(x.view(float), wy2)
        return np.array([tr, rt, tt, rr])

    f = jsd.scaled()
    q = branch_sums(f)
    q[q < EMPTY_SEGMENT_THRESHOLD] = 0.0
    if abs(q.sum() - 1.0) > 1e-10:
        raise InvalidInputError("filter branches do not preserve the JSD norm")
    live = q > 0.0

    factor = _low_rank_factor(f)
    del f  # the factor's residual now, or spent on a rejected factor
    if factor is not None and np.any(
        live & (branch_sums(factor[2]) > _BRANCH_ERROR_BOUND**2 * q)
    ):
        factor = None
    if factor is None:
        b, f = None, jsd.scaled()
        # H_t (branches 0, 2) or H_r (1, 3), each only for a live branch; a
        # side left out weighs below 2e-15, a roundoff in the purity.
        grams = [_gram(f, w) if live[k::2].any() else None for k, w in enumerate((tx, rx))]
        del f
        traces = partial(_direct_traces, grams, (ty, ry))
    else:
        qf, b = factor[:2]
        del factor  # frees the residual
        b.setflags(write=False)
        grams = [_gram(b.conj().T, w) for w in (ty, ry)]
        traces = partial(_factored_traces, qf, (tx, rx), grams)
    gram = reduce(np.add, [g for g in grams if g is not None])  # t² + r² = 1
    purity = float(np.vdot(gram, gram).real)
    del gram
    kappa, ox13, ox24, oy14, oy23, oc = _segment_quantities(traces, q, live)

    return Segmentation(
        q=q,
        kappa=kappa,
        ox13=ox13,
        ox24=ox24,
        oy14=oy14,
        oy23=oy23,
        oc=oc,
        purity=purity,
        _factor_b=b,
        _jsd=jsd,
        _branches=branches,
    )


def synthesize_pnd(
    jsd: JsdGrid,
    filt_s: FilterProfile,
    filt_i: FilterProfile,
    gain: PumpGain,
) -> PndMatrix:
    """Photon number distribution of the filtered source, two-pair exact.

    Segments the JSD and hands the result to :func:`pnd_from_segmentation`.
    """
    return pnd_from_segmentation(segment(jsd, filt_s, filt_i), gain)


def pnd_from_segmentation(seg: Segmentation, gain: PumpGain) -> PndMatrix:
    """Photon number distribution of a segmented source, two-pair exact.

    Single-pair events distribute the branch weights onto the one-photon
    cells; two-pair events fill the two-photon cells with the exact
    mode-number and exchange-overlap corrections.  The vacuum cell absorbs
    the remainder so the 3 x 3 matrix (0..2 photons per mode) is normalized.
    """
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
    phase exp(i * chirp * u * v), making the amplitude genuinely complex;
    without it the grid is real and stored as float64.
    The grid spans ``span`` marginal standard deviations on each axis.

    For this family the continuum mode number is (r + 1/r) / 2 with
    r = sigma_minus / sigma_plus, handy as an external cross-check.
    """
    for name, value in (("sigma_plus", sigma_plus), ("sigma_minus", sigma_minus), ("span", span)):
        if not 0 < value < _GAUSS_SCALE_MAX:
            raise InvalidInputError(
                f"{name} must be finite and > 0, below {_GAUSS_SCALE_MAX:g}, got {value!r}"
            )
    for name, value in (("theta", theta), ("chirp", chirp)):
        if not math.isfinite(value):
            raise InvalidInputError(f"{name} must be finite, got {value!r}")
    check_count("n_s", n_s, 2)
    check_count("n_i", n_i, 2)
    c, s = math.cos(theta), math.sin(theta)
    std_x = math.sqrt((c**2 * sigma_plus**2 + s**2 * sigma_minus**2) / 2.0)
    std_y = math.sqrt((s**2 * sigma_plus**2 + c**2 * sigma_minus**2) / 2.0)
    axis_s = np.linspace(-span * std_x, span * std_x, int(n_s))
    axis_i = np.linspace(-span * std_y, span * std_y, int(n_i))
    x, y = axis_s[:, None], axis_i[None, :]
    u = c * x + s * y
    v = -s * x + c * y
    # In place, with the float operations of the textbook formula on two
    # meshgrids: u holds -u^2 / (2 sigma_plus^2) - v^2 / (2 sigma_minus^2),
    # and a chirp's phase chirp u v goes into the imaginary half of amp.
    if chirp:
        amp = np.empty(u.shape, dtype=complex)
        phase = amp.imag
        np.multiply(u, chirp, out=phase)
        phase *= v
    np.square(u, out=u)
    u /= -2 * sigma_plus**2  # (-a) / b and a / (-b) round alike
    np.square(v, out=v)
    v /= 2 * sigma_minus**2
    if chirp:
        np.subtract(u, v, out=amp.real)
    else:
        amp = np.subtract(u, v, out=u)
    del u, v  # freed before JsdGrid makes its normalized copy
    return JsdGrid(np.exp(amp, out=amp), axis_s, axis_i)


_JSD_HEADER = ["omega_s", "omega_i", "re", "im"]


def _from_file(path, build, *args):
    """``build(*args)``, with the file's path leading any rejection."""
    try:
        return build(*args)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None


def read_jsd_csv(path) -> JsdGrid:
    """Load a JSD from CSV with columns omega_s, omega_i, re, im.

    The rows must cover a complete rectangular lattice (any order).  A file
    whose every ``im`` is 0 gives a real (float64) grid.  Every rejection
    starts with the path.
    """
    rows, _ = read_table(path, _JSD_HEADER, "JSD",
                         lambda row: tuple(parse_finite(row[name]) for name in _JSD_HEADER))
    w_s, w_i, re, im = np.array(rows).T
    ws, index_s = np.unique(w_s, return_inverse=True)
    wi, index_i = np.unique(w_i, return_inverse=True)
    if len(rows) != ws.size * wi.size:
        raise InvalidInputError(f"{path}: JSD CSV does not cover a complete rectangular lattice")
    filled = np.zeros((ws.size, wi.size), dtype=bool)
    filled[index_s, index_i] = True
    if not filled.all():
        raise InvalidInputError(f"{path}: JSD CSV has duplicate or missing lattice points")
    real = not im.any()
    values = np.zeros(filled.shape, dtype=float if real else complex)
    values[index_s, index_i] = re if real else re + 1j * im
    return _from_file(path, JsdGrid, values, ws, wi)


def write_jsd_csv(path, jsd: JsdGrid) -> None:
    write_table(path, _JSD_HEADER, (
        [w_s, w_i, val.real, val.imag]
        for w_s, row in zip(jsd.axis_s, jsd.values)
        for w_i, val in zip(jsd.axis_i, row)
    ))


def read_filter_csv(path, kind: str = "amplitude") -> FilterProfile:
    """Load a filter from CSV with columns omega, t.

    ``kind`` selects whether the t column is an amplitude or an intensity
    transmittance; intensities are converted via sqrt.  The rows may come
    in any order, but no omega twice.  Every rejection starts with the
    path.
    """
    if kind not in ("amplitude", "intensity"):
        raise InvalidInputError(f"filter kind must be amplitude|intensity, got {kind!r}")
    rows, _ = read_table(
        path, ["omega", "t"], "filter",
        lambda row: (parse_finite(row["omega"]), parse_finite(row["t"])),
    )
    omega, t = np.array(sorted(rows)).T
    repeated = omega[1:][np.diff(omega) == 0.0]
    if repeated.size:
        raise InvalidInputError(f"{path}: filter CSV has a duplicate omega {float(repeated[0])!r}")
    build = FilterProfile.from_intensity if kind == "intensity" else FilterProfile
    return _from_file(path, build, omega, t)
