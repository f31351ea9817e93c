import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppskit import jsd as jsd_module
from ppskit.errors import InvalidInputError
from ppskit.jsd import (
    FilterProfile,
    JsdGrid,
    PumpGain,
    complex_overlap,
    gaussian_jsd,
    pair_overlap,
    pnd_from_segmentation,
    read_jsd_csv,
    schmidt_number_analytic,
    schmidt_number_svd,
    segment,
    synthesize_pnd,
    write_jsd_csv,
)
from ppskit.pnd import apply_loss_bipartite

from conftest import random_jsd, rect_fraction_filter, separable_rect_jsd


@pytest.fixture
def routes(monkeypatch):
    """The route of every ``segment`` call from here on, "direct" or
    "factored", read from the trace function it hands its traces to."""
    taken = []
    for route in ("direct", "factored"):
        def spy(*args, _route=route, _traces=getattr(jsd_module, f"_{route}_traces")):
            taken.append(_route)
            return _traces(*args)
        monkeypatch.setattr(jsd_module, f"_{route}_traces", spy)
    return taken


def factor_singular_values(jsd):
    """Singular values of Q B, the low-rank factor of the scaled grid: those of B."""
    return np.linalg.svd(jsd_module._low_rank_factor(jsd.scaled())[1], compute_uv=False)


def hermite_modes(axis, k_max):
    """Orthonormal discrete modes from Gram-Schmidt over Hermite functions."""
    x = (axis - axis.mean()) / axis.std()
    cols = [np.exp(-(x**2) / 2) * x**k for k in range(k_max)]
    q, _ = np.linalg.qr(np.array(cols).T)
    return q.T


class TestSchmidtNumber:
    def test_separable_grid_has_single_mode(self):
        jsd = separable_rect_jsd()
        assert schmidt_number_svd(jsd) == pytest.approx(1.0, abs=1e-9)
        assert schmidt_number_analytic(jsd) == pytest.approx(1.0, abs=1e-9)

    def test_two_equal_orthogonal_terms_give_two_modes(self):
        axis = np.linspace(-4, 4, 64)
        modes_s = hermite_modes(axis, 2)
        modes_i = hermite_modes(axis, 2)
        values = (
            np.outer(modes_s[0], modes_i[0]) + np.outer(modes_s[1], modes_i[1])
        ) / math.sqrt(2)
        jsd = JsdGrid(values, axis, axis)
        assert schmidt_number_svd(jsd) == pytest.approx(2.0, abs=1e-9)
        assert schmidt_number_analytic(jsd) == pytest.approx(2.0, abs=1e-9)

    def test_correlated_gaussian_oracle_agreement(self):
        jsd = gaussian_jsd(sigma_plus=0.2, sigma_minus=1.0, n_s=256, n_i=256)
        k_svd = schmidt_number_svd(jsd)
        k_ana = schmidt_number_analytic(jsd)
        assert abs(k_ana - k_svd) / k_svd < 1e-6
        # closed form for this family: (r + 1/r) / 2 with r the sigma ratio
        assert k_svd == pytest.approx(2.6, rel=1e-4)

    def test_complex_chirp_keeps_oracles_in_agreement(self):
        jsd = gaussian_jsd(0.3, 0.9, n_s=128, n_i=128, chirp=2.0)
        k_svd = schmidt_number_svd(jsd)
        assert abs(schmidt_number_analytic(jsd) - k_svd) / k_svd < 1e-6
        assert k_svd >= 1.0 - 1e-9

    def test_oracles_agree_on_large_grid(self):
        jsd = gaussian_jsd(0.15, 0.8, n_s=512, n_i=512, chirp=1.0)
        k_svd = schmidt_number_svd(jsd)
        assert abs(schmidt_number_analytic(jsd) - k_svd) / k_svd < 1e-6

    def test_grid_construction_normalizes(self):
        jsd = random_jsd(np.random.default_rng(0))
        norm_squared = np.sum(np.abs(jsd.values) ** 2) * jsd.step_s * jsd.step_i
        assert norm_squared == pytest.approx(1.0, abs=1e-12)


def complex_gram_mode_number(jsd):
    """K from the complex Gram trace((A A^dag)^2), written out in full."""
    a = jsd.scaled()
    gram = a @ a.conj().T
    return 1.0 / float(np.einsum("ij,ji->", gram, gram).real)


class TestRealifiedGram:
    """schmidt_number_analytic runs a complex grid's Gram in real arithmetic."""

    @staticmethod
    def _assert_mode_number(jsd, expected=None):
        k = schmidt_number_analytic(jsd)
        for oracle in (schmidt_number_svd(jsd), complex_gram_mode_number(jsd), expected):
            if oracle is not None:
                assert abs(k - oracle) <= 1e-13 * oracle

    @pytest.mark.parametrize("shape", [(40, 56), (56, 40)])
    def test_random_complex_grid(self, rng, shape):
        jsd = random_jsd(rng, *shape)
        assert jsd.values.dtype == np.complex128
        self._assert_mode_number(jsd)

    def test_chirped_gaussian_grid(self):
        jsd = gaussian_jsd(0.05, 0.24, math.pi / 4, n_s=96, n_i=96, span=10.0, chirp=80.0)
        self._assert_mode_number(jsd)

    @pytest.mark.parametrize("shape", [(200, 130), (130, 200), (300, 300)])
    def test_tiled_trace_with_partial_tiles(self, rng, shape):
        # 130, 200 and 300 rows leave a partial last tile of tr(M²).
        self._assert_mode_number(random_jsd(rng, *shape))

    def test_tiled_trace_on_the_benchmark_grid_at_30_degrees(self):
        # At 30° the chirp is not a product of one phase per axis, so Im(AA†) ≠ 0.
        jsd = gaussian_jsd(0.05, 0.24, math.radians(30), n_s=1024, n_i=1024, span=10.0, chirp=80.0)
        self._assert_mode_number(jsd)

    def test_rotated_real_grid_matches_the_real_grid(self):
        # A global phase cancels in A A^dag, so its imaginary part is 0.
        real = gaussian_jsd(0.3, 0.9, theta=0.3, n_s=48, n_i=64)
        rotated = JsdGrid(real.values * np.exp(1j * math.pi / 3), real.axis_s, real.axis_i)
        assert real.values.dtype == np.float64 and rotated.values.dtype == np.complex128
        self._assert_mode_number(rotated, expected=schmidt_number_analytic(real))


def meshgrid_gaussian_jsd(sigma_plus, sigma_minus, theta, n_s, n_i, span, chirp):
    """gaussian_jsd's amplitude from the formula on two meshgrid arrays: the
    reference that its chirp-free build must match byte for byte."""
    c, s = math.cos(theta), math.sin(theta)
    std_x = math.sqrt((c**2 * sigma_plus**2 + s**2 * sigma_minus**2) / 2.0)
    std_y = math.sqrt((s**2 * sigma_plus**2 + c**2 * sigma_minus**2) / 2.0)
    axis_s = np.linspace(-span * std_x, span * std_x, int(n_s))
    axis_i = np.linspace(-span * std_y, span * std_y, int(n_i))
    X, Y = np.meshgrid(axis_s, axis_i, indexing="ij")
    u = c * X + s * Y
    v = -s * X + c * Y
    amp = np.exp(
        -(u**2) / (2 * sigma_plus**2)
        - v**2 / (2 * sigma_minus**2)
        + (1j * chirp * u * v if chirp else 0.0)
    )
    return JsdGrid(amp, axis_s, axis_i)


def assert_near_longdouble_formula(grid, sigma_plus, sigma_minus, theta, chirp):
    """|grid - f| <= 16 eps max|f| entrywise, for f the normalized formula
    evaluated in np.longdouble on the grid's own axes."""
    ld = np.longdouble
    c, s = np.cos(ld(theta)), np.sin(ld(theta))
    x, y = grid.axis_s.astype(ld)[:, None], grid.axis_i.astype(ld)[None, :]
    u = c * x + s * y
    v = -s * x + c * y
    magnitude = np.exp(-(u**2) / (2 * ld(sigma_plus) ** 2) - v**2 / (2 * ld(sigma_minus) ** 2))
    phase = ld(chirp) * u * v
    re, im = magnitude * np.cos(phase), magnitude * np.sin(phase)
    norm = np.sqrt(np.sum(re**2 + im**2) * ld(grid.step_s) * ld(grid.step_i))
    re, im = re / norm, im / norm
    error = np.hypot(grid.values.real - re, grid.values.imag - im).max()
    assert error <= 16 * np.finfo(float).eps * np.hypot(re, im).max()


class TestGaussianJsdBytes:
    # 48 and 200 idler points leave a partial last block of the phase tables.
    @pytest.mark.parametrize("n_s, n_i", [(72, 48), (48, 72), (160, 200)])
    @pytest.mark.parametrize("theta", [math.pi / 4, 0.3])
    @pytest.mark.parametrize("chirp", [0.0, 80.0, -40.0, 120.0])
    def test_grid_bytes_match_the_meshgrid_formula(self, chirp, theta, n_s, n_i):
        # A chirp-free grid is pinned byte for byte.  A chirped one is built
        # from phase tables, so it and the float64 formula are each held to
        # a few ulps of the peak of the longdouble formula instead.
        args = (0.05, 0.24, theta, n_s, n_i, 10.0, chirp)
        grid, reference = gaussian_jsd(*args), meshgrid_gaussian_jsd(*args)
        assert grid.values.dtype == reference.values.dtype
        assert grid.values.dtype == (np.complex128 if chirp else np.float64)
        assert grid.axis_s.tobytes() == reference.axis_s.tobytes()
        assert grid.axis_i.tobytes() == reference.axis_i.tobytes()
        if chirp:
            for built in (grid, reference):
                assert_near_longdouble_formula(built, 0.05, 0.24, theta, chirp)
        else:
            assert grid.values.tobytes() == reference.values.tobytes()

    @pytest.mark.parametrize("route", ["factored", "direct"])
    @pytest.mark.parametrize("theta_deg", [30, 45])
    def test_segment_agrees_with_the_meshgrid_grid(self, theta_deg, route, monkeypatch, routes):
        args = (0.05, 0.24, math.radians(theta_deg), 512, 512, 10.0, 80.0)
        grids = gaussian_jsd(*args), meshgrid_gaussian_jsd(*args)
        if route == "direct":
            monkeypatch.setattr(jsd_module, "_SKETCH_RANK_FRACTION", 0.0)
        built, reference = (
            segment(g, FilterProfile.gauss(g.axis_s, 0.02, 0.3),
                    FilterProfile.gauss(g.axis_i, -0.01, 0.15))
            for g in grids
        )
        assert routes == [route, route]
        for name in ("q", "kappa", "ox13", "ox24", "oy14", "oy23", "oc", "purity"):
            a, b = np.asarray(getattr(built, name)), np.asarray(getattr(reference, name))
            assert np.all(np.abs(a - b) <= 1e-13 * np.abs(b)), name


class TestGridValidation:
    def test_nonuniform_axis_rejected(self):
        axis = np.array([0.0, 1.0, 2.5, 3.0])
        with pytest.raises(InvalidInputError):
            JsdGrid(np.ones((4, 4)), axis, np.arange(4.0))

    def test_zero_norm_rejected(self):
        with pytest.raises(InvalidInputError):
            JsdGrid(np.zeros((4, 4)), np.arange(4.0), np.arange(4.0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            JsdGrid(np.ones((4, 5)), np.arange(4.0), np.arange(4.0))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: FilterProfile(np.arange(4.0), np.array([0.0, np.nan, 0.5, 1.0])),
            lambda: FilterProfile(np.array([0.0, np.nan, 2.0, 3.0]), np.full(4, 0.5)),
            lambda: FilterProfile(np.array([0.0, 1.0, 2.0, np.inf]), np.full(4, 0.5)),
            lambda: FilterProfile.from_intensity(np.arange(4.0), np.full(4, np.nan)),
            lambda: FilterProfile.rect(np.array([0.0, 1.0, np.nan, 3.0]), 1.0, 2.0),
            lambda: JsdGrid(np.ones((4, 4)), [0.0, np.nan, 2.0, 3.0], np.arange(4.0)),
            lambda: JsdGrid(np.ones((4, 4)), np.arange(4.0), [-np.inf, 1.0, 2.0, 3.0]),
        ],
        ids=[
            "filter-nan-t",
            "filter-nan-omega",
            "filter-inf-omega",
            "filter-nan-intensity",
            "rect-nan-axis",
            "grid-nan-axis_s",
            "grid-inf-axis_i",
        ],
    )
    def test_non_finite_axes_and_filters_rejected(self, build):
        with pytest.raises(InvalidInputError, match="finite"):
            build()

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_norm_out_of_float_range_is_rescaled(self, scale):
        # |v|^2 over- or underflows, yet the grid is finite and non-zero.
        axis = np.arange(4.0)
        ones = JsdGrid(np.ones((4, 4)), axis, axis).values
        extreme = JsdGrid(np.full((4, 4), scale), axis, axis).values
        np.testing.assert_allclose(extreme, ones, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, part, bad):
        values = np.ones((4, 4), dtype=complex)
        getattr(values, part)[1, 2] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            JsdGrid(values, np.arange(4.0), np.arange(4.0))


def chirped_amplitude(n, chirp=80.0, span=10.0):
    """The synthesis benchmark's chirped Gaussian amplitude, unnormalized,
    on an n x n grid; its corners lie far below 1e-150 of its peak.  With
    ``chirp=0`` it is the rect kind's real amplitude."""
    sigma_plus, sigma_minus = 0.05, 0.24
    std = math.sqrt((sigma_plus**2 + sigma_minus**2) / 4.0)
    axis = np.linspace(-span * std, span * std, n)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    u, v = (x + y) / math.sqrt(2.0), (y - x) / math.sqrt(2.0)
    phase = 1j * chirp * u * v if chirp else 0.0
    amp = np.exp(-(u**2) / (2 * sigma_plus**2) - v**2 / (2 * sigma_minus**2) + phase)
    return amp, axis


class TestTailFlush:
    def test_no_component_survives_below_the_cut(self):
        amp, axis = chirped_amplitude(96)
        raw = np.abs(amp.view(float))
        assert np.any((raw > 0.0) & (raw < 1e-150 * raw.max()))
        parts = np.abs(JsdGrid(amp, axis, axis).values.view(float))
        assert parts[parts > 0.0].min() >= 1e-150 * parts.max()

    def test_tail_zeroed_by_hand_gives_the_same_grid(self):
        amp, axis = chirped_amplitude(96)
        zeroed = amp.copy()
        parts = zeroed.view(float)
        parts[np.abs(parts) < 1e-150 * np.abs(parts).max()] = 0.0
        assert not np.array_equal(zeroed, amp)
        flushed = JsdGrid(amp, axis, axis).values
        assert flushed.tobytes() == JsdGrid(zeroed, axis, axis).values.tobytes()

    def test_real_grid_is_flushed_like_its_complex_twin(self):
        amp, axis = chirped_amplitude(96, chirp=0.0)
        assert amp.dtype == np.float64
        assert np.any((amp > 0.0) & (amp < 1e-150 * amp.max()))
        flushed = JsdGrid(amp, axis, axis).values
        assert flushed.dtype == np.float64
        assert flushed[flushed > 0.0].min() >= 1e-150 * flushed.max()
        twin = JsdGrid(amp.astype(complex), axis, axis).values
        assert flushed.tobytes() == twin.real.copy().tobytes()
        assert not np.any(twin.imag)


class TestFilterProfile:
    def test_amplitude_reflectance_complement(self):
        axis = np.linspace(0, 1, 32)
        filt = FilterProfile.gauss(axis, 0.5, 0.2)
        np.testing.assert_allclose(filt.t**2 + filt.r**2, 1.0, atol=1e-12)

    def test_intensity_conversion_takes_sqrt(self):
        axis = np.linspace(0, 1, 8)
        filt = FilterProfile.from_intensity(axis, np.full(8, 0.25))
        np.testing.assert_allclose(filt.t, 0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            FilterProfile(np.arange(4.0), np.array([0.0, 0.5, 1.2, 1.0]))


class TestSegmentation:
    def test_ideal_rect_filters_on_separable_rect_jsd(self):
        jsd = separable_rect_jsd()
        filt_s, T_s = rect_fraction_filter(jsd.axis_s, 0.5)
        filt_i, T_i = rect_fraction_filter(jsd.axis_i, 0.25)
        seg = segment(jsd, filt_s, filt_i)
        expected = (
            T_s * (1 - T_i),
            (1 - T_s) * T_i,
            T_s * T_i,
            (1 - T_s) * (1 - T_i),
        )
        np.testing.assert_allclose(seg.q, expected, atol=1e-12)
        # separable + ideal: exchange overlaps and mode numbers are all unity
        assert seg.q[0] * seg.q[1] == pytest.approx(seg.q[2] * seg.q[3], abs=1e-10)
        np.testing.assert_allclose(seg.kappa, 1.0, atol=1e-9)
        for overlap in (seg.ox13, seg.ox24, seg.oy14, seg.oy23, seg.oc.real):
            assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_all_pass_filters_put_everything_in_the_pair_branch(self):
        jsd = separable_rect_jsd(32, 32)
        seg = segment(
            jsd,
            FilterProfile.all_pass(jsd.axis_s),
            FilterProfile.all_pass(jsd.axis_i),
        )
        np.testing.assert_allclose(seg.q, [0.0, 0.0, 1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(seg.parts[2].values, jsd.values)
        assert seg.parts[0] is None and seg.parts[3] is None

    def test_blocking_signal_filter_kills_signal_branches(self):
        jsd = separable_rect_jsd(32, 32)
        seg = segment(
            jsd,
            FilterProfile(jsd.axis_s, np.zeros_like(jsd.axis_s)),
            FilterProfile.all_pass(jsd.axis_i),
        )
        assert seg.q[0] == 0.0 and seg.q[2] == 0.0
        assert seg.q[1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "filters, empty",
        [
            (lambda ax_s, ax_i: (
                FilterProfile.gauss(ax_s, 0.1, 0.7),
                FilterProfile.gauss(ax_i, -0.1, 0.5),
            ), []),
            (lambda ax_s, ax_i: (
                FilterProfile.all_pass(ax_s),
                FilterProfile.rect(ax_i, 0.0, 0.8),
            ), [1, 3]),
            (lambda ax_s, ax_i: (
                FilterProfile.rect(ax_s, 0.0, 0.8),
                FilterProfile(ax_i, np.zeros_like(ax_i)),
            ), [1, 2]),
        ],
        ids=["gauss", "rect-allpass-signal", "rect-blocking-idler"],
    )
    def test_shared_gram_quantities_match_oracles(self, filters, empty):
        jsd = gaussian_jsd(0.3, 0.9, math.pi / 5, n_s=20, n_i=28, span=4.0, chirp=3.0)
        assert np.abs(jsd.values.imag).max() > 0.1
        seg = segment(jsd, *filters(jsd.axis_s, jsd.axis_i))
        p = seg.parts
        assert [j for j in range(4) if p[j] is None] == empty
        for j in range(4):
            if p[j] is None:
                assert seg.q[j] == 0.0 and seg.kappa[j] == 1.0
            else:
                assert seg.kappa[j] == pytest.approx(
                    schmidt_number_analytic(p[j]), rel=1e-12
                )
        brute = {
            "ox13": pair_overlap(p[0], p[2], "x", method="brute"),
            "ox24": pair_overlap(p[1], p[3], "x", method="brute"),
            "oy14": pair_overlap(p[0], p[3], "y", method="brute"),
            "oy23": pair_overlap(p[1], p[2], "y", method="brute"),
            "oc": complex_overlap(*p, method="brute"),
        }
        pairs = {"ox13": (0, 2), "ox24": (1, 3), "oy14": (0, 3), "oy23": (1, 2),
                 "oc": (0, 1, 2, 3)}
        for name, oracle in brute.items():
            value = getattr(seg, name)
            if any(p[j] is None for j in pairs[name]):
                assert value == 0.0
            else:
                assert abs(value - oracle) <= 1e-12
        if not empty:
            assert abs(seg.oc.imag) > 1e-3

    def test_axis_mismatch_rejected(self):
        jsd = separable_rect_jsd(16, 16)
        wrong = FilterProfile.all_pass(jsd.axis_s + 0.5)
        with pytest.raises(InvalidInputError):
            segment(jsd, wrong, FilterProfile.all_pass(jsd.axis_i))

    @given(
        ts=st.floats(0.1, 1.0),
        ti=st.floats(0.1, 1.0),
        sp=st.floats(0.1, 0.5),
        sm=st.floats(0.5, 1.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_branch_weights_sum_to_one(self, ts, ti, sp, sm):
        jsd = gaussian_jsd(sp, sm, n_s=48, n_i=48)
        seg = segment(
            jsd,
            FilterProfile(jsd.axis_s, np.full(48, ts)),
            FilterProfile(jsd.axis_i, np.full(48, ti)),
        )
        assert seg.q.sum() == pytest.approx(1.0, abs=1e-10)
        # q3 equals the transmitted-intensity integral directly
        direct = (
            np.sum((ts * ti) ** 2 * np.abs(jsd.values) ** 2)
            * jsd.step_s
            * jsd.step_i
        )
        assert seg.q[2] == pytest.approx(direct, rel=1e-10)
        assert np.all(seg.kappa >= 1.0 - 1e-9)


def _assert_matches_contract_oracles(seg):
    """Every kappa and overlap against the oracles on the branch grids, at 1e-12."""
    p = seg.parts
    for j in range(4):
        if p[j] is not None:
            assert seg.kappa[j] == pytest.approx(schmidt_number_analytic(p[j]), rel=1e-12)
    oracles = {
        "ox13": pair_overlap(p[0], p[2], "x"),
        "ox24": pair_overlap(p[1], p[3], "x"),
        "oy14": pair_overlap(p[0], p[3], "y"),
        "oy23": pair_overlap(p[1], p[2], "y"),
        "oc": complex_overlap(*p),
    }
    for name, oracle in oracles.items():
        assert abs(getattr(seg, name) - oracle) <= 1e-12 * abs(oracle), name


@pytest.fixture(scope="module")
def chirped_jsd_512():
    """The synthesis benchmark's chirped Gaussian JSD, at n = 512."""
    return gaussian_jsd(0.05, 0.24, math.pi / 4, n_s=512, n_i=512, span=10.0, chirp=80.0)


class TestFactoredSegmentation:
    def test_low_rank_jsd_takes_factored_route(self, chirped_jsd_512, routes):
        jsd = chirped_jsd_512
        seg = segment(
            jsd,
            FilterProfile.gauss(jsd.axis_s, 0.02, 0.3),
            FilterProfile.gauss(jsd.axis_i, -0.01, 0.15),
        )
        assert routes == ["factored"]
        s = factor_singular_values(jsd)
        assert s.size < 512 // 4
        assert np.all(seg.q > 1e-2)
        _assert_matches_contract_oracles(seg)
        assert 1.0 / np.sum(s**4) == pytest.approx(schmidt_number_svd(jsd), rel=1e-12)

    def test_tail_branch_falls_back_to_direct_route(self, chirped_jsd_512, routes):
        # The signal filter sits far in the JSD's tail, so the pair branch
        # carries a weight near 1e-11.  The factor's absolute error is far
        # too large relative to that.
        jsd = chirped_jsd_512
        seg = segment(
            jsd,
            FilterProfile.gauss(jsd.axis_s, 0.5, 0.05),
            FilterProfile.gauss(jsd.axis_i, -0.01, 0.15),
        )
        assert 1e-11 < seg.q[2] < 1e-10
        assert routes == ["direct"]
        _assert_matches_contract_oracles(seg)
        assert seg.purity == pytest.approx(1.0 / schmidt_number_svd(jsd), rel=1e-12)

    def test_rejected_factor_leaves_the_grid_for_the_direct_route(
        self, chirped_jsd_512, monkeypatch, routes
    ):
        # The factor's residual is updated in place after its first block;
        # that must never reach the scaled grid the direct route reuses.
        jsd = chirped_jsd_512
        filters = (
            FilterProfile.gauss(jsd.axis_s, 0.02, 0.3),
            FilterProfile.gauss(jsd.axis_i, -0.01, 0.15),
        )
        before = jsd.values.tobytes()
        factors = []
        low_rank_factor = jsd_module._low_rank_factor

        def recording_factor(f):
            factors.append(low_rank_factor(f))
            return factors[-1]

        with monkeypatch.context() as patch:
            patch.setattr(jsd_module, "_SKETCH_RANK_FRACTION", 0.0)
            direct = segment(jsd, *filters)
        with monkeypatch.context() as patch:
            patch.setattr(jsd_module, "_BRANCH_ERROR_BOUND", 0.0)
            patch.setattr(jsd_module, "_low_rank_factor", recording_factor)
            fallback = segment(jsd, *filters)
        (factor,) = factors
        assert factor is not None and factor[0].shape[1] > jsd_module._SKETCH_BLOCK
        assert routes == ["direct", "direct"]
        for name in ("q", "kappa"):
            assert getattr(fallback, name).tobytes() == getattr(direct, name).tobytes()
        for name in ("ox13", "ox24", "oy14", "oy23", "oc"):
            assert getattr(fallback, name) == getattr(direct, name)
        assert jsd.values.tobytes() == before

    def test_full_rank_jsd_takes_direct_route(self, rng, routes):
        jsd = random_jsd(rng, 256, 256)
        seg = segment(
            jsd,
            FilterProfile.gauss(jsd.axis_s, 0.1, 0.7),
            FilterProfile.gauss(jsd.axis_i, -0.1, 1.5),
        )
        assert routes == ["direct"]
        assert seg.purity == pytest.approx(1.0 / schmidt_number_svd(jsd), rel=1e-12)
        assert np.all(seg.q > 1e-2)
        _assert_matches_contract_oracles(seg)

    def test_forced_direct_route_matches_oracles(self, chirped_jsd_512, monkeypatch, routes):
        # The grid and filters of the factored-route test above, so all four
        # branches are live on both routes: every trace of the direct route
        # is taken, from the two signal-weighted Grams alone.
        jsd = chirped_jsd_512
        filters = (
            FilterProfile.gauss(jsd.axis_s, 0.02, 0.3),
            FilterProfile.gauss(jsd.axis_i, -0.01, 0.15),
        )
        grams = []
        gram = jsd_module._gram

        def counting_gram(x, w):
            grams.append(w)
            return gram(x, w)

        monkeypatch.setattr(jsd_module, "_SKETCH_RANK_FRACTION", 0.0)
        monkeypatch.setattr(jsd_module, "_gram", counting_gram)
        seg = segment(jsd, *filters)
        assert routes == ["direct"]
        assert np.all(seg.q > 1e-2) and len(grams) == 2
        _assert_matches_contract_oracles(seg)
        assert seg.purity == pytest.approx(1.0 / schmidt_number_svd(jsd), rel=1e-12)

    def test_direct_route_purity_from_one_gram(self, chirped_jsd_512, monkeypatch, routes):
        # A signal filter that passes the whole axis leaves both reflected
        # signal branches empty: only F† D_tx² F is formed, and it is F† F.
        jsd = chirped_jsd_512
        grams = []
        gram = jsd_module._gram

        def counting_gram(x, w):
            grams.append(w)
            return gram(x, w)

        monkeypatch.setattr(jsd_module, "_SKETCH_RANK_FRACTION", 0.0)
        monkeypatch.setattr(jsd_module, "_gram", counting_gram)
        seg = segment(
            jsd,
            FilterProfile.all_pass(jsd.axis_s),
            FilterProfile.gauss(jsd.axis_i, -0.01, 0.15),
        )
        assert routes == ["direct"]
        assert seg.q[1] == seg.q[3] == 0.0 and len(grams) == 1
        _assert_matches_contract_oracles(seg)
        assert seg.purity == pytest.approx(1.0 / schmidt_number_svd(jsd), rel=1e-12)

    def test_segmentation_is_deterministic(self, chirped_jsd_512, routes):
        jsd = chirped_jsd_512
        filters = (
            FilterProfile.gauss(jsd.axis_s, 0.02, 0.3),
            FilterProfile.gauss(jsd.axis_i, -0.01, 0.15),
        )
        a, b = segment(jsd, *filters), segment(jsd, *filters)
        assert routes == ["factored", "factored"]
        for name in ("q", "kappa"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert factor_singular_values(jsd).tobytes() == factor_singular_values(jsd).tobytes()
        for name in ("ox13", "ox24", "oy14", "oy23", "oc", "purity"):
            assert getattr(a, name) == getattr(b, name)

    def test_branch_grids_are_built_on_first_read(self, monkeypatch):
        jsd = gaussian_jsd(0.3, 0.9, n_s=20, n_i=28)
        filters = (FilterProfile.rect(jsd.axis_s, 0.0, 0.8),
                   FilterProfile(jsd.axis_i, np.zeros_like(jsd.axis_i)))
        built = []
        post_init = JsdGrid.__post_init__

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(JsdGrid, "__post_init__", counting_post_init)
        seg = segment(jsd, *filters)
        assert built == []
        parts = seg.parts
        assert [p is None for p in parts] == [False, True, True, False]
        assert len(built) == 2 and seg.parts is parts


@pytest.mark.parametrize("chirp", [80.0, 0.0])
def test_low_rank_factor_contract(chirp, monkeypatch):
    # The benchmark's JSD at n = 256, complex and real; a rank cap of the
    # whole grid lets the factor run to roundoff.
    monkeypatch.setattr(jsd_module, "_SKETCH_RANK_FRACTION", 1.0)
    jsd = gaussian_jsd(0.05, 0.24, math.pi / 4, n_s=256, n_i=256, span=10.0, chirp=chirp)
    f = jsd.scaled()
    q, b, r = jsd_module._low_rank_factor(f)
    assert r is f  # the residual is built in place of the grid's copy
    rank = q.shape[1]
    assert q.shape == (256, rank) and b.shape == (rank, 256)
    assert np.abs(q.conj().T @ q - np.eye(rank)).max() <= 1e-13
    assert np.linalg.norm(jsd.scaled() - q @ b - r) <= 1e-15
    assert np.linalg.norm(r) <= 1e-14
    full = np.linalg.svd(jsd.scaled(), compute_uv=False)
    s = np.linalg.svd(b, compute_uv=False)  # those of Q B, as Q is orthonormal
    assert np.abs(s - full[:rank]).max() <= 1e-14 * full[0]


def _record_linalg_calls(monkeypatch, *names):
    """Patch the named np.linalg functions to record (name, last dimension
    of the argument) of every call; returns the record."""
    calls = []
    for name in names:
        def wrapped(a, *args, _name=name, _function=getattr(np.linalg, name), **kwargs):
            calls.append((_name, a.shape[-1]))
            return _function(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, wrapped)
    return calls


def test_a_block_that_sketches_roundoff_takes_a_second_qr(monkeypatch):
    # Rank 40 of 48 with singular values from 1 down to 1e-15: the second
    # block sketches mostly roundoff, which overlaps the first block so
    # much that its Y† Y has an eigenvalue near 6e-5, too small for the
    # Cholesky pass.
    monkeypatch.setattr(jsd_module, "_SKETCH_RANK_FRACTION", 1.0)
    rng = np.random.default_rng(48040)
    u = np.linalg.qr(rng.standard_normal((48, 40)))[0]
    v = np.linalg.qr(rng.standard_normal((48, 40)))[0]
    f = (u * np.geomspace(1.0, 1e-15, 40)) @ v.T
    f /= np.linalg.norm(f)
    calls = _record_linalg_calls(monkeypatch, "qr", "cholesky")
    q, b, r = jsd_module._low_rank_factor(f.copy())
    monkeypatch.undo()
    assert calls == [("qr", 32), ("qr", 16), ("qr", 16)]
    assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-13
    assert np.linalg.norm(f - q @ b - r) <= 1e-15 and np.linalg.norm(r) <= 1e-14


@pytest.fixture(scope="module", params=["chirped", "real"])
def benchmark_kind_1024(request):
    """The synthesis benchmark's two JSD kinds at n = 1024 (the real grid
    is the rect kind's), each with filters of its kind."""
    chirp = 80.0 if request.param == "chirped" else 0.0
    jsd = gaussian_jsd(0.05, 0.24, math.pi / 4, n_s=1024, n_i=1024, span=10.0, chirp=chirp)
    if request.param == "chirped":
        filters = (FilterProfile.gauss(jsd.axis_s, 0.02, 0.3),
                   FilterProfile.gauss(jsd.axis_i, -0.01, 0.15))
    else:
        filters = (FilterProfile.rect(jsd.axis_s, 0.0, 2.1 * 10.0 * math.sqrt(0.05**2 + 0.24**2) / 2),
                   FilterProfile.rect(jsd.axis_i, 0.0, 0.2))
    return jsd, filters


class TestLowRankFactorAtBenchmarkSize:
    def test_blocks_take_one_qr_and_a_cholesky_pass_and_end_at_the_rank(
        self, benchmark_kind_1024, monkeypatch
    ):
        jsd, _ = benchmark_kind_1024
        calls = _record_linalg_calls(monkeypatch, "qr", "cholesky")
        q, b, r = jsd_module._low_rank_factor(jsd.scaled())
        monkeypatch.undo()
        widths = [width for name, width in calls if name == "qr"]
        assert sum(widths) == q.shape[1] and len(widths) >= 2
        assert [name for name, _ in calls] == ["qr"] + ["qr", "cholesky"] * (len(widths) - 1)
        assert np.abs(q.conj().T @ q - np.eye(q.shape[1])).max() <= 1e-13
        # Three whole blocks would be 96 columns; the last is cut to 8s.
        assert q.shape[1] < 3 * jsd_module._SKETCH_BLOCK
        assert q.shape[1] % jsd_module._SKETCH_BLOCK_STEP == 0
        assert np.linalg.norm(r) <= 1e-14

    def test_purity_without_an_svd(self, benchmark_kind_1024, monkeypatch):
        jsd, filters = benchmark_kind_1024
        full = np.linalg.svd(jsd.scaled(), compute_uv=False)
        svds = _record_linalg_calls(monkeypatch, "svd")
        seg = segment(jsd, *filters)
        assert svds == []
        monkeypatch.undo()
        # The factor's spectrum is the grid's, to roundoff of the largest.
        s = factor_singular_values(jsd)
        assert s.size < 3 * jsd_module._SKETCH_BLOCK
        assert np.abs(s - full[:s.size]).max() <= 1e-14 * full[0]
        assert seg.purity == pytest.approx(1.0 / schmidt_number_svd(jsd), rel=1e-12)


@pytest.mark.parametrize("n, sigma_plus, sigma_minus, span, chirp", [
    (1024, 0.05, 0.5, 10.0, 0.0),
    (512, 0.1, 0.2, 6.0, 0.0),
    (128, 0.1, 0.2, 10.0, 100.0),
])
def test_factored_route_matches_oracles_on_other_families(
    n, sigma_plus, sigma_minus, span, chirp, routes
):
    # Two other families, on which the factor takes 168, 32 and 32 columns
    # where the benchmark's grid takes 88: every quantity meets the oracles.
    jsd = gaussian_jsd(sigma_plus, sigma_minus, math.pi / 4, n_s=n, n_i=n, span=span, chirp=chirp)
    seg = segment(
        jsd,
        FilterProfile.gauss(jsd.axis_s, 0.02, 0.3),
        FilterProfile.gauss(jsd.axis_i, -0.01, 0.15),
    )
    assert routes == ["factored"]
    _assert_matches_contract_oracles(seg)
    s = factor_singular_values(jsd)
    assert 1.0 / np.sum(s**4) == pytest.approx(schmidt_number_svd(jsd), rel=1e-12)


def _assert_relatively_close(real, twin, rtol=1e-14):
    real, twin = np.asarray(real), np.asarray(twin)
    assert real.shape == twin.shape
    assert np.all(np.abs(real - twin) <= rtol * np.abs(twin))


@pytest.fixture(scope="module")
def real_and_twin():
    """A chirp-free grid, stored as float64, and the same values as complex.

    At span 6 the scaled grid has rank 64 of 96, so the factored route
    has a genuine low-rank factor once the rank cap allows it."""
    amp, axis = chirped_amplitude(96, chirp=0.0, span=6.0)
    return JsdGrid(amp, axis, axis), JsdGrid(amp.astype(complex), axis, axis)


REAL_GRID_FILTERS = {
    "gauss": lambda ax: (
        FilterProfile.gauss(ax, 0.02, 0.3),
        FilterProfile.gauss(ax, -0.01, 0.15),
    ),
    # As in the benchmark's rect kind, the signal filter passes the whole
    # axis, so both reflected-signal branches are empty.
    "rect": lambda ax: (
        FilterProfile.rect(ax, 0.0, 2.0),
        FilterProfile.rect(ax, 0.0, 0.2),
    ),
}


class TestRealGrids:
    def test_dtype_follows_the_input(self, real_and_twin, tmp_path):
        real, twin = real_and_twin
        assert real.values.dtype == np.float64
        assert twin.values.dtype == np.complex128
        assert gaussian_jsd(0.3, 0.9, n_s=16, n_i=16).values.dtype == np.float64
        assert gaussian_jsd(0.3, 0.9, n_s=16, n_i=16, chirp=1.0).values.dtype == np.complex128
        for grid, dtype in ((real, np.float64), (twin, np.float64),
                            (gaussian_jsd(0.3, 0.9, n_s=8, n_i=8, chirp=1.0), np.complex128)):
            path = tmp_path / "jsd.csv"
            write_jsd_csv(path, grid)
            loaded = read_jsd_csv(path)
            assert loaded.values.dtype == dtype
            np.testing.assert_allclose(loaded.values, grid.values, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("route", ["factored", "direct"])
    @pytest.mark.parametrize("filters", sorted(REAL_GRID_FILTERS))
    def test_segmentation_matches_the_complex_twin(
        self, real_and_twin, filters, route, monkeypatch, routes
    ):
        # A rank cap of the whole grid admits the factor; a cap of 0 forces
        # the direct Gram route.
        monkeypatch.setattr(jsd_module, "_SKETCH_RANK_FRACTION", 1.0 if route == "factored" else 0.0)
        real, twin = real_and_twin
        a = segment(real, *REAL_GRID_FILTERS[filters](real.axis_s))
        b = segment(twin, *REAL_GRID_FILTERS[filters](twin.axis_s))
        assert routes == [route, route]
        for name in ("q", "kappa", "ox13", "ox24", "oy14", "oy23", "oc"):
            _assert_relatively_close(getattr(a, name), getattr(b, name))
        assert isinstance(a.oc, complex) and a.oc.imag == 0.0
        if route == "factored":
            # The factor is accurate in absolute terms, so its singular
            # values are compared relative to the largest.
            s_a, s_b = factor_singular_values(real), factor_singular_values(twin)
            assert s_a.size == s_b.size == 64
            assert np.max(np.abs(s_a - s_b)) <= 1e-14 * s_b[0]
        for part_a, part_b in zip(a.parts, b.parts):
            assert (part_a is None) == (part_b is None)
            if part_a is not None:
                assert part_a.values.dtype == np.float64
                _assert_relatively_close(part_a.values, part_b.values.real)
                assert not np.any(part_b.values.imag)

    def test_mode_numbers_and_overlaps_match_the_complex_twin(self, real_and_twin):
        real, twin = real_and_twin
        _assert_relatively_close(schmidt_number_svd(real), schmidt_number_svd(twin))
        _assert_relatively_close(schmidt_number_analytic(real), schmidt_number_analytic(twin))
        p_a = segment(real, *REAL_GRID_FILTERS["gauss"](real.axis_s)).parts
        p_b = segment(twin, *REAL_GRID_FILTERS["gauss"](twin.axis_s)).parts
        for i, j in ((0, 2), (1, 3), (0, 3), (1, 2)):
            for axis in ("x", "y"):
                _assert_relatively_close(
                    pair_overlap(p_a[i], p_a[j], axis), pair_overlap(p_b[i], p_b[j], axis)
                )
        oc = complex_overlap(*p_a)
        assert isinstance(oc, complex)
        _assert_relatively_close(oc, complex_overlap(*p_b))


class TestOverlaps:
    def test_identical_separable_single_mode_overlaps_are_unity(self):
        jsd = separable_rect_jsd(24, 24)
        assert pair_overlap(jsd, jsd, "x") == pytest.approx(1.0, abs=1e-9)
        assert pair_overlap(jsd, jsd, "y") == pytest.approx(1.0, abs=1e-9)

    def test_empty_argument_gives_zero(self):
        jsd = separable_rect_jsd(8, 8)
        assert pair_overlap(None, jsd, "x") == 0.0
        assert pair_overlap(jsd, None, "y") == 0.0
        assert complex_overlap(None, jsd, jsd, jsd) == 0.0

    def test_self_overlap_equals_inverse_mode_number(self):
        jsd = gaussian_jsd(0.3, 0.9, n_s=64, n_i=64)
        k = schmidt_number_analytic(jsd)
        assert pair_overlap(jsd, jsd, "x") == pytest.approx(1.0 / k, rel=1e-12)
        assert pair_overlap(jsd, jsd, "y") == pytest.approx(1.0 / k, rel=1e-12)

    def test_contraction_matches_bruteforce_on_small_grids(self):
        rng = np.random.default_rng(7)
        for trial in range(4):
            fa = random_jsd(rng, 14, 18)
            fb = random_jsd(rng, 14, 18)
            for axis in ("x", "y"):
                fast = pair_overlap(fa, fb, axis)
                slow = pair_overlap(fa, fb, axis, method="brute")
                assert fast == pytest.approx(slow, abs=1e-10)

    def test_complex_overlap_matches_bruteforce(self):
        rng = np.random.default_rng(8)
        parts = [random_jsd(rng, 12, 12) for _ in range(4)]
        fast = complex_overlap(*parts)
        slow = complex_overlap(*parts, method="brute")
        assert fast == pytest.approx(slow, abs=1e-10)

    def test_bruteforce_agreement_on_filtered_gaussian_128(self):
        jsd = gaussian_jsd(0.2, 1.0, n_s=128, n_i=128)
        filt_s = FilterProfile.rect(jsd.axis_s, 0.0, 1.0)
        filt_i = FilterProfile.rect(jsd.axis_i, 0.0, 0.4)
        seg = segment(jsd, filt_s, filt_i)
        f1, f3 = seg.parts[0], seg.parts[2]
        assert pair_overlap(f1, f3, "x") == pytest.approx(
            pair_overlap(f1, f3, "x", method="brute"), abs=1e-8
        )

    def test_overlaps_bounded(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            fa = random_jsd(rng, 10, 10)
            fb = random_jsd(rng, 10, 10)
            assert -1e-9 <= pair_overlap(fa, fb, "x") <= 1.0 + 1e-9
            assert -1e-9 <= pair_overlap(fa, fb, "y") <= 1.0 + 1e-9
            assert abs(complex_overlap(fa, fb, fa, fb)) <= 1.0 + 1e-9


class TestSynthesize:
    def test_all_pass_filters_reproduce_unfiltered_cells(self):
        jsd = gaussian_jsd(0.25, 1.0, n_s=96, n_i=96)
        gain = PumpGain(1e-3)
        P = synthesize_pnd(
            jsd,
            FilterProfile.all_pass(jsd.axis_s),
            FilterProfile.all_pass(jsd.axis_i),
            gain,
        )
        k = schmidt_number_analytic(jsd)
        assert P.p[1, 1] == pytest.approx(1e-3, rel=1e-12)
        assert P.p[2, 2] == pytest.approx(1e-6 * (1 + 1 / k) / 2, rel=1e-12)
        off = P.p.copy()
        off[0, 0] = off[1, 1] = off[2, 2] = 0.0
        assert np.all(off == 0.0)

    def test_filtered_first_order_cells_follow_branch_weights(self):
        jsd = gaussian_jsd(0.25, 1.0, n_s=96, n_i=96)
        filt_s = FilterProfile.rect(jsd.axis_s, 0.0, 1.2)
        filt_i = FilterProfile.rect(jsd.axis_i, 0.0, 0.5)
        gain = PumpGain(2e-3)
        seg = segment(jsd, filt_s, filt_i)
        P = synthesize_pnd(jsd, filt_s, filt_i, gain)
        mu = gain.xi_sq
        q1, q2, q3, q4 = seg.q
        # leading order: first-order cells are mu * branch weight
        assert P.p[1, 1] == pytest.approx(mu * q3, rel=3 * mu)
        assert P.p[1, 0] == pytest.approx(mu * q1, rel=3 * mu)
        assert P.p[0, 1] == pytest.approx(mu * q2, rel=3 * mu)
        # exact: two-pair contributions included
        pair11 = q1 * q2 + q3 * q4 + 2 * np.sqrt(q1 * q2 * q3 * q4) * seg.oc.real
        assert P.p[1, 1] == pytest.approx(mu * q3 + mu**2 * pair11, rel=1e-9)
        assert P.p[1, 0] == pytest.approx(
            mu * q1 + mu**2 * q1 * q4 * (1 + seg.oy14), rel=1e-9
        )
        assert P.p[2, 1] == pytest.approx(
            mu**2 * q1 * q3 * (1 + seg.ox13), rel=1e-9
        )
        assert P.p[2, 2] == pytest.approx(
            mu**2 * q3**2 * (1 + 1 / seg.kappa[2]) / 2, rel=1e-9
        )

    def test_separable_rect_jsd_with_ideal_filters_equals_loss_model(self):
        jsd = separable_rect_jsd()
        filt_s, T_s = rect_fraction_filter(jsd.axis_s, 0.75)
        filt_i, T_i = rect_fraction_filter(jsd.axis_i, 0.5)
        gain = PumpGain(5e-3)
        filtered = synthesize_pnd(jsd, filt_s, filt_i, gain)
        unfiltered = synthesize_pnd(
            jsd,
            FilterProfile.all_pass(jsd.axis_s),
            FilterProfile.all_pass(jsd.axis_i),
            gain,
        )
        lossy = apply_loss_bipartite(unfiltered, T_s, T_i)
        np.testing.assert_allclose(filtered.p, lossy.p, atol=1e-10)

    def test_output_is_a_distribution(self):
        jsd = gaussian_jsd(0.3, 0.8, n_s=64, n_i=64, chirp=1.0)
        filt_s = FilterProfile.gauss(jsd.axis_s, 0.1, 0.7)
        filt_i = FilterProfile.gauss(jsd.axis_i, -0.1, 0.3)
        P = synthesize_pnd(jsd, filt_s, filt_i, PumpGain(0.05))
        assert P.p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(P.p >= 0.0)

    def test_exact_two_pair_matrix_reduces_to_rough_form_when_separable(self):
        jsd = separable_rect_jsd()
        filt_s, T_s = rect_fraction_filter(jsd.axis_s, 0.5)
        filt_i, T_i = rect_fraction_filter(jsd.axis_i, 0.5)
        seg = segment(jsd, filt_s, filt_i)
        q1, q2, q3, q4 = seg.q
        gain = PumpGain(1e-2)
        P = synthesize_pnd(jsd, filt_s, filt_i, gain)
        mu = gain.xi_sq
        rough = mu**2 * np.array(
            [
                [q4**2, 2 * q2 * q4, q2**2],
                [2 * q1 * q4, 2 * q1 * q2 + 2 * q3 * q4, 2 * q2 * q3],
                [q1**2, 2 * q1 * q3, q3**2],
            ]
        )
        first = mu * np.array([[q4, q2, 0], [q1, q3, 0], [0, 0, 0]])
        expected = first + rough
        mask = np.ones((3, 3), dtype=bool)
        mask[0, 0] = False
        np.testing.assert_allclose(P.p[mask], expected[mask], atol=1e-10)

    def test_synthesis_equals_pnd_from_segmentation(self):
        jsd = gaussian_jsd(0.3, 0.8, n_s=64, n_i=48, chirp=1.0)
        filt_s = FilterProfile.gauss(jsd.axis_s, 0.1, 0.7)
        filt_i = FilterProfile.gauss(jsd.axis_i, -0.1, 0.3)
        gain = PumpGain(0.02)
        P = synthesize_pnd(jsd, filt_s, filt_i, gain)
        Q = pnd_from_segmentation(segment(jsd, filt_s, filt_i), gain)
        assert P.p.shape == (3, 3)
        assert P.p.tobytes() == Q.p.tobytes()

    def test_integral_float_sizes_stay_accepted(self):
        jsd = gaussian_jsd(0.3, 0.9, n_s=16.0, n_i=12.0)
        assert jsd.values.shape == (16, 12)

    def test_gain_validation(self):
        with pytest.raises(InvalidInputError):
            PumpGain(0.0)
        with pytest.raises(InvalidInputError):
            PumpGain(0.2)


@given(
    data=st.data(),
    n=st.integers(8, 14),
)
@settings(max_examples=20, deadline=None)
def test_property_random_complex_grids_keep_oracles_equal(data, n):
    seed = data.draw(st.integers(0, 2**32 - 1))
    jsd = random_jsd(np.random.default_rng(seed), n, n + 2)
    k_svd = schmidt_number_svd(jsd)
    k_ana = schmidt_number_analytic(jsd)
    assert abs(k_ana - k_svd) / k_svd < 1e-6
    assert 1.0 - 1e-9 <= k_svd <= min(n, n + 2) + 1e-9


# case -> (the start of the message, the call)
BAD_ARGUMENTS = {
    "gaussian-n_s-fraction": (
        "n_s must be a whole number", lambda: gaussian_jsd(0.3, 0.9, n_s=16.5, n_i=16)),
    "gaussian-n_i-fraction": (
        "n_i must be a whole number", lambda: gaussian_jsd(0.3, 0.9, n_s=16, n_i=16.5)),
    "grid-string-values": (
        "JSD values must be numeric",
        lambda: JsdGrid(np.full((4, 4), "1.0"), np.arange(4.0), np.arange(4.0))),
    "gain-string": ("xi_sq=", lambda: PumpGain("0.01")),
    "gaussian-sigma_plus-nan": (
        "sigma_plus must be finite and > 0", lambda: gaussian_jsd(math.nan, 0.9, n_s=16, n_i=16)),
    "gaussian-sigma_minus-zero": (
        "sigma_minus must be finite and > 0", lambda: gaussian_jsd(0.3, 0.0, n_s=16, n_i=16)),
    "gaussian-sigma_minus-inf": (
        "sigma_minus must be finite and > 0", lambda: gaussian_jsd(0.3, math.inf, n_s=16, n_i=16)),
    "gaussian-theta-nan": (
        "theta must be finite", lambda: gaussian_jsd(0.3, 0.9, theta=math.nan, n_s=16, n_i=16)),
    "gaussian-span-zero": (
        "span must be finite and > 0", lambda: gaussian_jsd(0.3, 0.9, n_s=16, n_i=16, span=0.0)),
    "gaussian-span-negative": (
        "span must be finite and > 0", lambda: gaussian_jsd(0.3, 0.9, n_s=16, n_i=16, span=-5.0)),
    "gaussian-chirp-nan": (
        "chirp must be finite", lambda: gaussian_jsd(0.3, 0.9, n_s=16, n_i=16, chirp=math.nan)),
    "gaussian-chirp-inf": (
        "chirp must be finite", lambda: gaussian_jsd(0.3, 0.9, n_s=16, n_i=16, chirp=math.inf)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_unusable_argument_raises_invalid_input(case):
    message, call = BAD_ARGUMENTS[case]
    with pytest.raises(InvalidInputError, match="^" + re.escape(message)):
        call()
