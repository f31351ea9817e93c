import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import ppskit.simulate
from ppskit.detection import OutcomeProbs
from ppskit.errors import InvalidInputError
from ppskit.rng import multinomial_counts, substream
from ppskit.simulate import (
    DEFAULT_SINGLE_GAMMAS,
    SweepSpec,
    random_pps_pnd,
    random_single_pnd,
    run_sweep,
    sample_counts,
)


def generic_outcome_table(seed=0):
    rng = substream(seed, "generic-w")
    w = rng.uniform(0.5, 1.5, (4, 4))
    return OutcomeProbs(w / w.sum())


class TestSampleCounts:
    def test_zero_trials_gives_zero_counts(self):
        rec = sample_counts(generic_outcome_table(), 0, seed=1)
        assert rec.f.sum() == 0
        assert rec.n_m == 0

    def test_unit_mass_puts_all_counts_in_one_cell(self):
        w = np.zeros((4, 4))
        w[2, 1] = 1.0
        rec = sample_counts(OutcomeProbs(w), 12345, seed=1)
        assert rec.f[2, 1] == 12345
        assert rec.f.sum() == 12345

    def test_identical_seed_reproduces_counts(self):
        W = generic_outcome_table()
        a = sample_counts(W, 10**6, seed=7)
        b = sample_counts(W, 10**6, seed=7)
        np.testing.assert_array_equal(a.f, b.f)

    def test_total_is_exact_even_for_huge_budgets(self):
        rec = sample_counts(generic_outcome_table(), 10**12, seed=3)
        assert rec.f.sum() == 10**12

    @given(
        n_m=st.integers(0, 10**12),
        weights=st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16).filter(any),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_total_is_exact(self, n_m, weights, seed):
        w = np.array(weights).reshape(4, 4)
        rec = sample_counts(OutcomeProbs(w / w.sum()), n_m, seed=seed)
        assert rec.n_m == n_m
        assert np.all(rec.f >= 0) and np.all(rec.f == np.floor(rec.f))
        assert sum(int(c) for c in rec.f.flat) == n_m
        assert np.all(rec.f[w == 0.0] == 0)

    def test_cells_within_5_sigma_and_chisquare_sane(self):
        W = generic_outcome_table()
        n_m = 10**6
        expected = n_m * W.probs
        for seed in range(100):
            rec = sample_counts(W, n_m, seed=seed)
            sigma = np.sqrt(expected * (1 - W.probs))
            assert np.all(np.abs(rec.f - expected) < 5 * sigma)
            p_value = stats.chisquare(rec.f.reshape(-1), expected.reshape(-1)).pvalue
            assert 1e-4 < p_value <= 1.0

    def test_cell_marginal_matches_binomial_moments(self):
        W = generic_outcome_table()
        n_m = 10**5
        cell = (1, 2)
        w = W.probs[cell]
        draws = np.array(
            [sample_counts(W, n_m, seed=s).f[cell] for s in range(300)]
        )
        mean, var = n_m * w, n_m * w * (1 - w)
        assert abs(draws.mean() - mean) < 5 * np.sqrt(var / 300)
        assert 0.75 < draws.var(ddof=1) / var < 1.3

    def test_multinomial_chain_handles_zero_tail(self):
        counts = multinomial_counts(100, np.array([1.0, 0.0, 0.0]), substream(2))
        np.testing.assert_array_equal(counts, [100, 0, 0])


class TestRandomSources:
    def test_pps_first_order_cells_in_band(self):
        for seed in range(50):
            P = random_pps_pnd(1e-3, seed)
            for cell in ((0, 1), (1, 0), (1, 1)):
                assert 0.5e-3 <= P.p[cell] <= 1.5e-3
            for cell in ((0, 2), (2, 0), (1, 2), (2, 1), (2, 2)):
                assert 0.5e-6 <= P.p[cell] <= 1.5e-6
            assert P.p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_pps_reproducible(self):
        np.testing.assert_array_equal(
            random_pps_pnd(1e-2, 9).p, random_pps_pnd(1e-2, 9).p
        )

    def test_pps_rejects_unnormalizable_gain(self):
        with pytest.raises(InvalidInputError):
            random_pps_pnd(0.5, 0)

    def test_single_mode_band_and_normalization(self):
        lows, highs = [], []
        for seed in range(10**4):
            pv = random_single_pnd(1e-3, seed)
            assert pv.sum() == pytest.approx(1.0, abs=1e-12)
            g2 = 2 * pv[2] / pv[1] ** 2
            lows.append(g2)
            highs.append(g2)
            assert 0.5e-6 <= pv[2] <= 1.0e-6  # p_g^2 g2 / 2 with g2 in [1, 2]
        assert min(lows) >= 1.0 - 1e-9
        assert max(highs) <= 2.0 + 1e-9
        assert min(lows) < 1.1 and max(highs) > 1.9  # both ends visited


class TestRunSweep:
    def test_exact_expected_counts_reach_consistency(self):
        spec = SweepSpec(
            p_g_grid=(1e-3,), n_m_grid=(1e9,), reps=2, exact_counts=True,
            n_starts=1,
        )
        rows = run_sweep(spec, "ml-2x2d", seed=1)
        assert len(rows) == 2
        for row in rows:
            assert row["converged"]
            assert row["rmsle"] < 1e-6

    def test_single_mode_exact_counts_consistency(self):
        spec = SweepSpec(
            p_g_grid=(1e-2,), n_m_grid=(1e8,), reps=2, exact_counts=True,
            n_starts=1,
        )
        for method in ("ml-1d", "ml-2d"):
            rows = run_sweep(spec, method, seed=2)
            assert all(row["rmsle"] < 1e-5 for row in rows)

    def test_deterministic_under_seed(self):
        spec = SweepSpec(p_g_grid=(1e-2,), n_m_grid=(1e6,), reps=2, n_starts=1)
        a = run_sweep(spec, "ml-2x2d", seed=11)
        b = run_sweep(spec, "ml-2x2d", seed=11)
        assert a == b

    def test_eml_single_detector_accurate_at_high_gain(self):
        spec = SweepSpec(
            p_g_grid=(1e-1,), n_m_grid=(1e6,), reps=8, n_starts=2,
        )
        rows = run_sweep(spec, "eml-1d", seed=3)
        mean_rmsle = np.mean([row["rmsle"] for row in rows])
        assert mean_rmsle < 0.3

    def test_mean_rmsle_non_increasing_in_trial_budget(self):
        spec = SweepSpec(
            p_g_grid=(1e-2,), n_m_grid=(1e5, 1e6, 1e7, 1e8), reps=6, n_starts=2,
        )
        rows = run_sweep(spec, "ml-2x2d", seed=4)
        means = []
        for n_m in spec.n_m_grid:
            means.append(np.mean([r["rmsle"] for r in rows if r["n_m"] == n_m]))
        rho = stats.spearmanr(spec.n_m_grid, means).statistic
        assert rho < 0

    def test_attenuated_settings_do_not_improve_accuracy(self):
        # same total trial budget, either spent in one full-transmission
        # setting or split across the four half/full attenuator settings:
        # the attenuated design must not win by more than noise
        plain = run_sweep(
            SweepSpec(p_g_grid=(1e-2,), n_m_grid=(1e7,), reps=11, n_starts=2),
            "ml-2x2d",
            seed=5,
        )
        attenuated = run_sweep(
            SweepSpec(
                p_g_grid=(1e-2,), n_m_grid=(2.5e6,), reps=11, n_starts=2,
                gamma_design="va4",
            ),
            "ml-2x2d",
            seed=5,
        )
        med_plain = np.median([r["rmsle"] for r in plain])
        med_va = np.median([r["rmsle"] for r in attenuated])
        assert med_va >= 0.8 * med_plain

    def test_unknown_method_rejected(self):
        spec = SweepSpec(p_g_grid=(1e-2,), n_m_grid=(1e5,))
        with pytest.raises(InvalidInputError):
            run_sweep(spec, "map-3d")

    def test_default_attenuator_ladder(self):
        assert DEFAULT_SINGLE_GAMMAS == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

    def test_single_mode_cell_converges_at_1e8(self):
        # One rep of this cell used to end without converging under the
        # multi-start quasi-Newton fit.
        spec = SweepSpec(
            p_g_grid=(1e-2,), n_m_grid=(1e8,), eta_grid=(0.5,), d_grid=(1e-6,), reps=16
        )
        rows = run_sweep(spec, "ml-2d", seed=531394969)
        assert [row["rep"] for row in rows] == list(range(16))
        assert all(row["converged"] for row in rows)

    @pytest.mark.parametrize("method", ["ml-2x2d", "ml-1d", "eml-1d"])
    def test_ml_cell_fits_its_reps_in_one_call(self, monkeypatch, method):
        name = method.split("-")[0] + "_estimate_many"
        batches, fit_many = [], getattr(ppskit.simulate.est, name)

        def spy_many(record_sets, model, options):
            batches.append(len(record_sets))
            return fit_many(record_sets, model, options)

        monkeypatch.setattr(ppskit.simulate.est, name, spy_many)
        spec = SweepSpec(p_g_grid=(1e-2, 1e-3), n_m_grid=(1e8,), reps=3)
        rows = run_sweep(spec, method, seed=4)
        assert batches == [3, 3]
        assert [row["rep"] for row in rows] == [0, 1, 2] * 2
        assert all(row["converged"] for row in rows)

    @pytest.mark.parametrize("method", ["ml-2x2d", "ml-2d"])
    def test_coding_errors_are_not_swallowed(self, monkeypatch, method):
        def broken(*args, **kwargs):
            raise TypeError("bug in the estimator")

        # ML sweep cells fit all their reps in one ml_estimate_many call.
        monkeypatch.setattr(ppskit.simulate.est, "ml_estimate_many", broken)
        spec = SweepSpec(p_g_grid=(1e-2,), n_m_grid=(1e6,), reps=1)
        with pytest.raises(TypeError, match="bug in the estimator"):
            run_sweep(spec, method)
