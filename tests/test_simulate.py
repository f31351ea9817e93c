import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import ppskit.simulate
from ppskit.detection import (
    CountRecord,
    DetectorPair,
    OutcomeProbs,
    SingleCountRecord,
    bipartite_probs,
)
from ppskit.errors import InvalidInputError
from ppskit.estimate import (
    EstimateOptions,
    LikelihoodModel,
    SingleModeModel,
    characterize,
    eml_estimate_many,
    ml_estimate_many,
)
from ppskit.metrics import rmsle
from ppskit.pnd import g2_marginal
from ppskit.rng import multinomial_counts, stream_key, substream
from ppskit.simulate import (
    DEFAULT_SINGLE_GAMMAS,
    SweepSpec,
    random_pps_pnd,
    random_single_pnd,
    run_sweep,
    sample_counts,
    sample_single_counts,
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

    SAMPLERS = {
        "bipartite": lambda n_m: sample_counts(generic_outcome_table(), n_m, 1),
        "single": lambda n_m: sample_single_counts(np.array([0.7, 0.1, 0.15, 0.05]), n_m, 1),
    }

    @pytest.mark.parametrize("kind", sorted(SAMPLERS))
    def test_fractional_budget_rejected_not_truncated(self, kind):
        # int(10.7) would draw 10 trials and label the record n_m = 10.
        with pytest.raises(InvalidInputError, match="n_m"):
            self.SAMPLERS[kind](10.7)
        rec = self.SAMPLERS[kind](1e12)
        assert rec.n_m == 10**12 and rec.f.sum() == 10**12


class TestSeeds:
    def test_fractional_seed_rejected(self):
        with pytest.raises(InvalidInputError, match="seed"):
            substream(1.5)
        with pytest.raises(InvalidInputError, match="seed"):
            random_pps_pnd(1e-2, 1.2)

    def test_integral_float_seed_keeps_the_int_stream(self):
        for seed in (3, -3):
            np.testing.assert_array_equal(
                substream(float(seed), "x", 1).random(8), substream(seed, "x", 1).random(8)
            )
        assert substream(-3).random() != substream(3).random()


class TestStreams:
    def test_substream_is_the_philox_of_its_key(self):
        for seed in (0, 7, 3.0, -12, 2**40):
            for path in ((), ("counts", 3, 1, 9), ("bootstrap", 2, 19)):
                rng = substream(seed, *path)
                ref = np.random.Generator(np.random.Philox(key=stream_key(seed, *path)))
                assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)
                np.testing.assert_array_equal(rng.random(5), ref.random(5))
                np.testing.assert_array_equal(
                    rng.binomial(10**12, 0.3, size=3), ref.binomial(10**12, 0.3, size=3)
                )
                assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)

    # Recorded counts: any change to the chain's arithmetic or draw order moves them.
    GOLDEN = [
        (0, [0.2, 0.3, 0.5], 1, [0, 0, 0]),
        (1000, [0.3, 0.0, 0.2, 0.5], 2, [320, 0, 193, 487]),
        (500, [0.6, 0.4, 0.0, 0.0], 3, [310, 190, 0, 0]),
        (10**12, np.arange(1, 17) / 136.0, 4, [
            7352907451, 14706002555, 22058885075, 29411880364, 36764478087, 44117981090,
            51470725738, 58823721614, 66176190000, 73529498291, 80882100482, 88235135160,
            95588282459, 102940798958, 110294284789, 117647127887,
        ]),
    ]

    @pytest.mark.parametrize(
        "n, probs, seed, counts", GOLDEN, ids=["n0", "mid-zero", "zero-tail", "16-at-1e12"]
    )
    def test_multinomial_counts_keep_their_draws(self, n, probs, seed, counts):
        got = multinomial_counts(n, np.asarray(probs), substream(seed, "multinomial"))
        assert got.dtype == np.int64
        assert got.tolist() == counts

    def test_import_loads_no_numpy_random(self):
        src = str(Path(ppskit.simulate.__file__).parents[1])
        code = (
            "import sys, ppskit; "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("p_g_grid", (1e-2, 0.5), "p_g must lie in (0, 0.1], got 0.5"),
            ("p_g_grid", (0.0,), "p_g must lie in (0, 0.1], got 0.0"),
            ("eta_grid", (0.5, 1.5), "eta_t must lie in [0, 1], got 1.5"),
            ("eta_grid", (np.nan,), "eta_t must lie in [0, 1], got nan"),
            ("d_grid", (0.0, 1.0), "d_t must lie in [0, 1), got 1.0"),
            ("d_grid", (-1e-6,), "d_t must lie in [0, 1), got -1e-06"),
            ("bs_T", 1.2, "T must lie in [0, 1], got 1.2"),
        ],
    )
    def test_grid_entry_a_cell_would_reject_fails_at_construction(self, field, value, message):
        with pytest.raises(InvalidInputError) as exc:
            SweepSpec(**{"p_g_grid": (1e-2,), "n_m_grid": (1e6,), field: value})
        assert str(exc.value) == message

    def test_unknown_method_rejected(self):
        spec = SweepSpec(p_g_grid=(1e-2,), n_m_grid=(1e5,))
        with pytest.raises(InvalidInputError):
            run_sweep(spec, "map-3d")

    def test_fractional_seed_rejected(self):
        spec = SweepSpec(p_g_grid=(1e-2,), n_m_grid=(1e5,), reps=1, n_starts=1)
        with pytest.raises(InvalidInputError, match="seed"):
            run_sweep(spec, "ml-2x2d", seed=3.4)

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
        # A cell hands its count stack to the batched core, not to *_many.
        batches, fit_stack = [], ppskit.simulate.est._fit_stack

        def spy_stack(K, F, model, options, eml):
            assert eml == method.startswith("eml")
            batches.append(F.shape[0])
            return fit_stack(K, F, model, options, eml)

        monkeypatch.setattr(ppskit.simulate.est, "_fit_stack", spy_stack)
        spec = SweepSpec(p_g_grid=(1e-2, 1e-3), n_m_grid=(1e8,), reps=3)
        rows = run_sweep(spec, method, seed=4)
        assert batches == [3, 3]
        assert [row["rep"] for row in rows] == [0, 1, 2] * 2
        assert all(row["converged"] for row in rows)

    @staticmethod
    def rebuilt_rows(method, design, p_g, n_m, eta, d, exact, seed, reps):
        """Expected rows of one cell, from records that the public functions
        build on the cell's substreams (expected counts if ``exact``)."""
        kind, layout = method.split("-")
        if layout == "2x2d":
            det = DetectorPair(T=0.5, eta_t=eta, eta_r=eta, d_t=d, d_r=d)
            plan = ((1.0, 1.0), (1.0, 0.5), (0.5, 1.0), (0.5, 0.5))[: 4 if design == "va4" else 1]
            model = LikelihoodModel(det_s=det, det_i=det, settings=plan)
        elif layout == "2d":
            model = SingleModeModel.two_detector(T=0.5, eta=eta, d=d, gammas=DEFAULT_SINGLE_GAMMAS)
        else:
            model = SingleModeModel.one_detector(eta=eta, d=d, gammas=DEFAULT_SINGLE_GAMMAS)
        truths, record_sets = [], []
        for rep in range(reps):
            counts = [substream(seed, "counts", 0, rep, nu) for nu in range(model.n_settings)]
            if layout == "2x2d":
                truth = random_pps_pnd(p_g, substream(seed, "pnd", 0, rep))
                records = []
                for nu, ((gamma_s, gamma_i), rng) in enumerate(zip(plan, counts)):
                    W = bipartite_probs(truth, det.with_gamma(gamma_s), det.with_gamma(gamma_i))
                    records.append(
                        CountRecord(int(n_m) * W.probs, int(n_m), nu=nu) if exact
                        else sample_counts(W, int(n_m), rng, nu=nu)
                    )
            else:
                truth = random_single_pnd(p_g, substream(seed, "pnd", 0, rep))
                records = []
                for nu, rng in enumerate(counts):
                    probs = model.kernel(nu) @ truth
                    records.append(
                        SingleCountRecord(int(n_m) * probs, int(n_m), nu=nu) if exact
                        else sample_single_counts(probs, int(n_m), rng, nu=nu)
                    )
            truths.append(truth)
            record_sets.append(records)
        fit_many = ml_estimate_many if kind == "ml" else eml_estimate_many
        fits = fit_many(record_sets, model, EstimateOptions())
        rows = []
        for truth, fit in zip(truths, fits):
            assert fit.converged
            expected = {"rmsle": rmsle(fit.p_hat, truth), "converged": fit.converged}
            if layout == "2x2d":
                chars = characterize(fit)
                expected.update(
                    pg_hat=chars.p_g, etaHs_hat=chars.eta_H_s, etaHi_hat=chars.eta_H_i,
                    g2s_hat=chars.g2_s, g2i_hat=chars.g2_i,
                    gh2s_hat=chars.gh2_s, gh2i_hat=chars.gh2_i,
                )
            else:
                expected.update(
                    pg_hat=float(fit.p_hat[1]), g2s_hat=g2_marginal(fit.p_hat, truncated=True)
                )
            rows.append(expected)
        return rows

    @pytest.mark.parametrize(
        "method, p_g, n_m, eta, d",
        [
            ("ml-2d", 1e-2, 1e8, 0.5, 1e-6),
            ("ml-1d", 1e-3, 1e9, 1.0, 0.0),
            ("eml-2x2d", 1e-2, 1e8, 1.0, 0.0),
            ("ml-2x2d", 1e-3, 1e10, 0.5, 1e-6),
        ],
    )
    def test_rows_match_records_rebuilt_from_public_functions(self, method, p_g, n_m, eta, d):
        # A cell draws every rep's counts into one stack from its stored maps;
        # each row must still be that of the records bipartite_probs /
        # kernel @ truth give on the cell's substreams, sampled or exact,
        # under every gamma design the method takes.
        seed, reps = 41, 6
        # EML needs two settings, so its bipartite cells take va4 only.
        designs = {"ml-2x2d": ("none", "va4"), "eml-2x2d": ("va4",)}.get(method, ("none",))
        for design in designs:
            for exact in (False, True):
                spec = SweepSpec(
                    p_g_grid=(p_g,), n_m_grid=(n_m,), eta_grid=(eta,), d_grid=(d,),
                    gamma_design=design, reps=reps, exact_counts=exact,
                )
                rows = run_sweep(spec, method, seed=seed)
                assert [row["rep"] for row in rows] == list(range(reps))
                expected = self.rebuilt_rows(method, design, p_g, n_m, eta, d, exact, seed, reps)
                for row, want in zip(rows, expected):
                    assert {name: row[name] for name in want} == want, (design, exact)

    @pytest.mark.parametrize("method", ["ml-2x2d", "ml-2d"])
    def test_coding_errors_are_not_swallowed(self, monkeypatch, method):
        def broken(*args, **kwargs):
            raise TypeError("bug in the estimator")

        # A sweep cell fits all its reps in one call of the batched core.
        monkeypatch.setattr(ppskit.simulate.est, "_fit_stack", broken)
        spec = SweepSpec(p_g_grid=(1e-2,), n_m_grid=(1e6,), reps=1)
        with pytest.raises(TypeError, match="bug in the estimator"):
            run_sweep(spec, method)
