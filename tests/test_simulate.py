import dataclasses
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
from ppskit.rng import multinomial_counts, stream_key, substream, substreams
from ppskit.simulate import (
    DEFAULT_SINGLE_GAMMAS,
    SWEEP_COLUMNS,
    ExperimentConfig,
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

    @pytest.mark.parametrize("budget", [2**63, 10**19, 1e19])
    @pytest.mark.parametrize("where", ["bipartite", "single", "experiment", "sweep"])
    def test_budget_beyond_int64_rejected(self, where, budget):
        det = DetectorPair(T=0.5, eta_t=0.5, eta_r=0.5)
        build = {
            **self.SAMPLERS,
            "experiment": lambda n_m: ExperimentConfig(
                pnd=random_pps_pnd(1e-2, 0), det_s=det, det_i=det, n_m=n_m
            ),
            "sweep": lambda n_m: SweepSpec(p_g_grid=(1e-2,), n_m_grid=(1e6, n_m)),
        }[where]
        with pytest.raises(InvalidInputError, match=r"must be at most 2\*\*63 - 1"):
            build(budget)


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

    @staticmethod
    def draws(rng, i):
        return (
            rng.random(i % 5 + 1),
            rng.multinomial(10**9, [0.5, 0.25, 0.25]),
            rng.integers(0, 2**31, dtype=np.uint32),
        )

    def test_substreams_replay_a_fresh_generator_of_every_key(self):
        # Each stream is left part-way through a Philox block and a 32-bit
        # draw, so a re-key that kept the buffer would move the next one.
        for seed in (0, 7, -12, 2**40):
            for path in (("pnd", 3), ("counts", 11)):
                for i, rng in enumerate(substreams(seed, *path, count=40)):
                    ref = np.random.Generator(np.random.Philox(key=stream_key(seed, *path, i)))
                    assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)
                    for got, want in zip(self.draws(rng, i), self.draws(ref, i)):
                        np.testing.assert_array_equal(got, want)
                    assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)

    # Counts recorded from the Python binomial chain that numpy's C chain
    # replaced; both draw the same binomials in the same order, so any
    # change to the sampler's arithmetic or draw order moves them.
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

    @staticmethod
    def binomial_chain(n, probs, rng):
        """Reference sampler: the conditional-binomial chain in Python."""
        probs = probs / probs.sum()
        counts, remaining, tail = [0] * len(probs), int(n), 1.0
        for idx, p in enumerate(probs[:-1]):
            if remaining == 0:
                break
            counts[idx] = int(rng.binomial(remaining, min(p / tail, 1.0)))
            remaining -= counts[idx]
            tail -= p
        counts[-1] += remaining
        return counts

    def test_multinomial_counts_is_the_conditional_binomial_chain(self):
        # numpy's multinomial runs this chain in C: same binomials, same order.
        cases = substream(10, "chain-cases")
        for case in range(300):
            probs = cases.uniform(0.0, 1.0, cases.choice([2, 4, 16])) ** 4
            n = int(10 ** cases.uniform(0, 12))
            got = multinomial_counts(n, probs, substream(case, "chain"))
            assert got.tolist() == self.binomial_chain(n, probs, substream(case, "chain"))

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


def rep_tables(model, truth):
    """Every setting's outcome table of ``model`` under ``truth`` (settings x outcomes)."""
    if isinstance(model, LikelihoodModel):
        return np.stack([
            bipartite_probs(truth, model.det_s.with_gamma(gs), model.det_i.with_gamma(gi))
            .probs.reshape(-1)
            for gs, gi in model.settings
        ])
    return np.stack([model.kernels[nu] @ truth for nu in range(model.n_settings)])


class TestSampler:
    REPS = 400

    @pytest.mark.parametrize("layout", ["va4-2x2d", "2d"])
    def test_rep_draws_follow_their_tables(self, layout):
        # A sweep cell's draw of each rep, on the cell's streams, against
        # one truth: the chi-square over every (rep, setting) record and the
        # one of the counts summed over reps must both be typical.
        det = DetectorPair(T=0.5, eta_t=0.5, eta_r=0.5, d_t=1e-6, d_r=1e-6)
        if layout == "va4-2x2d":
            plan = ((1.0, 1.0), (1.0, 0.5), (0.5, 1.0), (0.5, 0.5))
            model = LikelihoodModel(det_s=det, det_i=det, settings=plan)
            truth = random_pps_pnd(1e-2, substream(6, "pnd"))
        else:
            model = SingleModeModel(det=det, gammas=DEFAULT_SINGLE_GAMMAS)
            truth = random_single_pnd(1e-2, substream(6, "pnd"))
        n_m, W = 10**9, rep_tables(model, truth)
        expected = n_m * W
        assert expected.min() > 20  # every cell in the chi-square's regime
        rngs = [substream(6, "counts", 0, rep) for rep in range(self.REPS)]
        cells = np.repeat(np.reshape(getattr(truth, "p", truth), (1, -1)), self.REPS, axis=0)
        F = ppskit.simulate._draw_counts(model, cells, n_m, rngs)
        assert np.all(F.sum(axis=-1) == n_m)
        dof = W.shape[0] * (W.shape[1] - 1)
        per_record = float(np.sum((F - expected) ** 2 / expected))
        pooled = float(np.sum((F.sum(axis=0) - self.REPS * expected) ** 2 / (self.REPS * expected)))
        for stat, k in ((per_record, self.REPS * dof), (pooled, dof)):
            p_value = stats.chi2.sf(stat, k)
            assert 1e-4 < p_value < 1 - 1e-4, (stat, k)

    def test_huge_budget_and_tiny_cell_draw_exactly(self):
        probs = np.array([0.3, 1e-20, 0.2, 0.5 - 1e-20, 1e-20])
        counts = multinomial_counts(10**12, np.broadcast_to(probs, (2000, 5)), substream(7))
        assert counts.dtype == np.int64 and np.all(counts >= 0)
        assert np.all(counts.sum(axis=-1) == 10**12)
        assert np.all(counts[:, [1, 4]] == 0)  # expected 1e-8 per row
        sigma = np.sqrt(10**12 * probs * (1 - probs))
        assert np.all(np.abs(counts.mean(axis=0) - 10**12 * probs) < 6 * sigma / np.sqrt(2000))
        table = np.pad(probs, (0, 11)).reshape(4, 4)
        for seed in range(20):
            rec = sample_counts(OutcomeProbs(table), 10**12, seed)
            assert rec.f.sum() == 10**12 and rec.f[0, 1] == rec.f[1, 0] == 0

    def test_rows_draw_in_order_from_one_stream(self):
        W = np.stack([generic_outcome_table(s).probs.reshape(-1) for s in range(3)])
        together = multinomial_counts(10**9, W.reshape(3, 1, 16), substream(9, "rows"))
        rng = substream(9, "rows")
        one_by_one = [multinomial_counts(10**9, w, rng) for w in W]
        assert together.shape == (3, 1, 16)
        np.testing.assert_array_equal(together[:, 0], one_by_one)

    def test_roundoff_below_zero_counts_as_zero(self):
        counts = multinomial_counts(10**6, np.array([0.6, -1e-18, 0.4]), substream(2))
        assert counts[1] == 0 and counts.sum() == 10**6

    @pytest.mark.parametrize(
        "n, probs, match",
        [
            (10, [0.5, np.nan], "finite"),
            (10, [0.5, np.inf], "finite"),
            (10, [0.7, -0.1, 0.4], "nonnegative"),
            (10, [[0.5, 0.5], [0.0, 0.0]], "positive sum"),
            (10, [1e308, 1e308], "finite"),
            (10, 0.5, "outcome axis"),
            (10, np.ones((2, 0)), "outcome axis"),
            (-1, [0.5, 0.5], "n must be"),
            (2.5, [0.5, 0.5], "n must be"),
            (2**63, [0.5, 0.5], r"at most 2\*\*63 - 1"),
        ],
        ids=["nan", "inf", "negative", "zero-row", "overflow", "scalar", "no-outcomes",
             "negative-n", "fractional-n", "n-beyond-int64"],
    )
    def test_garbage_raises_package_errors(self, n, probs, match):
        with pytest.raises(InvalidInputError, match=match):
            multinomial_counts(n, np.asarray(probs, dtype=float), substream(1))

    def test_largest_budget_draws(self):
        counts = multinomial_counts(2**63 - 1, np.array([0.25, 0.75]), substream(3))
        assert sum(int(c) for c in counts) == 2**63 - 1


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

    @pytest.mark.parametrize("method", ["ml-2x2d", "ml-2d"])
    def test_rep_counts_do_not_depend_on_reps(self, method):
        # Each rep draws from its own streams, so more reps leave the first
        # ones' rows as they were.
        grid = dict(p_g_grid=(1e-2,), n_m_grid=(1e6,), gamma_design="va4")
        few = run_sweep(SweepSpec(**grid, reps=2), method, seed=12)
        many = run_sweep(SweepSpec(**grid, reps=5), method, seed=12)
        assert few == many[:2]

    @staticmethod
    def rebuilt_rows(method, design, p_g, n_m, eta, d, exact, seed, reps):
        """Expected rows of one cell, from records that the public functions
        build on the cell's substreams (expected counts if ``exact``): each
        rep draws its settings in order from its own counts stream."""
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
            rng = substream(seed, "counts", 0, rep)
            if layout == "2x2d":
                truth = random_pps_pnd(p_g, substream(seed, "pnd", 0, rep))
                records = []
                for nu in range(model.n_settings):
                    W = OutcomeProbs((model.kernels[nu] @ truth.p.reshape(-1)).reshape(4, 4))
                    records.append(
                        CountRecord(int(n_m) * W.probs, int(n_m), nu=nu) if exact
                        else sample_counts(W, int(n_m), rng, nu=nu)
                    )
            else:
                truth = random_single_pnd(p_g, substream(seed, "pnd", 0, rep))
                records = []
                for nu in range(model.n_settings):
                    probs = model.kernels[nu] @ truth
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
        # A cell forms every rep's tables in one product from the model's
        # kernels and draws each rep once; each row must still be that of
        # the records that model.kernels[nu] @ truth gives on the cell's
        # substreams, sampled or exact, under every gamma design the method
        # takes.
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
    def test_rep_with_undefined_figures_is_a_nan_row(self, monkeypatch, method):
        # An all-vacuum fit has no heralding bound (bipartite) and no P_1
        # (single-mode): its row is NaN and unconverged, the others as before.
        spec = SweepSpec(p_g_grid=(1e-2,), n_m_grid=(1e8,), reps=4)
        before = run_sweep(spec, method, seed=5)
        fit_stack = ppskit.simulate.est._fit_stack

        def vacuum_rep(K, F, model, options, eml):
            fits = fit_stack(K, F, model, options, eml)
            p = fits.p.copy()
            p[2] = 0.0
            p[2, 0] = 1.0
            return dataclasses.replace(fits, p=p)

        monkeypatch.setattr(ppskit.simulate.est, "_fit_stack", vacuum_rep)
        rows = run_sweep(spec, method, seed=5)
        figures = [name for name in SWEEP_COLUMNS if name == "rmsle" or name.endswith("_hat")]
        assert all(np.isnan(rows[2][name]) for name in figures)
        assert rows[2]["converged"] is False and before[2]["converged"] is True
        assert [row["rep"] for row in rows] == [0, 1, 2, 3]
        assert rows[:2] + rows[3:] == before[:2] + before[3:]

    @pytest.mark.parametrize("method", ["ml-2x2d", "ml-2d"])
    def test_coding_errors_are_not_swallowed(self, monkeypatch, method):
        def broken(*args, **kwargs):
            raise TypeError("bug in the estimator")

        # A sweep cell fits all its reps in one call of the batched core.
        monkeypatch.setattr(ppskit.simulate.est, "_fit_stack", broken)
        spec = SweepSpec(p_g_grid=(1e-2,), n_m_grid=(1e6,), reps=1)
        with pytest.raises(TypeError, match="bug in the estimator"):
            run_sweep(spec, method)
