import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ppskit.detection import DetectorPair, bipartite_probs
from ppskit.errors import InvalidInputError, PpskitError
from ppskit.estimate import count_based_pg_eta
from ppskit.metrics import (
    bootstrap,
    bootstrap_stats,
    fidelity,
    rmsle,
    rmsle_many,
)
from ppskit.pnd import PndMatrix
from ppskit.simulate import random_pps_pnd, sample_counts


def normalized(a):
    return PndMatrix(a / a.sum())


class TestRmsle:
    def test_zero_on_equality(self):
        P = random_pps_pnd(1e-3, 0)
        assert rmsle(P, P) == 0.0

    def test_uniform_ratio_gives_log_ratio(self):
        p = np.full((3, 3), 1.0 / 9)
        o = p / 2
        # cells far above alpha, every ratio exactly 2
        assert rmsle(PndMatrix(p), PndMatrix(o, subnormalized=True)) == pytest.approx(
            np.log10(2), rel=1e-9
        )

    def test_guard_constant_caps_empty_cell_penalty(self):
        p = np.zeros((3, 3))
        p[0, 0] = 1.0
        o = np.zeros((3, 3))
        o[0, 0] = 1.0 - 1e-10
        o[1, 1] = 1e-10
        # the only differing cell contributes log10(1e-10 / 1e-15) = 5
        value = rmsle(PndMatrix(p), PndMatrix(o))
        assert value == pytest.approx(5.0 / 3.0, rel=1e-4)

    def test_symmetry(self):
        a = random_pps_pnd(1e-2, 1)
        b = random_pps_pnd(1e-2, 2)
        assert rmsle(a, b) == pytest.approx(rmsle(b, a), rel=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            rmsle(np.ones(3) / 3, np.ones((3, 3)) / 9)

    def test_vector_arguments_supported(self):
        assert rmsle(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0


class TestFidelity:
    def test_identical_distributions(self):
        P = random_pps_pnd(1e-3, 3)
        assert fidelity(P, P) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports(self):
        p = np.zeros((3, 3))
        p[0, 0] = 1.0
        o = np.zeros((3, 3))
        o[1, 1] = 1.0
        assert fidelity(PndMatrix(p), PndMatrix(o)) == 0.0

    def test_blind_to_disjoint_small_cells(self):
        # vacuum-dominated distributions look identical to fidelity even
        # with completely disjoint photon cells; rmsle sees the difference
        p = np.zeros((3, 3))
        p[0, 0] = 0.999
        p[1, 1] = 1e-3
        o = np.zeros((3, 3))
        o[0, 0] = 0.999
        o[0, 1] = 1e-3
        G = fidelity(PndMatrix(p), PndMatrix(o))
        assert G == pytest.approx(0.999, abs=1e-6)
        assert rmsle(PndMatrix(p), PndMatrix(o)) > 3.0

    @given(
        a=hnp.arrays(np.float64, (3, 3), elements=st.floats(1e-6, 1.0)),
        b=hnp.arrays(np.float64, (3, 3), elements=st.floats(1e-6, 1.0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        P, O = normalized(a), normalized(b)
        G = fidelity(P, O)
        assert G == pytest.approx(fidelity(O, P), rel=1e-12)
        assert 0.0 <= G <= 1.0 + 1e-12


class TestCellChecks:
    @pytest.mark.parametrize("metric", [rmsle, rmsle_many, fidelity])
    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-3])
    def test_non_finite_or_negative_cell_rejected(self, metric, which, bad):
        # At the parent a NaN or inf cell passed through and a negative one
        # warned and gave NaN.
        args = [np.full(4, 0.25), np.full(4, 0.25)]
        args[which][2] = bad
        with pytest.raises(InvalidInputError, match="finite and nonnegative"):
            metric(*args)

    def test_rmsle_many_checks_every_row(self):
        p = np.full((3, 4), 0.25)
        p[2, 0] = np.nan
        with pytest.raises(InvalidInputError):
            rmsle_many(p, np.full((3, 4), 0.25))


def study_record(n_m=10**7, seed=0):
    P = random_pps_pnd(5e-3, seed)
    det = DetectorPair(T=0.5, eta_t=0.6, eta_r=0.6)
    return P, det, sample_counts(bipartite_probs(P, det, det), n_m, seed=seed)


class TestBootstrap:
    def test_sample_totals_match_requested_size(self):
        _, _, rec = study_record()
        samples = bootstrap(rec, n_boot=10, sample_size=12345, seed=1)
        assert len(samples) == 10
        for sample in samples:
            assert sample.f.sum() == 12345
            assert sample.n_m == 12345

    def test_no_samples_requested(self):
        _, _, rec = study_record()
        assert bootstrap(rec, n_boot=0, sample_size=10, seed=1) == []

    def test_deterministic_under_seed(self):
        _, _, rec = study_record()
        a = bootstrap(rec, 3, 1000, seed=5)
        b = bootstrap(rec, 3, 1000, seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.f, y.f)

    def test_mean_frequencies_track_empirical_distribution(self):
        _, _, rec = study_record()
        size = 10**6
        samples = bootstrap(rec, n_boot=1000, sample_size=size, seed=2)
        counts = np.stack([s.f for s in samples])
        w = rec.f / rec.f.sum()
        expected = size * w
        sigma = np.sqrt(size * w * (1 - w) / len(samples))
        mask = expected > 0
        assert np.all(
            np.abs(counts.mean(axis=0) - expected)[mask] < 5 * sigma[mask] + 1e-9
        )

    def test_invalid_sample_size_rejected(self):
        _, _, rec = study_record()
        with pytest.raises(InvalidInputError):
            bootstrap(rec, 10, 0, seed=0)

    def test_sample_size_beyond_int64_rejected(self):
        _, _, rec = study_record()
        for size in (2**63, 10**19, 1e19):
            with pytest.raises(InvalidInputError, match="sample_size"):
                bootstrap(rec, 2, size, seed=0)

    def test_sample_b_does_not_depend_on_n_boot(self):
        # All samples of a record come from one stream, one row per sample.
        _, _, rec = study_record()
        few, many = bootstrap(rec, 3, 10**6, seed=8), bootstrap(rec, 7, 10**6, seed=8)
        for x, y in zip(few, many):
            np.testing.assert_array_equal(x.f, y.f)

    def test_nan_seed_rejected(self):
        _, _, rec = study_record()
        with pytest.raises(InvalidInputError, match="seed"):
            bootstrap(rec, 2, 1000, seed=np.nan)


class TestBootstrapStats:
    def test_constant_pipeline_has_zero_std(self):
        _, _, rec = study_record()
        samples = bootstrap(rec, 5, 1000, seed=3)
        rows = bootstrap_stats(samples, lambda s: {"c": 1.25}, 1000)
        assert rows == [
            {
                "characteristic": "c",
                "sample_size": 1000,
                "mean": 1.25,
                "std": 0.0,
                "q05": 1.25,
                "q50": 1.25,
                "q95": 1.25,
                "n_fail": 0,
            }
        ]

    def test_quantiles_are_ordered(self):
        _, det, rec = study_record()
        etas = (det.eta_t, det.eta_r, det.eta_t, det.eta_r)

        def pipeline(sample):
            p_g, eta_s, eta_i = count_based_pg_eta(sample, etas)
            return {"p_g": p_g, "eta_H_s": eta_s, "eta_H_i": eta_i}

        samples = bootstrap(rec, 50, 10**6, seed=4)
        for row in bootstrap_stats(samples, pipeline, 10**6):
            assert row["q05"] <= row["q50"] <= row["q95"]
            assert row["n_fail"] == 0

    def test_failures_counted_not_fatal(self):
        _, _, rec = study_record()
        samples = bootstrap(rec, 6, 1000, seed=5)
        calls = {"n": 0}

        def flaky(sample):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise PpskitError("boom")
            return {"c": float(calls["n"])}

        rows = bootstrap_stats(samples, flaky, 1000)
        assert rows[0]["n_fail"] == 3

    def test_all_failures_raise(self):
        _, _, rec = study_record()
        samples = bootstrap(rec, 3, 1000, seed=6)

        def broken(sample):
            raise PpskitError("nope")

        with pytest.raises(PpskitError):
            bootstrap_stats(samples, broken, 1000)

    def test_pg_std_scales_with_inverse_root_of_sample_size(self):
        _, det, rec = study_record(n_m=10**7, seed=9)
        etas = (det.eta_t, det.eta_r, det.eta_t, det.eta_r)

        def pipeline(sample):
            p_g, _, _ = count_based_pg_eta(sample, etas)
            return {"p_g": p_g}

        sizes = (10**5, 10**6, 10**7)
        stds = []
        for size in sizes:
            samples = bootstrap(rec, 300, size, seed=7)
            rows = bootstrap_stats(samples, pipeline, size)
            stds.append(rows[0]["std"])
        slope = np.polyfit(np.log10(sizes), np.log10(stds), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)
