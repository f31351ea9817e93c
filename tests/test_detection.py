import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ppskit.detection import (
    CountRecord,
    DetectorPair,
    OutcomeProbs,
    SingleCountRecord,
    bipartite_probs,
    check_counts,
    conversion_matrix,
    counts_with_clicks,
    noise_correct,
    noise_matrix,
    outcome_map,
    read_counts_csv,
    single_mode_probs,
    singles,
    write_counts_csv,
)
from ppskit.errors import DataModelMismatchError, InvalidInputError
from ppskit.estimate import LikelihoodModel
from ppskit.pnd import PndMatrix, tmsv_pnd
from ppskit.presets import wide_narrow_study
from ppskit.rng import substream
from ppskit.simulate import random_pps_pnd, sample_counts


def enumerate_mode_outcomes(n, det):
    """Oracle: explicit sum over per-photon branches and noise clicks."""
    pt = det.gamma * det.T * det.eta_t
    pr = det.gamma * (1 - det.T) * det.eta_r
    branch_probs = (1.0 - pt - pr, pr, pt)  # none, reflected click, transmitted click
    photon_part = np.zeros(4)
    for combo in itertools.product(range(3), repeat=n):
        prob = 1.0
        t_click = r_click = False
        for choice in combo:
            prob *= branch_probs[choice]
            t_click = t_click or choice == 2
            r_click = r_click or choice == 1
        photon_part[2 * t_click + r_click] += prob
    final = np.zeros(4)
    for idx in range(4):
        t0, r0 = bool(idx & 2), bool(idx & 1)
        for t_noise in (False, True):
            for r_noise in (False, True):
                p_noise = (det.d_t if t_noise else 1 - det.d_t) * (
                    det.d_r if r_noise else 1 - det.d_r
                )
                out = 2 * (t0 or t_noise) + (r0 or r_noise)
                final[out] += photon_part[idx] * p_noise
    return final


def enumerate_bipartite(P, det_s, det_i):
    n_max = P.p.shape[0] - 1
    outs_s = [enumerate_mode_outcomes(n, det_s) for n in range(n_max + 1)]
    outs_i = [enumerate_mode_outcomes(n, det_i) for n in range(n_max + 1)]
    W = np.zeros((4, 4))
    for j in range(n_max + 1):
        for k in range(n_max + 1):
            W += P.p[j, k] * np.outer(outs_s[j], outs_i[k])
    return W


class TestConversionMatrix:
    def test_vacuum_column(self):
        M = conversion_matrix(0.3, 0.7, 0.6)
        np.testing.assert_allclose(M[:, 0], [1, 0, 0, 0])

    def test_n_max_bound_is_inclusive(self):
        M = conversion_matrix(0.5, 0.5, 0.5, 10**4)
        assert M.shape == (4, 10**4 + 1)
        np.testing.assert_allclose(M.sum(axis=0), 1.0, rtol=0.0, atol=1e-15)
        with pytest.raises(InvalidInputError, match="at most 10000"):
            conversion_matrix(0.5, 0.5, 0.5, 10**4 + 1)

    def test_single_photon_column_balanced_splitter(self):
        M = conversion_matrix(0.5, 1.0, 1.0)
        np.testing.assert_allclose(M[:, 1], [0, 0.5, 0.5, 0])

    def test_two_photon_column_balanced_splitter(self):
        M = conversion_matrix(0.5, 1.0, 1.0)
        np.testing.assert_allclose(M[:, 2], [0, 0.25, 0.25, 0.5])

    def test_matches_displayed_two_photon_entries(self):
        T, et, er = 0.43, 0.81, 0.66
        R = 1 - T
        M = conversion_matrix(T, et, er)
        miss = T * (1 - et) + R * (1 - er)
        np.testing.assert_allclose(M[0, 1], miss)
        np.testing.assert_allclose(M[1, 1], R * er)
        np.testing.assert_allclose(M[2, 1], T * et)
        np.testing.assert_allclose(M[0, 2], miss**2)
        np.testing.assert_allclose(
            M[1, 2], R**2 * (1 - (1 - er) ** 2) + 2 * T * R * (1 - et) * er
        )
        np.testing.assert_allclose(
            M[2, 2], T**2 * (1 - (1 - et) ** 2) + 2 * T * R * et * (1 - er)
        )
        np.testing.assert_allclose(M[3, 2], 2 * T * R * et * er)

    @given(
        T=st.floats(0, 1), et=st.floats(0, 1), er=st.floats(0, 1),
        n_max=st.integers(1, 5),
    )
    @settings(max_examples=50, deadline=None)
    def test_columns_sum_to_one(self, T, et, er, n_max):
        M = conversion_matrix(T, et, er, n_max)
        np.testing.assert_allclose(M.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(M >= -1e-15)

    def test_both_clicked_row_is_nonnegative_on_a_random_grid(self):
        # Cells that are 0 or nearly must not round below 0: an
        # exact_counts table n_m K p reaches check_counts unclipped.
        rng = np.random.default_rng(2803)
        for T, eta_t, eta_r in rng.uniform(0.0, 1.0, (20000, 3)):
            M = conversion_matrix(T, eta_t, eta_r, n_max=3)
            assert M.min() >= 0.0, (T, eta_t, eta_r)
            assert np.abs(M.sum(axis=0) - 1.0).max() <= 1e-15, (T, eta_t, eta_r)

    @pytest.mark.parametrize("eta", [1e-6, 1e-8])
    @pytest.mark.parametrize("T", [0.5, 0.13])
    def test_small_click_probabilities_keep_their_relative_accuracy(self, T, eta):
        # At these efficiencies 1 - x^n - y^n + z^n cancels all but a few
        # digits (at 1e-8 its old form read 2.2 times the both-click cell).
        M = conversion_matrix(T, eta, 2 * eta, n_max=4)
        pt, pr = T * eta, (1 - T) * 2 * eta
        assert M[3, 2] == pytest.approx(2 * pt * pr, rel=1e-12, abs=0)
        assert M[1, 2] == pytest.approx(pr * (2 - 2 * pt - pr), rel=1e-12, abs=0)
        assert M[2, 2] == pytest.approx(pt * (2 - 2 * pr - pt), rel=1e-12, abs=0)
        assert M[1, 1] == pytest.approx(pr, rel=1e-12) and M[3, 1] == 0.0
        assert M[2, 1] == pytest.approx(pt, rel=1e-12)
        # Every cell against the exact rational forms of the same inputs.
        exact_pt = Fraction(T) * Fraction(eta)
        exact_pr = (1 - Fraction(T)) * Fraction(2 * eta)
        x, y, z = 1 - exact_pt, 1 - exact_pr, 1 - exact_pt - exact_pr
        for n in range(5):
            exact = (z**n, x**n - z**n, y**n - z**n, 1 - x**n - y**n + z**n)
            for row, value in enumerate(exact):
                assert M[row, n] == pytest.approx(float(value), rel=1e-12, abs=0), (row, n)
        assert np.abs(M.sum(axis=0) - 1.0).max() <= 1e-15
        assert M.min() >= 0.0

    def test_splitter_and_detector_extremes(self):
        # Every photon at one unit-efficiency detector, or all lost.
        for T, eta_t, eta_r in ((1.0, 1.0, 1.0), (0.0, 1.0, 1.0), (0.3, 1.0, 1.0),
                                (0.5, 0.0, 0.0), (0.1, 1.0, 1.0)):
            M = conversion_matrix(T, eta_t, eta_r, n_max=4)
            assert np.all(np.isfinite(M)) and M.min() >= 0.0
            assert np.abs(M.sum(axis=0) - 1.0).max() <= 1e-15
        np.testing.assert_array_equal(conversion_matrix(1.0, 1.0, 1.0, 3)[2], [0, 1, 1, 1])
        np.testing.assert_array_equal(conversion_matrix(0.5, 0.0, 0.0, 3)[0], [1, 1, 1, 1])


class TestNoiseMatrix:
    def test_no_noise_is_identity(self):
        np.testing.assert_allclose(noise_matrix(0.0, 0.0), np.eye(4))

    def test_first_column_at_ten_percent(self):
        N = noise_matrix(0.1, 0.1)
        np.testing.assert_allclose(N[:, 0], [0.81, 0.09, 0.09, 0.01])

    def test_inverse_roundtrip(self):
        N = noise_matrix(0.2, 0.05)
        np.testing.assert_allclose(N @ np.linalg.inv(N), np.eye(4), atol=1e-12)

    @given(dt=st.floats(0, 0.99), dr=st.floats(0, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_columns_sum_to_one(self, dt, dr):
        np.testing.assert_allclose(noise_matrix(dt, dr).sum(axis=0), 1.0, atol=1e-12)


class TestSingleModeProbs:
    def test_vacuum_never_clicks_without_noise(self):
        det = DetectorPair(T=0.5, eta_t=0.9, eta_r=0.8)
        W = single_mode_probs([1, 0, 0], det)
        np.testing.assert_allclose(W.probs, [1, 0, 0, 0])

    def test_one_photon_balanced_ideal(self):
        det = DetectorPair(T=0.5, eta_t=1.0, eta_r=1.0)
        W = single_mode_probs([0, 1, 0], det)
        np.testing.assert_allclose(W.probs, [0, 0.5, 0.5, 0])

    def test_closed_attenuator_blocks_everything(self):
        det = DetectorPair(T=0.5, eta_t=1.0, eta_r=1.0, gamma=0.0)
        W = single_mode_probs([0.2, 0.5, 0.3], det)
        np.testing.assert_allclose(W.probs, [1, 0, 0, 0])

    @given(
        gamma=st.floats(0, 1), eta=st.floats(0, 1), T=st.floats(0, 1),
        p1=st.floats(0, 0.5), p2=st.floats(0, 0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_attenuator_folds_into_efficiencies(self, gamma, eta, T, p1, p2):
        pv = np.array([1 - p1 - p2, p1, p2])
        with_gamma = single_mode_probs(
            pv, DetectorPair(T=T, eta_t=eta, eta_r=eta, gamma=gamma)
        )
        folded = single_mode_probs(
            pv, DetectorPair(T=T, eta_t=gamma * eta, eta_r=gamma * eta, gamma=1.0)
        )
        np.testing.assert_allclose(with_gamma.probs, folded.probs, atol=1e-12)


class TestBipartiteProbs:
    def test_vacuum_source_no_noise(self):
        p = np.zeros((3, 3))
        p[0, 0] = 1.0
        det = DetectorPair(T=0.5, eta_t=0.6, eta_r=0.6)
        W = bipartite_probs(PndMatrix(p), det, det)
        assert W.probs[0, 0] == 1.0
        assert W.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_source_symmetric_detectors(self):
        det = DetectorPair(T=0.5, eta_t=0.7, eta_r=0.7, d_t=1e-4, d_r=1e-4)
        W = bipartite_probs(tmsv_pnd(0.05).renormalized(), det, det)
        np.testing.assert_allclose(W.probs, W.probs.T, atol=1e-15)

    def test_study_configuration_all_click_magnitude(self):
        study = wide_narrow_study()
        P = study.source_pnd()
        det_s, det_i = study.detectors()
        W = bipartite_probs(P, det_s, det_i)
        assert 1e-9 < W.probs[3, 3] < 1e-8
        oracle = enumerate_bipartite(P, det_s, det_i)
        np.testing.assert_allclose(W.probs, oracle, atol=1e-12)

    @given(
        cells=hnp.arrays(np.float64, (3, 3), elements=st.floats(1e-4, 1.0)),
        T_s=st.floats(0.1, 0.9),
        T_i=st.floats(0.1, 0.9),
        eta=st.floats(0.1, 1.0),
        d=st.floats(0, 0.05),
        gamma=st.floats(0.3, 1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_enumeration_oracle(self, cells, T_s, T_i, eta, d, gamma):
        P = PndMatrix(cells / cells.sum())
        det_s = DetectorPair(T=T_s, eta_t=eta, eta_r=0.9 * eta, d_t=d, d_r=d / 2, gamma=gamma)
        det_i = DetectorPair(T=T_i, eta_t=0.8 * eta, eta_r=eta, d_t=d / 3, d_r=d)
        W = bipartite_probs(P, det_s, det_i)
        oracle = enumerate_bipartite(P, det_s, det_i)
        np.testing.assert_allclose(W.probs, oracle, atol=1e-12)
        assert W.probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_prebuilt_maps_give_the_same_table_and_checks(self):
        # bipartite_probs is A P B^T under the two sides' outcome maps; a
        # model's stored kernel kron(A, B), which the fits and the simulator
        # read, gives the same table up to roundoff.
        P = tmsv_pnd(0.05).renormalized()
        det_s = DetectorPair(T=0.4, eta_t=0.7, eta_r=0.6, d_t=1e-4)
        det_i = DetectorPair(T=0.6, eta_t=0.5, eta_r=0.8, d_r=2e-4)
        A, B = outcome_map(det_s.with_gamma(0.5), 2), outcome_map(det_i, 2)
        W = bipartite_probs(P, det_s.with_gamma(0.5), det_i).probs
        assert W.tobytes() == (A @ P.p @ B.T).tobytes()
        model = LikelihoodModel(det_s, det_i, settings=((1.0, 1.0), (0.5, 1.0)))
        np.testing.assert_allclose(
            model.kernels[1] @ P.p.reshape(-1), W.reshape(-1), rtol=1e-15, atol=0
        )
        halved = PndMatrix(P.p / 2, subnormalized=True)
        with pytest.raises(InvalidInputError, match="normalized PND"):
            bipartite_probs(halved, det_s, det_i)


class TestNoiseCorrect:
    def _record(self, W, n_m=10**6):
        return CountRecord(n_m * W.probs, n_m, noise_corrected=True)

    def test_zero_noise_is_identity(self):
        det = DetectorPair(T=0.5, eta_t=0.6, eta_r=0.6)
        rec = self._record(bipartite_probs(tmsv_pnd(0.03).renormalized(), det, det))
        out = noise_correct(rec, 0, 0, 0, 0)
        np.testing.assert_allclose(out.f, rec.f)

    def test_forward_then_correct_recovers_noiseless_expectation(self):
        d = (1e-3, 2e-3, 5e-4, 1.5e-3)
        noisy = DetectorPair(T=0.5, eta_t=0.6, eta_r=0.55, d_t=d[0], d_r=d[1])
        noisy_i = DetectorPair(T=0.45, eta_t=0.5, eta_r=0.52, d_t=d[2], d_r=d[3])
        clean = DetectorPair(T=0.5, eta_t=0.6, eta_r=0.55)
        clean_i = DetectorPair(T=0.45, eta_t=0.5, eta_r=0.52)
        P = tmsv_pnd(0.02).renormalized()
        rec = self._record(bipartite_probs(P, noisy, noisy_i))
        corrected = noise_correct(rec, *d)
        expected = 10**6 * bipartite_probs(P, clean, clean_i).probs
        np.testing.assert_allclose(corrected.f, expected, rtol=1e-9, atol=1e-9)

    def test_sampled_counts_corrected_singles_within_3_sigma(self):
        d = 1e-4
        P = tmsv_pnd(0.01).renormalized()
        noisy = DetectorPair(T=0.5, eta_t=0.6, eta_r=0.6, d_t=d, d_r=d)
        clean = DetectorPair(T=0.5, eta_t=0.6, eta_r=0.6)
        n_m = 10**7
        rec = sample_counts(bipartite_probs(P, noisy, noisy), n_m, seed=5)
        corrected = noise_correct(rec, d, d, d, d)
        expected = n_m * bipartite_probs(P, clean, clean).probs
        for det_idx in (1, 2, 3, 4):
            got = counts_with_clicks(corrected.f, [det_idx])
            want = counts_with_clicks(expected, [det_idx])
            assert abs(got - want) < 3 * np.sqrt(want + 1)

    def test_rejects_saturated_noise(self):
        rec = CountRecord(np.zeros((4, 4)), 0)
        with pytest.raises(InvalidInputError):
            noise_correct(rec, 1.0, 0, 0, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_outcome_probs_reject_non_finite(bad):
    probs = np.full(4, 0.25)
    probs[1] = bad
    with pytest.raises(InvalidInputError):
        OutcomeProbs(probs)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_single_count_record_rejects_non_finite(bad):
    with pytest.raises(InvalidInputError):
        SingleCountRecord(np.array([5.0, bad]), 5)
    with pytest.raises(InvalidInputError):
        SingleCountRecord(np.array([5.0, 0.0]), bad)


class TestCountRecord:
    @pytest.mark.parametrize("noise_corrected", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad, noise_corrected):
        f = np.zeros((4, 4))
        f[0, 0] = 5.0
        with pytest.raises(InvalidInputError):
            CountRecord(np.where(np.eye(4, dtype=bool), bad, f), 5, noise_corrected=noise_corrected)
        with pytest.raises(InvalidInputError):
            CountRecord(f, bad, noise_corrected=noise_corrected)

    def test_total_mismatch_rejected(self):
        f = np.zeros((4, 4))
        f[0, 0] = 5
        with pytest.raises(DataModelMismatchError):
            CountRecord(f, 6)

    def test_stack_check_applies_the_record_rules_to_every_record(self):
        # A sweep cell checks its reps x settings x outcomes stack in one call.
        F = np.zeros((3, 2, 4))
        F[..., 0] = 4.0
        check_counts(F, 4)
        for index, value, error, message in [
            ((1, 1, 2), 2.0, DataModelMismatchError, "counts sum to 6.0 but n_m=4"),
            ((2, 0, 1), np.nan, InvalidInputError, "counts must be finite"),
            ((0, 1, 3), -1.0, InvalidInputError, "raw counts must be nonnegative"),
        ]:
            bad = F.copy()
            bad[index] = value
            with pytest.raises(error, match=message):
                check_counts(bad, 4)
        with pytest.raises(InvalidInputError, match="n_m"):
            check_counts(F, 4.5)

    def test_click_marginals(self):
        f = np.zeros((4, 4))
        f[3, 3] = 2  # every detector clicked
        f[2, 0] = 3  # only D1
        f[0, 1] = 4  # only D4
        rec = CountRecord(f, 9)
        np.testing.assert_allclose(singles(rec), [5, 2, 2, 6])
        assert counts_with_clicks(rec.f, [1, 3]) == 2
        assert counts_with_clicks(rec.f, [1]) == 5

    def test_click_marginals_match_the_status_order(self):
        # Outcome a of a mode reads (transmitted, reflected) with O a click:
        # XX, XO, OX, OO, so its transmitted detector clicked for a >= 2
        # and its reflected one for odd a.
        f = substream(3).integers(0, 1000, (4, 4)).astype(float)

        def clicked(det, a, b):
            outcome = a if det <= 2 else b
            return outcome >= 2 if det in (1, 3) else outcome % 2 == 1

        for size in range(5):
            for dets in itertools.combinations((1, 2, 3, 4), size):
                want = sum(f[a, b] for a in range(4) for b in range(4)
                           if all(clicked(det, a, b) for det in dets))
                assert counts_with_clicks(f, list(dets)) == want, dets

    @pytest.mark.parametrize("det", [0, 5, 1.5])
    def test_unknown_detector_rejected(self, det):
        with pytest.raises(InvalidInputError, match="detector index"):
            counts_with_clicks(np.ones((4, 4)), [1, det])

    def test_csv_roundtrip_and_row_summing(self, tmp_path):
        rng = substream(1)
        f1 = rng.integers(0, 50, (4, 4)).astype(float)
        f2 = rng.integers(0, 50, (4, 4)).astype(float)
        records = [
            CountRecord(f1, int(f1.sum()), nu=0),
            CountRecord(f2, int(f2.sum()), nu=0),
        ]
        path = tmp_path / "counts.csv"
        write_counts_csv(path, records)
        loaded, info = read_counts_csv(path)
        assert len(loaded) == 1
        np.testing.assert_allclose(loaded[0].f, f1 + f2)
        assert loaded[0].n_m == int(f1.sum() + f2.sum())
        assert info["rows_per_setting"] == {0: 2}

    def test_csv_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidInputError):
            read_counts_csv(path)


@given(
    p_g=st.floats(1e-4, 0.1),
    seed=st.integers(0, 2**32 - 1),
    T=st.floats(0.1, 0.9),
    etas=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
    ds=st.lists(st.floats(0.0, 0.5), min_size=4, max_size=4),
    n_m=st.integers(1, 10**12),
)
@settings(max_examples=60, deadline=None)
def test_property_noise_correct_undoes_the_noise_map(p_g, seed, T, etas, ds, n_m):
    P = random_pps_pnd(p_g, seed)

    def expected_counts(d):
        det_s = DetectorPair(T=T, eta_t=etas[0], eta_r=etas[1], d_t=d[0], d_r=d[1])
        det_i = DetectorPair(T=T, eta_t=etas[2], eta_r=etas[3], d_t=d[2], d_r=d[3])
        return n_m * bipartite_probs(P, det_s, det_i).probs

    noisy = CountRecord(expected_counts(ds), n_m)
    corrected = noise_correct(noisy, *ds)
    assert corrected.noise_corrected
    np.testing.assert_allclose(corrected.f, expected_counts((0.0,) * 4), rtol=0, atol=1e-12 * n_m)
