import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import ppskit.estimate
from ppskit.detection import (
    CountRecord,
    DetectorPair,
    OutcomeProbs,
    SingleCountRecord,
    bipartite_probs,
    noise_correct,
    outcome_map,
)
from ppskit.errors import (
    DataModelMismatchError,
    InvalidInputError,
    UndefinedCharacteristicError,
)
from ppskit.estimate import (
    EstimateOptions,
    LikelihoodModel,
    SingleModeModel,
    characterize,
    count_based_g2,
    count_based_gh2,
    count_based_pg_eta,
    eml_estimate,
    eml_estimate_many,
    log_likelihood,
    ml_estimate,
    ml_estimate_many,
)
from ppskit.metrics import rmsle
from ppskit.pnd import PndMatrix, characteristics, gh2, tmsv_pnd
from ppskit.presets import reference_detectors, wide_narrow_study
from ppskit.rng import substream
from ppskit.simulate import (
    DEFAULT_SINGLE_GAMMAS,
    SweepSpec,
    _draw_records,
    random_pps_pnd,
    random_single_pnd,
    run_sweep,
    sample_counts,
    sample_single_counts,
)


def diag_source(mu, g2_factor=2.0):
    """Single-mode-like bipartite source: both marginals (1, mu, mu^2 g2/2)."""
    p = np.zeros((3, 3))
    p[1, 1] = mu
    p[2, 2] = mu**2 * g2_factor / 2
    p[0, 0] = 1 - p.sum()
    return PndMatrix(p)


def expected_record(P, det_s, det_i, n_m=1, nu=0):
    W = bipartite_probs(P, det_s, det_i)
    return CountRecord(n_m * W.probs, n_m, nu=nu)


IDEAL = DetectorPair(T=0.5, eta_t=1.0, eta_r=1.0)


class TestLogLikelihood:
    def test_certain_outcome_gives_zero(self):
        p = np.zeros((3, 3))
        p[0, 0] = 1.0
        P = PndMatrix(p)
        det = DetectorPair(T=0.5, eta_t=0.6, eta_r=0.6)
        model = LikelihoodModel(det_s=det, det_i=det)
        f = np.zeros((4, 4))
        f[0, 0] = 1000
        assert log_likelihood(P, [CountRecord(f, 1000)], model) == 0.0

    def test_matches_direct_sum(self):
        P = random_pps_pnd(1e-2, 1)
        det = DetectorPair(T=0.4, eta_t=0.7, eta_r=0.6, d_t=1e-4, d_r=2e-4)
        model = LikelihoodModel(det_s=det, det_i=det)
        rec = sample_counts(bipartite_probs(P, det, det), 10**6, seed=2)
        W = bipartite_probs(P, det, det).probs
        direct = float(np.sum(rec.f[rec.f > 0] * np.log(W[rec.f > 0])))
        assert log_likelihood(P, [rec], model) == pytest.approx(direct, rel=1e-12)

    def test_impossible_outcome_is_minus_infinity(self):
        p = np.zeros((3, 3))
        p[0, 0] = 1.0
        P = PndMatrix(p)
        det = DetectorPair(T=0.5, eta_t=0.6, eta_r=0.6)  # no noise
        model = LikelihoodModel(det_s=det, det_i=det)
        f = np.zeros((4, 4))
        f[3, 3] = 5
        rec = CountRecord(f, 5)
        assert log_likelihood(P, [rec], model) == -np.inf

    def test_gradient_vanishes_at_truth_for_expected_counts(self):
        truth = random_pps_pnd(2e-3, 3)
        det = DetectorPair(T=0.5, eta_t=0.5, eta_r=0.5)
        model = LikelihoodModel(det_s=det, det_i=det)
        n_m = 10**9
        records = [expected_record(truth, det, det, n_m)]
        z = np.log(truth.p.reshape(-1)[1:] / truth.p[0, 0])

        def ll_of(zz):
            cells = np.concatenate([[0.0], zz])
            p = np.exp(cells - cells.max())
            p /= p.sum()
            return log_likelihood(PndMatrix(p.reshape(3, 3)), records, model)

        h = 1e-6
        grad = np.zeros(8)
        for k in range(8):
            zp, zm = z.copy(), z.copy()
            zp[k] += h
            zm[k] -= h
            grad[k] = (ll_of(zp) - ll_of(zm)) / (2 * h)
        assert np.linalg.norm(grad) < 1e-6 * n_m

    def test_hessian_negative_definite_at_truth(self):
        truth = random_pps_pnd(5e-3, 14)
        det = DetectorPair(T=0.5, eta_t=0.6, eta_r=0.6)
        model = LikelihoodModel(det_s=det, det_i=det)
        records = [expected_record(truth, det, det, 10**9)]
        z0 = np.log(truth.p.reshape(-1)[1:] / truth.p[0, 0])

        def ll_of(zz):
            cells = np.concatenate([[0.0], zz])
            p = np.exp(cells - cells.max())
            p /= p.sum()
            return log_likelihood(PndMatrix(p.reshape(3, 3)), records, model)

        h = 1e-4
        hess = np.zeros((8, 8))
        base = ll_of(z0)
        for a in range(8):
            step_a = h * np.eye(8)[a]
            hess[a, a] = (ll_of(z0 + step_a) - 2 * base + ll_of(z0 - step_a)) / h**2
            for b in range(a + 1, 8):
                step_b = h * np.eye(8)[b]
                val = (
                    ll_of(z0 + step_a + step_b)
                    - ll_of(z0 + step_a - step_b)
                    - ll_of(z0 - step_a + step_b)
                    + ll_of(z0 - step_a - step_b)
                ) / (2 * h) ** 2
                hess[a, b] = hess[b, a] = val
        eigvals = np.linalg.eigvalsh(hess)
        assert np.all(eigvals < 0.0)

    def test_record_order_does_not_matter(self):
        truth = random_pps_pnd(1e-2, 4)
        det = DetectorPair(T=0.5, eta_t=0.6, eta_r=0.6)
        model = LikelihoodModel(det_s=det, det_i=det, settings=((1, 1), (0.5, 0.5)))
        recs = [
            sample_counts(
                bipartite_probs(truth, det.with_gamma(g), det.with_gamma(g)),
                10**6,
                seed=s,
                nu=s,
            )
            for s, g in enumerate((1.0, 0.5))
        ]
        assert log_likelihood(truth, recs, model) == log_likelihood(
            truth, recs[::-1], model
        )


class TestMlEstimate:
    def test_exact_expected_counts_recover_truth(self):
        truth = random_pps_pnd(1e-3, 5)
        det = DetectorPair(T=0.5, eta_t=0.5, eta_r=0.5)
        model = LikelihoodModel(det_s=det, det_i=det)
        records = [expected_record(truth, det, det, 10**9)]
        fit = ml_estimate(records, model, EstimateOptions(n_starts=2))
        assert fit.converged
        assert rmsle(fit.p_hat, truth) < 1e-6

    def test_sampled_counts_recover_truth_in_resolved_regime(self):
        truth = random_pps_pnd(1e-2, 6)
        det = DetectorPair(T=0.5, eta_t=0.5, eta_r=0.5)
        model = LikelihoodModel(det_s=det, det_i=det)
        rec = sample_counts(bipartite_probs(truth, det, det), 10**9, seed=6)
        fit = ml_estimate([rec], model, EstimateOptions(n_starts=3))
        assert fit.converged
        assert rmsle(fit.p_hat, truth) < 0.05

    def test_estimate_invariant_under_record_splitting(self):
        truth = random_pps_pnd(5e-3, 7)
        det = DetectorPair(T=0.5, eta_t=0.5, eta_r=0.5)
        model = LikelihoodModel(det_s=det, det_i=det)
        rec = sample_counts(bipartite_probs(truth, det, det), 10**8, seed=7)
        whole = ml_estimate([rec], model, EstimateOptions(n_starts=1))
        halves = [
            CountRecord(rec.f / 2, rec.n_m // 2, nu=0),
            CountRecord(rec.f / 2, rec.n_m // 2, nu=0),
        ]
        split = ml_estimate(halves, model, EstimateOptions(n_starts=1))
        assert rmsle(whole.p_hat, split.p_hat) < 1e-7

    def test_requires_records(self):
        det = DetectorPair(T=0.5, eta_t=0.5, eta_r=0.5)
        model = LikelihoodModel(det_s=det, det_i=det)
        with pytest.raises(InvalidInputError):
            ml_estimate([], model)

    def test_record_with_nan_cell_never_reaches_the_fit(self):
        det = DetectorPair(T=0.5, eta_t=0.5, eta_r=0.5)
        model = LikelihoodModel(det_s=det, det_i=det)
        f = np.zeros((4, 4))
        f[0, 0] = 10
        f[3, 3] = np.nan
        with pytest.raises(InvalidInputError, match="finite"):
            ml_estimate([CountRecord(f, 10)], model)

    def test_rejects_setting_out_of_range(self):
        det = DetectorPair(T=0.5, eta_t=0.5, eta_r=0.5)
        model = LikelihoodModel(det_s=det, det_i=det)
        f = np.zeros((4, 4))
        f[0, 0] = 10
        with pytest.raises(DataModelMismatchError):
            ml_estimate([CountRecord(f, 10, nu=3)], model)

    def test_record_without_counts_fits_without_warnings(self):
        # No count informs any cell: the fit stays on its all-floor start.
        det = DetectorPair(T=0.5, eta_t=0.5, eta_r=0.5)
        model = LikelihoodModel(det_s=det, det_i=det)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = ml_estimate([CountRecord(np.zeros((4, 4)), 0)], model)
        on_floor = ppskit.estimate._softmax_cells(np.full(8, np.log(ppskit.estimate._FLOOR)))
        assert np.array_equal(fit.p_hat.p.reshape(-1), on_floor)
        assert (fit.loglik, fit.iterations, fit.converged) == (0.0, 0, True)

    def test_single_mode_exact_counts_both_layouts(self):
        truth = np.array([1 - 1e-2 - 7.5e-5, 1e-2, 7.5e-5])
        gammas = tuple(0.1 * k for k in range(1, 11))
        for model in (
            SingleModeModel.two_detector(T=0.5, eta=0.5, d=0.0, gammas=gammas),
            SingleModeModel.one_detector(eta=0.5, d=0.0, gammas=gammas),
        ):
            n_m = 10**9
            records = [
                SingleCountRecord(n_m * (model.kernels[nu] @ truth), n_m, nu=nu)
                for nu in range(len(gammas))
            ]
            fit = ml_estimate(records, model, EstimateOptions(n_starts=1))
            assert rmsle(fit.p_hat, truth) < 1e-6


def test_import_loads_no_scipy():
    src = str(Path(ppskit.estimate.__file__).parents[1])
    code = "import sys, ppskit; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def kkt_excess(fit, records, model):
    """Largest per-count gain of growing one cell, max_j score_j / N - 1.

    The ML fit maximizes a concave function over the simplex, so at the
    maximum no cell gains from growing: every value is <= 0 up to roundoff.
    """
    n = sum(rec.f.sum() for rec in records)
    p = fit.p_hat.p.reshape(-1) if isinstance(model, LikelihoodModel) else fit.p_hat
    score = sum(
        model.kernels[rec.nu].T @ (rec.f.reshape(-1) / (model.kernels[rec.nu] @ p))
        for rec in records
    )
    return float(np.max(score / n - 1.0))


def single_records(model, p_g, n_m, rep):
    truth = random_single_pnd(p_g, substream(11, "pnd", rep))
    return [
        sample_single_counts(
            model.kernels[nu] @ truth, int(n_m), substream(11, "c", rep, nu), nu=nu
        )
        for nu in range(len(DEFAULT_SINGLE_GAMMAS))
    ]


def kkt_case(case):
    """Count records and model of one ML fit checked against the KKT
    conditions; the single-mode records come from ``single_records``."""
    if case == "1d-floor-cell":
        # Once reported converged with p2 = 1e-15, where growing p2 still
        # gained 1.5e-4 per count.
        model = SingleModeModel.one_detector(1.0, 0.0, DEFAULT_SINGLE_GAMMAS)
        return single_records(model, 1e-3, 1e8, 3), model
    if case == "1d-boundary":
        # p2 falls to the floor while p1 must still shrink.
        model = SingleModeModel.one_detector(0.5, 0.0, DEFAULT_SINGLE_GAMMAS)
        return single_records(model, 1e-4, 1e6, 2), model
    if case == "2d":
        model = SingleModeModel.two_detector(0.5, 1.0, 0.0, DEFAULT_SINGLE_GAMMAS)
        return single_records(model, 1e-3, 1e6, 3), model
    det = DetectorPair(T=0.5, eta_t=1.0, eta_r=1.0)
    truth = random_pps_pnd(1e-4, substream(11, "pnd", 0))
    rec = sample_counts(bipartite_probs(truth, det, det), 10**8, substream(11, "c", 0))
    return [rec], LikelihoodModel(det_s=det, det_i=det)


class TestMlReachesMaximum:
    @pytest.mark.parametrize("case", ["1d-floor-cell", "1d-boundary", "2d", "2x2d"])
    def test_kkt_conditions_hold(self, case):
        records, model = kkt_case(case)
        fit = ml_estimate(records, model)
        assert fit.converged
        assert kkt_excess(fit, records, model) <= 1e-9

    def test_ml_fits_run_without_quasi_newton(self, monkeypatch):
        def no_lbfgs(*args, **kwargs):
            raise AssertionError("ML fit called scipy.optimize.minimize")

        monkeypatch.setattr(ppskit.estimate, "minimize", no_lbfgs)
        for case in ("2d", "2x2d"):
            records, model = kkt_case(case)
            fit = ml_estimate(records, model)
            assert fit.converged
            assert len(fit.starts) == 1
            assert fit.starts[0].iterations == fit.iterations


def same_fit(a, b) -> bool:
    """Bit-identical results, -inf logliks included."""
    p_a = a.p_hat.p if isinstance(a.p_hat, PndMatrix) else a.p_hat
    p_b = b.p_hat.p if isinstance(b.p_hat, PndMatrix) else b.p_hat
    return (
        np.array_equal(p_a, p_b)
        and a.loglik == b.loglik
        and (a.iterations, a.converged, a.starts) == (b.iterations, b.converged, b.starts)
    )


def sweep_model(layout, eta, d, n_settings):
    """Bipartite (one setting or the va4 plan) or single-mode model."""
    if layout == "2x2d":
        det = DetectorPair(T=0.5, eta_t=eta, eta_r=eta, d_t=d, d_r=d)
        plan = ((1.0, 1.0), (1.0, 0.5), (0.5, 1.0), (0.5, 0.5))
        return LikelihoodModel(det_s=det, det_i=det, settings=plan[: 1 if n_settings < 4 else 4])
    gammas = DEFAULT_SINGLE_GAMMAS[-n_settings:]
    if layout == "2d":
        return SingleModeModel.two_detector(T=0.5, eta=eta, d=d, gammas=gammas)
    return SingleModeModel.one_detector(eta=eta, d=d, gammas=gammas)


def sampled_sets(model, p_g, n_m, seed, count):
    """``count`` record sets, each from its own random truth."""
    random_truth = random_pps_pnd if isinstance(model, LikelihoodModel) else random_single_pnd
    sets = []
    for rep in range(count):
        truth = random_truth(p_g, substream(seed, "pnd", rep))
        sets.append(_draw_records(model, truth, n_m, substream(seed, "counts", rep)))
    return sets


class TestMlEstimateMany:
    @given(
        layout=st.sampled_from(["2x2d", "2d", "1d"]),
        n_settings=st.sampled_from([2, 4, 10]),
        p_g=st.sampled_from([1e-4, 1e-3, 1e-2, 1e-1]),
        log_n_m=st.integers(4, 11),
        eta=st.sampled_from([0.5, 1.0]),
        d=st.sampled_from([0.0, 1e-6]),
        seed=st.integers(0, 2**31 - 1),
        order=st.integers(1, 25).flatmap(lambda n: st.permutations(range(n))),
        max_iter=st.sampled_from([0, 1, 2, 40]),
    )
    @settings(max_examples=30, deadline=None)
    def test_each_problem_matches_its_lone_fit(
        self, layout, n_settings, p_g, log_n_m, eta, d, seed, order, max_iter
    ):
        # A small budget mixes, in one batch, problems that leave at different
        # steps, some converged and some out of steps.
        model = sweep_model(layout, eta, d, n_settings)
        sets = sampled_sets(model, p_g, 10**log_n_m, seed, len(order))
        batch = [sets[i] for i in order]
        options = EstimateOptions(max_iter=max_iter)
        for records, fit in zip(batch, ml_estimate_many(batch, model, options)):
            assert same_fit(fit, ml_estimate(records, model, options))

    @given(
        layout=st.sampled_from(["2x2d", "2d"]),
        size=st.integers(1, 8),
        where=st.integers(0, 7),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_infeasible_start_fails_alone(self, layout, size, where, seed):
        # Reflected detectors that never click: their outcomes have zero
        # probability under every cell, so counts there make loglik -inf.
        if layout == "2x2d":
            det = DetectorPair(T=0.5, eta_t=0.6, eta_r=0.0)
            model = LikelihoodModel(det_s=det, det_i=det)
        else:
            model = SingleModeModel(det=DetectorPair(T=0.5, eta_t=0.6, eta_r=0.0), gammas=(1.0,))
        sets = sampled_sets(model, 1e-2, 10**6, seed, size)
        where = min(where, size - 1)
        (rec,) = sets[where]
        f = rec.f.copy()
        f.reshape(-1)[0] -= 1.0
        f.reshape(-1)[1] += 1.0  # a reflected-only click
        bad = CountRecord(f, rec.n_m) if layout == "2x2d" else SingleCountRecord(f, rec.n_m)
        sets[where] = [bad]
        fits = ml_estimate_many(sets, model)
        assert not fits[where].converged
        assert fits[where].loglik == -np.inf
        assert fits[where].iterations == 0
        assert same_fit(fits[where], ml_estimate([bad], model))
        for i, records in enumerate(sets):
            if i != where:
                assert np.isfinite(fits[i].loglik)
                assert same_fit(fits[i], ml_estimate(records, model))

    def test_set_with_other_settings_is_rejected(self):
        model = sweep_model("2x2d", 0.5, 0.0, 4)
        sets = sampled_sets(model, 1e-2, 10**6, 3, 3)
        with pytest.raises(DataModelMismatchError, match="record set 1"):
            ml_estimate_many([sets[0], sets[1][::-1], sets[2]], model)
        with pytest.raises(DataModelMismatchError, match="record set 2"):
            ml_estimate_many([sets[0], sets[1], sets[2][:3]], model)

    def test_singular_system_fails_only_its_problem(self):
        a = np.stack([2.0 * np.eye(3), np.zeros((3, 3)), np.eye(3)])
        b = np.ones((3, 3))
        x = ppskit.estimate._solve_each(a, b)
        assert np.array_equal(x[0], np.full(3, 0.5))
        assert np.all(np.isnan(x[1]))
        assert np.array_equal(x[2], np.ones(3))

    def test_requires_record_sets(self):
        with pytest.raises(InvalidInputError):
            ml_estimate_many([], sweep_model("2d", 0.5, 0.0, 10))

    @pytest.mark.parametrize("max_iter", [0, 1, 10000])
    @pytest.mark.parametrize("layout", ["2x2d", "2d", "1d"])
    def test_loglik_is_that_of_the_returned_cells(self, layout, max_iter):
        # The ascent hands back each problem's cells with the objective it
        # took there; no value is evaluated again after it.
        model = sweep_model(layout, 0.5, 1e-6, 4)
        sets = sampled_sets(model, 1e-3, 10**8, 23, 12)
        fits = ml_estimate_many(sets, model, EstimateOptions(max_iter=max_iter))
        if max_iter == 10000:
            assert all(fit.converged for fit in fits)
        for records, fit in zip(sets, fits):
            assert fit.loglik == log_likelihood(fit.p_hat, records, model)


def core_case(layout, n_settings, eml):
    """Model, truth-drawing function and outcome mask (None for ML) of one
    likelihood-core case: bipartite or single-mode, ML or EML."""
    model = sweep_model(layout, 0.5, 1e-6, n_settings)
    random_truth = random_pps_pnd if layout == "2x2d" else random_single_pnd
    return model, random_truth, model.eml_used() if eml else None


def core_stack(layout, n_settings, eml):
    """A 20-problem count stack of one likelihood-core case with its
    ``_Terms``, and random cells for each problem."""
    model, _, used = core_case(layout, n_settings, eml)
    K, F = ppskit.estimate._stack(sampled_sets(model, 1e-3, 10**3, 17, 20), model)
    p = ppskit.estimate._softmax_cells(
        np.random.default_rng(3).normal(-5.0, 2.0, (len(F), K.shape[-1] - 1))
    )
    return K, F, used, ppskit.estimate._Terms(K, F, used), p


CORE_CASES = [
    (layout, n_settings, eml)
    for eml in (False, True)
    for layout in ("2x2d", "2d", "1d")
    for n_settings in (1, 4)
]


class TestLikelihoodCore:
    """``_loglik``, ``_score`` and ``_fisher`` on their ``_Terms``."""

    @pytest.mark.parametrize("layout, n_settings, eml", CORE_CASES)
    def test_each_problem_of_a_stack_matches_it_alone(self, layout, n_settings, eml):
        K, F, used, terms, p = core_stack(layout, n_settings, eml)
        assert (F == 0).any()  # unseen outcomes are part of the check
        W = terms.probs(p)
        core = (ppskit.estimate._loglik, ppskit.estimate._score, ppskit.estimate._fisher)
        stacked = [f(terms, W) for f in core]
        for i in range(len(F)):
            alone = ppskit.estimate._Terms(K, F[i : i + 1], used)
            W_i = alone.probs(p[i : i + 1])
            assert W_i[0].tobytes() == W[i].tobytes()
            for f, batch in zip(core, stacked):
                assert f(alone, W_i)[0].tobytes() == batch[i].tobytes(), f.__name__

    @pytest.mark.parametrize("layout, n_settings, eml", CORE_CASES)
    def test_contractions_match_the_sums_they_stand_for(self, layout, n_settings, eml):
        # The sums of the docstrings, written out with einsum.  Each entry
        # sums m = records * outcomes terms of at most two products each,
        # so any summation order lies within (m + 2) eps sum|terms| of the
        # exact sum, and two orders within twice that of each other.
        _, _, _, terms, p = core_stack(layout, n_settings, eml)
        W = terms.probs(p)
        K, F = terms.K, terms.F  # EML: the used outcomes alone
        tol = 2.0 * (K.shape[0] * K.shape[1] + 2) * np.finfo(float).eps

        ratio = F / np.where(F > 0, W, 1.0)
        if eml:
            ratio -= (F.sum(axis=1) / W.sum(axis=1))[:, None, :]
        score = ppskit.estimate._score(terms, W)
        reference = np.einsum("pvo,voc->pc", ratio, K)
        size = np.einsum("pvo,voc->pc", abs(ratio), abs(K))
        assert np.all(np.abs(score - reference) <= tol * size)

        fisher = ppskit.estimate._fisher(terms, W)
        if eml:
            S = W.sum(axis=1, keepdims=True)
            R = K - (W / S)[..., None] * K.sum(axis=0)
            weight = F.sum(axis=1, keepdims=True) / (S * np.where(W > 0.0, W, np.inf))
            reference = np.einsum("pvoc,pvo,pvod->pcd", R, weight, R)
            size = np.einsum("pvoc,pvo,pvod->pcd", abs(R), weight, abs(R))
        else:
            weight = F.sum(axis=2, keepdims=True) / np.where(W > 0.0, W, np.inf)
            reference = np.einsum("voc,pvo,vod->pcd", K, weight, K)
            size = np.einsum("voc,pvo,vod->pcd", abs(K), weight, abs(K))
        assert np.all(np.abs(fisher - reference) <= tol * size)

    # Tolerances.  The score: five-point central differences of the
    # loglik with steps h = 1e-3 p_c, whose truncation error is about
    # (h / p_c)^4 = 1e-12 relative.  Their rounding error is about
    # 1.5 / h times that of one loglik, a few eps M, where M sums the
    # magnitudes of the loglik's terms, |F log W| (EML: and |N_o log S_o|).
    # EML's score is a nearly cancelling difference, so that term
    # dominates there; each direction passes within
    # 1e-6 |score| + 8 eps M / h.  The information: central differences
    # of the score with steps h = 1e-4 p_c, truncation about 1e-8
    # relative.  The same rounding argument holds with G_a, the sum of
    # the magnitudes of score a's terms, |F / W K_a| (EML: and
    # |N_o / S_o k_oa|), in place of M: entry (a, c) passes within
    # 1e-6 |info_ac| + 8 eps G_a / h_c.
    @pytest.mark.parametrize(
        "layout, n_settings, eml",
        [("2x2d", 1, False), ("2x2d", 4, False), ("2d", 10, False), ("1d", 10, False),
         ("2x2d", 4, True), ("2d", 10, True), ("1d", 10, True)],
    )
    def test_score_and_fisher_match_finite_differences(self, layout, n_settings, eml):
        model, random_truth, used = core_case(layout, n_settings, eml)
        truth = ppskit.estimate._cells(random_truth(1e-2, substream(23, "core"))).reshape(-1)
        K, F = ppskit.estimate._stack([_draw_records(model, truth, 10**6, None)], model)
        terms = ppskit.estimate._Terms(K, F, used)
        loglik = lambda q: ppskit.estimate._loglik(terms, terms.probs(q[None]))[0]
        score = lambda q: ppskit.estimate._score(terms, terms.probs(q[None]))[0]
        n_cells, eps = truth.size, np.finfo(float).eps

        # The score, away from the maximum.  ML's score leaves out the
        # gradient of its loglik's sum_v n_v log sum_o W_vo, which points
        # along (1, ..., 1); so ML compares along the tangent directions
        # e_c - e_0 of the simplex, and EML, whose score is its whole
        # gradient, along every e_c.
        p = truth * np.exp(np.random.default_rng(5).normal(0.0, 1.0, n_cells))
        p /= p.sum()
        W = terms.probs(p[None])[0]
        M = np.sum(terms.F[0] * np.abs(np.log(W)))
        if eml:
            M += np.sum(terms.totals[0] * np.abs(np.log(W.sum(axis=0))))
        g = score(p)
        for c in range(0 if eml else 1, n_cells):
            u = np.zeros(n_cells)
            u[c] = 1.0
            if not eml:
                u[0] = -1.0
            h = 1e-3 * p[c]
            near, far = (loglik(p + k * h * u) - loglik(p - k * h * u) for k in (1, 2))
            fd = (8.0 * near - far) / (12.0 * h)
            assert abs(fd - g @ u) <= 1e-6 * abs(g @ u) + 8.0 * eps * M / h, c

        # The information, at the truth, whose expected counts these are:
        # there it is the negative Jacobian of the score.
        W = terms.probs(truth[None])[0]
        info = ppskit.estimate._fisher(terms, W[None])[0]
        G = (terms.F[0] / W).reshape(-1) @ abs(terms.K2)
        if eml:
            G += (terms.totals[0] / W.sum(axis=0)) @ abs(terms.k)
        h = 1e-4 * truth
        jac = np.empty((n_cells, n_cells))
        for c in range(n_cells):
            u = np.zeros(n_cells)
            u[c] = h[c]
            jac[:, c] = (score(truth + u) - score(truth - u)) / (2.0 * h[c])
        assert np.all(np.abs(-jac - info) <= 1e-6 * np.abs(info) + 8.0 * eps * G[:, None] / h)

    @pytest.mark.parametrize("layout", ["2d", "1d"])
    def test_ml_loglik_ignores_the_last_bits_of_the_cell_sum(self, layout):
        # At N = 1e11 counts (ten settings of 1e10 trials), cells summing
        # to 1 + 4 ulp would move sum F log W by 4 ulp N, about 9e-5 nats,
        # above ML's line-search slack of 1e-12 |loglik| (3.5e-5 nats for
        # "2d"); the sum_v n_v log sum_o W_vo term takes that first-order
        # move out.
        model, random_truth, _ = core_case(layout, 10, False)
        truth = random_truth(1e-4, substream(29, "drift"))
        records = _draw_records(model, truth, 10**10, substream(29, "drift-counts"))
        ll = log_likelihood(truth, records, model)
        scaled = log_likelihood(truth * (1.0 + 4.0 * np.finfo(float).eps), records, model)
        assert abs(scaled - ll) <= 1e-12 * abs(ll)


class TestScoringSteps:
    # Free sets over 8 coordinates: different sets of one size, one set
    # repeated, every coordinate free, and nothing free.
    FREE = [
        "11111000", "01111100", "11111000", "10111011",
        "11011111", "11111111", "00000000", "00101001",
    ]

    @pytest.mark.parametrize("curved", [False, True], ids=["ml", "exp-curvature"])
    def test_masked_stack_matches_each_problem_alone(self, curved):
        rng = np.random.default_rng(41)
        free = np.array([[c == "1" for c in row] for row in self.FREE])
        m, n = free.shape[0], free.shape[1] + 1
        J = ppskit.estimate._softmax_jacobian(rng.dirichlet(np.ones(n), size=m))
        a = rng.standard_normal((m, n, n + 3))
        fisher = a @ a.transpose(0, 2, 1)
        score = rng.standard_normal((m, n - 1))
        info = J @ fisher @ J.transpose(0, 2, 1)
        if curved:  # EML's exp curvature, as the ascent adds it to the diagonal
            curvature = rng.random((m, n - 1)) < 0.5
            info += np.stack([np.diag(d) for d in np.where(curvature, np.maximum(-score, 0.0), 0.0)])
        before = info.tobytes()
        step = ppskit.estimate._scoring_steps(info, score, free)
        assert info.tobytes() == before  # the floor re-solve reads it again
        for i, mask in enumerate(free):
            alone = ppskit.estimate._scoring_steps(info[i : i + 1], score[i : i + 1], free[i : i + 1])
            assert step[i].tobytes() == alone[0].tobytes()
            assert np.all(step[i][~mask] == 0.0)
            # The masked system: a held coordinate's row and column are the identity's.
            masked = info[i].copy()
            held = np.flatnonzero(~mask)
            masked[held, :] = 0.0
            masked[:, held] = 0.0
            masked[held, held] = 1.0
            x, _ = ppskit.estimate._scaled_solve(masked[None], np.where(mask, score[i], 0.0)[None])
            assert step[i].tobytes() == np.where(mask, x[0], 0.0).tobytes()
            if not mask.any():
                continue
            # It agrees with the k x k system over the free coordinates alone.
            Jf, rhs = J[i][mask], score[i][mask]
            reduced = Jf @ fisher[i] @ Jf.T
            if curved:
                reduced = reduced + np.diag(np.where(curvature[i][mask], np.maximum(-rhs, 0.0), 0.0))
            x, _ = ppskit.estimate._scaled_solve(reduced[None], rhs[None])
            np.testing.assert_allclose(step[i][mask], x[0], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("layout", ["2x2d", "2d", "1d"])
    def test_a_failed_solve_leaves_only_its_problem_at_its_start(self, layout, monkeypatch):
        # The first solve of the ascent hands one problem a NaN step, as a
        # singular system would: it leaves at once, unconverged, at its start.
        model = sweep_model(layout, 0.5, 1e-6, 4)
        sets = sampled_sets(model, 1e-3, 10**8, 31, 6)
        where, solve, calls = 2, ppskit.estimate._scoring_steps, []

        def failing_solve(info, score, free):
            step = solve(info, score, free)
            if not calls:
                step[where] = np.nan
            calls.append(len(step))
            return step

        monkeypatch.setattr(ppskit.estimate, "_scoring_steps", failing_solve)
        fits = ml_estimate_many(sets, model)
        monkeypatch.undo()
        assert calls[0] == len(sets) and len(calls) > 1
        assert (fits[where].converged, fits[where].iterations) == (False, 0)
        assert same_fit(fits[where], ml_estimate(sets[where], model, EstimateOptions(max_iter=0)))
        for i, records in enumerate(sets):
            if i != where:
                assert fits[i].converged and fits[i].iterations > 0
                assert same_fit(fits[i], ml_estimate(records, model))


class TestStepRule:
    """A growing cell steps to its Newton ratio target, so a cell that
    starts on the floor climbs in one move, and the line search asks each
    trial to rise by a tenth of its move's linear gain."""

    @staticmethod
    def cell_fits(monkeypatch, method, seed, **grid):
        """The count stack and the ``_fit_stack`` arrays of one 20-rep sweep cell."""
        fits, fit_stack = [], ppskit.estimate._fit_stack

        def spy_stack(K, F, model, options, eml):
            fits.append((F, fit_stack(K, F, model, options, eml)))
            return fits[-1][1]

        monkeypatch.setattr(ppskit.estimate, "_fit_stack", spy_stack)
        run_sweep(SweepSpec(**grid, reps=20), method, seed=seed)
        [(F, fit)] = fits
        return F, fit

    def test_a_floor_cell_climbs_in_a_few_steps(self, monkeypatch):
        # Two reps of this cell start with their two-photon cell on the
        # floor and end 3.6e-8 and 9.9e-8 above cell 0: 12 steps each while
        # the step cap of 2 in z let the cell grow by e^2 a step.
        model = sweep_model("1d", 1.0, 1e-6, 10)
        F, fit = self.cell_fits(
            monkeypatch, "ml-1d", 928813558,
            p_g_grid=(1e-4,), n_m_grid=(1e9,), eta_grid=(1.0,), d_grid=(1e-6,),
        )
        start = ppskit.estimate._starts(ppskit.estimate._Terms(model.kernels, F))
        climbs = (start[:, 1] == np.log(ppskit.estimate._FLOOR)) & (fit.p[:, 2] > 1e-9)
        assert np.flatnonzero(climbs).tolist() == [9, 17]
        assert fit.converged.all()
        assert fit.steps[climbs].max() <= 3

    def test_a_flat_eml_cell_converges_in_every_rep(self, monkeypatch):
        # EML's flat out-of-region cells: up to 37 steps a rep in this
        # benchmark cell while steps were capped; log1p steps without the
        # sufficient-increase test left one such set zigzagging for good.
        _, fit = self.cell_fits(
            monkeypatch, "eml-2x2d", 96546367, gamma_design="va4",
            p_g_grid=(1e-3,), n_m_grid=(1e6,), eta_grid=(0.5,), d_grid=(1e-6,),
        )
        assert fit.converged.all()
        assert fit.steps.max() <= 30


class TestMomentStart:
    @pytest.mark.parametrize(
        "layout, n_settings", [("2x2d", 1), ("2x2d", 4), ("2d", 10), ("1d", 10)]
    )
    def test_exact_counts_in_region_start_at_truth(self, layout, n_settings):
        model = sweep_model(layout, 0.5, 1e-6, n_settings)
        random_truth = random_pps_pnd if layout == "2x2d" else random_single_pnd
        truth = random_truth(1e-2, substream(5, "pnd", 0))
        records = _draw_records(model, truth, 10**12, None)
        K, F = ppskit.estimate._stack([records], model)
        z = ppskit.estimate._starts(ppskit.estimate._Terms(K, F))
        start = ppskit.estimate._softmax_cells(z)[0]
        cells = truth.p.reshape(-1) if layout == "2x2d" else truth
        np.testing.assert_allclose(start, cells, rtol=1e-6, atol=0.0)
        assert ml_estimate(records, model).iterations == 0

    def test_unseen_all_click_leaves_two_photon_cells_on_the_floor(self):
        # The acquisition regime: at 1e8 trials the all-click outcome is
        # rarely seen.  Conditioned on it going unseen, the counts are a
        # multinomial over the other outcomes, renormalized.
        truth = wide_narrow_study(1e-4).source_pnd()
        det_s, det_i = reference_detectors()
        W = bipartite_probs(truth, det_s, det_i).probs.copy()
        assert 10**8 * W[3, 3] < 1.0
        W[3, 3] = 0.0
        records = [sample_counts(OutcomeProbs(W / W.sum()), 10**8, substream(0, "unseen-all-click"))]
        assert records[0].f[3, 3] == 0
        model = LikelihoodModel(det_s=det_s, det_i=det_i)
        K, F = ppskit.estimate._stack([records], model)
        z = ppskit.estimate._starts(ppskit.estimate._Terms(K, F))[0].reshape(-1)
        two_photon = np.maximum.outer(np.arange(3), np.arange(3)).reshape(-1)[1:] == 2
        assert np.all(z[two_photon] == np.log(ppskit.estimate._FLOOR))
        assert np.all(z[~two_photon] > np.log(ppskit.estimate._FLOOR))


class TestModels:
    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: LikelihoodModel(det_s=IDEAL.with_gamma(0.5), det_i=IDEAL), "settings"),
            (lambda: LikelihoodModel(det_s=IDEAL, det_i=IDEAL, settings=((np.nan, 1.0),)), "gamma"),
            (lambda: LikelihoodModel(det_s=IDEAL, det_i=IDEAL, settings=((1.0, 1.5),)), "gamma"),
            (lambda: SingleModeModel.two_detector(np.nan, 0.5, 0.0, DEFAULT_SINGLE_GAMMAS), "T"),
            (lambda: SingleModeModel.one_detector(0.5, 0.0, (1.0, -0.5)), "gamma"),
            (lambda: SingleModeModel(det=IDEAL.with_gamma(0.5), gammas=(1.0,)), "gammas"),
        ],
        ids=[
            "detector-gamma", "nan-setting", "setting-above-1", "nan-T", "negative-gamma",
            "single-detector-gamma",
        ],
    )
    def test_bad_detection_parameters_fail_at_build(self, build, match):
        with pytest.raises(InvalidInputError, match=match):
            build()

    @pytest.mark.parametrize("kind", ["bipartite", "single"])
    def test_equal_fields_compare_equal_and_replace_rebuilds_the_maps(self, kind):
        # ``kernels`` is built once, read-only: the kron of the two modes'
        # outcome maps, or the single-mode map collapsed for "1d", with
        # every setting's bits; ``replace`` rebuilds it.
        det = DetectorPair(T=0.4, eta_t=0.6, eta_r=0.7, d_t=1e-6, d_r=2e-6)
        if kind == "bipartite":
            a, b = (LikelihoodModel(det_s=det, det_i=IDEAL, settings=((1.0, 1.0), (0.5, 1.0)))
                    for _ in range(2))
            changed = dataclasses.replace(a, settings=((1.0, 0.3),))
            expected = np.kron(outcome_map(det), outcome_map(IDEAL.with_gamma(0.3)))
            built = np.kron(outcome_map(det.with_gamma(0.5)), outcome_map(IDEAL))
            assert a.hash() == b.hash() != changed.hash()
        else:
            a, b = (SingleModeModel(det=det, gammas=(1.0, 0.5)) for _ in range(2))
            changed = dataclasses.replace(a, gammas=(0.3,))
            expected = outcome_map(det.with_gamma(0.3))
            built = outcome_map(det.with_gamma(0.5))
            collapsed = dataclasses.replace(a, layout="1d")
            C = outcome_map(det.with_gamma(0.5))
            assert collapsed.kernels.shape == (2, 2, 3)
            assert collapsed.kernels[1].tobytes() == np.vstack([C[0] + C[1], C[2] + C[3]]).tobytes()
        assert a == b and hash(a) == hash(b)
        assert a.kernels.shape == (a.n_settings, *built.shape)
        assert a.kernels[1].tobytes() == built.tobytes()
        assert changed != a and changed.kernels.shape[0] == changed.n_settings == 1
        assert changed.kernels[0].tobytes() == expected.tobytes()
        assert not a.kernels.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.kernels[0, 0, 0] = 0.0

    @pytest.mark.parametrize(
        "layout, record_outcomes, model_outcomes",
        [("2x2d", 4, 16), ("2d", 16, 4), ("1d", 4, 2)],
        ids=["single-records-to-bipartite", "bipartite-records-to-2d", "2d-records-to-1d"],
    )
    @pytest.mark.parametrize("call", ["ml", "eml", "loglik"])
    def test_records_of_another_layout_are_a_typed_mismatch(
        self, layout, record_outcomes, model_outcomes, call
    ):
        model = sweep_model(layout, 0.5, 0.0, 4)
        P = diag_source(1e-2) if layout == "2x2d" else np.array([0.9, 0.09, 0.01])
        f = np.zeros(record_outcomes)
        f[0] = 10
        records = [
            CountRecord(f.reshape(4, 4), 10, nu=nu)
            if record_outcomes == 16
            else SingleCountRecord(f, 10, nu=nu)
            for nu in (0, 1)
        ]
        fit = {
            "ml": lambda: ml_estimate(records, model),
            "eml": lambda: eml_estimate(records, model),
            "loglik": lambda: log_likelihood(P, records, model),
        }[call]
        with pytest.raises(
            DataModelMismatchError,
            match=f"record has {record_outcomes} outcomes, model expects {model_outcomes}",
        ):
            fit()


class TestEstimateOptions:
    @pytest.mark.parametrize(
        "kwargs", [{"n_starts": 0}, {"n_starts": -2}, {"max_iter": -1}],
    )
    def test_rejects_empty_budgets(self, kwargs):
        with pytest.raises(InvalidInputError):
            EstimateOptions(**kwargs)

    def test_zero_newton_steps_allowed(self):
        records, model = kkt_case("2x2d")
        fit = ml_estimate(records, model, EstimateOptions(max_iter=0))
        assert fit.iterations == 0
        assert not fit.converged


class TestEmlEstimate:
    def test_single_setting_rejected(self):
        det = DetectorPair(T=0.5, eta_t=0.5, eta_r=0.5)
        model = LikelihoodModel(det_s=det, det_i=det)
        f = np.zeros((4, 4))
        f[0, 0] = 10
        with pytest.raises(InvalidInputError):
            eml_estimate([CountRecord(f, 10)], model)

    def test_exact_counts_high_gain_consistency(self):
        truth = random_pps_pnd(5e-2, 8)
        det = DetectorPair(T=0.5, eta_t=0.6, eta_r=0.6)
        settings = ((1.0, 1.0), (0.7, 1.0), (1.0, 0.7), (0.5, 0.5))
        model = LikelihoodModel(det_s=det, det_i=det, settings=settings)
        n_m = 10**9
        records = [
            expected_record(
                truth, det.with_gamma(gs), det.with_gamma(gi), n_m, nu=nu
            )
            for nu, (gs, gi) in enumerate(settings)
        ]
        fit = eml_estimate(records, model, EstimateOptions(n_starts=2))
        assert rmsle(fit.p_hat, truth) < 1e-3

    def test_single_mode_exact_counts_consistency(self):
        truth = np.array([1 - 1e-1 - 7.5e-3, 1e-1, 7.5e-3])
        gammas = tuple(0.1 * k for k in range(1, 11))
        model = SingleModeModel.one_detector(eta=0.5, d=0.0, gammas=gammas)
        n_m = 10**8
        records = [
            SingleCountRecord(n_m * (model.kernels[nu] @ truth), n_m, nu=nu)
            for nu in range(len(gammas))
        ]
        fit = eml_estimate(records, model, EstimateOptions(n_starts=2))
        assert rmsle(fit.p_hat, truth) < 1e-3


def eml_fit_inputs(records, model):
    """Kernel stack, counts (one set) and used-outcome mask of an EML fit."""
    K, F = ppskit.estimate._stack([records], model)
    return K, F, model.eml_used()


def eml_kkt_excess(fit, records, model):
    """Largest per-used-count gain of growing a cell on the floor.

    The EML objective is homogeneous of degree 0 in p, so its KKT
    multiplier is 0: at a maximum no floor cell gains from growing, and
    every value is <= 0 up to roundoff.
    """
    K, F, used = eml_fit_inputs(records, model)
    p = fit.p_hat.p.reshape(-1) if isinstance(fit.p_hat, PndMatrix) else fit.p_hat
    W = np.einsum("voc,c->vo", K, p)[:, used]
    N, S, Ku = F[0][:, used], W.sum(axis=0), K[:, used]
    score = np.einsum("vo,voc->c", N / W, Ku) - np.einsum("o,voc->c", N.sum(axis=0) / S, Ku)
    on_floor = p <= p[0] * ppskit.estimate._FLOOR * (1.0 + 1e-9)
    return float(np.max(score[on_floor] / N.sum(), initial=-np.inf))


def lbfgs_eml_loglik(records, model, options):
    """Best EML objective that scipy's L-BFGS-B reaches from the fit's own
    starts, with every cell bounded below by the same floor."""
    K, F, used = eml_fit_inputs(records, model)
    scale = max(float(F[..., used].sum()), 1.0)
    z_floor = np.log(ppskit.estimate._FLOOR)

    terms = ppskit.estimate._Terms(K, F, used)

    def negated(z):
        p = ppskit.estimate._softmax_cells(z[None])
        W = terms.probs(p)
        score = ppskit.estimate._score(terms, W)
        grad = (ppskit.estimate._softmax_jacobian(p) @ score[..., None])[0, :, 0]
        return -float(ppskit.estimate._loglik(terms, W)[0]) / scale, -grad / scale

    best = -np.inf
    for z in ppskit.estimate._eml_starts(K, F, used, options)[0]:
        res = minimize(
            negated, np.maximum(z, z_floor), jac=True, method="L-BFGS-B",
            bounds=[(z_floor, None)] * z.size,
            options={"maxiter": 10000, "ftol": 1e-14, "gtol": 1e-11, "maxls": 60},
        )
        best = max(best, -res.fun * scale)
    return best


class TestEmlEstimateMany:
    @given(
        layout=st.sampled_from(["2x2d", "2d", "1d"]),
        n_settings=st.sampled_from([4, 10]),
        p_g=st.sampled_from([1e-4, 1e-3, 1e-2, 1e-1]),
        log_n_m=st.integers(4, 11),
        eta=st.sampled_from([0.5, 1.0]),
        d=st.sampled_from([0.0, 1e-6]),
        seed=st.integers(0, 2**31 - 1),
        order=st.integers(1, 25).flatmap(lambda n: st.permutations(range(n))),
        n_starts=st.sampled_from([1, 3]),
        max_iter=st.sampled_from([0, 1, 2, 40]),
    )
    @settings(max_examples=40, deadline=None)
    def test_each_set_matches_its_lone_fit(
        self, layout, n_settings, p_g, log_n_m, eta, d, seed, order, n_starts, max_iter
    ):
        # With one start a lone set is a one-problem batch, whose arrays can
        # lie in memory otherwise than a larger batch's.  A small budget
        # mixes problems that leave converged and out of steps.
        model = sweep_model(layout, eta, d, n_settings)
        sets = sampled_sets(model, p_g, 10**log_n_m, seed, len(order))
        batch = [sets[i] for i in order]
        options = EstimateOptions(n_starts=n_starts, max_iter=max_iter)
        for records, fit in zip(batch, eml_estimate_many(batch, model, options)):
            assert same_fit(fit, eml_estimate(records, model, options))

    @pytest.mark.parametrize("layout", ["2x2d", "2d", "1d"])
    def test_converged_fits_pass_the_kkt_test(self, layout):
        model = sweep_model(layout, 0.5, 1e-6, 4 if layout == "2x2d" else 10)
        for p_g in (1e-4, 1e-2):
            sets = sampled_sets(model, p_g, 10**6, 17, 6)
            for records, fit in zip(sets, eml_estimate_many(sets, model)):
                assert fit.converged
                assert eml_kkt_excess(fit, records, model) <= 1e-9

    @pytest.mark.parametrize("layout", ["2x2d", "1d"])
    def test_lbfgs_from_the_same_starts_never_does_better(self, layout):
        model_at = lambda eta, d: sweep_model(layout, eta, d, 4 if layout == "2x2d" else 10)
        options = EstimateOptions()
        for p_g in (1e-4, 1e-2):
            for n_m in (10**6, 10**10):
                for d in (0.0, 1e-6):
                    model = model_at(0.5, d)
                    sets = sampled_sets(model, p_g, n_m, 9, 2)
                    for records, fit in zip(sets, eml_estimate_many(sets, model, options)):
                        oracle = lbfgs_eml_loglik(records, model, options)
                        assert fit.loglik >= oracle - 1e-12 * abs(oracle)

    @pytest.mark.parametrize("seed", [5, 48])
    def test_hard_cell_converges_on_every_rep(self, seed):
        # A port with ML's stopping rule cycled to max_iter on rep 12 of
        # seed 5 and rep 2 of seed 48 of this cell.
        spec = SweepSpec(
            p_g_grid=(1e-3,), n_m_grid=(1e6,), eta_grid=(0.5,), d_grid=(1e-6,),
            gamma_design="va4", reps=20,
        )
        rows = run_sweep(spec, "eml-2x2d", seed=seed)
        assert [row["converged"] for row in rows] == [True] * 20

    def test_set_with_other_settings_is_rejected(self):
        model = sweep_model("2x2d", 0.5, 0.0, 4)
        sets = sampled_sets(model, 1e-2, 10**6, 3, 2)
        with pytest.raises(DataModelMismatchError, match="record set 1"):
            eml_estimate_many([sets[0], sets[1][::-1]], model)


# (layout, p_g, n_m, eta, d): the four eml-2x2d cells of the benchmark's sweep
# workload, then Latin squares of 2d and 1d cells over the same p_g and n_m.
ONE_START_CELLS = [
    ("2x2d", 1e-4, 1e12, 1.0, 1e-6),
    ("2x2d", 1e-3, 1e6, 0.5, 1e-6),
    ("2x2d", 1e-2, 1e8, 1.0, 0.0),
    ("2x2d", 1e-1, 1e10, 0.5, 0.0),
    ("2d", 1e-4, 1e10, 0.5, 0.0),
    ("2d", 1e-3, 1e12, 1.0, 0.0),
    ("2d", 1e-2, 1e6, 0.5, 1e-6),
    ("2d", 1e-1, 1e8, 1.0, 1e-6),
    ("1d", 1e-4, 1e8, 1.0, 1e-6),
    ("1d", 1e-3, 1e10, 0.5, 1e-6),
    ("1d", 1e-2, 1e12, 1.0, 0.0),
    ("1d", 1e-1, 1e6, 0.5, 0.0),
]


class TestEmlOneStart:
    """EML ascends once from its moment start by default: on these cells
    jittered restarts gain only the fit's own roundoff over that start."""

    @pytest.mark.parametrize(
        "layout, p_g, n_m, eta, d", ONE_START_CELLS,
        ids=lambda v: f"{v:g}" if isinstance(v, float) else v,
    )
    def test_jittered_starts_gain_only_roundoff(self, layout, p_g, n_m, eta, d):
        model = sweep_model(layout, eta, d, 4 if layout == "2x2d" else 10)
        options = EstimateOptions(n_starts=5)
        for seed in range(1, 6):
            sets = sampled_sets(model, p_g, int(n_m), seed, 20)
            for fit in eml_estimate_many(sets, model, options):
                assert len(fit.starts) == 5
                slack = max(ppskit.estimate._EML_GAIN_TOL, 1e-12 * abs(fit.loglik))
                assert fit.loglik - fit.starts[0].loglik <= slack

    def test_default_is_the_moment_start_alone(self):
        model = sweep_model("2x2d", 1.0, 0.0, 4)
        sets = sampled_sets(model, 1e-2, 10**8, 3, 4)
        for records, fit in zip(sets, eml_estimate_many(sets, model)):
            assert len(fit.starts) == 1
            assert same_fit(fit, eml_estimate(records, model, EstimateOptions(n_starts=1)))

    def test_the_single_start_reaches_the_best_start_in_the_flattest_cell(self):
        # Far out of the accuracy region (p_g = 1e-4 at 1e6 trials, eta 0.5)
        # EML's objective is flattest.  In this set the moment start once
        # stopped 0.16 nats below every jittered start, after 62 steps capped
        # at 2 in z; it now climbs to their maximum in 20.  No set of this
        # cell's 1200 (d 0 and 1e-6, 20 sets for each of the seeds 1-30) has
        # a jittered start 0.1 nats above the single start; the largest
        # gain is 1.9e-4 nats.
        model = sweep_model("2x2d", 0.5, 0.0, 4)
        records = sampled_sets(model, 1e-4, 10**6, 17, 9)[8]
        five = eml_estimate(records, model, EstimateOptions(n_starts=5))
        one = eml_estimate(records, model)
        assert all(start.converged for start in five.starts) and one.converged
        assert five.loglik == max(start.loglik for start in five.starts)
        assert five.loglik - one.loglik <= ppskit.estimate._EML_GAIN_TOL


class TestCountBasedG2:
    def test_truncated_thermal_statistics(self):
        P = tmsv_pnd(1e-3, 2).renormalized()
        det = DetectorPair(T=0.5, eta_t=0.6, eta_r=0.6)
        rec = expected_record(P, det, det)
        assert count_based_g2(rec, "s") == pytest.approx(2.0, abs=5e-3)
        assert count_based_g2(rec, "i") == pytest.approx(2.0, abs=5e-3)

    def test_matches_noise_bias_closed_form(self):
        # single-mode statistics with K' = 1, balanced splitter, noise
        # probability delta * mu per detector with delta = eta
        mu, eta = 1e-6, 0.5
        d = eta * mu
        P = diag_source(mu, g2_factor=2.0)  # K' = 1: P2 = mu^2
        det = DetectorPair(T=0.5, eta_t=eta, eta_r=eta, d_t=d, d_r=d)
        rec = expected_record(P, det, det)
        assert count_based_g2(rec, "s") == pytest.approx(2.5 / 2.25, abs=1e-4)

    def test_dominant_noise_drives_estimate_to_one(self):
        P = diag_source(1e-6)
        det = DetectorPair(T=0.5, eta_t=0.5, eta_r=0.5, d_t=1e-2, d_r=1e-2)
        rec = expected_record(P, det, det)
        assert count_based_g2(rec, "s") == pytest.approx(1.0, abs=1e-3)

    def test_zero_singles_undefined(self):
        f = np.zeros((4, 4))
        f[0, 0] = 10
        with pytest.raises(UndefinedCharacteristicError):
            count_based_g2(CountRecord(f, 10), "s")

    def test_noise_biases_raw_estimate_downward(self):
        mu = 1e-4
        P = diag_source(mu, g2_factor=2.0)
        d = 0.5 * mu
        det = DetectorPair(T=0.5, eta_t=0.5, eta_r=0.5, d_t=d, d_r=d)
        raw = expected_record(P, det, det)
        corrected = noise_correct(raw, d, d, d, d)
        assert count_based_g2(raw, "s") <= count_based_g2(corrected, "s") + 1e-12


class TestCountBasedGh2:
    def test_ideal_heralding_matches_distribution_value(self):
        study = wide_narrow_study(eta=1.0, loss_T=1.0)
        P = study.source_pnd()
        det_s, det_i = study.detectors()
        rec = expected_record(P, det_s, det_i)
        assert count_based_gh2(rec, "i") == pytest.approx(gh2(P, "i"), rel=5e-3)
        assert count_based_gh2(rec, "s") == pytest.approx(gh2(P, "s"), rel=5e-3)

    def test_imperfect_heralding_overestimates(self):
        study = wide_narrow_study()  # eta = 0.5, loss 0.9
        P = study.source_pnd()
        det_s, det_i = study.detectors()
        rec = expected_record(P, det_s, det_i)
        ratio = count_based_gh2(rec, "i") / gh2(P, "i")
        # idler double clicks come almost entirely from two-pair emission,
        # so the bias approaches 2 - eta = 1.5 (loss leakage pulls it down)
        assert 1.3 < ratio < 1.6

    def test_dominant_noise_drives_estimate_to_one(self):
        P = diag_source(1e-6)
        det = DetectorPair(T=0.5, eta_t=0.5, eta_r=0.5, d_t=1e-2, d_r=1e-2)
        rec = expected_record(P, det, det)
        assert count_based_gh2(rec, "s") == pytest.approx(1.0, abs=0.05)

    def test_raw_counts_never_below_distribution_value(self):
        study = wide_narrow_study()
        P = study.source_pnd()
        det_s, det_i = study.detectors(d=1e-5)
        rec = expected_record(P, det_s, det_i)
        for mode in ("s", "i"):
            assert count_based_gh2(rec, mode) >= gh2(P, mode) - 1e-12

    def test_zero_coincidences_undefined(self):
        f = np.zeros((4, 4))
        f[0, 0] = 10
        with pytest.raises(UndefinedCharacteristicError):
            count_based_gh2(CountRecord(f, 10), "s")


class TestCountBasedPgEta:
    def test_pair_only_source_ideal_detectors_exact(self):
        p = np.zeros((3, 3))
        p[1, 1] = 1e-3
        p[0, 0] = 1 - 1e-3
        P = PndMatrix(p)
        rec = expected_record(P, IDEAL, IDEAL)
        p_g, eta_s, eta_i = count_based_pg_eta(rec, (1, 1, 1, 1))
        assert p_g == pytest.approx(1e-3, rel=1e-10)
        assert eta_s == pytest.approx(1.0, rel=1e-10)
        assert eta_i == pytest.approx(1.0, rel=1e-10)

    def test_splitter_ratio_cancels_exactly(self):
        p = np.zeros((3, 3))
        p[1, 1] = 2e-3
        p[1, 0] = 1e-3
        p[0, 1] = 5e-4
        p[0, 0] = 1 - p.sum()
        P = PndMatrix(p)
        etas = (0.6, 0.55, 0.5, 0.45)
        values = []
        for T_s, T_i in ((0.5, 0.5), (0.3, 0.8), (0.9, 0.2)):
            det_s = DetectorPair(T=T_s, eta_t=etas[0], eta_r=etas[1])
            det_i = DetectorPair(T=T_i, eta_t=etas[2], eta_r=etas[3])
            p_g, _, _ = count_based_pg_eta(expected_record(P, det_s, det_i), etas)
            values.append(p_g)
        np.testing.assert_allclose(values, values[0], rtol=1e-12)
        assert values[0] == pytest.approx(2e-3, rel=1e-10)

    def test_two_pair_cells_inflate_count_based_pg(self):
        study = wide_narrow_study()
        P = study.source_pnd()
        det_s, det_i = study.detectors()
        rec = expected_record(P, det_s, det_i)
        etas = (det_s.eta_t, det_s.eta_r, det_i.eta_t, det_i.eta_r)
        p_g, _, _ = count_based_pg_eta(rec, etas)
        assert p_g > P.p[1, 1]

    def test_zero_singles_undefined(self):
        f = np.zeros((4, 4))
        f[0, 0] = 10
        with pytest.raises(UndefinedCharacteristicError):
            count_based_pg_eta(CountRecord(f, 10), (0.5, 0.5, 0.5, 0.5))


class TestCharacterize:
    def test_delegates_to_distribution_formulas(self):
        truth = random_pps_pnd(1e-2, 12)
        det = DetectorPair(T=0.5, eta_t=0.6, eta_r=0.6)
        model = LikelihoodModel(det_s=det, det_i=det)
        fit = ml_estimate(
            [expected_record(truth, det, det, 10**9)], model, EstimateOptions(n_starts=1)
        )
        chars = characterize(fit)
        direct = characteristics(fit.p_hat)
        assert chars == direct
        assert chars.g2_s == pytest.approx(
            2 * fit.p_hat.p[2, :].sum() / fit.p_hat.p[1, :].sum() ** 2, rel=1e-12
        )

    def test_rejects_single_mode_results(self):
        gammas = (0.5, 1.0)
        model = SingleModeModel.two_detector(T=0.5, eta=0.5, d=0.0, gammas=gammas)
        truth = np.array([0.989, 1e-2, 1e-3])
        records = [
            SingleCountRecord(10**6 * (model.kernels[nu] @ truth), 10**6, nu=nu)
            for nu in range(len(gammas))
        ]
        fit = ml_estimate(records, model, EstimateOptions(n_starts=1))
        with pytest.raises(InvalidInputError):
            characterize(fit)
