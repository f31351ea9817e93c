"""End-to-end acceptance suite.

Each test covers one headline guarantee of the toolkit at a pinned
tolerance and prints a PASS/FAIL line (run with ``pytest -s`` to see the
lines for passing tests too).  The suite is deterministic: every
stochastic step draws from fixed named substreams of seed 0.
"""

import math
import time

import numpy as np
import pytest

from ppskit.detection import (
    CountRecord,
    DetectorPair,
    bipartite_probs,
    noise_correct,
)
from ppskit.estimate import (
    EstimateOptions,
    LikelihoodModel,
    characterize,
    count_based_g2,
    count_based_gh2,
    ml_estimate,
    ml_estimate_many,
)
from ppskit.jsd import (
    FilterProfile,
    PumpGain,
    gaussian_jsd,
    schmidt_number_analytic,
    schmidt_number_svd,
    synthesize_pnd,
)
from ppskit.metrics import bootstrap, bootstrap_stats, fidelity, rmsle
from ppskit.pnd import (
    PndMatrix,
    apply_loss_bipartite,
    g2_marginal,
    gh2,
    heralding_bounds,
    marginal,
)
from ppskit.presets import reference_detectors, wide_narrow_study
from ppskit.rng import substream
from ppskit.simulate import SweepSpec, random_pps_pnd, run_sweep, sample_counts

from conftest import rect_fraction_filter, separable_rect_jsd

SEED = 0


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_mode_number_oracle_equivalence():
    """Contracted mode number matches the SVD on 50 random correlated grids."""
    rng = substream(SEED, "acceptance-mode-number")
    start = time.time()
    worst = 0.0
    for trial in range(50):
        sigma = rng.uniform(0.15, 0.5)
        ratio = rng.uniform(1.2, 8.0)
        theta = rng.uniform(math.radians(25), math.radians(65))
        chirp = rng.uniform(0.5, 3.0) if trial % 2 else 0.0
        jsd = gaussian_jsd(sigma, sigma * ratio, theta=theta, n_s=256, n_i=256, chirp=chirp)
        k_svd = schmidt_number_svd(jsd)
        worst = max(worst, abs(schmidt_number_analytic(jsd) - k_svd) / k_svd)
    elapsed = time.time() - start
    report(
        "mode-number oracle equivalence",
        worst < 1e-6 and elapsed < 60.0,
        f"worst rel dev {worst:.2e}, {elapsed:.1f}s for 50 grids",
    )


def test_separable_filtering_equals_loss_model():
    """Ideal filters on a separable source act exactly like binomial loss."""
    jsd = separable_rect_jsd()
    filt_s, T_s = rect_fraction_filter(jsd.axis_s, 0.75)
    filt_i, T_i = rect_fraction_filter(jsd.axis_i, 0.4)
    gain = PumpGain(5e-3)
    filtered = synthesize_pnd(jsd, filt_s, filt_i, gain)
    unfiltered = synthesize_pnd(
        jsd,
        FilterProfile.all_pass(jsd.axis_s),
        FilterProfile.all_pass(jsd.axis_i),
        gain,
    )
    lossy = apply_loss_bipartite(unfiltered, T_s, T_i)
    dev = float(np.max(np.abs(filtered.p - lossy.p)))
    report("separable filtering = loss model", dev < 1e-10, f"max cell dev {dev:.2e}")


def test_unfiltered_g2_mode_number_relation():
    """Truncated marginal g2 of an unfiltered source equals 1 + 1/K."""
    worst = 0.0
    for K_target in range(1, 11):
        r = K_target + math.sqrt(max(K_target**2 - 1, 0))
        jsd = gaussian_jsd(0.1, 0.1 * r, n_s=320, n_i=320, span=6.0)
        P = synthesize_pnd(
            jsd,
            FilterProfile.all_pass(jsd.axis_s),
            FilterProfile.all_pass(jsd.axis_i),
            PumpGain(1e-3),
        )
        k_grid = schmidt_number_analytic(jsd)
        g2 = g2_marginal(marginal(P, "s"), truncated=True)
        worst = max(worst, abs(g2 - (1.0 + 1.0 / k_grid)))
    report("g2 = 1 + 1/K", worst < 1e-9, f"worst dev {worst:.2e} over K 1..10")


def test_count_based_g2_noise_bias():
    """Coincidence-ratio g2 lands on its noise-bias closed form and decays to 1."""
    mu, eta = 1e-3, 0.5
    p = np.zeros((3, 3))
    p[1, 1] = mu
    p[2, 2] = mu**2  # single effective mode: two-pair cell mu^2 (1 + 1/1) / 2
    p[0, 0] = 1 - p.sum()
    P = PndMatrix(p)

    det = DetectorPair(T=0.5, eta_t=eta, eta_r=eta, d_t=eta * mu, d_r=eta * mu)
    W = bipartite_probs(P, det, det)
    n_m = 10**8
    values = np.array(
        [
            count_based_g2(sample_counts(W, n_m, substream(SEED, "g2-bias", s)), "s")
            for s in range(20)
        ]
    )
    closed_form = 2.5 / 2.25
    dev = abs(values.mean() - closed_form)
    bound = 3 * values.std(ddof=1) / math.sqrt(len(values))
    ok_value = dev < bound

    sweep = []
    for ratio in (0.0, 0.25, 1.0, 4.0, 16.0, 64.0):
        det_r = DetectorPair(
            T=0.5, eta_t=eta, eta_r=eta, d_t=ratio * eta * mu, d_r=ratio * eta * mu
        )
        W_r = bipartite_probs(P, det_r, det_r)
        sweep.append(count_based_g2(CountRecord(n_m * W_r.probs, n_m), "s"))
    monotone = all(a > b for a, b in zip(sweep, sweep[1:]))
    toward_one = sweep[0] > 1.97 and abs(sweep[-1] - 1.0) < 0.01
    report(
        "count-based g2 noise bias",
        ok_value and monotone and toward_one,
        f"|mean-{closed_form:.4f}|={dev:.4f} vs 3SE={bound:.4f}; "
        f"sweep {sweep[0]:.3f}->{sweep[-1]:.4f} monotone={monotone}",
    )


@pytest.mark.parametrize("d", [1e-4, 1e-6, 1e-8])
def test_heralded_g2_bias_and_ml_recovery(d):
    """Count-ratio heralded g2 overshoots by ~2-eta; reconstruction does not."""
    study = wide_narrow_study()
    P = study.source_pnd()
    det_s, det_i = study.detectors(d)
    W = bipartite_probs(P, det_s, det_i)
    n_m = int(4e11)

    expected = CountRecord(n_m * W.probs, n_m)
    corrected = noise_correct(expected, d, d, d, d)
    ratio = count_based_gh2(corrected, "i") / gh2(P, "i")
    ok_ratio = 1.35 <= ratio <= 1.65

    model = LikelihoodModel(det_s=det_s, det_i=det_i)
    options = EstimateOptions(n_starts=3)
    values = {"s": [], "i": []}
    for rep in range(20):
        rec = sample_counts(W, n_m, substream(SEED, "gh2-ml", d, rep))
        chars = characterize(ml_estimate([rec], model, options))
        values["s"].append(chars.gh2_s)
        values["i"].append(chars.gh2_i)
    devs = {}
    ok_ml = True
    for mode in ("s", "i"):
        vals = np.array(values[mode])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        devs[mode] = (vals.mean() - gh2(P, mode)) / se
        ok_ml = ok_ml and abs(devs[mode]) < 2.0
    report(
        f"heralded-g2 bias (d={d:g})",
        ok_ratio and ok_ml,
        f"count/true ratio {ratio:.3f}; ML dev s {devs['s']:+.2f} SE, i {devs['i']:+.2f} SE",
    )


# An accuracy-sweep cell lies in the accuracy region when its smallest
# expected outcome count reaches this bound, the one below which the CLI
# warns that the smallest cells are unreliable.
MIN_EXPECTED_COUNT = 10


def _sweep_detector(spec):
    """The detector pair run_sweep builds for the one cell of ``spec``."""
    eta, d = spec.eta_grid[0], spec.d_grid[0]
    return DetectorPair(T=spec.bs_T, eta_t=eta, eta_r=eta, d_t=d, d_r=d)


def _expected_all_click(spec):
    """Expected all-click count n_m * W_all-click of the nominal source.

    The nominal source is random_pps_pnd with every ratio r = 1: one-photon
    cells p_g, two-photon cells p_g^2.  The all-click outcome is the
    smallest one; with no dark counts only the (2, 2) cell reaches it, so
    the count is n_m p_g^2 (2 T (1 - T) eta^2)^2.
    """
    p_g, n_m = spec.p_g_grid[0], spec.n_m_grid[0]
    photons = np.maximum.outer(np.arange(3), np.arange(3))
    p = np.where(photons == 1, p_g, np.where(photons == 2, p_g**2, 0.0))
    p[0, 0] = 1.0 - p.sum()
    det = _sweep_detector(spec)
    return n_m * float(bipartite_probs(PndMatrix(p), det, det).probs[3, 3])


def _sweep_fits(spec, seed):
    """(truth, fit) per rep of the one ml-2x2d cell of ``spec``, rebuilt
    from the substreams run_sweep draws them from."""
    p_g, n_m = spec.p_g_grid[0], int(spec.n_m_grid[0])
    det = _sweep_detector(spec)
    model = LikelihoodModel(det_s=det, det_i=det)
    options = EstimateOptions(n_starts=spec.n_starts, max_iter=spec.max_iter)
    fits = []
    for rep in range(spec.reps):
        truth = random_pps_pnd(p_g, substream(seed, "pnd", 0, rep))
        W = bipartite_probs(truth, det, det)
        rec = sample_counts(W, n_m, substream(seed, "counts", 0, rep))
        fits.append((truth, ml_estimate([rec], model, options)))
    return fits


@pytest.mark.parametrize("p_g", [1e-4, 1e-3, 1e-2])
def test_ml_accuracy_region(p_g):
    """Full-information reconstruction reaches mean RMSLE < 0.3 at 1e9
    trials inside the accuracy region.

    A case is in the region when the expected all-click count of the
    nominal source reaches MIN_EXPECTED_COUNT: 15.6 at p_g = 1e-3 and 1.56e3
    at 1e-2.  At p_g = 1e-4 it is 0.156, and each two-photon cell expects
    about one event in the outcomes where both detectors of an arm click,
    so ML rightly puts the unseen ones on the simplex boundary, where the
    1e-15 metric guard makes each a ~7-decade error.  That case is out of
    the region: the test checks the vacuum and one-photon cells the budget
    does populate, on the same fits (test_ml_accuracy_region_scales_with_budget
    covers the budget at which the case enters the region).
    """
    spec = SweepSpec(
        p_g_grid=(p_g,), n_m_grid=(1e9,), eta_grid=(0.5,), reps=20, n_starts=3
    )
    rows = run_sweep(spec, "ml-2x2d", seed=SEED)
    rmsles = np.array([row["rmsle"] for row in rows])
    assert all(row["converged"] for row in rows), "a sweep fit did not converge"
    assert np.all(np.isfinite(rmsles)), f"non-finite RMSLE in {rmsles}"
    mean_rmsle = float(rmsles.mean())
    all_click = _expected_all_click(spec)
    detail = f"expected all-click {all_click:.3g}, "
    if all_click >= MIN_EXPECTED_COUNT:
        ok = mean_rmsle < 0.3
        detail += f"in region; mean RMSLE {mean_rmsle:.3f} over 20 reps"
    else:
        fits = _sweep_fits(spec, SEED)
        rebuilt = np.array([rmsle(fit.p_hat, truth) for truth, fit in fits])
        assert np.array_equal(rebuilt, rmsles), (
            f"rebuilt fits give RMSLE {rebuilt}, sweep rows {rmsles}"
        )
        populated = float(np.mean(
            [rmsle(fit.p_hat.p[:2, :2], truth.p[:2, :2]) for truth, fit in fits]
        ))
        ok = populated < 0.3
        detail += (
            f"out of region; vacuum and one-photon mean RMSLE {populated:.3f}, "
            f"nine-cell {mean_rmsle:.3f} over 20 reps"
        )
    report(f"ML accuracy region (p_g={p_g:g}, n_m=1e9)", ok, detail)


def test_ml_accuracy_region_scales_with_budget():
    """The p_g = 1e-4 case enters the accuracy region at n_m = 1e12, where
    the nominal source's expected all-click count is 156 (at least
    MIN_EXPECTED_COUNT), and there all nine cells reach mean RMSLE < 0.3."""
    spec = SweepSpec(
        p_g_grid=(1e-4,), n_m_grid=(1e12,), eta_grid=(0.5,), reps=10, n_starts=3
    )
    all_click = _expected_all_click(spec)
    assert math.isclose(all_click, 156.25, rel_tol=1e-9), all_click
    assert all_click >= MIN_EXPECTED_COUNT
    rows = run_sweep(spec, "ml-2x2d", seed=SEED)
    mean_rmsle = float(np.mean([row["rmsle"] for row in rows]))
    report(
        "ML accuracy at scaled budget (p_g=1e-4, n_m=1e12)",
        mean_rmsle < 0.3,
        f"expected all-click {all_click:.3g}, in region; "
        f"mean RMSLE {mean_rmsle:.3f} over 10 reps",
    )


def test_baseline_comparison_and_accuracy_region():
    """Full-information ML beats the renormalized baseline where both are
    weak, and the baseline is accurate in its own high-gain region."""
    cell = SweepSpec(
        p_g_grid=(1e-4,), n_m_grid=(1e8,), eta_grid=(1.0,), reps=20, n_starts=3
    )
    ml = float(np.mean([r["rmsle"] for r in run_sweep(cell, "ml-2d", seed=SEED)]))
    eml = float(np.mean([r["rmsle"] for r in run_sweep(cell, "eml-1d", seed=SEED)]))

    high_gain = SweepSpec(
        p_g_grid=(1e-1,), n_m_grid=(1e8,), eta_grid=(1.0,), reps=20, n_starts=3
    )
    eml_easy = float(
        np.mean([r["rmsle"] for r in run_sweep(high_gain, "eml-1d", seed=SEED)])
    )
    report(
        "baseline ordering",
        ml < eml and eml_easy < 0.3,
        f"ML-2D {ml:.2f} < EML-1D {eml:.2f} at p_g=1e-4; "
        f"EML-1D {eml_easy:.3f} at p_g=1e-1",
    )


def test_metric_unit_suite():
    """RMSLE and fidelity behave as documented on canonical cases."""
    P = np.full((3, 3), 1.0 / 9)
    ok = rmsle(PndMatrix(P), PndMatrix(P)) == 0.0
    halved = PndMatrix(P / 2, subnormalized=True)
    ok = ok and abs(rmsle(PndMatrix(P), halved) - math.log10(2)) < 1e-9

    vac = np.zeros((3, 3))
    vac[0, 0] = 0.999
    a, b = vac.copy(), vac.copy()
    a[1, 1] = 1e-3
    b[0, 1] = 1e-3
    G = fidelity(PndMatrix(a), PndMatrix(b))
    ok = ok and abs(G - 0.999) < 1e-6
    report(
        "metric unit suite",
        ok,
        f"uniform-ratio rmsle {rmsle(PndMatrix(P), halved):.5f}, "
        f"vacuum-dominated fidelity {G:.4f}",
    )


def test_bootstrap_uncertainty_scaling():
    """Bootstrap stds follow sample_size^-1/2 and p_g reaches sub-percent
    uncertainty once pair coincidences exceed 1e5."""
    study = wide_narrow_study(xi_sq=1e-2, width_s=0.2, width_i=2.0)
    P = study.source_pnd()
    det_s, det_i = study.detectors(d=1e-7)
    W = bipartite_probs(P, det_s, det_i)
    record = sample_counts(W, int(1e10), substream(SEED, "bootstrap-orig"))

    model = LikelihoodModel(det_s=det_s, det_i=det_i)
    options = EstimateOptions(n_starts=2)

    def refit_all(samples):  # each sample is one record, fitted as a one-record set
        return ml_estimate_many([[sample] for sample in samples], model, options)

    def pipeline(fit):
        return characterize(fit).as_dict()

    # coincidences with at least one click on each mode, per trial
    pair_rate = record.f[1:, 1:].sum() / record.n_m
    sizes = (1e8, 3.16e8, 1e9, 3.16e9, 1e10)
    table: dict = {}
    for size in sizes:
        samples = bootstrap(record, 100, int(size), seed=SEED)
        for row in bootstrap_stats(refit_all(samples), pipeline, int(size)):
            table.setdefault(row["characteristic"], []).append(row)

    ok = True
    details = []
    for name, rows in table.items():
        stds = np.array([row["std"] for row in rows])
        slope = float(np.polyfit(np.log10(sizes), np.log10(stds), 1)[0])
        ok = ok and abs(slope + 0.5) < 0.1
        details.append(f"{name} {slope:+.2f}")
    for row, size in zip(table["p_g"], sizes):
        if size * pair_rate >= 1e5:
            ok = ok and row["std"] / row["mean"] <= 0.01
    rel_small = table["p_g"][0]["std"] / table["p_g"][0]["mean"]
    report(
        "bootstrap scaling",
        ok,
        "slopes " + ", ".join(details) + f"; p_g rel-std {rel_small:.2%} "
        f"at {sizes[0] * pair_rate:.2g} pair coincidences",
    )


def test_filter_direction_study():
    """Reference-detector reconstruction reproduces the qualitative filter
    physics: asymmetric widths favor the narrow mode's heralding bound and
    narrowing symmetric filters drives g2 toward 2."""
    det_s, det_i = reference_detectors()
    model = LikelihoodModel(det_s=det_s, det_i=det_i)
    options = EstimateOptions(n_starts=3)

    # narrow signal filter, wide idler filter
    study = wide_narrow_study(width_s=0.2, width_i=2.0)
    P = study.source_pnd()
    rec = sample_counts(
        bipartite_probs(P, det_s, det_i), int(3e10), substream(SEED, "direction-a")
    )
    chars = characterize(ml_estimate([rec], model, options))
    eta_ok = chars.eta_H_i > chars.eta_H_s
    true_i, true_s = heralding_bounds(P)[1], heralding_bounds(P)[0]

    jsd = gaussian_jsd(0.05, 0.24, n_s=256, n_i=256, span=10.0)
    g2_hats = []
    for width in (2.4, 0.3, 0.1):
        filt_s = FilterProfile.rect(jsd.axis_s, 0.0, width)
        filt_i = FilterProfile.rect(jsd.axis_i, 0.0, width)
        P_w = apply_loss_bipartite(
            synthesize_pnd(jsd, filt_s, filt_i, PumpGain(1e-3)), 0.9, 0.9
        )
        rec_w = sample_counts(
            bipartite_probs(P_w, det_s, det_i),
            int(1e11),
            substream(SEED, "direction-b", width),
        )
        g2_hats.append(characterize(ml_estimate([rec_w], model, options)).g2_s)
    increasing = g2_hats[0] < g2_hats[1] < g2_hats[2]
    approaching_two = abs(g2_hats[2] - 2.0) < abs(g2_hats[0] - 2.0)
    report(
        "filter direction study",
        eta_ok and increasing and approaching_two,
        f"etaH_i {chars.eta_H_i:.3f} > etaH_s {chars.eta_H_s:.3f} "
        f"(true {true_i:.3f} / {true_s:.3f}); g2 {['%.3f' % g for g in g2_hats]}",
    )
