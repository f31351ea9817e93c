"""Interface paths not covered by the per-module suites: file ingestion
round trips, truncation above two photons, multi-setting estimation."""

import csv

import numpy as np
import pytest

from ppskit.detection import DetectorPair, bipartite_probs, write_counts_csv
from ppskit.errors import InvalidInputError
from ppskit.estimate import EstimateOptions, LikelihoodModel, ml_estimate
from ppskit.jsd import (
    gaussian_jsd,
    read_filter_csv,
    read_jsd_csv,
    schmidt_number_svd,
    write_jsd_csv,
)
from ppskit.metrics import rmsle
from ppskit.pnd import apply_loss_bipartite, loss_matrix, tmsv_pnd
from ppskit.simulate import random_pps_pnd, sample_counts

import test_detection


class TestJsdCsv:
    def test_roundtrip_preserves_grid(self, tmp_path):
        jsd = gaussian_jsd(0.3, 0.8, n_s=24, n_i=20, chirp=1.5)
        path = tmp_path / "jsd.csv"
        write_jsd_csv(path, jsd)
        loaded = read_jsd_csv(path)
        np.testing.assert_allclose(loaded.values, jsd.values, atol=1e-12)
        np.testing.assert_allclose(loaded.axis_s, jsd.axis_s)
        assert schmidt_number_svd(loaded) == pytest.approx(
            schmidt_number_svd(jsd), rel=1e-9
        )

    def test_shuffled_rows_still_load(self, tmp_path):
        jsd = gaussian_jsd(0.3, 0.8, n_s=8, n_i=8)
        path = tmp_path / "jsd.csv"
        write_jsd_csv(path, jsd)
        lines = path.read_text().splitlines()
        body = lines[1:]
        np.random.default_rng(0).shuffle(body)
        path.write_text("\n".join([lines[0]] + body) + "\n")
        loaded = read_jsd_csv(path)
        np.testing.assert_allclose(loaded.values, jsd.values, atol=1e-12)

    def test_incomplete_lattice_rejected(self, tmp_path):
        path = tmp_path / "jsd.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["omega_s", "omega_i", "re", "im"])
            writer.writerows([[0, 0, 1, 0], [0, 1, 1, 0], [1, 0, 1, 0]])
        with pytest.raises(InvalidInputError):
            read_jsd_csv(path)

    def test_duplicate_points_rejected(self, tmp_path):
        path = tmp_path / "jsd.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["omega_s", "omega_i", "re", "im"])
            writer.writerows(
                [[0, 0, 1, 0], [0, 1, 1, 0], [1, 0, 1, 0], [0, 0, 2, 0]]
            )
        with pytest.raises(InvalidInputError, match="duplicate or missing lattice points"):
            read_jsd_csv(path)

    @pytest.mark.parametrize("rows, message", [
        ([[0, 0, 1, 0], [0, 1, 1, 0], [1, 0, 1, 0]],
         "JSD CSV does not cover a complete rectangular lattice"),
        ([[0, 0, 1, 0], [0, 1, 1, 0], [1, 0, 1, 0], [0, 0, 2, 0]],
         "JSD CSV has duplicate or missing lattice points"),
        ([[w_s, w_i, 1, 0] for w_s in (0, 1, 3) for w_i in (0, 1)], "axis_s is not uniform"),
        ([[w_s, w_i, 0, 0] for w_s in (0, 1) for w_i in (0, 1)], "JSD has zero or non-finite norm"),
    ])
    def test_lattice_and_axis_errors_name_the_file(self, tmp_path, rows, message):
        path = tmp_path / "jsd.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([["omega_s", "omega_i", "re", "im"]] + rows)
        with pytest.raises(InvalidInputError) as info:
            read_jsd_csv(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("column, value, line", [("re", "nan", 3), ("im", "nan", 4),
                                                     ("re", "inf", 5)])
    def test_non_finite_value_names_path_and_line(self, tmp_path, column, value, line):
        header = ["omega_s", "omega_i", "re", "im"]
        rows = [header, [0, 0, 1, 0], [0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 1, 0]]
        rows[line - 1][header.index(column)] = value
        path = tmp_path / "jsd.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(InvalidInputError) as info:
            read_jsd_csv(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ") and f"line {line}:" in message
        assert f"not a finite number: '{value}'" in message


class TestFilterCsv:
    def _write(self, path, omegas, ts):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["omega", "t"])
            writer.writerows(zip(omegas, ts))

    def test_amplitude_kind(self, tmp_path):
        path = tmp_path / "filt.csv"
        omegas = np.linspace(-1, 1, 11)
        self._write(path, omegas, np.full(11, 0.5))
        filt = read_filter_csv(path, "amplitude")
        np.testing.assert_allclose(filt.t, 0.5)

    def test_intensity_kind_takes_sqrt(self, tmp_path):
        path = tmp_path / "filt.csv"
        omegas = np.linspace(-1, 1, 11)
        self._write(path, omegas, np.full(11, 0.25))
        filt = read_filter_csv(path, "intensity")
        np.testing.assert_allclose(filt.t, 0.5)

    def test_rows_sorted_by_omega(self, tmp_path):
        path = tmp_path / "filt.csv"
        self._write(path, [1.0, 0.0, 2.0], [0.3, 0.1, 0.5])
        filt = read_filter_csv(path)
        np.testing.assert_allclose(filt.omega, [0.0, 1.0, 2.0])
        np.testing.assert_allclose(filt.t, [0.1, 0.3, 0.5])

    def test_duplicate_omega_is_reported_as_a_duplicate(self, tmp_path):
        path = tmp_path / "filt.csv"
        self._write(path, [0.0, 1.0, 1.0, 2.0], [0.1, 0.3, 0.3, 0.5])
        with pytest.raises(InvalidInputError) as info:
            read_filter_csv(path)
        assert str(info.value) == f"{path}: filter CSV has a duplicate omega 1.0"

    @pytest.mark.parametrize("omegas, ts, kind, message", [
        ([0.0, 1.0, 3.0], [0.1, 0.3, 0.5], "amplitude", "filter axis is not uniform"),
        ([0.0], [0.5], "amplitude", "filter axis must be a 1-D grid with at least 2 points"),
        ([0.0, 1.0], [0.5, 1.5], "amplitude", "amplitude transmittance must lie in [0, 1]"),
        ([0.0, 1.0], [0.5, -0.5], "intensity", "intensity transmittance must lie in [0, 1]"),
    ])
    def test_axis_and_value_errors_name_the_file(self, tmp_path, omegas, ts, kind, message):
        path = tmp_path / "filt.csv"
        self._write(path, omegas, ts)
        with pytest.raises(InvalidInputError) as info:
            read_filter_csv(path, kind)
        assert str(info.value) == f"{path}: {message}"

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            read_filter_csv(tmp_path / "filt.csv", "power")

    @pytest.mark.parametrize("column, value, line", [("omega", "nan", 3), ("t", "inf", 4),
                                                     ("t", "nan", 2)])
    def test_non_finite_value_names_path_and_line(self, tmp_path, column, value, line):
        rows = [["omega", "t"], [0.0, 0.5], [1.0, 0.5], [2.0, 0.5]]
        rows[line - 1][rows[0].index(column)] = value
        path = tmp_path / "filt.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(InvalidInputError) as info:
            read_filter_csv(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ") and f"line {line}:" in message
        assert f"not a finite number: '{value}'" in message


class TestCliCsvSources:
    def test_jsd_command_from_csv_inputs(self, tmp_path):
        jsd = gaussian_jsd(0.2, 1.0, n_s=48, n_i=48)
        jsd_path = tmp_path / "jsd.csv"
        write_jsd_csv(jsd_path, jsd)
        filt_path = tmp_path / "filt.csv"
        with open(filt_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["omega", "t"])
            # intensity transmittance 0.49 everywhere -> amplitude 0.7
            writer.writerows((f"{w:.17g}", 0.49) for w in jsd.axis_i)
        config = tmp_path / "run.cfg"
        config.write_text(
            f"[jsd]\nsource = csv\nfile = {jsd_path}\n\n"
            "[filter_s]\nkind = allpass\n\n"
            f"[filter_i]\nkind = csv\nfile = {filt_path}\ncsv_kind = intensity\n\n"
            "[gain]\nxi_sq = 1e-3\n"
        )
        from ppskit import cli

        out = tmp_path / "out"
        assert cli.main(["jsd", "--config", str(config), "--out", str(out)]) == 0
        with open(out / "report.csv", newline="") as fh:
            report = {row["metric"]: float(row["value"]) for row in csv.DictReader(fh)}
        # flat intensity filter on the idler passes 49 percent of the pairs;
        # the rest keeps its signal photon (all-pass on s), so it lands in q1
        assert report["q3"] == pytest.approx(0.49, abs=1e-9)
        assert report["q1"] == pytest.approx(0.51, abs=1e-9)
        assert report["q2"] == 0.0
        assert report["k_svd"] == pytest.approx(2.6, rel=1e-3)


class TestHigherTruncation:
    def test_loss_matrix_and_detection_consistent_at_n_max_3(self):
        P = tmsv_pnd(0.2, n_max=3).renormalized()
        Q = apply_loss_bipartite(P, 0.7, 0.9)
        assert Q.total() == pytest.approx(1.0, abs=1e-12)
        det = DetectorPair(T=0.4, eta_t=0.8, eta_r=0.7, d_t=1e-3, d_r=2e-3)
        W = bipartite_probs(Q, det, det)
        oracle = test_detection.enumerate_bipartite(Q, det, det)
        np.testing.assert_allclose(W.probs, oracle, atol=1e-12)

    def test_loss_matrix_binomial_tail(self):
        L = loss_matrix(0.3, 4)
        assert L[2, 4] == pytest.approx(6 * 0.3**2 * 0.7**2)


class TestMultiSettingEstimation:
    def test_two_setting_fit_recovers_truth(self):
        truth = random_pps_pnd(5e-3, 21)
        det = DetectorPair(T=0.5, eta_t=0.6, eta_r=0.6, d_t=1e-6, d_r=1e-6)
        settings = ((1.0, 1.0), (0.5, 0.8))
        model = LikelihoodModel(det_s=det, det_i=det, settings=settings)
        records = [
            sample_counts(
                bipartite_probs(truth, det.with_gamma(gs), det.with_gamma(gi)),
                10**9,
                seed=100 + nu,
                nu=nu,
            )
            for nu, (gs, gi) in enumerate(settings)
        ]
        fit = ml_estimate(records, model, EstimateOptions(n_starts=2))
        assert fit.converged
        assert rmsle(fit.p_hat, truth) < 0.1

    def test_cli_estimate_with_settings_section(self, tmp_path):
        truth = random_pps_pnd(5e-3, 22)
        det = DetectorPair(T=0.5, eta_t=0.6, eta_r=0.6)
        settings = ((1.0, 1.0), (0.6, 0.6))
        records = [
            sample_counts(
                bipartite_probs(truth, det.with_gamma(gs), det.with_gamma(gi)),
                10**8,
                seed=200 + nu,
                nu=nu,
            )
            for nu, (gs, gi) in enumerate(settings)
        ]
        counts = tmp_path / "counts.csv"
        write_counts_csv(counts, records)
        config = tmp_path / "est.cfg"
        config.write_text(
            "[detectors]\nT_s = 0.5\nT_i = 0.5\n"
            "eta1 = 0.6\neta2 = 0.6\neta3 = 0.6\neta4 = 0.6\n"
            "d1 = 0\nd2 = 0\nd3 = 0\nd4 = 0\n\n"
            "[settings]\ngammas_s = 1.0, 0.6\ngammas_i = 1.0, 0.6\n"
        )
        from ppskit import cli

        out = tmp_path / "fit"
        assert cli.main(
            ["estimate", "--config", str(config), "--counts", str(counts), "--out", str(out)]
        ) == 0
        from ppskit.pnd import read_pnd_csv

        fit, _ = read_pnd_csv(out / "pnd_hat.csv")
        assert rmsle(fit, truth) < 0.3

    def test_cli_bootstrap_resamples_every_setting_with_the_estimate_method(
        self, tmp_path, monkeypatch
    ):
        truth = random_pps_pnd(5e-2, 25)
        det = DetectorPair(T=0.5, eta_t=0.6, eta_r=0.6)
        settings = ((1.0, 1.0), (0.6, 0.6))
        records = [
            sample_counts(
                bipartite_probs(truth, det.with_gamma(gs), det.with_gamma(gi)),
                10**8 + nu,
                seed=400 + nu,
                nu=nu,
            )
            for nu, (gs, gi) in enumerate(settings)
        ]
        counts = tmp_path / "counts.csv"
        write_counts_csv(counts, records)
        config = tmp_path / "est.cfg"
        config.write_text(
            "[detectors]\nT_s = 0.5\nT_i = 0.5\n"
            "eta1 = 0.6\neta2 = 0.6\neta3 = 0.6\neta4 = 0.6\n"
            "d1 = 0\nd2 = 0\nd3 = 0\nd4 = 0\n\n"
            "[settings]\ngammas_s = 1.0, 0.6\ngammas_i = 1.0, 0.6\n\n"
            "[estimate]\nmethod = eml\nn_starts = 1\n\n[bootstrap]\nn_boot = 3\n"
        )
        from ppskit import cli

        resampled, fitted = [], []
        resample, fit_stack = cli._resample, cli._fit_stack

        def spy_resample(record, n_boot, sample_size, seed=0):
            resampled.append((record.nu, sample_size))
            return resample(record, n_boot, sample_size, seed=seed)

        def spy_stack(K, F, model, options, eml):
            fitted.append((F.shape[:2], eml))
            return fit_stack(K, F, model, options, eml)

        monkeypatch.setattr(cli, "_resample", spy_resample)
        monkeypatch.setattr(cli, "_fit_stack", spy_stack)
        out = tmp_path / "fit"
        assert cli.main(
            ["estimate", "--config", str(config), "--counts", str(counts), "--out", str(out)]
        ) == 0
        assert resampled == [(0, 10**8), (1, 10**8 + 1)]
        # The estimate and its three draws, two records each, in one EML stack.
        assert fitted == [((4, 2), True)]
        with open(out / "bootstrap_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {row["sample_size"] for row in rows} == {str(2 * 10**8 + 1)}
        assert {row["n_fail"] for row in rows} == {"0"}

    def test_cli_rejects_counts_beyond_declared_settings(self, tmp_path):
        truth = random_pps_pnd(5e-3, 23)
        det = DetectorPair(T=0.5, eta_t=0.6, eta_r=0.6)
        rec = sample_counts(bipartite_probs(truth, det, det), 10**6, seed=5, nu=2)
        counts = tmp_path / "counts.csv"
        write_counts_csv(counts, [rec])
        config = tmp_path / "est.cfg"
        config.write_text("[detectors]\nd1 = 0\nd2 = 0\nd3 = 0\nd4 = 0\n")
        from ppskit import cli

        assert cli.main(
            ["estimate", "--config", str(config), "--counts", str(counts),
             "--out", str(tmp_path / "fit")]
        ) == 3

    def test_cli_estimate_eml_method(self, tmp_path):
        truth = random_pps_pnd(5e-2, 24)
        det = DetectorPair(T=0.5, eta_t=0.6, eta_r=0.6)
        settings = ((1.0, 1.0), (0.7, 0.7), (0.5, 0.5))
        records = [
            sample_counts(
                bipartite_probs(truth, det.with_gamma(gs), det.with_gamma(gi)),
                10**9,
                seed=300 + nu,
                nu=nu,
            )
            for nu, (gs, gi) in enumerate(settings)
        ]
        counts = tmp_path / "counts.csv"
        write_counts_csv(counts, records)
        config = tmp_path / "est.cfg"
        config.write_text(
            "[detectors]\nT_s = 0.5\nT_i = 0.5\n"
            "eta1 = 0.6\neta2 = 0.6\neta3 = 0.6\neta4 = 0.6\n"
            "d1 = 0\nd2 = 0\nd3 = 0\nd4 = 0\n\n"
            "[settings]\ngammas_s = 1.0, 0.7, 0.5\ngammas_i = 1.0, 0.7, 0.5\n\n"
            "[estimate]\nmethod = eml\nn_starts = 2\n"
        )
        from ppskit import cli

        out = tmp_path / "fit"
        assert cli.main(
            ["estimate", "--config", str(config), "--counts", str(counts), "--out", str(out)]
        ) == 0
        from ppskit.pnd import read_pnd_csv

        fit, meta = read_pnd_csv(out / "pnd_hat.csv")
        assert meta["method"] == "eml"
        assert rmsle(fit, truth) < 0.3
