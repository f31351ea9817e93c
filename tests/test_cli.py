import csv
import pathlib
import time

import numpy as np
import pytest

from ppskit import cli
from ppskit import jsd as jsd_module
from ppskit.detection import read_counts_csv
from ppskit.errors import PpskitError
from ppskit.estimate import (
    EstimateOptions,
    LikelihoodModel,
    characterize,
    eml_estimate,
    eml_estimate_many,
    ml_estimate_many,
)
from ppskit.jsd import segment
from ppskit.metrics import bootstrap, bootstrap_stats, write_bootstrap_csv
from ppskit.pnd import read_pnd_csv

JSD_SECTIONS = """\
[jsd]
source = gaussian
sigma_plus = 0.05
sigma_minus = 0.24
theta_deg = 45
n_s = 96
n_i = 96
span = 10

[filter_s]
kind = rect
width = 2.0

[filter_i]
kind = rect
width = 0.2

[gain]
xi_sq = 1e-3
"""

DETECTOR_SECTION = """\
[detectors]
T_s = 0.5
T_i = 0.5
eta1 = 0.5
eta2 = 0.5
eta3 = 0.5
eta4 = 0.5
d1 = 1e-6
d2 = 1e-6
d3 = 1e-6
d4 = 1e-6
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_report(path):
    with open(path, newline="") as fh:
        return {row["metric"]: row["value"] for row in csv.DictReader(fh)}


class TestJsdCommand:
    def test_wide_narrow_study_report(self, tmp_path):
        config = write_config(tmp_path, JSD_SECTIONS)
        out = tmp_path / "out"
        assert cli.main(["jsd", "--config", config, "--out", str(out)]) == 0
        report = read_report(out / "report.csv")
        assert float(report["eta_H_s"]) > 0.999
        assert float(report["eta_H_i"]) < 0.7
        assert float(report["k_svd"]) == pytest.approx(
            float(report["k_analytic"]), rel=1e-6
        )
        assert abs(float(report["q1"]) + float(report["q2"])
                   + float(report["q3"]) + float(report["q4"]) - 1) < 1e-9
        pnd, _ = read_pnd_csv(out / "pnd.csv")
        assert pnd.p.sum() == pytest.approx(1.0, abs=1e-10)

    def test_all_pass_filters_report_unit_pair_branch(self, tmp_path):
        text = JSD_SECTIONS.replace(
            "[filter_s]\nkind = rect\nwidth = 2.0", "[filter_s]\nkind = allpass"
        ).replace("[filter_i]\nkind = rect\nwidth = 0.2", "[filter_i]\nkind = allpass")
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["jsd", "--config", config, "--out", str(out)]) == 0
        report = read_report(out / "report.csv")
        assert float(report["q3"]) == pytest.approx(1.0, abs=1e-12)

    def test_malformed_jsd_csv_exits_2(self, tmp_path):
        bad = tmp_path / "jsd.csv"
        bad.write_text("omega_s,omega_i,re,im\n0,0,1\n")
        config = write_config(
            tmp_path,
            f"[jsd]\nsource = csv\nfile = {bad}\n\n"
            "[gain]\nxi_sq = 1e-3\n",
        )
        assert cli.main(["jsd", "--config", config, "--out", str(tmp_path)]) == 2

    def test_zero_span_exits_2_naming_it(self, tmp_path, capsys):
        config = write_config(tmp_path, JSD_SECTIONS.replace("span = 10", "span = 0"))
        assert cli.main(["jsd", "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert "span must be finite and > 0" in capsys.readouterr().err

    def test_malformed_filter_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "filter.csv"
        bad.write_text("omega,t\n-1.0,0.5\n0.0,half\n1.0,0.5\n")
        text = JSD_SECTIONS.replace(
            "[filter_i]\nkind = rect\nwidth = 0.2", f"[filter_i]\nkind = csv\nfile = {bad}"
        )
        config = write_config(tmp_path, text)
        assert cli.main(["jsd", "--config", config, "--out", str(tmp_path)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_segments_once_per_call(self, tmp_path, monkeypatch):
        calls = []

        def counting_segment(*args):
            calls.append(args)
            return segment(*args)

        # Patch both names, so a segment call made inside the library counts too.
        monkeypatch.setattr(cli, "segment", counting_segment)
        monkeypatch.setattr(jsd_module, "segment", counting_segment)
        config = write_config(tmp_path, JSD_SECTIONS)
        assert cli.main(["jsd", "--config", config, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    def test_factored_route_gives_k_svd_without_a_grid_svd(self, tmp_path, monkeypatch):
        def no_svd(jsd):
            raise AssertionError("schmidt_number_svd called by ppskit jsd")

        # raising=False: cli no longer imports the name, but a spy there still counts.
        monkeypatch.setattr(cli, "schmidt_number_svd", no_svd, raising=False)
        monkeypatch.setattr(jsd_module, "schmidt_number_svd", no_svd)
        text = (
            JSD_SECTIONS.replace("n_s = 96", "n_s = 512").replace("n_i = 96", "n_i = 512")
            .replace("span = 10", "span = 10\nchirp = 80")
            .replace("kind = rect\nwidth = 2.0", "kind = gauss\ncenter = 0.02\nfwhm = 0.3")
            .replace("kind = rect\nwidth = 0.2", "kind = gauss\ncenter = -0.01\nfwhm = 0.15")
        )
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["jsd", "--config", config, "--out", str(out)]) == 0
        report = read_report(out / "report.csv")
        assert float(report["k_svd"]) == pytest.approx(float(report["k_analytic"]), rel=1e-12)
        assert all(float(report[f"q{j}"]) > 1e-2 for j in range(1, 5))
        # With no columns allowed, the factor gives up and the direct route runs.
        direct = []
        direct_traces = jsd_module._direct_traces

        def recording_traces(*args):
            direct.append(args)
            return direct_traces(*args)

        monkeypatch.setattr(jsd_module, "_SKETCH_RANK_FRACTION", 0.0)
        monkeypatch.setattr(jsd_module, "_direct_traces", recording_traces)
        assert cli.main(["jsd", "--config", config, "--out", str(tmp_path / "direct")]) == 0
        assert len(direct) == 1
        report = read_report(tmp_path / "direct" / "report.csv")
        assert float(report["k_svd"]) == pytest.approx(float(report["k_analytic"]), rel=1e-12)

    def test_unknown_key_rejected_with_name(self, tmp_path, capsys):
        config = write_config(tmp_path, "[jsd]\nsource = gaussian\nwobble = 3\n")
        assert cli.main(["jsd", "--config", config]) == 2
        assert "wobble" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert cli.main(["jsd", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_bad_value_in_an_unread_section_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, JSD_SECTIONS + "\n[sweep]\nreps = x\n")
        assert cli.main(["jsd", "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert "'reps' in [sweep]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


SIMULATE_CONFIG = (
    JSD_SECTIONS
    + "\n[pnd]\nsource = synthesize\nloss_T_s = 0.9\nloss_T_i = 0.9\n\n"
    + DETECTOR_SECTION
    + "\n[simulate]\nn_m = 100000000\nseed = 3\n"
)


class TestSimulateCommand:
    def test_writes_counts_and_truth(self, tmp_path):
        config = write_config(tmp_path, SIMULATE_CONFIG)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        records, _ = read_counts_csv(out / "counts.csv")
        assert len(records) == 1
        assert records[0].n_m == 10**8
        truth, meta = read_pnd_csv(out / "pnd_true.csv")
        assert meta["seed"] == "3"
        assert truth.p.sum() == pytest.approx(1.0, abs=1e-10)

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path, SIMULATE_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", config, "--out", str(out_a)]) == 0
        assert cli.main(["simulate", "--config", config, "--out", str(out_b)]) == 0
        assert (out_a / "counts.csv").read_bytes() == (out_b / "counts.csv").read_bytes()

    def test_seed_key_changes_counts(self, tmp_path):
        counts = []
        for seed in ("3", "4"):
            config = write_config(tmp_path, SIMULATE_CONFIG.replace("seed = 3", f"seed = {seed}"))
            assert cli.main(["simulate", "--config", config, "--out", str(tmp_path / seed)]) == 0
            counts.append((tmp_path / seed / "counts.csv").read_bytes())
        assert counts[0] != counts[1]

    @pytest.mark.parametrize("key", ["gamma_s", "gamma_i"])
    def test_detector_attenuator_key_exits_2(self, tmp_path, capsys, key):
        # Attenuators belong to [settings]; a detector-level gamma was never read.
        text = SIMULATE_CONFIG.replace("[detectors]\n", f"[detectors]\n{key} = 0.5\n")
        config = write_config(tmp_path, text)
        assert cli.main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err

    def test_attenuator_above_1_exits_2_before_writing(self, tmp_path, capsys):
        text = SIMULATE_CONFIG + "\n[settings]\ngammas_s = 1, 1.5\ngammas_i = 1, 1\n"
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        assert "gamma must lie in [0, 1], got 1.5" in capsys.readouterr().err
        assert not out.exists()

    def test_budget_beyond_int64_exits_2_before_writing(self, tmp_path, capsys):
        text = SIMULATE_CONFIG.replace("n_m = 100000000", "n_m = 10000000000000000000")
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        assert "n_m must be at most 2**63 - 1" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_reps_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, SIMULATE_CONFIG + "reps = 0\n")
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 2
        assert "reps" in capsys.readouterr().err
        assert not (out / "counts.csv").exists()

    def test_every_rep_gets_a_counts_file(self, tmp_path):
        config = write_config(tmp_path, SIMULATE_CONFIG + "reps = 3\n")
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("counts*.csv")) == [
            "counts.csv", "counts_rep1.csv", "counts_rep2.csv",
        ]


SWEEP_CONFIG = """\
[sweep]
method = ml-2x2d
p_g_grid = 1e-2
n_m_grid = 1e6
reps = 2
n_starts = 1
seed = 1
"""


class TestSweepCommand:
    def test_smoke_sweep_is_fast_and_deterministic(self, tmp_path):
        config = write_config(tmp_path, SWEEP_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        start = time.time()
        assert cli.main(["sweep", "--config", config, "--out", str(out_a)]) == 0
        assert time.time() - start < 10.0
        assert cli.main(["sweep", "--config", config, "--out", str(out_b)]) == 0
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()
        with open(out_a / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {row["converged"] for row in rows} == {"true"}

    @pytest.mark.parametrize("budget", ["n_starts = 0", "max_iter = -1"], ids=["starts", "iters"])
    def test_empty_fit_budget_exits_2(self, tmp_path, capsys, budget):
        text = SWEEP_CONFIG.replace("n_starts = 1", budget)
        config = write_config(tmp_path, text)
        assert cli.main(["sweep", "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert budget.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()


class TestEstimateCommand:
    def _simulate(self, tmp_path):
        config = write_config(tmp_path, SIMULATE_CONFIG, name="sim.cfg")
        out = tmp_path / "data"
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        return out / "counts.csv"

    def test_roundtrip_recovers_characteristics(self, tmp_path):
        counts = self._simulate(tmp_path)
        config = write_config(tmp_path, JSD_SECTIONS + "\n" + DETECTOR_SECTION, name="est.cfg")
        out = tmp_path / "fit"
        code = cli.main(
            ["estimate", "--config", config, "--counts", str(counts), "--out", str(out)]
        )
        assert code == 0
        truth, _ = read_pnd_csv(tmp_path / "data" / "pnd_true.csv")
        fit, meta = read_pnd_csv(out / "pnd_hat.csv")
        assert meta["converged"] == "True"
        assert "model_hash" in meta and "loglik" in meta
        report = read_report(out / "characteristics.csv")
        assert float(report["p_g"]) == pytest.approx(truth.p[1, 1], rel=0.05)
        assert float(report["eta_H_s"]) == pytest.approx(0.9, rel=0.05)

    def test_total_mismatch_exits_3(self, tmp_path):
        counts = self._simulate(tmp_path)
        rows = counts.read_text().splitlines()
        first = rows[1].split(",")
        first[1] = str(int(first[1]) + 7)  # break the n_m column
        (tmp_path / "broken.csv").write_text("\n".join([rows[0], ",".join(first)]) + "\n")
        config = write_config(tmp_path, DETECTOR_SECTION, name="est.cfg")
        code = cli.main(
            [
                "estimate", "--config", config,
                "--counts", str(tmp_path / "broken.csv"), "--out", str(tmp_path / "fit"),
            ]
        )
        assert code == 3

    def test_zero_all_click_counts_warn_but_estimate(self, tmp_path, capsys):
        counts = self._simulate(tmp_path)
        rows = counts.read_text().splitlines()
        cells = rows[1].split(",")
        f44 = int(float(cells[-1]))
        cells[-1] = "0"
        cells[1] = str(int(float(cells[1])) - f44)
        (tmp_path / "noclick.csv").write_text("\n".join([rows[0], ",".join(cells)]) + "\n")
        config = write_config(tmp_path, DETECTOR_SECTION, name="est.cfg")
        out = tmp_path / "fit"
        code = cli.main(
            [
                "estimate", "--config", config,
                "--counts", str(tmp_path / "noclick.csv"), "--out", str(out),
            ]
        )
        err = capsys.readouterr().err
        assert "no all-click events" in err
        assert code in (0, 4)
        assert (out / "pnd_hat.csv").exists()

    def test_iteration_starved_fit_exits_4(self, tmp_path):
        counts = self._simulate(tmp_path)
        config = write_config(
            tmp_path,
            DETECTOR_SECTION + "\n[estimate]\nmax_iter = 1\nn_starts = 1\n",
            name="est.cfg",
        )
        code = cli.main(
            [
                "estimate", "--config", config,
                "--counts", str(counts), "--out", str(tmp_path / "fit"),
            ]
        )
        assert code == 4
        assert (tmp_path / "fit" / "pnd_hat.csv").exists()

    @pytest.mark.parametrize("budget", ["n_starts = 0", "max_iter = -1"], ids=["starts", "iters"])
    def test_empty_fit_budget_exits_2(self, tmp_path, capsys, budget):
        counts = self._simulate(tmp_path)
        config = write_config(
            tmp_path, DETECTOR_SECTION + f"\n[estimate]\n{budget}\n", name="est.cfg"
        )
        out = tmp_path / "fit"
        argv = ["estimate", "--config", config, "--counts", str(counts), "--out", str(out)]
        assert cli.main(argv) == 2
        assert budget.split()[0] in capsys.readouterr().err
        assert not (out / "pnd_hat.csv").exists()

    def test_seed_key_is_the_fit_seed(self, tmp_path):
        settings = "\n[settings]\ngammas_s = 1.0, 0.5\ngammas_i = 1.0, 0.5\n"  # EML needs two
        sim = write_config(tmp_path, SIMULATE_CONFIG + settings, name="sim.cfg")
        assert cli.main(["simulate", "--config", sim, "--out", str(tmp_path / "data")]) == 0
        counts = str(tmp_path / "data" / "counts.csv")
        config = write_config(
            tmp_path,
            DETECTOR_SECTION + settings + "\n[estimate]\nmethod = eml\nn_starts = 2\nseed = 11\n",
            name="est.cfg",
        )
        out = tmp_path / "fit"
        assert cli.main(["estimate", "--config", config, "--counts", counts, "--out", str(out)]) == 0
        fit, meta = read_pnd_csv(out / "pnd_hat.csv")
        assert meta["seed"] == "11"
        cfg = cli.load_config(config)
        model = LikelihoodModel(*cli._build_detectors(cfg)[:2], settings=cli._build_settings(cfg))
        records, _ = read_counts_csv(counts)
        expected = eml_estimate(records, model, EstimateOptions(n_starts=2, seed=11))
        np.testing.assert_array_equal(fit.p, expected.p_hat.p)

    def test_count_ratio_rows_use_the_attenuators_of_their_record(self, tmp_path):
        # The count-ratio rows read the first record, so with the attenuated
        # setting first they must divide by gamma * eta, and then agree with
        # the same source measured with the unattenuated setting first.
        reports = []
        for name, gammas in (("attenuated", "0.5, 1"), ("clear", "1, 0.5")):
            config = write_config(
                tmp_path,
                "[pnd]\nsource = random\np_g = 1e-2\nseed = 3\n\n" + DETECTOR_SECTION
                + f"\n[settings]\ngammas_s = {gammas}\ngammas_i = {gammas}\n"
                + "\n[simulate]\nn_m = 10000000000\nseed = 1\n",
                name=f"{name}.cfg",
            )
            data, out = tmp_path / f"data-{name}", tmp_path / f"fit-{name}"
            assert cli.main(["simulate", "--config", config, "--out", str(data)]) == 0
            argv = ["estimate", "--config", config, "--counts", str(data / "counts.csv")]
            assert cli.main(argv + ["--out", str(out)]) == 0
            reports.append(read_report(out / "characteristics.csv"))
        for key in ("pg_counts", "etaHs_counts", "etaHi_counts"):
            assert float(reports[0][key]) == pytest.approx(float(reports[1][key]), rel=0.02), key

    def test_missing_counts_flag_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, DETECTOR_SECTION, name="est.cfg")
        with pytest.raises(SystemExit) as exc:
            cli.main(["estimate", "--config", config])
        assert exc.value.code == 2
        assert "--counts" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["nan", "inf", "0", "-76e6"])
    def test_unusable_rep_rate_exits_2(self, tmp_path, capsys, rate):
        counts = self._simulate(tmp_path)
        config = write_config(
            tmp_path, DETECTOR_SECTION + f"rep_rate_hz = {rate}\n", name="est.cfg"
        )
        out = tmp_path / "fit"
        argv = ["estimate", "--config", config, "--counts", str(counts), "--out", str(out)]
        assert cli.main(argv) == 2
        assert "rep_rate_hz" in capsys.readouterr().err
        assert not (out / "characteristics.csv").exists()


class TestBootstrapCommand:
    """``ppskit estimate`` with a [bootstrap] section: the file's own counts
    and every draw refitted in one stack, then summarized."""

    def test_summary_written(self, tmp_path):
        sim_cfg = write_config(tmp_path, SIMULATE_CONFIG, name="sim.cfg")
        data = tmp_path / "data"
        assert cli.main(["simulate", "--config", sim_cfg, "--out", str(data)]) == 0
        config = write_config(
            tmp_path,
            DETECTOR_SECTION
            + "\n[estimate]\nn_starts = 1\n"
            + "\n[bootstrap]\nn_boot = 5\nsample_sizes = 1e6\nseed = 2\n",
            name="boot.cfg",
        )
        out = tmp_path / "boot"
        code = cli.main(
            [
                "estimate", "--config", config,
                "--counts", str(data / "counts.csv"), "--out", str(out),
            ]
        )
        assert code == 0
        with open(out / "bootstrap_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        names = {row["characteristic"] for row in rows}
        assert {"p_g", "eta_H_s", "eta_H_i"} <= names
        for row in rows:
            assert float(row["q05"]) <= float(row["q50"]) <= float(row["q95"])

    def _counts(self, tmp_path, settings=""):
        sim_cfg = write_config(tmp_path, SIMULATE_CONFIG + settings, name="sim.cfg")
        data = tmp_path / "data"
        assert cli.main(["simulate", "--config", sim_cfg, "--out", str(data)]) == 0
        return str(data / "counts.csv")

    @staticmethod
    def _public_summary(tmp_path, config, counts, options, n_boot, sizes, seed):
        """The rows, and the bytes of their CSV, that ``bootstrap``, ``*_many``
        and ``bootstrap_stats`` give with a ``characterize`` pipeline for the
        model and method of ``config``, each record resampled at every size."""
        cfg = cli.load_config(config)
        det_s, det_i, _ = cli._build_detectors(cfg)
        model = LikelihoodModel(det_s, det_i, settings=cli._build_settings(cfg))
        estimate_many = {"ml": ml_estimate_many, "eml": eml_estimate_many}[
            cfg.get("estimate", "method", "ml")
        ]
        records, _ = read_counts_csv(counts)

        def pipeline(fit):
            if not fit.converged:
                raise PpskitError("refit did not converge")
            return characterize(fit).as_dict()

        rows = []
        for size in sizes:
            draws = list(zip(*(bootstrap(rec, n_boot, size, seed=seed) for rec in records)))
            fits = estimate_many(draws, model, options)
            rows += bootstrap_stats(fits, pipeline, size * len(records))
        expected = tmp_path / "expected.csv"
        write_bootstrap_csv(expected, rows)
        return rows, expected.read_bytes()

    @pytest.mark.parametrize(
        "estimate, options",
        [("max_iter = 4\n", dict(max_iter=4)),
         ("method = eml\nn_starts = 2\nseed = 11\n", dict(n_starts=2, seed=11))],
        ids=["ml-max-iter-4", "eml"],
    )
    def test_refits_take_every_estimate_key(self, tmp_path, estimate, options):
        # max_iter = 4 leaves two of the three ML refits unconverged, so the
        # summary's n_fail shows that the budget reached the refits.
        settings = "\n[settings]\ngammas_s = 1.0, 0.5\ngammas_i = 1.0, 0.5\n"  # EML needs two
        counts = self._counts(tmp_path, settings)
        config = write_config(
            tmp_path,
            DETECTOR_SECTION + settings + "\n[estimate]\n" + estimate
            + "\n[bootstrap]\nn_boot = 3\nseed = 2\n",
            name="boot.cfg",
        )
        out = tmp_path / "boot"
        cli.main(["estimate", "--config", config, "--counts", counts, "--out", str(out)])
        # Both records hold 10^8 trials, the default sample size of each.
        _, expected = self._public_summary(
            tmp_path, config, counts, EstimateOptions(**options), 3, (10**8,), 2
        )
        assert (out / "bootstrap_summary.csv").read_bytes() == expected

    @pytest.mark.parametrize("method", ["ml", "eml"])
    def test_ml_refits_every_draw_in_one_batched_solve(self, tmp_path, monkeypatch, method):
        settings = "\n[settings]\ngammas_s = 1.0, 0.5\ngammas_i = 1.0, 0.5\n"  # EML needs two
        counts = self._counts(tmp_path, settings)
        config = write_config(
            tmp_path,
            DETECTOR_SECTION + settings + f"\n[estimate]\nmethod = {method}\nn_starts = 1\n"
            + "\n[bootstrap]\nn_boot = 4\nsample_sizes = 1e6, 1e7\n",
            name="boot.cfg",
        )
        batches, fit_stack = [], cli._fit_stack

        def spy_stack(K, F, model, options, eml):
            assert eml == (method == "eml")
            batches.append(F.shape[:2])
            return fit_stack(K, F, model, options, eml)

        monkeypatch.setattr(cli, "_fit_stack", spy_stack)
        out = tmp_path / "boot"
        argv = ["estimate", "--config", config, "--counts", counts, "--out", str(out)]
        assert cli.main(argv) == 0
        assert batches == [(9, 2)]  # one stack of the counts and both sizes' draws x records
        with open(out / "bootstrap_summary.csv", newline="") as fh:
            assert {row["n_fail"] for row in csv.DictReader(fh)} == {"0"}

    def test_unconverged_refits_count_as_failed_draws(self, tmp_path, monkeypatch):
        counts = self._counts(tmp_path)
        config = write_config(
            tmp_path,
            DETECTOR_SECTION + "\n[estimate]\nmax_iter = 4\n\n[bootstrap]\nn_boot = 20\nseed = 2\n",
            name="boot.cfg",
        )
        calls, fit_stack = [], cli._fit_stack

        def spy_stack(K, F, model, options, eml):
            calls.append(fit_stack(K, F, model, options, eml))
            return calls[-1]

        monkeypatch.setattr(cli, "_fit_stack", spy_stack)
        out = tmp_path / "boot"
        cli.main(["estimate", "--config", config, "--counts", counts, "--out", str(out)])
        assert len(calls) == 1
        # Row 0 of the stack is the point fit, not a draw.
        unconverged = int(np.sum(~calls[0].converged[1:]))
        assert 0 < unconverged < 20
        with open(out / "bootstrap_summary.csv", newline="") as fh:
            assert {row["n_fail"] for row in csv.DictReader(fh)} == {str(unconverged)}

    @pytest.mark.parametrize(
        "method, max_iter, sizes",
        [("ml", 1, (10**7, 10**8)), ("ml", 3, (10**6, 10**8)), ("eml", 3, (10**6,))],
    )
    def test_summary_equals_the_public_bootstrap_pipeline(self, tmp_path, method, max_iter, sizes):
        # The command keeps the draws as one count stack from the resample
        # to the summary; its rows must be those that bootstrap, *_many and
        # bootstrap_stats give with a characterize pipeline.  The small
        # budgets leave some refits of every size unconverged (one of 30
        # converges at max_iter = 1), so n_fail is compared too; they leave
        # the point fit unconverged as well, which exits 4 after the summary.
        settings = "\n[settings]\ngammas_s = 1.0, 0.5\ngammas_i = 1.0, 0.5\n" if method == "eml" else ""
        counts = self._counts(tmp_path, settings)
        config = write_config(
            tmp_path,
            DETECTOR_SECTION + settings
            + f"\n[estimate]\nmethod = {method}\nmax_iter = {max_iter}\n"
            + f"\n[bootstrap]\nn_boot = 30\nsample_sizes = {', '.join(map(str, sizes))}\nseed = 4\n",
            name="boot.cfg",
        )
        out = tmp_path / "boot"
        argv = ["estimate", "--config", config, "--counts", counts, "--out", str(out)]
        assert cli.main(argv) == 4
        rows, expected = self._public_summary(
            tmp_path, config, counts, EstimateOptions(max_iter=max_iter), 30, sizes, 4
        )
        assert all(0 < row["n_fail"] < 30 for row in rows)
        assert (out / "bootstrap_summary.csv").read_bytes() == expected

    @pytest.mark.parametrize("method", ["ml", "eml"])
    def test_estimate_outputs_do_not_depend_on_the_bootstrap(self, tmp_path, monkeypatch, method):
        # The point fit is row 0 of the one stack that also holds every
        # size's draws; its files must be those of a lone estimate.
        settings = "\n[settings]\ngammas_s = 1.0, 0.5\ngammas_i = 1.0, 0.5\n"  # EML needs two
        counts = self._counts(tmp_path, settings)
        estimate = (
            DETECTOR_SECTION + settings + f"\n[estimate]\nmethod = {method}\nn_starts = 3\nseed = 9\n"
        )
        plain = write_config(tmp_path, estimate, name="plain.cfg")
        boot = write_config(
            tmp_path, estimate + "\n[bootstrap]\nn_boot = 4\nsample_sizes = 1e6, 1e7\n",
            name="boot.cfg",
        )
        batches, fit_stack = [], cli._fit_stack

        def spy_stack(K, F, model, options, eml):
            batches.append(F.shape[:2])
            return fit_stack(K, F, model, options, eml)

        monkeypatch.setattr(cli, "_fit_stack", spy_stack)
        for name, config in (("plain", plain), ("boot", boot)):
            argv = ["estimate", "--config", config, "--counts", counts]
            assert cli.main(argv + ["--out", str(tmp_path / name)]) == 0
        assert batches == [(1, 2), (9, 2)]  # the point alone, then with both sizes' draws
        for name in ("pnd_hat.csv", "characteristics.csv"):
            assert (tmp_path / "boot" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
        assert (tmp_path / "boot" / "bootstrap_summary.csv").exists()

    def test_no_converged_refit_exits_4_with_no_summary(self, tmp_path, capsys):
        counts = self._counts(tmp_path)
        config = write_config(
            tmp_path,
            DETECTOR_SECTION + "\n[estimate]\nmax_iter = 0\n\n[bootstrap]\nn_boot = 5\n",
            name="boot.cfg",
        )
        out = tmp_path / "boot"
        argv = ["estimate", "--config", config, "--counts", counts, "--out", str(out)]
        assert cli.main(argv) == 4
        assert "none of the 5 bootstrap refits converged" in capsys.readouterr().err
        assert not (out / "bootstrap_summary.csv").exists()

    def test_draws_failing_for_other_reasons_exit_2_with_no_summary(
        self, tmp_path, capsys, monkeypatch
    ):
        counts = self._counts(tmp_path)
        config = write_config(
            tmp_path, DETECTOR_SECTION + "\n[bootstrap]\nn_boot = 3\n", name="boot.cfg"
        )

        def undefined(p):  # every refit's characteristics undefined
            return np.full(p.shape[:-2] + (7,), np.nan), np.ones(p.shape[:-2], dtype=bool)

        monkeypatch.setattr(cli, "characteristics_many", undefined)
        out = tmp_path / "boot"
        argv = ["estimate", "--config", config, "--counts", counts, "--out", str(out)]
        assert cli.main(argv) == 2
        assert "failed on all 3 samples" in capsys.readouterr().err
        assert not (out / "bootstrap_summary.csv").exists()

    @pytest.mark.parametrize("n_boot", ["0", "-1"])
    def test_no_draws_exits_2_naming_n_boot(self, tmp_path, capsys, n_boot):
        counts = self._counts(tmp_path)
        config = write_config(
            tmp_path, DETECTOR_SECTION + f"\n[bootstrap]\nn_boot = {n_boot}\n", name="boot.cfg"
        )
        out = tmp_path / "boot"
        argv = ["estimate", "--config", config, "--counts", counts, "--out", str(out)]
        assert cli.main(argv) == 2
        assert "n_boot" in capsys.readouterr().err
        assert not (out / "bootstrap_summary.csv").exists()

    def test_estimate_with_no_draws_exits_2_writing_nothing(self, tmp_path, capsys):
        # The draws are made before the fit, so a [bootstrap] error stops
        # the estimate before its first file.
        counts = self._counts(tmp_path)
        config = write_config(
            tmp_path, DETECTOR_SECTION + "\n[bootstrap]\nn_boot = 0\n", name="boot.cfg"
        )
        out = tmp_path / "fit"
        argv = ["estimate", "--config", config, "--counts", counts, "--out", str(out)]
        assert cli.main(argv) == 2
        assert "n_boot" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "bootstrap",
        ["n_boot = 1000000000000\n", "n_boot = 50001\nsample_sizes = 1e6, 1e7\n"],
        ids=["huge", "past-the-draw-bound"],
    )
    def test_unbounded_n_boot_exits_2_writing_nothing(self, tmp_path, capsys, bootstrap):
        # 10^12 draws would be a table of about 116 TiB, and 2 x 50 001 draws
        # a refit stack of about half a GB; the bound on n_boot times the
        # number of sample sizes refuses both before the first draw.
        counts = self._counts(tmp_path)
        config = write_config(tmp_path, DETECTOR_SECTION + "\n[bootstrap]\n" + bootstrap, name="boot.cfg")
        out = tmp_path / "out"
        argv = ["estimate", "--config", config, "--counts", counts, "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "n_boot must be at most" in err and "sample_sizes" in err
        assert not out.exists() or not any(out.iterdir())

    def test_sample_sizes_are_exact_integers(self, tmp_path, capsys):
        counts = self._counts(tmp_path)
        for sizes, code in (("1e6, 2.5", 2), ("1e9", 0)):
            config = write_config(
                tmp_path,
                DETECTOR_SECTION + f"\n[bootstrap]\nn_boot = 2\nsample_sizes = {sizes}\n",
                name="boot.cfg",
            )
            out = tmp_path / "boot"
            argv = ["estimate", "--config", config, "--counts", counts, "--out", str(out)]
            assert cli.main(argv) == code
        assert "sample_sizes" in capsys.readouterr().err
        with open(out / "bootstrap_summary.csv", newline="") as fh:
            assert {row["sample_size"] for row in csv.DictReader(fh)} == {"1000000000"}


# Beyond --config and --out, the flags each command declares (README, "CLI").
COMMAND_FLAGS = {
    "jsd": {},
    "simulate": {},
    "sweep": {},
    "estimate": {"--counts": "c.csv"},
}
# Every flag the command line has had; run settings now live in the config.
ALL_FLAGS = {"--seed": "3", "--reps": "2", "--counts": "c.csv", "--bootstrap": None}


def flag_argv(flags):
    argv = []
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, value]
    return argv


class TestParser:
    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_every_documented_flag_parses(self, command):
        argv = [command, "--config", "x.cfg", "--out", "o"] + flag_argv(COMMAND_FLAGS[command])
        args = cli.build_parser().parse_args(argv)
        assert (args.command, args.config, args.out) == (command, "x.cfg", "o")
        for flag, value in COMMAND_FLAGS[command].items():
            got = getattr(args, flag[2:])
            assert got is True if value is None else str(got) == value

    @pytest.mark.parametrize(
        "command, flag",
        [(c, f) for c in sorted(COMMAND_FLAGS) for f in sorted(ALL_FLAGS)
         if f not in COMMAND_FLAGS[c]],
    )
    def test_flag_the_command_does_not_read_exits_2(self, tmp_path, capsys, command, flag):
        config = write_config(tmp_path, DETECTOR_SECTION)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", config] + flag_argv(COMMAND_FLAGS[command])
                     + flag_argv({flag: ALL_FLAGS[flag]}))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bootstrap_command_exits_2(self, tmp_path, capsys):
        # A bootstrap is the [bootstrap] section of estimate.
        config = write_config(tmp_path, DETECTOR_SECTION + "\n[bootstrap]\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["bootstrap", "--config", config, "--counts", "c.csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'bootstrap'" in capsys.readouterr().err

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()


CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def test_shipped_configs_run_clean(tmp_path, capsys):
    configs = {path.name: str(path) for path in CONFIG_DIR.glob("*.cfg")}
    data = tmp_path / "data"
    runs = {
        "wide_narrow_jsd.cfg": ["jsd", "--out", str(tmp_path / "jsd")],
        "simulate_demo.cfg": ["simulate", "--out", str(data)],
        "estimate_reference.cfg": [
            "estimate", "--counts", str(data / "counts.csv"), "--out", str(tmp_path / "fit")
        ],
        "smoke_sweep.cfg": ["sweep", "--out", str(tmp_path / "sweep")],
    }
    assert sorted(configs) == sorted(runs), "every shipped config needs a run here"
    for name, argv in runs.items():  # simulate writes the counts estimate reads
        assert cli.main(argv[:1] + ["--config", configs[name]] + argv[1:]) == 0, name
    assert "warning:" not in capsys.readouterr().err
    assert (tmp_path / "jsd" / "pnd.csv").exists()
    assert (tmp_path / "fit" / "pnd_hat.csv").exists()
    assert (tmp_path / "sweep" / "sweep.csv").exists()


def _unreadable_path(tmp_path, case):
    """argv of a run whose ``case`` path cannot be read or written, and that path."""
    folder = tmp_path / "folder"
    folder.mkdir()
    out = str(tmp_path / "out")
    if case == "config-dir":
        return ["jsd", "--config", str(folder), "--out", out], folder
    if case == "jsd-file-dir":
        config = write_config(tmp_path, f"[jsd]\nsource = csv\nfile = {folder}\n\n[gain]\nxi_sq = 1e-3\n")
        return ["jsd", "--config", config, "--out", out], folder
    if case == "counts-dir":
        config = write_config(tmp_path, DETECTOR_SECTION)
        return ["estimate", "--config", config, "--counts", str(folder), "--out", out], folder
    if case == "config-not-utf8":
        config = tmp_path / "run.cfg"
        config.write_bytes(b"[jsd]\nsource = gaussian\n# caf\xe9\n")
        return ["jsd", "--config", str(config), "--out", out], config
    taken = tmp_path / "taken"
    taken.write_text("")
    return ["jsd", "--config", write_config(tmp_path, JSD_SECTIONS), "--out", str(taken)], taken


@pytest.mark.parametrize(
    "case", ["config-dir", "jsd-file-dir", "counts-dir", "config-not-utf8", "out-is-a-file"]
)
def test_unreadable_path_exits_2_naming_it(tmp_path, capsys, case):
    argv, path = _unreadable_path(tmp_path, case)
    assert cli.main(argv) == 2
    assert str(path) in capsys.readouterr().err


# Per command: a config with only its required keys, and the text that goes
# before and after it to spell out every default the command line once
# hard-coded for the keys it leaves unset.
REQUIRED_AND_DEFAULTS = {
    "jsd": (
        "[gain]\nxi_sq = 1e-3\n\n[jsd]\nsource = gaussian\nsigma_plus = 0.3\nsigma_minus = 0.8\n",
        "",
        "theta_deg = 45\nn_s = 256\nn_i = 256\nspan = 5.0\nchirp = 0.0\n",
    ),
    "sweep": (
        "[sweep]\np_g_grid = 1e-2\nn_m_grid = 1e6\n",
        "",
        "method = ml-2x2d\neta_grid = 0.5\nd_grid = 0.0\ngamma_design = none\nreps = 20\n"
        "seed = 0\nbs_T = 0.5\nexact_counts = false\nn_starts = 1\nmax_iter = 10000\n",
    ),
    # EML reads n_starts, so this case shows that the spelled value is the default.
    "sweep-eml": (
        "[sweep]\np_g_grid = 1e-2\nn_m_grid = 1e6\nmethod = eml-2x2d\ngamma_design = va4\n",
        "",
        "eta_grid = 0.5\nd_grid = 0.0\nreps = 20\nseed = 0\nbs_T = 0.5\nexact_counts = false\n"
        "n_starts = 1\nmax_iter = 10000\n",
    ),
    "estimate": (
        "[bootstrap]\nn_boot = 3\n",
        "[detectors]\nT_s = 0.4952\nT_i = 0.4846\neta1 = 0.562\neta2 = 0.575\n"
        "eta3 = 0.567\neta4 = 0.548\nd1 = 1.01e-7\nd2 = 2.11e-7\nd3 = 0.94e-7\n"
        "d4 = 1.00e-7\nrep_rate_hz = 76e6\n\n[settings]\ngammas_s = 1.0\ngammas_i = 1.0\n\n"
        "[estimate]\nmethod = ml\nn_starts = 1\nmax_iter = 10000\nseed = 0\n\n",
        "seed = 0\n",
    ),
}


@pytest.mark.parametrize("command", sorted(REQUIRED_AND_DEFAULTS))
def test_unset_keys_take_the_defaults_the_cli_once_spelled_out(tmp_path, command):
    argv = [command.split("-")[0]]
    if command == "estimate":
        sim = write_config(
            tmp_path, "[pnd]\nsource = random\np_g = 1e-2\n\n[simulate]\nn_m = 1e9\n", name="sim.cfg"
        )
        assert cli.main(["simulate", "--config", sim, "--out", str(tmp_path / "data")]) == 0
        argv += ["--counts", str(tmp_path / "data" / "counts.csv")]
    required, before, after = REQUIRED_AND_DEFAULTS[command]
    outputs = []
    for name, text in (("required", required), ("spelled", before + required + after)):
        out = tmp_path / name
        assert cli.main(argv + ["--config", write_config(tmp_path, text), "--out", str(out)]) == 0
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == {"jsd": 2, "sweep": 1, "sweep-eml": 1, "estimate": 3}[command]
