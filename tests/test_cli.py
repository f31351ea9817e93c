import csv
import time

import pytest

from ppskit import cli
from ppskit import jsd as jsd_module
from ppskit.detection import read_counts_csv
from ppskit.jsd import segment
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
            raise AssertionError("schmidt_number_svd called on the factored route")

        monkeypatch.setattr(cli, "schmidt_number_svd", no_svd)
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

    def test_unknown_key_rejected_with_name(self, tmp_path, capsys):
        config = write_config(tmp_path, "[jsd]\nsource = gaussian\nwobble = 3\n")
        assert cli.main(["jsd", "--config", config]) == 2
        assert "wobble" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert cli.main(["jsd", "--config", str(tmp_path / "nope.cfg")]) == 2


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

    def test_seed_flag_changes_counts(self, tmp_path):
        config = write_config(tmp_path, SIMULATE_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["simulate", "--config", config, "--out", str(out_a)])
        cli.main(["simulate", "--config", config, "--out", str(out_b), "--seed", "4"])
        assert (out_a / "counts.csv").read_bytes() != (out_b / "counts.csv").read_bytes()

    @pytest.mark.parametrize("key", ["gamma_s", "gamma_i"])
    def test_detector_attenuator_key_exits_2(self, tmp_path, capsys, key):
        # Attenuators belong to [settings]; a detector-level gamma was never read.
        text = SIMULATE_CONFIG.replace("[detectors]\n", f"[detectors]\n{key} = 0.5\n")
        config = write_config(tmp_path, text)
        assert cli.main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_zero_reps_exits_2(self, tmp_path, capsys, where):
        text = SIMULATE_CONFIG + ("reps = 0\n" if where == "config" else "")
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        argv = ["simulate", "--config", config, "--out", str(out)]
        assert cli.main(argv + (["--reps", "0"] if where == "flag" else [])) == 2
        assert "reps" in capsys.readouterr().err
        assert not (out / "counts.csv").exists()

    def test_every_rep_gets_a_counts_file(self, tmp_path):
        config = write_config(tmp_path, SIMULATE_CONFIG)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", config, "--out", str(out), "--reps", "3"]) == 0
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

    def test_missing_counts_flag_exits_2(self, tmp_path):
        config = write_config(tmp_path, DETECTOR_SECTION, name="est.cfg")
        assert cli.main(["estimate", "--config", config]) == 2


class TestBootstrapCommand:
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
                "bootstrap", "--config", config,
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

    @pytest.mark.parametrize(
        "estimate",
        ["max_iter = 1\n", "method = eml\nn_starts = 2\nseed = 11\n"],
        ids=["ml-max-iter-1", "eml"],
    )
    def test_estimate_and_bootstrap_commands_refit_alike(self, tmp_path, estimate):
        settings = "\n[settings]\ngammas_s = 1.0, 0.5\ngammas_i = 1.0, 0.5\n"  # EML needs two
        counts = self._counts(tmp_path, settings)
        config = write_config(
            tmp_path,
            DETECTOR_SECTION + settings + "\n[estimate]\n" + estimate
            + "\n[bootstrap]\nn_boot = 3\nseed = 2\n",
            name="boot.cfg",
        )
        summaries = []
        for argv in (["estimate", "--bootstrap"], ["bootstrap"]):
            out = tmp_path / argv[0]
            cli.main(argv + ["--config", config, "--counts", counts, "--out", str(out)])
            summaries.append((out / "bootstrap_summary.csv").read_bytes())
        assert summaries[0] == summaries[1]

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
        batches, fit_many = [], cli._ESTIMATORS[method]

        def spy_many(record_sets, model, options):
            batches.append([len(records) for records in record_sets])
            return fit_many(record_sets, model, options)

        monkeypatch.setitem(cli._ESTIMATORS, method, spy_many)
        out = tmp_path / "boot"
        argv = ["bootstrap", "--config", config, "--counts", counts, "--out", str(out)]
        assert cli.main(argv) == 0
        assert batches == [[2] * 4, [2] * 4]  # one call per sample size
        with open(out / "bootstrap_summary.csv", newline="") as fh:
            assert {row["n_fail"] for row in csv.DictReader(fh)} == {"0"}

    def test_sample_sizes_are_exact_integers(self, tmp_path, capsys):
        counts = self._counts(tmp_path)
        for sizes, code in (("1e6, 2.5", 2), ("1e9", 0)):
            config = write_config(
                tmp_path,
                DETECTOR_SECTION + f"\n[bootstrap]\nn_boot = 2\nsample_sizes = {sizes}\n",
                name="boot.cfg",
            )
            out = tmp_path / "boot"
            argv = ["bootstrap", "--config", config, "--counts", counts, "--out", str(out)]
            assert cli.main(argv) == code
        assert "sample_sizes" in capsys.readouterr().err
        with open(out / "bootstrap_summary.csv", newline="") as fh:
            assert {row["sample_size"] for row in csv.DictReader(fh)} == {"1000000000"}


# Beyond --config and --out, the flags each command declares (README, "CLI").
COMMAND_FLAGS = {
    "jsd": {},
    "simulate": {"--seed": "3", "--reps": "2"},
    "sweep": {"--seed": "3", "--reps": "2"},
    "estimate": {"--seed": "3", "--counts": "c.csv", "--bootstrap": None},
    "bootstrap": {"--seed": "3", "--counts": "c.csv"},
}
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
            cli.main([command, "--config", config] + flag_argv({flag: ALL_FLAGS[flag]}))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()
