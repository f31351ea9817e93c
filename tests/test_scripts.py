"""Smoke runs of the study scripts at a tiny size."""

import csv
import math
import pathlib
import runpy

import pytest

from ppskit import jsd as jsd_module
from ppskit.simulate import SWEEP_COLUMNS

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv):
    runpy.run_path(str(SCRIPTS / name))["main"](argv)


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        return next(reader), list(reader)


@pytest.mark.parametrize("method", ["ml-2x2d", "eml-1d"])
def test_accuracy_map_writes_one_cell(tmp_path, method):
    out = tmp_path / "map.csv"
    run_script(
        "accuracy_map.py",
        ["--method", method, "--reps", "2", "--p-g", "1e-2", "--n-m", "1e8", "--out", str(out)],
    )
    header, rows = read_rows(out)
    assert tuple(header) == SWEEP_COLUMNS
    assert [row[header.index("rep")] for row in rows] == ["0", "1"]


def test_heralded_bias_study_writes_one_noise_level(tmp_path):
    out = tmp_path / "bias.csv"
    run_script(
        "heralded_bias_study.py",
        ["--noise", "1e-6", "--reps", "2", "--n-m", "1e9", "--out", str(out)],
    )
    header, rows = read_rows(out)
    assert header == ["d", "rep", "estimator", "g2_s", "g2_i", "gh2_s", "gh2_i"]
    assert [(row[1], row[2]) for row in rows] == [
        (rep, estimator)
        for rep in ("0", "1")
        for estimator in ("raw", "corrected", "reconstructed")
    ]


def test_synthesis_stages_prints_both_kinds(capsys):
    run_script("synthesis_stages.py", ["--n", "64", "--repeats", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["kind", "gaussian_jsd", "segment", "factor", "k_analytic",
                                "columns", "segment_minflt"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["chirped", "rect"]
    for row in rows:
        assert all(float(value) >= 0.0 for value in row[1:5] + row[6:])
        assert row[5] == "direct"  # n = 64 is below the factor's rank cap


@pytest.mark.parametrize("argv, theta_deg", [([], 45.0), (["--theta-deg", "30"], 30.0)])
def test_synthesis_stages_rotates_both_kinds_by_theta(monkeypatch, capsys, argv, theta_deg):
    thetas = []
    build = jsd_module.gaussian_jsd

    def recording_build(sigma_plus, sigma_minus, theta, *args, **kwargs):
        thetas.append(theta)
        return build(sigma_plus, sigma_minus, theta, *args, **kwargs)

    monkeypatch.setattr(jsd_module, "gaussian_jsd", recording_build)
    run_script("synthesis_stages.py", ["--n", "64", "--repeats", "1", *argv])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"n = 64, theta = {theta_deg:g} deg,")
    assert [line.split()[0] for line in lines[2:]] == ["chirped", "rect"]
    assert thetas and all(theta == math.radians(theta_deg) for theta in thetas)


def test_acquisition_stages_times_every_command_at_both_points(capsys):
    run_script("acquisition_stages.py", ["--repeats", "1", "--n-boot", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "medians of 1 in-process runs (ms), 2 bootstrap draws, digest of the files written"
    )
    assert lines[1].split() == ["point", "command", "ms_median", "digest"]
    rows = [line.split() for line in lines[2:]]
    assert [row[:2] for row in rows] == [
        [point, command]
        for point in ("xi1e-04_n1e+08", "xi1e-02_n1e+12")
        for command in ("estimate", "estimate+boot")
    ]
    for row in rows:
        assert float(row[2]) > 0.0
        assert len(row[3]) == 12 and int(row[3], 16) >= 0
    digests = [row[3] for row in rows]
    assert len(set(digests)) == len(digests)
    # The same inputs make the same files, byte for byte.
    run_script("acquisition_stages.py", ["--repeats", "1", "--n-boot", "2"])
    assert [line.split()[3] for line in capsys.readouterr().out.splitlines()[2:]] == digests


def test_sweep_steps_prints_every_benchmark_sweep_kind(capsys):
    run_script("sweep_steps.py", ["--repeats", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "1 cells a kind, 20 reps each: Newton steps of every fit, ms per cell and in its fit, "
        "digest of its fits"
    )
    assert lines[1].split() == [
        "kind", "steps_median", "steps_max", "ms_median", "fit_ms_median", "digest"
    ]
    workloads = runpy.run_path(str(SCRIPTS.parent / "perfbench" / "workloads.py"))
    rows = [line.split() for line in lines[2:-1]]
    assert [row[0] for row in rows] == list(workloads["Sweep"].kinds)
    assert lines[-1].startswith("all (ms: sum of medians)")
    for row in rows + [lines[-1].split()[-5:]]:
        median, largest, ms, fit_ms = float(row[-5]), int(row[-4]), float(row[-3]), float(row[-2])
        assert 0 <= median <= largest and 0.0 < fit_ms < ms
        assert len(row[-1]) == 12 and int(row[-1], 16) >= 0
    digests = [line.split()[-1] for line in lines[2:]]
    assert len(set(digests)) == len(digests)
    # The same seeds fit the same counts to the same bytes.
    run_script("sweep_steps.py", ["--repeats", "1"])
    assert [line.split()[-1] for line in capsys.readouterr().out.splitlines()[2:]] == digests
