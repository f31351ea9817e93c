"""Value types holding arrays compare by identity and hash; sizes passed
from Python reject what no run can use."""

import math

import numpy as np
import pytest

from ppskit.detection import CountRecord, OutcomeProbs, SingleCountRecord, conversion_matrix
from ppskit.errors import InvalidInputError
from ppskit.estimate import (
    EstimateOptions,
    EstimateResult,
    LikelihoodModel,
    SingleModeModel,
    ml_estimate,
)
from ppskit.jsd import FilterProfile, JsdGrid, gaussian_jsd, segment
from ppskit.metrics import bootstrap
from ppskit.pnd import PndMatrix, loss_matrix, tmsv_pnd
from ppskit.presets import reference_detectors
from ppskit.simulate import ExperimentConfig, SweepSpec, run_sweep, simulate_records


def _jsd():
    return gaussian_jsd(0.05, 0.24, np.pi / 4, 16, 16, 6.0)


def _pnd():
    return PndMatrix(np.array([[0.9, 0.05], [0.03, 0.02]]))


def _segmentation():
    jsd = _jsd()
    return segment(jsd, FilterProfile.all_pass(jsd.axis_s), FilterProfile.all_pass(jsd.axis_i))


FACTORIES = {
    "Segmentation": _segmentation,
    "PndMatrix": _pnd,
    "CountRecord": lambda: CountRecord(np.full((4, 4), 2.0), 32),
    "SingleCountRecord": lambda: SingleCountRecord(np.array([6.0, 1.0, 2.0, 1.0]), 10),
    "OutcomeProbs": lambda: OutcomeProbs(np.full((4, 4), 1 / 16)),
    "JsdGrid": _jsd,
    "FilterProfile": lambda: FilterProfile.all_pass(np.linspace(-1.0, 1.0, 8)),
    "EstimateResult": lambda: EstimateResult(_pnd(), -1.0, 3, True),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_equality_is_a_bool_and_hash_works(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert (a == a) is True
    assert (a == b) is False  # equal contents, distinct objects
    assert (a != b) is True
    assert isinstance(hash(a), int)
    assert len({a, a, b}) == 2


AXIS = np.linspace(-1.0, 1.0, 8)

BAD_VALUES = {
    "n_starts-fraction": lambda: EstimateOptions(n_starts=2.5),
    "estimate-seed-fraction": lambda: EstimateOptions(seed=2.5),
    "estimate-seed-nan": lambda: EstimateOptions(seed=math.nan),
    "max_iter-nan": lambda: EstimateOptions(max_iter=math.nan),
    "reps-fraction": lambda: SweepSpec(p_g_grid=(1e-2,), n_m_grid=(1e6,), reps=2.5),
    "n_m_grid-fraction": lambda: SweepSpec(p_g_grid=(1e-2,), n_m_grid=(1.5,)),
    "n_m_grid-inf": lambda: SweepSpec(p_g_grid=(1e-2,), n_m_grid=(math.inf,)),
    "experiment-n_m-fraction": lambda: ExperimentConfig(_pnd(), *reference_detectors(), n_m=2.5),
    "experiment-seed-fraction": lambda: ExperimentConfig(_pnd(), *reference_detectors(), seed=2.5),
    "experiment-gamma-above-1": lambda: ExperimentConfig(
        _pnd(), *reference_detectors(), settings=((1, 1.5),)
    ),
    "bootstrap-sample_size-fraction": lambda: bootstrap(FACTORIES["CountRecord"](), 2, 2.5),
    "bootstrap-n_boot-fraction": lambda: bootstrap(FACTORIES["CountRecord"](), 2.5, 10),
    "bootstrap-n_boot-huge": lambda: bootstrap(FACTORIES["CountRecord"](), 10**12, 10),
    "count-record-n_m-fraction": lambda: CountRecord(np.full((4, 4), 2.0), 32.5),
    "single-record-n_m-fraction": lambda: SingleCountRecord(np.array([6.0, 1.0, 2.0, 1.0]), 10.5),
    "count-record-nu-fraction": lambda: CountRecord(np.full((4, 4), 2.0), 32, nu=1.5),
    "count-record-nu-negative": lambda: CountRecord(np.full((4, 4), 2.0), 32, nu=-1),
    "single-record-nu-fraction": lambda: SingleCountRecord(
        np.array([6.0, 1.0, 2.0, 1.0]), 10, nu=0.5
    ),
    "rect-width-nan": lambda: FilterProfile.rect(AXIS, 0.0, math.nan),
    "rect-width-negative": lambda: FilterProfile.rect(AXIS, 0.0, -0.5),
    "rect-center-nan": lambda: FilterProfile.rect(AXIS, math.nan, 0.5),
    "gauss-fwhm-negative": lambda: FilterProfile.gauss(AXIS, 0.0, -0.5),
    "gauss-fwhm-huge": lambda: FilterProfile.gauss(AXIS, 0.0, 1e300),
    "gauss-center-huge": lambda: FilterProfile.gauss(AXIS, 1e300, 0.3),
    "gaussian-jsd-sigma_plus-huge": lambda: gaussian_jsd(sigma_plus=1e300, sigma_minus=0.24),
    "experiment-pnd-subnormalized": lambda: ExperimentConfig(
        PndMatrix(_pnd().p / 2, subnormalized=True), *reference_detectors()
    ),
    "single-n_max-negative": lambda: SingleModeModel.two_detector(0.5, 0.5, 0.0, (1.0,), n_max=-1),
    "single-n_max-zero": lambda: SingleModeModel.one_detector(0.5, 0.0, (1.0,), n_max=0),
    "bipartite-n_max-fraction": lambda: LikelihoodModel(*reference_detectors(), n_max=2.5),
    "bipartite-n_max-zero": lambda: LikelihoodModel(*reference_detectors(), n_max=0),
    "tmsv-n_max-fraction": lambda: tmsv_pnd(0.1, 2.5),
    "tmsv-n_max-huge": lambda: tmsv_pnd(0.01, 1e300),
    "loss-n_max-negative": lambda: loss_matrix(0.5, n_max=-1),
    "loss-n_max-huge": lambda: loss_matrix(0.5, n_max=1e300),
    "loss-n_max-past-float-combs": lambda: loss_matrix(0.5, 1030),
    "conversion-n_max-fraction": lambda: conversion_matrix(0.5, 0.5, 0.5, 2.5),
    "conversion-n_max-huge": lambda: conversion_matrix(0.5, 0.5, 0.5, 10**12),
    "bipartite-n_max-huge": lambda: LikelihoodModel(*reference_detectors(), n_max=10**12),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_unusable_size_or_guard_is_rejected(case):
    with pytest.raises(InvalidInputError):
        BAD_VALUES[case]()


def test_integral_floats_stay_accepted():
    spec = SweepSpec(p_g_grid=(1e-2,), n_m_grid=(1e6,), reps=2.0, n_starts=2.0, max_iter=1e4)
    rows = run_sweep(spec, "eml-2d")
    assert [row["rep"] for row in rows] == [0, 1]
    assert all(row["n_m"] == 1e6 and row["converged"] for row in rows)
    samples = bootstrap(FACTORIES["CountRecord"](), 2.0, 1e3)
    assert [sample.n_m for sample in samples] == [1000, 1000]
    assert EstimateOptions(seed=-3.0).seed == -3
    as_float, as_int = (
        simulate_records(ExperimentConfig(_pnd(), *reference_detectors(), seed=seed))
        for seed in (3.0, 3)
    )
    assert [rec.f.tobytes() for rec in as_float] == [rec.f.tobytes() for rec in as_int]


def test_integral_float_n_max_fits_like_an_int():
    records = [FACTORIES["CountRecord"]()]
    as_float = LikelihoodModel(*reference_detectors(), n_max=2.0)
    as_int = LikelihoodModel(*reference_detectors(), n_max=2)
    assert as_float.n_max == 2 and isinstance(as_float.n_max, int)
    assert as_float.hash() == as_int.hash()
    fit = ml_estimate(records, as_float)
    assert fit.converged
    assert fit.p_hat.p.tobytes() == ml_estimate(records, as_int).p_hat.p.tobytes()


def test_integral_float_nu_fits_like_an_int():
    config = ExperimentConfig(_pnd(), *reference_detectors(), settings=((1.0, 1.0), (0.5, 0.5)))
    first, second = simulate_records(config)
    as_float = CountRecord(second.f, second.n_m, nu=1.0)
    assert as_float.nu == 1 and isinstance(as_float.nu, int)
    fit = ml_estimate([first, as_float], config.model)
    assert fit.converged
    assert fit.p_hat.p.tobytes() == ml_estimate([first, second], config.model).p_hat.p.tobytes()
    single = SingleCountRecord(np.array([6.0, 1.0, 2.0, 1.0]), 10, nu=1.0)
    assert single.nu == 1 and isinstance(single.nu, int)
