"""Value types holding arrays compare by identity and hash."""

import numpy as np
import pytest

from ppskit.detection import CountRecord, OutcomeProbs, SingleCountRecord
from ppskit.estimate import EstimateResult
from ppskit.jsd import FilterProfile, JsdGrid, gaussian_jsd, segment
from ppskit.pnd import PndMatrix


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
