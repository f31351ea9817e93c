"""Simulation and estimation toolkit for photon-pair sources.

Pipeline: a joint spectral density plus bandpass filters synthesizes a
photon number distribution (:mod:`ppskit.jsd`); losses and derived
characteristics live in :mod:`ppskit.pnd`; click statistics with noisy
on/off detectors in :mod:`ppskit.detection`; synthetic experiments and
sweeps in :mod:`ppskit.simulate`; likelihood reconstruction and
count-ratio estimators in :mod:`ppskit.estimate`; accuracy metrics and
bootstrap uncertainties in :mod:`ppskit.metrics`.  The ``ppskit`` command
(:mod:`ppskit.cli`) drives everything from flat config files.
"""

from .errors import (
    ConfigError,
    DataModelMismatchError,
    InvalidInputError,
    PpskitError,
    UndefinedCharacteristicError,
)
from .jsd import (
    FilterProfile,
    JsdGrid,
    PumpGain,
    Segmentation,
    complex_overlap,
    gaussian_jsd,
    pair_overlap,
    pnd_from_segmentation,
    schmidt_number_analytic,
    schmidt_number_svd,
    segment,
    synthesize_pnd,
)
from .pnd import (
    CharacteristicSet,
    PndMatrix,
    apply_loss_bipartite,
    characteristics,
    characteristics_many,
    g2_marginal,
    gh2,
    heralding_bounds,
    loss_matrix,
    marginal,
    pair_gen_prob,
    tmsv_pnd,
)
from .detection import (
    CountRecord,
    DetectorPair,
    OutcomeProbs,
    SingleCountRecord,
    bipartite_probs,
    conversion_matrix,
    noise_correct,
    noise_matrix,
    single_mode_probs,
)
from .estimate import (
    EstimateOptions,
    EstimateResult,
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
from .metrics import bootstrap, bootstrap_stats, fidelity, rmsle, rmsle_many
from .simulate import (
    ExperimentConfig,
    SweepSpec,
    random_pps_pnd,
    random_single_pnd,
    run_sweep,
    sample_counts,
)

__version__ = "0.1.0"
