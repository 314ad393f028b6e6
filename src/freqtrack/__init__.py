"""Adaptive Bayesian binary-search estimation of a driven qubit's frequency shift."""

from .estimator import (
    IDEAL_MODEL,
    REFERENCE_MODEL,
    EstimationAborted,
    GaussianBelief,
    LikelihoodModel,
    NumericalConsistencyError,
    ProbeSettings,
    StepRecord,
    design_probe,
    likelihood_probability,
    optimal_detuning,
    optimal_tau,
    run_estimation,
    update,
)
from .oracle import GridPosterior, from_gaussian, grid_update, kl_divergence, moments
from .qubitsim import NoiseProcess, cycle_duration, rng_for_run, sample_outcome

__version__ = "0.1.0"

__all__ = [
    "IDEAL_MODEL",
    "REFERENCE_MODEL",
    "EstimationAborted",
    "GaussianBelief",
    "GridPosterior",
    "LikelihoodModel",
    "NoiseProcess",
    "NumericalConsistencyError",
    "ProbeSettings",
    "StepRecord",
    "cycle_duration",
    "design_probe",
    "from_gaussian",
    "grid_update",
    "kl_divergence",
    "likelihood_probability",
    "moments",
    "optimal_detuning",
    "optimal_tau",
    "rng_for_run",
    "run_estimation",
    "sample_outcome",
    "update",
]
