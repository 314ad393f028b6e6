"""The benchmark's layer table calls the package as it stands: each row runs once, untimed.

perfbench/layers.py times `initial_state`, `step_noise`, `cycle_duration`, `frequentist_estimate`
and every other public call it names.  A change to one of them that breaks a row fails here,
not only in a traced benchmark run.
"""

import math
from pathlib import Path

import pytest

from freqtrack import experiments

ROOT = Path(__file__).resolve().parents[1]

ROWS = {
    "estimator_rows": [
        "estimator.optimal_tau_us",
        "estimator.design_probe_us",
        "estimator.update_us",
        "estimator.run_estimation_us_per_shot",
    ],
    "qubitsim_rows": [
        "qubitsim.rng_for_run_us",
        "qubitsim.sample_outcome_us",
        "qubitsim.step_noise_ou_drift_us",
        "qubitsim.step_noise_one_over_f_us",
        "qubitsim.initial_state_us",
    ],
    "oracle_rows": ["oracle.grid_update_us", "oracle.from_gaussian_us", "oracle.kl_divergence_us"],
    "experiments_rows": [
        "experiments.run_campaign_s",
        "experiments.run_campaign_ou_drift_s",
        "experiments.run_campaign_one_over_f_s",
        "experiments.closed_loop_track_ms",
        "experiments.fit_fringe_ms",
        "experiments.gaussian_validity_sweep_ms",
        "experiments.frequentist_estimate_us",
    ],
}


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import layers

    def once(fn, number, repeats=layers.REPEATS):
        fn()
        return 0.0

    monkeypatch.setattr(layers, "per_call_s", once)
    yield layers
    experiments._outcome_tree.cache_clear()  # the campaign rows built trees at the layer's sizes


@pytest.mark.parametrize("rows", list(ROWS))
def test_layer_rows_run(layers, rows):
    row = getattr(layers, rows)(0)
    assert list(row) == ROWS[rows]
    assert all(math.isfinite(value) for value in row.values()), row
