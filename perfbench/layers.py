"""The layer table: each layer's public functions timed on their own, untraced.

Every traced run measures the whole table, whatever its workload, so a row
reads the same on every workload; the trace adds what that workload's own
path spends in each layer.  Inputs come from the workload seed.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from .workloads import CLI_COMMANDS, N_SHOTS, SIGMA0, CliSuite, Tally

REPEATS = 5
CAMPAIGN_REPEATS = 3

#: ROADMAP "Baseline" rows: (row, ROADMAP value, unit, per-layer metric, scale to the row).
ROADMAP_BASELINE = (
    ("design_probe", 3.6, "us", "estimator.design_probe_us", 1.0),
    ("update", 4.3, "us", "estimator.update_us", 1.0),
    ("sample_outcome", 2.4, "us", "qubitsim.sample_outcome_us", 1.0),
    ("rng_for_run", 24.0, "us", "qubitsim.rng_for_run_us", 1.0),
    ("run_estimation, 15 shots", 157.0, "us", "estimator.run_estimation_us_per_shot", N_SHOTS),
    ("run_campaign 5000x15 quasistatic", 0.43, "s", "experiments.run_campaign_s", 1.0),
    ("run_campaign 2000x15 OU drift", 0.43, "s", "experiments.run_campaign_ou_drift_s", 1.0),
    ("run_campaign 2000x15 1/f", 1.19, "s", "experiments.run_campaign_one_over_f_s", 1.0),
    ("closed_loop_track 50 x 200", 24.0, "ms", "experiments.closed_loop_track_ms", 1.0),
    ("fit_fringe", 4.6, "ms", "experiments.fit_fringe_ms", 1.0),
    ("grid_update, 16384 points", 390.0, "us", "oracle.grid_update_us", 1.0),
    ("import freqtrack.cli", 0.8, "s", "cli.import_s", 1.0),
)
#: The ROADMAP gives the subcommands' wall time as one range.
ROADMAP_CLI_RANGE_S = (1.0, 1.7)
ROADMAP_TOLERANCE = 0.20


def per_call_s(fn, number: int, repeats: int = REPEATS) -> float:
    """Median over `repeats` batches of the mean time of one fn() call [s]."""
    fn()
    batches = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(number):
            fn()
        batches.append((perf_counter() - t0) / number)
    return statistics.median(batches)


def import_s(root: Path, env: dict, module: str, repeats: int = 3) -> float:
    """Median time to import `module` in a fresh interpreter [s]."""
    code = (
        "import time; t = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def estimator_rows(seed: int) -> dict:
    from freqtrack import estimator as est
    from freqtrack import qubitsim

    model = est.REFERENCE_MODEL
    prior = est.GaussianBelief(0.0, SIGMA0)
    belief = est.GaussianBelief(1234.5, 0.3 * SIGMA0)
    probe = est.design_probe(belief, model)
    rng = np.random.default_rng(seed)
    eps = SIGMA0 * float(rng.standard_normal())
    _, trace = est.run_estimation(prior, N_SHOTS, model, lambda p: qubitsim.sample_outcome(eps, p, model, rng))
    outcomes = [r.outcome for r in trace]

    def replay():
        it = iter(outcomes)
        est.run_estimation(prior, N_SHOTS, model, lambda p: next(it))

    return {
        "estimator.optimal_tau_us": per_call_s(lambda: est.optimal_tau(belief.sigma, model.T), 20000) * 1e6,
        "estimator.design_probe_us": per_call_s(lambda: est.design_probe(belief, model), 10000) * 1e6,
        "estimator.update_us": per_call_s(lambda: est.update(belief, probe, 1, model), 10000) * 1e6,
        "estimator.run_estimation_us_per_shot": per_call_s(replay, 500) / N_SHOTS * 1e6,
    }


def qubitsim_rows(seed: int) -> dict:
    from freqtrack import estimator as est
    from freqtrack import qubitsim as qs

    model = est.REFERENCE_MODEL
    probe = est.design_probe(est.GaussianBelief(0.0, 0.3 * SIGMA0), model)
    rng = np.random.default_rng(seed)
    ou = qs.NoiseProcess(kind=qs.OU_DRIFT)
    one_f = qs.NoiseProcess(kind=qs.ONE_OVER_F)
    ou_state = qs.initial_state(ou, rng)
    one_f_state = qs.initial_state(one_f, rng)
    dt = qs.cycle_duration(probe)
    runs = iter(range(10**9))
    return {
        "qubitsim.rng_for_run_us": per_call_s(lambda: qs.rng_for_run(seed, next(runs)), 2000) * 1e6,
        "qubitsim.sample_outcome_us": per_call_s(lambda: qs.sample_outcome(1e5, probe, model, rng), 10000) * 1e6,
        "qubitsim.step_noise_ou_drift_us": per_call_s(lambda: qs.step_noise(ou, ou_state, dt, rng), 10000) * 1e6,
        "qubitsim.step_noise_one_over_f_us": per_call_s(
            lambda: qs.step_noise(one_f, one_f_state, dt, rng), 5000
        ) * 1e6,
        "qubitsim.initial_state_us": per_call_s(lambda: qs.initial_state(one_f, rng), 5000) * 1e6,
    }


def oracle_rows(seed: int) -> dict:
    from freqtrack import estimator as est
    from freqtrack import oracle

    model = est.REFERENCE_MODEL
    belief = est.GaussianBelief(float(np.random.default_rng(seed).normal(0.0, SIGMA0)), SIGMA0)
    probe = est.design_probe(belief, model)
    grid = oracle.from_gaussian(belief)
    post = oracle.grid_update(grid, 1, probe, model)
    return {
        "oracle.grid_update_us": per_call_s(lambda: oracle.grid_update(grid, 1, probe, model), 200) * 1e6,
        "oracle.from_gaussian_us": per_call_s(lambda: oracle.from_gaussian(belief), 200) * 1e6,
        "oracle.kl_divergence_us": per_call_s(lambda: oracle.kl_divergence(post, grid), 200) * 1e6,
    }


def experiments_rows(seed: int) -> dict:
    from freqtrack import estimator as est
    from freqtrack import experiments as ex
    from freqtrack import qubitsim as qs

    model = est.REFERENCE_MODEL
    prior = est.GaussianBelief(0.0, SIGMA0)

    def campaign_s(runs: int, noise) -> float:
        cfg = ex.CampaignConfig(
            run_count=runs, n_shots=N_SHOTS, prior=prior, truth_model=model,
            update_model=model, noise=noise, master_seed=seed,
        )
        return per_call_s(lambda: ex.run_campaign(cfg), 1, CAMPAIGN_REPEATS)

    def track():
        return ex.closed_loop_track(
            noise=qs.NoiseProcess(kind=qs.QUASISTATIC, sigma_eps=30e3), n_shots=8, m_cycles=50,
            tau_max=7e-6, model=model, seed=seed, repetitions=200, sigma0=30e3,
        )

    record, _ = track()
    rng = np.random.default_rng(seed)
    tau = est.optimal_tau(SIGMA0, model.T)
    multipliers = [0.25, 0.5, 1.0, 2.0, 3.0, 4.0]
    return {
        "experiments.run_campaign_s": campaign_s(5000, None),
        "experiments.run_campaign_ou_drift_s": campaign_s(2000, qs.NoiseProcess(kind=qs.OU_DRIFT)),
        "experiments.run_campaign_one_over_f_s": campaign_s(2000, qs.NoiseProcess(kind=qs.ONE_OVER_F)),
        "experiments.closed_loop_track_ms": per_call_s(track, 1) * 1e3,
        "experiments.fit_fringe_ms": per_call_s(lambda: ex.fit_fringe(record), 5) * 1e3,
        "experiments.gaussian_validity_sweep_ms": per_call_s(
            lambda: ex.gaussian_validity_sweep(prior, model, multipliers), 1
        ) * 1e3,
        "experiments.frequentist_estimate_us": per_call_s(
            lambda: ex.frequentist_estimate(2e5, tau, N_SHOTS, model, rng), 500
        ) * 1e6,
    }


def cli_rows(suite: CliSuite, inputs, tally: Tally, outdir: Path) -> tuple[dict, dict]:
    """cli.import_s and the five subcommands in fresh interpreters; also returns their digests."""
    rows = {"cli.import_s": import_s(suite.root, suite.env, "freqtrack.cli")}
    digests = {}
    for r in suite.suite(inputs, tally, outdir):
        rows[f"cli.{r.command}_s"] = r.wall_s
        rows[f"cli.{r.command}_output_bytes"] = r.output_bytes
        digests[r.command] = r.digest
    return rows, digests


def roadmap_lines(rows: dict) -> list[str]:
    """Each ROADMAP baseline row beside this run's figure, flagged beyond +-20%."""

    def line(label, expected, unit, measured, lo=None, hi=None):
        lo = expected if lo is None else lo
        hi = expected if hi is None else hi
        ratio = measured / expected
        flag = "ok" if lo * (1 - ROADMAP_TOLERANCE) <= measured <= hi * (1 + ROADMAP_TOLERANCE) else "DIFFERS"
        return f"  {label:<36} roadmap {expected:>9.4g} {unit:<3} measured {measured:>9.4g} {unit:<3} x{ratio:5.2f}  {flag}"

    out = [f"roadmap baseline (rows beyond +-{ROADMAP_TOLERANCE:.0%} are flagged DIFFERS; none is tuned to match):"]
    for label, expected, unit, metric, scale in ROADMAP_BASELINE:
        out.append(line(label, expected * 1.0, unit, rows[metric] * scale))
    lo, hi = ROADMAP_CLI_RANGE_S
    for command in CLI_COMMANDS:
        out.append(line(f"cli {command}", (lo + hi) / 2, "s", rows[f"cli.{command}_s"], lo, hi))
    out.append("  run loop _run_single_estimation 42 us: no public entry point; "
               "see experiments.loop_self_us_per_run in the trace")
    return out


def measure_all(seed: int, suite: CliSuite, inputs, tally: Tally, outdir: Path) -> tuple[dict, dict]:
    """The whole layer table and the digests of its CLI pass."""
    rows = {}
    rows.update(estimator_rows(seed))
    rows.update(qubitsim_rows(seed))
    rows.update(oracle_rows(seed))
    rows.update(experiments_rows(seed))
    cli, digests = cli_rows(suite, inputs, tally, outdir)
    rows.update(cli)
    return rows, digests
