"""Synthetic Ramsey measurement source with configurable frequency-shift noise.

Outcomes are Bernoulli draws from the same measurement law the estimator
assumes (possibly with different parameters, to study model mismatch).  The
true shift eps(t) follows one of three processes: quasistatic (constant
within a run, redrawn between runs), Ornstein-Uhlenbeck drift, or 1/f noise
synthesized as a sum of OU components with log-spaced rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .estimator import LikelihoodModel, ProbeSettings, likelihood_probability

#: Readout and resonator-depletion overheads per probing cycle [s].
READOUT_TIME = 1.44e-6
DEPLETION_TIME = 2.0e-6

QUASISTATIC = "quasistatic"
OU_DRIFT = "ou_drift"
ONE_OVER_F = "one_over_f"


def rng_for_run(master_seed: int, run_index: int) -> np.random.Generator:
    """Independent per-run stream derived from (master seed, run index).

    Streams are stable regardless of how runs are scheduled across workers.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(run_index,))
    )


@dataclass(frozen=True)
class NoiseProcess:
    """Generator parameters for the true frequency-shift trajectory.

    kind: "quasistatic", "ou_drift" or "one_over_f".
    sigma_eps: stationary standard deviation of the shift [Hz].
    correlation_time: OU correlation time [s] (ou_drift only).
    octave_count: number of OU components for 1/f synthesis (>= 3).
    band: (f_low, f_high) corner-frequency band for 1/f synthesis [Hz].
    """

    kind: str = QUASISTATIC
    sigma_eps: float = 30e3
    correlation_time: float = 1e-3
    octave_count: int = 6
    band: tuple[float, float] = (1.0, 1e5)

    def __post_init__(self):
        if self.kind not in (QUASISTATIC, OU_DRIFT, ONE_OVER_F):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.sigma_eps < 0.0:
            raise ValueError(f"sigma_eps must be >= 0, got {self.sigma_eps}")
        if self.kind == OU_DRIFT and not self.correlation_time > 0.0:
            raise ValueError("correlation_time must be positive for ou_drift")
        if self.kind == ONE_OVER_F:
            if self.octave_count < 3:
                raise ValueError("one_over_f needs >= 3 OU components")
            if not 0.0 < self.band[0] < self.band[1]:
                raise ValueError(f"invalid band {self.band}")

    def component_rates(self) -> np.ndarray:
        """Log-spaced OU rates [1/s] covering the configured band (1/f only)."""
        f_low, f_high = self.band
        return 2.0 * math.pi * np.logspace(
            math.log10(f_low), math.log10(f_high), self.octave_count
        )


@dataclass(frozen=True)
class QubitState:
    """Simulated qubit: true shift, elapsed clock, noise internals."""

    eps_true: float = 0.0
    clock: float = 0.0
    components: tuple[float, ...] = ()


def initial_state(process: NoiseProcess, rng: np.random.Generator) -> QubitState:
    """Draw a stationary starting state for the given noise process."""
    if process.kind == ONE_OVER_F:
        k = process.octave_count
        comp = rng.normal(0.0, process.sigma_eps / math.sqrt(k), size=k)
        return QubitState(eps_true=float(comp.sum()), components=tuple(comp))
    eps = float(rng.normal(0.0, process.sigma_eps)) if process.sigma_eps > 0 else 0.0
    return QubitState(eps_true=eps)


def step_noise(
    process: NoiseProcess, state: QubitState, dt: float, rng: np.random.Generator
) -> QubitState:
    """Advance the true shift by dt; quasistatic shifts stay put within a run."""
    if dt < 0.0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    clock = state.clock + dt
    if process.kind == QUASISTATIC or dt == 0.0:
        return replace(state, clock=clock)
    if process.kind == OU_DRIFT:
        decay = math.exp(-dt / process.correlation_time)
        sd = process.sigma_eps * math.sqrt(max(0.0, 1.0 - decay * decay))
        eps = state.eps_true * decay + float(rng.normal(0.0, sd)) if sd > 0 else state.eps_true * decay
        return replace(state, eps_true=eps, clock=clock)
    # one_over_f: exact transition of each OU component.
    rates = process.component_rates()
    comp = np.asarray(state.components)
    decay = np.exp(-rates * dt)
    var = (process.sigma_eps**2 / process.octave_count) * (1.0 - decay**2)
    comp = comp * decay + rng.normal(0.0, np.sqrt(var))
    return replace(state, eps_true=float(comp.sum()), components=tuple(comp), clock=clock)


def noise_trajectory(
    process: NoiseProcess, n_samples: int, dt: float, rng: np.random.Generator
) -> np.ndarray:
    """Sampled eps(t) trajectory at uniform spacing dt, starting from stationarity.

    Vectorized over time (recursive filter per OU component), for spectral
    checks that need long records.
    """
    from scipy.signal import lfilter

    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if process.kind == QUASISTATIC:
        return np.full(n_samples, rng.normal(0.0, process.sigma_eps))

    if process.kind == OU_DRIFT:
        rates = np.array([1.0 / process.correlation_time])
        variances = np.array([process.sigma_eps**2])
    else:
        rates = process.component_rates()
        variances = np.full(rates.size, process.sigma_eps**2 / rates.size)

    out = np.zeros(n_samples)
    for rate, var in zip(rates, variances):
        a = math.exp(-rate * dt)
        innov = rng.normal(0.0, math.sqrt(var * (1.0 - a * a)), size=n_samples)
        x0 = rng.normal(0.0, math.sqrt(var))
        innov[0] += a * x0
        comp, _ = lfilter([1.0], [1.0, -a], innov, zi=[0.0])
        out += comp
    return out


def sample_outcome(
    eps_true: float,
    probe: ProbeSettings,
    model: LikelihoodModel,
    rng: np.random.Generator,
) -> int:
    """Single-shot Ramsey outcome in {-1, +1} with qubit reset between shots."""
    p_plus = float(likelihood_probability(+1, eps_true, probe, model))
    return 1 if rng.random() < p_plus else -1


def cycle_duration(
    probe: ProbeSettings,
    readout_time: float = READOUT_TIME,
    depletion_time: float = DEPLETION_TIME,
) -> float:
    """Wall-clock duration of one probing cycle: evolution plus fixed overheads."""
    if readout_time < 0.0 or depletion_time < 0.0:
        raise ValueError("overheads must be non-negative")
    return probe.tau + readout_time + depletion_time
