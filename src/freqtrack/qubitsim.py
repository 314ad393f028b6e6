"""Synthetic Ramsey measurement source with configurable frequency-shift noise.

Outcomes are Bernoulli draws from the same measurement law the estimator
assumes (possibly with different parameters, to study model mismatch).  The
true shift eps(t) follows one of three processes: quasistatic (constant
within a run, redrawn between runs), Ornstein-Uhlenbeck drift, or 1/f noise
synthesized as a sum of OU components with log-spaced rates.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .estimator import LikelihoodModel, ProbeSettings, _arrays, likelihood_probability

#: Readout and resonator-depletion overheads per probing cycle [s].
READOUT_TIME = 1.44e-6
DEPLETION_TIME = 2.0e-6

QUASISTATIC = "quasistatic"
OU_DRIFT = "ou_drift"
ONE_OVER_F = "one_over_f"


@functools.cache  # on first use, so that importing the package does not load numpy.random
def _key_only():
    """An ISeedSequence that hands Philox a key's two 64-bit words, and nothing else."""

    class KeyOnly(np.random.bit_generator.ISeedSequence):
        def __init__(self, key: int):
            self.words = [key & (2**64 - 1), key >> 64]

        def generate_state(self, n_words, dtype=np.uint32):  # Philox asks for 2 uint64 words
            return np.array(self.words, np.uint64)

    return KeyOnly


def rng_for_run(master_seed: int, run_index: int, width: int = 2**32) -> np.random.Generator:
    """The master seed's Philox stream from double run_index * width on.

    For a width that is a multiple of 4 (doubles per Philox block) this is row run_index of
    Generator(Philox(key=master_seed)).random((R, width)), for any R.  The default width exceeds any
    campaign row, so its streams do not overlap.  A seed of 2.5 raises TypeError; Philox would take 2.
    Philox gets the key's words directly: Philox(key=s) would also draw OS entropy for a seed
    sequence that a keyed stream never reads, which cost more than the rest of its construction.
    """
    key = operator.index(master_seed)
    if not 0 <= key < 2**128:
        raise ValueError("key must be positive and less than 2**128.")  # as Philox(key=...) words it
    if run_index < 0 or width <= 0 or width % 4:  # else rows alias, or wrap to no row's stream
        raise ValueError(f"need run_index >= 0 and width a positive multiple of 4, got {run_index}, {width}")
    bits, offset = np.random.Philox(_key_only()(key)), run_index * width // 4
    if offset:  # advance(0) moves nothing, and costs about a third of the stream's construction
        bits.advance(offset)
    return np.random.Generator(bits)


def _polar(r: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(radius / (1 + t^2), t) of Box-Muller from uniforms r (radius) and a (angle 2 pi a - pi).

    t is the tangent of the half angle, so the pair's cosine and sine normals are
    scale * (1 - t^2) and scale * 2t; log1p(-r) keeps r = 0 finite.
    """
    t = np.tan(math.pi * (a - 0.5))
    return np.sqrt(-2.0 * np.log1p(-r)) / (1.0 + t * t), t


def standard_normals(u: np.ndarray) -> np.ndarray:
    """Box-Muller standard normals from 2p uniforms in [0, 1) along the last axis.

    The first p set the radii and the next p the angles (_polar).  Their p cosines
    come first, then their p sines.
    """
    p = u.shape[-1] // 2
    scale, t = _polar(u[..., :p], u[..., p : 2 * p])
    return np.concatenate((scale * (1.0 - t * t), scale * (2.0 * t)), axis=-1)


@dataclass(frozen=True, eq=False)
class NoiseProcess:
    """Generator parameters for the true frequency-shift trajectory.

    kind: "quasistatic", "ou_drift" or "one_over_f".
    sigma_eps: stationary standard deviation of the shift [Hz].
    correlation_time: OU correlation time [s] (ou_drift only).
    octave_count: number of OU components for 1/f synthesis (>= 3).
    band: (f_low, f_high) corner-frequency band for 1/f synthesis [Hz].

    A drifting shift is the sum of a bank of OU components of equal variance: one at rate
    1/correlation_time for ou_drift, octave_count at log-spaced rates over the band for one_over_f.
    A quasistatic shift has none.  The bank is set once: rates [1/s], a read-only array, and
    component_variance [Hz^2], the float stationary variance of each component, which together
    give sigma_eps^2.  Processes compare and hash by these two alone (_bank), not by their fields.
    """

    kind: str = QUASISTATIC
    sigma_eps: float = 30e3
    correlation_time: float = 1e-3
    octave_count: int = 6
    band: tuple[float, float] = (1.0, 1e5)

    def __post_init__(self):
        if self.kind not in (QUASISTATIC, OU_DRIFT, ONE_OVER_F):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.sigma_eps < math.inf:  # nan too: it would give every run one estimate
            raise ValueError(f"sigma_eps must be finite and >= 0, got {self.sigma_eps}")
        if self.kind == OU_DRIFT and not self.correlation_time > 0.0:
            raise ValueError("correlation_time must be positive for ou_drift")
        if self.kind == ONE_OVER_F:
            if self.octave_count < 3:
                raise ValueError("one_over_f needs >= 3 OU components")
            if not 0.0 < self.band[0] < self.band[1] < math.inf:
                raise ValueError(f"invalid band {self.band}")
        rates = []
        if self.kind == OU_DRIFT:
            rates = [1.0 / self.correlation_time]
        if self.kind == ONE_OVER_F:
            f_low, f_high = self.band
            rates = 2.0 * math.pi * np.logspace(math.log10(f_low), math.log10(f_high), self.octave_count)
        object.__setattr__(self, "rates", _arrays(rates)[0])
        object.__setattr__(self, "component_variance", self.sigma_eps**2 / max(self.rates.size, 1))
        object.__setattr__(self, "_bank", (self.rates.tobytes(), self.component_variance))

    def __eq__(self, other):
        return isinstance(other, NoiseProcess) and self._bank == other._bank

    def __hash__(self):
        return hash(self._bank)

    def __reduce__(self):  # copies rerun __post_init__, so their rates stay read-only
        return type(self), (self.kind, self.sigma_eps, self.correlation_time, self.octave_count, self.band)

    def decay(self, dt) -> np.ndarray:
        """Factor exp(-rate dt) by which each component relaxes over dt."""
        return np.exp(self.rates * -dt)

    def transition(self, components, decay, z):
        """Exact OU transition of the components, given one standard normal each in z.

        Each component relaxes by its decay factor and gains the innovation
        that keeps it stationary; decay = 0 draws a stationary state.  Works
        elementwise, so a batch of banks can step in lockstep.
        """
        return components * decay + self.innovation(decay) * z

    def innovation(self, decay):
        """Scale of the normal that keeps a component stationary over a step of this decay."""
        return np.sqrt(self.component_variance * (1.0 - decay**2))

    def cycle_step(self, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(decay, kick) of each component over each tau's probing cycle: comp * decay + kick * z."""
        decay = self.decay(((tau + READOUT_TIME) + DEPLETION_TIME)[:, None])  # cycle_duration's order
        return decay, self.innovation(decay)


def initial_state(process: NoiseProcess, rng: np.random.Generator) -> np.ndarray:
    """A stationary bank of the process's components, whose sum is the shift; empty if quasistatic."""
    return process.transition(0.0, 0.0, rng.standard_normal(process.rates.size))


def step_noise(process: NoiseProcess, bank: np.ndarray, dt: float, rng: np.random.Generator) -> np.ndarray:
    """The bank advanced by dt: one exact OU transition, as the lockstep steps a batch of banks."""
    if not dt >= 0.0:  # nan too: it would turn the bank into nan
        raise ValueError(f"dt must be >= 0, got {dt}")
    if np.shape(bank) != process.rates.shape:
        raise ValueError(f"bank of shape {np.shape(bank)}, process of {process.rates.size} noise components")
    return process.transition(bank, process.decay(dt), rng.standard_normal(process.rates.size))


def sample_outcome(
    eps_true: float,
    probe: ProbeSettings,
    model: LikelihoodModel,
    rng: np.random.Generator,
) -> int:
    """Single-shot Ramsey outcome in {-1, +1} with qubit reset between shots."""
    p_plus = float(likelihood_probability(+1, eps_true, probe, model))
    return 1 if rng.random() < p_plus else -1


def cycle_duration(probe: ProbeSettings) -> float:
    """Wall-clock duration of one probing cycle: evolution plus readout and depletion."""
    return probe.tau + READOUT_TIME + DEPLETION_TIME
