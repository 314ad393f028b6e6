"""Closed-form adaptive binary-search estimator for a qubit frequency shift.

A Ramsey probe with evolution time tau and detuning delta_f measures
m in {-1, +1} with probability

    P(m | eps) = 1/2 + (m/2) * {alpha + beta * exp(-tau/T) * cos[2*pi*(delta_f - eps)*tau]}

Each probe is designed so the cosine's inflection point sits at the current
belief mean, splitting the prior into two near-equal branches; the posterior
is then re-fit to a Gaussian by method of moments, all in closed form.

Sign convention: with the detuning delta_f = 1/(4 tau) + mu used here, the
exact posterior mean moves *up* for m = +1, as verified against the exact
grid posterior (see tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi
_HALF_TWO_PI_SQ = TWO_PI**2 / 2.0
_SIXTEEN_PI_SQ = 16.0 * math.pi**2


def _sigma_in_range(sigma: float) -> bool:  # the sigma a GaussianBelief holds; NaN is out
    return 2.0**-255.5 <= sigma < 2.0**254


# A posterior variance below this fraction of the prior's is a numerical fault;
# every valid model keeps at least 1 - 1/e of it.
VARIANCE_FLOOR_REL = 1e-12


def _arrays(*values) -> list[np.ndarray]:  # numpy converts a Python-float operand on every call
    return [np.broadcast_to(np.asarray(v, np.float64), np.shape(v)) for v in values]  # read-only


class NumericalConsistencyError(RuntimeError):
    """Raised when a closed-form update produces an impossible value."""


@dataclass(frozen=True, init=False)  # for the hand-written __init__, see the README
class GaussianBelief:
    """Gaussian belief over the frequency shift: mean and standard deviation, in Hz."""

    mu: float
    sigma: float

    def __init__(self, mu: float, sigma: float):
        # _sigma_in_range inline, as it is paid every shot: from 2**-255.5 on, sigma^4 is normal
        if not 2.0**-255.5 <= sigma < 2.0**254:
            raise ValueError(f"sigma must be in [2**-255.5, 2**254), got {sigma}")
        if not math.isfinite(mu):
            raise ValueError(f"mu must be finite, got {mu}")
        d = self.__dict__
        d["mu"], d["sigma"] = mu, sigma


@dataclass(frozen=True)
class LikelihoodModel:
    """Measurement-law parameters: readout bias alpha, visibility beta, coherence time T.

    alpha in (-1, 1), beta in [0, 1], |alpha| + beta <= 1 so all probabilities
    stay in [0, 1].  beta = 0 is the degenerate flat-likelihood model (updates
    are no-ops).  T may be math.inf for a decoherence-free model.  inv_T is
    1/T, exactly zero for infinite T, and inv_T_sq its square; they and the mean step's gains
    2 pi m beta / (1 + m alpha), _gain_up and _gain_down, are floats set once, not fields.
    """

    alpha: float = -0.02
    beta: float = 0.6
    T: float = 10e-6

    def __post_init__(self):
        if not -1.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (-1, 1), got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if abs(self.alpha) + self.beta > 1.0 + 1e-12:
            raise ValueError(
                f"|alpha| + beta must be <= 1, got {abs(self.alpha) + self.beta}"
            )
        if not self.T > 0.0:
            raise ValueError(f"T must be positive (may be inf), got {self.T}")
        beta = self.beta + 0.0  # -0.0 is 0.0: equal models, equal bits
        # Not cached_properties: their __dict__ writes would slow every later read of the fields.
        inv_T, gain = 1.0 / self.T, TWO_PI * beta
        self.__dict__.update(beta=beta, inv_T=inv_T, inv_T_sq=inv_T**2,
                             _gain_down=-gain / (1.0 - self.alpha), _gain_up=gain / (1.0 + self.alpha))


#: Reference SPAM/dephasing values for the transmon this model was fit to.
REFERENCE_MODEL = LikelihoodModel(alpha=-0.02, beta=0.6, T=10e-6)

#: Perfect preparation, readout and coherence.
IDEAL_MODEL = LikelihoodModel(alpha=0.0, beta=1.0, T=math.inf)


@dataclass(frozen=True, init=False)
class ProbeSettings:
    """One Ramsey probe: evolution time tau [s], detuning delta_f [Hz]."""

    tau: float
    delta_f: float

    def __init__(self, tau: float, delta_f: float):
        if not (tau > 0.0 and math.isfinite(tau)):
            raise ValueError(f"tau must be positive and finite, got {tau}")
        d = self.__dict__
        d["tau"], d["delta_f"] = tau, delta_f


def _validate_outcome(m: int) -> int:
    if m not in (-1, 1):
        raise ValueError(f"outcome must be -1 or +1, got {m!r}")
    return m


def likelihood_probability(m: int, eps, probe: ProbeSettings, model: LikelihoodModel):
    """Probability of outcome m given the true shift eps (scalar or ndarray)."""
    _validate_outcome(m)
    return 0.5 + 0.5 * m * _contrast(eps, probe.tau, probe.delta_f, math.exp(-probe.tau * model.inv_T), model)


def _contrast(eps, tau, delta_f, decay, model: LikelihoodModel):
    """x = alpha + beta decay cos(2 pi (delta_f - eps) tau), decay = e^(-tau/T): P(m) = 0.5 + 0.5 m x.

    On floats or broadcasting arrays, so a driver can score many probes, or both outcomes, at once.
    """
    return model.alpha + model.beta * decay * np.cos(TWO_PI * (delta_f - eps) * tau)


def optimal_tau(sigma: float, T: float) -> float:
    """Evolution time minimizing the expected posterior variance.

    tau = (sqrt(16 pi^2 sigma^2 + 1/T^2) - 1/T) / (8 pi^2 sigma^2), evaluated
    in the cancellation-free form 2 / (sqrt(...) + 1/T).  Limits: 1/(2 pi sigma)
    for T -> inf, and T for sigma -> 0.  sigma must lie in a GaussianBelief's range.
    """
    if not _sigma_in_range(sigma):
        raise ValueError(f"sigma must be in [2**-255.5, 2**254), got {sigma}")
    if not T > 0.0:
        raise ValueError(f"T must be positive (may be inf), got {T}")
    inv_T = 1.0 / T
    return _optimal_tau(sigma**2, inv_T, inv_T**2)


def _optimal_tau(var: float, inv_T: float, inv_T_sq: float) -> float:
    """optimal_tau from var = sigma**2, 1/T and 1/T**2; sigma > 0 and T > 0 already checked."""
    return 2.0 / (math.sqrt(_SIXTEEN_PI_SQ * var + inv_T_sq) + inv_T)


def optimal_detuning(mu: float, tau: float) -> float:
    """Detuning placing the likelihood inflection point at the belief mean.

    delta_f = 1/(4 tau) + mu; at eps = mu the cosine vanishes, so the two
    outcomes split the prior into (nearly) equal branches.
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    return 0.25 / tau + mu


def design_probe(belief: GaussianBelief, model: LikelihoodModel) -> ProbeSettings:
    """Greedy-optimal probe for the current belief."""
    tau = _optimal_tau(belief.sigma**2, model.inv_T, model.inv_T_sq)
    return ProbeSettings(tau, 0.25 / tau + belief.mu)  # optimal_detuning, tau > 0 already


def _posterior_moments(
    mu: float, sigma: float, var: float, tau: float, m: int, model: LikelihoodModel
) -> tuple[float, float]:
    """Method-of-moments posterior (mu, sigma) after outcome m.

    The probe is (tau, optimal_detuning(mu, tau)), and var is sigma**2, which
    the caller has computed for tau.  This is the scalar form, on floats, of
    _posterior_moments_vec's expression: the mean steps by
    2 pi m beta var tau damp / (1 + m alpha), and the variance falls by the
    step's square.  Both forms square tau as tau * tau, numpy's square, not
    as tau**2, which is libm pow on a float.  A variance below
    VARIANCE_FLOOR_REL * sigma^2, or NaN, or a posterior sigma below
    2**-255.5, GaussianBelief's floor, raises NumericalConsistencyError.
    """
    if model.beta == 0.0:  # keeps the sign of a zero mu, and sigma's own bits
        return mu, sigma
    damp = math.exp(-tau * model.inv_T - _HALF_TWO_PI_SQ * var * (tau * tau))
    step = (model._gain_up if m == 1 else model._gain_down) * var * tau * damp
    var_next = var - step * step
    if not var_next >= VARIANCE_FLOOR_REL * var:
        raise NumericalConsistencyError(
            f"posterior variance {var_next} is below the floor "
            f"(sigma={sigma}, tau={tau}, model={model})"
        )
    if (sigma_next := math.sqrt(var_next)) < 2.0**-255.5:  # so a belief can hold it
        raise NumericalConsistencyError(f"posterior sigma {sigma_next} is below 2**-255.5")
    return mu + step, sigma_next


def _optimal_tau_vec(var: np.ndarray, model: LikelihoodModel) -> np.ndarray:
    """optimal_tau on an array of variances sigma^2, for the model's T."""
    return 2.0 / (np.sqrt(_SIXTEEN_PI_SQ * var + model.inv_T_sq) + model.inv_T)


def _posterior_moments_vec(
    mu: np.ndarray, var: np.ndarray, tau: np.ndarray, up: np.ndarray, model: LikelihoodModel
) -> tuple[np.ndarray, np.ndarray]:
    """_posterior_moments elementwise on arrays of means and variances: posterior (mu, var).

    up is a boolean array, true where m = +1.  The variance falls by the
    square of the mean step 2 pi m beta var tau damp / (1 + m alpha), the
    scalar form's expression, so the two are bit-identical wherever np.exp
    and math.exp agree.  Its own function, not a type branch in one kernel:
    on the per-shot float path the dispatch costs more than it saves.  At
    beta = 0 both gains are +-0, so the moments keep their values.
    """
    if up.dtype != np.bool_:  # np.where would read an outcome of -1 as m = +1
        raise TypeError(f"up must be a boolean array, got dtype {up.dtype}")
    damp = np.exp(tau * -model.inv_T - _HALF_TWO_PI_SQ * var * (tau * tau))
    step = np.where(up, model._gain_up, model._gain_down) * var * tau * damp
    var_next = var - step * step
    if not (var_next >= VARIANCE_FLOOR_REL * var).all():
        raise NumericalConsistencyError(
            f"posterior variance {np.min(var_next)} is below the floor (model={model})"
        )
    return mu + step, var_next


def update(
    belief: GaussianBelief, probe: ProbeSettings, m: int, model: LikelihoodModel
) -> GaussianBelief:
    """Gaussian method-of-moments belief update for one measured outcome.

    Assumes the probe was built by design_probe (inflection-point detuning).
    The closed forms are the exact posterior moments when the belief is the
    true, Gaussian prior, i.e. for one step.  After several shots the belief
    is a Gaussian projection of the exact posterior (assumed-density
    filtering), and the reported sigma is not the exact posterior's: after
    15 shots of the reference model from a 1 MHz prior, the exact sigma is in
    median about 1.5x larger, while its robust width (1.4826 x its MAD) is
    about 0.8 of the reported sigma.
    """
    _validate_outcome(m)
    mu, sigma = _posterior_moments(belief.mu, belief.sigma, belief.sigma**2, probe.tau, m, model)
    return GaussianBelief(mu, sigma)


@dataclass(frozen=True, init=False)
class StepRecord:
    """One probing cycle of an estimation sequence."""

    step: int
    tau: float
    delta_f: float
    outcome: int
    mu: float
    sigma: float

    def __init__(self, step: int, tau: float, delta_f: float, outcome: int, mu: float, sigma: float):
        d = self.__dict__
        d["step"], d["tau"], d["delta_f"] = step, tau, delta_f
        d["outcome"], d["mu"], d["sigma"] = outcome, mu, sigma


class EstimationAborted(RuntimeError):
    """Outcome source failed mid-sequence; carries the partial result."""

    def __init__(self, belief: GaussianBelief, trace: list[StepRecord], cause: Exception):
        super().__init__(f"outcome source failed at step {len(trace)}: {cause}")
        self.belief = belief
        self.trace = trace
        self.__cause__ = cause


def run_estimation(
    prior: GaussianBelief,
    n_shots: int,
    model: LikelihoodModel,
    measure: Callable[[ProbeSettings], int],
) -> tuple[GaussianBelief, list[StepRecord]]:
    """Run the adaptive binary-search loop for n_shots probing cycles.

    Each cycle recomputes (tau, delta_f) from the current (mu, sigma), carried
    as floats, obtains an outcome from `measure`, and applies the closed-form
    update.  Returns the final belief and the full per-step trace.
    """
    if n_shots < 0:
        raise ValueError(f"n_shots must be >= 0, got {n_shots}")
    mu, sigma = prior.mu, prior.sigma  # _posterior_moments keeps them valid
    inv_T, inv_T_sq = model.inv_T, model.inv_T_sq
    trace: list[StepRecord] = []
    for step in range(n_shots):
        var = sigma**2
        tau = _optimal_tau(var, inv_T, inv_T_sq)
        delta_f = 0.25 / tau + mu
        probe = ProbeSettings(tau, delta_f)
        try:
            m = _validate_outcome(measure(probe))
        except Exception as exc:
            raise EstimationAborted(GaussianBelief(mu, sigma), trace, exc) from exc
        mu, sigma = _posterior_moments(mu, sigma, var, tau, m, model)
        trace.append(StepRecord(step, tau, delta_f, m, mu, sigma))
    return GaussianBelief(mu, sigma), trace
