"""Exact grid-based reference posterior for validating the Gaussian closed forms.

The posterior over the frequency shift is carried as weights on a uniform
grid; Bayes updates are pointwise likelihood products.  Moments and KL
divergence (in bits) against the Gaussian method-of-moments fit quantify how
good the Gaussian approximation is at a given probe setting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import GaussianBelief, LikelihoodModel, ProbeSettings, likelihood_probability

DEFAULT_POINTS = 2**14
DEFAULT_HALF_WIDTH_SIGMAS = 8.0

_NORM_TOL = 1e-9
_MODE_THRESHOLD_REL = 1e-6


@dataclass(frozen=True)
class GridPosterior:
    """Discretized distribution over the frequency shift on a uniform grid [Hz]."""

    eps_values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.eps_values.shape != self.weights.shape or self.eps_values.ndim != 1:
            raise ValueError("eps_values and weights must be 1-d arrays of equal length")
        if np.any(self.weights < 0.0):
            raise ValueError("weights must be non-negative")
        if abs(float(self.weights.sum()) - 1.0) > _NORM_TOL:
            raise ValueError("weights must sum to 1")


def from_gaussian(
    belief: GaussianBelief,
    half_width_sigmas: float = DEFAULT_HALF_WIDTH_SIGMAS,
    points: int = DEFAULT_POINTS,
) -> GridPosterior:
    """Discretize a Gaussian belief onto a symmetric grid of `points` samples."""
    if points < 2**10:
        raise ValueError(f"points must be >= 1024, got {points}")
    if half_width_sigmas < 6.0:
        raise ValueError(f"half_width_sigmas must be >= 6, got {half_width_sigmas}")
    eps = np.linspace(
        belief.mu - half_width_sigmas * belief.sigma,
        belief.mu + half_width_sigmas * belief.sigma,
        points,
    )
    return GridPosterior(eps, normal_weights(eps, belief.mu, belief.sigma))


def normal_weights(eps: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    """Weights of N(mu, sigma^2) at the grid points eps, normalized to sum to 1."""
    w = np.exp(-0.5 * ((eps - mu) / sigma) ** 2)
    return w / w.sum()


def grid_update(
    p: GridPosterior, m: int, probe: ProbeSettings, model: LikelihoodModel
) -> GridPosterior:
    """Exact Bayes update: multiply by the measurement likelihood and renormalize."""
    w = p.weights * likelihood_probability(m, p.eps_values, probe, model)
    total = float(w.sum())
    if total <= 0.0:
        raise ArithmeticError("posterior weight underflow: likelihood annihilated the grid")
    return GridPosterior(p.eps_values, w / total)


def moments(p: GridPosterior) -> tuple[float, float]:
    """(mean, standard deviation) of the grid distribution, in Hz."""
    mean = float(np.dot(p.weights, p.eps_values))
    var = float(np.dot(p.weights, (p.eps_values - mean) ** 2))
    return mean, np.sqrt(var)


def gaussian_fit(p: GridPosterior) -> GaussianBelief:
    """Method-of-moments Gaussian fit of the grid distribution."""
    mean, std = moments(p)
    return GaussianBelief(mean, std)


def kl_divergence(p: GridPosterior, q: GridPosterior) -> float:
    """Kullback-Leibler divergence D(p || q) in bits, on a common grid.

    Uses the 0*log(0) = 0 convention; raises if p has mass where q vanishes.
    """
    if p.eps_values.shape != q.eps_values.shape or not np.allclose(
        p.eps_values, q.eps_values
    ):
        raise ValueError("p and q must share the same grid")
    support = p.weights > 0.0
    if np.any(q.weights[support] <= 0.0):
        raise ValueError("q must be positive wherever p has mass")
    pw = p.weights[support]
    qw = q.weights[support]
    return float(np.sum(pw * np.log2(pw / qw)))


def count_local_maxima(p: GridPosterior) -> int:
    """Number of interior local maxima, via sign changes of the discrete derivative.

    Weights below _MODE_THRESHOLD_REL * max(weights) are zeroed first so that
    tail rounding noise does not register as spurious modes.
    """
    w = p.weights.copy()
    w[w < _MODE_THRESHOLD_REL * w.max()] = 0.0
    d = np.diff(w)
    sgn = np.sign(d)
    sgn = sgn[sgn != 0]
    return int(np.sum((sgn[:-1] > 0) & (sgn[1:] < 0)))
