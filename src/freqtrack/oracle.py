"""Exact grid-based reference posterior for validating the Gaussian closed forms.

The posterior over the frequency shift is carried as weights on a uniform
grid; Bayes updates are pointwise likelihood products.  Moments and KL
divergence (in bits) against the Gaussian method-of-moments fit quantify how
good the Gaussian approximation is at a given probe setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import GaussianBelief, LikelihoodModel, ProbeSettings, _sigma_in_range, likelihood_probability

DEFAULT_POINTS = 2**14
HALF_WIDTH_SIGMAS = 8.0  # the grid spans the belief's mean +- 8 sigma

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
        if not np.all(self.weights >= 0.0):  # written so that nan fails it
            raise ValueError("weights must be non-negative")
        if not abs(float(self.weights.sum()) - 1.0) <= _NORM_TOL:
            raise ValueError("weights must sum to 1")


def from_gaussian(belief: GaussianBelief, points: int = DEFAULT_POINTS) -> GridPosterior:
    """Discretize a Gaussian belief onto a grid of `points` samples, HALF_WIDTH_SIGMAS each side."""
    if points < 2**10:
        raise ValueError(f"points must be >= 1024, got {points}")
    half_width = HALF_WIDTH_SIGMAS * belief.sigma
    eps = np.linspace(belief.mu - half_width, belief.mu + half_width, points)
    return GridPosterior(eps, normal_weights(eps, belief.mu, belief.sigma))


def normal_weights(eps: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    """Weights of N(mu, sigma^2) at the grid points eps, normalized to sum to 1."""
    w = np.exp(-0.5 * ((eps - mu) / sigma) ** 2)
    return w / w.sum()


def grid_update(
    p: GridPosterior, m: int, probe: ProbeSettings, model: LikelihoodModel
) -> GridPosterior:
    """Exact Bayes update: multiply by the measurement likelihood and renormalize."""
    return _reweight(p, likelihood_probability(m, p.eps_values, probe, model))


def _reweight(p: GridPosterior, likelihood: np.ndarray) -> GridPosterior:
    """grid_update's posterior, from the likelihood of its outcome at each grid point."""
    w = p.weights * likelihood
    total = float(w.sum())
    if not total > 0.0:  # nan too: a nan likelihood leaves no posterior
        raise ArithmeticError(f"posterior weight {total}: likelihood annihilated the grid or is nan")
    return GridPosterior(p.eps_values, w / total)


def moments(p: GridPosterior) -> tuple[float, float]:
    """(mean, standard deviation) of the grid distribution, in Hz."""
    mean = float(np.dot(p.weights, p.eps_values))
    var = float(np.dot(p.weights, (p.eps_values - mean) ** 2))
    return mean, math.sqrt(var)


def gaussian_fit(p: GridPosterior) -> GaussianBelief:
    """Method-of-moments Gaussian fit of the grid distribution; ArithmeticError outside a belief's range."""
    mean, std = moments(p)
    if not _sigma_in_range(std):  # a runtime failure, as grid_update's underflow, not a bad argument
        raise ArithmeticError(f"posterior sigma {std} is outside [2**-255.5, 2**254)")
    return GaussianBelief(mean, std)


def kl_divergence(p: GridPosterior, q: GridPosterior) -> float:
    """Kullback-Leibler divergence D(p || q) in bits, on a common grid.

    Uses the 0*log(0) = 0 convention; raises if p has mass where q vanishes.
    """
    if p.eps_values is not q.eps_values and (  # one grid object needs no comparison
        p.eps_values.shape != q.eps_values.shape or not np.allclose(p.eps_values, q.eps_values)
    ):
        raise ValueError("p and q must share the same grid")
    pw, qw = p.weights, q.weights
    if not (support := pw > 0.0).all():  # a full support needs no masked copies
        pw, qw = pw[support], qw[support]
    if np.any(qw <= 0.0):
        raise ValueError("q must be positive wherever p has mass")
    return float(np.sum(pw * np.log2(pw / qw)))


def count_local_maxima(p: GridPosterior) -> int:
    """Number of interior local maxima: rises followed, past any plateau, by a fall.

    Weights below _MODE_THRESHOLD_REL * max(weights) are zeroed first so that
    tail rounding noise does not register as spurious modes.
    """
    w = p.weights
    d = np.diff(np.where(w < _MODE_THRESHOLD_REL * w.max(), 0.0, w))
    d = d[d != 0.0]  # plateaus
    return int(np.count_nonzero((d[:-1] > 0.0) & (d[1:] < 0.0)))
