"""Property tests of the closed-form step over random models, beliefs and probes."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqtrack import oracle
from freqtrack.estimator import (
    TWO_PI,
    GaussianBelief,
    LikelihoodModel,
    NumericalConsistencyError,
    ProbeSettings,
    _optimal_tau_vec,
    _posterior_moments,
    _posterior_moments_vec,
    optimal_detuning,
    optimal_tau,
)

# Every posterior variance is at least this fraction of the prior's: the
# reduction is (beta/bias)^2 x^2 exp(-x^2) sigma^2 with x = 2 pi sigma tau,
# beta <= 1 - |alpha| <= bias and x^2 exp(-x^2) <= 1/e.
MIN_VARIANCE_RATIO = 1.0 - math.exp(-1.0)


@st.composite
def models(draw):
    beta = draw(st.floats(0.05, 1.0))
    slack = 1.0 - beta
    alpha = draw(st.floats(-slack, slack)) if slack > 0.0 else 0.0
    T = draw(st.one_of(st.just(math.inf), st.floats(1e-7, 1e-4)))
    return LikelihoodModel(alpha=alpha, beta=beta, T=T)


mus = st.floats(-2e6, 2e6)
sigmas = st.floats(1e3, 5e6)
tau_multipliers = st.floats(0.05, 4.0)
outcomes = st.sampled_from((-1, 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(models(), mus, sigmas, tau_multipliers, outcomes)
def test_step_matches_oracle_moments(model, mu, sigma, mult, m):
    tau = mult * optimal_tau(sigma, model.T)
    probe = ProbeSettings(tau=tau, delta_f=optimal_detuning(mu, tau))
    mu_next, sigma_next = _posterior_moments(mu, sigma, tau, m, model)
    grid = oracle.grid_update(oracle.from_gaussian(GaussianBelief(mu, sigma)), m, probe, model)
    mean, std = oracle.moments(grid)
    assert abs(mu_next - mean) <= 1e-4 * sigma
    assert abs(sigma_next - std) <= 1e-4 * sigma


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    models(),
    st.lists(st.tuples(mus, sigmas, tau_multipliers, outcomes), min_size=1, max_size=20),
)
def test_array_form_matches_scalar_form(model, rows):
    mu, sigma, mult, m = (np.array(column) for column in zip(*rows))
    tau = mult * _optimal_tau_vec(sigma, model.inv_T)
    mu_v, sigma_v = _posterior_moments_vec(mu, sigma, tau, m, model)
    for i, (mu_i, sigma_i, mult_i, m_i) in enumerate(rows):
        tau_i = mult_i * optimal_tau(sigma_i, model.T)
        mu_s, sigma_s = _posterior_moments(mu_i, sigma_i, tau_i, m_i, model)
        # np.exp and math.exp may differ by an ulp, so the forms agree to rounding only.
        assert math.isclose(tau[i], tau_i, rel_tol=1e-14)
        assert abs(mu_v[i] - mu_s) <= 1e-14 * max(abs(mu_s), sigma_i)
        assert math.isclose(sigma_v[i], sigma_s, rel_tol=1e-14)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(models(), mus, sigmas, st.floats(1e-3, 100.0), outcomes)
def test_variance_never_falls_below_bound(model, mu, sigma, mult, m):
    tau = mult * optimal_tau(sigma, model.T)
    _, sigma_next = _posterior_moments(mu, sigma, tau, m, model)
    assert sigma_next**2 >= MIN_VARIANCE_RATIO * sigma**2 * (1.0 - 1e-12)


@pytest.mark.parametrize("beta", [3.0, math.nan], ids=["negative_variance", "nan_variance"])
def test_impossible_variance_raises_in_both_forms(beta):
    # No valid model gets here, so a duck-typed one outside LikelihoodModel's
    # checks stands in for a numerical fault: beta = 3 drives the variance
    # negative, beta = nan makes it nan.
    model = SimpleNamespace(alpha=0.0, beta=beta, inv_T=0.0)
    sigma = 1e6
    tau = 1.0 / (TWO_PI * sigma)  # x = 2 pi sigma tau = 1, the largest reduction
    with pytest.raises(NumericalConsistencyError):
        _posterior_moments(0.0, sigma, tau, 1, model)
    with pytest.raises(NumericalConsistencyError):
        _posterior_moments_vec(np.zeros(3), np.full(3, sigma), np.full(3, tau), np.ones(3), model)
