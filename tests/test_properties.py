"""Property tests of the closed-form step over random models, beliefs and probes."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from freqtrack import oracle
from freqtrack.estimator import (
    GaussianBelief,
    LikelihoodModel,
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
branches = st.integers(0, 3)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(models(), mus, sigmas, tau_multipliers, outcomes, branches)
def test_step_matches_oracle_moments(model, mu, sigma, mult, m, l):
    tau = mult * optimal_tau(sigma, model.T)
    probe = ProbeSettings(tau=tau, delta_f=optimal_detuning(mu, tau, l), l=l)
    mu_next, sigma_next, clamped = _posterior_moments(mu, sigma, tau, m, model, l)
    grid = oracle.grid_update(oracle.from_gaussian(GaussianBelief(mu, sigma)), m, probe, model)
    mean, std = oracle.moments(grid)
    assert not clamped
    assert abs(mu_next - mean) <= 1e-4 * sigma
    assert abs(sigma_next - std) <= 1e-4 * sigma


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    models(),
    st.lists(st.tuples(mus, sigmas, tau_multipliers, outcomes), min_size=1, max_size=20),
    branches,
)
def test_array_form_matches_scalar_form(model, rows, l):
    mu, sigma, mult, m = (np.array(column) for column in zip(*rows))
    tau = mult * _optimal_tau_vec(sigma, model.inv_T)
    mu_v, sigma_v, clamped_v = _posterior_moments_vec(mu, sigma, tau, m, model, l)
    for i, (mu_i, sigma_i, mult_i, m_i) in enumerate(rows):
        tau_i = mult_i * optimal_tau(sigma_i, model.T)
        mu_s, sigma_s, clamped_s = _posterior_moments(mu_i, sigma_i, tau_i, m_i, model, l)
        # np.exp and math.exp may differ by an ulp, so the forms agree to rounding only.
        assert math.isclose(tau[i], tau_i, rel_tol=1e-14)
        assert abs(mu_v[i] - mu_s) <= 1e-14 * max(abs(mu_s), sigma_i)
        assert math.isclose(sigma_v[i], sigma_s, rel_tol=1e-14)
        assert clamped_v[i] == clamped_s


@settings(max_examples=300, deadline=None, derandomize=True)
@given(models(), mus, sigmas, st.floats(1e-3, 100.0), outcomes, branches)
def test_variance_never_falls_below_bound(model, mu, sigma, mult, m, l):
    tau = mult * optimal_tau(sigma, model.T)
    _, sigma_next, clamped = _posterior_moments(mu, sigma, tau, m, model, l)
    assert not clamped
    assert sigma_next**2 >= MIN_VARIANCE_RATIO * sigma**2 * (1.0 - 1e-12)
