"""Property tests of the closed-form step over random models, beliefs and probes."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from freqtrack import oracle
from freqtrack.estimator import (
    IDEAL_MODEL,
    TWO_PI,
    GaussianBelief,
    LikelihoodModel,
    NumericalConsistencyError,
    ProbeSettings,
    _optimal_tau_vec,
    _posterior_moments,
    _posterior_moments_vec,
    design_probe,
    likelihood_probability,
    optimal_detuning,
    optimal_tau,
    run_estimation,
    update,
)
from freqtrack.experiments import _lockstep

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
    tau = mult * _optimal_tau_vec(sigma**2, model)
    mu_v, var_v = _posterior_moments_vec(mu, sigma**2, tau, m == 1, model)
    sigma_v = np.sqrt(var_v)
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
    # The array form also reads the model's -1/T and its two gains 2 pi m beta / (1 + m alpha).
    gains = np.array([-TWO_PI * beta, TWO_PI * beta])
    model = SimpleNamespace(
        alpha=0.0, beta=beta, inv_T=0.0, _neg_inv_T=np.array(-0.0), _gains=gains
    )
    sigma = 1e6
    tau = 1.0 / (TWO_PI * sigma)  # x = 2 pi sigma tau = 1, the largest reduction
    with pytest.raises(NumericalConsistencyError):
        _posterior_moments(0.0, sigma, tau, 1, model)
    with pytest.raises(NumericalConsistencyError):
        _posterior_moments_vec(
            np.zeros(3), np.full(3, sigma**2), np.full(3, tau), np.ones(3, bool), model
        )


@st.composite
def edge_models(draw):  # alpha near +-(1 - beta), where the outcome constants differ most
    beta = draw(st.floats(0.05, 1.0))
    alpha = draw(st.sampled_from((-1.0, 1.0))) * (1.0 - beta) * draw(st.floats(0.9, 1.0))
    T = draw(st.one_of(st.just(math.inf), st.floats(1e-7, 1e-4)))
    return LikelihoodModel(alpha=alpha, beta=beta, T=T)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(edge_models(), st.floats(-2.0, 2.0), st.floats(1e-3, 1e12), st.lists(outcomes, max_size=20))
def test_carried_variance_matches_run_estimation(model, mu_in_sigmas, sigma, seq):
    # The lockstep loop's kernels, stepped shot by shot on a carried variance,
    # against the scalar controller loop on the same outcomes.
    mu_v, var_v = np.array([mu_in_sigmas * sigma]), np.array([sigma**2])
    for m in seq:
        tau = _optimal_tau_vec(var_v, model)
        mu_v, var_v = _posterior_moments_vec(mu_v, var_v, tau, np.array([m == 1]), model)
    replay = iter(seq)
    prior = GaussianBelief(mu_in_sigmas * sigma, sigma)
    final, _ = run_estimation(prior, len(seq), model, lambda probe: next(replay))
    tol = 1e-12 * final.sigma
    assert abs(mu_v[0] - final.mu) <= tol
    assert abs(math.sqrt(var_v[0]) - final.sigma) <= tol


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.one_of(models(), edge_models()),
    st.one_of(models(), edge_models()),
    mus,
    sigmas,
    st.floats(-5.0, 5.0),
    st.floats(0.0, 1.0, exclude_max=True),
)
def test_lockstep_outcome_is_u_below_the_truth_models_p_plus(truth, update_model, mu, sigma, k, u):
    # The loop tests the sine form beta e^(-tau/T) sin(2 pi (mu - eps) tau) < 1 + alpha - 2u;
    # it must be the same event as u < P(+1) at the probe design_probe builds.
    eps = mu + k * sigma
    probe = design_probe(GaussianBelief(mu, sigma), update_model)
    p_plus = likelihood_probability(+1, eps, probe, truth)
    assume(abs(u - p_plus) > 1e-12)
    mu_next, _, _ = _lockstep(
        np.array([mu]), np.array([sigma]), np.array([eps]), np.array([[u]]), truth, update_model
    )
    assert (mu_next[0] > mu) == (u < p_plus)


IDEAL_SHRINK = math.sqrt(1.0 - math.exp(-1.0))  # per-shot sigma ratio, ideal model


def _raises_subnormal(run):
    try:
        run()
    except NumericalConsistencyError as exc:
        assert "subnormal" in str(exc)
        return True
    return False


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 1200), st.floats(1.0, 1e6), st.sampled_from((-1.0, 1.0)))
def test_lockstep_raises_on_the_same_shot_counts_as_run_estimation(n, ulps, sign):
    # sigma0 puts sigma**4 at the smallest normal double on entering shot n, give or take
    # ulps * n units of 2**-52.  The two forms round differently, so closer than ~n * 2**-55
    # to that point (measured: 2.7e-17 n at most) their decisions may differ.
    sigma0 = 2.0**-255.5 / IDEAL_SHRINK ** (n - 1) * (1.0 + sign * ulps * n * 2.0**-52)
    zero, u = np.zeros(1), np.full((n, 1), 0.5)
    in_array_form = _raises_subnormal(
        lambda: _lockstep(zero, np.array([sigma0]), zero, u, IDEAL_MODEL, IDEAL_MODEL)
    )
    in_scalar_form = _raises_subnormal(
        lambda: run_estimation(GaussianBelief(0.0, sigma0), n, IDEAL_MODEL, lambda probe: 1)
    )
    assert in_array_form == in_scalar_form


def test_array_form_rejects_non_boolean_outcomes():
    # A take would read an outcome of -1 as the gain of +1.
    var = np.full(2, 1e12)
    tau = _optimal_tau_vec(var, IDEAL_MODEL)
    with pytest.raises(TypeError, match="boolean"):
        _posterior_moments_vec(np.zeros(2), var, tau, np.array([1, -1]), IDEAL_MODEL)


# The scalar closed form exactly as it was written before its leading constants
# were folded and tau**2 was computed once.  Folding only what left-to-right
# evaluation computes first leaves every bit in place, so the current form
# must equal these with ==.


def _optimal_tau_written_out(sigma, T):
    inv_T = 0.0 if math.isinf(T) else 1.0 / T
    root = math.sqrt(16.0 * math.pi**2 * sigma**2 + inv_T**2)
    return 2.0 / (root + inv_T)


def _posterior_moments_written_out(mu, sigma, tau, m, model):
    b = model.beta
    var = sigma**2
    inv_T = 0.0 if math.isinf(model.T) else 1.0 / model.T
    damp = math.exp(-tau * inv_T - TWO_PI**2 / 2.0 * var * tau**2)
    bias = 1.0 + m * model.alpha
    mu_next = mu + TWO_PI * m * b * var * tau * damp / bias
    var_next = var - TWO_PI**2 * b**2 * sigma**4 * tau**2 * damp**2 / bias**2
    return mu_next, math.sqrt(var_next)


wide_sigmas = st.floats(1e-3, 1e12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(models(), mus, wide_sigmas, tau_multipliers, outcomes)
def test_closed_form_bits_equal_the_written_out_expressions(model, mu, sigma, mult, m):
    tau_opt = optimal_tau(sigma, model.T)
    assert tau_opt == _optimal_tau_written_out(sigma, model.T)
    tau = mult * tau_opt
    assert _posterior_moments(mu, sigma, tau, m, model) == _posterior_moments_written_out(
        mu, sigma, tau, m, model
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(models(), mus, wide_sigmas, st.lists(outcomes, max_size=20))
def test_controller_loop_equals_run_estimation_and_the_written_out_loop(model, mu, sigma, seq):
    prior = GaussianBelief(mu, sigma)
    belief, steps = prior, []
    for m in seq:
        probe = design_probe(belief, model)
        belief = update(belief, probe, m, model)
        steps.append((probe.tau, probe.delta_f, m, belief.mu, belief.sigma))

    replay = iter(seq)
    final, trace = run_estimation(prior, len(seq), model, lambda probe: next(replay))
    assert final == belief
    assert [(r.tau, r.delta_f, r.outcome, r.mu, r.sigma) for r in trace] == steps
    assert [r.step for r in trace] == list(range(len(seq)))

    mu_ref, sigma_ref = mu, sigma
    for tau, delta_f, m, mu_next, sigma_next in steps:
        assert tau == _optimal_tau_written_out(sigma_ref, model.T)
        assert delta_f == 0.25 / tau + mu_ref
        mu_ref, sigma_ref = _posterior_moments_written_out(mu_ref, sigma_ref, tau, m, model)
        assert (mu_next, sigma_next) == (mu_ref, sigma_ref)
