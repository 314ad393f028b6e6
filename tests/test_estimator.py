"""Closed-form estimator: probe design, belief updates, estimation loop."""

import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

from freqtrack.estimator import (
    IDEAL_MODEL,
    REFERENCE_MODEL,
    EstimationAborted,
    GaussianBelief,
    LikelihoodModel,
    NumericalConsistencyError,
    ProbeSettings,
    StepRecord,
    design_probe,
    likelihood_probability,
    optimal_detuning,
    optimal_tau,
    run_estimation,
    update,
)

IDEAL_SHRINK = math.sqrt(1.0 - math.exp(-1.0))  # per-step sigma ratio, ideal limit


class TestLikelihoodModel:
    def test_reference_values(self):
        assert REFERENCE_MODEL.alpha == -0.02
        assert REFERENCE_MODEL.beta == 0.6
        assert REFERENCE_MODEL.T == pytest.approx(10e-6)

    @pytest.mark.parametrize(
        "alpha,beta,T",
        [(0.5, 0.6, 1e-6), (-1.0, 0.5, 1e-6), (0.0, 1.2, 1e-6), (0.0, 1.0, 0.0), (0.0, 1.0, -1.0)],
    )
    def test_invalid_parameters_rejected(self, alpha, beta, T):
        with pytest.raises(ValueError):
            LikelihoodModel(alpha=alpha, beta=beta, T=T)

    def test_infinite_coherence_time_is_first_class(self):
        model = LikelihoodModel(alpha=0.0, beta=1.0, T=math.inf)
        assert model.inv_T == 0.0

    def test_inverse_coherence_time_is_set_once_and_is_not_a_field(self):
        model = LikelihoodModel(alpha=0.0, beta=0.5, T=4e-6)
        assert model.inv_T == 1.0 / 4e-6
        assert [f.name for f in dataclasses.fields(model)] == ["alpha", "beta", "T"]
        assert repr(model) == "LikelihoodModel(alpha=0.0, beta=0.5, T=4e-06)"
        assert model == LikelihoodModel(0.0, 0.5, 4e-6)
        assert model != LikelihoodModel(0.0, 0.5, 2e-6)
        assert dataclasses.replace(model, T=2e-6).inv_T == 1.0 / 2e-6
        assert pickle.loads(pickle.dumps(model)).inv_T == model.inv_T
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.inv_T = 0.0


VALUE_TYPES = [
    GaussianBelief(mu=-3.5e4, sigma=2.5e5),
    ProbeSettings(tau=3.2e-7, delta_f=7.8e5),
    StepRecord(step=4, tau=3.2e-7, delta_f=7.8e5, outcome=-1, mu=-3.5e4, sigma=2.5e5),
]


class TestValueTypes:
    """The per-shot value classes keep the frozen-dataclass contract with their own __init__."""

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_belief_rejects_sigma(self, sigma):
        with pytest.raises(ValueError, match=re.escape(f"sigma must be positive and finite, got {sigma}")):
            GaussianBelief(0.0, sigma)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_belief_rejects_mu(self, mu):
        with pytest.raises(ValueError, match=re.escape(f"mu must be finite, got {mu}")):
            GaussianBelief(mu, 1e6)

    def test_belief_checks_sigma_before_mu(self):
        with pytest.raises(ValueError, match="sigma must be"):
            GaussianBelief(math.nan, -1.0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
    def test_probe_rejects_tau(self, tau):
        with pytest.raises(ValueError, match=re.escape(f"tau must be positive and finite, got {tau}")):
            ProbeSettings(tau, 0.0)

    @pytest.mark.parametrize("value", VALUE_TYPES, ids=lambda v: type(v).__name__)
    def test_frozen(self, value):
        for f in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.extra = 1.0

    @pytest.mark.parametrize("value", VALUE_TYPES, ids=lambda v: type(v).__name__)
    def test_fields_eq_hash_and_repr(self, value):
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        assert vars(value) == fields
        twin = type(value)(*fields.values())
        assert twin == value and hash(twin) == hash(value) and twin is not value
        assert repr(value) == f"{type(value).__name__}(" + ", ".join(
            f"{name}={v!r}" for name, v in fields.items()
        ) + ")"
        first = dataclasses.fields(value)[0].name
        other = dataclasses.replace(value, **{first: fields[first] * 2})
        assert other != value and getattr(other, first) == fields[first] * 2

    @pytest.mark.parametrize("value", VALUE_TYPES, ids=lambda v: type(v).__name__)
    def test_pickle_round_trip(self, value):
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value) and back == value and hash(back) == hash(value)

    def test_replace_revalidates(self):
        with pytest.raises(ValueError, match="sigma must be"):
            dataclasses.replace(GaussianBelief(0.0, 1e6), sigma=-1.0)
        with pytest.raises(ValueError, match="mu must be"):
            dataclasses.replace(GaussianBelief(0.0, 1e6), mu=math.inf)
        with pytest.raises(ValueError, match="tau must be"):
            dataclasses.replace(ProbeSettings(1e-7, 0.0), tau=0.0)

    def test_arguments_as_the_generated_init_takes_them(self):
        assert GaussianBelief(sigma=2.0, mu=1.0) == GaussianBelief(1.0, 2.0)
        with pytest.raises(TypeError):
            GaussianBelief(1.0)
        with pytest.raises(TypeError):
            ProbeSettings(1e-7, 0.0, 1.0)


class TestLikelihoodProbability:
    def test_zero_phase_ideal_is_certain(self):
        probe = ProbeSettings(tau=123e-9, delta_f=0.0)
        assert likelihood_probability(1, 0.0, probe, IDEAL_MODEL) == pytest.approx(1.0)

    def test_reference_model_at_inflection(self):
        # cosine term vanishes at the inflection point: P(+1) = (1 + alpha)/2
        tau = 200e-9
        probe = ProbeSettings(tau=tau, delta_f=optimal_detuning(0.0, tau))
        assert likelihood_probability(1, 0.0, probe, REFERENCE_MODEL) == pytest.approx(0.49)

    def test_outcome_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            probe = ProbeSettings(tau=rng.uniform(1e-9, 1e-5), delta_f=rng.uniform(-1e7, 1e7))
            model = _random_model(rng)
            eps = rng.uniform(-5e6, 5e6)
            p_plus = likelihood_probability(1, eps, probe, model)
            p_minus = likelihood_probability(-1, eps, probe, model)
            assert p_plus + p_minus == pytest.approx(1.0, abs=1e-15)
            assert 0.0 <= p_plus <= 1.0

    def test_invalid_outcome_rejected(self):
        probe = ProbeSettings(tau=1e-7, delta_f=0.0)
        with pytest.raises(ValueError):
            likelihood_probability(0, 0.0, probe, IDEAL_MODEL)


class TestOptimalTau:
    def test_infinite_coherence_limit(self):
        sigma = 1e6
        assert optimal_tau(sigma, math.inf) == pytest.approx(1.0 / (2.0 * math.pi * sigma))

    def test_reference_case(self):
        assert optimal_tau(1e6, 10e-6) == pytest.approx(157.9e-9, rel=1e-3)

    def test_small_sigma_limit_is_coherence_time(self):
        T = 10e-6
        assert optimal_tau(1e-3, T) == pytest.approx(T, rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            optimal_tau(0.0, 1e-6)
        with pytest.raises(ValueError):
            optimal_tau(-1.0, 1e-6)

    def test_local_minimum_of_expected_posterior_variance(self):
        # Expected posterior variance, from the closed-form variance update,
        # must not beat the optimal tau at +-10% perturbations.
        rng = np.random.default_rng(42)
        for _ in range(100):
            sigma = 10 ** rng.uniform(3, 7)
            T = 10 ** rng.uniform(-7, -3) if rng.random() < 0.8 else math.inf
            tau_star = optimal_tau(sigma, T)
            values = [_expected_posterior_variance(sigma, t, T) for t in
                      (0.9 * tau_star, tau_star, 1.1 * tau_star)]
            assert values[1] <= values[0] + 1e-12 * sigma**2
            assert values[1] <= values[2] + 1e-12 * sigma**2


def _expected_posterior_variance(sigma, tau, T, beta=1.0):
    inv_T = 0.0 if math.isinf(T) else 1.0 / T
    damp2 = math.exp(-2.0 * tau * inv_T - 4.0 * math.pi**2 * sigma**2 * tau**2)
    return sigma**2 - 4.0 * math.pi**2 * beta**2 * sigma**4 * tau**2 * damp2


def _random_model(rng):
    alpha = rng.uniform(-0.3, 0.3)
    beta = rng.uniform(0.05, 1.0 - abs(alpha))
    T = 10 ** rng.uniform(-6, -4) if rng.random() < 0.7 else math.inf
    return LikelihoodModel(alpha=alpha, beta=beta, T=T)


class TestOptimalDetuning:
    def test_quarter_period_offset(self):
        assert optimal_detuning(0.0, 250e-9) == pytest.approx(1e6)

    def test_with_mean_offset(self):
        tau = optimal_tau(1e6, 10e-6)
        assert optimal_detuning(100e3, tau) == pytest.approx(1.6833e6, rel=1e-4)

    def test_inflection_point_probability(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            mu = rng.uniform(-2e6, 2e6)
            tau = rng.uniform(1e-8, 1e-5)
            model = _random_model(rng)
            probe = ProbeSettings(tau=tau, delta_f=optimal_detuning(mu, tau))
            for m in (-1, 1):
                expected = (1.0 + m * model.alpha) / 2.0
                assert likelihood_probability(m, mu, probe, model) == pytest.approx(
                    expected, abs=1e-9
                )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            optimal_detuning(0.0, 0.0)


class TestUpdate:
    def test_flat_likelihood_is_noop(self):
        model = LikelihoodModel(alpha=0.0, beta=0.0, T=10e-6)
        belief = GaussianBelief(3e5, 1e6)
        probe = design_probe(belief, model)
        assert update(belief, probe, 1, model) == belief

    def test_reference_single_step(self):
        # One optimal probe from (0, 1 MHz) with the reference model; values
        # frozen from the exact grid posterior (tests/test_oracle.py checks
        # the equivalence directly).
        belief = GaussianBelief(0.0, 1e6)
        probe = design_probe(belief, REFERENCE_MODEL)
        after = update(belief, probe, 1, REFERENCE_MODEL)
        assert abs(after.mu) == pytest.approx(365.5e3, rel=1e-3)
        assert after.sigma == pytest.approx(930.8e3, rel=1e-3)

    def test_sigma_outcome_independent_when_unbiased(self):
        model = LikelihoodModel(alpha=0.0, beta=0.7, T=5e-6)
        belief = GaussianBelief(2e5, 8e5)
        probe = design_probe(belief, model)
        up = update(belief, probe, 1, model)
        down = update(belief, probe, -1, model)
        assert up.sigma == pytest.approx(down.sigma, rel=1e-15)

    def test_branch_symmetry_when_unbiased(self):
        model = LikelihoodModel(alpha=0.0, beta=0.8, T=math.inf)
        belief = GaussianBelief(-4e5, 6e5)
        probe = design_probe(belief, model)
        up = update(belief, probe, 1, model)
        down = update(belief, probe, -1, model)
        assert up.mu - belief.mu == pytest.approx(-(down.mu - belief.mu), rel=1e-12)

    def test_monotone_shrinkage(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            model = LikelihoodModel(alpha=0.0, beta=rng.uniform(0.05, 1.0), T=math.inf)
            belief = GaussianBelief(rng.uniform(-1e6, 1e6), 10 ** rng.uniform(3, 7))
            probe = design_probe(belief, model)
            m = 1 if rng.random() < 0.5 else -1
            assert update(belief, probe, m, model).sigma < belief.sigma

    def test_ideal_per_step_ratio(self):
        belief = GaussianBelief(0.0, 1e6)
        probe = design_probe(belief, IDEAL_MODEL)
        for m in (-1, 1):
            after = update(belief, probe, m, IDEAL_MODEL)
            assert after.sigma / belief.sigma == pytest.approx(IDEAL_SHRINK, rel=1e-13)

    def test_subnormal_sigma_pow_4_raises(self):
        # A subnormal sigma**4 has lost bits: one ideal step at sigma = 1.3e-81
        # shrank sigma by 0.609 instead of IDEAL_SHRINK.
        for sigma in (1.3e-81, 1e-80):
            belief = GaussianBelief(0.0, sigma)
            with pytest.raises(NumericalConsistencyError, match="subnormal"):
                update(belief, design_probe(belief, IDEAL_MODEL), 1, IDEAL_MODEL)
        belief = GaussianBelief(0.0, 1.3e-77)  # sigma**4 just above the smallest normal
        after = update(belief, design_probe(belief, IDEAL_MODEL), 1, IDEAL_MODEL)
        assert after.sigma / belief.sigma == pytest.approx(IDEAL_SHRINK, rel=1e-13)


class TestRunEstimation:
    def test_zero_shots_returns_prior(self):
        prior = GaussianBelief(0.0, 1e6)
        final, trace = run_estimation(prior, 0, REFERENCE_MODEL, lambda probe: 1)
        assert final == prior
        assert trace == []

    def test_ideal_geometric_decay_outcome_independent(self):
        prior = GaussianBelief(0.0, 1e6)
        rng = np.random.default_rng(3)
        final, trace = run_estimation(
            prior, 15, IDEAL_MODEL, lambda probe: 1 if rng.random() < 0.5 else -1
        )
        assert final.sigma / prior.sigma == pytest.approx(IDEAL_SHRINK**15, rel=1e-12)
        assert final.sigma / prior.sigma == pytest.approx(0.0321, rel=1e-2)

    def test_trace_contents(self):
        prior = GaussianBelief(0.0, 1e6)
        final, trace = run_estimation(prior, 5, REFERENCE_MODEL, lambda probe: -1)
        assert len(trace) == 5
        assert [r.step for r in trace] == list(range(5))
        assert trace[-1].mu == final.mu and trace[-1].sigma == final.sigma
        sigmas = [prior.sigma] + [r.sigma for r in trace]
        assert all(b < a for a, b in zip(sigmas, sigmas[1:]))

    def test_outcome_source_failure_keeps_partial_trace(self):
        calls = []

        def flaky(probe):
            if len(calls) == 3:
                raise ConnectionError("source went away")
            calls.append(probe)
            return 1

        with pytest.raises(EstimationAborted) as err:
            run_estimation(GaussianBelief(0.0, 1e6), 10, REFERENCE_MODEL, flaky)
        assert len(err.value.trace) == 3
        assert isinstance(err.value.__cause__, ConnectionError)

    def test_negative_shot_count_rejected(self):
        with pytest.raises(ValueError):
            run_estimation(GaussianBelief(0.0, 1e6), -1, REFERENCE_MODEL, lambda p: 1)
