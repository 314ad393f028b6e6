"""Closed-form estimator: probe design, belief updates, estimation loop."""

import copy
import dataclasses
import math
import pickle
import re
import sys

import numpy as np
import pytest

from freqtrack.estimator import (
    IDEAL_MODEL,
    REFERENCE_MODEL,
    TWO_PI,
    EstimationAborted,
    GaussianBelief,
    LikelihoodModel,
    NumericalConsistencyError,
    ProbeSettings,
    StepRecord,
    _sigma_in_range,
    design_probe,
    likelihood_probability,
    optimal_detuning,
    optimal_tau,
    run_estimation,
    update,
)

IDEAL_SHRINK = math.sqrt(1.0 - math.exp(-1.0))  # per-step sigma ratio, ideal limit
FLOOR, CEILING = 2.0**-255.5, 2.0**254  # the sigma range, [FLOOR, CEILING)
RANGE_ERROR = "sigma must be in [2**-255.5, 2**254), got "


class TestSigmaRange:
    """GaussianBelief, _sigma_in_range and optimal_tau hold one range of sigma."""

    def test_floor_is_the_smallest_sigma_whose_pow_4_is_normal(self):
        assert FLOOR**4 >= sys.float_info.min > math.nextafter(FLOOR, 0.0) ** 4

    @pytest.mark.parametrize(
        "sigma",
        [FLOOR, math.nextafter(FLOOR, 1.0), 1.3e-77, 1.0, 1e6, 1e76,
         math.nextafter(math.nextafter(CEILING, 0.0), 0.0), math.nextafter(CEILING, 0.0)],
        ids=str,
    )
    def test_accepted(self, sigma):
        assert _sigma_in_range(sigma) and GaussianBelief(0.0, sigma).sigma == sigma
        assert 0.0 < optimal_tau(sigma, math.inf) < math.inf
        assert 0.0 < sigma**2 < math.inf and sys.float_info.min <= sigma**4 < math.inf

    # Below FLOOR sigma**4 is subnormal: design_probe divided by zero at 1e-170, and at 1e-100 it
    # returned tau = 1.59e99 s for a belief update rejected.  From CEILING on, (2 pi beta)^2 sigma^4
    # overflowed in the earlier step form: design_probe and update raised OverflowError at 1e200.
    @pytest.mark.parametrize(
        "sigma",
        [math.nextafter(FLOOR, 0.0), 1e-300, 1e-200, 1e-170, 1e-100, 1e-82, 1e-80, CEILING,
         math.nextafter(CEILING, math.inf), 1e77, math.nextafter(2.0**256, 0.0), 2.0**256, 1e100,
         1e200, 2.0**508, 1e300, 0.0, -1.0, math.nan, math.inf],
        ids=str,
    )
    def test_rejected(self, sigma):
        assert not _sigma_in_range(sigma)
        with pytest.raises(ValueError, match=re.escape(f"{RANGE_ERROR}{sigma}")):
            GaussianBelief(0.0, sigma)
        with pytest.raises(ValueError, match=re.escape(f"{RANGE_ERROR}{sigma}")):
            optimal_tau(sigma, 1e-5)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: design_probe(GaussianBelief(0.0, 1e-170), IDEAL_MODEL),  # ZeroDivisionError
            lambda: run_estimation(GaussianBelief(0.0, 1e-170), 1, IDEAL_MODEL, lambda p: 1),
            lambda: design_probe(GaussianBelief(0.0, 1e-100), IDEAL_MODEL),  # tau = 1.59e99 s
        ],
        ids=["design_probe 1e-170", "run_estimation 1e-170", "design_probe 1e-100"],
    )
    def test_a_belief_it_cannot_probe_is_not_built(self, call):
        with pytest.raises(ValueError, match=re.escape(RANGE_ERROR)):
            call()


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

    def test_float_constants_survive_copies(self):
        # Both closed forms read 1/T, 1/T^2 and the mean step's gains 2 pi m beta / (1 + m alpha).
        model = LikelihoodModel(alpha=0.1, beta=0.5, T=4e-6)
        twins = (model, pickle.loads(pickle.dumps(model)), copy.deepcopy(model), dataclasses.replace(model))
        for twin in twins:
            assert twin == model and hash(twin) == hash(model) and repr(twin) == repr(model)
            constants = (twin.inv_T, twin.inv_T_sq, twin._gain_down, twin._gain_up)
            assert all(type(value) is float for value in constants)
            assert constants == (2.5e5, 2.5e5**2, -TWO_PI * 0.5 / 0.9, TWO_PI * 0.5 / 1.1)
        assert str(-LikelihoodModel(0.0, 1.0, math.inf).inv_T) == "-0.0"  # the array forms' -1/T

    def test_negative_zero_beta_is_stored_as_zero(self):
        # beta = -0.0 compares equal to 0.0, so it must step alike: its gains would be +-0 swapped.
        flat, negative_zero = LikelihoodModel(-0.02, 0.0, 1e-5), LikelihoodModel(-0.02, -0.0, 1e-5)
        for model in (flat, negative_zero):
            assert [math.copysign(1.0, gain) for gain in (model._gain_down, model._gain_up)] == [-1.0, 1.0]
        assert math.copysign(1.0, negative_zero.beta) == 1.0


VALUE_TYPES = [
    GaussianBelief(mu=-3.5e4, sigma=2.5e5),
    ProbeSettings(tau=3.2e-7, delta_f=7.8e5),
    StepRecord(step=4, tau=3.2e-7, delta_f=7.8e5, outcome=-1, mu=-3.5e4, sigma=2.5e5),
]


class TestValueTypes:
    """The per-shot value classes keep the frozen-dataclass contract with their own __init__."""

    def test_design_probe_and_update_run_at_the_largest_sigma(self):
        largest = GaussianBelief(0.0, math.nextafter(2.0**254, 0.0))
        for m in (-1, 1):
            after = update(largest, design_probe(largest, REFERENCE_MODEL), m, REFERENCE_MODEL)
            assert 0.0 < after.sigma < largest.sigma and math.isfinite(after.mu)

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
        for T in (0.0, -1e-6, math.nan):
            with pytest.raises(ValueError, match="T must be positive"):
                optimal_tau(1e6, T)

    @pytest.mark.parametrize(
        "sigma,T",
        [(math.inf, 1e-5), (math.nan, 1e-5), (1e200, 1e-5), (2.0**508, math.inf),
         (1e-200, math.inf), (1e-200, 1e-5)],
        ids=str,
    )
    def test_a_sigma_it_cannot_square_raises_value_error(self, sigma, T):
        # They returned 0.0, raised OverflowError, or ZeroDivisionError (the last two pairs).
        with pytest.raises(ValueError, match=re.escape(f"{RANGE_ERROR}{sigma}")):
            optimal_tau(sigma, T)

    def test_squares_at_the_ends_of_its_range(self):
        big, small = math.nextafter(CEILING, 0.0), FLOOR
        assert optimal_tau(big, 1e-5) == pytest.approx(1.0 / (TWO_PI * big), rel=1e-12)
        # small**2 = 2**-511 is normal, so it keeps every significant digit
        assert optimal_tau(small, math.inf) == pytest.approx(1.0 / (TWO_PI * small), rel=1e-15)
        assert optimal_tau(small, 1e-5) == pytest.approx(1e-5, rel=1e-15)

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

    @pytest.mark.parametrize("m", [np.int64(1), np.int8(-1), 1.0, True])
    def test_outcome_type_does_not_reach_the_belief(self, m):
        # The closed form reads the model's factors for m, so any outcome equal to +-1 steps as the int.
        model = LikelihoodModel(-0.02, 0.6, 1e-5)
        belief = GaussianBelief(0.0, 1e6)
        probe = design_probe(belief, model)
        expected = update(belief, probe, int(m), model)
        after = update(belief, probe, m, model)
        assert after == expected and type(after.mu) is float and type(after.sigma) is float
        final, trace = run_estimation(belief, 1, model, lambda probe: m)
        assert final == expected and type(final.mu) is float and trace[0].outcome is m

    def test_subnormal_sigma_pow_4_raises(self):
        # A subnormal sigma**4 has lost bits: one ideal step at sigma = 1.3e-81 shrank sigma by
        # 0.609 instead of IDEAL_SHRINK.  So a posterior sigma below FLOOR raises, at the shot that
        # takes it there, and no belief holds one.
        for sigma in (1.3e-77, FLOOR / IDEAL_SHRINK * (1.0 - 1e-12)):
            belief = GaussianBelief(0.0, sigma)
            for m in (-1, 1):
                with pytest.raises(NumericalConsistencyError, match=re.escape("below 2**-255.5")):
                    update(belief, design_probe(belief, IDEAL_MODEL), m, IDEAL_MODEL)
        belief = GaussianBelief(0.0, FLOOR / IDEAL_SHRINK * (1.0 + 1e-12))  # steps to just above
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

    @pytest.mark.parametrize("fail_at", [0, 1, 7])
    def test_abort_carries_the_belief_of_the_last_step(self, fail_at):
        prior, probes = GaussianBelief(2e4, 1e6), []

        def flaky(probe):
            if len(probes) == fail_at:
                raise TimeoutError("no outcome")
            probes.append(probe)
            return 1 if len(probes) % 3 else -1

        with pytest.raises(EstimationAborted) as err:
            run_estimation(prior, 10, REFERENCE_MODEL, flaky)
        trace = err.value.trace
        assert len(trace) == fail_at and isinstance(err.value.__cause__, TimeoutError)
        expected = GaussianBelief(trace[-1].mu, trace[-1].sigma) if trace else prior
        assert err.value.belief == expected

    @pytest.mark.parametrize("outcome", [0, 2, None])
    def test_invalid_outcome_aborts_with_a_value_error(self, outcome):
        with pytest.raises(EstimationAborted) as err:
            run_estimation(GaussianBelief(0.0, 1e6), 5, REFERENCE_MODEL, lambda probe: outcome)
        assert isinstance(err.value.__cause__, ValueError)
        assert err.value.trace == [] and err.value.belief == GaussianBelief(0.0, 1e6)

    def test_a_completed_run_measures_once_per_shot(self):
        probes = []
        _, trace = run_estimation(
            GaussianBelief(0.0, 1e6), 12, REFERENCE_MODEL, lambda probe: probes.append(probe) or -1
        )
        assert len(probes) == len(trace) == 12
        assert [(p.tau, p.delta_f) for p in probes] == [(r.tau, r.delta_f) for r in trace]

    def test_negative_shot_count_rejected(self):
        with pytest.raises(ValueError):
            run_estimation(GaussianBelief(0.0, 1e6), -1, REFERENCE_MODEL, lambda p: 1)

    @pytest.mark.parametrize("sigma", [1e200, 1e100, 2.0**254], ids=str)
    @pytest.mark.parametrize("n_shots", [0, 3])
    def test_a_prior_sigma_it_cannot_square_raises_before_any_shot(self, sigma, n_shots):
        # 1e200 raised OverflowError at its first shot, as sigma**4 overflowed.  The belief
        # rejects such a sigma, so no shot runs.
        shots = []
        with pytest.raises(ValueError, match=re.escape(RANGE_ERROR)):
            prior = GaussianBelief(0.0, sigma)
            run_estimation(prior, n_shots, REFERENCE_MODEL, lambda probe: shots.append(probe) or 1)
        assert shots == []

    def test_the_largest_prior_sigma_runs_and_a_subnormal_sigma_pow_4_still_raises(self):
        sigma = math.nextafter(2.0**254, 0.0)
        final, _ = run_estimation(GaussianBelief(0.0, sigma), 30, REFERENCE_MODEL, lambda p: 1)
        assert 0.0 < final.sigma < sigma and math.isfinite(final.mu)
        # 1.3e-77 is in range, but one ideal shot takes it below FLOOR: the run raises at that
        # shot, the first, after measuring it.  A one-shot run used to return the posterior.
        for n_shots in (1, 3):
            shots = []
            with pytest.raises(NumericalConsistencyError, match=re.escape("below 2**-255.5")):
                prior = GaussianBelief(0.0, 1.3e-77)
                run_estimation(prior, n_shots, IDEAL_MODEL, lambda probe: shots.append(probe) or 1)
            assert len(shots) == 1
