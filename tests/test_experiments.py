"""Simulation studies: campaigns, validity sweeps, tracking, fitting, baseline."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import freqtrack
from freqtrack import experiments, oracle
from freqtrack.estimator import (
    IDEAL_MODEL,
    REFERENCE_MODEL,
    GaussianBelief,
    LikelihoodModel,
    ProbeSettings,
    design_probe,
    likelihood_probability,
    optimal_detuning,
    optimal_tau,
    run_estimation,
    update,
)
from freqtrack.experiments import (
    CampaignConfig,
    ErrorStats,
    FringeRecord,
    closed_loop_track,
    compare_frequentist,
    fit_fringe,
    frequentist_estimate,
    gaussian_validity_sweep,
    run_campaign,
)
from freqtrack.qubitsim import (
    NoiseProcess,
    cycle_duration,
    initial_state,
    rng_for_run,
    sample_outcome,
    standard_normals,
    step_noise,
)


class TestCampaign:
    def test_zero_shots_leaves_prior_spread(self):
        prior = GaussianBelief(0.0, 1e6)
        cfg = CampaignConfig(
            run_count=2000,
            n_shots=0,
            prior=prior,
            truth_model=REFERENCE_MODEL,
            update_model=REFERENCE_MODEL,
            master_seed=1,
        )
        stats = run_campaign(cfg)
        # estimate is the prior mean, so the error spread is the prior sigma
        assert stats.std == pytest.approx(prior.sigma, rel=0.05)
        assert stats.mean_final_sigma == pytest.approx(prior.sigma, rel=1e-12)

    def test_ideal_error_tracks_posterior_sigma(self):
        prior = GaussianBelief(0.0, 1e6)
        cfg = CampaignConfig(
            run_count=3000,
            n_shots=15,
            prior=prior,
            truth_model=IDEAL_MODEL,
            update_model=IDEAL_MODEL,
            master_seed=2,
        )
        stats = run_campaign(cfg)
        expected = prior.sigma * (1.0 - math.exp(-1.0)) ** (15 / 2)
        assert stats.mean_final_sigma == pytest.approx(expected, rel=1e-9)
        # rare wrong-branch runs make the raw std heavy-tailed; the robust
        # MAD-based spread tracks the reported posterior sigma
        assert 1.4826 * stats.mad == pytest.approx(expected, rel=0.15)
        assert stats.outlier_fraction < 0.1

    def test_mismatch_inflates_outliers(self):
        prior = GaussianBelief(0.0, 1e6)
        common = dict(run_count=1500, n_shots=15, prior=prior, truth_model=REFERENCE_MODEL)
        matched = run_campaign(
            CampaignConfig(update_model=REFERENCE_MODEL, master_seed=3, **common)
        )
        mismatched = run_campaign(
            CampaignConfig(update_model=IDEAL_MODEL, master_seed=3, **common)
        )
        assert mismatched.outlier_fraction > 2.0 * matched.outlier_fraction
        assert matched.outlier_fraction < 0.15

    def test_deterministic_given_seed(self):
        cfg = CampaignConfig(
            run_count=50,
            n_shots=10,
            prior=GaussianBelief(0.0, 1e6),
            truth_model=REFERENCE_MODEL,
            update_model=REFERENCE_MODEL,
            master_seed=4,
        )
        a = run_campaign(cfg)
        b = run_campaign(cfg)
        np.testing.assert_array_equal(a.errors, b.errors)

    def test_runs_independent_of_count(self):
        # the first k runs don't change when more runs are requested
        base = dict(
            n_shots=8,
            prior=GaussianBelief(0.0, 1e6),
            truth_model=REFERENCE_MODEL,
            update_model=REFERENCE_MODEL,
            master_seed=5,
        )
        short = run_campaign(CampaignConfig(run_count=5, **base))
        longer = run_campaign(CampaignConfig(run_count=10, **base))
        for name in ("eps_true", "eps_hat", "final_sigmas"):
            np.testing.assert_array_equal(getattr(short, name), getattr(longer, name)[:5])

    def test_invalid_config_rejected(self):
        prior = GaussianBelief(0.0, 1e6)
        with pytest.raises(ValueError):
            CampaignConfig(
                run_count=0,
                n_shots=1,
                prior=prior,
                truth_model=REFERENCE_MODEL,
                update_model=REFERENCE_MODEL,
            )
        with pytest.raises(ValueError):
            CampaignConfig(
                run_count=1,
                n_shots=-1,
                prior=prior,
                truth_model=REFERENCE_MODEL,
                update_model=REFERENCE_MODEL,
            )

    @pytest.mark.parametrize("seed", [-1, 2**128], ids=["minus_1", "2_pow_128"])
    def test_seed_outside_philox_keys_rejected(self, seed):
        with pytest.raises(ValueError, match="master_seed"):
            CampaignConfig(
                run_count=1,
                n_shots=1,
                prior=GaussianBelief(0.0, 1e6),
                truth_model=REFERENCE_MODEL,
                update_model=REFERENCE_MODEL,
                master_seed=seed,
            )

    def test_non_integer_seed_rejected_and_numpy_integer_keeps_its_stream(self):
        # Philox truncated a seed of 2.5 to 2, so the campaign silently ran seed 2's streams.
        cfg = dict(run_count=20, n_shots=15, prior=GaussianBelief(0.0, 1e6),
                   truth_model=REFERENCE_MODEL, update_model=REFERENCE_MODEL)
        with pytest.raises(TypeError, match="integer"):
            CampaignConfig(master_seed=2.5, **cfg)
        with pytest.raises(TypeError, match="integer"):
            rng_for_run(2.5, 0)
        with pytest.raises(TypeError, match="integer"):
            closed_loop_track(NoiseProcess(), 8, 12, 7e-6, IDEAL_MODEL, 1.5, repetitions=4)
        with pytest.raises(TypeError, match="integer"):
            compare_frequentist(1e6, 15, 20, [1.0], IDEAL_MODEL, 2.5)
        runs = [run_campaign(CampaignConfig(master_seed=s, **cfg)) for s in (2, np.int64(2))]
        bits = [[a.tobytes() for a in (r.eps_true, r.eps_hat, r.final_sigmas)] for r in runs]
        assert bits[0] == bits[1]
        np.testing.assert_array_equal(rng_for_run(np.int64(2), 3).random(8), rng_for_run(2, 3).random(8))
        tracks = [closed_loop_track(NoiseProcess(), 8, 12, 7e-6, IDEAL_MODEL, s, repetitions=4)
                  for s in (2, np.int64(2))]
        fringes = [[r.flip_fractions.tobytes() for r in arms] for arms in tracks]
        assert fringes[0] == fringes[1]

    @pytest.mark.parametrize("sigma", [1e-300, 1e-82, 1e-80, 1e100, 1e300], ids=str)
    def test_prior_outside_the_closed_form_range_rejected(self, sigma):
        # A finite, positive sigma whose sigma**4 is subnormal, underflows to 0 or
        # overflows: campaigns used to run it and report a final sigma of 0.0.  The
        # belief holds the one range, so each raises there, before the config is built.
        with pytest.raises(ValueError, match=re.escape("sigma must be in [2**-255.5, 2**254)")):
            CampaignConfig(
                run_count=3,
                n_shots=2,
                prior=GaussianBelief(0.0, sigma),
                truth_model=REFERENCE_MODEL,
                update_model=REFERENCE_MODEL,
            )

    def test_drifting_shift_scored_against_where_it_ends(self):
        # 1/f noise adds a ~30 kHz excursion to the shift drawn from the
        # 1 MHz prior, so the errors stay on the quasistatic campaign's scale.
        common = dict(
            run_count=1000,
            n_shots=15,
            prior=GaussianBelief(0.0, 1e6),
            truth_model=REFERENCE_MODEL,
            update_model=REFERENCE_MODEL,
            master_seed=1,
        )
        quasistatic = run_campaign(CampaignConfig(**common))
        drifting = run_campaign(CampaignConfig(noise=NoiseProcess(kind="one_over_f"), **common))
        ratio = np.median(np.abs(drifting.errors)) / np.median(np.abs(quasistatic.errors))
        assert ratio == pytest.approx(1.0, abs=0.15)


def _row_width(n: int, extra: int, k: int) -> int:
    """Doubles per campaign row: prior normal pair, n shots, extra, drift normal pairs, padding."""
    used = 2 + n + extra + k * (n + 1) + k * (n + 1) % 2
    return used + -used % 4


def _replay_run(cfg: CampaignConfig, i: int, extra: int = 0) -> tuple[float, float, float]:
    """Run i of cfg on its own stream, through the public scalar API.

    The stream is run i's row of the campaign block, rng_for_run(seed, i,
    width): the prior normal from two uniforms, one uniform per shot,
    `extra` unused ones, then the normals that start and step the drift
    components, which the replay steps with NoiseProcess.transition.
    Returns (eps_true, eps_hat, final_sigma).
    """
    n = cfg.n_shots
    k = cfg.noise.rates.size if cfg.noise is not None else 0
    width = _row_width(n, extra, k)
    row = rng_for_run(cfg.master_seed, i, width).random(width)
    eps0 = cfg.prior.mu + cfg.prior.sigma * standard_normals(row[:2])[0]
    shots = SimpleNamespace(random=iter(row[2 : 2 + n]).__next__)
    start, drift = 2 + n + extra, k * (n + 1)
    z = iter(standard_normals(row[start : start + drift + drift % 2])[:drift].reshape(n + 1, k))
    comp = cfg.noise.transition(0.0, 0.0, next(z)) if k else None
    eps = [eps0 + comp.sum() if k else eps0]

    def measure(probe):
        nonlocal comp
        m = sample_outcome(eps[0], probe, cfg.truth_model, shots)
        if k:
            comp = cfg.noise.transition(comp, cfg.noise.decay(cycle_duration(probe)), next(z))
            eps[0] = eps0 + comp.sum()
        return m

    final, _ = run_estimation(cfg.prior, n, cfg.update_model, measure)
    return eps[0], final.mu, final.sigma


class TestCampaignReplay:
    # The lockstep campaign and a run replayed on its own stream through run_estimation
    # agree to rounding, not bit for bit: the lockstep carries each run's variance, while
    # run_estimation carries sigma and squares it every shot.  At seed 6, most runs whose
    # every math.exp equalled np.exp still end at different bits.
    @pytest.mark.parametrize(
        "kind, update_model",
        [
            (None, REFERENCE_MODEL),
            (None, IDEAL_MODEL),
            ("quasistatic", REFERENCE_MODEL),
            ("one_over_f", REFERENCE_MODEL),
            ("ou_drift", REFERENCE_MODEL),
        ],
    )
    def test_each_run_matches_scalar_replay(self, kind, update_model):
        cfg = CampaignConfig(
            run_count=200,
            n_shots=15,
            prior=GaussianBelief(0.0, 1e6),
            truth_model=REFERENCE_MODEL,
            update_model=update_model,
            noise=None if kind is None else NoiseProcess(kind=kind),
            master_seed=6,
        )
        stats = run_campaign(cfg)
        runs = zip(stats.eps_true, stats.eps_hat, stats.final_sigmas)
        for i, (eps_true, eps_hat, final_sigma) in enumerate(runs):
            replay_eps_true, replay_eps_hat, replay_sigma = _replay_run(cfg, i)
            tol = 1e-12 * replay_sigma
            if kind in (None, "quasistatic"):
                assert eps_true == replay_eps_true
            else:
                assert abs(eps_true - replay_eps_true) <= tol
            assert abs(eps_hat - replay_eps_hat) <= tol
            assert abs(final_sigma - replay_sigma) <= tol


class TestMadCalibration:
    def test_synthetic_gaussian_errors(self):
        rng = np.random.default_rng(6)
        s = 40e3
        stats = ErrorStats(np.zeros(20000), rng.normal(0.0, s, 20000), np.full(20000, s))
        # 1.4826 * MAD is a Gaussian's sigma, here the mean final sigma
        assert 1.4826 * stats.mad == pytest.approx(s, rel=0.03)
        assert 1.4826 * stats.mad / stats.mean_final_sigma == pytest.approx(1.0, abs=0.03)

    def test_median_is_np_medians_in_value_and_sign(self):
        # The one median of mad and compare_frequentist: ties and zeros of either sign included.
        rng = np.random.default_rng(8)
        for i in range(2000):
            n = int(rng.integers(1, 40))
            x = rng.standard_normal(n) if i % 2 else rng.integers(-2, 3, n) * rng.choice([1.0, -1.0], n)
            got, expected = experiments._median(x), float(np.median(x))
            assert (got, math.copysign(1.0, got)) == (expected, math.copysign(1.0, expected))
        for n in (1, 2, 7, 8):  # a nan anywhere gives nan
            x = rng.standard_normal(n)
            x[rng.integers(n)] = math.nan
            assert math.isnan(experiments._median(x))


class TestGaussianValiditySweep:
    def test_rows_and_ordering(self):
        prior = GaussianBelief(0.0, 1e6)
        rows = gaussian_validity_sweep(prior, REFERENCE_MODEL, [1.0, 3.0])
        assert len(rows) == 4
        by_key = {(r.tau_multiplier, r.m): r for r in rows}

        # at the optimal tau the grid sigma matches the closed-form update
        probe = design_probe(prior, REFERENCE_MODEL)
        for m in (-1, 1):
            expected = update(prior, probe, m, REFERENCE_MODEL).sigma
            assert by_key[(1.0, m)].posterior_sigma == pytest.approx(expected, rel=1e-4)
            assert by_key[(1.0, m)].n_modes == 1
            # longer probes wrap the cosine: worse Gaussian fit, extra modes
            assert by_key[(3.0, m)].kl_bits > 3.0 * by_key[(1.0, m)].kl_bits
            assert by_key[(3.0, m)].n_modes > 1

    @pytest.mark.parametrize("model", [REFERENCE_MODEL, IDEAL_MODEL, LikelihoodModel(0.1, 0.7, 3e-6)])
    def test_rows_are_the_public_oracle_paths(self, model):
        # The sweep computes each tau's alpha + beta e^(-tau/T) cos(...) once for both outcomes,
        # and its Gaussian fits share their posterior's grid object: the same bits as
        # grid_update per outcome and a KL against a fit on a copy of the grid.
        prior, mults = GaussianBelief(2e5, 1e6), [0.25, 0.5, 1.0, 2.0, 3.0, 4.0]
        grid, expected = oracle.from_gaussian(prior), []
        for mult in mults:
            tau = mult * optimal_tau(prior.sigma, model.T)
            for m in (-1, 1):
                post = oracle.grid_update(grid, m, ProbeSettings(tau, optimal_detuning(prior.mu, tau)), model)
                fit = oracle.gaussian_fit(post)
                eps = post.eps_values.copy()
                gauss = oracle.GridPosterior(eps, oracle.normal_weights(eps, fit.mu, fit.sigma))
                kl = oracle.kl_divergence(post, gauss)
                expected.append((mult, tau, m, fit.sigma, kl, oracle.count_local_maxima(post)))
        assert [tuple(row) for row in gaussian_validity_sweep(prior, model, mults)] == expected

    def test_rejects_nonpositive_multiplier(self):
        with pytest.raises(ValueError):
            gaussian_validity_sweep(GaussianBelief(0.0, 1e6), REFERENCE_MODEL, [0.0])

    def test_rejects_a_tau_with_fewer_than_4_grid_points_per_fringe_period(self):
        # The 16384-point grid spans 16 sigma; at T = inf, tau_opt = 1/(2 pi sigma), so
        # spacing * tau = 1/4 falls at a multiplier of 16383 pi / 32 = 1608.4.
        prior = GaussianBelief(0.0, 1e6)
        for mult in (1609.0, 4000.0, math.nan):
            with pytest.raises(ValueError, match="4 grid points"):
                gaussian_validity_sweep(prior, IDEAL_MODEL, [1.0, mult])
        rows = gaussian_validity_sweep(prior, IDEAL_MODEL, [1608.0])
        assert len(rows) == 2


class TestClosedLoopTrack:
    def test_zero_noise_arms_agree(self):
        noise = NoiseProcess(kind="quasistatic", sigma_eps=0.0)
        fb, open_loop = closed_loop_track(
            noise,
            n_shots=8,
            m_cycles=40,
            tau_max=7e-6,
            model=IDEAL_MODEL,
            seed=7,
            repetitions=400,
        )
        assert fb.feedback and not open_loop.feedback
        np.testing.assert_array_equal(fb.tau_values, open_loop.tau_values)
        # without dephasing noise there is nothing to correct: same fringe up
        # to binomial fluctuations (3 sigma at p ~ 0.5, 400 repetitions)
        margin = 3.0 * math.sqrt(0.25 / 400)
        assert np.max(np.abs(fb.flip_fractions - open_loop.flip_fractions)) < 2.0 * margin

    def test_feedback_restores_contrast_under_noise(self):
        noise = NoiseProcess(kind="quasistatic", sigma_eps=30e3)
        fb, open_loop = closed_loop_track(
            noise,
            n_shots=8,
            m_cycles=50,
            tau_max=7e-6,
            model=IDEAL_MODEL,
            seed=8,
            repetitions=200,
        )
        fit_fb = fit_fringe(fb)
        fit_open = fit_fringe(open_loop)
        assert fit_fb.t2 > fit_open.t2
        assert fit_fb.frequency == pytest.approx(1e6, rel=0.02)

    @pytest.mark.parametrize("model", [IDEAL_MODEL, REFERENCE_MODEL], ids=["ideal", "reference"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_both_arms_rebuilt_from_each_repetitions_row(self, seed, model):
        # Repetition r reads rng_for_run(seed, r, W): two uniforms for its shift's normal, then
        # per cycle n estimation uniforms and one verification uniform, then two per pair of a
        # drifting bank's k normals, padded to W, a multiple of 4 (doubles per Philox block).
        # The bank's first k normals draw its stationary start, then k step it over each shot's
        # cycle: the estimation shots, then the verification shot, cycle after cycle.  The open
        # arm flips where the verification uniform falls below P(+1) at the nominal detuning,
        # the feedback arm where it falls below P(+1) at the nominal detuning plus the estimate.
        # Each cycle's estimate and shift, which the track scores after its loop, are the
        # scalar replay's to rounding (the replay squares sigma every shot, as in TestCampaignReplay).
        n, m, reps, sigma_eps, tau_max = 3, 10, 30, 30e3, 7e-6
        taus = np.linspace(tau_max / m, tau_max, m)
        for noise, doubles in (
            (NoiseProcess(kind="quasistatic", sigma_eps=sigma_eps), (42, 44)),
            (NoiseProcess(kind="ou_drift", sigma_eps=sigma_eps, correlation_time=50e-6), (84, 84)),
        ):
            k = noise.rates.size
            drift = k * (m * (n + 1) + 1)  # the bank's start, then one step per shot
            used = 2 + m * (n + 1) + drift + drift % 2
            width = used + -used % 4
            assert (used, width) == doubles
            flips, fb_flips = np.zeros((2, reps, m), dtype=bool)
            verify, mus, sigmas, shifts = np.zeros((4, m, reps))
            for r in range(reps):
                row = rng_for_run(seed, r, width).random(width)
                shift = sigma_eps * standard_normals(row[:2])[0]
                if k:  # the bank carries all of a drifting shift
                    z = iter(standard_normals(row[2 + m * (n + 1) : used])[:drift].reshape(-1, k))
                    bank = noise.transition(0.0, 0.0, next(z))
                    shift = bank.sum()

                def measure(probe):  # one shot at the shift, then the bank steps over its cycle
                    nonlocal bank, shift
                    outcome = sample_outcome(shift, probe, model, shots)
                    if k:
                        bank = noise.transition(bank, noise.decay(cycle_duration(probe)), next(z))
                        shift = bank.sum()
                    return outcome

                mu = 0.0
                for j, tau in enumerate(taus):
                    first = 2 + j * (n + 1)
                    shots = SimpleNamespace(random=iter(row[first : first + n + 1]).__next__)
                    prior = GaussianBelief(mu, 30e3)  # closed_loop_track's default sigma0
                    belief = run_estimation(prior, n, model, measure)[0]
                    mu = mus[j, r] = belief.mu
                    verify[j, r], sigmas[j, r], shifts[j, r] = row[first + n], belief.sigma, shift
                    p_fb = likelihood_probability(1, shift, ProbeSettings(tau, 1e6 + mu), model)
                    fb_flips[r, j] = row[first + n] < p_fb  # the verification uniform
                    flips[r, j] = measure(ProbeSettings(tau, 1e6)) == 1  # the nominal detuning
            fb, open_loop = closed_loop_track(noise, n, m, tau_max, model, seed, repetitions=reps)
            np.testing.assert_array_equal(open_loop.flip_fractions, flips.mean(axis=0))
            np.testing.assert_array_equal(fb.flip_fractions, fb_flips.mean(axis=0))
            u, mu_hat, shift_at_verification = experiments._track(noise, n, taus, model, seed, reps, 30e3)
            np.testing.assert_array_equal(u, verify)
            assert np.all(np.abs(mu_hat - mus) <= 1e-12 * sigmas)
            assert np.all(np.abs(shift_at_verification - shifts) <= 1e-12 * sigmas)

    def test_open_arm_t2_under_ou_drift_is_the_predicted_one(self):
        # Under OU drift much slower than a track (tau_c = 10 ms) each repetition's shift is
        # nearly static and normal, so the open arm's fringe decays as exp(-(tau / T2)^2) with
        # T2 = 1 / (sqrt(2) pi sigma_eps) = 7.50 us.  Medians over seeds 0-9: 7.31 us.
        sigma_eps = 30e3
        noise = NoiseProcess(kind="ou_drift", sigma_eps=sigma_eps, correlation_time=10e-3)
        open_arms = [closed_loop_track(noise, 8, 50, 7e-6, IDEAL_MODEL, seed)[1] for seed in range(10)]
        t2 = [fit_fringe(record).t2 for record in open_arms]
        assert np.median(t2) == pytest.approx(1.0 / (math.sqrt(2.0) * math.pi * sigma_eps), rel=0.05)

    def test_contracts(self):
        noise = NoiseProcess(kind="quasistatic")
        with pytest.raises(ValueError):
            closed_loop_track(noise, 8, 1, 7e-6, IDEAL_MODEL, 0)
        for n_shots in (-1, -2):  # -1 used to raise IndexError, -2 numpy's negative dimensions
            with pytest.raises(ValueError, match=re.escape("n_shots must be >= 0")):
                closed_loop_track(noise, n_shots, 50, 7e-6, IDEAL_MODEL, 0)
        with pytest.raises(ValueError):  # a Philox key, which seeds the rows, is < 2**128
            closed_loop_track(noise, 8, 50, 7e-6, IDEAL_MODEL, 2**128)
        with pytest.raises(ValueError):
            closed_loop_track(noise, 8, 50, -1.0, IDEAL_MODEL, 0)
        # inf used to warn in np.linspace, then fail its first verification probe a cycle in
        for tau_max in (math.inf, math.nan):
            with pytest.raises(ValueError, match=re.escape("tau_max must be positive and finite, got")):
                closed_loop_track(noise, 8, 50, tau_max, IDEAL_MODEL, 0)
        # nan used to give two all-zero fringes, inf the same after numpy's cosine warning
        for target in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=re.escape("target_detuning must be finite, got")):
                closed_loop_track(noise, 8, 50, 7e-6, IDEAL_MODEL, 0, target_detuning=target)
        with pytest.raises(ValueError, match=re.escape("repetitions must be >= 1")):
            closed_loop_track(noise, 8, 50, 7e-6, IDEAL_MODEL, 0, repetitions=0)
        # sigma0**4 subnormal used to run silently, and sigma0**2 overflowing to warn mid-run.
        match = re.escape("sigma0 must be in [2**-255.5, 2**254)")
        for sigma0 in (1e-80, 1e300):
            with pytest.raises(ValueError, match=match):
                closed_loop_track(noise, 8, 50, 7e-6, IDEAL_MODEL, 0, sigma0=sigma0)


class TestFitFringe:
    def test_recovers_synthetic_parameters(self):
        taus = np.linspace(1e-7, 8e-6, 80)
        t2, f = 5e-6, 1e6
        y = 0.5 + 0.45 * np.exp(-((taus / t2) ** 2)) * np.cos(2 * np.pi * f * taus)
        fit = fit_fringe(FringeRecord(tau_values=taus, flip_fractions=y, feedback=True))
        assert fit.identifiable
        assert fit.t2 == pytest.approx(t2, rel=0.01)
        assert fit.frequency == pytest.approx(f, rel=0.01)
        assert fit.amplitude == pytest.approx(0.45, rel=0.01)
        assert fit.residual_rms < 1e-6
        as_lists = FringeRecord(tau_values=taus.tolist(), flip_fractions=y.tolist(), feedback=True)
        assert fit_fringe(as_lists) == fit  # the record holds float arrays, as from arrays

    @pytest.mark.parametrize(
        "params",
        [
            (0.5, 0.45, 5e-6**-2, 1e6, 0.0),
            (0.48, 0.3, 4e-6**-2, 1.2e6, 1.1),
            (0.5, 0.4, 4e-7**-2, 0.8e6, -2.5),
            (0.5, 0.45, 0.0, 1e6, 0.3),
        ],
        ids=["phi = 0", "phi != 0", "tau >> T2", "gamma = 0"],
    )
    def test_jacobian_is_the_models_derivative(self, params):
        # Central differences of _fringe_model, one parameter at a time.  Their error is O(h**2)
        # relative, but where the envelope has decayed the difference cancels against the offset
        # c, so entries below 1e-9 of their column's largest are compared to that bound.  A zero
        # parameter is stepped on its scale: 1, or 1/tau_max**2 for the rate gamma = 1/T2**2.
        tau = np.linspace(1e-7, 8e-6, 60)  # up to 20 T2 in the third case: an envelope of e^(-400)
        jac = experiments._fringe_jacobian(tau, *params)
        assert jac.shape == (tau.size, 5)
        for i, (value, scale) in enumerate(zip(params, (1.0, 1.0, tau[-1] ** -2, 1.0, 1.0))):
            h = 1e-5 * (abs(value) or scale)
            up, down = list(params), list(params)
            up[i], down[i] = value + h, value - h
            numeric = (experiments._fringe_model(tau, *up) - experiments._fringe_model(tau, *down)) / (2 * h)
            scale = np.abs(numeric).max()
            np.testing.assert_allclose(jac[:, i], numeric, rtol=1e-6, atol=1e-9 * scale)

    def test_undecayed_fringe_is_unidentifiable(self):
        # The ideal model's feedback arm at seed 9 restores the fringe so fully that the best fit
        # has no decay: the rate gamma = 1/T2**2 sits at its bound 0.  Fitted by T2, as curve_fit
        # did, it read T2 = 0.028 s +- 5810 s, a finite error flagged identifiable.
        fb, open_loop = closed_loop_track(NoiseProcess(), 8, 50, 7e-6, IDEAL_MODEL, 9)
        fit = fit_fringe(fb)
        assert fit.t2 == math.inf and fit.t2_err == math.inf and not fit.identifiable
        assert fit.frequency == pytest.approx(1e6, rel=0.01)
        assert fit_fringe(open_loop).identifiable

    @staticmethod
    def _curve_fit(record):
        """scipy's curve_fit on the same model by T2 = gamma**-0.5, start point and bounds:
        (c, A, T2, f, phi), their standard errors and the squared residual."""
        from scipy.optimize import curve_fit

        tau, y = record.tau_values, record.flip_fractions
        dt, span = tau[1] - tau[0], tau[-1] - tau[0]
        f0 = np.fft.rfftfreq(tau.size, d=dt)[1:][np.argmax(np.abs(np.fft.rfft(y - y.mean()))[1:])]
        p0 = [y.mean(), (y.max() - y.min()) / 2.0, span / 2.0, f0, 0.0]
        bounds = [-np.inf, 0.0, dt / 10.0, 0.0, -np.pi], [np.inf, np.inf, np.inf, 10.0 * f0 + 1.0 / dt, np.pi]

        def model(tau, c, A, t2, f, phi):
            return experiments._fringe_model(tau, c, A, t2**-2, f, phi)

        def jacobian(tau, c, A, t2, f, phi):
            jac = experiments._fringe_jacobian(tau, c, A, t2**-2, f, phi)
            jac[:, 2] *= -2.0 / t2**3  # d gamma / d T2
            return jac

        popt, pcov = curve_fit(model, tau, y, p0, jac=jacobian, bounds=bounds, maxfev=20000)
        return popt, np.sqrt(np.diag(pcov)), float(np.sum((y - model(tau, *popt)) ** 2))

    @staticmethod
    def _squared_residual(record, fit):
        params = fit.offset, fit.amplitude, fit.t2**-2, fit.frequency, fit.phase  # gamma 0.0 at T2 = inf
        model = experiments._fringe_model(record.tau_values, *params)
        return float(np.sum((record.flip_fractions - model) ** 2))

    def test_matches_curve_fit(self):
        # Both arms of the reference model's tracks find curve_fit's minimum, to within where
        # curve_fit stops (the first step that lowers the squared residual by <= 1e-8 of it):
        # here T2 differs by <= 4.2e-6 relative, f by 1.1e-7 and T2's error by 7.7e-6.
        for seed in range(10):
            for record in closed_loop_track(NoiseProcess(), 8, 50, 7e-6, REFERENCE_MODEL, seed):
                fit = fit_fringe(record)
                popt, perr, _ = self._curve_fit(record)
                assert fit.identifiable
                assert fit.t2 == pytest.approx(popt[2], rel=5e-4)
                assert fit.frequency == pytest.approx(popt[3], rel=1e-6)
                assert fit.t2_err == pytest.approx(perr[2], rel=1e-3)
                assert fit.frequency_err == pytest.approx(perr[3], rel=1e-4)

    def test_no_worse_than_curve_fit_where_the_feedback_fringe_barely_decays(self):
        # The ideal model's feedback arms: 9 of seeds 0-49 fit gamma = 0, where curve_fit's T2
        # runs off towards inf and stops up to 1.9% above the bound's squared residual.
        for seed in range(50):
            record = closed_loop_track(NoiseProcess(), 8, 50, 7e-6, IDEAL_MODEL, seed)[0]
            fit = fit_fringe(record)
            assert self._squared_residual(record, fit) <= self._curve_fit(record)[2] * (1.0 + 1e-9)

    def test_a_collapsing_column_is_still_damped(self):
        # The open arm of this 2-repetition track passes f = 0 at phi = pi, where the f and phi
        # columns fall to sin(pi) = 1.2e-16 of their size.  Scaled by the columns' norms there,
        # not the largest each has had, the fits sent f from bound to bound for 2000 steps.
        _, open_loop = closed_loop_track(NoiseProcess(), 7, 12, 7e-6, REFERENCE_MODEL, 547, repetitions=2)
        assert math.isfinite(fit_fringe(open_loop).residual_rms)

    def test_flat_record_unidentifiable(self):
        taus = np.linspace(1e-7, 8e-6, 40)
        y = np.full(taus.size, 0.5)
        fit = fit_fringe(FringeRecord(tau_values=taus, flip_fractions=y, feedback=False))
        assert not fit.identifiable
        assert fit.amplitude == 0.0
        assert math.isnan(fit.t2)

    def test_too_few_points_rejected(self):
        taus = np.linspace(1e-7, 1e-6, 5)
        with pytest.raises(ValueError):
            fit_fringe(FringeRecord(tau_values=taus, flip_fractions=np.zeros(5), feedback=True))

    @pytest.mark.parametrize("grid", ["reversed track", "sorted random", "repeated"])
    def test_tau_must_increase_in_equal_steps(self, grid):
        # Each used to fail late or not at all: scipy's "Each lower bound must be strictly less than
        # each upper bound" (reversed), a 2.31 MHz fit of a 1 MHz fringe (random), ZeroDivisionError.
        if grid == "reversed track":
            record = closed_loop_track(NoiseProcess(), 8, 50, 7e-6, IDEAL_MODEL, 0)[0]
            taus, y = record.tau_values[::-1], record.flip_fractions[::-1]
        else:
            if grid == "sorted random":
                taus = np.sort(np.random.default_rng(11).uniform(1e-7, 8e-6, 50))
            else:
                taus = np.repeat(np.linspace(1e-7, 8e-6, 25), 2)
            y = 0.5 + 0.45 * np.exp(-((taus / 5e-6) ** 2)) * np.cos(2 * np.pi * 1e6 * taus)
        with pytest.raises(ValueError, match="tau_values must increase in equal steps"):
            fit_fringe(FringeRecord(tau_values=taus, flip_fractions=y, feedback=True))

    def test_fit_that_fails_to_converge_is_unidentifiable(self, monkeypatch):
        # A fit still falling at its step budget reports its last iterate, with a finite error,
        # as unidentifiable.
        taus = np.linspace(1e-7, 8e-6, 40)
        y = 0.5 + 0.45 * np.exp(-((taus / 5e-6) ** 2)) * np.cos(2 * np.pi * 1e6 * taus)
        record = FringeRecord(tau_values=taus, flip_fractions=y, feedback=True)
        assert fit_fringe(record).identifiable
        monkeypatch.setattr(experiments, "_FIT_STEPS", 1)  # the solver's own cap
        capped = fit_fringe(record)
        assert not capped.identifiable
        assert math.isfinite(capped.t2) and math.isfinite(capped.t2_err)
        assert abs(capped.t2 - 5e-6) > 1e-9  # one step from the start, not the fit


class TestFringeRecord:
    @pytest.mark.parametrize(
        "taus, flips, match",
        [
            (np.linspace(1e-7, 8e-6, 10), np.full(9, 0.5), "1-D arrays of equal length"),
            (np.ones((2, 5)), np.full((2, 5), 0.5), "1-D arrays of equal length"),  # fit: TypeError
            (np.linspace(1e-7, 8e-6, 10), np.full(10, math.nan), "finite and lie in"),  # used to pass
            (np.linspace(1e-7, 8e-6, 10), np.linspace(-0.1, 0.9, 10), "finite and lie in"),
            (np.linspace(1e-7, 8e-6, 10), np.linspace(0.2, 1.2, 10), "finite and lie in"),
        ],
        ids=["lengths", "2-D", "nan", "below 0", "above 1"],
    )
    def test_contracts(self, taus, flips, match):
        with pytest.raises(ValueError, match=match):
            FringeRecord(tau_values=taus, flip_fractions=flips, feedback=True)

    def test_compares_by_identity(self):
        # With generated __eq__ and __hash__ over the arrays, == raised ValueError (the truth
        # value of an array is ambiguous) and hash raised TypeError.
        a, b = (FringeRecord(np.linspace(1, 2, 10), np.zeros(10), True) for _ in range(2))
        assert (a == b) is False and (a == a) is True
        assert len({a, b, a}) == 2


class TestWarmStartTracking:
    def test_tracks_slow_drift(self):
        # Repeated 8-shot estimations against an OU-drifting shift, each
        # warm-started at the previous estimate.  The end-of-round error
        # should stay comparable to the final posterior sigma, not the drift
        # amplitude.
        model = LikelihoodModel(alpha=0.0, beta=1.0, T=10e-6)
        noise = NoiseProcess(kind="ou_drift", sigma_eps=30e3, correlation_time=6e-3)
        rng = np.random.default_rng(9)
        bank = initial_state(noise, rng)
        mu_hat, sigma0 = 0.0, 30e3
        errors = []
        for _ in range(300):
            belief = GaussianBelief(mu_hat, sigma0)
            for _ in range(8):
                probe = design_probe(belief, model)
                m = sample_outcome(float(bank.sum()), probe, model, rng)
                belief = update(belief, probe, m, model)
                bank = step_noise(noise, bank, cycle_duration(probe), rng)
            mu_hat = belief.mu
            errors.append(abs(mu_hat - bank.sum()))
        assert float(np.median(errors)) < 15e3


class TestFrequentistBaseline:
    def test_unbiased_in_linear_regime(self):
        rng = np.random.default_rng(10)
        tau = 100e-9
        eps = 50e3  # well inside the linear window (1/(2 tau) = 5 MHz)
        estimates = [
            frequentist_estimate(eps, tau, 2000, REFERENCE_MODEL, rng) for _ in range(50)
        ]
        assert float(np.mean(estimates)) == pytest.approx(eps, rel=0.1)

    def test_out_of_range_shift_is_clamped(self):
        rng = np.random.default_rng(11)
        tau = 2e-6
        eps = 1.3 / (2.0 * tau)  # beyond the unambiguous range
        est = frequentist_estimate(eps, tau, 500, REFERENCE_MODEL, rng)
        assert abs(est) <= 0.5 / tau
        assert abs(est - eps) > 0.25 / tau  # cannot resolve it

    @pytest.mark.parametrize("plus_count", [0, 1, 2, 3, 4])
    def test_inverts_the_mean_outcome(self, plus_count):
        # Uniforms 0 give +1 and uniforms near 1 give -1, so the mean outcome
        # is (2 k - n) / n; the estimate inverts alpha + 2 pi beta tau e^(-tau/T) eps
        # and clamps to +-1/(2 tau), which this low-contrast model reaches.
        model = LikelihoodModel(alpha=-0.02, beta=0.3, T=10e-6)
        tau, shots = 2e-6, 4
        uniforms = np.array([0.0] * plus_count + [1.0 - 1e-12] * (shots - plus_count))
        stub = SimpleNamespace(random=lambda size: uniforms[:size])
        m_bar = (2 * plus_count - shots) / shots
        slope = 2 * math.pi * model.beta * tau * math.exp(-tau / model.T)
        expected = min(max((m_bar - model.alpha) / slope, -0.5 / tau), 0.5 / tau)
        assert frequentist_estimate(0.0, tau, shots, model, stub) == pytest.approx(
            expected, rel=1e-12
        )

    def test_contracts(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError):
            frequentist_estimate(0.0, -1.0, 10, REFERENCE_MODEL, rng)
        with pytest.raises(ValueError):
            frequentist_estimate(0.0, 1e-7, 0, REFERENCE_MODEL, rng)

    @pytest.mark.parametrize(
        "model, tau",
        [
            (LikelihoodModel(alpha=0.0, beta=0.0, T=math.inf), 1e-7),
            # e^(-tau/T) underflows to 0
            (LikelihoodModel(alpha=-0.02, beta=0.6, T=1e-6), 1.5e-3),
        ],
    )
    def test_no_slope_to_invert_raises(self, model, tau):
        # It used to divide by zero with a warning and return the clipped +-1/(2 tau) or NaN.
        with pytest.raises(ValueError, match="slope"):
            frequentist_estimate(0.0, tau, 10, model, np.random.default_rng(12))


class TestCompareFrequentist:
    def test_run_i_is_row_i_of_the_block(self):
        # Run i's variates are row i of one Philox block, which is run i's
        # stream rng_for_run(seed, i, width) whatever the run count.  Here a
        # row uses 46 doubles, padded to 48, with extra uniforms and drift
        # normals both present; the replays check the drift normals' place
        # behind the extra uniforms.
        n, extra, runs, seed = 5, 3, 9, 13
        noise = NoiseProcess(kind="one_over_f")
        width = _row_width(n, extra, noise.rates.size)
        assert (width, 2 + n + extra + noise.rates.size * (n + 1)) == (48, 46)
        cfg = CampaignConfig(
            run_count=runs,
            n_shots=n,
            prior=GaussianBelief(0.0, 1e6),
            truth_model=REFERENCE_MODEL,
            update_model=REFERENCE_MODEL,
            noise=noise,
            master_seed=seed,
        )
        block = np.random.Generator(np.random.Philox(key=seed)).random((runs, width))
        stats, u_extra = experiments._campaign(cfg, extra)
        for i in (0, 1, 7, runs - 1):
            row = rng_for_run(seed, i, width).random(width)
            np.testing.assert_array_equal(block[i], row)
            np.testing.assert_array_equal(u_extra[:, i], row[2 + n : 2 + n + extra])
            eps_true, eps_hat, final_sigma = _replay_run(cfg, i, extra)
            tol = 1e-12 * final_sigma
            assert abs(stats.eps_true[i] - eps_true) <= tol
            assert abs(stats.eps_hat[i] - eps_hat) <= tol
            assert abs(stats.final_sigmas[i] - final_sigma) <= tol

    @pytest.mark.parametrize(
        "model, mults, shots, match",
        [
            (LikelihoodModel(alpha=0.0, beta=0.0, T=math.inf), [1.0], 15, "slope"),
            # e^(-tau/T) underflows at x10000
            (LikelihoodModel(alpha=-0.02, beta=0.6, T=1e-6), [1.0, 10000.0], 15, "slope"),
            (IDEAL_MODEL, [1.0], 0, re.escape("shots must be >= 1")),
        ],
        ids=["beta_0", "underflow", "no_shots"],
    )
    def test_invalid_input_raises_before_the_campaign(self, model, mults, shots, match, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the campaign ran")

        monkeypatch.setattr(experiments, "_campaign", fail)
        with pytest.raises(ValueError, match=match):
            compare_frequentist(1e6, shots, 40, mults, model, seed=0)

    def test_multipliers_see_the_same_shots(self):
        # Each multiplier's frequentist shots start from the state the
        # adaptive shots left, so a row does not depend on the other rows.
        both = compare_frequentist(1e6, 15, 40, [1.0, 2.0], IDEAL_MODEL, seed=4)
        alone = compare_frequentist(1e6, 15, 40, [2.0], IDEAL_MODEL, seed=4)
        assert both[1] == alone[0]
        assert both[0].adaptive_median_abs_error == both[1].adaptive_median_abs_error

    @pytest.mark.parametrize("model", [IDEAL_MODEL, REFERENCE_MODEL])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_matches_run_by_run_baseline(self, model, seed):
        # Reference: each run's shift from the prior pair of its row, and at
        # each multiplier the public frequentist_estimate on the run's stream
        # continued past its adaptive shots.  The adaptive runs are those of
        # the campaign whose rows hold the baseline's uniforms too.
        sigma0, shots, run_count, mults = 1e6, 15, 150, [0.5, 1.0, 2.0, 4.0]
        cfg = CampaignConfig(
            run_count=run_count,
            n_shots=shots,
            prior=GaussianBelief(0.0, sigma0),
            truth_model=model,
            update_model=model,
            master_seed=seed,
        )
        width = _row_width(shots, shots, 0)

        def after_adaptive_shots(i):
            rng = rng_for_run(seed, i, width)
            rng.random(2 + shots)  # the prior normal's pair and the adaptive shots
            return rng

        shifts = [
            sigma0 * standard_normals(rng_for_run(seed, i, width).random(2))[0]
            for i in range(run_count)
        ]
        stats, _ = experiments._campaign(cfg, extra=shots)
        np.testing.assert_array_equal(stats.eps_true, shifts)
        adaptive = float(np.median(np.abs(stats.errors)))
        expected = []
        for mult in mults:
            tau = mult * optimal_tau(sigma0, model.T)
            estimates = [
                frequentist_estimate(eps_true, tau, shots, model, after_adaptive_shots(i))
                for i, eps_true in enumerate(shifts)
            ]
            errors = np.abs(np.array(estimates) - shifts)
            expected.append((mult, tau, adaptive, float(np.median(errors))))
        assert compare_frequentist(sigma0, shots, run_count, mults, model, seed) == expected


def test_import_leaves_scipy_optimize_unloaded(tmp_path):
    # No subcommand, track's fringe fits included, loads any scipy module, nor numpy.ma.
    code = (
        "import sys; from freqtrack import cli\n"
        "for command in cli.COMMANDS:\n"
        "    assert cli.main([command, '--output', f'{sys.argv[1]}/{command}.csv']) == 0, command\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "assert not loaded, f'{len(loaded)} scipy modules, first {loaded[:3]}'\n"
        "assert 'numpy.ma' not in sys.modules  # np.median's nan check loads it"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(freqtrack.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code, str(tmp_path)], check=True, env=env)


def test_import_leaves_numpy_random_unloaded():
    # rng_for_run loads it on its first call; importing it costs about 11 ms.
    code = "import sys, freqtrack.cli; assert 'numpy.random' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=str(Path(freqtrack.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
