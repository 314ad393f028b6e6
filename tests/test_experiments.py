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
from freqtrack import experiments
from freqtrack.estimator import (
    IDEAL_MODEL,
    REFERENCE_MODEL,
    GaussianBelief,
    LikelihoodModel,
    design_probe,
    optimal_tau,
    run_estimation,
    update,
)
from freqtrack.experiments import (
    MAD_TO_SIGMA,
    CampaignConfig,
    ErrorStats,
    FringeRecord,
    closed_loop_track,
    compare_frequentist,
    fit_fringe,
    frequentist_estimate,
    gaussian_validity_sweep,
    mad_calibration,
    _sigma_in_range,
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


class TestSigmaRange:
    @pytest.mark.parametrize(
        "sigma", [1.3e-77, 1.0, 1e6, 1e76, math.nextafter(2.0**256, 0.0)], ids=str
    )
    def test_accepted(self, sigma):
        assert _sigma_in_range(sigma)
        assert 0.0 < sigma**2 < math.inf and sys.float_info.min <= sigma**4 < math.inf

    @pytest.mark.parametrize(
        "sigma",
        [1e-300, 1e-82, 1e-80, 2.0**256, 1e100, 1e300, 0.0, -1.0, math.nan, math.inf],
        ids=str,
    )
    def test_rejected(self, sigma):
        assert not _sigma_in_range(sigma)

    def test_boundary_is_where_sigma_pow_4_underflows(self):
        # The smallest accepted sigma: bisect the doubles for a normal sigma**4.
        lo, hi = 1e-80, 1.3e-77
        while math.nextafter(lo, hi) < hi:
            mid = math.sqrt(lo * hi) if hi / lo > 1.0 + 1e-9 else math.nextafter(lo, hi)
            lo, hi = (lo, mid) if mid**4 >= sys.float_info.min else (mid, hi)
        assert lo**4 < sys.float_info.min <= hi**4
        assert not _sigma_in_range(lo) and _sigma_in_range(hi)


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
        assert MAD_TO_SIGMA * stats.mad == pytest.approx(expected, rel=0.15)
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

    @pytest.mark.parametrize("sigma", [1e-300, 1e-82, 1e-80, 1e100, 1e300], ids=str)
    def test_prior_outside_the_closed_form_range_rejected(self, sigma):
        # A finite, positive sigma whose sigma**4 is subnormal, underflows to 0 or
        # overflows: campaigns used to run it and report a final sigma of 0.0.
        match = re.escape("sigma**4 is subnormal or infinite")
        with pytest.raises(ValueError, match=match):
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
    # The lockstep campaign and a run replayed on its own stream through
    # run_estimation differ only where np.exp and math.exp differ by an ulp.
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
        scaled, ratio = mad_calibration(stats)
        assert scaled == pytest.approx(s, rel=0.03)
        assert ratio == pytest.approx(1.0, abs=0.03)

    def test_requires_large_sample(self):
        with pytest.raises(ValueError):
            mad_calibration(ErrorStats(np.zeros(10), np.ones(10), np.ones(10)))


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

    def test_rejects_nonpositive_multiplier(self):
        with pytest.raises(ValueError):
            gaussian_validity_sweep(GaussianBelief(0.0, 1e6), REFERENCE_MODEL, [0.0])


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

    def test_contracts(self):
        noise = NoiseProcess(kind="quasistatic")
        with pytest.raises(ValueError):
            closed_loop_track(noise, 8, 1, 7e-6, IDEAL_MODEL, 0)
        with pytest.raises(ValueError):
            closed_loop_track(noise, 8, 50, -1.0, IDEAL_MODEL, 0)
        with pytest.raises(ValueError):
            closed_loop_track(
                NoiseProcess(kind="ou_drift"), 8, 50, 7e-6, IDEAL_MODEL, 0
            )


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


class TestWarmStartTracking:
    def test_tracks_slow_drift(self):
        # Repeated 8-shot estimations against an OU-drifting shift, each
        # warm-started at the previous estimate.  The end-of-round error
        # should stay comparable to the final posterior sigma, not the drift
        # amplitude.
        model = LikelihoodModel(alpha=0.0, beta=1.0, T=10e-6)
        noise = NoiseProcess(kind="ou_drift", sigma_eps=30e3, correlation_time=6e-3)
        rng = np.random.default_rng(9)
        state = initial_state(noise, rng)
        mu_hat, sigma0 = 0.0, 30e3
        errors = []
        for _ in range(300):
            belief = GaussianBelief(mu_hat, sigma0)
            for _ in range(8):
                probe = design_probe(belief, model)
                m = sample_outcome(state.eps_true, probe, model, rng)
                belief = update(belief, probe, m, model)
                state = step_noise(noise, state, cycle_duration(probe), rng)
            mu_hat = belief.mu
            errors.append(abs(mu_hat - state.eps_true))
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


def test_import_leaves_scipy_optimize_unloaded():
    code = "import sys, freqtrack.experiments; assert 'scipy.optimize' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=str(Path(freqtrack.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
