"""Acceptance suite: ten end-to-end criteria, one printed pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  Each test computes its result first, prints the verdict, then
asserts, so the printed line always reflects the final state.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import norm

from freqtrack import oracle
from freqtrack.cli import main
from freqtrack.estimator import (
    IDEAL_MODEL,
    REFERENCE_MODEL,
    GaussianBelief,
    LikelihoodModel,
    ProbeSettings,
    design_probe,
    optimal_tau,
    run_estimation,
    update,
)
from freqtrack.experiments import (
    CampaignConfig,
    ErrorStats,
    closed_loop_track,
    fit_fringe,
    frequentist_estimate,
    gaussian_validity_sweep,
    run_campaign,
)
from freqtrack.qubitsim import NoiseProcess, rng_for_run, sample_outcome, standard_normals

# Regression locks for the Gaussian-validity KL at the optimal probe time
# (sigma0 = 1 MHz, reference model), frozen from the first grid computation.
GOLDEN_KL_BITS = {1: 1.478406e-02, -1: 1.374884e-02}


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


# Criterion 6's reference: the update as the moment fit of the exact
# one-shot posterior of a Gaussian belief, on a grid over +-8 sigma.  On the
# criterion's campaign 128 points, like 1024, match the closed forms to 3e-12.
_EXACT_Z = np.linspace(-8.0, 8.0, 128)
_EXACT_Z_WEIGHTS = norm.pdf(_EXACT_Z) / norm.pdf(_EXACT_Z).sum()


def _exact_projection_campaign(cfg: CampaignConfig) -> ErrorStats:
    """cfg's campaign on its own streams, with every update done by the oracle.

    Each run takes its shift and outcomes from its row of the campaign block,
    rng_for_run(seed, i, width), as run_campaign does: the prior normal from
    the first two uniforms, then one uniform per shot.  It designs its
    probes with design_probe, and replaces the closed-form update by the
    mean and sigma of oracle.grid_update applied to the Gaussian belief.
    """
    n = cfg.n_shots
    width = 2 + n + -(2 + n) % 4  # a quasistatic row: the prior's pair and the shots, padded
    runs = np.empty((3, cfg.run_count))
    for i in range(cfg.run_count):
        row = rng_for_run(cfg.master_seed, i, width).random(width)
        eps_true = cfg.prior.mu + cfg.prior.sigma * float(standard_normals(row[:2])[0])
        shots = SimpleNamespace(random=iter(row[2 : 2 + n]).__next__)
        belief = cfg.prior
        for _ in range(n):
            probe = design_probe(belief, cfg.update_model)
            m = sample_outcome(eps_true, probe, cfg.truth_model, shots)
            grid = oracle.GridPosterior(belief.mu + belief.sigma * _EXACT_Z, _EXACT_Z_WEIGHTS)
            belief = oracle.gaussian_fit(oracle.grid_update(grid, m, probe, cfg.update_model))
        runs[:, i] = eps_true, belief.mu, belief.sigma
    return ErrorStats(*runs)


class TestAcceptance:
    def test_01_oracle_equivalence_of_closed_forms(self):
        rng = np.random.default_rng(2024)
        worst_mu, worst_sigma = 0.0, 0.0
        for _ in range(1000):
            mu = rng.uniform(-1e6, 1e6)
            sigma = 10 ** rng.uniform(4.5, 6.5)
            alpha = rng.uniform(-0.25, 0.25)
            beta = rng.uniform(0.05, 1.0 - abs(alpha))
            T = 10 ** rng.uniform(-5.5, -4) if rng.random() < 0.7 else math.inf
            model = LikelihoodModel(alpha=alpha, beta=beta, T=T)
            belief = GaussianBelief(mu, sigma)
            probe = design_probe(belief, model)
            m = 1 if rng.random() < 0.5 else -1

            closed = update(belief, probe, m, model)
            grid = oracle.grid_update(oracle.from_gaussian(belief), m, probe, model)
            mean, std = oracle.moments(grid)
            worst_mu = max(worst_mu, abs(mean - closed.mu) / sigma)
            worst_sigma = max(worst_sigma, abs(std - closed.sigma) / closed.sigma)
        ok = worst_mu < 1e-4 and worst_sigma < 1e-4
        _verdict(
            1,
            ok,
            f"1000 cases, worst mean dev {worst_mu:.2e} sigma, "
            f"worst stddev rel dev {worst_sigma:.2e} (tol 1e-4)",
        )
        assert ok

    def test_02_ideal_geometric_shrinkage(self):
        belief = GaussianBelief(0.0, 1e6)
        sigma0 = belief.sigma
        rng = np.random.default_rng(7)
        worst = 0.0
        for n in range(1, 31):
            probe = design_probe(belief, IDEAL_MODEL)
            m = 1 if rng.random() < 0.5 else -1
            belief = update(belief, probe, m, IDEAL_MODEL)
            expected = (1.0 - math.exp(-1.0)) ** (n / 2.0)
            worst = max(worst, abs(belief.sigma / sigma0 - expected) / expected)
            if n == 15:
                ratio15 = belief.sigma / sigma0
        ok = worst < 1e-12 and abs(ratio15 - 0.0321) < 0.0321 * 0.01
        _verdict(
            2,
            ok,
            f"sigma_n/sigma_0 follows (1-1/e)^(n/2) to {worst:.1e} rel (tol 1e-12); "
            f"sigma_15/sigma_0 = {ratio15:.4f} (expect 0.0321)",
        )
        assert ok

    def test_03_tau_optimality(self):
        rng = np.random.default_rng(11)
        failures = 0
        for _ in range(100):
            sigma = 10 ** rng.uniform(3, 7)
            T = 10 ** rng.uniform(-7, -3) if rng.random() < 0.8 else math.inf
            tau_star = optimal_tau(sigma, T)

            def expected_var(tau):
                inv_T = 0.0 if math.isinf(T) else 1.0 / T
                damp2 = math.exp(-2.0 * tau * inv_T - 4.0 * math.pi**2 * sigma**2 * tau**2)
                return sigma**2 - 4.0 * math.pi**2 * sigma**4 * tau**2 * damp2

            v0 = expected_var(tau_star)
            if v0 > expected_var(0.9 * tau_star) + 1e-12 * sigma**2:
                failures += 1
            elif v0 > expected_var(1.1 * tau_star) + 1e-12 * sigma**2:
                failures += 1
        ok = failures == 0
        _verdict(3, ok, f"optimal tau beat +-10% perturbations in 100/100 random (sigma, T) cases"
                        f" ({failures} failures)")
        assert ok

    def test_04_reference_narrowing(self):
        prior = GaussianBelief(0.0, 1e6)
        finals = []
        monotone = True
        for i in range(400):
            rng = rng_for_run(42, i)
            eps_true = prior.sigma * float(rng.standard_normal())

            def measure(probe):
                p = 0.5 + 0.5 * (
                    REFERENCE_MODEL.alpha
                    + REFERENCE_MODEL.beta
                    * math.exp(-probe.tau / REFERENCE_MODEL.T)
                    * math.cos(2 * math.pi * (probe.delta_f - eps_true) * probe.tau)
                )
                return 1 if rng.random() < p else -1

            final, trace = run_estimation(prior, 15, REFERENCE_MODEL, measure)
            sigmas = [prior.sigma] + [r.sigma for r in trace]
            monotone &= all(b < a for a, b in zip(sigmas, sigmas[1:]))
            finals.append(final.sigma)
        median_sigma = float(np.median(finals))
        ok = 20e3 < median_sigma < 400e3 and monotone
        _verdict(
            4,
            ok,
            f"median final sigma {median_sigma / 1e3:.1f} kHz in (20, 400) kHz, "
            f"monotone per-step decrease={monotone} "
            f"(60-70 kHz at n = 15 needs beta ~ 0.9-1.0: beta 1, T 10 us gives 60 kHz; "
            f"beta 0.9, T inf gives 70 kHz)",
        )
        assert ok

    def test_05_mismatch_tails_and_matched_calibration(self):
        prior = GaussianBelief(0.0, 1e6)
        common = dict(run_count=5000, n_shots=15, prior=prior, truth_model=REFERENCE_MODEL)
        # Seed check: the central-95% KS statistic converges to ~0.039 at
        # 40,000 runs, comfortably below the 0.05 bound; at 5,000 runs the
        # sampling scatter is roughly +-0.006 around that.
        matched = run_campaign(
            CampaignConfig(update_model=REFERENCE_MODEL, master_seed=1, **common)
        )
        mismatched = run_campaign(
            CampaignConfig(update_model=IDEAL_MODEL, master_seed=1, **common)
        )
        tails_ok = mismatched.outlier_fraction > matched.outlier_fraction

        # KS distance between matched errors and N(0, mean final sigma),
        # restricted to the central 95% of the empirical mass.
        errors = np.sort(matched.errors)
        n = errors.size
        lo, hi = np.quantile(errors, [0.025, 0.975])
        keep = (errors >= lo) & (errors <= hi)
        cdf = norm.cdf(errors / matched.mean_final_sigma)
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = float(
            max(np.abs(ecdf_hi - cdf)[keep].max(), np.abs(ecdf_lo - cdf)[keep].max())
        )
        ok = tails_ok and ks < 0.05
        _verdict(
            5,
            ok,
            f"outliers matched {matched.outlier_fraction:.3f} < mismatched "
            f"{mismatched.outlier_fraction:.3f}; central-95% KS {ks:.3f} (tol 0.05)",
        )
        assert ok

    def test_06_mad_calibration(self):
        # The campaign's errors are not Gaussian with the reported sigma, so
        # 1.4826 * MAD / mean sigma is not expected to be 1: after the first
        # shot the belief is a Gaussian projection of a multi-lobed posterior.
        # The closed forms must reproduce the same campaign with every update
        # done by the oracle: run by run to criterion 1's 1e-4, and so also
        # in the ratio, which is the expected value here.  For this matched
        # 5000-run, n = 15 campaign it is 0.834, the ratio that the exact
        # multi-shot posterior of each run predicts too.
        cfg = CampaignConfig(
            run_count=5000,
            n_shots=15,
            prior=GaussianBelief(0.0, 1e6),
            truth_model=REFERENCE_MODEL,
            update_model=REFERENCE_MODEL,
            master_seed=1,
        )
        stats = run_campaign(cfg)
        exact = _exact_projection_campaign(cfg)
        scaled, scaled_exact = 1.4826 * stats.mad, 1.4826 * exact.mad  # MAD to Gaussian sigma
        ratio, ratio_exact = scaled / stats.mean_final_sigma, scaled_exact / exact.mean_final_sigma
        worst_mu = np.max(np.abs(stats.errors - exact.errors) / exact.final_sigmas)
        worst_sigma = np.max(np.abs(stats.final_sigmas / exact.final_sigmas - 1.0))
        per_run_ok = worst_mu < 1e-4 and worst_sigma < 1e-4
        heavy_tail_ok = stats.std > stats.mean_final_sigma
        ok = per_run_ok and abs(ratio / ratio_exact - 1.0) <= 0.15 and heavy_tail_ok
        _verdict(
            6,
            ok,
            f"1.4826*MAD = {scaled / 1e3:.1f} kHz vs mean final sigma "
            f"{stats.mean_final_sigma / 1e3:.1f} kHz, ratio {ratio:.3f}; oracle updates: "
            f"{scaled_exact / 1e3:.1f} kHz vs {exact.mean_final_sigma / 1e3:.1f} kHz, "
            f"ratio {ratio_exact:.3f}; quotient {ratio / ratio_exact:.3f} (tol +-15%); "
            f"per run worst mean dev {worst_mu:.1e} sigma, "
            f"sigma rel dev {worst_sigma:.1e} (tol 1e-4); "
            f"std {stats.std / 1e3:.1f} kHz > mean sigma: {heavy_tail_ok}",
        )
        assert ok

    def test_07_gaussian_validity_sweep(self):
        prior = GaussianBelief(0.0, 1e6)
        rows = gaussian_validity_sweep(prior, REFERENCE_MODEL, [1.0, 3.0])
        by_key = {(r.tau_multiplier, r.m): r for r in rows}
        kl_opt = by_key[(1.0, -1)].kl_bits
        kl_long = by_key[(3.0, -1)].kl_bits
        multimodal = by_key[(3.0, -1)].n_modes > 1
        locked = all(
            by_key[(1.0, m)].kl_bits == pytest.approx(GOLDEN_KL_BITS[m], rel=0.05)
            for m in (-1, 1)
        )
        ok = math.isfinite(kl_opt) and kl_opt <= kl_long and multimodal and locked
        _verdict(
            7,
            ok,
            f"KL(tau_opt, m=-1) = {kl_opt:.3e} bits <= KL(3 tau_opt) = {kl_long:.3e}; "
            f"multimodal at 3 tau_opt: {multimodal}; regression lock held: {locked}",
        )
        assert ok

    def test_08_closed_loop_benefit(self):
        noise = NoiseProcess(kind="quasistatic", sigma_eps=30e3)
        wins = 0
        freq_hits = 0
        n_seeds = 50
        for seed in range(n_seeds):
            fb, open_loop = closed_loop_track(
                noise,
                n_shots=8,
                m_cycles=50,
                tau_max=7e-6,
                model=IDEAL_MODEL,
                seed=seed,
                repetitions=200,
            )
            fit_fb = fit_fringe(fb)
            fit_open = fit_fringe(open_loop)
            if fit_fb.t2 > fit_open.t2:
                wins += 1
            if abs(fit_fb.frequency - 1e6) < 3.0 * fit_fb.frequency_err:
                freq_hits += 1
        ok = wins >= 0.95 * n_seeds and freq_hits > n_seeds / 2
        _verdict(
            8,
            ok,
            f"T2(feedback) > T2(open) in {wins}/{n_seeds} seeds (need >= {int(0.95 * n_seeds)}); "
            f"feedback fringe at 1 MHz within 3 fit errors in {freq_hits}/{n_seeds}",
        )
        assert ok

    def test_09_adaptive_vs_frequentist(self):
        sigma0 = 1e6
        model = IDEAL_MODEL
        tau_opt = optimal_tau(sigma0, model.T)
        shots = 15
        runs = 400
        all_better = True
        details = []
        for mult in (0.5, 1.0, 2.0, 4.0):
            tau = mult * tau_opt
            fbs_err, freq_err = [], []
            for i in range(runs):
                rng = rng_for_run(99, i)
                eps_true = sigma0 * float(rng.standard_normal())

                def measure(probe):
                    p = 0.5 + 0.5 * math.cos(
                        2 * math.pi * (probe.delta_f - eps_true) * probe.tau
                    )
                    return 1 if rng.random() < p else -1

                final, _ = run_estimation(GaussianBelief(0.0, sigma0), shots, model, measure)
                fbs_err.append(abs(final.mu - eps_true))
                est = frequentist_estimate(eps_true, tau, shots, model, rng)
                freq_err.append(abs(est - eps_true))
            fbs_med = float(np.median(fbs_err))
            freq_med = float(np.median(freq_err))
            all_better &= fbs_med < freq_med
            details.append(f"{mult}x: {fbs_med / 1e3:.1f} vs {freq_med / 1e3:.1f} kHz")

        # Out-of-range shift: the fixed-tau estimator aliases, FBS does not.
        tau = 4.0 * tau_opt
        eps_true = 1.3 / (2.0 * tau)
        rng = rng_for_run(100, 0)

        def measure(probe):
            p = 0.5 + 0.5 * math.cos(2 * math.pi * (probe.delta_f - eps_true) * probe.tau)
            return 1 if rng.random() < p else -1

        final, _ = run_estimation(GaussianBelief(0.0, sigma0), shots, model, measure)
        freq_est = frequentist_estimate(eps_true, tau, shots, model, rng)
        fbs_out = abs(final.mu - eps_true)
        freq_out = abs(freq_est - eps_true)
        out_of_range_ok = freq_out > 5.0 * fbs_out and fbs_out < 0.1 * eps_true
        ok = all_better and out_of_range_ok
        _verdict(
            9,
            ok,
            "median |error| adaptive vs fixed-tau: " + "; ".join(details) + "; "
            f"out-of-range shift: adaptive {fbs_out / 1e3:.1f} kHz, "
            f"fixed-tau {freq_out / 1e3:.1f} kHz",
        )
        assert ok

    def test_10_deterministic_reruns(self, tmp_path):
        identical = True
        for cmd, extra in (
            (["estimate", "--n", "15"], []),
            (["campaign", "--runs", "60", "--n", "8"], []),
            (["validate-gaussian", "--multipliers", "1,3"], []),
            (["track", "--cycles", "30", "--repetitions", "50"], []),
            (["compare-frequentist", "--runs", "50"], []),  # its tree's key, IDEAL_MODEL, as well
        ):
            paths = [tmp_path / f"{cmd[0]}_{k}.csv" for k in range(2)]
            for p in paths:
                code = main(cmd + extra + ["--seed", "12", "--output", str(p)])
                identical &= code == 0
            identical &= paths[0].read_bytes() == paths[1].read_bytes()
        _verdict(10, identical, "same-seed reruns byte-identical for all subcommands tested")
        assert identical
