"""Grid-posterior oracle: discretization, Bayes updates, moments, KL divergence."""

import math
import re

import numpy as np
import pytest

from freqtrack import oracle
from freqtrack.estimator import (
    IDEAL_MODEL,
    REFERENCE_MODEL,
    GaussianBelief,
    LikelihoodModel,
    ProbeSettings,
    design_probe,
    optimal_detuning,
    optimal_tau,
    update,
)


class TestFromGaussian:
    def test_moments_self_consistent(self):
        belief = GaussianBelief(0.0, 1e6)
        grid = oracle.from_gaussian(belief)
        mean, std = oracle.moments(grid)
        assert mean == pytest.approx(0.0, abs=1e-6 * 1e6)
        assert std == pytest.approx(1e6, rel=1e-6)

    def test_normalized_and_nonnegative(self):
        grid = oracle.from_gaussian(GaussianBelief(3e5, 2e5))
        assert np.all(grid.weights >= 0)
        assert grid.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_coverage(self):
        belief = GaussianBelief(-1e5, 5e4)
        grid = oracle.from_gaussian(belief)
        assert grid.eps_values[0] <= belief.mu - 6 * belief.sigma
        assert grid.eps_values[-1] >= belief.mu + 6 * belief.sigma

    def test_constructor_contracts(self):
        belief = GaussianBelief(0.0, 1e6)
        with pytest.raises(ValueError):
            oracle.from_gaussian(belief, points=512)

    @pytest.mark.parametrize(
        "eps, weights, match",
        [
            (np.linspace(-1.0, 1.0, 4), np.full(3, 1 / 3), "1-d arrays of equal length"),
            (np.zeros((2, 2)), np.full((2, 2), 0.25), "1-d arrays of equal length"),
            (np.linspace(-1.0, 1.0, 4), np.array([0.5, 0.75, -0.25, 0.0]), "non-negative"),
            (np.linspace(-1.0, 1.0, 4), np.full(4, 0.5), "sum to 1"),
            (np.linspace(0.0, 1.0, 1024), np.full(1024, np.nan), "non-negative"),
        ],
        ids=["lengths", "2-d", "negative", "unnormalized", "nan"],
    )
    def test_grid_posterior_contracts(self, eps, weights, match):
        with pytest.raises(ValueError, match=match):
            oracle.GridPosterior(eps, weights)


class TestGridUpdate:
    def test_flat_likelihood_preserves_prior(self):
        model = LikelihoodModel(alpha=0.0, beta=0.0, T=1e-6)
        grid = oracle.from_gaussian(GaussianBelief(0.0, 1e6))
        probe = ProbeSettings(tau=1e-7, delta_f=2e6)
        after = oracle.grid_update(grid, 1, probe, model)
        np.testing.assert_allclose(after.weights, grid.weights, rtol=1e-12)

    def test_sequential_updates_match_combined_product(self):
        model = REFERENCE_MODEL
        grid = oracle.from_gaussian(GaussianBelief(0.0, 1e6))
        p1 = ProbeSettings(tau=1.2e-7, delta_f=1.9e6)
        p2 = ProbeSettings(tau=2.4e-7, delta_f=-0.7e6)
        seq = oracle.grid_update(oracle.grid_update(grid, 1, p1, model), -1, p2, model)
        swapped = oracle.grid_update(oracle.grid_update(grid, -1, p2, model), 1, p1, model)
        np.testing.assert_allclose(seq.weights, swapped.weights, rtol=1e-10)

    def test_matches_closed_form_update(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            mu = rng.uniform(-1e6, 1e6)
            sigma = 10 ** rng.uniform(4.5, 6.5)
            alpha = rng.uniform(-0.2, 0.2)
            beta = rng.uniform(0.1, 1.0 - abs(alpha))
            T = 10 ** rng.uniform(-5.5, -4) if rng.random() < 0.7 else math.inf
            model = LikelihoodModel(alpha=alpha, beta=beta, T=T)
            belief = GaussianBelief(mu, sigma)
            probe = design_probe(belief, model)
            m = 1 if rng.random() < 0.5 else -1

            expected = update(belief, probe, m, model)
            grid = oracle.grid_update(oracle.from_gaussian(belief), m, probe, model)
            mean, std = oracle.moments(grid)
            assert mean == pytest.approx(expected.mu, abs=1e-4 * sigma)
            assert std == pytest.approx(expected.sigma, rel=1e-4)

    def test_underflow_reported(self):
        # All prior mass on a point where the outcome is impossible: the
        # likelihood product is identically zero.
        eps = np.linspace(-1e6, 1e6, 2048)
        w = np.zeros(eps.size)
        w[1024] = 1.0
        grid = oracle.GridPosterior(eps, w)
        ideal = LikelihoodModel(alpha=0.0, beta=1.0, T=math.inf)
        probe = ProbeSettings(tau=1e-7, delta_f=float(eps[1024]))
        with pytest.raises(ArithmeticError):
            oracle.grid_update(grid, -1, probe, ideal)

    def test_nan_likelihood_reported(self):
        # A nan detuning makes every likelihood nan: no posterior, rather than an all-nan one.
        grid = oracle.from_gaussian(GaussianBelief(0.0, 1e6))
        with pytest.raises(ArithmeticError, match="posterior weight nan"):
            oracle.grid_update(grid, 1, ProbeSettings(1e-7, math.nan), REFERENCE_MODEL)


class TestMoments:
    def test_symmetric_distribution_mean(self):
        eps = np.linspace(-1.0, 1.0, 1025) + 5.0
        w = np.abs(eps - 5.0)
        grid = oracle.GridPosterior(eps, w / w.sum())
        mean, _ = oracle.moments(grid)
        assert mean == pytest.approx(5.0, abs=1e-9)

    def test_discretized_gaussian_roundtrip(self):
        grid = oracle.from_gaussian(GaussianBelief(2e5, 7e5))
        mean, std = oracle.moments(grid)
        assert mean == pytest.approx(2e5, abs=1e-6 * 7e5)
        assert std == pytest.approx(7e5, rel=1e-6)

    def test_a_fit_below_the_sigma_floor_raises(self):
        # The fit is a GaussianBelief, so it holds the belief's range: one ideal shot narrows
        # the exact posterior of a 1.3e-77 prior to 1.17e-77, below 2**-255.5.  That is a
        # runtime failure, as grid_update's underflow is, not a bad argument.
        belief = GaussianBelief(0.0, 1.3e-77)
        post = oracle.grid_update(
            oracle.from_gaussian(belief), 1, design_probe(belief, IDEAL_MODEL), IDEAL_MODEL
        )
        assert oracle.moments(post)[1] < 2.0**-255.5
        with pytest.raises(ArithmeticError, match=re.escape("is outside [2**-255.5, 2**254)")):
            oracle.gaussian_fit(post)


class TestKLDivergence:
    def test_identity_is_zero(self):
        grid = oracle.from_gaussian(GaussianBelief(0.0, 1e6))
        assert oracle.kl_divergence(grid, grid) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_closed_form(self):
        # KL(N(0, s) || N(d, s)) = d^2/(2 s^2) / ln 2 bits
        s = 1e6
        d = 0.5e6
        eps = np.linspace(-8 * s, 8 * s, 2**14)
        p = np.exp(-0.5 * (eps / s) ** 2)
        q = np.exp(-0.5 * ((eps - d) / s) ** 2)
        kl = oracle.kl_divergence(
            oracle.GridPosterior(eps, p / p.sum()), oracle.GridPosterior(eps, q / q.sum())
        )
        assert kl == pytest.approx(0.125 / math.log(2), abs=1e-4)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        eps = np.linspace(-1e6, 1e6, 2048)
        for _ in range(20):
            p = rng.random(eps.size) + 1e-3
            q = rng.random(eps.size) + 1e-3
            kl = oracle.kl_divergence(
                oracle.GridPosterior(eps, p / p.sum()), oracle.GridPosterior(eps, q / q.sum())
            )
            assert kl >= -1e-10

    def test_grid_mismatch_rejected(self):
        a = oracle.from_gaussian(GaussianBelief(0.0, 1e6))
        b = oracle.from_gaussian(GaussianBelief(1e5, 1e6))
        with pytest.raises(ValueError):
            oracle.kl_divergence(a, b)

    def test_one_grid_object_skips_the_grid_comparison_and_keeps_the_bits(self):
        # kl_divergence compares grids only when p and q hold different grid objects.
        tau = optimal_tau(1e6, REFERENCE_MODEL.T)
        probe = ProbeSettings(tau, optimal_detuning(0.0, tau))
        p = oracle.grid_update(oracle.from_gaussian(GaussianBelief(0.0, 1e6)), 1, probe, REFERENCE_MODEL)
        fit = oracle.gaussian_fit(p)
        shared = oracle.GridPosterior(p.eps_values, oracle.normal_weights(p.eps_values, fit.mu, fit.sigma))
        copied = oracle.GridPosterior(p.eps_values.copy(), shared.weights)
        assert oracle.kl_divergence(p, shared) == oracle.kl_divergence(p, copied) > 0.0
        for eps in (p.eps_values + 1e5, p.eps_values[:-1]):  # shifted, and one point short
            weights = np.full(eps.size, 1.0 / eps.size)
            with pytest.raises(ValueError, match="share the same grid"):
                oracle.kl_divergence(p, oracle.GridPosterior(eps, weights))
            with pytest.raises(ValueError, match="share the same grid"):
                oracle.kl_divergence(oracle.GridPosterior(eps, weights), shared)

    def test_partial_support_sums_over_where_p_has_mass(self):
        # Where p is 0 its term is 0 (0 log 0 = 0), whatever q holds there, 0 included.
        rng = np.random.default_rng(2)
        eps = np.linspace(-1.0, 1.0, 2048)
        p, q = rng.random(eps.size), rng.random(eps.size) + 1e-3
        p[rng.random(eps.size) < 0.3] = 0.0
        q_zeros = np.where(p > 0.0, q, 0.0)
        for q in (q / q.sum(), q_zeros / q_zeros.sum()):
            expected = math.fsum(a * math.log2(a / b) for a, b in zip(p / p.sum(), q) if a > 0.0)
            kl = oracle.kl_divergence(oracle.GridPosterior(eps, p / p.sum()), oracle.GridPosterior(eps, q))
            assert kl == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_support_mismatch_rejected(self):
        eps = np.linspace(-1.0, 1.0, 2048)
        p = np.ones(eps.size)
        q = np.ones(eps.size)
        q[:100] = 0.0
        with pytest.raises(ValueError):
            oracle.kl_divergence(
                oracle.GridPosterior(eps, p / p.sum()), oracle.GridPosterior(eps, q / q.sum())
            )


class TestResolutionConvergence:
    def test_doubling_points_is_converged(self):
        belief = GaussianBelief(0.0, 1e6)
        model = REFERENCE_MODEL
        tau = optimal_tau(belief.sigma, model.T)
        probe = ProbeSettings(tau=tau, delta_f=optimal_detuning(belief.mu, tau))

        results = []
        for points in (2**14, 2**15):
            post = oracle.grid_update(oracle.from_gaussian(belief, points=points), -1, probe, model)
            mean, std = oracle.moments(post)
            fit = oracle.gaussian_fit(post)
            gauss = np.exp(-0.5 * ((post.eps_values - fit.mu) / fit.sigma) ** 2)
            kl = oracle.kl_divergence(
                post, oracle.GridPosterior(post.eps_values, gauss / gauss.sum())
            )
            results.append((mean, std, kl))
        (m1, s1, k1), (m2, s2, k2) = results
        assert m1 == pytest.approx(m2, abs=1e-6 * s1)
        assert s1 == pytest.approx(s2, rel=1e-6)
        assert k1 == pytest.approx(k2, rel=1e-4)


class TestMultimodality:
    def test_long_probe_creates_multiple_peaks(self):
        belief = GaussianBelief(0.0, 1e6)
        model = REFERENCE_MODEL
        tau = 3.0 * optimal_tau(belief.sigma, model.T)
        probe = ProbeSettings(tau=tau, delta_f=optimal_detuning(belief.mu, tau))
        post = oracle.grid_update(oracle.from_gaussian(belief), -1, probe, model)
        assert oracle.count_local_maxima(post) > 1

    def test_mode_count_matches_a_brute_force_count(self):
        # Weights on few levels give plateaus, zeros and sub-threshold tails: a mode is a maximal
        # run of equal weights above both neighbouring runs, counted on the thresholded weights.
        rng = np.random.default_rng(4)
        eps = np.linspace(-1.0, 1.0, 1024)
        for _ in range(50):
            w = rng.integers(0, 4, eps.size) * 10.0 ** rng.integers(-9, 1, eps.size)
            w[rng.random(eps.size) < 0.2] = 0.0
            w[: rng.integers(0, 10)] = w[-rng.integers(1, 10):] = 0.0
            w = np.repeat(w, rng.integers(1, 4, eps.size))[: eps.size]  # plateaus
            w = w / w.sum()
            kept = [x if x >= oracle._MODE_THRESHOLD_REL * w.max() else 0.0 for x in w]
            runs = [x for i, x in enumerate(kept) if i == 0 or x != kept[i - 1]]
            expected = sum(runs[i - 1] < runs[i] > runs[i + 1] for i in range(1, len(runs) - 1))
            assert oracle.count_local_maxima(oracle.GridPosterior(eps, w)) == expected

    def test_optimal_probe_stays_unimodal(self):
        belief = GaussianBelief(0.0, 1e6)
        model = REFERENCE_MODEL
        probe = design_probe(belief, model)
        for m in (-1, 1):
            post = oracle.grid_update(oracle.from_gaussian(belief), m, probe, model)
            assert oracle.count_local_maxima(post) == 1
