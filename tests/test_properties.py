"""Property tests of the closed-form step over random models, beliefs and probes."""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from freqtrack import experiments, oracle
from freqtrack.estimator import (
    IDEAL_MODEL,
    REFERENCE_MODEL,
    TWO_PI,
    GaussianBelief,
    LikelihoodModel,
    NumericalConsistencyError,
    ProbeSettings,
    _optimal_tau_vec,
    _posterior_moments,
    _posterior_moments_vec,
    _sigma_in_range,
    design_probe,
    likelihood_probability,
    optimal_detuning,
    optimal_tau,
    run_estimation,
    update,
)
from freqtrack.experiments import (
    _TREE_BYTES,
    CampaignConfig,
    _lockstep,
    _outcome_tree,
    _tree_depth,
    closed_loop_track,
    run_campaign,
)
from freqtrack.qubitsim import DEPLETION_TIME, READOUT_TIME, NoiseProcess, cycle_duration

# Every posterior variance is at least this fraction of the prior's: the
# reduction is (beta/bias)^2 x^2 exp(-x^2) sigma^2 with x = 2 pi sigma tau,
# beta <= 1 - |alpha| <= bias and x^2 exp(-x^2) <= 1/e.
MIN_VARIANCE_RATIO = 1.0 - math.exp(-1.0)

#: Levels of the outcome tree for a quasistatic campaign, or one with a one-component (OU) bank.
CAP = 15


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
    mu_next, sigma_next = _posterior_moments(mu, sigma, sigma**2, tau, m, model)
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
    var = sigma**2  # may differ from sigma_i**2 by an ulp: numpy squares as sigma * sigma
    tau = mult * _optimal_tau_vec(var, model)
    mu_v, var_v = _posterior_moments_vec(mu, var, tau, m == 1, model)
    sigma_v = np.sqrt(var_v)
    for i, (mu_i, sigma_i, mult_i, m_i) in enumerate(rows):
        tau_i = mult_i * optimal_tau(sigma_i, model.T)
        mu_s, sigma_s = _posterior_moments(mu_i, sigma_i, sigma_i**2, tau_i, m_i, model)
        # One expression: equal bits wherever np.exp and math.exp agree, else equal to rounding.
        assert math.isclose(tau[i], tau_i, rel_tol=1e-14)
        x = -tau_i * model.inv_T - TWO_PI**2 / 2.0 * sigma_i**2 * (tau_i * tau_i)
        if (var[i], tau[i]) == (sigma_i**2, tau_i) and math.exp(x) == np.exp(x):
            assert (mu_v[i], sigma_v[i]) == (mu_s, sigma_s)
        assert abs(mu_v[i] - mu_s) <= 1e-14 * max(abs(mu_s), sigma_i)
        assert math.isclose(sigma_v[i], sigma_s, rel_tol=1e-14)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(models(), mus, sigmas, st.floats(1e-3, 100.0), outcomes)
def test_variance_never_falls_below_bound(model, mu, sigma, mult, m):
    tau = mult * optimal_tau(sigma, model.T)
    _, sigma_next = _posterior_moments(mu, sigma, sigma**2, tau, m, model)
    assert sigma_next**2 >= MIN_VARIANCE_RATIO * sigma**2 * (1.0 - 1e-12)


@pytest.mark.parametrize("beta", [3.0, math.nan], ids=["negative_variance", "nan_variance"])
def test_impossible_variance_raises_in_both_forms(beta):
    # No valid model gets here, so a duck-typed one outside LikelihoodModel's
    # checks stands in for a numerical fault: beta = 3 drives the variance
    # negative, beta = nan makes it nan.
    # Both forms also read the model's 1/T and its two gains 2 pi m beta / (1 + m alpha).
    model = SimpleNamespace(
        alpha=0.0, beta=beta, inv_T=0.0, _gain_down=-TWO_PI * beta, _gain_up=TWO_PI * beta
    )
    sigma = 1e6
    tau = 1.0 / (TWO_PI * sigma)  # x = 2 pi sigma tau = 1, the largest reduction
    with pytest.raises(NumericalConsistencyError):
        _posterior_moments(0.0, sigma, sigma**2, tau, 1, model)
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
    for _ in range(2):  # a new key's first call builds the outcome tree, the second reads it
        mu_next, *_ = _lockstep(
            np.array([mu]), sigma, np.array([eps]), np.array([[u]]), truth, update_model
        )
        assert (mu_next[0] > mu) == (u < p_plus)


IDEAL_SHRINK = math.sqrt(1.0 - math.exp(-1.0))  # per-shot sigma ratio, ideal model


def _raises_subnormal(run):  # a posterior sigma below 2**-255.5, where sigma**4 turns subnormal
    try:
        run()
    except NumericalConsistencyError as exc:
        assert "below 2**-255.5" in str(exc)
        return True
    return False


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 1200), st.floats(1.0, 1e6), st.sampled_from((-1.0, 1.0)))
def test_lockstep_raises_on_the_same_shot_counts_as_run_estimation(n, ulps, sign):
    # sigma0 puts sigma at the floor 2**-255.5 after the last shot, n, give or take
    # ulps * n units of 2**-52.  The two forms round differently, so closer than ~n * 2**-55
    # to that point (measured: 2.7e-17 n at most) their decisions may differ.
    sigma0 = 2.0**-255.5 / IDEAL_SHRINK**n * (1.0 + sign * ulps * n * 2.0**-52)
    zero, u = np.zeros(1), np.full((n, 1), 0.5)
    per_run = _raises_subnormal(
        lambda: _lockstep_per_run(zero, np.full(1, sigma0), zero, u, IDEAL_MODEL, IDEAL_MODEL)
    )
    tabulated = _raises_subnormal(  # the first _tree_depth(n, 0) shots from the tree
        lambda: _lockstep(zero, sigma0, zero, u, IDEAL_MODEL, IDEAL_MODEL)
    )
    in_scalar_form = _raises_subnormal(
        lambda: run_estimation(GaussianBelief(0.0, sigma0), n, IDEAL_MODEL, lambda probe: 1)
    )
    assert per_run == tabulated == in_scalar_form


def _lockstep_per_run(mu, sigma, eps, u, truth_model, update_model, noise=None, z=None, comp=None):
    # The lockstep loop with no outcome tree: every shot computes tau, the slope 2 pi tau, the
    # amplitude and the step of the run's mean offset c from its carried variance, and tests
    # the phase slope (mu0 - eps) + slope c.  sigma is an array.
    beta, neg_rate = np.array(truth_model.beta), np.array(-truth_model.inv_T)
    eps_true = eps if comp is None else eps + comp.sum(axis=1)
    d, c = mu - eps_true, np.full(mu.shape, -0.0)  # c = -0.0: each zero step keeps its sign
    var = sigma**2  # carried through every shot; the square root is taken once at the end
    last = len(u) - 1
    for shot, threshold in enumerate((1.0 + truth_model.alpha) - 2.0 * u):
        tau = _optimal_tau_vec(var, update_model)
        slope = TWO_PI * tau
        up = beta * np.exp(tau * neg_rate) * np.sin(slope * d + slope * c) < threshold
        c, var = _posterior_moments_vec(c, var, tau, up, update_model)
        # The scalar form's floor on the posterior sigma: exact after the last shot, as var never
        # grows, and after every 512th, since tau**2 overflows >= 780 shots past it.
        if (shot == last or shot % 512 == 511) and not _sigma_in_range(sigma := math.sqrt(var.min())):
            raise NumericalConsistencyError(f"posterior sigma {sigma} is below 2**-255.5")
        if comp is not None:
            cycle = (tau + READOUT_TIME) + DEPLETION_TIME  # cycle_duration, elementwise
            comp = noise.transition(comp, noise.decay(cycle[:, None]), z[shot])
            eps_true = eps + comp.sum(axis=1)
            d = mu - eps_true
    return mu + c, np.sqrt(var), eps_true, comp


def _bits(arrays):  # equal bytes: equal values, signs of zero included; no bank stays None
    return [a if a is None else a.tobytes() for a in arrays]


@st.composite
def limit_models(draw):  # beta = 0, or |alpha| + beta = 1
    T = draw(st.one_of(st.just(math.inf), st.floats(1e-7, 1e-4)))
    if draw(st.booleans()):
        return LikelihoodModel(alpha=draw(st.floats(-0.99, 0.99)), beta=0.0, T=T)
    beta = draw(st.floats(0.05, 1.0))
    return LikelihoodModel(alpha=draw(st.sampled_from((-1.0, 1.0))) * (1.0 - beta), beta=beta, T=T)


lockstep_models = st.one_of(models(), edge_models(), limit_models())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    lockstep_models,
    lockstep_models,
    st.floats(1e-3, 1e12),
    st.integers(0, CAP + 3),
    st.sampled_from((None, "ou_drift", "one_over_f")),
    st.integers(0, 2**32),
    st.sampled_from((0, 1, None)),  # None: the natural depth
)
def test_tabulated_lockstep_equals_the_per_run_loop(truth, update_model, sigma0, n, kind, seed, depth):
    runs = 64
    rng = np.random.default_rng(seed)
    mu = sigma0 * rng.standard_normal(runs)
    eps, u = mu + sigma0 * rng.standard_normal(runs), rng.random((n, runs))
    noise = z = comp = None
    if kind is not None:  # a bank far from stationary, as a tracking cycle may hand on
        noise = NoiseProcess(kind=kind, sigma_eps=sigma0)
        z = rng.standard_normal((n, runs, noise.rates.size))
        comp = 10.0 * sigma0 * rng.standard_normal((runs, noise.rates.size)) + sigma0
    per_run = _bits(
        _lockstep_per_run(mu, np.full(runs, sigma0), eps, u, truth, update_model, noise, z, comp)
    )
    assert (per_run[3] is None) == (kind is None)  # the bank handed back, compared bit for bit
    # Any depth splits the shots between the tree and the computed form at another point, and
    # gives the same bits.  The patch is in the body: Hypothesis rejects function-scoped fixtures.
    forced = experiments._tree_depth if depth is None else lambda n, k: min(n, depth)
    _outcome_tree.cache_clear()
    try:
        with mock.patch.object(experiments, "_tree_depth", forced):
            for _ in range(2):  # a first call builds the tree, the second reads it
                assert _bits(_lockstep(mu, sigma0, eps, u, truth, update_model, noise, z, comp)) == per_run
    finally:
        _outcome_tree.cache_clear()


@pytest.mark.parametrize("n", [3, CAP + 1])  # in the tree, and past it
def test_flat_update_model_keeps_the_sign_of_each_zero_step(n):
    # At beta = 0 the steps are -0.0 (m = -1) and +0.0 (m = +1).  From mu = -0.0 a run stays at
    # -0.0 only if every step is -0.0: here runs 0-99 measure -1 on every shot, 100-199 +1, the
    # rest at random.  beta = -0.0 is stored as 0.0, so the equal models step alike, in either
    # order, whether the call builds the tree or reads it.
    rng = np.random.default_rng(n)
    mu, eps, u = np.full(500, -0.0), 1e6 * rng.standard_normal(500), rng.random((n, 500))
    u[:, :100], u[:, 100:200] = 1.0 - 2.0**-53, 0.0
    results = []
    for beta in (0.0, -0.0, 0.0, -0.0):
        update_model = LikelihoodModel(alpha=-0.02, beta=beta, T=10e-6)
        args = (eps, u, REFERENCE_MODEL, update_model)
        tabulated = _lockstep(mu, 1e6, *args)
        assert _bits(tabulated) == _bits(_lockstep_per_run(mu, np.full(500, 1e6), *args))
        assert np.signbit(tabulated[0][:200]).tolist() == [True] * 100 + [False] * 100
        results.append(_bits(tabulated))
    assert results == [results[0]] * 4  # beta = -0.0 gives beta = 0.0's bits


@pytest.mark.parametrize("n", [2, 8, CAP - 1, CAP])  # CAP - 1: the 1/f cap
def test_lockstep_checks_sigma_at_the_nodes_it_visits(n):
    # Under alpha < 0 an outcome of +1 reduces the variance more than -1, so the all +1 node
    # has the smallest variance after the last shot.  sigma0 puts only that node's sigma below
    # the floor 2**-255.5, so a run raises on the all +1 path, as run_estimation does, and not
    # on the all -1 one.  T is infinite: at the reference T = 10 us, tau saturates at T where
    # sigma**4 turns subnormal, and no variance moves by an ulp.
    model = LikelihoodModel(alpha=REFERENCE_MODEL.alpha, beta=REFERENCE_MODEL.beta, T=math.inf)

    def after_last(m, sigma0):
        final, _ = run_estimation(GaussianBelief(0.0, sigma0), n, model, lambda probe: m)
        return final.sigma

    # T = inf makes the schedule scale-free: a unit prior gives each path's shrink factor.
    up, down = after_last(1, 1.0), after_last(-1, 1.0)
    sigma0 = 2.0**-255.5 / up * (down / up) ** (-0.5 / n)
    levels, _, var = _outcome_tree(sigma0, n, model, model, None)
    assert len(levels) == n  # so at its natural depth _lockstep reads every shot from the tree
    subnormal = [k for k, v in enumerate(var) if not _sigma_in_range(math.sqrt(v))]
    assert subnormal == [2**n - 1]  # the all +1 node, the last to leave the tree

    zero = np.zeros(1)
    for m, u in ((1, 0.0), (-1, 1.0 - 2.0**-53)):
        in_scalar_form = _raises_subnormal(
            lambda: run_estimation(GaussianBelief(0.0, sigma0), n, model, lambda probe: m)
        )
        for depth in (0, 1, None):  # every shot computed, one from the tree, and the natural n
            forced = experiments._tree_depth if depth is None else lambda n, k: min(n, depth)
            with mock.patch.object(experiments, "_tree_depth", forced):
                in_array_form = _raises_subnormal(
                    lambda: _lockstep(zero, sigma0, zero, np.full((n, 1), u), model, model)
                )
            assert in_array_form == in_scalar_form == (m == 1)


def _process_with(k):
    """A process with a bank of k components.  No kind builds k = 2, so 1/f's 3 are cut to 2."""
    if k < 2:
        return NoiseProcess(kind="ou_drift") if k else None
    noise = NoiseProcess(kind="one_over_f", octave_count=max(k, 3))
    if k == 2:  # the fields __post_init__ sets, for the first two rates
        rates, variance = noise.rates[:2], noise.sigma_eps**2 / 2.0  # a read-only view
        fields = {"rates": rates, "component_variance": variance, "_bank": (rates.tobytes(), variance)}
        for name, value in fields.items():
            object.__setattr__(noise, name, value)
    return noise


def _level_variances(depth, *key):
    """The variance each level of a tree enters with: the leaves of the tree that stops there."""
    variances = []
    for s in range(depth):
        _, _, var = _outcome_tree(1e6, s, *key)
        variances.append(var)
    return variances


def _nbytes(tree):
    levels, c, var = tree
    return sum(table.nbytes for level in levels for table in level) + c.nbytes + var.nbytes


class TestOutcomeTreeCache:
    @pytest.fixture(autouse=True)
    def empty_cache(self):
        _outcome_tree.cache_clear()

    def test_a_first_call_builds_every_level(self):
        rng = np.random.default_rng(0)
        for noise in (None, NoiseProcess(kind="one_over_f")):  # a drifting bank's tables as well
            k = 0 if noise is None else noise.rates.size
            for n in (0, 1, 5, CAP - 1, CAP, CAP + 3):  # the 1/f bank's cap is CAP - 1
                z = comp = None
                if noise is not None:
                    z, comp = rng.standard_normal((n, 3, k)), rng.standard_normal((3, k))
                args = (rng.random((n, 3)), REFERENCE_MODEL, IDEAL_MODEL, noise, z, comp)
                _lockstep(np.zeros(3), 1e6, np.zeros(3), *args)
                misses, depth = _outcome_tree.cache_info().misses, _tree_depth(n, k)
                levels, c, var = _outcome_tree(1e6, depth, REFERENCE_MODEL, IDEAL_MODEL, noise)
                assert _outcome_tree.cache_info().misses == misses  # the tree _lockstep built
                # (slope, amp, phase[, decay, kick]) per shot: what a tabulated shot reads
                shapes = [[(2**s,)] * 3 + [(2**s, k)] * 2 * (k > 0) for s in range(depth)]
                assert [[table.shape for table in level] for level in levels] == shapes
                assert c.shape == var.shape == (2**depth,)  # the nodes that leave the tree

    def test_a_quasistatic_process_shares_the_tree_of_none(self):
        prior = GaussianBelief(0.0, 1e6)
        for noise in (None, NoiseProcess(), NoiseProcess(sigma_eps=1.0), None):
            run_campaign(CampaignConfig(10, 4, prior, REFERENCE_MODEL, IDEAL_MODEL, noise))
        info = _outcome_tree.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
        levels, _, _ = _outcome_tree(1e6, 4, REFERENCE_MODEL, IDEAL_MODEL, None)
        assert [len(level) for level in levels] == [3] * 4  # no drift tables

    def test_each_drifting_process_keys_its_own_tree(self):
        # OU and 1/f at one (sigma0, models) step their banks by different tables; two
        # value-equal processes are one key.
        prior = GaussianBelief(0.0, 1e6)
        ou, one_over_f = NoiseProcess(kind="ou_drift"), NoiseProcess(kind="one_over_f")
        for noise in (None, ou, one_over_f, NoiseProcess(kind="one_over_f")) * 2:
            run_campaign(CampaignConfig(10, 4, prior, REFERENCE_MODEL, IDEAL_MODEL, noise))
        info = _outcome_tree.cache_info()
        assert (info.misses, info.hits, info.currsize) == (3, 5, 3)
        for noise in (ou, one_over_f):
            levels, _, _ = _outcome_tree(1e6, 4, REFERENCE_MODEL, IDEAL_MODEL, noise)
            _, _, _, decay, kick = levels[0]
            assert decay.shape == kick.shape == (1, noise.rates.size)
        assert _outcome_tree.cache_info().misses == 3

    @pytest.mark.parametrize("kind", ["ou_drift", "one_over_f"])
    def test_drift_tables_hold_each_nodes_step_read_only(self, kind):
        noise = NoiseProcess(kind=kind)
        levels, _, _ = _outcome_tree(1e6, 4, REFERENCE_MODEL, IDEAL_MODEL, noise)
        variances = _level_variances(4, REFERENCE_MODEL, IDEAL_MODEL, noise)
        for s, ((slope, _, _, decay, kick), v) in enumerate(zip(levels, variances)):
            assert decay.shape == kick.shape == (2**s, noise.rates.size)
            tau = _optimal_tau_vec(v, IDEAL_MODEL)  # the tau each node probes at
            np.testing.assert_array_equal(slope, TWO_PI * tau)
            cycle = ((tau + READOUT_TIME) + DEPLETION_TIME)[:, None]
            np.testing.assert_array_equal(decay, noise.decay(cycle))
            np.testing.assert_array_equal(kick, noise.innovation(decay))
            for table in (decay, kick):
                with pytest.raises(ValueError, match="read-only"):
                    table[0, 0] = 0.0

    @pytest.mark.parametrize("kind", ["ou_drift", "one_over_f"])
    def test_cycle_step_is_the_step_over_one_cycle_duration(self, kind):
        # Each tau of a tree's levels: the bank steps over a shot's cycle by the bits of
        # decay(cycle_duration) and its innovation.
        noise = NoiseProcess(kind=kind)
        variances = _level_variances(6, REFERENCE_MODEL, IDEAL_MODEL, noise)
        for tau in np.concatenate([_optimal_tau_vec(v, IDEAL_MODEL) for v in variances]):
            decay, kick = noise.cycle_step(np.array([tau]))
            expected = noise.decay(cycle_duration(ProbeSettings(tau, 0.0)))
            assert decay.shape == kick.shape == (1, noise.rates.size)
            np.testing.assert_array_equal(decay[0], expected)
            np.testing.assert_array_equal(kick[0], noise.innovation(expected))

    def test_depth_is_the_most_levels_within_the_byte_budget(self):
        assert _tree_depth(CAP, 0) == _tree_depth(CAP, 1) == _tree_depth(CAP, 2) == CAP
        assert _tree_depth(CAP, 3) == _tree_depth(CAP, 6) == CAP - 1
        assert _tree_depth(CAP, 7) == CAP - 2
        assert [_tree_depth(n, 0) for n in (0, 1, 5, CAP + 5)] == [0, 1, 5, CAP]
        for k in range(12):  # the levels fit, and one more would not
            depth = _tree_depth(10**6, k)
            assert 8 * (5 + 2 * k) * 2**depth <= _TREE_BYTES < 8 * (5 + 2 * k) * 2 ** (depth + 1)
        # A bank too large for one level tabulates none: 147,454 components used to give -1, and
        # a campaign at -1 raise NameError.  At 0 every shot reads each run's own variance.
        assert [_tree_depth(10**6, k) for k in (73_725, 73_726, 147_454, 10**6)] == [1, 0, 0, 0]
        noise = NoiseProcess(kind="one_over_f", octave_count=150_000)
        cfg = CampaignConfig(2, 3, GaussianBelief(0.0, 1e6), REFERENCE_MODEL, IDEAL_MODEL, noise)
        stats = run_campaign(cfg)
        assert np.isfinite([stats.eps_true, stats.eps_hat, stats.final_sigmas]).all()
        assert (stats.final_sigmas < 1e6).all()
        levels, c, var = _outcome_tree(1e6, 0, REFERENCE_MODEL, IDEAL_MODEL, noise)
        assert _outcome_tree.cache_info().misses == 1  # the campaign's tree
        assert levels == () and c.tolist() == [-0.0] and var.tolist() == [1e12]  # the root leaves

    @pytest.mark.parametrize(
        "k", [0, 1, 2, 3, 6, 7],
        ids=["quasistatic", "ou", "two_components", "one_over_f_3", "one_over_f_6", "one_over_f_7"],
    )
    def test_every_tree_lockstep_builds_fits_the_budget(self, k):
        # Levels and MiB of (5 + 2k) 2**depth doubles at n = CAP, and past it the same tree.
        levels_held, mib = {0: (CAP, 1.25), 1: (CAP, 1.75), 2: (CAP, 2.25), 3: (CAP - 1, 1.375),
                            6: (CAP - 1, 2.125), 7: (CAP - 2, 1.1875)}[k]
        prior, noise = GaussianBelief(0.0, 1e6), _process_with(k)
        for n in (CAP, CAP + 2):
            run_campaign(CampaignConfig(4, n, prior, REFERENCE_MODEL, IDEAL_MODEL, noise))
        tree = _outcome_tree(1e6, _tree_depth(CAP, k), REFERENCE_MODEL, IDEAL_MODEL, noise)
        levels, _, _ = tree
        assert _outcome_tree.cache_info().misses == 1  # the tree both campaigns read
        assert len(levels) == levels_held
        # (3 + 2k) doubles a node of each level, and (c, var) for each node that leaves the tree
        bound = 8 * (5 + 2 * k) * 2**levels_held
        assert _nbytes(tree) == bound - 8 * (3 + 2 * k) <= bound == mib * 2**20 <= _TREE_BYTES

    @pytest.mark.parametrize(
        "first,second",
        [
            (NoiseProcess(kind="ou_drift"), NoiseProcess(kind="ou_drift", band=(2.0, 1e5))),
            (NoiseProcess(kind="ou_drift"), NoiseProcess(kind="ou_drift", octave_count=9)),
            (NoiseProcess(kind="one_over_f"), NoiseProcess(kind="one_over_f", correlation_time=5e-3)),
        ],
        ids=["ou_band", "ou_octave_count", "one_over_f_correlation_time"],
    )
    def test_processes_with_one_bank_give_the_same_bits(self, first, second):
        # Processes whose fields differ only where their bank does not read them compare equal,
        # so they share one tree.
        prior = GaussianBelief(0.0, 1e6)
        assert first == second and hash(first) == hash(second)
        np.testing.assert_array_equal(first.rates, second.rates)
        bits = []
        for noise in (first, second):
            r = run_campaign(CampaignConfig(20, 16, prior, REFERENCE_MODEL, IDEAL_MODEL, noise, 3))
            bits.append(_bits([r.eps_true, r.eps_hat, r.final_sigmas]))
        assert bits[0] == bits[1]
        assert _outcome_tree.cache_info().misses == 1

    def test_a_full_one_over_f_tree_stays_small(self):
        # (5 + 2k) 2**14 doubles for the default k = 6 bank; the cache holds up to 4 such trees.
        noise = NoiseProcess(kind="one_over_f")
        tree = _outcome_tree(1e6, _tree_depth(CAP, 6), REFERENCE_MODEL, IDEAL_MODEL, noise)
        levels, _, _ = tree
        assert len(levels) == CAP - 1
        assert _nbytes(tree) <= 2.125 * 2**20

    def test_tables_are_read_only(self):
        for noise in (None, NoiseProcess(kind="one_over_f")):
            levels, c, var = tree = _outcome_tree(1e6, 4, REFERENCE_MODEL, REFERENCE_MODEL, noise)
            # every caller gets the same tuples, which no assignment can change
            assert type(tree) is type(levels) is tuple
            assert {type(level) for level in levels} == {tuple}
            for table in (*(table for level in levels for table in level), c, var):
                with pytest.raises(ValueError, match="read-only"):
                    table[0] = 0.0

    def test_cache_is_bounded(self):
        for k in range(12):
            _outcome_tree(1e6, 4, REFERENCE_MODEL, REFERENCE_MODEL, None)  # found from the 2nd call
            _outcome_tree(2e6 + k, 4, REFERENCE_MODEL, REFERENCE_MODEL, None)  # a new key each time
        info = _outcome_tree.cache_info()
        assert (info.maxsize, info.currsize) == (4, 4)
        assert (info.misses, info.hits) == (13, 11)  # the recently used key was kept throughout

    def test_value_equal_models_share_one_entry(self):
        rng = np.random.default_rng(0)
        eps, u = 1e6 * rng.standard_normal(10), rng.random((15, 10))
        for _ in range(2):
            model = LikelihoodModel(alpha=-0.02, beta=0.6, T=10e-6)  # a new, equal instance
            _lockstep(np.zeros(10), 1e6, eps, u, model, model)
        info = _outcome_tree.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)  # the second call found it

    @pytest.mark.parametrize(
        "run",
        [
            lambda prior: run_campaign(
                CampaignConfig(
                    300, CAP + 5, prior, REFERENCE_MODEL, IDEAL_MODEL, master_seed=2
                )
            ),
            lambda prior: run_campaign(
                CampaignConfig(
                    100, CAP + 2, prior, REFERENCE_MODEL, REFERENCE_MODEL,
                    NoiseProcess(kind="one_over_f"), master_seed=3,
                )
            ),
            lambda prior: closed_loop_track(NoiseProcess(), 20, 12, 7e-6, REFERENCE_MODEL, 4, 50),
            lambda prior: closed_loop_track(
                NoiseProcess(kind="ou_drift"), 20, 12, 7e-6, REFERENCE_MODEL, 4, 50
            ),
            lambda prior: closed_loop_track(
                NoiseProcess(kind="one_over_f"), 20, 12, 7e-6, REFERENCE_MODEL, 4, 50
            ),
        ],
        ids=[
            "campaign_above_the_cap", "one_over_f_above_the_cap", "closed_loop_track",
            "closed_loop_track_ou", "closed_loop_track_one_over_f",
        ],
    )
    def test_callers_match_the_per_run_loop(self, run, monkeypatch):
        def bits(result):
            if isinstance(result, tuple):  # closed_loop_track's two fringe records
                return _bits([r.flip_fractions for r in result])
            return _bits([result.eps_true, result.eps_hat, result.final_sigmas])

        prior = GaussianBelief(0.0, 1e6)
        tabulated = [bits(run(prior)) for _ in range(2)]  # the first call builds the tree
        assert _outcome_tree.cache_info().misses == 1  # every later call read it
        monkeypatch.setattr(
            experiments,
            "_lockstep",
            lambda mu, sigma0, *args: _lockstep_per_run(mu, np.full(mu.shape, sigma0), *args),
        )
        assert tabulated == [bits(run(prior))] * 2


def test_array_form_rejects_non_boolean_outcomes():
    # A take would read an outcome of -1 as the gain of +1.
    var = np.full(2, 1e12)
    tau = _optimal_tau_vec(var, IDEAL_MODEL)
    with pytest.raises(TypeError, match="boolean"):
        _posterior_moments_vec(np.zeros(2), var, tau, np.array([1, -1]), IDEAL_MODEL)


# The scalar closed form exactly as it was written before its leading constants
# were folded, with tau squared as tau * tau, as both forms square it.  Folding
# only what left-to-right evaluation computes first leaves every bit in place,
# so the current form must equal these with ==.


def _optimal_tau_written_out(sigma, T):
    inv_T = 0.0 if math.isinf(T) else 1.0 / T
    root = math.sqrt(16.0 * math.pi**2 * sigma**2 + inv_T**2)
    return 2.0 / (root + inv_T)


def _posterior_moments_written_out(mu, sigma, tau, m, model):
    b = model.beta
    if b == 0.0:  # the flat model's update is a no-op, as in the scalar form
        return mu, sigma
    var = sigma**2
    inv_T = 0.0 if math.isinf(model.T) else 1.0 / model.T
    damp = math.exp(-tau * inv_T - TWO_PI**2 / 2.0 * var * (tau * tau))
    step = TWO_PI * m * b / (1.0 + m * model.alpha) * var * tau * damp
    return mu + step, math.sqrt(var - step * step)


wide_sigmas = st.floats(1e-3, 1e12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(models(), mus, wide_sigmas, tau_multipliers, outcomes)
def test_closed_form_bits_equal_the_written_out_expressions(model, mu, sigma, mult, m):
    tau_opt = optimal_tau(sigma, model.T)
    assert tau_opt == _optimal_tau_written_out(sigma, model.T)
    tau = mult * tau_opt
    assert _posterior_moments(mu, sigma, sigma**2, tau, m, model) == _posterior_moments_written_out(
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


def _hex(*values):
    return [float(v).hex() for v in values]  # equal strings: equal bits, signs of zero included


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.one_of(models(), limit_models()),
    st.one_of(st.sampled_from((-0.0, 0.0)), mus),
    wide_sigmas,
    st.lists(outcomes, max_size=20),
)
# a sigma**2 that differs from sigma * sigma, and an alpha near 1 - beta:
@example(LikelihoodModel(-0.02, 0.6, 1e-5), 0.0, 1345786.938855165, [1])
@example(LikelihoodModel(0.2882398177113618, 0.6, 1e-5), 0.0, 1e6, [-1, -1, -1])
def test_controller_loop_keeps_every_bit_of_the_written_out_loop(model, mu, sigma, seq):
    # The model's stored gains must leave every bit in place, the sign of a zero mu included,
    # and beta = 0 must leave the belief as it was.
    expected, mu_ref, sigma_ref = [], mu, sigma
    for m in seq:
        tau = _optimal_tau_written_out(sigma_ref, model.T)
        mu_ref, sigma_ref = _posterior_moments_written_out(mu_ref, sigma_ref, tau, m, model)
        expected.append(_hex(mu_ref, sigma_ref))
    belief, steps = GaussianBelief(mu, sigma), []
    for m in seq:
        belief = update(belief, design_probe(belief, model), m, model)
        steps.append(_hex(belief.mu, belief.sigma))
    replay = iter(seq)
    _, trace = run_estimation(GaussianBelief(mu, sigma), len(seq), model, lambda probe: next(replay))
    assert steps == [_hex(r.mu, r.sigma) for r in trace] == expected
