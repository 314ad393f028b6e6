"""Reproducible simulation studies built on the estimator, oracle and qubit simulator.

Covers Monte Carlo estimation-error campaigns (matched vs mismatched
measurement models), Gaussian-approximation validity sweeps, closed-loop
fringe tracking with and without frequency feedback, fringe fitting, and the
fixed-evolution-time frequentist baseline.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import oracle
from .estimator import (
    TWO_PI,
    GaussianBelief,
    LikelihoodModel,
    NumericalConsistencyError,
    ProbeSettings,
    _arrays,
    _contrast,
    _optimal_tau_vec,
    _posterior_moments_vec,
    _sigma_in_range,
    likelihood_probability,
    optimal_detuning,
    optimal_tau,
)
from .qubitsim import NoiseProcess, _polar, rng_for_run, standard_normals

_TWO_PI = _arrays(TWO_PI)[0]  # the operand of each shot's slope 2 pi tau, tabulated or computed


# ---------------------------------------------------------------------------
# Monte Carlo estimation-error campaigns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignConfig:
    """One Monte Carlo campaign: repeated estimations of shifts drawn from the prior.

    truth_model generates the outcomes; update_model is what the estimator
    assumes.  Setting them equal gives a matched campaign.
    """

    run_count: int
    n_shots: int
    prior: GaussianBelief
    truth_model: LikelihoodModel
    update_model: LikelihoodModel
    noise: NoiseProcess | None = None
    master_seed: int = 0

    def __post_init__(self):
        if self.run_count < 1:
            raise ValueError(f"run_count must be >= 1, got {self.run_count}")
        if self.n_shots < 0:
            raise ValueError(f"n_shots must be >= 0, got {self.n_shots}")
        if not 0 <= operator.index(self.master_seed) < 2**128:  # the keys Philox accepts; 2.5 raises
            raise ValueError(f"master_seed must be >= 0 and < 2**128, got {self.master_seed}")


@dataclass(frozen=True, eq=False)
class ErrorStats:
    """A campaign's per-run shifts, final means and final sigmas [Hz], and their statistics."""

    eps_true: np.ndarray
    eps_hat: np.ndarray
    final_sigmas: np.ndarray

    @property
    def errors(self) -> np.ndarray:  # eps_hat - eps_true, per run [Hz]
        return self.eps_hat - self.eps_true

    @property
    def mean_final_sigma(self) -> float:
        return float(self.final_sigmas.mean())

    @property
    def std(self) -> float:
        return float(self.errors.std())

    @property
    def mad(self) -> float:
        errors = self.errors
        return _median(np.abs(errors - _median(errors)))

    @property
    def outlier_fraction(self) -> float:  # |error| > 3 * final sigma of the run
        return float(np.mean(np.abs(self.errors) > 3.0 * self.final_sigmas))

    @property
    def calibration_fraction(self) -> float:  # |error| <= final sigma of the run
        return float(np.mean(np.abs(self.errors) <= self.final_sigmas))


def _median(x: np.ndarray) -> float:
    """np.median of a non-empty 1-D array, nan if x holds one, by np.median's one partition.

    np.median's own nan check imports numpy.ma: 13-16 ms and 1.25 MB in a fresh process.  The
    middle values are summed from +0.0, as np.mean sums them, so a median of -0.0 reads 0.0 too.
    """
    half, odd = divmod(x.size, 2)
    part = np.partition(x, [half, -1] if odd else [half - 1, half, -1])  # a nan sorts last
    if math.isnan(top := part[-1]):
        return float(top)
    return float(0.0 + part[half] if odd else (0.0 + part[half - 1] + part[half]) / 2.0)


#: An outcome tree's byte budget: (5 + 2k) 2**depth doubles for a bank of k components.
_TREE_BYTES = 9 * 2**18  # 2.25 MiB, which a 2-component bank's 15 levels fill


def _tree_depth(n: int, k: int) -> int:
    """Levels tabulated for n shots: the most whose (5 + 2k) 2**depth doubles fit _TREE_BYTES, or 0.

    A level's node holds 3 + 2k doubles and a leaf 2: (3 + 2k)(2**depth - 1) + 2 * 2**depth in all.
    """
    return min(n, max(0, (_TREE_BYTES // (8 * (5 + 2 * k))).bit_length() - 1))


@functools.lru_cache(maxsize=4)  # the five commands use 3 trees
def _outcome_tree(sigma0, depth, truth_model, update_model, noise):
    """(levels, c, var): per shot the read-only tables a tabulated shot reads, then the leaves.

    The cache of _lockstep's computed shots: its depth changes time, never bits.  A run's node at
    shot s is its outcomes so far in binary (m = +1 is 1).  levels[s] is the tuple
    (slope, amp, phase) over its 2**s nodes: the slope 2 pi tau, the amplitude beta e^(-tau/T)
    and the phase 2 pi tau c, where c is the node's mean offset from the starting mean: -0.0 at
    the root, and a child's is its parent's plus the array form's step.  For a drifting bank the
    tuple goes on with each node's decay over its cycle and innovation scale, (2**s, k) each.
    c and var are the offsets and variances of the 2**depth nodes that leave the tree.  The
    variance a level enters with is a local of the build: no tabulated shot reads it.
    """
    c, var, levels = np.array([-0.0]), np.array([sigma0], np.float64) ** 2, []
    for _ in range(depth):
        tau = _optimal_tau_vec(var, update_model)
        slope, amp = _TWO_PI * tau, truth_model.beta * np.exp(tau * -truth_model.inv_T)
        drift = noise.cycle_step(tau) if noise is not None else ()
        levels.append(tuple(_arrays(slope, amp, slope * c, *drift)))
        child, var_next = np.zeros((2, 2 * var.size))
        for up in (False, True):  # one outcome a call: 128 KiB temporaries are mmapped, 3x slower
            child[up::2], var_next[up::2] = _posterior_moments_vec(
                c, var, tau, np.full(var.size, up), update_model
            )
        c, var = child, var_next
    return tuple(levels), *_arrays(c, var)


def _lockstep(mu, sigma0, eps, u, truth_model, update_model, noise=None, z=None, comp=None):
    """Estimations from the prior sigma0, one per array element: final (mu, sigma, shift, comp).

    Shot s measures +1 where u[s] < P(+1) of the truth model, tested as the same event
    beta e^(-tau/T) sin(2 pi tau (mu0 - eps) + 2 pi tau c) < 1 + alpha - 2 u[s], with c the run's
    mean offset from its starting mean mu0, and applies the array closed form to c, which the
    outcome tree caches for the first shots, read at each run's node (none for a bank too large
    for one level).  Given a bank comp (R x k) of the drifting process noise's OU components, the
    shift is eps plus their sum, and the bank steps over shot s's probing cycle with the standard
    normals z[s], by the decay and innovation scale the tree holds for the node probed; the bank
    after the last shot is handed back.  All randomness comes in through u, z and comp.  The
    scalar form's posterior-sigma floor is checked after the last shot, as var never grows, and
    past the tree every 512th, since tau**2 overflows >= 780 shots past it (<= 0.67 bits a shot).
    """
    eps_true = eps if comp is None else eps + np.add.reduce(comp, 1)
    d, n, node = mu - eps_true, len(u), np.zeros(eps.shape, np.intp)
    depth = _tree_depth(n, 0 if comp is None else comp.shape[1])
    levels, c, var = _outcome_tree(
        sigma0, depth, truth_model, update_model, None if comp is None else noise
    )
    at = node  # run i's offset and variance are c[at[i]] and var[at[i]]: its leaf's, then its own
    for shot, threshold in enumerate((1.0 + truth_model.alpha) - 2.0 * u):
        if shot < depth:
            if comp is None:
                slope, amp, phase = levels[shot]
            else:  # the bank steps over the cycle of the node probed
                slope, amp, phase, decay, kick = levels[shot]
                decay, kick = decay.take(node, 0), kick.take(node, 0)
            up = amp[node] * np.sin(slope[node] * d + phase[node]) < threshold
            node += node + up
        else:
            if shot == depth:  # each run's own offset and variance: from here on run i reads c[i]
                c, var, at = c[at], var[at], slice(None)
            tau = _optimal_tau_vec(var, update_model)
            slope, amp = _TWO_PI * tau, truth_model.beta * np.exp(tau * -truth_model.inv_T)
            up = amp * np.sin(slope * d + slope * c) < threshold
            c, var = _posterior_moments_vec(c, var, tau, up, update_model)
            if shot % 512 == 511 and not _sigma_in_range(sigma := math.sqrt(var.min())):
                raise NumericalConsistencyError(f"posterior sigma {sigma} is below 2**-255.5")
            if comp is not None:
                decay, kick = noise.cycle_step(tau)
        if comp is not None:
            comp = comp * decay + kick * z[shot]
            eps_true = eps + np.add.reduce(comp, 1)
            d = mu - eps_true
    sigma = np.sqrt(var[at])
    if not _sigma_in_range(low := sigma.min()):
        raise NumericalConsistencyError(f"posterior sigma {low} is below 2**-255.5")
    return mu + c[at], sigma, eps_true, comp


def _rows(seed: int, count: int, width: int, noise=None, steps=0):
    """(z, u, comp, dz): per row i, the prior normal z[i], `width` uniforms u[i] and a drift bank.

    Row i of the block is the stream rng_for_run(seed, i, W): two uniforms for z[i], then u[i],
    then two per pair of the process's k (steps + 1) drift normals, then padding to W, a multiple
    of 4 (doubles per Philox block).  The first k normals draw the bank's stationary start
    comp[i]; dz[s, i] holds the k of step s.  comp and dz are None for a process with k = 0.
    """
    k = 0 if noise is None else noise.rates.size
    drift = k * (steps + 1)
    stop = 2 + width + drift + drift % 2
    block = rng_for_run(seed, 0).random((count, stop + -stop % 4))
    scale, t = _polar(block[:, 0], block[:, 1])
    z, u = scale * (1.0 - t * t), block[:, 2 : 2 + width]  # standard_normals' cosine half
    if not k:
        return z, u, None, None
    dz = standard_normals(block[:, 2 + width : stop])[:, :drift].reshape(count, steps + 1, k)
    return z, u, noise.transition(0.0, 0.0, dz[:, 0]), dz[:, 1:].swapaxes(0, 1)


def _campaign(cfg: CampaignConfig, extra: int = 0) -> tuple[ErrorStats, np.ndarray]:
    """(stats, u_extra): every run of the campaign, in lockstep.

    Run i's row (_rows) holds one uniform per shot, `extra` more (u_extra[:, i]), then the drift
    bank's normals for n steps.
    """
    n, R = cfg.n_shots, cfg.run_count
    z0, u, comp, z = _rows(cfg.master_seed, R, n + extra, cfg.noise, n)
    eps0 = cfg.prior.mu + cfg.prior.sigma * z0
    mu0, sigma0, u = np.full(R, cfg.prior.mu), cfg.prior.sigma, u.T
    models = cfg.truth_model, cfg.update_model
    mu, sigma, eps_true, _ = _lockstep(mu0, sigma0, eps0, u[:n], *models, cfg.noise, z, comp)
    return ErrorStats(eps_true, mu, sigma), u[n:]


def run_campaign(cfg: CampaignConfig) -> ErrorStats:
    """Every run of the campaign; per-run RNG streams make each independent of the rest."""
    return _campaign(cfg)[0]


# ---------------------------------------------------------------------------
# Gaussian-approximation validity
# ---------------------------------------------------------------------------


class SweepRow(NamedTuple):
    """One (tau, outcome) point of the Gaussian-validity sweep."""

    tau_multiplier: float
    tau: float
    m: int
    posterior_sigma: float
    kl_bits: float
    n_modes: int


def gaussian_validity_sweep(
    prior: GaussianBelief,
    model: LikelihoodModel,
    tau_multipliers: list[float],
) -> list[SweepRow]:
    """True-posterior sigma and KL against the Gaussian fit, for scaled probe times.

    For each tau = multiplier * tau_opt and each outcome, the exact grid
    posterior is computed with the inflection-point detuning; the KL
    divergence is against its own method-of-moments Gaussian fit.  A multiplier
    whose tau puts fewer than 4 grid points in a fringe period raises ValueError.
    """
    tau_opt = optimal_tau(prior.sigma, model.T)
    grid_prior = oracle.from_gaussian(prior)
    spacing = grid_prior.eps_values[1] - grid_prior.eps_values[0]  # a fringe period is 1/tau
    if bad := [mult for mult in tau_multipliers if not 0.0 < spacing * (mult * tau_opt) <= 0.25]:
        raise ValueError(f"tau multipliers {bad}: not positive, or < 4 grid points per fringe")
    rows = []
    for mult in tau_multipliers:
        tau = mult * tau_opt
        decay = math.exp(-tau * model.inv_T)  # as likelihood_probability; x serves both outcomes
        x = _contrast(grid_prior.eps_values, tau, optimal_detuning(prior.mu, tau), decay, model)
        for m in (-1, +1):
            post = oracle._reweight(grid_prior, 0.5 + 0.5 * m * x)  # grid_update's bits
            fit = oracle.gaussian_fit(post)
            gauss = oracle.GridPosterior(
                post.eps_values, oracle.normal_weights(post.eps_values, fit.mu, fit.sigma)
            )
            rows.append(
                SweepRow(
                    tau_multiplier=mult,
                    tau=tau,
                    m=m,
                    posterior_sigma=fit.sigma,
                    kl_bits=oracle.kl_divergence(post, gauss),
                    n_modes=oracle.count_local_maxima(post),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Closed-loop fringe tracking
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FringeRecord:
    """Averaged Ramsey fringe: flip fraction per evolution time."""

    tau_values: np.ndarray
    flip_fractions: np.ndarray
    feedback: bool

    def __post_init__(self):
        for name in ("tau_values", "flip_fractions"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.tau_values.ndim != 1 or self.tau_values.shape != self.flip_fractions.shape:
            raise ValueError("tau_values and flip_fractions must be 1-D arrays of equal length")
        if not np.all((self.flip_fractions >= 0) & (self.flip_fractions <= 1)):  # nan fails too
            raise ValueError("flip fractions must be finite and lie in [0, 1]")


def closed_loop_track(
    noise: NoiseProcess,
    n_shots: int,
    m_cycles: int,
    tau_max: float,
    model: LikelihoodModel,
    seed: int,
    repetitions: int = 200,
    sigma0: float = 30e3,
    target_detuning: float = 1e6,
) -> tuple[FringeRecord, FringeRecord]:
    """Interleaved estimation + verification fringes, with and without feedback.

    Feedback arm: before each verification Ramsey shot at evolution time tau_j, the shift is
    re-estimated with n_shots adaptive probes (prior mean warm-started from the previous estimate)
    and the verification detuning is offset so the expected total detuning is target_detuning.
    The feedback-off arm keeps the nominal frequency (assumes zero shift).  The arms are paired:
    repetition r's row of one Philox block (_rows) holds the normal of its quasistatic shift, then
    per cycle n_shots estimation uniforms and one verification uniform that both arms use, then
    a drifting process's normals: k for its bank's stationary start, then k per shot in the same
    order.  The bank carries all of a drifting shift, across every cycle of the repetition, and
    steps over each shot's cycle by NoiseProcess.cycle_step.  So the fringes, averaged over
    repetitions advanced in lockstep, differ only by the feedback.
    """
    if n_shots < 0:
        raise ValueError(f"n_shots must be >= 0, got {n_shots}")
    if m_cycles < 2:
        raise ValueError(f"m_cycles must be >= 2, got {m_cycles}")
    if not 0.0 < tau_max < math.inf:  # np.linspace would warn, and each cycle's tau be nan
        raise ValueError(f"tau_max must be positive and finite, got {tau_max}")
    if not math.isfinite(target_detuning):  # its cosine would be nan, and both fringes zero
        raise ValueError(f"target_detuning must be finite, got {target_detuning}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if not _sigma_in_range(sigma0):
        raise ValueError(f"sigma0 must be in [2**-255.5, 2**254), got {sigma0}")

    taus = np.linspace(tau_max / m_cycles, tau_max, m_cycles)
    u, mu_hat, shift = _track(noise, n_shots, taus, model, seed, repetitions, sigma0)
    delta_f = target_detuning + np.stack((mu_hat, np.zeros_like(mu_hat)))  # feedback arm, open arm
    decay = np.array([math.exp(-tau * model.inv_T) for tau in taus])  # likelihood_probability's bits
    flips = np.mean(u < 0.5 + 0.5 * _contrast(shift, taus[:, None], delta_f, decay[:, None], model), axis=2)
    return FringeRecord(taus, flips[0], feedback=True), FringeRecord(taus, flips[1], feedback=False)


def _track(noise, n_shots, taus, model, seed, repetitions, sigma0):
    """closed_loop_track's record, (M, R) each: per cycle and repetition, the verification uniform,
    the estimate fed forward and the shift at the verification shot."""
    shots = taus.size * (n_shots + 1)
    z0, rows, comp, dz = _rows(seed, repetitions, shots, noise, shots)
    eps = noise.sigma_eps * z0 if comp is None else np.zeros(repetitions)  # or all in the bank
    u = rows.reshape(repetitions, taus.size, n_shots + 1).transpose(1, 2, 0)  # cycle, variate, rep
    mu, shift = np.zeros((2, taus.size, repetitions))
    for j in range(taus.size):  # warm start mu[j - 1]: at j = 0, the zeros of row -1
        z = None if comp is None else dz[j * (n_shots + 1) :]
        mu[j], _, shift[j], comp = _lockstep(mu[j - 1], sigma0, eps, u[j, :-1], model, model, noise, z, comp)
        if comp is not None:  # the bank steps over the verification shot's cycle
            decay, kick = noise.cycle_step(taus[j : j + 1])
            comp = comp * decay + kick * z[n_shots]
    return u[:, -1], mu, shift


# ---------------------------------------------------------------------------
# Fringe fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FringeFit:
    """Least-squares fit of p(tau) = c + A exp(-(tau/T2)^2) cos(2 pi f tau + phi); T2 = inf: no decay."""

    t2: float
    frequency: float
    amplitude: float
    offset: float
    phase: float
    t2_err: float
    frequency_err: float
    residual_rms: float
    identifiable: bool


#: The fit stops at the 5th step that lowers the squared residual by <= 1e-8 of it (curve_fit's ftol
#: stops at the 1st, 1e-4 sigma from the minimum; a fit that runs off to A -> inf stops too), or
#: where no step lowers it: the damping, 1e-3 at first, passes 1e16.  Else it stops unconverged.
_FIT_SLOW, _FIT_STEPS, _FIT_DAMPING = (1e-8, 5), 2000, (1e-3, 1e16, 1e-12)


def _fringe_model(tau, c, A, gamma, f, phi):
    return c + A * np.exp(-gamma * tau**2) * np.cos(TWO_PI * f * tau + phi)


def _fringe_jacobian(tau, c, A, gamma, f, phi):
    """_fringe_model's derivatives by (c, A, gamma, f, phi), one column each."""
    envelope, phase = np.exp(-gamma * tau**2), TWO_PI * f * tau + phi
    d_A, d_phi = envelope * np.cos(phase), -A * envelope * np.sin(phase)
    return np.stack((np.ones_like(tau), d_A, -A * d_A * tau**2, d_phi * TWO_PI * tau, d_phi), 1)


def _least_squares(tau, y, p, lower, upper):
    """(p, converged): _fringe_model's parameters fitted to y from p within [lower, upper].

    Levenberg-Marquardt scaled by the largest norm each Jacobian column has had, as MINPACK
    scales, so a column that collapses (f = 0 at phi = pi) is still damped; the norms span 1e-11
    to 7.  A zero column steps by 0, a parameter at a bound is held while the gradient pushes it
    outward, and each trial is clipped to the bounds.  The damping rises tenfold a rejected trial
    and falls tenfold a step, to 1e-12.  After _FIT_STEPS steps it returns its last iterate.
    """
    (ftol, slow_left), (lam, lam_max, lam_min) = _FIT_SLOW, _FIT_DAMPING
    r, d = y - _fringe_model(tau, *p), np.zeros_like(p)
    cost = r @ r
    for _ in range(_FIT_STEPS):
        J = _fringe_jacobian(tau, *p)
        g, d = J.T @ r, np.maximum(d, np.sqrt(np.einsum("ij,ij->j", J, J)))  # g: the descent direction
        free = (d > 0.0) & ~(((p <= lower) & (g < 0.0)) | ((p >= upper) & (g > 0.0)))
        scaled = J[:, free] / d[free]
        h, gs = scaled.T @ scaled, g[free] / d[free]
        while True:
            step = np.zeros_like(p)
            step[free] = np.linalg.solve(h + lam * np.eye(gs.size), gs) / d[free]
            trial = np.clip(p + step, lower, upper)
            r_trial = y - _fringe_model(tau, *trial)
            if (cost_trial := r_trial @ r_trial) < cost:
                break
            if (lam := lam * 10.0) > lam_max:  # no step lowers the cost: a minimum to rounding
                return p, True
        if (slow_left := slow_left - (cost - cost_trial <= ftol * cost)) == 0:
            return trial, True
        p, r, cost, lam = trial, r_trial, cost_trial, max(lam / 10.0, lam_min)
    return p, False


def fit_fringe(record: FringeRecord) -> FringeFit:
    """Fit a Gaussian-envelope decaying cosine to an averaged fringe.

    The record needs >= 10 points with tau increasing in equal steps, as
    np.linspace lays them out.  Start values: frequency from the discrete
    Fourier peak, amplitude from half the record's range, T2 from half the
    span.  The envelope is fitted by its rate 1/T2^2 in [0, (10/dt)^2], so a
    fringe that shows no decay fits T2 = inf, unidentifiable; the covariance is
    curve_fit's.  A flat record is reported as unidentifiable rather than fitted,
    and so is a fit still unconverged after _FIT_STEPS steps, at its last iterate.
    """
    tau, y = record.tau_values, record.flip_fractions
    if tau.size < 10:
        raise ValueError(f"need >= 10 points to fit a fringe, got {tau.size}")
    steps = np.diff(tau)
    if not (steps.min() > 0.0 and np.allclose(steps, steps[0], rtol=1e-6, atol=0.0)):
        raise ValueError("tau_values must increase in equal steps")

    span = float(tau[-1] - tau[0])
    amp0 = float(y.max() - y.min()) / 2.0
    if amp0 < 1e-6:
        return FringeFit(
            t2=math.nan,
            frequency=math.nan,
            amplitude=0.0,
            offset=float(y.mean()),
            phase=0.0,
            t2_err=math.inf,
            frequency_err=math.inf,
            residual_rms=float(np.std(y)),
            identifiable=False,
        )

    # Frequency seed from the dominant nonzero DFT bin (uniform tau grid).
    dt = float(steps[0])
    spectrum = np.abs(np.fft.rfft(y - y.mean()))
    freqs = np.fft.rfftfreq(tau.size, d=dt)
    f0 = float(freqs[1:][np.argmax(spectrum[1:])])
    p0 = np.array([float(y.mean()), amp0, (2.0 / span) ** 2, f0, 0.0])

    lower = np.array([-np.inf, 0.0, 0.0, 0.0, -np.pi])
    upper = np.array([np.inf, np.inf, (10.0 / dt) ** 2, 10.0 * f0 + 1.0 / dt, np.pi])
    popt, converged = _least_squares(tau, y, p0, lower, upper)
    resid = y - _fringe_model(tau, *popt)
    _, s, vt = np.linalg.svd(_fringe_jacobian(tau, *popt), full_matrices=False)
    keep = s > np.finfo(float).eps * tau.size * s[0]
    pcov = (vt[keep].T / s[keep] ** 2) @ vt[keep] * (resid @ resid / (tau.size - popt.size))
    perr = np.sqrt(np.diag(pcov))  # gamma = 1/T2^2 has T2's error perr[2] T2^3 / 2
    c, A, gamma, f, phi = popt
    t2, t2_err = (math.inf, math.inf) if gamma == 0.0 else (gamma**-0.5, perr[2] / (2.0 * gamma**1.5))
    return FringeFit(
        t2=float(t2),
        frequency=float(f),
        amplitude=float(A),
        offset=float(c),
        phase=float(phi),
        t2_err=float(t2_err),
        frequency_err=float(perr[3]),
        residual_rms=float(np.std(resid)),
        identifiable=converged and math.isfinite(t2_err),
    )


# ---------------------------------------------------------------------------
# Frequentist fixed-evolution-time baseline
# ---------------------------------------------------------------------------


def frequentist_estimate(
    eps_true: float,
    tau: float,
    shots: int,
    model: LikelihoodModel,
    rng: np.random.Generator,
) -> float:
    """Fixed-tau estimate: average outcomes at the inflection detuning and invert linearly.

    The probe sits at delta_f = 1/(4 tau) (inflection at zero shift), so
    E[m] ~= alpha + 2 pi beta tau e^(-tau/T) eps for small shifts.  The
    estimate is clamped to the unambiguous range (-1/(2 tau), +1/(2 tau)].
    A slope that is not positive raises ValueError.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    return float(_frequentist_estimates(eps_true, tau, rng.random(shots), model))


def _slope(tau: float, model: LikelihoodModel) -> float:
    """The fixed-tau estimate's slope 2 pi beta tau e^(-tau/T); ValueError unless positive."""
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    slope = TWO_PI * model.beta * tau * math.exp(-tau * model.inv_T)
    if not slope > 0.0:  # beta = 0, or e^(-tau/T) underflows: the outcomes carry no shift
        raise ValueError(f"fixed-tau slope 2 pi beta tau e^(-tau/T) is {slope} at tau={tau}")
    return slope


def _frequentist_estimates(eps, tau: float, u: np.ndarray, model: LikelihoodModel):
    """frequentist_estimate of each shift in eps, shot s measuring +1 where u[s] < P(+1)."""
    slope = _slope(tau, model)
    shots = u.shape[0]
    p_plus = likelihood_probability(+1, eps, ProbeSettings(tau, 0.25 / tau), model)
    m_bar = (2 * np.count_nonzero(u < p_plus, axis=0) - shots) / shots
    half_range = 0.5 / tau
    return np.clip((m_bar - model.alpha) / slope, -half_range, half_range)


class ComparisonRow(NamedTuple):
    """Median |error| of the adaptive and the fixed-tau estimates at one tau multiplier."""

    tau_multiplier: float
    tau: float
    adaptive_median_abs_error: float
    frequentist_median_abs_error: float


def compare_frequentist(
    sigma0: float,
    shots: int,
    run_count: int,
    tau_multipliers: list[float],
    model: LikelihoodModel,
    seed: int,
) -> list[ComparisonRow]:
    """Adaptive estimation against the fixed-tau baseline on the same shifts and shot budget.

    Run i estimates a shift drawn from N(0, sigma0) on stream i, once; the
    frequentist shots at each tau = multiplier * tau_opt are the `shots`
    uniforms that follow the adaptive shots on that stream.  A tau without
    slope to invert raises ValueError before any run.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    prior = GaussianBelief(0.0, sigma0)
    cfg = CampaignConfig(run_count, shots, prior, model, model, master_seed=seed)
    tau_opt = optimal_tau(sigma0, model.T)
    taus = [mult * tau_opt for mult in tau_multipliers]
    for tau in taus:
        _slope(tau, model)
    stats, u = _campaign(cfg, extra=shots)
    adaptive = _median(np.abs(stats.errors))
    rows = []
    for mult, tau in zip(tau_multipliers, taus):
        est = _frequentist_estimates(stats.eps_true, tau, u, model)
        rows.append(
            ComparisonRow(mult, tau, adaptive, _median(np.abs(est - stats.eps_true)))
        )
    return rows
