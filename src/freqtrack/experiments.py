"""Reproducible simulation studies built on the estimator, oracle and qubit simulator.

Covers Monte Carlo estimation-error campaigns (matched vs mismatched
measurement models), Gaussian-approximation validity sweeps, closed-loop
fringe tracking with and without frequency feedback, fringe fitting, and the
fixed-evolution-time frequentist baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import oracle
from .estimator import (
    TWO_PI,
    GaussianBelief,
    LikelihoodModel,
    ProbeSettings,
    _optimal_tau_vec,
    _posterior_moments_vec,
    likelihood_probability,
    optimal_detuning,
    optimal_tau,
)
from .qubitsim import (
    DEPLETION_TIME,
    QUASISTATIC,
    READOUT_TIME,
    NoiseProcess,
    standard_normals,
)

MAD_TO_SIGMA = 1.4826  # scales a median absolute deviation to a Gaussian sigma


# ---------------------------------------------------------------------------
# Monte Carlo estimation-error campaigns
# ---------------------------------------------------------------------------


def _sigma_in_range(sigma: float) -> bool:  # sigma**4 (hence sigma**2) finite and normal
    return 0.0 < sigma < 2.0**256 and sigma**4 >= 2.0**-1022  # overflows from 2**256 on


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
        if not 0 <= self.master_seed < 2**128:  # the keys Philox accepts
            raise ValueError(f"master_seed must be >= 0 and < 2**128, got {self.master_seed}")
        if not _sigma_in_range(self.prior.sigma):
            raise ValueError(f"prior sigma {self.prior.sigma}: sigma**4 is subnormal or infinite")


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
        return float(np.median(np.abs(self.errors - np.median(self.errors))))

    @property
    def outlier_fraction(self) -> float:  # |error| > 3 * final sigma of the run
        return float(np.mean(np.abs(self.errors) > 3.0 * self.final_sigmas))

    @property
    def calibration_fraction(self) -> float:  # |error| <= final sigma of the run
        return float(np.mean(np.abs(self.errors) <= self.final_sigmas))


def _lockstep(mu, sigma, eps, u, truth_model, update_model, noise=None, z=None):
    """Estimations against simulated qubits, one per array element: final (mu, sigma, shift).

    Shot s measures +1 where the uniform u[s] falls below the truth model's
    P(+1) and applies the array closed form.  Under a drifting noise process
    (z given) the shift is eps plus the sum of the process's OU components,
    which start stationary from the standard normals z[0] and step over each
    probing cycle with z[s + 1].  All randomness comes in through u and z.
    """
    alpha, beta, inv_T = truth_model.alpha, truth_model.beta, truth_model.inv_T
    eps_true = eps
    if z is not None:
        comp = noise.transition(0.0, 0.0, z[0])
        eps_true = eps + comp.sum(axis=1)
    var = sigma**2  # carried through every shot; the square root is taken once at the end
    for shot, u_shot in enumerate(u):
        tau = _optimal_tau_vec(var, update_model.inv_T)
        delta_f = 0.25 / tau + mu
        p_plus = 0.5 + 0.5 * (
            alpha + beta * np.exp(tau * -inv_T) * np.cos(TWO_PI * (delta_f - eps_true) * tau)
        )
        mu, var = _posterior_moments_vec(mu, var, tau, u_shot < p_plus, update_model)
        if z is not None:
            cycle = (tau + READOUT_TIME) + DEPLETION_TIME  # cycle_duration, elementwise
            comp = noise.transition(comp, noise.decay(cycle[:, None]), z[shot + 1])
            eps_true = eps + comp.sum(axis=1)
    return mu, np.sqrt(var), eps_true


def _campaign(cfg: CampaignConfig, extra: int = 0) -> tuple[ErrorStats, np.ndarray]:
    """(stats, u_extra): every run of the campaign, in lockstep.

    Row i of one Philox block, the stream rng_for_run(master_seed, i, width), holds run
    i's variates: two uniforms for the prior normal, one per shot, `extra` more (u_extra[:, i]),
    two per pair of the k (n + 1) drift normals z, then padding to a multiple of 4.
    """
    n, R = cfg.n_shots, cfg.run_count
    k = cfg.noise.rates.size if cfg.noise is not None else 0
    start, drift = 2 + n + extra, k * (n + 1)
    stop = start + drift + drift % 2
    bits = np.random.Philox(key=cfg.master_seed)  # loads numpy.random here, not on import
    block = np.random.Generator(bits).random((R, stop + -stop % 4))
    eps0 = cfg.prior.mu + cfg.prior.sigma * standard_normals(block[:, :2])[:, 0]
    u = block[:, 2:start].T
    z = standard_normals(block[:, start:stop])[:, :drift].reshape(R, n + 1, k).swapaxes(0, 1)
    mu0, sigma0 = np.full(R, cfg.prior.mu), np.full(R, cfg.prior.sigma)
    mu, sigma, eps_true = _lockstep(
        mu0, sigma0, eps0, u[:n], cfg.truth_model, cfg.update_model, cfg.noise, z if k else None
    )
    return ErrorStats(eps_true, mu, sigma), u[n:]


def run_campaign(cfg: CampaignConfig) -> ErrorStats:
    """Every run of the campaign; per-run RNG streams make each independent of the rest."""
    return _campaign(cfg)[0]


def mad_calibration(stats: ErrorStats) -> tuple[float, float]:
    """(1.4826 * MAD of errors, its ratio to the mean final posterior sigma).

    The ratio is not expected to be 1: the errors are not Gaussian with the
    reported sigma, whose belief is a Gaussian projection of a multi-lobed
    posterior.  The value the ratio should have is that of the same campaign
    with every update taken as the moments of the exact one-shot posterior
    (oracle.grid_update); for the matched 5000-run, n = 15 reference campaign
    it is 0.834.  The exact multi-shot posterior of each run predicts 0.834.
    """
    if stats.errors.size < 1000:
        raise ValueError("need >= 1000 errors for a stable MAD calibration")
    scaled = MAD_TO_SIGMA * stats.mad
    return scaled, scaled / stats.mean_final_sigma


# ---------------------------------------------------------------------------
# Gaussian-approximation validity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
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
    divergence is against its own method-of-moments Gaussian fit.
    """
    if any(mult <= 0 for mult in tau_multipliers):
        raise ValueError("tau multipliers must be positive")
    tau_opt = optimal_tau(prior.sigma, model.T)
    grid_prior = oracle.from_gaussian(prior)
    rows = []
    for mult in tau_multipliers:
        tau = mult * tau_opt
        probe = ProbeSettings(tau=tau, delta_f=optimal_detuning(prior.mu, tau))
        for m in (-1, +1):
            post = oracle.grid_update(grid_prior, m, probe, model)
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


@dataclass(frozen=True)
class FringeRecord:
    """Averaged Ramsey fringe: flip fraction per evolution time."""

    tau_values: np.ndarray
    flip_fractions: np.ndarray
    feedback: bool

    def __post_init__(self):
        if self.tau_values.shape != self.flip_fractions.shape:
            raise ValueError("tau_values and flip_fractions must have equal length")
        if np.any((self.flip_fractions < 0) | (self.flip_fractions > 1)):
            raise ValueError("flip fractions must lie in [0, 1]")


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

    Feedback arm: before each verification Ramsey shot at evolution time
    tau_j, the shift is re-estimated with n_shots adaptive probes (prior mean
    warm-started from the previous estimate) and the verification detuning is
    offset so the expected total detuning is target_detuning.  The
    feedback-off arm keeps the nominal frequency (assumes zero shift).  The
    quasistatic shift is redrawn per repetition; fringes are averaged over
    repetitions.  All repetitions are advanced in lockstep (vectorized), so
    the result depends only on the seed.
    """
    if m_cycles < 2:
        raise ValueError(f"m_cycles must be >= 2, got {m_cycles}")
    if not tau_max > 0.0:
        raise ValueError(f"tau_max must be positive, got {tau_max}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if noise.kind != QUASISTATIC:
        raise ValueError("closed_loop_track supports quasistatic noise only")

    rng = np.random.default_rng(seed)
    taus = np.linspace(tau_max / m_cycles, tau_max, m_cycles)
    R = repetitions

    flips_fb = np.zeros(m_cycles)
    flips_open = np.zeros(m_cycles)
    mu_hat = np.zeros(R)  # warm start carries across the M cycles of each repetition

    # Feedback arm, vectorized across repetitions: each element is one repetition.
    eps = rng.normal(0.0, noise.sigma_eps, size=R)
    for j, tau_j in enumerate(taus):
        # Estimation sequence, warm-started at the previous estimate.
        mu_hat, _, _ = _lockstep(
            mu_hat, np.full(R, sigma0), eps, rng.random((n_shots, R)), model, model
        )
        # Verification Ramsey shot with the drive adjusted by the estimate.
        p_flip = likelihood_probability(1, eps, ProbeSettings(tau_j, target_detuning + mu_hat), model)
        flips_fb[j] = np.mean(rng.random(R) < p_flip)

    # Feedback-off arm: fresh quasistatic draws, nominal frequency.
    eps = rng.normal(0.0, noise.sigma_eps, size=R)
    for j, tau_j in enumerate(taus):
        p_flip = likelihood_probability(1, eps, ProbeSettings(tau_j, target_detuning), model)
        flips_open[j] = np.mean(rng.random(R) < p_flip)

    return (
        FringeRecord(tau_values=taus, flip_fractions=flips_fb, feedback=True),
        FringeRecord(tau_values=taus, flip_fractions=flips_open, feedback=False),
    )


# ---------------------------------------------------------------------------
# Fringe fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FringeFit:
    """Least-squares fit of p(tau) = c + A exp(-(tau/T2)^2) cos(2 pi f tau + phi)."""

    t2: float
    frequency: float
    amplitude: float
    offset: float
    phase: float
    t2_err: float
    frequency_err: float
    residual_rms: float
    identifiable: bool


class FitError(RuntimeError):
    """Fringe fit did not converge; message carries residual diagnostics."""


def _fringe_model(tau, c, A, t2, f, phi):
    return c + A * np.exp(-((tau / t2) ** 2)) * np.cos(TWO_PI * f * tau + phi)


def fit_fringe(record: FringeRecord) -> FringeFit:
    """Fit a Gaussian-envelope decaying cosine to an averaged fringe.

    Start values: frequency from the discrete Fourier peak, amplitude from
    half the record's range, T2 from half the span.  A flat record is
    reported as unidentifiable rather than fitted.
    """
    from scipy.optimize import curve_fit

    tau = np.asarray(record.tau_values, dtype=float)
    y = np.asarray(record.flip_fractions, dtype=float)
    if tau.size < 10:
        raise ValueError(f"need >= 10 points to fit a fringe, got {tau.size}")

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
    dt = float(tau[1] - tau[0])
    spectrum = np.abs(np.fft.rfft(y - y.mean()))
    freqs = np.fft.rfftfreq(tau.size, d=dt)
    f0 = float(freqs[1:][np.argmax(spectrum[1:])])
    if f0 <= 0.0:
        f0 = 1.0 / span
    p0 = [float(y.mean()), amp0, span / 2.0, f0, 0.0]

    try:
        popt, pcov = curve_fit(
            _fringe_model,
            tau,
            y,
            p0=p0,
            bounds=(
                [-np.inf, 0.0, dt / 10.0, 0.0, -np.pi],
                [np.inf, np.inf, np.inf, 10.0 * f0 + 1.0 / dt, np.pi],
            ),
            maxfev=20000,
        )
    except RuntimeError as exc:
        resid = y - _fringe_model(tau, *p0)
        raise FitError(
            f"fringe fit failed to converge (start residual rms {np.std(resid):.3g}): {exc}"
        ) from exc

    resid = y - _fringe_model(tau, *popt)
    perr = np.sqrt(np.diag(pcov))
    c, A, t2, f, phi = popt
    return FringeFit(
        t2=float(t2),
        frequency=float(f),
        amplitude=float(A),
        offset=float(c),
        phase=float(phi),
        t2_err=float(perr[2]),
        frequency_err=float(perr[3]),
        residual_rms=float(np.std(resid)),
        identifiable=bool(np.isfinite(perr[2])),
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
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    return float(_frequentist_estimates(eps_true, tau, rng.random(shots), model))


def _frequentist_estimates(eps, tau: float, u: np.ndarray, model: LikelihoodModel):
    """frequentist_estimate of each shift in eps, shot s measuring +1 where u[s] < P(+1)."""
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    shots = u.shape[0]
    p_plus = likelihood_probability(+1, eps, ProbeSettings(tau, 0.25 / tau), model)
    m_bar = (2 * np.count_nonzero(u < p_plus, axis=0) - shots) / shots
    slope = TWO_PI * model.beta * tau * math.exp(-tau * model.inv_T)
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
    uniforms that follow the adaptive shots on that stream.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    prior = GaussianBelief(0.0, sigma0)
    cfg = CampaignConfig(run_count, shots, prior, model, model, master_seed=seed)
    stats, u = _campaign(cfg, extra=shots)
    adaptive = float(np.median(np.abs(stats.errors)))
    tau_opt = optimal_tau(sigma0, model.T)
    rows = []
    for mult in tau_multipliers:
        tau = mult * tau_opt
        est = _frequentist_estimates(stats.eps_true, tau, u, model)
        rows.append(
            ComparisonRow(mult, tau, adaptive, float(np.median(np.abs(est - stats.eps_true))))
        )
    return rows
