"""Simulated measurement source: outcome statistics, noise processes, determinism."""

import ast
import copy
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import welch
from scipy.stats import kstest

from freqtrack import qubitsim
from freqtrack.estimator import IDEAL_MODEL, REFERENCE_MODEL, ProbeSettings, likelihood_probability
from freqtrack.qubitsim import (
    NoiseProcess,
    cycle_duration,
    initial_state,
    rng_for_run,
    sample_outcome,
    standard_normals,
    step_noise,
)


class TestSampleOutcome:
    def test_certain_outcome(self):
        probe = ProbeSettings(tau=1e-7, delta_f=5e5)
        rng = np.random.default_rng(0)
        assert all(
            sample_outcome(5e5, probe, IDEAL_MODEL, rng) == 1 for _ in range(100)
        )

    def test_binomial_concentration(self):
        probe = ProbeSettings(tau=2e-7, delta_f=1.3e6)
        eps = 4e5
        p_expected = float(likelihood_probability(1, eps, probe, REFERENCE_MODEL))
        rng = np.random.default_rng(1)
        n = 100_000
        hits = sum(sample_outcome(eps, probe, REFERENCE_MODEL, rng) == 1 for _ in range(n))
        margin = 3.0 * math.sqrt(p_expected * (1 - p_expected) / n)
        assert hits / n == pytest.approx(p_expected, abs=margin)

    def test_translation_invariance(self):
        # P depends on delta_f - eps only; shifting both leaves it unchanged.
        probe_a = ProbeSettings(tau=3e-7, delta_f=1e6)
        probe_b = ProbeSettings(tau=3e-7, delta_f=1e6 + 7.7e5)
        pa = likelihood_probability(1, 2e5, probe_a, REFERENCE_MODEL)
        pb = likelihood_probability(1, 2e5 + 7.7e5, probe_b, REFERENCE_MODEL)
        assert pa == pytest.approx(pb, abs=1e-12)


class TestNoiseProcess:
    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            NoiseProcess(kind="telegraph")

    @pytest.mark.parametrize("correlation_time", [0.0, -1e-3, math.nan])
    def test_ou_correlation_time_must_be_positive(self, correlation_time):
        with pytest.raises(ValueError, match="correlation_time must be positive"):
            NoiseProcess(kind="ou_drift", correlation_time=correlation_time)

    def test_one_over_f_needs_three_components(self):
        with pytest.raises(ValueError):
            NoiseProcess(kind="one_over_f", octave_count=2)

    @pytest.mark.parametrize("kind", ["quasistatic", "ou_drift", "one_over_f"])
    @pytest.mark.parametrize("sigma_eps", [math.nan, math.inf, -1.0])
    def test_sigma_eps_must_be_finite_and_non_negative(self, kind, sigma_eps):
        # A nan shift makes every sine test false, so every run of a campaign gets one estimate.
        with pytest.raises(ValueError, match="sigma_eps"):
            NoiseProcess(kind=kind, sigma_eps=sigma_eps)

    @pytest.mark.parametrize(
        "band",
        [(1.0, math.inf), (-math.inf, 1e5), (math.nan, 1e5), (1.0, math.nan), (0.0, 1e5), (1e5, 1.0)],
    )
    def test_band_edges_must_be_finite_positive_and_increasing(self, band):
        # An infinite edge used to give the bank the rates [nan, inf, ...].
        with pytest.raises(ValueError, match="band"):
            NoiseProcess(kind="one_over_f", band=band)

    def test_quasistatic_bank_is_empty_and_stays_empty(self):
        # A quasistatic shift has no components: its static draw is the caller's (the prior's).
        proc = NoiseProcess(kind="quasistatic", sigma_eps=30e3)
        rng = np.random.default_rng(2)
        bank = initial_state(proc, rng)
        assert bank.shape == (0,) and bank.sum() == 0.0
        for dt in (0.0, 1e-6, 1e-3, 10.0):
            bank = step_noise(proc, bank, dt, rng)
            assert bank.shape == (0,)

    def test_ou_zero_step_is_identity(self):
        proc = NoiseProcess(kind="ou_drift", sigma_eps=30e3, correlation_time=1e-3)
        rng = np.random.default_rng(3)
        bank = initial_state(proc, rng)
        np.testing.assert_array_equal(step_noise(proc, bank, 0.0, rng), bank)

    def test_ou_stationary_variance(self):
        proc = NoiseProcess(kind="ou_drift", sigma_eps=1.0, correlation_time=1e-3)
        rng = np.random.default_rng(4)
        # 1000 banks in lockstep; steps of 3 correlation times are effectively independent draws
        banks, steps, decay = 1000, 100, proc.decay(3e-3)
        comp = proc.transition(0.0, 0.0, rng.standard_normal((banks, proc.rates.size)))
        samples = np.empty((steps, banks))
        for s in range(steps):
            comp = proc.transition(comp, decay, rng.standard_normal((banks, proc.rates.size)))
            samples[s] = comp.sum(axis=1)
        assert samples.var() == pytest.approx(1.0, rel=0.05)

    @pytest.mark.parametrize("kind", ["quasistatic", "ou_drift", "one_over_f"])
    def test_decay_is_exp_of_minus_rate_dt(self, kind):
        # decay negates dt, not the rates set once; products are sign-symmetric, so the doubles agree.
        proc, dt = NoiseProcess(kind=kind), np.linspace(3.5e-6, 2e-3, 20)[:, None]
        np.testing.assert_array_equal(proc.decay(dt), np.exp(-proc.rates * dt))

    @pytest.mark.parametrize("kind", ["quasistatic", "ou_drift", "one_over_f"])
    def test_transition_reads_read_only_constants_and_keeps_its_doubles(self, kind):
        # decay and transition read the read-only rates and the float variance, both set once.
        proc = NoiseProcess(kind=kind)
        assert proc.rates.dtype == np.float64 and not proc.rates.flags.writeable
        assert type(proc.component_variance) is float
        rng = np.random.default_rng(5)
        comp, z = rng.normal(0.0, 2e4, (20, proc.rates.size)), rng.standard_normal((20, proc.rates.size))
        decay = proc.decay(np.linspace(3.5e-6, 2e-3, 20)[:, None])
        kick = np.sqrt(proc.component_variance * (1.0 - decay**2))
        np.testing.assert_array_equal(proc.innovation(decay), kick)
        np.testing.assert_array_equal(proc.transition(comp, decay, z), comp * decay + kick * z)
        np.testing.assert_array_equal(
            proc.transition(0.0, 0.0, z), np.sqrt(proc.component_variance * 1.0) * z
        )

    @pytest.mark.parametrize("kind", ["quasistatic", "ou_drift", "one_over_f"])
    def test_arrays_stay_read_only_in_copies(self, kind):
        proc = NoiseProcess(kind=kind)
        rng = np.random.default_rng(6)
        comp, z = rng.normal(0.0, 2e4, (20, proc.rates.size)), rng.standard_normal((20, proc.rates.size))
        decay = proc.decay(np.linspace(3.5e-6, 2e-3, 20)[:, None])
        for twin in (proc, pickle.loads(pickle.dumps(proc)), copy.deepcopy(proc)):
            assert twin == proc and twin.component_variance == proc.component_variance
            assert twin.rates.dtype == np.float64 and not twin.rates.flags.writeable
            np.testing.assert_array_equal(twin.rates, proc.rates)
            np.testing.assert_array_equal(twin.transition(comp, decay, z), proc.transition(comp, decay, z))

    @pytest.mark.parametrize("kind", ["ou_drift", "one_over_f"])
    def test_batch_transition_matches_step_noise(self, kind):
        # The lockstep campaign steps many banks at once; each row must be
        # bit for bit what step_noise gives that bank on its own.
        proc = NoiseProcess(kind=kind)
        rng = np.random.default_rng(8)
        banks = np.array([initial_state(proc, rng) for _ in range(20)])
        dt = np.linspace(3.5e-6, 2e-3, 20)
        stepped = [step_noise(proc, banks[i], dt[i], np.random.default_rng(i)) for i in range(20)]
        z = np.array([np.random.default_rng(i).standard_normal(proc.rates.size) for i in range(20)])
        np.testing.assert_array_equal(proc.transition(banks, proc.decay(dt[:, None]), z), stepped)

    @pytest.mark.parametrize("kind", ["quasistatic", "ou_drift"])
    @pytest.mark.parametrize("dt", [-1e-6, math.nan])
    def test_negative_or_nan_step_rejected(self, kind, dt):
        # A nan step used to return a bank of nan.
        proc, rng = NoiseProcess(kind=kind), np.random.default_rng(9)
        with pytest.raises(ValueError, match=re.escape("dt must be >= 0")):
            step_noise(proc, initial_state(proc, rng), dt, rng)

    def test_state_of_another_process_rejected(self):
        # Six 1/f components would broadcast against one OU rate unnoticed.
        rng = np.random.default_rng(9)
        state = initial_state(NoiseProcess(kind="one_over_f"), rng)
        with pytest.raises(ValueError):
            step_noise(NoiseProcess(kind="ou_drift"), state, 1e-6, rng)

    @pytest.mark.parametrize("kind, dt", [("ou_drift", 0.0), ("quasistatic", 1e-6)])
    def test_state_of_another_process_rejected_without_a_step(self, kind, dt):
        # The component check holds on every step: at dt = 0, and for a process with no components.
        rng = np.random.default_rng(9)
        state = initial_state(NoiseProcess(kind="one_over_f"), rng)
        with pytest.raises(ValueError, match="noise components"):
            step_noise(NoiseProcess(kind=kind), state, dt, rng)

    def test_one_over_f_periodogram_slope(self):
        # A batch of banks stepped in lockstep, as the campaign loop steps them;
        # one Hann-windowed periodogram per bank, averaged over the banks.
        proc = NoiseProcess(kind="one_over_f", sigma_eps=1.0, octave_count=8, band=(10.0, 1e4))
        rng = np.random.default_rng(6)
        banks, steps, decay = 64, 2**14, proc.decay(1e-5)
        comp = proc.transition(0.0, 0.0, rng.standard_normal((banks, proc.rates.size)))
        x = np.empty((steps, banks))
        for s in range(steps):
            comp = proc.transition(comp, decay, rng.standard_normal((banks, proc.rates.size)))
            x[s] = comp.sum(axis=1)
        f, spec = welch(x.T, fs=1e5, nperseg=steps)
        spec = spec.mean(axis=0)
        mask = (f >= 30.0) & (f <= 3e3)  # inside the band, away from the corners
        slope = np.polyfit(np.log10(f[mask]), np.log10(spec[mask]), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.3)


class TestStandardNormals:
    def test_standard_normal_statistics(self):
        z = standard_normals(rng_for_run(21, 0).random(10**5))
        assert abs(z.mean()) < 0.015  # ~5 standard errors
        assert z.var() == pytest.approx(1.0, abs=0.02)
        assert kstest(z, "norm").pvalue > 0.01
        # the cosine and the sine of one angle are independent normals
        assert abs(np.corrcoef(z[: 5 * 10**4], z[5 * 10**4 :])[0, 1]) < 0.015

    def test_finite_at_the_ends_of_the_unit_interval(self):
        top = 1.0 - 2.0**-53  # the largest double Generator.random returns
        u = np.array([[0.0, 0.0], [0.0, top], [top, 0.0], [top, top]])
        z = standard_normals(u)
        assert np.all(np.isfinite(z))
        np.testing.assert_array_equal(z[:2], 0.0)  # radius 0 at u = 0
        np.testing.assert_allclose(np.hypot(z[2:, 0], z[2:, 1]), math.sqrt(106.0 * math.log(2.0)))

    def test_two_uniforms_per_pair(self):
        # 2p uniforms give 2p normals; normals j and p + j use uniforms j and p + j only.
        p = 5
        u = np.random.default_rng(22).random(2 * p)
        z = standard_normals(u)
        assert z.shape == (2 * p,)
        for j in range(p):
            other = u.copy()
            rest = [i for i in range(2 * p) if i not in (j, p + j)]
            other[rest] = np.random.default_rng(j).random(len(rest))
            np.testing.assert_array_equal(standard_normals(other)[[j, p + j]], z[[j, p + j]])
        # along the last axis only: each row of a batch is its own draw
        batch = np.random.default_rng(23).random((4, 2 * p))
        np.testing.assert_array_equal(standard_normals(batch)[2], standard_normals(batch[2]))


class TestReproducibility:
    def test_identical_seeds_identical_outcomes(self):
        probe = ProbeSettings(tau=2e-7, delta_f=1.1e6)
        seqs = []
        for _ in range(2):
            rng = np.random.default_rng(1234)
            seqs.append([sample_outcome(3e5, probe, REFERENCE_MODEL, rng) for _ in range(500)])
        assert seqs[0] == seqs[1]

    def test_per_run_streams_are_independent_of_order(self):
        a = rng_for_run(77, 5).random(4)
        rng_for_run(77, 3).random(10)  # unrelated stream consumption
        b = rng_for_run(77, 5).random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, rng_for_run(77, 6).random(4))

    @pytest.mark.parametrize("seed", [0, 5, 2**127 + 3])
    def test_run_zero_is_the_unadvanced_stream(self, seed):
        # Run 0 skips the advance by 0, which would leave the same state.
        np.testing.assert_equal(
            rng_for_run(seed, 0).bit_generator.state, np.random.Philox(key=seed).state
        )

    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1, 2**64, 2**127 + 3])
    @pytest.mark.parametrize("run,width", [(1, 2**32), (17, 1000), (3, 12)])
    def test_stream_is_the_keyed_philox_advanced_by_its_rows(self, seed, run, width):
        # Philox gets the key's two words directly, and no seed sequence of OS entropy.
        expected = np.random.Philox(key=seed)
        expected.advance(run * width // 4)
        rng = rng_for_run(seed, run, width)
        np.testing.assert_equal(rng.bit_generator.state, expected.state)
        np.testing.assert_array_equal(rng.random(9), np.random.Generator(expected).random(9))

    # At width 3, run 1 advanced 3 // 4 = 0 blocks into run 0's stream; run -1 wrapped the
    # counter to the end of its period, into a stream that belongs to no row.
    @pytest.mark.parametrize("seed,run,width,message", [
        (-1, 0, 2**32, "less than 2**128"), (2**128, 0, 2**32, "less than 2**128"),
        *((0, run, width, "positive multiple of 4")
          for run, width in [(-1, 2**32), (1, 3), (2, 6), (1, 0), (1, -4)]),
    ])
    def test_arguments_outside_philox_keys_and_rows_raise_value_error(self, seed, run, width, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            rng_for_run(seed, run, width)


#: numpy.random's stream and bit-generator constructors.
_STREAM_MAKERS = {
    "default_rng", "Generator", "RandomState", "SeedSequence",
    "Philox", "PCG64", "PCG64DXSM", "MT19937", "SFC64",
}


class TestOneStreamConvention:
    def test_only_rng_for_run_makes_random_streams(self):
        # Every variate the package draws comes from a Philox row through rng_for_run, so a
        # second stream convention cannot come back unnoticed.
        makers = {}
        for path in sorted(Path(qubitsim.__file__).parent.glob("*.py")):
            source = path.read_text()
            assert "default_rng" not in source, path.name
            for top in ast.parse(source).body:
                scope = f"{path.stem}.{getattr(top, 'name', '<module>')}"
                for node in ast.walk(top):
                    func = node.func if isinstance(node, ast.Call) else None
                    name = getattr(func, "attr", getattr(func, "id", None))
                    if name in _STREAM_MAKERS:
                        makers.setdefault(scope, []).append(name)
        assert {scope: sorted(names) for scope, names in makers.items()} == {
            "qubitsim.rng_for_run": ["Generator", "Philox"]
        }


class TestCycleDuration:
    def test_reference_timing(self):
        probe = ProbeSettings(tau=4.36e-6, delta_f=1e6)
        assert cycle_duration(probe) == pytest.approx(7.80e-6, rel=1e-3)

    def test_overhead_dominated(self):
        probe = ProbeSettings(tau=1e-12, delta_f=0.0)
        assert cycle_duration(probe) == pytest.approx(3.44e-6, rel=1e-5)
