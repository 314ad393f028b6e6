"""The benchmark's workloads.

Each workload builds its inputs from the seed (``setup``), runs a timed window
of untraced work (``measure``) and has a fixed reference unit (``unit``) whose
seeded output digest a traced and an untraced execution must both reproduce.
freqtrack modules are imported inside ``setup`` so that the fresh-interpreter
set-up probe pays for exactly the modules the workload uses.

Every workload reports the same end-to-end metrics; what one "step" and one
"pass" are differs per workload and is stated on each class.
"""

from __future__ import annotations

import csv
import math
import os
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

import numpy as np

from .stats import fast, percentile, percentile_sorted, sha256_hex

N_SHOTS = 15
SIGMA0 = 1e6  # prior standard deviation [Hz]
SEED_STRIDE = 1_000_000  # campaign block b of seed s uses master seed s * SEED_STRIDE + b
WARMUP_BLOCK = SEED_STRIDE - 1
COMMAND_TIMEOUT_S = 60.0
MIN_SUITES = 3
#: Smaller campaigns for the timed window, so that no subcommand runs for more
#: than ~100 ms and the fastest pass can fall between the host's slow stretches.
WINDOW_FLAGS = {"campaign": ("--runs", "1000"), "compare-frequentist": ("--runs", "50")}

CLI_COMMANDS = ("estimate", "campaign", "validate-gaussian", "track", "compare-frequentist")
#: Summary files a subcommand must write beside its primary output.
CLI_SUMMARIES = {"campaign": "campaign.summary.json", "track": "track.summary.json"}


@dataclass
class Tally:
    """Attempted and failed operations; each failure carries a one-line reason."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def call(self, weight: int, fn, *args):
        """fn(*args) as `weight` attempted operations, all failed (and None returned) if it raised."""
        self.attempted += weight
        try:
            return fn(*args)
        except Exception as exc:  # a raised exception is a failed operation, whatever its type
            self.fail(weight, f"{getattr(fn, '__name__', fn)} raised {type(exc).__name__}: {exc}")
            return None

    def check_sigmas(self, sigmas: np.ndarray, what: str) -> None:
        """Fail each non-finite or non-positive sigma of operations already counted."""
        bad = int(np.count_nonzero(~(np.isfinite(sigmas) & (sigmas > 0.0))))
        if bad:
            self.fail(bad, f"{what}: {bad} non-finite or non-positive sigma")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


@dataclass
class Measurement:
    """End-to-end values of one timed window, plus its digests and report lines."""

    values: dict
    digests: dict
    lines: list = field(default_factory=list)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


class Campaign:
    """experiments.run_campaign with the reference model matched, sigma0 = 1 MHz, n = 15.

    The window runs short campaign blocks (a few ms), each with its own master
    seed; a block is one pass and its time the pass time.  Step: one
    estimation run.  run_campaign does not expose single runs, so both latency
    percentiles are the block's mean time per run.  The reference unit is the
    first `ref_blocks` blocks: wall_s is its time at that block speed, and its
    errors and sigmas give the accuracy and the digest.
    """

    def __init__(self, name: str, noise_kind: str | None, block_runs: int, ref_blocks: int):
        self.name = name
        self.noise_kind = noise_kind
        self.block_runs = block_runs
        self.ref_blocks = ref_blocks

    def setup(self, seed: int):
        from freqtrack import estimator, experiments, qubitsim

        noise = None if self.noise_kind is None else qubitsim.NoiseProcess(kind=self.noise_kind)
        prior = estimator.GaussianBelief(0.0, SIGMA0)

        def config(block: int):
            return experiments.CampaignConfig(
                run_count=self.block_runs,
                n_shots=N_SHOTS,
                prior=prior,
                truth_model=estimator.REFERENCE_MODEL,
                update_model=estimator.REFERENCE_MODEL,
                noise=noise,
                master_seed=seed * SEED_STRIDE + block,
            )

        return SimpleNamespace(
            experiments=experiments,
            config=config,
            ref_configs=[config(b) for b in range(self.ref_blocks)],
        )

    def _block(self, inputs, cfg, tally: Tally):
        stats = tally.call(self.block_runs, inputs.experiments.run_campaign, cfg)
        if stats is not None:
            tally.check_sigmas(stats.final_sigmas, f"campaign block {cfg.master_seed}")
        return stats

    @staticmethod
    def _digest(errors: list, sigmas: list) -> str:
        return sha256_hex(np.concatenate(errors).tobytes(), np.concatenate(sigmas).tobytes())

    def unit(self, inputs, tally: Tally, tracer=None) -> dict:
        errors, sigmas = [], []
        for b, cfg in enumerate(inputs.ref_configs):
            if tracer is None:
                stats = self._block(inputs, cfg, tally)
            else:
                with tracer.span("bench.campaign", run_id=b):
                    stats = self._block(inputs, cfg, tally)
            if stats is None:
                return {}
            errors.append(stats.errors)
            sigmas.append(stats.final_sigmas)
        return {"campaign": self._digest(errors, sigmas)}

    def unit_runs(self, inputs=None) -> int:
        return self.block_runs * self.ref_blocks

    def measure(self, inputs, seconds: float, tally: Tally) -> Measurement:
        self._block(inputs, inputs.config(WARMUP_BLOCK), tally)
        times, errors, sigmas = [], [], []
        start = perf_counter()
        b = 0
        while b < self.ref_blocks or perf_counter() - start < seconds:
            cfg = inputs.ref_configs[b] if b < self.ref_blocks else inputs.config(b)
            t0 = perf_counter()
            stats = self._block(inputs, cfg, tally)
            dt = perf_counter() - t0
            b += 1
            if stats is None:
                continue
            times.append(dt)
            if b <= self.ref_blocks:
                errors.append(stats.errors)
                sigmas.append(stats.final_sigmas)
        digests = {}
        if len(errors) == self.ref_blocks:
            digests["campaign"] = self._digest(errors, sigmas)
        ref_errors = np.abs(np.concatenate(errors)) if errors else np.array([np.nan])
        block_s = fast(times)
        return Measurement(
            values={
                "runs_per_s": self.block_runs / block_s,
                "latency_p50_us": block_s / self.block_runs * 1e6,
                "latency_p90_us": block_s / self.block_runs * 1e6,
                "wall_s": block_s * self.ref_blocks,
                "median_abs_error_hz": float(np.median(ref_errors)),
                "peak_rss_mb": self_peak_rss_mb(),
            },
            digests=digests,
            lines=[
                f"{len(times)} blocks of {self.block_runs} runs x {N_SHOTS} shots in the window; "
                f"accuracy and digest over the first {self.unit_runs()} runs"
            ],
        )


# ---------------------------------------------------------------------------
# Controller loop: the public scalar API on replayed sequences
# ---------------------------------------------------------------------------


class ControllerLoop:
    """design_probe + update per shot, and run_estimation per sequence, on replayed outcomes.

    Inputs are `sequences` estimation runs simulated once with run_estimation
    and sample_outcome; the window replays their outcomes, so each decision
    is timed with the outcome already in hand and no stream is built.  The
    window walks the sequences in chunks of `chunk`; each chunk is replayed
    once through design_probe + update, timing every shot, and once through
    run_estimation.  Step: one shot decision, with percentiles taken within
    each chunk.  Pass: every sequence replayed through run_estimation; its
    final beliefs are the digest.
    """

    name = "controller-loop"

    def __init__(self, sequences: int, chunk: int):
        self.sequences = sequences
        self.chunk = chunk

    def setup(self, seed: int):
        from freqtrack import estimator, qubitsim

        model = estimator.REFERENCE_MODEL
        prior = estimator.GaussianBelief(0.0, SIGMA0)
        rng = np.random.default_rng(seed)
        eps, outcomes, finals = [], [], []
        for _ in range(self.sequences):
            e = SIGMA0 * float(rng.standard_normal())
            belief, trace = estimator.run_estimation(
                prior, N_SHOTS, model, lambda probe: qubitsim.sample_outcome(e, probe, model, rng)
            )
            eps.append(e)
            outcomes.append(tuple(r.outcome for r in trace))
            finals.append((belief.mu, belief.sigma))
        return SimpleNamespace(
            estimator=estimator,
            qubitsim=qubitsim,
            model=model,
            prior=prior,
            eps=np.array(eps),
            outcomes=outcomes,
            finals=finals,
        )

    def _check(self, inputs, seqs: range, finals: list, tally: Tally, what: str) -> None:
        """Each replayed belief must equal the simulated run's, bit for bit, with a valid sigma."""
        tally.attempted += len(finals)
        bad = sum(
            f != inputs.finals[i] or not (math.isfinite(f[1]) and f[1] > 0.0)
            for i, f in zip(seqs, finals)
        )
        if bad:
            tally.fail(bad, f"{what}: {bad} replayed beliefs differ from the simulated run or are invalid")

    def decision_pass(self, inputs, seqs: range, tally: Tally) -> list:
        """Per-shot decision times [ns] of the sequences replayed through design_probe + update."""
        design, update = inputs.estimator.design_probe, inputs.estimator.update
        prior, model, clock = inputs.prior, inputs.model, perf_counter_ns
        samples = [0] * (len(seqs) * N_SHOTS)
        finals = []
        k = 0
        for i in seqs:
            belief = prior
            for m in inputs.outcomes[i]:
                t0 = clock()
                probe = design(belief, model)
                belief = update(belief, probe, m, model)
                samples[k] = clock() - t0
                k += 1
            finals.append((belief.mu, belief.sigma))
        self._check(inputs, seqs, finals, tally, "design_probe + update replay")
        return samples

    def replay_pass(self, inputs, seqs: range, tally: Tally, tracer=None) -> list:
        """Final (mu, sigma) of the sequences replayed through run_estimation."""
        run_estimation = inputs.estimator.run_estimation
        prior, model = inputs.prior, inputs.model
        finals = []
        for i in seqs:
            if tracer is not None:
                tracer.run_id = i
            replay = iter(inputs.outcomes[i])
            belief, _ = run_estimation(prior, N_SHOTS, model, lambda probe: next(replay))
            finals.append((belief.mu, belief.sigma))
        self._check(inputs, seqs, finals, tally, "run_estimation replay")
        return finals

    @staticmethod
    def _digest(finals: list) -> str:
        return sha256_hex(np.array(finals, dtype=float).tobytes())

    def unit(self, inputs, tally: Tally, tracer=None) -> dict:
        every = range(self.sequences)
        self.decision_pass(inputs, every, tally)
        return {"replay": self._digest(self.replay_pass(inputs, every, tally, tracer))}

    def unit_runs(self, inputs=None) -> int:
        return 0

    def measure(self, inputs, seconds: float, tally: Tally) -> Measurement:
        chunks = [range(i, min(i + self.chunk, self.sequences)) for i in range(0, self.sequences, self.chunk)]
        self.decision_pass(inputs, chunks[0], tally)  # warm-up
        p50s, p90s, per_run_s = [], [], []
        finals = [None] * self.sequences
        k = 0
        start = perf_counter()
        while k < len(chunks) or perf_counter() - start < seconds:
            seqs = chunks[k % len(chunks)]
            samples = sorted(self.decision_pass(inputs, seqs, tally))
            p50s.append(percentile_sorted(samples, 50) / 1e3)
            p90s.append(percentile_sorted(samples, 90) / 1e3)
            t0 = perf_counter()
            finals[seqs.start:seqs.stop] = self.replay_pass(inputs, seqs, tally)
            per_run_s.append((perf_counter() - t0) / len(seqs))
            k += 1
        errors = np.abs(np.array([mu for mu, _ in finals]) - inputs.eps)
        budget_us = (inputs.qubitsim.READOUT_TIME + inputs.qubitsim.DEPLETION_TIME) * 1e6
        p50 = fast(p50s)
        run_s = fast(per_run_s)
        return Measurement(
            values={
                "runs_per_s": 1.0 / run_s,
                "latency_p50_us": p50,
                "latency_p90_us": fast(p90s),
                "wall_s": run_s * self.sequences,
                "median_abs_error_hz": float(np.median(errors)),
                "peak_rss_mb": self_peak_rss_mb(),
            },
            digests={"replay": self._digest(finals)},
            lines=[
                f"{k} chunks of {self.chunk} sequences x {N_SHOTS} shots; latency: each chunk's "
                "percentile, fastest (stats.fast) over chunks",
                f"decision_p50_us {p50:.3f} (decision_p90_us {fast(p90s):.3f}) against the cycle "
                f"budget READOUT_TIME + DEPLETION_TIME = {budget_us:.3f} us "
                f"({'within' if p50 <= budget_us else 'over'} budget)",
            ],
        )


# ---------------------------------------------------------------------------
# CLI suite: the five subcommands, in this process and in fresh ones
# ---------------------------------------------------------------------------


@dataclass
class CommandResult:
    command: str
    wall_s: float
    exit_code: int
    output_bytes: int
    digest: str | None


def run_command(root: Path, env: dict, argv: list[str], timeout_s: float = COMMAND_TIMEOUT_S):
    """Run argv to completion; (wall_s, exit_code).

    A blocking os.wait4 returns as soon as the child exits (Popen.wait with a
    timeout polls); a timer thread kills a child that overruns.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(
        argv, cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    killer = threading.Timer(timeout_s, proc.kill)
    killer.start()
    try:
        _, status, _ = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        killer.join()
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode


def cli_argv(command: str, seed: int, outdir: Path) -> list[str]:
    return ["--seed", str(seed), "--output", str(outdir / f"{command}.csv")]


def clear_outputs(command: str, outdir: Path) -> None:
    for stale in outdir.glob(f"{command}.*"):
        stale.unlink()


def check_outputs(command: str, outdir: Path) -> tuple[list[str], int, str | None]:
    """(missing outputs, bytes written, digest of the primary output) of one subcommand."""
    primary = outdir / f"{command}.csv"
    missing = []
    if not primary.is_file() or primary.stat().st_size == 0:
        missing.append(primary.name)
    summary = CLI_SUMMARIES.get(command)
    if summary is not None and not (outdir / summary).is_file():
        missing.append(summary)
    written = sum(p.stat().st_size for p in outdir.glob(f"{command}.*"))
    digest = None if primary.name in missing else sha256_hex(primary.read_bytes())
    return missing, written, digest


def record_command(tally: Tally, command: str, exit_code: int, missing: list[str]) -> None:
    """One attempted operation, failed on a nonzero exit or any missing output."""
    tally.attempted += 1
    reasons = ([f"exit code {exit_code}"] if exit_code != 0 else []) + [f"missing {m}" for m in missing]
    if reasons:
        tally.fail(1, f"{command}: " + ", ".join(reasons))


def campaign_abs_errors(path: Path) -> np.ndarray:
    """|eps_hat - eps_true| per run from a campaign CSV."""
    with path.open() as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return np.abs(
        np.array([float(r["eps_hat_hz"]) for r in rows]) - np.array([float(r["eps_true_hz"]) for r in rows])
    )


class CliSuite:
    """estimate, campaign, validate-gaussian, track and compare-frequentist at default scenarios.

    The window calls cli.main for each subcommand in this process, so its
    times hold the subcommands' work and output writing; the interpreter
    start and the `freqtrack.cli` import (scipy.optimize included) are this
    workload's setup_s, measured in fresh interpreters.  In the window,
    `campaign` and `compare-frequentist` run smaller campaigns
    (WINDOW_FLAGS); the reference unit, whose digests the traced run checks,
    and the fresh-process timings of the layer table (`command`) use the
    default scenarios.  Step: one subcommand, timed by its fastest run
    (stats.fast) over the suites of the window.  Pass: the five subcommands
    (wall_s).  runs_per_s and the accuracy come from `campaign`.
    """

    name = "cli-suite"

    def __init__(self, root: Path, outdir: Path, env: dict):
        self.root = root
        self.outdir = outdir
        self.env = env

    def setup(self, seed: int):
        import freqtrack.cli as cli

        outdir = self.outdir / f"cli-seed{seed}"
        outdir.mkdir(parents=True, exist_ok=True)
        return SimpleNamespace(cli=cli, seed=seed, outdir=outdir)

    def command(self, command: str, seed: int, outdir: Path, tally: Tally, extra=()) -> CommandResult:
        """One subcommand in a fresh interpreter, writing into outdir."""
        outdir.mkdir(parents=True, exist_ok=True)
        clear_outputs(command, outdir)
        argv = [sys.executable, "-m", "freqtrack.cli", command, *cli_argv(command, seed, outdir), *extra]
        wall, code = run_command(self.root, self.env, argv)
        missing, written, digest = check_outputs(command, outdir)
        record_command(tally, command, code, missing)
        return CommandResult(command, wall, code, written, digest)

    def suite(self, inputs, tally: Tally, outdir: Path) -> list[CommandResult]:
        """The five subcommands, each in a fresh interpreter."""
        return [self.command(c, inputs.seed, outdir, tally) for c in CLI_COMMANDS]

    def in_process(
        self, inputs, tally: Tally, outdir: Path, tracer=None, flags=None
    ) -> tuple[dict, dict]:
        """The five subcommands through cli.main; (digests, wall time per subcommand).

        flags maps a subcommand to extra arguments; without it every scenario is the default.
        """
        outdir.mkdir(parents=True, exist_ok=True)
        digests, walls = {}, {}
        for i, command in enumerate(CLI_COMMANDS):
            clear_outputs(command, outdir)
            argv = [command, *cli_argv(command, inputs.seed, outdir), *(flags or {}).get(command, ())]
            t0 = perf_counter()
            if tracer is None:
                code = inputs.cli.main(argv)
            else:
                with tracer.span(f"cli.{command}", run_id=i):
                    code = inputs.cli.main(argv)
            walls[command] = perf_counter() - t0
            missing, _, digests[command] = check_outputs(command, outdir)
            record_command(tally, command, code, missing)
        return digests, walls

    def unit(self, inputs, tally: Tally, tracer=None) -> dict:
        outdir = inputs.outdir / ("traced" if tracer else "untraced")
        return self.in_process(inputs, tally, outdir, tracer)[0]

    def unit_runs(self, inputs) -> int:
        """Runs of the `campaign` subcommand."""
        path = inputs.outdir / "untraced" / "campaign.csv"
        return campaign_abs_errors(path).size if path.is_file() else 0

    def measure(self, inputs, seconds: float, tally: Tally) -> Measurement:
        outdir = inputs.outdir / "window"
        digests, _ = self.in_process(inputs, tally, outdir, flags=WINDOW_FLAGS)  # warm-up
        walls = {c: [] for c in CLI_COMMANDS}
        suites = 0
        start = perf_counter()
        while suites < MIN_SUITES or perf_counter() - start < seconds:
            again, suite_walls = self.in_process(inputs, tally, outdir, flags=WINDOW_FLAGS)
            for command, wall in suite_walls.items():
                walls[command].append(wall)
                if again[command] != digests[command]:
                    tally.fail(1, f"{command}: output differs between identical runs")
            suites += 1
        per_command = {c: fast(w) for c, w in walls.items()}
        primary = outdir / "campaign.csv"
        errors = campaign_abs_errors(primary) if primary.is_file() else np.array([np.nan])
        walls_us = [s * 1e6 for s in per_command.values()]
        return Measurement(
            values={
                "runs_per_s": errors.size / per_command["campaign"],
                "latency_p50_us": percentile(walls_us, 50),
                "latency_p90_us": percentile(walls_us, 90),
                "wall_s": sum(per_command.values()),
                "median_abs_error_hz": float(np.median(errors)),
                "peak_rss_mb": self_peak_rss_mb(),
            },
            digests=digests,
            lines=[
                f"{suites} suites through cli.main with {WINDOW_FLAGS}; "
                f"cli_wall_s {sum(per_command.values()):.4f} s "
                "without start-up, per subcommand (fastest over the suites): "
                + ", ".join(f"{c} {s * 1e3:.2f} ms" for c, s in per_command.items())
            ],
        )


def make_workloads(root: Path, outdir: Path, env: dict) -> dict:
    """name -> workload, in the order BENCHMARK.json lists them."""
    workloads = [
        Campaign("campaign-quasistatic", None, block_runs=50, ref_blocks=400),
        Campaign("campaign-1f", "one_over_f", block_runs=5, ref_blocks=1600),
        ControllerLoop(sequences=2000, chunk=20),
        CliSuite(root, outdir, env),
    ]
    return {w.name: w for w in workloads}
