"""Command-line front end: seeded scenarios, machine-readable outputs.

Subcommands map one-to-one onto the experiment harness:

    estimate            one adaptive estimation against a simulated qubit
    campaign            Monte Carlo estimation-error campaign
    validate-gaussian   KL sweep of the Gaussian approximation vs probe time
    track               closed-loop fringe tracking with/without feedback
    compare-frequentist adaptive vs fixed-evolution-time baseline

Every output file starts with a header that reproduces the fully resolved
scenario, so reruns are verifiable.  Exit codes: 0 success, 1 invalid
scenario, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, experiments, qubitsim
from .estimator import GaussianBelief, LikelihoodModel, run_estimation
from .qubitsim import NoiseProcess, sample_outcome

OUTDIR_ENV = "FREQTRACK_OUTDIR"

COMMANDS = ("estimate", "campaign", "validate-gaussian", "track", "compare-frequentist")


class ScenarioError(ValueError):
    """Invalid or inconsistent scenario configuration."""


@dataclass(frozen=True)
class Scenario:
    """Fully resolved run configuration for one subcommand."""

    command: str
    params: dict
    seed: int
    output_path: str
    format: str

    def header_dict(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
            "format": self.format,
        }


# Per-command parameter schema: name -> (type, default, lower bound).  A bound
# (low, True) excludes low itself; (low, False) admits it; None leaves the
# value unbounded.  List bounds hold for every element.  Every float must be
# finite, except that "inf" is accepted for coherence times; no list may be empty.
_POSITIVE = (0.0, True)
_NON_NEGATIVE = (0.0, False)
_MODEL_KEYS = {
    "alpha": (float, -0.02, (-1.0, True)),
    "beta": (float, 0.6, _NON_NEGATIVE),
    "coherence_time": (float, 10e-6, _POSITIVE),
}

_SCHEMAS: dict[str, dict] = {
    "estimate": {
        "mu0": (float, 0.0, None),
        "sigma0": (float, 1e6, _POSITIVE),
        "n": (int, 15, _NON_NEGATIVE),
        "eps_true": (float, None, None),
        **_MODEL_KEYS,
    },
    "campaign": {
        "runs": (int, 5000, (1, False)),
        "n": (int, 15, _NON_NEGATIVE),
        "mu0": (float, 0.0, None),
        "sigma0": (float, 1e6, _POSITIVE),
        **{f"truth_{key}": spec for key, spec in _MODEL_KEYS.items()},
        **_MODEL_KEYS,
    },
    "validate-gaussian": {
        "mu0": (float, 0.0, None),
        "sigma0": (float, 1e6, _POSITIVE),
        "multipliers": (list, [0.25, 0.5, 1.0, 2.0, 3.0, 4.0], _POSITIVE),
        **_MODEL_KEYS,
    },
    "track": {
        "n": (int, 8, _NON_NEGATIVE),
        # fit_fringe needs at least 10 points per fringe
        "cycles": (int, 50, (10, False)),
        "tau_max": (float, 7e-6, _POSITIVE),
        "sigma_eps": (float, 30e3, _NON_NEGATIVE),
        "sigma0": (float, 30e3, _POSITIVE),
        "repetitions": (int, 200, (1, False)),
        "target_detuning": (float, 1e6, _POSITIVE),
        **_MODEL_KEYS,
    },
    "compare-frequentist": {
        "shots": (int, 15, (1, False)),
        "runs": (int, 400, (1, False)),
        "sigma0": (float, 1e6, _POSITIVE),
        "tau_multipliers": (list, [0.5, 1.0, 2.0, 4.0], _POSITIVE),
        "alpha": (float, 0.0, (-1.0, True)),
        "beta": (float, 1.0, _NON_NEGATIVE),
        "coherence_time": (float, math.inf, _POSITIVE),
    },
}


def _coerce(name: str, kind, value):
    try:
        # Flags arrive as strings; a config file must give an integer as a JSON integer.
        if kind is int and not isinstance(value, str) and type(value) is not int:
            raise TypeError
        if kind is list:
            if isinstance(value, str):
                value = [float(v) for v in value.split(",") if v]
            return [float(v) for v in value]
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"parameter '{name}': cannot interpret {value!r} as {kind.__name__}")


def resolve_scenario(command: str, flag_values: dict, config_path: str | None) -> Scenario:
    """Merge defaults, config-file values and flags (flags win) into a Scenario."""
    if command not in _SCHEMAS:
        raise ScenarioError(f"unknown command {command!r}; choose from {COMMANDS}")
    schema = _SCHEMAS[command]
    params = {k: default for k, (_, default, _) in schema.items()}

    config: dict = {}
    if config_path:
        try:
            config = json.loads(Path(config_path).read_text())
        except FileNotFoundError:
            raise ScenarioError(f"config file not found: {config_path}")
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"config file {config_path} is not valid JSON: {exc}")
        if not isinstance(config, dict):
            raise ScenarioError(f"config file {config_path} must hold a JSON object")

    reserved = {"seed", "output", "format"}
    for key, value in config.items():
        if key in reserved:
            continue
        if key not in schema:
            raise ScenarioError(f"unknown config key '{key}' for command '{command}'")
        kind, default, _ = schema[key]
        # null stands for a default of None only (estimate's eps_true: draw from the prior)
        params[key] = None if value is None and default is None else _coerce(key, kind, value)

    for key, value in flag_values.items():
        if key in schema and value is not None:
            params[key] = _coerce(key, schema[key][0], value)

    seed = flag_values.get("seed")
    if seed is None:
        seed = config.get("seed")
        seed = 0 if seed is None else _coerce("seed", int, seed)
    if not 0 <= seed < 2**128:  # the keys a Philox stream accepts
        raise ScenarioError(f"seed must be >= 0 and < 2**128, got {seed}")
    fmt = flag_values.get("format") or config.get("format") or "csv"
    if fmt not in ("csv", "json"):
        raise ScenarioError(f"format must be 'csv' or 'json', got {fmt!r}")

    output = flag_values.get("output") or config.get("output")
    if output is None:
        outdir = os.environ.get(OUTDIR_ENV, ".")
        output = str(Path(outdir) / f"{command}.{fmt}")

    _validate_params(command, params)
    return Scenario(command, params, int(seed), output, fmt)


def _model_from(params: dict, prefix: str = "") -> LikelihoodModel:
    try:
        return LikelihoodModel(
            alpha=params[f"{prefix}alpha"],
            beta=params[f"{prefix}beta"],
            T=params[f"{prefix}coherence_time"],
        )
    except ValueError as exc:
        raise ScenarioError(str(exc))


def _validate_params(command: str, params: dict) -> None:
    """Check every parameter against its schema bound, then the models' own constraints."""
    for key, (kind, _, bound) in _SCHEMAS[command].items():
        value = params[key]
        values = value if kind is list else [value]
        if not values:
            raise ScenarioError(f"{key} must not be empty")
        inf_ok = key.endswith("coherence_time")
        if kind is not int and value is not None and not all(
            math.isfinite(v) or inf_ok and v == math.inf for v in values
        ):
            raise ScenarioError(f"{key} must be finite, got {value}")
        if bound is None:
            continue
        low, exclusive = bound
        if not all(v > low if exclusive else v >= low for v in values):
            raise ScenarioError(f"{key} must be {'>' if exclusive else '>='} {low}, got {value}")
        if key == "sigma0" and not experiments._sigma_in_range(value):
            raise ScenarioError(f"sigma0**4 must be finite and normal, got {value}")
    _model_from(params)
    if command == "campaign":
        _model_from(params, "truth_")


# ---------------------------------------------------------------------------
# Output writing
# ---------------------------------------------------------------------------


def _files(scenario: Scenario, columns: list[str], rows: list[list], summary: dict | None):
    """(path, text) of the output file and, given a summary, of <output>.summary.json."""
    path = Path(scenario.output_path)
    head = {"tool": f"freqtrack {__version__}", "scenario": scenario.header_dict()}
    if scenario.format == "csv":
        header = json.dumps(scenario.header_dict(), sort_keys=True)
        lines = [f"# freqtrack {__version__}", f"# scenario {header}", ",".join(columns)]
        for row in rows:
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
        files = [(path, "\n".join(lines) + "\n")]
    else:
        files = [(path, _json_text({**head, "columns": columns, "rows": rows}))]
    if summary is not None:
        files.append((path.with_suffix(".summary.json"), _json_text({**head, "summary": summary})))
    return files


def _json_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write_files(files: list[tuple[Path, str]]) -> None:
    """Write every file beside its target, then move all into place; on failure leave none."""
    tmps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path, _ in files]
    placed = []
    try:
        for tmp, (_, text) in zip(tmps, files):
            tmp.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(text)
        for tmp, (path, _) in zip(tmps, files):
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for path in placed:
            path.unlink(missing_ok=True)
        raise
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)


def read_header(path: str) -> dict:
    """Recover the scenario header from an output file."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return json.loads(text)["scenario"]
    for line in text.splitlines():
        if line.startswith("# scenario "):
            return json.loads(line[len("# scenario "):])
    raise ValueError(f"no scenario header found in {path}")


# ---------------------------------------------------------------------------
# Command implementations: each returns (columns, rows, summary or None)
# ---------------------------------------------------------------------------


def _run_estimate(scenario: Scenario) -> tuple[list[str], list[list], dict | None]:
    p = scenario.params
    model = _model_from(p)
    prior = GaussianBelief(p["mu0"], p["sigma0"])
    rng = np.random.default_rng(scenario.seed)
    eps_true = p["eps_true"]
    if eps_true is None:
        eps_true = prior.mu + prior.sigma * float(rng.standard_normal())
    _, trace = run_estimation(
        prior, p["n"], model, lambda probe: sample_outcome(eps_true, probe, model, rng)
    )
    rows = [[r.step, r.tau, r.delta_f, r.outcome, r.mu, r.sigma] for r in trace]
    return ["step", "tau_s", "delta_f_hz", "outcome", "mu_hz", "sigma_hz"], rows, None


def _run_campaign(scenario: Scenario) -> tuple[list[str], list[list], dict | None]:
    p = scenario.params
    cfg = experiments.CampaignConfig(
        run_count=p["runs"],
        n_shots=p["n"],
        prior=GaussianBelief(p["mu0"], p["sigma0"]),
        truth_model=_model_from(p, "truth_"),
        update_model=_model_from(p),
        master_seed=scenario.seed,
    )
    stats = experiments.run_campaign(cfg)
    runs = zip(stats.eps_true.tolist(), stats.eps_hat.tolist(), stats.final_sigmas.tolist())
    rows = [[i, eps_true, eps_hat, sigma] for i, (eps_true, eps_hat, sigma) in enumerate(runs)]
    summary = {
        "n_runs": len(rows),
        "mean_final_sigma_hz": stats.mean_final_sigma,
        "std_hz": stats.std,
        "mad_hz": stats.mad,
        "outlier_fraction": stats.outlier_fraction,
        "calibration_fraction": stats.calibration_fraction,
    }
    return ["run", "eps_true_hz", "eps_hat_hz", "final_sigma_hz"], rows, summary


def _run_validate_gaussian(scenario: Scenario) -> tuple[list[str], list[list], dict | None]:
    p = scenario.params
    rows = experiments.gaussian_validity_sweep(
        GaussianBelief(p["mu0"], p["sigma0"]), _model_from(p), p["multipliers"]
    )
    return (
        ["tau_multiplier", "tau_s", "m", "posterior_sigma_hz", "kl_bits", "n_modes"],
        [[r.tau_multiplier, r.tau, r.m, r.posterior_sigma, r.kl_bits, r.n_modes] for r in rows],
        None,
    )


def _run_track(scenario: Scenario) -> tuple[list[str], list[list], dict | None]:
    p = scenario.params
    fb, open_loop = experiments.closed_loop_track(
        noise=NoiseProcess(kind=qubitsim.QUASISTATIC, sigma_eps=p["sigma_eps"]),
        n_shots=p["n"],
        m_cycles=p["cycles"],
        tau_max=p["tau_max"],
        model=_model_from(p),
        seed=scenario.seed,
        repetitions=p["repetitions"],
        sigma0=p["sigma0"],
        target_detuning=p["target_detuning"],
    )
    rows = [
        [float(t), float(f), float(o)]
        for t, f, o in zip(fb.tau_values, fb.flip_fractions, open_loop.flip_fractions)
    ]
    summary = {}
    for label, rec in (("feedback", fb), ("no_feedback", open_loop)):
        fit = experiments.fit_fringe(rec)
        summary[label] = {
            "t2_s": fit.t2,
            "frequency_hz": fit.frequency,
            "amplitude": fit.amplitude,
            "t2_err_s": fit.t2_err,
            "frequency_err_hz": fit.frequency_err,
            "identifiable": fit.identifiable,
        }
    return ["tau_s", "flip_fraction_feedback", "flip_fraction_no_feedback"], rows, summary


def _run_compare_frequentist(scenario: Scenario) -> tuple[list[str], list[list], dict | None]:
    p = scenario.params
    rows = experiments.compare_frequentist(
        p["sigma0"], p["shots"], p["runs"], p["tau_multipliers"], _model_from(p), scenario.seed
    )
    return (
        ["tau_multiplier", "tau_s", "fbs_median_abs_error_hz", "frequentist_median_abs_error_hz"],
        [list(row) for row in rows],
        None,
    )


_RUNNERS = {
    "estimate": _run_estimate,
    "campaign": _run_campaign,
    "validate-gaussian": _run_validate_gaussian,
    "track": _run_track,
    "compare-frequentist": _run_compare_frequentist,
}


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # Argument errors are scenario-validation failures (exit 1, not argparse's 2).
    def error(self, message):
        raise ScenarioError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="freqtrack",
        description="Adaptive Bayesian qubit-frequency estimation experiments",
    )
    parser.add_argument("--version", action="version", version=f"freqtrack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in _SCHEMAS.items():
        sp = sub.add_parser(command)
        sp.add_argument("--config", help="JSON config file (flags take precedence)")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--output", default=None, help="output file path")
        sp.add_argument("--format", choices=("csv", "json"), default=None)
        for key, (kind, default, _) in schema.items():
            text = f"comma-separated (default {default})" if kind is list else f"default {default}"
            sp.add_argument("--" + key.replace("_", "-"), default=None, help=text)
    return parser


def parse_scenario(argv: list[str]) -> Scenario:
    """Parse command-line arguments (and optional config file) into a Scenario."""
    args = build_parser().parse_args(argv)
    flag_values = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    return resolve_scenario(args.command, flag_values, args.config)


def execute(scenario: Scenario) -> int:
    """Run the scenario, then write its files; returns the process exit code."""
    try:
        _write_files(_files(scenario, *_RUNNERS[scenario.command](scenario)))
    except ScenarioError:
        raise
    except OSError as exc:
        print(f"freqtrack: I/O failure for {scenario.output_path}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"freqtrack: runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return execute(parse_scenario(argv))
    except ScenarioError as exc:
        print(f"freqtrack: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
