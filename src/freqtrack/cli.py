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

from . import __version__, experiments
from .estimator import GaussianBelief, LikelihoodModel, _sigma_in_range, run_estimation
from .qubitsim import NoiseProcess, rng_for_run, sample_outcome, standard_normals

OUTDIR_ENV = "FREQTRACK_OUTDIR"

class ScenarioError(ValueError):
    """Invalid or inconsistent scenario configuration."""


@dataclass(frozen=True)
class Scenario:
    """Fully resolved run configuration for one subcommand, with its checked models."""

    command: str
    params: dict
    seed: int
    output_path: str
    format: str
    model: LikelihoodModel
    truth_model: LikelihoodModel | None  # campaign's outcome-generating model; None elsewhere

    def header_dict(self) -> dict:  # what each output header records
        return {key: getattr(self, key) for key in ("command", "params", "seed", "format")}


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
COMMANDS = tuple(_SCHEMAS)


def _param(key: str, spec: tuple, value):
    """value coerced to the key's kind and checked against its schema bound."""
    kind, default, bound = spec
    if value is None and default is None:  # null stands for a default of None only (eps_true)
        return None
    try:
        if kind is int and type(value) is not int:  # a JSON integer, or a flag argparse parsed
            raise TypeError
        if kind is list and isinstance(value, str):
            value = [float(v) for v in value.split(",") if v]
        elif kind is list:
            value = [float(v) for v in value]
        else:
            value = kind(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"parameter '{key}': cannot interpret {value!r} as {kind.__name__}")
    values = value if kind is list else [value]
    if not values:
        raise ScenarioError(f"{key} must not be empty")
    inf_ok = key.endswith("coherence_time")
    if kind is not int and not all(math.isfinite(v) or inf_ok and v == math.inf for v in values):
        raise ScenarioError(f"{key} must be finite, got {value}")
    if bound is not None:
        low, exclusive = bound
        if not all(v > low if exclusive else v >= low for v in values):
            raise ScenarioError(f"{key} must be {'>' if exclusive else '>='} {low}, got {value}")
    if key == "sigma0" and not _sigma_in_range(value):
        raise ScenarioError(f"sigma0 must be in [2**-255.5, 2**254), got {value}")
    return value


def resolve_scenario(command: str, flag_values: dict, config_path: str | None) -> Scenario:
    """Merge defaults, config-file values and flags (flags win) into a Scenario."""
    if command not in _SCHEMAS:
        raise ScenarioError(f"unknown command {command!r}; choose from {COMMANDS}")
    schema = _SCHEMAS[command]

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
    for key in config:
        if key not in schema and key not in ("seed", "output", "format"):
            raise ScenarioError(f"unknown config key '{key}' for command '{command}'")
    flags = {k: v for k, v in flag_values.items() if v is not None and k != "config"}
    given = {**config, **flags}

    params = {key: _param(key, spec, given.get(key, spec[1])) for key, spec in schema.items()}
    model = _model_from(params)
    truth_model = _model_from(params, "truth_") if command == "campaign" else None

    seed = given.get("seed")
    seed = 0 if seed is None else _param("seed", (int, 0, None), seed)
    if not 0 <= seed < 2**128:  # the keys a Philox stream accepts
        raise ScenarioError(f"seed must be >= 0 and < 2**128, got {seed}")
    fmt = given.get("format")
    fmt = "csv" if fmt is None else fmt
    if fmt not in ("csv", "json"):
        raise ScenarioError(f"format must be 'csv' or 'json', got {fmt!r}")
    output = given.get("output")
    if output is None:
        output = str(Path(os.environ.get(OUTDIR_ENV, ".")) / f"{command}.{fmt}")
    elif not isinstance(output, str) or not output:
        raise ScenarioError(f"output must be a non-empty path, got {output!r}")
    return Scenario(command, params, seed, output, fmt, model, truth_model)


def _model_from(params: dict, prefix: str = "") -> LikelihoodModel:
    try:
        return LikelihoodModel(
            alpha=params[f"{prefix}alpha"],
            beta=params[f"{prefix}beta"],
            T=params[f"{prefix}coherence_time"],
        )
    except ValueError as exc:
        raise ScenarioError(str(exc))


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
        lines += [",".join(map(str, row)) for row in rows]
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


# ---------------------------------------------------------------------------
# Command implementations: each returns (columns, rows, summary or None)
# ---------------------------------------------------------------------------


def _run_estimate(scenario: Scenario) -> tuple[list[str], list[list], dict | None]:
    p, model = scenario.params, scenario.model
    prior = GaussianBelief(p["mu0"], p["sigma0"])
    rng = rng_for_run(scenario.seed, 0)  # run 0 of `campaign --seed s --runs 1`
    z = float(standard_normals(rng.random(2))[0])  # drawn even for a given eps_true
    eps_true = prior.mu + prior.sigma * z if p["eps_true"] is None else p["eps_true"]
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
        truth_model=scenario.truth_model,
        update_model=scenario.model,
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
    try:
        rows = experiments.gaussian_validity_sweep(
            GaussianBelief(p["mu0"], p["sigma0"]), scenario.model, p["multipliers"]
        )
    except ValueError as exc:  # a multiplier the oracle grid cannot resolve
        raise ScenarioError(str(exc))
    return (
        ["tau_multiplier", "tau_s", "m", "posterior_sigma_hz", "kl_bits", "n_modes"],
        [list(row) for row in rows],
        None,
    )


def _run_track(scenario: Scenario) -> tuple[list[str], list[list], dict | None]:
    p = scenario.params
    fb, open_loop = experiments.closed_loop_track(
        noise=NoiseProcess(sigma_eps=p["sigma_eps"]),
        n_shots=p["n"],
        m_cycles=p["cycles"],
        tau_max=p["tau_max"],
        model=scenario.model,
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
    try:
        rows = experiments.compare_frequentist(
            p["sigma0"], p["shots"], p["runs"], p["tau_multipliers"], scenario.model, scenario.seed
        )
    except ValueError as exc:  # a tau at which the fixed-tau estimate has no slope to invert
        raise ScenarioError(str(exc))
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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one command's flags or, given none, the top level that names the commands."""
    if command is None:
        parser = _Parser(prog="freqtrack", description="Adaptive Bayesian qubit-frequency estimation experiments")
        parser.add_argument("--version", action="version", version=f"freqtrack {__version__}")
        parser.add_argument("command", choices=COMMANDS, help="freqtrack <command> -h lists its flags")
        return parser
    parser = _Parser(prog=f"freqtrack {command}")
    parser.add_argument("--config", help="JSON config file (flags take precedence)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--output", help="output file path")
    parser.add_argument("--format", choices=("csv", "json"))
    for key, (kind, default, _) in _SCHEMAS[command].items():
        text = f"comma-separated (default {default})" if kind is list else f"default {default}"
        parser.add_argument("--" + key.replace("_", "-"), type=int if kind is int else None, help=text)
    return parser


def parse_scenario(argv: list[str]) -> Scenario:
    """Parse command-line arguments (and optional config file) into a Scenario."""
    if not argv or argv[0] not in _SCHEMAS:  # prints help or the version, or raises
        build_parser().parse_args(argv)
        raise ScenarioError(f"the command must come first, one of {COMMANDS}")
    args = build_parser(argv[0]).parse_args(argv[1:])
    return resolve_scenario(argv[0], vars(args), args.config)  # resolve_scenario skips "config"


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
