"""Command-line interface: scenario resolution, outputs, exit codes."""

import json
import math

import numpy as np
import pytest

from freqtrack import __version__, cli, experiments
from freqtrack.cli import (
    COMMANDS,
    ScenarioError,
    main,
    parse_scenario,
    resolve_scenario,
)
from freqtrack.qubitsim import sample_outcome


class TestScenarioResolution:
    def test_defaults(self):
        s = parse_scenario(["estimate"])
        assert s.command == "estimate"
        assert s.seed == 0
        assert s.format == "csv"
        assert s.params["n"] == 15
        assert s.params["sigma0"] == 1e6
        assert s.params["alpha"] == -0.02

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 7, "sigma0": 5e5, "seed": 9}))
        s = parse_scenario(["estimate", "--config", str(cfg), "--n", "3"])
        assert s.params["n"] == 3  # flag wins
        assert s.params["sigma0"] == 5e5  # config beats default
        assert s.seed == 9

    @pytest.mark.parametrize(
        "key, flag_value, config_value, default",
        [
            ("seed", 5, 9, 0),
            ("format", "csv", "json", "csv"),
            ("output", "flag.csv", "config.csv", "estimate.csv"),  # default: under the outdir
            ("sigma0", 2e5, 5e5, 1e6),
        ],
    )
    def test_flag_beats_config_beats_default(
        self, key, flag_value, config_value, default, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("FREQTRACK_OUTDIR", str(tmp_path))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: config_value}))

        def resolved(*argv):
            s = parse_scenario(["estimate", *argv])
            return {"seed": s.seed, "format": s.format, "output": s.output_path, **s.params}[key]

        flag = ["--" + key, str(flag_value)]
        assert resolved(*flag, "--config", str(cfg)) == flag_value
        assert resolved("--config", str(cfg)) == config_value
        expected = str(tmp_path / default) if key == "output" else default
        assert resolved() == expected

    @pytest.mark.parametrize("config", [{"n": 2.5}, {"seed": 1.5}])
    def test_a_flag_replaces_the_config_value_unread(self, config, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        s = parse_scenario(["estimate", "--config", str(cfg), "--n", "3", "--seed", "4"])
        assert (s.params["n"], s.seed) == (3, 4)

    def test_null_config_seed_resolves_to_0(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": None}))
        assert parse_scenario(["estimate", "--config", str(cfg)]).seed == 0

    def test_each_command_is_declared_once(self):
        assert COMMANDS == tuple(cli._SCHEMAS) == tuple(cli._RUNNERS)

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bananas": 1}))
        with pytest.raises(ScenarioError):
            parse_scenario(["estimate", "--config", str(cfg)])

    @pytest.mark.parametrize(
        "config",
        [
            {"runs": 40.9},
            {"n": 2.5},
            {"runs": 40.0},
            {"runs": True},
            {"seed": 1.5},
            # a JSON string is no JSON integer, even where a flag's text would parse
            {"runs": "40"},
            {"seed": "7"},
        ],
    )
    def test_non_integer_config_value_rejected(self, config, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["campaign", "--config", str(cfg), "--output", str(out / "c.csv")]) == 1
        assert "freqtrack:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, config",
        [
            ("campaign", {"runs": None}),
            ("estimate", {"sigma0": None}),
            ("estimate", {"mu0": None}),
            ("validate-gaussian", {"multipliers": None}),
            ("track", {"cycles": None}),
        ],
    )
    def test_null_config_value_rejected(self, command, config, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--output", str(out / "o.csv")]) == 1
        assert "freqtrack:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [("{not json", "is not valid JSON"), ("[1, 2]", "must hold a JSON object")],
        ids=["invalid", "not_an_object"],
    )
    def test_unreadable_config_rejected(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["estimate", "--config", str(cfg), "--output", str(out / "o.csv")]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_null_eps_true_draws_from_prior(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps_true": None, "n": 2}))
        out = tmp_path / "o.csv"
        assert main(["estimate", "--config", str(cfg), "--output", str(out)]) == 0
        assert out.exists()

    def test_integer_config_values_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"runs": 40, "n": 2, "seed": 3}))
        s = parse_scenario(["campaign", "--config", str(cfg)])
        assert (s.params["runs"], s.params["n"], s.seed) == (40, 2, 3)

    def test_invalid_model_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta": 1.5}))
        with pytest.raises(ScenarioError):
            parse_scenario(["estimate", "--config", str(cfg)])

    def test_infinite_coherence_time_string(self):
        s = parse_scenario(["estimate", "--alpha", "0", "--beta", "1", "--coherence-time", "inf"])
        assert s.params["coherence_time"] == math.inf

    def test_multiplier_list_parsing(self):
        s = parse_scenario(["validate-gaussian", "--multipliers", "0.5,1,2"])
        assert s.params["multipliers"] == [0.5, 1.0, 2.0]

    def test_unknown_command(self):
        with pytest.raises(ScenarioError):
            resolve_scenario("frobnicate", {}, None)

    def test_missing_config_file(self):
        with pytest.raises(ScenarioError):
            parse_scenario(["estimate", "--config", "/nonexistent/cfg.json"])

    def test_outdir_env_used_for_default_output(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FREQTRACK_OUTDIR", str(tmp_path))
        s = parse_scenario(["estimate"])
        assert s.output_path == str(tmp_path / "estimate.csv")


class TestCommandLineSurface:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"freqtrack {__version__}\n"

    def test_help_lists_the_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(command in out for command in COMMANDS)

    def test_command_help_lists_its_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: freqtrack estimate ") and "--sigma0" in out

    @pytest.mark.parametrize(
        "argv",
        [[], ["frobnicate"], ["estim"], ["--seed", "0", "estimate"], ["--", "estimate"]],
    )
    def test_no_command_first_exits_1(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("freqtrack: ")

    @pytest.mark.parametrize("flag", [["--runs", "5"], ["--version"]])
    def test_flag_of_another_parser_exits_1(self, flag, capsys):
        assert main(["estimate", *flag]) == 1
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--sigma0=2e6"], ["--sigma", "2e6"]])
    def test_joined_value_and_unique_prefix_parse(self, argv):
        assert parse_scenario(["estimate", *argv]).params["sigma0"] == 2e6

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_command_builds_only_its_own_parser(self, command, monkeypatch):
        built = []

        class Counting(cli._Parser):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.prog)

        monkeypatch.setattr(cli, "_Parser", Counting)
        parse_scenario([command, "--seed", "3"])
        assert built == [f"freqtrack {command}"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--n", "2"],
            ["campaign", "--runs", "3", "--n", "2"],
            ["validate-gaussian", "--multipliers", "1"],
            ["track", "--cycles", "10", "--repetitions", "2", "--n", "2"],
            ["compare-frequentist", "--runs", "3", "--tau-multipliers", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_each_model_is_built_once(self, argv, tmp_path, monkeypatch):
        # campaign has a truth model besides the update model; the others have one model.
        built = []

        class Counting(cli.LikelihoodModel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(cli, "LikelihoodModel", Counting)
        assert main([*argv, "--output", str(tmp_path / "o.csv")]) == 0
        assert len(built) == (2 if argv[0] == "campaign" else 1)


class TestExitCodes:
    def test_bad_flag_value_exits_1(self, capsys):
        assert main(["estimate", "--n", "many"]) == 1
        assert "freqtrack:" in capsys.readouterr().err

    def test_bad_argparse_usage_exits_1(self, capsys):
        assert main(["estimate", "--no-such-flag", "1"]) == 1

    def test_invalid_model_exits_1(self, capsys):
        assert main(["estimate", "--beta", "1.5"]) == 1

    def test_runtime_failure_exits_2(self, tmp_path, capsys):
        # output path is an existing directory: the write fails at runtime
        target = tmp_path / "blocked"
        target.mkdir()
        assert main(["estimate", "--n", "2", "--output", str(target)]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["track", "--cycles", "9"],
            ["track", "--repetitions", "0"],
            ["compare-frequentist", "--shots", "0"],
            ["compare-frequentist", "--runs", "0"],
            ["campaign", "--sigma0", "nan"],
            ["estimate", "--sigma0", "inf"],
            ["campaign", "--mu0", "inf"],
            ["estimate", "--mu0", "nan"],
            ["estimate", "--eps-true", "nan"],
            ["validate-gaussian", "--multipliers", "inf"],
            ["validate-gaussian", "--multipliers", ","],
            ["track", "--tau-max", "inf"],
            ["track", "--target-detuning", "inf"],
            ["track", "--sigma-eps", "inf"],
            ["compare-frequentist", "--tau-multipliers", ","],
            # sigma0 outside [2**-255.5, 2**254): sigma0**4 subnormal, or too large
            ["estimate", "--sigma0", "1e-300"],
            ["estimate", "--sigma0", "1e100"],
            ["estimate", "--sigma0", "1e300"],
            ["validate-gaussian", "--sigma0", "1e300"],
            ["campaign", "--sigma0", "1e300"],
            ["compare-frequentist", "--sigma0", "1e300"],
            ["track", "--sigma0", "1e300"],
            ["campaign", "--runs", "3", "--sigma0", "1e-300"],
            ["estimate", "--sigma0", "1e-80"],
            ["campaign", "--runs", "3", "--sigma0", "1e-80"],
            # sigma0**4 is finite, but (2 pi beta)^2 sigma0^4 can overflow from 2**254 on
            ["estimate", "--sigma0", "1e77"],
            ["campaign", "--sigma0", "1e77"],
        ],
    )
    def test_out_of_bounds_exits_1_before_writing(self, argv, tmp_path, capsys):
        assert main([*argv, "--output", str(tmp_path / "out.csv")]) == 1
        assert "freqtrack:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("output", [5, False, 0, "", ["o.csv"]], ids=repr)
    def test_config_output_that_is_no_path_exits_1(self, output, tmp_path, monkeypatch, capsys):
        # These used to reach the writer and exit 2 with a bare TypeError or ValueError.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output": output}))
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        monkeypatch.setenv("FREQTRACK_OUTDIR", str(run_dir))
        assert main(["estimate", "--n", "2", "--config", str(cfg)]) == 1
        assert "output must be a non-empty path" in capsys.readouterr().err
        assert list(run_dir.iterdir()) == []

    @pytest.mark.parametrize("fmt", [False, "", 0, "xml"], ids=repr)
    def test_config_format_that_is_no_format_exits_1(self, fmt, tmp_path, monkeypatch, capsys):
        # A falsy format used to stand for an absent one and write CSV.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": fmt}))
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        monkeypatch.setenv("FREQTRACK_OUTDIR", str(run_dir))
        assert main(["estimate", "--n", "2", "--config", str(cfg)]) == 1
        assert "format must be 'csv' or 'json'" in capsys.readouterr().err
        assert list(run_dir.iterdir()) == []

    def test_null_config_format_writes_csv(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": None}))
        monkeypatch.setenv("FREQTRACK_OUTDIR", str(tmp_path))
        assert main(["estimate", "--n", "2", "--config", str(cfg)]) == 0
        header = (tmp_path / "estimate.csv").read_text().splitlines()[1]
        assert json.loads(header.removeprefix("# scenario "))["format"] == "csv"

    def test_multiplier_the_oracle_grid_cannot_resolve_exits_1(self, tmp_path, capsys):
        # x4000 and x16383 used to exit 0 with aliased rows (n_modes 4056 and 4853 against
        # about 6,700 and 27,400 fringe lobes in the prior's support).
        argv = ["validate-gaussian", "--multipliers", "1,100,1000,4000,16383"]
        model = ["--coherence-time", "inf", "--alpha", "0", "--beta", "1"]
        assert main([*argv, *model, "--output", str(tmp_path / "v.csv")]) == 1
        assert "[4000.0, 16383.0]" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["--beta", "0", "--runs", "20"],
            # e^(-tau/T) underflows at x10000
            ["--alpha", "-0.02", "--beta", "0.6", "--coherence-time", "1e-6"]
            + ["--tau-multipliers", "1,10000"],
        ],
        ids=["beta_0", "underflow"],
    )
    def test_compare_frequentist_without_slope_exits_1(self, argv, tmp_path, capsys):
        # These used to exit 0 after a divide-by-zero warning, with clipped or NaN errors.
        assert main(["compare-frequentist", *argv, "--output", str(tmp_path / "c.csv")]) == 1
        assert "slope" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_empty_output_flag_exits_1(self, tmp_path, monkeypatch, capsys):
        # It used to fall back to the default path and write estimate.csv there.
        monkeypatch.setenv("FREQTRACK_OUTDIR", str(tmp_path))
        assert main(["estimate", "--n", "2", "--output", ""]) == 1
        assert "output must be a non-empty path" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", [-1, 2**128], ids=["minus_1", "2_pow_128"])
    @pytest.mark.parametrize(
        "command", ["estimate", "campaign", "validate-gaussian", "track", "compare-frequentist"]
    )
    def test_seed_outside_philox_keys_exits_1(self, command, seed, tmp_path, capsys):
        # A Philox key, which seeds a campaign's streams, is in [0, 2**128).
        assert main([command, "--seed", str(seed), "--output", str(tmp_path / "out.csv")]) == 1
        assert "seed must be" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sigma0", ["1.3e-77", "1e76"])
    def test_extreme_sigma0_inside_the_closed_form_range_runs(self, sigma0, tmp_path):
        # sigma0**4 is just above the smallest normal double at 1.3e-77 and finite at 1e76.
        out = tmp_path / "c.csv"
        argv = ["campaign", "--runs", "3", "--n", "2", "--sigma0", sigma0]
        assert main([*argv, "--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
        assert len(rows) == 3 and all(float(row[3]) > 0.0 for row in rows)

    def test_sigma_turning_subnormal_mid_run_exits_2(self, tmp_path, capsys):
        # sigma0 is in range, but ideal steps take sigma below 2**-255.5, where sigma**4 is
        # subnormal: one step at sigma0 = 1.3e-77, or 1700 steps from the default prior, after
        # which tau**2 used to overflow in the array form with only a warning and exit 0.  The
        # one-shot estimate, whose last shot crosses the floor, used to exit 0.
        ideal = ["--alpha", "0", "--beta", "1", "--coherence-time", "inf"]
        truth = ["--truth-alpha", "0", "--truth-beta", "1", "--truth-coherence-time", "inf"]
        for argv in (
            ["estimate", "--sigma0", "1.3e-77", *ideal],
            ["estimate", "--sigma0", "1.3e-77", "--n", "1", *ideal],
            ["campaign", "--runs", "3", "--n", "1700", *ideal, *truth],
            ["track", "--n", "1700", *ideal],
            ["compare-frequentist", "--shots", "1700", "--runs", "3", *ideal],
        ):
            assert main([*argv, "--output", str(tmp_path / "out.csv")]) == 2, argv
            assert "below 2**-255.5" in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == []

    def test_validate_gaussian_posterior_below_the_sigma_floor_exits_2(self, tmp_path, capsys):
        # sigma0 is in range, but one ideal shot narrows the exact posterior below 2**-255.5: a
        # runtime failure, which used to exit 1 as an invalid scenario.
        argv = ["validate-gaussian", "--sigma0", "1.3e-77", "--alpha", "0", "--beta", "1"]
        assert main([*argv, "--coherence-time", "inf", "--output", str(tmp_path / "v.csv")]) == 2
        assert "runtime error: posterior sigma 1.166600475378003e-77 is outside" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_largest_seed_accepted(self, tmp_path):
        out = tmp_path / "c.csv"
        argv = ["campaign", "--runs", "3", "--n", "2", "--seed", str(2**128 - 1)]
        assert main([*argv, "--output", str(out)]) == 0
        header = out.read_text().splitlines()[1]
        assert json.loads(header.removeprefix("# scenario "))["seed"] == 2**128 - 1

    def test_failed_fit_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # Every result is computed before the first file is written.
        def fail(record):
            raise RuntimeError("no convergence")

        monkeypatch.setattr(experiments, "fit_fringe", fail)
        argv = ["track", "--cycles", "10", "--repetitions", "5"]
        assert main([*argv, "--output", str(tmp_path / "track.csv")]) == 2
        assert "no convergence" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_a_fit_at_its_step_budget_is_unidentifiable(self, tmp_path):
        # The open arm's fit is still falling at its 2000th step, with f bouncing between its
        # bounds and phi at +-pi.  It writes its last iterate, unidentifiable, and exits 0.
        argv = ["track", "--seed", "1365", "--n", "3", "--cycles", "26", "--repetitions", "5"]
        assert main([*argv, "--output", str(tmp_path / "track.csv")]) == 0
        summary = json.loads((tmp_path / "track.summary.json").read_text())["summary"]
        assert summary["no_feedback"]["identifiable"] is False
        assert math.isfinite(summary["no_feedback"]["t2_err_s"])  # unidentifiable by the budget

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "camp.summary.json").mkdir()  # the summary cannot replace a directory
        argv = ["campaign", "--runs", "3", "--n", "2", "--output", str(tmp_path / "camp.csv")]
        assert main(argv) == 2
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
        assert not (tmp_path / "camp.csv").exists()  # no output without its summary

    def test_success_exits_0(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["estimate", "--n", "3", "--output", str(out)]) == 0
        assert out.exists()


class TestEstimateOutput:
    def test_trace_rows_and_header_roundtrip(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["estimate", "--n", "12", "--seed", "5", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# freqtrack ")
        assert lines[2] == "step,tau_s,delta_f_hz,outcome,mu_hz,sigma_hz"
        assert len(lines) == 3 + 12

        header = json.loads(lines[1].removeprefix("# scenario "))
        assert set(header) == {"command", "params", "seed", "format"}
        assert header["command"] == "estimate"
        assert header["seed"] == 5
        assert header["params"]["n"] == 12

    def test_json_format(self, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["estimate", "--n", "4", "--format", "json", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["columns"][0] == "step"
        assert len(doc["rows"]) == 4
        assert doc["scenario"]["params"]["n"] == 4

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert main(["estimate", "--n", "15", "--seed", "3", "--output", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_replays_campaign_run_0(self, tmp_path, monkeypatch):
        # estimate --seed s reads the row of run 0 of `campaign --seed s --runs 1` through the
        # public scalar API: the prior normal's pair, then one uniform per shot.  The final
        # (mu, sigma) agree with the lockstep loop's to rounding, not bit for bit, as the loop
        # carries the variance and run_estimation squares sigma every shot; the shift is the
        # same bits.
        shifts = []

        def recording(eps_true, probe, model, rng):
            shifts.append(eps_true)
            return sample_outcome(eps_true, probe, model, rng)

        monkeypatch.setattr(cli, "sample_outcome", recording)
        est, camp = tmp_path / "e.csv", tmp_path / "c.csv"

        def last_row(path):
            return map(float, path.read_text().splitlines()[-1].split(","))

        for seed in range(50):
            shifts.clear()
            assert main(["estimate", "--seed", str(seed), "--output", str(est)]) == 0
            argv = ["campaign", "--seed", str(seed), "--runs", "1", "--output", str(camp)]
            assert main(argv) == 0
            *_, mu, sigma = last_row(est)
            _, eps_true, eps_hat, final_sigma = last_row(camp)
            assert len(shifts) == 15 and set(shifts) == {eps_true}, seed
            assert abs(mu - eps_hat) <= 1e-14 * max(abs(eps_hat), final_sigma), seed
            assert math.isclose(sigma, final_sigma, rel_tol=1e-14), seed
            # A given eps_true still consumes the prior pair, so the shots stay aligned.
            rows = est.read_text().splitlines()[3:]
            argv = ["estimate", "--seed", str(seed), "--eps-true", repr(eps_true)]
            assert main([*argv, "--output", str(est)]) == 0
            assert est.read_text().splitlines()[3:] == rows, seed

    def test_fixed_eps_true_changes_outcomes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["estimate", "--seed", "1", "--eps-true", "0", "--output", str(a)])
        main(["estimate", "--seed", "1", "--eps-true", "900000", "--output", str(b)])
        assert a.read_bytes() != b.read_bytes()


class TestCampaignOutput:
    def test_rows_and_summary(self, tmp_path):
        out = tmp_path / "camp.csv"
        assert (
            main(["campaign", "--runs", "40", "--n", "6", "--seed", "2", "--output", str(out)])
            == 0
        )
        lines = out.read_text().splitlines()
        assert lines[2] == "run,eps_true_hz,eps_hat_hz,final_sigma_hz"
        assert len(lines) == 3 + 40

        summary = json.loads((tmp_path / "camp.summary.json").read_text())
        assert summary["summary"]["n_runs"] == 40
        assert summary["summary"]["mean_final_sigma_hz"] > 0
        assert summary["scenario"]["params"]["runs"] == 40

    def test_seed_changes_data(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["campaign", "--runs", "20", "--n", "5", "--seed", "1", "--output", str(a)])
        main(["campaign", "--runs", "20", "--n", "5", "--seed", "2", "--output", str(b)])
        assert a.read_bytes() != b.read_bytes()


class TestCsvCells:
    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--n", "4"],
            ["campaign", "--runs", "5", "--n", "4"],
            ["validate-gaussian", "--multipliers", "1,3"],
            ["track", "--cycles", "10", "--repetitions", "5"],
            ["compare-frequentist", "--runs", "5", "--tau-multipliers", "1,2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_data_cell_parses_as_a_float(self, argv, tmp_path):
        # numpy 2's repr of a numpy float, np.float64(...), is not a number.
        out = tmp_path / "out.csv"
        assert main([*argv, "--output", str(out)]) == 0
        cells = [cell for line in out.read_text().splitlines()[3:] for cell in line.split(",")]
        assert cells and all(math.isfinite(float(cell)) for cell in cells)

    def test_numpy_float_cell_is_written_as_a_number(self):
        scenario = parse_scenario(["estimate", "--output", "out.csv"])
        [(_, text)] = cli._files(scenario, ["a", "b", "c", "d"], [[np.float64(0.1), 0.1, 2, 1e-300]], None)
        assert text.splitlines()[3] == "0.1,0.1,2,1e-300"


class TestOtherCommands:
    def test_validate_gaussian(self, tmp_path):
        out = tmp_path / "val.csv"
        assert (
            main(["validate-gaussian", "--multipliers", "1,3", "--output", str(out)]) == 0
        )
        lines = out.read_text().splitlines()
        assert lines[2].startswith("tau_multiplier,")
        assert len(lines) == 3 + 4  # two multipliers x two outcomes

    def test_track(self, tmp_path):
        out = tmp_path / "track.csv"
        code = main(
            [
                "track",
                "--cycles",
                "40",
                "--repetitions",
                "100",
                "--alpha",
                "0",
                "--beta",
                "1",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 3 + 40
        summary = json.loads((tmp_path / "track.summary.json").read_text())
        assert set(summary["summary"]) == {"feedback", "no_feedback"}

    def test_the_five_commands_at_their_defaults_fit_the_tree_cache(self, tmp_path, monkeypatch):
        # campaign, track and compare-frequentist build one outcome tree each (track reuses its
        # tree every cycle), and the cache keeps all three, so repeated commands build none.
        monkeypatch.setenv("FREQTRACK_OUTDIR", str(tmp_path))
        experiments._outcome_tree.cache_clear()
        for command in COMMANDS:
            assert main([command]) == 0
        info = experiments._outcome_tree.cache_info()
        assert info.misses == info.currsize == 3 < info.maxsize

    def test_compare_frequentist(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main(
            ["compare-frequentist", "--runs", "50", "--tau-multipliers", "1,2", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3 + 2
        header = json.loads(lines[1].removeprefix("# scenario "))
        assert header["params"]["tau_multipliers"] == [1.0, 2.0]
