"""Command-line interface: scenario resolution, outputs, exit codes."""

import json
import math

import pytest

from freqtrack import experiments
from freqtrack.cli import (
    ScenarioError,
    main,
    parse_scenario,
    read_header,
    resolve_scenario,
)


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

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bananas": 1}))
        with pytest.raises(ScenarioError):
            parse_scenario(["estimate", "--config", str(cfg)])

    @pytest.mark.parametrize(
        "config",
        [{"runs": 40.9}, {"n": 2.5}, {"runs": 40.0}, {"runs": True}, {"seed": 1.5}],
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
            # sigma0**2 or sigma0**4 underflows to 0 or overflows, or sigma0**4 is subnormal
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
        ],
    )
    def test_out_of_bounds_exits_1_before_writing(self, argv, tmp_path, capsys):
        assert main([*argv, "--output", str(tmp_path / "out.csv")]) == 1
        assert "freqtrack:" in capsys.readouterr().err
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
        # sigma0**4 is normal, but one ideal step takes it below the smallest normal double.
        argv = ["estimate", "--sigma0", "1.3e-77", "--alpha", "0", "--beta", "1"]
        assert main([*argv, "--coherence-time", "inf", "--output", str(tmp_path / "e.csv")]) == 2
        assert "subnormal" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_largest_seed_accepted(self, tmp_path):
        out = tmp_path / "c.csv"
        argv = ["campaign", "--runs", "3", "--n", "2", "--seed", str(2**128 - 1)]
        assert main([*argv, "--output", str(out)]) == 0
        assert read_header(str(out))["seed"] == 2**128 - 1

    def test_failed_fit_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # Every result is computed before the first file is written.
        def fail(record):
            raise experiments.FitError("no convergence")

        monkeypatch.setattr(experiments, "fit_fringe", fail)
        argv = ["track", "--cycles", "10", "--repetitions", "5"]
        assert main([*argv, "--output", str(tmp_path / "track.csv")]) == 2
        assert "no convergence" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

        header = read_header(str(out))
        assert header["command"] == "estimate"
        assert header["seed"] == 5
        assert header["params"]["n"] == 12

    def test_json_format(self, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["estimate", "--n", "4", "--format", "json", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["columns"][0] == "step"
        assert len(doc["rows"]) == 4
        assert read_header(str(out))["params"]["n"] == 4

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert main(["estimate", "--n", "15", "--seed", "3", "--output", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

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

    def test_compare_frequentist(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main(
            ["compare-frequentist", "--runs", "50", "--tau-multipliers", "1,2", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3 + 2
        header = read_header(str(out))
        assert header["params"]["tau_multipliers"] == [1.0, 2.0]
