"""The benchmark's own arithmetic: percentiles, span self times and failure counting."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench.stats import percentile, percentile_sorted, quartile_spread
from perfbench.tracing import Tracer, layer_metrics, roots, self_times
from perfbench.workloads import CliSuite, Tally

ROOT = Path(__file__).resolve().parents[2]


class TestPercentiles:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 101, 1000])
    def test_matches_numpy_percentile(self, n):
        values = np.random.default_rng(n).lognormal(size=n).tolist()
        for q in (0, 10, 25, 50, 75, 90, 99, 100):
            assert percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)

    def test_sorted_array_input(self):
        values = np.sort(np.random.default_rng(7).normal(size=500))
        for q in (50, 90):
            assert percentile_sorted(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)

    def test_rejects_empty_sample_and_bad_q(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    @pytest.mark.parametrize("n", [4, 10, 37])
    def test_quartile_spread_matches_numpy(self, n):
        # statistics.quantiles(n=4) interpolates at p * (n + 1): numpy's "weibull" method.
        values = np.random.default_rng(n).lognormal(size=n).tolist()
        q1, q3 = np.percentile(values, [25, 75], method="weibull")
        assert quartile_spread(values) == pytest.approx((q3 - q1) / np.median(values), rel=1e-12)


def span(name, start, end, parent):
    return (name, start, end, parent, 0)


class TestSpans:
    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            span("bench.campaign", 0, 100, -1),
            span("experiments.run_campaign", 10, 90, 0),
            span("qubitsim.rng_for_run", 20, 30, 1),
            span("estimator.optimal_tau", 40, 45, 1),
            span("estimator.optimal_tau", 50, 52, 1),
        ]
        assert self_times(spans) == [20, 63, 10, 5, 2]
        assert roots(spans) == [0, 0, 0, 0, 0]

    def test_campaign_ratios(self):
        spans = [
            span("bench.campaign", 0, 100, -1),
            span("experiments.run_campaign", 10, 90, 0),
            span("qubitsim.rng_for_run", 20, 30, 1),
            span("estimator.optimal_tau", 40, 45, 1),
            span("estimator.optimal_tau", 50, 52, 1),
            span("estimator.optimal_tau", 200, 210, -1),  # outside any campaign
        ]
        out = layer_metrics(spans, {}, campaign_runs=1)
        assert out["experiments.optimal_tau_calls_per_run"] == 2
        assert out["experiments.rng_streams_per_run"] == 1
        assert out["experiments.loop_self_us_per_run"] == pytest.approx(0.063)
        assert out["estimator.calls"] == 3
        assert out["estimator.self_ms"] == pytest.approx(17e-6)
        assert out["oracle.calls"] == 0

    def test_compare_streams_per_unique_run(self):
        spans = [span("cli.compare-frequentist", 0, 100, -1)]
        args = {}
        for k, run in enumerate([0, 1, 0, 1]):
            spans.append(span("qubitsim.rng_for_run", 10 * k + 1, 10 * k + 5, 0))
            args[len(spans) - 1] = ((7, run), ())
        out = layer_metrics(spans, args, campaign_runs=0)
        assert out["experiments.compare_streams_per_unique_run"] == 2.0
        assert out["experiments.optimal_tau_calls_per_run"] == 0.0

    def test_tracer_nests_wrapped_calls(self):
        tracer = Tracer()
        inner = tracer.wrap(lambda: sum(range(100)))
        outer = tracer.wrap(lambda: [inner() for _ in range(3)])
        with tracer.span("bench.unit", run_id=4):
            outer()
        names = [s[0] for s in tracer.spans]
        assert names[0] == "bench.unit" and len(names) == 5
        assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1, 1]
        assert all(s[4] == 4 for s in tracer.spans)
        selfs = self_times(tracer.spans)
        assert min(selfs) >= 0
        root = tracer.spans[0]
        assert sum(selfs) == root[2] - root[1]


    def test_installed_leaves_no_wrapper_behind(self):
        # In a fresh interpreter, so that the window is where the modules are first imported.
        code = (
            "import importlib\n"
            "from perfbench.tracing import WRAPPED, Tracer\n"
            "with Tracer().installed():\n"
            "    pass\n"
            "left = [(m, a) for m, attrs in WRAPPED.items() for a in attrs\n"
            "        if hasattr(getattr(importlib.import_module(m), a, None), '__wrapped__')]\n"
            "assert not left, left\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


class TestFailureCounting:
    def test_raising_operation_fails_its_weight(self):
        tally = Tally()

        def boom():
            raise ArithmeticError("no")

        assert tally.call(3, boom) is None
        assert tally.call(1, lambda: 5) == 5
        assert (tally.attempted, tally.failed) == (4, 3)
        assert tally.failed_frac == 0.75
        assert "ArithmeticError" in tally.reasons[0]

    def test_nonzero_exit_is_one_failed_operation(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        suite = CliSuite(ROOT, tmp_path, env)
        tally = Tally()
        result = suite.command("track", 0, tmp_path, tally, extra=("--cycles", "5"))
        assert result.exit_code != 0
        assert (tally.attempted, tally.failed) == (1, 1)
        assert "exit code" in tally.reasons[0]
