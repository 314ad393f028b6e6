"""In-memory span tracing of the freqtrack layers, recorded from outside the package.

A traced run replaces public functions in the freqtrack modules by wrappers
that record one span per call: (name, start_ns, end_ns, parent, run_id).  A
name imported into another module is looked up there at call time, so every
namespace that calls it is patched.  Nothing inside the package changes, and
names a later version drops are skipped.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

#: The package's layers, in call order from the outside in.
LAYERS = ("cli", "experiments", "oracle", "qubitsim", "estimator")

#: Module -> names wrapped in that module's namespace.
WRAPPED = {
    "freqtrack.estimator": ("optimal_tau", "design_probe", "update", "run_estimation"),
    "freqtrack.qubitsim": ("rng_for_run", "initial_state", "step_noise", "sample_outcome"),
    "freqtrack.oracle": (
        "from_gaussian",
        "grid_update",
        "gaussian_fit",
        "kl_divergence",
        "count_local_maxima",
    ),
    "freqtrack.experiments": (
        "optimal_tau",
        "design_probe",
        "update",
        "rng_for_run",
        "initial_state",
        "step_noise",
        "sample_outcome",
        "run_campaign",
        "campaign_runs",
        "gaussian_validity_sweep",
        "closed_loop_track",
        "fit_fringe",
        "frequentist_estimate",
    ),
    "freqtrack.cli": ("optimal_tau", "run_estimation", "sample_outcome"),
}

#: Spans whose positional arguments are kept, to count distinct RNG streams.
RECORD_ARGS = frozenset({"qubitsim.rng_for_run"})

#: Root spans the benchmark opens around one campaign, in-process or via the CLI.
CAMPAIGN_ROOTS = frozenset({"bench.campaign", "cli.campaign"})
COMPARE_ROOT = "cli.compare-frequentist"


def span_name(fn) -> str:
    """'<layer>.<function>' from the module that defines fn."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Collects spans in memory; spans are appended at entry, so parents precede children."""

    def __init__(self):
        self.spans: list = []
        self.args: dict[int, tuple] = {}
        self.run_id = 0
        self._stack: list[int] = []

    def _enter(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _exit(self, idx: int, name: str, start: int, parent: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.run_id)

    def wrap(self, fn):
        name = span_name(fn)
        keep_args = name in RECORD_ARGS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = self._enter()
            if keep_args:
                self.args[idx] = (args, tuple(sorted(kwargs.items())))
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx, name, start, parent)

        return traced

    @contextmanager
    def span(self, name: str, run_id: int):
        """A span opened by the benchmark itself, e.g. around one CLI command."""
        self.run_id = run_id
        idx, parent = self._enter()
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._exit(idx, name, start, parent)

    @contextmanager
    def installed(self):
        """Patch every wrapped name that exists; restore the originals on exit.

        Every module is imported before any is patched: a module first
        imported inside the window would bind the wrappers for good.
        """
        modules = [(importlib.import_module(name), names) for name, names in WRAPPED.items()]
        saved = []
        try:
            for module, names in modules:
                for attr in names:
                    fn = getattr(module, attr, None)
                    if callable(fn):
                        saved.append((module, attr, fn))
                        setattr(module, attr, self.wrap(fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write_jsonl(self, path: Path) -> None:
        """One JSON array per line: [name, start_ns, end_ns, parent index, run id]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the part covered by its direct children [ns]."""
    covered = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, covered)]


def roots(spans) -> list[int]:
    """Index of the outermost ancestor of each span."""
    out = []
    for i, (_, _, _, parent, _) in enumerate(spans):
        out.append(i if parent < 0 else out[parent])
    return out


def by_name(spans, selfs) -> dict[str, tuple[int, int]]:
    """name -> (calls, self time in ns)."""
    acc: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for (name, *_), s in zip(spans, selfs):
        acc[name][0] += 1
        acc[name][1] += s
    return {name: (calls, self_ns) for name, (calls, self_ns) in acc.items()}


def layer_metrics(spans, args: dict[int, tuple], campaign_runs: int) -> dict[str, float]:
    """Per-layer self time and call counts, plus the campaign and compare ratios.

    args holds the recorded arguments of RECORD_ARGS spans by span index.
    campaign_runs is the number of estimation runs made under the campaign
    root spans; ratios over it are 0 when the workload runs no campaign.
    """
    selfs = self_times(spans)
    top = roots(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = 0.0
        out[f"{layer}.calls"] = 0
    for (name, *_), s in zip(spans, selfs):
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            out[f"{layer}.self_ms"] += s / 1e6
            out[f"{layer}.calls"] += 1

    tau_calls = streams = 0
    loop_self_ns = 0
    compare_streams = 0
    compare_keys = set()
    for i, (name, *_) in enumerate(spans):
        root_name = spans[top[i]][0]
        if root_name in CAMPAIGN_ROOTS and i != top[i]:
            tau_calls += name == "estimator.optimal_tau"
            streams += name == "qubitsim.rng_for_run"
            if name.startswith("experiments."):
                loop_self_ns += selfs[i]
        elif root_name == COMPARE_ROOT and name == "qubitsim.rng_for_run":
            compare_streams += 1
            compare_keys.add(args[i])
    per_run = 1.0 / campaign_runs if campaign_runs else 0.0
    out["experiments.loop_self_us_per_run"] = loop_self_ns / 1e3 * per_run
    out["experiments.optimal_tau_calls_per_run"] = tau_calls * per_run
    out["experiments.rng_streams_per_run"] = streams * per_run
    out["experiments.compare_streams_per_unique_run"] = (
        compare_streams / len(compare_keys) if compare_keys else 0.0
    )
    return out
