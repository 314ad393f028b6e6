"""freqtrack benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload campaign-quasistatic --seed 1 --seconds 10 --trace 0

Run from the root of a source tree; the package is imported from ./src.
With --trace 0 the run times the workload untraced for --seconds and reports
the end-to-end metrics of BENCHMARK.json.  With --trace 1 it runs the
workload's reference unit untraced and then traced (spans go to
.bench_out/trace/), measures the layer table and reports the per-layer
metrics and the tracing overhead.  Either way it checks the outputs, prints
their digests and provenance, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# One BLAS/OpenMP thread, set before numpy loads and inherited by every child.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3  # before and again after the timed window


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def git_commit() -> str | None:
    """HEAD of the source tree, or None when it is not a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance() -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def setup_probes(name: str, seed: int, env: dict, count: int) -> list[float]:
    """Set-up times of `count` fresh interpreters [s]."""
    argv = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), name, str(seed)]
    times = []
    for _ in range(count):
        out = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def timed_run(workload, args, env, tally, lines) -> tuple[dict, dict]:
    """Set-up probes on both sides of the window, so a slow stretch of the host hits few."""
    setup_probes(workload.name, args.seed, env, 1)  # warm-up: bytecode caches, file cache
    setups = setup_probes(workload.name, args.seed, env, SETUP_PROBES)
    inputs = workload.setup(args.seed)
    m = workload.measure(inputs, args.seconds, tally)
    setups += setup_probes(workload.name, args.seed, env, SETUP_PROBES)
    lines.extend(m.lines)
    lines.append(f"set-up: median of {len(setups)} fresh interpreters, half before and half after the window")
    return {"setup_s": statistics.median(setups), **m.values}, m.digests


def traced_run(workload, workloads, args, tally, lines) -> tuple[dict, dict]:
    """The reference unit untraced, then traced, then the layer table; --seconds does not apply."""
    from perfbench import layers
    from perfbench.tracing import Tracer, by_name, layer_metrics, self_times

    inputs = workload.setup(args.seed)
    workload.unit(inputs, tally)  # warm-up
    t0 = perf_counter()
    untraced = workload.unit(inputs, tally)
    untraced_s = perf_counter() - t0
    tracer = Tracer()
    with tracer.installed():
        t0 = perf_counter()
        traced = workload.unit(inputs, tally, tracer)
        traced_s = perf_counter() - t0
    span_file = OUT / "trace" / f"{workload.name}-seed{args.seed}.jsonl"
    tracer.write_jsonl(span_file)

    rows = layer_metrics(tracer.spans, tracer.args, workload.unit_runs(inputs))
    rows["trace.untraced_s"] = untraced_s
    rows["trace.traced_s"] = traced_s
    rows["trace.overhead_s"] = traced_s - untraced_s
    rows["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    rows["trace.spans"] = len(tracer.spans)

    cli = workloads["cli-suite"]
    cli_inputs = inputs if workload is cli else cli.setup(args.seed)
    table, cli_digests = layers.measure_all(args.seed, cli, cli_inputs, tally, OUT / f"layers-seed{args.seed}")
    rows.update(table)

    digests = {f"untraced.{k}": v for k, v in untraced.items()}
    digests.update({f"traced.{k}": v for k, v in traced.items()})
    if traced != untraced or None in untraced.values():
        tally.fail(1, "traced output digest differs from the untraced one")
    if workload is cli:
        digests.update({f"subprocess.{k}": v for k, v in cli_digests.items()})
        if cli_digests != untraced:
            tally.fail(1, "in-process CLI output differs from the subprocess output")

    lines.append(f"traced unit: {traced_s:.3f} s traced vs {untraced_s:.3f} s untraced, "
                 f"overhead {rows['trace.overhead_s']:.3f} s ({rows['trace.overhead_frac']:.1%}), "
                 f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")
    lines.append("self time by span name (top 12):")
    ranked = sorted(by_name(tracer.spans, self_times(tracer.spans)).items(), key=lambda kv: -kv[1][1])
    for name, (calls, self_ns) in ranked[:12]:
        lines.append(f"  {name:<40} {calls:>8} calls {self_ns / 1e6:>10.3f} ms self "
                     f"{self_ns / 1e3 / calls:>9.3f} us/call")
    lines.extend(layers.roadmap_lines(table))
    return rows, digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="freqtrack benchmark (one workload, one run)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "freqtrack" / "__init__.py").is_file():
        print(f"perfbench: no freqtrack sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or not args.seconds > 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[0:1] = [str(ROOT), str(SRC)]  # in place of this script's directory

    import freqtrack

    if not Path(freqtrack.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: freqtrack imported from {freqtrack.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench.workloads import Tally, make_workloads

    env = child_env()
    workloads = make_workloads(ROOT, OUT, env)
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {list(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]

    prov = provenance()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    tally = Tally()
    lines: list[str] = []
    if args.trace:
        values, digests = traced_run(workload, workloads, args, tally, lines)
        wanted = spec["per_layer"]
    else:
        values, digests = timed_run(workload, args, env, tally, lines)
        wanted = spec["end_to_end"]
    for line in lines:
        print(line)

    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']:<44} {value:>16.6g} {m['unit']}")
    for name, digest in sorted(digests.items()):
        print(f"digest {name:<32} {digest}")
    print(f"failed_frac {tally.failed_frac:.6g} ({tally.failed} of {tally.attempted} operations)")
    for reason in tally.reasons:
        print(f"failure: {reason}")

    finite = all(math.isfinite(v["value"]) for v in metrics.values())
    if not args.trace:
        finite = finite and all(v["value"] > 0 for v in metrics.values())
    correct = tally.failed == 0 and finite and bool(digests) and None not in digests.values()
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, provenance=prov, digests=digests, failures=tally.reasons)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
