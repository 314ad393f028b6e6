"""Run-to-run spread of the end-to-end metrics over seeds.

    python3 perfbench/spread.py --workloads controller-loop cli-suite --seeds 1 2 3 4 5

Runs run.py once per workload and seed, one run at a time, and prints for
each end-to-end metric the median, the quartile spread as a share of the
median (statistics.quantiles, n=4) and that spread over the metric's bound
in BENCHMARK.json.  --save keeps the values; --against compares the medians
with a set saved earlier, as a share of the earlier median, worse-signed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from perfbench.stats import quartile_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr[-500:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--save", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    earlier = json.loads(args.against.read_text()) if args.against else {}
    values: dict = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds) for seed in args.seeds]
        values[workload] = {m["name"]: [r[m["name"]] for r in runs] for m in spec["end_to_end"]}
        print(f"{workload}: {len(runs)} runs of {seconds:g} s")
        for m in spec["end_to_end"]:
            xs = values[workload][m["name"]]
            med = statistics.median(xs)
            spread = quartile_spread(xs) if len(xs) >= 2 else float("nan")
            line = (f"  {m['name']:<22} median {med:>14.6g} {m['unit']:<4} spread {spread:7.2%} "
                    f"bound {m['bound']:5.0%} spread/bound {spread / m['bound']:5.2f}")
            if workload in earlier:
                before = statistics.median(earlier[workload][m["name"]])
                sign = 1.0 if m["better"] == "lower" else -1.0
                worse = sign * (med - before) / before
                line += f"  worse than earlier by {worse:+7.2%}"
            print(line, flush=True)
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(values, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
