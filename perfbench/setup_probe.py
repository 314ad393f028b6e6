"""Set-up time of one workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds from interpreter start of this script to the end of the
workload's set-up: the modules it imports plus the construction of its inputs.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from perfbench.workloads import make_workloads  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    make_workloads(ROOT, ROOT / ".bench_out", dict(os.environ))[name].setup(seed)
    print(time.perf_counter() - START)
    return 0


if __name__ == "__main__":
    sys.exit(main())
