"""Time one workload set-up in a fresh interpreter.

Set-up is everything before the first timed operation: importing numpy and
avfield, building the grid and kernels, and making the workload's inputs.
``run.py`` starts this script several times and reports the median of the
``setup_s`` it prints on its last line:

    python3 perfbench/setup_probe.py <workload> <seed> <scratch dir> <toy 0|1>
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    name, seed, tmp, toy = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), sys.argv[4] == "1"
    workloads.make(name, toy, seed, tmp, reference={}).setup()
    print(json.dumps({"setup_s": time.perf_counter() - T0}))


if __name__ == "__main__":
    main()
