"""Time one workload's set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <input dir>

The clock starts before syspredict is imported, so the figure is import +
config load + predictor/distortion build, as every new process pays it.
The input dir holds the configs a run of perfbench/run.py wrote.

A fixed pure-Python loop is timed YARDSTICK_RUNS times before the set-up
and as often after it, in the same process. The probe prints
"<set-up seconds> <median loop seconds>", so the caller can divide out the
speed the host gave this process. The loop is pure Python, not numpy,
because it runs before anything is imported: the set-up is mostly module
imports, and its time follows the host's speed as a Python loop's does.
"""

import time

YARDSTICK_RUNS = 8


def yardstick(n=50_000):
    start = time.perf_counter()
    total = 0
    for i in range(n):
        total += (i * 7) % 13
    return time.perf_counter() - start


BEFORE = [yardstick() for _ in range(YARDSTICK_RUNS)]
START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports syspredict)

workloads.SETUP[sys.argv[1]](sys.argv[2])
SETUP_S = time.perf_counter() - START

import statistics  # noqa: E402

AFTER = [yardstick() for _ in range(YARDSTICK_RUNS)]
print(SETUP_S, statistics.median(BEFORE + AFTER))
