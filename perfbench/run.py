"""syspredict benchmark: one workload, one seed, one run.

Usage (from the repository root):
  python3 perfbench/run.py --workload {curves-weibull,predict-kofn,sample-fit}
                           --seed N --seconds S --trace {0,1}

The run imports the package from ./src, writes the workload's seeded inputs
under perfbench/out/<workload>/, and issues the workload's requests one at a
time (one closed-loop client, no other load): a first pass in full, then
more requests until the next one would end after S seconds. Each output is
checked by the oracles in gate.py right after its request; only requests
that pass count towards the timings, and the others count as failed.

--trace 0 reports the end-to-end metrics: setup_s (median of fresh-process
set-ups, each divided by a pure-Python loop timed in its own process and
scaled to SETUP_YARDSTICK_REF_S), p50_norm_geomean and peak_rss_mb.
p50_norm_geomean is the geometric mean, over the workload's request kinds,
of each kind's median latency in yardsticks: each request is divided by
the median run of a fixed computation timed right before and right after
it. The host switches between a fast and a slow speed for seconds to
minutes at a time; the ratio cancels that, which the raw latencies cannot
(see README.md). The raw per-kind figures (curve_points_per_s,
predict1_ms_p50, ...), the normalized per-kind medians, the yardstick times
and failed_frac are printed above the result line and kept in the run
record.

--trace 1 wraps the package's layers (tracer.py) and runs every pass twice
on the same inputs, untraced and then traced, so trace.overhead_frac
compares like with like; it reports the per-layer metrics. The spans are
written to perfbench/out/<workload>/trace.json.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics": {name: {"value", "unit"}}}. The run record (machine, versions,
QR lane, thread count, commit, seed, sample counts) goes to
perfbench/out/<workload>/record.json and is echoed on the line before.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
YARDSTICK_SHARE = 0.1  # of each untraced request's time, spent on the yardsticks
SETUP_YARDSTICK_REF_S = 0.004  # setup_probe.yardstick seconds of the speed setup_s is scaled to

# per-kind figures a user of each request kind reads: (name, unit, from p50 seconds)
STAGE_METRICS = {
    "curves": ("curve_points_per_s", "points/s", lambda work, p50: work / p50),
    "predict1": ("predict1_ms_p50", "ms", lambda work, p50: 1e3 * p50),
    "predict2": ("predict2_ms_p50", "ms", lambda work, p50: 1e3 * p50),
    "simulate": ("sim_rows_per_s", "rows/s", lambda work, p50: work / p50),
    "fitqr": ("fit_s", "s", lambda work, p50: p50),
    "coverage": ("coverage_reps_per_s", "reps/s", lambda work, p50: work / p50),
}


def yardstick(rounds=500):
    """A fixed computation that uses nothing from syspredict.

    Small-array numpy calls driven from Python, the operation mix of the
    package's copula and distortion loops; 9-17 ms on the host the benchmark
    was built on. Its time follows the speed the host gives this process,
    not the program under test.
    """
    import numpy as np
    u = np.full((1, 4), 0.5)
    total = 0.0
    for _ in range(rounds):
        if np.any(u < 0) or np.any(u > 1):
            raise ValueError("yardstick input left [0, 1]")
        total += float(np.prod(u[..., [0, 2, 3]], axis=-1)[0]
                       + 0.5 * np.prod(1.0 - 2.0 * u[..., [1]], axis=-1)[0])
    return total


@functools.cache
def _lines(n=400, block=2048):
    import numpy as np
    x = np.linspace(0.0, 3.0, n)
    y = x + np.cos(7.0 * x) ** 2
    a = np.linspace(-1.0, 1.0, block)
    return x, y, a, np.sqrt(np.abs(a))


def vector_yardstick(blocks=2):
    """A fixed large-array numpy computation that uses nothing from syspredict.

    Pinball losses of 2048 lines on 400 points, `blocks` times: the
    residual-matrix arithmetic of the QR candidate scan, about as long as
    `yardstick`. The host's slow spells slow it less than `yardstick`, as
    they slow the scan less than the copula loops.
    """
    import numpy as np
    x, y, a, b = _lines()
    total = 0.0
    for k in range(blocks):
        resid = y[None, :] - a[:, None] - (b[:, None] + k) * x[None, :]
        total += float(np.min(np.sum(resid * (0.5 - (resid < 0.0)), axis=1)))
    return total


YARDSTICKS = {"interp": yardstick, "vector": vector_yardstick}


def time_yardsticks(kinds, seconds):
    """{kind: [seconds, ...]}: the named yardsticks in turn, each twice at
    least, for `seconds` in all."""
    out = {k: [] for k in kinds}
    start = perf_counter()
    while (min(len(v) for v in out.values()) < 2
           or perf_counter() - start < seconds):
        for k in kinds:
            t = perf_counter()
            YARDSTICKS[k]()
            out[k].append(perf_counter() - t)
    return out


class Ledger:
    """Attempted and failed requests, their timings and the first output per key."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.samples = {}           # kind -> seconds of passed untraced requests
        self.all_samples = {}       # kind -> seconds of every untraced request
        self.groups = {}            # kind -> yardstick group before each passed request
        self.traced = [0.0, 0.0]    # summed seconds of [untraced, traced] matched requests
        self.yardstick = []         # {stick: [seconds]} before each request, and one at the end
        self.setup = []             # (set-up seconds, loop seconds) of each set-up probe
        self._seen = {}             # key -> (output, passed)

    def check(self, workload, request, output):
        seen = self._seen.get(request.key)
        if seen is None:
            failures = workload.check(request, output)
            self._seen[request.key] = (output, not failures)
            return failures
        if output != seen[0]:
            return [f"{request.key}: output differs from an earlier request with the same inputs"]
        return [] if seen[1] else [f"{request.key}: repeats an output that failed its check"]

    def record(self, kind, seconds, traced, failures):
        self.attempted += 1
        self.failed += bool(failures)
        self.failures += [f"{kind}: {f}" for f in failures]
        if not traced:
            self.all_samples.setdefault(kind, []).append(seconds)
            if not failures:
                self.samples.setdefault(kind, []).append(seconds)
                self.groups.setdefault(kind, []).append(len(self.yardstick) - 1)

    def normalized(self, kind, stick):
        """Passed untraced requests of `kind`, each divided by the median
        run of the `stick` yardstick in the groups right before and right
        after it."""
        sticks = [group[stick] for group in self.yardstick]
        return [seconds / statistics.median(sticks[g] + sticks[g + 1])
                for seconds, g in zip(self.samples.get(kind, ()), self.groups.get(kind, ()))]

    def timings(self, kind):
        # failed requests count only when no request of the kind passed
        return self.samples.get(kind) or self.all_samples.get(kind) or [math.nan]


def _request(workload, ledger, request, tracer=None, rid=0):
    """Run and check one request; returns (seconds, failures)."""
    import workloads
    ctx = tracer.request(request.kind, rid) if tracer else nullcontext()
    start = perf_counter()
    try:
        with ctx:
            output = request.fn()
        seconds = perf_counter() - start
        failures = ledger.check(workload, request, output)
    except workloads.RequestFailed as exc:
        seconds = perf_counter() - start
        failures = [str(exc)]
    return seconds, failures


def stick_of(workload, kind):
    """The yardstick a request kind is divided by ("interp" unless the
    workload names another in its `yardsticks`)."""
    return getattr(workload, "yardsticks", {}).get(kind, "interp")


def measure(workload, seconds, ledger):
    """Untraced requests until the next one would end after `seconds`.

    The first pass runs in full. After it, the next request is expected to
    take as long as the last one of its kind (checks after the first pass
    are cheap), plus its yardsticks. Each request follows a group of
    yardstick runs, and one more group follows the last request.
    """
    start = perf_counter()
    sticks = sorted({stick_of(workload, kind) for kind in workload.kinds})
    index = 0
    last = 0.0
    while True:
        for request in workload.pass_requests(index):
            ledger.yardstick.append(time_yardsticks(sticks, YARDSTICK_SHARE * last))
            if index:
                expected = (1.0 + YARDSTICK_SHARE) * ledger.all_samples[request.kind][-1]
                if perf_counter() - start + expected > seconds:
                    return
            dt, failures = _request(workload, ledger, request)
            ledger.record(request.kind, dt, False, failures)
            last = dt
        index += 1


def measure_traced(workload, seconds, ledger, tracer):
    """Passes of requests until the next one would end after `seconds`.

    Each pass runs untraced and then traced on the same inputs. The next
    pass is expected to take as long as the last pass's requests. At least
    one pass runs. Returns the pass count and the traced requests' ids.
    """
    start = perf_counter()
    traced_ids = []
    index = 0
    while True:
        busy = 0.0
        for traced in (False, True):
            for request in workload.pass_requests(index):
                rid = ledger.attempted + 1
                dt, failures = _request(workload, ledger, request,
                                        tracer if traced else None, rid)
                ledger.record(request.kind, dt, traced, failures)
                busy += dt
                ledger.traced[traced] += dt
                if traced:
                    traced_ids.append(rid)
        index += 1
        if perf_counter() - start + busy > seconds:
            return index, traced_ids


def probe_setup(name, out_dir, count):
    """(set-up seconds, median setup_probe.yardstick seconds) of `count`
    fresh interpreters, one after another."""
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name,
                               str(out_dir)], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        seconds, yard = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(seconds), float(yard)))
    return samples


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable: not a git checkout"


def predict_threads():
    """Worker count the CLI resolves from PREDICT_THREADS (1 once it has no pool)."""
    from syspredict import cli
    thread_count = getattr(cli, "thread_count", None)
    return thread_count() if thread_count else 1


def run_record(workload, seed, seconds, trace, ledger):
    import numpy
    import scipy
    from syspredict import qr
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "qr_lane": "compiled" if getattr(qr, "HAVE_COMPILED", False) else "numpy",
        "predict_threads": predict_threads(),
        "commit": git_commit(),
        "samples": {k: len(v) for k, v in ledger.samples.items()},
        "timings_s": ledger.samples,
        "yardstick_s": ledger.yardstick,
        "yardstick_groups": ledger.groups,
        "setup_probes_s": ledger.setup,
        "notes": getattr(workload, "notes", {}),
        "failures": ledger.failures[:20],
    }


def end_to_end(workload, ledger):
    """(gated metrics, per-kind figures), each {name: (value, unit, samples)}."""
    p50 = {kind: statistics.median(ledger.timings(kind)) for kind in workload.kinds}
    norm = {kind: statistics.median(ledger.normalized(kind, stick_of(workload, kind))
                                    or [math.nan])
            for kind in workload.kinds}
    counts = {kind: len(ledger.samples.get(kind, ())) for kind in workload.kinds}
    # each probe's set-up over its own yardstick time, scaled to the reference speed
    setup = [SETUP_YARDSTICK_REF_S * seconds / yard for seconds, yard in ledger.setup]
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "p50_norm_geomean": (math.exp(statistics.fmean(math.log(v) for v in norm.values())),
                             "yardsticks", min(counts.values())),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    stages = {}
    for kind in workload.kinds:
        name, unit, fn = STAGE_METRICS[kind]
        stages[name] = (fn(workload.work[kind], p50[kind]), unit, counts[kind])
        stages[f"{kind}_norm_p50"] = (norm[kind], "yardsticks", counts[kind])
    for stick in ledger.yardstick[0]:
        runs = [t for group in ledger.yardstick for t in group[stick]]
        stages[f"{stick}_yardstick_ms"] = (1e3 * statistics.median(runs), "ms", len(runs))
    stages["setup_raw_s"] = (statistics.median(s for s, _ in ledger.setup), "s",
                             len(ledger.setup))
    stages["setup_yardstick_ms"] = (1e3 * statistics.median(y for _, y in ledger.setup),
                                    "ms", len(ledger.setup))
    stages["failed_frac"] = (ledger.failed / ledger.attempted, "ratio", ledger.attempted)
    return metrics, stages


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def run(name, seed, seconds, trace, sizes=None, probes=SETUP_PROBES, out_root=None):
    """One benchmark run; returns (result, record)."""
    import workloads
    out_dir = Path(out_root or HERE / "out") / name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](seed, out_dir, sizes or workloads.FULL)
    ledger = Ledger()
    if not trace:
        ledger.setup = probe_setup(name, out_dir, probes)
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    with tracer.request("setup", 0) if tracer else nullcontext():
        workload.setup()
    workload.prepare_oracles()
    if trace:
        passes, traced_ids = measure_traced(workload, seconds, ledger, tracer)
    else:
        measure(workload, seconds, ledger)

    declared = declared_metrics(trace)
    if trace:
        sweep_ids = []
        for request in getattr(workload, "sweep_requests", lambda seed: [])(seed):
            rid = ledger.attempted + 1
            dt, failures = _request(workload, ledger, request, tracer, rid)
            ledger.record(request.kind, dt, True, failures)
            sweep_ids.append(rid)
        layer = tracing.layer_metrics(tracer.spans, set(traced_ids), passes, set(sweep_ids))
        layer["cli.threads"] = predict_threads()
        untraced, traced = ledger.traced
        layer["trace.overhead_frac"] = traced / untraced - 1.0
        shown = {k: (layer[k], unit, passes) for k, unit in declared.items()}
        tracer.dump(out_dir / "trace.json", {"workload": name, "seed": seed},
                    {0, *traced_ids, *sweep_ids})
    else:
        e2e, stages = end_to_end(workload, ledger)
        shown = {**e2e, **stages}

    record = run_record(workload, seed, seconds, trace, ledger)
    record["metrics"] = {k: {"value": v, "unit": u, "samples": n}
                         for k, (v, u, n) in shown.items()}
    with open(out_dir / "record.json", "w") as fh:
        json.dump(record, fh, indent=1)
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": shown[k][0], "unit": unit} for k, unit in declared.items()},
    }
    return result, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["curves-weibull", "predict-kofn", "sample-fit"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    os.environ.pop("PREDICT_THREADS", None)  # left unset, as users leave it
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import syspredict
        import workloads  # noqa: F401
    except ImportError as exc:
        print(f"cannot import syspredict from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(syspredict.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"syspredict was imported from {syspredict.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in record["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}  (n={m['samples']})")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    bulky = ("metrics", "timings_s", "yardstick_s", "yardstick_groups", "setup_probes_s")
    print("record: " + json.dumps({k: v for k, v in record.items() if k not in bulky}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
