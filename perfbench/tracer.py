"""Span recorder that times syspredict's layers from outside the package.

`Tracer.install` wraps the public functions and the public methods of the
public classes (with their same-module bases) of every layer module, and
rebinds each wrapped function wherever a syspredict module imported it by
name. The layers are the package modules in `LAYERS`; the QR kernel
`_pinball_np.scan` (and the compiled `_pinball.scan`, when built) counts as
`qr`. Nothing is wrapped until `install` runs, so untraced runs carry no
cost, and a disabled tracer only adds one flag test per call.

A span is [id, name, start, end, parent, request, size]: `name` is
"<layer>.<qualname>", `parent` the id of the enclosing span (0 for a request
root), `size` the work the call did (points, rows, terms; 0 when not
measured). Spans live in memory and are written as JSON by `dump`.

Spans nest on one stack: the workloads make every call on the thread that
runs the request (curves-weibull sets PREDICT_THREADS=1, so `cli._over_grid`
starts no pool). A span's self time is its duration less its children's, so
the self times of all layers plus the request roots' own time add up to the
traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("cli", "config", "structure", "distortion", "copula", "marginal",
          "predictor", "montecarlo", "qr")
KERNELS = {"qr": ("_pinball_np", "_pinball")}
ROOT = "bench"  # layer name of the request roots opened by the benchmark


def _points(args, start=1):
    return max((np.size(a) for a in args[start:] if not isinstance(a, str)), default=0)


def _copula_points(args, kwargs, result):
    return np.size(args[-1]) // args[0].n


def _distortion_terms(args, kwargs, result):
    # [raw ordered-expansion terms, merged terms, structural key]
    d = args[0]
    structures = [getattr(d, n) for n in ("structure", "first", "second", "system")
                  if hasattr(d, n)]
    raw = int(np.prod([(1 << s.r) - 1 for s in structures]))
    return [raw, len(d.terms), f"{type(d).__name__}{[s.path_masks for s in structures]}"]


# size of a call by (layer, callable name)
SIZES = {
    ("copula", "eval"): _copula_points,
    ("copula", "partial"): _copula_points,
    ("distortion", "__init__"): _distortion_terms,
    ("marginal", "sf"): lambda a, k, r: np.size(a[1]),
    ("marginal", "inv_sf"): lambda a, k, r: np.size(a[1]),
    ("marginal", "pdf"): lambda a, k, r: np.size(a[1]),
    ("predictor", "mean"): lambda a, k, r: _points(a),
    ("predictor", "quantile"): lambda a, k, r: _points(a),
    ("structure", "lifetime"): lambda a, k, r: np.size(a[1]) // a[0].n,
    ("montecarlo", "simulate"): lambda a, k, r: r.size,
    ("montecarlo", "to_csv"): lambda a, k, r: a[0].size,
    ("montecarlo", "coverage_table"): lambda a, k, r: len(a[0]) * int(a[1]),
    ("qr", "load_xy"): lambda a, k, r: r.shape[0],
    ("qr", "fit_lqr"): lambda a, k, r: len(a[0]),
    ("qr", "scan"): lambda a, k, r: np.size(a[0]),
}
for _m in ("value", "derivative", "d1", "d1_at_zero_plus", "d12", "d12_at_zero_plus",
           "d12_boundary", "boundary_value"):
    SIZES[("distortion", _m)] = lambda a, k, r: _points(a)


def layer_of(name):
    return name.split(".", 1)[0]


def callable_of(name):
    return name.rsplit(".", 1)[1]


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans = []
        self.rid = 0
        self._ids = itertools.count(1)
        self._stack = []
        self._wrapped_classes = set()

    def _open(self, name):
        stack = self._stack
        rec = [next(self._ids), name, 0.0, 0.0, stack[-1][0] if stack else 0, self.rid, 0]
        self.spans.append(rec)
        stack.append(rec)
        rec[2] = perf_counter()
        return rec

    def wrap(self, name, fn):
        size = SIZES.get((layer_of(name), callable_of(name)))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                self._stack.pop()
            if size is not None:
                rec[6] = size(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def request(self, kind, rid):
        """Trace one request: a root span named bench.<kind> on this thread."""
        self.rid = rid
        self.enabled = True
        rec = self._open(f"{ROOT}.{kind}")
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self._stack.pop()
            self.enabled = False

    # -- installation ------------------------------------------------------

    def install(self, package="syspredict"):
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        functions = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    functions[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, mod, obj)
        for layer, kernels in KERNELS.items():
            for kernel in kernels:
                try:
                    mod = importlib.import_module(f"{package}.{kernel}")
                except ImportError:
                    continue
                mod.scan = self.wrap(f"{layer}.{kernel}.scan", mod.scan)
        pkg = importlib.import_module(package)
        namespaces = [pkg] + list(modules.values())
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = functions.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(ns, attr, wrapper)

    def _wrap_class(self, layer, mod, cls):
        for base in cls.__mro__:
            if base.__module__ != mod.__name__ or base in self._wrapped_classes:
                continue
            for attr, obj in list(vars(base).items()):
                public = not attr.startswith("_") or (layer == "distortion"
                                                      and attr == "__init__")
                if public and inspect.isfunction(obj):
                    setattr(base, attr, self.wrap(f"{layer}.{base.__qualname__}.{attr}", obj))
            self._wrapped_classes.add(base)

    # -- output ------------------------------------------------------------

    def dump(self, path, meta, requests):
        spans = [s for s in self.spans if s[5] in requests]
        t0 = min((s[2] for s in spans), default=0.0)
        rows = [[s[0], s[1], round(s[2] - t0, 7), round(s[3] - t0, 7), s[4], s[5], s[6]]
                for s in spans]
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "fields": ["id", "name", "start_s", "end_s", "parent", "request",
                                  "size"],
                       "spans": rows}, fh, separators=(",", ":"))


def self_times(spans):
    """{span id: its duration less its children's durations}."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] in own:
            own[s[4]] -= s[3] - s[2]
    return own


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def _duration(span):
    return span[3] - span[2]


def _rate(spans):
    seconds = sum(_duration(s) for s in spans)
    return sum(s[6] for s in spans) / seconds if seconds > 0 else 0.0


def layer_metrics(spans, pass_ids, count, sweep_ids):
    """Per-layer metrics from the spans of a traced run.

    `pass_ids` are the request ids of the `count` traced passes, which the
    per-pass figures average over; `sweep_ids` those of the QR n-sweep.
    Self times come from `self_times`, other times are span durations;
    per-call figures are medians over every traced call, set-up included.
    """
    own = self_times(spans)
    in_pass = [s for s in spans if s[5] in pass_ids]
    by_id = {s[0]: s for s in spans}

    def named(pool, layer, *callables):
        return [s for s in pool if layer_of(s[1]) == layer
                and (not callables or callable_of(s[1]) in callables)]

    def outermost(pool, layer, fn):
        return [s for s in named(pool, layer, fn)
                if not _has_ancestor(s, by_id, layer, fn)]

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own.get(s[0], 0.0) for s in named(in_pass, layer)) / count

    m["config.load_s"] = _median([_duration(s) for s in named(spans, "config", "load_config")])
    m["config.predictor_from_s"] = _median(
        [_duration(s) for s in named(spans, "config", "predictor_from")])
    m["structure.validate_s"] = _median(
        [_duration(s) for s in named(spans, "structure", "validate_structure")])
    m["structure.lifetime_rows_per_s"] = _rate(named(in_pass, "structure", "lifetime"))

    builds = outermost(spans, "distortion", "__init__")
    distinct = {s[6][2]: s[6] for s in builds if s[6]}
    m["distortion.build_s"] = _median([_duration(s) for s in builds])
    m["distortion.raw_terms"] = sum(v[0] for v in distinct.values())
    m["distortion.merged_terms"] = sum(v[1] for v in distinct.values())
    dcalls = [s for s in named(in_pass, "distortion") if callable_of(s[1]) != "__init__"]
    m["distortion.calls"] = len(dcalls) / count
    m["distortion.points_per_call"] = (sum(s[6] for s in dcalls) / len(dcalls)
                                       if dcalls else 0.0)

    ccalls = named(in_pass, "copula", "eval", "partial")
    m["copula.calls"] = len(ccalls) / count
    m["copula.points_per_call"] = sum(s[6] for s in ccalls) / len(ccalls) if ccalls else 0.0
    m["marginal.calls"] = len(named(in_pass, "marginal", "sf", "inv_sf", "pdf")) / count

    quantiles = outermost(in_pass, "predictor", "quantile")
    under_q = [s for s in dcalls if _has_ancestor(s, by_id, "predictor", "quantile")]
    m["predictor.quantile_calls"] = len(quantiles) / count
    m["predictor.quantile_s"] = sum(_duration(s) for s in quantiles) / count
    m["predictor.distortion_calls_per_quantile"] = (len(under_q) / len(quantiles)
                                                    if quantiles else 0.0)
    means = outermost(in_pass, "predictor", "mean")
    points = sum(s[6] for s in means)
    pdfs = [s for s in named(in_pass, "marginal", "pdf")
            if _has_ancestor(s, by_id, "predictor", "mean")]
    m["predictor.mean_points"] = points / count
    m["predictor.mean_s"] = sum(_duration(s) for s in means) / count
    m["predictor.integrand_evals_per_point"] = len(pdfs) / points if points else 0.0

    m["montecarlo.sample_rows_per_s"] = _rate(named(in_pass, "montecarlo", "simulate"))
    m["montecarlo.csv_write_rows_per_s"] = _rate(named(in_pass, "montecarlo", "to_csv"))
    m["montecarlo.coverage_reps_per_s"] = _rate(
        named(in_pass, "montecarlo", "coverage_table"))

    fits = named(in_pass, "qr", "fit_lqr")
    n = fits[0][6] if fits else 0
    m["qr.load_xy_rows_per_s"] = _rate(named(in_pass, "qr", "load_xy"))
    m["qr.fit_lqr_s"] = _median([_duration(s) for s in fits])
    m["qr.candidates"] = n * (n - 1) // 2 + n
    swept = [s for s in named(spans, "qr", "fit_lqr") if s[5] in sweep_ids]
    for size in SWEEP_SIZES:
        m[f"qr.fit_lqr_s.n{size}"] = _median([_duration(s) for s in swept if s[6] == size])

    roots = [s for s in in_pass if layer_of(s[1]) == ROOT]
    wall = sum(s[3] - s[2] for s in roots)
    m["trace.wall_s"] = wall / count
    m["trace.residual_frac"] = sum(own.get(s[0], 0.0) for s in roots) / wall if wall else 0.0
    return m


SWEEP_SIZES = (200, 400, 800)


def _has_ancestor(span, by_id, layer, fn):
    parent = by_id.get(span[4])
    while parent is not None:
        if layer_of(parent[1]) == layer and callable_of(parent[1]) == fn:
            return True
        parent = by_id.get(parent[4])
    return False
