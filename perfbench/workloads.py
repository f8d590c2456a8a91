"""The three benchmark workloads: seeded inputs, set-up and timed requests.

Every workload writes its own run configs into an output directory. They
are copies of the shipped designs, with the sizes in `Sizes`. `SETUP[name]`
is what a user does before the first request: import, config load, and the
predictor/distortion build. It is also what `setup_probe.py` times in fresh
processes. A workload object then hands out passes of requests, each a
`Request(kind, key, fn)`; `fn()` does one user-visible operation through
`syspredict.cli.main` or the public predictor API and returns its output.
`check(request, output)` runs the seed-independent oracles of gate.py on it.
Requests with equal keys have equal inputs, so their outputs must be equal.

Inputs come only from the workload seed. Conditioning times stay inside the
ranges of the shipped configs (t <= 3), well short of the large-t underflow
region of the z-space solver, so the gate says nothing about that region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import functools
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import syspredict  # noqa: F401  (part of the timed set-up)
from syspredict import cli, config, copula, marginal, qr
from syspredict.errors import SysPredictError


@dataclass(frozen=True)
class Sizes:
    grid_points: int = 31          # curves-weibull grid on [0, 3]
    requests: int = 20             # predict-kofn pool, per request kind
    sim_rows: int = 100_000        # sample-fit simulate
    fit_rows: int = 400            # sample-fit fitqr sample
    coverage_reps: int = 1000      # per k, as in configs/coverage.json


FULL = Sizes()
SMOKE = Sizes(grid_points=3, requests=2, sim_rows=2000, fit_rows=40, coverage_reps=20)


@dataclass(frozen=True)
class Request:
    kind: str
    key: tuple
    fn: Callable


class RequestFailed(Exception):
    """A request ended with an error the user would see (exit code or SysPredictError)."""


def _rng(seed, tag):
    return np.random.default_rng([int(seed), tag])


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def run_cli(argv):
    """cli.main with its console output captured; a non-zero exit is a failure."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RequestFailed(f"syspredict {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _structures(doc):
    return {name: s["paths"] for name, s in doc["structures"].items()}


# -- shipped designs ---------------------------------------------------------

RELAY_WEIBULL = {
    "mode": "strict",
    "structures": {
        "first": {"n": 3, "paths": [[1, 2, 3]]},
        "system": {"n": 3, "paths": [[1], [2, 3]]},
    },
    "copula": {"family": "fgm", "n": 3, "theta": 1.0},
    "marginal": {"family": "weibull", "shape": 1.5, "scale": 1.0},
    "band_kind": "centered",
}

_TWO_OF_FOUR = [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]
_THREE_OF_FOUR = [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]
KOFN_COPULA = {"family": "fgm", "n": 4, "theta": 0.5}
KOFN_ONE = {
    "mode": "strict",
    "structures": {
        "first": {"n": 4, "paths": [[1, 2, 3, 4]]},
        "system": {"n": 4, "paths": _TWO_OF_FOUR},
    },
    "copula": KOFN_COPULA,
    "marginal": {"family": "exponential", "mean": 1.0},
}
KOFN_TWO = {
    "mode": "two_failures",
    "structures": {
        "first": {"n": 4, "paths": [[1, 2, 3, 4]]},
        "second": {"n": 4, "paths": _THREE_OF_FOUR},
        "system": {"n": 4, "paths": _TWO_OF_FOUR},
    },
    "copula": KOFN_COPULA,
    "marginal": {"family": "exponential", "mean": 1.0},
}

GATE_DESIGN = {
    "mode": "weak",
    "structures": {
        "first": {"n": 3, "paths": [[1, 2, 3]]},
        "system": {"n": 3, "paths": [[1, 2], [1, 3]]},
    },
    "copula": {"family": "fgm", "n": 3, "theta": 1.0},
    "marginal": {"family": "exponential", "mean": 1.0},
}
FIT_TAUS = [0.25, 0.5, 0.75]
COVERAGE_K = [1, 5, 10, 25, 50, 100]


# -- set-up (timed by setup_s) -----------------------------------------------

def setup_curves(d):
    cfg = config.load_config(Path(d) / "curves.json")
    return {"cfg": cfg, "predictor": config.predictor_from(cfg)}


def setup_predict(d):
    cfgs = [config.load_config(Path(d) / f"predict{i}.json") for i in (1, 2)]
    return {"cfgs": cfgs, "predictors": [config.predictor_from(c) for c in cfgs]}


def setup_sample(d):
    cfgs = {name: config.load_config(Path(d) / f"{name}.json")
            for name in ("simulate", "fitsample", "fitqr", "coverage")}
    sim = cfgs["simulate"]
    # the objects `simulate` builds before it samples
    built = {
        "copula": copula.copula_from_config(sim["copula"]),
        "marginal": marginal.marginal_from_config(sim["marginal"]),
        "structures": {w: config.structure_from(sim, w) for w in ("first", "system")},
    }
    return {"cfgs": cfgs, "built": built}


SETUP = {"curves-weibull": setup_curves, "predict-kofn": setup_predict,
         "sample-fit": setup_sample}


# -- workloads ---------------------------------------------------------------

class CurvesWeibull:
    """`curves` on the strict relay system, FGM(1), Weibull(1.5, 1), 31 points.

    The grid is stratified: one uniform draw in each of 31 equal cells of
    [0, 3], so every seed covers the range alike. A pass tabulates the grid
    in CHUNKS `curves` commands of every CHUNKS-th point (2 points each, 1
    in the last, spread over the whole range, so the commands cost alike),
    each one vector grid, with PREDICT_THREADS=1. On a shared 2-vCPU host
    the yardstick runs between requests (run.py) followed the host's speed
    only for short single-threaded requests: one 31-point command takes
    10-18 s, and with the default pool two threads contend for the GIL;
    either way ten runs spread 0.16-0.20, against 0.03 for predict-kofn.
    """

    name = "curves-weibull"
    kinds = ("curves",)
    CHUNKS = 16

    def __init__(self, seed, out_dir, sizes=FULL):
        self.dir = Path(out_dir)
        g = sizes.grid_points
        rng = _rng(seed, 1)
        self.grid = np.sort((np.arange(g) + rng.random(g)) * 3.0 / g)
        os.environ["PREDICT_THREADS"] = "1"
        _write_json(self.dir / "curves.json", dict(RELAY_WEIBULL, grid=self.grid.tolist()))
        self.chunks = [np.arange(i, g, self.CHUNKS) for i in range(min(self.CHUNKS, g))]
        for i, idx in enumerate(self.chunks):
            _write_json(self.dir / f"curves{i}.json",
                        dict(RELAY_WEIBULL, grid=self.grid[idx].tolist(),
                             out=str(self.dir / f"curves{i}.csv")))
        self.work = {"curves": len(self.chunks[0])}

    def setup(self):
        self.state = setup_curves(self.dir)

    def prepare_oracles(self):
        import gate
        self.oracle_mean = gate.mean_oracle(self.state["predictor"], (self.grid,))

    def pass_requests(self, index):
        return [Request("curves", ("curves", i), functools.partial(self._curves, i))
                for i in range(len(self.chunks))]

    def _curves(self, i):
        run_cli(["curves", "--config", str(self.dir / f"curves{i}.json")])
        return file_digest(self.dir / f"curves{i}.csv")

    def check(self, request, output):
        import gate
        i = request.key[1]
        idx = self.chunks[i]
        return gate.check_curves_csv(self.dir / f"curves{i}.csv", self.state["predictor"],
                                     self.grid[idx], self.oracle_mean[idx])


class PredictKofn:
    """Scalar `predict` requests on 4-component k-of-n designs, FGM(0.5), Exp(1).

    predict1: strict 2-of-4 from the first failure (11 merged terms).
    predict2: 2-of-4 from the first two failures, second = 3-of-4 (23 terms).
    Requests alternate 1, 2, 1, 2, ... over a seeded pool of conditioning
    points drawn from the components' joint law, stratified by rank of the
    conditioning time, and cycle when the pool is used up.
    """

    name = "predict-kofn"
    kinds = ("predict1", "predict2")
    LEVELS = (0.25, 0.5, 0.75)

    def __init__(self, seed, out_dir, sizes=FULL):
        self.dir = Path(out_dir)
        n = sizes.requests
        rng = _rng(seed, 2)
        times = np.sort(self._component_times(rng, 16 * n), axis=1)
        self.pool1 = self._stratified(rng, times[:, :1], n)
        self.pool2 = self._stratified(rng, times[:, :2], n)
        for i, doc in ((1, KOFN_ONE), (2, KOFN_TWO)):
            _write_json(self.dir / f"predict{i}.json", doc)
        self.work = {"predict1": 1, "predict2": 1}

    @staticmethod
    def _component_times(rng, rows):
        # FGM survival uniforms: the first n-1 coordinates are independent,
        # the last solves its conditional CDF a v^2 - (1+a) v + w = 0
        theta, n = KOFN_COPULA["theta"], KOFN_COPULA["n"]
        u = rng.random((rows, n))
        a = theta * np.prod(1.0 - 2.0 * u[:, :-1], axis=1)
        w = u[:, -1]
        u[:, -1] = 2.0 * w / (1.0 + a + np.sqrt((1.0 + a) ** 2 - 4.0 * w * a))
        return -np.log(u)

    @staticmethod
    def _stratified(rng, cond, n):
        # one draw from each of n equal-count bins of the last conditioning time
        order = np.argsort(cond[:, -1], kind="stable")
        bins = np.array_split(order, n)
        picks = np.array([b[rng.integers(b.size)] for b in bins])
        return cond[rng.permutation(picks)]

    def setup(self):
        self.state = setup_predict(self.dir)

    def prepare_oracles(self):
        import gate
        p1, p2 = self.state["predictors"]
        self.oracle_mean = {
            "predict1": gate.mean_oracle(p1, tuple(self.pool1.T)),
            "predict2": gate.mean_oracle(p2, tuple(self.pool2.T)),
        }

    def pass_requests(self, index):
        j = index % len(self.pool1)
        p1, p2 = self.state["predictors"]
        return [
            Request("predict1", ("predict1", j), lambda: self._predict(p1, self.pool1[j])),
            Request("predict2", ("predict2", j), lambda: self._predict(p2, self.pool2[j])),
        ]

    def _predict(self, predictor, cond):
        # the calls cmd_predict makes: quantiles, centered 50%/90% bands, mean
        cond = tuple(float(c) for c in cond)
        try:
            out = [predictor.quantile(w, *cond) for w in self.LEVELS]
            for level in (0.5, 0.9):
                band = predictor.band("centered", level)
                out += [band.lower(*cond), band.upper(*cond)]
            out.append(predictor.mean(*cond))
        except SysPredictError as exc:
            raise RequestFailed(f"{type(exc).__name__}: {exc}") from exc
        return tuple(float(v) for v in out)

    def check(self, request, output):
        import gate
        kind, j = request.key
        predictor = self.state["predictors"][0 if kind == "predict1" else 1]
        pool = self.pool1 if kind == "predict1" else self.pool2
        return gate.check_prediction(predictor, tuple(pool[j]), output,
                                     self.oracle_mean[kind][j])


class SampleFit:
    """`simulate`, `fitqr` and `coverage` on the weak-ordering gate design.

    simulate writes sim_rows rows; fitqr fits taus 0.25/0.5/0.75 plus OLS to
    a separate seeded fit_rows sample; coverage runs the shipped experiment
    (k = 1..100, 1000 replications each) twice per pass, and the two CSVs
    must be identical. The sizes are below the 1,000,000 rows and n = 800
    this workload first used, so that a run holds about ten passes: at those
    sizes a pass took 16 s, a run held one request of each kind, and ten
    runs spread 0.08.
    """

    name = "sample-fit"
    kinds = ("simulate", "fitqr", "coverage")
    # the yardstick whose slowdown in the host's slow spells matches the
    # kind's own (README.md); the others are divided by run.yardstick
    yardsticks = {"simulate": "vector", "fitqr": "vector"}

    def __init__(self, seed, out_dir, sizes=FULL):
        self.dir = d = Path(out_dir)
        rng = _rng(seed, 3)
        sim_seed, fit_seed, cov_seed = (int(s) for s in rng.integers(0, 2**31, 3))
        self.paths = {name: d / f"{name}.csv"
                      for name in ("simulate", "fitsample", "fitqr", "coverage")}
        self.sizes = sizes
        _write_json(d / "simulate.json", dict(GATE_DESIGN, size=sizes.sim_rows,
                                              seed=sim_seed, out=str(self.paths["simulate"])))
        _write_json(d / "fitsample.json", dict(GATE_DESIGN, size=sizes.fit_rows,
                                               seed=fit_seed, out=str(self.paths["fitsample"])))
        _write_json(d / "fitqr.json", {
            "fitqr": {"sample": str(self.paths["fitsample"]), "x": "t1", "y": "t",
                      "taus": FIT_TAUS, "ols": True},
            "out": str(self.paths["fitqr"]),
        })
        _write_json(d / "coverage.json", {
            "coverage": {"k": COVERAGE_K, "replications": sizes.coverage_reps},
            "seed": cov_seed, "out": str(self.paths["coverage"]),
        })
        self.notes = {}
        self.work = {"simulate": sizes.sim_rows, "fitqr": 1,
                     "coverage": len(COVERAGE_K) * sizes.coverage_reps}

    def setup(self):
        self.state = setup_sample(self.dir)
        # the fit sample is an input, made once and not timed
        run_cli(["simulate", "--config", str(self.dir / "fitsample.json")])

    def prepare_oracles(self):
        pass

    def _command(self, name):
        def fn():
            run_cli([name, "--config", str(self.dir / f"{name}.json")])
            return file_digest(self.paths[name])
        return fn

    def pass_requests(self, index):
        return [
            Request("simulate", ("simulate",), self._command("simulate")),
            Request("fitqr", ("fitqr",), self._command("fitqr")),
            Request("coverage", ("coverage",), self._command("coverage")),
            Request("coverage", ("coverage",), self._command("coverage")),
        ]

    def sweep_requests(self, seed):
        """QR n-sweep of the traced run: tau 0.5 fits at n = 200, 400, 800 on
        x ~ U(0, 3), y = x + Exp(1)."""
        from tracer import SWEEP_SIZES
        rng = _rng(seed, 4)
        out = []
        for n in SWEEP_SIZES:
            x = rng.uniform(0.0, 3.0, n)
            pairs = np.column_stack([x, x + rng.exponential(1.0, n)])
            out.append(Request("qr_sweep", ("qr_sweep", n),
                               lambda pairs=pairs: (pairs, qr.fit_lqr(pairs, 0.5))))
        return out

    def check(self, request, output):
        import gate
        if request.kind == "qr_sweep":
            pairs, fit = output
            return gate.check_fit(pairs, fit)
        if request.kind == "simulate":
            return gate.check_sample_csv(self.paths["simulate"],
                                         _structures(GATE_DESIGN), self.sizes.sim_rows)
        if request.kind == "fitqr":
            out = gate.check_fits_csv(self.paths["fitqr"], self.paths["fitsample"], FIT_TAUS)
            lanes = gate.check_qr_lanes(self.paths["fitsample"], FIT_TAUS)
            self.notes["qr_lane_check"] = ("skipped: no compiled QR lane" if lanes is None
                                           else "failed" if lanes else "passed")
            return out + (lanes or [])
        return gate.check_coverage_csv(self.paths["coverage"], COVERAGE_K,
                                       self.sizes.coverage_reps)


WORKLOADS = {w.name: w for w in (CurvesWeibull, PredictKofn, SampleFit)}
