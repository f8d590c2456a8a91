"""Command line front end.

Five subcommands share one JSON config document: `curves` tabulates the
conditional median/mean and two prediction bands over a time grid,
`predict` prints quantiles and bands at a single conditioning point,
`simulate` writes a component/system sample, `coverage` runs the plug-in
interval experiment, and `fitqr` fits quantile-regression lines to a
sample file.  Scalar settings (seed, output path) can be overridden on
the command line; everything is deterministic given (config, seed).

Each `curves` or `predict` request solves all its quantile levels and band
edges in one vector quantile solve, then computes the mean; so a failing
level raises before any output is written or printed, and a level that
fails is reported before a mean that would fail too.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .config import (
    _require,
    grid_from,
    load_config,
    model_from,
    point_from,
    predictor_from,
    structure_from,
)
from .errors import ConfigError, SysPredictError
from .montecarlo import coverage_table, simulate, write_csv
from .predictor import _band_edges
from .qr import detect_crossings, fit_lqr, fit_ols, load_xy

CURVE_COLUMNS = ("t", "median", "mean", "lower_50", "upper_50", "lower_90", "upper_90")
COVERAGE_COLUMNS = ("k", "replications", "coverage50", "se50", "coverage90", "se90")
FITQR_COLUMNS = ("tau", "intercept", "slope", "loss")
BAND_LEVELS = (0.5, 0.9)  # the coverage of the two bands that curves and predict report


def _fmt(value):
    return f"{float(value):.9g}"


def _resolve(args, cfg, key, what):
    """The command-line value of `key`, else the config's; `what` names it in the error."""
    value = getattr(args, key)
    if value is None:
        value = cfg.get(key)
    if value is None:
        raise ConfigError(f"{what} is required (give --{key} or config '{key}')")
    return value


def _solve(predictor, levels, kind, *cond):
    """Quantiles at `levels`, then the lower and upper edge of each band in BAND_LEVELS.

    One quantile call solves every level and band edge, stacked on a leading
    axis; a bottom band's lower edge is the horizon and is not solved.
    """
    edges = [w for level in BAND_LEVELS for w in _band_edges(kind, level)]
    stack = [*levels, *(w for w in edges if w is not None)]
    horizon = np.asarray(cond[-1], dtype=float)
    solved = iter(predictor.quantile(np.reshape(stack, (-1,) + (1,) * horizon.ndim), *cond))
    return [horizon if w is None else next(solved) for w in [*levels, *edges]]


def cmd_curves(args, cfg):
    """tabulate median/mean curves and prediction bands over a grid"""
    mode = _require(cfg, "mode")
    if mode == "two_failures":
        raise ConfigError("curves needs a single conditioning time; "
                          "use predict for two_failures mode")
    predictor = predictor_from(cfg)
    grid = grid_from(cfg)
    kind = cfg.get("band_kind", "centered")
    out = _resolve(args, cfg, "out", "an output path")
    median, *edges = _solve(predictor, [0.5], kind, grid)
    columns = [grid, median, predictor.mean(grid), *edges]
    write_csv(out, CURVE_COLUMNS, columns)
    print("command: curves")
    print(f"mode: {mode}")
    print(f"band_kind: {kind}")
    print(f"rows: {grid.size}")
    print(f"out: {out}")
    return 0


def cmd_predict(args, cfg):
    """print quantiles and bands at one conditioning point"""
    predictor = predictor_from(cfg)
    mode = cfg["mode"]
    cond = point_from(cfg, mode)
    levels = cfg.get("quantiles", [0.5])
    kind = cfg.get("band_kind", "centered")
    values = _solve(predictor, levels, kind, *cond)
    quantiles, edges = values[:len(levels)], values[len(levels):]
    mean = predictor.mean(*cond)
    print("command: predict")
    print(f"mode: {mode}")
    print("point: " + " ".join(f"t{i + 1}={_fmt(c)}" for i, c in enumerate(cond)))
    for w, q in zip(levels, quantiles):
        print(f"quantile {_fmt(w)}: {_fmt(q)}")
    for level, lo, hi in zip(BAND_LEVELS, edges[::2], edges[1::2]):
        print(f"band {kind} {_fmt(level)}: [{_fmt(lo)}, {_fmt(hi)}]")
    print(f"mean: {_fmt(mean)}")
    return 0


def cmd_simulate(args, cfg):
    """simulate component and system lifetimes to CSV"""
    copula, marginal, first, system = model_from(cfg)
    second = (structure_from(cfg, "second")
              if "second" in cfg.get("structures", {}) else None)
    if "size" not in cfg:
        raise ConfigError("config 'size' is required for simulate")
    seed = int(_resolve(args, cfg, "seed", "a seed"))
    out = _resolve(args, cfg, "out", "an output path")
    sample = simulate(first, system, copula, marginal, cfg["size"], seed, second=second)
    sample.to_csv(out)
    print("command: simulate")
    print(f"seed: {seed}")
    print(f"size: {sample.size}")
    print(f"out: {out}")
    return 0


def cmd_coverage(args, cfg):
    """run the plug-in prediction-interval coverage experiment"""
    section = cfg.get("coverage")
    if section is None:
        raise ConfigError("config section 'coverage' is required for coverage")
    seed = int(_resolve(args, cfg, "seed", "a seed"))
    out = _resolve(args, cfg, "out", "an output path")
    kwargs = {"score": section.get("score", "same"),
              "exact_mu": section.get("exact_mu", False)}
    if "eval_draws" in section:
        kwargs["eval_draws"] = section["eval_draws"]
    reports = coverage_table(section["k"], section["replications"], seed, **kwargs)
    columns = [[str(r.k) for r in reports], [str(r.replications) for r in reports]]
    columns += [[getattr(r, name) for r in reports] for name in COVERAGE_COLUMNS[2:]]
    write_csv(out, COVERAGE_COLUMNS, columns)
    print("command: coverage")
    print(f"seed: {seed}")
    print(f"k: {','.join(str(r.k) for r in reports)}")
    print(f"replications: {reports[0].replications}")
    print(f"out: {out}")
    return 0


def cmd_fitqr(args, cfg):
    """fit exact linear quantile regressions to a sample CSV"""
    section = cfg.get("fitqr")
    if section is None:
        raise ConfigError("config section 'fitqr' is required for fitqr")
    out = _resolve(args, cfg, "out", "an output path")
    x_col = section.get("x", "t1")
    y_col = section.get("y", "t")
    pairs = load_xy(section["sample"], x_col=x_col, y_col=y_col)
    fits = [fit_lqr(pairs, tau) for tau in section["taus"]]
    lines = fits + ([fit_ols(pairs)] if section.get("ols", False) else [])
    columns = [["" if f.tau is None else _fmt(f.tau) for f in lines]]
    columns += [[getattr(f, name) for f in lines] for name in FITQR_COLUMNS[1:]]
    write_csv(out, FITQR_COLUMNS, columns)
    crossings = detect_crossings(fits, float(pairs[:, 0].min()), float(pairs[:, 0].max()))
    print("command: fitqr")
    print(f"sample: {section['sample']}")
    print(f"rows: {pairs.shape[0]}")
    if crossings:
        fmt = ", ".join(f"({_fmt(a)}, {_fmt(b)})" for a, b in crossings)
        print(f"crossings: {fmt}")
    else:
        print("crossings: none")
    print(f"out: {out}")
    return 0


# subcommand name -> handler, in `--help` order; each handler's docstring is its help
_COMMANDS = {cmd.__name__.removeprefix("cmd_"): cmd
             for cmd in (cmd_curves, cmd_predict, cmd_simulate, cmd_coverage, cmd_fitqr)}


@functools.cache  # one parser per process: parse_args keeps no state between calls
def _build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", required=True, help="path to the JSON run config")
    shared.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    shared.add_argument("--out", default=None, help="override the config output path")
    parser = argparse.ArgumentParser(
        prog="syspredict",
        description="Predict coherent-system failure times from early component failures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub.add_parser(name, parents=[shared], help=command.__doc__)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        cfg = load_config(args.config)
        return _COMMANDS[args.command](args, cfg)
    except SysPredictError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"IOError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
