"""Correctness oracles for the benchmark's outputs.

No oracle depends on the workload seed. Each compares an output with an
independent computation or an identity, and returns a list of failure
messages (empty when the output is right). The CLI writes CSV cells with
9 significant digits, so checks on CSV values widen their tolerance by the
rounding half-width of each cell (`half_width`); API values are checked at
full precision.

Tolerances, with the largest error measured on the shipped ranges:
  quantile inversion |S(q | cond) - w|        1e-9   (measured <= 7e-11)
  mean vs an independent y-space quad_vec     1e-9   (measured <= 1e-10)
  fitted pinball loss vs the HiGHS LP optimum 1e-9 relative (measured <= 2e-15)
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np
from scipy import integrate, optimize, sparse

QUANTILE_TOL = 1e-9
MEAN_TOL = 1e-9
LP_REL_TOL = 1e-9

# (column, survival level) of the quantile columns of a `curves` CSV
CURVE_LEVELS = (("lower_90", 0.95), ("lower_50", 0.75), ("median", 0.5),
                ("upper_50", 0.25), ("upper_90", 0.05))
CURVE_COLUMNS = ("t", "median", "mean", "lower_50", "upper_50", "lower_90", "upper_90")


def half_width(values):
    """Largest rounding error of a value printed with 9 significant digits."""
    v = np.abs(np.asarray(values, dtype=float))
    with np.errstate(divide="ignore"):
        exp = np.floor(np.log10(np.where(v > 0, v, 1.0)))
    return np.where(v > 0, 0.5 * 10.0 ** (exp - 8), 0.0)


def mean_oracle(predictor, cond):
    """Conditional mean as horizon + y-space integral of the survival.

    Integrates P(T > h + s | cond) over s in [0, inf) with scipy's adaptive
    vector quadrature, one component per conditioning point; the predictor's
    own mean integrates in z = F-bar(y) space with scalar quad.
    """
    cond = tuple(np.asarray(c, dtype=float) for c in cond)
    h = cond[-1]
    total, err = integrate.quad_vec(lambda s: predictor.survival(h + s, *cond),
                                    0.0, np.inf, epsabs=1e-13, epsrel=1e-12,
                                    norm="max", limit=2000)
    if not err < MEAN_TOL / 10:
        raise ArithmeticError(f"mean oracle did not converge (error {err:g})")
    return h + total


def _law_failures(predictor, cond, levels, q, mean, oracle, width_q=0.0, width_mean=0.0):
    """Inversion, ordering and mean checks on one conditional law.

    q[i] is the output for survival level levels[i], levels decreasing; a
    value printed with rounding half-width d must bracket its level:
    S(q + d) - tol <= w <= S(q - d) + tol.
    """
    out = []
    levels = np.asarray(levels, dtype=float)[:, None]
    q = np.asarray(q, dtype=float)
    if q.ndim == 1:
        q = q[:, None]
    horizon = np.asarray(cond[-1], dtype=float)
    if np.any(np.diff(q, axis=0) < 0):
        out.append("quantiles or band edges out of order")
    if np.any(q < horizon):
        out.append("a quantile lies before the conditioning time")
    s_lo = predictor.survival(q + width_q, *cond)
    s_hi = predictor.survival(q - width_q, *cond)
    resid = np.maximum(s_lo - levels, levels - s_hi)
    if not np.all(resid <= QUANTILE_TOL):
        out.append(f"quantile inversion residual {np.max(resid):.3g} > {QUANTILE_TOL:g}")
    gap = np.abs(np.asarray(mean, dtype=float) - oracle) - width_mean
    if not np.all(gap <= MEAN_TOL):
        out.append(f"mean differs from the y-space quadrature by {np.max(gap):.3g}")
    return out


def check_prediction(predictor, cond, output, oracle):
    """One predict request: quantiles at 0.25/0.5/0.75, the 50% and 90%
    centered band edges (lower, upper) and the mean, at full precision."""
    q25, q50, q75, lo50, hi50, lo90, hi90, mean = output
    out = []
    if (lo50, hi50) != (q75, q25):
        out.append("50% band edges differ from the 0.75/0.25 quantiles")
    levels = (0.95, 0.75, 0.5, 0.25, 0.05)
    q = [lo90, q75, q50, q25, hi90]
    return out + _law_failures(predictor, cond, levels, q, mean, oracle)


def check_curves_csv(path, predictor, grid, oracle):
    """A `curves` CSV: grid column, inversion, band ordering and means."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != CURVE_COLUMNS:
        return [f"unexpected curves header {rows[:1]}"]
    try:
        table = np.array(rows[1:], dtype=float).T
    except ValueError as exc:
        return [f"unparsable curves cell: {exc}"]
    if table.shape != (len(CURVE_COLUMNS), len(grid)):
        return [f"curves table has shape {table.shape}, expected {len(grid)} rows"]
    col = dict(zip(CURVE_COLUMNS, table))
    out = []
    if np.any(np.abs(col["t"] - grid) > half_width(grid)):
        out.append("grid column differs from the requested conditioning times")
    q = np.stack([col[name] for name, _ in CURVE_LEVELS])
    levels = [w for _, w in CURVE_LEVELS]
    return out + _law_failures(predictor, (grid,), levels, q, col["mean"], oracle,
                               width_q=half_width(q), width_mean=half_width(col["mean"]))


def check_sample_csv(path, paths, rows, chunk=200_000):
    """A `simulate` CSV: t1 and t recomputed exactly from the component
    columns by the min-max path formula, weak ordering t1 <= t, row count."""
    with open(path, newline="") as fh:
        header = fh.readline().strip().split(",")
        n = sum(1 for h in header if h.startswith("x"))
        if header != [f"x{i + 1}" for i in range(n)] + ["t1", "t"]:
            return [f"unexpected sample header {header}"]
        seen = 0
        while lines := list(itertools.islice(fh, chunk)):
            block = np.loadtxt(lines, delimiter=",", ndmin=2)
            seen += block.shape[0]
            x, t1, t = block[:, :n], block[:, n], block[:, n + 1]
            if not np.all(np.isfinite(x) & (x >= 0)):
                return ["a component lifetime is negative or not finite"]
            for name, got in (("first", t1), ("system", t)):
                want = np.max([x[:, [j - 1 for j in p]].min(axis=1) for p in paths[name]],
                              axis=0)
                if not np.array_equal(got, want):
                    return [f"{name} lifetime column differs from its path formula"]
            if np.any(t1 > t):
                return ["weak ordering t1 <= t violated"]
    if seen != rows:
        return [f"sample has {seen} rows, expected {rows}"]
    return []


def _read_xy(path, x_col="t1", y_col="t"):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        xy = np.array([(float(r[x_col]), float(r[y_col])) for r in reader])
    return xy[:, 0], xy[:, 1]


def lp_pinball_optimum(x, y, tau):
    """Minimum pinball loss of a line, as a linear program solved by HiGHS.

    min tau * sum(p) + (1 - tau) * sum(m)  s.t.  a + b x_i + p_i - m_i = y_i,
    p, m >= 0, a and b free.
    """
    n = x.size
    eye = sparse.identity(n, format="csr")
    a_eq = sparse.hstack([sparse.csr_matrix(np.column_stack([np.ones(n), x])), eye, -eye])
    c = np.concatenate([[0.0, 0.0], np.full(n, tau), np.full(n, 1.0 - tau)])
    bounds = [(None, None)] * 2 + [(0, None)] * (2 * n)
    res = optimize.linprog(c, A_eq=a_eq, b_eq=y, bounds=bounds, method="highs")
    if res.status != 0:
        raise ArithmeticError(f"pinball LP failed: {res.message}")
    return res.fun


def pinball(x, y, a, b, tau):
    r = y - a - b * x
    return float(np.sum(r * (tau - (r < 0.0))))


def check_fit(pairs, fit):
    """An API fit: its loss is the pinball loss of its line and the LP optimum."""
    x, y = pairs[:, 0], pairs[:, 1]
    best = lp_pinball_optimum(x, y, fit.tau)
    line_loss = pinball(x, y, fit.intercept, fit.slope, fit.tau)
    out = []
    if abs(fit.loss - best) > LP_REL_TOL * best:
        out.append(f"n={x.size} tau {fit.tau}: loss {fit.loss!r} is not the LP optimum {best!r}")
    if abs(line_loss - fit.loss) > LP_REL_TOL * best:
        out.append(f"n={x.size} tau {fit.tau}: line has loss {line_loss!r}, not {fit.loss!r}")
    return out


def check_fits_csv(path, sample_path, taus):
    """A `fitqr` CSV: each quantile line is optimal against the LP, its loss
    column matches the loss of the printed line, and the OLS row matches
    numpy least squares."""
    x, y = _read_xy(sample_path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["tau", "intercept", "slope", "loss"]:
        return [f"unexpected fitqr header {rows[:1]}"]
    if len(rows) != len(taus) + 2:
        return [f"fitqr CSV has {len(rows) - 1} rows, expected {len(taus) + 1}"]
    out = []
    for tau, row in zip(taus, rows[1:]):
        if float(row[0]) != tau:
            out.append(f"fit row for tau {row[0]}, expected {tau}")
            continue
        a, b, loss = (float(v) for v in row[1:])
        best = lp_pinball_optimum(x, y, tau)
        if abs(loss - best) > LP_REL_TOL * best + half_width(loss):
            out.append(f"tau {tau}: loss {loss!r} is not the LP optimum {best!r}")
        # the printed line can miss the exact one by its cells' rounding
        slack = float(np.sum(half_width(a) + half_width(b) * np.abs(x))) * max(tau, 1 - tau)
        line_loss = pinball(x, y, a, b, tau)
        if abs(line_loss - loss) > slack + half_width(loss) + LP_REL_TOL * best:
            out.append(f"tau {tau}: printed line has loss {line_loss!r}, not {loss!r}")
    a, b, sse = (float(v) for v in rows[-1][1:])
    b_ref, a_ref = np.polyfit(x, y, 1)
    sse_ref = float(np.sum((y - a_ref - b_ref * x) ** 2))
    tol = 1e-9
    if (abs(a - a_ref) > half_width(a) + tol * (1 + abs(a_ref))
            or abs(b - b_ref) > half_width(b) + tol * (1 + abs(b_ref))
            or abs(sse - sse_ref) > half_width(sse) + tol * sse_ref):
        out.append(f"OLS row ({a}, {b}, {sse}) differs from least squares "
                   f"({a_ref}, {b_ref}, {sse_ref})")
    return out


def check_qr_lanes(sample_path, taus):
    """Compiled and numpy QR lanes must agree exactly; None when there is no
    compiled lane to compare."""
    from syspredict import qr
    if not getattr(qr, "HAVE_COMPILED", False):
        return None
    x, y = _read_xy(sample_path)
    pairs = np.column_stack([x, y])
    out = []
    for tau in taus:
        c = qr.fit_lqr(pairs, tau, engine="compiled")
        p = qr.fit_lqr(pairs, tau, engine="numpy")
        if (c.intercept, c.slope) != (p.intercept, p.slope):
            out.append(f"tau {tau}: compiled lane {c} differs from numpy lane {p}")
    return out


def check_coverage_csv(path, ks, replications):
    """A `coverage` CSV: one row per k with the replication count, coverages
    in [0, 1] and non-negative standard errors. Equality of two runs on one
    seed is checked by the caller."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["k", "replications", "coverage50", "se50",
                               "coverage90", "se90"]:
        return [f"unexpected coverage header {rows[:1]}"]
    if [int(r[0]) for r in rows[1:]] != list(ks):
        return ["coverage rows do not match the k grid"]
    out = []
    for r in rows[1:]:
        cov50, se50, cov90, se90 = (float(v) for v in r[2:])
        if int(r[1]) != replications:
            out.append(f"k={r[0]}: {r[1]} replications, expected {replications}")
        if not (0 <= cov50 <= 1 and 0 <= cov90 <= 1 and se50 >= 0 and se90 >= 0
                and math.isfinite(se50) and math.isfinite(se90)):
            out.append(f"k={r[0]}: coverage or standard error out of range")
    return out
