"""Linear quantile regression by an exact scan of the candidate lines.

The pinball loss L(a, b) = sum rho_tau(y_k - a - b x_k) is convex and
piecewise linear in (a, b), so some optimum interpolates two sample points
(or is a horizontal line through one when all slopes tie); minimizing over
that finite candidate set is exact, unlike an iterative solver.

The scan works pivot by pivot.  A line through point i with slope b leaves
residuals e_k - b d_k, where e_k = y_k - y_i and d_k = x_k - x_i, so its
loss is sum |d_k| rho_{tau_k}(s_k - b) over the knots s_k = e_k / d_k, with
tau_k = tau where d_k > 0 and 1 - tau where d_k < 0, plus a constant from
the points with d_k = 0.  That is a weighted-quantile objective: one sort
of the knots and prefix sums give the loss at every candidate slope, so
the scan costs O(n^2 log n) time and O(n) memory per pivot.  Horizontal
lines are the same problem with e = y and d = 1.

Prefix sums are approximate.  Every candidate whose approximate loss lies
within a floating-point error bound of the best is therefore scored again
by the direct sum, and the winner is picked from those.  Ties break
deterministically: smallest loss, then smallest |slope|, then smallest
intercept, then the earliest candidate.  The candidates are the lines
through (x_i, y_i) and (x_j, y_j) for i < j in lexicographic order, with
slope (y_j - y_i) / (x_j - x_i) and intercept y_i - slope * x_i, followed
by the horizontal line through each point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateDesign, OutOfRange

CELLS = 1 << 14  # elements in each (candidate lines x points) temporary
_UNIT = np.finfo(float).eps / 2  # unit roundoff


@dataclass(frozen=True)
class FittedLine:
    """One fitted regression line; tau is None for least squares."""

    intercept: float
    slope: float
    loss: float
    tau: Optional[float] = None


def _as_xy(pairs):
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise DegenerateDesign(f"need an (n, 2) array with n >= 2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DegenerateDesign("x and y must be finite")
    x = np.ascontiguousarray(arr[:, 0])
    y = np.ascontiguousarray(arr[:, 1])
    if np.unique(x).size < 2:
        raise DegenerateDesign("need at least two distinct abscissae")
    return x, y


def pinball_loss(pairs, intercept, slope, tau):
    """Pinball loss of one line over the sample."""
    arr = np.asarray(pairs, dtype=float)
    resid = arr[:, 1] - intercept - slope * arr[:, 0]
    return float(np.sum(resid * (tau - (resid < 0.0))))


def _knot_losses(e, d, tau):
    """Knots s = e / d and, per row, sum_k rho_tau(e_k - s_m d_k) at each knot s_m.

    Rows are independent.  Entries with d == 0 are not knots (their s is
    meaningless) and add rho_tau(e_k) to every loss of their row.
    """
    s = e / np.where(d == 0.0, 1.0, d)
    order = np.argsort(s, axis=1)
    s_sorted = np.take_along_axis(s, order, axis=1)
    e = np.take_along_axis(e, order, axis=1)
    d = np.take_along_axis(d, order, axis=1)
    flat = d == 0.0
    up = d > 0.0
    # rho's slope for a residual e - b d whose knot lies below / above b
    below = np.where(flat, 0.0, np.where(up, tau - 1.0, tau))
    above = np.where(flat, 0.0, np.where(up, tau, tau - 1.0))
    const = np.sum(np.where(flat, e * (tau - (e < 0.0)), 0.0), axis=1, keepdims=True)

    def before(v):  # sum over the strictly earlier knots of the row
        return np.cumsum(v, axis=1) - v

    def after(v):  # sum over the strictly later knots of the row
        return np.sum(v, axis=1, keepdims=True) - np.cumsum(v, axis=1)

    loss_sorted = (const + before(below * e) - s_sorted * before(below * d)
                   + after(above * e) - s_sorted * after(above * d))
    loss = np.empty_like(loss_sorted)
    np.put_along_axis(loss, order, loss_sorted, axis=1)
    return s, loss


def _best_in_block(x, y, tau, a_blk, b_blk):
    """(loss, |b|, a, b) of the winning line of a block, losses summed directly."""
    resid = y[None, :] - a_blk[:, None] - b_blk[:, None] * x[None, :]
    loss = np.sum(resid * (tau - (resid < 0.0)), axis=1)
    # lexsort is stable, so full ties go to the earliest candidate
    i = np.lexsort((a_blk, np.abs(b_blk), loss))[0]
    return loss[i], abs(b_blk[i]), a_blk[i], b_blk[i]


def _scan(x, y, tau):
    """Return (intercept, slope, loss) of the exact pinball minimizer."""
    n = x.size
    rows = max(1, CELLS // n)
    gross_x, gross_y = np.sum(np.abs(x)), np.sum(np.abs(y))
    best = None  # (loss, |b|, a, b) of the winner so far

    def consider(px, py, b, approx):
        # Candidate lines through the points (px, py) with slopes b, in scan
        # order, and their prefix-sum losses `approx`.  With u the unit
        # roundoff and G the bound below on the sum of the absolute terms,
        # `approx` is within (3n + 15) u G of the directly summed loss:
        # (2n + 10) u G from the prefix sums, 2 u G from the line
        # y_i + b (x - x_i) versus its stored intercept, (n + 3) u G from the
        # direct sum.  The slack rounds that up to 4 (n + 4) u G to cover the
        # rounding of this test.  A candidate whose lower bound exceeds some
        # upper bound, or the best direct loss so far, cannot win or tie;
        # only the others are summed directly.
        nonlocal best
        if b.size == 0:
            return
        slack = 4.0 * (n + 4) * _UNIT * (gross_y + n * np.abs(py)
                                         + np.abs(b) * (gross_x + n * np.abs(px)))
        cut = np.min(approx + slack)
        if best is not None:
            cut = min(cut, best[0])
        keep = approx - slack <= cut
        b = b[keep]
        a = py[keep] - b * px[keep]
        for start in range(0, a.size, rows):
            cand = _best_in_block(x, y, tau, a[start:start + rows], b[start:start + rows])
            if best is None or cand[:3] < best[:3]:
                best = cand

    for first in range(0, n - 1, rows):
        pivots = np.arange(first, min(first + rows, n - 1))
        e = y[None, :] - y[pivots, None]
        d = x[None, :] - x[pivots, None]
        s, approx = _knot_losses(e, d, tau)
        # each pair line once, from its lower-index point
        pair = (d != 0.0) & (np.arange(n)[None, :] > pivots[:, None])
        pivot = pivots[np.nonzero(pair)[0]]
        consider(x[pivot], y[pivot], s[pair], approx[pair])
    # horizontals: residuals y_k - y_i are e - b d with e = y, d = 1, b = y_i
    _, approx = _knot_losses(y[None, :], np.ones((1, n)), tau)
    consider(np.zeros(n), y, np.zeros(n), approx[0])
    loss, _, a, b = best
    return float(a), float(b), float(loss)


def fit_lqr(pairs, tau) -> FittedLine:
    """Exact linear tau-quantile regression over the candidate-line set."""
    tau = float(tau)
    if not 0.0 < tau < 1.0:
        raise OutOfRange(f"tau must lie in (0, 1), got {tau}")
    x, y = _as_xy(pairs)
    a, b, loss = _scan(x, y, tau)
    return FittedLine(intercept=a, slope=b, loss=loss, tau=tau)


def fit_ols(pairs) -> FittedLine:
    """Least squares via the normal equations, loss = sum of squared residuals."""
    x, y = _as_xy(pairs)
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    resid = y - intercept - slope * x
    return FittedLine(intercept=intercept, slope=slope, loss=float(np.sum(resid**2)))


def detect_crossings(fits, x_lo, x_hi):
    """Pairs of fitted quantile lines whose order inverts on [x_lo, x_hi].

    Lines are ordered by tau; a higher-tau line dipping below a lower-tau
    line anywhere in the range (differences are linear, so checking the
    endpoints suffices) is reported as (tau_low, tau_high).
    """
    ordered = sorted((f for f in fits if f.tau is not None), key=lambda f: f.tau)
    out = []
    for i, low in enumerate(ordered):
        for high in ordered[i + 1:]:
            d_lo = (high.intercept + high.slope * x_lo) - (low.intercept + low.slope * x_lo)
            d_hi = (high.intercept + high.slope * x_hi) - (low.intercept + low.slope * x_hi)
            if min(d_lo, d_hi) < 0.0:
                out.append((low.tau, high.tau))
    return out


def load_xy(path, x_col="t1", y_col="t"):
    """Read (x, y) pairs from a CSV file with named columns.

    Cells are split at commas (no quoting) and read by `float`; empty lines
    are skipped.  A short row or a non-numeric cell names its line.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if x_col not in header or y_col not in header:
            raise DegenerateDesign(
                f"CSV must provide columns {x_col!r} and {y_col!r}, got {header}"
            )
        usecols = (header.index(x_col), header.index(y_col))
        try:
            with warnings.catch_warnings():
                # a header-only file reads as no rows
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                return np.loadtxt(fh, delimiter=",", usecols=usecols, ndmin=2,
                                  converters=float, comments=None)
        except ValueError:  # find the line by the same rules
            fh.seek(0)
            for num, line in enumerate(fh, 1):
                try:
                    if num > 1 and line != "\n":
                        [float(line.split(",")[i]) for i in usecols]
                except (IndexError, ValueError):
                    raise DegenerateDesign(
                        f"line {num}: columns {x_col!r} and {y_col!r} must hold numbers"
                    ) from None
            raise
