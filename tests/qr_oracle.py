"""The pivot scan that fitted quantile lines before the profile bisection.

`scan(x, y, tau)` minimizes the pinball loss over every candidate line and
returns (intercept, slope, loss); `syspredict.qr.fit_lqr` must return the
same three doubles, bit for bit.  It costs O(n^2 log n) time, so the tests
run it on samples of a few thousand points at most.

The scan works pivot by pivot.  A line through point i with slope b leaves
residuals e_k - b d_k, where e_k = y_k - y_i and d_k = x_k - x_i, so its
loss is sum |d_k| rho_{tau_k}(s_k - b) over the knots s_k = e_k / d_k, with
tau_k = tau where d_k > 0 and 1 - tau where d_k < 0, plus a constant from
the points with d_k = 0.  One sort of the knots and prefix sums give the
loss at every candidate slope.  Horizontal lines are the same problem with
e = y and d = 1.  Every candidate whose prefix-sum loss lies within a
floating-point error bound of the best is scored again by the direct sum,
and the winner is picked from those by the rule of `syspredict.qr`.
"""

import numpy as np

from syspredict.qr import _UNIT, _best_in_block

CELLS = 1 << 14  # elements in each (candidate lines x points) temporary


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


def scan(x, y, tau):
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


def oracle_scan(x, y, tau):
    """Reference O(n^3) scan: every candidate line, its loss summed directly.

    Candidates are the lines through (x_i, y_i), (x_j, y_j) for i < j in
    lexicographic order, then the horizontal line through each point; the
    winner is the first in (loss, |slope|, intercept) order.
    """
    n = x.size
    ii, jj = np.triu_indices(n, k=1)
    dx = x[jj] - x[ii]
    keep = dx != 0.0
    ii, jj, dx = ii[keep], jj[keep], dx[keep]
    pair_b = (y[jj] - y[ii]) / dx
    a = np.concatenate([y[ii] - pair_b * x[ii], y])
    b = np.concatenate([pair_b, np.zeros(n)])
    loss = np.empty(a.size)
    for start in range(0, a.size, 2048):
        blk = slice(start, start + 2048)
        resid = y[None, :] - a[blk, None] - b[blk, None] * x[None, :]
        loss[blk] = np.sum(resid * (tau - (resid < 0.0)), axis=1)
    k = np.lexsort((a, np.abs(b), loss))[0]
    return a[k], b[k], loss[k]
