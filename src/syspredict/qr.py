"""Exact linear quantile regression by bisection on the profile slope.

The pinball loss L(a, b) = sum rho_tau(y_k - a - b x_k) is convex and
piecewise linear, so some optimum interpolates two sample points (or is a
horizontal line through one).  The candidates are the line through points
i < j with x_i != x_j, of slope (y_j - y_i) / (x_j - x_i) and intercept
y_i - slope * x_i, in lexicographic order, then the horizontal line through
each point.  `fit_lqr` returns the candidate of smallest directly summed
loss; ties go to the smallest |slope|, then the smallest intercept, then
the earliest candidate.  Only candidates near the optimum are formed:

1. Profile.  g(b) = min_a L(a, b) is convex.  With r = y - b x and
   m = ceil(tau n), the best a is the m-th smallest residual r_q, and
   g'(b) = (sum of x over the m - 1 smallest residuals) + (tau n - m + 1) x_q
   - tau sum x; for tau n = m that is the sum over the m smallest residuals
   less tau sum x.  One argpartition gives it.  The slope is bisected over
   the ordered doubles on the sign of g', in at most 64 steps.
2. Window.  With E(b) the error bound below, b0 the best step and |b| at
   most `reach` in the window, T = g(b0) + 2 E(reach) bounds the exact loss
   of every candidate that can win or tie.  The steps nearest b0 whose
   g - E exceeds T bound the slope window (g is convex; a few more steps
   per side tighten it).  The intercepts are bounded at b0 by galloping
   over the sorted residuals, as L(a, b) >= L(a, b0) + s (b - b0) for any s
   in the b-subdifferential.
3. Candidates.  Both points of a candidate in the window have a residual at
   b0 in the intercept window, widened by |b - b0| |x_k| and rounding.
   Only pairs of those points are formed.  Points exactly on a line of
   slope +-1 (under weak ordering, the rows with T1 = T) give every pair
   bitwise the same slope and the lower point's intercept, so that group
   adds one candidate per distinct intercept, not one per pair.
4. Rescore.  Each distinct (intercept, slope) is summed directly once, in
   candidate order.

Error bound.  numpy sums a contiguous row pairwise (8 accumulators over
blocks of at most 128 terms, halving above that, buffer chunks of at most
8192 terms added in turn), so a term meets at most D = _depth(n) additions.
A loss summed at slope b is then within (D + 8) u G(b) of the exact loss of
its line, u the unit roundoff and G(b) = sum |y| + n max |y|
+ |b| (sum |x| + n max |x|), and so is the rounded form of an exact optimal
vertex; E(b) = 2 (D + 8) u G(b).

Cost.  O(n) per step, one O(n log n) sort, and O(p n) for the p points near
the optimum: a handful on random data, and the tied group once per
distinct line under weak ordering.  Data collinear only to within rounding,
whose pair slopes differ by ulps, put every point near the optimum: O(n^2)
pairs, each distinct line rescored directly.  So does a large group tied
exactly on a line of another slope (equal y on a horizontal optimum, say),
though its pairs collapse to a few distinct lines before any sum.  Memory
is O(n) plus the distinct candidate lines.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateDesign, OutOfRange

_UNIT = np.finfo(float).eps / 2  # unit roundoff
_BLOCK = 1 << 14  # elements in each temporary of the pair and rescoring loops
_MAGNITUDE = (1 << 63) - 1  # the bits of a double below its sign
# extra profile steps that move each window edge inward.  Fits are bit-identical
# without them, but slow where a window stays wide (2-CPU host, numpy 2.4.6):
# without the slope-window steps, x normal and y = x + Cauchy noise at n = 10^5
# took 2.0 s a fit at tau = 0.5 instead of 95 ms; without the intercept-window
# steps, y in {0, 1, 2} at n = 2,000 took 100-234 ms a fit instead of 82-105 ms
_REFINE = 4


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
    if np.all(x == x[0]):
        raise DegenerateDesign("need at least two distinct abscissae")
    return x, y


def pinball_loss(pairs, intercept, slope, tau):
    """Pinball loss of one line over the sample."""
    arr = np.asarray(pairs, dtype=float)
    resid = arr[:, 1] - intercept - slope * arr[:, 0]
    return float(np.sum(resid * (tau - (resid < 0.0))))


def _rank(b):
    """Order-preserving integer of a double (both zeros map to 0)."""
    bits = struct.unpack("<q", struct.pack("<d", b))[0]
    return bits if bits >= 0 else -(bits & _MAGNITUDE)


def _unrank(k):
    b = struct.unpack("<d", struct.pack("<q", abs(k)))[0]
    return b if k >= 0 else -b


def _bisect(inner, outer, beyond, steps=64):
    """Narrow integers with beyond(outer) true (or outer a bound) toward the
    first one where `beyond` holds; returns (inner, outer)."""
    for _ in range(steps):
        if abs(outer - inner) <= 1:
            break
        mid = (inner + outer) // 2
        if beyond(mid):
            outer = mid
        else:
            inner = mid
    return inner, outer


def _depth(n):
    """Bound on the additions a term meets in numpy's sum of a contiguous row:
    25 inside a pairwise block of at most 128 terms, one per halving above
    that, one per 8192-term buffer chunk, and the reduction's initial add."""
    return 28 + max(0, math.ceil(math.log2(n / 128))) + math.ceil(n / 8192)


def _best_in_block(x, y, tau, a_blk, b_blk):
    """(loss, |b|, a, b) of the winning line of a block, losses summed directly."""
    resid = y[None, :] - a_blk[:, None] - b_blk[:, None] * x[None, :]
    loss = np.sum(resid * (tau - (resid < 0.0)), axis=1)
    # lexsort is stable, so full ties go to the earliest candidate
    i = np.lexsort((a_blk, np.abs(b_blk), loss))[0]
    return loss[i], abs(b_blk[i]), a_blk[i], b_blk[i]


def _fit(x, y, tau):
    """Return (intercept, slope, loss) of the exact pinball minimizer."""
    n = x.size
    num, den = tau.as_integer_ratio()
    m = -(-num * n // den)  # ceil(tau n), exactly
    frac = tau * n - (m - 1)  # weight of x_q in g'
    sum_x = float(x.sum())
    gross_x, gross_y = float(np.abs(x).sum()), float(np.abs(y).sum())
    x_max, y_max = float(np.abs(x).max()), float(np.abs(y).max())
    rel = 2.0 * (_depth(n) + 8) * _UNIT

    def slack(b, a=0.0):  # E(b), for intercepts up to |a| beyond the residuals' range
        return rel * (gross_y + n * (y_max + abs(a)) + abs(b) * (gross_x + n * x_max))

    # every candidate slope, and the optimal one, lies in [-limit, limit]
    gaps = np.diff(np.sort(x))
    limit = float(y.max() - y.min()) / float(gaps[gaps > 0.0].min()) * (1.0 + 4.0 * _UNIT)
    if not math.isfinite(n * (y_max + limit * x_max)):
        raise DegenerateDesign("the sample's pair slopes overflow its residuals")

    # 1. bisect on the sign of g'; steps are keyed by the rank of their slope
    quantile, profile = {}, {}  # the point q at the minimizing residual; g(b)

    def slope(k):
        r = y - _unrank(k) * x
        part = np.argpartition(r, m - 1)
        quantile[k] = q = part[m - 1]
        return float(x[part[:m - 1]].sum()) + frac * x[q] - tau * sum_x

    def g(k):  # summed directly, once per step that needs it
        if k not in profile:
            if k not in quantile:
                slope(k)
            r = y - _unrank(k) * x
            resid = r - r[quantile[k]]
            profile[k] = float((resid * (tau - (resid < 0.0))).sum())
        return profile[k]

    k0 = min(_bisect(_rank(-limit), _rank(limit), lambda k: slope(k) > 0.0),
             key=lambda k: g(k) + slack(_unrank(k)))
    b0 = _unrank(k0)

    # 2. slope window
    def outside(k):
        return g(k) - slack(_unrank(k)) > cut

    def edge_slope(side):
        # the nearest step beyond b0 that lies outside, searched by bisection
        # over the steps and the bracket's end (g is convex); steps halve their
        # distance to b0 about as often as they change side, so a few more
        # move it close to where g crosses the cut.  Only the end lying
        # outside (b0 = 0, say, where all steps are tiny) needs a full search.
        steps = sorted((k for k in quantile if side * (k - k0) > 0), key=lambda k: side * k)
        refine = _REFINE
        if not steps or not outside(steps[-1]):
            steps.append(_rank(side * limit))
            if not outside(steps[-1]):
                return side * limit
            refine = 64
        i, j = _bisect(-1, len(steps) - 1, lambda i: outside(steps[i]))
        return _unrank(_bisect(steps[i] if i >= 0 else k0, steps[j], outside, refine)[1])

    reach = abs(b0)
    while True:  # T grows with the largest |b| in the window: widen until stable
        cut = g(k0) + 2.0 * slack(reach)
        b_lo, b_hi = edge_slope(-1), edge_slope(1)
        if max(-b_lo, b_hi) <= reach:
            break
        reach = max(-b_lo, b_hi)

    # intercept window, by galloping over the residuals at b0
    h = max(b0 - b_lo, b_hi - b0) * (1.0 + 4.0 * _UNIT)
    r0 = y - b0 * x
    sorted_r = np.sort(r0)
    near_zero = 4.0 * _UNIT * (y_max + abs(b0) * x_max)  # residuals whose sign may be off

    def beyond(a):
        # L(a, b) >= L(a, b0) + s (b - b0) for s = -sum x psi(resid) in the
        # b-subdifferential; points whose residual sign is uncertain widen |s|
        resid = r0 - a
        weight = tau - (resid < 0.0)
        tilt = (abs(float((x * weight).sum())) + rel * gross_x
                + float(np.abs(x[np.abs(resid) <= near_zero]).sum()))
        return float((resid * weight).sum()) - slack(b0, a) - h * tilt > cut

    def edge(sign):
        # out from the minimizing residual in doubling rank steps and back to
        # the first order statistic outside, or past the sample in doubling
        # steps; then a few value bisections toward the residual inside, for
        # samples with wide gaps between residuals (ties in y, say)
        inner, j = m - 1, 1
        while 0 <= m - 1 + sign * j < n and not beyond(sorted_r[m - 1 + sign * j]):
            inner, j = m - 1 + sign * j, 2 * j
        if 0 <= m - 1 + sign * j < n:
            inner, outer = _bisect(inner, m - 1 + sign * j, lambda i: beyond(sorted_r[i]))
            inside, out = sorted_r[inner], sorted_r[outer]
        else:
            inside = sorted_r[-1 if sign > 0 else 0]
            width = max(abs(inside - sorted_r[m - 1]), near_zero, _UNIT * x_max)
            out = next((inside + sign * width * 2.0**k for k in range(64)
                        if beyond(inside + sign * width * 2.0**k)), sign * math.inf)
        wide = abs(out - inside) > (sorted_r[-1] - sorted_r[0]) / n
        for _ in range(_REFINE if wide and math.isfinite(out) else 0):
            mid = 0.5 * (inside + out)
            if beyond(mid):
                out = mid
            else:
                inside = mid
        return out

    a_lo, a_hi = edge(-1), edge(1)

    # 3. points whose residual at b0 can reach the window
    widen = h * np.abs(x) + 32.0 * _UNIT * (y_max + reach * x_max)
    near = np.nonzero((r0 >= a_lo - widen) & (r0 <= a_hi + widen))[0]
    return _rescore(x, y, tau, _candidates(x, y, near, (b_lo, b_hi), (a_lo, a_hi)))


def _candidates(x, y, near, slopes, intercepts):
    """Chunks (intercepts, slopes, scan order) of the candidate lines through
    the points `near` whose slope and intercept lie in the given closed ranges."""
    n = x.size

    def inside(a, b, order):
        ok = (b >= slopes[0]) & (b <= slopes[1]) & (a >= intercepts[0]) & (a <= intercepts[1])
        return a[ok], np.broadcast_to(b, a.shape)[ok], order[ok]

    tied = np.zeros(near.size, dtype=bool)
    unit = next((s for s in (1.0, -1.0) if slopes[0] <= s <= slopes[1]), None)
    if unit is not None:
        # the largest group exactly on a line a + unit x (TwoSum error of
        # y - unit x is 0): each pair in it has slope unit, since
        # fl(y_j - y_i) = unit fl(x_j - x_i), and its lower point's intercept
        xp, yp = x[near], y[near]
        t = yp - unit * xp
        back = t - yp
        exact = (yp - (t - back)) + (-unit * xp - back) == 0.0
        values, counts = np.unique(t[exact], return_counts=True)
        if values.size:
            tied = exact & (t == values[np.argmax(counts)])
            z, zt, zx = near[tied], t[tied], xp[tied]
            change = np.nonzero(zx[1:] != zx[:-1])[0] + 1
            nxt = np.searchsorted(change, np.arange(z.size), side="right")
            pivot = np.nonzero(nxt < change.size)[0]  # with a later partner of other x
            # the earliest pivot of each distinct intercept, with its first partner
            pivot = pivot[np.unique(zt[pivot].view(np.int64), return_index=True)[1]]
            yield inside(zt[pivot], unit, z[pivot] * n + z[change[nxt[pivot]]])
    rows = max(1, _BLOCK // max(near.size, 1))
    others = near[~tied]
    for start in range(0, others.size, rows):
        u = others[start:start + rows, None]
        pair = ((u < near) | tied) & (x[u] != x[near])
        i = np.broadcast_to(np.minimum(u, near), pair.shape)[pair]
        j = np.broadcast_to(np.maximum(u, near), pair.shape)[pair]
        b = (y[j] - y[i]) / (x[j] - x[i])
        yield inside(y[i] - b * x[i], b, i * n + j)
    # the horizontal lines come after every pair
    yield inside(y[near], 0.0, near + n * n)


def _rescore(x, y, tau, chunks):
    """Winner among the candidate chunks, each distinct (a, b) summed directly once."""
    earliest = {}  # (a bits, b bits) -> (scan order, a, b)
    for a, b, order in chunks:
        idx = np.argsort(order)
        a, b, order = a[idx], b[idx], order[idx]
        # np.unique returns each bit pattern's first, so earliest, occurrence
        bits = np.column_stack([a.view(np.int64), b.view(np.int64)])
        for i in np.unique(bits, axis=0, return_index=True)[1]:
            key = (int(bits[i, 0]), int(bits[i, 1]))
            if key not in earliest or order[i] < earliest[key][0]:
                earliest[key] = (order[i], a[i], b[i])
    _, a, b = (np.array(v) for v in zip(*sorted(earliest.values())))
    best = None  # (loss, |b|, a, b) of the winner so far
    rows = max(1, _BLOCK // x.size)
    for start in range(0, a.size, rows):
        cand = _best_in_block(x, y, tau, a[start:start + rows], b[start:start + rows])
        if best is None or cand[:3] < best[:3]:
            best = cand
    loss, _, a, b = best
    return float(a), float(b), float(loss)


def fit_lqr(pairs, tau) -> FittedLine:
    """Exact linear tau-quantile regression over the candidate-line set."""
    tau = float(tau)
    if not 0.0 < tau < 1.0:
        raise OutOfRange(f"tau must lie in (0, 1), got {tau}")
    x, y = _as_xy(pairs)
    a, b, loss = _fit(x, y, tau)
    return FittedLine(intercept=a, slope=b, loss=loss, tau=tau)


def fit_ols(pairs) -> FittedLine:
    """Least squares via the normal equations, loss = sum of squared residuals.

    Raises DegenerateDesign when a sum overflows or underflows so that the
    line or its loss is not finite.
    """
    x, y = _as_xy(pairs)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        xm, ym = x.mean(), y.mean()
        sxx = np.sum((x - xm) ** 2)
        slope = float(np.sum((x - xm) * (y - ym)) / sxx)
        intercept = float(ym - slope * xm)
        resid = y - intercept - slope * x
        loss = float(np.sum(resid**2))
    if not all(map(math.isfinite, (intercept, slope, loss))):
        raise DegenerateDesign("least squares overflows or underflows in double precision")
    return FittedLine(intercept=intercept, slope=slope, loss=loss)


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
    are skipped.  A short row, a non-numeric cell or a byte that is not
    UTF-8 raises `DegenerateDesign`, naming the line or the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
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
    except UnicodeDecodeError as exc:
        raise DegenerateDesign(f"cannot read sample {path!r}: {exc}") from exc
