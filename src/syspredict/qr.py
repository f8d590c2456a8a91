"""Exact linear quantile regression by a search on the profile slope.

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
   less tau sum x.  One argpartition (a pass) gives it.  A bracket over the
   ordered doubles, from -limit to limit, is narrowed on the sign of g'
   until its ends are adjacent.  g' changes only where the pivot point q
   does, at a pair slope, so after a probe that halved the bracket the next
   one jumps to where the pivots of its two ends cross; where rounding puts
   that crossing at or just past an end, it steps past the end by a stride
   that doubles.  Otherwise it halves the bracket by rank, so the bracket
   at least halves every two probes.
2. Window.  With E(b) the error bound below, b0 the better bracket end and
   |b| at most `reach` in the window, T = g(b0) + 2 E(reach) bounds the
   exact loss of every candidate that can win or tie.  A probe beyond b0
   whose g - E exceeds T bounds the slope window on its side (g is convex).
   g lies above its tangents, so the tangent at the bracket end on that
   side guesses where g - E crosses T; the guess is doubled until it lies
   outside, then stepped back along the tangent at the outside probe while
   a step gains at least a sixteenth.  The intercepts are bounded at b0 by
   galloping over the sorted residuals, as L(a, b) >= L(a, b0) + s (b - b0)
   for any s in the b-subdifferential.
3. Candidates.  Both points of a candidate in the window have a residual at
   b0 in the intercept window, widened by |b - b0| |x_k| and rounding.
   Only pairs of those points are formed.  Points exactly on a line of
   slope s = +-2^e in the slope window (under weak ordering, the rows with
   T1 = T, on y = x before the sample was scaled by powers of two) give
   every pair bitwise the slope s and the lower point's intercept: s x is
   exact, so fl(y_j - y_i) = s fl(x_j - x_i), and y_i - s x_i is exact.
   The largest such group adds one candidate per distinct intercept, not
   one per pair.
4. Rescore.  Each distinct (intercept, slope) is summed directly once, in
   candidate order.

Error bound.  numpy sums a contiguous row pairwise (8 accumulators over
blocks of at most 128 terms, halving above that, buffer chunks of at most
8192 terms added in turn), so a term meets at most D = _depth(n) additions.
A loss summed at slope b is then within (D + 8) u G(b) of the exact loss of
its line, u the unit roundoff and G(b) = sum |y| + n max |y|
+ |b| (sum |x| + n max |x|), and so is the rounded form of an exact optimal
vertex; E(b) = 2 (D + 8) u G(b).

Cost.  O(n) per probe, one O(n log n) sort, and O(p n) for the p points near
the optimum: a handful on random data, and the tied group once per
distinct line under weak ordering.  A 400-point fit takes 9-34 probes, two
to four of them for the slope window.  Data collinear only to within
rounding, whose pair slopes differ by ulps, put every point near the
optimum: O(n^2) pairs, each distinct line rescored directly.  So does a
large group tied exactly on a line whose slope is no power of two (equal y
on a horizontal optimum, say), though its pairs collapse to a few distinct
lines before any sum.  Memory is O(n) plus the distinct candidate lines.
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
# the steps that move each slope-window edge back toward b0 along its tangent,
# and the value bisections that move each intercept-window edge inward.  Fits
# are bit-identical without them, but slow where a window stays wide (2-CPU
# host, numpy 2.4.6): without the tangent steps, x normal and y = x + Cauchy
# noise at n = 10^5 took 615 ms a fit at tau = 0.5 instead of 84 ms; without
# the value bisections, y in {0, 1, 2} at n = 2,000 took 66-95 ms a fit instead
# of 17-33 ms.  It also caps the doublings of a slope-window edge's guess.
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

    # 1. bracket the sign change of g'; probes are keyed by the rank of their slope
    rise, quantile, profile = {}, {}, {}  # g'(b); the point q at the minimizing residual; g(b)

    def slope(k):
        if k not in rise:
            r = y - _unrank(k) * x
            part = np.argpartition(r, m - 1)
            quantile[k] = q = part[m - 1]
            rise[k] = float(x[part[:m - 1]].sum() + frac * x[q] - tau * sum_x)
        return rise[k]

    def g(k):  # summed directly, once per probe that needs it
        if k not in profile:
            slope(k)
            r = y - _unrank(k) * x
            resid = r - r[quantile[k]]
            profile[k] = float((resid * (tau - (resid < 0.0))).sum())
        return profile[k]

    lo, hi = _rank(-limit), _rank(limit)
    if slope(lo) > 0.0:  # g' of one sign at both ends: b0 is that end
        hi = lo
    elif not slope(hi) > 0.0:
        lo = hi
    stride, last = 1, hi - lo
    while hi - lo > 1:
        # g' changes only where the pivot point does, at a pair slope: after
        # a probe that halved the bracket, jump to where the pivots of its
        # ends cross, or, where they cross at or just past an end (rounding),
        # step past that end by a stride that doubles; else halve it
        k = (lo + hi) // 2
        p, q = quantile[lo], quantile[hi]
        if 2 * (hi - lo) <= last and x[p] != x[q]:
            cross = _rank(float((y[q] - y[p]) / (x[q] - x[p])))
            if lo < cross < hi:
                k, stride = cross, 1
            elif (lo - cross if cross <= lo else cross - hi) <= stride:
                k = min(max(lo + stride if cross <= lo else hi - stride, lo + 1), hi - 1)
                stride *= 2
        last = hi - lo
        if slope(k) > 0.0:
            hi = k
        else:
            lo = k
    k0 = min((lo, hi), key=lambda k: g(k) + slack(_unrank(k)))
    b0 = _unrank(k0)

    # 2. slope window
    def excess(k):
        return g(k) - slack(_unrank(k)) - cut

    edges = {}  # side -> rank of the probe that bounds the window there

    def edge_slope(side):
        # the nearest probe beyond b0 that lies outside (excess > 0).  g lies
        # above its tangents, so the tangent beside b0 gives a first guess
        # (or the edge found for a smaller cut does); it is doubled until it
        # lies outside, then stepped back toward b0 along the tangent there,
        # aimed a little short of where that tangent meets the cut.  Where
        # doubling does not get outside, the bracket's end is tested and
        # searched in full.
        end, inner = _rank(side * limit), k0
        tilt = side * slope(hi if side > 0 else lo)
        gap = (cut - g(k0) + slack(reach)) / tilt * (17.0 / 16.0) if tilt > 0.0 else math.inf
        k = edges.get(side)
        for _ in range(_REFINE):
            if k is None:
                k = _rank(b0 + side * gap) if gap < abs(side * limit - b0) else end
            k = k if side * (k - inner) > 0 else inner + side
            if side * (k - end) >= 0 or excess(k) > 0.0:
                break
            inner, gap, k = k, 2.0 * abs(_unrank(k) - b0), None
        else:
            k = end
        if side * (k - end) >= 0:
            if side * (end - inner) <= 0 or not excess(end) > 0.0:
                return side * limit
            k = _bisect(inner, end, lambda k: excess(k) > 0.0)[1]
        for _ in range(_REFINE):
            b, tilt = _unrank(k), side * slope(k)
            back = excess(k) / tilt * (15.0 / 16.0) if tilt > 0.0 else 0.0
            step = _rank(b - side * back)
            # stop once a step would gain less than a sixteenth
            if not abs(b - b0) / 16.0 <= back < abs(b - b0) or side * (step - inner) <= 0:
                break
            if not excess(step) > 0.0:
                break
            k = step
        edges[side] = k
        return _unrank(k)

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

    # the largest group exactly on a line a + s x, s = +-2^e in the window
    # (TwoSum error of y - s x is 0, s x exact): each pair in it has slope s,
    # since fl(y_j - y_i) = s fl(x_j - x_i), and its lower point's intercept
    xp, yp = x[near], y[near]
    tied, size = np.zeros(near.size, dtype=bool), 1
    powers = _power_slopes(slopes, xp, yp)
    rows = max(1, _BLOCK // max(near.size, 1))
    for start in range(0, powers.size, rows):
        t, exact = _on_lines(powers[start:start + rows, None], xp, yp)
        t = np.sort(np.where(exact, t, np.nan), axis=1)
        # the runs of equal values, row by row (NaN is a run of its own)
        runs = np.flatnonzero(np.insert(t[:, 1:] != t[:, :-1], 0, True, axis=1))
        length = np.diff(runs, append=t.size)
        i = np.argmax(length)
        if length[i] > size:
            row, col = divmod(runs[i], t.shape[1])
            size, unit = length[i], powers[start + row]
            line, exact = _on_lines(unit, xp, yp)
            tied = exact & (line == t[row, col])
    if tied.any():
        z, zt, zx = near[tied], line[tied], xp[tied]
        change = np.nonzero(zx[1:] != zx[:-1])[0] + 1
        nxt = np.searchsorted(change, np.arange(z.size), side="right")
        pivot = np.nonzero(nxt < change.size)[0]  # with a later partner of other x
        # the earliest pivot of each distinct intercept, with its first partner
        pivot = pivot[np.unique(zt[pivot].view(np.int64), return_index=True)[1]]
        yield inside(zt[pivot], unit, z[pivot] * n + z[change[nxt[pivot]]])
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


def _on_lines(s, xp, yp):
    """y - s x for the slopes s, and where it is exact: its TwoSum error is 0
    and s x neither overflows nor loses bits to underflow."""
    prod = s * xp
    t = yp - prod
    back = t - yp
    return t, ((yp - (t - back)) + (-prod - back) == 0.0) & (prod / s == xp)


def _power_slopes(slopes, xp, yp):
    """The slopes +-2^e in the closed range `slopes` within a factor 2 of the
    range of pair slopes of the points (xp, yp), e from -1022 up."""
    ys, xs = np.sort(yp), np.sort(xp)
    dy, dx = np.diff(ys), np.diff(xs)
    if not (dy > 0.0).any() or not (dx > 0.0).any():
        return np.array([])
    least = float(dy[dy > 0.0].min()) / float(xs[-1] - xs[0]) / 2.0
    most = float(ys[-1] - ys[0]) / float(dx[dx > 0.0].min()) * 2.0
    out = []
    for sign, lo, hi in ((1.0, slopes[0], slopes[1]), (-1.0, -slopes[1], -slopes[0])):
        lo, hi = max(lo, least, 2.0**-1022), min(hi, most)
        if lo <= hi:
            (m_lo, e_lo), e_hi = math.frexp(lo), math.frexp(hi)[1]
            out += [sign * 2.0**e for e in range(e_lo - (m_lo == 0.5), e_hi)]
    return np.array(out)


def _rescore(x, y, tau, chunks):
    """Winner among the candidate chunks, each distinct (a, b) summed directly once."""
    a, b, order = (np.concatenate(c) for c in zip(*chunks))
    # sorted by bits, then scan order: the first of each run is its earliest
    bits = a.view(np.int64), b.view(np.int64)
    idx = np.lexsort((order, bits[1], bits[0]))
    first = np.ones(idx.size, dtype=bool)
    first[1:] = (np.diff(bits[0][idx]) != 0) | (np.diff(bits[1][idx]) != 0)
    idx = idx[first]
    idx = idx[np.argsort(order[idx])]
    a, b = a[idx], b[idx]
    best = None  # (loss, |b|, a, b) of the winner so far
    rows = max(1, _BLOCK // x.size)
    for start in range(0, a.size, rows):
        cand = _best_in_block(x, y, tau, a[start:start + rows], b[start:start + rows])
        if best is None or cand[:3] < best[:3]:
            best = cand
    loss, _, a, b = best
    return float(a), float(b), float(loss)


def fit_lqr(pairs, tau) -> FittedLine:
    """Exact linear tau-quantile regression over the candidate-line set.

    The fit runs on the sample scaled by powers of two, and its line and
    loss are scaled back, as in `fit_ols`: the same bits at every scale, or
    DegenerateDesign where the line or its loss overflows, is subnormal or
    underflows to 0.
    """
    tau = float(tau)
    if not 0.0 < tau < 1.0:
        raise OutOfRange(f"tau must lie in (0, 1), got {tau}")
    x, y, ex, ey = _unit_scaled(*_as_xy(pairs))
    # the pinball loss is linear in y, so it scales back as the intercept does
    a, b, loss = _scaled_back(_fit(x, y, tau), [ey, ey - ex, ey], "the quantile line")
    return FittedLine(intercept=a, slope=b, loss=loss, tau=tau)


def _unit_scaled(x, y):
    """(x 2^-ex, y 2^-ey, ex, ey): the powers of two bring max |x| and max |y|
    into [1/2, 1), so a fit on the scaled sample does not depend on its scale."""
    ex, ey = (int(np.frexp(np.max(np.abs(c)))[1]) for c in (x, y))
    return np.ldexp(x, -ex), np.ldexp(y, -ey), ex, ey


def _scaled_back(fitted, exponents, what):
    """The fitted values times 2^exponents, exact in the normal range.

    Raises DegenerateDesign where one overflows, is subnormal or underflows
    to 0 from a nonzero value.
    """
    scaled = np.array(fitted)
    with np.errstate(over="ignore"):
        values = np.ldexp(scaled, exponents)
    normal = np.abs(values) >= np.finfo(float).tiny
    if not np.all(np.isfinite(values) & (normal | (scaled == 0))):
        raise DegenerateDesign(f"{what} overflows or underflows in double precision")
    return values.tolist()


def fit_ols(pairs) -> FittedLine:
    """Least squares via the normal equations, loss = sum of squared residuals.

    x and y are scaled by the powers of two that bring max |x| and max |y|
    into [1/2, 1) before the normal equations, and the line and its loss
    are scaled back, so the fit does not depend on the sample's scale (both
    steps are exact in the normal range).  Raises DegenerateDesign when the
    line or its loss overflows, is subnormal or underflows to 0.
    """
    x, y, ex, ey = _unit_scaled(*_as_xy(pairs))
    xm, ym = x.mean(), y.mean()
    slope = float(np.sum((x - xm) * (y - ym)) / np.sum((x - xm) ** 2))
    intercept = float(ym - slope * xm)
    loss = float(np.sum((y - intercept - slope * x) ** 2))
    intercept, slope, loss = _scaled_back([intercept, slope, loss], [ey, ey - ex, 2 * ey],
                                          "least squares")
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
