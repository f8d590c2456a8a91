"""Conditional prediction of a system failure time from early failures.

Every conditioning case is one ratio of term-sum partials.  Given the
first k failures (k = 1 or 2) of structures O_1..O_k at t_1 <= .. <= t_k,
write c = (F-bar(t_1), .., F-bar(t_k)) for the conditioning point in
survival scale and z = F-bar(y); then

      S(z | c) = num(c, z) / den(c),   z <= F-bar(horizon),

where the horizon t_k is the last observed time, num is the k-th mixed
partial, in the k observed variables, of the (k+1)-variate ordered
distortion of (O_1, .., O_k, system), and den the same partial of the
k-variate ordered distortion of the observed failures alone.  num(c, 0)
is exactly 0: every term of num keeps an undifferentiated coordinate
carrying z, and survival copulas are grounded.

Mode "strict" (the observed failure can never be the system failure)
uses S as it is.  Mode "weak" (the system may die exactly at the observed
failure) starts from S(F-bar(t) | c) = alpha(t) < 1, leaving an atom of
size 1 - alpha(t) at y = t; mode "alive" conditions on the system having
survived and renormalizes the law by alpha(t).

Each conditioning point's law is built once per solve: den, alpha and
num's c factors depend only on c (`distortion._PatternSum` folds them), so
every solver step and quadrature node evaluates just the rest of num in z,
one `distortion._Polynomial` closure for every family, with the same bits
on Python floats as on numpy arrays.  Subclasses name their observed
structures; the map from conditioning times to (horizon, c), quantiles,
means, survival, alpha and bands are shared.  The k-of-n shortcut
`kofn_quantile_factor` inverts its scalar binomial law by bisection over
the ordered doubles of [0, 1] in Python floats, the search `qr` uses for
its slopes.

A one-entry quantile, band edge or alpha, every input 0-d, runs in Python
floats from call to answer: Python comparisons check the level, the time
order and den, and c_i is the float of the marginal's 0-d F-bar(t_i).  Only
the marginal's F-bar and its inverse (whose scalar and array powers may
differ, ROADMAP 9(f)) and the Clayton kernel, on numpy scalars, call numpy.
A one-point mean takes F-bar on (1, 1) columns, as a stacked mean does,
and a one-entry survival keeps its numpy body; both return a float.

Quantiles invert the survival level in z space, where every law is
monotone on (0, F-bar(horizon)], by safeguarded Anderson-Bjorck regula
falsi (Anderson & Bjorck 1973; `_solve_increasing`, `_solve_one`) to a
relative 1e-12 of F-bar(horizon), whatever its scale.  Over the test
designs (t up to 60, Exp and Weibull shapes 0.5-4) a level in [0.01, 0.99]
takes a median of 7 law evaluations and at most 24; levels within 1e-14 of
0 or 1 at most 63.  Band edges are the quantiles at the survival levels
`_band_edges` gives; a bottom band's lower edge is the horizon.

Means add to the horizon the integral over y > horizon of the survival,
S(y | c) = law(min(F-bar(y), F-bar(horizon))), substituting
y = horizon + sigma * s with sigma = F-bar^-1(F-bar(horizon) / e) - horizon,
the marginal's residual scale at the horizon, so the rule does not depend
on units or on how far out the horizon lies.  The s integral over (0, inf)
uses one fixed exp-sinh rule (Takahasi & Mori 1974), s = exp(pi/2 sinh(x))
on a uniform x grid.  A grid of points folds and evaluates its law in
blocks of MEAN_ROWS = 120 points (2^16 node cells, which bounds a grid
mean's memory under every family), every block's den checked before any
integral, and one matmul integrates all points.  The integrand stays in
[0, 1] and needs neither the density nor a singular Jacobian.  Nodes where
F-bar(y) underflows to 0 add law(0) = 0.  The rule at half the nodes
(every other one) estimates the error, the last node's term the tail cut
off beyond it; a point whose estimate exceeds 1e-8 of the integral raises
QuadratureFailure, as does a horizon whose F-bar underflows.  A sigma
whose F-bar^-1 overflows raises OutOfRange, and a node y that overflows
counts as F-bar(y) = 0 under the error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distortion import UnivariateDistortion, _PatternSum
from .errors import (
    DegenerateDenominator,
    InvalidOrder,
    NotInvertible,
    OutOfRange,
    QuadratureFailure,
    ZeroAlpha,
)
from .qr import _bisect, _rank, _unrank

BISECT_TOL = 1e-12  # relative to the upper end of the bracket
BISECT_MAX = 200

# Exp-sinh nodes s_k = exp(pi/2 sinh(k h)) on (0, inf), h = 1/64, |k h| <= 4.25:
# the ends reach s ~ 1e-24 and 1e24.  The coarse level (h = 1/32) reuses
# every other node.  Its error falls off fast enough that Weibull shapes up
# to about 10 pass QUAD_TOL, while the fine level stays near rounding.
QUAD_STEP = 1.0 / 64
_K = np.arange(-272, 273)
_NODES = np.exp(0.5 * np.pi * np.sinh(_K * QUAD_STEP))
_WEIGHTS = QUAD_STEP * 0.5 * np.pi * np.cosh(_K * QUAD_STEP) * _NODES
_COARSE_WEIGHTS = np.where(_K % 2 == 0, 2.0 * _WEIGHTS, 0.0)
QUAD_TOL = 1e-8  # largest error estimate, relative to the tail integral
MEAN_ROWS = (1 << 16) // _NODES.size  # points a mean folds and integrates at once: 120
_TINY = float(np.finfo(float).tiny)


def _zero_d(x):
    return type(x) is float or np.ndim(x) == 0


def _as_level(w):
    """w checked to lie strictly inside (0, 1), a Python float if 0-d (NaN fails it)."""
    w = float(w) if _zero_d(w) else np.asarray(w, dtype=float)
    inside = (0.0 < w < 1.0 if type(w) is float
              else np.logical_and.reduce((w > 0) & (w < 1), axis=None))
    if not inside:
        raise OutOfRange("survival levels must lie strictly inside (0, 1)")
    return w


def _checked_times(times):
    """Conditioning times checked 0 <= t1 <= t2 (NaN fails): Python floats if all are 0-d."""
    one = all(map(_zero_d, times))
    times = [float(t) if one else np.asarray(t, dtype=float) for t in times]
    if len(times) > 1 and not (0.0 <= times[0] <= times[1] if one else
                               all(np.all(a <= b) for a, b in zip([0.0, *times], times))):
        raise OutOfRange("conditioning times must satisfy 0 <= t1 <= t2")
    return times


def _clip_unit(x):
    """x clipped to [0, 1] as numpy clips, a Python float in Python (NaN and -0 pass)."""
    if type(x) is float:
        return min(max(x, 0.0), 1.0)
    return x.clip(0.0, 1.0)


def _solve_increasing(f, hi, target, skip=None):
    """Vectorized root of f(z) = target for f increasing on (0, hi], f(0+) = 0.

    Anderson-Bjorck regula falsi on the bracket [lo, hi], starting from
    [0, hi].  A trial point within BISECT_TOL * hi / 3 of either end is
    pushed out to that distance, so a root near an end closes the bracket;
    after three steps in a row that fail to halve the bracket, one step
    bisects it.  Entries stop once hi - lo <= BISECT_TOL * hi (at most
    BISECT_MAX steps); `skip` entries start there.  Returns the bracket
    midpoints.

    The loop keeps the bracket (lo, hi), the end values (g_lo, g_hi) of
    f - target, which end the last step moved (was_up, was_down: read only
    at live entries, which were live at every step before) and the count
    of slow steps in a row.  `_solve_one` takes the same steps on a 0-d
    bracket in Python floats; the earlier int-`last` form kept in
    tests/solver_oracle.py is the reference for both, bit for bit.
    """
    hi = np.array(hi, dtype=float)
    target = np.broadcast_to(np.asarray(target, dtype=float), hi.shape)
    skip = np.zeros(hi.shape, dtype=bool) if skip is None else skip
    g_hi = f(hi) - target
    if (g_hi[~skip] < 0).any():
        raise NotInvertible("survival level cannot be bracketed on (0, F-bar(t)]")
    lo = np.where(skip, hi, 0.0)
    g_lo = -target
    was_up = was_down = False
    slow = 0
    for _ in range(BISECT_MAX):
        width = hi - lo
        live = width > BISECT_TOL * hi
        if not live.any():
            break
        pad = BISECT_TOL / 3 * hi
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (hi - g_hi * (width / (g_hi - g_lo))).clip(lo + pad, hi - pad)
        z = np.where((slow >= 3) | np.isnan(z), 0.5 * (lo + hi), z)
        g = f(z) - target
        up = live & (g >= 0)
        down = live ^ up
        # an end kept while the other moves twice in a row has its value scaled by m
        # (m is inf after a division by an end value of -0: the NaN of inf * -0
        # then sends the next trial point to the midpoint)
        with np.errstate(divide="ignore", invalid="ignore"):
            m = 1.0 - g / np.where(up, g_hi, g_lo)
            m = np.where(m > 0, m, 0.5)
            g_lo = np.where(up & was_up, m * g_lo, np.where(down, g, g_lo))
            g_hi = np.where(down & was_down, m * g_hi, np.where(up, g, g_hi))
        hi = np.where(up, z, hi)
        lo = np.where(down, z, lo)
        was_up, was_down = up, down
        slow = (slow + 1) * (hi - lo > 0.5 * width)
    return 0.5 * (lo + hi)


def _divide(a, b):
    """a / b as IEEE divides doubles, where Python raises on a zero b."""
    if b:
        return a / b
    if a != a or not a:  # NaN / 0 and 0 / 0
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _solve_one(f, hi, target, skip):
    """`_solve_increasing` on a 0-d bracket, stepped in Python floats.

    Every `np.where` of the vector form becomes an `if` on the same doubles,
    so the trial points and the root agree bit for bit.  numpy's clip passes
    a NaN trial point through to the midpoint test; here that test comes
    first.  The clip's bounds are never NaN and a trial point is never -0, so
    two comparisons clip as numpy does.  f gets Python floats, under the
    caller's error state.
    """
    target, hi = float(target), float(hi)
    g_hi = float(f(hi)) - target
    if g_hi < 0 and not skip:
        raise NotInvertible("survival level cannot be bracketed on (0, F-bar(t)]")
    lo = hi if skip else 0.0
    g_lo = -target
    was_up = was_down = False
    slow = 0
    for _ in range(BISECT_MAX):
        width = hi - lo
        if not width > BISECT_TOL * hi:
            break
        z = hi - g_hi * _divide(width, g_hi - g_lo)
        if slow >= 3 or z != z:
            z = 0.5 * (lo + hi)
        else:
            pad = BISECT_TOL / 3 * hi
            z = z if z > lo + pad else lo + pad
            z = z if z < hi - pad else hi - pad
        g = float(f(z)) - target
        up = g >= 0
        # an end kept while the other moves twice in a row has its value scaled by m
        if up:
            if was_up:
                m = 1.0 - _divide(g, g_hi)
                g_lo = (m if m > 0 else 0.5) * g_lo
            g_hi, hi = g, z
        else:
            if was_down:
                m = 1.0 - _divide(g, g_lo)
                g_hi = (m if m > 0 else 0.5) * g_hi
            g_lo, lo = g, z
        was_up, was_down = up, not up
        slow = slow + 1 if hi - lo > 0.5 * width else 0
    return np.float64(0.5 * (lo + hi))


def _tail_mean(laws, marginal, horizon, zmax):
    """horizon + the integral over y > horizon of law(min(F-bar(y), zmax)).

    horizon and zmax = F-bar(horizon) are (P, 1) columns; `laws` holds one
    law per block of MEAN_ROWS points, in order, from survival values to
    survival probabilities.  One matmul integrates all blocks: a row's sum
    order depends on P (OpenBLAS), not on the blocks.  Returns the P means.
    """
    edge = zmax * math.exp(-1.0)
    if np.any(edge == 0.0):
        raise QuadratureFailure("F-bar(horizon) underflows to 0: the tail has no scale")
    sigma = marginal.inv_sf(edge) - horizon
    f = np.empty((len(horizon), _NODES.size))
    for start, law in zip(range(0, len(horizon), MEAN_ROWS), laws):
        rows = slice(start, start + MEAN_ROWS)
        with np.errstate(over="ignore"):  # sigma * s can overflow at far nodes: sf(inf) = 0
            z = np.minimum(marginal.sf(horizon[rows] + sigma[rows] * _NODES), zmax[rows])
        f[rows] = law(z)
    fine = f @ _WEIGHTS
    # the last node's term estimates the tail cut off beyond it
    err = np.abs(fine - f @ _COARSE_WEIGHTS) + f[:, -1] * _WEIGHTS[-1]
    if np.any(err > QUAD_TOL * fine):
        worst = float(np.max(err / fine))
        raise QuadratureFailure(f"mean quadrature error estimate is {worst:.3g} of the tail")
    return horizon[:, 0] + sigma[:, 0] * fine


def _band_edges(kind, level):
    """Survival levels (lower, upper) of a band's edges; None is the horizon.

    A centered level-gamma band runs from the (1+gamma)/2 to the (1-gamma)/2
    quantile, a bottom band from the horizon to the (1-gamma) quantile.
    """
    level = float(level)
    if not 0.0 < level < 1.0:
        raise OutOfRange("band level must lie in (0, 1)")
    if kind == "centered":
        return (1.0 + level) / 2.0, (1.0 - level) / 2.0
    if kind == "bottom":
        return None, 1.0 - level
    raise OutOfRange(f"band kind must be 'centered' or 'bottom', got {kind!r}")


@dataclass(frozen=True)
class PredictionBand:
    """Lower/upper curve evaluators over the conditioning times."""

    kind: str
    level: float
    lower: Callable
    upper: Callable


class _PredictorCore:
    """Quantile, mean, survival, alpha and bands over one conditional law.

    A subclass passes the structures of its k observed failures and sets the
    `_degenerate` message.
    """

    mode = "strict"

    def __init__(self, observed, system, copula, marginal):
        # num(*c, z), den(*c): the mixed partial in the k observed variables
        # of the ordered sum with the system, and of the observed sum alone
        variables = range(len(observed))
        self._num = _PatternSum(copula, *observed, system).partial(*variables)
        self._den = _PatternSum(copula, *observed).partial(*variables)
        self.marginal = marginal

    def _point(self, *times):
        """(horizon, c): the last observed time and F-bar at each; floats at a one-entry point."""
        times = _checked_times(times)
        c = tuple(self.marginal.sf(t) for t in times)
        return times[-1], tuple(map(float, c)) if type(times[-1]) is float else c

    def _law(self, *c):
        """z -> S(z | c) with the normalizers of c computed once, and alpha.

        alpha = S(F-bar(horizon) | c) before any renormalization; it is None
        in strict mode, where neither an atom nor the alive condition needs it.
        c is F-bar, in [0, 1]; den is checked, in Python at a one-entry point.
        """
        one = type(c[-1]) is float
        den = self._den.fold(*c)(None)
        # a subnormal den has lost digits, and the law divided by it drifts
        if not (math.isfinite(den) and abs(den) >= _TINY if one else
                np.all(np.isfinite(den) & (np.abs(den) >= _TINY))):
            raise DegenerateDenominator(self._degenerate)
        num = self._num.fold(*c)

        def law(z):
            return _clip_unit(num(z) / den)

        if self.mode == "strict":
            return law, None
        alpha = law(c[-1])
        if self.mode == "weak":
            return law, alpha
        void = alpha == 0.0 if one else np.any(alpha == 0.0)

        def alive(z):
            if void:
                raise ZeroAlpha("system cannot survive the conditioning time")
            return _clip_unit(law(z) / alpha)

        return alive, alpha

    def survival(self, y, *cond):
        """P(T > y | cond): 1 before the horizon."""
        horizon, c = self._point(*cond)
        law, _ = self._law(*c)
        y = np.asarray(y, dtype=float)
        # times before the horizon lie outside the ordered region: clamp,
        # then the y < horizon branch overrides with probability 1
        s = law(np.minimum(self.marginal.sf(y), c[-1]))
        out = np.where(y < horizon, 1.0, s)
        return float(out) if type(horizon) is float and y.ndim == 0 else out

    def alpha(self, *cond):
        """P(T > horizon | cond) before renormalization: the continuous share."""
        horizon, c = self._point(*cond)
        law, alpha = self._law(*c)
        alpha = law(c[-1]) if alpha is None else alpha
        return float(alpha) if type(horizon) is float else alpha

    def quantile(self, w, *cond):
        """Generalized inverse of the conditional survival at level w."""
        w = _as_level(w)
        horizon, c = self._point(*cond)
        law, alpha = self._law(*c)
        # levels at or above alpha sit in the atom at the horizon
        atom = w >= alpha if self.mode == "weak" else None
        if type(w) is float and type(horizon) is float:  # one entry
            y = float(self.marginal.inv_sf(_solve_one(law, c[-1], w, atom)))
            return horizon if atom else y
        shape = np.broadcast_shapes(np.shape(w), *(np.shape(x) for x in c))
        root = _solve_increasing(law, np.broadcast_to(c[-1], shape), w, skip=atom)
        y = self.marginal.inv_sf(root)
        return y if atom is None else np.where(atom, horizon, y)

    def median(self, *cond):
        return self.quantile(0.5, *cond)

    def mean(self, *cond):
        """Conditional mean: horizon + integral of the survival tail."""
        times = _checked_times(cond)
        one = type(times[-1]) is float
        shape = () if one else np.broadcast_shapes(*(np.shape(t) for t in times))
        # (1, 1) columns even at one point: F-bar in the array power of every mean (9(f))
        cols = [np.array([[t]]) if one else np.broadcast_to(t, shape).reshape(-1, 1)
                for t in times]
        sf = [self.marginal.sf(t) for t in cols]
        # every block's law, its den checked, before any integral (floats at one point)
        laws = [self._law(*(float(x[0, 0]) if one else x[i:i + MEAN_ROWS] for x in sf))[0]
                for i in range(0, len(sf[-1]), MEAN_ROWS)]
        out = _tail_mean(laws, self.marginal, cols[-1], sf[-1])
        return float(out[0]) if one else out.reshape(shape)

    def band(self, kind, level) -> PredictionBand:
        """Prediction band evaluators at the given coverage level."""
        low, high = _band_edges(kind, level)
        if low is None:
            lower = lambda *cond: self._point(*cond)[0]
        else:
            lower = lambda *cond: self.quantile(low, *cond)
        upper = lambda *cond: self.quantile(high, *cond)
        return PredictionBand(kind=kind, level=float(level), lower=lower, upper=upper)


class EarlyFailurePredictor(_PredictorCore):
    """Predict T from one observed early failure time.

    mode="strict": the observed failure can never be the system failure.
    mode="weak": it can; the law keeps an atom at the observed time.
    mode="alive": as weak, conditioned on the system having survived it.
    """

    _degenerate = ("den, the first failure's law derivative, is 0, subnormal or not "
                   "finite at the conditioning point")

    def __init__(self, first, system, copula, marginal, *, mode="strict"):
        if mode not in ("strict", "weak", "alive"):
            raise OutOfRange(f"mode must be 'strict', 'weak' or 'alive', got {mode!r}")
        super().__init__((first,), system, copula, marginal)
        self.mode = mode


class TwoFailurePredictor(_PredictorCore):
    """Predict T from the first two observed failure times t1 <= t2."""

    _degenerate = ("den, the mixed partial of the (T1, T2) law, is 0, subnormal or not "
                   "finite at the conditioning point")

    def __init__(self, first, second, system, copula, marginal):
        super().__init__((first, second), system, copula, marginal)


def system_mean(structure, copula, marginal):
    """E(T): the mean rule of the predictors with horizon 0 and law q-bar."""
    law = UnivariateDistortion(structure, copula).value
    return float(_tail_mean([law], marginal, np.zeros((1, 1)), np.ones((1, 1)))[0])


def _check_kofn(n, r, s):
    for name, val in (("n", n), ("r", r), ("s", s)):
        if not isinstance(val, (int, np.integer)):
            raise InvalidOrder(f"{name} must be an integer, got {val!r}")
    if not (1 <= r < s <= n):
        raise InvalidOrder(f"need 1 <= r < s <= n, got r={r}, s={s}, n={n}")


def _fewer_than(m, k, rho):
    """P(fewer than k of m lifetimes fail) when each survives with probability rho.

    sum_{j<k} C(m, j) (1-rho)^j rho^(m-j): increasing in rho, 0 at rho = 0
    and 1 at rho = 1.
    """
    total = 0.0
    for j in range(k):
        total = total + math.comb(m, j) * (1.0 - rho) ** j * rho ** (m - j)
    return total


def kofn_quantile_factor(n, r, s, w):
    """Survival-scale factor beta_w for predicting the s-th failure from the r-th.

    For IID components the conditional law of the s-th ordered failure given
    the r-th at t satisfies F-bar(y)/F-bar(t) = rho with survival
    P(fewer than s-r of the n-r survivors fail) (see `kofn_survival`); this
    solves that survival = w for rho on (0, 1].
    """
    _check_kofn(n, r, s)
    return _binomial_root(n - r, s - r, float(_as_level(w)))


def _binomial_root(m, k, w):
    """rho in (0, 1] with P(fewer than k of m lifetimes fail) = w, 0 < w < 1.

    Bisection over the ordered doubles of [0, 1] (`qr._bisect`, at most 62
    tail evaluations) for the first rho whose smaller tail reaches its level:
    P(fewer than k) >= w for w <= 1/2, else P(at least k) <= 1 - w, with
    P(at least k) taken as P(fewer than m - k + 1 survive) so that 1 - w
    keeps its digits.
    """
    if w <= 0.5:
        above = lambda i: _fewer_than(m, k, _unrank(i)) >= w
    else:
        above = lambda i: _fewer_than(m, m - k + 1, 1.0 - _unrank(i)) <= 1.0 - w
    return _unrank(_bisect(_rank(0.0), _rank(1.0), above)[1])


def kofn_survival(n, r, s, t, y, marginal):
    """P(s-th ordered failure > y | r-th ordered failure at t), IID components.

    Binomial form: the residual is the (s-r)-th order statistic of n-r fresh
    lifetimes, so with rho = F-bar(y)/F-bar(t) the survival is
    sum_{j<s-r} C(n-r, j) (1-rho)^j rho^(n-r-j).  As in `_binomial_root`, it
    sums the smaller tail: above 1/2 it is 1 - P(at least s-r of them fail),
    that tail taken as P(fewer than n-s+1 survive), so it never exceeds 1.
    """
    _check_kofn(n, r, s)
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.all(y >= t):
        raise OutOfRange("prediction time y must satisfy y >= t")
    sft = marginal.sf(t)
    if np.any(sft == 0.0):
        raise DegenerateDenominator("F-bar(t) = 0 at the conditioning time")
    rho = marginal.sf(y) / sft
    lower = _fewer_than(n - r, s - r, rho)
    upper = _fewer_than(n - r, n - s + 1, 1.0 - rho)
    out = np.where(lower > 0.5, 1.0 - upper, lower)
    return float(out) if out.ndim == 0 else out
