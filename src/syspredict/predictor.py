"""Conditional prediction of a system failure time from early failures.

Every conditioning case is one ratio of distortion partials.  Write c for
the conditioning point in survival scale and z = F-bar(y); then

      S(z | c) = [num(c, z) - base(c)] / den(c),   z <= F-bar(horizon),

where the horizon is the last observed time and base(c) = num(c, 0+)
removes any defect mass.

* one failure T1 = t, c = (u,) = (F-bar(t),): num is d1(u, z) on its
  ordered branch, den = q-bar_T1'(u) is the derivative of the T1 marginal
  distortion (the v > u branch of d1).
* two failures t1 <= t2, c = (u, v): num is the mixed partial d12(u, v, z)
  of the trivariate distortion, den the mixed partial of the (T1, T2)
  boundary slice.

Strict ordering (the observed failure can never be the system failure)
uses S as it is.  Weak ordering (the system may die exactly at the
observed failure) starts from S(F-bar(t) | c) = alpha(t) < 1, leaving an
atom of size 1 - alpha(t) at y = t; `require_alive=True` conditions on the
system having survived and renormalizes the law by alpha(t).

Each conditioning point's law is built once per solve: den, base and alpha
depend only on c, so every bisection step and quadrature node evaluates
just the numerator.  Subclasses name the three distortion callables and map
their conditioning times to (horizon, c); quantiles, means, survival,
alpha and bands are shared.

Quantiles invert the survival level in z space, where every law is
monotone on (0, F-bar(horizon)], by bisection to |dz| < 1e-12 (at most 200
iterations).  Centered level-gamma bands run from the (1+gamma)/2 to the
(1-gamma)/2 quantile; bottom bands run from the horizon to the (1-gamma)
quantile.
Mean curves integrate the survival function by adaptive quadrature after
substituting z = F-bar(y), which maps (horizon, inf) onto the bounded
interval (0, F-bar(horizon)); the tail below F-bar(y) = 1e-14 is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.special import betaincinv

from .distortion import BivariateDistortion, TrivariateDistortion, UnivariateDistortion
from .errors import (
    DegenerateDenominator,
    InvalidOrder,
    NotInvertible,
    OutOfRange,
    QuadratureFailure,
    ZeroAlpha,
)

ZCUT = 1e-14  # quadrature tail cutoff in survival scale
BISECT_TOL = 1e-12
BISECT_MAX = 200


def _as_level(w):
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0) or np.any(w >= 1):
        raise OutOfRange("survival levels must lie strictly inside (0, 1)")
    return w


def _scalar_like(out, *inputs):
    if all(np.ndim(x) == 0 for x in inputs):
        return float(np.asarray(out))
    return out


def _bisect_increasing(f, hi, target, skip=None):
    """Vectorized bisection for f increasing in z on [0, hi], f(z*) = target."""
    hi = np.asarray(hi, dtype=float)
    target = np.broadcast_to(np.asarray(target, dtype=float), hi.shape)
    lo = np.zeros_like(hi)
    hi = hi.copy()
    active = np.ones(hi.shape, dtype=bool) if skip is None else ~skip
    if np.any(f(hi)[active] < target[active]):
        raise NotInvertible("survival level cannot be bracketed on (0, F-bar(t)]")
    for _ in range(BISECT_MAX):
        if np.all((hi - lo) < BISECT_TOL):
            break
        mid = 0.5 * (lo + hi)
        go_up = f(mid) < target
        lo = np.where(go_up, mid, lo)
        hi = np.where(go_up, hi, mid)
    return 0.5 * (lo + hi)


def _tail_integral(law, marginal, zmax):
    """Integral over y of the survival law z -> law(z), substituting z = F-bar(y)."""

    def integrand(z):
        return float(law(np.asarray(z))) / float(marginal.pdf(marginal.inv_sf(z)))

    out = integrate.quad(integrand, ZCUT, zmax, epsabs=1e-13, epsrel=1e-8, limit=200,
                         full_output=1)
    if len(out) > 3:
        raise QuadratureFailure(out[3])
    return out[0]


@dataclass(frozen=True)
class PredictionBand:
    """Lower/upper curve evaluators over the conditioning times."""

    kind: str
    level: float
    lower: Callable
    upper: Callable


class _PredictorCore:
    """Quantile, mean, survival, alpha and bands over one conditional law.

    A subclass sets, in `__init__`, the distortion callables `_num(*c, z)`,
    `_base(*c)` and `_den(*c)` and the `_degenerate` message, and defines
    `_point(*cond) -> (horizon, c)`: the last observed time and the
    conditioning point in survival scale, whose last entry is F-bar(horizon).
    """

    marginal = None
    ordering = "strict"
    require_alive = False

    def _law(self, *c):
        """z -> S(z | c) with the normalizers of c computed once, and alpha.

        alpha = S(F-bar(horizon) | c) before any renormalization; it is None
        when neither an atom nor the alive condition needs it.
        """
        den = self._den(*c)
        if np.any(den == 0.0) or np.any(~np.isfinite(den)):
            raise DegenerateDenominator(self._degenerate)
        base = self._base(*c)

        def law(z):
            return np.clip((self._num(*c, np.asarray(z, dtype=float)) - base) / den, 0.0, 1.0)

        if self.ordering == "strict" and not self.require_alive:
            return law, None
        alpha = law(c[-1])
        if not self.require_alive:
            return law, alpha
        void = np.any(alpha == 0.0)

        def alive(z):
            if void:
                raise ZeroAlpha("system cannot survive the conditioning time")
            return np.clip(law(z) / alpha, 0.0, 1.0)

        return alive, alpha

    def survival(self, y, *cond):
        """P(T > y | cond): 1 before the horizon."""
        horizon, c = self._point(*cond)
        law, _ = self._law(*c)
        y = np.asarray(y, dtype=float)
        # times before the horizon lie outside the ordered region: clamp,
        # then the y < horizon branch overrides with probability 1
        s = law(np.minimum(self.marginal.sf(y), c[-1]))
        return _scalar_like(np.where(y < horizon, 1.0, s), y, *cond)

    def alpha(self, *cond):
        """P(T > horizon | cond) before renormalization: the continuous share."""
        _, c = self._point(*cond)
        law, alpha = self._law(*c)
        return _scalar_like(law(c[-1]) if alpha is None else alpha, *cond)

    def quantile(self, w, *cond):
        """Generalized inverse of the conditional survival at level w."""
        w = _as_level(w)
        horizon, c = self._point(*cond)
        law, alpha = self._law(*c)
        shape = np.broadcast_shapes(np.shape(w), np.shape(c[-1]))
        w_b = np.broadcast_to(w, shape)
        # levels at or above alpha sit in the atom at the horizon
        atom = None if self.require_alive or alpha is None else w_b >= alpha
        root = _bisect_increasing(law, np.broadcast_to(c[-1], shape), w_b, skip=atom)
        y = self.marginal.inv_sf(root)
        if atom is not None:
            y = np.where(atom, horizon, y)
        return _scalar_like(y, w, *cond)

    def median(self, *cond):
        return self.quantile(0.5, *cond)

    def mean(self, *cond):
        """Conditional mean: horizon + integral of the survival tail."""
        shape = np.broadcast_shapes(*(np.shape(x) for x in cond))
        horizon, c = self._point(*cond)
        horizon = np.broadcast_to(horizon, shape)
        zhi = np.broadcast_to(c[-1], shape)
        conds = [np.broadcast_to(np.asarray(x, dtype=float), shape) for x in cond]
        out = np.empty(shape)
        for ix in np.ndindex(shape):
            tail = 0.0
            if zhi[ix] > ZCUT:  # an empty range evaluates no law
                # the point's law from its own times, as a scalar call builds it
                law, _ = self._law(*self._point(*(x[ix] for x in conds))[1])
                tail = _tail_integral(law, self.marginal, float(zhi[ix]))
            out[ix] = horizon[ix] + tail
        return _scalar_like(out, *cond)

    def band(self, kind, level) -> PredictionBand:
        """Prediction band evaluators at the given coverage level."""
        level = float(level)
        if not 0.0 < level < 1.0:
            raise OutOfRange("band level must lie in (0, 1)")
        if kind == "centered":
            lower = lambda *cond: self.quantile((1.0 + level) / 2.0, *cond)
            upper = lambda *cond: self.quantile((1.0 - level) / 2.0, *cond)
        elif kind == "bottom":
            lower = lambda *cond: _scalar_like(self._point(*cond)[0], *cond)
            upper = lambda *cond: self.quantile(1.0 - level, *cond)
        else:
            raise OutOfRange(f"band kind must be 'centered' or 'bottom', got {kind!r}")
        return PredictionBand(kind=kind, level=level, lower=lower, upper=upper)


class EarlyFailurePredictor(_PredictorCore):
    """Predict T from one observed early failure time.

    ordering="strict": the observed failure can never be the system failure.
    ordering="weak": it can; the law keeps an atom at the observed time
    unless ``require_alive=True`` conditions on the system having survived.
    """

    def __init__(self, first, system, copula, marginal, *, ordering="strict",
                 require_alive=False):
        if ordering not in ("strict", "weak"):
            raise OutOfRange(f"ordering must be 'strict' or 'weak', got {ordering!r}")
        self.dist = BivariateDistortion(first, system, copula)
        self.marginal = marginal
        self.ordering = ordering
        self.require_alive = bool(require_alive)
        self._num = self.dist.d1_ordered
        self._base = self.dist.d1_at_zero_plus
        self._den = self.dist.tail.derivative
        self._degenerate = "marginal distortion derivative of the first failure vanished"

    def _point(self, t):
        t = np.asarray(t, dtype=float)
        return t, (self.marginal.sf(t),)


class TwoFailurePredictor(_PredictorCore):
    """Predict T from the first two observed failure times t1 <= t2."""

    def __init__(self, first, second, system, copula, marginal):
        self.dist = TrivariateDistortion(first, second, system, copula)
        self.marginal = marginal
        self._num = self.dist.d12
        self._base = self.dist.d12_at_zero_plus
        self._den = self.dist.d12_boundary
        self._degenerate = "mixed partial of the (T1, T2) law vanished at the conditioning point"

    def _point(self, t1, t2):
        t1 = np.asarray(t1, dtype=float)
        t2 = np.asarray(t2, dtype=float)
        if np.any(t1 < 0) or np.any(t2 < t1):
            raise OutOfRange("conditioning times must satisfy 0 <= t1 <= t2")
        return t2, (self.marginal.sf(t1), self.marginal.sf(t2))


def system_mean(structure, copula, marginal):
    """E(T) by quadrature of the univariate distortion in survival scale."""
    return _tail_integral(UnivariateDistortion(structure, copula).value, marginal, 1.0)


def _check_kofn(n, r, s):
    for name, val in (("n", n), ("r", r), ("s", s)):
        if not isinstance(val, (int, np.integer)):
            raise InvalidOrder(f"{name} must be an integer, got {val!r}")
    if not (1 <= r < s <= n):
        raise InvalidOrder(f"need 1 <= r < s <= n, got r={r}, s={s}, n={n}")


def kofn_quantile_factor(n, r, s, w):
    """Survival-scale factor beta_w for predicting the s-th failure from the r-th.

    For exchangeable-free residual lifetimes the conditional law of the s-th
    ordered failure given the r-th at t satisfies F-bar(y)/F-bar(t) = rho with
    survival I_rho(n-s+1, s-r); this solves I_rho = w for rho with the inverse
    regularized incomplete beta function.
    """
    _check_kofn(n, r, s)
    return float(betaincinv(n - s + 1, s - r, float(_as_level(w))))


def kofn_survival(n, r, s, t, y, marginal):
    """P(s-th ordered failure > y | r-th ordered failure at t), IID components.

    Binomial form: the residual is the (s-r)-th order statistic of n-r fresh
    lifetimes, so with rho = F-bar(y)/F-bar(t) the survival is
    sum_{j<s-r} C(n-r, j) (1-rho)^j rho^(n-r-j).
    """
    _check_kofn(n, r, s)
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y < t):
        raise OutOfRange("prediction time y must satisfy y >= t")
    sft = marginal.sf(t)
    if np.any(sft == 0.0):
        raise DegenerateDenominator("F-bar(t) = 0 at the conditioning time")
    rho = marginal.sf(y) / sft
    m = n - r
    total = np.zeros(np.broadcast_shapes(t.shape, y.shape))
    for j in range(s - r):
        total = total + math.comb(m, j) * (1.0 - rho) ** j * rho ** (m - j)
    return _scalar_like(total, t, y)
