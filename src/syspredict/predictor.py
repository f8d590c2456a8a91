"""Conditional prediction of a system failure time from early failures.

Given the joint distortion D-hat of ordered lifetimes, conditioning on the
the first failure time T1 = t turns into ratios of partial derivatives in
(u, v) = (F-bar(t), F-bar(y)):

* strict ordering (the observed failure can never be the system failure):

      S(y | t) = [d1(u, v) - d1(u, 0+)] / d1(u, 1),   y >= t,

  where d1(u, 1) is the v > u branch, i.e. the derivative of the T1
  marginal distortion, and d1(u, 0+) removes any defect mass.

* weak ordering (the system may die exactly at the observed failure): the
  same ratio, now starting from S(t | t) = alpha(t) < 1, leaving an atom of
  size 1 - alpha(t) at y = t.

* weak ordering, system known alive at t: the weak law renormalized by
  alpha(t).

With two observed failure times t1 <= t2 the same ratios use the mixed
partial d12 of the trivariate distortion, normalized by the mixed partial
of the (T1, T2) boundary slice.

Each conditioning point's law z -> S(z | t) is built once per solve: the
denominator, the defect term d1(u, 0+) (or d12(u, v, 0+)) and alpha depend
only on the conditioning point, so every bisection step and quadrature node
evaluates just the numerator.

Quantiles invert the survival level in z = F-bar(y) space, where every law
is monotone on (0, F-bar(t)], by bisection to |dz| < 1e-12 (at most 200
iterations).  Centered level-gamma bands run from the (1+gamma)/2 to the
(1-gamma)/2 quantile; bottom bands run from the conditioning time to the
(1-gamma) quantile.
Mean curves integrate the survival function by adaptive quadrature after
substituting z = F-bar(y), which maps (t, inf) onto the bounded interval
(0, F-bar(t)); the tail below F-bar(y) = 1e-14 is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.special import betainc

from .distortion import BivariateDistortion, TrivariateDistortion, build_univariate
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


def _quad(f, a, b):
    out = integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-8, limit=200, full_output=1)
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
    """Shared quantile/median/mean/band machinery over a z-space law."""

    marginal = None

    # subclasses provide:
    #   _zhi(*cond)        F-bar at the conditioning horizon
    #   _law(*cond)        z -> conditional survival at z = F-bar(y), with the
    #                      normalizers of the conditioning point computed once
    #   _atom_mask(w, *cond)  mask of levels that sit in the atom at the horizon
    def _atom_mask(self, w, *cond):
        return None

    def survival(self, y, *cond):
        raise NotImplementedError

    def quantile(self, w, *cond):
        """Generalized inverse of the conditional survival at level w."""
        w = _as_level(w)
        zhi = self._zhi(*cond)
        shape = np.broadcast_shapes(np.shape(w), np.shape(zhi))
        w_b = np.broadcast_to(w, shape)
        zhi_b = np.broadcast_to(zhi, shape)
        atom = self._atom_mask(w_b, *cond)
        root = _bisect_increasing(self._law(*cond), zhi_b, w_b, skip=atom)
        y = self.marginal.inv_sf(root)
        if atom is not None:
            horizon = np.broadcast_to(self._horizon(*cond), shape)
            y = np.where(atom, horizon, y)
        return _scalar_like(y, w, *cond)

    def median(self, *cond):
        return self.quantile(0.5, *cond)

    def mean(self, *cond):
        """Conditional mean: horizon + integral of the survival tail."""
        shape = np.broadcast_shapes(*(np.shape(c) for c in cond))
        horizon = np.broadcast_to(np.asarray(self._horizon(*cond), dtype=float), shape)
        zhi = np.broadcast_to(np.asarray(self._zhi(*cond), dtype=float), shape)
        conds = [np.broadcast_to(np.asarray(c, dtype=float), shape) for c in cond]
        out = np.empty(shape)
        for ix in np.ndindex(shape):
            zmax = float(zhi[ix])
            tail = 0.0
            if zmax > ZCUT:  # an empty range evaluates no law
                law = self._law(*(c[ix] for c in conds))

                def integrand(z):
                    s = law(np.asarray(z))
                    return float(s) / float(self.marginal.pdf(self.marginal.inv_sf(z)))

                tail = _quad(integrand, ZCUT, zmax)
            out[ix] = horizon[ix] + tail
        return _scalar_like(out[()] if shape == () else out, *cond)

    def band(self, kind, level) -> PredictionBand:
        """Prediction band evaluators at the given coverage level."""
        level = float(level)
        if not 0.0 < level < 1.0:
            raise OutOfRange("band level must lie in (0, 1)")
        if kind == "centered":
            lower = lambda *cond: self.quantile((1.0 + level) / 2.0, *cond)
            upper = lambda *cond: self.quantile((1.0 - level) / 2.0, *cond)
        elif kind == "bottom":
            lower = lambda *cond: _scalar_like(
                np.asarray(self._horizon(*cond), dtype=float), *cond
            )
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

    # -- z-space law -------------------------------------------------------

    def _horizon(self, t):
        return t

    def _zhi(self, t):
        return self.marginal.sf(t)

    def _denominator(self, u):
        den = self.dist.d1(u, np.ones_like(np.asarray(u, dtype=float)), side="tail")
        if np.any(den == 0.0) or np.any(~np.isfinite(den)):
            raise DegenerateDenominator(
                "marginal distortion derivative of the first failure vanished"
            )
        return den

    def _law(self, t):
        u = np.asarray(self.marginal.sf(t), dtype=float)
        den = self._denominator(u)
        base = self.dist.d1_at_zero_plus(u)
        a = None
        if self.require_alive:
            a = self._alpha_from(u, den, base)
            if np.any(a == 0.0):
                raise ZeroAlpha("system cannot survive the conditioning time")

        def law(z):
            z = np.asarray(z, dtype=float)
            # d1(u, z) past the ordered region is its tail branch, which is den
            num = np.where(z <= u, self.dist.d1_ordered(u, z), den) - base
            s = np.clip(num / den, 0.0, 1.0)
            if a is not None:
                s = np.clip(s / a, 0.0, 1.0)
            return s

        return law

    def _alpha_from(self, u, den, base):
        return np.clip((self.dist.d1(u, u, side="ordered") - base) / den, 0.0, 1.0)

    def alpha(self, t):
        """P(T > t | T1 = t): the continuous share of the conditional law."""
        u = np.asarray(self.marginal.sf(t), dtype=float)
        a = self._alpha_from(u, self._denominator(u), self.dist.d1_at_zero_plus(u))
        return _scalar_like(a, t)

    def _atom_mask(self, w, t):
        if self.ordering != "weak" or self.require_alive:
            return None
        a = np.broadcast_to(np.asarray(self.alpha(t)), w.shape)
        return w >= a

    def survival(self, y, t):
        """P(T > y | T1 = t) (with survival conditioning if configured)."""
        y = np.asarray(y, dtype=float)
        t = np.asarray(t, dtype=float)
        z = self.marginal.sf(y)
        s = self._law(t)(z)
        before = (y < t) if not self.require_alive else (y <= t)
        out = np.where(before, 1.0, s)
        return _scalar_like(out, y, t)


class TwoFailurePredictor(_PredictorCore):
    """Predict T from the first two observed failure times t1 <= t2."""

    def __init__(self, first, second, system, copula, marginal):
        self.dist = TrivariateDistortion(first, second, system, copula)
        self.marginal = marginal

    def _check_cond(self, t1, t2):
        t1 = np.asarray(t1, dtype=float)
        t2 = np.asarray(t2, dtype=float)
        if np.any(t1 < 0) or np.any(t2 < t1):
            raise OutOfRange("conditioning times must satisfy 0 <= t1 <= t2")
        return t1, t2

    def _horizon(self, t1, t2):
        return t2

    def _zhi(self, t1, t2):
        self._check_cond(t1, t2)
        return self.marginal.sf(t2)

    def _law(self, t1, t2):
        t1, t2 = self._check_cond(t1, t2)
        u = np.asarray(self.marginal.sf(t1), dtype=float)
        v = np.asarray(self.marginal.sf(t2), dtype=float)
        den = self.dist.d12_boundary(u, v)
        if np.any(den == 0.0) or np.any(~np.isfinite(den)):
            raise DegenerateDenominator(
                "mixed partial of the (T1, T2) law vanished at the conditioning point"
            )
        base = self.dist.d12_at_zero_plus(u, v)

        def law(z):
            num = self.dist.d12(u, v, np.asarray(z, dtype=float)) - base
            return np.clip(num / den, 0.0, 1.0)

        return law

    def survival(self, y, t1, t2):
        """P(T > y | T1 = t1, T2 = t2)."""
        t1, t2 = self._check_cond(t1, t2)
        y = np.asarray(y, dtype=float)
        # times before t2 land outside the ordered region; clamp, then the
        # y < t2 branch overrides with probability 1
        z = np.minimum(self.marginal.sf(y), self.marginal.sf(t2))
        s = self._law(t1, t2)(z)
        out = np.where(y < t2, 1.0, s)
        return _scalar_like(out, y, t1, t2)


def system_mean(structure, copula, marginal):
    """E(T) by quadrature of the univariate distortion in survival scale."""
    q = build_univariate(structure, copula)

    def integrand(z):
        return float(q.value(np.asarray(z))) / float(
            marginal.pdf(marginal.inv_sf(z))
        )

    return _quad(integrand, ZCUT, 1.0)


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
    survival I_rho(n-s+1, s-r); this solves I_rho = w for rho by monotone
    bisection on the regularized incomplete beta function (|d rho| < 1e-10).
    """
    _check_kofn(n, r, s)
    w = float(_as_level(w))
    lo, hi = 0.0, 1.0
    while hi - lo >= 1e-10:
        mid = 0.5 * (lo + hi)
        if betainc(n - s + 1, s - r, mid) < w:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
