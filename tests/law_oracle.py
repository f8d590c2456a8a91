"""Test-side views of the laws the package evaluates without naming them.

`pdf(marginal, t)` is the closed-form density of an `Exponential` or
`Weibull` marginal, which checks `sf` by its slope.  `BivariateDistortion`
and `TrivariateDistortion` give named access to the joint distortions of
two and three ordered lifetimes: the predictors read the same laws from the
ordered term sums (`distortion._TermSum`) directly, and these classes add
only the region rules, so the closed forms in the tests check those sums.
"""

from functools import cached_property

import numpy as np

from syspredict import Exponential, UnivariateDistortion
from syspredict.distortion import _TermSum
from syspredict.errors import SysPredictError
from syspredict.marginal import _check_times


def pdf(marginal, t):
    """Density of an Exponential or Weibull marginal at lifetimes `t` >= 0."""
    t = _check_times(t)
    if isinstance(marginal, Exponential):
        return np.exp(-t / marginal.mean) / marginal.mean
    k, lam = marginal.shape, marginal.scale
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (t / lam) ** (k - 1.0)
    return (k / lam) * z * np.exp(-((t / lam) ** k))


class RegionError(SysPredictError, ValueError):
    """Evaluation point outside the supported region."""


class _Distortion:
    """The structures under the names in `roles`, the copula, and their term sum.

    Built as ``cls(*structures, copula)`` with the structures in variable
    order, the system last; the term sum is the law on the ordered region,
    and `_sums` holds its evaluators for the partials in `variables`, bound
    once here.
    """

    roles = ()
    variables = ()

    def __init__(self, *structures_and_copula):
        *structures, copula = structures_and_copula
        self._ordered = _TermSum(copula, *structures)
        self._sums = {v: self._ordered.partial(*v) for v in self.variables}
        for role, structure in zip(self.roles, structures, strict=True):
            setattr(self, role, structure)
        self.copula = copula
        self.n = copula.n

    @property
    def terms(self):
        """Ordered-region terms as (coeff, per-variable 1-based indices)."""
        return self._ordered.terms


class BivariateDistortion(_Distortion):
    """D-hat(u, v) for an ordered pair T1 <= T of system lifetimes.

    BivariateDistortion(first, system, copula).
    """

    roles = ("first", "system")
    variables = ((), (0,), (0, 1))

    @cached_property
    def tail(self):
        """The v > u branch: the T1 distortion."""
        return UnivariateDistortion(self.first, self.copula)

    def value(self, u, v):
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        return np.where(v <= u, self._sums[()](u, v), self.tail.value(u))

    def d1(self, u, v):
        """dD-hat/du, on the ordered branch at the kink u == v."""
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        return np.where(v <= u, self._sums[(0,)](u, v), self.tail.derivative(u))

    def d12(self, u, v):
        """Mixed partial on the ordered region (0 beyond it)."""
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        return np.where(v <= u, self._sums[(0, 1)](u, v), 0.0)


class TrivariateDistortion(_Distortion):
    """D-hat(u, v, w) for ordered lifetimes T1 <= T2 <= T.

    TrivariateDistortion(first, second, system, copula); defined on the
    ordered region u >= v >= w only.
    """

    roles = ("first", "second", "system")
    variables = ((), (0, 1))

    def _ordered_point(self, name, *values):
        u, v, w = (np.asarray(x, dtype=float) for x in values)
        if np.any(v > u) or np.any(w > v):
            raise RegionError(f"{name} requires the ordered region u >= v >= w")
        return u, v, w

    def value(self, u, v, w):
        return self._sums[()](*self._ordered_point("value", u, v, w))

    def d12(self, u, v, w):
        """Mixed partial in (u, v) on the ordered region."""
        return self._sums[(0, 1)](*self._ordered_point("d12", u, v, w))
