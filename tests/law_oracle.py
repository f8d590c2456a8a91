"""Test-side views of the laws the package evaluates without naming them.

`pdf(marginal, t)` is the closed-form density of an `Exponential` or
`Weibull` marginal, which checks `sf` by its slope.  `oracle_sum` is the
term-by-term loop over an ordered expansion: one copula point and one `eval`
or `fd_oracle.partial` call per term and differentiated coordinate (or
pair), added in term order.  `BivariateDistortion` and
`TrivariateDistortion` give named access to the joint distortions of two
and three ordered lifetimes: the predictors read the same laws from the
count-pattern sums (`distortion._PatternSum`) directly, and these classes
read those sums where at most one variable is free, `oracle_sum` otherwise,
and add only the region rules, so the closed forms in the tests check those
sums.  `empirical_conditional_check` is the Monte Carlo oracle: the
empirical conditional survival of a simulated sample in a thin conditioning
bin against a predictor's analytic law.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from syspredict import Exponential, UnivariateDistortion
from syspredict.distortion import _joint_terms, _PatternSum
from syspredict.errors import OutOfRange, SysPredictError
from syspredict.marginal import _check_times
from syspredict.structure import _indices

from fd_oracle import partial

MIN_BIN_ROWS = 500


def pdf(marginal, t):
    """Density of an Exponential or Weibull marginal at lifetimes `t` >= 0."""
    t = _check_times(t)
    if isinstance(marginal, Exponential):
        return np.exp(-t / marginal.mean) / marginal.mean
    k, lam = marginal.shape, marginal.scale
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (t / lam) ** (k - 1.0)
    return (k / lam) * z * np.exp(-((t / lam) ** k))


def oracle_sum(copula, terms, values, var_a=None, var_b=None):
    """The per-term loop: the value with no variable, a partial in one or two.

    Also returns the sum of |coeff * part| over the summands, the scale of
    the rounding in the sum.
    """
    shape = np.broadcast_shapes(*(np.shape(v) for v in values))
    vals = [np.broadcast_to(np.asarray(v), shape) for v in values]
    total = np.zeros(shape)
    scale = np.zeros(shape)
    for coeff, masks in terms:
        ids = [_indices(m) for m in masks]
        point = np.ones(shape + (copula.n,))
        for axis_ids, val in zip(ids, vals):
            for i in axis_ids:
                point[..., i - 1] = val
        if var_a is None:
            parts = [copula.eval(point)]
        elif var_b is None:
            parts = [partial(copula, (i,), point) for i in ids[var_a]]
        else:
            parts = [partial(copula, (i, j), point) for i in ids[var_a] for j in ids[var_b]]
        for part in parts:
            total += coeff * part
            scale += np.abs(coeff * part)
    return total, scale


class RegionError(SysPredictError, ValueError):
    """Evaluation point outside the supported region."""


class InsufficientBinCount(SysPredictError, ValueError):
    """Too few sample rows fall inside the conditioning bin."""


class _Distortion:
    """The structures under the names in `roles`, the copula, and their sums.

    Built as ``cls(*structures, copula)`` with the structures in variable
    order, the system last; the sum is the law on the ordered region, and
    `_sums` holds its evaluators for the partials in `variables`, bound once
    here: the count-pattern sum's where at most one variable is free, else
    the per-term loop.
    """

    roles = ()
    variables = ()

    def __init__(self, *structures_and_copula):
        *structures, copula = structures_and_copula
        self._terms = _joint_terms(*structures)
        ordered = _PatternSum(copula, *structures)
        self._sums = {v: ordered.partial(*v) if len(structures) - len(v) <= 1
                      else (lambda *values, v=v: oracle_sum(copula, self._terms, values, *v)[0])
                      for v in self.variables}
        for role, structure in zip(self.roles, structures, strict=True):
            setattr(self, role, structure)
        self.copula = copula
        self.n = copula.n

    @property
    def terms(self):
        """Ordered-region terms as (coeff, per-variable 1-based indices)."""
        return tuple((coeff, tuple(_indices(m) for m in masks)) for coeff, masks in self._terms)


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

    @cached_property
    def tail_d1(self):
        """The T1 distortion's derivative, the v > u branch of `d1`."""
        return _PatternSum(self.copula, self.first).partial(0)

    def value(self, u, v):
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        return np.where(v <= u, self._sums[()](u, v), self.tail.value(u))

    def d1(self, u, v):
        """dD-hat/du, on the ordered branch at the kink u == v."""
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        return np.where(v <= u, self._sums[(0,)](u, v), self.tail_d1(u))

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


@dataclass(frozen=True)
class ConditionalCheck:
    rows: int
    y: np.ndarray
    empirical: np.ndarray
    model: np.ndarray

    @property
    def deviation(self):
        return float(np.max(np.abs(self.empirical - self.model)))


def empirical_conditional_check(sample, predictor, t1_bin, y_grid,
                                t2_bin=None) -> ConditionalCheck:
    """Empirical conditional survival in a thin bin vs the analytic law.

    Rows whose first failure falls in `t1_bin` (and, for two-failure
    predictors, whose second falls in `t2_bin`) form the empirical
    conditional sample; the analytic law is evaluated at the bin centers.
    """
    lo, hi = float(t1_bin[0]), float(t1_bin[1])
    mask = (sample.t1 >= lo) & (sample.t1 < hi)
    cond = [0.5 * (lo + hi)]
    if t2_bin is not None:
        if sample.t2 is None:
            raise OutOfRange("sample has no second failure times")
        lo2, hi2 = float(t2_bin[0]), float(t2_bin[1])
        mask &= (sample.t2 >= lo2) & (sample.t2 < hi2)
        cond.append(0.5 * (lo2 + hi2))
    if predictor.mode == "alive":
        mask &= sample.t > sample.t1
    rows = int(np.sum(mask))
    if rows < MIN_BIN_ROWS:
        raise InsufficientBinCount(
            f"{rows} rows in the conditioning bin, need >= {MIN_BIN_ROWS}"
        )
    y = np.asarray(y_grid, dtype=float)
    t_rows = sample.t[mask]
    empirical = np.mean(t_rows[:, None] > y[None, :], axis=0)
    model = np.asarray(predictor.survival(y, *cond), dtype=float)
    return ConditionalCheck(rows=rows, y=y, empirical=empirical, model=model)
