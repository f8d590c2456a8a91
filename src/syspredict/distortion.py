"""Distortion representations of system-lifetime laws.

Write q-bar for the univariate distortion of a system lifetime T with
minimal path sets P_1..P_r under survival copula C-hat:

    P(T > t) = q-bar(F-bar(t)),
    q-bar(u) = sum over nonempty subfamilies S of (-1)^(|S|+1)
               C-hat(u at union(S), 1 elsewhere).

For two ordered lifetimes T1 <= T built on the same components, the joint
survival P(T1 > x, T > y) is a bivariate distortion D-hat(u, v) of
(u, v) = (F-bar(x), F-bar(y)).  On the ordered region v <= u (that is,
x <= y) it expands over pairs of subfamilies: coordinates in P = union(S)
carry v, coordinates in union(S*) \\ P carry u, the rest are pinned to 1.
On v > u the joint event degenerates to {T1 > x}, so D-hat(u, v) =
q-bar_T1(u), the distortion exposed as `tail`.  The first partial
d1 = dD-hat/du feeds the conditional laws; its limit as v -> 0+ captures any
defect mass, and its v > u branch is the density transform q-bar_T1'(u)
(`tail.derivative`) that normalizes them.  d1 has a kink across u = v; at
equality it takes the ordered branch, which `d1_ordered` evaluates alone.

With three ordered lifetimes T1 <= T2 <= T the same expansion runs over
triples of subfamilies on the ordered region w <= v <= u; each coordinate
takes the variable of the innermost union containing it (w for the system,
then v, then u, else 1).  The mixed partial d12 drives conditioning on the
first two failure times; its normalizing denominator is the mixed partial
of the (T1, T2) bivariate distortion, exposed as `d12_boundary`.

Every expansion is the product of the structures' merged univariate
expansions (SystemStructure.inclusion_exclusion), merged again over equal
coordinate patterns with zero coefficients dropped.  A product of more
than TERM_BUDGET = 2^20 merged terms is refused.
"""

from __future__ import annotations

from itertools import product
from math import prod

import numpy as np

from .copula import SurvivalCopula
from .errors import DimensionMismatch, RegionError, TermLimitExceeded
from .structure import TERM_BUDGET, SystemStructure

CELLS = 1 << 16  # copula-argument cells (points x rows x n) per stacked call


def _ids(mask):
    return tuple(i for i in range(64) if mask >> i & 1)


def _check_same_n(copula, *structures):
    n = copula.n
    for s in structures:
        if s.n != n:
            raise DimensionMismatch(
                f"structure has {s.n} components but the copula has {n}"
            )


def _merge(acc):
    # deterministic order: coordinate pattern sorted, zero coefficients dropped
    return tuple(
        (coeff, key) for key, coeff in sorted(acc.items()) if coeff != 0
    )


def _joint_terms(*structures):
    """Merged joint expansion of structures given in variable order, system last.

    The product of the structures' merged expansions, keyed by one mask per
    variable: a coordinate in the system's union carries the system's
    variable, else one in the union before it carries that variable, and so
    on back to the first structure (the innermost union containing it).
    """
    expansions = [s.inclusion_exclusion().terms for s in structures]
    size = prod(len(e) for e in expansions)
    if size > TERM_BUDGET:
        raise TermLimitExceeded(
            f"{size} joint terms exceed the 2^20 term budget"
        )
    acc = {}
    for combo in product(*reversed(expansions)):
        coeff, taken, masks = 1, 0, []
        for c, m in combo:
            coeff *= c
            masks.append(m & ~taken)
            taken |= m
        key = tuple(reversed(masks))
        acc[key] = acc.get(key, 0) + coeff
    return _merge(acc)


class _TermSum:
    """Signed sum of copula slices sharing a variable layout.

    Term k is the copula at the point whose coordinate i carries variable
    ``layout[k, i]``, or 1 where that entry is -1.  Each evaluation gathers
    the points of all its rows (one per term for `value`, one per term and
    differentiated coordinate or coordinate pair for the partials) into one
    stacked array and makes one copula call, `eval` or a masked `partial`,
    per chunk of at most CELLS cells (points x rows x n).  Rows are added in
    term order by a running sum, so a total equals the term-by-term loop
    bit for bit.
    """

    def __init__(self, copula: SurvivalCopula, terms):
        # terms: ((coeff, (mask_per_variable, ...)), ...); variables ordered
        # innermost-first when evaluating
        self.copula = copula
        self.n = copula.n
        self._terms = tuple(
            (coeff, tuple(_ids(m) for m in masks)) for coeff, masks in terms
        )
        self._coeffs = np.array([c for c, _ in self._terms], dtype=float)
        self._layout = np.full((len(self._terms), self.n), -1, dtype=np.intp)
        for k, (_, ids) in enumerate(self._terms):
            for var, axis_ids in enumerate(ids):
                self._layout[k, list(axis_ids)] = var
        self._plans = {}

    def _plan(self, var_a=None, var_b=None):
        """(layout, mask, coeffs) of the rows of one sum, built on first use.

        No variable: one row per term, no mask (`eval`).  One variable: a row
        per term and coordinate carrying it.  Two: a row per term and
        coordinate pair carrying them.  Rows follow term order, coordinates
        ascending within a term.
        """
        key = (var_a, var_b)
        plan = self._plans.get(key)
        if plan is None:
            if var_a is None:
                rows = [(k, ()) for k in range(len(self._terms))]
            elif var_b is None:
                rows = [(k, (i,)) for k, (_, ids) in enumerate(self._terms)
                        for i in ids[var_a]]
            else:
                rows = [(k, (i, j)) for k, (_, ids) in enumerate(self._terms)
                        for i in ids[var_a] for j in ids[var_b]]
            terms = np.array([k for k, _ in rows], dtype=np.intp)
            mask = None
            if var_a is not None:
                mask = np.zeros((len(rows), self.n), dtype=bool)
                for r, (_, coords) in enumerate(rows):
                    mask[r, list(coords)] = True
            plan = (self._layout[terms], mask, self._coeffs[terms])
            self._plans[key] = plan
        return plan

    def _sum(self, plan, values):
        layout, mask, coeffs = plan
        shape = np.broadcast_shapes(*(np.shape(v) for v in values))
        # slot -1 holds the 1 that pinned coordinates take
        table = np.stack(
            [np.broadcast_to(np.asarray(v, dtype=float), shape) for v in values]
            + [np.ones(shape)],
            axis=-1,
        )
        total = np.zeros(shape)
        step = max(1, CELLS // (max(1, total.size) * self.n))
        for lo in range(0, len(coeffs), step):
            rows = slice(lo, lo + step)
            points = table[..., layout[rows]]
            if mask is None:
                part = self.copula.eval(points)
            else:
                part = self.copula.partial(mask[rows], points)
            summands = coeffs[rows] * part
            summands[..., 0] += total
            total = np.cumsum(summands, axis=-1)[..., -1]
        return total

    def value(self, *values):
        return self._sum(self._plan(), values)

    def d_var(self, var, *values):
        """Sum of first partials over the coordinates carrying variable `var`."""
        return self._sum(self._plan(var), values)

    def d_mixed(self, var_a, var_b, *values):
        """Sum of mixed partials over coordinate pairs carrying two variables."""
        return self._sum(self._plan(var_a, var_b), values)

    @property
    def terms(self):
        """(coeff, per-variable 1-based index tuples) for inspection."""
        return tuple(
            (coeff, tuple(tuple(i + 1 for i in axis) for axis in ids))
            for coeff, ids in self._terms
        )


class UnivariateDistortion:
    """q-bar for one system lifetime: P(T > t) = q-bar(F-bar(t))."""

    def __init__(self, structure: SystemStructure, copula: SurvivalCopula):
        _check_same_n(copula, structure)
        self.structure = structure
        self.copula = copula
        expansion = structure.inclusion_exclusion()
        self._sum = _TermSum(copula, tuple((c, (m,)) for c, m in expansion.terms))

    @property
    def terms(self):
        return self._sum.terms

    def value(self, u):
        return self._sum.value(u)

    def derivative(self, u):
        return self._sum.d_var(0, u)


class BivariateDistortion:
    """D-hat(u, v) for an ordered pair T1 <= T of system lifetimes."""

    def __init__(self, first, system, copula):
        _check_same_n(copula, first, system)
        self.first = first
        self.system = system
        self.copula = copula
        self.n = copula.n
        self._ordered = _TermSum(copula, _joint_terms(first, system))
        # v > u branch: the T1 distortion
        self.tail = UnivariateDistortion(first, copula)

    @property
    def terms(self):
        """Ordered-region terms as (coeff, (u indices, v indices))."""
        return self._ordered.terms

    def value(self, u, v):
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        return np.where(v <= u, self._ordered.value(u, v), self.tail.value(u))

    def d1(self, u, v):
        """dD-hat/du, on the ordered branch at the kink u == v."""
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        return np.where(v <= u, self.d1_ordered(u, v), self.tail.derivative(u))

    def d1_ordered(self, u, v):
        """The ordered-region branch of d1, evaluated at every (u, v) given.

        Equal to d1 wherever v <= u; beyond that, d1 is the tail branch,
        which depends on u alone.
        """
        return self._ordered.d_var(0, np.asarray(u, dtype=float), np.asarray(v, dtype=float))

    def d1_at_zero_plus(self, u):
        """Term-by-term limit of d1(u, v) as v -> 0+ (defect mass at infinity)."""
        u = np.asarray(u, dtype=float)
        return self._ordered.d_var(0, u, np.zeros_like(u))

    def d12(self, u, v):
        """Mixed partial on the ordered region (0 beyond it)."""
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        return np.where(v <= u, self._ordered.d_mixed(0, 1, u, v), 0.0)


class TrivariateDistortion:
    """D-hat(u, v, w) for ordered lifetimes T1 <= T2 <= T."""

    def __init__(self, first, second, system, copula):
        _check_same_n(copula, first, second, system)
        self.first = first
        self.second = second
        self.system = system
        self.copula = copula
        self.n = copula.n
        self._ordered = _TermSum(copula, _joint_terms(first, second, system))
        # w -> 1 boundary: the (T1, T2) joint law
        self._pair = BivariateDistortion(first, second, copula)

    @property
    def terms(self):
        """Ordered-region terms as (coeff, (u indices, v indices, w indices))."""
        return self._ordered.terms

    def value(self, u, v, w):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        w = np.asarray(w, dtype=float)
        if np.any(v > u) or np.any(w > v):
            raise RegionError("value requires the ordered region u >= v >= w")
        return self._ordered.value(u, v, w)

    def boundary_value(self, u, v):
        """D-hat(u, v, 1): the (T1, T2) bivariate distortion."""
        return self._pair.value(u, v)

    def d12(self, u, v, w):
        """Mixed partial in (u, v) on the ordered region."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        w = np.asarray(w, dtype=float)
        if np.any(v > u) or np.any(w > v):
            raise RegionError("d12 requires the ordered region u >= v >= w")
        return self._ordered.d_mixed(0, 1, u, v, w)

    def d12_at_zero_plus(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return self._ordered.d_mixed(0, 1, u, v, np.zeros(np.broadcast_shapes(u.shape, v.shape)))

    def d12_boundary(self, u, v):
        """Mixed partial of the w -> 1 boundary slice (the (T1,T2) law)."""
        return self._pair.d12(u, v)
