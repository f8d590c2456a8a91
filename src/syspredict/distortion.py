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
q-bar_T1(u).  The first partial d1 = dD-hat/du has a kink across u = v;
at equality it takes the ordered branch.  With three ordered lifetimes
T1 <= T2 <= T the same expansion runs over triples of subfamilies on the
ordered region w <= v <= u; each coordinate takes the variable of the
innermost union containing it (w for the system, then v, then u, else 1).

All of these are one object, `_TermSum`: the signed sum over the joint
expansion of k structures, whose `partial(*variables)` evaluates any mixed
partial in distinct variables (none: the value).  The predictors read their
conditional laws from `_TermSum` directly; `UnivariateDistortion` names
q-bar for one system lifetime.

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
from .errors import DimensionMismatch, TermLimitExceeded
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


def _joint_terms(*structures):
    """Merged joint expansion of structures given in variable order, system last.

    The product of the structures' merged expansions, keyed by one mask per
    variable: a coordinate in the system's union carries the system's
    variable, else one in the union before it carries that variable, and so
    on back to the first structure (the innermost union containing it).
    Joint terms are sorted by their masks, zero coefficients dropped; one
    structure keeps its expansion's own term order.
    """
    expansions = [s.inclusion_exclusion() for s in structures]
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
    items = sorted(acc.items()) if len(structures) > 1 else acc.items()
    return tuple((coeff, key) for key, coeff in items if coeff != 0)


class _TermSum:
    """Signed sum of copula slices over the joint expansion of some structures.

    Term k is the copula at the point whose coordinate i carries variable
    ``layout[k, i]``, or 1 where that entry is -1; the variables follow the
    structures' order.  Each evaluation gathers the points of all its rows
    (one per term and choice of differentiated coordinates) into one
    stacked array and makes one call of the copula's law kernel per chunk of
    at most CELLS cells (points x rows x n); a row's mask marks the
    coordinates it differentiates, none for the value.  Rows are added in
    term order by a running sum, so a total equals the term-by-term loop bit
    for bit.
    """

    def __init__(self, copula: SurvivalCopula, *structures: SystemStructure):
        _check_same_n(copula, *structures)
        self.copula = copula
        self.n = copula.n
        self._terms = tuple(
            (coeff, tuple(_ids(m) for m in masks))
            for coeff, masks in _joint_terms(*structures)
        )
        self._coeffs = np.array([c for c, _ in self._terms], dtype=float)
        self._layout = np.full((len(self._terms), self.n), -1, dtype=np.intp)
        for k, (_, ids) in enumerate(self._terms):
            for var, axis_ids in enumerate(ids):
                self._layout[k, list(axis_ids)] = var
        self._plans = {}

    def _plan(self, *variables):
        """(layout, mask, coeffs) of the rows of one sum, built on first use.

        A row per term and choice of one coordinate carrying each given
        variable (a row per term when none is given), differentiated in the
        chosen coordinates.  Rows follow term order, choices in
        lexicographic order within a term.
        """
        plan = self._plans.get(variables)
        if plan is None:
            rows = [(k, coords) for k, (_, ids) in enumerate(self._terms)
                    for coords in product(*(ids[var] for var in variables))]
            terms = np.array([k for k, _ in rows], dtype=np.intp)
            mask = np.zeros((len(rows), self.n), dtype=bool)
            for r, (_, coords) in enumerate(rows):
                mask[r, list(coords)] = True
            plan = (self._layout[terms], mask, self._coeffs[terms])
            self._plans[variables] = plan
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
            points = self.copula._check_point(table[..., layout[rows]])
            summands = coeffs[rows] * self.copula._partial(mask[rows], points)
            summands[..., 0] += total
            total = np.cumsum(summands, axis=-1)[..., -1]
        return total

    def partial(self, *variables):
        """Evaluator ``(*values) -> sum`` of the mixed partial in `variables`.

        Each term contributes its copula partials over every choice of one
        coordinate carrying each given variable; with no variable the
        evaluator gives the sum's value.
        """
        return lambda *values: self._sum(self._plan(*variables), values)

    @property
    def terms(self):
        """(coeff, per-variable 1-based index tuples) for inspection."""
        return tuple(
            (coeff, tuple(tuple(i + 1 for i in axis) for axis in ids))
            for coeff, ids in self._terms
        )


class UnivariateDistortion:
    """q-bar for one system lifetime: P(T > t) = q-bar(F-bar(t)).

    UnivariateDistortion(structure, copula).
    """

    def __init__(self, structure: SystemStructure, copula: SurvivalCopula):
        self._ordered = _TermSum(copula, structure)
        self.structure = structure
        self.copula = copula
        self.n = copula.n

    @property
    def terms(self):
        """Expansion terms as (coeff, per-variable 1-based indices)."""
        return self._ordered.terms

    def value(self, u):
        return self._ordered.partial()(u)

    def derivative(self, u):
        return self._ordered.partial(0)(u)
