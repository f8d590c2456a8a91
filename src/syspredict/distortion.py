"""Distortion representations of system-lifetime laws.

Write q-bar for the univariate distortion of a system lifetime T with
minimal path sets P_1..P_r under survival copula C-hat:

    P(T > t) = q-bar(F-bar(t)),
    q-bar(u) = sum over nonempty subfamilies S of (-1)^(|S|+1)
               C-hat(u at union(S), 1 elsewhere).

For k ordered lifetimes T_1 <= ... <= T_k built on the same components,
with T_k the system, the joint survival P(T_1 > x_1, ..., T_k > x_k) is a
k-variate distortion of the survival values u_1 >= ... >= u_k of the
x_i.  On this ordered region it expands over k-tuples of subfamilies, one
per structure: each coordinate carries the variable of the innermost union
containing it (u_k for the system's union, else u_(k-1), and so on), and
the coordinates in no union are pinned to 1.  The package evaluates only
this region; the region rules beyond it live with the test oracles.

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

from .copula import SurvivalCopula, _check_unit
from .errors import DimensionMismatch, TermLimitExceeded
from .structure import TERM_BUDGET, SystemStructure, _indices

CELLS = 1 << 16  # copula-argument cells (points x rows x n) per stacked call


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
    structures' order.  Each evaluation writes its values, broadcast, one
    per column into a table of ones with one column more, checks it once,
    gathers from it the points of all its rows (one per term and choice of
    differentiated coordinates) into one stacked array and makes one call
    of the copula's law kernel per chunk of at most CELLS cells (points x
    rows x n); a row's mask marks the coordinates it differentiates, none
    for the value.  Rows are added in term order by a running sum, so a
    total equals the term-by-term loop bit for bit.
    """

    def __init__(self, copula: SurvivalCopula, *structures: SystemStructure):
        for s in structures:
            if s.n != copula.n:
                raise DimensionMismatch(
                    f"structure has {s.n} components but the copula has {copula.n}"
                )
        self.copula = copula
        self._nvars = len(structures)
        terms = _joint_terms(*structures)
        self._coeffs = np.array([c for c, _ in terms], dtype=float)
        self._layout = np.full((len(terms), copula.n), -1, dtype=np.intp)
        for row, (_, masks) in zip(self._layout, terms):
            for var, m in enumerate(masks):
                row[[i - 1 for i in _indices(m)]] = var

    def _sum(self, layout, mask, coeffs, values):
        shape = np.broadcast(*values).shape
        table = np.ones(shape + (len(values) + 1,))  # slot -1 keeps the 1 of pinned coordinates
        for slot, v in enumerate(values):
            table[..., slot] = v
        _check_unit(table)
        total = np.zeros(shape)
        step = max(1, CELLS // (max(1, total.size) * self.copula.n))
        for lo in range(0, len(coeffs), step):
            rows = slice(lo, lo + step)
            points = table[..., layout[rows]]
            summands = coeffs[rows] * self.copula._partial(mask[rows], points)
            summands[..., 0] += total
            total = summands.cumsum(axis=-1)[..., -1]
        return total

    def partial(self, *variables):
        """Evaluator ``(*values) -> sum`` of the mixed partial in `variables`.

        Its rows are built here, once: a row per term and choice of one
        coordinate carrying each given variable (a row per term when none is
        given), differentiated in the chosen coordinates, in term order and
        lexicographic order within a term.  With no variable the evaluator
        gives the sum's value.
        """
        # row r is (term, its coordinate carrying each variable in turn)
        choices = [(k, *coords) for k, term in enumerate(self._layout)
                   for coords in product(*(np.flatnonzero(term == v) for v in variables))]
        rows = np.array(choices, dtype=np.intp).reshape(-1, 1 + len(variables))
        mask = np.zeros((len(rows), self.copula.n), dtype=bool)
        np.put_along_axis(mask, rows[:, 1:], True, axis=1)
        layout, coeffs = self._layout[rows[:, 0]], self._coeffs[rows[:, 0]]
        return lambda *values: self._sum(layout, mask, coeffs, values)

    @property
    def terms(self):
        """(coeff, per-variable 1-based index tuples) for inspection."""
        return tuple(
            (int(c), tuple(tuple((np.flatnonzero(row == var) + 1).tolist())
                           for var in range(self._nvars)))
            for c, row in zip(self._coeffs, self._layout)
        )


class UnivariateDistortion:
    """q-bar for one system lifetime: P(T > t) = q-bar(F-bar(t)).

    UnivariateDistortion(structure, copula).
    """

    def __init__(self, structure: SystemStructure, copula: SurvivalCopula):
        self._ordered = _TermSum(copula, structure)
        self._value = self._ordered.partial()
        self.structure = structure
        self.copula = copula
        self.n = copula.n

    @property
    def terms(self):
        """Expansion terms as (coeff, per-variable 1-based indices)."""
        return self._ordered.terms

    def value(self, u):
        return self._value(u)
