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
partial in distinct variables (none: the value).  `UnivariateDistortion`
names q-bar for one system lifetime.

Under the exchangeable product and FGM copulas a row's value depends only
on how many of its coordinates carry each variable, undifferentiated, and
on whether it pins any coordinate to 1.  `_PatternSum` merges the rows of a
partial by that count pattern (the signature view of Samaniego 1985 and
of Navarro, Samaniego & Balakrishnan 2010) into exact integer
coefficients, and folds the values of the differentiated variables into
per-point coefficients of a polynomial in the free one, which it then
evaluates with + and x alone: in Python floats or in numpy arrays, with the
same bits.  The predictors read their laws from `_law_sum`: a `_PatternSum`
under product and FGM, a `_TermSum` under the Clayton pair.

Every expansion is the product of the structures' merged univariate
expansions (SystemStructure.inclusion_exclusion), merged again over equal
coordinate patterns with zero coefficients dropped.  A product of more
than TERM_BUDGET = 2^20 merged terms is refused.
"""

from __future__ import annotations

from itertools import product
from math import prod

import numpy as np

from .copula import FGMCopula, ProductCopula, SurvivalCopula, _check_unit
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


def _check_dimensions(copula, structures):
    for s in structures:
        if s.n != copula.n:
            raise DimensionMismatch(
                f"structure has {s.n} components but the copula has {copula.n}"
            )


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
        _check_dimensions(copula, structures)
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


class _PatternSum:
    """`_TermSum`'s sum under a product or FGM copula, by count pattern.

    A row of the mixed partial in the leading variables 0..k-1 chooses one
    coordinate carrying each of them; the variable after them, if any, is
    free.  With n_v undifferentiated coordinates per differentiated
    variable and a carrying the free one, the row's value is the FGM kernel

        prod c_v^n_v z^a + theta prod (1 - 2 c_v) (c_v (1 - c_v))^n_v (z (1 - z))^a,

    whose theta part is 0 where the row pins a coordinate to 1, and for the
    product copula (theta = 0).  A term whose masks hold m_v coordinates per
    variable has prod m_v rows over the differentiated v, all with
    n_v = m_v - 1, so its rows merge into one integer coefficient per count
    pattern (n_v, a).
    """

    def __init__(self, copula: SurvivalCopula, *structures: SystemStructure):
        _check_dimensions(copula, structures)
        self.theta = float(getattr(copula, "theta", 0.0))
        self.n = copula.n
        self._counts = [(coeff, [m.bit_count() for m in masks])
                        for coeff, masks in _joint_terms(*structures)]

    def partial(self, *variables):
        """The `_Polynomial` of the mixed partial in `variables`.

        They are the leading variables 0..k-1, and at most one is left free,
        as in every law the predictors read.
        """
        k = len(variables)
        acc = {}  # (power of z, undifferentiated counts, no pinned coordinate) -> coeff
        for coeff, counts in self._counts:
            rows = prod(counts[:k])
            if rows:
                key = (sum(counts[k:]), tuple(m - 1 for m in counts[:k]), sum(counts) == self.n)
                acc[key] = acc.get(key, 0) + coeff * rows
        patterns = sorted((a, counts, coeff, full and self.theta != 0.0)
                          for (a, counts, full), coeff in acc.items() if coeff)
        return _Polynomial(patterns, k, self.theta)


class _Polynomial:
    """Evaluator ``(*values) -> sum`` of one count-pattern partial (see `_PatternSum`).

    `fold(*c)` reduces the factors of the differentiated variables c once, to
    (kept, bent) per pattern; the free variable z then costs, per pattern,
    coeff * (kept * z^a + bent * (z (1 - z))^a), the coefficient applied last
    as the row kernel applies it.  Powers are repeated products and nothing
    but + and x touches z, so a float and an array entry give the same bits.
    """

    def __init__(self, patterns, k, theta):
        self._patterns = patterns
        self._k = k
        self._theta = theta

    def fold(self, *c):
        """z -> the partial at (c, z); with no free variable it ignores z."""
        sign = self._theta
        for v in c:
            sign = sign * (1.0 - 2.0 * v)
        spread = [v * (1.0 - v) for v in c]
        terms = []
        for a, counts, coeff, bends in self._patterns:
            kept, bent = 1.0, sign if bends else None
            for v, s, n in zip(c, spread, counts):
                for _ in range(n):
                    kept = kept * v
                    bent = None if bent is None else bent * s
            terms.append((a, coeff, kept, bent))
        bends = any(bent is not None for *_, bent in terms) and terms[-1][0] > 0

        def at(z):
            w = z * (1.0 - z) if bends else None
            total, power, zp, wp = 0.0, 0, 1.0, 1.0
            for a, coeff, kept, bent in terms:
                for _ in range(a - power):
                    zp = zp * z
                    wp = wp * w if bends else wp
                power = a
                part = kept * zp
                if bent is not None:
                    part = part + bent * wp
                total = total + coeff * part
            return total

        return at

    def __call__(self, *values):
        for v in values:
            _check_unit(np.asarray(v))
        free = values[self._k] if len(values) > self._k else None
        return self.fold(*values[:self._k])(free)


def _law_sum(copula: SurvivalCopula, *structures: SystemStructure):
    """The sum the predictors read their laws from: by count pattern where one exists."""
    if isinstance(copula, (ProductCopula, FGMCopula)):
        return _PatternSum(copula, *structures)
    return _TermSum(copula, *structures)


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
