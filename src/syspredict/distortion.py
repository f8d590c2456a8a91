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

All of these are one object, `_PatternSum`: the signed sum over the joint
expansion of k structures, its rows merged by count pattern under every
copula (the signature view of Samaniego 1985 and of Navarro, Samaniego &
Balakrishnan 2010).  For every family one loop builds the patterns of its
mixed partial in the leading variables, at most one left free, and one
evaluator, `_Polynomial`, sums them, with the same bits on Python floats
and numpy arrays; the predictors' laws and q-bar read it.

Every expansion is the product of the structures' merged univariate
expansions (SystemStructure.inclusion_exclusion), merged again over equal
coordinate patterns with zero coefficients dropped.  A product of more
than TERM_BUDGET = 2^20 merged terms is refused.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, compress, product
from math import prod
from operator import add, mul, sub

import numpy as np

from .copula import SurvivalCopula, _check_unit, _clayton_pair, _clayton_values
from .errors import DimensionMismatch, TermLimitExceeded
from .structure import TERM_BUDGET, SystemStructure, _indices


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
        raise TermLimitExceeded(f"{size} joint terms exceed the 2^20 term budget")
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


class _PatternSum:
    """The signed sum over the joint expansion of some structures, by count pattern.

    A row of the mixed partial in the leading variables 0..k-1 chooses one
    coordinate carrying each of them; the next variable, if any, is free.
    Under product and FGM a row's value is the FGM kernel

        prod c_v^n_v z^a + theta prod (1 - 2 c_v) (c_v (1 - c_v))^n_v (z (1 - z))^a,

    n_v its undifferentiated coordinates per differentiated variable and a
    those carrying z; the theta part (bends) is there unless the row pins a
    coordinate to 1 or theta = 0 (the product).  A term with m_v coordinates
    per variable has prod m_v rows, all with n_v = m_v - 1: one integer
    coefficient per count pattern.  The Clayton pair's counts run over the
    independent coordinates, and its pattern adds what each pair coordinate
    carries and whether it is differentiated; product and FGM patterns have
    no pair coordinates.
    """

    def __init__(self, copula: SurvivalCopula, *structures: SystemStructure):
        for s in (s for s in structures if s.n != copula.n):
            raise DimensionMismatch(f"structure has {s.n} components but the copula has {copula.n}")
        self.theta = float(getattr(copula, "theta", 0.0))
        self.n = copula.n
        self.pair = tuple(i - 1 for i in getattr(copula, "pair", ()))  # the Clayton pair's
        self.terms = _joint_terms(*structures)
        self.variables = len(structures)

    def partial(self, *variables):
        """The evaluator of the mixed partial in `variables`, a `_Polynomial`.

        They are the leading variables 0..k-1, and at most one is left free,
        as in every law the predictors read.  A pattern is (a, counts, slots,
        marks, bends, coeff), a pair coordinate's slot its variable (k if
        free, k + 1 if pinned to 1) and its mark that the row differentiates
        it.  A partial that no row reaches is one pattern with coefficient 0
        that reads each value once (counts 1, a = 1 if a variable is free,
        the pair pinned), so its evaluator returns 0 at their broadcast shape.
        """
        k, pair = len(variables), range(len(self.pair))
        every = (1 << self.n) - 1
        rest = every & ~sum(1 << i for i in self.pair)
        acc = {}
        for coeff, masks in self.terms:
            if not all(masks[:k]):  # no row: a differentiated variable has no coordinate
                continue
            counts = [(m & rest).bit_count() for m in masks]
            slots = tuple([next((min(v, k) for v, m in enumerate(masks) if m >> i & 1), k + 1)
                           for i in self.pair])
            a, bends = sum(counts[k:]), self.theta != 0.0 and sum(masks) == every
            # each differentiated variable in one of its independent coordinates
            # (None) or in pair coordinate j where that one carries it
            options = [[None] * (n > 0) for n in counts[:k]]
            for j, v in enumerate(slots):
                if v < k:
                    options[v].append(j)
            for chosen in product(*options):
                one = [j is None for j in chosen]  # in an independent coordinate
                key = (a, tuple(map(sub, counts, one)), slots, tuple([j in chosen for j in pair]),
                       bends)
                acc[key] = acc.get(key, 0) + coeff * prod(compress(counts, one))
        free = int(self.variables > k)
        patterns = [(*key, coeff) for key, coeff in acc.items() if coeff] or [
            (free, (1,) * k, (k + 1,) * len(pair), (False,) * len(pair), False, 0)]

        def at_horizon(pattern):  # the key at z = c_(k-1): num's sum repeats den's in order
            a, counts, slots, marks = pattern[:4]
            if k:
                counts = (*counts[:-1], counts[-1] + a)
                slots = tuple(k - 1 if s == k else s for s in slots)
            return counts, slots, marks, pattern

        # product and FGM in ascending powers of z, a Clayton pair in `at_horizon` order
        return _Polynomial(sorted(patterns, key=at_horizon if self.pair else None), k, self.theta)


class _Polynomial:
    """Evaluator ``(*values) -> sum`` of one count-pattern partial (see `_PatternSum`).

    `fold(*c)` reduces the factors of the differentiated variables c once, to
    (kept, bent) per pattern; the free variable z then costs, per pattern,
    coeff * (kept * z^a + bent * (z (1 - z))^a), the coefficient applied last
    as the row kernel applies it.  Powers are repeated products and nothing
    but + and x touches z, so a float and an array entry give the same bits.

    Under a Clayton pair a pattern is coeff * ((kept * z^a) * pair), kept the
    product of each variable's power.  `fold(*c)` makes the pair's reads off
    z (slot values c_v or 1, and marks; a mirror image is the same read), each
    evaluation the others, one `_clayton_pair` call per read; its powers are
    ufuncs, so a float and an array entry give the same bits here too.
    """

    def __init__(self, patterns, k, theta):
        self._patterns, self._k, self._theta = patterns, k, theta
        self._pair = bool(patterns[0][2])  # Clayton patterns have pair slots
        # each pattern's read of the pair (slot p, slot q, mark p, mark q), a mirror
        # image as one, and the reads by value pair: off z (fold) and at z
        self._reads = [min((*s, *m), (*s[::-1], *m[::-1])) for _, _, s, m, _, _ in patterns]
        groups = {}
        for read in self._reads if self._pair else ():
            groups.setdefault(read[:2], {})[read[2:]] = None
        self._fixed, self._moving = ([(s, g) for s, g in groups.items() if (k in s) == at_z]
                                     for at_z in (False, True))

    def fold(self, *c):
        """z -> the partial at (c, z); with no free variable it ignores z."""
        if self._pair:
            return self._fold_pair(*c)
        sign = self._theta
        for v in c:
            sign = sign * (1.0 - 2.0 * v)
        spread = [v * (1.0 - v) for v in c]
        terms = []
        for a, counts, _, _, bends, coeff in self._patterns:
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

    def _fold_pair(self, *c):
        def make(groups, pairs, values):  # pairs with the reads of `groups` made at values
            for (i, j), marks in groups:
                p, q = values[i], values[j]
                shared = _clayton_values(p, q, self._theta)
                for dp, dq in marks:
                    pairs[i, j, dp, dq] = _clayton_pair(p, q, dp, dq, self._theta, shared)
            return pairs

        made = make(self._fixed, {}, (*c, None, 1.0))
        # kept: each variable's power by repeated products, then their product
        terms = [(a, reduce(mul, [reduce(mul, [v] * n) for v, n in zip(c, counts) if n], 1.0),
                  r, float(coeff))
                 for (a, counts, *_, coeff), r in zip(self._patterns, self._reads)]
        top = max(a for a, *_ in terms)

        def at(z):
            zs = [1.0, *accumulate([z] * top, mul)]  # z^a by repeated products
            pair = make(self._moving, dict(made), (*c, z, 1.0))
            return reduce(add, [coeff * ((kept * zs[a]) * pair[r]) for a, kept, r, coeff in terms])

        return at

    def __call__(self, *values):
        for v in values:
            _check_unit(np.asarray(v))
        free = values[self._k] if len(values) > self._k else None
        return self.fold(*values[:self._k])(free)


class UnivariateDistortion:
    """q-bar for one system lifetime: P(T > t) = q-bar(F-bar(t)).

    UnivariateDistortion(structure, copula).
    """

    def __init__(self, structure: SystemStructure, copula: SurvivalCopula):
        self._sum = _PatternSum(copula, structure)
        self._value = self._sum.partial()
        self.structure = structure
        self.copula = copula
        self.n = copula.n

    @property
    def terms(self):
        """Expansion terms as (coeff, per-variable 1-based indices)."""
        return tuple((coeff, tuple(_indices(m) for m in masks)) for coeff, masks in self._sum.terms)

    def value(self, u):
        return self._value(u)
