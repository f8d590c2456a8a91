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
Balakrishnan 2010).  One loop builds the patterns of its mixed partial in
the leading variables, at most one left free, for every family; the
predictors' laws and `UnivariateDistortion`, q-bar for one system
lifetime, read it.

Every expansion is the product of the structures' merged univariate
expansions (SystemStructure.inclusion_exclusion), merged again over equal
coordinate patterns with zero coefficients dropped.  A product of more
than TERM_BUDGET = 2^20 merged terms is refused.
"""

from __future__ import annotations

from itertools import compress, product
from math import prod
from operator import sub

import numpy as np

from .copula import SurvivalCopula, _check_unit, _clayton_pair
from .errors import DimensionMismatch, TermLimitExceeded
from .structure import TERM_BUDGET, SystemStructure, _indices

CELLS = 1 << 16  # Clayton pair-kernel cells (points x patterns) per call


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
    carries and whether it is differentiated (`_PairSum`); product and FGM
    patterns have no pair coordinates.
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
        """The evaluator of the mixed partial in `variables`: a `_Polynomial` or a `_PairSum`.

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
        if not self.pair:  # in ascending powers of z
            return _Polynomial(sorted(patterns), k, self.theta)

        def at_horizon(pattern):  # the key at z = c_(k-1): num's sum repeats den's in order
            a, counts, slots, marks = pattern[:4]
            if k:
                counts = (*counts[:-1], counts[-1] + a)
                slots = tuple(k - 1 if s == k else s for s in slots)
            return counts, slots, marks, pattern

        return _PairSum(sorted(patterns, key=at_horizon), k, self.theta)


class _Polynomial:
    """Evaluator ``(*values) -> sum`` of one count-pattern partial (see `_PatternSum`).

    `fold(*c)` reduces the factors of the differentiated variables c once, to
    (kept, bent) per pattern; the free variable z then costs, per pattern,
    coeff * (kept * z^a + bent * (z (1 - z))^a), the coefficient applied last
    as the row kernel applies it.  Powers are repeated products and nothing
    but + and x touches z, so a float and an array entry give the same bits.
    """

    def __init__(self, patterns, k, theta):
        self._patterns, self._k, self._theta = patterns, k, theta

    def fold(self, *c):
        """z -> the partial at (c, z); with no free variable it ignores z."""
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

    def __call__(self, *values):
        for v in values:
            _check_unit(np.asarray(v))
        free = values[self._k] if len(values) > self._k else None
        return self.fold(*values[:self._k])(free)


def _powers(x, exponents):
    """x^e for each e in `exponents`, x with a last axis of 1, by repeated products."""
    power = np.where(exponents > 0, x, 1.0)
    for j in range(2, max(exponents) + 1):
        power = np.where(exponents >= j, power * x, power)
    return power


class _PairSum(_Polynomial):
    """`_Polynomial`'s evaluator for a Clayton-pair partial (see `_PatternSum`).

    Pattern (a, counts, slots, marks, bends, coeff) is coeff * (kept * pair),
    kept = prod c_v^n_v z^a and pair the pair factor at its slots' values (c_v,
    z or 1), differentiated where marked; bends is FGM's and goes unread.  `fold(*c)` reads c once; each evaluation
    at z makes one `_clayton_pair` call over all patterns per chunk of at most
    CELLS cells (points x patterns).
    """

    def __init__(self, patterns, k, theta):
        a, counts, slots, marks, _, coeffs = (np.array(x) for x in zip(*patterns))
        self._k, self._theta, self._a, self._coeffs = k, theta, a, coeffs.astype(float)
        self._powered = [(v, e) for v, e in enumerate(counts.reshape(len(a), k).T) if e.any()]
        self._slots, self._marks = slots.T, marks.T
        self._free = self._slots == k

    def fold(self, *c):
        """z -> the partial at (c, z); with no free variable it ignores z."""
        table = np.ones(np.broadcast_shapes(*map(np.shape, c)) + (self._k + 2,))
        for v, x in enumerate(c):
            table[..., v] = x
        reads = [table[..., slots] for slots in self._slots]  # per pair coordinate
        kept = 1.0
        for v, exponents in self._powered:
            kept = kept * _powers(table[..., v, None], exponents)

        def at(z):
            zc = None if z is None else np.asarray(z, dtype=float)[..., None]
            cells = np.broadcast_shapes(np.shape(zc), reads[0].shape)
            step = max(1, CELLS // prod(cells[1:]))
            if len(cells) == 1 or step >= cells[0]:
                return self._sum(zc, *reads, kept)[()]
            parts = [np.broadcast_to(x, cells[:-1] + x.shape[-1:]) if np.ndim(x) > 1 else x
                     for x in (zc, *reads, kept)]  # sliced along the leading axis
            cut = lambda x, lo: x[lo:lo + step] if np.ndim(x) > 1 else x
            return np.concatenate([self._sum(*(cut(x, lo) for x in parts))
                                   for lo in range(0, cells[0], step)])

        return at

    def _sum(self, zc, p, q, kept):
        """The patterns' sum at z (a last axis of 1; None for no free variable)."""
        if zc is not None:  # z at the patterns that read it
            p, q = (np.where(f, zc, x) if f.any() else x for x, f in zip((p, q), self._free))
            kept = kept * _powers(zc, self._a) if self._a.any() else kept
        pair = _clayton_pair(p, q, self._marks[0], self._marks[1], self._theta)
        return (self._coeffs * (kept * pair)).cumsum(axis=-1)[..., -1]


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
