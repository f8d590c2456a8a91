"""Coherent-system structures described by their minimal path sets.

A system over components 1..n works exactly when some minimal path set has
all of its components working, so its lifetime given component lifetimes
x_1..x_n is

    T = max over path sets P of ( min over j in P of x_j ).

The joint survival of T under a survival copula comes from inclusion-exclusion
over unions of path sets; :meth:`SystemStructure.inclusion_exclusion` produces
that signed expansion, which downstream modules turn into distortion
functions.

Component sets are stored as bitmasks (component j <-> bit j-1), so n is
capped at 64.  The expansion adds path sets one at a time to a table of
merged unions.  TERM_BUDGET = 2^20 caps its table updates, and the
distortion module checks the product of merged sizes of a joint expansion
against it too, so a hopeless expansion is refused within about a second.
`validate_structure`'s minimality check is not bounded by it: a family of
r path sets of mixed sizes still costs r(r-1)/2 pair comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations

import numpy as np

from .errors import (
    EmptyPaths,
    IndexOutOfRange,
    LengthMismatch,
    NonMinimalPath,
    TermLimitExceeded,
    UncoveredComponent,
)

MAX_COMPONENTS = 64
TERM_BUDGET = 1 << 20
PAIR_CELLS = 1 << 20  # path-set pairs per minimality-check temporary


def _mask(indices):
    m = 0
    for j in indices:
        m |= 1 << (j - 1)
    return m


def _indices(mask):
    out = []
    j = 1
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


@dataclass(frozen=True)
class SystemStructure:
    """A validated coherent structure: component count and minimal path sets."""

    n: int
    path_masks: tuple[int, ...]

    @property
    def paths(self):
        return tuple(_indices(m) for m in self.path_masks)

    @property
    def r(self):
        return len(self.path_masks)

    def lifetime(self, times):
        """System lifetime from component lifetimes.

        ``times`` is an array whose last axis has length n; returns max over
        path sets of the min inside each set, elementwise over leading axes.
        The min and max run as elementwise chains over columns, path sets and
        components in ascending order (numpy reduces a short trailing axis
        row by row).
        """
        arr = np.asarray(times, dtype=float)
        if arr.shape[-1:] != (self.n,):
            raise LengthMismatch(
                f"expected {self.n} component times, got shape {arr.shape}"
            )
        out = reduce(np.maximum, (reduce(np.minimum, (arr[..., j - 1] for j in _indices(m)))
                                  for m in self.path_masks))
        # one component alone would hand back a view of ``times``
        return np.copy(out) if self.n == 1 else out

    def inclusion_exclusion(self) -> tuple[tuple[int, int], ...]:
        """Signed expansion of P(T > t) over unions of path sets.

        P(T > t) = sum over nonempty subfamilies S of (-1)^(|S|+1)
        P(all components in union(S) survive t), with identical unions
        merged: ``(coeff, mask)`` pairs with nonzero integer coefficients,
        ordered by set size, then mask value.  The expansion is computed on
        the first call and kept on the instance, so every term sum built
        from this structure shares it.
        """
        return self._expansion

    @cached_property
    def _expansion(self):
        return self._expand()

    def _expand(self):
        # Path sets join one at a time: each merged union U with coefficient
        # c gains the union U | m with coefficient -c, m itself gains +1, and
        # zero coefficients are dropped as they appear.
        acc: dict[int, int] = {}
        work = 0
        for m in self.path_masks:
            step = list(acc.items())
            work += len(step) + 1
            if work > TERM_BUDGET:
                raise TermLimitExceeded(
                    f"expanding {self.r} path sets exceeds the 2^20 term budget"
                )
            # the empty union with coefficient -1 puts the +1 on m itself
            for union, c in step + [(0, -1)]:
                key = union | m
                c = acc.get(key, 0) - c
                if c:
                    acc[key] = c
                else:
                    del acc[key]
        return tuple(
            (c, m)
            for m, c in sorted(acc.items(), key=lambda kv: (bin(kv[0]).count("1"), kv[0]))
        )


def _first_nested_pair(masks):
    """First pair (a, b), in combinations order, with one set inside the other.

    The pairs are compared as uint64 masks, a block of rows against all
    later masks at a time, so a temporary holds at most PAIR_CELLS pairs.
    """
    arr = np.array(masks, dtype=np.uint64)
    r = len(arr)
    step = max(1, PAIR_CELLS // max(1, r))
    for lo in range(0, r - 1, step):
        hi = min(lo + step, r - 1)
        a = arr[lo:hi, None]
        b = arr[None, lo + 1:]
        both = a & b
        nested = (both == a) | (both == b)
        # keep only the pairs after row i (column c is mask lo + 1 + c)
        nested &= np.arange(lo + 1, r)[None, :] > np.arange(lo, hi)[:, None]
        if nested.any():
            i, c = divmod(int(np.argmax(nested)), nested.shape[1])
            return masks[lo + i], masks[lo + 1 + c]
    return None


def _check_n(n):
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise IndexOutOfRange(f"component count must be a positive integer, got {n!r}")
    if n > MAX_COMPONENTS:
        raise IndexOutOfRange(f"n={n} exceeds the {MAX_COMPONENTS}-component cap")


def validate_structure(n, paths) -> SystemStructure:
    """Validate and normalize minimal path sets; raise on any defect.

    Normalization: indices inside a path are deduplicated and sorted, and
    repeated identical path sets are merged.  A path set strictly contained
    in another is an error (the family would not be minimal); so is a
    component that appears in no path set.
    """
    _check_n(n)
    paths = list(paths)
    if not paths:
        raise EmptyPaths("at least one path set is required")
    masks = []
    for p in paths:
        p = list(p)
        if not p:
            raise EmptyPaths("path sets must be nonempty")
        for j in p:
            if not isinstance(j, (int, np.integer)) or j < 1 or j > n:
                raise IndexOutOfRange(f"component index {j!r} outside 1..{n}")
        masks.append(_mask(p))
    masks = list(dict.fromkeys(masks))
    # distinct sets of one size never nest, so one-size families skip the scan
    mixed = len({bin(m).count("1") for m in masks}) > 1
    pair = _first_nested_pair(masks) if mixed else None
    if pair is not None:
        a, b = pair
        raise NonMinimalPath(
            f"path set {_indices(min(a, b, key=lambda x: bin(x).count('1')))} "
            "is contained in another"
        )
    covered = 0
    for m in masks:
        covered |= m
    if covered != (1 << n) - 1:
        missing = _indices(((1 << n) - 1) ^ covered)
        raise UncoveredComponent(f"components {missing} appear in no path set")
    return SystemStructure(n, tuple(sorted(masks)))


# The builders below are minimal and cover every component by construction,
# so they skip validate_structure's pairwise minimality scan.

def series(n) -> SystemStructure:
    """All components in one path set: T = min of all lifetimes."""
    _check_n(n)
    return SystemStructure(n, ((1 << n) - 1,))


def parallel(n) -> SystemStructure:
    """Each component its own path set: T = max of all lifetimes."""
    _check_n(n)
    return SystemStructure(n, tuple(1 << j for j in range(n)))


def k_out_of_n(k, n) -> SystemStructure:
    """Works while at least k of n components work (path sets = k-subsets)."""
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"need 1 <= k <= n, got k={k}, n={n}")
    _check_n(n)
    bits = [1 << j for j in range(n)]
    return SystemStructure(n, tuple(sorted(sum(c) for c in combinations(bits, k))))
