"""Survival copulas of the component lifetimes, with analytic partials.

A survival copula C-hat couples the marginal survival functions:
P(X_1 > x_1, ..., X_n > x_n) = C-hat(F-bar(x_1), ..., F-bar(x_n)).  The
distortion machinery needs two things from a family: pointwise evaluation
and mixed partial derivatives up to order three with respect to distinct
coordinates.  Each family states its law once, as one hand-derived kernel
that takes a boolean coordinate mask: a row differentiates the coordinates
its mask marks, so a stack of points with a different set per row costs one
call, and an unmarked row is the value (`eval`).  Each family also samples
itself by closed-form conditional inversion.

Families:

* ``ProductCopula`` -- independent components.
* ``FGMCopula`` -- one-parameter Farlie-Gumbel-Morgenstern,
  C-hat(u) = prod u_i * (1 + theta * prod (1 - u_i)), |theta| <= 1.
* ``ClaytonPairCopula`` -- one Clayton-coupled pair, all other components
  independent: the pair factor is (p^-theta + q^-theta - 1)^(-1/theta),
  theta > 0; theta = 1 reduces to the rational form pq / (p + q - pq).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRange,
    LengthMismatch,
    OutOfRange,
    OutOfUnitInterval,
    UnsupportedCopula,
    UnsupportedOrder,
)


def _check_unit(arr):
    if not (np.all(arr >= 0) and np.all(arr <= 1)):  # NaN fails both
        raise OutOfUnitInterval("copula arguments must lie in [0, 1]")
    return arr


class SurvivalCopula:
    """Shared validation and `eval`/`partial` over the law kernel."""

    n: int

    # -- helpers ----------------------------------------------------------

    def _check_point(self, u):
        arr = np.asarray(u)
        if arr.shape[-1:] != (self.n,):
            raise LengthMismatch(
                f"expected {self.n} coordinates, got shape {arr.shape}"
            )
        return _check_unit(arr)

    def _check_indices(self, indices):
        idx = tuple(indices)
        if len(set(idx)) != len(idx):
            raise UnsupportedOrder(f"repeated coordinate indices in {idx}")
        if not 1 <= len(idx) <= 3:
            raise UnsupportedOrder(
                f"partials are supported for 1..3 distinct coordinates, got {len(idx)}"
            )
        for i in idx:
            if not 1 <= i <= self.n:
                raise IndexOutOfRange(f"coordinate index {i} outside 1..{self.n}")
        return tuple(sorted(idx))

    # -- interface --------------------------------------------------------

    def _partial(self, mask, arr):
        """Law kernel: mask (K, n) bool, arr (..., K, n) -> (..., K).

        Row k of arr is differentiated in the 0..3 coordinates marked in mask
        row k (none: the copula's value); callers guarantee the mask's shape
        and counts.
        """
        raise NotImplementedError

    def _from_uniforms(self, V):
        """Map independent uniforms V (..., n) in place to V ~ copula; return V."""
        raise UnsupportedCopula(f"no sampler for {type(self).__name__}")

    def eval(self, u):
        """The copula's value at every point of ``u[..., n]``."""
        mask = np.zeros((1, self.n), dtype=bool)
        return self._partial(mask, self._check_point(u)[..., None, :])[..., 0]

    def partial(self, indices, u):
        """Mixed partial derivative in 1..3 distinct coordinates.

        ``indices`` is a tuple of 1-based coordinate indices, applied to
        every point of ``u[..., n]``.
        """
        mask = np.zeros((1, self.n), dtype=bool)
        mask[0, [i - 1 for i in self._check_indices(indices)]] = True
        return self._partial(mask, self._check_point(u)[..., None, :])[..., 0]


@dataclass(frozen=True)
class ProductCopula(SurvivalCopula):
    """Independent components: C-hat(u) = prod u_i."""

    n: int = 3

    def __post_init__(self):
        if self.n < 1:
            raise IndexOutOfRange("dimension must be >= 1")

    def _partial(self, mask, arr):
        # differentiated coordinates enter as exact 1.0 factors
        return np.prod(np.where(mask, 1.0, arr), axis=-1)

    def _from_uniforms(self, V):
        return V


@dataclass(frozen=True)
class FGMCopula(SurvivalCopula):
    """Farlie-Gumbel-Morgenstern: prod u_i + theta * prod u_i (1 - u_i)."""

    theta: float = 1.0
    n: int = 3

    def __post_init__(self):
        if not -1.0 <= self.theta <= 1.0:
            raise OutOfRange(f"FGM needs |theta| <= 1, got {self.theta}")
        if self.n < 2:
            raise IndexOutOfRange("dimension must be >= 2")

    def _partial(self, mask, arr):
        # d/du_S [prod u + theta prod u(1-u)]
        #   = prod_{j not in S} u_j + theta prod_{i in S}(1-2u_i) prod_{j not in S} u_j(1-u_j)
        kept = np.prod(np.where(mask, 1.0, arr), axis=-1)
        kept_fgm = np.prod(np.where(mask, 1.0, arr * (1.0 - arr)), axis=-1)
        bent = np.prod(np.where(mask, 1.0 - 2.0 * arr, 1.0), axis=-1)
        return kept + self.theta * bent * kept_fgm

    def _from_uniforms(self, V):
        # last coordinate: the root in [0, 1] of a v^2 - (1+a) v + w = 0, in the
        # 2w/(...) form stable across a -> 0, where the equation degenerates to v = w;
        # the denominator is 0 only at w = 0 with a = -1, where the root is 0
        a = self.theta * np.prod(1.0 - 2.0 * V[..., :-1], axis=-1)
        w = V[..., -1]
        den = 1.0 + a + np.sqrt((1.0 + a) ** 2 - 4.0 * w * a)
        V[..., -1] = 2.0 * w / np.where(den > 0.0, den, 1.0)
        return V


def _pair_value(p, q, theta):
    """Clayton pair factor with the boundary-zero convention."""
    p = np.asarray(p)
    q = np.asarray(q)
    if theta == 1.0:
        den = p + q - p * q
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(den > 0, p * q / np.where(den > 0, den, 1.0), 0.0)
        return out
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = p ** (-theta) + q ** (-theta) - 1.0
        out = s ** (-1.0 / theta)
    return np.where((p > 0) & (q > 0), out, 0.0)


def _pair_d1(p, q, theta):
    """d/dp of the pair factor (continuous extension at the boundary)."""
    p = np.asarray(p)
    q = np.asarray(q)
    if theta == 1.0:
        den = p + q - p * q
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(den > 0, (q / np.where(den > 0, den, 1.0)) ** 2, 0.0)
        return out
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = p ** (-theta) + q ** (-theta) - 1.0
        out = s ** (-1.0 / theta - 1.0) * p ** (-theta - 1.0)
    out = np.where(q > 0, out, 0.0)
    return np.where((p > 0) | (q <= 0), out, 1.0)  # limit as p -> 0+ with q > 0 is 1


def _pair_d12(p, q, theta):
    """d^2/dp dq of the pair factor."""
    p = np.asarray(p)
    q = np.asarray(q)
    if theta == 1.0:
        den = p + q - p * q
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(den > 0, 2.0 * p * q / np.where(den > 0, den, 1.0) ** 3, 0.0)
        return out
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = p ** (-theta) + q ** (-theta) - 1.0
        out = (1.0 + theta) * s ** (-1.0 / theta - 2.0) * (p * q) ** (-theta - 1.0)
    return np.where((p > 0) & (q > 0), out, 0.0)


@dataclass(frozen=True)
class ClaytonPairCopula(SurvivalCopula):
    """One Clayton-coupled pair of components, the rest independent."""

    pair: tuple[int, int] = (2, 3)
    theta: float = 1.0
    n: int = 3

    def __post_init__(self):
        if self.n < 2:
            raise IndexOutOfRange("dimension must be >= 2")
        j, k = self.pair
        if not (1 <= j <= self.n and 1 <= k <= self.n) or j == k:
            raise IndexOutOfRange(f"pair {self.pair} must be two distinct indices in 1..{self.n}")
        if j > k:
            object.__setattr__(self, "pair", (k, j))
        if not self.theta > 0:
            raise OutOfRange(f"Clayton pair needs theta > 0, got {self.theta}")

    def _partial(self, mask, arr):
        j, k = self.pair
        in_j, in_k = mask[:, j - 1], mask[:, k - 1]
        skip = mask.copy()
        skip[:, [j - 1, k - 1]] = True
        indep = np.prod(np.where(skip, 1.0, arr), axis=-1)
        p, q = arr[..., j - 1], arr[..., k - 1]
        pair = np.zeros(indep.shape, dtype=indep.dtype)
        # each row takes the pair factor's partial in the pair coordinates it differentiates
        for rows, fn, a, b in (
            (in_j & in_k, _pair_d12, p, q),
            (in_j & ~in_k, _pair_d1, p, q),
            (in_k & ~in_j, _pair_d1, q, p),  # symmetric factor
            (~in_j & ~in_k, _pair_value, p, q),
        ):
            rows = np.flatnonzero(rows)
            if rows.size:
                pair[..., rows] = fn(a[..., rows], b[..., rows], self.theta)
        return indep * pair

    def _from_uniforms(self, V):
        # the partner coordinate solves d/dp of the pair factor = w; at w = 1
        # the generalized inverse is 1, or 0 where p = 0 (a point mass at 0)
        j, k = self.pair
        p, w = V[..., j - 1], V[..., k - 1]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inner = 1.0 + p ** (-self.theta) * (w ** (-self.theta / (1.0 + self.theta)) - 1.0)
            V[..., k - 1] = np.where(w == 1.0, p > 0.0, inner ** (-1.0 / self.theta))
        return V


def copula_from_config(doc) -> SurvivalCopula:
    """Build a copula from its config mapping."""
    family = doc.get("family")
    n = int(doc.get("n", 3))
    if family == "product":
        return ProductCopula(n=n)
    if family == "fgm":
        return FGMCopula(theta=float(doc.get("theta", 1.0)), n=n)
    if family == "clayton_pair":
        pair = tuple(int(i) for i in doc.get("pair", (2, 3)))
        return ClaytonPairCopula(pair=pair, theta=float(doc.get("theta", 1.0)), n=n)
    raise UnsupportedCopula(f"unknown copula family {family!r}")
