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

The predictors and q-bar go by count pattern (`distortion._PatternSum`):
the FGM kernel restated as a polynomial in the counts of coordinates per
variable, and under the Clayton pair one `_clayton_pair` call over all
patterns.

Families:

* ``ProductCopula`` -- independent components.
* ``FGMCopula`` -- one-parameter Farlie-Gumbel-Morgenstern,
  C-hat(u) = prod u_i * (1 + theta * prod (1 - u_i)), |theta| <= 1.
* ``ClaytonPairCopula`` -- one Clayton-coupled pair, all other components
  independent: the pair factor is (p^-theta + q^-theta - 1)^(-1/theta),
  theta > 0.  Its kernel writes the factor and its partials over m = min(p, q),
  M = max(p, q) and E = 1 + (m/M)^theta - m^theta in [1, 2], the factor being
  m E^(-1/theta).  The form above takes p^-theta, which overflows once
  p < 1e-88 at theta = 2.5; these terms stay in [0, 2] but for the 1/M of
  the density, and one form serves every theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    IndexOutOfRange,
    LengthMismatch,
    OutOfRange,
    OutOfUnitInterval,
    UnsupportedCopula,
)


def _check_unit(arr):
    if not np.logical_and.reduce((arr >= 0) & (arr <= 1), axis=None):  # NaN fails both
        raise OutOfUnitInterval("copula arguments must lie in [0, 1]")
    return arr


class SurvivalCopula:
    """Shared validation and `eval` over the law kernel."""

    n: int

    # -- helpers ----------------------------------------------------------

    def _check_point(self, u):
        arr = np.asarray(u)
        if arr.shape[-1:] != (self.n,):
            raise LengthMismatch(
                f"expected {self.n} coordinates, got shape {arr.shape}"
            )
        return _check_unit(arr)

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


@dataclass(frozen=True)
class ProductCopula(SurvivalCopula):
    """Independent components: C-hat(u) = prod u_i."""

    n: int = 3

    def __post_init__(self):
        if self.n < 1:
            raise IndexOutOfRange("dimension must be >= 1")

    def _partial(self, mask, arr):
        # differentiated coordinates enter as exact 1.0 factors
        return np.multiply.reduce(np.where(mask, 1.0, arr), axis=-1)

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
        kept = np.multiply.reduce(np.where(mask, 1.0, arr), axis=-1)
        kept_fgm = np.multiply.reduce(np.where(mask, 1.0, arr * (1.0 - arr)), axis=-1)
        bent = np.multiply.reduce(np.where(mask, 1.0 - 2.0 * arr, 1.0), axis=-1)
        return kept + self.theta * bent * kept_fgm

    def _from_uniforms(self, V):
        # last coordinate: the root in [0, 1] of a v^2 - (1+a) v + w = 0, in the
        # 2w/(...) form stable across a -> 0, where the equation degenerates to v = w;
        # the denominator is 0 only at w = 0 with a = -1, where the root is 0
        # a left-to-right product over columns (np.prod over a short trailing
        # axis runs row by row), equal bit for bit
        a = self.theta * reduce(np.multiply, (1.0 - 2.0 * V[..., j] for j in range(self.n - 1)))
        w = V[..., -1]
        den = 1.0 + a + np.sqrt((1.0 + a) ** 2 - 4.0 * w * a)
        V[..., -1] = 2.0 * w / np.where(den > 0.0, den, 1.0)
        return V


def _clayton_pair(p, q, dp, dq, theta):
    """Clayton pair factor, or per row its partial in p (dp), q (dq) or both.

    With m = min(p, q), M = max(p, q), r = m/M and E = 1 + r^theta - m^theta:
    the factor is m E^(-1/theta), d/dp is (m/p)^(1+theta) E^(-1-1/theta) and
    d2/dp dq is (1+theta) r^theta / M E^(-2-1/theta).
    """
    m, big = np.minimum(p, q), np.maximum(p, q)
    big = np.where(big > 0, big, 1.0)  # every form is 0 at p = q = 0
    r = m / big
    rt = r ** theta
    e = 1.0 + rt - m ** theta
    # m over the differentiated coordinate is 1 where that one is the smaller
    # (the limit 1 at p = 0 < q), else r (0 at a zero partner)
    d1 = np.where(np.where(dp, p, q) < np.where(dp, q, p), 1.0, r * rt)
    with np.errstate(over="ignore"):  # d2 leaves the double range only at a subnormal M
        d12 = rt / big
        # where r^theta underflows take (r / M^a)^theta M^(a theta - 1), a the
        # power of 2 putting a theta in [1, 2), so every exponent is exact
        low = (rt < np.finfo(rt.dtype).tiny) & (r > 0)
        if low.any():
            a = math.ldexp(1.0, 1 - math.frexp(theta)[1])
            d12[low] = (r[low] / big[low] ** a) ** theta * big[low] ** (a * theta - 1.0)
        lead = np.where(dp & dq, (1.0 + theta) * d12 / (e * e), np.where(dp | dq, d1 / e, m))
    return lead * e ** (-1.0 / theta)


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
        skip = mask.copy()
        skip[:, [j - 1, k - 1]] = True
        indep = np.multiply.reduce(np.where(skip, 1.0, arr), axis=-1)
        return indep * _clayton_pair(arr[..., j - 1], arr[..., k - 1],
                                     mask[:, j - 1], mask[:, k - 1], self.theta)

    def _from_uniforms(self, V):
        # the partner coordinate solves d/dp of the pair factor = w, taken as
        # p (p^theta + w^(-theta/(1+theta)) - 1)^(-1/theta) to stay in range; at
        # w = 1 the generalized inverse is 1, or 0 where p = 0 (a point mass at 0)
        j, k = self.pair
        p, w = V[..., j - 1], V[..., k - 1]
        theta = self.theta
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            q = p * (p ** theta + w ** (-theta / (1.0 + theta)) - 1.0) ** (-1.0 / theta)
            V[..., k - 1] = np.where(w == 1.0, p > 0.0, q)
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
