"""Common component-lifetime distributions.

All identical components share one absolutely continuous marginal with
support [0, inf).  Everything downstream works through the survival
function and its inverse, so any family with an exact inverse plugs in.

The exponential law is the shape-1 Weibull and shares its code and its
bits: `x ** 1.0` is exact.  Shape and scale are positive normal doubles.
`sf` is 0 where (t/scale)^shape would overflow; `inv_sf` raises
OutOfRange where the lifetime it returns would overflow, be subnormal or
underflow to 0 from a level below 1.

Both guards are decided once, at construction, from shape and scale.  `sf`
caps t at a time whose F-bar is already 0, so neither t/scale nor the
power can overflow.  `inv_sf` skips its range check where the lifetimes of
the smallest and largest positive hazards, -log(1 - 2^-53) and
-log(5e-324), are normal with a factor 2 to spare, since every other
lifetime lies between them.  Only parameters near the ends of the double
range keep the per-call `np.errstate` and range check.

The range checks turn a float (a Python float or np.float64) into a
float64 scalar after one Python comparison, and keep any other scalar
0-d, so the arithmetic after them gives a float64 scalar either way,
which numpy's `**` raises with the C library's pow; an array of any
length takes numpy's SIMD loop instead.  For a Weibull shape
other than 1 the two can differ in the last bits (ROADMAP 9(f)); for the
exponential, both powers are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NegativeTime, OutOfRange

_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


def _check_times(t):
    """t as a float64 scalar (a float) or array, checked >= 0 (NaN fails it too)."""
    if isinstance(t, float):
        if not t >= 0.0:
            raise NegativeTime("lifetimes must be >= 0")
        return np.float64(t)
    arr = np.asarray(t, dtype=float)
    if not np.logical_and.reduce(arr >= 0, axis=None):
        raise NegativeTime("lifetimes must be >= 0")
    return arr


def _check_probs(p):
    """p as a float64 scalar (a float) or array, checked in (0, 1] (NaN fails it too)."""
    if isinstance(p, float):
        if not 0.0 < p <= 1.0:
            raise OutOfRange("survival levels must lie in (0, 1]")
        return np.float64(p)
    arr = np.asarray(p, dtype=float)
    if not np.logical_and.reduce((arr > 0) & (arr <= 1), axis=None):
        raise OutOfRange("survival levels must lie in (0, 1]")
    return arr


@dataclass(frozen=True)
class Weibull:
    """Weibull lifetimes: F-bar(t) = exp(-(t/scale)^shape)."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (_TINY <= self.shape <= _HUGE and _TINY <= self.scale <= _HUGE):
            raise OutOfRange("shape and scale must be positive normal doubles, "
                             f"got {self.shape} and {self.scale}")
        object.__setattr__(self, "_cap", self._sf_cap())
        object.__setattr__(self, "_inverse_in_range", self._normal_lifetimes())

    def _sf_cap(self):
        """A time past which F-bar is 0 and below which nothing overflows, or None.

        At t = scale * 1000^(1/shape) the hazard is about 1000, past the
        745 where exp(-hazard) rounds to 0, so min(t, cap) gives the same
        F-bar for every t.  None where no such double exists or its hazard
        misses either bound, in the scalar or the array power.
        """
        with np.errstate(all="ignore"):
            cap = np.float64(self.scale) * np.float64(1000.0) ** (1.0 / self.shape)
            hazards = [(cap / self.scale) ** self.shape,
                       (np.full(2, cap) / self.scale) ** self.shape]
        return cap if all(np.all((h >= 800.0) & (h <= _HUGE)) for h in hazards) else None

    def _normal_lifetimes(self):
        """True where `inv_sf` cannot overflow or underflow at any level."""
        hazards = -np.log(np.array([1.0 - 2.0 ** -53, 5e-324]))
        with np.errstate(all="ignore"):
            lifetimes = [self.scale * hazards[i] ** (1.0 / self.shape) for i in range(2)]
            lifetimes.append(self.scale * hazards ** (1.0 / self.shape))
        return all(np.all((t >= 2.0 * _TINY) & (t <= 0.5 * _HUGE)) for t in lifetimes)

    def sf(self, t):
        t = _check_times(t)
        if self._cap is not None:
            return np.exp(-((np.minimum(t, self._cap) / self.scale) ** self.shape))
        with np.errstate(over="ignore"):  # an overflowed hazard is F-bar = 0
            return np.exp(-((t / self.scale) ** self.shape))

    def inv_sf(self, p):
        hazard = -np.log(_check_probs(p))
        if self._inverse_in_range:
            return self.scale * hazard ** (1.0 / self.shape)
        with np.errstate(over="ignore"):
            t = self.scale * hazard ** (1.0 / self.shape)
        # a positive hazard must give a normal lifetime: 0 is right only at p = 1
        if not np.logical_and.reduce((t <= _HUGE) & ((t >= _TINY) | (hazard == 0)), axis=None):
            raise OutOfRange("the lifetime at this survival level overflows or underflows "
                             "a double")
        return t


class Exponential(Weibull):
    """Exponential lifetimes with the given mean: the shape-1 Weibull."""

    def __init__(self, mean=1.0):
        if not mean > 0:
            raise OutOfRange(f"mean must be positive, got {mean}")
        Weibull.__init__(self, shape=1.0, scale=mean)

    @property
    def mean(self):
        return self.scale

    def __repr__(self):
        return f"Exponential(mean={self.scale!r})"


def marginal_from_config(doc) -> Weibull:
    """Build a marginal from its config mapping."""
    family = doc.get("family")
    if family == "exponential":
        return Exponential(mean=float(doc.get("mean", 1.0)))
    if family == "weibull":
        if missing := [key for key in ("shape", "scale") if key not in doc]:
            raise ConfigError(f"marginal.{missing[0]} is required for the weibull family")
        return Weibull(shape=float(doc["shape"]), scale=float(doc["scale"]))
    raise ConfigError(f"unknown marginal family {family!r}")
