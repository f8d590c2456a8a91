"""Common component-lifetime distributions.

All identical components share one absolutely continuous marginal with
support [0, inf).  Everything downstream works through the survival
function and its inverse, so any family with an exact inverse plugs in.

The range checks keep a scalar 0-d, so the arithmetic after them gives a
float64 scalar, which numpy's `**` raises with the C library's pow; an
array of any length takes numpy's SIMD loop instead, and the two can
differ in the last bits (ROADMAP 9(f)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NegativeTime, OutOfRange


def _check_times(t):
    arr = np.asarray(t, dtype=float)
    if not np.logical_and.reduce(arr >= 0, axis=None):  # NaN fails it too
        raise NegativeTime("lifetimes must be >= 0")
    return arr


def _check_probs(p):
    arr = np.asarray(p, dtype=float)
    if not np.logical_and.reduce((arr > 0) & (arr <= 1), axis=None):  # NaN fails it too
        raise OutOfRange("survival levels must lie in (0, 1]")
    return arr


@dataclass(frozen=True)
class Exponential:
    """Exponential lifetimes with the given mean."""

    mean: float = 1.0

    def __post_init__(self):
        if not self.mean > 0:
            raise OutOfRange(f"mean must be positive, got {self.mean}")

    def sf(self, t):
        return np.exp(-_check_times(t) / self.mean)

    def inv_sf(self, p):
        return -self.mean * np.log(_check_probs(p))


@dataclass(frozen=True)
class Weibull:
    """Weibull lifetimes: F-bar(t) = exp(-(t/scale)^shape)."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise OutOfRange("shape and scale must be positive")

    def sf(self, t):
        return np.exp(-((_check_times(t) / self.scale) ** self.shape))

    def inv_sf(self, p):
        return self.scale * (-np.log(_check_probs(p))) ** (1.0 / self.shape)


def marginal_from_config(doc) -> Exponential | Weibull:
    """Build a marginal from its config mapping."""
    family = doc.get("family")
    if family == "exponential":
        return Exponential(mean=float(doc.get("mean", 1.0)))
    if family == "weibull":
        if missing := [key for key in ("shape", "scale") if key not in doc]:
            raise ConfigError(f"marginal.{missing[0]} is required for the weibull family")
        return Weibull(shape=float(doc["shape"]), scale=float(doc["scale"]))
    raise ConfigError(f"unknown marginal family {family!r}")
