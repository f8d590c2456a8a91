"""Finite-difference oracle for the copulas' analytic partials.

`partial(copula, indices, u)` reads the analytic mixed partial in the
1-based coordinates `indices` from the copula's mask kernel `_partial`.
`fd_partial(copula, indices, u)` is the central 2^k stencil of
`copula.eval`, evaluated in extended precision so the order-3 stencil
stays accurate at small steps.  It raises `BoundaryTooClose` when a
differentiated coordinate sits within the step of the unit-cube boundary.
"""

from itertools import product

import numpy as np

from syspredict.errors import SysPredictError

FD_STEPS = {1: 1e-6, 2: 1e-5, 3: 1e-3}


class BoundaryTooClose(SysPredictError, ValueError):
    """Finite-difference stencil would leave the unit cube."""


def partial(copula, indices, u):
    """Mixed partial in the distinct 1-based coordinates `indices` at every point of u."""
    mask = np.zeros((1, copula.n), dtype=bool)
    mask[0, [i - 1 for i in indices]] = True
    return copula._partial(mask, copula._check_point(u)[..., None, :])[..., 0]


def fd_partial(copula, indices, u, h=None):
    """Central finite-difference estimate of ``partial(copula, indices, u)``."""
    idx = tuple(sorted(indices))
    k = len(idx)
    if h is None:
        h = FD_STEPS[k]
    base = np.asarray(copula._check_point(u), dtype=np.longdouble)
    for i in idx:
        xi = base[..., i - 1]
        if np.any(xi < h) or np.any(xi > 1 - h):
            raise BoundaryTooClose(f"coordinate {i} within {h} of the boundary")
    total = 0.0
    for signs in product((1.0, -1.0), repeat=k):
        point = base.copy()
        weight = 1.0
        for s, i in zip(signs, idx):
            point[..., i - 1] = base[..., i - 1] + s * h
            weight *= s
        total = total + weight * copula.eval(point)
    spacing = 1.0
    for i in idx:
        spacing = spacing * ((base[..., i - 1] + h) - (base[..., i - 1] - h))
    return np.asarray(total / spacing, dtype=float)
