"""The quantile solver as it stood before its per-call path was trimmed.

`solve_increasing` is the earlier `predictor._solve_increasing`, kept
verbatim: an int `last` records which end moved last and nested `np.where`
calls carry every update.  The package's solver must return the same roots
bit for bit.
"""

import numpy as np

from syspredict.errors import NotInvertible
from syspredict.predictor import BISECT_MAX, BISECT_TOL


def solve_increasing(f, hi, target, skip=None):
    """Vectorized root of f(z) = target for f increasing on (0, hi], f(0+) = 0.

    Anderson-Bjorck regula falsi on the bracket [lo, hi], starting from
    [0, hi].  A trial point within BISECT_TOL * hi / 3 of either end is
    pushed out to that distance, so a root near an end closes the bracket;
    after three steps in a row that fail to halve the bracket, one step
    bisects it.  Entries stop once hi - lo <= BISECT_TOL * hi; `skip`
    entries start there.  Returns the bracket midpoints.
    """
    hi = np.array(hi, dtype=float)
    target = np.broadcast_to(np.asarray(target, dtype=float), hi.shape)
    skip = np.zeros(hi.shape, dtype=bool) if skip is None else skip
    g_hi = f(hi) - target
    if np.any(g_hi[~skip] < 0):
        raise NotInvertible("survival level cannot be bracketed on (0, F-bar(t)]")
    lo = np.where(skip, hi, 0.0)
    g_lo = -target
    last = np.zeros(hi.shape, dtype=int)  # +1 if the last step moved hi, -1 if lo
    slow = np.zeros(hi.shape, dtype=int)  # steps in a row that failed to halve the bracket
    for _ in range(BISECT_MAX):
        width = hi - lo
        live = width > BISECT_TOL * hi
        if not np.any(live):
            break
        pad = BISECT_TOL / 3 * hi
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.clip(hi - g_hi * (width / (g_hi - g_lo)), lo + pad, hi - pad)
        z = np.where((slow >= 3) | np.isnan(z), 0.5 * (lo + hi), z)
        g = f(z) - target
        up = live & (g >= 0)
        down = live & ~up
        # an end kept while the other moves twice in a row has its value scaled by m
        with np.errstate(divide="ignore", invalid="ignore"):
            m = 1.0 - g / np.where(up, g_hi, g_lo)
        m = np.where(m > 0, m, 0.5)
        g_lo = np.where(up & (last > 0), m * g_lo, np.where(down, g, g_lo))
        g_hi = np.where(down & (last < 0), m * g_hi, np.where(up, g, g_hi))
        hi = np.where(up, z, hi)
        lo = np.where(down, z, lo)
        last = np.where(up, 1, np.where(down, -1, last))
        slow = np.where(hi - lo > 0.5 * width, slow + 1, 0)
    return 0.5 * (lo + hi)
