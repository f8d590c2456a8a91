"""Monte Carlo machinery: samplers, sample sets and the coverage experiment.

Sampling works in survival scale: draw V with the copula as its joint CDF
(so V_i = F-bar(X_i) and smaller V means longer life), then push through the
marginal inverse.  Each copula family maps the uniforms itself
(`_from_uniforms`, next to its law kernel), by closed-form conditional
inversion.

Reproducibility contract: every replication of the coverage experiment gets
its own spawned child stream, so results do not depend on scheduling and any
subset of replications can be reproduced in isolation.  The streams are drawn
in order into stacked blocks of replications, and the statistics are axis-wise
reductions over each block, equal bit for bit to one replication at a time.

`write_csv` is the one CSV writer: the sample files here and every CLI table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np

from .copula import ProductCopula
from .errors import InvalidK, OutOfRange
from .marginal import Exponential
from .structure import series, validate_structure

CSV_BLOCK_ROWS = 1024  # rows formatted per write
COVERAGE_CELLS = 1 << 16  # uniforms in each stacked block of replications

# the coverage reference design: the better of component 1 and the series
# pair {2, 3}, observed at its first component failure
COVERAGE_FIRST = series(3)
COVERAGE_SYSTEM = validate_structure(3, [[1], [2, 3]])


def _seed_sequence(seed):
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


# -- sampling ----------------------------------------------------------------

def survival_uniforms(copula, U):
    """Map independent uniforms to survival-scale coordinates V ~ copula."""
    U = np.asarray(U, dtype=float)
    if U.shape[-1:] != (copula.n,):
        raise OutOfRange(f"uniform block must have {copula.n} columns")
    return copula._from_uniforms(U.copy())


def sample_components(copula, marginal, rng, size):
    """Draw `size` joint component-lifetime rows."""
    U = rng.random((int(size), copula.n))
    return marginal.inv_sf(survival_uniforms(copula, U))


# -- CSV output --------------------------------------------------------------

def write_csv(path, header, columns):
    """Write equal-length columns under `header` as CSV with CRLF row ends.

    Numeric cells print as `%.9g`; string columns print as they are.  No
    cell is quoted, so names and strings must hold no comma, quote or line
    break (and a one-column table no empty string): the bytes then equal
    `csv.writer`'s.  Rows are formatted CSV_BLOCK_ROWS at a time, with one
    `%` on a repeated row template filled from column slices.
    """
    cols = [np.asarray(c) for c in columns]
    row = ",".join("%s" if c.dtype.kind == "U" else "%.9g" for c in cols) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(cols[0]), CSV_BLOCK_ROWS):
            cells = [c[start:start + CSV_BLOCK_ROWS].tolist() for c in cols]
            fh.write(row * len(cells[0]) % tuple(chain.from_iterable(zip(*cells))))


# -- sample sets -------------------------------------------------------------

@dataclass
class SampleSet:
    """Simulated component lifetimes with the derived system lifetimes."""

    components: np.ndarray
    t1: np.ndarray
    t: np.ndarray
    t2: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    @property
    def size(self):
        return self.components.shape[0]

    def columns(self):
        n = self.components.shape[1]
        cols = [(f"x{i + 1}", self.components[:, i]) for i in range(n)]
        cols.append(("t1", self.t1))
        if self.t2 is not None:
            cols.append(("t2", self.t2))
        cols.append(("t", self.t))
        return cols

    def to_csv(self, path):
        names, values = zip(*self.columns())
        write_csv(path, names, values)


def simulate(first, system, copula, marginal, size, seed, second=None) -> SampleSet:
    """Simulate component lifetimes and the ordered system lifetimes."""
    if int(size) < 1:
        raise OutOfRange(f"size must be >= 1, got {size}")
    rng = np.random.default_rng(_seed_sequence(seed))
    X = sample_components(copula, marginal, rng, size)
    meta = {
        "seed": seed if isinstance(seed, np.random.SeedSequence) else int(seed),
        "size": int(size),
        "copula": type(copula).__name__,
        "marginal": type(marginal).__name__,
        "first_paths": first.paths,
        "system_paths": system.paths,
    }
    t2 = None
    if second is not None:
        t2 = second.lifetime(X)
        meta["second_paths"] = second.paths
    return SampleSet(
        components=X,
        t1=first.lifetime(X),
        t=system.lifetime(X),
        t2=t2,
        meta=meta,
    )


# -- coverage experiment -----------------------------------------------------

@dataclass(frozen=True)
class CoverageReport:
    k: int
    replications: int
    coverage50: float
    se50: float
    coverage90: float
    se90: float


def _interval_offsets():
    """Survival-scale quantile offsets of the reference design at mean 1.

    Reference design: COVERAGE_SYSTEM on three independent exponential
    components, predicted from COVERAGE_FIRST, its first failure (always
    strictly earlier).  Offsets are exact up to the quantile solver
    tolerance and scale linearly in the mean.
    """
    from .predictor import EarlyFailurePredictor

    pred = EarlyFailurePredictor(COVERAGE_FIRST, COVERAGE_SYSTEM, ProductCopula(3),
                                 Exponential(1.0), mode="strict")
    levels = (0.75, 0.25, 0.95, 0.05)
    return dict(zip(levels, pred.quantile(np.array(levels), 0.0).tolist()))


def coverage_experiment(k, replications, seed, *, score="same",
                        eval_draws=None, exact_mu=False) -> CoverageReport:
    """Coverage of plug-in 50%/90% prediction intervals on the reference design.

    Each replication draws k systems, estimates the component mean as
    mu-hat = 3 * mean(T1) (the first failure has mean mu/3), forms the
    centered plug-in intervals [T1 + c_w_hi * mu-hat, T1 + c_w_lo * mu-hat],
    and scores them on the same k systems (`score="fresh"` scores
    `eval_draws` new systems instead, k by default; `eval_draws` without it
    raises `OutOfRange`; `exact_mu` pins mu-hat to the truth).
    """
    return _coverage(k, replications, seed, _interval_offsets(), score=score,
                     eval_draws=eval_draws, exact_mu=exact_mu)


def _coverage(k, replications, seed, offs, *, score="same", eval_draws=None,
              exact_mu=False):
    k = int(k)
    replications = int(replications)
    if k < 1 or replications < 1:
        raise InvalidK("need k >= 1 and replications >= 1")
    if score not in ("same", "fresh"):
        raise OutOfRange(f"score must be 'same' or 'fresh', got {score!r}")
    if eval_draws is not None and (score != "fresh" or int(eval_draws) < 1):
        raise OutOfRange(f"eval_draws needs score='fresh' and >= 1, got {eval_draws!r}")
    m = (k if eval_draws is None else int(eval_draws)) if score == "fresh" else 0
    scored = slice(k, None) if m else slice(None)
    children = _seed_sequence(seed).spawn(replications)
    step = max(1, COVERAGE_CELLS // (3 * (k + m)))
    cov50 = np.empty(replications)
    cov90 = np.empty(replications)
    for start in range(0, replications, step):
        # rows k.. of each replication's block are its fresh scoring draws
        U = np.empty((min(step, replications - start), k + m, 3))
        for u, child in zip(U, children[start:start + step]):
            np.random.default_rng(child).random(out=u)
        X = -np.log(U)
        t1, t = COVERAGE_FIRST.lifetime(X), COVERAGE_SYSTEM.lifetime(X)
        mu_hat = 1.0 if exact_mu else 3.0 * t1[:, :k].mean(axis=1, keepdims=True)
        st1, st = t1[:, scored], t[:, scored]
        done = slice(start, start + U.shape[0])
        cov50[done] = np.mean(
            (st >= st1 + offs[0.75] * mu_hat) & (st <= st1 + offs[0.25] * mu_hat), axis=1
        )
        cov90[done] = np.mean(
            (st >= st1 + offs[0.95] * mu_hat) & (st <= st1 + offs[0.05] * mu_hat), axis=1
        )
    dd = 1 if replications > 1 else 0
    return CoverageReport(
        k=k,
        replications=replications,
        coverage50=float(cov50.mean()),
        se50=float(cov50.std(ddof=dd) / np.sqrt(replications)),
        coverage90=float(cov90.mean()),
        se90=float(cov90.std(ddof=dd) / np.sqrt(replications)),
    )


def coverage_table(ks, replications, seed, **kwargs) -> list[CoverageReport]:
    """Run the coverage experiment over a grid of k values.

    Each k gets its own child of the root seed, so adding or removing grid
    entries does not perturb the others.  The interval offsets are solved
    once for the whole grid.
    """
    ks = list(ks)
    children = _seed_sequence(seed).spawn(len(ks))
    offs = _interval_offsets()
    return [
        _coverage(k, replications, child, offs, **kwargs)
        for k, child in zip(ks, children)
    ]
