"""Monte Carlo machinery: samplers, law checks, and the coverage experiment.

Sampling works in survival scale: draw V with the copula as its joint CDF
(so V_i = F-bar(X_i) and smaller V means longer life), then push through the
marginal inverse.  The FGM and Clayton-pair conditional inverses are closed
form; a generic sequential conditional-inversion fallback (bisection on
copula partials, n <= 4) cross-checks them.

Reproducibility contract: every replication of the coverage experiment gets
its own spawned child stream, so results do not depend on scheduling and any
subset of replications can be reproduced in isolation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .copula import ClaytonPairCopula, FGMCopula, ProductCopula
from .errors import (
    InsufficientBinCount,
    InvalidK,
    OrderingViolation,
    OutOfRange,
    UnsupportedCopula,
)
from .marginal import Exponential
from .structure import SystemStructure, series, validate_structure

MIN_BIN_ROWS = 500


def _seed_sequence(seed):
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


# -- coordinate transforms ---------------------------------------------------

def _fgm_conditional_inverse(a, w):
    # root of a v^2 - (1+a) v + w = 0 in [0,1]; the 2w/(...) form is stable
    # across a -> 0 where the equation degenerates to v = w
    disc = (1.0 + a) ** 2 - 4.0 * w * a
    return 2.0 * w / (1.0 + a + np.sqrt(disc))


def _clayton_conditional_inverse(p, w, theta):
    # solve d/dp of the pair factor = w for the partner coordinate
    with np.errstate(divide="ignore", over="ignore"):
        inner = 1.0 + p ** (-theta) * (w ** (-theta / (1.0 + theta)) - 1.0)
        return inner ** (-1.0 / theta)


def survival_uniforms(copula, U):
    """Map independent uniforms to survival-scale coordinates V ~ copula."""
    U = np.asarray(U, dtype=float)
    if U.shape[-1:] != (copula.n,):
        raise OutOfRange(f"uniform block must have {copula.n} columns")
    if isinstance(copula, ProductCopula):
        return U.copy()
    if isinstance(copula, FGMCopula):
        V = U.copy()
        a = copula.theta * np.prod(1.0 - 2.0 * V[..., :-1], axis=-1)
        V[..., -1] = _fgm_conditional_inverse(a, U[..., -1])
        return V
    if isinstance(copula, ClaytonPairCopula):
        V = U.copy()
        j, k = copula.pair
        V[..., k - 1] = _clayton_conditional_inverse(
            V[..., j - 1], U[..., k - 1], copula.theta
        )
        return V
    raise UnsupportedCopula(f"no sampler for {type(copula).__name__}")


def survival_uniforms_numeric(copula, U):
    """Generic fallback: sequential conditional inversion by bisection.

    Coordinate i is inverted against its conditional CDF given coordinates
    1..i-1, which needs copula partials of order i-1; hence n <= 4.
    """
    U = np.asarray(U, dtype=float)
    if U.shape[-1:] != (copula.n,):
        raise OutOfRange(f"uniform block must have {copula.n} columns")
    n = copula.n
    if n > 4 and not isinstance(copula, ProductCopula):
        raise UnsupportedCopula("numeric conditional inversion supports n <= 4")
    V = np.empty_like(U)
    V[..., 0] = U[..., 0]
    shape = U.shape[:-1]
    for i in range(1, n):
        given = tuple(range(1, i + 1))

        def cond_cdf(q):
            point = np.ones(shape + (n,))
            point[..., :i] = V[..., :i]
            point[..., i] = q
            num = copula.partial(given, point)
            point[..., i] = 1.0
            den = copula.partial(given, point)
            return num / den

        lo = np.zeros(shape)
        hi = np.ones(shape)
        target = U[..., i]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            go_up = cond_cdf(mid) < target
            lo = np.where(go_up, mid, lo)
            hi = np.where(go_up, hi, mid)
        V[..., i] = 0.5 * (lo + hi)
    return V


def components_from_uniforms(copula, marginal, U):
    """Component lifetimes from a block of independent uniforms."""
    return marginal.inv_sf(survival_uniforms(copula, U))


def sample_components(copula, marginal, rng, size):
    """Draw `size` joint component-lifetime rows."""
    U = rng.random((int(size), copula.n))
    return components_from_uniforms(copula, marginal, U)


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
        cols = self.columns()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([name for name, _ in cols])
            for row in zip(*(vals for _, vals in cols)):
                writer.writerow([f"{x:.9g}" for x in row])


def simulate(first, system, copula, marginal, size, seed, second=None) -> SampleSet:
    """Simulate component lifetimes and the ordered system lifetimes."""
    if int(size) < 1:
        raise OutOfRange(f"size must be >= 1, got {size}")
    rng = np.random.default_rng(_seed_sequence(seed))
    X = sample_components(copula, marginal, rng, size)
    meta = {
        "seed": int(seed),
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


# -- diagnostics -------------------------------------------------------------

@dataclass(frozen=True)
class OrderingReport:
    mode: str
    size: int
    violations: int
    tie_rows: int

    @property
    def fraction(self):
        return self.violations / self.size if self.size else 0.0

    @property
    def ok(self):
        return self.violations == 0

    def raise_if_violated(self):
        if not self.ok:
            raise OrderingViolation(
                f"{self.violations} of {self.size} rows violate {self.mode} ordering"
            )


def verify_ordering(sample: SampleSet, mode="strict") -> OrderingReport:
    """Check the declared ordering T1 < T (strict) or T1 <= T (weak)."""
    if mode not in ("strict", "weak"):
        raise OutOfRange(f"mode must be 'strict' or 'weak', got {mode!r}")
    ties = int(np.sum(sample.t1 == sample.t))
    if mode == "strict":
        violations = int(np.sum(sample.t1 >= sample.t))
    else:
        violations = int(np.sum(sample.t1 > sample.t))
    return OrderingReport(mode=mode, size=sample.size, violations=violations, tie_rows=ties)


@dataclass(frozen=True)
class ConditionalCheck:
    rows: int
    y: np.ndarray
    empirical: np.ndarray
    model: np.ndarray

    @property
    def deviation(self):
        return float(np.max(np.abs(self.empirical - self.model)))


def empirical_conditional_check(sample, predictor, t1_bin, y_grid,
                                t2_bin=None) -> ConditionalCheck:
    """Empirical conditional survival in a thin bin vs the analytic law.

    Rows whose first failure falls in `t1_bin` (and, for two-failure
    predictors, whose second falls in `t2_bin`) form the empirical
    conditional sample; the analytic law is evaluated at the bin centers.
    """
    lo, hi = float(t1_bin[0]), float(t1_bin[1])
    mask = (sample.t1 >= lo) & (sample.t1 < hi)
    cond = [0.5 * (lo + hi)]
    if t2_bin is not None:
        if sample.t2 is None:
            raise OutOfRange("sample has no second failure times")
        lo2, hi2 = float(t2_bin[0]), float(t2_bin[1])
        mask &= (sample.t2 >= lo2) & (sample.t2 < hi2)
        cond.append(0.5 * (lo2 + hi2))
    if predictor.require_alive:
        mask &= sample.t > sample.t1
    rows = int(np.sum(mask))
    if rows < MIN_BIN_ROWS:
        raise InsufficientBinCount(
            f"{rows} rows in the conditioning bin, need >= {MIN_BIN_ROWS}"
        )
    y = np.asarray(y_grid, dtype=float)
    t_rows = sample.t[mask]
    empirical = np.mean(t_rows[:, None] > y[None, :], axis=0)
    model = np.asarray(predictor.survival(y, *cond), dtype=float)
    return ConditionalCheck(rows=rows, y=y, empirical=empirical, model=model)


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

    Reference design: three independent exponential components, the system
    being the better of component 1 and the pair {2, 3} in series, predicted
    from its first failure (always strictly earlier).  Offsets are exact up
    to the quantile bisection tolerance and scale linearly in the mean.
    """
    from .predictor import EarlyFailurePredictor

    first = series(3)
    system = validate_structure(3, [[1], [2, 3]])
    pred = EarlyFailurePredictor(
        first, system, ProductCopula(3), Exponential(1.0), ordering="strict"
    )
    return {w: float(pred.quantile(w, 0.0)) for w in (0.75, 0.25, 0.95, 0.05)}


def coverage_experiment(k, replications, seed, *, score="same",
                        eval_draws=None, exact_mu=False) -> CoverageReport:
    """Coverage of plug-in 50%/90% prediction intervals on the reference design.

    Each replication draws k systems, estimates the component mean as
    mu-hat = 3 * mean(T1) (the first failure has mean mu/3), forms the
    centered plug-in intervals [T1 + c_w_hi * mu-hat, T1 + c_w_lo * mu-hat],
    and scores them on the same k systems (`score="fresh"` scores
    `eval_draws` new systems instead; `exact_mu` pins mu-hat to the truth).
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
    root = _seed_sequence(seed)
    cov50 = np.empty(replications)
    cov90 = np.empty(replications)
    for i, child in enumerate(root.spawn(replications)):
        rng = np.random.default_rng(child)
        X = -np.log(rng.random((k, 3)))
        t1 = X.min(axis=1)
        mu_hat = 1.0 if exact_mu else 3.0 * t1.mean()
        if score == "same":
            st1, st = t1, np.maximum(X[:, 0], np.minimum(X[:, 1], X[:, 2]))
        else:
            m = int(eval_draws) if eval_draws else k
            Y = -np.log(rng.random((m, 3)))
            st1 = Y.min(axis=1)
            st = np.maximum(Y[:, 0], np.minimum(Y[:, 1], Y[:, 2]))
        cov50[i] = np.mean(
            (st >= st1 + offs[0.75] * mu_hat) & (st <= st1 + offs[0.25] * mu_hat)
        )
        cov90[i] = np.mean(
            (st >= st1 + offs[0.95] * mu_hat) & (st <= st1 + offs[0.05] * mu_hat)
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
