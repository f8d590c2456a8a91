"""The count-pattern law against exact arithmetic, beside the per-term loop.

The predictors evaluate num and den by count pattern
(`distortion._PatternSum`); `law_oracle.oracle_sum` sums the same rows one
by one, in term order.  `tests/exact_oracle.py` evaluates those rows in
exact integer arithmetic under product and FGM, and in 60-digit `decimal`
under the Clayton pair.  In every cell of designs x copula, at conditioning
points c drawn log-uniform (c_1 = 1, the first failure at t = 0, at a
quarter of them) and z uniform on (0, c_k], the pattern law's worst
relative error must stay within max(2 x the per-term loop's, 1e-14).
Points where a form raises are counted, not compared.

    PYTHONPATH=src python tests/test_law_accuracy.py   # prints the cell table
"""

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from syspredict import (
    ClaytonPairCopula,
    EarlyFailurePredictor,
    Exponential,
    FGMCopula,
    ProductCopula,
    TwoFailurePredictor,
    k_out_of_n,
    parallel,
    series,
    validate_structure,
)
from syspredict.distortion import _joint_terms
from syspredict.errors import SysPredictError

from exact_oracle import ExactLaw, relative_error
from law_oracle import oracle_sum

DESIGNS = {
    "relay": (series(3), validate_structure(3, [[1], [2, 3]])),
    "gate": (series(3), validate_structure(3, [[1, 2], [1, 3]])),
    "series(3)/2-of-3/parallel(3)": (series(3), k_out_of_n(2, 3), parallel(3)),
    "series(4)/2-of-4": (series(4), k_out_of_n(2, 4)),
    "series(4)/3-of-4/2-of-4": (series(4), k_out_of_n(3, 4), k_out_of_n(2, 4)),
}
THETAS = (None, 0.5, -0.5, -0.8, 0.99, 1.0, -1.0)  # None: the product copula
POINTS = 300
# the Clayton pair: (2, 3) on three components, (1, 3) on four
CLAYTON_DESIGNS = ("relay", "gate", "series(3)/2-of-3/parallel(3)", "series(4)/3-of-4/2-of-4")
CLAYTON_THETAS = (0.3, 1.0, 2.5, 8.0)
CLAYTON_POINTS = 100  # 400 per theta: each point sums its rows in decimal
LOWEST = 1e-24  # c is log-uniform on [LOWEST, 1]
ALL_CELLS = ([(d, None, t) for d in DESIGNS for t in THETAS]
         + [(d, "clayton", t) for d in CLAYTON_DESIGNS for t in CLAYTON_THETAS])


def _copula(family, theta, n):
    if family == "clayton":
        return ClaytonPairCopula(pair=(2, 3) if n == 3 else (1, 3), theta=theta, n=n)
    return ProductCopula(n) if theta is None else FGMCopula(theta=theta, n=n)


def _loop_law(copula, structures, points):
    """The law at every (z, *c) of `points` from the per-term loop, None where it raises."""
    k = len(structures) - 1
    z, *c = (np.array(x) for x in zip(*points))
    num, _ = oracle_sum(copula, _joint_terms(*structures), (*c, z), *range(k))
    den, _ = oracle_sum(copula, _joint_terms(*structures[:-1]), c, *range(k))
    good = np.isfinite(den) & (np.abs(den) >= np.finfo(float).tiny)
    with np.errstate(divide="ignore", invalid="ignore"):
        law = np.clip(num / den, 0.0, 1.0)
    return [float(x) if ok else None for x, ok in zip(law, good)]


def cell(design, family, theta, points=None, seed=0):
    """(worst pattern error, worst loop error, points raised by each) over one cell."""
    structures = DESIGNS[design]
    copula = _copula(family, theta, structures[0].n)
    k = len(structures) - 1
    exact = ExactLaw(copula, *structures)
    pred = (EarlyFailurePredictor if k == 1 else TwoFailurePredictor)(
        *structures, copula, Exponential(1.0))
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(points or (CLAYTON_POINTS if family else POINTS)):
        c = sorted((10.0 ** rng.uniform(np.log10(LOWEST), 0.0, k)).tolist(), reverse=True)
        if rng.uniform() < 0.25:
            c[0] = 1.0
        drawn.append((c[-1] * (1.0 - rng.uniform()), *c))  # z in (0, c_k]
    worst_pattern = worst_loop = 0.0
    raised = [0, 0]
    with np.errstate(all="ignore"):
        loop = _loop_law(copula, structures, drawn)
    for (z, *c), by_loop in zip(drawn, loop):
        try:
            by_pattern = pred._law(*c)[0](z)
        except SysPredictError:
            by_pattern = None
        raised[0] += by_pattern is None
        raised[1] += by_loop is None
        if by_pattern is None or by_loop is None:
            continue
        want = exact.law(z, *c)
        worst_pattern = max(worst_pattern, relative_error(by_pattern, want))
        worst_loop = max(worst_loop, relative_error(by_loop, want))
    return worst_pattern, worst_loop, tuple(raised)


def test_oracle_matches_closed_forms():
    """The oracle against laws written out by hand, in `Fraction` and `decimal`.

    Product relay: S(z | c) = (2 c z + z^2) / (3 c^2).  FGM series(3) /
    2-of-3 / parallel(3): S = (z + b z (1 - z)) / (c2 + b c2 (1 - c2)) with
    b = theta (1 - 2 c1)(1 - 2 c2).  Clayton relay, pair (2, 3): S =
    (z s + C(z, z)) / (C(c, c) + c s), with C(u, u) = (2 u^-theta - 1)^(-1/theta)
    and s = 2 d/dp C(c, c) = 2 c^(-theta-1) (2 c^-theta - 1)^(-1/theta-1).
    """
    relay = ExactLaw(ProductCopula(3), *DESIGNS["relay"])
    two = ExactLaw(FGMCopula(theta=-0.8, n=3), *DESIGNS["series(3)/2-of-3/parallel(3)"])
    for c1, c2, z in ((1.0, 0.75, 0.5), (0.625, 0.3, 0.1), (0.9, 1e-20, 3e-21)):
        c1, c2, z = (Fraction(x) for x in (c1, c2, z))
        assert relay.law(z, c2) == (2 * c2 * z + z * z) / (3 * c2 * c2)
        b = Fraction(-0.8) * (1 - 2 * c1) * (1 - 2 * c2)
        assert two.law(z, c1, c2) == (z + b * z * (1 - z)) / (c2 + b * c2 * (1 - c2))
    clayton = ExactLaw(_copula("clayton", 2.5, 3), *DESIGNS["relay"])
    with localcontext() as ctx:
        ctx.prec = 60
        theta = Decimal(2.5)
        power = lambda x, y: (y * x.ln()).exp()
        diag = lambda u: power(2 * power(u, -theta) - 1, -1 / theta)
        for c, z in ((0.75, 0.5), (0.3, 0.1), (1e-20, 3e-21)):
            c, z = Decimal(c), Decimal(z)
            s = 2 * power(c, -theta - 1) * power(2 * power(c, -theta) - 1, -1 / theta - 1)
            want = (z * s + diag(z)) / (diag(c) + c * s)
            got = clayton.law(float(z), float(c))
            assert abs(Decimal(got.numerator) / got.denominator - want) <= Decimal("1e-50") * want


@pytest.mark.parametrize("theta", THETAS, ids=lambda t: "product" if t is None else f"fgm{t}")
@pytest.mark.parametrize("design", DESIGNS)
def test_pattern_law_is_as_accurate_as_the_rows(design, theta):
    worst_pattern, worst_loop, _ = cell(design, None, theta)
    assert worst_pattern <= max(2.0 * worst_loop, 1e-14)


@pytest.mark.parametrize("theta", CLAYTON_THETAS, ids=lambda t: f"clayton{t:g}")
@pytest.mark.parametrize("design", CLAYTON_DESIGNS)
def test_clayton_pattern_law_is_as_accurate_as_the_loop(design, theta):
    worst_pattern, worst_loop, _ = cell(design, "clayton", theta)
    assert worst_pattern <= max(2.0 * worst_loop, 1e-14)


if __name__ == "__main__":
    print("| design | copula | pattern worst rel | loop worst rel | raised (pattern, loop) |")
    print("|---|---|---|---|---|")
    for design, family, theta in ALL_CELLS:
        p, r, raised = cell(design, family, theta)
        name = "product" if theta is None else f"{family or 'fgm'} {theta:g}"
        print(f"| {design} | {name} | {p:.2g} | {r:.2g} | {raised[0]}, {raised[1]} |")
