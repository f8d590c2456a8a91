"""The count-pattern law against exact arithmetic, beside the row form it replaced.

Under the product and FGM copulas the predictors evaluate num and den by
count pattern (`distortion._PatternSum`); `distortion._TermSum` sums the
same rows one by one.  `tests/exact_oracle.py` evaluates those rows in
exact integer arithmetic.  In every cell of designs x theta, at conditioning points c
drawn log-uniform (c_1 = 1, the first failure at t = 0, at a quarter of
them) and z uniform on (0, c_k], the pattern law's worst relative error
must stay within max(2 x the row form's, 1e-14).  Points where a form
raises are counted, not compared.

    PYTHONPATH=src python tests/test_law_accuracy.py   # prints the cell table
"""

from fractions import Fraction

import numpy as np
import pytest

from syspredict import (
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
from syspredict.distortion import _TermSum
from syspredict.errors import SysPredictError

from exact_oracle import ExactLaw, relative_error

DESIGNS = {
    "relay": (series(3), validate_structure(3, [[1], [2, 3]])),
    "gate": (series(3), validate_structure(3, [[1, 2], [1, 3]])),
    "series(3)/2-of-3/parallel(3)": (series(3), k_out_of_n(2, 3), parallel(3)),
    "series(4)/2-of-4": (series(4), k_out_of_n(2, 4)),
    "series(4)/3-of-4/2-of-4": (series(4), k_out_of_n(3, 4), k_out_of_n(2, 4)),
}
THETAS = (None, 0.5, -0.5, -0.8, 0.99, 1.0, -1.0)  # None: the product copula
POINTS = 300
LOWEST = 1e-24  # c is log-uniform on [LOWEST, 1]


def _copula(theta, n):
    return ProductCopula(n) if theta is None else FGMCopula(theta=theta, n=n)


def _row_law(copula, structures):
    """The law summed row by row, as `_TermSum` sums it."""
    k = len(structures) - 1
    num = _TermSum(copula, *structures).partial(*range(k))
    den = _TermSum(copula, *structures[:-1]).partial(*range(k))
    tiny = np.finfo(float).tiny

    def law(z, *c):
        d = den(*c)
        if not (np.isfinite(d) and abs(d) >= tiny):
            raise SysPredictError("den is 0, subnormal or not finite")
        return float(np.clip(num(*c, z) / d, 0.0, 1.0))

    return law


def cell(design, theta, points=POINTS, seed=0):
    """(worst pattern error, worst row error, points raised by each) over one cell."""
    structures = DESIGNS[design]
    copula = _copula(theta, structures[0].n)
    k = len(structures) - 1
    exact = ExactLaw(copula, *structures)
    pred = (EarlyFailurePredictor if k == 1 else TwoFailurePredictor)(
        *structures, copula, Exponential(1.0))
    rows = _row_law(copula, structures)
    rng = np.random.default_rng(seed)
    worst_pattern = worst_rows = 0.0
    raised = [0, 0]
    for _ in range(points):
        c = sorted((10.0 ** rng.uniform(np.log10(LOWEST), 0.0, k)).tolist(), reverse=True)
        if rng.uniform() < 0.25:
            c[0] = 1.0
        z = c[-1] * (1.0 - rng.uniform())  # in (0, c_k]
        answers = []
        for i, form in enumerate((lambda: pred._law(*c)[0](z), lambda: rows(z, *c))):
            try:
                answers.append(form())
            except SysPredictError:
                raised[i] += 1
        if len(answers) < 2:
            continue
        want = exact.law(z, *c)
        worst_pattern = max(worst_pattern, relative_error(answers[0], want))
        worst_rows = max(worst_rows, relative_error(answers[1], want))
    return worst_pattern, worst_rows, tuple(raised)


def test_oracle_matches_closed_forms():
    """The oracle against two laws written out by hand, in `Fraction`.

    Product relay: S(z | c) = (2 c z + z^2) / (3 c^2).  FGM series(3) /
    2-of-3 / parallel(3): S = (z + b z (1 - z)) / (c2 + b c2 (1 - c2)) with
    b = theta (1 - 2 c1)(1 - 2 c2).
    """
    relay = ExactLaw(ProductCopula(3), *DESIGNS["relay"])
    two = ExactLaw(FGMCopula(theta=-0.8, n=3), *DESIGNS["series(3)/2-of-3/parallel(3)"])
    for c1, c2, z in ((1.0, 0.75, 0.5), (0.625, 0.3, 0.1), (0.9, 1e-20, 3e-21)):
        c1, c2, z = (Fraction(x) for x in (c1, c2, z))
        assert relay.law(z, c2) == (2 * c2 * z + z * z) / (3 * c2 * c2)
        b = Fraction(-0.8) * (1 - 2 * c1) * (1 - 2 * c2)
        assert two.law(z, c1, c2) == (z + b * z * (1 - z)) / (c2 + b * c2 * (1 - c2))


@pytest.mark.parametrize("theta", THETAS, ids=lambda t: "product" if t is None else f"fgm{t}")
@pytest.mark.parametrize("design", DESIGNS)
def test_pattern_law_is_as_accurate_as_the_rows(design, theta):
    worst_pattern, worst_rows, _ = cell(design, theta)
    assert worst_pattern <= max(2.0 * worst_rows, 1e-14)


if __name__ == "__main__":
    print("| design | theta | pattern worst rel | rows worst rel | raised (pattern, rows) |")
    print("|---|---|---|---|---|")
    for design in DESIGNS:
        for theta in THETAS:
            p, r, raised = cell(design, theta)
            name = "product" if theta is None else f"{theta:g}"
            print(f"| {design} | {name} | {p:.2g} | {r:.2g} | {raised[0]}, {raised[1]} |")
