import math
import subprocess
import sys
from decimal import Decimal, localcontext
from itertools import product

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate
from scipy.stats import beta as beta_dist

from syspredict import (
    ClaytonPairCopula,
    EarlyFailurePredictor,
    Exponential,
    FGMCopula,
    ProductCopula,
    TwoFailurePredictor,
    UnivariateDistortion,
    Weibull,
    kofn_quantile_factor,
    k_out_of_n,
    kofn_survival,
    parallel,
    series,
    system_mean,
    validate_structure,
)
from syspredict.errors import (
    DegenerateDenominator,
    InvalidOrder,
    NegativeTime,
    NotInvertible,
    OutOfRange,
    OutOfUnitInterval,
    QuadratureFailure,
    SysPredictError,
    ZeroAlpha,
)
from syspredict.predictor import BISECT_MAX, BISECT_TOL, _solve_increasing, _solve_one, _tail_mean

from solver_oracle import solve_increasing as oracle_solve_increasing

# closed-form offsets for IID exponentials, frozen from the analytic laws
RELAY_MEDIAN = 0.5427656
RELAY_I50 = (0.2196800, 1.1304880)
RELAY_I90 = (0.0385936, 2.6258180)
RELAY_BOTTOM90 = 1.9648606
GATE_WEAK_MEDIAN = 0.1438410
GATE_ALIVE_MEDIAN = 0.3465736
GATE_WEAK_BOTTOM90 = 0.9485600


@pytest.fixture
def relay_strict(first3, relay, product3, exp1):
    return EarlyFailurePredictor(first3, relay, product3, exp1, mode="strict")


@pytest.fixture
def clayton_strict(first3, relay, clayton23, exp1):
    return EarlyFailurePredictor(first3, relay, clayton23, exp1, mode="strict")


@pytest.fixture
def gate_weak(first3, gate, product3, exp1):
    return EarlyFailurePredictor(first3, gate, product3, exp1, mode="weak")


@pytest.fixture
def gate_alive(first3, gate, product3, exp1):
    return EarlyFailurePredictor(
        first3, gate, product3, exp1, mode="alive"
    )


@pytest.fixture
def gate_fgm_weak(first3, gate, fgm1, exp1):
    return EarlyFailurePredictor(first3, gate, fgm1, exp1, mode="weak")


@pytest.fixture
def twofail_fgm(first3, two_of_three, parallel3, fgm1, exp1):
    return TwoFailurePredictor(first3, two_of_three, parallel3, fgm1, exp1)


def test_case1_survival_closed_form(relay_strict, exp1):
    for t in (0.0, 0.4, 1.1):
        u = exp1.sf(t)
        for y in np.linspace(t, t + 4.0, 25):
            v = exp1.sf(y)
            want = (2 * v * u + v * v) / (3 * u * u)
            assert relay_strict.survival(y, t) == pytest.approx(want, abs=1e-12)
    assert relay_strict.survival(0.2, 0.5) == 1.0, "before the observed failure"
    assert relay_strict.survival(0.5, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_case1_clayton_corrected_law(clayton_strict):
    # derived oracle: law from differentiating the joint survival, not the
    # (inconsistent) worked display
    def law(u, v):
        return v * (2 * (2 - v) + (2 - u) ** 2) / ((2 - v) * u * (4 - u))

    t, y = -np.log(0.8), -np.log(0.5)
    assert clayton_strict.survival(y, t) == pytest.approx(0.578125, abs=1e-12)
    for u in (0.9, 0.6, 0.3):
        for v in (0.25, 0.5):
            if v <= u:
                got = clayton_strict.survival(-np.log(v), -np.log(u))
                assert got == pytest.approx(law(u, v), abs=1e-12)


def _clayton_dp(p, q, theta):
    """d/dp and d2/dp dq of the Clayton pair factor (p^-theta + q^-theta - 1)^(-1/theta)."""
    s = p ** -theta + q ** -theta - 1
    return (p ** (-theta - 1) * s ** (-1 / theta - 1),
            (1 + theta) * (p * q) ** (-theta - 1) * s ** (-1 / theta - 2))


def _relay_law(theta, c):
    """Exact z -> S(z | c) of the strict relay under the Clayton pair (2, 3).

    P(T1 > x1, T > x2) = u2 C(u1, u1) + u1 C(u2, u2) - u2 C(u2, u2) on
    u1 >= u2; its d/du1 at (c, z) over d/du [u C(u, u)] at c, where
    d/du C(u, u) = 2 C_p(u, u).
    """
    diag = lambda u: (2 * u ** -theta - 1) ** (-1 / theta)
    slope = 2 * _clayton_dp(c, c, theta)[0]
    return lambda z: (z * slope + diag(z)) / (diag(c) + c * slope)


def _two_failure_law(theta, c1, c2):
    """Exact z -> S(z | c1, c2) of series(3) / 2-of-3 / parallel(3) under the pair (2, 3).

    The sum, over which component fails first, which second and which
    survives, of the mixed partial of u1 C(u2, u3) in the first two, at
    (c1, c2, z), over the same sum at z = c2.
    """
    d12 = _clayton_dp(c1, c2, theta)[1]
    num = lambda z: _clayton_dp(c2, z, theta)[0] + _clayton_dp(c1, z, theta)[0] + z * d12
    return lambda z: num(z) / num(c2)


def _decimal_root(law, top, w):
    """z in (0, top] with law(z) = w, law increasing: bisection to 1e-21 of top."""
    lo, hi = Decimal(0), top
    for _ in range(70):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if law(mid) >= w else (mid, hi)
    return (lo + hi) / 2


@pytest.mark.parametrize("times", [(6.0,), (3.0, 6.0)], ids=["relay", "two-failure"])
def test_clayton_law_far_out_matches_the_exact_law(times):
    """At t = 6 under Weibull(3, 1), F-bar is e^-216: the Clayton pair kernel
    works at p^-theta far beyond the double range, and the law is still right."""
    theta = 2.5
    copula = ClaytonPairCopula(pair=(2, 3), theta=theta, n=3)
    if len(times) == 1:
        pred = EarlyFailurePredictor(series(3), validate_structure(3, [[1], [2, 3]]),
                                     copula, Weibull(3.0, 1.0), mode="strict")
    else:
        pred = TwoFailurePredictor(series(3), k_out_of_n(2, 3), parallel(3), copula,
                                   Weibull(3.0, 1.0))
    with localcontext() as ctx:
        ctx.prec = 60
        sf = lambda y: (-Decimal(y) ** 3).exp()
        c = [sf(t) for t in times]
        law = (_relay_law if len(c) == 1 else _two_failure_law)(Decimal(theta), *c)
        for w in (0.5, 0.05, 0.95):
            exact = _decimal_root(law, c[-1], Decimal(w))
            got = pred.median(*times) if w == 0.5 else pred.quantile(w, *times)
            assert got > times[-1]
            assert abs(sf(got) - exact) <= Decimal("1e-12") * c[-1]
        assert abs(Decimal(pred.alpha(*times)) - law(c[-1])) <= Decimal("1e-15")
    if len(times) == 1:
        assert pred.median(6.0) == pytest.approx(6.00641118, rel=1e-9)


def test_relay_offsets(relay_strict):
    for t in (0.0, 0.5, 2.0):
        assert relay_strict.median(t) == pytest.approx(t + RELAY_MEDIAN, abs=1e-7)
        assert relay_strict.mean(t) == pytest.approx(t + 5.0 / 6.0, abs=1e-7)
    b50 = relay_strict.band("centered", 0.50)
    b90 = relay_strict.band("centered", 0.90)
    bot = relay_strict.band("bottom", 0.90)
    for t in (0.0, 1.0):
        assert b50.lower(t) == pytest.approx(t + RELAY_I50[0], abs=1e-7)
        assert b50.upper(t) == pytest.approx(t + RELAY_I50[1], abs=1e-7)
        assert b90.lower(t) == pytest.approx(t + RELAY_I90[0], abs=1e-7)
        assert b90.upper(t) == pytest.approx(t + RELAY_I90[1], abs=1e-7)
        assert bot.lower(t) == t
        assert bot.upper(t) == pytest.approx(t + RELAY_BOTTOM90, abs=1e-7)


def test_relay_analytic_inverse(first3, relay, product3, exp1):
    def inverse(w, t):
        u = exp1.sf(np.asarray(t, dtype=float))
        return exp1.inv_sf(u * (np.sqrt(1.0 + 3.0 * np.asarray(w)) - 1.0))

    pred = EarlyFailurePredictor(first3, relay, product3, exp1, mode="strict")
    for w in (0.05, 0.25, 0.5, 0.9):
        for t in (0.0, 0.8):
            assert pred.quantile(w, t) == pytest.approx(inverse(w, t), abs=1e-9)


def test_gate_weak_law_and_offsets(gate_weak):
    for t in (0.0, 0.7, 1.5):
        u = np.exp(-t)
        assert gate_weak.alpha(t) == pytest.approx(2.0 / 3.0, abs=1e-12)
        for y in np.linspace(t, t + 3.0, 15):
            v = np.exp(-y)
            want = 2.0 * v * v / (3.0 * u * u)
            assert gate_weak.survival(y, t) == pytest.approx(want, abs=1e-12)
        assert gate_weak.median(t) == pytest.approx(t + GATE_WEAK_MEDIAN, abs=1e-7)
        assert gate_weak.mean(t) == pytest.approx(t + 1.0 / 3.0, abs=1e-7)
    bot = gate_weak.band("bottom", 0.90)
    assert bot.upper(0.3) == pytest.approx(0.3 + GATE_WEAK_BOTTOM90, abs=1e-7)


def test_gate_weak_atom(gate_weak):
    # a third of the conditional mass sits exactly at the observed time
    for t in (0.2, 1.0):
        assert gate_weak.quantile(0.7, t) == t
        assert gate_weak.quantile(2.0 / 3.0, t) == t, "atom includes its level"
        assert gate_weak.quantile(0.6, t) > t
        assert gate_weak.median(t) > t


def test_gate_alive_renormalizes(gate_weak, gate_alive):
    for t in (0.0, 0.9):
        u = np.exp(-t)
        for y in np.linspace(t + 1e-9, t + 3.0, 12):
            v = np.exp(-y)
            want = v * v / (u * u)
            assert gate_alive.survival(y, t) == pytest.approx(want, abs=1e-12)
        assert gate_alive.median(t) == pytest.approx(t + GATE_ALIVE_MEDIAN, abs=1e-7)
        assert gate_alive.mean(t) == pytest.approx(t + 0.5, abs=1e-7)
        assert gate_alive.survival(t, t) == 1.0


def test_alive_equals_weak_over_alpha(gate_weak, gate_alive, gate_fgm_weak,
                                      first3, gate, fgm1, exp1):
    fgm_alive = EarlyFailurePredictor(
        first3, gate, fgm1, exp1, mode="alive"
    )
    for weak, alive in ((gate_weak, gate_alive), (gate_fgm_weak, fgm_alive)):
        for t in (0.1, 0.8):
            a = weak.alpha(t)
            for y in np.linspace(t + 0.01, t + 2.5, 9):
                assert alive.survival(y, t) == pytest.approx(
                    weak.survival(y, t) / a, abs=1e-12
                )


@pytest.mark.parametrize("design", ["gate", "two_of_four", "clayton_gate"])
def test_survival_at_the_horizon(design, first3, gate, product3, exp1):
    """S(t | t) is alpha(t); alive renormalizes it to 1 but keeps alpha(t) the share."""
    first, system, copula = {
        "gate": (first3, gate, product3),
        "two_of_four": (series(4), k_out_of_n(2, 4), FGMCopula(theta=-0.6, n=4)),
        "clayton_gate": (first3, gate, ClaytonPairCopula(theta=2.5, n=3, pair=(1, 2))),
    }[design]
    preds = {mode: EarlyFailurePredictor(first, system, copula, exp1,
                                         mode=mode)
             for mode in ("strict", "weak", "alive")}
    for t in (0.0, 0.4, 1.3):
        for mode in ("strict", "weak"):
            assert preds[mode].survival(t, t) == preds[mode].alpha(t)
        assert preds["alive"].survival(t, t) == 1.0
        assert preds["alive"].alpha(t) == preds["weak"].alpha(t)
        if design != "two_of_four":
            assert preds["weak"].alpha(t) < 0.9, "the gate can fail at the first failure"


def test_gate_fgm_alpha_is_theta_free(first3, gate, exp1):
    for theta in (-1.0, -0.3, 0.0, 0.6, 1.0):
        p = EarlyFailurePredictor(
            first3, gate, FGMCopula(theta=theta, n=3), exp1, mode="weak"
        )
        for t in (0.0, 0.5, 1.7):
            assert p.alpha(t) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_fgm_theta_zero_matches_product(first3, gate, product3, exp1):
    base = EarlyFailurePredictor(first3, gate, product3, exp1, mode="weak")
    zero = EarlyFailurePredictor(
        first3, gate, FGMCopula(theta=0.0, n=3), exp1, mode="weak"
    )
    for t in (0.0, 0.6):
        for y in np.linspace(t, t + 3.0, 11):
            assert zero.survival(y, t) == pytest.approx(
                base.survival(y, t), abs=1e-12
            )
        assert zero.quantile(0.3, t) == pytest.approx(base.quantile(0.3, t), abs=1e-9)


def test_translation_invariance_exponential(relay_strict, gate_weak):
    # memoryless components: conditional quantiles are offsets, not rescalings
    ts = np.array([0.0, 0.3, 0.9, 1.6, 2.0])
    for p in (relay_strict, gate_weak):
        for w in (0.2, 0.5, 0.8):
            offsets = p.quantile(w, ts) - ts
            assert np.max(np.abs(offsets - offsets[0])) < 1e-10


def test_survival_monotone_and_inversion(relay_strict, clayton_strict, gate_weak,
                                         gate_alive, gate_fgm_weak):
    for p in (relay_strict, clayton_strict, gate_weak, gate_alive, gate_fgm_weak):
        t = 0.45
        ys = np.linspace(t, t + 6.0, 200)
        s = p.survival(ys, t)
        assert np.all(np.diff(s) <= 1e-12), "survival must be nonincreasing"
        assert np.all((0.0 <= s) & (s <= 1.0))
        a = p.alpha(t)
        for w in (0.05, 0.3, 0.5, 0.62):
            if w >= a:
                continue  # the level sits in the atom; survival jumps past it
            y = p.quantile(w, t)
            assert p.survival(y, t) == pytest.approx(w, abs=1e-8)


def test_median_mean_curves_vectorized(relay_strict):
    grid = np.linspace(0.0, 2.0, 9)
    med = relay_strict.median(grid)
    assert med.shape == grid.shape
    np.testing.assert_allclose(med, grid + RELAY_MEDIAN, atol=1e-7)
    mean = relay_strict.mean(grid)
    np.testing.assert_allclose(mean, grid + 5.0 / 6.0, atol=1e-7)
    band = relay_strict.band("centered", 0.9)
    np.testing.assert_allclose(band.lower(grid), grid + RELAY_I90[0], atol=1e-7)


def test_band_argument_errors(relay_strict):
    with pytest.raises(OutOfRange):
        relay_strict.band("middle", 0.9)
    with pytest.raises(OutOfRange):
        relay_strict.band("centered", 0.0)
    with pytest.raises(OutOfRange):
        relay_strict.band("centered", 1.0)
    with pytest.raises(OutOfRange):
        relay_strict.quantile(0.0, 1.0)
    with pytest.raises(OutOfRange):
        relay_strict.quantile(1.0, 1.0)


def test_ordering_validation(first3, relay, product3, exp1):
    with pytest.raises(OutOfRange, match="mode"):
        EarlyFailurePredictor(first3, relay, product3, exp1, mode="loose")


def test_system_means(relay, gate, parallel3, first3, product3, fgm1, clayton23, exp1):
    assert system_mean(relay, product3, exp1) == pytest.approx(7.0 / 6.0, abs=1e-7)
    assert system_mean(relay, clayton23, exp1) == pytest.approx(
        2.0 - np.log(2.0), abs=1e-7
    )
    assert system_mean(gate, product3, exp1) == pytest.approx(2.0 / 3.0, abs=1e-7)
    assert system_mean(gate, fgm1, exp1) == pytest.approx(0.65, abs=1e-7)
    assert system_mean(parallel3, fgm1, exp1) == pytest.approx(1.85, abs=1e-7)
    assert system_mean(first3, product3, exp1) == pytest.approx(1.0 / 3.0, abs=1e-7)
    # scale equivariance in the component mean
    assert system_mean(relay, product3, Exponential(mean=2.5)) == pytest.approx(
        2.5 * 7.0 / 6.0, abs=1e-6
    )


def test_clayton_mean_from_zero(clayton_strict):
    # conditional mean at t=0 for the dependent-pair design
    assert clayton_strict.mean(0.0) == pytest.approx((2.0 + np.log(2.0)) / 3.0, abs=1e-7)


def test_two_failure_closed_form(twofail_fgm, exp1):
    theta = 1.0
    t1, t2 = 0.4632196, 0.6899807
    u, v = exp1.sf(t1), exp1.sf(t2)
    A = (1 - 2 * u) * (1 - 2 * v)
    for y in np.linspace(t2, t2 + 4.0, 30):
        z = exp1.sf(y)
        want = (z / v) * (1 + theta * (1 - z) * A) / (1 + theta * (1 - v) * A)
        assert twofail_fgm.survival(y, t1, t2) == pytest.approx(want, abs=1e-12)
    assert twofail_fgm.survival(t2 - 0.1, t1, t2) == 1.0
    assert twofail_fgm.survival(t2, t1, t2) == pytest.approx(1.0, abs=1e-12)


def test_two_failure_predictions(twofail_fgm):
    t1, t2 = 0.4632196, 0.6899807
    assert twofail_fgm.median(t1, t2) == pytest.approx(1.3833334, abs=1e-6)
    band = twofail_fgm.band("centered", 0.90)
    assert band.lower(t1, t2) == pytest.approx(0.7412946, abs=1e-6)
    assert band.upper(t1, t2) == pytest.approx(3.6861034, abs=1e-6)
    assert twofail_fgm.mean(t1, t2) == pytest.approx(1.6901862, abs=1e-6)


def test_two_failure_analytic_inverse(first3, two_of_three, parallel3, fgm1, exp1):
    theta = 1.0

    def inverse(w, t1, t2):
        u, v = exp1.sf(np.asarray(t1, float)), exp1.sf(np.asarray(t2, float))
        c = theta * (1 - 2 * u) * (1 - 2 * v)
        rhs = np.asarray(w) * v * (1 + c * (1 - v))
        with np.errstate(invalid="ignore", divide="ignore"):
            z = np.where(
                np.abs(c) < 1e-12,
                rhs,
                ((1 + c) - np.sqrt((1 + c) ** 2 - 4 * c * rhs)) / (2 * c),
            )
        return exp1.inv_sf(z)

    pred = TwoFailurePredictor(first3, two_of_three, parallel3, fgm1, exp1)
    for w in (0.05, 0.5, 0.95):
        for t1, t2 in ((0.2, 0.5), (0.4632196, 0.6899807), (1.0, 1.0)):
            assert pred.quantile(w, t1, t2) == pytest.approx(inverse(w, t1, t2), abs=1e-9)


def test_two_failure_product_markov(first3, two_of_three, parallel3, product3, exp1):
    # with independent components only the latest failure time matters
    p = TwoFailurePredictor(first3, two_of_three, parallel3, product3, exp1)
    t2 = 0.9
    ys = np.linspace(t2, t2 + 3.0, 20)
    base = p.survival(ys, 0.05, t2)
    for t1 in (0.2, 0.5, 0.85):
        np.testing.assert_allclose(p.survival(ys, t1, t2), base, atol=1e-12)
    # and the law matches the order-statistic shortcut
    np.testing.assert_allclose(
        base, kofn_survival(3, 2, 3, t2, ys, exp1), atol=1e-12
    )
    assert p.quantile(0.5, 0.1, t2) == pytest.approx(
        exp1.inv_sf(0.5 * exp1.sf(t2)), abs=1e-9
    )


def test_two_failure_fgm_zero_matches_product(first3, two_of_three, parallel3,
                                              product3, exp1):
    zero = TwoFailurePredictor(
        first3, two_of_three, parallel3, FGMCopula(theta=0.0, n=3), exp1
    )
    prod = TwoFailurePredictor(first3, two_of_three, parallel3, product3, exp1)
    for y in np.linspace(0.7, 4.0, 15):
        assert zero.survival(y, 0.3, 0.7) == pytest.approx(
            prod.survival(y, 0.3, 0.7), abs=1e-12
        )


def test_two_failure_errors(twofail_fgm):
    with pytest.raises(OutOfRange):
        twofail_fgm.survival(1.0, 0.8, 0.5)
    with pytest.raises(OutOfRange):
        twofail_fgm.quantile(0.5, -0.1, 0.5)


def test_single_failure_case1_for_parallel(first3, parallel3, fgm1, exp1):
    # one observed failure, system is the last survivor
    p = EarlyFailurePredictor(first3, parallel3, fgm1, exp1, mode="strict")
    t = 0.4632196
    assert p.median(t) == pytest.approx(1.6584549, abs=1e-6)
    band = p.band("centered", 0.90)
    assert band.lower(t) == pytest.approx(0.7116919, abs=1e-6)
    assert band.upper(t) == pytest.approx(4.0781121, abs=1e-6)


def test_kofn_factor():
    assert kofn_quantile_factor(10, 2, 5, 0.5) == pytest.approx(0.679481, abs=1e-6)
    # independent oracle: quantile of the matching beta law
    for n, r, s, w in ((10, 2, 5, 0.5), (7, 1, 4, 0.3), (5, 2, 3, 0.8)):
        want = beta_dist.ppf(w, n - s + 1, s - r)
        assert kofn_quantile_factor(n, r, s, w) == pytest.approx(want, abs=1e-9)
    # adjacent order statistics of uniforms
    assert kofn_quantile_factor(3, 2, 3, 0.5) == pytest.approx(0.5, abs=1e-9)
    for w in (0.1, 0.7):
        assert kofn_quantile_factor(2, 1, 2, w) == pytest.approx(w, abs=1e-9)
    # every 1 <= r < s <= n <= 30, each triple at the next level in turn: a
    # solve takes up to 62 tail evaluations, so the full product of triples
    # and levels would dominate the suite
    levels = (1e-6, 1e-4, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-4, 1 - 1e-6)
    triples = [(n, r, s) for n in range(2, 31) for r in range(1, n) for s in range(r + 1, n + 1)]
    for i, (n, r, s) in enumerate(triples):
        w = levels[i % len(levels)]
        want = beta_dist.ppf(w, n - s + 1, s - r)
        assert kofn_quantile_factor(n, r, s, w) == pytest.approx(want, rel=1e-10, abs=0)


@pytest.mark.parametrize("w", [1e-300, 1e-100, 1e-60, 1e-20, 1e-6, 0.5, 1 - 1e-6, 1 - 2**-53])
def test_kofn_factor_closed_forms_at_extreme_levels(w):
    # with m = n - r fresh lifetimes, the next failure (s = r + 1) survives
    # while all m do, rho^m = w, and the last (s = n) while any does,
    # 1 - (1 - rho)^m = w; scipy's beta.ppf loses digits this far out
    for n in range(2, 31):
        for r in range(1, n):
            m = n - r
            next_one = w ** (1.0 / m)
            last_one = -math.expm1(math.log1p(-w) / m)
            assert kofn_quantile_factor(n, r, r + 1, w) == pytest.approx(next_one, rel=1e-13, abs=0)
            assert kofn_quantile_factor(n, r, n, w) == pytest.approx(last_one, rel=1e-13, abs=0)


def test_kofn_survival(exp1):
    t = 0.5
    # single remaining component: plain ratio of survivals
    for y in (0.5, 1.0, 2.5):
        want = exp1.sf(y) / exp1.sf(t)
        assert kofn_survival(3, 2, 3, t, y, exp1) == pytest.approx(want, abs=1e-12)
    assert kofn_survival(3, 2, 3, t, t, exp1) == pytest.approx(1.0, abs=1e-12)
    # factor and survival are inverse to each other
    rho = kofn_quantile_factor(10, 2, 5, 0.5)
    y = exp1.inv_sf(rho * exp1.sf(t))
    assert kofn_survival(10, 2, 5, t, y, exp1) == pytest.approx(0.5, abs=1e-8)


def test_kofn_survival_stays_at_or_below_one(exp1):
    # the lower tail summed to 1.0000000000000002 here: near 1 it is the upper
    # tail's complement
    assert kofn_survival(11, 1, 11, 0.0, 0.01, exp1) <= 1.0
    y = np.linspace(0.0, 0.05, 101)
    for n in range(2, 41):
        for s in range(2, n + 1):
            got = kofn_survival(n, 1, s, 0.0, y, exp1)
            assert np.all((got >= 0.0) & (got <= 1.0))


def test_kofn_errors(exp1):
    with pytest.raises(InvalidOrder):
        kofn_quantile_factor(3, 2, 2, 0.5)
    with pytest.raises(InvalidOrder):
        kofn_quantile_factor(3, 0, 2, 0.5)
    with pytest.raises(InvalidOrder):
        kofn_survival(3, 3, 4, 0.1, 0.2, exp1)
    with pytest.raises(InvalidOrder):
        kofn_quantile_factor(3, 1.5, 2, 0.5)
    with pytest.raises(OutOfRange):
        kofn_survival(3, 2, 3, 0.5, 0.2, exp1)


def test_degenerate_denominator(first3, relay, product3):
    heavy = Weibull(shape=2.0, scale=1.0)
    p = EarlyFailurePredictor(first3, relay, product3, heavy, mode="strict")
    with pytest.raises(DegenerateDenominator):
        p.survival(41.0, 40.0)  # survival underflows to an exact zero
    with pytest.raises(DegenerateDenominator):
        kofn_survival(3, 2, 3, 40.0, 41.0, heavy)


def _exact_relay_median(t):
    # strict relay, independent Weibull(3, 1): S(y | t) = rho^2/3 + 2 rho/3
    # with rho = F-bar(y)/F-bar(t), as component 1 fails first with chance 1/3
    # (the pair must then outlive t) or else carries on alone
    return (t**3 - math.log(math.sqrt(2.5) - 1.0)) ** (1.0 / 3.0)


@pytest.mark.parametrize("t", [0.5, 2.0, 7.0])
def test_relay_median_is_exact(first3, relay, product3, t):
    p = EarlyFailurePredictor(first3, relay, product3, Weibull(3.0, 1.0))
    assert p.quantile(0.5, t) == pytest.approx(_exact_relay_median(t), rel=1e-12, abs=0.0)


@pytest.mark.xfail(strict=True, raises=DegenerateDenominator,
                   reason="ROADMAP item 4: den = 3 F-bar(t)^2 is subnormal from t = 7.08 "
                          "on, and its lost digits moved the median")
def test_relay_median_past_a_subnormal_den(first3, relay, product3):
    # a subnormal den once drifted the median with no raise: 9.4e-10
    # relative at t = 7.15 and 9.1e-5 at 7.19; a scale-free law should answer
    p = EarlyFailurePredictor(first3, relay, product3, Weibull(3.0, 1.0))
    for t in (7.15, 7.19, 7.5, 8.9):
        assert p.quantile(0.5, t) == pytest.approx(_exact_relay_median(t), rel=1e-12, abs=0.0)


def test_nan_fails_every_range_check(relay_strict, twofail_fgm, exp1):
    """NaN raises each entry point's own range error, never a number or a wrong cause."""
    nan = math.nan
    q = UnivariateDistortion(series(3), ProductCopula(3))
    cases = [
        (lambda: ProductCopula(3).eval([nan, 0.5, 0.5]), OutOfUnitInterval,
         "copula arguments must lie in [0, 1]"),
        (lambda: q.value(nan), OutOfUnitInterval, "copula arguments must lie in [0, 1]"),
        (lambda: exp1.sf(nan), NegativeTime, "lifetimes must be >= 0"),
        (lambda: exp1.inv_sf(nan), OutOfRange, "survival levels must lie in (0, 1]"),
        (lambda: relay_strict.quantile(nan, 0.3), OutOfRange,
         "survival levels must lie strictly inside (0, 1)"),
        (lambda: relay_strict.quantile(0.5, nan), NegativeTime, "lifetimes must be >= 0"),
        (lambda: relay_strict.mean(np.array([0.3, nan])), NegativeTime,
         "lifetimes must be >= 0"),
        (lambda: twofail_fgm.quantile(0.5, nan, 0.5), OutOfRange,
         "conditioning times must satisfy 0 <= t1 <= t2"),
        (lambda: twofail_fgm.survival(1.0, 0.3, nan), OutOfRange,
         "conditioning times must satisfy 0 <= t1 <= t2"),
        (lambda: kofn_quantile_factor(5, 1, 3, nan), OutOfRange,
         "survival levels must lie strictly inside (0, 1)"),
        (lambda: kofn_survival(3, 2, 3, 0.5, nan, exp1), OutOfRange,
         "prediction time y must satisfy y >= t"),
        (lambda: kofn_survival(3, 2, 3, nan, 1.0, exp1), OutOfRange,
         "prediction time y must satisfy y >= t"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message
    # empty inputs still pass every check
    assert ProductCopula(3).eval(np.empty((0, 3))).shape == (0,)
    assert exp1.sf(np.empty(0)).shape == exp1.inv_sf(np.empty(0)).shape == (0,)


ZERO_ALPHA_COPULAS = {"product": ProductCopula(3), "fgm": FGMCopula(theta=0.5, n=3),
                      "clayton": ClaytonPairCopula(pair=(2, 3), theta=2.5, n=3)}


@pytest.mark.parametrize("copula", list(ZERO_ALPHA_COPULAS))
def test_zero_alpha(first3, exp1, copula):
    # observed failure IS the system failure: conditioning on survival is void
    p = EarlyFailurePredictor(
        first3, first3, ZERO_ALPHA_COPULAS[copula], exp1, mode="alive"
    )
    weak = EarlyFailurePredictor(first3, first3, ZERO_ALPHA_COPULAS[copula], exp1, mode="weak")
    assert weak.alpha(0.5) == pytest.approx(0.0, abs=1e-15)
    # num has no row, so the weak law is all atom: the mean is the horizon at a
    # scalar and at an array time, and the survival past it is 0
    assert weak.mean(0.5) == 0.5
    np.testing.assert_array_equal(weak.mean(np.array([0.25, 0.5, 2.0])), [0.25, 0.5, 2.0])
    np.testing.assert_array_equal(weak.survival(np.array([0.75, 1.0, 3.0]), 0.5), [0.0] * 3)
    with pytest.raises(ZeroAlpha):
        p.survival(1.0, 0.5)
    # a one-entry product/FGM law runs in Python floats, where a division by 0
    # would raise ZeroDivisionError: the void alpha raises first
    law, alpha = p._law(*p._point(0.5)[1])
    assert alpha == 0.0
    if copula != "clayton":  # the Clayton pattern law evaluates its pair in numpy
        assert type(alpha) is float
    for call in (lambda: law(0.3), lambda: p.quantile(0.5, 0.5)):
        with pytest.raises(ZeroAlpha):
            call()


def test_weibull_marginal_relay(first3, relay, product3):
    wb = Weibull(shape=1.5, scale=2.0)
    p = EarlyFailurePredictor(first3, relay, product3, wb, mode="strict")
    t = 0.8
    u = wb.sf(t)
    for y in (0.8, 1.5, 3.0):
        v = wb.sf(y)
        want = (2 * v * u + v * v) / (3 * u * u)
        assert p.survival(y, t) == pytest.approx(want, abs=1e-12)
    for w in (0.25, 0.5, 0.75):
        y = p.quantile(w, t)
        assert y >= t
        assert p.survival(y, t) == pytest.approx(w, abs=1e-8)


# -- large conditioning times and the mean rule ------------------------------

@given(t=st.floats(0.0, 60.0))
@settings(max_examples=60, deadline=None)
def test_memoryless_relay_exponential(first3, relay, product3, exp1, t):
    # exact offsets at any t: median -log(sqrt(2.5) - 1), mean 5/6
    p = EarlyFailurePredictor(first3, relay, product3, exp1, mode="strict")
    assert p.median(t) - t == pytest.approx(-math.log(math.sqrt(2.5) - 1.0), abs=1e-9)
    assert p.mean(t) - t == pytest.approx(5.0 / 6.0, abs=1e-9)


@given(t=st.floats(0.0, 60.0), design=st.sampled_from([(4, 3), (5, 2), (6, 6), (10, 5)]),
       w=st.floats(0.02, 0.98))
@settings(max_examples=60, deadline=None)
def test_memoryless_kofn_exponential(exp1, t, design, w):
    # s-th failure of n IID Exp(1) from the first at t: the residual is the
    # (s-1)-th order statistic of n-1 fresh lifetimes
    n, s = design
    p = EarlyFailurePredictor(series(n), k_out_of_n(n - s + 1, n), ProductCopula(n), exp1)
    y = t + np.array([0.0, 0.3, 1.7])
    np.testing.assert_allclose(p.survival(y, t), kofn_survival(n, 1, s, t, y, exp1),
                               rtol=1e-9, atol=1e-12)
    offset = -math.log(beta_dist.ppf(w, n - s + 1, s - 1))
    assert p.quantile(w, t) - t == pytest.approx(offset, abs=1e-9)
    harmonic = sum(1.0 / (n - 1 - i) for i in range(s - 1))
    assert p.mean(t) - t == pytest.approx(harmonic, abs=1e-9)


def _y_space_mean(p, *cond):
    """Independent mean: adaptive quad_vec of the public survival over y."""
    m = p.marginal
    h = np.asarray(cond[-1], dtype=float)
    # Weibull residual scale at h, so the relative tolerance means the same at any scale
    sigma = m.scale * ((h / m.scale) ** m.shape + 1.0) ** (1.0 / m.shape) - h
    total, err = integrate.quad_vec(lambda s: p.survival(h + sigma * s, *cond), 0.0, np.inf,
                                    epsabs=0.0, epsrel=1e-12, norm="max", limit=2000)
    assert err < 1e-11 * np.min(total)
    return h + sigma * total


@pytest.mark.parametrize("shape, scale", [(0.3, 1.0), (0.5, 1e4), (1.5, 1.0), (4.0, 1e-3)])
@pytest.mark.parametrize("mode", ["strict", "weak", "alive", "two_failures"])
def test_mean_matches_y_space_quadrature(shape, scale, mode, first3, relay, gate,
                                         two_of_three, parallel3, fgm1):
    m = Weibull(shape, scale)
    if mode == "two_failures":
        p = TwoFailurePredictor(first3, two_of_three, parallel3, fgm1, m)
        cond = (m.inv_sf(np.array([1.0, 0.5, 1e-4, 1e-12])),
                m.inv_sf(np.array([0.5, 0.4, 1e-5, 1e-20])))
    else:
        system = relay if mode == "strict" else gate
        p = EarlyFailurePredictor(first3, system, fgm1, m, mode=mode)
        cond = (m.inv_sf(np.array([1.0, 0.3, 1e-4, 1e-12, 1e-40, 1e-100])),)
    want = _y_space_mean(p, *cond)
    got = p.mean(*cond)
    np.testing.assert_allclose(got - cond[-1], want - cond[-1], rtol=1e-9, atol=0.0)


def test_mean_rule_does_not_depend_on_the_law_layout():
    # a law may hand back a strided view; the rule integrates the same bits
    value = UnivariateDistortion(parallel(3), ClaytonPairCopula((1, 3), 1.0, 3)).value
    m, horizon, zmax = Weibull(3.0, 1.0), np.zeros((1, 1)), np.ones((1, 1))
    strided = _tail_mean([lambda z: np.repeat(value(z), 2, axis=-1)[..., ::2]], m, horizon, zmax)
    contiguous = _tail_mean([lambda z: value(z).copy()], m, horizon, zmax)
    assert strided.tobytes() == contiguous.tobytes()


def test_mean_quadrature_failure(first3, relay, parallel3, product3):
    # too steep a hazard for the fixed rule: the two levels disagree
    p = EarlyFailurePredictor(first3, relay, product3, Weibull(30.0, 1.0))
    with pytest.raises(QuadratureFailure, match="error estimate"):
        p.mean(0.0)
    with pytest.raises(QuadratureFailure):
        system_mean(relay, product3, Weibull(30.0, 1.0))
    # so heavy a tail that it outlasts the last node (levels agree to 1.4e-9,
    # the cut-off tail is 1.2e-8 of the mean)
    with pytest.raises(QuadratureFailure):
        system_mean(parallel3, product3, Weibull(0.07, 1.0))


def test_mean_raises_when_the_horizon_survival_underflows(exp1):
    # T1 = max(X1, min(X2, X3, X4)) keeps a nonzero density at F-bar = 0, so the
    # law builds; the tail past an underflowed horizon has no scale
    first = validate_structure(4, [[1], [2, 3, 4]])
    p = EarlyFailurePredictor(first, parallel(4), ProductCopula(4), exp1, mode="weak")
    assert p.mean(1.0) > 1.0
    with pytest.raises(QuadratureFailure, match="underflows"):
        p.mean(800.0)


def test_not_invertible_level(first3, gate, product3, exp1):
    # strict ordering on a design whose first failure can be the system's:
    # levels above alpha(t) = 2/3 have no root in (0, F-bar(t)]
    p = EarlyFailurePredictor(first3, gate, product3, exp1, mode="strict")
    assert p.alpha(0.5) == pytest.approx(2.0 / 3.0, abs=1e-12)
    p.quantile(0.5, 0.5)
    with pytest.raises(NotInvertible):
        p.quantile(0.9, 0.5)


# -- the quantile solver against the bisection it replaced --------------------

def oracle_bisect(f, hi, target, skip=None):
    """Reference solver: vectorized bisection with the same bracket check and stop."""
    hi = np.array(hi, dtype=float)
    target = np.broadcast_to(np.asarray(target, dtype=float), hi.shape)
    lo = np.zeros_like(hi)
    active = np.ones(hi.shape, dtype=bool) if skip is None else ~skip
    if np.any(f(hi)[active] < target[active]):
        raise NotInvertible("survival level cannot be bracketed on (0, F-bar(t)]")
    for _ in range(BISECT_MAX):
        if np.all((hi - lo) <= BISECT_TOL * hi):
            break
        mid = 0.5 * (lo + hi)
        go_up = f(mid) < target
        lo = np.where(go_up, mid, lo)
        hi = np.where(go_up, hi, mid)
    return 0.5 * (lo + hi)


SOLVER_COPULAS = {
    "product": ProductCopula(3),
    "fgm+": FGMCopula(theta=1.0, n=3),
    "fgm-": FGMCopula(theta=-0.8, n=3),
    "clayton": ClaytonPairCopula(pair=(2, 3), theta=2.5, n=3),
}
MODES = ("strict", "weak", "alive", "two")
_copulas = st.sampled_from(sorted(SOLVER_COPULAS))
_shapes = st.one_of(st.none(), st.floats(0.5, 4.0))  # None: Exp(1)
_levels = st.floats(1e-6, 1.0 - 1e-6)


def _marginal(shape):
    """Exp(1), or a Weibull whose scale puts F-bar(60) at e^-40."""
    return Exponential(1.0) if shape is None else Weibull(shape, 60.0 / 40.0 ** (1.0 / shape))


def _solver_case(copula, shape, mode):
    """Predictor of a reference design: relay (strict), gate (weak, alive) or two failures."""
    m = _marginal(shape)
    if mode == "two":
        return TwoFailurePredictor(series(3), k_out_of_n(2, 3), parallel(3),
                                   SOLVER_COPULAS[copula], m)
    paths = [[1], [2, 3]] if mode == "strict" else [[1, 2], [1, 3]]
    return EarlyFailurePredictor(series(3), validate_structure(3, paths), SOLVER_COPULAS[copula],
                                 m, mode=mode)


def _cond(mode, t, frac=0.5):
    return (frac * t, t) if mode == "two" else (t,)


@given(copula=_copulas, shape=_shapes, mode=st.sampled_from(MODES), t=st.floats(0.0, 60.0),
       frac=st.floats(0.0, 1.0), w=_levels)
@settings(max_examples=300, deadline=None)
def test_solver_matches_bisection(copula, shape, mode, t, frac, w):
    p = _solver_case(copula, shape, mode)
    _, c = p._point(*_cond(mode, t, frac))
    try:
        law, alpha = p._law(*c)
    except DegenerateDenominator:
        reject()  # the conditioning point has no law to invert
    atom = None if p.mode == "alive" or alpha is None else np.asarray(w >= alpha)
    calls = []

    def counted(z):
        calls.append(z)
        return law(z)

    got = _solve_one(counted, c[-1], w, atom)
    want = oracle_bisect(law, c[-1], w, skip=atom)
    assert len(calls) <= BISECT_MAX + 1
    assert all(type(z) is float for z in calls)  # a one-entry solve steps in Python floats
    if atom is not None and atom:
        assert len(calls) == 1
    assert abs(got - want) <= 2 * BISECT_TOL * want


@st.composite
def _power_law_solves(draw):
    """(f, hi, target, skip) of a solve of shape (), (L, 1) or (L, P).

    f(z) = a (z/h)^p with a, h and p per point; the levels come as an (L, 1)
    column.  `skip` is None, with a = 1, or the weak-mode atom w >= a.
    """
    n_levels, n_points = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shape = draw(st.sampled_from([(), (n_levels, 1), (n_levels, n_points)]))
    points, levels = shape[1:], shape[:1] and (shape[0], 1)
    h = draw(hnp.arrays(float, points, elements=st.floats(1e-300, 1.0)))
    p = draw(hnp.arrays(float, points, elements=st.floats(0.2, 8.0)))
    w = draw(hnp.arrays(float, levels, elements=st.floats(1e-14, 1.0 - 1e-14)))
    if draw(st.booleans()):
        a, skip = 1.0, None
    else:
        a = draw(hnp.arrays(float, points, elements=st.floats(1e-3, 1.0)))
        skip = np.broadcast_to(w >= a, shape)
    return (lambda z: a * (z / h) ** p), np.broadcast_to(h, shape), w, skip


def _traced_solve(solve, f, hi, target, skip):
    """Hex of every trial point and of the roots, or the error's name."""
    trials = []

    def traced(z):
        trials.append([x.hex() for x in np.ravel(z).tolist()])
        return f(z)

    try:
        root = solve(traced, hi, target, skip=skip)
    except NotInvertible:
        return "NotInvertible", trials
    return (type(root), np.shape(root), [x.hex() for x in np.ravel(root).tolist()]), trials


@given(case=_power_law_solves())
@settings(max_examples=300, deadline=None)
def test_solver_matches_its_earlier_form_bit_for_bit(case):
    """Same trial points and roots as the int-`last` solver, step for step."""
    solve = _solve_one if np.ndim(case[1]) == 0 else _solve_increasing
    assert _traced_solve(solve, *case) == _traced_solve(oracle_solve_increasing, *case)


def _staircase(h, *values):
    """f(z) = values[k] on the k-th of len(values) equal slices of [0, h], elementwise."""
    values = np.array(values)
    return lambda z: values[np.minimum((np.asarray(z) / h * len(values)).astype(int),
                                       len(values) - 1)]


# (f, hi, target) of one-entry solves whose steps divide by a signed zero,
# meet a NaN or a flat law, or start from a subnormal bracket or an extreme level
IEEE_CORNERS = {
    "flat at the level": (lambda z: np.minimum(2.0 * z, 1.0) * 0.5, 1.0, 0.5),
    "flat at the level under a bump": (_staircase(1.0, 0.1, 0.7, 0.5, 0.5), 1.0, 0.5),
    "not monotone": (_staircase(1.0, 0.0, 0.9, 0.2, 0.6, 0.4, 0.8), 1.0, 0.5),
    "up from a negative zero": (_staircase(1.0, 0.0, 0.25, -0.0, -0.0), 1.0, 0.0),
    "NaN below the root": (lambda z: np.where(z < 0.4, np.nan, z), 1.0, 0.5),
    "NaN above the root": (lambda z: np.where(z > 0.7, np.nan, z), 1.0, 0.3),
    "NaN islands": (_staircase(1.0, 0.1, np.nan, 0.4, np.nan, 0.9, 1.0), 1.0, 0.6),
    "step": (_staircase(1.0, 0.25, 0.75), 1.0, 0.5),
    "step off center": (_staircase(1.0, 0.25, 0.25, 0.25, 0.75, 0.75), 1.0, 0.5),
    "subnormal hi": (lambda z: (z / 1e-310) ** 2, 1e-310, 0.5),
    "least subnormal hi": (lambda z: z / 5e-324, 5e-324, 0.5),
    "step on the least subnormal": (_staircase(5e-324, 0.25, 0.75), 5e-324, 0.5),
    "least level": (lambda z: z * z, 1.0, 5e-324),
    "greatest level": (lambda z: np.sqrt(z), 1.0, 1.0 - 2.0 ** -53),
    "level above f(hi)": (lambda z: 0.5 * z, 1.0, 0.75),
}


@pytest.mark.parametrize("skip", [None, False, True])
@pytest.mark.parametrize("name", sorted(IEEE_CORNERS))
def test_solver_matches_its_earlier_form_at_ieee_corners(name, skip):
    """A 0-d solve takes the earlier form's steps where IEEE and Python floats part."""
    f, hi, target = IEEE_CORNERS[name]
    case = (f, np.array(hi), target, None if skip is None else np.array(skip))
    # the earlier form scales g_lo by m = inf outside its errstate when g_hi is
    # -0 ("up from a negative zero"): inf * -0 warns there, never in Python floats
    with np.errstate(invalid="ignore"):
        want = _traced_solve(oracle_solve_increasing, *case)
    assert _traced_solve(_solve_one, *case) == want


@pytest.mark.parametrize("skip", [None, False, True])
@pytest.mark.parametrize("name", sorted(IEEE_CORNERS))
def test_solver_matches_its_earlier_form_at_ieee_corners_stacked(name, skip):
    """The vector form on a (1,) bracket takes the earlier form's steps, warning-free."""
    f, hi, target = IEEE_CORNERS[name]
    case = (f, np.array([hi]), target, None if skip is None else np.array([skip]))
    with np.errstate(invalid="ignore"):  # the earlier form's inf * -0, as above
        want = _traced_solve(oracle_solve_increasing, *case)
    assert _traced_solve(_solve_increasing, *case) == want


def test_solver_leaves_the_error_state_to_f():
    """f runs under the caller's error state, and a warning it raises gets out."""
    before = np.geterr()
    for solve, hi in ((_solve_increasing, np.array([1.0, 0.5])), (_solve_one, 1.0)):
        seen = []

        def f(z):
            seen.append(np.geterr())
            np.divide(1.0, np.zeros(1))  # warns under the default error state
            return z

        with pytest.warns(RuntimeWarning, match="divide by zero"):
            solve(f, hi, 0.25, None)
        assert np.geterr() == before
        assert len(seen) > 1 and all(state == before for state in seen)


@given(copula=_copulas, shape=_shapes, mode=st.sampled_from(MODES), t=st.floats(0.0, 60.0),
       frac=st.floats(0.0, 1.0), level=_levels)
@settings(max_examples=300, deadline=None)
def test_survival_inverts_quantile_at_extreme_t(copula, shape, mode, t, frac, level):
    p = _solver_case(copula, shape, mode)
    if (copula, mode) == ("fgm+", "two") and p.marginal.sf(t) < 1e-4:
        reject()  # the law's known cancellation: test_two_failure_fgm_law_loses_its_inverse
    cond = _cond(mode, t, frac)
    try:
        alpha = p.alpha(*cond)
    except DegenerateDenominator:
        reject()  # the conditioning point has no law to invert
    # weak levels at or above alpha sit in the atom at the horizon
    w = level * alpha if mode == "weak" else level
    assert p.survival(p.quantile(w, *cond), *cond) == pytest.approx(w, rel=1e-10, abs=0.0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="FGM(theta=1) two-failure law: the terms of num and of den cancel "
                          "as F-bar(t2) -> 0")
@pytest.mark.parametrize("t2", [25.0, 38.0])
def test_two_failure_fgm_law_loses_its_inverse(t2):
    # relative errors 1.6e-6 at t2 = 25 and 0.56 at t2 = 38 (level 0.01);
    # within 1.6e-12 while F-bar(t2) >= 1e-4
    p = _solver_case("fgm+", None, "two")
    for w in (0.01, 0.5, 0.99):
        assert p.survival(p.quantile(w, 0.0, t2), 0.0, t2) == pytest.approx(w, rel=1e-10, abs=0.0)


@given(copula=_copulas, shape=_shapes, mode=st.sampled_from(MODES), w=_levels)
@settings(max_examples=40, deadline=None)
def test_grid_quantiles_match_scalar_calls(copula, shape, mode, w):
    p = _solver_case(copula, shape, mode)
    cond = _cond(mode, np.linspace(0.0, 60.0, 13))
    grid = p.quantile(w, *cond)
    scalar = np.array([p.quantile(w, *(x[i] for x in cond)) for i in range(13)])
    # the law's bits differ slightly between a grid and a scalar call, so the
    # two solves agree to the stopping tolerance, not bit for bit
    np.testing.assert_allclose(p.marginal.sf(grid), p.marginal.sf(scalar),
                               rtol=2 * BISECT_TOL, atol=0.0)


def test_quantile_broadcasts_over_every_conditioning_time():
    # a grid of t1 under one t2 is a stacked solve, as with t2 spread over the grid
    p = _solver_case("fgm-", None, "two")
    t1 = np.array([0.1, 0.2, 0.3])
    assert p.quantile(0.5, t1, 0.6).tolist() == p.quantile(0.5, t1, np.full(3, 0.6)).tolist()


@given(copula=_copulas, shape=_shapes, t=st.floats(0.0, 60.0), frac=st.floats(0.01, 0.99))
@settings(max_examples=60, deadline=None)
def test_strict_gate_is_not_invertible_above_alpha(copula, shape, t, frac):
    # strict ordering on the gate: the first failure can be the system's, so
    # levels above alpha(t) < 1 have no root in (0, F-bar(t)]
    gate = validate_structure(3, [[1, 2], [1, 3]])
    p = EarlyFailurePredictor(series(3), gate, SOLVER_COPULAS[copula], _marginal(shape),
                              mode="strict")
    a = p.alpha(t)
    assert p.quantile(frac * a, t) >= t
    with pytest.raises(NotInvertible):
        p.quantile(a + (1.0 - a) * frac, t)


@given(copula=_copulas, shape=_shapes, t=st.floats(0.0, 60.0), frac=st.floats(0.0, 0.99))
@settings(max_examples=40, deadline=None)
def test_atom_levels_return_the_horizon_after_one_law_call(copula, shape, t, frac):
    p = _solver_case(copula, shape, "weak")
    a = p.alpha(t)
    w = a + (1.0 - a) * frac
    calls = []
    build = p._law

    def counted_build(*c):
        law, alpha = build(*c)

        def counted(z):
            calls.append(z)
            return law(z)

        return counted, alpha

    p._law = counted_build
    assert p.quantile(w, t) == t
    assert len(calls) == 1


@given(copula=_copulas, shape=st.floats(0.5, 4.0),
       mode=st.sampled_from(["strict", "alive", "two"]), t=st.floats(0.0, 60.0),
       level=st.sampled_from([0.5, 0.9]))
@settings(max_examples=80, deadline=None)
def test_centered_bands_are_ordered(copula, shape, mode, t, level):
    p = _solver_case(copula, shape, mode)
    cond = _cond(mode, t)
    band = p.band("centered", level)
    lower, median, upper = band.lower(*cond), p.median(*cond), band.upper(*cond)
    assert t <= lower < median < upper


GLUE_COPULAS = {"product": ProductCopula, "fgm": lambda n: FGMCopula(theta=0.5, n=n),
                "clayton": lambda n: ClaytonPairCopula(pair=(2, 3), theta=2.5, n=n)}
GLUE_DESIGNS = {  # (observed structures, system, conditioning point)
    "relay": ((series(3),), validate_structure(3, [[1], [2, 3]]), (0.4,)),
    "two_of_four": ((series(4),), k_out_of_n(2, 4), (0.4,)),
    "three_then_two_of_four": ((series(4), k_out_of_n(3, 4)), k_out_of_n(2, 4), (0.3, 0.7)),
}
# the one-entry input forms; the reference call gives every input the shape (1,)
GLUE_FORMS = (float, np.float64, np.array)


def _outcome(call, args):
    try:
        return call(*args)
    except SysPredictError as exc:
        return type(exc)


@pytest.mark.parametrize("copula", list(GLUE_COPULAS))
@pytest.mark.parametrize("design", list(GLUE_DESIGNS))
def test_one_entry_calls_match_the_stacked_call_in_every_scalar_form(design, copula):
    """A call whose inputs are all 0-d answers with a Python float.

    Python floats, np.float64 and 0-d arrays give the same float, bit for
    bit the entry of the same call with every input of shape (1,) (under
    Exp(1) the marginal's scalar and array powers agree), or raise the same
    error class.  The bad inputs are levels outside (0, 1) or NaN, negative
    or NaN times (conditioning or prediction) and t1 > t2.
    """
    observed, system, cond = GLUE_DESIGNS[design]
    cop = GLUE_COPULAS[copula](system.n)
    p = (EarlyFailurePredictor(*observed, system, cop, Exponential(1.0)) if len(observed) == 1
         else TwoFailurePredictor(*observed, system, cop, Exponential(1.0)))
    centered, bottom = p.band("centered", 0.9), p.band("bottom", 0.9)
    calls = {  # each takes (w, y, *cond)
        "quantile": lambda w, y, *cond: p.quantile(w, *cond),
        "centered lower": lambda w, y, *cond: centered.lower(*cond),
        "centered upper": lambda w, y, *cond: centered.upper(*cond),
        "bottom lower": lambda w, y, *cond: bottom.lower(*cond),
        "bottom upper": lambda w, y, *cond: bottom.upper(*cond),
        "survival": lambda w, y, *cond: p.survival(y, *cond),
        "alpha": lambda w, y, *cond: p.alpha(*cond),
        "mean": lambda w, y, *cond: p.mean(*cond),
    }
    # (w, y, *cond) and the calls that must raise there
    good = (0.3, 1.1, *cond)
    inputs = [((0.3, 0.1, *cond), ()), (good, ())]  # y before and after the horizon
    inputs += [((w, *good[1:]), ("quantile",)) for w in (math.nan, 0.0, 1.0, -0.1)]
    for i, t in product(range(1, len(good)), (-1.0, math.nan)):
        inputs.append((good[:i] + (t,) + good[i + 1:], ("survival",) if i == 1 else calls))
    if len(cond) == 2:
        inputs.append(((0.3, 1.1, *cond[::-1]), calls))
    for (name, call), (args, raising) in product(calls.items(), inputs):
        want = _outcome(call, [np.array([x]) for x in args])
        if name in raising:
            assert isinstance(want, type), (name, args)
        else:
            want = float(want[0])
        for form in GLUE_FORMS:
            got = _outcome(call, [form(x) for x in args])
            if name in raising:
                assert got is want, (name, args, form)
            else:
                assert type(got) is float and got.hex() == want.hex(), (name, args, form)


def _loaded_by_fresh_import(package):
    """Modules of `package` that importing syspredict and its CLI loads."""
    code = ("import sys, syspredict, syspredict.config, syspredict.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_leaves_scipy_integrate_unloaded():
    assert _loaded_by_fresh_import("scipy") == "[]"


def test_import_leaves_jsonschema_unloaded():
    assert _loaded_by_fresh_import("jsonschema") == "[]"
