import numpy as np
import pytest
from scipy.stats import beta as beta_dist

from syspredict import (
    ClaytonPairCopula,
    EarlyFailurePredictor,
    Exponential,
    FGMCopula,
    ProductCopula,
    TwoFailurePredictor,
    Weibull,
    kofn_quantile_factor,
    k_out_of_n,
    kofn_survival,
    series,
    system_mean,
)
from syspredict.errors import (
    DegenerateDenominator,
    InvalidOrder,
    OutOfRange,
    ZeroAlpha,
)

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
    return EarlyFailurePredictor(first3, relay, product3, exp1, ordering="strict")


@pytest.fixture
def clayton_strict(first3, relay, clayton23, exp1):
    return EarlyFailurePredictor(first3, relay, clayton23, exp1, ordering="strict")


@pytest.fixture
def gate_weak(first3, gate, product3, exp1):
    return EarlyFailurePredictor(first3, gate, product3, exp1, ordering="weak")


@pytest.fixture
def gate_alive(first3, gate, product3, exp1):
    return EarlyFailurePredictor(
        first3, gate, product3, exp1, ordering="weak", require_alive=True
    )


@pytest.fixture
def gate_fgm_weak(first3, gate, fgm1, exp1):
    return EarlyFailurePredictor(first3, gate, fgm1, exp1, ordering="weak")


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

    pred = EarlyFailurePredictor(first3, relay, product3, exp1, ordering="strict")
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
        first3, gate, fgm1, exp1, ordering="weak", require_alive=True
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
                                         ordering="strict" if mode == "strict" else "weak",
                                         require_alive=mode == "alive")
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
            first3, gate, FGMCopula(theta=theta, n=3), exp1, ordering="weak"
        )
        for t in (0.0, 0.5, 1.7):
            assert p.alpha(t) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_fgm_theta_zero_matches_product(first3, gate, product3, exp1):
    base = EarlyFailurePredictor(first3, gate, product3, exp1, ordering="weak")
    zero = EarlyFailurePredictor(
        first3, gate, FGMCopula(theta=0.0, n=3), exp1, ordering="weak"
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
    with pytest.raises(OutOfRange, match="ordering"):
        EarlyFailurePredictor(first3, relay, product3, exp1, ordering="loose")


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
    p = EarlyFailurePredictor(first3, parallel3, fgm1, exp1, ordering="strict")
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
    p = EarlyFailurePredictor(first3, relay, product3, heavy, ordering="strict")
    with pytest.raises(DegenerateDenominator):
        p.survival(41.0, 40.0)  # survival underflows to an exact zero
    with pytest.raises(DegenerateDenominator):
        kofn_survival(3, 2, 3, 40.0, 41.0, heavy)


def test_zero_alpha(first3, product3, exp1):
    # observed failure IS the system failure: conditioning on survival is void
    p = EarlyFailurePredictor(
        first3, first3, product3, exp1, ordering="weak", require_alive=True
    )
    assert EarlyFailurePredictor(
        first3, first3, product3, exp1, ordering="weak"
    ).alpha(0.5) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ZeroAlpha):
        p.survival(1.0, 0.5)


def test_weibull_marginal_relay(first3, relay, product3):
    wb = Weibull(shape=1.5, scale=2.0)
    p = EarlyFailurePredictor(first3, relay, product3, wb, ordering="strict")
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
