"""Right or raise at the API boundary, over the whole double range.

Every public call below either returns finite values in range or raises a
SysPredictError: survival and alpha lie in [0, 1], a quantile, a mean and
both band edges at or past the horizon (the last observed failure; one or
two failures observed), a system mean and lifetimes at or past 0, a k-of-n
survival in [0, 1] and its quantile factor in (0, 1].  Parameters are drawn
log-uniform over the normal doubles, times from 0 to the largest double, and levels down
to 5e-324 and up to 1 - 2^-53.  Three identities are exact where a call answers:
scaling by a power of two, and the product relay's closed-form conditional and system
means.

The Clayton pair is left out: as theta -> 0 it collapses to the comonotone
copula and answers wrongly without raising (ROADMAP item 12).
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from syspredict import (
    EarlyFailurePredictor,
    Exponential,
    FGMCopula,
    ProductCopula,
    TwoFailurePredictor,
    Weibull,
    fit_lqr,
    fit_ols,
    k_out_of_n,
    kofn_quantile_factor,
    kofn_survival,
    parallel,
    sample_components,
    series,
    simulate,
    system_mean,
)
from syspredict.errors import LengthMismatch, OutOfRange, SysPredictError
from syspredict.structure import validate_structure

TINY, HUGE = float(np.finfo(float).tiny), float(np.finfo(float).max)
RELAY = validate_structure(3, [[1], [2, 3]])
COPULAS = {"product": ProductCopula(3), "fgm": FGMCopula(theta=0.7, n=3)}

# log-uniform over the normal doubles
normals = st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-1022, 1023))
times = st.one_of(st.sampled_from([0.0, 5e-324, 1.0, HUGE]), normals, st.floats(0.0, HUGE))
levels = st.one_of(st.sampled_from([5e-324, 0.5, 1.0 - 2.0 ** -53]),
                   st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
marginals = st.one_of(st.builds(Exponential, normals), st.builds(Weibull, normals, normals))


@st.composite
def kofn_orders(draw):
    """(n, r, s) with n <= 40 and 1 <= r < s <= n."""
    n = draw(st.integers(2, 40))
    s = draw(st.integers(2, n))
    return n, draw(st.integers(1, s - 1)), s


@functools.lru_cache(maxsize=None)
def _relay(copula, marginal):
    """The strict relay observed at its first failure, one per design."""
    return EarlyFailurePredictor(series(3), RELAY, COPULAS[copula], marginal)


@functools.lru_cache(maxsize=None)
def _two(copula, marginal):
    """series(3) / 2-of-3 / parallel(3): the system observed at its first two failures."""
    return TwoFailurePredictor(series(3), k_out_of_n(2, 3), parallel(3), COPULAS[copula],
                               marginal)


def _answer(call, *args):
    """call(*args) as a float array, or None where it raises a SysPredictError."""
    try:
        return np.asarray(call(*args), dtype=float)
    except SysPredictError:
        return None


def _in_range(value, low, high=HUGE):
    return value is None or bool(np.all((value >= low) & (value <= high)))


def _line(fit):
    return fit.intercept, fit.slope, fit.loss


@given(marginal=marginals, t=times, p=levels, seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_marginal_answers_in_range_or_raises(marginal, t, p, seed):
    assert _in_range(_answer(marginal.sf, t), 0.0, 1.0)
    assert _in_range(_answer(marginal.inv_sf, p), 0.0)
    sample = _answer(lambda: simulate(series(3), RELAY, COPULAS["product"], marginal,
                                      size=4, seed=seed).components)
    assert _in_range(sample, 0.0)


@given(copula=st.sampled_from(sorted(COPULAS)), marginal=marginals, size=st.integers(0, 8),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_sample_components_answers_in_range_or_raises(copula, marginal, size, seed):
    rows = _answer(sample_components, COPULAS[copula], marginal, np.random.default_rng(seed),
                   size)
    assert rows is None or rows.shape == (size, 3)
    assert _in_range(rows, 0.0)


def _check_predictor(p, cond, y, w, kind):
    """survival, alpha in [0, 1]; quantile, mean and band edges at or past the horizon."""
    horizon = cond[-1]
    assert _in_range(_answer(p.survival, y, *cond), 0.0, 1.0)
    assert _in_range(_answer(p.alpha, *cond), 0.0, 1.0)
    assert _in_range(_answer(p.quantile, w, *cond), horizon)
    assert _in_range(_answer(p.mean, *cond), horizon)
    try:
        band = p.band(kind, w)
    except SysPredictError:
        return
    lower, upper = _answer(band.lower, *cond), _answer(band.upper, *cond)
    assert _in_range(lower, horizon) and _in_range(upper, horizon)
    if lower is not None and upper is not None:
        assert lower <= upper


@given(copula=st.sampled_from(sorted(COPULAS)), marginal=marginals, t=times, y=times,
       w=levels, kind=st.sampled_from(["centered", "bottom"]))
@settings(max_examples=150, deadline=None)
def test_relay_answers_in_range_or_raises(copula, marginal, t, y, w, kind):
    _check_predictor(_relay(copula, marginal), (t,), y, w, kind)


@given(copula=st.sampled_from(sorted(COPULAS)), marginal=marginals, t1=times, t2=times,
       y=times, w=levels, kind=st.sampled_from(["centered", "bottom"]))
@settings(max_examples=150, deadline=None)
def test_two_failure_answers_in_range_or_raises(copula, marginal, t1, t2, y, w, kind):
    _check_predictor(_two(copula, marginal), (min(t1, t2), max(t1, t2)), y, w, kind)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14: the edges of a centered band at a "
                   "tiny level come from two solves, each within 1e-12, and cross")
@pytest.mark.parametrize("copula", sorted(COPULAS))
@pytest.mark.parametrize("design, cond, level", [("relay", (0.0,), 2.0 ** -52),
                                                 ("two", (0.0, 1.0), 2.5175622334542135e-15)],
                         ids=["relay", "two"])
def test_centered_band_at_a_tiny_level_is_ordered(design, cond, level, copula):
    """Under Exp(1) each of these bands inverts: its lower edge exceeds its upper by ~1e-12.

    The relay and two-failure tests above draw such levels under some
    `--hypothesis-seed` values (117 and 126), so the cases are pinned here.
    """
    p = (_relay if design == "relay" else _two)(copula, Exponential(1.0))
    band = p.band("centered", level)
    assert band.lower(*cond) <= band.upper(*cond)


@given(order=kofn_orders(), marginal=st.builds(Weibull, normals, normals), t=times, y=times,
       w=levels)
@settings(max_examples=150, deadline=None)
def test_kofn_answers_in_range_or_raise(order, marginal, t, y, w):
    assert _in_range(_answer(kofn_survival, *order, min(t, y), max(t, y), marginal), 0.0, 1.0)
    factor = _answer(kofn_quantile_factor, *order, w)
    assert factor is None or 0.0 < factor <= 1.0


@given(j=st.integers(-1022, 1023), t=times, w=levels)
@settings(max_examples=150, deadline=None)
def test_quantile_scales_with_a_power_of_two_mean(j, t, w):
    """quantile(w, t; 2^j) = 2^j quantile(w, t / 2^j; 1), bit for bit.

    t / 2^j is exact, so F-bar(t) and the root are those of Exp(1), and
    inv_sf scales -log(root) by 2^j with one rounding on both sides.
    """
    mu = math.ldexp(1.0, j)
    assume(math.ldexp(t / mu, j) == t)
    got = _answer(_relay("product", Exponential(mu)).quantile, w, t)
    unit = _answer(_relay("product", Exponential(1.0)).quantile, w, t / mu)
    if unit is None:
        assert got is None
        return
    with np.errstate(over="ignore"):
        want = float(unit * mu)
    if got is None:  # only where the scaled quantile leaves the normal range
        assert not TINY <= want <= HUGE
    else:
        assert float(got).hex() == want.hex()


@given(copula=st.sampled_from(sorted(COPULAS)), design=st.sampled_from(["relay", "two"]),
       shape=st.sampled_from([1.5, 3.0]), j=st.integers(-1022, 1023),
       u1=st.one_of(st.floats(0.0, 8.0), times), u2=st.one_of(st.floats(0.0, 8.0), times),
       w=levels)
@settings(max_examples=100, deadline=None)
def test_weibull_quantile_scales_with_a_power_of_two_scale(copula, design, shape, j, u1, u2, w):
    """quantile(w, t; Weibull(k, 2^j)) = 2^j quantile(w, t / 2^j; Weibull(k, 1)), bit for bit.

    t / 2^j = u is exact, so the capped hazard, F-bar(t) and the root in z
    are those of scale 1, and inv_sf scales the lifetime by 2^j exactly; the
    scaled call raises only where that lifetime leaves the normal range.
    """
    mu = math.ldexp(1.0, j)
    units = (u2,) if design == "relay" else (min(u1, u2), max(u1, u2))
    cond = tuple(u * mu for u in units)
    assume(all(t / mu == u for t, u in zip(cond, units)))
    build = _relay if design == "relay" else _two
    got = _answer(build(copula, Weibull(shape, mu)).quantile, w, *cond)
    unit = _answer(build(copula, Weibull(shape, 1.0)).quantile, w, *units)
    if unit is None:
        assert got is None
        return
    with np.errstate(over="ignore"):
        want = float(unit * mu)
    if got is None:
        assert not TINY <= want <= HUGE
    else:
        assert float(got).hex() == want.hex()


@given(mu=normals, t=times)
@settings(max_examples=150, deadline=None)
def test_product_relay_mean_is_t_plus_five_sixths_of_the_mean(mu, t):
    got = _answer(_relay("product", Exponential(mu)).mean, t)
    assume(got is not None)
    want = t + mu * (5.0 / 6.0)
    assert abs(got - want) <= 1e-12 * want


@given(j=st.integers(-1022, 1023))
@settings(max_examples=150, deadline=None)
def test_product_relay_system_mean_is_seven_sixths_of_the_mean(j):
    """E(T) = mu (1 + 1/2 - 1/3) for q-bar(u) = u + u^2 - u^3 under Exp(mu = 2^j)."""
    mu = math.ldexp(1.0, j)
    got = _answer(system_mean, RELAY, COPULAS["product"], Exponential(mu))
    with np.errstate(over="ignore"):
        want = mu * (7.0 / 6.0)
    if got is not None:
        assert abs(got - want) <= 1e-12 * want


@given(copula=st.sampled_from(sorted(COPULAS)), marginal=marginals)
@settings(max_examples=150, deadline=None)
def test_system_mean_in_range_or_raises(copula, marginal):
    assert _in_range(_answer(system_mean, RELAY, COPULAS[copula], marginal), 0.0)


SAMPLES = [np.array([(1.0, 1.0), (2.0, 2.5), (3.0, 2.9)]),
           np.array([(0.0, 0.5), (0.25, 0.0), (0.5, 0.75), (0.75, 0.5), (1.0, 1.0)])]


@given(sample=st.sampled_from(range(len(SAMPLES))), kx=st.integers(-1100, 1100),
       ky=st.integers(-1100, 1100), tau=st.sampled_from([0.1, 0.5, 0.9]))
@settings(max_examples=150, deadline=None)
def test_fits_scale_with_powers_of_two_or_raise(sample, kx, ky, tau):
    """Fits on a 2^k-scaled sample are the unscaled fits scaled back, or raise.

    Holds wherever the scaled sample is exact; a fit raises just where its
    scaled-back line or loss is not a normal double or 0.
    """
    base = SAMPLES[sample]
    with np.errstate(over="ignore"):
        scaled = np.ldexp(base, [kx, ky])
    assume(np.all(np.isfinite(scaled)) and np.array_equal(np.ldexp(scaled, [-kx, -ky]), base))
    for fit, loss_power in ((lambda s: fit_lqr(s, tau), 1), (fit_ols, 2)):
        ref = np.array(_line(fit(base)))
        with np.errstate(over="ignore"):
            want = np.ldexp(ref, [ky, ky - kx, loss_power * ky])
        representable = np.all(np.isfinite(want) & ((np.abs(want) >= TINY) | (ref == 0.0)))
        got = _answer(lambda: _line(fit(scaled)))
        if got is None:
            assert not representable
        else:
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


def test_the_ends_of_the_double_range_raise():
    """The answers that were inf, NaN or a three-digit subnormal now raise."""
    big = Exponential(1e308)
    with pytest.raises(OutOfRange, match="overflows"):
        big.inv_sf(0.1)  # was inf
    with pytest.raises(OutOfRange, match="overflows"):
        simulate(series(3), RELAY, COPULAS["product"], big, size=64, seed=1)  # wrote inf
    with pytest.raises(OutOfRange, match="overflows"):
        _relay("product", big).mean(1e308)  # was NaN; t + 5 mu / 6 is 1.83e308
    with pytest.raises(OutOfRange, match="normal doubles"):
        Exponential(1e-320)  # its median was 5.43e-321


# one call per entry: inputs whose shapes do not broadcast against each other
_T1, _T2 = np.array([0.1, 0.2]), np.array([0.3, 0.4, 0.5])
MISMATCHED = {
    "quantile levels and point": lambda: _relay("fgm", Exponential(1.0)).quantile(
        np.array([0.5, 0.6]), np.array([0.1, 0.2, 0.3])),
    "quantile levels over FLOAT_STACK and point": lambda: _relay("fgm", Exponential(1.0)).quantile(
        np.linspace(0.1, 0.9, 17), np.array([0.1, 0.2, 0.3])),
    "two-failure quantile": lambda: _two("fgm", Exponential(1.0)).quantile(0.5, _T1, _T2),
    "two-failure alpha": lambda: _two("fgm", Exponential(1.0)).alpha(_T1, _T2),
    "two-failure mean": lambda: _two("fgm", Exponential(1.0)).mean(_T1, _T2),
    "two-failure centered band": lambda: _two("fgm", Exponential(1.0)).band(
        "centered", 0.5).upper(_T1, _T2),
    "two-failure bottom band": lambda: _two("fgm", Exponential(1.0)).band(
        "bottom", 0.5).lower(_T1, _T2),
    "survival y and point": lambda: _relay("fgm", Exponential(1.0)).survival(
        np.array([1.0, 2.0]), np.array([0.1, 0.2, 0.3])),
    "two-failure survival y and point": lambda: _two("fgm", Exponential(1.0)).survival(
        np.array([1.0, 2.0]), _T2 - 0.2, _T2),
    "kofn_survival": lambda: kofn_survival(4, 1, 2, _T1, _T2 + 1.0, Exponential(1.0)),
}


@pytest.mark.parametrize("call", MISMATCHED.values(), ids=MISMATCHED.keys())
def test_shapes_that_do_not_broadcast_raise_length_mismatch(call):
    with pytest.raises(LengthMismatch, match="do not broadcast"):
        call()
