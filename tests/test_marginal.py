import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syspredict import Exponential, Weibull
from syspredict.errors import ConfigError, NegativeTime, OutOfRange
from syspredict.marginal import marginal_from_config

from law_oracle import pdf


def test_exponential_values():
    m = Exponential(1.0)
    assert m.sf(0.0) == 1.0
    assert Exponential(2.0).sf(2.0) == pytest.approx(np.exp(-1.0), abs=1e-12)
    assert m.inv_sf(1.0) == 0.0
    assert m.inv_sf(np.exp(-3.0)) == pytest.approx(3.0, abs=1e-12)
    assert m.inv_sf(0.5811388) == pytest.approx(0.5427656, abs=1e-7)
    assert pdf(m, 0.0) == 1.0
    assert pdf(Exponential(2.0), 0.0) == 0.5


def test_weibull_values():
    w = Weibull(shape=2.0, scale=1.0)
    assert w.sf(0.0) == 1.0
    assert pdf(w, 1.0) == pytest.approx(2.0 * np.exp(-1.0), abs=1e-12)
    # shape 1 degenerates to the exponential
    m = Exponential(1.7)
    w1 = Weibull(shape=1.0, scale=1.7)
    t = np.linspace(0.0, 10.0, 31)
    np.testing.assert_allclose(w1.sf(t), m.sf(t), atol=1e-14)
    np.testing.assert_allclose(pdf(w1, t), pdf(m, t), atol=1e-14)


@pytest.mark.parametrize("m", [Exponential(1.0), Exponential(0.4), Weibull(2.0, 1.3), Weibull(0.8, 2.0)])
def test_round_trip(m):
    mu = getattr(m, "mean", None) or m.scale
    t = np.linspace(0.0, 50.0 * mu, 200)
    p = m.sf(t)
    keep = p > 1e-300                       # below that, log loses the round trip
    np.testing.assert_allclose(m.inv_sf(p[keep]), t[keep], rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("m", [Exponential(1.0), Weibull(2.0, 1.3)])
def test_pdf_matches_sf_slope(m):
    t = np.linspace(0.05, 6.0, 50)
    h = 1e-6
    fd = -(m.sf(t + h) - m.sf(t - h)) / (2.0 * h)
    np.testing.assert_allclose(pdf(m, t), fd, atol=1e-6)


def test_domain_errors():
    m = Exponential(1.0)
    with pytest.raises(NegativeTime):
        m.sf(-0.1)
    with pytest.raises(NegativeTime):
        pdf(m, np.array([0.5, -1.0]))
    with pytest.raises(OutOfRange):
        m.inv_sf(0.0)
    with pytest.raises(OutOfRange):
        m.inv_sf(1.0001)
    with pytest.raises(OutOfRange):
        Exponential(0.0)
    with pytest.raises(OutOfRange):
        Weibull(-1.0, 1.0)
    with pytest.raises(OutOfRange):
        Weibull(1.0, 0.0)


def test_from_config():
    m = marginal_from_config({"family": "exponential", "mean": 2.0})
    assert isinstance(m, Exponential) and m.mean == 2.0
    w = marginal_from_config({"family": "weibull", "shape": 2.0, "scale": 0.5})
    assert isinstance(w, Weibull) and (w.shape, w.scale) == (2.0, 0.5)
    with pytest.raises(ConfigError):
        marginal_from_config({"family": "lognormal"})


def test_exponential_is_the_shape_one_weibull():
    m = Exponential(2.0)
    assert isinstance(m, Weibull) and (m.shape, m.scale, m.mean) == (1.0, 2.0, 2.0)
    assert "sf" not in vars(Exponential) and "inv_sf" not in vars(Exponential)
    assert m == Exponential(mean=2.0) and hash(m) == hash(Exponential(2.0))
    assert m != Weibull(1.0, 2.0) and m != Exponential(3.0)
    assert repr(m) == "Exponential(mean=2.0)"
    with pytest.raises(AttributeError):
        m.mean = 3.0


@pytest.mark.parametrize("mu", [2.0 ** -1000, 0.37, 1.0, 2.0 ** 40, 1e300])
def test_exponential_keeps_the_bits_of_its_own_formulas(mu):
    """The shared Weibull path gives exp(-t / mu) and -mu log(p), bit for bit."""
    m = Exponential(mu)
    t = np.array([0.0, 5e-324, 0.37, 1.0, 745.0, 1e300, mu / 3.0, mu, 40.0 * mu, 800.0 * mu])
    p = np.array([1.0, 1.0 - 2.0 ** -53, 0.5, 0.37, 1e-5, 1e-300, 5e-324])
    # a subnormal lifetime raises (below); the rest keep their bits
    subnormal = -mu * np.log(p) < np.finfo(float).tiny
    p, low = p[~subnormal | (p == 1.0)], p[subnormal & (p < 1.0)]

    def bits(x):
        return type(x), [v.hex() for v in np.ravel(x).tolist()]

    for form in (np.asarray, lambda a: [np.array(v) for v in a], lambda a: a.tolist()):
        for x, got, want in ((form(t), m.sf, lambda t: np.exp(-t / mu)),
                             (form(p), m.inv_sf, lambda p: -mu * np.log(p))):
            with np.errstate(over="ignore"):  # t / mu overflows where F-bar is 0
                pairs = [(got(x), want(x))] if isinstance(x, np.ndarray) else [
                    (got(v), want(v)) for v in x]
            for g, w in pairs:
                assert bits(g) == bits(w)
    assert m.inv_sf(1.0).hex() == "-0x0.0p+0"
    for level in low:
        with pytest.raises(OutOfRange, match="underflows"):
            m.inv_sf(level)


def test_parameters_and_values_at_the_ends_of_the_double_range():
    for bad in (5e-324, 1e-310, np.inf, np.nan):
        with pytest.raises(OutOfRange, match="normal doubles"):
            Weibull(bad, 1.0)
        with pytest.raises(OutOfRange, match="normal doubles"):
            Weibull(1.0, bad)
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    assert Exponential(tiny).mean == tiny and Weibull(huge, huge).scale == huge
    # (t / scale)^shape overflows where F-bar is 0, with no RuntimeWarning
    assert Weibull(3.0, 1e-300).sf(1e300) == 0.0
    assert Exponential(1e-300).sf(np.array([1e300, np.inf])).tolist() == [0.0, 0.0]
    assert Weibull(0.5, 1.0).sf(huge) == 0.0
    # inv_sf raises where the lifetime overflows or underflows, with no RuntimeWarning
    assert Exponential(1e308).inv_sf(0.5) == 1e308 * -np.log(0.5)
    with pytest.raises(OutOfRange, match="overflows"):
        Weibull(0.001, 1.0).inv_sf(np.array([0.5, 1e-300]))
    assert Exponential(tiny).inv_sf(np.exp(-1.0)) == tiny
    with pytest.raises(OutOfRange, match="underflows"):
        Exponential(tiny).inv_sf(0.5)  # was a subnormal
    with pytest.raises(OutOfRange, match="underflows"):
        Weibull(0.01, 1.0).inv_sf(0.99999)  # was 0


_normals = st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-1022, 1023))


def _guarded_sf(m, t):
    """F-bar as computed before the guards were decided at construction."""
    with np.errstate(over="ignore"):
        return np.exp(-((np.asarray(t, dtype=float) / m.scale) ** m.shape))


def _guarded_inv_sf(m, p):
    hazard = -np.log(np.asarray(p, dtype=float))
    with np.errstate(over="ignore"):
        t = m.scale * hazard ** (1.0 / m.shape)
    if not np.all((t <= np.finfo(float).max) & ((t >= np.finfo(float).tiny) | (hazard == 0))):
        return None
    return t


@given(shape=st.one_of(_normals, st.floats(0.3, 5.0)),
       scale=st.one_of(_normals, st.floats(0.1, 10.0)),
       t=st.lists(st.one_of(st.floats(0.0, 1e3), st.floats(0.0, np.inf), _normals), min_size=1,
                  max_size=4),
       p=st.lists(st.one_of(st.floats(0.0, 1.0, exclude_min=True),
                            st.sampled_from([5e-324, 1.0 - 2.0 ** -53, 1.0])),
                  min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_guards_decided_at_construction_keep_every_bit(shape, scale, t, p):
    """The cap on t and the skipped range check change no bit and no raise."""
    m = Weibull(shape, scale)
    for x in (t[0], np.array(t)):
        assert np.asarray(m.sf(x)).tobytes() == np.asarray(_guarded_sf(m, x)).tobytes()
    for x in (p[0], np.array(p)):
        want = _guarded_inv_sf(m, x)
        if want is None:
            with pytest.raises(OutOfRange):
                m.inv_sf(x)
        else:
            assert np.asarray(m.inv_sf(x)).tobytes() == np.asarray(want).tobytes()


_TINY = float(np.finfo(float).tiny)
SCALAR_MARGINALS = [Weibull(shape, 1.3) for shape in (0.5, 1.0, 1.5, 3.0)] + [
    Weibull(0.01, 1.0),  # inv_sf keeps its range check
    Exponential(1e308),  # sf has no cap
]


def _scalar_outcome(call, x):
    try:
        out = call(x)
    except (NegativeTime, OutOfRange) as exc:
        return type(exc), str(exc)
    return type(out), float(out).hex()


@pytest.mark.parametrize("m", SCALAR_MARGINALS, ids=repr)
def test_a_float_input_gives_the_bits_of_a_0d_array(m):
    """sf and inv_sf on a Python float, an np.float64 and a 0-d array agree bit for bit.

    A float input is range-checked by one Python comparison and goes on as a
    float64 scalar, where a 0-d array goes through numpy's check; the
    arithmetic after both is numpy-scalar arithmetic.  Raises compare by
    class and message.
    """
    times = [0.0, -0.0, 5e-324, 1e-310, _TINY, 0.3, 1.0, 50.0, 1e300, math.inf, math.nan,
             -0.1, -5e-324, -math.inf]
    if m._cap is not None:
        times += [m._cap, math.nextafter(m._cap, 0.0), math.nextafter(m._cap, math.inf)]
    probs = [0.0, -0.0, 5e-324, 1e-310, _TINY, 1e-300, 0.3, 1.0 - 2.0 ** -53, 1.0,
             math.nextafter(1.0, 2.0), 1.5, math.inf, math.nan, -0.5]
    for call, values in ((m.sf, times), (m.inv_sf, probs)):
        for x in values:
            want = _scalar_outcome(call, np.array(x))
            assert want[0] in (np.float64, NegativeTime, OutOfRange), (call, x, want)
            for form in (float, np.float64):
                assert _scalar_outcome(call, form(x)) == want, (call, x, form)
