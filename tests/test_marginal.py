import numpy as np
import pytest

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
