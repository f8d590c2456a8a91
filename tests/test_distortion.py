import numpy as np
import pytest

from syspredict import (
    ClaytonPairCopula,
    FGMCopula,
    ProductCopula,
    UnivariateDistortion,
    k_out_of_n,
    parallel,
    series,
    validate_structure,
)
from syspredict.distortion import _PatternSum
from syspredict.errors import DimensionMismatch, TermLimitExceeded

from law_oracle import BivariateDistortion, RegionError, TrivariateDistortion


def _interior(seed, count, lo=0.03, hi=0.97):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, count)


def _all_bivariate_designs(relay, gate, first3, product3, fgm1, clayton23):
    return [
        BivariateDistortion(first3, relay, product3),
        BivariateDistortion(first3, relay, clayton23),
        BivariateDistortion(first3, gate, product3),
        BivariateDistortion(first3, gate, fgm1),
    ]


def test_univariate_golden(relay, gate, first3, product3):
    q_relay = UnivariateDistortion(relay, product3)
    q_gate = UnivariateDistortion(gate, product3)
    q_gate_fgm = UnivariateDistortion(gate, FGMCopula(theta=0.4, n=3))
    for u in np.linspace(0.0, 1.0, 101):
        assert q_relay.value(u) == pytest.approx(u + u * u - u**3, abs=1e-14)
        assert q_gate.value(u) == pytest.approx(2 * u * u - u**3, abs=1e-14)
        want = 2 * u * u - u**3 - 0.4 * u**3 * (1 - u) ** 3
        assert q_gate_fgm.value(u) == pytest.approx(want, abs=1e-14)
    # distortion endpoints and monotonicity
    for q in (q_relay, q_gate, q_gate_fgm):
        assert q.value(0.0) == 0.0
        assert q.value(1.0) == pytest.approx(1.0, abs=1e-15)
        grid = q.value(np.linspace(0, 1, 400))
        assert np.all(np.diff(grid) >= -1e-12), "distortion must be nondecreasing"


def test_univariate_derivative(relay, first3, product3, clayton23):
    for cop in (product3, clayton23):
        for struct in (relay, first3):
            q = UnivariateDistortion(struct, cop)
            derivative = _PatternSum(cop, struct).partial(0)
            for u in _interior(11, 30, 0.05, 0.95):
                h = 1e-6
                num = (q.value(u + h) - q.value(u - h)) / (2 * h)
                assert derivative(u) == pytest.approx(num, rel=1e-6, abs=1e-8)


def test_bivariate_relay_product(relay, first3, product3):
    d = BivariateDistortion(first3, relay, product3)
    u = _interior(21, 40)
    v = u * np.random.default_rng(22).uniform(0.0, 1.0, 40)
    np.testing.assert_allclose(d.value(u, v), u * u * v + u * v * v - v**3, atol=1e-14)
    np.testing.assert_allclose(d.d1(u, v), 2 * u * v + v * v, atol=1e-14)
    np.testing.assert_allclose(d.d12(u, v), 2 * u + 2 * v, atol=1e-13)
    # the other branch (v > u) degenerates to the tail of the first lifetime
    np.testing.assert_allclose(d.value(v, u), v**3, atol=1e-14)
    np.testing.assert_allclose(d.d1(v, u), 3 * v * v, atol=1e-14)
    assert d.d12(0.3, 0.7) == 0.0, "mixed partial vanishes off the ordered region"


def test_bivariate_relay_clayton(relay, first3, clayton23):
    # derived oracle: differentiate the joint survival of the theta=1 design
    d = BivariateDistortion(first3, relay, clayton23)
    rng = np.random.default_rng(23)
    u = rng.uniform(0.05, 0.99, 60)
    v = u * rng.uniform(0.0, 1.0, 60)
    want = u * v / (2 - u) + (u * v - v * v) / (2 - v)
    np.testing.assert_allclose(d.value(u, v), want, atol=1e-14)
    want_d1 = 2 * v / (2 - u) ** 2 + v / (2 - v)
    np.testing.assert_allclose(d.d1(u, v), want_d1, atol=1e-13)
    # tail branch and its derivative
    np.testing.assert_allclose(d.value(v, u), v * v / (2 - v), atol=1e-14)
    np.testing.assert_allclose(d.d1(v, u), v * (4 - v) / (2 - v) ** 2, atol=1e-13)


def test_bivariate_gate_product(gate, first3, product3):
    d = BivariateDistortion(first3, gate, product3)
    rng = np.random.default_rng(24)
    u = rng.uniform(0.02, 1.0, 50)
    v = u * rng.uniform(0.0, 1.0, 50)
    np.testing.assert_allclose(d.value(u, v), 2 * u * v * v - v**3, atol=1e-14)
    np.testing.assert_allclose(d.d1(u, v), 2 * v * v, atol=1e-14)
    np.testing.assert_allclose(d.d12(u, v), 4 * v, atol=1e-13)


@pytest.mark.parametrize("theta", [1.0, -0.6])
def test_bivariate_gate_fgm(gate, first3, theta):
    d = BivariateDistortion(first3, gate, FGMCopula(theta=theta, n=3))
    rng = np.random.default_rng(25)
    u = rng.uniform(0.02, 1.0, 50)
    v = u * rng.uniform(0.0, 1.0, 50)
    want = (
        2 * u * v * v
        + 2 * theta * (u - u * u) * (v - v * v) ** 2
        - v**3
        - theta * (v - v * v) ** 3
    )
    np.testing.assert_allclose(d.value(u, v), want, atol=1e-14)
    want_d1 = 2 * v * v + 2 * theta * (1 - 2 * u) * v * v * (1 - v) ** 2
    np.testing.assert_allclose(d.d1(u, v), want_d1, atol=1e-14)
    # tail of the series lifetime under this copula
    np.testing.assert_allclose(
        d.value(v, u), v**3 + theta * (v - v * v) ** 3, atol=1e-14
    )


def test_joint_survival_through_marginal(relay, first3, clayton23, exp1):
    """The (first failure, system) joint survival on x <= y, on a time grid."""
    d = BivariateDistortion(first3, relay, clayton23)
    xs = np.linspace(0.0, 3.0, 20)
    for x in xs:
        for y in np.linspace(x, 4.0, 20):
            u, v = exp1.sf(x), exp1.sf(y)
            want = u * v / (2 - u) + (u * v - v * v) / (2 - v)
            assert d.value(u, v) == pytest.approx(want, abs=1e-12)


def test_term_structure(relay, first3, parallel3, two_of_three, product3, fgm1):
    d = BivariateDistortion(first3, relay, product3)
    assert d.terms == (
        (-1, ((), (1, 2, 3))),
        (1, ((1,), (2, 3))),
        (1, ((2, 3), (1,))),
    )
    assert d.tail.terms == ((1, ((1, 2, 3),)),)

    q = UnivariateDistortion(parallel3, product3)
    coeffs = {ids[0]: c for c, ids in q.terms}
    assert coeffs == {
        (1,): 1, (2,): 1, (3,): 1,
        (1, 2): -1, (1, 3): -1, (2, 3): -1,
        (1, 2, 3): 1,
    }

    tri = TrivariateDistortion(first3, two_of_three, parallel3, fgm1)
    assert len(tri.terms) == 13
    assert sum(c for c, _ in tri.terms) == 1, "terms must sum to 1 at the corner"


@pytest.mark.parametrize("theta", [0.0, 1.0, -0.8])
def test_trivariate_collapse(first3, two_of_three, parallel3, theta):
    """Order-statistic triple under an exchangeable copula: collapsed form."""
    cop = FGMCopula(theta=theta, n=3)
    tri = TrivariateDistortion(first3, two_of_three, parallel3, cop)
    pair = BivariateDistortion(first3, two_of_three, cop)  # the w -> 1 boundary

    def chat(a, b, c):
        return a * b * c * (1 + theta * (1 - a) * (1 - b) * (1 - c))

    def d12chat(a, b, c):
        return c + theta * c * (1 - c) * (1 - 2 * a) * (1 - 2 * b)

    rng = np.random.default_rng(26)
    pts = np.sort(rng.uniform(0.01, 0.99, (60, 3)), axis=1)[:, ::-1]
    for u, v, w in pts:
        want = 6 * chat(u, v, w) - 3 * chat(v, v, w) - 3 * chat(u, w, w) + chat(w, w, w)
        assert tri.value(u, v, w) == pytest.approx(want, abs=1e-12)
        assert tri.d12(u, v, w) == pytest.approx(6 * d12chat(u, v, w), abs=1e-12)
        assert pair.d12(u, v) == pytest.approx(6 * d12chat(u, v, v), abs=1e-12)
        want_bnd = 3 * chat(u, v, v) - 2 * chat(v, v, v)
        assert pair.value(u, v) == pytest.approx(want_bnd, abs=1e-12)
    assert tri.value(1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_diagonal_continuity(relay, gate, first3, product3, fgm1, clayton23):
    for d in _all_bivariate_designs(relay, gate, first3, product3, fgm1, clayton23):
        for u in np.linspace(0.0, 1.0, 100):
            gap = d.value(u, u) - d.value(u, min(1.0, u + 1e-13))
            assert abs(gap) < 1e-12, "distortion must be continuous across u = v"


def test_monotonicity(relay, gate, first3, product3, fgm1, clayton23):
    grid = np.linspace(0.0, 1.0, 41)
    for d in _all_bivariate_designs(relay, gate, first3, product3, fgm1, clayton23):
        uu, vv = np.meshgrid(grid, grid, indexing="ij")
        z = d.value(uu, vv)
        assert np.all(np.diff(z, axis=0) >= -1e-12), "nondecreasing in u"
        assert np.all(np.diff(z, axis=1) >= -1e-12), "nondecreasing in v"


def test_d1_matches_finite_differences(relay, gate, first3, product3, fgm1, clayton23):
    h = 1e-6
    rng = np.random.default_rng(27)
    for d in _all_bivariate_designs(relay, gate, first3, product3, fgm1, clayton23):
        u = rng.uniform(0.15, 0.9, 25)
        v = u * rng.uniform(0.05, 0.9, 25)  # keep v well below u
        num = (d.value(u + h, v) - d.value(u - h, v)) / (2 * h)
        np.testing.assert_allclose(d.d1(u, v), num, rtol=1e-5, atol=1e-8)
        # tail side, v > u
        num = (d.value(v + h, u) - d.value(v - h, u)) / (2 * h)
        np.testing.assert_allclose(d.d1(v, u), num, rtol=1e-5, atol=1e-8)


def test_d12_matches_finite_differences(relay, gate, first3, two_of_three, parallel3,
                                        product3, fgm1, clayton23):
    h = 1e-4
    rng = np.random.default_rng(28)
    for d in _all_bivariate_designs(relay, gate, first3, product3, fgm1, clayton23):
        u = rng.uniform(0.3, 0.9, 20)
        v = u * rng.uniform(0.1, 0.6, 20)
        num = (
            d.value(u + h, v + h) - d.value(u + h, v - h)
            - d.value(u - h, v + h) + d.value(u - h, v - h)
        ) / (4 * h * h)
        np.testing.assert_allclose(d.d12(u, v), num, rtol=1e-5, atol=1e-6)

    tri = TrivariateDistortion(first3, two_of_three, parallel3, fgm1)
    for _ in range(20):
        w, v, u = np.sort(rng.uniform(0.2, 0.95, 3))
        v = max(v, w + 3 * h)
        u = max(u, v + 3 * h)
        num = (
            tri.value(u + h, v + h, w) - tri.value(u + h, v - h, w)
            - tri.value(u - h, v + h, w) + tri.value(u - h, v - h, w)
        ) / (4 * h * h)
        assert tri.d12(u, v, w) == pytest.approx(num, rel=1e-5, abs=1e-6)


def test_zero_plus_limits(relay, gate, first3, two_of_three, parallel3,
                          product3, fgm1, clayton23):
    eps = 1e-8
    us = np.linspace(0.05, 0.95, 19)
    for d in _all_bivariate_designs(relay, gate, first3, product3, fgm1, clayton23):
        limit = d.d1(us, 0.0)
        np.testing.assert_allclose(limit, 0.0, atol=1e-15)
        np.testing.assert_allclose(limit, d.d1(us, eps), atol=1e-6)

    tri = TrivariateDistortion(first3, two_of_three, parallel3, fgm1)
    for u in us:
        v = 0.8 * u
        limit = tri.d12(u, v, 0)
        assert limit == pytest.approx(0.0, abs=1e-15)
        assert limit == pytest.approx(tri.d12(u, v, eps), abs=1e-6)


def test_d1_side_convention(relay, first3, product3):
    d = BivariateDistortion(first3, relay, product3)
    u = 0.6
    # at the kink the two one-sided derivatives differ; d1 takes the ordered one
    assert d.d1(u, u) == pytest.approx(2 * u * u + u * u, abs=1e-14)
    # the tail side is the derivative of the first failure's distortion
    assert d.tail_d1(u) == pytest.approx(3 * u * u, abs=1e-14)
    assert d.d1(u, 0.9) == d.tail_d1(u)


def test_region_and_mode_errors(first3, two_of_three, parallel3, fgm1):
    tri = TrivariateDistortion(first3, two_of_three, parallel3, fgm1)
    with pytest.raises(RegionError):
        tri.value(0.3, 0.7, 0.1)
    with pytest.raises(RegionError):
        tri.d12(0.9, 0.2, 0.5)


def test_dimension_mismatch(relay, first3):
    with pytest.raises(DimensionMismatch):
        UnivariateDistortion(relay, ProductCopula(4))
    with pytest.raises(DimensionMismatch):
        BivariateDistortion(first3, relay, FGMCopula(theta=0.5, n=5))


def test_term_budget():
    n = 22
    wide = validate_structure(n, [[i] for i in range(1, n + 1)])
    narrow = validate_structure(n, [list(range(1, n + 1))])
    cop = ProductCopula(n)
    with pytest.raises(TermLimitExceeded, match=r"22 path sets exceeds the 2\^20 term budget"):
        BivariateDistortion(narrow, wide, cop)
    with pytest.raises(TermLimitExceeded, match="term budget"):
        TrivariateDistortion(narrow, k_out_of_n(21, n), wide, cop)
    big = parallel(25)
    with pytest.raises(TermLimitExceeded, match="term budget"):
        UnivariateDistortion(big, ProductCopula(25))
    # each expansion fits (2^11 - 1 and 2^10 - 1 merged terms), their product does not
    first = validate_structure(n, [[i] for i in range(1, 11)] + [list(range(11, n + 1))])
    system = validate_structure(n, [[i] for i in range(1, 10)] + [list(range(10, n + 1))])
    with pytest.raises(TermLimitExceeded, match=r"2094081 joint terms exceed the 2\^20"):
        BivariateDistortion(first, system, cop)
