from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syspredict import ClaytonPairCopula, FGMCopula, ProductCopula
from syspredict.copula import copula_from_config
from syspredict.errors import (
    IndexOutOfRange,
    LengthMismatch,
    OutOfRange,
    OutOfUnitInterval,
    UnsupportedCopula,
)

from fd_oracle import BoundaryTooClose, fd_partial, partial

ALL_ORDERS = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]


def _families():
    return [
        ProductCopula(3),
        FGMCopula(theta=1.0, n=3),
        FGMCopula(theta=-0.6, n=3),
        ClaytonPairCopula(pair=(2, 3), theta=1.0, n=3),
        ClaytonPairCopula(pair=(1, 3), theta=2.5, n=3),
    ]


@pytest.mark.parametrize("cop", _families(), ids=lambda c: repr(c))
def test_boundary_identities(cop):
    rng = np.random.default_rng(3)
    for u in rng.uniform(0.0, 1.0, (30, 3)):
        assert cop.eval(np.array([1.0, 1.0, 1.0])) == pytest.approx(1.0, abs=1e-15)
        for j in range(3):
            pt = u.copy()
            pt[j] = 0.0
            assert cop.eval(pt) == 0.0
            pt[j] = 1.0
            # uniform margins: setting one coordinate to 1 reduces the copula
            rest = [cop.eval(np.where(np.arange(3) == i, 1.0, pt)) for i in range(3)]
            assert all(0.0 <= r <= 1.0 for r in rest)
    # single-coordinate margins are uniform
    for x in np.linspace(0.0, 1.0, 11):
        assert cop.eval(np.array([x, 1.0, 1.0])) == pytest.approx(x, abs=1e-14)
        assert cop.eval(np.array([1.0, x, 1.0])) == pytest.approx(x, abs=1e-14)
        assert cop.eval(np.array([1.0, 1.0, x])) == pytest.approx(x, abs=1e-14)


@pytest.mark.parametrize("cop", _families(), ids=lambda c: repr(c))
def test_monotone_in_each_coordinate(cop):
    rng = np.random.default_rng(4)
    for u in rng.uniform(0.05, 0.9, (40, 3)):
        base = cop.eval(u)
        for j in range(3):
            up = u.copy()
            up[j] = min(1.0, up[j] + 0.07)
            assert cop.eval(up) >= base - 1e-12


def test_product_and_fgm_closed_forms():
    pts = np.random.default_rng(5).uniform(0.0, 1.0, (50, 3))
    prod = ProductCopula(3)
    fgm = FGMCopula(theta=0.7, n=3)
    for u in pts:
        assert prod.eval(u) == pytest.approx(np.prod(u), abs=1e-15)
        want = np.prod(u) * (1.0 + 0.7 * np.prod(1.0 - u))
        assert fgm.eval(u) == pytest.approx(want, abs=1e-14)


def test_clayton_pair_closed_form():
    cop = ClaytonPairCopula(pair=(2, 3), theta=1.0, n=3)
    pts = np.random.default_rng(6).uniform(0.01, 1.0, (50, 3))
    for u1, u2, u3 in pts:
        want = u1 * u2 * u3 / (u2 + u3 - u2 * u3)
        assert cop.eval([u1, u2, u3]) == pytest.approx(want, abs=1e-14)
    # general theta reduces to the same form at theta=1
    gen = ClaytonPairCopula(pair=(2, 3), theta=1.0 + 1e-12, n=3)
    for u1, u2, u3 in pts:
        assert gen.eval([u1, u2, u3]) == pytest.approx(cop.eval([u1, u2, u3]), abs=1e-9)


def oracle_eval(cop, u):
    """Each family's value formula written out on its own: the oracle for `eval`,
    which is the family's law kernel on an empty mask row."""
    arr = np.asarray(u)
    if isinstance(cop, ProductCopula):
        return np.prod(arr, axis=-1)
    if isinstance(cop, FGMCopula):
        base = np.prod(arr, axis=-1)
        return base + cop.theta * np.prod(arr * (1.0 - arr), axis=-1)
    j, k = cop.pair
    others = [i for i in range(1, cop.n + 1) if i not in (j, k)]
    indep = np.prod(arr[..., [i - 1 for i in others]], axis=-1) if others else 1.0
    # the pair factor (p^-theta + q^-theta - 1)^(-1/theta) as m E^(-1/theta):
    # m = min, M = max, E = 1 + (m/M)^theta - m^theta
    p, q = arr[..., j - 1], arr[..., k - 1]
    m, big = np.minimum(p, q), np.maximum(p, q)
    r = m / np.where(big > 0, big, 1.0)
    return indep * (m * (1.0 + r ** cop.theta - m ** cop.theta) ** (-1.0 / cop.theta))


ORACLE_FAMILIES = [
    ProductCopula(3),
    ProductCopula(5),
    FGMCopula(theta=1.0, n=3),
    FGMCopula(theta=-0.6, n=4),
    ClaytonPairCopula(pair=(2, 3), theta=1.0, n=3),
    ClaytonPairCopula(pair=(1, 4), theta=2.5, n=5),
    ClaytonPairCopula(pair=(1, 2), theta=0.7, n=2),
]


def _unit_points(rng, shape, n):
    # random points with coordinates exactly 0 and 1 mixed in
    pts = rng.uniform(0.0, 1.0, shape + (n,))
    pts[rng.random(pts.shape) < 0.15] = 0.0
    pts[rng.random(pts.shape) < 0.15] = 1.0
    return pts


@pytest.mark.parametrize("cop", ORACLE_FAMILIES, ids=lambda c: repr(c))
def test_eval_matches_family_formula_bitwise(cop):
    rng = np.random.default_rng(12)
    for shape in ((300,), (4, 25)):
        pts = _unit_points(rng, shape, cop.n)
        assert np.array_equal(cop.eval(pts), oracle_eval(cop, pts))
        # the finite-difference oracle's extended precision is kept
        ext = pts.astype(np.longdouble)
        got = cop.eval(ext)
        assert got.dtype == np.longdouble
        assert np.array_equal(got, oracle_eval(cop, ext))
    # one point gives the bits it gets in a stack (a 0-d Clayton `**` may
    # round differently from numpy's array loop, at theta = 1 too, so the
    # single-point oracle is only compared where no `**` is taken)
    for u, want in zip(pts[0], cop.eval(pts[0])):
        got = cop.eval(u)
        assert np.ndim(got) == 0 and got == want
        if not isinstance(cop, ClaytonPairCopula):
            assert got == oracle_eval(cop, u)


def _clayton_exact(p, q, theta):
    """(value, d/dp, d/dq, d2/dp dq) of the Clayton pair factor at 60 digits,
    from (p^-theta + q^-theta - 1)^(-1/theta) and its continuous extension to 0."""
    with localcontext() as ctx:
        ctx.prec = 60
        p, q, theta = Decimal(p), Decimal(q), Decimal(theta)
        if p == 0 or q == 0:
            return 0, int(p == 0 < q), int(q == 0 < p), 0
        # x^y as exp(y ln x): within 1e-55, and far faster than Decimal's
        # correctly rounded power
        a, b = (-theta * p.ln()).exp(), (-theta * q.ln()).exp()
        s = a + b - 1
        value = (-s.ln() / theta).exp()
        return (value, a / p * value / s, b / q * value / s,
                (1 + theta) * a / p * b / q * value / (s * s))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("theta", [0.3, 1.0, 2.5, 8.0])
def test_clayton_pair_matches_decimal_over_the_double_range(theta):
    """Value and every partial within 1e-13 of a 60-digit oracle wherever the exact
    value is a normal double, for p and q log-uniform on [1e-300, 1] with exact 0
    and 1 mixed in: no power of p or q leaves the double range on the way."""
    rng = np.random.default_rng(14)
    pts = 10.0 ** rng.uniform(-300.0, 0.0, (400, 2))
    pts[rng.random(pts.shape) < 0.05] = 0.0
    pts[rng.random(pts.shape) < 0.05] = 1.0
    cop = ClaytonPairCopula(pair=(1, 2), theta=theta, n=2)
    got = np.stack([cop.eval(pts), partial(cop, (1,), pts), partial(cop, (2,), pts),
                    partial(cop, (1, 2), pts)], axis=-1)
    assert np.all(np.isfinite(got))
    tiny, huge = Decimal(np.finfo(float).tiny), Decimal(np.finfo(float).max)
    for (p, q), row in zip(pts, got):
        for have, exact in zip(row, _clayton_exact(p, q, theta)):
            if isinstance(exact, int):  # the boundary values are exact
                assert have == exact
            elif tiny <= exact <= huge:
                assert abs(Decimal(have) - exact) <= Decimal("1e-13") * exact, (p, q)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("theta", [0.3, 1.0, 2.5, 8.0])
def test_clayton_pair_at_subnormal_arguments(theta):
    """A subnormal p or q warns of nothing; the value and first partials stay
    finite and the first partials within 1e-13 where they are normal.  Only the
    density, about 1/M, may leave the double range when M is subnormal."""
    pts = np.array([[1e-310, 1e-310], [1.9e-308, 1.9e-308], [1e-310, 0.5],
                    [5e-324, 1e-300], [0.5, 1e-320]])
    cop = ClaytonPairCopula(pair=(1, 2), theta=theta, n=2)
    got = np.stack([cop.eval(pts), partial(cop, (1,), pts), partial(cop, (2,), pts)], axis=-1)
    assert np.all(np.isfinite(got))
    assert not np.any(np.isnan(partial(cop, (1, 2), pts)))
    tiny = Decimal(np.finfo(float).tiny)
    for (p, q), row in zip(pts, got):
        for have, exact in zip(row[1:], _clayton_exact(p, q, theta)[1:3]):
            if exact >= tiny:
                assert abs(Decimal(have) - exact) <= Decimal("1e-13") * exact, (p, q)


def test_fgm_zero_theta_is_product():
    fgm = FGMCopula(theta=0.0, n=3)
    prod = ProductCopula(3)
    pts = np.random.default_rng(7).uniform(0.0, 1.0, (80, 3))
    for u in pts:
        assert fgm.eval(u) == pytest.approx(prod.eval(u), abs=1e-15)
        for idx in ALL_ORDERS:
            assert partial(fgm, idx, u) == pytest.approx(partial(prod, idx, u), abs=1e-13)


def test_known_partials():
    fgm = FGMCopula(theta=1.0, n=3)
    prod = ProductCopula(3)
    clay = ClaytonPairCopula(pair=(2, 3), theta=1.0, n=3)
    rng = np.random.default_rng(8)
    for u1, u2, u3 in rng.uniform(0.05, 0.95, (40, 3)):
        got = partial(fgm, (1, 2, 3), [u1, u2, u3])
        want = 1.0 + (1.0 - 2.0 * u1) * (1.0 - 2.0 * u2) * (1.0 - 2.0 * u3)
        assert got == pytest.approx(want, abs=1e-13)
        assert partial(prod, (1,), [u1, u2, u3]) == pytest.approx(u2 * u3, abs=1e-15)
        # component 1 is independent of the dependent pair
        got = partial(clay, (1,), [u1, u2, u2])
        assert got == pytest.approx(u2 / (2.0 - u2), abs=1e-13)


def test_clayton_boundary_partials():
    clay = ClaytonPairCopula(pair=(2, 3), theta=1.0, n=3)
    # pair factor's own partial limits: 0 at q=0, 1 at p=0 with q>0
    assert partial(clay, (2,), [0.8, 0.5, 0.0]) == 0.0
    assert partial(clay, (2,), [0.8, 0.0, 0.5]) == pytest.approx(0.8, abs=1e-14)
    assert partial(clay, (2, 3), [1.0, 0.0, 0.0]) == 0.0


@pytest.mark.parametrize("cop", _families(), ids=lambda c: repr(c))
def test_partials_match_finite_differences(cop):
    rng = np.random.default_rng(9)
    pts = rng.uniform(0.15, 0.85, (25, 3))
    for u in pts:
        for idx in ALL_ORDERS:
            analytic = partial(cop, idx, u)
            numeric = fd_partial(cop, idx, u)
            assert analytic == pytest.approx(numeric, rel=2e-5, abs=2e-5)


def test_fd_oracle_examples():
    fgm = FGMCopula(theta=1.0, n=3)
    got = fd_partial(fgm, (1, 2, 3), [0.5, 0.5, 0.5], h=1e-4)
    assert got == pytest.approx(1.0, abs=1e-6)
    prod = ProductCopula(3)
    got = fd_partial(prod, (1, 2), [0.3, 0.6, 0.42], h=1e-4)
    assert got == pytest.approx(0.42, abs=1e-6)
    clay = ClaytonPairCopula(pair=(2, 3), theta=1.0, n=3)
    pt = [0.7, 0.4, 0.6]
    for idx in ALL_ORDERS:
        assert fd_partial(clay, idx, pt) == pytest.approx(partial(clay, idx, pt), rel=1e-5, abs=1e-5)


def test_fd_boundary_guard():
    cop = ProductCopula(3)
    with pytest.raises(BoundaryTooClose):
        fd_partial(cop, (1,), [1e-9, 0.5, 0.5])
    with pytest.raises(BoundaryTooClose):
        fd_partial(cop, (3,), [0.5, 0.5, 1.0 - 1e-9])


def test_slice():
    # coordinates pinned to shared variables or to 1
    fgm = FGMCopula(theta=1.0, n=3)
    for u, v in np.random.default_rng(10).uniform(0.0, 1.0, (20, 2)):
        assert fgm.eval([u, v, 1.0]) == pytest.approx(u * v, abs=1e-15)

    prod = ProductCopula(3)
    assert prod.eval([0.5, 0.4, 0.4]) == pytest.approx(0.5 * 0.16, abs=1e-15)

    clay = ClaytonPairCopula(pair=(2, 3), theta=1.0, n=3)
    for u in np.linspace(0.01, 1.0, 13):
        assert clay.eval([1.0, u, u]) == pytest.approx(u / (2.0 - u), abs=1e-14)
        assert clay.eval([u, u, u]) == pytest.approx(u * u / (2.0 - u), abs=1e-14)

    assert prod.eval([0.2, 0.5, 0.3]) == pytest.approx(0.2 * 0.3 * 0.5, abs=1e-15)


def test_argument_validation():
    cop = FGMCopula(theta=1.0, n=3)
    with pytest.raises(OutOfUnitInterval):
        cop.eval([0.5, 1.2, 0.5])
    with pytest.raises(OutOfUnitInterval):
        cop.eval([-0.1, 0.2, 0.5])
    with pytest.raises(LengthMismatch):
        cop.eval([0.5, 0.5])
    with pytest.raises(OutOfRange):
        FGMCopula(theta=1.5, n=3)
    with pytest.raises(OutOfRange):
        ClaytonPairCopula(pair=(2, 3), theta=0.0, n=3)
    with pytest.raises(IndexOutOfRange):
        ClaytonPairCopula(pair=(2, 5), theta=1.0, n=3)
    for make, message in ((lambda: ProductCopula(n=0), "dimension must be >= 1"),
                          (lambda: FGMCopula(n=1), "dimension must be >= 2"),
                          (lambda: ClaytonPairCopula(n=1), "dimension must be >= 2")):
        with pytest.raises(IndexOutOfRange, match=f"^{message}$"):
            make()


@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(-1.0, 1.0))
@settings(max_examples=80, deadline=None)
def test_fgm_pair_rectangle_positivity(a, b, theta):
    """2-increasing check on the dependent margins of the 3-dim FGM."""
    cop = FGMCopula(theta=theta, n=3)

    def f(u, v):
        return cop.eval([1.0, u, v])

    lo_u, hi_u = min(a, b), max(a, b) + 0.04
    lo_v, hi_v = 0.3, 0.9
    mass = f(hi_u, hi_v) - f(lo_u, hi_v) - f(hi_u, lo_v) + f(lo_u, lo_v)
    assert mass >= -1e-12


def test_from_config():
    c = copula_from_config({"family": "product", "n": 4})
    assert isinstance(c, ProductCopula) and c.n == 4
    c = copula_from_config({"family": "fgm", "theta": -0.5})
    assert isinstance(c, FGMCopula) and c.theta == -0.5
    c = copula_from_config({"family": "clayton_pair", "pair": [3, 1], "theta": 2.0})
    assert isinstance(c, ClaytonPairCopula) and c.pair == (1, 3)
    with pytest.raises(UnsupportedCopula):
        copula_from_config({"family": "gumbel"})
