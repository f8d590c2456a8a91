import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syspredict import ClaytonPairCopula, FGMCopula, ProductCopula
from syspredict.copula import _pair_value, copula_from_config
from syspredict.errors import (
    IndexOutOfRange,
    LengthMismatch,
    OutOfRange,
    OutOfUnitInterval,
    UnsupportedCopula,
    UnsupportedOrder,
)

from fd_oracle import BoundaryTooClose, fd_partial

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
    return indep * _pair_value(arr[..., j - 1], arr[..., k - 1], cop.theta)


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
    # one point gives the bits it gets in a stack (a 0-d Clayton `**` with
    # theta != 1 may round differently from numpy's array loop, so the
    # single-point oracle is only compared where no `**` is taken)
    for u, want in zip(pts[0], cop.eval(pts[0])):
        got = cop.eval(u)
        assert np.ndim(got) == 0 and got == want
        if not (isinstance(cop, ClaytonPairCopula) and cop.theta != 1.0):
            assert got == oracle_eval(cop, u)


def test_fgm_zero_theta_is_product():
    fgm = FGMCopula(theta=0.0, n=3)
    prod = ProductCopula(3)
    pts = np.random.default_rng(7).uniform(0.0, 1.0, (80, 3))
    for u in pts:
        assert fgm.eval(u) == pytest.approx(prod.eval(u), abs=1e-15)
        for idx in ALL_ORDERS:
            assert fgm.partial(idx, u) == pytest.approx(prod.partial(idx, u), abs=1e-13)


def test_known_partials():
    fgm = FGMCopula(theta=1.0, n=3)
    prod = ProductCopula(3)
    clay = ClaytonPairCopula(pair=(2, 3), theta=1.0, n=3)
    rng = np.random.default_rng(8)
    for u1, u2, u3 in rng.uniform(0.05, 0.95, (40, 3)):
        got = fgm.partial((1, 2, 3), [u1, u2, u3])
        want = 1.0 + (1.0 - 2.0 * u1) * (1.0 - 2.0 * u2) * (1.0 - 2.0 * u3)
        assert got == pytest.approx(want, abs=1e-13)
        assert prod.partial((1,), [u1, u2, u3]) == pytest.approx(u2 * u3, abs=1e-15)
        # component 1 is independent of the dependent pair
        got = clay.partial((1,), [u1, u2, u2])
        assert got == pytest.approx(u2 / (2.0 - u2), abs=1e-13)


def test_clayton_boundary_partials():
    clay = ClaytonPairCopula(pair=(2, 3), theta=1.0, n=3)
    # pair factor's own partial limits: 0 at q=0, 1 at p=0 with q>0
    assert clay.partial((2,), [0.8, 0.5, 0.0]) == 0.0
    assert clay.partial((2,), [0.8, 0.0, 0.5]) == pytest.approx(0.8, abs=1e-14)
    assert clay.partial((2, 3), [1.0, 0.0, 0.0]) == 0.0


@pytest.mark.parametrize("cop", _families(), ids=lambda c: repr(c))
def test_partials_match_finite_differences(cop):
    rng = np.random.default_rng(9)
    pts = rng.uniform(0.15, 0.85, (25, 3))
    for u in pts:
        for idx in ALL_ORDERS:
            analytic = cop.partial(idx, u)
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
        assert fd_partial(clay, idx, pt) == pytest.approx(clay.partial(idx, pt), rel=1e-5, abs=1e-5)


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
    with pytest.raises(UnsupportedOrder):
        cop.partial((1, 2, 3, 3), [0.5, 0.5, 0.5])
    with pytest.raises(IndexOutOfRange):
        cop.partial((4,), [0.5, 0.5, 0.5])
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
    for indices in ((), (1, 2, 3, 4)):
        with pytest.raises(UnsupportedOrder, match=(
                f"^partials are supported for 1..3 distinct coordinates, got {len(indices)}$")):
            FGMCopula(theta=1.0, n=4).partial(indices, [0.5] * 4)


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
