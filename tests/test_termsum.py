"""Stacked term sums and masked copula partials against per-term oracles.

`oracle_sum` is the term-by-term loop that `_TermSum` replaced: one copula
point and one `eval`/`partial` call per term and differentiated coordinate
(or pair), added in term order.  The stacked sum makes one call per chunk of
rows and must give the same bits, except under a Clayton pair with
theta != 1, whose `**` may round differently in the last place with the
length of the array numpy's SIMD loop sees.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syspredict import (
    ClaytonPairCopula,
    EarlyFailurePredictor,
    Exponential,
    FGMCopula,
    ProductCopula,
    TwoFailurePredictor,
    UnivariateDistortion,
    k_out_of_n,
    parallel,
    series,
    validate_structure,
)
from syspredict import distortion
from syspredict.distortion import _joint_terms, _TermSum
from syspredict.errors import OutOfUnitInterval
from syspredict.structure import SystemStructure

from law_oracle import BivariateDistortion

CLAYTON_RTOL = 1e-15


def _ids(mask):
    return tuple(i for i in range(64) if mask >> i & 1)


def oracle_sum(copula, terms, values, var_a=None, var_b=None):
    """The per-term loop: the value with no variable, a partial in one or two.

    Also returns the sum of |coeff * part| over the summands, the scale of
    the rounding the Clayton tolerance is relative to.
    """
    shape = np.broadcast_shapes(*(np.shape(v) for v in values))
    vals = [np.broadcast_to(np.asarray(v), shape) for v in values]
    total = np.zeros(shape)
    scale = np.zeros(shape)
    for coeff, masks in terms:
        ids = [_ids(m) for m in masks]
        point = np.ones(shape + (copula.n,))
        for axis_ids, val in zip(ids, vals):
            for i in axis_ids:
                point[..., i] = val
        if var_a is None:
            parts = [copula.eval(point)]
        elif var_b is None:
            parts = [copula.partial((i + 1,), point) for i in ids[var_a]]
        else:
            parts = [copula.partial((i + 1, j + 1), point)
                     for i in ids[var_a] for j in ids[var_b]]
        for part in parts:
            total += coeff * part
            scale += np.abs(coeff * part)
    return total, scale


def _copula(family, n, theta, pair):
    if family == "product":
        return ProductCopula(n)
    if family == "fgm":
        return FGMCopula(theta=theta, n=n)
    return ClaytonPairCopula(pair=pair, theta=theta, n=n)


@st.composite
def _path_families(draw, n):
    """Minimal paths of up to 4 random sets, each uncovered component a path alone."""
    sets = draw(st.lists(st.frozensets(st.integers(1, n), min_size=1), min_size=1, max_size=4))
    minimal = {p for p in sets if not any(q < p for q in sets)}
    covered = set().union(*minimal)
    minimal |= {frozenset([j]) for j in range(1, n + 1) if j not in covered}
    return validate_structure(n, [sorted(p) for p in minimal])


@st.composite
def _sums(draw):
    """A joint expansion of 1-3 structures, a copula and ordered evaluation points."""
    n = draw(st.integers(2, 5))
    structures = draw(st.lists(_path_families(n), min_size=1, max_size=3))
    family = draw(st.sampled_from(["product", "fgm", "clayton"]))
    theta = {"product": 0.0,
             "fgm": draw(st.floats(-1.0, 1.0)),
             "clayton": draw(st.sampled_from([1.0, 0.4, 2.5]))}[family]
    pair = tuple(sorted(draw(st.lists(st.integers(1, n), min_size=2, max_size=2,
                                      unique=True))))
    count = draw(st.sampled_from([0, 1, 7]))  # 0: scalar evaluation
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = () if count == 0 else (count,)
    values = [rng.uniform(0.0, 1.0, shape)]
    for _ in structures[1:]:
        values.append(values[-1] * rng.uniform(0.0, 1.0, shape))
    if count:
        # pinned corners: u = 1 with v = 0 (w = 0), and a zero first variable
        for k, v in enumerate(values):
            v[0] = 1.0 if k == 0 else 0.0
            v[-1] = 0.0
    return structures, _copula(family, n, theta, pair), values


def _assert_matches(copula, got, want, scale):
    if isinstance(copula, ClaytonPairCopula) and copula.theta != 1.0:
        assert np.all(np.abs(got - want) <= CLAYTON_RTOL * scale)
    else:
        assert got.tobytes() == want.tobytes()


@given(_sums())
@settings(max_examples=150, deadline=None)
def test_stacked_sum_matches_per_term_loop(case):
    structures, copula, values = case
    terms = _joint_terms(*structures)
    stacked = _TermSum(copula, *structures)
    nvars = len(structures)
    got = stacked.partial()(*values)
    want, scale = oracle_sum(copula, terms, values)
    assert got.shape == want.shape
    _assert_matches(copula, got, want, scale)
    for var in range(nvars):
        want, scale = oracle_sum(copula, terms, values, var)
        _assert_matches(copula, stacked.partial(var)(*values), want, scale)
    for a, b in combinations(range(nvars), 2):
        want, scale = oracle_sum(copula, terms, values, a, b)
        _assert_matches(copula, stacked.partial(a, b)(*values), want, scale)


def test_chunked_sum_matches_one_call(monkeypatch):
    """Row chunks add in the same order as one stacked call."""
    system = k_out_of_n(2, 5)
    copula = FGMCopula(theta=0.7, n=5)
    structures = (series(5), k_out_of_n(3, 5), system)
    u = np.linspace(0.05, 1.0, 9)
    values = (u, 0.6 * u, 0.2 * u)
    whole = _TermSum(copula, *structures)
    before = [whole.partial(*variables)(*values) for variables in ((), (0,), (0, 1))]
    monkeypatch.setattr(distortion, "CELLS", 5 * 9 * 3)  # three rows per chunk
    chunked = _TermSum(copula, *structures)
    after = [chunked.partial(*variables)(*values) for variables in ((), (0,), (0, 1))]
    for x, y in zip(before, after):
        assert x.tobytes() == y.tobytes()
    want, _ = oracle_sum(copula, _joint_terms(*structures), values, 0, 1)
    assert after[2].tobytes() == want.tobytes()


def test_large_grid_stays_within_cell_budget(monkeypatch):
    """A 2000-point grid on 2-of-10 (5,020 d1 rows) is evaluated in chunks of at most CELLS cells."""
    first, system = series(10), k_out_of_n(2, 10)
    copula = ProductCopula(10)
    d = BivariateDistortion(first, system, copula)
    largest = []
    original = ProductCopula._partial

    def spy(self, mask, arr):
        largest.append(np.size(arr))
        return original(self, mask, arr)

    monkeypatch.setattr(ProductCopula, "_partial", spy)
    u = np.linspace(0.0, 1.0, 2000)
    got = d.d1(u, 0.5 * u)
    assert max(largest) <= distortion.CELLS
    assert np.all(np.isfinite(got))


# -- the mask kernel of SurvivalCopula.partial -------------------------------

def _families(n):
    return [ProductCopula(n), FGMCopula(theta=0.7, n=n),
            ClaytonPairCopula(pair=(1, n), theta=1.0, n=n),
            ClaytonPairCopula(pair=(2, n), theta=2.5, n=n)]


@pytest.mark.parametrize("n", [3, 4, 6, 9])
def test_mask_form_equals_index_form(n):
    rng = np.random.default_rng(n)
    points = rng.uniform(0.0, 1.0, (6, n))
    points[1, : n // 2] = 0.0
    points[2, n // 2:] = 1.0
    points[3, ::2] = 0.0
    points[3, 1::2] = 1.0
    index_sets = [idx for k in (1, 2, 3) for idx in combinations(range(1, n + 1), k)]
    mask = np.zeros((len(index_sets), n), dtype=bool)
    for r, idx in enumerate(index_sets):
        mask[r, [i - 1 for i in idx]] = True
    stacked_points = np.broadcast_to(points[:, None, :], (6, len(index_sets), n))
    for cop in _families(n):
        stacked = cop._partial(mask, stacked_points)
        assert stacked.shape == (6, len(index_sets))
        for r, idx in enumerate(index_sets):
            want = cop.partial(idx, points)
            one_row = cop._partial(mask[r:r + 1], points[:, None, :])[:, 0]
            assert one_row.tobytes() == want.tobytes(), (cop, idx)
            if isinstance(cop, ClaytonPairCopula) and cop.theta != 1.0:
                np.testing.assert_allclose(stacked[:, r], want, rtol=CLAYTON_RTOL, atol=0)
            else:
                assert stacked[:, r].tobytes() == want.tobytes(), (cop, idx)


# -- call budget: one copula call per term sum, normalizers once per solve ---

def _count(monkeypatch, cls, name, counts, key=None):
    original = getattr(cls, name)
    key = key or name

    def counted(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)


@pytest.mark.parametrize("mode", ["one", "weak", "two"])
def test_scalar_quantile_call_budget(monkeypatch, mode):
    """One copula call per term sum, one term sum per law evaluation, den once.

    A law's one z-free sum is its denominator; the numerator is evaluated
    only at the solver's points, and a weak law adds one numerator
    evaluation at the horizon for alpha, which both the atom mask and the
    law reuse.
    """
    copula = FGMCopula(theta=0.5, n=4)
    if mode == "two":
        pred = TwoFailurePredictor(series(4), k_out_of_n(3, 4), k_out_of_n(2, 4),
                                   copula, Exponential(1.0))
        cond = (0.3, 0.6)
    elif mode == "one":
        pred = EarlyFailurePredictor(series(4), k_out_of_n(2, 4), copula, Exponential(1.0),
                                     mode="strict")
        cond = (0.3,)
    else:
        # component 1 in series with a 2-of-3 block: alpha = 3/4 at theta = 0
        gate4 = validate_structure(4, [[1, 2], [1, 3], [1, 4]])
        pred = EarlyFailurePredictor(series(4), gate4, copula, Exponential(1.0),
                                     mode="weak")
        cond = (0.3,)
    counts = {}
    _count(monkeypatch, FGMCopula, "_partial", counts)
    _count(monkeypatch, FGMCopula, "eval", counts)
    _count(monkeypatch, _TermSum, "_sum", counts)
    _count(monkeypatch, pred, "_num", counts, key="num")
    _count(monkeypatch, pred, "_den", counts, key="den")
    extra_nums = 1 if mode == "weak" else 0
    build = pred._law

    def counted_build(*c):
        inner, alpha = build(*c)

        def evaluate(z):
            counts["law"] = counts.get("law", 0) + 1
            return inner(z)

        return evaluate, alpha

    monkeypatch.setattr(pred, "_law", counted_build)
    pred.quantile(0.5, *cond)
    assert counts["law"] <= 16  # the bracket check and every solver step
    assert counts["num"] == counts["law"] + extra_nums
    assert counts["den"] == 1
    assert counts["_sum"] == counts["num"] + counts["den"]
    assert counts["_partial"] + counts.get("eval", 0) == counts["_sum"]


@given(data=st.data(), n=st.integers(2, 5), k=st.sampled_from([1, 2]),
       family=st.sampled_from([("product", 0.0), ("fgm", 1.0), ("fgm", -1.0), ("fgm", -0.8),
                               ("clayton", 1.0), ("clayton", 2.5)]))
@settings(max_examples=300, deadline=None)
def test_numerator_vanishes_at_zero(data, n, k, family):
    """num(c, 0) is exactly 0 wherever the law exists, so S(z | c) = num(c, z) / den(c).

    Every term keeps an undifferentiated coordinate carrying z, and survival
    copulas are grounded.  A Clayton pair's density is of order 1/min(c), so
    at a subnormal min(c) den may leave the double range and the law raises;
    everywhere else den is finite.
    """
    system = data.draw(st.one_of(st.sampled_from([series(n), parallel(n)]),
                                 st.integers(1, n).map(lambda j: k_out_of_n(j, n)),
                                 _path_families(n)))
    pair = tuple(sorted(data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2,
                                           unique=True))))
    copula = _copula(family[0], n, family[1], pair)
    observed = (series(n), k_out_of_n(n - 1, n))[:k]
    pred = (EarlyFailurePredictor if k == 1 else TwoFailurePredictor)(
        *observed, system, copula, Exponential(1.0))
    # ordered c: 1, interior, and near 0 down to the smallest subnormal
    values = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True),
                       st.floats(5e-324, 1e-6))
    c = sorted(data.draw(st.lists(values, min_size=k, max_size=k)), reverse=True)
    with np.errstate(all="ignore"):
        den = pred._den(*c)
        num = pred._num(*c, 0.0)
    if family[0] == "clayton" and min(c) < np.finfo(float).tiny and not np.isfinite(den):
        return
    assert np.isfinite(den)
    assert num == 0.0


def test_out_of_range_values_raise_on_every_call():
    """Every call checks all its values, also one that no term carries."""
    copula = FGMCopula(theta=0.5, n=3)
    q = UnivariateDistortion(k_out_of_n(2, 3), copula)
    pair = _TermSum(copula, series(3), k_out_of_n(2, 3)).partial(0)
    # series(3) inside series(3): every coordinate carries the system's variable
    unused = _TermSum(copula, series(3), series(3)).partial()
    calls = [(q.value, (1.5,)), (q.derivative, (-0.1,)),
             (pair, (1.5, 0.3)), (pair, (0.5, -0.1)), (unused, (1.5, 0.3))]
    for evaluate, bad in calls:
        evaluate(*(0.5,) * len(bad))
        for _ in range(2):
            with pytest.raises(OutOfUnitInterval):
                evaluate(*bad)


def test_build_expands_each_structure_once(monkeypatch):
    calls = []
    original = SystemStructure._expand

    def counted(self):
        calls.append(self.path_masks)
        return original(self)

    monkeypatch.setattr(SystemStructure, "_expand", counted)
    # each predictor builds its two term sums and no distortion
    counts = {}
    _count(monkeypatch, _TermSum, "__init__", counts, key="term sums")
    _count(monkeypatch, distortion.UnivariateDistortion, "__init__", counts, key="distortions")
    first, second, system = series(4), k_out_of_n(3, 4), k_out_of_n(2, 4)
    TwoFailurePredictor(first, second, system, ProductCopula(4), Exponential(1.0))
    assert sorted(calls) == sorted([first.path_masks, second.path_masks, system.path_masks])
    assert counts == {"term sums": 2}
    EarlyFailurePredictor(first, system, ProductCopula(4), Exponential(1.0))
    assert len(calls) == 3
    assert counts == {"term sums": 4}

