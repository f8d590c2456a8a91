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
    SurvivalCopula,
    TrivariateDistortion,
    TwoFailurePredictor,
    UnivariateDistortion,
    k_out_of_n,
    series,
    validate_structure,
)
from syspredict import distortion
from syspredict.distortion import BivariateDistortion, _joint_terms, _TermSum
from syspredict.errors import LengthMismatch, UnsupportedOrder
from syspredict.structure import SystemStructure

CLAYTON_RTOL = 1e-15


def _ids(mask):
    return tuple(i for i in range(64) if mask >> i & 1)


def oracle_sum(copula, terms, values, var_a=None, var_b=None):
    """The per-term loop: `value` with no variable, `d_var` with one, `d_mixed` with two.

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
def _sums(draw):
    """A joint expansion of 1-3 structures, a copula and ordered evaluation points."""
    n = draw(st.integers(2, 5))
    structures = []
    for _ in range(draw(st.integers(1, 3))):
        sets = draw(st.lists(st.frozensets(st.integers(1, n), min_size=1),
                             min_size=1, max_size=4))
        minimal = {p for p in sets if not any(q < p for q in sets)}
        covered = set().union(*minimal)
        minimal |= {frozenset([j]) for j in range(1, n + 1) if j not in covered}
        structures.append(validate_structure(n, [sorted(p) for p in minimal]))
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
    stacked = _TermSum(copula, terms)
    nvars = len(structures)
    got = stacked.value(*values)
    want, scale = oracle_sum(copula, terms, values)
    assert got.shape == want.shape
    _assert_matches(copula, got, want, scale)
    for var in range(nvars):
        want, scale = oracle_sum(copula, terms, values, var)
        _assert_matches(copula, stacked.d_var(var, *values), want, scale)
    for a, b in combinations(range(nvars), 2):
        want, scale = oracle_sum(copula, terms, values, a, b)
        _assert_matches(copula, stacked.d_mixed(a, b, *values), want, scale)


def test_chunked_sum_matches_one_call(monkeypatch):
    """Row chunks add in the same order as one stacked call."""
    system = k_out_of_n(2, 5)
    copula = FGMCopula(theta=0.7, n=5)
    terms = _joint_terms(series(5), k_out_of_n(3, 5), system)
    u = np.linspace(0.05, 1.0, 9)
    values = (u, 0.6 * u, 0.2 * u)
    whole = _TermSum(copula, terms)
    before = [whole.value(*values), whole.d_var(0, *values), whole.d_mixed(0, 1, *values)]
    monkeypatch.setattr(distortion, "CELLS", 5 * 9 * 3)  # three rows per chunk
    chunked = _TermSum(copula, terms)
    after = [chunked.value(*values), chunked.d_var(0, *values),
             chunked.d_mixed(0, 1, *values)]
    for x, y in zip(before, after):
        assert x.tobytes() == y.tobytes()
    want, _ = oracle_sum(copula, terms, values, 0, 1)
    assert after[2].tobytes() == want.tobytes()


def test_large_grid_stays_within_cell_budget(monkeypatch):
    """A 2000-point grid on 2-of-10 (5,020 d1 rows) is evaluated in chunks of at most CELLS cells."""
    first, system = series(10), k_out_of_n(2, 10)
    copula = ProductCopula(10)
    d = BivariateDistortion(first, system, copula)
    largest = []
    original = SurvivalCopula.partial

    def spy(self, indices, u):
        largest.append(np.size(u))
        return original(self, indices, u)

    monkeypatch.setattr(SurvivalCopula, "partial", spy)
    u = np.linspace(0.0, 1.0, 2000)
    got = d.d1(u, 0.5 * u)
    assert max(largest) <= distortion.CELLS
    assert np.all(np.isfinite(got))


# -- the mask form of SurvivalCopula.partial ---------------------------------

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
        stacked = cop.partial(mask, stacked_points)
        assert stacked.shape == (6, len(index_sets))
        for r, idx in enumerate(index_sets):
            want = cop.partial(idx, points)
            one_row = cop.partial(mask[r:r + 1], points[:, None, :])[:, 0]
            assert one_row.tobytes() == want.tobytes(), (cop, idx)
            if isinstance(cop, ClaytonPairCopula) and cop.theta != 1.0:
                np.testing.assert_allclose(stacked[:, r], want, rtol=CLAYTON_RTOL, atol=0)
            else:
                assert stacked[:, r].tobytes() == want.tobytes(), (cop, idx)


def test_mask_form_validation():
    cop = FGMCopula(theta=0.5, n=4)
    points = np.full((2, 4), 0.5)
    for bad_row in ([False] * 4, [True] * 4):
        mask = np.array([[True, False, False, False], bad_row])
        with pytest.raises(UnsupportedOrder):
            cop.partial(mask, points)
    with pytest.raises(LengthMismatch):
        cop.partial(np.ones((2, 3), dtype=bool), points)
    with pytest.raises(LengthMismatch):
        cop.partial(np.eye(4, dtype=bool)[:3], points)


# -- call budget: one copula call per term sum, normalizers once per solve ---

def _count(monkeypatch, cls, name, counts):
    original = getattr(cls, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)


@pytest.mark.parametrize("mode", ["one", "weak", "two"])
def test_scalar_quantile_call_budget(monkeypatch, mode):
    """One copula call per term sum, one term sum per law evaluation, z-free terms once.

    A law's z-free sums are its denominator and its zero-plus term; a weak
    law adds one evaluation at the horizon for alpha, which both the atom
    mask and the law reuse.
    """
    copula = FGMCopula(theta=0.5, n=4)
    if mode == "two":
        once = [(TrivariateDistortion, "d12_at_zero_plus"),
                (TrivariateDistortion, "d12_boundary")]
    else:
        once = [(BivariateDistortion, "d1_at_zero_plus"), (UnivariateDistortion, "derivative")]
    counts = {}
    _count(monkeypatch, SurvivalCopula, "partial", counts)
    _count(monkeypatch, FGMCopula, "eval", counts)
    _count(monkeypatch, _TermSum, "_sum", counts)
    for cls, name in once:
        _count(monkeypatch, cls, name, counts)
    # a predictor binds its distortion callables when built: build it after the counters
    if mode == "two":
        pred = TwoFailurePredictor(series(4), k_out_of_n(3, 4), k_out_of_n(2, 4),
                                   copula, Exponential(1.0))
        cond = (0.3, 0.6)
    elif mode == "one":
        pred = EarlyFailurePredictor(series(4), k_out_of_n(2, 4), copula, Exponential(1.0),
                                     ordering="strict")
        cond = (0.3,)
    else:
        # component 1 in series with a 2-of-3 block: alpha = 3/4 at theta = 0
        gate4 = validate_structure(4, [[1, 2], [1, 3], [1, 4]])
        pred = EarlyFailurePredictor(series(4), gate4, copula, Exponential(1.0),
                                     ordering="weak")
        cond = (0.3,)
    extra_sums = 3 if mode == "weak" else 2
    build = pred._law

    def counted_build(*c):
        inner, alpha = build(*c)

        def evaluate(z):
            counts["law"] = counts.get("law", 0) + 1
            return inner(z)

        return evaluate, alpha

    monkeypatch.setattr(pred, "_law", counted_build)
    pred.quantile(0.5, *cond)
    assert counts["law"] > 35  # the bracket check and every bisection step
    assert counts["_sum"] == counts["law"] + extra_sums
    assert counts["partial"] + counts.get("eval", 0) == counts["_sum"]
    for _, name in once:
        assert counts[name] == 1


def test_build_expands_each_structure_once(monkeypatch):
    calls = []
    original = SystemStructure._expand

    def counted(self):
        calls.append(self.path_masks)
        return original(self)

    monkeypatch.setattr(SystemStructure, "_expand", counted)
    first, second, system = series(4), k_out_of_n(3, 4), k_out_of_n(2, 4)
    TwoFailurePredictor(first, second, system, ProductCopula(4), Exponential(1.0))
    assert sorted(calls) == sorted([first.path_masks, second.path_masks, system.path_masks])
    EarlyFailurePredictor(first, system, ProductCopula(4), Exponential(1.0))
    assert len(calls) == 3
