"""Count-pattern sums and masked copula partials against per-term oracles.

`law_oracle.oracle_sum` is the term-by-term loop: one copula point and one
`eval` or `fd_oracle.partial` call per term and differentiated coordinate
(or pair), added in term order.  The count-pattern sums
(`distortion._PatternSum`) merge those rows into integer coefficients and
add them in another order, so they agree with the loop to a few roundings
of the summands' magnitudes, under the product, FGM and Clayton-pair
copulas alike.
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
from syspredict import distortion, predictor
from syspredict.distortion import _joint_terms, _PatternSum
from syspredict.errors import OutOfUnitInterval
from syspredict.structure import SystemStructure

from fd_oracle import partial
from law_oracle import BivariateDistortion, oracle_sum

CLAYTON_RTOL = 1e-15
# |pattern sum - per-term loop| <= SUM_ULPS * eps * sum |coeff * part|
SUM_ULPS = 32
EPS = np.finfo(float).eps


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


def _rounding(got, want, scale):
    """|got - want| in units of eps * scale (0 where both agree exactly)."""
    diff = np.abs(got - want)
    with np.errstate(divide="ignore"):  # a nonzero diff at a zero scale is inf
        ratio = np.divide(diff, EPS * scale, out=np.zeros_like(diff), where=diff > 0.0)
    return float(np.max(ratio, initial=0.0))


@given(_sums())
@settings(max_examples=150, deadline=None)
def test_stacked_sum_matches_per_term_loop(case):
    """The value, d1 and d12 by count pattern, wherever at most one variable is free."""
    structures, copula, values = case
    terms = _joint_terms(*structures)
    sums = _PatternSum(copula, *structures)
    for variables in ((), (0,), (0, 1)):
        if not 0 <= len(structures) - len(variables) <= 1:
            continue
        got = sums.partial(*variables)(*values)
        want, scale = oracle_sum(copula, terms, values, *variables)
        # a partial that no array value reaches is a constant, which broadcasts
        assert np.broadcast_shapes(np.shape(got), want.shape) == want.shape
        assert _rounding(got, want, scale) <= SUM_ULPS


@pytest.mark.parametrize("copula", [ClaytonPairCopula(pair=(1, 5), theta=1.0, n=5),
                                    ClaytonPairCopula(pair=(2, 4), theta=2.5, n=5),
                                    FGMCopula(theta=0.5, n=5)],
                         ids=["clayton1", "clayton2.5", "fgm"])
def test_mean_row_blocks_match_one_block(monkeypatch, copula):
    """A grid mean folded and integrated a point per block has the bits of one block.

    Each block folds its own law (den checked once per block) and fills its
    rows of the node array; one matmul then integrates all rows, so the
    blocks cannot move a bit.  The law itself sums the pattern rows of the
    per-term loop to rounding.
    """
    structures = (series(5), k_out_of_n(3, 5), k_out_of_n(2, 5))
    t = np.linspace(0.25, 2.0, 8)
    preds = [(EarlyFailurePredictor(*structures[::2], copula, Exponential(1.0)), (t,)),
             (TwoFailurePredictor(*structures, copula, Exponential(1.0)), (0.5 * t, t))]
    whole = [p.mean(*cond) for p, cond in preds]
    folds = []
    for p, _ in preds:
        build = p._law
        monkeypatch.setattr(p, "_law", lambda *c, build=build: folds.append(c) or build(*c))
    monkeypatch.setattr(predictor, "MEAN_ROWS", 1)
    for (p, cond), want in zip(preds, whole):
        folds.clear()
        assert p.mean(*cond).tobytes() == want.tobytes()
        assert [np.shape(c[0]) for c in folds] == [(1, 1)] * len(t)
    u = np.linspace(0.05, 1.0, 9)
    values = (u, 0.6 * u, 0.2 * u)
    got = _PatternSum(copula, *structures).partial(0, 1)(*values)
    want, scale = oracle_sum(copula, _joint_terms(*structures), values, 0, 1)
    assert _rounding(got, want, scale) <= SUM_ULPS


def test_large_grid_kernel_calls_span_only_the_points(monkeypatch):
    """The Clayton kernel never stacks patterns: a call spans the points, or a mean's block.

    d1 on 2-of-10 has 58 count patterns under a Clayton pair, and each
    distinct read of the pair is its own call over the 2,000 points.  A
    3,001-point mean folds and integrates MEAN_ROWS points at a time, so no
    call spans more than MEAN_ROWS x 545 node cells.
    """
    first, system = series(10), k_out_of_n(2, 10)
    copula = ClaytonPairCopula(pair=(2, 7), theta=2.5, n=10)
    d = BivariateDistortion(first, system, copula)
    sizes = []
    kernel = distortion._clayton_pair

    def spy(p, q, *args):
        sizes.append(np.broadcast(p, q).size)
        return kernel(p, q, *args)

    monkeypatch.setattr(distortion, "_clayton_pair", spy)
    u = np.linspace(0.0, 1.0, 2000)
    got = d.d1(u, 0.5 * u)
    assert len(sizes) > 1 and max(sizes) <= u.size
    assert np.all(np.isfinite(got))
    sizes.clear()
    pred = EarlyFailurePredictor(series(3), validate_structure(3, [[1], [2, 3]]),
                                 ClaytonPairCopula(pair=(2, 3), theta=2.5, n=3), Exponential(1.0))
    assert np.all(np.isfinite(pred.mean(np.linspace(0.0, 3.0, 3001))))
    assert max(sizes) == predictor.MEAN_ROWS * predictor._NODES.size <= 1 << 16


# -- the mask kernel: a stack of masks against one index tuple at a time ----

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
            want = partial(cop, idx, points)
            if isinstance(cop, ClaytonPairCopula) and cop.theta != 1.0:
                np.testing.assert_allclose(stacked[:, r], want, rtol=CLAYTON_RTOL, atol=0)
            else:
                assert stacked[:, r].tobytes() == want.tobytes(), (cop, idx)


# -- call budget: normalizers once per solve, one evaluation per law call ---

def _count(monkeypatch, cls, name, counts, key=None):
    original = getattr(cls, name)
    key = key or name

    def counted(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)


def _pair_reads(evaluator):
    """(reads of the Clayton pair that touch z, the others), a read and its mirror one."""
    reads = {min((*slots, *marks), (*slots[::-1], *marks[::-1]))
             for _, _, slots, marks, *_ in evaluator._patterns if slots}
    at_z = sum(evaluator._k in read[:2] for read in reads)
    return at_z, len(reads) - at_z


@pytest.mark.parametrize("mode", ["one", "weak", "two", "clayton-one", "clayton-weak",
                                  "clayton-two"])
def test_scalar_quantile_call_budget(monkeypatch, mode):
    """No copula kernel call, den and the fold once, one evaluation per law call.

    The law goes by count pattern: den is evaluated once per conditioning
    point and the numerator's c factors are folded once; every later law
    evaluation, the bracket check and each solver step, is one call of the
    folded evaluator in z.  Under FGM that is a polynomial in Python floats;
    under a Clayton pair it makes one pair-kernel call per distinct read of
    the pair that touches z (a read and its mirror image are one), and the
    fold makes the other reads once, as den makes its own.  A weak law adds
    one evaluation at the horizon for alpha, which both the atom mask and the
    law reuse.  The glue around the solve runs in Python too: the marginal's
    F-bar once per conditioning time, its inverse once, and no unit-interval
    check of the copula values (den is its folded partial).
    """
    clayton = mode.startswith("clayton")
    mode = mode.removeprefix("clayton-")
    copula = (ClaytonPairCopula(pair=(1, 3), theta=2.5, n=4) if clayton
              else FGMCopula(theta=0.5, n=4))
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
    _count(monkeypatch, type(copula), "_partial", counts)
    _count(monkeypatch, type(copula), "eval", counts)
    _count(monkeypatch, distortion, "_clayton_pair", counts, key="pair")
    _count(monkeypatch, pred._den, "fold", counts, key="den")
    _count(monkeypatch, distortion, "_check_unit", counts)
    _count(monkeypatch, type(pred.marginal), "sf", counts)
    _count(monkeypatch, type(pred.marginal), "inv_sf", counts)
    fold = pred._num.fold

    def counted_fold(*c):
        counts["fold"] = counts.get("fold", 0) + 1
        folded = fold(*c)

        def evaluate(z):
            assert type(z) is float  # a one-entry solve steps in Python floats
            counts["folded"] = counts.get("folded", 0) + 1
            return folded(z)

        return evaluate

    monkeypatch.setattr(pred._num, "fold", counted_fold)
    extra = 1 if mode == "weak" else 0
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
    assert counts["folded"] == counts["law"] + extra
    assert counts["den"] == counts["fold"] == 1
    at_z, fixed = _pair_reads(pred._num)
    den_at_z, den_fixed = _pair_reads(pred._den)
    assert den_at_z == 0 and (at_z > 0) == clayton
    assert counts.get("pair", 0) == at_z * counts["folded"] + fixed + den_fixed
    assert "_partial" not in counts and "eval" not in counts
    assert counts["sf"] == len(cond) and counts["inv_sf"] == 1
    assert "_check_unit" not in counts


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


@pytest.mark.parametrize("copula", [FGMCopula(theta=0.5, n=3),
                                    ClaytonPairCopula(pair=(1, 3), theta=2.5, n=3)],
                         ids=["fgm", "clayton"])
def test_out_of_range_values_raise_on_every_call(copula):
    """Every call checks all its values, also one that no term carries."""
    q = UnivariateDistortion(k_out_of_n(2, 3), copula)
    q_d1 = _PatternSum(copula, k_out_of_n(2, 3)).partial(0)
    pair = _PatternSum(copula, series(3), k_out_of_n(2, 3)).partial(0)
    # series(3) inside series(3): every coordinate carries the system's variable
    unused = _PatternSum(copula, series(3), series(3)).partial(0)
    calls = [(q.value, (1.5,)), (q_d1, (-0.1,)),
             (pair, (1.5, 0.3)), (pair, (0.5, -0.1)), (unused, (1.5, 0.3))]
    for evaluate, bad in calls:
        evaluate(*(0.5,) * len(bad))
        for _ in range(2):
            with pytest.raises(OutOfUnitInterval):
                evaluate(*bad)


@pytest.mark.parametrize("copula", [FGMCopula(theta=0.5, n=3),
                                    ClaytonPairCopula(pair=(1, 3), theta=2.5, n=3)],
                         ids=["fgm", "clayton"])
def test_nan_in_any_variable_raises(copula):
    """NaN fails the range check in either variable of a two-variable partial."""
    pair = _PatternSum(copula, series(3), k_out_of_n(2, 3)).partial(0)
    pair(0.5, 0.3)
    for bad in ((np.nan, 0.3), (0.5, np.nan), (np.array([0.5, np.nan]), 0.3)):
        with pytest.raises(OutOfUnitInterval):
            pair(*bad)


def test_build_expands_each_structure_once(monkeypatch):
    calls = []
    original = SystemStructure._expand

    def counted(self):
        calls.append(self.path_masks)
        return original(self)

    monkeypatch.setattr(SystemStructure, "_expand", counted)
    # each predictor builds its two sums (by count pattern here) and no distortion
    counts = {}
    _count(monkeypatch, _PatternSum, "__init__", counts, key="term sums")
    _count(monkeypatch, distortion.UnivariateDistortion, "__init__", counts, key="distortions")
    first, second, system = series(4), k_out_of_n(3, 4), k_out_of_n(2, 4)
    TwoFailurePredictor(first, second, system, ProductCopula(4), Exponential(1.0))
    assert sorted(calls) == sorted([first.path_masks, second.path_masks, system.path_masks])
    assert counts == {"term sums": 2}
    EarlyFailurePredictor(first, system, ProductCopula(4), Exponential(1.0))
    assert len(calls) == 3
    assert counts == {"term sums": 4}

