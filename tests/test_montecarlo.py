import csv
import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syspredict import montecarlo
from syspredict import (
    ClaytonPairCopula,
    CoverageReport,
    EarlyFailurePredictor,
    Exponential,
    FGMCopula,
    ProductCopula,
    SurvivalCopula,
    Weibull,
    TwoFailurePredictor,
    coverage_experiment,
    coverage_table,
    sample_components,
    simulate,
    survival_uniforms,
)
from syspredict.montecarlo import CSV_BLOCK_ROWS, SampleSet, write_csv
from syspredict.errors import (
    InvalidK,
    LengthMismatch,
    OutOfRange,
    SysPredictError,
    UnsupportedCopula,
)

from fd_oracle import partial
from law_oracle import InsufficientBinCount, empirical_conditional_check


def survival_uniforms_numeric(copula, U):
    """Reference sampler: sequential conditional inversion by bisection.

    Coordinate i is inverted against its conditional CDF given coordinates
    1..i-1, which needs copula partials of order i-1 (at most 3).
    """
    n = copula.n
    V = np.empty_like(U)
    V[..., 0] = U[..., 0]
    shape = U.shape[:-1]
    for i in range(1, n):
        given = tuple(range(1, i + 1))

        def cond_cdf(q):
            point = np.ones(shape + (n,))
            point[..., :i] = V[..., :i]
            point[..., i] = q
            num = partial(copula, given, point)
            point[..., i] = 1.0
            den = partial(copula, given, point)
            return num / den

        lo = np.zeros(shape)
        hi = np.ones(shape)
        target = U[..., i]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            go_up = cond_cdf(mid) < target
            lo = np.where(go_up, mid, lo)
            hi = np.where(go_up, hi, mid)
        V[..., i] = 0.5 * (lo + hi)
    return V


def _fgm_conditional_inverse(a, w):
    # root of a v^2 - (1+a) v + w = 0 in [0,1]; the 2w/(...) form is stable
    # across a -> 0 where the equation degenerates to v = w
    disc = (1.0 + a) ** 2 - 4.0 * w * a
    return 2.0 * w / (1.0 + a + np.sqrt(disc))


def _clayton_conditional_inverse(p, w, theta):
    # solve d/dp of the pair factor = w for the partner coordinate:
    # (1 + p^-theta (w^(-theta/(1+theta)) - 1))^(-1/theta), with p^-theta taken out
    with np.errstate(divide="ignore", over="ignore"):
        return p * (p ** theta + w ** (-theta / (1.0 + theta)) - 1.0) ** (-1.0 / theta)


def oracle_uniforms(copula, U):
    """Each family's closed-form conditional inversion written out on its own:
    the oracle for the families' `_from_uniforms`."""
    V = U.copy()
    if isinstance(copula, FGMCopula):
        a = copula.theta * np.prod(1.0 - 2.0 * V[..., :-1], axis=-1)
        V[..., -1] = _fgm_conditional_inverse(a, U[..., -1])
    elif isinstance(copula, ClaytonPairCopula):
        j, k = copula.pair
        V[..., k - 1] = _clayton_conditional_inverse(
            V[..., j - 1], U[..., k - 1], copula.theta
        )
    return V


SAMPLER_FAMILIES = [
    ProductCopula(3),
    FGMCopula(theta=1.0, n=3),
    FGMCopula(theta=-0.6, n=4),
    ClaytonPairCopula(pair=(2, 3), theta=1.0, n=3),
    ClaytonPairCopula(pair=(1, 4), theta=2.5, n=5),
    ClaytonPairCopula(pair=(1, 2), theta=0.7, n=2),
]


@pytest.mark.parametrize("copula", SAMPLER_FAMILIES, ids=lambda c: repr(c))
def test_sampler_matches_family_inverse_bitwise(copula):
    rng = np.random.default_rng(13)
    U = rng.random((400, copula.n))
    # uniforms exactly 0 and 1 included
    U[rng.random(U.shape) < 0.1] = 0.0
    U[rng.random(U.shape) < 0.1] = 1.0
    with np.errstate(invalid="ignore"):
        got = survival_uniforms(copula, U)
        want = oracle_uniforms(copula, U)
    if isinstance(copula, ClaytonPairCopula):
        # at w = 1 the generalized inverse: 1, or a point mass at 0 given p = 0,
        # where the closed form is 0 * inf
        j, k = copula.pair
        rows = U[:, k - 1] == 1.0
        assert np.any(U[rows, j - 1] == 0.0) and np.any(U[rows, j - 1] > 0.0)
        assert np.array_equal(got[rows, k - 1], U[rows, j - 1] > 0.0)
        assert np.array_equal(got[~rows], want[~rows])
        # every other column of those rows still matches the oracle
        assert np.array_equal(np.delete(got[rows], k - 1, axis=1),
                              np.delete(want[rows], k - 1, axis=1))
    else:
        # FGM's closed form is 0/0 at w = 0 with a = -1; the sampler takes the
        # generalized inverse, 0, there
        finite = ~np.isnan(want)
        assert np.array_equal(got[finite], want[finite])
        rows = ~finite[:, -1]
        assert np.all(finite[:, :-1])
        assert np.array_equal(got[rows, -1], np.zeros(rows.sum()))
    for marginal in (Exponential(1.0), Weibull(shape=2.0, scale=1.5)):
        draws = sample_components(copula, marginal, np.random.default_rng(5), 300)
        U = np.random.default_rng(5).random((300, copula.n))
        assert np.array_equal(draws, marginal.inv_sf(oracle_uniforms(copula, U)))


def test_fgm_sampler_takes_the_generalized_inverse_at_w_zero():
    # a = theta (1 - 2 * 0) (1 - 2 * 1) = -1 and w = 0: the closed form is 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        V = survival_uniforms(FGMCopula(theta=1.0, n=3), [[0.0, 1.0, 0.0]])
    assert np.array_equal(V, [[0.0, 1.0, 0.0]])


def test_clayton_sampler_takes_the_generalized_inverse_at_w_one():
    # p^theta underflows at p = 1e-200: the closed form would be p * inf
    V = survival_uniforms(ClaytonPairCopula(pair=(1, 2), theta=2.5, n=2),
                          [[0.0, 1.0], [1e-200, 1.0], [0.3, 1.0]])
    assert np.array_equal(V, [[0.0, 0.0], [1e-200, 1.0], [0.3, 1.0]])


def test_clayton_sampler_keeps_a_tiny_partner():
    """p^-theta overflows at p = 1e-200, theta = 2.5; the partner is still p-sized."""
    p, w, theta = 1e-200, 0.5, Decimal("2.5")
    with localcontext() as ctx:
        ctx.prec = 60
        # d/dp of the pair factor = w solved exactly for the partner
        inner = 1 + Decimal(p) ** -theta * (Decimal(w) ** (-theta / (1 + theta)) - 1)
        exact = inner ** (-1 / theta)
    assert float(exact) == pytest.approx(1.1949398693e-200, rel=1e-10)
    V = survival_uniforms(ClaytonPairCopula(pair=(1, 2), theta=2.5, n=2), [[p, w]])
    assert V[0, 0] == p
    assert V[0, 1] == pytest.approx(float(exact), rel=1e-14)


def test_sampler_needs_a_family_inverse():
    class Bare(SurvivalCopula):
        n = 2

    with pytest.raises(UnsupportedCopula) as err:
        survival_uniforms(Bare(), np.zeros((1, 2)))
    assert isinstance(err.value, SysPredictError)


def test_survival_uniforms_product(product3):
    U = np.random.default_rng(1).random((100, 3))
    V = survival_uniforms(product3, U)
    np.testing.assert_array_equal(V, U)
    assert V is not U, "must not alias the input block"


@pytest.mark.parametrize(
    "copula",
    [
        FGMCopula(theta=1.0, n=3),
        FGMCopula(theta=-0.7, n=3),
        ClaytonPairCopula(pair=(2, 3), theta=1.0, n=3),
        ClaytonPairCopula(pair=(1, 3), theta=2.5, n=3),
    ],
    ids=lambda c: repr(c),
)
def test_sampler_lanes_agree(copula):
    U = np.random.default_rng(2).random((2000, 3))
    fast = survival_uniforms(copula, U)
    slow = survival_uniforms_numeric(copula, U)
    np.testing.assert_allclose(fast, slow, atol=1e-12)


@pytest.mark.parametrize(
    "copula",
    [FGMCopula(theta=1.0, n=3), ClaytonPairCopula(pair=(2, 3), theta=1.0, n=3)],
    ids=lambda c: repr(c),
)
def test_sampler_joint_law(copula):
    size = 200000
    U = np.random.default_rng(3).random((size, 3))
    V = survival_uniforms(copula, U)
    # marginals stay uniform
    for i in range(3):
        for q in (0.25, 0.5, 0.75):
            assert np.mean(V[:, i] <= q) == pytest.approx(q, abs=0.005)
    # survival scale: V_i = F-bar(X_i), so the copula is the joint CDF of V
    for a in (0.3, 0.5, 0.8):
        want = copula.eval([a, a, a])
        got = np.mean((V <= a).all(axis=1))
        assert got == pytest.approx(want, abs=0.005)
    # and the pairwise slices hold as well
    pair = copula.eval([0.4, 0.6, 1.0])
    assert np.mean((V[:, 0] <= 0.4) & (V[:, 1] <= 0.6)) == pytest.approx(
        pair, abs=0.005
    )


def test_uniform_block_shape_check(fgm1):
    with pytest.raises(OutOfRange):
        survival_uniforms(fgm1, np.random.random((10, 2)))


def test_sample_components_marginal(exp1, fgm1):
    rng = np.random.default_rng(4)
    X = sample_components(fgm1, exp1, rng, 100000)
    assert X.shape == (100000, 3)
    # exponential mean-1 margins
    assert X.mean() == pytest.approx(1.0, abs=0.02)
    assert np.mean(X > 0.0) == 1.0


def test_simulate_columns(first3, relay, two_of_three, parallel3, fgm1, exp1):
    s = simulate(first3, relay, fgm1, exp1, size=500, seed=11)
    assert s.size == 500
    np.testing.assert_array_equal(s.t1, s.components.min(axis=1))
    want_t = np.maximum(s.components[:, 0], s.components[:, 1:].min(axis=1))
    np.testing.assert_array_equal(s.t, want_t)
    assert np.all(s.t1 < s.t)  # the relay's first failure is strictly earlier
    assert s.t2 is None
    assert [name for name, _ in s.columns()] == ["x1", "x2", "x3", "t1", "t"]
    assert s.meta["seed"] == 11 and s.meta["size"] == 500

    tri = simulate(
        first3, parallel3, fgm1, exp1, size=200, seed=12, second=two_of_three
    )
    np.testing.assert_array_equal(tri.t2, np.sort(tri.components, axis=1)[:, 1])
    np.testing.assert_array_equal(tri.t, tri.components.max(axis=1))
    assert [name for name, _ in tri.columns()] == ["x1", "x2", "x3", "t1", "t2", "t"]


def test_simulate_is_reproducible(first3, relay, clayton23, exp1):
    a = simulate(first3, relay, clayton23, exp1, size=100, seed=7)
    b = simulate(first3, relay, clayton23, exp1, size=100, seed=7)
    np.testing.assert_array_equal(a.components, b.components)
    c = simulate(first3, relay, clayton23, exp1, size=100, seed=8)
    assert not np.array_equal(a.components, c.components)


def test_simulate_takes_a_seed_sequence(first3, relay, clayton23, exp1):
    a = simulate(first3, relay, clayton23, exp1, size=100, seed=11)
    b = simulate(first3, relay, clayton23, exp1, size=100, seed=np.random.SeedSequence(11))
    np.testing.assert_array_equal(a.components, b.components)
    assert a.meta["seed"] == 11
    assert b.meta["seed"].entropy == 11


def test_simulate_errors(first3, relay, product3, exp1):
    with pytest.raises(OutOfRange):
        simulate(first3, relay, product3, exp1, size=0, seed=1)


def test_empirical_conditional_check(first3, relay, product3, exp1):
    pred = EarlyFailurePredictor(first3, relay, product3, exp1, mode="strict")
    sample = simulate(first3, relay, product3, exp1, size=200000, seed=31)
    y = np.linspace(0.31, 3.5, 25)
    check = empirical_conditional_check(sample, pred, (0.28, 0.34), y)
    assert check.rows >= 500
    assert check.deviation < 0.02, f"law deviates by {check.deviation}"
    with pytest.raises(InsufficientBinCount):
        empirical_conditional_check(sample, pred, (50.0, 50.1), y)


def test_empirical_check_alive_filter(first3, gate, product3, exp1):
    alive = EarlyFailurePredictor(
        first3, gate, product3, exp1, mode="alive"
    )
    sample = simulate(first3, gate, product3, exp1, size=200000, seed=32)
    y = np.linspace(0.31, 3.0, 20)
    check = empirical_conditional_check(sample, alive, (0.28, 0.34), y)
    assert check.deviation < 0.02, f"law deviates by {check.deviation}"


def test_empirical_check_two_failures(first3, two_of_three, parallel3, fgm1, exp1):
    pred = TwoFailurePredictor(first3, two_of_three, parallel3, fgm1, exp1)
    sample = simulate(
        first3, parallel3, fgm1, exp1, size=400000, seed=33, second=two_of_three
    )
    y = np.linspace(0.71, 4.0, 20)
    check = empirical_conditional_check(
        sample, pred, (0.40, 0.53), y, t2_bin=(0.64, 0.74)
    )
    assert check.rows >= 500
    assert check.deviation < 0.03, f"law deviates by {check.deviation}"
    with pytest.raises(OutOfRange):
        bad = simulate(first3, parallel3, fgm1, exp1, size=1000, seed=34)
        empirical_conditional_check(bad, pred, (0.4, 0.5), y, t2_bin=(0.6, 0.7))


def test_coverage_exact_mu_hits_nominal():
    rep = coverage_experiment(25, 400, seed=101, exact_mu=True)
    assert rep.coverage50 == pytest.approx(0.50, abs=3.5 * rep.se50)
    assert rep.coverage90 == pytest.approx(0.90, abs=3.5 * rep.se90)
    assert rep.se50 < 0.01 and rep.se90 < 0.01


def test_coverage_reproducible_and_distinct():
    a = coverage_experiment(5, 100, seed=7)
    b = coverage_experiment(5, 100, seed=7)
    assert (a.coverage50, a.coverage90, a.se50, a.se90) == (
        b.coverage50,
        b.coverage90,
        b.se50,
        b.se90,
    )
    c = coverage_experiment(5, 100, seed=8)
    assert a.coverage50 != c.coverage50
    fresh = coverage_experiment(5, 100, seed=7, score="fresh", eval_draws=50)
    assert fresh.coverage50 != a.coverage50


def test_eval_draws_needs_fresh_scoring():
    # eval_draws counts fresh scoring draws: it needs score="fresh" and is at least 1
    for kwargs in ({"eval_draws": 40}, {"score": "same", "eval_draws": 40},
                   {"score": "fresh", "eval_draws": 0}):
        with pytest.raises(OutOfRange, match="eval_draws"):
            coverage_experiment(5, 50, seed=3, **kwargs)
        with pytest.raises(OutOfRange, match="eval_draws"):
            coverage_table([1, 5], 50, seed=3, **kwargs)


def test_coverage_small_k_underscovers():
    # estimating the scale from one system leaves big undercoverage
    rep = coverage_experiment(1, 4000, seed=55)
    assert rep.coverage50 < 0.45
    assert rep.coverage90 < 0.80


def test_coverage_errors():
    with pytest.raises(InvalidK):
        coverage_experiment(0, 10, seed=1)
    with pytest.raises(InvalidK):
        coverage_experiment(5, 0, seed=1)
    with pytest.raises(OutOfRange):
        coverage_experiment(5, 10, seed=1, score="other")


@pytest.mark.parametrize("name, error", [("k", InvalidK), ("replications", InvalidK),
                                         ("eval_draws", OutOfRange), ("size", OutOfRange)])
def test_counts_must_be_integral(name, error, first3, relay, product3, exp1):
    def run(value):
        if name == "size":
            return simulate(first3, relay, product3, exp1, size=value, seed=1).size
        counts = {"k": 2, "replications": 3, "eval_draws": 2, name: value}
        rep = coverage_experiment(counts["k"], counts["replications"], seed=1,
                                  score="fresh", eval_draws=counts["eval_draws"])
        return getattr(rep, name, 3)  # the report does not echo eval_draws

    # a count is never truncated: 10.9 rows or 3.9 replications raise
    for bad in (2.7, np.float64(3.9), float("nan"), float("inf"), "3"):
        with pytest.raises(error, match=f"^{name} must be an integer"):
            run(bad)
    # an integral float, as a JSON config may give it, is the count itself
    got = run(3.0)
    assert got == 3 and type(got) is int


def test_coverage_table_stable_prefix():
    t1 = coverage_table([1, 5], 50, seed=9)
    t2 = coverage_table([1, 10], 50, seed=9)
    assert [r.k for r in t1] == [1, 5]
    assert t1[0].coverage50 == t2[0].coverage50
    assert t1[0].coverage90 == t2[0].coverage90


def _copy(seq):
    """A SeedSequence equal to `seq`, to spawn from without advancing `seq`."""
    return np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key,
                                  pool_size=seq.pool_size,
                                  n_children_spawned=seq.n_children_spawned)


def test_a_seed_is_read_not_advanced():
    seq = np.random.SeedSequence(29, spawn_key=(4,), n_children_spawned=3)
    a = coverage_experiment(5, 40, seq)
    assert coverage_experiment(5, 40, seq) == a
    assert seq.n_children_spawned == 3
    t = coverage_table([1, 5], 40, seq)
    assert coverage_table([1, 5], 40, seq) == t
    assert seq.n_children_spawned == 3
    # the j-th k runs on the j-th child that spawning would have made
    children = _copy(seq).spawn(2)
    assert t == [coverage_experiment(k, 40, c) for k, c in zip([1, 5], children)]
    assert [c.n_children_spawned for c in children] == [0, 0]


def test_sampleset_csv_round_trip(tmp_path, first3, relay, fgm1, exp1):
    s = simulate(first3, relay, fgm1, exp1, size=50, seed=41)
    path = tmp_path / "sample.csv"
    s.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2", "x3", "t1", "t"]
    assert len(rows) == 51
    got = np.array([[float(x) for x in row] for row in rows[1:]])
    np.testing.assert_allclose(got[:, :3], s.components, rtol=1e-8)
    np.testing.assert_allclose(got[:, 3], s.t1, rtol=1e-8)
    np.testing.assert_allclose(got[:, 4], s.t, rtol=1e-8)
    raw = open(path, "rb").read()
    assert b"\r\n" in raw, "output must use CRLF row endings"


# -- the block CSV writer against the csv.writer loop it replaced -------------

def oracle_write_csv(path, header, rows):
    """Reference writer: csv.writer with each number formatted as `.9g`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else f"{float(cell):.9g}"
                             for cell in row])


SPECIAL_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 2.2e-308,
                  1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308, 123456789.5]
WORD = st.text(alphabet="abcXYZ019.+- e_", max_size=8)


@st.composite
def csv_tables(draw):
    ncol = draw(st.integers(1, 8))
    rows = draw(st.sampled_from([1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
                | st.integers(1, 3 * CSV_BLOCK_ROWS))
    pool = np.array(draw(st.lists(st.floats(width=64), max_size=6)) + SPECIAL_FLOATS)
    # a one-column table may not hold an empty string (csv.writer quotes it)
    words = draw(st.lists(WORD.filter(bool) if ncol == 1 else WORD, min_size=1,
                          max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for text in draw(st.lists(st.booleans(), min_size=ncol, max_size=ncol)):
        if text:
            col = [words[i] for i in rng.integers(len(words), size=rows)]
            if ncol > 1:
                col[0] = ""
            columns.append(col)
        else:
            wide = rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 308, size=rows)
            columns.append(np.where(rng.random(rows) < 0.3, rng.choice(pool, rows), wide))
    return [f"c{j}" for j in range(ncol)], columns


@settings(max_examples=60, deadline=None)
@given(table=csv_tables())
def test_write_csv_matches_csv_writer(tmp_path_factory, table):
    header, columns = table
    d = tmp_path_factory.mktemp("csv")
    write_csv(d / "block.csv", header, columns)
    oracle_write_csv(d / "oracle.csv", header, zip(*columns))
    assert (d / "block.csv").read_bytes() == (d / "oracle.csv").read_bytes()


def fixed_notation_edges():
    """Cells where formatting by numpy and by `'%.9g' %` could part ways."""
    rng = np.random.default_rng(24)
    # rounding to nine digits crosses a decade (the last prints as 0.0001)
    crossings = [9.9999999995, 99999999.95, 999999999.5, 9.99999999995e-05]
    powers = 10.0 ** np.arange(-6, 11)
    # odd / 2^(9 - X) in decade X has ten digits, the last a 5: an exact tie
    ties = []
    for x in range(-4, 9):
        scale = 2 ** (9 - x)
        lo, hi = math.ceil(10.0 ** x * scale), math.ceil(10.0 ** (x + 1) * scale)
        odd = 2 * rng.integers(lo // 2, (hi - 1) // 2, 12, endpoint=True) + 1
        ties += [o / scale for o in odd.tolist() if lo <= o < hi]
    with localcontext() as ctx:
        ctx.prec = 60
        for v in ties:
            x = Decimal(v).adjusted()
            assert Decimal(v).scaleb(8 - x) % 1 == Decimal("0.5"), v
    # ties divided by 10^k, which doubles hold only nearly: the double product
    # with 10^(8 - X) is often the half-integer, and the remainder decides
    near = (rng.integers(10**8, 10**9, 120) + 0.5) / 10.0 ** rng.integers(1, 13, 120)
    special = [0.0, np.inf, np.nan, 5e-324, 2.5e-310, 2.2250738585072014e-308,
               1e-5, 1.7976931348623157e308]
    pool = np.concatenate([crossings, powers, np.nextafter(powers, 0),
                           np.nextafter(powers, np.inf), ties, near, special])
    assert len(ties) > 100
    return np.concatenate([pool, -pool])


@pytest.mark.parametrize("rows", [CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                                  3 * CSV_BLOCK_ROWS + 17])
def test_write_csv_matches_g9_at_the_edges_of_fixed_notation(tmp_path, rows):
    pool = fixed_notation_edges()
    rng = np.random.default_rng(rows)
    columns = [np.resize(rng.permutation(pool), rows) for _ in range(3)]
    write_csv(tmp_path / "a.csv", ["a", "b", "c"], columns)
    lines = ["a,b,c"] + [",".join("%.9g" % v for v in row) for row in zip(*columns)]
    assert (tmp_path / "a.csv").read_bytes() == ("\r\n".join(lines) + "\r\n").encode()


def test_write_csv_header_only(tmp_path):
    write_csv(tmp_path / "a.csv", ["x", "y"], [np.array([]), np.array([])])
    assert (tmp_path / "a.csv").read_bytes() == b"x,y\r\n"


def test_write_csv_raises_on_ragged_input(tmp_path):
    path = tmp_path / "a.csv"
    with pytest.raises(LengthMismatch):
        SampleSet(components=np.ones((1, 3)), t1=np.ones(2), t=np.ones(2)).to_csv(path)
    x, y = np.ones(3), np.ones(2)
    for header, columns in [(["a"], [x, x]), (["a", "b", "c"], [x, x]),
                            (["a", "b"], [x, y]), (["a", "b"], [y, x]), ([], [])]:
        with pytest.raises(LengthMismatch):
            write_csv(path, header, columns)
    assert not path.exists()


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_to_csv_memory_is_bounded(tmp_path):
    rng = np.random.default_rng(44)
    size = 100_000
    s = SampleSet(components=rng.random((size, 3)), t1=rng.random(size),
                  t=rng.random(size))
    # blocks of 65,536 rows peak at about 50 MB here, 1,024-row blocks at 0.8 MB
    assert _traced_peak(s.to_csv, tmp_path / "big.csv") < 2_000_000
    assert (tmp_path / "big.csv").read_bytes().count(b"\r\n") == size + 1


# -- stacked coverage against the per-replication loop it replaced ------------

def oracle_coverage(k, replications, seed, offs, *, score="same", eval_draws=None,
                    exact_mu=False):
    """Reference: one replication at a time, each from its own child stream."""
    cov50 = np.empty(replications)
    cov90 = np.empty(replications)
    if isinstance(seed, np.random.SeedSequence):
        root = _copy(seed)
    else:
        root = np.random.SeedSequence(seed)
    for i, child in enumerate(root.spawn(replications)):
        rng = np.random.default_rng(child)
        X = -np.log(rng.random((k, 3)))
        t1 = X.min(axis=1)
        mu_hat = 1.0 if exact_mu else 3.0 * t1.mean()
        if score == "same":
            st1, st = t1, np.maximum(X[:, 0], np.minimum(X[:, 1], X[:, 2]))
        else:
            m = int(eval_draws) if eval_draws else k
            Y = -np.log(rng.random((m, 3)))
            st1 = Y.min(axis=1)
            st = np.maximum(Y[:, 0], np.minimum(Y[:, 1], Y[:, 2]))
        cov50[i] = np.mean(
            (st >= st1 + offs[0.75] * mu_hat) & (st <= st1 + offs[0.25] * mu_hat)
        )
        cov90[i] = np.mean(
            (st >= st1 + offs[0.95] * mu_hat) & (st <= st1 + offs[0.05] * mu_hat)
        )
    dd = 1 if replications > 1 else 0
    return CoverageReport(
        k=k,
        replications=replications,
        coverage50=float(cov50.mean()),
        se50=float(cov50.std(ddof=dd) / np.sqrt(replications)),
        coverage90=float(cov90.mean()),
        se90=float(cov90.std(ddof=dd) / np.sqrt(replications)),
    )


@pytest.fixture(scope="module")
def offsets():
    return montecarlo._interval_offsets()


@pytest.mark.parametrize("cells", [1, 100, montecarlo.COVERAGE_CELLS])
@pytest.mark.parametrize("k, replications, kwargs", [
    (5, 50, {}),
    (5, 50, {"score": "fresh"}),
    (4, 40, {"score": "fresh", "eval_draws": 9}),
    (9, 40, {"score": "fresh", "eval_draws": 2}),
    (25, 30, {"exact_mu": True}),
    (25, 30, {"score": "fresh", "eval_draws": 7, "exact_mu": True}),
    (1, 60, {}),
    (1, 60, {"score": "fresh", "eval_draws": 3}),
    (6, 1, {}),
    (6, 1, {"score": "fresh", "eval_draws": 4}),
    (2500, 23, {}),
])
def test_coverage_matches_per_replication_loop(monkeypatch, offsets, cells, k,
                                               replications, kwargs):
    # `cells` sets how many replications share a stacked block: one each,
    # a few, or as many as the shipped budget allows
    monkeypatch.setattr(montecarlo, "COVERAGE_CELLS", cells)
    got = montecarlo._coverage(k, replications, 61, offsets, **kwargs)
    assert got == oracle_coverage(k, replications, 61, offsets, **kwargs)


@pytest.mark.parametrize("cells", [1, 100, montecarlo.COVERAGE_CELLS])
@pytest.mark.parametrize("k, replications, kwargs", [
    (5, 50, {}),
    (4, 40, {"score": "fresh", "eval_draws": 9}),
    (25, 30, {"exact_mu": True}),
])
def test_coverage_matches_per_replication_loop_from_a_spawned_seed(
        monkeypatch, offsets, cells, k, replications, kwargs):
    # a SeedSequence seed, itself a spawned child that has spawned children
    monkeypatch.setattr(montecarlo, "COVERAGE_CELLS", cells)
    seq = np.random.SeedSequence(61, spawn_key=(3, 2**33), n_children_spawned=1000)
    got = montecarlo._coverage(k, replications, seq, offsets, **kwargs)
    assert seq.n_children_spawned == 1000
    assert got == oracle_coverage(k, replications, seq, offsets, **kwargs)


# -- child stream states against numpy's SeedSequence and PCG64 ----------------

def _numpy_child_states(seq, count):
    return [(s["state"], s["inc"])
            for s in (np.random.PCG64(c).state["state"] for c in _copy(seq).spawn(count))]


ENTROPY = (st.sampled_from([0, 2**32 - 1, 2**32]) | st.integers(0, 2**128 - 1)
           | st.lists(st.integers(0, 2**80), max_size=6))


@settings(max_examples=60, deadline=None)
@given(entropy=ENTROPY, spawn_key=st.lists(st.integers(0, 2**40), max_size=3),
       spawned=st.integers(0, 10**6), pool_size=st.sampled_from([4, 5, 8]),
       count=st.integers(1, 2000))
@example(entropy=2**32, spawn_key=[2**33], spawned=10**6, pool_size=4, count=2000)
@example(entropy=[0, 2**32 - 1], spawn_key=[], spawned=0, pool_size=4, count=1000)
@example(entropy=37, spawn_key=[], spawned=7, pool_size=8, count=50)
@example(entropy=[], spawn_key=[0], spawned=0, pool_size=8, count=50)
@example(entropy=[1, 2, 3, 4], spawn_key=[], spawned=0, pool_size=4, count=50)
@example(entropy=2**255 + 1, spawn_key=[3], spawned=1000, pool_size=8, count=50)
@example(entropy=[2**40, 3, 4, 5, 6], spawn_key=[], spawned=7, pool_size=4, count=50)
@example(entropy=2**300, spawn_key=[1, 2**33], spawned=0, pool_size=8, count=50)
def test_child_states_match_numpy(entropy, spawn_key, spawned, pool_size, count):
    seq = np.random.SeedSequence(entropy, spawn_key=tuple(spawn_key),
                                 pool_size=pool_size, n_children_spawned=spawned)
    assert montecarlo._child_states(seq, count) == _numpy_child_states(seq, count)
    assert seq.n_children_spawned == spawned


def test_child_states_stop_before_a_two_word_index():
    # child indices are one uint32 word up to 2^32 - 1; from 2^32 on numpy
    # hashes two words, which the vectorized hash does not take.  numpy's
    # own spawn loops forever when it reaches index 2^32 - 1 (its counter is
    # a uint32), so that child is built directly
    seq = np.random.SeedSequence(8, n_children_spawned=2**32 - 3)
    last = np.random.PCG64(np.random.SeedSequence(8, spawn_key=(2**32 - 1,))).state
    want = _numpy_child_states(seq, 2) + [(last["state"]["state"], last["state"]["inc"])]
    assert montecarlo._child_states(seq, 3) == want
    with pytest.raises(OutOfRange, match="2\\^32"):
        montecarlo._child_states(seq, 4)
    with pytest.raises(OutOfRange, match="2\\^32"):
        coverage_experiment(2, 4, seq)


def test_coverage_memory_is_bounded(offsets):
    # all 300 replications of k = 4000 in one block peak at about 89 MB,
    # blocks under the shipped cell budget at about 2 MB
    peak = _traced_peak(montecarlo._coverage, 4000, 300, 62, offsets)
    assert peak < 4_000_000
