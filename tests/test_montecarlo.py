import csv

import numpy as np
import pytest

from syspredict import (
    ClaytonPairCopula,
    EarlyFailurePredictor,
    FGMCopula,
    TwoFailurePredictor,
    coverage_experiment,
    coverage_table,
    empirical_conditional_check,
    sample_components,
    simulate,
    survival_uniforms,
    survival_uniforms_numeric,
    verify_ordering,
)
from syspredict.errors import (
    InsufficientBinCount,
    InvalidK,
    OrderingViolation,
    OutOfRange,
)


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
    with pytest.raises(OutOfRange):
        survival_uniforms_numeric(fgm1, np.random.random((10, 4)))


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


def test_simulate_errors(first3, relay, product3, exp1):
    with pytest.raises(OutOfRange):
        simulate(first3, relay, product3, exp1, size=0, seed=1)


def test_verify_ordering(first3, relay, gate, product3, exp1):
    strict_sample = simulate(first3, relay, product3, exp1, size=30000, seed=21)
    rep = verify_ordering(strict_sample, mode="strict")
    assert rep.ok and rep.violations == 0 and rep.tie_rows == 0
    rep.raise_if_violated()

    weak_sample = simulate(first3, gate, product3, exp1, size=30000, seed=22)
    weak = verify_ordering(weak_sample, mode="weak")
    assert weak.ok
    # the system dies at the first failure when component 1 goes first
    assert weak.tie_rows / weak.size == pytest.approx(1.0 / 3.0, abs=0.01)
    strict = verify_ordering(weak_sample, mode="strict")
    assert not strict.ok
    assert strict.violations == weak.tie_rows
    assert strict.fraction == pytest.approx(1.0 / 3.0, abs=0.01)
    with pytest.raises(OrderingViolation):
        strict.raise_if_violated()
    with pytest.raises(OutOfRange):
        verify_ordering(weak_sample, mode="sorted")


def test_empirical_conditional_check(first3, relay, product3, exp1):
    pred = EarlyFailurePredictor(first3, relay, product3, exp1, ordering="strict")
    sample = simulate(first3, relay, product3, exp1, size=200000, seed=31)
    y = np.linspace(0.31, 3.5, 25)
    check = empirical_conditional_check(sample, pred, (0.28, 0.34), y)
    assert check.rows >= 500
    assert check.deviation < 0.02, f"law deviates by {check.deviation}"
    with pytest.raises(InsufficientBinCount):
        empirical_conditional_check(sample, pred, (50.0, 50.1), y)


def test_empirical_check_alive_filter(first3, gate, product3, exp1):
    alive = EarlyFailurePredictor(
        first3, gate, product3, exp1, ordering="weak", require_alive=True
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


def test_coverage_table_stable_prefix():
    t1 = coverage_table([1, 5], 50, seed=9)
    t2 = coverage_table([1, 10], 50, seed=9)
    assert [r.k for r in t1] == [1, 5]
    assert t1[0].coverage50 == t2[0].coverage50
    assert t1[0].coverage90 == t2[0].coverage90


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
