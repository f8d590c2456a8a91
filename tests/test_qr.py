import numpy as np
import pytest

from syspredict import (
    FittedLine,
    detect_crossings,
    fit_lqr,
    fit_ols,
    pinball_loss,
    simulate,
)
from syspredict.errors import DegenerateDesign, OutOfRange
from syspredict.qr import load_xy

RELAY_MEDIAN = 0.5427656
RELAY_Q95 = 2.6258179  # offset of the 0.95 conditional quantile


def oracle_scan(x, y, tau):
    """Reference O(n^3) scan: every candidate line, its loss summed directly.

    Candidates are the lines through (x_i, y_i), (x_j, y_j) for i < j in
    lexicographic order, then the horizontal line through each point; the
    winner is the first in (loss, |slope|, intercept) order.
    """
    n = x.size
    ii, jj = np.triu_indices(n, k=1)
    dx = x[jj] - x[ii]
    keep = dx != 0.0
    ii, jj, dx = ii[keep], jj[keep], dx[keep]
    pair_b = (y[jj] - y[ii]) / dx
    a = np.concatenate([y[ii] - pair_b * x[ii], y])
    b = np.concatenate([pair_b, np.zeros(n)])
    loss = np.empty(a.size)
    for start in range(0, a.size, 2048):
        blk = slice(start, start + 2048)
        resid = y[None, :] - a[blk, None] - b[blk, None] * x[None, :]
        loss[blk] = np.sum(resid * (tau - (resid < 0.0)), axis=1)
    k = np.lexsort((a, np.abs(b), loss))[0]
    return a[k], b[k], loss[k]


def oracle_designs():
    rng = np.random.default_rng(12)
    for n in (3, 4, 10, 40, 120, 200):
        x = rng.uniform(0.0, 4.0, n)
        yield f"random n={n}", x, rng.normal(1.0 + x, 1.5)
    for trial in range(40):
        n = int(rng.integers(3, 20))
        x = rng.integers(0, 5, n).astype(float)
        x[:2] = 0.0, 1.0
        yield f"integer ties {trial}", x, rng.integers(-3, 4, n).astype(float)
    for trial in range(30):
        n = int(rng.integers(4, 40))
        x = rng.choice(rng.uniform(-2.0, 2.0, max(2, n // 3)), n)
        x[:2] = -2.5, 2.5
        yield f"duplicated x {trial}", x, x + rng.normal(0.0, 1.0, n)
    x = rng.permutation(np.linspace(-1.0, 3.0, 60))
    yield "collinear", x, 2.5 * x - 0.7


@pytest.fixture(scope="module")
def relay_sample(first3, relay, product3, exp1):
    s = simulate(first3, relay, product3, exp1, size=2000, seed=20)
    return np.column_stack([s.t1, s.t])


def test_exact_line_interpolation():
    t = np.linspace(0.0, 3.0, 40)
    pairs = np.column_stack([t, t + RELAY_MEDIAN])
    fit = fit_lqr(pairs, 0.5)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(RELAY_MEDIAN, abs=1e-12)
    assert fit.loss == pytest.approx(0.0, abs=1e-12)
    assert fit.tau == 0.5


def test_tie_break_rule():
    # all candidate lines tie at loss 1; the rule picks the flattest, lowest
    pairs = [(0.0, 0.0), (1.0, 1.0), (1.0, -1.0)]
    fit = fit_lqr(pairs, 0.5)
    assert (fit.intercept, fit.slope) == (0.0, 0.0)
    assert fit.loss == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("tau", [0.1, 0.25, 0.5, 0.9])
def test_scan_matches_oracle_bitwise(tau):
    for name, x, y in oracle_designs():
        fit = fit_lqr(np.column_stack([x, y]), tau)
        got = [v.hex() for v in (fit.intercept, fit.slope, fit.loss)]
        want = [float(v).hex() for v in oracle_scan(x, y, tau)]
        assert got == want, f"{name}, tau={tau}"


def test_tau_validation():
    pairs = [(0.0, 0.0), (1.0, 1.0), (2.0, 1.5)]
    with pytest.raises(OutOfRange):
        fit_lqr(pairs, 0.0)
    with pytest.raises(OutOfRange):
        fit_lqr(pairs, 1.0)


def test_degenerate_designs():
    with pytest.raises(DegenerateDesign):
        fit_lqr([(1.0, 2.0)], 0.5)
    with pytest.raises(DegenerateDesign):
        fit_lqr([(1.0, 2.0), (1.0, 3.0), (1.0, 4.0)], 0.5)
    with pytest.raises(DegenerateDesign):
        fit_ols([(2.0, 1.0), (2.0, 5.0)])
    for bad in (np.nan, np.inf, -np.inf):
        for pairs in ([(0.0, 1.0), (1.0, bad), (2.0, 3.0)],
                      [(0.0, 1.0), (bad, 2.0), (2.0, 3.0)]):
            with pytest.raises(DegenerateDesign, match="finite"):
                fit_lqr(pairs, 0.5)
            with pytest.raises(DegenerateDesign, match="finite"):
                fit_ols(pairs)


def test_pinball_loss_hand_values():
    pairs = [(0.0, 0.0), (1.0, 1.0)]
    assert pinball_loss(pairs, 0.0, 0.0, 0.3) == pytest.approx(0.3)
    assert pinball_loss(pairs, 0.0, 0.0, 0.7) == pytest.approx(0.7)
    assert pinball_loss(pairs, 1.0, 0.0, 0.25) == pytest.approx(
        0.75, abs=1e-12
    ), "residual -1 weighs (1 - tau)"
    assert pinball_loss(pairs, 0.0, 1.0, 0.5) == 0.0


def test_grid_search_never_beats_scan():
    rng = np.random.default_rng(6)
    for trial in range(25):
        n = int(rng.integers(3, 13))
        x = rng.uniform(0.0, 2.0, n)
        x[1] = x[0] + 0.5  # ensure two distinct abscissae
        y = rng.normal(0.5 + 0.8 * x, 0.7)
        pairs = np.column_stack([x, y])
        tau = float(rng.choice([0.2, 0.5, 0.8]))
        fit = fit_lqr(pairs, tau)
        a_grid = np.linspace(y.min() - 1.0, y.max() + 1.0, 220)
        b_grid = np.linspace(-5.0, 5.0, 220)
        resid = y[None, None, :] - a_grid[:, None, None] - b_grid[None, :, None] * x
        losses = np.sum(resid * (tau - (resid < 0.0)), axis=2)
        assert losses.min() >= fit.loss - 1e-9, (
            f"grid beat the scan on trial {trial}: {losses.min()} < {fit.loss}"
        )


def test_optimality_count_condition():
    # at the optimum the subgradient straddles zero:
    # (#below) <= tau*n <= (#below + #on)
    rng = np.random.default_rng(7)
    for trial in range(30):
        n = int(rng.integers(5, 60))
        x = rng.uniform(0.0, 3.0, n)
        x[1] = x[0] + 1.0
        y = rng.normal(1.0 + x, 1.0)
        pairs = np.column_stack([x, y])
        for tau in (0.25, 0.5, 0.9):
            fit = fit_lqr(pairs, tau)
            resid = y - fit.intercept - fit.slope * x
            below = int(np.sum(resid < -1e-9))
            on = int(np.sum(np.abs(resid) <= 1e-9))
            assert below <= tau * n + 1e-9, f"below={below}, tau*n={tau * n}"
            assert tau * n <= below + on + 1e-9, f"below+on={below + on}"


def test_relay_sample_recovers_median_line(relay_sample):
    fit = fit_lqr(relay_sample, 0.5)
    assert 0.95 <= fit.slope <= 1.05
    assert 0.49 <= fit.intercept <= 0.60
    hi = fit_lqr(relay_sample, 0.95)
    assert hi.intercept == pytest.approx(RELAY_Q95, abs=0.5)
    assert hi.intercept > fit.intercept


def test_relay_sample_ols(relay_sample):
    fit = fit_ols(relay_sample)
    assert fit.tau is None
    assert fit.slope == pytest.approx(1.0, abs=0.05)
    assert fit.intercept == pytest.approx(5.0 / 6.0, abs=0.05)
    # normal-equations residual: gradient of the SSR vanishes
    x, y = relay_sample[:, 0], relay_sample[:, 1]
    resid = y - fit.intercept - fit.slope * x
    assert abs(resid.sum()) < 1e-10 * len(x)
    assert abs((resid * x).sum()) < 1e-10 * len(x) * max(1.0, np.abs(x).max())


def test_ols_exact_line():
    t = np.linspace(0.0, 5.0, 30)
    fit = fit_ols(np.column_stack([t, 2.0 * t - 1.0]))
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(-1.0, abs=1e-12)
    assert fit.loss == pytest.approx(0.0, abs=1e-12)


def test_detect_crossings():
    lines = [
        FittedLine(intercept=0.0, slope=1.0, loss=0.0, tau=0.25),
        FittedLine(intercept=1.0, slope=0.0, loss=0.0, tau=0.75),
    ]
    assert detect_crossings(lines, 0.0, 0.9) == []
    assert detect_crossings(lines, 0.0, 2.0) == [(0.25, 0.75)]
    # least-squares entries carry no tau and are ignored
    lines.append(FittedLine(intercept=5.0, slope=-3.0, loss=1.0))
    assert detect_crossings(lines, 0.0, 0.9) == []
    ordered = [
        FittedLine(intercept=0.1 * i, slope=1.0, loss=0.0, tau=t)
        for i, t in enumerate((0.05, 0.5, 0.95))
    ]
    assert detect_crossings(ordered, 0.0, 100.0) == []


def test_load_xy(tmp_path, first3, relay, product3, exp1):
    s = simulate(first3, relay, product3, exp1, size=40, seed=3)
    path = tmp_path / "sample.csv"
    s.to_csv(path)
    pairs = load_xy(path)
    assert pairs.shape == (40, 2)
    np.testing.assert_allclose(pairs[:, 0], s.t1, rtol=1e-8)
    np.testing.assert_allclose(pairs[:, 1], s.t, rtol=1e-8)
    x1 = load_xy(path, x_col="x1", y_col="x2")
    np.testing.assert_allclose(x1[:, 0], s.components[:, 0], rtol=1e-8)
    with pytest.raises(DegenerateDesign):
        load_xy(path, x_col="t9")


def test_load_xy_reads_named_columns(tmp_path):
    # columns in any order, extra columns, CRLF row ends and an empty line
    path = tmp_path / "sample.csv"
    path.write_bytes(b"t,x1,t1\r\n1.5,9,0.5\r\n\r\n2.5,8,1e-3\r\n")
    np.testing.assert_array_equal(load_xy(path), [[0.5, 1.5], [1e-3, 2.5]])
    path.write_text("t1,t\n")
    assert load_xy(path).shape == (0, 2)


@pytest.mark.parametrize("text, line", [
    ("t1,t\n0.1,0.6\n0.2,abc\n", 3),  # non-numeric cell
    ("t1,t\n0.1,0.6\n\n0.2,0.7\n0.3\n", 5),  # short row after an empty line
    ("x,t1,t\n1,0.1,0.6\n2,0.2,\n", 3),  # empty cell
    ("t1,t,x\n0.1,0.6,a\n0.2,0.7\n 0.3 ,#\n", 4),  # a comment sign is no number
])
def test_load_xy_rejects_bad_rows(tmp_path, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DegenerateDesign, match=f"^line {line}: columns 't1' and 't' must hold numbers$"):
        load_xy(path)
