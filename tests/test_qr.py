import math
import warnings

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
from syspredict import qr
from syspredict.errors import DegenerateDesign, OutOfRange
from syspredict.qr import load_xy

from qr_oracle import oracle_scan, scan

RELAY_MEDIAN = 0.5427656
RELAY_Q95 = 2.6258179  # offset of the 0.95 conditional quantile


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


def wide_designs():
    """(name, x, y, taus) beyond `oracle_designs`: tau n an integer at n = 400,
    scaled data, larger tied grids and lines collinear only to within rounding."""
    rng = np.random.default_rng(31)
    x = rng.uniform(0.0, 3.0, 400)
    yield "tau n integer, n=400", x, x + rng.exponential(1.0, 400), (0.25, 0.5, 0.75)
    for trial in range(12):
        x_scale, y_scale = 10.0 ** rng.uniform(-6.0, 6.0, 2)
        n = int(rng.integers(5, 60))
        x = rng.uniform(0.0, 3.0, n)
        y = (x + rng.exponential(1.0, n)) * y_scale
        yield f"scaled {trial}", x * x_scale, y, (0.25, 0.5, 0.9)
    for trial in range(4):
        x = rng.integers(-4, 5, 150).astype(float)
        y = np.where(rng.random(150) < 0.5, x, rng.integers(-4, 5, 150).astype(float))
        yield f"integer grid on y = x {trial}", x, y, (0.2, 0.5, 0.8)
    x = rng.integers(-3, 4, 100).astype(float)
    yield "ties on y = -x", x, -x + rng.integers(0, 2, 100), (0.3, 0.5)
    x = rng.choice(rng.uniform(0.0, 2.0, 20), 120)
    yield "duplicated x and y", x, rng.choice(rng.normal(0.0, 1.0, 15), 120), (0.25, 0.75)
    # equal losses on a whole face of lines: the tie-break picks the winner
    x = np.array([-0.5483848277695222, -0.5483848277695222, -0.5483848277695222,
                  -1.8161007476605722, 0.3153022177026181, -1.8161007476605722,
                  -0.5483848277695222, -0.5483848277695222, -1.8161007476605722,
                  -0.5483848277695222])
    y = np.array([-2.1667118419051206, 0.6030596795563314, 0.15546790250020248,
                  -1.2777842857736703, 0.10289648048905045, -3.593997535390608,
                  0.2311726469412081, -0.4267268542266885, -1.1586397989208508,
                  -1.7940660724423227])
    yield "flat optimal face", x, y, (1.0 / 3.0,)
    # y = x and y = -x tie in loss, |slope| and intercept: the earlier wins
    x = np.array([0.0, 0.0, 4.0, -4.0, 3.0, -3.0])
    yield "slopes 1 and -1 tie", x, np.array([0.0, 0.0, 4.0, 4.0, 4.0, 3.0]), (0.2,)
    for trial in range(3):
        # on y = x / 3 + 0.1 up to a few ulps: the pair slopes differ by ulps
        x = rng.uniform(1.0, 2.0, 80)
        y = x / 3.0 + 0.1
        y += rng.integers(-2, 3, 80) * np.spacing(y)
        yield f"collinear to within ulps {trial}", x, y, (0.25, 0.5)


def gate_design_sample(first3, gate, fgm1, exp1, size):
    # weak ordering: a third of the rows fail with component 1, so T1 = T
    s = simulate(first3, gate, fgm1, exp1, size=size, seed=42)
    return s.t1, s.t


def hex_fit(x, y, tau):
    fit = fit_lqr(np.column_stack([x, y]), tau)
    return [v.hex() for v in (fit.intercept, fit.slope, fit.loss)]


@pytest.mark.parametrize("tau", [0.1, 0.25, 0.5, 0.9])
def test_scan_matches_oracle_bitwise(tau):
    for name, x, y in oracle_designs():
        want = [float(v).hex() for v in oracle_scan(x, y, tau)]
        assert hex_fit(x, y, tau) == want, f"{name}, tau={tau}"
        assert [v.hex() for v in scan(x, y, tau)] == want, f"{name}, tau={tau}"


def test_fit_matches_both_oracles_on_wide_designs(first3, gate, fgm1, exp1):
    designs = list(wide_designs())
    t1, t = gate_design_sample(first3, gate, fgm1, exp1, 400)
    assert np.sum(t1 == t) > 100
    designs.append(("gate design, n=400", t1, t, (0.25, 0.5, 0.75)))
    for name, x, y, taus in designs:
        for tau in taus:
            want = [float(v).hex() for v in oracle_scan(x, y, tau)]
            assert [v.hex() for v in scan(x, y, tau)] == want, f"{name}, tau={tau}"
            assert hex_fit(x, y, tau) == want, f"{name}, tau={tau}"


def test_fit_matches_scan_on_relay_sample(relay_sample):
    x, y = relay_sample[:, 0], relay_sample[:, 1]
    assert hex_fit(x, y, 0.5) == [v.hex() for v in scan(x, y, 0.5)]


def tied_design(kind):
    rng = np.random.default_rng(8)
    if kind == "y = x":
        # 400 of 1000 points exactly on y = x, the 0.25 line: the old scan
        # summed all C(400, 2) pair lines through them directly
        x = rng.uniform(0.0, 3.0, 1000)
        return x, x + np.where(np.arange(1000) % 5 < 2, 0.0, rng.exponential(1.0, 1000)), 0.25
    # y in {0, 1, 2}: the median line is y = 1, and every step of the slope
    # bisection is a tiny slope, none far enough out to bound the window
    x = rng.uniform(0.0, 3.0, 600)
    return x, rng.choice([0.0, 1.0, 2.0], 600, p=[0.3, 0.4, 0.3]), 0.5


@pytest.mark.parametrize("kind, line", [("y = x", (0.0, 1.0)), ("discrete y", (1.0, 0.0))])
def test_exact_ties_are_summed_once(monkeypatch, kind, line):
    x, y, tau = tied_design(kind)
    summed = []

    def counting(x, y, tau, a_blk, b_blk):
        summed.append(a_blk.size)
        return best_in_block(x, y, tau, a_blk, b_blk)

    best_in_block = qr._best_in_block
    monkeypatch.setattr(qr, "_best_in_block", counting)
    fit = fit_lqr(np.column_stack([x, y]), tau)
    assert (fit.intercept, abs(fit.slope)) == line
    assert sum(summed) <= 5
    monkeypatch.undo()
    assert hex_fit(x, y, tau) == [v.hex() for v in scan(x, y, tau)]


@pytest.mark.parametrize("n", [100, 5_000, 300_000])
def test_row_sums_meet_the_depth_bound(n):
    # the error window assumes numpy sums a row pairwise: a sum that added
    # these terms one by one would lose every u after the leading 1
    u = np.finfo(float).eps / 2
    row = np.full(n, u)
    row[0] = 1.0
    exact = math.fsum(row)
    for total in (row.sum(), np.sum(np.vstack([row, row]), axis=1)[1]):
        assert abs(total - exact) <= qr._depth(n) * u * exact


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
    # a slope of 1e300 / 1e-300 overflows
    with pytest.raises(DegenerateDesign, match="^the sample's pair slopes overflow its residuals$"):
        fit_lqr([(0.0, 0.0), (1e-300, 1e300), (1.0, 0.0)], 0.5)
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


def test_optimality_count_condition_at_large_n():
    n = 100_000
    rng = np.random.default_rng(9)
    x = rng.uniform(0.0, 3.0, n)
    y = rng.normal(1.0 + x, 1.0)
    for tau in (0.25, 0.5):
        fit = fit_lqr(np.column_stack([x, y]), tau)
        resid = y - fit.intercept - fit.slope * x
        below = int(np.sum(resid < -1e-9))
        on = int(np.sum(np.abs(resid) <= 1e-9))
        assert on >= 2
        assert below <= tau * n <= below + on


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


def test_ols_raises_where_its_sums_overflow():
    base = np.array([(1.0, 1.0), (2.0, 2.5), (3.0, 2.9)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_ols(base * 1e150)
        assert fit.slope == pytest.approx(0.95, rel=1e-12)
        assert fit.loss == pytest.approx(2.0166666666666667e299, rel=1e-12)
        # (x - xm)^2 overflows at 1e160, where the exact fit still answers
        with pytest.raises(DegenerateDesign, match="overflows"):
            fit_ols(base * 1e160)
        assert fit_lqr(base * 1e160, 0.5).slope == pytest.approx(0.95, rel=1e-12)


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
