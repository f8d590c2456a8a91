"""End-to-end acceptance checks.

Each test exercises one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line on the real stdout (in addition to failing the
normal pytest way), so a full run yields a one-line verdict per criterion.
"""
import json
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from syspredict import (
    BivariateDistortion,
    TwoFailurePredictor,
    EarlyFailurePredictor,
    TrivariateDistortion,
    UnivariateDistortion,
    coverage_experiment,
    coverage_table,
    empirical_conditional_check,
    fit_lqr,
    kofn_quantile_factor,
    simulate,
    system_mean,
)
from syspredict.cli import main


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL", file=sys.__stdout__, flush=True)
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS", file=sys.__stdout__, flush=True)


def max_abs(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# -- 1: generic distortion construction matches the closed forms -------------

def test_acceptance_1_golden_distortions(
    first3, relay, gate, parallel3, two_of_three, product3, fgm1, clayton23, exp1
):
    eps = 1e-12
    g = np.linspace(0.005, 0.995, 100)
    U, V = np.meshgrid(g, g, indexing="ij")
    ord_mask = V <= U

    def check_pair(dist, q_ref, ordered_ref, tail_ref, d1_ord_ref, d1_tail_ref):
        assert max_abs(dist[0].value(g), q_ref(g)) < eps
        want = np.where(ord_mask, ordered_ref(U, V), tail_ref(U, V))
        assert max_abs(dist[1].value(U, V), want) < eps
        uo, vo = U[ord_mask], V[ord_mask]
        ut, vt = U[~ord_mask], V[~ord_mask]
        assert max_abs(dist[1].d1(uo, vo), d1_ord_ref(uo, vo)) < eps
        assert max_abs(dist[1].d1(ut, vt), d1_tail_ref(ut, vt)) < eps

    with criterion(1, "golden distortions"):
        th = 1.0
        check_pair(
            (UnivariateDistortion(relay, product3),
             BivariateDistortion(first3, relay, product3)),
            lambda u: u + u * u - u ** 3,
            lambda u, v: u * u * v + u * v * v - v ** 3,
            lambda u, v: u ** 3,
            lambda u, v: 2 * u * v + v * v,
            lambda u, v: 3 * u * u,
        )
        check_pair(
            (UnivariateDistortion(gate, product3),
             BivariateDistortion(first3, gate, product3)),
            lambda u: 2 * u * u - u ** 3,
            lambda u, v: 2 * u * v * v - v ** 3,
            lambda u, v: u ** 3,
            lambda u, v: 2 * v * v,
            lambda u, v: 3 * u * u,
        )
        check_pair(
            (UnivariateDistortion(gate, fgm1),
             BivariateDistortion(first3, gate, fgm1)),
            lambda u: 2 * u * u - u ** 3 - th * u ** 3 * (1 - u) ** 3,
            lambda u, v: (2 * u * v * v + 2 * th * (u - u * u) * (v - v * v) ** 2
                          - v ** 3 - th * (v - v * v) ** 3),
            lambda u, v: u ** 3 + th * (u - u * u) ** 3,
            lambda u, v: 2 * v * v + 2 * th * (1 - 2 * u) * v * v * (1 - v) ** 2,
            lambda u, v: 3 * u * u + 3 * th * (u - u * u) ** 2 * (1 - 2 * u),
        )

        # dependent pair: joint survival of (first failure, system) through
        # the exponential marginal on a 50x50 time grid
        d_cl = BivariateDistortion(first3, relay, clayton23)
        xs = np.linspace(0.0, 3.0, 50)
        for x in xs:
            ys = np.linspace(x, x + 4.0, 50)
            u, v = exp1.sf(x), exp1.sf(ys)
            want = u * v / (2 - u) + (u * v - v * v) / (2 - v)
            assert max_abs(d_cl.value(np.full_like(v, u), v), want) < eps

        # exchangeable triple: the 13-term construction collapses to the
        # 4-term symmetric combination of copula values
        tri = TrivariateDistortion(first3, two_of_three, parallel3, fgm1)
        pts = np.linspace(0.03, 0.97, 17)
        W3, V3, U3 = np.meshgrid(pts, pts, pts, indexing="ij")
        keep = (W3 <= V3) & (V3 <= U3)
        u3, v3, w3 = U3[keep], V3[keep], W3[keep]

        def C(*cols):
            return fgm1.eval(np.stack(cols, axis=-1))

        want = (6 * C(u3, v3, w3) - 3 * C(v3, v3, w3)
                - 3 * C(u3, w3, w3) + C(w3, w3, w3))
        assert max_abs(tri.value(u3, v3, w3), want) < eps


# -- 2: golden prediction constants -------------------------------------------

def test_acceptance_2_golden_constants(
    first3, relay, gate, parallel3, two_of_three, product3, fgm1, clayton23, exp1
):
    with criterion(2, "golden constants"):
        tol = 1e-6
        means = {
            "series-or-pair, independent": (
                system_mean(relay, product3, exp1), 1.1666667),
            "series-or-pair, dependent pair": (
                system_mean(relay, clayton23, exp1), 1.306853),
            "gated pair, independent": (
                system_mean(gate, product3, exp1), 2.0 / 3.0),
            "gated pair, symmetric dependence": (
                system_mean(gate, fgm1, exp1), 0.65),
            "parallel triple, symmetric dependence": (
                system_mean(parallel3, fgm1, exp1), 1.85),
        }
        for name, (got, want) in means.items():
            assert got == pytest.approx(want, abs=tol), f"E(T) for {name}"

        relay_strict = EarlyFailurePredictor(
            first3, relay, product3, exp1, ordering="strict")
        gate_weak = EarlyFailurePredictor(
            first3, gate, product3, exp1, ordering="weak")
        gate_alive = EarlyFailurePredictor(
            first3, gate, product3, exp1, ordering="weak", require_alive=True)
        gate_fgm = EarlyFailurePredictor(
            first3, gate, fgm1, exp1, ordering="weak")

        assert relay_strict.median(0.0) == pytest.approx(0.5427656, abs=tol)
        assert gate_weak.median(0.0) == pytest.approx(0.143841, abs=tol)
        assert gate_alive.median(0.0) == pytest.approx(0.3465736, abs=tol)
        assert relay_strict.mean(0.0) == pytest.approx(5.0 / 6.0, abs=tol)
        assert gate_weak.mean(0.0) == pytest.approx(1.0 / 3.0, abs=tol)
        assert gate_alive.mean(0.0) == pytest.approx(0.5, abs=tol)
        assert gate_weak.band("bottom", 0.90).upper(0.0) == pytest.approx(
            0.94856, abs=tol)
        assert gate_weak.alpha(0.7) == pytest.approx(2.0 / 3.0, abs=tol)
        assert gate_fgm.alpha(0.7) == pytest.approx(2.0 / 3.0, abs=tol)
        assert kofn_quantile_factor(10, 2, 5, 0.5) == pytest.approx(
            0.679481, abs=tol)

        # point predictions quoted at three decimals
        two = TwoFailurePredictor(first3, two_of_three, parallel3, fgm1, exp1)
        t1, t2 = 0.4632196, 0.6899807
        assert two.median(t1, t2) == pytest.approx(1.383333, abs=1e-3)
        b90 = two.band("centered", 0.90)
        assert b90.lower(t1, t2) == pytest.approx(0.7412945, abs=1e-3)
        assert b90.upper(t1, t2) == pytest.approx(3.686103, abs=1e-3)

        par_strict = EarlyFailurePredictor(
            first3, parallel3, fgm1, exp1, ordering="strict")
        assert par_strict.median(t1) == pytest.approx(1.6585, abs=1e-3)
        p90 = par_strict.band("centered", 0.90)
        assert p90.lower(t1) == pytest.approx(0.7117, abs=1e-3)
        assert p90.upper(t1) == pytest.approx(4.0781, abs=1e-3)


# -- 3: plug-in coverage experiment -------------------------------------------

def test_acceptance_3_coverage_table():
    published = {
        1: (0.36327, 0.71278),
        5: (0.46193, 0.85889),
        10: (0.48125, 0.87922),
        25: (0.49396, 0.89131),
        50: (0.49748, 0.89591),
        100: (0.49877, 0.89739),
    }
    with criterion(3, "coverage table"):
        reports = coverage_table(sorted(published), replications=1000, seed=37)
        for rep in reports:
            want50, want90 = published[rep.k]
            print(f"k={rep.k:>3}  cov50={rep.coverage50:.5f} (ref {want50})"
                  f"  cov90={rep.coverage90:.5f} (ref {want90})")
            assert abs(rep.coverage50 - want50) < 0.02, f"coverage50 at k={rep.k}"
            assert abs(rep.coverage90 - want90) < 0.02, f"coverage90 at k={rep.k}"
        anchor = coverage_experiment(25, 1000, seed=41, exact_mu=True)
        assert abs(anchor.coverage50 - 0.50) < 0.01, "known-mean 50% anchor"
        assert abs(anchor.coverage90 - 0.90) < 0.01, "known-mean 90% anchor"


# -- 4: analytic partial derivatives vs finite differences --------------------

def test_acceptance_4_derivative_oracles(
    first3, relay, gate, parallel3, two_of_three, product3, fgm1, clayton23
):
    rtol = 1e-5
    rng = np.random.default_rng(2024)
    pts = rng.uniform(0.10, 0.90, size=(100, 3))
    orders = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]

    with criterion(4, "derivative oracles"):
        for cop in (product3, fgm1, clayton23):
            for p in pts:
                for order in orders:
                    got = cop.partial(order, p)
                    ref = cop.fd_partial(order, p)
                    assert got == pytest.approx(ref, rel=rtol, abs=1e-9), (
                        f"{type(cop).__name__} order {order} at {p}")

        designs = [
            BivariateDistortion(first3, relay, product3),
            BivariateDistortion(first3, gate, fgm1),
            BivariateDistortion(first3, relay, clayton23),
        ]
        u = rng.uniform(0.30, 0.90, 100)
        v_ord = u * rng.uniform(0.15, 0.80, 100)
        v_tail = u + (0.98 - u) * rng.uniform(0.15, 0.90, 100)
        h1, h2 = 1e-6, 1e-4
        for d in designs:
            fd1 = (d.value(u + h1, v_ord) - d.value(u - h1, v_ord)) / (2 * h1)
            assert np.allclose(
                d.d1(u, v_ord), fd1, rtol=rtol, atol=1e-8)
            fd1t = (d.value(u + h1, v_tail) - d.value(u - h1, v_tail)) / (2 * h1)
            assert np.allclose(
                d.d1(u, v_tail), fd1t, rtol=rtol, atol=1e-8)
            fd12 = (d.value(u + h2, v_ord + h2) - d.value(u + h2, v_ord - h2)
                    - d.value(u - h2, v_ord + h2)
                    + d.value(u - h2, v_ord - h2)) / (4 * h2 * h2)
            assert np.allclose(d.d12(u, v_ord), fd12, rtol=rtol, atol=1e-7)

        tri = TrivariateDistortion(first3, two_of_three, parallel3, fgm1)
        ut = rng.uniform(0.55, 0.95, 100)
        vt = ut - rng.uniform(0.12, 0.25, 100)
        wt = vt - rng.uniform(0.12, 0.25, 100)
        fd12 = (tri.value(ut + h2, vt + h2, wt) - tri.value(ut + h2, vt - h2, wt)
                - tri.value(ut - h2, vt + h2, wt)
                + tri.value(ut - h2, vt - h2, wt)) / (4 * h2 * h2)
        assert np.allclose(tri.d12(ut, vt, wt), fd12, rtol=rtol, atol=1e-7)


# -- 5: simulated conditional laws match the analytic ones ---------------------

def test_acceptance_5_monte_carlo_laws(
    first3, relay, gate, parallel3, two_of_three, product3, fgm1, clayton23, exp1
):
    n = 1_000_000
    bin1 = (0.28, 0.34)
    y1 = np.linspace(0.36, 3.6, 12)
    bin2 = ((0.40, 0.53), (0.64, 0.74))
    y2 = np.linspace(0.76, 4.5, 12)

    with criterion(5, "simulated conditional laws"):
        # one observed failure, strictly earlier than the system failure
        for seed, cop in ((101, product3), (102, clayton23)):
            s = simulate(first3, relay, cop, exp1, size=n, seed=seed)
            pred = EarlyFailurePredictor(first3, relay, cop, exp1,
                                         ordering="strict")
            chk = empirical_conditional_check(s, pred, bin1, y1)
            print(f"relay {type(cop).__name__}: rows={chk.rows} "
                  f"deviation={chk.deviation:.4f}")
            assert chk.deviation < 0.02

        # one observed failure that may kill the system: with and without
        # conditioning on survival, plus the size of the atom
        for seed, cop in ((103, product3), (104, fgm1)):
            s = simulate(first3, gate, cop, exp1, size=n, seed=seed)
            for alive in (False, True):
                pred = EarlyFailurePredictor(first3, gate, cop, exp1,
                                             ordering="weak",
                                             require_alive=alive)
                chk = empirical_conditional_check(s, pred, bin1, y1)
                print(f"gate {type(cop).__name__} alive={alive}: "
                      f"rows={chk.rows} deviation={chk.deviation:.4f}")
                assert chk.deviation < 0.02
            atom = float(np.mean(s.t == s.t1))
            assert atom == pytest.approx(1.0 / 3.0, abs=0.005), (
                f"simultaneous-failure share {atom}")

        # two observed failures
        for seed, cop in ((105, product3), (106, fgm1)):
            s = simulate(first3, parallel3, cop, exp1, size=n, seed=seed,
                         second=two_of_three)
            pred = TwoFailurePredictor(first3, two_of_three, parallel3, cop,
                                       exp1)
            chk = empirical_conditional_check(s, pred, bin2[0], y2,
                                              t2_bin=bin2[1])
            print(f"triple {type(cop).__name__}: rows={chk.rows} "
                  f"deviation={chk.deviation:.4f}")
            assert chk.deviation < 0.02


# -- 6: structural identities --------------------------------------------------

def test_acceptance_6_structural_properties(
    first3, relay, gate, parallel3, two_of_three, product3, fgm1, exp1
):
    from syspredict import FGMCopula

    with criterion(6, "structural properties"):
        relay_strict = EarlyFailurePredictor(
            first3, relay, product3, exp1, ordering="strict")
        gate_weak = EarlyFailurePredictor(
            first3, gate, product3, exp1, ordering="weak")
        gate_alive = EarlyFailurePredictor(
            first3, gate, product3, exp1, ordering="weak", require_alive=True)
        two_fgm = TwoFailurePredictor(
            first3, two_of_three, parallel3, fgm1, exp1)

        # quantile and survival invert each other
        t = 0.45
        for pred, cond, levels in (
            (relay_strict, (t,), (0.05, 0.25, 0.5, 0.75, 0.95)),
            (gate_weak, (t,), (0.05, 0.25, 0.5, 0.6)),
            (gate_alive, (t,), (0.05, 0.25, 0.5, 0.75, 0.95)),
            (two_fgm, (0.3, 0.55), (0.05, 0.25, 0.5, 0.75, 0.95)),
        ):
            for w in levels:
                y = pred.quantile(w, *cond)
                assert abs(pred.survival(y, *cond) - w) < 1e-8, (
                    f"inversion at w={w} for {pred!r}")

        # zero-dependence copula reduces to the product everywhere
        fgm0 = FGMCopula(theta=0.0, n=3)
        g = np.linspace(0.05, 0.95, 15)
        U, V = np.meshgrid(g, g, indexing="ij")
        pts = np.stack([U.ravel(), V.ravel(), np.full(U.size, 0.5)], axis=-1)
        assert np.max(np.abs(fgm0.eval(pts) - product3.eval(pts))) < 1e-12
        gw0 = EarlyFailurePredictor(first3, gate, fgm0, exp1, ordering="weak")
        y = np.linspace(0.5, 3.0, 9)
        assert np.max(np.abs(gw0.survival(y, t) - gate_weak.survival(y, t))) < 1e-12
        two0 = TwoFailurePredictor(
            first3, two_of_three, parallel3, fgm0, exp1)
        two_prod = TwoFailurePredictor(
            first3, two_of_three, parallel3, product3, exp1)
        y2 = np.linspace(0.7, 4.0, 9)
        assert np.max(np.abs(two0.survival(y2, 0.3, 0.55)
                             - two_prod.survival(y2, 0.3, 0.55))) < 1e-12

        # independent components: the two-failure law forgets the first time
        vals = np.stack([np.asarray(two_prod.survival(y2, t1, 0.55))
                         for t1 in (0.05, 0.2, 0.4, 0.54)])
        assert np.max(vals.max(axis=0) - vals.min(axis=0)) < 1e-12
        assert np.max(np.abs(vals[0] - exp1.sf(y2) / exp1.sf(0.55))) < 1e-12

        # memoryless marginal: quantile curves are parallel lines
        for pred in (relay_strict, gate_weak, gate_alive):
            for w in (0.25, 0.5):
                qs = np.asarray(pred.quantile(w, np.array([0.0, 0.4, 1.1, 2.3])))
                offs = qs - np.array([0.0, 0.4, 1.1, 2.3])
                assert np.max(offs) - np.min(offs) < 1e-10


# -- 7: exact quantile regression ----------------------------------------------

def test_acceptance_7_qr_exactness(first3, relay, product3, exp1):
    from syspredict import pinball_loss

    with criterion(7, "quantile regression exactness"):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(3, 13))
            x = rng.uniform(0.0, 3.0, n)
            y = rng.uniform(0.0, 3.0, n) + rng.normal(0.0, 0.5, n)
            tau = float(rng.choice((0.25, 0.5, 0.9)))
            pairs = np.column_stack([x, y])
            fit = fit_lqr(pairs, tau)
            b_grid = np.linspace(y.min() - 2.0, y.max() + 2.0, 220)
            a_grid = np.linspace(-3.0, 3.0, 220)
            # pinball loss of every (intercept b, slope a) grid line at once
            resid = y - b_grid[:, None, None] - a_grid[None, :, None] * x
            losses = np.sum(resid * (tau - (resid < 0.0)), axis=-1)
            i, j = np.unravel_index(np.argmin(losses), losses.shape)
            best = losses[i, j]
            assert abs(best - pinball_loss(pairs, b_grid[i], a_grid[j], tau)) < 1e-12
            assert best >= fit.loss - 1e-9, (
                f"grid beat the exact fit on trial {trial}")

        s = simulate(first3, relay, product3, exp1, size=2000, seed=20)
        fit = fit_lqr(np.column_stack([s.t1, s.t]), 0.5)
        print(f"median line: intercept={fit.intercept:.4f} slope={fit.slope:.4f}")
        assert abs(fit.slope - 1.0) < 0.05
        assert abs(fit.intercept - 0.5427656) < 0.06


# -- 8: CLI determinism ----------------------------------------------------------

def test_acceptance_8_cli_determinism(tmp_path, capsys):
    relay_doc = {
        "mode": "strict",
        "structures": {"first": {"n": 3, "paths": [[1, 2, 3]]},
                       "system": {"n": 3, "paths": [[1], [2, 3]]}},
        "copula": {"family": "fgm", "n": 3, "theta": 1.0},
        "marginal": {"family": "exponential", "mean": 1.0},
        "grid": {"start": 0.0, "stop": 2.0, "count": 9},
        "point": {"t1": 0.4},
        "size": 400,
        "seed": 11,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(relay_doc))
    cov_doc = {"coverage": {"k": [1, 4], "replications": 30}, "seed": 5}
    cov_cfg = tmp_path / "cov.json"
    cov_cfg.write_text(json.dumps(cov_doc))

    def run(args):
        assert main(args) == 0
        return capsys.readouterr().out

    with criterion(8, "CLI determinism"):
        outputs = {}
        for rep in ("a", "b"):
            sim = tmp_path / f"sim_{rep}.csv"
            run(["simulate", "--config", str(cfg), "--out", str(sim)])

            fit_doc = {"fitqr": {"sample": str(sim), "taus": [0.25, 0.5, 0.75],
                                 "ols": True}}
            fit_cfg = tmp_path / f"fit_{rep}.json"
            fit_cfg.write_text(json.dumps(fit_doc))

            files = {"simulate": sim}
            files["curves"] = tmp_path / f"curves_{rep}.csv"
            run(["curves", "--config", str(cfg), "--out", str(files['curves'])])
            files["coverage"] = tmp_path / f"cov_{rep}.csv"
            run(["coverage", "--config", str(cov_cfg),
                 "--out", str(files['coverage'])])
            files["fitqr"] = tmp_path / f"fit_{rep}.csv"
            run(["fitqr", "--config", str(fit_cfg), "--out", str(files['fitqr'])])
            stdout = run(["predict", "--config", str(cfg)])
            outputs[rep] = {k: p.read_bytes() for k, p in files.items()}
            outputs[rep]["predict"] = stdout

        for cmd in ("simulate", "curves", "coverage", "fitqr", "predict"):
            assert outputs["a"][cmd] == outputs["b"][cmd], (
                f"{cmd} output changed between identical runs")
            assert len(outputs["a"][cmd]) > 0
