"""Self-test of the benchmark.

The gate must report a failure for one perturbed output per oracle, and
every workload must finish a reduced-size pass, untraced and traced, with
all its declared metrics. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import csv
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _first_request(workload, kind):
    return next(r for r in workload.pass_requests(0) if r.kind == kind)


@pytest.fixture(scope="module")
def predict(tmp_path_factory):
    w = workloads.PredictKofn(5, tmp_path_factory.mktemp("predict"), workloads.SMOKE)
    w.setup()
    w.prepare_oracles()
    return w


@pytest.fixture(scope="module")
def curves(tmp_path_factory):
    w = workloads.CurvesWeibull(5, tmp_path_factory.mktemp("curves"), workloads.SMOKE)
    w.setup()
    w.prepare_oracles()
    return w


@pytest.fixture(scope="module")
def sample(tmp_path_factory):
    w = workloads.SampleFit(5, tmp_path_factory.mktemp("sample"), workloads.SMOKE)
    w.setup()
    return w


@pytest.mark.parametrize("kind", ["predict1", "predict2"])
def test_prediction_gate(predict, kind):
    request = _first_request(predict, kind)
    output = request.fn()
    assert predict.check(request, output) == []
    q50 = list(output)
    q50[1] += 1e-6
    assert predict.check(request, tuple(q50))
    swapped = list(output)
    swapped[5], swapped[6] = swapped[6], swapped[5]  # 90% band edges
    assert predict.check(request, tuple(swapped))
    mean = list(output)
    mean[7] += 1e-6
    assert predict.check(request, tuple(mean))


def test_curves_gate(curves):
    request = _first_request(curves, "curves")
    output = request.fn()
    assert curves.check(request, output) == []
    out = curves.dir / "curves0.csv"
    original = out.read_bytes()

    def bump_median(rows):
        rows[1][1] = repr(float(rows[1][1]) + 1e-6)

    def swap_band(rows):
        rows[1][5], rows[1][6] = rows[1][6], rows[1][5]

    for edit in (bump_median, swap_band):
        out.write_bytes(original)
        _rewrite_csv(out, edit)
        assert curves.check(request, output), edit.__name__
    out.write_bytes(original)


def test_fit_gate(sample):
    request = _first_request(sample, "fitqr")
    output = request.fn()
    assert sample.check(request, output) == []

    def bump_slope(rows):
        rows[2][2] = repr(float(rows[2][2]) * (1 + 1e-4))  # the tau 0.5 line

    _rewrite_csv(sample.paths["fitqr"], bump_slope)
    assert sample.check(request, output)


def test_sample_gate(sample):
    request = _first_request(sample, "simulate")
    output = request.fn()
    assert sample.check(request, output) == []

    def bump_cell(rows):
        rows[10][-1] = repr(float(rows[10][-1]) + 1e-3)  # a system lifetime

    _rewrite_csv(sample.paths["simulate"], bump_cell)
    assert sample.check(request, output)


def test_coverage_gate(sample):
    request = _first_request(sample, "coverage")
    output = request.fn()
    assert sample.check(request, output) == []

    def bump_cell(rows):
        rows[1][2] = "1.5"  # a coverage outside [0, 1]

    _rewrite_csv(sample.paths["coverage"], bump_cell)
    assert sample.check(request, output)


def test_repeated_requests_must_agree(sample):
    ledger = run.Ledger()
    request = _first_request(sample, "coverage")
    stub = type("Stub", (), {"check": lambda self, req, out: []})()
    assert ledger.check(stub, request, "a") == []
    assert ledger.check(stub, request, "a") == []
    assert ledger.check(stub, request, "b")


def test_requests_are_divided_by_adjacent_yardsticks():
    ledger = run.Ledger()
    for before, seconds in ((1.0, 10.0), (2.0, 30.0)):
        ledger.yardstick.append({"interp": [before, before]})
        ledger.record("k", seconds, False, [])
    ledger.yardstick.append({"interp": [3.0, 3.0]})
    assert ledger.normalized("k", "interp") == [10.0 / 1.5, 30.0 / 2.5]


def test_self_times_account_for_the_wall_time():
    import tracer
    # [id, name, start, end, parent, request, size]
    spans = [[1, "bench.k", 0.0, 10.0, 0, 1, 0], [2, "copula.eval", 1.0, 4.0, 1, 1, 0],
             [3, "marginal.sf", 2.0, 3.0, 2, 1, 0], [4, "copula.eval", 5.0, 9.0, 1, 1, 0]]
    own = tracer.self_times(spans)
    assert own == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}
    assert sum(own.values()) == 10.0


def test_qr_sweep_gate():
    x = np.linspace(0.0, 3.0, 30)
    pairs = np.column_stack([x, x + np.cos(7 * x)])
    from syspredict.qr import FittedLine, fit_lqr
    fit = fit_lqr(pairs, 0.5)
    assert gate.check_fit(pairs, fit) == []
    off = FittedLine(fit.intercept, fit.slope * (1 + 1e-4), fit.loss, fit.tau)
    assert gate.check_fit(pairs, off)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run(tmp_path, name, trace):
    result, record = run.run(name, 3, 0.1, trace, sizes=workloads.SMOKE, probes=1,
                             out_root=tmp_path)
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.declared_metrics(trace))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert (tmp_path / name / "trace.json").exists()
