import copy
import csv
import json
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syspredict import EarlyFailurePredictor, TwoFailurePredictor, cli, config
from syspredict.cli import main
from syspredict.config import (
    SCHEMA,
    grid_from,
    load_config,
    point_from,
    predictor_from,
    structure_from,
)
from syspredict.errors import ConfigError
from syspredict.montecarlo import write_csv

RELAY = {"n": 3, "paths": [[1], [2, 3]]}
GATE = {"n": 3, "paths": [[1, 2], [1, 3]]}
SERIES3 = {"n": 3, "paths": [[1, 2, 3]]}
PAIR23 = {"n": 3, "paths": [[1, 2], [1, 3], [2, 3]]}
PARALLEL3 = {"n": 3, "paths": [[1], [2], [3]]}
EXP1 = {"family": "exponential", "mean": 1.0}
PRODUCT3 = {"family": "product", "n": 3}
FGM1 = {"family": "fgm", "n": 3, "theta": 1.0}


def relay_cfg(**extra):
    cfg = {
        "mode": "strict",
        "structures": {"first": SERIES3, "system": RELAY},
        "copula": PRODUCT3,
        "marginal": EXP1,
    }
    cfg.update(extra)
    return cfg


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# -- config loading ----------------------------------------------------------

INVALID_DOCS = [
    ({"mode": "sideways"}, "mode"),
    ({"unknown_key": 1}, "<root>"),
    ({"quantiles": [0.5, 1.5]}, "quantiles"),
    ({"coverage": {"k": [], "replications": 5}}, "coverage"),
    ({"grid": {"start": 0.0, "stop": 1.0}}, "grid"),
    ({"marginal": {"family": "exponential", "mean": -1.0}}, "marginal"),
]


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    for doc, where in INVALID_DOCS:
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"config invalid at .*{where}"):
            load_config(p)


def test_schema_is_valid_and_errors_match_jsonschema_validate(tmp_path):
    jsonschema.validators.validator_for(SCHEMA).check_schema(SCHEMA)
    for doc, _ in INVALID_DOCS:
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(doc, SCHEMA)
        with pytest.raises(ConfigError) as got:
            load_config(write_cfg(tmp_path, doc))
        assert str(got.value).endswith(f": {want.value.message}")


FULL_DOC = relay_cfg(
    grid={"start": 0.0, "stop": 2.0, "count": 5},
    quantiles=[0.25, 0.5],
    band_kind="bottom",
    seed=7,
    size=100,
    out="x.csv",
    coverage={"k": [1, 5], "replications": 10, "score": "fresh",
              "eval_draws": 20, "exact_mu": True},
    fitqr={"sample": "s.csv", "taus": [0.5], "ols": True},
)


def test_load_config_accepts_full_document(tmp_path):
    loaded = load_config(write_cfg(tmp_path, FULL_DOC))
    assert loaded == FULL_DOC


# -- the schema walker against jsonschema -------------------------------------
#
# Each document below is a valid base (a shipped config or FULL_DOC) with
# edits from a fixed menu.  An edit puts a value at a path and breaks the
# schema exactly once, at a known place, or keeps the document valid (an
# integral float for an integer, a bound's own value, an optional section
# filled in).  Optional sections a base lacks, and the grid branch it does
# not use, are filled in with a valid sample first and then broken.

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BASES = [json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))] + [FULL_DOC]
ORACLE = jsonschema.Draft202012Validator(SCHEMA)
WRONG_TYPES = {"integer": [True, 2.5, "2"], "number": [True, "2", None], "string": [2],
               "boolean": [1], "array": ["x"], "object": ["x"]}
DROP = object()  # an edit value that deletes the key


class Edit(NamedTuple):
    path: tuple   # where the value goes
    where: tuple  # where the edited document violates the schema, if it does
    value: object
    breaks: bool


def _subschemas(schema):
    yield schema
    for sub in (*schema.get("properties", {}).values(), *schema.get("oneOf", ())):
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def _sample(schema):
    """A small document valid under `schema`."""
    if "oneOf" in schema:
        return _sample(schema["oneOf"][0])
    if "enum" in schema:
        return schema["enum"][0]
    kind = schema["type"]
    if kind == "object":
        return {key: _sample(schema["properties"][key]) for key in schema.get("required", ())}
    if kind == "array":
        return [_sample(schema["items"])] * schema.get("minItems", 1)
    return {"integer": schema.get("minimum", 1), "number": 0.5, "string": "s",
            "boolean": True}[kind]


def _apply(doc, edits):
    """A copy of `doc` with each edit made."""
    doc = copy.deepcopy(doc)
    for path, _, value, _ in edits:
        if not path:
            doc = copy.deepcopy(value)
            continue
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = copy.deepcopy(value)
    return doc


def _edits(doc, schema):
    """Each Edit of `doc` on the menu, for `doc` valid under `schema`."""
    kind = schema.get("type")
    for wrong in WRONG_TYPES.get(kind, ()):
        yield Edit((), (), wrong, True)
    if kind == "integer":
        yield Edit((), (), float(doc), False)
    if "enum" in schema:
        yield Edit((), (), "bogus", True)
    if "minimum" in schema:
        low = schema["minimum"]
        yield Edit((), (), low, False)
        yield Edit((), (), low - 1 if kind == "integer" else low - 0.5, True)
    for bound in ("exclusiveMinimum", "exclusiveMaximum"):
        if bound in schema:
            yield Edit((), (), schema[bound], True)
    if "oneOf" in schema:
        yield Edit((), (), "x", True)  # of neither branch's type
        for branch in schema["oneOf"]:
            yield from _edits_at((), doc if ORACLE.is_type(doc, branch["type"]) else DROP,
                                 branch)
    if kind == "object":
        for key in schema.get("required", ()):
            yield Edit((key,), (), DROP, True)
        yield Edit(("bogus",), (), 1, True)
        for key, sub in schema["properties"].items():
            yield from _edits_at((key,), doc.get(key, DROP), sub)
    if kind == "array":
        if "minItems" in schema:
            yield Edit((), (), doc[:schema["minItems"] - 1], True)
        if "maxItems" in schema:
            yield Edit((), (), doc + doc[:1] * (schema["maxItems"] + 1 - len(doc)), True)
        for index, item in enumerate(doc):
            yield from _edits_at((index,), item, schema["items"])


def _edits_at(prefix, node, schema):
    """The edits of `node` at `prefix`; an absent node (DROP) starts as a sample."""
    if node is not DROP:
        for edit in _edits(node, schema):
            yield edit._replace(path=prefix + edit.path, where=prefix + edit.where)
        return
    seed = _sample(schema)
    yield Edit(prefix, prefix, seed, False)
    for edit in _edits(seed, schema):
        yield Edit(prefix, prefix + edit.where, _apply(seed, [edit]), edit.breaks)


EDITS = [list(_edits(base, SCHEMA)) for base in BASES]


def _verdicts(path, doc):
    """(load_config's error message or None, jsonschema's best_match or None)."""
    path.write_text(json.dumps(doc))
    want = jsonschema.exceptions.best_match(ORACLE.iter_errors(json.loads(path.read_text())))
    try:
        load_config(path)
    except ConfigError as exc:
        return str(exc), want
    return None, want


def _nested(a, b):
    """Whether one of two paths lies inside (or is) the other."""
    return a[:len(b)] == b or b[:len(a)] == a


def _message(where, text):
    return f"config invalid at {'/'.join(map(str, where)) or '<root>'}: {text}"


def test_schema_uses_only_what_the_walker_implements():
    for schema in _subschemas(SCHEMA):
        assert set(schema) <= set(config._KEYWORDS), schema
        assert isinstance(schema.get("type", ""), str)
        assert all(isinstance(value, str) for value in schema.get("enum", ()))
        assert schema.get("additionalProperties", False) is False
        types = [branch["type"] for branch in schema.get("oneOf", ())]
        assert len(set(types)) == len(types)


def test_walker_matches_jsonschema_on_every_single_edit(tmp_path):
    path = tmp_path / "doc.json"
    seen = set()
    for base, edits in zip(BASES, EDITS):
        assert _verdicts(path, base) == (None, None)
        for edit in edits:
            got, want = _verdicts(path, _apply(base, [edit]))
            if not edit.breaks:
                assert (got, want) == (None, None), edit
                continue
            assert want is not None and tuple(want.absolute_path) == edit.where, edit
            assert got == _message(edit.where, want.message)
            seen.add(want.validator)
    # every keyword is broken somewhere; `properties`/`items` only carry others
    assert seen == set(config._KEYWORDS) - {"properties", "items"}


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_walker_reports_the_shallowest_of_several_violations(tmp_path_factory, data):
    base_index = data.draw(st.integers(0, len(BASES) - 1))
    drawn = data.draw(st.lists(st.sampled_from(EDITS[base_index]), min_size=1, max_size=4))
    edits = []
    for edit in drawn:  # no edit inside another: each breaks the schema as it did alone
        if not any(_nested(edit.path, e.path) for e in edits):
            edits.append(edit)
    path = tmp_path_factory.mktemp("several") / "doc.json"
    base = BASES[base_index]
    got, want = _verdicts(path, _apply(base, edits))
    broken = [e for e in edits if e.breaks]
    assert (got is None) == (want is None) == (not broken)
    if len(broken) == 1:
        assert got == _message(broken[0].where, want.message)
    elif broken:
        depth = min(len(e.where) for e in broken)
        alone = {_verdicts(path, _apply(base, [e]))[0] for e in broken if len(e.where) == depth}
        assert got in alone


def test_predictor_from_modes():
    p = predictor_from(relay_cfg())
    assert isinstance(p, EarlyFailurePredictor)
    assert p.mode == "strict"

    weak = predictor_from({
        "mode": "weak",
        "structures": {"first": SERIES3, "system": GATE},
        "copula": PRODUCT3, "marginal": EXP1,
    })
    assert weak.mode == "weak"

    alive = predictor_from({
        "mode": "alive",
        "structures": {"first": SERIES3, "system": GATE},
        "copula": PRODUCT3, "marginal": EXP1,
    })
    assert alive.mode == "alive"

    two = predictor_from({
        "mode": "two_failures",
        "structures": {"first": SERIES3, "second": PAIR23, "system": PARALLEL3},
        "copula": FGM1, "marginal": EXP1,
    })
    assert isinstance(two, TwoFailurePredictor)

    with pytest.raises(ConfigError, match="'mode'"):
        predictor_from({"structures": {"first": SERIES3, "system": RELAY},
                        "copula": PRODUCT3, "marginal": EXP1})
    with pytest.raises(ConfigError, match="structures.second"):
        predictor_from({
            "mode": "two_failures",
            "structures": {"first": SERIES3, "system": PARALLEL3},
            "copula": FGM1, "marginal": EXP1,
        })


def test_grid_and_point_helpers():
    np.testing.assert_allclose(grid_from({"grid": [0.0, 0.5]}), [0.0, 0.5])
    np.testing.assert_allclose(
        grid_from({"grid": {"start": 0.0, "stop": 1.0, "count": 3}}),
        [0.0, 0.5, 1.0],
    )
    with pytest.raises(ConfigError, match="at least one"):
        grid_from({"grid": []})
    with pytest.raises(ConfigError, match="'grid'"):
        grid_from({})
    assert point_from({"point": {"t1": 0.3}}, "strict") == (0.3,)
    assert point_from({"point": {"t1": 0.3, "t2": 0.6}}, "two_failures") == (0.3, 0.6)
    with pytest.raises(ConfigError, match="t2"):
        point_from({"point": {"t1": 0.3}}, "two_failures")
    with pytest.raises(ConfigError, match="'point'"):
        point_from({}, "strict")


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_load_config_rejects_non_json_constants(tmp_path, capsys, literal):
    # Python's json module accepts these literals; JSON does not
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(relay_cfg(point={"t1": 0.5}))
                    .replace("0.5", literal))
    with pytest.raises(ConfigError, match=f"uses {literal}, which is not valid JSON"):
        load_config(path)
    assert main(["predict", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("ConfigError:")


# -- CLI commands ------------------------------------------------------------

def test_curves_golden(tmp_path, capsys):
    cfg = write_cfg(tmp_path, relay_cfg(grid=[0.0, 0.5, 1.0]))
    out = str(tmp_path / "curves.csv")
    assert main(["curves", "--config", cfg, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "command: curves" in stdout
    assert "rows: 3" in stdout
    rows = read_rows(out)
    assert rows[0] == list(
        ("t", "median", "mean", "lower_50", "upper_50", "lower_90", "upper_90")
    )
    med = [float(r[1]) for r in rows[1:]]
    np.testing.assert_allclose(med, [0.5427656, 1.0427656, 1.5427656], atol=1e-6)
    mean = [float(r[2]) for r in rows[1:]]
    np.testing.assert_allclose(mean, np.array([0.0, 0.5, 1.0]) + 5 / 6, atol=1e-6)
    lo90 = [float(r[5]) for r in rows[1:]]
    np.testing.assert_allclose(lo90, np.array([0.0, 0.5, 1.0]) + 0.0385936, atol=1e-6)


def test_curves_alive_mode(tmp_path):
    cfg = write_cfg(tmp_path, {
        "mode": "alive",
        "structures": {"first": SERIES3, "system": GATE},
        "copula": PRODUCT3,
        "marginal": EXP1,
        "grid": [0.0, 1.0],
    })
    out = str(tmp_path / "alive.csv")
    assert main(["curves", "--config", cfg, "--out", out]) == 0
    rows = read_rows(out)
    med = [float(r[1]) for r in rows[1:]]
    np.testing.assert_allclose(med, [0.3465736, 1.3465736], atol=1e-6)


@pytest.mark.parametrize("mode", ["weak", "alive"])
def test_curves_bottom_bands_match_the_api(tmp_path, capsys, mode):
    """The one stacked solve writes the bytes of the per-column API calls."""
    doc = {"mode": mode, "structures": {"first": SERIES3, "system": GATE},
           "copula": FGM1, "marginal": {"family": "weibull", "shape": 1.7, "scale": 1.3},
           "grid": {"start": 0.0, "stop": 3.0, "count": 13}, "band_kind": "bottom"}
    out = tmp_path / "bottom.csv"
    assert main(["curves", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
    p, grid = predictor_from(doc), grid_from(doc)
    b50, b90 = p.band("bottom", 0.5), p.band("bottom", 0.9)
    expected = tmp_path / "api.csv"
    write_csv(expected, cli.CURVE_COLUMNS,
              [grid, p.median(grid), p.mean(grid), b50.lower(grid), b50.upper(grid),
               b90.lower(grid), b90.upper(grid)])
    assert out.read_bytes() == expected.read_bytes()
    rows = read_rows(out)[1:]
    assert [r[3] for r in rows] == [r[5] for r in rows] == [r[0] for r in rows]


def test_curves_deterministic_across_runs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, relay_cfg(grid={"start": 0.0, "stop": 2.0, "count": 17}))
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = str(tmp_path / name)
        assert main(["curves", "--config", cfg, "--out", out]) == 0
        outputs.append(open(out, "rb").read())
    assert outputs[0] == outputs[1]
    assert b"\r\n" in outputs[0], "CSV rows end with CRLF"


def test_curves_rejects_two_failures(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "mode": "two_failures",
        "structures": {"first": SERIES3, "second": PAIR23, "system": PARALLEL3},
        "copula": FGM1, "marginal": EXP1, "grid": [0.0],
    })
    assert main(["curves", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith("ConfigError:")


def _line_value(stdout, prefix):
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise AssertionError(f"no line starting with {prefix!r} in:\n{stdout}")


def test_predict_two_failures(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "mode": "two_failures",
        "structures": {"first": SERIES3, "second": PAIR23, "system": PARALLEL3},
        "copula": FGM1,
        "marginal": EXP1,
        "point": {"t1": 0.4632196, "t2": 0.6899807},
        "quantiles": [0.5],
    })
    assert main(["predict", "--config", cfg]) == 0
    stdout = capsys.readouterr().out
    assert _line_value(stdout, "point:") == "t1=0.4632196 t2=0.6899807"
    assert float(_line_value(stdout, "quantile 0.5:")) == pytest.approx(
        1.3833334, abs=1e-6
    )
    lo, hi = json.loads(_line_value(stdout, "band centered 0.9:"))
    assert lo == pytest.approx(0.7412946, abs=1e-6)
    assert hi == pytest.approx(3.6861034, abs=1e-6)
    assert float(_line_value(stdout, "mean:")) == pytest.approx(1.6901862, abs=1e-6)


def test_predict_single_failure(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "mode": "strict",
        "structures": {"first": SERIES3, "system": PARALLEL3},
        "copula": FGM1,
        "marginal": EXP1,
        "point": {"t1": 0.4632196},
        "quantiles": [0.5],
    })
    assert main(["predict", "--config", cfg]) == 0
    stdout = capsys.readouterr().out
    assert float(_line_value(stdout, "quantile 0.5:")) == pytest.approx(
        1.6584549, abs=1e-6
    )
    lo, hi = json.loads(_line_value(stdout, "band centered 0.9:"))
    assert lo == pytest.approx(0.7116919, abs=1e-6)
    assert hi == pytest.approx(4.0781121, abs=1e-6)


def test_failing_level_prints_nothing(tmp_path, capsys):
    """Every value is solved before the first line: an error leaves stdout empty."""
    # strict ordering on a system that can fail with the first failure: the
    # law stops at alpha = 2/3, so the median inverts and the 0.75 edge does not
    doc = relay_cfg(structures={"first": SERIES3, "system": GATE},
                    point={"t1": 0.5}, quantiles=[0.5], grid=[0.5])
    cfg = write_cfg(tmp_path, doc)
    assert predictor_from(doc).quantile(0.5, 0.5) > 0.5
    assert main(["predict", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "NotInvertible: survival level cannot be bracketed on (0, F-bar(t)]\n")
    out = tmp_path / "curves.csv"
    assert main(["curves", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("NotInvertible:")
    assert not out.exists()


def test_simulate_roundtrip_and_overrides(tmp_path, capsys):
    base = relay_cfg(size=150, seed=9, copula=FGM1)
    cfg = write_cfg(tmp_path, base)
    out1, out2, out3 = (str(tmp_path / n) for n in ("s1.csv", "s2.csv", "s3.csv"))
    assert main(["simulate", "--config", cfg, "--out", out1]) == 0
    assert "seed: 9" in capsys.readouterr().out
    assert main(["simulate", "--config", cfg, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    assert main(["simulate", "--config", cfg, "--out", out3, "--seed", "10"]) == 0
    assert open(out1, "rb").read() != open(out3, "rb").read()
    rows = read_rows(out1)
    assert rows[0] == ["x1", "x2", "x3", "t1", "t"]
    assert len(rows) == 151
    x = np.array([[float(v) for v in r[:3]] for r in rows[1:]])
    t1 = np.array([float(r[3]) for r in rows[1:]])
    np.testing.assert_allclose(t1, x.min(axis=1), rtol=1e-7)


def test_simulate_requires_size(tmp_path, capsys):
    cfg = write_cfg(tmp_path, relay_cfg(copula=FGM1))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ConfigError:") and "size" in err


def test_coverage_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "coverage": {"k": [1, 5], "replications": 40},
        "seed": 3,
    })
    out = str(tmp_path / "cov.csv")
    assert main(["coverage", "--config", cfg, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "k: 1,5" in stdout and "replications: 40" in stdout
    rows = read_rows(out)
    assert rows[0] == ["k", "replications", "coverage50", "se50", "coverage90", "se90"]
    assert [r[0] for r in rows[1:]] == ["1", "5"]
    for r in rows[1:]:
        assert 0.0 <= float(r[2]) <= 1.0
        assert 0.0 <= float(r[4]) <= 1.0
    # determinism
    out2 = str(tmp_path / "cov2.csv")
    assert main(["coverage", "--config", cfg, "--out", out2]) == 0
    assert open(out, "rb").read() == open(out2, "rb").read()


def test_coverage_echoes_replications_as_an_integer(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"coverage": {"k": [1.0], "replications": 40.0}, "seed": 3})
    out = str(tmp_path / "cov.csv")
    assert main(["coverage", "--config", cfg, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "k: 1\n" in stdout and "replications: 40\n" in stdout
    assert [r[:2] for r in read_rows(out)[1:]] == [["1", "40"]]


def test_coverage_eval_draws_needs_fresh_scoring(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "coverage": {"k": [1, 5], "replications": 40, "eval_draws": 50},
        "seed": 3,
    })
    out = tmp_path / "cov.csv"
    assert main(["coverage", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("OutOfRange: eval_draws")
    assert not out.exists()


def test_fitqr_on_curve_output(tmp_path, capsys):
    curves_cfg = write_cfg(
        tmp_path, relay_cfg(grid={"start": 0.0, "stop": 3.0, "count": 12})
    )
    sample = str(tmp_path / "curves.csv")
    assert main(["curves", "--config", curves_cfg, "--out", sample]) == 0
    capsys.readouterr()

    fit_cfg = write_cfg(tmp_path, {
        "fitqr": {"sample": sample, "x": "t", "y": "median",
                  "taus": [0.25, 0.5], "ols": True},
    }, name="fit.json")
    out = str(tmp_path / "fits.csv")
    assert main(["fitqr", "--config", fit_cfg, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "crossings: none" in stdout
    assert "rows: 12" in stdout
    rows = read_rows(out)
    assert rows[0] == ["tau", "intercept", "slope", "loss"]
    # the median curve is a line; the CSV stores 9 significant digits, so the
    # refit recovers it up to that rounding
    for r in rows[1:3]:
        assert float(r[1]) == pytest.approx(0.5427656, abs=1e-6)
        assert float(r[2]) == pytest.approx(1.0, abs=1e-7)
        assert abs(float(r[3])) < 1e-6
    assert rows[3][0] == "", "least-squares row carries an empty tau"
    assert float(rows[3][2]) == pytest.approx(1.0, abs=1e-7)


def test_cli_error_paths(tmp_path, capsys):
    cfg = write_cfg(tmp_path, relay_cfg(grid=[0.0]))
    # missing config file
    assert main(["curves", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith("ConfigError:")
    # negative seed override
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv"),
                 "--seed", "-1"]) == 1
    assert capsys.readouterr().err.startswith("ConfigError:")
    # missing output path
    assert main(["curves", "--config", cfg]) == 1
    assert "output path" in capsys.readouterr().err
    # unwritable output location
    assert main(["curves", "--config", cfg,
                 "--out", str(tmp_path / "no_dir" / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith("IOError:")
    # structure validation failures surface as CLI errors
    bad = write_cfg(tmp_path, relay_cfg(
        structures={"first": SERIES3, "system": {"n": 3, "paths": [[1], [4]]}},
        grid=[0.0],
    ), name="bad.json")
    assert main(["curves", "--config", bad, "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith("IndexOutOfRange:")
    # a non-finite sample cell is rejected, not fitted to a nan loss
    sample = tmp_path / "nan.csv"
    sample.write_text("t1,t\n0.1,0.6\nnan,0.9\n0.3,1.0\n")
    fit = write_cfg(tmp_path, {"fitqr": {"sample": str(sample), "taus": [0.5]}},
                    name="nan.json")
    assert main(["fitqr", "--config", fit, "--out", str(tmp_path / "f.csv")]) == 1
    assert capsys.readouterr().err.startswith("DegenerateDesign:")
    # a non-numeric cell or a short row names its line instead of a traceback
    for name, text, line in (("abc.csv", "t1,t\n0.1,0.6\n0.2,abc\n", 3),
                             ("short.csv", "t1,t\n0.1,0.6\n0.2,0.7\n0.3\n", 4)):
        sample = tmp_path / name
        sample.write_text(text)
        fit = write_cfg(tmp_path, {"fitqr": {"sample": str(sample), "taus": [0.5]}},
                        name="bad_sample.json")
        assert main(["fitqr", "--config", fit, "--out", str(tmp_path / "f.csv")]) == 1
        assert capsys.readouterr().err == (
            f"DegenerateDesign: line {line}: columns 't1' and 't' must hold numbers\n")
    with pytest.raises(SystemExit):
        main(["curves"])  # --config is required
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", cfg])


ROWS_PAST_8KIB = b"".join(b"0.%06d,1.%06d\n" % (i, i) for i in range(1000))


@pytest.mark.parametrize("target, text, error", [
    ("config", b'{"mode": "strict\xff"}', "ConfigError"),
    ("sample", b"t1,t\xff\n0.1,0.6\n0.2,0.7\n", "DegenerateDesign"),
    ("sample", b"t1,t\n" + ROWS_PAST_8KIB + b"0.5,\xff\n", "DegenerateDesign"),
], ids=["config", "csv-header", "csv-row-past-8KiB"])
def test_non_utf8_input_is_a_clean_error(tmp_path, target, text, error):
    # a byte that is not UTF-8 names the file; the CLI prints no traceback
    bad = tmp_path / "bad.bin"
    bad.write_bytes(text)
    cfg = str(bad) if target == "config" else write_cfg(
        tmp_path, {"fitqr": {"sample": str(bad), "taus": [0.5]}})
    command = "curves" if target == "config" else "fitqr"
    proc = subprocess.run(
        [sys.executable, "-m", "syspredict", command, "--config", cfg,
         "--out", str(tmp_path / "x.csv")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"{error}: cannot read "), proc.stderr
    assert repr(str(bad)) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_commands_require_their_sections(tmp_path, capsys):
    cfg = write_cfg(tmp_path, relay_cfg(seed=3))
    for command in ("coverage", "fitqr"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == (
            f"ConfigError: config section {command!r} is required for {command}\n")


def test_fitqr_reports_crossing_lines(tmp_path, capsys):
    sample = tmp_path / "cross.csv"
    sample.write_text("t1,t\n0,2\n1,3\n3,3\n2,4\n")
    fit = write_cfg(tmp_path, {"fitqr": {"sample": str(sample), "taus": [0.25, 0.5, 0.75]}})
    assert main(["fitqr", "--config", fit, "--out", str(tmp_path / "f.csv")]) == 0
    assert "crossings: (0.5, 0.75)\n" in capsys.readouterr().out


def test_weibull_without_scale_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, relay_cfg(marginal={"family": "weibull", "shape": 1.5},
                                        point={"t1": 0.3}))
    assert main(["predict", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.err == "ConfigError: marginal.scale is required for the weibull family\n"
    assert captured.out == ""


def test_integral_floats_are_structure_integers(tmp_path, capsys):
    """3.0 and 1.0 are integers under Draft 2020-12, so they build the structure 3 and 1 do."""
    outputs = []
    for n, one in ((3, 1), (3.0, 1.0)):
        system = {"n": n, "paths": [[one], [2, 3]]}
        cfg = write_cfg(tmp_path, relay_cfg(structures={"first": SERIES3, "system": system},
                                            point={"t1": 0.3}))
        assert main(["predict", "--config", cfg]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].err == outputs[1].err == ""
    assert outputs[1].out == outputs[0].out


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    own_out = str(tmp_path / "own.csv")
    cfg = write_cfg(tmp_path, relay_cfg(size=20, seed=9, out=own_out, copula=FGM1))
    assert main(["simulate", "--config", cfg, "--seed", "10",
                 "--out", str(tmp_path / "override.csv")]) == 0
    assert "seed: 10" in capsys.readouterr().out
    assert main(["simulate", "--config", cfg]) == 0
    stdout = capsys.readouterr().out
    assert "seed: 9" in stdout and f"out: {own_out}" in stdout
    with pytest.raises(SystemExit) as exc:
        main(["curves"])  # --config is required
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["simulate", "--config", cfg]) == 0
    assert f"out: {own_out}" in capsys.readouterr().out


def test_module_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, relay_cfg(grid=[0.0, 1.0]))
    out = str(tmp_path / "m.csv")
    proc = subprocess.run(
        [sys.executable, "-m", "syspredict", "curves", "--config", cfg, "--out", out],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "command: curves" in proc.stdout
    assert read_rows(out)[0][0] == "t"
