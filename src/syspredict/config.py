"""Run configuration: one JSON document, schema-validated.

The same document drives every subcommand; each command reads the sections
it needs and rejects missing ones with a ConfigError.  Structures, copula,
and marginal are built through the module factories so their own validation
applies on top of the schema.

`SCHEMA` is a JSON Schema (Draft 2020-12) document, checked by a small
walker in this module that implements exactly the keywords it uses, with
their Draft 2020-12 meaning and the jsonschema library's message text.
"""

from __future__ import annotations

import json

import numpy as np

from .copula import copula_from_config
from .errors import ConfigError
from .marginal import marginal_from_config
from .predictor import EarlyFailurePredictor, TwoFailurePredictor
from .structure import validate_structure

MODES = ("strict", "weak", "alive", "two_failures")

_STRUCTURE = {
    "type": "object",
    "required": ["n", "paths"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "paths": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        },
    },
    "additionalProperties": False,
}

SCHEMA = {
    "type": "object",
    "properties": {
        "mode": {"enum": list(MODES)},
        "structures": {
            "type": "object",
            "properties": {
                "first": _STRUCTURE,
                "second": _STRUCTURE,
                "system": _STRUCTURE,
            },
            "additionalProperties": False,
        },
        "copula": {
            "type": "object",
            "required": ["family"],
            "properties": {
                "family": {"enum": ["product", "fgm", "clayton_pair"]},
                "n": {"type": "integer", "minimum": 1},
                "theta": {"type": "number"},
                "pair": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 2,
                    "maxItems": 2,
                },
            },
            "additionalProperties": False,
        },
        "marginal": {
            "type": "object",
            "required": ["family"],
            "properties": {
                "family": {"enum": ["exponential", "weibull"]},
                "mean": {"type": "number", "exclusiveMinimum": 0},
                "shape": {"type": "number", "exclusiveMinimum": 0},
                "scale": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "grid": {
            "oneOf": [
                {"type": "array", "items": {"type": "number", "minimum": 0}},
                {
                    "type": "object",
                    "required": ["start", "stop", "count"],
                    "properties": {
                        "start": {"type": "number", "minimum": 0},
                        "stop": {"type": "number", "minimum": 0},
                        "count": {"type": "integer", "minimum": 1},
                    },
                    "additionalProperties": False,
                },
            ]
        },
        "point": {
            "type": "object",
            "required": ["t1"],
            "properties": {
                "t1": {"type": "number", "minimum": 0},
                "t2": {"type": "number", "minimum": 0},
            },
            "additionalProperties": False,
        },
        "quantiles": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        },
        "band_kind": {"enum": ["centered", "bottom"]},
        "seed": {"type": "integer", "minimum": 0},
        "size": {"type": "integer"},
        "out": {"type": "string"},
        "coverage": {
            "type": "object",
            "required": ["k", "replications"],
            "properties": {
                "k": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 1,
                },
                "replications": {"type": "integer", "minimum": 1},
                "score": {"enum": ["same", "fresh"]},
                "eval_draws": {"type": "integer", "minimum": 1},
                "exact_mu": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
        "fitqr": {
            "type": "object",
            "required": ["sample", "taus"],
            "properties": {
                "sample": {"type": "string"},
                "x": {"type": "string"},
                "y": {"type": "string"},
                "taus": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                    "minItems": 1,
                },
                "ols": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "number": (int, float), "integer": int}


def _is_type(doc, name):
    if isinstance(doc, bool):  # a JSON boolean is neither an integer nor a number
        return name == "boolean"
    if name == "integer" and isinstance(doc, float):
        return doc.is_integer()
    return isinstance(doc, _TYPES[name])


def _first(errors):
    """The shallowest of some (path, message) errors, the earliest among equals."""
    return min(errors, key=lambda error: len(error[0]), default=None)


def _errors(doc, schema, path=()):
    """Yield (path, message) for each violation of `schema` by `doc`, in schema order."""
    for keyword, arg in schema.items():
        kind, check = _KEYWORDS[keyword]
        if kind is None or _is_type(doc, kind):
            yield from check(doc, arg, schema, path)


def _type(doc, name, schema, path):
    if not _is_type(doc, name):
        yield path, f"{doc!r} is not of type {name!r}"


def _enum(doc, values, schema, path):
    if doc not in values:  # SCHEMA's enums list strings, where `in` is JSON equality
        yield path, f"{doc!r} is not one of {values!r}"


def _one_of(doc, branches, schema, path):
    # SCHEMA's branches differ in `type`, so at most one holds; when none
    # does, the branch of the document's type tells what is wrong with it
    failures = [list(_errors(doc, branch, path)) for branch in branches]
    if all(failures):
        typed = [f for b, f in zip(branches, failures) if _is_type(doc, b["type"])]
        if typed:
            yield _first(typed[0])
        else:
            yield path, f"{doc!r} is not valid under any of the given schemas"


def _required(doc, keys, schema, path):
    for key in keys:
        if key not in doc:
            yield path, f"{key!r} is a required property"


def _properties(doc, subschemas, schema, path):
    for key, subschema in subschemas.items():
        if key in doc:
            yield from _errors(doc[key], subschema, path + (key,))


def _no_additional(doc, allowed, schema, path):
    known = schema.get("properties", {})
    extras = sorted((key for key in doc if key not in known), key=str)
    if extras:
        verb = "was" if len(extras) == 1 else "were"
        names = ", ".join(repr(key) for key in extras)
        yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"


def _items(doc, subschema, schema, path):
    for index, item in enumerate(doc):
        yield from _errors(item, subschema, path + (index,))


def _min_items(doc, count, schema, path):
    if len(doc) < count:
        yield path, f"{doc!r} " + ("should be non-empty" if count == 1 else "is too short")


def _max_items(doc, count, schema, path):
    if len(doc) > count:
        yield path, f"{doc!r} is too long"


def _bound(fails, text):
    def check(doc, limit, schema, path):
        if fails(doc, limit):
            yield path, f"{doc!r} is {text} {limit!r}"
    return check


# keyword -> (JSON type it constrains, or None for every type; its check)
_KEYWORDS = {
    "type": (None, _type),
    "enum": (None, _enum),
    "oneOf": (None, _one_of),
    "required": ("object", _required),
    "properties": ("object", _properties),
    "additionalProperties": ("object", _no_additional),
    "items": ("array", _items),
    "minItems": ("array", _min_items),
    "maxItems": ("array", _max_items),
    "minimum": ("number", _bound(lambda x, m: x < m, "less than the minimum of")),
    "exclusiveMinimum": ("number", _bound(lambda x, m: x <= m,
                                          "less than or equal to the minimum of")),
    "exclusiveMaximum": ("number", _bound(lambda x, m: x >= m,
                                          "greater than or equal to the maximum of")),
}


def load_config(path) -> dict:
    """Load and schema-validate a config document.

    A document with several violations is reported by its shallowest one
    (the first in schema order among equally deep ones), the first rule of
    jsonschema's `best_match`; one violation reads as jsonschema reports it.
    """
    def reject(literal):
        raise ConfigError(f"config {path!r} uses {literal}, which is not valid JSON")

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=reject)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    error = _first(_errors(doc, SCHEMA))
    if error is not None:
        where = "/".join(str(p) for p in error[0]) or "<root>"
        raise ConfigError(f"config invalid at {where}: {error[1]}")
    return doc


def _require(cfg, key):
    if key not in cfg:
        raise ConfigError(f"config section {key!r} is required for this command")
    return cfg[key]


def _integral(x):
    """x as an int if it is an integral float, which the schema takes as an integer."""
    return int(x) if isinstance(x, float) and x.is_integer() else x


def structure_from(cfg, which):
    sections = _require(cfg, "structures")
    if which not in sections:
        raise ConfigError(f"structures.{which} is required for this command")
    doc = sections[which]
    paths = [[_integral(i) for i in path] for path in doc["paths"]]
    return validate_structure(_integral(doc["n"]), paths)


def model_from(cfg):
    """The configured copula, marginal, first and system structures, built in that order."""
    return (copula_from_config(_require(cfg, "copula")),
            marginal_from_config(_require(cfg, "marginal")),
            structure_from(cfg, "first"), structure_from(cfg, "system"))


def predictor_from(cfg):
    """Build the configured conditional predictor."""
    mode = _require(cfg, "mode")
    copula, marginal, first, system = model_from(cfg)
    if mode == "two_failures":
        second = structure_from(cfg, "second")
        return TwoFailurePredictor(first, second, system, copula, marginal)
    return EarlyFailurePredictor(first, system, copula, marginal, mode=mode)


def grid_from(cfg):
    doc = _require(cfg, "grid")
    if isinstance(doc, dict):
        grid = np.linspace(float(doc["start"]), float(doc["stop"]), int(doc["count"]))
    else:
        grid = np.asarray(doc, dtype=float)
    if grid.size == 0:
        raise ConfigError("grid must contain at least one time point")
    return grid


def point_from(cfg, mode):
    doc = _require(cfg, "point")
    if mode == "two_failures":
        if "t2" not in doc:
            raise ConfigError("point.t2 is required for two_failures mode")
        return (float(doc["t1"]), float(doc["t2"]))
    return (float(doc["t1"]),)
