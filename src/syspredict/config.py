"""Run configuration: one JSON document, schema-validated.

The same document drives every subcommand; each command reads the sections
it needs and rejects missing ones with a ConfigError.  Structures, copula,
and marginal are built through the module factories so their own validation
applies on top of the schema.
"""

from __future__ import annotations

import json

import jsonschema
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

# built once: jsonschema.validate would re-check SCHEMA itself on every load
_VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)


def load_config(path) -> dict:
    """Load and schema-validate a config document."""
    def reject(literal):
        raise ConfigError(f"config {path!r} uses {literal}, which is not valid JSON")

    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=reject)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(doc))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {where}: {error.message}") from error
    return doc


def _require(cfg, key):
    if key not in cfg:
        raise ConfigError(f"config section {key!r} is required for this command")
    return cfg[key]


def structure_from(cfg, which):
    sections = _require(cfg, "structures")
    if which not in sections:
        raise ConfigError(f"structures.{which} is required for this command")
    doc = sections[which]
    return validate_structure(doc["n"], doc["paths"])


def predictor_from(cfg):
    """Build the configured conditional predictor."""
    mode = _require(cfg, "mode")
    copula = copula_from_config(_require(cfg, "copula"))
    marginal = marginal_from_config(_require(cfg, "marginal"))
    first = structure_from(cfg, "first")
    system = structure_from(cfg, "system")
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
