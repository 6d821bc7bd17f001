"""JSON model specifications: schema, validation, and construction.

This is the only place named topologies and random coupling draws are parsed;
the library core works with explicit graphs and tables.  Random draws always
carry their own seed so a spec file pins its model exactly.
"""

from __future__ import annotations

import json

import numpy as np
from jsonschema import Draft202012Validator

from .gaussian import GmrfModel
from .graphs import Graph, complete_graph, grid_graph, path_graph, ring_graph
from .nfg import clock_model, ising_model, potts_model

SCHEMA_VERSION = 1

MODEL_SPEC_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "nfgdual model specification",
    "type": "object",
    "required": ["family", "topology"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "family": {"enum": ["ising", "potts", "clock", "gaussian"]},
        "q": {"type": "integer", "minimum": 2},
        "topology": {
            "type": "object",
            "required": ["type"],
            "properties": {
                "type": {"enum": ["grid", "ring", "path", "complete", "edge_list"]},
                "rows": {"type": "integer", "minimum": 1},
                "cols": {"type": "integer", "minimum": 1},
                "periodic": {"type": "boolean"},
                "n": {"type": "integer", "minimum": 1},
                "num_vertices": {"type": "integer", "minimum": 1},
                "edges": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 0},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
            },
        },
        "couplings": {
            "anyOf": [
                {"type": "number"},
                {"type": "array", "items": {"type": "number"}},
                {
                    "type": "object",
                    "required": ["random", "seed"],
                    "additionalProperties": False,
                    "properties": {
                        "random": {"enum": ["half_normal", "uniform"]},
                        "seed": {"type": "integer", "minimum": 0},
                        "sigma2": {"type": "number", "exclusiveMinimum": 0},
                        "low": {"type": "number"},
                        "high": {"type": "number"},
                    },
                },
            ]
        },
        "fields": {
            "anyOf": [
                {"type": "number"},
                {"type": "array", "items": {"type": "number"}},
            ]
        },
        "gaussian": {
            "type": "object",
            "required": ["s", "sigma"],
            "additionalProperties": False,
            "properties": {
                "s": {"type": "number", "exclusiveMinimum": 0},
                "sigma": {"type": "number", "exclusiveMinimum": 0},
            },
        },
    },
}

_VALIDATOR = Draft202012Validator(MODEL_SPEC_SCHEMA)


class SpecError(ValueError):
    """The spec document is malformed or internally inconsistent."""


def validate_spec(spec: dict) -> None:
    errors = sorted(_VALIDATOR.iter_errors(spec), key=lambda e: e.json_path)
    if errors:
        detail = "; ".join(f"{e.json_path}: {e.message}" for e in errors[:3])
        raise SpecError(f"invalid model spec: {detail}")


def build_graph(topology: dict) -> Graph:
    kind = topology["type"]
    try:
        if kind == "grid":
            return grid_graph(
                topology["rows"], topology["cols"], topology.get("periodic", False)
            )
        if kind == "ring":
            return ring_graph(topology["n"])
        if kind == "path":
            return path_graph(topology["n"])
        if kind == "complete":
            return complete_graph(topology["n"])
        edges = [tuple(e) for e in topology["edges"]]
        return Graph(topology["num_vertices"], edges)
    except KeyError as exc:
        raise SpecError(f"topology {kind!r} is missing field {exc}") from exc


def resolve_couplings(spec_value, num_edges: int):
    """A seeded random draw -> per-edge array; a scalar or per-edge list is
    returned unchanged, for the model builder to broadcast and check."""
    if not isinstance(spec_value, dict):
        return spec_value
    rng = np.random.default_rng(spec_value["seed"])
    if spec_value["random"] == "half_normal":
        sigma2 = spec_value.get("sigma2", 1.0)
        return np.abs(rng.normal(0.0, np.sqrt(sigma2), size=num_edges))
    low, high = spec_value.get("low", 0.05), spec_value.get("high", 1.0)
    return rng.uniform(low, high, size=num_edges)


def build_model(spec: dict):
    """Validated spec -> PrimalNFG or GmrfModel."""
    validate_spec(spec)
    g = build_graph(spec["topology"])
    family = spec["family"]
    if family == "gaussian":
        if "gaussian" not in spec:
            raise SpecError("gaussian family needs a 'gaussian' {s, sigma} block")
        return GmrfModel(g, spec["gaussian"]["s"], spec["gaussian"]["sigma"])
    couplings = resolve_couplings(spec.get("couplings", 0.0), g.num_edges)
    fields = spec.get("fields", 0.0)
    if family == "ising":
        if spec.get("q", 2) != 2:
            raise SpecError("ising is a binary family; use potts or clock for q > 2")
        return ising_model(g, couplings, fields)
    q = spec.get("q")
    if q is None:
        raise SpecError(f"{family} family needs q")
    if family == "potts":
        return potts_model(g, q, couplings, fields)
    return clock_model(g, q, couplings, fields)


def load_spec(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise SpecError(f"cannot read spec {path}: {exc.strerror or exc}") from exc


def model_from_file(path: str):
    return build_model(load_spec(path))
