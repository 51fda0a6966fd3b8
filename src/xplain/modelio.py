"""JSON (de)serialization of models, examples and partial examples.

Model documents carry the universe and a single-key tagged model object::

    {"universe": ["x", "y"], "model": {"ds": {"terms": [[["x", 1]]], "default": 0}}}

    {"dt": {"root": 0, "nodes": [{"test": "x", "if0": 1, "if1": 2},
                                 {"leaf": 0}, {"leaf": 1}]}}
    {"dl": {"rules": [[[["x", 0], ["z", 0]], 1], [[], 0]]}}
    {"ensemble": {"family": "dl", "elements": [{"dl": ...}, ...]}}
    {"circuit": {"gates": [{"id": 0, "kind": "IN"},
                           {"id": 1, "kind": "NOT", "in": [0]}, ...],
                 "output": 1, "inputs": {"x": 0}}}

Examples and partial examples: ``{"assign": {"x": 0, "y": 1}}`` (a full
example assigns every feature); feature sets: ``{"features": ["x", "y"]}``.
Feature references are by name; indices are an internal matter.

``load_model_file`` remembers the last model it loaded, keyed on the file's
bytes: a file with the same bytes as the last one loaded returns the same
(immutable) model object without parsing or validating it again, so many
requests about one model document pay for it once per process.  The key is
the content, never the path or modification time: a rewritten file is
always reloaded.  A document that fails to load is not remembered.
"""

from __future__ import annotations

import functools
import json
from typing import Any, Mapping

from .core import (
    DecisionList,
    DecisionSet,
    DecisionTree,
    Ensemble,
    Example,
    FeatureUniverse,
    Leaf,
    ModelError,
    PartialExample,
    Split,
)


def _typed(load):
    """Wrongly typed JSON (a number where a list belongs, a list where an
    object belongs, ...) raises ``ModelError`` like any other malformed
    document, not whatever the first mismatched operation raised."""

    @functools.wraps(load)
    def checked(*args):
        try:
            return load(*args)
        except ModelError:
            raise
        except (TypeError, AttributeError, KeyError, IndexError, ValueError,
                RecursionError) as exc:
            raise ModelError(f"malformed document: {type(exc).__name__}: {exc}") from None

    return checked


@_typed
def load_model(doc: Mapping[str, Any]):
    try:
        names = doc["universe"]
        body = doc["model"]
    except (KeyError, TypeError) as exc:
        raise ModelError(f"model document needs 'universe' and 'model': {exc}")
    if not isinstance(names, (list, tuple)) or not all(isinstance(f, str) for f in names):
        raise ModelError("'universe' must be a list of feature names")
    return _model_from(body, FeatureUniverse(tuple(names)))


# (bytes, model) of the last model file loaded; rebound, never mutated
_last_file: tuple[bytes, Any] = (b"", None)


def load_model_file(path: str):
    global _last_file
    with open(path, "rb") as fh:
        data = fh.read()
    last_data, last_model = _last_file
    if last_model is not None and data == last_data:
        return last_model
    model = load_model(json.loads(data.decode("utf-8")))
    _last_file = (data, model)
    return model


def _model_from(body: Mapping[str, Any], u: FeatureUniverse):
    if not isinstance(body, Mapping) or len(body) != 1:
        raise ModelError("model object must have exactly one family tag")
    tag, payload = next(iter(body.items()))
    if tag == "dt":
        return _dt_from(payload, u)
    if tag == "ds":
        terms = tuple(
            tuple((u.index(f), int(b)) for f, b in term) for term in payload["terms"]
        )
        return DecisionSet(u, terms, int(payload["default"]))
    if tag == "dl":
        rules = tuple(
            (tuple((u.index(f), int(b)) for f, b in term), int(c))
            for term, c in payload["rules"]
        )
        return DecisionList(u, rules)
    if tag == "ensemble":
        elements = tuple(_model_from(el, u) for el in payload["elements"])
        ens = Ensemble(u, elements)
        family = payload.get("family")
        if family is not None and family != ens.family:
            raise ModelError(f"ensemble tagged {family!r} but elements are {ens.family}")
        return ens
    if tag == "circuit":
        from .circuits import circuit_from_json

        return circuit_from_json(payload, u)
    raise ModelError(f"unknown model family {tag!r}")


def _dt_from(payload: Mapping[str, Any], u: FeatureUniverse) -> DecisionTree:
    nodes = []
    for raw in payload["nodes"]:
        if "leaf" in raw:
            nodes.append(Leaf(int(raw["leaf"])))
        else:
            nodes.append(Split(u.index(raw["test"]), int(raw["if0"]), int(raw["if1"])))
    order = payload.get("order")
    if order is not None:
        order = tuple(u.index(f) for f in order)
    return DecisionTree(u, tuple(nodes), int(payload.get("root", 0)), order)


def dump_model(model) -> dict[str, Any]:
    u = model.universe
    return {"universe": list(u.names), "model": _model_to(model)}


def _model_to(model) -> dict[str, Any]:
    u = model.universe
    if isinstance(model, DecisionTree):
        nodes: list[dict[str, Any]] = []
        for node in model.nodes:
            if isinstance(node, Leaf):
                nodes.append({"leaf": node.label})
            else:
                nodes.append(
                    {"test": u.name(node.feature), "if0": node.lo, "if1": node.hi}
                )
        payload: dict[str, Any] = {"root": model.root, "nodes": nodes}
        if model.order is not None:
            payload["order"] = [u.name(f) for f in model.order]
        return {"dt": payload}
    if isinstance(model, DecisionSet):
        return {
            "ds": {
                "terms": [[[u.name(f), b] for f, b in t] for t in model.terms],
                "default": model.default,
            }
        }
    if isinstance(model, DecisionList):
        return {
            "dl": {
                "rules": [
                    [[[u.name(f), b] for f, b in t], c] for t, c in model.rules
                ]
            }
        }
    if isinstance(model, Ensemble):
        return {
            "ensemble": {
                "family": model.family,
                "elements": [_model_to(m) for m in model.elements],
            }
        }
    from .circuits import Circuit, circuit_to_json

    if isinstance(model, Circuit):
        return {"circuit": circuit_to_json(model)}
    raise ModelError(f"not a model: {model!r}")


@_typed
def load_example(doc: Mapping[str, Any], u: FeatureUniverse) -> Example:
    assign = _assignment(doc, u)
    if len(assign) != len(u):
        missing = [f for f in u.names if u.index(f) not in assign]
        raise ModelError(f"example must assign every feature; missing {missing}")
    return Example(u, tuple(assign[i] for i in range(len(u))))


@_typed
def load_partial_example(doc: Mapping[str, Any], u: FeatureUniverse) -> PartialExample:
    return PartialExample.from_dict(u, _assignment(doc, u))


def _assignment(doc: Mapping[str, Any], u: FeatureUniverse) -> dict[int, int]:
    try:
        raw = doc["assign"]
    except (KeyError, TypeError):
        raise ModelError("example document needs an 'assign' object")
    return {u.index(f): int(b) for f, b in raw.items()}


@_typed
def load_feature_set(doc: Mapping[str, Any], u: FeatureUniverse) -> frozenset:
    names = doc["features"]
    if not isinstance(names, list):
        raise ModelError("feature set document needs a 'features' list")
    return frozenset(u.index(f) for f in names)


def load_example_file(path: str, u: FeatureUniverse) -> Example:
    with open(path) as fh:
        return load_example(json.load(fh), u)


def load_partial_example_file(path: str, u: FeatureUniverse) -> PartialExample:
    with open(path) as fh:
        return load_partial_example(json.load(fh), u)


def load_feature_set_file(path: str, u: FeatureUniverse) -> frozenset:
    with open(path) as fh:
        return load_feature_set(json.load(fh), u)


def dump_partial_example(p: PartialExample) -> dict[str, Any]:
    return {"assign": {p.universe.name(f): b for f, b in p.assignments}}
