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
Feature references are by name; indices are an internal matter.  Every
integer field (bits, labels, classes, node and gate ids, thresholds) must
hold an integer: 0.6, true or "1" is refused, not truncated.  ``_int`` reads
1.0 as 1, the one exception to the library's integer rule (``core``).  A
JSON integer is taken as it is, and a tree leaf labelled 0 or 1 is the
shared ``core._LEAVES`` leaf of its class, so loading a tree document is
one typed pass over its nodes before the constructor's.

``load_model_file`` remembers the last model it loaded, keyed on the file's
bytes: a file with the same bytes as the last one loaded returns the same
(immutable) model object without parsing or validating it again, so many
requests about one model document pay for it once per process.  The key is
the content, never the path or modification time: a rewritten file is
always reloaded.  A document that fails to load is not remembered.

Every file loader (model, example, partial example and feature set) reads
the file's bytes and decodes them as UTF-8, whatever the locale: no text
layer and no newline translation, so a JSON error on a file with ``\\r\\n``
line ends counts the ``\\r`` in its character offset.  The typed passes
look each feature name up in the universe's index directly and take a JSON
integer as it is; ``FeatureUniverse.index`` and ``_int`` run only to read
1.0 as 1 or to refuse, so every refusal and its message are theirs.
"""

from __future__ import annotations

import functools
import json
from typing import Any, Mapping

from .circuits import IN, MAJ, Circuit, Gate
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
    _LEAVES,
    _model_universe,
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
                OverflowError, RecursionError) as exc:
            raise ModelError(f"malformed document: {type(exc).__name__}: {exc}") from None

    return checked


def _int(value) -> int:
    """An integer field: a boolean or a value unequal to its ``int()`` is refused."""
    if type(value) is int:  # what JSON gives; a bool is no int here
        return value
    i = int(value)
    if i != value or isinstance(value, bool):
        raise ModelError(f"expected an integer, got {value!r}")
    return i


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
            tuple((u.index(f), _int(b)) for f, b in term) for term in payload["terms"]
        )
        return DecisionSet(u, terms, _int(payload["default"]))
    if tag == "dl":
        rules = tuple(
            (tuple((u.index(f), _int(b)) for f, b in term), _int(c))
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
        return circuit_from_json(payload, u)
    raise ModelError(f"unknown model family {tag!r}")


def _dt_from(payload: Mapping[str, Any], u: FeatureUniverse) -> DecisionTree:
    # One typed pass, fields read in document order: a known name and a
    # JSON int take the fast path, and ``u.index`` and ``_int`` are called
    # only to refuse (or to read 1.0 as 1).
    index = u._index
    nodes = []
    for raw in payload["nodes"]:
        if "leaf" in raw:
            label = raw["leaf"]
            # an int 0 or 1 takes the shared leaf; anything else the checked path
            if type(label) is int and 0 <= label <= 1:
                nodes.append(_LEAVES[label])
            else:
                nodes.append(Leaf(_int(label)))
        else:
            test = raw["test"]
            try:
                f = index[test]
            except KeyError:
                f = u.index(test)  # raises "unknown feature"
            lo = raw["if0"]
            if type(lo) is not int:
                lo = _int(lo)
            hi = raw["if1"]
            if type(hi) is not int:
                hi = _int(hi)
            nodes.append(Split(f, lo, hi))
    order = payload.get("order")
    if order is not None:
        order = tuple(u.index(f) for f in order)
    return DecisionTree(u, tuple(nodes), _int(payload.get("root", 0)), order)


def circuit_to_json(circuit: Circuit) -> dict[str, Any]:
    gates = []
    inputs = {}
    for i, g in enumerate(circuit.gates):
        entry: dict[str, Any] = {"id": i, "kind": g.kind}
        if g.kind != IN:
            entry["in"] = list(g.ins)
        if g.kind == MAJ:
            entry["threshold"] = g.threshold
        gates.append(entry)
        if g.kind == IN:
            inputs[circuit.universe.name(g.feature)] = i
    return {"gates": gates, "output": circuit.output, "inputs": inputs}


def circuit_from_json(payload: Mapping[str, Any], u: FeatureUniverse) -> Circuit:
    raw = {_int(g["id"]): g for g in payload["gates"]}
    if len(raw) != len(payload["gates"]):
        raise ModelError("duplicate gate ids")
    feature_of = {}
    for name, gid in payload["inputs"].items():
        gid = _int(gid)
        if gid not in raw or raw[gid]["kind"] != IN:
            raise ModelError(f"input {name!r} names gate {gid}, which is no IN gate")
        if gid in feature_of:
            raise ModelError(f"IN gate {gid} is named twice in the inputs map")
        feature_of[gid] = u.index(name)
    # topological order over the original ids, then dense renumbering
    pending = {gid: list(map(_int, g.get("in", ()))) for gid, g in raw.items()}
    for gid, ins in pending.items():
        for j in ins:
            if j not in raw:
                raise ModelError(f"gate {gid} references unknown gate {j}")
    # depth-first post-order on an explicit stack (long gate chains do not
    # exhaust the call stack): inputs in listed order, roots by id
    order: list[int] = []
    done: set[int] = set()
    temp: set[int] = set()  # gates on the current path
    for root in sorted(raw):
        if root in done:
            continue
        temp.add(root)
        stack = [(root, 0)]  # (gate, index of its next input)
        while stack:
            gid, k = stack[-1]
            ins = pending[gid]
            if k == len(ins):
                stack.pop()
                temp.discard(gid)
                done.add(gid)
                order.append(gid)
                continue
            stack[-1] = (gid, k + 1)
            j = ins[k]
            if j in done:
                continue
            if j in temp:
                raise ModelError("circuit contains a cycle")
            temp.add(j)
            stack.append((j, 0))
    dense = {gid: i for i, gid in enumerate(order)}
    gates = []
    for gid in order:
        g = raw[gid]
        kind = g["kind"]
        gates.append(
            Gate(
                kind,
                tuple(dense[j] for j in pending[gid]),
                None if g.get("threshold") is None else _int(g["threshold"]),
                feature_of.get(gid) if kind == IN else None,
            )
        )
        if kind == IN and gid not in feature_of:
            raise ModelError(f"IN gate {gid} missing from the inputs map")
    return Circuit(u, tuple(gates), dense[_int(payload["output"])])


def dump_model(model) -> dict[str, Any]:
    u = _model_universe(model)
    return {"universe": list(u.names), "model": _model_to(model)}


def _model_to(model) -> dict[str, Any]:
    u = model.universe
    if isinstance(model, DecisionTree):
        nodes: list[dict[str, Any]] = []
        for node in model.nodes:
            if isinstance(node, Leaf):
                nodes.append({"leaf": node.label})
            else:  # int(): a split of a normal-form arena may hold a bool
                nodes.append(
                    {"test": u.name(node.feature), "if0": int(node.lo), "if1": int(node.hi)}
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
    index = u._index
    try:
        return {index[f]: b if type(b) is int else _int(b) for f, b in raw.items()}
    except KeyError:  # an unknown name: the checked pass refuses it
        return {u.index(f): _int(b) for f, b in raw.items()}


@_typed
def load_feature_set(doc: Mapping[str, Any], u: FeatureUniverse) -> frozenset:
    names = doc["features"]
    if not isinstance(names, list):
        raise ModelError("feature set document needs a 'features' list")
    index = u._index
    try:
        return frozenset([index[f] for f in names])
    except KeyError:  # an unknown name: the checked pass refuses it
        return frozenset([u.index(f) for f in names])


def _read_json(path: str):
    with open(path, "rb") as fh:
        return json.loads(fh.read().decode("utf-8"))


def load_example_file(path: str, u: FeatureUniverse) -> Example:
    return load_example(_read_json(path), u)


def load_partial_example_file(path: str, u: FeatureUniverse) -> PartialExample:
    return load_partial_example(_read_json(path), u)


def load_feature_set_file(path: str, u: FeatureUniverse) -> frozenset:
    return load_feature_set(_read_json(path), u)


def dump_partial_example(p: PartialExample) -> dict[str, Any]:
    return {"assign": {p.universe.name(f): b for f, b in p.assignments}}
