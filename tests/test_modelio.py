"""Loader fuzzing: any JSON document yields a working model or a ModelError;
and the file loader's memo of the last model, keyed on the file's bytes."""

from __future__ import annotations

import json
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xplain as x
from xplain.core import _LEAVES
from xplain.modelio import (
    dump_model,
    load_example,
    load_example_file,
    load_feature_set,
    load_feature_set_file,
    load_model,
    load_model_file,
    load_partial_example,
    load_partial_example_file,
)

from generators import random_any_model, random_universe

# the keys and names a model document uses, so that random documents often
# get past the first lookups and reach the typed parts of each family
_WORDS = ["universe", "model", "dt", "ds", "dl", "ensemble", "circuit", "root",
          "nodes", "leaf", "test", "if0", "if1", "order", "terms", "default",
          "rules", "family", "elements", "gates", "output", "inputs", "id",
          "kind", "in", "threshold", "IN", "AND", "OR", "NOT", "MAJ", "assign",
          "a", "b"]

_scalars = (
    st.none() | st.booleans() | st.integers(-2, 3)
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | st.sampled_from(_WORDS) | st.text(max_size=3)
)
json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_WORDS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)


def _replace_at(doc, path: list[int], value):
    """``doc`` with the node that ``path`` picks (child indices, taken modulo
    each container's size) replaced by ``value``."""
    if not path or not isinstance(doc, (list, dict)) or not doc:
        return value
    if isinstance(doc, list):
        i = path[0] % len(doc)
        return [_replace_at(v, path[1:], value) if j == i else v for j, v in enumerate(doc)]
    key = sorted(doc)[path[0] % len(doc)]
    return {k: _replace_at(v, path[1:], value) if k == key else v for k, v in doc.items()}


def _loads_or_refuses(doc) -> None:
    try:
        model = load_model(doc)
    except x.ModelError:
        return
    n = len(model.universe)
    assert x.classify(model, x.Example(model.universe, (0,) * n)) in (0, 1)
    if n <= 6:
        assert x.truth_table(load_model(dump_model(model))) == x.truth_table(model)


@given(doc=json_values)
@settings(max_examples=300, deadline=None)
def test_any_json_document_loads_or_is_a_model_error(doc):
    _loads_or_refuses(doc)
    _loads_or_refuses({"universe": ["a", "b"], "model": doc})


@given(seed=st.integers(0, 10_000), path=st.lists(st.integers(0, 50), max_size=8),
       value=json_values)
@settings(max_examples=300, deadline=None)
def test_damaged_model_document_loads_or_is_a_model_error(seed, path, value):
    """A valid document with one node replaced by arbitrary JSON."""
    rng = Random(seed)
    doc = dump_model(random_any_model(rng, random_universe(rng, rng.randint(1, 4))))
    _loads_or_refuses(_replace_at(doc, path, value))


@given(doc=json_values)
@settings(max_examples=200, deadline=None)
def test_any_json_example_loads_or_is_a_model_error(doc):
    u = x.universe("a", "b")
    for load, kind in ((load_example, x.Example), (load_partial_example, x.PartialExample)):
        for candidate in (doc, {"assign": doc}):
            try:
                assert isinstance(load(candidate, u), kind)
            except x.ModelError:
                pass


_U = x.universe("a", "b")


@pytest.mark.parametrize("make", [
    lambda: x.DecisionTree(_U, (x.Leaf(True),)),
    lambda: x.DecisionTree(_U, (x.Leaf(1), x.Split(0, 0, 2), x.Leaf(0)), root=True),
    lambda: x.DecisionTree(_U, (x.Split(0, True, 2), x.Leaf(0), x.Leaf(1))),
    lambda: x.DecisionSet(_U, (((0, 1),),), True),
    lambda: x.Circuit(_U, (x.Gate("IN", feature=0), x.Gate("MAJ", (0,), threshold=True)), 1),
], ids=["leaf-label", "root", "split-child", "ds-default", "maj-threshold"])
def test_boolean_integer_fields_are_refused(make):
    # a constructor refuses True as it refuses 1.0, so no model holds a
    # bool that dump_model would write and load_model refuse
    with pytest.raises(x.ModelError):
        make()


# -- integer fields of a tree: the int fast path refuses what it refused ----

def _one_split_doc(label=1, child=2):
    return json.loads(json.dumps({"universe": ["a"], "model": {"dt": {"root": 0, "nodes": [
        {"test": "a", "if0": 1, "if1": child}, {"leaf": 0}, {"leaf": label}]}}}))


@pytest.mark.parametrize("doc, message", [
    (_one_split_doc(label=-1), "leaf labels must be 0 or 1"),
    (_one_split_doc(label=2), "leaf labels must be 0 or 1"),
    (_one_split_doc(label=True), "expected an integer, got True"),
    (_one_split_doc(label=0.5), "expected an integer, got 0.5"),
    (_one_split_doc(label="1"), "expected an integer, got '1'"),
    (_one_split_doc(child=True), "expected an integer, got True"),
    (_one_split_doc(child=1.5), "expected an integer, got 1.5"),
    (_one_split_doc(child="1"), "expected an integer, got '1'"),
], ids=["label-negative", "label-two", "label-true", "label-fraction", "label-string",
        "child-true", "child-fraction", "child-string"])
def test_tree_document_refuses_what_is_no_label_or_index(doc, message):
    # -1 would index the shared leaves from the end, giving Leaf(1)
    with pytest.raises(x.ModelError) as info:
        load_model(doc)
    assert str(info.value) == message


def _assign_doc(**bits):
    return {"assign": bits}


@pytest.mark.parametrize("load, message", [
    (lambda: load_model({"universe": ["a"], "model": {"dt": {
        "nodes": [{"test": "z", "if0": 1.5, "if1": 2}, {"leaf": 0}, {"leaf": 1}]}}}),
     "unknown feature 'z'"),
    (lambda: load_model({"universe": ["a"], "model": {"dt": {
        "nodes": [{"test": "a", "if0": True, "if1": 2}, {"leaf": 0}, {"leaf": 1}]}}}),
     "expected an integer, got True"),
    (lambda: load_example(_assign_doc(a=0, z=1), _U), "unknown feature 'z'"),
    (lambda: load_example(_assign_doc(a=True, b=0), _U), "expected an integer, got True"),
    (lambda: load_example(_assign_doc(a=0, b=0.5), _U), "expected an integer, got 0.5"),
    (lambda: load_partial_example(_assign_doc(b=False), _U), "expected an integer, got False"),
    (lambda: load_partial_example(_assign_doc(z=0.5), _U), "unknown feature 'z'"),
    (lambda: load_feature_set({"features": ["a", "z"]}, _U), "unknown feature 'z'"),
], ids=["tree-test-name", "tree-lo-true", "example-name", "example-bit-true",
        "example-bit-fraction", "partial-bit-false", "partial-name-first", "feature-set-name"])
def test_documents_refuse_unknown_names_and_non_integers(load, message):
    """The typed passes look names up and take JSON ints directly; a name
    outside the universe and a bit that is no int are still refused by
    ``FeatureUniverse.index`` and ``_int``, in document order."""
    with pytest.raises(x.ModelError) as info:
        load()
    assert str(info.value) == message


def test_file_loaders_read_utf8_as_the_document_loaders(tmp_path):
    u = x.universe("é", "b")
    docs = {"example": _assign_doc(**{"é": 1, "b": 0}), "partial": _assign_doc(**{"é": 1}),
            "features": {"features": ["é"]}}
    for name, doc in docs.items():
        (tmp_path / name).write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    assert load_example_file(str(tmp_path / "example"), u) == load_example(docs["example"], u)
    assert load_partial_example_file(str(tmp_path / "partial"), u) == x.PartialExample(
        u, ((0, 1),))
    assert load_feature_set_file(str(tmp_path / "features"), u) == frozenset({0})


def test_tree_document_leaves_are_the_shared_leaves():
    t = load_model(_one_split_doc(label=1))
    assert t.nodes[1] is _LEAVES[0] and t.nodes[2] is _LEAVES[1]
    assert load_model(_one_split_doc(label=1.0)) == t  # an integral float reads as its int


# -- the load memo: keyed on the file's bytes, one entry --------------------

_TREE_DOC = {"universe": ["a", "b"],
             "model": {"dt": {"root": 0, "nodes": [{"test": "a", "if0": 1, "if1": 2},
                                                   {"leaf": 0}, {"leaf": 1}]}}}
_LIST_DOC = {"universe": ["a", "b"], "model": {"dl": {"rules": [[[["b", 1]], 1], [[], 0]]}}}


def test_same_bytes_return_the_same_model(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps(_TREE_DOC))
    second.write_text(json.dumps(_TREE_DOC))
    model = load_model_file(str(first))
    assert load_model_file(str(first)) is model
    assert load_model_file(str(second)) is model  # another path, the same bytes


def test_rewritten_file_is_reloaded(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_TREE_DOC))
    tree = load_model_file(str(path))
    path.write_text(json.dumps(_LIST_DOC))
    model = load_model_file(str(path))
    assert isinstance(model, x.DecisionList) and model == load_model(_LIST_DOC)
    path.write_text(json.dumps(_TREE_DOC))
    assert load_model_file(str(path)) == tree


def test_failed_load_leaves_the_last_model(tmp_path):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(_TREE_DOC))
    bad.write_text(json.dumps({"universe": ["a"], "model": {"dt": 5}}))
    model = load_model_file(str(good))
    with pytest.raises(x.ModelError):
        load_model_file(str(bad))
    with pytest.raises(x.ModelError):  # not remembered: refused again
        load_model_file(str(bad))
    assert load_model_file(str(good)) is model
