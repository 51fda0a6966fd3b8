from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import xplain as x
from xplain import cli, explain_rules
from xplain.cli import main
from xplain.modelio import dump_model, load_example_file, load_model, load_model_file

from generators import (
    random_circuit,
    random_ensemble,
    random_example,
    random_hitting_set,
    random_model,
    random_universe,
    wide_set_doc,
)

FIG_DOC = {
    "universe": ["x", "y", "z"],
    "model": {
        "dl": {
            "rules": [
                [[["x", 1], ["y", 1]], 0],
                [[["x", 0], ["z", 0]], 1],
                [[["y", 0], ["z", 1]], 0],
                [[], 1],
            ]
        }
    },
}


@pytest.fixture
def files(tmp_path):
    model = tmp_path / "fig.json"
    model.write_text(json.dumps(FIG_DOC))
    example = tmp_path / "e.json"
    example.write_text(json.dumps({"assign": {"x": 0, "y": 0, "z": 1}}))
    return tmp_path, str(model), str(example)


def run(capsys, argv):
    code = main(["--quiet", *argv])
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def test_classify(files, capsys):
    _, model, example = files
    code, payload = run(capsys, ["classify", "--model", model, "--example", example])
    assert code == 0
    assert payload == {"class": 0}


def test_explain_minimum_contrastive(files, capsys):
    _, model, example = files
    code, payload = run(
        capsys,
        ["explain", "--model", model, "--kind", "lcxp", "--min", "card",
         "--k", "3", "--example", example],
    )
    assert code == 0
    assert payload == {"size": 1, "witness": ["y"]}


def test_explain_abductive_subset(files, capsys):
    _, model, example = files
    code, payload = run(
        capsys,
        ["explain", "--model", model, "--kind", "laxp", "--min", "subset",
         "--example", example],
    )
    assert code == 0
    assert payload == {"size": 2, "witness": ["y", "z"]}


def test_explain_none_exists(files, capsys, tmp_path):
    constant = tmp_path / "const.json"
    constant.write_text(
        json.dumps({"universe": ["a"], "model": {"dl": {"rules": [[[], 0]]}}})
    )
    example = tmp_path / "e0.json"
    example.write_text(json.dumps({"assign": {"a": 0}}))
    code, payload = run(
        capsys,
        ["explain", "--model", str(constant), "--kind", "lcxp", "--min", "card",
         "--example", str(example)],
    )
    assert code == 3
    assert payload == {"size": None, "witness": None}


def test_verify_exit_codes(files, capsys, tmp_path):
    _, model, example = files
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"features": ["y", "z"]}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"features": ["x"]}))
    code, payload = run(
        capsys,
        ["verify", "--model", model, "--kind", "laxp", "--example", example,
         "--candidate", str(good)],
    )
    assert (code, payload) == (0, {"result": True})
    code, payload = run(
        capsys,
        ["verify", "--model", model, "--kind", "laxp", "--example", example,
         "--candidate", str(bad)],
    )
    assert (code, payload) == (1, {"result": False})


def test_verify_global_candidate(files, capsys, tmp_path):
    _, model, _ = files
    tau = tmp_path / "tau.json"
    tau.write_text(json.dumps({"assign": {"x": 1, "y": 1}}))
    code, payload = run(
        capsys,
        ["verify", "--model", model, "--kind", "gaxp", "--class", "0",
         "--candidate", str(tau)],
    )
    assert (code, payload) == (0, {"result": True})


def test_params(files, capsys):
    _, model, _ = files
    code, payload = run(capsys, ["params", "--model", model])
    assert code == 0
    assert payload == {
        "terms_elem": 4, "term_size": 2, "size_elem": 10, "model_size": 10,
    }


def test_oracle(files, capsys):
    _, model, example = files
    code, payload = run(
        capsys, ["oracle", "--model", model, "--kind", "lcxp", "--example", example]
    )
    assert code == 0
    assert payload == {"size": 1, "witness": ["y"]}


def test_hom_on_constant_model(capsys, tmp_path):
    constant = tmp_path / "const0.json"
    constant.write_text(
        json.dumps({"universe": ["a", "b"], "model": {"ds": {"terms": [], "default": 0}}})
    )
    code, payload = run(capsys, ["hom", "--model", str(constant)])
    assert (code, payload) == (1, {"result": False})


def test_hom_suite(files, capsys):
    _, model, _ = files
    code, payload = run(capsys, ["hom-suite", "--model", model])
    assert code == 0
    assert payload["all_equal"] and payload["khom_equal"]
    assert payload["statements"] == [False] * 9


def test_translate_round_trip(files, capsys, tmp_path):
    _, model, _ = files
    out = tmp_path / "circuit.json"
    code, payload = run(
        capsys, ["translate", "--model", model, "--class", "0", "--out", str(out)]
    )
    assert code == 0
    assert payload["maj_gates"] == 0
    circuit = load_model_file(str(out))
    dl = load_model_file(model)
    for mask in range(8):
        e = x.Example.from_mask(dl.universe, mask)
        assert x.classify(circuit, e) == (x.classify(dl, e) == 0)


def test_classify_through_circuit_file(files, capsys, tmp_path):
    _, model, example = files
    out = tmp_path / "circuit.json"
    run(capsys, ["translate", "--model", model, "--class", "0", "--out", str(out)])
    code, payload = run(
        capsys, ["classify", "--model", str(out), "--example", example]
    )
    assert code == 0
    assert payload == {"class": 1}  # the class-0 recognizer fires on e


def _compact(doc) -> str:
    """The one form of every document the CLI writes: compact JSON with
    sorted keys and one trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("c", [0, 1])
@pytest.mark.parametrize("family", ["dt", "ds", "dl", "ens-dt", "ens-ds", "ens-dl"])
def test_translate_writes_the_compact_sorted_circuit(family, c, capsys, tmp_path):
    rng = Random(f"{family}-{c}")
    u = random_universe(rng, 5)
    if family.startswith("ens-"):
        model = random_ensemble(rng, u, family[4:], 3)
    else:
        model = random_model(rng, u, family)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dump_model(model)))
    out = tmp_path / "circuit.json"
    code, _ = run(capsys, ["translate", "--model", str(path), "--class", str(c),
                           "--out", str(out)])
    assert code == 0
    circuit = x.translate(model, c)[0]
    assert out.read_text() == _compact(dump_model(circuit))
    assert load_model_file(str(out)) == circuit


@pytest.mark.parametrize("kind, body, mode", [
    ("hitting-set", {"universe": ["u", "v", "w"], "sets": [["u", "v"], ["w"]], "k": 2},
     "subset-dl"),
    ("mcc-unary", {"classes": [["a"], ["b"]], "edges": [["a", "b"]], "k": 2}, "subset"),
])
def test_gen_gadget_writes_the_compact_sorted_instance(kind, body, mode, capsys, tmp_path):
    instance = tmp_path / "in.json"
    instance.write_text(json.dumps(body))
    out = tmp_path / "gadget.json"
    code, _ = run(capsys, ["gen-gadget", "--kind", kind, "--in", str(instance),
                           "--out", str(out), "--mode", mode])
    assert code == 0
    if kind == "hitting-set":
        inst = x.hitting_set_gadget(body["universe"], [frozenset(s) for s in body["sets"]],
                                    body["k"], mode)
    else:
        graph = x.ColouredGraph((("a",), ("b",)), (("a", "b"),))
        inst = x.mcc_unary_ensemble_gadget(graph, body["k"], mode)
    doc = {
        "model": dump_model(inst.model),
        "queries": [cli._query_to_json(q, inst.model) for q in inst.queries],
        "truth": inst.truth,
        "provenance": inst.provenance,
        "meta": inst.meta,
    }
    text = out.read_text()
    assert text == cli._dumps(doc) + "\n" == _compact(doc)
    assert load_model(json.loads(text)["model"]) == inst.model


@pytest.mark.parametrize("argv", [
    ["translate", "--model", "MODEL", "--class", "1", "--out", "OUT"],
    ["gen-gadget", "--kind", "hitting-set", "--in", "GADGET", "--out", "OUT"],
], ids=["translate", "gen-gadget"])
def test_failed_encode_leaves_the_out_file_as_it_was(argv, files, capsys, monkeypatch,
                                                     tmp_path):
    _, model, _ = files
    gadget = tmp_path / "hs.json"
    gadget.write_text(json.dumps({"universe": ["u"], "sets": [["u"]], "k": 1}))
    out = tmp_path / "out.json"
    out.write_bytes(b'{"earlier": "document"}\n')
    paths = {"MODEL": model, "GADGET": str(gadget), "OUT": str(out)}

    def failing_dumps(obj):
        raise ValueError("encode failed")

    monkeypatch.setattr(cli, "_dumps", failing_dumps)
    code = main(["--quiet", *(paths.get(a, a) for a in argv)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "encode failed" in captured.err
    assert out.read_bytes() == b'{"earlier": "document"}\n'


def test_gen_gadget(files, capsys, tmp_path):
    instance = tmp_path / "hs.json"
    instance.write_text(
        json.dumps({"universe": ["u", "v"], "sets": [["u"], ["v"]], "k": 1})
    )
    out = tmp_path / "gadget.json"
    code, payload = run(
        capsys,
        ["gen-gadget", "--kind", "hitting-set", "--in", str(instance),
         "--out", str(out), "--mode", "subset-ds"],
    )
    assert code == 0
    assert payload["truth"] is False
    doc = json.loads(out.read_text())
    assert doc["truth"] is False
    assert len(doc["queries"]) == 4
    # the emitted model document is loadable on its own
    model_doc = tmp_path / "model_only.json"
    model_doc.write_text(json.dumps(doc["model"]))
    loaded = load_model_file(str(model_doc))
    assert x.measure(loaded).terms_elem == 2


@pytest.mark.parametrize(
    "kind, doc",
    [
        ("mcc-odt", {"classes": 5, "edges": []}),
        ("hitting-set", {"universe": ["u"], "sets": 5, "k": 1}),
        ("taut", {"terms": 5, "vars": ["x"]}),
        ("hitting-set", {"universe": ["u"], "sets": [["u"]], "k": 1.5}),
        ("taut", {"terms": [[["x", 0.5]]], "vars": ["x"]}),
    ],
    ids=["classes-not-a-list", "sets-not-a-list", "terms-not-a-list",
         "fractional-k", "fractional-taut-bit"],
)
def test_wrongly_typed_gadget_input_is_an_error(kind, doc, capsys, tmp_path):
    instance = tmp_path / "in.json"
    instance.write_text(json.dumps(doc))
    code = main(["--quiet", "gen-gadget", "--kind", kind, "--in", str(instance),
                 "--out", str(tmp_path / "out.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "unexpected" not in lines[0]  # a ModelError, not a crash


def test_gen_gadget_ordered_tree(capsys, tmp_path):
    graph = {"classes": [["a", "b"], ["c"]], "edges": [["a", "c"]]}
    instance = tmp_path / "g.json"
    instance.write_text(json.dumps(graph))
    out = tmp_path / "gadget.json"
    code, payload = run(capsys, ["gen-gadget", "--kind", "mcc-odt", "--in", str(instance),
                                 "--out", str(out)])
    assert (code, payload) == (0, {"truth": True, "queries": 1,
                                   "provenance": "mcc-odt-gaxp"})
    doc = json.loads(out.read_text())
    loaded = load_model(doc["model"])
    inst = x.mcc_odt_gaxp_gadget(
        x.ColouredGraph((("a", "b"), ("c",)), (("a", "c"),)), 2)
    assert loaded.universe == inst.model.universe
    # every example is classified alike: equal truth tables
    assert x.truth_table(loaded) == x.truth_table(inst.model)
    assert doc["queries"] == [{"kind": "gaxp", "class": 0, "k": 2}]
    assert x.answer_query(loaded, x.Query("gaxp", 0, 2)) is doc["truth"] is True


def test_gen_gadget_graph(files, capsys, tmp_path):
    instance = tmp_path / "g.json"
    instance.write_text(
        json.dumps({"classes": [["a"], ["b"]], "edges": [["a", "b"]], "k": 2})
    )
    out = tmp_path / "gadget.json"
    code, payload = run(
        capsys,
        ["gen-gadget", "--kind", "mcc-unary", "--in", str(instance),
         "--out", str(out), "--mode", "subset"],
    )
    assert code == 0 and payload["truth"] is True


def test_repeated_runs_are_byte_identical(files, capsys):
    _, model, example = files
    main(["--quiet", "explain", "--model", model, "--kind", "lcxp",
          "--min", "card", "--example", example])
    first = capsys.readouterr().out
    main(["--quiet", "explain", "--model", model, "--kind", "lcxp",
          "--min", "card", "--example", example])
    second = capsys.readouterr().out
    assert first == second


def test_parser_is_built_once(files, capsys, monkeypatch):
    """Canonical requests are read without argparse; the first request the
    reader declines builds the parser, and later ones reuse it."""
    _, model, example = files
    built = []
    real_build_parser = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return real_build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    for _ in range(3):
        code, payload = run(capsys, ["classify", "--model", model, "--example", example])
        assert code == 0 and payload == {"class": 0}
    assert built == []
    for argv in (["classify", "--help"], ["classify", "--model", model],
                 ["params", "--help"]):
        with pytest.raises(SystemExit):
            main(argv)
        assert len(built) == 1
    capsys.readouterr()
    code, payload = run(capsys, ["classify", f"--model={model}", "--example", example])
    assert code == 0 and payload == {"class": 0}
    assert len(built) == 1


_READ = [
    ["classify", "--model", "m.json", "--example", "e.json"],
    ["--quiet", "params", "--model", "m.json"],
    ["verify", "--candidate", "c.json", "--kind", "gaxp", "--class", "1", "--model", "m"],
    ["explain", "--model", "m", "--kind", "lcxp", "--min", "card", "--k", "2",
     "--example", "e", "--algo", "enum"],
    ["explain", "--model", "m", "--kind", "laxp", "--min", "card", "--k", "5",
     "--k", "0", "--kind", "gcxp", "--class", "0"],
    ["oracle", "--model", "", "--kind", "laxp", "--example", "e"],
    ["translate", "--model", "m", "--class", "0", "--out", "c.json"],
    ["--quiet", "hom", "--model", "m", "--k", "3"],
    ["hom-suite", "--model", "m"],
    ["gen-gadget", "--kind", "mcc-unary", "--in", "g.json", "--out", "o.json",
     "--mode", "subset", "--family", "dl"],
]


@pytest.mark.parametrize("argv", _READ, ids=[
    "classify", "quiet-params", "verify-class", "explain-example", "explain-repeated-flags",
    "oracle-empty-model", "translate", "quiet-hom", "hom-suite", "gen-gadget"])
def test_reader_reads_canonical_requests(argv):
    args = cli._read_args(argv)
    assert args is not None
    assert args == cli._parser().parse_args(argv)


_FLAGS = sorted({o.flag for c in cli.COMMANDS.values() for o in c.options})
_ODD_TOKENS = ["-h", "--help", "--", "--quiet", "--mod", "--ex", "--cl", "--al", "--k=2",
               "--kind=laxp", "--model=m.json", "-k", "-1", "-", "-x", "frobnicate"]
_JUNK_VALUES = ["", "-1", "-", "-x", "--model", "-h", "--", "abc", "1.5", " 1", "2",
                "1_0", "laxp", "card", "enum", "ds", "classify", "m.json"]


def _good_value(option) -> st.SearchStrategy:
    if option.choices is not None:
        return st.sampled_from([str(c) for c in option.choices])
    if option.type is int:
        return st.integers(0, 30).map(str)
    return st.sampled_from(["m.json", "dir/e.json", "subset", "x y"])


@st.composite
def _argvs(draw):
    """Mostly canonical argvs, with tokens inserted and dropped: flags of
    every subcommand, abbreviations, ``=`` forms, ``-h``, ``--``, values
    starting with ``-``, junk values and repeated flags."""
    argv = ["--quiet"] if draw(st.booleans()) else []
    name = draw(st.sampled_from([*cli.COMMANDS, "frobnicate", "-h"]))
    argv.append(name)
    options = cli.COMMANDS[name].options if name in cli.COMMANDS else ()
    for o in draw(st.permutations(options)):
        # a required option is left out now and then, any other half the time
        if draw(st.integers(0, 7)) > (0 if o.required else 3):
            junk = draw(st.integers(0, 3)) == 0
            value = draw(st.sampled_from(_JUNK_VALUES) if junk else _good_value(o))
            argv += [o.flag, value]
    for _ in range(draw(st.integers(0, 3))):
        if options and draw(st.booleans()):  # a repeated or foreign flag
            o = draw(st.sampled_from(options))
            tokens = [o.flag, draw(_good_value(o))]
        else:
            tokens = [draw(st.sampled_from([*_FLAGS, *_ODD_TOKENS, *_JUNK_VALUES]))]
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = tokens
    if draw(st.integers(0, 3)) == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


@given(argv=_argvs())
@settings(max_examples=600, deadline=None)
def test_reader_agrees_with_argparse(argv):
    """The reader either declines an argv or returns the namespace argparse
    returns for it; argparse never refuses an argv the reader read."""
    args = cli._read_args(argv)
    if args is None:
        return
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        try:
            expected = cli._parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"the reader read {argv}, which argparse refuses")
    assert args == expected


def test_main_without_argv_reads_sys_argv(files, capsys, monkeypatch):
    _, model, example = files
    argv = ["--quiet", "explain", "--model", model, "--kind", "laxp", "--min", "card",
            "--example", example]
    monkeypatch.setattr(sys, "argv", ["xplain", *argv])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["size"] > 0
    # a line the reader declines is parsed by argparse from the same list
    monkeypatch.setattr(sys, "argv", ["xplain", *argv, "--k=0"])
    assert main() == 3
    assert json.loads(capsys.readouterr().out) == {"size": None, "witness": None}


def test_consecutive_calls_share_no_state(files, capsys):
    _, model, example = files
    laxp_card = ["explain", "--model", model, "--kind", "laxp", "--min", "card",
                 "--example", example]
    # a budget of 0 admits no explanation; the next call without --k must
    # see k = None (the whole universe), not the 0 of the call before
    assert run(capsys, [*laxp_card, "--k", "0"]) == (3, {"size": None, "witness": None})
    assert cli._parser().parse_args(laxp_card).k is None
    code, payload = run(capsys, laxp_card)
    assert code == 0 and payload["size"] > 0

    # --quiet does not stick: the next call reports its elapsed time
    assert main(["explain", "--model", model, "--kind", "lcxp", "--min", "card",
                 "--example", example]) == 0
    assert "elapsed_ms=" in capsys.readouterr().err

    # an argparse refusal leaves the parser able to answer the next request
    with pytest.raises(SystemExit) as exc:
        main(["explain", "--model", model, "--kind", "bogus", "--min", "card"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, payload = run(capsys, ["classify", "--model", model, "--example", example])
    assert code == 0 and payload == {"class": 0}


def test_rewritten_model_file_is_answered_anew(files, capsys):
    _, model, example = files
    laxp = ["explain", "--model", model, "--kind", "laxp", "--min", "subset",
            "--example", example]
    assert run(capsys, laxp) == (0, {"size": 2, "witness": ["y", "z"]})
    # the same path now holds a constant list: its empty set suffices
    with open(model, "w") as fh:
        json.dump({"universe": ["x", "y", "z"], "model": {"dl": {"rules": [[[], 0]]}}}, fh)
    assert run(capsys, laxp) == (0, {"size": 0, "witness": []})


def test_missing_file_is_an_error(capsys):
    code = main(["--quiet", "classify", "--model", "/nonexistent.json",
                 "--example", "/nonexistent.json"])
    assert code == 2


def test_malformed_model_is_an_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"universe": ["a"], "model": {"dt": {"nodes": []}}}))
    e = tmp_path / "e.json"
    e.write_text(json.dumps({"assign": {"a": 0}}))
    code = main(["--quiet", "classify", "--model", str(bad), "--example", str(e)])
    assert code == 2


def test_unknown_model_tag_is_an_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"universe": ["a"], "model": {"mystery": {}}}))
    code = main(["--quiet", "params", "--model", str(bad)])
    assert code == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"universe": ["a"], "model": {"dt": {"nodes": [5]}}},
        {"universe": ["a"], "model": {"ds": {"terms": 3, "default": 0}}},
        {"universe": ["a"], "model": {"ensemble": {"family": "dl", "elements": 5}}},
        {"universe": ["a"], "model": {"circuit": {"gates": [1], "output": 0,
                                                  "inputs": {}}}},
    ],
    ids=["tree-node-not-an-object", "set-terms-not-a-list",
         "ensemble-elements-not-a-list", "circuit-gate-not-an-object"],
)
def test_wrongly_typed_document_is_an_error(doc, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["--quiet", "params", "--model", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "unexpected" not in lines[0]  # a ModelError, not a crash


_ONE_LEAF = {"universe": ["a"], "model": {"dt": {"nodes": [{"leaf": 0}]}}}


@pytest.mark.parametrize(
    "model, bit",
    [
        ({"universe": ["a"], "model": {"dt": {"nodes": [{"leaf": 0.6}]}}}, 0),
        (_ONE_LEAF, 0.9),
        ({"universe": ["a"], "model": {"ds": {"terms": [[["a", 1.5]]], "default": 0}}}, 0),
        ({"universe": ["a"], "model": {"ds": {"terms": [], "default": 0.2}}}, 0),
        ({"universe": ["a"], "model": {"dt": {"nodes": [{"leaf": True}]}}}, 0),
    ],
    ids=["leaf-label", "example-bit", "literal-bit", "default-class", "bool-leaf"],
)
def test_fractional_value_is_refused_not_truncated(model, bit, capsys, tmp_path):
    model_file, example = tmp_path / "m.json", tmp_path / "e.json"
    model_file.write_text(json.dumps(model))
    example.write_text(json.dumps({"assign": {"a": bit}}))
    code = main(["--quiet", "classify", "--model", str(model_file), "--example", str(example)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "unexpected" not in captured.err  # a ModelError, not a crash


@pytest.mark.parametrize(
    "doc",
    [{"features": 5}, [1], {"features": "xy"}, {"features": [["x"]]}, {}],
    ids=["features-not-a-list", "document-not-an-object", "features-a-string",
         "feature-not-a-name", "features-missing"],
)
def test_wrongly_typed_candidate_is_an_error(doc, files, capsys):
    tmp, model, example = files
    candidate = tmp / "candidate.json"
    candidate.write_text(json.dumps(doc))
    code = main(["--quiet", "verify", "--model", model, "--kind", "laxp",
                 "--example", example, "--candidate", str(candidate)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "unexpected" not in lines[0]  # a ModelError, not a crash


_TREE_DOC = {
    "universe": ["x", "y", "z"],
    "model": {"dt": {"root": 0, "nodes": [
        {"test": "x", "if0": 1, "if1": 2}, {"leaf": 0}, {"leaf": 1}]}},
}


@pytest.mark.parametrize(
    "doc, argv",
    [
        (_TREE_DOC, ["explain", "--kind", "lcxp", "--min", "card", "--example"]),
        (_TREE_DOC, ["explain", "--kind", "laxp", "--min", "card", "--example"]),
        (_TREE_DOC, ["explain", "--kind", "gaxp", "--min", "card", "--class", "1"]),
        (FIG_DOC, ["explain", "--kind", "laxp", "--min", "card", "--example"]),
        (FIG_DOC, ["explain", "--kind", "lcxp", "--min", "card", "--example"]),
        (FIG_DOC, ["explain", "--kind", "lcxp", "--min", "card", "--algo", "enum",
                   "--example"]),
        (FIG_DOC, ["explain", "--kind", "gaxp", "--min", "card", "--class", "1"]),
        (_TREE_DOC, ["hom"]),
        (FIG_DOC, ["hom"]),
    ],
    ids=["tree-lcxp", "tree-laxp", "tree-gaxp", "rules-laxp-oracle",
         "rules-lcxp-branch", "rules-lcxp-enum", "rules-gaxp-oracle", "hom-tree",
         "hom-rules"],
)
def test_negative_budget_is_refused_on_every_route(doc, argv, files, capsys):
    tmp, _, example = files
    model = tmp / "model.json"
    model.write_text(json.dumps(doc))
    if argv[-1] == "--example":
        argv = [*argv, example]
    code = main(["--quiet", *argv, "--model", str(model), "--k", "-1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: k must be nonnegative\n"


_FIG_ENSEMBLE_DOC = {
    "universe": FIG_DOC["universe"],
    "model": {"ensemble": {"family": "dl", "elements": [FIG_DOC["model"]] * 3}},
}


@pytest.mark.parametrize("doc", [FIG_DOC, _FIG_ENSEMBLE_DOC], ids=["list", "ensemble"])
def test_a_huge_budget_is_answered_at_once(doc, files, capsys, monkeypatch):
    """The branching search clamps --k to the 3 features the model reads,
    so a budget of 10**12 searches as --k 3 does and never sizes the work
    of the search or of its bound check.  The answer takes milliseconds;
    the one-second bound only catches a budget that sizes the work."""
    tmp, _, example = files
    model = tmp / "model.json"
    model.write_text(json.dumps(doc))
    argv = ["explain", "--model", str(model), "--kind", "lcxp", "--min", "card",
            "--example", example, "--k"]
    expected = run(capsys, [*argv, "3"])
    assert expected == (0, {"size": 1, "witness": ["y"]})
    searches = []  # the stats of each branching search the CLI runs

    def recorded():
        searches.append(x.BranchStats())
        return searches[-1]

    monkeypatch.setattr(explain_rules, "BranchStats", recorded)
    start = time.perf_counter()
    assert run(capsys, [*argv, "1000000000000"]) == expected
    assert time.perf_counter() - start < 1.0
    assert [stats.budget for stats in searches] == [3]


_AB_SET_DOC = {
    "universe": ["a", "b", "c"],
    "model": {"ds": {"terms": [[["a", 1], ["b", 1]]], "default": 0}},
}
_AB_TREE_DOC = {
    "universe": ["a", "b", "c"],
    "model": {"dt": {"root": 0, "nodes": [
        {"test": "a", "if0": 1, "if1": 2}, {"leaf": 0},
        {"test": "b", "if0": 3, "if1": 4}, {"leaf": 0}, {"leaf": 1}]}},
}


@pytest.mark.parametrize("doc", [_AB_SET_DOC, _AB_TREE_DOC], ids=["set", "tree"])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_subset_route_takes_no_budget(doc, k, capsys, tmp_path):
    """a and b -> 1: flipping a alone changes the class of a=1, b=1, c=0,
    so {a} is an inclusion-minimal contrastive explanation whatever --k says."""
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    example = tmp_path / "e.json"
    example.write_text(json.dumps({"assign": {"a": 1, "b": 1, "c": 0}}))
    code, payload = run(capsys, ["explain", "--model", str(model), "--kind", "lcxp",
                                 "--min", "subset", "--example", str(example), "--k", k])
    assert (code, payload) == (0, {"size": 1, "witness": ["a"]})


@pytest.mark.parametrize("kind, minimum, target", [
    ("laxp", "card", None), ("gaxp", "card", "1"), ("gcxp", "card", "1"),
    ("gaxp", "subset", "1"), ("gaxp", "card", "0"),
])
def test_rule_explanations_above_the_oracle_cap(kind, minimum, target, capsys,
                                                monkeypatch, tmp_path):
    """18 features: above the oracle's caps of 16 (local) and 12 (global),
    within the verify cap of 24.  The hitting-set search answers, with a
    witness that verifies and stops verifying when any one part is removed."""
    monkeypatch.delenv("XPLAIN_BRUTE_CAP", raising=False)
    doc = wide_set_doc(18, 8, seed=5)
    model_file = tmp_path / "wide.json"
    model_file.write_text(json.dumps(doc))
    model = load_model(doc)
    u = model.universe
    argv = ["explain", "--model", str(model_file), "--kind", kind, "--min", minimum]
    if target is None:
        e = x.Example(u, tuple(Random(6).randint(0, 1) for _ in range(len(u))))
        example = tmp_path / "e.json"
        example.write_text(json.dumps({"assign": dict(zip(u.names, e.bits))}))
        argv += ["--example", str(example)]
    else:
        argv += ["--class", target]
    code, payload = run(capsys, argv)
    assert code == 0
    if target is None:
        goal, witness = e, frozenset(u.index(name) for name in payload["witness"])
    else:
        goal = int(target)
        witness = x.PartialExample(
            u, tuple((u.index(name), b) for name, b in payload["witness"].items()))
    assert x.verify(model, kind, goal, witness)
    assert x.oracle_subset_min_check(model, kind, goal, witness)


def test_contrastive_minimum_past_the_product_ceiling(capsys, tmp_path):
    """Three full depth-7 trees of the parity of x0..x6, each testing the
    features in another order, are three ballots and project a product of
    2**21 leaves, past the ceiling of 10**6: ``lcxp --min card`` enumerates
    flips instead, and any one flip of x0..x6 changes the vote."""
    def parity_tree(features: list[str]) -> dict:
        nodes: list[dict] = []

        def build(depth: int, ones: int) -> int:
            at = len(nodes)
            nodes.append({"leaf": ones % 2})
            if depth < len(features):
                nodes[at] = {"test": features[depth], "if0": build(depth + 1, ones),
                             "if1": build(depth + 1, ones + 1)}
            return at

        return {"dt": {"root": build(0, 0), "nodes": nodes}}

    features = [f"x{i}" for i in range(7)]
    orders = (features, features[::-1], features[3:] + features[:3])
    doc = {"universe": [f"x{i}" for i in range(8)],
           "model": {"ensemble": {"family": "dt",
                                  "elements": [parity_tree(o) for o in orders]}}}
    with pytest.raises(x.CapExceeded):
        x.product_dt(load_model(doc))
    model = tmp_path / "ens.json"
    model.write_text(json.dumps(doc))
    example = tmp_path / "e.json"
    example.write_text(json.dumps({"assign": {f"x{i}": 0 for i in range(8)}}))
    code, payload = run(capsys, ["explain", "--model", str(model), "--kind", "lcxp",
                                 "--min", "card", "--example", str(example)])
    assert (code, payload) == (0, {"size": 1, "witness": ["x0"]})


def _complete_tree(rng: Random, u: x.FeatureUniverse, depth: int) -> x.DecisionTree:
    """A random complete tree of the given depth, no feature twice on a path."""
    nodes: list = []

    def build(level: int, used: frozenset) -> int:
        if level == depth:
            nodes.append(x.Leaf(rng.randint(0, 1)))
        else:
            f = rng.choice([f for f in range(len(u)) if f not in used])
            lo = build(level + 1, used | {f})
            hi = build(level + 1, used | {f})
            nodes.append(x.Split(f, lo, hi))
        return len(nodes) - 1

    root = build(0, frozenset())
    return x.DecisionTree(u, tuple(nodes), root)


@pytest.mark.parametrize("kind, minimum, target", [
    ("laxp", "card", None), ("gaxp", "card", "0"), ("gaxp", "card", "1"),
    ("gcxp", "card", "0"), ("gcxp", "card", "1"), ("laxp", "subset", None),
    ("lcxp", "subset", None), ("gaxp", "subset", "0"), ("gaxp", "subset", "1"),
    ("gcxp", "subset", "0"), ("gcxp", "subset", "1"),
])
def test_tree_ensemble_past_the_product_ceiling(kind, minimum, target, capsys,
                                                monkeypatch, tmp_path):
    """Three complete depth-7 trees over 12 features project a product of
    2**21 leaves, past the ceiling of 10**6: the engines of rule models
    answer, a minimum with the oracle's witness, an inclusion-minimal
    explanation with one the oracle certifies."""
    monkeypatch.delenv("XPLAIN_BRUTE_CAP", raising=False)
    rng = Random(3)
    u = x.FeatureUniverse(tuple(f"x{i}" for i in range(12)))
    model = x.Ensemble(u, tuple(_complete_tree(rng, u, 7) for _ in range(3)))
    with pytest.raises(x.CapExceeded):
        x.product_dt(model)
    model_file = tmp_path / "ens.json"
    model_file.write_text(json.dumps(dump_model(model)))
    argv = ["--model", str(model_file), "--kind", kind]
    if target is None:
        e = x.Example(u, tuple(rng.randint(0, 1) for _ in range(len(u))))
        example = tmp_path / "e.json"
        example.write_text(json.dumps({"assign": dict(zip(u.names, e.bits))}))
        argv += ["--example", str(example)]
    else:
        argv += ["--class", target]
    code, payload = run(capsys, ["explain", "--min", minimum, *argv])
    assert code == 0
    if minimum == "card":
        assert (code, payload) == run(capsys, ["oracle", *argv])
        return
    if target is None:
        goal, witness = e, frozenset(u.index(name) for name in payload["witness"])
    else:
        goal = int(target)
        witness = x.PartialExample(
            u, tuple((u.index(name), b) for name, b in payload["witness"].items()))
    assert x.oracle_subset_min_check(model, kind, goal, witness)


def _deep_path_tree_doc(depth: int, n: int) -> dict:
    """A path of ``depth`` tests of x(j mod n): a 0 ends in a class-0 leaf, a
    1 goes on to the next test, and the last test's 1-child is a class-1
    leaf.  The class is 1 exactly when x0..x(n-1) are all 1 (with n < depth
    the later tests repeat features that are already 1 on the path)."""
    nodes: list[dict] = []
    for j in range(depth):  # test j at 2j, its 0-leaf at 2j + 1
        nodes.append({"test": f"x{j % n}", "if0": 2 * j + 1, "if1": 2 * j + 2})
        nodes.append({"leaf": 0})
    nodes.append({"leaf": 1})
    return {"universe": [f"x{i}" for i in range(n)],
            "model": {"dt": {"root": 0, "nodes": nodes}}}


@pytest.mark.parametrize("n, ensemble",
                         [(1500, False), (20, False), (12, False), (20, True), (1500, True)],
                         ids=["distinct-features", "repeated-features", "table-width",
                              "one-element-ensemble", "one-element-ensemble-distinct-features"])
def test_deep_path_tree_is_answered(n, ensemble, capsys, tmp_path):
    doc = _deep_path_tree_doc(1500, n)
    if ensemble:  # answered through the product tree of one tree
        doc["model"] = {"ensemble": {"family": "dt", "elements": [doc["model"]]}}
    model = tmp_path / "deep.json"
    model.write_text(json.dumps(doc))
    names = [f"x{i}" for i in range(n)]
    example = tmp_path / "e.json"
    example.write_text(json.dumps({"assign": {f: 1 for f in names}}))  # class 1
    candidate = tmp_path / "cand.json"
    candidate.write_text(json.dumps({"features": names}))
    common = ["--model", str(model)]

    # flipping x0 alone reaches the first class-0 leaf
    code, payload = run(capsys, ["explain", *common, "--kind", "lcxp", "--min", "card",
                                 "--example", str(example)])
    assert (code, payload) == (0, {"size": 1, "witness": ["x0"]})
    # any single 0 forces class 0; class 1 needs all n features set
    code, payload = run(capsys, ["explain", *common, "--kind", "gaxp", "--min", "card",
                                 "--k", "2", "--class", "0"])
    assert (code, payload) == (0, {"size": 1, "witness": {"x0": 0}})
    code, payload = run(capsys, ["explain", *common, "--kind", "gaxp", "--min", "card",
                                 "--k", "2", "--class", "1"])
    assert (code, payload) == (3, {"size": None, "witness": None})
    code, payload = run(capsys, ["verify", *common, "--kind", "laxp",
                                 "--example", str(example), "--candidate", str(candidate)])
    assert (code, payload) == (0, {"result": True})
    if n > 12:
        return  # wider than the oracle's global cap
    # the table-based checks walk the whole tree
    code, payload = run(capsys, ["hom", *common])
    assert (code, payload) == (0, {"result": True})
    code, payload = run(capsys, ["oracle", *common, "--kind", "gaxp", "--class", "0"])
    assert (code, payload) == (0, {"size": 1, "witness": {"x0": 0}})
    code, payload = run(capsys, ["hom-suite", *common])
    assert code == 0


def test_long_gate_chain_listed_output_first(capsys, tmp_path):
    """1500 NOT gates whose ids run from the output down to the IN gate:
    sorting them into topological order must not recurse per gate."""
    depth = 1500
    gates = [{"id": depth, "kind": "IN"}]
    gates += [{"id": i, "kind": "NOT", "in": [i + 1]} for i in range(depth - 1, -1, -1)]
    model = tmp_path / "chain.json"
    model.write_text(json.dumps({
        "universe": ["a"],
        "model": {"circuit": {"gates": gates, "output": 0, "inputs": {"a": depth}}},
    }))
    code, payload = run(capsys, ["params", "--model", str(model)])
    assert (code, payload) == (0, {"model_size": depth + 1})
    example = tmp_path / "e.json"
    example.write_text(json.dumps({"assign": {"a": 1}}))
    code, payload = run(capsys, ["classify", "--model", str(model), "--example", str(example)])
    assert (code, payload) == (0, {"class": 1})  # an even number of negations


@pytest.mark.parametrize("minimum", ["card", "subset"])
def test_deep_rule_list_is_answered(minimum, capsys, tmp_path):
    """1100 rules f_i = 0 -> 0 guard the one class-1 rule: the only routing
    flips all 1100 guards, one branching step each, so the branching search
    must not recurse per flip."""
    depth, n = 1100, 1200
    names = [f"f{i}" for i in range(n)]
    rules = [[[[f"f{i}", 0]], 0] for i in range(depth)]
    rules += [[[[f"f{depth}", 0]], 1], [[], 0]]
    model = tmp_path / "deep.json"
    model.write_text(json.dumps({"universe": names, "model": {"dl": {"rules": rules}}}))
    example = tmp_path / "e.json"
    example.write_text(json.dumps({"assign": {f: 0 for f in names}}))  # class 0
    code, payload = run(capsys, ["explain", "--model", str(model), "--kind", "lcxp",
                                 "--min", minimum, "--example", str(example)])
    assert (code, payload) == (0, {"size": depth, "witness": sorted(names[:depth])})


def _wide_rules_doc(body: dict) -> dict:
    names = [f"x{i}" for i in range(24)]
    return {"universe": names, "model": body}


@pytest.mark.parametrize("body, expected", [
    # x23 = 0 fires a term (class 1); the all-one example fires none (class 0)
    ({"ds": {"terms": [[["x0", 1], ["x1", 1], ["x2", 0]], [["x23", 0]]],
             "default": 0}}, False),
    # every rule says class 1, so the empty set fixes the class
    ({"dl": {"rules": [[[["x0", 1], ["x5", 0]], 1], [[["x12", 1]], 1], [[], 1]]}},
     True),
], ids=["set-false", "one-class-list-true"])
def test_verify_at_the_free_feature_cap(body, expected, capsys, monkeypatch, tmp_path):
    """An empty laxp candidate over 24 features leaves 24 free, exactly the
    default verify cap: the check must answer, and quickly.  The models read
    4 and 3 of the features; a column of 2**24 bits is 2 MB, so building all
    24 would peak near 60 MB, and building only the read ones stays under
    20 MB.  ``hom --k 24`` asks the same question around the all-zero
    example: it tabulates all 2**24 flips at once instead of classifying
    16.7 M examples, and its weight planes, 5 tables of 2 MB, are built from
    one feature column at a time."""
    import tracemalloc

    monkeypatch.delenv("XPLAIN_BRUTE_CAP", raising=False)
    model = tmp_path / "wide.json"
    model.write_text(json.dumps(_wide_rules_doc(body)))
    example = tmp_path / "e.json"
    example.write_text(json.dumps({"assign": {f"x{i}": 0 for i in range(24)}}))
    candidate = tmp_path / "cand.json"
    candidate.write_text(json.dumps({"features": []}))
    requests = [
        (["verify", "--model", str(model), "--kind", "laxp",
          "--example", str(example), "--candidate", str(candidate)], expected),
        (["hom", "--model", str(model), "--k", "24"], not expected),
    ]
    for argv, result in requests:
        tracemalloc.start()
        try:
            code, payload = run(capsys, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, payload) == ((0 if result else 1), {"result": result})
        assert peak < 32 * 2**20


def _sparse_list_docs() -> tuple[dict, dict]:
    """A 6-rule list over 40 features that reads 12 of them, and the same
    list over those 12 alone, in the same order."""
    names = [f"x{i}" for i in range(40)]
    read = names[3::3][:12]
    rules = [[[[read[2 * r], r % 2], [read[2 * r + 1], 1]], r % 2] for r in range(6)]
    body = {"dl": {"rules": rules + [[[], 1]]}}
    return {"universe": names, "model": body}, {"universe": read, "model": body}


def test_a_sparse_wide_list_is_answered_as_its_read_features(capsys, monkeypatch,
                                                             tmp_path):
    """Every table request on the 40-feature list is answered, past the
    verify cap of 24, with the answer of the 12-feature list it reads: its
    tables and caps cover the read features only."""
    monkeypatch.delenv("XPLAIN_BRUTE_CAP", raising=False)
    requests = [
        ["hom"], ["hom", "--k", "2"],
        ["verify", "--kind", "laxp", "--example", "{e}", "--candidate", "{none}"],
        ["explain", "--kind", "laxp", "--min", "subset", "--example", "{e}"],
        ["explain", "--kind", "laxp", "--min", "card", "--example", "{e}"],
        ["explain", "--kind", "gaxp", "--min", "subset", "--class", "1"],
        ["explain", "--kind", "gaxp", "--min", "card", "--class", "1"],
        ["explain", "--kind", "gcxp", "--min", "card", "--class", "0"],
        ["explain", "--kind", "lcxp", "--min", "card", "--algo", "enum", "--example", "{e}"],
    ]
    answers = []
    for label, doc in zip(("wide", "read"), _sparse_list_docs()):
        paths = {name: tmp_path / f"{label}-{name}.json" for name in ("model", "e", "none")}
        paths["model"].write_text(json.dumps(doc))
        paths["e"].write_text(json.dumps({"assign": {f: 1 for f in doc["universe"]}}))
        paths["none"].write_text(json.dumps({"features": []}))
        answers.append([
            run(capsys, [argv[0], "--model", str(paths["model"]),
                         *(str(paths[a[1:-1]]) if a[0] == "{" else a for a in argv[1:])])
            for argv in requests])
    wide, read = answers
    assert [code for code, _ in wide] == [0, 0, 1, 0, 0, 0, 0, 0, 0]
    assert wide == read


def test_a_dense_set_at_the_cap_is_tabulated(capsys, monkeypatch, tmp_path):
    """A set whose terms read all 24 features is tabulated over all 24 (the
    cap): ``verify`` and ``hom`` answer.  Only the exit codes are checked;
    the memory of such a table is another matter."""
    monkeypatch.delenv("XPLAIN_BRUTE_CAP", raising=False)
    names = [f"x{i}" for i in range(24)]
    terms = [[["x0", 1], ["x1", 1], ["x2", 0]], [["x23", 0]],
             [[f, i % 2] for i, f in enumerate(names[3:23])]]
    model = tmp_path / "dense.json"
    model.write_text(json.dumps({"universe": names, "model": {"ds": {"terms": terms,
                                                                      "default": 0}}}))
    example = tmp_path / "e.json"
    example.write_text(json.dumps({"assign": {f: 0 for f in names}}))
    candidate = tmp_path / "cand.json"
    candidate.write_text(json.dumps({"features": []}))
    assert run(capsys, ["verify", "--model", str(model), "--kind", "laxp", "--example",
                        str(example), "--candidate", str(candidate)])[0] == 1
    assert run(capsys, ["hom", "--model", str(model)])[0] == 0


def test_flip_search_above_the_cap_is_refused_before_any_work(capsys, monkeypatch,
                                                              tmp_path):
    """30 read features are over the cap of 24, so no flip table is built:
    at k = 2 the 466 flip sets are classified one by one, and at k = 9 the
    22 964 087 flip sets exceed 2**24 and the search exits 2 at once.  The
    second term makes the set read all 30 features, and needs 28 flips."""
    monkeypatch.delenv("XPLAIN_BRUTE_CAP", raising=False)
    names = [f"x{i}" for i in range(30)]
    model = tmp_path / "wider.json"
    model.write_text(json.dumps({"universe": names, "model": {
        "ds": {"terms": [[["x28", 1], ["x29", 1]], [[f, 1] for f in names[:28]]],
               "default": 0}}}))
    assert run(capsys, ["hom", "--model", str(model), "--k", "1"]) == (1, {"result": False})
    assert run(capsys, ["hom", "--model", str(model), "--k", "2"]) == (0, {"result": True})
    code = main(["hom", "--model", str(model), "--k", "9"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "flip sets" in err


def test_model_round_trip(files):
    _, model, _ = files
    dl = load_model_file(model)
    assert dump_model(dl) == FIG_DOC


def test_ensemble_and_tree_round_trip():
    from random import Random

    from generators import random_dt, random_ensemble, random_universe
    from xplain.modelio import load_model

    rng = Random(8)
    u = random_universe(rng, 5)
    for model in (random_dt(rng, u), random_ensemble(rng, u, "dt", 3),
                  random_ensemble(rng, u, "dl", 3)):
        back = load_model(dump_model(model))
        assert x.truth_table(back) == x.truth_table(model)


def test_mismatched_ensemble_family_tag_rejected():
    from xplain.modelio import load_model

    doc = {
        "universe": ["a"],
        "model": {
            "ensemble": {
                "family": "dt",
                "elements": [{"dl": {"rules": [[[], 0]]}}],
            }
        },
    }
    with pytest.raises(x.ModelError):
        load_model(doc)


@pytest.mark.parametrize(
    "command",
    ["classify", "params", "verify", "explain", "oracle", "translate", "hom",
     "hom-suite", "gen-gadget"],
)
def test_every_subcommand_has_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_env_cap_override(files, capsys, monkeypatch, tmp_path):
    _, model, example = files
    candidate = tmp_path / "cand.json"
    candidate.write_text(json.dumps({"features": []}))
    monkeypatch.setenv("XPLAIN_BRUTE_CAP", "1")
    # an empty candidate leaves 3 free features, above the forced cap of 1;
    # the list model takes the enumeration path, so this must refuse
    code = main(["--quiet", "verify", "--model", model, "--kind", "laxp",
                 "--example", example, "--candidate", str(candidate)])
    assert code == 2
    monkeypatch.setenv("XPLAIN_BRUTE_CAP", "8")
    code = main(["--quiet", "verify", "--model", model, "--kind", "laxp",
                 "--example", example, "--candidate", str(candidate)])
    assert code == 1  # within the cap: a definite "not an explanation"


@pytest.mark.parametrize("raw", ["abc", "-1"])
def test_malformed_env_cap_is_an_error(files, raw):
    """A malformed XPLAIN_BRUTE_CAP fails the call with exit 2 and nothing
    on stdout, in a fresh process: reading it must not crash the import,
    whose traceback exits 1, which reads as "false"."""
    _, model, _ = files
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "XPLAIN_BRUTE_CAP": raw, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "xplain.cli", "hom", "--model", model],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith("error:")
    assert done.stdout == ""


_WRONG_VALUES = (5, 1.5, True, "x", None, [], {})


def _corrupt(rng: Random, doc) -> None:
    """Replace one value of doc, at any depth, by one of another type."""
    slots = []
    stack = [doc]
    while stack:
        node = stack.pop()
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            slots.append((node, key))
            if isinstance(value, (dict, list)):
                stack.append(value)
    if slots:
        node, key = rng.choice(slots)
        node[key] = rng.choice([v for v in _WRONG_VALUES if type(v) is not type(node[key])])


def _random_documents(rng: Random) -> dict:
    """A model of one of the five families over 0 to 9 features, dumped, with
    an example, a feature set and a partial example over its universe, and a
    hitting-set gadget input."""
    u = random_universe(rng, rng.randint(0, 9))
    family = rng.choice(["dt", "ds", "dl", "ens", "circuit"][: 5 if len(u) else 4])
    if family == "ens":
        model = random_ensemble(rng, u, rng.choice(["dt", "ds", "dl"]))
    elif family == "circuit" and rng.random() < 0.5:
        model = random_circuit(rng, u)
    elif family == "circuit":
        source = random_model(rng, u, rng.choice(["dt", "ds", "dl"]))
        model = x.translate(source, rng.randint(0, 1))[0]
    else:
        model = random_model(rng, u, family)
    e = random_example(rng, u)
    inside = [f for f in range(len(u)) if rng.random() < 0.5]
    elements, sets = random_hitting_set(rng, rng.randint(1, 4), rng.randint(1, 3))
    return {
        "model": dump_model(model),
        "example": {"assign": dict(zip(u.names, e.bits))},
        "features": {"features": [u.names[f] for f in inside]},
        "partial": {"assign": {u.names[f]: e.bits[f] for f in inside}},
        "gadget": {"universe": elements, "sets": [sorted(s) for s in sets], "k": 1},
    }


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_every_subcommand_keeps_the_exit_code_contract(seed):
    """Every subcommand, on random documents of every family of which some
    carry one wrongly typed value, exits 0, 1, 2 or 3, never with an
    unexpected error, and prints nothing on exit 2.  ``explain --min card``
    answers as ``oracle`` does on every family, so does ``--min subset`` of
    ``lcxp``, and every ``--min subset`` witness is subset-minimal."""
    rng = Random(seed)
    docs = _random_documents(rng)
    if rng.random() < 0.4:
        _corrupt(rng, docs[rng.choice(list(docs))])
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in docs.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(doc, fh)

        def call(*argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["--quiet", *argv])
            assert code in (0, 1, 2, 3), argv
            assert "unexpected" not in err.getvalue(), (argv, err.getvalue())
            assert code != 2 or out.getvalue() == "", argv
            return code, json.loads(out.getvalue()) if out.getvalue() else None

        model = ["--model", paths["model"]]
        example = ["--example", paths["example"]]
        call("classify", *model, *example)
        call("params", *model)
        call("translate", *model, "--class", str(rng.randint(0, 1)),
             "--out", os.path.join(tmp, "circuit.json"))
        call("hom", *model)
        call("hom", *model, "--k", str(rng.randint(-1, 9)))
        call("hom-suite", *model)
        call("gen-gadget", "--kind", "hitting-set", "--in", paths["gadget"],
             "--out", os.path.join(tmp, "gadget.json"))
        for kind in ("laxp", "lcxp", "gaxp", "gcxp"):
            local = kind in ("laxp", "lcxp")
            target = example if local else ["--class", str(rng.randint(0, 1))]
            request = [*model, "--kind", kind, *target]
            call("verify", *request, "--candidate",
                 paths["features" if local else "partial"])
            oracle = call("oracle", *request)
            card = call("explain", *request, "--min", "card")
            subset = call("explain", *request, "--min", "subset")
            if oracle[0] == 2 or card[0] == 2:
                continue
            assert card == oracle
            if kind == "lcxp":
                assert subset == oracle
            loaded = load_model_file(paths["model"])
            if subset[0] == 0:
                u = loaded.universe
                if local:
                    goal = load_example_file(paths["example"], u)
                    witness = frozenset(u.index(name) for name in subset[1]["witness"])
                else:
                    goal = int(target[1])
                    witness = x.PartialExample.from_dict(
                        u, {u.index(name): b for name, b in subset[1]["witness"].items()})
                assert x.oracle_subset_min_check(loaded, kind, goal, witness)
