"""Command line interface.

One executable, one subcommand per operation.  Results are printed as a
single JSON object on stdout (stable key order, so identical inputs give
byte-identical output); timing and diagnostics go to stderr.  Exit codes:
0 success / found / true, 1 false, 2 error, 3 no explanation exists.
Every JSON document the CLI emits, the stdout payload and the ``--out``
files of ``translate`` and ``gen-gadget``, is written by ``_dumps``:
compact, with sorted keys, by the C encoder.  A file is encoded before it
is opened, so a failed encode leaves an existing file as it was.

``explain`` dispatches per family (see ``_explain_subset`` and
``_explain_card``).  Every minimum ``laxp``/``gaxp``/``gcxp`` comes from
``explain_dt.card_xp_search``, and every inclusion-minimal ``gaxp``/``gcxp``
from the one seeded greedy shrink of ``explain_dt.gaxp_subset_min`` and
``gcxp_subset_min``, for all five families.  Every ``lcxp`` answer, with
either ``--min``, is the oracle's minimum, which is inclusion-minimal too:
``lcxp_min`` on a model with a tree form (``explain_dt._tree_form``: a
tree, raw or normal, or a tree ensemble whose product fits under its leaf
ceiling), the branching search on rule models and their ensembles, flip
enumeration on circuits and with ``--algo enum``.  ``laxp --min subset`` is
the greedy shrink, on the tree form when there is one.  No ``explain``
route builds a raw tree's normal-form copy but ``--algo enum``, whose flip
table reads it, as the tables of ``hom`` and ``oracle`` do.  A tree
ensemble past the ceiling is answered as a rule ensemble is.  ``--k``
bounds ``--min card`` only, and the branching search clamps it to the
features the model reads.  The exhaustive oracle answers the ``oracle``
subcommand alone.

Each subcommand is declared once, in ``COMMANDS``: its handler, help text
and options.  ``main`` reads a canonical command line (an optional leading
``--quiet``, a subcommand, then ``--flag value`` pairs with exact flags) in
one pass over that table, into the namespace argparse would return.  Every
other line (``-h``, abbreviated flags, ``--k=2``, a value starting with
``-``, any error) goes to the parser ``build_parser`` makes from the same
table, so help and error text are argparse's own; it is built on the first
such line and reused.  Each call gets a fresh namespace.

Models are loaded with ``modelio.load_model_file``, which remembers the last
model keyed on the file's bytes: consecutive requests about the same model
document share one model object, with its tree-ensemble product and the
literal columns ``explain_dt`` keeps for it, and a rewritten file is always
reloaded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Callable, NamedTuple, Optional

from . import gadgets
from .circuits import translate
from .config import BruteCaps, CapExceeded
from .core import (
    DecisionList,
    DecisionSet,
    Ensemble,
    ModelError,
    classify,
    measure,
)
from .explain_dt import (
    _tree_form,
    card_xp_search,
    gaxp_subset_min,
    gcxp_subset_min,
    laxp_subset_min,
    lcxp_min,
)
from .explain_rules import (
    laxp_rules_subset_min,
    lcxp_card_branch,
    lcxp_card_branch_ens,
    lcxp_card_enum,
)
from .modelio import (
    _int,
    _typed,
    dump_model,
    dump_partial_example,
    load_example_file,
    load_feature_set_file,
    load_model_file,
    load_partial_example_file,
)
from .verify import (
    _budget,
    hom_check,
    oracle_min,
    phom_check,
    verify,
)

EXIT_OK, EXIT_FALSE, EXIT_ERROR, EXIT_NONE = 0, 1, 2, 3


def _dumps(obj) -> str:
    """Compact JSON with sorted keys; any ``indent`` would take the
    pure-Python encoder."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _write_doc(path: str, doc: dict) -> None:
    text = _dumps(doc) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _witness_payload(witness, model) -> dict:
    if witness is None:
        return {"size": None, "witness": None}
    if isinstance(witness, frozenset):
        names = sorted(model.universe.name(f) for f in witness)
        return {"size": len(witness), "witness": names}
    return {
        "size": len(witness.assignments),
        "witness": dump_partial_example(witness)["assign"],
    }


def _load_target(args, model):
    if args.example is not None:
        return load_example_file(args.example, model.universe)
    if args.cls is not None:
        return args.cls
    raise ModelError("need --example (local kinds) or --class (global kinds)")


def _cmd_classify(args, caps) -> tuple[int, dict]:
    model = load_model_file(args.model)
    e = load_example_file(args.example, model.universe)
    return EXIT_OK, {"class": classify(model, e)}


def _cmd_params(args, caps) -> tuple[int, dict]:
    model = load_model_file(args.model)
    return EXIT_OK, measure(model).as_dict()


def _cmd_verify(args, caps) -> tuple[int, dict]:
    model = load_model_file(args.model)
    target = _load_target(args, model)
    load = load_feature_set_file if args.kind in ("laxp", "lcxp") else load_partial_example_file
    ok = verify(model, args.kind, target, load(args.candidate, model.universe), caps)
    return (EXIT_OK if ok else EXIT_FALSE), {"result": ok}


def _explain_subset(model, kind, target, args, caps):
    if kind == "gaxp":
        return gaxp_subset_min(model, target, caps)
    if kind == "gcxp":
        return gcxp_subset_min(model, target, caps)
    if kind == "lcxp":
        # the oracle's minimum is inclusion-minimal; --k is no budget here
        return _explain_card(model, kind, target, len(model.universe), args, caps)
    tree = _tree_form(model)
    if tree is not None:
        return laxp_subset_min(tree, target)
    return laxp_rules_subset_min(model, target, caps)


def _explain_card(model, kind, target, k, args, caps):
    if kind != "lcxp":
        return card_xp_search(model, kind, target, k, caps)
    if args.algo == "enum":
        return lcxp_card_enum(model, target, k, caps)
    tree = _tree_form(model)
    if tree is not None:
        witness = lcxp_min(tree, target)
        return witness if witness is not None and len(witness) <= k else None
    if isinstance(model, (DecisionSet, DecisionList)):
        return lcxp_card_branch(model, target, k)
    if isinstance(model, Ensemble) and model.family in ("ds", "dl"):
        return lcxp_card_branch_ens(model, target, k)
    return lcxp_card_enum(model, target, k, caps)


def _cmd_explain(args, caps) -> tuple[int, dict]:
    model = load_model_file(args.model)
    target = _load_target(args, model)
    if args.min == "subset":
        witness = _explain_subset(model, args.kind, target, args, caps)
    else:
        # the tree route's leaf scan takes no budget to refuse it
        k = len(model.universe) if args.k is None else _budget(args.k)
        witness = _explain_card(model, args.kind, target, k, args, caps)
    payload = _witness_payload(witness, model)
    return (EXIT_OK if witness is not None else EXIT_NONE), payload


def _cmd_oracle(args, caps) -> tuple[int, dict]:
    model = load_model_file(args.model)
    target = _load_target(args, model)
    found = oracle_min(model, args.kind, target, caps)
    if found is None:
        return EXIT_NONE, {"size": None, "witness": None}
    return EXIT_OK, _witness_payload(found[1], model)


def _cmd_translate(args, caps) -> tuple[int, dict]:
    model = load_model_file(args.model)
    circuit, cert = translate(model, args.cls)
    _write_doc(args.out, dump_model(circuit))
    return EXIT_OK, {
        "gates": len(circuit.gates),
        "maj_gates": circuit.maj_count,
        "width_bound": cert.bound,
        "bound_formula": cert.formula,
        "deletion_set": sorted(cert.deletion),
    }


def _cmd_hom(args, caps) -> tuple[int, dict]:
    model = load_model_file(args.model)
    result = hom_check(model, caps) if args.k is None else phom_check(model, args.k, caps)
    return (EXIT_OK if result else EXIT_FALSE), {"result": result}


def _cmd_hom_suite(args, caps) -> tuple[int, dict]:
    model = load_model_file(args.model)
    report = gadgets.hom_equivalence_suite(model, caps)
    ok = report.all_equal and report.khom_equal
    return (EXIT_OK if ok else EXIT_FALSE), report.as_dict()


def _gadget_from_args(args) -> gadgets.GadgetInstance:
    with open(args.infile) as fh:
        return _gadget_from_doc(args, json.load(fh))


@_typed
def _gadget_from_doc(args, doc) -> gadgets.GadgetInstance:
    if args.kind == "hitting-set":
        sets = [frozenset(s) for s in doc["sets"]]
        return gadgets.hitting_set_gadget(
            doc["universe"], sets, _int(doc["k"]), args.mode or "subset-ds"
        )
    if args.kind == "taut":
        terms = [[(v, _int(b)) for v, b in term] for term in doc["terms"]]
        return gadgets.taut_ds_gadget(terms, doc["vars"])
    graph = gadgets.ColouredGraph(
        tuple(tuple(c) for c in doc["classes"]),
        tuple((u, v) for u, v in doc["edges"]),
    )
    k = _int(doc.get("k", graph.k))
    if args.kind == "mcc-ens":
        return gadgets.mcc_ensemble_gadget(graph, k, args.mode or "set", args.family)
    if args.kind == "mcc-unary":
        return gadgets.mcc_unary_ensemble_gadget(
            graph, k, args.mode or "set", args.family
        )
    if args.kind == "mcc-odt":
        return gadgets.mcc_odt_gaxp_gadget(graph, k)
    raise ModelError(f"unknown gadget kind {args.kind!r}")


def _query_to_json(q: gadgets.Query, model) -> dict:
    out: dict = {"kind": q.kind}
    if q.k is not None:
        out["k"] = q.k
    if q.kind in ("laxp", "lcxp"):
        out["example"] = {
            model.universe.name(i): b for i, b in enumerate(q.target.bits)
        }
    elif q.kind in ("gaxp", "gcxp"):
        out["class"] = q.target
    return out


def _cmd_gen_gadget(args, caps) -> tuple[int, dict]:
    instance = _gadget_from_args(args)
    doc = {
        "model": dump_model(instance.model),
        "queries": [_query_to_json(q, instance.model) for q in instance.queries],
        "truth": instance.truth,
        "provenance": instance.provenance,
        "meta": instance.meta,
    }
    _write_doc(args.out, doc)
    return EXIT_OK, {
        "truth": instance.truth,
        "queries": len(instance.queries),
        "provenance": instance.provenance,
    }


class _Option(NamedTuple):
    """One option of a subcommand, as ``add_argument`` takes it."""

    flag: str
    dest: str
    type: Optional[Callable] = None
    choices: Optional[tuple] = None
    required: bool = False
    default: object = None
    help: Optional[str] = None


class _Command:
    """One subcommand: its handler, help text and options, with the lookups
    ``_read_args`` uses."""

    def __init__(self, fn, help: str, *options: _Option) -> None:
        self.fn, self.help, self.options = fn, help, options
        self.flags = {o.flag: o for o in options}
        self.required = frozenset(o.flag for o in options if o.required)
        self.defaults = {o.dest: o.default for o in options}


_MODEL = _Option("--model", "model", required=True)
_KIND = _Option("--kind", "kind", choices=("laxp", "lcxp", "gaxp", "gcxp"), required=True)
_EXAMPLE = _Option("--example", "example")
_CLASS = _Option("--class", "cls", int, (0, 1))

COMMANDS = {
    "classify": _Command(
        _cmd_classify, "classify an example",
        _MODEL, _EXAMPLE._replace(required=True)),
    "params": _Command(_cmd_params, "measure model parameters", _MODEL),
    "verify": _Command(
        _cmd_verify, "check an explanation candidate (exit 0 yes / 1 no)",
        _MODEL, _KIND, _EXAMPLE, _CLASS,
        _Option("--candidate", "candidate", required=True)),
    "explain": _Command(
        _cmd_explain, "compute an explanation (exit 0 found / 3 none exists)",
        _MODEL, _KIND,
        _Option("--min", "min", choices=("subset", "card"), required=True,
                help="inclusion-minimal or cardinality-minimum"),
        _Option("--k", "k", int, help="size budget for --min card"),
        _EXAMPLE, _CLASS,
        _Option("--algo", "algo", choices=("branch", "enum"), default="branch",
                help="minimum-contrastive engine on rule models: "
                "bounded-depth branching or subset enumeration")),
    "oracle": _Command(
        _cmd_oracle, "exhaustive minimum explanation (ground truth, desk scale)",
        _MODEL, _KIND, _EXAMPLE, _CLASS),
    "translate": _Command(
        _cmd_translate, "compile a model into a majority-gate circuit",
        _MODEL, _CLASS._replace(required=True), _Option("--out", "out", required=True)),
    "hom": _Command(
        _cmd_hom, "is some (weight-limited) example classified unlike all-zero",
        _MODEL, _Option("--k", "k", int)),
    "hom-suite": _Command(
        _cmd_hom_suite, "evaluate the homogeneity/explanation equivalences", _MODEL),
    "gen-gadget": _Command(
        _cmd_gen_gadget, "generate a reduction instance",
        _Option("--kind", "kind", required=True,
                choices=("hitting-set", "mcc-ens", "mcc-unary", "mcc-odt", "taut")),
        _Option("--in", "infile", required=True),
        _Option("--out", "out", required=True),
        _Option("--mode", "mode",
                help="hitting-set: set-odt|subset-ds|subset-dl; "
                "mcc-ens/mcc-unary: set|subset"),
        _Option("--family", "family", choices=("ds", "dl"), default="ds",
                help="rule family for subset-mode ensemble elements")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xplain",
        description="Compute, verify and brute-force-certify formal "
        "explanations for transparent classifiers; generate reduction "
        "instances as benchmark gadgets.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress timing")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.set_defaults(fn=command.fn)
        for o in command.options:
            p.add_argument(o.flag, dest=o.dest, type=o.type, choices=o.choices,
                           required=o.required, default=o.default, help=o.help)
    return parser


def _read_args(argv: list[str]) -> Optional[argparse.Namespace]:
    """The namespace ``parse_args(argv)`` returns, read in one pass over
    ``COMMANDS``, or None when argv is not in the canonical form: an optional
    leading ``--quiet``, a subcommand, then ``--flag value`` pairs with exact
    flags, no value starting with ``-``, every value of its option's type and
    choices, and every required option given (a repeated flag keeps its last
    value).  argparse answers every other argv."""
    quiet = argv[:1] == ["--quiet"]
    rest = argv[1:] if quiet else argv
    command = COMMANDS.get(rest[0]) if rest else None
    pairs = rest[1:]
    if command is None or len(pairs) % 2 or not command.required <= set(pairs[::2]):
        return None
    values = dict(command.defaults)
    for flag, value in zip(pairs[::2], pairs[1::2]):
        o = command.flags.get(flag)
        if o is None or value.startswith("-"):
            return None
        if o.type is not None:
            try:
                value = o.type(value)
            except (TypeError, ValueError):
                return None
        if o.choices is not None and value not in o.choices:
            return None
        values[o.dest] = value
    return argparse.Namespace(quiet=quiet, command=rest[0], fn=command.fn, **values)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_args(argv)
    if args is None:
        args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        caps = BruteCaps.from_env()
        code, payload = args.fn(args, caps)
    except (ModelError, CapExceeded, OSError, json.JSONDecodeError, KeyError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a crash must not read as exit 1, "false"
        detail = " ".join(str(exc).split())
        print(f"error: unexpected {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_ERROR
    print(_dumps(payload))
    if not args.quiet:
        elapsed = (time.perf_counter() - started) * 1000.0
        print(f"elapsed_ms={elapsed:.1f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
