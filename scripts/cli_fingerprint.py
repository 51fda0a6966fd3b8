#!/usr/bin/env python3
"""Fingerprint the CLI's stdout and exit codes, and the tree budget search's
witnesses, on the benchmark requests.

The ``trees`` and ``rules`` workloads of ``perfbench/`` build a fixed list of
``xplain`` command lines from a seed.  This script builds them in a temporary
directory, answers each one in-process with ``cliwork.execute``, and prints,
per workload and seed, the request count and one SHA-256 over
``f"{code}\\n{stdout}\\0"`` of every answer in order.  The ``gadgets``
workload answers only a bool per query, so its entry instead hashes
``f"{assignments}\\0"`` of the ``card_xp_search`` witness (the answer of
``gadgets.global_budget_search_dt``) of every ordered-tree query (a global query on a tree), in request order, with
``None`` for no witness.  The ``gadget-witnesses`` entry hashes
``f"{witness!r}\\0"`` of the ``card_xp_search`` witness of every ``laxp``,
``gaxp`` and ``gcxp`` query of that workload, on trees and rule models
alike, in request order.  The ``translations`` entry of a seed hashes the
circuit of every model of the ``trees`` and ``rules`` workloads that is not
itself a circuit, for class 0 and then class 1, as
``f"{dump_model(circuit)}\n{sorted(deletion)}\n{bound}\n{formula}\0"``
(the JSON with sorted keys), so a change to any translation's gates or
certificate shows.  The ``gadget-translations`` entry hashes the circuits of
every distinct ensemble of the ``gadgets`` workload the same way, in request
order; these are the only ensembles with repeated voters.  The
``gadget-models`` entry hashes ``json.dumps(dump_model(model),
sort_keys=True)`` of the model of every distinct ``gadgets`` instance, in
request order, so a change to any built arena, its node order included,
shows.  The ``branch`` entry of a seed calls the branching
search through the library, with a ``BranchStats``, on every ``lcxp --min
card --algo branch`` request of the ``rules`` workload, and hashes
``f"{sorted(witness)}\n{nodes}\n{records}\0"``: the witness (``None`` for
none), the node total and the list of nonzero ``(tuple, nodes)`` records,
so a change to the search's answers or to the branches it explores shows.
The seedless ``cli-help`` entry hashes ``f"{code}\n{stdout}\n{stderr}\0"``
of ``xplain --help``, of ``xplain <cmd> --help`` for each subcommand and of
a fixed list of command lines the parser refuses, all with ``COLUMNS=80``,
so a change to the help or error text shows.
The ``translate-files`` entry of a seed answers, in request order, every
``rules`` request that writes a document to ``--out`` (each request's
``info["out"]``) and hashes the bytes of each written file, so a change to
the form of the circuit files shows even when stdout keeps its bytes.
A refactor that must keep the CLI's output, the witnesses, the circuits and
the written files byte-identical keeps these digests.

    python3 scripts/cli_fingerprint.py              # print the digests
    python3 scripts/cli_fingerprint.py --check      # compare with the file
    python3 scripts/cli_fingerprint.py --write      # record them in the file

xplain is imported from ``src/`` of this checkout.  The modules under
``perfbench/`` are imported as they are and never written to.  A change
that alters stdout on purpose records the new digests with ``--write``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "scripts" / "cli_fingerprints.json"
SEEDS = (1, 9001)
WORKLOADS = ("trees", "rules", "gadgets", "gadget-witnesses", "translations",
             "gadget-translations", "gadget-models", "branch", "translate-files")
SUBCOMMANDS = ("classify", "params", "verify", "explain", "oracle", "translate", "hom",
               "hom-suite", "gen-gadget")
REFUSED = (
    [],  # no subcommand
    ["frobnicate"],  # unknown subcommand
    ["params", "--model", "m.json", "--bogus", "x"],  # unknown flag
    ["params", "--model"],  # missing value
    ["classify", "--model", "m.json"],  # missing required option
    ["explain", "--model", "m.json", "--kind", "axp", "--min", "card"],  # bad choice
    ["hom", "--model", "m.json", "--k", "two"],  # non-int --k
)

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

# cliwork and the set-ups find these in sys.modules
import xplain.circuits  # noqa: E402
import xplain.cli  # noqa: E402
import xplain.gadgets  # noqa: E402
import xplain.modelio  # noqa: E402
import xplain.truth  # noqa: E402,F401

import cliwork  # noqa: E402
import work_gadgets  # noqa: E402
import work_rules  # noqa: E402
import work_trees  # noqa: E402


def cli_answers(inputs):
    """``f"{code}\\n{stdout}"`` of every CLI request."""
    for req in inputs.requests:
        code, stdout = cliwork.execute(req)
        yield f"{code}\n{stdout}"


def written_files(inputs):
    """The bytes of the ``--out`` file of every request that writes one."""
    for req in inputs.requests:
        if "out" in req.info:
            cliwork.execute(req)
            yield Path(req.info["out"]).read_bytes().decode()


def tree_witnesses(inputs):
    """The budget search's witness assignments on every global tree query."""
    for req in inputs.requests:
        model, q = req.instance.model, req.query
        if isinstance(model, xplain.DecisionTree) and q.kind in ("gaxp", "gcxp"):
            found = xplain.card_xp_search(model, q.kind, q.target, q.k)
            yield repr(None if found is None else found.assignments)


def gadget_witnesses(inputs):
    """The cardinality search's witness on every abductive gadget query."""
    for req in inputs.requests:
        q = req.query
        if q.kind in ("laxp", "gaxp", "gcxp"):
            yield repr(xplain.card_xp_search(req.instance.model, q.kind, q.target, q.k))


def model_documents(seed: int, workdir: Path) -> list[dict]:
    """The model documents of the ``trees`` and then the ``rules`` workload."""
    return [doc for name, setup in (("trees", work_trees.setup), ("rules", work_rules.setup))
            for doc in setup(seed, workdir / name).models.values()]


def translations(docs):
    """Circuit and certificate of each non-circuit model, for both classes."""
    for doc in docs:
        model = xplain.modelio.load_model(doc)
        if not isinstance(model, xplain.circuits.Circuit):
            yield from _circuits(model)


def gadget_translations(inputs):
    """Circuit and certificate of each distinct ensemble of the ``gadgets``
    requests, for both classes."""
    seen = set()
    for req in inputs.requests:
        model = req.instance.model
        if isinstance(model, xplain.Ensemble) and id(model) not in seen:
            seen.add(id(model))
            yield from _circuits(model)


def gadget_models(inputs):
    """The JSON document of the model of each distinct ``gadgets``
    instance, with sorted keys."""
    seen = set()
    for req in inputs.requests:
        if id(req.instance) not in seen:
            seen.add(id(req.instance))
            yield json.dumps(xplain.modelio.dump_model(req.instance.model), sort_keys=True)


def _circuits(model):
    for c in (0, 1):
        circuit, cert = xplain.circuits.translate(model, c)
        dump = json.dumps(xplain.modelio.dump_model(circuit), sort_keys=True)
        yield f"{dump}\n{sorted(cert.deletion)}\n{cert.bound}\n{cert.formula}"


def branch_searches(inputs):
    """Witness, node total and nonzero records of the branching search on
    every ``lcxp --min card`` request whose ``--algo`` is ``branch``."""
    for req in inputs.requests:
        argv, info = req.argv, req.info
        algo = argv[argv.index("--algo") + 1] if "--algo" in argv else "branch"
        if (info.get("kind"), info.get("min"), algo) != ("lcxp", "card", "branch"):
            continue
        model = xplain.modelio.load_model(inputs.models[req.model])
        e = xplain.Example.from_mask(model.universe, info["target"])
        search = (xplain.lcxp_card_branch_ens if isinstance(model, xplain.Ensemble)
                  else xplain.lcxp_card_branch)
        stats = xplain.BranchStats()
        found = search(model, e, info["k"], stats)
        nodes = sum(n for _, n in stats.per_target)
        records = [(t, n) for t, n in stats.per_target if n]
        yield f"{None if found is None else sorted(found)}\n{nodes}\n{records}"


def help_and_refusals():
    """Exit code, stdout and stderr of every help request and of every
    refused command line, at a terminal width of 80 columns."""
    lines = [["--help"], *([cmd, "--help"] for cmd in SUBCOMMANDS), *REFUSED]
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for argv in lines:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = xplain.cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            yield f"{code}\n{out.getvalue()}\n{err.getvalue()}"


def digest_of(answers) -> dict:
    """Count and SHA-256 of a sequence of answers."""
    digest = hashlib.sha256()
    count = 0
    for answer in answers:
        digest.update(f"{answer}\0".encode())
        count += 1
    return {"requests": count, "sha256": digest.hexdigest()}


# workload -> (set-up, the answers hashed)
SOURCES = {
    "trees": (work_trees.setup, cli_answers),
    "rules": (work_rules.setup, cli_answers),
    "gadgets": (work_gadgets.setup, tree_witnesses),
    "gadget-witnesses": (work_gadgets.setup, gadget_witnesses),
    "translations": (model_documents, translations),
    "gadget-translations": (work_gadgets.setup, gadget_translations),
    "gadget-models": (work_gadgets.setup, gadget_models),
    "branch": (work_rules.setup, branch_searches),
    "translate-files": (work_rules.setup, written_files),
}


def fingerprint(workload: str, seed: int) -> dict:
    """Count and digest of one workload's hashed answers."""
    setup, answers = SOURCES[workload]
    with tempfile.TemporaryDirectory(prefix="xplain-fingerprint-") as tmp:
        return digest_of(answers(setup(seed, Path(tmp))))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help=f"exit 1 unless the digests match {RECORD.name}")
    mode.add_argument("--write", action="store_true",
                      help=f"record the digests in {RECORD.name}")
    args = p.parse_args(argv)
    found = {f"{w}:{s}": fingerprint(w, s) for s in SEEDS for w in WORKLOADS}
    found["cli-help"] = digest_of(help_and_refusals())
    for key, fp in found.items():
        print(f"{key:24} {fp['requests']:5d} requests  {fp['sha256']}")
    if args.write:
        RECORD.write_text(json.dumps(found, indent=2, sort_keys=True) + "\n")
        return 0
    if args.check:
        recorded = json.loads(RECORD.read_text())
        bad = [key for key, fp in found.items() if recorded.get(key) != fp]
        for key in bad:
            print(f"mismatch on {key}: recorded {recorded.get(key)}", file=sys.stderr)
        return 1 if bad else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
