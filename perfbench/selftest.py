#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each must reject a corrupted answer.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Builds a small input set of every
workload, answers it with xplain, and confirms that the checks accept the
real answers.  Then it corrupts answers one way at a time (a witness element
dropped or added, a "none" claimed where an answer exists or the reverse, a
verdict or exit code flipped, a size or parameter changed, a translated
circuit negated, two engines made to disagree, a gadget answer flipped) and
confirms that the checks reject every corrupted answer.  Exits 0 when all of
that holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import cliwork
import run
import work_gadgets
import work_rules
import work_trees

# small inputs: every request kind still occurs
work_trees.TREES, work_trees.ENSEMBLES = 5, 5
work_rules.MODELS_PER_CELL = 1
work_gadgets.ODT_BLOCKS = ((3, (6, 8), (0.8,), (0.3,), 2), (2, (4, 6), (0.5,), (0.0,), 2))
work_gadgets.ENSEMBLE_GRAPHS = work_gadgets.UNARY_GRAPHS = 3
work_gadgets.HITTING_SETS = work_gadgets.FORMULAS = 3


def explain_corruptions(judge: cliwork.Judge, req, code: int, payload: dict):
    """(label, corrupted outcome) pairs for one explain answer."""
    out = []
    if code == cliwork.EXIT_NONE:
        empty = [] if req.info["kind"] in ("laxp", "lcxp") else {}
        return [("found where none exists", (0, json.dumps({"size": 0, "witness": empty})))]
    ref = judge.ref(req.model)
    witness = payload["witness"]
    local = req.info["kind"] in ("laxp", "lcxp")
    unused = next(name for name in ref.names if name not in witness)
    if local:
        bigger = sorted(witness + [unused])
        smaller = witness[1:]
    else:
        bigger = dict(witness, **{unused: 0})
        smaller = dict(list(witness.items())[1:])
    out.append(("element added", (0, json.dumps({"size": len(bigger), "witness": bigger}))))
    if witness:
        out.append(("element dropped", (0, json.dumps({"size": len(smaller), "witness": smaller}))))
    out.append(("size field off by one",
                (0, json.dumps({"size": payload["size"] + 1, "witness": witness}))))
    out.append(("none claimed", (3, json.dumps({"size": None, "witness": None}))))
    return out


def flipped_verdict(code: int, payload: dict):
    result = not payload["result"]
    return [("verdict flipped", (0 if result else 1, json.dumps({"result": result}))),
            ("exit code flipped", (1 - code, json.dumps(payload)))]


def negated_circuit(req, workdir: Path):
    with open(req.info["out"]) as fh:
        doc = json.load(fh)
    gates = doc["model"]["circuit"]["gates"]
    top = max(int(g["id"]) for g in gates) + 1
    gates.append({"id": top, "kind": "NOT", "in": [doc["model"]["circuit"]["output"]]})
    doc["model"]["circuit"]["output"] = top
    path = workdir / "negated.json"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return cliwork.Request(req.argv, req.check, req.model, dict(req.info, out=str(path)))


def main() -> int:
    src = run.ROOT / "src"
    if not (src / "xplain" / "__init__.py").is_file():
        print(f"error: no xplain sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    failures: list[str] = []
    rejected: dict[str, int] = {}

    def expect(label: str, reason, should_reject: bool) -> None:
        if (reason is not None) != should_reject:
            failures.append(f"{label}: {'accepted' if should_reject else reason}")
        elif should_reject:
            rejected[label] = rejected.get(label, 0) + 1

    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=run.ROOT) as tmp:
        run.import_xplain()
        for name in ("trees", "rules"):
            workload = run.Workload(name)
            workdir = Path(tmp) / name
            inputs = workload.setup(7, workdir, lambda: None)
            outcomes = [workload.execute(req) for req in inputs.requests]
            problems = workload.check(inputs, outcomes)
            for p in problems:
                failures.append(f"{name}: real answer rejected: {p}")
            judge = cliwork.Judge(inputs)
            for req, (code, text) in zip(inputs.requests, outcomes):
                payload = json.loads(text)
                kind = req.check
                if kind == "explain":
                    kind = f"explain {req.info['min']} {req.info['kind']}"
                    cases = explain_corruptions(judge, req, code, payload)
                elif kind in ("verify", "hom"):
                    cases = flipped_verdict(code, payload)
                elif kind == "params":
                    changed = dict(payload, model_size=payload["model_size"] + 1)
                    cases = [("parameter changed", (code, json.dumps(changed)))]
                else:
                    expect("translate: circuit negated",
                           judge.check(negated_circuit(req, workdir), (code, text)), True)
                    continue
                for label, bad in cases:
                    expect(f"{kind}: {label}", judge.check(req, bad), True)
            if name == "rules":  # two engines made to disagree
                pair = next(i for i, r in enumerate(inputs.requests) if "pair" in r.info)
                code, text = outcomes[pair]
                payload = json.loads(text)
                skewed = list(outcomes)
                skewed[pair] = (code, json.dumps(dict(payload, size=(payload["size"] or 0) + 1)))
                expect("branch against enum: sizes differ",
                       judge.check_pairs(inputs.requests, skewed) or None, True)

        workload = run.Workload("gadgets")
        inputs = workload.setup(7, Path(tmp) / "gadgets", lambda: None)
        answers = [workload.execute(req) for req in inputs.requests]
        for p in workload.check(inputs, answers):
            failures.append(f"gadgets: real answer rejected: {p}")
        for i, got in enumerate(answers):
            flipped = list(answers)
            flipped[i] = not got
            expect("gadget answer flipped", workload.check(inputs, flipped) or None, True)

    for label in sorted(rejected):
        print(f"SELFTEST rejected {rejected[label]:3d}x  {label}")
    for f in failures:
        print(f"SELFTEST FAIL {f}")
    print("SELFTEST", "PASS" if not failures else "FAIL")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
