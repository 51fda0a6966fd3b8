"""Requests through the xplain CLI, run in-process, and their checks.

A request is one ``xplain`` command line.  It is answered by calling
``xplain.cli.main(argv)`` in this process with stdout captured, as a caller
embedding the tool would; a subprocess per call would cost far more than
most requests.  Every request also carries what its check needs, and the
checks judge the captured output against ``reference`` alone.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import reference

EXIT_OK, EXIT_FALSE, EXIT_ERROR, EXIT_NONE = 0, 1, 2, 3


@dataclass
class Request:
    argv: list[str]
    check: str  # explain | verify | params | hom | translate
    model: str  # key into Inputs.models
    info: dict = field(default_factory=dict)


@dataclass
class Inputs:
    models: dict[str, dict]  # key -> model document as written to disk
    requests: list[Request]
    workdir: Path


class Files:
    """Writes the documents a request reads, numbered in creation order."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.count = 0
        root.mkdir(parents=True, exist_ok=True)

    def write(self, stem: str, doc: dict) -> str:
        self.count += 1
        path = self.root / f"{self.count:05d}-{stem}.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return str(path)

    def path(self, stem: str) -> str:
        self.count += 1
        return str(self.root / f"{self.count:05d}-{stem}.json")


def execute(req: Request) -> tuple[int, str]:
    """Run one request; returns (exit code, stdout).  An argparse refusal
    exits through SystemExit and is reported as an error exit."""
    cli = sys.modules["xplain.cli"]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(["--quiet", *req.argv])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else EXIT_ERROR
    return code, out.getvalue()


def failed(outcome: tuple[int, str]) -> bool:
    return outcome[0] == EXIT_ERROR


# ---------------------------------------------------------------------------
# request documents
# ---------------------------------------------------------------------------


def example_doc(names: list[str], e: int) -> dict:
    return {"assign": {name: (e >> i) & 1 for i, name in enumerate(names)}}


def features_doc(names: list[str], mask: int) -> dict:
    return {"features": [name for i, name in enumerate(names) if (mask >> i) & 1]}


def partial_doc(names: list[str], mask: int, value: int) -> dict:
    return {
        "assign": {
            name: (value >> i) & 1 for i, name in enumerate(names) if (mask >> i) & 1
        }
    }


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


class Judge:
    """Checks request outcomes against the reference semantics.  Each check
    returns None when the outcome is right, else a one-line reason."""

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self._refs: dict[str, reference.RefModel] = {}

    def ref(self, key: str) -> reference.RefModel:
        if key not in self._refs:
            self._refs[key] = reference.load(self.inputs.models[key])
        return self._refs[key]

    def check(self, req: Request, outcome: tuple[int, str]) -> Optional[str]:
        code, text = outcome
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return f"exit {code}, stdout is not one JSON object: {text[:80]!r}"
        return getattr(self, f"_check_{req.check}")(req, code, payload)

    def check_pairs(self, requests: list[Request], outcomes: list) -> list[str]:
        """Requests sharing a ``pair`` key ask one question through
        different engines; their answer sizes must agree."""
        sizes: dict = {}
        for req, (code, text) in zip(requests, outcomes):
            key = req.info.get("pair")
            if key is not None and code != EXIT_ERROR:
                sizes.setdefault(key, set()).add(json.loads(text).get("size"))
        return [f"engines disagree on {key}: sizes {sorted(s, key=str)}"
                for key, s in sizes.items() if len(s) > 1]

    def _witness(self, ref: reference.RefModel, kind: str, payload: dict):
        w = payload["witness"]
        if kind in ("laxp", "lcxp"):
            return reference.bits_of(ref.index[name] for name in w), 0, len(w)
        mask = reference.bits_of(ref.index[name] for name in w)
        value = sum(int(b) << ref.index[name] for name, b in w.items())
        return mask, value, len(w)

    def _check_explain(self, req: Request, code: int, payload: dict) -> Optional[str]:
        ref = self.ref(req.model)
        kind, target, info = req.info["kind"], req.info["target"], req.info
        if info["min"] == "card":
            best = ref.min_card(kind, target, info["k"])
            if info.get("oracle"):
                found = oracle_size(self.inputs.models[req.model], kind, target)
                limited = found if found is not None and found <= info["k"] else None
                if limited != best:
                    return f"reference minimum {best} differs from oracle_min {found}"
        else:
            best = 0 if ref.exists(kind, target) else None
        if code == EXIT_NONE:
            if best is not None:
                return f"exit 3 (none) but an explanation of size {best} exists"
            return None if payload == {"size": None, "witness": None} else "bad none payload"
        if code != EXIT_OK:
            return f"exit {code}"
        if best is None:
            return "an answer where none exists"
        mask, value, size = self._witness(ref, kind, payload)
        if payload["size"] != size:
            return "size field differs from the witness"
        if not ref.explains(kind, target, mask, value):
            return f"witness {payload['witness']} does not explain"
        if info["min"] == "card":
            if size != best:
                return f"witness size {size}, minimum is {best}"
            return None
        for f in range(ref.n):
            if (mask >> f) & 1 and ref.explains(kind, target, mask ^ (1 << f), value & ~(1 << f)):
                return f"not subset-minimal: {ref.names[f]} can go"
        return None

    def _check_verify(self, req: Request, code: int, payload: dict) -> Optional[str]:
        info = req.info
        want = self.ref(req.model).explains(
            info["kind"], info["target"], info["mask"], info.get("value", 0)
        )
        if code != (EXIT_OK if want else EXIT_FALSE) or payload != {"result": want}:
            return f"exit {code} {payload}, expected verdict {want}"
        return None

    def _check_hom(self, req: Request, code: int, payload: dict) -> Optional[str]:
        want = self.ref(req.model).differs_within(req.info["k"])
        if code != (EXIT_OK if want else EXIT_FALSE) or payload != {"result": want}:
            return f"exit {code} {payload}, expected {want}"
        return None

    def _check_params(self, req: Request, code: int, payload: dict) -> Optional[str]:
        want = tree_params(self.inputs.models[req.model]["model"])
        if code != EXIT_OK or payload != want:
            return f"exit {code} {payload}, expected {want}"
        return None

    def _check_translate(self, req: Request, code: int, payload: dict) -> Optional[str]:
        if code != EXIT_OK:
            return f"exit {code}"
        with open(req.info["out"]) as fh:
            circuit = reference.TableModel(json.load(fh))
        ref = self.ref(req.model)
        want = ref.table if req.info["cls"] == 1 else ref.full ^ ref.table
        if circuit.table != want:
            return "circuit table differs from the model's class region"
        return None


def oracle_size(doc: dict, kind: str, target) -> Optional[int]:
    """Size of xplain's exhaustive ground-truth minimum (``oracle_min``)."""
    model = sys.modules["xplain.modelio"].load_model(doc)
    if kind in ("laxp", "lcxp"):
        target = sys.modules["xplain.core"].Example.from_mask(model.universe, target)
    found = sys.modules["xplain.verify"].oracle_min(model, kind, target)
    return None if found is None else found[0]


def tree_params(body: dict) -> dict:
    """Parameters the CLI reports for a tree or a tree ensemble."""
    (tag, payload), = body.items()
    if tag == "dt":
        labels = [node["leaf"] for node in payload["nodes"] if "leaf" in node]
        size = len(labels)
        return {"mnl_size": min(labels.count(0), labels.count(1)),
                "model_size": size, "size_elem": size}
    elements = [tree_params(el) for el in payload["elements"]]
    return {
        "ens_size": len(elements),
        "mnl_size": max(p["mnl_size"] for p in elements),
        "model_size": sum(p["model_size"] for p in elements),
        "size_elem": max(p["size_elem"] for p in elements),
    }
