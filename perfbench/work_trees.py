"""The ``trees`` workload: CLI requests on decision trees and tree ensembles.

Single trees read 16 to 24 features and have 200 to 300 leaves; features
are drawn independently at every split, so some paths test a feature twice
and ``normalize_dt`` has work to do.  Ensembles are majority votes of three
trees of 15 to 19 leaves, which the CLI turns into one tree through
``product_dt``.  Each tree gets every explanation kind in both minimality
modes, ``verify`` of all four kinds and ``params``; each ensemble gets the
kinds that take the product route.  No request reaches a truth table or an
enumeration.
"""

from __future__ import annotations

from pathlib import Path
from random import Random

import reference
from cliwork import Files, Inputs, Request, example_doc, features_doc, partial_doc

TREES = 90
ENSEMBLES = 36
WIDTHS = (16, 18, 20, 22, 24)


def random_tree(rng: Random, names: list[str], leaves: int, max_depth: int) -> dict:
    """Random tree body with exactly ``leaves`` leaves: split a random leaf
    above the depth limit on a uniformly drawn feature until enough leaves
    exist.  Labels are drawn per leaf."""
    nodes: list[dict] = [{"leaf": rng.randint(0, 1)}]
    open_leaves = [(0, 0)]  # (node index, depth) of leaves that may split
    for _ in range(leaves - 1):
        i, depth = open_leaves.pop(rng.randrange(len(open_leaves)))
        nodes[i] = {"test": rng.choice(names), "if0": len(nodes), "if1": len(nodes) + 1}
        for _ in range(2):
            if depth + 1 < max_depth:
                open_leaves.append((len(nodes), depth + 1))
            nodes.append({"leaf": rng.randint(0, 1)})
    return {"dt": {"root": 0, "nodes": nodes}}


def setup(seed: int, workdir: Path, tick=lambda: None) -> Inputs:
    """Inputs for one run; ``tick`` is called once per model."""
    rng = Random(f"trees:{seed}")
    files = Files(workdir)
    models: dict[str, dict] = {}
    requests: list[Request] = []
    for i in range(TREES + ENSEMBLES):
        tick()
        n = WIDTHS[i % len(WIDTHS)]
        names = [f"f{j}" for j in range(n)]
        if i < TREES:
            key = f"tree{i}"
            body = random_tree(rng, names, 200 + (37 * i) % 101, 14)
        else:
            key = f"ens{i - TREES}"
            body = {"ensemble": {"family": "dt", "elements": [
                random_tree(rng, names, 15 + (i + j) % 5, 7) for j in range(3)]}}
        doc = {"universe": names, "model": body}
        models[key] = doc
        model = ["--model", files.write(key, doc)]
        e1, e2 = rng.getrandbits(n), rng.getrandbits(n)
        ex1 = ["--example", files.write("example", example_doc(names, e1))]
        ex2 = ["--example", files.write("example", example_doc(names, e2))]

        def add(check: str, argv: list[str], **info) -> None:
            requests.append(Request(argv, check, key, info))

        def explain(kind: str, minimum: str, target_args: list[str], target, k=None):
            argv = ["explain", *model, "--kind", kind, "--min", minimum, *target_args]
            if k is not None:
                argv += ["--k", str(k)]
            add("explain", argv, kind=kind, min=minimum, target=target, k=k)

        add("params", ["params", *model])
        explain("laxp", "subset", ex1, e1)
        explain("lcxp", "subset", ex1, e1)
        for kind in ("gaxp", "gcxp"):
            c = rng.randint(0, 1)
            explain(kind, "subset", ["--class", str(c)], c)
        explain("laxp", "card", ex2, e2, 2 + i % 3)
        for kind in ("gaxp", "gcxp"):
            c = rng.randint(0, 1)
            explain(kind, "card", ["--class", str(c)], c, 2 + i % 2)
        if i >= TREES:
            continue  # verify and lcxp-card of tree ensembles enumerate
        explain("lcxp", "card", ex2, e2, 2 + (i + 1) % 3)

        paths = reference.PathModel(doc).paths
        # laxp: the features on e1's leaf path fix its leaf, plus a few more
        own = next(m for m, v, _ in paths if not m & (v ^ e1))
        mask = own | reference.bits_of(rng.sample(range(n), i % 4))
        add("verify", ["verify", *model, "--kind", "laxp", *ex1, "--candidate",
                       files.write("features", features_doc(names, mask))],
            kind="laxp", target=e1, mask=mask)
        mask = reference.bits_of(rng.sample(range(n), 1 + i % 4))
        add("verify", ["verify", *model, "--kind", "lcxp", *ex2, "--candidate",
                       files.write("features", features_doc(names, mask))],
            kind="lcxp", target=e2, mask=mask)
        # global: a leaf's path forces its label; half the time one literal
        # is dropped, which may or may not keep it forcing
        for kind in ("gaxp", "gcxp"):
            mask, value, label = rng.choice(paths)
            if mask and rng.random() < 0.5:
                drop = 1 << rng.choice([f for f in range(n) if (mask >> f) & 1])
                mask, value = mask ^ drop, value & ~drop
            c = label if kind == "gaxp" else 1 - label
            add("verify", ["verify", *model, "--kind", kind, "--class", str(c),
                           "--candidate", files.write("partial", partial_doc(names, mask, value))],
                kind=kind, target=c, mask=mask, value=value)
    return Inputs(models, requests, workdir)
