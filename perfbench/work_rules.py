"""The ``rules`` workload: CLI requests on rule models and their circuits.

Decision sets, decision lists and three-element majority ensembles of each,
over 12 to 20 features: the universes lie on both sides of the 16-feature
limit above which verification classifies one example at a time.  Each
model gets two minimum contrastive explanations through branching,
``verify`` of a valid ``laxp`` and a valid ``gaxp`` candidate leaving 8 to
14 features free, and ``translate``.  Models up to 16 features also get the
first contrastive explanation again through ``--algo enum`` (the two must
agree), ``hom`` and ``hom --k``; up to 14, the greedy ``laxp`` subset.
The circuits that ``translate`` makes from the models up to 14 features are
models in their own right: ``hom``, ``hom --k``, ``lcxp`` by enumeration
and ``verify``.  Truth tables and enumeration do the work here; no tree
engine runs.
"""

from __future__ import annotations

import sys
from pathlib import Path
from random import Random

from cliwork import Files, Inputs, Request, example_doc, features_doc, partial_doc

MODELS_PER_CELL = 4
FAMILIES = ("ds", "dl", "ens-ds", "ens-dl")
WIDTHS = (12, 14, 16, 18, 20)
FREE = (8, 9, 10, 11, 12, 13, 14)  # free features of the verify candidates


def spread_features(rng: Random, n: int, sizes: list[int]) -> list[list[int]]:
    """Distinct features for terms of the given sizes, every feature used
    equally often (the lowest ones once more where the count does not
    divide).  Building a table costs more for low feature indices, so a
    model's cost then depends on its sizes, not on the features drawn."""
    total = sum(sizes)
    pool = list(range(n)) * (total // n) + list(range(total % n))
    rng.shuffle(pool)
    out = []
    for size in sizes:
        chosen: list[int] = []
        for f in pool:
            if f not in chosen:
                chosen.append(f)
                if len(chosen) == size:
                    break
        for f in chosen:
            pool.remove(f)
        while len(chosen) < size:  # only repeats were left in the pool
            f = rng.randrange(n)
            if f not in chosen:
                chosen.append(f)
        out.append(sorted(chosen))
    return out


def random_rules(rng: Random, family: str, names: list[str], count: int) -> dict:
    """A decision set or list of ``count`` terms (plus the default rule),
    term sizes cycling over 2, 3 and 4 literals in a seeded order: the sizes,
    and with them the cost of a table, are the same for every seed."""
    sizes = [2 + j % 3 for j in range(count)]
    rng.shuffle(sizes)
    terms = [[[names[f], rng.randint(0, 1)] for f in picked]
             for picked in spread_features(rng, len(names), sizes)]
    if family == "ds":
        return {"ds": {"terms": terms, "default": rng.randint(0, 1)}}
    rules = [[term, rng.randint(0, 1)] for term in terms]
    return {"dl": {"rules": rules + [[[], rng.randint(0, 1)]]}}


def _bit(e: int, f: int) -> int:
    return (e >> f) & 1


def _applies(term, index, e: int) -> bool:
    return all(_bit(e, index[name]) == b for name, b in term)


def _features(term, index) -> int:
    return sum(1 << index[name] for name, _ in term)


def _disagreement(term, index, e: int) -> int:
    return next(1 << index[name] for name, b in term if _bit(e, index[name]) != b)


def forcing_set(body: dict, index: dict, e: int) -> tuple[int, int]:
    """(class of e, features of e that force that class): the firing term or
    rule, plus one disagreeing feature per term that must stay off."""
    (tag, p), = body.items()
    if tag == "ds":
        for term in p["terms"]:
            if _applies(term, index, e):
                return 1 - p["default"], _features(term, index)
        mask = 0
        for term in p["terms"]:
            mask |= _disagreement(term, index, e)
        return p["default"], mask
    if tag == "dl":
        for j, (term, c) in enumerate(p["rules"]):
            if _applies(term, index, e):
                mask = _features(term, index)
                for earlier, c_earlier in p["rules"][:j]:
                    if c_earlier != c:
                        mask |= _disagreement(earlier, index, e)
                return c, mask
        raise AssertionError("the last rule of a list always applies")
    votes = [forcing_set(el, index, e) for el in p["elements"]]
    need = len(votes) // 2 + 1
    cls = int(sum(c for c, _ in votes) >= need)
    chosen = sorted((m for c, m in votes if c == cls), key=lambda m: bin(m).count("1"))
    mask = 0
    for m in chosen[:need]:
        mask |= m
    return cls, mask


def _candidate(rng: Random, body: dict, names: list[str], free: int) -> tuple[int, int, int]:
    """(example, class, feature mask) such that the example fixed on the mask
    forces its class and, where the universe allows, exactly ``free``
    features stay free."""
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    best = None
    for _ in range(64):
        e = rng.getrandbits(n)
        cls, mask = forcing_set(body, index, e)
        if best is None or bin(mask).count("1") < bin(best[2]).count("1"):
            best = (e, cls, mask)
        if n - bin(mask).count("1") >= free:
            break
    e, cls, mask = best
    spare = [f for f in range(n) if not (mask >> f) & 1]
    rng.shuffle(spare)
    for f in spare[: max(0, len(spare) - free)]:
        mask |= 1 << f
    return e, cls, mask


def setup(seed: int, workdir: Path, tick=lambda: None) -> Inputs:
    """Inputs for one run; ``tick`` is called once per model."""
    x_circuits = sys.modules["xplain.circuits"]
    x_modelio = sys.modules["xplain.modelio"]
    rng = Random(f"rules:{seed}")
    files = Files(workdir)
    models: dict[str, dict] = {}
    requests: list[Request] = []
    cells = [(fam, n) for _ in range(MODELS_PER_CELL) for fam in FAMILIES for n in WIDTHS]
    for i, (family, n) in enumerate(cells):
        tick()
        names = [f"f{j}" for j in range(n)]
        spin = i // len(WIDTHS)  # sizes vary across cells, never across seeds
        if family.startswith("ens-"):
            body = {"ensemble": {"family": family[4:], "elements": [
                random_rules(rng, family[4:], names, 2 + (spin + j) % 3) for j in range(3)]}}
        else:
            body = random_rules(rng, family, names, 6 + spin % 5)
        key = f"{family}{n}-{i}"
        doc = {"universe": names, "model": body}
        models[key] = doc
        model_file = files.write(key, doc)
        e1 = rng.getrandbits(n)
        ex1 = ["--example", files.write("example", example_doc(names, e1))]
        k = 2 + i % 3
        e_lax, _, mask_lax = _candidate(rng, body, names, FREE[i % len(FREE)])
        laxp_args = ["--kind", "laxp",
                     "--example", files.write("example", example_doc(names, e_lax)),
                     "--candidate", files.write("features", features_doc(names, mask_lax))]
        e_g, c_g, mask_g = _candidate(rng, body, names, FREE[(i + 3) % len(FREE)])
        gaxp_args = ["--kind", "gaxp", "--class", str(c_g), "--candidate",
                     files.write("partial", partial_doc(names, mask_g, e_g & mask_g))]
        c_tr = rng.randint(0, 1)
        k_hom = 2 + spin % 2

        def add(target_key: str, check: str, argv: list[str], **info) -> None:
            requests.append(Request(argv, check, target_key, info))

        def lcxp_card(target_key: str, path: str, algo: str) -> None:
            add(target_key, "explain",
                ["explain", "--model", path, "--kind", "lcxp", "--min", "card",
                 "--k", str(k), *ex1, "--algo", algo],
                kind="lcxp", min="card", target=e1, k=k, oracle=n <= 16,
                pair=(key, e1, k) if n <= 16 else None)

        lcxp_card(key, model_file, "branch")
        e2 = rng.getrandbits(n)
        add(key, "explain",
            ["explain", "--model", model_file, "--kind", "lcxp", "--min", "card",
             "--k", str(k), "--example", files.write("example", example_doc(names, e2))],
            kind="lcxp", min="card", target=e2, k=k, oracle=n <= 16)
        add(key, "verify", ["verify", "--model", model_file, *laxp_args],
            kind="laxp", target=e_lax, mask=mask_lax)
        add(key, "verify", ["verify", "--model", model_file, *gaxp_args],
            kind="gaxp", target=c_g, mask=mask_g, value=e_g & mask_g)
        out = files.path("translated")
        add(key, "translate",
            ["translate", "--model", model_file, "--class", str(c_tr), "--out", out],
            cls=c_tr, out=out)
        if n > 16:
            continue
        # above 16 features these stop at the first example that answers
        # them, one at a time, so their cost would be a matter of luck
        lcxp_card(key, model_file, "enum")
        add(key, "hom", ["hom", "--model", model_file, "--k", str(k_hom)], k=k_hom)
        add(key, "hom", ["hom", "--model", model_file], k=None)
        if n > 14:
            continue
        add(key, "explain",
            ["explain", "--model", model_file, "--kind", "laxp", "--min", "subset", *ex1],
            kind="laxp", min="subset", target=e1)
        # the circuit of the same model becomes a model of its own
        ckey = f"{key}.circuit"
        circuit, _ = x_circuits.translate(x_modelio.load_model(doc), c_tr)
        cdoc = x_modelio.dump_model(circuit)
        models[ckey] = cdoc
        cfile = files.write(ckey, cdoc)
        add(ckey, "hom", ["hom", "--model", cfile], k=None)
        add(ckey, "hom", ["hom", "--model", cfile, "--k", str(k_hom)], k=k_hom)
        add(ckey, "explain",
            ["explain", "--model", cfile, "--kind", "lcxp", "--min", "card",
             "--k", str(k), *ex1, "--algo", "enum"],
            kind="lcxp", min="card", target=e1, k=k, oracle=True)
        add(ckey, "verify", ["verify", "--model", cfile, *laxp_args],
            kind="laxp", target=e_lax, mask=mask_lax)
    return Inputs(models, requests, workdir)
