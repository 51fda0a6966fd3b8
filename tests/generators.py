"""Seeded random instances shared by the tests and the experiment scripts."""

from __future__ import annotations

from itertools import combinations
from random import Random

import xplain as x
from xplain.gadgets import _constant_model
from xplain.modelio import dump_model, load_model


def random_universe(rng: Random, n: int) -> x.FeatureUniverse:
    return x.FeatureUniverse(tuple(f"f{i}" for i in range(n)))


def random_example(rng: Random, u: x.FeatureUniverse) -> x.Example:
    return x.Example(u, tuple(rng.randint(0, 1) for _ in range(len(u))))


def random_dt(
    rng: Random, u: x.FeatureUniverse, max_depth: int = 4, leaf_p: float = 0.3
) -> x.DecisionTree:
    nodes: list = []

    def build(depth: int) -> int:
        if depth >= max_depth or len(u) == 0 or rng.random() < leaf_p:
            nodes.append(x.Leaf(rng.randint(0, 1)))
            return len(nodes) - 1
        f = rng.randrange(len(u))
        lo = build(depth + 1)
        hi = build(depth + 1)
        nodes.append(x.Split(f, lo, hi))
        return len(nodes) - 1

    root = build(0)
    return x.DecisionTree(u, tuple(nodes), root)


def leaf_assignments(t: x.DecisionTree) -> list[tuple[int, dict[int, int]]]:
    """(leaf node index, path assignment) in depth-first, 0-child-first order:
    the tests' reference form of the leaf paths, which ``xplain`` itself reads
    as masks off ``core._leaf_paths``."""
    out: list[tuple[int, dict[int, int]]] = []
    path: list[tuple[int, int]] = []  # (feature, bit) from the root down
    stack: list[tuple[int, int, tuple[int, int] | None]] = [(t.root, 0, None)]
    while stack:
        i, depth, literal = stack.pop()  # depth = literals on the node's path
        if literal is not None:
            del path[depth - 1:]
            path.append(literal)
        node = t.nodes[i]
        if isinstance(node, x.Leaf):
            out.append((i, dict(path)))
            continue
        stack.append((node.hi, depth + 1, (node.feature, 1)))
        stack.append((node.lo, depth + 1, (node.feature, 0)))
    return out


def in_normal_form(t: x.DecisionTree) -> bool:
    """Reference for ``core.is_normalized``, by an explicit-stack walk: no
    root-to-leaf path tests a feature twice, and the arena lists the nodes
    in their depth-first post-order, 0-child first."""
    order: list[int] = []  # node indices in post-order
    stack = [(t.root, 0, False)]  # (node, features above it, children done)
    while stack:
        i, above, done = stack.pop()
        node = t.nodes[i]
        if done or isinstance(node, x.Leaf):
            order.append(i)
            continue
        bit = 1 << node.feature
        if above & bit:
            return False
        stack += ((i, above, True), (node.hi, above | bit, False), (node.lo, above | bit, False))
    return order == list(range(len(t.nodes)))


def relaid_arena(t: x.DecisionTree, post: bool, zero_first: bool = True) -> x.DecisionTree:
    """The same tree with its arena relaid in depth-first post-order or
    pre-order, each split's 0-child first or its 1-child first."""
    order: list[int] = []
    stack = [(t.root, False)]
    while stack:
        i, done = stack.pop()
        node = t.nodes[i]
        if done or isinstance(node, x.Leaf):
            order.append(i)
            continue
        if post:
            stack.append((i, True))
        else:
            order.append(i)
        first, second = (node.lo, node.hi) if zero_first else (node.hi, node.lo)
        stack += ((second, False), (first, False))
    return moved_arena(t, {old: new for new, old in enumerate(order)})


def permuted_arena(rng: Random, t: x.DecisionTree) -> x.DecisionTree:
    """t with its arena shuffled at random."""
    p = list(range(len(t.nodes)))
    rng.shuffle(p)
    return moved_arena(t, p)


def moved_arena(t: x.DecisionTree, p) -> x.DecisionTree:
    """t with node i moved to place p[i] of its arena, links and root
    following."""
    nodes = [None] * len(t.nodes)
    for i, node in enumerate(t.nodes):
        if isinstance(node, x.Split):
            node = x.Split(node.feature, p[node.lo], p[node.hi])
        nodes[p[i]] = node
    return x.DecisionTree(t.universe, tuple(nodes), p[t.root], t.order)


def random_term(rng: Random, u: x.FeatureUniverse, max_len: int = 3):
    size = rng.randint(1, min(max_len, len(u)))
    features = rng.sample(range(len(u)), size)
    return tuple((f, rng.randint(0, 1)) for f in features)


def random_ds(rng: Random, u: x.FeatureUniverse, max_terms: int = 4) -> x.DecisionSet:
    """Random decision set; over an empty universe it has no term."""
    count = rng.randint(0, max_terms) if len(u) else 0
    terms = tuple(random_term(rng, u) for _ in range(count))
    return x.DecisionSet(u, terms, rng.randint(0, 1))


def random_dl(rng: Random, u: x.FeatureUniverse, max_rules: int = 4) -> x.DecisionList:
    """Random decision list; over an empty universe it is its default rule."""
    count = rng.randint(0, max_rules) if len(u) else 0
    rules = tuple((random_term(rng, u), rng.randint(0, 1)) for _ in range(count))
    return x.DecisionList(u, rules + (((), rng.randint(0, 1)),))


def alternating_dl(
    rng: Random, u: x.FeatureUniverse, rules: int, default: int, max_run: int = 1
) -> x.DecisionList:
    """Decision list of ``rules`` rules, the default one (class ``default``)
    included: before it, runs of 1 to ``max_run`` rules alternate between
    the classes, starting with class 0, and each term has two literals (one
    over a one-feature universe)."""
    body: list = []
    cls = 0
    while len(body) < rules - 1:
        for _ in range(min(rng.randint(1, max_run), rules - 1 - len(body))):
            features = rng.sample(range(len(u)), min(2, len(u)))
            body.append((tuple((f, rng.randint(0, 1)) for f in features), cls))
        cls = 1 - cls
    return x.DecisionList(u, (*body, ((), default)))


def random_model(rng: Random, u: x.FeatureUniverse, family: str):
    if family == "dt":
        return random_dt(rng, u)
    if family == "ds":
        return random_ds(rng, u)
    if family == "dl":
        return random_dl(rng, u)
    raise ValueError(family)


def constant_model(u: x.FeatureUniverse, family: str, label: int):
    """The clique gadgets' constant padder of ``family`` ("dt", "ds" or
    "dl"): every example gets class ``label``."""
    return _constant_model(u, label, "odt" if family == "dt" else family, range(len(u)))


def random_ensemble(
    rng: Random, u: x.FeatureUniverse, family: str, size: int = 3
) -> x.Ensemble:
    """An ensemble of ``size`` elements.  Half the time its last r >= 2
    elements are one object repeated, a random element or a constant padder
    (as in the clique gadgets), so one ballot carries r votes."""
    repeats = rng.randint(2, size) if size > 1 and rng.random() < 0.5 else 0
    elements = [random_model(rng, u, family) for _ in range(size - repeats)]
    if repeats:
        shared = (
            constant_model(u, family, rng.randint(0, 1))
            if rng.random() < 0.5
            else random_model(rng, u, family)
        )
        elements += [shared] * repeats
    return x.Ensemble(u, tuple(elements))


def random_any_model(rng: Random, u: x.FeatureUniverse):
    """A model of one of the five families; circuits come from ``translate``
    (which needs a nonempty universe)."""
    family = rng.choice(["dt", "ds", "dl", "ens", "circuit"])
    if family == "ens":
        return random_ensemble(rng, u, rng.choice(["dt", "ds", "dl"]))
    if family == "circuit":
        source = random_model(rng, u, rng.choice(["dt", "ds", "dl"]))
        return x.translate(source, rng.randint(0, 1))[0]
    return random_model(rng, u, family)


def random_circuit(rng: Random, u: x.FeatureUniverse, extra_gates: int = 8) -> x.Circuit:
    """Random DAG pruned to the ancestors of its final gate."""
    gates: list[x.Gate] = []
    in_count = rng.randint(1, len(u))
    for f in rng.sample(range(len(u)), in_count):
        gates.append(x.Gate("IN", feature=f))
    for _ in range(extra_gates):
        kind = rng.choice(["AND", "OR", "NOT", "MAJ"])
        if kind == "NOT":
            ins = (rng.randrange(len(gates)),)
        else:
            width = rng.randint(1, min(3, len(gates)))
            ins = tuple(sorted(rng.sample(range(len(gates)), width)))
        threshold = rng.randint(1, len(ins)) if kind == "MAJ" else None
        gates.append(x.Gate(kind, ins, threshold))
    # prune everything that does not feed the final gate
    keep = set()
    stack = [len(gates) - 1]
    while stack:
        i = stack.pop()
        if i in keep:
            continue
        keep.add(i)
        stack.extend(gates[i].ins)
    dense = {}
    kept_gates = []
    for i in sorted(keep):
        dense[i] = len(kept_gates)
        g = gates[i]
        kept_gates.append(
            x.Gate(g.kind, tuple(dense[j] for j in g.ins), g.threshold, g.feature)
        )
    return x.Circuit(u, tuple(kept_gates), len(kept_gates) - 1)


def reindexed(rng: Random, model, extra: int):
    """``model`` over a universe ``extra`` features wider, with its own
    features at sorted random positions, and those positions: its JSON
    document, whose features are named, loaded with the wider universe.  A
    tree's order tag lists the new features last."""
    n = len(model.universe)
    pos = sorted(rng.sample(range(n + extra), n))
    names = [f"w{i}" for i in range(n + extra)]
    for f, p in enumerate(pos):
        names[p] = model.universe.name(f)
    doc = dump_model(model)
    bodies = [doc["model"]]
    for body in bodies:
        if "order" in body.get("dt", {}):
            body["dt"]["order"] += [name for name in names if name not in model.universe.names]
        bodies += body.get("ensemble", {}).get("elements", [])
    return load_model({**doc, "universe": names}), pos


def widened(answer, pos: list[int], u: x.FeatureUniverse):
    """An answer of a model mapped onto ``reindexed``'s universe u: a
    feature set or partial example moved to the positions, anything else
    (a bool, None) as it is."""
    if isinstance(answer, frozenset):
        return frozenset(pos[f] for f in answer)
    if isinstance(answer, x.PartialExample):
        return x.PartialExample(u, tuple((pos[f], b) for f, b in answer.assignments))
    return answer


def widened_example(rng: Random, e: x.Example, pos: list[int],
                    u: x.FeatureUniverse) -> x.Example:
    """e on ``reindexed``'s universe u: its bits at the positions, random
    bits elsewhere."""
    bits = [rng.randint(0, 1) for _ in range(len(u))]
    for f, p in enumerate(pos):
        bits[p] = e.bits[f]
    return x.Example(u, tuple(bits))


def random_coloured_graph(
    rng: Random, n: int, k: int, edge_p: float = 0.5
) -> x.ColouredGraph:
    """n vertices split into k nonempty colour classes, cross-class edges."""
    assert n >= k >= 1
    vertices = [f"n{i}" for i in range(n)]
    classes: list[list[str]] = [[vertices[i]] for i in range(k)]
    for v in vertices[k:]:
        classes[rng.randrange(k)].append(v)
    colour_of = {v: ci for ci, cls in enumerate(classes) for v in cls}
    edges = [
        (u_, v_)
        for i, u_ in enumerate(vertices)
        for v_ in vertices[i + 1 :]
        if colour_of[u_] != colour_of[v_] and rng.random() < edge_p
    ]
    return x.ColouredGraph(tuple(tuple(c) for c in classes), tuple(edges))


def unary_clique_gadget(mode: str, family: str = "dl") -> tuple[x.ColouredGraph, x.Ensemble]:
    """A fixed 10-vertex, 5-colour graph (every other cross-colour pair an
    edge) and its unary clique gadget: 509 elements in 36 ballots, 25
    rejectors of 10 copies each, 10 acceptors and one padder of 259 votes."""
    classes = tuple((f"v{2 * i}", f"v{2 * i + 1}") for i in range(5))
    vertices = [v for c in classes for v in c]
    cross = [(a, b) for a, b in combinations(vertices, 2)
             if not any(a in c and b in c for c in classes)]
    g = x.ColouredGraph(classes, tuple(cross[::2]))
    return g, x.mcc_unary_ensemble_gadget(g, g.k, mode, family).model


def random_hitting_set(rng: Random, n_elems: int, n_sets: int):
    elements = [f"e{i}" for i in range(n_elems)]
    sets = [
        frozenset(rng.sample(elements, rng.randint(1, min(3, n_elems))))
        for _ in range(n_sets)
    ]
    return elements, sets


def random_dnf(rng: Random, n_vars: int, n_terms: int, zero_sat: bool = True):
    """Random 3-DNF; with zero_sat a term satisfied by the all-zero
    assignment is forced in."""
    variables = [f"x{i}" for i in range(n_vars)]
    terms = []
    if zero_sat:
        picked = rng.sample(variables, rng.randint(1, min(3, n_vars)))
        terms.append([(v, 0) for v in picked])
    for _ in range(n_terms - len(terms)):
        picked = rng.sample(variables, rng.randint(1, min(3, n_vars)))
        terms.append([(v, rng.randint(0, 1)) for v in picked])
    return terms, variables


def wide_set_doc(n: int, terms: int, seed: int) -> dict:
    """A decision set of ``terms`` terms of 2 to 4 literals over n features,
    as a model document."""
    rng = Random(seed)
    names = [f"x{i}" for i in range(n)]
    body = [[[names[f], rng.randint(0, 1)] for f in rng.sample(range(n), 2 + j % 3)]
            for j in range(terms)]
    return {"universe": names, "model": {"ds": {"terms": body, "default": 0}}}
