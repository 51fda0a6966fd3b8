"""The ``gadgets`` workload: reduction instances answered through the library.

Instances are built at set-up the way the gadget-truth acceptance criterion
builds them: multicoloured clique into an ordered-tree ``gaxp`` query, into
majority ensembles of pair recognizers (set mode) or existence models
(subset mode), and into ensembles of unary rejectors; hitting set into
recognizer trees and rule models; DNF tautology into a decision set.  Each
query is answered with ``gadgets.answer_query``.

The per-query cost runs from microseconds to about a second, and the
ordered-tree queries with four colours form the tail.  A run that drew more
of them, or larger ones, would move throughput by more than any change worth
measuring, so every size (vertices, colours, edge count, elements, sets,
budget, variables, terms) follows a fixed schedule per instance slot and
half of each ordered-tree block are "yes" instances; the seed draws which
vertices, edges, sets and literals they are.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from random import Random

# per ordered-tree block: colours, vertex counts cycled over the slots, the
# shares of cross-colour vertex pairs joined by an edge in its "yes" and in
# its "no" instances (cycled), and the number of instances
ODT_BLOCKS = (
    (4, (5,), (0.6, 0.75, 0.9), (0.2, 0.3, 0.4), 16),
    (3, (6, 7, 8, 9, 10), (0.6, 0.75, 0.9), (0.2, 0.3, 0.4), 120),
    (2, (4, 6, 8, 10), (0.2, 0.5, 0.8), (0.0,), 20),  # no edge, no 2-clique
)
ENSEMBLE_GRAPHS = 60
UNARY_GRAPHS = 200
DENSITIES = (0.2, 0.35, 0.5, 0.65, 0.8)  # of the ensemble graphs, cycled
HITTING_SETS = 40
FORMULAS = 24


@dataclass
class Request:
    instance: object  # xplain GadgetInstance
    query: object  # xplain Query
    source: tuple  # the source-problem instance, for the check


@dataclass
class Inputs:
    requests: list[Request]


def random_coloured_graph(rng: Random, n: int, k: int, density: float, edges_at_least: int):
    """(colour classes, edges): n vertices dealt round-robin into k classes,
    and a random share of the cross-class pairs as edges."""
    vertices = [f"n{i}" for i in range(n)]
    classes = [vertices[c::k] for c in range(k)]
    colour = {v: c for c, cls in enumerate(classes) for v in cls}
    pairs = [(u, v) for u, v in combinations(vertices, 2) if colour[u] != colour[v]]
    m = max(edges_at_least, round(density * len(pairs)))
    return tuple(tuple(c) for c in classes), tuple(sorted(rng.sample(pairs, m)))


def setup(seed: int, workdir: Path, tick=lambda: None) -> Inputs:
    """Inputs for one run; ``tick`` is called once per instance."""
    x_gadgets = sys.modules["xplain.gadgets"]
    truth = sys.modules["xplain.truth"]
    rng = Random(f"gadgets:{seed}")
    instances: list[tuple[object, tuple]] = []

    def graph(k: int, n: int, density: float, want=None):
        """A coloured graph; with ``want`` set, one whose clique answer is
        that (edges redrawn until it is)."""
        tick()
        least = k * (k - 1) // 2 if want else 0  # edges of one k-clique
        while True:
            classes, edges = random_coloured_graph(rng, n, k, density, least)
            vertices = [v for cls in classes for v in cls]
            if want is None or truth.has_clique(vertices, edges, k) == want:
                source = ("clique", vertices, edges, k)
                return x_gadgets.ColouredGraph(classes, edges), source

    for k, sizes, yes_density, no_density, count in ODT_BLOCKS:
        for j in range(count):
            want = j % 2 == 0
            densities = yes_density if want else no_density
            n, density = sizes[j // 2 % len(sizes)], densities[j // 2 % len(densities)]
            g, source = graph(k, n, density, want)
            instances.append((x_gadgets.mcc_odt_gaxp_gadget(g, k), source))
    for j in range(ENSEMBLE_GRAPHS + UNARY_GRAPHS):
        k = 2 + j % 3
        n = k + j // 3 % (9 if k < 4 else 6)  # up to 12 vertices, 9 with four colours
        g, source = graph(k, n, DENSITIES[j // 3 % len(DENSITIES)])
        mode = ("set", "subset")[j // 3 % 2]
        if j < ENSEMBLE_GRAPHS:
            inst = x_gadgets.mcc_ensemble_gadget(g, k, mode, family="ds")
        else:
            inst = x_gadgets.mcc_unary_ensemble_gadget(g, k, mode, family="dl")
        instances.append((inst, source))
    for j in range(HITTING_SETS):
        tick()
        elements = [f"e{i}" for i in range(3 + j % 8)]
        sets = [frozenset(rng.sample(elements, 1 + (j + s) % 3)) for s in range(1 + j // 3 % 5)]
        k = j // 2 % 4
        mode = ("set-odt", "subset-ds", "subset-dl")[j % 3]
        instances.append((x_gadgets.hitting_set_gadget(elements, sets, k, mode),
                          ("hitting", sets, k)))
    for j in range(FORMULAS):
        tick()
        variables = [f"x{i}" for i in range(1 + j % 10)]
        width = min(3, len(variables))
        # one term true on the all-zero assignment, so the instance has a query
        terms = [[(v, 0) for v in rng.sample(variables, 1 + j % width)]]
        for t in range(j // 2 % 5):
            picked = rng.sample(variables, 1 + (j + t) % width)
            terms.append([(v, rng.randint(0, 1)) for v in picked])
        instances.append((x_gadgets.taut_ds_gadget(terms, variables),
                          ("taut", terms, variables)))
    requests = [Request(inst, q, source) for inst, source in instances for q in inst.queries]
    rng.shuffle(requests)
    return Inputs(requests)


def execute(req: Request) -> bool:
    return sys.modules["xplain.gadgets"].answer_query(req.instance.model, req.query)


def expected(source: tuple) -> bool:
    """The source problem's answer, from xplain.truth run on the source
    instance itself rather than on anything the gadget builder produced."""
    truth = sys.modules["xplain.truth"]
    if source[0] == "clique":
        _, vertices, edges, k = source
        return truth.has_clique(vertices, edges, k)
    if source[0] == "hitting":
        _, sets, k = source
        size = truth.min_hitting_set_size(sets)
        return size is not None and size <= k
    _, terms, variables = source
    return not truth.is_tautology_dnf(terms, variables)
