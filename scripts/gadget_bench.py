#!/usr/bin/env python3
"""Generate reduction-instance batches and certify them against the naive
source-problem solvers.

Reports per-generator instance counts, truth splits, model sizes, wall
time and live bytes per tree node; any truth disagreement aborts with the
instance printed, and so does a tree, an ensemble's elements included, that
breaks its order tag (``respects_order``): the tree builders
(``mcc_odt_gaxp_gadget`` and the set recognizers) emit their order by
construction and do not check it themselves.  The inputs are drawn first;
each generator's time covers building its instances, certifying their
orders and answering their queries.  After that, off the clock, the
generator's first instance is built once more under ``tracemalloc``: the
bytes it keeps live over the nodes of its distinct trees ("-" when it
has no tree).

    python3 scripts/gadget_bench.py --instances 25 --seed 1
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import xplain as x
from generators import random_coloured_graph, random_dnf, random_hitting_set


@dataclass
class BenchConfig:
    instances: int = 25
    seed: int = 0
    max_vertices: int = 10
    max_colours: int = 4


def _trees(model) -> list:
    """The distinct trees of a model: itself, or an ensemble's elements."""
    distinct = {id(m): m for m in getattr(model, "elements", (model,))}.values()
    return [t for t in distinct if isinstance(t, x.DecisionTree)]


def _bytes_per_node(build, args: tuple):
    """Live bytes of one more ``build(*args)`` over the nodes of its
    distinct trees, or None when it has no tree."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        inst = build(*args)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    nodes = sum(len(t.nodes) for t in _trees(inst.model))
    return round(live / nodes) if nodes else None


def _certify(name: str, build, inputs: list) -> dict:
    """Build and certify one generator's instances, ``build(*args)`` for
    each ``args`` of ``inputs``, on the clock: each tree's order tag, then
    each query's answer.  Then, off the clock, the live bytes per tree node
    of its first instance."""
    started = time.perf_counter()
    yes = 0
    size = 0
    count = 0
    for args in inputs:
        inst = build(*args)
        for t in _trees(inst.model):
            if t.order and not x.respects_order(t, t.order):
                print(f"ORDER VIOLATION in {name}: {inst.provenance}")
                raise SystemExit(1)
        for q in inst.queries:
            got = x.answer_query(inst.model, q)
            if got != inst.truth:
                print(f"TRUTH MISMATCH in {name}: {inst.provenance} {q}")
                raise SystemExit(1)
        yes += int(inst.truth)
        size += x.measure(inst.model).model_size
        count += 1
    seconds = round(time.perf_counter() - started, 2)
    return {
        "generator": name,
        "instances": count,
        "yes": yes,
        "avg_size": round(size / max(count, 1), 1),
        "seconds": seconds,
        "bytes_per_node": _bytes_per_node(build, inputs[0]) if inputs else None,
    }


def run(cfg: BenchConfig) -> None:
    rng = Random(cfg.seed)
    rows = []

    graphs = []
    for i in range(cfg.instances):
        k = 2 + i % (cfg.max_colours - 1)
        n = rng.randint(k, cfg.max_vertices)
        graphs.append(random_coloured_graph(rng, n, k, edge_p=rng.random()))

    hitting = []
    for i in range(cfg.instances):
        elements, sets = random_hitting_set(rng, rng.randint(1, 10), rng.randint(1, 5))
        mode = ("set-odt", "subset-ds", "subset-dl")[i % 3]
        hitting.append((elements, sets, rng.randint(0, 3), mode))

    formulas = [
        random_dnf(rng, rng.randint(1, 10), rng.randint(1, 5))
        for _ in range(cfg.instances)
    ]

    # set mode, then subset mode with each rule family; the variant shifts by
    # one every three graphs, so it meets every colour count (k = 2 + i % 3),
    # and the first three graphs certify all three
    variants = (("set", "ds"), ("subset", "ds"), ("subset", "dl"))
    cliques = [(g, g.k, *variants[(i + i // 3) % 3]) for i, g in enumerate(graphs)]
    rows.append(_certify("mcc-ensemble", x.mcc_ensemble_gadget, cliques))
    rows.append(_certify("mcc-unary", x.mcc_unary_ensemble_gadget, cliques))
    rows.append(_certify("mcc-odt-gaxp", x.mcc_odt_gaxp_gadget, [(g, g.k) for g in graphs]))
    rows.append(_certify("hitting-set", x.hitting_set_gadget, hitting))
    rows.append(_certify("taut-ds", x.taut_ds_gadget, formulas))

    print(f"{'generator':<14} {'instances':>9} {'yes':>5} {'avg size':>9} {'seconds':>8}"
          f" {'B/node':>7}")
    for row in rows:
        per_node = "-" if row["bytes_per_node"] is None else row["bytes_per_node"]
        print(
            f"{row['generator']:<14} {row['instances']:>9} {row['yes']:>5}"
            f" {row['avg_size']:>9} {row['seconds']:>8} {per_node:>7}"
        )
    print("all truths certified")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=25, help="per generator")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-vertices", type=int, default=10)
    args = parser.parse_args()
    run(BenchConfig(instances=args.instances, seed=args.seed,
                    max_vertices=args.max_vertices))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
