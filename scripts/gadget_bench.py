#!/usr/bin/env python3
"""Generate reduction-instance batches and certify them against the naive
source-problem solvers.

Reports per-generator instance counts, truth splits, model sizes and wall
time; any truth disagreement aborts with the instance printed, and so does a
tree, an ensemble's elements included, that breaks its order tag
(``respects_order``): the tree builders (``mcc_odt_gaxp_gadget`` and the
set recognizers) emit their order by construction and do not check it
themselves.  The inputs are drawn first; each generator's time covers
building its instances, certifying their orders and answering their
queries.

    python3 scripts/gadget_bench.py --instances 25 --seed 1
"""

from __future__ import annotations

import argparse
import sys
import time
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


def _certify(name: str, instances) -> dict:
    """Build (lazily, from the ``instances`` iterable) and certify one
    generator's instances on the clock: each tree's order tag, then each
    query's answer."""
    started = time.perf_counter()
    yes = 0
    size = 0
    count = 0
    for inst in instances:
        model = inst.model
        for t in {id(m): m for m in getattr(model, "elements", (model,))}.values():
            if isinstance(t, x.DecisionTree) and t.order and not x.respects_order(t, t.order):
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
    return {
        "generator": name,
        "instances": count,
        "yes": yes,
        "avg_size": round(size / max(count, 1), 1),
        "seconds": round(time.perf_counter() - started, 2),
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
    cliques = [(g, *variants[(i + i // 3) % 3]) for i, g in enumerate(graphs)]
    rows.append(_certify(
        "mcc-ensemble",
        (x.mcc_ensemble_gadget(g, g.k, mode, family) for g, mode, family in cliques),
    ))
    rows.append(_certify(
        "mcc-unary",
        (x.mcc_unary_ensemble_gadget(g, g.k, mode, family) for g, mode, family in cliques),
    ))
    rows.append(_certify(
        "mcc-odt-gaxp",
        (x.mcc_odt_gaxp_gadget(g, g.k) for g in graphs),
    ))
    rows.append(_certify("hitting-set", (x.hitting_set_gadget(*h) for h in hitting)))
    rows.append(_certify("taut-ds", (x.taut_ds_gadget(*f) for f in formulas)))

    print(f"{'generator':<14} {'instances':>9} {'yes':>5} {'avg size':>9} {'seconds':>8}")
    for row in rows:
        print(
            f"{row['generator']:<14} {row['instances']:>9} {row['yes']:>5}"
            f" {row['avg_size']:>9} {row['seconds']:>8}"
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
