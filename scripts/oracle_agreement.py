#!/usr/bin/env python3
"""Random-model agreement sweep: algorithmic minima vs the exhaustive oracle.

Six families are sampled: trees (``dt``), decision sets and lists, their
ensembles (``ens``), tree ensembles (``dtens``, answered on their
``product_dt`` tree as the CLI answers them) and circuits made by
``translate`` from any of the others (``circuit``).  For every sampled model
the minimum-contrastive algorithms (tree leaf scan, bounded branching,
subset enumeration) are compared with the brute-force oracle: the leaf
scan's, the branching's and, on circuits, the enumeration's witness must be
the oracle's witness exactly, and enumeration must find one when they do.
That minimum is also every family's ``lcxp --min subset`` answer.  The
subset-minimal outputs are re-checked by single-removal verification: on
rule models the greedy ``laxp``, on every model the greedy ``gaxp`` and
``gcxp`` of both classes, and on trees and tree ensembles the greedy
``laxp`` too.  An answer of None must mean that the oracle finds no
explanation either.  On every family but trees the hitting-set search
``card_xp_search`` must return the oracle's witness for ``laxp``, and for
``gaxp`` and ``gcxp`` of both classes.  Every model is then answered again,
re-indexed onto sorted positions of a universe 20 features wider (the new
features unread, the example's bits on them random): each answer, mapped
back, must be the same, past the verify cap of 24 features too.  Any
disagreement aborts with the offending instance printed.

    python3 scripts/oracle_agreement.py --models 200 --max-features 10
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
from generators import (
    random_dl,
    random_ds,
    random_dt,
    random_ensemble,
    random_example,
    random_model,
    random_universe,
    reindexed,
    widened,
    widened_example,
)

WIDER = 20  # unread features added to each model's universe for its second answer


@dataclass
class SweepConfig:
    models: int = 200
    min_features: int = 2
    max_features: int = 10
    seed: int = 0


def global_subset_answers(model):
    """(kind, target, answer) of the subset-minimal global routes."""
    for c in (0, 1):
        yield "gaxp", c, x.gaxp_subset_min(model, c)
        yield "gcxp", c, x.gcxp_subset_min(model, c)


def tree_subset_answers(t: x.DecisionTree, e: x.Example):
    """(kind, target, answer) of every greedy subset-minimal tree route."""
    yield "laxp", e, x.laxp_subset_min(t, e)
    yield from global_subset_answers(t)


def card_targets(e: x.Example):
    """(kind, target) of every cardinality query ``card_xp_search`` takes."""
    yield "laxp", e
    for c in (0, 1):
        yield "gaxp", c
        yield "gcxp", c


def answers(family: str, model, e: x.Example, stats: dict) -> list:
    """(route, kind, target, answer) of every algorithm the sweep checks on
    one model; the route names the algorithm, and the target is e or a
    class.  Branch nodes are added to ``stats``."""
    n = len(model.universe)
    tree = None  # the tree form that the tree routes answer on
    if family == "dt":
        tree = model
        found = x.lcxp_min(model, e)
    elif family == "dtens":
        tree = x.product_dt(model)
        found = x.lcxp_min(tree, e)
    elif family == "circuit":
        found = x.lcxp_card_enum(model, e, n)
    elif family in ("ds", "dl"):
        found = x.lcxp_card_branch(model, e, n)
    else:
        branch_stats = x.BranchStats()
        found = x.lcxp_card_branch_ens(model, e, n, branch_stats)
        stats["branch_nodes"] += sum(c for _, c in branch_stats.per_target)
    out = [("min", "lcxp", e, found), ("enum", "lcxp", e, x.lcxp_card_enum(model, e, n))]
    if family in ("ds", "dl"):
        out.append(("greedy", "laxp", e, x.laxp_rules_subset_min(model, e)))
    if family != "dt":
        out += [("card", kind, target, x.card_xp_search(model, kind, target, n))
                for kind, target in card_targets(e)]
    subset_answers = (tree_subset_answers(tree, e) if tree is not None
                      else global_subset_answers(model))
    out += [("subset", kind, target, answer) for kind, target, answer in subset_answers]
    return out


def sweep_family(cfg: SweepConfig, family: str) -> dict:
    rng = Random(cfg.seed)
    places = Random(f"wide-{cfg.seed}")  # its own stream: the sampled models stay as they were
    stats = {"models": 0, "with_witness": 0, "branch_nodes": 0}
    started = time.time()
    for index in range(cfg.models):
        u = random_universe(rng, rng.randint(cfg.min_features, cfg.max_features))
        e = random_example(rng, u)
        if family == "dt":
            model = random_dt(rng, u)
        elif family == "dtens":
            model = random_ensemble(rng, u, "dt", 3)
        elif family == "circuit":
            source = (random_ensemble(rng, u, rng.choice(["dt", "ds", "dl"]), 3)
                      if rng.random() < 0.3 else
                      random_model(rng, u, rng.choice(["dt", "ds", "dl"])))
            model = x.translate(source, rng.randint(0, 1))[0]
        elif family in ("ds", "dl"):
            model = random_ds(rng, u) if family == "ds" else random_dl(rng, u)
        else:
            model = random_ensemble(rng, u, rng.choice(["ds", "dl"]), 3)
        found = answers(family, model, e, stats)
        for route, kind, target, answer in found:
            if route == "min":
                expected = x.oracle_min(model, "lcxp", e)
                holds = answer == (None if expected is None else expected[1])
            elif route == "enum":
                holds = (answer is None) == (found[0][3] is None)
            elif route == "card":
                least = x.oracle_min(model, kind, target)
                holds = answer == (None if least is None else least[1])
            elif answer is None:
                holds = x.oracle_min(model, kind, target) is None
            else:
                holds = x.oracle_subset_min_check(model, kind, target, answer)
            if not holds:
                print(f"DISAGREEMENT in {family} #{index}: {route} {kind} {target} {answer}")
                print(model)
                raise SystemExit(1)
        if found[0][3] is not None:
            stats["with_witness"] += 1
        # the same model over WIDER more features, all unread, at sorted
        # positions: every answer, mapped back, must be the same
        wide, pos = reindexed(places, model, WIDER)
        wide_e = widened_example(places, e, pos, wide.universe)
        again = answers(family, wide, wide_e, stats)
        for (route, kind, target, answer), (_, _, _, other) in zip(found, again):
            if other != widened(answer, pos, wide.universe):
                print(f"UNREAD FEATURES MOVED AN ANSWER in {family} #{index}: {route} "
                      f"{kind} {target} {answer} vs {other} at {pos}")
                print(model)
                raise SystemExit(1)
        stats["models"] += 1
    stats["seconds"] = round(time.time() - started, 2)
    return stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", type=int, default=200, help="models per family")
    parser.add_argument("--max-features", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    cfg = SweepConfig(models=args.models, max_features=args.max_features,
                      seed=args.seed)
    print(f"{'family':<10} {'models':>7} {'witnesses':>10} {'seconds':>8}")
    for family in ("dt", "ds", "dl", "ens", "dtens", "circuit"):
        stats = sweep_family(cfg, family)
        print(
            f"{family:<10} {stats['models']:>7} {stats['with_witness']:>10}"
            f" {stats['seconds']:>8}"
        )
    print("all agreements hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
