"""Algorithms for decision sets, decision lists and their ensembles.

The centrepiece is the bounded-depth branching search for a
cardinality-minimum local contrastive explanation.  It rests on two facts
about a decision list L and example e:

1. if flipping e on a set A makes it land on a rule of the opposite class,
   then A is a contrastive explanation, and
2. every contrastive explanation contains a subset whose flip lands on some
   opposite-class rule.

So it suffices to compute, per opposite-class rule r_j, a smallest flip set
routing e to r_j: seed with the features where e disagrees with r_j's term,
then, while some earlier rule still fires on the flipped example, branch on
the features that could falsify that rule (never touching the seed rule's
features, nor flipping a feature twice).  The branching tree has depth at
most the budget k and branching factor at most the largest term size a, so
the number of fully explored branches is bounded by a**k per target rule;
the implementation counts them and insists on the bound.

The ensemble variant enumerates one rule per element, keeps only the
combinations whose class tally would flip the majority vote, and runs the
same branching against all chosen rules at once.

``lcxp_card_enum`` is the model-independent fallback: a minimum contrastive
explanation can always be found by flipping candidate sets directly, in
increasing cardinality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Optional, Union

from .config import DEFAULT_CAPS, BruteCaps
from .core import (
    DecisionList,
    DecisionSet,
    Ensemble,
    Example,
    ModelError,
    classify,
    term_applies,
    truth_table,
)
from .verify import _TABLE_LIMIT, flip, local_query, verify

RuleModel = Union[DecisionSet, DecisionList]


def ds_to_dl(s: DecisionSet) -> DecisionList:
    """Equivalent decision list: one (1 - default)-rule per term, in order,
    then the empty default rule.  Term sizes are unchanged."""
    rules = tuple((t, 1 - s.default) for t in s.terms) + (((), s.default),)
    return DecisionList(s.universe, rules)


def _as_dl(model: RuleModel) -> DecisionList:
    if isinstance(model, DecisionSet):
        return ds_to_dl(model)
    if isinstance(model, DecisionList):
        return model
    raise ModelError("expected a decision set or decision list")


@dataclass
class BranchStats:
    """Bookkeeping of the branching search, per target rule (or rule tuple).

    ``branch_nodes`` counts fully explored branches: recursion states within
    budget that did not expand further (either a success or a dead end with
    nothing left to flip).  Budget-pruned calls are not states of the
    branching tree.
    """

    budget: int = 0
    term_size: int = 0
    per_target: list[tuple[object, int]] = field(default_factory=list)

    def record(self, target, branch_nodes: int) -> None:
        self.per_target.append((target, branch_nodes))

    def within_bound(self) -> bool:
        base = max(self.term_size, 1)
        return all(nodes <= base**self.budget for _, nodes in self.per_target)


def _better(a: Optional[frozenset], b: Optional[frozenset]) -> Optional[frozenset]:
    """Smaller set wins; equal sizes break towards the lexicographically
    smaller sorted feature tuple (reproducible witnesses)."""
    if a is None:
        return b
    if b is None:
        return a
    if len(b) < len(a) or (len(b) == len(a) and sorted(b) < sorted(a)):
        return b
    return a


class _Counter:
    __slots__ = ("nodes",)

    def __init__(self) -> None:
        self.nodes = 0


def _find_for_rule(
    dl: DecisionList, e: Example, j: int, k: int, counter: _Counter
) -> Optional[frozenset]:
    """Smallest set A with |A| <= k whose flip routes e to rule j, or None."""
    t_j = dl.rules[j][0]
    forbidden = {f for f, _ in t_j}
    seed = frozenset(f for f, b in t_j if e.bits[f] != b)

    def rec(flips: frozenset) -> Optional[frozenset]:
        if len(flips) > k:
            return None
        e_flipped = flip(e, flips)
        offender = None
        for ell in range(j):
            if term_applies(dl.rules[ell][0], e_flipped):
                offender = ell
                break
        if offender is None:
            counter.nodes += 1
            return flips
        breakable = sorted(
            f
            for f, b in dl.rules[offender][0]
            if e_flipped.bits[f] == b and f not in flips and f not in forbidden
        )
        if not breakable:
            counter.nodes += 1
            return None
        best: Optional[frozenset] = None
        for f in breakable:
            best = _better(best, rec(flips | {f}))
        return best

    return rec(seed)


def lcxp_card_branch(
    model: RuleModel,
    e: Example,
    k: int,
    stats: Optional[BranchStats] = None,
) -> Optional[frozenset]:
    """Cardinality-minimum local contrastive explanation of size <= k for a
    decision list (or set, converted first), or None."""
    if k < 0:
        raise ModelError("k must be nonnegative")
    dl = _as_dl(model)
    a = max(len(t) for t, _ in dl.rules)
    if stats is None:
        stats = BranchStats()
    stats.budget = k
    stats.term_size = max(stats.term_size, a)
    cls = classify(dl, e)
    best: Optional[frozenset] = None
    for j, (_, c) in enumerate(dl.rules):
        if c == cls:
            continue
        counter = _Counter()
        found = _find_for_rule(dl, e, j, k, counter)
        stats.record(j, counter.nodes)
        assert counter.nodes <= max(a, 1) ** k
        best = _better(best, found)
    return best


def lcxp_card_branch_ens(
    ens: Ensemble,
    e: Example,
    k: int,
    stats: Optional[BranchStats] = None,
) -> Optional[frozenset]:
    """Branching search over ensembles of rule models: enumerate one rule per
    element, keep tuples whose class tally flips the majority, and search the
    smallest flip routing e to all chosen rules at once."""
    if ens.family not in ("ds", "dl"):
        raise ModelError("ensemble branching needs decision sets or lists")
    if k < 0:
        raise ModelError("k must be nonnegative")
    dls = [_as_dl(m) for m in ens.elements]
    a = max(len(t) for dl in dls for t, _ in dl.rules)
    if stats is None:
        stats = BranchStats()
    stats.budget = k
    stats.term_size = max(stats.term_size, a)
    cls = classify(ens, e)
    best: Optional[frozenset] = None
    for combo in product(*(range(len(dl.rules)) for dl in dls)):
        classes = [dls[o].rules[j][1] for o, j in enumerate(combo)]
        n_diff = sum(1 for c in classes if c != cls)
        if n_diff <= len(classes) - n_diff:
            continue  # this rule combination cannot flip the majority
        required: dict[int, int] = {}
        consistent = True
        for o, j in enumerate(combo):
            for f, b in dls[o].rules[j][0]:
                if required.setdefault(f, b) != b:
                    consistent = False
                    break
            if not consistent:
                break
        if not consistent:
            continue  # no example satisfies all chosen rules at once
        forbidden = set(required)
        seed = frozenset(f for f, b in required.items() if e.bits[f] != b)
        counter = _Counter()

        def rec(flips: frozenset) -> Optional[frozenset]:
            if len(flips) > k:
                return None
            e_flipped = flip(e, flips)
            offender: Optional[tuple[int, int]] = None
            for o, j in enumerate(combo):
                for ell in range(j):
                    if term_applies(dls[o].rules[ell][0], e_flipped):
                        offender = (o, ell)
                        break
                if offender is not None:
                    break
            if offender is None:
                counter.nodes += 1
                return flips
            o, ell = offender
            breakable = sorted(
                f
                for f, b in dls[o].rules[ell][0]
                if e_flipped.bits[f] == b and f not in flips and f not in forbidden
            )
            if not breakable:
                counter.nodes += 1
                return None
            found: Optional[frozenset] = None
            for f in breakable:
                found = _better(found, rec(flips | {f}))
            return found

        result = rec(seed)
        stats.record(combo, counter.nodes)
        assert counter.nodes <= max(a, 1) ** k
        best = _better(best, result)
    return best


def lcxp_card_enum(model, e: Example, k: int) -> Optional[frozenset]:
    """Minimum local contrastive explanation of size <= k for any model whose
    classification is computable: flip candidate sets directly, smallest
    first."""
    if k < 0:
        raise ModelError("k must be nonnegative")
    n = len(model.universe)
    table = truth_table(model) if n <= _TABLE_LIMIT else None
    if table is not None:
        emask = e.mask()
        cls = (table >> emask) & 1
        for size in range(min(k, n) + 1):
            for subset in combinations(range(n), size):
                if (table >> (emask ^ sum(1 << f for f in subset))) & 1 != cls:
                    return frozenset(subset)
        return None
    cls = classify(model, e)
    for size in range(min(k, n) + 1):
        for subset in combinations(range(n), size):
            if classify(model, flip(e, subset)) != cls:
                return frozenset(subset)
    return None


def laxp_rules_subset_min(
    model, e: Example, caps: BruteCaps = DEFAULT_CAPS
) -> frozenset:
    """Inclusion-minimal local abductive explanation via the enumeration
    verifier (desk scale only; the cap applies).  Greedy drop in ascending
    feature order from the full set."""
    keep = set(range(len(model.universe)))
    for f in range(len(model.universe)):
        if verify(model, local_query("laxp", e, keep - {f}), caps):
            keep.discard(f)
    return frozenset(keep)
