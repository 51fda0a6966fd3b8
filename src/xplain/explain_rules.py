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

One engine, ``_branch_search``, runs this for a majority vote of lists: it
enumerates one rule per element, keeps only the combinations whose class
tally would flip the majority vote, and runs the branching against all
chosen rules at once.  A single list is the vote of one, whose target
tuples are its opposite-class rules.

``lcxp_card_enum`` answers the same question for a model of any family:
``verify.first_flip`` reads the smallest, then lexicographically first,
class-changing flip set off the flip table under the ``verify`` cap.  The
greedy subset-minimal ``laxp`` is ``verify.shrink`` from the full feature
set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
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
)
from .verify import first_flip, flip, shrink

RuleModel = Union[DecisionSet, DecisionList]


@dataclass
class BranchStats:
    """Bookkeeping of the branching search, per target rule tuple: one rule
    index per element, so a single model's keys are one-element tuples
    ``(j,)``, recorded in rule order.

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


def _branch_search(
    dls: list[DecisionList], e: Example, k: int, stats: Optional[BranchStats]
) -> Optional[frozenset]:
    """The branching engine over a majority vote of decision lists (a single
    list is a vote of one): enumerate one rule per list, keep the tuples
    whose class tally flips the majority, and search the smallest flip
    routing e to all chosen rules at once."""
    if k < 0:
        raise ModelError("k must be nonnegative")
    a = max(len(t) for dl in dls for t, _ in dl.rules)
    if stats is None:
        stats = BranchStats()
    stats.budget = k
    stats.term_size = max(stats.term_size, a)
    votes = sum(classify(dl, e) for dl in dls)
    cls = 1 if votes >= len(dls) // 2 + 1 else 0
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
        nodes = 0

        def rec(flips: frozenset) -> Optional[frozenset]:
            nonlocal nodes
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
                nodes += 1
                return flips
            o, ell = offender
            breakable = sorted(
                f
                for f, b in dls[o].rules[ell][0]
                if e_flipped.bits[f] == b and f not in flips and f not in forbidden
            )
            if not breakable:
                nodes += 1
                return None
            found: Optional[frozenset] = None
            for f in breakable:
                found = _better(found, rec(flips | {f}))
            return found

        result = rec(seed)
        stats.record(combo, nodes)
        assert nodes <= max(a, 1) ** k
        best = _better(best, result)
    return best


def lcxp_card_branch(
    model: RuleModel,
    e: Example,
    k: int,
    stats: Optional[BranchStats] = None,
) -> Optional[frozenset]:
    """Cardinality-minimum local contrastive explanation of size <= k for a
    decision list (or set, converted first), or None: the branching search
    on a vote of one."""
    if not isinstance(model, (DecisionSet, DecisionList)):
        raise ModelError("expected a decision set or decision list")
    return _branch_search([model.as_dl()], e, k, stats)


def lcxp_card_branch_ens(
    ens: Ensemble,
    e: Example,
    k: int,
    stats: Optional[BranchStats] = None,
) -> Optional[frozenset]:
    """Branching search over a majority ensemble of decision sets or lists."""
    if ens.family not in ("ds", "dl"):
        raise ModelError("ensemble branching needs decision sets or lists")
    return _branch_search([m.as_dl() for m in ens.elements], e, k, stats)


def lcxp_card_enum(
    model, e: Example, k: int, caps: BruteCaps = DEFAULT_CAPS
) -> Optional[frozenset]:
    """Minimum local contrastive explanation of size <= k for a model of any
    family: the first flip set that changes e's class, smallest first
    (``verify.first_flip``, under its cap)."""
    if k < 0:
        raise ModelError("k must be nonnegative")
    return first_flip(model, e, k, caps, "lcxp enum")


def laxp_rules_subset_min(
    model, e: Example, caps: BruteCaps = DEFAULT_CAPS
) -> frozenset:
    """Inclusion-minimal local abductive explanation via the enumeration
    verifier (desk scale only; the cap applies): ``shrink`` from the full
    set."""
    return shrink(model, "laxp", e, frozenset(range(len(model.universe))), caps)
