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
chooses one rule per ballot (each distinct element value once, counted with
its votes) depth first, in ``itertools.product`` order, and runs the branching
against all chosen rules at once.  A prefix is cut as soon as its rules
conflict, the remaining ballots cannot bring the opposite class a majority,
or its seed alone exceeds the limit.  A cut that holds for a prefix holds
for every extension of it, so exactly the full tuples that pass all three
are searched and recorded.  It is a branch and bound: the limit starts at
the budget k and falls to the size of each new best flip set, and its cuts
are strict, since an equal size may still win ``_better``'s tie order.  A
single list is the vote of one, whose target tuples are its opposite-class
rules.  The search state is integers: the example, each term's features and
values, and each flip set are bit masks.  The walk and the branching each
run depth first on an explicit stack, lowest rule and feature first, so
Python's recursion limit caps neither the ballots nor the flips.

``lcxp_card_enum`` answers the same question for a model of any family:
``verify.first_flip`` reads the smallest, then lexicographically first,
class-changing flip set off the flip table under the ``verify`` cap.  The
greedy subset-minimal ``laxp`` is ``verify.shrink`` from the features the
model reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Optional, Union

from .config import DEFAULT_CAPS, BruteCaps
from .core import (
    DecisionList,
    DecisionSet,
    Ensemble,
    Example,
    ModelError,
    mask_features,
)
from .verify import _flip_domain, _request, first_flip, shrink

RuleModel = Union[DecisionSet, DecisionList]


@dataclass
class BranchStats:
    """Bookkeeping of the branching search, per target rule tuple: one rule
    index per ballot (``Ensemble._ballots``, each distinct element value
    once), so a single model's keys are one-element tuples ``(j,)``,
    recorded in rule order.  Tuples cut before the search (conflicting
    rules, no majority flip, or a seed over the limit) are not recorded.

    ``branch_nodes`` counts fully explored branches: flip sets within the
    limit that did not expand further (either a success or a dead end with
    nothing left to flip).  Flip sets pruned at the limit are not states of
    the branching tree.
    """

    budget: int = 0
    term_size: int = 0
    per_target: list[tuple[object, int]] = field(default_factory=list)

    def record(self, target, branch_nodes: int) -> None:
        self.per_target.append((target, branch_nodes))


def _better(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """Of two flip masks, the smaller set wins; equal sizes break towards the
    lexicographically smaller sorted feature tuple, which is the set holding
    the lowest feature where the two differ.  This is the oracle's order,
    which the branching search and ``explain_dt.lcxp_min`` both follow."""
    if a is None:
        return b
    if b is None:
        return a
    size_a, size_b = a.bit_count(), b.bit_count()
    if size_b < size_a or (size_b == size_a and (a ^ b) & -(a ^ b) & b):
        return b
    return a


def _branch_search(
    ballots: list[tuple[DecisionList, int]],
    e: Example,
    k: int,
    stats: Optional[BranchStats],
) -> Optional[frozenset]:
    """The branching engine over a majority vote of decision lists, each
    with its votes (a single list is a vote of one): walk one rule per
    ballot, cutting a prefix whose rules conflict, that cannot reach a
    majority of opposite-class votes, or whose seed exceeds the limit, and
    search the smallest flip routing e to all chosen rules at once.  A term
    is a (mask, value) pair that fires on x when ``x & mask == value``."""
    a = max(len(t) for dl, _ in ballots for t, _ in dl.rules)
    if stats is None:
        stats = BranchStats()
    stats.budget = k
    stats.term_size = max(stats.term_size, a)
    lists = [
        [(sum(1 << f for f, _ in t), sum(b << f for f, b in t), c) for t, c in dl.rules]
        for dl, _ in ballots
    ]
    x0 = e.mask()
    total = sum(votes for _, votes in ballots)
    need = total // 2 + 1
    fired = (next(c for m, v, c in rules if x0 & m == v) for rules in lists)
    cls = int(sum(c * votes for c, (_, votes) in zip(fired, ballots)) >= need)
    reach = [0] * (len(lists) + 1)  # opposite-class votes ballots d.. can add
    for d in reversed(range(len(lists))):
        opposite = any(c != cls for _, _, c in lists[d])
        reach[d] = reach[d + 1] + (ballots[d][1] if opposite else 0)
    best: Optional[int] = None
    limit = k  # the size of best once there is one
    combo = [0] * len(lists)  # the rule chosen at each ballot of the prefix
    walk = [(0, 0, 0, 0, 0)]  # ballot, rule, required mask and value, votes
    while walk:
        d, j, req_mask, req_value, votes = walk.pop()
        if j + 1 < len(lists[d]):
            walk.append((d, j + 1, req_mask, req_value, votes))  # the next rule
        m, v, c = lists[d][j]
        tally = votes + (ballots[d][1] if c != cls else 0)
        if (v ^ req_value) & m & req_mask or tally + reach[d + 1] < need:
            continue  # conflicting rules, or no majority flip
        req_mask, req_value = req_mask | m, req_value | v
        seed = (x0 ^ req_value) & req_mask
        if seed.bit_count() > limit:
            continue  # the seed alone is over the limit (equal sizes tie)
        combo[d] = j
        if d + 1 < len(lists):
            walk.append((d + 1, 0, req_mask, req_value, tally))
            continue
        nodes = 0
        flips = [seed]  # each flip adds a new bit: a set's size is its bit count
        while flips:
            flip = flips.pop()
            x = x0 ^ flip
            # the first earlier rule that fires, with the features that may
            # break it: no flip touches a required literal, so a rule that
            # conflicts with them never fires
            offender = next((
                m & ~req_mask
                for rules, j in zip(lists, combo)
                for m, v, _ in islice(rules, j)
                if x & m == v
            ), None)
            if offender is None:  # a success
                nodes += 1
                best = _better(best, flip)
                limit = best.bit_count()
            elif not offender & ~flip:  # a dead end: nothing left to flip
                nodes += 1
            elif flip.bit_count() < limit:  # a flip past the limit is pruned, no node
                breakable = offender & ~flip
                while breakable:  # the highest first, so the lowest is popped first
                    high = 1 << breakable.bit_length() - 1
                    flips.append(flip | high)
                    breakable ^= high
        stats.record(tuple(combo), nodes)
        assert nodes <= max(a, 1) ** k
    return None if best is None else frozenset(mask_features(best))


def lcxp_card_branch(
    model: RuleModel,
    e: Example,
    k: int,
    stats: Optional[BranchStats] = None,
) -> Optional[frozenset]:
    """Cardinality-minimum local contrastive explanation of size <= k for a
    decision list (or set, converted first), or None: the branching search
    on a vote of one."""
    _request(model, "lcxp", e, k=k)
    if not isinstance(model, (DecisionSet, DecisionList)):
        raise ModelError("expected a decision set or decision list")
    return _branch_search([(model.as_dl(), 1)], e, k, stats)


def lcxp_card_branch_ens(
    ens: Ensemble,
    e: Example,
    k: int,
    stats: Optional[BranchStats] = None,
) -> Optional[frozenset]:
    """Branching search over a majority ensemble of decision sets or lists."""
    _request(ens, "lcxp", e, k=k)
    if not isinstance(ens, Ensemble) or ens.family not in ("ds", "dl"):
        raise ModelError("ensemble branching needs decision sets or lists")
    ballots = [(m.as_dl(), votes) for m, votes in ens._ballots]
    return _branch_search(ballots, e, k, stats)


def lcxp_card_enum(
    model, e: Example, k: int, caps: BruteCaps = DEFAULT_CAPS
) -> Optional[frozenset]:
    """Minimum local contrastive explanation of size <= k for a model of any
    family: the first flip set that changes e's class, smallest first
    (``verify.first_flip``, under its cap)."""
    return first_flip(model, e, k, caps, "lcxp enum")


def laxp_rules_subset_min(
    model, e: Example, caps: BruteCaps = DEFAULT_CAPS
) -> frozenset:
    """Inclusion-minimal local abductive explanation via the enumeration
    verifier (desk scale only; the cap applies): ``shrink`` from the read
    features, the same answer as from the full set, where every unread
    feature drops."""
    return shrink(model, "laxp", e, frozenset(_flip_domain(model)), caps)
