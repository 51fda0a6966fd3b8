"""Explanation verification and the exhaustive ground-truth oracle.

The four explanation kinds, for a model M:

* ``laxp``: feature set A such that every example agreeing with the target
  example e on A gets class M(e).
* ``lcxp``: feature set A such that some example differing from e only inside
  A gets a class other than M(e).
* ``gaxp``: partial example forcing every agreeing example to class c.
* ``gcxp``: partial example forcing every agreeing example to a class != c.

``verify`` answers "is this candidate an explanation?".  Decision trees get a
polynomial fast path: ``_reachable_has_label`` walks the part of the tree
that the query's fixed features leave reachable.  Every other model is checked
exactly by ``verify_by_enumeration``: one ``core.subcube_table`` call
tabulates the completions of the features the query fixes, and one integer
compare against 0 or all-ones gives the answer.  ``hom_check`` is the same
kernel with every feature free.  All of them refuse to run above the
configured free-feature cap.

Two searches serve every model family:

* ``shrink``: the greedy one-pass shrink of a valid candidate to a
  subset-minimal explanation;
* ``first_flip``: the weight-limited flip enumeration, by size and then
  lexicographically, behind ``phom_check``, ``lcxp_card_enum`` and
  ``circuit_phom_check``.

``oracle_min`` and ``oracle_subset_min_check`` are the brute-force ground
truth the rest of the test suite is measured against: candidates are
enumerated by increasing cardinality and lexicographically within one
cardinality, so witnesses are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence, Union

from .config import DEFAULT_CAPS, BruteCaps, require_cap
from .core import (
    DecisionTree,
    Example,
    Leaf,
    ModelError,
    PartialExample,
    Split,
    classify,
    normalize_dt,
    subcube_table,
    truth_table,
)

LOCAL_KINDS = ("laxp", "lcxp")
GLOBAL_KINDS = ("gaxp", "gcxp")
KINDS = LOCAL_KINDS + GLOBAL_KINDS

Candidate = Union[frozenset, PartialExample]

# first_flip, whose work only k bounds, reads classes from the truth table
# up to this universe size and classifies one example at a time beyond it
_TABLE_LIMIT = 16


def flip(e: Example, features: Iterable[int]) -> Example:
    """Example equal to e except that every listed feature is negated."""
    bits = list(e.bits)
    for f in features:
        bits[f] = 1 - bits[f]
    return Example(e.universe, tuple(bits))


@dataclass(frozen=True)
class ExplanationQuery:
    kind: str
    target: Union[Example, int]
    candidate: Candidate

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ModelError(f"unknown explanation kind {self.kind!r}")
        if self.kind in LOCAL_KINDS:
            if not isinstance(self.target, Example):
                raise ModelError("local kinds take an example as target")
            if isinstance(self.candidate, PartialExample):
                raise ModelError("local kinds take a feature set candidate")
            object.__setattr__(self, "candidate", frozenset(self.candidate))
            n = len(self.target.universe)
            if any(not 0 <= f < n for f in self.candidate):
                raise ModelError("candidate feature outside universe")
        else:
            if self.target not in (0, 1):
                raise ModelError("global kinds take a class bit as target")
            if not isinstance(self.candidate, PartialExample):
                raise ModelError("global kinds take a partial example candidate")


def local_query(kind: str, e: Example, features: Iterable[int]) -> ExplanationQuery:
    return ExplanationQuery(kind, e, frozenset(int(f) for f in features))


def global_query(kind: str, c: int, tau: PartialExample) -> ExplanationQuery:
    return ExplanationQuery(kind, int(c), tau)


# ---------------------------------------------------------------------------
# decision tree restriction and fast verification
# ---------------------------------------------------------------------------


def restrict_dt(t: DecisionTree, tau: PartialExample) -> DecisionTree:
    """The tree seen by examples extending tau: at every inner node testing an
    assigned feature, the inconsistent child is dropped and the node spliced
    out."""
    t = normalize_dt(t)
    assigned = tau.as_dict()
    nodes: list = []
    built: list[int] = []  # arena indices of finished subtrees
    stack = [(t.root, False)]  # post-order, 0-child first, on an explicit stack
    while stack:
        i, expanded = stack.pop()
        node = t.nodes[i]
        if isinstance(node, Leaf):
            nodes.append(Leaf(node.label))
            built.append(len(nodes) - 1)
            continue
        if expanded:
            hi = built.pop()
            lo = built.pop()
            nodes.append(Split(node.feature, lo, hi))
            built.append(len(nodes) - 1)
            continue
        b = assigned.get(node.feature)
        if b is not None:
            stack.append((node.hi if b else node.lo, False))
        else:
            stack.append((i, True))
            stack.append((node.hi, False))
            stack.append((node.lo, False))
    return DecisionTree(t.universe, tuple(nodes), built.pop())


def _reachable_has_label(t: DecisionTree, assigned: dict, label: int) -> bool:
    """Is some leaf of the restriction of t to `assigned` labelled `label`?

    Same predicate as inspecting restrict_dt(t, assigned), computed by
    traversal without materializing the restricted tree.
    """
    stack = [t.root]
    while stack:
        node = t.nodes[stack.pop()]
        if isinstance(node, Leaf):
            if node.label == label:
                return True
            continue
        b = assigned.get(node.feature)
        if b is None:
            stack.append(node.lo)
            stack.append(node.hi)
        else:
            stack.append(node.hi if b else node.lo)
    return False


def _verify_dt(t: DecisionTree, q: ExplanationQuery) -> bool:
    t = normalize_dt(t)
    if q.kind == "laxp":
        e = q.target
        assigned = {f: e.bits[f] for f in q.candidate}
        return not _reachable_has_label(t, assigned, 1 - classify(t, e))
    if q.kind == "lcxp":
        e = q.target
        assigned = {
            f: e.bits[f] for f in range(len(t.universe)) if f not in q.candidate
        }
        return _reachable_has_label(t, assigned, 1 - classify(t, e))
    assigned = q.candidate.as_dict()
    if q.kind == "gaxp":
        return not _reachable_has_label(t, assigned, 1 - q.target)
    return not _reachable_has_label(t, assigned, q.target)  # gcxp


# ---------------------------------------------------------------------------
# generic verification on the subcube table
# ---------------------------------------------------------------------------


def _bit(table: int, mask: int) -> int:
    return (table >> mask) & 1


def verify_by_enumeration(model, q: ExplanationQuery, caps: BruteCaps = DEFAULT_CAPS) -> bool:
    """The definition, checked over all relevant completions at once.

    Each kind fixes some features and leaves the others free; one
    ``subcube_table`` call tabulates every completion, and the answer is an
    integer compare of that table against 0 or all-ones:

    * ``laxp``: e fixed on the candidate; e is a completion, so the
      candidate holds iff the table is constant.
    * ``lcxp``: e fixed off the candidate; it holds iff the table is not
      constant.
    * ``gaxp`` / ``gcxp``: tau fixed; it holds iff the table is all c /
      all 1 - c.

    The cap counts the free features.
    """
    n = len(model.universe)
    if q.kind == "laxp":
        free = [f for f in range(n) if f not in q.candidate]
    elif q.kind == "lcxp":
        free = sorted(q.candidate)
    else:
        dom = set(q.candidate.domain)
        free = [f for f in range(n) if f not in dom]
    require_cap(len(free), caps.verify, f"verify {q.kind}")
    if q.kind in LOCAL_KINDS:
        free_set = set(free)
        fixed = {f: b for f, b in enumerate(q.target.bits) if f not in free_set}
    else:
        fixed = q.candidate.as_dict()
    table = subcube_table(model, fixed, free)
    full = (1 << (1 << len(free))) - 1
    if q.kind == "laxp":
        return table in (0, full)
    if q.kind == "lcxp":
        return table not in (0, full)
    want = q.target if q.kind == "gaxp" else 1 - q.target
    return table == (full if want else 0)


def verify(model, q: ExplanationQuery, caps: BruteCaps = DEFAULT_CAPS) -> bool:
    """Is the candidate an explanation?  Trees use the restriction fast path,
    every other model the subcube table of ``verify_by_enumeration``."""
    if q.kind in LOCAL_KINDS and q.target.universe != model.universe:
        raise ModelError("target example universe differs from model universe")
    if isinstance(model, DecisionTree):
        return _verify_dt(model, q)
    return verify_by_enumeration(model, q, caps)


# ---------------------------------------------------------------------------
# greedy shrink
# ---------------------------------------------------------------------------


def shrink(
    model, kind: str, target, candidate: Candidate, caps: BruteCaps = DEFAULT_CAPS
) -> Candidate:
    """Subset-minimal explanation inside a valid candidate: one pass over its
    features in ascending order, dropping each one whose removal still
    verifies.  Every kind is monotone under supersets, so what is kept can
    never be dropped later, and the result is deterministic."""
    local = kind in LOCAL_KINDS
    query = local_query if local else global_query
    for f in sorted(candidate) if local else candidate.domain:
        smaller = candidate - {f} if local else candidate.restricted_off(f)
        if verify(model, query(kind, target, smaller), caps):
            candidate = smaller
    return candidate


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------


def oracle_min(
    model, kind: str, target, caps: BruteCaps = DEFAULT_CAPS
) -> Optional[tuple[int, Candidate]]:
    """Smallest explanation by direct enumeration: subsets by increasing
    cardinality (lexicographic within one), for global kinds additionally all
    assignments of the chosen subset.  Returns (size, witness) or None when
    no explanation exists."""
    if kind not in KINDS:
        raise ModelError(f"unknown explanation kind {kind!r}")
    n = len(model.universe)
    local = kind in LOCAL_KINDS
    require_cap(n, caps.oracle_local if local else caps.oracle_global, f"oracle {kind}")
    table = truth_table(model)
    full = (1 << (1 << n)) - 1
    if local:
        e: Example = target
        cls = _bit(table, e.mask())
        emask = e.mask()
        if kind == "lcxp" and table in (0, full):
            return None  # homogeneous: no flip ever changes the class
        for size in range(n + 1):
            for subset in combinations(range(n), size):
                if kind == "lcxp":
                    amask = sum(1 << f for f in subset)
                    if _bit(table, emask ^ amask) != cls:
                        return size, frozenset(subset)
                else:
                    if _laxp_holds(table, n, emask, cls, subset):
                        return size, frozenset(subset)
        return None  # lcxp only: laxp always holds at the full set
    # nonexistence is total: no example of the wanted class at all
    wanted = table if target == 1 else full ^ table
    if kind == "gcxp":
        wanted = full ^ wanted
    if wanted == 0:
        return None
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            for m in range(1 << size):
                assigned = {f: (m >> j) & 1 for j, f in enumerate(subset)}
                if _global_holds(table, n, assigned, target, kind):
                    return size, PartialExample(model.universe, tuple(assigned.items()))
    return None


def _laxp_holds(table: int, n: int, emask: int, cls: int, subset) -> bool:
    free = [f for f in range(n) if f not in subset]
    base = emask & ~sum(1 << f for f in free)
    return _every_completion_is(table, base, free, cls)


def _global_holds(table: int, n: int, assigned: dict, c: int, kind: str) -> bool:
    free = [f for f in range(n) if f not in assigned]
    base = sum(b << f for f, b in assigned.items())
    return _every_completion_is(table, base, free, c if kind == "gaxp" else 1 - c)


def _every_completion_is(table: int, base: int, free: list[int], want: int) -> bool:
    """Does every completion of ``base`` over ``free`` have class ``want``?
    One bit at a time, on purpose: the oracle shares no subcube logic with
    the verifier it certifies."""
    for x in range(1 << len(free)):
        m = base
        j = 0
        while x >> j:
            if (x >> j) & 1:
                m |= 1 << free[j]
            j += 1
        if _bit(table, m) != want:
            return False
    return True


def oracle_subset_min_check(
    model, kind: str, target, candidate: Candidate, caps: BruteCaps = DEFAULT_CAPS
) -> bool:
    """True iff the candidate verifies and no single-element removal does."""
    if kind in LOCAL_KINDS:
        q = local_query(kind, target, candidate)
        if not verify(model, q, caps):
            return False
        for f in sorted(q.candidate):
            smaller = local_query(kind, target, q.candidate - {f})
            if verify(model, smaller, caps):
                return False
        return True
    tau: PartialExample = candidate
    if not verify(model, global_query(kind, target, tau), caps):
        return False
    for f in tau.domain:
        smaller = global_query(kind, target, tau.restricted_off(f))
        if verify(model, smaller, caps):
            return False
    return True


# ---------------------------------------------------------------------------
# homogeneity checks (model level)
# ---------------------------------------------------------------------------


def hom_check(model, caps: BruteCaps = DEFAULT_CAPS) -> bool:
    """Is some example classified differently from the all-zero example?"""
    n = len(model.universe)
    require_cap(n, caps.verify, "hom")
    return truth_table(model) not in (0, (1 << (1 << n)) - 1)


def first_flip(
    model, e: Example, k: int, features: Optional[Sequence[int]] = None
) -> Optional[frozenset]:
    """First set of at most k of ``features`` (default: all) whose flip
    changes e's class, by size and then lexicographically; None when there
    is none.  Only k bounds the work: up to ``_TABLE_LIMIT`` universe
    features the classes are bits of the truth table, beyond it each
    flipped example is classified."""
    n = len(model.universe)
    features = range(n) if features is None else features
    if n <= _TABLE_LIMIT:
        table = truth_table(model)
        base = e.mask()
        cls = _bit(table, base)
        changes = lambda subset: _bit(table, base ^ sum(1 << f for f in subset)) != cls
    else:
        cls = classify(model, e)
        changes = lambda subset: classify(model, flip(e, subset)) != cls
    for size in range(1, min(k, len(features)) + 1):
        for subset in combinations(features, size):
            if changes(subset):
                return frozenset(subset)
    return None


def phom_check(model, k: int, caps: BruteCaps = DEFAULT_CAPS) -> bool:
    """Is some example with at most k ones classified differently from the
    all-zero example?"""
    n = len(model.universe)
    require_cap(min(k, n), caps.verify, "phom")
    return first_flip(model, Example(model.universe, (0,) * n), k) is not None
