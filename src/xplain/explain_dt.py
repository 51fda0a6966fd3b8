"""Dedicated decision tree algorithms.

Everything here runs on the normalized tree (no path tests a feature twice);
inputs are normalized on entry, callers keep their raw trees.

* greedy subset-minimal explanations: ``verify.shrink`` of a trivially valid
  candidate (the full feature set, or a seed leaf's path assignment for the
  global kinds), one ascending pass that drops features while the candidate
  still verifies.
* minimum local contrastive explanations in polynomial time: for every leaf
  of the opposite class, the features on its path that disagree with the
  target example form a contrastive set; a smallest one is a global minimum.
* bounded-cardinality search: one hitting-set engine over leaf paths, in
  column form.  Each offending leaf is a row; one walk of the tree numbers
  the rows depth-first, so the rows under a node are consecutive, and gives
  every literal its column: the bitmask of the rows whose path it conflicts,
  one range per split.  Extending a candidate is one AND-NOT on the int of
  live rows.  The search grows literal sets breadth-first by size (one memo
  per size), reads a row's literals off the columns only when it branches
  on that row, and returns the first minimum in the oracle's enumeration
  order.
* ensemble-to-tree product: ``core.graft_dt``, the path-consistent walk
  that also normalizes and restricts trees, grafts each successive tree
  onto every leaf whose vote is still open; normalized by construction.
"""

from __future__ import annotations

from typing import Optional, Union

from .config import CapExceeded
from .core import (
    DecisionTree,
    Ensemble,
    Example,
    Leaf,
    ModelError,
    PartialExample,
    classify,
    graft_dt,
    normalize_dt,
)
from .verify import shrink

CardWitness = Union[frozenset, PartialExample, None]


def leaf_assignments(t: DecisionTree) -> list[tuple[int, dict[int, int]]]:
    """(leaf node index, path assignment) in depth-first, 0-child-first order."""
    out: list[tuple[int, dict[int, int]]] = []
    path: list[tuple[int, int]] = []  # (feature, bit) from the root down
    stack: list[tuple[int, int, Optional[tuple[int, int]]]] = [(t.root, 0, None)]
    while stack:
        i, depth, literal = stack.pop()  # depth = literals on the node's path
        if literal is not None:
            del path[depth - 1:]
            path.append(literal)
        node = t.nodes[i]
        if isinstance(node, Leaf):
            out.append((i, dict(path)))
            continue
        stack.append((node.hi, depth + 1, (node.feature, 1)))
        stack.append((node.lo, depth + 1, (node.feature, 0)))
    return out


def laxp_subset_min(t: DecisionTree, e: Example) -> frozenset:
    """Inclusion-minimal local abductive explanation: ``shrink`` from the
    full set, which always verifies."""
    t = normalize_dt(t)
    return shrink(t, "laxp", e, frozenset(range(len(t.universe))))


def _leaf_seeded_shrink(t: DecisionTree, kind: str, c: int) -> Optional[PartialExample]:
    """``shrink`` of the path assignment of the first leaf, in depth-first
    order, whose class the kind asks for (c for ``gaxp``, 1 - c for
    ``gcxp``); None when no leaf has it."""
    t = normalize_dt(t)
    want = c if kind == "gaxp" else 1 - c
    for i, assigned in leaf_assignments(t):
        if t.nodes[i].label == want:
            return shrink(t, kind, c, PartialExample(t.universe, tuple(assigned.items())))
    return None


def gaxp_subset_min(t: DecisionTree, c: int) -> Optional[PartialExample]:
    """Inclusion-minimal global abductive explanation, or None when no leaf
    carries class c.  Seeded with the path assignment of the first c-leaf in
    depth-first order."""
    return _leaf_seeded_shrink(t, "gaxp", c)


def gcxp_subset_min(t: DecisionTree, c: int) -> Optional[PartialExample]:
    """As gaxp_subset_min, seeded with the first leaf of class 1 - c."""
    return _leaf_seeded_shrink(t, "gcxp", c)


def _conflict_sets(t: DecisionTree, e: Example) -> list[frozenset]:
    """Per opposite-class leaf: the path features disagreeing with e."""
    cls = classify(t, e)
    out = []
    for i, assigned in leaf_assignments(t):
        if t.nodes[i].label != cls:
            out.append(
                frozenset(f for f, b in assigned.items() if e.bits[f] != b)
            )
    return out


def lcxp_min(t: DecisionTree, e: Example) -> Optional[frozenset]:
    """Cardinality-minimum local contrastive explanation, or None on constant
    trees.  Ties break towards the earlier leaf in depth-first order."""
    t = normalize_dt(t)
    best: Optional[frozenset] = None
    for d in _conflict_sets(t, e):
        if best is None or len(d) < len(best):
            best = d
    return best


def lcxp_subset_min(t: DecisionTree, e: Example) -> Optional[frozenset]:
    """A conflict set that is inclusion-minimal among all conflict sets (the
    first such in depth-first leaf order)."""
    t = normalize_dt(t)
    sets = _conflict_sets(t, e)
    for d in sets:
        if not any(other < d for other in sets):
            return d
    return None


def _literal_columns(t: DecisionTree, bad: int) -> tuple[int, list[int]]:
    """Row count and literal columns of the leaves of class ``bad``, in one
    walk.

    Rows are the ``bad`` leaves numbered in depth-first, 0-child-first order,
    so the rows under any node are consecutive.  ``kill[f + b * n]`` has bit r
    set when literal ``(f, b)`` conflicts row r's path: a split on f puts the
    rows of its 0-subtree into ``(f, 1)`` and those of its 1-subtree into
    ``(f, 0)``, one range mask each.  The walk follows the arena's links,
    whatever order the arena stores its nodes in.
    """
    n = len(t.universe)
    nodes = t.nodes
    kill = [0] * (2 * n)
    first = [0] * len(nodes)  # per node: the first row number in its subtree
    rows = 0
    stack = [t.root]
    while stack:
        i = stack.pop()
        if i < 0:  # every row under split ~i is numbered
            node = nodes[~i]
            lo, mid = first[~i], first[node.hi]
            kill[node.feature + n] |= (1 << mid) - (1 << lo)
            kill[node.feature] |= (1 << rows) - (1 << mid)
            continue
        first[i] = rows
        node = nodes[i]
        if isinstance(node, Leaf):
            rows += node.label == bad
        else:
            stack += (~i, node.hi, node.lo)
    return rows, kill


def _min_literal_hitting_set(
    n: int, rows: int, kill: list[int], k: int
) -> Optional[list[tuple[int, int]]]:
    """Smallest consistent literal set of size <= k meeting all ``rows`` rows.

    Literal ``(f, b)`` is index ``f + b * n``; ``kill[lit]`` is its column:
    the rows it meets.  A set meets a row when one of its literals does, and
    is consistent when it assigns each feature at most once.  Among the
    smallest such sets the first in ``card_xp_search`` order is returned
    (ascending feature tuple, then the assignment read as a binary counter
    whose lowest bit is the lowest feature), sorted by feature; None when
    every such set is larger than k.

    A literal set is a mask over literal indices, and live rows are one int,
    so taking a literal costs one AND-NOT.  The search is breadth-first by
    set size: level d holds each distinct literal set of size d that the
    branching reaches, keyed by its mask (the per-level memo), and a set is
    extended only by the literals meeting its lowest live row whose feature
    it leaves unassigned.  A row's literals are read off the columns the
    first time the search branches on it.  Every smallest solution is
    reached this way, so the first level holding a solution is finished and
    its least solution returned.  Level k keeps only solutions: nothing
    larger is ever asked for.
    """
    # per literal meeting some row: (its bit, its column, both its feature's bits)
    literals = [
        (1 << lit, column, 1 << lit % n | 1 << (lit % n + n))
        for lit, column in enumerate(kill)
        if column
    ]
    options: dict[int, list[tuple[int, int, int]]] = {}  # row bit -> its literals
    level = {0: (1 << rows) - 1}  # literal set -> rows it does not meet
    for size in range(k + 1):
        solved = [lits for lits, live in level.items() if not live]
        if solved:
            return min((_decode_literals(lits, n) for lits in solved), key=_card_order)
        if size == k or not level:
            break
        last = size + 1 == k  # children must meet every row: keep only those
        deeper: dict[int, int] = {}
        for lits, live in level.items():
            row = live & -live
            meets = options.get(row)
            if meets is None:
                meets = options[row] = [o for o in literals if o[1] & row]
            for lit, killed, feature in meets:
                if not lits & feature:  # the feature is still unassigned
                    rest = live & ~killed
                    if not (last and rest):
                        deeper[lits | lit] = rest
        level = deeper
    return None


def _decode_literals(lits: int, n: int) -> list[tuple[int, int]]:
    """The (feature, bit) pairs of a literal-set mask, by feature."""
    return [
        (f, lits >> (f + n) & 1) for f in range(n) if (lits >> f | lits >> (f + n)) & 1
    ]


def _card_order(assignment: list[tuple[int, int]]) -> tuple:
    return (
        tuple(f for f, _ in assignment),
        sum(b << j for j, (_, b) in enumerate(assignment)),
    )


def card_xp_search(t: DecisionTree, kind: str, target, k: int) -> CardWitness:
    """Smallest explanation of size <= k, or None when every one is larger.

    On a normalized tree each kind is a hitting-set problem over leaf paths
    (Ignatiev et al., "From Contrastive to Abductive Explanations and Back
    Again", 2020): a ``gaxp``/``gcxp`` candidate must conflict the path of
    every offending leaf (of class 1 - c, of class c), a ``laxp`` feature set
    must meet every conflict set of the target example.  ``_literal_columns``
    gives one row per offending leaf and each literal's column of conflicted
    rows; for ``laxp`` the offending leaves are those of the other class and
    only the example's own literals ``(f, e[f])`` keep their columns, so a
    row's literals are the features its path disagrees with e on.  The
    witness is the first minimum in the oracle's enumeration order: feature
    subsets lexicographically, for the global kinds each subset's assignments
    as ascending binary counters.  After the one walk that builds the
    columns, the search visits only consistent literal sets of size <= k,
    each at most once.
    """
    if kind not in ("laxp", "gaxp", "gcxp"):
        raise ModelError(f"card_xp_search does not handle {kind!r}")
    if k < 0:
        raise ModelError("k must be nonnegative")
    t = normalize_dt(t)
    n = len(t.universe)
    if kind == "laxp":
        # conflict sets of e: the paths of the other class, through e's literals
        rows, kill = _literal_columns(t, 1 - classify(t, target))
        for f, b in enumerate(target.bits):
            kill[f + (1 - b) * n] = 0
    else:
        rows, kill = _literal_columns(t, 1 - target if kind == "gaxp" else target)
    found = _min_literal_hitting_set(n, rows, kill, k)
    if found is None:
        return None
    if kind == "laxp":
        return frozenset(f for f, _ in found)
    return PartialExample(t.universe, tuple(found))


def product_dt(ens: Ensemble, max_leaves: int = 1_000_000) -> DecisionTree:
    """Single tree classifying exactly like the majority of a tree ensemble:
    ``core.graft_dt`` of the elements, normalized by construction.  The
    projected leaf count is the product of the element leaf counts;
    construction aborts beyond ``max_leaves``.

    The product is memoized on the ensemble and marked normalized, so every
    query on one ensemble shares one product tree.  The projected-size check
    runs on every call, a memo hit included, so ``max_leaves`` refuses the
    same ensembles whether or not the product was built before.
    """
    if ens.family != "dt":
        raise ModelError("product_dt needs an ensemble of decision trees")
    trees: list[DecisionTree] = list(ens.elements)
    projected = 1
    for t in trees:
        projected *= t.leaf_count()
    if projected > max_leaves:
        raise CapExceeded(
            f"projected product size {projected} exceeds the ceiling {max_leaves}"
        )
    if ens._product is not None:
        return ens._product
    product = graft_dt(trees)
    assert product.leaf_count() <= projected
    object.__setattr__(ens, "_product", product)
    return product
