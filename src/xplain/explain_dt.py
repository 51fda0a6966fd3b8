"""Dedicated decision tree algorithms, and the greedy global shrink and the
cardinality search of every model family.

Everything tree-specific here runs on the tree in normal form (no path
tests a feature twice, the arena in post-order: see ``core.normalize_dt``).
The ``DecisionTree`` constructor decides that form in a forward pass over
the arena; inputs in another form are normalized on entry, and
callers keep their raw trees.  Every kind
is a covering problem over leaf paths (Ignatiev et al., "From Contrastive to
Abductive Explanations and Back Again", 2020), answered from at most two
integer walks of the tree per call: ``core._leaf_paths``, the seeded leaf
walk that also verifies trees, yields each leaf's path as a mask of tested
features and a value of their bits; ``_literal_columns`` gives every
literal its column, the bitmask of the leaves of one class whose path it
conflicts, in one forward pass over the arena.  Nothing is kept on the tree
between calls; the module remembers, per offending class, the columns of
the last tree it built them for (``_column_cache``), so the requests of
one process about one model build each class's columns once.

* greedy subset-minimal explanations: a candidate verifies exactly when the
  OR of its literal columns covers every leaf of the class it excludes, so
  ``_column_shrink`` reproduces ``verify.shrink`` (one ascending pass that
  drops a feature while the rest still verifies) with one OR and one
  compare per feature.  ``laxp`` shrinks e's literals on the full feature
  set, ``gaxp``/``gcxp`` the path of the first leaf of the wanted class.
  On any other model ``gaxp``/``gcxp`` shrink the least example of the
  wanted class inside one table (``verify._least_implicant``, existential
  quantification of the other class one feature at a time), the same
  shrink that reads each hitting-set row of the global kinds.
* minimum local contrastive explanations in polynomial time: for every leaf
  of the opposite class, the features on its path that disagree with the
  target example form a contrastive set, one mask per leaf; the least one
  by size, then as a sorted feature tuple, is the oracle's minimum, which
  is also the subset-minimal answer.
* bounded-cardinality search, for all five families: one hitting-set
  engine over literal columns.  On a tree each offending leaf is a row; one
  pass over the arena numbers the rows depth-first, so the rows under a node
  are consecutive, and each split adds one range to two columns.  Any other
  model gets its rows one at a time (implicit hitting-set dualization,
  Ignatiev, Previti, Liffiton & Marques-Silva, CP 2015): the table that
  checks the current minimum hitting set also yields the next row it
  misses.  Each literal enters the search as an option triple (its bit,
  the complement of its column, both bits of its feature), so extending a
  candidate is one AND on the int of live rows.  The search grows literal
  sets breadth-first by size (one memo per size), reads a row's triples
  off the tree (one descent) or its round only when it branches on that
  row, answers its last level once per distinct set of live rows, and
  returns the first minimum in the oracle's enumeration order.
* ensemble-to-tree product: ``core.graft_dt``, the path-consistent walk
  that also normalizes and restricts trees, grafts each successive ballot
  (a distinct element with its votes) onto every leaf whose vote is still
  open; its post-order output passes the constructor's normal-form test
  like any other tree.
  ``_tree_form`` gives every route its tree: a tree's normalized tree, or a
  tree ensemble's product while it fits under ``product_dt``'s ceiling.
  Past it, and on every other family, the table engines answer.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Optional, Sequence, Union

from .config import DEFAULT_CAPS, BruteCaps, CapExceeded
from .core import (
    DecisionTree,
    Ensemble,
    Example,
    Leaf,
    ModelError,
    PartialExample,
    _leaf_paths,
    classify,
    graft_dt,
    mask_features,
    normalize_dt,
)
from .explain_rules import _better
from .verify import GLOBAL_KINDS, _least_implicant, _request, first_flip

CardWitness = Union[frozenset, PartialExample, None]

_PRODUCT_CEILING = 1_000_000  # projected leaves of a tree ensemble's product_dt


def _tree_form(model) -> Optional[DecisionTree]:
    """The normalized tree of a tree, the ``product_dt`` of a tree ensemble
    whose projected product fits under its ceiling, else None: past the
    ceiling, and on every other family, the engines of rule models answer."""
    if isinstance(model, Ensemble) and model.family == "dt":
        try:
            model = product_dt(model)
        except CapExceeded:
            return None
    return normalize_dt(model) if isinstance(model, DecisionTree) else None


def laxp_subset_min(t: DecisionTree, e: Example) -> frozenset:
    """Inclusion-minimal local abductive explanation: the greedy shrink of
    the full feature set, which always verifies.  A feature set verifies when
    e's literals on it conflict every leaf of the other class."""
    _request(t, "laxp", e)
    t = normalize_dt(t)
    _, kill, _ = _literal_columns(t, 1 - classify(t, e))
    n = len(t.universe)
    return frozenset(_column_shrink([kill[f + b * n] for f, b in enumerate(e.bits)]))


def _leaf_seeded_shrink(
    model, kind: str, c: int, caps: BruteCaps = DEFAULT_CAPS
) -> Optional[PartialExample]:
    """The greedy shrink of the first assignment that forces the class the
    kind asks for (c for ``gaxp``, 1 - c for ``gcxp``), or None when no
    example has it.  A model with a tree form (``_tree_form``) is seeded
    with the first such leaf path in depth-first order, which verifies when
    it conflicts every leaf of the other class; any other model with its
    least such example, by ``_least_implicant``."""
    u = _request(model, kind, c, GLOBAL_KINDS)
    n = len(u)
    want = c if kind == "gaxp" else 1 - c
    t = _tree_form(model)
    if t is None:
        implicant = _least_implicant(model, want, caps)
        return None if implicant is None else PartialExample(u, tuple(implicant))
    seed = next((path for label, *path in _leaf_paths(t) if label == want), None)
    if seed is None:
        return None
    mask, value = seed
    seeded = [(f, value >> f & 1) for f in mask_features(mask)]
    _, kill, _ = _literal_columns(t, 1 - want)
    kept = _column_shrink([kill[f + b * n] for f, b in seeded])
    return PartialExample(u, tuple(seeded[j] for j in kept))


def gaxp_subset_min(model, c: int, caps: BruteCaps = DEFAULT_CAPS) -> Optional[PartialExample]:
    """Inclusion-minimal global abductive explanation of class c, or None
    when no example has class c, for every model family: the greedy shrink
    of the first c-leaf's path in depth-first order on a model with a tree
    form (``_tree_form``), of the least example of class c on any other
    model."""
    return _leaf_seeded_shrink(model, "gaxp", c, caps)


def gcxp_subset_min(model, c: int, caps: BruteCaps = DEFAULT_CAPS) -> Optional[PartialExample]:
    """As gaxp_subset_min, seeded with a leaf or example of class 1 - c."""
    return _leaf_seeded_shrink(model, "gcxp", c, caps)


def lcxp_min(t: DecisionTree, e: Example) -> Optional[frozenset]:
    """Cardinality-minimum local contrastive explanation, or None on constant
    trees: the least conflict set of e with a leaf of the other class (the
    path features whose bit differs from e's) in the oracle's order, by size
    and then as sorted feature tuples (``explain_rules._better``)."""
    if not isinstance(t, DecisionTree):
        raise ModelError("expected a decision tree")
    _request(t, "lcxp", e)
    cls = classify(t, e)
    emask = e.mask()
    masks = [mask & (value ^ emask) for label, mask, value in _leaf_paths(t) if label != cls]
    best = functools.reduce(_better, masks, None)
    return None if best is None else frozenset(mask_features(best))


# offending class -> (tree, rows, kill, first) of the last tree whose
# columns were built for it.  A hit needs the very tree (``is``): hashing or
# comparing a tree costs as much as the pass.  The strong reference keeps
# that tree alive until the slot is rebound; two slots bound the memory.
_column_cache: dict[int, tuple[DecisionTree, int, tuple[int, ...], tuple[int, ...]]] = {}


def _literal_columns(
    t: DecisionTree, bad: int
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Row count, literal columns and per-node first rows of the leaves of
    class ``bad``, in one forward pass over a tree in normal form; the last
    tree's answer per class is remembered, as tuples no caller can change.

    Rows are the ``bad`` leaves numbered depth-first, 0-child first, which
    is their order in the post-order arena, so the rows under node i are
    consecutive from ``first[i]`` and end where the pass stands at i.
    ``kill[f + b * n]`` has bit r set when literal ``(f, b)`` conflicts row
    r's path: a split on f ORs the rows of its 0-subtree into ``(f, 1)`` and
    those of its 1-subtree into ``(f, 0)``, one range mask each unless it is
    empty.
    """
    last = _column_cache.get(bad)
    if last is not None and last[0] is t:
        return last[1:]
    n = len(t.universe)
    kill = [0] * (2 * n)
    first: list[int] = []  # per node: the first row number in its subtree
    rows = 0
    for node in t.nodes:
        if type(node) is Leaf:
            first.append(rows)
            rows += node.label == bad
            continue
        lo = first[node.lo]
        mid = first[node.hi]
        first.append(lo)
        if lo < mid:
            kill[node.feature + n] |= (1 << mid) - (1 << lo)
        if mid < rows:
            kill[node.feature] |= (1 << rows) - (1 << mid)
    columns = rows, tuple(kill), tuple(first)
    _column_cache[bad] = (t, *columns)
    return columns


def _literal_options(
    kill: Sequence[int], n: int, full: int, features: Iterable[int]
) -> list[Optional[tuple[int, int, int]]]:
    """Per literal index, its option triple (its bit, the complement of its
    column within ``full``, both bits of its feature), or None when its
    column is zero: such a literal meets no row.  Only the literals of
    ``features`` are read, so every other literal must have a zero column:
    given the features the model reads, the work follows them, not the
    universe."""
    triples: list[Optional[tuple[int, int, int]]] = [None] * (2 * n)
    for f in features:
        both = 1 << f | 1 << (f + n)
        for lit in (f, f + n):
            col = kill[lit]
            if col:
                triples[lit] = (1 << lit, full ^ col, both)
    return triples


def _row_options(
    nodes: Sequence, root: int, n: int, first: Sequence[int], r: int, triples: Sequence
) -> list[tuple[int, int, int]]:
    """The option triples of row r of a tree, by one descent from the root:
    at a split on f the row lies in the 0-subtree, and meets ``(f, 1)``,
    exactly when it comes before the 1-subtree's first row.  Literals of
    zero column (e's opposite literals under ``laxp``) are skipped."""
    node, options = nodes[root], []
    while type(node) is not Leaf:
        if r < first[node.hi]:
            option, node = triples[node.feature + n], nodes[node.lo]
        else:
            option, node = triples[node.feature], nodes[node.hi]
        if option:
            options.append(option)
    return options


def _listed_options(read: Sequence[list[int]], r: int, triples: Sequence) -> list:
    """The option triples of row r given as its literal list ``read[r]``."""
    return [triples[lit] for lit in read[r] if triples[lit]]


def _column_shrink(cols: list[int]) -> list[int]:
    """Indices kept by the greedy shrink of a tree candidate whose literal
    columns ``cols`` cover every row (every leaf of the class it excludes).

    A candidate verifies when the OR of its columns covers every row.  One
    ascending pass drops literal j when the literals kept before it and all
    those after it still cover, exactly as ``verify.shrink`` drops features;
    suffix ORs make each test one OR and one compare.
    """
    suffix = [0] * (len(cols) + 1)
    for j in range(len(cols) - 1, -1, -1):
        suffix[j] = suffix[j + 1] | cols[j]
    kept = []
    cover = 0
    for j, col in enumerate(cols):
        if (cover | suffix[j + 1]) != suffix[0]:
            kept.append(j)
            cover |= col
    return kept


def _min_literal_hitting_set(
    n: int, rows: int, kill: Sequence[int], k: int,
    row_options: Callable[[int, list], list[tuple[int, int, int]]],
    features: Iterable[int],
) -> Optional[list[tuple[int, int]]]:
    """Smallest consistent literal set of size <= k meeting all ``rows`` rows.

    Literal ``(f, b)`` is index ``f + b * n``.  A set meets a row when one
    of its literals does, and is consistent when it assigns each feature at
    most once.  Among the smallest such sets the first in ``card_xp_search``
    order is returned (ascending feature tuple, then the assignment read as
    a binary counter whose lowest bit is the lowest feature), sorted by
    feature; None when every such set is larger than k.

    ``kill[lit]`` is the column of literal ``lit``: the rows it meets; only
    the literals of ``features`` may have a nonzero column.
    ``_literal_options`` turns each such literal of nonzero column into its
    option triple: its bit, the complement of its column (the rows it
    misses) and both bits of its feature; ``row_options(r, triples)`` picks
    the triples of the literals meeting row r (``_row_options`` on a tree,
    ``_listed_options`` on rows read as literal lists).  A literal set is a
    mask over literal indices, and live rows are one int, so taking a
    literal costs one AND with its complement.

    The search is breadth-first by set size: level d holds each distinct
    literal set of size d that the branching reaches, keyed by its mask
    (the per-level memo), and a set is extended only by the literals meeting
    its lowest live row whose feature it leaves unassigned.  Each row's
    triples are read once, when the search first branches on it.  Every
    smallest solution is reached this way, so the first level holding a
    solution is finished and its least solution returned.  The last level
    (size k) keeps only solutions: a child there must meet every live row,
    and the literals that do depend on the live mask alone, so they are
    found once per distinct mask (the last level's memo) and each set only
    checks that their feature is still unassigned.
    """
    full = (1 << rows) - 1
    triples = _literal_options(kill, n, full, features)
    options: dict[int, list[tuple[int, int, int]]] = {}  # row bit -> its triples
    level = {0: full}  # literal set -> rows it does not meet
    for size in range(k + 1):
        solved = [lits for lits, live in level.items() if not live]
        if solved:
            return min((_decode_literals(lits, n) for lits in solved), key=_card_order)
        if size == k or not level:
            break
        deeper: dict[int, int] = {}
        if size + 1 == k:
            covering: dict[int, list[tuple[int, int]]] = {}  # live rows -> literals meeting all
            for lits, live in level.items():
                hits = covering.get(live)
                if hits is None:
                    row = live & -live
                    meets = options.get(row)
                    if meets is None:
                        meets = options[row] = row_options(row.bit_length() - 1, triples)
                    hits = covering[live] = [
                        (lit, feature) for lit, keep, feature in meets if not live & keep
                    ]
                for lit, feature in hits:
                    if not lits & feature:  # the feature is still unassigned
                        deeper[lits | lit] = 0
        else:
            for lits, live in level.items():
                row = live & -live
                meets = options.get(row)
                if meets is None:
                    meets = options[row] = row_options(row.bit_length() - 1, triples)
                for lit, keep, feature in meets:
                    if not lits & feature:  # the feature is still unassigned
                        deeper[lits | lit] = live & keep
        level = deeper
    return None


def _decode_literals(lits: int, n: int) -> list[tuple[int, int]]:
    """The (feature, bit) pairs of a literal-set mask, by feature, one step
    per set bit (a consistent set assigns each feature once)."""
    pairs = []
    while lits:
        lit = (lits & -lits).bit_length() - 1
        pairs.append((lit % n, lit // n))
        lits &= lits - 1
    return sorted(pairs)


def _card_order(assignment: list[tuple[int, int]]) -> tuple:
    return (
        tuple(f for f, _ in assignment),
        sum(b << j for j, (_, b) in enumerate(assignment)),
    )


def _laxp_row(model, e: Example, n: int, caps: BruteCaps, found) -> Optional[list[int]]:
    """The literals of the next ``laxp`` row, or None when the features of
    ``found`` verify.  Every explanation meets every flip set that changes
    e's class; the row is the least one off those features (a contrastive
    set ``found`` misses), as e's literals."""
    flips = first_flip(model, e, n, caps, "laxp search", fixed=[f for f, _ in found])
    return None if flips is None else [f + e.bits[f] * n for f in flips]


def _global_row(model, want: int, n: int, caps: BruteCaps, found) -> Optional[list[int]]:
    """The literals of the next ``gaxp``/``gcxp`` row, or None when every
    completion of ``found`` has class ``want``.

    ``_least_implicant`` shrinks the least completion of ``found`` of the
    other class to an implicant p of that class that extends ``found``.
    Every explanation must contradict p, so the row is the literals
    ``(f, 1 - p[f])``.
    """
    implicant = _least_implicant(model, 1 - want, caps, found)
    return None if implicant is None else [f + (1 - b) * n for f, b in implicant]


def card_xp_search(
    model, kind: str, target, k: int, caps: BruteCaps = DEFAULT_CAPS
) -> CardWitness:
    """Smallest explanation of size <= k, or None when every one is larger.

    Each kind is a hitting-set problem (Ignatiev et al., "From Contrastive
    to Abductive Explanations and Back Again", 2020): a ``laxp`` feature set
    must meet every contrastive set of the target example, a
    ``gaxp``/``gcxp`` candidate must contradict every partial example that
    forces the class it excludes (1 - c, c).  A row is one such set, as the
    literals that meet it; ``kill[f + b * n]`` marks the rows literal
    ``(f, b)`` meets.

    A model with a tree form (``_tree_form``: a tree, or a tree ensemble
    whose ``product_dt`` fits under its ceiling) gets all its rows up front
    from ``_literal_columns``, one per offending leaf (for ``laxp`` only
    e's own literals keep their columns; ``_row_options`` reads a row's
    option triples by one descent), and its first hitting set is the
    answer.  Any other model starts with no rows, and each round reads one
    more, as its literals, off the one table that checks the least hitting
    set H (``_laxp_row``, ``_global_row``; ``_listed_options`` gives their
    triples), until H verifies or no hitting set of size <= k is left.
    Every explanation meets every row, so a verified least hitting set is
    the first minimum in the oracle's enumeration order: feature subsets
    lexicographically, for the global kinds each subset's assignments as
    ascending binary counters.

    Round bound: each row is read off an example no earlier row was (the
    least wrong completion of H, or e flipped on a set H misses), so n
    features never give more than 2**n rows.  A search holding more than
    2**cap rows, cap being ``caps.oracle_local`` for ``laxp`` and
    ``caps.oracle_global`` otherwise, raises ``CapExceeded`` before its next
    round: every model the oracle accepts is answered, and above its cap
    the search stops after as many rounds as the oracle's table would hold
    examples (a parity circuit needs 2**(n-1) + 1 rounds for ``gaxp``).
    Each round's table is under ``caps.verify`` as well.
    """
    u = _request(model, kind, target, ("laxp", *GLOBAL_KINDS), k=k)
    n = len(u)
    reads = mask_features(model._reads)  # the only features a row can hold
    t = _tree_form(model)
    next_row = None
    if t is not None:
        if kind == "laxp":
            # conflict sets of e: the paths of the other class, through e's literals
            rows, kill, first = _literal_columns(t, 1 - classify(t, target))
            kill = list(kill)  # the cached columns stay as built
            for f, b in enumerate(target.bits):
                kill[f + (1 - b) * n] = 0
        else:
            rows, kill, first = _literal_columns(t, 1 - target if kind == "gaxp" else target)
        row_options = functools.partial(_row_options, t.nodes, t.root, n, first)
    else:
        rows, kill, read = 0, [0] * (2 * n), []  # read: each round's row
        row_options = functools.partial(_listed_options, read)
        if kind == "laxp":
            next_row = functools.partial(_laxp_row, model, target, n, caps)
        else:
            want = target if kind == "gaxp" else 1 - target
            next_row = functools.partial(_global_row, model, want, n, caps)
        cap = caps.oracle_local if kind == "laxp" else caps.oracle_global
    while True:
        if next_row is not None and rows > 1 << cap:
            raise CapExceeded(f"{kind} search: {rows} rows exceed 2**{cap}")
        found = _min_literal_hitting_set(n, rows, kill, k, row_options, reads)
        row = None if found is None or next_row is None else next_row(found)
        if row is None:
            break
        read.append(row)
        for lit in row:
            kill[lit] |= 1 << rows
        rows += 1
    if found is None:
        return None
    if kind == "laxp":
        return frozenset(f for f, _ in found)
    return PartialExample(u, tuple(found))


def product_dt(ens: Ensemble) -> DecisionTree:
    """Single tree classifying exactly like the majority of a tree ensemble:
    ``core.graft_dt`` of its ballots (each distinct element once, with its
    votes), normalized by construction.  A path grafts each ballot at most
    once, so the projected leaf count is the product of the ballots' leaf
    counts; construction aborts beyond ``_PRODUCT_CEILING``.

    The product is memoized on the ensemble, so every query on one ensemble
    shares one product tree; its constructor finds it in normal form.  The
    projected count (each ballot's arena length, read anew) is compared
    with the ceiling, read anew too, on every call, a memo hit included, so
    the ceiling refuses the same ensembles whether or not the product was
    built before.
    """
    if not isinstance(ens, Ensemble) or ens.family != "dt":
        raise ModelError("product_dt needs an ensemble of decision trees")
    projected = 1
    for t, _ in ens._ballots:
        projected *= t.leaf_count()
    if projected > _PRODUCT_CEILING:
        raise CapExceeded(
            f"projected product size {projected} exceeds the ceiling {_PRODUCT_CEILING}"
        )
    if ens._product is not None:
        return ens._product
    product = graft_dt(ens._ballots)
    assert product.leaf_count() <= projected
    object.__setattr__(ens, "_product", product)
    return product
