"""Constructive reductions emitted as models plus ground-truth metadata.

Two building blocks sit underneath everything here.

* ``_trie`` emits, into a node arena, the ordered tree that tests a fixed
  feature sequence in turn while some row still agrees with the bits
  tested so far.  It is every gadget tree's builder: ``odt_from_examples``
  and ``set_model_odt`` are the tries of their rows, and the blocks of
  ``mcc_odt_gaxp_gadget`` are tries of the one all-zero row.
* Set- and subset-recognizers: ``set_model_odt`` accepts the examples whose
  one-set *restricted to the family's domain* equals a member set;
  ``subset_model_rules`` accepts those whose one-set contains a member.

The generators assemble these into instances whose explanation/homogeneity
queries are equivalent, by construction, to a combinatorial source problem
(hitting set, clique in a vertex-coloured graph, DNF tautology).  Every
generated instance carries the source-problem answer computed by the naive
solvers in :mod:`xplain.truth`, which share no code with the constructions.

The builders leave the bounds their constructions guarantee (leaf and
positive-leaf counts, rule sizes, the order) to the tests, which check
them on every model they build; the model constructors still validate
what they are given.  ``mcc_odt_gaxp_gadget`` builds no sub-trees: it
builds each block once, as an arena of its own, emits its scaffold into
one node arena, replaying every block in each scaffold copy, and checks
one ``DecisionTree`` at the end.  No builder calls ``core.graft_dt``:
only ``_leaves_are``, a certifier of the homogeneity suite, does, so the
builders share no tree engine with the graft that checks them.  Every
builder that takes a budget k checks it by ``verify._budget``, the rule
of the explanation entries.
The two clique-ensemble builders list only their elements:
``_clique_universe`` opens both with their checks and the graph's
universe, and ``_clique_instance`` closes both with the all-zero vote
check, counted per distinct element object, and the instance.

Generated universes are laid out in the declared feature order, so the order
tag of every emitted tree is the identity permutation.

The builders share the immutable parts of their arenas.  A leaf is one of
``core._LEAVES``.  Every child index that ``_trie`` or the ordered-tree
gadget stores comes from ``_INDEX``, one int object per value, so equal
indices of two arenas are one object; the gadget's scaffold features and
order tag come from it too.  The gadget's ``aux.*`` names come from
``_SCAFFOLD_NAMES``, one tuple per k.  Both caches live as long as the
process.  The table grows on demand, never past twice the largest index
asked for; the memo holds at most ``MCC_ODT_MAX_K - 1`` entries.  At
k = 10 (one vertex a colour: 296 959 nodes, 65 545 features) the table
retains 10.7 MB and the memo 4.6 MB, against 18.6 MB for the instance
itself (``tracemalloc``, Python 3.11); a 4-colour arena of 3391 nodes
then holds 43-57 B live a node on Python 3.10 to 3.13, against 87-89 B
with an int of its own per index.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from itertools import combinations
from typing import Collection, Optional, Sequence, Union

from . import truth
from .circuits import Circuit, circuit_table, translate
from .config import DEFAULT_CAPS, BruteCaps
from .core import (
    DecisionList,
    DecisionSet,
    DecisionTree,
    Ensemble,
    Example,
    FeatureUniverse,
    Leaf,
    ModelError,
    PartialExample,
    Split,
    _LEAVES,
    _model_universe,
    as_tuple,
    check_int,
    check_ints,
    check_universe,
    classify,
    graft_dt,
    measure,
    permutation,
)
from .explain_dt import card_xp_search
from .explain_rules import lcxp_card_enum
from .verify import (
    GLOBAL_KINDS,
    _budget,
    _request,
    hom_check,
    oracle_min,
    phom_check,
    verify,
)


# ---------------------------------------------------------------------------
# instance containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SetFamily:
    """Family of feature subsets, with the feature set the recognizer reads.

    ``domain`` defaults to the union of the sets; a larger domain makes the
    set-recognizer reject examples that are positive anywhere else in it.
    """

    universe: FeatureUniverse
    sets: tuple[frozenset, ...]
    domain: Optional[frozenset] = None

    def __post_init__(self) -> None:
        n, outside = len(check_universe(self.universe)), "domain feature outside universe"
        sets = tuple(dict.fromkeys(  # each set once, in order
            frozenset(check_ints(tuple(s), 0, n, outside)) for s in self.sets))
        object.__setattr__(self, "sets", sets)
        union = frozenset().union(*sets)
        domain = union if self.domain is None else frozenset(
            check_ints(tuple(self.domain), 0, n, outside))
        object.__setattr__(self, "domain", domain)
        if not union <= domain:
            raise ModelError("family sets must lie inside the domain")

    @property
    def max_set_size(self) -> int:
        return max((len(s) for s in self.sets), default=0)


@dataclass(frozen=True, slots=True)
class ColouredGraph:
    """Vertices partitioned into colour classes; no edge inside a class."""

    classes: tuple[tuple[str, ...], ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        classes = tuple(tuple(c) for c in self.classes)
        object.__setattr__(self, "classes", classes)
        colour_of = {}
        for ci, cls in enumerate(classes):
            for v in cls:
                if v in colour_of:
                    raise ModelError(f"vertex {v!r} occurs twice")
                colour_of[v] = ci
        edges = tuple(tuple(sorted(e)) for e in self.edges)
        object.__setattr__(self, "edges", tuple(sorted(set(edges))))
        for u, v in self.edges:
            if u not in colour_of or v not in colour_of:
                raise ModelError("edge endpoint is not a vertex")
            if u == v:
                raise ModelError("self loops are not allowed")
            if colour_of[u] == colour_of[v]:
                raise ModelError("edge inside a colour class: colouring not proper")

    @property
    def k(self) -> int:
        return len(self.classes)

    def vertices(self) -> list[str]:
        return [v for cls in self.classes for v in cls]


@dataclass(frozen=True, slots=True)
class Query:
    kind: str  # laxp | lcxp | gaxp | gcxp | hom | phom
    target: object = None  # Example for local kinds, class bit for global
    k: Optional[int] = None


@dataclass(frozen=True, slots=True)
class GadgetInstance:
    model: object
    queries: tuple[Query, ...]
    truth: bool
    provenance: str
    meta: dict = field(default_factory=dict)


def answer_query(model, q: Query, caps: BruteCaps = DEFAULT_CAPS) -> bool:
    """Answer a gadget query exactly: homogeneity from the model's least
    zero flip (one flip table per model, ``verify._zero_flip``), a
    minimum contrastive set by ``lcxp_card_enum``, and the abductive kinds
    by the hitting-set search of ``explain_dt.card_xp_search`` under the
    budget k."""
    if not isinstance(q, Query):
        raise ModelError(f"not a query: {q!r}")
    if q.kind == "hom":
        return hom_check(model, caps)
    if q.kind == "phom":
        return phom_check(model, q.k, caps)
    if q.kind == "lcxp":
        return lcxp_card_enum(model, q.target, q.k, caps) is not None
    if q.kind in ("laxp", "gaxp", "gcxp"):
        return card_xp_search(model, q.kind, q.target, q.k, caps) is not None
    raise ModelError(f"unknown query kind {q.kind!r}")


def global_budget_search_dt(
    t: DecisionTree, kind: str, c: int, k: int
) -> Optional[PartialExample]:
    """Smallest global explanation of size <= k on a tree, or None: the
    global kinds of ``explain_dt.card_xp_search`` (a hitting-set search over
    leaf paths, exponential in k only)."""
    _request(t, kind, c, GLOBAL_KINDS)
    return card_xp_search(t, kind, c, k)


# ---------------------------------------------------------------------------
# ordered-tree builders
# ---------------------------------------------------------------------------

# _INDEX[i] is i: the one int object that every gadget arena stores for
# child index i.  It starts empty, and ``_indices`` grows it on demand,
# under a lock: two threads that both read its old length would append
# the same values twice.
_INDEX: list[int] = []
_INDEX_GROWTH = threading.Lock()


def _indices(n: int) -> list[int]:
    """The shared index table, grown to hold at least ``range(n)``.  It
    grows to ``max(n, 2 * len(_INDEX))``, so never past twice the largest
    index requested (or one entry, for index 0)."""
    if len(_INDEX) < n:
        with _INDEX_GROWTH:
            if len(_INDEX) < n:
                _INDEX.extend(range(len(_INDEX), max(n, 2 * len(_INDEX))))
    return _INDEX


def _last(nodes: list) -> int:
    """The shared int of the last index of ``nodes``."""
    i = len(nodes) - 1
    return _INDEX[i] if i < len(_INDEX) else _indices(i + 1)[i]


def _trie(
    nodes: list, seq: Sequence[int], rows: Sequence[Collection[int]], accept: Leaf, reject: Leaf,
) -> int:
    """Append to ``nodes`` the tree that tests the features of ``seq`` in
    turn while some row agrees with the bits tested so far, and return its
    root.  A row is 1 exactly on its own features.  Where no row agrees the
    tree ends in ``reject``, at the end of ``seq`` in ``accept``.

    The tree is emitted in normal form, post-order with the 0-child first,
    child indices counted in ``nodes`` and taken from the shared table
    (``_last``).  That is the arena ``core.graft_dt``
    gives for the majority of one chain per row and a constant-1 ballot of
    ``len(rows) - 1`` votes, its leaves labelled ``accept`` and ``reject``.
    The walk keeps an explicit stack, so a long ``seq`` does not exhaust
    the call stack.
    """
    built: list[int] = []  # arena indices of finished subtrees
    # (depth, rows agreeing so far) to visit, or (~depth, None) for the
    # split on seq[depth] whose two children are built
    stack: list[tuple] = [(0, rows)]
    while stack:
        d, live = stack.pop()
        if d < 0:
            hi = built.pop()
            nodes.append(Split(seq[~d], built.pop(), hi))
        else:
            while live and d < len(seq):  # down the 0-children
                f = seq[d]
                stack += ((~d, None), (d + 1, [r for r in live if f in r]))
                live = [r for r in live if f not in r]
                d += 1
            nodes.append(accept if live else reject)
        built.append(_last(nodes))
    return built.pop()


def odt_from_examples(
    u: FeatureUniverse,
    rows: Sequence[PartialExample],
    order: Sequence[int],
) -> DecisionTree:
    """Ordered tree accepting exactly the examples agreeing with some row.

    All rows must be partial examples over ``u`` that assign the same
    feature subset, and no row may repeat.  The tree is the trie of the
    rows (``_trie``) over those features in the induced order.  It has
    exactly ``len(rows)`` positive leaves, at most
    ``2 * len(rows) * len(domain) + 1`` leaves in all, and respects the
    order; the tests check this on every tree they build, and the builder
    does not prove it again.
    """
    order = permutation(order, len(check_universe(u)),
                        "order must be a permutation of the universe")
    rows = as_tuple(rows, "rows must be a sequence of partial examples")
    for row in rows:
        if not isinstance(row, PartialExample) or row.universe != u:
            raise ModelError(f"not a partial example over the universe: {row!r}")
    domains = {r.domain for r in rows}
    if len(domains) > 1:
        raise ModelError("rows must assign one common feature subset")
    if len(set(rows)) != len(rows):
        raise ModelError("duplicate rows")
    domain = set(domains.pop()) if rows else set()
    seq = [f for f in order if f in domain]
    ones = [{f for f, b in row.assignments if b} for row in rows]
    nodes: list = []
    root = _trie(nodes, seq, ones, _LEAVES[1], _LEAVES[0])
    return DecisionTree(u, tuple(nodes), root, order)


def _check_family(fam) -> None:
    if not isinstance(fam, SetFamily):
        raise ModelError(f"expected a SetFamily, not {type(fam).__name__}")


def set_model_odt(fam: SetFamily, c: int, order: Sequence[int]) -> DecisionTree:
    """Ordered tree c-classifying exactly the examples whose one-set within
    the family's domain equals a member set.

    It is the trie of the member sets over the domain (``_trie``), its
    leaves labelled for c: ``odt_from_examples`` of the sets as rows, with
    its leaves flipped for class 0.  Its minority class has at most
    ``len(fam.sets)`` leaves (tested, not re-proved here).
    """
    _check_family(fam)
    check_int(c, 0, 2, "class must be 0 or 1")
    order = permutation(order, len(fam.universe), "order must be a permutation of the universe")
    seq = [f for f in order if f in fam.domain]
    nodes: list = []
    root = _trie(nodes, seq, fam.sets, _LEAVES[c], _LEAVES[1 - c])
    return DecisionTree(fam.universe, tuple(nodes), root, order)


def subset_model_rules(
    fam: SetFamily, c: int, family: str = "ds"
) -> Union[DecisionSet, DecisionList]:
    """Rule model c-classifying exactly the examples whose one-set contains a
    member set (positive literals only): one term of the set's features per
    member set, so terms of at most ``fam.max_set_size`` literals and at
    most ``len(fam.sets) + 1`` terms or rules (tested, not re-proved
    here)."""
    _check_family(fam)
    check_int(c, 0, 2, "class must be 0 or 1")
    terms = tuple(tuple((f, 1) for f in sorted(s)) for s in fam.sets)
    if family == "ds":
        model: Union[DecisionSet, DecisionList] = DecisionSet(fam.universe, terms, 1 - c)
    elif family == "dl":
        rules = tuple((t, c) for t in terms) + (((), 1 - c),)
        model = DecisionList(fam.universe, rules)
    else:
        raise ModelError("family must be 'ds' or 'dl'")
    return model


def _constant_model(u: FeatureUniverse, bit: int, family: str, order: Sequence[int]):
    if family == "odt":
        return DecisionTree(u, (_LEAVES[bit],), 0, tuple(order))
    if family == "ds":
        return DecisionSet(u, (), bit)
    if family == "dl":
        return DecisionList(u, (((), bit),))
    raise ModelError("family must be 'odt', 'ds' or 'dl'")


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def hitting_set_gadget(
    elements: Sequence, sets: Sequence, k: int, mode: str
) -> GadgetInstance:
    """Hitting-set instance encoded as explanation queries on a recognizer.

    set-odt mode asks for a small abductive explanation of the all-zero
    example; subset mode additionally carries the equivalent contrastive and
    global queries.  All queries answer yes exactly when a hitting set of
    size at most k exists.
    """
    if mode not in ("set-odt", "subset-ds", "subset-dl"):
        raise ModelError(f"unknown hitting set mode {mode!r}")
    _budget(k)
    fam_sets = [frozenset(s) for s in sets]
    element_set = set(elements)
    for s in fam_sets:
        if not s:
            raise ModelError("empty sets admit no hitting set; instance rejected")
        if not s <= element_set:
            raise ModelError("set member outside the universe")
    used = sorted(set().union(*fam_sets)) if fam_sets else []
    u = FeatureUniverse(tuple(f"f.{x}" for x in used))
    index_of = {x: i for i, x in enumerate(used)}
    fam = SetFamily(u, tuple(frozenset(index_of[x] for x in s) for s in fam_sets))
    order = tuple(range(len(u)))
    zero = Example(u, (0,) * len(u))
    if mode == "set-odt":
        model: object = set_model_odt(fam, 1, order)
        queries: tuple[Query, ...] = (Query("laxp", zero, k),)
    else:
        model = subset_model_rules(fam, 1, mode.split("-")[1])
        ones = Example(u, (1,) * len(u))
        queries = (
            Query("laxp", zero, k),
            Query("lcxp", ones, k),
            Query("gaxp", 0, k),
            Query("gcxp", 1, k),
        )
    size = truth.min_hitting_set_size(fam_sets)
    return GadgetInstance(
        model,
        queries,
        truth=size is not None and size <= k,
        provenance=f"hitting-set/{mode}",
        meta={"order": [u.name(f) for f in order], "min_hitting_set": size},
    )


def _clique_truth(g: ColouredGraph, k: int) -> bool:
    return truth.has_clique(g.vertices(), g.edges, k)


def _clique_universe(
    g: ColouredGraph, k: int, mode: str
) -> tuple[FeatureUniverse, dict[str, int], list[tuple[str, str]]]:
    """The checks that open both clique-ensemble builders, then the graph's
    universe (one feature per vertex, in colour-block order), each vertex's
    feature and the graph's non-edges."""
    _budget(k)
    if k != g.k:
        raise ModelError("k must equal the number of colour classes")
    if mode not in ("set", "subset"):
        raise ModelError(f"unknown mode {mode!r}")
    names: list[str] = []
    feature_of = {}
    for ci, cls in enumerate(g.classes):
        for vi, v in enumerate(cls):
            feature_of[v] = len(names)
            names.append(f"v.{ci}.{vi}")
    edges = set(g.edges)
    non_edges = [e for e in combinations(g.vertices(), 2) if tuple(sorted(e)) not in edges]
    return FeatureUniverse(tuple(names)), feature_of, non_edges


def _clique_instance(
    g: ColouredGraph, k: int, u: FeatureUniverse, elements: list, zero_votes: int,
    provenance: str, **meta,
) -> GadgetInstance:
    """The ensemble of a clique-ensemble builder's elements, with its
    homogeneity queries.  The elements must cast exactly ``zero_votes``
    votes for class 1 on the all-zero example, fewer than a majority, so
    the vote rejects it.  The votes are counted once per distinct element
    object, times its copies, and the ensemble is never evaluated."""
    ens = Ensemble(u, tuple(elements))
    zero = Example(u, (0,) * len(u))
    copies: dict[int, list] = {}  # id(element) -> [element, copies]
    for m in elements:
        copies.setdefault(id(m), [m, 0])[1] += 1
    votes = sum(classify(m, zero) * count for m, count in copies.values())
    assert votes == zero_votes <= len(elements) // 2
    return GadgetInstance(
        ens,
        (Query("hom"), Query("phom", k=k)),
        truth=_clique_truth(g, k),
        provenance=provenance,
        meta={"order": list(u.names), "ens_size": len(elements), **meta},
    )


def mcc_ensemble_gadget(
    g: ColouredGraph, k: int, mode: str, family: str = "ds"
) -> GadgetInstance:
    """Ensemble positive on some example iff the graph has a k-clique.

    set mode: one pair-recognizer per colour pair (reading both colour
    blocks) and constant-0 padders, so an example is accepted only when every
    pair model accepts.  subset mode: per-colour existence models, one
    rejector for non-edges and same-colour duplications, and constant-0
    padders up to 2k + 1 elements.  The padders are one model object
    repeated, so the ensemble tabulates it once (``Ensemble._ballots``).
    On the all-zero example only the subset-mode rejector votes 1.
    """
    u, feature_of, non_edges = _clique_universe(g, k, mode)
    colour_of = {v: ci for ci, cls in enumerate(g.classes) for v in cls}
    order = tuple(range(len(u)))
    elements: list = []
    if mode == "set":
        if k < 2:
            raise ModelError("set mode needs at least two colour classes")
        for i, j in combinations(range(k), 2):
            pairs = tuple(
                frozenset((feature_of[x], feature_of[y]))
                for x, y in g.edges
                if {colour_of[x], colour_of[y]} == {i, j}
            )
            # the recognizer reads both colour blocks, so a stray one
            # anywhere in them breaks set equality
            domain = frozenset(
                feature_of[v] for v in (*g.classes[i], *g.classes[j])
            )
            fam = SetFamily(u, pairs, domain)
            elements.append(set_model_odt(fam, 1, order))
        elements.extend([_constant_model(u, 0, "odt", order)] * (len(elements) - 1))
    else:
        for cls in g.classes:
            fam = SetFamily(u, tuple(frozenset((feature_of[v],)) for v in cls))
            elements.append(subset_model_rules(fam, 1, family))
        rejected = tuple(frozenset((feature_of[x], feature_of[y])) for x, y in non_edges)
        elements.append(subset_model_rules(SetFamily(u, rejected), 0, family))
        # k constant-0 padders lift the majority threshold to "every
        # non-padder element must accept"
        elements.extend([_constant_model(u, 0, family, order)] * k)
    return _clique_instance(
        g, k, u, elements, 0 if mode == "set" else 1, f"mcc-ensemble/{mode}"
    )


def mcc_unary_ensemble_gadget(
    g: ColouredGraph, k: int, mode: str, family: str = "ds"
) -> GadgetInstance:
    """Clique encoding with constant-size elements: n copies of a rejector
    per non-edge, one supporter per vertex, and exactly enough constant-0
    padders that a k-clique example wins the vote by a single vote.

    Each rejector's copies and all the padders are one model object
    repeated, so the ensemble holds len(non_edges) + n + 1 ballots
    (``Ensemble._ballots``) and tabulates each once.  On the all-zero
    example every rejector copy votes 1."""
    u, feature_of, non_edges = _clique_universe(g, k, mode)
    order = tuple(range(len(u)))
    n = len(u)
    if n == 0:
        raise ModelError("graph needs at least one vertex")
    builder = (
        (lambda fam, c: set_model_odt(fam, c, order))
        if mode == "set"
        else (lambda fam, c: subset_model_rules(fam, c, family))
    )
    elements: list = []
    for x, y in non_edges:
        fam = SetFamily(u, (frozenset((feature_of[x], feature_of[y])),))
        rejector = builder(fam, 0)
        elements.extend([rejector] * n)
    for f in range(n):
        elements.append(builder(SetFamily(u, (frozenset((f,)),)), 1))
    padders = n * len(non_edges) - n + 2 * k - 1
    assert padders >= 0
    pad_family = "odt" if mode == "set" else family
    elements.extend([_constant_model(u, 0, pad_family, order)] * padders)
    return _clique_instance(
        g, k, u, elements, n * len(non_edges), f"mcc-unary-ensemble/{mode}",
        padders=padders,
    )


MCC_ODT_MAX_K = 10  # most colour classes: the scaffold has 2**k copies

# k -> the scaffold's feature names for k colours, made once per k
_SCAFFOLD_NAMES: dict[int, tuple[str, ...]] = {}


def _scaffold_names(k: int, depth_low: int) -> tuple[str, ...]:
    """The auxiliary feature names of the k-colour scaffold: the upper
    scaffold's level by level, then each copy's lower scaffold's over
    ``depth_low`` levels (a function of k).  Made once per k, so equal
    names of two instances are one string object."""
    names = _SCAFFOLD_NAMES.get(k)
    if names is None:
        names = _SCAFFOLD_NAMES[k] = (
            *(f"aux.u.{level}.{pos}" for level in range(k) for pos in range(1 << level)),
            *(f"aux.d.{copy}.{level}.{pos}" for copy in range(1 << k)
              for level in range(depth_low) for pos in range(1 << level)),
        )
    return names


def mcc_odt_gaxp_gadget(g: ColouredGraph, k: int) -> GadgetInstance:
    """Single ordered tree whose class-0 global abductive explanations of
    size at most k correspond to k-cliques.

    Per colour pair (i, j), i < j, a block accepts an example iff colour i is
    all zero, or exactly one colour-i vertex v is set and v's colour-j
    neighbours are all zero; a per-colour block accepts iff that colour is
    all zero.  Silencing the per-colour blocks forces one set vertex in every
    colour (exactly one, by the size budget), and silencing the pair blocks
    then forces each chosen pair to be adjacent.  The blocks hang under a
    scaffold of auxiliary features wide enough that no k features can cover
    all of it, so a small explanation must silence every block with vertex
    features alone.

    The tree is emitted in one pass into one arena.  A complete scaffold
    over the upper auxiliary features picks the copy; under each of its
    leaves a complete scaffold over that copy's lower features picks block
    b, and lower leaf b holds block b for b < ``block_count``, ``Leaf(0)``
    after that.  A per-colour block is the trie (``_trie``) of the one
    all-zero row over its colour.  A pair block scans colour i, and the
    branch where it finds vertex v set is the all-zero trie over the rest
    of colour i, then v's colour-j neighbours.
    Every copy holds the same blocks, so each block is built once per
    graph, as an arena of its own in post-order, and replayed into each
    copy with its child indices shifted to where it lands.  The arena's
    size is known once the blocks are, so the shared index table is grown
    once, to it, before the first node is emitted.  The leaf-count
    bound and the order hold by construction and are tested, not asserted
    here.
    """
    _budget(k)
    if k != g.k:
        raise ModelError("k must equal the number of colour classes")
    if k < 2:
        raise ModelError("the construction needs at least two colour classes")
    if k > MCC_ODT_MAX_K:
        raise ModelError(f"k={k} exceeds the auxiliary-feature ceiling {MCC_ODT_MAX_K}")
    block_count = k * (k - 1) // 2 + k
    depth_low = math.ceil(math.log2(block_count))
    copies = 1 << k
    # universe: scaffold features first, then vertex features in
    # colour-block order
    names = [*_scaffold_names(k, depth_low)]
    vertex_offset = len(names)
    for ci, cls in enumerate(g.classes):
        names.extend(f"v.{ci}.{vi}" for vi in range(len(cls)))
    u = FeatureUniverse(tuple(names))
    colours: list[range] = []  # per colour: its vertex features, ascending
    pos = vertex_offset
    for cls in g.classes:
        colours.append(range(pos, pos + len(cls)))
        pos += len(cls)
    feature_of = {v: f for cls, fs in zip(g.classes, colours) for v, f in zip(cls, fs)}
    neighbours: dict[str, list[int]] = {v: [] for v in feature_of}
    for x, y in g.edges:
        neighbours[x].append(feature_of[y])
        neighbours[y].append(feature_of[x])
    pairs = list(combinations(range(k), 2))

    zero, one = _LEAVES

    def block(b: int) -> list:
        """Block b as an arena of its own, child indices counted from its
        first node, root last."""
        out: list = []
        if b >= len(pairs):
            _trie(out, colours[b - len(pairs)], ((),), one, zero)
            return out
        i, j = pairs[b]
        out.append(one)  # colour i all zero
        scan = 0
        members = colours[i]
        for d in range(len(members) - 1, -1, -1):
            v = g.classes[i][d]
            nbr = sorted(f for f in neighbours[v] if f in colours[j])
            found = _trie(out, [*members[d + 1:], *nbr], ((),), one, zero)
            out.append(Split(members[d], scan, found))
            scan = _last(out)
        return out

    blocks = [block(b) for b in range(block_count)]
    lower_base = copies - 1
    lower_size = (1 << depth_low) - 1
    # the arena: the upper scaffold's splits, then per copy its lower
    # scaffold's splits, every block and a zero leaf per unused lower leaf;
    # it also covers every feature (a colour's block has a node per vertex)
    size = lower_base + copies * (
        lower_size + sum(map(len, blocks)) + (1 << depth_low) - block_count)
    ix = _indices(size)
    nodes: list = []

    def emit(node) -> int:
        nodes.append(node)
        return ix[len(nodes) - 1]

    def replay(b: int) -> int:
        """Block b appended to the arena, its child indices shifted to
        where it starts."""
        base = len(nodes)
        nodes.extend(
            node if type(node) is Leaf
            else Split(node.feature, ix[node.lo + base], ix[node.hi + base])
            for node in blocks[b]
        )
        return ix[len(nodes) - 1]

    def complete(depth: int, first_feature: int, at_leaf) -> int:
        """Complete scaffold of the given depth whose node at (level, pos)
        tests its own feature, numbered level by level from
        ``first_feature``; leaf pos is ``at_leaf(pos)``."""

        def build(level: int, pos: int) -> int:
            if level == depth:
                return at_leaf(pos)
            lo = build(level + 1, 2 * pos)
            hi = build(level + 1, 2 * pos + 1)
            return emit(Split(ix[first_feature + (1 << level) - 1 + pos], lo, hi))

        return build(0, 0)

    def lower(copy: int) -> int:  # over this copy's private features
        return complete(
            depth_low,
            lower_base + copy * lower_size,
            lambda b: replay(b) if b < block_count else emit(zero),
        )

    root = complete(k, 0, lower)
    order = tuple(ix[:len(u)])
    tree = DecisionTree(u, tuple(nodes), root, order)
    return GadgetInstance(
        tree,
        (Query("gaxp", 0, k),),
        truth=_clique_truth(g, k),
        provenance="mcc-odt-gaxp",
        meta={"order": [u.name(f) for f in order], "aux_features": vertex_offset},
    )


def taut_ds_gadget(
    terms: Sequence[Sequence[tuple[str, int]]], variables: Sequence[str]
) -> GadgetInstance:
    """Decision set whose homogeneity answer decides DNF tautology.

    Needs the all-zero assignment to satisfy the formula; otherwise the
    formula is trivially no tautology and the instance carries a marker and
    no query.  Unsatisfiable (contradictory) terms never fire and are
    dropped.
    """
    u = FeatureUniverse(tuple(variables))
    clean = []
    for term in terms:
        if len(term) > 3:
            raise ModelError("terms may have at most three literals")
        check_ints(tuple(b for _, b in term), 0, 2, "literal bit must be 0 or 1")
        required = dict(term)
        if all(required[v] == b for v, b in term):  # no variable required 0 and 1
            clean.append(tuple((u.index(v), b) for v, b in required.items()))
    model = DecisionSet(u, tuple(clean), 0)
    assert measure(model).term_size <= 3
    zero_satisfies = any(all(b == 0 for _, b in t) for t in clean)
    return GadgetInstance(
        model,
        (Query("hom"),) if zero_satisfies else (),
        truth=not truth.is_tautology_dnf(terms, variables),
        provenance="taut-ds",
        meta={"trivial_no": not zero_satisfies},
    )


# ---------------------------------------------------------------------------
# homogeneity equivalence report
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class HomEquivalenceReport:
    """Nine equivalent phrasings of 'the model classifies everything like the
    all-zero example', each evaluated through a different code path but
    statements 1 and 7, which share the least zero flip, plus the
    bounded-weight variant for every budget."""

    statements: tuple[bool, ...]
    khom: tuple[tuple[int, bool, bool], ...]  # (k, weight-bounded hom, oracle lcxp <= k)

    @property
    def all_equal(self) -> bool:
        return len(set(self.statements)) == 1

    @property
    def khom_equal(self) -> bool:
        return all(a == b for _, a, b in self.khom)

    def as_dict(self) -> dict:
        return {
            "statements": list(self.statements),
            "all_equal": self.all_equal,
            "khom": [list(row) for row in self.khom],
            "khom_equal": self.khom_equal,
        }


def _leaves_are(model, c: int) -> bool:
    """Is every leaf labelled c of ``core.graft_dt`` of a tree, or of a tree
    ensemble's elements with one vote each?  The graft reads every element,
    not the ensemble's ballots, on purpose: this statement then checks the
    ballot engines without depending on how elements are grouped into
    ballots.  It has no leaf cap: over n features a normalized tree has at
    most 2**n leaves, whatever the product of the element leaf counts.
    Other models have no tree form and are checked one example at a time,
    up to the first that is not of class c."""
    u = model.universe
    voters = model.elements if isinstance(model, Ensemble) else (model,)
    if not isinstance(voters[0], DecisionTree):
        return all(
            classify(model, Example.from_mask(u, m)) == c for m in range(1 << len(u))
        )
    tree = graft_dt([(t, 1) for t in voters])
    return all(node.label == c for node in tree.nodes if isinstance(node, Leaf))


def _translation_is(model, c: int, value: int) -> bool:
    """Is the circuit of 'class c' (``circuits.translate``) constantly
    ``value``?  A circuit has no translation: it is its own circuit of
    class 1, and its complement that of class 0."""
    n = len(model.universe)
    if isinstance(model, Circuit):
        circuit, value = model, value if c == 1 else 1 - value
    else:
        circuit, _ = translate(model, c)
    return circuit_table(circuit) == ((1 << (1 << n)) - 1 if value else 0)


def hom_equivalence_suite(model, caps: BruteCaps = DEFAULT_CAPS) -> HomEquivalenceReport:
    """Statements 6, 8 and 9 restate 2, 4 and 5 through other engines than
    ``verify``: the table of the model's circuit for class c; the leaves of
    the tree or of a tree ensemble's product, else one classification per
    example; the table of the circuit for the other class.  A circuit, having
    no translation, answers 6 and 9 with its own table.  Statements 1 and 7
    and the weight-bounded column of ``khom`` read one value, the model's
    least zero flip (``verify._zero_flip``); statement 3 and the oracle
    column, the oracle's minimum, check all of them."""
    u = _model_universe(model)
    n = len(u)
    zero = Example(u, (0,) * n)
    c = classify(model, zero)
    empty_set: frozenset = frozenset()
    empty_tau = PartialExample(u, ())
    lcxp_least = oracle_min(model, "lcxp", zero, caps)
    statements = (
        not hom_check(model, caps),
        verify(model, "laxp", zero, empty_set, caps),
        lcxp_least is None,
        verify(model, "gaxp", c, empty_tau, caps),
        verify(model, "gcxp", 1 - c, empty_tau, caps),
        _translation_is(model, c, 1),
        lcxp_card_enum(model, zero, n, caps) is None,
        _leaves_are(model, c),
        _translation_is(model, 1 - c, 0),
    )
    # the oracle's own naive path, not first_flip, which phom_check runs on
    khom = tuple(
        (k, phom_check(model, k, caps), lcxp_least is not None and lcxp_least[0] <= k)
        for k in range(n + 1)
    )
    return HomEquivalenceReport(statements, khom)
