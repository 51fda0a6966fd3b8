"""Feature universes, examples, and the model families with their semantics.

Models are immutable after construction and validated eagerly: a value that
exists is well-formed.  One integer rule, ``check_int``: every index, label,
bit, class, threshold, cap and budget k is an ``int`` in its range and not a
``bool``, so 1.0, True or "1" is a ModelError.  Only ``modelio`` reads a JSON
1.0 as 1, and a tree reads its splits by value (see ``DecisionTree``).
Algorithms use dense feature indices; names (strings) only matter in JSON.

The records built per node, example or rule model (``Leaf``, ``Split``,
``FeatureUniverse``, ``Example``, ``PartialExample``, ``DecisionSet``,
``DecisionList`` and ``ParamReport`` here, and the gates, circuits, caps and
gadget records of the other modules) are slotted frozen dataclasses: no
instance ``__dict__``, so a gadget arena of tens of thousands of splits
holds a fifth to a third less per node.  The memo fields are slots, still
written with ``object.__setattr__``.  ``DecisionTree`` and ``Ensemble`` keep
their instance dict: there are only a few per model, and they must stay
weakly referenceable, which a slotted dataclass is only from Python 3.11
(``weakref_slot``).

Classification semantics:

* decision tree    -- walk from the root, at an inner node testing feature
                      ``f`` continue with the 0-child if ``e(f) == 0`` and the
                      1-child otherwise; the leaf label is the class.
* decision set     -- class ``default`` if no term applies, else
                      ``1 - default``.
* decision list    -- class of the first rule whose term applies; the last
                      term is empty, so some rule always applies.
* ensemble         -- majority vote of the (odd number of) elements.
* circuit          -- gate evaluation, see :mod:`xplain.circuits`.

Each family answers for itself: ``DecisionTree``, ``DecisionSet``,
``DecisionList``, ``Ensemble`` and ``circuits.Circuit`` each have

* ``evaluate(e)``       -- the class of one example,
* ``table(cols, full)`` -- the classes at the positions of ``full``, where
                           ``cols[f]`` is the table of feature f for every
                           f in ``_reads``, as a list indexed by feature
                           (``subcube_table`` passes one) or a mapping;
                           no other entry of ``cols`` is read,
* ``params()``          -- the ``ParamReport``;

and the bitmask ``_reads`` of the features ``table`` may read, set by the
constructor: a normal-form tree's ``below[root]`` of its forward pass, any
other tree's tested features, a set's or list's term features, the OR of an
ensemble's ballots' masks, a circuit's IN-gate features.  An ensemble calls
``evaluate`` on every element but ``table`` and ``params`` once per
distinct element value (its ballots, see ``Ensemble``), as every engine
that reads an ensemble's voters does, and sets and lists also have
``as_dl()``.  The public entries check, then call them: ``classify`` the
model and the example's universe, ``subcube_table`` and ``truth_table`` the
support rule (below), the fixed bits and the origin, ``measure`` that the
value is a model.  A value without the three methods and the mask is a
ModelError.

Besides the per-example ``classify`` there is one bit-parallel kernel,
``subcube_table(model, fixed, free)``.  It computes the class of every
completion of a partial assignment at once, as a ``2**len(free)``-bit integer
(bit ``m`` = class of the completion whose free feature ``free[j]`` is bit
``j`` of ``m``).  Each family is tabulated from a list of feature columns, in
which a fixed feature is a constant and a free one the model reads a
``feature_column``; the model is never restricted or copied.  One support
rule: a feature the model does not read (``_reads``) needs no bit and no
column, so every engine table lists as free only the read features a
request leaves free, and its cap counts just those; it fixes only the read
features the request fixes.  ``mask_features`` reads any feature mask in one
pass, so no request is quadratic in the universe.  ``truth_table`` is the
case with every feature of the universe free, as the oracle counts them;
with an ``origin`` mask, bit m is the class of the origin flipped on m.
Verification by enumeration is one call of this kernel and one integer
compare; the flip searches, the homogeneity checks among them, add the
``weight_planes`` of the positions; the oracle reads single table bits.

Trees are rebuilt by ``graft_dt`` and read by ``_leaf_paths``, two
path-consistent walks: at a split on a feature the path already assigns,
each follows the consistent child.  ``normalize_dt``, ``verify.restrict_dt``
and ``explain_dt.product_dt`` are each one call of ``graft_dt``.  Its output
is the one normal form of a tree: no path tests a feature twice, and the
arena is in post-order (0-subtree, 1-subtree, split; root last).  The
gadget trees are emitted in this form by a builder of their own,
``gadgets._trie``, with no graft.  ``DecisionTree.table`` (a stack of
subtree tables) reads a normalized tree in one forward pass over its
nodes; ``explain_dt._literal_columns`` does so on a tree in normal form and
reads any other with ``explain_dt._walk_columns``, with no copy: a third
path-consistent walk, the column reader's copy of ``_leaf_paths``' walk,
so a change to how a repeated test is resolved is made in all three.  The
``DecisionTree`` constructor decides that form once, in one forward pass
over the arena; ``normalize_dt`` copies any other tree into it.
``_leaf_paths`` yields the leaves that a seed assignment leaves reachable,
with their paths; on a raw tree it yields its normal form's leaves, paths
and order, so a reader need not normalize first.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from math import inf
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from typing import Optional, Union


class ModelError(ValueError):
    """A model, example or query violates a structural invariant."""


def check_int(value, lo, hi, message: str):
    """``value`` when it is an int (no bool) in ``[lo, hi)``, or a tuple of
    such ints, a bound may be ``inf``; ModelError with ``message`` otherwise."""
    for v in value if type(value) is tuple else (value,):
        if type(v) is not int or not lo <= v < hi:
            raise ModelError(message)
    return value


# the columns a family's ``table`` reads: a list indexed by feature, or a mapping
Columns = Union[Sequence[int], Mapping[int, int]]

_FEATURE = "feature index outside universe: feature indices must be integers below its size"
_BIT = "literal bit must be 0 or 1"
_DIGITS = bytes.maketrans(b"\0\1", b"01")  # bit bytes to binary digits


def permutation(order: Iterable, n: int, message: str) -> tuple[int, ...]:
    """``order`` as a tuple, when it is a permutation of range(n) by the
    integer rule; ModelError with ``message`` otherwise."""
    order = check_int(tuple(order), 0, n, message)
    if sorted(order) != list(range(n)):
        raise ModelError(message)
    return order


# ---------------------------------------------------------------------------
# universe and examples
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FeatureUniverse:
    """Ordered set of distinct feature names; position = dense index."""

    names: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not all(isinstance(name, str) for name in names):
            raise ModelError("feature names must be strings")
        index = {name: i for i, name in enumerate(names)}
        if len(index) != len(names):
            raise ModelError("feature names must be distinct")
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ModelError(f"unknown feature {name!r}") from None

    def name(self, i: int) -> str:
        return self.names[i]


def universe(*names: str) -> FeatureUniverse:
    return FeatureUniverse(tuple(names))


def check_universe(u) -> FeatureUniverse:
    """``u`` when it is a FeatureUniverse; ModelError otherwise."""
    if not isinstance(u, FeatureUniverse):
        raise ModelError(f"a universe must be a FeatureUniverse, not {type(u).__name__}")
    return u


@dataclass(frozen=True, slots=True)
class Example:
    """Total 0/1 assignment of a universe's features."""

    universe: FeatureUniverse
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        bits = tuple(self.bits)
        if len(bits) != len(self.universe):
            raise ModelError("example length differs from universe size")
        object.__setattr__(self, "bits", check_int(bits, 0, 2, "example bits must be 0 or 1"))

    def __getitem__(self, feature: int) -> int:
        return self.bits[feature]

    def mask(self) -> int:
        """Bit i is feature i's bit: the bits read as binary digits, in one pass."""
        return int(bytes(self.bits[::-1]).translate(_DIGITS) or b"0", 2)

    @staticmethod
    def from_mask(u: FeatureUniverse, mask: int) -> "Example":
        """The example whose feature i is bit i of ``mask``, an int below
        2**len(u); ModelError otherwise."""
        check_int(mask, 0, 1 << len(u), "mask must be an int below 2**(universe size)")
        return Example(u, tuple((mask >> i) & 1 for i in range(len(u))))


def mask_features(mask: int) -> list[int]:
    """The features whose bit is set in ``mask``, ascending, read off its
    binary digits in one pass: linear in its length, where a shift per
    feature is quadratic.  The one mask reader outside the oracle."""
    return [f for f, d in enumerate(bin(mask)[:1:-1]) if d == "1"]


@dataclass(frozen=True, slots=True)
class PartialExample:
    """0/1 assignment of some subset of a universe's features."""

    universe: FeatureUniverse
    assignments: tuple[tuple[int, int], ...]  # (feature index, bit), sorted

    def __post_init__(self) -> None:
        raw = tuple(self.assignments)
        try:
            assign = dict(raw)
        except (TypeError, ValueError):
            raise ModelError("an assignment is a (feature index, bit) pair") from None
        if len(assign) < len(raw):
            raise ModelError("a feature index is assigned twice")
        check_int(tuple(assign.values()), 0, 2, "assigned bits must be 0 or 1")
        check_int(tuple(assign), 0, len(self.universe), _FEATURE)
        object.__setattr__(self, "assignments", tuple(sorted(assign.items())))

    @staticmethod
    def from_dict(u: FeatureUniverse, assign: Mapping[int, int]) -> "PartialExample":
        return PartialExample(u, tuple(assign.items()))

    def as_dict(self) -> dict[int, int]:
        return dict(self.assignments)

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(f for f, _ in self.assignments)

    def restricted_off(self, feature: int) -> "PartialExample":
        return PartialExample(
            self.universe, tuple(p for p in self.assignments if p[0] != feature)
        )


# ---------------------------------------------------------------------------
# decision trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Leaf:
    label: int

    def __post_init__(self) -> None:
        # any int: the tree checks the value, in its forward pass or walk
        check_int(self.label, -inf, inf, "leaf labels must be 0 or 1")


@dataclass(frozen=True, slots=True)
class Split:
    feature: int
    lo: int  # child index followed when the feature is 0
    hi: int  # child index followed when the feature is 1


DTNode = Union[Leaf, Split]


@dataclass(frozen=True)
class DecisionTree:
    universe: FeatureUniverse
    nodes: tuple[DTNode, ...]
    root: int = 0
    order: Optional[tuple[int, ...]] = None  # declared feature order, if any
    # True when the constructor found the tree in normal form; otherwise
    # None until normalize_dt stores the normal-form copy (never the tree
    # itself, so a tree is no reference cycle)
    _normal: object = field(default=None, init=False, repr=False, compare=False)
    _reads: int = field(init=False, repr=False, compare=False)
    # verify._zero_flip's memo: the least flip set of the all-zero example
    _zero_flip: Optional[frozenset] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_universe(self.universe)
        nodes = tuple(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        count = len(nodes)
        if not count:
            raise ModelError("decision tree needs at least one node")
        check_int(self.root, 0, count, "root index out of range")
        n = len(self.universe)
        # A forward pass decides the normal form: size[i] counts the nodes of
        # i's subtree, below[i] masks the features tested in it.  If every
        # split i has hi == i - 1, lo == hi - size[hi] and a feature outside
        # below[lo] | below[hi], the size[i] nodes ending at i are i's subtree
        # in post-order (by induction), so a root last with size[root] ==
        # count proves a tree.  At the first bad node the walk checks instead;
        # a field that is no integer raises TypeError in the indexing or the
        # shift below, which sends the arena to the walk too.  A bool field
        # of a split passes as the int it equals: the tree is that int's tree.
        size = [1] * count
        below = [0] * count
        try:
            for i, node in enumerate(nodes):
                if isinstance(node, Leaf):
                    if node.label in (0, 1):
                        continue
                    break
                f, lo, hi = node.feature, node.lo, node.hi
                if not (0 <= f < n and 0 < i == hi + 1 and 0 <= lo == hi - size[hi]):
                    break
                seen = below[lo] | below[hi]
                if seen >> f & 1:
                    break
                below[i] = seen | 1 << f
                size[i] = size[lo] + size[hi] + 1
            else:
                if self.root == count - 1 and size[-1] == count:
                    object.__setattr__(self, "_normal", True)
                    object.__setattr__(self, "_reads", below[-1])
        except TypeError:
            pass
        if self._normal is None:
            # The walk reads each child by value: one that is no int fails to
            # index the arena, and a bool (node 0 or 1) is checked there; the
            # labels (ints, so their values suffice) and features follow.
            reached = bytearray(count)
            labels, features = set(), []
            stack = [self.root]
            try:
                while stack:
                    i = stack.pop()
                    if not 0 <= i < count:
                        raise ModelError("child index out of range")
                    if i < 2:
                        check_int(i, 0, 2, "child indices must be integers")
                    if reached[i]:
                        raise ModelError("node reachable twice: not a tree")
                    reached[i] = 1
                    node = nodes[i]
                    if isinstance(node, Leaf):
                        labels.add(node.label)
                    else:
                        features.append(node.feature)
                        stack += (node.lo, node.hi)
            except TypeError:
                raise ModelError("child indices must be integers") from None
            if not all(reached):
                raise ModelError("arena contains nodes unreachable from the root")
            check_int(tuple(labels), 0, 2, "leaf labels must be 0 or 1")
            features = set(check_int(tuple(features), 0, n, _FEATURE))
            object.__setattr__(self, "_reads", sum(1 << f for f in features))
        if self.order is not None:
            order = permutation(self.order, n, "order tag must be a permutation of the features")
            object.__setattr__(self, "order", order)

    def leaf_count(self) -> int:
        # the constructor proved the arena a full binary tree whose every
        # node is reached once: a split has two children, so one more leaf
        return (len(self.nodes) + 1) // 2

    def evaluate(self, e: Example) -> int:
        i = self.root
        while True:
            node = self.nodes[i]
            if isinstance(node, Leaf):
                return node.label
            i = node.hi if e.bits[node.feature] else node.lo

    def table(self, cols: Columns, full: int) -> int:
        # one forward pass over the normal form's post-order arena: a leaf
        # pushes its table, a split muxes its children's on its column.  A
        # fixed feature's column is 0 or full, so the mux picks the
        # consistent child.
        done: list[int] = []  # tables of finished subtrees, 0-subtree first
        for node in normalize_dt(self).nodes:
            if isinstance(node, Leaf):
                done.append(full if node.label else 0)
            else:
                hi = done.pop()
                col = cols[node.feature]
                done[-1] = (col & hi) | ((full ^ col) & done[-1])
        return done[0]

    def params(self) -> ParamReport:
        # one pass: the leaves' labels give both classes' counts (mnl is the smaller)
        labels = [node.label for node in self.nodes if isinstance(node, Leaf)]
        size, ones = len(labels), sum(labels)
        return ParamReport(mnl_size=min(size - ones, ones), size_elem=size, model_size=size)


def leaf_tree(u: FeatureUniverse, label: int) -> DecisionTree:
    return DecisionTree(u, (Leaf(label),), 0)


# ---------------------------------------------------------------------------
# rule models
# ---------------------------------------------------------------------------

Term = tuple[tuple[int, int], ...]  # ((feature index, required bit), ...), sorted


def make_term(literals: Iterable[tuple[int, int]], n: int) -> Term:
    """Canonicalize a set of literals over features 0..n-1; contradictory
    terms and features outside the universe are rejected."""
    literals = tuple(literals)
    try:
        required = dict(literals)
    except (TypeError, ValueError):
        raise ModelError("a literal is a (feature index, bit) pair") from None
    if len(required) < len(literals):  # a repeated feature: each literal in turn
        required = {}
        for f, b in literals:
            if required.setdefault(check_int(f, 0, n, _FEATURE), check_int(b, 0, 2, _BIT)) != b:
                raise ModelError(f"contradictory term: feature {f} required 0 and 1")
    check_int(tuple(required.values()), 0, 2, _BIT)
    check_int(tuple(required), 0, n, _FEATURE)
    return tuple(sorted(required.items()))


def term_applies(term: Term, e: Example) -> bool:
    return all(e.bits[f] == b for f, b in term)


def _term_reads(terms: Iterable[Term]) -> int:
    """The mask of the features that the terms test."""
    return sum(1 << f for f in {f for term in terms for f, _ in term})


def _term_table(term: Term, cols: Columns, full: int) -> int:
    t = full
    for f, b in term:
        col = cols[f]
        t &= col if b else full ^ col
    return t


@dataclass(frozen=True, slots=True)
class DecisionSet:
    universe: FeatureUniverse
    terms: tuple[Term, ...]
    default: int
    _reads: int = field(init=False, repr=False, compare=False)
    # verify._zero_flip's memo: the least flip set of the all-zero example
    _zero_flip: Optional[frozenset] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(check_universe(self.universe))
        terms = tuple(make_term(t, n) for t in self.terms)
        object.__setattr__(self, "terms", terms)
        check_int(self.default, 0, 2, "default class must be 0 or 1")
        object.__setattr__(self, "_reads", _term_reads(terms))

    def evaluate(self, e: Example) -> int:
        for t in self.terms:
            if term_applies(t, e):
                return 1 - self.default
        return self.default

    def table(self, cols: Columns, full: int) -> int:
        applied = 0
        for t in self.terms:
            applied |= _term_table(t, cols, full)
        return (full ^ applied) if self.default else applied

    def params(self) -> ParamReport:
        size = sum(len(t) for t in self.terms) + 1
        return ParamReport(
            terms_elem=len(self.terms),
            term_size=max((len(t) for t in self.terms), default=0),
            size_elem=size,
            model_size=size,
        )

    def as_dl(self) -> DecisionList:
        """Equivalent decision list: one (1 - default)-rule per term, in
        order, then the empty default rule.  Term sizes are unchanged."""
        rules = tuple((t, 1 - self.default) for t in self.terms) + (((), self.default),)
        return DecisionList(self.universe, rules)


@dataclass(frozen=True, slots=True)
class DecisionList:
    universe: FeatureUniverse
    rules: tuple[tuple[Term, int], ...]
    _reads: int = field(init=False, repr=False, compare=False)
    # verify._zero_flip's memo: the least flip set of the all-zero example
    _zero_flip: Optional[frozenset] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.rules:
            raise ModelError("decision list needs at least one rule")
        check_int(tuple(c for _, c in self.rules), 0, 2, "rule class must be 0 or 1")
        n = len(check_universe(self.universe))
        rules = tuple((make_term(t, n), c) for t, c in self.rules)
        object.__setattr__(self, "rules", rules)
        if rules[-1][0] != ():
            raise ModelError("last rule's term must be empty")
        object.__setattr__(self, "_reads", _term_reads(t for t, _ in rules))

    def evaluate(self, e: Example) -> int:
        for t, c in self.rules:
            if term_applies(t, e):
                return c
        raise AssertionError("unreachable: last rule applies to every example")

    def table(self, cols: Columns, full: int) -> int:
        table = 0
        undecided = full
        for t, c in self.rules:
            fires = undecided & _term_table(t, cols, full)
            if c:
                table |= fires
            undecided &= ~fires
        return table

    def params(self) -> ParamReport:
        size = sum(len(t) + 1 for t, _ in self.rules)
        return ParamReport(
            terms_elem=len(self.rules),
            term_size=max(len(t) for t, _ in self.rules),
            size_elem=size,
            model_size=size,
        )

    def as_dl(self) -> DecisionList:
        return self


@dataclass(frozen=True)
class Ensemble:
    """Odd-sized majority vote over models of one family.

    ``elements`` lists every voter, copies included.  ``_ballots`` holds
    each element once by value, with the number of elements equal to it
    (its votes), in first-occurrence order: a voter repeated as one object
    (``[m] * r``) and equal but distinct objects (an ensemble loaded from
    JSON) are one ballot alike.  Elements are grouped by identity first, so
    each distinct object's family and universe are checked, and the object
    hashed, once.

    The ballots are the one voter list of every engine: ``table`` and
    its mask ``_reads``, ``params``, ``explain_dt.product_dt`` (through ``graft_dt``), the
    branching search and ``circuits.translate``.  Only these still walk
    ``elements``: validation and ``family`` here; the element count of the
    majority threshold and of ``params``; ``evaluate``, which counts every
    element as the reference the tables are tested against;
    ``modelio._model_to``, since a JSON document lists every element; and
    ``gadgets._leaves_are``, which certifies the ballot engines and so must
    not depend on how the elements are grouped.
    """

    universe: FeatureUniverse
    elements: tuple  # DecisionTree | DecisionSet | DecisionList, homogeneous
    # explain_dt.product_dt's memo: the product tree of a tree ensemble
    _product: Optional[DecisionTree] = field(
        default=None, init=False, repr=False, compare=False
    )
    # verify._zero_flip's memo: the least flip set of the all-zero example
    _zero_flip: Optional[frozenset] = field(default=None, init=False, repr=False, compare=False)
    _ballots: tuple = field(init=False, repr=False, compare=False)
    _reads: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_universe(self.universe)
        elements = tuple(self.elements)
        object.__setattr__(self, "elements", elements)
        if not elements:
            raise ModelError("ensemble needs at least one element")
        if len(elements) % 2 == 0:
            raise ModelError("ensemble size must be odd (majority must be total)")
        copies: dict[int, list] = {}  # id(element) -> [element, copies]
        for m in elements:
            copies.setdefault(id(m), [m, 0])[1] += 1
        if len({type(m) for m, _ in copies.values()}) != 1:
            raise ModelError("ensemble elements must all be of one family")
        if not isinstance(elements[0], (DecisionTree, DecisionSet, DecisionList)):
            raise ModelError("ensemble elements must be trees, sets or lists")
        for m, _ in copies.values():  # each distinct object checked once
            if m.universe != self.universe:
                raise ModelError("ensemble elements must share the universe")
        ballots: dict = {}  # element -> [first equal element, votes]
        for m, count in copies.values():  # each distinct object hashed once
            ballots.setdefault(m, [m, 0])[1] += count
        ballots = tuple((m, votes) for m, votes in ballots.values())
        object.__setattr__(self, "_ballots", ballots)
        reads = 0
        for m, _ in ballots:
            reads |= m._reads
        object.__setattr__(self, "_reads", reads)

    @property
    def family(self) -> str:
        return {DecisionTree: "dt", DecisionSet: "ds", DecisionList: "dl"}[
            type(self.elements[0])
        ]

    def evaluate(self, e: Example) -> int:
        votes = sum(m.evaluate(e) for m in self.elements)
        return 1 if votes >= len(self.elements) // 2 + 1 else 0

    def table(self, cols: Columns, full: int) -> int:
        """Each ballot is tabulated once and counted with its votes."""
        return counter_ge(
            [(m.table(cols, full), votes) for m, votes in self._ballots],
            len(self.elements) // 2 + 1,
            full,
        )

    def params(self) -> ParamReport:
        reports = [m.params() for m, _ in self._ballots]
        def agg(attr: str) -> Optional[int]:
            vals = [getattr(r, attr) for r in reports if getattr(r, attr) is not None]
            return max(vals) if vals else None
        return ParamReport(
            ens_size=len(self.elements),
            mnl_size=agg("mnl_size"),
            terms_elem=agg("terms_elem"),
            term_size=agg("term_size"),
            size_elem=max(r.size_elem for r in reports),
            model_size=sum(
                r.model_size * votes for r, (_, votes) in zip(reports, self._ballots)
            ),
        )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def classify(model, e: Example) -> int:
    """Class of ``e`` under ``model``; total for every well-formed model."""
    u = _model_universe(model)
    if not isinstance(e, Example):
        raise ModelError(f"not an example: {e!r}")
    if e.universe != u:
        raise ModelError("example universe differs from model universe")
    return model.evaluate(e)


def _model_universe(model) -> FeatureUniverse:
    """The universe of a model of one of the five families; ModelError for
    anything else, including objects that merely carry a universe."""
    u = getattr(model, "universe", None)
    if not isinstance(u, FeatureUniverse) or not (
        hasattr(model, "evaluate") and hasattr(model, "table") and hasattr(model, "params")
        and hasattr(model, "_reads")
    ):
        raise ModelError(f"not a model: {model!r}")
    return u


# ---------------------------------------------------------------------------
# truth tables of subcubes (bit-parallel classification)
# ---------------------------------------------------------------------------


def feature_column(feature: int, n: int) -> int:
    """2**n-bit integer whose bit m is feature's value in example mask m.

    One period (2**feature zeros, then as many ones) is doubled onto itself
    until it covers 2**n bits: n - feature - 1 shifts.
    """
    if feature >= n:
        return 0
    half = 1 << feature
    col = ((1 << half) - 1) << half
    width = half << 1
    total = 1 << n
    while width < total:
        col |= col << width
        width <<= 1
    return col


def counter_ge(ballots: Sequence[tuple[int, int]], threshold: int, full: int) -> int:
    """Bitwise [weighted count of set columns >= threshold] over the
    positions of ``full`` (the all-ones table), for (column, weight) pairs.

    The count is a bit-sliced binary counter, least significant plane
    first, summed by a carry-save adder tree (Wallace, 1964): a column of
    weight w waits on the plane of each set bit of w.  A plane's columns
    are summed in a chain of full adders, each taking the running sum and
    two more columns to a new sum and a carry that waits on the next plane;
    an even count ends in a half adder, and the last sum is the plane's
    counter bit.  Each addition is done once, however many planes a count
    spans.
    """
    if threshold <= 0:
        return full
    waiting: list[list[int]] = [[]]  # the columns still to add, by plane
    for col, weight in ballots:
        if not col:  # adds nothing
            continue
        plane = 0
        while weight:
            if plane == len(waiting):
                waiting.append([])
            if weight & 1:
                waiting[plane].append(col)
            weight >>= 1
            plane += 1
    planes: list[int] = []  # binary counter, least significant plane first
    for i, cols in enumerate(waiting):  # carries into a new plane append one
        m = len(cols)
        a = cols[0] if m else 0
        carries = []
        for j in range(1, m - 1, 2):  # full adders
            b = cols[j]
            c = cols[j + 1]
            ab = a ^ b
            carries.append((a & b) | (c & ab))
            a = ab ^ c
        if m and not m & 1:  # half adder
            b = cols[-1]
            carries.append(a & b)
            a ^= b
        planes.append(a)
        if i + 1 < len(waiting):
            waiting[i + 1] += carries
        elif carries:
            waiting.append(carries)
    # compare the per-position counter against the constant threshold
    if threshold >> len(planes):
        return 0  # no position ever counted that high
    ge = 0
    eq = full
    for i in reversed(range(len(planes))):
        if (threshold >> i) & 1:
            eq &= planes[i]
        else:
            ge |= eq & planes[i]
    return ge | eq


def weight_planes(n: int) -> list[int]:
    """The bit-sliced counter of the n feature columns, least significant
    plane first, grown by doubling like ``feature_column``: column j adds one
    on the high half of 2**(j+1) positions only, a ripple increment."""
    planes: list[int] = []
    for j in range(n):
        half = 1 << j
        carry = (1 << half) - 1  # the increment, at every position of a half
        grown = []
        for plane in planes:
            grown.append(plane | ((plane ^ carry) << half))
            carry &= plane
        if carry:
            grown.append(carry << half)
        planes = grown
    return planes


def subcube_table(model, fixed: Mapping[int, int], free: Sequence[int], origin: int = 0) -> int:
    """Classes of the 2**len(free) completions of ``fixed``, in one integer.

    ``fixed`` maps features to bits (0 or 1) and ``free`` lists features:
    distinct features of the universe that together cover the model's
    ``_reads`` (the support rule; a feature in neither is unread, and
    changes no class).  Bit m is the class of the example that agrees
    with ``fixed`` and gives free[j] the value of bit j of m, or its
    complement where the ``origin`` mask (an int below 2**n) has free[j]:
    the flip m of the origin.  The model gets a list of columns indexed by
    feature: a fixed feature's is 0 or all-ones, and a free feature in the
    model's ``_reads`` gets ``feature_column(j, len(free))``, complemented
    where the origin has it, so the work is in 2**len(free) bits whatever
    the universe size.  A free unread feature costs no column but doubles
    the table, and a fixed unread one costs a check and a column for
    nothing, so the engines list only read ones, fixed and free.  The cover
    check is one set test against the read features (``mask_features``).
    """
    n = len(_model_universe(model))
    if not (isinstance(fixed, Mapping) and isinstance(free, Sequence)):
        raise ModelError("fixed must map features to bits and free must list features")
    cover = "fixed and free must be distinct features of the universe covering the read ones"
    given = set(check_int((*fixed, *free), 0, n, cover))
    reads = set(mask_features(model._reads))
    if len(given) < len(fixed) + len(free) or not reads <= given:
        raise ModelError(cover)
    check_int(tuple(fixed.values()), 0, 2, "fixed bits must be 0 or 1")
    check_int(origin, 0, 1 << n, "origin must be a mask of the universe's features")
    d = len(free)
    full = (1 << (1 << d)) - 1
    cols = [0] * n
    for f, b in fixed.items():
        if b:
            cols[f] = full
    for j, f in enumerate(free):
        if f in reads:
            col = feature_column(j, d)
            cols[f] = full ^ col if origin >> f & 1 else col
    return model.table(cols, full)


def truth_table(model) -> int:
    """Classes of all 2**n examples of the model's n features at once,
    packed into one integer."""
    return subcube_table(model, {}, range(len(_model_universe(model))))


# ---------------------------------------------------------------------------
# tree normalization and ordering
# ---------------------------------------------------------------------------


def is_normalized(t: DecisionTree) -> bool:
    """Is t in ``graft_dt``'s normal form, as its constructor decided?"""
    return t._normal is True


_LEAVES = (Leaf(0), Leaf(1))  # leaves are immutable: one per class is shared


def graft_dt(ballots: Sequence[tuple[DecisionTree, int]], seed: Sequence[tuple[int, int]] = (),
             order=None) -> DecisionTree:
    """The majority vote of the ``(tree, votes)`` pairs of ``ballots`` on
    the examples extending the ``(feature, bit)`` pairs of ``seed``, as one
    normalized tree.  The majority is over the summed votes; one tree is
    ``[(t, 1)]``.

    Tree i+1 is grafted onto every leaf of trees 1..i whose vote is still
    open, and a leaf of class 1 adds its tree's votes.  Each path carries
    the features it assigns, seed first: at a split on an assigned feature
    the walk follows the consistent child and emits no node, so no path
    tests a feature twice.  A path ends in a leaf of the decided class as
    soon as its vote is decided (a majority already voted 1, or too few
    votes are left to reach one); a vote of one tree ends at that tree's
    leaf.  The walk is iterative (deep trees do not exhaust the call stack)
    and emits the arena in post-order, 0-child first: the result is in
    normal form, as its constructor finds (``is_normalized``), and carries
    ``order``.
    """
    trees, weight = zip(*ballots)
    majority_at = sum(weight) // 2 + 1
    left = [sum(weight[i + 1:]) for i in range(len(weight))]  # votes after tree i
    # Explicit stack whose entries are (tree, node, votes, mask, value) to
    # visit, or (feature,) for a split whose two children are built.  mask
    # has bit f set when the path assigns feature f, and value holds the
    # assigned bits.
    nodes: list[DTNode] = []
    built: list[int] = []  # arena indices of finished subtrees
    mask = sum(1 << f for f, _ in seed)
    value = sum(b << f for f, b in seed)
    stack: list[tuple] = [(0, trees[0].root, 0, mask, value)]
    while stack:
        entry = stack.pop()
        if len(entry) == 1:
            hi = built.pop()
            lo = built.pop()
            nodes.append(Split(entry[0], lo, hi))
            built.append(len(nodes) - 1)
            continue
        ti, i, votes, mask, value = entry
        while True:
            node = trees[ti].nodes[i]
            if isinstance(node, Leaf):
                votes += node.label * weight[ti]
                if votes >= majority_at or votes + left[ti] < majority_at:
                    nodes.append(_LEAVES[votes >= majority_at])
                    built.append(len(nodes) - 1)
                    break
                ti += 1
                i = trees[ti].root
                continue
            bit = 1 << node.feature
            if mask & bit:
                i = node.hi if value & bit else node.lo
                continue
            mask |= bit
            stack += (
                (node.feature,),
                (ti, node.hi, votes, mask, value | bit),
                (ti, node.lo, votes, mask, value),
            )
            break
    return DecisionTree(trees[0].universe, tuple(nodes), built.pop(), order)


def _leaf_paths(
    t: DecisionTree, seed: Collection[tuple[int, int]] = ()
) -> Iterator[tuple[int, int, int]]:
    """(label, mask, value) for every leaf of t reachable from the
    ``(feature, bit)`` pairs of ``seed``, depth-first and 0-child first.

    mask holds the features that the seed and the leaf's path assign, value
    their bits.  At a split on a feature already in mask the walk follows
    the consistent child, as ``graft_dt`` does, so a raw tree yields the
    leaves, masks and order of its normal form and needs no normalizing.
    """
    nodes = t.nodes
    stack = [(t.root, sum(1 << f for f, _ in seed), sum(b << f for f, b in seed))]
    while stack:
        i, mask, value = stack.pop()
        node = nodes[i]
        while not isinstance(node, Leaf):
            bit = 1 << node.feature
            if mask & bit:
                node = nodes[node.hi if value & bit else node.lo]
                continue
            mask |= bit
            stack.append((node.hi, mask, value | bit))
            node = nodes[node.lo]
        yield node.label, mask, value


def normalize_dt(t: DecisionTree) -> DecisionTree:
    """Equivalent tree in normal form: no root-to-leaf path tests a feature
    twice, and the arena is ``graft_dt``'s post-order.

    A tree the constructor found in normal form (``is_normalized``) is
    returned unchanged.  Any other, even one without repeats in another
    arena order, is rebuilt once by ``graft_dt`` and keeps the copy: a
    repeated test is rerouted to the child consistent with the earlier
    decision, so the leaf count never grows.
    """
    if not isinstance(t, DecisionTree):
        raise ModelError("expected a decision tree")
    memo = t._normal
    if memo is True:
        return t
    if memo is None:
        memo = graft_dt([(t, 1)], order=t.order)
        assert memo.leaf_count() <= t.leaf_count()
        object.__setattr__(t, "_normal", memo)
    return memo


def respects_order(t: DecisionTree, order: Sequence[int]) -> bool:
    """True iff features occur strictly increasingly (per ``order``) on every
    root-to-leaf path."""
    if not isinstance(t, DecisionTree):
        raise ModelError("expected a decision tree")
    order = permutation(order, len(t.universe), "order must be a permutation of the features")
    rank = {f: pos for pos, f in enumerate(order)}

    stack = [(t.root, -1)]  # (node, rank of the test above it)
    while stack:
        i, bound = stack.pop()
        node = t.nodes[i]
        if isinstance(node, Leaf):
            continue
        r = rank[node.feature]
        if r <= bound:
            return False
        stack.append((node.hi, r))
        stack.append((node.lo, r))
    return True


# ---------------------------------------------------------------------------
# parameter measurement
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ParamReport:
    """Model parameters; fields that do not apply to the family are None.

    * tree size = number of leaves; mnl = the smaller of the two per-class
      leaf counts,
    * decision set size = sum of term sizes + 1 (the default rule),
    * decision list size = sum over rules of (term size + 1),
    * for ensembles the per-element parameters are maxima over the elements,
      ens_size is the element count and model_size the summed element sizes.
    """

    ens_size: Optional[int] = None
    mnl_size: Optional[int] = None
    terms_elem: Optional[int] = None
    term_size: Optional[int] = None
    size_elem: Optional[int] = None
    model_size: Optional[int] = None

    def as_dict(self) -> dict[str, int]:
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {k: v for k, v in values if v is not None}


def measure(model) -> ParamReport:
    _model_universe(model)
    return model.params()
