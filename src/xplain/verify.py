"""Explanation verification and the exhaustive ground-truth oracle.

The four explanation kinds, for a model M:

* ``laxp``: feature set A such that every example agreeing with the target
  example e on A gets class M(e).
* ``lcxp``: feature set A such that some example differing from e only inside
  A gets a class other than M(e).
* ``gaxp``: partial example forcing every agreeing example to class c.
* ``gcxp``: partial example forcing every agreeing example to a class != c.

Every explanation entry of the package takes the model and then the
request's parts: ``(model, kind, target[, candidate | k], caps)``, the
target being an example for the local kinds and a class bit for the global
ones.  ``_request`` is the one check that the request fits the model, the
budget ``k`` of a search included, and raises ``ModelError`` when it does
not; ``_fixed`` checks the candidate: a set of the universe's features for
a local kind, a partial example over the universe for a global one.

``verify(model, kind, target, candidate)`` answers "is this candidate an
explanation?".  Decision trees get a polynomial fast path: the seeded
leaf walk ``core._leaf_paths`` reads the leaves that the request's fixed
features leave reachable, path-consistently, so the tree need not be
normalized.  Every other model is checked exactly by
``verify_by_enumeration``, which takes the same arguments: one table of
the completions of the features the request fixes, compared against 0 or
all-ones.

The support rule and every engine table live here, in ``_read_table``: a
table's free features are the unfixed features the model reads
(``_reads``), since a feature no term, split or IN gate reads changes no
class, and the ``verify`` cap counts them; its fixed features, and a tree
walk's seed, are the fixed ones the model reads.  ``core.mask_features``
reads them off ``_reads`` in one pass, so a request stays linear in the
universe.  Two searches serve every model family:

* ``shrink``: the greedy one-pass shrink of a valid candidate to a
  subset-minimal explanation (trees run the same pass on literal columns in
  ``explain_dt``, other models' global kinds inside one table in
  ``_least_implicant``, and the tests hold both to this one);
* ``first_flip``: the first flip set by size and then lexicographically,
  behind ``phom_check`` and ``lcxp_card_enum``: table operations on the
  flips of e, or above the cap a guarded enumeration.

Flips range over the features a model reads.  The homogeneity questions
read one value of the model, its least zero flip: the first flip set of
the all-zero example, or the empty set when the model is constant.  It is
one flip table (``_least_flip``), computed on first use and kept on the
model (``_zero_flip``, a field of each family).  ``hom_check`` asks
whether it is nonempty, ``phom_check(k)`` whether it is nonempty with at
most k features, and ``first_flip`` returns it for the all-zero example
with nothing held.  Each entry checks the request and the cap before it
reads the kept value, and only the table route reads or fills it: a model
answers and refuses alike, whatever was asked of it before.

``oracle_min`` and ``oracle_subset_min_check`` are the brute-force ground
truth the rest of the test suite is measured against: candidates are
enumerated by increasing cardinality and lexicographically within one
cardinality, so witnesses are deterministic.  The oracle tabulates and caps
the whole universe, read or not, so it shares no support rule with the
engines it certifies.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations
from math import comb, inf
from typing import Optional, Union

from .config import DEFAULT_CAPS, BruteCaps, CapExceeded, require_cap
from .core import (
    DecisionTree,
    Example,
    FeatureUniverse,
    ModelError,
    PartialExample,
    _leaf_paths,
    _model_universe,
    as_tuple,
    check_int,
    check_ints,
    classify,
    feature_column,
    graft_dt,
    mask_features,
    subcube_table,
    truth_table,
    weight_planes,
)

LOCAL_KINDS = ("laxp", "lcxp")
GLOBAL_KINDS = ("gaxp", "gcxp")
KINDS = LOCAL_KINDS + GLOBAL_KINDS

Candidate = Union[frozenset, PartialExample]


def flip(e: Example, features: Iterable[int]) -> Example:
    """Example equal to e except that every listed feature is negated; e
    must be an example and ``features`` a sequence of ints below its length
    (ModelError otherwise)."""
    if not isinstance(e, Example):
        raise ModelError(f"flip takes an example, not {type(e).__name__}")
    message = "flipped feature outside the universe"
    features = check_ints(as_tuple(features, message), 0, len(e.bits), message)
    bits = list(e.bits)
    for f in features:
        bits[f] = 1 - bits[f]
    return Example(e.universe, tuple(bits))


def _request(
    model, kind: str, target, kinds: tuple = KINDS, *, k: int = 0
) -> FeatureUniverse:
    """The model's universe, once the request fits the model: a model of one
    of the five families, a kind among ``kinds``, for a local kind an
    example over the model's universe, for a global kind a class bit, and a
    budget ``k`` that is a nonnegative int (an entry that takes no budget
    leaves it at 0).  The one request check of every explanation entry;
    ModelError otherwise."""
    u = _model_universe(model)
    if kind not in kinds:
        raise ModelError(f"explanation kind {kind!r} is not one of {', '.join(kinds)}")
    if kind in LOCAL_KINDS:
        if not (isinstance(target, Example) and target.universe == u):
            raise ModelError("local kinds take an example over the model's universe")
    else:
        check_int(target, 0, 2, "global kinds take a class bit as target")
    _budget(k)
    return u


def _budget(k) -> int:
    """The one budget rule of explanation entries (through ``_request``),
    gadget builders and the command line: ``k`` is a nonnegative int."""
    return check_int(k, 0, inf, "k must be nonnegative")


def _fixed(u: FeatureUniverse, kind: str, target, candidate: Candidate) -> dict[int, int]:
    """The features a request fixes, with their bits: e on the ``laxp``
    candidate, e off the ``lcxp`` candidate, tau for the global kinds.  A
    local candidate must be features of the universe u, a global one a
    partial example over u; ModelError otherwise."""
    if kind in LOCAL_KINDS:
        if isinstance(candidate, PartialExample) or not isinstance(candidate, Iterable):
            raise ModelError("local kinds take a feature set as candidate")
        features = frozenset(candidate)
        check_ints(tuple(features), 0, len(u), "candidate feature outside the universe")
        if kind == "laxp":
            return {f: target.bits[f] for f in features}
        return {f: b for f, b in enumerate(target.bits) if f not in features}
    if not (isinstance(candidate, PartialExample) and candidate.universe == u):
        raise ModelError("global kinds take a partial example over the universe as candidate")
    return candidate.as_dict()


# ---------------------------------------------------------------------------
# decision tree restriction and fast verification
# ---------------------------------------------------------------------------


def restrict_dt(t: DecisionTree, tau: PartialExample) -> DecisionTree:
    """The tree seen by examples extending tau, normalized: at every inner
    node testing an assigned feature, the inconsistent child is dropped and
    the node spliced out (``core.graft_dt`` on the one tree, seeded with
    tau).  tau must be over t's universe."""
    if not isinstance(t, DecisionTree):
        raise ModelError("expected a decision tree")
    if not isinstance(tau, PartialExample):
        raise ModelError(f"not a partial example: {tau!r}")
    if tau.universe != t.universe:
        raise ModelError("partial example universe differs from tree universe")
    return graft_dt([(t, 1)], tau.assignments)


def _verify_dt(t: DecisionTree, kind: str, target, fixed: dict) -> bool:
    """``lcxp`` holds iff a leaf of the other class than e's is reachable
    from the fixed features (``core._leaf_paths`` seeded with the fixed
    features the tree reads); the other kinds iff no leaf of the class they
    exclude is."""
    if kind in LOCAL_KINDS:
        other = 1 - classify(t, target)
    else:
        other = 1 - target if kind == "gaxp" else target
    seed = [(f, fixed[f]) for f in mask_features(t._reads) if f in fixed]
    reachable = any(label == other for label, _, _ in _leaf_paths(t, seed))
    return reachable if kind == "lcxp" else not reachable


# ---------------------------------------------------------------------------
# generic verification on the subcube table
# ---------------------------------------------------------------------------


def _bit(table: int, mask: int) -> int:
    return (table >> mask) & 1


def _flip_domain(model) -> list[int]:
    """The features the model reads (``_reads``), ascending: the features a
    flip may change (a flip of any other feature keeps every class)."""
    _model_universe(model)  # ModelError on a value that is no model
    return mask_features(model._reads)


def _read_table(
    model, fixed: dict, caps: BruteCaps, what: str, origin: int = 0, descending: bool = False
) -> tuple[list[int], int]:
    """Every engine table: the read features that ``fixed`` leaves free,
    ascending (or ``descending``), and their ``subcube_table`` in that
    order (bit m the class of the ``origin`` mask flipped on m), which gets
    only the fixed features the model reads; ``CapExceeded`` for ``what``
    when the free ones number more than ``caps.verify``."""
    read = _flip_domain(model)
    free = [f for f in read if f not in fixed]
    require_cap(len(free), caps.verify, what)
    if descending:
        free.reverse()
    return free, subcube_table(model, {f: fixed[f] for f in read if f in fixed}, free, origin)


def verify_by_enumeration(
    model, kind: str, target, candidate: Candidate, caps: BruteCaps = DEFAULT_CAPS
) -> bool:
    """The definition, checked over all relevant completions at once.

    Each kind fixes some features and leaves the others free; one
    ``_read_table`` tabulates every completion, and the answer is an
    integer compare of that table against 0 or all-ones:

    * ``laxp``: e fixed on the candidate; e is a completion, so the
      candidate holds iff the table is constant.
    * ``lcxp``: e fixed off the candidate; it holds iff the table is not
      constant.
    * ``gaxp`` / ``gcxp``: tau fixed; it holds iff the table is all c /
      all 1 - c.
    """
    u = _request(model, kind, target)
    fixed = _fixed(u, kind, target, candidate)
    free, table = _read_table(model, fixed, caps, f"verify {kind}")
    full = (1 << (1 << len(free))) - 1
    if kind == "laxp":
        return table in (0, full)
    if kind == "lcxp":
        return table not in (0, full)
    want = target if kind == "gaxp" else 1 - target
    return table == (full if want else 0)


def verify(
    model, kind: str, target, candidate: Candidate, caps: BruteCaps = DEFAULT_CAPS
) -> bool:
    """Is the candidate an explanation of the given kind for the target?
    Trees use the restriction fast path, every other model the subcube
    table of ``verify_by_enumeration``, which checks the request itself."""
    if isinstance(model, DecisionTree):
        u = _request(model, kind, target)
        return _verify_dt(model, kind, target, _fixed(u, kind, target, candidate))
    return verify_by_enumeration(model, kind, target, candidate, caps)


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
    _fixed(_request(model, kind, target), kind, target, candidate)
    local = kind in LOCAL_KINDS
    if local:
        candidate = frozenset(candidate)
    for f in sorted(candidate) if local else candidate.domain:
        smaller = candidate - {f} if local else candidate.restricted_off(f)
        if verify(model, kind, target, smaller, caps):
            candidate = smaller
    return candidate


def _least_implicant(
    model, cls: int, caps: BruteCaps, fixed=()
) -> Optional[list[tuple[int, int]]]:
    """The greedy shrink of the least completion of ``fixed`` with class
    ``cls``, as (feature, bit) pairs by feature after ``fixed``'s own; None
    when every completion has the other class.

    One ``_read_table`` tabulates the completions, and the shrink
    runs inside that table by existential quantification.  T holds the
    completions of the other class, quantified over the positions dropped so
    far, and x is the seed.  Free position j, in ascending order, stays when
    T has x with bit j flipped: dropping it would let a completion of the
    other class agree with what is left.  Otherwise j drops and T forgets
    it: both halves of T on bit j are ORed onto each other.  These are the
    literals ``shrink`` drops from x, in the same order, with one table
    and one column live.  The shrink would drop every unread feature, and
    the least completion sets them to 0.
    """
    fixed = dict(fixed)
    free, table = _read_table(model, fixed, caps, "global search")
    full = (1 << (1 << len(free))) - 1
    other = full ^ table if cls else table
    if other == full:
        return None
    wanted = full ^ other
    x = (wanted & -wanted).bit_length() - 1
    implicant = list(fixed.items())
    for j, f in enumerate(free):
        if other >> (x ^ (1 << j)) & 1:
            implicant.append((f, x >> j & 1))
        else:
            col = feature_column(j, len(free))
            other |= (other & col) >> (1 << j) | (other & ~col) << (1 << j)
    return implicant


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
    u = _request(model, kind, target)
    n = len(u)
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
                    return size, PartialExample(u, tuple(assigned.items()))
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
    if not verify(model, kind, target, candidate, caps):
        return False
    local = kind in LOCAL_KINDS
    for f in sorted(candidate) if local else candidate.domain:
        smaller = frozenset(candidate) - {f} if local else candidate.restricted_off(f)
        if verify(model, kind, target, smaller, caps):
            return False
    return True


# ---------------------------------------------------------------------------
# homogeneity checks (model level)
# ---------------------------------------------------------------------------


def _least_flip(model, held: dict, origin: int, caps: BruteCaps, what: str) -> frozenset:
    """The first flip set of the example ``origin`` (a mask) over the read
    features off ``held``, by size and then lexicographically, from one
    flip table (``_read_table``, ``held`` fixed at their bits, the lowest
    free feature highest): the highest position of least weight set in the
    table XOR the origin's class.  The empty set when no flip changes the
    class."""
    domain, table = _read_table(model, held, caps, what, origin, descending=True)
    d = len(domain)
    flips = ((1 << (1 << d)) - 1) ^ table if table & 1 else table  # class-changing
    if not flips:
        return frozenset()
    for plane in reversed(weight_planes(d)):  # keep the flips of least weight
        lighter = flips & ~plane
        if lighter:
            flips = lighter
    m = flips.bit_length() - 1
    return frozenset(f for j, f in enumerate(domain) if m >> j & 1)


def _zero_flip(model, caps: BruteCaps, what: str) -> frozenset:
    """``_least_flip`` of the all-zero example with nothing held, computed
    once per model and kept in its ``_zero_flip`` field (set on any other
    value that ``core._model_universe`` takes for a model).  Callers check
    the request and the cap first, so a cold and a warm model answer and
    refuse alike."""
    least = getattr(model, "_zero_flip", None)
    if least is None:
        least = _least_flip(model, {}, 0, caps, what)
        object.__setattr__(model, "_zero_flip", least)
    return least


def hom_check(model, caps: BruteCaps = DEFAULT_CAPS) -> bool:
    """Is some example classified differently from the all-zero example?
    It is when the model's least zero flip (``_zero_flip``) is not empty."""
    require_cap(len(_flip_domain(model)), caps.verify, "hom")
    return bool(_zero_flip(model, caps, "hom"))


def first_flip(
    model,
    e: Example,
    k: int,
    caps: BruteCaps = DEFAULT_CAPS,
    what: str = "flip search",
    fixed: Iterable[int] = (),
) -> Optional[frozenset]:
    """First set of at most k features of the model's domain, less the
    ``fixed`` ones held at e's bits (features of the universe by the integer
    rule), whose flip changes e's class, by size and then lexicographically,
    or None.  Up to ``caps.verify`` features it is ``_least_flip`` if that
    has at most k features: the model's kept ``_zero_flip`` when e is all
    zero and nothing is held.  Above the cap each flipped example is
    classified, if the flip sets to try number at most 2**caps.verify.
    ModelError when e is no example over the model's universe, k is no
    nonnegative int or a held feature is no feature of the universe."""
    u = _request(model, "lcxp", e, k=k)
    held = set(check_ints(tuple(fixed), 0, len(u), "held feature outside the universe"))
    domain = [f for f in _flip_domain(model) if f not in held]
    d = len(domain)
    k = min(k, d)
    if d > caps.verify:
        require_cap(k, caps.verify, what)
        count = sum(comb(d, i) for i in range(k + 1))
        if count > 1 << caps.verify:
            raise CapExceeded(f"{what}: {count} flip sets exceed 2**{caps.verify}")
        cls = classify(model, e)
        for size in range(1, k + 1):
            for subset in combinations(domain, size):
                if classify(model, flip(e, subset)) != cls:
                    return frozenset(subset)
        return None
    origin = e.mask()
    if held or origin:
        least = _least_flip(model, {f: e.bits[f] for f in held}, origin, caps, what)
    else:
        least = _zero_flip(model, caps, what)
    return least if least and len(least) <= k else None


def phom_check(model, k: int, caps: BruteCaps = DEFAULT_CAPS) -> bool:
    """Is some example with at most k ones classified differently from the
    all-zero example?  k must be a nonnegative int (``first_flip``)."""
    u = _model_universe(model)
    zero = Example(u, (0,) * len(u))
    return first_flip(model, zero, k, caps, "phom") is not None
