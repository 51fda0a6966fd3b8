"""Boolean circuits with majority gates, and model-to-circuit translations.

A circuit is a DAG of IN / AND / OR / NOT / MAJ gates with one output gate
(the unique sink).  Gates are stored topologically ordered with dense ids, so
acyclicity is a property of the representation.  A MAJ gate's in-arcs are
a multiset: with threshold t it fires when at least t of its arcs carry 1,
an in-neighbour listed r times counting r times.  ``Circuit.evaluate``
counts arc by arc; ``Circuit.table`` tabulates a repeated arc as one
``counter_ge`` column weighted by its multiplicity.

``translate`` is the one translation.  For a class c it builds a circuit
satisfied by an input assignment exactly when the model classifies it as c,
in one loop over the voters: the model itself, or an ensemble's ballots
(``Ensemble._ballots``: each distinct element value once, with its votes).
Each voter is wired once by its family's case, into one shared arena (input
and per-feature NOT gates are shared):

* a tree contributes one AND gate per leaf on its smaller class side (the
  gate recognizes the leaf's path, read as a mask off ``core._leaf_paths``)
  plus an OR collector; when c is the other side's class, a complementing
  NOT is appended.  The walk is path-consistent, so a raw tree is wired
  straight from its arena: it yields the leaves, paths and order of the
  tree's normal form, and no normalized copy is built.
* a list (a set as its list) wires one gate per rule term, up to its last
  class-c rule.  A class-c rule is guarded by the NOT of one running OR,
  ``fired``, of every earlier other-class term; ``fired`` grows by one OR
  gate per run of consecutive other-class rules, so the circuit is linear
  in the list.

An ensemble of n elements then adds a single MAJ gate with threshold
floor(n/2) + 1, which lists each ballot's output once per vote.

The translation also returns a width certificate: a gate deletion set
whose removal (together with the input gates, the per-feature NOT gates and
the output) leaves a forest, plus the closed-form width bound that witness
supports: 3 * 2**(Σ smaller-side leaf counts) for trees, 3 * 2**(3 * Σ rule
counts) for rule models, each sum over the ballots.  The repeated arcs all
end at the output, which the forest test removes.  Rank-width itself is
never computed.

A constant tree, and a rule whose term constrains nothing, are encoded as a
constant gate pair over an arbitrary input: OR(g, NOT g) is constant true and
AND(g, NOT g) constant false.  Translation therefore needs a nonempty
universe.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import inf
from typing import Optional, Sequence, Union

from .config import DEFAULT_CAPS, BruteCaps
from .core import (
    Columns,
    DecisionList,
    DecisionSet,
    DecisionTree,
    Ensemble,
    Example,
    FeatureUniverse,
    ModelError,
    ParamReport,
    _leaf_paths,
    check_int,
    check_universe,
    counter_ge,
    mask_features,
    truth_table,
)
from .verify import hom_check

IN, AND, OR, NOT, MAJ = "IN", "AND", "OR", "NOT", "MAJ"
_KINDS = (IN, AND, OR, NOT, MAJ)


@dataclass(frozen=True, slots=True)
class Gate:
    kind: str
    ins: tuple[int, ...] = ()
    threshold: Optional[int] = None
    feature: Optional[int] = None  # IN gates only


@dataclass(frozen=True, slots=True)
class Circuit:
    universe: FeatureUniverse
    gates: tuple[Gate, ...]
    output: int
    _reads: int = field(init=False, repr=False, compare=False)  # the IN gates' features
    # verify._zero_flip's memo: the least flip set of the all-zero example
    _zero_flip: Optional[frozenset] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_universe(self.universe)
        gates = tuple(self.gates)
        object.__setattr__(self, "gates", gates)
        if not gates:
            raise ModelError("circuit needs at least one gate")
        check_int(self.output, 0, len(gates), "output gate index out of range")
        outdeg = [0] * len(gates)
        reads = 0
        for i, g in enumerate(gates):
            if g.kind not in _KINDS:
                raise ModelError(f"unknown gate kind {g.kind!r}")
            if type(g.ins) is not tuple:
                raise ModelError("a gate's incoming arcs must be a tuple of gate indices")
            for j in check_int(g.ins, 0, i, "a gate's arcs must be indices of earlier gates"):
                outdeg[j] += 1
            if g.kind == IN:
                if g.ins:
                    raise ModelError("IN gates take no incoming arc")
                check_int(g.feature, 0, len(self.universe), "IN gate needs a feature in the universe")
                if reads >> g.feature & 1:
                    raise ModelError("feature mapped to two IN gates")
                reads |= 1 << g.feature
            else:
                if g.feature is not None:
                    raise ModelError("only IN gates carry a feature")
                if g.kind == NOT and len(g.ins) != 1:
                    raise ModelError("NOT gates take exactly one incoming arc")
                if g.kind in (AND, OR, MAJ) and not g.ins:
                    raise ModelError(f"{g.kind} gates need at least one incoming arc")
                if (g.kind == MAJ) != (g.threshold is not None):
                    raise ModelError("exactly MAJ gates carry a threshold")
                if g.kind == MAJ:
                    check_int(g.threshold, -inf, inf, "a MAJ threshold must be an integer")
        sinks = [i for i, d in enumerate(outdeg) if d == 0]
        if sinks != [self.output]:
            raise ModelError(f"output must be the unique sink, sinks are {sinks}")
        object.__setattr__(self, "_reads", reads)

    @property
    def maj_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == MAJ)

    def evaluate(self, e: Example) -> int:
        """Output gate value under the input assignment, by topological order."""
        val = [0] * len(self.gates)
        for i, g in enumerate(self.gates):
            if g.kind == IN:
                val[i] = e.bits[g.feature]
            elif g.kind == AND:
                val[i] = int(all(val[j] for j in g.ins))
            elif g.kind == OR:
                val[i] = int(any(val[j] for j in g.ins))
            elif g.kind == NOT:
                val[i] = 1 - val[g.ins[0]]
            else:  # MAJ
                val[i] = int(g.threshold <= sum(val[j] for j in g.ins))
        return val[self.output]

    def table(self, cols: Columns, full: int) -> int:
        """Output table over the positions of ``full``, gate by gate in
        topological order; IN gates read ``cols[feature]``.  A gate's table
        is dropped after its last reader, so only the live frontier is held."""
        gates = self.gates
        last = list(range(len(gates)))  # the last gate reading each gate
        for i, g in enumerate(gates):
            for j in g.ins:
                last[j] = i
        val: list = [None] * len(gates)
        for i, g in enumerate(gates):
            if g.kind == IN:
                val[i] = cols[g.feature]
            elif g.kind == AND:
                acc = full
                for j in g.ins:
                    acc &= val[j]
                val[i] = acc
            elif g.kind == OR:
                acc = 0
                for j in g.ins:
                    acc |= val[j]
                val[i] = acc
            elif g.kind == NOT:
                val[i] = full ^ val[g.ins[0]]
            else:  # MAJ
                arcs = Counter(g.ins)  # a repeated arc is one weighted column
                val[i] = counter_ge([(val[j], w) for j, w in arcs.items()], g.threshold, full)
            for j in g.ins:
                if last[j] == i:
                    val[j] = None
        return val[self.output]

    def params(self) -> ParamReport:
        return ParamReport(model_size=len(self.gates))


@dataclass(frozen=True, slots=True)
class WidthCertificate:
    """Deletion set witnessing the closed-form width bound: removing the set
    together with the IN gates, the IN-fed NOT gates and the output leaves a
    forest."""

    deletion: frozenset
    bound: int
    formula: str  # which translation's bound formula applies


def circuit_table(circuit: Circuit) -> int:
    """Truth table of the output over all 2**n assignments of the n
    universe features (``core.truth_table``)."""
    return truth_table(circuit)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


class _Builder:
    """Arena builder; IN and per-feature NOT gates are created lazily and
    shared."""

    def __init__(self, universe: FeatureUniverse) -> None:
        if len(universe) == 0:
            raise ModelError("circuit translation needs at least one feature")
        self.universe = universe
        self.gates: list[Gate] = []
        self._in: dict[int, int] = {}
        self._not: dict[int, int] = {}

    def add(self, kind: str, ins: Sequence[int] = (), threshold: Optional[int] = None,
            feature: Optional[int] = None) -> int:
        self.gates.append(Gate(kind, tuple(ins), threshold, feature))
        return len(self.gates) - 1

    def in_gate(self, f: int) -> int:
        if f not in self._in:
            self._in[f] = self.add(IN, feature=f)
        return self._in[f]

    def not_gate(self, f: int) -> int:
        if f not in self._not:
            self._not[f] = self.add(NOT, (self.in_gate(f),))
        return self._not[f]

    def literal(self, f: int, bit: int) -> int:
        return self.in_gate(f) if bit else self.not_gate(f)

    def const_true(self) -> int:
        return self.add(OR, (self.in_gate(0), self.not_gate(0)))

    def const_false(self) -> int:
        return self.add(AND, (self.in_gate(0), self.not_gate(0)))

    def finish(self, output: int) -> Circuit:
        return Circuit(self.universe, tuple(self.gates), output)


def _dt_into(builder: _Builder, t: DecisionTree, c: int) -> tuple[int, list[int], int]:
    """Wire one tree into the builder; returns (output gate, deletion gates,
    the bound's exponent: the tree's smaller-side leaf count)."""
    sides: tuple[list, list] = ([], [])  # (mask, value) of each leaf, by label
    for label, mask, value in _leaf_paths(t):
        sides[label].append((mask, value))
    mnl_side = 0 if len(sides[0]) <= len(sides[1]) else 1
    mnl = len(sides[mnl_side])
    if mnl == 0:
        # constant tree: the circuit is constant [label == c]
        label = 1 - mnl_side
        out = builder.const_true() if label == c else builder.const_false()
        return out, [], 0
    # both sides have leaves, so no leaf is the root and every mask is set
    deletion = [
        builder.add(AND, [builder.literal(f, value >> f & 1) for f in mask_features(mask)])
        for mask, value in sides[mnl_side]
    ]
    out = builder.add(OR, deletion)
    if c != mnl_side:
        out = builder.add(NOT, (out,))
    return out, deletion, mnl


def _dl_into(
    builder: _Builder, model: Union[DecisionList, DecisionSet], c: int
) -> tuple[int, list[int], int]:
    """Wire one list (a set as its list) into the builder; returns (output
    gate, deletion gates, the bound's exponent: three per rule).  One running
    guard ``fired`` ORs every earlier other-class term: it grows by one gate
    per run of consecutive other-class rules, whose one NOT is shared by the
    class-c rules after the run.  Each gate is deleted, at most 3 per rule."""
    dl = model.as_dl()
    # rules after the last class-c rule cannot influence [class == c];
    # building them would leave dangling gates
    last_c = max((i for i, (_, cls) in enumerate(dl.rules) if cls == c), default=-1)
    if last_c < 0:
        return builder.const_false(), [], 3 * len(dl.rules)
    deletion: list[int] = []
    guarded: list[int] = []
    run: list[int] = []  # other-class terms not yet in fired
    fired = guard = None
    for term, cls in dl.rules[: last_c + 1]:
        if term:
            gate = builder.add(AND, [builder.literal(f, b) for f, b in term])
        else:
            gate = builder.const_true()
        deletion.append(gate)
        if cls != c:
            run.append(gate)
            continue
        if run:
            fired = builder.add(OR, run if fired is None else [fired, *run])
            guard = builder.add(NOT, (fired,))
            deletion += [fired, guard]
            run = []
        if guard is not None:
            gate = builder.add(AND, (gate, guard))
            deletion.append(gate)
        guarded.append(gate)
    out = builder.add(OR, guarded)
    assert len(deletion) <= 3 * len(dl.rules)
    return out, deletion, 3 * len(dl.rules)


def translate(model, c: int) -> tuple[Circuit, WidthCertificate]:
    """The circuit of [model classifies as c] and its width certificate, whose
    bound is 3 * 2**(the sum of the voters' exponents, one voter per
    ballot)."""
    check_int(c, 0, 2, f"class must be 0 or 1, got {c!r}")
    ensemble = isinstance(model, Ensemble)
    ballots = model._ballots if ensemble else ((model, 1),)
    if isinstance(ballots[0][0], DecisionTree):
        into, formula = _dt_into, "dt"
    elif isinstance(ballots[0][0], (DecisionList, DecisionSet)):
        into, formula = _dl_into, "dl"
    else:
        raise ModelError(f"no circuit translation for {model!r}")
    builder = _Builder(model.universe)
    outs: list[int] = []
    deletion: list[int] = []
    exponent = 0
    for voter, votes in ballots:
        out, dele, e = into(builder, voter, c)
        outs += [out] * votes
        deletion.extend(dele)
        exponent += e
    out = outs[0]
    if ensemble:
        out = builder.add(MAJ, outs, threshold=len(outs) // 2 + 1)
        formula += "-ensemble"
    cert = WidthCertificate(frozenset(deletion), 3 * 2**exponent, formula)
    return builder.finish(out), cert


def certificate_holds(circuit: Circuit, cert: WidthCertificate) -> bool:
    """Does removing deletion set + IN gates + IN-fed NOT gates + output leave
    a forest (undirected)?"""
    removed = set(cert.deletion)
    removed.add(circuit.output)
    for i, g in enumerate(circuit.gates):
        if g.kind == IN:
            removed.add(i)
        elif g.kind == NOT and circuit.gates[g.ins[0]].kind == IN:
            removed.add(i)
    parent = {i: i for i in range(len(circuit.gates)) if i not in removed}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, g in enumerate(circuit.gates):
        if i in removed:
            continue
        for j in g.ins:
            if j in removed:
                continue
            ri, rj = find(i), find(j)
            if ri == rj:
                return False  # undirected cycle among the remaining gates
            parent[ri] = rj
    return True


def circuit_hom_check(circuit: Circuit, caps: BruteCaps = DEFAULT_CAPS) -> bool:
    """``verify.hom_check``: like every family's, its table and cap cover
    only the features the circuit reads, its IN-wired ones
    (``verify._read_table``)."""
    return hom_check(circuit, caps)
