from __future__ import annotations

import dataclasses
import gc
import inspect
import json
import math
import sys
import threading
import tracemalloc
from itertools import combinations
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

import xplain as x
from xplain import gadgets, truth
from xplain.cli import main
from xplain.core import graft_dt, is_normalized
from xplain.gadgets import global_budget_search_dt

from generators import (
    random_coloured_graph,
    random_dnf,
    random_dt,
    random_ensemble,
    random_hitting_set,
    random_model,
    random_universe,
    unary_clique_gadget,
)


def _one_set(e: x.Example) -> frozenset:
    return frozenset(f for f, b in enumerate(e.bits) if b)


def _recognizer_bounds(t: x.DecisionTree, order, rows: int, domain: int, c: int = 1) -> None:
    # exactly one class-c leaf per row, at most two leaves per row and
    # domain feature (and one more), and every path in the order
    assert sum(1 for n in t.nodes if isinstance(n, x.Leaf) and n.label == c) == rows
    assert t.leaf_count() <= 2 * max(1, rows) * max(1, domain) + 1
    assert is_normalized(t) and x.respects_order(t, order) and t.order == tuple(order)


def _subset_model_bounds(m, fam: x.SetFamily, c: int, family: str = "ds") -> None:
    a, b = fam.max_set_size, len(fam.sets)
    report = x.measure(m)
    assert report.term_size <= max(a, 0)
    assert report.terms_elem <= b + 1
    assert report.size_elem <= a * b + b + 1


def _mcc_odt_bounds(inst: x.GadgetInstance, g: x.ColouredGraph, k: int) -> None:
    t = inst.model
    copies = 1 << k
    assert t.leaf_count() <= 4 * copies * max(1, k * k) * max(1, len(g.vertices())) ** 2
    assert is_normalized(t) and x.respects_order(t, t.order)


# builder -> the bounds its every result must meet, given the result and
# the builder's arguments
_BOUNDS = {
    "odt_from_examples": lambda t, u, rows, order: _recognizer_bounds(
        t, order, len(rows), len(rows[0].domain) if rows else 0),
    "set_model_odt": lambda t, fam, c, order: _recognizer_bounds(
        t, order, len(fam.sets), len(fam.domain), c),
    "subset_model_rules": _subset_model_bounds,
    "mcc_odt_gaxp_gadget": _mcc_odt_bounds,
}


@pytest.fixture(scope="module", autouse=True)
def _builders_meet_their_bounds():
    """The builders emit their trees and rule models in final form and do
    not prove these bounds again.  Every test of this module runs with the
    builders wrapped, in ``gadgets`` and in the package, so the bounds are
    asserted on every model a test builds, the recognizers that the
    clique and hitting-set builders build included."""
    restore = []
    for name, bounds in _BOUNDS.items():
        built = getattr(gadgets, name)

        def checked(*args, _built=built, _bounds=bounds, **kwargs):
            out = _built(*args, **kwargs)
            call = inspect.signature(_built).bind(*args, **kwargs)
            call.apply_defaults()
            _bounds(out, *call.arguments.values())
            return out

        for module in (gadgets, x):
            restore.append((module, name, getattr(module, name)))
            setattr(module, name, checked)
    yield
    for module, name, original in reversed(restore):
        setattr(module, name, original)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_every_tree_builder_emits_normal_form(seed):
    # normal form is what normalize_dt keeps: no copy is made of a built tree
    rng = Random(seed)
    u = random_universe(rng, rng.randint(1, 6))
    domain = [f for f in range(len(u)) if rng.random() < 0.7]
    rows = [x.PartialExample(u, p) for p in {
        tuple((f, rng.randint(0, 1)) for f in domain) for _ in range(rng.randint(0, 4))
    }]
    order = list(range(len(u)))
    rng.shuffle(order)
    elements, sets = random_hitting_set(rng, rng.randint(1, 6), rng.randint(1, 4))
    g = random_coloured_graph(rng, rng.randint(3, 5), rng.randint(2, 3))
    trees = [
        graft_dt([(random_dt(rng, u, max_depth=5), 1) for _ in range(rng.choice((1, 3)))]),
        x.product_dt(random_ensemble(rng, u, "dt", 3)),
        x.odt_from_examples(u, rows, order),
        x.mcc_odt_gaxp_gadget(g, g.k).model,
        x.hitting_set_gadget(elements, sets, 1, "set-odt").model,
    ]
    for t in trees:
        assert is_normalized(t) and x.normalize_dt(t) is t


class TestOdtFromExamples:
    def test_no_rows_is_the_zero_leaf(self):
        u = x.universe("a", "b")
        t = x.odt_from_examples(u, [], (0, 1))
        assert t.leaf_count() == 1 and x.truth_table(t) == 0

    def test_single_all_zero_row(self):
        u = x.universe("a", "b")
        row = x.PartialExample(u, ((0, 0), (1, 0)))
        t = x.odt_from_examples(u, [row], (0, 1))
        positives = [
            m for m in range(4) if x.classify(t, x.Example.from_mask(u, m)) == 1
        ]
        assert positives == [0]
        assert sum(1 for n in t.nodes if isinstance(n, x.Leaf) and n.label) == 1

    def test_duplicates_rejected(self):
        u = x.universe("a")
        row = x.PartialExample(u, ((0, 1),))
        with pytest.raises(x.ModelError):
            x.odt_from_examples(u, [row, row], (0,))

    def test_rows_over_another_universe_are_refused(self):
        u = x.universe("a", "b")
        wide = x.PartialExample(x.universe("a", "b", "c"), ((2, 1),))
        renamed = x.PartialExample(x.universe("a", "c"), ((0, 1),))
        for row in (wide, renamed, ((0, 1),), None):
            with pytest.raises(x.ModelError):
                x.odt_from_examples(u, [row], (0, 1))

    def test_single_row_over_a_long_order(self):
        # one chain of 1500 tests: deeper than the interpreter's call stack
        u = x.FeatureUniverse(tuple(f"f{i}" for i in range(1500)))
        row = x.PartialExample(u, tuple((f, f % 2) for f in range(1500)))
        order = list(reversed(range(1500)))
        t = x.odt_from_examples(u, [row], order)
        assert t.leaf_count() == 1501
        assert x.classify(t, x.Example(u, tuple(f % 2 for f in range(1500)))) == 1
        assert x.classify(t, x.Example(u, (1,) * 1500)) == 0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_membership_semantics(self, seed):
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 8))
        domain = sorted(f for f in range(len(u)) if rng.random() < 0.7)
        patterns = {
            tuple((f, rng.randint(0, 1)) for f in domain)
            for _ in range(rng.randint(0, 4))
        }
        rows = [x.PartialExample(u, p) for p in patterns]
        order = list(range(len(u)))
        rng.shuffle(order)
        t = x.odt_from_examples(u, rows, order)
        assert x.respects_order(t, order)
        positives = sum(1 for n in t.nodes if isinstance(n, x.Leaf) and n.label)
        assert positives == len(rows)
        assert t.leaf_count() <= 2 * max(1, len(rows)) * max(1, len(domain)) + 1
        for mask in range(1 << len(u)):
            e = x.Example.from_mask(u, mask)
            expected = any(all(e[f] == b for f, b in r.assignments) for r in rows)
            assert (x.classify(t, e) == 1) == expected


class TestSetModel:
    def test_empty_family(self):
        u = x.universe("a", "b")
        fam = x.SetFamily(u, ())
        assert x.truth_table(x.set_model_odt(fam, 1, (0, 1))) == 0
        full = (1 << 4) - 1
        assert x.truth_table(x.set_model_odt(fam, 0, (0, 1))) == full

    def test_single_singleton(self):
        u = x.universe("a", "b")
        fam = x.SetFamily(u, (frozenset({0}),))
        t = x.set_model_odt(fam, 1, (0, 1))
        # positive iff feature a is one, within the domain {a}
        for mask in range(4):
            e = x.Example.from_mask(u, mask)
            assert (x.classify(t, e) == 1) == (e.bits[0] == 1)

    def test_tries_share_index_ints_and_leaves(self):
        # two recognizers over a 200-feature domain (401 nodes each), built
        # one after the other: past the interpreter's cache of small ints,
        # only the shared table gives equal indices one int object
        u = x.FeatureUniverse(tuple(f"f{i}" for i in range(200)))
        fam = x.SetFamily(u, (frozenset(),), frozenset(range(200)))
        a, b = (x.set_model_odt(fam, c, range(200)) for c in (1, 0))
        assert a.root == 400 and a.root is b.root
        for m, n in zip(a.nodes, b.nodes):
            if isinstance(m, x.Leaf):
                assert m is x.core._LEAVES[m.label] and n is x.core._LEAVES[n.label]
            else:
                assert m.lo is n.lo and m.hi is n.hi

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_definition(self, seed):
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 7))
        sets = tuple(
            frozenset(rng.sample(range(len(u)), rng.randint(1, min(3, len(u)))))
            for _ in range(rng.randint(0, 3))
        )
        fam = x.SetFamily(u, tuple(set(sets)))
        c = rng.randint(0, 1)
        t = x.set_model_odt(fam, c, tuple(range(len(u))))
        assert x.respects_order(t, tuple(range(len(u))))
        for mask in range(1 << len(u)):
            e = x.Example.from_mask(u, mask)
            member = (_one_set(e) & fam.domain) in fam.sets
            assert (x.classify(t, e) == c) == member
        # builder contracts
        a, b = fam.max_set_size, len(fam.sets)
        assert x.measure(t).mnl_size <= b
        assert x.measure(t).model_size <= 2 * a * b * b + 1


def _graft_of_the_chains(u: x.FeatureUniverse, rows, order, c: int) -> x.DecisionTree:
    """A recognizer as it was first built: no row is the reject leaf; else
    one chain per row, from its accepting leaf up in the rows' induced
    order, one vote each, grafted with a constant-1 ballot of
    ``len(rows) - 1`` votes, so any one accepting chain decides the vote;
    the grafted leaves flipped for class 0."""
    if not rows:
        return x.DecisionTree(u, (x.Leaf(1 - c),), 0, tuple(order))
    ballots = [(x.DecisionTree(u, (x.Leaf(1),)), len(rows) - 1)]
    for row in rows:
        bit = row.as_dict()
        nodes: list = [x.Leaf(1)]
        for f in reversed([f for f in order if f in bit]):
            accept, reject = len(nodes) - 1, len(nodes)
            nodes += (x.Leaf(0), x.Split(f, reject, accept) if bit[f] else x.Split(f, accept, reject))
        ballots.append((x.DecisionTree(u, tuple(nodes), len(nodes) - 1), 1))
    t = graft_dt(ballots, order=tuple(order))
    if c:
        return t
    flipped = tuple(x.Leaf(1 - n.label) if isinstance(n, x.Leaf) else n for n in t.nodes)
    return x.DecisionTree(u, flipped, t.root, t.order)


@given(seed=st.integers(0, 100_000), count=st.integers(0, 5))
@settings(max_examples=200, deadline=None)
@example(seed=0, count=0)
@example(seed=1, count=1)
@example(seed=2, count=5)
def test_recognizer_is_the_graft_of_its_chains(seed, count):
    # a recognizer is the trie of its rows: the arena graft_dt gives its
    # chains and constant ballot, leaves flipped for class 0, for
    # set_model_odt of either class and for odt_from_examples
    rng = Random(seed)
    u = random_universe(rng, rng.randint(1, 8))
    domain = frozenset(f for f in range(len(u)) if rng.random() < 0.6)
    sets = tuple(dict.fromkeys(
        frozenset(f for f in domain if rng.random() < 0.5) for _ in range(count)))
    order = list(range(len(u)))
    rng.shuffle(order)
    rows = [x.PartialExample(u, tuple((f, int(f in s)) for f in sorted(domain))) for s in sets]
    built = [(x.set_model_odt(x.SetFamily(u, sets, domain), c, order),
              _graft_of_the_chains(u, rows, order, c)) for c in (0, 1)]
    built.append((x.odt_from_examples(u, rows, order), built[1][1]))
    for t, want in built:
        assert (t.nodes, t.root, t.order) == (want.nodes, want.root, want.order)
        assert is_normalized(t) and x.respects_order(t, order)


class TestSubsetModel:
    def test_empty_family_is_constant(self):
        u = x.universe("a")
        for c in (0, 1):
            m = x.subset_model_rules(x.SetFamily(u, ()), c, "ds")
            assert x.truth_table(m) == (0 if c == 1 else 0b11)

    def test_single_pair_term(self):
        u = x.universe("x", "y")
        m = x.subset_model_rules(x.SetFamily(u, (frozenset({0, 1}),)), 1, "ds")
        assert m.terms == (((0, 1), (1, 1)),)
        assert m.default == 0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_definition(self, seed):
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 7))
        sets = tuple(
            frozenset(rng.sample(range(len(u)), rng.randint(1, min(3, len(u)))))
            for _ in range(rng.randint(0, 3))
        )
        fam = x.SetFamily(u, tuple(set(sets)))
        c = rng.randint(0, 1)
        family = rng.choice(["ds", "dl"])
        m = x.subset_model_rules(fam, c, family)
        for mask in range(1 << len(u)):
            e = x.Example.from_mask(u, mask)
            member = any(s <= _one_set(e) for s in fam.sets)
            assert (x.classify(m, e) == c) == member


class TestHittingSet:
    def test_single_singleton_set(self):
        inst = x.hitting_set_gadget(["u"], [frozenset(["u"])], 1, "set-odt")
        assert inst.truth
        found = x.oracle_min(inst.model, "laxp", _zero_example(inst.model))
        assert found[0] == 1

    def test_two_disjoint_singletons_need_two(self):
        inst = x.hitting_set_gadget(
            ["u", "v"], [frozenset(["u"]), frozenset(["v"])], 1, "subset-ds"
        )
        assert not inst.truth
        for q in inst.queries:
            assert x.answer_query(inst.model, q) is False

    def test_empty_member_set_rejected(self):
        with pytest.raises(x.ModelError):
            x.hitting_set_gadget(["u"], [frozenset()], 1, "set-odt")

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_instances(self, seed):
        rng = Random(seed)
        elements, sets = random_hitting_set(rng, rng.randint(1, 8), rng.randint(1, 4))
        k = rng.randint(0, 3)
        mode = rng.choice(["set-odt", "subset-ds", "subset-dl"])
        inst = x.hitting_set_gadget(elements, sets, k, mode)
        for q in inst.queries:
            assert x.answer_query(inst.model, q) == inst.truth
        # the abductive optimum is the hitting set optimum, exactly
        best = x.oracle_min(inst.model, "laxp", _zero_example(inst.model))
        assert best[0] == truth.min_hitting_set_size(sets)


def _zero_example(model) -> x.Example:
    return x.Example(model.universe, (0,) * len(model.universe))


class TestMccEnsembles:
    def test_one_vertex_per_class_complete(self):
        g = x.ColouredGraph((("a",), ("b",), ("c",)), (("a", "b"), ("a", "c"), ("b", "c")))
        for mode in ("set", "subset"):
            inst = x.mcc_ensemble_gadget(g, 3, mode)
            assert inst.truth
            assert len(inst.model.elements) % 2 == 1
            for q in inst.queries:
                assert x.answer_query(inst.model, q) is True

    def test_edgeless_two_classes(self):
        g = x.ColouredGraph((("a",), ("b",)), ())
        for mode in ("set", "subset"):
            inst = x.mcc_ensemble_gadget(g, 2, mode)
            assert not inst.truth
            for q in inst.queries:
                assert x.answer_query(inst.model, q) is False

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_graphs(self, seed):
        rng = Random(seed)
        k = rng.randint(2, 3)
        n = rng.randint(k, 7)
        g = random_coloured_graph(rng, n, k)
        for mode in ("set", "subset"):
            inst = x.mcc_ensemble_gadget(g, k, mode)
            assert len(inst.model.elements) % 2 == 1
            for element in inst.model.elements:
                if isinstance(element, x.DecisionTree):
                    assert x.respects_order(element, range(len(element.universe)))
            for q in inst.queries:
                assert x.answer_query(inst.model, q) == inst.truth


class TestMccUnary:
    def test_padder_formula_and_margin(self):
        g = x.ColouredGraph((("a", "b"), ("c",)), (("a", "c"),))
        inst = x.mcc_unary_ensemble_gadget(g, 2, "subset")
        n, m = 3, 1
        non_edges = n * (n - 1) // 2 - m
        assert inst.meta["padders"] == n * non_edges - n + 2 * 2 - 1
        assert inst.meta["ens_size"] == 2 * n * non_edges + 2 * 2 - 1
        assert inst.truth
        # the clique example wins by exactly one ballot
        u = inst.model.universe
        clique = x.Example(
            u, tuple(1 if name in ("v.0.0", "v.1.0") else 0 for name in u.names)
        )
        votes = sum(x.classify(el, clique) for el in inst.model.elements)
        threshold = len(inst.model.elements) // 2 + 1
        assert votes == threshold
        assert x.classify(inst.model, clique) == 1

    def test_element_parameters_stay_constant(self):
        rng = Random(71)
        g = random_coloured_graph(rng, 6, 3)
        for mode in ("set", "subset"):
            inst = x.mcc_unary_ensemble_gadget(g, 3, mode)
            report = x.measure(inst.model)
            if mode == "set":
                assert report.mnl_size <= 1
            else:
                assert report.term_size <= 2
                assert report.terms_elem <= 1
            for q in inst.queries:
                assert x.answer_query(inst.model, q) == inst.truth

    def test_copies_share_one_ballot(self, monkeypatch, tmp_path):
        """Each rejector's n copies and all the padders are one object: one
        ballot each.  Built from distinct copies instead, the ballots, the
        instance and the ``gen-gadget`` file are the same."""
        classes = (("a", "b"), ("c", "d"))
        edges = (("a", "c"), ("b", "d"))
        g = x.ColouredGraph(classes, edges)
        non_edges = [
            (p, q) for p, q in combinations(g.vertices(), 2)
            if (min(p, q), max(p, q)) not in g.edges
        ]
        n = len(g.vertices())
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"classes": classes, "edges": edges}))

        def generate(out):
            inst = x.mcc_unary_ensemble_gadget(g, 2, "set")
            argv = ["--quiet", "gen-gadget", "--kind", "mcc-unary", "--mode", "set",
                    "--in", str(graph), "--out", str(out)]
            assert main(argv) == 0
            return inst, out.read_bytes()

        shared, shared_file = generate(tmp_path / "shared.json")
        ens = shared.model
        assert shared.meta["padders"] > 0
        assert len(ens._ballots) == len(non_edges) + n + 1
        assert sum(votes for _, votes in ens._ballots) == len(ens.elements)

        monkeypatch.setattr(
            gadgets, "Ensemble",
            lambda u, elements: x.Ensemble(
                u, tuple(dataclasses.replace(m) for m in elements)
            ),
        )
        distinct, distinct_file = generate(tmp_path / "distinct.json")
        assert distinct.model._ballots == ens._ballots
        assert distinct.meta["ens_size"] == shared.meta["ens_size"]
        assert distinct_file == shared_file

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_random_graphs(self, seed):
        rng = Random(seed)
        k = rng.randint(1, 3)
        n = rng.randint(max(k, 1), 6)
        g = random_coloured_graph(rng, n, k)
        mode = rng.choice(["set", "subset"])
        inst = x.mcc_unary_ensemble_gadget(g, k, mode)
        assert len(inst.model.elements) % 2 == 1
        for q in inst.queries:
            assert x.answer_query(inst.model, q) == inst.truth


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_budget_search_agrees_with_oracle(seed):
    from generators import random_dt

    rng = Random(seed)
    u = random_universe(rng, rng.randint(1, 7))
    t = random_dt(rng, u)
    c = rng.randint(0, 1)
    k = rng.randint(0, len(u))
    for kind in ("gaxp", "gcxp"):
        got = global_budget_search_dt(t, kind, c, k)
        expected = x.oracle_min(t, kind, c)
        assert (got is not None) == (expected is not None and expected[0] <= k)
        if got is not None:
            assert x.verify(t, kind, c, got)


def _four_colours() -> x.ColouredGraph:
    """Four colours of three vertices, adjacent across colours where their
    indices differ by at most one: an ordered-tree gadget of 3391 nodes."""
    classes = tuple(tuple(f"{c}{i}" for i in range(3)) for c in "abcd")
    edges = tuple((f"{a}{i}", f"{b}{j}") for a, b in combinations("abcd", 2)
                  for i in range(3) for j in range(3) if abs(i - j) <= 1)
    return x.ColouredGraph(classes, edges)


class TestMccOdt:
    def test_arena_stays_under_seventy_bytes_a_node(self):
        # a split and its arena slot: the leaves, child indices and aux
        # names are shared across arenas, so a node holds 43-57 B live on
        # 3.10-3.13, against 87-89 B with an int of its own per index and
        # 108-138 B with an instance dict
        g = _four_colours()
        x.mcc_odt_gaxp_gadget(g, 4)  # anything built once per process is built
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            inst = x.mcc_odt_gaxp_gadget(g, 4)
            live = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(inst.model.nodes) == 3391
        assert live < 70 * len(inst.model.nodes)

    def test_arenas_share_index_ints_names_and_leaves(self):
        # two gadgets of equal k, built one after the other: each equal
        # child index is one int object (most are past the interpreter's
        # cache of small ints), each aux name one str, each leaf a shared one
        g = _four_colours()
        a, b = (x.mcc_odt_gaxp_gadget(g, 4).model for _ in range(2))
        assert a.root == 3390 and a.root is b.root
        for m, n in zip(a.nodes, b.nodes):
            if isinstance(m, x.Leaf):
                assert m is n is x.core._LEAVES[m.label]
            else:
                assert m.lo is n.lo and m.hi is n.hi
        aux = [(p, q) for p, q in zip(a.universe.names, b.universe.names) if p.startswith("aux.")]
        assert len(aux) == 255 and all(p is q for p, q in aux)

    def test_shared_caches_stay_bounded(self, monkeypatch):
        """The index table grows on demand, never past twice the largest
        index asked for, and the name memo holds one entry per k that a
        gadget was built for."""
        monkeypatch.setattr(gadgets, "_INDEX", [])
        monkeypatch.setattr(gadgets, "_SCAFFOLD_NAMES", {})
        largest = 0
        for n in (1, 5, 6, 11, 3, 40, 41):
            largest = max(largest, n - 1)
            table = gadgets._indices(n)
            assert table is gadgets._INDEX and table == list(range(len(table)))
            assert n <= len(table) <= max(1, 2 * largest)
        monkeypatch.setattr(gadgets, "_INDEX", [])
        largest = 0
        for k, n in ((2, 3), (3, 5), (2, 4), (4, 4), (3, 3)):
            g = random_coloured_graph(Random(n), n, k)
            nodes = len(x.mcc_odt_gaxp_gadget(g, k).model.nodes)
            largest = max(largest, nodes - 1)
            assert nodes <= len(gadgets._INDEX) <= 2 * largest
        assert sorted(gadgets._SCAFFOLD_NAMES) == [2, 3, 4]
        big = gadgets.MCC_ODT_MAX_K + 1
        with pytest.raises(x.ModelError):
            x.mcc_odt_gaxp_gadget(x.ColouredGraph(tuple((f"v{i}",) for i in range(big)), ()), big)
        assert sorted(gadgets._SCAFFOLD_NAMES) == [2, 3, 4]

    def test_index_table_grows_once_per_value_across_threads(self, monkeypatch):
        # threads that grow the table at once, switching as often as the
        # interpreter lets them, still leave _INDEX[i] == i
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(200):
                monkeypatch.setattr(gadgets, "_INDEX", [])
                threads = [threading.Thread(target=lambda: [gadgets._indices(n)
                                                            for n in range(1, 3000, 7)])
                           for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert gadgets._INDEX == list(range(len(gadgets._INDEX)))
        finally:
            sys.setswitchinterval(interval)

    def test_single_edge_pair(self):
        g = x.ColouredGraph((("a", "b"), ("c",)), (("a", "c"),))
        inst = x.mcc_odt_gaxp_gadget(g, 2)
        assert inst.truth
        # the smallest class-0 global abductive explanation has size 2
        two = global_budget_search_dt(inst.model, "gaxp", 0, 2)
        assert two is not None and len(two.assignments) == 2
        assert x.verify(inst.model, "gaxp", 0, two)
        assert global_budget_search_dt(inst.model, "gaxp", 0, 1) is None
        assert x.respects_order(inst.model, range(len(inst.model.universe)))

    def test_no_edges_means_no_small_explanation(self):
        g = x.ColouredGraph((("a",), ("b",)), ())
        inst = x.mcc_odt_gaxp_gadget(g, 2)
        assert not inst.truth
        assert x.answer_query(inst.model, inst.queries[0]) is False

    def test_auxiliary_feature_count(self):
        g = x.ColouredGraph((("a",), ("b",), ("c",)), (("a", "b"),))
        inst = x.mcc_odt_gaxp_gadget(g, 3)
        # complete upper scaffold of depth 3 plus 8 lower copies deep enough
        # for the 6 ordered colour pairs
        assert inst.meta["aux_features"] == (2**3 - 1) + 2**3 * (2**3 - 1)

    def test_k_ceiling(self):
        k = gadgets.MCC_ODT_MAX_K + 1
        g = x.ColouredGraph(tuple((f"v{i}",) for i in range(k)), ())
        with pytest.raises(x.ModelError, match=f"k={k} exceeds the auxiliary-feature ceiling"):
            x.mcc_odt_gaxp_gadget(g, k)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_random_small_graphs(self, seed):
        rng = Random(seed)
        n = rng.randint(2, 6)
        g = random_coloured_graph(rng, n, 2)
        inst = x.mcc_odt_gaxp_gadget(g, 2)
        assert x.answer_query(inst.model, inst.queries[0]) == inst.truth

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_tree_matches_the_block_semantics(self, seed):
        rng = Random(seed)
        k = rng.randint(2, 3)
        g = random_coloured_graph(rng, rng.randint(k, 7), k)
        inst = x.mcc_odt_gaxp_gadget(g, k)
        u = inst.model.universe
        assert x.respects_order(inst.model, inst.model.order)
        for _ in range(40):
            p = rng.choice((0.1, 0.3, 0.5))  # sparse vertex bits reach the one-set-vertex branch
            bits = tuple(
                rng.randint(0, 1) if name.startswith("aux.") else int(rng.random() < p)
                for name in u.names
            )
            e = x.Example(u, bits)
            assert x.classify(inst.model, e) == _odt_gadget_reference(g, e)


def _odt_gadget_reference(g: x.ColouredGraph, e: x.Example) -> int:
    """The class ``mcc_odt_gaxp_gadget``'s docstring gives e, reading its
    bits by feature name: the upper auxiliary bits pick the copy, the copy's
    lower bits pick block b, and block b decides."""
    def bit(name: str) -> int:
        return e.bits[e.universe.index(name)]

    k = g.k
    pairs = list(combinations(range(k), 2))
    block_count = len(pairs) + k
    copy = 0
    for level in range(k):
        copy = 2 * copy + bit(f"aux.u.{level}.{copy}")
    b = 0
    for level in range(math.ceil(math.log2(block_count))):
        b = 2 * b + bit(f"aux.d.{copy}.{level}.{b}")
    if b >= block_count:
        return 0

    def set_vertices(ci: int) -> list[str]:
        return [v for vi, v in enumerate(g.classes[ci]) if bit(f"v.{ci}.{vi}")]

    if b >= len(pairs):  # colour block: accept iff the colour is all 0
        return int(not set_vertices(b - len(pairs)))
    i, j = pairs[b]
    on = set_vertices(i)
    if len(on) != 1:  # all 0 accepts, two or more set reject
        return int(not on)
    (v,) = on
    neighbours = {w for edge in g.edges if v in edge for w in edge} - {v}
    return int(not neighbours & set(set_vertices(j)))


def _complete_graph(colours) -> x.ColouredGraph:
    """One vertex per colour, every two adjacent, max(colours, 1) colours."""
    names = [f"v{i}" for i in range(int(max(colours, 1)))]
    return x.ColouredGraph(tuple((v,) for v in names), tuple(combinations(names, 2)))


# the graph of a clique builder has max(k, 1) colours: where k equals a
# count (True, 2.0), the colour check passes and only the budget rule can
# refuse k
_BUDGET_BUILDERS = {
    "hitting-set": lambda k: x.hitting_set_gadget(["a"], [["a"]], k, "subset-ds"),
    "mcc-ensemble": lambda k: x.mcc_ensemble_gadget(_complete_graph(k), k, "subset"),
    "mcc-unary-ensemble": lambda k: x.mcc_unary_ensemble_gadget(_complete_graph(k), k, "subset"),
    "mcc-odt-gaxp": lambda k: x.mcc_odt_gaxp_gadget(_complete_graph(k), k),
}


@pytest.mark.parametrize("k", [True, 2.0, -1], ids=["bool", "float", "negative"])
@pytest.mark.parametrize("builder", sorted(_BUDGET_BUILDERS))
def test_gadget_builders_refuse_the_budgets_a_request_refuses(builder, k):
    with pytest.raises(x.ModelError, match="^k must be (an int|nonnegative)"):
        _BUDGET_BUILDERS[builder](k)


_CLIQUE_ENSEMBLES = (x.mcc_ensemble_gadget, x.mcc_unary_ensemble_gadget)


@pytest.mark.parametrize("family", ["ds", "dl"])
@pytest.mark.parametrize("mode", ["set", "subset"])
@pytest.mark.parametrize("build", _CLIQUE_ENSEMBLES, ids=lambda b: b.__name__)
def test_clique_ensemble_set_up_evaluates_no_ensemble(monkeypatch, build, mode, family):
    """The all-zero vote check reads each distinct element once, never the
    ensemble's own vote."""

    def refuse(self, e):
        raise RuntimeError("the ensemble was evaluated")

    monkeypatch.setattr(x.Ensemble, "evaluate", refuse)
    rng = Random(43)
    for _ in range(5):
        k = rng.randint(2, 3)
        g = random_coloured_graph(rng, rng.randint(k, 6), k, edge_p=rng.random())
        assert isinstance(build(g, k, mode, family).model, x.Ensemble)


def test_clique_vote_check_counts_the_padders(monkeypatch):
    """Padders that vote 1 on the all-zero example break the count the
    construction gives, even where the vote still rejects that example
    (two padders of five elements in set mode)."""
    constant = gadgets._constant_model
    monkeypatch.setattr(gadgets, "_constant_model",
                        lambda u, bit, family, order: constant(u, 1, family, order))
    g = _complete_graph(3)
    for build in _CLIQUE_ENSEMBLES:
        for mode in ("set", "subset"):
            with pytest.raises(AssertionError):
                build(g, 3, mode)


class TestTaut:
    def test_excluded_middle_is_a_tautology(self):
        inst = x.taut_ds_gadget([[("x", 1)], [("x", 0)]], ["x"])
        assert not inst.truth
        assert x.answer_query(inst.model, inst.queries[0]) is False

    def test_zero_unsatisfied_is_marked_trivial(self):
        inst = x.taut_ds_gadget([[("x", 1), ("y", 1), ("z", 1)]], ["x", "y", "z"])
        assert inst.meta["trivial_no"]
        assert inst.queries == ()
        assert inst.truth

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_formulas(self, seed):
        rng = Random(seed)
        terms, variables = random_dnf(rng, rng.randint(1, 8), rng.randint(1, 4))
        inst = x.taut_ds_gadget(terms, variables)
        assert inst.truth == (not truth.is_tautology_dnf(terms, variables))
        for q in inst.queries:
            assert x.answer_query(inst.model, q) == inst.truth


class TestHomSuite:
    def test_constant_model(self):
        u = x.universe("a", "b")
        report = x.hom_equivalence_suite(x.leaf_tree(u, 1))
        assert report.all_equal and report.statements[0] is True
        assert report.khom_equal

    def test_identity_model(self):
        u = x.universe("a", "b")
        t = x.DecisionTree(u, (x.Split(0, 1, 2), x.Leaf(0), x.Leaf(1)))
        report = x.hom_equivalence_suite(t)
        assert report.all_equal and report.statements[0] is False
        assert report.khom_equal

    @pytest.mark.parametrize("mode", ["set", "subset"])
    def test_unary_clique_gadget(self, mode):
        # statements 6 and 9 read the circuit wired per ballot, statement 8
        # grafts every element with one vote
        _, ens = unary_clique_gadget(mode)
        report = x.hom_equivalence_suite(ens)
        assert report.all_equal and report.statements[0] is False
        assert report.khom_equal

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_models(self, seed):
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 6))
        model = random_model(rng, u, rng.choice(["dt", "ds", "dl"]))
        report = x.hom_equivalence_suite(model)
        assert report.all_equal
        assert report.khom_equal
