from __future__ import annotations

import functools
import gc
import time
import tracemalloc
import weakref
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import xplain as x
from xplain.config import CapExceeded
from xplain.core import _leaf_paths, graft_dt, is_normalized
from xplain.explain_dt import (
    _column_cache,
    _listed_options,
    _literal_columns,
    _literal_options,
    _min_literal_hitting_set,
    _row_options,
)
from xplain.modelio import load_model
from xplain.truth import has_clique
from xplain.verify import shrink

from generators import (
    in_normal_form,
    leaf_assignments,
    permuted_arena,
    random_circuit,
    random_coloured_graph,
    random_dt,
    random_ensemble,
    random_example,
    random_model,
    random_universe,
    wide_set_doc,
)


def _single_test_tree(u, feature=0):
    return x.DecisionTree(u, (x.Split(feature, 1, 2), x.Leaf(0), x.Leaf(1)))


class TestLaxpSubsetMin:
    def test_constant_tree_needs_nothing(self):
        u = x.universe("a", "b")
        assert x.laxp_subset_min(x.leaf_tree(u, 1), x.Example(u, (0, 1))) == frozenset()

    def test_single_relevant_feature(self):
        u = x.universe("a", "b")
        t = _single_test_tree(u)
        assert x.laxp_subset_min(t, x.Example(u, (1, 0))) == frozenset({0})

    def test_fig_list_as_tree(self, fig_dl, fig_example):
        # hand-built tree equivalent to the figure's list
        u = fig_dl.universe
        t = _tree_from_table(u, x.truth_table(fig_dl))
        assert x.truth_table(t) == x.truth_table(fig_dl)
        found = x.laxp_subset_min(t, fig_example)
        assert x.oracle_subset_min_check(t, "laxp", fig_example, found)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_random_trees_minimal(self, seed):
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 7))
        t = random_dt(rng, u)
        e = random_example(rng, u)
        found = x.laxp_subset_min(t, e)
        assert x.oracle_subset_min_check(t, "laxp", e, found)


def _tree_from_table(u, table):
    nodes = []

    def build(feature, mask):
        if feature == len(u):
            nodes.append(x.Leaf((table >> mask) & 1))
            return len(nodes) - 1
        lo = build(feature + 1, mask)
        hi = build(feature + 1, mask | (1 << feature))
        nodes.append(x.Split(feature, lo, hi))
        return len(nodes) - 1

    root = build(0, 0)
    return x.DecisionTree(u, tuple(nodes), root)


class TestGlobalSubsetMin:
    @pytest.mark.parametrize("c", [0, 1])
    def test_constant_trees(self, c):
        u = x.universe("a", "b")
        same, other = x.leaf_tree(u, c), x.leaf_tree(u, 1 - c)
        assert x.gaxp_subset_min(same, c) == x.PartialExample(u, ())
        assert x.gaxp_subset_min(other, c) is None
        assert x.gcxp_subset_min(other, c) == x.PartialExample(u, ())
        assert x.gcxp_subset_min(same, c) is None

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_random_trees_minimal(self, seed):
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 7))
        t = random_dt(rng, u)
        c = rng.randint(0, 1)
        reachable = {
            n.label for n in x.normalize_dt(t).nodes if isinstance(n, x.Leaf)
        }
        for kind, algo in (("gaxp", x.gaxp_subset_min), ("gcxp", x.gcxp_subset_min)):
            tau = algo(t, c)
            if tau is None:
                # no seed leaf: only contradictory paths carried that class
                assert (c if kind == "gaxp" else 1 - c) not in reachable
            else:
                assert x.oracle_subset_min_check(t, kind, c, tau)


class TestLcxpMin:
    def test_constant_tree(self):
        u = x.universe("a")
        assert x.lcxp_min(x.leaf_tree(u, 0), x.Example(u, (0,))) is None

    def test_single_test_tree(self):
        u = x.universe("a", "b")
        t = _single_test_tree(u)
        for mask in range(4):
            assert x.lcxp_min(t, x.Example.from_mask(u, mask)) == frozenset({0})

    @given(seed=st.integers(0, 10_000), product=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_witness_is_the_oracles(self, seed, product):
        """On a raw tree and on a tree ensemble's product, the witness is
        the oracle's: smallest, then the least sorted feature tuple."""
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 8))
        if product:
            t = x.product_dt(random_ensemble(rng, u, "dt", rng.choice([1, 3, 5])))
        else:
            t = random_dt(rng, u)
        e = random_example(rng, u)
        expected = x.oracle_min(t, "lcxp", e)
        assert x.lcxp_min(t, e) == (None if expected is None else expected[1])

    def test_witness_is_the_oracles_at_twelve_features(self):
        rng = Random(1212)
        u = random_universe(rng, 12)
        for _ in range(10):
            t = random_dt(rng, u, max_depth=5)
            e = random_example(rng, u)
            expected = x.oracle_min(t, "lcxp", e)
            assert x.lcxp_min(t, e) == (None if expected is None else expected[1])


class TestCardSearch:
    def test_budget_zero_on_mixed_tree(self):
        u = x.universe("a", "b")
        t = _single_test_tree(u)
        assert x.card_xp_search(t, "laxp", x.Example(u, (0, 0)), 0) is None

    def test_full_budget_always_finds_an_abductive_witness(self):
        rng = Random(13)
        for _ in range(20):
            u = random_universe(rng, rng.randint(1, 6))
            t = random_dt(rng, u)
            e = random_example(rng, u)
            assert x.card_xp_search(t, "laxp", e, len(u)) is not None

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_first_witness_size_is_minimum(self, seed):
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 6))
        t = random_dt(rng, u)
        e = random_example(rng, u)
        c = rng.randint(0, 1)
        for kind, target in (("laxp", e), ("gaxp", c), ("gcxp", c)):
            witness = x.card_xp_search(t, kind, target, len(u))
            expected = x.oracle_min(t, kind, target)
            if expected is None:
                assert witness is None
            else:
                size = len(witness) if isinstance(witness, frozenset) else len(
                    witness.assignments
                )
                assert size == expected[0]
                if expected[0] > 0:
                    assert x.card_xp_search(t, kind, target, expected[0] - 1) is None

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 6),
        depth=st.integers(1, 7),
        k=st.integers(0, 7),
    )
    @settings(max_examples=150, deadline=None)
    def test_witness_equals_oracle_within_budget(self, seed, n, depth, k):
        # depth may exceed n, so paths often repeat a feature
        rng = Random(seed)
        u = random_universe(rng, n)
        t = random_dt(rng, u, max_depth=depth)
        e = random_example(rng, u)
        c = rng.randint(0, 1)
        for kind, target in (("laxp", e), ("gaxp", c), ("gcxp", c)):
            expected = x.oracle_min(t, kind, target)
            within = expected is not None and expected[0] <= k
            assert x.card_xp_search(t, kind, target, k) == (
                expected[1] if within else None
            )

    def test_ties_break_towards_the_first_subset(self):
        # a ? (c ? 1 : 0) : (b ? 0 : 1); class-0 gaxp solutions of size 2:
        # {a=0, b=1}, {a=1, c=0} and {b=1, c=0}
        u = x.universe("a", "b", "c")
        t = x.DecisionTree(u, (
            x.Split(0, 1, 4),
            x.Split(1, 2, 3), x.Leaf(1), x.Leaf(0),
            x.Split(2, 5, 6), x.Leaf(0), x.Leaf(1),
        ))
        assert x.card_xp_search(t, "gaxp", 0, 1) is None
        found = x.card_xp_search(t, "gaxp", 0, 2)
        assert found == x.PartialExample(u, ((0, 0), (1, 1)))
        assert found == x.oracle_min(t, "gaxp", 0)[1]

    def test_ties_on_one_subset_break_by_binary_counter(self):
        # a xor b: both class-1 solutions assign {a, b}; the counter with a
        # as its lowest bit puts a=1, b=0 (1) before a=0, b=1 (2)
        u = x.universe("a", "b")
        t = x.DecisionTree(u, (
            x.Split(0, 1, 4),
            x.Split(1, 2, 3), x.Leaf(0), x.Leaf(1),
            x.Split(1, 5, 6), x.Leaf(1), x.Leaf(0),
        ))
        found = x.card_xp_search(t, "gaxp", 1, 2)
        assert found == x.PartialExample(u, ((0, 1), (1, 0)))
        assert found == x.oracle_min(t, "gaxp", 1)[1]
        assert x.card_xp_search(t, "gaxp", 0, 2) == x.PartialExample(u, ((0, 0), (1, 0)))


def _model_of_family(rng, u, family):
    """A random model of one of the five families.  Half the circuits are
    random gate DAGs, which may leave features unread; an empty universe
    gets trees only."""
    if not len(u):
        return random_ensemble(rng, u, "dt") if family == "ens" else random_dt(rng, u)
    if family == "ens":
        return random_ensemble(rng, u, rng.choice(["dt", "ds", "dl"]))
    if family == "circuit":
        if rng.random() < 0.5:
            return random_circuit(rng, u)
        source = random_model(rng, u, rng.choice(["dt", "ds", "dl"]))
        return x.translate(source, rng.randint(0, 1))[0]
    return random_model(rng, u, family)


def _parity_circuit(u):
    """x0 xor x1 xor ... as AND(OR(p, x), NOT(AND(p, x))) per feature."""
    gates = [x.Gate("IN", feature=f) for f in range(len(u))]
    p = 0
    for f in range(1, len(u)):
        gates += [x.Gate("OR", (p, f)), x.Gate("AND", (p, f))]
        gates.append(x.Gate("NOT", (len(gates) - 1,)))
        gates.append(x.Gate("AND", (len(gates) - 3, len(gates) - 1)))
        p = len(gates) - 1
    return x.Circuit(u, tuple(gates), p)


class TestCardSearchAllFamilies:
    @given(
        seed=st.integers(0, 100_000),
        family=st.sampled_from(["dt", "ds", "dl", "ens", "circuit"]),
        n=st.integers(0, 9),
        kind=st.sampled_from(["laxp", "gaxp", "gcxp"]),
        k=st.integers(0, 10),
    )
    @settings(max_examples=300, deadline=None)
    def test_witness_equals_oracle_within_budget(self, seed, family, n, kind, k):
        rng = Random(seed)
        u = random_universe(rng, n)
        model = _model_of_family(rng, u, family)
        target = random_example(rng, u) if kind == "laxp" else rng.randint(0, 1)
        expected = x.oracle_min(model, kind, target)
        within = expected is not None and expected[0] <= k
        assert x.card_xp_search(model, kind, target, k) == (expected[1] if within else None)

    def test_parity_is_refused_by_the_round_bound(self):
        """gaxp on parity needs every feature, and 2**(n-1) + 1 rounds to
        learn it; under an oracle cap of 4 the search stops past 16 rows."""
        u = random_universe(Random(0), 10)
        small = x.BruteCaps(oracle_local=4, oracle_global=4)
        started = time.perf_counter()
        with pytest.raises(CapExceeded, match="rows exceed 2\\*\\*4"):
            x.card_xp_search(_parity_circuit(u), "gaxp", 1, 10, small)
        assert time.perf_counter() - started < 1.0  # 17 rounds, not 513

    def test_parity_subset_is_answered_above_the_oracle_cap(self):
        """The seeded shrink takes one table, not one round per row: the
        least example of class 1 is the parity's whole implicant."""
        u = random_universe(Random(0), 10)
        small = x.BruteCaps(oracle_local=4, oracle_global=4)
        found = x.gaxp_subset_min(_parity_circuit(u), 1, small)
        assert found == x.PartialExample(u, ((0, 1), *((f, 0) for f in range(1, 10))))

    def test_global_search_memory_at_the_free_feature_cap(self):
        """Each round shrinks inside its one table of 2**24 bits, with one
        column live next to it."""
        model = load_model(wide_set_doc(24, 8, seed=5))
        tracemalloc.start()
        try:
            found = x.card_xp_search(model, "gaxp", 1, 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.verify(model, "gaxp", 1, found)
        assert peak <= 64 * 2**20

    def test_parity_is_answered_within_the_oracle_cap(self):
        u = random_universe(Random(0), 5)
        parity = _parity_circuit(u)
        found = x.card_xp_search(parity, "gaxp", 1, 5)
        assert found == x.oracle_min(parity, "gaxp", 1)[1]
        assert len(found.assignments) == 5


def _least_seed_shrink_reference(model, kind, c):
    """``verify.shrink`` of the seed that ``gaxp_subset_min`` documents: on
    trees and tree ensembles the path of the first leaf of the wanted class
    (through the product), on any other model its least example of that
    class, read off ``classify`` mask by mask."""
    u = model.universe
    n = len(u)
    want = c if kind == "gaxp" else 1 - c
    if isinstance(model, x.DecisionTree) or (
        isinstance(model, x.Ensemble) and model.family == "dt"
    ):
        t = x.normalize_dt(model if isinstance(model, x.DecisionTree) else x.product_dt(model))
        seeds = (tuple(assigned.items()) for i, assigned in leaf_assignments(t)
                 if t.nodes[i].label == want)
    else:
        examples = (x.Example(u, tuple(m >> f & 1 for f in range(n))) for m in range(1 << n))
        seeds = (tuple(enumerate(e.bits)) for e in examples if x.classify(model, e) == want)
    seed = next(seeds, None)
    return None if seed is None else shrink(model, kind, c, x.PartialExample(u, seed))


class TestGlobalSubsetAllFamilies:
    @given(
        seed=st.integers(0, 100_000),
        family=st.sampled_from(["dt", "ds", "dl", "ens", "circuit"]),
        n=st.integers(0, 9),
    )
    @settings(max_examples=300, deadline=None)
    def test_witness_is_the_shrink_of_the_least_seed(self, seed, family, n):
        rng = Random(seed)
        u = random_universe(rng, n)
        model = _model_of_family(rng, u, family)
        for kind, algo in (("gaxp", x.gaxp_subset_min), ("gcxp", x.gcxp_subset_min)):
            for c in (0, 1):
                found = algo(model, c)
                assert found == _least_seed_shrink_reference(model, kind, c)
                assert (found is None) == (x.oracle_min(model, kind, c) is None)
                if found is not None:
                    assert x.oracle_subset_min_check(model, kind, c, found)


def _skewed_dt(rng, u, depth):
    """Random tree whose subtrees below a split turn pure (every leaf one
    class) with some chance, so both classes keep many leaves while small
    explanations still exist."""
    nodes = []

    def build(d, label):
        if d >= depth or (d > 3 and rng.random() < 0.1):
            nodes.append(x.Leaf(rng.randint(0, 1) if label is None else label))
            return len(nodes) - 1
        if label is None and d > 1 and rng.random() < 0.2:
            label = rng.randint(0, 1)
        f = rng.randrange(len(u))
        lo = build(d + 1, label)
        hi = build(d + 1, label)
        nodes.append(x.Split(f, lo, hi))
        return len(nodes) - 1

    root = build(0, None)
    return x.DecisionTree(u, tuple(nodes), root)


def _reference_card_search(t, kind, target, k):
    """``card_xp_search`` by its row formulation, searched naively: one set
    of literals per offending leaf, read off ``leaf_assignments``, and a
    breadth-first search by size over literal sets that branches on the
    first row a set misses."""
    t = x.normalize_dt(t)
    paths = [(t.nodes[i].label, path) for i, path in leaf_assignments(t)]
    if kind == "laxp":
        bits = target.bits
        cls = x.classify(t, target)
        rows = [
            {(f, bits[f]) for f, b in path.items() if b != bits[f]}
            for label, path in paths
            if label != cls
        ]
    else:
        bad = 1 - target if kind == "gaxp" else target
        rows = [{(f, 1 - b) for f, b in path.items()} for label, path in paths if label == bad]
    level = {frozenset()}
    for _ in range(k + 1):
        missed = {s: next((row for row in rows if not s & row), None) for s in level}
        solved = [sorted(s) for s, row in missed.items() if row is None]
        if solved:
            # the oracle's order: feature tuple, then the bits as a counter
            best = min(solved, key=lambda s: (
                [f for f, _ in s], sum(b << j for j, (_, b) in enumerate(s))
            ))
            if kind == "laxp":
                return frozenset(f for f, _ in best)
            return x.PartialExample(t.universe, tuple(best))
        level = {
            s | {lit}
            for s, row in missed.items()
            for lit in row
            if all(f != lit[0] for f, _ in s)
        }
    return None


class TestCardSearchColumns:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_the_row_reference_on_wide_masks(self, seed):
        # more than 64 rows per kind, so every column spans several words
        rng = Random(seed)
        u = random_universe(rng, rng.randint(12, 24))
        while True:
            t = x.normalize_dt(_skewed_dt(rng, u, rng.randint(9, 10)))
            labels = [n.label for n in t.nodes if isinstance(n, x.Leaf)]
            if min(labels.count(0), labels.count(1)) > 64:
                break
        e = random_example(rng, u)
        c = rng.randint(0, 1)
        for kind, target in (("laxp", e), ("gaxp", c), ("gcxp", c)):
            k = rng.randint(0, 4)
            assert x.card_xp_search(t, kind, target, k) == _reference_card_search(
                t, kind, target, k
            )

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_row_reference_on_clique_gadgets(self, seed):
        # the ordered trees of the multicoloured-clique reduction, 2 and 3
        # colours, yes and no graphs alike, every k up to one past the
        # colours: gaxp of class 0 answers the clique question
        rng = Random(seed)
        colours, want = 2 + seed % 2, seed // 2 % 2 == 0
        vertices = rng.randint(4, 7)
        while True:
            g = random_coloured_graph(rng, vertices, colours, rng.random())
            if has_clique([v for c in g.classes for v in c], g.edges, colours) == want:
                break
        t = x.mcc_odt_gaxp_gadget(g, colours).model
        for kind in ("gaxp", "gcxp"):
            for c in (0, 1):
                for k in range(colours + 2):
                    assert x.card_xp_search(t, kind, c, k) == _reference_card_search(
                        t, kind, c, k
                    )
        assert (x.card_xp_search(t, "gaxp", 0, colours) is not None) == want

    def test_pre_order_arena(self):
        # a tree without repeated tests whose arena lists every parent
        # before its children, root first: it is not in normal form, so
        # normalize_dt copies it into post-order, as graft_dt rebuilds it,
        # and the search reads the raw tree and the rebuilt one alike
        u = x.universe("a", "b", "c", "d")
        t = x.DecisionTree(u, (
            x.Split(0, 1, 6),
            x.Split(1, 2, 3), x.Leaf(1), x.Split(2, 4, 5), x.Leaf(0), x.Leaf(1),
            x.Split(3, 7, 10), x.Split(1, 8, 9), x.Leaf(0), x.Leaf(1), x.Leaf(0),
        ))
        out = x.normalize_dt(t)
        assert out is not t and is_normalized(out) and x.normalize_dt(out) is out
        assert x.truth_table(out) == x.truth_table(t)
        rebuilt = graft_dt([(t, 1)])
        assert rebuilt.root != 0 and x.truth_table(rebuilt) == x.truth_table(t)
        targets = [("laxp", x.Example.from_mask(u, m)) for m in range(16)]
        targets += [(kind, c) for kind in ("gaxp", "gcxp") for c in (0, 1)]
        for kind, target in targets:
            expected = x.oracle_min(t, kind, target)
            for k in range(len(u) + 1):
                found = x.card_xp_search(t, kind, target, k)
                assert found == x.card_xp_search(rebuilt, kind, target, k)
                within = expected is not None and expected[0] <= k
                assert found == (expected[1] if within else None)

    @given(seed=st.integers(0, 100_000), n=st.integers(1, 6), depth=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_permuted_arenas(self, seed, n, depth):
        # a normalized tree with its arena shuffled, so the root's place and
        # the order of parents and children vary: normalize_dt keeps it only
        # when the shuffle left it in post-order, and the search must answer
        # as on graft_dt's post-order copy
        rng = Random(seed)
        u = random_universe(rng, n)
        t = permuted_arena(rng, x.normalize_dt(random_dt(rng, u, max_depth=depth)))
        out = x.normalize_dt(t)
        assert is_normalized(out) and x.normalize_dt(out) is out
        assert x.truth_table(out) == x.truth_table(t)
        assert (out is t) == in_normal_form(t)
        rebuilt = graft_dt([(t, 1)])
        targets = [("laxp", random_example(rng, u)) for _ in range(2)]
        targets += [(kind, c) for kind in ("gaxp", "gcxp") for c in (0, 1)]
        for kind, target in targets:
            expected = x.oracle_min(t, kind, target)
            for k in range(n + 1):
                found = x.card_xp_search(t, kind, target, k)
                assert found == x.card_xp_search(rebuilt, kind, target, k)
                within = expected is not None and expected[0] <= k
                assert found == (expected[1] if within else None)

    @given(seed=st.integers(0, 100_000), n=st.integers(1, 8), depth=st.integers(0, 7))
    @settings(max_examples=100, deadline=None)
    def test_literal_columns_match_the_leaf_paths(self, seed, n, depth):
        # row r is the r-th leaf of the bad class in _leaf_paths' order, and
        # column (f, b) holds it when the leaf's path tests f with value
        # 1 - b; each row's literals, read by descent, are those whose
        # column holds it
        rng = Random(seed)
        u = random_universe(rng, n)
        if rng.random() < 0.3:
            t = x.product_dt(random_ensemble(rng, u, "dt", 3))
        else:
            t = x.normalize_dt(random_dt(rng, u, max_depth=depth))
        for bad in (0, 1):
            paths = [(mask, value) for label, mask, value in _leaf_paths(t) if label == bad]
            kill = [0] * (2 * n)
            for r, (mask, value) in enumerate(paths):
                for f in range(n):
                    if mask >> f & 1:
                        kill[f + (1 - (value >> f & 1)) * n] |= 1 << r
            rows, got, first = _literal_columns(t, bad)
            assert (rows, got) == (len(paths), tuple(kill))
            full = (1 << rows) - 1
            triples = _literal_options(got, n, full, range(n))
            for r in range(rows):
                meeting = [(1 << lit, full & ~kill[lit], 1 << lit % n | 1 << lit % n + n)
                           for lit in range(2 * n) if kill[lit] >> r & 1]
                assert sorted(_row_options(t.nodes, t.root, n, first, r, triples)) == meeting

    @given(seed=st.integers(0, 100_000), n=st.integers(0, 7))
    @settings(max_examples=200, deadline=None)
    def test_hitting_set_on_explicit_rows(self, seed, n):
        # rows as literal lists, some repeated, empty or holding both
        # literals of a feature; a literal whose column is left zero meets
        # no row, as e's opposite literals under tree laxp.  Up to 10 rows
        # over few literals, so sets of the level below the last often
        # share their live rows
        rng = Random(seed)
        rows = [rng.sample(range(2 * n), rng.randint(1, min(2 * n, 3))) if n else []
                for _ in range(rng.randint(0, 10))]
        if n and rng.random() < 0.3:
            f = rng.randrange(n)
            rows.append([f + n, f])
        if rows and rng.random() < 0.3:
            rows.append(list(rng.choice(rows)))
        if rng.random() < 0.1:
            rows.insert(rng.randint(0, len(rows)), [])
        rng.shuffle(rows)
        zero = {lit for lit in range(2 * n) if rng.random() < 0.2}
        kill = [0] * (2 * n)
        for r, row in enumerate(rows):
            for lit in row:
                if lit not in zero:
                    kill[lit] |= 1 << r
        for k in range(n + 2):
            found = _min_literal_hitting_set(
                n, len(rows), kill, k, functools.partial(_listed_options, rows), range(n)
            )
            assert found == _least_hitting_set(n, rows, zero, k)

    @pytest.mark.parametrize("rows, answer", [
        # (0, 1) and (1, 1) both leave row 1 live, which only (0, 0) meets:
        # it completes (1, 1) but would assign feature 0 twice with (0, 1)
        ([[3, 4], [0]], [(0, 0), (1, 1)]),
        # (1, 1) leaves row 1 live and (0, 1) rows 1 and 2: (2, 0) meets
        # row 1 only, (2, 1) rows 1 and 2, so the literals that complete a
        # set depend on its live rows, not on the lowest one
        ([[4, 3], [5, 2], [4, 5]], [(0, 1), (2, 1)]),
    ])
    def test_last_level_per_live_mask(self, rows, answer):
        n = 3
        kill = [0] * (2 * n)
        for r, row in enumerate(rows):
            for lit in row:
                kill[lit] |= 1 << r
        found = _min_literal_hitting_set(
            n, len(rows), kill, 2, functools.partial(_listed_options, rows), range(n)
        )
        assert found == answer == _least_hitting_set(n, rows, set(), 2)


def _least_hitting_set(n, rows, zero, k):
    """The first consistent literal set of size <= k, avoiding the literals
    in ``zero``, that meets every row, as (feature, bit) pairs by feature;
    None when there is none.  Sets come by size, then feature subsets
    lexicographically, then each subset's bits as an ascending binary
    counter whose lowest bit is the lowest feature: the oracle's order."""
    for size in range(k + 1):
        for features in combinations(range(n), size):
            for counter in range(1 << size):
                pairs = [(f, counter >> j & 1) for j, f in enumerate(features)]
                lits = {f + b * n for f, b in pairs}
                if not lits & zero and all(lits & set(row) for row in rows):
                    return pairs
    return None


def _path_tree(rng, u, depth):
    """A path of ``depth`` tests of features drawn independently (so they
    repeat), the path going on at a random child of each test; every other
    child, and the path's end, is a leaf of a random class.  Returns the
    tree and an example that follows the path as far as it consistently
    can."""
    nodes = [x.Leaf(rng.randint(0, 1))]
    bits = [rng.randint(0, 1) for _ in range(len(u))]
    fixed = set()
    below = 0  # the subtree built so far, from the end of the path up
    steps = [(rng.randrange(len(u)), rng.randint(0, 1)) for _ in range(depth)]
    for f, on in reversed(steps):
        nodes.append(x.Leaf(rng.randint(0, 1)))
        off = len(nodes) - 1
        nodes.append(x.Split(f, *((off, below) if on else (below, off))))
        below = len(nodes) - 1
    for f, on in steps:
        if f not in fixed:
            fixed.add(f)
            bits[f] = on
    return x.DecisionTree(u, tuple(nodes), below), x.Example(u, tuple(bits))


def _seeded_shrink_reference(t, kind, c):
    """``verify.shrink`` of the path assignment of the first leaf of the
    wanted class, read off ``leaf_assignments`` of the normalized tree."""
    t = x.normalize_dt(t)
    want = c if kind == "gaxp" else 1 - c
    for i, assigned in leaf_assignments(t):
        if t.nodes[i].label == want:
            return shrink(t, kind, c, x.PartialExample(t.universe, tuple(assigned.items())))
    return None


def _conflict_sets_reference(t, e):
    """Per leaf of the other class, in depth-first order: the path features
    disagreeing with e, as sets read off ``leaf_assignments``."""
    t = x.normalize_dt(t)
    cls = x.classify(t, e)
    return [
        frozenset(f for f, b in assigned.items() if e.bits[f] != b)
        for i, assigned in leaf_assignments(t)
        if t.nodes[i].label != cls
    ]


class TestPathMaskRoutes:
    @given(seed=st.integers(0, 100_000), shape=st.sampled_from(["random", "path"]))
    @settings(max_examples=150, deadline=None)
    def test_match_the_verify_and_dict_formulations(self, seed, shape):
        rng = Random(seed)
        if shape == "random":
            u = random_universe(rng, rng.randint(1, 10))
            t = random_dt(rng, u, max_depth=rng.randint(1, 8), leaf_p=0.15)
            e = random_example(rng, u)
        else:
            u = random_universe(rng, rng.randint(1, 30))
            t, e = _path_tree(rng, u, rng.randint(1, 300))
        normal = x.normalize_dt(t)
        n = len(u)
        assert x.laxp_subset_min(t, e) == shrink(normal, "laxp", e, frozenset(range(n)))
        for c in (0, 1):
            assert x.gaxp_subset_min(t, c) == _seeded_shrink_reference(t, "gaxp", c)
            assert x.gcxp_subset_min(t, c) == _seeded_shrink_reference(t, "gcxp", c)
        sets = _conflict_sets_reference(t, e)
        assert x.lcxp_min(t, e) == min(sets, key=lambda d: (len(d), sorted(d)), default=None)


class TestProduct:
    def test_singleton(self):
        rng = Random(17)
        u = random_universe(rng, 5)
        t = random_dt(rng, u)
        ens = x.Ensemble(u, (t,))
        assert x.truth_table(x.product_dt(ens)) == x.truth_table(t)

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 6), depth=st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_unanimous_vote_is_decided_by_the_second_tree(self, seed, n, depth):
        # t's copies are one ballot of two or three votes, so t's leaf
        # decides the vote and no other tree is grafted: the product is the
        # normalized t
        rng = Random(seed)
        u = random_universe(rng, n)
        t = random_dt(rng, u, max_depth=depth)
        s = random_dt(rng, u, max_depth=depth)
        for third in (t, s):
            product = x.product_dt(x.Ensemble(u, (t, t, third)))
            assert product.leaf_count() == x.normalize_dt(t).leaf_count()
            assert x.truth_table(product) == x.truth_table(t)

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 6), depth=st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_a_ballot_of_two_votes_decides_every_path(self, seed, n, depth):
        # t's two copies are one ballot of two votes of three: t's leaf
        # decides every path, so s is never grafted, wherever it stands
        rng = Random(seed)
        u = random_universe(rng, n)
        t = random_dt(rng, u, max_depth=depth)
        s = random_dt(rng, u, max_depth=depth)
        product = x.product_dt(x.Ensemble(u, (t, s, t)))
        assert product.leaf_count() == x.normalize_dt(t).leaf_count()
        assert x.truth_table(product) == x.truth_table(t)

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 8),
        depth=st.integers(1, 7),
        size=st.sampled_from([1, 3, 5]),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_ensembles(self, seed, n, depth, size):
        # depth may exceed n, so paths often repeat a feature
        rng = Random(seed)
        u = random_universe(rng, n)
        ens = x.Ensemble(
            u, tuple(random_dt(rng, u, max_depth=depth) for _ in range(size))
        )
        projected = 1
        for t in ens.elements:
            projected *= t.leaf_count()
        with pytest.MonkeyPatch.context() as mp:  # the ceiling at the projected count
            mp.setattr(x.explain_dt, "_PRODUCT_CEILING", projected)
            product = x.product_dt(ens)
        assert x.truth_table(product) == x.truth_table(ens)
        assert is_normalized(product)
        assert product.leaf_count() <= projected

    def test_size_guard(self, monkeypatch):
        rng = Random(19)
        u = random_universe(rng, 8)
        ens = random_ensemble(rng, u, "dt", 3)
        monkeypatch.setattr(x.explain_dt, "_PRODUCT_CEILING", 1)
        with pytest.raises(CapExceeded):
            x.product_dt(ens)


    def test_size_guard_holds_on_a_memo_hit(self):
        rng = Random(19)
        u = random_universe(rng, 8)
        ens = random_ensemble(rng, u, "dt", 3)
        product = x.product_dt(ens)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(x.explain_dt, "_PRODUCT_CEILING", 1)
            with pytest.raises(CapExceeded):
                x.product_dt(ens)
        assert x.product_dt(ens) is product

    def test_memoized_on_the_ensemble(self):
        rng = Random(23)
        u = random_universe(rng, 6)
        ens = random_ensemble(rng, u, "dt", 3)
        product = x.product_dt(ens)
        assert x.product_dt(ens) is product
        assert x.normalize_dt(product) is product
        # an equal ensemble built anew builds its own, equal product
        assert x.product_dt(x.Ensemble(u, ens.elements)) == product

    def test_memo_makes_no_reference_cycle(self):
        rng = Random(29)
        u = random_universe(rng, 6)
        gc.disable()
        try:
            ens = random_ensemble(rng, u, "dt", 3)
            product = x.product_dt(ens)
            refs = [weakref.ref(ens), weakref.ref(product)]
            del ens, product
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


def _fresh(model):
    """An equal model that shares no memo with ``model``: a new tree on the
    same arena, or a new ensemble of the same elements (its own product)."""
    if isinstance(model, x.Ensemble):
        return x.Ensemble(model.universe, model.elements)
    return x.DecisionTree(model.universe, model.nodes, model.root, model.order)


def _tree_routes(rng, u):
    """Every tree route on ``u`` as (entry name, arguments after the model):
    both shrinks of each class, and the card search of every kind at
    several budgets."""
    budgets = sorted(rng.sample(range(len(u) + 1), min(3, len(u) + 1)))
    routes = []
    for e in (random_example(rng, u) for _ in range(2)):
        routes.append(("laxp_subset_min", (e,)))
        routes += [("card_xp_search", ("laxp", e, k)) for k in budgets]
    for c in (0, 1):
        routes += [("gaxp_subset_min", (c,)), ("gcxp_subset_min", (c,))]
        routes += [("card_xp_search", (kind, c, k)) for kind in ("gaxp", "gcxp")
                   for k in budgets]
    return routes


def _answer(model, name, args):
    if name == "laxp_subset_min" and isinstance(model, x.Ensemble):
        model = x.product_dt(model)
    return getattr(x, name)(model, *args)


def _fresh_answers(model, routes):
    """Each route's answer on its own fresh copy of ``model``, built with
    no remembered columns."""
    answers = []
    for name, args in routes:
        _column_cache.clear()
        answers.append(_answer(_fresh(model), name, args))
    _column_cache.clear()
    return answers


class TestColumnCache:
    """``_literal_columns`` remembers the last tree's columns per offending
    class; every answer must be the one a fresh tree gets."""

    @given(seed=st.integers(0, 100_000), n=st.integers(1, 6), depth=st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_shuffled_routes_twice_on_one_tree(self, seed, n, depth):
        rng = Random(seed)
        u = random_universe(rng, n)
        if rng.random() < 0.3:
            model = random_ensemble(rng, u, "dt", 3)
        else:
            model = random_dt(rng, u, max_depth=depth)
        routes = _tree_routes(rng, u)
        expected = _fresh_answers(model, routes)
        order = list(range(len(routes))) * 2
        rng.shuffle(order)
        for i in order:
            assert _answer(model, *routes[i]) == expected[i]

    def test_laxp_search_leaves_the_cached_columns_as_built(self):
        # the laxp search zeroes e's opposite literals on its own copy of
        # the columns; the class-1 examples of this XNOR tree are (1, 1) and
        # (0, 0), and the second reads exactly the literals zeroed for the first
        u = x.universe("a", "b")
        t = x.DecisionTree(u, (x.Leaf(1), x.Leaf(0), x.Split(1, 0, 1),
                               x.Leaf(0), x.Leaf(1), x.Split(1, 3, 4), x.Split(0, 2, 5)), 6)
        assert is_normalized(t)
        e, other = x.Example(u, (1, 1)), x.Example(u, (0, 0))
        _column_cache.clear()
        for k in (1, 2):
            assert x.card_xp_search(t, "laxp", e, k) == (frozenset({0, 1}) if k == 2 else None)
            assert x.laxp_subset_min(t, e) == frozenset({0, 1})
            assert x.laxp_subset_min(t, other) == frozenset({0, 1})
            assert x.gaxp_subset_min(t, 1) == x.PartialExample(u, ((0, 0), (1, 0)))
        _, kill, _ = _column_cache[0][1:]
        assert isinstance(kill, tuple) and all(kill)

    def test_trees_in_alternation(self):
        # two equal but distinct trees share answers; a third tree, unequal,
        # must never be answered from the columns of the other two
        rng = Random(31)
        u = random_universe(rng, 6)
        while True:
            t, s = (x.normalize_dt(random_dt(rng, u, max_depth=5)) for _ in range(2))
            if x.truth_table(t) != x.truth_table(s):
                break
        twin = _fresh(t)
        assert twin == t and twin is not t
        routes = _tree_routes(rng, u)
        expected = {id(m): _fresh_answers(m, routes) for m in (t, s)}
        expected[id(twin)] = expected[id(t)]
        for i in range(len(routes)):
            for m in (t, twin, s, t, s, twin):
                assert _answer(m, *routes[i]) == expected[id(m)][i]

    def test_both_classes_of_one_tree(self):
        # one slot per offending class: asking for one class never answers
        # with the other's columns
        rng = Random(37)
        u = random_universe(rng, 5)
        while True:
            t = x.normalize_dt(random_dt(rng, u, max_depth=5))
            labels = [node.label for node in t.nodes if isinstance(node, x.Leaf)]
            if labels.count(0) != labels.count(1):  # so the row counts differ
                break
        columns = []
        for bad in (0, 1):
            _column_cache.clear()
            columns.append(_literal_columns(t, bad))
        routes = [(name, (c,)) for c in (0, 1) for name in ("gaxp_subset_min", "gcxp_subset_min")]
        routes += [("card_xp_search", (kind, c, len(u))) for c in (0, 1)
                   for kind in ("gaxp", "gcxp")]
        expected = _fresh_answers(t, routes)
        for bad in (0, 1, 1, 0, 0, 1):
            assert _literal_columns(t, bad) == columns[bad]
        for _ in range(2):
            for i, (name, args) in enumerate(routes):
                assert _answer(t, name, args) == expected[i]


def test_renaming_features_only_changes_names(fig_dl, fig_example):
    # names are cosmetic: a renamed copy produces the same index witnesses
    rng = Random(23)
    u = random_universe(rng, 6)
    t = random_dt(rng, u)
    renamed_u = x.FeatureUniverse(tuple(f"col_{n}" for n in u.names))
    renamed = x.DecisionTree(renamed_u, t.nodes, t.root)
    e = random_example(rng, u)
    renamed_e = x.Example(renamed_u, e.bits)
    assert x.laxp_subset_min(t, e) == x.laxp_subset_min(renamed, renamed_e)
    assert x.lcxp_min(t, e) == x.lcxp_min(renamed, renamed_e)
