from __future__ import annotations

import sys
import time
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import xplain as x
from xplain.core import term_applies
from xplain.modelio import dump_model, load_model

from generators import (
    random_dl,
    random_ds,
    random_ensemble,
    random_example,
    random_universe,
    unary_clique_gadget,
)


class TestDsToDl:
    def test_empty_term_list(self):
        u = x.universe("a")
        dl = x.DecisionSet(u, (), 1).as_dl()
        assert dl.rules == (((), 1),)

    def test_single_term(self):
        u = x.universe("x", "y")
        dl = x.DecisionSet(u, (((0, 1), (1, 1)),), 0).as_dl()
        assert dl.rules == ((((0, 1), (1, 1)), 1), ((), 0))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_classifies_identically(self, seed):
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 8))
        ds = random_ds(rng, u)
        assert x.truth_table(ds.as_dl()) == x.truth_table(ds)

    def test_twelve_features_spot_check(self):
        rng = Random(99)
        u = random_universe(rng, 12)
        ds = random_ds(rng, u, max_terms=5)
        assert x.truth_table(ds.as_dl()) == x.truth_table(ds)


class TestBranch:
    def test_fig_budget_one(self, fig_dl, fig_example):
        assert x.lcxp_card_branch(fig_dl, fig_example, 1) == frozenset({1})

    def test_budget_zero_needs_homogeneity(self, fig_dl, fig_example):
        assert x.lcxp_card_branch(fig_dl, fig_example, 0) is None

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, seed):
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 8))
        model = random_dl(rng, u) if rng.random() < 0.5 else random_ds(rng, u)
        e = random_example(rng, u)
        found = x.lcxp_card_branch(model, e, len(u))
        expected = x.oracle_min(model, "lcxp", e)
        if expected is None:
            assert found is None
        else:
            assert found is not None and len(found) == expected[0]
            assert x.verify(model, "lcxp", e, found)

    def test_twelve_features_match(self):
        rng = Random(4242)
        u = random_universe(rng, 12)
        for _ in range(10):
            dl = random_dl(rng, u, max_rules=5)
            e = random_example(rng, u)
            found = x.lcxp_card_branch(dl, e, 12)
            enum = x.lcxp_card_enum(dl, e, 12)
            assert (found is None) == (enum is None)
            if found is not None:
                assert len(found) == len(enum)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_witness_lands_on_an_opposite_rule(self, seed):
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 7))
        dl = random_dl(rng, u)
        e = random_example(rng, u)
        found = x.lcxp_card_branch(dl, e, len(u))
        if found is None:
            return
        flipped = x.flip(e, found)
        assert x.classify(dl, flipped) != x.classify(dl, e)
        first_rule = next(
            (t, c) for t, c in dl.rules if term_applies(t, flipped)
        )
        assert first_rule[1] != x.classify(dl, e)

    def test_every_contrastive_set_contains_a_routing_subset(self):
        rng = Random(31)
        for _ in range(30):
            u = random_universe(rng, rng.randint(1, 6))
            dl = random_dl(rng, u)
            e = random_example(rng, u)
            candidate = frozenset(f for f in range(len(u)) if rng.random() < 0.5)
            if not x.verify(dl, "lcxp", e, candidate):
                continue
            cls = x.classify(dl, e)
            hit = False
            for mask in range(1 << len(candidate)):
                sub = [f for i, f in enumerate(sorted(candidate)) if (mask >> i) & 1]
                if x.classify(dl, x.flip(e, sub)) != cls:
                    hit = True
                    break
            assert hit

    def test_branch_counter_stays_within_bound(self, fig_dl, fig_example):
        stats = x.BranchStats()
        x.lcxp_card_branch(fig_dl, fig_example, 3, stats)
        assert stats.per_target  # one record per opposite-class rule
        base = max(stats.term_size, 1)
        assert all(nodes <= base**stats.budget for _, nodes in stats.per_target)

    def test_nodes_are_the_searched_states_within_the_limit(self, fig_dl, fig_example):
        # rule 1 is reached by flipping z, which lowers the limit from 3 to 1;
        # the default is then reached by flipping y, or z and then x, but
        # {z} is at the limit, so {x, z} is pruned and not a node
        stats = x.BranchStats()
        assert x.lcxp_card_branch(fig_dl, fig_example, 3, stats) == frozenset({1})
        assert stats.per_target == [((1,), 1), ((3,), 1)]

    def test_the_budget_is_clamped_to_the_read_features(self, fig_dl, fig_example):
        # a flip set holds read features only, so a budget past their number
        # searches exactly as that number does, and the search records it
        for k in (3, 10**12, 10**30):
            stats = x.BranchStats()
            assert x.lcxp_card_branch(fig_dl, fig_example, k, stats) == frozenset({1})
            assert (stats.budget, stats.per_target) == (3, [((1,), 1), ((3,), 1)])
        u = x.universe("a", "b", "c", "d")
        sparse = x.DecisionList(u, ((((1, 1), (3, 1)), 1), ((), 0)))
        stats = x.BranchStats()
        assert x.lcxp_card_branch(sparse, x.Example(u, (0, 0, 0, 0)), 10**12, stats) \
            == frozenset({1, 3})
        assert stats.budget == 2

    def test_a_dead_end_is_a_node(self):
        # flipping a to break a = 0 -> 0 fires a = 1 -> 0, which has nothing
        # left to flip
        u = x.universe("a", "b")
        dl = x.DecisionList(u, ((((0, 0),), 0), (((0, 1),), 0), (((1, 1),), 1), ((), 0)))
        stats = x.BranchStats()
        assert x.lcxp_card_branch(dl, x.Example(u, (0, 0)), 2, stats) is None
        assert stats.per_target == [((2,), 1)]


    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_long_list_reads_its_earlier_rules_lazily(self, seed):
        # 3000 random two-literal rules of alternating classes over 40
        # features, then the default, at k = n (answers of size 1 and 2):
        # over 1000 target rules, each reading the rules before it only up
        # to the first that fires, not all of them once per target
        rng = Random(seed)
        n = 40
        u = random_universe(rng, n)
        rules = tuple(
            (tuple((f, rng.randint(0, 1)) for f in rng.sample(range(n), 2)), i % 2)
            for i in range(3000)
        )
        dl = x.DecisionList(u, rules + (((), 0),))
        e = random_example(rng, u)
        started = time.perf_counter()
        found = x.lcxp_card_branch(dl, e, n)
        assert time.perf_counter() - started < 0.2
        cls = x.classify(dl, e)
        assert x.classify(dl, x.flip(e, found)) != cls
        if len(found) > 1:
            assert all(x.classify(dl, x.flip(e, [f])) == cls for f in range(n))


class TestEnsembleBranch:
    def test_singleton_matches_single(self):
        rng = Random(41)
        for _ in range(20):
            u = random_universe(rng, rng.randint(1, 6))
            dl = random_dl(rng, u)
            e = random_example(rng, u)
            single = x.lcxp_card_branch(dl, e, len(u))
            ens = x.lcxp_card_branch_ens(x.Ensemble(u, (dl,)), e, len(u))
            assert single == ens

    def test_three_copies_match_one(self):
        # one list repeated is one ballot of three votes: the same rule
        # tuples, nodes and witness as the list voting alone
        rng = Random(43)
        for _ in range(20):
            u = random_universe(rng, rng.randint(1, 5))
            dl = random_dl(rng, u)
            e = random_example(rng, u)
            k = rng.randint(0, len(u))
            one_stats, three_stats = x.BranchStats(), x.BranchStats()
            one = x.lcxp_card_branch_ens(x.Ensemble(u, (dl,)), e, k, one_stats)
            three = x.lcxp_card_branch_ens(x.Ensemble(u, [dl] * 3), e, k, three_stats)
            assert one == three
            assert one_stats.per_target == three_stats.per_target

    @pytest.mark.parametrize("family", ["ds", "dl"])
    def test_unary_clique_gadget_branches_per_ballot(self, family):
        # 509 elements in 36 ballots: a search over one rule per element
        # would not finish
        g, ens = unary_clique_gadget("subset", family)
        assert len(ens.elements) >= 400
        zero = x.Example(ens.universe, (0,) * len(ens.universe))
        for k in (1, g.k):
            started = time.perf_counter()
            found = x.lcxp_card_branch_ens(ens, zero, k)
            assert time.perf_counter() - started < 1.0
            assert found == x.lcxp_card_enum(ens, zero, k)

    @pytest.mark.parametrize("family", ["ds", "dl"])
    def test_unary_clique_gadget_keeps_its_ballots_through_json(self, family):
        """Loading makes every element a new object; equal elements still
        share a ballot, so the search stays per ballot."""
        _, ens = unary_clique_gadget("subset", family)
        loaded = load_model(dump_model(ens))
        assert len(loaded.elements) == len(ens.elements) == 509
        assert len(loaded._ballots) == len(ens._ballots) == 36
        zero = x.Example(loaded.universe, (0,) * len(loaded.universe))
        started = time.perf_counter()
        found = x.lcxp_card_branch_ens(loaded, zero, 2)
        assert time.perf_counter() - started < 1.0
        assert found == x.lcxp_card_enum(loaded, zero, 2)

    def test_a_thousand_ballots_are_walked_without_recursion(self):
        # list i is f_i = 1 -> 1, else i % 2: the all-zero example has a
        # class-0 majority of one, and each way to turn it costs a flip
        n = 1001
        u = x.universe(*(f"f{i}" for i in range(n)))
        ens = x.Ensemble(u, tuple(
            x.DecisionList(u, ((((i, 1),), 1), ((), i % 2))) for i in range(n)))
        assert len(ens._ballots) == n
        started = time.perf_counter()
        assert x.lcxp_card_branch_ens(ens, x.Example(u, (0,) * n), 0) is None
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_the_limit_falls_on_wide_lists_at_full_budget(self, seed):
        # 5 lists of 20 rules with terms of 4 to 6 literals over 24
        # features, at k = n: the answers have size 1, and a search that
        # keeps k as its limit searches 32 000 to 42 000 rule tuples
        rng = Random(seed)
        u = random_universe(rng, 24)
        lists = []
        for _ in range(5):
            rules = tuple(
                (tuple((f, rng.randint(0, 1)) for f in rng.sample(range(24), rng.randint(4, 6))),
                 rng.randint(0, 1))
                for _ in range(20)
            )
            lists.append(x.DecisionList(u, rules + (((), rng.randint(0, 1)),)))
        ens = x.Ensemble(u, tuple(lists))
        e = random_example(rng, u)
        started = time.perf_counter()
        found = x.lcxp_card_branch_ens(ens, e, 24)
        assert time.perf_counter() - started < 1.0
        assert found == x.lcxp_card_enum(ens, e, 24)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_oracle(self, seed):
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 6))
        family = rng.choice(["ds", "dl"])
        ens = random_ensemble(rng, u, family, 3)
        e = random_example(rng, u)
        found = x.lcxp_card_branch_ens(ens, e, len(u))
        expected = x.oracle_min(ens, "lcxp", e)
        if expected is None:
            assert found is None
        else:
            assert found is not None and len(found) == expected[0]

    def test_skipped_rule_tuples_never_witness_a_flip(self):
        # exhaustive: the classifying tuple of any class-changing example has
        # a strict majority of opposite-class rules
        rng = Random(47)
        for _ in range(25):
            u = random_universe(rng, rng.randint(1, 8))
            ens = random_ensemble(rng, u, "dl", 3)
            e = random_example(rng, u)
            cls = x.classify(ens, e)
            for mask in range(1 << len(u)):
                e2 = x.Example.from_mask(u, mask)
                if x.classify(ens, e2) == cls:
                    continue
                classes = []
                for dl in ens.elements:
                    classes.append(
                        next(c for t, c in dl.rules if term_applies(t, e2))
                    )
                n_diff = sum(1 for c in classes if c != cls)
                assert n_diff > len(classes) - n_diff


@given(seed=st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_branch_witness_equals_oracle_within_budget(seed):
    """Single models and 1-, 3- and 5-element ensembles run one branching
    engine; its witness must be the oracle's exactly (the first minimum by
    size, then lexicographically) when that minimum is <= k, else None."""
    rng = Random(seed)
    u = random_universe(rng, rng.randint(1, 7))
    family = rng.choice(["ds", "dl"])
    elements = rng.choice([0, 1, 3, 5])  # 0: a single model
    e = random_example(rng, u)
    k = rng.randint(0, len(u))
    if elements:
        model = random_ensemble(rng, u, family, elements)
        found = x.lcxp_card_branch_ens(model, e, k)
    else:
        model = random_ds(rng, u) if family == "ds" else random_dl(rng, u)
        found = x.lcxp_card_branch(model, e, k)
    expected = x.oracle_min(model, "lcxp", e)
    assert found == (expected[1] if expected is not None and expected[0] <= k else None)


class TestEnum:
    def test_fig_returns_lowest_indexed_witness(self, fig_dl, fig_example):
        assert x.lcxp_card_enum(fig_dl, fig_example, 2) == frozenset({1})

    def test_homogeneous_model_has_none(self):
        u = x.universe("a", "b")
        dl = x.DecisionList(u, (((), 1),))
        for k in range(3):
            assert x.lcxp_card_enum(dl, x.Example(u, (0, 0)), k) is None

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_branch_size(self, seed):
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 7))
        dl = random_dl(rng, u)
        e = random_example(rng, u)
        k = rng.randint(0, len(u))
        branch = x.lcxp_card_branch(dl, e, k)
        enum = x.lcxp_card_enum(dl, e, k)
        assert (branch is None) == (enum is None)
        if branch is not None:
            assert len(branch) == len(enum)


class TestLaxpRules:
    def test_fig(self, fig_dl, fig_example):
        assert x.laxp_rules_subset_min(fig_dl, fig_example) == frozenset({1, 2})

    def test_constant_list(self):
        u = x.universe("a", "b")
        dl = x.DecisionList(u, (((), 0),))
        assert x.laxp_rules_subset_min(dl, x.Example(u, (1, 1))) == frozenset()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_minimal(self, seed):
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 7))
        model = random_dl(rng, u) if rng.random() < 0.5 else random_ds(rng, u)
        e = random_example(rng, u)
        found = x.laxp_rules_subset_min(model, e)
        assert x.oracle_subset_min_check(model, "laxp", e, found)

    def test_shrink_walks_only_the_read_features(self, monkeypatch):
        """A 3-rule list over 2000 features that reads 3 of them: the greedy
        shrink verifies once per read feature, not once per feature of the
        universe, and keeps the answer of the shrink from the full set
        (which drops feature 1999 and every unread one)."""
        u = random_universe(Random(0), 2000)
        dl = x.DecisionList(u, ((((5, 1),), 1), (((700, 1), (1999, 0)), 0),
                                (((1999, 1),), 0), ((), 1)))
        bits = [i % 2 for i in range(2000)]
        bits[5], bits[700], bits[1999] = 0, 1, 0  # the second rule fires: class 0
        e = x.Example(u, tuple(bits))
        module = sys.modules["xplain.verify"]
        verify, calls = module.verify, []

        def counting_verify(*args, **kwargs):
            calls.append(args[3])
            return verify(*args, **kwargs)

        monkeypatch.setattr(module, "verify", counting_verify)
        found = x.laxp_rules_subset_min(dl, e)
        assert len(calls) <= 3
        assert found == frozenset({5, 700})
