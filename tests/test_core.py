from __future__ import annotations

import dataclasses
import gc
import json
import pickle
import weakref
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

import xplain as x
from xplain.core import (
    _leaf_paths,
    counter_ge,
    feature_column,
    is_normalized,
    weight_planes,
)

from xplain.modelio import dump_model, load_model

from generators import (
    constant_model,
    in_normal_form,
    leaf_assignments,
    moved_arena,
    permuted_arena,
    random_any_model,
    random_circuit,
    random_dt,
    random_ensemble,
    random_example,
    random_model,
    random_universe,
    relaid_arena,
)


def test_fig_classification(fig_dl, fig_example):
    assert x.classify(fig_dl, fig_example) == 0


def test_singleton_ensemble_is_element():
    rng = Random(7)
    u = random_universe(rng, 5)
    for family in ("dt", "ds", "dl"):
        m = random_model(rng, u, family)
        ens = x.Ensemble(u, (m,))
        for _ in range(16):
            e = random_example(rng, u)
            assert x.classify(ens, e) == x.classify(m, e)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_dt_classify_follows_path(seed):
    # build the example by walking a random root-to-leaf path: the walk is
    # its own oracle for the leaf the classifier must reach
    rng = Random(seed)
    u = random_universe(rng, 6)
    t = x.normalize_dt(random_dt(rng, u))
    bits = [rng.randint(0, 1) for _ in range(len(u))]
    i = t.root
    while isinstance(t.nodes[i], x.Split):
        node = t.nodes[i]
        direction = rng.randint(0, 1)
        bits[node.feature] = direction
        i = node.hi if direction else node.lo
    assert x.classify(t, x.Example(u, tuple(bits))) == t.nodes[i].label


class TestNormalize:
    def test_fixed_point(self):
        # one tree without repeated tests, in pre-order and in graft_dt's
        # post-order: only the post-order arena is normal form and kept,
        # the pre-order one is copied into it
        u = x.universe("a", "b")
        pre = x.DecisionTree(
            u, (x.Split(0, 1, 2), x.Leaf(0), x.Split(1, 3, 4), x.Leaf(1), x.Leaf(0))
        )
        post = x.DecisionTree(
            u, (x.Leaf(0), x.Leaf(1), x.Leaf(0), x.Split(1, 1, 2), x.Split(0, 0, 3)), 4
        )
        for t in (pre, post):
            out = x.normalize_dt(t)
            assert is_normalized(out) and x.normalize_dt(out) is out
            assert x.truth_table(out) == x.truth_table(t)
            assert (out is t) == (t is post)
        assert x.normalize_dt(pre) == post

    def test_repeated_test_in_post_order_is_not_normal(self):
        # graft_dt's arena order, but the 1-branch tests a again
        u = x.universe("a")
        t = x.DecisionTree(
            u, (x.Leaf(0), x.Leaf(0), x.Leaf(1), x.Split(0, 1, 2), x.Split(0, 0, 3)), 4
        )
        out = x.normalize_dt(t)
        assert not is_normalized(t) and out is not t and is_normalized(out)
        assert out.leaf_count() == 2 and x.truth_table(out) == x.truth_table(t)

    def test_repeated_test_eliminated(self):
        u = x.universe("a")
        # a tested twice along the 1-branch; second test is forced
        t = x.DecisionTree(
            u,
            (x.Split(0, 1, 2), x.Leaf(0), x.Split(0, 3, 4), x.Leaf(0), x.Leaf(1)),
        )
        out = x.normalize_dt(t)
        assert out.leaf_count() == 2
        assert x.truth_table(out) == x.truth_table(t)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_equivalent_on_all_examples(self, seed):
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 6))
        t = random_dt(rng, u, max_depth=5)
        out = x.normalize_dt(t)
        assert x.truth_table(out) == x.truth_table(t)
        assert out.leaf_count() <= t.leaf_count()


    def test_memoized_on_the_tree(self):
        u = x.universe("a")
        t = x.DecisionTree(
            u,
            (x.Split(0, 1, 2), x.Leaf(0), x.Split(0, 3, 4), x.Leaf(0), x.Leaf(1)),
        )
        out = x.normalize_dt(t)
        assert out is not t and x.normalize_dt(t) is out
        assert x.normalize_dt(out) is out
        # the memo is no part of the value
        fresh = x.DecisionTree(u, t.nodes, t.root)
        assert fresh == t and hash(fresh) == hash(t) and repr(fresh) == repr(t)

    def test_memo_makes_no_reference_cycle(self):
        u = x.universe("a", "b")
        repeated = (x.Split(0, 1, 2), x.Leaf(0), x.Split(0, 3, 4), x.Leaf(0), x.Leaf(1))
        plain = (x.Leaf(0), x.Leaf(1), x.Leaf(0), x.Split(1, 1, 2), x.Split(0, 0, 3))
        pre = (x.Split(0, 1, 2), x.Leaf(0), x.Split(1, 3, 4), x.Leaf(1), x.Leaf(0))
        gc.disable()
        try:
            raw = x.DecisionTree(u, repeated)
            out = x.normalize_dt(raw)
            normal = x.DecisionTree(u, plain, 4)
            assert x.normalize_dt(normal) is normal
            # no repeated test, but not post-order: copied, the copy kept
            reordered = x.DecisionTree(u, pre)
            copy = x.normalize_dt(reordered)
            assert copy is not reordered and is_normalized(copy)
            assert x.normalize_dt(copy) is copy
            assert x.truth_table(copy) == x.truth_table(reordered)
            refs = [weakref.ref(t) for t in (raw, out, normal, reordered, copy)]
            del raw, out, normal, reordered, copy
            assert [ref() for ref in refs] == [None] * 5
        finally:
            gc.enable()


@given(seed=st.integers(0, 100_000), n=st.integers(1, 6), depth=st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_is_normalized_matches_the_reference(seed, n, depth):
    # random trees (post-order, tests may repeat) and their normalized
    # copies, each in its own arena, relaid in pre-order, in post-order
    # with either child first, and shuffled; and with two leaves that are
    # 0-children trading places, so every split still comes right after
    # its 1-child but some 0-subtree no longer comes right before that
    rng = Random(seed)
    u = random_universe(rng, n)
    raw = random_dt(rng, u, max_depth=depth)
    for t in (raw, x.normalize_dt(raw)):
        arenas = [t, permuted_arena(rng, t)]
        arenas += [relaid_arena(t, post, zero_first)
                   for post in (False, True) for zero_first in (False, True)]
        zero_leaves = [node.lo for node in t.nodes
                       if isinstance(node, x.Split) and isinstance(t.nodes[node.lo], x.Leaf)]
        if len(zero_leaves) > 1:
            a, b = rng.sample(zero_leaves, 2)
            p = list(range(len(t.nodes)))
            p[a], p[b] = b, a
            arenas.append(moved_arena(t, p))
        for arena in arenas:
            assert is_normalized(arena) == in_normal_form(arena)


@given(seed=st.integers(0, 100_000), n=st.integers(1, 6), depth=st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_seeded_leaf_walk_reads_the_restricted_tree(seed, n, depth):
    # random raw trees (tests may repeat on a path) in their own arena and
    # shuffled, against random seeds tau: the walk seeded with tau yields,
    # in order, the leaves of the restriction to tau with their paths plus
    # tau, and the unseeded walk of a raw tree is that of its normal form
    rng = Random(seed)
    u = random_universe(rng, n)
    raw = random_dt(rng, u, max_depth=depth)
    for t in (raw, permuted_arena(rng, raw)):
        features = rng.sample(range(n), rng.randint(0, n))
        tau = x.PartialExample(u, tuple((f, rng.randint(0, 1)) for f in features))
        restricted = x.restrict_dt(t, tau)
        want = []
        for i, path in leaf_assignments(restricted):
            path.update(tau.assignments)
            want.append((
                restricted.nodes[i].label,
                sum(1 << f for f in path),
                sum(b << f for f, b in path.items()),
            ))
        assert list(_leaf_paths(t, tau.assignments)) == want
        assert list(_leaf_paths(t)) == list(_leaf_paths(x.normalize_dt(t)))


@given(seed=st.integers(0, 100_000), n=st.integers(1, 6), depth=st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_leaf_count_is_the_number_of_leaves(seed, n, depth):
    # read off the arena's length, since the constructor proves a full
    # binary tree: raw trees, their normal forms and tree products alike
    rng = Random(seed)
    u = random_universe(rng, n)
    raw = random_dt(rng, u, max_depth=depth)
    ens = x.Ensemble(u, (raw, random_dt(rng, u, max_depth=depth), raw))
    for t in (raw, permuted_arena(rng, raw), x.normalize_dt(raw), x.product_dt(ens)):
        assert t.leaf_count() == sum(isinstance(node, x.Leaf) for node in t.nodes)


class TestRespectsOrder:
    def test_single_leaf_any_order(self):
        u = x.universe("a", "b")
        assert x.respects_order(x.leaf_tree(u, 1), (0, 1))
        assert x.respects_order(x.leaf_tree(u, 1), (1, 0))

    def test_chain(self):
        u = x.universe("f1", "f2")
        t = x.DecisionTree(
            u, (x.Split(0, 1, 2), x.Leaf(0), x.Split(1, 3, 4), x.Leaf(0), x.Leaf(1))
        )
        assert x.respects_order(t, (0, 1))
        assert not x.respects_order(t, (1, 0))


class TestMeasure:
    def test_fig_list(self, fig_dl):
        report = x.measure(fig_dl)
        assert report.terms_elem == 4
        assert report.term_size == 2
        assert report.size_elem == 10

    def test_single_leaf_tree(self):
        u = x.universe("a")
        report = x.measure(x.leaf_tree(u, 1))
        assert report.model_size == 1
        assert report.mnl_size == 0

    def test_empty_decision_set(self):
        u = x.universe("a")
        assert x.measure(x.DecisionSet(u, (), 1)).size_elem == 1

    def test_ensemble_aggregates(self):
        rng = Random(3)
        u = random_universe(rng, 5)
        ens = random_ensemble(rng, u, "dl", 3)
        report = x.measure(ens)
        assert report.ens_size == 3
        assert report.size_elem == max(x.measure(m).size_elem for m in ens.elements)
        assert report.model_size == sum(x.measure(m).model_size for m in ens.elements)

    def test_ensemble_reads_each_ballot_once(self):
        """The report of an ensemble with shared elements is the one summed
        and maximized over every element."""
        rng = Random(5)
        u = random_universe(rng, 5)
        for family in ("dt", "ds", "dl"):
            shared = random_model(rng, u, family)
            padder = constant_model(u, family, 0)
            elements = (shared, random_model(rng, u, family), *[shared] * 3,
                        *[padder] * 4)
            ens = x.Ensemble(u, elements)
            # equal elements share a ballot; with this seed the random set is the padder
            merged = shared == padder
            assert [votes for _, votes in ens._ballots] == ([8, 1] if merged else [4, 1, 4])
            reports = [x.measure(m) for m in elements]

            def most(attr):
                vals = [getattr(r, attr) for r in reports if getattr(r, attr) is not None]
                return max(vals) if vals else None

            assert x.measure(ens) == x.ParamReport(
                ens_size=9,
                mnl_size=most("mnl_size"),
                terms_elem=most("terms_elem"),
                term_size=most("term_size"),
                size_elem=most("size_elem"),
                model_size=sum(r.model_size for r in reports),
            )


_U2 = x.universe("a", "b")
_E2 = x.Example(_U2, (0, 1))
_TREE2 = x.DecisionTree(_U2, (x.Split(0, 1, 2), x.Leaf(0), x.Leaf(1)))
_DL3 = x.DecisionList(x.universe("a", "b", "c"), ((((0, 1), (1, 1)), 1), ((), 0)))
_E3 = x.Example(_DL3.universe, (1, 1, 0))
_ENTRIES = {
    "classify": lambda m: x.classify(m, _E2),
    "truth_table": x.truth_table,
    "subcube_table": lambda m: x.subcube_table(m, {0: 1}, [1]),
    "measure": x.measure,
    "verify": lambda m: x.verify(m, "laxp", _E2, {0}),
    "verify_by_enumeration": lambda m: x.verify_by_enumeration(m, "laxp", _E2, {0}),
    "oracle_min": lambda m: x.oracle_min(m, "laxp", _E2),
    "hom_check": x.hom_check,
    "phom_check": lambda m: x.phom_check(m, 1),
}


@pytest.mark.parametrize(
    "call, model",
    [
        *(
            pytest.param(call, model, id=f"{name}-{label}")
            for name, call in _ENTRIES.items()
            for label, model in (
                ("set-family", x.SetFamily(_U2, (frozenset({0}),))),
                ("object", object()),
            )
        ),
        pytest.param(lambda m: x.lcxp_card_branch(m, _E2, 1), _TREE2, id="branch-tree"),
        pytest.param(
            lambda m: x.lcxp_card_branch(m, _E2, 1),
            x.translate(_TREE2, 1)[0],
            id="branch-circuit",
        ),
        pytest.param(
            lambda m: x.lcxp_card_branch_ens(m, _E2, 1), _TREE2, id="branch-ens-tree"
        ),
        *(
            pytest.param(lambda m, f=f: f(m, _E2), x.DecisionSet(_U2, (), 0), id=f"{name}-set")
            for name, f in (("laxp_subset_min", x.laxp_subset_min), ("lcxp_min", x.lcxp_min))
        ),
        pytest.param(x.product_dt, _TREE2, id="product-tree"),
        pytest.param(
            lambda m: x.restrict_dt(m, x.PartialExample(_U2, ((0, 1),))),
            x.DecisionSet(_U2, (), 0),
            id="restrict-set",
        ),
        pytest.param(lambda m: x.respects_order(m, (0, 1)), x.DecisionSet(_U2, (), 0),
                     id="respects-order-set"),
        pytest.param(x.hom_equivalence_suite, object(), id="hom-suite-object"),
        pytest.param(dump_model, object(), id="dump-object"),
        pytest.param(lambda m: x.translate(m, 2), _TREE2, id="translate-class-2"),
        pytest.param(lambda m: x.classify(m, object()), _TREE2, id="classify-object-example"),
        pytest.param(lambda m: x.restrict_dt(m, {0: 1}), _TREE2, id="restrict-dict-tau"),
        pytest.param(lambda m: x.answer_query(m, object()), _TREE2, id="answer-object-query"),
        # model constructors take integer fields (a bool is none)
        pytest.param(lambda r: x.DecisionTree(_U2, (x.Leaf(0),), r), 0.5, id="tree-root-half"),
        pytest.param(lambda r: x.DecisionTree(_U2, (x.Leaf(0), x.Leaf(1), x.Split(0, 0, 1)), r),
                     2.0, id="tree-root-float-post-order"),
        pytest.param(x.Leaf, 1.0, id="leaf-float-label"),
        pytest.param(lambda o: x.DecisionTree(_U2, _TREE2.nodes, 0, o), (0.0, 1),
                     id="tree-order-float"),
        pytest.param(lambda d: x.DecisionSet(_U2, (), d), 1.0, id="set-default-float"),
        pytest.param(lambda f: x.DecisionSet(_U2, (((f, 1),),), 0), "a", id="set-feature-name"),
        pytest.param(lambda b: x.DecisionSet(_U2, (((0, b),),), 0), 1.0, id="set-bit-float"),
        pytest.param(lambda c: x.DecisionList(_U2, (((), c),)), 1.0, id="list-class-float"),
        # feature indices are ints, never truncated: 0.9 is no feature 0
        pytest.param(lambda f: x.PartialExample(_U2, ((f, 1),)), 0.9, id="partial-feature-float"),
        pytest.param(lambda o: x.respects_order(_TREE2, o), (0, 1.7), id="order-float"),
        pytest.param(lambda o: x.respects_order(_TREE2, o), ("1", 0), id="order-name"),
        pytest.param(lambda f: x.SetFamily(_U2, (frozenset({f}),)), 1.5, id="set-family-float"),
        pytest.param(lambda d: x.SetFamily(_U2, (), d), {1.5}, id="set-family-domain-float"),
        pytest.param(lambda o: x.odt_from_examples(_U2, (), o), (0, 1.7), id="odt-order-float"),
        # feature names are strings, which dump_model can write and load_model read
        pytest.param(lambda n: x.universe(n, "b"), 1, id="universe-int-name"),
        pytest.param(lambda n: x.FeatureUniverse((n,)), ["a"], id="universe-list-name"),
        # caps are nonnegative ints: 1 << 1.5 and a str cap crashed the flip searches
        pytest.param(lambda c: x.BruteCaps(verify=c), 1.5, id="caps-fraction"),
        pytest.param(lambda c: x.BruteCaps(verify=c), "3", id="caps-string"),
        pytest.param(lambda c: x.BruteCaps(oracle_local=c), -2, id="caps-negative"),
        # a gate's in-arcs are a tuple of gate indices, its output an index
        pytest.param(lambda i: x.Circuit(_U2, (x.Gate("IN", feature=0), x.Gate("NOT", i)), 1),
                     0, id="gate-ins-int"),
        pytest.param(lambda o: x.Circuit(_U2, (x.Gate("IN", feature=0),), o), 0.0,
                     id="circuit-output-float"),
        # a universe is a FeatureUniverse, and a set family a SetFamily
        *(pytest.param(make, ("a", "b"), id=f"{name}-universe-tuple") for name, make in (
            ("tree", lambda u: x.DecisionTree(u, (x.Leaf(0),), 0)),
            ("set", lambda u: x.DecisionSet(u, (), 0)),
            ("list", lambda u: x.DecisionList(u, (((), 0),))),
            ("ensemble", lambda u: x.Ensemble(u, (x.leaf_tree(_U2, 0),))),
            ("circuit", lambda u: x.Circuit(u, (x.Gate("IN", feature=0),), 0)),
            ("set-family", lambda u: x.SetFamily(u, ())),
        )),
        pytest.param(lambda u: x.odt_from_examples(u, [], (0,)), 3, id="odt-universe-int"),
        pytest.param(lambda fam: x.set_model_odt(fam, 1, (0, 1)), "nofam",
                     id="set-model-odt-family-str"),
        pytest.param(lambda fam: x.subset_model_rules(fam, 1), "nofam",
                     id="subset-model-rules-family-str"),
        # a scalar is no tuple: a class or budget of () is refused, not read
        # as the empty sequence (verify answered the class-0 question)
        pytest.param(lambda c: x.verify(_DL3, "gaxp", c, x.PartialExample(_DL3.universe, ())),
                     (), id="verify-class-tuple"),
        pytest.param(lambda c: x.oracle_min(_DL3, "gcxp", c), (), id="oracle-min-class-tuple"),
        pytest.param(lambda c: x.gcxp_subset_min(_TREE2, c), (), id="gcxp-subset-class-tuple"),
        pytest.param(lambda c: x.card_xp_search(_TREE2, "gaxp", c, 1), (),
                     id="card-search-class-tuple"),
        *(pytest.param(call, (), id=f"{name}-budget-tuple") for name, call in (
            ("card-search", lambda k: x.card_xp_search(_TREE2, "laxp", _E2, k)),
            ("phom", lambda k: x.phom_check(_DL3, k)),
            ("first-flip", lambda k: x.first_flip(_DL3, _E3, k)),
            ("branch", lambda k: x.lcxp_card_branch(_DL3, _E3, k)),
            ("branch-ens", lambda k: x.lcxp_card_branch_ens(x.Ensemble(_DL3.universe, (_DL3,)),
                                                            _E3, k)),
            ("enum", lambda k: x.lcxp_card_enum(_DL3, _E3, k)),
        )),
        pytest.param(x.Leaf, (), id="leaf-label-tuple"),
        pytest.param(lambda r: x.DecisionTree(_U2, _TREE2.nodes, r), (), id="tree-root-tuple"),
        pytest.param(lambda o: x.Circuit(_U2, (x.Gate("IN", feature=0),), o), (),
                     id="circuit-output-tuple"),
        pytest.param(lambda f: x.Circuit(_U2, (x.Gate("IN", feature=f),), 0), (),
                     id="in-gate-feature-tuple"),
        pytest.param(lambda t: x.Circuit(_U2, (x.Gate("IN", feature=0),
                                               x.Gate("MAJ", (0,), t)), 1), (),
                     id="maj-threshold-tuple"),
        pytest.param(lambda c: x.translate(_TREE2, c), (), id="translate-class-tuple"),
        pytest.param(lambda d: x.DecisionSet(_U2, (), d), (), id="set-default-tuple"),
        # a sequence argument that is no sequence, and flip's example
        pytest.param(lambda e: x.flip(e, [0]), None, id="flip-example-none"),
        pytest.param(lambda f: x.flip(_E2, f), None, id="flip-features-none"),
        pytest.param(lambda f: x.flip(_E2, f), 5, id="flip-features-int"),
        pytest.param(lambda r: x.odt_from_examples(_U2, r, (0, 1)), None, id="odt-rows-none"),
        pytest.param(lambda o: x.odt_from_examples(_U2, [], o), None, id="odt-order-none"),
        pytest.param(lambda o: x.respects_order(_TREE2, o), None, id="order-none"),
        pytest.param(lambda o: x.respects_order(_TREE2, o), 5, id="order-int"),
    ],
)
def test_wrong_model_raises_model_error(call, model):
    """A value that is not a model of the family an entry point takes is a
    ModelError, never an AttributeError, even when it carries a universe."""
    with pytest.raises(x.ModelError):
        call(model)


# -- the one integer rule over the public API --------------------------------

_U3 = x.universe("a", "b", "c")
_L0, _L1 = x.Leaf(0), x.Leaf(1)
_TREE3 = x.DecisionTree(_U3, (_L0, _L1, x.Split(0, 0, 1)), 2)
_FAMILY3 = x.SetFamily(_U3, (frozenset({0}),))
_GRAPH2 = x.ColouredGraph((("p",), ("q",)), (("p", "q"),))


def _circuit(ins=0, feature=0, threshold=1) -> x.Circuit:
    gates = (x.Gate("IN", feature=feature), x.Gate("NOT", (ins,)),
             x.Gate("MAJ", (0, 1), threshold))
    return x.Circuit(_U3, gates, 2)


# field -> (an int the field takes, the public constructor or builder called
# with a value in that one integer field); the name before "-" is the entry
_INTEGER_FIELDS = {
    "Example-bit": (1, lambda v: x.Example(_U3, (0, v, 1))),
    "Example.from_mask-mask": (5, lambda v: x.Example.from_mask(_U3, v)),
    "PartialExample-feature": (1, lambda v: x.PartialExample(_U3, ((v, 1), (2, 0)))),
    "PartialExample-bit": (1, lambda v: x.PartialExample(_U3, ((0, v),))),
    "Leaf-label": (1, x.Leaf),
    "leaf_tree-label": (1, lambda v: x.leaf_tree(_U3, v)),
    "DecisionTree-root": (2, lambda v: x.DecisionTree(_U3, _TREE3.nodes, v)),
    "DecisionTree-order": (1, lambda v: x.DecisionTree(_U3, (_L0,), 0, (0, v, 2))),
    "Split-feature": (0, lambda v: x.DecisionTree(_U3, (x.Split(v, 1, 2), _L0, _L1))),
    "Split-lo": (1, lambda v: x.DecisionTree(_U3, (x.Split(0, v, 2), _L0, _L1))),
    "Split-hi": (2, lambda v: x.DecisionTree(_U3, (x.Split(0, 1, v), _L0, _L1))),
    "Split-feature-in-normal-form": (0, lambda v: x.DecisionTree(
        _U3, (_L0, _L1, x.Split(v, 0, 1)), 2)),
    "Split-lo-in-normal-form": (0, lambda v: x.DecisionTree(_U3, (_L0, _L1, x.Split(0, v, 1)), 2)),
    "Split-hi-in-normal-form": (1, lambda v: x.DecisionTree(_U3, (_L0, _L1, x.Split(0, 0, v)), 2)),
    "DecisionSet-feature": (1, lambda v: x.DecisionSet(_U3, (((v, 1), (2, 0)),), 0)),
    "DecisionSet-bit": (1, lambda v: x.DecisionSet(_U3, (((0, v), (2, 0)),), 0)),
    "DecisionSet-default": (1, lambda v: x.DecisionSet(_U3, (((0, 1),),), v)),
    "DecisionList-feature": (1, lambda v: x.DecisionList(_U3, ((((v, 1),), 1), ((), 0)))),
    "DecisionList-bit": (1, lambda v: x.DecisionList(_U3, ((((0, v),), 1), ((), 0)))),
    "DecisionList-class": (1, lambda v: x.DecisionList(_U3, ((((0, 1),), v), ((), 0)))),
    "Gate-ins": (0, lambda v: _circuit(ins=v)),
    "Gate-feature": (0, lambda v: _circuit(feature=v)),
    "Gate-threshold": (1, lambda v: _circuit(threshold=v)),
    "Circuit-output": (1, lambda v: x.Circuit(_U3, (x.Gate("IN", feature=0), x.Gate("NOT", (0,))),
                                              v)),
    "translate-class": (1, lambda v: x.translate(_TREE3, v)),
    "BruteCaps-verify": (3, lambda v: x.BruteCaps(verify=v)),
    "BruteCaps-oracle_local": (3, lambda v: x.BruteCaps(oracle_local=v)),
    "BruteCaps-oracle_global": (3, lambda v: x.BruteCaps(oracle_global=v)),
    "Query-k": (1, lambda v: x.answer_query(_TREE3, x.Query("phom", k=v))),
    "SetFamily-set": (0, lambda v: x.SetFamily(_U3, (frozenset({v}),))),
    "SetFamily-domain": (0, lambda v: x.SetFamily(_U3, (), frozenset({v}))),
    "odt_from_examples-order": (1, lambda v: x.odt_from_examples(_U3, (), (0, v, 2))),
    "set_model_odt-class": (1, lambda v: x.set_model_odt(_FAMILY3, v, (0, 1, 2))),
    "set_model_odt-order": (1, lambda v: x.set_model_odt(_FAMILY3, 1, (0, v, 2))),
    "subset_model_rules-class": (1, lambda v: x.subset_model_rules(_FAMILY3, v)),
    "hitting_set_gadget-k": (1, lambda v: x.hitting_set_gadget(["a"], [["a"]], v, "subset-ds")),
    "mcc_ensemble_gadget-k": (2, lambda v: x.mcc_ensemble_gadget(_GRAPH2, v, "subset")),
    "mcc_unary_ensemble_gadget-k": (2, lambda v: x.mcc_unary_ensemble_gadget(_GRAPH2, v, "set")),
    "mcc_odt_gaxp_gadget-k": (2, lambda v: x.mcc_odt_gaxp_gadget(_GRAPH2, v)),
    "taut_ds_gadget-bit": (0, lambda v: x.taut_ds_gadget([[("a", v)], [("b", 1)]], ["a", "b"])),
}

# public classes whose fields hold no integer the caller chooses: reports
# the library fills in, exceptions, and containers of names or models
_NO_INTEGER_FIELD = {
    "BranchStats", "CapExceeded", "ColouredGraph", "Ensemble", "FeatureUniverse",
    "GadgetInstance", "HomEquivalenceReport", "ModelError", "ParamReport", "WidthCertificate",
}


@pytest.mark.parametrize("mask", [5, 4, -1, True])
def test_from_mask_refuses_a_mask_outside_the_universe(mask):
    """Over two features a mask is an int in [0, 4): 5 would read as (1, 0),
    -1 as (1, 1) and True as (1, 0), truncated without notice.  Other
    values that are no int are fuzzed with every integer field."""
    u = x.universe("a", "b")
    assert [x.Example.from_mask(u, m).bits for m in range(4)] == [
        (0, 0), (1, 0), (0, 1), (1, 1)]
    with pytest.raises(x.ModelError):
        x.Example.from_mask(u, mask)


def test_every_public_constructor_and_builder_is_fuzzed():
    public = {name for name in x.__all__ if isinstance(getattr(x, name), type)}
    public |= {name for name in x.__all__ if name.endswith("_gadget")}
    public |= {"leaf_tree", "odt_from_examples", "set_model_odt", "subset_model_rules",
               "translate"}
    assert public - {field.split("-")[0] for field in _INTEGER_FIELDS} == _NO_INTEGER_FIELD


@pytest.mark.parametrize("field", sorted(_INTEGER_FIELDS))
@given(value=st.one_of(st.sampled_from([0.5, "1", None, True, 1.0]), st.booleans(),
                       st.floats(), st.integers(-2, 3).map(float), st.text(max_size=2),
                       st.integers(-2, 3)))
@example(value=0.5)
@example(value="1")
@example(value=None)
@example(value=True)
@example(value=1.0)
@settings(max_examples=30, deadline=None)
def test_integer_field_refuses_what_is_no_int(field, value):
    """One integer field of a public constructor or gadget builder holds a
    value: an int builds or is a ModelError; anything else, a bool or an
    integral float included, is a ModelError, never a TypeError or
    AttributeError and never a model built from a truncated value.  The
    forward pass of a tree reads the fields of a normal-form arena's splits
    by value, so there a bool may build the tree of the int it equals."""
    valid, build = _INTEGER_FIELDS[field]
    build(valid)
    try:
        built = build(value)
    except x.ModelError:
        return
    if field.endswith("-in-normal-form") and type(value) is bool:
        assert built == build(int(value))
        assert load_model(json.loads(json.dumps(dump_model(built)))) == built  # written as ints
    else:
        assert type(value) is int


class TestValidation:
    def test_contradictory_term_rejected(self):
        u = x.universe("a")
        with pytest.raises(x.ModelError):
            x.DecisionSet(u, (((0, 0), (0, 1)),), 0)

    def test_even_ensemble_rejected(self):
        u = x.universe("a")
        with pytest.raises(x.ModelError):
            x.Ensemble(u, (x.leaf_tree(u, 0), x.leaf_tree(u, 1)))

    def test_duplicate_feature_names_rejected(self):
        with pytest.raises(x.ModelError):
            x.universe("a", "a")

    def test_last_rule_must_be_empty(self):
        u = x.universe("a")
        with pytest.raises(x.ModelError):
            x.DecisionList(u, ((((0, 1),), 0),))

    def test_universe_mismatch_rejected(self):
        u, v = x.universe("a"), x.universe("b")
        with pytest.raises(x.ModelError):
            x.classify(x.leaf_tree(u, 0), x.Example(v, (0,)))

    def test_fractional_bits_are_refused_not_truncated(self):
        u = x.universe("a", "b")
        refused = [
            lambda: x.Example(u, (0.9, 1)),
            lambda: x.PartialExample(u, ((0, 0.9),)),
            lambda: x.DecisionSet(u, (((0, 1.5),),), 0),
            lambda: x.DecisionList(u, ((((0, 1),), 0.6), ((), 1))),
        ]
        for make in refused:
            with pytest.raises(x.ModelError, match="0 or 1"):
                make()
        with pytest.raises(x.ModelError, match="0 or 1"):  # 1.0 is no bit either
            x.Example(u, (1.0, 0))

    # (root-last arena, root-first arena, message): the constructor's
    # forward pass stops at the bad node, or at a root-first arena's root,
    # and the reachability walk refuses the arena
    _L0, _L1 = x.Leaf(0), x.Leaf(1)

    @pytest.mark.parametrize(
        "root_last, root_first, message",
        [
            ((_L0, _L1, x.Split(0, 0, 5)), (x.Split(0, 1, 2), _L0, x.Split(1, 3, 5), _L1),
             "child index out of range"),
            ((_L0, _L1, x.Split(0, 1, 1)), (x.Split(0, 1, 1), _L1, _L0),
             "reachable twice"),
            ((_L0, _L1, x.Split(1, 0, 3), x.Split(0, 2, 1)),
             (x.Split(0, 1, 2), x.Split(1, 3, 0), _L0, _L1), "reachable twice"),
            ((_L1, _L0, _L1, x.Split(0, 1, 2)), (x.Split(0, 1, 2), _L0, _L1, _L1),
             "unreachable from the root"),
            ((_L0, x.Leaf(2), x.Split(0, 0, 1)), (x.Split(0, 1, 2), _L0, x.Leaf(2)),
             "leaf labels"),
            ((_L0, _L1, x.Split(2, 0, 1)),
             (x.Split(0, 1, 2), _L0, x.Split(2, 3, 4), _L0, _L1), "outside universe"),
            ((_L0, _L1, x.Split(0, 0, 1.0)), (x.Split(0, 1.0, 2), _L0, _L1),
             "child indices must be integers"),
            ((_L0, _L1, x.Split(0.0, 0, 1)), (x.Split(0.0, 1, 2), _L0, _L1),
             "feature indices must be integers"),
        ],
        ids=["child-out-of-range", "shared-child", "cycle", "unreachable-node",
             "bad-label", "feature-outside-universe", "float-child", "float-feature"],
    )
    def test_bad_arena_is_refused(self, root_last, root_first, message):
        u = x.universe("a", "b")
        for nodes, root in ((root_last, len(root_last) - 1), (root_first, 0)):
            with pytest.raises(x.ModelError, match=message):
                x.DecisionTree(u, nodes, root)

    def test_bool_fields_are_refused(self):
        u = x.universe("a", "b")
        leaves = (x.Leaf(0), x.Leaf(1))
        refused = [
            lambda: x.Leaf(False),
            lambda: x.DecisionTree(u, (*leaves, x.Split(0, 0, 1)), 2, (True, False)),
            lambda: x.DecisionTree(u, (*leaves, x.Split(0, 0, 1)), True),
            lambda: x.DecisionSet(u, (((True, 1),),), 0),
            lambda: x.DecisionSet(u, (((0, True),),), 0),
            lambda: x.DecisionSet(u, (), False),
            lambda: x.DecisionList(u, (((), True),)),
        ]
        for make in refused:
            with pytest.raises(x.ModelError):
                make()


def _flip_classes(model):
    if isinstance(model, x.DecisionTree):
        nodes = tuple(
            x.Leaf(1 - n.label) if isinstance(n, x.Leaf) else n for n in model.nodes
        )
        return x.DecisionTree(model.universe, nodes, model.root)
    if isinstance(model, x.DecisionSet):
        return x.DecisionSet(model.universe, model.terms, 1 - model.default)
    if isinstance(model, x.DecisionList):
        rules = tuple((t, 1 - c) for t, c in model.rules)
        return x.DecisionList(model.universe, rules)
    raise AssertionError(model)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_flipping_every_element_flips_odd_ensemble(seed):
    rng = Random(seed)
    u = random_universe(rng, rng.randint(1, 6))
    family = rng.choice(["dt", "ds", "dl"])
    ens = random_ensemble(rng, u, family, rng.choice([1, 3]))
    flipped = x.Ensemble(u, tuple(_flip_classes(m) for m in ens.elements))
    full = (1 << (1 << len(u))) - 1
    assert x.truth_table(flipped) == full ^ x.truth_table(ens)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_truth_table_matches_classify(seed):
    rng = Random(seed)
    u = random_universe(rng, rng.randint(1, 5))
    family = rng.choice(["dt", "ds", "dl", "ens"])
    model = (
        random_ensemble(rng, u, rng.choice(["dt", "ds", "dl"]))
        if family == "ens"
        else random_model(rng, u, family)
    )
    table = x.truth_table(model)
    for mask in range(1 << len(u)):
        assert (table >> mask) & 1 == x.classify(model, x.Example.from_mask(u, mask))


def test_feature_column_pattern():
    for n in (1, 3, 10):
        for f in range(n):
            col = feature_column(f, n)
            for mask in range(1 << n):
                assert (col >> mask) & 1 == (mask >> f) & 1
        assert feature_column(n, n) == 0


def test_weight_planes_spell_popcount():
    for n in range(11):
        planes = weight_planes(n)
        assert all(0 < p < 1 << (1 << n) for p in planes)
        for mask in range(1 << n):
            weight = sum(((p >> mask) & 1) << i for i, p in enumerate(planes))
            assert weight == bin(mask).count("1")


@given(data=st.data(), log_width=st.integers(0, 10), size=st.integers(0, 64))
@settings(max_examples=150, deadline=None)
def test_counter_ge_matches_popcount(data, log_width, size):
    """Up to 64 ballots of weight up to 1100 (the unary clique gadgets
    reach 1039 elements) over columns of up to 2**10 positions, so counts
    carry through a dozen planes and more, at the thresholds that decide a
    vote: 0, 1, a majority, the total and one past it."""
    width = 1 << log_width
    full = (1 << width) - 1
    column = st.one_of(st.integers(0, full), st.sampled_from([0, full]))
    weight = st.one_of(st.integers(1, 5), st.integers(1, 1100))
    ballots = data.draw(st.lists(st.tuples(column, weight), min_size=size, max_size=size))
    counts = [0] * width
    for col, w in ballots:
        for pos, bit in enumerate(reversed(bin(col)[2:])):
            if bit == "1":
                counts[pos] += w
    total = sum(w for _, w in ballots)
    for threshold in (0, 1, total // 2 + 1, total, total + 1):
        got = counter_ge(ballots, threshold, full)
        want = sum(1 << pos for pos, count in enumerate(counts) if count >= threshold)
        assert got == want, threshold


@given(seed=st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_subcube_table_matches_classify(seed):
    rng = Random(seed)
    u = random_universe(rng, rng.randint(1, 6))
    model = random_any_model(rng, u)
    free = [f for f in range(len(u)) if rng.random() < 0.5]
    rng.shuffle(free)  # bit j of a completion belongs to free[j], in any order
    fixed = {f: rng.randint(0, 1) for f in range(len(u)) if f not in free}
    table = x.subcube_table(model, fixed, free)
    assert table >> (1 << len(free)) == 0
    for m in range(1 << len(free)):
        bits = [0] * len(u)
        for f, b in fixed.items():
            bits[f] = b
        for j, f in enumerate(free):
            bits[f] = (m >> j) & 1
        assert (table >> m) & 1 == x.classify(model, x.Example(u, tuple(bits)))


@given(seed=st.integers(0, 100_000), n=st.integers(1, 6), depth=st.integers(0, 5))
@settings(max_examples=80, deadline=None)
def test_every_family_tabulates_from_a_plain_dict(seed, n, depth):
    """``table(cols, full)`` reads nothing but ``cols[f]``: given a plain
    dict of fixed constants and free ``feature_column``s, every family's
    table holds ``evaluate``'s class of each completion.  The tree is a raw
    arena laid out root first, whose root's 1-child tests the root's
    feature again, above a random tree that may repeat tests too."""
    rng = Random(seed)
    u = random_universe(rng, n)
    raw = random_dt(rng, u, max_depth=depth)
    f = rng.randrange(n)
    k = len(raw.nodes)
    nodes = raw.nodes + (x.Leaf(rng.randint(0, 1)), x.Leaf(rng.randint(0, 1)),
                         x.Split(f, k, k + 1), x.Split(f, raw.root, k + 2))
    tree = relaid_arena(x.DecisionTree(u, nodes, k + 3), post=False)
    assert tree.root == 0 and not is_normalized(tree)
    models = [tree, x.Ensemble(u, (tree, random_dt(rng, u), tree)),
              random_model(rng, u, "ds"), random_model(rng, u, "dl"),
              x.translate(tree, rng.randint(0, 1))[0]]
    free = [g for g in range(n) if rng.random() < 0.5]
    rng.shuffle(free)
    fixed = {g: rng.randint(0, 1) for g in range(n) if g not in free}
    full = (1 << (1 << len(free))) - 1
    cols = {g: full if b else 0 for g, b in fixed.items()}
    cols.update((g, feature_column(j, len(free))) for j, g in enumerate(free))
    for model in models:
        table = model.table(cols, full)
        for m in range(1 << len(free)):
            bits = [0] * n
            for g, b in fixed.items():
                bits[g] = b
            for j, g in enumerate(free):
                bits[g] = (m >> j) & 1
            assert (table >> m) & 1 == model.evaluate(x.Example(u, tuple(bits)))


@given(seed=st.integers(0, 100_000), n=st.integers(1, 7))
@settings(max_examples=80, deadline=None)
def test_read_mask_is_enough(seed, n):
    """A family's table reads no column outside its ``_reads`` mask: with
    every other column replaced by a random int, the table of each family
    is unchanged: a raw and a normal-form tree, a set, a list, an ensemble
    of each family (the tree ensemble mixes raw and normal trees) and two
    circuits, one random and one translated."""
    rng = Random(seed)
    u = random_universe(rng, n)
    raw = relaid_arena(random_dt(rng, u), post=False)
    normal = x.normalize_dt(random_dt(rng, u))
    models = [raw, normal, random_model(rng, u, "ds"), random_model(rng, u, "dl"),
              x.Ensemble(u, (raw, normal, raw)), random_ensemble(rng, u, "ds"),
              random_ensemble(rng, u, "dl"), random_circuit(rng, u),
              x.translate(raw, rng.randint(0, 1))[0]]
    free = [f for f in range(n) if rng.random() < 0.7]
    rng.shuffle(free)
    fixed = {f: rng.randint(0, 1) for f in range(n) if f not in free}
    width = 1 << len(free)
    full = (1 << width) - 1
    cols = [0] * n
    for f, b in fixed.items():
        cols[f] = full if b else 0
    for j, f in enumerate(free):
        cols[f] = feature_column(j, len(free))
    for model in models:
        assert 0 <= model._reads < 1 << n
        noise = [col if model._reads >> f & 1 else rng.getrandbits(width + 1)
                 for f, col in enumerate(cols)]
        assert model.table(noise, full) == model.table(cols, full)


@given(seed=st.integers(0, 10_000), n=st.integers(0, 6))
@settings(max_examples=80, deadline=None)
def test_shared_ensemble_elements_count_every_copy(seed, n):
    """An ensemble holding one element object repeated and equal but
    distinct copies of it has one ballot for them all, with a vote per
    copy, and tabulates as the per-example vote and as the same ensemble
    built from distinct copies, whose ballots are the same."""
    rng = Random(seed)
    u = random_universe(rng, n)
    family = rng.choice(["dt", "ds", "dl"])
    m = random_model(rng, u, family)
    twins = [dataclasses.replace(m) for _ in range(rng.randint(0, 2))]
    assert all(t == m and t is not m for t in twins)
    others = [random_model(rng, u, family) for _ in range(rng.randint(0, 2))]
    elements = [m] * rng.randint(1, 6) + twins + others
    if len(elements) % 2 == 0:
        elements.append(constant_model(u, family, rng.randint(0, 1)))
    rng.shuffle(elements)
    ens = x.Ensemble(u, tuple(elements))
    distinct = x.Ensemble(u, tuple(dataclasses.replace(e) for e in elements))
    assert sum(votes for _, votes in ens._ballots) == len(elements)
    values = []  # the distinct values of elements, by first occurrence
    for e in elements:
        if e not in values:
            values.append(e)
    assert [b for b, _ in ens._ballots] == values
    assert [votes for _, votes in ens._ballots] == [elements.count(v) for v in values]
    assert distinct._ballots == ens._ballots
    assert ens == distinct

    free = [f for f in range(n) if rng.random() < 0.5]
    rng.shuffle(free)
    fixed = {f: rng.randint(0, 1) for f in range(n) if f not in free}
    origin = rng.getrandbits(n)
    table = x.subcube_table(ens, fixed, free, origin)
    for pos in range(1 << len(free)):
        bits = [0] * n
        for f, b in fixed.items():
            bits[f] = b
        for j, f in enumerate(free):
            bits[f] = ((pos >> j) & 1) ^ ((origin >> f) & 1)
        assert (table >> pos) & 1 == ens.evaluate(x.Example(u, tuple(bits)))
    assert table == x.subcube_table(distinct, fixed, free, origin)
    assert x.measure(ens) == x.measure(distinct)
    assert dump_model(ens) == dump_model(distinct)


def test_subcube_table_needs_a_partition():
    """fixed and free are distinct features of the universe that cover the
    ones the model reads: a repeated feature, one outside the universe, a
    missing read feature and a partition of the wrong types are refused, and
    so are fixed bits other than 0 and 1 (a model reads any true value as
    1, so {0: 2} would tabulate as {0: 1}).  A missing unread feature is
    accepted: it needs no bit and no column."""
    u = x.universe("a", "b")
    model = x.DecisionSet(u, (((0, 1),),), 0)  # reads feature 0 only
    for fixed, free in (({0: 1}, [0, 1]), ({}, [1]), ({}, []), ({}, [0, 1, 2]),
                        ({}, [1, 1]), ({}, [0, 0]), ({0: 1, 1: 0}, [1]), ({}, [-1, 0]),
                        ({0: 2}, [1]), ({0: -1}, [1]), ({0: 1}, ["a"]), ({True: 1}, []),
                        ([(0, 1)], [1]), ({0: 1}, None)):
        with pytest.raises(x.ModelError):
            x.subcube_table(model, fixed, free)
    assert x.subcube_table(model, {0: 1}, []) == 1
    assert x.subcube_table(model, {0: 0}, []) == 0
    assert x.subcube_table(model, {}, [0]) == 0b10
    assert x.subcube_table(model, {}, [0, 1]) == x.truth_table(model) == 0b1010


_E3 = x.Example(_U3, (0, 1, 0))


@pytest.mark.parametrize("call", [
    pytest.param(lambda: x.flip(_E3, [-1]), id="flip-negative"),
    pytest.param(lambda: x.flip(_E3, [3]), id="flip-past-universe"),
    pytest.param(lambda: x.flip(_E3, [0.5]), id="flip-half"),
    pytest.param(lambda: x.flip(_E3, [True]), id="flip-bool"),
    pytest.param(lambda: x.subcube_table(_TREE3, {}, [0, 1, 2], 0.5), id="origin-half"),
    pytest.param(lambda: x.subcube_table(_TREE3, {}, [0, 1, 2], -1), id="origin-negative"),
    pytest.param(lambda: x.subcube_table(_TREE3, {}, [0, 1, 2], True), id="origin-bool"),
    pytest.param(lambda: x.subcube_table(_TREE3, {}, [0, 1, 2], 8), id="origin-past-universe"),
])
def test_flipped_features_and_origin_are_refused_by_the_integer_rule(call):
    """``verify.flip``'s features and ``subcube_table``'s origin mask go
    through ``check_int``: a feature is an int of the universe, an origin
    an int mask of its features; a negative feature would flip from the
    end, a float would raise TypeError and a bool would read as 0 or 1."""
    with pytest.raises(x.ModelError):
        call()


def test_deep_path_tree_order_table_and_restriction():
    """A path of 1500 tests: ordering, tabulation and restriction walk it on
    explicit stacks."""
    depth = 1500
    u = x.FeatureUniverse(tuple(f"x{i}" for i in range(depth)))
    nodes = []
    for j in range(depth):  # test j at 2j, its 0-leaf at 2j + 1
        nodes += [x.Split(j, 2 * j + 1, 2 * j + 2), x.Leaf(0)]
    t = x.DecisionTree(u, tuple(nodes + [x.Leaf(1)]))
    assert x.respects_order(t, range(depth))
    assert not x.respects_order(t, range(depth - 1, -1, -1))
    # all but the last two features fixed at 1: class = x(d-2) and x(d-1)
    fixed = {f: 1 for f in range(depth - 2)}
    assert x.subcube_table(t, fixed, [depth - 2, depth - 1]) == 0b1000
    out = x.restrict_dt(t, x.PartialExample(u, tuple(fixed.items())))
    assert out.leaf_count() == 3


# a value of every record built per node, example, gate or model, and of the
# caps and gadget records: each a slotted frozen dataclass
_RECORDS = {
    "Leaf": lambda: x.Leaf(1),
    "Split": lambda: x.Split(0, 1, 2),
    "FeatureUniverse": lambda: x.universe("a", "b", "c"),
    "Example": lambda: x.Example(_U3, (0, 1, 1)),
    "PartialExample": lambda: x.PartialExample(_U3, ((2, 0), (0, 1))),
    "DecisionSet": lambda: x.DecisionSet(_U3, (((0, 1), (2, 0)),), 0),
    "DecisionList": lambda: x.DecisionList(_U3, ((((1, 1),), 1), ((), 0))),
    "ParamReport": lambda: x.ParamReport(terms_elem=1, model_size=3),
    "Gate": lambda: x.Gate("MAJ", (0, 1), 1),
    "Circuit": _circuit,
    "WidthCertificate": lambda: x.WidthCertificate(frozenset({1}), 6, "dl"),
    "BruteCaps": lambda: x.BruteCaps(verify=3),
    "SetFamily": lambda: x.SetFamily(_U3, (frozenset({0, 2}),)),
    "ColouredGraph": lambda: x.ColouredGraph((("p",), ("q",)), (("p", "q"),)),
    "Query": lambda: x.Query("phom", k=1),
    "GadgetInstance": lambda: x.GadgetInstance(_TREE3, (x.Query("hom"),), True, "tree", {}),
    "HomEquivalenceReport": lambda: x.HomEquivalenceReport((True, True), ((1, True, True),)),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_records_are_slotted_values(name):
    """No instance dict, and the same value as before: it refuses
    assignment, compares, hashes (but for a ``GadgetInstance``, whose meta
    is a dict) and prints equal to an equal value built anew, survives
    ``dataclasses.replace``, and a memo written with ``object.__setattr__``
    is no part of the value."""
    a, b = _RECORDS[name](), _RECORDS[name]()
    assert type(a) is getattr(x, name) and not hasattr(a, "__dict__")
    assert a is not b and a == b and repr(a) == repr(b)
    if name == "GadgetInstance":
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    first = dataclasses.fields(a)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(a, first, getattr(b, first))
    # a name that is no field has no slot; CPython's frozen slotted
    # __setattr__ refuses it with a TypeError
    with pytest.raises((AttributeError, TypeError)):
        a.extra = 1
    copy = dataclasses.replace(a)
    assert type(copy) is type(a) and copy == a and not hasattr(copy, "__dict__")
    if hasattr(a, "_zero_flip"):
        object.__setattr__(a, "_zero_flip", frozenset({0}))
        assert a._zero_flip == frozenset({0}) and a == b and hash(a) == hash(b)


def test_split_constructor_fills_its_fields():
    """``Split`` fills its three slots by its own ``__init__``: positional
    and keyword calls, ``replace`` and a pickle round trip give the fields
    they were given, in the dataclass's field order."""
    s = x.Split(2, 5, 7)
    assert (s.feature, s.lo, s.hi) == (2, 5, 7)
    assert x.Split(hi=7, feature=2, lo=5) == s and repr(s) == "Split(feature=2, lo=5, hi=7)"
    assert [f.name for f in dataclasses.fields(s)] == ["feature", "lo", "hi"]
    assert dataclasses.replace(s, lo=1) == x.Split(2, 1, 7)
    assert pickle.loads(pickle.dumps(s)) == s
    assert s != x.Split(2, 7, 5) and hash(s) == hash(x.Split(2, 5, 7))
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.lo = 1
    with pytest.raises(TypeError):
        x.Split(2, 5)
