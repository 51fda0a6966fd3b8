"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria complete.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from itertools import combinations
from random import Random

import xplain as x
from xplain import truth

from generators import (
    random_coloured_graph,
    random_dl,
    random_dnf,
    random_ds,
    random_dt,
    random_ensemble,
    random_example,
    random_hitting_set,
    random_model,
    random_universe,
)

# branching counters collected by criterion 2 and judged by criterion 7:
# (term_size, budget, explored branch count) per target rule / rule tuple
BRANCH_RECORDS: list[tuple[int, int, int]] = []


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {label} ({time.time() - started:.1f}s)")
        raise
    elapsed = time.time() - started
    print(f"ACCEPTANCE {number} PASS: {label} ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def _record_branch(stats: x.BranchStats) -> None:
    BRANCH_RECORDS.extend(
        (stats.term_size, stats.budget, nodes) for _, nodes in stats.per_target
    )


def test_criterion_1_worked_example(fig_dl, fig_example):
    with criterion(1, "worked-example goldens", 1.0):
        u = fig_dl.universe
        assert x.classify(fig_dl, fig_example) == 0
        # the only abductive explanation of size <= 2 is {y, z}: enumerate
        # all 7 candidates of that size
        good = []
        for size in (0, 1, 2):
            for subset in combinations(range(3), size):
                if x.verify(fig_dl, "laxp", fig_example, subset):
                    good.append(frozenset(subset))
        assert good == [frozenset({1, 2})]
        # {y} and {z} are subset-minimal contrastive explanations
        for f in (1, 2):
            assert x.oracle_subset_min_check(
                fig_dl, "lcxp", fig_example, frozenset({f})
            )
        tau1 = x.PartialExample(u, ((0, 1), (1, 1)))  # x=1, y=1
        tau2 = x.PartialExample(u, ((0, 0), (2, 0)))  # x=0, z=0
        assert x.oracle_subset_min_check(fig_dl, "gaxp", 0, tau1)
        assert x.oracle_subset_min_check(fig_dl, "gcxp", 0, tau2)


def _check_dt(rng: Random, u, t, e):
    n = len(u)
    expected = x.oracle_min(t, "lcxp", e)
    for algo in (x.lcxp_min(t, e), x.lcxp_card_enum(t, e, n)):
        assert algo == (None if expected is None else expected[1])
    for kind, target in (("laxp", e), ("gaxp", rng.randint(0, 1)),
                         ("gcxp", rng.randint(0, 1))):
        witness = x.card_xp_search(t, kind, target, n)
        oracle = x.oracle_min(t, kind, target)
        if oracle is None:
            assert witness is None
        else:
            size = (len(witness) if isinstance(witness, frozenset)
                    else len(witness.assignments))
            assert size == oracle[0]
    assert x.oracle_subset_min_check(t, "laxp", e, x.laxp_subset_min(t, e))
    for kind, algo in (("gaxp", x.gaxp_subset_min), ("gcxp", x.gcxp_subset_min)):
        c = rng.randint(0, 1)
        tau = algo(t, c)
        if tau is not None:
            assert x.oracle_subset_min_check(t, kind, c, tau)


def _check_rules(rng: Random, u, model, e):
    n = len(u)
    stats = x.BranchStats()
    found = x.lcxp_card_branch(model, e, n, stats)
    _record_branch(stats)
    expected = x.oracle_min(model, "lcxp", e)
    enum = x.lcxp_card_enum(model, e, n)
    for algo in (found, enum):
        if expected is None:
            assert algo is None
        else:
            assert algo is not None and len(algo) == expected[0]
    greedy = x.laxp_rules_subset_min(model, e)
    assert x.oracle_subset_min_check(model, "laxp", e, greedy)


def _check_ensemble(rng: Random, u, ens, e):
    n = len(u)
    expected = x.oracle_min(ens, "lcxp", e)
    algos = [x.lcxp_card_enum(ens, e, n)]
    if ens.family in ("ds", "dl"):
        stats = x.BranchStats()
        algos.append(x.lcxp_card_branch_ens(ens, e, n, stats))
        _record_branch(stats)
    for algo in algos:
        if expected is None:
            assert algo is None
        else:
            assert algo is not None and len(algo) == expected[0]


def test_criterion_2_oracle_equivalence():
    with criterion(2, "oracle equivalence on 4x1000 random models", 300.0):
        rng = Random(20_240_101)
        for i in range(1000):
            u = random_universe(rng, rng.randint(2, 10))
            _check_dt(rng, u, random_dt(rng, u), random_example(rng, u))
        for i in range(1000):
            u = random_universe(rng, rng.randint(2, 10))
            _check_rules(rng, u, random_ds(rng, u), random_example(rng, u))
        for i in range(1000):
            u = random_universe(rng, rng.randint(2, 10))
            _check_rules(rng, u, random_dl(rng, u), random_example(rng, u))
        for i in range(1000):
            u = random_universe(rng, rng.randint(2, 10))
            family = ("dt", "ds", "dl")[i % 3]
            ens = random_ensemble(rng, u, family, rng.choice([1, 3]))
            _check_ensemble(rng, u, ens, random_example(rng, u))
        assert BRANCH_RECORDS, "branching statistics must have been collected"


def test_criterion_3_product_tree():
    with criterion(3, "ensemble-to-tree product on 200 tree triples", 60.0):
        rng = Random(30_303)
        for _ in range(200):
            u = random_universe(rng, rng.randint(1, 8))
            ens = random_ensemble(rng, u, "dt", 3)
            product = x.product_dt(ens)
            assert x.truth_table(product) == x.truth_table(ens)
            bound = 1
            for t in ens.elements:
                bound *= t.leaf_count()
            assert product.leaf_count() <= bound


def test_criterion_4_translation_soundness():
    with criterion(4, "circuit translation soundness on 5x200 models", 120.0):
        rng = Random(44_444)

        def check(model, translate, want_maj):
            n = len(model.universe)
            full = (1 << (1 << n)) - 1
            table = x.truth_table(model)
            for c in (0, 1):
                circuit, cert = translate(model, c)
                want = table if c == 1 else full ^ table
                assert x.truth_table(circuit) == want
                assert x.certificate_holds(circuit, cert)
                assert circuit.maj_count == want_maj

        for _ in range(200):
            u = random_universe(rng, rng.randint(1, 10))
            check(random_dt(rng, u), x.translate, 0)
        for _ in range(200):
            u = random_universe(rng, rng.randint(1, 10))
            check(random_ds(rng, u), x.translate, 0)
        for _ in range(200):
            u = random_universe(rng, rng.randint(1, 10))
            check(random_dl(rng, u), x.translate, 0)
        for _ in range(200):
            u = random_universe(rng, rng.randint(1, 10))
            check(random_ensemble(rng, u, "dt", 3), x.translate, 1)
        for i in range(200):
            u = random_universe(rng, rng.randint(1, 10))
            family = ("ds", "dl")[i % 2]
            check(random_ensemble(rng, u, family, 3), x.translate, 1)


def _check_instance(inst: x.GadgetInstance) -> None:
    model = inst.model
    if isinstance(model, x.Ensemble):
        assert len(model.elements) % 2 == 1
        trees = [m for m in model.elements if isinstance(m, x.DecisionTree)]
    else:
        trees = [model] if isinstance(model, x.DecisionTree) else []
    order = inst.meta.get("order")
    if order is not None:
        ranks = tuple(model.universe.index(f) for f in order)
        for t in trees:
            assert x.respects_order(t, ranks)
    for q in inst.queries:
        assert x.answer_query(model, q) == inst.truth


def test_criterion_5_gadget_truth():
    with criterion(5, "gadget answers equal source-problem truth", 300.0):
        rng = Random(55_555)
        graphs = []
        for i in range(100):
            k = (2, 2, 3, 3, 4)[i % 5]
            n = rng.randint(k, 12 if k < 4 else 9)
            graphs.append(random_coloured_graph(rng, n, k, edge_p=rng.random()))
        for i, g in enumerate(graphs):
            mode = ("set", "subset")[i % 2]
            _check_instance(x.mcc_ensemble_gadget(g, g.k, mode, family="ds"))
            _check_instance(
                x.mcc_unary_ensemble_gadget(g, g.k, mode, family="dl")
            )
            _check_instance(x.mcc_odt_gaxp_gadget(g, g.k))
        for i in range(100):
            elements, sets = random_hitting_set(
                rng, rng.randint(1, 10), rng.randint(1, 5)
            )
            mode = ("set-odt", "subset-ds", "subset-dl")[i % 3]
            inst = x.hitting_set_gadget(elements, sets, rng.randint(0, 3), mode)
            _check_instance(inst)
            zero = x.Example(inst.model.universe, (0,) * len(inst.model.universe))
            best = x.oracle_min(inst.model, "laxp", zero)
            assert best[0] == truth.min_hitting_set_size(sets)
        for i in range(100):
            terms, variables = random_dnf(
                rng, rng.randint(1, 10), rng.randint(1, 5), zero_sat=(i % 4 != 0)
            )
            inst = x.taut_ds_gadget(terms, variables)
            if inst.meta.get("trivial_no"):
                assert inst.truth and not inst.queries
            else:
                _check_instance(inst)


def test_criterion_6_hom_equivalences():
    with criterion(6, "homogeneity equivalences on 500 models", 120.0):
        rng = Random(66_666)
        for i in range(500):
            u = random_universe(rng, rng.randint(1, 8))
            kind = ("dt", "ds", "dl", "ens", "circuit")[i % 5]
            if kind == "ens":
                model = random_ensemble(
                    rng, u, rng.choice(["dt", "ds", "dl"]), rng.choice([1, 3])
                )
            elif kind == "circuit":
                from generators import random_circuit

                model = random_circuit(rng, u)
            else:
                model = random_model(rng, u, kind)
            report = x.hom_equivalence_suite(model)
            assert report.all_equal
            assert report.khom_equal


def test_criterion_7_branching_budget():
    with criterion(7, "branch counts within term_size**budget", 10.0):
        assert BRANCH_RECORDS, "criterion 2 must run first and feed the records"
        for term_size, budget, count in BRANCH_RECORDS:
            assert count <= term_size**budget
