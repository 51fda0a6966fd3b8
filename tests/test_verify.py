from __future__ import annotations

from functools import partial
from itertools import combinations
from math import comb
from random import Random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import xplain as x
from xplain.config import BruteCaps, CapExceeded
from xplain.core import is_normalized

from generators import (
    random_any_model,
    random_circuit,
    random_dl,
    random_dt,
    random_ensemble,
    random_example,
    random_model,
    random_universe,
    reindexed,
    widened,
    widened_example,
)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_flip_is_an_involution(seed):
    rng = Random(seed)
    u = random_universe(rng, rng.randint(1, 8))
    e = random_example(rng, u)
    subset = [f for f in range(len(u)) if rng.random() < 0.5]
    assert x.flip(x.flip(e, subset), subset) == e


class TestRestrict:
    def test_empty_assignment_keeps_tree(self):
        rng = Random(1)
        u = random_universe(rng, 5)
        t = x.normalize_dt(random_dt(rng, u))
        out = x.restrict_dt(t, x.PartialExample(u, ()))
        assert x.truth_table(out) == x.truth_table(t)
        assert out.leaf_count() == t.leaf_count()

    def test_total_assignment_leaves_single_path(self):
        rng = Random(2)
        u = random_universe(rng, 5)
        t = x.normalize_dt(random_dt(rng, u))
        e = random_example(rng, u)
        tau = x.PartialExample(u, tuple((f, e.bits[f]) for f in range(len(u))))
        out = x.restrict_dt(t, tau)
        labels = {n.label for n in out.nodes if isinstance(n, x.Leaf)}
        assert labels == {x.classify(t, e)}

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_agrees_on_every_extension(self, seed):
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 7))
        t = random_dt(rng, u)
        tau = x.PartialExample(
            u,
            tuple(
                (f, rng.randint(0, 1)) for f in range(len(u)) if rng.random() < 0.4
            ),
        )
        out = x.restrict_dt(t, tau)
        assert is_normalized(out)
        for mask in range(1 << len(u)):
            e = x.Example.from_mask(u, mask)
            if all(e[f] == b for f, b in tau.assignments):
                assert x.classify(out, e) == x.classify(t, e)

    def test_tau_over_another_universe_is_refused(self):
        # feature 0 of the wider universe is not the tree's feature 0
        u2, u3 = x.universe("a", "b"), x.universe("a", "b", "c")
        t = x.DecisionTree(u2, (x.Split(0, 1, 2), x.Leaf(0), x.Leaf(1)))
        with pytest.raises(x.ModelError):
            x.restrict_dt(t, x.PartialExample(u3, ((0, 1), (2, 1))))


class TestVerify:
    def test_fig_laxp(self, fig_dl, fig_example):
        assert x.verify(fig_dl, "laxp", fig_example, {1, 2})

    def test_full_feature_set_is_always_abductive(self):
        rng = Random(3)
        u = random_universe(rng, 5)
        for family in ("dt", "ds", "dl"):
            m = random_model(rng, u, family)
            e = random_example(rng, u)
            assert x.verify(m, "laxp", e, range(len(u)))

    def test_fig_global_candidates(self, fig_dl):
        u = fig_dl.universe
        tau1 = x.PartialExample(u, ((0, 1), (1, 1)))
        tau2 = x.PartialExample(u, ((0, 0), (2, 0)))
        assert x.verify(fig_dl, "gaxp", 0, tau1)
        assert x.verify(fig_dl, "gcxp", 0, tau2)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_tree_fast_path_equals_enumeration(self, seed):
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 6))
        t = random_dt(rng, u)
        e = random_example(rng, u)
        subset = frozenset(f for f in range(len(u)) if rng.random() < 0.5)
        for kind in ("laxp", "lcxp"):
            assert x.verify(t, kind, e, subset) == x.verify_by_enumeration(t, kind, e, subset)
        tau = x.PartialExample(u, tuple((f, rng.randint(0, 1)) for f in subset))
        c = rng.randint(0, 1)
        for kind in ("gaxp", "gcxp"):
            assert x.verify(t, kind, c, tau) == x.verify_by_enumeration(t, kind, c, tau)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_supersets_stay_explanations(self, seed):
        rng = Random(seed)
        u = random_universe(rng, rng.randint(2, 6))
        m = random_model(rng, u, rng.choice(["dt", "ds", "dl"]))
        e = random_example(rng, u)
        subset = frozenset(f for f in range(len(u)) if rng.random() < 0.4)
        extra = frozenset(f for f in range(len(u)) if rng.random() < 0.4)
        for kind in ("laxp", "lcxp"):
            if x.verify(m, kind, e, subset):
                assert x.verify(m, kind, e, subset | extra)

    def test_lcxp_verification_matches_oracle_existence(self):
        rng = Random(11)
        for _ in range(60):
            u = random_universe(rng, rng.randint(1, 6))
            m = random_model(rng, u, rng.choice(["dt", "ds", "dl"]))
            e = random_example(rng, u)
            exists = x.oracle_min(m, "lcxp", e) is not None
            assert x.verify(m, "lcxp", e, range(len(u))) == exists

    def test_lcxp_existence_at_twelve_features(self):
        rng = Random(12)
        for family in ("dt", "ds", "dl"):
            u = random_universe(rng, 12)
            m = random_model(rng, u, family)
            e = random_example(rng, u)
            exists = x.oracle_min(m, "lcxp", e) is not None
            assert x.verify(m, "lcxp", e, range(12)) == exists


class TestOracle:
    def test_fig_minimum_contrastive(self, fig_dl, fig_example):
        assert x.oracle_min(fig_dl, "lcxp", fig_example) == (1, frozenset({1}))

    def test_constant_model_abductive_is_empty(self):
        u = x.universe("a", "b")
        t = x.leaf_tree(u, 0)
        assert x.oracle_min(t, "laxp", x.Example(u, (1, 0))) == (0, frozenset())

    def test_constant_model_has_no_contrastive(self):
        u = x.universe("a", "b")
        t = x.leaf_tree(u, 0)
        assert x.oracle_min(t, "lcxp", x.Example(u, (1, 0))) is None

    def test_global_kinds_on_constant_model(self):
        u = x.universe("a", "b")
        t = x.leaf_tree(u, 0)
        found = x.oracle_min(t, "gaxp", 0)
        assert found == (0, x.PartialExample(u, ()))
        assert x.oracle_min(t, "gaxp", 1) is None
        assert x.oracle_min(t, "gcxp", 1) == (0, x.PartialExample(u, ()))
        assert x.oracle_min(t, "gcxp", 0) is None

    def test_witness_is_deterministic(self, fig_dl, fig_example):
        runs = {x.oracle_min(fig_dl, "lcxp", fig_example)[1] for _ in range(3)}
        assert runs == {frozenset({1})}


class TestSubsetMinCheck:
    def test_fig_tau1_minimal(self, fig_dl):
        tau1 = x.PartialExample(fig_dl.universe, ((0, 1), (1, 1)))
        assert x.oracle_subset_min_check(fig_dl, "gaxp", 0, tau1)

    def test_empty_candidate_when_it_verifies(self):
        u = x.universe("a", "b")
        t = x.leaf_tree(u, 0)
        assert x.oracle_subset_min_check(t, "laxp", x.Example(u, (0, 0)), frozenset())

    def test_full_set_is_not_minimal_somewhere(self):
        rng = Random(5)
        found_reducible = False
        for _ in range(40):
            u = random_universe(rng, rng.randint(2, 5))
            m = random_model(rng, u, rng.choice(["dt", "ds", "dl"]))
            if x.oracle_min(m, "lcxp", x.Example.from_mask(u, 0)) is None:
                continue  # constant model: full set is genuinely minimal
            e = random_example(rng, u)
            if not x.oracle_subset_min_check(
                m, "laxp", e, frozenset(range(len(u)))
            ):
                found_reducible = True
        assert found_reducible

    def test_non_verifying_candidate_reports_false(self, fig_dl, fig_example):
        assert not x.oracle_subset_min_check(
            fig_dl, "laxp", fig_example, frozenset({0})
        )


class TestCaps:
    def test_verify_cap(self):
        rng = Random(9)
        u = random_universe(rng, 8)
        m = random_dl(rng, u)
        tiny = BruteCaps(verify=3, oracle_local=3, oracle_global=3)
        with pytest.raises(CapExceeded):
            x.verify(m, "laxp", random_example(rng, u), set(), tiny)

    def test_oracle_cap(self):
        rng = Random(9)
        u = random_universe(rng, 8)
        m = random_dl(rng, u)
        tiny = BruteCaps(verify=3, oracle_local=3, oracle_global=3)
        with pytest.raises(CapExceeded):
            x.oracle_min(m, "laxp", random_example(rng, u), tiny)

    def test_flip_search_cap_counts_the_tabulated_features(self):
        """Twelve read features over a cap of ten: the flip table would have
        2**12 bits, and the 4083 flip sets of at most ten features exceed
        2**10, so k = 10 is refused before any work.  The 79 sets of at most
        two features are classified one by one.  A rule over all twelve
        features, ahead of the default, makes the list read every one."""
        rng = Random(9)
        u = random_universe(rng, 12)
        m = random_dl(rng, u)
        *rules, default = m.rules
        m = x.DecisionList(u, (*rules, (tuple((f, 1) for f in range(12)), 1 - default[1]),
                               default))
        assert m._reads == (1 << 12) - 1
        e = random_example(rng, u)
        small = BruteCaps(verify=10, oracle_local=10, oracle_global=10)
        with pytest.raises(CapExceeded):
            x.phom_check(m, 10, small)
        with pytest.raises(CapExceeded):
            x.lcxp_card_enum(m, e, 10, small)
        assert x.phom_check(m, 2, small) == x.phom_check(m, 2)
        assert x.lcxp_card_enum(m, e, 2, small) == x.lcxp_card_enum(m, e, 2)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_hom_check_matches_direct_scan(seed):
    rng = Random(seed)
    u = random_universe(rng, rng.randint(1, 6))
    family = rng.choice(["dt", "ds", "dl", "ens"])
    m = (
        random_ensemble(rng, u, rng.choice(["ds", "dl"]))
        if family == "ens"
        else random_model(rng, u, family)
    )
    base = x.classify(m, x.Example.from_mask(u, 0))
    expected = any(
        x.classify(m, x.Example.from_mask(u, mask)) != base
        for mask in range(1 << len(u))
    )
    assert x.hom_check(m) == expected
    for k in range(len(u) + 1):
        expected_k = any(
            x.classify(m, x.Example.from_mask(u, mask)) != base
            for mask in range(1 << len(u))
            if bin(mask).count("1") <= k
        )
        assert x.phom_check(m, k) == expected_k


def _brute_verify(model, kind: str, target, candidate) -> bool:
    """The definition of each kind, by classifying every example."""
    u = model.universe
    examples = [x.Example.from_mask(u, m) for m in range(1 << len(u))]
    if kind in ("laxp", "lcxp"):
        cls = x.classify(model, target)
        if kind == "laxp":
            agree = [e for e in examples if all(e[f] == target[f] for f in candidate)]
            return all(x.classify(model, e) == cls for e in agree)
        inside = [e for e in examples
                  if all(e[f] == target[f] for f in range(len(u)) if f not in candidate)]
        return any(x.classify(model, e) != cls for e in inside)
    classes = [x.classify(model, e) for e in examples
               if all(e[f] == b for f, b in candidate.assignments)]
    if kind == "gaxp":
        return all(c == target for c in classes)
    return all(c != target for c in classes)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_enumeration_verifier_matches_brute_force(seed):
    rng = Random(seed)
    u = random_universe(rng, rng.randint(1, 10))
    model = random_any_model(rng, u)
    e = random_example(rng, u)
    features = frozenset(f for f in range(len(u)) if rng.random() < 0.5)
    tau = x.PartialExample(u, tuple((f, rng.randint(0, 1)) for f in sorted(features)))
    c = rng.randint(0, 1)
    for kind, target, candidate in (("laxp", e, features), ("lcxp", e, features),
                                    ("gaxp", c, tau), ("gcxp", c, tau)):
        assert x.verify_by_enumeration(model, kind, target, candidate) == _brute_verify(
            model, kind, target, candidate
        ), (kind, model)


def _flip_model(rng: Random, max_features: int):
    """A model of any family over 1 to ``max_features`` features: a tree,
    set or list, an ensemble of one of them, or a circuit that is translated
    or random (its IN gates often miss some features)."""
    u = random_universe(rng, rng.randint(1, max_features))
    family = rng.choice(["dt", "ds", "dl", "ens", "translated", "random-circuit"])
    if family == "ens":
        return random_ensemble(rng, u, rng.choice(["dt", "ds", "dl"]))
    if family == "translated":
        source = random_model(rng, u, rng.choice(["dt", "ds", "dl"]))
        return x.translate(source, rng.randint(0, 1))[0]
    if family == "random-circuit":
        return random_circuit(rng, u)
    return random_model(rng, u, family)


def _first_flip_by_classify(model, e, k: int):
    """The first flip set of at most k features changing e's class, by size
    and then lexicographically, over every feature of the universe, by
    classifying each flipped example."""
    n = len(model.universe)
    cls = x.classify(model, e)
    for size in range(1, min(k, n) + 1):
        for subset in combinations(range(n), size):
            if x.classify(model, x.flip(e, subset)) != cls:
                return frozenset(subset)
    return None


@given(seed=st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_flip_engine_matches_classify(seed):
    """first_flip, lcxp_card_enum and phom_check on all five families, under
    the default cap (the flip table) and under a random smaller one (the
    guarded enumeration, or a refusal that the cap rule predicts)."""
    rng = Random(seed)
    m = _flip_model(rng, 7)
    u = m.universe
    e = random_example(rng, u)
    zero = x.Example(u, (0,) * len(u))
    k = rng.randint(0, len(u) + 1)
    expected = _first_flip_by_classify(m, e, k)
    expected_hom = _first_flip_by_classify(m, zero, k) is not None
    assert x.first_flip(m, e, k) == expected
    assert x.lcxp_card_enum(m, e, k) == expected
    assert x.phom_check(m, k) == expected_hom

    cap = rng.randint(0, len(u))
    small = BruteCaps(verify=cap, oracle_local=cap, oracle_global=cap)
    d = m._reads.bit_count()  # the flip domain: the features the model reads
    if d <= cap or sum(comb(d, i) for i in range(min(k, d) + 1)) <= 2**cap:
        assert x.first_flip(m, e, k, small) == expected
        assert x.lcxp_card_enum(m, e, k, small) == expected
        assert x.phom_check(m, k, small) == expected_hom
    else:
        for call in (lambda: x.first_flip(m, e, k, small),
                     lambda: x.lcxp_card_enum(m, e, k, small),
                     lambda: x.phom_check(m, k, small)):
            with pytest.raises(CapExceeded):
                call()


# ---------------------------------------------------------------------------
# the least zero flip, kept on the model
# ---------------------------------------------------------------------------


def _memo_model(seed: int):
    """The model of ``_flip_model`` over up to 8 features for a seed, built
    anew on each call."""
    return _flip_model(Random(seed), 8)


def _zero_flip_queries(n: int):
    """(name, call) of every question the least zero flip answers."""
    def zero(m):
        return x.Example(m.universe, (0,) * n)
    yield "hom", x.hom_check
    for k in range(n + 1):
        yield f"phom-{k}", lambda m, k=k: x.phom_check(m, k)
        yield f"first_flip-{k}", lambda m, k=k: x.first_flip(m, zero(m), k)
        yield f"lcxp_card_enum-{k}", lambda m, k=k: x.lcxp_card_enum(m, zero(m), k)


@given(seed=st.integers(0, 10_000), order=st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_least_zero_flip_does_not_depend_on_call_history(seed, order):
    """Each question asked of a cold model (built anew for it) and of one
    warm model (asked every question, in a random order) gets the same
    answer, and that is the oracle's minimum contrastive set of the
    all-zero example."""
    n = len(_memo_model(seed).universe)
    queries = list(_zero_flip_queries(n))
    cold = {name: call(_memo_model(seed)) for name, call in queries}
    order.shuffle(queries)
    warm_model = _memo_model(seed)
    warm = {name: call(warm_model) for name, call in queries}
    assert warm == cold
    least = x.oracle_min(warm_model, "lcxp", x.Example(warm_model.universe, (0,) * n))
    assert cold["hom"] == (least is not None)
    for k in range(n + 1):
        flip_k = least[1] if least is not None and least[0] <= k else None
        assert cold[f"phom-{k}"] == (flip_k is not None)
        assert cold[f"first_flip-{k}"] == flip_k
        assert cold[f"lcxp_card_enum-{k}"] == flip_k


def _cap_message(call) -> str:
    with pytest.raises(CapExceeded) as refused:
        call()
    return str(refused.value)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_a_warm_model_refuses_and_enumerates_as_a_cold_one(seed):
    """Under a cap one below the flip domain (the features the model
    reads), ``hom`` is refused with the same message whether or not the
    least zero flip is kept, and ``phom`` takes the guarded enumeration:
    with the kept value poisoned, it still answers as on a cold model.  A
    model that reads no feature is never refused."""
    m = _memo_model(seed)
    d = m._reads.bit_count()
    assume(d > 0)
    small = BruteCaps(verify=d - 1, oracle_local=d - 1, oracle_global=d - 1)
    k = (d - 1) // 2  # at most 2**(d - 1) flip sets: the enumeration runs
    cold_message = _cap_message(lambda: x.hom_check(_memo_model(seed), small))
    cold_phom = x.phom_check(_memo_model(seed), k, small)
    x.hom_check(m)  # the default cap tabulates and keeps the least zero flip
    assert m._zero_flip is not None
    assert _cap_message(lambda: x.hom_check(m, small)) == cold_message
    assert x.phom_check(m, k, small) == cold_phom
    object.__setattr__(m, "_zero_flip", frozenset() if m._zero_flip else frozenset({0}))
    assert x.phom_check(m, k, small) == cold_phom


@given(seed=st.integers(0, 10_000), data=st.data())
@settings(max_examples=150, deadline=None)
def test_least_zero_flip_is_read_only_for_the_zero_example(seed, data):
    """With the kept value poisoned, ``first_flip`` of an example that is
    not all zero, or with features held, answers as on a fresh model."""
    m = _memo_model(seed)
    n = len(m.universe)
    mask = data.draw(st.integers(0, (1 << n) - 1))
    held = data.draw(st.sets(st.integers(0, n - 1)))
    if not (mask or held):
        held = {0}
    e = x.Example.from_mask(m.universe, mask)
    k = data.draw(st.integers(1, n))
    object.__setattr__(m, "_zero_flip", frozenset({-1}))  # no flip set of any model
    assert x.first_flip(m, e, k, fixed=held) == x.first_flip(_memo_model(seed), e, k, fixed=held)


def test_a_model_value_without_the_field_keeps_its_least_zero_flip():
    """A value with a model's methods and mask but no ``_zero_flip`` field
    is answered as the model it wraps, and keeps its least zero flip."""
    u = x.universe("a", "b")
    inner = x.DecisionSet(u, (((1, 1),),), 0)

    class Wrapped:
        universe, _reads = u, inner._reads
        evaluate, table, params = inner.evaluate, inner.table, inner.params

    m = Wrapped()
    assert (x.hom_check(m), x.phom_check(m, 0), x.phom_check(m, 1)) == (True, False, True)
    assert m._zero_flip == frozenset({1})


# ---------------------------------------------------------------------------
# the support rule: engine tables and caps cover the features a model reads
# ---------------------------------------------------------------------------


def _support_answers(m, e, k, held, local, tau) -> dict:
    """name -> answer of every engine entry that tabulates a model: the
    homogeneity checks and flip searches, the hitting-set search and the
    greedy shrinks, and ``verify`` of all four kinds."""
    out = {"hom": x.hom_check(m), "phom": x.phom_check(m, k),
           "first_flip": x.first_flip(m, e, k),
           "first_flip-held": x.first_flip(m, e, k, fixed=held),
           "lcxp_card_enum": x.lcxp_card_enum(m, e, k),
           "card-laxp": x.card_xp_search(m, "laxp", e, k),
           "laxp_rules_subset_min": x.laxp_rules_subset_min(m, e)}
    for kind in ("laxp", "lcxp"):
        out[f"verify-{kind}"] = x.verify(m, kind, e, local)
    for c in (0, 1):
        out[f"gaxp_subset_min-{c}"] = x.gaxp_subset_min(m, c)
        out[f"gcxp_subset_min-{c}"] = x.gcxp_subset_min(m, c)
        for kind in ("gaxp", "gcxp"):
            out[f"card-{kind}-{c}"] = x.card_xp_search(m, kind, c, k)
            out[f"verify-{kind}-{c}"] = x.verify(m, kind, c, tau)
    return out


@given(seed=st.integers(0, 10_000), extra=st.integers(0, 34))
@example(seed=0, extra=1000)
@settings(max_examples=150, deadline=None)
def test_unread_features_change_no_answer(seed, extra):
    """A model of any family, a tree ensemble included, re-indexed onto a
    universe of up to 40 features, or of about 1000 in the explicit
    example, where the new ones are unread, gives every answer of the
    original, mapped onto the new positions: past the verify cap of 24 as
    well, since a table and its cap cover only the read features.  The requests on the wide model carry random bits, held
    features and candidate features on the unread ones too."""
    rng = Random(seed)
    m = _flip_model(rng, 6)
    n = len(m.universe)
    wide, pos = reindexed(rng, m, extra)
    wu = wide.universe
    unread = [f for f in range(len(wu)) if f not in pos]
    assert wide._reads == sum(1 << pos[f] for f in range(n) if m._reads >> f & 1)
    e = random_example(rng, m.universe)
    k = rng.randint(0, n)
    held = frozenset(f for f in range(n) if rng.random() < 0.3)
    local = frozenset(f for f in range(n) if rng.random() < 0.5)
    tau = x.PartialExample(m.universe, tuple((f, rng.randint(0, 1)) for f in range(n)
                                             if rng.random() < 0.5))
    some = [f for f in unread if rng.random() < 0.5]  # unread features a request names
    wide_tau = x.PartialExample.from_dict(
        wu, {**widened(tau, pos, wu).as_dict(), **{f: rng.randint(0, 1) for f in some}})
    expected = {name: widened(answer, pos, wu)
                for name, answer in _support_answers(m, e, k, held, local, tau).items()}
    assert _support_answers(wide, widened_example(rng, e, pos, wu), k,
                            widened(held, pos, wu) | set(some),
                            widened(local, pos, wu) | set(some), wide_tau) == expected


def test_sparse_set_at_the_cap_tabulates_its_read_features():
    """``phom_check(m, 24)`` on a 4-term set that reads 16 of its 24
    features builds a flip table of 2**16 bits, not 2**24: its peak stays
    far under 32 MB (a table over all 24 features peaked at 42.7 MB)."""
    import tracemalloc

    u = random_universe(Random(0), 24)
    terms = tuple(tuple((f, 1) for f in range(4 * t, 4 * t + 4)) for t in range(4))
    m = x.DecisionSet(u, terms, 0)
    assert m._reads.bit_count() == 16
    tracemalloc.start()
    try:
        assert x.phom_check(m, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def _width_routes(u: x.FeatureUniverse, p: list[int], e, local, tau) -> dict:
    """name -> answer of every route on a 3-rule list and a 3-split tree
    over u that read the features p."""
    dl = x.DecisionList(u, ((((p[0], 1),), 1), (((p[1], 1), (p[2], 0)), 0),
                            (((p[2], 1),), 0), ((), 1)))
    t = x.DecisionTree(u, (x.Leaf(0), x.Leaf(1), x.Split(p[1], 0, 1), x.Leaf(1), x.Leaf(0),
                           x.Split(p[2], 3, 4), x.Split(p[0], 2, 5)), 6)
    out = {f"verify-{kind}": x.verify(dl, kind, e, local) for kind in ("laxp", "lcxp")}
    for kind in ("gaxp", "gcxp"):
        out[f"verify-{kind}"] = x.verify(dl, kind, 1, tau)
    out.update({"hom": x.hom_check(dl), "phom-2": x.phom_check(dl, 2),
                "lcxp_card_enum": x.lcxp_card_enum(dl, e, 3),
                "lcxp_card_branch": x.lcxp_card_branch(dl, e, 3),
                "laxp_rules_subset_min": x.laxp_rules_subset_min(dl, e),
                "card-laxp": x.card_xp_search(dl, "laxp", e, 3),
                "card-gaxp": x.card_xp_search(dl, "gaxp", 1, 3),
                "gaxp_subset_min": x.gaxp_subset_min(dl, 1),
                "tree-verify-lcxp": x.verify(t, "lcxp", e, local),
                "tree-lcxp_min": x.lcxp_min(t, e),
                "tree-gaxp_subset_min": x.gaxp_subset_min(t, 1),
                "tree-translate": x.translate(t, 1)})
    return out


def test_a_request_stays_linear_in_the_universe(monkeypatch):
    """A 3-rule list and a 3-split tree over 100 000 features that read 3 of
    them give every route the answer of the same models over just those 3,
    mapped back, and all routes together take under 1.5 s (about 5 s on a
    2-core host when a mask was read one shift per feature).  Every engine
    table and every seeded tree walk sees only the read features, the fixed
    ones included; the requests fix or name unread features too."""
    import sys
    import time
    from dataclasses import replace

    n = 100_000
    pos = [3, n // 2 + 1, n - 4]
    small = x.universe("a", "b", "c")
    e = x.Example(small, (0, 1, 0))
    expected = _width_routes(small, [0, 1, 2], e, frozenset({0, 2}),
                             x.PartialExample(small, ((0, 1),)))
    wu = random_universe(Random(0), n)
    circuit, cert = expected["tree-translate"]
    gates = tuple(replace(g, feature=pos[g.feature]) if g.kind == "IN" else g
                  for g in circuit.gates)
    expected = {name: widened(answer, pos, wu) for name, answer in expected.items()}
    expected["tree-translate"] = (x.Circuit(wu, gates, circuit.output), cert)
    bits = [f % 2 for f in range(n)]
    for f, b in zip(pos, e.bits):
        bits[f] = b
    seen: set = set()  # every feature an engine table or a seeded tree walk got
    module = sys.modules["xplain.verify"]
    table, walk = module.subcube_table, module._leaf_paths

    def recording_table(model, fixed, free, origin=0):
        seen.update(fixed, free)
        return table(model, fixed, free, origin)

    def recording_walk(t, seed=()):
        seen.update(f for f, _ in seed)
        return walk(t, seed)

    monkeypatch.setattr(module, "subcube_table", recording_table)
    monkeypatch.setattr(module, "_leaf_paths", recording_walk)
    started = time.perf_counter()
    got = _width_routes(wu, pos, x.Example(wu, tuple(bits)), frozenset({pos[0], pos[2], 10, 11}),
                        x.PartialExample(wu, ((pos[0], 1), (10, 1))))
    assert time.perf_counter() - started < 1.5
    assert got == expected
    assert seen <= set(pos)


# ---------------------------------------------------------------------------
# requests that do not fit the model
# ---------------------------------------------------------------------------

_U = x.universe("a", "b")
_E = x.Example(_U, (0, 1))
_TAU = x.PartialExample(_U, ((0, 1),))
_TREE = x.DecisionTree(_U, (x.Split(0, 1, 2), x.Leaf(0), x.Leaf(1)))
_SET = x.DecisionSet(_U, (((0, 1),),), 0)
_SET_ENSEMBLE = x.Ensemble(_U, (_SET,) * 3)
_U3 = x.universe("a", "b", "c")
_BAD_LOCAL_TARGETS = {  # id -> a target no local kind takes on a model over _U
    "int": 1, "none": None, "partial": _TAU, "foreign": x.Example(_U3, (0, 1, 1))}
_BAD_GLOBAL_TARGETS = {"two": 2, "minus-one": -1, "none": None, "example": _E}
_BAD_LOCAL_CANDIDATES = {"partial": _TAU, "outside": {2}, "negative": {-1}, "int": 0}
_BAD_GLOBAL_CANDIDATES = {"foreign": x.PartialExample(_U3, ((2, 1),)), "set": {0}}
_BAD_BUDGETS = {"bool": True, "none": None, "float": 1.5, "str": "1"}  # not ints
_BAD_HELD = {"past": 99, "str": "a", "negative": -1, "float": 1.5, "bool": True,
             "zero-float": 0.0}  # held features that are no feature of _U
_BAD_BUDGET_QUERIES = {  # id suffix -> a gadget query whose budget is no int
    "-lcxp-k-float": x.Query("lcxp", _E, 1.5),
    "-laxp-k-none": x.Query("laxp", _E),
    "-phom-k-none": x.Query("phom")}


def _misfits():
    """(id, call) per entry and request that does not fit the model."""
    local, bad_local = ("laxp", "lcxp"), _BAD_LOCAL_TARGETS.items()
    bad_global = _BAD_GLOBAL_TARGETS.items()
    for label, m in (("tree", _TREE), ("set", _SET)):
        for f in (x.verify, x.verify_by_enumeration, x.shrink, x.oracle_subset_min_check):
            name = f"{f.__name__}-{label}"
            yield f"{name}-kind", partial(f, m, "xaxp", _E, {0})
            for kind in local:
                for bad, target in bad_local:
                    yield f"{name}-{kind}-target-{bad}", partial(f, m, kind, target, {0})
                for bad, cand in _BAD_LOCAL_CANDIDATES.items():
                    yield f"{name}-{kind}-candidate-{bad}", partial(f, m, kind, _E, cand)
            for kind in ("gaxp", "gcxp"):
                for bad, target in bad_global:
                    yield f"{name}-{kind}-target-{bad}", partial(f, m, kind, target, _TAU)
                for bad, cand in _BAD_GLOBAL_CANDIDATES.items():
                    yield f"{name}-{kind}-candidate-{bad}", partial(f, m, kind, 1, cand)
        for f, rest, kinds in ((x.oracle_min, (), local), (x.card_xp_search, (1,), ("laxp",))):
            name = f"{f.__name__}-{label}"
            yield f"{name}-kind", partial(f, m, "xaxp", _E, *rest)
            for kind in kinds:
                for bad, target in bad_local:
                    yield f"{name}-{kind}-target-{bad}", partial(f, m, kind, target, *rest)
            for kind in ("gaxp", "gcxp"):
                for bad, target in bad_global:
                    yield f"{name}-{kind}-target-{bad}", partial(f, m, kind, target, *rest)
        yield f"card_xp_search-{label}-lcxp", partial(x.card_xp_search, m, "lcxp", _E, 1)
        yield f"card_xp_search-{label}-k", partial(x.card_xp_search, m, "gaxp", 1, -1)
        for bad, k in _BAD_BUDGETS.items():
            yield f"card_xp_search-{label}-k-{bad}", partial(x.card_xp_search, m, "gaxp", 1, k)
            for f in (x.lcxp_card_enum, x.first_flip):
                yield f"{f.__name__}-{label}-k-{bad}", partial(f, m, _E, k)
            yield f"phom_check-{label}-k-{bad}", partial(x.phom_check, m, k)
        for bad, q in _BAD_BUDGET_QUERIES.items():
            yield f"answer_query-{label}{bad}", partial(x.answer_query, m, q)
        for f in (x.gaxp_subset_min, x.gcxp_subset_min):
            for bad, target in bad_global:
                yield f"{f.__name__}-{label}-target-{bad}", partial(f, m, target)
        for f in (x.lcxp_card_enum, x.first_flip):
            for bad, target in bad_local:
                yield f"{f.__name__}-{label}-target-{bad}", partial(f, m, target, 1)
            yield f"{f.__name__}-{label}-k", partial(f, m, _E, -1)
        yield f"phom_check-{label}-k", partial(x.phom_check, m, -1)
        for bad, held in _BAD_HELD.items():
            yield f"first_flip-{label}-held-{bad}", partial(x.first_flip, m, _E, 1, fixed=[held])
    for bad, target in bad_local:
        for f in (x.laxp_subset_min, x.lcxp_min):
            yield f"{f.__name__}-target-{bad}", partial(f, _TREE, target)
        yield f"laxp_rules_subset_min-target-{bad}", partial(
            x.laxp_rules_subset_min, _SET, target)
        yield f"lcxp_card_branch-target-{bad}", partial(x.lcxp_card_branch, _SET, target, 1)
        yield f"lcxp_card_branch_ens-target-{bad}", partial(
            x.lcxp_card_branch_ens, _SET_ENSEMBLE, target, 1)
    yield "lcxp_card_branch-k", partial(x.lcxp_card_branch, _SET, _E, -1)
    yield "lcxp_card_branch_ens-k", partial(x.lcxp_card_branch_ens, _SET_ENSEMBLE, _E, -1)
    budget_search = x.gadgets.global_budget_search_dt
    for bad, k in _BAD_BUDGETS.items():
        yield f"lcxp_card_branch-k-{bad}", partial(x.lcxp_card_branch, _SET, _E, k)
        yield f"lcxp_card_branch_ens-k-{bad}", partial(
            x.lcxp_card_branch_ens, _SET_ENSEMBLE, _E, k)
        yield f"global_budget_search_dt-k-{bad}", partial(budget_search, _TREE, "gaxp", 1, k)
    for bad, target in bad_global:
        yield f"global_budget_search_dt-target-{bad}", partial(
            budget_search, _TREE, "gaxp", target, 1)
    yield "global_budget_search_dt-laxp", partial(budget_search, _TREE, "laxp", _E, 1)


@pytest.mark.parametrize("call", [pytest.param(c, id=i) for i, c in _misfits()])
def test_request_that_does_not_fit_is_refused(call):
    """Every explanation entry refuses, with ModelError, a request that does
    not fit the model: an unknown kind, a local target that is no example
    over the model's universe, a global target outside {0, 1}, a candidate
    that is not the kind's over that universe, a budget that is no
    nonnegative int (a bool, None, a float or a string), or a held feature
    of ``first_flip`` that is no feature of the universe."""
    with pytest.raises(x.ModelError):
        call()
