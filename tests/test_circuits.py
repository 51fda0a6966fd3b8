from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import xplain as x
from xplain.circuits import circuit_table
from xplain.core import feature_column
from xplain.modelio import circuit_from_json, circuit_to_json, dump_model

from generators import (
    alternating_dl,
    leaf_assignments,
    permuted_arena,
    random_circuit,
    random_dl,
    random_ds,
    random_dt,
    random_ensemble,
    random_example,
    random_model,
    random_universe,
    unary_clique_gadget,
)


def _sound(model, c, circuit) -> bool:
    n = len(model.universe)
    mtable = x.truth_table(model)
    ctable = circuit_table(circuit)
    full = (1 << (1 << n)) - 1
    want = mtable if c == 1 else (full ^ mtable)
    return ctable == want


class TestEval:
    def test_pass_through_or(self):
        u = x.universe("a")
        circ = x.Circuit(u, (x.Gate("IN", feature=0), x.Gate("OR", (0,))), 1)
        assert x.classify(circ, x.Example(u, (0,))) == 0
        assert x.classify(circ, x.Example(u, (1,))) == 1

    def test_majority_threshold(self):
        u = x.universe("a", "b", "c")
        circ = x.Circuit(
            u,
            (
                x.Gate("IN", feature=0),
                x.Gate("IN", feature=1),
                x.Gate("IN", feature=2),
                x.Gate("MAJ", (0, 1, 2), threshold=2),
            ),
            3,
        )
        assert x.classify(circ, x.Example(u, (1, 1, 0))) == 1
        assert x.classify(circ, x.Example(u, (1, 0, 0))) == 0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_table_matches_eval(self, seed):
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 5))
        circ = random_circuit(rng, u)
        table = circuit_table(circ)
        for mask in range(1 << len(u)):
            assert (table >> mask) & 1 == x.classify(
                circ, x.Example.from_mask(u, mask)
            )


class TestTreeTranslation:
    def test_constant_zero_tree_for_class_zero_is_constantly_true(self):
        u = x.universe("a")
        circ, cert = x.translate(x.leaf_tree(u, 0), 0)
        assert circuit_table(circ) == 0b11
        assert cert.deletion == frozenset()
        assert cert.bound == 3

    def test_single_split_for_class_one_is_the_feature(self):
        u = x.universe("a", "b")
        t = x.DecisionTree(u, (x.Split(0, 1, 2), x.Leaf(0), x.Leaf(1)))
        circ, _ = x.translate(t, 1)
        assert circuit_table(circ) == feature_column(0, 2)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_random_trees_sound_with_valid_certificate(self, seed):
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 7))
        t = random_dt(rng, u)
        for c in (0, 1):
            circ, cert = x.translate(t, c)
            assert _sound(t, c, circ)
            assert x.certificate_holds(circ, cert)
            assert circ.maj_count == 0
            mnl = x.normalize_dt(t).params().mnl_size
            assert cert.bound == 3 * 2**mnl
            # the deletion set is exactly the per-leaf gate layer
            assert len(cert.deletion) == mnl


    @given(seed=st.integers(0, 10_000), size=st.sampled_from([0, 1, 3, 5]))
    @settings(max_examples=50, deadline=None)
    def test_leaf_gates_follow_the_reference_walk(self, seed, size):
        """Each ballot's deletion gates are ANDs that recognize exactly the
        paths of its smaller side's leaves, depth-first, once however many
        votes it has; size 0 is a bare tree, any other size an ensemble of
        that many trees."""
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 7))
        model = random_ensemble(rng, u, "dt", size) if size else random_dt(rng, u)
        want: list[dict[int, int]] = []
        mnl_sum = 0
        for t, _ in model._ballots if size else ((model, 1),):
            t = x.normalize_dt(t)
            sides: tuple[list, list] = ([], [])
            for i, assigned in leaf_assignments(t):
                sides[t.nodes[i].label].append(assigned)
            smaller = min(sides, key=len)  # side 0 on a tie
            if smaller:
                want.extend(smaller)
                mnl_sum += len(smaller)
        for c in (0, 1):
            circ, cert = x.translate(model, c)
            gates = circ.gates

            def literal(j: int) -> tuple[int, int]:
                if gates[j].kind == "IN":
                    return gates[j].feature, 1
                assert gates[j].kind == "NOT" and gates[gates[j].ins[0]].kind == "IN"
                return gates[gates[j].ins[0]].feature, 0

            got = []
            for g in sorted(cert.deletion):
                assert gates[g].kind == "AND"
                got.append(dict(literal(j) for j in gates[g].ins))
                assert len(got[-1]) == len(gates[g].ins)
            assert got == want
            assert cert.bound == 3 * 2**mnl_sum
            assert cert.formula == ("dt-ensemble" if size else "dt")

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 6), depth=st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_raw_tree_translates_like_its_normal_form(self, seed, n, depth):
        """A raw tree (tests may repeat on a path, the arena in any order) is
        wired straight from its arena: its circuit and certificate are those
        of its normal form, for both classes."""
        rng = Random(seed)
        raw = random_dt(rng, random_universe(rng, n), max_depth=depth)
        for t in (raw, permuted_arena(rng, raw)):
            for c in (0, 1):
                circ, cert = x.translate(t, c)
                want_circ, want_cert = x.translate(x.normalize_dt(t), c)
                assert dump_model(circ) == dump_model(want_circ)
                assert cert == want_cert

    def test_circuits_and_empty_universes_are_refused(self):
        u = x.universe("a")
        circ = x.Circuit(u, (x.Gate("IN", feature=0), x.Gate("NOT", (0,))), 1)
        with pytest.raises(x.ModelError):
            x.translate(circ, 1)
        with pytest.raises(x.ModelError):
            x.translate(x.leaf_tree(x.universe(), 0), 0)


class TestListTranslation:
    def test_fig_class_zero_region(self, fig_dl):
        circ, _ = x.translate(fig_dl, 0)
        table = x.truth_table(fig_dl)
        for mask in range(8):
            e = x.Example.from_mask(fig_dl.universe, mask)
            assert x.classify(circ, e) == (((table >> mask) & 1) == 0)

    def test_single_empty_rule_matching_class(self):
        u = x.universe("a")
        dl = x.DecisionList(u, (((), 1),))
        circ, _ = x.translate(dl, 1)
        assert circuit_table(circ) == 0b11

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_random_lists_and_sets(self, seed):
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 7))
        model = random_dl(rng, u) if rng.random() < 0.5 else random_ds(rng, u)
        for c in (0, 1):
            circ, cert = x.translate(model, c)
            assert _sound(model, c, circ)
            assert x.certificate_holds(circ, cert)
            assert circ.maj_count == 0
            assert len(cert.deletion) <= 3 * len(model.as_dl().rules)

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 7))
    @settings(max_examples=50, deadline=None)
    def test_alternating_runs_on_every_example(self, seed, n):
        """About 12 rules whose classes alternate in runs of 1 to 3, so the
        running guard grows over several other-class runs: the circuit
        agrees with the list on every example, for both classes and both
        defaults, with a forest certificate of at most 3 gates per rule."""
        rng = Random(seed)
        u = random_universe(rng, n)
        for default in (0, 1):
            dl = alternating_dl(rng, u, rng.randint(10, 14), default, max_run=3)
            for c in (0, 1):
                circ, cert = x.translate(dl, c)
                assert _sound(dl, c, circ)
                assert x.certificate_holds(circ, cert)
                assert len(cert.deletion) <= 3 * len(dl.rules)

    @pytest.mark.parametrize("rules", [1001, 3001])
    @pytest.mark.parametrize("default", [0, 1])
    def test_alternating_list_is_linear_in_its_rules(self, rules, default):
        """A list whose classes alternate rule by rule has at most its
        literals, plus 4 arcs per rule, plus one per feature's NOT gate:
        one running guard serves every class-c rule, where a guard per
        earlier other-class rule took about rules**2 / 8 arcs."""
        u = random_universe(Random(0), 40)
        dl = alternating_dl(Random(rules + default), u, rules, default)
        literals = sum(len(t) for t, _ in dl.rules)
        for c in (0, 1):
            circ, cert = x.translate(dl, c)
            assert sum(len(g.ins) for g in circ.gates) <= literals + 4 * rules + 40
            assert len(cert.deletion) <= 3 * rules
            assert x.certificate_holds(circ, cert)


class TestEnsembleTranslation:
    def test_singleton_wrapping(self):
        rng = Random(3)
        u = random_universe(rng, 4)
        t = random_dt(rng, u)
        single, _ = x.translate(t, 1)
        wrapped, _ = x.translate(x.Ensemble(u, (t,)), 1)
        assert circuit_table(wrapped) == circuit_table(single)
        assert wrapped.maj_count == 1

    def test_singleton_list_ensemble_wrapping(self):
        rng = Random(4)
        u = random_universe(rng, 4)
        dl = random_dl(rng, u)
        single, _ = x.translate(dl, 1)
        wrapped, _ = x.translate(x.Ensemble(u, (dl,)), 1)
        assert circuit_table(wrapped) == circuit_table(single)
        assert wrapped.maj_count == 1

    def test_identical_trees_match_single(self):
        rng = Random(5)
        u = random_universe(rng, 4)
        t = random_dt(rng, u)
        triple, _ = x.translate(x.Ensemble(u, (t, t, t)), 0)
        single, _ = x.translate(t, 0)
        assert circuit_table(triple) == circuit_table(single)

    @pytest.mark.parametrize("mode", ["set", "subset"])
    def test_unary_clique_gadget_wires_each_ballot_once(self, mode):
        """509 elements in 36 ballots: each ballot is wired once and listed
        once per vote by the MAJ gate, so the circuit has fewer gates than
        the ensemble has elements.  The reference table counts every
        element (``Ensemble.evaluate``), not the ballots."""
        _, ens = unary_clique_gadget(mode)
        u = ens.universe
        ones = 0
        for m in range(1 << len(u)):
            ones |= ens.evaluate(x.Example.from_mask(u, m)) << m
        full = (1 << (1 << len(u))) - 1
        for c in (0, 1):
            circ, cert = x.translate(ens, c)
            assert len(circ.gates) < len(ens.elements) == 509
            assert circuit_table(circ) == (ones if c else full ^ ones)
            assert x.certificate_holds(circ, cert)
            maj = circ.gates[circ.output]
            assert maj.kind == "MAJ" and maj.threshold == 255
            assert len(maj.ins) == 509 and len(set(maj.ins)) == 36

    def test_majority_threshold_formula(self):
        rng = Random(7)
        u = random_universe(rng, 4)
        ens = random_ensemble(rng, u, "dl", 3)
        circ, _ = x.translate(ens, 1)
        maj = [g for g in circ.gates if g.kind == "MAJ"]
        assert len(maj) == 1
        assert maj[0].threshold == 2

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_ensembles_sound(self, seed):
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 6))
        family = rng.choice(["dt", "ds", "dl"])
        ens = random_ensemble(rng, u, family, 3)
        for c in (0, 1):
            circ, cert = x.translate(ens, c)
            assert _sound(ens, c, circ)
            assert x.certificate_holds(circ, cert)
            assert circ.maj_count == 1


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_both_classes_translate_to_complements(seed):
    rng = Random(seed)
    u = random_universe(rng, rng.randint(1, 6))
    model = random_model(rng, u, rng.choice(["dt", "ds", "dl"]))
    zero, _ = x.translate(model, 0)
    one, _ = x.translate(model, 1)
    full = (1 << (1 << len(u))) - 1
    assert circuit_table(zero) == full ^ circuit_table(one)


class TestGlobalCheck:
    """Does every completion of tau evaluate to x?  That is the global
    abductive query with target class x, asked of the circuit itself."""

    @staticmethod
    def _global(circ, tau, value: int) -> bool:
        return x.verify(circ, "gaxp", value, tau)

    def test_constant_circuit(self):
        u = x.universe("a")
        circ, _ = x.translate(x.leaf_tree(u, 0), 0)  # constant true
        empty = x.PartialExample(u, ())
        assert self._global(circ, empty, 1)
        assert not self._global(circ, empty, 0)

    def test_total_assignment_reduces_to_eval(self):
        rng = Random(11)
        u = random_universe(rng, 4)
        circ = random_circuit(rng, u)
        e = random_example(rng, u)
        tau = x.PartialExample(u, tuple((f, e.bits[f]) for f in range(4)))
        value = x.classify(circ, e)
        assert self._global(circ, tau, value)
        assert not self._global(circ, tau, 1 - value)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_tree_verification(self, seed):
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 6))
        t = random_dt(rng, u)
        c = rng.randint(0, 1)
        circ, _ = x.translate(t, c)
        tau = x.PartialExample(
            u,
            tuple((f, rng.randint(0, 1)) for f in range(len(u)) if rng.random() < 0.4),
        )
        assert self._global(circ, tau, 1) == x.verify(t, "gaxp", c, tau)


class TestHomChecks:
    def test_constant_circuit_is_homogeneous(self):
        u = x.universe("a")
        circ, _ = x.translate(x.leaf_tree(u, 1), 1)
        assert not x.circuit_hom_check(circ)
        assert not x.phom_check(circ, 1)

    def test_identity_circuit(self):
        u = x.universe("a", "b")
        t = x.DecisionTree(u, (x.Split(0, 1, 2), x.Leaf(0), x.Leaf(1)))
        circ, _ = x.translate(t, 1)
        assert x.circuit_hom_check(circ)
        assert x.phom_check(circ, 1)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_exhaustive_scan(self, seed):
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 5))
        circ = random_circuit(rng, u)
        base = x.classify(circ, x.Example.from_mask(u, 0))
        expected = any(
            x.classify(circ, x.Example.from_mask(u, mask)) != base
            for mask in range(1 << len(u))
        )
        assert x.circuit_hom_check(circ) == expected
        k = rng.randint(0, len(u))
        expected_k = any(
            x.classify(circ, x.Example.from_mask(u, mask)) != base
            for mask in range(1 << len(u))
            if bin(mask).count("1") <= k
        )
        assert x.phom_check(circ, k) == expected_k


class TestJson:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, seed):
        rng = Random(seed)
        u = random_universe(rng, rng.randint(1, 5))
        circ = random_circuit(rng, u)
        back = circuit_from_json(circuit_to_json(circ), u)
        assert circuit_table(back) == circuit_table(circ)

    def test_sparse_ids_are_renumbered(self):
        u = x.universe("a")
        doc = {
            "gates": [
                {"id": 10, "kind": "NOT", "in": [7]},
                {"id": 7, "kind": "IN"},
            ],
            "output": 10,
            "inputs": {"a": 7},
        }
        circ = circuit_from_json(doc, u)
        assert x.classify(circ, x.Example(u, (0,))) == 1

    def test_cycle_rejected(self):
        u = x.universe("a")
        doc = {
            "gates": [
                {"id": 0, "kind": "OR", "in": [1]},
                {"id": 1, "kind": "OR", "in": [0]},
            ],
            "output": 0,
            "inputs": {},
        }
        with pytest.raises(x.ModelError):
            circuit_from_json(doc, u)

    @pytest.mark.parametrize(
        "inputs",
        [{"a": 0, "b": 1}, {"a": 0, "b": 7}, {"a": 0, "b": 0}],
        ids=["not-an-in-gate", "unknown-gate", "one-gate-two-names"],
    )
    def test_malformed_inputs_map_rejected(self, inputs):
        """Each name of the inputs map names its own IN gate of the document."""
        u = x.universe("a", "b")
        doc = {
            "gates": [
                {"id": 0, "kind": "IN"},
                {"id": 1, "kind": "AND", "in": [0]},
            ],
            "output": 1,
            "inputs": inputs,
        }
        with pytest.raises(x.ModelError):
            circuit_from_json(doc, u)


class TestInvariants:
    def test_two_sinks_rejected(self):
        u = x.universe("a")
        with pytest.raises(x.ModelError):
            x.Circuit(
                u,
                (
                    x.Gate("IN", feature=0),
                    x.Gate("NOT", (0,)),
                    x.Gate("OR", (0,)),
                ),
                2,
            )

    def test_not_gate_arity(self):
        u = x.universe("a", "b")
        with pytest.raises(x.ModelError):
            x.Circuit(
                u,
                (
                    x.Gate("IN", feature=0),
                    x.Gate("IN", feature=1),
                    x.Gate("NOT", (0, 1)),
                ),
                2,
            )

    def test_empty_and_rejected(self):
        u = x.universe("a")
        with pytest.raises(x.ModelError):
            x.Circuit(u, (x.Gate("AND", ()),), 0)

    def test_maj_needs_threshold(self):
        u = x.universe("a")
        for threshold in (None, 1.5, 1.0):
            with pytest.raises(x.ModelError):
                x.Circuit(u, (x.Gate("IN", feature=0), x.Gate("MAJ", (0,), threshold)), 1)
