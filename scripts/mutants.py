#!/usr/bin/env python3
"""Mutation check: each listed one-line edit of the source must fail a named test.

An entry is (name, file, exact snippet, replacement, test ids).  For each
entry the script copies ``src/`` and ``tests/`` into a temporary directory,
requires the snippet to occur exactly once in the file (code that moved
fails here, and its entry is re-anchored), applies the replacement and runs
the named tests with ``pytest -x -q`` under a timeout of ``TIMEOUT``
seconds.  A mutant is killed only when pytest exits 1, a failing test; a
pass, a collection or usage error and a timeout all count as survivors.  The named tests must first
pass on the unmutated copy.  Hypothesis runs with a fixed seed, so a run is
repeatable.  Stdlib only; pytest and hypothesis must be importable.

    python3 scripts/mutants.py

Exit status 0 when every entry is killed, 1 otherwise.  The list only
grows: a new engine or check adds its mutants here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 120.0  # seconds per pytest run


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]


_CLI = "src/xplain/cli.py"
_CORE = "src/xplain/core.py"
_DT = "src/xplain/explain_dt.py"
_GADGETS = "src/xplain/gadgets.py"
_MODELIO = "src/xplain/modelio.py"
_RULES = "src/xplain/explain_rules.py"

# the last level's memo, from its look-up to its store
_MEMO = """\
                hits = covering.get(live)
                if hits is None:
                    row = live & -live
                    meets = options.get(row)
                    if meets is None:
                        meets = options[row] = row_options(row.bit_length() - 1, triples)
                    hits = covering[live] = [
"""

MUTANTS = [
    # the DecisionTree constructor's forward pass and reachability walk
    Mutant("normal-form-repeated-feature", _CORE,
           "                if seen >> f & 1:\n                    break\n", "",
           ("tests/test_core.py::TestNormalize::test_repeated_test_in_post_order_is_not_normal",)),
    Mutant("normal-form-lo-position", _CORE,
           " and 0 <= lo == hi - size[hi]", "",
           ("tests/test_core.py::TestValidation::test_bad_arena_is_refused",)),
    Mutant("dfs-skipped", _CORE,
           "        if self._normal is None:\n            # The walk reads",
           "        if False:\n            # The walk reads",
           ("tests/test_core.py::TestValidation::test_bad_arena_is_refused",)),
    Mutant("walk-label-unchecked", _CORE,
           '            check_int(tuple(labels), 0, 2, "leaf labels must be 0 or 1")\n', "",
           ("tests/test_core.py::TestValidation::test_bad_arena_is_refused",)),
    Mutant("walk-bool-child-unchecked", _CORE,
           "                    if i < 2:\n", "                    if False:\n",
           ("tests/test_core.py::test_integer_field_refuses_what_is_no_int",)),
    Mutant("leaf-label-type-unchecked", _CORE,
           '        check_int(self.label, -inf, inf, "leaf labels must be 0 or 1")\n',
           "        pass\n",
           ("tests/test_core.py::test_wrong_model_raises_model_error",)),
    # a tree's table: one forward pass over its normal form, muxing on each column
    Mutant("tree-table-mux-swapped", _CORE,
           "done[-1] = (col & hi) | ((full ^ col) & done[-1])",
           "done[-1] = (col & done[-1]) | ((full ^ col) & hi)",
           ("tests/test_core.py::test_every_family_tabulates_from_a_plain_dict",)),
    Mutant("tree-table-raw-arena", _CORE,
           "        for node in normalize_dt(self).nodes:\n",
           "        for node in self.nodes:\n",
           ("tests/test_core.py::test_deep_path_tree_order_table_and_restriction",)),
    # the one integer rule: an int and no bool, in range; feature indices are never truncated
    Mutant("int-rule-accepts-half", _CORE,
           "        if type(v) is not int or", "        if type(v) not in (int, float) or",
           ("tests/test_core.py::test_integer_field_refuses_what_is_no_int",)),
    Mutant("int-rule-accepts-bool", _CORE,
           "        if type(v) is not int or", "        if not isinstance(v, int) or",
           ("tests/test_core.py::test_integer_field_refuses_what_is_no_int",)),
    Mutant("feature-index-truncated", _CORE,
           "    order = check_int(tuple(order), 0, n, message)\n", "    order = tuple(order)\n",
           ("tests/test_core.py::test_wrong_model_raises_model_error",)),
    Mutant("partial-feature-truncated", _CORE,
           "        check_int(tuple(assign), 0, len(self.universe), _FEATURE)\n", "",
           ("tests/test_core.py::test_wrong_model_raises_model_error",)),
    # integer fields of a JSON document
    Mutant("fractional-field-truncated", _MODELIO,
           "    if i != value or isinstance(value, bool):", "    if False:",
           ("tests/test_cli.py::test_fractional_value_is_refused_not_truncated",)),
    Mutant("int-fast-path-takes-bool", _MODELIO,
           "    if type(value) is int:", "    if isinstance(value, int):",
           ("tests/test_modelio.py::test_tree_document_refuses_what_is_no_label_or_index",)),
    Mutant("leaf-fast-path-unranged", _MODELIO,
           "type(label) is int and 0 <= label <= 1", "type(label) is int",
           ("tests/test_modelio.py::test_tree_document_refuses_what_is_no_label_or_index",)),
    # the tree explanation engines
    Mutant("column-shrink-suffix", _DT,
           "if (cover | suffix[j + 1]) != suffix[0]:", "if (cover | suffix[j]) != suffix[0]:",
           ("tests/test_explain_dt.py::TestLaxpSubsetMin::test_single_relevant_feature",
            "tests/test_explain_dt.py::TestLaxpSubsetMin::test_fig_list_as_tree")),
    Mutant("card-order-max", _DT,
           "return min((_decode_literals(lits, n) for lits in solved), key=_card_order)",
           "return max((_decode_literals(lits, n) for lits in solved), key=_card_order)",
           ("tests/test_explain_dt.py::TestCardSearch::test_ties_break_towards_the_first_subset",)),
    Mutant("column-cache-any-tree", _DT,
           "    if last is not None and last[0] is t:", "    if last is not None:",
           ("tests/test_explain_dt.py::TestColumnCache::test_trees_in_alternation",)),
    Mutant("column-cache-any-class", _DT,
           "    last = _column_cache.get(bad)", "    last = _column_cache.get(0)",
           ("tests/test_explain_dt.py::TestColumnCache::test_both_classes_of_one_tree",)),
    Mutant("row-literals-descent", _DT,
           "if r < first[node.hi]:", "if r <= first[node.hi]:",
           ("tests/test_explain_dt.py::TestCardSearchColumns::test_pre_order_arena",)),
    Mutant("option-complement-is-column", _DT,
           "full ^ col", "col",
           ("tests/test_explain_dt.py::TestCardSearchColumns::"
            "test_literal_columns_match_the_leaf_paths",
            "tests/test_explain_dt.py::TestCardSearchColumns::"
            "test_matches_the_row_reference_on_clique_gadgets")),
    Mutant("last-level-memo-by-lowest-row", _DT,
           _MEMO, _MEMO.replace("covering.get(live)", "covering.get(live & -live)")
           .replace("covering[live]", "covering[live & -live]"),
           ("tests/test_explain_dt.py::TestCardSearchColumns::test_last_level_per_live_mask",)),
    Mutant("last-level-feature-unchecked", _DT,
           "                    if not lits & feature:  # the feature is still unassigned\n"
           "                        deeper[lits | lit] = 0\n",
           "                    if True:\n"
           "                        deeper[lits | lit] = 0\n",
           ("tests/test_explain_dt.py::TestCardSearchColumns::test_last_level_per_live_mask",)),
    # a raw tree is read path-consistently: a repeated test follows the
    # child its earlier test chose
    Mutant("raw-walk-inconsistent-child", _DT,
           "node = nodes[node.hi if value >> node.feature & 1 else node.lo]",
           "node = nodes[node.lo if value >> node.feature & 1 else node.hi]",
           ("tests/test_explain_dt.py::TestRawTrees::test_a_raw_tree_answers_as_its_normal_copy",)),
    # ensembles count each ballot with its votes
    Mutant("ballot-single-vote", _CORE,
           "[(m.table(cols, full), votes) for m, votes in self._ballots]",
           "[(m.table(cols, full), 1) for m, votes in self._ballots]",
           ("tests/test_core.py::test_shared_ensemble_elements_count_every_copy",
            "tests/test_explain_rules.py::TestEnsembleBranch::"
            "test_unary_clique_gadget_branches_per_ballot")),
    Mutant("ballot-merge-by-identity", _CORE,
           "ballots.setdefault(m, [m, 0])[1] += count",
           "ballots.setdefault(id(m), [m, 0])[1] += count",
           ("tests/test_core.py::test_shared_ensemble_elements_count_every_copy",
            "tests/test_explain_rules.py::TestEnsembleBranch::"
            "test_unary_clique_gadget_keeps_its_ballots_through_json")),
    # the carry-save ballot counter: a full adder's carry is the majority of
    # its three columns, a half adder's the AND of its two
    Mutant("csa-carry-drops-and", _CORE,
           "carries.append((a & b) | (c & ab))", "carries.append(c & ab)",
           ("tests/test_core.py::test_counter_ge_matches_popcount",)),
    Mutant("csa-half-adder-carry-dropped", _CORE,
           "            carries.append(a & b)\n", "",
           ("tests/test_core.py::test_counter_ge_matches_popcount",)),
    # subcube_table builds a column for each feature of the read mask, from
    # the origin's flip
    Mutant("ensemble-reads-first-ballot", _CORE,
           "        for m, _ in ballots:\n            reads |= m._reads\n",
           "        for m, _ in ballots[:1]:\n            reads |= m._reads\n",
           ("tests/test_core.py::test_read_mask_is_enough",)),
    Mutant("origin-flip-skipped", _CORE,
           "cols[f] = full ^ col if origin >> f & 1 else col", "cols[f] = col",
           ("tests/test_core.py::test_shared_ensemble_elements_count_every_copy",
            "tests/test_verify.py::test_flip_engine_matches_classify")),
    # the circuit and the tree product read the ballots, with their votes
    Mutant("translate-arc-per-ballot", "src/xplain/circuits.py",
           "        outs += [out] * votes\n", "        outs += [out]\n",
           ("tests/test_circuits.py::TestEnsembleTranslation::"
            "test_unary_clique_gadget_wires_each_ballot_once",)),
    Mutant("maj-table-arc-unweighted", "src/xplain/circuits.py",
           "[(val[j], w) for j, w in arcs.items()]", "[(val[j], 1) for j, w in arcs.items()]",
           ("tests/test_circuits.py::TestEnsembleTranslation::"
            "test_unary_clique_gadget_wires_each_ballot_once",)),
    # a list's running guard: a class-c rule reads NOT fired, and fired
    # takes every term of each other-class run
    Mutant("dl-guard-not-negated", "src/xplain/circuits.py",
           "builder.add(AND, (gate, guard))", "builder.add(AND, (gate, fired))",
           ("tests/test_circuits.py::TestListTranslation::test_alternating_runs_on_every_example",)),
    Mutant("dl-run-term-left-unfired", "src/xplain/circuits.py",
           "else [fired, *run])", "else [fired, *run[:-1]])",
           ("tests/test_circuits.py::TestListTranslation::test_alternating_runs_on_every_example",)),
    Mutant("graft-single-vote", _CORE,
           "votes += node.label * weight[ti]", "votes += node.label",
           ("tests/test_explain_dt.py::TestProduct::"
            "test_a_ballot_of_two_votes_decides_every_path",)),
    # the one tie-break of every minimum contrastive witness
    Mutant("better-tie-flipped", _RULES,
           "(size_b == size_a and (a ^ b) & -(a ^ b) & b)",
           "(size_b == size_a and (a ^ b) & -(a ^ b) & a)",
           ("tests/test_explain_rules.py::test_branch_witness_equals_oracle_within_budget",)),
    # the tree lcxp applies that order to all rows at once: fewest conflicts
    # first, from the highest plane of the bit-sliced count down
    Mutant("lcxp-most-conflicts", _DT,
           "        fewer = least & ~plane\n", "        fewer = least & plane\n",
           ("tests/test_explain_dt.py::TestLcxpMin::test_witness_is_the_oracles",)),
    # the branching search's cuts and its node count: a prefix with
    # conflicting rules is not searched, flips stop at the limit, which
    # falls to the best size found and cuts equal seeds only past it, a
    # flip never breaks a required literal, and a dead end is a node
    Mutant("branch-conflict-cut-dropped", _RULES,
           "        if (v ^ req_value) & m & req_mask or tally + reach[d + 1] < need:\n",
           "        if tally + reach[d + 1] < need:\n",
           ("tests/test_explain_rules.py::test_branch_witness_equals_oracle_within_budget",)),
    Mutant("branch-flip-budget-inclusive", _RULES,
           "elif flip.bit_count() < limit:", "elif flip.bit_count() <= limit:",
           ("tests/test_explain_rules.py::test_branch_witness_equals_oracle_within_budget",
            "tests/test_explain_rules.py::TestBranch::"
            "test_nodes_are_the_searched_states_within_the_limit")),
    Mutant("branch-dead-end-uncounted", _RULES,
           "  # a dead end: nothing left to flip\n                nodes += 1\n",
           "\n                pass\n",
           ("tests/test_explain_rules.py::TestBranch::test_a_dead_end_is_a_node",)),
    Mutant("branch-seed-cut-inclusive", _RULES,
           "if seed.bit_count() > limit:", "if seed.bit_count() >= limit:",
           ("tests/test_explain_rules.py::test_branch_witness_equals_oracle_within_budget",)),
    Mutant("branch-offender-breaks-required", _RULES,
           "                m & ~req_mask\n                for rules, j in zip(lists, combo)\n",
           "                m\n                for rules, j in zip(lists, combo)\n",
           ("tests/test_explain_rules.py::test_branch_witness_equals_oracle_within_budget",)),
    Mutant("branch-budget-unclamped", _RULES,
           "    k = min(k, reads.bit_count())  # a flip set holds read features only\n", "",
           ("tests/test_cli.py::test_a_huge_budget_is_answered_at_once",
            "tests/test_explain_rules.py::TestBranch::"
            "test_the_budget_is_clamped_to_the_read_features")),
    Mutant("branch-limit-never-falls", _RULES,
           "                limit = best.bit_count()\n", "",
           ("tests/test_explain_rules.py::TestBranch::"
            "test_nodes_are_the_searched_states_within_the_limit",
            "tests/test_explain_rules.py::TestEnsembleBranch::"
            "test_the_limit_falls_on_wide_lists_at_full_budget")),
    # a request that does not fit is refused
    Mutant("translate-class-unchecked", "src/xplain/circuits.py",
           '    check_int(c, 0, 2, f"class must be 0 or 1, got {c!r}")\n', "",
           ("tests/test_core.py::test_wrong_model_raises_model_error",)),
    Mutant("circuit-output-unchecked", "src/xplain/circuits.py",
           '        check_int(self.output, 0, len(gates), "output gate index out of range")\n', "",
           ("tests/test_core.py::test_integer_field_refuses_what_is_no_int",)),
    Mutant("fixed-bit-unchecked", _CORE,
           '    check_int(tuple(fixed.values()), 0, 2, "fixed bits must be 0 or 1")\n', "",
           ("tests/test_core.py::test_subcube_table_needs_a_partition",)),
    Mutant("partition-type-unchecked", _CORE,
           "    if not (isinstance(fixed, Mapping) and isinstance(free, Sequence)):\n",
           "    if False:\n",
           ("tests/test_core.py::test_subcube_table_needs_a_partition",)),
    Mutant("budget-type-unchecked", "src/xplain/verify.py",
           '    return check_int(k, 0, inf, "k must be nonnegative")\n', "    return k\n",
           ("tests/test_gadgets.py::test_gadget_builders_refuse_the_budgets_a_request_refuses",)),
    # every gadget tree is a trie: it tests its sequence while some row
    # agrees, a row's 1-bit on the 1-child
    Mutant("trie-one-bit-on-the-zero-child", _GADGETS,
           "(d + 1, [r for r in live if f in r]))\n"
           "                live = [r for r in live if f not in r]\n",
           "(d + 1, [r for r in live if f not in r]))\n"
           "                live = [r for r in live if f in r]\n",
           ("tests/test_gadgets.py::test_recognizer_is_the_graft_of_its_chains",)),
    Mutant("trie-accepts-where-no-row-agrees", _GADGETS,
           "nodes.append(accept if live else reject)", "nodes.append(accept)",
           ("tests/test_gadgets.py::TestOdtFromExamples::test_membership_semantics",)),
    Mutant("trie-depth-off-by-one", _GADGETS,
           "while live and d < len(seq):", "while live and d < len(seq) - 1:",
           ("tests/test_gadgets.py::TestOdtFromExamples::test_single_all_zero_row",)),
    Mutant("pair-block-rescans-the-found-vertex", _GADGETS,
           "[*members[d + 1:], *nbr]", "[*members[d:], *nbr]",
           ("tests/test_gadgets.py::TestMccOdt::test_tree_matches_the_block_semantics",)),
    # the ordered-tree clique gadget replays each block built once
    Mutant("replayed-block-shifted-one-too-far", _GADGETS,
           "Split(node.feature, node.lo + base, node.hi + base)",
           "Split(node.feature, node.lo + base + 1, node.hi + base + 1)",
           ("tests/test_gadgets.py::TestMccOdt::test_tree_matches_the_block_semantics",)),
    # the clique ensembles' all-zero vote check asserts the exact count of
    # each construction, not only that the vote rejects the example
    Mutant("clique-vote-count-weakened", _GADGETS,
           "    assert votes == zero_votes <= len(elements) // 2\n",
           "    assert votes <= len(elements) // 2\n",
           ("tests/test_gadgets.py::test_clique_vote_check_counts_the_padders",)),
    # the support rule: a table and its cap cover only the features a model
    # reads, in every family, and subcube_table refuses to miss a read one
    Mutant("flip-domain-every-feature", "src/xplain/verify.py",
           "    return mask_features(model._reads)\n",
           "    return list(range(len(_model_universe(model))))\n",
           ("tests/test_cli.py::test_a_sparse_wide_list_is_answered_as_its_read_features",
            "tests/test_verify.py::test_sparse_set_at_the_cap_tabulates_its_read_features")),
    Mutant("verify-free-ignores-reads", "src/xplain/verify.py",
           "    free = [f for f in read if f not in fixed]\n",
           "    free = [f for f in range(len(_model_universe(model))) if f not in fixed]\n",
           ("tests/test_cli.py::test_a_sparse_wide_list_is_answered_as_its_read_features",
            "tests/test_verify.py::test_unread_features_change_no_answer")),
    # every engine table is refused past the verify cap, in the one helper
    Mutant("table-helper-skips-its-cap", "src/xplain/verify.py",
           "    require_cap(len(free), caps.verify, what)\n", "",
           ("tests/test_verify.py::TestCaps::test_verify_cap",)),
    # the greedy laxp of rule models and circuits walks the read features only
    Mutant("laxp-subset-seeded-with-the-universe", _RULES,
           "frozenset(_flip_domain(model))", "frozenset(range(len(model.universe)))",
           ("tests/test_explain_rules.py::TestLaxpRules::"
            "test_shrink_walks_only_the_read_features",)),
    Mutant("cover-check-dropped", _CORE, " or not reads <= given", "",
           ("tests/test_core.py::test_subcube_table_needs_a_partition",)),
    # fixed features follow the support rule too: a table and a seeded tree
    # walk get only the fixed features the model reads
    Mutant("table-keeps-unread-fixed-features", "src/xplain/verify.py",
           "subcube_table(model, {f: fixed[f] for f in read if f in fixed}, free, origin)",
           "subcube_table(model, fixed, free, origin)",
           ("tests/test_verify.py::test_a_request_stays_linear_in_the_universe",)),
    Mutant("tree-verify-seeds-unread-fixed-features", "src/xplain/verify.py",
           "    seed = [(f, fixed[f]) for f in mask_features(t._reads) if f in fixed]\n",
           "    seed = list(fixed.items())\n",
           ("tests/test_verify.py::test_a_request_stays_linear_in_the_universe",)),
    # the one mask reader reads the lowest feature off the last binary digit
    Mutant("mask-reader-digit-order", _CORE, "bin(mask)[:1:-1]", "bin(mask)[2:]",
           ("tests/test_explain_dt.py::TestLcxpMin::test_witness_is_the_oracles",)),
    Mutant("from-mask-unchecked", _CORE,
           '        check_int(mask, 0, 1 << len(u), "mask must be an int below 2**(universe size)")\n',
           "",
           ("tests/test_core.py::test_from_mask_refuses_a_mask_outside_the_universe",)),
    Mutant("held-feature-unchecked", "src/xplain/verify.py",
           'set(check_int(tuple(fixed), 0, len(u), "held feature outside the universe"))',
           "set(fixed)",
           ("tests/test_verify.py::test_request_that_does_not_fit_is_refused",)),
    # the least zero flip kept on a model: read for the all-zero example with
    # nothing held, and only after the request and the cap are checked
    Mutant("zero-flip-read-for-any-example", "src/xplain/verify.py",
           "    if held or origin:\n", "    if held:\n",
           ("tests/test_verify.py::test_least_zero_flip_is_read_only_for_the_zero_example",)),
    Mutant("zero-flip-read-with-held-features", "src/xplain/verify.py",
           "    if held or origin:\n", "    if origin:\n",
           ("tests/test_verify.py::test_least_zero_flip_is_read_only_for_the_zero_example",)),
    Mutant("hom-reads-zero-flip-before-cap", "src/xplain/verify.py",
           '    require_cap(len(_flip_domain(model)), caps.verify, "hom")\n',
           "    if model._zero_flip is not None:\n"
           "        return bool(model._zero_flip)\n"
           '    require_cap(len(_flip_domain(model)), caps.verify, "hom")\n',
           ("tests/test_verify.py::test_a_warm_model_refuses_and_enumerates_as_a_cold_one",)),
    # the --out documents take stdout's form, compact with sorted keys, and
    # are encoded before the file is opened
    Mutant("out-file-indented", _CLI,
           '    text = _dumps(doc) + "\\n"\n',
           '    text = json.dumps(doc, indent=1, sort_keys=True) + "\\n"\n',
           ("tests/test_cli.py::test_translate_writes_the_compact_sorted_circuit",)),
    Mutant("out-file-keys-unsorted", _CLI,
           '    text = _dumps(doc) + "\\n"\n',
           '    text = json.dumps(doc, separators=(",", ":")) + "\\n"\n',
           ("tests/test_cli.py::test_translate_writes_the_compact_sorted_circuit",
            "tests/test_cli.py::test_gen_gadget_writes_the_compact_sorted_instance")),
    Mutant("out-file-opened-before-encode", _CLI,
           '    text = _dumps(doc) + "\\n"\n    with open(path, "w") as fh:\n'
           "        fh.write(text)\n",
           '    with open(path, "w") as fh:\n        fh.write(_dumps(doc) + "\\n")\n',
           ("tests/test_cli.py::test_failed_encode_leaves_the_out_file_as_it_was",)),
    # the CLI's one-pass reader declines what argparse would refuse
    Mutant("reader-choices-unchecked", _CLI,
           "        if o.choices is not None and value not in o.choices:\n"
           "            return None\n",
           "",
           ("tests/test_cli.py::test_reader_agrees_with_argparse",)),
    Mutant("reader-required-unchecked", _CLI,
           " or not command.required <= set(pairs[::2])", "",
           ("tests/test_cli.py::test_reader_agrees_with_argparse",)),
    Mutant("reader-dash-value-read", _CLI,
           'if o is None or value.startswith("-"):', "if o is None:",
           ("tests/test_cli.py::test_reader_agrees_with_argparse",)),
]


def _copy(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for sub in ("src", "tests"):
        shutil.copytree(ROOT / sub, into / sub, ignore=ignore)


def _pytest(workdir: Path, tests) -> int | None:
    """pytest's exit code on ``tests`` in ``workdir``; None on a timeout."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    env = {**os.environ, "PYTHONPATH": "src"}
    try:
        return subprocess.run(cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return None


def run(m: Mutant) -> str | None:
    """None when m is killed, else why it survived."""
    with tempfile.TemporaryDirectory(prefix="xplain-mutant-") as tmp:
        work = Path(tmp)
        _copy(work)
        path = work / m.file
        text = path.read_text()
        count = text.count(m.snippet)
        if count != 1:
            return f"snippet occurs {count} times in {m.file}: re-anchor the entry"
        path.write_text(text.replace(m.snippet, m.replacement))
        code = _pytest(work, m.tests)
    if code == 1:
        return None
    if code is None:
        return f"timed out after {TIMEOUT:.0f} s"
    return "its tests pass" if code == 0 else f"pytest exited {code}, not a test failure"


def main() -> int:
    tests = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="xplain-mutant-") as tmp:
        _copy(Path(tmp))
        code = _pytest(Path(tmp), tests)
    if code != 0:
        print(f"the named tests do not pass on the unmutated source (pytest exit {code})")
        return 1
    survivors = 0
    for m in MUTANTS:
        start = time.perf_counter()
        why = run(m)
        elapsed = time.perf_counter() - start
        if why is None:
            print(f"killed    {m.name} ({elapsed:.1f} s)")
        else:
            survivors += 1
            print(f"SURVIVED  {m.name}: {why}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
