"""Span recording around xplain's layer functions, for the traced run.

The tracer replaces each listed function with a wrapper that records a span
(name, start, end, parent) and per-layer counts.  A layer's self time is its
spans' durations minus the time covered by their child spans.  Hot helpers
called millions of times per run (``term_applies``, ``flip``, the table
primitives) are left unwrapped: a span each would cost more than the work it
measures, so their time shows in the self time of the layer that calls them.

``import xplain.verify`` yields the function that the package re-exports
under that name, not the module, so modules are taken from ``sys.modules``.
Modules that imported a name with ``from .x import y`` hold their own
reference to it; every module of the package is scanned and each reference
to a wrapped function is replaced, and restored on ``uninstall``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path
from typing import Callable, Optional

# layer name -> (module, function) pairs recorded under that name
LAYERS: dict[str, list[tuple[str, str]]] = {
    f"{mod}.{fn}": [(mod, fn)]
    for mod, fns in {
        "core": ["truth_table", "normalize_dt", "classify"],
        "verify": ["verify", "verify_by_enumeration", "oracle_min", "hom_check",
                   "phom_check"],
        "explain_dt": ["laxp_subset_min", "lcxp_min", "gaxp_subset_min",
                       "gcxp_subset_min", "card_xp_search", "product_dt"],
        "explain_rules": ["laxp_rules_subset_min", "lcxp_card_branch",
                          "lcxp_card_branch_ens", "lcxp_card_enum"],
        "circuits": ["translate", "circuit_table", "circuit_hom_check"],
        "gadgets": ["answer_query", "global_budget_search_dt"],
        "modelio": ["load_model_file", "dump_model"],
        "cli": ["main"],
    }.items()
    for fn in fns
}
LAYERS["gadgets.construct"] = [
    ("gadgets", fn)
    for fn in ("hitting_set_gadget", "mcc_ensemble_gadget",
               "mcc_unary_ensemble_gadget", "mcc_odt_gaxp_gadget", "taut_ds_gadget")
]
LAYERS["truth"] = [
    ("truth", fn) for fn in ("min_hitting_set_size", "has_clique", "is_tautology_dnf")
]

# the per-layer metrics a traced run reports: (name, unit, better)
METRICS: list[tuple[str, str, str]] = [
    ("core.truth_table.calls", "count", "lower"),
    ("core.truth_table.self_s", "s", "lower"),
    ("core.truth_table.bits", "bit", "lower"),
    ("core.truth_table.builds_per_model", "ratio", "lower"),
    ("core.normalize_dt.calls", "count", "lower"),
    ("core.normalize_dt.self_s", "s", "lower"),
    ("core.classify.calls", "count", "lower"),
    ("core.classify.self_s", "s", "lower"),
    ("verify.verify.calls", "count", "lower"),
    ("verify.verify.self_s", "s", "lower"),
    ("verify.verify.accept_ratio", "ratio", "higher"),
    ("verify.verify_by_enumeration.calls", "count", "lower"),
    ("verify.verify_by_enumeration.self_s", "s", "lower"),
    ("verify.oracle_min.calls", "count", "lower"),
    ("verify.oracle_min.self_s", "s", "lower"),
    ("verify.hom_check.self_s", "s", "lower"),
    ("verify.phom_check.self_s", "s", "lower"),
    ("explain_dt.laxp_subset_min.self_s", "s", "lower"),
    ("explain_dt.lcxp_min.self_s", "s", "lower"),
    ("explain_dt.gaxp_subset_min.self_s", "s", "lower"),
    ("explain_dt.gcxp_subset_min.self_s", "s", "lower"),
    ("explain_dt.card_xp_search.calls", "count", "lower"),
    ("explain_dt.card_xp_search.self_s", "s", "lower"),
    ("explain_dt.product_dt.self_s", "s", "lower"),
    ("explain_dt.product_dt.leaves", "count", "lower"),
    ("explain_rules.laxp_rules_subset_min.self_s", "s", "lower"),
    ("explain_rules.lcxp_card_branch.self_s", "s", "lower"),
    ("explain_rules.lcxp_card_branch_ens.self_s", "s", "lower"),
    ("explain_rules.branch_nodes", "count", "lower"),
    ("explain_rules.lcxp_card_enum.calls", "count", "lower"),
    ("explain_rules.lcxp_card_enum.self_s", "s", "lower"),
    ("circuits.translate.self_s", "s", "lower"),
    ("circuits.circuit_table.self_s", "s", "lower"),
    ("circuits.circuit_hom_check.self_s", "s", "lower"),
    ("gadgets.answer_query.calls", "count", "lower"),
    ("gadgets.answer_query.self_s", "s", "lower"),
    ("gadgets.global_budget_search_dt.calls", "count", "lower"),
    ("gadgets.global_budget_search_dt.self_s", "s", "lower"),
    ("gadgets.construct.self_s", "s", "lower"),
    ("truth.self_s", "s", "lower"),
    ("modelio.load_model_file.calls", "count", "lower"),
    ("modelio.load_model_file.self_s", "s", "lower"),
    ("modelio.dump_model.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
]


class Tracer:
    def __init__(self) -> None:
        self.layers = list(LAYERS)
        self.calls = [0] * len(self.layers)
        self.self_s = [0.0] * len(self.layers)
        # spans as parallel columns: layer id, parent span (-1: none), start, end
        self.span_layer: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._open: list[int] = []
        self._child: list[float] = []  # time covered by children of open spans
        self._patched: list[tuple[object, str, Callable]] = []
        self.table_bits = 0
        self.table_models: set = set()
        self.verify_true = 0
        self.product_leaves = 0
        self.branch_nodes = 0
        self._branch_marks: list = []  # (stats object, entries before the call)

    # -- recording --------------------------------------------------------

    def _wrap(self, layer: int, fn: Callable, before, after) -> Callable:
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = len(self.span_start)
            self.span_layer.append(layer)
            self.span_parent.append(self._open[-1] if self._open else -1)
            self._open.append(sid)
            self._child.append(0.0)
            start = clock()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._open.pop()
                covered = self._child.pop()
                self.span_end[sid] = end
                self.calls[layer] += 1
                self.self_s[layer] += end - start - covered
            if after is not None:
                after(args, kwargs, result)
            if self._child:  # the hook's own time is nobody's self time
                self._child[-1] += clock() - start
            return result

        return functools.update_wrapper(traced, fn)

    # -- per-layer counts taken at the boundaries --------------------------

    def _after_truth_table(self, args, kwargs, result) -> None:
        model = args[0]
        n = args[1] if len(args) > 1 and args[1] is not None else len(model.universe)
        self.table_bits += 1 << n
        self.table_models.add(model)

    def _after_verify(self, args, kwargs, result) -> None:
        self.verify_true += bool(result)

    def _after_product(self, args, kwargs, result) -> None:
        self.product_leaves += result.leaf_count()

    def _branch_hooks(self, branch_stats_cls):
        def before(args, kwargs):
            if len(args) >= 4:
                args, kwargs = args[:3], dict(kwargs, stats=args[3])
            if kwargs.get("stats") is None:
                kwargs = dict(kwargs, stats=branch_stats_cls())
            stats = kwargs["stats"]
            self._branch_marks.append((stats, len(stats.per_target)))
            return args, kwargs

        def after(args, kwargs, result):
            stats, mark = self._branch_marks.pop()
            self.branch_nodes += sum(nodes for _, nodes in stats.per_target[mark:])

        return before, after

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        mods = {
            name: mod for name, mod in sys.modules.items()
            if name == "xplain" or name.startswith("xplain.")
        }
        branch_stats = mods["xplain.explain_rules"].BranchStats
        branch_before, branch_after = self._branch_hooks(branch_stats)
        hooks: dict[str, tuple[Optional[Callable], Optional[Callable]]] = {
            "core.truth_table": (None, self._after_truth_table),
            "verify.verify": (None, self._after_verify),
            "explain_dt.product_dt": (None, self._after_product),
            "explain_rules.lcxp_card_branch": (branch_before, branch_after),
            "explain_rules.lcxp_card_branch_ens": (branch_before, branch_after),
        }
        for layer_id, layer in enumerate(self.layers):
            before, after = hooks.get(layer, (None, None))
            for mod_name, fn_name in LAYERS[layer]:
                original = getattr(mods[f"xplain.{mod_name}"], fn_name)
                wrapper = self._wrap(layer_id, original, before, after)
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for i, layer in enumerate(self.layers):
            out[f"{layer}.calls"] = self.calls[i]
            out[f"{layer}.self_s"] = self.self_s[i]
        builds = out["core.truth_table.calls"]
        out["core.truth_table.bits"] = self.table_bits
        out["core.truth_table.builds_per_model"] = (
            builds / len(self.table_models) if self.table_models else 0.0
        )
        calls = out["verify.verify.calls"]
        out["verify.verify.accept_ratio"] = self.verify_true / calls if calls else 0.0
        out["explain_dt.product_dt.leaves"] = self.product_leaves
        out["explain_rules.branch_nodes"] = self.branch_nodes
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as columns: layer ids index ``layers``."""
        doc = {
            "layers": self.layers,
            "layer": self.span_layer,
            "parent": self.span_parent,
            "start": self.span_start,
            "end": self.span_end,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
