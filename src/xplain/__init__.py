"""Formal explanations for transparent classifiers.

Computes, verifies and brute-force-certifies abductive and contrastive
explanations (local and global, subset-minimal and cardinality-minimum) for
decision trees, decision sets, decision lists, boolean circuits with
majority gates, and odd majority ensembles; generates reduction instances as
test and benchmark gadgets.
"""

from .config import BruteCaps, CapExceeded, DEFAULT_CAPS
from .core import (
    DecisionList,
    DecisionSet,
    DecisionTree,
    Ensemble,
    Example,
    FeatureUniverse,
    Leaf,
    ModelError,
    ParamReport,
    PartialExample,
    Split,
    classify,
    leaf_tree,
    measure,
    normalize_dt,
    respects_order,
    subcube_table,
    truth_table,
    universe,
)
from .circuits import (
    Circuit,
    Gate,
    WidthCertificate,
    certificate_holds,
    circuit_hom_check,
    translate,
)
from .explain_dt import (
    card_xp_search,
    gaxp_subset_min,
    gcxp_subset_min,
    laxp_subset_min,
    lcxp_min,
    product_dt,
)
from .explain_rules import (
    BranchStats,
    laxp_rules_subset_min,
    lcxp_card_branch,
    lcxp_card_branch_ens,
    lcxp_card_enum,
)
from .gadgets import (
    ColouredGraph,
    GadgetInstance,
    HomEquivalenceReport,
    Query,
    SetFamily,
    answer_query,
    hitting_set_gadget,
    hom_equivalence_suite,
    mcc_ensemble_gadget,
    mcc_odt_gaxp_gadget,
    mcc_unary_ensemble_gadget,
    odt_from_examples,
    set_model_odt,
    subset_model_rules,
    taut_ds_gadget,
)
from .verify import (
    first_flip,
    flip,
    hom_check,
    oracle_min,
    oracle_subset_min_check,
    phom_check,
    restrict_dt,
    shrink,
    verify,
    verify_by_enumeration,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
