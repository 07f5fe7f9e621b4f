"""Absorbing-set analysis and removal for non-binary LDPC Tanner graphs."""

from .config import (
    CodeGraph,
    Configuration,
    TopoClass,
    classify_unlabeled,
    cn_flippable_partners,
)
from .gf import FieldContext, gf4, gf8
from .gflinalg import (
    GfMatrix,
    NullSpaceBasis,
    has_full_support_vector,
    mat_vec,
    null_space,
    rank,
    rref,
)
from .removal import (
    OptimizationReport,
    RemovalPlan,
    Target,
    compute_b_for_values,
    compute_e_min,
    evaluate_weight_conditions,
    is_in_Z,
    optimize_code,
    oracle_in_family,
    oracle_is_gas,
    remove_object,
    select_candidate_edges,
    smallest_b,
)
from .wcmtree import (
    UnlabeledTree,
    WcmSet,
    build_tree,
    count_wcms_same_size,
    count_wcms_u_symmetric,
    extract_wcms,
    z_family,
)

__version__ = "0.1.0"

__all__ = [
    "CodeGraph",
    "Configuration",
    "FieldContext",
    "GfMatrix",
    "NullSpaceBasis",
    "OptimizationReport",
    "RemovalPlan",
    "Target",
    "TopoClass",
    "UnlabeledTree",
    "WcmSet",
    "build_tree",
    "classify_unlabeled",
    "cn_flippable_partners",
    "compute_b_for_values",
    "compute_e_min",
    "count_wcms_same_size",
    "count_wcms_u_symmetric",
    "evaluate_weight_conditions",
    "extract_wcms",
    "gf4",
    "gf8",
    "has_full_support_vector",
    "is_in_Z",
    "mat_vec",
    "null_space",
    "optimize_code",
    "oracle_in_family",
    "oracle_is_gas",
    "rank",
    "remove_object",
    "rref",
    "select_candidate_edges",
    "smallest_b",
    "z_family",
]
