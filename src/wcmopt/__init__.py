"""Absorbing-set analysis and removal for non-binary LDPC Tanner graphs."""

from .config import (
    CodeGraph,
    Configuration,
    TopoClass,
    classify_unlabeled,
)
from .gf import FieldContext, gf4, gf8
from .removal import (
    EnumerationReport,
    OptimizationReport,
    RemovalPlan,
    Target,
    compute_e_min,
    enumerate_code,
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
    "EnumerationReport",
    "FieldContext",
    "OptimizationReport",
    "RemovalPlan",
    "Target",
    "TopoClass",
    "UnlabeledTree",
    "WcmSet",
    "build_tree",
    "classify_unlabeled",
    "compute_e_min",
    "count_wcms_same_size",
    "count_wcms_u_symmetric",
    "enumerate_code",
    "evaluate_weight_conditions",
    "extract_wcms",
    "gf4",
    "gf8",
    "is_in_Z",
    "optimize_code",
    "oracle_in_family",
    "oracle_is_gas",
    "remove_object",
    "select_candidate_edges",
    "smallest_b",
    "z_family",
]
