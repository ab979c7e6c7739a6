"""SLP auto-vectorization: vanilla bottom-up SLP, LSLP (Multi-Node) and
Super-Node SLP — the paper's contribution."""

from .lookahead import DEFAULT_SCORES, LookAheadScorer, ScoreTable
from .supernode import (
    APO_MINUS,
    APO_PLUS,
    LaneChain,
    Leaf,
    Slot,
    TrunkUnit,
    build_lane_chain,
    chain_family_of,
)
from .reorder import SuperNode, SuperNodeRecord
from .graph import NodeKind, SLPGraph, SLPNode
from .seeds import collect_store_seeds
from .legality import (
    bundle_is_schedulable_loads,
    bundle_is_schedulable_stores,
    lanes_form_valid_bundle,
    loads_are_consecutive,
)
from .cost import compute_graph_cost, is_profitable
from .codegen import CodegenError, emit_node_tree, emit_vector_code
from .reduction import (
    ReductionCandidate,
    ReductionPlan,
    emit_reduction,
    find_minmax_candidates,
    find_reduction_candidates,
    plan_reduction,
)
from .report import FunctionReport, GraphReport, VectorizationReport
from .slp import (
    ALL_CONFIGS,
    LSLP_CONFIG,
    O3_CONFIG,
    SLP_CONFIG,
    SNSLP_CONFIG,
    SLPConfig,
    SLPVectorizer,
    config_named,
)
from .pipeline import CompilationResult, clone_module, compile_module

__all__ = [
    "LookAheadScorer", "ScoreTable", "DEFAULT_SCORES",
    "LaneChain", "TrunkUnit", "Leaf", "Slot", "build_lane_chain",
    "chain_family_of", "APO_PLUS", "APO_MINUS",
    "SuperNode", "SuperNodeRecord",
    "NodeKind", "SLPNode", "SLPGraph",
    "collect_store_seeds",
    "bundle_is_schedulable_loads", "bundle_is_schedulable_stores",
    "lanes_form_valid_bundle", "loads_are_consecutive",
    "compute_graph_cost", "is_profitable",
    "emit_vector_code", "emit_node_tree", "CodegenError",
    "ReductionCandidate", "ReductionPlan", "find_reduction_candidates",
    "find_minmax_candidates", "plan_reduction", "emit_reduction",
    "FunctionReport", "GraphReport", "VectorizationReport",
    "SLPConfig", "SLPVectorizer", "config_named",
    "O3_CONFIG", "SLP_CONFIG", "LSLP_CONFIG", "SNSLP_CONFIG", "ALL_CONFIGS",
    "CompilationResult", "clone_module", "compile_module",
]
