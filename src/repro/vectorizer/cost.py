"""SLP graph cost evaluation (Figure 1, step 4).

Each node's cost is ``vector cost - sum of scalar costs`` (negative =
saving), matching the paper's convention where a fully-vectorizable graph
shows a negative total and gather nodes contribute positive penalties.
External users of vectorized scalars add extract costs, exactly like
LLVM's ``getTreeCost``.
"""

from __future__ import annotations

from ..ir.instructions import CallInst, Instruction, Opcode
from ..ir.values import Constant
from ..machine.costmodel import CostModel
from .graph import NodeKind, SLPGraph, SLPNode


def _gather_cost(node: SLPNode, model: CostModel) -> float:
    """Cost of materializing a gather node's vector from its scalars."""
    lanes = node.lanes
    if all(isinstance(v, Constant) for v in lanes):
        return 0.0  # becomes a literal vector constant
    if all(v is lanes[0] for v in lanes):
        # Splat: one insert plus one broadcast shuffle.
        return model.insert_cost + model.shuffle_cost
    return model.gather_cost(node.vec_type)


def _scalar_sum(node: SLPNode, model: CostModel) -> float:
    total = 0.0
    for value in node.lanes:
        if isinstance(value, CallInst):
            total += model.intrinsic_cost(value.callee, value.type)
        elif isinstance(value, Instruction):
            total += model.scalar_op_cost(value.opcode, value.type)
    return total


def _vector_cost(node: SLPNode, model: CostModel) -> float:
    first = node.lanes[0]
    if node.kind is NodeKind.LOAD:
        cost = model.vector_op_cost(Opcode.LOAD, node.vec_type)
        if node.load_reversed:
            cost += model.shuffle_cost  # lane reversal after the wide load
        return cost
    if node.kind is NodeKind.STORE:
        return model.vector_op_cost(Opcode.STORE, node.vec_type)
    if node.kind is NodeKind.ALT:
        assert node.lane_opcodes is not None
        return model.altbinop_cost(node.lane_opcodes, node.vec_type)
    if node.kind is NodeKind.CALL:
        assert isinstance(first, CallInst)
        return model.intrinsic_cost(first.callee, node.vec_type)
    assert isinstance(first, Instruction)
    return model.vector_op_cost(first.opcode, node.vec_type)


def compute_graph_cost(graph: SLPGraph, model: CostModel) -> float:
    """Assign per-node costs and the graph total; returns the total.

    Also stashes the scalar/vector/extract breakdown on the graph (gather
    materialization counts as vector-side cost) for the decision journal;
    the total itself is accumulated node by node exactly as before, so
    the profitability verdict is unchanged by the bookkeeping.
    """
    internal = graph.internal_instructions()
    total = 0.0
    scalar_total = 0.0
    vector_total = 0.0
    for node in graph.nodes:
        if node.kind is NodeKind.GATHER:
            node.cost = _gather_cost(node, model)
            vector_total += node.cost
        else:
            vector_side = _vector_cost(node, model)
            scalar_side = _scalar_sum(node, model)
            node.cost = vector_side - scalar_side
            vector_total += vector_side
            scalar_total += scalar_side
        total += node.cost

    # Extract penalties: vectorized scalars still demanded by code outside
    # the graph must be pulled out of the vector register.
    extract_total = 0.0
    for node in graph.vectorizable_nodes():
        if node.kind is NodeKind.STORE:
            continue
        for value in node.lanes:
            if not isinstance(value, Instruction):
                continue
            if any(id(user) not in internal for user in value.unique_users()):
                extract_total += model.extract_cost
    total += extract_total
    graph.scalar_cost = scalar_total
    graph.vector_cost = vector_total
    graph.extract_cost = extract_total
    graph.total_cost = total
    return total


def is_profitable(graph: SLPGraph, threshold: float = 0.0) -> bool:
    """Figure 1, step 5: vectorize when cost is below the threshold."""
    return graph.total_cost < threshold
