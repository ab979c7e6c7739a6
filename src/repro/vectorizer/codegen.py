"""Vector code generation (Figure 1, step 6b).

Emits the vector form of a profitable SLP graph at its anchor (immediately
before the last seed store), wires external users through extractelement,
replaces the scalar seed stores with one wide store, and leaves the dead
scalar expression tree for DCE — the same strategy as LLVM's SLP pass.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir.builder import IRBuilder
from ..ir.instructions import (
    BinaryInst,
    CallInst,
    CastInst,
    CmpInst,
    Instruction,
    LoadInst,
    Opcode,
    SelectInst,
    StoreInst,
)
from ..ir.types import VectorType, vector_of as vector_type_of
from ..ir.values import Constant, Value
from ..robust.faults import current_faults
from .graph import NodeKind, SLPGraph, SLPNode


class CodegenError(Exception):
    """Raised when a graph that claimed to be vectorizable cannot be
    emitted (indicates a builder bug, not a user error)."""


def emit_node_tree(
    node: SLPNode, builder: IRBuilder, memo: Optional[Dict[int, Value]] = None
) -> Value:
    """Emit the vector value for ``node`` (and, recursively, its operand
    nodes) at the builder's insertion point.  ``memo`` shares emitted
    vectors across multiple trees (nodes reached twice emit once)."""
    if memo is None:
        memo = {}
    cached = memo.get(id(node))
    if cached is not None:
        return cached
    value = _emit_node(node, builder, memo)
    memo[id(node)] = value
    node.vector_value = value
    return value


def emit_vector_code(graph: SLPGraph) -> Value:
    """Emit vector code for ``graph``; returns the root vector store."""
    builder = IRBuilder()
    builder.position_before(graph.anchor)
    internal = graph.internal_instructions()
    memo: Dict[int, Value] = {}
    root = graph.root
    if root.kind is not NodeKind.STORE:
        raise CodegenError(f"graph root must be a store bundle, got {root.kind}")
    stored = emit_node_tree(root.operands[0], builder, memo)
    first_store = root.lanes[0]
    assert isinstance(first_store, StoreInst)
    vec_store = builder.store(stored, first_store.pointer)
    root.vector_value = vec_store

    _emit_external_extracts(graph, builder, memo, internal)

    # The scalar seed stores are now redundant; erase them eagerly (they
    # have side effects, so DCE would never remove them).
    for lane in root.lanes:
        assert isinstance(lane, StoreInst)
        lane.erase_from_parent()
    # Injection point *after* emission: "raise" leaves half-rewritten IR
    # behind (the hardest rollback case) and "corrupt" produces a block
    # the post-phase verifier must reject (a missing terminator).
    current_faults().fire(
        "codegen.emit",
        corrupt=lambda: vec_store.parent.terminator.erase_from_parent(),
    )
    return vec_store


def _emit_node(node: SLPNode, builder: IRBuilder, memo: Dict[int, Value]) -> Value:
    first = node.lanes[0]
    vec_type = node.vec_type

    def vector_of(operand: SLPNode) -> Value:
        return emit_node_tree(operand, builder, memo)

    if node.kind is NodeKind.GATHER:
        return _emit_gather(node, builder)

    if node.kind is NodeKind.LOAD:
        if node.load_reversed:
            # lanes address memory in descending order: the run starts at
            # the last lane's pointer; reverse after the wide load
            last = node.lanes[-1]
            assert isinstance(last, LoadInst)
            wide = builder.load(last.pointer, vec_type)
            mask = list(range(vec_type.count - 1, -1, -1))
            return builder.shufflevector(wide, wide, mask)
        assert isinstance(first, LoadInst)
        return builder.load(first.pointer, vec_type)

    if node.kind is NodeKind.ALT:
        assert node.lane_opcodes is not None
        lhs = vector_of(node.operands[0])
        rhs = vector_of(node.operands[1])
        return builder.altbinop(node.lane_opcodes, lhs, rhs)

    if node.kind is NodeKind.CALL:
        assert isinstance(first, CallInst)
        args = [vector_of(operand) for operand in node.operands]
        return builder.call(first.callee, args)

    if node.kind is NodeKind.VECTOR:
        if isinstance(first, BinaryInst):
            lhs = vector_of(node.operands[0])
            rhs = vector_of(node.operands[1])
            return builder.binop(first.opcode, lhs, rhs)
        if isinstance(first, CmpInst):
            lhs = vector_of(node.operands[0])
            rhs = vector_of(node.operands[1])
            if first.opcode is Opcode.ICMP:
                return builder.icmp(first.predicate, lhs, rhs)
            return builder.fcmp(first.predicate, lhs, rhs)
        if isinstance(first, SelectInst):
            cond = vector_of(node.operands[0])
            a = vector_of(node.operands[1])
            b = vector_of(node.operands[2])
            return builder.select(cond, a, b)
        if isinstance(first, CastInst):
            value = vector_of(node.operands[0])
            target = vector_type_of(first.type, node.num_lanes)
            return builder.cast(first.opcode, value, target)
        raise CodegenError(f"unhandled VECTOR lane kind: {type(first).__name__}")

    raise CodegenError(f"unhandled node kind: {node.kind}")


def _emit_gather(node: SLPNode, builder: IRBuilder) -> Value:
    """Materialize a vector from arbitrary scalars.

    All-constant bundles fold to a vector constant; splats use one insert
    plus a broadcast shuffle; anything else is a chain of inserts — the
    exact shapes the cost model priced.
    """
    vec_type = node.vec_type
    lanes = node.lanes
    if all(isinstance(v, Constant) for v in lanes):
        return Constant(vec_type, tuple(v.value for v in lanes))  # type: ignore[union-attr]
    zero = Constant(
        vec_type,
        tuple(
            0 if vec_type.element.is_integer else 0.0
            for _ in range(vec_type.count)
        ),
    )
    if all(v is lanes[0] for v in lanes):
        seeded = builder.insertelement(zero, lanes[0], 0)
        return builder.shufflevector(seeded, zero, [0] * vec_type.count)
    current: Value = zero
    for lane_index, value in enumerate(lanes):
        current = builder.insertelement(current, value, lane_index)
    return current


def _emit_external_extracts(
    graph: SLPGraph,
    builder: IRBuilder,
    memo: Dict[int, Value],
    internal: Dict[int, Instruction],
) -> None:
    """Rewire external users of vectorized scalars to extractelement.

    Only uses that execute at-or-after the anchor can be rewired (the
    extract is emitted at the anchor); earlier users keep the scalar alive,
    which is safe — the scalar chain simply survives DCE.
    """
    anchor = graph.anchor
    block = graph.block
    anchor_pos = block.index_of(anchor)
    for node in graph.vectorizable_nodes():
        if node.kind is NodeKind.STORE or node.vector_value is None:
            continue
        for lane_index, scalar in enumerate(node.lanes):
            if not isinstance(scalar, Instruction):
                continue
            rewirable = []
            for use in list(scalar.uses):
                user = use.user
                if id(user) in internal:
                    continue
                if not isinstance(user, Instruction):
                    continue
                if user.parent is block:
                    if user.parent.index_of(user) < anchor_pos:
                        continue  # executes before the extract would exist
                rewirable.append(use)
            if not rewirable:
                continue
            extract = builder.extractelement(node.vector_value, lane_index)
            for use in rewirable:
                use.user.set_operand(use.index, extract)
