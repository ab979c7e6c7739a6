"""Min/max horizontal reductions.

LLVM's ``-slp-vectorize-hor`` handles min/max reductions alongside
add-reductions; this module covers that half for the repro's intrinsic
set (``fmin``/``fmax``/``smin``/``smax``).  Min/max is commutative and
associative with *no* inverse element, so the machinery is a simplified
cousin of :mod:`repro.vectorizer.reduction`: one accumulator group, no APO
partitioning.

``s = fmin(fmin(fmin(a, b), c), d)`` becomes a wide load (or chunk tree),
pairwise vector ``fmin`` combines, a shuffle ladder, and a final scalar
``fmin`` over the two surviving lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.builder import IRBuilder
from ..ir.instructions import CallInst, Instruction, Opcode
from ..ir.types import vector_of
from ..ir.values import Value
from ..machine.costmodel import CostModel
from ..machine.isa import VectorISA
from ..observe import STAT
from .codegen import emit_node_tree
from .cost import _gather_cost, _scalar_sum, _vector_cost
from .graph import NodeKind, SLPNode
from .reduction import MIN_REDUCTION_LEAVES, _order_group, _subtree_nodes
from .reorder import SuperNodeRecord

#: reducible intrinsics; float ones need fast-math (NaN propagation order)
MINMAX_CALLEES = {"fmin": True, "fmax": True, "smin": False, "smax": False}

_STAT_CHAINS_FOUND = STAT(
    "minmax.chains-found", "Min/max reduction chains detected"
)
_STAT_CHAIN_LEAVES = STAT(
    "minmax.chain-leaves", "Leaves across detected min/max chains"
)


@dataclass
class MinMaxCandidate:
    """A chain of same-callee min/max calls folding into one scalar."""

    root: CallInst
    callee: str
    chain_calls: List[CallInst]
    leaves: List[Value]

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    def record(self) -> SuperNodeRecord:
        return SuperNodeRecord(
            kind="minmax",
            lanes=1,
            size=len(self.chain_calls),
            family=Opcode.CALL,
            contains_inverse=False,
        )


def _is_minmax_root(inst: Instruction, consumed_ids: set, fast_math: bool) -> bool:
    if not isinstance(inst, CallInst) or inst.callee not in MINMAX_CALLEES:
        return False
    if MINMAX_CALLEES[inst.callee] and not fast_math:
        return False
    if not inst.type.is_scalar:
        return False
    if id(inst) in consumed_ids or inst.num_uses == 0:
        return False
    return not any(
        isinstance(user, CallInst) and user.callee == inst.callee
        for user in inst.users()
    )


def find_minmax_candidates(
    block,
    fast_math: bool,
    consumed_ids: set,
    max_calls: int = 32,
) -> List[MinMaxCandidate]:
    """Scan a block for min/max reduction chains."""
    candidates: List[MinMaxCandidate] = []
    for inst in block:
        if not _is_minmax_root(inst, consumed_ids, fast_math):
            continue
        calls: List[CallInst] = []
        leaves: List[Value] = []

        def grow(call: CallInst) -> None:
            calls.append(call)
            for operand in call.operands:
                if (
                    isinstance(operand, CallInst)
                    and operand.callee == call.callee
                    and operand.num_uses == 1
                    and operand.parent is call.parent
                    and len(calls) < max_calls
                ):
                    grow(operand)
                else:
                    leaves.append(operand)

        grow(inst)
        if len(leaves) < MIN_REDUCTION_LEAVES:
            continue
        if any(id(call) in consumed_ids for call in calls):
            continue
        _STAT_CHAINS_FOUND.add()
        _STAT_CHAIN_LEAVES.add(len(leaves))
        candidates.append(MinMaxCandidate(inst, inst.callee, calls, leaves))
    return candidates


@dataclass
class MinMaxPlan:
    candidate: MinMaxCandidate
    chunks: List[SLPNode]
    leftovers: List[Value]
    vector_width: int
    total_cost: float = 0.0
    nodes: List[SLPNode] = field(default_factory=list)


def plan_minmax(
    candidate: MinMaxCandidate,
    builder,  # _GraphBuilder (untyped to avoid an import cycle)
    isa: VectorISA,
    model: CostModel,
) -> Optional[MinMaxPlan]:
    element = candidate.root.type
    widths = isa.legal_lane_counts(element)
    if not widths:
        return None
    leaves = _order_group(candidate.leaves, builder.scorer)
    scalar_call = model.intrinsic_cost(candidate.callee, element)

    chunks: List[SLPNode] = []
    kept_nodes: List[SLPNode] = []
    leftovers: List[Value] = []
    assigned: set = set()
    start = 0
    while len(leaves) - start >= 2:
        width = next((w for w in widths if w <= len(leaves) - start), None)
        if width is None:
            break
        chunk_leaves = tuple(leaves[start : start + width])
        node = builder.build_value_bundle(chunk_leaves)
        subtree = _subtree_nodes(node, assigned)
        delta = 0.0
        for sub in subtree:
            if sub.kind is NodeKind.GATHER:
                sub.cost = _gather_cost(sub, model)
            else:
                sub.cost = _vector_cost(sub, model) - _scalar_sum(sub, model)
            delta += sub.cost
        vec_type = vector_of(element, width)
        marginal = delta + model.intrinsic_cost(candidate.callee, vec_type)
        if marginal < width * scalar_call:
            chunks.append(node)
            kept_nodes.extend(subtree)
        else:
            leftovers.extend(chunk_leaves)
        start += width
    leftovers.extend(leaves[start:])
    if not chunks:
        return None

    # uniform width (dominant-by-leaves, wider on ties)
    by_width: Dict[int, int] = {}
    for node in chunks:
        width = node.vec_type.count
        by_width[width] = by_width.get(width, 0) + width
    main_width = max(by_width, key=lambda w: (by_width[w], w))
    final_chunks: List[SLPNode] = []
    final_nodes: List[SLPNode] = []
    for node in chunks:
        if node.vec_type.count == main_width:
            final_chunks.append(node)
        else:
            leftovers.extend(node.lanes)
    if not final_chunks:
        return None
    # restrict nodes to subtrees of the final chunks
    assigned2: set = set()
    for node in final_chunks:
        final_nodes.extend(_subtree_nodes(node, assigned2))

    plan = MinMaxPlan(
        candidate=candidate,
        chunks=final_chunks,
        leftovers=leftovers,
        vector_width=main_width,
    )
    plan.nodes = final_nodes
    plan.total_cost = _cost_minmax(plan, model)
    return plan


def _cost_minmax(plan: MinMaxPlan, model: CostModel) -> float:
    candidate = plan.candidate
    element = candidate.root.type
    vec_type = vector_of(element, plan.vector_width)
    scalar_call = model.intrinsic_cost(candidate.callee, element)
    vector_call = model.intrinsic_cost(candidate.callee, vec_type)

    cost = -len(candidate.chain_calls) * scalar_call
    cost += sum(node.cost for node in plan.nodes)
    cost += max(len(plan.chunks) - 1, 0) * vector_call
    stages = max(int(math.log2(plan.vector_width)) - 1, 0)
    cost += stages * (model.shuffle_cost * 2 + vector_call)
    cost += 2 * model.extract_cost + scalar_call
    cost += len(plan.leftovers) * scalar_call
    return cost


def emit_minmax(plan: MinMaxPlan) -> Value:
    """Emit the vectorized min/max reduction before the chain root."""
    candidate = plan.candidate
    root = candidate.root
    callee = candidate.callee
    builder = IRBuilder()
    builder.position_before(root)
    memo: Dict[int, Value] = {}

    accumulator: Optional[Value] = None
    for node in plan.chunks:
        value = emit_node_tree(node, builder, memo)
        accumulator = (
            value
            if accumulator is None
            else builder.call(callee, [accumulator, value])
        )
    assert accumulator is not None

    width = accumulator.type.count  # type: ignore[union-attr]
    while width > 2:
        half = width // 2
        low = builder.shufflevector(accumulator, accumulator, list(range(half)))
        high = builder.shufflevector(
            accumulator, accumulator, list(range(half, width))
        )
        accumulator = builder.call(callee, [low, high])
        width = half
    lane0 = builder.extractelement(accumulator, 0)
    lane1 = builder.extractelement(accumulator, 1)
    scalar: Value = builder.call(callee, [lane0, lane1])
    for leaf in plan.leftovers:
        scalar = builder.call(callee, [scalar, leaf])
    root.replace_all_uses_with(scalar)
    return scalar
