"""Horizontal reduction vectorization (LLVM's ``-slp-vectorize-hor``).

The paper enables horizontal-reduction support for both the LSLP baseline
and SN-SLP (Section V).  A reduction is a chain of one commutative
operator — and, under SN-SLP, its inverse — folding many leaves into one
scalar, e.g. ``s = a0 + a1 - a2 + a3 ...``.  Vectorization:

1. grow the chain (the same :func:`build_lane_chain` machinery behind the
   Multi-/Super-Node) from a root whose value is consumed by non-chain
   code;
2. partition the leaves by APO: the '+' leaves sum into one vector
   accumulator, the '-' leaves into another (this is what makes inverse
   operators legal inside reductions — exactly the Super-Node insight);
3. bundle each APO group into vector-width chunks through the ordinary
   SLP tree builder (so dot-product-style ``sum(a[i]*b[i])`` chains get
   wide loads and wide multiplies for free);
4. combine chunk vectors, subtract the '-' accumulator, and fold the final
   vector to scalar with a log2 shuffle/add ladder;
5. fold any leftover (non-chunked) leaves in scalar form.

Cost follows the same convention as the SLP graph: negative = profitable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.builder import IRBuilder
from ..ir.instructions import (
    BinaryInst,
    Instruction,
    Opcode,
    base_opcode,
    inverse_opcode,
    same_operator_family,
)
from ..ir.types import vector_of
from ..ir.values import Constant, Value
from ..machine.costmodel import CostModel
from ..machine.isa import VectorISA
from ..observe import STAT
from .codegen import emit_node_tree
from .cost import _gather_cost, _scalar_sum, _vector_cost
from .graph import NodeKind, SLPNode
from .reorder import SuperNodeRecord
from .supernode import APO_MINUS, APO_PLUS, LaneChain, build_lane_chain

#: chains eligible as reduction roots (min/max reductions are future work)
REDUCTION_FAMILIES = (Opcode.ADD, Opcode.FADD)

#: LLVM requires a minimum number of reduced values before trying
MIN_REDUCTION_LEAVES = 4

_STAT_CHAINS_FOUND = STAT(
    "reduction.chains-found", "Horizontal reduction chains detected"
)
_STAT_PLUS_LEAVES = STAT(
    "reduction.plus-leaves", "Reduction leaves in the '+' APO partition"
)
_STAT_MINUS_LEAVES = STAT(
    "reduction.minus-leaves", "Reduction leaves in the '-' APO partition"
)


@dataclass
class ReductionCandidate:
    """A detected horizontal reduction chain."""

    root: BinaryInst
    chain: LaneChain
    plus_leaves: List[Value]
    minus_leaves: List[Value]

    @property
    def leaf_count(self) -> int:
        return len(self.plus_leaves) + len(self.minus_leaves)

    @property
    def contains_inverse(self) -> bool:
        return bool(self.minus_leaves) or any(
            unit.is_inverse for _, unit in self.chain.trunks()
        )

    def record(self, kind: str) -> SuperNodeRecord:
        return SuperNodeRecord(
            kind=kind,
            lanes=1,
            size=self.chain.size(),
            family=self.chain.family,
            contains_inverse=self.contains_inverse,
        )


def _is_reduction_root(inst: Instruction, consumed_ids: set) -> bool:
    """The root's value must leave the chain: no same-family binary user."""
    if not isinstance(inst, BinaryInst):
        return False
    if base_opcode(inst.opcode) not in REDUCTION_FAMILIES:
        return False
    if not inst.type.is_scalar:
        return False
    if id(inst) in consumed_ids or inst.num_uses == 0:
        return False
    for user in inst.users():
        if isinstance(user, BinaryInst) and same_operator_family(
            user.opcode, inst.opcode
        ):
            return False
    return True


def find_reduction_candidates(
    block,
    allow_inverse: bool,
    fast_math: bool,
    consumed_ids: set,
    max_trunks: int = 32,
) -> List[ReductionCandidate]:
    """Scan a block for vectorizable reduction chains (seed kind 2)."""
    candidates: List[ReductionCandidate] = []
    for inst in block:
        if not _is_reduction_root(inst, consumed_ids):
            continue
        chain = build_lane_chain(
            inst, allow_inverse=allow_inverse, fast_math=fast_math,
            max_trunks=max_trunks,
        )
        if chain is None:
            continue
        if any(id(unit.inst) in consumed_ids for _, unit in chain.trunks()):
            continue
        plus: List[Value] = []
        minus: List[Value] = []
        for apo, value in chain.signed_terms():
            (minus if apo else plus).append(value)
        if len(plus) + len(minus) < MIN_REDUCTION_LEAVES:
            continue
        _STAT_CHAINS_FOUND.add()
        _STAT_PLUS_LEAVES.add(len(plus))
        _STAT_MINUS_LEAVES.add(len(minus))
        candidates.append(ReductionCandidate(inst, chain, plus, minus))
    return candidates


def _order_group(leaves: Sequence[Value], scorer) -> List[Value]:
    """Greedy look-ahead ordering of one APO group.

    Tries every leaf as the sequence start and extends by the
    highest-scoring next leaf (the same greedy shape as Listing 3's
    ``buildGroup``); returns the best-scoring full sequence.  Scores go
    through a per-call memo: the IR does not change while ordering.
    """
    leaves = list(leaves)
    if len(leaves) <= 2:
        return leaves
    scorer = scorer.memo()
    best_sequence = leaves
    best_score = -1
    for start_index, start in enumerate(leaves):
        remaining = leaves[:start_index] + leaves[start_index + 1 :]
        sequence = [start]
        total = 0
        while remaining:
            scored = max(
                range(len(remaining)),
                key=lambda k: scorer.score_pair(sequence[-1], remaining[k]),
            )
            total += scorer.score_pair(sequence[-1], remaining[scored])
            sequence.append(remaining.pop(scored))
        if total > best_score:
            best_score = total
            best_sequence = sequence
    return best_sequence


@dataclass
class ReductionPlan:
    """Chunking decision and cost for one candidate."""

    candidate: ReductionCandidate
    #: (apo, chunk tree) pairs; every chunk is one vector's worth of leaves
    chunks: List[Tuple[bool, SLPNode]]
    #: (apo, value) leftovers folded in scalar form
    leftovers: List[Tuple[bool, Value]]
    vector_width: int
    total_cost: float = 0.0
    nodes: List[SLPNode] = field(default_factory=list)


def plan_reduction(
    candidate: ReductionCandidate,
    builder,  # _GraphBuilder from .slp (kept untyped to avoid a cycle)
    isa: VectorISA,
    model: CostModel,
) -> Optional[ReductionPlan]:
    """Chunk the candidate's leaves and cost the transformation."""
    element = candidate.root.type
    widths = isa.legal_lane_counts(element)
    if not widths:
        return None
    chunks: List[Tuple[bool, SLPNode]] = []
    leftovers: List[Tuple[bool, Value]] = []
    for apo, group in ((APO_PLUS, candidate.plus_leaves), (APO_MINUS, candidate.minus_leaves)):
        # A reduction is commutative within an APO group, so the leaves may
        # be bundled in *any* order: pick the look-ahead-best ordering
        # (which lines consecutive loads up in lane order).
        leaves = _order_group(group, builder.scorer)
        start = 0
        while len(leaves) - start >= 2:
            width = next((w for w in widths if w <= len(leaves) - start), None)
            if width is None:
                break
            chunk = tuple(leaves[start : start + width])
            chunks.append((apo, builder.build_value_bundle(chunk)))
            start += width
        leftovers.extend((apo, leaf) for leaf in leaves[start:])
    if not chunks:
        return None

    # Assign each chunk its subtree nodes and a marginal cost: keep a chunk
    # only when vectorizing its leaves beats folding them one by one in
    # scalar form (chunk subtree delta + one combining vector op vs
    # ``width`` scalar fold ops).  Unprofitable chunks — e.g. a group whose
    # loads are not adjacent and would all gather — demote to leftovers.
    base = base_opcode(candidate.root.opcode)
    scalar_op = model.scalar_op_cost(base, element)
    assigned: set = set()
    profitable_chunks: List[Tuple[bool, SLPNode, List[SLPNode], float]] = []
    for apo, node in chunks:
        subtree = _subtree_nodes(node, assigned)
        delta = 0.0
        for sub in subtree:
            if sub.kind is NodeKind.GATHER:
                sub.cost = _gather_cost(sub, model)
            else:
                sub.cost = _vector_cost(sub, model) - _scalar_sum(sub, model)
            delta += sub.cost
        vec_type = vector_of(element, node.vec_type.count)
        marginal = delta + model.vector_op_cost(base, vec_type)
        if marginal < node.vec_type.count * scalar_op:
            profitable_chunks.append((apo, node, subtree, delta))
        else:
            leftovers.extend((apo, value) for value in node.lanes)
    if not profitable_chunks:
        return None

    # All chunk vectors must share one width to combine (vector widening
    # is future work).  Keep the width covering the most leaves; demote
    # the rest to scalar leftovers.
    by_width: Dict[int, int] = {}
    for _, node, _, _ in profitable_chunks:
        width = node.vec_type.count
        by_width[width] = by_width.get(width, 0) + width
    main_width = max(by_width, key=lambda w: (by_width[w], w))
    kept: List[Tuple[bool, SLPNode]] = []
    kept_nodes: List[SLPNode] = []
    for apo, node, subtree, _ in profitable_chunks:
        if node.vec_type.count == main_width:
            kept.append((apo, node))
            kept_nodes.extend(subtree)
        else:
            leftovers.extend((apo, value) for value in node.lanes)
    if not kept:
        return None

    plan = ReductionPlan(
        candidate=candidate,
        chunks=kept,
        leftovers=leftovers,
        vector_width=main_width,
    )
    plan.nodes = kept_nodes
    plan.total_cost = _cost_plan(plan, model)
    return plan


def _subtree_nodes(root: SLPNode, assigned: set) -> List[SLPNode]:
    """Nodes reachable from ``root`` not yet assigned to an earlier chunk."""
    found: List[SLPNode] = []

    def walk(node: SLPNode) -> None:
        if id(node) in assigned:
            return
        assigned.add(id(node))
        found.append(node)
        for operand in node.operands:
            walk(operand)

    walk(root)
    return found


def _cost_plan(plan: ReductionPlan, model: CostModel) -> float:
    candidate = plan.candidate
    element = candidate.root.type
    base = base_opcode(candidate.root.opcode)
    vec_type = vector_of(element, plan.vector_width)
    scalar_op = model.scalar_op_cost(base, element)
    vector_op = model.vector_op_cost(base, vec_type)

    # Savings: the whole scalar chain disappears (size() trunk ops)...
    cost = -candidate.chain.size() * scalar_op
    # ...and the kept chunk subtrees contribute their (already computed)
    # per-node deltas.
    cost += sum(node.cost for node in plan.nodes)
    # Combining chunk vectors (plus group and minus group, then the cross
    # subtraction when both exist).
    num_combines = max(len(plan.chunks) - 1, 0)
    has_plus = any(not apo for apo, _ in plan.chunks)
    has_minus = any(apo for apo, _ in plan.chunks)
    cost += num_combines * vector_op
    # The shuffle ladder: log2(width) - 1 vector stages + the final scalar op.
    stages = max(int(math.log2(plan.vector_width)) - 1, 0)
    cost += stages * (model.shuffle_cost * 2 + vector_op)
    cost += 2 * model.extract_cost + scalar_op
    if has_minus and not has_plus:
        cost += scalar_op  # negation of the reduced '-' accumulator
    # Leftover leaves are folded with scalar ops (same count as before, so
    # they are cost-neutral relative to the removed chain ops — but the
    # chain saving above already assumed *all* ops vanish, so charge them).
    cost += len(plan.leftovers) * scalar_op
    return cost


def emit_reduction(plan: ReductionPlan) -> Value:
    """Emit the vectorized reduction immediately before the chain root and
    rewire the root's users to the new scalar; returns the scalar."""
    candidate = plan.candidate
    root = candidate.root
    base = base_opcode(root.opcode)
    inverse = inverse_opcode(base)
    assert inverse is not None
    builder = IRBuilder()
    builder.position_before(root)
    memo: Dict[int, Value] = {}

    accumulators: Dict[bool, Optional[Value]] = {APO_PLUS: None, APO_MINUS: None}
    for apo, node in plan.chunks:
        value = emit_node_tree(node, builder, memo)
        current = accumulators[apo]
        accumulators[apo] = (
            value if current is None else builder.binop(base, current, value)
        )

    plus_vec = accumulators[APO_PLUS]
    minus_vec = accumulators[APO_MINUS]
    negate_result = False
    if plus_vec is not None and minus_vec is not None:
        combined = builder.binop(inverse, plus_vec, minus_vec)
    elif plus_vec is not None:
        combined = plus_vec
    else:
        assert minus_vec is not None
        combined = minus_vec
        negate_result = True

    # log2 shuffle ladder down to 2 lanes, then extract + scalar op.
    width = combined.type.count  # type: ignore[union-attr]
    while width > 2:
        half = width // 2
        low = builder.shufflevector(combined, combined, list(range(half)))
        high = builder.shufflevector(combined, combined, list(range(half, width)))
        combined = builder.binop(base, low, high)
        width = half
    lane0 = builder.extractelement(combined, 0)
    lane1 = builder.extractelement(combined, 1)
    scalar: Value = builder.binop(base, lane0, lane1)
    if negate_result:
        zero = Constant(root.type, 0.0 if root.type.is_float else 0)
        scalar = builder.binop(inverse, zero, scalar)

    for apo, leaf in plan.leftovers:
        scalar = builder.binop(inverse if apo else base, scalar, leaf)

    root.replace_all_uses_with(scalar)
    return scalar
