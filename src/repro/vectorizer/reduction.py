"""Horizontal reduction vectorization (LLVM's ``-slp-vectorize-hor``).

The paper enables horizontal-reduction support for both the LSLP baseline
and SN-SLP (Section V).  A reduction is a chain of one associative
operator folding many leaves into one scalar.  Two chain kinds share one
candidate type, planner, cost function and emitter:

* add chains, ``s = a0 + a1 - a2 + a3 ...``: one commutative operator
  and, under SN-SLP, its inverse;
* min/max chains, ``s = fmin(fmin(fmin(a, b), c), d)``, over the
  ``fmin``/``fmax``/``smin``/``smax`` intrinsics, which have no inverse
  element.

Vectorization:

1. grow the chain from a root whose value is consumed by non-chain code:
   an add chain through the same :func:`build_lane_chain` machinery
   behind the Multi-/Super-Node, a min/max chain through single-use calls
   of one callee;
2. partition the leaves by APO: the '+' leaves sum into one vector
   accumulator, the '-' leaves into another (this is what makes inverse
   operators legal inside reductions — exactly the Super-Node insight);
   every min/max leaf is '+';
3. bundle each APO group into vector-width chunks through the ordinary
   SLP tree builder (so dot-product-style ``sum(a[i]*b[i])`` chains get
   wide loads and wide multiplies for free);
4. combine chunk vectors, subtract the '-' accumulator, and fold the final
   vector to scalar with a log2 shuffle ladder;
5. fold any leftover (non-chunked) leaves in scalar form.

Only :meth:`ReductionCandidate.combine` and
:meth:`ReductionCandidate.op_cost` depend on the chain kind.  Cost follows
the same convention as the SLP graph: negative = profitable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Container, Dict, List, Optional, Sequence, Tuple

from ..ir.builder import IRBuilder
from ..ir.instructions import (
    BinaryInst,
    CallInst,
    Instruction,
    Opcode,
    base_opcode,
    inverse_opcode,
    same_operator_family,
)
from ..ir.types import Type, VectorType, vector_of
from ..ir.values import Constant, Value
from ..machine.costmodel import CostModel
from ..machine.isa import VectorISA
from ..observe import STAT
from .codegen import emit_node_tree
from .cost import _gather_cost, _scalar_sum, _vector_cost
from .graph import NodeKind, SLPNode
from .reorder import SuperNodeRecord
from .supernode import APO_MINUS, APO_PLUS, build_lane_chain

#: add-chain roots (the inverse joins the chain under SN-SLP)
REDUCTION_FAMILIES = (Opcode.ADD, Opcode.FADD)

#: reducible intrinsics; float ones need fast-math (NaN propagation order)
MINMAX_CALLEES = {"fmin": True, "fmax": True, "smin": False, "smax": False}

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
_STAT_MINMAX_CHAINS_FOUND = STAT(
    "minmax.chains-found", "Min/max reduction chains detected"
)
_STAT_MINMAX_LEAVES = STAT(
    "minmax.chain-leaves", "Leaves across detected min/max chains"
)


@dataclass
class ReductionCandidate:
    """A detected horizontal reduction chain: an add chain
    (``callee is None``) or a min/max call chain."""

    root: Instruction
    #: the scalar chain instructions the reduction replaces
    ops: List[Instruction]
    plus_leaves: List[Value]
    #: always empty for min/max, which has no inverse element
    minus_leaves: List[Value]
    #: the min/max intrinsic; None for an add chain
    callee: Optional[str] = None

    @property
    def leaf_count(self) -> int:
        return len(self.plus_leaves) + len(self.minus_leaves)

    @property
    def kind(self) -> str:
        """The seed kind naming the chain's counters, span and remarks."""
        return "reduction" if self.callee is None else "minmax"

    @property
    def title(self) -> str:
        """The chain in messages: ``reduction`` or e.g. ``fmax reduction``."""
        return "reduction" if self.callee is None else f"{self.callee} reduction"

    def combine(self, builder: IRBuilder, a: Value, b: Value, apo: bool) -> Value:
        """Emit ``a`` combined with ``b``; an APO '-' subtracts ``b``."""
        if self.callee is not None:
            return builder.call(self.callee, [a, b])
        base = base_opcode(self.root.opcode)
        return builder.binop(inverse_opcode(base) if apo else base, a, b)

    def op_cost(self, model: CostModel, type_: Type) -> float:
        """The cost of one combine at ``type_``, scalar or vector."""
        if self.callee is not None:
            return model.intrinsic_cost(self.callee, type_)
        base = base_opcode(self.root.opcode)
        if isinstance(type_, VectorType):
            return model.vector_op_cost(base, type_)
        return model.scalar_op_cost(base, type_)

    def record(self, chain_kind: str) -> SuperNodeRecord:
        """The chain as a one-lane node record: kind ``chain_kind``
        (``multi``/``super``) for an add chain, ``minmax`` otherwise."""
        return SuperNodeRecord(
            kind=chain_kind if self.callee is None else "minmax",
            lanes=1,
            size=len(self.ops),
            family=base_opcode(self.root.opcode),
            # an inverse trunk always puts a leaf in the '-' partition
            contains_inverse=bool(self.minus_leaves),
        )


def _is_reduction_root(inst: Instruction, consumed_ids: Container[int]) -> bool:
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
    consumed_ids: Container[int],
    max_trunks: int = 32,
) -> List[ReductionCandidate]:
    """Scan a block for vectorizable add chains (seed kind 2), skipping
    instructions whose id is in ``consumed_ids``: the caller keeps the
    instructions it names alive, so an id there is never a reused one."""
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
        ops = [unit.inst for _, unit in chain.trunks()]
        if any(id(op) in consumed_ids for op in ops):
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
        candidates.append(ReductionCandidate(inst, ops, plus, minus))
    return candidates


def _is_minmax_root(
    inst: Instruction, consumed_ids: Container[int], fast_math: bool
) -> bool:
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


def _grow_minmax(
    call: CallInst, calls: List[Instruction], leaves: List[Value], max_calls: int
) -> None:
    """Collect the same-callee single-use calls of ``call``'s chain into
    ``calls`` (pre-order) and its other operands into ``leaves``."""
    calls.append(call)
    for operand in call.operands:
        if (
            isinstance(operand, CallInst)
            and operand.callee == call.callee
            and operand.num_uses == 1
            and operand.parent is call.parent
            and len(calls) < max_calls
        ):
            _grow_minmax(operand, calls, leaves, max_calls)
        else:
            leaves.append(operand)


def find_minmax_candidates(
    block,
    fast_math: bool,
    consumed_ids: Container[int],
    max_calls: int = 32,
) -> List[ReductionCandidate]:
    """Scan a block for min/max call chains (``consumed_ids`` as in
    :func:`find_reduction_candidates`)."""
    candidates: List[ReductionCandidate] = []
    for inst in block:
        if not _is_minmax_root(inst, consumed_ids, fast_math):
            continue
        calls: List[Instruction] = []
        leaves: List[Value] = []
        _grow_minmax(inst, calls, leaves, max_calls)
        if len(leaves) < MIN_REDUCTION_LEAVES:
            continue
        if any(id(call) in consumed_ids for call in calls):
            continue
        _STAT_MINMAX_CHAINS_FOUND.add()
        _STAT_MINMAX_LEAVES.add(len(leaves))
        candidates.append(ReductionCandidate(inst, calls, leaves, [], inst.callee))
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
    scalar_op = candidate.op_cost(model, element)
    assigned: set = set()
    profitable_chunks: List[Tuple[bool, SLPNode, List[SLPNode]]] = []
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
        marginal = delta + candidate.op_cost(model, vec_type)
        if marginal < node.vec_type.count * scalar_op:
            profitable_chunks.append((apo, node, subtree))
        else:
            leftovers.extend((apo, value) for value in node.lanes)
    if not profitable_chunks:
        return None

    # All chunk vectors must share one width to combine (vector widening
    # is future work).  Keep the width covering the most leaves; demote
    # the rest to scalar leftovers.
    by_width: Dict[int, int] = {}
    for _, node, _ in profitable_chunks:
        width = node.vec_type.count
        by_width[width] = by_width.get(width, 0) + width
    main_width = max(by_width, key=lambda w: (by_width[w], w))
    kept: List[Tuple[bool, SLPNode]] = []
    kept_nodes: List[SLPNode] = []
    for apo, node, subtree in profitable_chunks:
        if node.vec_type.count == main_width:
            kept.append((apo, node))
            kept_nodes.extend(subtree)
        else:
            leftovers.extend((apo, value) for value in node.lanes)
    plan = ReductionPlan(candidate, kept, leftovers, main_width, nodes=kept_nodes)
    plan.total_cost = _cost_plan(plan, model)
    return plan


def _subtree_nodes(root: SLPNode, assigned: set) -> List[SLPNode]:
    """Nodes reachable from ``root`` not yet assigned to an earlier chunk."""
    found: List[SLPNode] = []
    stack = [root]
    while stack:  # pre-order, operands left to right
        node = stack.pop()
        if id(node) in assigned:
            continue
        assigned.add(id(node))
        found.append(node)
        stack.extend(reversed(node.operands))
    return found


def _cost_plan(plan: ReductionPlan, model: CostModel) -> float:
    candidate = plan.candidate
    element = candidate.root.type
    scalar_op = candidate.op_cost(model, element)
    vector_op = candidate.op_cost(model, vector_of(element, plan.vector_width))

    # Savings: the whole scalar chain disappears...
    cost = -len(candidate.ops) * scalar_op
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
    builder = IRBuilder()
    builder.position_before(root)
    memo: Dict[int, Value] = {}

    accumulators: Dict[bool, Optional[Value]] = {APO_PLUS: None, APO_MINUS: None}
    for apo, node in plan.chunks:
        value = emit_node_tree(node, builder, memo)
        current = accumulators[apo]
        accumulators[apo] = (
            value if current is None
            else candidate.combine(builder, current, value, APO_PLUS)
        )

    plus_vec = accumulators[APO_PLUS]
    minus_vec = accumulators[APO_MINUS]
    negate_result = False
    if plus_vec is not None and minus_vec is not None:
        combined = candidate.combine(builder, plus_vec, minus_vec, APO_MINUS)
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
        combined = candidate.combine(builder, low, high, APO_PLUS)
        width = half
    lane0 = builder.extractelement(combined, 0)
    lane1 = builder.extractelement(combined, 1)
    scalar = candidate.combine(builder, lane0, lane1, APO_PLUS)
    if negate_result:
        zero = Constant(root.type, 0.0 if root.type.is_float else 0)
        scalar = candidate.combine(builder, zero, scalar, APO_MINUS)

    for apo, leaf in plan.leftovers:
        scalar = candidate.combine(builder, scalar, leaf, apo)

    root.replace_all_uses_with(scalar)
    return scalar
