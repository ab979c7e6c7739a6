"""Structural and type verifier for the repro IR.

Run after construction and after every transformation pass in tests; a
verifier failure means a pass produced malformed IR.  Checks:

* every block ends in exactly one terminator (and only the last
  instruction is a terminator);
* use-def bookkeeping is exact in both directions;
* operands of each instruction are defined before use within a block, or
  come from arguments/constants/globals/other (dominating) blocks — for the
  reducible single-loop CFGs the kernels use, a simple RPO check suffices;
* phis appear only at block starts and cover exactly the predecessors.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from .block import BasicBlock
from .function import Function
from .instructions import (
    ExtractElementInst,
    InsertElementInst,
    Instruction,
    PhiInst,
    ShuffleVectorInst,
)
from .module import Module
from .types import VectorType
from .values import Argument, Constant, GlobalBuffer, User, Value


class VerificationError(Exception):
    """Raised when IR fails verification."""


def _reverse_postorder(function: Function) -> Dict[int, int]:
    """Map ``id(block)`` -> RPO index for blocks reachable from entry."""
    order: List[BasicBlock] = []
    _postorder(function.entry, set(), order)
    order.reverse()
    return {id(block): index for index, block in enumerate(order)}


def _postorder(block: BasicBlock, visited: Set[int], order: List[BasicBlock]) -> None:
    # module-level, not a self-calling closure (DESIGN.md, IR ownership)
    visited.add(id(block))
    for succ in block.successors():
        if id(succ) not in visited:
            _postorder(succ, visited, order)
    order.append(block)


def _predecessors(function: Function) -> Dict[BasicBlock, List[BasicBlock]]:
    preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in function.blocks}
    for block in function.blocks:
        for succ in block.successors():
            if succ not in preds:
                raise VerificationError(
                    f"{function.name}: branch from {block.name} to foreign "
                    f"block {succ.name}"
                )
            preds[succ].append(block)
    return preds


def verify_function(function: Function) -> None:
    if not function.blocks:
        raise VerificationError(f"function {function.name} has no blocks")
    defined: Set[int] = set()
    for arg in function.arguments:
        defined.add(id(arg))
    # id(value) -> its use records, each as ``id(user) << 32 | index``,
    # built on the value's first appearance as an operand.  An int per
    # record rather than a tuple: the garbage collector does not track
    # ints, so the checks trigger no extra collections.  Operand indices
    # never reach 2**32, so the key is unique.
    use_records: Dict[int, Set[int]] = {}
    # id(inst) -> its operands, read once for every pass below
    operands_of: Dict[int, Sequence[Value]] = {}

    # Pass 1: structure, terminators, phi placement, use-list integrity.
    for block in function.blocks:
        if block.terminator is None:
            raise VerificationError(
                f"{function.name}/{block.name}: missing terminator"
            )
        last = len(block.instructions) - 1
        seen_non_phi = False
        for i, inst in enumerate(block):
            if inst.parent is not block:
                raise VerificationError(
                    f"{function.name}/{block.name}: instruction with stale "
                    f"parent"
                )
            if inst.is_terminator and i != last:
                raise VerificationError(
                    f"{function.name}/{block.name}: terminator not last"
                )
            if isinstance(inst, PhiInst):
                if seen_non_phi:
                    raise VerificationError(
                        f"{function.name}/{block.name}: phi after non-phi"
                    )
            else:
                seen_non_phi = True
            operands = operands_of[id(inst)] = inst.operands
            for index, op in enumerate(operands):
                records = use_records.get(id(op))
                if records is None:
                    records = {id(use.user) << 32 | use.index for use in op.uses}
                    use_records[id(op)] = records
                if id(inst) << 32 | index not in records:
                    raise VerificationError(
                        f"{function.name}/{block.name}: operand {index} of "
                        f"{inst.opcode} missing its use record"
                    )
            defined.add(id(inst))

    # Pass 2: every operand must be a known kind of value defined somewhere
    # in this function (or constant/global/argument).
    for block in function.blocks:
        for inst in block:
            for op in operands_of[id(inst)]:
                if isinstance(op, (Constant, GlobalBuffer)):
                    continue
                if isinstance(op, Argument):
                    if op not in function.arguments:
                        raise VerificationError(
                            f"{function.name}: foreign argument %{op.name}"
                        )
                    continue
                if id(op) not in defined:
                    raise VerificationError(
                        f"{function.name}/{block.name}: operand %{op.name} "
                        f"of {inst.opcode} is not defined in this function"
                    )

    # Pass 3: straight-line dominance within each block — a non-phi use of
    # an instruction defined in the *same* block must come after the def.
    for block in function.blocks:
        position = {id(inst): i for i, inst in enumerate(block.instructions)}
        for i, inst in enumerate(block):
            if isinstance(inst, PhiInst):
                continue
            for op in operands_of[id(inst)]:
                j = position.get(id(op))
                if j is not None and j >= i:
                    raise VerificationError(
                        f"{function.name}/{block.name}: %{op.name} used "
                        f"before definition"
                    )

    # Pass 3b: cross-block use-before-def ordering.  For the reducible
    # single-loop CFGs the kernels use, a non-phi use of a value defined in
    # a *different* block is only valid when the defining block precedes
    # the using block in reverse postorder — values flowing around a back
    # edge must travel through a phi.  (Unreachable blocks are exempt;
    # pass 2 already pinned their operands to this function.)
    rpo = _reverse_postorder(function)
    def_block: Dict[int, BasicBlock] = {}
    for block in function.blocks:
        for inst in block:
            def_block[id(inst)] = block
    for block in function.blocks:
        use_index = rpo.get(id(block))
        if use_index is None:
            continue
        for inst in block:
            if isinstance(inst, PhiInst):
                continue
            for op in operands_of[id(inst)]:
                home = def_block.get(id(op))
                if home is None or home is block:
                    continue
                home_index = rpo.get(id(home))
                if home_index is None or home_index >= use_index:
                    raise VerificationError(
                        f"{function.name}/{block.name}: %{op.name} used "
                        f"before its defining block {home.name} (no "
                        f"dominating path)"
                    )

    # Pass 4: phi edges match predecessors exactly.
    preds = _predecessors(function)
    for block in function.blocks:
        for phi in block.phis():
            incoming_blocks = list(phi.incoming_blocks)
            got = {id(b) for b in incoming_blocks}
            if len(incoming_blocks) != len(got):
                raise VerificationError(
                    f"{function.name}/{block.name}: duplicate phi predecessor"
                )
            if got != {id(b) for b in preds[block]}:
                raise VerificationError(
                    f"{function.name}/{block.name}: phi predecessors "
                    f"{sorted(b.name for b in incoming_blocks)} != CFG "
                    f"predecessors {sorted(b.name for b in preds[block])}"
                )

    # Pass 5: use lists point back at real operands.
    for block in function.blocks:
        for inst in block:
            for use in inst.uses:
                user = use.user
                if not (
                    isinstance(user, User)
                    and use.index < user.num_operands
                    and user.operand(use.index) is inst
                ):
                    raise VerificationError(
                        f"{function.name}/{block.name}: stale use record on "
                        f"%{inst.name}"
                    )

    # Pass 6: vector-lane bounds.  Static insert/extract lanes and shuffle
    # masks must index existing lanes — the fuzzing reducer leans on this
    # to reject shrink candidates that narrowed a vector out from under
    # its users.
    for block in function.blocks:
        for inst in block:
            if isinstance(inst, (InsertElementInst, ExtractElementInst)):
                vec_type = inst.operand(0).type
                if not isinstance(vec_type, VectorType):
                    raise VerificationError(
                        f"{function.name}/{block.name}: {inst.opcode} on "
                        f"non-vector {vec_type}"
                    )
                lane = inst.lane
                if isinstance(lane, Constant) and not (
                    0 <= int(lane.value) < vec_type.count
                ):
                    raise VerificationError(
                        f"{function.name}/{block.name}: {inst.opcode} lane "
                        f"{lane.value} out of range for {vec_type}"
                    )
            if isinstance(inst, ShuffleVectorInst):
                a_type = inst.a.type
                if not isinstance(a_type, VectorType):
                    raise VerificationError(
                        f"{function.name}/{block.name}: shufflevector on "
                        f"non-vector {a_type}"
                    )
                limit = a_type.count + inst.b.type.count
                if not all(0 <= m < limit for m in inst.mask):
                    raise VerificationError(
                        f"{function.name}/{block.name}: shuffle mask "
                        f"{list(inst.mask)} out of range for {limit} source "
                        f"lanes"
                    )


def verify_module(module: Module) -> None:
    """Verify every function in the module; raises VerificationError."""
    for function in module.functions.values():
        verify_function(function)
