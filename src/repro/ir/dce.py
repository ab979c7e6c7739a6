"""Dead code elimination.

The vectorizer's code generation leaves the replaced scalar instructions in
place (dead) and lets DCE sweep them, exactly as LLVM's SLP pass does.
An instruction is dead when it has no uses and no side effects.
"""

from __future__ import annotations

from typing import List

from .function import Function
from .instructions import Instruction
from .module import Module
from .values import MUTATION_EPOCH


def _is_trivially_dead(inst: Instruction) -> bool:
    return not inst.uses and not inst.type.is_void and not inst.has_side_effects


def _kill(inst: Instruction, pending: List[Instruction]) -> None:
    """Detach a dead instruction, queueing the instructions it used: each
    may have lost its last use."""
    pending.extend(op for op in inst.operands if isinstance(op, Instruction))
    inst.drop_all_references()
    inst.parent = None


def eliminate_dead_code(function: Function) -> int:
    """Remove every instruction that is dead or used only by dead ones;
    returns the number removed.

    One reverse walk per block: a dead user comes after its operands in
    its block, so a dead chain dies in that walk, and each block's list
    is rebuilt once.  The operands of every removed instruction are also
    queued, and the queue is drained afterwards: that catches an operand
    the walk had already passed, one defined in another block.  The
    result is the fixpoint of removing trivially dead instructions one
    at a time, in the same surviving order.
    """
    removed = 0
    pending: List[Instruction] = []
    for block in function.blocks:
        kept: List[Instruction] = []
        for inst in reversed(block.instructions):
            # _is_trivially_dead, inlined: this walk sees every instruction
            if inst.uses or inst.type.is_void or inst.has_side_effects:
                kept.append(inst)
            else:
                _kill(inst, pending)
        if len(kept) != len(block.instructions):
            removed += len(block.instructions) - len(kept)
            kept.reverse()
            block.instructions[:] = kept
    while pending:
        inst = pending.pop()
        block = inst.parent
        if block is not None and _is_trivially_dead(inst):
            block.remove(inst)
            _kill(inst, pending)
            removed += 1
    if removed:
        MUTATION_EPOCH.value += 1
    return removed


def eliminate_dead_code_in_module(module: Module) -> int:
    return sum(eliminate_dead_code(f) for f in module.functions.values())
