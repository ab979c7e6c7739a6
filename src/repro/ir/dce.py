"""Dead code elimination.

The vectorizer's code generation leaves the replaced scalar instructions in
place (dead) and lets DCE sweep them, exactly as LLVM's SLP pass does.
An instruction is dead when it has no uses and no side effects.
"""

from __future__ import annotations


from .function import Function
from .instructions import Instruction
from .module import Module


def _is_trivially_dead(inst: Instruction) -> bool:
    return not inst.has_side_effects and inst.num_uses == 0 and not inst.type.is_void


def eliminate_dead_code(function: Function) -> int:
    """Iteratively remove dead instructions; returns the number removed."""
    removed = 0
    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            # Walk backwards so chains of dead instructions die in one pass.
            for inst in reversed(list(block.instructions)):
                if _is_trivially_dead(inst):
                    inst.erase_from_parent()
                    removed += 1
                    changed = True
    return removed


def eliminate_dead_code_in_module(module: Module) -> int:
    return sum(eliminate_dead_code(f) for f in module.functions.values())
