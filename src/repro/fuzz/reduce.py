"""Delta-debugging reducer: shrink a failing module to a minimal reproducer.

Given a module and a *predicate* ("the oracle still fails on this module
the same way"), the reducer repeatedly proposes smaller candidate
modules and keeps any candidate the predicate accepts.  Each candidate is
built on a fresh structural clone (the printer/parser round-trip), edited
by coordinates, cleaned up (simplify + DCE) and *verified* — the IR
verifier's use-before-def and lane-bounds checks are what reject shrink
candidates that cut a value out from under its users.

Shrinking edit kinds, tried in decreasing expected payoff:

* ``drop-store``   — delete a store (its now-dead chain is swept by DCE);
  this is also how lane counts narrow, one store at a time;
* ``use-operand``  — replace a binary/call result with one of its
  operands (chain shortening);
* ``const-leaf``   — replace a load with a small literal constant;
* ``zero-arg``     — replace a function argument with ``0`` (collapses
  index arithmetic once simplify folds it);
* ``gep-base``     — address a load/store directly through the global
  buffer instead of a ``gep``.

Delta debugging does not need candidates to be *semantics-preserving* —
only predicate-preserving; both the reference interpretation and the
compiled runs see the same edited module, so the oracle stays meaningful
on every candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Tuple

from ..ir.dce import eliminate_dead_code_in_module
from ..ir.instructions import (
    BinaryInst,
    CallInst,
    GepInst,
    LoadInst,
    StoreInst,
)
from ..ir.module import Module
from ..ir.printer import print_module
from ..ir.types import FloatType, IntType
from ..ir.values import Constant
from ..ir.verifier import verify_module
from ..passes import simplify_module
from ..vectorizer import clone_module

#: predicate(module) -> True when the module still reproduces the failure
Predicate = Callable[[Module], bool]

#: an edit is (kind, function name, block index, instruction index, arg)
Edit = Tuple[str, str, int, int, int]


def count_instructions(module: Module) -> int:
    """Total instruction count across all functions (the reproducer-size
    metric the campaign reports)."""
    return sum(
        len(block.instructions)
        for function in module.functions.values()
        for block in function.blocks
    )


@dataclass
class ReductionResult:
    """Outcome of one reduction run."""

    module: Module
    instructions_before: int
    instructions_after: int
    edits_applied: int
    candidates_tried: int


def _candidate_edits(module: Module) -> Iterator[Edit]:
    """Every applicable edit on ``module``, best-payoff kinds first."""
    kinds: List[List[Edit]] = [[], [], [], [], []]
    for function in module.functions.values():
        for bi, block in enumerate(function.blocks):
            for ii, inst in enumerate(block.instructions):
                if isinstance(inst, StoreInst):
                    kinds[0].append(("drop-store", function.name, bi, ii, 0))
                elif isinstance(inst, (BinaryInst, CallInst)):
                    for op_index, op in enumerate(inst.operands):
                        if op.type is inst.type:
                            kinds[1].append(
                                ("use-operand", function.name, bi, ii, op_index)
                            )
                elif isinstance(inst, LoadInst) and isinstance(
                    inst.type, (FloatType, IntType)
                ):
                    kinds[2].append(("const-leaf", function.name, bi, ii, 0))
                elif isinstance(inst, GepInst):
                    kinds[4].append(("gep-base", function.name, bi, ii, 0))
        for arg_index, arg in enumerate(function.arguments):
            if arg.num_uses:
                kinds[3].append(("zero-arg", function.name, 0, 0, arg_index))
    for bucket in kinds:
        yield from bucket


def _apply_edit(module: Module, edit: Edit) -> bool:
    """Apply ``edit`` to ``module`` in place; False when inapplicable."""
    kind, fn_name, bi, ii, arg = edit
    function = module.functions.get(fn_name)
    if function is None:
        return False
    if kind == "zero-arg":
        if arg >= len(function.arguments):
            return False
        formal = function.arguments[arg]
        if not isinstance(formal.type, IntType) or not formal.num_uses:
            return False
        formal.replace_all_uses_with(Constant(formal.type, 0))
        return True
    if bi >= len(function.blocks):
        return False
    block = function.blocks[bi]
    if ii >= len(block.instructions):
        return False
    inst = block.instructions[ii]
    if kind == "drop-store":
        if not isinstance(inst, StoreInst):
            return False
        inst.erase_from_parent()
        return True
    if kind == "use-operand":
        if not isinstance(inst, (BinaryInst, CallInst)):
            return False
        if arg >= inst.num_operands:
            return False
        replacement = inst.operand(arg)
        if replacement.type is not inst.type:
            return False
        inst.replace_all_uses_with(replacement)
        inst.erase_from_parent()
        return True
    if kind == "const-leaf":
        if not isinstance(inst, LoadInst):
            return False
        if isinstance(inst.type, FloatType):
            replacement = Constant(inst.type, 1.5)
        elif isinstance(inst.type, IntType):
            replacement = Constant(inst.type, 2)
        else:
            return False
        inst.replace_all_uses_with(replacement)
        inst.erase_from_parent()
        return True
    if kind == "gep-base":
        if not isinstance(inst, GepInst):
            return False
        if inst.base.type is not inst.type:
            return False
        inst.replace_all_uses_with(inst.base)
        inst.erase_from_parent()
        return True
    return False


def _cleanup(module: Module) -> bool:
    """Simplify, sweep dead code and verify; False when the candidate is
    malformed (the verifier rejected it)."""
    try:
        simplify_module(module)
        eliminate_dead_code_in_module(module)
        verify_module(module)
    except Exception:  # noqa: BLE001 - any malformation rejects the candidate
        return False
    return True


def _drop_unused_globals(module: Module) -> None:
    for name in [n for n, buf in module.globals.items() if not buf.num_uses]:
        del module.globals[name]


def reduce_module(
    module: Module,
    predicate: Predicate,
    max_rounds: int = 50,
) -> ReductionResult:
    """Greedily shrink ``module`` while ``predicate`` keeps holding.

    One round enumerates every edit on the current module and restarts
    after the first accepted candidate; the loop ends at a fixpoint (a
    full round with no accepted edit) or after ``max_rounds``.
    """
    current = clone_module(module)
    before = count_instructions(current)
    applied = 0
    tried = 0
    for _ in range(max_rounds):
        accepted = False
        for edit in list(_candidate_edits(current)):
            candidate = clone_module(current)
            if not _apply_edit(candidate, edit):
                continue
            if not _cleanup(candidate):
                continue
            if count_instructions(candidate) >= count_instructions(current):
                continue
            tried += 1
            if predicate(candidate):
                current = candidate
                applied += 1
                accepted = True
                break
        if not accepted:
            break
    _drop_unused_globals(current)
    return ReductionResult(
        module=current,
        instructions_before=before,
        instructions_after=count_instructions(current),
        edits_applied=applied,
        candidates_tried=tried,
    )


def write_reproducer(module: Module, path: str) -> None:
    """Write ``module`` as a textual ``.ir`` reproducer file."""
    with open(path, "w") as handle:
        handle.write(print_module(module))
