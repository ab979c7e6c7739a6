"""Instruction simplification (a miniature instcombine).

Runs before the vectorizer in every configuration, standing in for the
parts of clang's -O3 mid-end that shape the IR the SLP pass sees:

* full constant folding (via :mod:`repro.ir.folding`);
* algebraic identities: ``x+0``, ``0+x``, ``x-0``, ``x*1``, ``1*x``,
  ``x*0``, ``0*x``, ``x/1``, ``x-x``, ``x^x``, ``x&x``, ``x|x``,
  ``x<<0``, ``x>>0``, and the float counterparts where they are exact
  (``x+0.0`` and ``x*1.0`` are exact in IEEE for finite inputs only, so
  they are applied under fast-math just like LLVM does);
* canonicalization: constants move to the right-hand side of commutative
  operators (LLVM's canonical form, which also simplifies the address
  analysis' pattern match).

The pass iterates to a fixpoint; every rewrite is RAUW + DCE-able dead
instruction, so it composes with the rest of the pipeline.  Folding and
the identities read only an instruction's own operands, so after one full
pass only the instructions whose operands a rewrite changed since their
last visit are visited again, in block order, until none are left.
"""

from __future__ import annotations

from typing import Optional, Set

from ..ir.dce import eliminate_dead_code
from ..ir.function import Function
from ..ir.instructions import BinaryInst, Instruction, Opcode, is_commutative
from ..ir.folding import try_fold
from ..ir.module import Module
from ..ir.types import FloatType
from ..ir.values import Constant, Value
from ..robust.faults import current_faults


def _is_const(value: Value, payload) -> bool:
    return isinstance(value, Constant) and value.value == payload


def _zero_of(type_) -> Constant:
    return Constant(type_, 0.0 if type_.is_float else 0)


def _simplify_binary(inst: BinaryInst, fast_math: bool) -> Optional[Value]:
    """The replacement value for ``inst``, or None if no rule applies."""
    opcode = inst.opcode
    lhs, rhs = inst.lhs, inst.rhs
    type_ = inst.type
    is_float = isinstance(type_, FloatType)
    # Float identities involving 0.0 change signed-zero/NaN behaviour, so
    # they need the fast-math licence (LLVM: -ffast-math implies nsz).
    float_ok = not is_float or fast_math

    if opcode in (Opcode.ADD, Opcode.FADD):
        if _is_const(rhs, 0) or (is_float and _is_const(rhs, 0.0)):
            return lhs if float_ok else None
        if _is_const(lhs, 0) or (is_float and _is_const(lhs, 0.0)):
            return rhs if float_ok else None
    elif opcode in (Opcode.SUB, Opcode.FSUB):
        if _is_const(rhs, 0) or (is_float and _is_const(rhs, 0.0)):
            return lhs if float_ok else None
        if lhs is rhs and not is_float:
            return _zero_of(type_)  # x - x == 0 exactly for integers
    elif opcode in (Opcode.MUL, Opcode.FMUL):
        if _is_const(rhs, 1) or (is_float and _is_const(rhs, 1.0)):
            return lhs
        if _is_const(lhs, 1) or (is_float and _is_const(lhs, 1.0)):
            return rhs
        if not is_float and (_is_const(rhs, 0) or _is_const(lhs, 0)):
            return _zero_of(type_)
        if is_float and fast_math and (_is_const(rhs, 0.0) or _is_const(lhs, 0.0)):
            return _zero_of(type_)
    elif opcode in (Opcode.SDIV, Opcode.FDIV):
        if _is_const(rhs, 1) or (is_float and _is_const(rhs, 1.0)):
            return lhs
    elif opcode is Opcode.XOR:
        if lhs is rhs:
            return _zero_of(type_)
        if _is_const(rhs, 0):
            return lhs
    elif opcode in (Opcode.AND, Opcode.OR):
        if lhs is rhs:
            return lhs
        if opcode is Opcode.OR and _is_const(rhs, 0):
            return lhs
        if opcode is Opcode.AND and _is_const(rhs, -1):
            return lhs
    elif opcode in (Opcode.SHL, Opcode.ASHR):
        if _is_const(rhs, 0):
            return lhs
    return None


def _canonicalize_commutative(inst: BinaryInst) -> bool:
    """Move a constant LHS to the RHS of a commutative op; True if changed."""
    if (
        is_commutative(inst.opcode)
        and isinstance(inst.lhs, Constant)
        and not isinstance(inst.rhs, Constant)
    ):
        inst.swap_operands(0, 1)
        return True
    return False


def _replace(inst: Instruction, value: Value, dirty: Set[Instruction]) -> None:
    """RAUW ``inst`` with ``value`` and erase it; its users' operands
    change, so those in a block are due another visit.  ``inst`` itself
    never is, not even when it uses itself (unverified input can: RAUW
    with itself changes nothing)."""
    for use in inst.uses:
        if use.user.parent is not None:
            dirty.add(use.user)
    inst.replace_all_uses_with(value)
    inst.erase_from_parent()
    dirty.discard(inst)


def simplify_function(function: Function) -> int:
    """Simplify to a fixpoint; returns the number of rewrites applied."""
    fast_math = function.fast_math
    #: instructions whose operands a rewrite changed since their last visit
    dirty: Set[Instruction] = set()
    revisit = False  # the first pass visits every instruction
    total = 0
    while True:
        for block in function.blocks:
            for inst in list(block.instructions):
                if dirty and inst in dirty:
                    dirty.discard(inst)
                elif revisit or inst.parent is None:
                    continue
                folded = try_fold(inst)
                if folded is not None:
                    _replace(inst, folded, dirty)
                    total += 1
                    continue
                if isinstance(inst, BinaryInst):
                    if _canonicalize_commutative(inst):
                        total += 1
                    replacement = _simplify_binary(inst, fast_math)
                    if replacement is not None:
                        _replace(inst, replacement, dirty)
                        total += 1
        if not dirty:
            break
        revisit = True
    eliminate_dead_code(function)
    return total


def simplify_module(module: Module) -> int:
    current_faults().fire("simplify.module")
    return sum(simplify_function(f) for f in module.functions.values())
