"""Decode/plan layer: compile a :class:`Function` into an execution plan.

The reference interpreter (:mod:`repro.interp.interpreter`) re-dispatches
every executed instruction through an ``isinstance`` ladder and resolves
every operand through a dict keyed by value identity.  This module does all
of that work *once per function*:

* every SSA value (argument, instruction result, constant, global address)
  is assigned a dense **register slot**; constants and global addresses are
  materialized into the register file at bind time, so operand access at
  run time is a plain list index;
* every instruction is compiled to an **emit factory** — a closure maker
  ``emit(regs, memory) -> step()`` that captures its operand slots and
  its pre-specialized lane functions (loads and stores take their step
  from :class:`~repro.interp.memory.Memory`), so executing the
  instruction is one zero-argument call with no dispatch;
* the cost-model charge of every instruction is pre-computed, and each
  block carries pre-summed totals so straight-line runs can account whole
  blocks at a time (see :mod:`repro.interp.batched`).

Plans are cached on the function object (keyed by cost-model identity);
the ``interp.plan_cache.{hits,misses}`` counters expose cache behaviour.

Semantics parity is the hard constraint: every lane function, trap
message and evaluation order below mirrors the reference interpreter
bit-for-bit — the identity test matrix in ``tests/test_engine.py`` holds
both engines to identical cycles, per-opcode charges, globals and
exception text.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
from typing import Callable, Dict, List, Optional, Tuple

from ..ir.folding import FoldError, fold_binary, fold_cast
from ..ir.function import Function
from ..ir.instructions import (
    AltBinaryInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    CmpInst,
    CmpPredicate,
    CondBranchInst,
    ExtractElementInst,
    GepInst,
    InsertElementInst,
    Instruction,
    LoadInst,
    Opcode,
    PhiInst,
    RetInst,
    SelectInst,
    ShuffleVectorInst,
    StoreInst,
)
from ..ir.types import FloatType, IntType, VectorType
from ..ir.values import Constant, GlobalBuffer
from ..machine.costmodel import instruction_cost
from ..observe import STAT
from .interpreter import (
    _INTRINSIC_IMPL,
    InterpreterError,
    TrapError,
    UnsupportedOpcodeError,
)

_PLAN_HITS = STAT("interp.plan_cache.hits", "planned-function cache hits")
_PLAN_MISSES = STAT("interp.plan_cache.misses", "planned-function cache misses")


# -- pre-specialized scalar kernels -----------------------------------------------
#
# Each factory returns a plain ``f(a, b)`` (or ``f(v)``) over raw payloads
# that computes exactly what ``fold_binary`` / ``fold_cast`` / ``compare``
# compute for that (opcode, type) pair — including the exception type and
# message on traps — without re-branching on opcode or type per call.


#: integer opcodes whose fold is ``wrap(op(a, b))``
_WRAPPING_INT_OPS: Dict[Opcode, Callable] = {
    Opcode.ADD: operator.add,
    Opcode.SUB: operator.sub,
    Opcode.MUL: operator.mul,
    Opcode.AND: operator.and_,
    Opcode.OR: operator.or_,
    Opcode.XOR: operator.xor,
}


@functools.cache
def _lane_fn(opcode: Opcode, elem) -> Callable:
    """A specialized scalar function for one (binary opcode, element type).

    The functions are pure and types are interned, so every plan shares one
    per pair instead of retaining a closure per instruction.
    """
    if isinstance(elem, IntType):
        wrap = elem.wrap
        bits = elem.bits
        op = _WRAPPING_INT_OPS.get(opcode)
        if op is not None:
            # wrap(op(a, b)) with IntType.wrap's body inlined: ``&=`` keeps
            # its TypeError text, and i1's ``half`` of 2 is never reached
            # because wrap subtracts nothing for i1
            mask = (1 << bits) - 1
            half = 1 << max(bits - 1, 1)
            full = 1 << bits

            def wrapping(a, b):
                value = op(a, b)
                value &= mask
                if value >= half:
                    value -= full
                return value

            return wrapping
        if opcode is Opcode.SDIV:

            def sdiv(a, b):
                if b == 0:
                    raise FoldError("integer division by zero")
                return wrap(int(a / b))

            return sdiv
        if opcode is Opcode.SHL:
            return lambda a, b: wrap(a << (b % bits))
        if opcode is Opcode.ASHR:
            return lambda a, b: wrap(a >> (b % bits))
    if isinstance(elem, FloatType):
        if elem.bits == 64:
            if opcode is Opcode.FADD:
                return lambda a, b: a + b
            if opcode is Opcode.FSUB:
                return lambda a, b: a - b
            if opcode is Opcode.FMUL:
                return lambda a, b: a * b
            if opcode is Opcode.FDIV:

                def fdiv(a, b):
                    if b == 0.0:
                        return math.copysign(math.inf, a) if a != 0 else math.nan
                    return a / b

                return fdiv
        if elem.bits == 32:
            # binary32 rounding through the same struct round-trip as
            # folding._round, so overflow raises the identical error.
            pack = struct.pack
            unpack = struct.unpack
            if opcode is Opcode.FADD:
                return lambda a, b: unpack("f", pack("f", a + b))[0]
            if opcode is Opcode.FSUB:
                return lambda a, b: unpack("f", pack("f", a - b))[0]
            if opcode is Opcode.FMUL:
                return lambda a, b: unpack("f", pack("f", a * b))[0]
            if opcode is Opcode.FDIV:

                def fdiv32(a, b):
                    if b == 0.0:
                        return math.copysign(math.inf, a) if a != 0 else math.nan
                    return unpack("f", pack("f", a / b))[0]

                return fdiv32
    # Unfoldable (opcode, type) pairs trap exactly like the reference path.
    return lambda a, b: fold_binary(opcode, elem, a, b)


_CMP_FNS: Dict[CmpPredicate, Callable] = {
    CmpPredicate.EQ: lambda a, b: 1 if a == b else 0,
    CmpPredicate.NE: lambda a, b: 1 if a != b else 0,
    CmpPredicate.LT: lambda a, b: 1 if a < b else 0,
    CmpPredicate.LE: lambda a, b: 1 if a <= b else 0,
    CmpPredicate.GT: lambda a, b: 1 if a > b else 0,
    CmpPredicate.GE: lambda a, b: 1 if a >= b else 0,
}


def _cast_fn(opcode: Opcode, to_type) -> Callable:
    """A specialized scalar cast for one (cast opcode, target type)."""
    if opcode in (Opcode.SITOFP, Opcode.FPEXT, Opcode.FPTRUNC) and isinstance(
        to_type, FloatType
    ):
        if to_type.bits == 32:
            pack = struct.pack
            unpack = struct.unpack
            return lambda v: unpack("f", pack("f", float(v)))[0]
        return lambda v: float(v)
    if opcode in (Opcode.FPTOSI, Opcode.SEXT, Opcode.TRUNC) and isinstance(
        to_type, IntType
    ):
        wrap = to_type.wrap
        return lambda v: wrap(int(v))
    return lambda v: fold_cast(opcode, v, to_type)


# -- plan data structures ----------------------------------------------------------


class BlockPlan:
    """One basic block, decoded: phi tables, step closures, terminator."""

    __slots__ = (
        "name",
        "block",
        "index",
        "phi_insts",
        "phi_dsts",
        "phi_costs",
        "phi_tables",
        "emits",
        "step_insts",
        "step_costs",
        "terminator",
        "term_inst",
        "term_cost",
        "count",
        "cost_total",
        "per_opcode",
    )


class FunctionPlan:
    """A fully decoded function: slot allocation plus per-block traces."""

    __slots__ = (
        "function",
        "num_slots",
        "const_binds",
        "global_binds",
        "arg_slots",
        "blocks",
        "entry_has_phis",
        "exact",
    )


def _cost_is_exact(cost: float) -> bool:
    """True when per-block pre-summed accounting of ``cost`` is bit-exact.

    All the default cost-model charges are small multiples of 1/16, which
    float arithmetic sums and scales exactly — so ``visits * block_total``
    equals the reference engine's sequential accumulation bit-for-bit.
    Anything else (odd fractions, huge or non-finite charges) forces the
    per-step slow path.
    """
    return 0.0 <= cost <= 4096.0 and (cost * 16.0).is_integer()


# -- per-instruction emit factories ------------------------------------------------


def _emit_for(inst: Instruction, slot_of: Callable) -> Callable:
    """Compile one non-phi, non-terminator instruction to an emit factory.

    The factory runs at bind time (``emit(regs, memory)``) and returns the
    zero-argument ``step`` closure executed on the hot path.
    """
    if isinstance(inst, BinaryInst):
        d = slot_of(inst)
        a = slot_of(inst.lhs)
        b = slot_of(inst.rhs)
        if isinstance(inst.type, VectorType):
            fn = _lane_fn(inst.opcode, inst.type.element)

            def emit(regs, memory, d=d, a=a, b=b, fn=fn):
                def step():
                    try:
                        regs[d] = tuple(map(fn, regs[a], regs[b]))
                    except Exception as exc:  # FoldError -> runtime trap
                        raise TrapError(str(exc)) from exc

                return step

            return emit
        fn = _lane_fn(inst.opcode, inst.type)

        def emit(regs, memory, d=d, a=a, b=b, fn=fn):
            def step():
                try:
                    regs[d] = fn(regs[a], regs[b])
                except Exception as exc:  # FoldError -> runtime trap
                    raise TrapError(str(exc)) from exc

            return step

        return emit

    if isinstance(inst, AltBinaryInst):
        d = slot_of(inst)
        a = slot_of(inst.lhs)
        b = slot_of(inst.rhs)
        fns = tuple(
            _lane_fn(op, inst.type.element) for op in inst.lane_opcodes
        )

        def emit(regs, memory, d=d, a=a, b=b, fns=fns):
            def step():
                try:
                    regs[d] = tuple(
                        f(x, y) for f, x, y in zip(fns, regs[a], regs[b])
                    )
                except Exception as exc:  # FoldError -> runtime trap
                    raise TrapError(str(exc)) from exc

            return step

        return emit

    if isinstance(inst, LoadInst):
        d = slot_of(inst)
        p = slot_of(inst.pointer)
        type_ = inst.type
        if isinstance(type_, VectorType):

            def emit(regs, memory, d=d, p=p, type_=type_):
                return memory.vector_load_step(type_, regs, d, p)

            return emit

        def emit(regs, memory, d=d, p=p, type_=type_):
            return memory.scalar_load_step(type_, regs, d, p)

        return emit

    if isinstance(inst, StoreInst):
        v = slot_of(inst.value)
        p = slot_of(inst.pointer)
        type_ = inst.value.type
        if isinstance(type_, VectorType):

            def emit(regs, memory, v=v, p=p, type_=type_):
                return memory.vector_store_step(type_, regs, v, p)

            return emit

        def emit(regs, memory, v=v, p=p, type_=type_):
            return memory.scalar_store_step(type_, regs, v, p)

        return emit

    if isinstance(inst, GepInst):
        d = slot_of(inst)
        base = slot_of(inst.base)
        index = slot_of(inst.index)
        stride = max(inst.type.pointee.byte_width, 1)

        def emit(regs, memory, d=d, base=base, index=index, stride=stride):
            def step():
                regs[d] = regs[base] + regs[index] * stride

            return step

        return emit

    if isinstance(inst, InsertElementInst):
        d = slot_of(inst)
        v = slot_of(inst.vector)
        s = slot_of(inst.scalar)
        l = slot_of(inst.lane)

        def emit(regs, memory, d=d, v=v, s=s, l=l):
            def step():
                vec = list(regs[v])
                lane = regs[l]
                if not 0 <= lane < len(vec):
                    raise TrapError(f"insertelement lane {lane} out of range")
                vec[lane] = regs[s]
                regs[d] = tuple(vec)

            return step

        return emit

    if isinstance(inst, ExtractElementInst):
        d = slot_of(inst)
        v = slot_of(inst.vector)
        l = slot_of(inst.lane)

        def emit(regs, memory, d=d, v=v, l=l):
            def step():
                vec = regs[v]
                lane = regs[l]
                if not 0 <= lane < len(vec):
                    raise TrapError(f"extractelement lane {lane} out of range")
                regs[d] = vec[lane]

            return step

        return emit

    if isinstance(inst, ShuffleVectorInst):
        d = slot_of(inst)
        a = slot_of(inst.a)
        b = slot_of(inst.b)
        mask = inst.mask

        def emit(regs, memory, d=d, a=a, b=b, mask=mask):
            def step():
                joined = tuple(regs[a]) + tuple(regs[b])
                if any(not 0 <= m < len(joined) for m in mask):
                    raise InterpreterError(
                        f"shufflevector mask {mask} out of range for "
                        f"{len(joined)} source lanes"
                    )
                regs[d] = tuple(joined[m] for m in mask)

            return step

        return emit

    if isinstance(inst, CmpInst):
        d = slot_of(inst)
        a = slot_of(inst.lhs)
        b = slot_of(inst.rhs)
        fn = _CMP_FNS[inst.predicate]
        if isinstance(inst.lhs.type, VectorType):

            def emit(regs, memory, d=d, a=a, b=b, fn=fn):
                def step():
                    regs[d] = tuple(map(fn, regs[a], regs[b]))

                return step

            return emit

        def emit(regs, memory, d=d, a=a, b=b, fn=fn):
            def step():
                regs[d] = fn(regs[a], regs[b])

            return step

        return emit

    if isinstance(inst, SelectInst):
        d = slot_of(inst)
        c = slot_of(inst.cond)
        x = slot_of(inst.operand(1))
        y = slot_of(inst.operand(2))
        if isinstance(inst.cond.type, VectorType):

            def emit(regs, memory, d=d, c=c, x=x, y=y):
                def step():
                    # vector select: per-lane mask pick
                    regs[d] = tuple(
                        xx if cc else yy
                        for cc, xx, yy in zip(regs[c], regs[x], regs[y])
                    )

                return step

            return emit

        def emit(regs, memory, d=d, c=c, x=x, y=y):
            def step():
                regs[d] = regs[x] if regs[c] else regs[y]

            return step

        return emit

    if isinstance(inst, CastInst):
        d = slot_of(inst)
        v = slot_of(inst.value)
        if isinstance(inst.value.type, VectorType):
            fn = _cast_fn(inst.opcode, inst.type.scalar_type())

            def emit(regs, memory, d=d, v=v, fn=fn):
                def step():
                    regs[d] = tuple(map(fn, regs[v]))

                return step

            return emit
        fn = _cast_fn(inst.opcode, inst.type)

        def emit(regs, memory, d=d, v=v, fn=fn):
            def step():
                regs[d] = fn(regs[v])

            return step

        return emit

    if isinstance(inst, CallInst):
        impl = _INTRINSIC_IMPL.get(inst.callee)
        if impl is None:
            message = (
                f"interpreter has no implementation for intrinsic "
                f"@{inst.callee}"
            )

            def emit(regs, memory, message=message):
                def step():
                    raise UnsupportedOpcodeError(message)

                return step

            return emit
        d = slot_of(inst)
        arg_slots = tuple(slot_of(op) for op in inst.operands)
        vector = isinstance(inst.type, VectorType)
        if len(arg_slots) == 1:
            (a,) = arg_slots
            if vector:

                def emit(regs, memory, d=d, a=a, impl=impl):
                    def step():
                        regs[d] = tuple(map(impl, regs[a]))

                    return step

                return emit

            def emit(regs, memory, d=d, a=a, impl=impl):
                def step():
                    regs[d] = impl(regs[a])

                return step

            return emit
        a, b = arg_slots
        if vector:

            def emit(regs, memory, d=d, a=a, b=b, impl=impl):
                def step():
                    regs[d] = tuple(map(impl, regs[a], regs[b]))

                return step

            return emit

        def emit(regs, memory, d=d, a=a, b=b, impl=impl):
            def step():
                regs[d] = impl(regs[a], regs[b])

            return step

        return emit

    # Unknown instruction class: same interpreter-gap error, at execution
    # time (never at plan time — unreached code must not fail the plan).
    message = f"unhandled instruction {inst.opcode}"

    def emit(regs, memory, message=message):
        def step():
            raise UnsupportedOpcodeError(message)

        return step

    return emit


# -- plan construction -------------------------------------------------------------


def _build_plan(function: Function, cost_model) -> FunctionPlan:
    slots: Dict[int, int] = {}
    const_binds: List[Tuple[int, object]] = []
    global_binds: List[Tuple[int, GlobalBuffer]] = []

    def slot_of(value) -> int:
        key = id(value)
        slot = slots.get(key)
        if slot is None:
            slot = len(slots)
            slots[key] = slot
            if isinstance(value, Constant):
                const_binds.append((slot, value.value))
            elif isinstance(value, GlobalBuffer):
                global_binds.append((slot, value))
        return slot

    def cost_of(inst: Instruction) -> float:
        if cost_model is None:
            return 0.0
        return instruction_cost(cost_model, inst)

    block_index = {id(b): i for i, b in enumerate(function.blocks)}
    blocks: List[BlockPlan] = []
    exact = True

    for index, block in enumerate(function.blocks):
        bp = BlockPlan()
        bp.name = block.name
        bp.block = block
        bp.index = index

        phis = block.phis()
        bp.phi_insts = phis
        bp.phi_dsts = [slot_of(phi) for phi in phis]
        bp.phi_costs = [cost_of(phi) for phi in phis]
        tables: Dict[int, object] = {}
        preds: List = []
        seen = set()
        for phi in phis:
            for _, pred in phi.incoming():
                if id(pred) not in seen:
                    seen.add(id(pred))
                    preds.append(pred)
        for pred in preds:
            srcs: List[int] = []
            entry: object = srcs
            for phi in phis:
                try:
                    value = phi.incoming_for(pred)
                except KeyError as exc:
                    # raised at run time, exactly like the reference
                    entry = KeyError(exc.args[0])
                    break
                srcs.append(slot_of(value))
            tables[id(pred)] = entry
        bp.phi_tables = tables

        emits: List[Callable] = []
        step_insts: List[Instruction] = []
        step_costs: List[float] = []
        term_inst: Optional[Instruction] = None
        for inst in block.non_phi_instructions():
            if inst.is_terminator:
                term_inst = inst
                break
            emits.append(_emit_for(inst, slot_of))
            step_insts.append(inst)
            step_costs.append(cost_of(inst))
        bp.emits = emits
        bp.step_insts = step_insts
        bp.step_costs = step_costs

        bp.term_inst = term_inst
        if term_inst is None:
            bp.terminator = ("fallthrough",)
            bp.term_cost = 0.0
        elif isinstance(term_inst, RetInst):
            ret_slot = (
                slot_of(term_inst.value) if term_inst.value is not None else None
            )
            bp.terminator = ("ret", ret_slot)
            bp.term_cost = cost_of(term_inst)
        elif isinstance(term_inst, CondBranchInst):
            bp.terminator = (
                "condbr",
                slot_of(term_inst.cond),
                block_index[id(term_inst.if_true)],
                block_index[id(term_inst.if_false)],
            )
            bp.term_cost = cost_of(term_inst)
        else:  # BranchInst
            bp.terminator = ("br", block_index[id(term_inst.target)])
            bp.term_cost = cost_of(term_inst)

        bp.count = len(phis) + len(emits) + (1 if term_inst is not None else 0)
        all_costs = bp.phi_costs + step_costs + (
            [bp.term_cost] if term_inst is not None else []
        )
        bp.cost_total = sum(all_costs)
        per_opcode: Dict[Opcode, float] = {}
        charged = list(zip(phis, bp.phi_costs)) + list(zip(step_insts, step_costs))
        if term_inst is not None:
            charged.append((term_inst, bp.term_cost))
        for inst, cost in charged:
            per_opcode[inst.opcode] = per_opcode.get(inst.opcode, 0.0) + cost
        bp.per_opcode = per_opcode

        if exact and not all(_cost_is_exact(c) for c in all_costs):
            exact = False
        blocks.append(bp)

    plan = FunctionPlan()
    plan.function = function
    plan.num_slots = len(slots)
    plan.const_binds = const_binds
    plan.global_binds = global_binds
    plan.arg_slots = [slots.get(id(arg)) for arg in function.arguments]
    plan.blocks = blocks
    plan.entry_has_phis = bool(blocks) and bool(blocks[0].phi_insts)
    plan.exact = exact
    return plan


def plan_function(function: Function, cost_model=None) -> FunctionPlan:
    """The (cached) execution plan for ``function`` under ``cost_model``.

    Plans are memoized on the function object, keyed by cost-model
    *identity* — targets hold one long-lived :class:`CostModel` each, so
    identity is the right equivalence and keeps lookups O(models-seen).
    """
    cache = getattr(function, "_repro_plans", None)
    if cache is not None:
        for model, plan in cache:
            if model is cost_model:
                _PLAN_HITS.add()
                return plan
    _PLAN_MISSES.add()
    plan = _build_plan(function, cost_model)
    if cache is None:
        cache = []
        function._repro_plans = cache
    cache.append((cost_model, plan))
    return plan
