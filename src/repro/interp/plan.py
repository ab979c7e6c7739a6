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
from .memory import access_size

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
    if isinstance(elem, FloatType) and elem.bits in (32, 64):
        # the ``operator`` builtins, as in ``fold_binary`` (see there)
        op = _FLOAT_OPS.get(opcode)
        if op is not None:
            if elem.bits == 64:
                return op  # the builtins add no Python frame per call
            # binary32 rounding through the same struct round-trip as
            # folding._round, so overflow raises the identical error.
            pack = struct.pack
            unpack = struct.unpack
            return lambda a, b: unpack("f", pack("f", op(a, b)))[0]
    # Unfoldable (opcode, type) pairs trap exactly like the reference path.
    return lambda a, b: fold_binary(opcode, elem, a, b)


def _fdiv(a, b):
    if b == 0.0:
        return math.copysign(math.inf, a) if a != 0 else math.nan
    return operator.truediv(a, b)


_FLOAT_OPS: Dict[Opcode, Callable] = {
    Opcode.FADD: operator.add,
    Opcode.FSUB: operator.sub,
    Opcode.FMUL: operator.mul,
    Opcode.FDIV: _fdiv,
}


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
        "ops",
        "step_insts",
        "step_costs",
        "terminator",
        "term_inst",
        "term_cost",
        "count",
        "cost_total",
        "per_opcode",
        "loop",
    )


class LoopPlan:
    """A counted loop headed by one block, decoded for the column pass of
    :mod:`repro.interp.loops`: slots and shared lane functions only.

    ``affine`` holds ``(kind, dst, a, b, extra)`` for the body's index
    arithmetic and GEPs; ``program`` holds the decoded tuples of every
    other body instruction in order, and ``dead`` per program entry the
    column slots last read there; ``accesses`` holds ``(is_store,
    pointer slot, bytes)`` per load and store in order; ``invariants``
    holds ``(slot, is_vector)`` for loop-invariant values read as data.
    """

    __slots__ = (
        "body",
        "exit",
        "iv",
        "iv_min",
        "iv_max",
        "step",
        "cmp",
        "bound",
        "header_count",
        "body_count",
        "affine",
        "program",
        "dead",
        "accesses",
        "invariants",
    )


class FunctionPlan:
    """A fully decoded function: slot allocation plus per-block traces."""

    __slots__ = (
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


# -- decode: one slot tuple per instruction ------------------------------------------
#
# Every non-phi, non-terminator instruction decodes once, at plan time, to
# ``(kind, dst, a, b, c, extra)``: its result and operand register slots
# and what its kind needs besides (a shared lane function, a struct type,
# a GEP stride, a shuffle mask).  The batched engine binds a tuple to a
# zero-argument step closure on its block's first sequential visit
# (:func:`bind_step`); the column pass of :mod:`repro.interp.loops` reads
# the same tuples.


def _decode(inst: Instruction, slot_of: Callable) -> tuple:
    if isinstance(inst, BinaryInst):
        if isinstance(inst.type, VectorType):
            kind, fn = "vbinary", _lane_fn(inst.opcode, inst.type.element)
        else:
            kind, fn = "binary", _lane_fn(inst.opcode, inst.type)
        return (kind, slot_of(inst), slot_of(inst.lhs), slot_of(inst.rhs), None, fn)
    if isinstance(inst, GepInst):
        stride = max(inst.type.pointee.byte_width, 1)
        return ("gep", slot_of(inst), slot_of(inst.base), slot_of(inst.index), None, stride)
    if isinstance(inst, LoadInst):
        kind = "vload" if isinstance(inst.type, VectorType) else "load"
        return (kind, slot_of(inst), slot_of(inst.pointer), None, None, inst.type)
    if isinstance(inst, StoreInst):
        type_ = inst.value.type
        kind = "vstore" if isinstance(type_, VectorType) else "store"
        return (kind, None, slot_of(inst.value), slot_of(inst.pointer), None, type_)
    if isinstance(inst, AltBinaryInst):
        fns = tuple(_lane_fn(op, inst.type.element) for op in inst.lane_opcodes)
        return ("alt", slot_of(inst), slot_of(inst.lhs), slot_of(inst.rhs), None, fns)
    if isinstance(inst, InsertElementInst):
        return (
            "insert", slot_of(inst), slot_of(inst.vector), slot_of(inst.scalar),
            slot_of(inst.lane), None,
        )
    if isinstance(inst, ExtractElementInst):
        return ("extract", slot_of(inst), slot_of(inst.vector), slot_of(inst.lane), None, None)
    if isinstance(inst, ShuffleVectorInst):
        return ("shuffle", slot_of(inst), slot_of(inst.a), slot_of(inst.b), None, inst.mask)
    if isinstance(inst, CmpInst):
        kind = "lanes2" if isinstance(inst.lhs.type, VectorType) else "map2"
        return (
            kind, slot_of(inst), slot_of(inst.lhs), slot_of(inst.rhs), None,
            _CMP_FNS[inst.predicate],
        )
    if isinstance(inst, SelectInst):
        if isinstance(inst.cond.type, VectorType):
            kind = "vselect"  # per-lane mask pick
        else:  # the condition picks a whole value
            kind = "bselect" if isinstance(inst.type, VectorType) else "select"
        return (
            kind, slot_of(inst), slot_of(inst.cond), slot_of(inst.operand(1)),
            slot_of(inst.operand(2)), None,
        )
    if isinstance(inst, CastInst):
        if isinstance(inst.value.type, VectorType):
            kind, fn = "lanes1", _cast_fn(inst.opcode, inst.type.scalar_type())
        else:
            kind, fn = "map1", _cast_fn(inst.opcode, inst.type)
        return (kind, slot_of(inst), slot_of(inst.value), None, None, fn)
    if isinstance(inst, CallInst):
        impl = _INTRINSIC_IMPL.get(inst.callee)
        if impl is None:
            message = (
                f"interpreter has no implementation for intrinsic "
                f"@{inst.callee}"
            )
            return ("unsupported", None, None, None, None, message)
        arg_slots = tuple(slot_of(op) for op in inst.operands)
        lanes = "lanes" if isinstance(inst.type, VectorType) else "map"
        if len(arg_slots) == 1:
            return (lanes + "1", slot_of(inst), arg_slots[0], None, None, impl)
        a, b = arg_slots
        return (lanes + "2", slot_of(inst), a, b, None, impl)
    # Unknown instruction class: same interpreter-gap error, at execution
    # time (never at plan time — unreached code must not fail the plan).
    return ("unsupported", None, None, None, None, f"unhandled instruction {inst.opcode}")


def _binary_step(regs, memory, d, a, b, c, fn):
    def step():
        try:
            regs[d] = fn(regs[a], regs[b])
        except Exception as exc:  # FoldError -> runtime trap
            raise TrapError(str(exc)) from exc

    return step


def _vbinary_step(regs, memory, d, a, b, c, fn):
    def step():
        try:
            regs[d] = tuple(map(fn, regs[a], regs[b]))
        except Exception as exc:  # FoldError -> runtime trap
            raise TrapError(str(exc)) from exc

    return step


def _alt_step(regs, memory, d, a, b, c, fns):
    def step():
        try:
            regs[d] = tuple(f(x, y) for f, x, y in zip(fns, regs[a], regs[b]))
        except Exception as exc:  # FoldError -> runtime trap
            raise TrapError(str(exc)) from exc

    return step


def _load_step(regs, memory, d, p, b, c, type_):
    return memory.scalar_load_step(type_, regs, d, p)


def _vload_step(regs, memory, d, p, b, c, type_):
    return memory.vector_load_step(type_, regs, d, p)


def _store_step(regs, memory, d, v, p, c, type_):
    return memory.scalar_store_step(type_, regs, v, p)


def _vstore_step(regs, memory, d, v, p, c, type_):
    return memory.vector_store_step(type_, regs, v, p)


def _gep_step(regs, memory, d, base, index, c, stride):
    def step():
        regs[d] = regs[base] + regs[index] * stride

    return step


def _insert_step(regs, memory, d, v, s, l, extra):
    def step():
        vec = list(regs[v])
        lane = regs[l]
        if not 0 <= lane < len(vec):
            raise TrapError(f"insertelement lane {lane} out of range")
        vec[lane] = regs[s]
        regs[d] = tuple(vec)

    return step


def _extract_step(regs, memory, d, v, l, c, extra):
    def step():
        vec = regs[v]
        lane = regs[l]
        if not 0 <= lane < len(vec):
            raise TrapError(f"extractelement lane {lane} out of range")
        regs[d] = vec[lane]

    return step


def _shuffle_step(regs, memory, d, a, b, c, mask):
    def step():
        joined = tuple(regs[a]) + tuple(regs[b])
        if any(not 0 <= m < len(joined) for m in mask):
            raise InterpreterError(
                f"shufflevector mask {mask} out of range for "
                f"{len(joined)} source lanes"
            )
        regs[d] = tuple(joined[m] for m in mask)

    return step


def _map1_step(regs, memory, d, a, b, c, fn):
    def step():
        regs[d] = fn(regs[a])

    return step


def _lanes1_step(regs, memory, d, a, b, c, fn):
    def step():
        regs[d] = tuple(map(fn, regs[a]))

    return step


def _map2_step(regs, memory, d, a, b, c, fn):
    def step():
        regs[d] = fn(regs[a], regs[b])

    return step


def _lanes2_step(regs, memory, d, a, b, c, fn):
    def step():
        regs[d] = tuple(map(fn, regs[a], regs[b]))

    return step


def _select_step(regs, memory, d, c, x, y, extra):
    def step():
        regs[d] = regs[x] if regs[c] else regs[y]

    return step


def _vselect_step(regs, memory, d, c, x, y, extra):
    def step():
        # vector select: per-lane mask pick
        regs[d] = tuple(
            xx if cc else yy for cc, xx, yy in zip(regs[c], regs[x], regs[y])
        )

    return step


def _unsupported_step(regs, memory, d, a, b, c, message):
    def step():
        raise UnsupportedOpcodeError(message)

    return step


_STEP_FACTORIES: Dict[str, Callable] = {
    "binary": _binary_step,
    "vbinary": _vbinary_step,
    "alt": _alt_step,
    "load": _load_step,
    "vload": _vload_step,
    "store": _store_step,
    "vstore": _vstore_step,
    "gep": _gep_step,
    "insert": _insert_step,
    "extract": _extract_step,
    "shuffle": _shuffle_step,
    "map1": _map1_step,
    "lanes1": _lanes1_step,
    "map2": _map2_step,
    "lanes2": _lanes2_step,
    "select": _select_step,
    "bselect": _select_step,
    "vselect": _vselect_step,
    "unsupported": _unsupported_step,
}


def bind_step(op: tuple, regs: List, memory) -> Callable:
    """The zero-argument step closure executing the decoded ``op``."""
    kind, d, a, b, c, extra = op
    return _STEP_FACTORIES[kind](regs, memory, d, a, b, c, extra)


# -- loop recognition ----------------------------------------------------------------

#: per column kind: whether operands a, b, c are vectors (None: unused,
#: "lane": a loop-invariant lane index read from its register)
_COLUMN_OPERANDS: Dict[str, tuple] = {
    "binary": (False, False, None),
    "map2": (False, False, None),
    "map1": (False, None, None),
    "select": (False, False, False),
    "store": (False, None, None),
    "vbinary": (True, True, None),
    "lanes2": (True, True, None),
    "lanes1": (True, None, None),
    "alt": (True, True, None),
    "vselect": (True, True, True),
    "bselect": (False, True, True),
    "shuffle": (True, True, None),
    "vstore": (True, None, None),
    "extract": (True, "lane", None),
    "insert": (True, False, "lane"),
    "load": (None, None, None),
    "vload": (None, None, None),
}
#: column kinds whose result is a vector: a tuple of lane columns
VECTOR_KINDS = frozenset(
    ("vbinary", "lanes1", "lanes2", "alt", "vselect", "bselect", "shuffle", "insert", "vload")
)


def _plan_loop(header: BlockPlan, blocks: List[BlockPlan], slot_of) -> Optional[LoopPlan]:
    """The :class:`LoopPlan` of the loop ``header`` heads, or None when the
    loop is not ``for (iv = start; iv < bound; iv += step)`` with ``step >
    0``, the body on the compare's true edge, in the shape the column pass
    evaluates.  The kernels, the mini-C frontend and the unroller emit no
    other loop compare."""
    term = header.terminator
    if term[0] != "condbr" or len(header.phi_insts) != 1 or len(header.ops) != 1:
        return None
    phi, cmp = header.phi_insts[0], header.step_insts[0]
    if not (
        isinstance(cmp, CmpInst)
        and cmp.predicate is CmpPredicate.LT
        and isinstance(phi.type, IntType)
    ):
        return None
    iv, cmp_slot = slot_of(phi), slot_of(cmp)
    body_index, exit_index = term[2], term[3]
    body = blocks[body_index]
    if (
        term[1] != cmp_slot
        or body.terminator != ("br", header.index)
        or body.phi_insts
        or exit_index in (header.index, body_index)
    ):
        return None
    in_loop = {iv, cmp_slot}
    in_loop.update(op[1] for op in body.ops)
    bound = slot_of(cmp.rhs)
    if slot_of(cmp.lhs) != iv or bound in in_loop:
        return None
    incoming = [(slot_of(value), block) for value, block in phi.incoming()]
    update = [slot for slot, block in incoming if block is body.block]
    step = _iv_step(body, iv, update[0]) if update else None
    if step is None or step <= 0:
        return None
    if any(slot in in_loop for slot, block in incoming if block is not body.block):
        return None
    program = _column_program(body, iv, in_loop)
    if program is None:
        return None
    loop = LoopPlan()
    loop.body, loop.exit = body_index, exit_index
    loop.iv, loop.step = iv, step
    loop.iv_min, loop.iv_max = phi.type.min_value(), phi.type.max_value()
    loop.cmp, loop.bound = cmp_slot, bound
    loop.header_count, loop.body_count = header.count, body.count
    loop.affine, loop.program, loop.dead, loop.accesses, loop.invariants = program
    return loop


def _iv_step(body: BlockPlan, iv: int, update: int) -> Optional[int]:
    """``c`` when the body computes ``update`` as ``add iv, c``, else None."""
    for inst, op in zip(body.step_insts, body.ops):
        if op[1] == update:
            if op[0] != "binary" or inst.opcode is not Opcode.ADD:
                return None
            other = inst.rhs if op[2] == iv else inst.lhs if op[3] == iv else None
            if isinstance(other, Constant) and type(other.value) is int and other.value:
                return other.value
            return None
    return None


def _column_program(body: BlockPlan, iv: int, in_loop) -> Optional[tuple]:
    """The body's ``(affine, program, dead, accesses, invariants)`` for
    :class:`LoopPlan`, or None when an instruction or operand is not one
    the column pass models."""
    shape: Dict[int, bool] = {iv: False}  # defined loop slot -> is a vector
    affine_slots = {iv}
    invariants: Dict[int, bool] = {}
    affine: List[tuple] = []
    program: List[tuple] = []
    accesses: List[tuple] = []

    def is_address(slot) -> bool:
        return slot in affine_slots or slot not in in_loop

    for inst, op in zip(body.step_insts, body.ops):
        kind, d, a, b, c, extra = op
        name = None
        if kind == "binary" and is_address(a) and is_address(b):
            name = _affine_name(inst, a in in_loop and b in in_loop)
        if kind == "gep":
            if not (is_address(a) and is_address(b)):
                return None  # an address computed from a loaded value
            affine.append(("gep", d, a, b, extra))
        elif name is not None:
            bounds = (inst.type.min_value(), inst.type.max_value())
            affine.append((name, d, a, b, bounds))
        else:
            expected = _COLUMN_OPERANDS.get(kind)
            if expected is None:
                return None  # an instruction the interpreter lacks
            for slot, vector in zip((a, b, c), expected):
                if vector is None:
                    continue
                if slot not in in_loop:
                    if vector != "lane" and invariants.setdefault(slot, vector) != vector:
                        return None  # read as a scalar and as a vector
                elif vector == "lane" or shape.get(slot) is not vector:
                    # the compare, a use before its definition, a lane index
                    # computed in the loop, or a shape mismatch
                    return None
            if kind in ("load", "vload", "store", "vstore"):
                pointer = a if kind.endswith("load") else b
                if not is_address(pointer):
                    return None
                try:
                    size = access_size(extra)
                except TypeError:
                    return None
                accesses.append((kind.endswith("store"), pointer, size))
            elif kind in ("lanes1", "shuffle") and not isinstance(inst.type, VectorType):
                # a vector cast to a scalar type, or a one-lane shuffle,
                # whose scalar-typed value is a 1-tuple
                return None
            if d is not None:
                shape[d] = kind in VECTOR_KINDS
            program.append(op)
            continue
        affine_slots.add(d)
        shape[d] = False

    # free each column after the instruction that reads it last
    last: Dict[int, int] = {}
    for index, op in enumerate(program):
        for slot in op[1:5]:
            if slot in shape:
                last[slot] = index
    dead: List[List[int]] = [[] for _ in program]
    for slot, index in last.items():
        if slot not in affine_slots:
            dead[index].append(slot)
    return (
        tuple(affine), tuple(program), tuple(tuple(slots) for slots in dead),
        tuple(accesses), tuple(invariants.items()),
    )


def _affine_name(inst: Instruction, both_in_loop: bool) -> Optional[str]:
    """The column pass's name for an integer ``add``/``sub``/``mul`` of
    affine operands (a ``mul`` needs one loop-invariant side), else None."""
    if not isinstance(inst.type, IntType):
        return None
    opcode = inst.opcode
    if opcode is Opcode.ADD:
        return "add"
    if opcode is Opcode.SUB:
        return "sub"
    if opcode is Opcode.MUL and not both_in_loop:
        return "mul"
    return None


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

        ops: List[tuple] = []
        step_insts: List[Instruction] = []
        step_costs: List[float] = []
        term_inst: Optional[Instruction] = None
        for inst in block.non_phi_instructions():
            if inst.is_terminator:
                term_inst = inst
                break
            ops.append(_decode(inst, slot_of))
            step_insts.append(inst)
            step_costs.append(cost_of(inst))
        bp.ops = ops
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

        bp.count = len(phis) + len(ops) + (1 if term_inst is not None else 0)
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

    for bp in blocks:
        bp.loop = _plan_loop(bp, blocks, slot_of)

    plan = FunctionPlan()
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
