"""Textual IR printer.

The format round-trips through :mod:`repro.ir.parser`; tests assert
``parse(print(m))`` is structurally identical to ``m``.  A printed module
looks like::

    module kernel

    global @A : f64 x 128
    global @B : f64 x 128 = [0.0, 1.0, ...]

    func @axpy(%a: f64, %n: i64) -> void fastmath {
    entry:
      %i0 = gep f64* @A, i64 0
      %v = load f64, f64* %i0
      ...
      ret
    }
"""

from __future__ import annotations

from typing import List

from .block import BasicBlock
from .function import Function
from .instructions import (
    AltBinaryInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    CmpInst,
    CondBranchInst,
    ExtractElementInst,
    GepInst,
    InsertElementInst,
    Instruction,
    LoadInst,
    PhiInst,
    RetInst,
    SelectInst,
    ShuffleVectorInst,
    StoreInst,
)
from .module import Module
from .values import Value, format_constant


def operand_ref(value: Value) -> str:
    """Render a value as an operand (constants inline, others by name)."""
    return value.ref()


def typed_operand(value: Value) -> str:
    return f"{value.type} {operand_ref(value)}"


def format_instruction(inst: Instruction) -> str:
    """One-line textual form of an instruction (no indentation)."""
    prefix = f"%{inst.name} = " if not inst.type.is_void and inst.name else ""
    if isinstance(inst, BinaryInst):
        return (
            f"{prefix}{inst.opcode} {inst.type} "
            f"{operand_ref(inst.lhs)}, {operand_ref(inst.rhs)}"
        )
    if isinstance(inst, AltBinaryInst):
        lanes = ", ".join(str(op) for op in inst.lane_opcodes)
        return (
            f"{prefix}altbinop [{lanes}] {inst.type} "
            f"{operand_ref(inst.lhs)}, {operand_ref(inst.rhs)}"
        )
    if isinstance(inst, LoadInst):
        return f"{prefix}load {inst.type}, {typed_operand(inst.pointer)}"
    if isinstance(inst, StoreInst):
        return f"store {typed_operand(inst.value)}, {typed_operand(inst.pointer)}"
    if isinstance(inst, GepInst):
        return f"{prefix}gep {typed_operand(inst.base)}, {typed_operand(inst.index)}"
    if isinstance(inst, InsertElementInst):
        return (
            f"{prefix}insertelement {typed_operand(inst.vector)}, "
            f"{typed_operand(inst.scalar)}, {typed_operand(inst.lane)}"
        )
    if isinstance(inst, ExtractElementInst):
        return (
            f"{prefix}extractelement {typed_operand(inst.vector)}, "
            f"{typed_operand(inst.lane)}"
        )
    if isinstance(inst, ShuffleVectorInst):
        mask = ", ".join(str(m) for m in inst.mask)
        return (
            f"{prefix}shufflevector {typed_operand(inst.a)}, "
            f"{typed_operand(inst.b)}, [{mask}]"
        )
    if isinstance(inst, CmpInst):
        return (
            f"{prefix}{inst.opcode} {inst.predicate} {inst.lhs.type} "
            f"{operand_ref(inst.lhs)}, {operand_ref(inst.rhs)}"
        )
    if isinstance(inst, SelectInst):
        return (
            f"{prefix}select {typed_operand(inst.cond)}, "
            f"{typed_operand(inst.operand(1))}, {typed_operand(inst.operand(2))}"
        )
    if isinstance(inst, CastInst):
        return f"{prefix}{inst.opcode} {typed_operand(inst.value)} to {inst.type}"
    if isinstance(inst, CallInst):
        args = ", ".join(typed_operand(arg) for arg in inst.operands)
        return f"{prefix}call {inst.type} @{inst.callee}({args})"
    if isinstance(inst, BranchInst):
        return f"br %{inst.target.name}"
    if isinstance(inst, CondBranchInst):
        return (
            f"condbr {typed_operand(inst.cond)}, "
            f"%{inst.if_true.name}, %{inst.if_false.name}"
        )
    if isinstance(inst, RetInst):
        return f"ret {typed_operand(inst.value)}" if inst.value is not None else "ret"
    if isinstance(inst, PhiInst):
        edges = ", ".join(
            f"[{operand_ref(value)}, %{block.name}]" for value, block in inst.incoming()
        )
        return f"{prefix}phi {inst.type} {edges}"
    raise NotImplementedError(f"printer: unhandled instruction {inst.opcode}")


def print_block(block: BasicBlock) -> str:
    lines = [f"{block.name}:"]
    for inst in block:
        lines.append(f"  {format_instruction(inst)}")
    return "\n".join(lines)


def print_function(function: Function) -> str:
    function.assign_names()
    args = ", ".join(f"%{arg.name}: {arg.type}" for arg in function.arguments)
    fast = " fastmath" if function.fast_math else ""
    lines = [f"func @{function.name}({args}) -> {function.return_type}{fast} {{"]
    for block in function.blocks:
        lines.append(print_block(block))
    lines.append("}")
    return "\n".join(lines)


def print_module(module: Module) -> str:
    parts: List[str] = [f"module {module.name}", ""]
    for buffer in module.globals.values():
        decl = f"global @{buffer.name} : {buffer.element} x {buffer.count}"
        if buffer.initializer is not None:
            init = ", ".join(
                format_constant(buffer.element, v) for v in buffer.initializer
            )
            decl += f" = [{init}]"
        parts.append(decl)
    if module.globals:
        parts.append("")
    for function in module.functions.values():
        parts.append(print_function(function))
        parts.append("")
    return "\n".join(parts).rstrip() + "\n"
