"""Constant folding for IR instructions.

Used by the frontend lowering (fold trivially constant subexpressions) and
by tests as a semantic cross-check.  Folding is intentionally conservative:
it only fires when *all* operands are constants and never changes rounding
or overflow behaviour (integer ops wrap like the interpreter does).
"""

from __future__ import annotations

import math
import operator
import struct
from typing import Optional

from .instructions import (
    BinaryInst,
    CastInst,
    CmpInst,
    CmpPredicate,
    Instruction,
    Opcode,
)
from .types import FloatType, I1, IntType
from .values import Constant


class FoldError(Exception):
    """Raised when a fold would trap (e.g. constant division by zero)."""


def fold_binary(opcode: Opcode, type_, a, b):
    """Fold one scalar binary operation on raw Python payloads."""
    if isinstance(type_, IntType):
        if opcode is Opcode.ADD:
            return type_.wrap(a + b)
        if opcode is Opcode.SUB:
            return type_.wrap(a - b)
        if opcode is Opcode.MUL:
            return type_.wrap(a * b)
        if opcode is Opcode.SDIV:
            if b == 0:
                raise FoldError("integer division by zero")
            # C-style truncating division.
            return type_.wrap(int(a / b) if b != 0 else 0)
        if opcode is Opcode.AND:
            return type_.wrap(a & b)
        if opcode is Opcode.OR:
            return type_.wrap(a | b)
        if opcode is Opcode.XOR:
            return type_.wrap(a ^ b)
        if opcode is Opcode.SHL:
            return type_.wrap(a << (b % type_.bits))
        if opcode is Opcode.ASHR:
            return type_.wrap(a >> (b % type_.bits))
    if isinstance(type_, FloatType):
        # the ``operator`` builtins, not ``a + b``: CPython's specialized
        # bytecode for float ``+`` and ``*`` keeps the other NaN than the
        # builtins when both operands are NaN, and the interpreters'
        # results must not depend on which of the two ran
        if opcode is Opcode.FADD:
            return _round(type_, operator.add(a, b))
        if opcode is Opcode.FSUB:
            return _round(type_, operator.sub(a, b))
        if opcode is Opcode.FMUL:
            return _round(type_, operator.mul(a, b))
        if opcode is Opcode.FDIV:
            if b == 0.0:
                return math.copysign(math.inf, a) if a != 0 else math.nan
            return _round(type_, operator.truediv(a, b))
    raise FoldError(f"cannot fold {opcode} at {type_}")


def _round(type_: FloatType, value: float) -> float:
    if type_.bits == 32:
        return struct.unpack("f", struct.pack("f", value))[0]
    return value


def compare(predicate: CmpPredicate, a, b) -> int:
    """Evaluate a comparison predicate on raw payloads, returning 0/1."""
    result = {
        CmpPredicate.EQ: a == b,
        CmpPredicate.NE: a != b,
        CmpPredicate.LT: a < b,
        CmpPredicate.LE: a <= b,
        CmpPredicate.GT: a > b,
        CmpPredicate.GE: a >= b,
    }[predicate]
    return 1 if result else 0


def fold_cast(opcode: Opcode, value, to_type):
    """Fold one scalar cast on a raw payload."""
    if opcode is Opcode.SITOFP:
        return _round(to_type, float(value))
    if opcode is Opcode.FPTOSI:
        return to_type.wrap(int(value))
    if opcode in (Opcode.SEXT, Opcode.TRUNC):
        return to_type.wrap(int(value))
    if opcode in (Opcode.FPEXT, Opcode.FPTRUNC):
        return _round(to_type, float(value))
    raise FoldError(f"cannot fold cast {opcode}")


def try_fold(inst: Instruction) -> Optional[Constant]:
    """Fold ``inst`` to a constant when all operands are constants."""
    if not all(isinstance(op, Constant) for op in inst.operands):
        return None
    try:
        if isinstance(inst, BinaryInst):
            a = inst.lhs.value
            b = inst.rhs.value
            if inst.type.is_vector:
                elem = inst.type.scalar_type()
                payload = tuple(
                    fold_binary(inst.opcode, elem, x, y) for x, y in zip(a, b)
                )
                return Constant(inst.type, payload)
            return Constant(inst.type, fold_binary(inst.opcode, inst.type, a, b))
        if isinstance(inst, CmpInst):
            a = inst.lhs.value
            b = inst.rhs.value
            if inst.lhs.type.is_vector:
                payload = tuple(compare(inst.predicate, x, y) for x, y in zip(a, b))
                return Constant(inst.type, payload)
            return Constant(I1, compare(inst.predicate, a, b))
        if isinstance(inst, CastInst):
            v = inst.value.value
            if inst.type.is_vector:
                elem = inst.type.scalar_type()
                payload = tuple(fold_cast(inst.opcode, x, elem) for x in v)
                return Constant(inst.type, payload)
            return Constant(inst.type, fold_cast(inst.opcode, v, inst.type))
    except FoldError:
        return None
    return None
