"""Lowering: kernel-language AST -> repro IR.

The lowering is deliberately literal: the IR mirrors the source's
expression trees exactly (no reassociation, no CSE beyond index
arithmetic) so the vectorizer sees the same shapes clang's -O3 pipeline
leaves for LLVM's SLP pass in the paper's examples.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..ir.builder import IRBuilder
from ..ir.function import Function
from ..ir.instructions import CmpPredicate, Opcode
from ..ir.module import Module
from ..ir.types import I64, Type, VOID
from ..ir.values import Constant, Value
from ..ir.verifier import verify_module
from .errors import SemanticError
from .sema import ELEMENT_TYPE_MAP, SemaResult, analyze
from .parser import parse_source
from .syntax import (
    ArrayRef,
    Assign,
    Binary,
    Call,
    Compare,
    Expr,
    FloatLiteral,
    ForLoop,
    IntLiteral,
    KernelDecl,
    Ternary,
    Unary,
    VarRef,
)

#: source operator -> (integer opcode, float opcode)
_BINOP_MAP: Dict[str, Tuple[Opcode, Opcode]] = {
    "+": (Opcode.ADD, Opcode.FADD),
    "-": (Opcode.SUB, Opcode.FSUB),
    "*": (Opcode.MUL, Opcode.FMUL),
    "/": (Opcode.SDIV, Opcode.FDIV),
}

_COMPOUND_TO_BINOP = {"+=": "+", "-=": "-", "*=": "*", "/=": "/"}

#: source relational operator -> IR comparison predicate
_CMP_MAP: Dict[str, CmpPredicate] = {
    "==": CmpPredicate.EQ,
    "!=": CmpPredicate.NE,
    "<": CmpPredicate.LT,
    "<=": CmpPredicate.LE,
    ">": CmpPredicate.GT,
    ">=": CmpPredicate.GE,
}


class _LoweringContext:
    """Per-kernel lowering state."""

    def __init__(self, sema: SemaResult, builder: IRBuilder) -> None:
        self.sema = sema
        self.builder = builder
        self.env: Dict[str, Value] = {}
        #: index-expression cache, reset per basic block (CSE for gep math)
        self.index_cache: Dict[Tuple, Value] = {}

    def child(self) -> "_LoweringContext":
        ctx = _LoweringContext(self.sema, self.builder)
        ctx.env = dict(self.env)
        return ctx


def lower_program(sema: SemaResult, module_name: str = "kernelmod") -> Module:
    """Lower a checked program into a fresh module."""
    module = Module(module_name)
    for decl in sema.arrays.values():
        module.add_global(decl.name, ELEMENT_TYPE_MAP[decl.element_type], decl.size)
    for kernel in sema.program.kernels:
        _lower_kernel(sema, module, kernel)
    verify_module(module)
    return module


def compile_source(source: str, module_name: str = "kernelmod") -> Module:
    """Front door: kernel-language source -> verified IR module."""
    program = parse_source(source)
    sema = analyze(program)
    return lower_program(sema, module_name)


# -- kernel lowering ------------------------------------------------------------------

def _lower_kernel(sema: SemaResult, module: Module, kernel: KernelDecl) -> None:
    function = Function(
        kernel.name, [(kernel.param, I64)], VOID, fast_math=kernel.fast_math
    )
    module.add_function(function)
    entry = function.add_block("entry")
    builder = IRBuilder(entry)
    context = _LoweringContext(sema, builder)
    context.env[kernel.param] = function.arguments[0]

    for statement in kernel.body:
        if isinstance(statement, ForLoop):
            _lower_loop(context, function, statement)
        else:
            _lower_assign(context, statement)
    builder.ret()


def _lower_loop(
    context: _LoweringContext, function: Function, loop: ForLoop
) -> None:
    builder = context.builder
    preheader = builder.block
    header = function.add_block("header")
    body = function.add_block("body")
    exit_block = function.add_block("exit")

    start_value = _lower_expr(context, loop.start)
    builder.br(header)

    builder.position_at_end(header)
    induction = builder.phi(I64, loop.var)
    bound = _lower_expr(context, loop.bound)
    in_range = builder.icmp(CmpPredicate.LT, induction, bound)
    builder.condbr(in_range, body, exit_block)

    builder.position_at_end(body)
    inner = context.child()
    inner.index_cache = {}
    inner.env[loop.var] = induction
    for statement in loop.body:
        if isinstance(statement, ForLoop):  # pragma: no cover - sema rejects
            raise SemanticError("nested loop reached lowering", statement.location)
        _lower_assign(inner, statement)
    next_value = builder.add(induction, builder.const_i64(loop.step), f"{loop.var}.next")
    builder.br(header)

    induction.add_incoming(start_value, preheader)
    induction.add_incoming(next_value, body)

    builder.position_at_end(exit_block)
    context.index_cache = {}


def _lower_assign(context: _LoweringContext, assign: Assign) -> None:
    builder = context.builder
    target = assign.target
    if isinstance(target, ArrayRef):
        pointer = _lower_array_pointer(context, target)
        element = context.sema.type_of(target)
        if assign.op == "=":
            value = _lower_expr(context, assign.value)
        else:
            current = builder.load(pointer)
            rhs = _lower_expr(context, assign.value)
            opcode = _opcode_for(_COMPOUND_TO_BINOP[assign.op], element)
            value = builder.binop(opcode, current, rhs)
        builder.store(value, pointer)
        return
    # scalar variable
    if assign.op == "=":
        context.env[target.name] = _lower_expr(context, assign.value)
        return
    current = context.env[target.name]
    rhs = _lower_expr(context, assign.value)
    opcode = _opcode_for(_COMPOUND_TO_BINOP[assign.op], current.type)
    context.env[target.name] = builder.binop(opcode, current, rhs)


# -- expression lowering -----------------------------------------------------------------

def _opcode_for(op: str, type_: Type) -> Opcode:
    int_op, float_op = _BINOP_MAP[op]
    return float_op if type_.is_float else int_op


def _lower_array_pointer(context: _LoweringContext, ref: ArrayRef) -> Value:
    index = _lower_index(context, ref.index)
    return context.builder.gep(_global(context, ref.array), index)


def _global(context: _LoweringContext, name: str):
    # the builder's block -> function -> module
    function = context.builder.block.parent
    assert function is not None and function.parent is not None
    return function.parent.global_named(name)


def _lower_index(context: _LoweringContext, index: Expr) -> Value:
    """Lower an index expression with per-block CSE.

    Caching ``i + k`` per block mirrors what clang's pipeline leaves after
    GVN and keeps the addressing IR identical across lanes, which is what
    the vectorizer's address analysis expects.
    """
    key = _index_key(context, index)
    if key is not None:
        cached = context.index_cache.get(key)
        if cached is not None:
            return cached
    value = _lower_expr(context, index)
    if key is not None:
        context.index_cache[key] = value
    return value


def _index_key(context: _LoweringContext, index: Expr) -> Optional[Tuple]:
    if isinstance(index, IntLiteral):
        return ("const", index.value)
    if isinstance(index, VarRef):
        bound = context.env.get(index.name)
        return ("var", id(bound)) if bound is not None else None
    if isinstance(index, Binary):
        lhs = _index_key(context, index.lhs)
        rhs = _index_key(context, index.rhs)
        if lhs is not None and rhs is not None:
            return ("bin", index.op, lhs, rhs)
    return None


def _lower_expr(context: _LoweringContext, expr: Expr) -> Value:
    builder = context.builder
    sema = context.sema
    type_ = sema.type_of(expr)

    if isinstance(expr, IntLiteral):
        if type_.is_float:
            return Constant(type_, float(expr.value))
        return Constant(type_, expr.value)
    if isinstance(expr, FloatLiteral):
        return Constant(type_, expr.value)
    if isinstance(expr, VarRef):
        return context.env[expr.name]
    if isinstance(expr, ArrayRef):
        return builder.load(_lower_array_pointer(context, expr))
    if isinstance(expr, Unary):
        operand = _lower_expr(context, expr.operand)
        zero = Constant(type_, 0.0 if type_.is_float else 0)
        opcode = Opcode.FSUB if type_.is_float else Opcode.SUB
        return builder.binop(opcode, zero, operand)
    if isinstance(expr, Binary):
        lhs = _lower_expr(context, expr.lhs)
        rhs = _lower_expr(context, expr.rhs)
        return builder.binop(_opcode_for(expr.op, type_), lhs, rhs)
    if isinstance(expr, Call):
        args = [_lower_expr(context, arg) for arg in expr.args]
        return builder.call(expr.callee, args)
    if isinstance(expr, Compare):
        lhs = _lower_expr(context, expr.lhs)
        rhs = _lower_expr(context, expr.rhs)
        predicate = _CMP_MAP[expr.op]
        if lhs.type.is_float:
            return builder.fcmp(predicate, lhs, rhs)
        return builder.icmp(predicate, lhs, rhs)
    if isinstance(expr, Ternary):
        cond = _lower_expr(context, expr.cond)
        then = _lower_expr(context, expr.then)
        otherwise = _lower_expr(context, expr.otherwise)
        return builder.select(cond, then, otherwise)
    raise SemanticError("unsupported expression reached lowering", expr.location)
