"""Semantic analysis for the kernel language.

Checks bindings and types, and annotates every expression node with its
IR type so lowering is a mechanical walk.  Rules:

* array element types: ``double``/``float``/``long``/``int`` map to
  f64/f32/i64/i32; array indexes are i64 expressions;
* the kernel parameter and loop induction variables are i64;
* scalar temporaries take the type of their first assignment; compound
  assignment requires an existing binding;
* both operands of an arithmetic operator must have the same type, except
  that integer literals adapt to a float context (like C constants);
* loops may not nest (SLP operates on the straight-line bodies) and loop
  bodies may not rebind the induction variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..ir.instructions import INTRINSICS
from ..ir.types import F32, F64, I1, I32, I64, Type
from .errors import SemanticError
from .syntax import (
    ArrayDecl,
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
    Program,
    Stmt,
    Ternary,
    Unary,
    VarRef,
)

ELEMENT_TYPE_MAP: Dict[str, Type] = {
    "double": F64,
    "float": F32,
    "long": I64,
    "int": I32,
}

#: intrinsics exposed to kernel source (all operate on floats)
FLOAT_INTRINSICS = ("sqrt", "fabs", "fmin", "fmax")


@dataclass
class SemaResult:
    """Binding and type information consumed by lowering."""

    program: Program
    arrays: Dict[str, ArrayDecl]
    #: IR type of every expression node, keyed by id(node)
    expr_types: Dict[int, Type] = field(default_factory=dict)

    def type_of(self, node: Expr) -> Type:
        return self.expr_types[id(node)]

    def array_element_type(self, name: str) -> Type:
        return ELEMENT_TYPE_MAP[self.arrays[name].element_type]


class _KernelScope:
    """Scalar bindings visible at a point in a kernel."""

    def __init__(self, parent: Optional["_KernelScope"] = None) -> None:
        self.parent = parent
        self.bindings: Dict[str, Type] = {}

    def lookup(self, name: str) -> Optional[Type]:
        scope: Optional[_KernelScope] = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            scope = scope.parent
        return None

    def bind(self, name: str, type_: Type) -> None:
        self.bindings[name] = type_


class SemanticAnalyzer:
    def __init__(self, program: Program) -> None:
        self.program = program
        self.result = SemaResult(program=program, arrays={})

    def analyze(self) -> SemaResult:
        for decl in self.program.declarations:
            if decl.name in self.result.arrays:
                raise SemanticError(f"duplicate array {decl.name!r}", decl.location)
            if decl.element_type not in ELEMENT_TYPE_MAP:
                raise SemanticError(
                    f"unknown element type {decl.element_type!r}", decl.location
                )
            if decl.size < 1:
                raise SemanticError(
                    f"array {decl.name!r} has non-positive size", decl.location
                )
            self.result.arrays[decl.name] = decl
        seen_kernels = set()
        for kernel in self.program.kernels:
            if kernel.name in seen_kernels:
                raise SemanticError(
                    f"duplicate kernel {kernel.name!r}", kernel.location
                )
            seen_kernels.add(kernel.name)
            self._check_kernel(kernel)
        return self.result

    # -- kernels ---------------------------------------------------------------------

    def _check_kernel(self, kernel: KernelDecl) -> None:
        scope = _KernelScope()
        scope.bind(kernel.param, I64)
        self._check_body(kernel.body, scope, in_loop=False)

    def _check_body(
        self, body: List[Stmt], scope: _KernelScope, in_loop: bool
    ) -> None:
        for statement in body:
            if isinstance(statement, ForLoop):
                if in_loop:
                    raise SemanticError(
                        "nested loops are not supported (SLP vectorizes the "
                        "straight-line loop body)",
                        statement.location,
                    )
                self._check_loop(statement, scope)
            elif isinstance(statement, Assign):
                self._check_assign(statement, scope)
            else:  # pragma: no cover - parser produces no other kinds
                raise SemanticError("unsupported statement", statement.location)

    def _check_loop(self, loop: ForLoop, scope: _KernelScope) -> None:
        if scope.lookup(loop.var) is not None:
            raise SemanticError(
                f"loop variable {loop.var!r} shadows an existing binding",
                loop.location,
            )
        self._check_expr(loop.start, scope, expected=I64)
        self._check_expr(loop.bound, scope, expected=I64)
        inner = _KernelScope(scope)
        inner.bind(loop.var, I64)
        self._check_body(loop.body, inner, in_loop=True)

    def _check_assign(self, assign: Assign, scope: _KernelScope) -> None:
        target = assign.target
        if isinstance(target, ArrayRef):
            element = self._array_ref_type(target, scope)
            self._check_expr(assign.value, scope, expected=element)
            return
        # scalar target
        existing = scope.lookup(target.name)
        if assign.op != "=":
            if existing is None:
                raise SemanticError(
                    f"compound assignment to unbound variable {target.name!r}",
                    assign.location,
                )
            self._check_expr(assign.value, scope, expected=existing)
            return
        value_type = self._check_expr(assign.value, scope, expected=existing)
        if existing is None:
            scope.bind(target.name, value_type)
        elif existing is not value_type:
            raise SemanticError(
                f"variable {target.name!r} rebound at {value_type}, "
                f"previously {existing}",
                assign.location,
            )

    # -- expressions -------------------------------------------------------------------

    def _array_ref_type(self, ref: ArrayRef, scope: _KernelScope) -> Type:
        if ref.array not in self.result.arrays:
            raise SemanticError(f"unknown array {ref.array!r}", ref.location)
        self._check_expr(ref.index, scope, expected=I64)
        element = self.result.array_element_type(ref.array)
        self.result.expr_types[id(ref)] = element
        return element

    def _check_expr(
        self, expr: Expr, scope: _KernelScope, expected: Optional[Type] = None
    ) -> Type:
        type_ = self._infer(expr, scope, expected)
        if expected is not None and type_ is not expected:
            raise SemanticError(
                f"expected {expected}, got {type_}", expr.location
            )
        self.result.expr_types[id(expr)] = type_
        return type_

    def _infer(
        self, expr: Expr, scope: _KernelScope, expected: Optional[Type]
    ) -> Type:
        if isinstance(expr, IntLiteral):
            # Integer literals adapt to float contexts, like C constants.
            if expected is not None:
                return expected
            return I64
        if isinstance(expr, FloatLiteral):
            if expected is not None and expected.is_float:
                return expected
            if expected is not None:
                raise SemanticError(
                    f"float literal in {expected} context", expr.location
                )
            return F64
        if isinstance(expr, VarRef):
            bound = scope.lookup(expr.name)
            if bound is None:
                raise SemanticError(f"unbound variable {expr.name!r}", expr.location)
            return bound
        if isinstance(expr, ArrayRef):
            return self._array_ref_type(expr, scope)
        if isinstance(expr, Unary):
            return self._check_expr(expr.operand, scope, expected)
        if isinstance(expr, Binary):
            # Infer a concrete side first so literals can adapt.
            hint = expected
            if hint is None:
                hint = self._probe_type(expr.lhs, scope) or self._probe_type(
                    expr.rhs, scope
                )
            lhs = self._check_expr(expr.lhs, scope, hint)
            rhs = self._check_expr(expr.rhs, scope, lhs)
            return lhs if lhs is rhs else lhs
        if isinstance(expr, Compare):
            hint = self._probe_type(expr.lhs, scope) or self._probe_type(
                expr.rhs, scope
            )
            if hint is None:
                raise SemanticError(
                    "cannot infer comparison operand type", expr.location
                )
            self._check_expr(expr.lhs, scope, hint)
            self._check_expr(expr.rhs, scope, hint)
            return I1
        if isinstance(expr, Ternary):
            self._check_expr(expr.cond, scope, I1)
            arm_hint = expected
            if arm_hint is None:
                arm_hint = self._probe_type(expr.then, scope) or self._probe_type(
                    expr.otherwise, scope
                )
            then_type = self._check_expr(expr.then, scope, arm_hint)
            self._check_expr(expr.otherwise, scope, then_type)
            return then_type
        if isinstance(expr, Call):
            if expr.callee not in FLOAT_INTRINSICS:
                raise SemanticError(
                    f"unknown intrinsic {expr.callee!r} "
                    f"(available: {', '.join(FLOAT_INTRINSICS)})",
                    expr.location,
                )
            arity = INTRINSICS[expr.callee]
            if len(expr.args) != arity:
                raise SemanticError(
                    f"{expr.callee} expects {arity} argument(s), "
                    f"got {len(expr.args)}",
                    expr.location,
                )
            hint = expected if expected is not None and expected.is_float else None
            if hint is None:
                for arg in expr.args:
                    hint = self._probe_type(arg, scope)
                    if hint is not None:
                        break
            if hint is None or not hint.is_float:
                raise SemanticError(
                    f"cannot infer float type for {expr.callee} call",
                    expr.location,
                )
            for arg in expr.args:
                self._check_expr(arg, scope, hint)
            return hint
        raise SemanticError("unsupported expression", expr.location)

    def _probe_type(self, expr: Expr, scope: _KernelScope) -> Optional[Type]:
        """Non-committal type probe used to resolve literal contexts."""
        if isinstance(expr, VarRef):
            return scope.lookup(expr.name)
        if isinstance(expr, ArrayRef):
            if expr.array in self.result.arrays:
                return self.result.array_element_type(expr.array)
            return None
        if isinstance(expr, FloatLiteral):
            return F64
        if isinstance(expr, Unary):
            return self._probe_type(expr.operand, scope)
        if isinstance(expr, Binary):
            return self._probe_type(expr.lhs, scope) or self._probe_type(
                expr.rhs, scope
            )
        if isinstance(expr, Compare):
            hint = self._probe_type(expr.lhs, scope) or self._probe_type(
                expr.rhs, scope
            )
            if hint is None:
                raise SemanticError(
                    "cannot infer comparison operand type", expr.location
                )
            self._check_expr(expr.lhs, scope, hint)
            self._check_expr(expr.rhs, scope, hint)
            return I1
        if isinstance(expr, Ternary):
            self._check_expr(expr.cond, scope, I1)
            arm_hint = expected
            if arm_hint is None:
                arm_hint = self._probe_type(expr.then, scope) or self._probe_type(
                    expr.otherwise, scope
                )
            then_type = self._check_expr(expr.then, scope, arm_hint)
            self._check_expr(expr.otherwise, scope, then_type)
            return then_type
        if isinstance(expr, Call):
            for arg in expr.args:
                probed = self._probe_type(arg, scope)
                if probed is not None:
                    return probed
        if isinstance(expr, Compare):
            return I1
        if isinstance(expr, Ternary):
            return self._probe_type(expr.then, scope) or self._probe_type(
                expr.otherwise, scope
            )
        return None


def analyze(program: Program) -> SemaResult:
    """Run semantic analysis; raises SemanticError on the first problem."""
    return SemanticAnalyzer(program).analyze()
