"""AST node definitions for the kernel language."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Union

from .errors import SourceLocation
from .lexer import LineIndex


@dataclass
class Node:
    """``offset`` is where the node's token starts in the source, and
    ``lines`` the source's line index, shared by all its nodes; the
    ``location`` a diagnostic reports is computed from them when read."""

    offset: int
    lines: LineIndex = field(repr=False, compare=False)

    @property
    def location(self) -> SourceLocation:
        return self.lines.location(self.offset)


# -- expressions -----------------------------------------------------------------

@dataclass
class Expr(Node):
    pass


@dataclass
class IntLiteral(Expr):
    value: int


@dataclass
class FloatLiteral(Expr):
    value: float


@dataclass
class VarRef(Expr):
    """A scalar variable reference (parameter, induction var or temp)."""

    name: str


@dataclass
class ArrayRef(Expr):
    """``A[index]``"""

    array: str
    index: Expr


@dataclass
class Unary(Expr):
    """Unary minus."""

    op: str  # '-'
    operand: Expr


@dataclass
class Binary(Expr):
    op: str  # '+', '-', '*', '/'
    lhs: Expr
    rhs: Expr


@dataclass
class Call(Expr):
    """Intrinsic call: sqrt, fabs, fmin, fmax."""

    callee: str
    args: List[Expr]


@dataclass
class Compare(Expr):
    """Relational expression: ``a < b`` (result type i1)."""

    op: str  # '<', '<=', '>', '>=', '==', '!='
    lhs: Expr
    rhs: Expr


@dataclass
class Ternary(Expr):
    """C conditional expression: ``cond ? then : otherwise`` -> select."""

    cond: Expr
    then: Expr
    otherwise: Expr


# -- statements ------------------------------------------------------------------

@dataclass
class Stmt(Node):
    pass


@dataclass
class Assign(Stmt):
    """``A[i+0] = expr;`` or ``t = expr;`` (with optional '+='/'-=')."""

    target: Union[ArrayRef, VarRef]
    op: str  # '=', '+=', '-=', '*=', '/='
    value: Expr


@dataclass
class ForLoop(Stmt):
    """``for (i = start; i < bound; i += step) { body }``"""

    var: str
    start: Expr
    bound: Expr
    step: int
    body: List[Stmt] = field(default_factory=list)


# -- top level --------------------------------------------------------------------

@dataclass
class ArrayDecl(Node):
    """``double A[1024];``"""

    element_type: str  # 'double' | 'float' | 'long' | 'int'
    name: str
    size: int


@dataclass
class KernelDecl(Node):
    """``kernel name(n) { ... }`` — optionally marked ``nofastmath``."""

    name: str
    param: str
    body: List[Stmt]
    fast_math: bool = True


@dataclass
class Program(Node):
    declarations: List[ArrayDecl]
    kernels: List[KernelDecl]
