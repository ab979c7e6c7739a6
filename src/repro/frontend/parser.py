"""Recursive-descent parser for the kernel language.

Grammar (EBNF)::

    program   := (array_decl | kernel)*
    array_decl:= type IDENT '[' INT ']' ';'
    type      := 'double' | 'float' | 'long' | 'int'
    kernel    := 'kernel' IDENT '(' IDENT ')' ['nofastmath'] block
    block     := '{' stmt* '}'
    stmt      := for_loop | assign ';' | ';'
    for_loop  := 'for' '(' IDENT '=' expr ';' IDENT '<' expr ';'
                 IDENT '+=' INT ')' block
    assign    := lvalue ('=' | '+=' | '-=' | '*=' | '/=') expr
    lvalue    := IDENT '[' expr ']' | IDENT
    expr      := compare ['?' expr ':' expr]
    compare   := additive [('<'|'<='|'>'|'>='|'=='|'!=') additive]
    additive  := term (('+' | '-') term)*
    term      := unary (('*' | '/') unary)*
    unary     := '-' unary | primary
    primary   := INT | FLOAT | IDENT ['[' expr ']' | '(' args ')']
               | '(' expr ')'
"""

from __future__ import annotations

from typing import List, Optional, Union

from .errors import SourceLocation, SyntaxErrorKL
from .lexer import scan
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

ELEMENT_TYPES = ("double", "float", "long", "int")
ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=")


class KernelParser:
    """Reads the lexer's parallel token lists by position.  An operator's
    or keyword's text names its kind (no identifier, number or ``eof`` has
    the text of one), so such tokens are matched on text alone."""

    def __init__(self, source: str) -> None:
        self._kinds, self._texts, self._offsets, self._lines = scan(source)
        self._pos = 0

    # -- token plumbing --------------------------------------------------------------

    # The token lists always end in one ``eof`` token, which ``_next``
    # never steps past, so ``_pos`` always indexes a token.

    def _next(self) -> int:
        """Consume the current token; returns its position."""
        pos = self._pos
        if self._kinds[pos] != "eof":
            self._pos = pos + 1
        return pos

    def _location(self, pos: int) -> SourceLocation:
        return self._lines.location(self._offsets[pos])

    def _expect(self, text: str) -> int:
        """Consume the operator or keyword ``text``; returns its position."""
        pos = self._next()
        if self._texts[pos] != text:
            raise SyntaxErrorKL(
                f"expected {text!r}, got {self._texts[pos]!r}", self._location(pos)
            )
        return pos

    def _expect_kind(self, kind: str) -> int:
        """Consume a token of ``kind``; returns its position."""
        pos = self._next()
        if self._kinds[pos] != kind:
            raise SyntaxErrorKL(
                f"expected {kind!r}, got {self._texts[pos]!r}", self._location(pos)
            )
        return pos

    def _accept(self, text: str) -> bool:
        """Consume the current token if it is the operator or keyword ``text``."""
        if self._texts[self._pos] == text:
            self._pos += 1
            return True
        return False

    # -- top level ----------------------------------------------------------------------

    def parse_program(self) -> Program:
        kinds, texts = self._kinds, self._texts
        declarations: List[ArrayDecl] = []
        kernels: List[KernelDecl] = []
        while True:
            pos = self._pos
            kind = kinds[pos]
            if kind == "eof":
                break
            if kind == "keyword" and texts[pos] in ELEMENT_TYPES:
                declarations.append(self._parse_array_decl())
            elif kind == "keyword" and texts[pos] == "kernel":
                kernels.append(self._parse_kernel())
            else:
                raise SyntaxErrorKL(
                    f"expected declaration or kernel, got {texts[pos]!r}",
                    self._location(pos),
                )
        if not kernels:
            raise SyntaxErrorKL("program declares no kernels", self._location(0))
        return Program(self._offsets[0], self._lines, declarations, kernels)

    def _parse_array_decl(self) -> ArrayDecl:
        texts = self._texts
        type_pos = self._expect_kind("keyword")
        name = self._expect_kind("ident")
        self._expect("[")
        size = int(texts[self._expect_kind("int")])
        self._expect("]")
        self._expect(";")
        return ArrayDecl(
            self._offsets[type_pos], self._lines, texts[type_pos], texts[name], size
        )

    def _parse_kernel(self) -> KernelDecl:
        texts = self._texts
        start = self._expect("kernel")
        name = self._expect_kind("ident")
        self._expect("(")
        param = self._expect_kind("ident")
        self._expect(")")
        fast_math = not self._accept("nofastmath")
        body = self._parse_block()
        return KernelDecl(
            self._offsets[start], self._lines, texts[name], texts[param], body, fast_math
        )

    # -- statements --------------------------------------------------------------------------

    def _parse_block(self) -> List[Stmt]:
        self._expect("{")
        body: List[Stmt] = []
        while not self._accept("}"):
            statement = self._parse_stmt()
            if statement is not None:
                body.append(statement)
        return body

    def _parse_stmt(self) -> Optional[Stmt]:
        text = self._texts[self._pos]
        if text == ";":
            self._pos += 1
            return None
        if text == "for":
            return self._parse_for()
        return self._parse_assign()

    def _parse_for(self) -> ForLoop:
        texts = self._texts
        start = self._expect("for")
        self._expect("(")
        var = texts[self._expect_kind("ident")]
        self._expect("=")
        init = self._parse_additive()
        self._expect(";")
        cond_var = texts[self._expect_kind("ident")]
        if cond_var != var:
            raise SyntaxErrorKL(
                f"loop condition tests {cond_var!r}, expected {var!r}",
                self._location(start),
            )
        self._expect("<")
        bound = self._parse_additive()
        self._expect(";")
        step_var = texts[self._expect_kind("ident")]
        if step_var != var:
            raise SyntaxErrorKL(
                f"loop increments {step_var!r}, expected {var!r}", self._location(start)
            )
        self._expect("+=")
        step = int(texts[self._expect_kind("int")])
        if step < 1:
            raise SyntaxErrorKL("loop step must be positive", self._location(start))
        self._expect(")")
        body = self._parse_block()
        return ForLoop(self._offsets[start], self._lines, var, init, bound, step, body)

    def _parse_assign(self) -> Assign:
        target = self._parse_lvalue()
        pos = self._next()
        op = self._texts[pos]
        if op not in ASSIGN_OPS:
            raise SyntaxErrorKL(
                f"expected assignment operator, got {op!r}", self._location(pos)
            )
        value = self._parse_expr()
        self._expect(";")
        return Assign(self._offsets[pos], self._lines, target, op, value)

    def _parse_lvalue(self) -> Union[ArrayRef, VarRef]:
        pos = self._expect_kind("ident")
        name = self._texts[pos]
        if self._accept("["):
            index = self._parse_expr()
            self._expect("]")
            return ArrayRef(self._offsets[pos], self._lines, name, index)
        return VarRef(self._offsets[pos], self._lines, name)

    # -- expressions --------------------------------------------------------------------------

    #: relational operators (non-associative: `a < b < c` is rejected)
    RELOPS = frozenset(("==", "!=", "<=", ">=", "<", ">"))

    def _parse_expr(self) -> Expr:
        """Full expression: ternary over an optional single comparison."""
        condition = self._parse_compare()
        question = self._pos
        if self._texts[question] != "?":
            return condition
        self._pos = question + 1
        then = self._parse_expr()
        self._expect(":")
        otherwise = self._parse_expr()
        return Ternary(self._offsets[question], self._lines, condition, then, otherwise)

    def _parse_compare(self) -> Expr:
        lhs = self._parse_additive()
        texts = self._texts
        pos = self._pos
        op = texts[pos]
        if op in self.RELOPS:
            self._pos = pos + 1
            rhs = self._parse_additive()
            if texts[self._pos] in self.RELOPS:
                raise SyntaxErrorKL(
                    "comparisons do not chain; parenthesize", self._location(self._pos)
                )
            return Compare(self._offsets[pos], self._lines, op, lhs, rhs)
        return lhs

    def _parse_additive(self) -> Expr:
        lhs = self._parse_term()
        texts = self._texts
        while True:
            pos = self._pos
            op = texts[pos]
            if op != "+" and op != "-":
                return lhs
            self._pos = pos + 1
            rhs = self._parse_term()
            lhs = Binary(self._offsets[pos], self._lines, op, lhs, rhs)

    def _parse_term(self) -> Expr:
        lhs = self._parse_unary()
        texts = self._texts
        while True:
            pos = self._pos
            op = texts[pos]
            if op != "*" and op != "/":
                return lhs
            self._pos = pos + 1
            rhs = self._parse_unary()
            lhs = Binary(self._offsets[pos], self._lines, op, lhs, rhs)

    def _parse_unary(self) -> Expr:
        pos = self._pos
        if self._texts[pos] == "-":
            self._pos = pos + 1
            return Unary(self._offsets[pos], self._lines, "-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        pos = self._next()
        kind = self._kinds[pos]
        text = self._texts[pos]
        if kind == "int":
            return IntLiteral(self._offsets[pos], self._lines, int(text))
        if kind == "float":
            return FloatLiteral(self._offsets[pos], self._lines, float(text))
        if kind == "ident":
            if self._accept("["):
                index = self._parse_expr()
                self._expect("]")
                return ArrayRef(self._offsets[pos], self._lines, text, index)
            if self._accept("("):
                args: List[Expr] = []
                if not self._accept(")"):
                    args.append(self._parse_expr())
                    while not self._accept(")"):
                        self._expect(",")
                        args.append(self._parse_expr())
                return Call(self._offsets[pos], self._lines, text, args)
            return VarRef(self._offsets[pos], self._lines, text)
        if text == "(":
            inner = self._parse_expr()
            self._expect(")")
            return inner
        raise SyntaxErrorKL(f"expected expression, got {text!r}", self._location(pos))


def parse_source(source: str) -> Program:
    """Parse kernel-language source into an AST."""
    return KernelParser(source).parse_program()
