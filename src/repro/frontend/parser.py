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

from .errors import SyntaxErrorKL
from .lexer import Token, tokenize
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
    def __init__(self, source: str) -> None:
        self._tokens = tokenize(source)
        self._pos = 0

    # -- token plumbing --------------------------------------------------------------

    # The token list always ends in one ``eof`` token, which ``_next``
    # never steps past, so ``_pos`` always indexes a token.

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self._next()
        if token.kind != kind or (text is not None and token.text != text):
            want = text if text is not None else kind
            raise SyntaxErrorKL(
                f"expected {want!r}, got {token.text!r}", token.location
            )
        return token

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        token = self._peek()
        if token.kind == kind and (text is None or token.text == text):
            return self._next()
        return None

    # -- top level ----------------------------------------------------------------------

    def parse_program(self) -> Program:
        start = self._peek().location
        declarations: List[ArrayDecl] = []
        kernels: List[KernelDecl] = []
        while True:
            token = self._peek()
            if token.kind == "eof":
                break
            if token.kind == "keyword" and token.text in ELEMENT_TYPES:
                declarations.append(self._parse_array_decl())
            elif token.kind == "keyword" and token.text == "kernel":
                kernels.append(self._parse_kernel())
            else:
                raise SyntaxErrorKL(
                    f"expected declaration or kernel, got {token.text!r}",
                    token.location,
                )
        if not kernels:
            raise SyntaxErrorKL("program declares no kernels", start)
        return Program(start, declarations, kernels)

    def _parse_array_decl(self) -> ArrayDecl:
        type_tok = self._expect("keyword")
        name = self._expect("ident")
        self._expect("op", "[")
        size = int(self._expect("int").text)
        self._expect("op", "]")
        self._expect("op", ";")
        return ArrayDecl(type_tok.location, type_tok.text, name.text, size)

    def _parse_kernel(self) -> KernelDecl:
        start = self._expect("keyword", "kernel")
        name = self._expect("ident")
        self._expect("op", "(")
        param = self._expect("ident")
        self._expect("op", ")")
        fast_math = not self._accept("keyword", "nofastmath")
        body = self._parse_block()
        return KernelDecl(start.location, name.text, param.text, body, fast_math)

    # -- statements --------------------------------------------------------------------------

    def _parse_block(self) -> List[Stmt]:
        self._expect("op", "{")
        body: List[Stmt] = []
        while not self._accept("op", "}"):
            statement = self._parse_stmt()
            if statement is not None:
                body.append(statement)
        return body

    def _parse_stmt(self) -> Optional[Stmt]:
        token = self._peek()
        if token.kind == "op" and token.text == ";":
            self._next()
            return None
        if token.kind == "keyword" and token.text == "for":
            return self._parse_for()
        return self._parse_assign()

    def _parse_for(self) -> ForLoop:
        start = self._expect("keyword", "for")
        self._expect("op", "(")
        var = self._expect("ident").text
        self._expect("op", "=")
        init = self._parse_additive()
        self._expect("op", ";")
        cond_var = self._expect("ident").text
        if cond_var != var:
            raise SyntaxErrorKL(
                f"loop condition tests {cond_var!r}, expected {var!r}",
                start.location,
            )
        self._expect("op", "<")
        bound = self._parse_additive()
        self._expect("op", ";")
        step_var = self._expect("ident").text
        if step_var != var:
            raise SyntaxErrorKL(
                f"loop increments {step_var!r}, expected {var!r}", start.location
            )
        self._expect("op", "+=")
        step = int(self._expect("int").text)
        if step < 1:
            raise SyntaxErrorKL("loop step must be positive", start.location)
        self._expect("op", ")")
        body = self._parse_block()
        return ForLoop(start.location, var, init, bound, step, body)

    def _parse_assign(self) -> Assign:
        target = self._parse_lvalue()
        op_tok = self._next()
        if op_tok.kind != "op" or op_tok.text not in ASSIGN_OPS:
            raise SyntaxErrorKL(
                f"expected assignment operator, got {op_tok.text!r}",
                op_tok.location,
            )
        value = self._parse_expr()
        self._expect("op", ";")
        return Assign(op_tok.location, target, op_tok.text, value)

    def _parse_lvalue(self) -> Union[ArrayRef, VarRef]:
        name = self._expect("ident")
        if self._accept("op", "["):
            index = self._parse_expr()
            self._expect("op", "]")
            return ArrayRef(name.location, name.text, index)
        return VarRef(name.location, name.text)

    # -- expressions --------------------------------------------------------------------------

    #: relational operators (non-associative: `a < b < c` is rejected)
    RELOPS = ("==", "!=", "<=", ">=", "<", ">")

    def _parse_expr(self) -> Expr:
        """Full expression: ternary over an optional single comparison."""
        condition = self._parse_compare()
        question = self._accept("op", "?")
        if question is None:
            return condition
        then = self._parse_expr()
        self._expect("op", ":")
        otherwise = self._parse_expr()
        return Ternary(question.location, condition, then, otherwise)

    def _parse_compare(self) -> Expr:
        lhs = self._parse_additive()
        token = self._peek()
        if token.kind == "op" and token.text in self.RELOPS:
            self._next()
            rhs = self._parse_additive()
            follow = self._peek()
            if follow.kind == "op" and follow.text in self.RELOPS:
                raise SyntaxErrorKL(
                    "comparisons do not chain; parenthesize", follow.location
                )
            return Compare(token.location, token.text, lhs, rhs)
        return lhs

    def _parse_additive(self) -> Expr:
        lhs = self._parse_term()
        while True:
            token = self._peek()
            if token.kind == "op" and token.text in ("+", "-"):
                self._next()
                rhs = self._parse_term()
                lhs = Binary(token.location, token.text, lhs, rhs)
            else:
                return lhs

    def _parse_term(self) -> Expr:
        lhs = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind == "op" and token.text in ("*", "/"):
                self._next()
                rhs = self._parse_unary()
                lhs = Binary(token.location, token.text, lhs, rhs)
            else:
                return lhs

    def _parse_unary(self) -> Expr:
        token = self._peek()
        if token.kind == "op" and token.text == "-":
            self._next()
            return Unary(token.location, "-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self._next()
        if token.kind == "int":
            return IntLiteral(token.location, int(token.text))
        if token.kind == "float":
            return FloatLiteral(token.location, float(token.text))
        if token.kind == "ident":
            if self._accept("op", "["):
                index = self._parse_expr()
                self._expect("op", "]")
                return ArrayRef(token.location, token.text, index)
            if self._accept("op", "("):
                args: List[Expr] = []
                while not self._accept("op", ")"):
                    args.append(self._parse_expr())
                    self._accept("op", ",")
                return Call(token.location, token.text, args)
            return VarRef(token.location, token.text)
        if token.kind == "op" and token.text == "(":
            inner = self._parse_expr()
            self._expect("op", ")")
            return inner
        raise SyntaxErrorKL(f"expected expression, got {token.text!r}", token.location)


def parse_source(source: str) -> Program:
    """Parse kernel-language source into an AST."""
    return KernelParser(source).parse_program()
