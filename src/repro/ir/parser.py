"""Textual IR parser (inverse of :mod:`repro.ir.printer`).

A small hand-rolled recursive-descent parser.  Forward references are
supported for both blocks (branches to not-yet-seen labels) and values
(phi edges into loop headers) via placeholder values that are patched once
the definition is parsed.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .block import BasicBlock
from .function import Function
from .instructions import (
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
from .module import Module
from .types import (
    FloatType,
    IntType,
    PointerType,
    Type,
    VectorType,
    parse_type,
)
from .values import Constant, Value


class ParseError(Exception):
    """Raised on malformed textual IR, with line information."""

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*|;[^\n]*)
  | (?P<number>-?\d+\.\d+(?:[eE][+-]?\d+)?|-?\d+(?:[eE][+-]?\d+)?|-?inf|nan)
  | (?P<local>%[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<global>@[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<punct><|>|\*|\(|\)|\[|\]|\{|\}|,|:|=|->)
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int) -> None:
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind}, {self.text!r})"


def _tokenize(source: str) -> List[_Token]:
    tokens: List[_Token] = []
    line = 1
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line)
        kind = match.lastgroup
        text = match.group()
        if kind == "ws":
            line += text.count("\n")
        elif kind != "comment":
            tokens.append(_Token(kind, text, line))
        pos = match.end()
    tokens.append(_Token("eof", "", line))
    return tokens


class _Placeholder(Value):
    """Stand-in for a forward-referenced local value."""

    def __init__(self, type_: Type, name: str) -> None:
        super().__init__(type_, name)


class _FunctionScope:
    """Per-function name tables with forward-reference support."""

    def __init__(self, function: Function) -> None:
        self.function = function
        self.values: Dict[str, Value] = {arg.name: arg for arg in function.arguments}
        self.placeholders: Dict[str, _Placeholder] = {}
        self.blocks: Dict[str, BasicBlock] = {}

    def lookup(self, name: str, type_: Type, line: int) -> Value:
        value = self.values.get(name)
        if value is not None:
            if value.type is not type_:
                raise ParseError(
                    f"%{name} used at type {type_} but defined at {value.type}", line
                )
            return value
        placeholder = self.placeholders.get(name)
        if placeholder is None:
            placeholder = _Placeholder(type_, name)
            self.placeholders[name] = placeholder
        elif placeholder.type is not type_:
            raise ParseError(
                f"%{name} forward-referenced at inconsistent types "
                f"{placeholder.type} vs {type_}",
                line,
            )
        return placeholder

    def define(self, name: str, value: Value, line: int) -> None:
        if name in self.values:
            raise ParseError(f"redefinition of %{name}", line)
        self.values[name] = value
        placeholder = self.placeholders.pop(name, None)
        if placeholder is not None:
            if placeholder.type is not value.type:
                raise ParseError(
                    f"%{name} defined at {value.type} but forward-referenced "
                    f"at {placeholder.type}",
                    line,
                )
            placeholder.replace_all_uses_with(value)

    def block(self, name: str) -> BasicBlock:
        block = self.blocks.get(name)
        if block is None:
            block = BasicBlock(name)
            block.parent = self.function
            self.blocks[name] = block
        return block

    def finish(self) -> None:
        if self.placeholders:
            missing = ", ".join(sorted(self.placeholders))
            raise ParseError(
                f"undefined values in @{self.function.name}: {missing}"
            )
        for block in self.blocks.values():
            if block not in self.function.blocks:
                raise ParseError(
                    f"branch to undefined block %{block.name} "
                    f"in @{self.function.name}"
                )


class Parser:
    """Parses a full module from textual IR."""

    def __init__(self, source: str) -> None:
        self._tokens = _tokenize(source)
        self._pos = 0

    # -- token plumbing ----------------------------------------------------------

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _next(self) -> _Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect(self, kind: str, text: Optional[str] = None) -> _Token:
        token = self._next()
        if token.kind != kind or (text is not None and token.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, got {token.text!r}", token.line)
        return token

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        token = self._peek()
        if token.kind == kind and (text is None or token.text == text):
            return self._next()
        return None

    # -- types --------------------------------------------------------------------

    def _parse_type(self) -> Type:
        token = self._peek()
        if token.kind == "punct" and token.text == "<":
            self._next()
            count_tok = self._expect("number")
            self._expect("ident", "x")
            element = self._parse_type()
            self._expect("punct", ">")
            base: Type = VectorType(element, int(count_tok.text))
        elif token.kind == "ident":
            self._next()
            base = parse_type(token.text)
        else:
            raise ParseError(f"expected type, got {token.text!r}", token.line)
        while self._accept("punct", "*"):
            base = PointerType(base)
        return base

    # -- operands ---------------------------------------------------------------------

    def _parse_scalar_literal(self, type_: Type, token: _Token):
        if isinstance(type_, IntType):
            if "." in token.text or "e" in token.text or "E" in token.text:
                raise ParseError(
                    f"float literal {token.text} at integer type {type_}", token.line
                )
            return int(token.text)
        if isinstance(type_, FloatType):
            return float(token.text)
        raise ParseError(f"literal {token.text} at non-scalar type {type_}", token.line)

    def _parse_operand(self, scope: _FunctionScope, type_: Type) -> Value:
        token = self._peek()
        if token.kind == "local":
            self._next()
            return scope.lookup(token.text[1:], type_, token.line)
        if token.kind == "global":
            self._next()
            module = scope.function.parent
            if module is None:
                raise ParseError("global reference outside module", token.line)
            buffer = module.globals.get(token.text[1:])
            if buffer is None:
                raise ParseError(f"unknown global {token.text}", token.line)
            return buffer
        if token.kind == "number":
            self._next()
            return Constant(type_, self._parse_scalar_literal(type_, token))
        if token.kind == "punct" and token.text == "<":
            if not isinstance(type_, VectorType):
                raise ParseError(f"vector literal at type {type_}", token.line)
            self._next()
            elems = []
            while True:
                elem_tok = self._expect("number")
                elems.append(self._parse_scalar_literal(type_.element, elem_tok))
                if not self._accept("punct", ","):
                    break
            self._expect("punct", ">")
            return Constant(type_, tuple(elems))
        raise ParseError(f"expected operand, got {token.text!r}", token.line)

    def _parse_typed_operand(self, scope: _FunctionScope) -> Value:
        type_ = self._parse_type()
        return self._parse_operand(scope, type_)

    # -- module structure -----------------------------------------------------------------

    def parse_module(self) -> Module:
        self._expect("ident", "module")
        name = self._expect("ident").text
        module = Module(name)
        while True:
            token = self._peek()
            if token.kind == "eof":
                break
            if token.kind == "ident" and token.text == "global":
                self._parse_global(module)
            elif token.kind == "ident" and token.text == "func":
                self._parse_function(module)
            else:
                raise ParseError(
                    f"expected 'global' or 'func', got {token.text!r}", token.line
                )
        return module

    def _parse_global(self, module: Module) -> None:
        self._expect("ident", "global")
        name = self._expect("global").text[1:]
        self._expect("punct", ":")
        element = self._parse_type()
        self._expect("ident", "x")
        count = int(self._expect("number").text)
        initializer = None
        if self._accept("punct", "="):
            self._expect("punct", "[")
            initializer = []
            while not self._accept("punct", "]"):
                token = self._expect("number")
                if isinstance(element, IntType):
                    initializer.append(int(token.text))
                else:
                    initializer.append(float(token.text))
                self._accept("punct", ",")
        module.add_global(name, element, count, initializer)

    def _parse_function(self, module: Module) -> None:
        self._expect("ident", "func")
        name = self._expect("global").text[1:]
        self._expect("punct", "(")
        args: List[Tuple[str, Type]] = []
        while not self._accept("punct", ")"):
            arg_name = self._expect("local").text[1:]
            self._expect("punct", ":")
            args.append((arg_name, self._parse_type()))
            self._accept("punct", ",")
        self._expect("punct", "->")
        return_type = self._parse_type()
        fast_math = bool(self._accept("ident", "fastmath"))
        function = Function(name, args, return_type, fast_math)
        module.add_function(function)
        scope = _FunctionScope(function)
        self._expect("punct", "{")
        while not self._accept("punct", "}"):
            self._parse_block(scope)
        scope.finish()

    def _parse_block(self, scope: _FunctionScope) -> None:
        label = self._expect("ident")
        self._expect("punct", ":")
        block = scope.block(label.text)
        if block in scope.function.blocks:
            raise ParseError(f"duplicate block label {label.text}", label.line)
        scope.function.blocks.append(block)
        while True:
            token = self._peek()
            if token.kind == "punct" and token.text == "}":
                break
            # A new block starts with `ident :` — look ahead one token.
            if token.kind == "ident" and self._tokens[self._pos + 1].text == ":":
                break
            self._parse_instruction(scope, block)

    # -- instructions -------------------------------------------------------------------------

    def _parse_instruction(self, scope: _FunctionScope, block: BasicBlock) -> None:
        token = self._peek()
        result_name: Optional[str] = None
        if token.kind == "local":
            result_name = self._next().text[1:]
            self._expect("punct", "=")
        op_tok = self._expect("ident")
        inst = self._dispatch(scope, op_tok)
        if result_name is not None:
            if inst.type.is_void:
                raise ParseError(
                    f"{op_tok.text} produces no value but is named", op_tok.line
                )
            inst.name = result_name
            scope.define(result_name, inst, op_tok.line)
        block.append(inst)

    def _dispatch(self, scope: _FunctionScope, op_tok: _Token) -> Instruction:
        text = op_tok.text
        simple_binops = {
            op.value: op
            for op in (
                Opcode.ADD,
                Opcode.SUB,
                Opcode.MUL,
                Opcode.SDIV,
                Opcode.FADD,
                Opcode.FSUB,
                Opcode.FMUL,
                Opcode.FDIV,
                Opcode.AND,
                Opcode.OR,
                Opcode.XOR,
                Opcode.SHL,
                Opcode.ASHR,
            )
        }
        if text in simple_binops:
            type_ = self._parse_type()
            lhs = self._parse_operand(scope, type_)
            self._expect("punct", ",")
            rhs = self._parse_operand(scope, type_)
            return BinaryInst(simple_binops[text], lhs, rhs)
        if text == "altbinop":
            self._expect("punct", "[")
            lane_ops = []
            while not self._accept("punct", "]"):
                lane_tok = self._expect("ident")
                lane_ops.append(Opcode(lane_tok.text))
                self._accept("punct", ",")
            type_ = self._parse_type()
            lhs = self._parse_operand(scope, type_)
            self._expect("punct", ",")
            rhs = self._parse_operand(scope, type_)
            return AltBinaryInst(lane_ops, lhs, rhs)
        if text == "load":
            loaded = self._parse_type()
            self._expect("punct", ",")
            pointer = self._parse_typed_operand(scope)
            return LoadInst(pointer, loaded)
        if text == "store":
            value = self._parse_typed_operand(scope)
            self._expect("punct", ",")
            pointer = self._parse_typed_operand(scope)
            return StoreInst(value, pointer)
        if text == "gep":
            base = self._parse_typed_operand(scope)
            self._expect("punct", ",")
            index = self._parse_typed_operand(scope)
            return GepInst(base, index)
        if text == "insertelement":
            vector = self._parse_typed_operand(scope)
            self._expect("punct", ",")
            scalar = self._parse_typed_operand(scope)
            self._expect("punct", ",")
            lane = self._parse_typed_operand(scope)
            return InsertElementInst(vector, scalar, lane)
        if text == "extractelement":
            vector = self._parse_typed_operand(scope)
            self._expect("punct", ",")
            lane = self._parse_typed_operand(scope)
            return ExtractElementInst(vector, lane)
        if text == "shufflevector":
            a = self._parse_typed_operand(scope)
            self._expect("punct", ",")
            b = self._parse_typed_operand(scope)
            self._expect("punct", ",")
            self._expect("punct", "[")
            mask = []
            while not self._accept("punct", "]"):
                mask.append(int(self._expect("number").text))
                self._accept("punct", ",")
            return ShuffleVectorInst(a, b, mask)
        if text in ("icmp", "fcmp"):
            predicate = CmpPredicate(self._expect("ident").text)
            type_ = self._parse_type()
            lhs = self._parse_operand(scope, type_)
            self._expect("punct", ",")
            rhs = self._parse_operand(scope, type_)
            opcode = Opcode.ICMP if text == "icmp" else Opcode.FCMP
            return CmpInst(opcode, predicate, lhs, rhs)
        if text == "select":
            cond = self._parse_typed_operand(scope)
            self._expect("punct", ",")
            a = self._parse_typed_operand(scope)
            self._expect("punct", ",")
            b = self._parse_typed_operand(scope)
            return SelectInst(cond, a, b)
        if text in ("sitofp", "fptosi", "sext", "trunc", "fpext", "fptrunc"):
            value = self._parse_typed_operand(scope)
            self._expect("ident", "to")
            to_type = self._parse_type()
            return CastInst(Opcode(text), value, to_type)
        if text == "call":
            self._parse_type()  # result type (redundant; derived from args)
            callee = self._expect("global").text[1:]
            self._expect("punct", "(")
            args = []
            while not self._accept("punct", ")"):
                args.append(self._parse_typed_operand(scope))
                self._accept("punct", ",")
            return CallInst(callee, args)
        if text == "br":
            target = self._expect("local").text[1:]
            return BranchInst(scope.block(target))
        if text == "condbr":
            cond = self._parse_typed_operand(scope)
            self._expect("punct", ",")
            if_true = self._expect("local").text[1:]
            self._expect("punct", ",")
            if_false = self._expect("local").text[1:]
            return CondBranchInst(cond, scope.block(if_true), scope.block(if_false))
        if text == "ret":
            token = self._peek()
            starts_type = (token.kind == "punct" and token.text == "<") or (
                # An identifier starts a return type unless it is the label
                # of the next block (`ident :`).
                token.kind == "ident"
                and self._tokens[self._pos + 1].text != ":"
            )
            if starts_type:
                return RetInst(self._parse_typed_operand(scope))
            return RetInst()
        if text == "phi":
            type_ = self._parse_type()
            phi = PhiInst(type_)
            while self._accept("punct", "["):
                value = self._parse_operand(scope, type_)
                self._expect("punct", ",")
                pred = self._expect("local").text[1:]
                self._expect("punct", "]")
                phi.add_incoming(value, scope.block(pred))
                if not self._accept("punct", ","):
                    break
            return phi
        raise ParseError(f"unknown instruction {text!r}", op_tok.line)


def parse_module(source: str) -> Module:
    """Parse textual IR into a :class:`~repro.ir.module.Module`."""
    return Parser(source).parse_module()
