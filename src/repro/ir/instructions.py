"""Instruction set of the repro IR.

The instruction set is the subset of LLVM IR that an SLP vectorizer cares
about, plus enough control flow to express the loops the kernels live in:

* binary arithmetic — integer ``add/sub/mul/sdiv`` and floating point
  ``fadd/fsub/fmul/fdiv`` plus bitwise ops, each usable at scalar or vector
  type;
* ``altbinop`` — a vector instruction applying an *alternating* opcode
  pattern across lanes (models x86 ``addsubps``-family instructions, the way
  SLP vectorizes ``[+,-]`` alternate sequences);
* memory — ``load``, ``store`` and a single-index ``gep``;
* vector data movement — ``insertelement``, ``extractelement``,
  ``shufflevector``;
* comparisons, ``select``, a few ``call``-able intrinsics;
* control flow — ``br``, conditional ``br``, ``ret`` and ``phi``.

Opcode algebra (commutativity, associativity, inverse pairing) lives here as
well because it is the ground truth that the Multi-Node / Super-Node logic
of the vectorizer builds on.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple

from .types import I1, VOID, IntType, PointerType, Type, VectorType, vector_of
from .values import User, Value


class Opcode(enum.Enum):
    """All instruction opcodes."""

    # integer binary
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    SDIV = "sdiv"
    # float binary
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    # bitwise binary
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    ASHR = "ashr"
    # alternating vector binary (addsub-style)
    ALTBINOP = "altbinop"
    # memory
    LOAD = "load"
    STORE = "store"
    GEP = "gep"
    # vector data movement
    INSERTELEMENT = "insertelement"
    EXTRACTELEMENT = "extractelement"
    SHUFFLEVECTOR = "shufflevector"
    # comparisons / select
    ICMP = "icmp"
    FCMP = "fcmp"
    SELECT = "select"
    # casts
    SITOFP = "sitofp"
    FPTOSI = "fptosi"
    SEXT = "sext"
    TRUNC = "trunc"
    FPEXT = "fpext"
    FPTRUNC = "fptrunc"
    # calls (intrinsics)
    CALL = "call"
    # control flow
    BR = "br"
    CONDBR = "condbr"
    RET = "ret"
    PHI = "phi"

    def __str__(self) -> str:
        return self.value


#: binary opcodes usable in expressions
BINARY_OPCODES = frozenset(
    {
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
    }
)

#: opcodes that are commutative: a op b == b op a
COMMUTATIVE_OPCODES = frozenset(
    {
        Opcode.ADD,
        Opcode.MUL,
        Opcode.FADD,
        Opcode.FMUL,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
    }
)

#: opcodes that are associative (float ops only under fast-math, which the
#: vectorizer checks separately via function attributes)
ASSOCIATIVE_OPCODES = frozenset(
    {
        Opcode.ADD,
        Opcode.MUL,
        Opcode.FADD,
        Opcode.FMUL,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
    }
)

#: inverse-element pairing: op -> the op that applies the inverse element.
#: ``a sub b == a add (-b)`` and ``a fdiv b == a fmul (1/b)``.
INVERSE_OF = {
    Opcode.ADD: Opcode.SUB,
    Opcode.FADD: Opcode.FSUB,
    Opcode.FMUL: Opcode.FDIV,
}

#: the reverse mapping: inverse op -> its commutative base op
BASE_OF_INVERSE = {inv: base for base, inv in INVERSE_OF.items()}

#: note: integer MUL has no practical inverse op in the IR (integer division
#: does not invert multiplication), so Super-Nodes never mix MUL with SDIV.


def is_commutative(opcode: Opcode) -> bool:
    return opcode in COMMUTATIVE_OPCODES


def is_associative(opcode: Opcode) -> bool:
    return opcode in ASSOCIATIVE_OPCODES


def inverse_opcode(opcode: Opcode) -> Optional[Opcode]:
    """The inverse-element opcode of a commutative op, if any."""
    return INVERSE_OF.get(opcode)


def base_opcode(opcode: Opcode) -> Opcode:
    """Map an inverse op to its commutative base; identity otherwise.

    ``base_opcode(FSUB) == FADD``, ``base_opcode(FADD) == FADD``.
    """
    return BASE_OF_INVERSE.get(opcode, opcode)


def same_operator_family(a: Opcode, b: Opcode) -> bool:
    """True when two opcodes belong to one commutative/inverse family."""
    return base_opcode(a) == base_opcode(b)


class CmpPredicate(enum.Enum):
    """Comparison predicates shared by icmp/fcmp."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"

    def __str__(self) -> str:
        return self.value


class Instruction(User):
    """Base class of all instructions.

    Instructions live inside a :class:`~repro.ir.block.BasicBlock`; the
    ``parent`` pointer is maintained by the block's insertion/removal API.
    """

    opcode: Opcode

    def __init__(self, opcode: Opcode, type_: Type, operands: Sequence[Value], name: str = "") -> None:
        super().__init__(type_, operands, name)
        self.opcode = opcode
        self.parent = None  # type: Optional["BasicBlock"]

    # -- position / lifetime -------------------------------------------------

    def erase_from_parent(self) -> None:
        """Remove from the containing block and drop operand references."""
        if self.parent is not None:
            self.parent.remove(self)
        self.drop_all_references()

    def move_before(self, other: "Instruction") -> None:
        """Reposition this instruction immediately before ``other``."""
        block = other.parent
        if block is None:
            raise ValueError("cannot move before a detached instruction")
        if self.parent is not None:
            self.parent.remove(self)
        block.insert_before(other, self)

    # -- classification -------------------------------------------------------

    @property
    def is_binary(self) -> bool:
        return self.opcode in BINARY_OPCODES

    @property
    def is_terminator(self) -> bool:
        return self.opcode in (Opcode.BR, Opcode.CONDBR, Opcode.RET)

    @property
    def is_memory(self) -> bool:
        return self.opcode in (Opcode.LOAD, Opcode.STORE)

    @property
    def may_write_memory(self) -> bool:
        return self.opcode is Opcode.STORE

    @property
    def may_read_memory(self) -> bool:
        return self.opcode is Opcode.LOAD

    @property
    def has_side_effects(self) -> bool:
        return self.may_write_memory or self.is_terminator or self.opcode is Opcode.PHI

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        from .printer import format_instruction

        try:
            return f"<{format_instruction(self)}>"
        except Exception:
            return f"<{self.opcode} {self.ref()}>"


class BinaryInst(Instruction):
    """A two-operand arithmetic/bitwise instruction."""

    def __init__(self, opcode: Opcode, lhs: Value, rhs: Value, name: str = "") -> None:
        if opcode not in BINARY_OPCODES:
            raise ValueError(f"{opcode} is not a binary opcode")
        if lhs.type is not rhs.type:
            raise TypeError(f"binary operand type mismatch: {lhs.type} vs {rhs.type}")
        super().__init__(opcode, lhs.type, (lhs, rhs), name)

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)

    @property
    def is_commutative(self) -> bool:
        return is_commutative(self.opcode)


class AltBinaryInst(Instruction):
    """A vector binary op with a per-lane opcode pattern.

    Models the x86 ``addsub`` family and, more generally, the
    select/shuffle-based lowering SLP uses for alternating ``[+,-,...]``
    sequences.  ``lane_opcodes`` gives the scalar opcode applied on each
    lane; all lane opcodes must come from the same operator family.
    """

    def __init__(
        self,
        lane_opcodes: Sequence[Opcode],
        lhs: Value,
        rhs: Value,
        name: str = "",
    ) -> None:
        if not isinstance(lhs.type, VectorType):
            raise TypeError("altbinop requires vector operands")
        if lhs.type is not rhs.type:
            raise TypeError(f"altbinop operand type mismatch: {lhs.type} vs {rhs.type}")
        lane_opcodes = tuple(lane_opcodes)
        if len(lane_opcodes) != lhs.type.count:
            raise ValueError(
                f"altbinop lane count {len(lane_opcodes)} != vector arity {lhs.type.count}"
            )
        families = {base_opcode(op) for op in lane_opcodes}
        if len(families) != 1:
            raise ValueError(f"altbinop lanes span operator families: {lane_opcodes}")
        super().__init__(Opcode.ALTBINOP, lhs.type, (lhs, rhs), name)
        self.lane_opcodes: Tuple[Opcode, ...] = lane_opcodes

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)


class LoadInst(Instruction):
    """Load a scalar or vector from a pointer."""

    def __init__(self, pointer: Value, type_: Optional[Type] = None, name: str = "") -> None:
        if not isinstance(pointer.type, PointerType):
            raise TypeError(f"load requires pointer operand, got {pointer.type}")
        loaded = type_ if type_ is not None else pointer.type.pointee
        super().__init__(Opcode.LOAD, loaded, (pointer,), name)

    @property
    def pointer(self) -> Value:
        return self.operand(0)


class StoreInst(Instruction):
    """Store a scalar or vector value through a pointer."""

    def __init__(self, value: Value, pointer: Value) -> None:
        if not isinstance(pointer.type, PointerType):
            raise TypeError(f"store requires pointer operand, got {pointer.type}")
        super().__init__(Opcode.STORE, VOID, (value, pointer))

    @property
    def value(self) -> Value:
        return self.operand(0)

    @property
    def pointer(self) -> Value:
        return self.operand(1)


class GepInst(Instruction):
    """``gep base, index`` — pointer to ``base[index]``.

    The single-index form is all the kernels need; the address analysis
    (`repro.ir.analysis`) decomposes the index into symbolic-base + constant
    offset for the vectorizer's adjacency checks.
    """

    def __init__(self, base: Value, index: Value, name: str = "") -> None:
        if not isinstance(base.type, PointerType):
            raise TypeError(f"gep requires pointer base, got {base.type}")
        if not isinstance(index.type, IntType):
            raise TypeError(f"gep requires integer index, got {index.type}")
        super().__init__(Opcode.GEP, base.type, (base, index), name)

    @property
    def base(self) -> Value:
        return self.operand(0)

    @property
    def index(self) -> Value:
        return self.operand(1)


class InsertElementInst(Instruction):
    """``insertelement vec, scalar, lane`` — functional vector update."""

    def __init__(self, vector: Value, scalar: Value, lane: Value, name: str = "") -> None:
        if not isinstance(vector.type, VectorType):
            raise TypeError(f"insertelement requires vector, got {vector.type}")
        if vector.type.element is not scalar.type:
            raise TypeError(
                f"insertelement element mismatch: {vector.type.element} vs {scalar.type}"
            )
        super().__init__(Opcode.INSERTELEMENT, vector.type, (vector, scalar, lane), name)

    @property
    def vector(self) -> Value:
        return self.operand(0)

    @property
    def scalar(self) -> Value:
        return self.operand(1)

    @property
    def lane(self) -> Value:
        return self.operand(2)


class ExtractElementInst(Instruction):
    """``extractelement vec, lane`` — read one lane of a vector."""

    def __init__(self, vector: Value, lane: Value, name: str = "") -> None:
        if not isinstance(vector.type, VectorType):
            raise TypeError(f"extractelement requires vector, got {vector.type}")
        super().__init__(Opcode.EXTRACTELEMENT, vector.type.element, (vector, lane), name)

    @property
    def vector(self) -> Value:
        return self.operand(0)

    @property
    def lane(self) -> Value:
        return self.operand(1)


class ShuffleVectorInst(Instruction):
    """``shufflevector a, b, mask`` — lane permutation/blend of two vectors.

    ``mask`` is a static tuple of source lane indices; index ``i`` selects
    lane ``i`` of ``a`` when ``i < arity(a)``, otherwise lane ``i - arity``
    of ``b``.
    """

    def __init__(self, a: Value, b: Value, mask: Sequence[int], name: str = "") -> None:
        if not isinstance(a.type, VectorType):
            raise TypeError(f"shufflevector requires vectors, got {a.type}")
        if a.type is not b.type:
            raise TypeError(f"shufflevector type mismatch: {a.type} vs {b.type}")
        mask = tuple(int(m) for m in mask)
        limit = 2 * a.type.count
        if any(m < 0 or m >= limit for m in mask):
            raise ValueError(f"shuffle mask {mask} out of range for {a.type}")
        result = vector_of(a.type.element, len(mask)) if len(mask) >= 2 else a.type.element
        super().__init__(Opcode.SHUFFLEVECTOR, result, (a, b), name)
        self.mask: Tuple[int, ...] = mask

    @property
    def a(self) -> Value:
        return self.operand(0)

    @property
    def b(self) -> Value:
        return self.operand(1)


class CmpInst(Instruction):
    """Integer or float comparison yielding an ``i1`` (or i1-vector)."""

    def __init__(
        self,
        opcode: Opcode,
        predicate: CmpPredicate,
        lhs: Value,
        rhs: Value,
        name: str = "",
    ) -> None:
        if opcode not in (Opcode.ICMP, Opcode.FCMP):
            raise ValueError(f"{opcode} is not a comparison opcode")
        if lhs.type is not rhs.type:
            raise TypeError(f"cmp operand type mismatch: {lhs.type} vs {rhs.type}")
        result: Type = I1
        if isinstance(lhs.type, VectorType):
            result = vector_of(I1, lhs.type.count)
        super().__init__(opcode, result, (lhs, rhs), name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)


class SelectInst(Instruction):
    """``select cond, a, b`` — ternary conditional move."""

    def __init__(self, cond: Value, a: Value, b: Value, name: str = "") -> None:
        if a.type is not b.type:
            raise TypeError(f"select arm type mismatch: {a.type} vs {b.type}")
        super().__init__(Opcode.SELECT, a.type, (cond, a, b), name)

    @property
    def cond(self) -> Value:
        return self.operand(0)


class CastInst(Instruction):
    """A type conversion (sitofp, sext, trunc, fpext, ...)."""

    CAST_OPCODES = frozenset(
        {
            Opcode.SITOFP,
            Opcode.FPTOSI,
            Opcode.SEXT,
            Opcode.TRUNC,
            Opcode.FPEXT,
            Opcode.FPTRUNC,
        }
    )

    def __init__(self, opcode: Opcode, value: Value, to_type: Type, name: str = "") -> None:
        if opcode not in self.CAST_OPCODES:
            raise ValueError(f"{opcode} is not a cast opcode")
        super().__init__(opcode, to_type, (value,), name)

    @property
    def value(self) -> Value:
        return self.operand(0)


#: intrinsic name -> (arity, preserves-type?)  All intrinsics are pure.
INTRINSICS = {
    "sqrt": 1,
    "fabs": 1,
    "fmin": 2,
    "fmax": 2,
    "smin": 2,
    "smax": 2,
}


class CallInst(Instruction):
    """Call to a pure intrinsic (sqrt, fabs, fmin, fmax, smin, smax)."""

    def __init__(self, callee: str, args: Sequence[Value], name: str = "") -> None:
        if callee not in INTRINSICS:
            raise ValueError(f"unknown intrinsic: {callee}")
        args = tuple(args)
        if len(args) != INTRINSICS[callee]:
            raise ValueError(
                f"{callee} expects {INTRINSICS[callee]} args, got {len(args)}"
            )
        super().__init__(Opcode.CALL, args[0].type, args, name)
        self.callee = callee


class BranchInst(Instruction):
    """Unconditional branch."""

    def __init__(self, target: "BasicBlock") -> None:
        super().__init__(Opcode.BR, VOID, ())
        self.target = target

    def successors(self) -> List["BasicBlock"]:
        return [self.target]


class CondBranchInst(Instruction):
    """Conditional branch on an ``i1``."""

    def __init__(self, cond: Value, if_true: "BasicBlock", if_false: "BasicBlock") -> None:
        if cond.type is not I1:
            raise TypeError(f"condbr requires i1 condition, got {cond.type}")
        super().__init__(Opcode.CONDBR, VOID, (cond,))
        self.if_true = if_true
        self.if_false = if_false

    @property
    def cond(self) -> Value:
        return self.operand(0)

    def successors(self) -> List["BasicBlock"]:
        return [self.if_true, self.if_false]


class RetInst(Instruction):
    """Return, optionally with a value."""

    def __init__(self, value: Optional[Value] = None) -> None:
        super().__init__(Opcode.RET, VOID, (value,) if value is not None else ())

    @property
    def value(self) -> Optional[Value]:
        return self.operand(0) if self.num_operands else None

    def successors(self) -> List["BasicBlock"]:
        return []


class PhiInst(Instruction):
    """SSA phi node; incoming values are paired with predecessor blocks."""

    def __init__(self, type_: Type, name: str = "") -> None:
        super().__init__(Opcode.PHI, type_, (), name)
        self.incoming_blocks: List["BasicBlock"] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        if value.type is not self.type:
            raise TypeError(f"phi incoming type mismatch: {value.type} vs {self.type}")
        self._append_operands((value,))
        self.incoming_blocks.append(block)

    def incoming(self) -> List[Tuple[Value, "BasicBlock"]]:
        return list(zip(self.operands, self.incoming_blocks))

    def incoming_for(self, block: "BasicBlock") -> Value:
        for value, pred in self.incoming():
            if pred is block:
                return value
        raise KeyError(f"phi has no incoming edge from {block.name}")
