"""Modules: the top-level IR container (functions + global buffers)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

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
from .types import Type
from .values import Constant, GlobalBuffer, Value


class Module:
    """A compilation unit: named global array buffers and functions.

    Global buffers model the C arrays of the paper's kernels (``long A[]``,
    ``double B[]``...); the interpreter materializes them in its flat memory
    at load time.
    """

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalBuffer] = {}

    # -- functions -------------------------------------------------------------

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise ValueError(f"duplicate function name: {function.name}")
        function.parent = self
        self.functions[function.name] = function
        return function

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"no function named {name} in module {self.name}") from None

    # -- globals ---------------------------------------------------------------

    def add_global(
        self,
        name: str,
        element: Type,
        count: int,
        initializer: Optional[Sequence] = None,
    ) -> GlobalBuffer:
        if name in self.globals:
            raise ValueError(f"duplicate global name: {name}")
        buffer = GlobalBuffer(name, element, count, initializer)
        self.globals[name] = buffer
        return buffer

    def global_named(self, name: str) -> GlobalBuffer:
        try:
            return self.globals[name]
        except KeyError:
            raise KeyError(f"no global named {name} in module {self.name}") from None

    # -- cloning ---------------------------------------------------------------

    def clone(self) -> "Module":
        """Structural deep copy: fresh functions, blocks, instructions.

        Replaces the printer→parser round-trip on the compile hot path
        (:func:`repro.vectorizer.pipeline.clone_module`).  The clone
        shares no mutable IR objects with the original: constants are
        re-created (they carry use lists), blocks are constructed
        directly (bypassing ``add_block`` so label names survive
        verbatim), and ``_name_counts`` is copied so post-clone name
        uniquing behaves exactly as it would on the original.

        Each function is copied in two passes.  The first copies every
        instruction without operands (``_COPIERS``, one entry per
        instruction class), so the second finds every operand's copy,
        forward references (a phi reading the loop latch's value)
        included, and adds each instruction's operand records in one
        call.  Each value's use list in the clone is in block order of
        its users.
        """
        clone = Module(self.name)
        for name, buffer in self.globals.items():
            clone.add_global(
                name,
                buffer.element,
                buffer.count,
                list(buffer.initializer) if buffer.initializer is not None else None,
            )
        for fn in self.functions.values():
            new_fn = Function(
                fn.name,
                [(arg.name, arg.type) for arg in fn.arguments],
                fn.return_type,
                fn.fast_math,
            )
            clone.add_function(new_fn)

            value_map: Dict[int, "Value"] = {
                id(old): new for old, new in zip(fn.arguments, new_fn.arguments)
            }
            for name, buffer in self.globals.items():
                value_map[id(buffer)] = clone.globals[name]
            block_map: Dict[int, BasicBlock] = {}
            for block in fn.blocks:
                new_block = BasicBlock(block.name)
                new_block.parent = new_fn
                new_fn.blocks.append(new_block)
                block_map[id(block)] = new_block
            new_fn._name_counts = dict(fn._name_counts)

            pairs = []
            for block in fn.blocks:
                new_block = block_map[id(block)]
                for inst in block.instructions:
                    copier = _COPIERS.get(inst.__class__)
                    if copier is None:
                        raise TypeError(
                            f"clone: unhandled instruction class {type(inst).__name__}"
                        )
                    copy = copier(inst, block_map)
                    new_block.append(copy)
                    value_map[id(inst)] = copy
                    pairs.append((inst, copy))
            for inst, copy in pairs:
                operands = []
                for use in inst._operands:
                    op = use.value
                    mapped = value_map.get(id(op))
                    if mapped is None:
                        if not isinstance(op, Constant):
                            raise ValueError(
                                f"clone {fn.name}: operand %{op.name} of "
                                f"{inst.opcode} is not in the function"
                            )
                        mapped = value_map[id(op)] = Constant(op.type, op.value)
                    operands.append(mapped)
                copy._append_operands(operands)
        return clone

    # -- stats -------------------------------------------------------------------

    def instruction_count(self) -> int:
        return sum(f.instruction_count() for f in self.functions.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Module {self.name}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals>"
        )


def _copy(inst: Instruction) -> Instruction:
    """A new instruction of ``inst``'s class with its opcode, type and name
    but no operands, uses or parent.  The attributes are set in the order
    ``Instruction.__init__`` sets them, so the copy shares its class's
    attribute layout (a copy through ``__dict__`` would not)."""
    copy = object.__new__(inst.__class__)
    copy.type = inst.type
    copy.name = inst.name
    copy.uses = []
    copy._operands = []
    copy.opcode = inst.opcode
    copy.parent = None
    return copy


def _copy_plain(inst: Instruction, block_map: Dict[int, BasicBlock]) -> Instruction:
    return _copy(inst)


def _copy_altbinop(inst: AltBinaryInst, block_map: Dict[int, BasicBlock]) -> Instruction:
    copy = _copy(inst)
    copy.lane_opcodes = inst.lane_opcodes
    return copy


def _copy_shufflevector(
    inst: ShuffleVectorInst, block_map: Dict[int, BasicBlock]
) -> Instruction:
    copy = _copy(inst)
    copy.mask = inst.mask
    return copy


def _copy_cmp(inst: CmpInst, block_map: Dict[int, BasicBlock]) -> Instruction:
    copy = _copy(inst)
    copy.predicate = inst.predicate
    return copy


def _copy_call(inst: CallInst, block_map: Dict[int, BasicBlock]) -> Instruction:
    copy = _copy(inst)
    copy.callee = inst.callee
    return copy


def _copy_branch(inst: BranchInst, block_map: Dict[int, BasicBlock]) -> Instruction:
    copy = _copy(inst)
    copy.target = block_map[id(inst.target)]
    return copy


def _copy_condbr(inst: CondBranchInst, block_map: Dict[int, BasicBlock]) -> Instruction:
    copy = _copy(inst)
    copy.if_true = block_map[id(inst.if_true)]
    copy.if_false = block_map[id(inst.if_false)]
    return copy


def _copy_phi(inst: PhiInst, block_map: Dict[int, BasicBlock]) -> Instruction:
    copy = _copy(inst)
    copy.incoming_blocks = [block_map[id(block)] for block in inst.incoming_blocks]
    return copy


#: instruction class -> a copy of the instruction without operands, its
#: class's own attributes copied and its block references mapped into the
#: clone (the attributes are immutable, so they are shared)
_COPIERS = {
    BinaryInst: _copy_plain,
    AltBinaryInst: _copy_altbinop,
    LoadInst: _copy_plain,
    StoreInst: _copy_plain,
    GepInst: _copy_plain,
    InsertElementInst: _copy_plain,
    ExtractElementInst: _copy_plain,
    ShuffleVectorInst: _copy_shufflevector,
    CmpInst: _copy_cmp,
    SelectInst: _copy_plain,
    CastInst: _copy_plain,
    CallInst: _copy_call,
    BranchInst: _copy_branch,
    CondBranchInst: _copy_condbr,
    RetInst: _copy_plain,
    PhiInst: _copy_phi,
}
