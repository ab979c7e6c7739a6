"""IR analyses used by the vectorizer.

The central one is the *address analysis*: decomposing the pointer of a
load/store into ``(base object, symbolic index, constant offset)``.  This is
the miniature equivalent of LLVM's SCEV-based pointer analysis that the SLP
pass uses to recognise loads/stores of *adjacent* memory locations —
``A[i+0]``, ``A[i+1]`` — the primary vectorization seeds and leaves.

:class:`FunctionAnalysis` answers address and block-position queries once
per IR state for every reader of one vectorizer run: seeds, legality and
look-ahead scoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .block import BasicBlock
from .instructions import (
    BinaryInst,
    GepInst,
    Instruction,
    LoadInst,
    Opcode,
    StoreInst,
)
from .values import MUTATION_EPOCH, Constant, GlobalBuffer, Value


@dataclass(frozen=True)
class AddressInfo:
    """Decomposed memory address: ``base[sym + offset]``.

    ``base`` is the pointer the gep indexes (a global buffer or pointer
    argument); ``symbol`` is the non-constant part of the index (``None``
    for fully constant addresses); ``offset`` is the constant part in
    *elements* (not bytes); ``element_size`` is the byte width of the
    accessed element.
    """

    base: Value
    symbol: Optional[Value]
    offset: int
    element_size: int

    def same_base_and_symbol(self, other: "AddressInfo") -> bool:
        return self.base is other.base and self.symbol is other.symbol

    def is_consecutive_with(self, other: "AddressInfo") -> bool:
        """True when ``other`` addresses the element right after ``self``."""
        return (
            self.same_base_and_symbol(other)
            and self.element_size == other.element_size
            and other.offset == self.offset + 1
        )

    def distance_to(self, other: "AddressInfo") -> Optional[int]:
        """Element distance ``other - self`` when comparable, else None."""
        if not self.same_base_and_symbol(other):
            return None
        return other.offset - self.offset


def _split_index(index: Value) -> Optional[tuple]:
    """Decompose an integer index into (symbol, constant offset)."""
    if isinstance(index, Constant):
        return (None, index.value)
    if isinstance(index, BinaryInst):
        lhs, rhs = index.lhs, index.rhs
        if index.opcode is Opcode.ADD:
            if isinstance(rhs, Constant):
                return (lhs, rhs.value)
            if isinstance(lhs, Constant):
                return (rhs, lhs.value)
        elif index.opcode is Opcode.SUB and isinstance(rhs, Constant):
            return (lhs, -rhs.value)
    return (index, 0)


def decompose_pointer(pointer: Value) -> Optional[AddressInfo]:
    """Address info for a pointer value, or None when unanalyzable."""
    if isinstance(pointer, GepInst):
        split = _split_index(pointer.index)
        if split is None:
            return None
        symbol, offset = split
        element = pointer.type.pointee
        return AddressInfo(pointer.base, symbol, offset, element.byte_width)
    if pointer.type.is_pointer:
        # A bare pointer (argument or global) addresses element 0.
        element = pointer.type.pointee
        return AddressInfo(pointer, None, 0, element.byte_width)
    return None


def address_of(inst: Instruction) -> Optional[AddressInfo]:
    """Address info for a load or store instruction."""
    if isinstance(inst, LoadInst):
        return decompose_pointer(inst.pointer)
    if isinstance(inst, StoreInst):
        return decompose_pointer(inst.pointer)
    return None


class FunctionAnalysis:
    """Address decompositions and block positions, each computed once per
    IR state.

    Every entry belongs to the mutation epoch it was computed at
    (:data:`~repro.ir.values.MUTATION_EPOCH`): the first query after any
    operand change, insertion, removal or DCE sweep drops them all.  An
    entry holds its key object, so no id in the tables is a reused one.
    That also keeps every instruction asked about alive: make one per
    vectorizer run (or per standalone query) and drop it when the run
    returns.
    """

    __slots__ = ("_epoch", "_addresses", "_positions")

    def __init__(self) -> None:
        self._epoch = MUTATION_EPOCH.value
        #: id(inst) -> (inst, its address info)
        self._addresses: Dict[int, Tuple[Instruction, Optional[AddressInfo]]] = {}
        #: id(block) -> (block, id(inst) -> index in the block)
        self._positions: Dict[int, Tuple[BasicBlock, Dict[int, int]]] = {}

    def _reset(self) -> None:
        self._epoch = MUTATION_EPOCH.value
        self._addresses.clear()
        self._positions.clear()

    def address_of(self, inst: Instruction) -> Optional[AddressInfo]:
        """:func:`address_of`, decomposed once per IR state."""
        if self._epoch != MUTATION_EPOCH.value:
            self._reset()
        entry = self._addresses.get(id(inst))
        if entry is None:
            entry = self._addresses[id(inst)] = (inst, address_of(inst))
        return entry[1]

    def positions(self, block: BasicBlock) -> Dict[int, int]:
        """Index of every instruction of ``block``, keyed by ``id``."""
        if self._epoch != MUTATION_EPOCH.value:
            self._reset()
        entry = self._positions.get(id(block))
        if entry is None:
            index = {id(inst): pos for pos, inst in enumerate(block.instructions)}
            entry = self._positions[id(block)] = (block, index)
        return entry[1]


def may_alias(a: AddressInfo, b: AddressInfo) -> bool:
    """Conservative alias check between two analyzed addresses.

    Distinct global buffers never alias.  Same base with the same symbolic
    index aliases iff the constant offsets coincide.  Everything else is
    assumed to alias.
    """
    if (
        isinstance(a.base, GlobalBuffer)
        and isinstance(b.base, GlobalBuffer)
        and a.base is not b.base
    ):
        return False
    if a.same_base_and_symbol(b):
        return a.offset == b.offset
    return True


def memory_instructions_between(
    first: Instruction, last: Instruction
) -> List[Instruction]:
    """Memory-touching instructions strictly between two positions.

    Both instructions must live in the same block; ``first`` must come
    before ``last``.  Used by scheduling legality: a bundle of loads can be
    vectorized at the position of its last member only if no intervening
    store may clobber the earlier members.
    """
    block = first.parent
    if block is None or block is not last.parent:
        raise ValueError("instructions must share a block")
    lo = block.index_of(first)
    hi = block.index_of(last)
    if lo > hi:
        lo, hi = hi, lo
    return [
        inst
        for inst in block.instructions[lo + 1 : hi]
        if inst.is_memory
    ]


def sort_by_offset(infos: Sequence[AddressInfo]) -> List[int]:
    """Indices of ``infos`` sorted by constant offset (stable)."""
    return sorted(range(len(infos)), key=lambda i: infos[i].offset)
