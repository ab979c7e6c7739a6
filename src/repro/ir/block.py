"""Basic blocks: ordered instruction containers with insertion API."""

from __future__ import annotations

import weakref
from typing import Iterator, List, Optional

from .instructions import Instruction, PhiInst
from .values import MUTATION_EPOCH


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator.

    The block owns instruction ordering and answers position queries
    (``index_of``, ``comes_before``); the vectorizer reads positions
    through :meth:`~repro.ir.analysis.FunctionAnalysis.positions`, which
    is valid until the next insertion or removal here bumps the mutation
    epoch.  ``parent`` does not own: the function owns its blocks, and a
    block whose function was freed is detached (``parent`` is None, no
    instructions).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.instructions: List[Instruction] = []
        self._parent: Optional[weakref.ref] = None

    @property
    def parent(self) -> Optional["Function"]:
        ref = self._parent
        return ref() if ref is not None else None

    @parent.setter
    def parent(self, function: Optional["Function"]) -> None:
        self._parent = weakref.ref(function) if function is not None else None

    # -- insertion / removal -------------------------------------------------

    def append(self, inst: Instruction) -> Instruction:
        if inst.parent is not None:
            raise ValueError(f"instruction already belongs to block {inst.parent.name}")
        self.instructions.append(inst)
        inst.parent = self
        MUTATION_EPOCH.value += 1
        return inst

    def insert_at(self, index: int, inst: Instruction) -> Instruction:
        if inst.parent is not None:
            raise ValueError(f"instruction already belongs to block {inst.parent.name}")
        self.instructions.insert(index, inst)
        inst.parent = self
        MUTATION_EPOCH.value += 1
        return inst

    def insert_before(self, anchor: Instruction, inst: Instruction) -> Instruction:
        return self.insert_at(self.index_of(anchor), inst)

    def remove(self, inst: Instruction) -> None:
        self.instructions.remove(inst)
        inst.parent = None
        MUTATION_EPOCH.value += 1

    # -- queries ---------------------------------------------------------------

    def index_of(self, inst: Instruction) -> int:
        # Instructions compare by identity (none defines __eq__), so the
        # list's own search is an identity search.
        try:
            return self.instructions.index(inst)
        except ValueError:
            raise ValueError(f"instruction not in block {self.name}") from None

    def comes_before(self, a: Instruction, b: Instruction) -> bool:
        """True when ``a`` appears strictly before ``b`` in this block."""
        return self.index_of(a) < self.index_of(b)

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        return term.successors() if term is not None else []

    def phis(self) -> List[PhiInst]:
        return [i for i in self.instructions if isinstance(i, PhiInst)]

    def non_phi_instructions(self) -> List[Instruction]:
        return [i for i in self.instructions if not isinstance(i, PhiInst)]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BasicBlock {self.name}: {len(self.instructions)} insts>"
