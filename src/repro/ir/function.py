"""Functions: argument lists, blocks, and local name uniquing."""

from __future__ import annotations

import weakref
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .block import BasicBlock
from .instructions import Instruction
from .types import Type, VOID
from .values import Argument


class Function:
    """A function: name, typed arguments, return type, list of blocks.

    ``fast_math`` mirrors clang's ``-ffast-math``: it licenses the
    vectorizer to reassociate floating point expressions, which is a
    precondition for Multi-Node / Super-Node formation on fadd/fmul chains
    (the paper compiles everything with ``-O3 -ffast-math``).

    A function owns its blocks and their instructions; nothing inside it
    owns the function (``BasicBlock.parent``) or its module (``parent``),
    so it dies by refcount once its module and every other holder drop
    it, and then drops its IR's references (see :meth:`__del__`).
    """

    def __init__(
        self,
        name: str,
        arg_types: Sequence[Tuple[str, Type]] = (),
        return_type: Type = VOID,
        fast_math: bool = True,
    ) -> None:
        self.name = name
        self.return_type = return_type
        self.fast_math = fast_math
        self.arguments: List[Argument] = [
            Argument(type_, arg_name, i) for i, (arg_name, type_) in enumerate(arg_types)
        ]
        self.blocks: List[BasicBlock] = []
        self._parent: Optional[weakref.ref] = None
        self._name_counts: Dict[str, int] = {}

    @property
    def parent(self) -> Optional["Module"]:
        """The module holding this function (not owned: None once the
        module is freed)."""
        ref = self._parent
        return ref() if ref is not None else None

    @parent.setter
    def parent(self, module: Optional["Module"]) -> None:
        self._parent = weakref.ref(module) if module is not None else None

    def __del__(self) -> None:
        # LLVM's ``~Function`` calls ``dropAllReferences``: with every
        # operand dropped and every block emptied, no cycle is left among
        # the IR (value <-> use <-> user, instruction <-> block), so all
        # of it frees by refcount now instead of at the next full
        # collection.  Dropping operands one by one keeps the use lists
        # of values this function does not own (globals) exact.  Only
        # this function's objects are touched, so this is safe at
        # interpreter shutdown.
        for block in self.__dict__.get("blocks", ()):
            for inst in block.instructions:
                inst.drop_all_references()
                inst.parent = None
            block.instructions.clear()

    # -- block management -----------------------------------------------------

    def add_block(self, name: str) -> BasicBlock:
        # Parsed functions carry label names the counter has never seen,
        # so uniquing must also dodge the labels already present.
        existing = {block.name for block in self.blocks}
        candidate = self.unique_name(name)
        while candidate in existing:
            candidate = self.unique_name(name)
        block = BasicBlock(candidate)
        block.parent = self
        self.blocks.append(block)
        return block

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def block_named(self, name: str) -> BasicBlock:
        for block in self.blocks:
            if block.name == name:
                return block
        raise KeyError(f"no block named {name} in {self.name}")

    # -- naming ---------------------------------------------------------------

    def unique_name(self, base: str) -> str:
        """Produce a function-unique name derived from ``base``."""
        base = base or "t"
        count = self._name_counts.get(base, 0)
        self._name_counts[base] = count + 1
        return base if count == 0 else f"{base}.{count}"

    def assign_names(self) -> None:
        """Give every unnamed value-producing instruction a fresh name.

        Names already present (e.g. in a module that was parsed from text
        and then transformed) are respected: fresh names never collide
        with them, so printing stays parseable.
        """
        taken = {arg.name for arg in self.arguments}
        for inst in self.instructions():
            if inst.name:
                taken.add(inst.name)
        for inst in self.instructions():
            if not inst.name and not inst.type.is_void:
                name = self.unique_name("t")
                while name in taken:
                    name = self.unique_name("t")
                inst.name = name
                taken.add(name)

    # -- iteration ---------------------------------------------------------------

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def instruction_count(self) -> int:
        return sum(len(block) for block in self.blocks)

    def argument_named(self, name: str) -> Argument:
        for arg in self.arguments:
            if arg.name == name:
                return arg
        raise KeyError(f"no argument named {name} in {self.name}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Function {self.name}: {len(self.blocks)} blocks>"
