"""Core value hierarchy and use-def machinery for the repro IR.

The IR follows the classic SSA design used by production compilers:

* every :class:`Value` has a :class:`~repro.ir.types.Type` and a list of
  :class:`Use` records describing who consumes it;
* :class:`User` values (instructions, mostly) hold an operand list; operand
  mutation goes through :meth:`User.set_operand` so the def's use list stays
  consistent;
* :meth:`Value.replace_all_uses_with` (RAUW) rewires every consumer to a new
  value — the workhorse of every rewriting pass including the vectorizer's
  code generation.

Keeping use lists exact is what lets the SLP vectorizer walk *up* the
use-def chains (operands) and *down* the def-use chains (users) cheaply.

Every mutation of existing IR bumps :data:`MUTATION_EPOCH`: an operand
change here, an insertion or removal in a block, a DCE sweep.  An analysis
result computed at one epoch is valid for as long as the epoch reads the
same (:class:`~repro.ir.analysis.FunctionAnalysis`).
"""

from __future__ import annotations

import math
import struct
from typing import Iterable, Iterator, List, Optional, Sequence

from .types import FloatType, IntType, Type, VectorType, pointer_to


class MutationEpoch:
    """A counter that every mutation of existing IR increments.  Creating
    a value does not count, as nothing can have analysed it yet; placing
    it in a block does.  There is one per process: a bump anywhere only
    makes a cache recompute, never answer wrongly, so it needs no owner."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


#: the one IR mutation epoch (an int: it holds no IR)
MUTATION_EPOCH = MutationEpoch()


class Use:
    """A single (user, operand-index) edge in the def-use graph.

    One record per operand slot: the user's operand list holds it, and so
    does the use list of the ``value`` it currently reads.
    """

    __slots__ = ("user", "index", "value")

    def __init__(self, user: "User", index: int, value: "Value") -> None:
        self.user = user
        self.index = index
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Use({self.user!r}[{self.index}])"


class Value:
    """Anything that can appear as an operand: constants, arguments,
    instructions, globals."""

    def __init__(self, type_: Type, name: str = "") -> None:
        self.type = type_
        self.name = name
        self.uses: List[Use] = []

    # -- use bookkeeping ----------------------------------------------------

    def add_use(self, use: Use) -> None:
        self.uses.append(use)

    def remove_use(self, use: Use) -> None:
        self.uses.remove(use)

    @property
    def num_uses(self) -> int:
        return len(self.uses)

    def users(self) -> Iterator["User"]:
        """Iterate over the users of this value (with multiplicity)."""
        for use in self.uses:
            yield use.user

    def unique_users(self) -> List["User"]:
        """Users of this value, de-duplicated, in first-use order."""
        seen = []
        for use in self.uses:
            if use.user not in seen:
                seen.append(use.user)
        return seen

    def replace_all_uses_with(self, replacement: "Value") -> None:
        """Rewire every use of ``self`` to ``replacement`` (RAUW)."""
        if replacement is self:
            return
        # Iterate over a copy: set_operand mutates self.uses.
        for use in list(self.uses):
            use.user.set_operand(use.index, replacement)

    # -- display -----------------------------------------------------------

    def ref(self) -> str:
        """Textual reference used when this value appears as an operand."""
        return f"%{self.name}" if self.name else "%<unnamed>"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self.__class__.__name__} {self.ref()}: {self.type}>"


class User(Value):
    """A value that consumes other values as operands."""

    def __init__(self, type_: Type, operands: Sequence[Value], name: str = "") -> None:
        super().__init__(type_, name)
        #: one :class:`Use` record per operand slot, in operand order
        self._operands: List[Use] = []
        self._append_operands(operands)

    def _append_operands(self, values: Iterable[Value]) -> None:
        """Add operand slots reading ``values``, in one pass: each slot's
        record goes on this user's operand list and on its value's use
        list (construction, phi edges, and :meth:`Module.clone`)."""
        records = self._operands
        index = len(records)
        for value in values:
            use = Use(self, index, value)
            records.append(use)
            value.uses.append(use)
            index += 1

    # -- operand access ------------------------------------------------------

    @property
    def operands(self) -> Sequence[Value]:
        """Read-only view of the operand list."""
        return tuple([use.value for use in self._operands])

    @property
    def num_operands(self) -> int:
        return len(self._operands)

    def operand(self, index: int) -> Value:
        return self._operands[index].value

    def set_operand(self, index: int, value: Value) -> None:
        """Replace operand ``index``, keeping use lists consistent."""
        use = self._operands[index]
        old = use.value
        if old is value:
            return
        old.remove_use(use)
        use.value = value
        value.add_use(use)
        MUTATION_EPOCH.value += 1

    def swap_operands(self, i: int, j: int) -> None:
        """Exchange two operands of this user (commutation helper)."""
        if i == j:
            return
        a, b = self.operand(i), self.operand(j)
        self.set_operand(i, b)
        # ``set_operand(i, b)`` may have been a no-op if a is b; handle both.
        self.set_operand(j, a)

    def drop_all_references(self) -> None:
        """Detach this user from every operand (used when erasing, and
        when the owning function is freed).  A record its operand's use
        list has lost (corrupted IR) is skipped, so freeing corrupted IR
        never raises."""
        for use in self._operands:
            try:
                use.value.uses.remove(use)
            except ValueError:
                pass
        self._operands.clear()


class Constant(Value):
    """An immediate scalar or vector constant.

    ``value`` is a Python ``int`` for integers, ``float`` for floats, and a
    tuple of those for vector constants.  Integer constants are stored
    wrapped to their type's range.
    """

    def __init__(self, type_: Type, value) -> None:
        super().__init__(type_)
        self.value = self._normalize(type_, value)

    @staticmethod
    def _normalize(type_: Type, value):
        if isinstance(type_, IntType):
            if not isinstance(value, int):
                raise TypeError(f"integer constant requires int, got {value!r}")
            return type_.wrap(value)
        if isinstance(type_, FloatType):
            value = float(value)
            if type_.bits == 32:
                # Round-trip through binary32 so f32 constants behave like f32.
                value = struct.unpack("f", struct.pack("f", value))[0]
            return value
        if isinstance(type_, VectorType):
            elems = tuple(value)
            if len(elems) != type_.count:
                raise ValueError(
                    f"vector constant arity {len(elems)} != type arity {type_.count}"
                )
            return tuple(Constant._normalize(type_.element, v) for v in elems)
        raise TypeError(f"cannot build constant of type {type_}")

    def is_zero(self) -> bool:
        if isinstance(self.value, tuple):
            return all(v == 0 for v in self.value)
        return self.value == 0

    def ref(self) -> str:
        return format_constant(self.type, self.value)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Constant)
            and self.type is other.type
            and constant_key(self.value) == constant_key(other.value)
        )

    def __hash__(self) -> int:
        return hash((self.type, constant_key(self.value)))


def constant_key(value):
    """A hashable, NaN-safe key for a constant payload."""
    if isinstance(value, tuple):
        return tuple(constant_key(v) for v in value)
    if isinstance(value, float):
        if math.isnan(value):
            return ("nan",)
        return ("f", value)
    return ("i", value)


def format_constant(type_: Type, value) -> str:
    """Render a constant payload the way the printer/parser expect it."""
    if isinstance(type_, VectorType):
        inner = ", ".join(
            format_constant(type_.element, v) for v in value
        )
        return f"<{inner}>"
    if isinstance(type_, FloatType):
        return repr(float(value))
    return str(value)


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, type_: Type, name: str, index: int) -> None:
        super().__init__(type_, name)
        self.index = index


class GlobalBuffer(Value):
    """A module-level array buffer (models the C arrays of the kernels).

    The value itself is a pointer to the element type; ``count`` elements of
    storage are reserved by the interpreter at module load.  An optional
    ``initializer`` supplies initial contents.
    """

    def __init__(
        self,
        name: str,
        element: Type,
        count: int,
        initializer: Optional[Sequence] = None,
    ) -> None:
        super().__init__(pointer_to(element), name)
        self.element = element
        self.count = count
        self.initializer = list(initializer) if initializer is not None else None
        if self.initializer is not None and len(self.initializer) != count:
            raise ValueError(
                f"initializer length {len(self.initializer)} != count {count}"
            )

    def ref(self) -> str:
        return f"@{self.name}"
