"""ISA capability descriptions for target machines.

A :class:`VectorISA` captures the handful of target facts the SLP cost
model and code generator care about: how wide the vector registers are,
which element types can be vectorized, and whether the target has native
alternating add/sub instructions (the x86 ``addsubps``/``addsubpd``
family) that let ``[+,-]`` lane patterns execute without blend overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List

from ..ir.types import FloatType, IntType, Type


@dataclass(frozen=True)
class VectorISA:
    """Capabilities of a SIMD instruction set."""

    name: str
    #: widest vector register, in bits (0 = scalar-only target)
    vector_bits: int
    #: element bit-widths vectorizable for integer ops
    int_element_bits: FrozenSet[int] = frozenset({8, 16, 32, 64})
    #: element bit-widths vectorizable for float ops
    float_element_bits: FrozenSet[int] = frozenset({32, 64})
    #: native alternating add/sub (x86 SSE3 ``addsub*``)
    has_addsub: bool = True
    #: native fused multiply-add (affects nothing in the cost model yet,
    #: recorded for completeness)
    has_fma: bool = False

    def supports_element(self, element: Type) -> bool:
        if isinstance(element, IntType):
            return element.bits in self.int_element_bits
        if isinstance(element, FloatType):
            return element.bits in self.float_element_bits
        return False

    def max_lanes(self, element: Type) -> int:
        """Widest legal vector arity for an element type (0 if none)."""
        if self.vector_bits == 0 or not self.supports_element(element):
            return 0
        return self.vector_bits // element.bit_width

    def legal_lane_counts(self, element: Type) -> List[int]:
        """All power-of-two arities from widest down to 2."""
        counts: List[int] = []
        lanes = self.max_lanes(element)
        while lanes >= 2:
            counts.append(lanes)
            lanes //= 2
        return counts
