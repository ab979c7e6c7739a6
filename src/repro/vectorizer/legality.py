"""Bundle legality and scheduling checks.

The vectorizer emits all vector code at one *anchor* position — immediately
before the last member of the seed store bundle.  That implicitly moves
every vectorized load down to the anchor and every vectorized store down to
the anchor, so the checks here verify those motions cannot change any
memory dependence:

* a load may move down past an intervening store only if they cannot alias;
* a seed store may move down past an intervening load/store only if they
  cannot alias;
* loads that originally executed *after* an in-bundle store must not alias
  it (the vector load issues before the vector store).

Positions and addresses come from the caller's
:class:`~repro.ir.analysis.FunctionAnalysis` (the vectorizer passes its
run's), or from a fresh one per call.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from ..ir.analysis import AddressInfo, FunctionAnalysis, address_of, may_alias
from ..ir.instructions import Instruction, LoadInst, StoreInst
from ..ir.values import Value


def _alias(a: Optional[AddressInfo], b: Optional[AddressInfo]) -> bool:
    """Conservative alias query: unanalyzable addresses alias everything."""
    if a is None or b is None:
        return True
    return may_alias(a, b)


def bundle_is_schedulable_stores(
    stores: Sequence[StoreInst],
    anchor: Instruction,
    analysis: Optional[FunctionAnalysis] = None,
) -> bool:
    """Can the seed store bundle legally execute at the anchor position?

    Every store is delayed to the anchor, so any intervening memory access
    that may alias it would observe the wrong order.
    """
    block = anchor.parent
    if block is None:
        return False
    analysis = analysis if analysis is not None else FunctionAnalysis()
    positions = analysis.positions(block)
    address = analysis.address_of
    anchor_pos = positions[id(anchor)]
    bundle_ids = {id(s) for s in stores}
    for store in stores:
        if store.parent is not block:
            return False
        info = address(store)
        pos = positions[id(store)]
        if pos > anchor_pos:
            return False
        for other in block.instructions[pos + 1 : anchor_pos + 1]:
            if not other.is_memory or id(other) in bundle_ids:
                continue
            if _alias(info, address(other)):
                return False
    return True


def bundle_is_schedulable_loads(
    loads: Sequence[LoadInst],
    anchor: Instruction,
    seed_stores: Sequence[StoreInst],
    analysis: Optional[FunctionAnalysis] = None,
) -> bool:
    """Can a load bundle legally execute at the anchor position?

    Two hazards: (1) a store between the load's original position and the
    anchor (read would move past a write); (2) an in-bundle seed store
    positioned *before* the load (the original read saw that write; the
    vector load issues before the vector store and would read stale data).
    """
    block = anchor.parent
    if block is None:
        return False
    analysis = analysis if analysis is not None else FunctionAnalysis()
    positions = analysis.positions(block)
    address = analysis.address_of
    anchor_pos = positions[id(anchor)]
    seed_ids = {id(s) for s in seed_stores}
    seed_positions = [(positions[id(s)], s) for s in seed_stores]
    for load in loads:
        if load.parent is not block:
            return False
        info = address(load)
        pos = positions[id(load)]
        if pos > anchor_pos:
            return False
        # Hazard (1): stores the load would move past.
        for other in block.instructions[pos + 1 : anchor_pos + 1]:
            if not isinstance(other, StoreInst) or id(other) in seed_ids:
                continue
            if _alias(info, address(other)):
                return False
        # Hazard (2): in-bundle stores the load originally read from,
        # plus non-seed aliasing stores located before the load but whose
        # delayed bundle-write the load depends on are covered by the seed
        # store check (the store side refuses to move past aliasing reads).
        for store_pos, store in seed_positions:
            if store_pos < pos and _alias(info, address(store)):
                return False
    return True


def _addresses(
    loads: Sequence[LoadInst], analysis: Optional[FunctionAnalysis]
) -> List[Optional[AddressInfo]]:
    address = analysis.address_of if analysis is not None else address_of
    return [address(load) for load in loads]


def lanes_form_valid_bundle(lanes: Sequence[Value]) -> Optional[str]:
    """Generic structural checks; returns a failure reason or None.

    All lanes must be distinct instructions of identical scalar type living
    in the same block.
    """
    first = lanes[0]
    if not all(isinstance(v, Instruction) for v in lanes):
        return "non-instruction lane"
    seen: Set[int] = set()
    for value in lanes:
        if id(value) in seen:
            return "repeated value across lanes"
        seen.add(id(value))
    if any(v.type is not first.type for v in lanes):
        return "mismatched lane types"
    if not first.type.is_scalar:
        return "non-scalar lanes"
    blocks = {id(v.parent) for v in lanes}  # type: ignore[union-attr]
    if len(blocks) != 1 or None in {v.parent for v in lanes}:  # type: ignore[union-attr]
        return "lanes span blocks"
    return None


def loads_are_consecutive(
    loads: Sequence[LoadInst], analysis: Optional[FunctionAnalysis] = None
) -> bool:
    """True when the loads access strictly consecutive addresses in lane
    order (the only layout vectorizable without a shuffle)."""
    infos = _addresses(loads, analysis)
    if any(info is None for info in infos):
        return False
    return all(a.is_consecutive_with(b) for a, b in zip(infos, infos[1:]))


def loads_are_reversed(
    loads: Sequence[LoadInst], analysis: Optional[FunctionAnalysis] = None
) -> bool:
    """True when the loads address consecutive memory in *descending* lane
    order — vectorizable as one wide load plus a reversing shuffle."""
    infos = _addresses(loads, analysis)
    if any(info is None for info in infos):
        return False
    return all(b.is_consecutive_with(a) for a, b in zip(infos, infos[1:]))
