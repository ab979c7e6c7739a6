"""Seed collection (Figure 1, step 1).

Adjacent stores are the primary seeds, as in LLVM and GCC: stores to
consecutive addresses off the same base+symbolic-index are grouped, sorted
by constant offset, split into consecutive runs and chunked to legal vector
arities (widest first).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.analysis import AddressInfo, FunctionAnalysis, address_of
from ..ir.block import BasicBlock
from ..ir.instructions import StoreInst
from ..ir.types import Type
from ..machine.isa import VectorISA
from ..observe import STAT

_STAT_SEED_BUNDLES = STAT(
    "slp.seed-bundles", "Store seed bundles collected across all blocks"
)
_STAT_SEED_STORES = STAT(
    "slp.seed-stores", "Scalar stores captured into seed bundles"
)


def _group_key(info: AddressInfo, element: Type) -> Tuple[int, int, Type]:
    return (id(info.base), id(info.symbol), element)


def collect_store_seeds(
    block: BasicBlock, isa: VectorISA, analysis: Optional[FunctionAnalysis] = None
) -> List[List[StoreInst]]:
    """Seed bundles of consecutive scalar stores in one block.

    Returns groups in program order of their first member.  Each group's
    stores are ordered by ascending address offset and the group length is
    a legal lane count for the target.  Addresses come from ``analysis``
    when given (the vectorizer's run), so the first graph's scheduling
    check reuses them.
    """
    address = analysis.address_of if analysis is not None else address_of
    groups: Dict[Tuple, List[Tuple[StoreInst, AddressInfo]]] = {}
    order: List[Tuple] = []
    for inst in block:
        if not isinstance(inst, StoreInst):
            continue
        element = inst.value.type
        if not element.is_scalar:
            continue  # already-vector stores are not seeds
        if not isa.supports_element(element):
            continue
        info = address(inst)
        if info is None:
            continue
        key = _group_key(info, element)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append((inst, info))

    seeds: List[List[StoreInst]] = []
    for key in order:
        members = groups[key]
        members.sort(key=lambda pair: pair[1].offset)
        element = members[0][0].value.type
        seeds.extend(_chunk_run(members, isa.legal_lane_counts(element)))
    _STAT_SEED_BUNDLES.add(len(seeds))
    _STAT_SEED_STORES.add(sum(len(seed) for seed in seeds))
    return seeds


def _chunk_run(
    members: List[Tuple[StoreInst, AddressInfo]],
    legal_counts: List[int],
) -> List[List[StoreInst]]:
    """Split offset-sorted stores into consecutive runs, then chunk each
    run into the widest legal arity that fits (greedy, left to right)."""
    if not legal_counts:
        return []
    runs: List[List[StoreInst]] = []
    current: List[Tuple[StoreInst, AddressInfo]] = []
    for store, info in members:
        if current and not current[-1][1].is_consecutive_with(info):
            runs.append([s for s, _ in current])
            current = []
        if current and current[-1][1].offset == info.offset:
            # Duplicate address: break the run (stores would race).
            runs.append([s for s, _ in current])
            current = []
        current.append((store, info))
    if current:
        runs.append([s for s, _ in current])

    seeds: List[List[StoreInst]] = []
    for run in runs:
        start = 0
        while len(run) - start >= 2:
            width = next(
                (w for w in legal_counts if w <= len(run) - start), None
            )
            if width is None:
                break
            seeds.append(run[start : start + width])
            start += width
    return seeds
