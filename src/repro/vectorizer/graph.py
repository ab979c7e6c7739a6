"""The SLP graph: bundles of isomorphic scalars and their relationships.

Mirrors LLVM's ``BoUpSLP`` tree: each :class:`SLPNode` is a group of
scalar values, one per vector lane.  Vectorizable kinds carry operand
nodes; ``GATHER`` nodes terminate exploration and pay the cost of building
the vector out of scalars (the red oval nodes of the paper's figures).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.block import BasicBlock
from ..ir.instructions import Instruction, Opcode
from ..ir.types import VectorType
from ..ir.values import Value
from .reorder import SuperNodeRecord


class NodeKind(enum.Enum):
    VECTOR = "vector"  # same-opcode group (binary, cmp, select, cast)
    ALT = "alt"  # same-family mixed opcodes (add/sub alternation)
    LOAD = "load"  # consecutive loads
    STORE = "store"  # consecutive stores (always the graph root)
    CALL = "call"  # same-intrinsic calls
    GATHER = "gather"  # non-vectorizable group


@dataclass
class SLPNode:
    """One group of per-lane scalar values in the SLP graph."""

    kind: NodeKind
    lanes: Tuple[Value, ...]
    vec_type: VectorType
    operands: List["SLPNode"] = field(default_factory=list)
    #: per-lane opcodes for ALT nodes
    lane_opcodes: Optional[Tuple[Opcode, ...]] = None
    #: LOAD nodes whose lanes address memory in descending order: loaded
    #: as one wide load plus a reversing shuffle
    load_reversed: bool = False
    #: why a GATHER node could not vectorize (diagnostics)
    reason: str = ""
    #: cost contribution (negative = saving), filled by the cost phase
    cost: float = 0.0
    #: vector value produced by codegen
    vector_value: Optional[Value] = None
    #: lanes were re-emitted by a Multi-/Super-Node's generateCode (the
    #: DOT renderer draws these bundles inside the grouping box)
    from_supernode: bool = False

    @property
    def num_lanes(self) -> int:
        return len(self.lanes)

    @property
    def is_vectorizable(self) -> bool:
        return self.kind is not NodeKind.GATHER

    def instructions(self) -> List[Instruction]:
        return [v for v in self.lanes if isinstance(v, Instruction)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        refs = ", ".join(v.ref() for v in self.lanes)
        return f"<SLPNode {self.kind.value} [{refs}] cost={self.cost:+.1f}>"


@dataclass
class SLPGraph:
    """A full SLP graph grown from one seed bundle."""

    root: SLPNode
    nodes: List[SLPNode]
    block: BasicBlock
    #: scheduling anchor: vector code is emitted immediately before this
    #: instruction (the last member of the seed store bundle)
    anchor: Instruction
    #: Multi-/Super-Nodes formed while growing this graph
    supernodes: List[SuperNodeRecord] = field(default_factory=list)
    #: total cost (negative = profitable), filled by the cost phase
    total_cost: float = 0.0
    #: cost breakdown (total = vector - scalar + extract), filled by the
    #: cost phase for the decision journal and ``repro explain``
    scalar_cost: float = 0.0
    vector_cost: float = 0.0
    extract_cost: float = 0.0

    def vectorizable_nodes(self) -> List[SLPNode]:
        return [n for n in self.nodes if n.is_vectorizable]

    def gather_nodes(self) -> List[SLPNode]:
        return [n for n in self.nodes if not n.is_vectorizable]

    def internal_instructions(self) -> Dict[int, Instruction]:
        """The scalar instructions in vectorizable bundles (the values
        that will be replaced by vector code), by id."""
        return {
            id(inst): inst
            for node in self.vectorizable_nodes()
            for inst in node.instructions()
        }

    def dump(self) -> str:
        """Multi-line description of the graph (diagnostics and docs)."""
        lines = [
            f"SLP graph in block {self.block.name} "
            f"(cost {self.total_cost:+.1f})"
        ]
        _dump_node(self.root, 1, set(), lines)
        return "\n".join(lines)


def _dump_node(node: SLPNode, depth: int, seen: set, lines: List[str]) -> None:
    """Append ``node``'s line and, the first time it is reached, its
    operands' to ``lines`` (module-level, not a self-calling closure:
    DESIGN.md, IR ownership)."""
    indent = "  " * depth
    refs = ", ".join(v.ref() for v in node.lanes)
    tag = node.kind.value
    if node.lane_opcodes:
        tag += "[" + "".join(
            "+" if op in (Opcode.ADD, Opcode.FADD, Opcode.MUL, Opcode.FMUL)
            else "-"
            for op in node.lane_opcodes
        ) + "]"
    note = f"  ({node.reason})" if node.reason else ""
    lines.append(
        f"{indent}{tag:>10} cost={node.cost:+5.1f} [{refs}]{note}"
    )
    if id(node) in seen:
        return
    seen.add(id(node))
    for operand in node.operands:
        _dump_node(operand, depth + 1, seen, lines)
