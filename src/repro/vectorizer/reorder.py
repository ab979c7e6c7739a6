"""Multi-lane Super-Node reordering: Listings 1-3 of the paper.

:class:`SuperNode` spans one :class:`~repro.vectorizer.supernode.LaneChain`
per vector lane.  ``reorder_leaves_and_trunks`` is Listing 2: it walks the
fat node's operand indexes root-most first and, for each index, greedily
finds the best group of leaves across lanes; ``_build_group`` is Listing 3:
given the chosen Lane-0 leaf it extends the group lane by lane, maximizing
the LSLP look-ahead score subject to the Super-Node legality rules
(leaf-move legality, optionally enabled trunk movement).

``generate_code`` then rewrites each lane's IR to match the reordered
model, which is the "massage the code on-the-fly" step that lets the plain
bottom-up SLP bundling that follows see fully isomorphic code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..ir.builder import IRBuilder
from ..ir.instructions import BinaryInst, Instruction, Opcode
from ..ir.values import Value
from ..observe import DECISION, STAT, current_tracer
from ..robust.faults import current_faults
from .lookahead import LookAheadScorer
from .supernode import LaneChain, Leaf, Slot, build_lane_chain

_STAT_NODES_FORMED = STAT(
    "supernode.nodes-formed", "Multi-/Super-Nodes formed across all lanes"
)
_STAT_LEAF_MOVES = STAT(
    "supernode.leaf-moves-applied", "leaf swaps applied by the reorder search"
)
_STAT_TRUNK_MOVES = STAT(
    "supernode.trunk-moves-applied", "trunk swaps applied by the reorder search"
)
_STAT_MOVES_PROBED = STAT(
    "supernode.moves-probed", "candidate leaf placements probed for legality"
)
_STAT_MOVES_REJECTED = STAT(
    "supernode.moves-rejected-apo",
    "candidate leaf placements rejected by APO legality",
)
_STAT_GROUPS_APPLIED = STAT(
    "supernode.groups-applied", "operand indexes for which a lane group was applied"
)
_STAT_GROUPS_FAILED = STAT(
    "supernode.groups-failed", "operand indexes left as-is (no legal group)"
)


@dataclass
class SuperNodeRecord:
    """Statistics record for one formed Multi-/Super-Node.

    ``size`` is the per-lane trunk count — the paper's "node size (depth)"
    reported in Figures 6/7/9/10.
    """

    kind: str  # "multi" or "super"
    lanes: int
    size: int
    family: Opcode
    contains_inverse: bool
    vectorized: bool = False  # set once the owning graph is emitted
    #: moves the reorder actually applied across all lanes (observability)
    leaf_swaps: int = 0
    trunk_swaps: int = 0


class SuperNode:
    """A Multi-/Super-Node across all vector lanes of one bundle."""

    def __init__(
        self,
        chains: List[LaneChain],
        roots: List[BinaryInst],
        allow_trunk_swaps: bool,
        kind: str,
    ) -> None:
        self.chains = chains
        self.roots = roots
        self.allow_trunk_swaps = allow_trunk_swaps
        self.kind = kind
        self.contains_inverse = any(
            unit.is_inverse for chain in chains for _, unit in chain.trunks()
        )
        #: every unit's original opcode and children, per lane, for
        #: undoing in place (Listing 1 line 53: the whole massage is
        #: reverted when the graph turns out unprofitable)
        self.originals = [chain.record() for chain in chains]
        self.original_roots: List[BinaryInst] = list(roots)
        self.emitted_instructions: List[BinaryInst] = []

    # -- construction (buildSuperNode, Listing 1 lines 41-53) -----------------------

    @classmethod
    def build(
        cls,
        roots: Sequence[Instruction],
        allow_inverse: bool,
        allow_trunk_swaps: bool,
        fast_math: bool,
        max_trunks: int = 16,
    ) -> Optional["SuperNode"]:
        """Try to form a node over ``roots`` (one per lane).

        Legality (the ``areCompatible`` checks): every lane must grow a
        chain of >= 2 trunks in the same operator family, the lanes must
        expose the same number of operand slots, and no instruction may be
        claimed by two lanes.  The lanes share one layout table, so lanes
        of one shape and inverse pattern share their trunk-swap plans.
        """
        if len(roots) < 2:
            return None
        chains: List[LaneChain] = []
        layouts: Dict = {}
        for root in roots:
            if not isinstance(root, BinaryInst):
                return None
            chain = build_lane_chain(
                root, allow_inverse=allow_inverse, fast_math=fast_math,
                max_trunks=max_trunks, layouts=layouts,
            )
            if chain is None:
                return None
            chains.append(chain)
        family = chains[0].family
        if any(chain.family is not family for chain in chains):
            return None
        slot_count = len(chains[0].slots())
        if any(len(chain.slots()) != slot_count for chain in chains):
            return None
        claimed: Set[int] = set()
        for chain in chains:
            for _, unit in chain.trunks():
                if unit.inst is None or id(unit.inst) in claimed:
                    return None
                claimed.add(id(unit.inst))
        kind = "super" if allow_inverse else "multi"
        _STAT_NODES_FORMED.add()
        return cls(chains, list(roots), allow_trunk_swaps, kind)

    # -- properties ---------------------------------------------------------------------

    @property
    def num_lanes(self) -> int:
        return len(self.chains)

    @property
    def num_slots(self) -> int:
        return len(self.chains[0].slots())

    def size(self) -> int:
        """Per-lane trunk count (all lanes are equal-sized by construction)."""
        return self.chains[0].size()

    def record(self) -> SuperNodeRecord:
        return SuperNodeRecord(
            kind=self.kind,
            lanes=self.num_lanes,
            size=self.size(),
            family=self.chains[0].family,
            contains_inverse=self.contains_inverse,
            leaf_swaps=sum(chain.leaf_swaps_applied for chain in self.chains),
            trunk_swaps=sum(chain.trunk_swaps_applied for chain in self.chains),
        )

    # -- Listing 2: reorderLeavesAndTrunks ----------------------------------------------------

    def reorder_leaves_and_trunks(
        self,
        scorer: LookAheadScorer,
        visit_root_first: bool = True,
    ) -> int:
        """Greedily reorder leaves (and trunks, when enabled) for maximal
        isomorphism.  Returns the number of operand indexes for which a
        group was applied.  ``visit_root_first=False`` reverses the operand
        visit order (used by the ablation benchmark).

        The search moves only model leaves and trunks; the IR stays as it
        is until :meth:`generate_code`, so one look-ahead memo serves the
        whole search and is dropped when it returns."""
        current_faults().fire("reorder.reorder")
        tracer = current_tracer()
        scorer = scorer.memo()
        applied = 0
        # Applied-move statistics are measured as deltas over the chains'
        # own counters: only applied placements change them (failed ones
        # and legality probes never touch a chain), so the deltas count
        # exactly the moves made — the same numbers :meth:`record` later
        # reports per node.
        leaf_moves_before = sum(c.leaf_swaps_applied for c in self.chains)
        trunk_moves_before = sum(c.trunk_swaps_applied for c in self.chains)
        locked: List[Dict[Slot, Value]] = [dict() for _ in self.chains]
        used: List[Set[int]] = [set() for _ in self.chains]
        # Slot lists are positional and stable: trunk swaps move unit
        # contents, never tree shape, so indexes remain meaningful while
        # we mutate the chains.
        order = list(range(self.num_slots))
        if not visit_root_first:
            order.reverse()
        for op_index in order:
            # Each lane's candidates and their placement legality are
            # invariant while this operand index is being decided, so
            # each lane answers them in one pass here instead of inside
            # every group-building combination.
            placeable: List[List[Value]] = []
            probed = 0
            for lane, chain in enumerate(self.chains):
                candidates = self._candidates(lane, used)
                placeable.append(
                    chain.placeable(
                        candidates, chain.slots()[op_index], locked[lane],
                        trunk_swaps=self.allow_trunk_swaps,
                    )
                )
                probed += len(candidates)
            rejected = probed - sum(len(fits) for fits in placeable)
            if probed:
                _STAT_MOVES_PROBED.add(probed)
            if rejected:
                _STAT_MOVES_REJECTED.add(rejected)
            scored: Optional[List[Tuple[List[Value], int]]] = (
                [] if tracer.mask & DECISION else None
            )
            group = self._find_best_group(scorer, placeable, scored)
            if tracer.mask & DECISION and scored:
                # The look-ahead score matrix for this operand index: one
                # row per Lane-0 candidate, ranked best-first.
                ranked = sorted(
                    enumerate(scored), key=lambda pair: (-pair[1][1], pair[0])
                )
                best_refs = [v.ref() for v in ranked[0][1][0]]
                best_score = ranked[0][1][1]
                runner_up = ranked[1][1][1] if len(ranked) > 1 else None
                versus = f" vs {runner_up}" if runner_up is not None else ""
                tracer.decision(
                    "lookahead",
                    f"look-ahead picked {{{', '.join(best_refs)}}} at operand "
                    f"{op_index} (score {best_score}{versus})",
                    op_index=op_index,
                    best_score=best_score,
                    runner_up_score=runner_up,
                    matrix=[
                        {"group": [v.ref() for v in grp], "score": score}
                        for _, (grp, score) in ranked
                    ],
                )
            if group is None:
                _STAT_GROUPS_FAILED.add()
                if tracer.mask & DECISION:
                    tracer.decision(
                        "group",
                        f"no legal group at operand {op_index}; lanes left "
                        f"as-is",
                        op_index=op_index,
                        applied=False,
                    )
                # No legal group: leave the lanes as they are for this
                # operand index, but lock whatever currently sits there so
                # later indexes cannot disturb it.
                for lane, chain in enumerate(self.chains):
                    slot = chain.slots()[op_index]
                    value = chain.leaf_at(slot).value
                    locked[lane][slot] = value
                    used[lane].add(id(value))
                continue
            moves_before = (
                [
                    (c.leaf_swaps_applied, c.trunk_swaps_applied)
                    for c in self.chains
                ]
                if tracer.mask & DECISION
                else None
            )
            for lane, leaf in enumerate(group):
                chain = self.chains[lane]
                slot = chain.slots()[op_index]
                moved = chain.place_leaf(leaf, slot, locked[lane])
                if not moved:  # pragma: no cover - guarded by placeable
                    raise AssertionError("group member failed to place")
                locked[lane][slot] = leaf
                used[lane].add(id(leaf))
            applied += 1
            _STAT_GROUPS_APPLIED.add()
            if tracer.mask & DECISION and moves_before is not None:
                legalized: List[str] = []
                lane_moves: List[Dict[str, int]] = []
                for lane, chain in enumerate(self.chains):
                    leaf_delta = chain.leaf_swaps_applied - moves_before[lane][0]
                    trunk_delta = (
                        chain.trunk_swaps_applied - moves_before[lane][1]
                    )
                    lane_moves.append(
                        {"lane": lane, "leaf_swaps": leaf_delta,
                         "trunk_swaps": trunk_delta}
                    )
                    if trunk_delta:
                        legalized.append(f"trunk swap legalized lane {lane}")
                    elif leaf_delta:
                        legalized.append(f"leaf swap legalized lane {lane}")
                detail = f"; {', '.join(legalized)}" if legalized else ""
                tracer.decision(
                    "group",
                    f"locked group {{{', '.join(v.ref() for v in group)}}} at "
                    f"operand {op_index}{detail}",
                    op_index=op_index,
                    applied=True,
                    group=[v.ref() for v in group],
                    lane_moves=lane_moves,
                )
        _STAT_LEAF_MOVES.add(
            sum(c.leaf_swaps_applied for c in self.chains) - leaf_moves_before
        )
        _STAT_TRUNK_MOVES.add(
            sum(c.trunk_swaps_applied for c in self.chains) - trunk_moves_before
        )
        return applied

    def _find_best_group(
        self,
        scorer: LookAheadScorer,
        placeable: List[List[Value]],
        scored: Optional[List[Tuple[List[Value], int]]] = None,
    ) -> Optional[List[Value]]:
        """Try every legal Lane-0 candidate; keep the best-scoring group.

        ``placeable`` lists, per lane, the candidates that can legally move
        to the operand index being decided.  ``scored`` (decision records)
        collects every candidate group with its look-ahead score — the
        score matrix behind the decision.
        """
        best_group: Optional[List[Value]] = None
        best_score = -1
        for candidate in placeable[0]:
            group = self._build_group(candidate, scorer, placeable)
            if group is None:
                continue
            score = scorer.score_group(group)
            if scored is not None:
                scored.append((group, score))
            if score > best_score:
                best_score = score
                best_group = group
        return best_group

    # -- Listing 3: buildGroup -------------------------------------------------------------------

    def _build_group(
        self,
        left_op: Value,
        scorer: LookAheadScorer,
        placeable: List[List[Value]],
    ) -> Optional[List[Value]]:
        """Extend ``left_op`` (Lane 0) into a full cross-lane group."""
        group = [left_op]
        left = left_op
        for lane in range(1, self.num_lanes):
            best_right: Optional[Value] = None
            best_score = -1
            for right in placeable[lane]:
                score = scorer.score_pair(left, right)
                if score > best_score:
                    best_score = score
                    best_right = right
            if best_right is None:
                return None
            group.append(best_right)
            left = best_right
        return group

    def _candidates(self, lane: int, used: List[Set[int]]) -> List[Value]:
        seen: Set[int] = set()
        result: List[Value] = []
        for value in self.chains[lane].leaf_values():
            if id(value) in used[lane] or id(value) in seen:
                continue
            seen.add(id(value))
            result.append(value)
        return result

    # -- code generation (SN.generateCode, Listing 1 line 51) ------------------------------------------

    def generate_code(self) -> List[BinaryInst]:
        """Rewrite each lane's IR to match the (reordered) model.

        Fresh instructions are built immediately before each old root and
        the old root's uses are rewired; the superseded scalar chain goes
        dead and is swept by DCE later.  Returns the new per-lane roots.
        """
        current_faults().fire("reorder.generate-code")
        new_roots: List[BinaryInst] = []
        self.emitted_instructions = []
        for chain, old_root in zip(self.chains, self.roots):
            builder = IRBuilder()
            builder.position_before(old_root)
            new_root = _emit_tree(chain.root, builder, self.emitted_instructions)
            old_root.replace_all_uses_with(new_root)
            new_roots.append(new_root)  # type: ignore[arg-type]
            self._erase_superseded(chain)
        self.roots = new_roots
        return new_roots

    def undo_code(
        self, leaf_remap: Optional[Dict[int, Value]] = None
    ) -> List[BinaryInst]:
        """Revert :meth:`generate_code`: re-emit the *original* (pre-
        reorder) expression trees and erase the massaged chain.

        Called by the driver when the SLP graph built over the massaged
        code turns out not to be profitable (Listing 1, line 53's
        save-for-undoing).  The restored scalar code is structurally
        identical to the original, so later seed bundles see the program
        exactly as the vectorizer found it.

        ``leaf_remap`` maps ids of values that no longer exist (roots of
        *nested* Super-Nodes that were undone first, whose originals were
        erased during their own generate_code) to their restored
        replacements.

        The chains themselves are restored in place from the recorded
        opcodes and children, so afterwards they model the original code.
        """
        restored: List[BinaryInst] = []
        for chain, original, massaged_root in zip(
            self.chains, self.originals, self.roots
        ):
            chain.restore(original)
            if leaf_remap:
                for slot in chain.slots():
                    leaf = chain.leaf_at(slot)
                    replacement = leaf_remap.get(id(leaf.value))
                    if replacement is not None:
                        leaf.value = replacement
            builder = IRBuilder()
            builder.position_before(massaged_root)
            original_root = _emit_tree(chain.root, builder, [])
            massaged_root.replace_all_uses_with(original_root)
            restored.append(original_root)  # type: ignore[arg-type]
            self._erase_superseded_roots([massaged_root])
        self.roots = restored
        return restored

    @staticmethod
    def _erase_superseded_roots(roots: List[BinaryInst]) -> None:
        """Erase a now-dead chain rooted at each of ``roots``."""
        worklist = [root for root in roots]
        while worklist:
            inst = worklist.pop()
            if (
                isinstance(inst, BinaryInst)
                and inst.parent is not None
                and inst.num_uses == 0
            ):
                operands = list(inst.operands)
                inst.erase_from_parent()
                worklist.extend(
                    op for op in operands if isinstance(op, BinaryInst)
                )

    @staticmethod
    def _erase_superseded(chain: LaneChain) -> None:
        """Erase the old scalar chain once nothing uses it.

        Leaving it to the end-of-function DCE would be correct for the
        final IR but would distort the cost model in the meantime: the
        dead chain still *uses* the leaf values, so the graph builder
        would see phantom external users and charge extract penalties.
        """
        units = [unit for _, unit in chain.trunks()]
        # Children before parents is wrong here: parents hold the uses, so
        # erase root-first (pre-order is already root-first).
        for unit in units:
            inst = unit.inst
            if inst is not None and inst.parent is not None and inst.num_uses == 0:
                inst.erase_from_parent()


def _emit_tree(node, builder: IRBuilder, emitted: List[Instruction]) -> Value:
    """Emit the scalar code of a trunk subtree (children first) at the
    builder, appending each new instruction to ``emitted`` (module-level,
    not a self-calling closure: DESIGN.md, IR ownership)."""
    if isinstance(node, Leaf):
        return node.value
    lhs = _emit_tree(node.children[0], builder, emitted)
    rhs = _emit_tree(node.children[1], builder, emitted)
    inst = builder.binop(node.opcode, lhs, rhs)
    emitted.append(inst)
    return inst
