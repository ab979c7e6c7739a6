"""The Super-Node: the paper's core data structure (Sections III-IV).

A *Super-Node* groups, per vector lane, a maximal chain of binary
instructions drawn from one commutative operator family **and its inverse**
(add/sub, fadd/fsub, fmul/fdiv).  LSLP's *Multi-Node* is the degenerate
case with the inverse disallowed — both are produced by
:func:`build_lane_chain` via the ``allow_inverse`` switch.

Per-lane model
--------------
Each lane is a :class:`LaneChain`: a binary tree of :class:`TrunkUnit`
positions.  A *position* is a structural slot in the tree; a *unit* is the
content occupying a position — the trunk opcode together with its attached
leaf operands.  The separation matters because the paper's *trunk
reordering* (Section IV-C3) moves units between positions while the tree
shape stays fixed.

APO (Accumulated Path Operation, Section IV-C1)
-----------------------------------------------
Every node is annotated with the parity of right-hand-side inverse-operator
edges on its path from the root: ``False`` = identity (``+`` / ``*``),
``True`` = inverse (``-`` / ``/``).  Legality rules:

* a **leaf swap** between two slots is legal iff the slots' APOs are equal
  (Section IV-C2);
* a **trunk swap** is legal iff afterwards *every* node's APO is unchanged
  (Section IV-C3) — leaves ride along with their trunk unit, which is
  exactly how a leaf can legally migrate to a slot whose static APO differs
  from the leaf's.

Two things follow from these rules and make every legality query a
lookup.  Legal moves exchange unit contents, never chain edges, so the
tree *shape* is fixed for the life of a chain; and a legal trunk swap
keeps every node's APO, so the APO of each trunk *position* is fixed too.
Exchanging the opcodes at two positions keeps all trunk APOs iff the
opcodes have equal inverse-ness or neither position has a trunk child at
operand index 1 (the only edge an inverse opcode negates); the swap is
then legal iff the pooled leaves can be laid out so that each lands in a
slot of the APO it carries now.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..ir.instructions import (
    BinaryInst,
    Instruction,
    Opcode,
    base_opcode,
    inverse_opcode,
    is_commutative,
)
from ..ir.values import Value
from ..observe import STAT
from ..robust.faults import current_faults

_STAT_CHAINS_GROWN = STAT(
    "supernode.lane-chains-grown", "Lane chains of >= 2 trunks grown"
)


#: APO values: False = identity operation ('+'/'*'), True = inverse ('-'/'/')
APO = bool
APO_PLUS: APO = False
APO_MINUS: APO = True


def apo_str(apo: APO, family: Opcode = Opcode.FADD) -> str:
    """Human-readable APO symbol for diagnostics."""
    if base_opcode(family) in (Opcode.FMUL, Opcode.MUL):
        return "/" if apo else "*"
    return "-" if apo else "+"


@dataclass
class Leaf:
    """A non-trunk operand hanging off the chain."""

    value: Value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Leaf({self.value.ref()})"


class TrunkUnit:
    """The movable content of one trunk position: opcode + leaf layout.

    ``children`` has exactly two entries (binary trunks); each entry is
    either another :class:`TrunkUnit` (a chain edge) or a :class:`Leaf`.
    ``inst`` remembers the original IR instruction the unit came from (for
    statistics; code generation builds fresh instructions).
    """

    __slots__ = ("opcode", "inst", "children")

    def __init__(
        self,
        opcode: Opcode,
        inst: Optional[BinaryInst],
        children: List[Union["TrunkUnit", Leaf]],
    ) -> None:
        if len(children) != 2:
            raise ValueError("trunk units are binary")
        self.opcode = opcode
        self.inst = inst
        self.children = children

    @property
    def is_inverse(self) -> bool:
        return self.opcode is not base_opcode(self.opcode)

    def leaf_indexes(self) -> List[int]:
        return [i for i, c in enumerate(self.children) if isinstance(c, Leaf)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TrunkUnit({self.opcode}, {self.children})"


@dataclass(frozen=True)
class Slot:
    """One operand slot of the Super-Node fat node (a leaf edge).

    Identified positionally: ``trunk_path`` is the chain-edge index path
    from the root to the owning trunk, ``child_index`` the operand index of
    the leaf within that trunk.  Positional identity is stable across trunk
    swaps (the structure doesn't change, only unit contents move).
    """

    trunk_path: Tuple[int, ...]
    child_index: int
    depth: int


#: what :meth:`LaneChain.place_leaf` rolls back to: every unit's opcode and
#: children, then the leaf-swap and trunk-swap counters
_Snapshot = Tuple[List[Tuple[TrunkUnit, Opcode, List[Union[TrunkUnit, Leaf]]]], int, int]


class LaneChain:
    """The per-lane expression tree of a Multi-/Super-Node.

    The tree shape and the trunk APOs are fixed for the life of the chain
    (see the module docstring), so both are computed once here: the
    pre-order trunk list, a path -> unit map, the slot list with each
    slot's owning unit, and the APO of every trunk position.  Moves change
    only unit opcodes and leaf children, never which units exist.
    """

    def __init__(self, root: TrunkUnit, family: Opcode) -> None:
        self.root = root
        self.family = family  # base (commutative) opcode of the family
        self._trunks: List[Tuple[Tuple[int, ...], TrunkUnit]] = []
        self._trunk_apos: Dict[Tuple[int, ...], APO] = {}

        def walk(unit: TrunkUnit, path: Tuple[int, ...], apo: APO) -> None:
            self._trunks.append((path, unit))
            self._trunk_apos[path] = apo
            for i, child in enumerate(unit.children):
                if isinstance(child, TrunkUnit):
                    walk(child, path + (i,), apo ^ (unit.is_inverse and i == 1))

        walk(root, (), APO_PLUS)
        self._unit_at: Dict[Tuple[int, ...], TrunkUnit] = dict(self._trunks)
        self._slot_units: List[Tuple[Slot, TrunkUnit]] = sorted(
            (
                (Slot(path, index, depth=len(path)), unit)
                for path, unit in self._trunks
                for index in unit.leaf_indexes()
            ),
            key=lambda pair: (pair[0].depth, pair[0].trunk_path, pair[0].child_index),
        )
        self._slots: List[Slot] = [slot for slot, _ in self._slot_units]
        #: applied-move counters (observability for reports/ablations)
        self.leaf_swaps_applied = 0
        self.trunk_swaps_applied = 0

    # -- construction -----------------------------------------------------------

    def clone(self) -> "LaneChain":
        def copy(unit: TrunkUnit) -> TrunkUnit:
            children: List[Union[TrunkUnit, Leaf]] = []
            for child in unit.children:
                if isinstance(child, TrunkUnit):
                    children.append(copy(child))
                else:
                    children.append(Leaf(child.value))
            return TrunkUnit(unit.opcode, unit.inst, children)

        twin = LaneChain(copy(self.root), self.family)
        twin.leaf_swaps_applied = self.leaf_swaps_applied
        twin.trunk_swaps_applied = self.trunk_swaps_applied
        return twin

    # -- traversal ----------------------------------------------------------------

    def trunks(self) -> List[Tuple[Tuple[int, ...], TrunkUnit]]:
        """(path, unit) pairs in pre-order."""
        return self._trunks

    def trunk_at(self, path: Sequence[int]) -> TrunkUnit:
        unit = self._unit_at.get(tuple(path))
        if unit is None:
            raise KeyError(f"no trunk at path {tuple(path)}")
        return unit

    def size(self) -> int:
        """Number of trunk instructions (the paper's node size/depth)."""
        return len(self._trunks)

    def slots(self) -> List[Slot]:
        """All leaf slots ordered root-most first (Listing 2, line 5)."""
        return self._slots

    def leaf_at(self, slot: Slot) -> Leaf:
        child = self._unit_at[slot.trunk_path].children[slot.child_index]
        if not isinstance(child, Leaf):
            raise KeyError(f"slot {slot} does not hold a leaf")
        return child

    def leaf_values(self) -> List[Value]:
        return [unit.children[slot.child_index].value for slot, unit in self._slot_units]

    def slot_of_value(self, value: Value) -> Slot:
        for slot, unit in self._slot_units:
            if unit.children[slot.child_index].value is value:
                return slot
        raise KeyError(f"value {value.ref()} is not a leaf of this chain")

    # -- APO (Section IV-C1) --------------------------------------------------------

    def trunk_apos(self) -> Dict[Tuple[int, ...], APO]:
        """APO of every trunk *position*, keyed by path."""
        return dict(self._trunk_apos)

    def slot_apo(self, slot: Slot) -> APO:
        unit = self._unit_at[slot.trunk_path]
        return self._trunk_apos[slot.trunk_path] ^ (
            unit.is_inverse and slot.child_index == 1
        )

    def slot_apos(self) -> Dict[Slot, APO]:
        """APO of every slot (ordering of keys matches :meth:`slots`)."""
        return {slot: self.slot_apo(slot) for slot in self._slots}

    def value_apos(self) -> Dict[int, APO]:
        """APO of every leaf object (keyed by ``id``) and trunk unit.

        The paper's trunk-swap rule in its literal form: "the APO of all
        nodes remains the same" (DOT dumps read it; tests compare it
        before and after a move).  Computed in one tree walk.
        """
        apos: Dict[int, APO] = {}

        def walk(unit: TrunkUnit, apo: APO) -> None:
            apos[id(unit)] = apo
            inverse = unit.is_inverse
            for index, child in enumerate(unit.children):
                child_apo = apo ^ (inverse and index == 1)
                if isinstance(child, TrunkUnit):
                    walk(child, child_apo)
                else:
                    apos[id(child)] = child_apo

        walk(self.root, APO_PLUS)
        return apos

    def signed_terms(self) -> List[Tuple[APO, Value]]:
        """Flattened semantics: the lane equals the APO-signed fold of its
        leaves.  Used by tests as the semantic invariant."""
        return [
            (self.slot_apo(slot), unit.children[slot.child_index].value)
            for slot, unit in self._slot_units
        ]

    # -- moves (Sections IV-C2 / IV-C3) ------------------------------------------------

    def swap_leaves(self, a: Slot, b: Slot) -> None:
        """Unchecked leaf exchange between two slots."""
        unit_a = self._unit_at[a.trunk_path]
        unit_b = self._unit_at[b.trunk_path]
        unit_a.children[a.child_index], unit_b.children[b.child_index] = (
            unit_b.children[b.child_index],
            unit_a.children[a.child_index],
        )
        self.leaf_swaps_applied += 1

    def can_swap_leaves(self, a: Slot, b: Slot) -> bool:
        """Leaf-swap legality: equal slot APOs (Section IV-C2)."""
        return self.slot_apo(a) == self.slot_apo(b)

    def try_swap_trunks(
        self, path_a: Tuple[int, ...], path_b: Tuple[int, ...]
    ) -> bool:
        """Attempt the paper's trunk swap between two positions.

        The trunk *opcodes* exchange positions while chain edges stay put;
        the leaves attached to both positions are pooled and redistributed
        over the two positions' free slots.  This covers both shapes the
        paper uses: a plain exchange (each trunk carries its leaf along,
        Fig. 4b) and the terminal-trunk case where the bottom anchor leaf
        stays behind (Fig. 3d — the ``add`` moves up with ``D`` while ``B``
        stays at the bottom).

        A placement is applied only when afterwards *every* node's APO is
        unchanged — the paper's legality rule (Section IV-C3), checked in
        closed form (module docstring): no tree walk, and the chain is
        touched only once a legal placement is known.  Of the layouts of
        the pooled leaves, the first in ``itertools.permutations`` order
        whose per-slot APOs match is applied.  Returns False (state
        untouched) when no legal placement exists.
        """
        if path_a == path_b:
            return False
        # One path being a prefix of the other is fine (parent/child swap):
        # only opcodes and leaves move, so the tree shape is preserved.
        unit_a = self._unit_at[path_a]
        unit_b = self._unit_at[path_b]
        inverse_a, inverse_b = unit_a.is_inverse, unit_b.is_inverse
        if inverse_a != inverse_b and (
            isinstance(unit_a.children[1], TrunkUnit)
            or isinstance(unit_b.children[1], TrunkUnit)
        ):
            return False  # a trunk below an index-1 edge would change APO
        free_a = unit_a.leaf_indexes()
        free_b = unit_b.leaf_indexes()
        pool = [unit_a.children[i] for i in free_a] + [unit_b.children[i] for i in free_b]
        apo_a = self._trunk_apos[path_a]
        apo_b = self._trunk_apos[path_b]
        carried = [apo_a ^ (inverse_a and i == 1) for i in free_a] + [
            apo_b ^ (inverse_b and i == 1) for i in free_b
        ]
        wanted = [apo_a ^ (inverse_b and i == 1) for i in free_a] + [
            apo_b ^ (inverse_a and i == 1) for i in free_b
        ]
        for perm in itertools.permutations(range(len(pool))):
            if [carried[i] for i in perm] == wanted:
                break
        else:
            return False
        unit_a.opcode, unit_b.opcode = unit_b.opcode, unit_a.opcode
        placed = iter([pool[i] for i in perm])
        for index in free_a:
            unit_a.children[index] = next(placed)
        for index in free_b:
            unit_b.children[index] = next(placed)
        self.trunk_swaps_applied += 1
        return True

    # -- high-level placement (used by Listings 2/3) ---------------------------------------

    def place_leaf(
        self,
        value: Value,
        target: Slot,
        locked: Optional[Dict[Slot, Value]] = None,
    ) -> bool:
        """Move the leaf holding ``value`` into slot ``target``.

        Tries, in order: no-op, direct leaf swap (equal APOs), then every
        legal trunk swap followed by a leaf swap if still needed.  ``locked``
        maps already-assigned slots to the value they must keep (Listing 2
        processes operand indexes in order and must not disturb earlier
        ones).  Returns True and mutates the chain on success; the chain is
        left unchanged on failure.
        """
        return self._place(value, target, locked or {}, keep=True)

    def can_place_leaf(
        self,
        value: Value,
        target: Slot,
        locked: Optional[Dict[Slot, Value]] = None,
    ) -> bool:
        """Non-mutating legality probe for :meth:`place_leaf`: the same
        search, always rolled back (units, leaves and counters)."""
        return self._place(value, target, locked or {}, keep=False)

    def _place(
        self, value: Value, target: Slot, locked: Dict[Slot, Value], keep: bool
    ) -> bool:
        current = self.slot_of_value(value)
        if current == target:
            return True
        # Every failed attempt below rolls back to this one state.
        snapshot = self._snapshot()
        if self.can_swap_leaves(current, target):
            self.swap_leaves(current, target)
            placed = self._locked_ok(locked)
        else:
            placed = self._place_via_trunks(value, target, locked, snapshot)
        if not (placed and keep):
            self._restore(snapshot)
        return placed

    def _place_via_trunks(
        self,
        value: Value,
        target: Slot,
        locked: Dict[Slot, Value],
        snapshot: _Snapshot,
    ) -> bool:
        """Trunk-assisted movement: try each legal trunk swap, then see if
        the leaf landed (it rides with its unit) or can now swap directly."""
        paths = [path for path, _ in self._trunks]
        for path_a, path_b in itertools.combinations(paths, 2):
            if not self.try_swap_trunks(path_a, path_b):
                continue
            where = self.slot_of_value(value)
            if where == target and self._locked_ok(locked):
                return True
            if self.can_swap_leaves(where, target):
                self.swap_leaves(where, target)
                if self._locked_ok(locked):
                    return True
            self._restore(snapshot)
        return False

    def _locked_ok(self, locked: Dict[Slot, Value]) -> bool:
        return all(self.leaf_at(slot).value is want for slot, want in locked.items())

    def _snapshot(self) -> _Snapshot:
        units = [(unit, unit.opcode, list(unit.children)) for _, unit in self._trunks]
        return units, self.leaf_swaps_applied, self.trunk_swaps_applied

    def _restore(self, snapshot: _Snapshot) -> None:
        units, self.leaf_swaps_applied, self.trunk_swaps_applied = snapshot
        for unit, opcode, children in units:
            unit.opcode = opcode
            unit.children[:] = children

    # -- evaluation (test oracle) ----------------------------------------------------------

    def evaluate(self, env: Dict[int, float]) -> float:
        """Numerically evaluate the chain with leaf values from ``env``
        (keyed by ``id`` of the leaf's IR value).  Test-only helper."""

        def walk(node: Union[TrunkUnit, Leaf]) -> float:
            if isinstance(node, Leaf):
                return env[id(node.value)]
            a = walk(node.children[0])
            b = walk(node.children[1])
            base = base_opcode(node.opcode)
            if base in (Opcode.ADD, Opcode.FADD):
                return a - b if node.is_inverse else a + b
            return a / b if node.is_inverse else a * b

        return walk(self.root)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        def fmt(node: Union[TrunkUnit, Leaf]) -> str:
            if isinstance(node, Leaf):
                return node.value.ref()
            sym = {
                Opcode.ADD: "+", Opcode.SUB: "-", Opcode.FADD: "+",
                Opcode.FSUB: "-", Opcode.MUL: "*", Opcode.FMUL: "*",
                Opcode.FDIV: "/", Opcode.SDIV: "/",
            }.get(node.opcode, str(node.opcode))
            return f"({fmt(node.children[0])} {sym} {fmt(node.children[1])})"

        return f"LaneChain{fmt(self.root)}"


#: operator families eligible for Multi-/Super-Nodes: base opcode -> needs fast-math
CHAIN_FAMILIES = {
    Opcode.ADD: False,
    Opcode.FADD: True,
    Opcode.MUL: False,
    Opcode.FMUL: True,
}


def chain_family_of(opcode: Opcode) -> Optional[Opcode]:
    """Base opcode of the chain family ``opcode`` belongs to, if any."""
    base = base_opcode(opcode)
    return base if base in CHAIN_FAMILIES else None


def build_lane_chain(
    root: Instruction,
    allow_inverse: bool,
    fast_math: bool,
    max_trunks: int = 16,
) -> Optional[LaneChain]:
    """Grow a Multi-/Super-Node lane chain rooted at ``root``.

    Returns ``None`` when no legal chain of at least two trunks exists.
    An operand joins the trunk when it is a single-use binary instruction
    of the same operator family in the same block; otherwise it becomes a
    leaf.  ``allow_inverse=False`` gives LSLP's Multi-Node (commutative
    opcodes only); ``True`` gives the Super-Node.
    """
    current_faults().fire("supernode.build-chain")
    if not isinstance(root, BinaryInst):
        return None
    family = chain_family_of(root.opcode)
    if family is None:
        return None
    if root.opcode is not family and not allow_inverse:
        return None  # root itself is an inverse op; Multi-Node cannot start here
    if CHAIN_FAMILIES[family] and not fast_math:
        return None  # float reassociation needs -ffast-math
    if not root.type.is_scalar:
        return None

    budget = [max_trunks]

    def eligible(value: Value) -> bool:
        if budget[0] <= 0:
            return False
        if not isinstance(value, BinaryInst):
            return False
        if value.type is not root.type:
            return False
        if chain_family_of(value.opcode) is not family:
            return False
        if value.opcode is not family and not allow_inverse:
            return False
        if value.parent is not root.parent:
            return False
        if value.num_uses != 1:
            return False
        return True

    def grow(inst: BinaryInst) -> TrunkUnit:
        budget[0] -= 1
        children: List[Union[TrunkUnit, Leaf]] = []
        for op in inst.operands:
            if eligible(op):
                children.append(grow(op))  # type: ignore[arg-type]
            else:
                children.append(Leaf(op))
        return TrunkUnit(inst.opcode, inst, children)

    chain = LaneChain(grow(root), family)
    if chain.size() < 2:
        return None
    _STAT_CHAINS_GROWN.add()
    return chain
