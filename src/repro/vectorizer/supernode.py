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

Placement plans before it moves anything.  A move is computed on the
unchanged chain — a direct leaf swap, or a legal trunk swap followed by
an optional leaf swap — and checked against the locked slots as a layout
of slot indexes; only a move that passes is applied.  A legal trunk swap
keeps every leaf's APO, so whether the leaf swap after it is legal is a
lookup too.  The legal trunk swaps of one chain state are built once and
shared by every placement probe until the chain next changes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..ir.instructions import (
    BinaryInst,
    Instruction,
    Opcode,
    base_opcode,
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


class _TrunkPlan(NamedTuple):
    """One legal trunk swap, computed on an unchanged chain.

    Slots are named by their index in :meth:`LaneChain.slots`.  ``leaves``
    maps each pooled slot to the leaf the swap puts there, ``dest`` each
    pooled slot to the slot its current leaf moves to, and ``apos`` each
    pooled slot to its APO after the swap (the APO of the leaf it then
    holds: a legal swap changes no leaf's APO).
    """

    unit_a: TrunkUnit
    unit_b: TrunkUnit
    leaves: Dict[int, Leaf]
    dest: Dict[int, int]
    apos: Dict[int, APO]


#: a placement move: an optional trunk swap, then an optional leaf swap
#: between two slot indexes
_Move = Tuple[Optional[_TrunkPlan], Optional[Tuple[int, int]]]
_NO_MOVE: _Move = (None, None)


class _State:
    """What placement planning reads of one chain state, per slot index
    (leaf, APO), per leaf value (the slot indexes holding it, by identity)
    and per trunk position (inverse-ness), plus the state's legal trunk
    swaps once asked for.  Built on demand; any applied move drops it."""

    __slots__ = ("leaves", "apos", "holders", "inverse", "plans")

    def __init__(self, chain: "LaneChain") -> None:
        self.leaves: List[Leaf] = [
            unit.children[slot.child_index] for slot, unit in chain._slot_units
        ]
        self.apos: List[APO] = [chain.slot_apo(slot) for slot in chain._slots]
        self.holders: Dict[int, List[int]] = {}
        for index, leaf in enumerate(self.leaves):
            self.holders.setdefault(id(leaf.value), []).append(index)
        self.inverse = {path: unit.is_inverse for path, unit in chain._trunks}
        self.plans: Optional[List[_TrunkPlan]] = None


class LaneChain:
    """The per-lane expression tree of a Multi-/Super-Node.

    The tree shape and the trunk APOs are fixed for the life of the chain
    (see the module docstring), so both are computed once here: the
    pre-order trunk list, a path -> unit map, the slot list with each
    slot's owning unit, the APO of every trunk position, and the slot
    indexes placement planning works in.  Moves change only unit opcodes
    and leaf children, never which units exist.
    """

    def __init__(self, root: TrunkUnit, family: Opcode) -> None:
        self.root = root
        self.family = family  # base (commutative) opcode of the family
        self._trunks: List[Tuple[Tuple[int, ...], TrunkUnit]] = []
        self._trunk_apos: Dict[Tuple[int, ...], APO] = {}
        _collect_trunks(root, (), APO_PLUS, self._trunks, self._trunk_apos)
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
        self._slot_index: Dict[Slot, int] = {
            slot: index for index, slot in enumerate(self._slots)
        }
        #: per trunk position: whether operand index 1 is a chain edge, and
        #: (slot index, is operand index 1) of each leaf child in operand
        #: order (slots sort by child index within a position) — all fixed
        #: with the tree shape
        self._index1_trunk = {
            path: isinstance(unit.children[1], TrunkUnit) for path, unit in self._trunks
        }
        self._free: Dict[Tuple[int, ...], List[Tuple[int, bool]]] = {
            path: [] for path, _ in self._trunks
        }
        for index, slot in enumerate(self._slots):
            self._free[slot.trunk_path].append((index, slot.child_index == 1))
        self._cached: Optional[_State] = None
        #: applied-move counters (observability for reports/ablations)
        self.leaf_swaps_applied = 0
        self.trunk_swaps_applied = 0

    # -- construction -----------------------------------------------------------

    def clone(self) -> "LaneChain":
        twin = LaneChain(_copy_unit(self.root), self.family)
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
        _collect_value_apos(self.root, APO_PLUS, apos)
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
        self._changed()

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

        The swap is applied only when afterwards *every* node's APO is
        unchanged — the paper's legality rule (Section IV-C3), planned in
        closed form by :meth:`_trunk_plan`.  Returns False (state
        untouched) when no legal placement exists.
        """
        if path_a == path_b:
            return False
        plan = self._trunk_plan(path_a, path_b)
        if plan is None:
            return False
        self._apply((plan, None))
        return True

    def _trunk_plan(
        self, path_a: Tuple[int, ...], path_b: Tuple[int, ...]
    ) -> Optional[_TrunkPlan]:
        """The legal trunk swap of two distinct positions, or None.

        Exchanging the opcodes keeps every trunk APO iff the opcodes have
        equal inverse-ness or neither position has a trunk at operand
        index 1 (module docstring).  The pooled leaves are then laid out
        in the first ``itertools.permutations`` order that puts each in a
        slot of the APO it carries now: slot by slot, the first unplaced
        leaf of the wanted APO.  One path being a prefix of the other is
        fine (parent/child swap): only opcodes and leaves move.
        """
        state = self._state()
        inverse_a, inverse_b = state.inverse[path_a], state.inverse[path_b]
        if inverse_a != inverse_b and (
            self._index1_trunk[path_a] or self._index1_trunk[path_b]
        ):
            return None  # a trunk below an index-1 edge would change APO
        # each pooled slot and the APO it gets once the opcodes exchange
        pooled: List[int] = []
        wanted: List[APO] = []
        for path, inverse in ((path_a, inverse_b), (path_b, inverse_a)):
            apo = self._trunk_apos[path]
            for index, second in self._free[path]:
                pooled.append(index)
                wanted.append(apo ^ (inverse and second))
        unplaced = list(pooled)
        placed: Dict[int, Leaf] = {}
        dest: Dict[int, int] = {}
        for slot, apo in zip(pooled, wanted):
            for source in unplaced:
                if state.apos[source] == apo:
                    break
            else:
                return None
            unplaced.remove(source)
            placed[slot] = state.leaves[source]
            dest[source] = slot
        return _TrunkPlan(
            self._unit_at[path_a], self._unit_at[path_b], placed, dest,
            dict(zip(pooled, wanted)),
        )

    # -- high-level placement (used by Listings 2/3) ---------------------------------------

    def place_leaf(
        self,
        value: Value,
        target: Slot,
        locked: Optional[Dict[Slot, Value]] = None,
    ) -> bool:
        """Move the leaf holding ``value`` into slot ``target``.

        Plans, in order: no-op, direct leaf swap (equal APOs), then each
        legal trunk swap followed by a leaf swap if still needed, and
        applies the first plan that leaves every ``locked`` slot holding
        its value (Listing 2 processes operand indexes in order and must
        not disturb earlier ones).  Returns True and mutates the chain on
        success; the chain is untouched on failure.
        """
        move = self._plan_move(value, target, locked or {})
        if move is None:
            return False
        self._apply(move)
        return True

    def can_place_leaf(
        self,
        value: Value,
        target: Slot,
        locked: Optional[Dict[Slot, Value]] = None,
    ) -> bool:
        """Legality probe for :meth:`place_leaf`: whether it would find a
        move.  Never touches the chain."""
        return self._plan_move(value, target, locked or {}) is not None

    def _state(self) -> _State:
        if self._cached is None:
            self._cached = _State(self)
        return self._cached

    def _trunk_plans(self) -> List[_TrunkPlan]:
        """Every legal trunk swap of the current state, in
        ``itertools.combinations`` order of the pre-order positions."""
        state = self._state()
        if state.plans is None:
            paths = [path for path, _ in self._trunks]
            plans = (self._trunk_plan(a, b) for a, b in itertools.combinations(paths, 2))
            state.plans = [plan for plan in plans if plan is not None]
        return state.plans

    def _plan_move(
        self, value: Value, target: Slot, locked: Dict[Slot, Value]
    ) -> Optional[_Move]:
        """The move :meth:`place_leaf` makes, planned on the unchanged
        chain, or None when no move keeps every locked slot."""
        state = self._state()
        leaves, apos = state.leaves, state.apos
        holders = state.holders.get(id(value))
        if holders is None:
            raise KeyError(f"value {value.ref()} is not a leaf of this chain")
        current = holders[0]
        goal = self._slot_index[target]
        if current == goal:
            return _NO_MOVE
        locks = [(self._slot_index[slot], want) for slot, want in locked.items()]
        if apos[current] == apos[goal]:
            if _locks_hold(locks, leaves, {}, current, goal):
                return None, (current, goal)
            return None
        for plan in self._trunk_plans():
            dest = plan.dest
            if len(holders) == 1:
                where = dest.get(current, current)
            else:  # the value sits in several slots: the first one counts
                where = min(dest.get(i, i) for i in holders)
            if where == goal:
                if _locks_hold(locks, leaves, plan.leaves, goal, goal):
                    return plan, None
            elif plan.apos.get(where, apos[where]) == plan.apos.get(goal, apos[goal]):
                if _locks_hold(locks, leaves, plan.leaves, where, goal):
                    return plan, (where, goal)
        return None

    def _apply(self, move: _Move) -> None:
        plan, swap = move
        if plan is not None:
            plan.unit_a.opcode, plan.unit_b.opcode = plan.unit_b.opcode, plan.unit_a.opcode
            for index, leaf in plan.leaves.items():
                slot, unit = self._slot_units[index]
                unit.children[slot.child_index] = leaf
            self.trunk_swaps_applied += 1
            self._changed()
        if swap is not None:
            self.swap_leaves(self._slots[swap[0]], self._slots[swap[1]])

    def _changed(self) -> None:
        self._cached = None

    # -- evaluation (test oracle) ----------------------------------------------------------

    def evaluate(self, env: Dict[int, float]) -> float:
        """Numerically evaluate the chain with leaf values from ``env``
        (keyed by ``id`` of the leaf's IR value).  Test-only helper."""
        return _evaluate(self.root, env)

    def __repr__(self) -> str:
        return f"LaneChain{_format(self.root)}"


# Tree walks over trunk units are module-level recursive functions: a
# nested closure that calls itself is a function <-> cell cycle that keeps
# everything it closes over (units, leaves, the IR behind them) alive
# until a cyclic collection (DESIGN.md, IR ownership).


def _collect_trunks(
    unit: TrunkUnit,
    path: Tuple[int, ...],
    apo: APO,
    trunks: List[Tuple[Tuple[int, ...], TrunkUnit]],
    apos: Dict[Tuple[int, ...], APO],
) -> None:
    """Append (path, unit) of ``unit``'s subtree to ``trunks`` in
    pre-order, recording each position's APO in ``apos``."""
    trunks.append((path, unit))
    apos[path] = apo
    for i, child in enumerate(unit.children):
        if isinstance(child, TrunkUnit):
            child_apo = apo ^ (unit.is_inverse and i == 1)
            _collect_trunks(child, path + (i,), child_apo, trunks, apos)


def _copy_unit(unit: TrunkUnit) -> TrunkUnit:
    """Deep copy of a trunk subtree with fresh leaves."""
    children: List[Union[TrunkUnit, Leaf]] = []
    for child in unit.children:
        if isinstance(child, TrunkUnit):
            children.append(_copy_unit(child))
        else:
            children.append(Leaf(child.value))
    return TrunkUnit(unit.opcode, unit.inst, children)


def _collect_value_apos(unit: TrunkUnit, apo: APO, apos: Dict[int, APO]) -> None:
    apos[id(unit)] = apo
    inverse = unit.is_inverse
    for index, child in enumerate(unit.children):
        child_apo = apo ^ (inverse and index == 1)
        if isinstance(child, TrunkUnit):
            _collect_value_apos(child, child_apo, apos)
        else:
            apos[id(child)] = child_apo


def _evaluate(node: Union[TrunkUnit, Leaf], env: Dict[int, float]) -> float:
    if isinstance(node, Leaf):
        return env[id(node.value)]
    a = _evaluate(node.children[0], env)
    b = _evaluate(node.children[1], env)
    base = base_opcode(node.opcode)
    if base in (Opcode.ADD, Opcode.FADD):
        return a - b if node.is_inverse else a + b
    return a / b if node.is_inverse else a * b


_SYMBOLS = {
    Opcode.ADD: "+", Opcode.SUB: "-", Opcode.FADD: "+",
    Opcode.FSUB: "-", Opcode.MUL: "*", Opcode.FMUL: "*",
    Opcode.FDIV: "/", Opcode.SDIV: "/",
}


def _format(node: Union[TrunkUnit, Leaf]) -> str:
    if isinstance(node, Leaf):
        return node.value.ref()
    sym = _SYMBOLS.get(node.opcode, str(node.opcode))
    return f"({_format(node.children[0])} {sym} {_format(node.children[1])})"


def _locks_hold(
    locks: List[Tuple[int, Value]],
    leaves: List[Leaf],
    moved: Dict[int, Leaf],
    a: int,
    b: int,
) -> bool:
    """Whether every locked slot keeps its value in the layout ``leaves``
    after a trunk swap that puts ``moved`` in place and a leaf swap of
    slots ``a`` and ``b`` (equal indexes: no leaf swap)."""
    for index, want in locks:
        if index == a:
            index = b
        elif index == b:
            index = a
        if moved.get(index, leaves[index]).value is not want:
            return False
    return True


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

    trunk = _grow_chain(root, root, family, allow_inverse, [max_trunks])
    chain = LaneChain(trunk, family)
    if chain.size() < 2:
        return None
    _STAT_CHAINS_GROWN.add()
    return chain


def _grow_chain(
    inst: BinaryInst,
    root: BinaryInst,
    family: Opcode,
    allow_inverse: bool,
    budget: List[int],
) -> TrunkUnit:
    """The trunk unit of ``inst``: each operand joins the trunk while
    ``budget`` (a one-element list, shared by the whole chain) lasts and
    the operand is a single-use same-family binary instruction of
    ``root``'s type and block; otherwise it becomes a leaf."""
    budget[0] -= 1
    children: List[Union[TrunkUnit, Leaf]] = []
    for op in inst.operands:
        if (
            budget[0] > 0
            and isinstance(op, BinaryInst)
            and op.type is root.type
            and chain_family_of(op.opcode) is family
            and (op.opcode is family or allow_inverse)
            and op.parent is root.parent
            and op.num_uses == 1
        ):
            children.append(_grow_chain(op, root, family, allow_inverse, budget))
        else:
            children.append(Leaf(op))
    return TrunkUnit(inst.opcode, inst, children)
