"""Property-based tests for the Super-Node reordering machinery.

The central invariant of the whole paper: *every* sequence of legal leaf
placements and trunk swaps must preserve the lane's value.  Hypothesis
generates random chain shapes (random add/sub or mul/div trees) and random
move requests; the model must either refuse a move or preserve semantics.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import (
    F64,
    I64,
    VOID,
    Function,
    IRBuilder,
    Module,
    Opcode,
)
from repro.vectorizer import build_lane_chain
from repro.vectorizer.supernode import LaneChain, Leaf


def _random_chain(seed: int, family: str, max_depth: int, reuse: float = 0.0):
    """Build a random expression tree rooted at a binary op of `family`;
    with probability ``reuse`` a leaf repeats an earlier leaf's value.
    Returns the function with the root: holding only an instruction
    does not keep its function's IR alive."""
    rng = random.Random(seed)
    module = Module("m")
    function = Function("f", [("i", I64)], VOID, fast_math=True)
    module.add_function(function)
    builder = IRBuilder(function.add_block("entry"))
    counter = [0]
    made = []

    def fresh_leaf():
        if reuse and made and rng.random() < reuse:
            return rng.choice(made)
        counter[0] += 1
        name = f"L{counter[0]}"
        module.add_global(name, F64 if family == "fmul" else I64, 8)
        made.append(builder.load(builder.gep(module.global_named(name), 0), name=name))
        return made[-1]

    ops = ("add", "sub") if family == "add" else ("fmul", "fdiv")

    def grow(depth):
        if depth <= 0 or (depth < max_depth and rng.random() < 0.3):
            return fresh_leaf()
        op = rng.choice(ops)
        lhs = grow(depth - 1)
        rhs = grow(depth - 1)
        return getattr(builder, op)(lhs, rhs)

    # force a binary root of the right family with at least one nested op
    op = rng.choice(ops)
    lhs = getattr(builder, rng.choice(ops))(grow(max_depth - 2), grow(max_depth - 2))
    root = getattr(builder, op)(lhs, grow(max_depth - 1))
    builder.store(
        root,
        builder.gep(module.global_named(fresh_leaf().name), 1),
    )
    builder.ret()
    return function, root


def _env_for(chain: LaneChain, rng: random.Random, multiplicative: bool):
    lo, hi = (0.5, 2.0) if multiplicative else (-50, 50)
    env = {}
    for value in chain.leaf_values():
        if id(value) not in env:
            env[id(value)] = rng.uniform(lo, hi)
    return env


def _values_close(a: float, b: float, multiplicative: bool) -> bool:
    if multiplicative:
        return math.isclose(a, b, rel_tol=1e-9)
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    family=st.sampled_from(["add", "fmul"]),
    target_index=st.integers(0, 20),
    leaf_index=st.integers(0, 20),
)
def test_place_leaf_preserves_semantics(seed, family, target_index, leaf_index):
    function, root = _random_chain(seed, family, max_depth=4)
    chain = build_lane_chain(root, allow_inverse=True, fast_math=True)
    if chain is None:
        return  # degenerate shape: nothing to test
    slots = chain.slots()
    target = slots[target_index % len(slots)]
    leaves = chain.leaf_values()
    leaf = leaves[leaf_index % len(leaves)]
    rng = random.Random(seed + 1)
    env = _env_for(chain, rng, multiplicative=(family == "fmul"))
    before = chain.evaluate(env)
    moved = chain.place_leaf(leaf, target)
    after = chain.evaluate(env)
    assert _values_close(before, after, family == "fmul")
    if moved:
        assert chain.leaf_at(target).value is leaf


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    family=st.sampled_from(["add", "fmul"]),
    pick=st.integers(0, 50),
)
def test_trunk_swap_preserves_semantics_and_apos(seed, family, pick):
    function, root = _random_chain(seed, family, max_depth=4)
    chain = build_lane_chain(root, allow_inverse=True, fast_math=True)
    if chain is None or chain.size() < 2:
        return
    paths = [path for path, _ in chain.trunks()]
    rng = random.Random(seed + 2)
    a = paths[pick % len(paths)]
    b = paths[(pick // len(paths) + 1) % len(paths)]
    env = _env_for(chain, rng, multiplicative=(family == "fmul"))
    before_value = chain.evaluate(env)
    before_apos = {
        id(chain.leaf_at(slot)): chain.slot_apo(slot) for slot in chain.slots()
    }
    swapped = chain.try_swap_trunks(a, b)
    after_value = chain.evaluate(env)
    assert _values_close(before_value, after_value, family == "fmul")
    if swapped:
        after_apos = {
            id(chain.leaf_at(slot)): chain.slot_apo(slot) for slot in chain.slots()
        }
        # leaves moved but every leaf object's APO must be unchanged
        assert before_apos == after_apos


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), family=st.sampled_from(["add", "fmul"]))
def test_signed_terms_invariant_under_any_legal_move_sequence(seed, family):
    """The multiset of (APO, leaf) pairs fully determines the lane's value;
    legal moves may permute it but never change it."""
    function, root = _random_chain(seed, family, max_depth=4)
    chain = build_lane_chain(root, allow_inverse=True, fast_math=True)
    if chain is None:
        return
    def term_key(chain):
        return sorted(
            (apo, id(value)) for apo, value in chain.signed_terms()
        )
    before = term_key(chain)
    rng = random.Random(seed + 3)
    slots = chain.slots()
    leaves = chain.leaf_values()
    for _ in range(5):
        leaf = rng.choice(leaves)
        target = rng.choice(slots)
        chain.place_leaf(leaf, target)
    assert term_key(chain) == before


def _brute_force_swap(chain: LaneChain, path_a, path_b) -> bool:
    """The trunk-swap rule checked literally (Section IV-C3): exchange the
    two opcodes, try every layout of the pooled leaves in
    ``itertools.permutations`` order, and keep the first under which
    ``value_apos()`` — every node's APO — is unchanged.  Reference oracle
    for the closed-form :meth:`LaneChain.try_swap_trunks`."""
    if path_a == path_b:
        return False
    unit_a, unit_b = chain.trunk_at(path_a), chain.trunk_at(path_b)
    before = chain.value_apos()
    original = (unit_a.opcode, list(unit_a.children), unit_b.opcode, list(unit_b.children))
    free_a, free_b = unit_a.leaf_indexes(), unit_b.leaf_indexes()
    pool = [unit_a.children[i] for i in free_a] + [unit_b.children[i] for i in free_b]
    for perm in itertools.permutations(pool):
        unit_a.opcode, unit_b.opcode = original[2], original[0]
        placed = iter(perm)
        for index in free_a:
            unit_a.children[index] = next(placed)
        for index in free_b:
            unit_b.children[index] = next(placed)
        if chain.value_apos() == before:
            return True
    unit_a.opcode, unit_a.children[:] = original[0], original[1]
    unit_b.opcode, unit_b.children[:] = original[2], original[3]
    return False


def _layout(chain: LaneChain):
    """Opcode and leaf values (by identity) at every trunk position."""
    return [
        (path, unit.opcode, [id(c.value) if isinstance(c, Leaf) else None for c in unit.children])
        for path, unit in chain.trunks()
    ]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    family=st.sampled_from(["add", "fmul"]),
    depth=st.integers(2, 5),
)
def test_trunk_swap_matches_brute_force_oracle(seed, family, depth):
    """Every ordered pair of positions, applied in turn: the closed-form
    check gives the oracle's verdict and the oracle's leaf placement, and
    the cached trunk APOs keep describing the tree."""
    function, root = _random_chain(seed, family, max_depth=depth)
    chain = build_lane_chain(root, allow_inverse=True, fast_math=True)
    if chain is None:
        return
    paths = [path for path, _ in chain.trunks()]
    for path_a, path_b in itertools.product(paths, repeat=2):
        oracle = chain.clone()
        expected = _brute_force_swap(oracle, path_a, path_b)
        swaps_before = chain.trunk_swaps_applied
        assert chain.try_swap_trunks(path_a, path_b) == expected, (path_a, path_b)
        assert _layout(chain) == _layout(oracle), (path_a, path_b)
        assert chain.trunk_swaps_applied == swaps_before + expected
        walked = chain.value_apos()
        assert chain.trunk_apos() == {
            path: walked[id(unit)] for path, unit in chain.trunks()
        }


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    family=st.sampled_from(["add", "fmul"]),
    depth=st.integers(2, 5),
)
def test_can_place_leaf_is_a_pure_probe(seed, family, depth):
    """``can_place_leaf`` agrees with ``place_leaf`` on a clone and leaves
    the chain exactly as it found it: same tree, same counters, and the
    same ``Leaf`` objects in the same slots."""
    function, root = _random_chain(seed, family, max_depth=depth)
    chain = build_lane_chain(root, allow_inverse=True, fast_math=True)
    if chain is None:
        return
    rng = random.Random(seed + 4)
    slots = chain.slots()
    leaves = chain.leaf_values()
    for _ in range(3):  # start from a reordered chain with non-zero counters
        chain.place_leaf(rng.choice(leaves), rng.choice(slots))
    for value in leaves:
        for target in slots:
            locked = {
                slot: chain.leaf_at(slot).value
                for slot in rng.sample(slots, rng.randint(0, len(slots) // 2))
            }
            text = repr(chain)
            counters = (chain.leaf_swaps_applied, chain.trunk_swaps_applied)
            leaf_objects = [id(chain.leaf_at(slot)) for slot in slots]
            expected = chain.clone().place_leaf(value, target, locked)
            assert chain.can_place_leaf(value, target, locked) == expected
            assert repr(chain) == text
            assert (chain.leaf_swaps_applied, chain.trunk_swaps_applied) == counters
            assert [id(chain.leaf_at(slot)) for slot in slots] == leaf_objects


def _try_then_restore_place(chain: LaneChain, value, target, locked) -> bool:
    """The placement search as a try-then-restore loop: try the direct
    leaf swap, else every trunk swap in ``itertools.combinations`` order
    (each checked literally by :func:`_brute_force_swap`) followed by a
    leaf swap if still needed, checking the locked slots on the mutated
    chain and rolling every failed attempt back to one snapshot.
    Mutates ``chain`` on success, leaves it as it was on failure.
    Reference oracle for the planned :meth:`LaneChain.place_leaf`."""

    def locked_ok():
        return all(chain.leaf_at(slot).value is want for slot, want in locked.items())

    def restore():
        for unit, opcode, children in units:
            unit.opcode = opcode
            unit.children[:] = children
        chain.leaf_swaps_applied, chain.trunk_swaps_applied = counters

    current = chain.slot_of_value(value)
    if current == target:
        return True
    units = [(unit, unit.opcode, list(unit.children)) for _, unit in chain.trunks()]
    counters = (chain.leaf_swaps_applied, chain.trunk_swaps_applied)
    if chain.can_swap_leaves(current, target):
        chain.swap_leaves(current, target)
        if locked_ok():
            return True
        restore()
        return False
    paths = [path for path, _ in chain.trunks()]
    for path_a, path_b in itertools.combinations(paths, 2):
        if not _brute_force_swap(chain, path_a, path_b):
            continue
        chain.trunk_swaps_applied += 1
        where = chain.slot_of_value(value)
        if where == target and locked_ok():
            return True
        if chain.can_swap_leaves(where, target):
            chain.swap_leaves(where, target)
            if locked_ok():
                return True
        restore()
    return False


def _random_locks(chain: LaneChain, rng: random.Random):
    """A random lock set: mostly slots pinned to what they hold now (as
    the reorder search locks them), sometimes to another leaf's value."""
    slots = chain.slots()
    values = chain.leaf_values()
    locked = {}
    for slot in rng.sample(slots, rng.randint(0, len(slots) // 2 + 1)):
        held = chain.leaf_at(slot).value
        locked[slot] = held if rng.random() < 0.85 else rng.choice(values)
    return locked


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    family=st.sampled_from(["add", "fmul"]),
    depth=st.integers(2, 4),
)
def test_planned_placement_matches_try_then_restore_oracle(seed, family, depth):
    """Over random chains, states and lock sets: ``place_leaf`` gives the
    oracle's verdict, layout and leaf/trunk swap counters, and
    ``can_place_leaf`` gives the same verdict without touching the chain,
    its counters or its ``Leaf`` objects — also when many probes of one
    chain state share its trunk-swap plans, and when a value sits in more
    than one slot."""
    function, root = _random_chain(seed, family, max_depth=depth, reuse=0.2)
    chain = build_lane_chain(root, allow_inverse=True, fast_math=True)
    if chain is None:
        return
    rng = random.Random(seed + 5)
    slots = chain.slots()
    leaves = list(dict.fromkeys(chain.leaf_values()))
    for _ in range(2):
        for value in leaves:
            for target in slots:
                locked = _random_locks(chain, rng)
                oracle = chain.clone()
                expected = _try_then_restore_place(oracle, value, target, locked)
                text = repr(chain)
                counters = (chain.leaf_swaps_applied, chain.trunk_swaps_applied)
                leaf_objects = [id(chain.leaf_at(slot)) for slot in slots]
                assert chain.can_place_leaf(value, target, locked) == expected
                assert repr(chain) == text
                assert (chain.leaf_swaps_applied, chain.trunk_swaps_applied) == counters
                assert [id(chain.leaf_at(slot)) for slot in slots] == leaf_objects
                planned = chain.clone()
                assert planned.place_leaf(value, target, locked) == expected
                assert _layout(planned) == _layout(oracle)
                assert (planned.leaf_swaps_applied, planned.trunk_swaps_applied) == (
                    oracle.leaf_swaps_applied,
                    oracle.trunk_swaps_applied,
                )
        # move to a new state through the planned path itself, checked too
        value, target = rng.choice(leaves), rng.choice(slots)
        oracle = chain.clone()
        expected = _try_then_restore_place(oracle, value, target, {})
        assert chain.place_leaf(value, target) == expected
        assert _layout(chain) == _layout(oracle)
        assert (chain.leaf_swaps_applied, chain.trunk_swaps_applied) == (
            oracle.leaf_swaps_applied,
            oracle.trunk_swaps_applied,
        )


def _can_place(chain: LaneChain, value, target, locked, trunk_swaps: bool) -> bool:
    """The per-candidate probe the reorder search made before
    ``placeable``: without trunk swaps only a direct leaf swap (or no move)
    can work.  Reference oracle for :meth:`LaneChain.placeable`."""
    return (
        trunk_swaps or chain.can_swap_leaves(chain.slot_of_value(value), target)
    ) and chain.can_place_leaf(value, target, locked)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    family=st.sampled_from(["add", "fmul"]),
    depth=st.integers(2, 4),
)
def test_placeable_is_the_per_candidate_probe_in_one_pass(seed, family, depth):
    """Over random chains, states, lock sets and candidate lists (values in
    several slots included): ``placeable`` returns exactly the candidates
    the per-candidate probe accepts, in order, with and without trunk
    swaps, and leaves the chain, its counters and its ``Leaf`` objects as
    they were."""
    function, root = _random_chain(seed, family, max_depth=depth, reuse=0.2)
    chain = build_lane_chain(root, allow_inverse=True, fast_math=True)
    if chain is None:
        return
    rng = random.Random(seed + 6)
    slots = chain.slots()
    values = list(dict.fromkeys(chain.leaf_values()))
    for _ in range(3):
        for target in slots:
            locked = _random_locks(chain, rng)
            candidates = rng.sample(values, rng.randint(0, len(values)))
            text = repr(chain)
            counters = (chain.leaf_swaps_applied, chain.trunk_swaps_applied)
            leaf_objects = [id(chain.leaf_at(slot)) for slot in slots]
            for trunk_swaps in (True, False):
                expected = [
                    value for value in candidates
                    if _can_place(chain, value, target, locked, trunk_swaps)
                ]
                got = chain.placeable(candidates, target, locked, trunk_swaps=trunk_swaps)
                assert got == expected
            assert repr(chain) == text
            assert (chain.leaf_swaps_applied, chain.trunk_swaps_applied) == counters
            assert [id(chain.leaf_at(slot)) for slot in slots] == leaf_objects
        chain.place_leaf(rng.choice(values), rng.choice(slots))


def _terms(chain: LaneChain):
    return [(apo, id(value)) for apo, value in chain.signed_terms()]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    family=st.sampled_from(["add", "fmul"]),
    depth=st.integers(2, 5),
)
def test_shared_plans_place_like_private_ones(seed, family, depth):
    """Chains built with one layouts table share their trunk-swap plans,
    as the lanes of one Super-Node do.  A first chain over the tree, and
    chains over trees of other shapes, fill the table; then a chain
    sharing it and a chain with its own table make the same placements
    (random targets and lock sets), and after every one they agree on the
    outcome, the signed terms, the repr and the applied-move counters."""
    function, root = _random_chain(seed, family, max_depth=depth, reuse=0.2)
    layouts = {}
    warm = build_lane_chain(root, allow_inverse=True, fast_math=True, layouts=layouts)
    if warm is None:
        return
    shared = build_lane_chain(root, allow_inverse=True, fast_math=True, layouts=layouts)
    private = build_lane_chain(root, allow_inverse=True, fast_math=True)
    rng = random.Random(seed + 7)
    others = [_random_chain(seed + k, family, max_depth=depth) for k in (1, 2, 3)]
    for chain in [warm] + [
        build_lane_chain(other_root, allow_inverse=True, fast_math=True, layouts=layouts)
        for _, other_root in others
    ]:
        if chain is None:
            continue
        chain_values = chain.leaf_values()
        for _ in range(6):
            chain.place_leaf(
                rng.choice(chain_values), rng.choice(chain.slots()),
                _random_locks(chain, rng),
            )
    slots = warm.slots()
    values = list(dict.fromkeys(warm.leaf_values()))
    assert layouts and shared._layouts is warm._layouts
    assert private._layouts is not warm._layouts
    for _ in range(12):
        value, target = rng.choice(values), rng.choice(slots)
        locked = _random_locks(private, rng)
        assert shared.place_leaf(value, target, locked) == private.place_leaf(
            value, target, locked
        )
        assert _terms(shared) == _terms(private)
        assert repr(shared) == repr(private)
        assert (shared.leaf_swaps_applied, shared.trunk_swaps_applied) == (
            private.leaf_swaps_applied,
            private.trunk_swaps_applied,
        )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_clone_isolation(seed):
    function, root = _random_chain(seed, "add", max_depth=3)
    chain = build_lane_chain(root, allow_inverse=True, fast_math=True)
    if chain is None:
        return
    rng = random.Random(seed)
    env = _env_for(chain, rng, multiplicative=False)
    copy = chain.clone()
    before = copy.evaluate(env)
    slots = chain.slots()
    chain.swap_leaves(slots[0], slots[-1])  # raw, possibly illegal
    assert copy.evaluate(env) == before
