"""Tests for the Super-Node undo mechanism (Listing 1, line 53).

When a graph built over massaged code turns out unprofitable, the driver
must restore scalar code equivalent to the original: same opcode multiset,
same simulated cost, same behaviour — so later decisions (and the O3-vs-X
comparisons of the evaluation) see an untouched function.
"""

import collections
import random
import struct

import pytest

from repro.frontend import compile_source
from repro.interp import Interpreter
from repro.ir import (
    F64,
    I64,
    VOID,
    Constant,
    Function,
    Instruction,
    IRBuilder,
    Module,
    Opcode,
    verify_module,
)
from repro.ir.printer import print_module
from repro.machine import DEFAULT_TARGET
from repro.sim import simulate
from repro.vectorizer import O3_CONFIG, SNSLP_CONFIG, LookAheadScorer, compile_module
from repro.vectorizer.reorder import SuperNode


def _unprofitable_chain_module() -> Module:
    """Two lanes whose chains form a Super-Node but whose leaves live in
    six different arrays: every load group gathers, so the graph cannot
    be profitable and the massaging must be undone."""
    module = Module("undo")
    for name in "ABCDEFG":
        module.add_global(name, F64, 64)
    function = Function("kernel", [("i", I64)], VOID, fast_math=True)
    module.add_function(function)
    b = IRBuilder(function.add_block("entry"))
    i = function.arguments[0]

    def load(name, off):
        idx = b.add(i, b.const_i64(off)) if off else i
        return b.load(b.gep(module.global_named(name), idx))

    lane0 = b.fadd(b.fsub(load("B", 0), load("C", 0)), load("D", 0))
    b.store(lane0, b.gep(module.global_named("A"), i))
    lane1 = b.fsub(b.fadd(load("E", 1), load("F", 1)), load("G", 1))
    idx1 = b.add(i, b.const_i64(1))
    b.store(lane1, b.gep(module.global_named("A"), idx1))
    b.ret()
    verify_module(module)
    return module


def _opcode_histogram(module: Module):
    counts = collections.Counter()
    for function in module.functions.values():
        for inst in function.instructions():
            counts[inst.opcode] += 1
    return counts


class TestUndo:
    def test_unprofitable_graph_restores_opcode_histogram(self):
        module = _unprofitable_chain_module()
        before = _opcode_histogram(module)
        compiled = compile_module(module, SNSLP_CONFIG, DEFAULT_TARGET)
        graphs = compiled.report.all_graphs()
        store_graphs = [g for g in graphs if g.kind == "store"]
        assert store_graphs and not store_graphs[0].vectorized
        assert store_graphs[0].supernodes, "a Super-Node must have formed"
        after = _opcode_histogram(compiled.module)
        assert before == after

    def test_unprofitable_graph_same_simulated_cost(self):
        module = _unprofitable_chain_module()
        inputs = {
            name: [random.Random(3).uniform(-2, 2) for _ in range(64)]
            for name in "BCDEFG"
        }
        original = simulate(module, "kernel", DEFAULT_TARGET, [0], inputs=inputs)
        compiled = compile_module(module, SNSLP_CONFIG, DEFAULT_TARGET)
        restored = simulate(
            compiled.module, "kernel", DEFAULT_TARGET, [0], inputs=inputs
        )
        assert restored.cycles == original.cycles
        assert restored.globals_after["A"] == original.globals_after["A"]

    def test_restored_ir_verifies(self):
        module = _unprofitable_chain_module()
        compiled = compile_module(module, SNSLP_CONFIG, DEFAULT_TARGET, verify=False)
        verify_module(compiled.module)

    def test_profitable_graph_not_undone(self):
        # sanity check: the Fig-3 kernel (profitable) keeps its vector code
        from repro.kernels import kernel_named

        kernel = kernel_named("motiv-trunk-reorder")
        compiled = compile_module(kernel.build(), SNSLP_CONFIG, DEFAULT_TARGET)
        histogram = _opcode_histogram(compiled.module)
        assert any(
            inst.type.is_vector
            for f in compiled.module.functions.values()
            for inst in f.instructions()
            if inst.opcode is Opcode.LOAD
        )


#: one signed sum per product operand, its terms listed in a different
#: order in each lane: the reduction's 4-wide chunk of products bundles
#: the sums, which forms (and reorders) a Super-Node, but P/Q/R/S gather,
#: so the reduction is rejected and the reordering must be reverted
_REDUCTION_BODY = (
    "OUT[i] = P[i]*(A[i+0]-B[i+0]+C[i+0]) + Q[i]*(C[i+1]+A[i+1]-B[i+1])"
    " + R[i]*(A[i+2]-B[i+2]+C[i+2]) + S[i]*(C[i+3]-B[i+3]+A[i+3]);"
)


def _rejected_reduction_source(ctype: str) -> str:
    arrays = " ".join(f"{ctype} {name}[64];" for name in ("OUT",) + tuple("PQRSABC"))
    return (
        f"{arrays}\n"
        "kernel k(n) {\n"
        "  for (i = 0; i < n; i += 1) {\n"
        f"    {_REDUCTION_BODY}\n"
        "  }\n"
        "}\n"
    )


def _expression_tree(value):
    """A value's operand tree down to constants, arguments, globals and phis."""
    if isinstance(value, Instruction) and value.opcode is not Opcode.PHI:
        return (value.opcode,) + tuple(_expression_tree(v) for v in value.operands)
    if isinstance(value, Constant):
        return ("const", value.value)
    return (type(value).__name__, value.name)


def _stored_trees(module: Module):
    return [
        _expression_tree(inst.operand(0))
        for function in module.functions.values()
        for inst in function.instructions()
        if inst.opcode is Opcode.STORE
    ]


class TestRejectedReductionUndo:
    """A rejected horizontal reduction reverts the Super-Node massage its
    chunk bundles made, exactly as a rejected store graph does."""

    @pytest.mark.parametrize("ctype", ["long", "double"])
    def test_rejected_reduction_restores_chunk_massage(self, ctype):
        module = compile_source(_rejected_reduction_source(ctype))
        o3 = compile_module(module, O3_CONFIG, DEFAULT_TARGET)
        compiled = compile_module(module, SNSLP_CONFIG, DEFAULT_TARGET)
        assert not compiled.report.vectorized_graphs()
        assert compiled.counters.get("reduction.rejected") == 1
        assert _stored_trees(compiled.module) == _stored_trees(o3.module)

        rng = random.Random(5)
        if ctype == "double":
            draw = lambda: rng.uniform(-3.0, 3.0)  # noqa: E731
        else:
            draw = lambda: rng.randint(-99, 99)  # noqa: E731
        inputs = {name: [draw() for _ in range(64)] for name in "PQRSABC"}
        expected = simulate(o3.module, "k", DEFAULT_TARGET, [40], inputs=inputs)
        actual = simulate(compiled.module, "k", DEFAULT_TARGET, [40], inputs=inputs)
        if ctype == "double":
            pack = lambda values: [struct.pack("<d", v) for v in values]  # noqa: E731
            assert pack(actual.globals_after["OUT"]) == pack(
                expected.globals_after["OUT"]
            )
        else:
            assert actual.globals_after["OUT"] == expected.globals_after["OUT"]
        assert compiled.counters.get("supernode.undo-events") == 1


def _nested_chain_module() -> Module:
    """Two lanes, each a signed sum whose leaves include products, in a
    different order per lane and over per-lane arrays: the sums form a
    Super-Node, the product bundle below it forms a second, nested one,
    and every load group gathers, so both are undone (the inner first)."""
    module = Module("nested")
    for name in ["A"] + [f"{c}{lane}" for lane in range(2) for c in "BCDEFG"]:
        module.add_global(name, F64, 64)
    function = Function("kernel", [("i", I64)], VOID, fast_math=True)
    module.add_function(function)
    b = IRBuilder(function.add_block("entry"))
    i = function.arguments[0]

    def load(name, lane):
        idx = b.add(i, b.const_i64(lane)) if lane else i
        return b.load(b.gep(module.global_named(f"{name}{lane}"), idx))

    # lane 0: B*C*D - E + F*G; lane 1: F*G*D + B*C - E
    lane0 = b.fadd(
        b.fsub(b.fmul(b.fmul(load("B", 0), load("C", 0)), load("D", 0)), load("E", 0)),
        b.fmul(load("F", 0), load("G", 0)),
    )
    b.store(lane0, b.gep(module.global_named("A"), i))
    lane1 = b.fsub(
        b.fadd(b.fmul(b.fmul(load("F", 1), load("G", 1)), load("D", 1)),
               b.fmul(load("B", 1), load("C", 1))),
        load("E", 1),
    )
    b.store(lane1, b.gep(module.global_named("A"), b.add(i, b.const_i64(1))))
    b.ret()
    verify_module(module)
    return module


#: the nested kernel after SN-SLP rejects its graph and undoes both nodes,
#: as printed when undo re-emitted each lane from a clone of its chain
#: taken before the reorder (each lane is re-emitted before its massaged
#: root, so the chain now follows its last leaf)
_NESTED_UNDONE = """\
func @kernel(%i: i64) -> void fastmath {
entry:
  %t = gep f64* @B0, i64 %i
  %t.1 = load f64, f64* %t
  %t.2 = gep f64* @C0, i64 %i
  %t.3 = load f64, f64* %t.2
  %t.4 = gep f64* @D0, i64 %i
  %t.5 = load f64, f64* %t.4
  %t.6 = fmul f64 %t.1, %t.3
  %t.7 = fmul f64 %t.6, %t.5
  %t.8 = gep f64* @E0, i64 %i
  %t.9 = load f64, f64* %t.8
  %t.10 = gep f64* @F0, i64 %i
  %t.11 = load f64, f64* %t.10
  %t.12 = gep f64* @G0, i64 %i
  %t.13 = load f64, f64* %t.12
  %t.14 = fmul f64 %t.11, %t.13
  %t.15 = fsub f64 %t.7, %t.9
  %t.16 = fadd f64 %t.15, %t.14
  %t.17 = gep f64* @A, i64 %i
  store f64 %t.16, f64* %t.17
  %t.18 = add i64 %i, 1
  %t.19 = gep f64* @F1, i64 %t.18
  %t.20 = load f64, f64* %t.19
  %t.21 = add i64 %i, 1
  %t.22 = gep f64* @G1, i64 %t.21
  %t.23 = load f64, f64* %t.22
  %t.24 = add i64 %i, 1
  %t.25 = gep f64* @D1, i64 %t.24
  %t.26 = load f64, f64* %t.25
  %t.27 = fmul f64 %t.20, %t.23
  %t.28 = fmul f64 %t.27, %t.26
  %t.29 = add i64 %i, 1
  %t.30 = gep f64* @B1, i64 %t.29
  %t.31 = load f64, f64* %t.30
  %t.32 = add i64 %i, 1
  %t.33 = gep f64* @C1, i64 %t.32
  %t.34 = load f64, f64* %t.33
  %t.35 = fmul f64 %t.31, %t.34
  %t.36 = add i64 %i, 1
  %t.37 = gep f64* @E1, i64 %t.36
  %t.38 = load f64, f64* %t.37
  %t.39 = fadd f64 %t.28, %t.35
  %t.40 = fsub f64 %t.39, %t.38
  %t.41 = add i64 %i, 1
  %t.42 = gep f64* @A, i64 %t.41
  store f64 %t.40, f64* %t.42
  ret
}
"""


def _unit_layout(node: SuperNode):
    """Every unit of every lane, by identity, with its opcode and its
    children (units and leaves by identity, leaf values by identity)."""
    return [
        (id(unit), unit.opcode, [
            (id(child), id(getattr(child, "value", None))) for child in unit.children
        ])
        for chain in node.chains
        for _, unit in chain.trunks()
    ]


class TestUndoFromRecords:
    """Undo restores every unit's recorded opcode and children in place,
    instead of re-emitting from clones of the chains."""

    def test_chains_are_restored_in_place(self):
        # Fig. 3's lanes: B - C + D and B + D - C; lane 1 needs a trunk swap
        module = Module("fig3")
        for name in "ABCD":
            module.add_global(name, F64, 64)
        function = Function("kernel", [("i", I64)], VOID, fast_math=True)
        module.add_function(function)
        b = IRBuilder(function.add_block("entry"))
        i = function.arguments[0]

        def load(name, lane):
            idx = b.add(i, b.const_i64(lane)) if lane else i
            return b.load(b.gep(module.global_named(name), idx))

        lanes = [
            b.fadd(b.fsub(load("B", 0), load("C", 0)), load("D", 0)),
            b.fsub(b.fadd(load("B", 1), load("D", 1)), load("C", 1)),
        ]
        stores = [
            b.store(lanes[0], b.gep(module.global_named("A"), i)),
            b.store(lanes[1], b.gep(module.global_named("A"), b.add(i, b.const_i64(1)))),
        ]
        b.ret()
        node = SuperNode.build(
            [store.operand(0) for store in stores],
            allow_inverse=True, allow_trunk_swaps=True, fast_math=True,
        )
        before = _unit_layout(node)
        node.reorder_leaves_and_trunks(LookAheadScorer())
        assert _unit_layout(node) != before
        node.generate_code()
        restored = node.undo_code()
        assert _unit_layout(node) == before
        assert [store.operand(0) for store in stores] == restored
        verify_module(module)

    def test_nested_undo_prints_the_original_ir(self):
        compiled = compile_module(_nested_chain_module(), SNSLP_CONFIG, DEFAULT_TARGET)
        assert compiled.counters.get("supernode.nodes-formed") == 2
        assert compiled.counters.get("supernode.undo-events") == 2
        assert compiled.counters.get("supernode.trunk-moves-applied") == 1
        text = print_module(compiled.module)
        assert text[text.index("func @kernel"):] == _NESTED_UNDONE
        o3 = compile_module(_nested_chain_module(), O3_CONFIG, DEFAULT_TARGET)
        assert _stored_trees(compiled.module) == _stored_trees(o3.module)
