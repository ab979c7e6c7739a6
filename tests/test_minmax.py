"""Min/max horizontal-reduction tests."""

import random

import pytest

from repro.interp import Interpreter
from repro.ir import (
    F64,
    I64,
    VOID,
    Function,
    IRBuilder,
    Module,
    Opcode,
    verify_module,
)
from repro.machine import DEFAULT_TARGET
from repro.vectorizer import (
    APO_PLUS,
    O3_CONFIG,
    SLP_CONFIG,
    SNSLP_CONFIG,
    compile_module,
)
from repro.vectorizer.reduction import (
    MINMAX_CALLEES,
    find_minmax_candidates,
    plan_reduction,
)
from repro.vectorizer.slp import SLPVectorizer, _GraphBuilder


def _chain_module(callee="fmax", leaves=8, element=F64, fast_math=True):
    module = Module("mm")
    for name in ("B", "S"):
        module.add_global(name, element, 64)
    function = Function("kernel", [("i", I64)], VOID, fast_math=fast_math)
    module.add_function(function)
    builder = IRBuilder(function.add_block("entry"))
    i = function.arguments[0]

    def load(off):
        idx = builder.add(i, builder.const_i64(off)) if off else i
        return builder.load(builder.gep(module.global_named("B"), idx))

    acc = builder.call(callee, [load(0), load(1)])
    for k in range(2, leaves):
        acc = builder.call(callee, [acc, load(k)])
    builder.store(acc, builder.gep(module.global_named("S"), i))
    builder.ret()
    verify_module(module)
    return module, function


class TestDetection:
    def test_fmax_chain_detected(self):
        module, function = _chain_module()
        candidates = find_minmax_candidates(
            function.entry, fast_math=True, consumed_ids=set()
        )
        assert len(candidates) == 1
        assert candidates[0].callee == "fmax"
        assert candidates[0].leaf_count == 8
        assert len(candidates[0].ops) == 7

    def test_short_chain_rejected(self):
        module, function = _chain_module(leaves=3)
        assert (
            find_minmax_candidates(function.entry, fast_math=True, consumed_ids=set())
            == []
        )

    def test_float_minmax_needs_fast_math(self):
        module, function = _chain_module(fast_math=False)
        assert (
            find_minmax_candidates(
                function.entry, fast_math=False, consumed_ids=set()
            )
            == []
        )

    def test_integer_minmax_exact(self):
        module, function = _chain_module(callee="smax", element=I64, fast_math=False)
        candidates = find_minmax_candidates(
            function.entry, fast_math=False, consumed_ids=set()
        )
        assert len(candidates) == 1

    def test_all_four_callees_recognized(self):
        assert set(MINMAX_CALLEES) == {"fmin", "fmax", "smin", "smax"}


class TestPlanning:
    @pytest.mark.parametrize(
        "leaves,chunks,leftovers", [(8, 2, 0), (11, 2, 3), (13, 3, 1)]
    )
    def test_leftover_leaves(self, leaves, chunks, leftovers):
        module, function = _chain_module(leaves=leaves)
        candidate = find_minmax_candidates(
            function.entry, fast_math=True, consumed_ids=set()
        )[0]
        vectorizer = SLPVectorizer(DEFAULT_TARGET, SNSLP_CONFIG)
        builder = _GraphBuilder(vectorizer, (), function, anchor=candidate.root)
        plan = plan_reduction(
            candidate, builder, DEFAULT_TARGET.isa, DEFAULT_TARGET.cost_model
        )
        assert plan is not None and plan.vector_width == 4
        assert len(plan.chunks) == chunks
        assert len(plan.leftovers) == leftovers
        # min/max has no inverse: every leaf is in the '+' partition
        assert all(apo == APO_PLUS for apo, _ in plan.chunks + plan.leftovers)


class TestEndToEnd:
    def _run(self, module, inputs):
        interp = Interpreter(module)
        for name, values in inputs.items():
            interp.write_global(name, values)
        interp.run("kernel", [0])
        return interp.read_global("S")

    @pytest.mark.parametrize("callee,element", [
        ("fmax", F64), ("fmin", F64), ("smax", I64), ("smin", I64),
    ])
    def test_reduction_correct_and_vectorized(self, callee, element):
        # 8 leaves: two 4-wide chunks; 11: two 4-wide chunks, a demoted
        # 2-wide chunk and a tail leaf; 13: three 4-wide chunks and a tail
        for leaves in (8, 11, 13):
            module, _ = _chain_module(
                callee=callee, leaves=leaves, element=element, fast_math=True
            )
            rng = random.Random(13)
            if element is F64:
                inputs = {"B": [rng.uniform(-99, 99) for _ in range(64)]}
            else:
                inputs = {"B": [rng.randint(-99, 99) for _ in range(64)]}
            oracle = self._run(
                compile_module(module, O3_CONFIG, DEFAULT_TARGET).module, inputs
            )
            compiled = compile_module(module, SNSLP_CONFIG, DEFAULT_TARGET)
            graphs = [
                g for g in compiled.report.all_graphs()
                if g.kind == "minmax-reduction"
            ]
            assert graphs and graphs[0].vectorized, leaves
            assert self._run(compiled.module, inputs) == oracle, leaves

    def test_vanilla_slp_also_reduces_minmax(self):
        # min/max has no inverse element: plain SLP handles it too
        module, _ = _chain_module()
        compiled = compile_module(module, SLP_CONFIG, DEFAULT_TARGET)
        graphs = [g for g in compiled.report.all_graphs() if g.kind == "minmax-reduction"]
        assert graphs and graphs[0].vectorized

    def test_emitted_ir_shape(self):
        module, _ = _chain_module(leaves=8)
        compiled = compile_module(module, SNSLP_CONFIG, DEFAULT_TARGET)
        function = compiled.module.function("kernel")
        opcodes = [inst.opcode for inst in function.entry]
        assert Opcode.SHUFFLEVECTOR in opcodes
        # the scalar fmax chain is gone; only vector + final scalar calls remain
        scalar_calls = [
            inst
            for inst in function.entry
            if inst.opcode is Opcode.CALL and inst.type.is_scalar
        ]
        assert len(scalar_calls) == 1

    def test_scattered_leaves_not_profitable(self):
        # leaves from 8 different arrays: chunks would gather -> no vec
        module = Module("mm2")
        for k in range(8):
            module.add_global(f"B{k}", F64, 64)
        module.add_global("S", F64, 64)
        function = Function("kernel", [("i", I64)], VOID, fast_math=True)
        module.add_function(function)
        b = IRBuilder(function.add_block("entry"))
        i = function.arguments[0]

        def load(k):
            return b.load(b.gep(module.global_named(f"B{k}"), i))

        acc = b.call("fmax", [load(0), load(1)])
        for k in range(2, 8):
            acc = b.call("fmax", [acc, load(k)])
        b.store(acc, b.gep(module.global_named("S"), i))
        b.ret()
        verify_module(module)
        compiled = compile_module(module, SNSLP_CONFIG, DEFAULT_TARGET)
        graphs = [g for g in compiled.report.all_graphs() if g.kind == "minmax-reduction"]
        assert not any(g.vectorized for g in graphs)
