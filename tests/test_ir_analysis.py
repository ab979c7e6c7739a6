"""Address analysis and aliasing tests."""

import gc
import weakref

import pytest

from repro.ir import (
    F64,
    I64,
    VOID,
    Constant,
    Function,
    IRBuilder,
    Module,
    address_of,
    decompose_pointer,
    may_alias,
    pointer_to,
)
from repro.ir import analysis as analysis_module
from repro.ir.analysis import (
    FunctionAnalysis,
    memory_instructions_between,
    sort_by_offset,
)
from repro.ir.instructions import GepInst
from repro.ir.values import Argument
from repro.machine import DEFAULT_TARGET
from repro.vectorizer import SNSLP_CONFIG, SLPVectorizer

from conftest import build_simple_store_module


def _setup():
    module = Module("m")
    a = module.add_global("A", F64, 64)
    b = module.add_global("B", F64, 64)
    function = Function("f", [("i", I64), ("p", pointer_to(F64))], VOID)
    module.add_function(function)
    builder = IRBuilder(function.add_block("entry"))
    return module, a, b, function, builder


class TestDecomposition:
    def test_constant_index(self):
        _, a, _, _, builder = _setup()
        load = builder.load(builder.gep(a, 5))
        info = address_of(load)
        assert info.base is a
        assert info.symbol is None
        assert info.offset == 5
        assert info.element_size == 8

    def test_symbolic_index(self):
        _, a, _, function, builder = _setup()
        i = function.arguments[0]
        info = address_of(builder.load(builder.gep(a, i)))
        assert info.symbol is i
        assert info.offset == 0

    def test_symbol_plus_constant(self):
        _, a, _, function, builder = _setup()
        i = function.arguments[0]
        idx = builder.add(i, builder.const_i64(3))
        info = address_of(builder.load(builder.gep(a, idx)))
        assert info.symbol is i
        assert info.offset == 3

    def test_constant_plus_symbol(self):
        _, a, _, function, builder = _setup()
        i = function.arguments[0]
        idx = builder.add(builder.const_i64(2), i)
        info = address_of(builder.load(builder.gep(a, idx)))
        assert info.symbol is i and info.offset == 2

    def test_symbol_minus_constant(self):
        _, a, _, function, builder = _setup()
        i = function.arguments[0]
        idx = builder.sub(i, builder.const_i64(1))
        info = address_of(builder.load(builder.gep(a, idx)))
        assert info.symbol is i and info.offset == -1

    def test_opaque_index_is_its_own_symbol(self):
        _, a, _, function, builder = _setup()
        i = function.arguments[0]
        idx = builder.mul(i, builder.const_i64(2))
        info = address_of(builder.load(builder.gep(a, idx)))
        assert info.symbol is idx and info.offset == 0

    def test_bare_pointer_argument(self):
        _, _, _, function, builder = _setup()
        p = function.arguments[1]
        info = address_of(builder.load(p))
        assert info.base is p and info.offset == 0

    def test_store_address(self):
        _, a, _, _, builder = _setup()
        store = builder.store(Constant(F64, 1.0), builder.gep(a, 2))
        assert address_of(store).offset == 2

    def test_non_memory_instruction(self):
        _, _, _, _, builder = _setup()
        inst = builder.add(Constant(I64, 1), Constant(I64, 2))
        assert address_of(inst) is None

    def test_decompose_non_pointer(self):
        assert decompose_pointer(Constant(I64, 3)) is None


class TestConsecutive:
    def test_consecutive(self):
        _, a, _, function, builder = _setup()
        i = function.arguments[0]
        l0 = builder.load(builder.gep(a, i))
        l1 = builder.load(builder.gep(a, builder.add(i, builder.const_i64(1))))
        assert address_of(l0).is_consecutive_with(address_of(l1))
        assert not address_of(l1).is_consecutive_with(address_of(l0))

    def test_different_bases_not_consecutive(self):
        _, a, b, function, builder = _setup()
        i = function.arguments[0]
        la = builder.load(builder.gep(a, i))
        lb = builder.load(builder.gep(b, builder.add(i, builder.const_i64(1))))
        assert not address_of(la).is_consecutive_with(address_of(lb))

    def test_distance(self):
        _, a, _, function, builder = _setup()
        i = function.arguments[0]
        l0 = builder.load(builder.gep(a, i))
        l3 = builder.load(builder.gep(a, builder.add(i, builder.const_i64(3))))
        assert address_of(l0).distance_to(address_of(l3)) == 3
        assert address_of(l3).distance_to(address_of(l0)) == -3

    def test_distance_incomparable(self):
        _, a, b, _, builder = _setup()
        la = builder.load(builder.gep(a, 0))
        lb = builder.load(builder.gep(b, 1))
        assert address_of(la).distance_to(address_of(lb)) is None

    def test_sort_by_offset(self):
        _, a, _, function, builder = _setup()
        i = function.arguments[0]
        infos = []
        for off in (2, 0, 1):
            idx = builder.add(i, builder.const_i64(off))
            infos.append(address_of(builder.load(builder.gep(a, idx))))
        assert sort_by_offset(infos) == [1, 2, 0]


class TestAliasing:
    def test_distinct_globals_never_alias(self):
        _, a, b, _, builder = _setup()
        ia = address_of(builder.load(builder.gep(a, 0)))
        ib = address_of(builder.load(builder.gep(b, 0)))
        assert not may_alias(ia, ib)

    def test_same_slot_aliases(self):
        _, a, _, function, builder = _setup()
        i = function.arguments[0]
        x = address_of(builder.load(builder.gep(a, i)))
        y = address_of(builder.load(builder.gep(a, i)))
        assert may_alias(x, y)

    def test_same_base_distinct_offsets_do_not_alias(self):
        _, a, _, function, builder = _setup()
        i = function.arguments[0]
        x = address_of(builder.load(builder.gep(a, i)))
        idx = builder.add(i, builder.const_i64(1))
        y = address_of(builder.load(builder.gep(a, idx)))
        assert not may_alias(x, y)

    def test_unknown_symbols_conservatively_alias(self):
        _, a, _, function, builder = _setup()
        i = function.arguments[0]
        doubled = builder.mul(i, builder.const_i64(2))
        x = address_of(builder.load(builder.gep(a, i)))
        y = address_of(builder.load(builder.gep(a, doubled)))
        assert may_alias(x, y)

    def test_pointer_argument_vs_global_aliases(self):
        _, a, _, function, builder = _setup()
        p = function.arguments[1]
        x = address_of(builder.load(p))
        y = address_of(builder.load(builder.gep(a, 0)))
        assert may_alias(x, y)


class TestMemoryBetween:
    def test_collects_only_memory_ops(self):
        _, a, _, function, builder = _setup()
        first = builder.load(builder.gep(a, 0))
        builder.add(Constant(I64, 1), Constant(I64, 2))
        mid = builder.store(Constant(F64, 0.0), builder.gep(a, 1))
        last = builder.load(builder.gep(a, 2))
        between = memory_instructions_between(first, last)
        assert between == [mid]

    def test_blocks_must_match(self):
        _, a, _, function, builder = _setup()
        first = builder.load(builder.gep(a, 0))
        other_block = function.add_block("other")
        other_builder = IRBuilder(other_block)
        last = other_builder.load(other_builder.gep(a, 1))
        with pytest.raises(ValueError):
            memory_instructions_between(first, last)


class TestFunctionAnalysis:
    """One cache per vectorizer run: each answer is computed once per IR
    state, and any mutation of the IR starts a new state."""

    def test_each_address_is_decomposed_once_per_state(self, monkeypatch):
        _, a, _, function, builder = _setup()
        i = function.arguments[0]
        l0 = builder.load(builder.gep(a, i))
        l1 = builder.load(builder.gep(a, builder.add(i, builder.const_i64(1))))
        calls = []
        decompose = analysis_module.address_of
        monkeypatch.setattr(
            analysis_module, "address_of",
            lambda inst: calls.append(inst) or decompose(inst),
        )
        analysis = FunctionAnalysis()
        for _ in range(3):
            assert analysis.address_of(l0).is_consecutive_with(analysis.address_of(l1))
        assert calls == [l0, l1]

    def test_set_operand_on_a_gep_index_moves_the_address(self):
        _, a, _, function, builder = _setup()
        i = function.arguments[0]
        gep = builder.gep(a, builder.add(i, builder.const_i64(1)))
        load = builder.load(gep)
        plus4 = builder.add(i, builder.const_i64(4))  # built before any query
        analysis = FunctionAnalysis()
        assert (analysis.address_of(load).symbol, analysis.address_of(load).offset) == (i, 1)
        gep.set_operand(1, plus4)
        assert (analysis.address_of(load).symbol, analysis.address_of(load).offset) == (i, 4)
        gep.set_operand(1, Constant(I64, 7))
        info = analysis.address_of(load)
        assert (info.symbol, info.offset) == (None, 7)

    def test_rauw_of_a_gep_index_moves_the_address(self):
        _, a, b, function, builder = _setup()
        i = function.arguments[0]
        index = builder.add(i, builder.const_i64(2))
        load = builder.load(builder.gep(a, index))
        store = builder.store(load, builder.gep(b, index))
        minus3 = builder.sub(i, builder.const_i64(3))  # built before any query
        analysis = FunctionAnalysis()
        assert analysis.address_of(load).offset == 2
        assert analysis.address_of(store).offset == 2
        index.replace_all_uses_with(minus3)
        assert analysis.address_of(load).offset == -3
        assert analysis.address_of(store).offset == -3

    def test_insert_and_erase_move_the_positions(self):
        _, a, _, function, builder = _setup()
        block = function.entry
        load = builder.load(builder.gep(a, 0))
        store = builder.store(load, builder.gep(a, 1))
        analysis = FunctionAnalysis()
        positions = analysis.positions(block)
        assert analysis.positions(block) is positions  # one map per state
        assert (positions[id(load)], positions[id(store)]) == (1, 3)
        extra = GepInst(a, Constant(I64, 5))
        block.insert_at(0, extra)
        positions = analysis.positions(block)
        assert [positions[id(inst)] for inst in block] == list(range(5))
        assert (positions[id(extra)], positions[id(store)]) == (0, 4)
        extra.erase_from_parent()
        positions = analysis.positions(block)
        assert id(extra) not in positions
        assert positions[id(store)] == 3

    def test_no_cache_outlives_its_run(self):
        """The run's analysis holds every instruction it was asked about;
        it goes when ``run_on_function`` returns, so dropping the compiled
        function frees its instructions at once (by refcount), all but
        the ones the vectorizer keeps on purpose (``consumed_ids``)."""
        module = build_simple_store_module(4)
        function = module.function("kernel")
        vectorizer = SLPVectorizer(DEFAULT_TARGET, SNSLP_CONFIG)
        refs = [weakref.ref(inst) for inst in function.instructions()]
        vectorizer.run_on_function(function)
        assert vectorizer.analysis is None
        loose = [ref for ref in refs if id(ref()) not in vectorizer.consumed_ids]
        assert any(ref() is None for ref in loose)  # swept by DCE, freed
        assert any(ref() is not None for ref in loose)  # still in the function
        gc.collect()
        gc.disable()
        try:
            del function, module
            assert [ref for ref in loose if ref() is not None] == []
        finally:
            gc.enable()
