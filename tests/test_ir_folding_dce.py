"""Constant folding and dead code elimination tests."""

import math

import pytest

from repro.ir import (
    F32,
    F64,
    I8,
    I64,
    VOID,
    CmpPredicate,
    Constant,
    Function,
    IRBuilder,
    Module,
    Opcode,
    eliminate_dead_code,
    try_fold,
    vector_of,
)
from repro.ir.folding import FoldError, compare, fold_binary, fold_cast
from repro.ir.printer import print_module
from repro.ir.instructions import BinaryInst, CastInst, CmpInst


class TestFoldBinary:
    def test_int_add_wraps(self):
        assert fold_binary(Opcode.ADD, I8, 100, 100) == -56

    def test_int_sub_mul(self):
        assert fold_binary(Opcode.SUB, I64, 5, 9) == -4
        assert fold_binary(Opcode.MUL, I64, 7, 6) == 42

    def test_sdiv_truncates_toward_zero(self):
        # C semantics: -7 / 2 == -3 (not floor)
        assert fold_binary(Opcode.SDIV, I64, -7, 2) == -3
        assert fold_binary(Opcode.SDIV, I64, 7, 2) == 3

    def test_sdiv_by_zero_raises(self):
        with pytest.raises(FoldError):
            fold_binary(Opcode.SDIV, I64, 1, 0)

    def test_bitwise(self):
        assert fold_binary(Opcode.AND, I64, 0b1100, 0b1010) == 0b1000
        assert fold_binary(Opcode.OR, I64, 0b1100, 0b1010) == 0b1110
        assert fold_binary(Opcode.XOR, I64, 0b1100, 0b1010) == 0b0110
        assert fold_binary(Opcode.SHL, I64, 1, 4) == 16
        assert fold_binary(Opcode.ASHR, I64, -16, 2) == -4

    def test_float_ops(self):
        assert fold_binary(Opcode.FADD, F64, 1.5, 2.25) == 3.75
        assert fold_binary(Opcode.FSUB, F64, 1.0, 0.25) == 0.75
        assert fold_binary(Opcode.FMUL, F64, 3.0, -2.0) == -6.0
        assert fold_binary(Opcode.FDIV, F64, 1.0, 4.0) == 0.25

    def test_float_div_by_zero_gives_inf(self):
        assert math.isinf(fold_binary(Opcode.FDIV, F64, 1.0, 0.0))
        assert math.isnan(fold_binary(Opcode.FDIV, F64, 0.0, 0.0))

    def test_f32_rounding(self):
        # f32 arithmetic must round to binary32 precision.
        result = fold_binary(Opcode.FADD, F32, 1.0, 1e-9)
        assert result == 1.0


class TestCompareAndCast:
    def test_predicates(self):
        assert compare(CmpPredicate.LT, 1, 2) == 1
        assert compare(CmpPredicate.GE, 1, 2) == 0
        assert compare(CmpPredicate.EQ, 3, 3) == 1
        assert compare(CmpPredicate.NE, 3, 3) == 0
        assert compare(CmpPredicate.LE, 2, 2) == 1
        assert compare(CmpPredicate.GT, 3, 2) == 1

    def test_casts(self):
        assert fold_cast(Opcode.SITOFP, 3, F64) == 3.0
        assert fold_cast(Opcode.FPTOSI, -2.7, I64) == -2
        assert fold_cast(Opcode.TRUNC, 300, I8) == 44
        assert fold_cast(Opcode.FPTRUNC, 0.1, F32) != 0.1


class TestTryFold:
    def test_folds_constant_binary(self):
        inst = BinaryInst(Opcode.ADD, Constant(I64, 2), Constant(I64, 3))
        folded = try_fold(inst)
        assert isinstance(folded, Constant) and folded.value == 5

    def test_folds_vector_binary(self):
        vt = vector_of(I64, 2)
        inst = BinaryInst(
            Opcode.MUL, Constant(vt, (2, 3)), Constant(vt, (4, 5))
        )
        assert try_fold(inst).value == (8, 15)

    def test_folds_cmp(self):
        inst = CmpInst(
            Opcode.ICMP, CmpPredicate.LT, Constant(I64, 1), Constant(I64, 2)
        )
        assert try_fold(inst).value == 1

    def test_folds_cast(self):
        inst = CastInst(Opcode.SITOFP, Constant(I64, 7), F64)
        assert try_fold(inst).value == 7.0

    def test_no_fold_with_nonconstant(self):
        from repro.ir.values import Argument

        inst = BinaryInst(Opcode.ADD, Argument(I64, "a", 0), Constant(I64, 3))
        assert try_fold(inst) is None

    def test_no_fold_on_trap(self):
        inst = BinaryInst(Opcode.SDIV, Constant(I64, 1), Constant(I64, 0))
        assert try_fold(inst) is None


class TestDCE:
    def _function(self):
        module = Module("m")
        a = module.add_global("A", F64, 8)
        function = Function("f", [("i", I64)], VOID)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        return module, a, function, builder

    def test_removes_dead_chain(self):
        _, a, function, builder = self._function()
        live = builder.load(builder.gep(a, 0))
        dead1 = builder.fadd(live, Constant(F64, 1.0))
        builder.fmul(dead1, dead1)  # dead2, uses dead1
        builder.store(live, builder.gep(a, 1))
        builder.ret()
        removed = eliminate_dead_code(function)
        assert removed == 2
        opcodes = [inst.opcode for inst in function.entry]
        assert Opcode.FADD not in opcodes and Opcode.FMUL not in opcodes

    def test_keeps_side_effects(self):
        _, a, function, builder = self._function()
        builder.store(Constant(F64, 1.0), builder.gep(a, 0))
        builder.ret()
        assert eliminate_dead_code(function) == 0
        assert len(function.entry) == 3  # gep, store, ret

    def test_keeps_unused_loads_with_uses_only(self):
        # A load with no uses is pure in this IR and may be removed.
        _, a, function, builder = self._function()
        builder.load(builder.gep(a, 0))
        builder.ret()
        assert eliminate_dead_code(function) == 2  # load then its gep


def _fixpoint_dce(function: Function) -> int:
    """The sweep before the single-walk DCE: reverse walks over every
    block, erasing one trivially dead instruction at a time, repeated
    until a whole pass removes nothing.  Reference oracle."""
    removed = 0
    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            for inst in reversed(list(block.instructions)):
                if not inst.has_side_effects and inst.num_uses == 0 and not inst.type.is_void:
                    inst.erase_from_parent()
                    removed += 1
                    changed = True
    return removed


def _two_dead_chains():
    """Blocks listed entry, early, late, exit; control runs entry -> late
    -> early -> exit.  Two dead chains end in ``early``: one starts in
    ``entry`` (it spans two blocks), the other starts in ``late``, listed
    after the block of its dead user."""
    module = Module("m")
    a = module.add_global("A", F64, 8)
    function = Function("f", [("i", I64)], VOID)
    module.add_function(function)
    entry, early, late, exit_ = (
        function.add_block(name) for name in ("entry", "early", "late", "exit")
    )
    builder = IRBuilder(entry)
    live = builder.load(builder.gep(a, 0))
    spanning = builder.fadd(live, Constant(F64, 1.0))
    builder.br(late)
    builder.position_at_end(late)
    later = builder.fsub(live, Constant(F64, 2.0))
    builder.br(early)
    builder.position_at_end(early)
    builder.fmul(spanning, spanning)
    builder.fadd(later, builder.fmul(later, Constant(F64, 3.0)))
    builder.store(live, builder.gep(a, 1))
    builder.br(exit_)
    builder.position_at_end(exit_)
    builder.ret()
    return module, function


class TestSingleWalkDCE:
    def test_dead_chains_across_blocks_go_in_one_call(self):
        module, function = _two_dead_chains()
        twin_module, twin = _two_dead_chains()
        assert print_module(module) == print_module(twin_module)
        expected = _fixpoint_dce(twin)
        assert expected == 5
        assert eliminate_dead_code(function) == expected
        assert print_module(module) == print_module(twin_module)
        assert eliminate_dead_code(function) == 0
