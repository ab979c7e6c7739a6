"""Verifier tests: every class of malformed IR must be caught."""

import pytest

from repro.ir import (
    F64,
    I64,
    VOID,
    CmpPredicate,
    Constant,
    Function,
    IRBuilder,
    Module,
    VerificationError,
    verify_function,
    verify_module,
)
from repro.ir.block import BasicBlock
from repro.ir.instructions import BinaryInst, BranchInst, Opcode, PhiInst, RetInst
from repro.ir.values import Argument
from conftest import build_simple_store_module


def _func_with_entry():
    function = Function("f", [("a", I64)], VOID)
    block = function.add_block("entry")
    return function, block, IRBuilder(block)


class TestStructure:
    def test_valid_module_passes(self):
        verify_module(build_simple_store_module())

    def test_missing_terminator(self):
        function, _, builder = _func_with_entry()
        builder.add(function.arguments[0], Constant(I64, 1))
        with pytest.raises(VerificationError, match="terminator"):
            verify_function(function)

    def test_terminator_not_last(self):
        function, block, builder = _func_with_entry()
        builder.ret()
        block.append(BinaryInst(Opcode.ADD, Constant(I64, 1), Constant(I64, 2)))
        with pytest.raises(VerificationError, match="terminator"):
            verify_function(function)

    def test_empty_function(self):
        with pytest.raises(VerificationError, match="no blocks"):
            verify_function(Function("f"))

    def test_use_before_def_in_block(self):
        function, block, builder = _func_with_entry()
        a = builder.add(function.arguments[0], Constant(I64, 1))
        b = builder.add(a, a)
        builder.ret()
        # move b before a: now b uses a before its definition
        block.remove(b)
        block.insert_at(0, b)
        with pytest.raises(VerificationError, match="used before"):
            verify_function(function)

    def test_foreign_argument_rejected(self):
        function, _, builder = _func_with_entry()
        foreign = Argument(I64, "evil", 0)
        builder.add(foreign, Constant(I64, 1))
        builder.ret()
        with pytest.raises(VerificationError, match="foreign argument"):
            verify_function(function)

    def test_operand_from_other_function_rejected(self):
        f1, _, b1 = _func_with_entry()
        stray = b1.add(f1.arguments[0], Constant(I64, 1))
        b1.ret()
        f2, block2, b2 = _func_with_entry()
        b2.add(stray, Constant(I64, 1))
        b2.ret()
        with pytest.raises(VerificationError, match="not defined in this function"):
            verify_function(f2)

    def test_branch_to_foreign_block(self):
        function, block, builder = _func_with_entry()
        builder.insert(BranchInst(BasicBlock("orphan")))
        with pytest.raises(VerificationError, match="foreign block"):
            verify_function(function)


class TestPhis:
    def _loop_function(self):
        function = Function("f", [("n", I64)], VOID)
        entry = function.add_block("entry")
        header = function.add_block("header")
        done = function.add_block("done")
        b = IRBuilder(entry)
        b.br(header)
        b.position_at_end(header)
        phi = b.phi(I64, "i")
        cond = b.icmp(CmpPredicate.LT, phi, function.arguments[0])
        inc = b.add(phi, b.const_i64(1))
        b.condbr(cond, header, done)
        b.position_at_end(done)
        b.ret()
        return function, entry, header, phi, inc

    def test_phi_with_correct_edges_passes(self):
        function, entry, header, phi, inc = self._loop_function()
        phi.add_incoming(Constant(I64, 0), entry)
        phi.add_incoming(inc, header)
        verify_function(function)

    def test_phi_missing_predecessor(self):
        function, entry, header, phi, inc = self._loop_function()
        phi.add_incoming(Constant(I64, 0), entry)
        with pytest.raises(VerificationError, match="predecessors"):
            verify_function(function)

    def test_phi_after_non_phi(self):
        function, entry, header, phi, inc = self._loop_function()
        phi.add_incoming(Constant(I64, 0), entry)
        phi.add_incoming(inc, header)
        late_phi = PhiInst(I64)
        late_phi.add_incoming(Constant(I64, 0), entry)
        late_phi.add_incoming(Constant(I64, 1), header)
        header.insert_at(2, late_phi)
        with pytest.raises(VerificationError, match="phi after non-phi"):
            verify_function(function)


class TestUseListIntegrity:
    def test_corrupted_use_list_detected(self):
        function, _, builder = _func_with_entry()
        a = builder.add(function.arguments[0], Constant(I64, 1))
        builder.add(a, a)
        builder.ret()
        # corrupt: drop a's use records behind the IR's back
        a.uses.clear()
        with pytest.raises(VerificationError, match="use record"):
            verify_function(function)

    def test_wide_use_list(self):
        # one value with 2,000 uses verifies; dropping only the last use's
        # record is still caught, with the full message
        function, _, builder = _func_with_entry()
        a = function.arguments[0]
        users = [builder.add(a, Constant(I64, k)) for k in range(2000)]
        builder.ret()
        verify_function(function)
        a.uses.remove(next(use for use in a.uses if use.user is users[-1]))
        with pytest.raises(VerificationError) as excinfo:
            verify_function(function)
        assert str(excinfo.value) == (
            "f/entry: operand 0 of add missing its use record"
        )
