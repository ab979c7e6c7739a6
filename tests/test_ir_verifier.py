"""Verifier tests: every class of malformed IR must be caught."""

import pytest

from repro.ir import (
    F64,
    I32,
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
    vector_of,
)
from repro.ir.block import BasicBlock
from repro.ir.instructions import BinaryInst, BranchInst, Opcode, PhiInst, RetInst
from repro.ir.values import Argument, Use
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


def _vector_function():
    """``f(a)``: a ``<2 x f64>`` load from global ``V``, then one each of
    insertelement, extractelement and shufflevector on it."""
    module = Module("m")
    buffer = module.add_global("V", F64, 8)
    function, block, builder = _func_with_entry()
    module.add_function(function)
    vec = builder.load(builder.gep(buffer, 0), vector_of(F64, 2), "vec")
    ins = builder.insertelement(vec, Constant(F64, 1.0), 0, "ins")
    ext = builder.extractelement(vec, 1, "ext")
    shuf = builder.shufflevector(vec, vec, (0, 3), "shuf")
    builder.ret()
    verify_function(function)
    return module, function, ins, ext, shuf


def _message(function) -> str:
    with pytest.raises(VerificationError) as excinfo:
        verify_function(function)
    return str(excinfo.value)


class TestFailureMessages:
    """Every failure mode, pinned by its full message."""

    def test_stale_parent(self):
        function, _, builder = _func_with_entry()
        inst = builder.add(function.arguments[0], Constant(I64, 1), "x")
        builder.ret()
        inst.parent = BasicBlock("elsewhere")
        assert _message(function) == "f/entry: instruction with stale parent"

    def test_duplicate_phi_predecessor(self):
        function, entry, header, phi, inc = TestPhis()._loop_function()
        phi.add_incoming(Constant(I64, 0), entry)
        phi.add_incoming(inc, header)
        phi.add_incoming(Constant(I64, 1), entry)
        assert _message(function) == "f/header: duplicate phi predecessor"

    def test_cross_block_use_before_defining_block(self):
        function, entry, builder = _func_with_entry()
        body = function.add_block("body")
        early = builder.add(function.arguments[0], Constant(I64, 1), "early")
        builder.br(body)
        builder.position_at_end(body)
        late = builder.add(function.arguments[0], Constant(I64, 2), "late")
        builder.ret()
        early.set_operand(1, late)
        assert _message(function) == (
            "f/entry: %late used before its defining block body (no dominating path)"
        )

    def test_stale_use_record(self):
        function, _, builder = _func_with_entry()
        x = builder.add(function.arguments[0], Constant(I64, 1), "x")
        y = builder.add(x, x, "y")
        builder.ret()
        x.uses.append(Use(y, 5, x))
        assert _message(function) == "f/entry: stale use record on %x"

    def test_insertelement_on_non_vector(self):
        _, function, ins, _, _ = _vector_function()
        ins.set_operand(0, Constant(F64, 2.0))
        assert _message(function) == "f/entry: insertelement on non-vector f64"

    def test_extractelement_on_non_vector(self):
        _, function, _, ext, _ = _vector_function()
        ext.set_operand(0, Constant(F64, 2.0))
        assert _message(function) == "f/entry: extractelement on non-vector f64"

    def test_shufflevector_on_non_vector(self):
        _, function, _, _, shuf = _vector_function()
        shuf.set_operand(0, Constant(F64, 2.0))
        assert _message(function) == "f/entry: shufflevector on non-vector f64"

    def test_insertelement_lane_out_of_range(self):
        _, function, ins, _, _ = _vector_function()
        ins.set_operand(2, Constant(I32, 2))
        assert _message(function) == (
            "f/entry: insertelement lane 2 out of range for <2 x f64>"
        )

    def test_extractelement_lane_out_of_range(self):
        _, function, _, ext, _ = _vector_function()
        ext.set_operand(1, Constant(I32, -1))
        assert _message(function) == (
            "f/entry: extractelement lane -1 out of range for <2 x f64>"
        )

    def test_shuffle_mask_out_of_range(self):
        _, function, _, _, shuf = _vector_function()
        shuf.mask = (0, 4)
        assert _message(function) == (
            "f/entry: shuffle mask [0, 4] out of range for 4 source lanes"
        )


class TestTypeRules:
    """The operand-type rules the constructors enforce, held on IR edited
    after construction: one test per rule, each with its full message."""

    def _scalars(self):
        module = Module("m")
        doubles = module.add_global("D", F64, 8)
        longs = module.add_global("L", I64, 8)
        function, block, builder = _func_with_entry()
        module.add_function(function)
        return module, function, builder, doubles, longs

    def test_binary_operands_and_result_share_one_type(self):
        function, _, builder = _func_with_entry()
        x = builder.add(function.arguments[0], Constant(I64, 1), "x")
        builder.ret()
        x.set_operand(1, Constant(F64, 1.0))
        assert _message(function) == (
            "f/entry: add operand and result types differ: i64, f64, i64"
        )

    def test_altbinop_operands_and_result_share_one_type(self):
        module, function, builder, doubles, longs = self._scalars()
        v2 = builder.load(builder.gep(doubles, 0), vector_of(F64, 2), "v2")
        v4 = builder.load(builder.gep(doubles, 0), vector_of(F64, 4), "v4")
        alt = builder.altbinop([Opcode.FADD, Opcode.FSUB], v2, v2, "alt")
        builder.ret()
        verify_function(function)
        alt.set_operand(0, v4)
        assert _message(function) == (
            "f/entry: altbinop operand and result types differ: "
            "<4 x f64>, <2 x f64>, <2 x f64>"
        )

    def test_cmp_operands_share_one_type(self):
        function, _, builder = _func_with_entry()
        cond = builder.icmp(CmpPredicate.LT, function.arguments[0], Constant(I64, 4), "c")
        builder.ret()
        cond.set_operand(1, Constant(F64, 4.0))
        assert _message(function) == "f/entry: icmp operand types differ: i64, f64"

    def test_select_arms_and_result_share_one_type(self):
        function, _, builder = _func_with_entry()
        a = function.arguments[0]
        cond = builder.icmp(CmpPredicate.LT, a, Constant(I64, 4), "c")
        pick = builder.select(cond, a, Constant(I64, 4), "pick")
        builder.ret()
        pick.set_operand(2, Constant(F64, 4.0))
        assert _message(function) == (
            "f/entry: select arm and result types differ: i64, f64, i64"
        )

    def test_insertelement_vector_has_the_result_type(self):
        module, function, builder, doubles, longs = self._scalars()
        v2 = builder.load(builder.gep(doubles, 0), vector_of(F64, 2), "v2")
        v4 = builder.load(builder.gep(doubles, 0), vector_of(F64, 4), "v4")
        ins = builder.insertelement(v2, Constant(F64, 1.0), 0, "ins")
        builder.ret()
        verify_function(function)
        ins.set_operand(0, v4)
        assert _message(function) == (
            "f/entry: insertelement vector type <4 x f64> is not its result type "
            "<2 x f64>"
        )

    def test_insertelement_scalar_has_the_element_type(self):
        module, function, builder, doubles, longs = self._scalars()
        v2 = builder.load(builder.gep(doubles, 0), vector_of(F64, 2), "v2")
        ins = builder.insertelement(v2, Constant(F64, 1.0), 0, "ins")
        builder.ret()
        ins.set_operand(1, Constant(I64, 1))
        assert _message(function) == (
            "f/entry: insertelement scalar type i64 is not the element type of "
            "<2 x f64>"
        )

    def test_extractelement_result_is_the_element_type(self):
        module, function, builder, doubles, longs = self._scalars()
        v2 = builder.load(builder.gep(doubles, 0), vector_of(F64, 2), "v2")
        w2 = builder.load(builder.gep(longs, 0), vector_of(I64, 2), "w2")
        ext = builder.extractelement(v2, 1, "ext")
        builder.ret()
        verify_function(function)
        ext.set_operand(0, w2)
        assert _message(function) == (
            "f/entry: extractelement result type f64 is not the element type of "
            "<2 x i64>"
        )

    def test_shufflevector_sources_share_one_vector_type(self):
        module, function, builder, doubles, longs = self._scalars()
        v2 = builder.load(builder.gep(doubles, 0), vector_of(F64, 2), "v2")
        v4 = builder.load(builder.gep(doubles, 0), vector_of(F64, 4), "v4")
        shuf = builder.shufflevector(v2, v2, (1, 2), "shuf")
        builder.ret()
        verify_function(function)
        shuf.set_operand(1, v4)
        assert _message(function) == (
            "f/entry: shufflevector source types differ: <2 x f64>, <4 x f64>"
        )

    def test_phi_incoming_values_have_the_phi_type(self):
        function, entry, header, phi, inc = TestPhis()._loop_function()
        phi.add_incoming(Constant(I64, 0), entry)
        phi.add_incoming(inc, header)
        verify_function(function)
        phi.set_operand(0, Constant(F64, 0.0))
        assert _message(function) == (
            "f/header: phi incoming 0.0 type f64 is not the phi's type i64"
        )

    def test_condbr_condition_is_i1(self):
        function, entry, header, phi, inc = TestPhis()._loop_function()
        phi.add_incoming(Constant(I64, 0), entry)
        phi.add_incoming(inc, header)
        header.terminator.set_operand(0, inc)
        assert _message(function) == "f/header: condbr condition type i64 is not i1"

    def test_gep_base_is_a_pointer_of_the_result_type(self):
        module, function, builder, doubles, longs = self._scalars()
        address = builder.gep(doubles, 0, "p")
        builder.ret()
        address.set_operand(0, longs)
        assert _message(function) == (
            "f/entry: gep base type i64* is not its result type f64*"
        )

    def test_gep_index_is_an_integer(self):
        module, function, builder, doubles, longs = self._scalars()
        address = builder.gep(doubles, 0, "p")
        builder.ret()
        address.set_operand(1, Constant(F64, 0.0))
        assert _message(function) == "f/entry: gep index type f64 is not an integer"

    def test_load_pointer_is_a_pointer(self):
        module, function, builder, doubles, longs = self._scalars()
        value = builder.load(builder.gep(doubles, 0), name="x")
        builder.ret()
        value.set_operand(0, Constant(I64, 8))
        assert _message(function) == (
            "f/entry: load pointer operand type i64 is not a pointer"
        )

    def test_store_pointer_is_a_pointer(self):
        module, function, builder, doubles, longs = self._scalars()
        store = builder.store(Constant(F64, 1.0), builder.gep(doubles, 0))
        builder.ret()
        store.set_operand(1, Constant(F64, 8.0))
        assert _message(function) == (
            "f/entry: store pointer operand type f64 is not a pointer"
        )

    def test_call_result_has_the_first_argument_type(self):
        module, function, builder, doubles, longs = self._scalars()
        x = builder.load(builder.gep(doubles, 0), name="x")
        root = builder.call("sqrt", [x], "root")
        builder.ret()
        root.set_operand(0, Constant(I64, 4))
        assert _message(function) == (
            "f/entry: call result type f64 is not its first argument's type i64"
        )

    def test_operand_count_fits_the_class(self):
        function, _, builder = _func_with_entry()
        x = builder.add(function.arguments[0], Constant(I64, 1), "x")
        builder.ret()
        x.drop_all_references()
        assert _message(function) == "f/entry: add has 0 operands, expected 2"
