"""Tests for the mid-end passes: simplify and loop unrolling."""

import random

import pytest

from repro.frontend import compile_source
from repro.interp import Interpreter, run_kernel
from repro.ir import (
    F64,
    I64,
    VOID,
    Constant,
    Function,
    IRBuilder,
    Module,
    Opcode,
    verify_module,
)
from repro.machine import DEFAULT_TARGET
from repro.passes import (
    find_canonical_loops,
    simplify_function,
    simplify_module,
    unroll_function,
    unroll_module,
)
from repro.sim import simulate
from repro.vectorizer import O3_CONFIG, SNSLP_CONFIG, compile_module


def _func(fast_math=True):
    module = Module("m")
    module.add_global("A", F64, 16)
    module.add_global("N", I64, 16)
    function = Function("f", [("x", F64), ("n", I64)], VOID, fast_math=fast_math)
    module.add_function(function)
    builder = IRBuilder(function.add_block("entry"))
    return module, function, builder


class TestSimplify:
    def test_constant_folding(self):
        module, function, b = _func()
        folded = b.add(Constant(I64, 2), Constant(I64, 3))
        user = b.mul(folded, function.arguments[1])
        b.store(b.sitofp(user, F64), b.gep(module.global_named("A"), 0))
        b.ret()
        simplify_function(function)
        # folded to 5, then canonicalized to the RHS of the commutative mul
        assert isinstance(user.rhs, Constant) and user.rhs.value == 5

    def test_add_zero(self):
        module, function, b = _func()
        x, n = function.arguments
        y = b.fadd(x, Constant(F64, 0.0))
        b.store(y, b.gep(module.global_named("A"), 0))
        b.ret()
        simplify_function(function)
        stores = [i for i in function.entry if i.opcode is Opcode.STORE]
        assert stores[0].value is x

    def test_float_identities_need_fast_math(self):
        module, function, b = _func(fast_math=False)
        x, _ = function.arguments
        y = b.fadd(x, Constant(F64, 0.0))
        b.store(y, b.gep(module.global_named("A"), 0))
        b.ret()
        simplify_function(function)
        # x + 0.0 is NOT exact without nsz (x = -0.0), so it must survive
        stores = [i for i in function.entry if i.opcode is Opcode.STORE]
        assert stores[0].value is y

    def test_mul_one_and_div_one(self):
        module, function, b = _func()
        x, n = function.arguments
        a = b.fmul(x, Constant(F64, 1.0))
        c = b.fdiv(a, Constant(F64, 1.0))
        b.store(c, b.gep(module.global_named("A"), 0))
        b.ret()
        simplify_function(function)
        stores = [i for i in function.entry if i.opcode is Opcode.STORE]
        assert stores[0].value is x

    def test_integer_sub_self(self):
        module, function, b = _func()
        _, n = function.arguments
        z = b.sub(n, n)
        b.store(z, b.gep(module.global_named("N"), 0))
        b.ret()
        simplify_function(function)
        stores = [i for i in function.entry if i.opcode is Opcode.STORE]
        assert isinstance(stores[0].value, Constant)
        assert stores[0].value.value == 0

    def test_xor_self_and_shift_zero(self):
        module, function, b = _func()
        _, n = function.arguments
        z = b.xor(n, n)
        s = b.shl(n, Constant(I64, 0))
        b.store(b.add(z, s), b.gep(module.global_named("N"), 0))
        b.ret()
        simplify_function(function)
        # xor n,n -> 0; shl n,0 -> n; 0+n -> n
        stores = [i for i in function.entry if i.opcode is Opcode.STORE]
        assert stores[0].value is n

    def test_commutative_canonicalization(self):
        module, function, b = _func()
        _, n = function.arguments
        inst = b.add(Constant(I64, 7), n)
        b.store(inst, b.gep(module.global_named("N"), 0))
        b.ret()
        simplify_function(function)
        assert inst.lhs is n
        assert isinstance(inst.rhs, Constant)

    def test_index_plus_zero_folds(self):
        # the frontend's `A[i+0]` lowers to add(i, 0); simplify removes it
        source = "double A[8]; double B[8];\nkernel k(n) { A[0+0] = B[0]; }"
        module = compile_source(source)
        removed = simplify_module(module)
        assert removed >= 0
        verify_module(module)

    def test_user_listed_before_its_operands_block_is_revisited(self):
        # edges entry -> b1 -> b2, listed entry, b2, b1: the full pass meets
        # `y = add x, 1` before `x = add 2, 3` folds, so y needs a revisit
        module, function, b = _func()
        b2 = function.add_block("b2")
        b1 = function.add_block("b1")
        b.br(b1)
        b.position_at_end(b1)
        x = b.add(Constant(I64, 2), Constant(I64, 3))
        b.br(b2)
        b.position_at_end(b2)
        y = b.add(x, Constant(I64, 1))
        store = b.store(y, b.gep(module.global_named("N"), 0))
        b.ret()
        verify_module(module)
        assert [block.name for block in function.blocks] == ["entry", "b2", "b1"]
        assert simplify_function(function) == 2
        value = store.operand(0)
        assert isinstance(value, Constant) and value.value == 6
        verify_module(module)

    def test_each_instruction_is_folded_once_when_users_follow(self, monkeypatch):
        # lowering's `A[i+0]`: one `add i, 0` whose users, two GEPs, come
        # after it, so one pass applies every rewrite and none is revisited
        import repro.passes.simplify as simplify

        module, function, b = _func()
        _, n = function.arguments
        index = b.add(n, Constant(I64, 0))
        into = b.gep(module.global_named("A"), index)
        count = b.load(b.gep(module.global_named("N"), index))
        b.store(b.sitofp(count, F64), into)
        b.ret()
        instructions = list(function.entry)
        calls = []
        fold = simplify.try_fold

        def counting(inst):
            calls.append(inst)
            return fold(inst)

        monkeypatch.setattr(simplify, "try_fold", counting)
        assert simplify_function(function) == 1
        assert calls == instructions
        assert all(gep.operand(1) is n for gep in function.entry if gep.opcode is Opcode.GEP)

    @pytest.mark.parametrize("op", ["mul i64 %x, 1", "add i64 %x, 0", "and i64 %x, %x"])
    def test_instruction_that_uses_itself_is_removed_once(self, op):
        # unverified text IR can make `%x = op %x, ...`; its identity
        # returns %x itself, so RAUW changes nothing and %x is erased
        from repro.ir import parse_module

        module = parse_module(
            "module m\n\nglobal @A : i64 x 4\n\n"
            "func @f(%n: i64) -> void {\nentry:\n"
            f"  %x = {op}\n"
            "  %g = gep i64* @A, i64 0\n  store i64 %n, i64* %g\n  ret\n}\n"
        )
        function = module.functions["f"]
        assert simplify_function(function) == 1
        assert [inst.opcode for inst in function.entry] == [
            Opcode.GEP,
            Opcode.STORE,
            Opcode.RET,
        ]
        verify_module(module)

    def test_semantics_preserved_on_random_kernel(self):
        import sys

        sys.path.insert(0, "tests")
        from test_property_vectorizer import _inputs, _random_kernel, _run

        for seed in (3, 17, 99):
            module = _random_kernel(seed, 2, True)
            inputs = _inputs(seed, True)
            before = _run(module, inputs)
            simplify_module(module)
            verify_module(module)
            after = _run(module, inputs)
            assert before == after


LOOP_SOURCE = """
long A[256]; long B[256]; long C[256]; long D[256];
kernel k(n) {
  for (i = 0; i < n; i += 1) {
    A[i] = B[i] - C[i] + D[i];
  }
}
"""


class TestUnroll:
    def _module(self):
        return compile_source(LOOP_SOURCE)

    def test_canonical_loop_recognized(self):
        module = self._module()
        loops = find_canonical_loops(module.function("k"))
        assert len(loops) == 1
        assert loops[0].step == 1

    def test_unroll_verifies(self):
        module = self._module()
        assert unroll_module(module, factor=4) == 1
        verify_module(module)

    @pytest.mark.parametrize("n", [0, 1, 3, 4, 7, 16, 101])
    def test_unroll_semantics_all_trip_counts(self, n):
        inputs = {
            name: [random.Random(name).randint(-50, 50) for _ in range(256)]
            for name in "BCD"
        }
        expected = run_kernel(self._module(), "k", [n], inputs=inputs)["A"]
        unrolled = self._module()
        unroll_module(unrolled, factor=4)
        got = run_kernel(unrolled, "k", [n], inputs=inputs)["A"]
        assert got == expected

    def test_unroll_factor_one_is_noop(self):
        module = self._module()
        assert unroll_module(module, factor=1) == 0

    def test_unrolled_loop_not_rematched(self):
        # the unrolled header/body is not a canonical loop by our matcher
        # (guard uses i+offset), so repeated unrolling must not explode
        module = self._module()
        unroll_module(module, factor=2)
        function = module.function("k")
        loops = find_canonical_loops(function)
        # the remainder loop still matches; unrolling it again is legal
        for loop in loops:
            assert loop.step in (1, 2)

    def test_unroll_enables_vectorization(self):
        inputs = {
            name: [random.Random(name).randint(-50, 50) for _ in range(256)]
            for name in "BCD"
        }
        module = self._module()
        plain = compile_module(module, SNSLP_CONFIG, DEFAULT_TARGET)
        assert len(plain.report.vectorized_graphs()) == 0
        unrolled = compile_module(
            module, SNSLP_CONFIG, DEFAULT_TARGET, unroll_factor=4
        )
        assert len(unrolled.report.vectorized_graphs()) >= 1
        base = simulate(
            compile_module(module, O3_CONFIG, DEFAULT_TARGET).module,
            "k", DEFAULT_TARGET, [200], inputs=inputs,
        )
        fast = simulate(
            unrolled.module, "k", DEFAULT_TARGET, [200], inputs=inputs
        )
        assert fast.globals_after["A"] == base.globals_after["A"]
        assert base.cycles / fast.cycles > 2.0

    def test_non_canonical_loop_untouched(self):
        # a loop with two phis is left alone
        module = Module("m")
        module.add_global("A", F64, 64)
        from repro.ir import CmpPredicate

        function = Function("f", [("n", I64)], VOID)
        module.add_function(function)
        entry = function.add_block("entry")
        header = function.add_block("header")
        body = function.add_block("body")
        done = function.add_block("done")
        b = IRBuilder(entry)
        b.br(header)
        b.position_at_end(header)
        i = b.phi(I64, "i")
        acc = b.phi(F64, "acc")
        cond = b.icmp(CmpPredicate.LT, i, function.arguments[0])
        b.condbr(cond, body, done)
        b.position_at_end(body)
        new_acc = b.fadd(acc, Constant(F64, 1.0))
        inc = b.add(i, b.const_i64(1))
        b.br(header)
        i.add_incoming(b.const_i64(0), entry)
        i.add_incoming(inc, body)
        acc.add_incoming(Constant(F64, 0.0), entry)
        acc.add_incoming(new_acc, body)
        b.position_at_end(done)
        b.store(acc, b.gep(module.global_named("A"), 0))
        b.ret()
        verify_module(module)
        assert unroll_module(module, factor=4) == 0


class TestUnrollProperty:
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=25, deadline=None)
    @given(
        factor=st.integers(2, 6),
        n=st.integers(0, 60),
        seed=st.integers(0, 1000),
    )
    def test_unroll_semantics_fuzzed(self, factor, n, seed):
        from repro.passes import unroll_module

        rng = random.Random(seed)
        inputs = {
            name: [rng.randint(-99, 99) for _ in range(256)] for name in "BCD"
        }
        expected = run_kernel(
            compile_source(LOOP_SOURCE), "k", [n], inputs=inputs
        )["A"]
        unrolled = compile_source(LOOP_SOURCE)
        unroll_module(unrolled, factor=factor)
        verify_module(unrolled)
        got = run_kernel(unrolled, "k", [n], inputs=inputs)["A"]
        assert got == expected
