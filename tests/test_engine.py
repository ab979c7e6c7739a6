"""Engine parity: the planned engine vs the scalar reference interpreter.

Every command simulates on the planned engine (``simulate`` builds a
:class:`BatchedInterpreter`); the scalar :class:`Interpreter`, charged per
step through a :class:`CycleCounter`, is the independent semantics it is
held to.  For every program both produce bit-identical cycle totals,
per-opcode charges, instruction counts and output buffers.  The matrix
here runs the whole kernel suite (unvectorized and under every
configuration) plus seeded fuzz programs under every configuration, and
then pins the edge semantics individually: NaN propagation through
intrinsics, trap messages, vector-lane bounds, and the step watchdog
firing at the exact same instruction.  The fuzz oracle uses the same
reference, so a planned-engine bug surfaces as a ``mismatch`` there too.
"""

import math
import operator
import struct

import pytest

from repro.fuzz import generate_program, make_inputs, random_spec, run_oracle
from repro.interp import (
    BatchedInterpreter,
    BudgetExceededError,
    Interpreter,
    Memory,
    MemoryError_,
    TrapError,
    plan_function,
)
from repro.ir import (
    F64,
    I1,
    I8,
    I16,
    I32,
    I64,
    VOID,
    CmpPredicate,
    Constant,
    Function,
    IRBuilder,
    Module,
    vector_of,
)
from repro.ir.types import pointer_to
from repro.kernels import all_kernels
from repro.kernels.seeding import derive_seed
from repro.machine import DEFAULT_TARGET
from repro.observe.session import CompilerSession, use_session
from repro.sim import CycleCounter, SimulationResult, simulate
from repro.vectorizer import ALL_CONFIGS, compile_module

import random

#: the reference first: a parity loop reports the scalar outcome as [0]
ENGINES = (Interpreter, BatchedInterpreter)


def _reference_simulate(module, function, args, inputs=None):
    """The scalar reference run in :class:`SimulationResult` form: the
    :class:`Interpreter` charged per step through a :class:`CycleCounter`."""
    counter = CycleCounter(DEFAULT_TARGET)
    interp = Interpreter(module, on_execute=counter.charge)
    for name, values in (inputs or {}).items():
        interp.write_global(name, values)
    value = interp.run(function, list(args))
    return SimulationResult(
        cycles=counter.cycles,
        instructions=counter.instructions,
        per_opcode=dict(counter.per_opcode),
        return_value=value,
        globals_after={name: interp.read_global(name) for name in module.globals},
    )


def _simulate_both(module, function, args, inputs=None):
    scalar = _reference_simulate(module, function, args, inputs)
    batched = simulate(module, function, DEFAULT_TARGET, args, inputs=inputs)
    return scalar, batched


def _assert_identical(scalar, batched):
    assert scalar.cycles == batched.cycles
    assert scalar.instructions == batched.instructions
    assert scalar.per_opcode == batched.per_opcode
    assert scalar.return_value == batched.return_value
    assert scalar.globals_after.keys() == batched.globals_after.keys()
    for name in scalar.globals_after:
        a, b = scalar.globals_after[name], batched.globals_after[name]
        # bit-exact, including NaN payloads and signed zeros
        assert [struct.pack("<d", float(x)) if isinstance(x, float) else x
                for x in a] == \
               [struct.pack("<d", float(y)) if isinstance(y, float) else y
                for y in b], name


def _fuzz_program(index):
    return generate_program(
        random_spec(derive_seed(0, f"engine-identity/{index}"))
    )


class TestIdentityMatrix:
    @pytest.mark.parametrize(
        "kernel", all_kernels(), ids=lambda k: k.name
    )
    def test_kernel_suite_unvectorized(self, kernel):
        module = kernel.build()
        inputs = kernel.make_inputs(random.Random(20190216))
        scalar, batched = _simulate_both(
            module, kernel.function, [kernel.trip_count], inputs
        )
        _assert_identical(scalar, batched)

    @pytest.mark.parametrize(
        "kernel", all_kernels(), ids=lambda k: k.name
    )
    def test_kernel_suite_all_configs(self, kernel):
        inputs = kernel.make_inputs(random.Random(20190216))
        for config in ALL_CONFIGS:
            compiled = compile_module(kernel.build(), config, DEFAULT_TARGET)
            scalar, batched = _simulate_both(
                compiled.module, kernel.function, [kernel.trip_count], inputs
            )
            _assert_identical(scalar, batched)

    def test_fuzz_programs_all_configs(self):
        for index in range(6):
            program = _fuzz_program(index)
            inputs = make_inputs(program.module, 1)
            for config in ALL_CONFIGS:
                compiled = compile_module(program.module, config, DEFAULT_TARGET)
                scalar, batched = _simulate_both(
                    compiled.module, program.kernel, program.args, inputs
                )
                _assert_identical(scalar, batched)


class TestOracleReference:
    def test_oracle_catches_a_planned_engine_bug(self, monkeypatch):
        # a planned engine that misreports one element of every buffer it
        # reads back: the oracle's reference runs on the scalar
        # interpreter, so every configuration must diverge from it
        def broken_read_global(self, name):
            values = self.memory.read_global(name)
            values[0] = values[0] + 1 if isinstance(values[0], int) else math.nan
            return values

        monkeypatch.setattr(BatchedInterpreter, "read_global", broken_read_global)
        report = run_oracle(_fuzz_program(0))
        assert not report.reference_trapped
        assert [(o.config, o.status) for o in report.outcomes] == [
            (config.name, "mismatch") for config in ALL_CONFIGS
        ]


class TestEdgeSemantics:
    def _unary_intrinsic(self, callee):
        module = Module("m")
        function = Function("f", [("x", F64)], F64)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        builder.ret(builder.call(callee, [function.arguments[0]]))
        return module

    def _binary_intrinsic(self, callee):
        module = Module("m")
        function = Function("f", [("a", F64), ("b", F64)], F64)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        builder.ret(builder.call(callee, list(function.arguments)))
        return module

    @pytest.mark.parametrize("callee", ["fmin", "fmax"])
    @pytest.mark.parametrize(
        "args",
        [(float("nan"), 1.0), (1.0, float("nan")),
         (float("nan"), float("nan")), (0.0, -0.0),
         (float("inf"), float("-inf"))],
    )
    def test_nan_through_minmax(self, callee, args):
        module = self._binary_intrinsic(callee)
        results = [engine(module).run("f", list(args)) for engine in ENGINES]
        assert struct.pack("<d", results[0]) == struct.pack("<d", results[1])

    @pytest.mark.parametrize("lanes", [1, 4])
    @pytest.mark.parametrize("opcode", ["fadd", "fsub", "fmul"])
    def test_f64_special_operands_parity(self, opcode, lanes):
        # the f64 lane functions are the operator builtins: NaN, infinities
        # and signed zeros must come out bit-identical to the reference
        specials = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 1.5]
        pairs = [(x, y) for x in specials for y in specials]
        type_ = F64 if lanes == 1 else vector_of(F64, lanes)
        module = Module("m")
        function = Function("f", [("a", type_), ("b", type_)], type_)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        builder.ret(getattr(builder, opcode)(*function.arguments))
        if lanes > 1:  # pairs packed ``lanes`` at a time
            pairs = [
                tuple(zip(*pairs[i:i + lanes]))
                for i in range(0, len(pairs) - lanes + 1, lanes)
            ]
        for a, b in pairs:
            results = [engine(module).run("f", [a, b]) for engine in ENGINES]
            bits = [
                struct.pack(f"<{lanes}d", *(r if lanes > 1 else (r,)))
                for r in results
            ]
            assert bits[0] == bits[1], (a, b)

    def test_nan_through_sqrt(self):
        module = self._unary_intrinsic("sqrt")
        for value in (float("nan"), 4.0, 0.0):
            results = [engine(module).run("f", [value]) for engine in ENGINES]
            assert struct.pack("<d", results[0]) == struct.pack(
                "<d", results[1]
            )

    def test_divide_by_zero_trap_parity(self):
        module = Module("m")
        function = Function("f", [("a", I64), ("b", I64)], I64)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        builder.ret(builder.sdiv(*function.arguments))
        messages = []
        for engine in ENGINES:
            with pytest.raises(TrapError) as excinfo:
                engine(module).run("f", [7, 0])
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    def test_fdiv_by_zero_is_not_a_trap(self):
        module = Module("m")
        function = Function("f", [("a", F64), ("b", F64)], F64)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        builder.ret(builder.fdiv(*function.arguments))
        for args, check in [
            ((1.0, 0.0), lambda v: v == float("inf")),
            ((-1.0, 0.0), lambda v: v == float("-inf")),
            ((0.0, 0.0), math.isnan),
        ]:
            for engine in ENGINES:
                assert check(engine(module).run("f", args))

    def test_vector_load_out_of_bounds_parity(self):
        vt = vector_of(F64, 4)
        module = Module("m")
        function = Function("f", [("p", pointer_to(vt))], vt)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        builder.ret(builder.load(function.arguments[0], vt))
        for addr in (0, -8, 1 << 30):
            messages = []
            for engine in ENGINES:
                interp = engine(module, memory=Memory(256))
                with pytest.raises(MemoryError_) as excinfo:
                    interp.run("f", [addr])
                messages.append(str(excinfo.value))
            assert messages[0] == messages[1], addr

    def test_vector_store_out_of_bounds_parity(self):
        vt = vector_of(I64, 2)
        module = Module("m")
        function = Function("f", [("p", pointer_to(vt)), ("v", vt)], VOID)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        builder.store(function.arguments[1], function.arguments[0])
        builder.ret()
        for addr in (0, 250):  # 250: second lane crosses the 256-byte end
            messages = []
            for engine in ENGINES:
                interp = engine(module, memory=Memory(256))
                with pytest.raises(MemoryError_) as excinfo:
                    interp.run("f", [addr, (1, 2)])
                messages.append(str(excinfo.value))
            assert messages[0] == messages[1], addr

    # 0: null; -8: negative; 252: the 8-byte access crosses the 256-byte end
    SCALAR_OOB_ADDRESSES = (0, -8, 252)

    def test_scalar_load_out_of_bounds_parity(self):
        module = Module("m")
        function = Function("f", [("p", pointer_to(F64))], F64)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        builder.ret(builder.load(function.arguments[0]))
        for addr in self.SCALAR_OOB_ADDRESSES:
            errors = []
            for engine in ENGINES:
                interp = engine(module, memory=Memory(256))
                with pytest.raises(MemoryError_) as excinfo:
                    interp.run("f", [addr])
                errors.append((type(excinfo.value), str(excinfo.value)))
            assert errors[0] == errors[1], addr

    def test_scalar_store_out_of_bounds_parity(self):
        module = Module("m")
        function = Function("f", [("p", pointer_to(I64)), ("v", I64)], VOID)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        builder.store(function.arguments[1], function.arguments[0])
        builder.ret()
        for addr in self.SCALAR_OOB_ADDRESSES:
            states = []
            for engine in ENGINES:
                memory = Memory(256)
                interp = engine(module, memory=memory)
                with pytest.raises(MemoryError_) as excinfo:
                    interp.run("f", [addr, -1])  # all-ones bytes
                states.append((
                    type(excinfo.value),
                    str(excinfo.value),
                    memory.read_array(1, I8, 255),  # every addressable byte
                ))
            assert states[0] == states[1], addr

    @pytest.mark.parametrize("lanes", [1, 8])
    @pytest.mark.parametrize("element", [I1, I8, I16, I32, I64], ids=str)
    @pytest.mark.parametrize("opcode", ["add", "sub", "mul", "and_", "or_", "xor"])
    def test_integer_overflow_parity(self, element, opcode, lanes):
        type_ = element if lanes == 1 else vector_of(element, lanes)
        module = Module("m")
        function = Function("f", [("a", type_), ("b", type_)], type_)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        builder.ret(getattr(builder, opcode)(*function.arguments))
        python_op = getattr(operator, opcode)
        lo, hi = element.min_value(), element.max_value()
        pairs = [(hi, 1), (lo, -1), (lo, 1), (hi, hi), (lo, lo), (lo, hi),
                 (hi, 2), (-1, 1)]
        if lanes > 1:  # one pair per lane
            pairs = [tuple(zip(*pairs))]
        for a, b in pairs:
            if lanes == 1:
                want = element.wrap(python_op(a, b))
            else:
                want = tuple(element.wrap(python_op(x, y)) for x, y in zip(a, b))
            results = [engine(module).run("f", [a, b]) for engine in ENGINES]
            assert results[0] == results[1] == want, (a, b)

    def test_integer_add_on_float_operand_traps_alike(self):
        module = Module("m")
        function = Function("f", [("a", I64), ("x", F64)], I64)
        module.add_function(function)
        builder = IRBuilder(function.add_block("entry"))
        total = builder.add(function.arguments[0], function.arguments[0])
        # a float reaching an integer add: the constructor refuses the
        # mismatch, so force it in behind the type check
        total.set_operand(1, function.arguments[1])
        builder.ret(total)
        messages = []
        for engine in ENGINES:
            with pytest.raises(TrapError) as excinfo:
                engine(module).run("f", [3, 0.5])
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    def test_budget_fires_at_identical_step(self):
        module = _loop_module()
        for budget in (1, 7, 50, 137):
            states = []
            for engine in ENGINES:
                interp = engine(module, max_steps=budget)
                with pytest.raises(BudgetExceededError) as excinfo:
                    interp.run("count", [10**9])
                states.append((interp.executed_instructions, str(excinfo.value)))
            assert states[0] == states[1], budget

    def test_budget_not_hit_matches(self):
        module = _loop_module()
        outs = []
        for engine in ENGINES:
            interp = engine(module, max_steps=10_000)
            interp.run("count", [10])
            outs.append((interp.executed_instructions, interp.read_global("A")))
        assert outs[0] == outs[1]


class TestPlanCache:
    def test_plan_reused_across_runs(self):
        module = _loop_module()
        function = module.function("count")
        first = plan_function(function, DEFAULT_TARGET.cost_model)
        second = plan_function(function, DEFAULT_TARGET.cost_model)
        assert first is second
        # a distinct cost model gets its own plan
        assert plan_function(function, None) is not first

    def test_hit_miss_counters(self):
        module = _loop_module()
        function = module.function("count")
        function.__dict__.pop("_repro_plans", None)
        session = CompilerSession(name="plan-cache-test")
        with use_session(session):
            plan_function(function, None)
            plan_function(function, None)
            plan_function(function, None)
        stats = session.stats.snapshot()
        assert stats["interp.plan_cache.misses"] == 1
        assert stats["interp.plan_cache.hits"] == 2


def _loop_module() -> Module:
    """``for i in range(n): A[i] = i`` — the watchdog workout."""
    module = Module("loop")
    module.add_global("A", I64, 64)
    function = Function("count", [("n", I64)], VOID)
    module.add_function(function)
    entry = function.add_block("entry")
    header = function.add_block("header")
    body = function.add_block("body")
    done = function.add_block("done")
    b = IRBuilder(entry)
    b.br(header)
    b = IRBuilder(header)
    i = b.phi(I64, "i")
    cond = b.icmp(CmpPredicate.LT, i, function.arguments[0])
    b.condbr(cond, body, done)
    b = IRBuilder(body)
    addr = b.gep(module.global_named("A"), i)
    b.store(i, addr)
    inext = b.add(i, b.const_i64(1))
    b.br(header)
    b = IRBuilder(done)
    b.ret()
    i.add_incoming(Constant(I64, 0), entry)
    i.add_incoming(inext, body)
    return module
