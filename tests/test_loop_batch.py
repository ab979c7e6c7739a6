"""Column-wise loop evaluation: the batched engine against the scalar one.

The batched engine evaluates a counted loop's body one instruction at a
time over every iteration (:mod:`repro.interp.loops`) when closed-form
checks show that the column order cannot be observed, and replays the
loop sequentially otherwise.  Each case here runs both engines and
compares the return value, cycles, instruction count, per-opcode charges
and every byte of memory on success, and the exception type, text and
every byte of memory (the partial-store prefix) on failure.  After a
failure only the bytes and the error are compared: the planned engine
charges cycles per completed block, so its counts stop at the last
finished block in the parent too.  The ``interp.loops.*`` counters say
which path each case took.
"""

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.interp import (
    BatchedInterpreter,
    BudgetExceededError,
    Interpreter,
    Memory,
    MemoryError_,
    TrapError,
)
from repro.interp import loops
from repro.interp.loops import CHUNK, reordered, trip_count
from repro.ir import (
    F32,
    F64,
    I1,
    I8,
    I32,
    I64,
    VOID,
    CmpPredicate,
    Constant,
    Function,
    IRBuilder,
    Module,
    pointer_to,
    vector_of,
)
from repro.kernels import all_kernels, kernel_named
from repro.kernels.util import make_loop_kernel
from repro.machine import DEFAULT_TARGET
from repro.observe.session import CompilerSession, use_session
from repro.robust.faults import FaultError, FaultInjector
from repro.sim import CycleCounter
from repro.vectorizer import ALL_CONFIGS, O3_CONFIG, SNSLP_CONFIG, compile_module

MEMORY = 1 << 14


def _bits(value):
    """``value`` with every float replaced by its bytes (NaN-exact)."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def _execute(module, engine, args, inputs=None, max_steps=None, faults=None,
             memory_size=MEMORY, function="kernel"):
    memory = Memory(memory_size)
    if engine == "scalar":
        counter = CycleCounter(DEFAULT_TARGET)
        interp = Interpreter(module, memory=memory, on_execute=counter.charge,
                             max_steps=max_steps)
    else:
        interp = counter = BatchedInterpreter(
            module, memory=memory, cost_model=DEFAULT_TARGET.cost_model,
            max_steps=max_steps,
        )
    for name, values in (inputs or {}).items():
        interp.write_global(name, values)
    session = CompilerSession(name=f"loop-batch:{engine}")
    session.faults = faults() if faults is not None else FaultInjector()
    resolved = [arg(memory) if callable(arg) else arg for arg in args]
    with use_session(session):
        try:
            value = interp.run(function, resolved)
        except Exception as exc:  # compared across engines below
            state = ("raised", type(exc), str(exc))
        else:
            state = ("ok", _bits(value), counter.cycles, counter.instructions,
                     dict(counter.per_opcode))
    counters = session.stats.snapshot()
    return (
        state + (memory.read_bytes(0, memory_size), interp.executed_instructions),
        {key: counters.get(f"interp.loops.{key}", 0) for key in ("batched", "replayed")},
    )


def run_both(module, args, **kwargs):
    """Both engines' outcomes must match; returns the batched outcome and
    its loop counters."""
    scalar, _ = _execute(module, "scalar", args, **kwargs)
    batched, counters = _execute(module, "batched", args, **kwargs)
    assert scalar[:-2] == batched[:-2]
    assert scalar[-2] == batched[-2], "memory differs"
    if scalar[0] == "ok" or scalar[1] is BudgetExceededError:
        assert scalar[-1] == batched[-1]
    return batched, counters


def loop_module(body, step=1, arrays=(("A", F64), ("B", F64), ("C", F64)), count=64):
    """``kernel(n)``: ``for (i = 0; i < n; i += step) body(b, i, env)``."""
    module = Module("loop")
    for name, element in arrays:
        module.add_global(name, element, count)
    make_loop_kernel(module, "kernel", body, step)
    return module


def counted_loop(params, body, step=1, arrays=(("A", F64, 64),), phis=(),
                 start=0, pred=CmpPredicate.LT, swap=False, on_false=False):
    """``kernel(n, *params)``: ``for (i = start; i <pred> n; i += step)``,
    the compare written ``n <pred> i`` with ``swap`` and the body on its
    false edge with ``on_false``.  The body gets the builder, the variable,
    the function's arguments and its extra phis (name, type, init)."""
    module = Module("loop")
    for name, element, count in arrays:
        module.add_global(name, element, count)
    function = Function("kernel", [("n", I64)] + list(params), VOID)
    module.add_function(function)
    entry, header, body_block, done = (
        function.add_block(name) for name in ("entry", "header", "body", "done")
    )
    IRBuilder(entry).br(header)
    b = IRBuilder(header)
    i = b.phi(I64, "i")
    extra = [b.phi(type_, name) for name, type_, _ in phis]
    n = function.arguments[0]
    cond = b.icmp(pred, n, i) if swap else b.icmp(pred, i, n)
    b.condbr(cond, *((done, body_block) if on_false else (body_block, done)))
    b = IRBuilder(body_block)
    updates = body(b, i, function.arguments, extra, module) or []
    nxt = b.add(i, b.const_i64(step))
    b.br(header)
    i.add_incoming(Constant(I64, start), entry)
    i.add_incoming(nxt, body_block)
    for phi, (_, type_, init), update in zip(extra, phis, updates):
        phi.add_incoming(Constant(type_, init), entry)
        phi.add_incoming(update, body_block)
    IRBuilder(done).ret()
    return module


def record_chunks(monkeypatch):
    """The ``(variable at entry, iterations, batched)`` of every column pass."""
    passes = []
    evaluate = loops._evaluate

    def recorded(loop, start, trips, regs, memory):
        batched = evaluate(loop, start, trips, regs, memory)
        passes.append((start, trips, batched))
        return batched

    monkeypatch.setattr(loops, "_evaluate", recorded)
    return passes


def _floats(count, seed=1):
    rng = random.Random(seed)
    return [rng.uniform(-8.0, 8.0) for _ in range(count)]


class TestMustBatch:
    def test_o3_interleaved_stores_at_step_two(self):
        kernel = kernel_named("motiv-leaf-reorder")
        compiled = compile_module(kernel.build(), O3_CONFIG, DEFAULT_TARGET)
        inputs = kernel.make_inputs(random.Random(20190216))
        outcome, counters = run_both(compiled.module, [kernel.trip_count], inputs=inputs,
                                     memory_size=1 << 16)
        assert outcome[0] == "ok"
        assert counters == {"batched": 1, "replayed": 0}

    def test_overlapping_vector_loads(self):
        # milc-staple-reduce: <4 x f64> loads at i, i+1, ... overlap
        kernel = kernel_named("milc-staple-reduce")
        compiled = compile_module(kernel.build(), SNSLP_CONFIG, DEFAULT_TARGET)
        inputs = kernel.make_inputs(random.Random(7))
        outcome, counters = run_both(compiled.module, [kernel.trip_count], inputs=inputs,
                                     memory_size=1 << 16)
        assert outcome[0] == "ok"
        assert counters == {"batched": 1, "replayed": 0}

    def test_vector_lanes_shuffles_and_selects(self):
        vt = vector_of(F64, 2)

        def body(b, i, env):
            x = b.load(env.pointer("A", i), vt)
            y = b.load(env.pointer("B", i), vt)
            mixed = b.shufflevector(x, y, [3, 0])
            picked = b.select(b.fcmp(CmpPredicate.LT, x, y), mixed, b.fmul(x, y))
            lane = b.extractelement(picked, b.const_i32(1))
            out = b.insertelement(picked, b.fadd(lane, b.sitofp(i, F64)), b.const_i32(0))
            b.store(b.call("fmax", [out, x]), env.pointer("C", i))

        module = loop_module(body, step=2)
        inputs = {"A": _floats(64, 1), "B": _floats(64, 2)}
        outcome, counters = run_both(module, [40], inputs=inputs)
        assert outcome[0] == "ok"
        assert counters == {"batched": 1, "replayed": 0}

    def test_pointer_arguments_to_distinct_buffers(self):
        ptr = pointer_to(F64)

        def body(b, i, args, _, module):
            value = b.load(b.gep(args[1], i))
            b.store(b.fmul(value, value), b.gep(args[2], i))

        module = counted_loop([("p", ptr), ("q", ptr)], body,
                              arrays=(("A", F64, 64), ("B", F64, 64)))
        a, b_ = module.globals["A"], module.globals["B"]
        outcome, counters = run_both(
            module, [50, a, b_], inputs={"A": _floats(64)})
        assert outcome[0] == "ok"
        assert counters == {"batched": 1, "replayed": 0}

    def test_i1_and_i8_element_arrays(self):
        def body(b, i, env):
            following = env.load("F", i, 1)  # read before a later store of it
            x = env.load("A", i)
            y = env.load("B", i)
            env.store(b.add(x, y), "C", i)  # i8 wraps
            env.store(b.icmp(CmpPredicate.LT, x, y), "F", i)
            env.store(b.xor(following, env.load("G", i)), "G", i)

        module = loop_module(
            body, arrays=(("A", I8), ("B", I8), ("C", I8), ("F", I1), ("G", I1)))
        rng = random.Random(5)
        inputs = {
            "A": [rng.randint(-128, 127) for _ in range(64)],
            "B": [rng.randint(-128, 127) for _ in range(64)],
            "F": [rng.randint(0, 1) for _ in range(64)],
            "G": [rng.randint(0, 1) for _ in range(64)],
        }
        outcome, counters = run_both(module, [60], inputs=inputs)
        assert outcome[0] == "ok"
        assert counters == {"batched": 1, "replayed": 0}

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_zero_one_and_two_trips(self, n):
        def body(b, i, env):
            env.store(b.fadd(env.load("A", i), env.load("B", i, 1)), "C", i)

        module = loop_module(body)
        inputs = {"A": _floats(64, 3), "B": _floats(64, 4)}
        outcome, counters = run_both(module, [n], inputs=inputs)
        assert outcome[0] == "ok"
        assert counters == {"batched": 1, "replayed": 0}

    @pytest.mark.parametrize("step", [1, 2, 3])
    def test_addresses_running_backwards(self, step):
        # index arithmetic through `sub`: every stream steps down
        vt = vector_of(F64, 2)

        def body(b, i, args, _, module):
            a, b_, c, d, e = (module.globals[name] for name in "ABCDE")
            back = b.sub(b.const_i64(60), i)
            x = b.load(b.gep(a, back), vt)  # overlapping <2 x f64> loads
            y = b.load(b.gep(b_, b.add(back, b.const_i64(1))))
            product = b.fmul(x, x)
            lane = b.extractelement(product, b.const_i32(1))
            total = b.fadd(b.fadd(lane, y), b.load(b.gep(c, back)))
            b.store(total, b.gep(c, back))  # read, then written, per iteration
            b.store(b.fadd(y, b.sitofp(i, F64)), b.gep(d, back))
            b.store(product, b.gep(e, b.mul(back, b.const_i64(2))))  # whole vectors

        module = counted_loop(
            [], body, step=step, arrays=[(name, F64, 128) for name in "ABCDE"])
        inputs = {name: _floats(128, seed) for seed, name in enumerate("ABCDE")}
        for n in (0, 1, 8, 44, 60):
            outcome, counters = run_both(module, [n], inputs=inputs)
            assert outcome[0] == "ok"
            assert counters == {"batched": 1, "replayed": 0}

    def test_inner_loop_batches_on_every_outer_iteration(self):
        # for (j = 0; j < n; j++) for (i = 0; i < 8; i++) A[8j + i] = B[i] * j
        module = Module("nest")
        module.add_global("A", F64, 128)
        module.add_global("B", F64, 8)
        function = Function("kernel", [("n", I64)], VOID)
        module.add_function(function)
        entry, outer, pre, inner, body, latch, done = (
            function.add_block(name)
            for name in ("entry", "outer", "pre", "inner", "body", "latch", "done")
        )
        IRBuilder(entry).br(outer)
        b = IRBuilder(outer)
        j = b.phi(I64, "j")
        b.condbr(b.icmp(CmpPredicate.LT, j, function.arguments[0]), pre, done)
        b = IRBuilder(pre)
        row = b.mul(j, b.const_i64(8))
        scale = b.sitofp(j, F64)
        b.br(inner)
        b = IRBuilder(inner)
        i = b.phi(I64, "i")
        b.condbr(b.icmp(CmpPredicate.LT, i, b.const_i64(8)), body, latch)
        b = IRBuilder(body)
        value = b.fmul(b.load(b.gep(module.globals["B"], i)), scale)
        b.store(value, b.gep(module.globals["A"], b.add(row, i)))
        i_next = b.add(i, b.const_i64(1))
        b.br(inner)
        b = IRBuilder(latch)
        j_next = b.add(j, b.const_i64(1))
        b.br(outer)
        IRBuilder(done).ret()
        j.add_incoming(Constant(I64, 0), entry)
        j.add_incoming(j_next, latch)
        i.add_incoming(Constant(I64, 0), pre)
        i.add_incoming(i_next, body)
        outcome, counters = run_both(module, [12], inputs={"B": _floats(8)})
        assert outcome[0] == "ok"
        assert counters == {"batched": 12, "replayed": 0}

    def test_trips_beyond_one_chunk(self):
        def body(b, i, env):
            env.store(b.mul(env.load("A", i), b.const_i64(3)), "B", i)

        n = CHUNK + 37
        module = loop_module(body, arrays=(("A", I64), ("B", I64)), count=n)
        rng = random.Random(9)
        inputs = {"A": [rng.randint(-999, 999) for _ in range(n)]}
        outcome, counters = run_both(module, [n], inputs=inputs, memory_size=1 << 16)
        assert outcome[0] == "ok"
        assert counters == {"batched": 1, "replayed": 0}


class TestMustReplay:
    def test_store_read_by_next_iteration(self):
        def body(b, i, env):
            env.store(b.fadd(env.load("A", i), env.load("B", i)), "A", i, 1)

        module = loop_module(body)
        outcome, counters = run_both(
            module, [40], inputs={"A": _floats(64, 1), "B": _floats(64, 2)})
        assert outcome[0] == "ok"
        assert counters == {"batched": 0, "replayed": 1}

    def test_load_after_store_of_a_later_element(self):
        # the load reads A[i + 1] before a later iteration's store writes it
        def body(b, i, env):
            env.store(env.load("B", i), "A", i, 0)
            env.store(b.fmul(env.load("A", i, 1), env.load("B", i)), "C", i)

        module = loop_module(body)
        outcome, counters = run_both(
            module, [40], inputs={"A": _floats(64, 1), "B": _floats(64, 2)})
        assert outcome[0] == "ok"
        assert counters == {"batched": 0, "replayed": 1}

    def test_pointer_arguments_aliasing_one_buffer(self):
        ptr = pointer_to(F64)

        def body(b, i, args, _, module):
            value = b.load(b.gep(args[1], i))
            b.store(b.fadd(value, value), b.gep(args[2], i))

        module = counted_loop([("p", ptr), ("q", ptr)], body)
        a = module.globals["A"]
        # q = p + one element: iteration k stores what iteration k + 1 loads
        outcome, counters = run_both(
            module, [40, a, lambda memory: memory.address_of_global(a) + 8],
            inputs={"A": _floats(64)})
        assert outcome[0] == "ok"
        assert counters == {"batched": 0, "replayed": 1}

    def test_second_loop_carried_phi(self):
        def body(b, i, args, phis, module):
            value = b.load(b.gep(module.globals["A"], i))
            total = b.fadd(phis[0], value)
            b.store(total, b.gep(module.globals["A"], i))
            return [total]

        module = counted_loop([], body, phis=[("acc", F64, 0.5)])
        outcome, counters = run_both(module, [40], inputs={"A": _floats(64)})
        assert outcome[0] == "ok"
        assert counters == {"batched": 0, "replayed": 0}  # not a column loop


    @pytest.mark.parametrize("pred, swap, on_false, step, start", [
        (CmpPredicate.GT, False, False, -1, 41),  # for (i = 41; i > n; i--)
        (CmpPredicate.LT, True, False, -2, 41),  # while n < i, down by two
        (CmpPredicate.LT, False, True, -2, 41),  # until i < n: while i >= n
        (CmpPredicate.LE, True, True, 3, 9),  # until n <= i: while i < n
        (CmpPredicate.LE, False, False, 1, 9),  # for (i = 9; i <= n; i++)
        (CmpPredicate.NE, False, False, -1, 41),  # for (i = 41; i != n; i--)
        (CmpPredicate.EQ, False, True, 1, 9),  # until i == n
        (CmpPredicate.LT, False, False, -1, 9),  # for (i = 9; i < n; i--)
    ])
    def test_other_compare_forms_run_sequentially(self, pred, swap, on_false, step, start):
        # only `icmp lt iv, bound` stepping up, body on true, is a column
        # loop; the rest run (or trap, or exhaust the budget) sequentially
        def body(b, i, args, _, module):
            a, c, d = (module.globals[name] for name in "ACD")
            x = b.load(b.gep(a, i))
            total = b.fadd(x, b.load(b.gep(c, i)))
            b.store(total, b.gep(c, i))
            b.store(b.fadd(x, b.sitofp(i, F64)), b.gep(d, i))

        module = counted_loop(
            [], body, step=step, start=start, pred=pred, swap=swap,
            on_false=on_false, arrays=[(name, F64, 64) for name in "ACD"])
        inputs = {name: _floats(64, seed) for seed, name in enumerate("ACD")}
        for n in (3, 8, 44, 60):
            outcome, counters = run_both(module, [n], inputs=inputs, max_steps=20_000)
            assert counters == {"batched": 0, "replayed": 0}
            if pred is CmpPredicate.NE:
                # a countdown from 41 stops after 41 - n iterations; from
                # below its bound it steps down until it runs off memory
                assert outcome[0] == "ok" if n < 41 else outcome[:2] == ("raised", MemoryError_)

    def test_later_chunk_fails_its_check(self, monkeypatch):
        # X[4 * CHUNK + i] = 3 * X[3 * i]: the first chunk's load and store
        # extents are disjoint; the second chunk's meet, which for unequal
        # strides counts as a conflict, so it runs sequentially and reads
        # stores of both chunks
        def body(b, i, args, _, module):
            x = module.globals["X"]
            value = b.load(b.gep(x, b.mul(i, b.const_i64(3))))
            b.store(b.mul(value, b.const(I32, 3)),
                    b.gep(x, b.add(i, b.const_i64(4 * CHUNK))))

        module = counted_loop([], body, arrays=(("X", I32, 6 * CHUNK),))
        rng = random.Random(11)
        inputs = {"X": [rng.randint(-999, 999) for _ in range(6 * CHUNK)]}
        passes = record_chunks(monkeypatch)
        outcome, counters = run_both(module, [2 * CHUNK], inputs=inputs,
                                     memory_size=1 << 16)
        assert outcome[0] == "ok"
        assert counters == {"batched": 0, "replayed": 1}
        assert passes == [(0, CHUNK, True), (CHUNK, CHUNK, False)]

    @pytest.mark.parametrize("one_lane", [False, True])
    def test_one_lane_shuffle_stays_sequential(self, one_lane):
        # a one-lane shuffle is scalar-typed but holds a 1-tuple: a loop
        # holding one is not one the column pass models
        vt = vector_of(F64, 2)

        def body(b, i, env):
            x = b.load(env.pointer("A", i), vt)
            if one_lane:
                b.shufflevector(x, x, [1])
            b.store(b.shufflevector(x, x, [1, 0]), env.pointer("C", i))

        module = loop_module(body, step=2)
        outcome, counters = run_both(module, [40], inputs={"A": _floats(64)})
        assert outcome[0] == "ok"
        expected = {"batched": 0, "replayed": 0} if one_lane else {"batched": 1, "replayed": 0}
        assert counters == expected


class TestFailuresInsideTheLoop:
    def test_out_of_bounds_at_iteration_k(self):
        def body(b, i, env):
            env.store(b.fadd(env.load("A", i), env.load("B", i)), "C", i)

        module = loop_module(body, count=16)
        # C is laid out last: its store runs off the end of the 16 KiB
        # memory at iteration 2014, while A and B are still in bounds
        outcome, counters = run_both(
            module, [2020], inputs={"A": _floats(16), "B": _floats(16)})
        assert outcome[:2] == ("raised", MemoryError_)
        assert counters == {"batched": 0, "replayed": 1}

    def test_sdiv_by_zero_at_iteration_k(self):
        def body(b, i, env):
            x = env.load("A", i)
            env.store(x, "D", i)  # stored before the trap, every iteration
            env.store(b.sdiv(x, env.load("B", i)), "C", i)

        module = loop_module(
            body, arrays=(("A", I64), ("B", I64), ("C", I64), ("D", I64)))
        divisors = [3] * 64
        divisors[17] = 0
        outcome, counters = run_both(
            module, [40], inputs={"A": list(range(100, 164)), "B": divisors})
        assert outcome[:2] == ("raised", TrapError)
        assert counters == {"batched": 0, "replayed": 1}

    @pytest.mark.parametrize("trap", ["bounds", "sdiv"])
    def test_failure_in_a_later_chunk(self, trap, monkeypatch):
        # the first chunk batches; iteration CHUNK + 17 runs off the end of
        # memory or divides by zero, after stores of its own chunk
        k, n = CHUNK + 17, CHUNK + 100

        def body(b, i, env):
            x = env.load("A", i)
            env.store(x, "D", i)
            env.store(b.sdiv(x, env.load("B", i)), "C", i)

        module = Module("loop")
        for name in "ABD":
            module.add_global(name, I64, n)
        module.add_global("C", I64, 16 if trap == "bounds" else n)  # laid out last
        make_loop_kernel(module, "kernel", body, 1)
        layout = Memory(1 << 17)
        at = {name: layout.bind_global(buffer) for name, buffer in module.globals.items()}
        divisors = [3] * n
        if trap == "bounds":  # C[k] ends 4 bytes past the end of memory
            memory_size = at["C"] + 8 * k + 4
        else:
            memory_size = 1 << 17
            divisors[k] = 0
        passes = record_chunks(monkeypatch)
        outcome, counters = run_both(
            module, [n], inputs={"A": list(range(100, 100 + n)), "B": divisors},
            memory_size=memory_size)
        assert outcome[:2] == ("raised", MemoryError_ if trap == "bounds" else TrapError)
        assert counters == {"batched": 0, "replayed": 1}
        assert passes == [(0, CHUNK, True), (CHUNK, n - CHUNK, False)]
        # iteration k stored D[k] before it trapped; no later iteration ran
        assert struct.unpack_from("2q", outcome[-2], at["D"] + 8 * k) == (100 + k, 0)

    def test_f32_store_overflow_at_iteration_k(self):
        ptr = pointer_to(F32)

        def body(b, i, args, _, module):
            at_k = b.icmp(CmpPredicate.EQ, i, b.const_i64(11))
            a = module.globals["A"]
            b.store(b.load(b.gep(a, i)), b.gep(module.globals["B"], i))
            b.store(b.select(at_k, args[1], b.load(b.gep(a, i))), b.gep(args[2], i))

        module = counted_loop(
            [("huge", F32), ("out", ptr)], body,
            arrays=(("A", F32, 64), ("B", F32, 64), ("C", F32, 64)))
        c = module.globals["C"]
        outcome, counters = run_both(
            module, [40, 1e300, c], inputs={"A": _floats(64)})
        if outcome[0] == "raised":  # struct refuses to round to infinity
            assert outcome[1] is OverflowError
            assert counters == {"batched": 0, "replayed": 1}
        else:  # struct rounds to infinity: iteration 11 stored +inf
            assert counters == {"batched": 1, "replayed": 0}
            memory = Memory(MEMORY)
            memory.bind_global(module.globals["A"])
            memory.bind_global(module.globals["B"])
            at = memory.bind_global(c) + 11 * 4
            assert outcome[-2][at:at + 4] == struct.pack("f", float("inf"))

    def test_budget_exhausted_inside_the_loop(self):
        def body(b, i, env):
            env.store(b.fadd(env.load("A", i), env.load("B", i)), "C", i)

        module = loop_module(body)
        for budget in (10, 137, 300):
            outcome, counters = run_both(
                module, [60], inputs={"A": _floats(64)}, max_steps=budget)
            assert outcome[:2] == ("raised", BudgetExceededError)
            assert counters == {"batched": 0, "replayed": 1}

    def test_armed_step_fault(self):
        def body(b, i, env):
            env.store(b.fadd(env.load("A", i), env.load("B", i)), "C", i)

        def armed():
            faults = FaultInjector()
            faults.arm("interp.step", "raise", skip=100)
            return faults

        module = loop_module(body)
        outcome, counters = run_both(
            module, [60], inputs={"A": _floats(64)}, faults=armed)
        assert outcome[:2] == ("raised", FaultError)
        # armed faults keep the engine on its per-step path: no attempt
        assert counters == {"batched": 0, "replayed": 0}


class TestSuiteCoverage:
    @pytest.mark.parametrize("seed", [20190216, 7])
    def test_suite_batches_60_loop_entries(self, seed):
        totals = {"batched": 0, "replayed": 0}
        replayed = set()
        for kernel in all_kernels():
            inputs = kernel.make_inputs(random.Random(seed))
            for config in ALL_CONFIGS:
                compiled = compile_module(kernel.build(), config, DEFAULT_TARGET)
                _, counters = _execute(
                    compiled.module, "batched", [kernel.trip_count], inputs=inputs,
                    memory_size=1 << 20, function=kernel.function,
                )
                for key in totals:
                    totals[key] += counters[key]
                if counters["replayed"]:
                    replayed.add(kernel.name)
        assert totals == {"batched": 60, "replayed": 4}
        assert replayed == {"serial-dependence"}


_STREAM_ELEMENTS = {"i1": I1, "i8": I8, "i32": I32, "i64": I64, "f32": F32, "f64": F64}


class TestMemoryStreams:
    """``read_stream``/``write_stream`` against one ``load_value`` or
    ``store_value`` per iteration, over every stride shape: contiguous,
    gapped, overlapping (reads), reversed, misaligned and sparse."""

    @given(
        element=st.sampled_from(sorted(_STREAM_ELEMENTS)),
        lanes=st.sampled_from([1, 2, 4]),
        delta=st.integers(-70, 70),
        count=st.integers(1, 12),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=200)
    def test_read_stream_matches_loads(self, element, lanes, delta, count, seed):
        elem = _STREAM_ELEMENTS[element]
        type_ = elem if lanes == 1 else vector_of(elem, lanes)
        memory = Memory(2048)
        memory.write_bytes(1, random.Random(seed).randbytes(2047))
        addr = 1024 + seed % 16
        got = memory.read_stream(type_, addr, delta, count)
        rows = [memory.load_value(addr + k * delta, type_) for k in range(count)]
        want = rows if lanes == 1 else tuple(zip(*rows))
        if lanes == 1:
            assert [_bits(v) for v in got] == [_bits(v) for v in want]
        else:
            assert [[_bits(v) for v in lane] for lane in got] == \
                [[_bits(v) for v in lane] for lane in want]

    @given(
        element=st.sampled_from(sorted(_STREAM_ELEMENTS)),
        lanes=st.sampled_from([1, 2, 4]),
        gap=st.integers(0, 9),
        backwards=st.booleans(),
        count=st.integers(1, 12),
        seed=st.integers(0, 1000),
        bad=st.booleans(),
    )
    @settings(max_examples=200)
    def test_write_stream_matches_stores(
        self, element, lanes, gap, backwards, count, seed, bad
    ):
        elem = _STREAM_ELEMENTS[element]
        type_ = elem if lanes == 1 else vector_of(elem, lanes)
        size = max(elem.byte_width, 1) * lanes
        delta = -(size + gap) if backwards else size + gap
        rng = random.Random(seed)
        if elem in (F32, F64):
            rows = [[rng.uniform(-9.0, 9.0) for _ in range(lanes)] for _ in range(count)]
        else:
            rows = [[rng.randint(-300, 300) for _ in range(lanes)] for _ in range(count)]
        if bad:  # a value no store can pack: nothing may be written
            rows[rng.randrange(count)][0] = "x"
        column = [row[0] for row in rows] if lanes == 1 else \
            tuple(list(lane) for lane in zip(*rows))
        noise = rng.randbytes(2047)
        streamed, stepped = Memory(2048), Memory(2048)
        for memory in (streamed, stepped):
            memory.write_bytes(1, noise)
        addr = 1024 + seed % 16
        if bad:
            with pytest.raises(Exception):
                streamed.write_stream(type_, addr, delta, count, column)
            assert streamed.read_bytes(0, 2048) == stepped.read_bytes(0, 2048)
            return
        streamed.write_stream(type_, addr, delta, count, column)
        for k, row in enumerate(rows):
            stepped.store_value(addr + k * delta, type_, row[0] if lanes == 1 else tuple(row))
        assert streamed.read_bytes(0, 2048) == stepped.read_bytes(0, 2048)


class TestClosedForms:
    @given(
        start=st.integers(-40, 40),
        bound=st.integers(-40, 40),
        step=st.integers(1, 7),
    )
    @settings(max_examples=300)
    def test_trip_count_matches_iteration(self, start, bound, step):
        trips, iv = 0, start
        while iv < bound:
            trips, iv = trips + 1, iv + step
        assert trip_count(start, bound, step) == trips

    @given(
        x0=st.integers(-40, 40), dx=st.integers(-24, 24), sx=st.sampled_from([1, 4, 8, 16, 32]),
        y0=st.integers(-40, 40), dy=st.integers(-24, 24), sy=st.sampled_from([1, 4, 8, 16, 32]),
        trips=st.integers(0, 9),
    )
    @settings(max_examples=500)
    def test_reordered_is_exact_for_equal_strides_and_safe_otherwise(
        self, x0, dx, sx, y0, dy, sy, trips
    ):
        def overlap(kx, ky):
            a, b = x0 + kx * dx, y0 + ky * dy
            return a < b + sy and b < a + sx

        truth = any(overlap(kx, ky) for ky in range(trips) for kx in range(ky + 1, trips))
        for stride in (dx, dy):  # the equal-stride form is exact
            dx_, dy_ = stride, stride
            expect = any(
                x0 + kx * dx_ < y0 + ky * dy_ + sy and y0 + ky * dy_ < x0 + kx * dx_ + sx
                for ky in range(trips) for kx in range(ky + 1, trips)
            )
            assert reordered(x0, dx_, sx, y0, dy_, sy, trips) == expect
        if truth:  # never misses a conflict
            assert reordered(x0, dx, sx, y0, dy, sy, trips)


# -- random loop bodies --------------------------------------------------------------

_ELEMENTS = {"f64": F64, "f32": F32, "i64": I64, "i32": I32, "i8": I8}
_OPS = {
    True: ("fadd", "fsub", "fmul"),
    False: ("add", "sub", "mul", "xor"),
}


def _random_inputs(element, count, rng):
    if element in (F64, F32):
        return [rng.uniform(-4.0, 4.0) for _ in range(count)]
    return [rng.randint(-100, 100) for _ in range(count)]


statement = st.tuples(
    st.integers(0, 2),  # loaded array
    st.integers(0, 3),  # its offset
    st.integers(0, 2),  # the second loaded array
    st.integers(0, 3),  # its offset
    st.integers(0, 3),  # operator
    st.integers(0, 2),  # stored array
    st.integers(0, 3),  # its offset
)


@given(
    element=st.sampled_from(sorted(_ELEMENTS)),
    width=st.sampled_from([1, 2, 4]),
    step=st.integers(1, 4),
    trips=st.integers(0, 12),
    statements=st.lists(statement, min_size=1, max_size=4),
    seed=st.integers(0, 1000),
)
@settings(max_examples=120, deadline=None)
def test_random_loop_bodies_match_the_scalar_engine(
    element, width, step, trips, statements, seed
):
    elem = _ELEMENTS[element]
    is_float = elem in (F64, F32)
    type_ = elem if width == 1 else vector_of(elem, width)
    names = ("A", "B", "C")

    def body(b, i, env):
        for src, off, src2, off2, op, dst, doff in statements:
            ops = _OPS[is_float]
            x = b.load(env.pointer(names[src], i, off), type_)
            y = b.load(env.pointer(names[src2], i, off2), type_)
            value = getattr(b, ops[op % len(ops)])(x, y)
            b.store(value, env.pointer(names[dst], i, doff))

    count = 4 * 12 + 8
    module = loop_module(body, step=step, arrays=[(n, elem) for n in names], count=count)
    rng = random.Random(seed)
    inputs = {n: _random_inputs(elem, count, rng) for n in names}
    outcome, counters = run_both(module, [trips * step], inputs=inputs)
    assert outcome[0] == "ok"
    assert counters["batched"] + counters["replayed"] == 1
