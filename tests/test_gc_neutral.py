"""A GC-neutral IR: ownership, refcount teardown, and the collector's spans.

A :class:`~repro.ir.function.Function` owns its blocks and instructions;
nothing inside it owns the function or its module.  When a function is
freed it drops its IR's references, so dropped modules, and everything a
compile builds on the way, die by reference counting: the cyclic
collector only ever walks live objects.
"""

import gc
import os
import random
import subprocess
import sys
import weakref

import pytest

from repro.frontend import compile_source
from repro.ir import (
    I64, VOID, Function, GlobalBuffer, IRBuilder, Module, verify_function, verify_module,
)
from repro.ir.instructions import StoreInst
from repro.kernels.suite import all_kernels, kernel_named
from repro.machine import DEFAULT_TARGET
from repro.observe import DECISION, REMARK, CompilerSession, use_session
from repro.observe.profile import build_trees
from repro.sim import simulate
from repro.vectorizer import ALL_CONFIGS, SNSLP_CONFIG, compile_module
from repro.vectorizer.slp import SLPVectorizer

from conftest import build_simple_store_module


def _signed_sum(name: str, lanes: int, terms: int, ctype: str, rng: random.Random) -> str:
    """Mini-C: each lane stores the same signed sum of ``terms`` arrays,
    the terms in a per-lane shuffled order (the shape Super-Nodes grow on)."""
    minus = [j > 0 and rng.random() < 0.4 for j in range(terms)]
    arrays = ["A"] + [f"B{j}" for j in range(terms)]
    lines = [" ".join(f"{ctype} {a}[256];" for a in arrays), f"kernel {name}(n) {{"]
    lines.append(f"  for (i = 0; i < n; i += {lanes}) {{")
    for lane in range(lanes):
        order = [0] + rng.sample(range(1, terms), terms - 1)
        expr = f"B{order[0]}[i+{lane}]"
        for j in order[1:]:
            expr += f" {'-' if minus[j] else '+'} B{j}[i+{lane}]"
        lines.append(f"    A[i+{lane}] = {expr};")
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


def _compile_and_simulate_everything() -> None:
    """The compile paths a benchmark op takes: every suite kernel under
    every config, simulated; wide signed sums from mini-C source; and one
    pass with remarks and decisions armed."""
    for kernel in all_kernels():
        inputs = kernel.make_inputs(random.Random(0))
        for config in ALL_CONFIGS:
            compiled = compile_module(kernel.build(), config, DEFAULT_TARGET)
            simulate(
                compiled.module, kernel.function, DEFAULT_TARGET,
                [kernel.trip_count], inputs=inputs,
            )
    rng = random.Random(20190216)
    for terms in range(3, 9):
        for ctype in ("double", "long"):
            name = f"sum{terms}{ctype[0]}"
            module = compile_source(_signed_sum(name, 8, terms, ctype, rng), name)
            for config in ALL_CONFIGS:
                compile_module(module, config, DEFAULT_TARGET)
    session = CompilerSession(name="armed")
    session.tracer.enable(REMARK | DECISION)
    with use_session(session):
        for kernel in all_kernels():
            compile_module(kernel.build(), SNSLP_CONFIG, DEFAULT_TARGET)
    assert session.tracer.of("decision")


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestNoCyclicGarbage:
    def test_compiles_leave_no_cyclic_garbage(self, collector_off):
        _compile_and_simulate_everything()
        assert gc.collect() == 0

    def test_dropping_a_module_frees_its_instructions_at_once(self, collector_off):
        module = compile_module(
            kernel_named("motiv-trunk-reorder").build(), SNSLP_CONFIG
        ).module
        function = next(iter(module.functions.values()))
        block = function.entry
        inst = block.instructions[0]
        refs = [weakref.ref(obj) for obj in (module, function, block, inst)]
        del module, function, block, inst
        assert [ref() for ref in refs] == [None] * 4


class TestOwnership:
    def test_function_outlives_its_module(self):
        kernel = kernel_named("motiv-leaf-reorder")
        inputs = kernel.make_inputs(random.Random(0))
        module = compile_module(kernel.build(), SNSLP_CONFIG).module
        expected = simulate(
            module, kernel.function, DEFAULT_TARGET, [kernel.trip_count], inputs=inputs
        )
        function = module.function(kernel.function)
        module_ref = weakref.ref(module)
        del module
        gc.collect()
        assert module_ref() is None and function.parent is None
        verify_function(function)
        # a new module around the held function: its globals are the
        # function's own operands
        home = Module("home")
        for inst in function.instructions():
            for op in inst.operands:
                if isinstance(op, GlobalBuffer):
                    home.globals[op.name] = op
        home.add_function(function)
        verify_module(home)
        again = simulate(
            home, kernel.function, DEFAULT_TARGET, [kernel.trip_count], inputs=inputs
        )
        assert again.cycles == expected.cycles
        assert again.globals_after == {
            name: expected.globals_after[name] for name in again.globals_after
        }

    def test_held_instruction_and_block_are_detached(self):
        module = build_simple_store_module(4)
        function = module.function("kernel")
        block = function.entry
        store = next(i for i in block if isinstance(i, StoreInst))
        del module, function
        gc.collect()
        assert block.parent is None and len(block) == 0
        assert store.parent is None
        assert store.num_operands == 0 and store.num_uses == 0

    def test_globals_keep_exact_use_lists(self):
        """A freed function removes exactly its own records from the use
        lists of the module's globals."""
        module = build_simple_store_module(4)
        other = module.add_function(Function("other", [("i", I64)], VOID))
        builder = IRBuilder(other.add_block("entry"))
        index = other.arguments[0]
        loaded = builder.load(builder.gep(module.global_named("B"), index))
        builder.store(loaded, builder.gep(module.global_named("A"), index))
        builder.ret()
        before = {name: buffer.num_uses for name, buffer in module.globals.items()}
        del module.functions["other"], other, builder, index, loaded
        verify_module(module)
        for name, buffer in module.globals.items():
            slots = sum(
                op is buffer
                for inst in module.function("kernel").instructions()
                for op in inst.operands
            )
            assert buffer.num_uses == slots == before[name] - (name in "AB")


class TestConsumedInstructionsStayAlive:
    def test_consumed_instruction_outlives_its_function(self):
        """``consumed_ids`` names instructions codegen erased; while the
        vectorizer lives, none of them may be freed and its id reused."""
        module = build_simple_store_module(4)
        stores = [i for i in module.function("kernel").instructions() if isinstance(i, StoreInst)]
        vectorizer = SLPVectorizer(DEFAULT_TARGET, SNSLP_CONFIG)
        vectorizer.run_on_module(module)
        erased = [weakref.ref(s) for s in stores if s.parent is None]
        assert erased and all(id(ref()) in vectorizer.consumed_ids for ref in erased)
        del module, stores
        gc.collect()
        assert all(ref() is not None for ref in erased)
        del vectorizer
        assert all(ref() is None for ref in erased)


class TestCollectorSpans:
    def _compile_with_forced_collection(self, session, monkeypatch):
        import repro.vectorizer.slp as slp

        sweep = slp.eliminate_dead_code

        def sweep_then_collect(function):
            sweep(function)
            gc.collect()

        monkeypatch.setattr(slp, "eliminate_dead_code", sweep_then_collect)
        gc.collect()
        gc.disable()
        try:
            with use_session(session):
                compile_module(kernel_named("motiv-leaf-reorder").build(), SNSLP_CONFIG)
        finally:
            gc.enable()

    def test_traced_collection_is_one_nested_gc_span(self, monkeypatch):
        session = CompilerSession(name="traced")
        session.tracer.enable()
        self._compile_with_forced_collection(session, monkeypatch)
        (collection,) = session.tracer.named("gc")
        assert collection.args == {"generation": 2, "collected": 0}

        def parents_of(nodes, parent=None):
            for node in nodes:
                if node.event is collection:
                    yield parent
                yield from parents_of(node.children, node.event)

        (parent,) = parents_of(build_trees(session.tracer.events))
        assert parent is not None and parent.name == "slp.function"
        assert collection.depth == parent.depth + 1

    def test_untraced_collection_records_nothing(self, monkeypatch):
        session = CompilerSession(name="untraced")
        self._compile_with_forced_collection(session, monkeypatch)
        assert session.tracer.events == []

    def test_collection_during_a_session_switch_leaves_no_stale_session(self):
        # A collection that starts inside ``use_session``'s set or reset
        # (each allocates the context's new mapping) runs the hook while
        # the switch is half done.  Reading the session there with
        # ``ContextVar.get()`` left CPython's per-variable cache holding the
        # session being replaced: ``current_session()`` then returned a
        # freed session and the interpreter crashed.  A subprocess, so a
        # crash fails this test instead of ending the run.
        script = (
            "import contextvars, gc\n"
            "from repro.observe import DEFAULT_SESSION, CompilerSession,"
            " current_session, use_session\n"
            "pad = [contextvars.ContextVar(f'pad{i}') for i in range(40)]\n"
            "for i, var in enumerate(pad):\n"
            "    var.set(i)\n"
            "sessions = [CompilerSession(name=f's{i}') for i in range(2000)]\n"
            "gc.set_threshold(1)\n"
            "while sessions:\n"
            "    with use_session(sessions.pop()):\n"
            "        pass\n"
            "    assert current_session() is DEFAULT_SESSION\n"
            "print('ok')\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (proc.returncode, proc.stdout.strip()) == (0, "ok"), proc.stderr[-2000:]
