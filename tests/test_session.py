"""Tests for CompilerSession: reentrancy, parallel drivers, compile memo.

The contract: compilation is reentrant (interleaved compiles never
bleed counters into each other), the parallel benchmark driver is
bit-identical to the serial one, and a hit in the ``compile`` task's
store replies exactly what the cold compile replied.
"""

import dataclasses
from concurrent.futures import ThreadPoolExecutor

from repro.bench import run_kernel_matrix, run_kernel_matrix_parallel, run_suite_parallel
from repro.ir import parse_module, print_module
from repro.kernels import kernel_named
from repro.observe import DEFAULT_SESSION, STAT
from repro.observe.session import (
    CompilerSession,
    current_session,
    current_stats,
    use_session,
)
from repro.serve.tasks import WorkerState, run_task
from repro.vectorizer import SNSLP_CONFIG, clone_module, compile_module

MOTIVATING = ("motiv-leaf-reorder", "motiv-trunk-reorder")


class TestSessionBasics:
    def test_derive_shares_tracer_but_not_stats(self):
        parent = CompilerSession(name="parent")
        child = parent.derive(name="child")
        assert child.tracer is parent.tracer
        assert child.stats is not parent.stats

    def test_use_session_scopes_ambient_lookup(self):
        session = CompilerSession(name="scoped")
        assert current_session() is not session
        with use_session(session):
            assert current_session() is session
            assert current_stats() is session.stats
        assert current_session() is not session

    def test_stat_proxy_records_into_active_session(self):
        handle = STAT("test.session.scratch", "scratch counter")
        a, b = CompilerSession(name="a"), CompilerSession(name="b")
        with use_session(a):
            handle.add(2)
        with use_session(b):
            handle.add(5)
            assert handle.value == 5
        assert a.stats.value("test.session.scratch") == 2
        assert b.stats.value("test.session.scratch") == 5
        assert "test.session.scratch" not in DEFAULT_SESSION.stats.snapshot()


class TestReentrantCompilation:
    def test_interleaved_compiles_have_disjoint_correct_counters(self):
        """Two compilations racing on a thread pool each snapshot exactly
        their own counters (the historical global-registry design made
        this impossible: reset-on-entry corrupted whichever compile was
        mid-flight)."""
        module_a = kernel_named("motiv-leaf-reorder").build()
        module_b = kernel_named("sphinx-dot-product").build()
        expect_a = compile_module(module_a, SNSLP_CONFIG).counters
        expect_b = compile_module(module_b, SNSLP_CONFIG).counters
        assert expect_a != expect_b  # distinct kernels -> distinct profiles

        global_before = DEFAULT_SESSION.stats.snapshot()
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in range(4):  # repeat to actually interleave phases
                fut_a = pool.submit(compile_module, module_a, SNSLP_CONFIG)
                fut_b = pool.submit(compile_module, module_b, SNSLP_CONFIG)
                assert fut_a.result().counters == expect_a
                assert fut_b.result().counters == expect_b
        # nothing leaked into the process-default registry either
        assert DEFAULT_SESSION.stats.snapshot() == global_before

    def test_explicit_session_accumulates_across_compiles(self):
        module = kernel_named("motiv-leaf-reorder").build()
        one = compile_module(module, SNSLP_CONFIG).counters
        session = CompilerSession(name="accumulating")
        compile_module(module, SNSLP_CONFIG, session=session)
        result = compile_module(module, SNSLP_CONFIG, session=session)
        assert result.counters == {name: 2 * value for name, value in one.items()}


class TestParallelEquivalence:
    def test_matrix_parallel_matches_serial_bit_for_bit(self):
        kernel = kernel_named("motiv-leaf-reorder")
        serial = run_kernel_matrix(kernel)
        parallel = run_kernel_matrix_parallel(kernel, jobs=4)
        assert set(serial) == set(parallel)
        for name in serial:
            s, p = serial[name], parallel[name]
            assert p.cycles == s.cycles
            assert p.instructions == s.instructions
            assert p.counters == s.counters
            assert p.outputs == s.outputs
            assert p.correct == s.correct is True
            assert p.vectorized_graphs == s.vectorized_graphs

    def test_suite_parallel_matches_serial_over_motivating_kernels(self):
        kernels = [kernel_named(name) for name in MOTIVATING]
        suite = run_suite_parallel(kernels, jobs=4)
        for kernel in kernels:
            serial = run_kernel_matrix(kernel)
            for name, expected in serial.items():
                run = suite[kernel.name][name]
                assert run.cycles == expected.cycles, (kernel.name, name)
                assert run.counters == expected.counters, (kernel.name, name)
                assert run.correct == expected.correct is True

    def test_suite_via_explicit_service_matches_serial(self):
        """PR 7: the same suite routed through a caller-owned
        CompileService (warm workers, no result cache) stays
        bit-identical to the serial run."""
        from repro.serve.service import CompileService

        kernels = [kernel_named(name) for name in MOTIVATING]
        session = CompilerSession(name="service-equivalence")
        with CompileService(workers=2, session=session, name="eq") as service:
            suite = run_suite_parallel(kernels, jobs=2, service=service)
        for kernel in kernels:
            serial = run_kernel_matrix(kernel)
            for name, expected in serial.items():
                run = suite[kernel.name][name]
                assert run.cycles == expected.cycles, (kernel.name, name)
                assert run.counters == expected.counters, (kernel.name, name)
                assert run.outputs == expected.outputs, (kernel.name, name)
                assert run.correct == expected.correct is True

    def test_jobs_one_falls_back_to_serial_inline(self):
        kernel = kernel_named("motiv-trunk-reorder")
        assert (
            run_kernel_matrix_parallel(kernel, jobs=1)[SNSLP_CONFIG.name].cycles
            == run_kernel_matrix(kernel)[SNSLP_CONFIG.name].cycles
        )

    def test_jobs_one_builds_each_kernel_once(self, monkeypatch):
        """``jobs=1`` runs the build-once matrix runner: one build per
        kernel for all four configurations, not one per pair."""
        from repro.kernels import suite as registry

        builds = {}
        for name in MOTIVATING:
            kernel = kernel_named(name)

            def counting_build(build=kernel.build, name=name):
                builds[name] = builds.get(name, 0) + 1
                return build()

            monkeypatch.setitem(
                registry._REGISTRY, name,
                dataclasses.replace(kernel, build=counting_build),
            )
        kernels = [kernel_named(name) for name in MOTIVATING]
        suite = run_suite_parallel(kernels, jobs=1)
        assert builds == {name: 1 for name in MOTIVATING}
        assert all(
            run.correct for runs in suite.values() for run in runs.values()
        )


class TestCompileMemo:
    """The ``compile`` task's store: a hit replies exactly what the cold
    compile replied, across store instances, and the key tells configs
    and unroll factors apart."""

    @staticmethod
    def payload(kernel: str, config: str = "SN-SLP", unroll: int = 0):
        return {
            "text": print_module(kernel_named(kernel).build()),
            "language": "ir", "config": config, "target": None,
            "unroll": unroll, "cache": True,
        }

    def test_hit_equals_cold_compile(self, tmp_path):
        payload = self.payload("motiv-leaf-reorder")
        session = CompilerSession(name="cache-test")
        state = WorkerState(index=-1, session=session, cache_dir=str(tmp_path))
        with use_session(session):
            cold = run_task("compile", payload, state)
            warm = run_task("compile", payload, state)
        assert session.stats.value("serve.task_cache.misses") == 1
        assert session.stats.value("serve.task_cache.hits") == 1
        assert (cold["cached"], warm["cached"]) == (False, True)
        assert warm["module"] == cold["module"]
        assert warm["counters"] == cold["counters"]
        assert warm["compile_seconds"] == cold["compile_seconds"]
        assert dict(warm, cached=False) == cold

    def test_cache_persists_across_instances(self, tmp_path):
        payload = self.payload("motiv-trunk-reorder")
        session = CompilerSession(name="cache-disk")
        with use_session(session):
            cold, warm = (
                run_task("compile", payload, WorkerState(
                    index=-1, session=session, cache_dir=str(tmp_path),
                ))
                for _ in range(2)
            )
        assert session.stats.value("serve.task_cache.hits") == 1
        assert warm["counters"] == cold["counters"]
        assert warm["module"] == cold["module"]

    def test_key_distinguishes_config_and_unroll(self, tmp_path):
        session = CompilerSession(name="cache-key")
        state = WorkerState(index=-1, session=session, cache_dir=str(tmp_path))
        with use_session(session):
            for config, unroll in (("SN-SLP", 0), ("LSLP", 0), ("SN-SLP", 2)):
                run_task(
                    "compile",
                    self.payload("motiv-leaf-reorder", config, unroll),
                    state,
                )
        assert session.stats.value("serve.task_cache.misses") == 3
        assert session.stats.value("serve.task_cache.hits") == 0


class TestStructuralClone:
    def test_structural_clone_matches_text_round_trip(self):
        for name in MOTIVATING + ("sphinx-dot-product", "milc-su3-cmul"):
            module = kernel_named(name).build()
            assert print_module(clone_module(module)) == print_module(
                parse_module(print_module(module))
            ), name
