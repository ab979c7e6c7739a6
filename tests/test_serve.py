"""Tests for the compile service and its chaos hardening.

Covers the lifecycle contract of :mod:`repro.serve` — crash → respawn +
requeue with results still bit-identical to serial, graceful drain,
typed timeout/cancel/backpressure errors — plus the shared cross-worker
store (LRU eviction, corruption-as-miss), the marshal-time satellite
fix, the JSONL wire protocol, and the CLI exit-code convention.

Also covered: the resilience layer (immediate retries, then serial
fallback), wire hardening (frame limits, client reconnect, concurrent
socket clients), the repro-source cache fingerprint, and the no-escape
contract: every service fault scenario must classify as ``recovered``
or ``degraded``, never ``escaped``/``fatal``.
"""

import io
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.bench import run_kernel_matrix, run_suite_parallel
from repro.bench.parallel import _run_pair
from repro.bench.runner import DEFAULT_SEED
from repro.fuzz import run_campaign
from repro.kernels import kernel_named
from repro.observe import REMARK, Tracer
from repro.observe.session import CompilerSession, use_session
from repro.serve.service import (
    CompileService,
    RemoteTaskError,
    ServiceOverloaded,
    TaskCancelled,
    TaskTimeout,
    WorkerCrashed,
)
from repro.robust.faults import FaultInjector
from repro.serve.chaos import (
    _bench_workload,
    _execute_scenario,
    _fuzz_workload,
    _socket_workload,
    chaos_scenarios,
)
from repro.serve import resilience
from repro.serve.resilience import MAX_RETRIES, ResilientExecutor, run_batch
from repro.serve.wire import (
    MAX_FRAME_BYTES,
    ServiceClient,
    SocketServer,
    serve_stream,
)
from repro.vectorizer import (
    LSLP_CONFIG,
    O3_CONFIG,
    SNSLP_CONFIG,
    CompileCache,
    cached_compile_module,
    compile_module,
)
from repro.vectorizer.cache import (
    SharedJsonStore,
    cache_key,
    repro_source_fingerprint,
)

MOTIVATING = ("motiv-leaf-reorder", "motiv-trunk-reorder")

#: the per-process source fingerprint folded into every cache key
FINGERPRINT = "repro.vectorizer.cache._SOURCE_FINGERPRINT"

#: a cold bench pair: (kernel, config, target, seed, mask, journal) —
#: the same PairPayload the bench driver ships
PAIR = ("motiv-leaf-reorder", "SN-SLP", "skylake-like", DEFAULT_SEED, 0, False)


def service_session() -> CompilerSession:
    return CompilerSession(name="test-serve")


def _store_stress_worker(directory, worker, start, rounds, max_entries, keys):
    """Put and get overlapping keys of one bounded store; exit non-zero
    on a read that returns another key's document or finds a torn one."""
    store = SharedJsonStore(directory, namespace="t", max_entries=max_entries)
    start.wait(timeout=60)  # every worker imported: run the rounds together
    for index in range(rounds):
        key = f"k{(worker * 5 + index) % keys}"
        store.put(key, {"key": key, "worker": worker, "pad": "x" * 2048})
        wanted = f"k{(index * 3) % keys}"
        doc = store.get(wanted)
        if store.last_get == "corrupt" or (doc is not None and doc["key"] != wanted):
            sys.exit(3)


class TestServiceLifecycle:
    def test_health_check_reports_every_worker(self):
        session = service_session()
        with CompileService(workers=2, session=session, name="t-health") as svc:
            reports = svc.health_check()
        assert len(reports) == 2
        pids = {report["pid"] for report in reports}
        assert all(isinstance(pid, int) for pid in pids)
        assert os.getpid() not in pids  # genuinely out-of-process

    def test_crash_respawns_requeues_and_stays_bit_identical(self, tmp_path):
        """A worker dying mid-task is respawned and the task requeued;
        the retried result matches a serial run bit-for-bit."""
        expected, _ = _run_pair(PAIR)
        marker = str(tmp_path / "crash-once.json")
        session = service_session()
        with CompileService(
            workers=1, retries=1, session=session, name="t-crash"
        ) as svc:
            future = svc.submit(
                "crash-once",
                {"marker": marker, "kind": "bench-pair", "payload": (PAIR, False)},
            )
            run, capture = future.result(timeout=60)
        crashed_pid = json.loads(open(marker).read())["pid"]
        assert capture["pid"] != crashed_pid  # retry ran in a respawn
        assert run.cycles == expected.cycles
        assert run.counters == expected.counters
        assert run.outputs == expected.outputs
        assert session.stats.value("serve.worker_crashes") >= 1
        assert session.stats.value("serve.requeued") >= 1

    def test_repeated_crash_surfaces_worker_crashed(self):
        session = service_session()
        with CompileService(
            workers=1, retries=0, session=session, name="t-crashhard"
        ) as svc:
            future = svc.submit("crash", 11)
            with pytest.raises(WorkerCrashed):
                future.result(timeout=30)
            # the slot was respawned; the service still answers
            assert svc.submit("ping").result(timeout=30)["pid"] > 0

    def test_crash_is_charged_only_to_the_task_it_died_on(self):
        """The tasks pipelined behind the one that killed the worker never
        started: with ``retries=0`` only that task fails, and the others
        rerun on the respawned worker in their submission order."""
        session = service_session()
        with CompileService(
            workers=1, retries=0, session=session, name="t-crash-charge"
        ) as svc:
            # the sleep keeps the worker busy while the rest are pipelined
            # behind it, so all of them are in its pipe when it dies
            first = svc.submit("sleep", 0.3)
            crash = svc.submit("crash", 11)
            pings = [svc.submit("ping") for _ in range(2)]
            assert first.result(timeout=30) == 0.3
            with pytest.raises(WorkerCrashed):
                crash.result(timeout=30)
            done = [ping.result(timeout=30)["tasks_done"] for ping in pings]
        assert done == [0, 1]  # on the fresh worker, in submission order
        assert session.stats.value("serve.worker_crashes") == 1

    def test_graceful_shutdown_drains_inflight(self):
        session = service_session()
        svc = CompileService(workers=1, session=session, name="t-drain")
        futures = [svc.submit("sleep", 0.1) for _ in range(3)]
        svc.close(drain=True)
        assert [future.result(timeout=0) for future in futures] == [0.1] * 3
        assert session.stats.value("serve.completed") == 3

    def test_timeout_is_typed_and_service_survives(self):
        session = service_session()
        with CompileService(
            workers=1, retries=0, session=session, name="t-timeout"
        ) as svc:
            future = svc.submit("sleep", 30.0, timeout=0.2)
            ping = svc.submit("ping")  # pipelined behind the sleep
            with pytest.raises(TaskTimeout):
                future.result(timeout=30)
            # the wedged worker was killed on the expired task; the ping
            # never ran there, so a fresh worker answers it uncharged
            assert ping.result(timeout=30)["tasks_done"] == 0
        assert session.stats.value("serve.timeouts") == 1
        assert session.stats.value("serve.worker_crashes") == 1

    def test_cancel_is_typed(self):
        session = service_session()
        with CompileService(workers=1, session=session, name="t-cancel") as svc:
            first = svc.submit("sleep", 0.3)
            second = svc.submit("sleep", 0.3)
            assert svc.cancel(second) is True
            with pytest.raises(TaskCancelled):
                second.result(timeout=0)
            assert first.result(timeout=30) == 0.3
        assert session.stats.value("serve.cancelled") == 1

    def test_bounded_queue_backpressure(self):
        session = service_session()
        with CompileService(
            workers=1, max_pending=1, session=session, name="t-bp"
        ) as svc:
            first = svc.submit("sleep", 0.3)
            with pytest.raises(ServiceOverloaded):
                svc.submit("ping", block=False)
            assert first.result(timeout=30) == 0.3
            # slot freed: submissions flow again
            assert svc.submit("ping", block=False).result(timeout=30)

    def test_worker_exception_carries_remote_type(self):
        with CompileService(workers=1, session=service_session(),
                            name="t-remote") as svc:
            future = svc.submit("no-such-kind", None)
            with pytest.raises(RemoteTaskError) as info:
                future.result(timeout=30)
        assert info.value.remote_type == "ValueError"
        assert "no-such-kind" in info.value.remote_message


class TestServiceEquivalence:
    def test_service_bench_matches_serial_cold_and_warm(self, tmp_path):
        """The acceptance contract: suite results through the service —
        cold, and again warm from the shared result cache — equal the
        serial run on every deterministic field."""
        kernels = [kernel_named(name) for name in MOTIVATING]
        session = service_session()
        with CompileService(
            workers=2, cache_dir=str(tmp_path), session=session, name="t-eq"
        ) as svc:
            cold = run_suite_parallel(kernels, jobs=2, service=svc)
            warm = run_suite_parallel(kernels, jobs=2, service=svc)
        assert session.stats.value("serve.task_cache.misses") > 0
        assert session.stats.value("serve.task_cache.hits") > 0
        for kernel in kernels:
            serial = run_kernel_matrix(kernel)
            for config_name, expected in serial.items():
                for suite in (cold, warm):
                    run = suite[kernel.name][config_name]
                    assert run.cycles == expected.cycles, (kernel.name, config_name)
                    assert run.instructions == expected.instructions
                    assert run.counters == expected.counters, (kernel.name, config_name)
                    assert run.outputs == expected.outputs
                    assert run.correct == expected.correct is True
                    assert run.vectorized_graphs == expected.vectorized_graphs

    def test_fuzz_campaign_through_service_matches_serial(self):
        serial = run_campaign(budget="12", seed=5)
        session = service_session()
        with CompileService(workers=2, session=session, name="t-fuzz") as svc:
            via_service = run_campaign(budget="12", seed=5, service=svc)
        assert via_service.programs == serial.programs == 12
        assert dict(via_service.stats) == dict(serial.stats)
        assert via_service.ok and serial.ok

    def test_marshal_seconds_recorded_nonzero(self):
        """The satellite fix: submit times the real payload pickle, so a
        non-trivial batch records strictly positive marshal time (the old
        driver reported 0.0 across 64 tasks)."""
        session = service_session()
        session.metrics.enable()
        with use_session(session):
            with CompileService(workers=1, session=session, name="t-marshal") as svc:
                futures = [
                    svc.submit("bench-pair", (PAIR, False), shard_key=PAIR[0])
                    for _ in range(4)
                ]
                for future in futures:
                    future.result(timeout=120)
        assert session.stats.value("parallel.marshal_seconds") > 0.0
        histogram = session.metrics.histograms["parallel.task.marshal_seconds"]
        assert histogram.count == 4
        assert histogram.total > 0.0


class TestSharedStore:
    def test_lru_eviction_counts_and_keeps_recent(self, tmp_path):
        session = service_session()
        with use_session(session):
            store = SharedJsonStore(str(tmp_path), namespace="t", max_entries=3)
            for index in range(5):
                store.put(f"key{index}", {"value": index})
                time.sleep(0.01)  # distinct recency stamps
        assert len(store) == 3
        assert store.keys() == ["key2", "key3", "key4"]
        assert session.stats.value("cache.evictions") == 2

    def test_hit_refreshes_recency(self, tmp_path):
        session = service_session()
        with use_session(session):
            store = SharedJsonStore(str(tmp_path), namespace="t", max_entries=2)
            store.put("a", {"value": 1})
            time.sleep(0.01)
            store.put("b", {"value": 2})
            time.sleep(0.01)
            assert store.get("a") == {"value": 1}  # touch: a newer than b
            time.sleep(0.01)
            store.put("c", {"value": 3})
        assert store.keys() == ["a", "c"]  # b was the LRU entry

    def test_corrupt_entry_is_miss_not_crash(self, tmp_path):
        session = service_session()
        with use_session(session):
            store = SharedJsonStore(str(tmp_path), namespace="t")
            store.put("good", {"value": 1})
            with open(store._path("good"), "w") as handle:
                handle.write("{truncated garba")
            assert store.get("good") is None
            assert store.last_get == "corrupt"
            assert store.get("good") is None  # deleted: now a plain miss
            assert store.last_get == "miss"
        assert session.stats.value("cache.corrupt_entries") == 1

    def test_stored_bytes_equal_json_dump_output(self, tmp_path):
        # the store writes through json.dumps; the files must read exactly
        # as json.dump would have written them
        doc = {
            "floats": [index / 7.0 - 3.3 for index in range(64)],
            "nested": {"b": [1, -2, None, True], "a": "text é \"quoted\""},
            "specials": [float("inf"), float("-inf"), -0.0, 1e-310],
        }
        with use_session(service_session()):
            store = SharedJsonStore(str(tmp_path), namespace="t")
            store.put("doc", doc)
        expected = io.StringIO()
        json.dump({"pid": os.getpid(), "doc": doc}, expected)
        with open(store._path("doc"), encoding="utf-8") as handle:
            assert handle.read() == expected.getvalue()

    def test_cross_worker_hits_are_counted(self, tmp_path):
        session = service_session()
        with use_session(session):
            store = SharedJsonStore(str(tmp_path), namespace="t")
            store.put("mine", {"value": 1})
            assert store.get("mine") == {"value": 1}
            # forge an entry "written" by another process
            with open(store._path("theirs"), "w") as handle:
                json.dump({"pid": os.getpid() + 1, "doc": {"value": 2}}, handle)
            assert store.get("theirs") == {"value": 2}
        assert session.stats.value("cache.cross_worker_hits") == 1

    def test_compile_cache_corrupt_entry_compiles_cold_with_remark(self, tmp_path):
        module = kernel_named("motiv-leaf-reorder").build()
        key = cache_key(module, SNSLP_CONFIG)
        cold_session = CompilerSession(name="cold")
        with use_session(cold_session):
            cold = cached_compile_module(
                module, SNSLP_CONFIG, cache=CompileCache(str(tmp_path)),
            )
        fresh = CompileCache(str(tmp_path))
        with open(fresh._store._path(key), "w") as handle:
            handle.write("not json at all")
        session = CompilerSession(name="corrupt")
        session.tracer.enable(REMARK)
        with use_session(session):
            result = cached_compile_module(module, SNSLP_CONFIG, cache=fresh)
        assert result.counters == cold.counters
        assert result.report.config_name == cold.report.config_name
        corrupt = [
            r for r in session.tracer.of("remark")
            if r.message.startswith("cache_corrupt")
        ]
        assert len(corrupt) == 1
        assert corrupt[0].args["key"] == key
        assert session.stats.value("cache.corrupt_entries") == 1
        # the poisoned file is gone and the recompile re-seeded the store
        warm = CompileCache(str(tmp_path))
        assert warm.lookup(key) is not None
        assert warm.last_lookup == "hit"

    def test_hot_entry_survives_eviction(self, tmp_path):
        """Hits refresh an entry's recency on disk: an entry looked up
        since a colder one was stored outlives it, and the namespace
        never holds more entries than the bound."""
        module = kernel_named(MOTIVATING[0]).build()
        configs = (SNSLP_CONFIG, LSLP_CONFIG, O3_CONFIG)  # A, B, C
        keys = [cache_key(module, config) for config in configs]
        results = [compile_module(module, config) for config in configs]
        namespace = tmp_path / "compile"

        def entries():
            return sorted(
                name[:-5] for name in os.listdir(namespace)
                if name.endswith(".json") and not name.startswith(".")
            )

        held = []
        with use_session(service_session()):
            cache = CompileCache(str(tmp_path), max_entries=2)
            for key, result in zip(keys[:2], results[:2]):
                cache.store(key, result)
                held.append(len(entries()))
                time.sleep(0.01)  # distinct recency stamps
            for _ in range(3):
                assert cache.lookup(keys[0]) is not None
                held.append(len(entries()))
                time.sleep(0.01)
            cache.store(keys[2], results[2])
            held.append(len(entries()))
        assert entries() == sorted([keys[0], keys[2]])  # B was the LRU entry
        assert max(held) <= 2

    def test_hit_touches_only_its_own_entry(self, tmp_path):
        """A hit rewrites nothing: every file in the namespace, dotfiles
        included, keeps its name, size and mtime except the entry read,
        whose mtime alone moves."""

        def snapshot(directory):
            files = {
                name: os.stat(os.path.join(directory, name))
                for name in os.listdir(directory)
            }
            return {
                name: (stat.st_size, stat.st_mtime_ns)
                for name, stat in files.items()
            }

        with use_session(service_session()):
            store = SharedJsonStore(str(tmp_path), namespace="t", max_entries=4)
            for key in ("a", "b", "c"):
                store.put(key, {"value": key})
            time.sleep(0.01)  # distinct recency stamps
            before = snapshot(store.directory)
            assert store.get("b") == {"value": "b"}
            after = snapshot(store.directory)
        assert set(after) == set(before)
        changed = {name for name in before if before[name] != after[name]}
        assert changed == {"b.json"}
        assert after["b.json"][0] == before["b.json"][0]
        assert after["b.json"][1] > before["b.json"][1]

    def test_concurrent_writers_and_lock_free_readers(self, tmp_path):
        """More worker processes than cores hammer one bounded store:
        no read sees a torn or foreign document, nothing raises, and
        once every put has evicted the namespace is within its bound."""
        context = multiprocessing.get_context("spawn")
        count = min(8, (os.cpu_count() or 2) + 2)
        start = context.Barrier(count)
        workers = [
            context.Process(
                target=_store_stress_worker,
                args=(str(tmp_path), worker, start, 300, 6, 16),
            )
            for worker in range(count)
        ]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=120)
        assert not any(process.is_alive() for process in workers)
        assert [process.exitcode for process in workers] == [0] * len(workers)
        store = SharedJsonStore(str(tmp_path), namespace="t")
        assert 0 < len(store) <= 6

    def test_cache_shared_across_services(self, tmp_path):
        """Two successive services over one cache directory: the second
        pool's (new) workers hit entries the first pool's workers wrote."""
        kernels = [kernel_named(MOTIVATING[0])]
        first_session = service_session()
        with CompileService(
            workers=2, cache_dir=str(tmp_path),
            session=first_session, name="t-gen1",
        ) as svc:
            run_suite_parallel(kernels, jobs=2, service=svc)
        assert first_session.stats.value("serve.task_cache.misses") > 0
        second_session = service_session()
        with CompileService(
            workers=2, cache_dir=str(tmp_path),
            session=second_session, name="t-gen2",
        ) as svc:
            run_suite_parallel(kernels, jobs=2, service=svc)
        assert second_session.stats.value("serve.task_cache.hits") > 0
        assert second_session.stats.value("cache.cross_worker_hits") > 0


class TestWireProtocol:
    def test_stream_roundtrip(self):
        requests = "\n".join([
            json.dumps({"id": 1, "kind": "ping"}),
            json.dumps({"id": 2, "kind": "bench",
                        "kernel": "motiv-leaf-reorder", "config": "SN-SLP"}),
            json.dumps({"id": 3, "kind": "frobnicate"}),
            "this is not json",
            json.dumps({"id": 4, "kind": "stats"}),
            json.dumps({"id": 5, "kind": "shutdown"}),
        ]) + "\n"
        out = io.StringIO()
        with CompileService(workers=1, session=service_session(),
                            name="t-wire") as svc:
            shutdown = serve_stream(svc, io.StringIO(requests), out)
        assert shutdown is True
        responses = {
            doc.get("id"): doc
            for doc in map(json.loads, out.getvalue().splitlines())
        }
        assert responses[1]["ok"] and responses[1]["result"]["pid"] > 0
        assert responses[2]["ok"]
        run = responses[2]["result"]["run"]
        assert run["kernel"] == "motiv-leaf-reorder"
        assert run["cycles"] > 0
        assert not responses[3]["ok"]
        assert responses[3]["error"]["type"] == "BadRequest"
        assert not responses[None]["ok"]  # the unparseable line
        assert responses[4]["result"]["workers"][0]["pid"] > 0
        assert responses[5]["result"] == {"shutdown": True}

    def test_socket_server_and_client(self, tmp_path):
        path = str(tmp_path / "serve.sock")
        with CompileService(workers=1, session=service_session(),
                            name="t-sock") as svc:
            server = SocketServer(svc, path)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            with ServiceClient(path) as client:
                assert client.request({"kind": "ping"})["ok"]
                responses = client.batch([
                    {"kind": "bench", "kernel": "motiv-leaf-reorder",
                     "config": "O3"},
                    {"kind": "ping"},
                ])
                assert all(doc["ok"] for doc in responses)
                assert responses[0]["result"]["run"]["config"] == "O3"
                assert client.request({"kind": "shutdown"})["ok"]
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert not os.path.exists(path)


class TestResilience:
    def test_retry_recovers_bit_identical_results(self):
        """A transient worker fault is retried against the same service;
        the retried result equals a serial run bit-for-bit."""
        expected, _ = _run_pair(PAIR)
        session = service_session()
        with CompileService(
            workers=1, session=session, name="t-retry",
            fault_plans=[("serve.task.error", "raise", 0, True)],
        ) as svc:
            results = ResilientExecutor(svc, session=session).run_batch(
                [("bench-pair", (PAIR, False), PAIR[0], 1.0)]
            )
        run, _capture = results[0]
        assert run.cycles == expected.cycles
        assert run.counters == expected.counters
        assert run.outputs == expected.outputs
        assert session.stats.value("serve.retries") >= 1
        assert session.stats.value("serve.degraded") == 0

    def test_retry_does_not_sleep(self, monkeypatch):
        """A failed task goes straight back into the service's queue,
        which dispatches only to live workers: nothing waits first."""
        sleeps = []
        monkeypatch.setattr(resilience, "time", SimpleNamespace(
            perf_counter=time.perf_counter,
            perf_counter_ns=time.perf_counter_ns,
            sleep=sleeps.append,
        ))
        expected, _ = _run_pair(PAIR)
        session = service_session()
        with CompileService(
            workers=1, session=session, name="t-retry-nosleep",
            fault_plans=[("serve.task.error", "raise", 0, True)],
        ) as svc:
            results = ResilientExecutor(svc, session=session).run_batch(
                [("bench-pair", (PAIR, False), PAIR[0], 1.0)]
            )
        run, _capture = results[0]
        assert run.cycles == expected.cycles
        assert run.counters == expected.counters
        assert run.outputs == expected.outputs
        assert session.stats.value("serve.retries") == 1
        assert sleeps == []

    def test_exhausted_retries_run_serially(self, monkeypatch):
        """A task that fails on every attempt is resubmitted
        ``MAX_RETRIES`` times, then runs serially in-process with the
        serial run's result."""
        submits = []
        submit = CompileService.submit

        def spy(service, kind, payload=None, **kwargs):
            submits.append(kind)
            return submit(service, kind, payload, **kwargs)

        monkeypatch.setattr(CompileService, "submit", spy)
        expected, _ = _run_pair(PAIR)
        session = service_session()
        with CompileService(
            workers=1, session=session, name="t-retry-exhausted",
            fault_plans=[("serve.task.error", "raise", 0, False)],
        ) as svc:
            results = ResilientExecutor(svc, session=session).run_batch(
                [("bench-pair", (PAIR, False), PAIR[0], 1.0)]
            )
        run, _capture = results[0]
        assert run.cycles == expected.cycles
        assert run.counters == expected.counters
        assert run.outputs == expected.outputs
        assert len(submits) == 1 + MAX_RETRIES
        assert session.stats.value("serve.retries") == 2
        assert session.stats.value("serve.degraded") == 1

    def test_no_service_degrades_to_serial_with_identical_results(self):
        """The bottom rung: no service at all, tasks still complete with
        results identical to a direct serial run."""
        expected, _ = _run_pair(PAIR)
        session = service_session()
        session.tracer.enable(REMARK)
        results = ResilientExecutor(None, session=session).run_batch(
            [("bench-pair", (PAIR, False), None, 1.0)]
        )
        run, _capture = results[0]
        assert run.cycles == expected.cycles
        assert run.counters == expected.counters
        assert run.outputs == expected.outputs
        assert session.stats.value("serve.degraded") == 1
        rungs = [
            remark.args["rung"]
            for remark in session.tracer.of("remark", "recovery")
        ]
        assert rungs == ["serial"]


class TestRunBatch:
    """``run_batch``: the one dispatch call bench and fuzz share."""

    #: later tasks finish first on two workers, so completion order is
    #: not task order
    TASKS = [("sleep", seconds, None, 1.0) for seconds in (0.15, 0.1, 0.05)]
    EXPECTED = [0.15, 0.1, 0.05]

    def test_ephemeral_service_keeps_task_order_and_leaves_no_workers(self):
        before = set(multiprocessing.active_children())
        done = {}
        results = run_batch(
            self.TASKS, 2, service_session(),
            on_done=lambda index, seconds: done.__setitem__(index, seconds),
        )
        assert results == self.EXPECTED
        assert sorted(done) == [0, 1, 2]
        assert all(seconds > 0 for seconds in done.values())
        assert set(multiprocessing.active_children()) <= before

    def test_caller_owned_service_keeps_task_order_and_stays_open(self):
        session = service_session()
        with CompileService(workers=2, session=session, name="t-batch") as svc:
            assert run_batch(self.TASKS, 2, session, service=svc) == self.EXPECTED
            assert svc.submit("ping").result(timeout=30)["pid"] > 0

    def test_resilient_path_keeps_task_order(self):
        session = service_session()
        with CompileService(
            workers=2, session=session, name="t-batch-resilient",
            fault_plans=[("serve.task.error", "raise", 0, True)],
        ) as svc:
            results = run_batch(
                self.TASKS, 2, session, service=svc, resilient=True
            )
        assert results == self.EXPECTED
        assert session.stats.value("serve.retries") >= 1

    def test_resilient_path_without_service_starts_an_ephemeral_one(self):
        before = set(multiprocessing.active_children())
        session = service_session()
        results = run_batch(self.TASKS, 2, session, resilient=True)
        assert results == self.EXPECTED
        assert session.stats.value("serve.completed") == len(self.TASKS)
        assert session.stats.value("serve.degraded") == 0
        assert set(multiprocessing.active_children()) <= before


@pytest.fixture(scope="module")
def chaos_baselines():
    """Fault-free workload fingerprints, computed once for the module."""
    session = CompilerSession(name="t-chaos-baseline")
    baselines = {
        "bench": _bench_workload(session, (MOTIVATING[0],), None),
        "fuzz": _fuzz_workload(session, 0, 8, None),
    }
    socket_session = CompilerSession(name="t-chaos-baseline-sock")
    with CompileService(
        workers=2, session=socket_session, name="t-chaos-base"
    ) as svc:
        baselines["socket"], _ = _socket_workload(socket_session, svc)
    return baselines


class TestChaosNoEscape:
    @pytest.mark.parametrize(
        "scenario", chaos_scenarios(), ids=lambda scenario: scenario.name
    )
    def test_armed_scenario_never_escapes(self, scenario, chaos_baselines):
        """The no-escape contract over every service (site, mode): each
        armed scenario finishes recovered or degraded — bit-identical to
        the fault-free baseline — and the fault verifiably fired."""
        status, detail, _counters = _execute_scenario(
            scenario,
            repetition=0,
            seed=0,
            baselines=chaos_baselines,
            kernel_names=(MOTIVATING[0],),
            fuzz_programs=8,
        )
        assert status in ("recovered", "degraded"), (scenario.name, detail)
        assert "did not fire" not in detail, (scenario.name, detail)

    @pytest.mark.parametrize(
        "scenario",
        [s for s in chaos_scenarios() if s.name.startswith("respawn-fail-")],
        ids=lambda scenario: scenario.name,
    )
    def test_respawn_failure_degrades_only_to_serial(
        self, scenario, chaos_baselines, monkeypatch
    ):
        """With its only worker gone for good the service cannot run a
        task; every descent lands on the one rung below it, serial
        in-process execution."""
        rungs = []
        remark = Tracer.remark

        def spy(tracer, kind, pass_name, message, /, **args):
            if pass_name == "resilience" and "rung" in args:
                rungs.append(args["rung"])
            return remark(tracer, kind, pass_name, message, **args)

        monkeypatch.setattr(Tracer, "remark", spy)
        status, detail, counters = _execute_scenario(
            scenario,
            repetition=0,
            seed=0,
            baselines=chaos_baselines,
            kernel_names=(MOTIVATING[0],),
            fuzz_programs=8,
        )
        assert status == "degraded", (scenario.name, detail)
        assert rungs and set(rungs) == {"serial"}
        assert len(rungs) == counters["serve.degraded"]


class TestChaosReplay:
    """What a chaos run reports does not depend on when results come
    back: its status, ``serve.degraded`` and ``serve.retries`` replay."""

    @staticmethod
    def scenario(name):
        return next(s for s in chaos_scenarios() if s.name == name)

    def test_fuzz_chunk_retries_stay_on_their_worker(self, monkeypatch):
        """Every submission of a fuzz chunk carries the chunk's shard key,
        so a chunk whose worker raised is retried on that worker, whose
        once-armed fault has fired: each of the two workers fails its
        chunk once and each retry succeeds."""
        keys = []
        submit = CompileService.submit

        def spy(service, kind, payload=None, **kwargs):
            keys.append(kwargs.get("shard_key"))
            return submit(service, kind, payload, **kwargs)

        monkeypatch.setattr(CompileService, "submit", spy)
        session = CompilerSession(name="t-chaos-fuzz16")
        baselines = {"fuzz": _fuzz_workload(session, 0, 16, None)}
        status, detail, counters = _execute_scenario(
            self.scenario("task-error-fuzz"),
            repetition=0,
            seed=0,
            baselines=baselines,
            kernel_names=(MOTIVATING[0],),
            fuzz_programs=16,
        )
        assert status == "recovered", detail
        assert counters["serve.errors"] == 2
        assert counters["serve.retries"] == 2
        assert len(keys) == 4 and None not in keys
        assert len(set(keys[:2])) == 2
        assert sorted(keys[2:]) == sorted(keys[:2])

    def test_wedged_worker_is_killed_once(self, chaos_baselines):
        """The stalled task is requeued without its old start stamp, so
        the stall detector waits for it to begin on the respawned worker
        instead of killing that worker too."""
        status, detail, counters = _execute_scenario(
            self.scenario("stall-bench"),
            repetition=0,
            seed=0,
            baselines=chaos_baselines,
            kernel_names=(MOTIVATING[0],),
            fuzz_programs=8,
        )
        assert status == "recovered", detail
        assert counters["serve.wedged_workers"] == 1
        assert counters["serve.worker_crashes"] == 1


class TestWireHardening:
    def test_oversized_frame_draws_typed_error(self):
        big = json.dumps({"id": 1, "kind": "ping", "pad": "x" * MAX_FRAME_BYTES})
        requests = "\n".join([
            big,
            json.dumps({"id": 2, "kind": "ping"}),
            json.dumps({"id": 3, "kind": "shutdown"}),
        ]) + "\n"
        out = io.StringIO()
        with CompileService(workers=1, session=service_session(),
                            name="t-frame") as svc:
            serve_stream(svc, io.StringIO(requests), out)
        responses = {
            doc.get("id"): doc
            for doc in map(json.loads, out.getvalue().splitlines())
        }
        assert not responses[None]["ok"]
        assert responses[None]["error"]["type"] == "FrameTooLarge"
        # the loop survived: later frames on the same stream still answer
        assert responses[2]["ok"]
        assert responses[3]["result"] == {"shutdown": True}

    def test_non_object_frame_draws_bad_request(self):
        requests = "\n".join([
            json.dumps([1, 2, 3]),
            json.dumps({"id": 2, "kind": "shutdown"}),
        ]) + "\n"
        out = io.StringIO()
        with CompileService(workers=1, session=service_session(),
                            name="t-nonobj") as svc:
            serve_stream(svc, io.StringIO(requests), out)
        responses = {
            doc.get("id"): doc
            for doc in map(json.loads, out.getvalue().splitlines())
        }
        assert not responses[None]["ok"]
        assert responses[None]["error"]["type"] == "BadRequest"
        assert responses[2]["ok"]

    def test_client_reconnects_after_server_drop(self, tmp_path):
        """The server drops the connection mid-session (injected fault);
        the client reconnects once, resends, and every request answers."""
        path = str(tmp_path / "serve.sock")
        session = service_session()
        session.faults = FaultInjector()
        session.faults.arm(
            "serve.socket.disconnect", "raise", skip=2, once=True
        )
        with CompileService(workers=1, session=session, name="t-recon") as svc:
            server = SocketServer(svc, path)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                with ServiceClient(path, max_reconnects=1) as client:
                    responses = client.batch(
                        [{"kind": "ping"} for _ in range(5)]
                    )
                    assert client.reconnects == 1
            finally:
                server.request_shutdown()
                thread.join(timeout=10)
        assert len(responses) == 5
        assert all(doc["ok"] for doc in responses)

    def test_reconnect_budget_exhaustion_raises(self, tmp_path):
        path = str(tmp_path / "serve.sock")
        session = service_session()
        session.faults = FaultInjector()
        session.faults.arm("serve.socket.disconnect", "raise", skip=0)
        with CompileService(workers=1, session=session, name="t-budget") as svc:
            server = SocketServer(svc, path)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                with pytest.raises(ConnectionError):
                    with ServiceClient(path, max_reconnects=1) as client:
                        client.batch([{"kind": "ping"} for _ in range(4)])
            finally:
                server.request_shutdown()
                thread.join(timeout=10)

    def test_concurrent_socket_clients(self, tmp_path):
        """Several clients share one socket server; each gets its own
        stream state and every request answers on the right connection."""
        path = str(tmp_path / "serve.sock")
        results = {}
        errors = []

        def drive(index: int) -> None:
            try:
                with ServiceClient(path) as client:
                    results[index] = client.batch(
                        [{"kind": "ping"} for _ in range(3)]
                    )
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((index, exc))

        with CompileService(workers=2, session=service_session(),
                            name="t-multi") as svc:
            server = SocketServer(svc, path)
            server_thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            server_thread.start()
            try:
                clients = [
                    threading.Thread(target=drive, args=(index,))
                    for index in range(3)
                ]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=30)
            finally:
                server.request_shutdown()
                server_thread.join(timeout=10)
        assert not errors
        assert sorted(results) == [0, 1, 2]
        for responses in results.values():
            assert len(responses) == 3
            assert all(doc["ok"] for doc in responses)


class TestSourceFingerprint:
    def test_cache_key_folds_source_fingerprint(self, monkeypatch):
        """Simulated code change (patched fingerprint) → different cache
        keys, so persistent stores warmed by an older checkout miss
        cleanly."""
        module = kernel_named(MOTIVATING[0]).build()
        monkeypatch.setattr(FINGERPRINT, "checkout-a")
        key_a = cache_key(module, SNSLP_CONFIG)
        monkeypatch.setattr(FINGERPRINT, "checkout-b")
        key_b = cache_key(module, SNSLP_CONFIG)
        assert key_a != key_b
        monkeypatch.setattr(FINGERPRINT, None)  # recomputed from the sources
        assert cache_key(module, SNSLP_CONFIG) not in (key_a, key_b)

    def test_fingerprint_is_stable_within_a_checkout(self):
        assert repro_source_fingerprint() == repro_source_fingerprint()
        assert len(repro_source_fingerprint()) == 16

    def test_stale_store_entries_miss_after_code_change(
        self, tmp_path, monkeypatch
    ):
        module = kernel_named(MOTIVATING[0]).build()
        monkeypatch.setattr(FINGERPRINT, "old-checkout")
        with use_session(CompilerSession(name="warm")):
            cached_compile_module(
                module, SNSLP_CONFIG, cache=CompileCache(str(tmp_path)),
            )
        monkeypatch.setattr(FINGERPRINT, "new-checkout")
        fresh = CompileCache(str(tmp_path))
        assert fresh.lookup(cache_key(module, SNSLP_CONFIG)) is None

    def test_leftover_recency_index_is_ignored(self, tmp_path):
        """An older checkout kept a ``.index.json`` recency map beside
        the entries; a garbage one left behind is not an entry: every
        document stays readable and eviction stays exact."""
        session = service_session()
        with use_session(session):
            store = SharedJsonStore(str(tmp_path), namespace="t", max_entries=2)
            leftover = os.path.join(store.directory, ".index.json")
            with open(leftover, "w", encoding="utf-8") as handle:
                handle.write('{"entries": {truncated garbage')
            store.put("a", {"value": 1})
            time.sleep(0.01)  # distinct recency stamps
            store.put("b", {"value": 2})
            time.sleep(0.01)
            assert store.get("a") == {"value": 1}
            assert store.get("b") == {"value": 2}
            time.sleep(0.01)
            store.put("c", {"value": 3})
        assert store.keys() == ["b", "c"]  # a was the LRU entry
        assert os.path.exists(leftover)
        assert session.stats.value("cache.evictions") == 1
        assert session.stats.value("cache.corrupt_entries") == 0


class TestCLIExitCodes:
    def test_service_timeout_exits_with_budget_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "bench",
             "--kernel", "motiv-leaf-reorder", "--jobs", "1",
             "--service", "--service-timeout", "0.000001"],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 5, proc.stderr
        assert "deadline" in proc.stderr
