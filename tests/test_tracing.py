"""Tests for distributed tracing + live introspection (PR 10).

Covers the request-scoped :class:`~repro.observe.context.TraceContext`
plumbing: spans minted client-side, carried over the pool pipe into
workers, and reassembled into one causally-linked tree per request —
correct across crash → respawn + requeue (same trace id, incremented
attempt), client retries, and the degradation ladder (serial rung
parents into the originating request).  Plus the structured event log, the ``(pid, generation)``
Chrome-trace tracks, the ``stats``/slow-log introspection surface, the
``repro_build_info`` exposition gauge, and the tracing-off bit-identity
contract.
"""

import json

import pytest

from repro.bench.parallel import _run_pair, run_suite_parallel
from repro.bench.runner import DEFAULT_SEED
from repro.kernels import kernel_named
from repro.observe import (
    LOG,
    TraceContext,
    current_trace_context,
    load_chrome_trace,
    load_records,
    mint_context,
    use_trace_context,
    validate_span_tree,
    write_records,
)
from repro.observe.metrics import MetricsRegistry
from repro.observe.session import CompilerSession, use_session
from repro.observe.trace import TraceEvent, Tracer
from repro.serve.resilience import ResilientExecutor
from repro.serve.service import CompileService

MOTIVATING = ("motiv-leaf-reorder", "motiv-trunk-reorder")

#: a cold bench pair: (kernel, config, target, seed, mask, journal) —
#: the same PairPayload the bench driver ships
PAIR = ("motiv-leaf-reorder", "SN-SLP", "skylake-like", DEFAULT_SEED, 0, False)


def traced_session(name: str = "t-tracing") -> CompilerSession:
    session = CompilerSession(name=name)
    session.tracer.enable()
    return session


def spans_named(session: CompilerSession, name: str):
    return [event for event in session.tracer.events if event.name == name]


class TestTraceContext:
    def test_wire_and_doc_round_trips(self):
        context = TraceContext(trace_id="a" * 16, span_id="b" * 12, attempt=3)
        assert TraceContext.from_wire(context.to_wire()) == context
        assert TraceContext.from_doc(context.to_doc()) == context
        assert context.traceparent().startswith("00-")

    def test_from_doc_rejects_garbage(self):
        assert TraceContext.from_doc(None) is None
        assert TraceContext.from_doc("nope") is None
        assert TraceContext.from_doc({}) is None
        assert TraceContext.from_doc({"span_id": "x"}) is None

    def test_child_keeps_trace_retry_keeps_span(self):
        root = mint_context()
        child = root.child("c" * 12)
        assert child.trace_id == root.trace_id
        assert child.span_id != root.span_id
        retried = root.retry()
        assert retried.trace_id == root.trace_id
        assert retried.span_id == root.span_id
        assert retried.attempt == root.attempt + 1

    def test_ambient_context_is_scoped(self):
        assert current_trace_context() is None
        context = mint_context()
        with use_trace_context(context):
            assert current_trace_context() == context
        assert current_trace_context() is None

    def test_minted_ids_are_distinct(self):
        contexts = [mint_context() for _ in range(32)]
        assert len({c.trace_id for c in contexts}) == 32
        assert len({c.span_id for c in contexts}) == 32


class TestEventLog:
    def test_disabled_log_records_nothing(self):
        log = Tracer()
        log.log("error", "boom", "should be dropped")
        assert log.events == []

    def test_threshold_filters_below_level(self):
        log = Tracer()
        log.enable(LOG)
        log.level = "warn"
        log.log("debug", "noise", "no")
        log.log("info", "noise", "no")
        log.log("warn", "kept", "yes")
        log.log("error", "kept", "yes")
        assert [event.kind for event in log.events] == ["warn", "error"]

    def test_jsonl_round_trip(self, tmp_path):
        log = Tracer()
        log.enable(LOG)
        log.level = "debug"
        context = mint_context()
        log.log("info", "greet", "hello", trace_id=context.trace_id, n=1)
        log.log("warn", "trouble", "uh oh", rung="serial")
        path = str(tmp_path / "events.jsonl")
        write_records(path, log.of("log"))
        loaded = load_records(path)
        assert [event.name for event in loaded] == ["greet", "trouble"]
        assert loaded[0].trace_id == context.trace_id
        assert loaded[0].args == {"n": 1}
        # every line is a self-contained JSON object
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                assert json.loads(line)["event"] in ("greet", "trouble")

    def test_trace_correlation(self):
        log = Tracer()
        log.enable(LOG)
        a, b = mint_context(), mint_context()
        log.log("info", "one", "for a", trace_id=a.trace_id)
        log.log("info", "two", "for b", trace_id=b.trace_id)
        assert [
            e.name for e in log.of("log") if e.trace_id == a.trace_id
        ] == ["one"]


class TestChromeTraceTracks:
    def test_tracks_key_on_pid_and_generation(self, tmp_path):
        tracer = Tracer(enabled=True)
        for generation in (0, 2):
            tracer.events.append(
                TraceEvent(
                    name="compile", start_ns=0, duration_ns=1000, depth=0,
                    pid=5, generation=generation,
                    trace_id="t" * 16, span_id=f"s{generation}" * 6,
                )
            )
        doc = tracer.to_chrome_trace()
        tracks = {
            (int(event["args"]["worker_pid"]),
             int(event["args"]["worker_generation"])): event["pid"]
            for event in doc["traceEvents"]
            if event.get("ph") == "X"
        }
        # the OS reuses pids across respawns: same pid, different
        # generation must land on different tracks
        assert tracks[(5, 0)] != tracks[(5, 2)]
        names = {
            event["args"]["name"]
            for event in doc["traceEvents"]
            if event.get("name") == "process_name"
        }
        assert "worker pid 5 gen 2" in names

    def test_write_load_round_trip_preserves_linkage(self, tmp_path):
        tracer = Tracer(enabled=True)
        tracer.events.append(
            TraceEvent(
                name="worker:task", start_ns=1000, duration_ns=5000,
                depth=0, pid=7, generation=1, trace_id="a" * 16,
                span_id="b" * 12, parent_id="c" * 12,
            )
        )
        path = str(tmp_path / "trace.json")
        tracer.write_chrome_trace(path)
        loaded = load_chrome_trace(path)
        assert len(loaded) == 1
        event = loaded[0]
        assert (event.pid, event.generation) == (7, 1)
        assert (event.trace_id, event.span_id, event.parent_id) == (
            "a" * 16, "b" * 12, "c" * 12
        )


class TestBuildInfo:
    def test_exposition_carries_build_info_gauge(self):
        registry = MetricsRegistry(enabled=True)
        text = registry.render_exposition()
        line = next(
            line for line in text.splitlines()
            if line.startswith("repro_build_info{")
        )
        assert 'fingerprint="' in line
        assert 'format="' in line
        assert line.endswith("} 1")


class TestServiceTracing:
    def test_request_spans_link_client_to_worker(self):
        session = traced_session()
        with CompileService(workers=1, session=session, name="t-span") as svc:
            svc.submit("ping").result(timeout=30)
        events = session.tracer.events
        assert validate_span_tree(events) == []
        (root,) = spans_named(session, "serve:request")
        (queue,) = spans_named(session, "serve:queue")
        (task,) = spans_named(session, "worker:task")
        assert root.trace_id and root.parent_id == ""
        assert queue.trace_id == root.trace_id
        assert queue.parent_id == root.span_id
        assert task.trace_id == root.trace_id
        assert task.parent_id == root.span_id
        assert task.pid != 0 and root.pid == 0
        assert root.args["status"] == "ok"

    def test_crash_requeue_keeps_trace_and_increments_attempt(self, tmp_path):
        """The acceptance path: a worker dies mid-request, the respawned
        worker reruns it under the *same* trace id with attempt+1."""
        marker = str(tmp_path / "crash-once.json")
        session = traced_session()
        with CompileService(
            workers=1, retries=1, session=session, name="t-crashtrace"
        ) as svc:
            future = svc.submit(
                "crash-once",
                {"marker": marker, "kind": "ping", "payload": None},
            )
            assert future.result(timeout=60)["pid"] > 0
        events = session.tracer.events
        assert validate_span_tree(events) == []
        (root,) = spans_named(session, "serve:request")
        assert root.args["attempts"] == 2
        (task,) = spans_named(session, "worker:task")
        # the first attempt's spans died with the worker; the surviving
        # span is the requeue, in the respawned (generation 1) process
        assert task.trace_id == root.trace_id
        assert task.args["attempt"] == 1
        assert task.generation == 1
        assert session.stats.value("serve.requeued") >= 1

    def test_tracing_off_is_bit_identical_and_span_free(self):
        expected, _ = _run_pair(PAIR)
        quiet = CompilerSession(name="t-quiet")
        with CompileService(workers=1, session=quiet, name="t-off") as svc:
            run, _capture = svc.submit(
                "bench-pair", (PAIR, False)
            ).result(timeout=60)
        assert quiet.tracer.events == []
        assert run.cycles == expected.cycles
        assert run.counters == expected.counters
        assert run.outputs == expected.outputs


class TestResilienceTracing:
    def test_degrade_to_serial_parents_into_request(self):
        expected, _ = _run_pair(PAIR)
        session = traced_session()
        results = ResilientExecutor(None, session=session).run_batch(
            [("bench-pair", (PAIR, False), None, 1.0)]
        )
        run, _capture = results[0]
        assert run.cycles == expected.cycles
        assert run.outputs == expected.outputs
        assert session.stats.value("serve.degraded") == 1
        (client,) = spans_named(session, "client:request")
        (serial,) = spans_named(session, "serial:task")
        assert serial.trace_id == client.trace_id
        assert serial.parent_id == client.span_id
        assert client.args["status"] == "degraded"
        assert serial.args["kind"] == "bench-pair"
        assert validate_span_tree(session.tracer.events) == []

    def test_retry_shares_trace_with_incremented_attempt(self):
        session = traced_session()
        with CompileService(
            workers=1, session=session, name="t-retrytrace",
            fault_plans=[("serve.task.error", "raise", 0, True)],
        ) as svc:
            results = ResilientExecutor(svc, session=session).run_batch(
                [("ping", None, None, 1.0)]
            )
        assert results[0]["pid"] > 0
        assert session.stats.value("serve.retries") >= 1
        (client,) = spans_named(session, "client:request")
        requests = spans_named(session, "serve:request")
        assert len(requests) == 2  # failed attempt + retry, one trace
        assert {span.trace_id for span in requests} == {client.trace_id}
        statuses = [span.args["status"] for span in requests]
        assert "ok" in statuses and any(s != "ok" for s in statuses)
        # the faulted attempt died before its worker span opened; the
        # surviving worker span carries the client's retry attempt number
        (task,) = spans_named(session, "worker:task")
        assert task.trace_id == client.trace_id
        assert task.args["attempt"] == 1
        assert validate_span_tree(session.tracer.events) == []


class TestServiceBenchTracing:
    def test_full_service_bench_has_zero_orphan_spans(self):
        """Acceptance: a traced ``bench --service`` run yields one
        causally-linked span tree per request and no orphan worker
        spans — and the results stay bit-identical to serial."""
        kernels = [kernel_named(name) for name in MOTIVATING]
        serial = run_suite_parallel(kernels, jobs=1)
        session = traced_session(name="t-bench-trace")
        with use_session(session):
            with CompileService(
                workers=2, session=session, name="t-trace-bench"
            ) as svc:
                traced = run_suite_parallel(kernels, jobs=2, service=svc)
        events = session.tracer.events
        assert validate_span_tree(events) == []
        roots = spans_named(session, "serve:request")
        worker_spans = [event for event in events if event.pid != 0]
        assert roots and worker_spans
        assert {event.trace_id for event in worker_spans} <= {
            root.trace_id for root in roots
        }
        for kernel_name, matrix in serial.items():
            for config_name, expected in matrix.items():
                run = traced[kernel_name][config_name]
                assert run.cycles == expected.cycles, (kernel_name, config_name)
                assert run.outputs == expected.outputs

    def test_ephemeral_pool_compiles_on_every_worker(self):
        """A pool started for one call balances pairs by load.  Pinned by
        kernel name, both motivating kernels hash to one of two workers
        and the other idles."""
        kernels = [kernel_named(name) for name in MOTIVATING]
        serial = run_suite_parallel(kernels, jobs=1)
        session = traced_session(name="t-ephemeral-balance")
        with use_session(session):
            parallel = run_suite_parallel(kernels, jobs=2)
        pids = {event.pid for event in spans_named(session, "compile")}
        assert len(pids) == 2 and 0 not in pids, pids

        def row(run):
            return (
                run.cycles, run.instructions, run.vectorized_graphs,
                run.attempted_graphs, run.node_count,
                run.aggregate_node_size, run.average_node_size,
                run.outputs, run.correct, run.counters,
            )

        for kernel_name, matrix in serial.items():
            for config_name, expected in matrix.items():
                assert row(parallel[kernel_name][config_name]) == row(
                    expected
                ), (kernel_name, config_name)


class TestIntrospection:
    def test_describe_reports_latency_and_cache_fields(self):
        session = CompilerSession(name="t-describe")
        with CompileService(workers=2, session=session, name="t-desc") as svc:
            for _ in range(3):
                svc.submit("ping").result(timeout=30)
            doc = svc.describe()
        assert doc["breaker"] == ""
        assert 0.0 <= doc["cache_hit_rate"] <= 1.0
        assert doc["turnaround_seconds"]["p99"] > 0.0
        assert doc["queue_seconds"]["p50"] <= doc["queue_seconds"]["p99"]
        for worker in doc["workers"]:
            assert worker["inflight"] == 0
            assert "generation" in worker

    def test_slow_log_records_structured_breakdown(self):
        session = CompilerSession(name="t-slowlog")
        with CompileService(
            workers=1, session=session, name="t-slow", slow_log_seconds=0.0
        ) as svc:
            svc.submit("ping").result(timeout=30)
            records = list(svc.slow_records)
        assert records
        record = records[0]
        assert record["kind"] == "ping"
        assert record["status"] == "ok"
        assert record["turnaround_seconds"] >= record["queue_seconds"]
        for key in ("marshal_seconds", "worker_seconds", "payload_bytes"):
            assert key in record

    def test_slow_log_off_by_default(self):
        session = CompilerSession(name="t-noslow")
        with CompileService(workers=1, session=session, name="t-ns") as svc:
            svc.submit("ping").result(timeout=30)
            assert list(svc.slow_records) == []
