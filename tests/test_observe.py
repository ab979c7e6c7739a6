"""Observability tests: tracer spans, statistic counters, remarks, and the
instrumentation contracts of the compilation pipeline."""

import json

import pytest

from repro.kernels import all_kernels, kernel_named
from repro.machine import DEFAULT_TARGET
from repro.observe import (
    DEFAULT_SESSION,
    STAT,
    Remark,
    RemarkCollector,
    StatsRegistry,
    Tracer,
    load_remarks,
)
from repro.observe.trace import _NULL_SPAN
from repro.vectorizer import LSLP_CONFIG, SNSLP_CONFIG, compile_module
from repro.vectorizer.pipeline import PIPELINE_PHASES


@pytest.fixture
def tracer():
    t = Tracer(enabled=True)
    yield t


class TestTracer:
    def test_span_nesting_depths(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        # children complete (and append) before their parent
        names = [e.name for e in tracer.events]
        assert names == ["inner", "inner", "outer"]
        outer = tracer.named("outer")[0]
        assert outer.depth == 0
        assert all(e.depth == 1 for e in tracer.named("inner"))

    def test_children_nest_within_parent(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.named("outer")[0]
        inner = tracer.named("inner")[0]
        assert outer.contains(inner)
        assert not inner.contains(outer)
        assert inner.duration_ns <= outer.duration_ns

    def test_total_ns_sums_same_named_spans(self, tracer):
        for _ in range(3):
            with tracer.span("work"):
                pass
        assert len(tracer.named("work")) == 3
        assert tracer.total_ns("work") == sum(
            e.duration_ns for e in tracer.named("work")
        )

    def test_disabled_tracer_records_nothing(self):
        t = Tracer()  # disabled by default
        with t.span("anything", detail=1):
            pass
        assert t.events == []
        # disabled spans are one shared no-op object: no per-call allocation
        assert t.span("a") is _NULL_SPAN
        assert t.span("a") is t.span("b")

    def test_span_args_recorded(self, tracer):
        with tracer.span("compile", config="SN-SLP"):
            pass
        assert tracer.events[0].args == {"config": "SN-SLP"}

    def test_chrome_trace_shape(self, tracer):
        with tracer.span("outer", config="SN-SLP"):
            with tracer.span("inner"):
                pass
        doc = tracer.to_chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(spans) == 2
        # one process_name metadata record labels the (pid, generation) track
        assert meta and all(m["name"] == "process_name" for m in meta)
        for event in spans:
            assert set(event) >= {"name", "ts", "dur", "pid", "tid"}
        by_name = {e["name"]: e for e in spans}
        assert by_name["outer"]["args"] == {"config": "SN-SLP"}

    def test_chrome_trace_file_roundtrip(self, tracer, tmp_path):
        with tracer.span("compile"):
            pass
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(str(path))
        loaded = json.loads(path.read_text())
        spans = [e for e in loaded["traceEvents"] if e["ph"] == "X"]
        assert spans[0]["name"] == "compile"

    def test_clear_resets_events_and_stack(self, tracer):
        with tracer.span("a"):
            pass
        tracer.clear()
        assert tracer.events == []


class TestTracerEdgeCases:
    def test_zero_duration_span_still_recorded_with_depth(self, tracer):
        with tracer.span("outer"):
            with tracer.span("instant"):
                pass  # may complete within one clock tick
        instant = tracer.named("instant")[0]
        assert instant.duration_ns >= 0
        assert instant.depth == 1

    def test_contains_is_inclusive_on_equal_intervals(self):
        from repro.observe.trace import TraceEvent

        a = TraceEvent(name="a", start_ns=100, duration_ns=50, depth=0)
        b = TraceEvent(name="b", start_ns=100, duration_ns=50, depth=1)
        # containment is symmetric for equal intervals — profile-tree
        # reconstruction must break the tie with the recorded depth
        assert a.contains(b) and b.contains(a)

    def test_contains_rejects_partial_overlap(self):
        from repro.observe.trace import TraceEvent

        a = TraceEvent(name="a", start_ns=0, duration_ns=100, depth=0)
        b = TraceEvent(name="b", start_ns=50, duration_ns=100, depth=1)
        assert not a.contains(b)
        assert not b.contains(a)

    def test_span_recorded_even_when_body_raises(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("failing"):
                    raise RuntimeError("boom")
        assert [e.name for e in tracer.events] == ["failing", "outer"]
        assert tracer._stack == []  # both spans unwound

    def test_depths_recover_after_exception(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("first"):
                raise ValueError
        with tracer.span("second"):
            pass
        assert tracer.named("second")[0].depth == 0

    def test_tracer_shared_across_derived_sessions(self):
        from repro.observe.session import CompilerSession, use_session
        from repro.observe.session import current_tracer

        parent = CompilerSession(name="parent")
        parent.tracer.enable()
        child = parent.derive(name="child")
        assert child.tracer is parent.tracer
        with use_session(child):
            with current_tracer().span("from-child"):
                pass
        assert [e.name for e in parent.tracer.events] == ["from-child"]

    def test_enable_mid_run_only_records_later_spans(self):
        t = Tracer()
        with t.span("before"):
            pass
        t.enable()
        with t.span("after"):
            pass
        assert [e.name for e in t.events] == ["after"]

    def test_disabled_tracer_span_is_shared_null(self):
        t = Tracer()
        assert t.span("a") is _NULL_SPAN
        assert t.span("b", arg=1) is _NULL_SPAN


class TestStats:
    def test_stat_returns_singleton_handle(self):
        registry = StatsRegistry()
        a = registry.stat("x.count", "first")
        b = registry.stat("x.count")
        assert a is b
        assert b.description == "first"

    def test_snapshot_only_nonzero(self):
        registry = StatsRegistry()
        registry.stat("a").add(2)
        registry.stat("b")  # stays zero
        registry.stat("c").add(0.5)
        assert registry.snapshot() == {"a": 2, "c": 0.5}

    def test_reset_zeros_in_place(self):
        registry = StatsRegistry()
        handle = registry.stat("a")
        handle.add(5)
        registry.reset()
        assert handle.value == 0
        assert registry.stat("a") is handle  # identity survives reset
        handle.add()
        assert registry.value("a") == 1

    def test_report_table(self):
        registry = StatsRegistry()
        registry.stat("slp.graphs", "graphs built").add(3)
        text = registry.report(title="T")
        assert text.splitlines()[0] == "===-- T --==="
        assert "3 slp.graphs - graphs built" in text

    def test_global_stat_shorthand(self):
        handle = STAT("test.observe.scratch")
        before = handle.value  # lazy proxy: reads the ambient registry
        handle.add()
        # materialized in the ambient (default) registry on first use
        assert "test.observe.scratch" in DEFAULT_SESSION.stats
        assert DEFAULT_SESSION.stats.value("test.observe.scratch") == before + 1
        DEFAULT_SESSION.stats.reset()

    def test_counters_reset_between_compilations(self):
        kernel = kernel_named("motiv-trunk-reorder")
        first = compile_module(kernel.build(), SNSLP_CONFIG, DEFAULT_TARGET)
        second = compile_module(kernel.build(), SNSLP_CONFIG, DEFAULT_TARGET)
        # identical compilations must report identical counters: nothing
        # leaks across compile_module calls
        assert first.counters == second.counters
        assert first.counters["slp.graphs-vectorized"] == 1
        # an O3 compile after SN-SLP starts from zero as well
        from repro.vectorizer import O3_CONFIG

        o3 = compile_module(kernel.build(), O3_CONFIG, DEFAULT_TARGET)
        assert "slp.graphs-built" not in o3.counters


class TestRemarks:
    def test_disabled_collector_is_inert(self):
        collector = RemarkCollector()
        assert collector.emit("passed", "slp", "msg") is None
        assert collector.remarks == []

    def test_jsonl_roundtrip(self, tmp_path):
        collector = RemarkCollector(enabled=True)
        collector.passed("slp", "vectorized", function="f", block="b", seed="store", cost=-6.0)
        collector.missed("slp", "not profitable", function="f", gather_reasons={"x": 2})
        collector.analysis("supernode", "shape", lanes=2)
        path = tmp_path / "remarks.jsonl"
        collector.write_jsonl(str(path))
        loaded = load_remarks(str(path))
        assert [r.to_dict() for r in loaded] == [
            r.to_dict() for r in collector.remarks
        ]
        assert loaded[0].kind == "passed"
        assert loaded[0].args["cost"] == -6.0
        assert loaded[1].args["gather_reasons"] == {"x": 2}

    def test_of_kind_filter(self):
        collector = RemarkCollector(enabled=True)
        collector.passed("slp", "a")
        collector.missed("slp", "b")
        collector.missed("slp", "c")
        assert len(collector.of_kind("missed")) == 2
        assert len(collector.of_kind("passed")) == 1

    def test_compile_emits_passed_and_missed_on_motivating_kernels(self):
        DEFAULT_SESSION.remarks.clear()
        DEFAULT_SESSION.remarks.enable()
        try:
            kernel = kernel_named("motiv-leaf-reorder")
            compile_module(kernel.build(), SNSLP_CONFIG, DEFAULT_TARGET)
            compile_module(kernel.build(), LSLP_CONFIG, DEFAULT_TARGET)
        finally:
            DEFAULT_SESSION.remarks.disable()
        kinds = {r.kind for r in DEFAULT_SESSION.remarks.remarks}
        assert "passed" in kinds  # SN-SLP vectorizes Figure 2
        assert "missed" in kinds  # LSLP rejects it on cost
        missed = DEFAULT_SESSION.remarks.of_kind("missed")[0]
        assert missed.pass_name == "slp"
        assert missed.function
        DEFAULT_SESSION.remarks.clear()


class TestPipelinePhases:
    def test_phase_seconds_sum_to_compile_seconds(self):
        kernel = kernel_named("motiv-trunk-reorder")
        result = compile_module(kernel.build(), SNSLP_CONFIG, DEFAULT_TARGET)
        assert set(result.phase_seconds) <= set(PIPELINE_PHASES)
        assert {"clone", "simplify", "vectorize", "verify"} <= set(
            result.phase_seconds
        )
        assert result.compile_seconds == sum(result.phase_seconds.values())
        assert all(v >= 0 for v in result.phase_seconds.values())

    def test_unroll_phase_only_when_requested(self):
        kernel = kernel_named("motiv-trunk-reorder")
        plain = compile_module(kernel.build(), SNSLP_CONFIG, DEFAULT_TARGET)
        assert "unroll" not in plain.phase_seconds
        unrolled = compile_module(
            kernel.build(), SNSLP_CONFIG, DEFAULT_TARGET, unroll_factor=2
        )
        assert "unroll" in unrolled.phase_seconds

    def test_tracing_disabled_by_default_during_compile(self):
        DEFAULT_SESSION.tracer.clear()
        kernel = kernel_named("motiv-trunk-reorder")
        compile_module(kernel.build(), SNSLP_CONFIG, DEFAULT_TARGET)
        assert DEFAULT_SESSION.tracer.events == []

    def test_trace_covers_phases_when_enabled(self):
        DEFAULT_SESSION.tracer.clear()
        DEFAULT_SESSION.tracer.enable()
        try:
            kernel = kernel_named("motiv-trunk-reorder")
            compile_module(kernel.build(), SNSLP_CONFIG, DEFAULT_TARGET)
        finally:
            DEFAULT_SESSION.tracer.disable()
        names = {e.name for e in DEFAULT_SESSION.tracer.events}
        assert {"compile", "phase:clone", "phase:vectorize", "slp.graph"} <= names
        compile_span = DEFAULT_SESSION.tracer.named("compile")[0]
        for phase in DEFAULT_SESSION.tracer.events:
            if phase.name.startswith("phase:"):
                assert compile_span.contains(phase)
        DEFAULT_SESSION.tracer.clear()


#: every (kernel, config) pair the paper's figures run
_PROPERTY_CASES = [
    pytest.param(kernel, config, id=f"{kernel.name}-{config.name}")
    for kernel in all_kernels()
    for config in (LSLP_CONFIG, SNSLP_CONFIG)
]


class TestCounterContracts:
    @pytest.mark.parametrize("kernel,config", _PROPERTY_CASES)
    def test_move_counters_match_supernode_records(self, kernel, config):
        """The trunk/leaf-move counters must equal the per-record sums: the
        transactional reorder (rolled-back placements and probes) may not
        leak into the global statistics."""
        result = compile_module(kernel.build(), config, DEFAULT_TARGET)
        records = result.report.formed_nodes(vectorized_only=False)
        assert result.counters.get("supernode.trunk-moves-applied", 0) == sum(
            r.trunk_swaps for r in records
        )
        assert result.counters.get("supernode.leaf-moves-applied", 0) == sum(
            r.leaf_swaps for r in records
        )

    def test_motivating_kernels_count_moves(self):
        leaf = compile_module(
            kernel_named("motiv-leaf-reorder").build(), SNSLP_CONFIG, DEFAULT_TARGET
        )
        assert leaf.counters["supernode.leaf-moves-applied"] >= 1
        trunk = compile_module(
            kernel_named("motiv-trunk-reorder").build(), SNSLP_CONFIG, DEFAULT_TARGET
        )
        assert trunk.counters["supernode.trunk-moves-applied"] >= 1

    def test_seed_counters(self):
        result = compile_module(
            kernel_named("motiv-trunk-reorder").build(), SNSLP_CONFIG, DEFAULT_TARGET
        )
        assert result.counters["slp.seed-bundles"] >= 1
        assert result.counters["slp.seed-stores"] >= 2
        assert result.counters["slp.graphs-built"] >= 1

    def test_cost_reject_counter(self):
        result = compile_module(
            kernel_named("motiv-leaf-reorder").build(), LSLP_CONFIG, DEFAULT_TARGET
        )
        assert result.counters["slp.graphs-rejected-cost"] >= 1
        assert result.counters.get("slp.graphs-vectorized", 0) == 0


class TestMissedReasonHistograms:
    def test_partial_gathers_no_longer_dropped(self):
        # milc-su3-cmul under LSLP vectorizes graphs that still contain
        # gathered lanes; the default missed histogram must not count them
        # but the include_vectorized view must
        kernel = kernel_named("milc-su3-cmul")
        result = compile_module(kernel.build(), LSLP_CONFIG, DEFAULT_TARGET)
        partial = result.report.partial_gather_reasons()
        assert partial  # gathers inside vectorized graphs exist
        full = result.report.missed_reasons(include_vectorized=True)
        for reason, count in partial.items():
            assert full[reason] >= count
        strict = result.report.missed_reasons()
        assert sum(full.values()) == sum(strict.values()) + sum(partial.values())

    def test_report_to_remarks(self):
        kernel = kernel_named("milc-su3-cmul")
        result = compile_module(kernel.build(), LSLP_CONFIG, DEFAULT_TARGET)
        remarks = result.report.to_remarks()
        kinds = {r.kind for r in remarks}
        assert "passed" in kinds
        assert "analysis" in kinds  # the partial gathers, as remarks
        analysis = [r for r in remarks if r.kind == "analysis"]
        assert any(r.args.get("in_vectorized_graph") for r in analysis)
        # remarks serialize cleanly
        for remark in remarks:
            assert Remark.from_dict(remark.to_dict()).to_dict() == remark.to_dict()


FIG3 = """
long A[1024]; long B[1024]; long C[1024]; long D[1024];

kernel fig3(n) {
  for (i = 0; i < n; i += 2) {
    A[i+0] = B[i+0] - C[i+0] + D[i+0];
    A[i+1] = B[i+1] + D[i+1] - C[i+1];
  }
}
"""


@pytest.fixture
def fig3_file(tmp_path):
    path = tmp_path / "fig3.sn"
    path.write_text(FIG3)
    return str(path)


class TestCliObservability:
    def test_run_with_all_flags(self, fig3_file, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "t.json"
        remarks = tmp_path / "r.jsonl"
        assert (
            main(
                [
                    "run",
                    fig3_file,
                    "--stats",
                    "--remarks",
                    str(remarks),
                    "--trace-out",
                    str(trace),
                    "-v",
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "Statistics Collected" in err
        assert "supernode.trunk-moves-applied" in err
        assert "slp.seed-bundles" in err
        assert "phase times" in err
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        assert any(e["name"] == "simulate" for e in doc["traceEvents"])
        loaded = load_remarks(str(remarks))
        assert any(r.kind == "passed" for r in loaded)
        # the CLI disarmed nothing globally for later tests
        DEFAULT_SESSION.tracer.disable()
        DEFAULT_SESSION.tracer.clear()
        DEFAULT_SESSION.remarks.disable()
        DEFAULT_SESSION.remarks.clear()

    def test_compare_json(self, fig3_file, capsys):
        from repro.cli import main

        assert main(["compare", fig3_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [c["config"] for c in doc["configs"]] == [
            "O3",
            "SLP",
            "LSLP",
            "SN-SLP",
        ]
        sn = doc["configs"][-1]
        assert sn["correct"] is True
        assert sn["speedup"] > 1.0
        assert sn["counters"]["supernode.trunk-moves-applied"] >= 1
        assert sn["phase_seconds"]["vectorize"] > 0
        assert sn["compile_seconds"] == pytest.approx(
            sum(sn["phase_seconds"].values())
        )

    def test_bench_runner_carries_counters(self):
        from repro.bench import run_kernel_matrix

        runs = run_kernel_matrix(kernel_named("motiv-trunk-reorder"))
        sn = runs["SN-SLP"]
        assert sn.counters["supernode.trunk-moves-applied"] >= 1
        assert sn.counters["sim.instructions"] == sn.instructions
        assert sn.phase_seconds["vectorize"] > 0
        assert sum(sn.phase_seconds.values()) == pytest.approx(
            sn.compile_seconds
        )
