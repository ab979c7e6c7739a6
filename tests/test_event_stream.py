"""The one event stream: golden category files, category independence,
and the capture/absorb pair every cross-session merge goes through."""

import hashlib

import pytest

from repro.cli import main
from repro.frontend import compile_source
from repro.machine import DEFAULT_TARGET
from repro.observe import (
    ALL,
    DECISION,
    METRICS,
    REMARK,
    SPAN,
    Capture,
    CompilerSession,
    MetricsRegistry,
    Tracer,
    use_session,
    validate_span_tree,
)
from repro.observe.profile import folded_stacks, self_time_stats
from repro.sim import simulate
from repro.vectorizer import SNSLP_CONFIG, compile_module

FIG3 = """
long A[1024]; long B[1024]; long C[1024]; long D[1024];

kernel fig3(n) {
  for (i = 0; i < n; i += 2) {
    A[i+0] = B[i+0] - C[i+0] + D[i+0];
    A[i+1] = B[i+1] + D[i+1] - C[i+1];
  }
}
"""

#: sha256 of the ``--remarks`` / ``--journal`` bytes of
#: ``repro run fig3.sn --n 512``, recorded before remarks and decisions
#: moved into the one stream (1 remark line, 11 decision lines)
REMARKS_SHA256 = "50cf8b65378a2015c315210d05b919207f4eec1700665dfb4bb00197018649e3"
JOURNAL_SHA256 = "c573bce32e2317dcbc63ff4820c0fd412fbd59e288361cd64d51a13bebc337fb"


@pytest.fixture
def fig3_file(tmp_path):
    path = tmp_path / "fig3.sn"
    path.write_text(FIG3)
    return str(path)


class TestGoldenCategoryFiles:
    def test_run_remarks_and_journal_bytes_are_pinned(self, fig3_file, tmp_path):
        remarks = tmp_path / "remarks.jsonl"
        journal = tmp_path / "journal.jsonl"
        assert main([
            "run", fig3_file, "--n", "512",
            "--remarks", str(remarks), "--journal", str(journal),
        ]) == 0
        assert len(remarks.read_text().splitlines()) == 1
        assert len(journal.read_text().splitlines()) == 11
        assert hashlib.sha256(remarks.read_bytes()).hexdigest() == REMARKS_SHA256
        assert hashlib.sha256(journal.read_bytes()).hexdigest() == JOURNAL_SHA256


def _traced_fig3(mask: int) -> Tracer:
    """Compile and simulate fig3 with ``mask`` armed; a trace-correlated
    log record lands between the compile and the simulation."""
    session = CompilerSession(name="independence")
    session.tracer.enable(mask)
    with use_session(session):
        compiled = compile_module(compile_source(FIG3), SNSLP_CONFIG)
        session.tracer.log(
            "info", "probe", "between compile and simulate",
            trace_id="a" * 16,
        )
        simulate(
            compiled.module, "fig3", DEFAULT_TARGET, [512],
            session=session.derive(),
        )
    return session.tracer


def _chrome_shape(tracer: Tracer):
    """The Chrome trace with timestamps, durations and ids dropped."""
    return [
        (event["name"], event["ph"], sorted(event.get("args", {}).items()))
        for event in tracer.to_chrome_trace()["traceEvents"]
    ]


class TestCategoryIndependence:
    """Arming remarks, decisions and log records next to spans leaves
    every span view unchanged."""

    def test_span_views_ignore_the_other_categories(self):
        spans_only = _traced_fig3(SPAN)
        everything = _traced_fig3(ALL)
        assert everything.of("remark") and everything.of("decision")
        assert everything.of("log")
        assert _chrome_shape(everything) == _chrome_shape(spans_only)

        def counts(tracer):
            return sorted(
                (stat.name, stat.count) for stat in self_time_stats(tracer.events)
            )

        assert counts(everything) == counts(spans_only)

        def paths(tracer):
            return sorted(
                line.rsplit(" ", 1)[0]
                for line in folded_stacks(tracer.events).splitlines()
            )

        assert paths(everything) == paths(spans_only)
        assert validate_span_tree(everything.events) == validate_span_tree(
            spans_only.events
        ) == []

    def test_off_categories_record_nothing(self):
        tracer = _traced_fig3(SPAN)
        assert {event.category for event in tracer.events} == {"span"}

    def test_emitter_args_may_reuse_record_field_names(self):
        """The undo decision passes ``kind=``: the record's own kind and
        message are positional-only, so such args land in ``args``."""
        tracer = Tracer()
        tracer.enable(ALL)
        tracer.decision("undo", "reverted a massage", kind="super", lanes=2)
        tracer.remark("recovery", "guard", "rolled back", kind="exception")
        undo, remark = tracer.events
        assert (undo.kind, undo.args) == ("undo", {"kind": "super", "lanes": 2})
        assert (remark.kind, remark.args) == ("recovery", {"kind": "exception"})

    def test_enable_without_argument_arms_spans_only(self):
        assert Tracer(enabled=True).mask == SPAN
        tracer = Tracer()
        tracer.enable()
        assert tracer.mask == SPAN and tracer.enabled
        assert tracer.remark("passed", "slp", "x") is None
        assert tracer.decision("seed", "x") is None
        assert tracer.log("error", "x", "x") is None


def _records():
    """One record of each category, as a worker would ship them."""
    tracer = Tracer()
    tracer.enable(ALL)
    with tracer.span("compile"):
        tracer.remark("passed", "slp", "vectorized", function="f")
        tracer.begin_graph("f", "body", "store")
        tracer.decision("seed", "seeded")
        tracer.end_graph()
        tracer.log("info", "retry", "again")
    return tracer.events


class TestCaptureAbsorb:
    def test_absorb_stamps_pid_and_generation_on_every_record(self):
        parent = CompilerSession(name="parent")
        parent.tracer.enable(ALL)
        parent.absorb(Capture(events=_records()), pid=7, generation=2)
        assert len(parent.tracer.events) == 4
        assert {(e.pid, e.generation) for e in parent.tracer.events} == {(7, 2)}
        (remark,) = parent.tracer.of("remark")
        assert remark.args["worker_pid"] == 7

    def test_absorb_keeps_only_armed_categories(self):
        parent = CompilerSession(name="parent")
        parent.tracer.enable(SPAN | DECISION)
        parent.absorb(Capture(events=_records()))
        assert [e.category for e in parent.tracer.events] == ["decision", "span"]

    def test_capture_moves_records_and_ships_counter_delta(self):
        worker = CompilerSession(name="worker")
        worker.tracer.enable(REMARK)
        worker.stats.stat("x").add(2)
        worker.tracer.remark("analysis", "slp", "before the mark")
        mark = worker.mark()
        worker.stats.stat("x").add(3)
        worker.stats.stat("y").add(1)
        worker.tracer.remark("analysis", "slp", "after the mark")
        capture = worker.capture(mark)
        assert [e.message for e in capture.events] == ["after the mark"]
        assert capture.counters == {"x": 3, "y": 1}
        assert capture.metrics is None
        assert [e.message for e in worker.tracer.events] == ["before the mark"]

        parent = CompilerSession(name="parent")
        parent.absorb(capture)
        assert parent.stats.snapshot() == {"x": 3, "y": 1}
        assert parent.tracer.events == []  # remarks are off in the parent

    def test_metrics_travel_when_armed_on_both_sides(self):
        worker = CompilerSession(name="worker")
        worker.arm(METRICS)
        worker.metrics.observe("h", 1.0)
        parent = CompilerSession(name="parent")
        parent.arm(METRICS | SPAN)
        assert parent.mask == METRICS | SPAN
        parent.absorb(worker.capture())
        parent.absorb(worker.capture())
        assert parent.metrics.histograms["h"].count == 2
        quiet = CompilerSession(name="quiet")
        quiet.absorb(worker.capture())
        assert quiet.metrics.histograms == {}

    def test_capture_pickles(self):
        import pickle

        capture = Capture(
            events=_records(), counters={"x": 1},
            metrics=MetricsRegistry(enabled=True),
        )
        clone = pickle.loads(pickle.dumps(capture))

        def shape(events):
            return [(e.category, e.kind, e.name, e.message) for e in events]

        assert shape(clone.events) == shape(capture.events)
        assert clone.counters == {"x": 1}

    def test_record_span_appends_only_while_spans_are_armed(self):
        tracer = Tracer()
        tracer.record_span("serve:request", 5, -1, 0, "t" * 16, "s" * 12, "")
        assert tracer.events == []
        tracer.enable()
        tracer.record_span(
            "serve:request", 5, -1, 0, "t" * 16, "s" * 12, "", status="ok"
        )
        (span,) = tracer.events
        assert (span.start_ns, span.duration_ns) == (5, 0)  # clamped
        assert span.args == {"status": "ok"} and span.category == "span"
