"""Decision journal, DOT rendering, ``repro explain`` and the HTML
benchmark report — plus the journal-off zero-overhead contract."""

import copy
import json

import pytest

from repro.cli import main
from repro.kernels import kernel_named
from repro.observe import DECISION, REMARK, SPAN, load_records, write_records
from repro.observe.explain import (
    explain_module,
    render_stories,
    summarize_journal,
)
from repro.observe.report_html import (
    diff_results,
    load_results,
    regressions,
    render_report,
)
from repro.observe.session import CompilerSession, use_session
from repro.vectorizer import SNSLP_CONFIG, compile_module
from repro.vectorizer.report import GraphReport


def _journal_for(kernel_name: str, config=SNSLP_CONFIG):
    """Compile one benchmark kernel with decisions armed; returns the
    decision records."""
    session = CompilerSession(name="test-journal")
    session.tracer.enable(DECISION)
    module = kernel_named(kernel_name).build()
    for function in module.functions.values():
        function.assign_names()
    with use_session(session):
        compile_module(module, config)
    return session.tracer.of("decision")


def _of_kind(events, kind):
    return [event for event in events if event.kind == kind]


class TestDecisionJournal:
    def test_fig2_records_full_decision_sequence(self):
        journal = _journal_for("motiv-leaf-reorder")
        kinds = [e.kind for e in journal]
        for kind in ("seed", "supernode", "lookahead", "group", "reorder", "cost"):
            assert kind in kinds, f"missing {kind!r} in {kinds}"
        # the leaf-reorder kernel (Figure 2) legalizes via a leaf swap
        (reorder,) = _of_kind(journal, "reorder")
        assert reorder.args["leaf_swaps"] >= 1
        assert reorder.args["trunk_swaps"] == 0
        (cost,) = _of_kind(journal, "cost")
        assert cost.args["verdict"] == "profitable"
        assert cost.args["total"] < 0

    def test_fig3_trunk_swap_named_in_group_event(self):
        journal = _journal_for("motiv-trunk-reorder")
        groups = _of_kind(journal, "group")
        assert any("trunk swap legalized lane" in e.message for e in groups)
        (reorder,) = _of_kind(journal, "reorder")
        assert reorder.args["trunk_swaps"] >= 1

    def test_lookahead_event_carries_score_matrix(self):
        journal = _journal_for("motiv-leaf-reorder")
        lookaheads = _of_kind(journal, "lookahead")
        assert lookaheads
        event = lookaheads[0]
        assert event.args["matrix"]
        for entry in event.args["matrix"]:
            assert set(entry) == {"group", "score"}
        best = max(entry["score"] for entry in event.args["matrix"])
        assert event.args["best_score"] == best

    def test_graph_scoping_and_first_appearance_order(self):
        journal = _journal_for("motiv-leaf-reorder")
        ids = list(dict.fromkeys(e.graph_id for e in journal if e.graph_id >= 0))
        assert ids == sorted(ids)
        for graph_id in ids:
            events = [e for e in journal if e.graph_id == graph_id]
            assert events[0].kind == "seed"
            assert all(e.function for e in events)

    def test_jsonl_round_trip_and_summary(self, tmp_path):
        journal = _journal_for("motiv-leaf-reorder")
        path = tmp_path / "journal.jsonl"
        write_records(str(path), journal)
        loaded = load_records(str(path))
        assert [e.to_dict() for e in loaded] == [e.to_dict() for e in journal]
        summary = summarize_journal(journal)
        assert summary["events"] == len(journal)
        assert summary["cost_accepted"] >= 1
        assert summary["cost_rejected"] == 0

    def test_disabled_journal_records_nothing(self):
        session = CompilerSession(name="test-journal-off")
        assert not session.tracer.mask & DECISION
        with use_session(session):
            compile_module(kernel_named("motiv-leaf-reorder").build(), SNSLP_CONFIG)
        assert session.tracer.of("decision") == []
        # the record count is the category's length: no counter at all
        assert session.stats.value("journal.events-recorded") == 0


class TestJournalOffBitIdentical:
    def test_kernel_run_identical_with_and_without_journal_arg(self):
        """A journal-enabled bench run must not perturb cycles or
        counters."""
        from repro.bench import run_kernel_config

        kernel = kernel_named("motiv-trunk-reorder")
        plain = run_kernel_config(kernel, SNSLP_CONFIG)
        journaled = run_kernel_config(kernel, SNSLP_CONFIG, journal=True)
        assert journaled.cycles == plain.cycles
        assert journaled.outputs == plain.outputs
        assert journaled.counters == plain.counters
        assert plain.journal is None
        assert journaled.journal is not None
        assert journaled.journal["cost_accepted"] >= 1


class TestDot:
    def test_graph_dot_has_supernode_cluster_and_apo_edges(self):
        journal = _journal_for("motiv-trunk-reorder")
        (graph_event,) = _of_kind(journal, "graph")
        dot = graph_event.args["dot"]
        assert dot.startswith("digraph slp {")
        assert "cluster_supernode" in dot
        assert "Super-Node" in dot

    def test_chain_dot_before_and_after_reorder_differ(self):
        journal = _journal_for("motiv-leaf-reorder")
        (supernode,) = _of_kind(journal, "supernode")
        (reorder,) = _of_kind(journal, "reorder")
        before = supernode.args["dot_before"]
        after = reorder.args["dot_after"]
        assert before.startswith("digraph chains {")
        assert after.startswith("digraph chains {")
        # a leaf swap was applied, so the lane layout changed
        assert before != after
        # APO signs annotate chain edges; one lane cluster per lane
        assert 'label="+"' in before or 'label="-"' in before
        assert "cluster_lane0" in before and "cluster_lane1" in before

    def test_lslp_graph_labels_multinode(self):
        from repro.vectorizer import LSLP_CONFIG

        journal = _journal_for("motiv-leaf-reorder", config=LSLP_CONFIG)
        graph_events = _of_kind(journal, "graph")
        if not graph_events:  # kernel may not seed under LSLP
            pytest.skip("no graphs attempted")
        dots = [e.args["dot"] for e in graph_events]
        assert all("digraph slp" in d for d in dots)


class TestExplain:
    def test_fig2_narrative_names_group_reorder_and_cost(self):
        kernel = kernel_named("motiv-leaf-reorder")
        result = explain_module(kernel.build(), SNSLP_CONFIG)
        assert len(result.stories) == 1
        story = result.stories[0]
        assert story.verdict == "vectorized"
        narrative = story.narrative()
        assert "seeded from 2 adjacent stores" in narrative
        assert "look-ahead picked {" in narrative
        assert "leaf swap legalized lane 1" in narrative
        assert "cost -6.0" in narrative
        assert narrative.endswith("vectorized")
        # joined streams: the slp passed-remark and the GraphReport
        assert any(r.kind == "passed" for r in story.remarks)
        assert isinstance(story.report, GraphReport)
        assert story.report.vectorized

    def test_fig3_narrative_mentions_trunk_swap(self):
        kernel = kernel_named("motiv-trunk-reorder")
        result = explain_module(kernel.build(), SNSLP_CONFIG)
        narrative = result.stories[0].narrative()
        assert "trunk swap legalized lane" in narrative

    def test_render_stories_snapshot(self):
        kernel = kernel_named("motiv-leaf-reorder")
        result = explain_module(kernel.build(), SNSLP_CONFIG)
        text = render_stories(result.stories)
        assert "=== graph #0 [store] @ kernel/body: vectorized ===" in text
        assert "  -> reorder applied groups at 3/3 operand index(es)" in text

    def test_explain_leaves_caller_session_untouched(self):
        session = CompilerSession(name="caller")
        with use_session(session):
            explain_module(
                kernel_named("motiv-leaf-reorder").build(), SNSLP_CONFIG,
                session=session,
            )
        assert session.tracer.events == []


class TestExplainCli:
    def test_explain_kernel_by_name(self, capsys):
        assert main(["explain", "motiv-leaf-reorder"]) == 0
        out = capsys.readouterr().out
        assert "look-ahead picked {" in out
        assert "-> cost -6.0" in out

    def test_explain_writes_dot_and_json(self, tmp_path, capsys):
        dot_dir = tmp_path / "dots"
        code = main(
            [
                "explain", "motiv-trunk-reorder",
                "--dot", str(dot_dir), "--json",
                "--journal", str(tmp_path / "j.jsonl"),
            ]
        )
        assert code == 0
        names = sorted(p.name for p in dot_dir.iterdir())
        assert names == [
            "graph0-chains-after.dot",
            "graph0-chains-before.dot",
            "graph0-graph.dot",
        ]
        doc = json.loads(capsys.readouterr().out)
        assert doc["graphs"][0]["verdict"] == "vectorized"
        assert load_records(str(tmp_path / "j.jsonl"))

    def test_explain_unknown_source_is_usage_error(self):
        assert main(["explain", "no-such-kernel-or-file"]) == 2

    def test_explain_function_filter(self, tmp_path, capsys):
        assert main(["explain", "motiv-leaf-reorder", "--function", "kernel"]) == 0
        assert "graph #0" in capsys.readouterr().out
        assert main(["explain", "motiv-leaf-reorder", "--function", "nope"]) == 2


def _bench_doc(tmp_path):
    """A small real bench JSON document via the CLI."""
    results = tmp_path / "results.json"
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(
            [
                "bench", "--kernel", "motiv-leaf-reorder",
                "--json", "--jobs", "1",
            ]
        )
    assert code == 0
    results.write_text(buffer.getvalue())
    return results


class TestHtmlReport:
    def test_diff_flags_injected_cycle_regression(self, tmp_path):
        path = _bench_doc(tmp_path)
        doc = load_results(str(path))
        worse = copy.deepcopy(doc)
        for run in worse["runs"]:
            if run["config"] == "SN-SLP":
                run["cycles"] *= 2
                run["counters"]["slp.graphs-vectorized"] = 0
        deltas = diff_results(worse, doc)
        bad = regressions(deltas)
        fields = {(d.field) for d in bad}
        assert "cycles" in fields
        assert "slp.graphs-vectorized" in fields
        # the reverse direction (an improvement) is not a regression
        assert not regressions(diff_results(doc, worse))

    def test_render_report_sections_and_escaping(self, tmp_path):
        path = _bench_doc(tmp_path)
        doc = load_results(str(path))
        html_text, deltas = render_report(
            doc, dots={"kernel <x>": 'digraph slp { a -> b [label="<0>"]; }'}
        )
        assert deltas == []
        assert "<h2>Cycles and speedup</h2>" in html_text
        assert "<h2>Coverage</h2>" in html_text
        assert "kernel &lt;x&gt;" in html_text  # DOT titles are escaped
        assert "&quot;&lt;0&gt;&quot;" in html_text

    def test_report_cli_baseline_regression_exit_code(self, tmp_path):
        path = _bench_doc(tmp_path)
        doc = load_results(str(path))
        worse = copy.deepcopy(doc)
        for run in worse["runs"]:
            run["cycles"] *= 1.5
        regressed = tmp_path / "regressed.json"
        regressed.write_text(json.dumps(worse))
        out = tmp_path / "report.html"
        assert (
            main(
                [
                    "report", str(regressed),
                    "--baseline", str(path), "-o", str(out),
                    "--dot-worst", "0",
                ]
            )
            == 6
        )
        assert (
            main(
                [
                    "report", str(path),
                    "--baseline", str(path), "-o", str(out),
                    "--dot-worst", "1",
                ]
            )
            == 0
        )
        text = out.read_text()
        assert "No differences against the baseline." in text
        # --dot-worst embedded the slowest kernel's SLP graph
        assert "digraph slp" in text

    def test_report_cli_bad_json_is_usage_error(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"not": "a bench doc"}')
        assert main(["report", str(bogus)]) == 2


class TestWorkerObservabilityMerge:
    def test_parallel_bench_merges_worker_spans_and_remarks(self):
        from repro.bench import run_suite_parallel

        session = CompilerSession(name="parent")
        session.tracer.enable(SPAN | REMARK)
        kernels = [kernel_named("motiv-leaf-reorder")]
        with use_session(session):
            suite = run_suite_parallel(kernels, jobs=2)
        assert suite["motiv-leaf-reorder"]
        spans = session.tracer.of("span")
        assert spans, "worker spans were not merged"
        pids = {event.pid for event in spans}
        assert pids - {0}, "no worker-pid spans were merged"
        # the parent records only the dispatch driver's own spans (plus
        # the per-request service spans); all compile/simulate work
        # happened in (and is attributed to) workers
        parent_names = {event.name for event in spans if event.pid == 0}
        assert parent_names <= {
            "parallel:submit", "parallel:merge",
            "serve:request", "serve:queue",
        }
        remarks = session.tracer.of("remark")
        assert remarks, "worker remarks were not merged"
        assert all("worker_pid" in remark.args for remark in remarks)

    def test_serial_bench_labels_spans_and_remarks_as_the_parent(
        self, tmp_path
    ):
        """``bench --jobs 1`` has no workers: every span sits on the
        parent's track (pid 0) and no remark names a worker pid."""
        from repro.observe import load_chrome_trace

        trace = tmp_path / "trace.json"
        remarks = tmp_path / "remarks.jsonl"
        assert main([
            "bench", "--kernel", "motiv-leaf-reorder", "--jobs", "1",
            "--trace-out", str(trace), "--remarks", str(remarks),
        ]) == 0
        events = load_chrome_trace(str(trace))
        assert events and {event.pid for event in events} == {0}
        loaded = load_records(str(remarks))
        assert loaded
        assert not any("worker_pid" in remark.args for remark in loaded)

    def test_parallel_bench_without_observability_merges_nothing(self):
        from repro.bench import run_suite_parallel

        session = CompilerSession(name="parent-quiet")
        with use_session(session):
            run_suite_parallel([kernel_named("motiv-leaf-reorder")], jobs=2)
        assert session.tracer.events == []


class TestCacheHitRemark:
    def test_cache_hit_emits_remark_and_replays_counters(self, tmp_path):
        from repro.vectorizer import CompileCache, cached_compile_module
        from conftest import build_simple_store_module

        cache = CompileCache(str(tmp_path / "cache"))
        warm = CompilerSession(name="warm")
        cached_compile_module(
            build_simple_store_module(4), SNSLP_CONFIG,
            session=warm, cache=cache,
        )
        assert warm.stats.value("cache.misses") == 1

        hit = CompilerSession(name="hit")
        hit.tracer.enable(REMARK)
        cached_compile_module(
            build_simple_store_module(4), SNSLP_CONFIG,
            session=hit, cache=cache,
        )
        assert hit.stats.value("cache.hits") == 1
        (remark,) = [
            r for r in hit.tracer.of("remark")
            if r.message.startswith("cache_hit")
        ]
        assert remark.kind == "analysis"
        assert remark.args["config"] == SNSLP_CONFIG.name
        # the stored compile counters were replayed into the hit session
        for name, value in remark.args["counters"].items():
            assert hit.stats.value(name) >= value


class TestCachedCompileWithDecisions:
    FIG3 = """
long A[1024]; long B[1024]; long C[1024]; long D[1024];

kernel fig3(n) {
  for (i = 0; i < n; i += 2) {
    A[i+0] = B[i+0] - C[i+0] + D[i+0];
    A[i+1] = B[i+1] + D[i+1] - C[i+1];
  }
}
"""

    def test_armed_decisions_bypass_the_compile_cache(self, tmp_path):
        """A stored compile cannot replay decisions: with the journal
        armed, a second cached compile records the same 11 decisions as
        the first: neither is served from the cache."""
        source = tmp_path / "fig3.sn"
        source.write_text(self.FIG3)
        cache = tmp_path / "cache"
        for attempt in range(2):
            journal = tmp_path / f"journal{attempt}.jsonl"
            assert main([
                "compile", str(source), "--cache-dir", str(cache),
                "--journal", str(journal),
            ]) == 0
            assert len(load_records(str(journal))) == 11


class TestGatherReasonDedup:
    def test_reasons_are_deduped_and_sorted(self):
        report = GraphReport(
            function="f", block="b", lanes=2, cost=1.0, vectorized=False,
            node_count=1, gather_count=3,
            gather_reasons=["z-reason", "a-reason", "z-reason", "a-reason"],
        )
        assert report.gather_reasons == ["a-reason", "z-reason"]
