"""Metrics tests: histograms, the registry on/off contract, Prometheus
exposition, session sharing/merging, and the instrumented call sites
(cache hit-rate gauge, parallel overhead counters)."""

import pytest

from repro.kernels import kernel_named
from repro.observe import StatsRegistry
from repro.observe.metrics import (
    DEFAULT_BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
    exact_percentile,
)
from repro.observe.metrics import _NULL_TIMER
from repro.observe.session import CompilerSession, current_metrics, use_session
from repro.vectorizer import SNSLP_CONFIG, compile_module


class TestExactPercentile:
    def test_empty_is_zero(self):
        assert exact_percentile([], 50) == 0.0

    def test_single_value(self):
        assert exact_percentile([7.5], 99) == 7.5

    def test_median_interpolates_even_count(self):
        assert exact_percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_extremes(self):
        data = [5.0, 1.0, 3.0]
        assert exact_percentile(data, 0) == 1.0
        assert exact_percentile(data, 100) == 5.0


class TestHistogram:
    def test_summary_counts_and_sum(self):
        h = Histogram("t")
        for value in (0.001, 0.002, 0.003):
            h.observe(value)
        s = h.summary()
        assert s["count"] == 3
        assert s["sum"] == pytest.approx(0.006)
        assert s["min"] == 0.001
        assert s["max"] == 0.003

    def test_empty_summary_is_zeros(self):
        assert Histogram("t").summary() == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
            "p50": 0.0, "p90": 0.0, "p99": 0.0,
        }

    def test_single_value_percentiles_exact(self):
        h = Histogram("t")
        h.observe(42.0)
        assert h.percentile(50) == 42.0
        assert h.percentile(99) == 42.0

    def test_percentiles_monotone_and_bounded(self):
        h = Histogram("t")
        for value in range(1, 101):
            h.observe(float(value))
        p50, p90, p99 = h.percentile(50), h.percentile(90), h.percentile(99)
        assert 1.0 <= p50 <= p90 <= p99 <= 100.0
        # bucket estimate should land near the exact answer
        assert p50 == pytest.approx(50.0, rel=0.7)

    def test_overflow_bucket_catches_huge_values(self):
        h = Histogram("t")
        h.observe(1e12)  # above the last bound (5e7)
        assert h.count == 1
        assert h.counts[-1] == 1
        assert h.percentile(99) == 1e12

    def test_merge_folds_counts_and_extremes(self):
        a, b = Histogram("t"), Histogram("t")
        a.observe(1.0)
        b.observe(100.0)
        a.merge(b)
        assert a.count == 2
        assert a.vmin == 1.0 and a.vmax == 100.0
        assert a.total == 101.0

    def test_merge_rejects_different_bounds(self):
        a = Histogram("t")
        b = Histogram("t", bounds=(1.0, 2.0))
        with pytest.raises(ValueError, match="bounds mismatch"):
            a.merge(b)


class TestRegistryContract:
    def test_disabled_by_default_and_inert(self):
        m = MetricsRegistry()
        assert not m.enabled
        m.gauge("g", 1.0)
        m.observe("h", 1.0)
        assert m.gauges == {}
        assert m.histograms == {}

    def test_disabled_timer_is_shared_null_singleton(self):
        m = MetricsRegistry()
        assert m.timer("x") is _NULL_TIMER
        assert m.timer("y") is _NULL_TIMER

    def test_gauge_last_write_wins(self):
        m = MetricsRegistry(enabled=True)
        m.gauge("g", 1.0)
        m.gauge("g", 2.0)
        assert m.gauges["g"] == 2.0

    def test_timer_records_even_when_body_raises(self):
        m = MetricsRegistry(enabled=True)
        with pytest.raises(RuntimeError):
            with m.timer("t.seconds"):
                raise RuntimeError("boom")
        assert m.histograms["t.seconds"].count == 1

    def test_merge_registries(self):
        a, b = MetricsRegistry(enabled=True), MetricsRegistry(enabled=True)
        a.observe("h", 1.0)
        b.observe("h", 2.0)
        b.gauge("g", 9.0)
        a.merge(b)
        assert a.histograms["h"].count == 2
        assert a.gauges["g"] == 9.0


class TestExposition:
    def test_counters_gauges_histograms_rendered(self):
        stats = StatsRegistry()
        stats.stat("slp.graphs-vectorized", "graphs vectorized").add(3)
        m = MetricsRegistry(enabled=True)
        m.gauge("serve.compiles_per_sec", 0.75, description="tasks per second")
        m.observe("phase.vectorize.seconds", 0.002)
        text = m.render_exposition(stats)
        assert "# TYPE repro_slp_graphs_vectorized_total counter" in text
        assert "repro_slp_graphs_vectorized_total 3" in text
        assert "# TYPE repro_serve_compiles_per_sec gauge" in text
        assert "repro_serve_compiles_per_sec 0.75" in text
        assert "# HELP repro_serve_compiles_per_sec tasks per second" in text
        assert "# TYPE repro_phase_vectorize_seconds histogram" in text
        assert 'repro_phase_vectorize_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_phase_vectorize_seconds_count 1" in text
        assert text.endswith("\n")

    def test_write_exposition_roundtrip(self, tmp_path):
        m = MetricsRegistry(enabled=True)
        m.gauge("g", 1.5)
        path = tmp_path / "metrics.prom"
        m.write_exposition(str(path))
        assert "repro_g 1.5" in path.read_text()


class TestSessionIntegration:
    def test_derive_shares_metrics_registry(self):
        session = CompilerSession(name="parent")
        session.metrics.enable()
        child = session.derive(name="child")
        assert child.metrics is session.metrics
        with use_session(child):
            current_metrics().observe("x", 1.0)
        assert session.metrics.histograms["x"].count == 1

    def test_compile_populates_phase_histograms(self):
        session = CompilerSession(name="metrics-on")
        session.metrics.enable()
        with use_session(session):
            compile_module(kernel_named("motiv-leaf-reorder").build(), SNSLP_CONFIG)
        names = set(session.metrics.histograms)
        assert "phase.vectorize.seconds" in names
        assert "compile.seconds" in names
        assert session.metrics.histograms["compile.seconds"].count == 1

    def test_metrics_off_session_records_nothing_during_compile(self):
        session = CompilerSession(name="metrics-off")
        assert not session.metrics.enabled
        with use_session(session):
            compile_module(kernel_named("motiv-leaf-reorder").build(), SNSLP_CONFIG)
        assert session.metrics.histograms == {}
        assert session.metrics.gauges == {}


class TestMetricsOffBitIdentical:
    def test_kernel_run_identical_with_and_without_metrics(self):
        """A metrics-armed bench run must not perturb cycles, outputs or
        the counter snapshot (the journal/tracer contract)."""
        from repro.bench import run_kernel_config

        kernel = kernel_named("motiv-trunk-reorder")
        plain = run_kernel_config(kernel, SNSLP_CONFIG)

        armed = CompilerSession(name="metrics-armed")
        armed.metrics.enable()
        with use_session(armed):
            metered = run_kernel_config(kernel, SNSLP_CONFIG)

        assert metered.cycles == plain.cycles
        assert metered.instructions == plain.instructions
        assert metered.outputs == plain.outputs
        assert metered.counters == plain.counters
        # ... and the armed run did record distributions
        assert armed.metrics.histograms["bench.kernel.cycles"].count == 1


class TestParallelOverheadMetrics:
    def test_parallel_counters_land_in_parent_session_only(self):
        from repro.bench import run_suite_parallel
        from repro.vectorizer import LSLP_CONFIG

        kernels = [kernel_named("motiv-leaf-reorder")]
        configs = [LSLP_CONFIG, SNSLP_CONFIG]
        parent = CompilerSession(name="parallel-metrics")
        parent.metrics.enable()
        with use_session(parent):
            results = run_suite_parallel(kernels=kernels, configs=configs, jobs=2)
        counters = parent.stats.snapshot()
        assert counters["parallel.tasks"] == 3  # 2 configs + O3 oracle
        assert "parallel.overhead_seconds" in counters
        assert "parallel.marshal_seconds" in counters
        assert "parallel.spawn_seconds" in counters
        hists = parent.metrics.histograms
        assert hists["parallel.task.worker_seconds"].count == 3
        assert hists["parallel.task.turnaround_seconds"].count == 3
        assert hists["parallel.task.marshal_seconds"].count == 3
        assert hists["parallel.dispatch.overhead_seconds"].count == 1
        # the per-run counter snapshots never see driver overhead
        for matrix in results.values():
            for run in matrix.values():
                assert "parallel.overhead_seconds" not in run.counters


class TestFuzzParallelMetrics:
    @staticmethod
    def _campaign(jobs, budget):
        from repro.fuzz import run_campaign

        session = CompilerSession(name=f"fuzz-metrics-{jobs}")
        session.metrics.enable()
        with use_session(session):
            result = run_campaign(
                budget=budget, seed=0, jobs=jobs, reduce_failures=False
            )
        dispatch = ("serve.", "parallel.")
        counts = {
            name: histogram.count
            for name, histogram in session.metrics.histograms.items()
            if not name.startswith(dispatch)
        }
        gauges = {
            name for name in session.metrics.gauges
            if not name.startswith(dispatch)
        }
        fuzz = {
            name: value for name, value in result.stats.items()
            if name.startswith("fuzz.")
        }
        return counts, gauges, fuzz, len(result.failures)

    def test_jobs2_observes_what_the_serial_loop_observes(self):
        """Chunk workers arm the parent's metrics, time each program and
        ship one capture per index: the parallel campaign reports the
        serial one's histograms (plus the dispatch path's own
        ``serve.*`` / ``parallel.*``)."""
        serial = self._campaign(1, "40")
        parallel = self._campaign(2, "40")
        assert parallel == serial
        counts = serial[0]
        assert counts["fuzz.program.seconds"] == 40
        assert counts["phase.vectorize.seconds"] == 160

    def test_failing_programs_are_observed_once(self, monkeypatch):
        """The parent re-runs a failing index to rebuild its report; that
        re-run must not observe the program a second time on top of the
        worker's capture."""
        from repro.ir.instructions import Opcode
        from repro.vectorizer.reorder import SuperNode

        original = SuperNode.generate_code

        def flipped(self):
            # a deliberate APO miscompile (FADD <-> FSUB on every root);
            # forked pool workers inherit the patch
            roots = original(self)
            for root in roots:
                if root.opcode is Opcode.FADD:
                    root.opcode = Opcode.FSUB
                elif root.opcode is Opcode.FSUB:
                    root.opcode = Opcode.FADD
            return roots

        monkeypatch.setattr(SuperNode, "generate_code", flipped)
        serial = self._campaign(1, "16")
        parallel = self._campaign(2, "16")
        assert serial[3] > 0
        assert parallel == serial
        assert serial[0]["fuzz.program.seconds"] == 16
        assert serial[0]["phase.vectorize.seconds"] == 64


class TestWarmServiceBenchHistograms:
    KERNELS = ("motiv-leaf-reorder", "motiv-trunk-reorder")

    def _bench(self, tmp_path, name, *flags):
        import contextlib
        import io
        import json

        from repro.cli import main

        prom = tmp_path / f"{name}.prom"
        out = io.StringIO()
        argv = ["bench", "--json", "--metrics-out", str(prom), *flags]
        for kernel in self.KERNELS:
            argv += ["--kernel", kernel]
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        samples = {}
        for line in prom.read_text().splitlines():
            if not line.startswith("#"):
                metric, _, value = line.rpartition(" ")
                samples[metric] = float(value)
        return json.loads(out.getvalue())["runs"], samples

    def test_stored_pairs_feed_the_same_histograms_as_cold_pairs(self, tmp_path):
        cache = str(tmp_path / "cache")
        service = ("--jobs", "2", "--service", "--cache-dir", cache)
        cold_rows, cold = self._bench(tmp_path, "cold", *service)
        warm_rows, warm = self._bench(tmp_path, "warm", *service)
        _, serial = self._bench(tmp_path, "serial", "--jobs", "1")
        assert warm["repro_serve_task_cache_hits_total"] == 8
        for samples in (cold, warm, serial):
            for name in ("compile_seconds", "kernel_cycles", "kernel_instructions"):
                assert samples[f"repro_bench_{name}_count"] == 8
        # a stored pair observes the values its row carries
        for rows, samples in ((cold_rows, cold), (warm_rows, warm)):
            assert samples["repro_bench_kernel_cycles_sum"] == pytest.approx(
                sum(row["cycles"] for row in rows)
            )
        assert warm["repro_bench_kernel_cycles_sum"] == cold[
            "repro_bench_kernel_cycles_sum"
        ]
