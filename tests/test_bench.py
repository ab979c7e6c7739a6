"""Benchmark harness tests: every figure function produces sane data."""

import math

import pytest

from repro.bench import (
    compile_time_and_phase_stats,
    fig5_kernel_speedups,
    fig6_aggregate_node_size,
    fig7_average_node_size,
    fig8_full_benchmark_speedups,
    fig9_aggregate_node_size_full,
    fig10_average_node_size_full,
    fig11_compile_time,
    format_rows,
    format_table1,
    outputs_match,
    run_kernel_matrix,
    speedup_over,
    table1_with_activation,
)
from repro.kernels import all_kernels, kernel_named
from repro.kernels.programs import PROGRAMS
from repro.machine import DEFAULT_TARGET

#: small kernel subset to keep harness tests fast
SMALL = [kernel_named("motiv-trunk-reorder"), kernel_named("plain-fma-lanes")]
MILC = [PROGRAMS[0]]


class TestRunner:
    def test_matrix_includes_o3_oracle(self):
        runs = run_kernel_matrix(SMALL[0], configs=(), target=DEFAULT_TARGET)
        assert "O3" in runs
        assert runs["O3"].correct

    def test_speedup_over(self):
        runs = run_kernel_matrix(SMALL[0], target=DEFAULT_TARGET)
        assert speedup_over(runs, "O3") == 1.0
        assert speedup_over(runs, "SN-SLP") > 1.0

    def test_outputs_match_exactness_contract(self):
        kernel = SMALL[0]
        got = {"A": [1, 2, 3]}
        assert outputs_match(kernel, got, {"A": [1, 2, 3]})
        assert not outputs_match(kernel, got, {"A": [1, 2, 4]})
        assert not outputs_match(kernel, got, {"A": [1, 2]})

    @staticmethod
    def _per_element(kernel, got, want):
        """``outputs_match``'s rule element by element, with no shortcut:
        the reference its equal-lists fast path must agree with."""
        for name in kernel.output_globals:
            a, b = got[name], want[name]
            if len(a) != len(b):
                return False
            if kernel.check_exact:
                if a != b:
                    return False
            else:
                for x, y in zip(a, b):
                    if math.isnan(x) and math.isnan(y):
                        continue
                    if not math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9):
                        return False
        return True

    def test_outputs_match_agrees_with_the_per_element_rule(self):
        one = 1.0 + 2.0 ** -52
        nan_a, nan_b = float("nan"), float("-nan")
        inf = float("inf")
        pairs = [
            ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
            ([nan_a, 2.0], [nan_a, 2.0]),  # one NaN object on both sides
            ([nan_a, 2.0], [nan_b, 2.0]),  # distinct NaN objects
            ([nan_a, 2.0], [float("nan"), 2.0]),
            ([nan_a], [1.0]),
            ([1.0], [nan_a]),
            ([0.0, -0.0], [-0.0, 0.0]),
            ([inf, -inf], [inf, -inf]),
            ([inf], [-inf]),
            ([inf], [1e308]),
            ([1.0], [one]),  # 1 ULP
            ([1.0, 5.0], [1.0, one]),
            ([3.0], [3.0 * (1 + 1e-6)]),  # 1e-6 relative
            ([3e-12], [2e-12]),  # within the absolute tolerance
            ([1.0, 2.0], [1.0]),
            ([], [1.0]),
            ([], []),
            ([1, 2, 3], [1, 2, 3]),
            ([1, 2, 3], [1, 2, 4]),
        ]
        inexact = next(k for k in all_kernels() if not k.check_exact)
        exact = next(k for k in all_kernels() if k.check_exact)
        verdicts = {}
        for kernel in (inexact, exact):
            name = kernel.output_globals[0]
            for index, (a, b) in enumerate(pairs):
                for got, want in (({name: a}, {name: b}), ({name: b}, {name: a})):
                    verdict = outputs_match(kernel, got, want)
                    assert verdict == self._per_element(kernel, got, want), (
                        kernel.name, got, want
                    )
                verdicts[kernel.check_exact, index] = verdict
        # the rule itself: NaN matches NaN and 1 ULP is close, for an
        # inexact kernel only; 1e-6 is never close, nor unequal lengths
        assert verdicts[False, 2] and not verdicts[True, 2]
        assert verdicts[False, 10] and not verdicts[True, 10]
        assert not verdicts[False, 12] and not verdicts[False, 14]
        assert verdicts[False, 6] and verdicts[True, 6]

    def test_run_fields_populated(self):
        runs = run_kernel_matrix(SMALL[0], target=DEFAULT_TARGET)
        run = runs["SN-SLP"]
        assert run.cycles > 0
        assert run.instructions > 0
        assert run.compile_seconds > 0
        assert run.vectorized_graphs == 1
        assert run.aggregate_node_size >= 2


class TestFigures:
    def test_fig5_shape_and_headline(self):
        rows = fig5_kernel_speedups(SMALL)
        assert [r["kernel"] for r in rows] == [
            "motiv-trunk-reorder",
            "plain-fma-lanes",
            "geomean",
        ]
        motiv = rows[0]
        assert motiv["SN-SLP"] > motiv["LSLP"]
        assert rows[-1]["SN-SLP"] >= rows[-1]["LSLP"]

    def test_fig6_totals(self):
        rows = fig6_aggregate_node_size(SMALL)
        total = rows[-1]
        assert total["kernel"] == "total"
        assert total["SN-SLP"] > total["LSLP"]

    def test_fig7_average_in_paper_band(self):
        rows = fig7_average_node_size(SMALL)
        average = rows[-1]
        assert average["kernel"] == "average"
        assert 2.0 <= average["SN-SLP"] <= 3.0

    def test_fig8_milc_speedup_near_two_percent(self):
        rows = fig8_full_benchmark_speedups(MILC)
        milc = rows[0]
        assert milc["benchmark"] == "433.milc"
        assert 1.01 <= milc["SN-SLP vs LSLP"] <= 1.03

    def test_fig9_and_10(self):
        rows9 = fig9_aggregate_node_size_full(MILC)
        assert rows9[-1]["benchmark"] == "total"
        assert rows9[-1]["SN-SLP"] > rows9[-1]["LSLP"]
        rows10 = fig10_average_node_size_full(MILC)
        assert rows10[0]["SN-SLP"] >= 2.0

    def test_fig11_compile_time_overhead_small(self):
        rows = fig11_compile_time(SMALL[:1], runs=3, warmup=1)
        row = rows[0]
        assert row["O3"] == 1.0
        # SN-SLP does real work, but the overhead must stay moderate
        assert row["SN-SLP"] < 25.0

    def test_compile_time_protocol(self):
        stats, phases = compile_time_and_phase_stats(SMALL[0], runs=3, warmup=1)
        assert set(stats) == set(phases) == {"O3", "LSLP", "SN-SLP"}
        assert all(s.count == 3 for s in stats.values())

    def test_fig11_compiles_run_with_the_collector_off(self, monkeypatch):
        import gc

        import repro.bench.timing as timing

        compile_module = timing.compile_module
        collecting = []

        def spy(*args, **kwargs):
            collecting.append(gc.isenabled())
            return compile_module(*args, **kwargs)

        monkeypatch.setattr(timing, "compile_module", spy)
        assert gc.isenabled()
        stats, _ = timing.compile_time_and_phase_stats(SMALL[0], runs=2, warmup=1)
        assert all(s.count == 2 for s in stats.values())
        assert collecting == [False] * 9
        assert gc.isenabled()

        def crash(*args, **kwargs):
            raise RuntimeError("compile failed")

        monkeypatch.setattr(timing, "compile_module", crash)
        with pytest.raises(RuntimeError):
            timing.compile_time_and_phase_stats(SMALL[0], runs=2, warmup=1)
        assert gc.isenabled()


class TestTables:
    def test_table1_activation_flags(self):
        rows = table1_with_activation(SMALL)
        by_name = {r["kernel"]: r for r in rows}
        assert by_name["motiv-trunk-reorder"]["supernodes_formed"] >= 1
        assert by_name["motiv-trunk-reorder"]["supernodes_with_inverse"] >= 1
        assert by_name["plain-fma-lanes"]["supernodes_formed"] == 0
        assert by_name["plain-fma-lanes"]["vectorized"]

    def test_formatting(self):
        rows = [{"kernel": "k", "value": 1.234567}]
        text = format_rows(rows, title="T")
        assert text.splitlines()[0] == "T"
        assert "1.235" in text
        assert format_rows([], title="empty") == "empty"
        assert "Table I" in format_table1(table1_with_activation(SMALL))


class TestAsciiCharts:
    def test_bars_scale_to_peak(self):
        from repro.bench.ascii import render_bar_chart

        rows = [
            {"kernel": "a", "X": 1.0, "Y": 2.0},
            {"kernel": "b", "X": 4.0, "Y": 0.0},
        ]
        chart = render_bar_chart(rows, "kernel", ("X", "Y"), width=20)
        lines = chart.splitlines()
        assert len(lines) == 4
        # the 4.0 bar is fully filled, the 0.0 bar is empty
        full = next(l for l in lines if l.endswith("4.000"))
        empty = next(l for l in lines if l.endswith("0.000"))
        assert "#" * 20 in full
        assert "#" not in empty.split("|")[1]

    def test_non_numeric_cells_skipped(self):
        from repro.bench.ascii import render_bar_chart

        rows = [{"kernel": "geomean", "X": "n/a", "Y": 1.0}]
        chart = render_bar_chart(rows, "kernel", ("X", "Y"))
        assert chart.count("|") == 2  # only the numeric series drew a bar

    def test_render_figure_combines_table_and_chart(self):
        from repro.bench.ascii import render_figure

        rows = [{"kernel": "a", "X": 1.5}]
        text = render_figure(rows, "T", "kernel", ("X",))
        assert text.startswith("T")
        assert "|" in text and "1.500" in text

    def test_empty_rows(self):
        from repro.bench.ascii import render_bar_chart

        assert render_bar_chart([], "kernel", ("X",), title="t") == "t"


class TestMissedReasons:
    def test_histogram_on_unprofitable_graph(self):
        from repro.vectorizer import LSLP_CONFIG, compile_module

        kernel = kernel_named("motiv-leaf-reorder")
        compiled = compile_module(kernel.build(), LSLP_CONFIG, DEFAULT_TARGET)
        reasons = compiled.report.missed_reasons()
        assert reasons  # the non-adjacent load groups show up
        assert "non-consecutive loads" in reasons

    def test_empty_for_fully_vectorized(self):
        from repro.vectorizer import SNSLP_CONFIG, compile_module

        kernel = kernel_named("motiv-leaf-reorder")
        compiled = compile_module(kernel.build(), SNSLP_CONFIG, DEFAULT_TARGET)
        assert compiled.report.missed_reasons() == {}
