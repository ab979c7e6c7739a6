"""Regeneration of every evaluation figure in the paper.

Each ``figN_*`` function returns the figure's data series as a list of row
dicts (plus helpers to format them as text tables); the ``benchmarks/``
scripts print them through pytest-benchmark runs.  Mapping:

* Figure 5  — kernel speedup over O3 (LSLP vs SN-SLP)
* Figure 6  — total aggregate Multi-/Super-Node size, kernels
* Figure 7  — average Multi-/Super-Node size per graph, kernels
* Figure 8  — full-benchmark speedup (composite programs)
* Figure 9  — aggregate node size, full benchmarks
* Figure 10 — average node size, full benchmarks
* Figure 11 — compilation time normalized to O3
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from ..kernels.programs import PROGRAMS, Program
from ..kernels.suite import Kernel, all_kernels
from ..machine.targets import DEFAULT_TARGET, TargetMachine
from ..sim.executor import simulate
from ..vectorizer.pipeline import compile_module
from ..vectorizer.slp import LSLP_CONFIG, O3_CONFIG, SLPConfig, SNSLP_CONFIG, config_named
from .parallel import run_suite_parallel
from .runner import DEFAULT_SEED, speedup_over
from .timing import compile_time_and_phase_stats

Row = Dict[str, object]

#: the two configurations every paper figure compares
PAPER_CONFIGS = (LSLP_CONFIG, SNSLP_CONFIG)


def _kernel_set(kernels: Optional[Sequence[Kernel]]) -> List[Kernel]:
    return list(kernels) if kernels is not None else all_kernels()


def _suite_runs(
    kernels: List[Kernel],
    target: TargetMachine,
    jobs: Optional[int],
    journal: bool = False,
) -> Dict[str, Dict[str, object]]:
    """One matrix per kernel under the paper configs; ``jobs`` above 1
    shards the (kernel, config) pairs over worker processes, while 1 or
    ``None`` runs serially.  Simulated cycles are deterministic, so both
    paths return identical data.  ``journal=True`` attaches per-run
    decision-journal summaries; the default leaves the journal disabled,
    keeping figure data bit-identical to pre-journal builds."""
    return run_suite_parallel(
        kernels, PAPER_CONFIGS, target, jobs=1 if jobs is None else jobs,
        journal=journal,
    )


# -- Figure 5 -----------------------------------------------------------------------

def fig5_kernel_speedups(
    kernels: Optional[Sequence[Kernel]] = None,
    target: TargetMachine = DEFAULT_TARGET,
    jobs: Optional[int] = 1,
    journal: bool = False,
) -> List[Row]:
    """Normalized speedup over O3 for each kernel (Figure 5)."""
    kernels = _kernel_set(kernels)
    suite = _suite_runs(kernels, target, jobs, journal=journal)
    rows: List[Row] = []
    for kernel in kernels:
        runs = suite[kernel.name]
        if not all(run.correct for run in runs.values()):
            raise AssertionError(f"{kernel.name}: output mismatch across configs")
        row: Row = {
            "kernel": kernel.name,
            "LSLP": speedup_over(runs, "LSLP"),
            "SN-SLP": speedup_over(runs, "SN-SLP"),
            # nested per-config breakdowns land in the JSON twin of the
            # results file; format_rows skips non-scalar columns
            "phase_seconds": {
                name: runs[name].phase_seconds for name in ("LSLP", "SN-SLP")
            },
            "counters": {
                name: runs[name].counters for name in ("LSLP", "SN-SLP")
            },
        }
        if journal:
            row["journal"] = {
                name: runs[name].journal for name in ("LSLP", "SN-SLP")
            }
        rows.append(row)
    rows.append(
        {
            "kernel": "geomean",
            "LSLP": _geomean([row["LSLP"] for row in rows]),
            "SN-SLP": _geomean([row["SN-SLP"] for row in rows]),
        }
    )
    return rows


def _geomean(values: Sequence[float]) -> float:
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values)) if values else 0.0


# -- Figures 6 and 7 -----------------------------------------------------------------

def fig6_aggregate_node_size(
    kernels: Optional[Sequence[Kernel]] = None,
    target: TargetMachine = DEFAULT_TARGET,
    jobs: Optional[int] = 1,
) -> List[Row]:
    """Total aggregate Multi-/Super-Node size per kernel (Figure 6)."""
    kernels = _kernel_set(kernels)
    suite = _suite_runs(kernels, target, jobs)
    rows: List[Row] = []
    for kernel in kernels:
        runs = suite[kernel.name]
        rows.append(
            {
                "kernel": kernel.name,
                "LSLP": runs["LSLP"].aggregate_node_size,
                "SN-SLP": runs["SN-SLP"].aggregate_node_size,
            }
        )
    rows.append(
        {
            "kernel": "total",
            "LSLP": sum(row["LSLP"] for row in rows),
            "SN-SLP": sum(row["SN-SLP"] for row in rows),
        }
    )
    return rows


def fig7_average_node_size(
    kernels: Optional[Sequence[Kernel]] = None,
    target: TargetMachine = DEFAULT_TARGET,
    jobs: Optional[int] = 1,
) -> List[Row]:
    """Average Multi-/Super-Node size per kernel (Figure 7)."""
    kernels = _kernel_set(kernels)
    suite = _suite_runs(kernels, target, jobs)
    rows: List[Row] = []
    totals = {"LSLP": [0, 0], "SN-SLP": [0, 0]}  # [aggregate, count]
    for kernel in kernels:
        runs = suite[kernel.name]
        row: Row = {"kernel": kernel.name}
        for name in ("LSLP", "SN-SLP"):
            row[name] = runs[name].average_node_size
            totals[name][0] += runs[name].aggregate_node_size
            totals[name][1] += runs[name].node_count
        rows.append(row)
    rows.append(
        {
            "kernel": "average",
            "LSLP": totals["LSLP"][0] / totals["LSLP"][1] if totals["LSLP"][1] else 0.0,
            "SN-SLP": (
                totals["SN-SLP"][0] / totals["SN-SLP"][1]
                if totals["SN-SLP"][1]
                else 0.0
            ),
        }
    )
    return rows


# -- Figure 8: composite full benchmarks ------------------------------------------------

def _program_cycles(
    program: Program,
    config: SLPConfig,
    target: TargetMachine,
    seed: int,
    bulk_trip: int,
) -> Dict[str, float]:
    kernel = program.kernel
    inputs = kernel.make_inputs(random.Random(seed))
    compiled = compile_module(program.build(), config, target)
    kernel_sim = simulate(
        compiled.module, kernel.function, target, [kernel.trip_count], inputs=inputs
    )
    bulk_sim = simulate(compiled.module, "bulk", target, [bulk_trip])
    return {
        "kernel": kernel_sim.cycles,
        "bulk": bulk_sim.cycles,
        "vectorized": float(len(compiled.report.vectorized_graphs())),
        "aggregate_node_size": float(compiled.report.aggregate_node_size()),
        "node_count": float(compiled.report.node_count()),
    }


def fig8_full_benchmark_speedups(
    programs: Optional[Sequence[Program]] = None,
    target: TargetMachine = DEFAULT_TARGET,
    seed: int = DEFAULT_SEED,
    bulk_trip: int = 4096,
    jobs: Optional[int] = 1,
) -> List[Row]:
    """End-to-end speedup of the composite benchmarks (Figure 8).

    The bulk function's weight is calibrated from the O3 run so the kernel
    accounts for the program's ``kernel_fraction`` of total O3 cycles; the
    same weight then applies to every configuration.  ``jobs != 1``
    shards the (program, config) measurements across worker processes.
    """
    programs = list(programs) if programs is not None else list(PROGRAMS)
    config_names = [c.name for c in (O3_CONFIG, LSLP_CONFIG, SNSLP_CONFIG)]
    if jobs is not None and jobs != 1:
        from .parallel import run_program_grid_parallel

        grid = run_program_grid_parallel(
            [p.name for p in programs], config_names, target, seed, bulk_trip,
            jobs=jobs,
        )
    else:
        grid = {
            program.name: {
                name: _program_cycles(
                    program, config_named(name), target, seed, bulk_trip
                )
                for name in config_names
            }
            for program in programs
        }
    rows: List[Row] = []
    for program in programs:
        per_config = grid[program.name]
        o3 = per_config["O3"]
        fraction = program.kernel_fraction
        bulk_weight = (o3["kernel"] * (1.0 - fraction)) / (fraction * o3["bulk"])

        def total(name: str) -> float:
            data = per_config[name]
            return data["kernel"] + bulk_weight * data["bulk"]

        rows.append(
            {
                "benchmark": program.name,
                "kernel_fraction": fraction,
                "LSLP": total("O3") / total("LSLP"),
                "SN-SLP": total("O3") / total("SN-SLP"),
                "SN-SLP vs LSLP": total("LSLP") / total("SN-SLP"),
            }
        )
    return rows


# -- Figures 9 and 10: node sizes over full benchmarks -----------------------------------

def _program_node_stats(
    programs: Optional[Sequence[Program]],
    target: TargetMachine,
    average: bool,
) -> List[Row]:
    rows: List[Row] = []
    for program in programs if programs is not None else PROGRAMS:
        row: Row = {"benchmark": program.name}
        for config in PAPER_CONFIGS:
            compiled = compile_module(program.build(), config, target)
            report = compiled.report
            row[config.name] = (
                report.average_node_size() if average else report.aggregate_node_size()
            )
        rows.append(row)
    return rows


def fig9_aggregate_node_size_full(
    programs: Optional[Sequence[Program]] = None,
    target: TargetMachine = DEFAULT_TARGET,
) -> List[Row]:
    """Aggregate node size across the composite benchmarks (Figure 9)."""
    rows = _program_node_stats(programs, target, average=False)
    rows.append(
        {
            "benchmark": "total",
            "LSLP": sum(row["LSLP"] for row in rows),
            "SN-SLP": sum(row["SN-SLP"] for row in rows),
        }
    )
    return rows


def fig10_average_node_size_full(
    programs: Optional[Sequence[Program]] = None,
    target: TargetMachine = DEFAULT_TARGET,
) -> List[Row]:
    """Average node size across the composite benchmarks (Figure 10)."""
    return _program_node_stats(programs, target, average=True)


# -- Figure 11: compilation time -----------------------------------------------------------

def fig11_compile_time(
    kernels: Optional[Sequence[Kernel]] = None,
    target: TargetMachine = DEFAULT_TARGET,
    runs: int = 10,
    warmup: int = 1,
) -> List[Row]:
    """Wall compilation time normalized to the O3 configuration
    (Figure 11): 10 measured runs after one warm-up, mean +/- stddev.
    Kernels are timed one after another in this process: compiles timed
    concurrently would measure their contention, not the compiler."""
    rows: List[Row] = []
    for kernel in _kernel_set(kernels):
        stats, phases = compile_time_and_phase_stats(
            kernel, target, runs=runs, warmup=warmup
        )
        o3 = stats["O3"]
        rows.append(
            {
                "kernel": kernel.name,
                "O3": 1.0,
                "LSLP": stats["LSLP"].mean / o3.mean,
                "SN-SLP": stats["SN-SLP"].mean / o3.mean,
                "LSLP stddev": stats["LSLP"].stddev / o3.mean,
                "SN-SLP stddev": stats["SN-SLP"].stddev / o3.mean,
                "phase_seconds": phases,
            }
        )
    return rows


# -- formatting --------------------------------------------------------------------------

def format_rows(rows: Sequence[Row], title: str = "") -> str:
    """Render rows as an aligned text table.

    Nested (dict/list) columns — the per-config phase-time and counter
    breakdowns — are JSON-only payload and are skipped here.
    """
    if not rows:
        return title
    columns = [
        col
        for col, value in rows[0].items()
        if not isinstance(value, (dict, list))
    ]
    widths = {
        col: max(
            len(str(col)),
            *(len(_fmt(row.get(col, ""))) for row in rows),
        )
        for col in columns
    }
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(col).ljust(widths[col]) for col in columns))
    for row in rows:
        lines.append(
            "  ".join(_fmt(row.get(col, "")).ljust(widths[col]) for col in columns)
        )
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
