"""Benchmark harness: regenerates every table and figure of the paper."""

from .runner import (
    DEFAULT_SEED,
    KernelRun,
    outputs_match,
    run_kernel_config,
    run_kernel_matrix,
    speedup_over,
)
from .parallel import (
    default_jobs,
    run_kernel_matrix_parallel,
    run_suite_parallel,
)
from .figures import (
    PAPER_CONFIGS,
    fig5_kernel_speedups,
    fig6_aggregate_node_size,
    fig7_average_node_size,
    fig8_full_benchmark_speedups,
    fig9_aggregate_node_size_full,
    fig10_average_node_size_full,
    fig11_compile_time,
    format_rows,
)
from .tables import format_table1, table1_with_activation
from .timing import compile_once_seconds, compile_time_and_phase_stats

__all__ = [
    "DEFAULT_SEED",
    "KernelRun",
    "outputs_match",
    "run_kernel_config",
    "run_kernel_matrix",
    "speedup_over",
    "default_jobs",
    "run_kernel_matrix_parallel",
    "run_suite_parallel",
    "PAPER_CONFIGS",
    "fig5_kernel_speedups",
    "fig6_aggregate_node_size",
    "fig7_average_node_size",
    "fig8_full_benchmark_speedups",
    "fig9_aggregate_node_size_full",
    "fig10_average_node_size_full",
    "fig11_compile_time",
    "format_rows",
    "table1_with_activation",
    "format_table1",
    "compile_once_seconds",
    "compile_time_and_phase_stats",
]
