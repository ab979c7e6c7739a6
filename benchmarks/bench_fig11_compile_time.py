"""Figure 11 — compilation time normalized to O3.

Paper shape: SN-SLP introduces no significant compile-time overhead over
LSLP (nothing compile-time intensive was added).  This bench reproduces
the protocol (10 runs + 1 warm-up) and additionally uses pytest-benchmark
to time one full compilation per (kernel, config) pair so the harness's
own timing machinery exercises real work.
"""

import pytest

from repro.bench import compile_once_seconds, fig11_compile_time, format_rows
from repro.kernels import all_kernels, kernel_named
from repro.machine import DEFAULT_TARGET
from repro.vectorizer import LSLP_CONFIG, O3_CONFIG, SNSLP_CONFIG
from conftest import emit


def test_fig11_compile_time(once):
    rows = once(fig11_compile_time)
    emit(
        "fig11_compile_time",
        format_rows(rows, "Figure 11: compilation time normalized to O3"),
        rows=rows,
    )
    # SN-SLP must not blow up compile time relative to LSLP: the paper
    # reports no significant change.  Our pipeline is *only* clone + SLP +
    # verify (no other passes diluting the ratio as in clang), and Python
    # timers at the millisecond scale are noisy, so the bound is generous;
    # it still catches algorithmic blow-ups in the reorder search.
    for row in rows:
        bound = max(4.0 * row["LSLP"] + 1.5, 8.0)  # noise-tolerant floor
        assert row["SN-SLP"] <= bound, row["kernel"]


@pytest.mark.parametrize("config", [O3_CONFIG, LSLP_CONFIG, SNSLP_CONFIG], ids=lambda c: c.name)
def test_compile_one_kernel(benchmark, config):
    """pytest-benchmark timing of one full compilation (milc kernel)."""
    kernel = kernel_named("milc-su3-cmul")
    benchmark(compile_once_seconds, kernel, config, DEFAULT_TARGET)
