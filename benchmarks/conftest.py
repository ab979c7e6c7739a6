"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures.  The data
rows are printed to stdout (run with ``-s`` to see them inline) and also
written to ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can cite a
stable artifact.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_jobs() -> int:
    """Worker processes for the cycle figures (5 and 8).

    Defaults to 1 (serial); set ``REPRO_BENCH_JOBS=N`` to shard their
    (kernel, config) measurements over N processes.  Their data is
    identical either way, since simulated cycles are deterministic.
    Figure 11 measures wall time, so it always runs serially.
    """
    try:
        return max(1, int(os.environ.get("REPRO_BENCH_JOBS", "1")))
    except ValueError:
        return 1


def emit(name: str, text: str, rows=None) -> None:
    """Print a figure/table and persist it under benchmarks/results/.

    When the raw ``rows`` are passed, a machine-readable JSON twin is
    written next to the text table (for downstream plotting).
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if rows is not None:
        (RESULTS_DIR / f"{name}.json").write_text(
            json.dumps(rows, indent=2, default=str) + "\n"
        )
    print()
    print(text)


@pytest.fixture
def once(benchmark):
    """Run the measured callable exactly once under pytest-benchmark.

    Figure regeneration is deterministic and relatively slow; one round is
    the right trade-off (the *data* is the product, the timing is
    informational).
    """

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return run
