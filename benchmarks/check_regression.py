#!/usr/bin/env python
"""Speedup regression gate: fresh Figure 5 run vs the committed baseline.

Recomputes the kernel speedups (simulated cycles are deterministic, so any
drift is a code change, not noise) and compares them against
``benchmarks/results/fig5_kernel_speedup.json``.  A kernel whose LSLP or
SN-SLP speedup dropped by more than ``TOLERANCE`` (10%) fails the check;
improvements and new kernels only inform.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py
    PYTHONPATH=src python benchmarks/check_regression.py --jobs 2

``--jobs N`` shards the Figure 5 measurement over N worker processes
(bit-identical data).  Wall-clock performance is measured by
``benchmarks/e2e/run.py``, not here.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

BASELINE = (
    pathlib.Path(__file__).parent / "results" / "fig5_kernel_speedup.json"
)
CONFIGS = ("LSLP", "SN-SLP")
#: maximum allowed fractional speedup drop
TOLERANCE = 0.10


def load_baseline(path: pathlib.Path) -> dict:
    rows = json.loads(path.read_text())
    return {row["kernel"]: row for row in rows if "kernel" in row}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the fresh Figure 5 run (default 1)",
    )
    args = parser.parse_args(argv)

    if not BASELINE.exists():
        print(f"FAIL: baseline not found: {BASELINE}")
        return 2
    baseline = load_baseline(BASELINE)

    from repro.bench import fig5_kernel_speedups

    fresh = {
        row["kernel"]: row
        for row in fig5_kernel_speedups(jobs=args.jobs)
        if "kernel" in row
    }

    failures = []
    for kernel, old in sorted(baseline.items()):
        new = fresh.get(kernel)
        if new is None:
            print(f"WARN: kernel {kernel!r} in baseline but not in fresh run")
            continue
        for config in CONFIGS:
            if config not in old:
                continue
            was, now = float(old[config]), float(new[config])
            drop = (was - now) / was if was else 0.0
            marker = "ok"
            if drop > TOLERANCE:
                marker = "REGRESSION"
                failures.append((kernel, config, was, now))
            print(
                f"{marker:10s} {kernel:24s} {config:7s} "
                f"baseline {was:6.3f}  now {now:6.3f}  ({-drop:+.1%})"
            )
    for kernel in sorted(set(fresh) - set(baseline)):
        print(f"NEW        {kernel:24s} (not in baseline)")

    if failures:
        print(
            f"\nFAIL: {len(failures)} speedup(s) regressed beyond "
            f"{TOLERANCE:.0%}:"
        )
        for kernel, config, was, now in failures:
            print(f"  {kernel} [{config}]: {was:.3f} -> {now:.3f}")
        return 1
    print(f"\nOK: all speedups within {TOLERANCE:.0%} of the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
