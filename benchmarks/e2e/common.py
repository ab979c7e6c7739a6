"""Helpers shared by the end-to-end benchmark's command, workloads and tools.

Nothing here imports ``repro``: the command (``run.py``) and the comparison
tool (``compare.py``) stay independent of the code under measurement.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
#: root of the checkout: ``benchmarks/e2e`` sits two levels below it
ROOT = HERE.parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: the repository's default benchmark seed (CGO 2019 conference date)
DEFAULT_SEED = 20190216
WORKLOADS = ("suite", "suite-jobs2", "supernode-wide", "serve-mixed")

Metric = Dict[str, object]


def metric(value: float, unit: str) -> Metric:
    return {"value": value, "unit": unit}


def load_spec(path: Path = SPEC_PATH) -> Dict[str, object]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (the ``numpy.percentile`` default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def _speed_loop(n: int) -> float:
    """Fixed pure-Python work: attribute reads, dict updates, float math."""
    cells = [_Cell(i, float(i)) for i in range(64)]
    counts: Dict[int, int] = {}
    acc = 0.0
    for i in range(n):
        cell = cells[i & 63]
        counts[cell.key] = counts.get(cell.key, 0) + 1
        acc += cell.value * 0.5 / (cell.key + 1.0)
    return acc


def time_speed_loop() -> float:
    started = time.perf_counter()
    _speed_loop(HostSpeed.LOOP)
    return time.perf_counter() - started


#: a probe helper process: runs the loop once per line read, prints its time
_HELPER = "import sys\nfrom common import time_speed_loop\nfor _ in sys.stdin: print(time_speed_loop(), flush=True)\n"


class HostSpeed:
    """How fast the host runs Python right now, relative to a reference.

    The benchmark's host is shared: other load slows everything on it, by
    up to 40%, in stretches from a tenth of a second to minutes.  A fixed
    loop timed between short units of work, while the program under test
    is idle, slows the same way.  Each unit's wall times are multiplied by
    ``REFERENCE_S / probe`` -- the mean of the probes just before and just
    after the unit -- which maps them to the reference speed, so runs made
    at different moments compare.  A factor above 1 means the host ran
    faster than the reference.

    The loop runs in the measuring process, and for a program that runs on
    several processes (``processes``) in as many helper processes at the
    same moment, so the probe also slows when the host squeezes the CPUs
    against each other.  Run only in helpers, the probe tracked the
    program's speed far worse (a ten-run ``suite`` throughput spread of
    16% against 1.6%).  The factor is right only while the program is
    idle and its heap leaves the loop alone: a program that burns CPU
    between units, or a heap that slows the loop, moves the factor too.
    ``compare.py`` checks its verdicts against the raw times for that
    reason.  Use as a context manager; leaving it stops the helpers.
    """

    #: iterations of the probe loop (about 12 ms)
    LOOP = 80_000
    #: about the median probe time on the 2-vCPU x86-64 VM (CPython 3.11)
    #: where the benchmark was defined; any constant works, both sides of a
    #: comparison use the same one
    REFERENCE_S = 0.0135

    def __init__(self, processes: int = 1) -> None:
        self._helpers = [
            subprocess.Popen(
                [sys.executable, "-c", _HELPER], cwd=HERE, text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )
            for _ in range(processes - 1)
        ]
        self.last = self.probe()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc_info: object) -> None:
        for helper in self._helpers:
            helper.stdin.close()
            helper.wait()
            helper.stdout.close()

    def probe(self) -> float:
        """Mean loop time over this process and the helpers, run together."""
        for helper in self._helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        times = [time_speed_loop()]
        times += [float(helper.stdout.readline()) for helper in self._helpers]
        return sum(times) / len(times)

    def factor(self) -> float:
        """Probe now; the factor for the stretch since the last probe."""
        now = self.probe()
        factor = 2.0 * self.REFERENCE_S / (self.last + now)
        self.last = now
        return factor


def median_iqr(values: Sequence[float]) -> List[float]:
    """``[median, q3 - q1]`` with quartiles as ``statistics.quantiles`` gives
    them (a single value has no spread)."""
    if len(values) < 2:
        return [float(values[0]), 0.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [statistics.median(values), q3 - q1]
