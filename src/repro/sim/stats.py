"""Small statistics helpers shared by the simulator and benchmark harness.

The paper reports the average of 10 runs after one warm-up and draws error
bars from the standard deviation; :func:`summarize` implements exactly that
protocol for any measurement callable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass(frozen=True)
class RunStats:
    """Mean/stddev summary of repeated measurements."""

    samples: tuple
    mean: float
    stddev: float

    @property
    def count(self) -> int:
        return len(self.samples)

    def normalized_to(self, baseline: "RunStats") -> float:
        """This mean relative to a baseline mean (dimensionless ratio)."""
        if self.mean == 0:
            return float("inf")
        return baseline.mean / self.mean


def mean(values: Sequence[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def stddev(values: Sequence[float]) -> float:
    values = list(values)
    if len(values) < 2:
        return 0.0
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))


def summarize(values: Sequence[float]) -> RunStats:
    values = tuple(values)
    return RunStats(samples=values, mean=mean(values), stddev=stddev(values))


def measure(
    fn: Callable[[], float],
    runs: int = 10,
    warmup: int = 1,
) -> RunStats:
    """The paper's measurement protocol: warm-up runs discarded, then
    ``runs`` measured executions summarized as mean +/- stddev."""
    for _ in range(warmup):
        fn()
    return summarize([fn() for _ in range(runs)])
