"""Session-scoped metrics: gauges, timers and fixed-bucket histograms.

Counters (:mod:`repro.observe.stats`) answer "how many times did X
happen"; this module answers "how is X *distributed* and what is its
latest level".  A :class:`MetricsRegistry` belongs to a
:class:`~repro.observe.session.CompilerSession` and collects

* **gauges** — last-written scalar values (``serve.compiles_per_sec``,
  ``bench.geomean_speedup.SN-SLP``);
* **histograms** — fixed-bucket distributions with p50/p90/p99
  summaries (``phase.vectorize.seconds``, ``bench.kernel.cycles``);
* **timers** — context managers that observe elapsed wall seconds into
  a histogram, mirroring the tracer's span API.

Metrics are **off by default** and follow the same contract as the
tracer and decision journal: while disabled, every recording entry
point (:meth:`MetricsRegistry.gauge`, :meth:`~MetricsRegistry.observe`,
:meth:`~MetricsRegistry.timer`) costs one branch and touches nothing,
so a metrics-off run is bit-identical to a build without the
instrumentation.  Metric observations never write into the statistic
registry — counters stay counters.

``derive()``d child sessions *share* the parent's registry (like the
tracer), so child observations accumulate into the parent's histograms
by construction.  Parallel workers run in separate processes and ship
their registry back in the worker capture; :meth:`MetricsRegistry.merge`
folds those in deterministically (payload order).

:meth:`MetricsRegistry.render_exposition` emits Prometheus text format
(the surface a future ``repro serve`` endpoint would scrape), rendering
the session's statistic counters alongside the gauges and histograms.
"""

from __future__ import annotations

import re
import time
from typing import Dict, List, Optional, Sequence, Tuple

from .stats import StatsRegistry


def _default_bounds() -> Tuple[float, ...]:
    """A wide 1-3 exponential ladder (1e-7 .. 5e7) serving both
    sub-microsecond phase times and multi-million cycle counts."""
    bounds: List[float] = []
    for exponent in range(-7, 8):
        for mantissa in (1.0, 3.0):
            bounds.append(mantissa * 10.0 ** exponent)
    return tuple(bounds)


DEFAULT_BUCKET_BOUNDS: Tuple[float, ...] = _default_bounds()


def exact_percentile(values: Sequence[float], q: float) -> float:
    """Exact linear-interpolated percentile of ``values`` (q in 0..100).

    Used where the fixed-bucket approximation is too coarse — e.g. the
    compile-time p50/p99 figures committed in BENCH files.
    """
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return float(data[0])
    rank = (q / 100.0) * (len(data) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    frac = rank - lo
    return data[lo] + (data[hi] - data[lo]) * frac


class Histogram:
    """A fixed-bucket histogram with min/max/sum tracking.

    ``bounds`` are inclusive upper edges; one overflow bucket catches
    everything above the last edge.  Percentiles are estimated by
    cumulative-count crossing with linear interpolation inside the
    bucket, clamped to the observed min/max (so a single-value histogram
    reports that value exactly).
    """

    def __init__(
        self,
        name: str,
        description: str = "",
        bounds: Sequence[float] = DEFAULT_BUCKET_BOUNDS,
    ) -> None:
        self.name = name
        self.description = description
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # first bucket whose upper edge >= value
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    def percentile(self, q: float) -> float:
        """Estimated q-th percentile (q in 0..100); 0.0 when empty."""
        if self.count == 0:
            return 0.0
        target = (q / 100.0) * self.count
        cumulative = 0
        lower_edge = self.vmin
        for index, bucket_count in enumerate(self.counts):
            upper = (
                self.bounds[index] if index < len(self.bounds) else self.vmax
            )
            if bucket_count:
                lo = max(lower_edge, self.vmin)
                hi = min(upper, self.vmax)
                if hi < lo:
                    hi = lo
                if cumulative + bucket_count >= target:
                    frac = (target - cumulative) / bucket_count
                    return lo + (hi - lo) * frac
                cumulative += bucket_count
            if index < len(self.bounds):
                lower_edge = self.bounds[index]
        return self.vmax

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations into this histogram in place."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"histogram {self.name!r}: bucket bounds mismatch on merge"
            )
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.count += other.count
        self.total += other.total
        if other.count:
            self.vmin = min(self.vmin, other.vmin)
            self.vmax = max(self.vmax, other.vmax)

    def summary(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p90": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name}, n={self.count})"


class _NullTimer:
    """Shared no-op context manager returned while metrics are disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_TIMER = _NullTimer()


class _Timer:
    """A live timer; created only when the registry is enabled.

    Records into the histogram in ``__exit__`` even when the timed block
    raises — a failing phase still accounts for its wall time.
    """

    __slots__ = ("histogram", "start")

    def __init__(self, histogram: Histogram) -> None:
        self.histogram = histogram

    def __enter__(self) -> "_Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.histogram.observe(time.perf_counter() - self.start)


class MetricsRegistry:
    """Gauges + histograms + timers for one session.

    Disabled by default; every recording entry point tests
    :attr:`enabled` first and returns immediately, keeping metrics-off
    runs bit-identical (the event stream's contract).
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._descriptions: Dict[str, str] = {}

    # -- recording ---------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def gauge(self, name: str, value: float, description: str = "") -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        if not self.enabled:
            return
        self.gauges[name] = float(value)
        if description:
            self._descriptions.setdefault(name, description)

    def observe(
        self,
        name: str,
        value: float,
        description: str = "",
        bounds: Sequence[float] = DEFAULT_BUCKET_BOUNDS,
    ) -> None:
        """Record one sample into histogram ``name``."""
        if not self.enabled:
            return
        self.histogram(name, description, bounds).observe(value)

    def timer(self, name: str, description: str = ""):
        """Context manager observing elapsed wall seconds into ``name``.

        Returns a shared no-op context manager while disabled — one
        branch, nothing allocated (the tracer-span contract).
        """
        if not self.enabled:
            return _NULL_TIMER
        return _Timer(self.histogram(name, description))

    def histogram(
        self,
        name: str,
        description: str = "",
        bounds: Sequence[float] = DEFAULT_BUCKET_BOUNDS,
    ) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        existing = self.histograms.get(name)
        if existing is None:
            existing = Histogram(name, description, bounds)
            self.histograms[name] = existing
        elif description and not existing.description:
            existing.description = description
        return existing

    def clear(self) -> None:
        self.gauges.clear()
        self.histograms.clear()

    # -- aggregation -------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry (e.g. a parallel worker's) into this one.

        Histograms merge bucket-wise; gauges take the other registry's
        value (last-merged wins — callers merge in payload order, so the
        result is deterministic).
        """
        for name, value in other.gauges.items():
            self.gauges[name] = value
        for name, histogram in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histogram(name, histogram.description, histogram.bounds)
                self.histograms[name].merge(histogram)
            else:
                mine.merge(histogram)

    def summary(self) -> Dict[str, object]:
        """JSON-ready snapshot: gauges verbatim, histograms summarized."""
        return {
            "gauges": {name: self.gauges[name] for name in sorted(self.gauges)},
            "histograms": {
                name: self.histograms[name].summary()
                for name in sorted(self.histograms)
            },
        }

    # -- Prometheus text exposition ----------------------------------------

    def render_exposition(self, stats: Optional[StatsRegistry] = None) -> str:
        """Prometheus text format: counters (from ``stats``), gauges and
        histograms, all under a ``repro_`` prefix with sanitized names.

        Every exposition leads with a ``repro_build_info`` info-style
        gauge (value 1, identity in labels — the node-exporter idiom) so
        scraped series can always be joined back to the exact source
        fingerprint and bench-task format that produced them.
        """
        lines: List[str] = list(_build_info_lines())
        if stats is not None:
            for name in stats.names():
                stat = stats.stat(name)
                metric = f"{_sanitize(name)}_total"
                if stat.description:
                    lines.append(f"# HELP {metric} {stat.description}")
                lines.append(f"# TYPE {metric} counter")
                lines.append(f"{metric} {_fmt(stat.value)}")
        for name in sorted(self.gauges):
            metric = _sanitize(name)
            description = self._descriptions.get(name, "")
            if description:
                lines.append(f"# HELP {metric} {description}")
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_fmt(self.gauges[name])}")
        for name in sorted(self.histograms):
            histogram = self.histograms[name]
            metric = _sanitize(name)
            if histogram.description:
                lines.append(f"# HELP {metric} {histogram.description}")
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for index, bound in enumerate(histogram.bounds):
                cumulative += histogram.counts[index]
                if histogram.counts[index] or cumulative:
                    lines.append(
                        f'{metric}_bucket{{le="{_fmt(bound)}"}} {cumulative}'
                    )
            lines.append(f'{metric}_bucket{{le="+Inf"}} {histogram.count}')
            lines.append(f"{metric}_sum {_fmt(histogram.total)}")
            lines.append(f"{metric}_count {histogram.count}")
        return "\n".join(lines) + "\n"

    def write_exposition(
        self, path: str, stats: Optional[StatsRegistry] = None
    ) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.render_exposition(stats))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "on" if self.enabled else "off"
        return (
            f"<MetricsRegistry {state}: {len(self.gauges)} gauges, "
            f"{len(self.histograms)} histograms>"
        )


def _build_info_lines() -> List[str]:
    """The ``repro_build_info`` identity gauge, node-exporter style.

    The providers live in packages that import ``repro.observe`` (the
    vectorizer cache, for the source fingerprint; the service's tasks,
    for the task format), so they are imported lazily here — at render
    time the cycle has long since resolved.  If an embedder renders an
    exposition with those packages unavailable, the gauge is simply
    omitted rather than failing the scrape.
    """
    try:
        from ..serve.tasks import TASK_FORMAT
        from ..vectorizer.cache import repro_source_fingerprint
    except ImportError:  # pragma: no cover - partial installs only
        return []
    return [
        "# HELP repro_build_info source fingerprint and service task "
        "format of this build",
        "# TYPE repro_build_info gauge",
        "repro_build_info{"
        f'fingerprint="{repro_source_fingerprint()}",'
        f'task_format="{TASK_FORMAT}"'
        "} 1",
    ]


_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _sanitize(name: str) -> str:
    """A Prometheus-legal metric name: ``repro_`` prefix, bad chars -> _."""
    return "repro_" + _SANITIZE_RE.sub("_", name)


def _fmt(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return format(value, "g")
