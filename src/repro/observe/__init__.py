"""Observability: one event stream, counters and metrics.

The LLVM-style introspection set for this Python compiler:

* :mod:`repro.observe.trace`   — the one event stream.  A session's
  :class:`Tracer` records spans (``-time-passes`` / ``-ftime-trace``),
  optimization remarks (``-Rpass``), vectorizer decisions (seeds,
  look-ahead scores, APO reorders, cost verdicts — what ``repro
  explain`` narrates) and leveled service log events as
  :class:`TraceEvent` records in one list, each category behind one bit
  of one mask.  The Chrome trace, ``--remarks``, ``--journal`` and
  ``--log`` files are views over that list;
* :mod:`repro.observe.stats`   — named counter registry with
  snapshot/reset semantics (``-stats``);
* :mod:`repro.observe.metrics` — session-scoped gauges, timers and
  fixed-bucket histograms with Prometheus text exposition
  (``--metrics-out``);
* :mod:`repro.observe.context` — request-scoped :class:`TraceContext`
  (trace id, parent span id, attempt) carried through service envelopes
  so worker spans parent into one cross-process tree per request;
* :mod:`repro.observe.profile` — self-time attribution and folded
  flamegraph export over recorded spans (``repro profile``);
* :mod:`repro.observe.session` — :class:`CompilerSession`, the explicit
  bundle of tracer, counters and metrics that makes compilation
  reentrant, and its :meth:`~CompilerSession.capture` /
  :meth:`~CompilerSession.absorb` pair, the one path telemetry takes
  between sessions and processes.

All of these are off (or free) by default: an emit site costs one
attribute test while its category is off, and counters are plain
attribute increments.  The CLI's ``--trace-out``, ``--remarks``,
``--journal``, ``--log``, ``--stats`` and ``--metrics-out`` flags arm
them for the command's session.

The renderers that *consume* this data — :mod:`repro.observe.dot`
(SLP graph DOT/JSON dumps), :mod:`repro.observe.explain` (per-graph
narratives) and :mod:`repro.observe.report_html` (single-file bench
reports) — are deliberately not re-exported here: they reach into
``repro.vectorizer``, and importing them at package init would create a
cycle (the vectorizer imports ``repro.observe`` for ``STAT``).
"""

from .context import (
    TraceContext,
    current_trace_context,
    mint_context,
    new_span_id,
    use_trace_context,
    validate_span_tree,
)
from .trace import (
    ALL,
    DECISION,
    LOG,
    REMARK,
    SPAN,
    TraceEvent,
    Tracer,
    load_chrome_trace,
    load_records,
    write_records,
)
from .stats import STAT, STAT_CATALOG, StatProxy, Statistic, StatsRegistry
from .metrics import Histogram, MetricsRegistry, exact_percentile
from .session import (
    DEFAULT_SESSION,
    METRICS,
    Capture,
    CompilerSession,
    current_metrics,
    current_session,
    current_stats,
    current_tracer,
    use_session,
)

__all__ = [
    "Tracer",
    "TraceEvent",
    "SPAN",
    "REMARK",
    "DECISION",
    "LOG",
    "ALL",
    "load_records",
    "write_records",
    "TraceContext",
    "mint_context",
    "new_span_id",
    "current_trace_context",
    "use_trace_context",
    "validate_span_tree",
    "load_chrome_trace",
    "STAT",
    "STAT_CATALOG",
    "StatProxy",
    "Statistic",
    "StatsRegistry",
    "Histogram",
    "MetricsRegistry",
    "exact_percentile",
    "Capture",
    "CompilerSession",
    "DEFAULT_SESSION",
    "METRICS",
    "current_session",
    "current_stats",
    "current_tracer",
    "current_metrics",
    "use_session",
]
