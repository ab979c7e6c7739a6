"""Hierarchical span tracing — the repro's ``-time-passes``.

A :class:`Tracer` records nested spans (context-manager API, monotonic
clocks) and exports them as Chrome trace-event JSON, loadable directly by
``chrome://tracing`` / Perfetto.  The compilation pipeline opens one span
per phase, the vectorizer one per seed graph, and the simulator one per
invocation, so a single trace file shows where a whole benchmark run
spends its time.

Tracing is off by default.  When disabled, :meth:`Tracer.span` returns a
shared no-op context manager after a single attribute test, so the cost of
leaving instrumentation in hot paths is one branch — the same contract as
LLVM's ``TimeTraceScope``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from .context import TraceContext, new_span_id


@dataclass
class TraceEvent:
    """One completed span.

    ``depth`` is the nesting level at the time the span opened (0 = root);
    events are appended in *completion* order, so children precede their
    parent in :attr:`Tracer.events`.
    """

    name: str
    start_ns: int
    duration_ns: int
    depth: int
    args: Dict[str, object] = field(default_factory=dict)
    #: originating OS process, for spans merged in from ProcessPool
    #: workers (repro.bench.parallel); 0 means "this process"
    pid: int = 0
    #: worker-pool generation of the originating process (respawns bump
    #: it); tracks are keyed by (generation, pid) because the OS reuses
    #: pids across service generations
    generation: int = 0
    #: distributed-trace linkage (empty outside a bound request context)
    trace_id: str = ""
    span_id: str = ""
    parent_id: str = ""

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns

    def contains(self, other: "TraceEvent") -> bool:
        """Whether ``other`` nests (time-wise) inside this span."""
        return self.start_ns <= other.start_ns and other.end_ns <= self.end_ns


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span; created only when the tracer is enabled."""

    __slots__ = (
        "tracer", "name", "args", "start_ns", "depth",
        "trace_id", "span_id", "parent_id",
    )

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, object]) -> None:
        self.tracer = tracer
        self.name = name
        self.args = args
        self.trace_id = ""
        self.span_id = ""
        self.parent_id = ""

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack
        self.depth = len(stack)
        binding = self.tracer._binding
        if binding:
            # A request context is bound: give this span an identity and
            # parent it under the enclosing live span (if that span is
            # itself bound) or the request's parent span.
            context = binding[-1]
            enclosing = stack[-1] if stack else None
            self.trace_id = context.trace_id
            self.span_id = new_span_id()
            if enclosing is not None and enclosing.span_id:
                self.parent_id = enclosing.span_id
            else:
                self.parent_id = context.span_id
        stack.append(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end_ns = time.perf_counter_ns()
        stack = self.tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        self.tracer.events.append(
            TraceEvent(
                name=self.name,
                start_ns=self.start_ns,
                duration_ns=end_ns - self.start_ns,
                depth=self.depth,
                args=self.args,
                trace_id=self.trace_id,
                span_id=self.span_id,
                parent_id=self.parent_id,
            )
        )


class Tracer:
    """Collects hierarchical spans; exportable as Chrome trace JSON."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.events: List[TraceEvent] = []
        self._stack: List[_Span] = []
        self._binding: List[TraceContext] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **args: object):
        """Open a span: ``with tracer.span("vectorize", config="SN-SLP")``.

        Returns a shared no-op context manager when tracing is disabled.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, args)

    @contextmanager
    def bind(
        self, context: Optional[TraceContext]
    ) -> Iterator[Optional[TraceContext]]:
        """Attribute spans opened in this scope to a request context.

        While bound (and enabled), every completed span carries the
        context's ``trace_id``, a fresh ``span_id``, and a ``parent_id``
        chaining it to the enclosing span (or to ``context.span_id`` at
        the top of the stack) — the cross-process causal links the
        distributed span tree is assembled from.  ``bind(None)`` and
        binding a disabled tracer are no-ops, preserving the one-branch
        disabled contract.
        """
        if context is None or not self.enabled:
            yield None
            return
        self._binding.append(context)
        try:
            yield context
        finally:
            self._binding.pop()

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        self.events.clear()
        self._stack.clear()
        self._binding.clear()

    # -- queries -----------------------------------------------------------

    def named(self, name: str) -> List[TraceEvent]:
        return [event for event in self.events if event.name == name]

    def total_ns(self, name: str) -> int:
        return sum(event.duration_ns for event in self.named(name))

    # -- Chrome trace-event export ----------------------------------------

    def to_chrome_trace(self) -> Dict[str, object]:
        """The trace as a Chrome trace-event JSON object.

        Complete ("X") events with microsecond timestamps.  Spans merged
        in from service workers render one process track per **(pid,
        generation)** pair — not per pid, because the OS reuses pids and
        a post-respawn worker's spans would otherwise collide with its
        predecessor's track.  Synthetic track ids are assigned in first-
        appearance order (the parent process is always track 1) and
        labelled through ``process_name`` metadata events.  Spans bound
        to a request context carry ``trace_id``/``span_id``/``parent_id``
        in their args, so the file round-trips through
        :func:`load_chrome_trace` with causal links intact.
        """
        tracks: Dict[tuple, int] = {(0, 0): 1}
        trace_events: List[Dict[str, object]] = []
        for event in self.events:
            key = (event.pid, event.generation)
            track = tracks.get(key)
            if track is None:
                track = len(tracks) + 1
                tracks[key] = track
            record: Dict[str, object] = {
                "name": event.name,
                "ph": "X",
                "ts": event.start_ns / 1000.0,
                "dur": event.duration_ns / 1000.0,
                "pid": track,
                "tid": 1,
            }
            args = (
                {k: str(v) for k, v in event.args.items()}
                if event.args else {}
            )
            if event.trace_id:
                args["trace_id"] = event.trace_id
                args["span_id"] = event.span_id
                args["parent_id"] = event.parent_id
            if event.pid:
                args["worker_pid"] = str(event.pid)
                args["worker_generation"] = str(event.generation)
            if args:
                record["args"] = args
            trace_events.append(record)
        metadata: List[Dict[str, object]] = []
        for (pid, generation), track in sorted(
            tracks.items(), key=lambda item: item[1]
        ):
            if pid == 0:
                label = "parent"
            elif generation == 0:
                label = f"worker pid {pid}"
            else:
                label = f"worker pid {pid} gen {generation}"
            metadata.append({
                "name": "process_name",
                "ph": "M",
                "pid": track,
                "tid": 1,
                "args": {"name": label},
            })
        return {
            "traceEvents": metadata + trace_events,
            "displayTimeUnit": "ms",
        }

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=1)
            handle.write("\n")


def load_chrome_trace(path: str) -> List[TraceEvent]:
    """Parse a written Chrome trace back into :class:`TraceEvent` objects.

    The inverse of :meth:`Tracer.write_chrome_trace`, up to arg
    stringification: complete ("X") events become TraceEvents with their
    trace linkage and worker pid/generation recovered from args, which
    is everything ``repro waterfall`` needs to regroup a trace file into
    per-request latency breakdowns.
    """
    with open(path) as handle:
        document = json.load(handle)
    events: List[TraceEvent] = []
    for record in document.get("traceEvents", []):
        if record.get("ph") != "X":
            continue
        args = dict(record.get("args", {}))
        trace_id = str(args.pop("trace_id", ""))
        span_id = str(args.pop("span_id", ""))
        parent_id = str(args.pop("parent_id", ""))
        pid = int(args.pop("worker_pid", 0))
        generation = int(args.pop("worker_generation", 0))
        events.append(
            TraceEvent(
                name=str(record.get("name", "")),
                start_ns=int(float(record.get("ts", 0.0)) * 1000.0),
                duration_ns=int(float(record.get("dur", 0.0)) * 1000.0),
                depth=0,
                args=args,
                pid=pid,
                generation=generation,
                trace_id=trace_id,
                span_id=span_id,
                parent_id=parent_id,
            )
        )
    return events
