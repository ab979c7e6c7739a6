"""The one telemetry event stream: spans, remarks, decisions and log records.

Each session's :class:`Tracer` records every :class:`TraceEvent` into one
:attr:`Tracer.events` list, in emission order.  A record's category is
one bit of :attr:`Tracer.mask`:

* ``span``     — a timed, nested region (``-time-passes`` /
  ``-ftime-trace``), exported as Chrome trace-event JSON;
* ``remark``   — a passed/missed/analysis/recovery optimization remark
  (``-Rpass``), written by ``--remarks``;
* ``decision`` — one vectorizer decision (seed, look-ahead scores, APO
  reorder, cost verdict) in a graph attempt; ``--journal`` writes them
  and ``repro explain`` narrates them;
* ``log``      — a leveled service/ops event, written by ``--log``.

Remarks, decisions and log records are zero-duration events on the spans'
monotonic clock.  Every category is off by default, and while it is off
an emit site costs one attribute test (:meth:`Tracer.span` returns a
shared no-op context manager), so category-off runs are bit-identical —
LLVM's ``TimeTraceScope`` contract.  ``Tracer(enabled=True)`` and
:meth:`Tracer.enable` with no argument arm spans only.  The output files
are views over the one list: :meth:`Tracer.to_chrome_trace` reads spans,
:func:`write_records` writes one point category as JSONL, and
:func:`load_records` reads any of those files back.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .context import TraceContext, new_span_id

#: the category bits of :attr:`Tracer.mask`
SPAN, REMARK, DECISION, LOG = 1, 2, 4, 8
ALL = SPAN | REMARK | DECISION | LOG

#: category name -> mask bit
CATEGORIES: Dict[str, int] = {
    "span": SPAN, "remark": REMARK, "decision": DECISION, "log": LOG,
}

#: remark kinds: clang's -Rpass / -Rpass-missed / -Rpass-analysis triple,
#: plus "recovery" for the guarded driver's and the service's rollbacks
REMARK_KINDS = ("passed", "missed", "analysis", "recovery")

#: decision kinds, in rough pipeline order:
#:
#: * ``seed``          — a seed bundle entered the worklist (adjacent
#:                       stores, a reduction chain, a min/max idiom)
#: * ``seed-rejected`` — a candidate seed was discarded before building
#:                       a graph, with the reason
#: * ``supernode``     — chain massaging grouped commutative trunks into
#:                       a Super-Node; args carry per-lane APO strings
#:                       and a before-reorder DOT snapshot
#: * ``lookahead``     — the look-ahead scorer ranked candidate operand
#:                       groups at one operand index (the score matrix)
#: * ``group``         — the winning group was locked in, with the APO
#:                       leaf/trunk swaps that legalized each lane
#: * ``reorder``       — reordering finished for a Super-Node; args
#:                       carry totals and the after-reorder DOT snapshot
#: * ``graph``         — an SLP graph was fully built (node/gather
#:                       counts, dump, DOT)
#: * ``cost``          — the cost model's verdict with the
#:                       scalar/vector/extract breakdown
#: * ``undo``          — emitted vector code was rolled back (cost
#:                       rejection or codegen failure)
DECISION_KINDS = (
    "seed",
    "seed-rejected",
    "supernode",
    "lookahead",
    "group",
    "reorder",
    "graph",
    "cost",
    "undo",
)

#: log levels, least to most severe
LOG_LEVELS = ("debug", "info", "warn", "error")

_LEVEL_RANK = {name: rank for rank, name in enumerate(LOG_LEVELS)}

#: records keep the spans' monotonic clock; log lines print it as epoch
#: seconds through this offset
_EPOCH_OFFSET_NS = time.time_ns() - time.perf_counter_ns()

#: JSONL key -> record field, per point category; the first three keys
#: are always written, the rest only when set
_LINE_KEYS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "remark": (
        ("kind", "kind"), ("pass", "name"), ("message", "message"),
        ("function", "function"), ("block", "block"), ("seed", "seed"),
    ),
    "decision": (
        ("kind", "kind"), ("message", "message"), ("graph_id", "graph_id"),
        ("function", "function"), ("block", "block"), ("seed", "seed"),
    ),
    "log": (
        ("level", "kind"), ("event", "name"), ("message", "message"),
        ("trace_id", "trace_id"),
    ),
}


@dataclass
class TraceEvent:
    """One record: a completed span, or a zero-duration point event.

    ``depth`` is the span-nesting level when the record was opened (0 =
    root); spans append in *completion* order, so children precede their
    parent in :attr:`Tracer.events`.  ``kind`` is the remark kind, the
    decision kind or the log level; ``name`` is the span name, the
    remark's pass, the decision kind or the log event.
    """

    name: str
    start_ns: int
    duration_ns: int
    depth: int
    args: Dict[str, object] = field(default_factory=dict)
    #: originating OS process of an absorbed record (0 = this process)
    pid: int = 0
    #: worker-pool generation of the originating process (respawns bump
    #: it); tracks are keyed by (generation, pid) because the OS reuses
    #: pids across service generations
    generation: int = 0
    #: distributed-trace linkage (empty outside a bound request context;
    #: a log record carries only the trace id)
    trace_id: str = ""
    span_id: str = ""
    parent_id: str = ""
    category: str = "span"
    kind: str = ""
    message: str = ""
    #: where a remark or decision happened; decisions also carry the
    #: graph attempt (-1 outside any attempt)
    function: str = ""
    block: str = ""
    seed: str = ""
    graph_id: int = -1

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns

    def contains(self, other: "TraceEvent") -> bool:
        """Whether ``other`` nests (time-wise) inside this span."""
        return self.start_ns <= other.start_ns and other.end_ns <= self.end_ns

    # -- JSONL lines (remark, decision and log records) ---------------------

    def to_dict(self) -> Dict[str, object]:
        """The record as one line of its category's JSONL file."""
        record: Dict[str, object] = {}
        for index, (key, attr) in enumerate(_LINE_KEYS[self.category]):
            value = getattr(self, attr)
            if index < 3 or value:
                record[key] = value
        if self.category == "log":
            record["ts"] = round((self.start_ns + _EPOCH_OFFSET_NS) / 1e9, 6)
        if self.args:
            record["args"] = self.args
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "TraceEvent":
        """Parse one JSONL line; its keys tell the category (log lines
        have ``level``, remark lines ``pass``, decision lines neither)."""
        category = (
            "log" if "level" in record
            else "remark" if "pass" in record
            else "decision"
        )
        args = dict(record.get("args", {}))  # type: ignore[call-overload]
        event = cls("", 0, 0, 0, args, category=category)
        for key, attr in _LINE_KEYS[category]:
            if key in record:
                setattr(event, attr, record[key])
        if category == "decision":
            event.name = event.kind
        if "ts" in record:
            event.start_ns = round(float(record["ts"]) * 1e9) - _EPOCH_OFFSET_NS  # type: ignore[arg-type]
        return event


class _NullSpan:
    """Shared no-op context manager returned while spans are off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span; created only while spans are armed."""

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
    """One session's recorder: every category into one event list."""

    def __init__(self, enabled: bool = False) -> None:
        #: the armed categories (SPAN | REMARK | DECISION | LOG bits)
        self.mask = SPAN if enabled else 0
        #: log threshold: log records ranked below it are dropped
        self.level = "info"
        self.events: List[TraceEvent] = []
        self._stack: List[_Span] = []
        self._binding: List[TraceContext] = []
        self._next_graph_id = 0
        self._graph: Dict[str, object] = {}

    @property
    def enabled(self) -> bool:
        """Whether spans are armed."""
        return bool(self.mask & SPAN)

    def enable(self, mask: int = SPAN) -> None:
        """Arm the ``mask`` categories (spans by default)."""
        self.mask |= mask

    def disable(self, mask: int = SPAN) -> None:
        self.mask &= ~mask

    def clear(self) -> None:
        self.events.clear()
        self._stack.clear()
        self._binding.clear()
        self._next_graph_id = 0
        self._graph = {}

    # -- spans -------------------------------------------------------------

    def span(self, name: str, **args: object):
        """Open a span: ``with tracer.span("vectorize", config="SN-SLP")``.

        Returns a shared no-op context manager while spans are off.
        """
        if not self.mask & SPAN:
            return _NULL_SPAN
        return _Span(self, name, args)

    @contextmanager
    def bind(
        self, context: Optional[TraceContext]
    ) -> Iterator[Optional[TraceContext]]:
        """Attribute spans opened in this scope to a request context.

        While bound (and spans are armed), every completed span carries
        the context's ``trace_id``, a fresh ``span_id``, and a
        ``parent_id`` chaining it to the enclosing span (or to
        ``context.span_id`` at the top of the stack) — the cross-process
        causal links the distributed span tree is assembled from.
        ``bind(None)`` and binding while spans are off are no-ops,
        preserving the one-branch disabled contract.
        """
        if context is None or not self.mask & SPAN:
            yield None
            return
        self._binding.append(context)
        try:
            yield context
        finally:
            self._binding.pop()

    def record_span(
        self, name: str, start_ns: int, duration_ns: int, depth: int,
        trace_id: str, span_id: str, parent_id: str, **args: object,
    ) -> None:
        """Record a span timed elsewhere (the synthesized client-side
        request spans) while spans are armed."""
        if self.mask & SPAN:
            self.events.append(TraceEvent(
                name, start_ns, max(0, duration_ns), depth, args,
                trace_id=trace_id, span_id=span_id, parent_id=parent_id,
            ))

    # -- point records -----------------------------------------------------

    def _point(
        self, category: str, kind: str, name: str, message: str,
        args: Dict[str, object], **where: object,
    ) -> None:
        self.events.append(TraceEvent(
            name, time.perf_counter_ns(), 0, len(self._stack), args,
            category=category, kind=kind, message=message,
            **where,  # type: ignore[arg-type]
        ))

    def remark(
        self, kind: str, pass_name: str, message: str, /,
        function: str = "", block: str = "", seed: str = "",
        **args: object,
    ) -> None:
        """Record an optimization remark (one of :data:`REMARK_KINDS`)."""
        if self.mask & REMARK:
            assert kind in REMARK_KINDS, kind
            self._point(
                "remark", kind, pass_name, message, args,
                function=function, block=block, seed=seed,
            )

    def decision(self, kind: str, message: str, /, **args: object) -> None:
        """Record a vectorizer decision (one of :data:`DECISION_KINDS`)
        in the open graph attempt."""
        if self.mask & DECISION:
            assert kind in DECISION_KINDS, kind
            self._point("decision", kind, kind, message, args, **self._graph)

    def log(
        self, level: str, event: str, message: str, /,
        trace_id: str = "", **args: object,
    ) -> None:
        """Record a log event (dropped below the :attr:`level` threshold)."""
        if self.mask & LOG and _LEVEL_RANK[level] >= _LEVEL_RANK[self.level]:
            self._point("log", level, event, message, args, trace_id=trace_id)

    def begin_graph(self, function: str = "", block: str = "", seed: str = "") -> int:
        """Open a graph attempt: later decisions carry its id and
        function/block/seed kind.  Attempts never nest (the vectorizer
        tries one seed at a time)."""
        graph_id = self._next_graph_id
        self._next_graph_id += 1
        self._graph = dict(
            graph_id=graph_id, function=function, block=block, seed=seed
        )
        return graph_id

    def end_graph(self) -> None:
        self._graph = {}

    # -- moving records between recorders ----------------------------------

    def take(self, mark: int = 0) -> List[TraceEvent]:
        """Move the records from index ``mark`` on out of the list."""
        taken = self.events[mark:]
        del self.events[mark:]
        return taken

    @contextmanager
    def collect(self, mask: int) -> Iterator[List[TraceEvent]]:
        """Record the ``mask`` categories privately for a scope.

        The categories are armed for the scope, with graph ids counted
        from 0; on exit their records from the scope leave
        :attr:`events` for the yielded list, and the mask and graph
        count are restored.  Other categories record as usual.
        """
        saved = self.mask, self._next_graph_id
        mark = len(self.events)
        self.mask |= mask
        self._next_graph_id = 0
        collected: List[TraceEvent] = []
        try:
            yield collected
        finally:
            self.mask, self._next_graph_id = saved
            for event in self.take(mark):
                private = mask & CATEGORIES[event.category]
                (collected if private else self.events).append(event)

    # -- views -------------------------------------------------------------

    def of(self, category: str, kind: Optional[str] = None) -> List[TraceEvent]:
        """The records of one category (and kind), in emission order."""
        return [
            event for event in self.events
            if event.category == category and (kind is None or event.kind == kind)
        ]

    def named(self, name: str) -> List[TraceEvent]:
        return [event for event in self.of("span") if event.name == name]

    def total_ns(self, name: str) -> int:
        return sum(event.duration_ns for event in self.named(name))

    def to_chrome_trace(self) -> Dict[str, object]:
        """The spans as a Chrome trace-event JSON object.

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
            if event.category != "span":
                continue
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


def write_records(path: str, events: Sequence[TraceEvent]) -> None:
    """Write point records as JSONL, one sorted-key object per line."""
    with open(path, "w") as handle:
        for event in events:
            handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")


def load_records(path: str) -> List[TraceEvent]:
    """Parse a ``--remarks``, ``--journal`` or ``--log`` JSONL file back
    into :class:`TraceEvent` records."""
    with open(path) as handle:
        return [TraceEvent.from_dict(json.loads(line)) for line in handle if line.strip()]


def load_chrome_trace(path: str) -> List[TraceEvent]:
    """Parse a written Chrome trace back into span :class:`TraceEvent`\\ s.

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
