"""Request-scoped trace context — the repro's W3C-traceparent.

A :class:`TraceContext` identifies one *request* flowing through the
compile service: a ``trace_id`` shared by every span the request causes
(client submit, queue wait, worker compile phases, degraded-ladder
rungs), the ``span_id`` of the parent span new work should attach under,
and an ``attempt`` counter that increments when the resilience layer (or
the service's crash→respawn+requeue path) re-executes the request — the
retried attempt keeps the trace id, so both attempts land in one tree.

The context crosses process boundaries as a plain ``(trace_id, span_id,
attempt)`` tuple (:meth:`TraceContext.to_wire`) inside pool pipe frames,
and as a JSON object (:meth:`TraceContext.to_doc`) inside JSONL wire
requests.  Inside one process it travels ambiently through a
:mod:`contextvars` variable (:func:`use_trace_context` /
:func:`current_trace_context`), mirroring how
:func:`~repro.observe.session.use_session` carries the session — worker
task runners pick it up without explicit threading.

Ids are minted from a per-process counter salted with the pid, so two
workers never collide and no global RNG is touched (chaos campaigns
replay exactly).  Everything here is inert unless a tracer is enabled —
contexts are only minted on traced paths, so tracing-off runs stay
bit-identical.
"""

from __future__ import annotations

import contextvars
import itertools
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: wire form of a context inside pool pipe frames
WireContext = Tuple[str, str, int]

_IDS = itertools.count(1)


def new_span_id() -> str:
    """A process-unique span id (pid-salted counter, 12 hex chars)."""
    return f"{os.getpid() & 0xFFFF:04x}{next(_IDS) & 0xFFFFFFFF:08x}"


def mint_context() -> "TraceContext":
    """A fresh root context: new trace id, new root span id, attempt 0."""
    trace_id = f"{os.getpid() & 0xFFFFFFFF:08x}{next(_IDS) & 0xFFFFFFFF:08x}"
    return TraceContext(trace_id=trace_id, span_id=new_span_id(), attempt=0)


@dataclass(frozen=True)
class TraceContext:
    """One request's identity: ``(trace id, parent span id, attempt)``."""

    trace_id: str
    span_id: str
    attempt: int = 0

    # -- derivation --------------------------------------------------------

    def child(self, span_id: str) -> "TraceContext":
        """The same trace, parented under ``span_id``."""
        return TraceContext(self.trace_id, span_id, self.attempt)

    def retry(self) -> "TraceContext":
        """The same trace and parent span, one attempt later."""
        return TraceContext(self.trace_id, self.span_id, self.attempt + 1)

    # -- serialization -----------------------------------------------------

    def to_wire(self) -> WireContext:
        return (self.trace_id, self.span_id, self.attempt)

    @classmethod
    def from_wire(cls, raw: Optional[Sequence[object]]) -> Optional["TraceContext"]:
        if raw is None:
            return None
        trace_id, span_id, attempt = raw
        return cls(str(trace_id), str(span_id), int(attempt))

    def to_doc(self) -> Dict[str, object]:
        """JSON form for the JSONL wire protocol's ``"trace"`` field."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "attempt": self.attempt,
        }

    @classmethod
    def from_doc(cls, doc: object) -> Optional["TraceContext"]:
        if not isinstance(doc, dict) or not doc.get("trace_id"):
            return None
        return cls(
            str(doc["trace_id"]),
            str(doc.get("span_id", "")),
            int(doc.get("attempt", 0)),
        )

    def traceparent(self) -> str:
        """W3C-style rendering: ``00-<trace>-<span>-01``."""
        return f"00-{self.trace_id:0>32}-{self.span_id:0>16}-01"


# -- ambient context ----------------------------------------------------------

_CURRENT: contextvars.ContextVar[Optional[TraceContext]] = contextvars.ContextVar(
    "repro_current_trace_context", default=None
)


def current_trace_context() -> Optional[TraceContext]:
    """The ambient request context, or None outside any traced request."""
    return _CURRENT.get()


@contextmanager
def use_trace_context(
    context: Optional[TraceContext],
) -> Iterator[Optional[TraceContext]]:
    """Install ``context`` as the ambient trace context for a scope."""
    token = _CURRENT.set(context)
    try:
        yield context
    finally:
        _CURRENT.reset(token)


# -- span-tree validation ------------------------------------------------------


def validate_span_tree(events: Sequence[object]) -> List[str]:
    """Check causal linkage of a merged span stream; returns problems.

    An event stream is well-linked when every span carrying a trace id
    either is a root (empty ``parent_id``) or names a parent span that
    exists *in the same trace*.  Worker-side spans (``pid != 0``) must
    additionally belong to a trace that has a client-side root — a
    worker span whose trace never reached a request span is an orphan.
    The bench/CI no-orphan gates and the failure-propagation tests all
    call this.  Only spans count: a log record's trace id correlates,
    it does not link.
    """
    by_trace: Dict[str, List[object]] = {}
    span_ids: Dict[str, set] = {}
    for event in events:
        trace_id = getattr(event, "trace_id", "")
        if not trace_id or getattr(event, "category", "span") != "span":
            continue
        by_trace.setdefault(trace_id, []).append(event)
        span_id = getattr(event, "span_id", "")
        if span_id:
            span_ids.setdefault(trace_id, set()).add(span_id)
    problems: List[str] = []
    for trace_id, trace_events in sorted(by_trace.items()):
        known = span_ids.get(trace_id, set())
        roots = [
            e for e in trace_events if not getattr(e, "parent_id", "")
        ]
        has_client_root = any(
            not getattr(e, "pid", 0) for e in roots
        )
        for event in trace_events:
            parent_id = getattr(event, "parent_id", "")
            if parent_id and parent_id not in known:
                problems.append(
                    f"trace {trace_id}: span {event.name!r} "
                    f"({getattr(event, 'span_id', '')}) references unknown "
                    f"parent {parent_id}"
                )
        if not roots:
            problems.append(f"trace {trace_id}: no root span")
        elif not has_client_root:
            worker_pids = sorted(
                {getattr(e, "pid", 0) for e in trace_events}
            )
            problems.append(
                f"trace {trace_id}: worker spans (pids {worker_pids}) "
                f"have no client-side request root"
            )
    return problems
