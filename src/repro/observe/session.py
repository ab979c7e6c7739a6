"""Compiler sessions: explicit, reentrant observability scopes.

Historically the repro kept one process-wide statistics registry, one
tracer and one remark collector, and ``compile_module`` reset the
registry on entry — so exactly one compilation could be
in flight per process, and any two interleaved compiles corrupted each
other's counters.  A :class:`CompilerSession` bundles the one event
stream (:class:`~repro.observe.trace.Tracer`), the counter registry and
the metrics registry (plus the fault-injection registry and the
benchmark seed) into an explicit object that every layer threads
through, which is what makes the parallel benchmark/fuzz drivers
(:mod:`repro.bench.parallel`) and the compile cache
(:mod:`repro.vectorizer.cache`) possible.  Counters and metrics stay
registries because they aggregate: a record per counter bump would slow
every workload.

Ambient current session
-----------------------

The module-scope ``STAT("name", "desc")`` registrations across the
vectorizer cannot receive a session at import time, so the *current*
session is also available ambiently through a :mod:`contextvars`
variable:

* :func:`current_session` returns the active session (falling back to
  :data:`DEFAULT_SESSION` when none was installed);
* :func:`use_session` installs a session for a ``with`` scope —
  per-thread and per-``contextvars`` context, so two threads (or two
  asyncio tasks) can run different sessions concurrently;
* ``STAT(...)`` handles are lazy proxies that resolve
  ``current_session().stats`` at *increment* time, so the same
  module-scope handle records into whichever session is active.

Deriving sessions
-----------------

``session.derive()`` creates a child session with a fresh counter
registry but the *shared* tracer, metrics and fault registry.
``compile_module`` runs each compilation in such a child (and discards
it on failure), which replaces the old reset-on-entry semantics with
true isolation: a crashing compile can no longer poison the next
compilation's counter snapshot, and concurrent compiles never observe
each other's counters.

Capture and absorb
------------------

Every cross-session merge — pool tasks, bench pairs, fuzz chunks, the
serial fallback rung, compile-cache hits, ``repro explain`` — is one
:meth:`CompilerSession.capture` and one :meth:`CompilerSession.absorb`.
Workers arm what the parent's :attr:`CompilerSession.mask` names.
"""

from __future__ import annotations

import atexit
import contextvars
import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .metrics import MetricsRegistry
from .stats import StatsRegistry
from .trace import ALL, CATEGORIES, REMARK, SPAN, TraceEvent, Tracer, write_records

#: :attr:`CompilerSession.mask` bit for the metrics registry, next to the
#: tracer's four category bits
METRICS = 16


@dataclass
class Capture:
    """What one session recorded, packed to travel to another."""

    events: List[TraceEvent] = field(default_factory=list)
    #: counter deltas (nonzero only)
    counters: Dict[str, float] = field(default_factory=dict)
    #: the whole metrics registry when it was armed, else None
    metrics: Optional[MetricsRegistry] = None


class CompilerSession:
    """One observability scope: tracer + stats + metrics (+ faults, seed).

    ``faults`` is an opaque slot deliberately untyped here: the fault
    registry lives in :mod:`repro.robust.faults`, which imports this
    module — typing it would create an import cycle.  The slot is bound
    lazily by ``robust.faults.current_faults()`` on first use.
    """

    __slots__ = ("name", "stats", "tracer", "metrics", "faults", "seed")

    def __init__(
        self,
        name: str = "session",
        stats: Optional[StatsRegistry] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        faults: object = None,
        seed: Optional[int] = None,
    ) -> None:
        self.name = name
        self.stats = stats if stats is not None else StatsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.faults = faults
        self.seed = seed

    def derive(
        self, name: Optional[str] = None, fresh_stats: bool = True
    ) -> "CompilerSession":
        """A child session sharing this session's tracer/metrics/faults.

        ``fresh_stats=True`` (the default) gives the child its own
        counter registry — the isolation ``compile_module`` relies on.
        The tracer is shared, so a child's records land in the caller's
        one stream; the metrics registry is shared, so histogram
        observations made in a derived compile session accumulate
        directly into the parent's distributions.
        """
        return CompilerSession(
            name=name or f"{self.name}.child",
            stats=StatsRegistry() if fresh_stats else self.stats,
            tracer=self.tracer,
            metrics=self.metrics,
            faults=self.faults,
            seed=self.seed,
        )

    # -- the armed streams ---------------------------------------------------

    @property
    def mask(self) -> int:
        """The armed streams: the tracer's category bits, plus
        :data:`METRICS` when the metrics registry is armed."""
        return self.tracer.mask | (METRICS if self.metrics.enabled else 0)

    def arm(self, mask: int) -> None:
        """Arm the streams a :attr:`mask` value names."""
        self.tracer.enable(mask & ALL)
        if mask & METRICS:
            self.metrics.enable()

    # -- capture / absorb ------------------------------------------------------

    def mark(self) -> Tuple[int, Dict[str, float]]:
        """A point to :meth:`capture` from: (record count, counters)."""
        return len(self.tracer.events), self.stats.snapshot()

    def capture(
        self, mark: Optional[Tuple[int, Dict[str, float]]] = None
    ) -> Capture:
        """Pack what this session recorded since ``mark`` (default: ever).

        The records move out of this session's list, so a long-lived
        session (a warm pool worker) never accumulates them; counters
        stay and ship as a delta.  Metrics ship whole, so a session that
        captures repeatedly must keep them off (pool workers do).
        """
        start, before = mark if mark is not None else (0, {})
        counters = {
            name: value - before.get(name, 0)
            for name, value in self.stats.snapshot().items()
            if value != before.get(name, 0)
        }
        return Capture(
            events=self.tracer.take(start),
            counters=counters,
            metrics=self.metrics if self.metrics.enabled else None,
        )

    def absorb(
        self, capture: Capture, pid: int = 0, generation: int = 0
    ) -> None:
        """Fold another session's :class:`Capture` into this one.

        Records of the categories armed here are kept, stamped with
        their origin's ``pid``/``generation`` (0 = this process); a
        worker's remark also names it in ``args.worker_pid``.  Counter
        deltas add in; metrics merge bucket-wise when armed here.
        """
        mask = self.tracer.mask
        for event in capture.events:
            if mask & CATEGORIES[event.category]:
                event.pid = pid
                event.generation = generation
                if pid and event.category == "remark":
                    event.args.setdefault("worker_pid", pid)
                self.tracer.events.append(event)
        for name, value in sorted(capture.counters.items()):
            self.stats.stat(name).add(value)
        if capture.metrics is not None and self.metrics.enabled:
            self.metrics.merge(capture.metrics)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CompilerSession {self.name!r}>"


#: the process default: what ``current_session()`` returns when no
#: session was installed
DEFAULT_SESSION = CompilerSession(name="default")

_CURRENT: contextvars.ContextVar[Optional[CompilerSession]] = contextvars.ContextVar(
    "repro_current_session", default=None
)


def current_session() -> CompilerSession:
    """The ambient session (:data:`DEFAULT_SESSION` if none installed)."""
    session = _CURRENT.get()
    return session if session is not None else DEFAULT_SESSION


@contextmanager
def use_session(session: CompilerSession) -> Iterator[CompilerSession]:
    """Install ``session`` as the ambient current session for a scope."""
    token = _CURRENT.set(session)
    try:
        yield session
    finally:
        _CURRENT.reset(token)


def current_stats() -> StatsRegistry:
    return current_session().stats


def current_tracer() -> Tracer:
    return current_session().tracer


def current_metrics() -> MetricsRegistry:
    return current_session().metrics


def _trace_collection(phase: str, info: Dict[str, int]) -> None:
    """The :data:`gc.callbacks` hook: while the current session's spans
    are armed, each garbage collection is a ``gc`` span in its stream
    (:meth:`Tracer.collection`); otherwise it costs a context copy and
    one mask test.

    It reads the session from a copy of the context, not with
    ``_CURRENT.get()``.  A collection can start inside ``_CURRENT.set()``
    or ``.reset()`` (each allocates the context's new mapping), and a
    ``get()`` there fills CPython's per-variable cache with the session
    being replaced, as a borrowed reference that outlives the switch: a
    later ``current_session()`` returns that session, freed or not, and
    the interpreter crashes.
    """
    session = contextvars.copy_context().get(_CURRENT)
    tracer = (session if session is not None else DEFAULT_SESSION).tracer
    if tracer.mask & SPAN:
        tracer.collection(phase, info)


gc.callbacks.append(_trace_collection)
# Collections still run while interpreter exit tears module globals down.
atexit.register(gc.callbacks.remove, _trace_collection)


def write_remarks(path: str, run: Callable[[], object]) -> None:
    """Call ``run`` in a child of the current session with its remarks
    collected privately, and write them to ``path`` as JSONL — also when
    ``run`` raises (artifact writers want a failure's remarks too)."""
    session = current_session().derive(name="remarks")
    with session.tracer.collect(REMARK) as remarks, use_session(session):
        try:
            run()
        except Exception:  # noqa: BLE001 - remarks of a failure are still useful
            pass
    write_records(path, remarks)
