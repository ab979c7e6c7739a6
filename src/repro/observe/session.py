"""Compiler sessions: explicit, reentrant observability scopes.

Historically the repro kept one process-wide statistics registry, one
tracer and one remark collector, and ``compile_module`` reset the
registry on entry — so exactly one compilation could be
in flight per process, and any two interleaved compiles corrupted each
other's counters.  A :class:`CompilerSession` bundles the three (plus
the fault-injection registry and the benchmark seed) into an explicit
object that every layer threads through, which is what makes the
parallel benchmark/fuzz drivers (:mod:`repro.bench.parallel`) and the
compile cache (:mod:`repro.vectorizer.cache`) possible.

Ambient current session
-----------------------

The ~30 module-scope ``STAT("name", "desc")`` registrations across the
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

``session.derive(fresh_stats=True)`` creates a child session with a
fresh counter registry but *shared* tracer, remark collector and fault
registry.  ``compile_module`` runs each compilation in such a child (and
discards it on failure), which replaces the old reset-on-entry semantics
with true isolation: a crashing compile can no longer poison the next
compilation's counter snapshot, and concurrent compiles never observe
each other's counters.

Code that wants the process default's components reaches them as
``DEFAULT_SESSION.stats`` / ``.tracer`` / ``.remarks``; everything else
accepts a :class:`CompilerSession` or calls :func:`current_session`.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from typing import Iterator, Optional

from .journal import DecisionJournal
from .log import EventLog
from .metrics import MetricsRegistry
from .remarks import RemarkCollector
from .stats import StatsRegistry
from .trace import Tracer


class CompilerSession:
    """One observability scope: stats + remarks + tracer + journal +
    metrics + event log (+ faults, seed).

    ``faults`` is an opaque slot deliberately untyped here: the fault
    registry lives in :mod:`repro.robust.faults`, which imports this
    module — typing it would create an import cycle.  The slot is bound
    lazily by ``robust.faults.current_faults()`` on first use.
    """

    __slots__ = (
        "name", "stats", "remarks", "tracer", "journal", "metrics",
        "log", "faults", "seed",
    )

    def __init__(
        self,
        name: str = "session",
        stats: Optional[StatsRegistry] = None,
        remarks: Optional[RemarkCollector] = None,
        tracer: Optional[Tracer] = None,
        journal: Optional[DecisionJournal] = None,
        metrics: Optional[MetricsRegistry] = None,
        log: Optional[EventLog] = None,
        faults: object = None,
        seed: Optional[int] = None,
    ) -> None:
        self.name = name
        self.stats = stats if stats is not None else StatsRegistry()
        self.remarks = remarks if remarks is not None else RemarkCollector()
        self.tracer = tracer if tracer is not None else Tracer()
        self.journal = journal if journal is not None else DecisionJournal()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.log = log if log is not None else EventLog()
        self.faults = faults
        self.seed = seed

    def derive(
        self,
        name: Optional[str] = None,
        fresh_stats: bool = True,
        fresh_remarks: bool = False,
    ) -> "CompilerSession":
        """A child session sharing this session's
        tracer/remarks/journal/metrics/faults.

        ``fresh_stats=True`` (the default) gives the child its own
        counter registry — the isolation ``compile_module`` relies on.
        ``fresh_remarks=True`` additionally gives it a private remark
        collector (used by bundle/artifact writers that must not leak
        remarks into the caller's stream).  The decision journal is
        always shared: like remarks, journal events are a narrative the
        *caller* reads after the fact.  The metrics registry is likewise
        always shared, so histogram observations made in a derived
        compile session accumulate directly into the parent's
        distributions — "merging" child histograms is free.  The event
        log is shared for the same reason: service/ops events are one
        stream per invocation, whoever's child emitted them.
        """
        return CompilerSession(
            name=name or f"{self.name}.child",
            stats=StatsRegistry() if fresh_stats else self.stats,
            remarks=RemarkCollector() if fresh_remarks else self.remarks,
            tracer=self.tracer,
            journal=self.journal,
            metrics=self.metrics,
            log=self.log,
            faults=self.faults,
            seed=self.seed,
        )

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


def current_remarks() -> RemarkCollector:
    return current_session().remarks


def current_journal() -> DecisionJournal:
    return current_session().journal


def current_metrics() -> MetricsRegistry:
    return current_session().metrics


def current_log() -> EventLog:
    return current_session().log
