"""CompileService: the async submission front-end over the warm pool.

``CompileService`` owns a :class:`~repro.serve.pool.WorkerPool` and a
dispatcher thread, and exposes a futures API::

    with CompileService(workers=2, cache_dir=".repro-cache") as service:
        future = service.submit("bench-pair", (pair, True), shard_key=kernel)
        run, capture = future.result()

Scheduling semantics:

* **FIFO + sharding.** Tasks dispatch in submission order.  A
  ``shard_key`` (the kernel name, for bench tasks) pins a task to
  ``crc32(key) % workers`` so repeat compiles of one kernel land on the
  worker whose warm session already knows it; unsharded tasks go to the
  least-loaded live worker.  Each worker keeps at most
  :data:`PIPELINE_DEPTH` tasks pipelined in its pipe.
* **Backpressure.** At most ``max_pending`` tasks may be unresolved at
  once; ``submit(block=True)`` (default) waits for a slot,
  ``block=False`` raises :class:`ServiceOverloaded` — callers that fan
  out huge batches cannot OOM the parent on buffered payloads.
* **Timeout.** ``timeout=`` (or the service default) bounds
  submit→result wall time.  A timed-out *pending* task simply fails
  with :class:`TaskTimeout`; a timed-out task already *running* gets
  its worker killed and respawned (anything else pipelined behind it is
  requeued), so one wedged compile cannot brown-out the service.
* **Cancel.** :meth:`cancel` fails the future with
  :class:`TaskCancelled`; an already-running task's eventual result is
  dropped on arrival.
* **Crash → respawn + requeue.** A worker that dies mid-task is
  respawned under the same slot.  The task it died on is requeued
  (``retries`` attempts) before :class:`WorkerCrashed` surfaces; the
  tasks pipelined behind it never started, so they requeue in order
  without spending an attempt.  A task that *keeps* killing workers
  fails rather than looping forever.

Every queue transition is instrumented into the service session:
``serve.queue_depth`` gauge, ``serve.task.queue_seconds`` /
``serve.task.turnaround_seconds`` histograms, per-worker utilization
gauges, and the ``serve.compiles_per_sec`` throughput gauge.  The
submit path pickles payloads itself and records the real encode time as
``parallel.marshal_seconds``.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import zlib
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from concurrent.futures import Future
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..observe import STAT
from ..observe.context import TraceContext, mint_context, new_span_id
from ..observe.metrics import exact_percentile
from ..observe.session import Capture, CompilerSession, current_session
from ..observe.trace import LOG, TraceEvent
from .pool import WorkerPool

_MARSHAL_SECONDS = STAT(
    "parallel.marshal_seconds", "seconds pickling worker payloads"
)
_TASKS = STAT("serve.tasks", "tasks submitted to the compile service")
_COMPLETED = STAT("serve.completed", "tasks completed successfully")
_ERRORS = STAT("serve.errors", "tasks failed inside a worker")
_TIMEOUTS = STAT("serve.timeouts", "tasks failed by deadline")
_CANCELLED = STAT("serve.cancelled", "tasks cancelled by the client")
_CRASHES = STAT("serve.worker_crashes", "workers found dead and respawned")
_REQUEUED = STAT("serve.requeued", "in-flight tasks requeued after a crash")
_WEDGED = STAT(
    "serve.wedged_workers",
    "workers killed by the stall detector before the request deadline",
)
_BAD_FRAMES = STAT(
    "serve.bad_frames",
    "malformed result frames; the sending worker is killed and its "
    "in-flight tasks requeued",
)
_RESPAWN_FAILURES = STAT(
    "serve.respawn_failures", "failed worker respawns (slot went defunct)"
)

#: tasks pipelined into one worker's pipe at most
PIPELINE_DEPTH = 4


class ServiceError(RuntimeError):
    """Base class for typed compile-service failures."""


class ServiceClosed(ServiceError):
    """The service is shutting down (or already closed)."""


class ServiceOverloaded(ServiceError):
    """``max_pending`` unresolved tasks and ``block=False``."""


class TaskTimeout(ServiceError):
    """The per-request deadline elapsed before a result arrived."""


class TaskCancelled(ServiceError):
    """The client cancelled the task."""


class WorkerCrashed(ServiceError):
    """The task's worker died on every allowed attempt."""


class ServiceUnavailable(ServiceError):
    """Every worker slot is defunct (failed respawns) — no capacity left.

    The client-side resilience layer (:mod:`repro.serve.resilience`)
    treats this as the signal to run the task serially in-process."""


class RemoteTaskError(ServiceError):
    """The task raised inside the worker; carries the remote type name."""

    def __init__(self, remote_type: str, message: str) -> None:
        super().__init__(f"{remote_type}: {message}")
        self.remote_type = remote_type
        self.remote_message = message


_UNSET = object()


@dataclass
class TaskRecord:
    id: int
    kind: str
    payload: bytes
    future: Future
    shard_key: Optional[str]
    weight: float
    deadline: Optional[float]
    submitted_at: float
    sent_at: Optional[float] = None
    #: wall stamp of the worker's "begin" marker — the stall detector
    #: measures wedge time from here, not from dispatch
    began_at: Optional[float] = None
    worker_index: Optional[int] = None
    attempts: int = 0
    state: str = "pending"  # pending | inflight | abandoned
    done: bool = False
    #: request context for this task (None while tracing is off); the
    #: *record* owns the context, so a crash→requeue keeps the trace id
    #: and only the wire attempt counter moves
    trace: Optional[TraceContext] = None
    #: span id of the caller-side span the request span parents into
    #: ("" when the request is itself the root)
    parent_span: str = ""
    #: tracer stamp of submission, for the synthesized queue/request spans
    submitted_ns: int = 0
    payload_bytes: int = 0
    marshal_seconds: float = 0.0


class CompileService:
    """Async batch front-end over a persistent warm-worker pool."""

    def __init__(
        self,
        workers: int = 2,
        cache_dir: Optional[str] = None,
        cache_entries: Optional[int] = None,
        max_pending: int = 1024,
        default_timeout: Optional[float] = None,
        retries: int = 1,
        session: Optional[CompilerSession] = None,
        name: str = "serve",
        stall_budget: Optional[float] = None,
        fault_plans: Sequence[Tuple[str, str, int, bool]] = (),
        fault_stall_seconds: Optional[float] = None,
        slow_log_seconds: Optional[float] = None,
    ) -> None:
        self.session = session if session is not None else current_session()
        self.name = name
        self.cache_dir = cache_dir
        self.max_pending = max(1, max_pending)
        self.default_timeout = default_timeout
        self.retries = max(0, retries)
        #: max seconds a dispatched task may sit without completing
        #: before its worker is declared wedged and killed (None = off)
        self.stall_budget = stall_budget
        self.pool = WorkerPool(
            size=workers,
            cache_dir=cache_dir,
            cache_entries=cache_entries,
            name=name,
            fault_plans=fault_plans,
            fault_stall_seconds=fault_stall_seconds,
        )
        self._lock = threading.RLock()
        self._pending: Deque[TaskRecord] = deque()
        self._records: Dict[int, TaskRecord] = {}
        self._by_future: Dict[Future, TaskRecord] = {}
        self._inflight: Dict[int, "OrderedDict[int, TaskRecord]"] = {}
        self._slots = threading.Semaphore(self.max_pending)
        self._next_id = 1
        self._started = False
        self._closing = False
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._wake_r, self._wake_w = os.pipe()
        self._started_at = 0.0
        self._weight_done = 0.0
        self.spawn_seconds = 0.0
        #: turnaround threshold for the structured slow-request log
        #: (None = off); exceeding requests append to :attr:`slow_records`
        self.slow_log_seconds = slow_log_seconds
        self.slow_records: Deque[Dict[str, object]] = deque(maxlen=256)
        #: recent per-task latencies for the live ``stats``/``repro top``
        #: percentiles — introspection only, never part of results
        self._recent_queue: Deque[float] = deque(maxlen=512)
        self._recent_turnaround: Deque[float] = deque(maxlen=512)

    # -- properties ---------------------------------------------------------------

    @property
    def workers(self) -> int:
        return self.pool.size

    @property
    def result_cache_enabled(self) -> bool:
        return self.cache_dir is not None

    def compiles_per_sec(self) -> float:
        elapsed = time.perf_counter() - self._started_at
        return self._weight_done / elapsed if elapsed > 0 else 0.0

    def _log(
        self,
        level: str,
        event: str,
        message: str,
        record: Optional[TaskRecord] = None,
        **args: object,
    ) -> None:
        """Record a log event in the session's stream (one-branch no-op
        while logging is off), trace-correlated when ``record`` carries
        one."""
        tracer = self.session.tracer
        if not tracer.mask & LOG:
            return
        trace_id = (
            record.trace.trace_id
            if record is not None and record.trace is not None
            else ""
        )
        if record is not None:
            args.setdefault("task", record.id)
            args.setdefault("kind", record.kind)
        tracer.log(level, event, message, trace_id=trace_id, **args)

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "CompileService":
        if self._started:
            return self
        if self._closing:
            raise ServiceClosed(f"service {self.name!r} already closed")
        # Parent-side fault sites (serve.respawn) fire through the
        # session's injector; arm it *before* constructing the service.
        self.pool.faults = self.session.faults
        self.spawn_seconds = self.pool.start()
        self.session.metrics.gauge(
            "serve.pool_spawn_seconds", self.spawn_seconds,
            description="wall seconds to spawn the warm worker pool",
        )
        self._started_at = time.perf_counter()
        self._inflight = {index: OrderedDict() for index in range(self.pool.size)}
        self._thread = threading.Thread(
            target=self._dispatch_loop, name=f"{self.name}-dispatcher", daemon=True
        )
        self._thread.start()
        self._started = True
        self._log(
            "info", "service-start",
            f"service {self.name!r} started with {self.pool.size} worker(s)",
            workers=self.pool.size,
            cache_dir=self.cache_dir or "",
            spawn_seconds=round(self.spawn_seconds, 6),
        )
        return self

    def __enter__(self) -> "CompileService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def close(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Stop the service; ``drain=True`` finishes in-flight work first."""
        if self._thread is None:
            self._closing = True
            return
        with self._lock:
            self._closing = True
        if drain:
            self.drain(timeout=timeout)
        self._stop.set()
        self._wake()
        self._thread.join(timeout=10.0)
        leftovers = list(self._records.values())
        for record in leftovers:
            self._finish(
                record,
                exception=ServiceClosed(
                    f"service {self.name!r} closed with task "
                    f"{record.id} ({record.kind}) unresolved"
                ),
            )
        self._final_gauges()
        self._log(
            "info", "service-stop",
            f"service {self.name!r} stopped",
            respawns=self.pool.respawns,
            defunct=len(self.pool.defunct),
            slow_requests=len(self.slow_records),
        )
        self.pool.stop(graceful=drain)
        for fd in (self._wake_r, self._wake_w):
            try:
                os.close(fd)
            except OSError:
                pass
        self._started = False

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for every submitted task to resolve; True when drained."""
        deadline = (
            time.perf_counter() + timeout if timeout is not None else None
        )
        while True:
            with self._lock:
                busy = bool(self._records)
            if not busy:
                return True
            if deadline is not None and time.perf_counter() >= deadline:
                return False
            time.sleep(0.005)

    # -- submission ---------------------------------------------------------------

    def submit(
        self,
        kind: str,
        payload: object = None,
        *,
        shard_key: Optional[str] = None,
        timeout: object = _UNSET,
        weight: float = 1.0,
        block: bool = True,
        trace: Optional[TraceContext] = None,
    ) -> Future:
        """Enqueue one task; returns a ``concurrent.futures.Future``.

        While the session tracer is enabled every task gets a request
        :class:`TraceContext` — derived from ``trace`` when the caller
        passes one (wire requests, the resilience layer), freshly minted
        otherwise — carried through dispatch to the worker and back, so
        the worker's compile-phase spans parent into this request's span
        tree.  With tracing off the whole mechanism is skipped and runs
        stay bit-identical.
        """
        if not self._started:
            self.start()
        if self._closing:
            raise ServiceClosed(f"service {self.name!r} is closing")
        if self.pool.defunct and not self.pool.live_indices():
            raise ServiceUnavailable(
                f"service {self.name!r} has no live workers left "
                f"({len(self.pool.defunct)} defunct slot(s))"
            )
        if not self._slots.acquire(blocking=block):
            raise ServiceOverloaded(
                f"service {self.name!r} has {self.max_pending} unresolved "
                f"tasks (bounded queue)"
            )
        marshal_start = time.perf_counter()
        data = pickle.dumps(payload, protocol=-1)
        marshal_seconds = time.perf_counter() - marshal_start
        stats = self.session.stats
        _MARSHAL_SECONDS.resolve(stats).add(marshal_seconds)
        self.session.metrics.observe(
            "parallel.task.marshal_seconds", marshal_seconds,
            description="payload pickle-encode seconds per submitted task",
        )
        limit = self.default_timeout if timeout is _UNSET else timeout
        deadline = (
            time.perf_counter() + float(limit) if limit is not None else None
        )
        with self._lock:
            if self._closing:
                self._slots.release()
                raise ServiceClosed(f"service {self.name!r} is closing")
            record = TaskRecord(
                id=self._next_id,
                kind=kind,
                payload=data,
                future=Future(),
                shard_key=shard_key,
                weight=float(weight),
                deadline=deadline,
                submitted_at=time.perf_counter(),
                submitted_ns=time.perf_counter_ns(),
                payload_bytes=len(data),
                marshal_seconds=marshal_seconds,
            )
            if self.session.tracer.enabled:
                if trace is not None:
                    # Wire/resilience callers own the request identity;
                    # the service span becomes a child of theirs.
                    record.trace = TraceContext(
                        trace_id=trace.trace_id,
                        span_id=new_span_id(),
                        attempt=trace.attempt,
                    )
                    record.parent_span = trace.span_id
                else:
                    record.trace = mint_context()
            self._next_id += 1
            self._records[record.id] = record
            self._by_future[record.future] = record
            self._pending.append(record)
            depth = len(self._pending)
        _TASKS.resolve(stats).add()
        self.session.metrics.gauge(
            "serve.queue_depth", float(depth),
            description="tasks waiting for a worker slot",
        )
        self._wake()
        return record.future

    def cancel(self, future: Future) -> bool:
        """Cancel the task behind ``future``; True if it was still live."""
        with self._lock:
            record = self._by_future.get(future)
            if record is None or record.done:
                return False
            # an in-flight task's eventual result is dropped on arrival
            record.state = "abandoned"
        _CANCELLED.resolve(self.session.stats).add()
        self._finish(
            record,
            exception=TaskCancelled(
                f"task {record.id} ({record.kind}) cancelled"
            ),
        )
        return True

    def health_check(self, timeout: float = 10.0) -> List[Dict[str, object]]:
        """Ping every worker slot; returns one report per live worker."""
        futures = [
            self.submit("ping", None, shard_key=None, timeout=timeout)
            for _ in range(self.pool.size)
        ]
        reports: List[Dict[str, object]] = []
        for future in futures:
            try:
                reports.append(future.result(timeout=timeout + 1.0))
            except ServiceError as exc:
                reports.append({"error": str(exc)})
        return reports

    def describe(self) -> Dict[str, object]:
        """Service snapshot for the wire ``stats`` request and CLI banner."""
        now = time.perf_counter()
        with self._lock:
            pending = len(self._pending)
            inflight = sum(len(m) for m in self._inflight.values())
            workers = [
                {
                    "index": worker.index,
                    "pid": worker.process.pid,
                    "generation": worker.generation,
                    "alive": worker.alive(),
                    "tasks_sent": worker.tasks_sent,
                    "inflight": len(
                        self._inflight.get(worker.index, OrderedDict())
                    ),
                    "busy_seconds": round(worker.busy_seconds, 6),
                    "utilization": round(
                        worker.busy_seconds / max(1e-9, now - worker.started_at), 4
                    ),
                }
                for worker in self.pool.workers
            ]
            recent_queue = list(self._recent_queue)
            recent_turnaround = list(self._recent_turnaround)
        counters = {
            name: value
            for name, value in self.session.stats.snapshot().items()
            if name.startswith(("serve.", "cache.", "parallel."))
        }
        hits = counters.get("serve.task_cache.hits", 0.0)
        misses = counters.get("serve.task_cache.misses", 0.0)
        lookups = hits + misses
        return {
            "name": self.name,
            "workers": workers,
            "pending": pending,
            "inflight": inflight,
            "respawns": self.pool.respawns,
            "defunct": sorted(self.pool.defunct),
            "uptime_seconds": round(now - self._started_at, 3),
            "compiles_per_sec": round(self.compiles_per_sec(), 3),
            "cache_dir": self.cache_dir,
            "cache_hit_rate": round(hits / lookups, 4) if lookups else 0.0,
            # always "": kept so the wire ``stats`` reply keeps its keys
            "breaker": "",
            "slow_requests": len(self.slow_records),
            "queue_seconds": {
                "p50": round(exact_percentile(recent_queue, 50), 6),
                "p99": round(exact_percentile(recent_queue, 99), 6),
            },
            "turnaround_seconds": {
                "p50": round(exact_percentile(recent_turnaround, 50), 6),
                "p99": round(exact_percentile(recent_turnaround, 99), 6),
            },
            "counters": counters,
        }

    # -- dispatcher internals -----------------------------------------------------

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass

    def _worker_for(self, record: TaskRecord) -> Optional[int]:
        """Pick a worker index with spare pipeline room, or None.

        A shard pinned to a defunct slot falls back to the least-loaded
        live worker (still deterministic: min load, lowest index wins)."""
        defunct = self.pool.defunct
        if record.shard_key is not None:
            index = zlib.crc32(record.shard_key.encode()) % self.pool.size
            if index not in defunct:
                if len(self._inflight[index]) < PIPELINE_DEPTH:
                    return index
                return None
        best, best_load = None, None
        for index in range(self.pool.size):
            if index in defunct:
                continue
            load = len(self._inflight[index])
            if load >= PIPELINE_DEPTH:
                continue
            if best_load is None or load < best_load:
                best, best_load = index, load
        return best

    def _fail_pending_unavailable(self) -> None:
        """No live worker slots remain: fail everything still queued."""
        with self._lock:
            doomed = [r for r in self._pending if not r.done]
            self._pending = deque()
        for record in doomed:
            self._finish(
                record,
                exception=ServiceUnavailable(
                    f"service {self.name!r} has no live workers left "
                    f"({len(self.pool.defunct)} defunct slot(s)); task "
                    f"{record.id} ({record.kind}) cannot be dispatched"
                ),
            )

    def _dispatch_pending(self) -> None:
        if not self.pool.live_indices():
            self._fail_pending_unavailable()
            return
        with self._lock:
            if not self._pending:
                return
            remaining: Deque[TaskRecord] = deque()
            while self._pending:
                record = self._pending.popleft()
                if record.done:
                    continue
                index = self._worker_for(record)
                if index is None:
                    remaining.append(record)
                    continue
                wire_trace = None
                if record.trace is not None:
                    # record.attempts is pre-increment here: 0 on the
                    # first dispatch, +1 per crash→requeue retry.  The
                    # context's own attempt is the caller's retry count
                    # (a ResilientExecutor resubmission), so the worker
                    # sees the total — same trace id every time, only
                    # the attempt moves.
                    wire_trace = (
                        record.trace.trace_id,
                        record.trace.span_id,
                        record.trace.attempt + record.attempts,
                    )
                try:
                    self.pool.send(
                        index, record.id, record.kind, record.payload,
                        wire_trace,
                    )
                except (OSError, BrokenPipeError):
                    # Worker died between liveness scan and send; the
                    # next wait_any pass respawns it.  Keep the task.
                    remaining.append(record)
                    continue
                record.state = "inflight"
                record.worker_index = index
                record.sent_at = time.perf_counter()
                record.attempts += 1
                self._inflight[index][record.id] = record
                self._recent_queue.append(
                    record.sent_at - record.submitted_at
                )
                self.session.metrics.observe(
                    "serve.task.queue_seconds",
                    record.sent_at - record.submitted_at,
                    description="submit-to-dispatch wall seconds per task",
                )
            self._pending = remaining
            depth = len(self._pending)
        self.session.metrics.gauge(
            "serve.queue_depth", float(depth),
            description="tasks waiting for a worker slot",
        )

    def _handle_result(self, worker_index: int, envelope) -> None:
        try:
            task_id, status, data, worker_seconds, capture = envelope
            if not isinstance(task_id, int) or not isinstance(status, str):
                raise TypeError("bogus envelope field types")
        except (TypeError, ValueError):
            # Truncated/garbage frame: the worker's stream can no longer
            # be trusted — kill it; the dead scan requeues its in-flight
            # tasks through the normal crash path.
            self._handle_bad_frame(worker_index)
            return
        if status == "begin":  # task-start marker for the stall detector
            with self._lock:
                record = self._records.get(task_id)
                if record is not None and record.state == "inflight":
                    record.began_at = time.perf_counter()
            return
        if task_id < 0:  # drain acknowledgement
            return
        pid = generation = 0
        with self._lock:
            if worker_index < len(self.pool.workers):
                worker = self.pool.workers[worker_index]
                worker.busy_seconds += float(worker_seconds)
                worker.inflight = max(0, worker.inflight - 1)
                pid, generation = worker.process.pid or 0, worker.generation
            record = self._inflight.get(worker_index, OrderedDict()).pop(
                task_id, None
            )
            if record is None:
                record = self._records.get(task_id)
        # The worker's capture folds into the *service* session, never
        # into task results: counter deltas (cache hits, task-cache
        # traffic) always, and the span forest — which parents into
        # record.trace.span_id, closing the cross-process causal chain —
        # while the request is live.
        stats = self.session.stats
        if record is None or record.done or record.state == "abandoned":
            self.session.absorb(Capture(counters=capture.counters))
            if record is not None and not record.done:
                self._finish_noop(record)
            return
        self.session.absorb(capture, pid=pid, generation=generation)
        turnaround = time.perf_counter() - record.submitted_at
        self._recent_turnaround.append(turnaround)
        self.session.metrics.observe(
            "serve.task.turnaround_seconds",
            turnaround,
            description="submit-to-result wall seconds per task",
        )
        if (
            self.slow_log_seconds is not None
            and turnaround > self.slow_log_seconds
        ):
            self._record_slow(
                record, status, turnaround, float(worker_seconds),
                capture.events,
            )
        if status == "ok":
            try:
                result = pickle.loads(data)
            except Exception as exc:  # pragma: no cover - defensive
                _ERRORS.resolve(stats).add()
                self._finish(
                    record,
                    exception=RemoteTaskError("UnpicklingError", str(exc)),
                )
                return
            _COMPLETED.resolve(stats).add()
            self._weight_done += record.weight
            self.session.metrics.gauge(
                "serve.compiles_per_sec", self.compiles_per_sec(),
                description="weighted tasks completed per wall second "
                "since service start",
            )
            self._finish(record, result=result)
        else:
            remote_type, message = pickle.loads(data)
            _ERRORS.resolve(stats).add()
            self._finish(
                record, exception=RemoteTaskError(remote_type, message)
            )

    def _finish_noop(self, record: TaskRecord) -> None:
        """Forget a record whose future was already resolved elsewhere."""
        with self._lock:
            record.done = True
            self._records.pop(record.id, None)
            self._by_future.pop(record.future, None)

    def _finish(
        self,
        record: TaskRecord,
        result: object = None,
        exception: Optional[BaseException] = None,
    ) -> None:
        with self._lock:
            if record.done:
                return
            record.done = True
            self._records.pop(record.id, None)
            self._by_future.pop(record.future, None)
        if record.trace is not None and self.session.tracer.enabled:
            self._emit_request_spans(record, exception)
        self._slots.release()
        # Resolve outside the lock: done-callbacks may submit more work.
        if exception is not None:
            record.future.set_exception(exception)
        else:
            record.future.set_result(result)

    def _emit_request_spans(
        self, record: TaskRecord, exception: Optional[BaseException]
    ) -> None:
        """Synthesize the client-side spans for one resolved request.

        Two completed spans are recorded in the service session's
        tracer: a ``serve:queue`` child covering submit→dispatch, and
        the ``serve:request`` span itself, whose ``span_id`` is the one
        the worker's ``worker:task`` root named as parent — that record
        is what roots the cross-process tree.  Children precede their
        parent, matching the tracer's completion-order convention.
        """
        context = record.trace
        tracer = self.session.tracer
        if record.sent_at is not None:
            tracer.record_span(
                "serve:queue", record.submitted_ns,
                int((record.sent_at - record.submitted_at) * 1e9), 1,
                context.trace_id, new_span_id(), context.span_id,
                task=record.id,
            )
        status = "ok" if exception is None else type(exception).__name__
        tracer.record_span(
            "serve:request", record.submitted_ns,
            time.perf_counter_ns() - record.submitted_ns, 0,
            context.trace_id, context.span_id, record.parent_span,
            kind=record.kind, task=record.id, status=status,
            attempts=record.attempts,
        )

    def _record_slow(
        self,
        record: TaskRecord,
        status: str,
        turnaround: float,
        worker_seconds: float,
        spans: Sequence[TraceEvent],
    ) -> None:
        """Append one structured slow-request document (and log event).

        The latency is decomposed into queue / marshal / worker /
        parent-overhead segments from the record's own stamps, plus —
        when the task shipped spans — the compile and compile-phase
        seconds summed out of the worker's span forest.
        """
        queue_seconds = (
            record.sent_at - record.submitted_at
            if record.sent_at is not None
            else 0.0
        )
        compile_ns = sum(
            event.duration_ns for event in spans if event.name == "compile"
        )
        phase_ns = sum(
            event.duration_ns
            for event in spans
            if event.name.startswith("phase:")
        )
        document: Dict[str, object] = {
            "task": record.id,
            "kind": record.kind,
            "trace_id": record.trace.trace_id if record.trace else "",
            "attempts": record.attempts,
            "status": status,
            "worker": record.worker_index,
            "payload_bytes": record.payload_bytes,
            "turnaround_seconds": round(turnaround, 6),
            "queue_seconds": round(queue_seconds, 6),
            "marshal_seconds": round(record.marshal_seconds, 6),
            "worker_seconds": round(worker_seconds, 6),
            "compile_seconds": round(compile_ns / 1e9, 6),
            "compile_phase_seconds": round(phase_ns / 1e9, 6),
            "overhead_seconds": round(
                max(0.0, turnaround - queue_seconds - worker_seconds), 6
            ),
        }
        self.slow_records.append(document)
        self._log(
            "warn", "slow-request",
            f"task {record.id} ({record.kind}) took {turnaround:.3f}s "
            f"(threshold {self.slow_log_seconds:.3f}s)",
            record=record,
            turnaround_seconds=round(turnaround, 6),
            queue_seconds=round(queue_seconds, 6),
            worker_seconds=round(worker_seconds, 6),
        )

    def _handle_bad_frame(self, worker_index: int) -> None:
        _BAD_FRAMES.resolve(self.session.stats).add()
        self.session.tracer.remark(
            "recovery", "serve",
            f"bad frame from worker {worker_index}: killing it and "
            f"requeueing its in-flight tasks",
            worker=worker_index,
        )
        self._log(
            "error", "bad-frame",
            f"malformed result frame from worker {worker_index}; killing "
            f"the worker",
            worker=worker_index,
        )
        with self._lock:
            if worker_index < len(self.pool.workers):
                worker = self.pool.workers[worker_index]
                if not worker.wedged:
                    worker.wedged = True
                    worker.process.terminate()
        # Death is observed (and requeue happens) on the next wait_any
        # pass, through the normal crash path.

    def _handle_dead_worker(self, index: int) -> None:
        stats = self.session.stats
        _CRASHES.resolve(stats).add()
        self._log(
            "warn", "worker-crash",
            f"worker {index} died; respawning and requeueing its "
            f"in-flight tasks",
            worker=index,
        )
        with self._lock:
            orphans = list(self._inflight.get(index, OrderedDict()).values())
            self._inflight[index] = OrderedDict()
            if not self._stop.is_set():
                try:
                    self.pool.respawn(index)
                except Exception as exc:
                    _RESPAWN_FAILURES.resolve(stats).add()
                    self.pool.mark_defunct(index)
                    self.session.tracer.remark(
                        "recovery", "serve",
                        f"respawn of worker {index} failed "
                        f"({type(exc).__name__}: {exc}); slot defunct, "
                        f"{len(self.pool.live_indices())} live worker(s) "
                        f"remain",
                        worker=index,
                        error=type(exc).__name__,
                    )
                    self._log(
                        "error", "respawn-failed",
                        f"respawn of worker {index} failed; slot defunct",
                        worker=index,
                        error=type(exc).__name__,
                    )
        # The worker runs its pipe in order, so the oldest orphan is the
        # task it died on; the ones behind it never started.  Only that
        # one is charged the attempt, and the rest go back to the head of
        # the queue in their dispatch order.  No requeued task has begun
        # on its next worker, so the stall detector must not time it
        # from its last start.
        crashed: List[TaskRecord] = []
        requeued: List[TaskRecord] = []
        with self._lock:
            for position, record in enumerate(orphans):
                if record.done or record.state == "abandoned":
                    continue
                if position > 0:
                    record.attempts -= 1
                elif record.attempts > self.retries:
                    crashed.append(record)
                    continue
                record.state = "pending"
                record.worker_index = None
                record.began_at = None
                requeued.append(record)
                _REQUEUED.resolve(stats).add()
            self._pending.extendleft(reversed(requeued))
        for record in requeued:
            self._log(
                "info", "requeue",
                f"task {record.id} ({record.kind}) requeued after worker "
                f"{index} crash (attempt {record.attempts + 1})",
                record=record,
                worker=index,
                attempt=record.attempts,
            )
        for record in crashed:
            self._log(
                "error", "task-crashed",
                f"task {record.id} ({record.kind}) killed worker {index} "
                f"on {record.attempts} attempt(s); failing it",
                record=record,
                worker=index,
            )
        for record in crashed:
            self._finish(
                record,
                exception=WorkerCrashed(
                    f"task {record.id} ({record.kind}) killed worker "
                    f"{index} on {record.attempts} attempt(s)"
                ),
            )

    def _check_deadlines(self) -> None:
        now = time.perf_counter()
        expired: List[TaskRecord] = []
        wedged: List[int] = []
        with self._lock:
            for record in list(self._records.values()):
                if record.done or record.deadline is None:
                    continue
                if now < record.deadline:
                    continue
                if record.state == "inflight":
                    inflight = self._inflight.get(
                        record.worker_index, OrderedDict()
                    )
                    oldest = next(iter(inflight), None)
                    if oldest == record.id:
                        # The worker is actually grinding on this task:
                        # kill it so the slot comes back.  The task stays
                        # first in flight, so _handle_dead_worker sees
                        # that the worker died on it and requeues the
                        # pipelined followers without charging them.
                        wedged.append(record.worker_index)
                    else:
                        inflight.pop(record.id, None)
                    record.state = "abandoned"
                else:
                    record.state = "abandoned"
                expired.append(record)
        stats = self.session.stats
        for record in expired:
            _TIMEOUTS.resolve(stats).add()
            self._log(
                "warn", "task-timeout",
                f"task {record.id} ({record.kind}) exceeded its deadline",
                record=record,
            )
            self._finish(
                record,
                exception=TaskTimeout(
                    f"task {record.id} ({record.kind}) exceeded its "
                    f"deadline"
                ),
            )
        for index in wedged:
            with self._lock:
                if index < len(self.pool.workers):
                    worker = self.pool.workers[index]
                    worker.wedged = True
                    worker.process.terminate()
            # death is observed (and requeue happens) on the next
            # wait_any pass, through the normal crash path

    def _check_wedged(self) -> None:
        """Proactive wedged-worker detection, ahead of request deadlines.

        Opt-in: a worker whose *oldest* dispatched task has been running
        longer than ``stall_budget`` since its "begin" marker is wedged
        (the task will never finish).  The process is killed now —
        requeue happens through the normal crash path — so the requeued
        task can still make its request deadline instead of timing out."""
        stall_budget = self.stall_budget
        if stall_budget is None:
            return
        now = time.perf_counter()
        victims: List[Tuple[int, str]] = []
        with self._lock:
            for worker in self.pool.workers:
                index = worker.index
                if index in self.pool.defunct or worker.wedged:
                    continue
                inflight = self._inflight.get(index)
                if not inflight:
                    continue
                oldest = next(iter(inflight.values()))
                began = oldest.began_at
                if began is not None and now - began > stall_budget:
                    victims.append((
                        index,
                        f"task {oldest.id} ({oldest.kind}) stalled "
                        f"{now - began:.2f}s > budget {stall_budget:.2f}s",
                    ))
        stats = self.session.stats
        for index, reason in victims:
            _WEDGED.resolve(stats).add()
            self._log(
                "warn", "wedged-worker",
                f"wedged worker {index}: {reason}",
                worker=index,
            )
            self.session.tracer.remark(
                "recovery", "serve",
                f"wedged worker {index}: {reason}; killing and "
                f"respawning before the request deadline",
                worker=index,
            )
            with self._lock:
                if index < len(self.pool.workers):
                    worker = self.pool.workers[index]
                    worker.wedged = True
                    worker.process.terminate()

    def _dispatch_loop(self) -> None:
        while True:
            self._dispatch_pending()
            messages, extras, dead = self.pool.wait_any(
                timeout=0.05, extra=[self._wake_r]
            )
            if self._wake_r in extras:
                try:
                    os.read(self._wake_r, 4096)
                except OSError:
                    pass
            for worker_index, envelope in messages:
                self._handle_result(worker_index, envelope)
            for index in dead:
                if self._stop.is_set():
                    continue
                self._handle_dead_worker(index)
            self._check_wedged()
            self._check_deadlines()
            if self._stop.is_set():
                with self._lock:
                    idle = not self._records
                if idle or self._stop.is_set():
                    break

    def _final_gauges(self) -> None:
        metrics = self.session.metrics
        if not metrics.enabled:
            return
        now = time.perf_counter()
        for worker in self.pool.workers:
            metrics.gauge(
                f"serve.worker.{worker.index}.utilization",
                worker.busy_seconds / max(1e-9, now - worker.started_at),
                description="in-worker busy seconds / worker lifetime",
            )
        metrics.gauge(
            "serve.compiles_per_sec", self.compiles_per_sec(),
            description="weighted tasks completed per wall second "
            "since service start",
        )
        with self._lock:
            recent_queue = list(self._recent_queue)
            recent_turnaround = list(self._recent_turnaround)
        for name, samples in (
            ("queue", recent_queue), ("turnaround", recent_turnaround),
        ):
            if not samples:
                continue
            metrics.gauge(
                f"serve.{name}_seconds.p99",
                exact_percentile(samples, 99),
                description=f"p99 request {name} latency over the recent "
                "window (last 512 requests)",
            )
