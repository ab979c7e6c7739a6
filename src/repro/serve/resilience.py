"""The client side of compile-service traffic: one batch call, resilience.

The compile service (:mod:`repro.serve.service`) already recovers from
*worker* failures — crashes respawn, wedged workers are killed, in-flight
tasks requeue.  This module is the **client's** half of the contract: a
bench/fuzz driver that talks to a service must finish with bit-identical
results even when the service itself misbehaves or disappears.

:func:`run_batch` is the one way bench and fuzz dispatch work: it starts
and closes an ephemeral service when the caller has none, submits plainly
or through a :class:`ResilientExecutor`, and returns results in task
order.  The resilience pieces behind it:

* :class:`ResiliencePolicy` — the knobs: bounded retries with exponential
  backoff and *deterministic* jitter (seeded hash, never ``random``, so a
  chaos run replays exactly), and circuit-breaker thresholds.
* :class:`CircuitBreaker` — classic closed/open/half-open gate.  Enough
  consecutive failures trip it open; while open, tasks skip the service
  entirely and run serially in-process; after a cooldown one probe
  request (half-open) decides whether to close it again.
* :class:`ResilientExecutor` — wraps a :class:`CompileService` and runs
  task batches through the two-rung ladder::

      service  →  serial in-process

  Every descent is counted (``serve.degraded``) and narrated with a
  ``recovery`` remark, so a chaos campaign can tell *recovered* (service
  healed itself, no descent) from *degraded* (ladder fallback) runs.

Determinism: the task runners themselves are deterministic, so **where**
a task executes never changes its result — only its wall-clock cost.
That is the invariant the chaos campaign checks.
"""

from __future__ import annotations

import hashlib
import threading
import time
from concurrent.futures import Future, as_completed
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..observe import STAT
from ..observe.context import TraceContext, mint_context
from ..observe.session import CompilerSession, current_session, use_session
from ..observe.trace import TraceEvent
from .service import (
    CompileService,
    RemoteTaskError,
    ServiceClosed,
    ServiceError,
    ServiceUnavailable,
    TaskCancelled,
    TaskTimeout,
    WorkerCrashed,
)

_RETRIES = STAT("serve.retries", "task resubmissions by the resilience policy")
_DEGRADED = STAT(
    "serve.degraded", "tasks that fell down the degradation ladder"
)
_BREAKER_TRIPS = STAT(
    "serve.breaker_trips", "circuit-breaker transitions to the open state"
)

#: failures where resubmitting to the *same* service can plausibly help:
#: the worker that died/wedged/errored has been (or is being) replaced.
_RETRYABLE = (WorkerCrashed, TaskTimeout, RemoteTaskError)

#: failures where the service as a whole is gone or refused the task —
#: retrying is pointless, run the task serially right away.
_FATAL_FOR_SERVICE = (ServiceUnavailable, ServiceClosed, TaskCancelled)

#: one executor-managed task: (kind, payload, shard_key, weight)
TaskSpec = Tuple[str, object, Optional[str], float]


@dataclass(frozen=True)
class ResiliencePolicy:
    """Retry/backoff/breaker knobs for :class:`ResilientExecutor`."""

    #: resubmissions per task after the first attempt fails
    max_retries: int = 2
    #: backoff before retry ``n`` is ``base * factor**(n-1)``, capped
    backoff_base_seconds: float = 0.02
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 0.5
    #: jitter scales the delay by ``1 ± ratio`` (deterministic, seeded)
    jitter_ratio: float = 0.25
    #: seed folded into the jitter hash so campaigns replay exactly
    seed: int = 0
    #: consecutive failures that trip the breaker open
    breaker_failures: int = 3
    #: seconds the breaker stays open before allowing a half-open probe
    breaker_cooldown_seconds: float = 5.0


def backoff_delay(policy: ResiliencePolicy, attempt: int, token: str = "") -> float:
    """Delay before retry ``attempt`` (1-based), with deterministic jitter.

    Jitter comes from ``sha256(seed, token, attempt)`` — no global RNG is
    touched, so two runs of the same campaign sleep identical schedules.
    """
    if attempt <= 0:
        return 0.0
    base = policy.backoff_base_seconds * (
        policy.backoff_factor ** (attempt - 1)
    )
    base = min(policy.backoff_max_seconds, base)
    digest = hashlib.sha256(
        f"{policy.seed}\x00{token}\x00{attempt}".encode("utf-8")
    ).digest()
    fraction = int.from_bytes(digest[:4], "big") / 0xFFFFFFFF
    jitter = policy.jitter_ratio * (2.0 * fraction - 1.0)
    return max(0.0, base * (1.0 + jitter))


class CircuitBreaker:
    """Closed/open/half-open failure gate over a monotonic clock.

    * **closed** — requests flow; consecutive failures are counted.
    * **open** — :meth:`allow` returns False until the cooldown lapses.
    * **half-open** — one probe is admitted; success closes the breaker,
      failure re-opens it (and restarts the cooldown).
    """

    def __init__(
        self,
        failures_to_trip: int = 3,
        cooldown_seconds: float = 5.0,
        clock=time.monotonic,
    ) -> None:
        self.failures_to_trip = max(1, failures_to_trip)
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self.state = "closed"
        self.consecutive_failures = 0
        self.trips = 0
        self._opened_at = 0.0
        self._probing = False

    def allow(self) -> bool:
        """May the next request go to the service?"""
        with self._lock:
            if self.state == "closed":
                return True
            now = self._clock()
            if self.state == "open":
                if now - self._opened_at < self.cooldown_seconds:
                    return False
                self.state = "half-open"
                self._probing = False
            # half-open: admit exactly one probe at a time
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self.state = "closed"
            self.consecutive_failures = 0
            self._probing = False

    def record_failure(self) -> bool:
        """Count a failure; True when this call tripped the breaker open."""
        with self._lock:
            self.consecutive_failures += 1
            if self.state == "half-open":
                tripped = True  # failed probe re-opens
            elif (
                self.state == "closed"
                and self.consecutive_failures >= self.failures_to_trip
            ):
                tripped = True
            else:
                tripped = False
            if tripped:
                self.state = "open"
                self._opened_at = self._clock()
                self._probing = False
                self.trips += 1
            return tripped


class ResilientExecutor:
    """Run task batches through retry → circuit breaker → serial fallback.

    ``service`` may be None (or die mid-batch): every task still
    completes, just in-process.  Results are position-stable —
    ``run_batch(tasks)[i]`` is always the result for ``tasks[i]``.
    """

    def __init__(
        self,
        service: Optional[CompileService],
        policy: Optional[ResiliencePolicy] = None,
        session: Optional[CompilerSession] = None,
    ) -> None:
        self.service = service
        self.policy = policy if policy is not None else ResiliencePolicy()
        self.session = session if session is not None else current_session()
        self.breaker = CircuitBreaker(
            failures_to_trip=self.policy.breaker_failures,
            cooldown_seconds=self.policy.breaker_cooldown_seconds,
        )
        self._serial_state = None

    # -- the batch API --------------------------------------------------

    def run_batch(self, tasks: Sequence[TaskSpec]) -> List[object]:
        """Execute every task; results in submission order, no escapes.

        While the session tracer is enabled each task gets one minted
        :class:`TraceContext` for its entire journey: the first service
        attempt, every retry (same trace id, bumped attempt) and the
        serial fallback all share it, so the whole story lands in one
        ``client:request``-rooted span tree.
        """
        traced = self.session.tracer.enabled
        contexts: List[Optional[TraceContext]] = [
            mint_context() if traced else None for _ in tasks
        ]
        started = [time.perf_counter_ns() if traced else 0 for _ in tasks]
        futures: List[Optional[Future]] = [
            self._try_submit(task, trace=context)
            for task, context in zip(tasks, contexts)
        ]
        return [
            self._collect(task, future, context, start_ns)
            for task, future, context, start_ns in zip(
                tasks, futures, contexts, started
            )
        ]

    # -- service attempts ----------------------------------------------

    def _try_submit(
        self, task: TaskSpec, trace: Optional[TraceContext] = None
    ) -> Optional[Future]:
        """Submit to the service, or None when it can't take the task."""
        if self.service is None or not self.breaker.allow():
            return None
        kind, payload, shard_key, weight = task
        try:
            return self.service.submit(
                kind, payload, shard_key=shard_key, weight=weight, trace=trace
            )
        except ServiceError:
            self._count_failure()
            return None

    def _collect(
        self,
        task: TaskSpec,
        future: Optional[Future],
        context: Optional[TraceContext] = None,
        started_ns: int = 0,
    ) -> object:
        kind, _, shard_key, _ = task
        policy = self.policy
        attempt = 0
        last_exc: Optional[BaseException] = None
        while future is not None:
            try:
                result = future.result()
            except ServiceError as exc:
                last_exc = exc
                self._count_failure()
                if (
                    isinstance(exc, _FATAL_FOR_SERVICE)
                    or attempt >= policy.max_retries
                ):
                    future = None
                    break
                attempt += 1
                _RETRIES.resolve(self.session.stats).add()
                if context is not None:
                    context = context.retry()
                self.session.log.emit(
                    "info", "retry",
                    f"resubmitting {kind} task after "
                    f"{type(exc).__name__} (attempt {attempt})",
                    trace_id=context.trace_id if context else "",
                    kind=kind,
                    attempt=attempt,
                    error=type(exc).__name__,
                )
                delay = backoff_delay(
                    policy, attempt, token=shard_key or kind
                )
                if delay > 0:
                    time.sleep(delay)
                future = self._try_submit(task, trace=context)
            else:
                self.breaker.record_success()
                self._sync_breaker()
                self._finish_client_span(task, context, started_ns, "ok")
                return result
        result = self._run_degraded(task, cause=last_exc, context=context)
        self._finish_client_span(task, context, started_ns, "degraded")
        return result

    def _finish_client_span(
        self,
        task: TaskSpec,
        context: Optional[TraceContext],
        started_ns: int,
        status: str,
    ) -> None:
        """Close the per-task root: the client-side ``client:request``
        span every service/worker/serial span ultimately parents into."""
        if context is None or not self.session.tracer.enabled:
            return
        self.session.tracer.events.append(
            TraceEvent(
                name="client:request",
                start_ns=started_ns,
                duration_ns=max(0, time.perf_counter_ns() - started_ns),
                depth=0,
                args={
                    "kind": task[0],
                    "status": status,
                    "attempt": context.attempt,
                },
                trace_id=context.trace_id,
                span_id=context.span_id,
                parent_id="",
            )
        )

    def _sync_breaker(self) -> None:
        """Mirror the breaker state onto the service for ``stats``/top."""
        if self.service is not None:
            self.service.breaker_state = self.breaker.state

    def _count_failure(self) -> None:
        tripped = self.breaker.record_failure()
        self._sync_breaker()
        if tripped:
            _BREAKER_TRIPS.resolve(self.session.stats).add()
            self.session.remarks.recovery(
                "resilience",
                f"circuit breaker tripped open after "
                f"{self.breaker.consecutive_failures} consecutive service "
                f"failures; cooling down "
                f"{self.breaker.cooldown_seconds:g}s",
                breaker_trips=self.breaker.trips,
            )
            self.session.log.emit(
                "error", "breaker-trip",
                f"circuit breaker opened after "
                f"{self.breaker.consecutive_failures} consecutive failures",
                trips=self.breaker.trips,
            )

    # -- the serial fallback -------------------------------------------

    def _run_degraded(
        self,
        task: TaskSpec,
        cause: Optional[BaseException] = None,
        context: Optional[TraceContext] = None,
    ) -> object:
        """The rung below the service: serial in-process execution.

        ``context`` (when tracing) follows the task down the ladder, so
        the serial run still parents its spans into the same
        ``client:request`` tree as the failed service attempts.
        """
        kind, payload, _, _ = task
        _DEGRADED.resolve(self.session.stats).add()
        detail = (
            f"{type(cause).__name__}: {cause}"
            if cause is not None
            else "service unavailable or circuit open"
        )
        self.session.remarks.recovery(
            "resilience",
            f"degraded {kind} task to serial in-process execution "
            f"({detail})",
            task_kind=kind,
            rung="serial",
        )
        self.session.log.emit(
            "warn", "degrade",
            f"degraded {kind} task to serial in-process execution",
            trace_id=context.trace_id if context else "",
            kind=kind,
            rung="serial",
            cause=detail,
        )
        return self._run_serial(kind, payload, context)

    def _run_serial(
        self,
        kind: str,
        payload: object,
        context: Optional[TraceContext] = None,
    ) -> object:
        """Run the task right here, no processes involved.

        A *fresh* session, so armed faults in the caller's session can't
        follow the work down the ladder — the serial rung models a
        healthy replacement, like a respawned worker.
        """
        from .tasks import WorkerState, run_task

        if self._serial_state is None:
            self._serial_state = WorkerState(
                index=-1, session=CompilerSession(name="resilience-serial")
            )
        state = self._serial_state
        if context is None or not self.session.tracer.enabled:
            with use_session(state.session):
                return run_task(kind, payload, state)
        # Trace the serial rung like a worker would: a ``serial:task``
        # root parented into the request context, compile-phase spans
        # nested inside, the forest moved into the caller's tracer
        # afterwards (pid stays 0 — this *is* the client process).
        tracer = state.session.tracer
        mark = len(tracer.events)
        was_enabled = tracer.enabled
        tracer.enabled = True
        try:
            with use_session(state.session):
                with tracer.bind(context):
                    with tracer.span(
                        "serial:task", kind=kind, attempt=context.attempt
                    ):
                        return run_task(kind, payload, state)
        finally:
            captured = tracer.events[mark:]
            del tracer.events[mark:]
            tracer.enabled = was_enabled
            self.session.tracer.events.extend(captured)


def run_batch(
    tasks: Sequence[TaskSpec],
    jobs: int,
    session: CompilerSession,
    service: Optional[CompileService] = None,
    policy: Optional[ResiliencePolicy] = None,
    on_done: Optional[Callable[[int, float], None]] = None,
) -> List[object]:
    """Run ``tasks`` on the compile service; results in task order.

    Without a caller-owned ``service`` an ephemeral one with
    ``min(jobs, len(tasks))`` workers, named after the first task's
    kind, is started on ``session`` and closed before returning, so no
    worker process outlives the call.  With a ``policy`` the tasks go
    through a :class:`ResilientExecutor` (retries, circuit breaker,
    serial fallback); otherwise each is submitted once and a failure
    propagates.  On that plain path ``on_done(index, seconds)`` reports,
    in this thread and before the call returns, each task's
    submit-to-done wall time as it finishes (queueing included).
    """
    if not tasks:
        return []
    owned = service is None
    if owned:
        service = CompileService(
            workers=min(jobs, len(tasks)),
            session=session,
            name=f"{tasks[0][0]}-pool",
        ).start()
    try:
        if policy is not None:
            return ResilientExecutor(
                service, policy=policy, session=session
            ).run_batch(tasks)
        submitted: Dict[Future, Tuple[int, float]] = {}
        for index, (kind, payload, shard_key, weight) in enumerate(tasks):
            start = time.perf_counter()
            future = service.submit(
                kind, payload, shard_key=shard_key, weight=weight
            )
            submitted[future] = (index, start)
        if on_done is not None:
            for future in as_completed(submitted):
                index, start = submitted[future]
                on_done(index, time.perf_counter() - start)
        return [future.result() for future in submitted]
    finally:
        if owned:
            service.close()
