"""The client side of compile-service traffic: one batch call, one retry rule.

The compile service (:mod:`repro.serve.service`) already recovers from
*worker* failures — crashes respawn, wedged workers are killed, in-flight
tasks requeue, and a pool with no live worker left refuses new work.
This module is the **client's** half of the contract: a bench/fuzz
driver that talks to a service must finish with bit-identical results
even when the service itself misbehaves or disappears.

:func:`run_batch` is the one way bench and fuzz dispatch work: it starts
and closes an ephemeral service when the caller has none, submits plainly
or through a :class:`ResilientExecutor`, and returns results in task
order.  The executor has one rule per task: a service future that fails
with a retryable error is resubmitted at once, at most
:data:`MAX_RETRIES` times; after that, or on any other failure, the task
runs serially in-process::

    service  →  serial in-process

A retry does not wait: it goes back into the service's own queue, which
dispatches only to live workers.  Every descent is counted
(``serve.degraded``) and narrated with a ``recovery`` remark, so a chaos
campaign can tell *recovered* (service healed itself, no descent) from
*degraded* (serial fallback) runs.

Determinism: the task runners themselves are deterministic, so **where**
a task executes never changes its result — only its wall-clock cost.
That is the invariant the chaos campaign checks.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, as_completed
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..observe import STAT
from ..observe.context import TraceContext, mint_context
from ..observe.session import CompilerSession, current_session, use_session
from .service import (
    CompileService,
    RemoteTaskError,
    ServiceError,
    TaskTimeout,
    WorkerCrashed,
)

_RETRIES = STAT(
    "serve.retries", "task resubmissions after a retryable failure"
)
_DEGRADED = STAT(
    "serve.degraded", "tasks that fell back to serial in-process execution"
)

#: failures where resubmitting to the *same* service can plausibly help:
#: the worker that died/wedged/errored has been (or is being) replaced.
#: Every other error a service future carries (the service is closed,
#: has no live worker left, or cancelled the task) runs the task
#: serially right away.
_RETRYABLE = (WorkerCrashed, TaskTimeout, RemoteTaskError)

#: resubmissions per task after its first attempt fails
MAX_RETRIES = 2

#: one executor-managed task: (kind, payload, shard_key, weight)
TaskSpec = Tuple[str, object, Optional[str], float]


class ResilientExecutor:
    """Run task batches through immediate retries, then serial fallback.

    ``service`` may be None (or die mid-batch): every task still
    completes, just in-process.  Results are position-stable —
    ``run_batch(tasks)[i]`` is always the result for ``tasks[i]``.
    """

    def __init__(
        self,
        service: Optional[CompileService],
        session: Optional[CompilerSession] = None,
    ) -> None:
        self.service = service
        self.session = session if session is not None else current_session()
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
        if self.service is None:
            return None
        kind, payload, shard_key, weight = task
        try:
            return self.service.submit(
                kind, payload, shard_key=shard_key, weight=weight, trace=trace
            )
        except ServiceError:
            return None

    def _collect(
        self,
        task: TaskSpec,
        future: Optional[Future],
        context: Optional[TraceContext] = None,
        started_ns: int = 0,
    ) -> object:
        kind = task[0]
        attempt = 0
        last_exc: Optional[BaseException] = None
        while future is not None:
            try:
                result = future.result()
            except ServiceError as exc:
                last_exc = exc
                if not isinstance(exc, _RETRYABLE) or attempt >= MAX_RETRIES:
                    break
                attempt += 1
                _RETRIES.resolve(self.session.stats).add()
                if context is not None:
                    context = context.retry()
                self.session.tracer.log(
                    "info", "retry",
                    f"resubmitting {kind} task after "
                    f"{type(exc).__name__} (attempt {attempt})",
                    trace_id=context.trace_id if context else "",
                    kind=kind,
                    attempt=attempt,
                    error=type(exc).__name__,
                )
                future = self._try_submit(task, trace=context)
            else:
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
        self.session.tracer.record_span(
            "client:request", started_ns,
            time.perf_counter_ns() - started_ns, 0,
            context.trace_id, context.span_id, "",
            kind=task[0], status=status, attempt=context.attempt,
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
            else "service unavailable"
        )
        self.session.tracer.remark(
            "recovery", "resilience",
            f"degraded {kind} task to serial in-process execution "
            f"({detail})",
            task_kind=kind,
            rung="serial",
        )
        self.session.tracer.log(
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
        session = state.session
        # Traced, the serial rung runs like a worker task: a
        # ``serial:task`` root parented into the request context, with
        # compile-phase spans nested inside.  Either way what the task
        # recorded is absorbed into the caller's session (pid stays 0 —
        # this *is* the client process).
        traced = context is not None and self.session.tracer.enabled
        mark = session.mark()
        if traced:
            session.tracer.enable()
        try:
            with use_session(session):
                if not traced:
                    return run_task(kind, payload, state)
                with session.tracer.bind(context):
                    with session.tracer.span(
                        "serial:task", kind=kind, attempt=context.attempt
                    ):
                        return run_task(kind, payload, state)
        finally:
            session.tracer.disable()
            self.session.absorb(session.capture(mark))


def run_batch(
    tasks: Sequence[TaskSpec],
    jobs: int,
    session: CompilerSession,
    service: Optional[CompileService] = None,
    resilient: bool = False,
    on_done: Optional[Callable[[int, float], None]] = None,
) -> List[object]:
    """Run ``tasks`` on the compile service; results in task order.

    Without a caller-owned ``service`` an ephemeral one with
    ``min(jobs, len(tasks))`` workers, named after the first task's
    kind, is started on ``session`` and closed before returning, so no
    worker process outlives the call.  With ``resilient=True`` the tasks
    go through a :class:`ResilientExecutor` (immediate retries, then
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
        if resilient:
            return ResilientExecutor(service, session=session).run_batch(tasks)
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
