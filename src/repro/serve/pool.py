"""Persistent warm-worker pool.

Each worker is a long-lived process holding one warm
:class:`~repro.observe.session.CompilerSession` for its entire lifetime —
the registries, interned opcode tables and kernel builders it touches
stay resident, so task N+1 skips everything task N already paid for.
That is the structural fix for the BENCH_pr6 regression
(``parallel_speedup: 0.867`` at jobs=2): the old
``ProcessPoolExecutor`` path re-paid process spawn and cold-session
setup per *call site*, where this pool pays it once per service.

Transport is a pair of OS pipes per worker (parent→worker tasks,
worker→parent results) with explicit pickling, so the parent can time
marshalling honestly (the ``parallel.marshal_seconds`` satellite fix
lives in :mod:`repro.serve.service`, which does the ``pickle.dumps``
itself before handing bytes to this pool).

Protocol (all tuples, pickled):

* parent → worker: ``(task_id, kind, payload_bytes, trace)`` or the
  ``None`` sentinel meaning *drain and exit* — the worker finishes
  everything already in its pipe first, then acknowledges and leaves.
  ``trace`` is ``None`` (tracing off) or the requesting context's
  :meth:`~repro.observe.context.TraceContext.to_wire` triple
  ``(trace_id, span_id, attempt)``.
* worker → parent: ``(task_id, status, data_bytes, worker_seconds,
  capture)`` where ``status`` is ``"ok"`` or ``"error"``,
  ``data_bytes`` pickles the result (or ``(exc_type_name, message)``)
  and ``capture`` is the warm session's
  :class:`~repro.observe.session.Capture` for the task, absorbed into
  the service session by the parent — never into task results, so
  bit-identity with serial runs holds.  It carries the task's counter
  delta (cache hits etc.) and, when the task carried a trace, its span
  forest: records rooted at a ``worker:task`` span whose ``parent_id``
  is the request span shipped in ``trace``, which is what lets the
  parent assemble one causally-linked tree per request across process
  boundaries.  Before running a task the worker sends
  ``(task_id, "begin", b"", 0.0, None)``, the marker the service's
  stall budget measures from.

Crash handling: the parent polls ``Process.is_alive()`` (pipe EOF is
unreliable under ``fork`` because later workers inherit earlier workers'
descriptors); a dead worker's buffered results are drained, the worker
is respawned with fresh pipes under the same slot, and the service
requeues whatever was in flight.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from multiprocessing import Pipe, Process, connection
from typing import List, Optional, Sequence, Set, Tuple

#: wire tuples (see module docstring)
TaskEnvelope = Tuple[int, str, bytes, Optional[Tuple[str, str, int]]]
ResultEnvelope = Tuple[int, str, bytes, float, object]

#: one armed fault shipped to generation-0 workers: (site, mode, skip, once)
FaultPlanSpec = Tuple[str, str, int, bool]

#: exit status of a worker killed by an armed ``serve.worker.crash``
CRASH_EXIT_CODE = 23


def _worker_main(
    index: int,
    generation: int,
    task_recv: connection.Connection,
    result_send: connection.Connection,
    cache_dir: Optional[str],
    cache_entries: Optional[int],
    pool_name: str,
    fault_plans: Sequence[FaultPlanSpec],
    fault_stall_seconds: Optional[float],
) -> None:
    """Worker loop: one warm session, tasks until sentinel or EOF."""
    # Imports happen here, inside the child, so the parent's submit path
    # never blocks on them and the warm cost is paid exactly once.
    from ..observe.session import CompilerSession, use_session
    from .tasks import WorkerState, run_task

    session = CompilerSession(name=f"{pool_name}-worker:{index}")
    faults = None
    fault_error: type = Exception
    if fault_plans and generation == 0:
        # Seeded chaos plans apply only to first-generation workers: a
        # respawned worker models a healthy replacement, so an injected
        # crash/stall cannot loop forever through the respawn path.
        from ..robust.faults import FaultError, FaultInjector

        faults = FaultInjector()
        fault_error = FaultError
        if fault_stall_seconds is not None:
            faults.stall_seconds = fault_stall_seconds
        for site, mode, skip, once in fault_plans:
            faults.arm(site, mode, skip=skip, once=once)
        session.faults = faults
    state = WorkerState(
        index=index,
        session=session,
        cache_dir=cache_dir,
        cache_entries=cache_entries,
        generation=generation,
    )
    with use_session(session):
        while True:
            try:
                envelope = task_recv.recv()
            except (EOFError, OSError):
                break
            if envelope is None:  # drain sentinel
                try:
                    result_send.send((-1, "bye", b"", 0.0, None))
                except (OSError, BrokenPipeError):
                    pass
                break
            task_id, kind, payload_bytes, trace = envelope
            # Task-start marker: the parent's wedged-worker detector
            # measures stall time from here, so a task that never
            # completes is caught before its deadline.
            try:
                result_send.send((task_id, "begin", b"", 0.0, None))
            except (OSError, BrokenPipeError):
                break
            if faults is not None:
                try:
                    faults.fire("serve.worker.crash")
                except fault_error:
                    os._exit(CRASH_EXIT_CODE)
                faults.fire("serve.worker.stall")
            started = time.perf_counter()
            mark = session.mark()
            try:
                payload = pickle.loads(payload_bytes)
                if faults is not None:
                    faults.fire("serve.task.error")
                if trace is None:
                    result = run_task(kind, payload, state)
                else:
                    result = _run_traced(state, task_id, kind, payload, trace)
                status, data = "ok", pickle.dumps(result, protocol=-1)
            except BaseException as exc:  # noqa: BLE001 - ship, don't die
                status = "error"
                data = pickle.dumps(
                    (type(exc).__name__, str(exc)), protocol=-1
                )
            worker_seconds = time.perf_counter() - started
            capture = session.capture(mark)
            state.tasks_done += 1
            garbled = False
            if faults is not None:

                def _garble() -> None:
                    nonlocal garbled
                    garbled = True
                    try:  # a structurally bogus frame, not a result
                        result_send.send(("garbage-frame", index))
                    except (OSError, BrokenPipeError):
                        pass

                faults.fire("serve.pipe.frame", corrupt=_garble)
            if garbled:
                continue
            try:
                result_send.send(
                    (task_id, status, data, worker_seconds, capture)
                )
            except (OSError, BrokenPipeError):
                break


def _run_traced(
    state: object,
    task_id: int,
    kind: str,
    payload: object,
    raw_trace: Tuple[str, str, int],
) -> object:
    """Run one task under its request's bound trace context.

    Opens a ``worker:task`` root span parented to the request span the
    parent shipped in the envelope, and installs a derived ambient
    context so compile-phase spans opened by the task nest under that
    root.  The warm session's spans are armed only for the scope of the
    task; the worker loop's capture moves the span forest out — also
    when the task raises (the root span closes during propagation), so
    error replies still carry their spans.
    """
    from ..observe.context import TraceContext, use_trace_context
    from .tasks import run_task

    tracer = state.session.tracer  # type: ignore[attr-defined]
    context = TraceContext.from_wire(raw_trace)
    tracer.enable()
    try:
        with tracer.bind(context):
            with tracer.span(
                "worker:task",
                kind=kind,
                task=task_id,
                worker=state.index,  # type: ignore[attr-defined]
                attempt=context.attempt,
            ) as root:
                inner = context.child(root.span_id)
                with use_trace_context(inner):
                    return run_task(kind, payload, state)
    finally:
        tracer.disable()


@dataclass
class Worker:
    """One pool slot: process + its two parent-side pipe ends."""

    index: int
    generation: int
    process: Process
    task_send: connection.Connection
    result_recv: connection.Connection
    inflight: int = 0
    tasks_sent: int = 0
    busy_seconds: float = 0.0
    started_at: float = field(default_factory=time.perf_counter)
    #: set once the wedged-worker detector decided to kill this process,
    #: so one stall is counted (and terminated) exactly once
    wedged: bool = False

    def alive(self) -> bool:
        return self.process.is_alive()


class WorkerPool:
    """A fixed-size set of persistent workers with respawn-on-death.

    The pool only moves bytes; scheduling (sharding, backpressure,
    timeouts, requeue) lives in
    :class:`~repro.serve.service.CompileService`.
    """

    def __init__(
        self,
        size: int,
        cache_dir: Optional[str] = None,
        cache_entries: Optional[int] = None,
        name: str = "serve",
        fault_plans: Sequence[FaultPlanSpec] = (),
        fault_stall_seconds: Optional[float] = None,
    ) -> None:
        self.size = max(1, size)
        self.cache_dir = cache_dir
        self.cache_entries = cache_entries
        self.name = name
        self.fault_plans = tuple(fault_plans)
        self.fault_stall_seconds = fault_stall_seconds
        #: parent-side injector consulted at respawn (``serve.respawn``);
        #: the service binds its session's injector here before start
        self.faults = None
        self.workers: List[Worker] = []
        #: slots whose respawn failed — permanently out of rotation
        self.defunct: Set[int] = set()
        self.respawns = 0
        self.respawn_failures = 0
        self._started = False

    # -- lifecycle --

    def start(self) -> float:
        """Spawn all workers; returns the spawn wall seconds."""
        started = time.perf_counter()
        for index in range(self.size):
            self.workers.append(self._spawn(index, generation=0))
        self._started = True
        return time.perf_counter() - started

    def _spawn(self, index: int, generation: int) -> Worker:
        task_recv, task_send = Pipe(duplex=False)
        result_recv, result_send = Pipe(duplex=False)
        process = Process(
            target=_worker_main,
            args=(
                index, generation, task_recv, result_send,
                self.cache_dir, self.cache_entries, self.name,
                self.fault_plans, self.fault_stall_seconds,
            ),
            name=f"{self.name}-worker-{index}.{generation}",
            daemon=True,
        )
        process.start()
        # Close the child's ends in the parent so they are not leaked.
        task_recv.close()
        result_send.close()
        return Worker(
            index=index,
            generation=generation,
            process=process,
            task_send=task_send,
            result_recv=result_recv,
        )

    def respawn(self, index: int) -> Worker:
        """Replace a (dead or wedged) worker with a fresh process.

        Raises whatever the armed ``serve.respawn`` fault injects; the
        caller (the service) marks the slot defunct via
        :meth:`mark_defunct` — a failed respawn permanently reduces
        capacity rather than retrying into the same failure.
        """
        if self.faults is not None:
            self.faults.fire("serve.respawn")
        old = self.workers[index]
        if old.process.is_alive():
            old.process.terminate()
            old.process.join(timeout=2.0)
            if old.process.is_alive():  # pragma: no cover - stubborn child
                old.process.kill()
                old.process.join(timeout=2.0)
        for conn in (old.task_send, old.result_recv):
            try:
                conn.close()
            except OSError:
                pass
        fresh = self._spawn(index, generation=old.generation + 1)
        self.workers[index] = fresh
        self.respawns += 1
        return fresh

    def mark_defunct(self, index: int) -> None:
        """Take a slot permanently out of rotation (failed respawn)."""
        self.defunct.add(index)
        self.respawn_failures += 1
        worker = self.workers[index]
        if worker.process.is_alive():  # pragma: no cover - defensive
            worker.process.terminate()
            worker.process.join(timeout=2.0)
        for conn in (worker.task_send, worker.result_recv):
            try:
                conn.close()
            except OSError:
                pass

    def live_indices(self) -> List[int]:
        """Slot indices still in rotation (not defunct)."""
        return [w.index for w in self.workers if w.index not in self.defunct]

    # -- I/O --

    def send(
        self,
        index: int,
        task_id: int,
        kind: str,
        payload: bytes,
        trace: Optional[Tuple[str, str, int]] = None,
    ) -> None:
        worker = self.workers[index]
        worker.task_send.send((task_id, kind, payload, trace))
        worker.inflight += 1
        worker.tasks_sent += 1

    def wait_any(
        self,
        timeout: Optional[float],
        extra: Sequence[object] = (),
    ) -> Tuple[List[Tuple[int, ResultEnvelope]], List[object], List[int]]:
        """Block up to ``timeout`` for results, wake fds, or dead workers.

        Returns ``(messages, ready_extras, dead_indices)`` where
        ``messages`` are ``(worker_index, envelope)`` pairs in arrival
        order and ``dead_indices`` lists workers found dead (after their
        buffered results were drained).
        """
        conn_to_index = {
            w.result_recv: w.index
            for w in self.workers
            if w.index not in self.defunct
        }
        ready = connection.wait(
            list(conn_to_index) + list(extra), timeout=timeout
        )
        messages: List[Tuple[int, ResultEnvelope]] = []
        ready_extras: List[object] = []
        for item in ready:
            if item in conn_to_index:
                index = conn_to_index[item]
                try:
                    messages.append((index, item.recv()))
                except (EOFError, OSError):
                    pass  # dead worker: handled by the liveness scan below
                except Exception:  # garbage on the pipe: a bad frame
                    messages.append((index, ("unpicklable-frame",)))
            else:
                ready_extras.append(item)
        dead: List[int] = []
        for worker in self.workers:
            if worker.index in self.defunct or worker.alive():
                continue
            # Drain anything the worker managed to send before dying.
            try:
                while worker.result_recv.poll(0):
                    messages.append((worker.index, worker.result_recv.recv()))
            except (EOFError, OSError):
                pass
            dead.append(worker.index)
        return messages, ready_extras, dead

    # -- shutdown --

    def stop(self, graceful: bool = True, timeout: float = 10.0) -> None:
        """Send drain sentinels (graceful) or terminate, then reap."""
        if not self._started:
            return
        if graceful:
            for worker in self.workers:
                if worker.index in self.defunct:
                    continue
                try:
                    worker.task_send.send(None)
                except (OSError, BrokenPipeError, ValueError):
                    pass
            deadline = time.perf_counter() + timeout
            for worker in self.workers:
                worker.process.join(
                    timeout=max(0.1, deadline - time.perf_counter())
                )
        for worker in self.workers:
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
                if worker.process.is_alive():  # pragma: no cover
                    worker.process.kill()
                    worker.process.join(timeout=2.0)
            for conn in (worker.task_send, worker.result_recv):
                try:
                    conn.close()
                except OSError:
                    pass
        self.workers = []
        self._started = False
