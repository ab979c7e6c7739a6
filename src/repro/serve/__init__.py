"""Compilation-as-a-service: persistent warm-worker pool + async front-end.

This package turns the per-task process pools of PR 4 into a long-lived
compile service (ROADMAP Open item 1):

* :mod:`repro.serve.pool` — :class:`~repro.serve.pool.WorkerPool`, a set
  of persistent worker processes, each holding a warm
  :class:`~repro.observe.session.CompilerSession` for its lifetime, with
  health checks, crash→respawn and graceful drain.
* :mod:`repro.serve.tasks` — the task-kind registry executed inside
  workers (bench pairs, raw compiles, fuzz chunks, figure grids) plus
  the shared bench-result cache.
* :mod:`repro.serve.service` — :class:`~repro.serve.service.CompileService`,
  the async submission front-end: request queue + futures,
  bounded-queue backpressure, per-request timeout/cancel, sharding by
  kernel, requeue on worker death, and serve.* telemetry.
* :mod:`repro.serve.wire` — the JSONL wire protocol behind ``repro
  serve`` (stdin/stdout or an AF_UNIX socket) and a small client.
* :mod:`repro.serve.resilience` — the client side: ``run_batch``, the
  one batch call bench and fuzz dispatch through (an ephemeral service
  unless the caller owns one, results in task order), and the client's
  half of the failure contract: a failed task is resubmitted at once, at
  most twice, then runs serially in-process (service → serial).
* :mod:`repro.serve.chaos` — the ``repro chaos`` campaign arming seeded
  service faults against real bench/fuzz traffic and classifying each
  run recovered/degraded/escaped/fatal.

Everything is import-light: submodules import the heavy compiler stack
lazily so ``import repro.serve`` stays cheap for CLI startup.
"""

from __future__ import annotations

__all__ = [
    "CompileService",
    "ServiceError",
    "TaskTimeout",
    "TaskCancelled",
    "WorkerCrashed",
    "ServiceClosed",
    "ServiceOverloaded",
    "ServiceUnavailable",
    "RemoteTaskError",
    "WorkerPool",
    "ResilientExecutor",
    "run_batch",
]

_RESILIENCE_NAMES = ("ResilientExecutor", "run_batch")


def __getattr__(name: str):
    if name in __all__:
        if name == "WorkerPool":
            from .pool import WorkerPool
            return WorkerPool
        if name in _RESILIENCE_NAMES:
            from . import resilience
            return getattr(resilience, name)
        from . import service
        return getattr(service, name)
    raise AttributeError(name)
