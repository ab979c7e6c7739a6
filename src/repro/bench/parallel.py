"""Process-parallel benchmark execution over the compile service.

The benchmark matrix is embarrassingly parallel: every (kernel,
configuration) pair compiles and simulates independently, and PR 4's
reentrant :class:`~repro.observe.session.CompilerSession` makes each
pair's counters self-contained.  This module shards pairs across worker
processes and reassembles results **deterministically**: the simulator
charges cycles from a fixed cost model (no wall-clock anywhere in the
data), so a parallel run is bit-identical to the serial one on cycles,
counters, vectorization statistics and correctness — only the wall-clock
``compile_seconds``/``phase_seconds`` fields differ, as they do between
any two serial runs.

The fan-out goes through :func:`repro.serve.resilience.run_batch`, the
one batch call over :class:`~repro.serve.service.CompileService` — a
pool of warm-session workers (see :mod:`repro.serve`).  Callers can pass
their own running ``service=`` (the ``repro bench --service`` path: one
pool for the whole invocation, shared result cache across runs);
otherwise ``run_batch`` spins up an ephemeral service for the call.
On a caller's service, tasks are pinned to workers by *kernel name*, so
repeat compiles of one kernel hit the worker that already holds its
warm state; an ephemeral pool has no state to return to and balances
tasks by load.  ``jobs=1`` without a service never leaves the process:
it is :func:`~repro.bench.runner.run_kernel_matrix` per kernel.

Workers receive *names*, not objects: kernels, programs, configs and
targets are all resolvable from registries
(:func:`~repro.kernels.suite.kernel_named` & co.), which keeps the
pickled payloads tiny and sidesteps the fact that kernel builders are
closures.  Every worker builds a fresh root session armed with the
parent's streams (:attr:`~repro.observe.session.CompilerSession.mask`)
and ships back its :class:`~repro.observe.session.Capture`; the parent
absorbs the captures in payload order, tagged with the worker's OS pid
(one process track per worker in the Chrome trace).
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..kernels.suite import Kernel, all_kernels, kernel_named
from ..machine.targets import DEFAULT_TARGET, TargetMachine, target_named
from ..observe import STAT
from ..observe.context import current_trace_context
from ..observe.session import CompilerSession, current_session, use_session
from ..vectorizer.slp import ALL_CONFIGS, O3_CONFIG, SLPConfig, config_named
from .runner import (
    DEFAULT_SEED,
    KernelRun,
    outputs_match,
    run_kernel_config,
    run_kernel_matrix,
)

#: (kernel_name, config_name, target_name, seed, mask, journal) —
#: everything a worker needs.  ``mask`` is the parent session's armed
#: streams (:attr:`~repro.observe.session.CompilerSession.mask`), which
#: the worker arms for itself; ``journal`` attaches a decision summary
#: to the run.
PairPayload = Tuple[str, str, str, int, int, bool]

#: what a worker sends back with its KernelRun: ``pid``, ``capture``
#: and ``worker_seconds`` (the in-worker wall clock that overhead
#: attribution subtracts from the parent-observed task wall clock); the
#: service task adds ``generation`` and, for a stored run, ``cached``
PairInfo = Dict[str, object]

# Parallel-driver overhead counters.  These record into the *parent*
# session only (workers never see them), so serial/parallel KernelRun
# equivalence is untouched; they exist so BENCH reports can attribute
# the jobs=2 slowdown (ROADMAP Open item 1) without a profiler.
_OVERHEAD_SECONDS = STAT(
    "parallel.overhead_seconds",
    "pool wall beyond the ideal jobs-way split of in-worker time",
)
_SPAWN_SECONDS = STAT(
    "parallel.spawn_seconds",
    "pool start to first worker result, minus that task's in-worker time",
)
_TASKS = STAT("parallel.tasks", "pairs dispatched to the worker pool")


def default_jobs() -> int:
    return os.cpu_count() or 1


def _resolve_jobs(jobs: Optional[int]) -> int:
    return default_jobs() if jobs is None else max(1, jobs)


def _run_pair(payload: PairPayload) -> Tuple[KernelRun, PairInfo]:
    """Worker: run one (kernel, config) pair in its own root session,
    armed with the parent's streams, and capture what it recorded."""
    kernel_name, config_name, target_name, seed, mask, journal = payload
    kernel = kernel_named(kernel_name)
    session = CompilerSession(name=f"bench-worker:{kernel_name}/{config_name}")
    session.arm(mask)
    start = time.perf_counter()
    # Inside a traced service task, the worker loop installed the
    # request's ambient context; binding this fresh session's tracer to
    # it parents the pair's compile/phase spans under the request's
    # ``worker:task`` span instead of leaving them unlinked.
    with use_session(session):
        with session.tracer.bind(current_trace_context()):
            run = run_kernel_config(
                kernel,
                config_named(config_name),
                target_named(target_name),
                seed,
                session=session.derive(),
                journal=journal,
            )
    return run, {
        "pid": os.getpid(),
        "worker_seconds": time.perf_counter() - start,
        "capture": session.capture(),
    }


def _with_oracle(configs: Sequence[SLPConfig]) -> List[SLPConfig]:
    configs = list(configs)
    if not any(c.name == O3_CONFIG.name for c in configs):
        configs.insert(0, O3_CONFIG)
    return configs


def _pair_payloads(
    kernels: Sequence[Kernel],
    configs: Sequence[SLPConfig],
    target: TargetMachine,
    seed: int,
    mask: int,
    journal: bool,
) -> List[PairPayload]:
    return [
        (kernel.name, config.name, target.name, seed, mask, journal)
        for kernel in kernels
        for config in configs
    ]


def _assemble(
    kernels: Sequence[Kernel],
    configs: Sequence[SLPConfig],
    results: Sequence[KernelRun],
) -> Dict[str, Dict[str, KernelRun]]:
    """Group worker results back into per-kernel matrices (payload order)
    and apply the O3 correctness cross-check in the parent."""
    suite: Dict[str, Dict[str, KernelRun]] = {}
    cursor = 0
    for kernel in kernels:
        runs = {
            config.name: results[cursor + offset]
            for offset, config in enumerate(configs)
        }
        cursor += len(configs)
        oracle = runs[O3_CONFIG.name]
        for run in runs.values():
            run.correct = outputs_match(kernel, run.outputs, oracle.outputs)
        suite[kernel.name] = runs
    return suite


def run_kernel_matrix_parallel(
    kernel: Kernel,
    configs: Sequence[SLPConfig] = ALL_CONFIGS,
    target: TargetMachine = DEFAULT_TARGET,
    seed: int = DEFAULT_SEED,
    jobs: Optional[int] = None,
) -> Dict[str, KernelRun]:
    """Parallel twin of :func:`~repro.bench.runner.run_kernel_matrix`.

    Shards one kernel's configurations across ``jobs`` worker processes
    (default: all cores).  ``jobs=1`` degenerates to the serial runner.
    """
    return run_suite_parallel([kernel], configs, target, seed, jobs)[kernel.name]


def run_suite_parallel(
    kernels: Optional[Sequence[Kernel]] = None,
    configs: Sequence[SLPConfig] = ALL_CONFIGS,
    target: TargetMachine = DEFAULT_TARGET,
    seed: int = DEFAULT_SEED,
    jobs: Optional[int] = None,
    journal: bool = False,
    service=None,
    resilient: bool = False,
) -> Dict[str, Dict[str, KernelRun]]:
    """Run every (kernel, config) pair of the suite, sharded over
    processes; returns ``{kernel_name: {config_name: KernelRun}}``.

    ``jobs <= 1`` without a ``service`` runs in this process through
    :func:`~repro.bench.runner.run_kernel_matrix`, which builds each
    kernel and draws its inputs once for all its configurations; its
    records land in the calling session as the parent's own.  Otherwise
    the pairs go through :func:`repro.serve.resilience.run_batch` and are
    reassembled in payload order, so the outcome is identical regardless
    of ``jobs`` or completion order.  Workers arm the streams the
    *calling* session armed, and their captures are absorbed into it
    keyed by worker pid (payload order again, so the merged stream is
    deterministic).  ``journal=True`` attaches a per-run decision
    summary to each :class:`KernelRun`.

    ``service=`` reuses a running
    :class:`~repro.serve.service.CompileService` (warm workers + shared
    result cache across calls); without one an ephemeral service is
    started for this call.

    ``resilient=True`` sends service traffic through a
    :class:`~repro.serve.resilience.ResilientExecutor` (immediate
    retries, then serial in-process execution), so the suite completes
    with identical results even when the service fails mid-run.  Only
    honoured on the service path; the plain serial path needs no
    resilience.

    Overhead attribution: the parallel path records, into the *parent*
    session only, how much task wall clock was spent outside workers —
    ``parallel.overhead_seconds`` / ``parallel.marshal_seconds`` /
    ``parallel.spawn_seconds`` counters plus per-task histograms when
    metrics are armed — so a slower-than-serial parallel run explains
    itself from the report.
    """
    kernels = list(kernels) if kernels is not None else all_kernels()
    configs = _with_oracle(configs)
    jobs = _resolve_jobs(jobs)
    if service is None and (jobs <= 1 or len(kernels) * len(configs) <= 1):
        return {
            kernel.name: run_kernel_matrix(
                kernel, configs, target, seed, journal=journal
            )
            for kernel in kernels
        }
    parent = current_session()
    payloads = _pair_payloads(
        kernels, configs, target, seed, parent.mask, journal
    )
    outcomes = _dispatch(
        parent, payloads, jobs, service=service, resilient=resilient
    )
    return _assemble(kernels, configs, [run for run, _ in outcomes])


def _dispatch(
    parent: CompilerSession,
    payloads: Sequence[PairPayload],
    jobs: int,
    service=None,
    resilient: bool = False,
) -> List[Tuple[KernelRun, PairInfo]]:
    """Run payloads through the batch call, measuring dispatch overhead.

    Payload pickling cost is timed by the service submit path (the
    ``parallel.marshal_seconds`` counter / ``parallel.task.marshal_seconds``
    histogram now measure the real encode of each payload), and every
    worker ships back its in-worker wall seconds.
    ``parallel.overhead_seconds`` is the pool wall clock minus the
    perfectly-parallel worker time (``sum(worker_seconds) / workers``) —
    exactly the gap between the observed jobs=N time and the ideal N-way
    split, so a slower-than-serial run is attributable to spawn +
    marshal + IPC + imbalance rather than "the kernels got slower".
    Per-task turnaround (submit to done, queueing included) lands in a
    histogram.  All derived counters and histograms go to the *parent*
    session, never into the per-run counter snapshots.
    """
    from ..serve.resilience import run_batch

    stats = parent.stats
    session_metrics = parent.metrics
    done_at: Dict[int, float] = {}
    turnarounds: Dict[int, float] = {}

    def on_done(index: int, seconds: float) -> None:
        done_at[index] = time.perf_counter()
        turnarounds[index] = seconds

    use_cache = service is not None and service.result_cache_enabled
    # A caller's service outlives this call, so each pair is pinned to
    # the worker that holds its kernel's warm state.  A pool made for
    # this call balances pairs by load instead: a kernel-name hash can
    # send every pair of a small run to one worker.
    tasks = [
        (
            "bench-pair",
            (payload, use_cache),
            None if service is None else payload[0],
            1.0,
        )
        for payload in payloads
    ]
    _TASKS.resolve(stats).add(len(tasks))
    pool_start = time.perf_counter()
    with parent.tracer.span("parallel:submit", tasks=len(payloads)):
        outcomes = run_batch(
            tasks, jobs, parent, service=service, resilient=resilient,
            on_done=on_done,
        )
    pool_wall = time.perf_counter() - pool_start
    workers = min(service.workers if service is not None else jobs, len(payloads))
    worker_total = 0.0
    with parent.tracer.span("parallel:merge", tasks=len(payloads)):
        for index, (_, info) in enumerate(outcomes):
            worker_seconds = float(info["worker_seconds"])
            worker_total += worker_seconds
            if index in turnarounds:  # the resilient path reports none
                session_metrics.observe(
                    "parallel.task.turnaround_seconds", turnarounds[index],
                    description="submit-to-done wall seconds per task "
                    "(queueing included)",
                )
            session_metrics.observe(
                "parallel.task.worker_seconds", worker_seconds,
                description="in-worker wall seconds per task",
            )
            parent.absorb(
                info["capture"],
                pid=int(info["pid"]),
                generation=int(info.get("generation", 0)),
            )
    overhead = max(0.0, pool_wall - worker_total / max(1, workers))
    _OVERHEAD_SECONDS.resolve(stats).add(overhead)
    session_metrics.observe(
        "parallel.dispatch.overhead_seconds", overhead,
        description="pool wall seconds beyond the ideal jobs-way split "
        "of in-worker time (spawn + marshal + IPC + imbalance)",
    )
    if done_at:
        first_index = min(done_at, key=done_at.get)
        spawn = max(
            0.0,
            done_at[first_index]
            - pool_start
            - float(outcomes[first_index][1]["worker_seconds"]),
        )
        _SPAWN_SECONDS.resolve(stats).add(spawn)
        session_metrics.gauge(
            "parallel.pool_spawn_seconds", spawn,
            description="pool start to first result, minus in-worker time",
        )
    return outcomes


# -- figure-level workers -----------------------------------------------------------


#: (program_name, config_name, target_name, seed, bulk_trip)
ProgramPayload = Tuple[str, str, str, int, int]


def _run_program_config(payload: ProgramPayload) -> Dict[str, float]:
    """Worker: one composite program under one configuration (Figure 8)."""
    from ..kernels.programs import program_named
    from .figures import _program_cycles

    program_name, config_name, target_name, seed, bulk_trip = payload
    session = CompilerSession(name=f"fig8-worker:{program_name}/{config_name}")
    with use_session(session):
        return _program_cycles(
            program_named(program_name),
            config_named(config_name),
            target_named(target_name),
            seed,
            bulk_trip,
        )


def run_program_grid_parallel(
    program_names: Sequence[str],
    config_names: Sequence[str],
    target: TargetMachine,
    seed: int,
    bulk_trip: int,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Fan (program, config) cycle measurements out over the compile
    service; returns ``{program_name: {config_name: cycle_data}}``."""
    payloads: List[ProgramPayload] = [
        (program, config, target.name, seed, bulk_trip)
        for program in program_names
        for config in config_names
    ]
    jobs = _resolve_jobs(jobs)
    if jobs <= 1 or len(payloads) <= 1:
        results = [_run_program_config(payload) for payload in payloads]
    else:
        from ..serve.resilience import run_batch

        results = run_batch(
            [("program-grid", payload, None, 1.0) for payload in payloads],
            jobs, current_session(),
        )
    grid: Dict[str, Dict[str, Dict[str, float]]] = {}
    cursor = 0
    for program in program_names:
        grid[program] = {
            config: results[cursor + offset]
            for offset, config in enumerate(config_names)
        }
        cursor += len(config_names)
    return grid


#: (kernel_name, target_name, runs, warmup)
TimingPayload = Tuple[str, str, int, int]


def _time_kernel(payload: TimingPayload) -> Dict[str, object]:
    """Worker: one kernel's Figure 11 compile-time row."""
    from .timing import compile_time_and_phase_stats

    kernel_name, target_name, runs, warmup = payload
    session = CompilerSession(name=f"fig11-worker:{kernel_name}")
    with use_session(session):
        stats, phases = compile_time_and_phase_stats(
            kernel_named(kernel_name), target_named(target_name),
            runs=runs, warmup=warmup,
        )
    o3 = stats["O3"]
    return {
        "kernel": kernel_name,
        "O3": 1.0,
        "LSLP": stats["LSLP"].mean / o3.mean,
        "SN-SLP": stats["SN-SLP"].mean / o3.mean,
        "LSLP stddev": stats["LSLP"].stddev / o3.mean,
        "SN-SLP stddev": stats["SN-SLP"].stddev / o3.mean,
        "phase_seconds": phases,
    }


def time_kernels_parallel(
    kernels: Sequence[Kernel],
    target: TargetMachine,
    runs: int,
    warmup: int,
    jobs: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Figure 11 rows, one worker per kernel, in kernel order."""
    payloads: List[TimingPayload] = [
        (kernel.name, target.name, runs, warmup) for kernel in kernels
    ]
    jobs = _resolve_jobs(jobs)
    if jobs <= 1 or len(payloads) <= 1:
        return [_time_kernel(payload) for payload in payloads]
    from ..serve.resilience import run_batch

    return run_batch(
        [("fig11-timing", payload, None, 1.0) for payload in payloads],
        jobs, current_session(),
    )
