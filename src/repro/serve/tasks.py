"""Task kinds executed inside warm service workers.

A *task kind* is a named function ``runner(payload, state) -> result``
registered in :data:`TASK_KINDS`; the pool's worker loop dispatches on
the kind string, so adding a workload to the service is one decorator
here and a ``service.submit(kind, payload)`` at the call site.  Payloads
and results are plain picklable data — workers never receive live
objects.

:class:`WorkerState` is the per-worker context: the slot index, the warm
:class:`~repro.observe.session.CompilerSession`, and (when the service
was given a cache directory) two lazily-opened namespaces of the shared
on-disk store, which every worker reads and writes directly (a worker
keeps no copy of its own):

* the :class:`~repro.vectorizer.cache.CompileCache` (namespace
  ``compile``) memoizing raw compiles for the ``compile`` wire kind,
  whose reply says ``cached`` exactly when the lookup was a hit, and
* a bench *result* store (namespace ``bench-task``) memoizing whole
  :class:`~repro.bench.runner.KernelRun` outcomes for ``bench-pair``
  tasks.

The bench store exists because compile time is only ~4% of a bench pair
on this suite (BENCH_pr6: 0.099s compile vs 2.258s wall — simulation
dominates); caching compiles alone cannot reach the warm-service
speedup target.  Caching the full run is sound for the same reason the
compile cache is: given (kernel module text, config, target, seed) the
simulator is deterministic, and the stored run replays the *cold* run's
counters verbatim, so the parallel==serial bit-identity contract holds
on every deterministic field (``correct`` is stored as None and
recomputed by the parent's O3 cross-check, exactly as for a cold run),
and a stored run feeds the same per-pair histograms a cold run does.
Runs that armed spans, remarks or decisions bypass the store — replaying
those records would be a lie.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..observe import DECISION, REMARK, SPAN, STAT
from ..observe.metrics import MetricsRegistry
from ..observe.session import METRICS, Capture, CompilerSession

TASK_KINDS: Dict[str, Callable] = {}

#: bump when the bench-task store layout changes
BENCH_TASK_FORMAT = 1

_TASK_HITS = STAT("serve.task_cache.hits", "bench-task result-store hits")
_TASK_MISSES = STAT("serve.task_cache.misses", "bench-task result-store misses")


def task_kind(name: str):
    """Register ``fn`` as the runner for task kind ``name``."""

    def register(fn: Callable) -> Callable:
        TASK_KINDS[name] = fn
        return fn

    return register


def run_task(kind: str, payload: object, state: "WorkerState") -> object:
    try:
        runner = TASK_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown task kind {kind!r}") from None
    return runner(payload, state)


@dataclass
class WorkerState:
    """Per-worker context threaded into every task runner."""

    index: int
    session: CompilerSession
    cache_dir: Optional[str] = None
    cache_entries: Optional[int] = None
    tasks_done: int = 0
    #: pool generation of the hosting process (respawns bump it); bench
    #: pairs report it so their records absorb under (pid, generation)
    generation: int = 0
    #: kernel name -> printed module text, memoized for cache keying
    _module_texts: Dict[str, str] = field(default_factory=dict)
    _compile_cache: Optional[object] = field(default=None, repr=False)
    _result_store: Optional[object] = field(default=None, repr=False)

    @property
    def compile_cache(self):
        if self._compile_cache is None and self.cache_dir is not None:
            from ..vectorizer.cache import CompileCache

            self._compile_cache = CompileCache(
                self.cache_dir, max_entries=self.cache_entries
            )
        return self._compile_cache

    @property
    def result_store(self):
        if self._result_store is None and self.cache_dir is not None:
            from ..vectorizer.cache import SharedJsonStore

            self._result_store = SharedJsonStore(
                self.cache_dir,
                namespace="bench-task",
                max_entries=self.cache_entries,
            )
        return self._result_store

    def module_text(self, kernel_name: str) -> str:
        text = self._module_texts.get(kernel_name)
        if text is None:
            from ..ir.printer import print_module
            from ..kernels.suite import kernel_named

            text = print_module(kernel_named(kernel_name).build())
            self._module_texts[kernel_name] = text
        return text


# -- KernelRun (de)serialization ----------------------------------------------------


def run_to_json(run) -> Dict[str, object]:
    """A :class:`~repro.bench.runner.KernelRun` as a JSON document."""
    return {
        "kernel": run.kernel,
        "config": run.config,
        "cycles": run.cycles,
        "instructions": run.instructions,
        "vectorized_graphs": run.vectorized_graphs,
        "attempted_graphs": run.attempted_graphs,
        "node_count": run.node_count,
        "aggregate_node_size": run.aggregate_node_size,
        "average_node_size": run.average_node_size,
        "compile_seconds": run.compile_seconds,
        "outputs": {name: list(buf) for name, buf in run.outputs.items()},
        "correct": run.correct,
        "phase_seconds": dict(run.phase_seconds),
        "counters": dict(run.counters),
        "journal": run.journal,
    }


def run_from_json(data: Dict[str, object]):
    from ..bench.runner import KernelRun

    return KernelRun(
        kernel=data["kernel"],
        config=data["config"],
        cycles=data["cycles"],
        instructions=data["instructions"],
        vectorized_graphs=data["vectorized_graphs"],
        attempted_graphs=data["attempted_graphs"],
        node_count=data["node_count"],
        aggregate_node_size=data["aggregate_node_size"],
        average_node_size=data["average_node_size"],
        compile_seconds=data["compile_seconds"],
        outputs={name: list(buf) for name, buf in data["outputs"].items()},
        correct=data["correct"],
        phase_seconds=dict(data["phase_seconds"]),
        counters=dict(data["counters"]),
        journal=data["journal"],
    )


def _bench_task_key(state: WorkerState, pair) -> str:
    """Content hash of everything a bench pair's outcome depends on.

    The repro-source fingerprint is part of "everything": a store warmed
    by an older checkout misses after a code change instead of replaying
    counters the current compiler would not produce.
    """
    from ..vectorizer.cache import repro_source_fingerprint

    kernel_name, config_name, target_name, seed, _, journal = pair
    hasher = hashlib.sha256()
    hasher.update(state.module_text(kernel_name).encode("utf-8"))
    hasher.update(
        f"\x00{config_name}\x00{target_name}\x00{seed}\x00{int(journal)}"
        f"\x00{BENCH_TASK_FORMAT}\x00{repro_source_fingerprint()}".encode()
    )
    return hasher.hexdigest()


# -- task kinds ---------------------------------------------------------------------


@task_kind("bench-pair")
def _bench_pair_task(payload, state: WorkerState):
    """One (kernel, config) bench pair, memoized through the result store.

    ``payload`` is ``(PairPayload, use_cache)``.  Pairs armed for spans,
    remarks or decisions always run cold (their value *is* the records);
    otherwise a store hit rebuilds the KernelRun from the cold run's
    stored document, replays its per-pair histograms when metrics are
    armed, and reports the actual lookup wall time as
    ``worker_seconds``.
    """
    from ..bench.parallel import _run_pair
    from ..bench.runner import observe_run

    pair, use_cache = payload
    mask = pair[4]
    store = state.result_store if use_cache else None
    if store is None or mask & (SPAN | REMARK | DECISION):
        run, info = _run_pair(pair)
        info["generation"] = state.generation
        return run, info
    started = time.perf_counter()
    key = _bench_task_key(state, pair)
    entry = store.get(key)
    if entry is not None and entry.get("format") == BENCH_TASK_FORMAT:
        _TASK_HITS.add()
        run = run_from_json(entry["run"])
        capture = Capture()
        if mask & METRICS:
            capture.metrics = MetricsRegistry(enabled=True)
            observe_run(capture.metrics, run)
        return run, {
            "pid": os.getpid(),
            "generation": state.generation,
            "worker_seconds": time.perf_counter() - started,
            "cached": True,
            "capture": capture,
        }
    _TASK_MISSES.add()
    run, info = _run_pair(pair)
    info["generation"] = state.generation
    store.put(key, {"format": BENCH_TASK_FORMAT, "run": run_to_json(run)})
    return run, info


@task_kind("compile")
def _compile_task(payload, state: WorkerState):
    """Raw compile for wire clients: source text in, compiled IR out.

    ``payload``: dict with ``text`` (mini-C or IR), ``language``
    (``"kernel"``/``"ir"``), ``config``, ``target``, ``unroll`` and
    ``cache`` (bool).  Returns a slim JSON document (full reports stay
    worker-side; wire clients want the IR and the headline numbers).
    """
    from ..ir.parser import parse_module
    from ..ir.printer import print_module
    from ..machine.targets import DEFAULT_TARGET, target_named
    from ..vectorizer.cache import cached_compile_module
    from ..vectorizer.slp import config_named

    text = payload["text"]
    language = payload.get("language", "kernel")
    if language == "ir":
        module = parse_module(text)
    else:
        from ..frontend import compile_source

        module = compile_source(text)
    config = config_named(payload.get("config", "SN-SLP"))
    target_name = payload.get("target")
    target = target_named(target_name) if target_name else DEFAULT_TARGET
    unroll = int(payload.get("unroll", 0))
    cache = state.compile_cache if payload.get("cache", True) else None
    session = state.session.derive(name="serve-compile")
    result = cached_compile_module(
        module, config, target,
        unroll_factor=unroll, session=session, cache=cache,
    )
    report = result.report
    vectorized = sum(1 for g in report.all_graphs() if g.vectorized)
    attempted = sum(1 for g in report.all_graphs())
    return {
        "module": print_module(result.module),
        "config": config.name,
        "target": target.name,
        "vectorized": vectorized,
        "attempted": attempted,
        "compile_seconds": result.compile_seconds,
        "cached": cache is not None and cache.last_lookup == "hit",
        "counters": dict(result.counters),
    }


@task_kind("fuzz-chunk")
def _fuzz_chunk_task(payload, state: WorkerState):
    from ..fuzz.campaign import _campaign_chunk_worker

    return _campaign_chunk_worker(payload)


@task_kind("program-grid")
def _program_grid_task(payload, state: WorkerState):
    from ..bench.parallel import _run_program_config

    return _run_program_config(payload)


@task_kind("fig11-timing")
def _fig11_timing_task(payload, state: WorkerState):
    from ..bench.parallel import _time_kernel

    return _time_kernel(payload)


@task_kind("ping")
def _ping_task(payload, state: WorkerState):
    return {
        "pid": os.getpid(),
        "worker": state.index,
        "tasks_done": state.tasks_done,
    }


# -- test-only kinds (exercised by the lifecycle test suite) ------------------------


@task_kind("sleep")
def _sleep_task(payload, state: WorkerState):
    time.sleep(float(payload))
    return float(payload)


@task_kind("crash")
def _crash_task(payload, state: WorkerState):
    os._exit(int(payload) if payload else 11)


@task_kind("crash-once")
def _crash_once_task(payload, state: WorkerState):
    """Die hard on first sight of ``marker``; succeed on the requeue.

    ``payload``: ``{"marker": path, "kind": inner, "payload": inner_payload}``.
    The marker file records the crashing pid so tests can assert the
    retry genuinely ran in a *respawned* process.
    """
    marker = payload["marker"]
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid()}, handle)
        os._exit(17)
    return run_task(payload["kind"], payload["payload"], state)
