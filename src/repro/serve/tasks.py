"""Task kinds executed inside warm service workers.

A *task kind* is a named function ``runner(payload, state) -> result``
registered in :data:`TASK_KINDS`; the pool's worker loop dispatches on
the kind string, so adding a workload to the service is one decorator
here and a ``service.submit(kind, payload)`` at the call site.  Payloads
and results are plain picklable data — workers never receive live
objects.

:class:`WorkerState` is the per-worker context: the slot index, the warm
:class:`~repro.observe.session.CompilerSession`, and (when the service
was given a cache directory) lazily-opened namespaces of the shared
on-disk :class:`~repro.vectorizer.cache.SharedJsonStore`, which every
worker reads and writes directly (a worker keeps no copy of its own).
Two task kinds memoize their results there, under one key rule
(:func:`task_key`):

* ``compile`` (namespace ``compile-task``) stores the reply it sends.  A
  hit returns that reply with ``cached: true`` and runs nothing else: no
  frontend, no IR parse, no compile, no IR print.  ``repro compile
  --cache-dir`` runs this task in-process, so the CLI and the service
  share one memo.
* ``bench-pair`` (namespace ``bench-task``) stores the whole
  :class:`~repro.bench.runner.KernelRun`.

Both count ``serve.task_cache.hits``/``misses`` in the worker session,
where the store also counts its ``cache.*`` statistics, so the service's
``stats`` reply covers both kinds.  The same lookup leaves a
``cache_hit`` analysis remark on a hit and a ``cache_corrupt`` one when
it discards a garbage entry, when remarks are armed.

The bench store exists because compile time is only ~4% of a bench pair
on this suite (BENCH_pr6: 0.099s compile vs 2.258s wall — simulation
dominates); caching compiles alone cannot reach the warm-service
speedup target.  Caching the full run is sound because, given (kernel,
config, target, seed) and the repro source, the simulator is
deterministic, and the stored run replays the *cold* run's counters
verbatim, so the parallel==serial bit-identity contract holds on every
deterministic field (``correct`` is stored as None and recomputed by
the parent's O3 cross-check, exactly as for a cold run), and a stored
run feeds the same per-pair histograms a cold run does.  Runs that armed
spans, remarks or decisions bypass the store — replaying those records
would be a lie.
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
from ..observe.session import METRICS, Capture, CompilerSession, current_tracer

TASK_KINDS: Dict[str, Callable] = {}

#: bump when a task store's document layout changes (it is part of
#: every key, so entries of another layout simply miss)
TASK_FORMAT = 2

_TASK_HITS = STAT("serve.task_cache.hits", "task result-store hits")
_TASK_MISSES = STAT("serve.task_cache.misses", "task result-store misses")


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
    _stores: Dict[str, object] = field(default_factory=dict, repr=False)

    def task_store(self, namespace: str):
        """The shared store's ``namespace``, opened on first use; None
        when the service has no cache directory."""
        if self.cache_dir is None:
            return None
        store = self._stores.get(namespace)
        if store is None:
            from ..vectorizer.cache import SharedJsonStore

            store = self._stores[namespace] = SharedJsonStore(
                self.cache_dir, namespace=namespace,
                max_entries=self.cache_entries,
            )
        return store


def task_key(kind: str, payload: object) -> str:
    """SHA-256 over the task kind, the canonical JSON of the payload that
    determines its result, :data:`TASK_FORMAT` and the repro-source
    fingerprint.

    The fingerprint covers the compiler and the suite's kernel builders
    alike, so a store warmed by an older checkout misses after a code
    change instead of replaying results the current code would not
    produce.
    """
    from ..vectorizer.cache import repro_source_fingerprint

    text = json.dumps(
        [kind, payload, TASK_FORMAT, repro_source_fingerprint()],
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _lookup(store, key: str) -> Optional[Dict[str, object]]:
    """The stored document for ``key`` or None, counted as a task-cache
    hit or miss in the ambient (worker) session, with a ``cache_hit`` or
    ``cache_corrupt`` analysis remark when remarks are armed."""
    doc = store.get(key)
    (_TASK_HITS if doc is not None else _TASK_MISSES).add()
    tracer = current_tracer()
    if tracer.mask & REMARK:
        if doc is not None:
            tracer.remark(
                "analysis", "cache",
                f"cache_hit: replayed the stored {doc['config']} result "
                f"from key {key[:12]}",
                key=key, config=doc["config"], counters=dict(doc["counters"]),
            )
        elif store.last_get == "corrupt":
            tracer.remark(
                "analysis", "cache",
                f"cache_corrupt: discarded garbage entry {key[:12]}; "
                "running cold",
                key=key,
            )
    return doc


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


# -- task kinds ---------------------------------------------------------------------


@task_kind("bench-pair")
def _bench_pair_task(payload, state: WorkerState):
    """One (kernel, config) bench pair, memoized in ``bench-task``.

    ``payload`` is ``(PairPayload, use_cache)``; the key covers the pair
    without its stream mask.  Pairs armed for spans, remarks or
    decisions always run cold (their value *is* the records); otherwise
    a store hit rebuilds the KernelRun from the cold run's stored
    document, replays its per-pair histograms when metrics are armed,
    and reports the actual lookup wall time as ``worker_seconds``.
    """
    from ..bench.parallel import _run_pair
    from ..bench.runner import observe_run

    pair, use_cache = payload
    mask = pair[4]
    store = state.task_store("bench-task") if use_cache else None
    if store is None or mask & (SPAN | REMARK | DECISION):
        run, info = _run_pair(pair)
        info["generation"] = state.generation
        return run, info
    started = time.perf_counter()
    key = task_key("bench-pair", pair[:4] + pair[5:])
    doc = _lookup(store, key)
    if doc is not None:
        run = run_from_json(doc)
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
    run, info = _run_pair(pair)
    info["generation"] = state.generation
    store.put(key, run_to_json(run))
    return run, info


@task_kind("compile")
def _compile_task(payload, state: WorkerState):
    """Raw compile for wire clients: source text in, compiled IR out.

    ``payload``: dict with ``text`` (mini-C or IR), ``language``
    (``"kernel"``/``"ir"``), ``config``, ``target``, ``unroll`` and
    ``cache`` (bool), and optionally ``module_name`` (the name mini-C
    lowers into; ``repro compile`` derives it from the file name, wire
    requests leave it out).  Returns a slim JSON document (full reports
    stay worker-side; wire clients want the IR and the headline numbers).
    With ``cache`` and a cache directory, the reply is memoized in
    ``compile-task``: a hit returns the stored reply with ``cached``
    set, and a miss stores exactly the reply it returns.
    """
    store = state.task_store("compile-task") if payload.get("cache", True) else None
    if store is None:
        return _compile_reply(payload)
    key = task_key("compile", payload)
    reply = _lookup(store, key)
    if reply is not None:
        return dict(reply, cached=True)
    reply = _compile_reply(payload)
    store.put(key, reply)
    return reply


def _compile_reply(payload) -> Dict[str, object]:
    """Frontend (or IR parse), compile and print: the ``compile`` reply."""
    from ..ir.printer import print_module
    from ..machine.targets import DEFAULT_TARGET, target_named
    from ..vectorizer.pipeline import compile_module
    from ..vectorizer.slp import config_named

    text = payload["text"]
    if payload.get("language", "kernel") == "ir":
        from ..ir.parser import parse_module
        from ..ir.verifier import verify_module

        # parsed IR is unchecked (lowered mini-C is verified by lowering)
        module = parse_module(text)
        verify_module(module)
    else:
        from ..frontend import compile_source

        module = compile_source(text, payload.get("module_name", "kernelmod"))
    config = config_named(payload.get("config", "SN-SLP"))
    target_name = payload.get("target")
    target = target_named(target_name) if target_name else DEFAULT_TARGET
    result = compile_module(
        module, config, target, unroll_factor=int(payload.get("unroll", 0)),
    )
    graphs = result.report.all_graphs()
    return {
        "module": print_module(result.module),
        "config": config.name,
        "target": target.name,
        "vectorized": sum(1 for g in graphs if g.vectorized),
        "attempted": len(graphs),
        "compile_seconds": result.compile_seconds,
        "cached": False,
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
