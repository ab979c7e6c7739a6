"""``repro chaos``: seeded service-fault campaigns over real traffic.

The compile-service analogue of ``repro fuzz --inject``: each chaos run
drives a real workload (a bench suite, a fuzz campaign, or a socket
client session) against a :class:`~repro.serve.service.CompileService`
with exactly one service fault scenario armed, then classifies what
happened:

* ``recovered`` — the service healed itself (respawn, requeue, wedge
  kill, retry) and the results are bit-identical to the fault-free
  baseline with no degradation-ladder descent;
* ``degraded``  — results are still bit-identical, but at least one task
  fell down the resilience ladder (``serve.degraded > 0``);
* ``escaped``   — the run completed but its results diverge from the
  baseline, or a fault/service error reached the chaos driver: the
  resilience contract is broken;
* ``fatal``     — the harness itself blew up (an exception that is
  neither a fault nor a typed service error).

``escaped``/``fatal`` runs fail the campaign (CLI exit code 6).
Everything is seeded: scenarios are enumerated deterministically,
repetitions shift the fault's ``skip`` so later hits fire, the
resilience policy's backoff jitter derives from the same seed, and bench
pairs and fuzz chunks are pinned to workers by shard key.  A campaign
therefore replays: every run's status and its ``serve.degraded`` and
``serve.retries`` counts come out the same at one seed.  Wall times and
``serve.requeued`` (how many tasks sat in a worker's pipe when it died)
depend on timing and do not.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..observe.session import CompilerSession, current_session, use_session
from ..robust.faults import FAULT_SITES, FaultError, FaultInjector, WORKER_SIDE_SITES
from .resilience import ResiliencePolicy
from .service import CompileService, ServiceError

#: default bench workload: two small kernels keep a run under a second
DEFAULT_KERNELS: Tuple[str, ...] = ("motiv-leaf-reorder", "motiv-trunk-reorder")

#: programs per fuzz workload (two service chunks at CHUNK_SIZE=8)
DEFAULT_FUZZ_PROGRAMS = 16

#: requests per socket workload
SOCKET_REQUESTS = 6

#: counter that witnesses a worker-side fault actually fired (the plan
#: state lives in the worker process; the parent sees only the fallout:
#: a scribbled cache entry, for one, is read back as a corrupt entry)
_SITE_EVIDENCE: Dict[str, str] = {
    "serve.worker.crash": "serve.worker_crashes",
    "serve.worker.stall": "serve.wedged_workers",
    "serve.task.error": "serve.errors",
    "serve.pipe.frame": "serve.bad_frames",
    "serve.cache.entry": "cache.corrupt_entries",
}


@dataclass(frozen=True)
class ChaosScenario:
    """One (fault site, mode, workload) combination the campaign arms."""

    name: str
    site: str
    mode: str
    workload: str  # "bench" | "fuzz" | "socket"
    #: also arm a one-shot worker crash (sites like ``serve.respawn``
    #: only fire while handling a dead worker)
    with_crash: bool = False
    #: service worker slots; 1 + retries=0 forces the defunct path
    workers: int = 2
    retries: int = 1
    #: give the service a shared cache directory (``serve.cache.entry``
    #: only fires inside ``SharedJsonStore.get``)
    with_cache_dir: bool = False


def chaos_scenarios() -> List[ChaosScenario]:
    """The deterministic scenario matrix, covering every service site."""
    return [
        ChaosScenario(
            "crash-bench", "serve.worker.crash", "raise", "bench"
        ),
        ChaosScenario(
            "crash-fuzz", "serve.worker.crash", "raise", "fuzz"
        ),
        ChaosScenario(
            "stall-bench", "serve.worker.stall", "stall", "bench"
        ),
        ChaosScenario(
            "task-error-bench", "serve.task.error", "raise", "bench"
        ),
        ChaosScenario(
            "task-error-fuzz", "serve.task.error", "raise", "fuzz"
        ),
        ChaosScenario(
            "pipe-frame-bench", "serve.pipe.frame", "corrupt", "bench"
        ),
        ChaosScenario(
            "cache-entry-bench", "serve.cache.entry", "corrupt", "bench",
            with_cache_dir=True,
        ),
        ChaosScenario(
            "socket-disconnect", "serve.socket.disconnect", "raise", "socket"
        ),
        ChaosScenario(
            "respawn-fail-bench", "serve.respawn", "raise", "bench",
            with_crash=True, workers=1, retries=0,
        ),
        ChaosScenario(
            "respawn-fail-fuzz", "serve.respawn", "raise", "fuzz",
            with_crash=True, workers=1, retries=0,
        ),
    ]


@dataclass
class ChaosRun:
    """Outcome of one chaos run."""

    index: int
    scenario: str
    site: str
    mode: str
    workload: str
    status: str  # recovered | degraded | escaped | fatal
    seconds: float
    detail: str = ""
    #: non-zero serve.*/cache.* counters observed during the run
    counters: Dict[str, float] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "scenario": self.scenario,
            "site": self.site,
            "mode": self.mode,
            "workload": self.workload,
            "status": self.status,
            "seconds": round(self.seconds, 4),
            "detail": self.detail,
            "counters": self.counters,
        }


@dataclass
class ChaosResult:
    """Every run of one campaign plus the pass/fail verdict."""

    seed: int
    budget: int
    runs: List[ChaosRun]
    elapsed_seconds: float

    @property
    def by_status(self) -> Dict[str, int]:
        summary = {"recovered": 0, "degraded": 0, "escaped": 0, "fatal": 0}
        for run in self.runs:
            summary[run.status] = summary.get(run.status, 0) + 1
        return summary

    @property
    def ok(self) -> bool:
        counts = self.by_status
        return counts["escaped"] == 0 and counts["fatal"] == 0

    def summary(self) -> str:
        counts = self.by_status
        status = "ok" if self.ok else "FAILED"
        return (
            f"chaos: {len(self.runs)} run(s) in "
            f"{self.elapsed_seconds:.1f}s: "
            f"{counts['recovered']} recovered, "
            f"{counts['degraded']} degraded, "
            f"{counts['escaped']} escaped, "
            f"{counts['fatal']} fatal [{status}]"
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "summary": self.by_status,
            "ok": self.ok,
            "runs": [run.to_json() for run in self.runs],
        }


# -- workloads ----------------------------------------------------------------------


def _fingerprint(document: object) -> str:
    return hashlib.sha256(
        json.dumps(document, sort_keys=True, default=repr).encode("utf-8")
    ).hexdigest()


def _bench_workload(
    session: CompilerSession,
    kernel_names: Sequence[str],
    service: Optional[CompileService],
    policy: Optional[ResiliencePolicy],
) -> str:
    """Run the bench suite; returns a fingerprint of every deterministic
    field (cycles, instruction counts, counters, outputs)."""
    from ..bench.parallel import run_suite_parallel
    from ..kernels.suite import kernel_named

    kernels = [kernel_named(name) for name in kernel_names]
    with use_session(session):
        suite = run_suite_parallel(
            kernels,
            jobs=1 if service is None else 2,
            service=service,
            resilience=policy,
        )
    flat = {
        f"{kernel}/{config}": {
            "cycles": run.cycles,
            "instructions": run.instructions,
            "vectorized_graphs": run.vectorized_graphs,
            "correct": run.correct,
            "counters": run.counters,
            "outputs": run.outputs,
        }
        for kernel, per_config in suite.items()
        for config, run in per_config.items()
    }
    return _fingerprint(flat)


def _fuzz_workload(
    session: CompilerSession,
    seed: int,
    programs: int,
    service: Optional[CompileService],
    policy: Optional[ResiliencePolicy],
) -> str:
    """Run a count-budget fuzz campaign; fingerprints the visited-program
    count, the failing indices, and every ``fuzz.*`` counter."""
    from ..fuzz.campaign import run_campaign

    result = run_campaign(
        budget=str(programs),
        seed=seed,
        session=session,
        service=service,
        resilience=policy,
        reduce_failures=False,
        jobs=None if service is None else 2,
    )
    return _fingerprint({
        "programs": result.programs,
        "failures": [artifact.index for artifact in result.failures],
        "stats": {
            name: value
            for name, value in sorted(result.stats.items())
            if name.startswith("fuzz.")
        },
    })


def _socket_workload(
    session: CompilerSession,
    service: CompileService,
) -> Tuple[str, int]:
    """Drive ping + bench requests through an AF_UNIX socket client.

    Returns (fingerprint, client reconnects).  The server thread fires
    ``serve.socket.disconnect`` through the service session's injector;
    the client's reconnect-and-resend keeps the responses identical.
    """
    from .wire import ServiceClient, SocketServer

    sock_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    path = os.path.join(sock_dir, "serve.sock")
    server = SocketServer(service, path)
    thread = threading.Thread(
        target=server.serve_forever, name="chaos-socket", daemon=True
    )
    thread.start()
    try:
        with ServiceClient(path, max_reconnects=2) as client:
            docs = [{"kind": "ping"} for _ in range(SOCKET_REQUESTS - 1)]
            docs.append({
                "kind": "bench", "kernel": DEFAULT_KERNELS[0],
                "config": "SN-SLP",
            })
            responses = client.batch(docs)
            reconnects = client.reconnects
    finally:
        server.request_shutdown()
        thread.join(timeout=10.0)
    witness = [
        {
            "ok": response.get("ok"),
            "cycles": (
                response.get("result", {}).get("run", {}).get("cycles")
                if isinstance(response.get("result"), dict)
                and "run" in response.get("result", {})
                else None
            ),
            "error": (
                response.get("error", {}).get("type")
                if not response.get("ok")
                else None
            ),
        }
        for response in responses
    ]
    return _fingerprint(witness), reconnects


# -- the campaign -------------------------------------------------------------------


def _chaos_policy(seed: int) -> ResiliencePolicy:
    """Fast-recovery knobs: chaos runs many scenarios, so backoffs and
    breaker cooldowns are shrunk to keep the campaign seconds-scale."""
    return ResiliencePolicy(
        seed=seed,
        max_retries=2,
        backoff_base_seconds=0.005,
        backoff_max_seconds=0.05,
        breaker_failures=2,
        breaker_cooldown_seconds=0.2,
    )


def _execute_scenario(
    scenario: ChaosScenario,
    repetition: int,
    seed: int,
    baselines: Dict[str, str],
    kernel_names: Sequence[str],
    fuzz_programs: int,
) -> Tuple[str, str, Dict[str, float]]:
    """One armed run.  Returns (status, detail, counters)."""
    # Remarks stay disabled: arming them would flip the bench payloads'
    # remark flag relative to the fault-free baseline (remark-armed
    # pairs always run cold), which is exactly the kind of accidental
    # divergence this campaign exists to catch.
    session = CompilerSession(name=f"chaos:{scenario.name}")
    injector = FaultInjector()
    session.faults = injector
    # Repetitions shift which hit fires, so re-visiting a scenario
    # exercises a different task/request instead of replaying run 0.
    skip = repetition

    plans: List[Tuple[str, str, int, bool]] = []
    if scenario.site in WORKER_SIDE_SITES:
        plans.append((scenario.site, scenario.mode, skip, True))
    else:
        injector.arm(scenario.site, scenario.mode, skip=skip, once=True)
    if scenario.with_crash:
        plans.append(("serve.worker.crash", "raise", skip, True))

    cache_dir = (
        tempfile.mkdtemp(prefix="repro-chaos-cache-")
        if scenario.with_cache_dir
        else None
    )
    policy = _chaos_policy(seed)
    stall = scenario.mode == "stall"
    service = CompileService(
        workers=scenario.workers,
        retries=scenario.retries,
        cache_dir=cache_dir,
        session=session,
        name=f"chaos-{scenario.name}",
        fault_plans=plans,
        heartbeat_interval=0.1,
        stall_budget=0.75 if stall else None,
        fault_stall_seconds=30.0 if stall else None,
    )
    reconnects = 0
    try:
        with service:
            if scenario.workload == "bench":
                fingerprint = _bench_workload(
                    session, kernel_names, service, policy
                )
            elif scenario.workload == "fuzz":
                fingerprint = _fuzz_workload(
                    session, seed, fuzz_programs, service, policy
                )
            else:
                fingerprint, reconnects = _socket_workload(session, service)
    except (FaultError, ServiceError) as exc:
        return (
            "escaped",
            f"{type(exc).__name__} reached the chaos driver: {exc}",
            {},
        )
    except Exception as exc:  # noqa: BLE001 - the harness itself broke
        return ("fatal", f"{type(exc).__name__}: {exc}", {})

    counters = {
        name: value
        for name, value in sorted(session.stats.snapshot().items())
        if value
        and (name.startswith("serve.") or name.startswith("cache."))
    }
    if reconnects:
        counters["client.reconnects"] = float(reconnects)
    # Worker-side plans fire in worker *processes*; the parent sees the
    # evidence in the folded counters, not in its own injector.
    evidence = _SITE_EVIDENCE.get(scenario.site)
    if evidence is not None:
        fired = int(counters.get(evidence, 0))
    else:
        fired = sum(plan.fired for plan in injector.armed.values())
    detail = f"fault fired {fired}x" if fired else "fault did not fire"

    if fingerprint != baselines[scenario.workload]:
        return (
            "escaped",
            f"results diverged from the fault-free baseline ({detail})",
            counters,
        )
    if counters.get("serve.degraded", 0):
        descents = int(counters["serve.degraded"])
        return (
            "degraded",
            f"{descents} task(s) descended the ladder; {detail}",
            counters,
        )
    return ("recovered", detail, counters)


def run_chaos_campaign(
    budget: int = 20,
    seed: int = 0,
    kernel_names: Sequence[str] = DEFAULT_KERNELS,
    fuzz_programs: int = DEFAULT_FUZZ_PROGRAMS,
    progress: Optional[Callable[[str], None]] = None,
    session: Optional[CompilerSession] = None,
) -> ChaosResult:
    """Run ``budget`` seeded chaos runs over the scenario matrix.

    Scenarios are visited round-robin (a budget of at least
    ``len(chaos_scenarios())`` covers every service site); repetition
    ``r`` of a scenario arms the fault with ``skip=r`` so a later hit
    fires.  Fault-free baselines are computed once per workload, serial
    and service-less — the ground truth every armed run must match.

    Aggregate ``serve.*``/``cache.*`` counters from every run are folded
    into ``session`` (default: the ambient session), so ``--stats`` and
    ``--metrics-out`` see ``serve.degraded``/``serve.retries`` totals
    for the whole campaign.
    """
    parent = session if session is not None else current_session()
    started = time.perf_counter()
    scenarios = chaos_scenarios()

    def note(line: str) -> None:
        if progress is not None:
            progress(line)

    note("computing fault-free baselines (bench, fuzz, socket)")
    parent.tracer.log(
        "info", "chaos-start", "chaos campaign started",
        budget=budget, seed=seed, scenarios=len(scenarios),
    )
    baseline_session = CompilerSession(name="chaos-baseline")
    baselines = {
        "bench": _bench_workload(baseline_session, kernel_names, None, None),
        "fuzz": _fuzz_workload(
            baseline_session, seed, fuzz_programs, None, None
        ),
    }
    socket_session = CompilerSession(name="chaos-baseline-socket")
    with CompileService(
        workers=2, session=socket_session, name="chaos-baseline"
    ) as baseline_service:
        baselines["socket"], _ = _socket_workload(
            socket_session, baseline_service
        )

    runs: List[ChaosRun] = []
    for index in range(max(0, budget)):
        scenario = scenarios[index % len(scenarios)]
        repetition = index // len(scenarios)
        run_started = time.perf_counter()
        status, detail, counters = _execute_scenario(
            scenario, repetition, seed, baselines, kernel_names,
            fuzz_programs,
        )
        run = ChaosRun(
            index=index,
            scenario=scenario.name,
            site=scenario.site,
            mode=scenario.mode,
            workload=scenario.workload,
            status=status,
            seconds=time.perf_counter() - run_started,
            detail=detail,
            counters=counters,
        )
        runs.append(run)
        note(
            f"run {index}: {scenario.name} [{scenario.workload}] -> "
            f"{status} ({detail})"
        )
        # Structured twin of the progress line: escaped/fatal runs are
        # contract violations, so they log above the default threshold.
        parent.tracer.log(
            "error" if status in ("escaped", "fatal") else "info",
            "chaos-run", detail,
            run=index, scenario=scenario.name, site=scenario.site,
            workload=scenario.workload, status=status,
            seconds=round(run.seconds, 6),
        )
        for name, value in counters.items():
            if name.startswith(("serve.", "cache.")):
                parent.stats.stat(name).add(value)

    result = ChaosResult(
        seed=seed,
        budget=budget,
        runs=runs,
        elapsed_seconds=time.perf_counter() - started,
    )
    parent.tracer.log(
        "info", "chaos-done", "chaos campaign finished",
        budget=budget, ok=result.ok,
        escaped=result.by_status["escaped"] + result.by_status["fatal"],
        elapsed=round(result.elapsed_seconds, 6),
    )
    return result
