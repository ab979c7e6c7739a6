"""``repro chaos``: one seeded fault campaign over compiles and the service.

Each chaos run arms exactly one fault scenario and drives a real
workload through it:

* ``compile`` — fuzz-stream programs compiled through the guarded driver
  (:func:`repro.robust.guard.guarded_compile`) with one compile-pipeline
  (site, mode) armed afresh for each program; every guarded result must
  match the program's scalar reference;
* ``bench``, ``fuzz``, ``socket`` — a bench suite, a fuzz campaign, or a
  socket client session against a
  :class:`~repro.serve.service.CompileService` with one service fault
  armed; the results must be bit-identical to a fault-free baseline.

Every run is classified:

* ``recovered``   — the fault fired and was healed (phase rollback,
  respawn, requeue, wedge kill, retry) with correct results;
* ``degraded``    — results still correct, but work descended a ladder:
  the guard fell back to a weaker configuration
  (``robust.ladder-descents > 0``) or a task ran serially in-process
  (``serve.degraded > 0``);
* ``unexercised`` — the fault never fired, so the run proved nothing;
* ``escaped``     — results diverged, a fired compile fault left no
  recovery record, or a fault/service error reached the chaos driver:
  the resilience contract is broken;
* ``fatal``       — the harness itself blew up (an exception that is
  neither a fault nor a typed service error).

``unexercised``/``escaped``/``fatal`` runs fail the campaign (CLI exit
code 6).  Each lap is built so its fault fires by construction: compile
and fuzz runs fire on their first hit and draw fresh programs each lap
(lap 0 at the campaign seed); bench and socket runs fire on hit
``lap % h``, ``h`` being the number of hits the armed process is sure to
see.  Bench pairs and fuzz chunks are pinned to workers by shard key, so
a campaign replays: every run's status, detail (the fired count) and its
``serve.degraded``, ``serve.retries`` and ``robust.ladder-descents``
counts come out the same at one seed.  Wall times and ``serve.requeued``
(how many tasks sat in a worker's pipe when it died) depend on timing
and do not.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..observe.session import CompilerSession, current_session, use_session
from ..robust.faults import (
    COMPILE_SITES,
    FAULT_SITES,
    WORKER_SIDE_SITES,
    FaultError,
    FaultInjector,
)
from .service import CompileService, ServiceError

#: default bench workload: two small kernels keep a run under a second
DEFAULT_KERNELS: Tuple[str, ...] = ("motiv-leaf-reorder", "motiv-trunk-reorder")

#: programs per compile or fuzz run (a fuzz run is two service chunks at
#: CHUNK_SIZE=8)
DEFAULT_FUZZ_PROGRAMS = 16

#: laps over the scenario table a campaign runs by default
DEFAULT_LAPS = 2

#: requests per socket workload
SOCKET_REQUESTS = 6

#: per-phase wall-clock budget of a compile run's guarded compiles; an
#: armed stall burns 0.25 s, so a stalled phase always blows it
PHASE_BUDGET_SECONDS = 0.2

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

#: counters a run reports and the campaign session aggregates
_COUNTER_PREFIXES = ("serve.", "cache.", "robust.")

#: every run status, in report order
STATUSES = ("recovered", "degraded", "unexercised", "escaped", "fatal")

#: the statuses that fail the campaign
FAILING_STATUSES = ("unexercised", "escaped", "fatal")


@dataclass(frozen=True)
class ChaosScenario:
    """One (fault site, mode, workload) combination the campaign arms."""

    name: str
    site: str
    mode: str
    workload: str  # "compile" | "bench" | "fuzz" | "socket"
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
    """The deterministic scenario table: every compile (site, mode), then
    every service site."""
    compile_scenarios = [
        ChaosScenario(f"{site}:{mode}", site, mode, "compile")
        for site in COMPILE_SITES
        for mode in FAULT_SITES[site].modes
    ]
    return compile_scenarios + [
        ChaosScenario("crash-bench", "serve.worker.crash", "raise", "bench"),
        ChaosScenario("crash-fuzz", "serve.worker.crash", "raise", "fuzz"),
        ChaosScenario("stall-bench", "serve.worker.stall", "stall", "bench"),
        ChaosScenario(
            "task-error-bench", "serve.task.error", "raise", "bench"
        ),
        ChaosScenario("task-error-fuzz", "serve.task.error", "raise", "fuzz"),
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
    status: str  # one of STATUSES
    seconds: float
    detail: str = ""
    #: non-zero serve.*/cache.*/robust.* counters observed during the run
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
        summary = dict.fromkeys(STATUSES, 0)
        for run in self.runs:
            summary[run.status] += 1
        return summary

    @property
    def ok(self) -> bool:
        counts = self.by_status
        return not any(counts[status] for status in FAILING_STATUSES)

    def summary(self) -> str:
        counts = self.by_status
        return (
            f"chaos: {len(self.runs)} run(s) in "
            f"{self.elapsed_seconds:.1f}s: "
            + ", ".join(f"{counts[status]} {status}" for status in STATUSES)
            + (" [ok]" if self.ok else " [FAILED]")
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
            resilient=service is not None,
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
) -> str:
    """Run a count-budget fuzz campaign; fingerprints the visited-program
    count, the failing indices, and every ``fuzz.*`` counter."""
    from ..fuzz.campaign import run_campaign

    result = run_campaign(
        budget=str(programs),
        seed=seed,
        session=session,
        service=service,
        resilient=service is not None,
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

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as sock_dir:
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


def _compile_workload(
    session: CompilerSession,
    site: str,
    mode: str,
    seed: int,
    programs: int,
) -> Tuple[int, Optional[str]]:
    """Compile the first ``programs`` fuzz-stream programs at ``seed``
    through the guarded driver, arming ``site`` once for each.

    Returns (programs whose fault fired, the first escape or None).  An
    escape is a guarded result that strays from the program's scalar
    reference, or a fault that fired with no recovery recorded (a
    detection gap, such as a stall that slipped under the budget).
    Programs whose reference traps are skipped, as the fuzz oracle
    rejects them too.  A stall run stops after its first fired program:
    every further one would only sleep through the same budget again.
    """
    from ..fuzz.campaign import campaign_program
    from ..fuzz.genprog import make_inputs
    from ..fuzz.oracle import first_divergence, interpret_reference
    from ..interp import BudgetExceededError, TrapError
    from ..machine.targets import DEFAULT_TARGET
    from ..robust.guard import guarded_compile
    from ..sim import simulate
    from ..vectorizer.slp import SNSLP_CONFIG

    fired = 0
    for index in range(programs):
        program = campaign_program(seed, index)
        inputs = make_inputs(program.module, input_seed=1)
        try:  # nothing is armed yet: the reference runs clean
            reference = interpret_reference(
                program.module, program.kernel, program.args, inputs
            )
        except (TrapError, BudgetExceededError):
            continue
        plan = session.faults.arm(site, mode, once=True)
        try:
            guarded = guarded_compile(
                program.module,
                SNSLP_CONFIG,
                DEFAULT_TARGET,
                phase_budget_seconds=PHASE_BUDGET_SECONDS,
                session=session,
            )
        finally:
            session.faults.disarm_all()
        if not plan.fired:
            continue
        fired += 1
        if not guarded.recoveries:
            return fired, (
                f"program {index}: fault fired but no recovery was recorded"
            )
        try:
            result = simulate(
                guarded.result.module,
                program.kernel,
                DEFAULT_TARGET,
                program.args,
                inputs=inputs,
                session=session,
            )
        except Exception as exc:  # noqa: BLE001 - not running is an escape
            return fired, (
                f"program {index}: guarded module failed to run: "
                f"{type(exc).__name__}: {exc}"
            )
        divergence = first_divergence(
            program.module, reference, result.globals_after, "guarded"
        )
        if divergence is not None:
            return fired, f"program {index}: {divergence}"
        if mode == "stall":
            break
    return fired, None


def _service_workload(
    session: CompilerSession,
    scenario: ChaosScenario,
    lap: int,
    seed: int,
    kernel_names: Sequence[str],
    fuzz_programs: int,
) -> Tuple[str, int]:
    """Run ``scenario``'s workload against a service with its fault armed.

    Returns (fingerprint, client reconnects).
    """
    from ..vectorizer import ALL_CONFIGS

    # Bench and socket runs fire on hit ``lap % h`` of the ``h`` hits the
    # armed process is sure to see: a kernel's config pairs share its
    # shard key, and the socket server reads every request.  A fuzz run
    # fires on its first hit; its lap draws fresh programs instead.
    sure_hits = {"bench": len(ALL_CONFIGS), "socket": SOCKET_REQUESTS}
    skip = lap % sure_hits.get(scenario.workload, 1)
    plans: List[Tuple[str, str, int, bool]] = []
    # A site reached only after the injected crash fires at once, and the
    # crash takes the lap's skip.
    site_skip = 0 if scenario.with_crash else skip
    if scenario.site in WORKER_SIDE_SITES:
        plans.append((scenario.site, scenario.mode, site_skip, True))
    else:
        session.faults.arm(
            scenario.site, scenario.mode, skip=site_skip, once=True
        )
    if scenario.with_crash:
        plans.append(("serve.worker.crash", "raise", skip, True))

    stall = scenario.mode == "stall"
    cache = (
        tempfile.TemporaryDirectory(prefix="repro-chaos-cache-")
        if scenario.with_cache_dir
        else contextlib.nullcontext()
    )
    with cache as cache_dir, CompileService(
        workers=scenario.workers,
        retries=scenario.retries,
        cache_dir=cache_dir,
        session=session,
        name=f"chaos-{scenario.name}",
        fault_plans=plans,
        stall_budget=0.75 if stall else None,
        fault_stall_seconds=30.0 if stall else None,
    ) as service:
        if scenario.workload == "bench":
            return _bench_workload(session, kernel_names, service), 0
        if scenario.workload == "fuzz":
            return _fuzz_workload(session, seed, fuzz_programs, service), 0
        return _socket_workload(session, service)


# -- the campaign -------------------------------------------------------------------


def _lap_seed(seed: int, lap: int) -> int:
    """The program seed of lap ``lap``: the campaign seed itself on lap 0,
    a fresh draw from it on later laps."""
    from ..kernels.seeding import derive_seed

    return seed if lap == 0 else derive_seed(seed, f"chaos-lap/{lap}")


def _baseline(
    cache: Dict[str, str],
    workload: str,
    seed: int,
    kernel_names: Sequence[str],
    fuzz_programs: int,
) -> str:
    """The fault-free fingerprint a service ``workload`` must match, kept
    in ``cache``.  Bench and fuzz baselines run serial and service-less."""
    key = f"fuzz/{seed}" if workload == "fuzz" else workload
    if key not in cache:
        # A session per baseline: the fuzz fingerprint reads the session's
        # cumulative fuzz.* counters, so a second baseline computed in a
        # shared session would read as a divergence.
        session = CompilerSession(name=f"chaos-baseline:{key}")
        if workload == "bench":
            cache[key] = _bench_workload(session, kernel_names, None)
        elif workload == "fuzz":
            cache[key] = _fuzz_workload(session, seed, fuzz_programs, None)
        else:
            with CompileService(
                workers=2, session=session, name="chaos-baseline"
            ) as service:
                cache[key], _ = _socket_workload(session, service)
    return cache[key]


def _execute_scenario(
    scenario: ChaosScenario,
    repetition: int,
    seed: int,
    baselines: Dict[str, str],
    kernel_names: Sequence[str],
    fuzz_programs: int,
) -> Tuple[str, str, Dict[str, float]]:
    """One armed run on lap ``repetition``.  Returns (status, detail,
    counters).  ``baselines`` caches fault-free fingerprints across runs
    of one (``kernel_names``, ``fuzz_programs``) pair."""
    # Remarks stay disabled: arming them would flip the bench payloads'
    # remark flag relative to the fault-free baseline (remark-armed
    # pairs always run cold), which is exactly the kind of accidental
    # divergence this campaign exists to catch.
    session = CompilerSession(name=f"chaos:{scenario.name}")
    injector = session.faults = FaultInjector()
    programs_seed = _lap_seed(seed, repetition)
    reconnects = 0
    try:
        if scenario.workload == "compile":
            fired, problem = _compile_workload(
                session, scenario.site, scenario.mode, programs_seed,
                fuzz_programs,
            )
        else:
            expected = _baseline(
                baselines, scenario.workload, programs_seed, kernel_names,
                fuzz_programs,
            )
            fingerprint, reconnects = _service_workload(
                session, scenario, repetition, programs_seed, kernel_names,
                fuzz_programs,
            )
            problem = (
                None if fingerprint == expected
                else "results diverged from the fault-free baseline"
            )
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
        if value and name.startswith(_COUNTER_PREFIXES)
    }
    if reconnects:
        counters["client.reconnects"] = float(reconnects)
    if scenario.workload != "compile":
        # Worker-side plans fire in worker *processes*; the parent sees
        # the evidence in the folded counters, not in its own injector.
        evidence = _SITE_EVIDENCE.get(scenario.site)
        if evidence is not None:
            fired = int(counters.get(evidence, 0))
        else:
            fired = sum(plan.fired for plan in injector.armed.values())
    detail = f"fault fired {fired}x" if fired else "fault did not fire"

    if problem is not None:
        return ("escaped", f"{problem} ({detail})", counters)
    if not fired:
        return ("unexercised", detail, counters)
    descents = int(
        counters.get("serve.degraded", 0)
        + counters.get("robust.ladder-descents", 0)
    )
    if descents:
        return (
            "degraded",
            f"{descents} descent(s) down the ladder; {detail}",
            counters,
        )
    return ("recovered", detail, counters)


def run_chaos_campaign(
    budget: Optional[int] = None,
    seed: int = 0,
    kernel_names: Sequence[str] = DEFAULT_KERNELS,
    fuzz_programs: int = DEFAULT_FUZZ_PROGRAMS,
    progress: Optional[Callable[[str], None]] = None,
    session: Optional[CompilerSession] = None,
) -> ChaosResult:
    """Run ``budget`` seeded chaos runs over the scenario table (default:
    :data:`DEFAULT_LAPS` laps of it).

    Scenarios are visited round-robin, so a budget of at least
    ``len(chaos_scenarios())`` covers every compile and service site;
    run ``i`` is on lap ``i // len(chaos_scenarios())``.  Fault-free
    baselines are computed once per workload and lap seed, off the runs'
    clocks.

    Aggregate ``serve.*``/``cache.*``/``robust.*`` counters from every
    run are folded into ``session`` (default: the ambient session), so
    ``--stats`` and ``--metrics-out`` see campaign-wide totals.
    """
    parent = session if session is not None else current_session()
    started = time.perf_counter()
    scenarios = chaos_scenarios()
    if budget is None:
        budget = DEFAULT_LAPS * len(scenarios)

    parent.tracer.log(
        "info", "chaos-start", "chaos campaign started",
        budget=budget, seed=seed, scenarios=len(scenarios),
    )
    baselines: Dict[str, str] = {}
    runs: List[ChaosRun] = []
    for index in range(max(0, budget)):
        scenario = scenarios[index % len(scenarios)]
        repetition = index // len(scenarios)
        if scenario.workload != "compile":
            _baseline(
                baselines, scenario.workload, _lap_seed(seed, repetition),
                kernel_names, fuzz_programs,
            )
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
        if progress is not None:
            progress(
                f"run {index}: {scenario.name} [{scenario.workload}] -> "
                f"{status} ({detail})"
            )
        # Structured twin of the progress line: failing runs are
        # contract violations, so they log above the default threshold.
        parent.tracer.log(
            "error" if status in FAILING_STATUSES else "info",
            "chaos-run", detail,
            run=index, scenario=scenario.name, site=scenario.site,
            workload=scenario.workload, status=status,
            seconds=round(run.seconds, 6),
        )
        for name, value in counters.items():
            if name.startswith(_COUNTER_PREFIXES):
                parent.stats.stat(name).add(value)

    result = ChaosResult(
        seed=seed,
        budget=budget,
        runs=runs,
        elapsed_seconds=time.perf_counter() - started,
    )
    counts = result.by_status
    parent.tracer.log(
        "info", "chaos-done", "chaos campaign finished",
        budget=budget, ok=result.ok,
        unexercised=counts["unexercised"],
        escaped=counts["escaped"] + counts["fatal"],
        elapsed=round(result.elapsed_seconds, 6),
    )
    return result
