"""Budgeted fuzzing campaigns and reproducer replay.

A campaign is a deterministic loop: program seeds derive from the
campaign seed and the program index, so ``--budget 200 --seed 0`` visits
the exact same 200 programs (and produces identical bucket statistics)
on every run.  Time budgets (``30s``, ``2m``) trade that determinism for
wall-clock control — bucket *rates* stay stable, totals depend on the
machine.

Bucket statistics accumulate in a campaign-private
:class:`~repro.observe.session.CompilerSession`: each oracle check runs
in its own derived session, so per-compilation counters never mix with
the campaign's ``fuzz.*`` buckets, and ``CampaignResult.stats`` is the
campaign session's snapshot.

``jobs > 1`` shards a *count* budget across worker processes in chunks
of consecutive indices, through the same batch call the bench driver
uses (:func:`repro.serve.resilience.run_batch`); summaries merge in
index order, so the result — programs visited, bucket statistics,
failure set — is bit-identical to the serial run.  Time budgets stay
serial (their stopping point is wall-clock dependent either way).

Failures become artifact directories::

    <out>/failure-0000/
        original.ir     the generated program that failed
        reduced.ir      the delta-debugged minimal reproducer
        report.json     oracle outcomes for original and reduced modules
        remarks.jsonl   optimization remarks for the failing config

Replay a saved reproducer with ``repro fuzz --replay failure-0000/reduced.ir``.

``repro fuzz --inject`` runs the *injection* campaign instead: every
generated program is compiled through :func:`repro.robust.guard.
guarded_compile` with one deterministic fault armed (cycling through
every (site, mode) combination the registry declares), and the guarded
result must still match the scalar reference.  A fault that produces a
wrong answer **escaped** the guard; one that kills the driver is
**fatal** — either fails the campaign.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..interp import BudgetExceededError, TrapError
from ..ir.module import Module
from ..ir.parser import parse_module
from ..ir.types import FloatType
from ..ir.verifier import verify_module
from ..kernels.seeding import derive_seed
from ..machine.targets import DEFAULT_TARGET, TargetMachine
from ..observe import STAT
from ..observe.session import (
    Capture,
    CompilerSession,
    current_session,
    use_session,
    write_remarks,
)
from ..robust.faults import COMPILE_SITES, FAULT_SITES, current_faults
from ..sim import simulate
from ..vectorizer import ALL_CONFIGS, SLPConfig, compile_module
from ..vectorizer.slp import SNSLP_CONFIG
from .genprog import FuzzProgram, generate_program, make_inputs, random_spec
from .oracle import (
    DEFAULT_MAX_ULPS,
    OracleReport,
    _interpret_reference,
    failure_signature,
    run_oracle,
    values_close,
)
from .reduce import ReductionResult, reduce_module, write_reproducer

# Campaign bucket counters: lazy proxies that resolve into the running
# campaign's session (see module docstring).
_PROGRAMS = STAT("fuzz.programs-generated", "programs generated")
_VECTORIZED = STAT(
    "fuzz.programs-vectorized", "programs vectorized by at least one config"
)
_OK = STAT("fuzz.programs-ok", "programs with all configs equivalent")
_MISMATCHES = STAT("fuzz.mismatches", "scalar/vector output mismatches")
_TRAPS = STAT("fuzz.traps", "programs whose reference run trapped")
_VERIFIER = STAT(
    "fuzz.verifier-failures", "post-vectorization IR verifier failures"
)
_GAPS = STAT("fuzz.interp-gaps", "interpreter gaps (unsupported opcodes)")
_CRASHES = STAT("fuzz.crashes", "compiler crashes")
_BUDGET_BLOWS = STAT(
    "fuzz.budget-exceeded", "compiled modules that blew the step watchdog"
)
_INJECTIONS = STAT("fuzz.injections", "deterministic faults armed")
_INJ_RECOVERED = STAT(
    "fuzz.injected-recovered", "injected faults the guarded driver recovered from"
)
_INJ_UNREACHED = STAT(
    "fuzz.injected-unreached", "armed faults whose site the compile never reached"
)
_INJ_ESCAPED = STAT(
    "fuzz.injected-escaped", "injected faults that corrupted the guarded output"
)
_INJ_FATAL = STAT(
    "fuzz.injected-fatal", "injected faults that killed the guarded driver"
)


def parse_budget(text: str) -> Tuple[str, float]:
    """Parse a budget: a bare integer is a program count, a number with
    an ``s``/``m``/``h`` suffix is a wall-clock duration."""
    match = re.fullmatch(r"\s*(\d+)\s*([smh]?)\s*", str(text))
    if not match:
        raise ValueError(
            f"bad budget {text!r}: expected e.g. '200' (programs) or '30s'"
        )
    amount, unit = int(match.group(1)), match.group(2)
    if not unit:
        return ("count", float(amount))
    scale = {"s": 1.0, "m": 60.0, "h": 3600.0}[unit]
    return ("time", amount * scale)


@dataclass
class FailureArtifact:
    """One failing program and (when reduction ran) its reproducer."""

    index: int
    report: OracleReport
    directory: Optional[str] = None
    reduction: Optional[ReductionResult] = None


@dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    programs: int
    elapsed_seconds: float
    stats: Dict[str, float]
    failures: List[FailureArtifact] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"fuzz campaign: {self.programs} program(s) in "
            f"{self.elapsed_seconds:.1f}s, {len(self.failures)} failure(s)"
        ]
        for name, value in sorted(self.stats.items()):
            lines.append(f"  {name:28s} {value:g}")
        for failure in self.failures:
            where = failure.directory or "(not saved)"
            sig = ", ".join(
                f"{cfg}:{status}"
                for cfg, status in failure_signature(failure.report)
            )
            lines.append(f"  failure #{failure.index}: {sig} -> {where}")
        return "\n".join(lines)


def _bucket(report: OracleReport) -> None:
    """Bump the campaign counters for one oracle report."""
    _PROGRAMS.add()
    if report.reference_trapped:
        _TRAPS.add()
        return
    if report.vectorized:
        _VECTORIZED.add()
    if report.ok:
        _OK.add()
        return
    statuses = {outcome.status for outcome in report.outcomes}
    if "mismatch" in statuses:
        _MISMATCHES.add()
    if "verifier" in statuses:
        _VERIFIER.add()
    if "interp-gap" in statuses:
        _GAPS.add()
    if "crash" in statuses:
        _CRASHES.add()
    if "budget" in statuses:
        _BUDGET_BLOWS.add()


def _reduction_predicate(
    signature: Sequence[Tuple[str, str]],
    kernel: str,
    args: Tuple[int, ...],
    configs: Sequence[SLPConfig],
    target: TargetMachine,
    input_seed: int,
    max_ulps: int,
) -> Callable[[Module], bool]:
    """Build the reducer predicate: the candidate must reproduce at least
    one of the original (config, status) failure pairs."""
    wanted = set(signature)

    def predicate(module: Module) -> bool:
        program = FuzzProgram(spec=None, module=module, kernel=kernel, args=args)
        report = run_oracle(
            program,
            input_seed=input_seed,
            configs=configs,
            target=target,
            max_ulps=max_ulps,
        )
        return bool(wanted & set(failure_signature(report)))

    return predicate


def _write_failure_remarks(
    module: Module,
    config_name: str,
    configs: Sequence[SLPConfig],
    target: TargetMachine,
    path: str,
) -> None:
    """Compile the reproducer under its failing config, dumping its
    remarks as JSONL next to it."""
    config = next((c for c in configs if c.name == config_name), None)
    if config is not None:
        write_remarks(path, lambda: compile_module(module, config, target))


def _save_failure(
    artifact: FailureArtifact,
    out_dir: str,
    configs: Sequence[SLPConfig],
    target: TargetMachine,
    input_seed: int,
    max_ulps: int,
    reduce_failures: bool,
) -> None:
    directory = os.path.join(out_dir, f"failure-{artifact.index:04d}")
    os.makedirs(directory, exist_ok=True)
    artifact.directory = directory
    program = artifact.report.program
    write_reproducer(program.module, os.path.join(directory, "original.ir"))

    signature = failure_signature(artifact.report)
    document: Dict[str, object] = {"original": artifact.report.to_json()}
    reproducer = program.module
    if reduce_failures and signature:
        predicate = _reduction_predicate(
            signature,
            program.kernel,
            program.args,
            configs,
            target,
            input_seed,
            max_ulps,
        )
        artifact.reduction = reduce_module(program.module, predicate)
        reproducer = artifact.reduction.module
        write_reproducer(reproducer, os.path.join(directory, "reduced.ir"))
        document["reduction"] = {
            "instructions_before": artifact.reduction.instructions_before,
            "instructions_after": artifact.reduction.instructions_after,
            "edits_applied": artifact.reduction.edits_applied,
            "candidates_tried": artifact.reduction.candidates_tried,
        }
    if signature:
        _write_failure_remarks(
            reproducer,
            signature[0][0],
            configs,
            target,
            os.path.join(directory, "remarks.jsonl"),
        )
    with open(os.path.join(directory, "report.json"), "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)


#: how many consecutive program indices one parallel worker task covers
CHUNK_SIZE = 8


def _run_index(
    index: int,
    seed: int,
    configs: Sequence[SLPConfig],
    target: TargetMachine,
    input_seed: int,
    max_ulps: int,
) -> Tuple[OracleReport, object]:
    """Generate program ``index`` and run the oracle on it.  Deterministic:
    the serial loop, a chunk worker and a failure re-run all see the same
    program and verdicts.  Does NOT bucket."""
    spec = random_spec(derive_seed(seed, f"campaign-program/{index}"))
    program = generate_program(spec)
    report = run_oracle(
        program,
        input_seed=input_seed,
        configs=configs,
        target=target,
        max_ulps=max_ulps,
    )
    return report, spec


def _program_timer(session: CompilerSession):
    """Times one generated program into ``fuzz.program.seconds``."""
    return session.metrics.timer(
        "fuzz.program.seconds",
        "generate + oracle wall seconds per fuzzed program",
    )


def _campaign_chunk_worker(
    payload: Tuple[Tuple[int, ...], int, Tuple[str, ...], str, int, int, int],
) -> List[Tuple[int, int, Capture, bool]]:
    """Run one chunk of campaign indices in a worker process.

    Returns ``(index, worker pid, capture, failed)`` per index.  Each
    index runs in a fresh session armed with the parent's ``mask``
    (:attr:`~repro.observe.session.CompilerSession.mask`) and timed
    like the serial loop times it; its :class:`~repro.observe.session.
    Capture` goes back for the parent to absorb in index order.  The
    parent re-runs failing indices serially to build artifacts, so
    workers never touch the filesystem.
    """
    from ..machine.targets import target_named
    from ..vectorizer.slp import config_named

    (
        indices, seed, config_names, target_name, input_seed, max_ulps, mask,
    ) = payload
    configs = [config_named(name) for name in config_names]
    target = target_named(target_name)
    summaries = []
    for index in indices:
        session = CompilerSession(name=f"fuzz-worker/{index}")
        session.arm(mask)
        with use_session(session):
            with _program_timer(session):
                report, _ = _run_index(
                    index, seed, configs, target, input_seed, max_ulps
                )
            _bucket(report)
        failed = not report.ok and not report.reference_trapped
        summaries.append((index, os.getpid(), session.capture(), failed))
    return summaries


def run_campaign(
    budget: str = "30s",
    seed: int = 0,
    out_dir: Optional[str] = None,
    configs: Sequence[SLPConfig] = ALL_CONFIGS,
    target: TargetMachine = DEFAULT_TARGET,
    input_seed: int = 1,
    max_ulps: int = DEFAULT_MAX_ULPS,
    reduce_failures: bool = True,
    max_failures: int = 25,
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = None,
    session: Optional[CompilerSession] = None,
    service=None,
    resilient: bool = False,
) -> CampaignResult:
    """Run one fuzzing campaign within ``budget``.

    The campaign stops early once ``max_failures`` distinct failing
    programs have been collected (reduction dominates runtime by then).

    ``jobs > 1`` (or a running compile ``service=``) parallelizes
    *count* budgets across worker processes; the merged result is
    bit-identical to the serial run (see the module docstring).  Time
    budgets always run serial.

    ``resilient=True`` routes service traffic through a
    :class:`~repro.serve.resilience.ResilientExecutor`, so the campaign
    completes with identical results even when the service fails mid-run
    (chunks retry at once, then run serially in-process).
    """
    kind, amount = parse_budget(budget)
    campaign = session if session is not None else current_session().derive(
        name="fuzz-campaign"
    )
    parallel = (jobs is not None and jobs > 1) or service is not None
    if parallel and kind == "count":
        return _run_campaign_parallel(
            campaign,
            int(amount),
            seed,
            out_dir,
            configs,
            target,
            input_seed,
            max_ulps,
            reduce_failures,
            max_failures,
            progress,
            jobs if jobs is not None else 2,
            service=service,
            resilient=resilient,
        )
    failures: List[FailureArtifact] = []
    started = time.perf_counter()
    index = 0
    with use_session(campaign):
        while True:
            if kind == "count" and index >= amount:
                break
            if kind == "time" and time.perf_counter() - started >= amount:
                break
            if len(failures) >= max_failures:
                break
            with _program_timer(campaign):
                report, spec = _run_index(
                    index, seed, configs, target, input_seed, max_ulps
                )
            _bucket(report)
            if not report.ok and not report.reference_trapped:
                artifact = FailureArtifact(index=index, report=report)
                failures.append(artifact)
                if out_dir is not None:
                    _save_failure(
                        artifact,
                        out_dir,
                        configs,
                        target,
                        input_seed,
                        max_ulps,
                        reduce_failures,
                    )
                if progress is not None:
                    progress(
                        f"failure #{index} ({spec.shape}, seed {spec.seed}): "
                        + "; ".join(
                            f"{cfg}:{status}"
                            for cfg, status in failure_signature(report)
                        )
                    )
            index += 1
    elapsed = time.perf_counter() - started
    _gauge_throughput(campaign, index, elapsed)
    return CampaignResult(
        programs=index,
        elapsed_seconds=elapsed,
        stats=campaign.stats.snapshot(),
        failures=failures,
    )


def _gauge_throughput(
    campaign: CompilerSession, programs: int, elapsed: float
) -> None:
    """Record the campaign's programs/second gauge (metrics-armed only)."""
    if campaign.metrics.enabled and elapsed > 0:
        campaign.metrics.gauge(
            "fuzz.programs_per_sec", programs / elapsed,
            description="fuzzed programs per wall second",
        )


def _run_campaign_parallel(
    campaign: CompilerSession,
    count: int,
    seed: int,
    out_dir: Optional[str],
    configs: Sequence[SLPConfig],
    target: TargetMachine,
    input_seed: int,
    max_ulps: int,
    reduce_failures: bool,
    max_failures: int,
    progress: Optional[Callable[[str], None]],
    jobs: int,
    service=None,
    resilient: bool = False,
) -> CampaignResult:
    """Sharded count-budget campaign, merged to match the serial run.

    Chunks of :data:`CHUNK_SIZE` consecutive indices go through
    :func:`repro.serve.resilience.run_batch` (an ephemeral warm pool
    unless the caller passed a running ``service=``); per-index
    summaries are then replayed *in index order* through the same stop
    conditions the serial loop uses, so the visited-program count,
    bucket statistics and failure set are bit-identical regardless of
    ``jobs`` (indices computed beyond the serial stopping point are
    simply discarded).  Failing indices are re-run serially in the
    parent to build reduction artifacts.
    """
    from ..serve.resilience import run_batch

    started = time.perf_counter()
    config_names = tuple(config.name for config in configs)
    chunks = [
        tuple(range(base, min(base + CHUNK_SIZE, count)))
        for base in range(0, count, CHUNK_SIZE)
    ]
    campaign.tracer.log(
        "info", "fuzz-dispatch", "sharded fuzz campaign dispatched",
        chunks=len(chunks), programs=count, jobs=jobs,
        resilient=resilient, owns_service=service is None,
    )
    # A caller's service outlives this call, and its workers may hold
    # state such as armed faults, so there each chunk is pinned to a
    # worker by a shard key naming its index range: a chunk and its
    # retries meet the same worker whatever order results come back in.
    # A pool made for this call balances chunks by load instead.
    tasks = [
        (
            "fuzz-chunk",
            (
                chunk, seed, config_names,
                target.name, input_seed, max_ulps, campaign.mask,
            ),
            None if service is None else f"fuzz-chunk-{chunk[0]}-{chunk[-1]}",
            float(len(chunk) * len(config_names)),
        )
        for chunk in chunks
    ]
    summaries = []
    for chunk_summaries in run_batch(
        tasks, jobs, campaign, service=service, resilient=resilient
    ):
        summaries.extend(chunk_summaries)

    # Serial-equivalent accounting pass, strictly in index order.
    failures: List[FailureArtifact] = []
    programs = 0
    for index, pid, capture, failed in summaries:
        if len(failures) >= max_failures:
            break
        campaign.absorb(capture, pid=pid)
        programs = index + 1
        if not failed:
            continue
        # the capture already holds this index's telemetry: rebuild the
        # report in a throwaway session so nothing is observed twice
        with use_session(CompilerSession("fuzz-rerun", faults=campaign.faults)):
            report, spec = _run_index(
                index, seed, configs, target, input_seed, max_ulps
            )
        artifact = FailureArtifact(index=index, report=report)
        failures.append(artifact)
        if out_dir is not None:
            with use_session(campaign):
                _save_failure(
                    artifact,
                    out_dir,
                    configs,
                    target,
                    input_seed,
                    max_ulps,
                    reduce_failures,
                )
        if progress is not None:
            progress(
                f"failure #{index} ({spec.shape}, seed {spec.seed}): "
                + "; ".join(
                    f"{cfg}:{status}"
                    for cfg, status in failure_signature(report)
                )
            )
    elapsed = time.perf_counter() - started
    _gauge_throughput(campaign, programs, elapsed)
    return CampaignResult(
        programs=programs,
        elapsed_seconds=elapsed,
        stats=campaign.stats.snapshot(),
        failures=failures,
    )


def injection_combos() -> List[Tuple[str, str]]:
    """Every (site, mode) combination reachable from ``compile_module``,
    in registry order — the deterministic cycle the campaign walks."""
    return [
        (name, mode)
        for name in COMPILE_SITES
        for mode in FAULT_SITES[name].modes
    ]


@dataclass
class InjectionOutcome:
    """The verdict for one (program, site, mode) injection."""

    index: int
    site: str
    mode: str
    status: str  # recovered | unreached | escaped | fatal
    detail: str = ""
    recoveries: int = 0
    config_used: str = ""


@dataclass
class InjectionResult:
    """Everything one injection campaign produced."""

    programs: int
    elapsed_seconds: float
    stats: Dict[str, float]
    outcomes: List[InjectionOutcome] = field(default_factory=list)

    @property
    def escapes(self) -> List[InjectionOutcome]:
        return [o for o in self.outcomes if o.status in ("escaped", "fatal")]

    @property
    def ok(self) -> bool:
        return not self.escapes

    def summary(self) -> str:
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        lines = [
            f"injection campaign: {self.programs} program(s) in "
            f"{self.elapsed_seconds:.1f}s, {len(self.escapes)} escape(s)"
        ]
        for status in ("recovered", "unreached", "escaped", "fatal"):
            if status in counts:
                lines.append(f"  {status:10s} {counts[status]}")
        for outcome in self.escapes:
            lines.append(
                f"  escape #{outcome.index}: {outcome.site}:{outcome.mode} "
                f"[{outcome.status}] {outcome.detail}"
            )
        return "\n".join(lines)


def _compare_guarded(
    guarded,
    program: FuzzProgram,
    target: TargetMachine,
    inputs: Dict[str, List],
    reference: Dict[str, List],
    max_ulps: int,
) -> Optional[str]:
    """Run the guarded module and diff it against the scalar reference;
    returns a human-readable divergence, or None when equivalent."""
    try:
        result = simulate(
            guarded.result.module,
            program.kernel,
            target,
            program.args,
            inputs=inputs,
        )
    except Exception as exc:  # noqa: BLE001 - any run failure is an escape
        return f"guarded module failed to run: {type(exc).__name__}: {exc}"
    for name in program.module.globals:
        is_float = isinstance(program.module.globals[name].element, FloatType)
        got = result.globals_after[name]
        for index, (want, have) in enumerate(zip(reference[name], got)):
            if not values_close(have, want, is_float, max_ulps=max_ulps):
                return f"@{name}[{index}]: reference {want!r} vs guarded {have!r}"
    return None


def _inject_one(
    program: FuzzProgram,
    site: str,
    mode: str,
    target: TargetMachine,
    inputs: Dict[str, List],
    reference: Dict[str, List],
    max_ulps: int,
    phase_budget_seconds: float,
    index: int,
) -> InjectionOutcome:
    """Arm one fault, compile through the guarded driver, and classify."""
    from ..robust.guard import guarded_compile

    _INJECTIONS.add()
    faults = current_faults()
    plan = faults.arm(site, mode, once=True)
    guarded = None
    fatal_detail = ""
    try:
        guarded = guarded_compile(
            program.module,
            SNSLP_CONFIG,
            target,
            phase_budget_seconds=phase_budget_seconds,
        )
    except Exception as exc:  # noqa: BLE001 - the guard must never raise
        fatal_detail = f"{type(exc).__name__}: {exc}"
    finally:
        fired = plan.fired
        faults.disarm_all()

    if guarded is None:
        _INJ_FATAL.add()
        return InjectionOutcome(index, site, mode, "fatal", fatal_detail)
    if fired == 0:
        # The compile never visited the site (e.g. nothing was profitable
        # to vectorize); nothing to recover from, nothing to check.
        _INJ_UNREACHED.add()
        return InjectionOutcome(
            index, site, mode, "unreached",
            recoveries=len(guarded.recoveries),
            config_used=guarded.config_used,
        )
    divergence = _compare_guarded(
        guarded, program, target, inputs, reference, max_ulps
    )
    if divergence is None and not guarded.recoveries:
        # Output is fine but the guard never noticed the fault firing —
        # a detection gap (e.g. a stall that slipped under the budget).
        divergence = "fault fired but no recovery was recorded"
    if divergence is not None:
        _INJ_ESCAPED.add()
        return InjectionOutcome(
            index, site, mode, "escaped", divergence,
            recoveries=len(guarded.recoveries),
            config_used=guarded.config_used,
        )
    _INJ_RECOVERED.add()
    return InjectionOutcome(
        index, site, mode, "recovered",
        recoveries=len(guarded.recoveries),
        config_used=guarded.config_used,
    )


def run_injection_campaign(
    budget: str = "15s",
    seed: int = 0,
    target: TargetMachine = DEFAULT_TARGET,
    input_seed: int = 1,
    max_ulps: int = DEFAULT_MAX_ULPS,
    phase_budget_seconds: float = 0.2,
    progress: Optional[Callable[[str], None]] = None,
    session: Optional[CompilerSession] = None,
) -> InjectionResult:
    """Fault-injection campaign: prove the guarded driver absorbs every
    registered compile-time fault without corrupting results.

    Program ``index`` arms combination ``index % len(combos)``, so a
    count budget of ``len(injection_combos())`` (currently 8) covers
    every (site, mode) pair exactly once per cycle.  Always serial:
    arming a fault mutates the session's injector, which parallel shards
    would race on.
    """
    kind, amount = parse_budget(budget)
    campaign = session if session is not None else current_session().derive(
        name="inject-campaign"
    )
    combos = injection_combos()
    outcomes: List[InjectionOutcome] = []
    started = time.perf_counter()
    index = 0
    with use_session(campaign):
        while True:
            if kind == "count" and index >= amount:
                break
            if kind == "time" and time.perf_counter() - started >= amount:
                break
            spec = random_spec(derive_seed(seed, f"inject-program/{index}"))
            program = generate_program(spec)
            site, mode = combos[index % len(combos)]
            index += 1
            _PROGRAMS.add()
            inputs = make_inputs(program.module, input_seed)
            current_faults().disarm_all()  # the reference must run clean
            try:
                reference = _interpret_reference(
                    program.module, program.kernel, program.args, inputs
                )
            except (TrapError, BudgetExceededError):
                _TRAPS.add()
                continue
            with campaign.metrics.timer(
                "fuzz.injection.seconds",
                "guarded compile + diff wall seconds per injection",
            ):
                outcome = _inject_one(
                    program,
                    site,
                    mode,
                    target,
                    inputs,
                    reference,
                    max_ulps,
                    phase_budget_seconds,
                    index - 1,
                )
            outcomes.append(outcome)
            if progress is not None and outcome.status in ("escaped", "fatal"):
                progress(
                    f"escape #{outcome.index} ({site}:{mode}): {outcome.detail}"
                )
    return InjectionResult(
        programs=index,
        elapsed_seconds=time.perf_counter() - started,
        stats=campaign.stats.snapshot(),
        outcomes=outcomes,
    )


def replay_file(
    path: str,
    configs: Sequence[SLPConfig] = ALL_CONFIGS,
    target: TargetMachine = DEFAULT_TARGET,
    input_seed: int = 1,
    max_ulps: int = DEFAULT_MAX_ULPS,
) -> OracleReport:
    """Re-run the oracle on a saved ``.ir`` reproducer."""
    with open(path) as handle:
        module = parse_module(handle.read())
    verify_module(module)
    names = list(module.functions)
    if len(names) != 1:
        raise ValueError(
            f"{path}: expected exactly one kernel, found {names}"
        )
    kernel = names[0]
    args = tuple(0 for _ in module.functions[kernel].arguments)
    program = FuzzProgram(spec=None, module=module, kernel=kernel, args=args)
    return run_oracle(
        program,
        input_seed=input_seed,
        configs=configs,
        target=target,
        max_ulps=max_ulps,
    )
