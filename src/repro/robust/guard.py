"""Guarded compilation driver: fault isolation with graceful degradation.

``compile_module`` is all-or-nothing: any bug in the simplify → unroll →
vectorize chain aborts the whole compile.  :func:`guarded_compile` wraps
the same phases in checkpoints so the driver *always* returns runnable,
verified IR:

* every phase runs against a pre-phase snapshot (``clone_module``) under
  an optional wall-clock budget, and the IR verifier gates the result;
* on exception, verifier failure, or budget blowout the module rolls
  back to the snapshot and a structured :class:`RecoveryRecord` (plus a
  ``recovery`` remark and STAT counters) is recorded;
* mid-end phases (simplify/unroll) are *skipped* and the attempt
  continues; a vectorize failure abandons the attempt and the driver
  descends a configurable **degradation ladder**
  (SN-SLP → LSLP → SLP → O3) until a configuration compiles clean;
* if even the last rung fails, the pristine clone of the input module is
  returned (scalar, unoptimized — but runnable).

The first crash-class failure is captured (snapshot + context) so
:mod:`repro.robust.bundle` can write a reduced ``failure-NNNN/`` bundle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.module import Module
from ..ir.printer import print_module
from ..ir.verifier import VerificationError, verify_module
from ..machine.targets import DEFAULT_TARGET, TargetMachine
from ..observe import STAT
from ..observe.session import (
    CompilerSession,
    current_metrics,
    current_session,
    current_stats,
    current_tracer,
    use_session,
)
from ..vectorizer.pipeline import (
    CompilationResult,
    _phase,
    clone_module,
    pipeline_phases,
)
from ..vectorizer.report import VectorizationReport
from ..vectorizer.slp import SLPConfig, SNSLP_CONFIG, config_named

#: default degradation ladder, strongest transform first
DEFAULT_LADDER: Tuple[str, ...] = ("SN-SLP", "LSLP", "SLP", "O3")

_GUARDED = STAT("robust.guarded-compiles", "guarded compilations run")
_RECOVERIES = STAT("robust.recoveries", "phase failures recovered")
_PHASE_SKIPS = STAT("robust.phase-skips", "mid-end phases skipped after rollback")
_DESCENTS = STAT("robust.ladder-descents", "degradation ladder descents")
_BUDGETS = STAT("robust.budget-blowouts", "phase budgets exceeded")
_VERIFIER_ROLLBACKS = STAT(
    "robust.verifier-rollbacks", "post-phase verifier failures rolled back"
)
_EXCEPTION_ROLLBACKS = STAT(
    "robust.exception-rollbacks", "phase exceptions rolled back"
)
_PRISTINE = STAT(
    "robust.pristine-fallbacks", "compiles served by the pristine input clone"
)


@dataclass
class RecoveryRecord:
    """One rolled-back phase failure and what the driver did about it."""

    phase: str
    config: str
    kind: str  # "exception" | "verifier" | "budget"
    action: str  # "skip-phase" | "descend-ladder" | "pristine-fallback"
    detail: str = ""
    seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "phase": self.phase,
            "config": self.config,
            "kind": self.kind,
            "action": self.action,
            "detail": self.detail,
            "seconds": self.seconds,
        }


@dataclass
class CrashCapture:
    """Context of the first crash-class failure, for bundle writing."""

    config: str
    phase: str
    kind: str  # "exception" | "verifier"
    detail: str
    #: textual IR of the module as it entered the failing phase
    snapshot_text: str


@dataclass
class GuardedResult:
    """Outcome of one guarded compilation — always runnable IR."""

    result: CompilationResult
    requested_config: str
    config_used: str
    recoveries: List[RecoveryRecord] = field(default_factory=list)
    crash: Optional[CrashCapture] = None
    bundle_dir: Optional[str] = None

    @property
    def degraded(self) -> bool:
        return self.config_used != self.requested_config

    @property
    def recovered(self) -> bool:
        return bool(self.recoveries)

    def summary(self) -> str:
        lines = [
            f"guarded compile: requested {self.requested_config}, "
            f"used {self.config_used}"
            + (" (degraded)" if self.degraded else "")
        ]
        for rec in self.recoveries:
            lines.append(
                f"  recovery[{rec.config}/{rec.phase}] {rec.kind} -> "
                f"{rec.action}: {rec.detail}"
            )
        if self.bundle_dir:
            lines.append(f"  crash bundle: {self.bundle_dir}")
        return "\n".join(lines)


def resolve_ladder(
    requested: SLPConfig, ladder: Optional[Sequence[str]] = None
) -> List[SLPConfig]:
    """The rungs to try: ``requested`` first, then every strictly weaker
    rung of ``ladder`` (default :data:`DEFAULT_LADDER`)."""
    names = list(ladder) if ladder is not None else list(DEFAULT_LADDER)
    configs = [config_named(name) for name in names]
    if any(c.name == requested.name for c in configs):
        index = next(
            i for i, c in enumerate(configs) if c.name == requested.name
        )
        return configs[index:]
    return [requested] + configs


class _AttemptFailed(Exception):
    """Internal: this ladder rung could not produce verified IR."""


def _classify(exc: BaseException) -> Tuple[str, str]:
    if isinstance(exc, VerificationError):
        return "verifier", str(exc)
    return "exception", f"{type(exc).__name__}: {exc}"


def guarded_compile(
    module: Module,
    config: SLPConfig = SNSLP_CONFIG,
    target: TargetMachine = DEFAULT_TARGET,
    unroll_factor: int = 0,
    ladder: Optional[Sequence[str]] = None,
    phase_budget_seconds: Optional[float] = None,
    bundle_dir: Optional[str] = None,
    reduce_bundle: bool = True,
    session: Optional[CompilerSession] = None,
) -> GuardedResult:
    """Compile ``module`` under ``config``, degrading instead of dying.

    Mirrors :func:`repro.vectorizer.pipeline.compile_module` (same
    phases, timings, counters) but never raises for in-pipeline faults:
    the returned :class:`GuardedResult` always holds verified IR, at
    worst the pristine scalar clone of the input.

    Runs in ``session`` when given, else in an ephemeral fresh-stats
    child of the ambient session, so ``result.counters`` is exactly this
    guarded compile's counters (including the ``robust.*`` recovery
    counters) and nothing bleeds into other compilations.  Faults armed
    on the ambient session's injector stay armed inside: derived
    sessions share their parent's injector.
    """
    own = session if session is not None else current_session().derive(
        name=f"guard:{config.name}"
    )
    with use_session(own):
        return _guarded_compile_in_session(
            module,
            config,
            target,
            unroll_factor,
            ladder,
            phase_budget_seconds,
            bundle_dir,
            reduce_bundle,
        )


def _guarded_compile_in_session(
    module: Module,
    config: SLPConfig,
    target: TargetMachine,
    unroll_factor: int,
    ladder: Optional[Sequence[str]],
    phase_budget_seconds: Optional[float],
    bundle_dir: Optional[str],
    reduce_bundle: bool,
) -> GuardedResult:
    _GUARDED.add()
    guard_timer = current_metrics().timer(
        "guard.compile.seconds", "wall seconds per guarded compilation"
    )
    with guard_timer:
        return _run_guarded_ladder(
            module, config, target, unroll_factor, ladder,
            phase_budget_seconds, bundle_dir, reduce_bundle,
        )


def _run_guarded_ladder(
    module: Module,
    config: SLPConfig,
    target: TargetMachine,
    unroll_factor: int,
    ladder: Optional[Sequence[str]],
    phase_budget_seconds: Optional[float],
    bundle_dir: Optional[str],
    reduce_bundle: bool,
) -> GuardedResult:
    outcome = GuardedResult(
        result=None,  # type: ignore[arg-type]  # filled below, always
        requested_config=config.name,
        config_used=config.name,
    )

    for rung in resolve_ladder(config, ladder):
        attempt = _attempt_config(
            module, rung, target, unroll_factor, phase_budget_seconds, outcome
        )
        if attempt is not None:
            outcome.result = attempt
            outcome.config_used = rung.name
            break
    else:
        # Every rung failed: serve the pristine clone.  It verified on
        # the way in (clone is a parse/verify round-trip by construction
        # of the textual format), so this cannot fail.
        phases: Dict[str, float] = {}
        with _phase("clone", phases):
            working = clone_module(module)
        with _phase("verify", phases):
            verify_module(working)
        _PRISTINE.add()
        _record(
            outcome,
            RecoveryRecord(
                phase="pipeline",
                config=config.name,
                kind="exception",
                action="pristine-fallback",
                detail="degradation ladder exhausted; returning input clone",
            ),
        )
        outcome.result = CompilationResult(
            module=working,
            report=VectorizationReport(config_name="pristine"),
            compile_seconds=sum(phases.values()),
            phase_seconds=phases,
            counters=current_stats().snapshot(),
        )
        outcome.config_used = "pristine"

    if bundle_dir is not None and outcome.crash is not None:
        from .bundle import write_crash_bundle

        outcome.bundle_dir = write_crash_bundle(
            bundle_dir,
            module,
            outcome,
            target=target,
            unroll_factor=unroll_factor,
            reduce_failure=reduce_bundle,
        )
    return outcome


def _attempt_config(
    module: Module,
    config: SLPConfig,
    target: TargetMachine,
    unroll_factor: int,
    budget: Optional[float],
    outcome: GuardedResult,
) -> Optional[CompilationResult]:
    """One checkpointed pass over the pipeline under ``config``.

    Returns the result, or None when the vectorize phase failed and the
    caller should descend the ladder.
    """
    phases: Dict[str, float] = {}
    report: Optional[VectorizationReport] = None
    try:
        with _phase("clone", phases):
            working = clone_module(module)
    except Exception as exc:  # noqa: BLE001 - even the clone is guarded
        kind, detail = _classify(exc)
        _record_failure(outcome, config, "clone", kind, detail, 0.0, "descend-ladder")
        return None

    for name, fn in pipeline_phases(config, target, unroll_factor):
        snapshot = clone_module(working)
        started = time.perf_counter()
        failure: Optional[Tuple[str, str]] = None
        try:
            with _phase(name, phases):
                out = fn(working)
            elapsed = time.perf_counter() - started
            if budget is not None and elapsed > budget:
                failure = (
                    "budget",
                    f"phase ran {elapsed:.3f}s, budget {budget:g}s",
                )
            else:
                # the verify gate: a phase may only commit verified IR
                verify_module(working)
                if name == "vectorize":
                    report = out
        except Exception as exc:  # noqa: BLE001 - isolate any phase fault
            failure = _classify(exc)
        if failure is None:
            continue

        kind, detail = failure
        seconds = time.perf_counter() - started
        if kind != "budget" and outcome.crash is None:
            outcome.crash = CrashCapture(
                config=config.name,
                phase=name,
                kind=kind,
                detail=detail,
                snapshot_text=print_module(snapshot),
            )
        working = snapshot  # roll back to the pre-phase checkpoint
        if name == "vectorize":
            _record_failure(
                outcome, config, name, kind, detail, seconds, "descend-ladder"
            )
            return None
        _record_failure(outcome, config, name, kind, detail, seconds, "skip-phase")

    with _phase("verify", phases):
        verify_module(working)  # cannot fail: `working` is a verified state
    if report is None:
        report = VectorizationReport(config_name=config.name)
    return CompilationResult(
        module=working,
        report=report,
        compile_seconds=sum(phases.values()),
        phase_seconds=phases,
        counters=current_stats().snapshot(),
    )


def _record_failure(
    outcome: GuardedResult,
    config: SLPConfig,
    phase: str,
    kind: str,
    detail: str,
    seconds: float,
    action: str,
) -> None:
    record = RecoveryRecord(
        phase=phase,
        config=config.name,
        kind=kind,
        action=action,
        detail=detail,
        seconds=seconds,
    )
    if kind == "budget":
        _BUDGETS.add()
    elif kind == "verifier":
        _VERIFIER_ROLLBACKS.add()
    else:
        _EXCEPTION_ROLLBACKS.add()
    current_metrics().observe(
        "guard.recovery.seconds", seconds,
        description="wall seconds lost to a rolled-back phase",
    )
    if action == "skip-phase":
        _PHASE_SKIPS.add()
    elif action == "descend-ladder":
        _DESCENTS.add()
    _record(outcome, record)


def _record(outcome: GuardedResult, record: RecoveryRecord) -> None:
    _RECOVERIES.add()
    outcome.recoveries.append(record)
    current_tracer().remark(
        "recovery", "guard",
        f"{record.kind} in phase {record.phase} under {record.config}: "
        f"rolled back, {record.action}",
        phase=record.phase,
        config=record.config,
        fault_kind=record.kind,
        action=record.action,
        detail=record.detail,
    )
