"""Decision bisection — the repro's ``-opt-bisect-limit``.

Every optional vectorization attempt (store-seed graph, horizontal
reduction, min/max reduction) asks the global :data:`BISECT` gate for
permission before doing any work.  With the gate disabled (the default)
permission is free; with a limit ``n`` armed, only the first ``n``
decisions run and the rest are skipped — exactly LLVM's
``-opt-bisect-limit`` contract.

:func:`run_bisect` drives the gate automatically: given a module and a
badness check (crash / verifier failure / output mismatch against the
scalar interpreter), it counts the total decisions, confirms the failure
reproduces at the full limit and vanishes at limit 0, then binary
searches for the *first faulty decision* — the one whose inclusion flips
the compile from good to bad.  Crash bundles saved by the guarded driver
replay through this to localize which graph went wrong.

This module must stay import-light (no vectorizer imports at module
scope): the vectorizer itself imports :data:`BISECT`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple


class OptBisect:
    """Counts gated decisions; beyond ``limit`` they are vetoed."""

    def __init__(self) -> None:
        self.enabled = False
        self.limit = -1  # -1 = unlimited (but still counting when enabled)
        self.count = 0
        self.decisions: List[str] = []

    def reset(self, limit: int = -1) -> None:
        """Arm (or re-arm) the gate: forget counts, apply ``limit``."""
        self.enabled = True
        self.limit = limit
        self.count = 0
        self.decisions = []

    def disable(self) -> None:
        self.enabled = False
        self.limit = -1

    def should_run(self, description: str) -> bool:
        """One decision point: record it and say whether it may proceed."""
        if not self.enabled:
            return True
        self.count += 1
        self.decisions.append(description)
        return self.limit < 0 or self.count <= self.limit


#: the process-wide gate the vectorizer consults
BISECT = OptBisect()


@dataclass
class BisectResult:
    """Outcome of one automatic bisection run."""

    #: total gated decisions at the full (unlimited) compile
    total_decisions: int
    #: 1-based index of the first decision whose inclusion turns the
    #: compile bad, or None when the failure never reproduced
    first_bad: Optional[int]
    #: description of that decision (when found)
    culprit: str = ""
    #: badness status at the full limit ("ok" when nothing reproduced)
    status: str = "ok"
    #: True when the compile is bad even with every decision vetoed —
    #: the fault lives outside the gated decisions (e.g. in simplify)
    bad_at_zero: bool = False
    #: all decision descriptions from the counting compile
    decisions: List[str] = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"bisect: {self.total_decisions} gated decision(s)"]
        if self.status == "ok":
            lines.append("  failure did not reproduce; nothing to bisect")
        elif self.bad_at_zero:
            lines.append(
                f"  compile is {self.status} even at limit 0: the fault "
                "precedes the vectorizer's gated decisions"
            )
        else:
            lines.append(
                f"  first faulty decision: #{self.first_bad} ({self.status})"
            )
            lines.append(f"  {self.culprit}")
        return "\n".join(lines)


#: check(limit) -> badness status: "ok" or a failure kind
Check = Callable[[int], str]


def bisect_decisions(check: Check, total: int) -> Tuple[Optional[int], str, bool]:
    """Binary search the smallest limit whose last decision is faulty.

    ``check`` must be deterministic.  Returns (first_bad, status,
    bad_at_zero).
    """
    status = check(total)
    if status == "ok":
        return None, "ok", False
    if total == 0 or check(0) != "ok":
        return None, status, True
    lo, hi = 0, total  # invariant: check(lo) == "ok", check(hi) != "ok"
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if check(mid) == "ok":
            lo = mid
        else:
            hi = mid
    return hi, check(hi), False


def run_bisect(
    module,
    config,
    target,
    unroll_factor: int = 0,
    kernel: Optional[str] = None,
    args: Optional[Tuple[int, ...]] = None,
    input_seed: int = 1,
    max_ulps: Optional[int] = None,
) -> BisectResult:
    """Automatically localize the first faulty vectorization decision.

    Badness is judged the same way the fuzzing oracle judges a config:
    crash or verifier failure while compiling, else output mismatch
    against the scalar reference interpreter on deterministic inputs.
    """
    from ..fuzz.genprog import make_inputs
    from ..fuzz.oracle import (
        DEFAULT_MAX_ULPS,
        first_divergence,
        interpret_reference,
    )
    from ..interp.interpreter import TrapError
    from ..ir.verifier import VerificationError
    from ..sim import simulate
    from ..vectorizer import compile_module

    ulps = DEFAULT_MAX_ULPS if max_ulps is None else max_ulps
    names = list(module.functions)
    if kernel is None:
        if len(names) != 1:
            raise ValueError(f"module defines kernels {names}; pick one")
        kernel = names[0]
    if args is None:
        args = tuple(0 for _ in module.functions[kernel].arguments)
    inputs = make_inputs(module, input_seed)

    try:
        reference = interpret_reference(module, kernel, args, inputs)
    except TrapError as exc:
        raise ValueError(f"reference run traps ({exc}); cannot bisect") from exc

    def check(limit: int) -> str:
        BISECT.reset(limit)
        try:
            compiled = compile_module(module, config, target, unroll_factor=unroll_factor)
        except VerificationError:
            return "verifier"
        except Exception:  # noqa: BLE001 - any crash is the badness we hunt
            return "crash"
        finally:
            BISECT.disable()
        try:
            result = simulate(compiled.module, kernel, target, args, inputs=inputs)
        except Exception:  # noqa: BLE001 - runtime divergence counts as bad
            return "mismatch"
        divergence = first_divergence(
            module, reference, result.globals_after, config.name, ulps
        )
        return "ok" if divergence is None else "mismatch"

    # counting compile: unlimited, but swallow crashes (we only need count)
    BISECT.reset(-1)
    try:
        compile_module(module, config, target, unroll_factor=unroll_factor)
    except Exception:  # noqa: BLE001 - the failure itself may fire here
        pass
    total = BISECT.count
    decisions = list(BISECT.decisions)
    BISECT.disable()

    first_bad, status, bad_at_zero = bisect_decisions(check, total)
    culprit = ""
    if first_bad is not None and 0 < first_bad <= len(decisions):
        culprit = decisions[first_bad - 1]
    return BisectResult(
        total_decisions=total,
        first_bad=first_bad,
        culprit=culprit,
        status=status,
        bad_at_zero=bad_at_zero,
        decisions=decisions,
    )
