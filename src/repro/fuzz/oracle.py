"""Differential equivalence oracle: scalar semantics vs every pipeline.

For one program the oracle

1. interprets the *unoptimized* module on the scalar reference
   :class:`~repro.interp.interpreter.Interpreter` — the reference
   semantics;
2. compiles the module under every configuration (O3 / SLP / LSLP /
   SN-SLP), which includes the IR verifier on the post-vectorization
   module;
3. simulates each compiled module on the same deterministic inputs and
   compares every output buffer against the reference with ULP-aware
   float comparison (integers compare exactly);
4. cross-checks the simulator's cycle accounting (finite, positive).

The reference and the simulations run on different engines: simulation
uses the planned :class:`~repro.interp.batched.BatchedInterpreter`, so a
bug in the planned engine shows up as a ``mismatch`` instead of being
shared by both sides of the comparison.

Divergences are classified so campaigns can bucket them:

========== =========================================================
status      meaning
========== =========================================================
ok          outputs match, verifier passed, cycle counts sane
mismatch    outputs differ, or one side trapped and the other did not
trap        the *reference* run trapped (program rejected, not a bug)
verifier    the compiled module failed IR verification
interp-gap  the interpreter lacks support for an emitted opcode
crash       the compiler raised while compiling the module
budget      the compiled module blew the step watchdog (runaway loop)
========== =========================================================

The fast-math pipeline may legitimately reassociate float chains, so
float comparison allows a small ULP distance (reassociation error) while
still catching sign errors, lane swaps and dropped terms, all of which
perturb results by many orders of magnitude more.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..interp import (
    BudgetExceededError,
    Interpreter,
    TrapError,
    UnsupportedOpcodeError,
)
from ..ir.module import Module
from ..ir.types import FloatType
from ..ir.verifier import VerificationError
from ..machine.targets import DEFAULT_TARGET, TargetMachine
from ..observe.session import current_session
from ..sim import simulate
from ..vectorizer import ALL_CONFIGS, SLPConfig, compile_module
from .genprog import FuzzProgram, make_inputs

#: default ULP budget for float comparison: generous enough to absorb
#: fast-math reassociation over deep chains, still ~2e-13 relative —
#: 12 orders of magnitude tighter than any APO sign error
DEFAULT_MAX_ULPS = 4096


def ulp_distance(a: float, b: float) -> int:
    """Distance between two doubles in units of last place.

    Implemented on the lexicographically-ordered integer view of IEEE-754
    doubles (sign-magnitude folded to two's complement), so the distance
    is exact and well-defined across the zero boundary.  NaNs and
    mismatched infinities are infinitely far apart.
    """
    if math.isnan(a) or math.isnan(b):
        return 0 if (math.isnan(a) and math.isnan(b)) else (1 << 62)
    if math.isinf(a) or math.isinf(b):
        return 0 if a == b else (1 << 62)

    def ordered(x: float) -> int:
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)

    return abs(ordered(a) - ordered(b))


def values_close(
    a,
    b,
    is_float: bool,
    max_ulps: int = DEFAULT_MAX_ULPS,
    abs_tol: float = 1e-9,
) -> bool:
    """ULP-aware scalar comparison (exact for integers)."""
    if not is_float:
        return a == b
    if a == b:
        return True
    if math.isclose(a, b, rel_tol=0.0, abs_tol=abs_tol):
        return True
    return ulp_distance(a, b) <= max_ulps


def first_divergence(
    module: Module,
    reference: Dict[str, List],
    got: Dict[str, List],
    label: str,
    max_ulps: int = DEFAULT_MAX_ULPS,
) -> Optional[str]:
    """The first element of any global where ``got`` strays from
    ``reference``, described for a report, or None when all match.

    Every global is compared, not just the declared outputs: a compiled
    module scribbling over an *input* buffer is just as much a bug.
    """
    for name in module.globals:
        is_float = isinstance(module.globals[name].element, FloatType)
        for index, (want, have) in enumerate(zip(reference[name], got[name])):
            if not values_close(have, want, is_float, max_ulps=max_ulps):
                return (
                    f"@{name}[{index}]: reference {want!r} vs "
                    f"{label} {have!r}"
                )
    return None


@dataclass
class ConfigOutcome:
    """The oracle's verdict for one configuration."""

    config: str
    status: str  # ok | mismatch | trap | verifier | interp-gap | crash
    detail: str = ""
    vectorized_graphs: int = 0
    cycles: float = 0.0
    #: this configuration's compile + simulation counter snapshot
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class OracleReport:
    """All configuration outcomes for one program."""

    program: FuzzProgram
    input_seed: int
    reference_trapped: bool = False
    outcomes: List[ConfigOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.reference_trapped and all(o.ok for o in self.outcomes)

    @property
    def vectorized(self) -> bool:
        return any(o.vectorized_graphs > 0 for o in self.outcomes)

    def to_json(self) -> Dict[str, object]:
        return {
            "program": self.program.describe(),
            "input_seed": self.input_seed,
            "reference_trapped": self.reference_trapped,
            "outcomes": [
                {
                    "config": o.config,
                    "status": o.status,
                    "detail": o.detail,
                    "vectorized_graphs": o.vectorized_graphs,
                    "cycles": o.cycles,
                    "counters": o.counters,
                }
                for o in self.outcomes
            ],
        }


def failure_signature(report: OracleReport) -> Tuple[Tuple[str, str], ...]:
    """The (config, status) pairs that failed — the reducer's predicate
    compares signatures so a shrink cannot morph one bug into another."""
    return tuple(
        (o.config, o.status) for o in report.outcomes if not o.ok
    )


def interpret_reference(
    module: Module,
    kernel: str,
    args: Sequence,
    inputs: Dict[str, List],
) -> Dict[str, List]:
    # The scalar interpreter records no counters, so campaign statistics
    # hold only the per-config checks, whichever driver ran them.
    interp = Interpreter(module)
    for name, values in inputs.items():
        interp.write_global(name, values)
    interp.run(kernel, args)
    return {name: interp.read_global(name) for name in module.globals}


def run_oracle(
    program: FuzzProgram,
    input_seed: int = 1,
    configs: Sequence[SLPConfig] = ALL_CONFIGS,
    target: TargetMachine = DEFAULT_TARGET,
    max_ulps: int = DEFAULT_MAX_ULPS,
) -> OracleReport:
    """Differentially test ``program`` under every configuration."""
    module = program.module
    inputs = make_inputs(module, input_seed)
    report = OracleReport(program=program, input_seed=input_seed)

    try:
        reference = interpret_reference(
            module, program.kernel, program.args, inputs
        )
    except TrapError as exc:
        # The scalar program itself traps: not a miscompile, just a
        # program the input convention failed to keep trap-free.
        report.reference_trapped = True
        report.outcomes.append(
            ConfigOutcome("reference", "trap", detail=str(exc))
        )
        return report
    except BudgetExceededError as exc:
        # The scalar program outruns the watchdog: reject it like a trap
        # (the generator produced a runaway, not the compiler).
        report.reference_trapped = True
        report.outcomes.append(
            ConfigOutcome("reference", "budget", detail=str(exc))
        )
        return report

    for config in configs:
        report.outcomes.append(
            _check_config(
                program, config, target, inputs, reference, max_ulps
            )
        )
    return report


def _check_config(
    program: FuzzProgram,
    config: SLPConfig,
    target: TargetMachine,
    inputs: Dict[str, List],
    reference: Dict[str, List],
    max_ulps: int,
) -> ConfigOutcome:
    # A private session per configuration check: the outcome carries its
    # own compile + simulation counter snapshot (replay reports print it).
    session = current_session().derive(name=f"oracle:{config.name}")
    module = program.module
    try:
        compiled = compile_module(module, config, target, session=session)
    except VerificationError as exc:
        return ConfigOutcome(config.name, "verifier", detail=str(exc))
    except Exception as exc:  # noqa: BLE001 - any compiler crash is a finding
        return ConfigOutcome(
            config.name, "crash", detail=f"{type(exc).__name__}: {exc}"
        )
    vectorized = len(compiled.report.vectorized_graphs())

    try:
        result = simulate(
            compiled.module,
            program.kernel,
            target,
            program.args,
            inputs=inputs,
            session=session,
        )
    except UnsupportedOpcodeError as exc:
        return ConfigOutcome(
            config.name,
            "interp-gap",
            detail=str(exc),
            vectorized_graphs=vectorized,
            counters=session.stats.snapshot(),
        )
    except BudgetExceededError as exc:
        # The reference finished within budget, so a compiled module that
        # does not is a semantics change (e.g. a mangled loop latch).
        return ConfigOutcome(
            config.name,
            "budget",
            detail=str(exc),
            vectorized_graphs=vectorized,
            counters=session.stats.snapshot(),
        )
    except TrapError as exc:
        # The reference did not trap, so a trapping compiled module is a
        # semantics change (e.g. a division hoisted past its guard).
        return ConfigOutcome(
            config.name,
            "mismatch",
            detail=f"compiled module trapped: {exc}",
            vectorized_graphs=vectorized,
            counters=session.stats.snapshot(),
        )

    counters = session.stats.snapshot()
    if not (math.isfinite(result.cycles) and result.cycles > 0):
        return ConfigOutcome(
            config.name,
            "mismatch",
            detail=f"implausible cycle count {result.cycles!r}",
            vectorized_graphs=vectorized,
            counters=counters,
        )

    divergence = first_divergence(
        module, reference, result.globals_after, config.name, max_ulps
    )
    return ConfigOutcome(
        config.name,
        "ok" if divergence is None else "mismatch",
        detail=divergence or "",
        vectorized_graphs=vectorized,
        cycles=result.cycles,
        counters=counters,
    )
