"""Cycle-accounting execution: the repro's stand-in for a real CPU.

Runs a function while charging every executed instruction its cost from
the target's :class:`~repro.machine.costmodel.CostModel`.  The resulting
cycle totals play the role of the paper's wall-clock kernel timings:
comparing the same kernel compiled under the O3 / LSLP / SN-SLP
configurations on the same simulated machine gives the normalized
speedups of Figures 5 and 8.

Simulation runs on the planned engine (:mod:`repro.interp.batched`),
which accounts whole pre-decoded block traces at a time.  The scalar
reference :class:`~repro.interp.interpreter.Interpreter` charged through
a per-step :class:`CycleCounter` hook gives bit-identical cycles,
per-opcode charges and buffers; the engine parity tests and the fuzz
oracle hold the planned engine to it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..interp.batched import BatchedInterpreter
from ..ir.instructions import Instruction, Opcode
from ..ir.module import Module
from ..machine.costmodel import instruction_cost
from ..machine.targets import TargetMachine
from ..observe.session import CompilerSession, current_session, use_session


class CycleCounter:
    """Accumulates simulated cycles per executed instruction."""

    def __init__(self, target: TargetMachine) -> None:
        self.target = target
        self.cycles = 0.0
        self.instructions = 0
        self.per_opcode: Dict[Opcode, float] = {}

    def charge(self, inst: Instruction) -> None:
        cost = self._cost_of(inst)
        self.cycles += cost
        self.instructions += 1
        self.per_opcode[inst.opcode] = self.per_opcode.get(inst.opcode, 0.0) + cost

    def _cost_of(self, inst: Instruction) -> float:
        return instruction_cost(self.target.cost_model, inst)


@dataclass
class SimulationResult:
    """Outcome of simulating one function invocation."""

    cycles: float
    instructions: int
    per_opcode: Dict[Opcode, float]
    return_value: object
    globals_after: Dict[str, list] = field(default_factory=dict)

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Speedup of *this* result relative to ``baseline`` (>1 = faster)."""
        if self.cycles == 0:
            return float("inf")
        return baseline.cycles / self.cycles


def simulate(
    module: Module,
    function_name: str,
    target: TargetMachine,
    args: Sequence = (),
    inputs: Optional[Dict[str, Sequence]] = None,
    max_steps: Optional[int] = None,
    session: Optional[CompilerSession] = None,
) -> SimulationResult:
    """Execute ``function_name`` and account cycles on ``target``.

    ``inputs`` seeds global buffers before the run, which keeps workload
    data out of the IR and identical across compiler configurations.
    ``max_steps`` caps executed instructions (the watchdog): exceeding it
    raises :class:`~repro.interp.interpreter.BudgetExceededError` instead
    of letting a malformed loop hang the harness.

    ``sim.*`` counters land in ``session`` when given, else in an
    ephemeral child of the ambient session (the result object itself
    carries cycles/instructions, so nothing is lost by discarding it).
    """
    own = session if session is not None else current_session().derive(
        name=f"simulate:{function_name}"
    )
    interp = BatchedInterpreter(
        module, max_steps=max_steps, cost_model=target.cost_model
    )
    if inputs:
        for name, values in inputs.items():
            interp.write_global(name, values)
    with use_session(own):
        with own.tracer.span(
            "simulate", function=function_name, target=target.name
        ):
            started = time.perf_counter()
            result = interp.run(function_name, args)
            elapsed = time.perf_counter() - started
        own.stats.stat("sim.cycles", "Total simulated cycles").add(interp.cycles)
        own.stats.stat("sim.instructions", "Simulated instructions executed").add(
            interp.instructions
        )
        for opcode, cycles in interp.per_opcode.items():
            own.stats.stat(
                f"sim.cycles.{opcode.name.lower()}",
                "Simulated cycles charged to this opcode",
            ).add(cycles)
        if own.metrics.enabled and elapsed > 0:
            own.metrics.gauge(
                "sim.instructions_per_sec",
                interp.instructions / elapsed,
                "Interpreted instructions per wall-clock second",
            )
    return SimulationResult(
        cycles=interp.cycles,
        instructions=interp.instructions,
        per_opcode=dict(interp.per_opcode),
        return_value=result,
        globals_after={name: interp.read_global(name) for name in module.globals},
    )
