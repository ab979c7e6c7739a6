"""Benchmark runner: compile and simulate kernels under each configuration.

One :class:`KernelRun` captures everything the paper's evaluation plots
need for one (kernel, configuration) pair: simulated cycles, vectorization
statistics and compile time.  ``run_kernel_matrix`` adds the correctness
cross-check: every configuration must produce the same output buffers as
O3 (bit-exact for integer kernels, ULP-close for float kernels where
fast-math reassociation legally perturbs rounding).
"""

from __future__ import annotations

import math
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..ir.module import Module
from ..kernels.suite import Kernel
from ..machine.targets import DEFAULT_TARGET, TargetMachine
from ..observe.explain import summarize_journal
from ..observe.metrics import MetricsRegistry
from ..observe.session import CompilerSession, current_session
from ..observe.trace import DECISION
from ..sim.executor import simulate
from ..vectorizer.pipeline import compile_module
from ..vectorizer.slp import ALL_CONFIGS, O3_CONFIG, SLPConfig

DEFAULT_SEED = 20190216  # CGO 2019 conference date


@dataclass
class KernelRun:
    """Result of one kernel under one configuration."""

    kernel: str
    config: str
    cycles: float
    instructions: int
    vectorized_graphs: int
    attempted_graphs: int
    node_count: int
    aggregate_node_size: int
    average_node_size: float
    compile_seconds: float
    outputs: Dict[str, List]
    correct: Optional[bool] = None  # vs the O3 oracle; None until compared
    #: per-phase compile wall seconds (clone/simplify/[unroll]/vectorize/verify)
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: statistic counters for this (kernel, config): compile + simulation
    counters: Dict[str, float] = field(default_factory=dict)
    #: decision summary (see ``summarize_journal``) when the run was made
    #: with ``journal=True``; None otherwise — the default path records
    #: no decisions, keeping bench results bit-identical
    journal: Optional[Dict[str, object]] = None


def outputs_match(kernel: Kernel, got: Dict[str, List], want: Dict[str, List]) -> bool:
    """Compare output buffers under the kernel's exactness contract: equal
    lists match; otherwise an exact kernel's do not, and an inexact
    kernel's match when they have one length and every element is equal,
    NaN in both, or within 1e-9 (relative or absolute)."""
    for name in kernel.output_globals:
        a, b = got[name], want[name]
        if a == b:
            continue
        if kernel.check_exact or len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            if not math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9):
                return False
    return True


def run_kernel_config(
    kernel: Kernel,
    config: SLPConfig,
    target: TargetMachine = DEFAULT_TARGET,
    seed: int = DEFAULT_SEED,
    session: Optional[CompilerSession] = None,
    journal: bool = False,
) -> KernelRun:
    """Compile ``kernel`` under ``config`` and simulate one invocation.

    One derived session spans the compile and the simulation, so
    ``KernelRun.counters`` holds this pair's compile counters plus the
    simulation cycle histogram — and nothing else.  ``journal=True``
    collects the compile's decisions privately into the run's
    ``journal`` summary (the caller's stream is never touched).
    """
    inputs = kernel.make_inputs(random.Random(seed))
    return _run_built(
        kernel, config, target, kernel.build(), inputs,
        session=session, journal=journal,
    )


def _run_built(
    kernel: Kernel,
    config: SLPConfig,
    target: TargetMachine,
    module: Module,
    inputs: Dict[str, List],
    *,
    session: Optional[CompilerSession] = None,
    journal: bool = False,
) -> KernelRun:
    """:func:`run_kernel_config` on an already built ``module`` and drawn
    ``inputs``.  ``compile_module`` clones ``module`` and ``simulate``
    only reads ``inputs``, so one build and one draw can serve every
    configuration of a kernel."""
    own = session if session is not None else current_session().derive(
        name=f"bench:{kernel.name}/{config.name}"
    )
    with own.tracer.collect(DECISION) if journal else nullcontext() as decisions:
        compiled = compile_module(module, config, target, session=own)
    result = simulate(
        compiled.module,
        kernel.function,
        target,
        [kernel.trip_count],
        inputs=inputs,
        session=own,
    )
    report = compiled.report
    run = KernelRun(
        kernel=kernel.name,
        config=config.name,
        cycles=result.cycles,
        instructions=result.instructions,
        vectorized_graphs=len(report.vectorized_graphs()),
        attempted_graphs=len(report.all_graphs()),
        node_count=report.node_count(vectorized_only=True),
        aggregate_node_size=report.aggregate_node_size(),
        average_node_size=report.average_node_size(),
        compile_seconds=compiled.compile_seconds,
        outputs={name: result.globals_after[name] for name in kernel.output_globals},
        phase_seconds=compiled.phase_seconds,
        counters=own.stats.snapshot(),
        journal=summarize_journal(decisions) if journal else None,
    )
    observe_run(own.metrics, run)
    return run


def observe_run(metrics: MetricsRegistry, run: KernelRun) -> None:
    """Record one run's per-pair histograms (no-op while disarmed); a
    pair replayed from the service's result store records through here
    too, so warm and cold pairs observe the same values."""
    if not metrics.enabled:
        return
    metrics.observe(
        "bench.compile.seconds", run.compile_seconds,
        description="wall compile seconds per (kernel, config) pair",
    )
    metrics.observe(
        "bench.kernel.cycles", run.cycles,
        description="simulated cycles per (kernel, config) pair",
    )
    metrics.observe(
        "bench.kernel.instructions", float(run.instructions),
        description="interpreted instructions per (kernel, config) pair",
    )


def run_kernel_matrix(
    kernel: Kernel,
    configs: Sequence[SLPConfig] = ALL_CONFIGS,
    target: TargetMachine = DEFAULT_TARGET,
    seed: int = DEFAULT_SEED,
    journal: bool = False,
) -> Dict[str, KernelRun]:
    """Run ``kernel`` under every configuration; verify against O3.

    The returned dict is keyed by configuration name and always includes
    an O3 entry (added if absent) because it is the correctness oracle and
    the speedup baseline.
    """
    configs = list(configs)
    if not any(c.name == O3_CONFIG.name for c in configs):
        configs.insert(0, O3_CONFIG)
    module = kernel.build()
    inputs = kernel.make_inputs(random.Random(seed))
    runs = {
        config.name: _run_built(
            kernel, config, target, module, inputs, journal=journal
        )
        for config in configs
    }
    oracle = runs[O3_CONFIG.name]
    for run in runs.values():
        run.correct = outputs_match(kernel, run.outputs, oracle.outputs)
    return runs


def speedup_over(runs: Dict[str, KernelRun], config: str, baseline: str = "O3") -> float:
    """Speedup of ``config`` relative to ``baseline`` (>1 means faster)."""
    return runs[baseline].cycles / runs[config].cycles
