"""Compilation- and execution-time measurement (Figure 11's protocol).

The paper measures wall compilation time for each kernel under each
configuration, reporting the mean of 10 runs after a warm-up.  Here
"compilation" is the full pipeline run: module clone, vectorizer, DCE and
verification — the analogue of invoking clang on a kernel.

:func:`interpreter_throughput` measures the *execution* tier instead:
engine-only interpreted-instructions/sec over the kernel suite, the
number behind the ``sim.instructions_per_sec`` gauge.  Timing the scalar
reference :class:`~repro.interp.interpreter.Interpreter` and the planned
:class:`~repro.interp.batched.BatchedInterpreter` gives the engine
speedup.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, Optional, Sequence, Tuple

from ..interp import BatchedInterpreter
from ..kernels.suite import Kernel
from ..machine.targets import DEFAULT_TARGET, TargetMachine
from ..sim.stats import RunStats, summarize
from ..vectorizer.pipeline import compile_module
from ..vectorizer.slp import LSLP_CONFIG, O3_CONFIG, SLPConfig, SNSLP_CONFIG

TIMED_CONFIGS = (O3_CONFIG, LSLP_CONFIG, SNSLP_CONFIG)


def compile_once_seconds(
    kernel: Kernel, config: SLPConfig, target: TargetMachine
) -> float:
    """Wall seconds for one full compilation of ``kernel``."""
    module = kernel.build()
    start = time.perf_counter()
    compile_module(module, config, target)
    return time.perf_counter() - start


def compile_time_and_phase_stats(
    kernel: Kernel,
    target: TargetMachine = DEFAULT_TARGET,
    configs: Sequence[SLPConfig] = TIMED_CONFIGS,
    runs: int = 10,
    warmup: int = 1,
) -> Tuple[Dict[str, RunStats], Dict[str, Dict[str, float]]]:
    """Mean/stddev compile time per configuration (the paper's protocol:
    ``runs`` measured compiles after ``warmup`` unmeasured ones), plus
    the mean per-phase seconds of the same measured compiles, so Figure
    11 can attribute the SLP overhead to the vectorize phase.

    The collector runs once before the first warm-up and is off for every
    compile after it, so no single compile absorbs a full collection and
    sets a row's mean; it is switched back on (if it was on) however the
    runs end.
    """
    module = kernel.build()
    wall: Dict[str, RunStats] = {}
    phases: Dict[str, Dict[str, float]] = {}
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for config in configs:
            samples = []
            totals: Dict[str, float] = {}
            for i in range(warmup + runs):
                result = compile_module(module, config, target)
                if i < warmup:
                    continue
                samples.append(result.compile_seconds)
                for phase, seconds in result.phase_seconds.items():
                    totals[phase] = totals.get(phase, 0.0) + seconds
            wall[config.name] = summarize(samples)
            phases[config.name] = {
                phase: total / runs for phase, total in sorted(totals.items())
            }
    finally:
        if collecting:
            gc.enable()
    return wall, phases


def interpreter_throughput(
    interpreter=BatchedInterpreter,
    kernels: Optional[Sequence[Kernel]] = None,
    config: SLPConfig = SNSLP_CONFIG,
    target: TargetMachine = DEFAULT_TARGET,
    repeats: int = 3,
    seed: int = 20190216,
) -> Dict[str, object]:
    """Interpreted-instructions/sec of one engine over the kernel suite.

    ``interpreter`` is the engine class to time
    (:class:`~repro.interp.batched.BatchedInterpreter` or
    :class:`~repro.interp.interpreter.Interpreter`); each run builds one
    on the compiled module with default memory and no cost accounting.
    Each kernel is compiled once under ``config``; the timer then wraps
    *only* the ``interp.run`` calls — input seeding and buffer readback
    are harness work shared by both engines and excluded, matching the
    definition of the ``sim.instructions_per_sec`` gauge.  Instruction
    counts come from the engines' own ``executed_instructions`` ledger,
    which the identity matrix guarantees is engine-independent, so the
    ratio of two engines' returned rates is the engine speedup.
    """
    if kernels is None:
        from ..kernels import all_kernels

        kernels = all_kernels()
    instructions = 0
    seconds = 0.0
    for kernel in kernels:
        compiled = compile_module(kernel.build(), config, target)
        inputs = kernel.make_inputs(random.Random(seed))
        for _ in range(repeats):
            interp = interpreter(compiled.module)
            for name, values in inputs.items():
                interp.write_global(name, values)
            started = time.perf_counter()
            interp.run(kernel.function, [kernel.trip_count])
            seconds += time.perf_counter() - started
            instructions += interp.executed_instructions
    return {
        "engine": interpreter.__name__,
        "instructions": float(instructions),
        "seconds": seconds,
        "instructions_per_sec": instructions / seconds if seconds > 0 else 0.0,
    }
