"""The four workloads of the end-to-end benchmark, one per process.

``run.py`` starts this script once per workload::

    python benchmarks/e2e/workloads.py --workload suite --seed 20190216 \\
        --seconds 20 --trace 0 [--chrome TRACE.json]

and reads the JSON document it prints as its last line of standard
output: ``attempted``/``failed`` op counts, ``failures`` (the failed ops
by name), ``leftovers`` (processes or files a run left behind),
``metrics`` (name -> value and unit) and, with ``--trace 1``, ``layers``
(the span self-time table).

Each run warms up untimed, then runs a fixed number of windows of work
(a suite pass, a round of 72 compiles, 96 requests of the closed loop):
the workload's ``windows`` at ``BENCHMARK.json``'s ``run_seconds``,
scaled by ``--seconds``.  The work therefore depends on ``--seed`` and
``--seconds`` alone, and two commits measured alike do the same work
however fast they run.  Between units of work the host's speed is probed
(``common.HostSpeed``).  ``--trace 1`` runs half the windows untraced and
then the same half traced: the traced half gives the per-layer numbers,
the pair gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import resource
import statistics
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from common import SRC, WORKLOADS, HostSpeed, geomean, load_spec, metric, percentile
from minic import draw_signed_sum
from server import ServeProcess, make_work_dir, remove_work_dir

#: the run length a workload's ``windows`` are sized for
RUN_SECONDS = load_spec()["run_seconds"]

sys.path.insert(0, str(SRC))

from repro.bench.parallel import run_suite_parallel  # noqa: E402
from repro.bench.runner import outputs_match  # noqa: E402
from repro.frontend import analyze, lower_program, parse_source  # noqa: E402
from repro.fuzz.oracle import values_close  # noqa: E402
from repro.kernels.suite import Kernel, all_kernels, kernel_named  # noqa: E402
from repro.machine.targets import DEFAULT_TARGET  # noqa: E402
from repro.observe.profile import self_time_stats  # noqa: E402
from repro.observe.session import CompilerSession, use_session  # noqa: E402
from repro.observe.trace import TraceEvent, Tracer  # noqa: E402
from repro.sim.executor import simulate  # noqa: E402
from repro.vectorizer.pipeline import CompilationResult, compile_module  # noqa: E402
from repro.vectorizer.slp import ALL_CONFIGS, O3_CONFIG, config_named  # noqa: E402

SNSLP = config_named("SN-SLP")
LSLP = config_named("LSLP")

#: benchmark name -> repro counter, read from ``CompilationResult.counters``
SUPERNODE_COUNTERS = {
    "supernode.moves_probed": "supernode.moves-probed",
    "supernode.moves_rejected_apo": "supernode.moves-rejected-apo",
    "supernode.leaf_moves": "supernode.leaf-moves-applied",
    "supernode.trunk_moves": "supernode.trunk-moves-applied",
    "supernode.nodes_formed": "supernode.nodes-formed",
}
PIPELINE_PHASES = ("clone", "simplify", "vectorize", "verify")


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


class Mean:
    """Running mean; per-op bookkeeping stays constant-size, so the
    benchmark's own records do not grow ``peak_rss_mb`` with the op count."""

    __slots__ = ("n", "total")

    def __init__(self) -> None:
        self.n = 0
        self.total = 0.0

    def add(self, value: float) -> None:
        self.n += 1
        self.total += value

    @property
    def value(self) -> float:
        return self.total / self.n


class CompileTally:
    """Running sums over compiles, for the compile-layer metrics."""

    def __init__(self) -> None:
        self.seconds = Mean()
        self.by_config: Dict[str, Mean] = {}
        self.phases = {name: Mean() for name in PIPELINE_PHASES}
        self.supernode = {name: Mean() for name in SUPERNODE_COUNTERS}
        self.vectorize_by_terms: Dict[int, Mean] = {}
        self.vectorized = 0
        self.attempted = 0

    def add(
        self, config: str, seconds: float, phases: Dict[str, float],
        counters: Dict[str, float], vectorized: int, attempted: int,
        terms: Optional[int] = None,
    ) -> None:
        self.seconds.add(seconds)
        self.by_config.setdefault(config, Mean()).add(seconds)
        if phases:  # a wire compile reply carries no phase split
            for name, entry in self.phases.items():
                entry.add(phases.get(name, 0.0))
        if config == SNSLP.name:
            for name, counter in SUPERNODE_COUNTERS.items():
                self.supernode[name].add(counters.get(counter, 0.0))
            if terms is not None:
                self.vectorize_by_terms.setdefault(terms, Mean()).add(phases["vectorize"])
        self.vectorized += vectorized
        self.attempted += attempted

    def add_result(self, config: str, compiled: CompilationResult, terms=None) -> None:
        graphs = compiled.report.all_graphs()
        self.add(
            config, compiled.compile_seconds, compiled.phase_seconds, compiled.counters,
            sum(1 for g in graphs if g.vectorized), len(graphs), terms,
        )

    def counts(self) -> Dict[str, Dict]:
        out = {name: metric(entry.value, "count") for name, entry in self.supernode.items()}
        out["slp.vectorized_ratio"] = metric(self.vectorized / self.attempted, "ratio")
        return out

    def metrics(self) -> Dict[str, Dict]:
        """Compile-layer numbers every workload reports, per compile."""
        out = {"pipeline.compile_ms": metric(self.seconds.value * 1e3, "ms")}
        for name, entry in self.phases.items():
            out[f"pipeline.{name}_ms"] = metric(entry.value * 1e3, "ms")
        out.update(self.counts())
        ratio = self.by_config[SNSLP.name].value / self.by_config[LSLP.name].value
        out["slp.sn_over_lslp_compile"] = metric(ratio, "ratio")
        return out


class SimTally:
    """Running sums over simulations."""

    def __init__(self) -> None:
        self.seconds = Mean()
        self.instructions = 0

    def add(self, seconds: float, instructions: int) -> None:
        self.seconds.add(seconds)
        self.instructions += instructions

    def metrics(self) -> Dict[str, Dict]:
        return {
            "sim.simulate_ms": metric(self.seconds.value * 1e3, "ms"),
            "sim.insns_per_s": metric(self.instructions / self.seconds.total, "1/s"),
        }


@dataclass
class Phase:
    """What one measured stretch of a workload recorded.

    A unit of work appends its wall times as the clock read them to
    ``raw_latencies`` (seconds per op) and ``raw_passes`` (seconds per
    64-pair pass); ``rescale`` then appends the same times at the reference
    host speed (see ``HostSpeed``) to ``latencies`` and ``passes``.
    ``units`` holds (ops, raw seconds, reference seconds) per unit, and
    every ``window_units`` consecutive units form one throughput window.
    """

    window_units: int = 1
    attempted: int = 0
    raw_latencies: array = field(default_factory=lambda: array("d"))
    latencies: array = field(default_factory=lambda: array("d"))
    raw_passes: List[float] = field(default_factory=list)
    passes: List[float] = field(default_factory=list)
    units: List[Tuple[int, float, float]] = field(default_factory=list)
    compiles: CompileTally = field(default_factory=CompileTally)
    sims: SimTally = field(default_factory=SimTally)
    failures: List[str] = field(default_factory=list)
    events: List[TraceEvent] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)

    def rescale(self, raw: float, factor: float) -> None:
        """Close the unit just run, which took ``raw`` wall seconds: its
        times so far recorded raw, multiplied by ``factor``."""
        ops = len(self.raw_latencies) - len(self.latencies)
        self.latencies.extend(t * factor for t in self.raw_latencies[len(self.latencies):])
        self.passes.extend(t * factor for t in self.raw_passes[len(self.passes):])
        self.units.append((ops, raw, raw * factor))

    def ops_per_s(self, rescaled: bool = True) -> float:
        """Median throughput over the phase's windows: a window slowed by a
        stall on the shared host moves it less than it moves the mean.
        ``window_units`` 0 makes the whole phase one window."""
        size = self.window_units or len(self.units)
        at = 2 if rescaled else 1
        rates = []
        for start in range(0, len(self.units) - size + 1, size):
            window = self.units[start:start + size]
            rates.append(sum(u[0] for u in window) / sum(u[at] for u in window))
        return statistics.median(rates)

    @property
    def host_speed(self) -> float:
        return sum(u[2] for u in self.units) / sum(u[1] for u in self.units)


def latency_metrics(
    latencies: Sequence[float], tail_window: int = 0, prefix: str = "",
) -> Dict[str, Dict]:
    """Median and 99th percentile; the latter per consecutive window of
    ``tail_window`` ops, median over the windows (0: the whole run)."""
    size = min(tail_window or len(latencies), len(latencies))
    tails = [
        percentile(latencies[start:start + size], 99)
        for start in range(0, len(latencies) - size + 1, size)
    ]
    return {
        f"{prefix}latency_p50_ms": metric(percentile(latencies, 50) * 1e3, "ms"),
        f"{prefix}latency_p99_ms": metric(statistics.median(tails) * 1e3, "ms"),
    }


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def span_layers(events: Sequence[TraceEvent], root: str, bench_spans: Sequence[str]):
    """Self-time table of a traced phase, and how much of the op wall time
    (the ``root`` spans) the spans nested beneath cover."""
    stats = {s.name: s for s in self_time_stats(events)}
    op = stats[root]
    rows = [
        {
            "name": s.name,
            "source": "benchmark" if s.name in bench_spans or s.name == root else "program",
            "count": s.count,
            "self_ms": s.self_ns / 1e6,
            "cum_ms": s.cumulative_ns / 1e6,
            "self_share": s.self_ns / op.cumulative_ns,
        }
        for s in stats.values()
    ]
    coverage = 1.0 - op.self_ns / op.cumulative_ns
    return rows, coverage, stats


def span_ms(stats, name: str) -> Dict:
    """Mean wall time of a benchmark span around one call into a layer."""
    entry = stats[name]
    return metric(entry.cumulative_ns / entry.count / 1e6, "ms")


class Workload:
    """One workload: seeded inputs, a unit of work, checks and metrics."""

    name = ""
    root_span = ""
    bench_spans: Tuple[str, ...] = ()
    #: consecutive units per throughput window (see ``Phase.ops_per_s``);
    #: a window must hold the same work each time
    window_units = 1
    #: windows of a run at ``BENCHMARK.json``'s ``run_seconds`` (see
    #: ``windows_for``)
    windows = 1
    #: processes the host-speed probe runs on: as many as the program uses
    probe_processes = 1
    #: ops per window of ``latency_p99_ms`` (see ``latency_metrics``)
    tail_window = 0

    def __init__(self, seed: int, windows: int) -> None:
        self.seed = seed
        self.session = CompilerSession(name=f"e2e:{self.name}")

    @classmethod
    def windows_for(cls, seconds: float) -> int:
        """Windows of a phase of ``seconds``: the default work, scaled."""
        return max(1, round(cls.windows * seconds / RUN_SECONDS))

    def warm_up(self) -> None:
        with use_session(self.session):
            self.unit(Phase(), self.session.tracer, 0)

    def run_phase(self, windows: int, traced: bool) -> Phase:
        phase = Phase(self.window_units)
        tracer = self.session.tracer
        tracer.clear()
        if traced:
            tracer.enable()
        try:
            with use_session(self.session), HostSpeed(self.probe_processes) as speed:
                for index in range(windows * self.window_units):
                    begin = time.perf_counter()
                    self.unit(phase, tracer, index)
                    phase.rescale(time.perf_counter() - begin, speed.factor())
        finally:
            tracer.disable()
        phase.events = list(tracer.events)
        tracer.clear()
        return phase

    def unit(self, phase: Phase, tracer: Tracer, index: int) -> None:
        raise NotImplementedError

    def check(self) -> List[str]:
        """Checks made after the timed phases; returns failures by name."""
        return []

    def close(self) -> List[str]:
        """Release what the workload holds; returns anything left behind."""
        return []

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def speedup(self) -> float:
        raise NotImplementedError

    def end_to_end(self, phase: Phase) -> Dict[str, Dict]:
        out = {"ops_per_s": metric(phase.ops_per_s(), "1/s")}
        out.update(latency_metrics(phase.latencies, self.tail_window))
        out["speedup_geomean"] = metric(self.speedup(), "x")
        out["peak_rss_mb"] = metric(self.peak_rss_mb(), "MB")
        if phase.passes:
            out["pass_s_p50"] = metric(percentile(phase.passes, 50), "s")
        out["host.speed"] = metric(phase.host_speed, "ratio")
        # The same times unscaled: compare.py checks its verdicts on the
        # rescaled times against them (see README, "Host-speed rescaling").
        out["raw.ops_per_s"] = metric(phase.ops_per_s(rescaled=False), "1/s")
        out.update(latency_metrics(phase.raw_latencies, self.tail_window, "raw."))
        return out

    def layers(self, phase: Phase) -> Dict[str, Dict]:
        raise NotImplementedError


# -- suite ---------------------------------------------------------------------------


class Suite(Workload):
    """16 kernels x {O3, SLP, LSLP, SN-SLP}, serially in this process: the
    paper's Figure 5 protocol.  One op = build, inputs, compile, simulate
    and check one pair against O3; one unit = one 64-pair pass."""

    name = "suite"
    root_span = "suite.pair"
    bench_spans = (
        "kernels.build", "kernels.inputs", "pipeline.compile", "sim.simulate", "bench.check",
    )
    windows = 40

    def __init__(self, seed: int, windows: int) -> None:
        super().__init__(seed, windows)
        self.kernels = all_kernels()
        #: (kernel, config) -> simulated cycles of the first pass
        self.cycles: Dict[Tuple[str, str], float] = {}

    def unit(self, phase: Phase, tracer: Tracer, index: int) -> None:
        started = time.perf_counter()
        for kernel in self.kernels:
            reference = None
            for config in ALL_CONFIGS:  # O3 first: it is the reference
                pair = f"{kernel.name}/{config.name}"
                phase.attempted += 1
                begin = time.perf_counter()
                try:
                    with tracer.span(self.root_span, pair=pair):
                        outputs, cycles = self._pair(kernel, config, phase, tracer)
                        if reference is None:
                            reference = outputs
                        with tracer.span("bench.check"):
                            same = outputs_match(kernel, outputs, reference)
                except Exception as exc:  # a failed op is counted and named
                    phase.failures.append(f"{pair}: {type(exc).__name__}: {exc}")
                    continue
                phase.raw_latencies.append(time.perf_counter() - begin)
                first = self.cycles.setdefault((kernel.name, config.name), cycles)
                if not same:
                    phase.failures.append(f"{pair}: outputs differ from O3")
                elif not values_close(first, cycles, True):
                    phase.failures.append(f"{pair}: cycles {cycles} != first pass {first}")
        phase.raw_passes.append(time.perf_counter() - started)

    def _pair(self, kernel: Kernel, config, phase: Phase, tracer: Tracer):
        with tracer.span("kernels.build"):
            module = kernel.build()
        with tracer.span("kernels.inputs"):
            inputs = kernel.make_inputs(random.Random(self.seed))
        with tracer.span("pipeline.compile"):
            compiled = compile_module(module, config, DEFAULT_TARGET)
        phase.compiles.add_result(config.name, compiled)
        sim_session = self.session.derive()
        with tracer.span("sim.simulate"):
            begin = time.perf_counter()
            result = simulate(
                compiled.module, kernel.function, DEFAULT_TARGET,
                [kernel.trip_count], inputs=inputs, session=sim_session,
            )
            phase.sims.add(time.perf_counter() - begin, result.instructions)
        counters = sim_session.stats.snapshot()
        plan = phase.extra.setdefault("plan_cache", [0.0, 0.0])
        plan[0] += counters.get("interp.plan_cache.hits", 0.0)
        plan[1] += counters.get("interp.plan_cache.misses", 0.0)
        outputs = {name: result.globals_after[name] for name in kernel.output_globals}
        return outputs, result.cycles

    def speedup(self) -> float:
        return geomean([
            self.cycles[(k.name, O3_CONFIG.name)] / self.cycles[(k.name, SNSLP.name)]
            for k in self.kernels
        ])

    def layers(self, phase: Phase) -> Dict[str, Dict]:
        _, _, stats = span_layers(phase.events, self.root_span, self.bench_spans)
        hits, misses = phase.extra["plan_cache"]
        out = phase.compiles.metrics()
        out.update(phase.sims.metrics())
        out.update({
            "kernels.build_ms": span_ms(stats, "kernels.build"),
            "kernels.inputs_ms": span_ms(stats, "kernels.inputs"),
            "kernels.builds_per_pass": metric(stats["kernels.build"].count / len(phase.passes), "count"),
            "bench.check_ms": span_ms(stats, "bench.check"),
            "interp.plan_cache_hit_ratio": metric(hits / (hits + misses), "ratio"),
        })
        return out


# -- suite-jobs2 ---------------------------------------------------------------------


class SuiteJobs2(Suite):
    """The same 64-pair pass through ``run_suite_parallel(jobs=2)``, which
    starts an ephemeral two-worker service per call: the cold-parallel
    regime.  Every pair of a pass is delivered when the call returns, so
    each pair's latency is its pass's wall time."""

    name = "suite-jobs2"
    root_span = "suite-jobs2.pass"
    bench_spans = ("bench.run_suite_parallel", "bench.check")
    jobs = probe_processes = 2
    windows = 40
    #: Every pair of a pass shares the pass's latency, so a run holds only
    #: 40 independent latency samples and its p99 is the slowest pass: of
    #: 60, resampled, its ten-run spread passed the 15% bound one time in
    #: four.  The p99 is taken per 10 passes (640 pairs) instead.
    tail_window = 10 * 64
    parallel_counters = {
        "parallel.overhead_s": "parallel.overhead_seconds",
        "parallel.spawn_s": "parallel.spawn_seconds",
        "parallel.marshal_s": "parallel.marshal_seconds",
    }

    def unit(self, phase: Phase, tracer: Tracer, index: int) -> None:
        pairs = len(self.kernels) * len(ALL_CONFIGS)
        phase.attempted += pairs
        before = self.session.stats.snapshot()
        begin = time.perf_counter()
        try:
            with tracer.span(self.root_span):
                with tracer.span("bench.run_suite_parallel"):
                    suite = run_suite_parallel(self.kernels, seed=self.seed, jobs=self.jobs)
                with tracer.span("bench.check"):
                    problems = self._check(suite)
        except Exception as exc:  # the whole pass failed: every pair in it did
            phase.failures.extend([f"pass {index}: {type(exc).__name__}: {exc}"] * pairs)
            return
        wall = time.perf_counter() - begin
        phase.raw_passes.append(wall)
        phase.raw_latencies.extend([wall] * pairs)
        phase.failures.extend(problems)
        after = self.session.stats.snapshot()
        for name, counter in self.parallel_counters.items():
            delta = after.get(counter, 0.0) - before.get(counter, 0.0)
            phase.extra.setdefault(name, []).append(delta)
        for runs in suite.values():
            for run in runs.values():
                phase.compiles.add(
                    run.config, run.compile_seconds, run.phase_seconds,
                    run.counters, run.vectorized_graphs, run.attempted_graphs,
                )
                phase.extra["instructions"] = phase.extra.get("instructions", 0) + run.instructions

    def _check(self, suite) -> List[str]:
        problems = []
        for kernel in self.kernels:
            runs = suite[kernel.name]
            reference = runs[O3_CONFIG.name].outputs
            for config in ALL_CONFIGS:
                run = runs[config.name]
                pair = f"{kernel.name}/{config.name}"
                first = self.cycles.setdefault((kernel.name, config.name), run.cycles)
                if not (run.correct and outputs_match(kernel, run.outputs, reference)):
                    problems.append(f"{pair}: outputs differ from O3")
                elif not values_close(first, run.cycles, True):
                    problems.append(f"{pair}: cycles {run.cycles} != first pass {first}")
        return problems

    def layers(self, phase: Phase) -> Dict[str, Dict]:
        # Worker spans come back merged into this session (pid != 0); the
        # instruction counts come from the KernelRuns, not the spans.
        sims = SimTally()
        for event in phase.events:
            if event.pid and event.name == "simulate":
                sims.add(event.duration_ns / 1e9, 0)
        sims.instructions = phase.extra["instructions"]
        out = phase.compiles.metrics()
        out.update(sims.metrics())
        for name in self.parallel_counters:
            out[name] = metric(mean(phase.extra[name]), "s")
        return out


# -- supernode-wide ------------------------------------------------------------------


class SupernodeWide(Workload):
    """Seeded mini-C sources, each lane one signed sum of ``terms`` arrays in
    a shuffled order, through the frontend and ``compile_module`` under
    SN-SLP and under LSLP.  One op = parse, sema, lower and compile one
    source under one config.  Sources come in rounds holding one source of
    every (lanes, terms, type) stratum, at most ``rounds`` of them; one
    unit = the next 12 ops of the rounds, cycled, and one window = the
    72 ops of a round.  Nothing is simulated while timed."""

    name = "supernode-wide"
    root_span = "supernode-wide.compile"
    bench_spans = ("frontend.parse", "frontend.sema", "frontend.lower", "pipeline.compile")
    lanes = (2, 4, 8)
    terms = tuple(range(3, 9))
    ctypes = ("double", "long")
    #: distinct rounds of sources; more would lengthen the check, whose
    #: simulations cost more than the timed compiles
    rounds = 4
    unit_ops = 12
    window_units = 6  # one round: a source of every stratum under both configs
    windows = 14  # 1,008 compiles: ten beyond the 99th percentile
    #: trip count of the check simulations
    check_n = 256
    terms_buckets = ((3, 4), (5, 6), (7, 8))

    def __init__(self, seed: int, windows: int) -> None:
        super().__init__(seed, windows)
        rng = random.Random(f"{seed}:supernode-wide")
        self.programs = []
        for r in range(min(windows, self.rounds)):
            strata = [(l, t, c) for l in self.lanes for t in self.terms for c in self.ctypes]
            batch = [
                draw_signed_sum(rng, f"sn{r}_{i}", lanes, terms, ctype)
                for i, (lanes, terms, ctype) in enumerate(strata)
            ]
            rng.shuffle(batch)
            self.programs.append(batch)
        self.ops = [(p, c) for batch in self.programs for p in batch for c in (SNSLP, LSLP)]
        self.sources = {p.name: p.source() for batch in self.programs for p in batch}
        #: (program, config) -> compiled module of its first compile
        self.first: Dict[Tuple[str, str], object] = {}
        self.check_sims = SimTally()
        self.speedups: List[float] = []

    def warm_up(self) -> None:
        for program in self.programs[0][:4]:
            for config in (SNSLP, LSLP):
                compile_module(self._lower(program.name), config, DEFAULT_TARGET)

    def _lower(self, name: str):
        return lower_program(analyze(parse_source(self.sources[name])), name)

    def unit(self, phase: Phase, tracer: Tracer, index: int) -> None:
        start = index * self.unit_ops % len(self.ops)
        for program, config in self.ops[start:start + self.unit_ops]:
            op = f"{program.name}/{config.name}"
            phase.attempted += 1
            begin = time.perf_counter()
            try:
                with tracer.span(self.root_span, op=op):
                    with tracer.span("frontend.parse"):
                        ast = parse_source(self.sources[program.name])
                    with tracer.span("frontend.sema"):
                        sema = analyze(ast)
                    with tracer.span("frontend.lower"):
                        module = lower_program(sema, program.name)
                    with tracer.span("pipeline.compile"):
                        compiled = compile_module(module, config, DEFAULT_TARGET)
            except Exception as exc:
                phase.failures.append(f"{op}: {type(exc).__name__}: {exc}")
                continue
            phase.raw_latencies.append(time.perf_counter() - begin)
            phase.compiles.add_result(config.name, compiled, program.terms)
            self.first.setdefault((program.name, config.name), compiled.module)

    def check(self) -> List[str]:
        """Simulate O3, SN-SLP and LSLP on every source and compare ``A``
        with the sum computed here, term by term."""
        failures = []
        for batch in self.programs:
            for program in batch:
                modules = {}
                try:
                    o3 = compile_module(self._lower(program.name), O3_CONFIG, DEFAULT_TARGET)
                except Exception as exc:
                    failures.append(f"{program.name}/O3: {type(exc).__name__}: {exc}")
                    continue
                modules[O3_CONFIG.name] = o3.module
                for config in (SNSLP, LSLP):
                    if (program.name, config.name) in self.first:  # else it failed already
                        modules[config.name] = self.first[(program.name, config.name)]
                inputs = program.inputs(random.Random(f"{self.seed}:{program.name}"))
                want = program.expected(inputs, self.check_n)
                cycles = {}
                for config_name, module in modules.items():
                    op = f"{program.name}/{config_name}"
                    try:
                        begin = time.perf_counter()
                        result = simulate(
                            module, program.name, DEFAULT_TARGET, [self.check_n], inputs=inputs
                        )
                        self.check_sims.add(time.perf_counter() - begin, result.instructions)
                    except Exception as exc:
                        failures.append(f"{op}: {type(exc).__name__}: {exc}")
                        continue
                    got = result.globals_after["A"]
                    bad = [
                        i for i, (g, w) in enumerate(zip(got, want))
                        if not values_close(g, w, program.is_float)
                    ]
                    if len(got) != len(want) or bad:
                        at = bad[0] if bad else min(len(got), len(want))
                        failures.append(f"{op}: A[{at}] differs from the expected sum")
                    cycles[config_name] = result.cycles
                if O3_CONFIG.name in cycles and SNSLP.name in cycles:
                    self.speedups.append(cycles[O3_CONFIG.name] / cycles[SNSLP.name])
        return failures

    def speedup(self) -> float:
        return geomean(self.speedups)

    def layers(self, phase: Phase) -> Dict[str, Dict]:
        _, _, stats = span_layers(phase.events, self.root_span, self.bench_spans)
        out = phase.compiles.metrics()
        out.update(self.check_sims.metrics())
        for name in ("frontend.parse", "frontend.sema", "frontend.lower"):
            out[f"{name}_ms"] = span_ms(stats, name)
        by_terms = phase.compiles.vectorize_by_terms
        for low, high in self.terms_buckets:
            seconds = by_terms[low].total + by_terms[high].total
            count = by_terms[low].n + by_terms[high].n
            out[f"vectorize_ms.terms{low}-{high}"] = metric(seconds / count * 1e3, "ms")
        return out


# -- serve-mixed ---------------------------------------------------------------------


class RequestStream:
    """One client's deterministic request sequence, in groups of two fresh
    requests and one repeat.

    A fresh request is a ``compile`` of a new small mini-C source (75%,
    configs alternating SN-SLP/LSLP) or a ``bench`` of the next suite
    (kernel, config) from a shuffled deck with a seed never used before
    (25%).  A repeat is an exact copy of one of this client's last
    ``recent`` fresh requests, which has been answered by then and is still
    in the service's bounded cache, so every repeat is a cache hit and
    every fresh request a miss: the hit ratio is 1/3.  (At 1/2 the median
    latency would fall in the gap between the hit and the miss latencies,
    where it jumps from run to run.)
    """

    compile_share = 0.75
    recent = 32

    def __init__(self, seed: int, client: int, kernels: Sequence[str]) -> None:
        self.seed = seed
        self.client = client
        self.kernels = kernels
        self.rng = random.Random(f"{seed}:serve-mixed:{client}")
        self.fresh: List[Dict[str, object]] = []
        self.deck: List[Tuple[str, str]] = []
        self.compiles = 0

    def bench_seed(self, index: int) -> int:
        return self.seed * 10_000_000 + self.client * 1_000_000 + index

    def _fresh(self) -> Dict[str, object]:
        index = len(self.fresh)
        if self.rng.random() < self.compile_share:
            config = (SNSLP.name, LSLP.name)[self.compiles % 2]
            self.compiles += 1
            program = draw_signed_sum(
                self.rng, f"c{self.client}n{index}",
                self.rng.choice((2, 4)), self.rng.randint(3, 5),
                self.rng.choice(("double", "long")),
            )
            doc = {"kind": "compile", "source": program.source(), "config": config}
        else:
            if not self.deck:
                self.deck = [(k, c.name) for k in self.kernels for c in ALL_CONFIGS]
                self.rng.shuffle(self.deck)
            kernel, config = self.deck.pop()
            doc = {"kind": "bench", "kernel": kernel, "config": config,
                   "seed": self.bench_seed(index)}
        self.fresh.append(doc)
        return doc

    def next_group(self) -> Tuple[Dict[str, object], ...]:
        first, second = self._fresh(), self._fresh()
        return first, second, self.rng.choice(self.fresh[-self.recent:])


KERNEL_NAME = re.compile(r"kernel (\w+)")


class ServeMixed(Workload):
    """A closed loop over AF_UNIX against ``repro serve --socket --jobs 2
    --cache-dir --cache-entries 256``: 2 client threads, 1 request outstanding each, a third of
    the requests exact repeats.  One op = one request, timed at the client.
    In each window every client sends ``window_groups`` request groups;
    the number of requests, and so what the service's in-memory cache
    holds at the end (``peak_rss_mb``), is fixed by the seed and the run
    length."""

    name = "serve-mixed"
    root_span = "serve-mixed.request"
    bench_spans = ("client.encode", "client.roundtrip", "client.decode")
    clients = 2
    window_groups = 16  # 2 clients x 16 groups x 3 = 96 requests per window
    window_units = 0  # windows hold different requests: use the total
    windows = 32  # 3,072 requests
    probe_processes = 2  # the server's two workers

    def __init__(self, seed: int, windows: int) -> None:
        super().__init__(seed, windows)
        self.kernels = [k.name for k in all_kernels()]
        self.streams = [RequestStream(seed, c, self.kernels) for c in range(self.clients)]
        #: canonical request -> first reply, to check every repeat against
        self.first_reply: Dict[str, Dict[str, object]] = {}
        #: fresh bench replies, checked against an O3 run made here
        self.bench_replies: List[Tuple[Dict, Dict]] = []
        self.check_sims = SimTally()
        self.speedups: Dict[str, List[float]] = {}
        self.worker_pids: List[int] = []
        self.work = make_work_dir("serve")
        self.server = ServeProcess(self.work)
        try:
            self.control = self.server.connect()
            self.conns = [self.server.connect() for _ in range(self.clients)]
        except BaseException:
            self.server.stop(None)
            remove_work_dir(self.work)
            raise

    def warm_up(self) -> None:
        warm = RequestStream(self.seed, 9, self.kernels)  # client slot 9 is never used
        for _ in range(3):
            for doc in warm.next_group():
                reply = self.control.request(doc)
                if not reply.get("ok"):
                    raise RuntimeError(f"warm-up request failed: {reply}")

    def run_phase(self, windows: int, traced: bool) -> Phase:
        """Closed-loop windows; between windows both clients stop and the
        host speed is probed while the server is idle."""
        phase = Phase(self.window_units)
        tracers = [Tracer(enabled=traced) for _ in range(self.clients)]
        #: per client: (request, reply, raw seconds, host-speed factor)
        records: List[List[Tuple]] = [[] for _ in range(self.clients)]
        errors: List[str] = []
        with HostSpeed(self.probe_processes) as speed:
            for _ in range(windows):
                if errors:
                    break
                marks = [len(r) for r in records]
                begin = time.perf_counter()
                threads = [
                    threading.Thread(
                        target=self._client, args=(c, tracers[c], records[c], errors),
                        name=f"e2e-client-{c}",
                    )
                    for c in range(self.clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                raw = time.perf_counter() - begin
                factor = speed.factor()
                ops = 0
                for mark, client_records in zip(marks, records):
                    for i in range(mark, len(client_records)):
                        client_records[i] += (factor,)
                    ops += len(client_records) - mark
                phase.units.append((ops, raw, raw * factor))
        for client, tracer in enumerate(tracers):
            for event in tracer.events:  # one track per client thread
                event.generation = client
                phase.events.append(event)
        phase.failures.extend(errors)
        phase.extra["stats"] = self.control.request({"kind": "stats"})["result"]
        self.worker_pids = [w["pid"] for w in phase.extra["stats"]["workers"]]
        for client_records in records:
            for doc, reply, raw, factor in client_records:
                self._account(phase, doc, reply, raw, factor)
        return phase

    def _client(self, client, tracer, out, errors) -> None:
        conn, stream = self.conns[client], self.streams[client]
        try:
            for _ in range(self.window_groups):
                for doc in stream.next_group():
                    request = dict(doc, id=len(out) + 1)
                    begin = time.perf_counter()
                    with tracer.span(self.root_span, kind=doc["kind"]):
                        with tracer.span("client.encode"):
                            line = json.dumps(request)
                        with tracer.span("client.roundtrip"):
                            raw = conn.roundtrip(line)
                        with tracer.span("client.decode"):
                            reply = json.loads(raw)
                    out.append((doc, reply, time.perf_counter() - begin))
        except (OSError, ValueError) as exc:  # the connection broke: stop this client
            errors.append(f"client {client}: {type(exc).__name__}: {exc}")

    def _account(self, phase: Phase, doc, reply, raw: float, factor: float) -> None:
        latency = raw * factor
        phase.attempted += 1
        kind = doc["kind"]
        target = doc["kernel"] if kind == "bench" else KERNEL_NAME.search(doc["source"]).group(1)
        label = f"{kind} {target}/{doc['config']}"
        if not reply.get("ok"):
            error = reply.get("error", {})
            phase.failures.append(f"{label}: {error.get('type')}: {error.get('message')}")
            return
        phase.raw_latencies.append(raw)
        phase.latencies.append(latency)
        result = reply["result"]
        cached = bool(result["cached"])
        phase.extra.setdefault("hit_ms" if cached else "miss_ms", []).append(latency * 1e3)
        mix = phase.extra.setdefault("mix", {})
        key = json.dumps(doc, sort_keys=True)
        first = self.first_reply.setdefault(key, result)
        repeat = first is not result
        mix_key = f"{kind}.{'repeat' if repeat else 'fresh'}"
        mix[mix_key] = mix.get(mix_key, 0) + 1
        if kind == "bench":
            run = result["run"]
            phase.extra.setdefault("overhead_ms", []).append(
                (latency - result["worker_seconds"]) * 1e3
            )
            if repeat:
                if not self._same_run(doc["kernel"], run, first["run"]):
                    phase.failures.append(f"{label}: repeat differs from the first reply")
            else:
                self.bench_replies.append((doc, run))
            if not cached:
                phase.compiles.add(
                    run["config"], run["compile_seconds"], run["phase_seconds"],
                    run["counters"], run["vectorized_graphs"], run["attempted_graphs"],
                )
        else:
            if repeat and result["module"] != first["module"]:
                phase.failures.append(f"{label}: repeat returned different IR")
            if not cached:
                phase.compiles.add(
                    result["config"], result["compile_seconds"], {},
                    result["counters"], result["vectorized"], result["attempted"],
                )

    @staticmethod
    def _same_run(kernel: str, run: Dict, first: Dict) -> bool:
        is_float = not kernel_named(kernel).check_exact
        return values_close(run["cycles"], first["cycles"], True) and all(
            len(run["outputs"][name]) == len(want)
            and all(values_close(g, w, is_float) for g, w in zip(run["outputs"][name], want))
            for name, want in first["outputs"].items()
        )

    def check(self) -> List[str]:
        """Run O3 here for every fresh bench reply's (kernel, seed) and compare."""
        failures = []
        o3_modules: Dict[str, object] = {}  # the O3 module does not depend on the seed
        references: Dict[Tuple[str, int], Dict] = {}
        for doc, run in self.bench_replies:
            kernel = kernel_named(doc["kernel"])
            key = (kernel.name, doc["seed"])
            if key not in references:
                if kernel.name not in o3_modules:
                    o3_modules[kernel.name] = compile_module(
                        kernel.build(), O3_CONFIG, DEFAULT_TARGET
                    ).module
                inputs = kernel.make_inputs(random.Random(doc["seed"]))
                begin = time.perf_counter()
                result = simulate(
                    o3_modules[kernel.name], kernel.function, DEFAULT_TARGET,
                    [kernel.trip_count], inputs=inputs,
                )
                self.check_sims.add(time.perf_counter() - begin, result.instructions)
                references[key] = {
                    "cycles": result.cycles,
                    "outputs": {n: result.globals_after[n] for n in kernel.output_globals},
                }
            reference = references[key]
            if not self._same_run(kernel.name, dict(run, cycles=reference["cycles"]), reference):
                failures.append(f"bench {kernel.name}/{doc['config']} seed {doc['seed']}: "
                                "outputs differ from O3")
            if doc["config"] == SNSLP.name:
                self.speedups.setdefault(kernel.name, []).append(
                    reference["cycles"] / run["cycles"]
                )
        return failures

    def close(self) -> List[str]:
        leftovers = []
        try:
            for conn in self.conns:
                conn.close()
            self.server.stop(self.control)
            if self.server.socket_left_behind:
                leftovers.append(f"socket {self.server.socket_path} left behind")
            for pid in self.worker_pids:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    continue
                leftovers.append(f"worker pid {pid} still running")
        finally:
            remove_work_dir(self.work)
        return leftovers

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(resource.RUSAGE_CHILDREN)  # the server and its workers

    def speedup(self) -> float:
        return geomean([geomean(values) for values in self.speedups.values()])

    def end_to_end(self, phase: Phase) -> Dict[str, Dict]:
        out = super().end_to_end(phase)
        out["serve.cache_hit_ratio"] = metric(self._hit_ratio(phase), "ratio")
        return out

    @staticmethod
    def _hit_ratio(phase: Phase) -> float:
        hits = len(phase.extra.get("hit_ms", []))
        return hits / (hits + len(phase.extra.get("miss_ms", [])))

    def layers(self, phase: Phase) -> Dict[str, Dict]:
        stats = phase.extra["stats"]
        out = phase.compiles.metrics()
        out.update(self.check_sims.metrics())
        out.update({
            "serve.hit_ms_p50": metric(percentile(phase.extra["hit_ms"], 50), "ms"),
            "serve.miss_ms_p50": metric(percentile(phase.extra["miss_ms"], 50), "ms"),
            "serve.overhead_ms_p50": metric(percentile(phase.extra["overhead_ms"], 50), "ms"),
            "serve.queue_ms_p50": metric(stats["queue_seconds"]["p50"] * 1e3, "ms"),
            "serve.queue_ms_p99": metric(stats["queue_seconds"]["p99"] * 1e3, "ms"),
            "serve.worker_util": metric(
                mean([w["utilization"] for w in stats["workers"]]), "ratio"
            ),
            "serve.cache_hit_ratio": metric(self._hit_ratio(phase), "ratio"),
            "serve.errors": metric(stats["counters"].get("serve.errors", 0.0), "count"),
            "serve.respawns": metric(float(stats["respawns"]), "count"),
        })
        return out


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (Suite, SuiteJobs2, SupernodeWide, ServeMixed)
}


def measure(
    name: str, seed: int, seconds: float, trace: bool, chrome: Optional[str] = None,
) -> Dict[str, object]:
    cls = WORKLOAD_CLASSES[name]
    windows = cls.windows_for(seconds / 2 if trace else seconds)
    workload = cls(seed, windows)
    phases: List[Phase] = []
    try:
        workload.warm_up()
        phases.append(workload.run_phase(windows, traced=False))
        if trace:
            phases.append(workload.run_phase(windows, traced=True))
        failures = [f for phase in phases for f in phase.failures] + workload.check()
    finally:
        leftovers = workload.close()
    attempted = sum(phase.attempted for phase in phases)
    doc: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:50],
        "leftovers": leftovers,
    }
    base = phases[0]
    if isinstance(workload, ServeMixed):
        doc["request_mix"] = base.extra["mix"]
        doc["worker_pids"] = workload.worker_pids
    if not trace:
        metrics = workload.end_to_end(base)
        metrics["failed_ratio"] = metric(len(failures) / attempted, "ratio")
        metrics["ops"] = metric(float(len(base.latencies)), "count")
        metrics.update(base.compiles.counts())
        doc["metrics"] = metrics
        return doc
    traced = phases[1]
    rows, coverage, _ = span_layers(traced.events, workload.root_span, workload.bench_spans)
    metrics = workload.layers(traced)
    metrics["observe.trace_overhead"] = metric(traced.ops_per_s() / base.ops_per_s(), "ratio")
    metrics["observe.span_coverage"] = metric(coverage, "ratio")
    doc["metrics"] = metrics
    doc["layers"] = {
        "ops": len(traced.latencies),
        "op_wall_ms": sum(traced.latencies) * 1e3,
        "span_coverage": coverage,
        "trace_overhead": metrics["observe.trace_overhead"]["value"],
        "spans": sorted(rows, key=lambda row: -row["self_ms"]),
    }
    if chrome:
        tracer = Tracer()
        tracer.events = traced.events
        tracer.write_chrome_trace(chrome)
    return doc


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sizes the fixed work (see above)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--chrome", metavar="TRACE.json")
    args = parser.parse_args(argv)
    doc = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.chrome)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
