"""Command-line driver: the repro's ``clang`` equivalent.

Compiles kernel-language source files, optionally vectorizing, printing
IR, executing on the simulator and comparing configurations::

    python -m repro compile kernel.sn --config sn-slp --emit-ir
    python -m repro compile kernel.sn --guard --phase-budget 2.0
    python -m repro run kernel.sn --kernel fig3 --n 512
    python -m repro compare kernel.sn --kernel fig3 --n 512
    python -m repro report kernel.sn --config sn-slp
    python -m repro explain motiv-leaf-reorder --dot graphs/
    python -m repro bench --json > RESULTS.json
    python -m repro report RESULTS.json --baseline OLD.json -o report.html
    python -m repro fuzz --budget 30s --seed 0 --out fuzz-artifacts
    python -m repro fuzz --replay fuzz-artifacts/failure-0000/reduced.ir
    python -m repro fuzz --inject --budget 15s
    python -m repro bisect failure-0000/reduced.ir --config sn-slp
    python -m repro profile motiv-leaf-reorder --folded profile.folded
    python -m repro serve --socket /tmp/repro.sock --slow-log 0.5
    python -m repro top --socket /tmp/repro.sock --count 5
    python -m repro waterfall trace.json --slow 0.1

``compile`` prints the (vectorized) IR — with ``--guard`` it goes
through the fault-isolating driver that degrades instead of crashing;
``run`` executes one kernel and dumps the output buffers; ``compare``
runs every configuration on the same random inputs and reports speedups
+ correctness; ``report`` shows the SLP graphs the vectorizer built —
or, given a ``repro bench --json`` results file, renders a
self-contained HTML benchmark report (with ``--baseline`` diffing);
``explain`` narrates the vectorizer's per-graph decision journal;
``fuzz`` runs a differential-testing campaign (or replays a saved
reproducer, or — with ``--inject`` — injects deterministic faults and
checks they cannot escape the guard); ``bisect`` localizes the first
faulty vectorization decision in a failing module.  Global buffers are
seeded deterministically from ``--seed``.

Exit codes are distinct per failure class so scripts and CI can branch:

==== ==============================================================
code meaning
==== ==============================================================
0    success
2    usage error (bad flag, unknown config/target/kernel, bad file)
3    IR verifier failure
4    internal error (compiler crash)
5    execution budget exceeded (interpreter watchdog)
6    comparison mismatch (``compare`` divergence or fuzz findings)
==== ==============================================================
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Dict, List, Optional, Sequence

from .frontend import compile_source
from .frontend.errors import FrontendError
from .interp import BudgetExceededError
from .ir import FloatType, Module, print_module
from .ir.parser import ParseError
from .ir.verifier import VerificationError
from .machine import DEFAULT_TARGET, target_named
from .observe.session import CompilerSession, current_session, use_session
from .observe.trace import CATEGORIES, write_records
from .serve.service import ServiceError
from .serve.service import TaskTimeout as ServeTaskTimeout
from .sim import simulate
from .vectorizer import ALL_CONFIGS, compile_module, config_named

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFIER = 3
EXIT_CRASH = 4
EXIT_BUDGET = 5
EXIT_MISMATCH = 6


def _usage(message: str) -> None:
    """Report a user-input error and exit with the usage code."""
    print(f"repro: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _resolve_config(name: str):
    try:
        return config_named(name)
    except KeyError as exc:
        _usage(str(exc.args[0]) if exc.args else str(exc))


def _resolve_target(name: str):
    try:
        return target_named(name)
    except KeyError as exc:
        _usage(str(exc.args[0]) if exc.args else str(exc))


#: (flag, category, noun): each flag arms one category and names the
#: file its records are written to (``--trace-out`` as a Chrome trace,
#: the others as JSONL); the noun counts them on stderr
_CATEGORY_FLAGS = (
    ("trace_out", "span", "trace event(s)"),
    ("remarks", "remark", "remark(s)"),
    ("journal", "decision", "journal event(s)"),
    ("log", "log", "log event(s)"),
)


def _configure_observability(args: argparse.Namespace, session: CompilerSession) -> None:
    """Arm the session's event categories and metrics registry before
    the command runs."""
    for flag, category, _ in _CATEGORY_FLAGS:
        if getattr(args, flag, None):
            session.tracer.enable(CATEGORIES[category])
    session.tracer.level = getattr(args, "log_level", None) or "info"
    if getattr(args, "metrics_out", None):
        session.metrics.enable()


def _flush_observability(args: argparse.Namespace, session: CompilerSession) -> None:
    """Write the category files and print the stats table after a command.

    Everything comes out of the per-invocation ``session`` — the process
    default session is never consulted, so two CLI invocations embedded
    in one process cannot bleed observability state into each other.
    """
    for flag, category, noun in _CATEGORY_FLAGS:
        path = getattr(args, flag, None)
        if not path:
            continue
        records = session.tracer.of(category)
        if category == "span":
            session.tracer.write_chrome_trace(path)
        else:
            write_records(path, records)
        print(
            f"; wrote {len(records)} {noun} to {path}",
            file=sys.stderr,
        )
    if getattr(args, "metrics_out", None):
        session.metrics.write_exposition(args.metrics_out, session.stats)
        print(
            f"; wrote metrics exposition to {args.metrics_out}",
            file=sys.stderr,
        )
    if getattr(args, "stats", False) and not getattr(args, "_stats_printed", False):
        print(session.stats.report(), file=sys.stderr)


def _stats_table(stats, title: str) -> str:
    """Render a counter *snapshot dict* as an LLVM -stats-style table.

    Campaign results carry their session's snapshot as a plain dict; this
    rebuilds a throwaway registry (descriptions auto-fill from the
    process-wide STAT catalog) purely for formatting.
    """
    from .observe.stats import StatsRegistry

    registry = StatsRegistry()
    for name, value in sorted(stats.items()):
        registry.stat(name).add(value)
    return registry.report(title=title, include_zero=False)


def _print_phase_times(result, label: str) -> None:
    """-v: a -time-passes-style per-phase wall-time table on stderr."""
    print(f"; phase times ({label}):", file=sys.stderr)
    for phase, seconds in result.phase_seconds.items():
        print(f";   {phase:10s} {seconds * 1000:8.3f} ms", file=sys.stderr)
    print(
        f";   {'total':10s} {result.compile_seconds * 1000:8.3f} ms",
        file=sys.stderr,
    )


def _load_module(path: str) -> Module:
    """Load a module from kernel-language source (default) or textual IR.

    Files ending in ``.ir`` are parsed as textual IR (see docs/IR.md);
    anything else goes through the mini-C frontend.
    """
    import os
    import re

    try:
        with open(path) as handle:
            source = handle.read()
    except OSError as exc:
        _usage(f"cannot read {path}: {exc.strerror or exc}")
    if path.endswith(".ir"):
        from .ir import parse_module, verify_module

        module = parse_module(source)
        verify_module(module)
        return module
    # module names must be identifiers (they round-trip through the
    # textual IR), so derive one from the file's base name
    stem = os.path.splitext(os.path.basename(path))[0]
    name = re.sub(r"[^A-Za-z0-9_]", "_", stem) or "kernelmod"
    if not name[0].isalpha() and name[0] != "_":
        name = f"m_{name}"
    return compile_source(source, module_name=name)


def _pick_kernel(module: Module, name: Optional[str]) -> str:
    if name is not None:
        try:
            module.function(name)
        except KeyError as exc:
            _usage(str(exc.args[0]) if exc.args else str(exc))
        return name
    names = list(module.functions)
    if len(names) != 1:
        _usage(f"module defines kernels {names}; pick one with --kernel")
    return names[0]


def _seed_inputs(module: Module, seed: int) -> Dict[str, List]:
    """Deterministic random contents for every global buffer."""
    rng = random.Random(seed)
    inputs: Dict[str, List] = {}
    for name, buffer in module.globals.items():
        if isinstance(buffer.element, FloatType):
            inputs[name] = [rng.uniform(-4.0, 4.0) for _ in range(buffer.count)]
        else:
            inputs[name] = [rng.randint(-100, 100) for _ in range(buffer.count)]
    return inputs


def _values_close(a, b, is_float: bool) -> bool:
    import math

    if not is_float:
        return a == b
    if math.isnan(a) and math.isnan(b):
        return True
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def cmd_compile(args: argparse.Namespace) -> int:
    module = _load_module(args.source)
    config = _resolve_config(args.config)
    target = _resolve_target(args.target)
    if args.guard:
        from .robust.guard import guarded_compile

        ladder = None
        if args.ladder:
            ladder = [name.strip() for name in args.ladder.split(",") if name.strip()]
            if not ladder:
                _usage(f"empty --ladder {args.ladder!r}")
            for name in ladder:
                _resolve_config(name)  # usage-exits on unknown rungs
        outcome = guarded_compile(
            module,
            config,
            target,
            unroll_factor=args.unroll,
            ladder=ladder,
            phase_budget_seconds=args.phase_budget,
            bundle_dir=args.bundle_dir,
            session=current_session(),
        )
        result = outcome.result
        for line in outcome.summary().splitlines():
            print(f"; {line}", file=sys.stderr)
        label = outcome.config_used
    elif args.cache_dir:
        from .vectorizer import CompileCache, cached_compile_module

        cache = CompileCache(args.cache_dir)
        result = cached_compile_module(
            module,
            config,
            target,
            unroll_factor=args.unroll,
            session=current_session(),
            cache=cache,
        )
        label = config.name
        hit = current_session().stats.value("cache.hits") > 0
        print(
            f"; compile cache {'hit' if hit else 'miss'} in {args.cache_dir}",
            file=sys.stderr,
        )
    else:
        result = compile_module(
            module, config, target,
            unroll_factor=args.unroll, session=current_session(),
        )
        label = config.name
    print(
        f"; compiled {args.source} with {label} for {target.name} "
        f"in {result.compile_seconds * 1000:.2f} ms",
        file=sys.stderr,
    )
    graphs = result.report.all_graphs()
    vectorized = [g for g in graphs if g.vectorized]
    print(
        f"; SLP graphs: {len(graphs)} attempted, {len(vectorized)} vectorized",
        file=sys.stderr,
    )
    if args.verbose:
        _print_phase_times(result, label)
    if args.emit_ir:
        print(print_module(result.module), end="")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    module = _load_module(args.source)
    kernel = _pick_kernel(module, args.kernel)
    config = _resolve_config(args.config)
    target = _resolve_target(args.target)
    compiled = compile_module(
        module, config, target,
        unroll_factor=args.unroll, session=current_session(),
    )
    if args.verbose:
        _print_phase_times(compiled, config.name)
    inputs = _seed_inputs(module, args.seed)
    result = simulate(
        compiled.module,
        kernel,
        target,
        [args.n],
        inputs=inputs,
        max_steps=args.max_steps,
        session=current_session(),
    )
    print(f"config:       {config.name}")
    print(f"cycles:       {result.cycles:.1f}")
    print(f"instructions: {result.instructions}")
    for name in sorted(result.globals_after):
        values = result.globals_after[name][: args.show]
        rendered = ", ".join(
            f"{v:.6g}" if isinstance(v, float) else str(v) for v in values
        )
        print(f"@{name}[:{args.show}] = [{rendered}]")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    import json

    module = _load_module(args.source)
    kernel = _pick_kernel(module, args.kernel)
    target = _resolve_target(args.target)
    inputs = _seed_inputs(module, args.seed)
    baseline = None
    exit_code = EXIT_OK
    rows: List[Dict] = []
    if not args.json:
        print(f"{'config':8s} {'cycles':>12s} {'speedup':>8s} {'vectorized':>11s} {'correct':>8s}")
    for config in ALL_CONFIGS:
        # one derived session per configuration: its snapshot holds this
        # config's compile counters plus the simulation's cycle histogram,
        # and nothing from the other configurations
        config_session = current_session().derive(name=f"compare:{config.name}")
        compiled = compile_module(
            module, config, target,
            unroll_factor=args.unroll, session=config_session,
        )
        result = simulate(
            compiled.module, kernel, target, [args.n],
            inputs=inputs, session=config_session,
        )
        counters = config_session.stats.snapshot()
        if baseline is None:
            baseline = result
        correct = True
        for name, values in result.globals_after.items():
            is_float = isinstance(module.globals[name].element, FloatType)
            for x, y in zip(values, baseline.globals_after[name]):
                if not _values_close(x, y, is_float):
                    correct = False
                    break
        if not correct:
            exit_code = EXIT_MISMATCH
        rows.append(
            {
                "config": config.name,
                "cycles": result.cycles,
                "speedup": baseline.cycles / result.cycles,
                "instructions": result.instructions,
                "vectorized_graphs": len(compiled.report.vectorized_graphs()),
                "correct": correct,
                "compile_seconds": compiled.compile_seconds,
                "phase_seconds": compiled.phase_seconds,
                "counters": counters,
            }
        )
        if not args.json:
            print(
                f"{config.name:8s} {result.cycles:12.1f} "
                f"{baseline.cycles / result.cycles:8.2f} "
                f"{len(compiled.report.vectorized_graphs()):11d} "
                f"{str(correct):>8s}"
            )
        if args.verbose and not args.json:
            _print_phase_times(compiled, config.name)
        if args.stats:
            print(
                config_session.stats.report(
                    title=f"Statistics Collected ({config.name})"
                ),
                file=sys.stderr,
            )
    args._stats_printed = True
    if args.json:
        document = {
            "source": args.source,
            "kernel": kernel,
            "target": target.name,
            "n": args.n,
            "seed": args.seed,
            "unroll": args.unroll,
            "configs": rows,
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    return exit_code


def _load_module_or_kernel(source: str) -> Module:
    """Resolve an ``explain`` source: a file path, or a registered
    benchmark kernel name (``repro explain fig3-trunk-reorder``)."""
    import os

    if os.path.exists(source) or os.sep in source:
        return _load_module(source)
    from .kernels.suite import kernel_named

    try:
        return kernel_named(source).build()
    except KeyError:
        _usage(
            f"{source}: no such file, and no benchmark kernel is "
            "registered under that name"
        )


def cmd_explain(args: argparse.Namespace) -> int:
    import json
    import os

    from .observe.explain import explain_module, render_stories

    module = _load_module_or_kernel(args.source)
    config = _resolve_config(args.config)
    target = _resolve_target(args.target)
    if args.function:
        try:
            module.function(args.function)
        except KeyError as exc:
            _usage(str(exc.args[0]) if exc.args else str(exc))
    result = explain_module(
        module, config, target,
        unroll_factor=args.unroll, session=current_session(),
    )
    # surface the explain run's decisions through --journal FILE
    current_session().absorb(result.capture)
    stories = result.stories
    if args.function:
        stories = [s for s in stories if s.function == args.function]
    if args.dot:
        os.makedirs(args.dot, exist_ok=True)
        written = 0
        for story in stories:
            for name, text in sorted(story.dots().items()):
                path = os.path.join(
                    args.dot, f"graph{story.graph_id}-{name}.dot"
                )
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                written += 1
        print(f"; wrote {written} DOT file(s) to {args.dot}", file=sys.stderr)
    if args.json:
        doc = result.to_json()
        if args.function:
            doc["graphs"] = [
                g for g in doc["graphs"] if g["function"] == args.function
            ]
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render_stories(stories, verbose=args.verbose), end="")
    return EXIT_OK


def _report_html(args: argparse.Namespace) -> int:
    """``repro report RESULTS.json``: render the HTML benchmark report."""
    import json

    from .observe.report_html import load_results, regressions, write_report

    try:
        doc = load_results(args.source)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        _usage(f"cannot load {args.source}: {exc}")
    baseline = None
    if args.baseline:
        try:
            baseline = load_results(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            _usage(f"cannot load baseline {args.baseline}: {exc}")
    deltas = write_report(
        args.output,
        doc,
        baseline=baseline,
        dots=_worst_miss_dots(doc, args.dot_worst),
        title=f"SLP benchmark report ({doc.get('target', '?')})",
    )
    print(f"; wrote HTML report to {args.output}", file=sys.stderr)
    bad = regressions(deltas)
    for delta in deltas:
        print(f"; {delta.describe()}", file=sys.stderr)
    if bad:
        print(
            f"repro: report: {len(bad)} regression(s) against "
            f"{args.baseline}",
            file=sys.stderr,
        )
        return EXIT_MISMATCH
    return EXIT_OK


def _worst_miss_dots(doc, limit: int):
    """DOT sources for the worst-performing kernels' SLP graphs.

    Re-explains the ``limit`` registered kernels with the lowest SN-SLP
    speedup; best-effort — a kernel that is not registered (or fails to
    recompile) is silently skipped, never failing the report.
    """
    if not limit:
        return {}
    from .kernels.suite import kernel_named
    from .observe.explain import explain_module
    from .vectorizer import config_named

    ranked = sorted(
        (
            run
            for run in doc.get("runs", [])
            if run.get("config") == "SN-SLP" and run.get("speedup") is not None
        ),
        key=lambda run: float(run["speedup"]),
    )
    dots = {}
    for run in ranked[:limit]:
        try:
            kernel = kernel_named(str(run["kernel"]))
            explained = explain_module(
                kernel.build(), config_named("SN-SLP"),
                session=current_session(),
            )
        except Exception:  # noqa: BLE001 - decorative section only
            continue
        for story in explained.stories:
            dot = story.dots().get("graph")
            if dot:
                dots[
                    f"{run['kernel']} graph #{story.graph_id} "
                    f"({story.verdict})"
                ] = dot
    return dots


def cmd_report(args: argparse.Namespace) -> int:
    if args.source.endswith(".json"):
        return _report_html(args)
    module = _load_module(args.source)
    config = _resolve_config(args.config)
    target = _resolve_target(args.target)
    compiled = compile_module(
        module, config, target,
        unroll_factor=args.unroll, session=current_session(),
    )
    print(compiled.report.summary())
    missed = compiled.report.missed_reasons()
    if missed:
        print("missed-vectorization reasons (gather nodes in failed graphs):")
        for reason, count in missed.items():
            print(f"  {count:3d}x {reason}")
    partial = compiled.report.partial_gather_reasons()
    if partial:
        print("partial gathers inside vectorized graphs:")
        for reason, count in partial.items():
            print(f"  {count:3d}x {reason}")
    if args.verbose:
        _print_phase_times(compiled, config.name)
    print()
    for graph in compiled.report.all_graphs():
        verdict = "vectorized" if graph.vectorized else "not profitable"
        print(f"[{graph.kind}] {verdict} (cost {graph.cost:+.1f})")
        print(graph.dump)
        for record in graph.supernodes:
            moves = ""
            if record.leaf_swaps or record.trunk_swaps:
                moves = (
                    f", applied {record.leaf_swaps} leaf swap(s) + "
                    f"{record.trunk_swaps} trunk swap(s)"
                )
            print(
                f"  {record.kind}-node: {record.lanes} lanes x {record.size} "
                f"trunks{' (inverse ops)' if record.contains_inverse else ''}"
                f"{moves}"
            )
        print()
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import run_campaign, run_injection_campaign, replay_file

    target = _resolve_target(args.target)

    if args.inject:
        result = run_injection_campaign(
            budget=args.budget,
            seed=args.seed,
            target=target,
            input_seed=args.input_seed,
            max_ulps=args.max_ulps,
            phase_budget_seconds=args.phase_budget,
            progress=lambda line: print(f"; {line}", file=sys.stderr),
            session=current_session(),
        )
        print(result.summary())
        if args.stats:
            print(
                _stats_table(result.stats, "Injection Campaign Statistics"),
                file=sys.stderr,
            )
            args._stats_printed = True
        return EXIT_OK if result.ok else EXIT_MISMATCH

    if args.replay:
        report = replay_file(
            args.replay,
            target=target,
            input_seed=args.input_seed,
            max_ulps=args.max_ulps,
        )
        print(f"replay {args.replay}:")
        for outcome in report.outcomes:
            line = f"  {outcome.config:10s} {outcome.status}"
            if outcome.detail:
                line += f"  ({outcome.detail})"
            print(line)
        if report.reference_trapped:
            print("  reference run trapped: the reproducer is input-sensitive")
        if args.stats:
            # per-config counter snapshots from each outcome's session
            for outcome in report.outcomes:
                print(
                    _stats_table(
                        outcome.counters, f"Replay Counters ({outcome.config})"
                    ),
                    file=sys.stderr,
                )
            args._stats_printed = True
        return EXIT_OK if report.ok else EXIT_MISMATCH

    from .bench.parallel import default_jobs

    jobs = args.jobs if args.jobs is not None else default_jobs()
    service = None
    if args.resilient and not args.service:
        _usage("--resilient requires --service")
    if args.service:
        from .serve.service import CompileService

        service = CompileService(
            workers=jobs,
            session=current_session(),
            name="fuzz-service",
        )
        service.start()
    try:
        result = run_campaign(
            budget=args.budget,
            seed=args.seed,
            out_dir=args.out,
            target=target,
            input_seed=args.input_seed,
            max_ulps=args.max_ulps,
            reduce_failures=not args.no_reduce,
            progress=lambda line: print(f"; {line}", file=sys.stderr),
            jobs=jobs,
            session=current_session(),
            service=service,
            resilient=args.resilient,
        )
    finally:
        if service is not None:
            service.close()
    print(result.summary())
    if args.stats:
        print(
            _stats_table(result.stats, "Fuzzing Campaign Statistics"),
            file=sys.stderr,
        )
        args._stats_printed = True
    for failure in result.failures:
        if failure.reduction is not None:
            print(
                f"; failure #{failure.index}: reduced "
                f"{failure.reduction.instructions_before} -> "
                f"{failure.reduction.instructions_after} instruction(s)",
                file=sys.stderr,
            )
    return EXIT_OK if result.ok else EXIT_MISMATCH


def cmd_bench(args: argparse.Namespace) -> int:
    import json

    from .bench.parallel import default_jobs, run_suite_parallel
    from .bench.runner import speedup_over
    from .kernels.suite import kernel_named

    target = _resolve_target(args.target)
    kernels = None
    if args.kernel:
        try:
            kernels = [kernel_named(name) for name in args.kernel]
        except KeyError as exc:
            _usage(str(exc.args[0]) if exc.args else str(exc))
    jobs = args.jobs if args.jobs is not None else default_jobs()
    service = None
    if args.resilient and not args.service:
        _usage("--resilient requires --service")
    if args.service:
        from .serve.service import CompileService

        service = CompileService(
            workers=jobs,
            cache_dir=args.cache_dir,
            default_timeout=args.service_timeout,
            session=current_session(),
            name="bench-service",
        )
        service.start()
    try:
        suite = run_suite_parallel(
            kernels, target=target, seed=args.seed, jobs=jobs,
            journal=args.journal_summary, service=service,
            resilient=args.resilient,
        )
    finally:
        if service is not None:
            snapshot = service.describe()
            service.close()
            counters = snapshot["counters"]
            print(
                f"; service: {len(snapshot['workers'])} worker(s), "
                f"{int(counters.get('serve.tasks', 0))} task(s), "
                f"{snapshot['compiles_per_sec']:.2f} compiles/sec, "
                f"task-cache hits "
                f"{int(counters.get('serve.task_cache.hits', 0))}, "
                f"cross-worker hits "
                f"{int(counters.get('cache.cross_worker_hits', 0))}",
                file=sys.stderr,
            )
    exit_code = EXIT_OK
    rows: List[Dict] = []
    if not args.json:
        print(
            f"{'kernel':24s} {'config':8s} {'cycles':>12s} {'speedup':>8s} "
            f"{'correct':>8s}"
        )
    for kernel_name, runs in suite.items():
        for config_name, run in runs.items():
            speedup = speedup_over(runs, config_name)
            if not run.correct:
                exit_code = EXIT_MISMATCH
            row: Dict = {
                "kernel": kernel_name,
                "config": config_name,
                "cycles": run.cycles,
                "speedup": speedup,
                "correct": run.correct,
                "vectorized_graphs": run.vectorized_graphs,
                "attempted_graphs": run.attempted_graphs,
                "phase_seconds": run.phase_seconds,
                "counters": run.counters,
            }
            if run.journal is not None:
                row["journal"] = run.journal
            rows.append(row)
            if not args.json:
                print(
                    f"{kernel_name:24s} {config_name:8s} {run.cycles:12.1f} "
                    f"{speedup:8.2f} {str(run.correct):>8s}"
                )
    _bench_gauges(rows)
    if args.json:
        document = {
            "target": target.name,
            "seed": args.seed,
            "jobs": jobs,
            "runs": rows,
        }
        metrics = current_session().metrics
        if metrics.enabled:
            document["metrics"] = metrics.summary()
        print(json.dumps(document, indent=2, sort_keys=True))
    return exit_code


def _bench_gauges(rows: List[Dict]) -> None:
    """Record deterministic per-config aggregates as gauges.

    Total simulated cycles and geomean speedups are pure functions of
    the code under test (no wall clock), so two runs of one commit
    export equal values (``--metrics-out``, the ``--json`` document's
    ``metrics``) until a real change lands.
    """
    import math

    metrics = current_session().metrics
    if not metrics.enabled or not rows:
        return
    speedups: Dict[str, List[float]] = {}
    cycles: Dict[str, float] = {}
    for row in rows:
        config = str(row["config"])
        speedups.setdefault(config, []).append(float(row["speedup"]))
        cycles[config] = cycles.get(config, 0.0) + float(row["cycles"])
    for config in sorted(speedups):
        values = speedups[config]
        geomean = math.exp(sum(math.log(v) for v in values) / len(values))
        metrics.gauge(
            f"bench.geomean_speedup.{config}", geomean,
            description="geomean speedup over O3 across benched kernels",
        )
        metrics.gauge(
            f"bench.total_cycles.{config}", cycles[config],
            description="total simulated cycles across benched kernels",
        )


def cmd_profile(args: argparse.Namespace) -> int:
    from .observe.profile import render_top_table, self_time_stats, write_folded

    module = _load_module_or_kernel(args.source)
    kernel = _pick_kernel(module, args.kernel)
    config = _resolve_config(args.config)
    target = _resolve_target(args.target)
    session = current_session()
    session.tracer.enable()  # the profile *is* the trace
    inputs = _seed_inputs(module, args.seed)
    for _ in range(max(1, args.repeat)):
        compiled = compile_module(
            module, config, target,
            unroll_factor=args.unroll,
            session=session.derive(name="profile-compile"),
        )
        simulate(
            compiled.module,
            kernel,
            target,
            [args.n],
            inputs=inputs,
            session=session.derive(name="profile-sim"),
        )
    spans = session.tracer.of("span")
    stats = self_time_stats(spans)
    # artifacts before the table: a closed stdout pipe (| head, | grep -q)
    # must not lose the folded output
    if args.folded:
        write_folded(args.folded, spans)
        print(
            f"; wrote folded stacks to {args.folded} "
            "(feed to flamegraph.pl or drop into speedscope.app)",
            file=sys.stderr,
        )
    print(
        f"; profiled {args.source} ({config.name}, {target.name}): "
        f"{len(spans)} span(s) over "
        f"{max(1, args.repeat)} repeat(s)",
        file=sys.stderr,
    )
    print(render_top_table(stats, args.top))
    return EXIT_OK


def cmd_bisect(args: argparse.Namespace) -> int:
    from .robust.bisect import run_bisect

    module = _load_module(args.source)
    config = _resolve_config(args.config)
    target = _resolve_target(args.target)
    kernel = _pick_kernel(module, args.kernel)
    fn_args = None
    if args.n is not None:
        fn_args = tuple(args.n for _ in module.function(kernel).arguments)
    try:
        result = run_bisect(
            module,
            config,
            target,
            unroll_factor=args.unroll,
            kernel=kernel,
            args=fn_args,
            input_seed=args.input_seed,
            max_ulps=args.max_ulps,
        )
    except ValueError as exc:  # e.g. the reference run traps
        _usage(str(exc))
    print(result.summary())
    if args.decisions:
        for index, description in enumerate(result.decisions, start=1):
            marker = " <-- first bad" if index == result.first_bad else ""
            print(f"  #{index:3d} {description}{marker}")
    return EXIT_OK


def cmd_serve(args: argparse.Namespace) -> int:
    import json

    from .serve.service import CompileService
    from .serve.wire import SocketServer, serve_stream

    jobs = args.jobs
    if jobs is None:
        from .bench.parallel import default_jobs

        jobs = default_jobs()
    service = CompileService(
        workers=jobs,
        cache_dir=args.cache_dir,
        cache_entries=args.cache_entries,
        max_pending=args.max_pending,
        default_timeout=args.request_timeout,
        slow_log_seconds=args.slow_log,
        session=current_session(),
        name="serve",
    )
    service.start()
    where = (
        f"socket {args.socket}" if args.socket else "JSONL on stdin"
    )
    cache = f", cache {args.cache_dir}" if args.cache_dir else ""
    print(
        f"; repro serve: {service.workers} warm worker(s), {where}{cache}",
        file=sys.stderr,
    )
    try:
        if args.socket:
            SocketServer(service, args.socket).serve_forever()
        else:
            serve_stream(
                service, sys.stdin, sys.stdout,
                faults=service.session.faults,
            )
    finally:
        snapshot = service.describe()
        slow = list(service.slow_records)
        service.close(drain=True)
        if args.slow_log_out:
            with open(args.slow_log_out, "w", encoding="utf-8") as handle:
                for record in slow:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
            print(
                f"; wrote {len(slow)} slow-request record(s) to "
                f"{args.slow_log_out}",
                file=sys.stderr,
            )
        print(
            f"; served {int(snapshot['counters'].get('serve.tasks', 0))} "
            f"task(s) at {snapshot['compiles_per_sec']:.2f} compiles/sec "
            f"({snapshot['respawns']} respawn(s))",
            file=sys.stderr,
        )
    return EXIT_OK


def _render_stats_dashboard(doc: Dict) -> str:
    """The ``repro top`` screen: one service snapshot as a text dashboard."""
    queue = doc.get("queue_seconds") or {}
    turnaround = doc.get("turnaround_seconds") or {}
    counters = doc.get("counters") or {}
    lines = [
        f"{doc.get('name', 'service')}: up {doc.get('uptime_seconds', 0.0):.1f}s  "
        f"{doc.get('compiles_per_sec', 0.0):.2f} compiles/sec  "
        f"{doc.get('respawns', 0)} respawn(s)  "
        f"{doc.get('slow_requests', 0)} slow",
        f"  queue: {doc.get('pending', 0)} pending, "
        f"{doc.get('inflight', 0)} inflight; "
        f"wait p50 {queue.get('p50', 0.0) * 1e3:.1f}ms "
        f"p99 {queue.get('p99', 0.0) * 1e3:.1f}ms; "
        f"turnaround p50 {turnaround.get('p50', 0.0) * 1e3:.1f}ms "
        f"p99 {turnaround.get('p99', 0.0) * 1e3:.1f}ms",
        f"  tasks: {int(counters.get('serve.tasks', 0))} done, "
        f"{int(counters.get('serve.errors', 0))} error(s), "
        f"{int(counters.get('serve.requeued', 0))} requeued; "
        f"task-cache hit rate {doc.get('cache_hit_rate', 0.0) * 100:.1f}%",
        f"  {'worker':>6s} {'pid':>7s} {'gen':>3s} {'alive':>5s} "
        f"{'inflight':>8s} {'sent':>6s} {'util%':>6s}",
    ]
    for worker in doc.get("workers", []):
        lines.append(
            f"  {worker.get('index', 0):6d} {worker.get('pid', 0):7d} "
            f"{worker.get('generation', 0):3d} "
            f"{str(bool(worker.get('alive'))):>5s} "
            f"{worker.get('inflight', 0):8d} "
            f"{worker.get('tasks_sent', 0):6d} "
            f"{worker.get('utilization', 0.0) * 100:6.1f}"
        )
    return "\n".join(lines)


def cmd_top(args: argparse.Namespace) -> int:
    import json
    import time

    from .serve.wire import ServiceClient

    try:
        client = ServiceClient(args.socket)
    except (ConnectionError, OSError) as exc:
        _usage(f"cannot reach service at {args.socket}: {exc}")
    try:
        for iteration in range(max(1, args.count)):
            if iteration:
                time.sleep(args.interval)
            response = client.request({"kind": "stats"})
            if not response.get("ok"):
                error = response.get("error") or {}
                print(
                    f"repro: top: {error.get('type', 'error')}: "
                    f"{error.get('message', response)}",
                    file=sys.stderr,
                )
                return EXIT_CRASH
            doc = response["result"]
            if args.json:
                print(json.dumps(doc, sort_keys=True), flush=True)
            else:
                print(_render_stats_dashboard(doc), flush=True)
    except (ConnectionError, OSError) as exc:
        print(f"repro: top: connection lost: {exc}", file=sys.stderr)
        return EXIT_CRASH
    finally:
        client.close()
    return EXIT_OK


def _trace_waterfalls(events, limit: int, slow: float) -> List[Dict]:
    """Per-request latency breakdowns from a Chrome trace's span tree.

    Groups spans by trace id, anchors each group at its earliest start,
    and orders requests slowest-first so ``--limit`` keeps the
    interesting tail."""
    by_trace: Dict[str, List] = {}
    for event in events:
        if event.trace_id:
            by_trace.setdefault(event.trace_id, []).append(event)
    requests = []
    for trace_id, spans in by_trace.items():
        base = min(span.start_ns for span in spans)
        total = max(span.end_ns for span in spans) - base
        if total / 1e9 < slow:
            continue
        rows = [
            {
                "name": span.name,
                "offset_ms": round((span.start_ns - base) / 1e6, 3),
                "duration_ms": round(span.duration_ns / 1e6, 3),
                "pid": span.pid,
                "generation": span.generation,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "args": {
                    key: value
                    for key, value in span.args.items()
                    if isinstance(value, (str, int, float, bool))
                },
            }
            for span in sorted(
                spans, key=lambda s: (s.start_ns, -s.duration_ns)
            )
        ]
        requests.append(
            {
                "trace_id": trace_id,
                "total_ms": round(total / 1e6, 3),
                "spans": rows,
            }
        )
    requests.sort(key=lambda r: (-r["total_ms"], r["trace_id"]))
    return requests[:limit] if limit else requests


def cmd_waterfall(args: argparse.Namespace) -> int:
    import json

    from .observe.trace import load_chrome_trace

    try:
        events = load_chrome_trace(args.trace)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        _usage(f"cannot load trace {args.trace}: {exc}")
    requests = _trace_waterfalls(events, args.limit, args.slow)
    if args.json:
        print(json.dumps({"requests": requests}, indent=2, sort_keys=True))
        return EXIT_OK
    if not requests:
        print(
            "; no traced requests above "
            f"{args.slow:.3f}s in {args.trace}",
            file=sys.stderr,
        )
        return EXIT_OK
    width = 32
    for request in requests:
        total = max(request["total_ms"], 1e-9)
        print(f"trace {request['trace_id']}  total {total:.3f} ms")
        for span in request["spans"]:
            start = int(width * span["offset_ms"] / total)
            length = max(1, int(width * span["duration_ms"] / total))
            bar = " " * min(start, width - 1) + "#" * min(length, width - start)
            where = (
                f"pid{span['pid']}"
                + (f".g{span['generation']}" if span["generation"] else "")
                if span["pid"]
                else "client"
            )
            print(
                f"  [{bar:<{width}s}] {span['duration_ms']:9.3f} ms  "
                f"{span['name']}  ({where})"
            )
        print()
    return EXIT_OK


def cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from .serve.chaos import DEFAULT_KERNELS, run_chaos_campaign

    kernel_names = tuple(args.kernel) if args.kernel else DEFAULT_KERNELS
    from .kernels.suite import kernel_named

    try:
        for name in kernel_names:
            kernel_named(name)
    except KeyError as exc:
        _usage(str(exc.args[0]) if exc.args else str(exc))
    result = run_chaos_campaign(
        budget=args.budget,
        seed=args.seed,
        kernel_names=kernel_names,
        fuzz_programs=args.fuzz_programs,
        progress=lambda line: print(f"; {line}", file=sys.stderr),
        session=current_session(),
    )
    print(result.summary())
    for run in result.runs:
        if run.status in ("escaped", "fatal"):
            print(f"  [{run.status}] {run.scenario}: {run.detail}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"; wrote chaos classification to {args.out}", file=sys.stderr)
    return EXIT_OK if result.ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Super-Node SLP reproduction: compile and run kernels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_config: bool = True) -> None:
        p.add_argument("source", help="kernel-language source file (or textual IR when named *.ir)")
        if with_config:
            p.add_argument(
                "--config",
                default="SN-SLP",
                help="vectorizer configuration: O3, SLP, LSLP, SN-SLP",
            )
        p.add_argument(
            "--target",
            default=DEFAULT_TARGET.name,
            help="target machine (skylake-like, sse4-like, no-addsub, scalar)",
        )
        p.add_argument(
            "--unroll",
            type=int,
            default=0,
            metavar="U",
            help="unroll canonical loops by U before vectorizing",
        )
        p.add_argument(
            "--stats",
            action="store_true",
            help="print the statistic counter table on stderr (LLVM -stats)",
        )
        p.add_argument(
            "--remarks",
            metavar="FILE",
            help="write optimization remarks as JSONL to FILE (LLVM -Rpass)",
        )
        p.add_argument(
            "--trace-out",
            metavar="FILE",
            help="write a Chrome trace-event JSON file (LLVM -ftime-trace)",
        )
        p.add_argument(
            "--journal",
            metavar="FILE",
            help="write the vectorizer's decision journal as JSONL to FILE",
        )
        p.add_argument(
            "-v",
            "--verbose",
            action="store_true",
            help="print per-phase compile times on stderr (-time-passes)",
        )
        metrics_flags(p)

    def metrics_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--metrics-out",
            metavar="FILE",
            help="write gauges/histograms/counters as Prometheus text "
            "exposition to FILE (arms the session metrics registry)",
        )
        p.add_argument(
            "--log",
            metavar="FILE",
            help="write the structured event log (service lifecycle, "
            "retries, degradations, chaos runs) as JSONL to FILE",
        )
        p.add_argument(
            "--log-level",
            choices=("debug", "info", "warn", "error"),
            default=None,
            metavar="LEVEL",
            help="event-log severity threshold for --log (default: info)",
        )

    p_compile = sub.add_parser("compile", help="compile and optionally print IR")
    common(p_compile)
    p_compile.add_argument("--emit-ir", action="store_true", help="print textual IR")
    p_compile.add_argument(
        "--guard",
        action="store_true",
        help="compile through the guarded driver: checkpoint every phase, "
        "roll back failures, degrade down the config ladder",
    )
    p_compile.add_argument(
        "--ladder",
        metavar="C1,C2,...",
        help="degradation ladder for --guard (default: SN-SLP,LSLP,SLP,O3)",
    )
    p_compile.add_argument(
        "--phase-budget",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget per pipeline phase under --guard",
    )
    p_compile.add_argument(
        "--bundle-dir",
        metavar="DIR",
        help="write a reduced failure-NNNN crash bundle under DIR when a "
        "guarded compile captures a crash",
    )
    p_compile.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="content-addressed compile cache: reuse the stored result when "
        "the printed module + config + target + unroll factor match",
    )
    p_compile.set_defaults(fn=cmd_compile)

    p_run = sub.add_parser("run", help="compile and execute one kernel")
    common(p_run)
    p_run.add_argument("--kernel", help="kernel name (default: the only one)")
    p_run.add_argument("--n", type=int, default=64, help="trip-count argument")
    p_run.add_argument("--seed", type=int, default=0, help="input seed")
    p_run.add_argument("--show", type=int, default=8, help="buffer elements to print")
    p_run.add_argument(
        "--max-steps",
        type=int,
        metavar="N",
        help="interpreter watchdog: abort after N executed instructions "
        f"(exit code {EXIT_BUDGET})",
    )
    p_run.set_defaults(fn=cmd_run)

    p_compare = sub.add_parser(
        "compare", help="run all configurations; verify and report speedups"
    )
    common(p_compare, with_config=False)
    p_compare.add_argument("--kernel", help="kernel name (default: the only one)")
    p_compare.add_argument("--n", type=int, default=64)
    p_compare.add_argument("--seed", type=int, default=0)
    p_compare.add_argument(
        "--json",
        action="store_true",
        help="print a structured JSON document (cycles, phase times, counters)",
    )
    p_compare.set_defaults(fn=cmd_compare)

    p_report = sub.add_parser(
        "report",
        help="show the vectorizer's SLP graphs, or render an HTML "
        "benchmark report from a bench JSON file",
    )
    common(p_report)
    p_report.add_argument(
        "--baseline",
        metavar="OLD.json",
        help="bench JSON to diff against (JSON mode); cycle/counter "
        f"regressions exit with code {EXIT_MISMATCH}",
    )
    p_report.add_argument(
        "-o",
        "--output",
        default="report.html",
        metavar="FILE",
        help="HTML output path for JSON mode (default: report.html)",
    )
    p_report.add_argument(
        "--dot-worst",
        type=int,
        default=2,
        metavar="N",
        help="embed SLP graph DOT for the N slowest kernels (0 disables)",
    )
    p_report.set_defaults(fn=cmd_report)

    p_explain = sub.add_parser(
        "explain",
        help="narrate the vectorizer's per-graph decisions "
        "(seeds, look-ahead picks, APO reorders, cost verdicts)",
    )
    p_explain.add_argument(
        "source",
        help="kernel-language source file, textual IR (*.ir), or a "
        "registered benchmark kernel name",
    )
    p_explain.add_argument(
        "--function",
        metavar="F",
        help="only narrate graphs inside function F",
    )
    p_explain.add_argument(
        "--config",
        default="SN-SLP",
        help="vectorizer configuration: O3, SLP, LSLP, SN-SLP",
    )
    p_explain.add_argument(
        "--target",
        default=DEFAULT_TARGET.name,
        help="target machine (skylake-like, sse4-like, no-addsub, scalar)",
    )
    p_explain.add_argument(
        "--unroll",
        type=int,
        default=0,
        metavar="U",
        help="unroll canonical loops by U before vectorizing",
    )
    p_explain.add_argument(
        "--dot",
        metavar="DIR",
        help="write per-graph DOT files (chains before/after reorder, "
        "final SLP graph) under DIR",
    )
    p_explain.add_argument(
        "--json",
        action="store_true",
        help="print the stories as a structured JSON document",
    )
    p_explain.add_argument(
        "--journal",
        metavar="FILE",
        help="also write the raw decision-journal JSONL to FILE",
    )
    p_explain.add_argument(
        "--stats",
        action="store_true",
        help="print the statistic counter table on stderr (LLVM -stats)",
    )
    p_explain.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="include each graph's textual dump in the narration",
    )
    metrics_flags(p_explain)
    p_explain.set_defaults(fn=cmd_explain)

    # fuzz generates its own programs — no positional source argument
    p_fuzz = sub.add_parser(
        "fuzz", help="run a differential-testing campaign (or replay a reproducer)"
    )
    p_fuzz.add_argument(
        "--budget",
        default="30s",
        help="campaign budget: '200' (programs) or '30s'/'2m'/'1h' (wall clock)",
    )
    p_fuzz.add_argument("--seed", type=int, default=0, help="campaign seed")
    p_fuzz.add_argument(
        "--out",
        metavar="DIR",
        help="write failure-NNNN artifact directories under DIR",
    )
    p_fuzz.add_argument(
        "--replay",
        metavar="FILE",
        help="re-run the oracle on a saved .ir reproducer instead of fuzzing",
    )
    p_fuzz.add_argument(
        "--no-reduce",
        action="store_true",
        help="save failures without delta-debugging them",
    )
    p_fuzz.add_argument(
        "--target",
        default=DEFAULT_TARGET.name,
        help="target machine (skylake-like, sse4-like, no-addsub, scalar)",
    )
    p_fuzz.add_argument(
        "--input-seed", type=int, default=1, help="seed for buffer contents"
    )
    p_fuzz.add_argument(
        "--max-ulps",
        type=int,
        default=4096,
        help="float comparison tolerance in ULPs",
    )
    p_fuzz.add_argument(
        "--stats",
        action="store_true",
        help="print the campaign bucket counter table on stderr",
    )
    p_fuzz.add_argument(
        "--inject",
        action="store_true",
        help="fault-injection campaign: arm every registered (site, mode) "
        "in turn and verify the guarded driver absorbs each fault",
    )
    p_fuzz.add_argument(
        "--phase-budget",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="per-phase wall-clock budget for --inject guarded compiles",
    )
    p_fuzz.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for count budgets (default: all cores); "
        "results are bit-identical to a serial run",
    )
    p_fuzz.add_argument(
        "--service",
        action="store_true",
        help="dispatch count-budget chunks through a persistent "
        "warm-worker compile service (see `repro serve`)",
    )
    p_fuzz.add_argument(
        "--resilient",
        action="store_true",
        help="with --service: resubmit a failed chunk at once (at most "
        "twice), then run it serially in-process (results stay "
        "bit-identical)",
    )
    metrics_flags(p_fuzz)
    p_fuzz.set_defaults(fn=cmd_fuzz)

    p_bench = sub.add_parser(
        "bench", help="run the kernel benchmark suite (optionally in parallel)"
    )
    p_bench.add_argument(
        "--kernel",
        action="append",
        metavar="NAME",
        help="benchmark kernel(s) to run (default: the whole suite); repeatable",
    )
    p_bench.add_argument(
        "--target",
        default=DEFAULT_TARGET.name,
        help="target machine (skylake-like, sse4-like, no-addsub, scalar)",
    )
    p_bench.add_argument("--seed", type=int, default=0, help="input seed")
    p_bench.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: all cores); cycles/counters are "
        "bit-identical to a serial run",
    )
    p_bench.add_argument(
        "--json",
        action="store_true",
        help="print a structured JSON document instead of the table",
    )
    p_bench.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write a Chrome trace-event JSON file; spans from worker "
        "processes are merged in, one process track per worker",
    )
    p_bench.add_argument(
        "--remarks",
        metavar="FILE",
        help="write optimization remarks as JSONL to FILE (worker remarks "
        "are merged in, tagged with worker_pid)",
    )
    p_bench.add_argument(
        "--journal-summary",
        action="store_true",
        help="attach a decision-journal summary to every run (JSON mode); "
        "off by default so bench results stay bit-identical",
    )
    p_bench.add_argument(
        "--service",
        action="store_true",
        help="run through a persistent warm-worker compile service: one "
        "pool (and, with --cache-dir, one shared result cache) for the "
        "whole invocation; results stay bit-identical to serial",
    )
    p_bench.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="with --service: shared cross-worker cache directory "
        "(compile artifacts + bench-pair results, unbounded)",
    )
    p_bench.add_argument(
        "--service-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task deadline under --service; a timed-out task exits "
        f"with code {EXIT_BUDGET}",
    )
    p_bench.add_argument(
        "--resilient",
        action="store_true",
        help="with --service: resubmit a failed pair at once (at most "
        "twice), then run it serially in-process (results stay "
        "bit-identical)",
    )
    metrics_flags(p_bench)
    p_bench.set_defaults(fn=cmd_bench)

    p_serve = sub.add_parser(
        "serve",
        help="run the compile service: a persistent warm-worker pool "
        "answering JSONL requests on stdin (or an AF_UNIX socket)",
    )
    p_serve.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="warm worker processes (default: all cores)",
    )
    p_serve.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="shared cross-worker cache directory (compile artifacts + "
        "bench-pair results); survives service restarts",
    )
    p_serve.add_argument(
        "--cache-entries",
        type=int,
        default=None,
        metavar="N",
        help="entries kept per cache namespace: a write past the bound "
        "evicts the entries read or written least recently (default: "
        "unbounded)",
    )
    p_serve.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        metavar="N",
        help="bounded request queue: maximum unresolved tasks before "
        "submissions block (backpressure)",
    )
    p_serve.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request deadline (a wedged task's worker is "
        "killed and respawned)",
    )
    p_serve.add_argument(
        "--socket",
        metavar="PATH",
        help="serve on an AF_UNIX socket at PATH instead of stdin/stdout",
    )
    p_serve.add_argument(
        "--slow-log",
        type=float,
        default=None,
        metavar="SECONDS",
        help="record a structured latency breakdown (queue/marshal/"
        "compile/overhead) for every request slower than SECONDS",
    )
    p_serve.add_argument(
        "--slow-log-out",
        metavar="FILE",
        help="write the --slow-log records as JSONL to FILE on shutdown",
    )
    metrics_flags(p_serve)
    p_serve.set_defaults(fn=cmd_serve)

    p_top = sub.add_parser(
        "top",
        help="live service dashboard: poll a `repro serve --socket` "
        "instance's stats op (queue depth, per-worker utilization, "
        "cache hit rate, p50/p99 latency, respawns)",
    )
    p_top.add_argument(
        "--socket",
        required=True,
        metavar="PATH",
        help="AF_UNIX socket of the running service",
    )
    p_top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="seconds between polls (default: 2)",
    )
    p_top.add_argument(
        "--count",
        type=int,
        default=1,
        metavar="N",
        help="snapshots to print before exiting (default: 1; use a "
        "large N for a watch-style loop)",
    )
    p_top.add_argument(
        "--json",
        action="store_true",
        help="print each snapshot as one JSON line instead of the table",
    )
    p_top.set_defaults(fn=cmd_top)

    p_waterfall = sub.add_parser(
        "waterfall",
        help="per-request latency waterfalls from a --trace-out Chrome "
        "trace: queue/dispatch/compile segments per traced request",
    )
    p_waterfall.add_argument(
        "trace",
        help="Chrome trace-event JSON file written by --trace-out",
    )
    p_waterfall.add_argument(
        "--slow",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="only show requests whose end-to-end time exceeds SECONDS",
    )
    p_waterfall.add_argument(
        "--limit",
        type=int,
        default=10,
        metavar="N",
        help="show the N slowest requests (default: 10; 0 = all)",
    )
    p_waterfall.add_argument(
        "--json",
        action="store_true",
        help="print the breakdowns as a structured JSON document",
    )
    p_waterfall.set_defaults(fn=cmd_waterfall)

    p_chaos = sub.add_parser(
        "chaos",
        help="chaos-test the compile service: arm each service fault site "
        "against real bench/fuzz/socket traffic and verify every run "
        "recovers bit-identically",
    )
    p_chaos.add_argument(
        "--budget",
        type=int,
        default=20,
        metavar="N",
        help="chaos runs to execute (scenarios cycle round-robin, "
        "later laps fire the fault deeper into the run)",
    )
    p_chaos.add_argument(
        "--seed",
        type=int,
        default=0,
        help="campaign seed (the fuzz workload's programs)",
    )
    p_chaos.add_argument(
        "--kernel",
        action="append",
        metavar="NAME",
        help="bench-workload kernel(s); repeatable (default: two motivating "
        "kernels)",
    )
    p_chaos.add_argument(
        "--fuzz-programs",
        type=int,
        default=16,
        metavar="N",
        help="programs per fuzz workload (default: 16)",
    )
    p_chaos.add_argument(
        "--out",
        metavar="FILE",
        help="write the per-run classification JSON to FILE",
    )
    p_chaos.add_argument(
        "--stats",
        action="store_true",
        help="print the aggregated counter table on stderr",
    )
    metrics_flags(p_chaos)
    p_chaos.set_defaults(fn=cmd_chaos)

    p_profile = sub.add_parser(
        "profile",
        help="self-time profile of one kernel's compile + simulate, with "
        "folded-stack flamegraph export",
    )
    common(p_profile)
    p_profile.add_argument("--kernel", help="kernel name (default: the only one)")
    p_profile.add_argument("--n", type=int, default=64, help="trip-count argument")
    p_profile.add_argument("--seed", type=int, default=0, help="input seed")
    p_profile.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="compile+simulate N times for denser span distributions",
    )
    p_profile.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="rows in the hot-phase table (default: 10)",
    )
    p_profile.add_argument(
        "--folded",
        metavar="FILE",
        help="write collapsed-stack output to FILE "
        "(flamegraph.pl / speedscope input)",
    )
    p_profile.set_defaults(fn=cmd_profile)

    p_bisect = sub.add_parser(
        "bisect",
        help="binary-search the first faulty vectorization decision "
        "(-opt-bisect-limit)",
    )
    common(p_bisect)
    p_bisect.add_argument("--kernel", help="kernel name (default: the only one)")
    p_bisect.add_argument(
        "--n",
        type=int,
        default=None,
        help="value for every kernel argument (default: 0, the fuzz convention)",
    )
    p_bisect.add_argument(
        "--input-seed", type=int, default=1, help="seed for buffer contents"
    )
    p_bisect.add_argument(
        "--max-ulps",
        type=int,
        default=4096,
        help="float comparison tolerance in ULPs",
    )
    p_bisect.add_argument(
        "--decisions",
        action="store_true",
        help="list every gated decision, marking the first bad one",
    )
    p_bisect.set_defaults(fn=cmd_bisect)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # every invocation gets its own root session: counters, remarks and
    # traces are scoped to this command, never to process globals.  The
    # fault registry is inherited — injected faults model the build
    # environment, so an armed fault must stay visible to the command
    # (replaying a crash bundle relies on this).
    session = CompilerSession(
        name=f"cli:{args.command}", faults=current_session().faults
    )
    _configure_observability(args, session)
    try:
        with use_session(session):
            return args.fn(args)
    except SystemExit as exc:
        # _usage() raises SystemExit(EXIT_USAGE); surface it as a return
        # value so callers (and tests) see the code without unwinding
        code = exc.code
        if code is None:
            return EXIT_OK
        if isinstance(code, int):
            return code
        print(f"repro: {code}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as exc:
        print(f"repro: IR verifier failure: {exc}", file=sys.stderr)
        return EXIT_VERIFIER
    except (FrontendError, ParseError) as exc:
        # malformed user input (source or textual IR), not a compiler bug
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"repro: execution budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ServeTaskTimeout as exc:
        # a service task blew its deadline: a budget problem, not a crash
        print(f"repro: service task timed out: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ServiceError as exc:
        # worker crashed / service closed underneath us: internal error
        print(f"repro: compile service failure: {exc}", file=sys.stderr)
        return EXIT_CRASH
    except BrokenPipeError:
        # stdout closed early (| head, | grep -q): not a compiler bug.
        # Artifact files are written before tables, so nothing is lost.
        return EXIT_OK
    except Exception as exc:  # noqa: BLE001 - last-resort crash mapping
        import traceback

        traceback.print_exc(file=sys.stderr)
        print(
            f"repro: internal error: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return EXIT_CRASH
    finally:
        _flush_observability(args, session)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
