"""End-to-end benchmark of the repro: one command, four workloads.

    python benchmarks/e2e/run.py [--workload W ...] [--seed S] [--seconds T]
        [--trace [0|1]] [--quick] [--out RESULT.json] [--layers LAYERS.json]
        [--chrome-dir DIR]

Each workload runs in a fresh process (``workloads.py``) after its set-up
has been timed ``SETUPS`` times in fresh processes of its own.  It runs a
fixed amount of work, sized by ``--seconds`` (see ``workloads.py``).  Every
metric is printed by name with its unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics of ``BENCHMARK.json`` untraced, its
per-layer metrics with ``--trace 1``.  With several workloads the metric
names in that line are prefixed ``<workload>:``.  The command exits
non-zero when a run fails or any correctness check does.  The program is
imported from ``src/`` next to this directory; no install is needed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, Optional, Sequence, Tuple

from common import DEFAULT_SEED, HERE, ROOT, WORKLOADS, HostSpeed, load_spec, metric
from server import serve_setup_seconds

#: fresh set-ups timed per workload; ``setup_s`` is their median
SETUPS = 5
#: ``--quick`` runs this share of the default work
QUICK_SHARE = 1 / 20


def child_timeout(seconds: float) -> float:
    """A workload process running longer than this is killed with its
    children: three times the sized work, plus warm-up and checks."""
    return 3 * seconds + 90


def workload_setup_seconds() -> Tuple[float, float]:
    """Wall seconds from spawning a fresh process until it has imported the
    program and loaded the kernel registry, less the host-speed probe it
    ran first, and the probe's time."""
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), "workloads"],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    )
    line = child.stdout.readline()
    elapsed = time.perf_counter() - started
    child.stdout.close()
    if child.wait() != 0 or not line:
        raise SystemExit(f"set-up failed with exit code {child.returncode}")
    probe = float(line)
    return elapsed - probe, probe


def setup_metrics(workload: str, repeats: int) -> Dict[str, object]:
    """``setup_s`` over ``repeats`` fresh set-ups: each rescaled to the
    reference host speed by the probe run in its own process (see
    ``setup_probe.py``), then the median; ``raw.setup_s`` unscaled."""
    measure = serve_setup_seconds if workload == "serve-mixed" else workload_setup_seconds
    samples = [measure() for _ in range(repeats)]
    return {
        "setup_s": metric(statistics.median(
            raw * HostSpeed.REFERENCE_S / probe for raw, probe in samples
        ), "s"),
        "raw.setup_s": metric(statistics.median(raw for raw, _ in samples), "s"),
    }


def run_workload(workload: str, args: argparse.Namespace) -> Dict[str, object]:
    """Run one workload in a fresh process group and return its document."""
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.chrome_dir:
        os.makedirs(args.chrome_dir, exist_ok=True)
        command += ["--chrome", os.path.join(args.chrome_dir, f"trace-{workload}.json")]
    child = subprocess.Popen(
        command, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    timeout = child_timeout(args.seconds)
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise SystemExit(f"{workload}: no result within {timeout:.0f}s")
    if child.returncode != 0:
        raise SystemExit(f"{workload}: workload process exited with code {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def render(workload: str, doc: Dict[str, object]) -> str:
    lines = [
        f"== {workload}: {doc['attempted']} ops attempted, {doc['failed']} failed"
        + (f", left behind: {doc['leftovers']}" if doc["leftovers"] else "")
    ]
    lines += [f"   FAILED {name}" for name in doc["failures"]]
    for name, entry in doc["metrics"].items():
        lines.append(f"   {name:32s} {entry['value']:>16.6g} {entry['unit']}")
    if "layers" in doc:
        lines.append(f"   {'span':28s} {'source':9s} {'count':>7s} {'self ms':>10s} "
                     f"{'cum ms':>10s} {'self %':>7s}")
        for row in doc["layers"]["spans"][:15]:
            lines.append(
                f"   {row['name']:28s} {row['source']:9s} {row['count']:7d} "
                f"{row['self_ms']:10.1f} {row['cum_ms']:10.1f} {100 * row['self_share']:6.1f}%"
            )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark: every metric by name, last line JSON."
    )
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="size of each workload's fixed work, in seconds on the "
                             "reference host (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report per-layer metrics from a traced half-run")
    parser.add_argument("--quick", action="store_true",
                        help="1/20 of the default work and one set-up (for the self-test)")
    parser.add_argument("--out", metavar="RESULT.json", help="write every metric here")
    parser.add_argument("--layers", metavar="LAYERS.json",
                        help="with --trace: write the span self-time tables here")
    parser.add_argument("--chrome-dir", metavar="DIR",
                        help="with --trace: write one Chrome trace per workload here")
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = spec["run_seconds"] * QUICK_SHARE
    workloads = args.workload or list(WORKLOADS)
    setups = 1 if args.quick else SETUPS

    docs: Dict[str, Dict[str, object]] = {}
    for workload in workloads:
        setup = {} if args.trace else setup_metrics(workload, setups)
        doc = run_workload(workload, args)
        doc["metrics"] = {**setup, **doc["metrics"]}
        docs[workload] = doc
        print(render(workload, doc), flush=True)

    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    correct = all(doc["failed"] == 0 and not doc["leftovers"] for doc in docs.values())
    summary = {
        "correct": correct,
        "attempted": sum(doc["attempted"] for doc in docs.values()),
        "failed": sum(doc["failed"] for doc in docs.values()),
        "metrics": {},
    }
    for workload, doc in docs.items():
        prefix = "" if len(docs) == 1 else f"{workload}:"
        for name in names:
            if name not in doc["metrics"]:
                raise SystemExit(f"{workload} did not report {name}")
            summary["metrics"][prefix + name] = doc["metrics"][name]

    run = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "quick": args.quick, "nproc": os.cpu_count(), "python": platform.python_version()}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({**run, "workloads": docs}, handle, indent=1)
            handle.write("\n")
    if args.layers and args.trace:
        layers = {w: {**doc["layers"], "metrics": doc["metrics"]} for w, doc in docs.items()}
        with open(args.layers, "w", encoding="utf-8") as handle:
            json.dump({**run, "workloads": layers}, handle, indent=1)
            handle.write("\n")
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
