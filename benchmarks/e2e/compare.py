"""Compare two sets of end-to-end benchmark runs, workload by workload.

    python benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ... \\
        [--json OUT.json]

Each file is a ``run.py --out`` document; set A is the parent, set B the
change.  For every workload in both sets and every end-to-end metric of
``BENCHMARK.json`` it prints each set's median and inter-quartile range
and a verdict under the metric's bound (the share by which B's median may
be worse than A's; ``WORKLOAD_BOUNDS`` sets some per workload):

* ``worse``: B's median is worse by more than the bound, with both sets'
  spreads within the bound or every B run worse than every A run;
* ``unresolved``: a set's spread (IQR / median) exceeds the bound and the
  runs overlap;
* ``better``: B's median is better by more than A's own spread;
* ``same``: otherwise.

A time metric is judged on its values at the reference host speed, and
again on the raw values (``raw.<metric>``).  Where the raw verdict is
``better`` or ``worse`` and the rescaled one is not the same, the verdict
is ``unresolved``: the host-speed factor may have cancelled a change the
clock saw, or made one up.

Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional, Sequence

from common import load_spec, median_iqr

#: Per-workload bounds where they differ from ``BENCHMARK.json``'s, which
#: holds one bound per metric: there, the widest one a workload needs.
#: ``serve-mixed`` runs in three processes behind a socket, and the
#: host-speed probe follows it least well; the other workloads hold tighter.
_IN_PROCESS = {"ops_per_s": 0.10, "latency_p50_ms": 0.10}
WORKLOAD_BOUNDS = {
    "suite": _IN_PROCESS,
    "suite-jobs2": _IN_PROCESS,
    "supernode-wide": _IN_PROCESS,
    "serve-mixed": {"latency_p99_ms": 0.20},
}


def load_values(paths: Sequence[str]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> one value per run file."""
    values: Dict[str, Dict[str, List[float]]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        for workload, entry in doc["workloads"].items():
            for name, item in entry["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(item["value"])
    return values


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> Dict:
    """Medians, IQRs, B's relative change (positive = worse) and the verdict."""
    (a_med, a_iqr), (b_med, b_iqr) = median_iqr(a), median_iqr(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b_med - a_med) / a_med
    spread = max(a_iqr / a_med, b_iqr / b_med)
    # "badness": larger is worse whichever way the metric points
    bad_a, bad_b = [sign * v for v in a], [sign * v for v in b]
    all_worse = min(bad_b) > max(bad_a)
    all_better = max(bad_b) < min(bad_a)
    if spread > bound:
        outcome = ("better" if all_better
                   else "worse" if all_worse and change > bound
                   else "unresolved")
    elif change > bound:
        outcome = "worse"
    elif -change > a_iqr / a_med and change < 0:
        outcome = "better"
    else:
        outcome = "same"
    return {
        "a_values": list(a), "b_values": list(b),
        "a_median": a_med, "a_iqr": a_iqr, "b_median": b_med, "b_iqr": b_iqr,
        "change": change, "bound": bound, "verdict": outcome,
    }


def compare(a_paths: Sequence[str], b_paths: Sequence[str]) -> Dict[str, Dict[str, Dict]]:
    spec = load_spec()
    a, b = load_values(a_paths), load_values(b_paths)
    table: Dict[str, Dict[str, Dict]] = {}
    for workload in a:
        if workload not in b:
            continue
        for entry in spec["end_to_end"]:
            name, better = entry["name"], entry["better"]
            if name not in a[workload] or name not in b[workload]:
                continue
            bound = WORKLOAD_BOUNDS.get(workload, {}).get(name, entry["bound"])
            row = verdict(a[workload][name], b[workload][name], better, bound)
            raw = "raw." + name
            if raw in a[workload] and raw in b[workload]:
                row["raw_verdict"] = verdict(a[workload][raw], b[workload][raw], better, bound)["verdict"]
                if row["raw_verdict"] in ("better", "worse") and row["raw_verdict"] != row["verdict"]:
                    row["verdict"] = "unresolved"
            table.setdefault(workload, {})[name] = row
    return table


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    out_path = None
    if "--json" in args[:-1]:
        at = args.index("--json")
        out_path = args[at + 1]
        del args[at:at + 2]
    split = args.index("--") if "--" in args else 0
    a_paths, b_paths = args[:split], args[split + 1:]
    if not a_paths or not b_paths:
        print(__doc__, file=sys.stderr)
        return 2
    table = compare(a_paths, b_paths)
    print(f"{'workload':15s} {'metric':16s} {'A median':>11s} {'A IQR':>9s} "
          f"{'B median':>11s} {'B IQR':>9s} {'change':>8s} {'bound':>6s}  {'raw':10s} verdict")
    for workload, rows in table.items():
        for name, row in rows.items():
            print(f"{workload:15s} {name:16s} {row['a_median']:11.5g} {row['a_iqr']:9.3g} "
                  f"{row['b_median']:11.5g} {row['b_iqr']:9.3g} {100 * row['change']:+7.2f}% "
                  f"{100 * row['bound']:5.1f}%  {row.get('raw_verdict', '-'):10s} {row['verdict']}")
    if out_path:
        with open(a_paths[0], encoding="utf-8") as handle:
            first = json.load(handle)
        doc = {key: first[key] for key in ("seed", "seconds", "nproc", "python")}
        doc.update(runs={"a": len(a_paths), "b": len(b_paths)}, table=table)
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
            handle.write("\n")
    worse = any(row["verdict"] == "worse" for rows in table.values() for row in rows.values())
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
