"""``repro report RESULTS.json``: self-contained HTML benchmark reports.

Consumes the JSON document ``repro bench --json`` writes::

    {"target": ..., "seed": ..., "jobs": ...,
     "runs": [{"kernel": ..., "config": ..., "cycles": ...,
               "speedup": ..., "correct": ..., "counters": {...},
               ...optional: "phase_seconds", "vectorized_graphs",
               "attempted_graphs", "journal"}]}

and renders one static HTML file with zero external assets (inline CSS,
no JavaScript, DOT sources embedded as text) so it can be attached to a
CI run and opened anywhere.  With ``--baseline OLD.json`` the report
gains a diff section, and :func:`diff_results` returns the machine
verdict the CLI turns into an exit code: cycle increases beyond the
tolerance, correctness flips, and drops in vectorized-graph counters are
*regressions*; everything else is informational.

Like its siblings this module is duck-typed over plain dicts and imports
nothing from ``repro.vectorizer``.
"""

from __future__ import annotations

import html
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: counters whose *decrease* relative to baseline is a regression (less
#: vectorization happened); all other counter deltas are informational
_COVERAGE_COUNTERS = (
    "slp.graphs-vectorized",
    "slp.stores-vectorized",
    "supernode.nodes-formed",
)

#: cycle increases within this fraction of baseline are noise, not
#: regressions (the simulator is deterministic, so 0 would also work,
#: but the report stays honest if timing-derived inputs appear later)
DEFAULT_CYCLE_TOLERANCE = 0.0


def load_results(path: str) -> Dict[str, object]:
    """Read a ``repro bench`` JSON document."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if "runs" not in doc or not isinstance(doc["runs"], list):
        raise ValueError(f"{path}: not a bench results document (no 'runs' list)")
    return doc


def index_runs(doc: Dict[str, object]) -> Dict[Tuple[str, str], Dict[str, object]]:
    """Key the runs by (kernel, config)."""
    indexed: Dict[Tuple[str, str], Dict[str, object]] = {}
    for run in doc["runs"]:  # type: ignore[index]
        indexed[(str(run["kernel"]), str(run["config"]))] = run
    return indexed


@dataclass
class Delta:
    """One difference between a run and its baseline counterpart."""

    kernel: str
    config: str
    field: str  # "cycles" | "correct" | counter name | "missing"
    old: object
    new: object
    regression: bool

    def describe(self) -> str:
        marker = "REGRESSION" if self.regression else "change"
        return (
            f"{marker}: {self.kernel}/{self.config} {self.field}: "
            f"{self.old} -> {self.new}"
        )


def diff_results(
    doc: Dict[str, object],
    baseline: Dict[str, object],
    cycle_tolerance: float = DEFAULT_CYCLE_TOLERANCE,
) -> List[Delta]:
    """All deltas between ``doc`` and ``baseline``, regressions flagged.

    Pairs runs by (kernel, config).  Runs present only on one side are
    reported as "missing" deltas (a disappeared pair is a regression —
    coverage shrank; a new pair is informational).
    """
    new_runs = index_runs(doc)
    old_runs = index_runs(baseline)
    deltas: List[Delta] = []
    for key in sorted(set(new_runs) | set(old_runs)):
        kernel, config = key
        new = new_runs.get(key)
        old = old_runs.get(key)
        if new is None:
            deltas.append(
                Delta(kernel, config, "missing", "present", "absent", True)
            )
            continue
        if old is None:
            deltas.append(
                Delta(kernel, config, "missing", "absent", "present", False)
            )
            continue
        old_cycles = float(old.get("cycles", 0))
        new_cycles = float(new.get("cycles", 0))
        if new_cycles != old_cycles:
            worse = new_cycles > old_cycles * (1.0 + cycle_tolerance)
            deltas.append(
                Delta(kernel, config, "cycles", old_cycles, new_cycles, worse)
            )
        if bool(old.get("correct", True)) != bool(new.get("correct", True)):
            deltas.append(
                Delta(
                    kernel, config, "correct",
                    old.get("correct"), new.get("correct"),
                    not bool(new.get("correct", True)),
                )
            )
        old_counters = dict(old.get("counters", {}))
        new_counters = dict(new.get("counters", {}))
        for name in sorted(set(old_counters) | set(new_counters)):
            old_value = old_counters.get(name, 0)
            new_value = new_counters.get(name, 0)
            if old_value == new_value:
                continue
            worse = name in _COVERAGE_COUNTERS and new_value < old_value
            deltas.append(
                Delta(kernel, config, name, old_value, new_value, worse)
            )
    return deltas


def regressions(deltas: List[Delta]) -> List[Delta]:
    return [d for d in deltas if d.regression]


# -- HTML rendering -----------------------------------------------------------------

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2em auto; max-width: 70em; color: #1a1a2e; }
h1 { border-bottom: 2px solid #4a4e69; padding-bottom: .2em; }
h2 { color: #4a4e69; margin-top: 2em; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #c9c9d4; padding: .35em .7em; text-align: right; }
th { background: #f2f2f7; }
td.name, th.name { text-align: left; font-family: monospace; }
td.best { background: #d8f3dc; font-weight: bold; }
td.bad { background: #ffd7d7; }
tr.regression td { background: #ffd7d7; }
.bar { display: inline-block; height: .8em; background: #7b90c9;
       vertical-align: middle; }
.barlabel { font-size: .85em; color: #555; margin-left: .4em; }
pre.dot { background: #f8f8fb; border: 1px solid #c9c9d4; padding: .8em;
          overflow-x: auto; font-size: .8em; }
p.meta { color: #555; }
.ok { color: #2d6a4f; } .fail { color: #b02a2a; font-weight: bold; }
"""


def _esc(text: object) -> str:
    return html.escape(str(text), quote=True)


def _speedup_section(doc: Dict[str, object]) -> List[str]:
    runs = doc["runs"]  # type: ignore[index]
    kernels: List[str] = []
    configs: List[str] = []
    for run in runs:
        if run["kernel"] not in kernels:
            kernels.append(str(run["kernel"]))
        if run["config"] not in configs:
            configs.append(str(run["config"]))
    indexed = index_runs(doc)
    out = ["<h2>Cycles and speedup</h2>", "<table>"]
    out.append(
        "<tr><th class=name>kernel</th>"
        + "".join(f"<th>{_esc(c)}</th>" for c in configs)
        + "</tr>"
    )
    for kernel in kernels:
        cells = [f"<td class=name>{_esc(kernel)}</td>"]
        row = {
            config: indexed.get((kernel, config)) for config in configs
        }
        best = None
        for config, run in row.items():
            if run is not None and run.get("cycles") is not None:
                if best is None or float(run["cycles"]) < best:
                    best = float(run["cycles"])
        for config in configs:
            run = row[config]
            if run is None:
                cells.append("<td>-</td>")
                continue
            classes = []
            if best is not None and float(run["cycles"]) == best:
                classes.append("best")
            if not run.get("correct", True):
                classes.append("bad")
            attr = f" class=\"{' '.join(classes)}\"" if classes else ""
            speedup = run.get("speedup")
            label = f"{float(run['cycles']):.0f}"
            if speedup is not None:
                label += f" ({float(speedup):.2f}x)"
            if not run.get("correct", True):
                label += " WRONG"
            cells.append(f"<td{attr}>{_esc(label)}</td>")
        out.append("<tr>" + "".join(cells) + "</tr>")
    out.append("</table>")
    out.append(
        "<p class=meta>Each cell: simulated cycles (speedup over the "
        "row's baseline config). Green = fastest config for the kernel; "
        "red = produced wrong output.</p>"
    )
    return out


def _coverage_section(doc: Dict[str, object]) -> List[str]:
    runs = doc["runs"]  # type: ignore[index]
    total = len(runs)
    correct = sum(1 for run in runs if run.get("correct", True))
    vectorized = sum(
        int(run.get("vectorized_graphs", 0) or 0) for run in runs
    )
    attempted = sum(
        int(run.get("attempted_graphs", 0) or 0) for run in runs
    )
    out = ["<h2>Coverage</h2>", "<ul>"]
    status = "ok" if correct == total else "fail"
    out.append(
        f"<li><span class={status}>{correct}/{total}</span> "
        "kernel/config pairs produced correct output</li>"
    )
    if attempted:
        out.append(
            f"<li>{vectorized}/{attempted} attempted SLP graphs "
            "vectorized across the suite</li>"
        )
    out.append("</ul>")
    return out


def _counters_section(doc: Dict[str, object]) -> List[str]:
    totals: Dict[str, float] = {}
    for run in doc["runs"]:  # type: ignore[index]
        for name, value in dict(run.get("counters", {})).items():
            totals[name] = totals.get(name, 0) + value
    if not totals:
        return []
    out = ["<h2>Counters (summed over all runs)</h2>", "<table>"]
    out.append("<tr><th class=name>counter</th><th>total</th></tr>")
    for name in sorted(totals):
        value = totals[name]
        shown = f"{value:g}"
        out.append(
            f"<tr><td class=name>{_esc(name)}</td><td>{_esc(shown)}</td></tr>"
        )
    out.append("</table>")
    return out


def _metrics_section(doc: Dict[str, object]) -> List[str]:
    """Session metrics summary: gauges plus histogram percentiles."""
    metrics = dict(doc.get("metrics", {}) or {})
    gauges = dict(metrics.get("gauges", {}) or {})
    histograms = dict(metrics.get("histograms", {}) or {})
    if not gauges and not histograms:
        return []
    out = ["<h2>Session metrics</h2>"]
    if gauges:
        out.append("<table>")
        out.append("<tr><th class=name>gauge</th><th>value</th></tr>")
        for name in sorted(gauges):
            out.append(
                f"<tr><td class=name>{_esc(name)}</td>"
                f"<td>{float(gauges[name]):g}</td></tr>"
            )
        out.append("</table>")
    if histograms:
        out.append("<table>")
        out.append(
            "<tr><th class=name>histogram</th><th>count</th>"
            "<th>p50</th><th>p90</th><th>p99</th><th>sum</th></tr>"
        )
        for name in sorted(histograms):
            summary = dict(histograms[name])
            cells = "".join(
                f"<td>{float(summary.get(key, 0) or 0):g}</td>"
                for key in ("count", "p50", "p90", "p99", "sum")
            )
            out.append(
                f"<tr><td class=name>{_esc(name)}</td>{cells}</tr>"
            )
        out.append("</table>")
        out.append(
            "<p class=meta>Histogram percentiles are interpolated from "
            "fixed exponential buckets (see <code>repro.observe."
            "metrics</code>); sums are exact.</p>"
        )
    return out


def _phase_section(doc: Dict[str, object]) -> List[str]:
    totals: Dict[str, float] = {}
    for run in doc["runs"]:  # type: ignore[index]
        for phase, seconds in dict(run.get("phase_seconds", {})).items():
            totals[phase] = totals.get(phase, 0.0) + float(seconds)
    if not totals:
        return []
    widest = max(totals.values()) or 1.0
    out = ["<h2>Compile time by phase</h2>", "<table>"]
    out.append("<tr><th class=name>phase</th><th>seconds</th><th></th></tr>")
    for phase, seconds in sorted(totals.items(), key=lambda p: -p[1]):
        width = max(1, int(260 * seconds / widest))
        out.append(
            f"<tr><td class=name>{_esc(phase)}</td>"
            f"<td>{seconds:.4f}</td>"
            f"<td style='text-align:left'><span class=bar "
            f"style='width:{width}px'></span></td></tr>"
        )
    out.append("</table>")
    return out


def _diff_section(deltas: List[Delta]) -> List[str]:
    out = ["<h2>Baseline comparison</h2>"]
    if not deltas:
        out.append("<p class=ok>No differences against the baseline.</p>")
        return out
    bad = regressions(deltas)
    if bad:
        out.append(
            f"<p class=fail>{len(bad)} regression(s) against the "
            "baseline.</p>"
        )
    else:
        out.append(
            f"<p class=ok>{len(deltas)} difference(s), none regressive.</p>"
        )
    out.append("<table>")
    out.append(
        "<tr><th class=name>kernel</th><th class=name>config</th>"
        "<th class=name>field</th><th>baseline</th><th>current</th></tr>"
    )
    for delta in deltas:
        row_class = " class=regression" if delta.regression else ""
        out.append(
            f"<tr{row_class}><td class=name>{_esc(delta.kernel)}</td>"
            f"<td class=name>{_esc(delta.config)}</td>"
            f"<td class=name>{_esc(delta.field)}</td>"
            f"<td>{_esc(delta.old)}</td><td>{_esc(delta.new)}</td></tr>"
        )
    out.append("</table>")
    return out


def _dot_section(dots: Dict[str, str]) -> List[str]:
    if not dots:
        return []
    out = [
        "<h2>SLP graphs for the slowest kernels</h2>",
        "<p class=meta>DOT sources (render with <code>dot -Tsvg</code>); "
        "the worst-performing kernels' final graphs, straight from the "
        "decision journal.</p>",
    ]
    for name in sorted(dots):
        out.append(f"<h3>{_esc(name)}</h3>")
        out.append(f"<pre class=dot>{_esc(dots[name])}</pre>")
    return out


def render_report(
    doc: Dict[str, object],
    baseline: Optional[Dict[str, object]] = None,
    dots: Optional[Dict[str, str]] = None,
    title: str = "SLP benchmark report",
    cycle_tolerance: float = DEFAULT_CYCLE_TOLERANCE,
) -> Tuple[str, List[Delta]]:
    """Render the report; return (html_text, deltas-vs-baseline).

    ``deltas`` is empty when no baseline was given; the CLI exits with
    the mismatch code when any delta has ``regression=True``.
    """
    deltas: List[Delta] = []
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style>",
        "</head><body>",
        f"<h1>{_esc(title)}</h1>",
        "<p class=meta>"
        f"target: <code>{_esc(doc.get('target', '?'))}</code>, "
        f"seed: <code>{_esc(doc.get('seed', '?'))}</code>, "
        f"jobs: <code>{_esc(doc.get('jobs', '?'))}</code>, "
        f"runs: <code>{len(doc['runs'])}</code></p>",  # type: ignore[index, arg-type]
    ]
    parts.extend(_speedup_section(doc))
    parts.extend(_coverage_section(doc))
    if baseline is not None:
        deltas = diff_results(doc, baseline, cycle_tolerance)
        parts.extend(_diff_section(deltas))
    parts.extend(_counters_section(doc))
    parts.extend(_metrics_section(doc))
    parts.extend(_phase_section(doc))
    parts.extend(_dot_section(dots or {}))
    parts.append("</body></html>")
    return "\n".join(parts) + "\n", deltas


def write_report(
    path: str,
    doc: Dict[str, object],
    baseline: Optional[Dict[str, object]] = None,
    dots: Optional[Dict[str, str]] = None,
    title: str = "SLP benchmark report",
    cycle_tolerance: float = DEFAULT_CYCLE_TOLERANCE,
) -> List[Delta]:
    """Render to ``path``; return the deltas (for the exit code)."""
    text, deltas = render_report(
        doc, baseline=baseline, dots=dots, title=title,
        cycle_tolerance=cycle_tolerance,
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return deltas
