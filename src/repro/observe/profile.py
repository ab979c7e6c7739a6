"""Self-time attribution and flamegraph export over recorded trace spans.

The tracer (:mod:`repro.observe.trace`) records *cumulative* span times:
a ``compile`` span covers all of its phases.  Diagnosing where time
actually goes needs **self time** — a span's duration minus the spans
nested inside it.  This module reconstructs the span tree from a flat
:class:`~repro.observe.trace.TraceEvent` list (events arrive in
completion order; nesting is recovered from intervals plus recorded
depth) and derives:

* per-name self/cumulative aggregates and a top-N hot-phase table
  (``repro profile``);
* collapsed-stack ("folded") output — ``root;child;leaf <count>`` lines,
  one per unique stack, weighted by self time in microseconds — the
  input format of Brendan Gregg's ``flamegraph.pl`` and of speedscope.

Events merged in from parallel workers keep their worker ``pid`` and
pool ``generation``; each worker's spans form their own forest, rooted
under a ``pid<N>`` frame (``pid<N>.g<G>`` for respawned generations) in
the folded output so per-worker time stays attributable even when the
OS reuses a pid across respawns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from .trace import TraceEvent


@dataclass
class ProfileNode:
    """One span in the reconstructed call tree."""

    event: TraceEvent
    children: List["ProfileNode"] = field(default_factory=list)

    @property
    def self_ns(self) -> int:
        """Duration not covered by child spans (clamped at zero — child
        clock reads can overshoot the parent's by a few ns)."""
        nested = sum(child.event.duration_ns for child in self.children)
        return max(0, self.event.duration_ns - nested)


def _encloses(parent: TraceEvent, child: TraceEvent) -> bool:
    """Strict nesting test: interval containment plus greater depth.

    The depth comparison disambiguates zero-duration spans with equal
    intervals (``contains`` alone is symmetric for those).
    """
    return parent.contains(child) and child.depth > parent.depth


def build_trees(events: Sequence[TraceEvent]) -> List[ProfileNode]:
    """Reconstruct span forests from a flat completed-event list.

    Spans (other records are skipped) are grouped by worker ``(pid,
    generation)`` (spans merged from different processes share a
    timebase only within their process, and the OS reuses pids across
    service worker generations), then nested with a stack sweep in
    (start, depth) order.
    """
    by_track: Dict[tuple, List[TraceEvent]] = {}
    for event in events:
        if event.category == "span":
            by_track.setdefault((event.pid, event.generation), []).append(event)
    roots: List[ProfileNode] = []
    for track in sorted(by_track):
        ordered = sorted(
            by_track[track], key=lambda e: (e.start_ns, e.depth, -e.duration_ns)
        )
        stack: List[ProfileNode] = []
        for event in ordered:
            node = ProfileNode(event)
            while stack and not _encloses(stack[-1].event, event):
                stack.pop()
            if stack:
                stack[-1].children.append(node)
            else:
                roots.append(node)
            stack.append(node)
    return roots


@dataclass
class PhaseStat:
    """Aggregate self/cumulative time for one span name."""

    name: str
    count: int = 0
    cumulative_ns: int = 0
    self_ns: int = 0


def _walk(node: ProfileNode, stats: Dict[str, PhaseStat]) -> None:
    entry = stats.get(node.event.name)
    if entry is None:
        entry = stats[node.event.name] = PhaseStat(node.event.name)
    entry.count += 1
    entry.cumulative_ns += node.event.duration_ns
    entry.self_ns += node.self_ns
    for child in node.children:
        _walk(child, stats)


def self_time_stats(events: Sequence[TraceEvent]) -> List[PhaseStat]:
    """Per-name aggregates over ``events``, hottest self time first."""
    stats: Dict[str, PhaseStat] = {}
    for root in build_trees(events):
        _walk(root, stats)
    return sorted(
        stats.values(), key=lambda s: (-s.self_ns, -s.cumulative_ns, s.name)
    )


def render_top_table(
    stats: Sequence[PhaseStat], limit: int = 10, total_ns: int = 0
) -> str:
    """The ``repro profile`` hot-phase table (self-time ranked)."""
    if not total_ns:
        total_ns = sum(entry.self_ns for entry in stats)
    lines = [
        f"{'self ms':>10} {'self %':>7} {'cum ms':>10} {'count':>6}  phase",
        f"{'-' * 10} {'-' * 7} {'-' * 10} {'-' * 6}  {'-' * 5}",
    ]
    for entry in list(stats)[:limit]:
        share = 100.0 * entry.self_ns / total_ns if total_ns else 0.0
        lines.append(
            f"{entry.self_ns / 1e6:>10.3f} {share:>6.1f}% "
            f"{entry.cumulative_ns / 1e6:>10.3f} {entry.count:>6}  {entry.name}"
        )
    return "\n".join(lines)


def folded_stacks(events: Sequence[TraceEvent]) -> str:
    """Collapsed-stack output: one ``frame;frame;... <weight>`` line per
    unique stack, weight = self time in whole microseconds (minimum 1 for
    any span with positive self time, so fast phases stay visible).

    Load with ``flamegraph.pl`` or drag into https://speedscope.app.
    """
    weights: Dict[str, int] = {}

    def visit(node: ProfileNode, prefix: str) -> None:
        path = f"{prefix};{node.event.name}" if prefix else node.event.name
        self_ns = node.self_ns
        if self_ns > 0:
            weights[path] = weights.get(path, 0) + max(1, round(self_ns / 1000))
        for child in node.children:
            visit(child, path)

    for root in build_trees(events):
        if not root.event.pid:
            base = ""
        elif not root.event.generation:
            base = f"pid{root.event.pid}"
        else:
            base = f"pid{root.event.pid}.g{root.event.generation}"
        visit(root, base)
    return "".join(f"{path} {weight}\n" for path, weight in sorted(weights.items()))


def write_folded(path: str, events: Sequence[TraceEvent]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(folded_stacks(events))
