"""``repro explain``: per-graph narratives of the vectorizer's decisions.

Compiles a module with the decision and remark categories of the event
stream (:mod:`repro.observe.trace`) armed, then joins three data
sources into one :class:`GraphStory` per attempted graph:

* the **decision** records supply the ordered decision events — seed,
  Super-Node formation, look-ahead picks, APO reorders, cost verdict;
* the **remark** records supply the pass-level passed/missed messages
  for the same (function, block);
* the **GraphReport** supplies the aggregate view (node/gather counts,
  recorded Multi-/Super-Nodes) the bench figures are built from.

The headline of each story is the arrow narrative the CLI prints::

    seeded from 4 adjacent stores -> look-ahead picked {b3, b1, b0, b2}
    at operand 1 (score 7 vs 3) -> trunk swap legalized lane 2 ->
    cost -6.0 -> vectorized

Like :mod:`repro.observe.dot`, this module must not import
``repro.vectorizer`` at module scope (the vectorizer imports
``repro.observe`` for ``STAT``); the one place it needs the compiler it
imports inside the function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .session import Capture, CompilerSession, use_session
from .trace import DECISION, REMARK, TraceEvent

#: event kinds whose messages become narrative steps, in emission order
_NARRATIVE_KINDS = (
    "seed",
    "seed-rejected",
    "supernode",
    "lookahead",
    "group",
    "reorder",
    "cost",
    "undo",
)


@dataclass
class GraphStory:
    """Everything known about one attempted SLP graph."""

    graph_id: int
    function: str
    block: str
    seed: str  # "store" | "reduction" | "minmax"
    events: List[TraceEvent] = field(default_factory=list)
    remarks: List[TraceEvent] = field(default_factory=list)
    report: Optional[object] = None  # the matching GraphReport, if any

    @property
    def verdict(self) -> str:
        for event in self.events:
            if event.kind == "cost":
                if event.args.get("verdict") == "profitable":
                    return "vectorized"
                return "rejected"
            if event.kind == "seed-rejected":
                return "seed rejected"
        return "no verdict"

    def steps(self) -> List[str]:
        """The narrative steps, one per decision event."""
        picked = []
        for event in self.events:
            if event.kind in _NARRATIVE_KINDS:
                picked.append(event.message)
        return picked

    def narrative(self) -> str:
        """The one-line arrow narrative."""
        return " -> ".join(self.steps() + [self.verdict])

    def dots(self) -> Dict[str, str]:
        """Named DOT documents captured for this graph (before/after
        chain views plus the final graph)."""
        found: Dict[str, str] = {}
        for event in self.events:
            if event.kind == "supernode" and "dot_before" in event.args:
                found["chains-before"] = str(event.args["dot_before"])
            if event.kind == "reorder" and "dot_after" in event.args:
                found["chains-after"] = str(event.args["dot_after"])
            if event.kind == "graph" and "dot" in event.args:
                found["graph"] = str(event.args["dot"])
        return found

    def dump(self) -> str:
        """The graph's textual dump, when the journal captured one."""
        for event in self.events:
            if event.kind == "graph" and "dump" in event.args:
                return str(event.args["dump"])
        return ""


@dataclass
class ExplainResult:
    """Outcome of :func:`explain_module`."""

    config_name: str
    stories: List[GraphStory]
    result: object  # the CompilationResult
    #: the explain compile's decision and remark records, for a caller
    #: to absorb into its own session
    capture: Capture

    def to_json(self) -> Dict[str, object]:
        return {
            "config": self.config_name,
            "graphs": [
                {
                    "graph_id": story.graph_id,
                    "function": story.function,
                    "block": story.block,
                    "seed": story.seed,
                    "verdict": story.verdict,
                    "steps": story.steps(),
                    "events": [e.to_dict() for e in story.events],
                    "remarks": [r.to_dict() for r in story.remarks],
                }
                for story in self.stories
            ],
        }


def build_stories(
    records: Sequence[TraceEvent],
    report: Optional[object] = None,
) -> List[GraphStory]:
    """Group decision records into per-graph stories and join the remark
    records and the report.

    Remarks attach by (function, block, seed kind); GraphReports attach
    positionally within that same key — both streams record attempts in
    the order the vectorizer made them, so the n-th story of a key pairs
    with the n-th report of that key.
    """
    stories: Dict[int, GraphStory] = {}
    order: List[int] = []
    remarks = [r for r in records if r.category == "remark"]
    for event in records:
        if event.category != "decision" or event.graph_id < 0:
            continue
        story = stories.get(event.graph_id)
        if story is None:
            story = GraphStory(
                graph_id=event.graph_id,
                function=event.function,
                block=event.block,
                seed=event.seed,
            )
            stories[event.graph_id] = story
            order.append(event.graph_id)
        story.events.append(event)

    result = [stories[graph_id] for graph_id in order]
    if remarks:
        for story in result:
            story.remarks = [
                r
                for r in remarks
                if r.function == story.function
                and r.block == story.block
                and (not r.seed or r.seed == story.seed)
            ]
    if report is not None:
        # Positional join: per (function, seed-kind-ish) cursor over the
        # report's graphs, which were appended in attempt order.
        cursors: Dict[object, int] = {}
        by_function = {fn.name: fn.graphs for fn in report.functions}
        for story in result:
            graphs = by_function.get(story.function, [])
            matching = [
                g
                for g in graphs
                if g.block == story.block and _kind_matches(g.kind, story.seed)
            ]
            key = (story.function, story.block, story.seed)
            index = cursors.get(key, 0)
            if index < len(matching):
                story.report = matching[index]
            cursors[key] = index + 1
    return result


def _kind_matches(report_kind: str, seed: str) -> bool:
    if seed == "store":
        return report_kind == "store"
    if seed == "reduction":
        return report_kind == "reduction"
    if seed == "minmax":
        return report_kind == "minmax-reduction"
    return False


def explain_module(
    module,
    config,
    target=None,
    unroll_factor: int = 0,
    verify: bool = True,
    session: Optional[CompilerSession] = None,
) -> ExplainResult:
    """Compile ``module`` with decisions and remarks armed and build the
    stories.

    Runs in a child of ``session`` (or of a fresh root session) that
    collects its decision and remark records privately, so the caller's
    stream is not disturbed; the records come back in the result's
    ``capture``.
    """
    from ..machine.targets import DEFAULT_TARGET
    from ..vectorizer.pipeline import compile_module

    if target is None:
        target = DEFAULT_TARGET
    # Decisions quote values by ref(); programmatically-built
    # kernels carry unnamed instructions until printed, so name them up
    # front (idempotent, respects existing names).
    for function in module.functions.values():
        function.assign_names()
    base = session if session is not None else CompilerSession(name="explain")
    own = base.derive(name="explain")
    with own.tracer.collect(DECISION | REMARK) as records:
        with use_session(own):
            result = compile_module(
                module, config, target,
                verify=verify, unroll_factor=unroll_factor,
            )
    return ExplainResult(
        config_name=config.name,
        stories=build_stories(records, result.report),
        result=result,
        capture=Capture(events=records),
    )


def summarize_journal(events: Sequence[TraceEvent]) -> Dict[str, object]:
    """A compact aggregate of decision records, suitable for attaching to
    bench-result JSON rows: per-kind counts plus the accept/reject
    tallies of the cost-model verdicts."""
    kinds: Dict[str, int] = {}
    accepted = rejected = 0
    for event in events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
        if event.kind == "cost":
            if event.args.get("verdict") == "profitable":
                accepted += 1
            else:
                rejected += 1
    return {
        "events": len(events),
        "kinds": dict(sorted(kinds.items())),
        "graphs": len({e.graph_id for e in events if e.graph_id >= 0}),
        "cost_accepted": accepted,
        "cost_rejected": rejected,
    }


def render_stories(stories: List[GraphStory], verbose: bool = False) -> str:
    """Human-readable rendering of the stories (the CLI output)."""
    if not stories:
        return "no SLP graphs were attempted\n"
    lines: List[str] = []
    for story in stories:
        lines.append(
            f"=== graph #{story.graph_id} [{story.seed}] "
            f"@ {story.function}/{story.block}: {story.verdict} ==="
        )
        for step in story.steps():
            lines.append(f"  -> {step}")
        if verbose:
            dump = story.dump()
            if dump:
                lines.extend("  | " + line for line in dump.splitlines())
        lines.append("")
    return "\n".join(lines)
