"""Vectorization reports: the statistics behind Figures 6, 7, 9 and 10.

The paper quantifies the effectiveness of the Multi-Node vs the Super-Node
by the *aggregate node size* (the summed per-lane depth of all nodes formed
in successfully vectorized code) and the *average node size*.  These
reports accumulate exactly those quantities while the vectorizer runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .reorder import SuperNodeRecord


@dataclass
class GraphReport:
    """Summary of one SLP graph (one seed bundle)."""

    function: str
    block: str
    lanes: int
    cost: float
    vectorized: bool
    node_count: int
    gather_count: int
    supernodes: List[SuperNodeRecord] = field(default_factory=list)
    dump: str = ""
    #: "store" for adjacent-store seeded graphs, "reduction" for
    #: horizontal reductions (-slp-vectorize-hor)
    kind: str = "store"
    #: why gather nodes could not vectorize (optimization-remark style);
    #: normalized in ``__post_init__`` to a sorted, deduplicated list so
    #: remark output is deterministic and usable as a golden baseline
    gather_reasons: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        # One entry per distinct reason: the histograms below count
        # *graphs affected*, not gather-node multiplicity, and the stable
        # order makes JSONL remark dumps byte-identical across runs.
        self.gather_reasons = sorted(set(self.gather_reasons))


@dataclass
class FunctionReport:
    """All graphs attempted within one function."""

    name: str
    graphs: List[GraphReport] = field(default_factory=list)

    @property
    def vectorized_graphs(self) -> List[GraphReport]:
        return [g for g in self.graphs if g.vectorized]


@dataclass
class VectorizationReport:
    """All functions processed under one configuration."""

    config_name: str
    functions: List[FunctionReport] = field(default_factory=list)

    # -- graph-level aggregates ------------------------------------------------------

    def all_graphs(self) -> List[GraphReport]:
        return [g for f in self.functions for g in f.graphs]

    def vectorized_graphs(self) -> List[GraphReport]:
        return [g for g in self.all_graphs() if g.vectorized]

    # -- Multi-/Super-Node statistics (Figures 6/7/9/10) ----------------------------------

    def formed_nodes(self, vectorized_only: bool = True) -> List[SuperNodeRecord]:
        """All Multi-/Super-Node records, optionally restricted to nodes in
        successfully vectorized graphs (the paper's "across all successfully
        vectorized code")."""
        graphs = self.vectorized_graphs() if vectorized_only else self.all_graphs()
        return [record for graph in graphs for record in graph.supernodes]

    def aggregate_node_size(self, vectorized_only: bool = True) -> int:
        """Figure 6/9: total aggregate node size (summed depth)."""
        return sum(r.size for r in self.formed_nodes(vectorized_only))

    def average_node_size(self, vectorized_only: bool = True) -> float:
        """Figure 7/10: average node size."""
        records = self.formed_nodes(vectorized_only)
        if not records:
            return 0.0
        return sum(r.size for r in records) / len(records)

    def node_count(self, vectorized_only: bool = True) -> int:
        return len(self.formed_nodes(vectorized_only))

    def missed_reasons(self, include_vectorized: bool = False) -> Dict[str, int]:
        """Histogram of gather reasons across non-vectorized graphs — the
        optimization-remark view of what blocked vectorization.  Counts
        are *graphs affected* per reason (``gather_reasons`` is
        deduplicated per graph), which keeps the output deterministic.

        ``include_vectorized=True`` also counts gather reasons from graphs
        that *did* vectorize: those partial gathers did not block the graph
        but still cost shuffles, and were previously silently dropped.
        """
        histogram: Dict[str, int] = {}
        for graph in self.all_graphs():
            if graph.vectorized and not include_vectorized:
                continue
            for reason in graph.gather_reasons:
                histogram[reason] = histogram.get(reason, 0) + 1
        return dict(
            sorted(histogram.items(), key=lambda pair: (-pair[1], pair[0]))
        )

    def partial_gather_reasons(self) -> Dict[str, int]:
        """Histogram of gather reasons inside *vectorized* graphs only
        (graphs affected per reason): bundles that were gathered even
        though the graph was profitable."""
        histogram: Dict[str, int] = {}
        for graph in self.vectorized_graphs():
            for reason in graph.gather_reasons:
                histogram[reason] = histogram.get(reason, 0) + 1
        return dict(
            sorted(histogram.items(), key=lambda pair: (-pair[1], pair[0]))
        )

    def summary(self) -> str:
        graphs = self.all_graphs()
        vectorized = self.vectorized_graphs()
        lines = [
            f"config: {self.config_name}",
            f"graphs attempted: {len(graphs)}",
            f"graphs vectorized: {len(vectorized)}",
            f"multi/super nodes formed: {self.node_count(vectorized_only=False)}",
            f"aggregate node size (vectorized): {self.aggregate_node_size()}",
            f"average node size (vectorized): {self.average_node_size():.2f}",
        ]
        return "\n".join(lines)
