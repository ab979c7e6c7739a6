"""The bottom-up SLP vectorizer driver (Figure 1 of the paper).

``SLPVectorizer.run_on_function`` implements the outer loop: collect seed
bundles, grow an SLP graph per seed (``buildGraph``, Listing 1), evaluate
its cost, and emit vector code when profitable.  The Multi-Node (LSLP) and
Super-Node (SN-SLP) extensions hook into graph construction exactly where
Listing 1 calls ``buildSuperNode``: when a bundle of same-family binary
instructions is encountered, the chain is formed, reordered
(Listings 2/3) and re-emitted before ordinary bundling resumes.

After a block's store seeds, its horizontal reductions (``-slp-vectorize-hor``)
run through one driver method, ``_vectorize_reduction``: add chains first,
then min/max chains, so each scan sees what the earlier one consumed.  A
rejected store graph or reduction reverts the Super-Node massage its
bundles made (Listing 1, line 53) through ``_GraphBuilder.undo_chains``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..ir.block import BasicBlock
from ..ir.dce import eliminate_dead_code
from ..ir.function import Function
from ..ir.instructions import (
    BinaryInst,
    CallInst,
    CastInst,
    CmpInst,
    Instruction,
    LoadInst,
    Opcode,
    SelectInst,
    StoreInst,
    base_opcode,
    is_commutative,
)
from ..ir.module import Module
from ..ir.types import VectorType, vector_of
from ..ir.values import Value
from ..machine.targets import TargetMachine
from ..observe import DECISION, REMARK, STAT, current_tracer
from ..observe.dot import chains_to_dot, graph_to_dot
from ..robust.bisect import BISECT
from .codegen import emit_vector_code
from .cost import compute_graph_cost, is_profitable
from .graph import NodeKind, SLPGraph, SLPNode
from .legality import (
    bundle_is_schedulable_loads,
    bundle_is_schedulable_stores,
    lanes_form_valid_bundle,
    loads_are_consecutive,
    loads_are_reversed,
)
from .lookahead import LookAheadScorer
from .reduction import (
    ReductionCandidate,
    emit_reduction,
    find_minmax_candidates,
    find_reduction_candidates,
    plan_reduction,
)
from .reorder import SuperNode, SuperNodeRecord
from .seeds import collect_store_seeds
from .supernode import apo_str
from .report import FunctionReport, GraphReport, VectorizationReport


_STAT_GRAPHS_BUILT = STAT("slp.graphs-built", "SLP graphs grown from seed bundles")
_STAT_GRAPHS_VECTORIZED = STAT(
    "slp.graphs-vectorized", "graphs accepted and emitted as vector code"
)
_STAT_COST_REJECTS = STAT(
    "slp.graphs-rejected-cost", "graphs rejected by the profitability threshold"
)
_STAT_SEEDS_UNSCHEDULABLE = STAT(
    "slp.seeds-unschedulable", "seed store bundles that failed scheduling checks"
)
_STAT_GATHER_NODES = STAT("slp.gather-nodes", "gather nodes in built graphs")
_STAT_CHAIN_UNDOS = STAT(
    "supernode.undo-events", "chain massages reverted after an unprofitable graph"
)
#: per reduction kind (``ReductionCandidate.kind``)
_STAT_REDUCTIONS_VECTORIZED = {
    "reduction": STAT(
        "reduction.vectorized", "horizontal reductions emitted as vector code"
    ),
    "minmax": STAT("minmax.vectorized", "min/max reductions emitted as vector code"),
}
_STAT_REDUCTIONS_REJECTED = {
    "reduction": STAT(
        "reduction.rejected",
        "horizontal reduction candidates rejected (plan or cost)",
    ),
    "minmax": STAT(
        "minmax.rejected", "min/max reduction candidates rejected (plan or cost)"
    ),
}


@dataclass(frozen=True)
class SLPConfig:
    """One vectorizer configuration (the paper's O3 / LSLP / SN-SLP)."""

    name: str
    enable_vectorizer: bool = True
    #: LSLP Multi-Node: chains of one commutative opcode
    enable_multinode: bool = False
    #: Super-Node: chains including the inverse opcode
    enable_supernode: bool = False
    #: Super-Node trunk movement (ablation switch; Section IV-C3)
    enable_trunk_swaps: bool = True
    #: look-ahead recursion depth for operand scoring
    lookahead_depth: int = 2
    #: vanilla commutative operand alignment during bundling (footnote 2)
    commutative_reordering: bool = True
    #: operand visit order in Listing 2 (root-most first per the paper)
    visit_root_first: bool = True
    #: horizontal-reduction vectorization (clang's -slp-vectorize-hor,
    #: which the paper enables for both LLVM and SN-SLP)
    enable_reductions: bool = True
    max_trunks: int = 16
    max_depth: int = 14
    profitability_threshold: float = 0.0

    @property
    def chains_enabled(self) -> bool:
        return self.enable_multinode or self.enable_supernode


#: the paper's evaluated configurations
O3_CONFIG = SLPConfig("O3", enable_vectorizer=False)
SLP_CONFIG = SLPConfig("SLP")
LSLP_CONFIG = SLPConfig("LSLP", enable_multinode=True)
SNSLP_CONFIG = SLPConfig("SN-SLP", enable_multinode=True, enable_supernode=True)

ALL_CONFIGS = (O3_CONFIG, SLP_CONFIG, LSLP_CONFIG, SNSLP_CONFIG)


def config_named(name: str) -> SLPConfig:
    for config in ALL_CONFIGS:
        if config.name.lower() == name.lower():
            return config
    raise KeyError(f"unknown vectorizer config: {name}")


class _GraphBuilder:
    """Grows one SLP graph from a seed store bundle (Listing 1)."""

    def __init__(
        self,
        vectorizer: "SLPVectorizer",
        seed_stores: Sequence[StoreInst],
        function: Function,
        anchor: Optional[Instruction] = None,
    ) -> None:
        self.vectorizer = vectorizer
        self.config = vectorizer.config
        self.scorer = vectorizer.scorer
        self.function = function
        self.seed_stores = list(seed_stores)
        if anchor is not None:
            self.anchor = anchor
            self.block = anchor.parent
        else:
            self.block = seed_stores[0].parent
            assert self.block is not None
            self.anchor = max(self.seed_stores, key=self.block.index_of)
        assert self.block is not None
        # The id-keyed state below names only objects this builder holds
        # (the seed stores, its nodes' lanes, the formed Super-Nodes' old
        # and emitted instructions), so no id is reused while it lives.
        self.nodes: List[SLPNode] = []
        self.claimed: Set[int] = set()
        self.supernodes: List[SuperNodeRecord] = []
        #: SuperNode objects formed while growing this graph, in formation
        #: order — undone in reverse when the graph is unprofitable
        self.formed_chains: List[SuperNode] = []
        #: bundle dedup: identical lane tuples map to one node, so shared
        #: subexpressions (e.g. a select reusing its cmp's operands) reuse
        #: the vectorized value instead of gathering the claimed scalars
        self._bundle_cache: Dict[Tuple[int, ...], SLPNode] = {}
        #: instructions emitted by a Super-Node's generateCode: inner
        #: bundles over them belong to an already-built node, so the
        #: massaging hook must not re-form a chain over them (Listing 1,
        #: line 26: "If already building a Super-Node, grow it").
        self.in_supernode: Set[int] = set()

    # -- entry point -----------------------------------------------------------------

    def build(self) -> Optional[SLPGraph]:
        if not bundle_is_schedulable_stores(self.seed_stores, self.anchor):
            return None
        lanes = tuple(self.seed_stores)
        vec_type = vector_of(self.seed_stores[0].value.type, len(lanes))
        for store in self.seed_stores:
            self.claimed.add(id(store))
        value_node = self._build_bundle(
            tuple(store.value for store in self.seed_stores), depth=1
        )
        root = SLPNode(
            kind=NodeKind.STORE,
            lanes=lanes,
            vec_type=vec_type,
            operands=[value_node],
        )
        self.nodes.append(root)
        return SLPGraph(
            root=root,
            nodes=self.nodes,
            block=self.block,
            anchor=self.anchor,
            supernodes=self.supernodes,
        )

    def build_value_bundle(self, lanes: Tuple[Value, ...]) -> SLPNode:
        """Grow a tree for an arbitrary value bundle (used by the
        horizontal-reduction vectorizer for leaf groups)."""
        return self._build_bundle(lanes, depth=1)

    # -- recursive bundling (buildGraph, Listing 1) ---------------------------------------

    def _gather(self, lanes: Tuple[Value, ...], reason: str) -> SLPNode:
        vec_type = vector_of(lanes[0].type, len(lanes))
        node = SLPNode(
            kind=NodeKind.GATHER, lanes=lanes, vec_type=vec_type, reason=reason
        )
        self.nodes.append(node)
        return node

    def _build_bundle(
        self, lanes: Tuple[Value, ...], depth: int, allow_chain: bool = True
    ) -> SLPNode:
        key = tuple(id(v) for v in lanes)
        cached = self._bundle_cache.get(key)
        if cached is not None:
            return cached
        node = self._build_bundle_uncached(lanes, depth, allow_chain)
        self._bundle_cache[tuple(id(v) for v in node.lanes)] = node
        self._bundle_cache[key] = node
        return node

    def _build_bundle_uncached(
        self, lanes: Tuple[Value, ...], depth: int, allow_chain: bool = True
    ) -> SLPNode:
        if depth > self.config.max_depth:
            return self._gather(lanes, "max depth")
        failure = lanes_form_valid_bundle(lanes)
        if failure is not None:
            return self._gather(lanes, failure)
        instrs: Tuple[Instruction, ...] = lanes  # type: ignore[assignment]
        if any(
            id(inst) in self.claimed or id(inst) in self.vectorizer.consumed_ids
            for inst in instrs
        ):
            return self._gather(lanes, "already in a vector bundle")
        # i1 (comparison results) vectorizes as a mask alongside the data
        # width; every other element type must be natively supported.
        if instrs[0].type.bit_width != 1 and not (
            self.vectorizer.target.isa.supports_element(instrs[0].type)
        ):
            return self._gather(lanes, "element type not vectorizable")
        if any(inst.parent is not self.block for inst in instrs):
            return self._gather(lanes, "lane outside seed block")

        # -- Super-Node / Multi-Node hook (buildSuperNode, Listing 1 line 12)
        if (
            allow_chain
            and self.config.chains_enabled
            and all(isinstance(inst, BinaryInst) for inst in instrs)
            and not any(id(inst) in self.in_supernode for inst in instrs)
        ):
            rewritten = self._try_chain_massage(instrs)
            if rewritten is not None:
                return self._build_bundle(rewritten, depth, allow_chain=False)

        node = self._classify(instrs, depth)
        return node

    def _classify(self, instrs: Tuple[Instruction, ...], depth: int) -> SLPNode:
        first = instrs[0]
        vec_type = vector_of(first.type, len(instrs))

        if isinstance(first, LoadInst):
            if not all(isinstance(i, LoadInst) for i in instrs):
                return self._gather(instrs, "mixed opcodes")
            reversed_run = False
            if not loads_are_consecutive(instrs):  # type: ignore[arg-type]
                if loads_are_reversed(instrs):  # type: ignore[arg-type]
                    reversed_run = True
                else:
                    return self._gather(instrs, "non-consecutive loads")
            if not bundle_is_schedulable_loads(
                instrs, self.anchor, self.seed_stores  # type: ignore[arg-type]
            ):
                return self._gather(instrs, "unschedulable loads")
            node = self._make_node(NodeKind.LOAD, instrs, vec_type, [])
            node.load_reversed = reversed_run
            return node

        if isinstance(first, BinaryInst):
            if not all(isinstance(i, BinaryInst) for i in instrs):
                return self._gather(instrs, "mixed opcodes")
            opcodes = tuple(i.opcode for i in instrs)
            same = all(op is opcodes[0] for op in opcodes)
            same_family = all(
                base_opcode(op) is base_opcode(opcodes[0]) for op in opcodes
            )
            if not same_family:
                return self._gather(instrs, "mixed opcode families")
            left, right = self._aligned_operands(instrs)  # type: ignore[arg-type]
            kind = NodeKind.VECTOR if same else NodeKind.ALT
            operands = [
                self._build_bundle(tuple(left), depth + 1),
                self._build_bundle(tuple(right), depth + 1),
            ]
            return self._make_node(
                kind, instrs, vec_type, operands,
                lane_opcodes=None if same else opcodes,
            )

        if isinstance(first, CallInst):
            if not all(
                isinstance(i, CallInst) and i.callee == first.callee
                for i in instrs
            ):
                return self._gather(instrs, "mixed callees")
            operand_nodes = []
            for arg_index in range(first.num_operands):
                args = tuple(i.operand(arg_index) for i in instrs)
                operand_nodes.append(self._build_bundle(args, depth + 1))
            return self._make_node(NodeKind.CALL, instrs, vec_type, operand_nodes)

        if isinstance(first, CastInst):
            if not all(
                isinstance(i, CastInst) and i.opcode is first.opcode
                for i in instrs
            ):
                return self._gather(instrs, "mixed casts")
            sources = tuple(i.operand(0) for i in instrs)
            if any(s.type is not sources[0].type for s in sources):
                return self._gather(instrs, "mixed cast source types")
            operand = self._build_bundle(sources, depth + 1)
            return self._make_node(NodeKind.VECTOR, instrs, vec_type, [operand])

        if isinstance(first, SelectInst):
            if not all(isinstance(i, SelectInst) for i in instrs):
                return self._gather(instrs, "mixed opcodes")
            operands = [
                self._build_bundle(
                    tuple(i.operand(k) for i in instrs), depth + 1
                )
                for k in range(3)
            ]
            return self._make_node(NodeKind.VECTOR, instrs, vec_type, operands)

        if isinstance(first, CmpInst):
            if not all(
                isinstance(i, CmpInst)
                and i.opcode is first.opcode
                and i.predicate is first.predicate
                for i in instrs
            ):
                return self._gather(instrs, "mixed comparisons")
            operands = [
                self._build_bundle(
                    tuple(i.operand(k) for i in instrs), depth + 1
                )
                for k in range(2)
            ]
            return self._make_node(NodeKind.VECTOR, instrs, vec_type, operands)

        return self._gather(instrs, f"unsupported opcode {first.opcode}")

    def _make_node(
        self,
        kind: NodeKind,
        instrs: Tuple[Instruction, ...],
        vec_type: VectorType,
        operands: List[SLPNode],
        lane_opcodes: Optional[Tuple[Opcode, ...]] = None,
    ) -> SLPNode:
        for inst in instrs:
            self.claimed.add(id(inst))
        node = SLPNode(
            kind=kind,
            lanes=instrs,
            vec_type=vec_type,
            operands=operands,
            lane_opcodes=lane_opcodes,
            from_supernode=bool(instrs)
            and all(id(inst) in self.in_supernode for inst in instrs),
        )
        self.nodes.append(node)
        return node

    # -- commutative operand alignment (footnote 2) ----------------------------------------

    def _aligned_operands(
        self, instrs: Sequence[BinaryInst]
    ) -> Tuple[List[Value], List[Value]]:
        left: List[Value] = [instrs[0].lhs]
        right: List[Value] = [instrs[0].rhs]
        for inst in instrs[1:]:
            lhs, rhs = inst.lhs, inst.rhs
            if self.config.commutative_reordering and is_commutative(inst.opcode):
                straight = self.scorer.score_pair(left[-1], lhs) + self.scorer.score_pair(
                    right[-1], rhs
                )
                crossed = self.scorer.score_pair(left[-1], rhs) + self.scorer.score_pair(
                    right[-1], lhs
                )
                if crossed > straight:
                    lhs, rhs = rhs, lhs
            left.append(lhs)
            right.append(rhs)
        return left, right

    # -- Super-Node hook ---------------------------------------------------------------------

    def _try_chain_massage(
        self, instrs: Tuple[Instruction, ...]
    ) -> Optional[Tuple[Value, ...]]:
        """Form, reorder and re-emit a Multi-/Super-Node over ``instrs``.

        Returns the rewritten per-lane roots, or None when no chain forms.
        """
        node = SuperNode.build(
            instrs,
            allow_inverse=self.config.enable_supernode,
            allow_trunk_swaps=(
                self.config.enable_supernode and self.config.enable_trunk_swaps
            ),
            fast_math=self.function.fast_math,
            max_trunks=self.config.max_trunks,
        )
        if node is None:
            return None
        # Chains must not overlap instructions already claimed by this
        # graph or consumed by an earlier vectorized graph.
        for chain in node.chains:
            for _, unit in chain.trunks():
                if unit.inst is None:
                    return None
                if (
                    id(unit.inst) in self.claimed
                    or id(unit.inst) in self.vectorizer.consumed_ids
                ):
                    return None
        tracer = current_tracer()
        if tracer.mask & DECISION:
            tracer.decision(
                "supernode",
                f"formed {node.kind}-node: {node.num_lanes} lanes x "
                f"{node.size()} trunks in the {node.chains[0].family.name} "
                f"family"
                + (" (contains inverse ops)" if node.contains_inverse else ""),
                node_kind=node.kind,
                lanes=node.num_lanes,
                size=node.size(),
                family=node.chains[0].family.name,
                contains_inverse=node.contains_inverse,
                lane_apos=[
                    "".join(
                        apo_str(apo, chain.family)
                        for apo in chain.slot_apos().values()
                    )
                    for chain in node.chains
                ],
                chains=[repr(chain) for chain in node.chains],
                dot_before=chains_to_dot(
                    node.saved_chains, title=f"{node.kind}-node before reorder"
                ),
            )
        applied = node.reorder_leaves_and_trunks(
            self.scorer, visit_root_first=self.config.visit_root_first
        )
        if tracer.mask & DECISION:
            leaf_swaps = sum(c.leaf_swaps_applied for c in node.chains)
            trunk_swaps = sum(c.trunk_swaps_applied for c in node.chains)
            tracer.decision(
                "reorder",
                f"reorder applied groups at {applied}/{node.num_slots} "
                f"operand index(es): {leaf_swaps} leaf swap(s), "
                f"{trunk_swaps} trunk swap(s)",
                applied=applied,
                slots=node.num_slots,
                leaf_swaps=leaf_swaps,
                trunk_swaps=trunk_swaps,
                chains=[repr(chain) for chain in node.chains],
                dot_after=chains_to_dot(
                    node.chains, title=f"{node.kind}-node after reorder"
                ),
            )
        new_roots = node.generate_code()
        for inst in node.emitted_instructions:
            self.in_supernode.add(id(inst))
        self.supernodes.append(node.record())
        self.formed_chains.append(node)
        return tuple(new_roots)

    def undo_chains(self) -> None:
        """Listing 1 line 53: revert the Super-Node code massaging so the
        function is left exactly as the vectorizer found it.  Nested
        chains are undone innermost-last-formed first, remapping leaves
        whose originals were erased by an inner chain's own
        generate_code."""
        tracer = current_tracer()
        leaf_remap: Dict[int, Value] = {}
        for node in reversed(self.formed_chains):
            restored = node.undo_code(leaf_remap)
            _STAT_CHAIN_UNDOS.add()
            if tracer.mask & DECISION:
                tracer.decision(
                    "undo",
                    f"reverted {node.kind}-node massage "
                    f"({node.num_lanes} lanes x {node.size()} "
                    f"trunks) after cost rejection",
                    kind=node.kind,
                    lanes=node.num_lanes,
                    size=node.size(),
                )
            for original, replacement in zip(node.original_roots, restored):
                leaf_remap[id(original)] = replacement


class SLPVectorizer:
    """Runs one vectorizer configuration over functions/modules."""

    def __init__(self, target: TargetMachine, config: SLPConfig) -> None:
        self.target = target
        self.config = config
        self.scorer = LookAheadScorer(depth=config.lookahead_depth)
        #: instructions consumed by emitted vector code (across graphs),
        #: by id.  Codegen and DCE erase them; holding each one here keeps
        #: a freed instruction's id from passing to a new instruction that
        #: would then count as consumed.
        self.consumed_ids: Dict[int, Instruction] = {}

    # -- function / module drivers ----------------------------------------------------------

    def run_on_function(self, function: Function) -> FunctionReport:
        report = FunctionReport(name=function.name)
        if not self.config.enable_vectorizer:
            return report
        with current_tracer().span("slp.function", function=function.name):
            for block in list(function.blocks):
                self._run_on_block(function, block, report)
            eliminate_dead_code(function)
        return report

    def run_on_module(self, module: Module) -> VectorizationReport:
        report = VectorizationReport(config_name=self.config.name)
        for function in module.functions.values():
            report.functions.append(self.run_on_function(function))
        return report

    # -- the Figure 1 worklist loop -----------------------------------------------------------

    def _run_on_block(
        self, function: Function, block: BasicBlock, report: FunctionReport
    ) -> None:
        self._vectorize_store_graphs(function, block, report)
        if not self.config.enable_reductions:
            return
        for candidate in find_reduction_candidates(
            block,
            allow_inverse=self.config.enable_supernode,
            fast_math=function.fast_math,
            consumed_ids=self.consumed_ids,
            max_trunks=max(self.config.max_trunks, 32),
        ):
            self._vectorize_reduction(function, block, report, candidate)
        for candidate in find_minmax_candidates(
            block, fast_math=function.fast_math, consumed_ids=self.consumed_ids
        ):
            self._vectorize_reduction(function, block, report, candidate)

    def _vectorize_store_graphs(
        self, function: Function, block: BasicBlock, report: FunctionReport
    ) -> None:
        seeds = collect_store_seeds(block, self.target.isa)  # step 1
        for seed in seeds:  # steps 2, 7, 8
            if any(id(store) in self.consumed_ids for store in seed):
                continue
            if any(store.parent is None for store in seed):
                continue  # erased by a previous graph's codegen
            if not BISECT.should_run(
                f"slp store-graph @{function.name}/{block.name} "
                f"lanes={len(seed)}"
            ):
                continue  # vetoed by -opt-bisect-limit style gating
            tracer = current_tracer()
            with tracer.span(
                "slp.graph", function=function.name, block=block.name,
                lanes=len(seed),
            ):
                if tracer.mask & DECISION:
                    tracer.begin_graph(function.name, block.name, "store")
                    tracer.decision(
                        "seed",
                        f"seeded from {len(seed)} adjacent stores",
                        lanes=len(seed),
                    )
                builder = _GraphBuilder(self, seed, function)
                graph = builder.build()  # step 3
                if graph is None:
                    _STAT_SEEDS_UNSCHEDULABLE.add()
                    tracer.remark(
                        "missed", "slp",
                        "seed store bundle is not schedulable",
                        function=function.name,
                        block=block.name,
                        seed="store",
                        lanes=len(seed),
                    )
                    if tracer.mask & DECISION:
                        tracer.decision(
                            "seed-rejected",
                            "seed store bundle is not schedulable",
                            lanes=len(seed),
                        )
                        tracer.end_graph()
                    continue
                _STAT_GRAPHS_BUILT.add()
                _STAT_GATHER_NODES.add(len(graph.gather_nodes()))
                compute_graph_cost(graph, self.target.cost_model)  # step 4
                profitable = is_profitable(
                    graph, self.config.profitability_threshold
                )  # step 5
                if tracer.mask & DECISION:
                    tracer.decision(
                        "graph",
                        f"built graph: {len(graph.nodes)} node(s), "
                        f"{len(graph.gather_nodes())} gather(s)",
                        nodes=len(graph.nodes),
                        gathers=len(graph.gather_nodes()),
                        gather_reasons=sorted(
                            {n.reason for n in graph.gather_nodes()}
                        ),
                        dump=graph.dump(),
                        dot=graph_to_dot(graph),
                    )
                    tracer.decision(
                        "cost",
                        f"cost {graph.total_cost:+.1f} (vector "
                        f"{graph.vector_cost:.1f} - scalar "
                        f"{graph.scalar_cost:.1f} + extract "
                        f"{graph.extract_cost:.1f}) -> "
                        f"{'vectorized' if profitable else 'rejected'}",
                        total=graph.total_cost,
                        scalar=graph.scalar_cost,
                        vector=graph.vector_cost,
                        extract=graph.extract_cost,
                        threshold=self.config.profitability_threshold,
                        verdict="profitable" if profitable else "unprofitable",
                    )
                if profitable:
                    emit_vector_code(graph)  # step 6b
                    self.consumed_ids.update(graph.internal_instructions())
                    for record in graph.supernodes:
                        record.vectorized = True
                    _STAT_GRAPHS_VECTORIZED.add()
                else:
                    _STAT_COST_REJECTS.add()
                    builder.undo_chains()
                self._remark_graph_outcome(
                    function, block, graph, profitable, seed_kind="store"
                )
                if tracer.mask & DECISION:
                    tracer.end_graph()
            report.graphs.append(
                GraphReport(
                    function=function.name,
                    block=block.name,
                    lanes=graph.root.num_lanes,
                    cost=graph.total_cost,
                    vectorized=profitable,
                    node_count=len(graph.nodes),
                    gather_count=len(graph.gather_nodes()),
                    supernodes=list(graph.supernodes),
                    dump=graph.dump(),
                    gather_reasons=[
                        node.reason for node in graph.gather_nodes()
                    ],
                )
            )

    # -- optimization remarks -----------------------------------------------------------------

    def _remark_graph_outcome(
        self,
        function: Function,
        block: BasicBlock,
        graph: "SLPGraph",
        profitable: bool,
        seed_kind: str,
    ) -> None:
        """Emit passed/missed (+ gather analysis) remarks for one graph."""
        tracer = current_tracer()
        if not tracer.mask & REMARK:
            return
        where = dict(function=function.name, block=block.name, seed=seed_kind)
        reasons: Dict[str, int] = {}
        for node in graph.gather_nodes():
            reasons[node.reason] = reasons.get(node.reason, 0) + 1
        if profitable:
            tracer.remark(
                "passed", "slp",
                f"vectorized {graph.root.num_lanes}-lane {seed_kind} graph "
                f"(cost {graph.total_cost:+.1f})",
                cost=graph.total_cost,
                lanes=graph.root.num_lanes,
                supernodes=len(graph.supernodes),
                **where,
            )
            # Partial gathers survive inside vectorized graphs; surface
            # them as analysis remarks (see VectorizationReport.
            # partial_gather_reasons for the histogram view).
            for reason, count in sorted(reasons.items()):
                tracer.remark(
                    "analysis", "slp",
                    f"partial gather in vectorized graph: {reason}",
                    count=count,
                    **where,
                )
        else:
            tracer.remark(
                "missed", "slp",
                f"graph not profitable (cost {graph.total_cost:+.1f} >= "
                f"{self.config.profitability_threshold:g})",
                cost=graph.total_cost,
                lanes=graph.root.num_lanes,
                gather_reasons=reasons,
                **where,
            )

    # -- horizontal reductions (-slp-vectorize-hor) -----------------------------------------------

    def _vectorize_reduction(
        self,
        function: Function,
        block: BasicBlock,
        report: FunctionReport,
        candidate: ReductionCandidate,
    ) -> None:
        """Plan and cost one reduction chain; emit it when profitable,
        else undo its chunks' Super-Node massage."""
        if candidate.root.parent is None:
            return  # erased by a previous transformation
        kind, leaves = candidate.kind, candidate.leaf_count
        if not BISECT.should_run(
            f"{kind} @{function.name}/{block.name} leaves={leaves}"
        ):
            return
        tracer = current_tracer()
        where = dict(function=function.name, block=block.name, seed=kind)
        with tracer.span(
            f"slp.{kind}", function=function.name, block=block.name,
            leaves=leaves,
        ):
            if tracer.mask & DECISION:
                tracer.begin_graph(function.name, block.name, kind)
                tracer.decision(
                    "seed",
                    f"seeded from a {leaves}-leaf horizontal "
                    f"{candidate.title} chain",
                    leaves=leaves,
                )
            builder = _GraphBuilder(self, (), function, anchor=candidate.root)
            plan = plan_reduction(
                candidate, builder, self.target.isa, self.target.cost_model
            )
        if plan is None:
            _STAT_REDUCTIONS_REJECTED[kind].add()
            builder.undo_chains()
            message = f"no profitable chunking for {leaves} leaves"
            tracer.remark("missed", kind, message, **where, leaves=leaves)
            if tracer.mask & DECISION:
                tracer.decision("seed-rejected", message, leaves=leaves)
                tracer.end_graph()
            return
        threshold = self.config.profitability_threshold
        profitable = plan.total_cost < threshold
        if tracer.mask & DECISION:
            tracer.decision(
                "cost",
                f"cost {plan.total_cost:+.1f} at VF={plan.vector_width} "
                f"-> {'vectorized' if profitable else 'rejected'}",
                total=plan.total_cost,
                width=plan.vector_width,
                threshold=threshold,
                verdict="profitable" if profitable else "unprofitable",
            )
        if profitable:
            _STAT_REDUCTIONS_VECTORIZED[kind].add()
            tracer.remark(
                "passed", kind,
                f"vectorized {leaves}-leaf {candidate.title} at "
                f"VF={plan.vector_width} (cost {plan.total_cost:+.1f})",
                **where, cost=plan.total_cost, width=plan.vector_width,
            )
            emit_reduction(plan)
            self.consumed_ids.update((id(op), op) for op in candidate.ops)
            for node in plan.nodes:
                if node.kind is not NodeKind.GATHER:
                    self.consumed_ids.update((id(i), i) for i in node.instructions())
        else:
            _STAT_REDUCTIONS_REJECTED[kind].add()
            builder.undo_chains()
            tracer.remark(
                "missed", kind,
                f"{candidate.title} not profitable "
                f"(cost {plan.total_cost:+.1f} >= {threshold:g})",
                **where, cost=plan.total_cost, width=plan.vector_width,
            )
        record = candidate.record("super" if self.config.enable_supernode else "multi")
        record.vectorized = profitable
        report.graphs.append(
            GraphReport(
                function=function.name,
                block=block.name,
                lanes=plan.vector_width,
                cost=plan.total_cost,
                vectorized=profitable,
                node_count=len(plan.nodes),
                gather_count=sum(
                    1 for n in plan.nodes if n.kind is NodeKind.GATHER
                ),
                supernodes=[record],
                dump=(
                    f"{candidate.title} over {leaves} leaves "
                    f"(+{len(candidate.plus_leaves)}/-{len(candidate.minus_leaves)}) "
                    f"at VF={plan.vector_width}, cost {plan.total_cost:+.1f}"
                ),
                kind="reduction" if candidate.callee is None else "minmax-reduction",
            )
        )
        if tracer.mask & DECISION:
            tracer.end_graph()
