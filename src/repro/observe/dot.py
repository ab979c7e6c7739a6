"""DOT and JSON dumps of SLP graphs — the repro's ``-view-slp-tree``.

Renders the vectorizer's data structures for human eyes:

* :func:`graph_to_dot` — one :class:`~repro.vectorizer.graph.SLPGraph` as
  Graphviz DOT.  Each bundle is a table with **lanes as columns** (the
  paper's figures), gather nodes are red, Super-Node-massaged bundles are
  grouped in a labeled box, and ALT bundles carry their per-lane ``+/-``
  signs both in the table and on the operand edge;
* :func:`chains_to_dot` — the per-lane expression trees of a
  Multi-/Super-Node (one cluster per lane) with the APO sign of every
  edge, used for the before/after-reorder views the journal captures;
* :func:`graph_to_json` — the same graph as a plain JSON document for
  external tooling.

This module deliberately imports nothing from ``repro.vectorizer`` —
everything is duck-typed.  ``repro.vectorizer`` imports ``repro.observe``
for ``STAT`` at module scope, so a module-level import in the other
direction would cycle through a partially-initialized package; keeping
the renderers structurally typed sidesteps the problem entirely (and is
why they are not re-exported from ``repro.observe``).
"""

from __future__ import annotations

import html
from typing import Dict, List, Optional

#: bundle-kind fill colors, keyed by NodeKind.value (paper figure style:
#: red gathers, green loads, blue stores)
_KIND_COLORS = {
    "store": "#c6dbef",
    "load": "#c7e9c0",
    "vector": "#deebf7",
    "alt": "#fdd0a2",
    "call": "#dadaeb",
    "gather": "#fcbba1",
}

#: opcode-name -> infix symbol for trunk/ALT rendering
_OP_SYMBOLS = {
    "ADD": "+", "FADD": "+", "SUB": "-", "FSUB": "-",
    "MUL": "*", "FMUL": "*", "FDIV": "/", "SDIV": "/",
}


def _esc(text: str) -> str:
    return html.escape(str(text), quote=True)


def _lane_signs(node) -> Optional[str]:
    """Per-lane +/- signs of an ALT bundle (None for uniform bundles)."""
    opcodes = getattr(node, "lane_opcodes", None)
    if not opcodes:
        return None
    return "".join(_OP_SYMBOLS.get(op.name, "?") for op in opcodes)


def _node_label(node, index: int) -> str:
    """HTML-like table label: header row, then one cell per lane."""
    color = _KIND_COLORS.get(node.kind.value, "#ffffff")
    lanes = list(node.lanes)
    span = max(1, len(lanes))
    header = f"{node.kind.value} {_esc(node.vec_type)}"
    signs = _lane_signs(node)
    if signs is not None:
        header += f" [{_esc(signs)}]"
    if getattr(node, "load_reversed", False):
        header += " (reversed)"
    cost = getattr(node, "cost", 0.0)
    rows = [
        f'<TR><TD COLSPAN="{span}" BGCOLOR="{color}">'
        f"<B>{header}</B> cost {cost:+.1f}</TD></TR>"
    ]
    rows.append(
        "<TR>" + "".join(f"<TD>{_esc(v.ref())}</TD>" for v in lanes) + "</TR>"
    )
    reason = getattr(node, "reason", "")
    if reason:
        rows.append(
            f'<TR><TD COLSPAN="{span}"><I>{_esc(reason)}</I></TD></TR>'
        )
    table = (
        '<TABLE BORDER="0" CELLBORDER="1" CELLSPACING="0" CELLPADDING="3">'
        + "".join(rows)
        + "</TABLE>"
    )
    return f"n{index} [shape=plain, label=<{table}>];"


def graph_to_dot(graph, title: str = "") -> str:
    """An :class:`SLPGraph` as Graphviz DOT (lanes as columns).

    Bundles massaged by a Multi-/Super-Node (``SLPNode.from_supernode``)
    are grouped inside a labeled cluster box; edges are labeled with the
    operand index, and the inverse-operand edge of an ALT bundle
    additionally carries the per-lane APO signs.
    """
    ids: Dict[int, int] = {id(n): i for i, n in enumerate(graph.nodes)}
    lines: List[str] = ["digraph slp {", "  rankdir=TB;", "  node [fontsize=10];"]
    label = title or (
        f"SLP graph @ {graph.block.name} (cost {graph.total_cost:+.1f})"
    )
    lines.append(f'  label="{_esc(label)}"; labelloc=t;')

    massaged = [
        n for n in graph.nodes if getattr(n, "from_supernode", False)
    ]
    plain = [n for n in graph.nodes if not getattr(n, "from_supernode", False)]
    for node in plain:
        lines.append("  " + _node_label(node, ids[id(node)]))
    if massaged:
        kinds = {r.kind for r in getattr(graph, "supernodes", [])}
        box = "Super-Node" if "super" in kinds else "Multi-Node"
        lines.append("  subgraph cluster_supernode {")
        lines.append(f'    label="{box}"; style=dashed; color="#756bb1";')
        for node in massaged:
            lines.append("    " + _node_label(node, ids[id(node)]))
        lines.append("  }")

    emitted = set()
    for node in graph.nodes:
        src = ids[id(node)]
        for op_index, operand in enumerate(node.operands):
            key = (src, ids[id(operand)], op_index)
            if key in emitted:
                continue
            emitted.add(key)
            attrs = [f'label="{op_index}"', "fontsize=9"]
            signs = _lane_signs(node)
            if signs is not None and op_index == 1:
                # the RHS operand of an add/sub alternation: per-lane APOs
                attrs = [f'label="{op_index} [{_esc(signs)}]"', "fontsize=9"]
            lines.append(
                f"  n{src} -> n{ids[id(operand)]} [{', '.join(attrs)}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph) -> Dict[str, object]:
    """An :class:`SLPGraph` as a plain JSON-compatible document."""
    ids: Dict[int, int] = {id(n): i for i, n in enumerate(graph.nodes)}
    nodes = []
    for index, node in enumerate(graph.nodes):
        nodes.append(
            {
                "id": index,
                "kind": node.kind.value,
                "lanes": [v.ref() for v in node.lanes],
                "vec_type": str(node.vec_type),
                "cost": getattr(node, "cost", 0.0),
                "operands": [ids[id(op)] for op in node.operands],
                "lane_signs": _lane_signs(node),
                "reason": getattr(node, "reason", ""),
                "from_supernode": bool(getattr(node, "from_supernode", False)),
            }
        )
    return {
        "block": graph.block.name,
        "total_cost": graph.total_cost,
        "scalar_cost": getattr(graph, "scalar_cost", 0.0),
        "vector_cost": getattr(graph, "vector_cost", 0.0),
        "extract_cost": getattr(graph, "extract_cost", 0.0),
        "root": ids[id(graph.root)],
        "nodes": nodes,
        "supernodes": [
            {
                "kind": r.kind,
                "lanes": r.lanes,
                "size": r.size,
                "family": r.family.name,
                "contains_inverse": r.contains_inverse,
                "leaf_swaps": r.leaf_swaps,
                "trunk_swaps": r.trunk_swaps,
            }
            for r in getattr(graph, "supernodes", [])
        ],
    }


# -- Multi-/Super-Node lane chains ------------------------------------------------


def _family_sign(family, apo: bool) -> str:
    """APO symbol under ``family`` (duck-typed Opcode)."""
    if family.name in ("MUL", "FMUL"):
        return "/" if apo else "*"
    return "-" if apo else "+"


def chains_to_dot(chains, title: str = "") -> str:
    """Per-lane expression trees of a Multi-/Super-Node as DOT.

    One cluster per lane; trunk units render as their opcode symbol,
    leaves as their IR ref, and **every edge carries the child's APO
    sign** — the annotation the paper's legality rules reason about.
    Render ``node.chains`` before the reorder for the before view and
    after it for the after view.
    """
    lines: List[str] = ["digraph chains {", "  rankdir=TB;", "  node [fontsize=10];"]
    if title:
        lines.append(f'  label="{_esc(title)}"; labelloc=t;')
    for lane, chain in enumerate(chains):
        apos = chain.value_apos()
        lines.append(f"  subgraph cluster_lane{lane} {{")
        lines.append(f'    label="lane {lane}"; color="#9ecae1";')
        _chain_node_dot(chain.root, chain.family, apos, f"l{lane}n", [0], lines)
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _chain_node_dot(
    node, family, apos, prefix: str, counter: List[int], lines: List[str]
) -> str:
    """Append the DOT lines of one trunk unit or leaf and its subtree;
    returns the node's DOT name (``prefix`` plus a running count)."""
    name = f"{prefix}{counter[0]}"
    counter[0] += 1
    if hasattr(node, "children"):  # a TrunkUnit
        sym = _OP_SYMBOLS.get(node.opcode.name, node.opcode.name)
        apo = _family_sign(family, apos[id(node)])
        lines.append(
            f'    {name} [shape=circle, label="{_esc(sym)}", '
            f'xlabel="APO {_esc(apo)}"];'
        )
        for child in node.children:
            child_name = _chain_node_dot(child, family, apos, prefix, counter, lines)
            sign = _family_sign(family, apos[id(child)])
            lines.append(
                f'    {name} -> {child_name} [label="{_esc(sign)}", '
                "fontsize=9];"
            )
    else:  # a Leaf
        lines.append(
            f'    {name} [shape=box, style=rounded, '
            f'label="{_esc(node.value.ref())}"];'
        )
    return name
