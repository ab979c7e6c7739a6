"""Table I regeneration: the kernel inventory.

The paper's Table I lists the kernels extracted from SPEC CPU2006 that
trigger Super-Node SLP, plus the motivating examples.  Our equivalent
lists every registered kernel with its origin benchmark and the SN-SLP
feature it exercises, augmented with measured activation data (whether a
Super-Node actually formed and vectorized).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..kernels.suite import Kernel, all_kernels
from ..machine.targets import DEFAULT_TARGET, TargetMachine
from ..vectorizer.pipeline import compile_module
from ..vectorizer.slp import SNSLP_CONFIG


def table1_with_activation(
    kernels: Optional[Sequence[Kernel]] = None,
    target: TargetMachine = DEFAULT_TARGET,
) -> List[Dict[str, object]]:
    """Table I rows, extended with measured SN-SLP activation columns."""
    rows: List[Dict[str, object]] = []
    for kernel in kernels if kernels is not None else all_kernels():
        compiled = compile_module(kernel.build(), SNSLP_CONFIG, target)
        report = compiled.report
        nodes = report.formed_nodes(vectorized_only=False)
        rows.append(
            {
                "kernel": kernel.name,
                "origin": kernel.origin,
                "pattern": kernel.pattern,
                "supernodes_formed": len(nodes),
                "supernodes_with_inverse": sum(
                    1 for n in nodes if n.contains_inverse
                ),
                "vectorized": len(report.vectorized_graphs()) > 0,
            }
        )
    return rows


def format_table1(rows: Sequence[Dict[str, object]]) -> str:
    from .figures import format_rows

    return format_rows(list(rows), title="Table I: kernel inventory")
