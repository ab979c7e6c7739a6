"""Parameterized workload generator.

Produces Super-Node-shaped kernels with controlled difficulty: ``lanes``
adjacent store lanes, each computing the *same* signed sum of ``terms``
array elements, but with a per-lane random expression shape and term
order.  Because every lane's signed-term multiset is identical, the
kernels are always vectorizable *in principle* — whether a configuration
actually manages is exactly the Multi-Node/Super-Node capability the paper
studies.

Used by the property-based tests (random shapes must stay correct) and by
``benchmarks/bench_scaling.py`` (speedup and compile time as functions of
chain depth and lane count — the parameter sweep of the evaluation
harness).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..ir.builder import IRBuilder
from ..ir.module import Module
from ..ir.types import F64
from ..ir.values import Value
from .seeding import SeededSpec
from .util import make_loop_kernel, finish_module

#: array names available to generated kernels (output array is "OUT")
_ARRAY_POOL = [f"IN{index}" for index in range(16)]
_BUFFER_LEN = 2048


@dataclass(frozen=True)
class GeneratorSpec(SeededSpec):
    """Shape parameters for one generated kernel.

    ``terms`` is the number of leaves per lane (the Super-Node has
    ``terms - 1`` trunks); ``minus_terms`` of them carry a '-' sign.
    ``lanes`` is the vectorization width exposed by the stores.
    ``shuffle_lanes`` randomizes each lane's term order and tree shape —
    with it off, every lane is the same expression and plain SLP suffices;
    with it on, the kernel needs Super-Node reordering.

    Seeding (the ``seed`` field and all RNG streams) comes from
    :class:`~repro.kernels.seeding.SeededSpec`, shared with the fuzzing
    generator so both stay deterministic under one discipline.
    """

    lanes: int = 2
    terms: int = 3
    minus_terms: int = 1
    shuffle_lanes: bool = True

    def __post_init__(self) -> None:
        if self.lanes < 2:
            raise ValueError("need at least 2 lanes")
        if self.terms < 2:
            raise ValueError("need at least 2 terms")
        if not 0 <= self.minus_terms < self.terms:
            raise ValueError(
                "minus_terms must leave at least one '+' term as the anchor"
            )
        if self.terms > len(_ARRAY_POOL):
            raise ValueError(f"at most {len(_ARRAY_POOL)} terms supported")


def generate_kernel(spec: GeneratorSpec) -> Module:
    """Build the module for ``spec`` (function name: ``kernel``)."""
    rng = spec.rng()
    module = Module(f"gen_l{spec.lanes}_t{spec.terms}_s{spec.seed}")
    arrays = _ARRAY_POOL[: spec.terms]
    module.add_global("OUT", F64, _BUFFER_LEN)
    for name in arrays:
        module.add_global(name, F64, _BUFFER_LEN)

    #: one sign per term (term j always loads arrays[j]); identical for
    #: every lane, so the lanes compute the same signed sum
    signs = [False] * (spec.terms - spec.minus_terms) + [True] * spec.minus_terms

    def body(b: IRBuilder, i: Value, env) -> None:
        for lane in range(spec.lanes):
            terms: List[Tuple[bool, Value]] = [
                (signs[j], env.load(arrays[j], i, lane))
                for j in range(spec.terms)
            ]
            if spec.shuffle_lanes:
                rng.shuffle(terms)
            # anchor on a '+' term (a left spine cannot start with '-')
            anchor_index = next(
                index for index, (minus, _) in enumerate(terms) if not minus
            )
            anchor = terms.pop(anchor_index)[1]
            expr = anchor
            for minus, leaf in terms:
                expr = b.fsub(expr, leaf) if minus else b.fadd(expr, leaf)
            env.store(expr, "OUT", i, lane)

    make_loop_kernel(module, "kernel", body, step=spec.lanes, fast_math=True)
    return finish_module(module)


def generate_inputs(
    spec: GeneratorSpec, seed: int = 1
) -> Dict[str, List[float]]:
    """Deterministic input buffers for a generated kernel."""
    rng = spec.input_rng(seed)
    return {
        name: [rng.uniform(-4.0, 4.0) for _ in range(_BUFFER_LEN)]
        for name in _ARRAY_POOL[: spec.terms]
    }


def sweep_specs(
    lanes_values: Sequence[int] = (2, 4),
    terms_values: Sequence[int] = (2, 3, 4, 5, 6),
    minus_fraction: float = 0.4,
    seed: int = 7,
) -> List[GeneratorSpec]:
    """The parameter grid used by the scaling benchmark."""
    specs: List[GeneratorSpec] = []
    for lanes in lanes_values:
        for terms in terms_values:
            minus = max(1, int(terms * minus_fraction))
            if minus >= terms:
                minus = terms - 1
            specs.append(
                GeneratorSpec(
                    lanes=lanes,
                    terms=terms,
                    minus_terms=minus,
                    shuffle_lanes=True,
                    seed=seed + lanes * 100 + terms,
                )
            )
    return specs
