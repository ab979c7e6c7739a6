"""Target cost model (the analogue of LLVM's TargetTransformInfo).

Two consumers share these numbers:

* the SLP vectorizer's profitability check — ``vector saving = sum over
  nodes of (scalar cost x lanes - vector cost)`` exactly as in Figure 1,
  step 4 of the paper;
* the cycle simulator — it charges each *executed* instruction its cost, so
  compile-time predictions and simulated run time come from one table,
  mirroring how the paper's speedups follow from the real machine the cost
  model approximates.

The numbers are reciprocal-throughput-flavoured costs in abstract cycles,
shaped after Intel client cores of the paper's era (Skylake): cheap
add/sub/mul, expensive division and sqrt, per-element penalties for moving
data between scalar and vector registers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from ..ir.instructions import (
    AltBinaryInst,
    CallInst,
    ExtractElementInst,
    InsertElementInst,
    Instruction,
    Opcode,
    ShuffleVectorInst,
)
from ..ir.types import FloatType, Type, VectorType
from .isa import VectorISA


#: default scalar op costs; anything absent costs DEFAULT_OP_COST.
#: Unit-flavoured like LLVM's TTI: most ops cost 1, divisions are
#: expensive, address computation (gep) folds into the memory access.
#: With these numbers the SLP cost arithmetic of the paper's motivating
#: examples reproduces exactly: Figure 2 totals 0 under (L)SLP and -6
#: under SN-SLP; Figure 3 totals +4 under (L)SLP and -6 under SN-SLP.
DEFAULT_SCALAR_COSTS: Dict[Opcode, float] = {
    Opcode.ADD: 1.0,
    Opcode.SUB: 1.0,
    Opcode.MUL: 2.0,
    Opcode.SDIV: 20.0,
    Opcode.FADD: 1.0,
    Opcode.FSUB: 1.0,
    Opcode.FMUL: 2.0,
    Opcode.FDIV: 10.0,
    Opcode.AND: 1.0,
    Opcode.OR: 1.0,
    Opcode.XOR: 1.0,
    Opcode.SHL: 1.0,
    Opcode.ASHR: 1.0,
    Opcode.LOAD: 1.0,
    Opcode.STORE: 1.0,
    Opcode.GEP: 0.0,
    Opcode.ICMP: 1.0,
    Opcode.FCMP: 1.0,
    Opcode.SELECT: 1.0,
    Opcode.SITOFP: 1.0,
    Opcode.FPTOSI: 1.0,
    Opcode.SEXT: 1.0,
    Opcode.TRUNC: 1.0,
    Opcode.FPEXT: 1.0,
    Opcode.FPTRUNC: 1.0,
    Opcode.BR: 0.5,
    Opcode.CONDBR: 1.0,
    Opcode.RET: 1.0,
    Opcode.PHI: 0.0,
}

DEFAULT_INTRINSIC_COSTS: Dict[str, float] = {
    "sqrt": 12.0,
    "fabs": 1.0,
    "fmin": 1.0,
    "fmax": 1.0,
    "smin": 1.0,
    "smax": 1.0,
}

DEFAULT_OP_COST = 1.0


@dataclass(frozen=True)
class CostModel:
    """Per-target instruction cost queries.

    ``vector_op_factor`` scales a scalar op's cost to its whole-vector
    counterpart — close to 1.0 on modern SIMD units (one vector op has
    roughly the throughput cost of one scalar op, which is exactly where
    vectorization savings come from).
    """

    isa: VectorISA
    scalar_costs: Dict[Opcode, float] = field(default_factory=lambda: dict(DEFAULT_SCALAR_COSTS))
    intrinsic_costs: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_INTRINSIC_COSTS))
    vector_op_factor: float = 1.0
    #: moving one scalar into a vector lane (insertelement)
    insert_cost: float = 1.0
    #: moving one lane out to scalar (extractelement)
    extract_cost: float = 1.0
    #: one shuffle/permute of a whole register
    shuffle_cost: float = 1.0
    #: blend penalty for alternating lane opcodes without native addsub
    alternate_penalty: float = 2.0

    # -- scalar queries -----------------------------------------------------------

    def scalar_op_cost(self, opcode: Opcode, type_: Type) -> float:
        return self.scalar_costs.get(opcode, DEFAULT_OP_COST)

    def intrinsic_cost(self, name: str, type_: Type) -> float:
        base = self.intrinsic_costs.get(name, DEFAULT_OP_COST)
        if isinstance(type_, VectorType):
            return base * self.vector_op_factor
        return base

    # -- vector queries -----------------------------------------------------------

    def vector_op_cost(self, opcode: Opcode, vec_type: VectorType) -> float:
        """Cost of one whole-vector arithmetic/memory operation."""
        base = self.scalar_costs.get(opcode, DEFAULT_OP_COST)
        cost = base * self.vector_op_factor
        # Divisions don't pipeline across lanes as well.
        if opcode in (Opcode.SDIV, Opcode.FDIV):
            cost += 0.5 * (vec_type.count - 1)
        return cost

    def altbinop_cost(
        self, lane_opcodes: Sequence[Opcode], vec_type: VectorType
    ) -> float:
        """Cost of a vector op with per-lane opcodes (add/sub alternation).

        With native addsub support an alternating float pattern costs the
        same as a plain vector op; otherwise the lowering needs two vector
        ops plus a blend, modelled as a flat penalty.
        """
        worst = max(self.scalar_costs.get(op, DEFAULT_OP_COST) for op in lane_opcodes)
        cost = worst * self.vector_op_factor
        if len(set(lane_opcodes)) > 1:
            is_float = isinstance(vec_type.element, FloatType)
            is_addsub_family = all(
                op in (Opcode.FADD, Opcode.FSUB) for op in lane_opcodes
            )
            if not (self.isa.has_addsub and is_float and is_addsub_family):
                # Lowered as two vector ops + blend (the paper's +2 for
                # the integer [+,-] trunk nodes of Figure 3c).
                cost += self.alternate_penalty
        return cost

    def gather_cost(self, vec_type: VectorType) -> float:
        """Building a vector out of N arbitrary scalars (N inserts)."""
        return self.insert_cost * vec_type.count

    # -- SLP node-level savings ------------------------------------------------------

    def scalarized_cost(self, opcode: Opcode, type_: Type, lanes: int) -> float:
        """Cost of ``lanes`` copies of the scalar op."""
        return self.scalar_op_cost(opcode, type_) * lanes


def instruction_cost(model: CostModel, inst: Instruction) -> float:
    """The cycle charge of one executed instruction under ``model``.

    The single shared ladder behind both the cycle simulator's
    :class:`~repro.sim.executor.CycleCounter` and the planned engine's
    pre-bound per-trace charges — one table, one interpretation.
    """
    if isinstance(inst, AltBinaryInst):
        return model.altbinop_cost(inst.lane_opcodes, inst.type)
    if isinstance(inst, InsertElementInst):
        return model.insert_cost
    if isinstance(inst, ExtractElementInst):
        return model.extract_cost
    if isinstance(inst, ShuffleVectorInst):
        return model.shuffle_cost
    if isinstance(inst, CallInst):
        return model.intrinsic_cost(inst.callee, inst.type)
    result_type = inst.type
    # For stores the relevant width is the stored value's type.
    if inst.opcode is Opcode.STORE:
        result_type = inst.operand(0).type
    if isinstance(result_type, VectorType):
        return model.vector_op_cost(inst.opcode, result_type)
    return model.scalar_op_cost(inst.opcode, result_type)
