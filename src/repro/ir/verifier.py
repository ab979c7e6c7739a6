"""Structural and type verifier for the repro IR.

Run after construction and after every transformation pass; a verifier
failure means a pass produced malformed IR.  Each function is checked in
one linear walk over its blocks, their instructions and the instructions'
:class:`~repro.ir.values.Use` records, after numbering the instructions
and the blocks' reverse postorder once up front.  Checks, in walk order:

* the function has blocks, and every branch targets one of them;
* every block ends in a terminator, and only its last instruction is one;
* every instruction's ``parent`` is the block holding it;
* phis come first in their block, and name each CFG predecessor of the
  block exactly once;
* use-def bookkeeping is exact in both directions: the use list of every
  operand holds that operand slot's record, and every record on an
  instruction's use list is a live operand slot that reads it;
* every operand is a constant, a global, an argument of this function or
  an instruction of this function;
* a non-phi use of an instruction in its own block comes after it, and of
  one in another block only where the defining block precedes the using
  one in reverse postorder (values crossing a back edge go through a
  phi; blocks unreachable from the entry are exempt) — for the reducible
  single-loop CFGs the kernels use, that is dominance;
* per instruction class (``_CLASS_RULES``): the operand count fits the
  class, static insert/extract lanes and shuffle masks index existing
  lanes, and operand types fit together the way the constructors
  require.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .block import BasicBlock
from .function import Function
from .instructions import (
    AltBinaryInst,
    BinaryInst,
    CallInst,
    CmpInst,
    CondBranchInst,
    ExtractElementInst,
    GepInst,
    InsertElementInst,
    Instruction,
    LoadInst,
    Opcode,
    PhiInst,
    SelectInst,
    ShuffleVectorInst,
    StoreInst,
)
from .module import Module
from .types import I1, IntType, PointerType, VectorType
from .values import Argument, Constant, GlobalBuffer, User

#: a use list longer than this is indexed by a set once, so that checking
#: every slot that reads a widely used value stays linear
_SCAN_LIMIT = 8

_TERMINATORS = (Opcode.BR, Opcode.CONDBR, Opcode.RET)


class VerificationError(Exception):
    """Raised when IR fails verification."""


def _reverse_postorder(successors: Sequence[List[int]]) -> List[Optional[int]]:
    """RPO index per block number (None: unreachable from block 0), given
    each block's successor numbers.  Iterative, in the order a recursive
    depth-first search visits successors."""
    visited = [False] * len(successors)
    visited[0] = True
    postorder: List[int] = []
    stack = [(0, iter(successors[0]))]
    while stack:
        block, pending = stack[-1]
        for succ in pending:
            if not visited[succ]:
                visited[succ] = True
                stack.append((succ, iter(successors[succ])))
                break
        else:
            stack.pop()
            postorder.append(block)
    rpo: List[Optional[int]] = [None] * len(successors)
    for index, block in enumerate(reversed(postorder)):
        rpo[block] = index
    return rpo


def verify_function(function: Function) -> None:
    name = function.name
    blocks = function.blocks
    if not blocks:
        raise VerificationError(f"function {name} has no blocks")
    arguments = function.arguments

    # Up front: the CFG by block number, each block's RPO index, and every
    # instruction's number (0.. in block order) and its block's RPO index.
    number_of_block = {id(block): k for k, block in enumerate(blocks)}
    successors: List[List[int]] = []
    predecessors: List[list] = [[] for _ in blocks]
    for block in blocks:
        numbers = []
        for succ in block.successors():
            k = number_of_block.get(id(succ))
            if k is None:
                raise VerificationError(
                    f"{name}: branch from {block.name} to foreign block {succ.name}"
                )
            numbers.append(k)
            predecessors[k].append(block)
        successors.append(numbers)
    rpo = _reverse_postorder(successors)
    instructions = [inst for block in blocks for inst in block.instructions]
    number = dict(zip(map(id, instructions), range(len(instructions))))
    rpo_at = [rpo[k] for k, block in enumerate(blocks) for _ in block.instructions]
    # id(value) -> ids of its use records, for values with wide use lists
    wide_uses: Dict[int, set] = {}

    n = 0  # number of the instruction being checked
    for k, block in enumerate(blocks):
        where = f"{name}/{block.name}"
        if block.terminator is None:
            raise VerificationError(f"{where}: missing terminator")
        first = n
        end = n + len(block.instructions)
        use_rpo = rpo[k]
        seen_non_phi = False
        for inst in block.instructions:
            if inst.parent is not block:
                raise VerificationError(f"{where}: instruction with stale parent")
            if inst.opcode in _TERMINATORS and n != end - 1:
                raise VerificationError(f"{where}: terminator not last")
            is_phi = isinstance(inst, PhiInst)
            if is_phi:
                if seen_non_phi:
                    raise VerificationError(f"{where}: phi after non-phi")
                _check_phi_edges(where, inst, predecessors[k])
            else:
                seen_non_phi = True

            for use in inst._operands:
                op = use.value
                uses = op.uses
                if len(uses) <= _SCAN_LIMIT:
                    recorded = use in uses
                else:
                    ids = wide_uses.get(id(op))
                    if ids is None:
                        ids = wide_uses[id(op)] = {id(record) for record in uses}
                    recorded = id(use) in ids
                if not recorded:
                    raise VerificationError(
                        f"{where}: operand {use.index} of {inst.opcode} missing "
                        f"its use record"
                    )
                d = number.get(id(op))
                if d is None:
                    if isinstance(op, (Constant, GlobalBuffer)):
                        continue
                    if isinstance(op, Argument):
                        if op not in arguments:
                            raise VerificationError(f"{name}: foreign argument %{op.name}")
                        continue
                    raise VerificationError(
                        f"{where}: operand %{op.name} of {inst.opcode} is not "
                        f"defined in this function"
                    )
                if is_phi:
                    continue
                if first <= d < end:
                    if d >= n:
                        raise VerificationError(
                            f"{where}: %{op.name} used before definition"
                        )
                elif use_rpo is not None:
                    home_rpo = rpo_at[d]
                    if home_rpo is None or home_rpo >= use_rpo:
                        home = _block_holding(blocks, d)
                        raise VerificationError(
                            f"{where}: %{op.name} used before its defining block "
                            f"{home.name} (no dominating path)"
                        )

            rule = _CLASS_RULES.get(inst.__class__)
            if rule is not None:
                arity, check = rule
                if arity is not None and len(inst._operands) != arity:
                    raise VerificationError(
                        f"{where}: {inst.opcode} has {len(inst._operands)} "
                        f"operands, expected {arity}"
                    )
                problem = check(inst)
                if problem is not None:
                    raise VerificationError(f"{where}: {problem}")

            for use in inst.uses:
                user = use.user
                if not (
                    isinstance(user, User)
                    and use.index < len(user._operands)
                    and user._operands[use.index].value is inst
                ):
                    raise VerificationError(
                        f"{where}: stale use record on %{inst.name}"
                    )
            n += 1


def _block_holding(blocks: Sequence[BasicBlock], number: int) -> BasicBlock:
    """The block holding the instruction numbered ``number``."""
    for block in blocks:
        if number < len(block.instructions):
            return block
        number -= len(block.instructions)
    raise IndexError(number)


def _check_phi_edges(where: str, phi: PhiInst, predecessors: list) -> None:
    incoming_blocks = phi.incoming_blocks
    got = {id(b) for b in incoming_blocks}
    if len(incoming_blocks) != len(got):
        raise VerificationError(f"{where}: duplicate phi predecessor")
    if got != {id(b) for b in predecessors}:
        raise VerificationError(
            f"{where}: phi predecessors "
            f"{sorted(b.name for b in incoming_blocks)} != CFG "
            f"predecessors {sorted(b.name for b in predecessors)}"
        )


# -- per-class rules -----------------------------------------------------------------
#
# Each takes an instruction of its class and returns what is wrong with it,
# or None.  Lanes and masks come first: the fuzzing reducer leans on them to
# reject shrink candidates that narrowed a vector out from under its users.
# The type rules are the ones the constructors enforce, so IR edited after
# construction (``set_operand``, RAUW) is held to them too.


def _differ(inst: Instruction, what: str, *values) -> str:
    types = ", ".join(str(value.type) for value in values)
    return f"{inst.opcode} {what} types differ: {types}"


def _binary_rule(inst: Instruction) -> Optional[str]:
    lhs, rhs = inst._operands
    if lhs.value.type is inst.type and rhs.value.type is inst.type:
        return None
    return _differ(inst, "operand and result", lhs.value, rhs.value, inst)


def _cmp_rule(inst: Instruction) -> Optional[str]:
    lhs, rhs = inst._operands
    if lhs.value.type is rhs.value.type:
        return None
    return _differ(inst, "operand", lhs.value, rhs.value)


def _select_rule(inst: Instruction) -> Optional[str]:
    _, a, b = inst._operands
    if a.value.type is inst.type and b.value.type is inst.type:
        return None
    return _differ(inst, "arm and result", a.value, b.value, inst)


def _lane_problem(inst: Instruction, vec_type, lane) -> Optional[str]:
    if not isinstance(vec_type, VectorType):
        return f"{inst.opcode} on non-vector {vec_type}"
    if isinstance(lane, Constant) and not 0 <= int(lane.value) < vec_type.count:
        return f"{inst.opcode} lane {lane.value} out of range for {vec_type}"
    return None


def _insertelement_rule(inst: Instruction) -> Optional[str]:
    vector, scalar, lane = [use.value for use in inst._operands]
    problem = _lane_problem(inst, vector.type, lane)
    if problem is not None:
        return problem
    if vector.type is not inst.type:
        return (
            f"insertelement vector type {vector.type} is not its result "
            f"type {inst.type}"
        )
    if scalar.type is not vector.type.element:
        return (
            f"insertelement scalar type {scalar.type} is not the element "
            f"type of {vector.type}"
        )
    return None


def _extractelement_rule(inst: Instruction) -> Optional[str]:
    vector, lane = [use.value for use in inst._operands]
    problem = _lane_problem(inst, vector.type, lane)
    if problem is not None:
        return problem
    if inst.type is not vector.type.element:
        return (
            f"extractelement result type {inst.type} is not the element "
            f"type of {vector.type}"
        )
    return None


def _shufflevector_rule(inst: Instruction) -> Optional[str]:
    a, b = [use.value for use in inst._operands]
    if not isinstance(a.type, VectorType):
        return f"shufflevector on non-vector {a.type}"
    if b.type is not a.type:
        return _differ(inst, "source", a, b)
    limit = 2 * a.type.count
    if not all(0 <= m < limit for m in inst.mask):
        return (
            f"shuffle mask {list(inst.mask)} out of range for {limit} source lanes"
        )
    return None


def _phi_rule(inst: Instruction) -> Optional[str]:
    for use in inst._operands:
        if use.value.type is not inst.type:
            return (
                f"phi incoming {use.value.ref()} type {use.value.type} is not "
                f"the phi's type {inst.type}"
            )
    return None


def _condbr_rule(inst: Instruction) -> Optional[str]:
    cond_type = inst._operands[0].value.type
    if cond_type is not I1:
        return f"condbr condition type {cond_type} is not i1"
    return None


def _gep_rule(inst: Instruction) -> Optional[str]:
    base, index = inst._operands
    base, index = base.value, index.value
    if base.type is not inst.type or not isinstance(base.type, PointerType):
        return f"gep base type {base.type} is not its result type {inst.type}"
    if not isinstance(index.type, IntType):
        return f"gep index type {index.type} is not an integer"
    return None


def _pointer_problem(inst: Instruction, pointer) -> Optional[str]:
    if isinstance(pointer.type, PointerType):
        return None
    return f"{inst.opcode} pointer operand type {pointer.type} is not a pointer"


def _load_rule(inst: Instruction) -> Optional[str]:
    return _pointer_problem(inst, inst._operands[0].value)


def _store_rule(inst: Instruction) -> Optional[str]:
    return _pointer_problem(inst, inst._operands[1].value)


def _call_rule(inst: Instruction) -> Optional[str]:
    if not inst._operands:
        return f"call @{inst.callee} has no arguments"
    first_type = inst._operands[0].value.type
    if inst.type is not first_type:
        return (
            f"call result type {inst.type} is not its first argument's type "
            f"{first_type}"
        )
    return None


#: instruction class -> (its operand count, or None where it varies; its
#: lane and type rule).  Casts, br and ret have no rule.
_CLASS_RULES: Dict[type, Tuple[Optional[int], Callable[[Instruction], Optional[str]]]] = {
    BinaryInst: (2, _binary_rule),
    AltBinaryInst: (2, _binary_rule),
    CmpInst: (2, _cmp_rule),
    SelectInst: (3, _select_rule),
    InsertElementInst: (3, _insertelement_rule),
    ExtractElementInst: (2, _extractelement_rule),
    ShuffleVectorInst: (2, _shufflevector_rule),
    PhiInst: (None, _phi_rule),
    CondBranchInst: (1, _condbr_rule),
    GepInst: (2, _gep_rule),
    LoadInst: (1, _load_rule),
    StoreInst: (2, _store_rule),
    CallInst: (None, _call_rule),
}


def verify_module(module: Module) -> None:
    """Verify every function in the module; raises VerificationError."""
    for function in module.functions.values():
        verify_function(function)
