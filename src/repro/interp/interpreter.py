"""Reference interpreter for the repro IR.

The interpreter is the project's semantic oracle: every vectorizing
transformation must preserve the observable behaviour (global buffer
contents and return values) of every kernel under it.  It executes scalar
*and* vector instructions, so both pre- and post-vectorization IR run on
the same engine.

Simulation runs on the planned engine (:mod:`repro.interp.batched`);
this interpreter is the independent semantics it is checked against —
the fuzz oracle's reference run and the engine parity tests.  An
``on_execute`` hook fires for every executed instruction; a
:class:`~repro.sim.executor.CycleCounter` charged through it gives the
reference cycle accounting.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence

from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    AltBinaryInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    CmpInst,
    CondBranchInst,
    ExtractElementInst,
    GepInst,
    InsertElementInst,
    Instruction,
    LoadInst,
    Opcode,
    RetInst,
    SelectInst,
    ShuffleVectorInst,
    StoreInst,
)
from ..ir.folding import compare, fold_binary, fold_cast
from ..ir.module import Module
from ..ir.types import IntType, PointerType, Type, VectorType
from ..ir.values import Argument, Constant, GlobalBuffer, Value
from ..robust.faults import current_faults
from .memory import Memory


class InterpreterError(Exception):
    """Raised on runtime faults (budget exhaustion, bad operands...)."""


class TrapError(InterpreterError):
    """Raised when the interpreted program traps (e.g. divide by zero)."""


class UnsupportedOpcodeError(InterpreterError):
    """Raised when the interpreter itself lacks support for an opcode or
    intrinsic — an *interpreter gap*, not a property of the program.

    The differential oracle (:mod:`repro.fuzz.oracle`) relies on this
    distinction: a gap means "extend the interpreter", while any other
    divergence between scalar and vectorized runs means "miscompile".
    """


class BudgetExceededError(InterpreterError):
    """Raised when execution exhausts its step budget — the watchdog that
    keeps a malformed loop from hanging the oracle or CI.

    A sibling of :class:`UnsupportedOpcodeError`: typed so callers (the
    fuzzing oracle, the CLI's exit-code mapping) can tell "the program
    ran too long" apart from genuine interpreter faults.
    """


_INTRINSIC_IMPL = {
    "sqrt": lambda a: math.sqrt(a) if a >= 0 else math.nan,
    "fabs": abs,
    "fmin": min,
    "fmax": max,
    "smin": min,
    "smax": max,
}


class Interpreter:
    """Executes functions of a module against a flat memory."""

    def __init__(
        self,
        module: Module,
        memory: Optional[Memory] = None,
        max_steps: Optional[int] = None,
        on_execute: Optional[Callable[[Instruction], None]] = None,
    ) -> None:
        self.module = module
        self.memory = memory if memory is not None else Memory()
        #: ``max_steps`` is the single watchdog knob; the attribute keeps
        #: its historical name for the fault-injection stall hook
        self.instruction_budget = (
            max_steps if max_steps is not None else 50_000_000
        )
        self.on_execute = on_execute
        self.executed_instructions = 0
        for buffer in module.globals.values():
            self.memory.bind_global(buffer)

    # -- public API ---------------------------------------------------------------

    def run(self, function_name: str, args: Sequence = ()) -> object:
        """Execute a function to completion; returns its return value."""
        function = self.module.function(function_name)
        if len(args) != len(function.arguments):
            raise InterpreterError(
                f"@{function_name} takes {len(function.arguments)} args, "
                f"got {len(args)}"
            )
        env: Dict[int, object] = {}
        for formal, actual in zip(function.arguments, args):
            env[id(formal)] = self._coerce_argument(formal, actual)
        return self._run_function(function, env)

    def read_global(self, name: str) -> List:
        return self.memory.read_global(name)

    def write_global(self, name: str, values: Sequence) -> None:
        self.memory.write_global(name, values)

    # -- execution engine ----------------------------------------------------------

    def _coerce_argument(self, formal: Argument, actual):
        type_ = formal.type
        if isinstance(type_, PointerType):
            if isinstance(actual, GlobalBuffer):
                return self.memory.address_of_global(actual)
            return int(actual)
        if isinstance(type_, IntType):
            return type_.wrap(int(actual))
        if isinstance(type_, VectorType):
            return tuple(actual)
        return float(actual)

    def _value(self, env: Dict[int, object], value: Value):
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, GlobalBuffer):
            return self.memory.address_of_global(value)
        try:
            return env[id(value)]
        except KeyError:
            raise InterpreterError(f"use of undefined value %{value.name}") from None

    def _run_function(self, function: Function, env: Dict[int, object]):
        block = function.entry
        previous: Optional[BasicBlock] = None
        while True:
            # Phis first, evaluated simultaneously against the *previous*
            # environment so swaps through phis work.
            phis = block.phis()
            if phis:
                if previous is None:
                    raise InterpreterError(
                        f"entry block {block.name} must not contain phis"
                    )
                staged = [
                    (phi, self._value(env, phi.incoming_for(previous)))
                    for phi in phis
                ]
                for phi, value in staged:
                    env[id(phi)] = value
                    self._tick(phi)
            transfer = None
            for inst in block.non_phi_instructions():
                transfer = self._execute(env, inst)
                self._tick(inst)
                if transfer is not None:
                    break
            if transfer is None:
                raise InterpreterError(f"block {block.name} fell through")
            kind, payload = transfer
            if kind == "ret":
                return payload
            previous = block
            block = payload

    def _tick(self, inst: Instruction) -> None:
        self.executed_instructions += 1
        faults = current_faults()
        if faults.armed:
            faults.fire("interp.step", stall=self._stall)
        if self.executed_instructions > self.instruction_budget:
            raise BudgetExceededError(
                f"step budget exhausted after {self.instruction_budget} "
                "instructions (likely an infinite loop)"
            )
        if self.on_execute is not None:
            self.on_execute(inst)

    def _stall(self) -> None:
        """Injected stall: burn the remaining step budget so the watchdog
        fires deterministically (no wall-clock dependence)."""
        self.executed_instructions = self.instruction_budget + 1

    # -- single instruction dispatch ---------------------------------------------------

    def _execute(self, env: Dict[int, object], inst: Instruction):
        if isinstance(inst, BinaryInst):
            a = self._value(env, inst.lhs)
            b = self._value(env, inst.rhs)
            env[id(inst)] = self._binary(inst.opcode, inst.type, a, b)
            return None
        if isinstance(inst, AltBinaryInst):
            a = self._value(env, inst.lhs)
            b = self._value(env, inst.rhs)
            elem = inst.type.scalar_type()
            env[id(inst)] = tuple(
                self._binary(op, elem, x, y)
                for op, x, y in zip(inst.lane_opcodes, a, b)
            )
            return None
        if isinstance(inst, LoadInst):
            addr = self._value(env, inst.pointer)
            env[id(inst)] = self.memory.load_value(addr, inst.type)
            return None
        if isinstance(inst, StoreInst):
            addr = self._value(env, inst.pointer)
            self.memory.store_value(
                addr, inst.value.type, self._value(env, inst.value)
            )
            return None
        if isinstance(inst, GepInst):
            base = self._value(env, inst.base)
            index = self._value(env, inst.index)
            stride = max(inst.type.pointee.byte_width, 1)
            env[id(inst)] = base + index * stride
            return None
        if isinstance(inst, InsertElementInst):
            vec = list(self._value(env, inst.vector))
            lane = self._value(env, inst.lane)
            if not 0 <= lane < len(vec):
                raise TrapError(f"insertelement lane {lane} out of range")
            vec[lane] = self._value(env, inst.scalar)
            env[id(inst)] = tuple(vec)
            return None
        if isinstance(inst, ExtractElementInst):
            vec = self._value(env, inst.vector)
            lane = self._value(env, inst.lane)
            if not 0 <= lane < len(vec):
                raise TrapError(f"extractelement lane {lane} out of range")
            env[id(inst)] = vec[lane]
            return None
        if isinstance(inst, ShuffleVectorInst):
            a = self._value(env, inst.a)
            b = self._value(env, inst.b)
            joined = tuple(a) + tuple(b)
            if any(not 0 <= m < len(joined) for m in inst.mask):
                raise InterpreterError(
                    f"shufflevector mask {inst.mask} out of range for "
                    f"{len(joined)} source lanes"
                )
            env[id(inst)] = tuple(joined[m] for m in inst.mask)
            return None
        if isinstance(inst, CmpInst):
            a = self._value(env, inst.lhs)
            b = self._value(env, inst.rhs)
            if isinstance(a, tuple):
                env[id(inst)] = tuple(
                    compare(inst.predicate, x, y) for x, y in zip(a, b)
                )
            else:
                env[id(inst)] = compare(inst.predicate, a, b)
            return None
        if isinstance(inst, SelectInst):
            cond = self._value(env, inst.cond)
            a = self._value(env, inst.operand(1))
            b = self._value(env, inst.operand(2))
            if isinstance(cond, tuple):
                # vector select: per-lane mask pick
                env[id(inst)] = tuple(
                    x if c else y for c, x, y in zip(cond, a, b)
                )
            else:
                env[id(inst)] = a if cond else b
            return None
        if isinstance(inst, CastInst):
            value = self._value(env, inst.value)
            if isinstance(value, tuple):
                elem = inst.type.scalar_type()
                env[id(inst)] = tuple(
                    fold_cast(inst.opcode, v, elem) for v in value
                )
            else:
                env[id(inst)] = fold_cast(inst.opcode, value, inst.type)
            return None
        if isinstance(inst, CallInst):
            impl = _INTRINSIC_IMPL.get(inst.callee)
            if impl is None:
                raise UnsupportedOpcodeError(
                    f"interpreter has no implementation for intrinsic "
                    f"@{inst.callee}"
                )
            args = [self._value(env, op) for op in inst.operands]
            if isinstance(args[0], tuple):
                lanes = zip(*args)
                env[id(inst)] = tuple(impl(*lane) for lane in lanes)
            else:
                env[id(inst)] = impl(*args)
            return None
        if isinstance(inst, BranchInst):
            return ("br", inst.target)
        if isinstance(inst, CondBranchInst):
            cond = self._value(env, inst.cond)
            return ("br", inst.if_true if cond else inst.if_false)
        if isinstance(inst, RetInst):
            value = (
                self._value(env, inst.value) if inst.value is not None else None
            )
            return ("ret", value)
        raise UnsupportedOpcodeError(f"unhandled instruction {inst.opcode}")

    def _binary(self, opcode: Opcode, type_: Type, a, b):
        elem = type_.scalar_type()
        try:
            if isinstance(a, tuple):
                return tuple(fold_binary(opcode, elem, x, y) for x, y in zip(a, b))
            return fold_binary(opcode, elem, a, b)
        except Exception as exc:  # FoldError -> runtime trap
            raise TrapError(str(exc)) from exc


def run_kernel(
    module: Module,
    function_name: str,
    args: Sequence = (),
    inputs: Optional[Dict[str, Sequence]] = None,
) -> Dict[str, List]:
    """Convenience: run a kernel and return the contents of all globals.

    ``inputs`` maps global names to initial contents (overriding any static
    initializer).  Returns a dict of global name -> final contents.
    """
    interp = Interpreter(module)
    if inputs:
        for name, values in inputs.items():
            interp.write_global(name, values)
    interp.run(function_name, args)
    return {name: interp.read_global(name) for name in module.globals}
