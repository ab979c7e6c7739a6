"""Reference interpreter, planned batched engine and flat memory model."""

from .memory import Memory, MemoryError_
from .interpreter import (
    BudgetExceededError,
    Interpreter,
    InterpreterError,
    TrapError,
    UnsupportedOpcodeError,
    run_kernel,
)
from .plan import BlockPlan, FunctionPlan, plan_function
from .batched import BatchedInterpreter

__all__ = [
    "Memory",
    "MemoryError_",
    "BudgetExceededError",
    "Interpreter",
    "InterpreterError",
    "TrapError",
    "UnsupportedOpcodeError",
    "run_kernel",
    "BlockPlan",
    "FunctionPlan",
    "plan_function",
    "BatchedInterpreter",
]
