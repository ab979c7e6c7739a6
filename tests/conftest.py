"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence

import pytest
from hypothesis import settings

from repro.ir import (
    F64,
    I64,
    VOID,
    CmpPredicate,
    Function,
    IRBuilder,
    Module,
    verify_module,
)

# Tier-1 is deterministic: every property test draws the same examples on
# every run, and no example database carries a failure from one run into
# the next.  The per-test ``@settings(max_examples=...)`` decorators
# inherit this profile.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


def build_simple_store_module(num_lanes: int = 2, opcode: str = "fadd") -> Module:
    """``A[k] = B[k] <op> C[k]`` for k in 0..num_lanes-1, straight-line.

    A minimal SLP-vectorizable module used across many tests.
    """
    module = Module("simple")
    for name in "ABC":
        module.add_global(name, F64, 64)
    function = Function("kernel", [("i", I64)], VOID, fast_math=True)
    module.add_function(function)
    block = function.add_block("entry")
    builder = IRBuilder(block)
    i = function.arguments[0]
    for k in range(num_lanes):
        index = builder.add(i, builder.const_i64(k)) if k else i
        pa = builder.gep(module.global_named("A"), index)
        pb = builder.gep(module.global_named("B"), index)
        pc = builder.gep(module.global_named("C"), index)
        lhs = builder.load(pb)
        rhs = builder.load(pc)
        value = getattr(builder, opcode)(lhs, rhs)
        builder.store(value, pa)
    builder.ret()
    verify_module(module)
    return module


def assert_allclose(a: Sequence[float], b: Sequence[float], tol: float = 1e-9) -> None:
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert math.isclose(x, y, rel_tol=tol, abs_tol=tol), f"{x} != {y}"


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20190216)
