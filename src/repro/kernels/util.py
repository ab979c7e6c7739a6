"""Shared scaffolding for building kernels.

Kernels mirror the paper's evaluation setup: C-style loops over global
arrays whose bodies are *manually unrolled* across adjacent elements
(``A[i+0]``, ``A[i+1]``, ...) — the straight-line shape that SLP (not the
loop vectorizer) targets.  :func:`make_loop_kernel` builds the loop
skeleton; the caller supplies only the straight-line body.
"""

from __future__ import annotations

import random
from itertools import repeat, starmap
from typing import Callable, Dict, List

from ..ir.builder import IRBuilder
from ..ir.function import Function
from ..ir.instructions import CmpPredicate
from ..ir.module import Module
from ..ir.types import I64, VOID
from ..ir.values import Value
from ..ir.verifier import verify_module


class ArrayEnv:
    """Convenience accessors for the kernel's global arrays.

    ``env.load("B", i, 1)`` loads ``B[i+1]``; ``env.store(v, "A", i, 0)``
    stores to ``A[i+0]``.  Index arithmetic is emitted once per distinct
    offset and cached, the way a C compiler's CSE would leave it.
    """

    def __init__(self, module: Module, builder: IRBuilder) -> None:
        self.module = module
        self.builder = builder
        self._index_cache: Dict[tuple, Value] = {}

    def index(self, base_index: Value, offset: int) -> Value:
        key = (id(base_index), offset)
        cached = self._index_cache.get(key)
        if cached is None:
            if offset == 0:
                cached = base_index
            else:
                cached = self.builder.add(
                    base_index, self.builder.const_i64(offset)
                )
            self._index_cache[key] = cached
        return cached

    def pointer(self, name: str, base_index: Value, offset: int = 0) -> Value:
        buffer = self.module.global_named(name)
        return self.builder.gep(buffer, self.index(base_index, offset))

    def load(self, name: str, base_index: Value, offset: int = 0) -> Value:
        return self.builder.load(self.pointer(name, base_index, offset))

    def store(self, value: Value, name: str, base_index: Value, offset: int = 0) -> None:
        self.builder.store(value, self.pointer(name, base_index, offset))


BodyFn = Callable[[IRBuilder, Value, ArrayEnv], None]


def make_loop_kernel(
    module: Module,
    name: str,
    body: BodyFn,
    step: int,
    fast_math: bool = True,
) -> Function:
    """Add ``for (i = 0; i < n; i += step) { body }`` to ``module``.

    The body receives the builder positioned inside the loop, the induction
    variable ``i`` and an :class:`ArrayEnv` for array access.
    """
    function = Function(name, [("n", I64)], VOID, fast_math=fast_math)
    module.add_function(function)
    entry = function.add_block("entry")
    header = function.add_block("header")
    body_block = function.add_block("body")
    exit_block = function.add_block("exit")

    builder = IRBuilder(entry)
    builder.br(header)

    builder.position_at_end(header)
    i = builder.phi(I64, "i")
    in_range = builder.icmp(CmpPredicate.LT, i, function.arguments[0])
    builder.condbr(in_range, body_block, exit_block)

    builder.position_at_end(body_block)
    env = ArrayEnv(module, builder)
    body(builder, i, env)
    next_i = builder.add(i, builder.const_i64(step), "i.next")
    builder.br(header)

    i.add_incoming(builder.const_i64(0), entry)
    i.add_incoming(next_i, body_block)

    builder.position_at_end(exit_block)
    builder.ret()
    return function


def make_straightline_kernel(
    module: Module,
    name: str,
    body: BodyFn,
    fast_math: bool = True,
) -> Function:
    """A single-invocation straight-line kernel: ``body`` runs once with a
    caller-provided base index argument."""
    function = Function(name, [("i", I64)], VOID, fast_math=fast_math)
    module.add_function(function)
    block = function.add_block("entry")
    builder = IRBuilder(block)
    env = ArrayEnv(module, builder)
    body(builder, function.arguments[0], env)
    builder.ret()
    return function


# The input helpers below return the values of one ``rng.uniform`` or
# ``rng.randint`` call per element and leave ``rng`` in the same state,
# without those methods' per-call overhead: ``uniform`` is ``lo + (hi - lo)
# * random()`` and ``randint`` a ``getrandbits`` rejection loop, both
# evaluated inline here.  ``tests/test_kernels_inputs.py`` holds them to
# that on twin generators.


def random_floats(rng: random.Random, count: int, lo: float = -8.0, hi: float = 8.0) -> List[float]:
    span = hi - lo
    # starmap makes the ``count`` rng.random() calls without a Python loop
    return [lo + span * r for r in starmap(rng.random, repeat((), count))]


def random_nonzero_floats(
    rng: random.Random, count: int, lo: float = 0.5, hi: float = 8.0
) -> List[float]:
    """Strictly-positive values, safe as divisors in div-chain kernels."""
    return random_floats(rng, count, lo, hi)


def random_ints(rng: random.Random, count: int, lo: int = -64, hi: int = 64) -> List[int]:
    width = hi - lo + 1
    if width <= 0:
        raise ValueError(f"empty range [{lo}, {hi}]")
    getrandbits = rng.getrandbits
    bits = width.bit_length()
    values = []
    for _ in range(count):
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        values.append(lo + r)
    return values


def finish_module(module: Module) -> Module:
    """Verify and return (keeps kernel definitions one-expression)."""
    verify_module(module)
    return module
