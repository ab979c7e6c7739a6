"""Seeded random-program generator for the differential fuzzer.

Where :mod:`repro.kernels.generator` produces clean Super-Node-shaped
benchmark kernels, this generator produces *stress* programs: the shapes
the paper's transform must survive rather than the shapes it is shown off
on.  Every program is a straight-line kernel (the form SLP actually sees
after unrolling) built through the ordinary :class:`IRBuilder`, so the
whole frontend-free construction path is exercised too.

Shapes (one per :data:`FUZZ_SHAPES` entry):

* ``addsub``   — deep fadd/fsub chains, per-lane shuffled term order and
  random sub-tree grouping (``a - (b + c)`` style parenthesization);
* ``muldiv``   — the multiplicative family, with every divisor loaded
  from a ``DEN*`` array so inputs can keep it away from zero;
* ``mixed``    — additive chains over multiplicative sub-expressions
  (signed sums of products: the dot-product-with-signs stress);
* ``int-addsub`` — the integer add/sub family (wrapping semantics,
  compared exactly);
* ``overlap``  — every lane reads one array through overlapping/adjacent
  windows (``A[i+lane+j]``), stressing load-bundle legality;
* ``shared``   — lanes reuse the *same* load instructions (cross-lane
  common subexpressions, stressing external-use accounting);
* ``constants`` — chains whose leaves mix loads with literal constants;
* ``reduction`` — a single horizontal signed reduction into ``OUT[i]``;
* ``minmax``   — per-lane ``fmin``/``fmax`` call chains.

Determinism: all randomness flows from the spec's
:class:`~repro.kernels.seeding.SeededSpec` streams; the same spec yields
a byte-identical module on every run.

Input-safety convention: a global whose name starts with ``DEN`` is a
denominator buffer and must be seeded with values bounded away from zero.
The convention is name-based so it survives the textual ``.ir``
round-trip that reproducers take (see :func:`is_nonzero_global`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ir.builder import IRBuilder
from ..ir.module import Module
from ..ir.types import F64, I64, IntType
from ..ir.values import Constant, Value
from ..kernels.seeding import SeededSpec
from ..kernels.util import ArrayEnv, finish_module, make_straightline_kernel

#: every generator shape, in the order the campaign cycles through them
FUZZ_SHAPES = (
    "addsub",
    "muldiv",
    "mixed",
    "int-addsub",
    "overlap",
    "shared",
    "constants",
    "reduction",
    "minmax",
)

#: element count of every generated buffer (small: programs touch a
#: window of at most ``lanes + terms`` elements from the base index)
_BUFFER_LEN = 64

#: prefix marking denominator buffers (inputs must stay nonzero)
_NONZERO_PREFIX = "DEN"


def is_nonzero_global(name: str) -> bool:
    """True when ``name`` is a denominator buffer by naming convention."""
    return name.startswith(_NONZERO_PREFIX)


@dataclass(frozen=True)
class FuzzSpec(SeededSpec):
    """Shape parameters for one fuzz program.

    ``terms`` is the leaf count per lane (chain shapes) or the chain
    length (reduction shapes); ``lanes`` the number of adjacent stores.
    """

    shape: str = "addsub"
    lanes: int = 2
    terms: int = 4

    def __post_init__(self) -> None:
        if self.shape not in FUZZ_SHAPES:
            raise ValueError(f"unknown fuzz shape {self.shape!r}")
        if self.lanes < 2:
            raise ValueError("need at least 2 lanes")
        if self.terms < 3:
            raise ValueError("need at least 3 terms (2 trunks per lane)")


@dataclass
class FuzzProgram:
    """One program plus the metadata the oracle needs.

    ``spec`` is ``None`` for programs that did not come from the
    generator (replayed reproducers, reducer candidates).
    """

    spec: Optional[FuzzSpec]
    module: Module
    kernel: str = "kernel"
    #: argument vector the kernel is invoked with (the base index)
    args: Tuple[int, ...] = (0,)

    def describe(self) -> Dict[str, object]:
        description: Dict[str, object] = {
            "module": self.module.name,
            "kernel": self.kernel,
        }
        if self.spec is not None:
            description.update(
                shape=self.spec.shape,
                lanes=self.spec.lanes,
                terms=self.spec.terms,
                seed=self.spec.seed,
            )
        return description


def random_spec(seed: int) -> FuzzSpec:
    """The campaign's program distribution: spec for campaign seed ``seed``."""
    rng = random.Random(seed)
    return FuzzSpec(
        seed=seed,
        shape=rng.choice(FUZZ_SHAPES),
        lanes=rng.choice((2, 2, 4)),
        terms=rng.randint(3, 8),
    )


def make_inputs(module: Module, input_seed: int) -> Dict[str, List]:
    """Deterministic input contents for every global buffer of ``module``.

    Denominator buffers (``DEN*``) stay in ``[0.5, 4.0]`` so division
    never traps; everything else is signed and small enough that chains
    stay well away from overflow/cancellation extremes.
    """
    rng = random.Random(input_seed)
    inputs: Dict[str, List] = {}
    for name, buffer in module.globals.items():
        if isinstance(buffer.element, IntType):
            inputs[name] = [rng.randint(-64, 64) for _ in range(buffer.count)]
        elif is_nonzero_global(name):
            inputs[name] = [rng.uniform(0.5, 4.0) for _ in range(buffer.count)]
        else:
            inputs[name] = [rng.uniform(-4.0, 4.0) for _ in range(buffer.count)]
    return inputs


# ---------------------------------------------------------------------------
# signed-chain emission
# ---------------------------------------------------------------------------

def _fold_signed_chain(
    builder: IRBuilder,
    leaves: List[Tuple[bool, Value]],
    plus_op: str,
    minus_op: str,
    rng: random.Random,
    group_prob: float = 0.25,
) -> Value:
    """Fold ``leaves`` (sign, value) into one expression tree.

    Mostly a left spine (anchored on a '+' leaf), but with probability
    ``group_prob`` a run of same-signed leaves is folded into a nested
    sub-tree first (``x - (a + b)`` distributes the signs), producing the
    non-spine tree shapes the Super-Node chain builder must handle.
    """
    work = list(leaves)
    anchor_index = next(i for i, (minus, _) in enumerate(work) if not minus)
    expr = work.pop(anchor_index)[1]
    while work:
        # Maybe group the next run of same-signed leaves into a sub-tree.
        if len(work) >= 2 and rng.random() < group_prob:
            sign = work[0][0]
            run = 0
            while run < min(3, len(work)) and work[run][0] == sign:
                run += 1
            if run >= 2:
                inner = work[0][1]
                for _, value in work[1:run]:
                    inner = getattr(builder, plus_op)(inner, value)
                del work[:run]
                op = minus_op if sign else plus_op
                expr = getattr(builder, op)(expr, inner)
                continue
        minus, value = work.pop(0)
        expr = getattr(builder, minus_op if minus else plus_op)(expr, value)
    return expr


def _signed_multiset(
    terms: int, rng: random.Random, min_minus: int = 1
) -> List[bool]:
    """Random sign per term with at least one '+' (the anchor) and at
    least ``min_minus`` '-' (so the inverse operator actually appears)."""
    minus_count = rng.randint(min_minus, terms - 1)
    signs = [True] * minus_count + [False] * (terms - minus_count)
    rng.shuffle(signs)
    return signs


# ---------------------------------------------------------------------------
# shape emitters
# ---------------------------------------------------------------------------

def _emit_chain_program(spec: FuzzSpec, rng: random.Random) -> Module:
    """The chain-shaped family: addsub / muldiv / int-addsub / overlap /
    shared / constants, all sharing one emitter with different knobs."""
    shape = spec.shape
    int_mode = shape == "int-addsub"
    mul_mode = shape == "muldiv"
    overlap = shape == "overlap"
    shared_prob = 0.6 if shape == "shared" else 0.15
    const_prob = 0.4 if shape == "constants" else (0.0 if mul_mode else 0.1)

    elem = I64 if int_mode else F64
    if mul_mode:
        plus_op, minus_op = "fmul", "fdiv"
    elif int_mode:
        plus_op, minus_op = "add", "sub"
    else:
        plus_op, minus_op = "fadd", "fsub"

    module = Module(f"fuzz_{shape.replace('-', '_')}_s{spec.seed}")
    module.add_global("OUT", elem, _BUFFER_LEN)
    signs = _signed_multiset(spec.terms, rng)
    arrays: List[str] = []
    if overlap:
        module.add_global("IN0", elem, _BUFFER_LEN)
        arrays = ["IN0"] * spec.terms
    else:
        for j, minus in enumerate(signs):
            # divisors load from DEN* buffers so inputs keep them nonzero
            name = f"{_NONZERO_PREFIX}{j}" if (mul_mode and minus) else f"IN{j}"
            module.add_global(name, elem, _BUFFER_LEN)
            arrays.append(name)

    #: term indexes every lane reads at offset 0 (cross-lane reuse)
    shared_terms = {
        j for j in range(spec.terms) if rng.random() < shared_prob
    }
    #: term indexes replaced by literal constants (never divisors)
    const_terms = {
        j
        for j in range(spec.terms)
        if j not in shared_terms
        and not (mul_mode and signs[j])
        and rng.random() < const_prob
    }

    def body(b: IRBuilder, i: Value, env: ArrayEnv) -> None:
        shared_loads: Dict[int, Value] = {}
        for j in sorted(shared_terms):
            shared_loads[j] = env.load(arrays[j], i, 0)
        for lane in range(spec.lanes):
            leaves: List[Tuple[bool, Value]] = []
            for j in range(spec.terms):
                if j in const_terms:
                    payload = rng.randint(1, 7) if int_mode else round(
                        rng.uniform(0.5, 3.5), 3
                    )
                    leaves.append((signs[j], Constant(elem, payload)))
                elif j in shared_loads:
                    leaves.append((signs[j], shared_loads[j]))
                else:
                    offset = lane + j if overlap else lane
                    leaves.append((signs[j], env.load(arrays[j], i, offset)))
            rng.shuffle(leaves)
            expr = _fold_signed_chain(b, leaves, plus_op, minus_op, rng)
            env.store(expr, "OUT", i, lane)

    make_straightline_kernel(module, "kernel", body, fast_math=True)
    return module


def _emit_mixed_program(spec: FuzzSpec, rng: random.Random) -> Module:
    """Signed sums whose leaves are products: ``±A*B ±C*D ...`` per lane.

    The additive chain is the Super-Node; the products underneath are the
    multiplicative sub-expressions the look-ahead scorer has to rank.
    """
    module = Module(f"fuzz_mixed_s{spec.seed}")
    module.add_global("OUT", F64, _BUFFER_LEN)
    signs = _signed_multiset(spec.terms, rng)
    for j in range(spec.terms):
        module.add_global(f"IN{j}", F64, _BUFFER_LEN)
        module.add_global(f"W{j}", F64, _BUFFER_LEN)

    def body(b: IRBuilder, i: Value, env: ArrayEnv) -> None:
        for lane in range(spec.lanes):
            leaves: List[Tuple[bool, Value]] = []
            for j in range(spec.terms):
                product = b.fmul(
                    env.load(f"IN{j}", i, lane), env.load(f"W{j}", i, lane)
                )
                leaves.append((signs[j], product))
            rng.shuffle(leaves)
            expr = _fold_signed_chain(b, leaves, "fadd", "fsub", rng)
            env.store(expr, "OUT", i, lane)

    make_straightline_kernel(module, "kernel", body, fast_math=True)
    return module


def _emit_reduction_program(spec: FuzzSpec, rng: random.Random) -> Module:
    """A single horizontal signed reduction: ``OUT[i] = ±t0 ±t1 ...``."""
    module = Module(f"fuzz_reduction_s{spec.seed}")
    module.add_global("OUT", F64, _BUFFER_LEN)
    module.add_global("IN0", F64, _BUFFER_LEN)
    module.add_global("W0", F64, _BUFFER_LEN)
    signs = _signed_multiset(spec.terms, rng)
    with_products = rng.random() < 0.5

    def body(b: IRBuilder, i: Value, env: ArrayEnv) -> None:
        leaves: List[Tuple[bool, Value]] = []
        for j in range(spec.terms):
            value = env.load("IN0", i, j)
            if with_products:
                value = b.fmul(value, env.load("W0", i, j))
            leaves.append((signs[j], value))
        expr = _fold_signed_chain(b, leaves, "fadd", "fsub", rng, group_prob=0.0)
        env.store(expr, "OUT", i, 0)

    make_straightline_kernel(module, "kernel", body, fast_math=True)
    return module


def _emit_minmax_program(spec: FuzzSpec, rng: random.Random) -> Module:
    """Per-lane ``fmin``/``fmax`` call chains over adjacent loads."""
    module = Module(f"fuzz_minmax_s{spec.seed}")
    module.add_global("OUT", F64, _BUFFER_LEN)
    for j in range(spec.terms):
        module.add_global(f"IN{j}", F64, _BUFFER_LEN)
    callee = rng.choice(("fmin", "fmax"))

    def body(b: IRBuilder, i: Value, env: ArrayEnv) -> None:
        for lane in range(spec.lanes):
            order = list(range(spec.terms))
            rng.shuffle(order)
            expr = env.load(f"IN{order[0]}", i, lane)
            for j in order[1:]:
                expr = b.call(callee, [expr, env.load(f"IN{j}", i, lane)])
            env.store(expr, "OUT", i, lane)

    make_straightline_kernel(module, "kernel", body, fast_math=True)
    return module


_EMITTERS = {
    "addsub": _emit_chain_program,
    "muldiv": _emit_chain_program,
    "int-addsub": _emit_chain_program,
    "overlap": _emit_chain_program,
    "shared": _emit_chain_program,
    "constants": _emit_chain_program,
    "mixed": _emit_mixed_program,
    "reduction": _emit_reduction_program,
    "minmax": _emit_minmax_program,
}


def generate_program(spec: FuzzSpec) -> FuzzProgram:
    """Build the (verified) program for ``spec``."""
    rng = spec.rng("genprog")
    module = _EMITTERS[spec.shape](spec, rng)
    finish_module(module)
    return FuzzProgram(spec=spec, module=module)
