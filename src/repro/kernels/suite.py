"""Kernel registry: the repro's equivalent of the paper's Table I.

Every kernel records which SPEC CPU2006 benchmark motivated it and which
Super-Node feature it exercises.  The paper extracted its kernels from the
functions where SN-SLP activates inside SPEC; the actual extracted bodies
are not reproduced in the paper text, so each kernel here is a synthetic
equivalent with the same algebraic structure (commutative-operator chains
with inverse elements whose lanes need leaf and/or trunk reordering) —
see DESIGN.md, "Substitutions".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from ..ir.module import Module


@dataclass(frozen=True)
class Kernel:
    """One benchmark kernel.

    ``build`` returns a fresh module each call (the vectorizer mutates IR).
    ``make_inputs`` seeds the global buffers deterministically from a seed,
    so every compiler configuration executes identical data.
    ``output_globals`` names the buffers checked for correctness and
    ``check_exact`` is False for float kernels where reassociation
    (licensed by fast-math) may change rounding.
    """

    name: str
    description: str
    origin: str
    pattern: str
    build: Callable[[], Module]
    make_inputs: Callable[[random.Random], Dict[str, List]]
    output_globals: Sequence[str]
    function: str = "kernel"
    trip_count: int = 96
    check_exact: bool = True


_REGISTRY: Dict[str, Kernel] = {}


def register_kernel(kernel: Kernel) -> Kernel:
    if kernel.name in _REGISTRY:
        raise ValueError(f"duplicate kernel name: {kernel.name}")
    _REGISTRY[kernel.name] = kernel
    return kernel


def kernel_named(name: str) -> Kernel:
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def all_kernels() -> List[Kernel]:
    """All registered kernels in registration order."""
    _ensure_loaded()
    return list(_REGISTRY.values())


def kernels_by_origin(origin_substring: str) -> List[Kernel]:
    _ensure_loaded()
    return [k for k in _REGISTRY.values() if origin_substring in k.origin]


def _ensure_loaded() -> None:
    """Import the kernel definition modules exactly once."""
    from . import motivating, spec_like  # noqa: F401


def table1_rows() -> List[Dict[str, str]]:
    """The Table I equivalent: kernel inventory with origins and patterns."""
    return [
        {
            "kernel": k.name,
            "origin": k.origin,
            "pattern": k.pattern,
            "description": k.description,
        }
        for k in all_kernels()
    ]
