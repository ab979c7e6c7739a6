"""Seeded mini-C kernels whose lanes compute one signed sum in shuffled order.

Every lane of a :class:`SignedSum` stores ``A[i+lane]`` as the same signed
sum of ``terms`` input arrays, but each lane lists the terms in its own
order.  That is the shape Super-Node SLP exists for: the lanes are
isomorphic only after leaf and trunk reordering across ``+``/``-``, and
the Super-Node grows with both ``lanes`` and ``terms``.  The expected
output is computed here, term by term in each lane's source order, so the
reference never comes from the compiler under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: share of terms drawn with a ``-`` sign
MINUS_SHARE = 0.4


@dataclass(frozen=True)
class SignedSum:
    name: str
    lanes: int
    terms: int
    ctype: str  # "double" or "long"
    minus: Tuple[bool, ...]  # per term: subtracted?
    orders: Tuple[Tuple[int, ...], ...]  # per lane: term indexes in source order
    size: int = 256

    @property
    def is_float(self) -> bool:
        return self.ctype == "double"

    def source(self) -> str:
        arrays = ["A"] + [f"B{j}" for j in range(self.terms)]
        lines = [" ".join(f"{self.ctype} {a}[{self.size}];" for a in arrays)]
        lines.append(f"kernel {self.name}(n) {{")
        lines.append(f"  for (i = 0; i < n; i += {self.lanes}) {{")
        for lane, order in enumerate(self.orders):
            expr = f"B{order[0]}[i+{lane}]"
            for j in order[1:]:
                expr += f" {'-' if self.minus[j] else '+'} B{j}[i+{lane}]"
            lines.append(f"    A[i+{lane}] = {expr};")
        lines.append("  }")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def inputs(self, rng: random.Random) -> Dict[str, List]:
        if self.is_float:
            draw = lambda: rng.uniform(-4.0, 4.0)  # noqa: E731
        else:
            draw = lambda: rng.randint(-1000, 1000)  # noqa: E731
        return {f"B{j}": [draw() for _ in range(self.size)] for j in range(self.terms)}

    def expected(self, inputs: Dict[str, List], n: int) -> List:
        """``A`` after ``kernel(n)``, summed in each lane's source order."""
        out = [0.0 if self.is_float else 0] * self.size
        for base in range(0, n, self.lanes):
            for lane, order in enumerate(self.orders):
                index = base + lane
                acc = inputs[f"B{order[0]}"][index]
                for j in order[1:]:
                    value = inputs[f"B{j}"][index]
                    acc = acc - value if self.minus[j] else acc + value
                out[index] = acc
        return out


def draw_signed_sum(
    rng: random.Random, name: str, lanes: int, terms: int, ctype: str
) -> SignedSum:
    """A random signed sum: about 40% ``-`` terms, a ``+`` term leading
    each lane, the other terms shuffled per lane."""
    minus = [rng.random() < MINUS_SHARE for _ in range(terms)]
    if all(minus):
        minus[rng.randrange(terms)] = False
    orders = []
    for _ in range(lanes):
        order = list(range(terms))
        rng.shuffle(order)
        lead = next(j for j in order if not minus[j])
        order.remove(lead)
        orders.append((lead, *order))
    return SignedSum(name, lanes, terms, ctype, tuple(minus), tuple(orders))
