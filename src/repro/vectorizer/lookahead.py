"""Look-ahead operand scoring, as introduced by LSLP (Porpodas et al.,
CGO 2018) and reused by Super-Node SLP's ``buildGroup`` (Listing 3).

``score_pair(a, b)`` estimates how profitable it is to place values ``a``
and ``b`` in adjacent lanes of the same vector.  The recursion looks
*through* same-opcode instructions up to ``depth`` levels, which is what
distinguishes look-ahead reordering from plain single-level operand
matching: two adds whose operands are consecutive loads score much higher
than two adds over unrelated values.

A scorer reads load addresses through a
:class:`~repro.ir.analysis.FunctionAnalysis` when it is given one (the
vectorizer gives every scorer of a run the run's), so each address is
decomposed once per IR state.  A search that scores many pairs over IR it
does not change (one Super-Node reorder, one reduction-group ordering)
asks :meth:`LookAheadScorer.memo` for a :class:`MemoScorer`, which also
scores each pair once for as long as the search holds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..ir.analysis import FunctionAnalysis, address_of
from ..ir.instructions import (
    BinaryInst,
    CallInst,
    Instruction,
    LoadInst,
    base_opcode,
    is_commutative,
)
from ..ir.values import Constant, Value
from ..observe import STAT, Statistic

_STAT_PAIR_SCORES = STAT(
    "lookahead.score-evaluations",
    "Pairwise look-ahead scores computed (memo hits not counted)",
)
_STAT_GROUP_SCORES = STAT(
    "lookahead.group-scores", "Whole-group look-ahead score evaluations"
)


@dataclass(frozen=True)
class ScoreTable:
    """Tunable score constants (defaults mirror LLVM's LookAheadHeuristics)."""

    consecutive_loads: int = 4
    reversed_loads: int = 2
    splat: int = 3
    constants: int = 2
    same_opcode: int = 2
    same_family: int = 1
    fail: int = 0


DEFAULT_SCORES = ScoreTable()


class LookAheadScorer:
    """Pairwise value scoring with bounded recursive look-ahead."""

    def __init__(
        self,
        depth: int = 2,
        table: ScoreTable = DEFAULT_SCORES,
        analysis: Optional[FunctionAnalysis] = None,
    ) -> None:
        self.depth = depth
        self.table = table
        self.analysis = analysis
        self._address = analysis.address_of if analysis is not None else address_of

    def using(self, analysis: FunctionAnalysis) -> "LookAheadScorer":
        """This scorer's depth and table, reading addresses through
        ``analysis``."""
        return LookAheadScorer(self.depth, self.table, analysis)

    def memo(self) -> "MemoScorer":
        """A scorer with this one's depth, table and analysis that
        remembers each pair's score; valid only while the IR it scores
        does not change."""
        return MemoScorer(self.depth, self.table, self.analysis)

    # -- public API ----------------------------------------------------------

    def score_pair(self, a: Value, b: Value) -> int:
        """Score of placing ``a`` and ``b`` in neighbouring vector lanes.

        Uncounted: a caller that scores many pairs adds its total once,
        with :meth:`count`."""
        return self._score(a, b, self.depth)

    @staticmethod
    def count(evaluations: int) -> None:
        """Add ``evaluations`` pair scores to the session's counter."""
        _STAT_PAIR_SCORES.add(evaluations)

    def score_group(self, values) -> int:
        """Sum of consecutive pairwise scores across a whole lane group."""
        _STAT_GROUP_SCORES.add()
        values = list(values)
        return sum(
            self.score_pair(left, right)
            for left, right in zip(values, values[1:])
        )

    # -- recursion -------------------------------------------------------------

    def _score(self, a: Value, b: Value, depth: int) -> int:
        table = self.table
        if a is b:
            return table.splat
        if isinstance(a, Constant) and isinstance(b, Constant):
            return table.constants
        if isinstance(a, LoadInst) and isinstance(b, LoadInst):
            return self._score_loads(a, b)
        if isinstance(a, Instruction) and isinstance(b, Instruction):
            return self._score_instructions(a, b, depth)
        return table.fail

    def _score_loads(self, a: LoadInst, b: LoadInst) -> int:
        if a.type is not b.type:
            return self.table.fail
        addr_a = self._address(a)
        addr_b = self._address(b)
        if addr_a is None or addr_b is None:
            return self.table.fail
        distance = addr_a.distance_to(addr_b)
        if distance == 1:
            return self.table.consecutive_loads
        if distance == -1:
            return self.table.reversed_loads
        return self.table.fail

    def _score_instructions(self, a: Instruction, b: Instruction, depth: int) -> int:
        if a.type is not b.type:
            return self.table.fail
        if a.opcode is b.opcode:
            base = self.table.same_opcode
        elif base_opcode(a.opcode) == base_opcode(b.opcode):
            base = self.table.same_family
        else:
            return self.table.fail
        if isinstance(a, CallInst) and isinstance(b, CallInst):
            if a.callee != b.callee:
                return self.table.fail
        if depth <= 0 or not isinstance(a, BinaryInst) or not isinstance(b, BinaryInst):
            return base
        return base + self._best_operand_pairing(a, b, depth - 1)

    def _best_operand_pairing(self, a: BinaryInst, b: BinaryInst, depth: int) -> int:
        """Look ahead into operands; consider the swapped pairing when the
        second instruction is commutative."""
        straight = self._score(a.lhs, b.lhs, depth) + self._score(a.rhs, b.rhs, depth)
        if is_commutative(b.opcode):
            crossed = self._score(a.lhs, b.rhs, depth) + self._score(a.rhs, b.lhs, depth)
            return max(straight, crossed)
        return straight


class MemoScorer(LookAheadScorer):
    """A :class:`LookAheadScorer` for one search: each ordered (a, b) pair
    is scored once.  Addresses come from the analysis it is given, or
    from its own when it is given none.

    Keys are object identities, never ``Value.__eq__``: constants compare
    by value, yet a constant scored with itself is a splat while two
    distinct equal constants score as constants.  Identities stay unique
    because every keyed value is part of the IR the search reads.  The
    memo is therefore valid only while that IR does not change: make one
    per search and drop it when the search returns.  Each pair it scores
    counts on the session's counter, resolved at the first score of the
    search rather than at every one.
    """

    def __init__(
        self,
        depth: int = 2,
        table: ScoreTable = DEFAULT_SCORES,
        analysis: Optional[FunctionAnalysis] = None,
    ) -> None:
        super().__init__(
            depth, table, analysis if analysis is not None else FunctionAnalysis()
        )
        self._pairs: Dict[Tuple[int, int], int] = {}
        self._evaluations: Optional[Statistic] = None

    def score_pair(self, a: Value, b: Value) -> int:
        key = (id(a), id(b))
        score = self._pairs.get(key)
        if score is None:
            score = self._pairs[key] = self._score(a, b, self.depth)
            if self._evaluations is None:
                self._evaluations = _STAT_PAIR_SCORES.resolve()
            self._evaluations.add()
        return score
