"""Look-ahead scoring tests (LSLP heuristics)."""

import gc
import weakref

import pytest

from repro.ir import (
    F64,
    I64,
    VOID,
    Constant,
    Function,
    IRBuilder,
    Module,
)
from repro.observe import CompilerSession, use_session
from repro.vectorizer import LookAheadScorer, ScoreTable, SuperNode
from repro.vectorizer.lookahead import MemoScorer


def _env():
    module = Module("m")
    for name in "AB":
        module.add_global(name, F64, 64)
    function = Function("f", [("i", I64)], VOID)
    module.add_function(function)
    builder = IRBuilder(function.add_block("entry"))
    i = function.arguments[0]

    def load(name, off):
        idx = builder.add(i, builder.const_i64(off)) if off else i
        return builder.load(builder.gep(module.global_named(name), idx))

    return builder, load


class TestLeafScores:
    def test_consecutive_loads_score_highest(self):
        _, load = _env()
        scorer = LookAheadScorer()
        a0, a1 = load("A", 0), load("A", 1)
        b5 = load("B", 5)
        assert scorer.score_pair(a0, a1) == scorer.table.consecutive_loads
        assert scorer.score_pair(a0, b5) == scorer.table.fail

    def test_reversed_loads(self):
        _, load = _env()
        scorer = LookAheadScorer()
        a0, a1 = load("A", 0), load("A", 1)
        assert scorer.score_pair(a1, a0) == scorer.table.reversed_loads

    def test_splat(self):
        _, load = _env()
        scorer = LookAheadScorer()
        a0 = load("A", 0)
        assert scorer.score_pair(a0, a0) == scorer.table.splat

    def test_constants(self):
        scorer = LookAheadScorer()
        assert (
            scorer.score_pair(Constant(F64, 1.0), Constant(F64, 2.0))
            == scorer.table.constants
        )

    def test_mismatched_types_fail(self):
        builder, load = _env()
        scorer = LookAheadScorer()
        a0 = load("A", 0)
        n = Constant(I64, 1)
        assert scorer.score_pair(a0, n) == scorer.table.fail


class TestRecursiveScores:
    def test_same_opcode_with_matching_operands_beats_bare_match(self):
        builder, load = _env()
        scorer = LookAheadScorer(depth=2)
        good_l = builder.fadd(load("A", 0), load("B", 0))
        good_r = builder.fadd(load("A", 1), load("B", 1))
        bad_r = builder.fadd(Constant(F64, 1.0), Constant(F64, 2.0))
        assert scorer.score_pair(good_l, good_r) > scorer.score_pair(good_l, bad_r)

    def test_commutative_crossed_pairing_found(self):
        builder, load = _env()
        scorer = LookAheadScorer(depth=2)
        left = builder.fadd(load("A", 0), load("B", 0))
        crossed = builder.fadd(load("B", 1), load("A", 1))
        straight = builder.fadd(load("A", 1), load("B", 1))
        # the crossed operand order should score as high as the straight one
        assert scorer.score_pair(left, crossed) == scorer.score_pair(left, straight)

    def test_depth_zero_ignores_operands(self):
        builder, load = _env()
        shallow = LookAheadScorer(depth=0)
        good = builder.fadd(load("A", 0), load("B", 0))
        also_good = builder.fadd(load("A", 1), load("B", 1))
        unrelated = builder.fadd(Constant(F64, 1.0), Constant(F64, 2.0))
        assert shallow.score_pair(good, also_good) == shallow.score_pair(
            good, unrelated
        )

    def test_same_family_scores_between_same_opcode_and_fail(self):
        builder, load = _env()
        scorer = LookAheadScorer(depth=0)
        add = builder.fadd(load("A", 0), load("B", 0))
        add2 = builder.fadd(load("A", 1), load("B", 1))
        sub = builder.fsub(load("A", 1), load("B", 1))
        mul = builder.fmul(load("A", 1), load("B", 1))
        assert scorer.score_pair(add, add2) > scorer.score_pair(add, sub)
        assert scorer.score_pair(add, sub) > scorer.score_pair(add, mul)

    def test_intrinsic_callee_must_match(self):
        builder, load = _env()
        scorer = LookAheadScorer()
        sqrt = builder.call("sqrt", [load("A", 0)])
        fabs = builder.call("fabs", [load("A", 1)])
        sqrt2 = builder.call("sqrt", [load("A", 1)])
        assert scorer.score_pair(sqrt, fabs) == scorer.table.fail
        assert scorer.score_pair(sqrt, sqrt2) > 0


class TestGroupScore:
    def test_group_score_sums_consecutive_pairs(self):
        _, load = _env()
        scorer = LookAheadScorer()
        lanes = [load("A", 0), load("A", 1), load("A", 2), load("A", 3)]
        assert scorer.score_group(lanes) == 3 * scorer.table.consecutive_loads

    def test_custom_table(self):
        table = ScoreTable(consecutive_loads=100)
        _, load = _env()
        scorer = LookAheadScorer(table=table)
        assert scorer.score_pair(load("A", 0), load("A", 1)) == 100


# -- the per-search memo (MemoScorer) -------------------------------------------------


class _RecordingMemo(MemoScorer):
    """A memo that logs every score a search asks it for."""

    def __init__(self, depth, table, log):
        super().__init__(depth, table)
        self.log = log

    def score_pair(self, a, b):
        score = super().score_pair(a, b)
        self.log.append((a, b, score))
        return score


class _SpyScorer(LookAheadScorer):
    """Hands each search a fresh recording memo and keeps a weak handle on
    it, so a test can see what a search asked and whether its memo died."""

    def __init__(self):
        super().__init__()
        self.asked = []
        self.memos = []

    def memo(self):
        memo = _RecordingMemo(self.depth, self.table, self.asked)
        self.memos.append(weakref.ref(memo))
        return memo


def _signed_sum_lanes(orders, minus):
    """One store lane per entry of ``orders``: ``A[i+lane]`` = the signed
    sum of arrays B0.. at offset ``lane``, terms in that lane's order.
    Returns the function with the roots: holding only instructions does
    not keep its function's IR alive."""
    module = Module("m")
    terms = len(minus)
    for name in ["A"] + [f"B{j}" for j in range(terms)]:
        module.add_global(name, F64, 64)
    function = Function("f", [("i", I64)], VOID, fast_math=True)
    module.add_function(function)
    builder = IRBuilder(function.add_block("entry"))
    i = function.arguments[0]
    roots = []
    for lane, order in enumerate(orders):
        idx = builder.add(i, builder.const_i64(lane)) if lane else i

        def load(j):
            return builder.load(
                builder.gep(module.global_named(f"B{j}"), idx), name=f"B{j}_{lane}"
            )

        acc = load(order[0])
        for j in order[1:]:
            acc = (builder.fsub if minus[j] else builder.fadd)(acc, load(j))
        builder.store(acc, builder.gep(module.global_named("A"), idx))
        roots.append(acc)
    builder.ret()
    return function, roots


def _supernode(roots):
    node = SuperNode.build(
        roots, allow_inverse=True, allow_trunk_swaps=True, fast_math=True
    )
    assert node is not None
    return node


class TestMemoScorer:
    def test_every_memoised_score_equals_a_fresh_one(self):
        function, roots = _signed_sum_lanes(
            [(0, 1, 2, 3, 4), (2, 0, 4, 1, 3), (4, 3, 0, 2, 1), (1, 4, 3, 0, 2)],
            minus=(False, True, False, True, True),
        )
        spy = _SpyScorer()
        _supernode(roots).reorder_leaves_and_trunks(spy)
        fresh = LookAheadScorer()
        assert len(spy.asked) > len({(id(a), id(b)) for a, b, _ in spy.asked})
        for a, b, score in spy.asked:
            assert score == fresh.score_pair(a, b)

    def test_keys_are_identities_not_equal_values(self):
        c1, c2 = Constant(F64, 1.0), Constant(F64, 1.0)
        assert c1 == c2 and c1 is not c2
        memo = LookAheadScorer().memo()
        assert memo.score_pair(c1, c1) == memo.table.splat
        assert memo.score_pair(c1, c2) == memo.table.constants
        other = LookAheadScorer().memo()
        assert other.score_pair(c1, c2) == other.table.constants
        assert other.score_pair(c2, c2) == other.table.splat

    @pytest.mark.parametrize(
        "kernel, config, evaluations",
        [
            ("motiv-leaf-reorder", "SLP", 4),
            ("motiv-leaf-reorder", "SN-SLP", 13),
            ("milc-su3-cmul", "SLP", 8),
            ("milc-su3-cmul", "SN-SLP", 21),
            ("dealii-cell-assembly", "LSLP", 8),
            ("dealii-cell-assembly", "SN-SLP", 33),
        ],
    )
    def test_compile_counts_every_score_it_computes(self, kernel, config, evaluations):
        """Alignment adds its scores once per call and a search counts on
        a counter it resolves once, yet a compile's total is the one
        counted score by score (values from that rule)."""
        from repro.kernels import kernel_named
        from repro.vectorizer import ALL_CONFIGS, compile_module

        (slp_config,) = [c for c in ALL_CONFIGS if c.name == config]
        result = compile_module(kernel_named(kernel).build(), slp_config)
        assert result.counters["lookahead.score-evaluations"] == evaluations

    def test_memo_counts_each_pair_once(self):
        _, load = _env()
        a0, a1 = load("A", 0), load("A", 1)
        with use_session(CompilerSession()) as session:
            memo = LookAheadScorer().memo()
            for _ in range(3):
                assert memo.score_pair(a0, a1) == memo.table.consecutive_loads
                assert memo.score_pair(a1, a0) == memo.table.reversed_loads
            assert session.stats.value("lookahead.score-evaluations") == 2

    def test_no_entry_outlives_its_search(self):
        """A second search after ``generate_code`` scores the rewritten IR:
        the first search's memo is gone, so a load whose address changed in
        between is scored at its new address."""
        function, roots = _signed_sum_lanes(
            [(0, 1, 2), (0, 1, 2)], minus=(False, False, True)
        )
        spy = _SpyScorer()
        first = _supernode(roots)
        first.reorder_leaves_and_trunks(spy)
        new_roots = first.generate_code()
        gc.collect()
        assert spy.memos[0]() is None
        earlier = {(id(a), id(b)): score for a, b, score in spy.asked}
        # Rewrite lane 1's B0 and B1 loads to read each other's arrays.
        chain = _supernode(new_roots).chains[1]
        by_name = {value.name: value for value in chain.leaf_values()}
        b0, b1 = by_name["B0_1"], by_name["B1_1"]
        p0, p1 = b0.pointer, b1.pointer
        b0.set_operand(0, p1)
        b1.set_operand(0, p0)
        spy.asked.clear()
        _supernode(new_roots).reorder_leaves_and_trunks(spy)
        assert len(spy.memos) == 2
        fresh = LookAheadScorer()
        changed = 0
        for a, b, score in spy.asked:
            assert score == fresh.score_pair(a, b)
            changed += earlier.get((id(a), id(b)), score) != score
        assert changed
