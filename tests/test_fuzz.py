"""Tests for the differential-testing & fuzzing subsystem (src/repro/fuzz/)."""

import json
import math
import os

import pytest

from repro.fuzz import (
    FUZZ_SHAPES,
    FuzzProgram,
    FuzzSpec,
    count_instructions,
    failure_signature,
    generate_program,
    is_nonzero_global,
    make_inputs,
    parse_budget,
    random_spec,
    reduce_module,
    replay_file,
    run_campaign,
    run_oracle,
    ulp_distance,
    values_close,
    write_reproducer,
)
from repro.fuzz.campaign import _reduction_predicate
from repro.interp import Interpreter, UnsupportedOpcodeError
from repro.ir import parse_module, print_module, verify_module
from repro.ir.instructions import Opcode
from repro.kernels.seeding import SeededSpec, derive_seed
from repro.machine import DEFAULT_TARGET
from repro.vectorizer import ALL_CONFIGS, compile_module
from repro.vectorizer.reorder import SuperNode


class TestSeeding:
    def test_derive_seed_deterministic(self):
        assert derive_seed(0, "x") == derive_seed(0, "x")
        assert derive_seed(0, "x") != derive_seed(0, "y")
        assert derive_seed(0, "x") != derive_seed(1, "x")

    def test_unlabeled_rng_matches_raw_seed(self):
        # historical streams (kernels.generator) must be preserved
        import random

        spec = SeededSpec(seed=42)
        assert spec.rng().random() == random.Random(42).random()

    def test_labeled_rngs_are_independent(self):
        spec = SeededSpec(seed=0)
        assert spec.rng("a").random() != spec.rng("b").random()


class TestGenprog:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FuzzSpec(shape="nope")
        with pytest.raises(ValueError):
            FuzzSpec(shape="addsub", lanes=1)
        with pytest.raises(ValueError):
            FuzzSpec(shape="addsub", terms=2)

    def test_every_shape_generates_verified_module(self):
        for shape in FUZZ_SHAPES:
            program = generate_program(FuzzSpec(seed=3, shape=shape))
            verify_module(program.module)
            assert program.kernel in program.module.functions

    def test_deterministic_per_seed(self):
        for shape in ("addsub", "mixed", "reduction"):
            a = generate_program(FuzzSpec(seed=9, shape=shape))
            b = generate_program(FuzzSpec(seed=9, shape=shape))
            assert print_module(a.module) == print_module(b.module)

    def test_different_seeds_differ(self):
        a = generate_program(FuzzSpec(seed=1, shape="addsub"))
        b = generate_program(FuzzSpec(seed=2, shape="addsub"))
        assert print_module(a.module) != print_module(b.module)

    def test_random_spec_covers_shapes(self):
        shapes = {random_spec(s).shape for s in range(64)}
        assert shapes == set(FUZZ_SHAPES)

    def test_nonzero_inputs_for_denominators(self):
        program = generate_program(FuzzSpec(seed=5, shape="muldiv"))
        inputs = make_inputs(program.module, input_seed=1)
        saw_denominator = False
        for name, values in inputs.items():
            if is_nonzero_global(name):
                saw_denominator = True
                assert all(0.5 <= v <= 4.0 for v in values)
        assert saw_denominator

    def test_roundtrips_through_printer_parser(self):
        program = generate_program(FuzzSpec(seed=11, shape="overlap"))
        text = print_module(program.module)
        reparsed = parse_module(text)
        verify_module(reparsed)
        assert print_module(reparsed) == text


class TestUlpComparison:
    def test_identical(self):
        assert ulp_distance(1.0, 1.0) == 0

    def test_adjacent_doubles(self):
        assert ulp_distance(1.0, math.nextafter(1.0, 2.0)) == 1

    def test_across_zero(self):
        tiny = math.nextafter(0.0, 1.0)
        assert ulp_distance(-tiny, tiny) == 2

    def test_nan_handling(self):
        assert ulp_distance(float("nan"), float("nan")) == 0
        assert ulp_distance(float("nan"), 1.0) > (1 << 61)

    def test_inf_handling(self):
        assert ulp_distance(float("inf"), float("inf")) == 0
        assert ulp_distance(float("inf"), float("-inf")) > (1 << 61)

    def test_values_close(self):
        assert values_close(3, 3, is_float=False)
        assert not values_close(3, 4, is_float=False)
        assert values_close(1.0, 1.0 + 1e-14, is_float=True)
        assert not values_close(1.0, -1.0, is_float=True)
        # absolute tolerance floor near zero
        assert values_close(0.0, 1e-12, is_float=True)


class TestOracle:
    def test_clean_program_passes_all_configs(self):
        program = generate_program(FuzzSpec(seed=0, shape="addsub"))
        report = run_oracle(program)
        assert report.ok
        assert {o.config for o in report.outcomes} == {
            c.name for c in ALL_CONFIGS
        }
        for outcome in report.outcomes:
            assert outcome.status == "ok"
            assert math.isfinite(outcome.cycles) and outcome.cycles > 0

    def test_snslp_vectorizes_stress_shapes(self):
        program = generate_program(FuzzSpec(seed=0, shape="addsub"))
        report = run_oracle(program)
        by_name = {o.config: o for o in report.outcomes}
        assert by_name["SN-SLP"].vectorized_graphs > 0

    def test_report_json_roundtrip(self):
        program = generate_program(FuzzSpec(seed=4, shape="mixed"))
        report = run_oracle(program)
        document = report.to_json()
        assert json.loads(json.dumps(document)) == document

    def test_interpreter_gap_is_typed(self):
        # oracle relies on UnsupportedOpcodeError to distinguish an
        # interpreter gap from a miscompile
        program = generate_program(FuzzSpec(seed=0, shape="minmax"))
        module = program.module
        function = module.functions[program.kernel]
        from repro.ir.instructions import CallInst

        call = next(
            inst
            for block in function.blocks
            for inst in block.instructions
            if isinstance(inst, CallInst)
        )
        call.callee = "llvm.experimental.mystery"
        interp = Interpreter(module)
        for name, values in make_inputs(module, 1).items():
            interp.write_global(name, values)
        with pytest.raises(UnsupportedOpcodeError):
            interp.run(program.kernel, program.args)


def _flip_addsub_codegen(monkeypatch):
    """Inject a deliberate APO miscompile: SuperNode codegen emits FSUB
    where it meant FADD (and vice versa) on every root it returns."""
    original = SuperNode.generate_code

    def flipped(self):
        roots = original(self)
        for root in roots:
            if root.opcode is Opcode.FADD:
                root.opcode = Opcode.FSUB
            elif root.opcode is Opcode.FSUB:
                root.opcode = Opcode.FADD
        return roots

    monkeypatch.setattr(SuperNode, "generate_code", flipped)


class TestInjectedMiscompile:
    def test_sign_flip_is_caught(self, monkeypatch):
        _flip_addsub_codegen(monkeypatch)
        program = generate_program(FuzzSpec(seed=0, shape="addsub"))
        report = run_oracle(program)
        assert not report.ok
        signature = failure_signature(report)
        assert signature
        assert all(status == "mismatch" for _, status in signature)
        # only super-node configs run SuperNode codegen
        assert all(cfg in ("LSLP", "SN-SLP") for cfg, _ in signature)

    def test_reducer_shrinks_to_small_reproducer(self, monkeypatch):
        _flip_addsub_codegen(monkeypatch)
        program = generate_program(FuzzSpec(seed=0, shape="addsub"))
        report = run_oracle(program)
        signature = failure_signature(report)
        assert signature
        predicate = _reduction_predicate(
            signature,
            program.kernel,
            program.args,
            ALL_CONFIGS,
            DEFAULT_TARGET,
            input_seed=1,
            max_ulps=4096,
        )
        result = reduce_module(program.module, predicate)
        assert result.instructions_after <= 12
        assert result.instructions_after < result.instructions_before
        verify_module(result.module)
        assert predicate(result.module)


class TestReducer:
    def test_count_instructions(self):
        program = generate_program(FuzzSpec(seed=0, shape="addsub"))
        assert count_instructions(program.module) > 0

    def test_trivially_true_predicate_shrinks_hard(self):
        program = generate_program(FuzzSpec(seed=0, shape="addsub"))
        result = reduce_module(program.module, lambda m: True)
        # with no constraint everything but the terminator should go
        assert result.instructions_after <= 2
        verify_module(result.module)

    def test_false_predicate_keeps_module(self):
        program = generate_program(FuzzSpec(seed=0, shape="addsub"))
        before = print_module(program.module)
        result = reduce_module(program.module, lambda m: False)
        assert result.edits_applied == 0
        assert print_module(result.module) == before

    def test_write_reproducer_roundtrip(self, tmp_path):
        program = generate_program(FuzzSpec(seed=0, shape="muldiv"))
        path = tmp_path / "repro.ir"
        write_reproducer(program.module, str(path))
        reparsed = parse_module(path.read_text())
        verify_module(reparsed)


class TestCampaign:
    def test_parse_budget(self):
        assert parse_budget("200") == ("count", 200.0)
        assert parse_budget("30s") == ("time", 30.0)
        assert parse_budget("2m") == ("time", 120.0)
        assert parse_budget("1h") == ("time", 3600.0)
        with pytest.raises(ValueError):
            parse_budget("many")

    def test_count_campaign_deterministic(self):
        first = run_campaign(budget="40", seed=0)
        first_stats = dict(first.stats)
        second = run_campaign(budget="40", seed=0)
        assert first.programs == second.programs == 40
        assert first_stats == dict(second.stats)
        assert first.ok and second.ok
        assert first_stats["fuzz.programs-generated"] == 40
        assert first_stats["fuzz.programs-vectorized"] > 0

    def test_campaign_uses_private_session(self):
        # each compilation runs in its own derived session; campaign
        # bucket counters live in the campaign's session, and neither
        # leaks into the default session's registry
        from repro.observe import DEFAULT_SESSION

        result = run_campaign(budget="5", seed=0)
        assert result.stats["fuzz.programs-generated"] == 5
        assert "fuzz.programs-generated" not in DEFAULT_SESSION.stats.snapshot()
        assert "slp.seed-bundles" not in DEFAULT_SESSION.stats.snapshot()

    def test_failure_artifacts_written(self, monkeypatch, tmp_path):
        _flip_addsub_codegen(monkeypatch)
        result = run_campaign(
            budget="3", seed=0, out_dir=str(tmp_path), max_failures=1
        )
        assert not result.ok
        failure = result.failures[0]
        assert failure.directory is not None
        names = set(os.listdir(failure.directory))
        assert {"original.ir", "reduced.ir", "report.json", "remarks.jsonl"} <= names
        document = json.loads(
            (tmp_path / os.path.basename(failure.directory) / "report.json").read_text()
        )
        reduction = document["reduction"]
        assert reduction["instructions_after"] < reduction["instructions_before"]
        # the saved reproducer replays to the same failure (with the
        # injection still active)
        report = replay_file(os.path.join(failure.directory, "reduced.ir"))
        assert not report.ok

    def test_replay_clean_reproducer(self, tmp_path):
        program = generate_program(FuzzSpec(seed=2, shape="mixed"))
        path = tmp_path / "clean.ir"
        write_reproducer(program.module, str(path))
        report = replay_file(str(path))
        assert report.ok

    def test_summary_mentions_failures(self, monkeypatch):
        _flip_addsub_codegen(monkeypatch)
        result = run_campaign(budget="3", seed=0, max_failures=1, reduce_failures=False)
        assert "failure" in result.summary()
        assert not result.ok
