"""Robustness layer tests: fault injection, guarded driver, bisection.

The headline property: for *every* registered compile-time (site, mode)
combination, ``guarded_compile`` still returns runnable IR whose outputs
match the scalar interpreter, records a recovery remark + counters for
each rollback, and — for crash-class faults — can persist a reduced
``failure-NNNN/`` bundle replayable via ``repro bisect``.
"""

import json
import os

import pytest

from repro.cli import main
from repro.frontend import compile_source
from repro.fuzz import make_inputs, values_close
from repro.interp import (
    BudgetExceededError,
    Interpreter,
    InterpreterError,
)
from repro.ir import FloatType
from repro.machine import DEFAULT_TARGET
from repro.observe import DEFAULT_SESSION, REMARK
from repro.robust import (
    BISECT,
    COMPILE_SITES,
    FAULT_SITES,
    FAULTS,
    FaultError,
    guarded_compile,
    parse_injection,
    resolve_ladder,
    run_bisect,
    site_named,
)
from repro.sim import simulate
from repro.vectorizer import compile_module, config_named

FIG3 = """
long A[1024]; long B[1024]; long C[1024]; long D[1024];

kernel fig3(n) {
  for (i = 0; i < n; i += 2) {
    A[i+0] = B[i+0] - C[i+0] + D[i+0];
    A[i+1] = B[i+1] + D[i+1] - C[i+1];
  }
}
"""

SNSLP = config_named("sn-slp")

#: every compile-reachable (site, mode) combination — the parametrized
#: recovery test must hold for all of them
COMPILE_COMBOS = [
    (name, mode) for name in COMPILE_SITES for mode in FAULT_SITES[name].modes
]


@pytest.fixture(autouse=True)
def _clean_robust_state():
    FAULTS.disarm_all()
    BISECT.disable()
    yield
    FAULTS.disarm_all()
    BISECT.disable()
    DEFAULT_SESSION.tracer.clear()
    DEFAULT_SESSION.tracer.disable(REMARK)


def fig3_module():
    return compile_source(FIG3, module_name="fig3mod")


def scalar_reference(module, kernel="fig3", n=64, input_seed=1):
    """Deterministic inputs + the unoptimized module's outputs."""
    inputs = make_inputs(module, input_seed)
    interp = Interpreter(module)
    for name, values in inputs.items():
        interp.write_global(name, values)
    interp.run(kernel, (n,))
    return inputs, {name: interp.read_global(name) for name in module.globals}


def assert_matches_reference(compiled_module, module, inputs, reference, n=64):
    result = simulate(compiled_module, "fig3", DEFAULT_TARGET, [n], inputs=inputs)
    for name in module.globals:
        is_float = isinstance(module.globals[name].element, FloatType)
        for index, (want, got) in enumerate(
            zip(reference[name], result.globals_after[name])
        ):
            assert values_close(got, want, is_float), (
                f"@{name}[{index}]: reference {want!r} vs guarded {got!r}"
            )


class TestFaultRegistry:
    def test_parse_injection_defaults(self):
        assert parse_injection("codegen.emit") == ("codegen.emit", "raise", 0)
        assert parse_injection("codegen.emit:corrupt:2") == (
            "codegen.emit", "corrupt", 2,
        )

    def test_parse_injection_rejects_unknown_site(self):
        with pytest.raises(KeyError):
            parse_injection("warpcore.breach")

    def test_parse_injection_rejects_unsupported_mode(self):
        with pytest.raises(ValueError):
            parse_injection("supernode.build-chain:corrupt")

    def test_arm_rejects_unsupported_mode(self):
        with pytest.raises(ValueError):
            FAULTS.arm("codegen.emit", "stall")

    def test_fire_is_noop_when_disarmed(self):
        FAULTS.fire("codegen.emit")  # must not raise

    def test_skip_lets_early_hits_pass(self):
        plan = FAULTS.arm("codegen.emit", "raise", skip=1)
        FAULTS.fire("codegen.emit")  # hit 1: skipped
        with pytest.raises(FaultError):
            FAULTS.fire("codegen.emit")  # hit 2: fires
        assert (plan.hits, plan.fired) == (2, 1)

    def test_once_fires_exactly_once(self):
        plan = FAULTS.arm("codegen.emit", "raise", once=True)
        with pytest.raises(FaultError):
            FAULTS.fire("codegen.emit")
        FAULTS.fire("codegen.emit")  # second hit passes
        assert (plan.hits, plan.fired) == (2, 1)

    def test_every_site_declares_supported_modes(self):
        for name, site in FAULT_SITES.items():
            assert site.modes, name
            assert site_named(name) is site


class TestInterpreterWatchdog:
    def test_max_steps_raises_typed_error(self):
        module = fig3_module()
        interp = Interpreter(module, max_steps=5)
        with pytest.raises(BudgetExceededError) as excinfo:
            interp.run("fig3", (64,))
        assert isinstance(excinfo.value, InterpreterError)
        assert "budget" in str(excinfo.value)

    def test_simulate_forwards_max_steps(self):
        module = fig3_module()
        compiled = compile_module(module, SNSLP, DEFAULT_TARGET)
        with pytest.raises(BudgetExceededError):
            simulate(
                compiled.module, "fig3", DEFAULT_TARGET, [64], max_steps=3
            )

    def test_generous_budget_does_not_trip(self):
        module = fig3_module()
        interp = Interpreter(module, max_steps=100_000)
        interp.run("fig3", (8,))


class TestStatsResetOnException:
    """Satellite 1: a crashing compile must not poison later counters."""

    def test_counters_reset_when_compile_raises(self):
        module = fig3_module()
        before = DEFAULT_SESSION.stats.snapshot()
        FAULTS.arm("codegen.emit", "raise")
        with pytest.raises(FaultError):
            compile_module(module, SNSLP, DEFAULT_TARGET)
        # the crashing compile's ephemeral session is discarded with its
        # partial counters; the ambient registry is untouched
        assert DEFAULT_SESSION.stats.snapshot() == before, "stale counters survived the crash"

    def test_clean_compile_after_crash_reports_fresh_counters(self):
        module = fig3_module()
        FAULTS.arm("codegen.emit", "raise")
        with pytest.raises(FaultError):
            compile_module(module, SNSLP, DEFAULT_TARGET)
        FAULTS.disarm_all()
        result = compile_module(fig3_module(), SNSLP, DEFAULT_TARGET)
        assert result.counters  # the clean compile's own counters


class TestGuardedRecovery:
    """The headline parametrized property over every (site, mode)."""

    @pytest.mark.parametrize("site,mode", COMPILE_COMBOS)
    def test_injected_fault_cannot_escape(self, site, mode):
        module = fig3_module()
        inputs, reference = scalar_reference(module)
        plan = FAULTS.arm(site, mode)
        DEFAULT_SESSION.tracer.clear()
        DEFAULT_SESSION.tracer.enable(REMARK)
        outcome = guarded_compile(
            module, SNSLP, DEFAULT_TARGET, phase_budget_seconds=0.1
        )
        FAULTS.disarm_all()

        # fig3 exercises the full SN-SLP pipeline, so every site is hit
        assert plan.fired > 0, f"{site}:{mode} never reached"
        assert outcome.recoveries, "fault fired but no recovery was recorded"
        # each rollback emitted a structured recovery remark ...
        recovery_remarks = DEFAULT_SESSION.tracer.of("remark", "recovery")
        assert len(recovery_remarks) == len(outcome.recoveries)
        assert all(r.name == "guard" for r in recovery_remarks)
        # ... and bumped the guarded compile's own counters
        counters = outcome.result.counters
        assert counters.get("robust.recoveries", 0) == len(outcome.recoveries)
        # the driver still produced runnable, semantics-preserving IR
        assert_matches_reference(
            outcome.result.module, module, inputs, reference
        )

    def test_clean_compile_has_no_recoveries(self):
        module = fig3_module()
        inputs, reference = scalar_reference(module)
        outcome = guarded_compile(module, SNSLP, DEFAULT_TARGET)
        assert not outcome.recovered
        assert not outcome.degraded
        assert outcome.config_used == "SN-SLP"
        assert len(outcome.result.report.vectorized_graphs()) == 1
        assert_matches_reference(
            outcome.result.module, module, inputs, reference
        )


class TestDegradationLadder:
    def test_resolve_ladder_starts_at_requested(self):
        names = [c.name for c in resolve_ladder(SNSLP)]
        assert names == ["SN-SLP", "LSLP", "SLP", "O3"]
        names = [c.name for c in resolve_ladder(config_named("lslp"))]
        assert names == ["LSLP", "SLP", "O3"]

    def test_resolve_ladder_prepends_foreign_config(self):
        names = [c.name for c in resolve_ladder(SNSLP, ladder=["SLP", "O3"])]
        assert names == ["SN-SLP", "SLP", "O3"]

    def test_vectorize_crash_descends_ladder(self):
        module = fig3_module()
        inputs, reference = scalar_reference(module)
        FAULTS.arm("codegen.emit", "raise")
        outcome = guarded_compile(module, SNSLP, DEFAULT_TARGET)
        FAULTS.disarm_all()
        assert outcome.degraded
        assert outcome.config_used != "SN-SLP"
        assert any(r.action == "descend-ladder" for r in outcome.recoveries)
        assert_matches_reference(
            outcome.result.module, module, inputs, reference
        )

    def test_corruption_is_caught_by_verify_gate(self):
        module = fig3_module()
        inputs, reference = scalar_reference(module)
        FAULTS.arm("codegen.emit", "corrupt")
        outcome = guarded_compile(module, SNSLP, DEFAULT_TARGET)
        FAULTS.disarm_all()
        assert any(r.kind == "verifier" for r in outcome.recoveries)
        assert outcome.crash is not None
        assert outcome.crash.kind == "verifier"
        assert_matches_reference(
            outcome.result.module, module, inputs, reference
        )

    def test_single_rung_ladder_falls_back_to_pristine(self):
        module = fig3_module()
        inputs, reference = scalar_reference(module)
        FAULTS.arm("codegen.emit", "raise")
        outcome = guarded_compile(
            module, SNSLP, DEFAULT_TARGET, ladder=["SN-SLP"]
        )
        FAULTS.disarm_all()
        assert outcome.config_used == "pristine"
        assert any(
            r.action == "pristine-fallback" for r in outcome.recoveries
        )
        assert outcome.result.counters.get("robust.pristine-fallbacks") == 1
        assert_matches_reference(
            outcome.result.module, module, inputs, reference
        )


class TestPhaseBudget:
    def test_stalled_phase_is_skipped_within_budget(self):
        module = fig3_module()
        inputs, reference = scalar_reference(module)
        FAULTS.arm("simplify.module", "stall")  # sleeps 0.25s per fire
        outcome = guarded_compile(
            module, SNSLP, DEFAULT_TARGET, phase_budget_seconds=0.05
        )
        FAULTS.disarm_all()
        budget_recoveries = [r for r in outcome.recoveries if r.kind == "budget"]
        assert budget_recoveries
        assert all(r.phase == "simplify" for r in budget_recoveries)
        assert all(r.action == "skip-phase" for r in budget_recoveries)
        # a skipped simplify must not stop vectorization, only slow it
        assert outcome.config_used == "SN-SLP"
        assert_matches_reference(
            outcome.result.module, module, inputs, reference
        )

    def test_budget_blowout_is_not_a_crash_capture(self):
        module = fig3_module()
        FAULTS.arm("simplify.module", "stall")
        outcome = guarded_compile(
            module, SNSLP, DEFAULT_TARGET, phase_budget_seconds=0.05
        )
        FAULTS.disarm_all()
        assert outcome.crash is None  # timing failures are not bundled


class TestCrashBundle:
    def test_injected_crash_produces_reduced_bundle(self, tmp_path):
        module = fig3_module()
        FAULTS.arm("codegen.emit", "raise")
        outcome = guarded_compile(
            module, SNSLP, DEFAULT_TARGET, bundle_dir=str(tmp_path)
        )
        assert outcome.bundle_dir is not None
        assert os.path.basename(outcome.bundle_dir) == "failure-0000"
        for artifact in (
            "original.ir", "snapshot.ir", "reduced.ir",
            "report.json", "remarks.jsonl",
        ):
            path = os.path.join(outcome.bundle_dir, artifact)
            assert os.path.exists(path), artifact

        with open(os.path.join(outcome.bundle_dir, "report.json")) as handle:
            report = json.load(handle)
        assert report["crash"]["kind"] == "exception"
        assert report["crash"]["phase"] == "vectorize"
        assert "repro bisect" in report["replay"]
        assert report["reduction"]["instructions_after"] <= (
            report["reduction"]["instructions_before"]
        )
        with open(os.path.join(outcome.bundle_dir, "remarks.jsonl")) as handle:
            assert '"recovery"' in handle.read()

    def test_bundle_replays_through_repro_bisect(self, tmp_path, capsys):
        module = fig3_module()
        FAULTS.arm("codegen.emit", "raise")
        outcome = guarded_compile(
            module, SNSLP, DEFAULT_TARGET, bundle_dir=str(tmp_path)
        )
        reduced = os.path.join(outcome.bundle_dir, "reduced.ir")
        # the fault is still armed, exactly like replaying a real compiler
        # bug whose trigger still exists in the build
        assert main(["bisect", reduced, "--config", "SN-SLP"]) == 0
        out = capsys.readouterr().out
        assert "first faulty decision" in out
        assert "crash" in out


class TestBisect:
    def test_localizes_crashing_decision(self):
        module = fig3_module()
        FAULTS.arm("codegen.emit", "raise")
        result = run_bisect(module, SNSLP, DEFAULT_TARGET, args=(64,))
        assert result.status == "crash"
        assert result.first_bad == 1
        assert "store-graph" in result.culprit
        assert not result.bad_at_zero

    def test_pre_vectorizer_fault_reports_bad_at_zero(self):
        module = fig3_module()
        FAULTS.arm("simplify.module", "raise")
        result = run_bisect(module, SNSLP, DEFAULT_TARGET, args=(64,))
        assert result.bad_at_zero
        assert result.first_bad is None

    def test_clean_module_reports_ok(self):
        module = fig3_module()
        result = run_bisect(module, SNSLP, DEFAULT_TARGET, args=(64,))
        assert result.status == "ok"
        assert result.total_decisions >= 1
        assert result.first_bad is None


class TestFuzzIntegration:
    def test_oracle_classifies_reference_budget_blowout(self):
        from repro.fuzz import generate_program, random_spec, run_oracle

        program = generate_program(random_spec(3))
        FAULTS.arm("interp.step", "stall")  # burns the reference's budget
        report = run_oracle(program)
        FAULTS.disarm_all()
        assert report.reference_trapped
        assert report.outcomes[0].status == "budget"

    def test_injection_campaign_covers_every_combo_cleanly(self):
        from repro.fuzz import injection_combos, run_injection_campaign

        combos = injection_combos()
        assert sorted(combos) == sorted(COMPILE_COMBOS)
        result = run_injection_campaign(budget=str(len(combos)), seed=0)
        assert result.ok, result.summary()
        assert result.stats.get("fuzz.injections") == len(combos)
        assert not result.escapes
