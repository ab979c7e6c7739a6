"""CLI driver tests (``python -m repro`` / the ``snslp`` entry point)."""

import struct

import pytest

from repro import cli
from repro.cli import EXIT_MISMATCH, main

FIG3 = """
long A[1024]; long B[1024]; long C[1024]; long D[1024];

kernel fig3(n) {
  for (i = 0; i < n; i += 2) {
    A[i+0] = B[i+0] - C[i+0] + D[i+0];
    A[i+1] = B[i+1] + D[i+1] - C[i+1];
  }
}
"""

TWO_KERNELS = """
double A[16];
kernel one(n) { A[0] = 1.0; }
kernel two(n) { A[1] = 2.0; }
"""


@pytest.fixture
def fig3_file(tmp_path):
    path = tmp_path / "fig3.sn"
    path.write_text(FIG3)
    return str(path)


class TestCompile:
    def test_emit_ir(self, fig3_file, capsys):
        assert main(["compile", fig3_file, "--emit-ir"]) == 0
        out = capsys.readouterr()
        assert "func @fig3" in out.out
        assert "<2 x i64>" in out.out  # vectorized under the default SN-SLP
        assert "vectorized" in out.err

    def test_o3_leaves_scalar(self, fig3_file, capsys):
        assert main(["compile", fig3_file, "--emit-ir", "--config", "o3"]) == 0
        out = capsys.readouterr()
        assert "<2 x i64>" not in out.out

    def test_without_emit_only_stats(self, fig3_file, capsys):
        assert main(["compile", fig3_file]) == 0
        out = capsys.readouterr()
        assert out.out == ""
        assert "SLP graphs" in out.err

    def test_unknown_config_is_usage_error(self, fig3_file, capsys):
        assert main(["compile", fig3_file, "--config", "turbo"]) == 2
        assert "unknown vectorizer config" in capsys.readouterr().err

    def test_unknown_target_is_usage_error(self, fig3_file, capsys):
        assert main(["compile", fig3_file, "--target", "itanium"]) == 2
        assert "unknown target" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["compile", str(tmp_path / "nope.sn")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_cache_dir_prints_the_plain_compile_ir(self, fig3_file, tmp_path, capsys):
        """``--cache-dir`` prints the IR a plain compile prints, byte for
        byte, on the miss and on the hit."""
        cache = str(tmp_path / "cache")
        runs = []
        for extra in ([], ["--cache-dir", cache], ["--cache-dir", cache]):
            assert main(["compile", fig3_file, "--emit-ir", *extra]) == 0
            runs.append(capsys.readouterr())
        plain, miss, hit = runs
        assert "<2 x i64>" in plain.out
        assert miss.out == plain.out
        assert hit.out == plain.out
        assert "compile cache miss" in miss.err
        assert "compile cache hit" in hit.err

    def test_cache_dir_phase_table_only_when_compiled(self, fig3_file, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = ["compile", fig3_file, "--cache-dir", cache, "-v"]
        assert main(args) == 0
        miss = capsys.readouterr().err
        assert main(args) == 0
        hit = capsys.readouterr().err
        for phase in ("clone", "simplify", "vectorize", "verify", "total"):
            assert f";   {phase} " in miss
        assert "no phase ran" not in miss
        assert "; phase times (SN-SLP): no phase ran (compile cache hit)" in hit
        assert ";   vectorize " not in hit

    def test_guarded_compile_clean(self, fig3_file, capsys):
        assert main(["compile", fig3_file, "--guard", "--emit-ir"]) == 0
        out = capsys.readouterr()
        assert "guarded compile: requested SN-SLP, used SN-SLP" in out.err
        assert "<2 x i64>" in out.out  # still vectorized on the clean path

    def test_guarded_compile_bad_ladder_is_usage_error(self, fig3_file, capsys):
        code = main(["compile", fig3_file, "--guard", "--ladder", "SN-SLP,warp9"])
        assert code == 2
        assert "unknown vectorizer config" in capsys.readouterr().err


class TestRun:
    def test_run_prints_buffers(self, fig3_file, capsys):
        assert main(["run", fig3_file, "--n", "8", "--show", "4"]) == 0
        out = capsys.readouterr().out
        assert "cycles:" in out
        assert "@A[:4]" in out

    def test_kernel_selection_required_when_ambiguous(self, tmp_path, capsys):
        path = tmp_path / "two.sn"
        path.write_text(TWO_KERNELS)
        assert main(["run", str(path)]) == 2
        assert "pick one with --kernel" in capsys.readouterr().err
        assert main(["run", str(path), "--kernel", "one"]) == 0

    def test_unknown_kernel_is_usage_error(self, fig3_file, capsys):
        assert main(["run", fig3_file, "--kernel", "nope"]) == 2

    def test_max_steps_watchdog_exit_code(self, fig3_file, capsys):
        assert main(["run", fig3_file, "--n", "64", "--max-steps", "10"]) == 5
        assert "execution budget exceeded" in capsys.readouterr().err

    def test_seed_determinism(self, fig3_file, capsys):
        main(["run", fig3_file, "--seed", "7"])
        first = capsys.readouterr().out
        main(["run", fig3_file, "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second


class TestCompare:
    def test_compare_all_configs(self, fig3_file, capsys):
        assert main(["compare", fig3_file, "--n", "128"]) == 0
        out = capsys.readouterr().out
        for name in ("O3", "SLP", "LSLP", "SN-SLP"):
            assert name in out
        # SN-SLP must show a speedup and correctness
        snslp_line = next(l for l in out.splitlines() if l.startswith("SN-SLP"))
        assert "True" in snslp_line

    def test_compare_judges_floats_by_the_oracle_ulp_rule(
        self, tmp_path, monkeypatch, capsys
    ):
        """An output of magnitude 1e6 that is 100,000 ULPs (about 1e-11
        relative) off O3's is a mismatch under the fuzz oracle's
        4096-ULP rule, though a 1e-9 relative tolerance would pass it."""
        path = tmp_path / "big.sn"
        path.write_text("double A[4]; double B[4];\nkernel k(n) { A[0] = B[0] + 1000000.0; }\n")
        simulate = cli.simulate
        calls = []

        def perturb_last_config(*args, **kwargs):
            result = simulate(*args, **kwargs)
            calls.append(result)
            if len(calls) == len(cli.ALL_CONFIGS):  # O3, the baseline, runs first
                out = result.globals_after["A"]
                bits = struct.unpack("<q", struct.pack("<d", out[0]))[0]
                out[0] = struct.unpack("<d", struct.pack("<q", bits + 100_000))[0]
            return result

        monkeypatch.setattr(cli, "simulate", perturb_last_config)
        assert main(["compare", str(path), "--n", "1"]) == EXIT_MISMATCH
        rows = capsys.readouterr().out.splitlines()
        assert "False" in next(l for l in rows if l.startswith("SN-SLP"))
        assert "True" in next(l for l in rows if l.startswith("LSLP"))


class TestReport:
    def test_report_shows_graphs_and_nodes(self, fig3_file, capsys):
        assert main(["report", fig3_file, "--config", "sn-slp"]) == 0
        out = capsys.readouterr().out
        assert "graphs vectorized: 1" in out
        assert "super-node" in out

    def test_report_lslp_shows_unprofitable(self, fig3_file, capsys):
        assert main(["report", fig3_file, "--config", "lslp"]) == 0
        out = capsys.readouterr().out
        assert "not profitable" in out


class TestUnrollFlag:
    def test_unroll_enables_vectorization_from_cli(self, tmp_path, capsys):
        path = tmp_path / "step1.sn"
        path.write_text(
            "long A[256]; long B[256]; long C[256]; long D[256];\n"
            "kernel k(n) {\n"
            "  for (i = 0; i < n; i += 1) { A[i] = B[i] - C[i] + D[i]; }\n"
            "}\n"
        )
        assert main(["compare", str(path), "--n", "100"]) == 0
        plain = capsys.readouterr().out
        assert main(["compare", str(path), "--n", "100", "--unroll", "4"]) == 0
        unrolled = capsys.readouterr().out
        plain_snslp = next(l for l in plain.splitlines() if l.startswith("SN-SLP"))
        unrolled_snslp = next(
            l for l in unrolled.splitlines() if l.startswith("SN-SLP")
        )
        assert " 0 " in plain_snslp.replace("    ", " ")
        assert "True" in unrolled_snslp


class TestTextualIRInput:
    def test_ir_file_loads_and_runs(self, tmp_path, capsys):
        # emit vectorized IR from source, then feed the .ir back in
        src = tmp_path / "k.sn"
        src.write_text(FIG3)
        assert main(["compile", str(src), "--emit-ir"]) == 0
        text = capsys.readouterr().out
        ir_file = tmp_path / "k.ir"
        ir_file.write_text(text)
        assert main(["run", str(ir_file), "--n", "8", "--show", "2"]) == 0
        out = capsys.readouterr().out
        assert "cycles:" in out

    def test_malformed_ir_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ir"
        bad.write_text("module m\nfunc @f() -> void {\nentry:\n  bogus\n}\n")
        assert main(["compile", str(bad)]) == 2
        assert capsys.readouterr().err  # the parse diagnostic surfaced


class TestBisectCommand:
    def test_bisect_clean_module(self, fig3_file, capsys):
        assert main(["bisect", fig3_file, "--n", "64", "--decisions"]) == 0
        out = capsys.readouterr().out
        assert "gated decision(s)" in out
        assert "did not reproduce" in out
        assert "slp store-graph" in out


class TestInjectionSmoke:
    """``repro chaos`` is the fault-injection campaign: every armed fault
    must fire, and none may escape recovery."""

    def test_inject_campaign_via_cli(self, capsys):
        assert main(
            ["chaos", "--budget", "8", "--fuzz-programs", "4", "--seed", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "0 unexercised" in out
        assert "0 escaped" in out

    def test_unfired_fault_fails_the_campaign(self, capsys, monkeypatch):
        from repro.serve import chaos

        unreachable = chaos.ChaosScenario(
            "respawn-unreached", "serve.respawn", "raise", "bench"
        )
        monkeypatch.setattr(chaos, "chaos_scenarios", lambda: [unreachable])
        argv = ["chaos", "--budget", "1", "--kernel", "motiv-leaf-reorder"]
        assert main(argv) == 6
        assert "[unexercised] respawn-unreached" in capsys.readouterr().out
