"""Self-test of the end-to-end benchmark, run by path (tier-1 does not collect it):

    python -m pytest benchmarks/e2e/test_e2e.py -q

Three ``run.py --quick`` invocations (1/20 of the default work) cover the
metric contract, correctness and determinism; ``compare.py`` is checked on
hand-made run files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, SPEC_PATH, WORKLOADS, load_spec  # noqa: E402
from server import WORK_DIR  # noqa: E402

import compare  # noqa: E402

SEED = 7
#: values that must repeat exactly between two runs at one seed
DETERMINISTIC = (
    "speedup_geomean",
    "supernode.moves_probed",
    "supernode.moves_rejected_apo",
    "supernode.leaf_moves",
    "supernode.trunk_moves",
    "supernode.nodes_formed",
    "slp.vectorized_ratio",
)


def run_quick(out: Path, *extra: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", str(SEED),
         "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return json.loads(out.read_text()), last


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return {
        "first": run_quick(tmp / "first.json"),
        "second": run_quick(tmp / "second.json"),
        "traced": run_quick(tmp / "traced.json", "--trace", "1"),
    }


def test_every_metric_is_emitted_with_its_unit(runs):
    spec = load_spec()
    for run, section in (("first", "end_to_end"), ("traced", "per_layer")):
        doc, last = runs[run]
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        expected = {
            f"{w}:{m['name']}": m["unit"] for w in WORKLOADS for m in spec[section]
        }
        assert {name: entry["unit"] for name, entry in last["metrics"].items()} == expected
        for workload in WORKLOADS:
            metrics = doc["workloads"][workload]["metrics"]
            for entry in spec[section]:
                assert metrics[entry["name"]]["unit"] == entry["unit"]
                assert isinstance(metrics[entry["name"]]["value"], float)


def test_no_op_fails(runs):
    for doc, last in runs.values():
        assert last["correct"] is True and last["failed"] == 0
        for workload in WORKLOADS:
            entry = doc["workloads"][workload]
            assert entry["failed"] == 0, entry["failures"]
            if "failed_ratio" in entry["metrics"]:
                assert entry["metrics"]["failed_ratio"]["value"] == 0.0


def test_two_runs_at_one_seed_agree_on_deterministic_values(runs):
    first, second = runs["first"][0], runs["second"][0]
    for workload in WORKLOADS:
        a = first["workloads"][workload]
        b = second["workloads"][workload]
        assert a["attempted"] == b["attempted"]
        assert a["metrics"]["ops"]["value"] == b["metrics"]["ops"]["value"]
        for name in DETERMINISTIC:
            assert a["metrics"][name]["value"] == b["metrics"][name]["value"], (workload, name)
    a, b = first["workloads"]["serve-mixed"], second["workloads"]["serve-mixed"]
    assert a["request_mix"] == b["request_mix"]
    # Every repeat hits and every fresh request misses.
    assert a["metrics"]["serve.cache_hit_ratio"]["value"] == pytest.approx(1 / 3, abs=1e-12)
    assert b["metrics"]["serve.cache_hit_ratio"]["value"] == pytest.approx(1 / 3, abs=1e-12)


def test_suite_speedup_is_the_figure5_geomean(runs):
    # The committed Figure 5 SN-SLP geomean; simulated cycles do not depend
    # on the input values, so the seed does not change it.
    value = runs["first"][0]["workloads"]["suite"]["metrics"]["speedup_geomean"]["value"]
    assert round(value, 6) == 1.836108


def test_serve_mixed_leaves_no_worker_or_socket_behind(runs):
    for doc, _ in runs.values():
        entry = doc["workloads"]["serve-mixed"]
        assert entry["leftovers"] == []
        assert entry["worker_pids"]
        for pid in entry["worker_pids"]:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
    assert not WORK_DIR.exists() or not any(WORK_DIR.glob("serve-*"))


def test_traced_spans_cover_the_op_time(runs):
    doc, _ = runs["traced"]
    for workload in WORKLOADS:
        layers = doc["workloads"][workload]["layers"]
        assert layers["span_coverage"] >= 0.9, workload
        assert layers["trace_overhead"] > 0
        assert any(row["source"] == "program" for row in layers["spans"]) or (
            workload == "serve-mixed"  # its layers come from client timing only
        )


def test_benchmark_fails_without_the_program(tmp_path):
    spec = load_spec()
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        spec["command"] + ["--workload", "suite", "--seed", "1",
                           "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def write_run(path: Path, workload: str, values):
    doc = {"workloads": {workload: {"metrics": {
        name: {"value": value, "unit": "x"} for name, value in values.items()
    }}}}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "workload, a, b, raw_b, verdict",
    [
        ("suite", [100, 101, 99], [100, 100.5, 99.5], None, "same"),
        ("suite", [100, 101, 99], [130, 131, 129], None, "better"),  # higher is better
        ("suite", [100, 101, 99], [70, 71, 69], None, "worse"),
        ("suite", [100, 150, 60], [90, 140, 50], None, "unresolved"),
        ("suite", [100, 101, 99], [88, 89, 87], None, "worse"),  # past the 10% bound
        ("serve-mixed", [100, 101, 99], [88, 89, 87], None, "same"),  # within its 15%
        # rescaled the same, but the clock shows a plain slowdown
        ("suite", [100, 101, 99], [100, 100.5, 99.5], [70, 71, 69], "unresolved"),
    ],
)
def test_compare_verdicts(tmp_path, workload, a, b, raw_b, verdict):
    def runs(side, values, raw):
        return [
            write_run(tmp_path / f"{side}{i}.json", workload,
                      {"ops_per_s": v, "raw.ops_per_s": r})
            for i, (v, r) in enumerate(zip(values, raw))
        ]

    a_paths, b_paths = runs("a", a, a), runs("b", b, raw_b or b)
    table = compare.compare(a_paths, b_paths)
    assert table[workload]["ops_per_s"]["verdict"] == verdict
    assert compare.main(a_paths + ["--"] + b_paths) == (1 if verdict == "worse" else 0)
