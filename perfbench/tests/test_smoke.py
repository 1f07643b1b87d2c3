"""Tests of the benchmark harness, on the tiny ``--smoke`` sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spec import END_TO_END, WHY, per_layer_spec  # noqa: E402

WORKLOADS = tuple(WHY)


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(BENCH / "run.py"), "--seed", "3", "--seconds", "1", *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_matches_the_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert any(m["name"] == "setup_s" and m["better"] == "lower" for m in doc["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == per_layer_spec()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_run_is_correct(workload):
    result = result_of(run_bench("--workload", workload, "--trace", "0", "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert [name for name, _ in END_TO_END] == list(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_reports_every_layer(workload):
    result = result_of(run_bench("--workload", workload, "--trace", "1", "--smoke"))
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == [name for name, _, _ in per_layer_spec(smoke=True)]
    assert metrics["trace.artifacts_identical"] == 1.0
    assert metrics["code.src_lines"] > 0 and metrics["code.public_names"] > 0


def test_traced_event_counts_repeat_exactly():
    runs = [
        result_of(run_bench("--workload", "ensemble_large", "--trace", "1", "--smoke"))
        for _ in range(2)
    ]
    counted = [
        {k: m["value"] for k, m in r["metrics"].items() if k.startswith("ctmc.") and "events" in k}
        for r in runs
    ]
    assert counted[0] == counted[1]
    assert counted[0]["ctmc.simulate.events"] > 0 and counted[0]["ctmc.simulate_branching.events"] > 0


def test_injected_fault_shows_up_in_failed_ops():
    proc = run_bench("--workload", "verify_grid", "--trace", "0", "--smoke", "--inject-fault")
    result = result_of(proc)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert "exit code 1" in proc.stdout


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "verify_grid", "--seed", "1",
           "--seconds", "1", "--trace", "0"]  # fmt: skip
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
