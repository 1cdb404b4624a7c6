"""Tests of the benchmark harness itself, at smoke budgets.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(args, cwd):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_declared_metric(workload, trace, tmp_path):
    spec = _spec()
    assert workload in [w["name"] for w in spec["workloads"]]
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
                 "--smoke", "--out-dir", str(tmp_path)], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    if trace and workload == "o5_brockett":
        # 10 DRGD steps per run: 2 oracle calls per step plus the final
        # evaluation; one finite-difference Jacobian per exact-adapter call
        assert result["metrics"]["oracles.mixture.calls_per_step"]["value"] == 21 / 10
        assert result["metrics"]["linalg.fd_jacobian_calls"]["value"] == 11


def test_corrupted_artifact_is_counted_as_a_failure(tmp_path):
    work_dir = str(tmp_path / "o5")
    workload = WORKLOADS["o5_brockett"](3, work_dir, smoke=True)

    def corrupt(rep, call):
        if rep == 1 and call.key == "drgd_exact":
            with open(os.path.join(call.out_dir, "run.csv"), "a") as fh:
                fh.write("0\n")

    result = harness.run_workload(workload, work_dir, seconds=0, trace=False, on_artifacts=corrupt)
    assert result["failed"] == 1
    (problems,) = result["problems"].values()
    assert any("run.csv has" in p for p in problems)
    assert any("artifacts differ" in p and "run.csv" in p for p in problems)


def test_without_source_tree_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(["--workload", "o5_brockett", "--seed", "0", "--seconds", "1", "--trace", "0"],
                str(tmp_path))
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_trace_checks_fire_on_bad_nesting_and_changed_counts():
    import numpy as np
    import tracing

    names = ["cli:run_cli", "optim:drgd_run"]
    spans = {  # invocation 0: the child ends after its parent; invocation 1: two roots
        "code": np.array([0, 1, 0, 1], dtype=np.int32),
        "parent": np.array([-1, 0, -1, -1], dtype=np.int32),
        "invocation": np.array([0, 0, 1, 1], dtype=np.int32),
        "start": np.array([0.0, 0.1, 2.0, 3.0]),
        "end": np.array([1.0, 1.5, 2.5, 3.5]),
    }
    problems = tracing.SpanTable(names, spans).invocation_consistency()
    assert sorted(k for k, _ in problems) == [0, 1]

    outcome = harness.Outcome(reps=[{"traced": True}, {"traced": True}])
    counts = {name: (1.0, "count", "") for name in harness.EXACT_COUNTS}
    changed = dict(counts, **{"control.rollout_calls": (2.0, "count", "")})
    harness._check_exact_counts([counts, counts], outcome, "last")
    assert outcome.failed == 0
    harness._check_exact_counts([counts, changed], outcome, "last")
    assert outcome.failed == 1 and "control.rollout_calls" in outcome.problems[(1, "last")][0]
