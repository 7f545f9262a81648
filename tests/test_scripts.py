"""Smoke tests of scripts/: each seed-sweep script runs the scenario
engine end to end and must exit 0 on a few seeds, and the benchmark pair
runner must summarise one pair of short runs, and count a run that
crashes as failed."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script, seeds", [("run_benign.py", "2"), ("run_attacks.py", "1")])
def test_sweep_script_exits_zero(script, seeds):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), seeds],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_bench_pairs_compares_a_tree_with_itself():
    """One pair of sub-second benchmark runs of this checkout's src/
    against itself: every end-to-end metric is summarised for both
    sides, and no run fails."""
    src = os.path.join(ROOT, "src")
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "bench_pairs.py"), src, src,
         "--workload", "fleet-telemetry", "--seeds", "5", "--seconds", "0.3"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {metric["name"] for metric in json.load(fh)["end_to_end"]}
    assert set(out["end_to_end"]) == names
    assert out["failed_runs"] == {"a": 0, "b": 0} and [run["seed"] for run in out["runs"]] == [5]
    for summary in out["end_to_end"].values():
        assert summary["a"]["n"] == summary["b"]["n"] == 1
        assert summary["a"]["q1"] == summary["a"]["median"] == summary["a"]["q3"]
        assert summary["b_better_pairs"] + summary["b_worse_pairs"] <= 1


def test_bench_pairs_counts_a_crashed_run_as_failed(tmp_path):
    """One pair against a copy of src/ whose package raises on import:
    the runner still prints its summary, with B's run failed and A's
    measured."""
    src = os.path.join(ROOT, "src")
    broken = tmp_path / "src"
    shutil.copytree(src, broken, ignore=shutil.ignore_patterns("__pycache__"))
    with open(broken / "avledger" / "__init__.py", "a", encoding="utf-8") as fh:
        fh.write('\nraise RuntimeError("broken on purpose")\n')
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "bench_pairs.py"), src, str(broken),
         "--workload", "fleet-telemetry", "--seeds", "5", "--seconds", "0.3"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["failed_runs"] == {"a": 0, "b": 1}
    [run] = out["runs"]
    assert run["a"]["correct"] is True and run["b"] == {"correct": False, "exit_code": 1, "metrics": {}}
