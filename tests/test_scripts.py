"""Smoke test of the seed-sweep drivers in scripts/: each drives the
scenario engine end to end and must exit 0 on a few seeds."""

import os
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
