"""Smoke test: each experiment script runs to completion on a small input."""

import os
import subprocess
import sys

import pytest

from conftest import subprocess_env

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script, args",
    [
        ("copy_identity_scan.py", ["--seed", "7", "--count", "20"]),
        ("removal_thresholds.py", []),
        ("behrend_density.py", []),
    ],
)
def test_script_exits_zero(script, args):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True, text=True, cwd=ROOT, env=subprocess_env(), timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout
