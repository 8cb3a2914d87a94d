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


def test_behrend_density_reaches_dim_5():
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "behrend_density.py"),
         "--max-dim", "5", "--guard", "2000000"],
        capture_output=True, text=True, cwd=ROOT, env=subprocess_env(), timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    rows = {row[0]: row for row in (line.split() for line in done.stdout.splitlines()[1:])}
    assert sorted(rows) == ["1", "2", "3", "4", "5"]
    m, size, n, lifted, ap3, nontrivial = (int(rows["5"][i]) for i in (1, 2, 3, 4, 6, 7))
    blocks = n // (2 * m)
    assert (m, lifted) == (3125, size * blocks)
    # Sphere sets are progression-free, so every progression stays in one
    # residue and the count is |X| * (ceil(c/2)^2 + floor(c/2)^2).
    assert ap3 == size * (((blocks + 1) // 2) ** 2 + (blocks // 2) ** 2)
    assert nontrivial == ap3 - lifted


def test_removal_thresholds_default_output():
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "removal_thresholds.py")],
        capture_output=True, text=True, cwd=ROOT, env=subprocess_env(), timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == (
        "system systems/triangle.sys: q=5 p=3 ell=1\n"
        "size  mean_eps mean_delta max_delta  free%\n"
        "   1    0.0400     0.2000    0.2000    92%\n"
        "   2    0.0697     0.2000    0.2000    12%\n"
        "   3    0.2190     0.2450    0.4000     0%\n"
        "   4    0.5130     0.4000    0.4000     0%\n"
        "   5    1.0000     0.6000    0.6000     0%\n"
    )
