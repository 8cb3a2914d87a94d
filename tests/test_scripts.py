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


def test_behrend_density_reaches_dim_8():
    # Dim 8 lifts to |S| = 154,140,672; the counts never need S itself.
    # Sphere sets are progression-free, so every progression stays in one
    # residue and the count is |X| * (ceil(c/2)^2 + floor(c/2)^2).
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "behrend_density.py"),
         "--max-dim", "8", "--guard", "1000000000"],
        capture_output=True, text=True, cwd=ROOT, env=subprocess_env(), timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [[int(v) for i, v in enumerate(line.split()) if i != 5]
            for line in done.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == list(range(1, 9))
    for dim, m, size, n, lifted, ap3, nontrivial, ceiling in rows:
        blocks = n // (2 * m)
        assert (m, n % (2 * m), lifted) == (5**dim, 0, size * blocks)
        assert ap3 == size * (((blocks + 1) // 2) ** 2 + (blocks // 2) ** 2)
        assert nontrivial == ap3 - lifted
        assert ceiling == lifted**3 // (m * m) >= ap3
    assert rows[-1][1:5] == [390625, 588, 204_800_000_000, 154_140_672]


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
