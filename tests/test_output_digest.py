"""The output digest names every run once and prints the same lines on
every invocation."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _digest() -> str:
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digest.py"), "--limit", "3"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_digest_is_deterministic():
    first = _digest()
    lines = first.splitlines()
    # Two rescue policies, two grid formulas and one random set.
    assert len(lines) == 2 * 3 + 3 * 2 + 3
    assert len({line.split()[0] for line in lines}) == len(lines)
    assert all(" feasible=" in line and " paths=0x" in line for line in lines)
    assert _digest() == first
