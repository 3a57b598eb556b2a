"""The output digest names every run once, prints the same lines on
every invocation, and matches the checked-in digest byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

from helpers import PIN_ENVIRONMENT

ROOT = Path(__file__).resolve().parent.parent
# ``--limit 3`` output of the tree before the last intended output change.
# A change that moves an output on purpose regenerates this file with
# ``PYTHONPATH=src python scripts/output_digest.py --limit 3`` and lists the
# moved lines in CHANGES.md.
PINNED = ROOT / "tests" / "data" / "output_digest_limit3.txt"


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
    # Two rescue policies, two grid formulas, one random set, and a sweep
    # of three configs over four runs.
    assert len(lines) == 2 * 3 + 3 * 2 + 3 + 3 * 4
    assert len({line.split()[0] for line in lines}) == len(lines)
    assert all(" feasible=" in line and " paths=0x" in line for line in lines)
    assert _digest() == first


def test_digest_matches_pinned_file():
    assert _digest() == PINNED.read_text(encoding="utf-8"), PIN_ENVIRONMENT
