#!/usr/bin/env python3
"""Paired benchmark runs of two source checkouts, written as a BENCH file.

For every workload and seed, ``bench/run.py`` runs once in each checkout,
one run after the other and never two at once.  Which checkout runs first
alternates from seed to seed, starting with the parent.  The result is a
JSON document in the layout of the ``BENCH_*.json`` files at the root of
the repository: per workload and end-to-end metric, each side's median,
inclusive-method quartiles and runs, the number of pairs the change won,
the ratio of the medians, and the gap between the medians over the
parent's interquartile range (positive when the change is better).

    python3 scripts/bench_pairs.py --parent ../old --change . \\
        --workloads rescue_study dense_check --seeds 301-310 \\
        --title "What the change does" --parent-rev 1a2b3c4 \\
        --claim rescue_study:ops_per_s --out BENCH_example.json

The document is rewritten after every pair, so an interrupted session
keeps the pairs it finished.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN_TIMEOUT_S = 900.0  # a run of bench/run.py that takes longer than this has hung


def _seeds(text: str) -> list[int]:
    """``"1-3,7"`` -> ``[1, 2, 3, 7]``."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(
        cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _side(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(x, 4) for x in runs]}


def _metric(spec: dict, parent: list[float], change: list[float]) -> dict:
    higher = spec["better"] == "higher"
    won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    entry = {"unit": spec["unit"], "better": spec["better"], "change_better_pairs": won}
    if len(parent) < 2:
        return {**entry, "parent": {"runs": parent}, "change": {"runs": change}}
    p, c = _side(parent), _side(change)
    gap = (c["median"] - p["median"]) if higher else (p["median"] - c["median"])
    iqr = p["q3"] - p["q1"]
    return {
        **entry,
        "parent": p,
        "change": c,
        "median_ratio": round(c["median"] / p["median"], 4) if p["median"] else None,
        "median_gap_over_parent_iqr": round(gap / iqr, 2) if iqr else None,
    }


def _workload_entry(specs: list[dict], seeds: list[int], runs: list[tuple[dict, dict]]) -> dict:
    return {
        "seeds": seeds[: len(runs)],
        "pairs": len(runs),
        "all_correct": all(p["correct"] and c["correct"] for p, c in runs),
        "failed": [sum(p["failed"] for p, _ in runs), sum(c["failed"] for _, c in runs)],
        "metrics": {
            spec["name"]: _metric(
                spec,
                [p["metrics"][spec["name"]]["value"] for p, _ in runs],
                [c["metrics"][spec["name"]]["value"] for _, c in runs],
            )
            for spec in specs
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 301-310 or 5,9,12")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--title", default="")
    parser.add_argument("--parent-rev", default="", help="the parent's commit, for the record")
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims to improve")
    args = parser.parse_args(argv)

    specs = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {
        "title": args.title,
        "parent": args.parent_rev,
        "command": "python3 bench/run.py --workload W --seed S --trace 0",
        "method": (
            "Each side is a checkout of its tree. One parent run and one change run per seed, "
            "back to back; which side runs first alternates from seed to seed, starting with "
            "the parent. Workloads run one after another, never two runs at once. Quartiles "
            f"are the inclusive-method quartiles of the runs per side. Seeds: {args.seeds}."
        ),
        "environment": (
            f"Python {platform.python_version()}, {platform.machine()}, "
            f"{os.cpu_count()} CPUs, no machine tuning"
        ),
        "workloads": {},
    }
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        doc["claimed"] = {"workload": workload, "metric": metric}
    for workload in args.workloads:
        runs: list[tuple[dict, dict]] = []
        for k, seed in enumerate(args.seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            result = {}
            for side in order:
                start = time.perf_counter()
                result[side] = _run(sides[side], workload, seed)
                print(
                    f"bench_pairs: {workload} seed {seed} {side}: "
                    f"{json.dumps({m: v['value'] for m, v in result[side]['metrics'].items()})} "
                    f"({time.perf_counter() - start:.0f} s)",
                    file=sys.stderr,
                )
            runs.append((result["parent"], result["change"]))
            doc["workloads"][workload] = _workload_entry(specs, args.seeds, runs)
            args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
