#!/usr/bin/env python3
"""Print one deterministic line per monitored run, to compare two trees.

Each line names the run and gives the monitor's verdict on it: whether it
is feasible, the probability as ``float.hex``, the sorted belief
propositions satisfied at each step, ``dp_pairs`` and ``consistent_paths``.
The runs are

* the rescue study's trials at master seed 2024 and horizon 16, under both
  policies (2 x 250 runs);
* random walks on ``grid_walk`` at horizon 30, where the path counts pass
  2^62, each against two formulas (40 runs);
* random ``random_pomdp`` instances with a random formula and run (400);
* a threshold sweep, as ``dtlmon sweep`` runs one: rescue configs whose
  ``p1``, ``p2``, ``h1`` and ``h2`` are drawn from a fixed seed, each
  built with ``build_rescue`` and monitored over one batch of four study
  runs, simulated once and shared by every config (120 configs x 4 runs).

The generators come from ``tests/helpers.py``.  ``dtlmon`` is imported from
``PYTHONPATH`` first and else from this tree's ``src``, so the same script
digests any tree:

    python scripts/output_digest.py > new.txt
    PYTHONPATH=/path/to/other/src python scripts/output_digest.py > old.txt
    cmp old.txt new.txt

``--limit N`` cuts every input set to its first N runs (the sweep to its
first N configs).
"""

import argparse
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.append(str(ROOT / "src"))  # after the PYTHONPATH entries, which win

from dtlmon import RandomActionPolicy, acceptance_probability, parse_formula, simulate  # noqa: E402
from dtlmon.errors import DtlmonError  # noqa: E402
from dtlmon.studies import RescueParams, build_rescue, rescue_policies, trial_seed  # noqa: E402
from helpers import grid_walk, random_cosafe_formula, random_execution, random_pomdp  # noqa: E402

RESCUE_TRIALS, RESCUE_HORIZON, RESCUE_SEED = 250, 16, 2024
GRID_RUNS, GRID_HORIZON = 20, 30
GRID_FORMULAS = ("F in(corner)", "!in(corner) U X in(corner)")
RANDOM_RUNS = 400
SWEEP_CONFIGS, SWEEP_BATCH, SWEEP_SEED = 120, 4, 29


def digest(name: str, pomdp, formula, execution) -> str:
    try:
        report = acceptance_probability(pomdp, formula, execution)
    except DtlmonError as exc:
        return f"{name} error={type(exc).__name__}"
    labels = [sorted(label) for label in report.step_labels]
    diagnostics = report.diagnostics
    return (
        f"{name} feasible={report.feasible} p={report.probability.hex()} labels={labels}"
        f" dp_pairs={diagnostics['dp_pairs']} paths={hex(diagnostics['consistent_paths'])}"
    )


def runs(limit: int):
    pomdp, formula = build_rescue()
    for policy_name, policy in rescue_policies().items():
        for k in range(min(limit, RESCUE_TRIALS)):
            _, execution = simulate(pomdp, policy, RESCUE_HORIZON, trial_seed(RESCUE_SEED, k))
            yield f"rescue/{policy_name}/{k}", pomdp, formula, execution

    grid = grid_walk()
    formulas = [parse_formula(text, grid) for text in GRID_FORMULAS]
    for seed in range(min(limit, GRID_RUNS)):
        _, execution = simulate(grid, RandomActionPolicy(), GRID_HORIZON, seed)
        for f, formula in enumerate(formulas):
            yield f"grid/{seed}/{f}", grid, formula, execution

    for seed in range(min(limit, RANDOM_RUNS)):
        rng = random.Random(seed)
        pomdp = random_pomdp(rng)
        formula = random_cosafe_formula(rng, pomdp)
        yield f"random/{seed}", pomdp, formula, random_execution(pomdp, rng)

    rescue, _ = build_rescue()
    policies = list(rescue_policies().values())
    batch = [
        simulate(rescue, policies[k % 2], RESCUE_HORIZON, trial_seed(RESCUE_SEED, k // 2))[1]
        for k in range(SWEEP_BATCH)
    ]
    rng = random.Random(SWEEP_SEED)
    for k in range(min(limit, SWEEP_CONFIGS)):
        params = RescueParams(
            p1=round(rng.uniform(0.50, 0.99), 3),
            p2=round(rng.uniform(0.05, 0.60), 3),
            h1=round(rng.uniform(0.05, 0.95), 3),
            h2=round(rng.uniform(0.05, 0.95), 3),
        )
        sweep_pomdp, formula = build_rescue(params)
        for j, execution in enumerate(batch):
            yield f"sweep/{k}/{j}", sweep_pomdp, formula, execution


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--limit", type=int, default=max(RESCUE_TRIALS, RANDOM_RUNS, SWEEP_CONFIGS),
                        help="runs per input set (default: all)")
    args = parser.parse_args()
    for run in runs(args.limit):
        print(digest(*run))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
