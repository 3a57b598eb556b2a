#!/usr/bin/env python3
"""Reproduce both bundled case studies and print a comparison table.

Equivalent to `dtlmon casestudy mht ...` followed by `dtlmon casestudy
rescue ...`, as a single script with a compact console summary.  The
rescue study runs once, with the prior mode passed in a config file
written to the output directory, and the table is read back from the
`comparison.json` it writes.
"""

import argparse
import json
from pathlib import Path

from dtlmon.cli import main as cli_main


def fmt(x, width=9):
    if x is None:
        return " " * (width - 3) + "n/a"
    return f"{x:>{width}.3f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="study_out", help="output directory")
    parser.add_argument("--trials", type=int, default=250)
    parser.add_argument("--horizon", type=int, default=16)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--prior-mode", default="safe_somewhere",
                        choices=["safe_somewhere", "uniform"])
    args = parser.parse_args()

    out = Path(args.out)
    code = cli_main(["casestudy", "mht", "--out", str(out / "mht")])
    if code != 0:
        return code

    config = out / "rescue_config.json"
    config.write_text(json.dumps({"prior_mode": args.prior_mode}) + "\n", encoding="utf-8")
    code = cli_main(
        ["casestudy", "rescue", "--out", str(out / "rescue"),
         "--trials", str(args.trials), "--horizon", str(args.horizon),
         "--seed", str(args.seed), "--config", str(config)]
    )
    if code != 0:
        return code

    comparison = json.loads((out / "rescue" / "comparison.json").read_text(encoding="utf-8"))
    print()
    print(f"rescue study: {comparison['trials']} trials, horizon {comparison['horizon']}, "
          f"seed {comparison['master_seed']}, prior {comparison['prior_mode']}")
    header = f"{'policy':<16}{'E[prob]':>9}{'var':>9}{'E[H] bits':>10}{'var H':>9}" \
             f"{'success':>9}{'pearson r':>10}"
    print(header)
    print("-" * len(header))
    for name, s in comparison["policies"].items():
        print(
            f"{name:<16}{fmt(s['mean_prob'])}{fmt(s['var_prob'])}{fmt(s['mean_entropy'], 10)}"
            f"{fmt(s['var_entropy'])}{fmt(s['success_rate'])}{fmt(s['pearson_r'], 10)}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
