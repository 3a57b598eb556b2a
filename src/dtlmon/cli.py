"""Command-line interface.

Subcommands: ``check`` (monitor a recorded trace), ``sweep`` (monitor
recorded traces under several configs), ``simulate`` (seeded Monte Carlo
trials of a policy, with per-trial CSV and a summary JSON),
``compile`` (export a formula's automaton), and ``casestudy`` (reproduce a
bundled study end to end).  All outputs are deterministic functions of the
inputs and seeds.  Exit codes: 0 ok, 1 error, 2 infeasible under
``--strict`` (a usage error exits 1 too).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .automaton import export_dot, export_json_dict
from .errors import DtlmonError, ModelError
from .logic import formula_text, load_formula
from .model import (
    Pomdp,
    RandomActionPolicy,
    is_number,
    load_json,
    load_model,
    save_json,
    save_model,
    simulate,
)
from .monitor import (
    DEFAULT_ORACLE_CAP,
    acceptance_probability,
    acceptance_probability_oracle,
    compile_monitor,
    load_trace,
    save_trace,
)
from .studies import (
    MhtThresholdPolicy,
    RescueParams,
    StudyStats,
    TrialRecord,
    build_mht,
    build_rescue,
    mht_reference_trace,
    mht_success_fn,
    monte_carlo,
    rescue_policies,
    rescue_success_fn,
    run_rescue_study,
)

SEED_ENV_VAR = "DTLMON_SEED"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2

ORACLE_AGREEMENT_TOL = 1e-9

MHT_DEFAULTS = {"p1": 0.25, "p2": 0.5, "p3": 0.75, "h": 0.8}

# Config keys passed on to ``studies.rescue_policies``.
RESCUE_POLICY_KEYS = ("share_a", "h3", "h4", "rho")

# The config keys that change each bundled study's model or formula.
STUDY_KEYS = {
    "rescue": {*RescueParams.__dataclass_fields__, "prior_mode"},
    "mht": {*MHT_DEFAULTS, "eventually"},
}
# The config keys each ``simulate`` policy reads.
POLICY_KEYS = {
    "timeshare": {"p1", "p2", "share_a"},
    "entropy-cutoff": {"p1", "p2", "h3", "h4", "rho"},
    "mht-threshold": {"h"},
    "random": set(),
}
# The config keys each ``casestudy`` reads.
CASESTUDY_KEYS = {
    "rescue": {*STUDY_KEYS["rescue"], *RESCUE_POLICY_KEYS, "entropy_factor"},
    "mht": STUDY_KEYS["mht"],
}


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    try:
        return int(raw) if raw else 0
    except ValueError:
        raise ModelError(f"{SEED_ENV_VAR} must be an integer, not {raw!r}") from None


def _load_config(path: str | None, study: str | None, keys) -> dict:
    """The config file's overrides, each of whose keys must be in ``keys``,
    the keys that can change the command's output."""
    if not path:
        return {}
    config = load_json(path, "config")
    if not isinstance(config, dict):
        raise ModelError(f"config file {path!r} must hold a JSON object")
    for key in config:
        if key not in keys:
            raise ModelError(f"unknown config key {key!r} for {study or 'a model file'}")
    return config


def _numbers(config: dict, keys) -> dict:
    """The config's entries for ``keys``, each of which must be a number."""
    picked = {k: config[k] for k in keys if k in config}
    for k, v in picked.items():
        if not is_number(v):
            raise ModelError(f"config value {k!r} must be a number, not {v!r}")
    return picked


def _rescue_params(config: dict) -> RescueParams:
    return RescueParams(**_numbers(config, RescueParams.__dataclass_fields__))


def _mht_settings(config: dict) -> dict:
    return {**MHT_DEFAULTS, **_numbers(config, MHT_DEFAULTS)}


def _build_study(study: str, config: dict):
    """Model and formula of a bundled study, with the config's overrides."""
    if study == "mht":
        eventually = config.get("eventually", False)
        if not isinstance(eventually, bool):
            raise ModelError(f"config value 'eventually' must be true or false, not {eventually!r}")
        return build_mht(**_mht_settings(config), eventually=eventually)
    return build_rescue(
        _rescue_params(config), prior_mode=config.get("prior_mode", "safe_somewhere")
    )


def _resolve_model_formula(args, config: dict):
    """Model and formula from --casestudy or from explicit files."""
    if args.casestudy:
        pomdp, formula = _build_study(args.casestudy, config)
        if args.formula:
            formula = load_formula(args.formula, pomdp)
        return pomdp, formula
    if not args.model:
        raise DtlmonError("either --model or --casestudy is required")
    pomdp = load_model(args.model)
    if not args.formula:
        raise DtlmonError("--formula is required with --model")
    return pomdp, load_formula(args.formula, pomdp)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- check -------------------------------------------------------------------------


def _checked_oracle(pomdp: Pomdp, formula, execution, report, cap: int) -> float:
    """The enumeration oracle's probability, which must agree with the
    report's within ``ORACLE_AGREEMENT_TOL``."""
    oracle_value = acceptance_probability_oracle(pomdp, formula, execution, cap=cap)
    if abs(oracle_value - report.probability) > ORACLE_AGREEMENT_TOL:
        raise DtlmonError(
            f"oracle disagreement: dynamic program {report.probability!r} "
            f"vs enumeration {oracle_value!r}"
        )
    return oracle_value


def cmd_check(args) -> int:
    if args.oracle_cap < 1:
        raise DtlmonError(f"--oracle-cap must be at least 1, not {args.oracle_cap}")
    config = _load_config(args.config, args.casestudy, STUDY_KEYS.get(args.casestudy, ()))
    pomdp, formula = _resolve_model_formula(args, config)
    execution = load_trace(pomdp, args.trace)
    report = acceptance_probability(pomdp, formula, execution)
    doc = report.to_json_dict()
    if args.oracle:
        doc["oracle_probability"] = _checked_oracle(
            pomdp, formula, execution, report, args.oracle_cap
        )
    print(f"feasible: {report.feasible}")
    print(f"probability: {report.probability!r}")
    if args.oracle:
        print(f"oracle probability: {doc['oracle_probability']!r}")
    if args.report:
        save_json(doc, args.report)
    if args.strict and not report.feasible:
        return EXIT_INFEASIBLE
    return EXIT_OK


# -- sweep -------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    """Monitor every trace under every config, in the order given.  Each
    trace is loaded once per distinct model, so the configs that change
    only the formula's thresholds monitor the same executions, and the
    acceptance runs they share are made once."""
    keys = STUDY_KEYS.get(args.casestudy, ())
    executions: dict[Pomdp, list] = {}
    rows = []
    for path in args.config or [None]:
        pomdp, formula = _resolve_model_formula(args, _load_config(path, args.casestudy, keys))
        if pomdp not in executions:
            executions[pomdp] = [load_trace(pomdp, trace) for trace in args.trace]
        for trace, execution in zip(args.trace, executions[pomdp]):
            report = acceptance_probability(pomdp, formula, execution)
            print(f"{path or '-'} {trace}: feasible {report.feasible}, "
                  f"probability {report.probability!r}")
            rows.append({"config": path, "trace": trace, **report.to_json_dict()})
    if args.report:
        save_json(rows, args.report)
    return EXIT_OK


# -- simulate ----------------------------------------------------------------------


def _build_policy(args, config: dict):
    name = args.policy
    if name in ("timeshare", "entropy-cutoff"):
        policies = rescue_policies(_rescue_params(config), **_numbers(config, RESCUE_POLICY_KEYS))
        return policies[name.replace("-", "_")]
    if name == "mht-threshold":
        return MhtThresholdPolicy(_mht_settings(config)["h"])
    if name == "random":
        return RandomActionPolicy()
    raise DtlmonError(f"unknown policy {name!r}")


def _success_fn(args, pomdp: Pomdp):
    if args.casestudy == "rescue":
        return rescue_success_fn(pomdp)
    if args.casestudy == "mht":
        return mht_success_fn(pomdp)
    return lambda state: False  # no success notion for ad-hoc models


def _entropy_factor(args, pomdp: Pomdp, config: dict) -> str:
    if args.entropy_factor:
        return args.entropy_factor
    if "entropy_factor" in config:
        return config["entropy_factor"]
    if args.casestudy == "rescue":
        return "env"
    if args.casestudy == "mht":
        return "hyp"
    if pomdp.factor_cells:
        return next(iter(pomdp.factor_cells))
    raise DtlmonError("the model defines no factors; pass --entropy-factor")


def _write_results(
    out: Path, args, label: str, records: list[TrialRecord], stats: StudyStats
) -> None:
    """One policy's per-trial CSV and summary JSON."""
    lines = ["trial,seed,probability,entropy_bits,success"]
    for r in records:
        lines.append(
            f"{r.trial},{r.seed},{r.probability!r},{r.terminal_entropy_bits!r},"
            f"{str(r.success).lower()}"
        )
    with open(out / f"{label}_trials.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    summary = {
        "policy": label,
        "trials": args.trials,
        "horizon": args.horizon,
        "master_seed": args.seed,
        **stats.to_json_dict(),
    }
    save_json(summary, out / f"{label}_summary.json")


def cmd_simulate(args) -> int:
    args.seed = _default_seed() if args.seed is None else args.seed
    keys = {*STUDY_KEYS.get(args.casestudy, ()), *POLICY_KEYS[args.policy], "entropy_factor"}
    config = _load_config(args.config, args.casestudy, keys)
    pomdp, formula = _resolve_model_formula(args, config)
    policy = _build_policy(args, config)
    records, stats = monte_carlo(
        pomdp,
        formula,
        policy,
        args.trials,
        args.horizon,
        args.seed,
        _entropy_factor(args, pomdp, config),
        _success_fn(args, pomdp),
    )
    out = _out_dir(args)
    label = args.policy
    _write_results(out, args, label, records, stats)
    if args.dump_traces:
        for record in records:
            _, execution = simulate(pomdp, policy, args.horizon, record.seed)
            save_trace(pomdp, execution, out / f"{label}_trace_{record.trial:04d}.json")
    print(f"policy: {label}")
    print(f"mean probability: {stats.mean_prob!r}")
    print(f"success rate: {stats.success_rate!r}")
    print(f"wrote {out / (label + '_trials.csv')}")
    return EXIT_OK


# -- compile -----------------------------------------------------------------------


def cmd_compile(args) -> int:
    config = _load_config(args.config, args.casestudy, STUDY_KEYS.get(args.casestudy, ()))
    _, formula = _resolve_model_formula(args, config)
    comp = compile_monitor(formula)
    dfa = comp.dfa
    names = list(comp.prop_names)
    if not args.relaxed:
        # Name each hidden-state letter by the first atom that reads it.
        for atom, bit in reversed(comp.state_atoms.items()):
            names[bit] = formula_text(atom)
    reachable = dfa.materialize()
    print(f"formula: {formula_text(formula)}")
    print(f"propositions: {dfa.num_props}")
    print(f"states: {len(reachable)}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(export_dot(dfa, names))
        print(f"wrote {args.dot}")
    if args.json:
        save_json(export_json_dict(dfa, names), args.json)
        print(f"wrote {args.json}")
    return EXIT_OK


# -- casestudy ---------------------------------------------------------------------


def cmd_casestudy(args) -> int:
    config = _load_config(args.config, args.study, CASESTUDY_KEYS[args.study])
    if args.study == "mht":
        return _casestudy_mht(args, config)
    return _casestudy_rescue(args, config)


def _casestudy_mht(args, config: dict) -> int:
    pomdp, formula = _build_study("mht", config)
    out = _out_dir(args)
    save_model(pomdp, out / "model.json")
    with open(out / "formula.dtl", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# commit to the most likely coin once the hypothesis entropy is low\n")
        fh.write(formula_text(formula) + "\n")
    execution = mht_reference_trace(pomdp)
    save_trace(pomdp, execution, out / "reference_trace.json")
    report = acceptance_probability(pomdp, formula, execution)
    doc = report.to_json_dict()
    doc["oracle_probability"] = _checked_oracle(
        pomdp, formula, execution, report, DEFAULT_ORACLE_CAP
    )
    save_json(doc, out / "reference_report.json")
    print(f"reference trace feasible: {report.feasible}")
    print(f"reference trace probability: {report.probability!r}")
    print(f"wrote {out}")
    return EXIT_OK


def _casestudy_rescue(args, config: dict) -> int:
    args.seed = _default_seed() if args.seed is None else args.seed
    prior_mode = config.get("prior_mode", "safe_somewhere")
    study = run_rescue_study(
        args.trials,
        args.horizon,
        args.seed,
        _rescue_params(config),
        prior_mode,
        entropy_factor=config.get("entropy_factor", "env"),
        **_numbers(config, RESCUE_POLICY_KEYS),
    )
    out = _out_dir(args)
    save_model(study["pomdp"], out / "model.json")
    with open(out / "formula.dtl", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# rescue duty until certainty and survivor safety\n")
        fh.write(formula_text(study["formula"]) + "\n")
    comparison = {"trials": args.trials, "horizon": args.horizon, "master_seed": args.seed,
                  "prior_mode": prior_mode, "policies": {}}
    for label, result in study["policies"].items():
        stats = result["stats"]
        _write_results(out, args, label, result["records"], stats)
        comparison["policies"][label] = stats.to_json_dict()
        print(
            f"{label}: mean probability {stats.mean_prob:.3f}, "
            f"success rate {stats.success_rate:.3f}, pearson r "
            f"{stats.pearson_r if stats.pearson_r is None else round(stats.pearson_r, 3)}"
        )
    save_json(comparison, out / "comparison.json")
    print(f"wrote {out}")
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------------


def _add_model_args(sub, include_trace=False, repeat=False):
    """The model and formula options (``--model`` or ``--casestudy``); with
    ``repeat``, ``--config`` and ``--trace`` may be given several times."""
    again = {"action": "append"} if repeat else {}
    tail = "; repeat to give several" if repeat else ""
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--model", help="model JSON file")
    source.add_argument("--casestudy", choices=["mht", "rescue"], help="use a bundled model")
    sub.add_argument("--formula", help="formula text file")
    sub.add_argument("--config", **again, help="JSON file of study parameter overrides" + tail)
    if include_trace:
        sub.add_argument("--trace", **again, required=True, help="trace JSON file" + tail)


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error (2 means infeasible under ``--strict``)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dtlmon",
        description="Monitor POMDP executions against co-safe temporal specifications.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser("check", help="monitor a recorded trace")
    _add_model_args(check, include_trace=True)
    check.add_argument("--oracle", action="store_true", help="cross-check by enumeration")
    check.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP,
                       help="refuse the oracle when more hidden paths than this are "
                            "consistent with the trace")
    check.add_argument("--report", help="write the monitor report JSON here")
    check.add_argument("--strict", action="store_true", help="exit 2 when infeasible")
    check.set_defaults(func=cmd_check)

    sweep = subs.add_parser("sweep", help="monitor recorded traces under several configs")
    _add_model_args(sweep, include_trace=True, repeat=True)
    sweep.add_argument("--report", help="write the reports as one JSON list here")
    sweep.set_defaults(func=cmd_sweep)

    sim = subs.add_parser("simulate", help="run seeded Monte Carlo trials")
    _add_model_args(sim)
    sim.add_argument("--policy", default="random",
                     choices=["timeshare", "entropy-cutoff", "mht-threshold", "random"])
    sim.add_argument("--trials", type=int, default=2)
    sim.add_argument("--horizon", type=int, default=16)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--dump-traces", action="store_true")
    sim.add_argument("--entropy-factor", help="factor for the terminal entropy column")
    sim.set_defaults(func=cmd_simulate)

    comp = subs.add_parser("compile", help="compile a formula to an automaton")
    _add_model_args(comp)
    comp.add_argument("--relaxed", action="store_true",
                      help="name hidden-state letters by their relaxed predicates")
    comp.add_argument("--dot", help="write GraphViz DOT here")
    comp.add_argument("--json", help="write the automaton JSON here")
    comp.set_defaults(func=cmd_compile)

    case = subs.add_parser("casestudy", help="reproduce a bundled study")
    case.add_argument("study", choices=["mht", "rescue"])
    case.add_argument("--out", required=True, help="output directory")
    case.add_argument("--trials", type=int, default=250,
                      help="trials per policy of the rescue study; the mht study ignores it")
    case.add_argument("--horizon", type=int, default=16,
                      help="steps per rescue trial; the mht study ignores it")
    case.add_argument("--seed", type=int,
                      help=f"master seed of the rescue trials (default: {SEED_ENV_VAR} or 0); "
                           "the mht study ignores it")
    case.add_argument("--config", help="JSON file of study parameter overrides")
    case.set_defaults(func=cmd_casestudy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DtlmonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
