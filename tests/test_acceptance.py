"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` (or plain ``pytest``;
the lines of passing criteria then show under -rA).
"""

import random
import time

import numpy as np
import pytest

from dtlmon.automaton import Dfa, dfa_accepts, prop_eval
from dtlmon.logic import StateAtom
from dtlmon.model import (
    ScriptedPolicy,
    entropy_bits,
    execution_from_actions,
    filter_run,
    marginal_dist,
    simulate,
)
from dtlmon.monitor import (
    acceptance_probability,
    acceptance_probability_oracle,
    backward_likelihoods,
    feasibility_check,
    path_transition,
    smoothed_initial,
)
from dtlmon.studies import EntropyCutoffPolicy, TimeSharePolicy, build_mht, build_rescue, \
    monte_carlo, rescue_success_fn
from dtlmon.cli import main as cli_main

from helpers import (
    brute_force_posterior,
    consistent_record,
    random_cosafe_formula,
    random_execution,
    random_letter_word,
    random_pomdp,
    random_prop_formula,
)

TOL = 1e-9


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def warn(number, name, detail):
    print(f"[criterion {number}] {name}: WARN {detail}")


def test_criterion_1_oracle_equivalence():
    rng = random.Random(20240501)
    started = time.time()
    worst = 0.0
    instances = 0
    while instances < 120:
        pomdp = random_pomdp(rng, max_states=4, max_actions=2, max_obs=2)
        formula = random_cosafe_formula(rng, pomdp, max_state_atoms=3, max_belief_atoms=2)
        execution = random_execution(pomdp, rng, max_t=6)
        dp = acceptance_probability(pomdp, formula, execution).probability
        oracle = acceptance_probability_oracle(pomdp, formula, execution)
        worst = max(worst, abs(dp - oracle))
        instances += 1
    elapsed = time.time() - started
    report(
        1,
        "dynamic program agrees with enumeration oracle",
        worst <= TOL and elapsed < 30.0,
        f"({instances} instances, worst gap {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_2_automaton_correctness():
    rng = random.Random(77)
    started = time.time()
    disagreements = 0
    pairs = 0
    while pairs < 1000:
        num_props = rng.randint(1, 3)
        phi = random_prop_formula(rng, num_props, max_depth=4)
        dfa = Dfa(phi, num_props)
        word = random_letter_word(rng, num_props, max_len=8)
        expected = prop_eval(phi, word, 0) if word else False
        if dfa_accepts(dfa, word) != expected:
            disagreements += 1
        pairs += 1
    elapsed = time.time() - started
    report(
        2,
        "DFA acceptance equals direct word semantics",
        disagreements == 0 and elapsed < 10.0,
        f"({pairs} pairs, {disagreements} disagreements, {elapsed:.1f}s)",
    )


def test_criterion_3_filter_correctness():
    rng = random.Random(555)
    worst = 0.0
    norm_worst = 0.0
    for _ in range(100):
        pomdp = random_pomdp(rng, max_states=4, max_actions=2, max_obs=2)
        actions, observations = consistent_record(pomdp, rng, rng.randint(1, 6))
        beliefs = filter_run(pomdp, actions, observations)
        expected = brute_force_posterior(pomdp, actions, observations)
        worst = max(worst, float(np.abs(beliefs[-1].probs - expected).max()))
        for belief in beliefs:
            norm_worst = max(norm_worst, abs(float(belief.probs.sum()) - 1.0))
    report(
        3,
        "filter equals brute-force path enumeration",
        worst <= TOL and norm_worst <= TOL,
        f"(worst entry gap {worst:.2e}, worst normalization gap {norm_worst:.2e})",
    )


def test_criterion_4_smoothing_normalization():
    rng = random.Random(808)
    worst_initial = 0.0
    worst_row = 0.0
    worst_mass = 0.0
    for _ in range(60):
        pomdp = random_pomdp(rng)
        execution = random_execution(pomdp, rng, max_t=5)
        bl = backward_likelihoods(pomdp, execution.actions, execution.observations)
        worst_initial = max(
            worst_initial, abs(float(smoothed_initial(pomdp, bl).sum()) - 1.0)
        )
        for i in range(execution.horizon):
            for s in range(pomdp.num_states):
                if bl.values[i][s] == 0.0:
                    continue
                row = sum(path_transition(pomdp, bl, i, [s])[0].tolist())
                worst_row = max(worst_row, abs(row - 1.0))
        full = StateAtom("all", frozenset(range(pomdp.num_states)), pomdp.num_states)
        mass = acceptance_probability_oracle(pomdp, full, execution)
        worst_mass = max(worst_mass, abs(mass - 1.0))
    report(
        4,
        "smoothed measure normalizes",
        max(worst_initial, worst_row, worst_mass) <= TOL,
        f"(initial {worst_initial:.2e}, rows {worst_row:.2e}, total mass {worst_mass:.2e})",
    )


def test_criterion_5_feasibility_necessity():
    rng = random.Random(31337)
    infeasible = 0
    violations = 0
    for _ in range(500):
        pomdp = random_pomdp(rng)
        formula = random_cosafe_formula(rng, pomdp)
        execution = random_execution(pomdp, rng)
        feasible, _ = feasibility_check(pomdp, formula, execution)
        if feasible:
            continue
        infeasible += 1
        if acceptance_probability(pomdp, formula, execution).probability != 0.0:
            violations += 1
        if acceptance_probability_oracle(pomdp, formula, execution) != 0.0:
            violations += 1
    report(
        5,
        "infeasible executions carry zero probability",
        violations == 0 and infeasible > 0,
        f"({infeasible} infeasible out of 500, {violations} violations)",
    )


def test_criterion_6_mht_reproduction():
    pomdp, formula = build_mht(0.25, 0.5, 0.75, 0.8)
    # Seed 14 drives four tails with the hidden coin being the tails-heavy one.
    hidden, execution = simulate(pomdp, ScriptedPolicy(["observe"] * 4), 4, seed=14)
    tails = pomdp.obs_index["tails"]
    assert all(o == tails for o in execution.observations)
    assert pomdp.state_tags[hidden[0]]["coin"] == 1

    hyp = marginal_dist(execution.beliefs[4], pomdp.factor_cells["hyp"])
    expected = np.array([0.75**4, 0.5**4, 0.25**4])
    expected /= expected.sum()
    entropy = entropy_bits(hyp)
    hand_check = float(-(expected * np.log2(expected)).sum())

    extended = execution_from_actions(
        pomdp, ["observe"] * 4 + ["choose1"], ["tails"] * 4 + ["null"]
    )
    dp = acceptance_probability(pomdp, formula, extended)
    oracle = acceptance_probability_oracle(pomdp, formula, extended)
    ok = (
        float(np.abs(hyp - expected).max()) <= TOL
        and entropy < 0.8
        and abs(entropy - hand_check) <= TOL
        and abs(hand_check - 0.722) < 1e-3
        and dp.feasible
        and abs(dp.probability - 1.0) <= TOL
        and abs(oracle - 1.0) <= TOL
    )
    report(
        6,
        "three-coin narrative reproduces",
        ok,
        f"(entropy at step 4 = {entropy:.4f} bits, probability {dp.probability!r})",
    )


def test_criterion_7_rescue_study():
    started = time.time()
    trials, horizon, seed = 250, 16, 2024
    pomdp, formula = build_rescue()
    success = rescue_success_fn(pomdp)
    results = {}
    for label, policy in (
        ("timeshare", TimeSharePolicy(3)),
        ("entropy_cutoff", EntropyCutoffPolicy(0.3, 0.3, 2)),
    ):
        _, stats = monte_carlo(pomdp, formula, policy, trials, horizon, seed, "env", success)
        results[label] = stats
    elapsed = time.time() - started
    ts, ec = results["timeshare"], results["entropy_cutoff"]

    ordering = ec.mean_prob > ts.mean_prob
    negative_r = ts.pearson_r is not None and ec.pearson_r is not None \
        and ts.pearson_r < 0 and ec.pearson_r < 0
    success_band = abs(ts.success_rate - 0.86) <= 0.08 and abs(ec.success_rate - 0.916) <= 0.08
    detail = (
        f"(timeshare: prob {ts.mean_prob:.3f} success {ts.success_rate:.3f} r {ts.pearson_r:.3f}; "
        f"cutoff: prob {ec.mean_prob:.3f} success {ec.success_rate:.3f} r {ec.pearson_r:.3f}; "
        f"{elapsed:.0f}s)"
    )
    if abs(ts.mean_prob - 0.855) > 0.10 or abs(ec.mean_prob - 0.992) > 0.10:
        warn(
            7,
            "mean probabilities (informative)",
            f"timeshare {ts.mean_prob:.3f} vs 0.855, cutoff {ec.mean_prob:.3f} vs 0.992",
        )
    report(
        7,
        "rescue study reproduces (ordering, correlation sign, success bands)",
        ordering and negative_r and success_band and elapsed < 300.0,
        detail,
    )


def test_criterion_8_determinism(tmp_path):
    outputs = {}
    for tag in ("first", "second"):
        base = tmp_path / tag
        assert cli_main(["casestudy", "mht", "--out", str(base / "mht")]) == 0
        assert cli_main(
            [
                "simulate", "--casestudy", "rescue", "--policy", "entropy-cutoff",
                "--trials", "4", "--horizon", "5", "--seed", "31", "--out", str(base / "sim"),
                "--dump-traces",
            ]
        ) == 0
        assert cli_main(
            [
                "check", "--casestudy", "mht",
                "--trace", str(base / "mht" / "reference_trace.json"),
                "--oracle", "--report", str(base / "report.json"),
            ]
        ) == 0
        blob = {}
        for path in sorted((base).rglob("*")):
            if path.is_file():
                blob[str(path.relative_to(base))] = path.read_bytes()
        outputs[tag] = blob
    same_names = set(outputs["first"]) == set(outputs["second"])
    same_bytes = same_names and all(
        outputs["first"][k] == outputs["second"][k] for k in outputs["first"]
    )
    report(
        8,
        "seeded commands produce byte-identical outputs",
        same_bytes,
        f"({len(outputs['first'])} files compared)",
    )
