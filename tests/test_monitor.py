"""Feasibility, smoothing, and the acceptance-probability dynamic program."""

import copy
import gc
import pickle
import random
import re
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dtlmon import model as model_module
from dtlmon import monitor as monitor_module
from dtlmon.automaton import export_json_dict
from dtlmon.errors import AllZero, CapExceeded, InconsistentState, ModelError
from dtlmon.logic import (
    Add,
    And,
    BeliefAtom,
    Const,
    Eventually,
    Neg,
    Next,
    Or,
    Prob,
    StateAtom,
    formula_atoms,
    map_atoms,
    parse_formula,
    semantics_eval,
)
from dtlmon.model import (
    Belief,
    Execution,
    Pomdp,
    RandomActionPolicy,
    execution_from_actions,
    marginal_prob,
    simulate,
)
from dtlmon.monitor import (
    CompiledMonitor,
    _dp_memo,
    _fold_plans,
    _shared_dfas,
    acceptance_probability,
    compile_monitor,
    acceptance_probability_oracle,
    backward_likelihoods,
    execution_from_json_dict,
    execution_to_json_dict,
    feasibility_check,
    path_transition,
    region_signature,
    relax,
    smoothed_initial,
)
from dtlmon.studies import (
    RescueParams,
    build_mht,
    build_rescue,
    mht_reference_trace,
    rescue_model,
    rescue_policies,
    trial_seed,
)

from helpers import (
    grid_walk,
    random_cosafe_formula,
    random_execution,
    random_pomdp,
    state_bits_referee,
    tiny_two_state,
)


@pytest.fixture(scope="module")
def mht():
    return build_mht(0.25, 0.5, 0.75, 0.8)


@pytest.fixture(scope="module")
def rescue_runs():
    """The rescue study's model, formula and first 25 runs of each policy at
    master seed 2024."""
    pomdp, formula = build_rescue()
    executions = [
        simulate(pomdp, policy, 16, trial_seed(2024, k))[1]
        for policy in rescue_policies().values()
        for k in range(25)
    ]
    return pomdp, formula, executions


def full_atom(pomdp):
    return StateAtom("all", frozenset(range(pomdp.num_states)), pomdp.num_states)


def empty_atom(pomdp):
    return StateAtom("nothing", frozenset(), pomdp.num_states)


class TestRelax:
    def test_plain_atom_becomes_negative_mass(self):
        atom = StateAtom("setA", frozenset({0, 2}), 4)
        relaxed = relax(atom)
        assert relaxed == BeliefAtom(Neg(Prob("setA", frozenset({0, 2}))))

    def test_negated_atom_relaxes_through_complement(self):
        atom = StateAtom("setA", frozenset({0, 2}), 4, negated=True)
        relaxed = relax(atom)
        assert isinstance(relaxed, BeliefAtom) and not relaxed.negated
        assert relaxed.expr == Neg(Prob("!setA", frozenset({1, 3})))

    def test_full_set_always_holds(self):
        pomdp = tiny_two_state()
        relaxed = relax(full_atom(pomdp))
        from dtlmon.logic import eval_belief_expr

        assert eval_belief_expr(relaxed.expr, pomdp.prior) == -1.0

    def test_empty_set_never_holds(self):
        pomdp = tiny_two_state()
        relaxed = relax(empty_atom(pomdp))
        from dtlmon.logic import eval_belief_expr

        # Strictly-below-zero test fails on exactly zero.
        assert eval_belief_expr(relaxed.expr, pomdp.prior) == 0.0

    def test_belief_atoms_untouched(self):
        atom = BeliefAtom(Const(-1.0), negated=True)
        assert relax(atom) == atom


@st.composite
def state_atom_families(draw):
    """Hidden-state atoms over up to 80 states: random, empty and full sets,
    about a third negated, some repeated, and up to 70 classes, so that
    bits pass 63."""
    num_states = draw(st.integers(1, 80))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    atoms = []
    for k in range(draw(st.sampled_from((1, 3, 12, 70)))):
        shape = rng.random()
        if atoms and shape < 0.1:
            atoms.append(rng.choice(atoms))
            continue
        if shape < 0.2:
            members = frozenset()
        elif shape < 0.3:
            members = frozenset(range(num_states))
        else:
            members = frozenset(rng.sample(range(num_states), rng.randint(0, num_states)))
        atoms.append(StateAtom(f"s{k}", members, num_states, rng.random() < 0.35))
    return num_states, atoms


def _conjunction(atoms):
    formula = atoms[0]
    for atom in atoms[1:]:
        formula = And(formula, atom)
    return formula


class TestStateBits:
    @settings(deadline=None, max_examples=150)
    @given(state_atom_families())
    def test_state_bits_match_the_per_state_referee(self, case):
        num_states, atoms = case
        comp = CompiledMonitor(_conjunction(atoms))
        bits = comp.state_bits(num_states)
        assert bits.dtype == object and bits.shape == (num_states,)
        assert not bits.flags.writeable
        assert all(type(b) is int for b in bits.tolist())
        assert bits.tolist() == state_bits_referee(comp.state_atoms, num_states)
        assert comp.state_bits(num_states) is bits

    def test_bits_past_63_are_python_ints(self):
        # Set k holds the states of k's binary digits: 70 distinct classes.
        atoms = [
            StateAtom(f"s{k}", frozenset(s for s in range(8) if k >> s & 1), 8, k % 3 == 0)
            for k in range(70)
        ]
        comp = CompiledMonitor(_conjunction(atoms))
        bits = comp.state_bits(8).tolist()
        assert len(comp.belief_props) == 70 and max(bits).bit_length() > 63
        assert bits == state_bits_referee(comp.state_atoms, 8)

    @pytest.mark.parametrize("members", [{3}, {-1}, {0, 7}])
    @pytest.mark.parametrize("negated", [False, True])
    def test_out_of_range_index_raises_like_the_referee(self, members, negated):
        atoms = [StateAtom("ok", frozenset({0}), 3), StateAtom("bad", frozenset(members), 3, negated)]
        comp = CompiledMonitor(_conjunction(atoms))
        with pytest.raises(ModelError, match="state set out of range"):
            state_bits_referee(comp.state_atoms, 3)
        with pytest.raises(ModelError, match="state set out of range"):
            comp.state_bits(3)


class TestPropositions:
    def test_indices_dense_and_disjoint(self):
        rng = random.Random(99)
        for _ in range(30):
            pomdp = random_pomdp(rng)
            formula = random_cosafe_formula(rng, pomdp)
            comp = compile_monitor(formula)
            atoms = formula_atoms(formula)
            num_props = len(comp.belief_props)
            assert len(comp.prop_names) == comp.dfa.num_props == num_props
            assert comp.relaxed_mask >> num_props == 0
            relaxed = [(comp.relaxed_mask >> j) & 1 for j in range(num_props)]
            # Belief atoms number their distinct expressions once, and
            # (state set, sign) classes their first atom's relaxed predicate
            # once, in first-seen order; the two never share a bit.
            classes = {}  # (state set, sign) -> relaxed predicate of its first atom
            for atom in atoms:
                if isinstance(atom, StateAtom):
                    classes.setdefault((atom.indices, atom.negated), relax(atom).expr)
            belief_exprs = [a.expr for a in atoms if isinstance(a, BeliefAtom)]
            for flag, exprs in ((0, belief_exprs), (1, list(classes.values()))):
                owned = [e for e, r in zip(comp.belief_props, relaxed) if r == flag]
                assert owned == list(dict.fromkeys(exprs))
            # A hidden-state atom reads the relaxed bit of its class.
            for atom in atoms:
                if isinstance(atom, StateAtom):
                    bit = comp.state_atoms[atom]
                    first = classes[atom.indices, atom.negated]
                    assert relaxed[bit] and comp.belief_props[bit] == first
            bits = comp.state_bits(pomdp.num_states)
            for s in range(pomdp.num_states):
                held = {bit for a, bit in comp.state_atoms.items() if (s in a.indices) != a.negated}
                assert bits[s] == sum(1 << bit for bit in held)

    def test_duplicate_predicates_share_a_proposition(self):
        pomdp = tiny_two_state()
        formula = parse_formula("F [0.5 - P(lit) < 0] & [0.5 - P(lit) < 0]", pomdp)
        assert len(compile_monitor(formula).belief_props) == 1

    def test_belief_atom_never_shares_a_relaxed_bit(self):
        """A belief atom with the expression of a hidden-state atom's relaxed
        predicate keeps its own proposition: acceptance overwrites the relaxed
        bit with the hidden state's membership."""
        for seed in range(300):
            pomdp = random_pomdp(random.Random(seed))
            _, execution = simulate(pomdp, RandomActionPolicy(), 4, seed)
            set_a = frozenset(pomdp.named_sets["setA"])
            in_a = StateAtom("setA", set_a, pomdp.num_states)
            formula = Or(
                Next(And(in_a, Eventually(in_a))),
                Next(BeliefAtom(Neg(Prob("setA", set_a)), negated=True)),
            )
            report = acceptance_probability(pomdp, formula, execution)
            oracle = acceptance_probability_oracle(pomdp, formula, execution)
            assert report.probability == pytest.approx(oracle, abs=1e-9), seed
            # Both bits read minus the mass on A by its exact sign.
            assert len(report.diagnostics["propositions"]) == 2
            assert all((0 in label) == (1 in label) for label in report.step_labels), seed

    def test_hidden_state_atoms_of_one_set_and_sign_read_one_bit(self):
        """Here two atoms of one (set, sign) class would, with a bit each,
        make the automaton tell apart states it should merge."""
        rng = random.Random(3570)
        pomdp = random_pomdp(rng, max_states=5)
        formula = random_cosafe_formula(rng, pomdp, 5, 3, 5)
        execution = random_execution(pomdp, rng, max_t=8)
        report = acceptance_probability(pomdp, formula, execution)
        assert report.feasible
        assert report.probability == 1.0
        assert report.diagnostics["dp_pairs"] == 3
        assert report.diagnostics["consistent_paths"] == 3


class TestRegionSignature:
    def test_constant_negative(self):
        comp = compile_monitor(BeliefAtom(Const(-1.0)))
        assert region_signature(Belief(np.array([1.0])), comp) == 1

    def test_exact_zero_is_clear(self):
        comp = compile_monitor(BeliefAtom(Const(0.0)))
        assert region_signature(Belief(np.array([1.0])), comp) == 0

    def test_mht_uniform_ties_not_strict(self, mht):
        pomdp, _ = mht
        text = (
            "[H(hyp) - 0.8 < 0] | [P(hyp2) - P(hyp1) < 0] | [P(hyp3) - P(hyp1) < 0]"
        )
        formula = parse_formula(text, pomdp)
        assert region_signature(pomdp.prior, compile_monitor(formula)) == 0


class TestFeasibility:
    def test_full_set_always_feasible(self):
        rng = random.Random(0)
        for _ in range(10):
            pomdp = random_pomdp(rng)
            execution = random_execution(pomdp, rng)
            ok, _ = feasibility_check(pomdp, full_atom(pomdp), execution)
            assert ok

    def test_empty_set_infeasible_with_zero_probability(self):
        pomdp = tiny_two_state()
        execution = Execution((pomdp.prior,), (), ())
        ok, _ = feasibility_check(pomdp, empty_atom(pomdp), execution)
        assert not ok
        report = acceptance_probability(pomdp, empty_atom(pomdp), execution)
        assert not report.feasible
        assert report.probability == 0.0

    def test_relaxed_atom_holds_at_tiny_mass(self):
        """A relaxed ``in(A)`` compares minus the mass on A with zero
        exactly, so feasibility keeps a run whose mass on A is real but far
        inside the tie band; a belief atom on that mass reads the band."""
        doc = tiny_two_state().to_json_dict()
        doc["prior"] = {"off": 1 - 1e-14, "on": 1e-14}
        pomdp = Pomdp.from_json_dict(doc)
        execution = Execution((pomdp.prior,), (), ())
        lit = parse_formula("in(lit)", pomdp)
        assert feasibility_check(pomdp, lit, execution) == (True, (frozenset({0}),))
        assert region_signature(pomdp.prior, compile_monitor(lit)) == 1
        report = acceptance_probability(pomdp, lit, execution)
        assert report.probability == pytest.approx(1e-14, rel=1e-9)
        assert acceptance_probability_oracle(pomdp, lit, execution) == report.probability
        positive = parse_formula("[0 < P(lit)]", pomdp)
        assert feasibility_check(pomdp, positive, execution) == (False, (frozenset(),))

    def test_reference_trace_labels(self, mht):
        pomdp, formula = mht
        execution = mht_reference_trace(pomdp)
        ok, labels = feasibility_check(pomdp, formula, execution)
        assert ok
        belief_props = compile_monitor(formula).belief_props
        entropy_prop = 0  # first predicate encountered in the formula
        two_below_one = belief_props.index(parse_formula("[P(hyp2) < P(hyp1)]", pomdp).expr)
        three_below_one = belief_props.index(parse_formula("[P(hyp3) < P(hyp1)]", pomdp).expr)
        final = labels[-1]
        assert {entropy_prop, two_below_one, three_below_one} <= final
        # The uniform start satisfies nothing: ties are not strict.
        assert labels[0] == frozenset()


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 10**9))
def test_feasibility_is_the_relaxed_formula_on_the_beliefs(seed):
    # The relaxed formula reads beliefs only, so the hidden state is moot.
    rng = random.Random(seed)
    pomdp = random_pomdp(rng)
    formula = random_cosafe_formula(rng, pomdp)
    execution = random_execution(pomdp, rng)
    word = [(0, belief) for belief in execution.beliefs]
    ok, _ = feasibility_check(pomdp, formula, execution)
    assert ok == semantics_eval(relax(formula), word, 0)


def test_a_relaxed_mass_inside_the_tie_band_is_feasible_in_both_readings():
    """Feasibility and the word semantics of the relaxed formula both read
    minus one set mass by its exact sign, so a mass of 1e-14 on A, far
    inside the tie band, still leaves ``in(A)`` feasible."""
    pomdp = tiny_two_state()
    formula = parse_formula("in(lit)", pomdp)
    belief = Belief(np.array([1 - 1e-14, 1e-14]))
    ok, labels = feasibility_check(pomdp, formula, Execution((belief,), (), ()))
    assert ok and labels == (frozenset({0}),)
    assert region_signature(belief, compile_monitor(formula)) == 1
    assert semantics_eval(relax(formula), [(0, belief)], 0)


class TestSmoothing:
    def test_empty_record_is_all_ones(self, mht):
        pomdp, _ = mht
        bl = backward_likelihoods(pomdp, (), ())
        assert bl.values.shape == (1, pomdp.num_states)
        assert (bl.values == 1.0).all()

    def test_mht_one_heads_backward(self, mht):
        pomdp, _ = mht
        bl = backward_likelihoods(
            pomdp, (pomdp.action_index["observe"],), (pomdp.obs_index["heads"],)
        )
        watch = [pomdp.state_index[f"coin{c}_watch"] for c in (1, 2, 3)]
        np.testing.assert_allclose(bl.values[0][watch], [0.25, 0.5, 0.75], atol=1e-12)
        chosen = pomdp.state_index["coin2_chose1"]
        assert bl.values[0][chosen] == 0.0
        assert (bl.values[-1] == 1.0).all()

    def test_deterministic_chain_zero_one(self):
        pomdp = tiny_two_state()
        doc = pomdp.to_json_dict()
        doc["transitions"] = [["off", "poke", "on", 1.0], ["on", "poke", "on", 1.0]]
        doc["observation_model"] = [["off", "poke", "lo", 1.0], ["on", "poke", "hi", 1.0]]
        from dtlmon.model import Pomdp

        chain = Pomdp.from_json_dict(doc)
        bl = backward_likelihoods(chain, (0, 0), (1, 1))
        assert set(np.unique(bl.values)) <= {0.0, 1.0}

    def test_smoothed_initial_examples(self, mht):
        pomdp, _ = mht
        bl = backward_likelihoods(pomdp, (), ())
        np.testing.assert_array_equal(smoothed_initial(pomdp, bl), pomdp.prior.probs)
        bl = backward_likelihoods(
            pomdp, (pomdp.action_index["observe"],), (pomdp.obs_index["heads"],)
        )
        alpha = smoothed_initial(pomdp, bl)
        watch = [pomdp.state_index[f"coin{c}_watch"] for c in (1, 2, 3)]
        np.testing.assert_allclose(alpha[watch], [1 / 6, 1 / 3, 1 / 2], atol=1e-12)

    def test_point_mass_prior_stays_point(self):
        pomdp = tiny_two_state()
        doc = pomdp.to_json_dict()
        doc["prior"] = {"on": 1.0}
        from dtlmon.model import Pomdp

        pinned = Pomdp.from_json_dict(doc)
        bl = backward_likelihoods(pinned, (0,), (0,))
        alpha = smoothed_initial(pinned, bl)
        np.testing.assert_array_equal(alpha, [0.0, 1.0])

    @pytest.mark.parametrize(
        "actions, observations, message",
        [
            ((-1,), (0,), "step 0: action -1 or observation 0 is out of range"),
            ((1.0,), (0,), "step 0: action 1.0 is not an integer index"),
            ((True,), (0,), "step 0: action True is not an integer index"),
            ((0, 0), (1, 5), "step 1: action 0 or observation 5 is out of range"),
        ],
    )
    def test_record_must_fit_the_model(self, actions, observations, message):
        with pytest.raises(ModelError, match=re.escape(message)):
            backward_likelihoods(tiny_two_state(), actions, observations)

    def test_impossible_record_raises(self, mht):
        pomdp, _ = mht
        with pytest.raises(AllZero):
            backward_likelihoods(
                pomdp, (pomdp.action_index["choose1"],), (pomdp.obs_index["heads"],)
            )

    def test_rows_normalize(self):
        rng = random.Random(5)
        for _ in range(20):
            pomdp = random_pomdp(rng)
            execution = random_execution(pomdp, rng, max_t=5)
            if execution.horizon == 0:
                continue
            bl = backward_likelihoods(pomdp, execution.actions, execution.observations)
            for i in range(execution.horizon):
                for s in range(pomdp.num_states):
                    if bl.values[i][s] == 0.0:
                        continue
                    row = sum(path_transition(pomdp, bl, i, [s])[0].tolist())
                    assert row == pytest.approx(1.0, abs=1e-9)

    def test_identity_dynamics_self_transition(self, mht):
        pomdp, _ = mht
        execution = execution_from_actions(pomdp, ["observe", "observe"], ["tails", "heads"])
        bl = backward_likelihoods(pomdp, execution.actions, execution.observations)
        watch = pomdp.state_index["coin2_watch"]
        assert path_transition(pomdp, bl, 0, [watch])[0, watch] == pytest.approx(1.0)

    def test_inconsistent_state_raises(self, mht):
        pomdp, _ = mht
        execution = execution_from_actions(pomdp, ["observe"], ["heads"])
        bl = backward_likelihoods(pomdp, execution.actions, execution.observations)
        chosen = pomdp.state_index["coin1_chose2"]
        with pytest.raises(InconsistentState):
            path_transition(pomdp, bl, 0, [chosen])

    def test_long_run_rows_are_rescaled(self):
        # Over 1000 steps the backward rows would underflow to zero.
        pomdp, formula = build_rescue()
        _, execution = simulate(pomdp, rescue_policies()["timeshare"], 1000, 5)
        bl = backward_likelihoods(pomdp, execution.actions, execution.observations)
        assert bl.shifts[0] > 0
        report = acceptance_probability(pomdp, formula, execution)
        assert report.probability == 1.0
        assert report.diagnostics["consistent_paths"] == 18
        oracle = acceptance_probability_oracle(pomdp, formula, execution)
        assert oracle == pytest.approx(1.0, abs=1e-9)

    def test_backward_values_in_unit_interval(self):
        rng = random.Random(11)
        for _ in range(20):
            pomdp = random_pomdp(rng)
            execution = random_execution(pomdp, rng)
            bl = backward_likelihoods(pomdp, execution.actions, execution.observations)
            assert (bl.values >= 0.0).all() and (bl.values <= 1.0 + 1e-12).all()


class TestAcceptanceProbability:
    def test_full_set_probability_one(self):
        rng = random.Random(1)
        for _ in range(10):
            pomdp = random_pomdp(rng)
            execution = random_execution(pomdp, rng)
            report = acceptance_probability(pomdp, full_atom(pomdp), execution)
            assert report.feasible
            assert report.probability == pytest.approx(1.0, abs=1e-9)

    def test_plain_atom_equals_smoothed_mass(self):
        rng = random.Random(2)
        for _ in range(20):
            pomdp = random_pomdp(rng)
            execution = random_execution(pomdp, rng)
            atom = StateAtom("setA", frozenset(pomdp.named_sets["setA"]), pomdp.num_states)
            report = acceptance_probability(pomdp, atom, execution)
            bl = backward_likelihoods(pomdp, execution.actions, execution.observations)
            expected = float(
                sum(
                    p
                    for s, p in enumerate(smoothed_initial(pomdp, bl))
                    if s in atom.indices
                )
            )
            assert report.probability == pytest.approx(expected, abs=1e-9)

    def test_reference_trace_certain(self, mht):
        pomdp, formula = mht
        execution = mht_reference_trace(pomdp)
        report = acceptance_probability(pomdp, formula, execution)
        assert report.feasible
        assert report.probability == pytest.approx(1.0, abs=1e-9)
        oracle = acceptance_probability_oracle(pomdp, formula, execution)
        assert oracle == pytest.approx(1.0, abs=1e-9)
        assert report.diagnostics["consistent_paths"] == 3

    def test_label_consistency_with_signatures(self):
        rng = random.Random(3)
        for _ in range(15):
            pomdp = random_pomdp(rng)
            formula = random_cosafe_formula(rng, pomdp)
            execution = random_execution(pomdp, rng)
            report = acceptance_probability(pomdp, formula, execution)
            comp = compile_monitor(formula)
            assert len(report.step_labels) == len(execution.beliefs)
            for label, belief in zip(report.step_labels, execution.beliefs):
                sig = region_signature(belief, comp)
                assert label == frozenset(
                    j for j in range(len(comp.belief_props)) if (sig >> j) & 1
                )

    def test_evicted_formula_recompiles_to_identical_report(self, mht):
        pomdp, formula = mht
        execution = mht_reference_trace(pomdp)
        first = compile_monitor(formula)
        before = acceptance_probability(pomdp, formula, execution).to_json_dict()
        for k in range(compile_monitor.cache_info().maxsize):
            compile_monitor(BeliefAtom(Const(-1.0 - k)))
        assert compile_monitor(formula) is not first
        assert acceptance_probability(pomdp, formula, execution).to_json_dict() == before

    def test_report_json_shape(self, mht):
        pomdp, formula = mht
        execution = mht_reference_trace(pomdp)
        doc = acceptance_probability(pomdp, formula, execution).to_json_dict()
        assert set(doc) == {"feasible", "probability", "step_labels", "diagnostics"}
        assert isinstance(doc["step_labels"][0], list)


def _verdict(report):
    return report.probability.hex(), report.step_labels, report.diagnostics


class TestArrayDp:
    def test_same_report_cold_warm_and_after_other_traces(self):
        # The open automaton states are numbered per execution, so neither
        # the row order nor a bit of the probability depends on which
        # automaton states earlier executions discovered, or in what order.
        pomdp, formula = build_rescue()
        policies = list(rescue_policies().values())
        executions = [
            simulate(pomdp, policies[k % 2], 16, trial_seed(7, k))[1] for k in range(8)
        ]
        grew = False
        for k, target in enumerate(executions):
            compile_monitor.cache_clear()
            cold = _verdict(acceptance_probability(pomdp, formula, target))
            cold_states = compile_monitor(formula).dfa.num_states
            warm = _verdict(acceptance_probability(pomdp, formula, target))
            compile_monitor.cache_clear()
            for other in executions[:k] + executions[k + 1 :]:
                acceptance_probability(pomdp, formula, other)
            grown_states = compile_monitor(formula).dfa.num_states
            grown = _verdict(acceptance_probability(pomdp, formula, target))
            assert cold == warm == grown
            grew |= grown_states > cold_states  # the others found states it never meets
        assert grew

    def test_consistent_paths_exact_beyond_float_precision(self):
        pomdp = grid_walk()
        _, execution = simulate(pomdp, RandomActionPolicy(), 30, 5)
        bl = backward_likelihoods(pomdp, execution.actions, execution.observations)
        counts = {s: 1 for s in np.flatnonzero(smoothed_initial(pomdp, bl)).tolist()}
        for i in range(execution.horizon):
            following: dict[int, int] = {}
            for s, c in counts.items():
                row = path_transition(pomdp, bl, i, [s])[0]
                for s2 in np.flatnonzero(row).tolist():
                    following[s2] = following.get(s2, 0) + c
            counts = following
        expected = sum(counts.values())
        assert expected > 2**53
        corner = StateAtom("corner", frozenset(pomdp.named_sets["corner"]), pomdp.num_states)
        # The first formula resolves at step 0, the second stays open.
        for formula in (full_atom(pomdp), Eventually(corner)):
            report = acceptance_probability(pomdp, formula, execution)
            assert report.diagnostics["consistent_paths"] == expected

    def test_runs_where_every_path_accepts_read_exactly_one(self):
        # Wide enough (25 columns) for a pairwise sum to regroup the cells.
        pomdp = grid_walk()
        for seed in range(5):
            _, execution = simulate(pomdp, RandomActionPolicy(), 30, seed)
            for formula in (full_atom(pomdp), Next(Next(full_atom(pomdp)))):
                assert acceptance_probability(pomdp, formula, execution).probability == 1.0

    @settings(deadline=None, max_examples=150)
    @given(st.integers(0, 2**32 - 1))
    def test_sink_mass_matches_oracle(self, seed):
        """Instances whose mass reaches the accept sink or the dead state
        before the last step, some resolving completely before it."""
        rng = random.Random(seed)
        pomdp = random_pomdp(rng)
        formula = random_cosafe_formula(rng, pomdp)
        execution = random_execution(pomdp, rng)
        assume(execution.horizon > 0 and feasibility_check(pomdp, formula, execution)[0])
        assume(_first_sink_step(pomdp, formula, execution) < execution.horizon)
        report = acceptance_probability(pomdp, formula, execution)
        oracle = acceptance_probability_oracle(pomdp, formula, execution)
        assert report.probability == pytest.approx(oracle, abs=1e-9)


def _recount(pomdp, execution) -> int:
    """Hidden paths consistent with the record, counted in Python ints over
    the support of each step's transition and observation likelihoods."""
    counts = dict.fromkeys(np.flatnonzero(pomdp.prior.probs).tolist(), 1)
    for a, o in zip(execution.actions, execution.observations):
        live = sorted(counts)
        rows = pomdp.trans_mat[a].take(live, axis=0) * pomdp.obs_mat[a][:, o]
        following: dict[int, int] = {}
        for r, s2 in zip(*(idx.tolist() for idx in np.nonzero(rows))):
            following[s2] = following.get(s2, 0) + counts[live[r]]
        counts = following
    return sum(counts.values())


def _complete_model(n: int):
    """``n`` states where every transition and observation is possible."""
    rng = np.random.default_rng(n)
    trans = rng.uniform(0.5, 1.5, (n, n))
    trans /= trans.sum(axis=1, keepdims=True)
    high = rng.uniform(0.2, 0.8, n)
    return Pomdp(
        [f"s{i}" for i in range(n)],
        ["go"],
        ["lo", "hi"],
        [1.0 / n] * n,
        {(s, 0, s2): p for s, row in enumerate(trans.tolist()) for s2, p in enumerate(row)},
        {**{(s, 0, 1): p for s, p in enumerate(high.tolist())},
         **{(s, 0, 0): 1.0 - p for s, p in enumerate(high.tolist())}},
        named_sets={"first": [0]},
    )


class TestStepTable:
    def test_only_visited_pairs_are_built(self, rescue_runs):
        rescue, formula, executions = rescue_runs
        pomdp = Pomdp.from_json_dict(rescue.to_json_dict())  # a model no other test read
        visited = set()
        for execution in executions[:10]:
            if acceptance_probability(pomdp, formula, execution).feasible:
                visited |= set(zip(execution.actions, execution.observations))
            assert {(a, o) for a, o, _ in pomdp._blocks} == visited
        assert visited and len(visited) < pomdp.num_actions * pomdp.num_observations

    def test_table_goes_with_its_model(self):
        pomdp = grid_walk(3)
        execution = execution_from_actions(pomdp, ["walk"] * 3, ["lo", "hi", "lo"])
        acceptance_probability(pomdp, parse_formula("F in(corner)", pomdp), execution)
        blocks = [weakref.ref(array) for block in pomdp._blocks.values() for array in block]
        assert len(blocks) == 2 * 3
        del pomdp
        gc.collect()
        assert all(ref() is None for ref in blocks)  # the memo keeps its execution only

    def test_a_model_pickles_and_copies(self, rescue_runs):
        pomdp, formula, executions = rescue_runs
        runs = executions[::10]
        want = [acceptance_probability(pomdp, formula, e).to_json_dict() for e in runs]
        assert pomdp._blocks
        for clone in (pickle.loads(pickle.dumps(pomdp)), copy.deepcopy(pomdp)):
            for got, orig in (
                (clone.trans_mat, pomdp.trans_mat),
                (clone.obs_mat, pomdp.obs_mat),
                (clone.prior.probs, pomdp.prior.probs),
            ):
                assert got.dtype == orig.dtype and got.shape == orig.shape
                assert got.tobytes() == orig.tobytes()
            assert clone._blocks == {}  # derived, so not copied
            assert [acceptance_probability(clone, formula, e).to_json_dict() for e in runs] == want

    def test_reports_equal_without_the_table(self, monkeypatch):
        def instances():
            rng = random.Random(41)
            for _ in range(100):
                pomdp = random_pomdp(rng, max_states=5, max_actions=3, max_obs=3)
                formula = random_cosafe_formula(rng, pomdp)
                yield pomdp, formula, random_execution(pomdp, rng)

        def results(instance):
            pomdp, formula, execution = instance
            report = acceptance_probability(pomdp, formula, execution)
            oracle = acceptance_probability_oracle(pomdp, formula, execution)
            return report.to_json_dict(), oracle.hex()

        cached = [results(instance) for instance in instances()]
        monkeypatch.setattr(model_module, "STEP_TABLE_CELLS", 0)
        uncached = []
        for instance in instances():
            uncached.append(results(instance))
            assert instance[0]._blocks == {}
        assert uncached == cached
        assert sum(report["diagnostics"]["dp_pairs"] > 0 for report, _ in cached) >= 30


class TestPathCounts:
    """``consistent_paths`` is exact however far it passes the int64 range."""

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_random_instances_match_recount(self, seed):
        rng = random.Random(seed)
        pomdp = random_pomdp(rng)
        formula = random_cosafe_formula(rng, pomdp)
        execution = random_execution(pomdp, rng)
        report = acceptance_probability(pomdp, formula, execution)
        expected = _recount(pomdp, execution) if report.feasible else 0
        assert report.diagnostics["consistent_paths"] == expected

    @settings(deadline=None, max_examples=20)
    @given(st.integers(20, 60), st.integers(0, 2**32 - 1))
    def test_grid_walks_match_recount(self, horizon, seed):
        pomdp = grid_walk()
        _, execution = simulate(pomdp, RandomActionPolicy(), horizon, seed)
        expected = _recount(pomdp, execution)
        assert expected > 2**62
        corner = StateAtom("corner", frozenset(pomdp.named_sets["corner"]), pomdp.num_states)
        report = acceptance_probability(pomdp, Eventually(corner), execution)
        assert report.diagnostics["consistent_paths"] == expected

    @pytest.fixture(scope="class")
    def complete(self):
        return _complete_model(256)

    @pytest.mark.parametrize("horizon", range(6, 13))
    def test_complete_model_counts_every_path(self, complete, horizon):
        # 256 columns lift a limb by 2^8 a step: the carries cascade, and
        # summing unnormalized limbs over the columns would wrap an int64.
        rng = random.Random(horizon)
        execution = execution_from_actions(
            complete, ["go"] * horizon, [rng.choice(["lo", "hi"]) for _ in range(horizon)]
        )
        for text in ("in(first) | !in(first)", "F in(first)"):
            report = acceptance_probability(complete, parse_formula(text, complete), execution)
            assert report.diagnostics["consistent_paths"] == 256 ** (horizon + 1)


class TestSharedAutomata:
    """Formulas that differ only in belief thresholds share their automata."""

    @pytest.fixture(scope="class")
    def variants(self):
        pomdp, near = build_rescue()
        _, far = build_rescue(RescueParams(p1=0.85, h1=0.45))
        policies = list(rescue_policies().values())
        executions = [
            simulate(pomdp, policies[k % 2], 16, trial_seed(5, k))[1] for k in range(4)
        ]
        return pomdp, near, far, executions

    def test_threshold_variants_share_automata(self, variants):
        _, near, far, _ = variants
        a, b = compile_monitor(near), compile_monitor(far)
        assert a is not b
        assert a.dfa is b.dfa
        assert compile_monitor(Eventually(near)).dfa is not a.dfa

    def test_reports_identical_alone_or_interleaved(self, variants):
        pomdp, near, far, executions = variants
        alone = {}
        for formula in (near, far):
            compile_monitor.cache_clear()
            alone[formula] = [
                _verdict(acceptance_probability(pomdp, formula, e)) for e in executions
            ]
        assert alone[near] != alone[far]
        for order in ((near, far), (far, near)):
            compile_monitor.cache_clear()
            together = {formula: [] for formula in order}
            for e in executions:
                for formula in order:
                    together[formula].append(_verdict(acceptance_probability(pomdp, formula, e)))
            assert together == alone

    def test_exported_automata_keep_their_own_names(self):
        comps = [compile_monitor(build_mht(0.25, 0.5, 0.75, h)[1]) for h in (0.8, 0.6)]
        assert comps[0].dfa is comps[1].dfa
        docs = [export_json_dict(comp.dfa, comp.prop_names) for comp in comps]
        assert docs[0]["propositions"] != docs[1]["propositions"]
        assert docs[0]["transitions"] == docs[1]["transitions"]

    def test_cache_clear_releases_shared_automata(self, variants):
        _, near, far, _ = variants
        compile_monitor(near), compile_monitor(far), compile_monitor(Eventually(near))
        assert len(_shared_dfas) >= 2
        compile_monitor.cache_clear()
        assert len(_shared_dfas) == 0


def _copy(execution: Execution) -> Execution:
    """The same record and belief values in new ``Belief`` objects, so the
    copy shares no acceptance memo with ``execution``."""
    return Execution(
        tuple(Belief(b.probs) for b in execution.beliefs),
        execution.actions,
        execution.observations,
    )


def _runs(pomdp, dfa, execution) -> list:
    """The memo keys of the acceptance runs of ``execution`` under ``pomdp``
    and ``dfa``."""
    return [key for key in _dp_memo.get(execution, {}) if key[0]() is pomdp and key[1]() is dfa]


def _shift_thresholds(formula, delta: float):
    """The formula with every belief atom's threshold moved by ``delta``:
    same skeleton, same propositions, hence the same automaton."""
    return map_atoms(
        formula,
        lambda atom: BeliefAtom(Add(atom.expr, Const(delta)), atom.negated)
        if isinstance(atom, BeliefAtom)
        else atom,
    )


class TestAcceptanceMemo:
    """Formulas that share an automaton and meet the same letters on one
    execution share one run of the dynamic program."""

    @pytest.fixture(scope="class")
    def sweep(self):
        pomdp = rescue_model()
        rng = random.Random(20)
        formulas = [
            build_rescue(
                RescueParams(
                    p1=round(rng.uniform(0.80, 0.97), 3),
                    p2=round(rng.uniform(0.10, 0.45), 3),
                    h1=round(rng.uniform(0.20, 0.60), 3),
                    h2=round(rng.uniform(0.20, 0.60), 3),
                )
            )[1]
            for _ in range(16)
        ]
        policies = list(rescue_policies().values())
        executions = [
            simulate(pomdp, policies[k % 2], 16, trial_seed(20, k))[1] for k in range(3)
        ]
        return pomdp, formulas, executions

    def test_memoized_reports_equal_fresh_ones_on_random_formulas(self):
        rng = random.Random(2020)
        shared = 0
        for _ in range(40):
            pomdp = random_pomdp(rng)
            base = random_cosafe_formula(rng, pomdp)
            execution = random_execution(pomdp, rng)
            variants = [_shift_thresholds(base, rng.choice([0.0, 0.01, -0.01, 0.3, -0.3]))
                        for _ in range(6)]
            feasible = 0
            for formula in variants:
                assert compile_monitor(formula).dfa is compile_monitor(base).dfa
                memoized = acceptance_probability(pomdp, formula, execution)
                fresh = acceptance_probability(pomdp, formula, _copy(execution))
                assert memoized.feasible == fresh.feasible
                assert memoized.probability == fresh.probability
                assert memoized.step_labels == fresh.step_labels
                assert memoized.diagnostics == fresh.diagnostics
                feasible += memoized.feasible
            runs = len(_runs(pomdp, compile_monitor(base).dfa, execution))
            assert runs <= feasible
            shared += feasible - runs
        assert shared > 0

    def test_state_sets_of_one_automaton_get_their_own_runs(self):
        rng = random.Random(2021)
        moved = 0
        for _ in range(30):
            pomdp = random_pomdp(rng)
            execution = random_execution(pomdp, rng)
            formulas = [parse_formula(f"F in({name})", pomdp) for name in ("setA", "setB", "evens")]
            assert len({compile_monitor(formula).dfa for formula in formulas}) == 1
            reports = [acceptance_probability(pomdp, formula, execution) for formula in formulas]
            for formula, report in zip(formulas, reports):
                fresh = acceptance_probability(pomdp, formula, _copy(execution))
                assert _verdict(report) == _verdict(fresh)
            moved += len({report.probability for report in reports}) > 1
        assert moved

    def test_an_execution_built_from_lists_is_memoized_too(self, sweep):
        pomdp, formulas, executions = sweep
        execution = executions[0]
        listed = Execution(
            list(_copy(execution).beliefs), list(execution.actions), list(execution.observations)
        )
        report = acceptance_probability(pomdp, formulas[0], listed)
        assert _verdict(report) == _verdict(acceptance_probability(pomdp, formulas[0], execution))
        assert len(_runs(pomdp, compile_monitor(formulas[0]).dfa, listed)) == report.feasible

    def test_a_sweep_shares_runs_and_matches_fresh_executions(self, sweep):
        pomdp, formulas, executions = sweep
        (dfa,) = {compile_monitor(formula).dfa for formula in formulas}
        for execution in executions:
            for formula in formulas:
                memoized = acceptance_probability(pomdp, formula, execution)
                assert _verdict(memoized) == _verdict(
                    acceptance_probability(pomdp, formula, _copy(execution))
                )
            assert len(_runs(pomdp, dfa, execution)) < len(formulas)

    def test_another_model_of_the_same_dimensions_gets_its_own_run(self, sweep):
        pomdp, formulas, executions = sweep
        other = rescue_model(RescueParams(fa_safe=0.3, det_surv=0.7))
        assert other is not pomdp and other.num_states == pomdp.num_states
        formula = formulas[0]
        moved = False
        for execution in executions:
            here = acceptance_probability(pomdp, formula, execution)
            there = acceptance_probability(other, formula, execution)
            dfa = compile_monitor(formula).dfa
            for model, report in ((pomdp, here), (other, there)):
                assert len(_runs(model, dfa, execution)) >= report.feasible
            fresh = acceptance_probability(other, formula, _copy(execution))
            assert _verdict(there) == _verdict(fresh)
            moved |= here.probability != there.probability
        assert moved

    def test_the_memo_keeps_no_execution_model_or_automaton_alive(self):
        pomdp = tiny_two_state()
        formula = parse_formula("F in(lit)", pomdp)
        execution = execution_from_actions(pomdp, ["poke", "poke"], ["hi", "lo"])
        report = acceptance_probability(pomdp, formula, execution)
        assert report.feasible
        dfa_ref = weakref.ref(compile_monitor(formula).dfa)
        model_ref = weakref.ref(pomdp)
        results = _dp_memo[execution]
        assert {key[0] for key in results} == {model_ref} and _runs(pomdp, dfa_ref(), execution)
        # The execution outlives its automaton: the automaton is released,
        # and a rebuilt one of the same skeleton runs its own program.
        compile_monitor.cache_clear()
        gc.collect()
        assert dfa_ref() is None
        assert _verdict(acceptance_probability(pomdp, formula, execution)) == _verdict(report)
        assert len(results) == 2
        assert len(_runs(pomdp, compile_monitor(formula).dfa, execution)) == 1
        # It outlives its model too, and its entries go with it.
        del pomdp
        gc.collect()
        assert model_ref() is None and {key[0] for key in results} == {model_ref}
        before = len(_dp_memo)
        execution_ref = weakref.ref(execution)
        del execution, results
        gc.collect()
        assert execution_ref() is None and len(_dp_memo) == before - 1

    def test_a_memoized_execution_is_checked_against_each_model(self):
        pomdp = tiny_two_state()
        formula = parse_formula("F in(lit)", pomdp)
        execution = execution_from_actions(pomdp, ["poke", "poke"], ["hi", "lo"])
        assert acceptance_probability(pomdp, formula, execution).feasible
        mute = Pomdp(
            [("off", {"bit": 0}), ("on", {"bit": 1})],
            ["poke"],
            ["lo"],
            [0.5, 0.5],
            {("off", "poke", "off"): 1.0, ("on", "poke", "on"): 1.0},
            {("off", "poke", "lo"): 1.0, ("on", "poke", "lo"): 1.0},
        )
        for _ in range(2):
            with pytest.raises(ModelError, match="step 0: action 0 or observation 1"):
                acceptance_probability(mute, formula, execution)
        assert all(key[0]() is not mute for key in _dp_memo[execution])

    def test_all_zero_is_raised_on_every_call(self, mht):
        pomdp, _ = mht
        actions = (pomdp.action_index["observe"], pomdp.action_index["choose1"])
        observations = (pomdp.obs_index["tails"], pomdp.obs_index["heads"])
        execution = Execution((pomdp.prior,) * 3, actions, observations)
        for _ in range(2):
            with pytest.raises(AllZero):
                acceptance_probability(pomdp, full_atom(pomdp), execution)
        assert _dp_memo[execution] == {}

    def test_feasibility_check_leaves_the_memo_empty(self, sweep):
        pomdp, formulas, executions = sweep
        execution = _copy(executions[0])
        for formula in formulas:
            feasibility_check(pomdp, formula, execution)
        assert execution not in _dp_memo

    def test_threaded_sweep_agrees_with_a_serial_one(self, sweep):
        pomdp, formulas, executions = sweep
        serial = [
            _verdict(acceptance_probability(pomdp, formula, execution))
            for execution in map(_copy, executions)
            for formula in formulas
        ]
        jobs = [(f, execution) for execution in map(_copy, executions) for f in formulas]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(acceptance_probability, pomdp, f, e) for f, e in jobs]
                threaded = [_verdict(future.result(timeout=120)) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


def _stay_or_mix() -> Pomdp:
    """Two states, each in its own named set; ``stay`` keeps the state and
    ``mix`` moves to either, so ``stay`` leaves cells without mass that
    ``mix`` fills."""
    both = {("a", "mix", "a"): 0.5, ("a", "mix", "b"): 0.5,
            ("b", "mix", "a"): 0.5, ("b", "mix", "b"): 0.5}
    return Pomdp(
        [("a", {}), ("b", {})],
        ["stay", "mix"],
        ["o"],
        [0.5, 0.5],
        {("a", "stay", "a"): 1.0, ("b", "stay", "b"): 1.0, **both},
        {(s, act, "o"): 1.0 for s in "ab" for act in ("stay", "mix")},
        named_sets={"A": ["a"], "B": ["b"]},
    )


def _plan_codes() -> int:
    """The codes of the kept fold plans, counted afresh."""
    return sum(codes.size for _, codes in _fold_plans.values())


class TestFoldPlans:
    """The fold plan table changes no report, whatever it holds."""

    def test_same_report_cold_warm_and_after_other_traces(self, rescue_runs):
        pomdp, formula, executions = rescue_runs
        folded = False
        for target in executions[::10]:
            compile_monitor.cache_clear()
            cold = _verdict(acceptance_probability(pomdp, formula, _copy(target)))
            kept = len(_fold_plans)
            warm = _verdict(acceptance_probability(pomdp, formula, _copy(target)))
            assert len(_fold_plans) == kept  # every fold met a kept plan
            for other in executions:
                acceptance_probability(pomdp, formula, _copy(other))
            after = _verdict(acceptance_probability(pomdp, formula, _copy(target)))
            assert cold == warm == after
            folded |= kept > 0
        assert folded

    def test_state_sets_of_one_automaton_get_their_own_plans(self):
        # One skeleton, so one automaton and the same letters; only the
        # column bits tell the formulas apart.
        rng = random.Random(2025)
        moved = 0
        for _ in range(30):
            pomdp = random_pomdp(rng)
            execution = random_execution(pomdp, rng)
            formulas = [parse_formula(f"F in({name})", pomdp) for name in ("setA", "setB", "evens")]
            assert len({compile_monitor(formula).dfa for formula in formulas}) == 1
            alone = []
            for formula in formulas:
                compile_monitor.cache_clear()
                alone.append(_verdict(acceptance_probability(pomdp, formula, _copy(execution))))
            compile_monitor.cache_clear()
            for _ in range(2):
                together = [
                    _verdict(acceptance_probability(pomdp, formula, _copy(execution)))
                    for formula in formulas
                ]
                assert together == alone
            moved += len({report[0] for report in alone}) > 1
        assert moved

    def test_cells_without_mass_get_their_own_plans(self):
        # After step 0 the open states are "F in(A)" (mass on a only) and
        # "F in(B)" (mass on b only).  ``stay`` keeps that support, so at
        # step 1 the empty cell (F in(A), b), which would open a new row,
        # comes before any cell with mass opens one; ``mix`` fills it.
        pomdp = _stay_or_mix()
        formula = parse_formula("(in(A) & X F in(A)) | (in(B) & X F in(B))", pomdp)
        runs = [
            execution_from_actions(pomdp, [first, "mix"], ["o", "o"]) for first in ("stay", "mix")
        ]
        alone = []
        for execution in runs:
            compile_monitor.cache_clear()
            alone.append(_verdict(acceptance_probability(pomdp, formula, _copy(execution))))
        assert [report[0] for report in alone] == [(1.0).hex(), (0.75).hex()]
        for order in (runs, runs[::-1]):
            compile_monitor.cache_clear()
            together = [
                _verdict(acceptance_probability(pomdp, formula, _copy(execution)))
                for execution in order
            ]
            assert together == (alone if order is runs else alone[::-1])

    def test_threads_on_a_cold_automaton_see_the_serial_results(self, rescue_runs):
        pomdp, formula, executions = rescue_runs
        _, far = build_rescue(RescueParams(p1=0.85, h1=0.45))
        jobs = [(f, execution) for execution in executions[:20] for f in (formula, far)]
        compile_monitor.cache_clear()
        serial = [_verdict(acceptance_probability(pomdp, f, _copy(e))) for f, e in jobs]
        compile_monitor.cache_clear()
        start = threading.Barrier(4)

        def run(k):
            start.wait(timeout=60)
            return [
                (j, _verdict(acceptance_probability(pomdp, f, _copy(e))))
                for j, (f, e) in enumerate(jobs)
                if j % 4 == k
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                threaded = sorted(
                    pair for part in pool.map(run, range(4), timeout=120) for pair in part
                )
        finally:
            sys.setswitchinterval(interval)
        assert [report for _, report in threaded] == serial
        assert _plan_codes() == _fold_plans.cells

    def test_a_small_budget_bounds_the_table_and_changes_no_report(
        self, rescue_runs, monkeypatch
    ):
        pomdp, formula, executions = rescue_runs
        compile_monitor.cache_clear()
        full = [_verdict(acceptance_probability(pomdp, formula, _copy(e))) for e in executions]
        plans = len(_fold_plans)
        budget = 300
        assert _fold_plans.cells > budget
        monkeypatch.setattr(model_module, "STEP_TABLE_CELLS", budget)
        compile_monitor.cache_clear()
        small = []
        for execution in executions:
            small.append(_verdict(acceptance_probability(pomdp, formula, _copy(execution))))
            assert _plan_codes() == _fold_plans.cells <= budget
        assert small == full
        assert 0 < len(_fold_plans) < plans

    def test_the_table_keeps_no_automaton_alive(self):
        pomdp = tiny_two_state()
        formula = parse_formula("F in(lit)", pomdp)
        execution = execution_from_actions(pomdp, ["poke", "poke"], ["hi", "lo"])
        compile_monitor.cache_clear()
        assert acceptance_probability(pomdp, formula, execution).feasible
        dfa_ref = weakref.ref(compile_monitor(formula).dfa)
        assert any(key[0]() is dfa_ref() for key in _fold_plans)
        # The compile cache alone holds the automaton: its plans stay, dead.
        monitor_module._compile_cached.cache_clear()
        gc.collect()
        assert dfa_ref() is None and _fold_plans
        compile_monitor.cache_clear()
        assert _fold_plans == {} and _fold_plans.cells == 0


def _first_sink_step(pomdp, formula, execution) -> int:
    """First step at which some consistent hidden path has driven the
    automaton into the accept sink or the dead state, by plain reachability
    over (hidden state, automaton state) pairs."""
    comp = compile_monitor(formula)
    dfa = comp.dfa
    sigs = [sig & ~comp.relaxed_mask for sig in comp.predicates.signatures(execution.probs)]
    sbits = comp.state_bits(pomdp.num_states)
    bl = backward_likelihoods(pomdp, execution.actions, execution.observations)
    pairs = {
        (s, dfa.transition(dfa.initial, sigs[0] | sbits[s]))
        for s in np.flatnonzero(smoothed_initial(pomdp, bl)).tolist()
    }
    for i in range(execution.horizon + 1):
        if any(dfa.is_accepting(q) or dfa.is_dead(q) for _, q in pairs):
            return i
        if i < execution.horizon:
            pairs = {
                (s2, dfa.transition(q, sigs[i + 1] | sbits[s2]))
                for s, q in pairs
                for s2 in np.flatnonzero(path_transition(pomdp, bl, i, [s])[0]).tolist()
            }
    return execution.horizon + 1


class TestOracle:
    def test_total_mass_is_one(self):
        rng = random.Random(4)
        for _ in range(20):
            pomdp = random_pomdp(rng)
            execution = random_execution(pomdp, rng)
            mass = acceptance_probability_oracle(pomdp, full_atom(pomdp), execution)
            assert mass == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_is_zero(self):
        pomdp = tiny_two_state()
        execution = Execution((pomdp.prior,), (), ())
        assert acceptance_probability_oracle(pomdp, empty_atom(pomdp), execution) == 0.0

    def test_cap(self, mht):
        # The coin reference trace has 3 consistent paths.
        pomdp, formula = mht
        execution = mht_reference_trace(pomdp)
        with pytest.raises(CapExceeded):
            acceptance_probability_oracle(pomdp, formula, execution, cap=2)

    def test_cap_is_the_consistent_path_count(self, rescue_runs):
        pomdp, formula, executions = rescue_runs
        runs = [(pomdp, formula, execution) for execution in executions]
        rng = random.Random(12)
        for _ in range(100):
            model = random_pomdp(rng)
            runs.append((model, random_cosafe_formula(rng, model), random_execution(model, rng)))
        checked = 0
        for model, formula, execution in runs:
            report = acceptance_probability(model, formula, execution)
            if not report.feasible:
                continue
            paths = report.diagnostics["consistent_paths"]
            acceptance_probability_oracle(model, formula, execution, cap=paths)
            with pytest.raises(CapExceeded):
                acceptance_probability_oracle(model, formula, execution, cap=paths - 1)
            checked += 1
        assert checked >= 100

    def test_cap_refuses_before_enumerating(self):
        pomdp = grid_walk()
        _, execution = simulate(pomdp, RandomActionPolicy(), 30, 5)
        start = time.perf_counter()
        with pytest.raises(CapExceeded):
            acceptance_probability_oracle(pomdp, full_atom(pomdp), execution)
        assert time.perf_counter() - start < 0.1

    def test_referees_the_rescue_study(self, rescue_runs):
        pomdp, formula, executions = rescue_runs
        for execution in executions:
            report = acceptance_probability(pomdp, formula, execution)
            oracle = acceptance_probability_oracle(pomdp, formula, execution)
            assert report.probability == pytest.approx(oracle, abs=1e-9)

    def test_formula_of_another_model_raises_model_error(self):
        # Relaxed, the negated atom reads its complement from the state count
        # it was resolved against: {b} here, which misses the third state.
        def model(names):
            return Pomdp(
                [(name, {}) for name in names],
                ["go"],
                ["x"],
                [0.0] * (len(names) - 1) + [1.0],
                {(name, "go", name): 1.0 for name in names},
                {(name, "go", "x"): 1.0 for name in names},
                named_sets={"A": ["a"]},
            )

        formula = parse_formula("F !in(A)", model(["a", "b"]))
        three = model(["a", "b", "c"])
        execution = Execution((three.prior,), (), ())
        message = "in(A) was resolved against 2 states, the model has 3"
        for monitor in (feasibility_check, acceptance_probability, acceptance_probability_oracle):
            with pytest.raises(ModelError, match=re.escape(message)):
                monitor(three, formula, execution)

    @pytest.mark.parametrize("widths", [(2, 3, 2), (3, 3, 3), (2, 2, 3)])
    def test_beliefs_of_other_lengths_raise_model_error(self, widths):
        # Beliefs of different lengths cannot be stacked into one array, so
        # no execution is built of them; beliefs of one width other than
        # the model's are a ModelError in every monitor.
        pomdp = tiny_two_state()
        beliefs = tuple(Belief(np.full(n, 1.0 / n)) for n in widths)
        if len(set(widths)) > 1:
            with pytest.raises(ModelError, match="^execution beliefs differ in length$"):
                Execution(beliefs, (0, 0), (0, 1))
            return
        execution = Execution(beliefs, (0, 0), (0, 1))
        formula = parse_formula("F in(lit)", pomdp)
        for monitor in (feasibility_check, acceptance_probability, acceptance_probability_oracle):
            with pytest.raises(ModelError) as err:
                monitor(pomdp, formula, execution)
            assert str(err.value) == "execution beliefs do not match the model dimension"

    @pytest.mark.parametrize(
        "action, obs, message",
        [
            (-3, -1, "step 4: action -3 or observation -1 is out of range"),
            (7, 2, "step 4: action 7 or observation 2 is out of range"),
            (0, 4, "step 4: action 0 or observation 4 is out of range"),
            (1.0, 0, "step 4: action 1.0 is not an integer index"),
            (True, 0, "step 4: action True is not an integer index"),
            (0, 2.0, "step 4: observation 2.0 is not an integer index"),
            (0, False, "step 4: observation False is not an integer index"),
        ],
        ids=[
            "negative", "action-too-large", "observation-too-large",
            "float-action", "bool-action", "float-observation", "bool-observation",
        ],
    )
    def test_out_of_range_indices_raise_model_error(self, mht, action, obs, message):
        # An API-built execution is only length-checked on construction:
        # negative indices would wrap, large ones would index past the tables,
        # and 1.0 or True would read the dynamics' entries for 1.
        pomdp, formula = mht
        ref = mht_reference_trace(pomdp)
        execution = Execution(
            ref.beliefs, ref.actions[:-1] + (action,), ref.observations[:-1] + (obs,)
        )
        for monitor in (feasibility_check, acceptance_probability, acceptance_probability_oracle):
            with pytest.raises(ModelError, match=re.escape(message)):
                monitor(pomdp, formula, execution)

    def test_numpy_integer_indices_accepted(self, mht):
        pomdp, formula = mht
        ref = mht_reference_trace(pomdp)
        execution = Execution(
            ref.beliefs, tuple(map(np.int64, ref.actions)), tuple(map(np.intp, ref.observations))
        )
        want = acceptance_probability(pomdp, formula, ref)
        assert acceptance_probability(pomdp, formula, execution) == want
        assert acceptance_probability_oracle(pomdp, formula, execution) == (
            acceptance_probability_oracle(pomdp, formula, ref)
        )

    def test_agrees_with_dynamic_program(self):
        rng = random.Random(12)
        for _ in range(25):
            pomdp = random_pomdp(rng)
            formula = random_cosafe_formula(rng, pomdp)
            execution = random_execution(pomdp, rng)
            report = acceptance_probability(pomdp, formula, execution)
            oracle = acceptance_probability_oracle(pomdp, formula, execution)
            assert report.probability == pytest.approx(oracle, abs=1e-9)

    def test_nested_eventualities_stay_fast(self):
        # Each subformula is decided once per position: without that, 100
        # nested F took seconds on three steps.
        pomdp = tiny_two_state()
        formula = parse_formula("F " * 100 + "in(lit)", pomdp)
        execution = execution_from_actions(pomdp, ["poke"] * 3, ["lo", "hi", "lo"])
        start = time.perf_counter()
        oracle = acceptance_probability_oracle(pomdp, formula, execution)
        assert time.perf_counter() - start < 0.5
        report = acceptance_probability(pomdp, formula, execution)
        assert report.probability == pytest.approx(oracle, abs=1e-9)

    def test_callback_predicate_monitored(self):
        # Variance of the lit-state indicator: not expressible in the text
        # grammar, supplied as a callback and carried through both routes.
        pomdp = tiny_two_state()
        from dtlmon.logic import Callback, Eventually

        def lit_variance(belief):
            p = belief[1]
            return p * (1 - p) - 0.16

        formula = Eventually(BeliefAtom(Callback("lit_variance_below", lit_variance)))
        rng = random.Random(77)
        for _ in range(10):
            execution = random_execution(pomdp, rng)
            report = acceptance_probability(pomdp, formula, execution)
            oracle = acceptance_probability_oracle(pomdp, formula, execution)
            assert report.probability == pytest.approx(oracle, abs=1e-9)

    def test_callback_receives_each_belief(self):
        # The predicates read the execution's stacked beliefs; a callback is
        # still handed each step's belief as a Belief.
        pomdp = tiny_two_state()
        from dtlmon.logic import Callback, Eventually

        seen = []

        def lit_mass(belief):
            seen.append(belief)
            return 0.5 - belief[1]

        formula = Eventually(BeliefAtom(Callback("lit_mass", lit_mass)))
        execution = execution_from_actions(pomdp, ["poke"] * 3, ["lo", "hi", "hi"])
        acceptance_probability(pomdp, formula, execution)
        assert [type(b) for b in seen] == [Belief] * 4
        assert [b.probs.tolist() for b in seen] == execution.probs.tolist()

    def test_infeasible_implies_zero_mass(self):
        rng = random.Random(13)
        seen_infeasible = 0
        for _ in range(150):
            pomdp = random_pomdp(rng)
            formula = random_cosafe_formula(rng, pomdp)
            execution = random_execution(pomdp, rng)
            feasible, _ = feasibility_check(pomdp, formula, execution)
            if not feasible:
                seen_infeasible += 1
                assert acceptance_probability(pomdp, formula, execution).probability == 0.0
                assert acceptance_probability_oracle(pomdp, formula, execution) == 0.0
        assert seen_infeasible > 0


class TestTraceDocuments:
    def test_round_trip_with_beliefs(self, mht):
        pomdp, _ = mht
        execution = mht_reference_trace(pomdp)
        doc = execution_to_json_dict(pomdp, execution)
        again = execution_from_json_dict(pomdp, doc)
        assert again.actions == execution.actions
        assert again.observations == execution.observations

    def test_beliefs_recomputed_when_absent(self, mht):
        pomdp, _ = mht
        execution = mht_reference_trace(pomdp)
        doc = execution_to_json_dict(pomdp, execution)
        del doc["beliefs"]
        again = execution_from_json_dict(pomdp, doc)
        for a, b in zip(again.beliefs, execution.beliefs):
            np.testing.assert_array_equal(a.probs, b.probs)

    def test_tampered_beliefs_rejected(self, mht):
        pomdp, _ = mht
        execution = mht_reference_trace(pomdp)
        doc = execution_to_json_dict(pomdp, execution)
        doc["beliefs"][1] = {"coin1_watch": 1.0}
        with pytest.raises(ModelError):
            execution_from_json_dict(pomdp, doc)

    @pytest.mark.parametrize(
        "first, second, message",
        [
            # The first failing step is reported, not the first malformed one.
            ({"coin1_watch": 1.0}, "junk", "recorded belief 1 deviates from the filter by "),
            ({"coin1_watch": float("nan")}, None, "recorded belief 1 deviates from the filter by nan"),
            ({"coin1_watch": None}, None, "recorded belief entry 'coin1_watch': "),
            ({"nowhere": 1.0}, None, "unknown state name 'nowhere'"),
        ],
    )
    def test_first_failing_step_reported(self, mht, first, second, message):
        pomdp, _ = mht
        execution = mht_reference_trace(pomdp)
        doc = execution_to_json_dict(pomdp, execution)
        doc["beliefs"][1] = first
        if second is not None:
            doc["beliefs"][2] = second
        with pytest.raises(ModelError, match=re.escape(message)):
            execution_from_json_dict(pomdp, doc)

    def test_unknown_action_name(self, mht):
        pomdp, _ = mht
        with pytest.raises(ModelError):
            execution_from_json_dict(pomdp, {"actions": ["fly"], "observations": ["null"]})

    @pytest.mark.parametrize("key", ["actions", "observations"])
    @pytest.mark.parametrize("value", ["stay", None, {"observe": 1}, 3])
    def test_record_must_be_a_list(self, mht, key, value):
        # Not read letter by letter, which would report "unknown action name 's'".
        pomdp, _ = mht
        doc = execution_to_json_dict(pomdp, mht_reference_trace(pomdp))
        doc[key] = value
        with pytest.raises(ModelError, match=re.escape(f"trace {key} must be a list")):
            execution_from_json_dict(pomdp, doc)


def test_probability_bounds_on_random_instances():
    rng = random.Random(21)
    for _ in range(40):
        pomdp = random_pomdp(rng)
        formula = random_cosafe_formula(rng, pomdp)
        execution = random_execution(pomdp, rng)
        report = acceptance_probability(pomdp, formula, execution)
        assert -1e-9 <= report.probability <= 1.0 + 1e-9
        assert marginal_prob(execution.beliefs[-1], range(pomdp.num_states)) == pytest.approx(1.0)


def _log_space_posterior(pomdp, execution, t: int) -> np.ndarray:
    """P(s_t | whole record) by a forward-backward pass in log space, a
    reference that cannot underflow on any record length."""
    with np.errstate(divide="ignore"):
        log_trans, log_obs = np.log(pomdp.trans_mat), np.log(pomdp.obs_mat)
        log_alpha = np.log(pomdp.prior.probs)
    steps = list(zip(execution.actions, execution.observations))
    for a, o in steps[:t]:
        log_alpha = np.logaddexp.reduce(log_alpha[:, None] + log_trans[a], axis=0)
        log_alpha = log_alpha + log_obs[a][:, o]
    log_beta = np.zeros(pomdp.num_states)
    for a, o in reversed(steps[t:]):
        log_beta = np.logaddexp.reduce(log_trans[a] + (log_obs[a][:, o] + log_beta), axis=1)
    joint = log_alpha + log_beta
    return np.exp(joint - np.logaddexp.reduce(joint))


def _tiny_record(length: int, seed: int):
    pomdp = tiny_two_state()
    rng = random.Random(seed)
    observations = [rng.choice(["lo", "hi"]) for _ in range(length)]
    return pomdp, execution_from_actions(pomdp, ["poke"] * length, observations)


class TestLongHorizon:
    """The forward pass is rescaled at every step, so valid runs of any
    length monitor; the unscaled backward pass underflowed on all of these."""

    @pytest.mark.parametrize("horizon", [900, 1000])
    def test_long_rescue_runs(self, horizon):
        pomdp, formula = build_rescue()
        policy = rescue_policies()["timeshare"]
        for k in range(6):
            _, execution = simulate(pomdp, policy, horizon, trial_seed(7, k))
            report = acceptance_probability(pomdp, formula, execution)
            assert report.feasible
            assert 0.0 <= report.probability <= 1.0

    @staticmethod
    def _check_third_state_mass(length: int, seed: int) -> None:
        pomdp, execution = _tiny_record(length, seed)
        formula = parse_formula("X X X in(lit)", pomdp)
        report = acceptance_probability(pomdp, formula, execution)
        lit = sorted(pomdp.named_sets["lit"])
        expected = float(_log_space_posterior(pomdp, execution, 3)[lit].sum())
        assert report.probability == pytest.approx(expected, abs=1e-9)
        assert report.diagnostics["consistent_paths"] == 2 ** (length + 1)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(3, 3000), st.integers(0, 2**32 - 1))
    def test_matches_log_space_reference(self, length, seed):
        self._check_third_state_mass(length, seed)

    def test_ten_thousand_steps(self):
        self._check_third_state_mass(10_000, 0)

    def test_impossible_record_raises(self, mht):
        # No coin shows heads once the agent has chosen, so no hidden path
        # survives the second step; the beliefs are hand-built.
        pomdp, _ = mht
        actions = (pomdp.action_index["observe"], pomdp.action_index["choose1"])
        observations = (pomdp.obs_index["tails"], pomdp.obs_index["heads"])
        execution = Execution((pomdp.prior,) * 3, actions, observations)
        with pytest.raises(AllZero):
            acceptance_probability(pomdp, full_atom(pomdp), execution)
