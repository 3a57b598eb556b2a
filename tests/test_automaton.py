"""DFA construction against the direct finite-word semantics."""

import hashlib
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtlmon.automaton import (
    ACCEPT,
    DEAD,
    Dfa,
    PropAtom,
    dfa_accepts,
    export_dot,
    export_json_dict,
    prop_eval,
)
from dtlmon.cli import EXIT_OK, main
from dtlmon.errors import StateBlowup
from dtlmon.logic import And, BeliefAtom, Callback, Eventually, Next, Or, Until, parse_formula
from dtlmon.monitor import CompiledMonitor, _shared_dfas, compile_monitor
from dtlmon.studies import build_rescue

from helpers import random_letter_word, random_prop_formula, tiny_two_state

P0 = PropAtom(0)
P1 = PropAtom(1)


def letters(*sets):
    return [sum(1 << i for i in s) for s in sets]


class TestKnownLanguages:
    def test_eventually(self):
        dfa = Dfa(Eventually(P0), 1)
        assert dfa_accepts(dfa, letters({0}))
        assert dfa_accepts(dfa, letters(set(), {0}, set()))
        assert not dfa_accepts(dfa, letters(set(), set()))
        assert not dfa_accepts(dfa, [])

    def test_next_needs_a_successor(self):
        dfa = Dfa(Next(P0), 1)
        assert not dfa_accepts(dfa, letters({0}))
        assert dfa_accepts(dfa, letters(set(), {0}))
        assert dfa_accepts(dfa, letters({0}, {0}))

    def test_until(self):
        dfa = Dfa(Until(P0, P1), 2)
        assert dfa_accepts(dfa, letters({0}, {0}, {1}))
        assert not dfa_accepts(dfa, letters({0}, set(), {1}))
        assert dfa_accepts(dfa, letters({1}))

    def test_empty_word_accept_iff_initial_accepting(self):
        dfa = Dfa(P0, 1)
        assert dfa_accepts(dfa, []) == dfa.is_accepting(dfa.initial)
        assert not dfa_accepts(dfa, [])

    def test_acceptance_is_absorbing(self):
        dfa = Dfa(Eventually(P0), 1)
        word = letters({0})
        assert dfa_accepts(dfa, word)
        for extension in (letters(set()), letters({0}, set(), set())):
            assert dfa_accepts(dfa, word + extension)

    def test_negated_atom(self):
        dfa = Dfa(PropAtom(0, negated=True), 1)
        assert dfa_accepts(dfa, letters(set()))
        assert not dfa_accepts(dfa, letters({0}))

    def test_dead_state_is_absorbing_and_rejecting(self):
        dfa = Dfa(Until(P0, P1), 2)
        assert not dfa.is_dead(dfa.initial)
        dead = dfa.transition(dfa.initial, 0)  # neither p0 nor p1: refuted
        assert dfa.is_dead(dead) and not dfa.is_accepting(dead)
        assert all(dfa.transition(dead, letter) == dead for letter in range(4))
        waiting = dfa.transition(dfa.initial, 1)
        accepted = dfa.transition(dfa.initial, 2)
        assert not dfa.is_dead(waiting) and not dfa.is_dead(accepted)


class TestOracleEquivalence:
    def test_random_formulas_and_words(self):
        rng = random.Random(2024)
        checked = 0
        for _ in range(1000):
            num_props = rng.randint(1, 3)
            phi = random_prop_formula(rng, num_props, max_depth=4)
            dfa = Dfa(phi, num_props)
            for _ in range(4):
                word = random_letter_word(rng, num_props, max_len=8)
                expected = prop_eval(phi, word, 0) if word else False
                assert dfa_accepts(dfa, word) == expected, (phi, word)
                checked += 1
            assert all(_is_antichain(subset) for subset in dfa._subsets)
        assert checked == 4000

    def test_acceptance_monotone_under_extension(self):
        rng = random.Random(7)
        for _ in range(200):
            num_props = rng.randint(1, 3)
            phi = random_prop_formula(rng, num_props)
            dfa = Dfa(phi, num_props)
            word = random_letter_word(rng, num_props, max_len=6)
            if dfa_accepts(dfa, word):
                longer = word + random_letter_word(rng, num_props, max_len=4)
                assert dfa_accepts(dfa, longer)


def _renumbered(phi, props):
    """``phi`` with proposition ``i`` renamed to ``props[i]``."""
    if isinstance(phi, PropAtom):
        return PropAtom(props[phi.index], phi.negated)
    if isinstance(phi, (And, Or, Until)):
        return type(phi)(_renumbered(phi.left, props), _renumbered(phi.right, props))
    return type(phi)(_renumbered(phi.child, props))


def _is_antichain(masks) -> bool:
    """No obligation mask contains another."""
    return all(a == b or a & ~b for a in masks for b in masks)


class TestMinimalObligations:
    def test_nested_untils_under_eventualities_stay_small(self):
        """Every ``F`` keeps its obligation alive beside the until chain, so
        keeping all obligation sets grew the subsets to 12, 78, 298 and 793
        sets over four letters; the ⊆-minimal ones are 12 throughout."""
        pomdp = tiny_two_state()
        formula = parse_formula("F " * 12 + "in(lit) U " * 98 + "in(lit)", pomdp)
        dfa = CompiledMonitor(formula).dfa
        state = dfa.initial
        for _ in range(6):
            state = dfa.transition(state, 0)
            assert not dfa.is_dead(state)
            assert len(dfa._subsets[state]) <= 12
            assert _is_antichain(dfa._subsets[state])


class TestWideAlphabets:
    """Formulas mentioning a few of up to 16 propositions, run on letters over
    all of them: the construction sees each subformula's letter projected onto
    its own propositions, so the bits it drops must not matter."""

    @settings(deadline=None, max_examples=150)
    @given(st.randoms(use_true_random=False))
    def test_sparse_formulas_on_full_letters(self, rng):
        num_props = rng.randint(4, 16)
        props = rng.sample(range(num_props), rng.randint(1, 3))
        phi = _renumbered(random_prop_formula(rng, len(props), max_depth=4), props)
        unused = [i for i in range(num_props) if i not in props]
        dfa = Dfa(phi, num_props)
        for _ in range(4):
            word = random_letter_word(rng, num_props, max_len=8)
            expected = prop_eval(phi, word, 0) if word else False
            assert dfa_accepts(dfa, word) == expected, (phi, word)
            state = dfa.initial
            for letter in word:
                flipped = letter ^ (1 << rng.choice(unused))
                assert dfa.transition(state, flipped) == dfa.transition(state, letter)
                state = dfa.transition(state, letter)


def _fresh_dfa(formula):
    """A new automaton over the formula's skeleton, shared with no compiled
    formula."""
    shared = compile_monitor(formula).dfa
    skeleton, num_props = next(key for key, dfa in _shared_dfas.items() if dfa is shared)
    return Dfa(skeleton, num_props)


class TestDfaStructure:
    def test_total_and_deterministic(self):
        dfa = Dfa(Until(P0, And(P1, Next(P0))), 2)
        dfa.materialize()
        for state in range(dfa.num_states):
            for letter in range(4):
                first = dfa.transition(state, letter)
                second = dfa.transition(state, letter)
                assert first == second
                assert 0 <= first < dfa.num_states

    def test_letter_out_of_range(self):
        dfa = Dfa(P0, 1)
        with pytest.raises(ValueError):
            dfa.transition(dfa.initial, 2)

    def test_accepting_states_absorbing(self):
        dfa = Dfa(Until(P0, Or(P1, Next(P0))), 2)
        dfa.materialize()
        for state in range(dfa.num_states):
            if dfa.is_accepting(state):
                for letter in range(4):
                    assert dfa.is_accepting(dfa.transition(state, letter))

    def test_sinks_are_states_zero_and_one(self):
        """Every automaton numbers the empty subset ``DEAD`` and the accept
        sink ``ACCEPT`` before its initial state, and both are absorbing."""
        rng = random.Random(31)
        for _ in range(300):
            num_props = rng.randint(1, 4)
            dfa = Dfa(random_prop_formula(rng, num_props), num_props)
            reachable = dfa.materialize()
            assert dfa.initial == 2
            for q in reachable:
                subset = dfa._subsets[q]
                assert dfa.is_dead(q) == (q == DEAD) == (subset == frozenset())
                assert dfa.is_accepting(q) == (q == ACCEPT) == (subset == frozenset({0}))
            for sink in (DEAD, ACCEPT):
                assert all(dfa.transition(sink, x) == sink for x in range(1 << num_props))

    def test_state_cap(self, monkeypatch):
        phi = And(
            Until(P0, And(P1, Next(And(P0, Next(P1))))),
            Eventually(And(P0, Next(P1))),
        )
        monkeypatch.setattr("dtlmon.automaton.STATE_CAP", 2)
        with pytest.raises(StateBlowup):
            dfa = Dfa(phi, 2)
            dfa.materialize()

    def test_concurrent_queries_agree(self):
        dfa = Dfa(Until(P0, Or(P1, Next(P0))), 2)
        words = [random_letter_word(random.Random(i), 2, max_len=8) for i in range(64)]
        expected = [dfa_accepts(Dfa(Until(P0, Or(P1, Next(P0))), 2), w) for w in words]
        results = [None] * len(words)

        def worker(lo, hi):
            for i in range(lo, hi):
                results[i] = dfa_accepts(dfa, words[i])

        threads = [threading.Thread(target=worker, args=(i * 16, (i + 1) * 16)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == expected

    def test_cold_rescue_construction_under_threads(self):
        """Threads walking the same letters through one fresh automaton see the
        serial walk's states.  New states appear within a few short walks
        from the initial state, so many short rounds give the threads many
        chances to collide."""
        _, formula = build_rescue()
        rng = random.Random(11)

        def walk(dfa, letters):
            state, seen = dfa.initial, []
            for i, letter in enumerate(letters):
                if i % 4 == 0:
                    state = dfa.initial
                state = dfa.transition(state, letter)
                seen.append(state)
            return seen

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(250):
                serial = _fresh_dfa(formula)
                letters = [rng.randrange(1 << serial.num_props) for _ in range(24)]
                expected = walk(serial, letters)
                shared = _fresh_dfa(formula)
                start = threading.Barrier(4)
                results = [None] * 4

                def worker(k):
                    start.wait()
                    results[k] = walk(shared, letters)

                threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert results == [expected] * 4
                assert shared.num_states == serial.num_states
        finally:
            sys.setswitchinterval(interval)
        assert serial.num_props == 20


class TestExport:
    def test_dot_shapes_and_determinism(self):
        dfa = Dfa(Eventually(P0), 1)
        dot = export_dot(dfa, ["ready"])
        assert dot == export_dot(dfa, ["ready"])
        assert "doublecircle" in dot
        assert "{ready}" in dot
        nodes = dot.count("[shape=circle]") + dot.count("[shape=doublecircle]")
        assert nodes == len(dfa.materialize())

    def test_dot_deterministic_across_query_histories(self):
        fresh = Dfa(Until(P0, P1), 2)
        warmed = Dfa(Until(P0, P1), 2)
        dfa_accepts(warmed, letters({1}, {0}, set()))  # populate caches in odd order
        assert export_dot(fresh, ["p", "q"]) == export_dot(warmed, ["p", "q"])

    def test_json_dump_round_trip_language(self):
        phi = Until(P0, P1)
        dfa = Dfa(phi, 2)
        doc = export_json_dict(dfa, ["p", "q"])
        assert doc["states"] == dfa.num_states
        assert doc["initial"] == 0
        delta = {(src, letter): dst for src, letter, dst in doc["transitions"]}
        accepting = set(doc["accepting"])
        rng = random.Random(3)
        for _ in range(100):
            word = random_letter_word(rng, 2, max_len=6)
            state = 0
            for letter in word:
                state = delta[(state, letter)]
            assert (state in accepting) == dfa_accepts(dfa, word)

    def test_materialize_refuses_more_than_16_propositions(self, monkeypatch):
        def no_walk(self, state, letter):
            pytest.fail("materialize walked the alphabet")

        dfa = Dfa(Eventually(PropAtom(16)), 17)
        monkeypatch.setattr(Dfa, "transition", no_walk)
        with pytest.raises(StateBlowup, match="materializing 17 propositions.*bound is 16"):
            dfa.materialize()
        with pytest.raises(StateBlowup):
            export_dot(dfa, [f"p{i}" for i in range(17)])

    def test_names_must_match_the_propositions(self):
        with pytest.raises(ValueError, match="prop_names length"):
            export_json_dict(Dfa(Until(P0, P1), 2), ["p"])

    def test_dot_escapes_quotes_and_backslashes_in_names(self):
        comp = compile_monitor(Eventually(BeliefAtom(Callback('say "hi" \\ bye', lambda b: -1.0))))
        text = export_dot(comp.dfa, comp.prop_names)
        assert r'q0 -> q1 [label="{[<say \"hi\" \\ bye> < 0]}"];' in text


# sha256 of the files that ``compile --casestudy mht`` writes for the coin
# formula ``build_mht(0.25, 0.5, 0.75, 0.8)``: (relaxed, format) -> digest.
MHT_EXPORT_SHA256 = {
    (False, "dot"): "c6a884bff4ac82373fd6e89230abc3a6f62cc0907abd696785666d9a626dd090",
    (True, "dot"): "e233e44ca3b5859f4c4706a0a75816b0053bd6cd27f799d153f314080412b176",
    (False, "json"): "5ab797a59db97b0015a7804a06b9cf80314ea1eedc3f6b8982666d1e1003ccaf",
    (True, "json"): "b36dd9c165bdc599828ef1a2b65d8acd99d5dc7e3d15005e4fad384900f7be7f",
}


@pytest.mark.parametrize("relaxed", [False, True], ids=["full", "relaxed"])
def test_mht_exports_are_pinned(relaxed, tmp_path):
    args = ["compile", "--casestudy", "mht", "--dot", str(tmp_path / "a.dot")]
    args += ["--json", str(tmp_path / "a.json")] + ["--relaxed"] * relaxed
    assert main(args) == EXIT_OK
    for fmt in ("dot", "json"):
        digest = hashlib.sha256((tmp_path / f"a.{fmt}").read_bytes()).hexdigest()
        assert digest == MHT_EXPORT_SHA256[relaxed, fmt], fmt
