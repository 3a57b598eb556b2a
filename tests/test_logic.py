"""Formula parsing, belief-expression evaluation, and word semantics."""

import dataclasses
import math
import pickle
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtlmon.errors import FormulaSyntaxError, NonAtomicNegation, UnknownSymbol
from dtlmon.logic import (
    MAX_NESTING,
    _tokenize,
    Add,
    And,
    BeliefAtom,
    Callback,
    Const,
    EntropyBits,
    Eventually,
    Mul,
    Neg,
    Next,
    Or,
    Prob,
    StateAtom,
    Sub,
    Until,
    eval_belief_expr,
    exact_sign,
    formula_atoms,
    formula_text,
    map_atoms,
    parse_formula,
    semantics_eval,
)
from dtlmon.model import Belief, execution_from_actions, filter_run
from dtlmon.automaton import Dfa, PropAtom
from dtlmon.monitor import (
    CompiledMonitor,
    acceptance_probability,
    acceptance_probability_oracle,
    compile_monitor,
    relax,
)
from dtlmon.studies import build_mht, rescue_model

from helpers import (
    random_cosafe_formula,
    random_pomdp,
    random_trace_word,
    tiny_two_state,
    tokenize_referee,
)


@pytest.fixture(scope="module")
def mht():
    pomdp, _ = build_mht(0.25, 0.5, 0.75, 0.8)
    return pomdp


@pytest.fixture(scope="module")
def mht_formula():
    _, formula = build_mht(0.25, 0.5, 0.75, 0.8)
    return formula


class TestParser:
    def test_eventually_entropy_atom(self, mht):
        f = parse_formula("F [H(hyp) - 0.8 < 0]", mht)
        assert isinstance(f, Eventually)
        atom = f.child
        assert isinstance(atom, BeliefAtom) and not atom.negated
        # [e1 < e2] normalizes to e1 - e2 < 0.
        cells = tuple(tuple(c) for c in mht.factor_cells["hyp"])
        assert atom.expr == Sub(Sub(EntropyBits("hyp", cells), Const(0.8)), Const(0.0))

    def test_negated_temporal_rejected(self, mht):
        with pytest.raises(NonAtomicNegation):
            parse_formula("!X in(all)", mht)

    def test_implication_rewrites_to_nnf(self, tmp_path):
        pomdp = tiny_two_state()
        f = parse_formula("(in(lit) & [0.9 - P(lit) < 0] => X in(all))", pomdp)
        assert isinstance(f, Or)
        assert isinstance(f.left, Or)
        lhs1, lhs2 = f.left.left, f.left.right
        assert isinstance(lhs1, StateAtom) and lhs1.negated and lhs1.name == "lit"
        assert isinstance(lhs2, BeliefAtom) and lhs2.negated
        assert isinstance(f.right, Next)
        assert isinstance(f.right.child, StateAtom) and f.right.child.name == "all"

    def test_temporal_antecedent_rejected(self, mht):
        with pytest.raises(NonAtomicNegation) as err:
            parse_formula("(X in(all) => in(all))", mht)
        assert str(err.value) == (
            "implication antecedent must be a Boolean combination of atoms "
            "(offending '=>' at position 11)"
        )

    @pytest.mark.parametrize(
        "text",
        [
            "(in(all) & F in(all) => in(all))",
            "F (in(all) | (in(all) U in(all)) => X in(all))",
            "((in(all) => X in(all)) => in(all))",
        ],
    )
    def test_antecedent_error_names_the_outer_arrow(self, mht, text):
        arrow = text.rindex("=>")
        with pytest.raises(NonAtomicNegation, match=re.escape(f"'=>' at position {arrow})")):
            parse_formula(text, mht)

    def test_unknown_set(self, mht):
        with pytest.raises(UnknownSymbol):
            parse_formula("in(nowhere)", mht)
        with pytest.raises(UnknownSymbol):
            parse_formula("[P(nowhere) - 1 < 0]", mht)
        with pytest.raises(UnknownSymbol):
            parse_formula("[H(nowhere) - 1 < 0]", mht)

    def test_syntax_error_carries_position(self, mht):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("F [H(hyp) - < 0]", mht)
        assert err.value.position == 12
        assert "position" in str(err.value)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("in(room1) U", "expected an atom, found end of input (at position 11)"),
            ("(in(room1)", "expected ')', found end of input (at position 10)"),
            ("in(", "expected a name, found end of input (at position 3)"),
            ("", "expected an atom, found end of input (at position 0)"),
        ],
    )
    def test_error_at_the_end_names_the_end_of_input(self, text, message):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(text, rescue_model())
        assert str(err.value) == message
        assert err.value.position == len(text)

    def test_trailing_garbage(self, mht):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("in(all) in(all)", mht)

    def test_comments_and_whitespace(self, mht):
        text = "# goal\nF (  in(chosen1)\n  | in(chosen2) )  # or the second\n"
        f = parse_formula(text, mht)
        assert isinstance(f, Eventually)
        assert isinstance(f.child, Or)

    def test_precedence_until_binds_tighter_than_and(self, mht):
        f = parse_formula("in(all) & in(watching) U in(chosen1)", mht)
        assert isinstance(f, And)
        assert isinstance(f.right, Until)

    def test_until_right_associative(self, mht):
        f = parse_formula("in(all) U in(watching) U in(chosen1)", mht)
        assert isinstance(f, Until)
        assert isinstance(f.right, Until)

    def test_bexpr_arithmetic(self, mht):
        f = parse_formula("[2 * P(hyp1) + 0.5 - P(hyp2) < 1]", mht)
        uniform = Belief(np.full(12, 1 / 12))
        # 2 * (1/3) + 0.5 - 1/3 - 1 = -1/6
        assert eval_belief_expr(f.expr, uniform) == pytest.approx(-1 / 6)

    def test_reserved_words_rejected_as_names(self, mht):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("in(F)", mht)

    def test_text_renders_and_reparses(self, mht, mht_formula):
        text = formula_text(mht_formula)
        again = parse_formula(text, mht)
        assert again == mht_formula


NESTED_TEXT = {
    "parentheses": lambda n: "(" * n + "in(lit)" + ")" * n,
    "next chain": lambda n: "X " * n + "in(lit)",
    "eventually chain": lambda n: "F " * n + "in(lit)",
    "until chain": lambda n: "in(lit) U " * n + "in(lit)",
    "conjunction chain": lambda n: " & ".join(["in(lit)"] * (n + 1)),
    "belief parentheses": lambda n: "[" + "(" * n + "P(lit)" + ")" * n + " < 0.5]",
}


# The grammar's characters, words and numbers, and characters outside it.
GRAMMAR_PIECES = [
    *"()[]<|&!+-*_ \n\t0123456789eE",
    "=>", "X", "F", "U", "in", "P", "H", "room1", "in(room1)", "[P(surv1) < 0.9]",
    "1.5", "2e-3", "1e", "# comment",
]
STRAY_PIECES = ["=", ">", ".", "1.", ".5", "$", "\u00e9", "\u00a0", "#"]
formula_texts = st.one_of(
    st.lists(st.sampled_from(GRAMMAR_PIECES), max_size=40),
    st.lists(st.sampled_from(GRAMMAR_PIECES + STRAY_PIECES), max_size=40),
).map("".join)


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except FormulaSyntaxError as exc:
        return str(exc), exc.position


@settings(deadline=None, max_examples=400)
@given(formula_texts)
def test_tokenizer_matches_the_referee(text):
    """The same tokens, then the end token, or the same error at the same
    position; a comment runs to the end of its line, so a stray character
    inside one is no error."""
    got = _tokens_or_error(_tokenize, text)
    want = _tokens_or_error(tokenize_referee, text)
    if isinstance(want, list):
        assert got[:-1] == want
        kind, end, pos = got[-1]
        assert (kind, repr(end), pos) == (None, "end of input", len(text))
    else:
        assert got == want


class TestNestingBound:
    """Formulas up to ``MAX_NESTING`` levels deep, parsed or built, monitor
    under the default recursion limit; one level deeper is a syntax error."""

    @pytest.mark.parametrize("shape", sorted(NESTED_TEXT))
    def test_deepest_accepted_formula_runs(self, shape):
        pomdp = tiny_two_state()
        formula = parse_formula(NESTED_TEXT[shape](MAX_NESTING), pomdp)
        assert formula_atoms(map_atoms(formula, lambda atom: atom))
        compile_monitor(formula)
        execution = execution_from_actions(pomdp, ["poke"] * 3, ["lo", "hi", "lo"])
        report = acceptance_probability(pomdp, formula, execution)
        assert 0.0 <= report.probability <= 1.0

    @pytest.mark.parametrize("shape", sorted(NESTED_TEXT))
    def test_one_level_deeper_is_a_syntax_error(self, shape):
        with pytest.raises(FormulaSyntaxError, match=f"deeper than {MAX_NESTING} levels"):
            parse_formula(NESTED_TEXT[shape](MAX_NESTING + 1), tiny_two_state())

    @pytest.mark.parametrize("text", ["(" * 300 + "in(lit)" + ")" * 300, "X " * 2000 + "in(lit)"])
    def test_far_too_deep_text_is_a_syntax_error(self, text):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(text, tiny_two_state())

    def test_deep_implication_antecedent_is_a_syntax_error(self):
        text = "(" + " & ".join(["in(lit)"] * (MAX_NESTING + 2)) + " => in(lit))"
        with pytest.raises(FormulaSyntaxError, match="deeper than"):
            parse_formula(text, tiny_two_state())

    def test_deepest_api_formula_monitors(self):
        pomdp = tiny_two_state()
        lit = parse_formula("in(lit)", pomdp)
        execution = execution_from_actions(pomdp, ["poke"] * 3, ["lo", "hi", "lo"])
        # F F ... F in(lit) holds exactly when F in(lit) does.
        deep = acceptance_probability(pomdp, _chain(Eventually, lit, MAX_NESTING), execution)
        shallow = acceptance_probability(pomdp, Eventually(lit), execution)
        assert 0.0 < deep.probability == shallow.probability < 1.0
        # No path of four positions satisfies a hundred nested X.
        nexts = _chain(Next, lit, MAX_NESTING)
        assert acceptance_probability_oracle(pomdp, nexts, execution) == 0.0
        CompiledMonitor(nexts)
        Dfa(_chain(Next, PropAtom(0), MAX_NESTING), 1)

    @pytest.mark.parametrize("levels", [MAX_NESTING + 1, 2000])
    def test_deeper_api_formula_is_a_syntax_error(self, levels):
        # The bound holds when a node is built, so no formula or skeleton
        # deeper than it exists for any later walk to overflow on.
        lit = parse_formula("in(lit)", tiny_two_state())
        for leaf in (lit, PropAtom(0)):
            with pytest.raises(FormulaSyntaxError, match=f"deeper than {MAX_NESTING} levels"):
                _chain(Next, leaf, levels)


_BELIEF_LEVELS = [
    Neg,
    lambda e: Add(e, Const(0.25)),
    lambda e: Add(Const(-0.5), e),
    lambda e: Mul(e, Const(2.0)),
    lambda e: Mul(Const(0.5), e),
]


def _formula_levels(lit):
    """One-argument builders of a formula level over ``lit``."""
    return [
        Next,
        Eventually,
        lambda f: And(f, lit),
        lambda f: Or(lit, f),
        lambda f: Until(lit, f),
        lambda f: Until(f, lit),
    ]


@settings(deadline=None, max_examples=60)
@given(
    levels=st.one_of(
        st.integers(0, 3000), st.integers(MAX_NESTING - 3, MAX_NESTING + 3), st.just(MAX_NESTING)
    ),
    belief_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_api_chains_are_bounded_where_built(levels, belief_share, seed):
    """A chain built through the API raises exactly at its first level past
    ``MAX_NESTING``; a shallower one survives every recursive walk, and its
    unpickled copy keeps its height."""
    rng = random.Random(seed)
    pomdp = tiny_two_state()
    lit = parse_formula("in(lit)", pomdp)
    # ``belief`` levels of one belief atom (expression levels over P(lit),
    # then the atom), then formula levels; with none, the chain is on in(lit).
    belief = round(belief_share * levels)
    builders = [rng.choice(_BELIEF_LEVELS) for _ in range(belief - 1)]
    builders += [BeliefAtom] if belief else []
    builders += [rng.choice(_formula_levels(lit)) for _ in range(levels - len(builders))]
    node = Prob("lit", frozenset({1})) if belief else lit
    for level, build in enumerate(builders, start=1):
        if level > MAX_NESTING:
            with pytest.raises(FormulaSyntaxError, match=f"deeper than {MAX_NESTING} levels"):
                build(node)
            return
        node = build(node)
    unpickled = pickle.loads(pickle.dumps(node))
    assert repr(unpickled) == repr(node) and unpickled == node
    assert hash(unpickled) == hash(node)
    assert formula_text(node)
    compile_monitor(node)
    execution = execution_from_actions(pomdp, ["poke"] * 3, ["lo", "hi", "lo"])
    assert 0.0 <= acceptance_probability(pomdp, node, execution).probability <= 1.0
    deepest = _chain(Next, unpickled, MAX_NESTING - levels)
    with pytest.raises(FormulaSyntaxError, match=f"deeper than {MAX_NESTING} levels"):
        Next(deepest)


def _chain(op, formula, levels: int):
    """``formula`` under ``levels`` nested ``op`` operators, built through
    the API rather than parsed."""
    for _ in range(levels):
        formula = op(formula)
    return formula


class TestEvalBeliefExpr:
    def test_const(self):
        b = Belief(np.array([1.0]))
        assert eval_belief_expr(Const(-1.0), b) == -1.0

    def test_entropy_threshold_gap(self, mht):
        f = parse_formula("[H(hyp) - 0.8 < 0]", mht)
        assert eval_belief_expr(f.expr, mht.prior) == pytest.approx(math.log2(3) - 0.8)

    def test_full_set_mass(self, mht):
        expr = Prob("all", frozenset(range(12)))
        assert eval_belief_expr(expr, mht.prior) == pytest.approx(1.0)


def mht_word(mht, num_tails=4, choose=True):
    """Word from the tails-only record, hidden coin 1 throughout."""
    actions = [mht.action_index["observe"]] * num_tails
    observations = [mht.obs_index["tails"]] * num_tails
    if choose:
        actions.append(mht.action_index["choose1"])
        observations.append(mht.obs_index["null"])
    beliefs = filter_run(mht, actions, observations)
    watch = mht.state_index["coin1_watch"]
    chosen = mht.state_index["coin1_chose1"]
    states = [watch] * (num_tails + 1) + ([chosen] if choose else [])
    return list(zip(states, beliefs))


class TestSemantics:
    def test_state_atom_at_first_position(self, mht):
        word = mht_word(mht, choose=False)
        f = parse_formula("in(watching)", mht)
        assert semantics_eval(f, word, 0)
        assert not semantics_eval(parse_formula("in(chosen1)", mht), word, 0)

    def test_next_at_last_position_is_false(self, mht):
        word = mht_word(mht, choose=False)
        f = parse_formula("X in(watching)", mht)
        assert not semantics_eval(f, word, len(word) - 1)

    def test_commitment_formula_on_reference_word(self, mht, mht_formula):
        word = mht_word(mht, choose=True)
        # Vacuously true at position 0: the uniform prior has high entropy.
        assert semantics_eval(mht_formula, word, 0)
        # At the confident position the commitment must actually follow.
        assert semantics_eval(mht_formula, word, 4)
        without_choice = mht_word(mht, choose=False)
        assert not semantics_eval(mht_formula, without_choice, 4)

    def test_until_needs_prefix(self, mht):
        word = mht_word(mht, choose=True)
        f = parse_formula("in(watching) U in(chosen1)", mht)
        assert semantics_eval(f, word, 0)
        f_bad = parse_formula("in(chosen2) U in(chosen1)", mht)
        assert not semantics_eval(f_bad, word, 0)

    def test_strict_zero_boundary(self):
        b = Belief(np.array([1.0]))
        word = [(0, b)]
        zero_atom = BeliefAtom(Const(0.0))
        assert not semantics_eval(zero_atom, word, 0)
        assert semantics_eval(BeliefAtom(Const(0.0), negated=True), word, 0)

    def test_only_minus_one_set_mass_is_read_by_its_exact_sign(self):
        """Minus one set mass holds on any value below zero; every other
        expression, every parsed atom among them, holds only below the band."""
        pomdp = tiny_two_state()
        belief = Belief(np.array([1 - 1e-14, 1e-14]))
        lit = frozenset(pomdp.named_sets["lit"])
        exprs = [Neg(Prob("lit", lit)), parse_formula("[0 < P(lit)]", pomdp).expr]
        verdicts = [semantics_eval(BeliefAtom(e), [(0, belief)], 0) for e in exprs]
        assert verdicts == [True, False]
        assert [exact_sign(e) for e in exprs] == verdicts


class TestSemanticsProperties:
    def test_implication_sugar_matches_direct_reading(self):
        # Random antecedents (Boolean combinations of atoms) and consequents,
        # rebuilt through the concrete syntax, against the unrewritten reading.
        rng = random.Random(42)
        from helpers import random_cosafe_formula
        from dtlmon.logic import formula_text

        from dtlmon.logic import And, Or

        def boolean_only(f):
            if isinstance(f, (StateAtom, BeliefAtom)):
                return True
            if isinstance(f, (And, Or)):
                return boolean_only(f.left) and boolean_only(f.right)
            return False

        checked = 0
        while checked < 1000:
            pomdp = random_pomdp(rng)
            antecedent = random_cosafe_formula(rng, pomdp, max_depth=2)
            if not boolean_only(antecedent):
                continue
            consequent = random_cosafe_formula(rng, pomdp, max_depth=3)
            text = f"({formula_text(antecedent)} => {formula_text(consequent)})"
            sugar = parse_formula(text, pomdp)
            for _ in range(5):
                word = random_trace_word(rng, pomdp)
                direct = (not semantics_eval(antecedent, word, 0)) or semantics_eval(
                    consequent, word, 0
                )
                assert semantics_eval(sugar, word, 0) == direct, text
                checked += 1

    def test_atom_duality(self):
        rng = random.Random(9)
        for _ in range(200):
            pomdp = random_pomdp(rng)
            word = random_trace_word(rng, pomdp)
            name = rng.choice(list(pomdp.named_sets))
            atom = StateAtom(name, frozenset(pomdp.named_sets[name]), pomdp.num_states)
            neg = StateAtom(name, atom.indices, pomdp.num_states, negated=True)
            ix = rng.randrange(len(word))
            assert semantics_eval(atom, word, ix) != semantics_eval(neg, word, ix)
            bexpr = BeliefAtom(Sub(Prob(name, atom.indices), Const(0.5)))
            bneg = BeliefAtom(bexpr.expr, negated=True)
            assert semantics_eval(bexpr, word, ix) != semantics_eval(bneg, word, ix)

    def test_eventually_equals_true_until(self):
        rng = random.Random(17)
        for _ in range(200):
            pomdp = random_pomdp(rng)
            word = random_trace_word(rng, pomdp)
            name = rng.choice(list(pomdp.named_sets))
            target = StateAtom(name, frozenset(pomdp.named_sets[name]), pomdp.num_states)
            full = StateAtom("all", frozenset(range(pomdp.num_states)), pomdp.num_states)
            assert semantics_eval(Eventually(target), word, 0) == semantics_eval(
                Until(full, target), word, 0
            )


class TestNodeHash:
    """A node keeps its hash once computed; nothing else about it changes."""

    def test_equal_formulas_hash_equal(self, mht, mht_formula):
        text = formula_text(mht_formula)
        first, second = parse_formula(text, mht), parse_formula(text, mht)
        assert first is not second
        hash(first)
        assert first == second and hash(first) == hash(second)
        assert hash(second) == hash(parse_formula(text, mht))

    def test_replace_equality_and_repr_ignore_the_kept_hash(self):
        atom = StateAtom("a", frozenset({1}), 3)
        hash(atom)
        flipped = dataclasses.replace(atom, negated=True)
        assert flipped == StateAtom("a", frozenset({1}), 3, negated=True)
        assert hash(flipped) == hash(StateAtom("a", frozenset({1}), 3, negated=True))
        assert flipped != atom
        assert repr(atom) == (
            "StateAtom(name='a', indices=frozenset({1}), num_states=3, negated=False)"
        )

    def test_callbacks_still_hash_by_function_identity(self):
        def fn(belief):
            return 0.0

        def other(belief):
            return 0.0

        same = Callback("c", fn)
        assert same == Callback("c", fn) and hash(same) == hash(Callback("c", fn))
        assert same != Callback("c", other)

    def test_pickled_node_drops_the_kept_hash(self, mht_formula):
        hash(mht_formula)
        copy = pickle.loads(pickle.dumps(mht_formula))
        assert copy == mht_formula and copy._hash is None
        assert hash(copy) == hash(mht_formula)

    def test_warm_compile_hashes_no_child_node(self, mht_formula, monkeypatch):
        compiled = compile_monitor(mht_formula)
        hashed = []
        for cls in {type(node) for node in _nodes(mht_formula)}:

            def counted(self, original=cls.__hash__):
                hashed.append(self)
                return original(self)

            monkeypatch.setattr(cls, "__hash__", counted)
        assert compile_monitor(mht_formula) is compiled
        assert all(node is mht_formula for node in hashed)


def _nodes(formula):
    """Every node of a formula tree, belief expressions included."""
    stack, out = [formula], []
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(
            getattr(node, name)
            for name in ("left", "right", "child", "expr", "operand")
            if hasattr(node, name)
        )
    return out


def _negate_atom(atom):
    return dataclasses.replace(atom, negated=not atom.negated)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 10**9))
def test_map_atoms_rebuilds_the_formula_around_mapped_atoms(seed):
    rng = random.Random(seed)
    formula = random_cosafe_formula(rng, random_pomdp(rng))
    assert map_atoms(formula, lambda atom: atom) == formula
    negated = map_atoms(formula, _negate_atom)
    assert formula_atoms(negated) == [_negate_atom(a) for a in formula_atoms(formula)]
    assert not any(isinstance(a, StateAtom) for a in formula_atoms(relax(formula)))
