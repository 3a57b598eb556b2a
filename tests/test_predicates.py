"""Compiled belief predicates against the reference evaluator.

Values agree within the rounding bound of their sums; verdicts, decided by
the tie band of ``below_zero``, agree exactly."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtlmon.errors import ModelError
from dtlmon.logic import (
    Add,
    Callback,
    Const,
    EntropyBits,
    Mul,
    Neg,
    Prob,
    Sub,
    eval_belief_expr,
)
from dtlmon.model import TIE_TOL, Belief, below_zero, marginal_dist, marginal_prob, simulate
from dtlmon.monitor import (
    BeliefPredicates,
    acceptance_probability,
    compile_monitor,
    region_signature,
)
from dtlmon.studies import EntropyCutoffPolicy, TimeSharePolicy, build_rescue, trial_seed

from helpers import (
    UNIT_ROUNDOFF,
    entropy_gap_bound,
    mass_gap_bound,
    random_cosafe_formula,
    random_execution,
    random_pomdp,
)

MAX_STATES = 16


def _first_mass_minus_half(belief):
    return belief[0] - 0.5


FIRST_MASS = Callback("first_mass", _first_mass_minus_half)


@st.composite
def beliefs(draw, num_states):
    """Normalized belief vectors with some exactly-zero entries."""
    rows = draw(st.integers(1, 6))
    out = []
    for _ in range(rows):
        weights = draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(1e-9, 1.0)),
                min_size=num_states,
                max_size=num_states,
            )
        )
        weights[draw(st.integers(0, num_states - 1))] = 1.0
        arr = np.array(weights)
        out.append(Belief(arr / arr.sum()))
    return out


@st.composite
def cells(draw, num_states):
    """A partition of the states in a random order, possibly with empty cells."""
    count = draw(st.integers(1, 12))
    order = draw(st.permutations(range(num_states)))
    assign = draw(st.lists(st.integers(0, count - 1), min_size=num_states, max_size=num_states))
    return tuple(tuple(s for s in order if assign[s] == k) for k in range(count))


def prob_leaves(num_states):
    states = range(num_states)
    return st.one_of(
        st.frozensets(st.sampled_from(states)).map(lambda ix: Prob("A", ix)),
        st.just(Prob("all", frozenset(states))),
    )


def leaf_exprs(num_states):
    return st.one_of(
        st.floats(-2.0, 2.0).map(Const),
        prob_leaves(num_states),
        cells(num_states).map(lambda c: EntropyBits("F", c)),
    )


def atom_exprs(num_states):
    """The shapes of almost every atom a formula carries: a parsed atom
    ``Sub(leaf, leaf)`` and a relaxed hidden-state atom ``Neg(Prob)``."""
    leaves = leaf_exprs(num_states)
    return st.one_of(
        st.tuples(leaves, leaves).map(lambda t: Sub(*t)),
        prob_leaves(num_states).map(Neg),
    )


def belief_exprs(num_states):
    leaves = st.one_of(leaf_exprs(num_states), st.just(FIRST_MASS))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            inner.map(Neg),
            st.tuples(inner, inner).map(lambda t: Add(*t)),
            st.tuples(inner, inner).map(lambda t: Sub(*t)),
            st.tuples(inner, inner).map(lambda t: Mul(*t)),
        ),
        max_leaves=6,
    )


@st.composite
def cases(draw):
    num_states = draw(st.integers(1, MAX_STATES))
    exprs = draw(
        st.lists(st.one_of(atom_exprs(num_states), belief_exprs(num_states)), min_size=1, max_size=8)
    )
    return exprs, draw(beliefs(num_states))


def gap_bound(expr, belief) -> tuple[float, float]:
    """``eval_belief_expr(expr, belief)`` and a bound on its gap to any
    evaluation that sums the same masses in other orders: the mass and
    entropy bounds at the leaves, carried through each operation, which
    rounds on both sides."""
    n = len(belief)
    if isinstance(expr, Const):
        return expr.value, 0.0
    if isinstance(expr, Callback):
        return float(expr.fn(belief)), 0.0
    if isinstance(expr, Prob):
        mass = marginal_prob(belief, expr.indices)
        return mass, mass_gap_bound(n, mass)
    if isinstance(expr, EntropyBits):
        return eval_belief_expr(expr, belief), entropy_gap_bound(n, marginal_dist(belief, expr.cells))
    if isinstance(expr, Neg):
        value, gap = gap_bound(expr.operand, belief)
        return -value, gap
    (left, left_gap), (right, right_gap) = gap_bound(expr.left, belief), gap_bound(expr.right, belief)
    if isinstance(expr, Mul):
        value = left * right
        gap = abs(left) * right_gap + abs(right) * left_gap + left_gap * right_gap
    else:
        value = left + right if isinstance(expr, Add) else left - right
        gap = left_gap + right_gap
    return value, gap + 3 * UNIT_ROUNDOFF * (abs(value) + gap)


def assert_values_match(exprs, bels):
    values = BeliefPredicates(exprs).values(np.stack([b.probs for b in bels]))
    assert values.shape == (len(exprs), len(bels))
    for j, expr in enumerate(exprs):
        for r, belief in enumerate(bels):
            reference, gap = gap_bound(expr, belief)
            assert reference == eval_belief_expr(expr, belief)
            assert abs(values[j, r] - reference) <= gap, (expr, r)
            if abs(reference + TIE_TOL) > gap:  # off the band's edge, the verdict is exact
                assert below_zero(values[j, r]) == below_zero(reference), (expr, r)


_MANY_CELLS = tuple((i,) for i in range(9)) + ((9, 10, 11),)
_SHAPES_BELIEFS = [
    Belief(np.array([0.3, 0.0, 0.1, 0.0, 0.05, 0.05, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05])),
    Belief(np.array([0.0, 0.0, 1.0] + [0.0] * 9)),
]


@settings(deadline=None, max_examples=300)
@given(cases())
@example(
    (
        [
            Neg(Prob("zero", frozenset({1, 3}))),  # -0.0
            Sub(Prob("A", frozenset({0, 2, 5})), Prob("B", frozenset({2, 7, 8, 9}))),
            Sub(Const(0.5), Const(0.25)),
            Sub(EntropyBits("many", _MANY_CELLS), Const(1.5)),
            Sub(Const(0.9), EntropyBits("many", _MANY_CELLS)),
            FIRST_MASS,
            Sub(FIRST_MASS, Prob("A", frozenset({0, 2, 5}))),
        ],
        _SHAPES_BELIEFS,
    )
)
def test_values_match_reference_within_sum_bound(case):
    exprs, bels = case
    assert_values_match(exprs, bels)


def test_fixed_shapes_match_reference():
    # Pin the cases the property is meant to cover: empty, full and
    # 8-or-more-element sets, entropies of fewer and of more than 8 cells
    # with zero-mass cells, and a callback.
    rng = np.random.default_rng(3)
    n = 12
    probs = rng.random((5, n)) * (rng.random((5, n)) > 0.3)
    probs[:, 0] += 0.1
    bels = [Belief(row / row.sum()) for row in probs]
    few = tuple((i, i + 1, i + 2) for i in range(0, n, 3))
    many = tuple((i,) for i in range(n)) + ((),)
    exprs = [
        Prob("none", frozenset()),
        Neg(Prob("none", frozenset())),
        Prob("all", frozenset(range(n))),
        Sub(Const(0.9), Prob("nine", frozenset(range(1, 10)))),
        EntropyBits("few", few),
        EntropyBits("many", many),
        Mul(Add(EntropyBits("many", many), Const(-1.5)), Neg(FIRST_MASS)),
    ]
    assert_values_match(exprs, bels)


@pytest.mark.parametrize(
    "expr",
    [
        Prob("far", frozenset({0, 4})),
        Prob("neg", frozenset({-1})),
        EntropyBits("far", ((0, 1), (2, 4))),
        EntropyBits("neg", ((0, 1), (2, -1))),
    ],
)
def test_out_of_range_sets_rejected_like_reference(expr):
    bels = [Belief(np.full(4, 0.25))]
    with pytest.raises(ModelError, match="state set out of range"):
        eval_belief_expr(expr, bels[0])
    with pytest.raises(ModelError, match="state set out of range"):
        BeliefPredicates([expr]).values(np.stack([b.probs for b in bels]))


def _labels_from_signatures(formula, execution):
    comp = compile_monitor(formula)
    return tuple(
        frozenset(j for j in range(len(comp.belief_props)) if (sig >> j) & 1)
        for sig in (region_signature(b, comp) for b in execution.beliefs)
    )


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 10**9))
def test_step_labels_match_region_signature(seed):
    rng = random.Random(seed)
    pomdp = random_pomdp(rng)
    formula = random_cosafe_formula(rng, pomdp)
    execution = random_execution(pomdp, rng)
    report = acceptance_probability(pomdp, formula, execution)
    assert report.step_labels == _labels_from_signatures(formula, execution)


def test_rescue_near_ties_match_region_signature():
    # The rescue thresholds sit within 1e-16 of zero on many steps, so any
    # change in summation order would show up here.
    pomdp, formula = build_rescue()
    for policy in (TimeSharePolicy(3), EntropyCutoffPolicy(0.3, 0.3, 2)):
        for k in range(25):
            _, execution = simulate(pomdp, policy, 16, trial_seed(2024, k))
            report = acceptance_probability(pomdp, formula, execution)
            assert report.step_labels == _labels_from_signatures(formula, execution)
