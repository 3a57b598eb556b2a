"""The compiled state-set reader against the 1-d references.

``StateSetReader`` sums each set as a column of an incidence matrix, in
whatever order BLAS picks, so its masses and entropies agree with
``marginal_prob``, ``marginal_dist`` and ``entropy_bits`` within the
rounding bound of their sum length.  Threshold verdicts, decided by the
tie band of ``below_zero``, agree exactly.  Set sizes run past the sizes
where numpy's and BLAS's summation orders change (8 and 128 terms).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtlmon.errors import ModelError
from dtlmon.logic import BeliefAtom, Const, Prob, Sub, semantics_eval
from dtlmon.model import (
    Belief,
    StateSetReader,
    below_zero,
    entropy_bits,
    marginal_dist,
    marginal_prob,
)
from dtlmon.monitor import compile_monitor, region_signature

from helpers import entropy_gap_bound, incidence_referee, mass_gap_bound

BLOCK_EDGES = (1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257, 300)
THRESHOLDS = (0.9, 0.25)  # the rescue study's p1 and p2


def set_sizes():
    return st.one_of(st.integers(0, 300), st.sampled_from(BLOCK_EDGES))


@st.composite
def reader_cases(draw):
    """Beliefs over up to 320 states, some entries exactly zero, with sets
    of mixed sizes and factors of 1 to 12 cells in a random order."""
    num_states = draw(st.integers(1, 320))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_share = draw(st.sampled_from((0.0, 0.5, 0.95)))
    rows = draw(st.integers(1, 4))
    probs = rng.random((rows, num_states)) * (rng.random((rows, num_states)) >= zero_share)
    probs[np.arange(rows), rng.integers(num_states, size=rows)] = 1.0
    beliefs = [Belief(row / row.sum()) for row in probs]
    sets = [
        frozenset(rng.choice(num_states, size=min(size, num_states), replace=False).tolist())
        for size in draw(st.lists(set_sizes(), min_size=0, max_size=6))
    ]
    factors = []
    for count in draw(st.lists(st.integers(1, 12), min_size=0, max_size=4)):
        order = rng.permutation(num_states)
        assign = rng.integers(count, size=num_states)
        factors.append(tuple(tuple(int(s) for s in order if assign[s] == k) for k in range(count)))
    return beliefs, sets, factors


def _assert_matches_references(reader, sets, factors, belief, masses, entropies):
    n = len(belief)
    for k, states in enumerate(sets):
        mass = marginal_prob(belief, states)
        assert abs(masses[reader.set_columns[k]] - mass) <= mass_gap_bound(n, mass)
    for f, cells in enumerate(factors):
        dist = marginal_dist(belief, cells)
        for c, mass in zip(reader.cell_columns[f], dist):
            assert abs(masses[c] - mass) <= mass_gap_bound(n, mass)
        assert abs(entropies[f] - entropy_bits(dist)) <= entropy_gap_bound(n, dist)
    assert masses[-1] == 0.0  # the empty column that pads the factors


@settings(deadline=None, max_examples=200)
@given(reader_cases())
def test_one_belief_matches_references(case):
    beliefs, sets, factors = case
    reader = StateSetReader(sets, factors)
    for belief in beliefs:
        masses, entropies = reader.read(belief.probs)
        assert masses.shape == (len(reader.columns) + 1,)
        assert entropies.shape == (len(factors),)
        _assert_matches_references(reader, sets, factors, belief, masses, entropies)


@settings(deadline=None, max_examples=200)
@given(reader_cases())
def test_stacked_beliefs_match_references(case):
    beliefs, sets, factors = case
    reader = StateSetReader(sets, factors)
    masses, entropies = reader.read(np.stack([b.probs for b in beliefs]))
    assert masses.shape == (len(beliefs), len(reader.columns) + 1)
    assert entropies.shape == (len(beliefs), len(factors))
    for r, belief in enumerate(beliefs):
        _assert_matches_references(reader, sets, factors, belief, masses[r], entropies[r])


@settings(deadline=None, max_examples=100)
@given(reader_cases())
def test_no_factors_skip_the_entropy_pass(case):
    beliefs, sets, _ = case
    reader = StateSetReader(sets)
    for probs in (beliefs[0].probs, np.stack([b.probs for b in beliefs])):
        masses, entropies = reader.read(probs)
        # The full pass, over no factor cells.
        full = probs @ reader.incidence(probs.shape[-1])
        cells = full.take(reader._cells, axis=-1)
        full_entropies = 0.0 - (cells * np.log2(np.where(cells > 0, cells, 1.0))).sum(axis=-1)
        assert np.array_equal(masses, full)
        assert entropies.shape == full_entropies.shape == probs.shape[:-1] + (0,)
        assert entropies.dtype == full_entropies.dtype

@st.composite
def tie_cases(draw):
    """A pmf whose mass on one set, summed as ``marginal_prob`` sums it, is a
    rescue threshold or one ulp to either side; the mass is shared unevenly
    by up to 300 members, so the sum depends on the order of its terms."""
    size = draw(set_sizes().filter(lambda n: n >= 3))
    num_states = size + draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    threshold = draw(st.sampled_from(THRESHOLDS))
    target = float(np.nextafter(threshold, threshold + draw(st.sampled_from((-1, 0, 1)))))
    order = rng.permutation(num_states)
    members, outside = np.sort(order[:size]), order[size:]
    weights = rng.random(size) + 0.01
    probs = np.zeros(num_states)
    probs[members] = target * weights / weights.sum()
    for _ in range(8):  # nudge the largest share until the set sums to the target
        gap = target - float(probs[members].sum())
        if gap == 0.0:
            break
        probs[members[int(np.argmax(weights))]] += gap
    probs[outside] = (1.0 - float(probs[members].sum())) / len(outside)
    return frozenset(members.tolist()), threshold, Belief(probs)


@settings(deadline=None, max_examples=150)
@given(tie_cases())
def test_threshold_ties_read_like_marginal_prob(case):
    states, threshold, belief = case
    reader = StateSetReader([states, frozenset(range(len(belief)))])
    masses, _ = reader.read(belief.probs)
    mass, reference = masses[reader.set_columns[0]], marginal_prob(belief, states)
    assert abs(mass - reference) <= mass_gap_bound(len(belief), reference)
    assert below_zero(threshold - mass) == below_zero(threshold - reference)


@settings(deadline=None, max_examples=150)
@given(tie_cases())
def test_threshold_ties_are_not_above(case):
    """A mass at its threshold or one ulp to either side is not above it,
    for the monitor, its reference and the oracle's semantics, and for a
    policy's read through the band."""
    states, threshold, belief = case
    atom = BeliefAtom(Sub(Const(threshold), Prob("A", states)))  # [threshold < P(A)]
    comp = compile_monitor(atom)
    assert comp.predicates.signatures(belief.probs[None]) == [0]
    assert region_signature(belief, comp) == 0
    assert not semantics_eval(atom, [(0, belief)])
    reader = StateSetReader([states])
    masses, _ = reader.read(belief.probs)
    assert not below_zero(threshold - masses[reader.set_columns[0]])


def test_empty_set_and_padded_factors():
    belief = Belief(np.array([0.5, 0.0, 0.25, 0.25]))
    factors = [((0,), (1, 2), (3,)), ((3, 0), (2, 1)), tuple((i,) for i in range(4)) + ((),) * 5]
    reader = StateSetReader([frozenset(), frozenset({1})], factors)
    masses, entropies = reader.read(belief.probs)
    _assert_matches_references(reader, [frozenset(), frozenset({1})], factors, belief, masses, entropies)
    assert reader.columns[0] == frozenset()
    # Cell masses 1/2, 1/4 and 1/4: every term is exact.
    assert entropies[0] == 1.5


def test_gather_matrices_are_read_only():
    reader = StateSetReader([frozenset({0, 1}), frozenset({2})], [((0,), (1, 2))])
    matrix = reader.incidence(3)
    assert matrix.tolist() == [[1, 0, 1, 0, 0], [1, 0, 0, 1, 0], [0, 1, 0, 1, 0]]
    assert reader.incidence(3) is matrix
    for array in (matrix, reader._cells):
        assert not array.flags.writeable
    assert reader._cells.dtype == np.intp


def test_range_check():
    StateSetReader([frozenset({0, 4})], [((0,), (1, 2))]).incidence(5)
    for sets, factors in (([frozenset({0, 4})], []), ([frozenset({-1})], []), ([], [((0,), (4,))])):
        reader = StateSetReader(sets, factors)
        with pytest.raises(ModelError, match="state set out of range"):
            reader.incidence(4)
        with pytest.raises(ModelError, match="state set out of range"):
            reader.read(np.full(4, 0.25))


@st.composite
def set_families(draw):
    """Sets and factor cells over up to 80 states: random, empty and full
    sets, repeats, and now and then one out-of-range index."""
    num_states = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = [frozenset(), frozenset(range(num_states))]
    for _ in range(draw(st.integers(0, 10))):
        size = int(rng.integers(0, num_states + 1))
        pool.append(frozenset(rng.choice(num_states, size=size, replace=False).tolist()))
    sets = [pool[int(k)] for k in rng.integers(len(pool), size=int(rng.integers(0, 8)))]
    factors = []
    for count in draw(st.lists(st.integers(1, 6), max_size=3)):
        assign = rng.integers(count, size=num_states)
        factors.append(tuple(tuple(np.flatnonzero(assign == k).tolist()) for k in range(count)))
    if draw(st.integers(0, 4)) == 0:
        sets.append(frozenset({draw(st.sampled_from((-1, num_states, num_states + 5)))}))
    return num_states, sets, factors


@settings(deadline=None, max_examples=200)
@given(set_families())
def test_incidence_matches_the_per_column_referee(case):
    num_states, sets, factors = case
    reader = StateSetReader(sets, factors)
    try:
        want = incidence_referee(reader.columns, num_states)
    except ModelError as exc:
        with pytest.raises(ModelError, match=str(exc)):
            reader.incidence(num_states)
        return
    got = reader.incidence(num_states)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert not got.flags.writeable
