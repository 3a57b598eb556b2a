"""Model construction, filtering, simulation, and belief functionals."""

import copy
import json
import math
import pickle
import random
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtlmon import model as model_module
from dtlmon.errors import ModelError, ZeroLikelihood
from dtlmon.model import (
    Belief,
    Execution,
    Policy,
    Pomdp,
    RandomActionPolicy,
    ScriptedPolicy,
    StateSetReader,
    TIE_TOL,
    bayes_update,
    below_zero,
    entropy_bits,
    execution_from_actions,
    filter_run,
    marginal_dist,
    marginal_prob,
    simulate,
)
from dtlmon.studies import build_mht, build_rescue, rescue_policies, trial_seed

from helpers import (
    brute_force_posterior,
    grid_walk,
    random_pomdp,
    sample_referee,
    tiny_two_state,
)


@pytest.fixture(scope="module")
def mht():
    pomdp, _ = build_mht(0.25, 0.5, 0.75, 0.8)
    return pomdp


def pickle_round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


def hyp_marginal(pomdp, belief):
    return marginal_dist(belief, pomdp.factor_cells["hyp"])


class TestBelief:
    def test_rejects_negative_entries(self):
        with pytest.raises(ModelError):
            Belief(np.array([1.2, -0.2]))

    def test_rejects_bad_mass(self):
        with pytest.raises(ModelError):
            Belief(np.array([0.5, 0.4]))

    def test_rejects_nan_entries(self):
        with pytest.raises(ModelError):
            Belief(np.array([math.nan, 1.0]))

    def test_is_read_only(self):
        b = Belief(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            b.probs[0] = 1.0


class TestPublicBeliefValidation:
    @pytest.mark.parametrize(
        "probs, message",
        [
            ([math.nan, 1.0], "belief entries must be nonnegative"),
            ([1.0, math.nan], "belief entries must be nonnegative"),
            ([1.2, -0.2], "belief entries must be nonnegative"),
            ([0.5, 0.4], "belief mass 0.9 is not 1 within"),
            ([math.inf, 1.0], "belief mass inf is not 1 within"),
            ([], "belief must be a nonempty 1-d vector"),
        ],
    )
    def test_rejects(self, probs, message):
        with pytest.raises(ModelError, match=message):
            Belief(np.array(probs))

    def test_copies_its_input(self):
        source = np.array([0.25, 0.75])
        belief = Belief(source)
        source[0] = 0.5
        assert belief.probs.tolist() == [0.25, 0.75]


def _reference_update(pomdp, belief, action, obs):
    """``bayes_update`` through the public, validating constructor."""
    posterior = (belief.probs @ pomdp.trans_mat[action]) * pomdp.obs_mat[action][:, obs]
    return Belief(posterior / float(posterior.sum()))


class TestBayesUpdateResult:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**6))
    def test_bit_identical_to_validated_belief(self, seed):
        rng = random.Random(seed)
        pomdp = random_pomdp(rng)
        from helpers import consistent_record

        actions, observations = consistent_record(pomdp, rng, rng.randint(1, 8))
        belief = pomdp.prior
        for a, o in zip(actions, observations):
            want = _reference_update(pomdp, belief, a, o)
            belief = bayes_update(pomdp, belief, a, o)
            assert belief.probs.dtype == want.probs.dtype and belief.probs.shape == want.probs.shape
            assert belief.probs.tobytes() == want.probs.tobytes()

    def test_rescue_run_bit_identical(self):
        pomdp, _ = build_rescue()
        _, execution = simulate(pomdp, ScriptedPolicy(["stay", "pickup", "switch"] * 4), 12, 5)
        for i, (a, o) in enumerate(zip(execution.actions, execution.observations)):
            want = _reference_update(pomdp, execution.beliefs[i], a, o)
            assert execution.beliefs[i + 1].probs.tobytes() == want.probs.tobytes()

    def test_result_is_read_only_and_fresh(self, mht):
        belief = bayes_update(mht, mht.prior, mht.action_index["observe"], mht.obs_index["heads"])
        assert not belief.probs.flags.writeable
        assert belief.probs.base is None or not np.shares_memory(belief.probs, mht.prior.probs)
        with pytest.raises(ValueError):
            belief.probs[0] = 1.0

    def test_filter_run_zero_likelihood_text_and_step(self, mht):
        acts = [mht.action_index["choose1"], mht.action_index["observe"]]
        seq = [mht.obs_index["null"], mht.obs_index["heads"]]
        with pytest.raises(ZeroLikelihood) as err:
            filter_run(mht, acts, seq)
        assert err.value.step == 1
        assert str(err.value) == (
            "step 1: observation 'heads' has zero likelihood after action 'observe'"
        )


class TestBayesUpdate:
    def test_mht_one_heads(self, mht):
        obs = mht.action_index["observe"]
        heads = mht.obs_index["heads"]
        posterior = bayes_update(mht, mht.prior, obs, heads)
        np.testing.assert_allclose(
            hyp_marginal(mht, posterior), [1 / 6, 1 / 3, 1 / 2], atol=1e-12
        )
        # All mass stays on the watching states.
        watching = mht.named_sets["watching"]
        assert marginal_prob(posterior, watching) == pytest.approx(1.0, abs=1e-12)

    def test_mht_one_tails(self, mht):
        posterior = bayes_update(
            mht, mht.prior, mht.action_index["observe"], mht.obs_index["tails"]
        )
        np.testing.assert_allclose(
            hyp_marginal(mht, posterior), [1 / 2, 1 / 3, 1 / 6], atol=1e-12
        )

    def test_uninformative_observation_is_prediction(self):
        # A constant observation model makes the correction a no-op.
        pomdp = Pomdp(
            ["a", "b"],
            ["go"],
            ["tick"],
            [0.5, 0.5],
            {("a", "go", "b"): 1.0, ("b", "go", "a"): 0.6, ("b", "go", "b"): 0.4},
            {("a", "go", "tick"): 1.0, ("b", "go", "tick"): 1.0},
        )
        posterior = bayes_update(pomdp, pomdp.prior, 0, 0)
        predicted = pomdp.prior.probs @ pomdp.trans_mat[0]
        np.testing.assert_allclose(posterior.probs, predicted, atol=1e-12)

    def test_zero_likelihood(self, mht):
        # Committed states emit only null; heads is impossible after choosing.
        committed = bayes_update(
            mht, mht.prior, mht.action_index["choose1"], mht.obs_index["null"]
        )
        with pytest.raises(ZeroLikelihood):
            bayes_update(mht, committed, mht.action_index["observe"], mht.obs_index["heads"])

    @pytest.mark.parametrize(
        "action, obs, message",
        [
            (0.0, 0, "action 0.0 is not an integer index"),
            (True, 0, "action True is not an integer index"),
            (0, 1.0, "observation 1.0 is not an integer index"),
            (99, 0, "action 99 or observation 0 is out of range"),
            (np.int64(0), np.int64(-1), "action 0 or observation -1 is out of range"),
        ],
    )
    def test_bad_indices_raise_model_error(self, mht, action, obs, message):
        # A float or bool must not reach the tables, where 1.0 raises IndexError.
        observe, choose1 = mht.action_index["observe"], mht.action_index["choose1"]
        heads = mht.obs_index["heads"]
        with pytest.raises(ModelError, match=re.escape(message)):
            bayes_update(mht, mht.prior, action, obs)
        with pytest.raises(ModelError, match=re.escape(message)):
            filter_run(mht, [observe, action], [heads, obs])
        # The whole record is checked before its first step, here one of zero likelihood.
        with pytest.raises(ModelError, match=re.escape(f"step 1: {message}")):
            filter_run(mht, [choose1, action], [heads, obs])

    def test_numpy_integer_indices_accepted(self, mht):
        observe, heads = mht.action_index["observe"], mht.obs_index["heads"]
        want = bayes_update(mht, mht.prior, observe, heads)
        got = bayes_update(mht, mht.prior, np.int64(observe), np.intp(heads))
        assert got.probs.tobytes() == want.probs.tobytes()


class TestFilterRun:
    def test_empty_record(self, mht):
        assert filter_run(mht, [], []) == [mht.prior]

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_bayes_update_fold(self, seed):
        # Any observation may be recorded, so some records hit ZeroLikelihood.
        rng = random.Random(seed)
        pomdp = random_pomdp(rng, max_states=5, max_actions=3, max_obs=3)
        t = rng.randint(0, 8)
        actions = [rng.randrange(pomdp.num_actions) for _ in range(t)]
        observations = [rng.randrange(pomdp.num_observations) for _ in range(t)]
        want, failure = [pomdp.prior], None
        for i, (a, o) in enumerate(zip(actions, observations)):
            try:
                want.append(bayes_update(pomdp, want[-1], a, o))
            except ZeroLikelihood as exc:
                failure = (i, f"step {i}: {exc}")
                break
        if failure is not None:
            with pytest.raises(ZeroLikelihood) as err:
                filter_run(pomdp, actions, observations)
            assert (err.value.step, str(err.value)) == failure
            return
        got = filter_run(pomdp, actions, observations)
        assert got[0] is pomdp.prior
        assert [b.probs.tobytes() for b in got] == [b.probs.tobytes() for b in want]
        for belief in got[1:]:
            assert not belief.probs.flags.writeable
            assert belief.probs.base is got[1].probs.base
            assert not belief.probs.base.flags.writeable

    def test_four_tails(self, mht):
        obs = mht.action_index["observe"]
        tails = mht.obs_index["tails"]
        beliefs = filter_run(mht, [obs] * 4, [tails] * 4)
        expected = np.array([0.75**4, 0.5**4, 0.25**4])
        expected /= expected.sum()
        np.testing.assert_allclose(hyp_marginal(mht, beliefs[-1]), expected, atol=1e-12)
        np.testing.assert_allclose(
            hyp_marginal(mht, beliefs[-1]), [0.8265, 0.1633, 0.0102], atol=5e-5
        )

    def test_all_beliefs_normalized(self, mht):
        obs = mht.action_index["observe"]
        seq = [mht.obs_index[o] for o in ("heads", "tails", "tails", "heads", "tails")]
        for belief in filter_run(mht, [obs] * 5, seq):
            assert abs(float(belief.probs.sum()) - 1.0) <= 1e-9
            assert (belief.probs >= 0).all()

    def test_zero_likelihood_reports_step(self, mht):
        acts = [mht.action_index["choose1"], mht.action_index["observe"]]
        seq = [mht.obs_index["null"], mht.obs_index["heads"]]
        with pytest.raises(ZeroLikelihood) as err:
            filter_run(mht, acts, seq)
        assert err.value.step == 1

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force_enumeration(self, seed):
        rng = random.Random(seed)
        pomdp = random_pomdp(rng)
        from helpers import consistent_record

        actions, observations = consistent_record(pomdp, rng, rng.randint(1, 6))
        final = filter_run(pomdp, actions, observations)[-1]
        expected = brute_force_posterior(pomdp, actions, observations)
        np.testing.assert_allclose(final.probs, expected, atol=1e-9)


class TestSimulate:
    def test_deterministic_given_seed(self, mht):
        policy = ScriptedPolicy(["observe"] * 5)
        first = simulate(mht, policy, 5, seed=11)
        second = simulate(mht, policy, 5, seed=11)
        assert first[0] == second[0]
        assert first[1].actions == second[1].actions
        assert first[1].observations == second[1].observations
        for a, b in zip(first[1].beliefs, second[1].beliefs):
            assert np.array_equal(a.probs, b.probs)

    def test_deterministic_model_unique_path(self):
        pomdp = Pomdp(
            ["a", "b"],
            ["go"],
            ["seen"],
            [1.0, 0.0],
            {("a", "go", "b"): 1.0, ("b", "go", "b"): 1.0},
            {("a", "go", "seen"): 1.0, ("b", "go", "seen"): 1.0},
        )
        hidden, execution = simulate(pomdp, ScriptedPolicy(["go"]), 1, seed=0)
        assert hidden == [0, 1]
        assert execution.actions == (0,)
        assert execution.observations == (0,)

    def test_true_coin_heads_frequency(self, mht):
        # Pin the hidden coin to the heads-rate-0.25 one and count heads.
        doc = mht.to_json_dict()
        doc["prior"] = {"coin1_watch": 1.0}
        pinned = Pomdp.from_json_dict(doc)
        _, execution = simulate(pinned, ScriptedPolicy([], pad_action="observe"), 1000, seed=5)
        heads = mht.obs_index["heads"]
        freq = sum(1 for o in execution.observations if o == heads) / 1000
        assert freq == pytest.approx(0.25, abs=0.03)

    @pytest.mark.parametrize("action", [0.0, 1.0, "0", None, True, -1, 4])
    def test_policy_action_must_be_an_index_in_range(self, mht, action):
        class Fixed(Policy):
            def act(self, belief, step):
                return action

        with pytest.raises(ModelError, match=re.escape(f"policy returned invalid action {action!r}")):
            simulate(mht, Fixed(), 3, seed=0)

    def test_numpy_policy_action_is_recorded_as_int(self, mht):
        class Numpy(Policy):
            def act(self, belief, step):
                return np.int64(1)

        _, execution = simulate(mht, Numpy(), 3, seed=0)
        assert execution.actions == (1, 1, 1)
        assert {type(a) for a in execution.actions} == {int}

    def test_transition_frequencies_converge(self):
        rng = random.Random(7)
        pomdp = random_pomdp(rng, max_states=3, max_actions=1, max_obs=2)
        hidden, execution = simulate(pomdp, RandomActionPolicy(), 4000, seed=3)
        counts = np.zeros((pomdp.num_states, pomdp.num_states))
        for i, a in enumerate(execution.actions):
            counts[hidden[i], hidden[i + 1]] += 1
        for s in range(pomdp.num_states):
            total = counts[s].sum()
            if total < 200:
                continue
            np.testing.assert_allclose(
                counts[s] / total, pomdp.trans_mat[0][s], atol=0.05
            )

    @pytest.mark.parametrize("seed", [None, 1.5, True, "7"])
    def test_seed_must_be_an_integer_index(self, mht, seed):
        policy = ScriptedPolicy([], pad_action="observe")
        with pytest.raises(ModelError, match=re.escape(f"seed {seed!r} is not an integer index")):
            simulate(mht, policy, 3, seed)

    def test_numpy_seed_and_horizon_run_as_ints(self, mht):
        policy = ScriptedPolicy([], pad_action="observe")
        first = simulate(mht, policy, np.int64(5), np.int64(11))
        second = simulate(mht, policy, 5, 11)
        assert first[0] == second[0]
        assert first[1].observations == second[1].observations

    @pytest.mark.parametrize("horizon", [2.5, 1.0, True, "3", None])
    def test_horizon_must_be_an_integer_index(self, mht, horizon):
        policy = ScriptedPolicy([], pad_action="observe")
        with pytest.raises(ModelError, match=re.escape(f"horizon {horizon!r} is not an integer index")):
            simulate(mht, policy, horizon, 0)

    @pytest.mark.parametrize("horizon", [0, -1, np.int64(0)])
    def test_horizon_must_be_at_least_one(self, mht, horizon):
        policy = ScriptedPolicy([], pad_action="observe")
        with pytest.raises(ModelError, match="horizon must be at least 1"):
            simulate(mht, policy, horizon, 0)


class _Watching(Policy):
    """Delegates to ``policy`` and keeps every belief it is handed."""

    def __init__(self, policy):
        self.policy = policy
        self.seen = []

    def reset(self, pomdp, horizon, seed):
        self.seen = []
        self.policy.reset(pomdp, horizon, seed)

    def act(self, belief, step):
        assert not belief.probs.flags.writeable
        self.seen.append(belief)
        return self.policy.act(belief, step)


def _assert_filter_rows(pomdp, policy, horizon, seed):
    """``simulate``'s beliefs are the read-only beliefs its policy was handed,
    and equal ``filter_run`` on its own record bit for bit."""
    watching = _Watching(policy)
    _, execution = simulate(pomdp, watching, horizon, seed)
    assert all(a is b for a, b in zip(watching.seen, execution.beliefs[:-1]))
    assert len(watching.seen) == horizon
    for belief in execution.beliefs:
        assert not belief.probs.flags.writeable
        with pytest.raises(ValueError):
            belief.probs[0] = 0.5
    assert not execution.beliefs[-1].probs.base.flags.writeable
    filtered = filter_run(pomdp, execution.actions, execution.observations)
    assert np.array_equal(
        np.stack([b.probs for b in execution.beliefs]), np.stack([b.probs for b in filtered])
    )


class TestSimulatedBeliefs:
    @pytest.mark.parametrize("name", ["timeshare", "entropy_cutoff"])
    def test_rescue_policies(self, name):
        pomdp, _ = build_rescue()
        policy = rescue_policies()[name]
        for k in range(6):
            _assert_filter_rows(pomdp, policy, 16, trial_seed(2024, k))

    @pytest.mark.parametrize("seed", range(25))
    def test_random_action_policy(self, seed):
        rng = random.Random(seed)
        pomdp = random_pomdp(rng, max_states=6, max_actions=3, max_obs=3)
        _assert_filter_rows(pomdp, RandomActionPolicy(), rng.randint(1, 12), seed)


class _FixedDraw:
    """Stands in for a ``random.Random`` whose next draw is ``r``."""

    def __init__(self, r: float):
        self.r = r

    def random(self) -> float:
        return self.r


# Entries below a normal sum's half-ulp, at which the running sum does not
# move, and subnormals.
TINY_ENTRIES = (5e-324, 2.0**-1060, 2.0**-1022, 1e-17, 2.0**-54, 2.0**-53)


@st.composite
def draw_rows(draw):
    """A unit-sum row of zeros, normal entries and tiny ones, and the draws
    to test it with: 0, each running sum of ``sample_referee`` and the
    float just below it, the largest draw below 1, and a few others."""
    kinds = draw(
        st.lists(st.sampled_from(("zero", "normal", "tiny")), min_size=1, max_size=12)
        .filter(lambda ks: "normal" in ks)
    )
    weights = [draw(st.floats(0.01, 1.0)) for k in kinds if k == "normal"]
    total = sum(weights)
    row, normal = [], iter(weights)
    for kind in kinds:
        if kind == "zero":
            row.append(0.0)
        elif kind == "normal":
            row.append(next(normal) / total)
        else:
            row.append(draw(st.sampled_from(TINY_ENTRIES)))
    draws = {0.0, 1.0 - 2.0**-53}
    acc = 0.0
    for p in row:
        if p > 0.0:
            acc += p
            draws.update((acc, float(np.nextafter(acc, 0.0))))
    draws.update(draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=5)))
    return row, sorted(r for r in draws if r < 1.0)


class TestDrawTables:
    @settings(deadline=None, max_examples=300)
    @given(draw_rows())
    def test_table_draw_matches_the_referee(self, case):
        row, draws = case
        n = len(row)
        pomdp = Pomdp(
            [f"s{i}" for i in range(n)],
            ["a"],
            [f"o{i}" for i in range(n)],
            row,
            {(s, 0, t): p for s in range(n) for t, p in enumerate(row)},
            {(s, 0, o): p for s in range(n) for o, p in enumerate(row)},
        )
        probs = np.array(row)
        for r in draws:
            expected = sample_referee(_FixedDraw(r), probs)
            assert pomdp._draw(r, 0) == expected
            for s in range(n):
                assert pomdp._draw(r, 1, 0, s) == expected
                assert pomdp._draw(r, 2, 0, s) == expected
        positive = sum(p > 0.0 for p in row)
        assert len(pomdp._draws) == 2 * n + 1
        assert all(len(sums) == positive for _, sums in pomdp._draws.values())

    def test_tables_stay_within_the_model_nonzeros(self):
        pomdp, _ = build_rescue()
        for name, policy in rescue_policies().items():
            for k in range(40):
                simulate(pomdp, policy, 16, trial_seed(9, k))
        kept = sum(len(sums) for _, sums in pomdp._draws.values())
        nonzeros = (
            np.count_nonzero(pomdp.trans_mat)
            + np.count_nonzero(pomdp.obs_mat)
            + np.count_nonzero(pomdp.prior.probs)
        )
        assert 0 < kept <= nonzeros


class TestStateSetRange:
    @pytest.mark.parametrize("states", [[4], [-1], [0, 5]])
    def test_out_of_range(self, states):
        b = Belief(np.full(4, 0.25))
        for read in (
            lambda: marginal_prob(b, states),
            lambda: marginal_dist(b, [(0,), states]),
            lambda: StateSetReader([states]).incidence(4),
            lambda: StateSetReader(factors=[[(0,), states]]).read(b.probs),
        ):
            with pytest.raises(ModelError, match="state set out of range"):
                read()

    def test_functionals_range_check(self):
        b = Belief(np.full(4, 0.25))
        with pytest.raises(ModelError):
            marginal_prob(b, {4})
        with pytest.raises(ModelError):  # a negative index no longer wraps around
            marginal_dist(b, [(0, 1), (2, -1)])


class TestBeliefFunctionals:
    def test_below_zero_is_a_band(self):
        # A value holds as below zero only beneath the band: a sum rounded
        # within 1e-12 of its threshold reads "not below", in either order.
        assert TIE_TOL == 1e-12
        values = np.array([-1.0, -np.nextafter(TIE_TOL, 1.0), -TIE_TOL, -1e-16, -0.0, 0.0, 1.0])
        assert below_zero(values).tolist() == [True, True, False, False, False, False, False]
        assert [below_zero(float(v)) for v in values] == below_zero(values).tolist()
        # Summed in two orders, 0.1, 0.2 and 0.3 land one ulp apart, on
        # either side of 0.6 - ... < 0; the band reads both alike.
        forward, backward = 0.6 - ((0.1 + 0.2) + 0.3), 0.6 - ((0.3 + 0.2) + 0.1)
        assert forward < 0 <= backward
        assert not below_zero(forward) and not below_zero(backward)

    def test_marginal_prob_extremes(self):
        b = Belief(np.array([1 / 6, 1 / 3, 1 / 2]))
        assert marginal_prob(b, range(3)) == pytest.approx(1.0)
        assert marginal_prob(b, []) == 0.0
        assert marginal_prob(b, {1, 2}) == pytest.approx(5 / 6)

    def test_marginal_dist(self):
        b = Belief(np.array([0.25, 0.25, 0.25, 0.25]))
        np.testing.assert_allclose(
            marginal_dist(b, [(0,), (1,), (2,), (3,)]), b.probs
        )
        np.testing.assert_allclose(marginal_dist(b, [(0,), (1, 2, 3)]), [0.25, 0.75])
        np.testing.assert_allclose(marginal_dist(b, [(0, 1, 2, 3)]), [1.0])

    def test_entropy_examples(self):
        assert entropy_bits([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(math.log2(3))
        assert entropy_bits([1.0, 0.0, 0.0]) == 0.0
        assert entropy_bits([0.5, 0.5]) == pytest.approx(1.0)

    @given(st.lists(st.floats(0.001, 1.0), min_size=1, max_size=8))
    def test_entropy_bounds(self, weights):
        pmf = np.array(weights) / sum(weights)
        h = entropy_bits(pmf)
        assert -1e-12 <= h <= math.log2(len(pmf)) + 1e-9

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=10), st.randoms())
    def test_marginal_dist_conserves_mass(self, weights, shuffler):
        pmf = np.array(weights) / sum(weights)
        indices = list(range(len(pmf)))
        shuffler.shuffle(indices)
        cut = shuffler.randint(1, len(indices))
        cells = [tuple(indices[:cut]), tuple(indices[cut:])]
        cells = [c for c in cells if c]
        dist = marginal_dist(Belief(pmf), cells)
        assert float(dist.sum()) == pytest.approx(1.0, abs=1e-9)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6))
def test_filter_output_is_valid_belief(seed):
    rng = random.Random(seed)
    pomdp = random_pomdp(rng)
    from helpers import consistent_record

    actions, observations = consistent_record(pomdp, rng, rng.randint(1, 5))
    for belief in filter_run(pomdp, actions, observations):
        assert abs(float(belief.probs.sum()) - 1.0) <= 1e-9
        assert (belief.probs >= 0).all()


class TestValidation:
    def test_bad_transition_row(self):
        message = "transition row for state 'a' under action 'go' sums to 0.5$"
        with pytest.raises(ModelError, match=message):
            Pomdp(
                ["a", "b"], ["go"], ["x"], [1.0, 0.0],
                {("a", "go", "b"): 0.5, ("b", "go", "b"): 1.0},
                {("a", "go", "x"): 1.0, ("b", "go", "x"): 1.0},
            )

    def test_bad_observation_row(self):
        message = "observation row for state 'a' under action 'go' sums to 0.7$"
        with pytest.raises(ModelError, match=message):
            Pomdp(
                ["a"], ["go"], ["x", "y"], [1.0],
                {("a", "go", "a"): 1.0},
                {("a", "go", "x"): 0.7},
            )

    def test_nan_transition_probability(self):
        with pytest.raises(ModelError):
            Pomdp(
                ["a", "b"], ["go"], ["x"], [1.0, 0.0],
                {("a", "go", "a"): math.nan, ("a", "go", "b"): 1.0, ("b", "go", "b"): 1.0},
                {("a", "go", "x"): 1.0, ("b", "go", "x"): 1.0},
            )

    def test_nan_observation_probability(self):
        with pytest.raises(ModelError):
            Pomdp(
                ["a"], ["go"], ["x", "y"], [1.0],
                {("a", "go", "a"): 1.0},
                {("a", "go", "x"): 1.0, ("a", "go", "y"): math.nan},
            )

    def test_earlier_unknown_name_wins_over_later_bad_probability(self):
        with pytest.raises(ModelError, match="unknown state name 'zz'"):
            Pomdp(
                ["a", "b"], ["go"], ["x"], [1.0, 0.0],
                {("zz", "go", "a"): 1.0, ("a", "go", "b"): 1.5, ("b", "go", "b"): 1.0},
                {("a", "go", "x"): 1.0, ("b", "go", "x"): 1.0},
            )

    @pytest.mark.parametrize("cell", [(True, "go", "a"), ("a", True, "a"), ("a", "go", True)])
    def test_boolean_label_rejected(self, cell):
        with pytest.raises(ModelError, match="label True is neither a name nor an index"):
            Pomdp(
                ["a", "b"], ["go"], ["x"], [1.0, 0.0],
                {cell: 1.0, ("b", "go", "b"): 1.0},
                {("a", "go", "x"): 1.0, ("b", "go", "x"): 1.0},
            )

    def test_name_and_index_for_one_cell_are_summed(self):
        pomdp = Pomdp(
            ["a", "b"], ["go"], ["x"], [1.0, 0.0],
            {("a", "go", "b"): 0.75, (0, 0, 1): 0.25, ("b", "go", "b"): 1.0},
            {("a", "go", "x"): 1.0, ("b", "go", "x"): 1.0},
        )
        np.testing.assert_array_equal(pomdp.trans_mat[0], [[0.0, 1.0], [0.0, 1.0]])

    def test_zero_probability_entry_with_unknown_name_is_ignored(self):
        pomdp = Pomdp(
            ["a", "b"], ["go"], ["x"], [1.0, 0.0],
            {("a", "go", "a"): 1.0, ("zz", "nope", "b"): 0.0, ("b", "go", "b"): 1.0},
            {("a", "go", "x"): 1.0, ("b", "go", "x"): 1.0, ("a", "go", "zz"): 0.0},
        )
        np.testing.assert_array_equal(pomdp.trans_mat[0], [[1.0, 0.0], [0.0, 1.0]])

    def test_missing_factor_tag(self):
        with pytest.raises(ModelError):
            Pomdp(
                [("a", {"kind": 1}), ("b", {})], ["go"], ["x"], [1.0, 0.0],
                {("a", "go", "a"): 1.0, ("b", "go", "b"): 1.0},
                {("a", "go", "x"): 1.0, ("b", "go", "x"): 1.0},
                factors={"kind": "kind"},
            )

    @pytest.mark.parametrize(
        "value, message",
        [("1", "'1' of .* is not a number"), (True, "True of .* is not a number"),
         (10**400, "of .* is past the float range")],
        ids=["string", "bool", "huge int"],
    )
    @pytest.mark.parametrize("kind", ["prior", "transition", "observation"])
    def test_probability_must_be_a_number_in_the_float_range(self, kind, value, message):
        tables = {
            "prior": [1.0],
            "transition": {("a", "go", "a"): 1.0},
            "observation": {("a", "go", "o"): 1.0},
        }
        tables[kind] = [value] if kind == "prior" else dict.fromkeys(tables[kind], value)
        with pytest.raises(ModelError, match=f"^{kind} probability {message}$"):
            Pomdp(["a"], ["go"], ["o"], *tables.values())

    @pytest.mark.parametrize("prior", [np.array([True, False]), np.array(["1", "0"])])
    def test_array_prior_of_other_dtype_is_checked_by_entry(self, prior):
        with pytest.raises(ModelError, match="^prior probability .* of 'a' is not a number$"):
            Pomdp(["a", "b"], ["go"], ["o"], prior, *self._one_action_tables())

    @pytest.mark.parametrize("prior", [1.0, np.array(1.0)], ids=["float", "0-d array"])
    def test_a_prior_that_is_not_a_vector_raises_model_error(self, prior):
        with pytest.raises(ModelError, match="^belief must be a nonempty 1-d vector$"):
            Pomdp(["a"], ["go"], ["o"], prior, {("a", "go", "a"): 1.0}, {("a", "go", "o"): 1.0})

    @staticmethod
    def _one_action_tables(p=1.0):
        return (
            {("a", "go", "a"): p, ("b", "go", "b"): p},
            {("a", "go", "o"): p, ("b", "go", "o"): p},
        )

    @pytest.mark.parametrize(
        "prior, p",
        [
            ([np.float32(1.0), np.float64(0.0)], np.int64(1)),
            (np.array([1, 0]), np.float32(1.0)),
            (np.array([1.0, 0.0], dtype=np.float32), np.uint8(1)),
        ],
    )
    def test_numpy_reals_are_accepted(self, prior, p):
        want = Pomdp(["a", "b"], ["go"], ["o"], [1.0, 0.0], *self._one_action_tables())
        got = Pomdp(["a", "b"], ["go"], ["o"], prior, *self._one_action_tables(p))
        for left, right in ((got.prior.probs, want.prior.probs), (got.trans_mat, want.trans_mat),
                            (got.obs_mat, want.obs_mat)):
            assert left.dtype == right.dtype and left.tobytes() == right.tobytes()

    def test_execution_length_mismatch(self):
        b = Belief(np.array([1.0]))
        with pytest.raises(ModelError):
            Execution((b,), (0,), ())


class TestStackedBeliefs:
    """An execution's beliefs as one read-only array, stacked when it is built."""

    def _executions(self):
        pomdp = build_rescue()[0]
        yield simulate(pomdp, rescue_policies()["timeshare"], 16, trial_seed(2024, 0))[1]
        yield execution_from_actions(tiny_two_state(), ["poke"] * 3, ["lo", "hi", "lo"])
        yield Execution((tiny_two_state().prior,), (), ())

    def test_equals_the_stacked_beliefs_bit_for_bit(self):
        for execution in self._executions():
            want = np.stack([b.probs for b in execution.beliefs])
            got = execution.probs
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            assert execution.probs is got

    @pytest.mark.parametrize("stacked_first", [False, True])
    @pytest.mark.parametrize("clone", [pickle_round_trip, copy.deepcopy])
    def test_stays_read_only_in_a_copy(self, clone, stacked_first):
        for execution in self._executions():
            if stacked_first:
                execution.probs
            copied = clone(execution)
            assert copied.probs.tobytes() == execution.probs.tobytes()
            assert not copied.probs.flags.writeable
            assert all(not b.probs.flags.writeable for b in copied.beliefs)

    def test_beliefs_of_different_lengths_raise_model_error(self):
        beliefs = (Belief(np.array([1.0])), Belief(np.array([0.5, 0.5])))
        with pytest.raises(ModelError, match="execution beliefs differ in length"):
            Execution(beliefs, (0,), (0,))


class TestJsonRoundTrip:
    def test_round_trip_preserves_tables(self, mht):
        doc = mht.to_json_dict()
        clone = Pomdp.from_json_dict(json.loads(json.dumps(doc)))
        assert clone.state_names == mht.state_names
        assert clone.actions == mht.actions
        assert clone.observations == mht.observations
        np.testing.assert_array_equal(clone.trans_mat, mht.trans_mat)
        np.testing.assert_array_equal(clone.obs_mat, mht.obs_mat)
        assert clone.named_sets == mht.named_sets
        assert clone.factor_cells == mht.factor_cells
        np.testing.assert_array_equal(clone.prior.probs, mht.prior.probs)

    def test_tiny_round_trip(self):
        pomdp = tiny_two_state()
        clone = Pomdp.from_json_dict(pomdp.to_json_dict())
        np.testing.assert_array_equal(clone.trans_mat, pomdp.trans_mat)
        assert clone.named_sets["lit"] == pomdp.named_sets["lit"]

    def test_tag_predicate_sets_from_json(self):
        doc = tiny_two_state().to_json_dict()
        doc["sets"]["lit"] = {"tag": "bit", "value": 1}
        clone = Pomdp.from_json_dict(doc)
        assert clone.named_sets["lit"] == frozenset({1})

    def test_malformed_document(self):
        with pytest.raises(ModelError):
            Pomdp.from_json_dict({"states": []})

    @settings(deadline=None, max_examples=150)
    @given(st.integers(0, 2**32 - 1))
    def test_random_models_round_trip_exactly(self, seed):
        pomdp = random_pomdp(random.Random(seed), max_states=6, max_actions=3, max_obs=3)
        _assert_exact_round_trip(pomdp)

    def test_bundled_models_round_trip_exactly(self):
        for pomdp in (build_mht(0.25, 0.5, 0.75, 0.8)[0], build_rescue()[0], tiny_two_state()):
            _assert_exact_round_trip(pomdp)

    def test_name_and_index_keys_for_one_cell_add_up(self):
        pomdp = Pomdp(
            ["a", "b"], ["go"], ["x", "y"], [1.0, 0.0],
            {("a", "go", "b"): 0.25, (0, 0, 1): 0.5, ("a", 0, "a"): 0.25, ("b", "go", "b"): 1.0},
            {("a", "go", "x"): 0.5, (0, "go", 0): 0.5, ("b", 0, 1): 1.0},
        )
        np.testing.assert_array_equal(pomdp.trans_mat[0], [[0.25, 0.75], [0.0, 1.0]])
        np.testing.assert_array_equal(pomdp.obs_mat[0], [[1.0, 0.0], [0.0, 1.0]])
        assert pomdp.to_json_dict()["transitions"] == [
            ["a", "go", "a", 0.25], ["a", "go", "b", 0.75], ["b", "go", "b", 1.0]
        ]

    def test_dynamics_arrays_are_read_only(self, mht):
        for table in (mht.trans_mat, mht.obs_mat):
            with pytest.raises(ValueError):
                table[0, 0, 0] = 0.5

    @pytest.mark.parametrize(
        "clone",
        [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_copies_stay_read_only(self, mht, clone):
        _, execution = simulate(mht, RandomActionPolicy(), 3, 7)
        model, belief, record = clone(mht), clone(mht.prior), clone(execution)
        pairs = [
            (model.trans_mat, mht.trans_mat),
            (model.obs_mat, mht.obs_mat),
            (model.prior.probs, mht.prior.probs),
            (belief.probs, mht.prior.probs),
            *((got.probs, want.probs) for got, want in zip(record.beliefs, execution.beliefs)),
        ]
        for got, want in pairs:
            assert got.tobytes() == want.tobytes() and not got.flags.writeable


def _assert_exact_round_trip(pomdp: Pomdp) -> None:
    """Model -> JSON text -> model keeps the arrays bit for bit and the
    document unchanged; entries come sorted by their index triple."""
    doc = pomdp.to_json_dict()
    for key, targets in (("transitions", pomdp.state_index), ("observation_model", pomdp.obs_index)):
        cells = [
            (pomdp.state_index[s], pomdp.action_index[a], targets[t]) for s, a, t, _ in doc[key]
        ]
        assert cells == sorted(set(cells))
    clone = Pomdp.from_json_dict(json.loads(json.dumps(doc)))
    for got, want in ((clone.trans_mat, pomdp.trans_mat), (clone.obs_mat, pomdp.obs_mat)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert clone.to_json_dict() == doc


class TestStepTable:
    @pytest.mark.parametrize("seed", range(10))
    def test_entries_are_the_product_read_only(self, seed):
        # Taken from every state, a step is the product's reached columns.
        pomdp = random_pomdp(random.Random(seed), max_states=5, max_actions=3, max_obs=3)
        every = np.arange(pomdp.num_states)
        for a in range(pomdp.num_actions):
            for o in range(pomdp.num_observations):
                step = pomdp.restricted_step(a, o, every)
                next_live, rows, adj = step
                want = pomdp.trans_mat[a] * pomdp.obs_mat[a][:, o]
                assert not np.delete(want, next_live, axis=1).any()
                want = want.take(next_live, axis=1)
                assert rows.dtype == want.dtype and rows.tobytes() == want.tobytes()
                np.testing.assert_array_equal(adj, want != 0)
                assert not any(x.flags.writeable for x in step)
                if next_live.size:
                    again = pomdp.restricted_step(a, o, every)
                    assert all(x is y for x, y in zip(again, step))

    def test_large_model_builds_each_pair_afresh(self, monkeypatch):
        pomdp = tiny_two_state()
        every = np.arange(pomdp.num_states)
        size = pomdp.num_actions * pomdp.num_observations * pomdp.num_states**2
        monkeypatch.setattr(model_module, "STEP_TABLE_CELLS", size - 1)
        first, again = pomdp.restricted_step(0, 1, every), pomdp.restricted_step(0, 1, every)
        assert pomdp._blocks == {}
        assert first[1] is not again[1]
        assert first[1].tobytes() == again[1].tobytes() and not first[1].flags.writeable
        monkeypatch.setattr(model_module, "STEP_TABLE_CELLS", size)
        pomdp.restricted_step(0, 1, every)
        assert set(pomdp._blocks) == {(0, 1, every.tobytes())}

    @staticmethod
    def _live_sets(pomdp):
        n = pomdp.num_states
        for bits in range(1, 1 << n):
            yield np.array([s for s in range(n) if bits >> s & 1], dtype=np.intp)

    def _check_every_block(self, pomdp) -> int:
        """Take every step from every live set and compare it with the
        product of the dynamics, bit for bit, whether the model keeps it or
        not: every result is read-only, with a float64 support.  Return how
        many steps reach a state."""
        reaching = 0
        for a in range(pomdp.num_actions):
            for o in range(pomdp.num_observations):
                step = pomdp.trans_mat[a] * pomdp.obs_mat[a][:, o]
                support = step != 0
                for live in self._live_sets(pomdp):
                    next_live, rows, adj = pomdp.restricted_step(a, o, live)
                    want = support.take(live, axis=0).any(axis=0).nonzero()[0]
                    want_rows = step.take(live, axis=0).take(want, axis=1)
                    assert next_live.tobytes() == want.tobytes()
                    assert rows.dtype == want_rows.dtype and rows.tobytes() == want_rows.tobytes()
                    assert rows.flags.c_contiguous
                    np.testing.assert_array_equal(adj, support.take(live, axis=0).take(want, axis=1))
                    assert adj.dtype == np.float64
                    assert not any(x.flags.writeable for x in (next_live, rows, adj))
                    kept = pomdp._blocks.get((a, o, live.tobytes()))
                    if kept is not None:
                        assert all(x is y for x, y in zip(kept, (next_live, rows, adj)))
                    reaching += bool(next_live.size)
        return reaching

    @pytest.mark.parametrize("seed", range(10))
    def test_blocks_are_the_step_matrix_blocks(self, seed):
        self._check_every_block(
            random_pomdp(random.Random(seed), max_states=4, max_actions=3, max_obs=3)
        )

    def test_kept_blocks_are_read_only_with_float64_support(self):
        pomdp = grid_walk(3)
        live = np.flatnonzero(pomdp.prior.probs)
        first = pomdp.restricted_step(0, 0, live)
        assert set(pomdp._blocks) == {(0, 0, live.tobytes())}
        assert first[2].dtype == np.float64
        assert not any(x.flags.writeable for x in first)
        again = pomdp.restricted_step(0, 0, live.copy())
        assert all(x is y for x, y in zip(first, again))

    def test_step_reaching_no_state_is_not_kept(self):
        pomdp = Pomdp(
            ["a", "b"], ["go"], ["seen", "unseen"], [1.0, 0.0],
            {("a", "go", "b"): 1.0, ("b", "go", "b"): 1.0},
            {("a", "go", "seen"): 1.0, ("b", "go", "seen"): 1.0},
        )
        next_live, rows, _ = pomdp.restricted_step(0, 1, np.array([0]))
        assert next_live.size == 0 and rows.shape == (1, 0)
        assert pomdp._blocks == {}

    def test_large_model_keeps_no_blocks(self, monkeypatch):
        pomdp = random_pomdp(random.Random(3), max_states=4, max_actions=2, max_obs=2)
        monkeypatch.setattr(model_module, "STEP_TABLE_CELLS", pomdp._table_cells - 1)
        assert self._check_every_block(pomdp)
        assert pomdp._blocks == {} and pomdp._blocks.cells == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_kept_blocks_stay_within_the_table_size(self, seed):
        pomdp = random_pomdp(
            random.Random(seed), max_states=5, max_actions=2, max_obs=2, max_support=5
        )
        reaching = self._check_every_block(pomdp)
        cells = sum(rows.size for _, rows, _ in pomdp._blocks.values())
        assert cells == pomdp._blocks.cells <= pomdp._table_cells
        assert 0 < len(pomdp._blocks) < reaching  # the budget ran out

    def test_a_full_budget_keeps_the_newest_blocks(self):
        pomdp = random_pomdp(
            random.Random(2), max_states=5, max_actions=2, max_obs=2, max_support=5
        )
        stored = []  # the keys of the kept steps, oldest first
        for a in range(pomdp.num_actions):
            for o in range(pomdp.num_observations):
                for live in self._live_sets(pomdp):
                    if pomdp.restricted_step(a, o, live)[0].size:
                        stored.append((a, o, live.tobytes()))
        kept = list(pomdp._blocks)
        assert 0 < len(kept) < len(stored)  # the budget ran out
        assert kept == stored[-len(kept) :]  # the newest, in their order
        assert stored[-1] in pomdp._blocks and stored[0] not in pomdp._blocks
        cells = sum(rows.size for _, rows, _ in pomdp._blocks.values())
        assert cells == pomdp._blocks.cells <= pomdp._table_cells

    def test_one_block_per_live_set_whatever_its_dtype(self):
        pomdp = tiny_two_state()
        first = pomdp.restricted_step(0, 0, np.array([0, 1], dtype=np.intp))
        again = pomdp.restricted_step(0, 0, np.array([0, 1], dtype=np.int32))
        assert all(x is y for x, y in zip(first, again))
        assert len(pomdp._blocks) == 1 and pomdp._blocks.cells == 4
        pomdp = tiny_two_state()
        first = pomdp.restricted_step(0, 0, np.array([0, 1], dtype=np.int32))
        assert first[0].dtype == np.intp
        assert set(pomdp._blocks) == {(0, 0, np.array([0, 1], dtype=np.intp).tobytes())}


class TestBoundedTable:
    """``model._BoundedTable``, the one cache behind a model's step and
    block tables and the monitor's fold plans."""

    def test_evicts_the_oldest_first_and_keeps_insertion_order(self):
        table = model_module._BoundedTable()
        for key in "abcd":
            assert table.keep(key, key.upper(), 3, 10) == key.upper()
        assert list(table.items()) == [("b", "B"), ("c", "C"), ("d", "D")]
        assert table.cells == 9
        table.keep("e", "E", 5, 10)
        assert list(table) == ["d", "e"] and table.cells == 8

    def test_a_kept_key_returns_its_first_entry(self):
        table = model_module._BoundedTable()
        first = table.keep("a", ["first"], 2, 10)
        assert table.keep("a", ["second"], 2, 10) is first
        assert table["a"] is first and table.cells == 2

    @pytest.mark.parametrize("size", [0, 11])
    def test_an_entry_of_size_zero_or_above_the_budget_is_returned_not_kept(self, size):
        table = model_module._BoundedTable()
        table.keep("a", "A", 4, 10)
        value = object()
        assert table.keep("b", value, size, 10) is value
        assert list(table) == ["a"] and table.cells == 4

    def test_a_lowered_budget_evicts_down_to_it(self):
        table = model_module._BoundedTable()
        for key in "abcde":
            table.keep(key, key, 2, 10)
        assert table.cells == 10
        table.keep("f", "f", 2, 5)
        assert list(table) == ["e", "f"] and table.cells == 4

    @pytest.mark.parametrize("seed", range(5))
    def test_cells_is_the_sum_of_the_kept_sizes_after_every_call(self, seed):
        # Against a list of (key, size) pairs, oldest first.
        rng = random.Random(seed)
        table, reference = model_module._BoundedTable(), []
        for _ in range(300):
            key, size, budget = rng.randrange(40), rng.randrange(8), rng.randrange(4, 24)
            if key not in dict(reference) and 0 < size <= budget:
                while sum(s for _, s in reference) + size > budget:
                    reference.pop(0)
                reference.append((key, size))
            table.keep(key, (key, size), size, budget)
            assert list(table.values()) == reference
            assert table.cells == sum(s for _, s in reference)
            if rng.random() < 0.02:
                table.clear()
                reference.clear()
                assert table == {} and table.cells == 0

    def test_pickles_and_copies_as_an_empty_table(self):
        table = model_module._BoundedTable()
        table.keep("a", "A", 3, 10)
        for clone in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table), copy.copy(table)):
            assert type(clone) is model_module._BoundedTable
            assert clone == {} and clone.cells == 0
            assert clone.keep("b", "B", 3, 10) == "B" and clone.cells == 3
        assert list(table) == ["a"] and table.cells == 3

    def test_concurrent_fills_stay_within_the_table_size(self):
        # Threads that miss one key at once must store it, and count its
        # size, once.  Each fit check yields the interpreter lock, so a
        # check and the store that follows it are far apart.
        rng = random.Random(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for budget in (1000, 60):  # room for every key, then evictions
                for _ in range(10):
                    table = model_module._BoundedTable()
                    fits = table._fits
                    table._fits = lambda size, budget: time.sleep(0) or fits(size, budget)
                    keys = [(k, rng.randrange(1, 10)) for k in range(50)]
                    start = threading.Barrier(4)

                    def fill(_):
                        start.wait(timeout=60)
                        return [table.keep(key, [key], size, budget) for key, size in keys]

                    with ThreadPoolExecutor(max_workers=4) as pool:
                        got = list(pool.map(fill, range(4), timeout=60))
                    sizes = dict(keys)
                    assert table.cells == sum(sizes[key] for key in table) <= budget
                    if budget == 1000:  # every thread got the one kept entry
                        assert len(table) == len(keys)
                        for values in got:
                            assert all(v is table[key] for v, (key, _) in zip(values, keys))
        finally:
            sys.setswitchinterval(interval)
