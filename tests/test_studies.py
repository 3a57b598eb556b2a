"""Case-study builders, policies, and the Monte Carlo harness."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dtlmon.errors import DegeneratePearson, ModelError
from dtlmon.logic import Const, Eventually, Prob, Sub, formula_text
from dtlmon.model import (
    Belief,
    Pomdp,
    StateSetReader,
    bayes_update,
    below_zero,
    entropy_bits,
    marginal_dist,
    marginal_prob,
    simulate,
)
from dtlmon.monitor import acceptance_probability, compile_monitor
from dtlmon.studies import (
    EntropyCutoffPolicy,
    MhtThresholdPolicy,
    RescueParams,
    TimeSharePolicy,
    build_mht,
    build_rescue,
    mht_success_fn,
    monte_carlo,
    pearson_r,
    rescue_formula,
    rescue_model,
    rescue_success_fn,
    run_rescue_study,
    trial_seed,
)

from helpers import PIN_ENVIRONMENT, entropy_gap_bound, mass_gap_bound


@pytest.fixture(scope="module")
def mht():
    return build_mht(0.25, 0.5, 0.75, 0.8)


@pytest.fixture(scope="module")
def rescue():
    return build_rescue()


class TestBuildMht:
    def test_state_count(self, mht):
        pomdp, _ = mht
        assert pomdp.num_states == 12

    def test_observe_self_loop(self, mht):
        pomdp, _ = mht
        for c in (1, 2, 3):
            watch = pomdp.state_index[f"coin{c}_watch"]
            observe = pomdp.action_index["observe"]
            assert pomdp.trans_mat[observe, watch, watch] == 1.0

    def test_heads_likelihood_matches_coin(self, mht):
        pomdp, _ = mht
        observe = pomdp.action_index["observe"]
        heads = pomdp.obs_index["heads"]
        for c, p in ((1, 0.25), (2, 0.5), (3, 0.75)):
            watch = pomdp.state_index[f"coin{c}_watch"]
            assert pomdp.obs_mat[observe, watch, heads] == pytest.approx(p)

    def test_one_heads_hypothesis_marginal(self, mht):
        pomdp, _ = mht
        posterior = bayes_update(
            pomdp, pomdp.prior, pomdp.action_index["observe"], pomdp.obs_index["heads"]
        )
        np.testing.assert_allclose(
            marginal_dist(posterior, pomdp.factor_cells["hyp"]),
            [1 / 6, 1 / 3, 1 / 2],
            atol=1e-12,
        )

    def test_choose_locks_the_decision(self, mht):
        pomdp, _ = mht
        watch = pomdp.state_index["coin2_watch"]
        chosen = pomdp.state_index["coin2_chose3"]
        choose3 = pomdp.action_index["choose3"]
        assert pomdp.trans_mat[choose3, watch, chosen] == 1.0
        for a in range(pomdp.num_actions):
            assert pomdp.trans_mat[a, chosen, chosen] == 1.0

    def test_eventually_variant(self):
        _, formula = build_mht(0.25, 0.5, 0.75, 0.8, eventually=True)
        assert isinstance(formula, Eventually)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ModelError):
            build_mht(0.0, 0.5, 0.75, 0.8)


class TestBuildRescue:
    def test_state_count(self, rescue):
        pomdp, _ = rescue
        assert pomdp.num_states == 64

    def test_defaults_match_study_parameters(self):
        p = RescueParams()
        assert (p.p_fail, p.fa_safe, p.fa_surv) == (0.4, 0.1, 0.1)
        assert (p.det_safe, p.det_surv) == (0.8, 0.9)
        assert (p.p1, p.p2, p.h1, p.h2) == (0.9, 0.25, 0.375, 0.375)

    def test_pickup_failure_split(self, rescue):
        pomdp, _ = rescue
        src = pomdp.state_index["r1c0e10v10"]  # survivor present, not carrying
        picked = pomdp.state_index["r1c1e10v00"]
        pickup = pomdp.action_index["pickup"]
        assert pomdp.trans_mat[pickup, src, picked] == pytest.approx(0.6)
        assert pomdp.trans_mat[pickup, src, src] == pytest.approx(0.4)

    def test_pickup_noop_without_survivor(self, rescue):
        pomdp, _ = rescue
        src = pomdp.state_index["r1c0e10v01"]
        pickup = pomdp.action_index["pickup"]
        assert pomdp.trans_mat[pickup, src, src] == 1.0

    def test_putdown_deposits_in_current_room(self, rescue):
        pomdp, _ = rescue
        src = pomdp.state_index["r2c1e10v00"]
        dst = pomdp.state_index["r2c0e10v01"]
        putdown = pomdp.action_index["putdown"]
        assert pomdp.trans_mat[putdown, src, dst] == 1.0

    def test_switch_flips_room_only(self, rescue):
        pomdp, _ = rescue
        src = pomdp.state_index["r1c1e01v10"]
        dst = pomdp.state_index["r2c1e01v10"]
        assert pomdp.trans_mat[pomdp.action_index["switch"], src, dst] == 1.0

    def test_stay_sensing_rates(self, rescue):
        pomdp, _ = rescue
        stay = pomdp.action_index["stay"]
        # Room 1 safe with survivor: both reports are detections.
        s = pomdp.state_index["r1c0e10v10"]
        assert pomdp.obs_mat[stay, s, pomdp.obs_index["sense11"]] == pytest.approx(0.8 * 0.9)
        assert pomdp.obs_mat[stay, s, pomdp.obs_index["sense00"]] == pytest.approx(0.2 * 0.1)
        # Room 2's reports are about room 2.
        s2 = pomdp.state_index["r2c0e10v10"]
        assert pomdp.obs_mat[stay, s2, pomdp.obs_index["sense11"]] == pytest.approx(0.1 * 0.1)

    def test_default_prior_excludes_nowhere_safe(self, rescue):
        pomdp, _ = rescue
        for i, p in enumerate(pomdp.prior.probs):
            tags = pomdp.state_tags[i]
            if p > 0:
                assert tags["room"] == 1 and tags["carry"] == 0
                assert tags["safe1"] + tags["safe2"] >= 1
                assert p == pytest.approx(1 / 12)

    def test_uniform_prior_mode(self):
        pomdp, _ = build_rescue(prior_mode="uniform")
        mass = [p for p in pomdp.prior.probs if p > 0]
        assert len(mass) == 16
        assert all(p == pytest.approx(1 / 16) for p in mass)

    def test_formula_mentions_both_rooms(self, rescue):
        _, formula = rescue
        text = formula_text(formula)
        for token in ("room1", "room2", "carrying", "env_safe1", "env_surv2", "no_surv1"):
            assert token in text


class TestRescueModelCache:
    def test_thresholds_share_one_model(self):
        pomdp, formula = build_rescue()
        other_pomdp, other = build_rescue(RescueParams(p1=0.85, p2=0.3, h1=0.4, h2=0.5))
        assert other_pomdp is pomdp
        assert formula_text(other) != formula_text(formula)
        assert rescue_model() is pomdp
        assert rescue_formula(pomdp) == formula

    @pytest.mark.parametrize(
        "params, prior_mode",
        [(RescueParams(p_fail=0.3), "safe_somewhere"), (RescueParams(), "uniform")],
        ids=["p_fail", "prior_mode"],
    )
    def test_model_fields_give_another_model(self, params, prior_mode):
        pomdp, formula = build_rescue()
        other_pomdp, other = build_rescue(params, prior_mode)
        assert other_pomdp is not pomdp
        assert not (
            np.array_equal(other_pomdp.trans_mat, pomdp.trans_mat)
            and np.array_equal(other_pomdp.prior.probs, pomdp.prior.probs)
        )
        assert formula_text(other) == formula_text(formula)

    def test_shared_model_arrays_are_read_only(self):
        pomdp, _ = build_rescue()
        for arr in (pomdp.trans_mat, pomdp.obs_mat, pomdp.prior.probs):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 0.5

    @pytest.mark.parametrize("field", ["p1", "p2"])
    @pytest.mark.parametrize("value", [0.0, 1.0, 1.5])
    def test_out_of_range_threshold_is_refused_with_a_warm_cache(self, field, value):
        build_rescue()
        hits = rescue_model.cache_info().hits
        with pytest.raises(ModelError) as err:
            build_rescue(RescueParams(**{field: value}))
        assert str(err.value) == f"{field} must lie strictly between 0 and 1"
        assert rescue_model.cache_info().hits == hits

    @pytest.mark.parametrize(
        "params, prior_mode, message",
        [
            (RescueParams(p_fail=1.0, p1=2.0), "nowhere", "p_fail must lie"),
            (RescueParams(det_surv=0.0, p2=0.0), ["uniform"], "det_surv must lie"),
            (RescueParams(p2=0.0), ["uniform"], "p2 must lie"),
            (RescueParams(), ["uniform"], "prior_mode must be one of"),
            (RescueParams(), {"uniform": 1}, "prior_mode must be one of"),
        ],
    )
    def test_parameters_are_checked_in_order_before_the_lookup(self, params, prior_mode, message):
        with pytest.raises(ModelError, match=f"^{message}"):
            build_rescue(params, prior_mode)


def certain_env_rescue(env, room=1, carry=0):
    """Rescue variant whose prior pins the environment configuration."""
    pomdp, formula = build_rescue()
    doc = pomdp.to_json_dict()
    e1, e2, v1, v2 = env
    doc["prior"] = {f"r{room}c{carry}e{e1}{e2}v{v1}{v2}": 1.0}
    return Pomdp.from_json_dict(doc), formula


class TestPolicies:
    def test_time_share_schedule(self):
        # No survivors anywhere: the trigger never fires, pure schedule.
        pomdp, _ = certain_env_rescue((1, 1, 0, 0))
        policy = TimeSharePolicy(3)
        _, execution = simulate(pomdp, policy, 16, seed=1)
        names = [pomdp.actions[a] for a in execution.actions]
        assert [i for i, n in enumerate(names) if n == "switch"] == [6, 12]
        assert all(n in ("stay", "switch") for n in names)

    def test_time_share_single_share(self):
        pomdp, _ = certain_env_rescue((1, 1, 0, 0))
        policy = TimeSharePolicy(1)
        _, execution = simulate(pomdp, policy, 16, seed=1)
        names = [pomdp.actions[a] for a in execution.actions]
        assert names.count("switch") == 0  # the only epoch boundary is step 16

    def test_time_share_accepts_model_without_env_factors(self):
        # Time-share reads no factor, so a model without the env_* factors
        # runs it as it runs the full model; the cutoff policy needs them.
        full, _ = certain_env_rescue((1, 1, 0, 0))
        doc = full.to_json_dict()
        doc["factors"] = {"room": "room"}
        bare = Pomdp.from_json_dict(doc)
        runs = [simulate(m, TimeSharePolicy(3), 16, seed=1)[1].actions for m in (full, bare)]
        assert runs[0] == runs[1]
        with pytest.raises(ModelError, match="needs the rescue model"):
            EntropyCutoffPolicy(0.3, 0.3, 2).reset(bare, 16, 0)

    def test_trigger_overlay_preempts_schedule(self):
        # Certain survivor in an unsafe room 1 fires the overlay immediately.
        pomdp, _ = certain_env_rescue((0, 1, 1, 0))
        policy = TimeSharePolicy(3)
        _, execution = simulate(pomdp, policy, 6, seed=2)
        names = [pomdp.actions[a] for a in execution.actions]
        assert names[:3] == ["pickup", "switch", "putdown"]

    def test_entropy_cutoff_waits_when_uncertain(self, rescue):
        pomdp, _ = rescue
        policy = EntropyCutoffPolicy(0.3, 0.3, 2)
        policy.reset(pomdp, 16, 0)
        assert pomdp.actions[policy.act(pomdp.prior, 0)] == "stay"

    def test_entropy_cutoff_certain_env_switches_every_rho(self):
        pomdp, _ = certain_env_rescue((1, 1, 0, 0))
        policy = EntropyCutoffPolicy(0.3, 0.3, 2)
        _, execution = simulate(pomdp, policy, 8, seed=3)
        names = [pomdp.actions[a] for a in execution.actions]
        assert names == ["switch", "stay", "switch", "stay"] * 2

    def test_entropy_cutoff_rejects_negative_cooldown(self):
        with pytest.raises(ModelError):
            EntropyCutoffPolicy(0.3, 0.3, -1)

    def test_mht_threshold_policy_commits_once_confident(self, mht):
        pomdp, formula = mht
        policy = MhtThresholdPolicy(0.8)
        hidden, execution = simulate(pomdp, policy, 12, seed=14)
        names = [pomdp.actions[a] for a in execution.actions]
        chooses = [n for n in names if n.startswith("choose")]
        assert len(chooses) <= 1
        if chooses:
            report = acceptance_probability(pomdp, formula, execution)
            assert report.feasible


class _MarginalReads:
    """The rescue policies' decisions read through ``marginal_prob`` and
    ``marginal_dist`` on the model's own sets at every call, and decided by
    the tie band: the belief itself stands in for the compiled reads."""

    def reset(self, pomdp, horizon, seed=None):
        super().reset(pomdp, horizon, seed)
        self._pomdp = pomdp

    def _read(self, belief):
        return belief

    def _current_room(self, belief):
        return 2 if below_zero(marginal_prob(belief, self._pomdp.named_sets["room1"]) - 0.5) else 1

    def _triggered(self, belief, room):
        sets = self._pomdp.named_sets
        return below_zero(self.p1 - marginal_prob(belief, sets[f"surv{room}"])) and below_zero(
            self.p2 - marginal_prob(belief, sets[f"unsafe{room}"])
        )

    def _room_certain(self, belief, room):
        cells = self._pomdp.factor_cells
        safe_h = entropy_bits(marginal_dist(belief, cells[f"env_safe{room}"]))
        surv_h = entropy_bits(marginal_dist(belief, cells[f"env_surv{room}"]))
        return below_zero(safe_h - self.h3) and below_zero(surv_h - self.h4)


class _MarginalTimeShare(_MarginalReads, TimeSharePolicy):
    pass


class _MarginalCutoff(_MarginalReads, EntropyCutoffPolicy):
    pass


_RESCUE, _RESCUE_FORMULA = build_rescue()
_THRESHOLDS = {"surv": RescueParams().p1, "unsafe": RescueParams().p2}


@st.composite
def rescue_pmfs(draw):
    """A 64-state pmf with an arbitrary shape, zeros included."""
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=64, max_size=64)))
    if not weights.sum() > 0:
        weights[draw(st.integers(0, 63))] = 1.0
    return Belief(weights / weights.sum())


@st.composite
def tie_pmfs(draw):
    """A pmf whose ``P(survj)`` or ``P(unsafej)``, summed as
    ``marginal_prob`` sums it, is its threshold or one ulp to either side.
    Three to six members of the set share the mass unevenly, so the sum
    depends on the order of its terms; the rest sits outside the set."""
    kind = draw(st.sampled_from(sorted(_THRESHOLDS)))
    room = draw(st.sampled_from((1, 2)))
    name = f"{kind}{room}"
    members = sorted(_RESCUE.named_sets[name])
    outside = sorted(set(range(_RESCUE.num_states)) - set(members))
    threshold = _THRESHOLDS[kind]
    target = float(np.nextafter(threshold, threshold + draw(st.sampled_from((-1, 0, 1)))))
    chosen = draw(st.lists(st.sampled_from(members), min_size=3, max_size=6, unique=True))
    shares = st.lists(st.floats(0.01, 1.0), min_size=len(chosen), max_size=len(chosen))
    weights = np.array(draw(shares))
    probs = np.zeros(_RESCUE.num_states)
    probs[chosen] = target * weights / weights.sum()
    for _ in range(8):  # nudge the largest share until the set sums to the target
        gap = target - float(probs[members].sum())
        if gap == 0.0:
            break
        probs[chosen[int(np.argmax(weights))]] += gap
    assume(float(probs[members].sum()) == target)
    rest = draw(st.lists(st.sampled_from(outside), min_size=1, max_size=4, unique=True))
    probs[rest] = (1.0 - target) / len(rest)
    return name, target, Belief(probs)


def _cell_masses(policy, belief, factor):
    """The cutoff policy's compiled masses of one factor's cells."""
    masses, _ = policy._read(belief)
    cols = policy._reader.cell_columns[policy._FACTORS.index(factor)]
    return np.array([masses[c] for c in cols])


def _assert_reads_match(policy, belief):
    """Every compiled read lies within the rounding bound of its
    ``marginal_prob``/``marginal_dist`` value, and every decision equals
    the reference one."""
    n = _RESCUE.num_states
    sets, cells = _RESCUE.named_sets, _RESCUE.factor_cells
    reads = policy._read(belief)
    masses, entropies = reads
    reference = _MarginalCutoff(0.3, 0.3, 2)
    reference.reset(_RESCUE, 16, 0)
    assert policy._current_room(reads) == reference._current_room(belief)
    columns = {"room1": policy._room1}
    for j in (1, 2):
        columns[f"surv{j}"], columns[f"unsafe{j}"] = policy._surv[j], policy._unsafe[j]
    for name, column in columns.items():
        mass = marginal_prob(belief, sets[name])
        assert abs(masses[column] - mass) <= mass_gap_bound(n, mass)
    for j in (1, 2):
        for factor in (f"env_safe{j}", f"env_surv{j}"):
            dist = marginal_dist(belief, cells[factor])
            for got, mass in zip(_cell_masses(policy, belief, factor), dist):
                assert abs(got - mass) <= mass_gap_bound(n, mass)
            entropy = entropies[policy._FACTORS.index(factor)]
            assert abs(entropy - entropy_bits(dist)) <= entropy_gap_bound(n, dist)
        assert policy._triggered(reads, j) == reference._triggered(belief, j)
        assert policy._room_certain(reads, j) == reference._room_certain(belief, j)


class TestCompiledPolicyReads:
    """The policies read a precompiled incidence matrix; every value must lie
    within the rounding bound of ``marginal_prob``/``marginal_dist``, and
    every decision must equal the one from those references."""

    @settings(deadline=None, max_examples=150)
    @given(rescue_pmfs())
    def test_random_pmfs(self, belief):
        policy = EntropyCutoffPolicy(0.3, 0.3, 2)
        policy.reset(_RESCUE, 16, 0)
        _assert_reads_match(policy, belief)

    @settings(deadline=None, max_examples=150)
    @given(tie_pmfs())
    def test_threshold_ties(self, case):
        name, target, belief = case
        assert marginal_prob(belief, _RESCUE.named_sets[name]) == target
        policy = EntropyCutoffPolicy(0.3, 0.3, 2)
        policy.reset(_RESCUE, 16, 0)
        _assert_reads_match(policy, belief)
        # The tied mass is not above its threshold, for the policy's read
        # and for the monitor's predicate of the formula's atom.
        threshold = _THRESHOLDS[name[:-1]]
        column = getattr(policy, f"_{name[:-1]}")[int(name[-1])]
        assert not below_zero(threshold - policy._read(belief)[0][column])
        comp = compile_monitor(_RESCUE_FORMULA)
        j = comp.belief_props.index(Sub(Const(threshold), Prob(name, _RESCUE.named_sets[name])))
        assert not comp.predicates.signatures(belief.probs[None])[0] >> j & 1

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(st.one_of(rescue_pmfs(), tie_pmfs().map(lambda c: c[2])), min_size=1, max_size=12)
    )
    def test_action_sequences(self, beliefs):
        for compiled, reference in (
            (TimeSharePolicy(3), _MarginalTimeShare(3)),
            (EntropyCutoffPolicy(0.3, 0.3, 2), _MarginalCutoff(0.3, 0.3, 2)),
        ):
            compiled.reset(_RESCUE, len(beliefs), 0)
            reference.reset(_RESCUE, len(beliefs), 0)
            assert [compiled.act(b, t) for t, b in enumerate(beliefs)] == [
                reference.act(b, t) for t, b in enumerate(beliefs)
            ]

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12).filter(lambda w: sum(w) > 0))
    def test_mht_policy(self, weights):
        pomdp, _ = build_mht(0.25, 0.5, 0.75, 0.8)
        belief = Belief(np.array(weights) / sum(weights))
        policy = MhtThresholdPolicy(0.8)
        policy.reset(pomdp, 4, 0)
        dist = marginal_dist(belief, pomdp.factor_cells["hyp"])
        masses, entropies = policy._reader.read(belief.probs)
        for got, mass in zip(masses.take(policy._hyp_cells), dist):
            assert abs(got - mass) <= mass_gap_bound(12, mass)
        assert abs(entropies[0] - entropy_bits(dist)) <= entropy_gap_bound(12, dist)
        if below_zero(entropy_bits(dist) - 0.8):
            expected = pomdp.action_index[f"choose{int(np.argmax(dist)) + 1}"]
        else:
            expected = pomdp.action_index["observe"]
        assert policy.act(belief, 0) == expected

    def test_unequal_cells(self):
        # The reader reads any factor, cells of different sizes included.
        pomdp = Pomdp(
            [("a", {"k": 0}), ("b", {"k": 1}), ("c", {"k": 1})],
            ["go"],
            ["tick"],
            [0.2, 0.3, 0.5],
            {(s, "go", s): 1.0 for s in "abc"},
            {(s, "go", "tick"): 1.0 for s in "abc"},
            factors={"k": "k"},
        )
        reader = StateSetReader(factors=[pomdp.factor_cells["k"]])
        cells = [reader.columns[c] for c in reader.cell_columns[0]]
        assert cells == [frozenset({0}), frozenset({1, 2})]
        masses, entropies = reader.read(pomdp.prior.probs)
        dist = marginal_dist(pomdp.prior, pomdp.factor_cells["k"])
        for c, mass in zip(reader.cell_columns[0], dist):
            assert abs(masses[c] - mass) <= mass_gap_bound(3, mass)
        assert abs(entropies[0] - entropy_bits(dist)) <= entropy_gap_bound(3, dist)

    def test_compiled_sets_are_read_only(self):
        policy = EntropyCutoffPolicy(0.3, 0.3, 2)
        policy.reset(_RESCUE, 16, 0)
        matrix = policy._reader.incidence(_RESCUE.num_states)
        assert matrix.shape == (_RESCUE.num_states, len(policy._reader.columns) + 1)
        for array in (matrix, policy._reader._cells):
            assert not array.flags.writeable

    def test_reset_checks_each_new_model(self, mht):
        policy = TimeSharePolicy(3)
        policy.reset(_RESCUE, 16, 0)
        with pytest.raises(ModelError):
            policy.reset(mht[0], 16, 0)
        pinned, _ = certain_env_rescue((0, 1, 1, 0))
        policy.reset(pinned, 6, 0)
        assert pinned.actions[policy.act(pinned.prior, 0)] == "pickup"


def test_rescue_study_means_are_pinned():
    # Bit-exact study means at the study defaults; an intended last-bit
    # change must update these values and say so.
    out = run_rescue_study(250, 16, 2024)
    means = {name: run["stats"].mean_prob.hex() for name, run in out["policies"].items()}
    assert means == {
        "timeshare": "0x1.7ea63e0c271dep-1",
        "entropy_cutoff": "0x1.a8cf80c72e977p-1",
    }, PIN_ENVIRONMENT


class TestPearson:
    def test_perfect_correlation(self):
        assert pearson_r([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    @given(
        st.lists(
            st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
            min_size=2,
            max_size=30,
        )
    )
    def test_bounded_when_defined(self, pairs):
        xs = [x for x, _ in pairs]
        ys = [y for _, y in pairs]
        try:
            r = pearson_r(xs, ys)
        except DegeneratePearson:
            return
        assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9

    def test_scale_free_at_float_extremes(self):
        # Squared deviations of 1e-160 underflow to subnormals, and of 1e200
        # overflow, unless the deviations are rescaled first.
        assert pearson_r([0.0, 1.0], [6.850776930768836e-160, 0.0]) == pytest.approx(-1.0, abs=1e-12)
        assert pearson_r([0.0, 1.0, 2.0], [1e-170, 0.0, 3e-170]) == pytest.approx(
            pearson_r([0.0, 1.0, 2.0], [1.0, 0.0, 3.0])
        )
        assert pearson_r([1e200, 0.0, 3e200], [1, 0, 2]) == pytest.approx(
            pearson_r([1.0, 0.0, 3.0], [1, 0, 2])
        )
        # Each sum of squares near 1e-191 is a normal float, but their
        # product underflows to zero; near 1e99 it overflows.
        tiny = [0.0, 4.856901992637461e-96]
        assert pearson_r(tiny, tiny) == pytest.approx(1.0)
        assert pearson_r([0.0, 1e99, 3e99], [1e99, 0.0, 2e99]) == pytest.approx(
            pearson_r([0.0, 1.0, 3.0], [1.0, 0.0, 2.0])
        )

    def test_perfect_anticorrelation(self):
        assert pearson_r([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_partial(self):
        assert pearson_r([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_degenerate(self):
        with pytest.raises(DegeneratePearson):
            pearson_r([1, 1, 1], [1, 2, 3])
        with pytest.raises(DegeneratePearson):
            pearson_r([1], [2])


class TestMonteCarlo:
    def test_deterministic_records(self, mht):
        pomdp, formula = mht
        policy = MhtThresholdPolicy(0.8)
        success = mht_success_fn(pomdp)
        first = monte_carlo(pomdp, formula, policy, 5, 6, 99, "hyp", success)
        second = monte_carlo(pomdp, formula, policy, 5, 6, 99, "hyp", success)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_trial_seeds_distinct_and_stable(self):
        seeds = {trial_seed(7, k) for k in range(100)}
        assert len(seeds) == 100
        assert trial_seed(7, 3) == trial_seed(7, 3)

    def test_requires_two_trials(self, mht):
        pomdp, formula = mht
        with pytest.raises(ModelError):
            monte_carlo(pomdp, formula, MhtThresholdPolicy(0.8), 1, 4, 0, "hyp", lambda s: True)

    def test_degenerate_pearson_reported_as_none(self, mht):
        pomdp, _ = mht
        from dtlmon.logic import StateAtom

        full = StateAtom("all", frozenset(range(pomdp.num_states)), pomdp.num_states)
        policy = MhtThresholdPolicy(0.8)
        _, stats = monte_carlo(pomdp, full, policy, 4, 3, 5, "hyp", lambda s: True)
        assert stats.mean_prob == pytest.approx(1.0)
        assert stats.pearson_r is None

    def test_aggregate_uses_sample_variance(self, mht):
        pomdp, formula = mht
        policy = MhtThresholdPolicy(0.8)
        records, stats = monte_carlo(
            pomdp, formula, policy, 6, 6, 123, "hyp", mht_success_fn(pomdp)
        )
        probs = [r.probability for r in records]
        mean = sum(probs) / len(probs)
        var = sum((x - mean) ** 2 for x in probs) / (len(probs) - 1)
        assert stats.mean_prob == pytest.approx(mean)
        assert stats.var_prob == pytest.approx(var)

    def test_rescue_success_requires_empty_hands(self, rescue):
        pomdp, _ = rescue
        success = rescue_success_fn(pomdp)
        assert success(pomdp.state_index["r1c0e11v11"])
        assert not success(pomdp.state_index["r1c1e11v11"])  # still carrying
        assert not success(pomdp.state_index["r1c0e01v10"])  # survivor in unsafe room
        assert success(pomdp.state_index["r1c0e01v01"])


def test_mht_entropy_eventually_drops_with_true_coin_one(mht):
    pomdp, _ = mht
    doc = pomdp.to_json_dict()
    doc["prior"] = {"coin1_watch": 1.0}
    pinned = Pomdp.from_json_dict(doc)
    from dtlmon.model import ScriptedPolicy

    # Track the public filter against the pinned-truth observation stream.
    _, execution = simulate(pinned, ScriptedPolicy([], pad_action="observe"), 40, seed=8)
    beliefs = [pomdp.prior]
    for a, o in zip(execution.actions, execution.observations):
        beliefs.append(bayes_update(pomdp, beliefs[-1], a, o))
    from dtlmon.model import entropy_bits

    entropies = [entropy_bits(marginal_dist(b, pomdp.factor_cells["hyp"])) for b in beliefs]
    assert min(entropies) < 0.8
