"""Bundled case studies, control policies, and the Monte Carlo harness.

Two models ship with the package:

* ``build_mht``: a deciding agent watches one of three coins with distinct
  heads rates and must eventually commit to the most likely one once the
  hypothesis entropy falls below a threshold.
* ``build_rescue``: a robot explores a two-room environment with noisy
  safety/survivor sensing and must move survivors out of unsafe rooms
  while driving its estimate entropy down.  It pairs ``rescue_model``,
  cached per model parameters, with ``rescue_formula``, which reads only
  the belief thresholds.

The harness runs seeded trials of a policy, monitors every execution, and
aggregates summary statistics including the correlation between the
satisfaction probability and the terminal estimate entropy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DegeneratePearson, ModelError
from .logic import Formula, parse_formula
from .model import (
    Belief,
    Execution,
    Policy,
    Pomdp,
    StateSetReader,
    below_zero,
    entropy_bits,
    execution_from_actions,
    marginal_dist,
    simulate,
)
from .monitor import acceptance_probability

# -- three-coin hypothesis testing -------------------------------------------------


def build_mht(
    p1: float, p2: float, p3: float, h: float, eventually: bool = False
) -> tuple[Pomdp, Formula]:
    """Three-coin hypothesis-testing model and its commitment formula.

    Hidden states pair the true coin with the agent phase: ``watch`` while
    observing, or ``choseK`` after committing to coin K.  ``observe`` flips
    the coin (heads rate ``p_i`` for coin i); ``chooseK`` locks the agent
    into ``choseK``; committed states are absorbing and silent (``null``).

    The formula reads: if the hypothesis entropy is below ``h``, then for
    each coin i, being strictly most likely forces the next state into
    ``choseni``.  With ``eventually=True`` the whole requirement is wrapped
    in F, asking it to hold at some step instead of at the start.
    """
    heads = {1: p1, 2: p2, 3: p3}
    for p in heads.values():
        if not 0 < p < 1:
            raise ModelError("heads rates must lie strictly between 0 and 1")
    phases = ["watch", "chose1", "chose2", "chose3"]
    states = [
        (f"coin{c}_{phase}", {"coin": c, "phase": phase})
        for c in (1, 2, 3)
        for phase in phases
    ]
    actions = ["observe", "choose1", "choose2", "choose3"]
    observations = ["heads", "tails", "null"]
    index = {name: i for i, (name, _) in enumerate(states)}

    trans = {}
    obs_model = {}
    for c in (1, 2, 3):
        watch = f"coin{c}_watch"
        trans[(watch, "observe", watch)] = 1.0
        obs_model[(watch, "observe", "heads")] = heads[c]
        obs_model[(watch, "observe", "tails")] = 1.0 - heads[c]
        for k in (1, 2, 3):
            chosen = f"coin{c}_chose{k}"
            trans[(watch, f"choose{k}", chosen)] = 1.0
            for a in actions:
                trans[(chosen, a, chosen)] = 1.0
                obs_model[(chosen, a, "null")] = 1.0
            obs_model[(watch, f"choose{k}", "null")] = 1.0

    prior = np.zeros(len(states))
    for c in (1, 2, 3):
        prior[index[f"coin{c}_watch"]] = 1.0 / 3.0

    named_sets = {"all": [name for name, _ in states]}
    for c in (1, 2, 3):
        named_sets[f"hyp{c}"] = {"tag": "coin", "value": c}
        named_sets[f"chosen{c}"] = {"tag": "phase", "value": f"chose{c}"}
    named_sets["watching"] = {"tag": "phase", "value": "watch"}

    pomdp = Pomdp(
        states,
        actions,
        observations,
        prior,
        trans,
        obs_model,
        named_sets=named_sets,
        factors={"hyp": "coin", "phase": "phase"},
    )

    commit_parts = []
    for i in (1, 2, 3):
        others = [j for j in (1, 2, 3) if j != i]
        most_likely = " & ".join(f"[P(hyp{j}) < P(hyp{i})]" for j in others)
        commit_parts.append(f"({most_likely} => X in(chosen{i}))")
    body = f"([H(hyp) < {h!r}] => ({' & '.join(commit_parts)}))"
    text = f"F {body}" if eventually else body
    return pomdp, parse_formula(text, pomdp)


def mht_reference_trace(pomdp: Pomdp) -> Execution:
    """The bundled demonstration run: tails four times, then commit to
    coin 1 (the coin those observations favor)."""
    actions = ["observe"] * 4 + ["choose1"]
    observations = ["tails"] * 4 + ["null"]
    return execution_from_actions(pomdp, actions, observations)


# -- two-room rescue -----------------------------------------------------------


@dataclass(frozen=True)
class RescueParams:
    """Rescue model and formula parameters (defaults are the study values)."""

    p_fail: float = 0.4
    fa_safe: float = 0.1
    fa_surv: float = 0.1
    det_safe: float = 0.8
    det_surv: float = 0.9
    p1: float = 0.9
    p2: float = 0.25
    h1: float = 0.375
    h2: float = 0.375


RESCUE_PRIOR_MODES = ("uniform", "safe_somewhere")

# The ``RescueParams`` fields that shape the model; the rest (``p1``, ``p2``,
# ``h1``, ``h2``) shape only the formula.
RESCUE_MODEL_FIELDS = ("p_fail", "fa_safe", "fa_surv", "det_safe", "det_surv")

RESCUE_MODEL_CACHE_SIZE = 8


def _check_unit(p: RescueParams, fields: Sequence[str]) -> None:
    for name in fields:
        if not 0 < getattr(p, name) < 1:
            raise ModelError(f"{name} must lie strictly between 0 and 1")


def build_rescue(
    params: RescueParams | None = None, prior_mode: str = "safe_somewhere"
) -> tuple[Pomdp, Formula]:
    """Two-room rescue robot model and its mission formula:
    ``(rescue_model(params, prior_mode), rescue_formula(model, params))``.

    Every parameter is checked first, in field order and then
    ``prior_mode``.  Calls with equal model fields and ``prior_mode``
    return the same (immutable) ``Pomdp`` object, so a sweep over the
    formula thresholds builds the model once.
    """
    p = params or RescueParams()
    _check_unit(p, (*RESCUE_MODEL_FIELDS, "p1", "p2"))
    pomdp = rescue_model(p, prior_mode)
    return pomdp, rescue_formula(pomdp, p)


def rescue_model(params: RescueParams | None = None, prior_mode: str = "safe_somewhere") -> Pomdp:
    """Two-room rescue robot model, built once per model fields and
    ``prior_mode`` (the last ``RESCUE_MODEL_CACHE_SIZE`` are kept).

    State components: the robot's room, whether it carries a survivor, a
    static safety bit per room, and a survivor-presence bit per room (64
    states).  ``stay`` senses the current room (independent safety and
    survivor reports with the given detection and false-alarm rates);
    ``switch`` moves to the other room; ``pickup`` succeeds with
    probability ``1 - p_fail`` when a survivor is present and the robot is
    empty-handed; ``putdown`` deposits a carried survivor.  Non-sensing
    actions emit ``null``.

    The robot starts in room 1, not carrying.  ``prior_mode`` selects the
    environment prior: ``safe_somewhere`` (the default: uniform over the
    12 safety/survivor configurations with at least one safe room,
    matching the deployment premise that safe areas exist) or ``uniform``
    over all 16 configurations.  A uniform draw leaves about 19% of runs
    with a survivor and no safe room anywhere, which no policy can
    resolve; the restricted prior keeps the mission achievable.

    The parameters are checked before the cache lookup, so an invalid
    value raises ``ModelError`` even when it cannot be hashed.
    """
    p = params or RescueParams()
    _check_unit(p, RESCUE_MODEL_FIELDS)
    if prior_mode not in RESCUE_PRIOR_MODES:
        raise ModelError(f"prior_mode must be one of {RESCUE_PRIOR_MODES}")
    return _rescue_model_cached(*(getattr(p, name) for name in RESCUE_MODEL_FIELDS), prior_mode)


@lru_cache(maxsize=RESCUE_MODEL_CACHE_SIZE)
def _rescue_model_cached(
    p_fail: float, fa_safe: float, fa_surv: float, det_safe: float, det_surv: float,
    prior_mode: str,
) -> Pomdp:
    def state_name(room, carry, e1, e2, v1, v2):
        return f"r{room}c{carry}e{e1}{e2}v{v1}{v2}"

    states = []
    for room, carry, e1, e2, v1, v2 in itertools.product(
        (1, 2), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1)
    ):
        states.append(
            (
                state_name(room, carry, e1, e2, v1, v2),
                {
                    "room": room,
                    "carry": carry,
                    "safe1": e1,
                    "safe2": e2,
                    "surv1": v1,
                    "surv2": v2,
                    "env": f"{e1}{e2}{v1}{v2}",
                },
            )
        )
    actions = ["stay", "switch", "pickup", "putdown"]
    # Observation senseXY: X is the safety report, Y the survivor report.
    observations = ["sense00", "sense01", "sense10", "sense11", "null"]

    trans = {}
    obs_model = {}
    for name, tags in states:
        room, carry = tags["room"], tags["carry"]
        e1, e2, v1, v2 = tags["safe1"], tags["safe2"], tags["surv1"], tags["surv2"]
        other = 2 if room == 1 else 1

        trans[(name, "stay", name)] = 1.0
        trans[(name, "switch", state_name(other, carry, e1, e2, v1, v2))] = 1.0

        surv_here = v1 if room == 1 else v2
        if carry == 0 and surv_here == 1:
            if room == 1:
                picked = state_name(room, 1, e1, e2, 0, v2)
            else:
                picked = state_name(room, 1, e1, e2, v1, 0)
            trans[(name, "pickup", picked)] = 1.0 - p_fail
            trans[(name, "pickup", name)] = p_fail
        else:
            trans[(name, "pickup", name)] = 1.0

        if carry == 1:
            if room == 1:
                dropped = state_name(room, 0, e1, e2, 1, v2)
            else:
                dropped = state_name(room, 0, e1, e2, v1, 1)
            trans[(name, "putdown", dropped)] = 1.0
        else:
            trans[(name, "putdown", name)] = 1.0

        safe_here = e1 if room == 1 else e2
        p_safe_report = det_safe if safe_here == 1 else fa_safe
        p_surv_report = det_surv if surv_here == 1 else fa_surv
        for sr, vr in itertools.product((0, 1), (0, 1)):
            prob = (p_safe_report if sr else 1 - p_safe_report) * (
                p_surv_report if vr else 1 - p_surv_report
            )
            if prob > 0:
                obs_model[(name, "stay", f"sense{sr}{vr}")] = prob
        for a in ("switch", "pickup", "putdown"):
            obs_model[(name, a, "null")] = 1.0

    index = {name: i for i, (name, _) in enumerate(states)}
    prior = np.zeros(len(states))
    env_configs = list(itertools.product((0, 1), repeat=4))
    if prior_mode == "safe_somewhere":
        env_configs = [cfg for cfg in env_configs if cfg[0] + cfg[1] >= 1]
    weight = 1.0 / len(env_configs)
    for e1, e2, v1, v2 in env_configs:
        prior[index[state_name(1, 0, e1, e2, v1, v2)]] = weight

    named_sets = {
        "room1": {"tag": "room", "value": 1},
        "room2": {"tag": "room", "value": 2},
        "carrying": {"tag": "carry", "value": 1},
        "not_carrying": {"tag": "carry", "value": 0},
    }
    for i in (1, 2):
        named_sets[f"safe{i}"] = {"tag": f"safe{i}", "value": 1}
        named_sets[f"unsafe{i}"] = {"tag": f"safe{i}", "value": 0}
        named_sets[f"surv{i}"] = {"tag": f"surv{i}", "value": 1}
        named_sets[f"no_surv{i}"] = {"tag": f"surv{i}", "value": 0}

    factors = {
        "env_safe1": "safe1",
        "env_safe2": "safe2",
        "env_surv1": "surv1",
        "env_surv2": "surv2",
        "env": "env",
        "room": "room",
    }

    return Pomdp(
        states, actions, observations, prior, trans, obs_model,
        named_sets=named_sets, factors=factors,
    )


rescue_model.cache_info = _rescue_model_cached.cache_info


def rescue_formula(pomdp: Pomdp, params: RescueParams | None = None) -> Formula:
    """The rescue mission formula ``duty U goal`` over ``pomdp``'s sets.

    The duty clause obliges the robot, whenever it is confidently
    (``p1``) with a survivor in a room that is plausibly (``p2``) unsafe,
    to pick the survivor up, move to the other room carrying it, and put
    it down; the goal clause needs every room's safety and survivor
    entropies below ``h1``/``h2`` and every survivor to sit in a safe room.
    """
    p = params or RescueParams()
    _check_unit(p, ("p1", "p2"))
    duty_parts = []
    for j, other in ((1, 2), (2, 1)):
        antecedent = f"in(room{j}) & [{p.p1!r} < P(surv{j})] & [{p.p2!r} < P(unsafe{j})]"
        consequent = f"X (in(carrying) U (in(room{other}) & X in(not_carrying)))"
        duty_parts.append(f"({antecedent} => {consequent})")
    duty = " & ".join(duty_parts)
    goal_parts = []
    for i in (1, 2):
        goal_parts.append(f"[H(env_safe{i}) < {p.h1!r}]")
        goal_parts.append(f"[H(env_surv{i}) < {p.h2!r}]")
        goal_parts.append(f"((in(safe{i}) & in(surv{i})) | in(no_surv{i}))")
    goal = " & ".join(goal_parts)
    text = f"({duty}) U ({goal})"
    return parse_formula(text, pomdp)


def rescue_success_fn(pomdp: Pomdp) -> Callable[[int], bool]:
    """Terminal success: nobody carried, and every room holding a survivor
    is safe."""
    tags = pomdp.state_tags

    def success(state: int) -> bool:
        t = tags[state]
        return (
            t["carry"] == 0
            and (t["surv1"] == 0 or t["safe1"] == 1)
            and (t["surv2"] == 0 or t["safe2"] == 1)
        )

    return success


def mht_success_fn(pomdp: Pomdp) -> Callable[[int], bool]:
    """Terminal success for the coin study: committed to the true coin."""
    tags = pomdp.state_tags

    def success(state: int) -> bool:
        t = tags[state]
        return t["phase"] == f"chose{t['coin']}"

    return success


# -- rescue policies --------------------------------------------------------------


class _ReactiveRescuePolicy(Policy):
    """Shared scaffolding for the rescue policies.

    A reactive overlay preempts the base schedule: when the current belief
    says the robot's room holds a survivor with probability above ``p1``
    and is unsafe with probability above ``p2``, the policy issues pickup,
    then switch, then putdown on three consecutive steps before resuming.
    The state sets and factors a policy reads are compiled into one
    ``StateSetReader`` on the first ``reset`` with a model, kept while later
    resets pass the same one, and read once per step that the overlay does
    not decide.  Every threshold comparison goes through ``below_zero``, the
    monitor's tie band, so the overlay fires exactly when the formula's duty
    antecedent holds.
    """

    # The factors whose entropies the base schedule reads, beyond the sets
    # that the room and the overlay read.
    _FACTORS: tuple[str, ...] = ()

    def __init__(self, p1: float = 0.9, p2: float = 0.25):
        self.p1 = p1
        self.p2 = p2
        self._model: Pomdp | None = None

    def reset(self, pomdp: Pomdp, horizon: int, seed: int) -> None:
        if pomdp is not self._model:
            self._compile(pomdp)
        self._horizon = horizon
        self._overlay: list[int] = []
        self._since_switch = 0
        self._reset_schedule()

    def _compile(self, pomdp: Pomdp) -> None:
        needed_sets = ("room1", "surv1", "surv2", "unsafe1", "unsafe2")
        needed_actions = ("stay", "switch", "pickup", "putdown")
        if (
            any(n not in pomdp.named_sets for n in needed_sets)
            or any(n not in pomdp.factor_cells for n in self._FACTORS)
            or any(n not in pomdp.action_index for n in needed_actions)
        ):
            raise ModelError("this policy needs the rescue model's sets, factors, and actions")
        reader = StateSetReader(
            [pomdp.named_sets[n] for n in needed_sets],
            [pomdp.factor_cells[f] for f in self._FACTORS],
        )
        room1, surv1, surv2, unsafe1, unsafe2 = reader.set_columns
        self._reader = reader
        self._act = {name: i for i, name in enumerate(pomdp.actions)}
        self._room1 = room1
        self._surv = {1: surv1, 2: surv2}
        self._unsafe = {1: unsafe1, 2: unsafe2}
        self._model = pomdp

    def _reset_schedule(self) -> None:
        pass

    def _read(self, belief: Belief) -> tuple[list[float], list[float]]:
        """The masses and entropies of one belief, as Python floats."""
        masses, entropies = self._reader.read(belief.probs)
        return masses.tolist(), entropies.tolist()

    def _current_room(self, reads) -> int:
        return 2 if below_zero(reads[0][self._room1] - 0.5) else 1

    def _triggered(self, reads, room: int) -> bool:
        masses = reads[0]
        return below_zero(self.p1 - masses[self._surv[room]]) and below_zero(
            self.p2 - masses[self._unsafe[room]]
        )

    def act(self, belief: Belief, step: int) -> int:
        self._since_switch += 1
        if self._overlay:
            action = self._overlay.pop(0)
        else:
            reads = self._read(belief)
            room = self._current_room(reads)
            if self._triggered(reads, room):
                action = self._act["pickup"]
                self._overlay = [self._act["switch"], self._act["putdown"]]
            else:
                action = self._base_action(reads, step, room)
        if action == self._act["switch"]:
            self._since_switch = 0
        return action

    def _base_action(self, reads, step: int, room: int) -> int:
        raise NotImplementedError


class TimeSharePolicy(_ReactiveRescuePolicy):
    """Switch rooms on a fixed schedule: every ceil(horizon / a) steps."""

    def __init__(self, a: int, p1: float = 0.9, p2: float = 0.25):
        super().__init__(p1, p2)
        if a < 1:
            raise ModelError("the share count must be at least 1")
        self.a = a

    def _reset_schedule(self) -> None:
        self._period = math.ceil(self._horizon / self.a)

    def _base_action(self, reads, step: int, room: int) -> int:
        if step > 0 and step % self._period == 0:
            return self._act["switch"]
        return self._act["stay"]


class EntropyCutoffPolicy(_ReactiveRescuePolicy):
    """Switch once the current room's estimates are certain enough.

    Stays while the current room's safety entropy is at or above ``h3`` or
    its survivor entropy is at or above ``h4``; switches when both are
    below.  When the other room is already below both thresholds too, a
    switch waits until ``rho`` steps have passed since the last one.
    """

    _FACTORS = ("env_safe1", "env_safe2", "env_surv1", "env_surv2")
    # Where a room's safety and survivor entropies sit among the factors.
    _SAFE_H = {1: 0, 2: 1}
    _SURV_H = {1: 2, 2: 3}

    def __init__(self, h3: float, h4: float, rho: int, p1: float = 0.9, p2: float = 0.25):
        super().__init__(p1, p2)
        if rho < 0:
            raise ModelError("the switch cooldown must be nonnegative")
        self.h3 = h3
        self.h4 = h4
        self.rho = rho

    def _reset_schedule(self) -> None:
        # Lets a switch fire on the very first step when already certain.
        self._since_switch = self.rho - 1

    def _room_certain(self, reads, room: int) -> bool:
        entropies = reads[1]
        return below_zero(entropies[self._SAFE_H[room]] - self.h3) and below_zero(
            entropies[self._SURV_H[room]] - self.h4
        )

    def _base_action(self, reads, step: int, room: int) -> int:
        other = 2 if room == 1 else 1
        if self._room_certain(reads, room):
            if self._room_certain(reads, other):
                if self._since_switch >= self.rho:
                    return self._act["switch"]
                return self._act["stay"]
            return self._act["switch"]
        return self._act["stay"]


def rescue_policies(
    params: RescueParams | None = None,
    share_a: int = 3,
    h3: float = 0.3,
    h4: float = 0.3,
    rho: int = 2,
) -> dict[str, Policy]:
    """The rescue study's two policies, keyed by their report labels; the
    defaults are the study values."""
    p = params or RescueParams()
    return {
        "timeshare": TimeSharePolicy(share_a, p.p1, p.p2),
        "entropy_cutoff": EntropyCutoffPolicy(h3, h4, rho, p.p1, p.p2),
    }


class MhtThresholdPolicy(Policy):
    """Observe until the hypothesis entropy drops below ``h``, then commit
    to the most likely coin (ties to the lowest index)."""

    def __init__(self, h: float):
        self.h = h
        self._model: Pomdp | None = None

    def reset(self, pomdp: Pomdp, horizon: int, seed: int) -> None:
        if pomdp is not self._model:
            if "hyp" not in pomdp.factor_cells or "observe" not in pomdp.action_index:
                raise ModelError("this policy needs the coin model's factor and actions")
            self._act = {name: i for i, name in enumerate(pomdp.actions)}
            self._reader = StateSetReader(factors=[pomdp.factor_cells["hyp"]])
            self._hyp_cells = np.array(self._reader.cell_columns[0], dtype=np.intp)
            self._model = pomdp
        self._committed: int | None = None

    def act(self, belief: Belief, step: int) -> int:
        if self._committed is not None:
            return self._act["observe"]
        masses, entropies = self._reader.read(belief.probs)
        dist = masses.take(self._hyp_cells)
        if below_zero(entropies[0] - self.h):
            self._committed = int(np.argmax(dist)) + 1
            return self._act[f"choose{self._committed}"]
        return self._act["observe"]


# -- Monte Carlo harness ------------------------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    probability: float
    terminal_entropy_bits: float
    success: bool


@dataclass(frozen=True)
class StudyStats:
    mean_prob: float
    var_prob: float
    mean_entropy: float
    var_entropy: float
    success_rate: float
    pearson_r: float | None

    def to_json_dict(self) -> dict:
        return asdict(self)


def _rescaled(deviations: list[float]) -> list[float]:
    # Inside this window a sum of squares lies between 1e-100 and n * 1e100,
    # so the product of two such sums neither underflows nor overflows.
    scale = max(abs(d) for d in deviations)
    if scale == 0.0 or 1e-50 < scale < 1e50:
        return deviations
    return [d / scale for d in deviations]


def pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample correlation coefficient.

    Raises ``DegeneratePearson`` when fewer than two points or when either
    sample variance is zero.  Deviations too small or too large for the
    product of their sums of squares to stay finite and non-zero are first
    divided by their largest magnitude (the coefficient does not depend on
    scale).
    """
    if len(xs) != len(ys):
        raise ModelError("samples must have equal length")
    n = len(xs)
    if n < 2:
        raise DegeneratePearson("need at least two samples")
    mx = sum(xs) / n
    my = sum(ys) / n
    dx = _rescaled([x - mx for x in xs])
    dy = _rescaled([y - my for y in ys])
    sxx = sum(d * d for d in dx)
    syy = sum(d * d for d in dy)
    if sxx == 0.0 or syy == 0.0:
        raise DegeneratePearson("a sample variance is zero")
    sxy = sum(a * b for a, b in zip(dx, dy))
    return sxy / math.sqrt(sxx * syy)


def trial_seed(master_seed: int, trial: int) -> int:
    """Deterministic per-trial seed; independent of execution order."""
    return master_seed * 1_000_003 + trial


def monte_carlo(
    pomdp: Pomdp,
    formula: Formula,
    policy: Policy,
    trials: int,
    horizon: int,
    master_seed: int,
    entropy_factor: str,
    success_fn: Callable[[int], bool],
) -> tuple[list[TrialRecord], StudyStats]:
    """Run seeded trials, monitor each execution, and aggregate statistics.

    Every trial derives its own seed from ``(master_seed, trial index)``,
    so records are bit-identical across reruns and independent of any
    parallel schedule.  The terminal entropy is taken over the marginal of
    ``entropy_factor`` at the final belief.  Variances use the sample
    (n - 1) convention; an undefined correlation is reported as ``None``.
    """
    if trials < 2:
        raise ModelError("need at least 2 trials")
    if not isinstance(entropy_factor, str) or entropy_factor not in pomdp.factor_cells:
        raise ModelError(f"unknown factor {entropy_factor!r}")
    cells = pomdp.factor_cells[entropy_factor]
    records = []
    for k in range(trials):
        seed = trial_seed(master_seed, k)
        hidden, execution = simulate(pomdp, policy, horizon, seed)
        report = acceptance_probability(pomdp, formula, execution)
        terminal_entropy = entropy_bits(marginal_dist(execution.beliefs[-1], cells))
        records.append(
            TrialRecord(
                trial=k,
                seed=seed,
                probability=report.probability,
                terminal_entropy_bits=terminal_entropy,
                success=bool(success_fn(hidden[-1])),
            )
        )
    return records, aggregate_stats(records)


def aggregate_stats(records: Sequence[TrialRecord]) -> StudyStats:
    n = len(records)
    probs = [r.probability for r in records]
    ents = [r.terminal_entropy_bits for r in records]
    mean_p = sum(probs) / n
    mean_h = sum(ents) / n
    var_p = sum((x - mean_p) ** 2 for x in probs) / (n - 1)
    var_h = sum((x - mean_h) ** 2 for x in ents) / (n - 1)
    try:
        r = pearson_r(probs, ents)
    except DegeneratePearson:
        r = None
    return StudyStats(
        mean_prob=mean_p,
        var_prob=var_p,
        mean_entropy=mean_h,
        var_entropy=var_h,
        success_rate=sum(1 for rec in records if rec.success) / n,
        pearson_r=r,
    )


# -- canned experiment ---------------------------------------------------------------


def run_rescue_study(
    trials: int = 250,
    horizon: int = 16,
    master_seed: int = 2024,
    params: RescueParams | None = None,
    prior_mode: str = "safe_somewhere",
    *,
    entropy_factor: str = "env",
    **policy_settings,
) -> dict:
    """Run both rescue policies on a shared model and return all results.

    ``policy_settings`` (``share_a``, ``h3``, ``h4``, ``rho``) override the
    study values of ``rescue_policies``.
    """
    pomdp, formula = build_rescue(params, prior_mode=prior_mode)
    success = rescue_success_fn(pomdp)
    out = {"pomdp": pomdp, "formula": formula, "policies": {}}
    for name, policy in rescue_policies(params, **policy_settings).items():
        records, stats = monte_carlo(
            pomdp, formula, policy, trials, horizon, master_seed, entropy_factor, success
        )
        out["policies"][name] = {"records": records, "stats": stats}
    return out
