"""Shared fixtures and random-instance generators for the test suite."""

from __future__ import annotations

import itertools
import random
import re

import numpy as np

from dtlmon.errors import FormulaSyntaxError, ModelError
from dtlmon.logic import (
    And,
    BeliefAtom,
    Const,
    EntropyBits,
    Eventually,
    Next,
    Or,
    Prob,
    StateAtom,
    Sub,
    Until,
)
from dtlmon.model import (
    Belief,
    Execution,
    Pomdp,
    RandomActionPolicy,
    simulate,
)
from dtlmon.automaton import PropAtom
from dtlmon.monitor import compile_monitor

# Bit-exact pins (the checked-in output digest, the rescue study means)
# depend on float results of BLAS matrix products, and OpenBLAS picks its
# kernel from the CPU at run time.  This names where they were recorded.
PIN_ENVIRONMENT = (
    "bit-exact pin recorded with numpy 2.4.6 and scipy-openblas 0.3.31 "
    "(DYNAMIC_ARCH) on an x86_64 Intel Xeon with AVX-512; on another numpy/BLAS "
    "build or CPU, compare with a run of the parent commit on the same host "
    "before treating a mismatch as a regression"
)


# Rounding bounds for two evaluations of the same state-set sums in
# different orders, such as ``StateSetReader``'s ``probs @ M`` against
# ``marginal_prob``.  A float sum of n terms, in any order, lies within
# gamma(n - 1) * sum |x_i| of the exact sum (Higham, 2002, *Accuracy and
# Stability of Numerical Algorithms*, ch. 4).
UNIT_ROUNDOFF = 2.0**-53
# numpy's vectorised log2 is accurate to a few units in the last place.
LOG2_ULPS = 4


def gamma(k: int) -> float:
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def mass_gap_bound(num_states: int, mass: float) -> float:
    """Largest gap between two sums, in any orders, of one belief's masses
    on one state set, given one of them: ``mass``."""
    g = gamma(num_states - 1)
    return 2 * g / (1 - g) * mass


def entropy_gap_bound(num_states: int, masses) -> float:
    """Largest gap between the entropies, in bits, of two evaluations of one
    belief's cell masses, given one of them: ``masses``.  Each mass moves by
    at most ``mass_gap_bound``, which moves its term ``-m log2 m`` by at
    most that times the slope ``|log2 m| + 1/ln 2``; each side also rounds
    its log2, its product and its sum over the cells."""
    terms = 0.0
    spread = 0.0
    for m in map(float, masses):
        if m == 0.0:  # a sum of nonnegative masses is zero only if each is
            continue
        gap = mass_gap_bound(num_states, m)
        spread += gap * (abs(np.log2(m - gap)) + 1 / np.log(2))
        terms += abs(m * np.log2(m))
    rounding = 2 * ((LOG2_ULPS + 1) * UNIT_ROUNDOFF + gamma(max(len(masses) - 1, 0)))
    return spread + rounding * terms


def tiny_two_state() -> Pomdp:
    """Two states, one action, two informative observations."""
    return Pomdp(
        [("off", {"bit": 0}), ("on", {"bit": 1})],
        ["poke"],
        ["lo", "hi"],
        [0.5, 0.5],
        {
            ("off", "poke", "off"): 0.8,
            ("off", "poke", "on"): 0.2,
            ("on", "poke", "on"): 0.7,
            ("on", "poke", "off"): 0.3,
        },
        {
            ("off", "poke", "lo"): 0.9,
            ("off", "poke", "hi"): 0.1,
            ("on", "poke", "hi"): 0.6,
            ("on", "poke", "lo"): 0.4,
        },
        named_sets={"all": ["off", "on"], "lit": {"tag": "bit", "value": 1}},
        factors={"bit": "bit"},
    )


def _stochastic_row(rng: random.Random, n: int, max_support: int) -> list[float]:
    support = rng.randint(1, min(max_support, n))
    who = rng.sample(range(n), support)
    weights = [rng.uniform(0.1, 1.0) for _ in who]
    total = sum(weights)
    row = [0.0] * n
    for i, w in zip(who, weights):
        row[i] = w / total
    return row


def random_pomdp(
    rng: random.Random,
    max_states: int = 4,
    max_actions: int = 2,
    max_obs: int = 2,
    max_support: int = 3,
) -> Pomdp:
    """Small random POMDP with a binary factor and a few named sets."""
    n = rng.randint(2, max_states)
    na = rng.randint(1, max_actions)
    no = rng.randint(1, max_obs)
    states = [(f"s{i}", {"grp": i % 2}) for i in range(n)]
    actions = [f"a{j}" for j in range(na)]
    observations = [f"o{k}" for k in range(no)]
    trans = {}
    obs_model = {}
    for s in range(n):
        for a in range(na):
            for s2, p in enumerate(_stochastic_row(rng, n, max_support)):
                if p > 0:
                    trans[(s, a, s2)] = p
            for o, p in enumerate(_stochastic_row(rng, no, max_support)):
                if p > 0:
                    obs_model[(s, a, o)] = p
    prior = np.array(_stochastic_row(rng, n, n))
    set_a = rng.sample(range(n), rng.randint(1, n))
    set_b = rng.sample(range(n), rng.randint(1, n))
    named_sets = {
        "all": list(range(n)),
        "setA": sorted(set_a),
        "setB": sorted(set_b),
        "evens": {"tag": "grp", "value": 0},
    }
    return Pomdp(
        states, actions, observations, prior, trans, obs_model,
        named_sets=named_sets, factors={"grp": "grp"},
    )


def sample_referee(rng: random.Random, probs: np.ndarray) -> int:
    """The sampler ``simulate`` once ran per draw, the referee of the model's
    draw tables: walk the row left to right, summing its positive entries,
    and stop at the first sum above the draw; past the end, the last
    positive entry."""
    r = rng.random()
    acc = 0.0
    last = 0
    for i, p in enumerate(probs.tolist()):
        if p <= 0.0:
            continue
        acc += p
        last = i
        if r < acc:
            return i
    return last


def random_execution(pomdp: Pomdp, rng: random.Random, max_t: int = 6) -> Execution:
    t = rng.randint(0, max_t)
    if t == 0:
        return Execution((pomdp.prior,), (), ())
    policy = RandomActionPolicy()
    _, execution = simulate(pomdp, policy, t, rng.randrange(10**9))
    return execution


def _random_belief_expr(rng: random.Random, pomdp: Pomdp):
    kind = rng.randrange(4)
    set_names = [n for n in pomdp.named_sets if pomdp.named_sets[n]]
    name = rng.choice(set_names)
    indices = frozenset(pomdp.named_sets[name])
    if kind == 0:
        return Sub(Prob(name, indices), Const(round(rng.uniform(0.0, 1.0), 3)))
    if kind == 1:
        return Sub(Const(round(rng.uniform(0.0, 1.0), 3)), Prob(name, indices))
    if kind == 2:
        other = rng.choice(set_names)
        return Sub(Prob(name, indices), Prob(other, frozenset(pomdp.named_sets[other])))
    fname = rng.choice(list(pomdp.factor_cells))
    cells = tuple(tuple(c) for c in pomdp.factor_cells[fname])
    bound = round(rng.uniform(0.0, float(np.log2(max(len(cells), 2)))), 3)
    return Sub(EntropyBits(fname, cells), Const(bound))


def random_cosafe_formula(
    rng: random.Random,
    pomdp: Pomdp,
    max_state_atoms: int = 3,
    max_belief_atoms: int = 2,
    max_depth: int = 4,
):
    """Random formula in negation normal form within the given atom budget."""
    budget = {"state": rng.randint(0, max_state_atoms), "belief": rng.randint(0, max_belief_atoms)}
    if budget["state"] + budget["belief"] == 0:
        budget[rng.choice(["state", "belief"])] = 1

    def make_atom():
        kinds = []
        if budget["state"] > 0:
            kinds.append("state")
        if budget["belief"] > 0:
            kinds.append("belief")
        if not kinds:
            kinds = ["state"]
        kind = rng.choice(kinds)
        budget[kind] = max(budget[kind] - 1, 0)
        negated = rng.random() < 0.3
        if kind == "state":
            name = rng.choice(list(pomdp.named_sets))
            return StateAtom(
                name, frozenset(pomdp.named_sets[name]), pomdp.num_states, negated
            )
        return BeliefAtom(_random_belief_expr(rng, pomdp), negated)

    def build(depth: int):
        if depth >= max_depth or (budget["state"] + budget["belief"] == 0 and rng.random() < 0.7):
            return make_atom()
        roll = rng.random()
        if roll < 0.2:
            return And(build(depth + 1), build(depth + 1))
        if roll < 0.4:
            return Or(build(depth + 1), build(depth + 1))
        if roll < 0.55:
            return Until(build(depth + 1), build(depth + 1))
        if roll < 0.75:
            return Next(build(depth + 1))
        if roll < 0.9:
            return Eventually(build(depth + 1))
        return make_atom()

    return build(0)


def random_prop_formula(rng: random.Random, num_props: int, max_depth: int = 4):
    """Random propositional co-safe skeleton."""

    def build(depth: int):
        if depth >= max_depth or rng.random() < 0.3:
            return PropAtom(rng.randrange(num_props), rng.random() < 0.4)
        roll = rng.random()
        if roll < 0.22:
            return And(build(depth + 1), build(depth + 1))
        if roll < 0.44:
            return Or(build(depth + 1), build(depth + 1))
        if roll < 0.62:
            return Until(build(depth + 1), build(depth + 1))
        if roll < 0.81:
            return Next(build(depth + 1))
        return Eventually(build(depth + 1))

    return build(0)


def random_letter_word(rng: random.Random, num_props: int, max_len: int = 8) -> list[int]:
    return [rng.randrange(1 << num_props) for _ in range(rng.randint(0, max_len))]


def random_trace_word(rng: random.Random, pomdp: Pomdp, max_len: int = 6):
    """Random word of (state, belief) pairs, beliefs unrelated to dynamics."""
    length = rng.randint(1, max_len)
    word = []
    for _ in range(length):
        probs = np.array([rng.uniform(0.0, 1.0) for _ in range(pomdp.num_states)])
        if probs.sum() == 0:
            probs[0] = 1.0
        word.append((rng.randrange(pomdp.num_states), Belief(probs / probs.sum())))
    return word


def brute_force_posterior(pomdp: Pomdp, actions, observations) -> np.ndarray:
    """Final-state posterior by enumerating every hidden path.

    Joint weight of a path is prior times transition and observation
    likelihood products; the marginal over the final state, normalized, is
    what the filter should produce.
    """
    t = len(actions)
    n = pomdp.num_states
    weights = np.zeros(n)
    for path in itertools.product(range(n), repeat=t + 1):
        w = pomdp.prior[path[0]]
        for i in range(t):
            a, o = actions[i], observations[i]
            w *= pomdp.trans_mat[a][path[i], path[i + 1]]
            w *= pomdp.obs_mat[a][path[i + 1], o]
            if w == 0.0:
                break
        weights[path[-1]] += w
    total = weights.sum()
    assert total > 0, "inconsistent action/observation record"
    return weights / total


def consistent_record(pomdp: Pomdp, rng: random.Random, t: int):
    """Sampled (actions, observations) with positive likelihood."""
    if t == 0:
        return (), ()
    policy = RandomActionPolicy()
    _, execution = simulate(pomdp, policy, t, rng.randrange(10**9))
    return execution.actions, execution.observations


def grid_walk(width: int = 5) -> Pomdp:
    """A king's-move random walk on a ``width`` x ``width`` grid under a weak
    row sensor: every observation is possible in every state, so nearly all
    hidden paths stay consistent with any record."""
    cells = list(itertools.product(range(width), repeat=2))
    name = {(r, c): f"x{r}_{c}" for r, c in cells}
    trans, obs_model = {}, {}
    for r, c in cells:
        succ = [
            (r + dr, c + dc)
            for dr in (-1, 0, 1)
            for dc in (-1, 0, 1)
            if 0 <= r + dr < width and 0 <= c + dc < width
        ]
        for cell in succ:
            trans[(name[(r, c)], "walk", name[cell])] = 1.0 / len(succ)
        high = 0.2 + 0.6 * r / (width - 1)
        obs_model[(name[(r, c)], "walk", "hi")] = high
        obs_model[(name[(r, c)], "walk", "lo")] = 1.0 - high
    return Pomdp(
        [name[cell] for cell in cells],
        ["walk"],
        ["lo", "hi"],
        [1.0 / len(cells)] * len(cells),
        trans,
        obs_model,
        named_sets={"corner": [name[(width - 1, width - 1)]]},
    )


# -- referees for the compiled builders --------------------------------------------

_REFEREE_TOKEN_RE = re.compile(
    r"(?P<ws>\s+|#[^\n]*)"
    r"|(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>=>|[()\[\]<|&!+\-*])"
)


def tokenize_referee(text: str) -> list[tuple]:
    """Reference for ``logic._tokenize``: one anchored match per token from
    the running position, and an error where none matches.  Returns the
    (kind, text, position) tokens without the end token."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFEREE_TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


def state_bits_referee(state_atoms, num_states: int) -> list[int]:
    """Reference for ``CompiledMonitor.state_bits``: every state tested
    against every hidden-state atom, after a range check of every set."""
    for atom in state_atoms:
        if any(not 0 <= s < num_states for s in atom.indices):
            raise ModelError("state set out of range")
    bits = [0] * num_states
    for atom, bit in state_atoms.items():
        for s in range(num_states):
            if (s in atom.indices) != atom.negated:
                bits[s] |= 1 << bit
    return bits


def incidence_referee(columns, num_states: int) -> np.ndarray:
    """Reference for ``StateSetReader.incidence``: column j filled from the
    sorted, range-checked members of ``columns[j]``, one column at a time."""
    matrix = np.zeros((num_states, len(columns) + 1))
    for j, states in enumerate(columns):
        idx = sorted(set(states))
        if idx and not (idx[0] >= 0 and idx[-1] < num_states):
            raise ModelError("state set out of range")
        matrix[idx, j] = 1.0
    return matrix


def occupied_cells_referee(pomdp: Pomdp, formula, execution: Execution) -> int:
    """Reference for the ``dp_pairs`` diagnostic: the acceptance DP's mass in
    a dict over (hidden state, automaton state) cells, moved one product
    term at a time and divided by its total each step, then each cell with
    mass fed its letter.  Returns the number of cells with mass whose
    automaton state is neither dead nor accepting after each step's letter,
    summed over the steps.  A cell whose mass underflows to 0.0 is not
    counted, although the record allows its hidden state."""
    comp = compile_monitor(formula)
    dfa = comp.dfa
    letters = [sig & ~comp.relaxed_mask for sig in comp.predicates.signatures(execution.probs)]
    sbits = comp.state_bits(pomdp.num_states).tolist()

    def is_open(q) -> bool:
        return not (dfa.is_dead(q) or dfa.is_accepting(q))

    def feed(cells: dict, letter: int) -> tuple[dict, int]:
        fed: dict = {}
        for (s, q), m in cells.items():
            if m and is_open(q):
                q = dfa.transition(q, letter | sbits[s])
            fed[s, q] = fed.get((s, q), 0.0) + m
        return fed, sum(1 for (_, q), m in fed.items() if m and is_open(q))

    prior = pomdp.prior.probs
    cells, occupied = feed({(s, dfa.initial): prior[s] for s in np.flatnonzero(prior)}, letters[0])
    for i, (a, o) in enumerate(zip(execution.actions, execution.observations)):
        step = pomdp.trans_mat[a] * pomdp.obs_mat[a][:, o]
        moved: dict = {}
        for (s, q), m in cells.items():
            for s2 in np.flatnonzero(step[s]).tolist():
                moved[s2, q] = moved.get((s2, q), 0.0) + m * step[s, s2]
        total = sum(moved.values())
        cells, count = feed({cell: m / total for cell, m in moved.items()}, letters[i + 1])
        occupied += count
    return occupied
