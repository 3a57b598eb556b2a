"""Compile propositional co-safe temporal skeletons into finite-word DFAs.

The construction decomposes the formula per input letter into disjunctive
"obligation sets": an obligation set holds the subformulas that must start
holding at the next position for the current choice to work out.  These
sets are the states of a tableau-style NFA; a run accepts when its final
obligation set is empty.  The NFA is determinized on the fly by subset
construction, with transitions computed on demand and cached, because the
alphabet 2^AP is exponential in the proposition count.  A subset keeps
only its ⊆-minimal obligation sets, an antichain (De Wulf, Doyen,
Henzinger & Raskin, "Antichains: a new algorithm for checking
universality of finite automata", CAV 2006): an obligation set that
contains another accepts no word the smaller one rejects, so dropping it
keeps the language and stops nested eventualities and untils from
growing the subsets without need.  The empty obligation is contained in
every set, so accepting subsets collapse to a canonical accept sink and
accepting states are absorbing; the empty subset is the dead state,
absorbing and never accepting.  Every automaton numbers these sinks
``DEAD`` = 0 and ``ACCEPT`` = 1 before its initial state 2, so a run has
reached a sink exactly when its state is below 2.

The skeleton is interned once per automaton: every structurally distinct
subformula gets a small integer id, so an obligation set is a bitmask over
ids (the empty obligation is ``0``) and a DFA state is a frozenset of such
masks.  Each subformula also records the propositions it mentions, and its
ways of being satisfied are memoized on the letter projected onto them, so
they are worked out once per assignment of its own propositions rather
than once per full letter.

Letters are bitmasks over proposition indices.  Words of length zero are
rejected for every formula: satisfaction needs a first position.

An automaton depends only on its skeleton and proposition count, never on
what the propositions stand for, so the monitor shares one ``Dfa`` among
formulas with equal skeletons (``monitor.CompiledMonitor``); the states
one formula discovers then serve the others.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .errors import StateBlowup
from .logic import And, Eventually, Next, Or, Until

STATE_CAP = 2**20

# ``materialize`` walks all 2^n letters from every state, so it refuses
# automata over more propositions than this.
MATERIALIZE_PROP_CAP = 16


@dataclass(frozen=True)
class PropAtom:
    """Positive or negated proposition, identified by its bit index."""

    index: int
    negated: bool = False


PropFormula = Union[PropAtom, And, Or, Until, Next, Eventually]

_TRUE_OPTIONS = frozenset({0})
_FALSE_OPTIONS: frozenset = frozenset()

_EMPTY_OBLIGATION = 0
DEAD = 0  # the empty subset
ACCEPT = 1  # the subset of the empty obligation alone


class Dfa:
    """Deterministic, total automaton over letters in ``range(2**num_props)``
    accepting exactly the finite words (length >= 1 needed for acceptance)
    that satisfy the co-safe skeleton ``phi``.

    States are dense integers: ``DEAD`` is 0, ``ACCEPT`` is 1 and the initial
    state is 2.  ``transition`` computes and caches successors on demand under
    a lock, so concurrent acceptance queries are safe; a sink is its own
    successor, returned without a cache entry or the lock.  ``materialize`` forces
    every (state, letter) pair, which is only practical for small proposition
    counts.  ``num_states`` counts both sinks even when one cannot be reached.
    Discovering more than ``STATE_CAP`` states raises ``StateBlowup``.
    ``phi`` is no deeper than ``logic.MAX_NESTING`` levels, a bound held when
    it is built.
    """

    def __init__(self, phi: PropFormula, num_props: int):
        if num_props < 0:
            raise ValueError("num_props must be nonnegative")
        self.num_props = num_props
        # The node table: node ``i`` has kind ``_kinds[i]``, children
        # ``_children[i]`` and mentions the propositions in ``_masks[i]``.
        self._node_ids: dict[tuple, int] = {}
        self._kinds: list[type] = []
        self._children: list[tuple] = []
        self._masks: list[int] = []
        root = self._intern(phi)
        self._lock = threading.Lock()
        self._options_memo: dict[tuple[int, int], frozenset] = {}
        self._subset_ids: dict[frozenset, int] = {}
        self._subsets: list[frozenset] = []
        self._delta: dict[tuple[int, int], int] = {}
        self._register(frozenset())
        self._register(frozenset({_EMPTY_OBLIGATION}))
        self.initial = self._register(frozenset({1 << root}))

    # -- skeleton interning and expansion --

    def _intern(self, phi: PropFormula) -> int:
        """Id of ``phi``'s node, adding it and its subformulas on first sight."""
        if isinstance(phi, PropAtom):
            if not 0 <= phi.index < self.num_props:
                raise ValueError("formula references a proposition outside num_props")
            # An atom's "children" are its proposition index and its sign.
            children = (phi.index, phi.negated)
            key, mask = (PropAtom, *children), 1 << phi.index
        elif isinstance(phi, (And, Or, Until)):
            children = (self._intern(phi.left), self._intern(phi.right))
            key = (type(phi), *children)
            mask = self._masks[children[0]] | self._masks[children[1]]
        elif isinstance(phi, (Next, Eventually)):
            children = (self._intern(phi.child),)
            key = (type(phi), *children)
            mask = self._masks[children[0]]
        else:
            raise TypeError(f"not a propositional formula: {phi!r}")
        node = self._node_ids.get(key)
        if node is None:
            node = self._node_ids[key] = len(self._kinds)
            self._kinds.append(key[0])
            self._children.append(children)
            self._masks.append(mask)
        return node

    def _options(self, node: int, letter: int) -> frozenset:
        """All ways to satisfy ``node`` starting at a position labeled ``letter``.

        Each element is an obligation mask for the following position.  An
        empty result means the letter refutes the subformula outright.
        """
        key = (node, letter & self._masks[node])
        hit = self._options_memo.get(key)
        if hit is not None:
            return hit
        kind, children = self._kinds[node], self._children[node]
        if kind is PropAtom:
            holds = bool((letter >> children[0]) & 1) != children[1]
            out = _TRUE_OPTIONS if holds else _FALSE_OPTIONS
        elif kind is And:
            left = self._options(children[0], letter)
            right = self._options(children[1], letter)
            out = frozenset(a | b for a in left for b in right)
        elif kind is Or:
            out = self._options(children[0], letter) | self._options(children[1], letter)
        elif kind is Next:
            out = frozenset({1 << children[0]})
        elif kind is Eventually:
            out = self._options(children[0], letter) | frozenset({1 << node})
        else:  # Until
            now = self._options(children[1], letter)
            bit = 1 << node
            out = now | frozenset(o | bit for o in self._options(children[0], letter))
        self._options_memo[key] = out
        return out

    # -- state bookkeeping (callers hold the lock or run during __init__) --

    def _register(self, subset: frozenset) -> int:
        sid = self._subset_ids.get(subset)
        if sid is not None:
            return sid
        if len(self._subsets) >= STATE_CAP:
            raise StateBlowup(f"determinization exceeded {STATE_CAP} states")
        sid = len(self._subsets)
        self._subset_ids[subset] = sid
        self._subsets.append(subset)
        return sid

    def _successor_subset(self, subset: frozenset, letter: int) -> frozenset:
        succ: set = set()
        for obligations in subset:
            choices: Iterable = _TRUE_OPTIONS
            while obligations:
                bit = obligations & -obligations
                obligations ^= bit
                opts = self._options(bit.bit_length() - 1, letter)
                if not opts:
                    choices = _FALSE_OPTIONS
                    break
                choices = frozenset(a | b for a in choices for b in opts)
            succ.update(choices)
        # The antichain of ⊆-minimal masks, smallest first; a successor that
        # holds the empty obligation becomes the accept sink {0}.
        minimal: list[int] = []
        for mask in sorted(succ, key=int.bit_count):
            if all(kept & ~mask for kept in minimal):
                minimal.append(mask)
        return frozenset(minimal)

    # -- public interface --

    @property
    def num_states(self) -> int:
        """States discovered so far, both sinks included."""
        return len(self._subsets)

    def is_accepting(self, state: int) -> bool:
        return state == ACCEPT

    def is_dead(self, state: int) -> bool:
        """Whether ``state`` is the empty subset: no run through it accepts,
        whatever letters follow."""
        return state == DEAD

    def transition(self, state: int, letter: int) -> int:
        if not 0 <= letter < (1 << self.num_props):
            raise ValueError(f"letter {letter} outside the alphabet")
        if not 0 <= state < len(self._subsets):
            raise ValueError(f"unknown state {state}")
        if state <= ACCEPT:  # both sinks are absorbing
            return state
        key = (state, letter)
        hit = self._delta.get(key)
        if hit is not None:
            return hit
        with self._lock:
            hit = self._delta.get(key)
            if hit is not None:
                return hit
            target = self._register(self._successor_subset(self._subsets[state], letter))
            self._delta[key] = target
            return target

    def materialize(self) -> list[int]:
        """Explore every (state, letter) pair reachable from the initial state.

        Returns the reachable states breadth first from the initial state,
        letters ascending, so the order does not depend on which transitions
        were cached before.  Raises ``StateBlowup`` above
        ``MATERIALIZE_PROP_CAP`` propositions.
        """
        if self.num_props > MATERIALIZE_PROP_CAP:
            raise StateBlowup(
                f"materializing {self.num_props} propositions walks 2^{self.num_props} "
                f"letters per state; the bound is {MATERIALIZE_PROP_CAP} propositions"
            )
        order = [self.initial]
        seen = {self.initial}
        for state in order:  # the loop also visits the states appended below
            for letter in range(1 << self.num_props):
                nxt = self.transition(state, letter)
                if nxt not in seen:
                    seen.add(nxt)
                    order.append(nxt)
        return order


def dfa_accepts(dfa: Dfa, word: Iterable[int]) -> bool:
    """Run the automaton on a letter sequence; accept on an accepting state."""
    state = dfa.initial
    for letter in word:
        state = dfa.transition(state, letter)
    return dfa.is_accepting(state)


def prop_eval(phi: PropFormula, word: Sequence[int], position: int = 0) -> bool:
    """Direct finite-word satisfaction over bitmask letters.

    This is the reference semantics the DFA construction is tested against;
    it deliberately shares no machinery with it.
    """
    if not 0 <= position < len(word):
        raise ValueError(f"position {position} outside the word")
    letter = word[position]
    if isinstance(phi, PropAtom):
        return bool((letter >> phi.index) & 1) != phi.negated
    if isinstance(phi, And):
        return prop_eval(phi.left, word, position) and prop_eval(phi.right, word, position)
    if isinstance(phi, Or):
        return prop_eval(phi.left, word, position) or prop_eval(phi.right, word, position)
    if isinstance(phi, Next):
        return position + 1 < len(word) and prop_eval(phi.child, word, position + 1)
    if isinstance(phi, Until):
        for j in range(position, len(word)):
            if prop_eval(phi.right, word, j):
                return True
            if not prop_eval(phi.left, word, j):
                return False
        return False
    if isinstance(phi, Eventually):
        return any(prop_eval(phi.child, word, j) for j in range(position, len(word)))
    raise TypeError(f"not a propositional formula: {phi!r}")


# -- exploration and export ------------------------------------------------------


def _canonical_order(dfa: Dfa, prop_names: Sequence[str]) -> tuple[list[int], dict[int, int]]:
    """The materialized states in canonical order, and each one's position."""
    if len(prop_names) != dfa.num_props:
        raise ValueError("prop_names length must equal num_props")
    order = dfa.materialize()
    return order, {state: k for k, state in enumerate(order)}


def _letter_text(prop_names: Sequence[str], letter: int) -> str:
    names = [name for i, name in enumerate(prop_names) if (letter >> i) & 1]
    return "{" + ",".join(names) + "}"


def export_dot(dfa: Dfa, prop_names: Sequence[str]) -> str:
    """GraphViz DOT text, letters named by ``prop_names`` (with ``\\`` and
    ``"`` escaped); accepting states are double circles.

    Materializes the full alphabet, so use only with small proposition
    counts.  Output is deterministic for identical inputs.
    """
    order, renum = _canonical_order(dfa, prop_names)
    lines = ["digraph dfa {", "  rankdir=LR;", '  __start [shape=point,label=""];']
    for state in order:
        shape = "doublecircle" if dfa.is_accepting(state) else "circle"
        lines.append(f"  q{renum[state]} [shape={shape}];")
    lines.append(f"  __start -> q{renum[dfa.initial]};")
    for state in order:
        edges: dict[int, list[int]] = {}
        for letter in range(1 << dfa.num_props):
            edges.setdefault(dfa.transition(state, letter), []).append(letter)
        for target in sorted(edges, key=lambda t: renum[t]):
            label = ",".join(_letter_text(prop_names, x) for x in edges[target])
            label = label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  q{renum[state]} -> q{renum[target]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json_dict(dfa: Dfa, prop_names: Sequence[str]) -> dict:
    """Materialized automaton as {states, initial, accepting, propositions,
    transitions}, letters named by ``prop_names``."""
    order, renum = _canonical_order(dfa, prop_names)
    transitions = []
    for state in order:
        for letter in range(1 << dfa.num_props):
            transitions.append([renum[state], letter, renum[dfa.transition(state, letter)]])
    return {
        "states": len(order),
        "initial": 0,
        "accepting": sorted(renum[s] for s in order if dfa.is_accepting(s)),
        "propositions": list(prop_names),
        "transitions": transitions,
    }
