"""POMDP representation, belief arithmetic, Bayes filtering, and simulation.

States carry tag maps (named attributes such as room or carry flags) from
which named state sets and factor partitions are derived.  Sparse dynamics
entries (absent entries mean zero) are summed into one store, the read-only
arrays ``trans_mat[a, s, s']`` and ``obs_mat[a, s', o]`` that filtering,
simulation and smoothing read.  The monitor reads a step's likelihoods
from ``Pomdp.restricted_step``, built from these arrays between the states
the step leaves and reaches and kept in one ``_BoundedTable``.  ``simulate``
draws each successor and observation from a table of its row's running sums.
An ``Execution`` keeps its beliefs as ``Belief`` objects and as one read-only
array, stacked when the execution is built, from which the monitor reads them.
"""

from __future__ import annotations

import json
import random
import threading
from bisect import bisect_right
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ModelError, ZeroLikelihood

SUM_TOL = 1e-9

# The budget of the DP's bounded tables, read at each call.  A model keeps
# restricted steps (``Pomdp.restricted_step``) only while ``A·O·n²`` is at
# most this large, and then at most ``A·O·n²`` cells of them.  The monitor's
# fold plans (``monitor._fold_step``), shared by all models, total at most
# this many codes, and its step labels (``monitor._step_label``) at most this
# many 8-byte cells.
STEP_TABLE_CELLS = 1 << 18


class _BoundedTable(dict):
    """A cache whose entries' sizes, ``cells`` in total, stay within the
    budget given to each ``keep``: a new entry evicts the oldest until it
    fits, and one of size 0 or above the budget is not kept.  A hit is a
    plain ``dict.get``; ``keep`` stores under one lock, so threads that miss
    one key at once store it, and count its size, once.  The entries are
    derived values, so a table pickles and copies as an empty one.
    """

    def __init__(self):
        super().__init__()
        self.cells = 0
        self._sizes: deque[int] = deque()  # the kept entries' sizes, oldest first
        self._lock = threading.Lock()

    def keep(self, key, value, size: int, budget: int):
        """Keep ``value`` under ``key`` and return it, or the entry kept under
        ``key`` first; a ``size`` of 0 or above ``budget`` returns ``value``."""
        if not 0 < size <= budget:
            return value
        with self._lock:
            kept = self.get(key)
            if kept is not None:
                return kept
            while not self._fits(size, budget):
                del self[next(iter(self))]
                self.cells -= self._sizes.popleft()
            self[key] = value
            self._sizes.append(size)
            self.cells += size
        return value

    def _fits(self, size: int, budget: int) -> bool:
        return self.cells + size <= budget

    def clear(self) -> None:
        with self._lock:
            super().clear()
            self._sizes.clear()
            self.cells = 0

    def __reduce__(self):
        return type(self), ()


@dataclass(frozen=True, eq=False)
class Belief:
    """Probability mass function over hidden-state indices.

    Entries are nonnegative and sum to one within ``SUM_TOL``.  The backing
    array is made read-only so beliefs can be shared freely.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ModelError("belief must be a nonempty 1-d vector")
        if not (arr >= 0).all():  # written so that NaN fails too
            raise ModelError("belief entries must be nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ModelError(f"belief mass {total!r} is not 1 within {SUM_TOL}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    def __setstate__(self, state: dict) -> None:
        # numpy does not pickle the read-only flag.
        object.__setattr__(self, "probs", _read_only(state["probs"]))

    @classmethod
    def _trusted(cls, probs: np.ndarray) -> "Belief":
        """Wrap a fresh 1-d float pmf without re-validating it.

        The caller guarantees finite, nonnegative entries with unit sum and
        gives up the array, which is made read-only in place.
        """
        probs.flags.writeable = False
        belief = object.__new__(cls)
        object.__setattr__(belief, "probs", probs)
        return belief

    def __len__(self) -> int:
        return int(self.probs.size)

    def __getitem__(self, i: int) -> float:
        return float(self.probs[i])


def is_index(value) -> bool:
    """Whether ``value`` is an integer index: an ``int`` or a numpy integer,
    but not a ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_number(value) -> bool:
    """Whether ``value`` is a real number: a Python or numpy integer or
    float, but not a ``bool`` (nor a string of digits)."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _probability(p, kind: str, label) -> float:
    """The probability ``p`` of ``label`` as a float; ``ModelError`` unless
    it is a number (``is_number``) within the float range."""
    if not is_number(p):
        raise ModelError(f"{kind} probability {p!r} of {label!r} is not a number")
    try:
        return float(p)
    except OverflowError as exc:  # an integer past the float range
        raise ModelError(f"{kind} probability of {label!r} is past the float range") from exc


def _as_index(label, table: Mapping[str, int], kind: str) -> int:
    if isinstance(label, str):
        if label not in table:
            raise ModelError(f"unknown {kind} name {label!r}")
        return table[label]
    if not is_index(label):
        raise ModelError(f"{kind} label {label!r} is neither a name nor an index")
    idx = int(label)
    if not 0 <= idx < len(table):
        raise ModelError(f"{kind} index {idx} out of range")
    return idx


class Pomdp:
    """Finite POMDP with tagged states, dense dynamics, and named state sets.

    ``trans_mat[a, s, s']`` is the probability that action ``a`` in state
    ``s`` moves the system to ``s'``; ``obs_mat[a, s', o]`` is the
    probability of observing ``o`` after ``a`` landed the system in ``s'``.
    The constructor sums sparse ``(s, a, s') -> p`` and ``(s', a, o) -> p``
    mappings, keyed by names or indices, into these read-only arrays; every
    row must sum to one.  Every probability, each prior entry included,
    must be a number (``is_number``) within the float range.  Actions that
    convey no information emit a designated null observation with
    probability one.

    Instances are immutable after construction and safe for concurrent
    reads; the bounded table behind ``restricted_step`` only caches blocks
    of products of these arrays, and the draw tables behind ``simulate`` the
    running sums of their rows and of the prior.
    A draw table holds one index and one sum per positive entry of its row
    (and the last index twice), so the tables are bounded by the model's
    nonzeros.  A ``Pomdp`` doubles as the symbol table used by the formula
    parser (``named_sets``, ``factor_cells``, ``num_states``).
    """

    def __init__(
        self,
        states: Sequence,
        actions: Sequence[str],
        observations: Sequence[str],
        prior,
        trans: Mapping,
        obs_model: Mapping,
        named_sets: Mapping | None = None,
        factors: Mapping[str, str] | None = None,
    ):
        names, tags = [], []
        for entry in states:
            if isinstance(entry, str):
                names.append(entry)
                tags.append({})
            else:
                name, tag_map = entry
                names.append(str(name))
                tags.append(dict(tag_map))
        if len(set(names)) != len(names):
            raise ModelError("duplicate state names")
        if len(set(actions)) != len(actions) or len(set(observations)) != len(observations):
            raise ModelError("duplicate action or observation names")
        self.state_names: tuple[str, ...] = tuple(names)
        self.state_tags: tuple[dict, ...] = tuple(tags)
        self.actions: tuple[str, ...] = tuple(actions)
        self.observations: tuple[str, ...] = tuple(observations)
        self.state_index = {n: i for i, n in enumerate(self.state_names)}
        self.action_index = {n: i for i, n in enumerate(self.actions)}
        self.obs_index = {n: i for i, n in enumerate(self.observations)}

        if min(len(names), len(self.actions), len(self.observations)) == 0:
            raise ModelError("states, actions, and observations must be nonempty")

        self.trans_mat = self._dense_table(trans, "transition", self.state_index, "state")
        self.obs_mat = self._dense_table(obs_model, "observation", self.obs_index, "observation")
        self._table_cells = self.num_actions * self.num_observations * self.num_states**2
        self._blocks = _BoundedTable()  # (action, obs, live bytes) -> restricted_step
        self._draws: dict[tuple[int, int, int], tuple[list[int], list[float]]] = {}

        try:
            size = len(prior)
        except TypeError:  # a scalar or a 0-d array
            raise ModelError("belief must be a nonempty 1-d vector") from None
        if size != self.num_states:
            raise ModelError("prior length does not match the state count")
        if not isinstance(prior, Belief):
            probs = [_probability(p, "prior", name) for name, p in zip(names, prior)]
            prior = Belief(np.asarray(probs, dtype=float))
        self.prior = prior

        self.named_sets: dict[str, frozenset[int]] = {}
        for name, desc in (named_sets or {}).items():
            self.named_sets[str(name)] = self._resolve_set(desc)

        self.factor_tags: dict[str, str] = {}
        self.factor_cells: dict[str, tuple[tuple[int, ...], ...]] = {}
        for fname, tag_key in (factors or {}).items():
            cells = self._partition_by_tag(str(fname), str(tag_key))
            self.factor_tags[str(fname)] = str(tag_key)
            self.factor_cells[str(fname)] = cells

    def __setstate__(self, state: dict) -> None:
        # numpy does not pickle the read-only flag.
        self.__dict__.update(state)
        _read_only(self.trans_mat)
        _read_only(self.obs_mat)

    # -- construction helpers -------------------------------------------------

    def _dense_table(
        self, entries: Mapping, kind: str, targets: Mapping[str, int], target_kind: str
    ) -> np.ndarray:
        """Sum ``(s, a, t) -> p`` entries into a read-only ``[a, s, t]`` array with unit rows.

        Each entry is checked in turn, its probability before its labels, and
        the entries are summed in their given order."""
        index: list[tuple[int, int, int]] = []
        probs: list[float] = []
        for (s, a, t), p in entries.items():
            p = _probability(p, kind, [s, a, t])
            if not 0 <= p <= 1 + SUM_TOL:  # written so that NaN fails too
                raise ModelError(f"{kind} probability {p!r} outside [0, 1]")
            if p == 0.0:
                continue
            s = _as_index(s, self.state_index, "state")
            a = _as_index(a, self.action_index, "action")
            index.append((a, s, _as_index(t, targets, target_kind)))
            probs.append(p)
        table = np.zeros((self.num_actions, self.num_states, len(targets)))
        np.add.at(table, tuple(np.array(index, dtype=np.intp).reshape(-1, 3).T), probs)
        row_err = np.abs(table.sum(axis=2) - 1.0)
        if (row_err > SUM_TOL).any():
            a, s = np.unravel_index(int(row_err.argmax()), row_err.shape)
            raise ModelError(
                f"{kind} row for state {self.state_names[s]!r} under action "
                f"{self.actions[a]!r} sums to {float(table[a, s].sum())!r}"
            )
        table.flags.writeable = False
        return table

    def _resolve_set(self, desc) -> frozenset[int]:
        if isinstance(desc, Mapping):
            if set(desc) != {"tag", "value"}:
                raise ModelError("set predicate objects must have exactly the keys 'tag' and 'value'")
            tag, value = desc["tag"], desc["value"]
            return frozenset(i for i, t in enumerate(self.state_tags) if t.get(tag) == value)
        members = set()
        for item in desc:
            members.add(_as_index(item, self.state_index, "state"))
        return frozenset(members)

    def _partition_by_tag(self, fname: str, tag_key: str) -> tuple[tuple[int, ...], ...]:
        groups: dict = {}
        for i, tags in enumerate(self.state_tags):
            if tag_key not in tags:
                raise ModelError(
                    f"factor {fname!r}: state {self.state_names[i]!r} lacks tag {tag_key!r}"
                )
            groups.setdefault(tags[tag_key], []).append(i)
        ordered = sorted(groups.items(), key=lambda kv: str(kv[0]))
        return tuple(tuple(members) for _, members in ordered)

    # -- basic queries ---------------------------------------------------------

    @property
    def num_states(self) -> int:
        return len(self.state_names)

    @property
    def num_actions(self) -> int:
        return len(self.actions)

    @property
    def num_observations(self) -> int:
        return len(self.observations)

    def restricted_step(
        self, action: int, obs: int, live: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The step ``(action, obs)`` taken from the ascending states
        ``live``: the ascending states ``next_live`` it reaches from them
        with positive likelihood, the ``live × next_live`` block ``[s, s2]``
        of ``trans_mat[action, s, s2] * obs_mat[action, s2, obs]``, and its
        support, all read-only and the support as float64 0/1 entries, so
        the monitor's path counts advance by a BLAS product.  The indices
        must be integers in range.  A result is kept in the model's block
        table once per live set, whatever its integer dtype.
        """
        key = (action, obs, live.tobytes())
        block = self._blocks.get(key)
        if block is not None:
            return block
        if live.dtype != np.intp:
            return self.restricted_step(action, obs, live.astype(np.intp))
        rows = self.trans_mat[action].take(live, axis=0)
        rows *= self.obs_mat[action][:, obs]
        next_live = rows.any(axis=0).nonzero()[0]
        rows = rows.take(next_live, axis=1)
        support = (rows != 0).astype(np.float64)
        block = (_read_only(next_live), _read_only(rows), _read_only(support))
        budget = self._table_cells if self._table_cells <= STEP_TABLE_CELLS else 0
        return self._blocks.keep(key, block, rows.size, budget)

    def _draw(self, r: float, rows: int, action: int = 0, state: int = 0) -> int:
        """The index that the variate ``r`` in [0, 1) draws from the prior
        (``rows`` 0), from ``trans_mat[action, state]`` (1) or from
        ``obs_mat[action, state]`` (2): the first positive entry at which
        the running sum of the positive entries, added left to right,
        exceeds ``r``, else the last positive entry.

        A row's draw table, the indices of its positive entries (the last
        one twice) and their running sums, is built on its first draw and
        kept; a draw is a binary search of the sums, the inversion method
        (Devroye, 1986, *Non-Uniform Random Variate Generation*, ch. 3).
        """
        key = (rows, action, state)
        table = self._draws.get(key)
        if table is None:
            if rows:
                row = (self.trans_mat, self.obs_mat)[rows - 1][action, state]
            else:
                row = self.prior.probs
            index, sums, acc = [], [], 0.0
            for i, p in enumerate(row.tolist()):
                if p <= 0.0:
                    continue
                acc += p
                index.append(i)
                sums.append(acc)
            index.append(index[-1])
            table = self._draws.setdefault(key, (index, sums))
        index, sums = table
        return index[bisect_right(sums, r)]

    # -- JSON interchange ------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Serialize to the model-file schema (see README)."""
        sn, an, on = self.state_names, self.actions, self.observations

        def entries(table, targets):  # argwhere walks (s, a, t) in sorted order
            return [
                [sn[s], an[a], targets[t], float(table[a, s, t])]
                for s, a, t in np.argwhere(table.transpose(1, 0, 2)).tolist()
            ]

        return {
            "states": [{"name": n, "tags": dict(t)} for n, t in zip(sn, self.state_tags)],
            "actions": list(an),
            "observations": list(on),
            "prior": {sn[i]: float(p) for i, p in enumerate(self.prior.probs) if p > 0},
            "transitions": entries(self.trans_mat, sn),
            "observation_model": entries(self.obs_mat, on),
            "sets": {name: [sn[i] for i in sorted(ix)] for name, ix in self.named_sets.items()},
            "factors": dict(self.factor_tags),
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "Pomdp":
        try:
            states = [(e["name"], e.get("tags", {})) for e in doc["states"]]
            names = [n for n, _ in states]
            prior = [0.0] * len(names)
            index = {n: i for i, n in enumerate(names)}
            for name, p in doc["prior"].items():
                if name not in index:
                    raise ModelError(f"prior references unknown state {name!r}")
                prior[index[name]] = p
            return cls(
                states,
                doc["actions"],
                doc["observations"],
                prior,
                _entry_map(doc["transitions"], "transition"),
                _entry_map(doc["observation_model"], "observation"),
                named_sets=doc.get("sets", {}),
                factors=doc.get("factors", {}),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed model document: {exc}") from exc


def _entry_map(entries, kind: str) -> dict:
    """Key ``[s, a, t, p]`` entries by label triple; a repeated triple
    raises ``ModelError``."""
    table = {}
    for s, a, t, p in entries:
        if (s, a, t) in table:
            raise ModelError(f"{kind} entry {[s, a, t]!r} is listed more than once")
        table[s, a, t] = p
    return table


def load_json(path, kind: str):
    """Parse a JSON file; malformed content raises ``ModelError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        # JSONDecodeError, UnicodeDecodeError, and nesting too deep to decode
        except (ValueError, RecursionError) as exc:
            raise ModelError(f"malformed {kind} file {str(path)!r}: {exc}") from exc


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key given twice is malformed, instead of
    silently keeping only its last value."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"key {key!r} is repeated in a JSON object")
            seen.add(key)
    return doc


def load_model(path) -> Pomdp:
    return Pomdp.from_json_dict(load_json(path, "model"))


def save_json(doc, path) -> None:
    """Write a JSON document indented by two spaces, with a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def save_model(pomdp: Pomdp, path) -> None:
    save_json(pomdp.to_json_dict(), path)


# -- executions ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Execution:
    """Aligned belief/action/observation record of a monitored run.

    ``beliefs`` has one more entry than ``actions`` and ``observations``:
    ``beliefs[i + 1]`` is the filter update of ``beliefs[i]`` under
    ``actions[i]`` and ``observations[i]``.  ``probs`` holds the beliefs
    as one read-only ``(horizon + 1, n)`` array, row i ``beliefs[i].probs``,
    stacked when the execution is built, so beliefs of different lengths
    raise ``ModelError`` there; the monitor reads the beliefs from it, so
    formulas monitored on one execution share it.  Executions, like
    beliefs, compare and hash by identity.
    """

    beliefs: tuple[Belief, ...]
    actions: tuple[int, ...]
    observations: tuple[int, ...]
    probs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.beliefs) == 0:
            raise ModelError("an execution needs at least the initial belief")
        if len(self.actions) != len(self.beliefs) - 1 or len(self.observations) != len(self.actions):
            raise ModelError(
                "inconsistent execution lengths: "
                f"{len(self.beliefs)} beliefs, {len(self.actions)} actions, "
                f"{len(self.observations)} observations"
            )
        try:
            probs = np.stack([b.probs for b in self.beliefs])
        except ValueError as exc:
            raise ModelError("execution beliefs differ in length") from exc
        object.__setattr__(self, "probs", _read_only(probs))

    @property
    def horizon(self) -> int:
        return len(self.actions)

    def __setstate__(self, state: dict) -> None:
        # numpy does not pickle the read-only flag.
        self.__dict__.update(state)
        _read_only(self.probs)


def execution_from_actions(pomdp: Pomdp, actions: Sequence, observations: Sequence) -> Execution:
    """Build a validated execution by filtering the given action/observation record."""
    acts = tuple(_as_index(a, pomdp.action_index, "action") for a in actions)
    obss = tuple(_as_index(o, pomdp.obs_index, "observation") for o in observations)
    beliefs = tuple(filter_run(pomdp, acts, obss))
    return Execution(beliefs, acts, obss)


# -- filtering -----------------------------------------------------------------


def bayes_update(pomdp: Pomdp, belief: Belief, action: int, obs: int) -> Belief:
    """One step of the recursive Bayes filter.

    Predicts through the transition table, corrects by the observation
    likelihood, and renormalizes.  Raises ``ZeroLikelihood`` when the
    observation is impossible under the predicted belief, which signals an
    inconsistent trace.
    """
    if len(belief) != pomdp.num_states:
        raise ModelError("belief dimension does not match the model")
    _check_indices(pomdp, (action,), (obs,))
    return Belief._trusted(_bayes_step(pomdp, belief.probs, action, obs))


def _check_indices(pomdp: Pomdp, acts: Sequence, obs: Sequence) -> None:
    """Raise ``ModelError`` unless every recorded action and observation is
    an integer index in the model's range."""
    num_a, num_o = pomdp.num_actions, pomdp.num_observations
    if len(acts) and not (
        {*map(type, acts), *map(type, obs)} == {int}
        and 0 <= min(acts) and max(acts) < num_a and 0 <= min(obs) and max(obs) < num_o
    ):
        # Name the first bad step; numpy integers in range pass.
        for i, (a, o) in enumerate(zip(acts, obs)):
            for kind, index in (("action", a), ("observation", o)):
                if not is_index(index):
                    raise ModelError(f"step {i}: {kind} {index!r} is not an integer index")
            if not (0 <= a < num_a and 0 <= o < num_o):
                raise ModelError(f"step {i}: action {a} or observation {o} is out of range")


def _bayes_step(
    pomdp: Pomdp, probs: np.ndarray, action, obs, out: np.ndarray | None = None
) -> np.ndarray:
    """``bayes_update`` of the pmf ``probs``, written into ``out`` if given;
    the caller has checked the indices."""
    posterior = (probs @ pomdp.trans_mat[action]) * pomdp.obs_mat[action, :, obs]
    norm = float(np.add.reduce(posterior))
    if norm <= 0.0:
        raise ZeroLikelihood(
            f"observation {pomdp.observations[obs]!r} has zero likelihood after "
            f"action {pomdp.actions[action]!r}"
        )
    # A valid belief through unit-sum rows with entries in [0, 1], over a
    # positive norm, is a fresh finite pmf: no need to validate it again.
    return np.divide(posterior, norm, out=out)


def filter_run(pomdp: Pomdp, actions: Sequence[int], observations: Sequence[int]) -> list[Belief]:
    """Fold ``bayes_update`` over an action/observation record, starting at
    the prior.  The updates fill the rows of one read-only array, and each
    belief after the prior is a view of its row."""
    if len(actions) != len(observations):
        raise ModelError("actions and observations must have equal length")
    _check_indices(pomdp, actions, observations)
    out = np.empty((len(actions), pomdp.num_states))
    probs = pomdp.prior.probs
    for i, (a, o, row) in enumerate(zip(actions, observations, out)):
        try:
            probs = _bayes_step(pomdp, probs, a, o, row)
        except ZeroLikelihood as exc:
            raise ZeroLikelihood(f"step {i}: {exc}", step=i) from exc
    out.flags.writeable = False
    return [pomdp.prior, *map(Belief._trusted, out)]


# -- belief functionals ----------------------------------------------------------


TIE_TOL = 1e-12


def below_zero(values):
    """The tie band of belief predicates: a value, or each of an array of
    values, holds as below zero only when it is below ``-TIE_TOL``.

    A belief value sums at most a few hundred masses, so its rounding error
    lies far inside the band (Higham, 2002, *Accuracy and Stability of
    Numerical Algorithms*, ch. 4): a value in the band reads "not below
    zero" whatever order its terms were summed in.
    """
    return values < -TIE_TOL


def _checked(states: Iterable[int], num_states: int) -> list[int]:
    """A state set's indices, deduplicated and ascending; ``ModelError``
    unless each lies in ``range(num_states)``."""
    idx = sorted(set(states))
    if idx and not (idx[0] >= 0 and idx[-1] < num_states):
        raise ModelError("state set out of range")
    return idx


def marginal_prob(belief: Belief, states: Iterable[int]) -> float:
    """Total belief mass on a set of state indices."""
    return float(belief.probs.take(_checked(states, len(belief))).sum())


def marginal_dist(belief: Belief, cells: Sequence[Sequence[int]]) -> np.ndarray:
    """Belief mass per cell of a partition of the state indices."""
    n = len(belief)
    return np.array([float(belief.probs.take(_checked(c, n)).sum()) for c in cells])


def entropy_bits(pmf) -> float:
    """Shannon entropy in bits, with 0 * log2(0) taken as 0."""
    arr = np.asarray(pmf, dtype=float)
    nz = arr[arr > 0]
    return float(-(nz * np.log2(nz)).sum()) + 0.0


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class StateSetReader:
    """The masses of fixed state sets and the entropies of fixed factors,
    read from one belief or from a stack of beliefs at once.

    ``sets`` are ``P(A)`` sets and ``factors`` partitions into cells.  Every
    distinct state set is one column of a read-only 0/1 incidence matrix,
    built once per state count, so a read is one ``probs @ M``: the distinct
    sets in the given order, the other cells, then an always empty column.
    The entropies of all factors come from one pass over their cell masses,
    each factor padded to the widest with the empty column, whose zero mass
    adds no term.  A mass sums at most ``num_states`` terms, so it differs
    from ``marginal_prob`` or ``marginal_dist`` by a few rounding errors at
    most, far inside the band of ``below_zero``.
    """

    def __init__(self, sets: Iterable[Iterable[int]] = (), factors: Iterable[Sequence] = ()):
        set_keys = [frozenset(s) for s in sets]
        cell_keys = [[frozenset(c) for c in cells] for cells in factors]
        keys = [*set_keys, *(k for cells in cell_keys for k in cells)]
        self.columns: tuple[frozenset[int], ...] = tuple(dict.fromkeys(keys))
        column = {k: j for j, k in enumerate(self.columns)}
        self.set_columns = tuple(column[k] for k in set_keys)
        self.cell_columns = tuple(tuple(column[k] for k in cells) for cells in cell_keys)
        width = max(map(len, self.cell_columns), default=0)
        padded = [c + (len(self.columns),) * (width - len(c)) for c in self.cell_columns]
        self._cells = _read_only(np.array(padded, dtype=np.intp).reshape(len(padded), width))
        self._matrices: dict[int, np.ndarray] = {}

    def incidence(self, num_states: int) -> np.ndarray:
        """The ``(num_states, columns + 1)`` matrix whose column j marks the
        states of ``columns[j]``.  Raises ``ModelError`` when a set holds an
        index outside ``range(num_states)``."""
        matrix = self._matrices.get(num_states)
        if matrix is None:
            matrix = np.zeros((num_states, len(self.columns) + 1))
            rows = np.array([*chain.from_iterable(self.columns)])  # every column's members
            if rows.size:
                if not (rows.min() >= 0 and rows.max() < num_states):
                    raise ModelError("state set out of range")
                cols = np.repeat(np.arange(len(self.columns)), [*map(len, self.columns)])
                matrix[rows, cols] = 1.0
            self._matrices[num_states] = matrix = _read_only(matrix)
        return matrix

    def read(self, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The column masses and the factor entropies of ``probs``, a pmf or
        a stack of pmfs in rows; both results keep the stack's leading axis."""
        masses = probs @ self.incidence(probs.shape[-1])
        if not self.cell_columns:  # no factors: the empty (…, 0) entropies
            return masses, masses[..., :0]
        cells = masses.take(self._cells, axis=-1)
        terms = cells * np.log2(np.where(cells > 0, cells, 1.0))
        return masses, 0.0 - terms.sum(axis=-1)  # ``-x + 0.0`` in one operation


# -- policies and simulation ------------------------------------------------------


class Policy:
    """Decision rule queried once per step with the current belief.

    ``reset`` is called at the start of every simulated trajectory with the
    model, the horizon, and the trajectory seed, so policies can rebuild
    internal memory and stay reproducible.
    """

    def reset(self, pomdp: Pomdp, horizon: int, seed: int) -> None:
        pass

    def act(self, belief: Belief, step: int) -> int:
        raise NotImplementedError


class ScriptedPolicy(Policy):
    """Replays a fixed action sequence, padding with ``pad_action`` if short."""

    def __init__(self, actions: Sequence, pad_action=None):
        self._script = list(actions)
        self._pad = pad_action
        self._resolved: list[int] = []
        self._pad_idx: int | None = None

    def reset(self, pomdp: Pomdp, horizon: int, seed: int) -> None:
        self._resolved = [_as_index(a, pomdp.action_index, "action") for a in self._script]
        self._pad_idx = (
            None if self._pad is None else _as_index(self._pad, pomdp.action_index, "action")
        )

    def act(self, belief: Belief, step: int) -> int:
        if step < len(self._resolved):
            return self._resolved[step]
        if self._pad_idx is None:
            raise ModelError(f"scripted policy exhausted at step {step}")
        return self._pad_idx


class RandomActionPolicy(Policy):
    """Uniform random action choice from a per-trajectory seeded stream."""

    def reset(self, pomdp: Pomdp, horizon: int, seed: int) -> None:
        self._rng = random.Random(seed + 1_000_003)
        self._num_actions = pomdp.num_actions

    def act(self, belief: Belief, step: int) -> int:
        return self._rng.randrange(self._num_actions)


def simulate(
    pomdp: Pomdp, policy: Policy, horizon: int, seed: int
) -> tuple[list[int], Execution]:
    """Sample a hidden path and the execution the monitor would observe.

    The hidden start state comes from the prior; each step asks the policy
    for an action, samples the successor and its observation, and advances
    the filter.  ``horizon`` and ``seed`` must be integer indices, and the
    horizon at least 1; identical seeds give bit-identical results.  The
    filter updates fill the rows of one read-only array, and each belief
    after the prior, also the one the policy is handed, is a view of its
    row.
    """
    if not is_index(horizon):
        raise ModelError(f"horizon {horizon!r} is not an integer index")
    if horizon < 1:
        raise ModelError("horizon must be at least 1")
    if not is_index(seed):
        raise ModelError(f"seed {seed!r} is not an integer index")
    horizon, seed = int(horizon), int(seed)
    rng = random.Random(seed)
    draw = pomdp._draw
    state = draw(rng.random(), 0)
    policy.reset(pomdp, horizon, seed)
    hidden = [state]
    belief = pomdp.prior
    beliefs = [belief]
    acts: list[int] = []
    obss: list[int] = []
    out = np.empty((horizon, pomdp.num_states))
    for step, row in enumerate(out):
        action = policy.act(belief, step)
        if not (is_index(action) and 0 <= action < pomdp.num_actions):
            raise ModelError(f"policy returned invalid action {action!r}")
        action = int(action)
        state = draw(rng.random(), 1, action, state)
        obs = draw(rng.random(), 2, action, state)
        _bayes_step(pomdp, belief.probs, action, obs, row)
        belief = Belief._trusted(row)
        beliefs.append(belief)
        hidden.append(state)
        acts.append(action)
        obss.append(obs)
    out.flags.writeable = False
    return hidden, Execution(tuple(beliefs), tuple(acts), tuple(obss))
