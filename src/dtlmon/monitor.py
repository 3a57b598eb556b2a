"""Feasibility checking and exact acceptance probability for executions.

Monitoring has two stages.  Feasibility relaxes every hidden-state atom
``in(A)`` to the belief predicate "positive mass on A" and checks the
resulting belief-only formula against the observed belief trajectory; a
failure means no hidden path can satisfy the formula, so the probability
is zero.  Acceptance checking then computes the exact probability that a
hidden sample path drawn from the smoothed posterior (conditioned on the
whole action/observation record) satisfies the formula when paired with
the belief sequence.

The sum over satisfying paths is one forward pass over the filtered path
measure.  Its mass is one matrix whose columns are the hidden states the
record so far allows.  Rows 0 and 1 hold the mass that has reached the
dead state or the accept sink (the bad and good prefixes of co-safe
properties; Kupferman & Vardi, "Model checking of safety properties",
2001), which stays there because later observations still weigh its
paths; the other rows are the open automaton states.  Each step is one
product with the step's transition and observation likelihoods, one
division by the total, the Bayes filter's normalizer, so long runs do not
underflow, and one fold of every cell into its successor's row.  The
likelihoods are the model's restricted step (``Pomdp.restricted_step``),
the block of ``trans_mat[a, s, s2] * obs_mat[a, s2, o]`` between the states
allowed before and after the step, with its support and the states allowed
after it.  The model keeps each such block per (action, observation, allowed
states) triple in a bounded table (``model._BoundedTable``), and a step that
meets a kept triple only looks it up.  The fold is a plan and a sum: the
plan gives every cell its successor's row, looked up only for cells with
mass, once per row and distinct hidden-state bits, and one ``bincount``
sums the mass by it.  A plan depends only on the automaton, its open
states, the letter, the columns' hidden-state bits and which open cells
hold mass, so one bounded table keeps the plans by those, and a repeated
fold only looks its plan up.  The table holds each automaton by weak
reference, and ``compile_monitor.cache_clear`` empties it.  The accept row's
share of the final mass is the probability under the smoothed posterior:
exactly 1.0 when every consistent path accepts and 0.0 when none does.
Consistent hidden paths are counted exactly alongside: each column's count
is a column of base-2^31 int64 limbs, advanced by one small integer matmul
with the step's support, and joined into one Python integer at the end.  A
brute-force enumeration oracle over the smoothed chain built from backward
likelihoods (another factorization of the same posterior) cross-checks it.

Both stages read the same per-step belief-predicate signatures, computed
once per execution by the formula's compiled ``BeliefPredicates`` from the
execution's beliefs as one array (``Execution.probs``), which is stacked
when the execution is built and shared by every formula monitored on it;
``region_signature`` is the per-belief reference they agree with.  Both
run one automaton over the propositional skeleton, in which every belief
predicate is just a proposition and each hidden-state atom is the
proposition of its relaxed predicate.  Feasibility feeds it the
signatures as they are; acceptance overwrites the relaxed bits with the
hidden state's membership in each atom's set.

The automaton does not depend on the predicates' thresholds.  Compiled
formulas with equal skeletons share one ``Dfa`` from a weak table keyed
by (skeleton, proposition count): a threshold sweep builds its automaton
once, and an automaton lives as long as a cached compiled formula uses
it.  No result depends on what a shared automaton has discovered, because
the dynamic program numbers its rows per execution.  An automaton state
keeps only the ⊆-minimal obligation sets of its subset (an antichain; see
``automaton``), so deeply nested eventualities and untils do not grow the
states that a shared automaton keeps.

The acceptance program reads a formula only through its automaton, its
hidden states' bits and the signatures with the relaxed bits cleared.  Its
result is kept in one weak table keyed by the execution, then by (weak
references to the model and the automaton, state bits, letters): formulas
of one sweep that share an automaton and meet the same masked signature
sequence on one execution share one run (``dtlmon sweep`` loads each trace
once for all its configs to that end).  Only ``acceptance_probability``
reads or writes the memo.  It keeps no model, automaton or execution
alive; an entry goes with its execution, and one whose model or automaton
has died is never hit again.  Every monitor call checks the formula and
the record against the model, memo hit or not.  No result depends on the
memo: a hit returns, bit for bit, what its run gives.

Tie rule: a belief predicate holds only when its value is below
``-TIE_TOL`` (``model.below_zero``), so a value that grazes its threshold
reads "does not hold" whatever order its masses were summed in; the
policies and the enumeration oracle decide by the same band.  Minus one
set mass (``logic.exact_sign``), the form of every relaxed predicate,
keeps its sign under any rounding and is compared with zero exactly, so
feasibility never rejects a run for a real but tiny mass.
"""

from __future__ import annotations

import operator
import threading
import weakref
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import model
from .automaton import Dfa, PropAtom, dfa_accepts
from .errors import AllZero, CapExceeded, InconsistentState, ModelError
from .logic import (
    Add,
    BeliefAtom,
    BeliefExpr,
    Callback,
    Const,
    EntropyBits,
    Formula,
    Mul,
    Neg,
    Prob,
    StateAtom,
    Sub,
    belief_expr_text,
    eval_belief_expr,
    exact_sign,
    formula_atoms,
    map_atoms,
    semantics_eval,
)
from .model import (
    SUM_TOL,
    Belief,
    Execution,
    Pomdp,
    StateSetReader,
    _check_indices,
    below_zero,
    filter_run,
    is_number,
    load_json,
    save_json,
)

# -- propositions ---------------------------------------------------------------


def _relaxed_atom_expr(atom: StateAtom) -> BeliefExpr:
    """Belief predicate standing in for a hidden-state atom.

    ``in(A)`` relaxes to  -P(A) < 0  (positive mass on A); a negated atom
    relaxes through its complement set.
    """
    if not atom.negated:
        return Neg(Prob(atom.name, atom.indices))
    complement = frozenset(range(atom.num_states)) - atom.indices
    return Neg(Prob(f"!{atom.name}", complement))


def relax(formula: Formula) -> Formula:
    """Replace every hidden-state atom by its positive-mass belief predicate."""
    return map_atoms(
        formula,
        lambda atom: BeliefAtom(_relaxed_atom_expr(atom)) if isinstance(atom, StateAtom) else atom,
    )


RegionSignature = int
"""Bitmask over belief propositions; bit j marks predicate j holding."""


def region_signature(belief: Belief, comp: CompiledMonitor) -> RegionSignature:
    """Bitmask over the compiled formula's belief propositions: bit j is set
    iff predicate j's value on ``belief`` is ``below_zero``, or, for an
    ``exact_sign`` predicate, below zero at all."""
    sig = 0
    for j, expr in enumerate(comp.belief_props):
        value = eval_belief_expr(expr, belief)
        if (value < 0) if exact_sign(expr) else below_zero(value):
            sig |= 1 << j
    return sig


_BINARY_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


class BeliefPredicates:
    """Belief expressions compiled for evaluation over a whole execution.

    The beliefs come stacked in the rows of one array, as
    ``Execution.probs`` keeps them.  One ``StateSetReader`` reads the mass
    of every distinct ``P(A)`` set and the entropy of every distinct
    ``H(F)`` factor of all rows at once; each expression then runs as a
    closure over those columns, with ``Callback`` once per row, handed the
    row as a ``Belief``.  Values agree with ``eval_belief_expr``
    on each belief up to the rounding of the reader's sums.  The
    expressions of ``exact_sign`` hold below zero at all, the others only
    ``below_zero``.
    """

    def __init__(self, exprs: Sequence[BeliefExpr]):
        self._sets: dict[frozenset[int], int] = {}
        self._factors: dict[tuple, int] = {}
        self._programs = [self._compile(expr) for expr in exprs]
        self._reader = StateSetReader(self._sets, self._factors)
        self._exact = np.array([exact_sign(expr) for expr in exprs], dtype=bool)[:, None]

    def _compile(self, expr: BeliefExpr):
        """Closure mapping (set masses, factor entropies, stacked beliefs)
        to the expression's values; set and factor k are column k."""
        if isinstance(expr, Const):
            value = expr.value
            return lambda masses, entropies, probs: value
        if isinstance(expr, Prob):
            k = self._sets.setdefault(expr.indices, len(self._sets))
            return lambda masses, entropies, probs: masses[:, k]
        if isinstance(expr, EntropyBits):
            k = self._factors.setdefault(expr.cells, len(self._factors))
            return lambda masses, entropies, probs: entropies[:, k]
        if isinstance(expr, Callback):
            fn = expr.fn
            return lambda masses, entropies, probs: np.array(
                [float(fn(Belief._trusted(row))) for row in probs]
            )
        if isinstance(expr, Neg):
            operand = self._compile(expr.operand)
            return lambda *args: -operand(*args)
        if type(expr) in _BINARY_OPS:
            op = _BINARY_OPS[type(expr)]
            left, right = self._compile(expr.left), self._compile(expr.right)
            return lambda *args: op(left(*args), right(*args))
        raise TypeError(f"not a belief expression: {expr!r}")

    def values(self, probs: np.ndarray) -> np.ndarray:
        """Expression values on the beliefs in the rows of ``probs``: row j
        holds expression j on every belief."""
        masses, entropies = self._reader.read(probs)
        out = np.empty((len(self._programs), len(probs)))
        for j, program in enumerate(self._programs):
            out[j] = program(masses, entropies, probs)
        return out

    def signatures(self, probs: np.ndarray) -> list[RegionSignature]:
        """``region_signature`` of the belief in every row of ``probs``,
        from one evaluation of ``values``."""
        values = self.values(probs)
        holds = np.where(self._exact, values < 0, below_zero(values))
        packed = np.packbits(holds, axis=0, bitorder="little")
        width = packed.shape[0]
        data = packed.T.tobytes()
        return [
            int.from_bytes(data[r * width : (r + 1) * width], "little")
            for r in range(values.shape[1])
        ]


# Automata shared by every compiled formula with the same skeleton, such as
# formulas that differ only in belief thresholds.  Held weakly, so an
# automaton lives exactly as long as a compiled formula uses it.
_shared_dfas: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_shared_dfas_lock = threading.Lock()


class CompiledMonitor:
    """Everything monitoring reads of one formula, compiled once.

    Propositions are numbered densely in first-seen order
    (``belief_props``, named by ``prop_names``): one per distinct belief
    expression of the formula's belief atoms, and one per (state set, sign)
    class of its hidden-state atoms, the relaxed predicate of the class's
    first atom.  A relaxed predicate never shares its proposition with a
    belief atom, since acceptance overwrites it.  ``state_atoms`` maps each
    hidden-state atom, whose state count must be the model's, to the
    proposition of its class.  ``dfa`` runs the one skeleton: feasibility
    feeds it the signatures as they are, so a hidden-state atom reads
    "positive mass"; acceptance clears the relaxed bits (``relaxed_mask``)
    and sets those of the classes the hidden state satisfies
    (``state_bits``).  The automaton depends only on the propositional
    skeleton, so compiled formulas with equal skeletons share one unnamed
    ``Dfa``.
    """

    def __init__(self, formula: Formula):
        self.formula = formula
        props: dict[tuple[BeliefExpr, bool], int] = {}  # (expression, relaxed?) -> bit
        classes: dict[tuple[frozenset[int], bool], int] = {}  # (state set, sign) -> bit
        self.state_atoms: dict[StateAtom, int] = {}
        self.relaxed_mask = 0

        def proposition(atom) -> PropAtom:
            """The atom's proposition, numbered on first sight."""
            if isinstance(atom, BeliefAtom):
                return PropAtom(props.setdefault((atom.expr, False), len(props)), atom.negated)
            bit = self.state_atoms.get(atom)
            if bit is None:
                bit = classes.get((atom.indices, atom.negated))
                if bit is None:
                    bit = props.setdefault((_relaxed_atom_expr(atom), True), len(props))
                    classes[atom.indices, atom.negated] = bit
                    self.relaxed_mask |= 1 << bit
                self.state_atoms[atom] = bit
            return PropAtom(bit)

        # ``map_atoms`` meets the atoms left to right, so the walk that
        # builds the skeleton also numbers the propositions.
        skeleton = map_atoms(formula, proposition)
        self._classes = classes
        self.belief_props: tuple[BeliefExpr, ...] = tuple(expr for expr, _ in props)
        self.prop_names: tuple[str, ...] = tuple(
            f"[{belief_expr_text(e)} < 0]" for e in self.belief_props
        )
        self.predicates = BeliefPredicates(self.belief_props)
        self._state_bits: dict[int, np.ndarray] = {}
        key = (skeleton, len(props))
        with _shared_dfas_lock:
            self.dfa = _shared_dfas.get(key)
            if self.dfa is None:
                self.dfa = _shared_dfas[key] = Dfa(skeleton, len(props))

    def state_bits(self, num_states: int) -> np.ndarray:
        """Per-hidden-state bitmask of the hidden-state propositions it
        satisfies, computed once per model dimension, as a read-only array
        of Python ints (a formula may have more than 63 propositions).
        Raises ``ModelError`` when a set holds an index outside
        ``range(num_states)``."""
        bits = self._state_bits.get(num_states)
        if bits is None:
            # Every state starts with the bits of the negated classes; one
            # pass over each class's members then sets its bit there, or
            # clears it for a negated class.
            row = [sum(1 << bit for (_, negated), bit in self._classes.items() if negated)]
            row *= num_states
            for (indices, _), bit in self._classes.items():
                if indices and not (min(indices) >= 0 and max(indices) < num_states):
                    raise ModelError("state set out of range")
                flag = 1 << bit
                for s in indices:
                    row[s] ^= flag
            bits = np.array(row, dtype=object)
            bits.flags.writeable = False
            self._state_bits[num_states] = bits
        return bits


COMPILE_CACHE_SIZE = 128


@lru_cache(maxsize=COMPILE_CACHE_SIZE)
def _compile_cached(formula: Formula) -> CompiledMonitor:
    return CompiledMonitor(formula)


def compile_monitor(formula: Formula) -> CompiledMonitor:
    """Cached compilation; formulas are immutable so reuse is safe.  The
    cache is bounded, so a long sweep over formulas (or ``Callback``
    formulas, which hash by function identity) does not grow without end.
    Clearing it also releases the shared automata and empties the fold
    plans (``_fold_step``), so the next compile starts them cold.  No
    formula is too deep to hash as a cache key: the nesting bound holds
    when a node is built (``logic.MAX_NESTING``).
    """
    return _compile_cached(formula)


def _cache_clear() -> None:
    _compile_cached.cache_clear()
    _fold_plans.clear()


compile_monitor.cache_info = _compile_cached.cache_info
compile_monitor.cache_clear = _cache_clear


# -- feasibility ----------------------------------------------------------------


def feasibility_check(
    pomdp: Pomdp, formula: Formula, exec: Execution
) -> tuple[bool, tuple[frozenset[int], ...]]:
    """Necessary condition for a positive satisfaction probability.

    Runs the formula's automaton over the per-step predicate signatures of
    the recorded beliefs, where each hidden-state atom reads its relaxed
    predicate.  Returns the verdict and the per-step sets of satisfied
    belief propositions.
    """
    ok, labels, _ = _feasibility(compile_monitor(formula), pomdp, exec)
    return ok, labels


def _check_atoms(pomdp: Pomdp, atoms: Iterable) -> None:
    """Raise ``ModelError`` unless the formula's hidden-state ``atoms`` were
    resolved against the model's state count."""
    for atom in atoms:
        if isinstance(atom, StateAtom) and atom.num_states != pomdp.num_states:
            raise ModelError(
                f"in({atom.name}) was resolved against {atom.num_states} states, "
                f"the model has {pomdp.num_states}"
            )


def _check_record(pomdp: Pomdp, exec: Execution) -> None:
    """Raise ``ModelError`` unless the execution's beliefs, actions and
    observations fit the model."""
    if exec.probs.shape[1] != pomdp.num_states:
        raise ModelError("execution beliefs do not match the model dimension")
    _check_indices(pomdp, exec.actions, exec.observations)


def _feasibility(comp: CompiledMonitor, pomdp: Pomdp, exec: Execution):
    """Relaxed verdict, per-step labels and the per-step signatures they
    come from, after checking the formula and the record against the
    model."""
    _check_atoms(pomdp, comp.state_atoms)
    _check_record(pomdp, exec)
    sigs = comp.predicates.signatures(exec.probs)
    ok = dfa_accepts(comp.dfa, sigs)
    label = {
        sig: frozenset([j for j, bit in enumerate(bin(sig)[:1:-1]) if bit == "1"])
        for sig in set(sigs)
    }
    return ok, tuple(label[sig] for sig in sigs), sigs


# -- smoothing ------------------------------------------------------------------


@dataclass(frozen=True)
class BackwardLikelihoods:
    """Backward observation likelihoods for a recorded action/observation run.

    ``values[i, s] * 2**-shifts[i]`` is the probability of the observations
    after time i given the hidden state is ``s`` at time i and the recorded
    actions are taken; the last row is identically one.  A row is scaled up
    by the exact power of two ``2**shifts[i]`` only where its largest entry
    would fall below ``2**-512``, so long runs do not underflow; on other
    runs every shift is zero.
    """

    values: np.ndarray
    shifts: np.ndarray
    actions: tuple[int, ...]
    observations: tuple[int, ...]


_RESCALE_BELOW = 2.0**-512


def backward_likelihoods(
    pomdp: Pomdp, actions: Sequence[int], observations: Sequence[int]
) -> BackwardLikelihoods:
    if len(actions) != len(observations):
        raise ModelError("actions and observations must have equal length")
    _check_indices(pomdp, actions, observations)
    t = len(actions)
    values = np.ones((t + 1, pomdp.num_states))
    shifts = np.zeros(t + 1, dtype=np.int64)
    for i in range(t - 1, -1, -1):
        a, o = actions[i], observations[i]
        values[i] = pomdp.trans_mat[a] @ (pomdp.obs_mat[a][:, o] * values[i + 1])
        top = values[i].max()
        # Below the threshold, lift the largest entry into [1/2, 1).
        shift = -int(np.frexp(top)[1]) if 0.0 < top < _RESCALE_BELOW else 0
        values[i] = np.ldexp(values[i], shift)
        shifts[i] = shifts[i + 1] + shift
    if float((pomdp.prior.probs * values[0]).sum()) == 0.0:
        raise AllZero("the recorded run is impossible under the model")
    values.flags.writeable = False
    shifts.flags.writeable = False
    return BackwardLikelihoods(values, shifts, tuple(actions), tuple(observations))


def smoothed_initial(pomdp: Pomdp, bl: BackwardLikelihoods) -> np.ndarray:
    """Posterior over the initial hidden state given the whole record."""
    weights = pomdp.prior.probs * bl.values[0]
    total = float(weights.sum())
    if total == 0.0:
        raise AllZero("the recorded run is impossible under the model")
    return weights / total


def path_transition(
    pomdp: Pomdp, bl: BackwardLikelihoods, i: int, states: Sequence[int]
) -> np.ndarray:
    """Smoothed one-step transition rows at time i, one per state in
    ``states``: entry ``[r, s2]`` is the probability of moving from
    ``states[r]`` to ``s2``.

    Each row sums to one, by the backward recurrence.  Raises
    ``InconsistentState`` for a state with zero backward likelihood.
    """
    denom = bl.values[i].take(states)
    if not denom.all():
        s = states[int(np.flatnonzero(denom == 0.0)[0])]
        raise InconsistentState(
            f"state {pomdp.state_names[s]!r} cannot produce the remaining observations"
        )
    a, o = bl.actions[i], bl.observations[i]
    return (
        pomdp.trans_mat[a].take(states, axis=0)
        * pomdp.obs_mat[a][:, o]
        * np.ldexp(bl.values[i + 1], bl.shifts[i] - bl.shifts[i + 1])
        / denom[:, None]
    )


# -- acceptance probability --------------------------------------------------------


# ``json.dumps`` refuses an int of more than 4300 decimal digits (about
# 14 284 bits, the interpreter's default int-to-str limit); ``hex`` is exempt.
_JSON_INT_BITS = 13_000


@dataclass
class MonitorReport:
    """Monitoring verdict for one execution.

    ``step_labels[i]`` is the set of belief propositions satisfied at step
    i; ``diagnostics`` carries dynamic-program and path counts.  The
    dynamic program does not run on an infeasible execution: it reports
    probability zero, and ``dp_pairs`` and ``consistent_paths`` read 0.
    In the JSON form, a count longer than 13 000 bits is ``hex(n)``.
    """

    feasible: bool
    probability: float
    step_labels: tuple[frozenset[int], ...]
    diagnostics: dict

    def to_json_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "probability": self.probability,
            "step_labels": [sorted(label) for label in self.step_labels],
            "diagnostics": {
                key: hex(value)
                if isinstance(value, int) and value.bit_length() > _JSON_INT_BITS
                else value
                for key, value in self.diagnostics.items()
            },
        }


# Acceptance results: execution -> {(weakref(model), weakref(automaton),
# state bits, letters): (probability, dp_pairs, consistent paths)}.  A dead
# object's weak reference equals only itself, so its entries are never hit.
# Threads that miss at once both run the DP and store equal results.
_dp_memo: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def acceptance_probability(pomdp: Pomdp, formula: Formula, exec: Execution) -> MonitorReport:
    """Exact probability that a smoothed hidden path satisfies the formula.

    Runs feasibility first and returns probability zero without further
    work when it fails.  Otherwise carries the filtered path measure
    forward over (automaton state, hidden state) cells; the automaton
    consumes, at step i in hidden state s, the belief-predicate signature
    of the step's belief with its relaxed bits replaced by those of the
    hidden-state classes s satisfies.
    Dead and accepted mass stays in rows 0 and 1 of the one mass matrix,
    and every step is rescaled by the filter's normalizer.  A step reads
    the model's restricted step for its (action, observation) pair and the
    live states (``Pomdp.restricted_step``): the next live states, the
    live-to-next block of the step's likelihoods and its support.  The fold
    runs a plan of target rows, kept per (automaton, open states, letter,
    column bits, cells with mass) in the fold plan table; a plan is made by
    looking each row's successors up once per distinct hidden-state bits.
    The result is the accepted share of the final mass: exactly 1.0 when
    every consistent path accepts, 0.0 when none does.  The exact number of
    consistent hidden paths (``consistent_paths``) rides along as int64
    limbs, one matmul with the step's support per step; carries propagate
    only when a limb could pass 2^56.  Raises ``AllZero`` at the first
    step that leaves no hidden state consistent with the record, on every
    call.

    Formulas that share an automaton, state bits and letters (the
    signatures with the relaxed bits cleared) on one execution and model
    share one run, kept as long as the execution lives (see the module
    notes); labels and propositions are the call's own.
    """
    comp = compile_monitor(formula)
    feasible, labels, sigs = _feasibility(comp, pomdp, exec)
    diagnostics = {"dp_pairs": 0, "consistent_paths": 0, "propositions": list(comp.prop_names)}
    if not feasible:
        return MonitorReport(False, 0.0, labels, diagnostics)

    # A hidden-state atom reads its state bit, not its relaxed predicate.
    keep = ~comp.relaxed_mask
    sbits = comp.state_bits(pomdp.num_states)
    letters = tuple(sig & keep for sig in sigs)
    results = _dp_memo.setdefault(exec, {})
    key = (weakref.ref(pomdp), weakref.ref(comp.dfa), tuple(sbits.tolist()), letters)
    result = results.get(key)
    if result is None:
        result = results[key] = _acceptance_dp(pomdp, exec, comp.dfa, letters, sbits)
    probability, dp_pairs, paths = result
    diagnostics.update(dp_pairs=dp_pairs, consistent_paths=paths)
    return MonitorReport(True, probability, labels, diagnostics)


def _acceptance_dp(
    pomdp: Pomdp, exec: Execution, dfa: Dfa, letters: Sequence[int], sbits: np.ndarray
) -> tuple[float, int, int]:
    """The dynamic program of ``acceptance_probability`` over the belief
    letters with the relaxed bits cleared: the accepted share of the final
    mass, the number of occupied (automaton state, hidden state) cells
    summed over the steps, and the number of consistent hidden paths."""
    # The columns are the hidden states the record so far allows, ascending
    # (``live``).  ``counts[k, j]`` is limb k of column j's exact number of
    # paths, in base 2^31; ``bound`` caps every limb.
    live = np.flatnonzero(pomdp.prior.probs)
    counts = np.ones((1, len(live)), dtype=np.int64)
    bound = 1
    # Rows 0 and 1 are the dead and accept sinks, row r + 2 open automaton
    # state ``states[r]``.  Step 0 moves the prior's mass on the first letter.
    mass = np.vstack((np.zeros((2, len(live))), pomdp.prior.probs.take(live)))
    states, mass = _fold_step(dfa, (dfa.initial,), letters[0], sbits.take(live).tolist(), mass)
    dp_pairs = int(np.count_nonzero(mass[2:]))

    for i, (a, o) in enumerate(zip(exec.actions, exec.observations)):
        live, rows, adj = pomdp.restricted_step(a, o, live)
        # A new limb sums at most one limb per previous column.
        if bound * len(adj) > _LIMB_CAP:
            counts, bound = _carry(counts, bound)
        counts = counts @ adj
        bound *= len(adj)
        mass = mass @ rows
        total = mass.sum()
        if not total:
            raise AllZero("the recorded run is impossible under the model")
        mass /= total
        states, mass = _fold_step(dfa, states, letters[i + 1], sbits.take(live).tolist(), mass)
        dp_pairs += int(np.count_nonzero(mass[2:]))

    # After a carry pass every limb is below 2^32, so each limb's sum over
    # the columns fits an int64.
    counts, _ = _carry(counts, bound)
    paths = sum(limb << (_LIMB_BITS * k) for k, limb in enumerate(counts.sum(axis=1).tolist()))
    accepted, rest = mass[1].sum(), mass[0].sum() + mass[2:].sum()
    return float(accepted / (accepted + rest)), dp_pairs, paths


# Path counts are int64 limbs of ``_LIMB_BITS`` bits.  Carries propagate only
# when a step could lift a limb past ``_LIMB_CAP``, which leaves int64 room to
# spare for the step's sums.
_LIMB_BITS = 31
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_LIMB_CAP = 1 << 56


def _carry(counts: np.ndarray, bound: int) -> tuple[np.ndarray, int]:
    """One carry pass over the limb rows of ``counts``, each limb at most
    ``bound``: every limb keeps its low bits and adds the high bits of the
    limb below, with a new top row when the top limb overflows.  Returns
    the counts and the new bound on their limbs."""
    high = counts >> _LIMB_BITS
    counts = counts & _LIMB_MASK
    counts[1:] += high[:-1]
    if high[-1].any():
        counts = np.vstack((counts, high[-1:]))
    return counts, _LIMB_MASK + (bound >> _LIMB_BITS)


# Fold plans: (weak reference to the automaton, open states, letter, column
# bits, support of the open rows) -> (open successors, read-only intp codes),
# sized by their codes.  A plan holds automaton state ids, which are stable
# for the automaton's lifetime, and a dead automaton's weak reference equals
# only itself.
_fold_plans = model._BoundedTable()


def _fold_step(
    dfa: Dfa, states: Sequence[int], letter: int, col_bits: Sequence[int], mass: np.ndarray
) -> tuple[tuple[int, ...], np.ndarray]:
    """Move one step's mass through the automaton.

    Rows 0 and 1 of ``mass`` are the dead state and the accept sink, whose
    mass stays put; row r + 2 is open automaton state ``states[r]``.  Column
    j reads ``letter`` joined with the state bits ``col_bits[j]``.  Returns
    the open successor states and the moved mass in the same layout, one
    ``bincount`` over the fold plan's codes (``_fold_plan``).  The plan
    depends only on the automaton, ``states``, ``letter``, ``col_bits`` and
    which open cells hold mass, so it is kept in the fold plan table keyed
    by them; a step that meets a kept plan only looks it up.
    """
    key = (weakref.ref(dfa), tuple(states), letter, tuple(col_bits), (mass[2:] != 0).tobytes())
    plan = _fold_plans.get(key)
    if plan is None:
        plan = _fold_plan(dfa, states, letter, col_bits, mass)
        plan = _fold_plans.keep(key, plan, plan[1].size, model.STEP_TABLE_CELLS)
    successors, codes = plan
    height, width = len(successors) + 2, mass.shape[1]
    out = np.bincount(codes, weights=mass.ravel(), minlength=height * width)
    return successors, out.reshape(height, width)


def _fold_plan(
    dfa: Dfa, states: Sequence[int], letter: int, col_bits: Sequence[int], mass: np.ndarray
) -> tuple[tuple[int, ...], np.ndarray]:
    """The layout of ``_fold_step``: the open successor states, numbered in
    the order their first cell is met in a row-major scan (so the order
    depends only on the formula and the execution, never on what the
    automaton has cached), and the read-only intp code of every cell,
    ``target row * width + column``.  Successors are looked up only for
    cells that hold mass, once per row and distinct state bits; a cell
    without mass goes to the dead row.
    """
    width = mass.shape[1]
    open_rows: dict[int, int] = {}  # open successor -> its row
    codes = list(range(2 * width))  # the sinks keep their cells
    for r, values in enumerate(mass[2:].tolist()):
        q = states[r]
        targets: dict[int, int] = {}  # state bits -> target row, for row r
        for j, m in enumerate(values):
            target = 0
            if m:
                bits = col_bits[j]
                target = targets.get(bits)
                if target is None:
                    q2 = dfa.transition(q, letter | bits)
                    if dfa.is_accepting(q2):
                        target = 1
                    elif dfa.is_dead(q2):
                        target = 0
                    else:
                        target = open_rows.setdefault(q2, len(open_rows) + 2)
                    targets[bits] = target
            codes.append(target * width + j)
    codes = np.array(codes, dtype=np.intp)
    codes.flags.writeable = False
    return tuple(open_rows), codes


DEFAULT_ORACLE_CAP = 100_000_000


def acceptance_probability_oracle(
    pomdp: Pomdp, formula: Formula, exec: Execution, cap: int = DEFAULT_ORACLE_CAP
) -> float:
    """Reference value by explicit enumeration of consistent hidden paths.

    Each positive-probability path is scored with the direct recursive
    word semantics, bypassing the automaton and the dynamic program.  Each
    step's smoothed rows are built once, for the states a consistent path
    can hold, while the consistent paths are counted exactly.  The count
    never falls from one step to the next, so ``CapExceeded`` is raised as
    soon as it passes ``cap``, before any path is enumerated.
    """
    _check_atoms(pomdp, formula_atoms(formula))
    _check_record(pomdp, exec)
    t = exec.horizon
    bl = backward_likelihoods(pomdp, exec.actions, exec.observations)
    alpha0 = smoothed_initial(pomdp, bl)
    states = np.flatnonzero(alpha0)
    counts = np.ones(len(states), dtype=object)  # paths ending in each state
    rows: list[dict[int, np.ndarray]] = []
    for i in range(t):
        if counts.sum() > cap:
            break
        step = path_transition(pomdp, bl, i, states)
        rows.append(dict(zip(states.tolist(), step)))
        support = step != 0
        states = support.any(axis=0).nonzero()[0]
        counts = counts @ support.take(states, axis=1)
    if counts.sum() > cap:
        raise CapExceeded(f"more than {cap} consistent paths by step {len(rows)}")

    total = 0.0
    stack = [([s], float(alpha0[s])) for s in np.flatnonzero(alpha0).tolist()]
    while stack:
        path, prob = stack.pop()
        i = len(path) - 1
        if i == t:
            if semantics_eval(formula, list(zip(path, exec.beliefs)), 0):
                total += prob
            continue
        row = rows[i][path[-1]]
        for s2 in np.flatnonzero(row).tolist():
            stack.append((path + [s2], prob * float(row[s2])))
    return total


# -- trace and report files ----------------------------------------------------------


def load_trace(pomdp: Pomdp, path) -> Execution:
    """Read a trace file and return a validated execution.

    Beliefs are recomputed with the filter; when the file carries its own
    beliefs they are cross-checked entry by entry.
    """
    return execution_from_json_dict(pomdp, load_json(path, "trace"))


def execution_from_json_dict(pomdp: Pomdp, doc) -> Execution:
    try:
        action_names, obs_names = doc["actions"], doc["observations"]
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed trace document: {exc}") from exc
    for kind, names in (("actions", action_names), ("observations", obs_names)):
        if not isinstance(names, (list, tuple)):
            raise ModelError(f"trace {kind} must be a list")
    actions = tuple(_lookup(pomdp.action_index, a, "action") for a in action_names)
    observations = tuple(_lookup(pomdp.obs_index, o, "observation") for o in obs_names)
    execution = Execution(tuple(filter_run(pomdp, actions, observations)), actions, observations)
    recorded = doc.get("beliefs")
    if recorded is not None:
        if not isinstance(recorded, (list, tuple)):
            raise ModelError("trace beliefs must be a list")
        if len(recorded) != len(execution.beliefs):
            raise ModelError(
                f"trace carries {len(recorded)} beliefs, filter produced {len(execution.beliefs)}"
            )
        rows: list[list] = []
        for i, entry in enumerate(recorded):
            try:
                rows.append(_recorded_belief(pomdp, entry))
            except ModelError:
                # A deviation at an earlier step is the first failure.
                _check_against_filter(rows, execution.probs[:i])
                raise
        _check_against_filter(rows, execution.probs)
    return execution


def _check_against_filter(recorded: list, filtered: np.ndarray) -> None:
    """Require each recorded belief to match the filter's belief at the same
    step, the same row of ``filtered``, entry by entry within ``SUM_TOL``;
    the first failing step is the one reported.  All steps are compared in
    one array expression."""
    if not recorded:
        return
    try:
        recorded = np.array(recorded, dtype=float)
    except OverflowError as exc:  # an integer past the float range
        raise ModelError(f"recorded belief entry out of range: {exc}") from exc
    err = np.abs(recorded - filtered).max(axis=1)
    bad = np.flatnonzero(~(err <= SUM_TOL))  # written so that NaN fails too
    if bad.size:
        i = int(bad[0])
        raise ModelError(f"recorded belief {i} deviates from the filter by {float(err[i])!r}")


def _recorded_belief(pomdp: Pomdp, entry) -> list:
    """The recorded belief as a list over the model's states, each entry a
    number as JSON gives one; ``_check_against_filter`` makes them floats."""
    if not isinstance(entry, Mapping):
        raise ModelError(f"a recorded belief must map state names to probabilities, not {entry!r}")
    vec = [0.0] * pomdp.num_states
    index = pomdp.state_index
    for name, p in entry.items():
        j = index.get(name)
        if j is None or p.__class__ not in _JSON_NUMBERS:  # one test per entry for both
            if j is None:
                raise ModelError(f"unknown state name {name!r}")
            if not is_number(p):
                raise ModelError(f"recorded belief entry {name!r}: {p!r} is not a number")
        vec[j] = p
    return vec


# The classes of the numbers ``json`` gives; ``is_number`` decides the rest.
_JSON_NUMBERS = frozenset({int, float})


def _lookup(table, name, kind):
    if not isinstance(name, str) or name not in table:
        raise ModelError(f"unknown {kind} name {name!r}")
    return table[name]


def execution_to_json_dict(pomdp: Pomdp, exec: Execution) -> dict:
    return {
        "actions": [pomdp.actions[a] for a in exec.actions],
        "observations": [pomdp.observations[o] for o in exec.observations],
        "beliefs": [
            {pomdp.state_names[i]: float(p) for i, p in enumerate(b.probs) if p > 0}
            for b in exec.beliefs
        ],
    }


def save_trace(pomdp: Pomdp, exec: Execution, path) -> None:
    save_json(execution_to_json_dict(pomdp, exec), path)
