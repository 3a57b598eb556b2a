"""Independent references that every benchmark verdict is checked against.

Nothing here calls into dtlmon's filter, automata or dynamic program.  The
references read the model from its JSON document (the model-file schema),
walk the program's parsed formula tree with their own evaluator, and use
their own numpy Bayes filter:

* ``RefModel.filter`` recomputes beliefs for the belief cross-check;
* ``enumerate_paths`` lists every hidden path of positive joint probability
  (prior x transitions x observations) for the path-enumeration reference
  used on rescue traces;
* ``TraceRef`` evaluates a formula over all enumerated paths at once and
  over the relaxed (belief-support) word for feasibility;
* ``forward_probability`` runs a scaled forward pass over the hidden chain
  paired with a hand-written automaton (dense_check).

Tie rule: where a belief predicate's reference value lies within ``TIE_TOL``
of zero although its terms do not all vanish, the program's own
``step_labels`` decide that step, because the sign of a value that small
depends on summation order, and the trace counts as tied.  A structural
zero (every term zero, such as the mass of a set the belief excludes)
follows the strict rule: zero does not satisfy ``e < 0``.
"""

from __future__ import annotations

import numpy as np

from dtlmon.logic import (
    Add,
    And,
    BeliefAtom,
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
)

TIE_TOL = 1e-12
PROB_TOL = 1e-9
BELIEF_TOL = 1e-9
MAX_PATHS = 100_000


class CheckFailed(Exception):
    """A program output disagrees with a reference."""


class RefModel:
    """Dense arrays built from a model JSON document (see the README schema)."""

    def __init__(self, doc: dict):
        self.state_names = [s["name"] for s in doc["states"]]
        self.state_tags = [s.get("tags", {}) for s in doc["states"]]
        sidx = {n: i for i, n in enumerate(self.state_names)}
        aidx = {n: i for i, n in enumerate(doc["actions"])}
        oidx = {n: i for i, n in enumerate(doc["observations"])}
        n_s, n_a, n_o = len(sidx), len(aidx), len(oidx)
        self.num_states = n_s
        self.prior = np.zeros(n_s)
        for name, p in doc["prior"].items():
            self.prior[sidx[name]] += float(p)
        self.trans = np.zeros((n_a, n_s, n_s))
        for s, a, s2, p in doc["transitions"]:
            self.trans[aidx[a], sidx[s], sidx[s2]] += float(p)
        self.obs = np.zeros((n_a, n_s, n_o))
        for s2, a, o, p in doc["observation_model"]:
            self.obs[aidx[a], sidx[s2], oidx[o]] += float(p)
        self.sets: dict[str, np.ndarray] = {}
        for name, members in doc.get("sets", {}).items():
            mask = np.zeros(n_s, dtype=bool)
            if isinstance(members, dict):
                for i, tags in enumerate(self.state_tags):
                    mask[i] = tags.get(members["tag"]) == members["value"]
            else:
                mask[[sidx[m] for m in members]] = True
            self.sets[name] = mask
        self.factors: dict[str, list[np.ndarray]] = {}
        for fname, tag in doc.get("factors", {}).items():
            groups: dict = {}
            for i, tags in enumerate(self.state_tags):
                groups.setdefault(tags[tag], []).append(i)
            self.factors[fname] = [np.array(g) for g in groups.values()]

    def filter(self, actions, observations) -> np.ndarray:
        """Bayes filter from the prior; returns a (T+1) x S belief matrix."""
        beliefs = np.empty((len(actions) + 1, self.num_states))
        b = self.prior / self.prior.sum()
        beliefs[0] = b
        for i, (a, o) in enumerate(zip(actions, observations)):
            b = (b @ self.trans[a]) * self.obs[a][:, o]
            total = b.sum()
            if total <= 0.0:
                raise CheckFailed(f"reference filter: observation {i} has zero likelihood")
            b = b / total
            beliefs[i + 1] = b
        return beliefs

    def set_mask(self, name: str) -> np.ndarray:
        if name.startswith("!"):
            return ~self.sets[name[1:]]
        return self.sets[name]


def check_beliefs(ref_beliefs: np.ndarray, program_beliefs) -> None:
    got = np.array([np.asarray(b.probs, dtype=float) for b in program_beliefs])
    if got.shape != ref_beliefs.shape:
        raise CheckFailed(f"belief matrix shape {got.shape} != reference {ref_beliefs.shape}")
    err = float(np.abs(got - ref_beliefs).max())
    if not err <= BELIEF_TOL:
        raise CheckFailed(f"beliefs deviate from the reference filter by {err!r}")


def check_range(report) -> None:
    p = report.probability
    if not 0.0 <= p <= 1.0:
        raise CheckFailed(f"probability {p!r} outside [0, 1]")
    if not report.feasible and p != 0.0:
        raise CheckFailed(f"infeasible trace reports probability {p!r}")


# -- belief expressions ---------------------------------------------------------------


def expr_text(expr) -> str:
    """The program's legend spelling of a belief expression (``e < 0``)."""
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Prob):
        return f"P({expr.name})"
    if isinstance(expr, EntropyBits):
        return f"H({expr.name})"
    if isinstance(expr, Neg):
        return f"-{expr_text(expr.operand)}"
    op = {Add: "+", Sub: "-", Mul: "*"}[type(expr)]
    return f"({expr_text(expr.left)} {op} {expr_text(expr.right)})"


def eval_expr(model: RefModel, expr, beliefs: np.ndarray, magnitude: bool = False) -> np.ndarray:
    """Value of a belief expression at every step of a belief matrix.  With
    ``magnitude`` the sum of the absolute values of its terms instead, which
    is zero only where the value is an exact (structural) zero."""
    if isinstance(expr, Const):
        return np.full(beliefs.shape[0], abs(expr.value) if magnitude else float(expr.value))
    if isinstance(expr, Prob):
        return beliefs[:, model.set_mask(expr.name)].sum(axis=1)
    if isinstance(expr, EntropyBits):
        marg = np.stack([beliefs[:, cell].sum(axis=1) for cell in model.factors[expr.name]], 1)
        logs = np.log2(np.where(marg > 0.0, marg, 1.0))
        return -(marg * logs).sum(axis=1)
    if isinstance(expr, Neg):
        value = eval_expr(model, expr.operand, beliefs, magnitude)
        return value if magnitude else -value
    left = eval_expr(model, expr.left, beliefs, magnitude)
    right = eval_expr(model, expr.right, beliefs, magnitude)
    if isinstance(expr, Add) or (magnitude and isinstance(expr, Sub)):
        return left + right
    if isinstance(expr, Sub):
        return left - right
    if isinstance(expr, Mul):
        return left * right
    raise TypeError(f"unsupported belief expression {expr!r}")


class Predicates:
    """Strict truth of belief predicates along one trace, with the tie rule.

    The program's ``report.step_labels`` and legend
    (``diagnostics["propositions"]``) are consulted only for ties.
    """

    def __init__(self, model: RefModel, beliefs: np.ndarray, report):
        self.model = model
        self.beliefs = beliefs
        self.labels = report.step_labels
        self.legend = list(report.diagnostics["propositions"])
        self.ties = 0
        self._values: dict[str, np.ndarray] = {}

    def holds(self, expr) -> np.ndarray:
        """Per-step truth of ``expr < 0``."""
        text = f"[{expr_text(expr)} < 0]"  # the program's legend entry
        values = self._values.get(text)
        if values is None:
            values = eval_expr(self.model, expr, self.beliefs)
            self._values[text] = values
        out = values < 0.0
        near = np.abs(values) <= TIE_TOL
        if near.any():
            # Only a value whose terms cancel can take its sign from rounding.
            near &= eval_expr(self.model, expr, self.beliefs, magnitude=True) > 0.0
        if not near.any():
            return out
        try:
            j = self.legend.index(text)
        except ValueError:
            raise CheckFailed(f"predicate {text} missing from the legend") from None
        out = out.copy()
        for t in np.nonzero(near)[0]:
            label = j in self.labels[t]
            if values[t] != 0.0 or label != out[t]:
                self.ties += 1
            out[t] = label
        return out

    def positive_mass(self, name: str) -> np.ndarray:
        """Per-step truth of the relaxed atom: positive belief mass on the
        set ``name`` (``!A`` names the complement of ``A``)."""
        return self.holds(Neg(Prob(name, frozenset())))


def check_verdict(report, probability: float, feasible: bool, source: str) -> None:
    """The program's verdict against a reference's."""
    if feasible != report.feasible:
        raise CheckFailed(f"feasibility {report.feasible} != {source} {feasible}")
    if not feasible and probability > PROB_TOL:
        raise CheckFailed(f"relaxation rejected a trace of {source} probability {probability!r}")
    if not abs(probability - report.probability) <= PROB_TOL:
        raise CheckFailed(f"probability {report.probability!r} != {source} {probability!r}")


# -- formula evaluation over paths -------------------------------------------------------


def enumerate_paths(model: RefModel, actions, observations) -> tuple[np.ndarray, np.ndarray]:
    """Every hidden path with positive joint probability, and its weight
    normalised by the total over all such paths."""
    paths = [[int(s)] for s in np.nonzero(model.prior > 0.0)[0]]
    weights = [float(model.prior[p[0]]) for p in paths]
    for a, o in zip(actions, observations):
        step = model.trans[a] * model.obs[a][:, o][None, :]
        new_paths, new_weights = [], []
        for path, w in zip(paths, weights):
            row = step[path[-1]]
            for s2 in np.nonzero(row > 0.0)[0]:
                new_paths.append(path + [int(s2)])
                new_weights.append(w * float(row[s2]))
        if len(new_paths) > MAX_PATHS:
            raise CheckFailed(f"more than {MAX_PATHS} consistent paths")
        paths, weights = new_paths, new_weights
    if not paths:
        raise CheckFailed("no hidden path is consistent with the record")
    w = np.array(weights)
    return np.array(paths, dtype=np.int64), w / w.sum()


def _truth(node, ctx) -> np.ndarray:
    """Boolean matrix (paths x positions) of ``node`` holding at each position."""
    model, paths, preds, relaxed = ctx
    if isinstance(node, StateAtom):
        if relaxed:
            name = f"!{node.name}" if node.negated else node.name
            return np.broadcast_to(preds.positive_mass(name), paths.shape)
        inside = model.set_mask(node.name)[paths]
        return ~inside if node.negated else inside
    if isinstance(node, BeliefAtom):
        below = preds.holds(node.expr)
        return np.broadcast_to(~below if node.negated else below, paths.shape)
    if isinstance(node, And):
        return _truth(node.left, ctx) & _truth(node.right, ctx)
    if isinstance(node, Or):
        return _truth(node.left, ctx) | _truth(node.right, ctx)
    if isinstance(node, Next):
        child = _truth(node.child, ctx)
        out = np.zeros(paths.shape, dtype=bool)
        out[:, :-1] = child[:, 1:]
        return out
    if isinstance(node, Until):
        left, right = _truth(node.left, ctx), _truth(node.right, ctx)
        out = np.zeros(paths.shape, dtype=bool)
        out[:, -1] = right[:, -1]
        for t in range(paths.shape[1] - 2, -1, -1):
            out[:, t] = right[:, t] | (left[:, t] & out[:, t + 1])
        return out
    if isinstance(node, Eventually):
        child = _truth(node.child, ctx)
        return np.logical_or.accumulate(child[:, ::-1], axis=1)[:, ::-1]
    raise TypeError(f"unsupported formula node {node!r}")


class TraceRef:
    """Reference data for one recorded rescue-style trace: beliefs from the
    reference filter and the enumerated consistent paths."""

    def __init__(self, model: RefModel, actions, observations):
        self.model = model
        self.beliefs = model.filter(actions, observations)
        self.paths, self.weights = enumerate_paths(model, actions, observations)

    def verify(self, formula, report, program_beliefs) -> int:
        """Check one program report; returns the number of tied predicate
        values consulted (0 when the verdict needed no tie-break)."""
        check_beliefs(self.beliefs, program_beliefs)
        check_range(report)
        preds = Predicates(self.model, self.beliefs, report)
        support = np.zeros((1, self.paths.shape[1]), dtype=np.int64)
        feasible = bool(_truth(formula, (self.model, support, preds, True))[0, 0])
        sat = _truth(formula, (self.model, self.paths, preds, False))[:, 0]
        check_verdict(report, float(self.weights[sat].sum()), feasible, "path enumeration")
        return preds.ties


# -- scaled forward pass with a hand-written automaton --------------------------------------


class HandDfa:
    """Automaton written by hand for one fixed formula.

    ``step(q, atoms)`` maps the current automaton state and a dict of
    per-state truth vectors (one entry per atom) to the successor for every
    state.  State ``initial`` reads the first letter; ``accept`` is
    absorbing.  ``atoms`` lists ``(key, kind, arg)``: kind ``in`` is the
    hidden-state atom ``in(arg)``, ``not_in`` its negation ``!in(arg)``, and
    ``belief`` the predicate ``arg < 0``.
    """

    def __init__(self, text, num_states, initial, accept, step, atoms):
        self.text = text
        self.num_states = num_states
        self.initial = initial
        self.accept = accept
        self.step = step
        self.atoms = atoms

    def letters(self, model: RefModel, preds: Predicates, t: int, relaxed: bool) -> dict:
        """Per-state atom truth at step ``t``; with ``relaxed`` a one-entry
        vector for the belief-support word."""
        out = {}
        for key, kind, arg in self.atoms:
            if kind == "belief":
                out[key] = preds.holds(arg)[t : t + 1]
                continue
            name = arg if kind == "in" else f"!{arg}"
            if relaxed:
                out[key] = preds.positive_mass(name)[t : t + 1]
            else:
                out[key] = model.set_mask(name)
        return out


def forward_probability(model: RefModel, dfa: HandDfa, preds: Predicates, actions, observations):
    """Scaled forward pass over (hidden state, automaton state); returns the
    probability of acceptance and the relaxed (feasibility) verdict."""
    n_s, n_q = model.num_states, dfa.num_states
    rows = np.arange(n_s)

    def advance(mass: np.ndarray, t: int) -> np.ndarray:
        letters = dfa.letters(model, preds, t, relaxed=False)
        out = np.zeros_like(mass)
        for q in range(n_q):
            if mass[:, q].any():
                target = np.broadcast_to(dfa.step(q, letters), (n_s,))
                np.add.at(out, (rows, target), mass[:, q])
        return out

    start = np.zeros((n_s, n_q))
    start[:, dfa.initial] = model.prior / model.prior.sum()
    alpha = advance(start, 0)
    for t, (a, o) in enumerate(zip(actions, observations), start=1):
        moved = (model.trans[a].T @ alpha) * model.obs[a][:, o][:, None]
        total = moved.sum()
        if total <= 0.0:
            raise CheckFailed(f"forward pass: observation {t - 1} has zero likelihood")
        alpha = advance(moved / total, t)
    probability = float(alpha[:, dfa.accept].sum() / alpha.sum())

    q = dfa.initial
    for t in range(len(actions) + 1):
        q = int(np.asarray(dfa.step(q, dfa.letters(model, preds, t, relaxed=True))).reshape(-1)[0])
    return probability, q == dfa.accept


def dense_dfas(h_col, p_danger) -> list[HandDfa]:
    """Hand-written automata for dense_check's fixed formulas.

    ``h_col`` and ``p_danger`` are the two belief predicates (``e < 0``).
    Automaton states: 0 pending, 1 accept (absorbing), 2 reject (absorbing);
    automata with a remembered step use 3 for it.
    """
    acc, rej = 1, 2

    def avoid_until_goal(q, x):  # !in(danger) U in(goal)
        if q in (acc, rej):
            return q
        return np.where(x["goal"], acc, np.where(x["safe"], 0, rej))

    def goal_when_certain(q, x):  # F (in(goal) & [H(col) < 1.75])
        if q == acc:
            return q
        return np.where(x["goal"] & x["h_col"], acc, 0)

    def east_then_goal(q, x):  # F (in(east) & X in(goal)); 3: east held last step
        if q == acc:
            return q
        if q == 3:
            return np.where(x["goal"], acc, np.where(x["east"], 3, 0))
        return np.where(x["east"], 3, 0)

    def guarded_until_goal(q, x):  # (!in(danger) | [P(danger) < 0.2]) U in(goal)
        if q in (acc, rej):
            return q
        return np.where(x["goal"], acc, np.where(x["safe"] | x["p_danger"], 0, rej))

    def east_then_safe_goal(q, x):  # F (in(east) & (!in(danger) U in(goal)))
        if q == acc:  # 3: an east step has been followed only by safe steps
            return q
        live = (q == 3) | x["east"]
        return np.where(live & x["goal"], acc, np.where(live & x["safe"], 3, 0))

    goal, east = ("goal", "in", "goal"), ("east", "in", "east")
    safe = ("safe", "not_in", "danger")
    return [
        HandDfa("!in(danger) U in(goal)", 3, 0, acc, avoid_until_goal, [goal, safe]),
        HandDfa(
            "F (in(goal) & [H(col) < 1.75])", 2, 0, acc, goal_when_certain,
            [goal, ("h_col", "belief", h_col)],
        ),
        HandDfa("F (in(east) & X in(goal))", 4, 0, acc, east_then_goal, [east, goal]),
        HandDfa(
            "(!in(danger) | [P(danger) < 0.2]) U in(goal)", 3, 0, acc, guarded_until_goal,
            [goal, safe, ("p_danger", "belief", p_danger)],
        ),
        HandDfa(
            "F (in(east) & (!in(danger) U in(goal)))", 4, 0, acc, east_then_safe_goal,
            [east, goal, safe],
        ),
    ]
