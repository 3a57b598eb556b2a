"""An exact referee for the tie band on the rescue study.

The first 10 trials per policy at master seed 2024 are refiltered in exact
rational arithmetic (``fractions.Fraction``) over the model's own float
parameters.  Wherever the monitor's float value of a belief predicate lies
within ``TIE_TOL`` of zero, its verdict must be the exact sign: the band's
"not below zero" for a belief predicate, and the exact comparison for one
of ``exact_sign``, as every relaxed predicate is.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from dtlmon.logic import Add, Const, EntropyBits, Mul, Neg, Prob, Sub, exact_sign
from dtlmon.model import TIE_TOL, below_zero, simulate
from dtlmon.monitor import compile_monitor
from dtlmon.studies import build_rescue, rescue_policies, trial_seed

TRIALS, HORIZON, MASTER_SEED = 10, 16, 2024


def exact_filter(pomdp, execution) -> list[list[Fraction]]:
    """The Bayes filter over the execution's record, in exact arithmetic."""
    belief = [Fraction(float(p)) for p in pomdp.prior.probs]
    beliefs = [belief]
    for a, o in zip(execution.actions, execution.observations):
        predicted = [Fraction(0)] * pomdp.num_states
        for s, s2 in zip(*np.nonzero(pomdp.trans_mat[a])):
            if belief[s]:
                predicted[s2] += belief[s] * Fraction(float(pomdp.trans_mat[a, s, s2]))
        posterior = [p * Fraction(float(pomdp.obs_mat[a, s2, o])) for s2, p in enumerate(predicted)]
        norm = sum(posterior)
        belief = [p / norm for p in posterior]
        beliefs.append(belief)
    return beliefs


def exact_value(expr, belief: list[Fraction]) -> Fraction:
    """A belief expression's value on an exact belief.  Entropies take
    logarithms, so they are evaluated to 60 significant digits."""
    if isinstance(expr, Const):
        return Fraction(expr.value)
    if isinstance(expr, Prob):
        return sum((belief[s] for s in expr.indices), Fraction(0))
    if isinstance(expr, EntropyBits):
        with localcontext() as ctx:
            ctx.prec = 60
            total = Decimal(0)
            for cell in expr.cells:
                mass = sum((belief[s] for s in cell), Fraction(0))
                if mass:
                    m = Decimal(mass.numerator) / Decimal(mass.denominator)
                    total -= m * m.ln()
            return Fraction(total / Decimal(2).ln())
    if isinstance(expr, Neg):
        return -exact_value(expr.operand, belief)
    left, right = exact_value(expr.left, belief), exact_value(expr.right, belief)
    if isinstance(expr, Add):
        return left + right
    if isinstance(expr, Sub):
        return left - right
    assert isinstance(expr, Mul)
    return left * right


def test_band_verdicts_match_exact_signs():
    pomdp, formula = build_rescue()
    comp = compile_monitor(formula)
    checked = {False: 0, True: 0}  # values in the band, by exact sign
    for policy in rescue_policies().values():
        for k in range(TRIALS):
            _, execution = simulate(pomdp, policy, HORIZON, trial_seed(MASTER_SEED, k))
            values = comp.predicates.values(execution.probs)
            exact_beliefs = exact_filter(pomdp, execution)
            for j, t in zip(*np.nonzero(np.abs(values) <= TIE_TOL)):
                signed = exact_sign(comp.belief_props[j])
                value = values[j, t]
                verdict = value < 0 if signed else below_zero(value)
                exact = exact_value(comp.belief_props[j], exact_beliefs[t])
                assert exact == 0 or abs(exact) > 1e-40  # the sign is decided
                assert verdict == (exact < 0), (policy, k, comp.prop_names[j], t, value, float(exact))
                checked[signed] += 1
    # The duty antecedent's [0.9 < P(surv_j)] sits in the band on many steps.
    assert checked[False] > 0
