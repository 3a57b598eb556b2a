"""Formula language over hidden-state sets and belief expressions.

Formulas combine two kinds of atoms: ``in(A)`` holds when the hidden state
lies in the named set ``A``, and ``[e1 < e2]`` holds when the belief
expression ``e1 - e2`` evaluates below the tie band ``-TIE_TOL`` on the
current belief (``model.below_zero``).  Belief expressions are arithmetic
over constants, set masses ``P(A)``, and factor entropies ``H(F)`` in bits.

Concrete grammar (``#`` starts a comment line)::

    formula := disj
    disj    := conj { "|" conj }
    conj    := until { "&" until }
    until   := unary [ "U" until ]
    unary   := "X" unary | "F" unary | "!" atom | atom
             | "(" formula ")" | "(" boolatoms "=>" formula ")"
    atom    := "in(" NAME ")" | "[" bexpr "<" bexpr "]"
    bexpr   := term { ("+" | "-") term }
    term    := factor { "*" factor }
    factor  := NUMBER | "P(" NAME ")" | "H(" NAME ")" | "(" bexpr ")"

Negation normal form is enforced syntactically: ``!`` may only cover an
atom, and an implication antecedent must be a Boolean combination of atoms
(it is rewritten into atom-level negations during parsing).  ``U`` binds
tighter than ``&``, which binds tighter than ``|``; ``U`` is
right-associative.  ``X``, ``F``, ``U``, ``in``, ``P``, and ``H`` are
reserved words.

Formulas nest at most ``MAX_NESTING`` levels deep: no syntax-tree node
(belief expressions included) may sit more than that many levels above its
deepest leaf, and formula text may hold no more than that many nested
parentheses, ``X``/``F`` prefixes and ``U`` operands.  The bound holds when
a node is built, through the parser or the API alike: building a deeper
node raises ``FormulaSyntaxError``.  It keeps every recursive walk over a
formula (``repr``, equality, hashing, pickling, the monitor's) well inside
the interpreter's default recursion limit.

Satisfaction is decided on finite words of (hidden state, belief) pairs:
``X`` at the last position is false, and ``U`` / ``F`` need their witness
inside the word.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence, Union

from .errors import FormulaSyntaxError, NonAtomicNegation, UnknownSymbol
from .model import Belief, below_zero, entropy_bits, marginal_dist, marginal_prob

# -- syntax-tree nodes -------------------------------------------------------------

MAX_NESTING = 100


def _node(cls):
    """Frozen dataclass for a syntax-tree node that keeps its hash and height.

    The dataclass hash over the node's fields is computed on first use and
    kept in ``_hash``, a field outside construction, equality, ``repr`` and
    ``dataclasses.replace``, so hashing a formula again (as a cache key)
    does not walk its tree.  Pickles leave it out, since string hashes
    differ between processes.

    ``_height`` counts the levels below the node: 0 for a leaf, else one
    more than its highest child (a field annotated ``Formula`` or
    ``BeliefExpr``; a child that is not a node, such as a ``PropAtom``,
    counts 0).  It is set when the node is built, which fails above
    ``MAX_NESTING``, and is kept like ``_hash``, except that pickles keep
    it, so a node built on an unpickled one stays bounded.
    """
    cls.__annotations__["_hash"] = "int | None"
    cls._hash = field(default=None, init=False, repr=False, compare=False)
    cls.__annotations__["_height"] = "int"
    cls._height = field(default=0, init=False, repr=False, compare=False)
    annotations = cls.__annotations__
    children = [name for name in annotations if annotations[name] in ("Formula", "BeliefExpr")]
    if children:

        def __post_init__(self):
            height = 0
            for name in children:
                below = getattr(getattr(self, name), "_height", 0)
                if below >= height:
                    height = below + 1
            if height > MAX_NESTING:
                raise FormulaSyntaxError(f"formula nests deeper than {MAX_NESTING} levels", 0)
            object.__setattr__(self, "_height", height)

        cls.__post_init__ = __post_init__
    cls = dataclass(frozen=True)(cls)
    field_hash = cls.__hash__

    def __hash__(self):
        value = self._hash
        if value is None:
            value = field_hash(self)
            object.__setattr__(self, "_hash", value)
        return value

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


# -- belief expression AST -------------------------------------------------------


@_node
class Const:
    value: float


@_node
class Prob:
    """Belief mass on a resolved state-index set; ``name`` is for display."""

    name: str
    indices: frozenset[int]


@_node
class EntropyBits:
    """Entropy (bits) of the belief marginal over a factor's cells."""

    name: str
    cells: tuple[tuple[int, ...], ...]


@_node
class Callback:
    """Externally supplied belief functional, for predicates beyond the text
    grammar.  Built programmatically only; compared and hashed by function
    identity, so reuse the same object for the same predicate."""

    name: str
    fn: Callable[[Belief], float]


@_node
class Neg:
    operand: BeliefExpr


@_node
class Add:
    left: BeliefExpr
    right: BeliefExpr


@_node
class Sub:
    left: BeliefExpr
    right: BeliefExpr


@_node
class Mul:
    left: BeliefExpr
    right: BeliefExpr


BeliefExpr = Union[Const, Prob, EntropyBits, Callback, Neg, Add, Sub, Mul]


def eval_belief_expr(expr: BeliefExpr, belief: Belief) -> float:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Prob):
        return marginal_prob(belief, expr.indices)
    if isinstance(expr, EntropyBits):
        return entropy_bits(marginal_dist(belief, expr.cells))
    if isinstance(expr, Callback):
        return float(expr.fn(belief))
    if isinstance(expr, Neg):
        return -eval_belief_expr(expr.operand, belief)
    if isinstance(expr, Add):
        return eval_belief_expr(expr.left, belief) + eval_belief_expr(expr.right, belief)
    if isinstance(expr, Sub):
        return eval_belief_expr(expr.left, belief) - eval_belief_expr(expr.right, belief)
    if isinstance(expr, Mul):
        return eval_belief_expr(expr.left, belief) * eval_belief_expr(expr.right, belief)
    raise TypeError(f"not a belief expression: {expr!r}")


def exact_sign(expr: BeliefExpr) -> bool:
    """Whether ``expr`` is minus one set mass, whose sign no rounding flips."""
    return isinstance(expr, Neg) and isinstance(expr.operand, Prob)


def belief_expr_text(expr: BeliefExpr) -> str:
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Prob):
        return f"P({expr.name})"
    if isinstance(expr, EntropyBits):
        return f"H({expr.name})"
    if isinstance(expr, Callback):
        return f"<{expr.name}>"
    if isinstance(expr, Neg):
        return f"-{belief_expr_text(expr.operand)}"
    ops = {Add: "+", Sub: "-", Mul: "*"}
    return f"({belief_expr_text(expr.left)} {ops[type(expr)]} {belief_expr_text(expr.right)})"


# -- formula AST -----------------------------------------------------------------


@_node
class StateAtom:
    """Hidden state membership in a resolved set; carries the state count so
    the complement stays computable without the model at hand."""

    name: str
    indices: frozenset[int]
    num_states: int
    negated: bool = False


@_node
class BeliefAtom:
    expr: BeliefExpr
    negated: bool = False


@_node
class And:
    left: Formula
    right: Formula


@_node
class Or:
    left: Formula
    right: Formula


@_node
class Until:
    left: Formula
    right: Formula


@_node
class Next:
    child: Formula


@_node
class Eventually:
    child: Formula


Formula = Union[StateAtom, BeliefAtom, And, Or, Until, Next, Eventually]

Atom = (StateAtom, BeliefAtom)


def map_atoms(formula: Formula, fn: Callable):
    """Rebuild the formula's temporal and Boolean structure with every atom
    replaced by ``fn(atom)``."""
    if isinstance(formula, Atom):
        return fn(formula)
    if isinstance(formula, (And, Or, Until)):
        return type(formula)(map_atoms(formula.left, fn), map_atoms(formula.right, fn))
    if isinstance(formula, (Next, Eventually)):
        return type(formula)(map_atoms(formula.child, fn))
    raise TypeError(f"not a formula: {formula!r}")


def formula_text(formula: Formula) -> str:
    if isinstance(formula, StateAtom):
        body = f"in({formula.name})"
        return f"!{body}" if formula.negated else body
    if isinstance(formula, BeliefAtom):
        # A parsed atom is always Sub(e1, e2); splitting it keeps the text
        # reparseable to the identical AST.
        if isinstance(formula.expr, Sub):
            body = (
                f"[{belief_expr_text(formula.expr.left)} < "
                f"{belief_expr_text(formula.expr.right)}]"
            )
        else:
            body = f"[{belief_expr_text(formula.expr)} < 0]"
        return f"!{body}" if formula.negated else body
    if isinstance(formula, And):
        return f"({formula_text(formula.left)} & {formula_text(formula.right)})"
    if isinstance(formula, Or):
        return f"({formula_text(formula.left)} | {formula_text(formula.right)})"
    if isinstance(formula, Until):
        return f"({formula_text(formula.left)} U {formula_text(formula.right)})"
    if isinstance(formula, Next):
        return f"X {formula_text(formula.child)}"
    if isinstance(formula, Eventually):
        return f"F {formula_text(formula.child)}"
    raise TypeError(f"not a formula: {formula!r}")


# -- parsing ---------------------------------------------------------------------

# Every character starts a match, the last group's if no other's, so one
# scan splits the whole text.
_TOKEN_RE = re.compile(
    r"(?P<ws>\s+|#[^\n]*)"
    r"|(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>=>|[()\[\]<|&!+\-*])"
    r"|(?P<bad>.)",
    re.DOTALL,
)

_RESERVED = {"X", "F", "U", "in", "P", "H"}


class _EndOfInput:
    """The text of the token that ends every token list: it equals no
    token text and reads ``end of input`` in error messages."""

    def __repr__(self) -> str:
        return "end of input"


_END_TEXT = _EndOfInput()


def _tokenize(text: str):
    """The (kind, text, position) tokens of ``text``, whitespace and
    comments left out, then the end token ``(None, end of input, len(text))``."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind != "ws":
            if kind == "bad":
                raise FormulaSyntaxError(f"unexpected character {m.group()!r}", m.start())
            tokens.append((kind, m.group(), m.start()))
    tokens.append((None, _END_TEXT, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, symbols):
        self.tokens = _tokenize(text)
        self.i = 0
        self.symbols = symbols
        self.depth = 0

    # token plumbing

    def _peek(self):
        # The end token is never passed: a rule that takes it raises.
        return self.tokens[self.i]

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def _expect(self, value: str):
        kind, text, pos = self._next()
        if text != value:
            raise FormulaSyntaxError(f"expected {value!r}, found {text!r}", pos)

    def _at(self, value: str) -> bool:
        return self._peek()[1] == value

    def _nested(self, rule, pos: int):
        """Parse ``rule`` one nesting level deeper than the caller."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise FormulaSyntaxError(f"formula nests deeper than {MAX_NESTING} levels", pos)
        result = rule()
        self.depth -= 1
        return result

    # grammar rules

    def parse(self) -> Formula:
        f = self._disj()
        kind, text, pos = self._peek()
        if kind is not None:
            raise FormulaSyntaxError(f"unexpected trailing input {text!r}", pos)
        return f

    def _disj(self) -> Formula:
        f = self._conj()
        while self._at("|"):
            self._next()
            f = Or(f, self._conj())
        return f

    def _conj(self) -> Formula:
        f = self._until()
        while self._at("&"):
            self._next()
            f = And(f, self._until())
        return f

    def _until(self) -> Formula:
        f = self._unary()
        if self._at("U"):
            _, _, pos = self._next()
            return Until(f, self._nested(self._until, pos))
        return f

    def _unary(self) -> Formula:
        _, text, pos = self._peek()
        if text == "X":
            self._next()
            return Next(self._nested(self._unary, pos))
        if text == "F":
            self._next()
            return Eventually(self._nested(self._unary, pos))
        if text == "!":
            self._next()
            _, t, p = self._peek()
            if t not in ("in", "["):
                raise NonAtomicNegation(
                    f"negation must apply to an atom, found {t!r} at position {p}"
                )
            return _negate_nnf(self._atom(), pos)
        if text == "(":
            self._next()
            inner = self._nested(self._disj, pos)
            if self._at("=>"):
                _, _, arrow_pos = self._next()
                antecedent = _negate_nnf(inner, arrow_pos)
                consequent = self._nested(self._disj, pos)
                self._expect(")")
                return Or(antecedent, consequent)
            self._expect(")")
            return inner
        return self._atom()

    def _atom(self) -> Formula:
        _, text, pos = self._peek()
        if text == "in":
            self._next()
            self._expect("(")
            name = self._name()
            self._expect(")")
            sets = self.symbols.named_sets
            if name not in sets:
                raise UnknownSymbol(f"unknown state set {name!r}")
            return StateAtom(name, frozenset(sets[name]), self.symbols.num_states)
        if text == "[":
            self._next()
            left = self._bexpr()
            self._expect("<")
            right = self._bexpr()
            self._expect("]")
            return BeliefAtom(Sub(left, right))
        raise FormulaSyntaxError(f"expected an atom, found {text!r}", pos)

    def _name(self) -> str:
        kind, text, pos = self._next()
        if kind != "name":
            raise FormulaSyntaxError(f"expected a name, found {text!r}", pos)
        if text in _RESERVED:
            raise FormulaSyntaxError(f"{text!r} is a reserved word", pos)
        return text

    def _bexpr(self) -> BeliefExpr:
        e = self._term()
        while self._peek()[1] in ("+", "-"):
            _, op, _ = self._next()
            rhs = self._term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def _term(self) -> BeliefExpr:
        e = self._factor()
        while self._at("*"):
            self._next()
            e = Mul(e, self._factor())
        return e

    def _factor(self) -> BeliefExpr:
        kind, text, pos = self._peek()
        if kind == "num":
            self._next()
            return Const(float(text))
        if text == "P":
            self._next()
            self._expect("(")
            name = self._name()
            self._expect(")")
            sets = self.symbols.named_sets
            if name not in sets:
                raise UnknownSymbol(f"unknown state set {name!r}")
            return Prob(name, frozenset(sets[name]))
        if text == "H":
            self._next()
            self._expect("(")
            name = self._name()
            self._expect(")")
            cells = self.symbols.factor_cells
            if name not in cells:
                raise UnknownSymbol(f"unknown factor {name!r}")
            return EntropyBits(name, tuple(tuple(c) for c in cells[name]))
        if text == "(":
            self._next()
            e = self._nested(self._bexpr, pos)
            self._expect(")")
            return e
        raise FormulaSyntaxError(f"expected a belief term, found {text!r}", pos)


_PAIR_NODES = frozenset({And, Or, Until})
_CHILD_NODES = frozenset({Next, Eventually})


def formula_atoms(formula: Formula) -> list:
    """The formula's atoms in left-to-right order, from one iterative walk."""
    found, stack = [], [formula]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind in _PAIR_NODES:
            stack.append(node.right)
            stack.append(node.left)
        elif kind in _CHILD_NODES:
            stack.append(node.child)
        elif kind is BeliefAtom or kind is StateAtom:
            found.append(node)
    return found


def _negate_nnf(formula: Formula, pos: int) -> Formula:
    """Dual of a Boolean combination of atoms, with negation pushed to atoms;
    any other node fails the implication whose ``=>`` is at ``pos``."""
    if isinstance(formula, Atom):
        return replace(formula, negated=not formula.negated)
    if isinstance(formula, And):
        return Or(_negate_nnf(formula.left, pos), _negate_nnf(formula.right, pos))
    if isinstance(formula, Or):
        return And(_negate_nnf(formula.left, pos), _negate_nnf(formula.right, pos))
    raise NonAtomicNegation(
        "implication antecedent must be a Boolean combination of atoms "
        f"(offending '=>' at position {pos})"
    )


def parse_formula(text: str, symbols) -> Formula:
    """Parse formula text against a symbol table (a ``Pomdp`` works).

    Returns an AST in negation normal form.  Raises ``FormulaSyntaxError``
    with a character position, ``UnknownSymbol`` for unresolved names, and
    ``NonAtomicNegation`` when negation or an implication antecedent covers
    a temporal operator.  Text nested deeper than ``MAX_NESTING`` levels is
    a ``FormulaSyntaxError``.
    """
    return _Parser(text, symbols).parse()


def load_formula(path, symbols) -> Formula:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormulaSyntaxError(f"formula file is not UTF-8: {exc.reason}", exc.start) from exc
    return parse_formula(text, symbols)


# -- finite-word semantics ---------------------------------------------------------

TraceWord = Sequence[tuple[int, Belief]]


def semantics_eval(formula: Formula, word: TraceWord, position: int = 0) -> bool:
    """Direct recursive satisfaction of ``formula`` at ``position`` in ``word``.

    A belief atom holds when its expression is ``below_zero`` (one of
    ``exact_sign``: below zero at all), and its negation holds otherwise, so
    a value within rounding of its threshold does not satisfy the atom.
    Each subformula is decided at most once per position in one call, so
    nested ``F`` and ``U`` cost time linear in their nesting, not
    exponential.
    """
    if not 0 <= position < len(word):
        raise ValueError(f"position {position} outside the word")
    return _holds(formula, word, position, {})


def _holds(formula: Formula, word: TraceWord, position: int, memo: dict) -> bool:
    """``semantics_eval`` with ``memo`` keyed by (node identity, position),
    a key that needs neither a node's hash nor its equality."""
    key = (id(formula), position)
    value = memo.get(key)
    if value is not None:
        return value
    state, belief = word[position]
    if isinstance(formula, StateAtom):
        value = (state in formula.indices) != formula.negated
    elif isinstance(formula, BeliefAtom):
        value = eval_belief_expr(formula.expr, belief)
        value = ((value < 0) if exact_sign(formula.expr) else below_zero(value)) != formula.negated
    elif isinstance(formula, And):
        value = _holds(formula.left, word, position, memo) and _holds(
            formula.right, word, position, memo
        )
    elif isinstance(formula, Or):
        value = _holds(formula.left, word, position, memo) or _holds(
            formula.right, word, position, memo
        )
    elif isinstance(formula, Next):
        value = position + 1 < len(word) and _holds(formula.child, word, position + 1, memo)
    elif isinstance(formula, Until):
        value = False
        for j in range(position, len(word)):
            if _holds(formula.right, word, j, memo):
                value = True
                break
            if not _holds(formula.left, word, j, memo):
                break
    elif isinstance(formula, Eventually):
        value = any(_holds(formula.child, word, j, memo) for j in range(position, len(word)))
    else:
        raise TypeError(f"not a formula: {formula!r}")
    memo[key] = value
    return value
