"""Exception types shared across the package."""


class DtlmonError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(DtlmonError):
    """A POMDP, belief, or execution violates a structural invariant."""


class ZeroLikelihood(DtlmonError):
    """The observed symbol has probability zero under the predicted belief."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class AllZero(DtlmonError):
    """No hidden path is consistent with the recorded actions and observations.

    It means an impossible record, such as a hand-built one whose
    observation no reachable state can emit; a valid run of any length
    never raises it, since the forward pass is rescaled at every step.
    """


class InconsistentState(DtlmonError):
    """A smoothed transition was requested from a state with zero backward likelihood."""


class FormulaSyntaxError(DtlmonError):
    """Formula text failed to parse. ``position`` is a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbol(DtlmonError):
    """A formula references a set or factor name the model does not define."""


class NonAtomicNegation(DtlmonError):
    """Negation or an implication antecedent covers a temporal subformula."""


class StateBlowup(DtlmonError):
    """Determinization exceeded the state cap, or materializing an automaton
    would walk more letters than the proposition bound allows."""


class CapExceeded(DtlmonError):
    """Path enumeration would exceed the configured cap."""


class DegeneratePearson(DtlmonError):
    """Correlation is undefined because a sample variance is zero."""
