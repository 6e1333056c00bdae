"""Error taxonomy shared across the package.

Every failure mode that callers are expected to catch has its own class here.
All inherit from MotzetaError so a CLI or niche caller can catch broadly.
"""


class MotzetaError(Exception):
    """Base class for all package-specific errors."""


class DenominatorVanishes(MotzetaError, ZeroDivisionError):
    """Evaluation point makes a denominator factor vanish."""


class BudgetExceeded(MotzetaError):
    """A computation exceeds its work budget (candidates, rows or jets);
    level is the jet level whose count exceeded it, when one is known."""

    def __init__(self, message, level=None):
        super().__init__(message)
        self.level = level


class UnboundAtom(MotzetaError):
    """A symbolic class mentions an atom with no bound geometry."""


class VariableMismatch(MotzetaError):
    """Series operands disagree on variables or truncation window."""


class BaseMismatch(MotzetaError):
    """Operands disagree on their base decoration or on their realization
    (symbolic, or counting at a different prime)."""


class NotLimitNormal(MotzetaError):
    """Closed form has no limit at infinity (numerator degree too high)."""


class TailNotSummable(MotzetaError):
    """A tail sum diverges (some geometric ratio is 1 or larger)."""


class FitFailed(MotzetaError):
    """No exponential-polynomial closed form matches the given terms."""


class ConeNotDecomposed(MotzetaError):
    """A cone evaluation was requested without a unimodular decomposition."""


class ParseError(MotzetaError, ValueError):
    """Syntax error in a text input; carries the offending position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownToken(ParseError):
    """Tokenizer met a character that belongs to no token class."""


class NotInvertible(MotzetaError):
    """Inversion requested for a scalar not presented as a unit."""
