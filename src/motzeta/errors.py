"""Error taxonomy shared across the package.

Every failure mode that callers are expected to catch has its own class here.
All inherit from MotzetaError so a CLI or niche caller can catch broadly.

The argument checks every module shares live here too: require_int (an int
that is not a bool, optionally bounded below) and require_choice (one of a
few allowed values, type-strict), each naming the parameter and the value
it refuses.  No entry point coerces an argument with int().
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


# --- argument checks -----------------------------------------------------------


def require_int(value, what, lo=None, error=MotzetaError):
    """value, when it is an int (a bool is not one) and, if lo is given, at
    least lo; otherwise error (a MotzetaError class) naming what and value.
    The type test for a plain int comes first: it is the common case."""
    if type(value) is not int and (not isinstance(value, int) or isinstance(value, bool)):
        raise error("%s must be an int, not %r" % (what, value))
    if lo is not None and value < lo:
        raise error("%s must be >= %d, not %r" % (what, lo, value))
    return value


def require_choice(what, value, allowed):
    """value, when it is one of allowed, of the same type (True is not 1);
    otherwise a MotzetaError naming what, the allowed values and value."""
    if not any(type(value) is type(a) and value == a for a in allowed):
        names = [repr(a) for a in allowed]
        listed = ", ".join(names[:-1]) + " or " + names[-1]
        raise MotzetaError("%s must be %s, not %r" % (what, listed, value))
    return value
