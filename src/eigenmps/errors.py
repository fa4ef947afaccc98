"""Exception taxonomy shared by all modules.

The CLI maps these onto distinct exit codes, so new failure modes should
subclass one of the three top-level categories below.
"""

import reprlib

# Messages quote input values short: strings to 30 characters, integers to 40 digits, containers
# to 6 items and one level (a nested list quotes as [[...], ...]), whatever the value's size.
_SHORT = reprlib.Repr()
_SHORT.maxlevel = 1
quote = _SHORT.repr


class EigenmpsError(Exception):
    """Base class for all package errors."""


class ValidationError(EigenmpsError):
    """Invalid arguments, malformed inputs, or violated preconditions."""


class ShapeError(ValidationError):
    """Dimension or length mismatch between operands."""


class CapacityError(ValidationError):
    """Problem size outside the supported desk-scale range."""


class DimacsError(ValidationError):
    """Malformed DIMACS CNF input; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NumericalError(EigenmpsError):
    """Numerical failure at run time, e.g. a non-finite objective value."""


def past_digit_limit(exc: ValueError) -> bool:
    """Whether int() or json.loads refused an integer for Python's digit limit, not its form."""
    return "integer string conversion" in str(exc)
