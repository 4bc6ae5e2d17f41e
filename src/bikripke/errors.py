"""Exception types and default resource budgets shared across the package."""

import sys


class BikripkeError(Exception):
    """Base class for all errors raised by this package."""


class FormulaSyntaxError(BikripkeError):
    """Malformed formula text.

    Carries the byte offset of the offending token and the set of token
    descriptions that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: frozenset[str] = frozenset()):
        super().__init__(f"{message} at offset {offset}"
                         + (f" (expected {', '.join(sorted(expected))})" if expected else ""))
        self.offset = offset
        self.expected = expected


class BadWorldIndex(BikripkeError):
    """A world index is outside the frame's range."""


class BudgetExceeded(BikripkeError):
    """A configured resource budget (worlds, sets, assignments, search nodes)
    was exhausted before the computation finished.  Never a silent truncation."""


def _too_deep() -> BudgetExceeded:
    """The error for a formula, built in code, that nests past the
    interpreter's recursion limit (the parser refuses such text)."""
    return BudgetExceeded("formula nested too deep to evaluate (recursion limit "
                          f"{sys.getrecursionlimit()})")


class OverlappingIndexSets(BikripkeError):
    """Button indices and switch classes passed to a powerset frame overlap."""


class FrameParseError(BikripkeError):
    """Malformed frame/model file; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MixedDirections(BikripkeError):
    """A theory decider was given a formula using both modal directions."""


class InsufficientControls(BikripkeError):
    """The control family is too small for the countermodel being simulated."""


class VerificationFailed(BikripkeError):
    """A constructed substitution did not refute the formula when model checked.

    Raised instead of returning an unverified result."""


# World count above which frame constructors fail fast.
WORLD_BUDGET = 2 ** 16

# Maximum number of sets materialised in a definable algebra.
ALGEBRA_BUDGET = 2 ** 16

# Maximum number of letter assignments swept per ml membership query.
ASSIGNMENT_BUDGET = 2 ** 24

# Default number of pointed models a countermodel search may evaluate.
SEARCH_BUDGET = 500_000
