"""Shared exception types, and the integer rule of every public entry point.

DomainError marks bad input (caller's fault).  InternalInvariantError and
BudgetError mark defects in the engine or its configuration: valid inputs
must never raise them.

require_int raises DomainError unless its argument passes is_int, which
refuses bool, IntEnum and every other int subclass along with floats and
numeric strings, and meets an optional lower bound.  The rule is this strict
because the certificate wire format writes str(x), which for an int subclass
(an IntEnum member on Python 3.10) need not be the numeral.
"""

from typing import Any


class DomainError(ValueError):
    """Input outside an operation's domain (wrong sign, order, shape...)."""


class InternalInvariantError(AssertionError):
    """An arithmetic invariant that should be unbreakable broke."""


class BudgetError(InternalInvariantError):
    """Step budget exhausted before termination or recurrence.

    With the default budget this cannot happen for valid inputs, so it is
    classified as an internal defect rather than a user error.
    """


def is_int(x: Any) -> bool:
    """True iff x is an int and not an instance of an int subclass."""
    return type(x) is int


def require_int(value: Any, name: str, minimum: int | None = None) -> int:
    """Return value if is_int(value) and value >= minimum; else DomainError."""
    if not is_int(value):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    return value
