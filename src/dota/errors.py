"""Exception types shared across the library, and the two parameter rules
every entry point checks its counts and numbers against."""

from __future__ import annotations

import math
import numbers


class DotaError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(DotaError, ValueError):
    """Mode sizes, factor products, or ranks are inconsistent."""


class ParameterError(DotaError, ValueError):
    """A configuration value is out of its valid range."""


class NumericError(DotaError, ArithmeticError):
    """Non-finite input or a failed matrix factorization."""


class FormatError(DotaError, ValueError):
    """A binary file is corrupt, truncated, or internally inconsistent."""


def _count_problem(value, minimum: int) -> str | None:
    """Why ``value`` is not an integer >= ``minimum``, or None if it is.
    ``bool`` is not a count, although Python makes it an integer."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        return f"expected an integer, got {value!r}"
    if value < minimum:
        return f"must be >= {minimum}, got {value}"
    return None


def _number_problem(value, minimum: float, *, strict: bool = False) -> str | None:
    """Why ``value`` is not a finite real >= ``minimum`` (> if ``strict``),
    or None if it is. ``bool`` is not a number here."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return f"expected a number, got {value!r}"
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        return f"expected a finite number, got {value!r}"
    if value < minimum or (strict and value == minimum):
        return f"must be {'>' if strict else '>='} {minimum}, got {value}"
    return None


def _reject(**problems: str | None) -> None:
    """Raise one ParameterError naming every keyword whose problem is set."""
    found = [f"{name}: {problem}" for name, problem in problems.items() if problem]
    if found:
        raise ParameterError("; ".join(found))
