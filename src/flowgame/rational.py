"""Exact rational parsing and formatting for file and CLI surfaces, and
scaling of rationals to integers.

Every numeric quantity that enters or leaves this package's functions is
a ``fractions.Fraction``; inside, the flow layer computes on integers
scaled from them (see ``flows``), which is exact as well. Equilibrium
decisions are equality tests, so floats are rejected at the boundary
instead of being silently converted.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import FlowGameError, ParseError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:\s*/\s*\d+)?$")


def parse_rational(value, what: str = "value") -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a string like
    ``"3"``, ``"-2"`` or ``"7/2"``. Floats and float-like strings are
    rejected to preserve exact arithmetic."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParseError(f"{what} must be a rational number, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError(
            f"{what} must be an exact rational such as '3' or '7/2'; "
            f"floats like {value!r} are not accepted because results are "
            "decided by exact equality"
        )
    if isinstance(value, str):
        text = value.strip()
        if _RATIONAL_RE.match(text):
            num, _, den = text.partition("/")
            try:
                num, den = int(num), int(den or 1)
            except ValueError as exc:  # past the interpreter's int-conversion digit limit
                raise ParseError(
                    f"{what} has too many digits ({len(text)} characters)"
                ) from exc
            if den == 0:
                raise ParseError(f"{what} has a zero denominator: {value!r}")
            return Fraction(num, den)
        raise ParseError(
            f"{what} must be an exact rational such as '3' or '7/2', "
            f"got {value!r}"
        )
    raise ParseError(f"{what} must be a rational number, got {type(value).__name__}")


def format_rational(value: Fraction, what: str = "a result") -> str:
    """``str(value)``, or a one-line FlowGameError when a derived value is
    past the interpreter's int-conversion digit limit."""
    try:
        return str(value)
    except ValueError as exc:
        raise FlowGameError(f"{what} has too many digits to print") from exc


def to_integers(values: list) -> tuple:
    """``(scale, scaled)``: the LCM of the values' denominators, and the
    tuple of the values times it, so that sums and comparisons of them
    can run on ``int``. When every value is an integer the scale is 1
    and the numerators are the scaled values."""
    scale = math.lcm(*(x.denominator for x in values))
    if scale == 1:
        return 1, tuple(x.numerator for x in values)
    return scale, tuple(x.numerator * (scale // x.denominator) for x in values)
