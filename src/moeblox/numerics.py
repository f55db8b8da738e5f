"""Tolerance policy and guarded scalar functions.

A single :class:`Tolerances` value is threaded through every geometric
predicate in the package, and no other epsilon is fixed.  A product compared
against zero is scaled by the sizes of the terms that formed it, so neither
rescaling a representative nor an exact symmetry of the plane flips a predicate.
Numbers written as text (tolerance specs, point literals, CLI numbers)
are read by one ASCII decimal reader and one ASCII integer reader.
"""

from __future__ import annotations

import cmath
import math
import operator
import re
from collections import namedtuple

from .errors import InvalidInput

_TOL_CEILING = 1e-2
_QUOTE_MAX = 80
# sign, digits with an optional fraction, optional exponent; ASCII only
_DECIMAL = re.compile(r"\s*[+-]?(?:[0-9]+(?:[.][0-9]*)?|[.][0-9]+)(?:[eE][+-]?[0-9]+)?\s*", re.ASCII)
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def _quote(value) -> str:
    """``repr(value)`` cut to about 80 characters, for messages that
    quote input of any size."""
    text = repr(value)
    return text if len(text) <= _QUOTE_MAX else text[: _QUOTE_MAX - 3] + "..."


def _decimal(text: str, what: str) -> float:
    """The value of an ASCII decimal literal, surrounding whitespace
    allowed.  Anything else ("1_0", non-ASCII digits, "inf") and a value
    beyond the float range ("1e400") is refused as InvalidInput that
    names ``what``."""
    if _DECIMAL.fullmatch(text):
        x = float(text)
        if math.isfinite(x):
            return x
    raise InvalidInput(f"cannot parse {what}: {_quote(text)} is not an ASCII decimal within the float range")


def _integer(text: str, what: str) -> int:
    """The value of an ASCII integer literal, as ``_decimal`` reads a
    decimal: "1_024" and non-ASCII digits, which ``int()`` takes, are refused."""
    if _INTEGER.fullmatch(text):
        return int(text)
    raise InvalidInput(f"cannot parse {what}: {_quote(text)} is not an ASCII integer")


class _Value(tuple):
    """Base of the package's value types, each a ``namedtuple`` with one
    checked ``__new__``: immutable, equal only to a value of its own type
    (never to a bare tuple), hashed as the tuple of its fields, and
    without the concatenation, repetition and order of tuples."""

    __slots__ = ()
    __hash__ = tuple.__hash__
    __ne__ = object.__ne__  # the inverse of __eq__
    _make = classmethod(lambda cls, fields: cls(*fields))  # namedtuple's would skip the check

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def _not_a_sequence(self, *other):
        raise TypeError(f"{type(self).__name__} is a value: tuple arithmetic and order do not apply")

    __add__ = __radd__ = __mul__ = __rmul__ = __lt__ = __le__ = __gt__ = __ge__ = _not_a_sequence


class Tolerances(_Value, namedtuple("Tolerances", "eps_product eps_angle eps_mod", defaults=(1e-9, 1e-7, 1e-6))):
    """Shared tolerance bundle.

    eps_product: relative tolerance for product-based predicates.
    eps_angle:   absolute tolerance on angles (radians).
    eps_mod:     absolute tolerance for modular congruences (turn fractions).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        tol = super().__new__(cls, *args, **kwargs)
        for name, value in zip(tol._fields, tol):
            if not (0.0 < value < _TOL_CEILING):
                raise InvalidInput(f"{name} must lie in (0, {_TOL_CEILING}), got {value!r}")
        return tol

    @classmethod
    def parse(cls, text: str) -> "Tolerances":
        """Parse ``"<eps_product>"`` or ``"<eps_product>,<eps_angle>,<eps_mod>"``."""
        values = [_decimal(p, f"tolerance spec {_quote(text)}") for p in text.split(",")]
        if len(values) == 1:
            return cls(eps_product=values[0])
        if len(values) == 3:
            return cls(eps_product=values[0], eps_angle=values[1], eps_mod=values[2])
        raise InvalidInput(f"tolerance spec needs 1 or 3 values, got {len(values)}")


DEFAULT_TOLERANCES = Tolerances()


def _finite(value, name: str) -> bool:
    """``math.isfinite(value)``, with a value that is no real number (a
    string, a complex, None) or an integer too large for a float refused
    as InvalidInput naming it.  Nothing is coerced first: float() would
    read the string "1" as a number."""
    try:
        return math.isfinite(value)
    except TypeError:
        raise InvalidInput(f"{name} must be a real number, got {_quote(value)}") from None
    except OverflowError:
        raise InvalidInput(f"{name} is too large for a float") from None


def _complex(value, name: str) -> complex:
    """``complex(value)``, with a value that is no number (a string, None)
    or an integer too large for a float refused as InvalidInput naming
    it.  Nothing is parsed: complex() would read the string "1+2j" as a
    number.  A complex value is returned as it is."""
    if type(value) is complex:
        return value
    try:
        cmath.isfinite(value)
    except TypeError:
        raise InvalidInput(f"{name} must be a number, got {_quote(value)}") from None
    except OverflowError:
        raise InvalidInput(f"{name} is too large for a float") from None
    return complex(value)


def _index(value, name: str) -> int:
    """``operator.index(value)``, with a value it refuses (a float, say)
    refused as InvalidInput naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInput(f"{name} must be an integer, got {_quote(value)}") from None


def _clear_negative_zero(text: str, precision: int) -> str:
    """The one negative-zero rule for every number the package writes: in text
    of numbers with ``precision`` places, each "-0.0..." becomes "0.0..."."""
    negative_zero = f"{-0.0:.{precision}f}"
    return text.replace(negative_zero, negative_zero[1:])


def congruent_mod(
    a: float, b: float, modulus: float, tol: Tolerances = DEFAULT_TOLERANCES
) -> bool:
    """True when a - b is within eps_mod of an integer multiple of modulus."""
    if modulus <= 0.0:
        raise InvalidInput(f"modulus must be positive, got {modulus!r}")
    return abs(math.remainder(a - b, modulus)) <= tol.eps_mod
