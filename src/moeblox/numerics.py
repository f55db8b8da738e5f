"""Tolerance policy and guarded scalar functions.

A single :class:`Tolerances` value is threaded through every geometric
predicate in the package; the one fixed epsilon is the overshoot that
the clamped inverse functions forgive.  Quantities compared against zero
are always scaled by the magnitude of their inputs first, so rescaling a
homogeneous representative cannot flip a predicate.  Numbers written as
text (tolerance specs, point literals, CLI numbers) are read by one ASCII
decimal reader and one ASCII integer reader.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

from .errors import InvalidInput, NumericalBreakdown

_TOL_CEILING = 1e-2
_EPS_DOMAIN = 1e-9  # permitted overshoot outside the domains of acos and acosh
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


@dataclass(frozen=True)
class Tolerances:
    """Shared tolerance bundle.

    eps_product: relative tolerance for product-based predicates.
    eps_angle:   absolute tolerance on angles (radians).
    eps_mod:     absolute tolerance for modular congruences (turn fractions).
    """

    eps_product: float = 1e-9
    eps_angle: float = 1e-7
    eps_mod: float = 1e-6

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (0.0 < value < _TOL_CEILING):
                raise InvalidInput(
                    f"{f.name} must lie in (0, {_TOL_CEILING}), got {value!r}"
                )

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


def _float(value, name: str) -> float:
    """``float(value)``, with an integer too large for a float refused as
    InvalidInput naming it; float() itself raises OverflowError."""
    try:
        return float(value)
    except OverflowError:
        raise InvalidInput(f"{name} is too large for a float") from None


def clamped_acos(x: float) -> float:
    """Arc cosine tolerating an overshoot of 1e-9 beyond [-1, 1]."""
    if x < -1.0 - _EPS_DOMAIN or x > 1.0 + _EPS_DOMAIN:
        raise NumericalBreakdown(f"acos argument {x!r} outside [-1-eps, 1+eps]")
    return math.acos(min(1.0, max(-1.0, x)))


def clamped_acosh(x: float) -> float:
    """Inverse hyperbolic cosine tolerating an undershoot of 1e-9 below 1."""
    if x < 1.0 - _EPS_DOMAIN:
        raise NumericalBreakdown(f"acosh argument {x!r} below 1-eps")
    return math.acosh(max(1.0, x))


def congruent_mod(
    a: float, b: float, modulus: float, tol: Tolerances = DEFAULT_TOLERANCES
) -> bool:
    """True when a - b is within eps_mod of an integer multiple of modulus."""
    if modulus <= 0.0:
        raise InvalidInput(f"modulus must be positive, got {modulus!r}")
    return abs(math.remainder(a - b, modulus)) <= tol.eps_mod
