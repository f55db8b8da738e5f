"""The per-point route as first written, kept as a reference.

The queries of ``moeblox.loxodrome`` map a point into standard position
once per curve and call, from the entries of the kept map, and push the
velocity through the kept inverse.  The route here moves the point with
``apply_to_point``, reads its coordinate back out of the ExtendedPoint
that builds, maps it a second time for the velocity, and forms
``map.inverse()`` on every call.  Both read the same prepared form, so
their answers and refusals must be identical, repr for repr.
"""

from __future__ import annotations

import cmath
import math

import moeblox as mx
from moeblox.errors import InvalidInput, PointNotOnCurve
from moeblox.loxodrome import CurveKind, _as_point, _cycle_tangent_direction, _fold_half_open, _prepared
from moeblox.numerics import congruent_mod

TWO_PI = 2.0 * math.pi


def _standard_point(lox, p):
    w = mx.apply_to_point(lox.map, p)
    return None if w.is_infinity else w.as_complex()


def _velocity(lox, p):
    w = _standard_point(lox, p)
    if w is None or w == 0:
        raise PointNotOnCurve("point maps to a limit point under the normal form")
    inv = lox.map.inverse()
    denom = inv.a * w + inv.b if p.is_infinity else inv.c * w + inv.d
    return (inv.det / (denom * denom)) * (lox.rate * w)


def _contains(lox, p):
    tol = lox.tol
    if lox.shape == CurveKind.CIRCLE:
        return mx.MembershipReport(member=mx.passes(lox.c2, p, tol))
    if any(p.approx_eq(z, tol) for z in lox.limit_points):
        return mx.MembershipReport(False, flags=("limit_point",))
    w = _standard_point(lox, p)
    if w is None or w == 0:
        return mx.MembershipReport(False, flags=("limit_point",))
    lhs = math.log(abs(w)) / lox.param.lambda_tilde
    rhs = cmath.phase(w) / TWO_PI
    return mx.MembershipReport(congruent_mod(lhs, rhs, 0.5, tol), lhs, rhs)


def _require_on_curves(p, *curves):
    if not all(_contains(lox, p).member for lox in curves):
        where = "both curves" if len(curves) > 1 else "the curve"
        raise PointNotOnCurve(f"point {p.format()} is not on {where}")


def contains_point(T, p, tol=mx.DEFAULT_TOLERANCES):
    return _contains(_prepared(T, tol), _as_point(p))


def contains_point_oracle(T, p, tol=mx.DEFAULT_TOLERANCES):
    return _contains(_prepared(T, tol), _as_point(p)).member


def intersection_angle(T, Tp, p, tol=mx.DEFAULT_TOLERANCES):
    p = _as_point(p)
    lox, loxp = _prepared(T, tol), _prepared(Tp, tol)
    _require_on_curves(p, lox, loxp)
    return _fold_half_open(cmath.phase(_velocity(lox, p) * _velocity(loxp, p).conjugate()))


def tangent_check(T, C, p, tol=mx.DEFAULT_TOLERANCES):
    if mx.classify(C, tol) == mx.CycleKind.POINT:
        raise InvalidInput("tangency candidate must not be a point cycle")
    p = _as_point(p)
    lox = _prepared(T, tol)
    _require_on_curves(p, lox)
    if not mx.passes(C, p, tol):
        return False
    turn = cmath.phase(_cycle_tangent_direction(C, p) / _velocity(lox, p))
    return abs(math.remainder(turn, math.pi)) <= tol.eps_angle


def tangent_line_at(T, p, tol=mx.DEFAULT_TOLERANCES):
    p = _as_point(p)
    if p.is_infinity:
        raise InvalidInput("tangent line is constructed at finite points only")
    lox = _prepared(T, tol)
    _require_on_curves(p, lox)
    direction = _velocity(lox, p)
    speed = abs(direction)
    if speed == 0 or not math.isfinite(speed):
        raise PointNotOnCurve("curve direction is undefined at this point")
    direction /= speed
    return mx.from_line(p.as_complex(), p.as_complex() + direction, tol)
