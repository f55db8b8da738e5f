"""The normalising map as first written, kept as a reference.

``Loxodrome._map`` reads the map off the frame of the limit points: in
it c1 is a line through 0 and c2 a circle centred at 0, so their
crossings are a closed form.  The route here solves for the crossings
of c1 and c2 with the generic ``intersect`` (a radical line, a
line-circle solve and a sort) and builds the map through three points
with ``map_to_zero_one_inf`` (coincidence tests and cross-ratio
determinants).  Both take the same limit point to 0 and the same
crossing to 1, so their maps agree up to the roundoff of the crossing
solve.
"""

from __future__ import annotations

import math

import moeblox as mx
from moeblox.cycles import _binary_scaled, _pencil, _pencil_kind, center_radius
from moeblox.errors import InvalidInput, TripleViolation

from pencil_route import combine


def _canonical_equal(a: mx.Cycle, b: mx.Cycle, tol: mx.Tolerances) -> bool:
    """Are the canonical cycles a and b projectively equal: every
    component within eps_product of the other, relative to max(1, |a|, |b|)?"""
    thr = tol.eps_product * max(1.0, a.scale(), b.scale())
    return abs(a.k - b.k) <= thr and abs(a.l - b.l) <= thr and abs(a.n - b.n) <= thr and abs(a.m - b.m) <= thr


def _point_sort_key(p: mx.ExtendedPoint):
    if p.is_infinity:
        return (1, 0.0, 0.0)
    z = p.as_complex()
    return (0, round(z.real, 9), round(z.imag, 9))


def _line_circle_points(line: mx.Cycle, circ: mx.Cycle, tangent: bool, tol: mx.Tolerances):
    c, r = center_radius(circ, tol)
    # canonical line: unit normal (l, n), offset m/2
    l, n, h = line.l, line.n, line.m / 2.0
    d = l * c.real + n * c.imag - h
    foot = c - d * complex(l, n)
    if tangent:
        return [mx.ExtendedPoint.from_complex(foot)]
    half = math.sqrt(max(r * r - d * d, 0.0))
    tdir = complex(-n, l)
    return [
        mx.ExtendedPoint.from_complex(foot - half * tdir),
        mx.ExtendedPoint.from_complex(foot + half * tdir),
    ]


def intersect(C: mx.Cycle, Cp: mx.Cycle, tol: mx.Tolerances = mx.DEFAULT_TOLERANCES) -> tuple:
    """Real intersection points of two distinct cycles: two for a
    crossing (elliptic) pair, one for tangency (parabolic), none for a
    disjoint (hyperbolic) pair.  Two crossing lines meet at their finite
    point and at infinity; parallel lines only at infinity.  Circle pairs
    reduce to the radical line."""
    a = mx.canonicalize(C, tol)
    b = mx.canonicalize(Cp, tol)
    if _canonical_equal(a, b, tol):
        raise InvalidInput("intersection of a cycle with itself is the cycle")
    # the pencil of C and C' binary-scaled, as every caller in src/ forms
    # it, so no product overflows a float
    pencil = _pencil(*_binary_scaled(C), *_binary_scaled(Cp), tol)
    kind = _pencil_kind(pencil.disc, pencil.scale, tol)
    if kind == mx.PencilKind.HYPERBOLIC:
        return ()
    tangent = kind == mx.PencilKind.PARABOLIC

    a_line = abs(a.k) <= tol.eps_product * a.scale()
    b_line = abs(b.k) <= tol.eps_product * b.scale()

    if a_line and b_line:
        if tangent:  # parallel lines touch at infinity
            return (mx.ExtendedPoint.infinity(),)
        det2 = a.l * b.n - a.n * b.l
        x = (a.m / 2.0 * b.n - a.n * b.m / 2.0) / det2
        y = (a.l * b.m / 2.0 - a.m / 2.0 * b.l) / det2
        pts = [mx.ExtendedPoint.from_complex(complex(x, y)), mx.ExtendedPoint.infinity()]
    elif a_line or b_line:
        line, circ = (a, b) if a_line else (b, a)
        pts = _line_circle_points(line, circ, tangent, tol)
    else:
        radical = mx.canonicalize(combine(1.0, a, -1.0, b), tol)  # k = 0: the radical line
        pts = _line_circle_points(radical, a, tangent, tol)
    return tuple(sorted(pts, key=_point_sort_key))


def map_to_zero_one_inf(
    p0: mx.ExtendedPoint,
    pu: mx.ExtendedPoint,
    pinf: mx.ExtendedPoint,
    tol: mx.Tolerances = mx.DEFAULT_TOLERANCES,
) -> mx.MoebiusMap:
    """The Moebius map sending p0 -> 0, pu -> 1, pinf -> infinity, from
    cross-ratio determinants on homogeneous coordinates, so any of the
    three points may be infinity."""
    pts = (p0, pu, pinf)
    for i in range(3):
        for j in range(i + 1, 3):
            if pts[i].approx_eq(pts[j], tol):
                raise InvalidInput(f"points {i} and {j} coincide")

    def det(p: mx.ExtendedPoint, q: mx.ExtendedPoint) -> complex:
        return p.w1 * q.w2 - p.w2 * q.w1

    duc = det(pu, pinf)
    dua = det(pu, p0)
    M = mx.MoebiusMap(p0.w2 * duc, -p0.w1 * duc, pinf.w2 * dua, -pinf.w1 * dua)
    return M.normalized()


def normalising_map(lox: mx.Loxodrome) -> mx.MoebiusMap:
    """``Loxodrome._map`` of a spiral or line shape by this route: the
    same limit points and orientation, read on canonical cycles, the
    crossing of c1 and c2 solved for, the map through three points."""
    tol = lox.tol
    p, q = lox.limit_points
    c1, c2, c3 = (mx.canonicalize(C, tol) for C in (lox.c1, lox.c2, lox.c3))
    crossings = intersect(c1, c2, tol)
    if len(crossings) != 2:
        raise TripleViolation("first and second cycle must cross at two points")
    u = max(crossings, key=_point_sort_key)
    if lox.shape == mx.loxodrome.CurveKind.SPIRAL:
        P, Q = lox._point_members
        num, den = mx.product(c3, P) * mx.product(c2, Q), mx.product(c3, Q) * mx.product(c2, P)
        if (num > den if den > 0 else num < den) != (lox.sign > 0):
            p, q = q, p
    return map_to_zero_one_inf(p, u, q, tol)
