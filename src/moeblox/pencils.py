"""Linear families spanned by two cycles.

A pencil is the projective line of cycles ``alpha A + beta B``.  Its
type follows the Cauchy-Schwarz trichotomy of the indefinite product:
crossing family (elliptic), tangent family (parabolic) or disjoint
family (hyperbolic).  ``cycles.classify_pencil`` is the one routine that
decides it.  A hyperbolic pencil contains exactly two point members, the
limit points; the elliptic pencil orthogonal to it is the family of all
cycles through both.  Every routine here takes the spanning pair as two
arguments, ``(A, B, ..., tol)``.
"""

from __future__ import annotations

import math

from .cycles import (
    Cycle,
    PencilKind,
    _pencil_kind,
    canonicalize,
    combine,
    pencil_discriminant,
    product,
)
from .errors import NotHyperbolic
from .numerics import DEFAULT_TOLERANCES, Tolerances


def zero_radius_members(
    A: Cycle, B: Cycle, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[Cycle, Cycle]:
    """The two point members of the hyperbolic pencil of A and B,
    canonicalised and in a deterministic order; any other pencil,
    coincident cycles included, raises NotHyperbolic.

    Solves <xA + yB, xA + yB> = 0 in homogeneous (x : y) with the
    cancellation-free root pairing, so a near-point A does not degrade
    the second root.  The discriminant <A,B>^2 - <A,A><B,B> of nearby
    cycles is the difference of two nearly equal terms, which would cost
    the roots a relative error of eps over its size.  So when those
    terms outweigh it, A becomes the cycle of larger |<A,A>| and B is
    replaced by B - (<A,B>/<A,A>) A: the same pencil, spanned by two
    orthogonal cycles, whose discriminant -<A,A><B,B> cancels nothing.
    """
    disc, scale = pencil_discriminant(A, B, tol)
    if _pencil_kind(disc, scale, tol) != PencilKind.HYPERBOLIC:
        raise NotHyperbolic(f"pencil discriminant {disc!r} is not positive")
    a, c = product(A, A), product(B, B)
    if a * c > disc:
        if abs(c) > abs(a):
            A, B, a = B, A, c
        B = combine(1.0, B, -product(A, B) / a, A)
    b, c = product(A, B), product(B, B)
    root = math.sqrt(b * b - a * c)
    sb = 1.0 if b >= 0 else -1.0
    qq = -(b + sb * root)
    members = [
        canonicalize(combine(qq, A, a, B), tol),
        canonicalize(combine(c, A, qq, B), tol),
    ]
    members.sort(key=lambda z: (z.k, z.l, z.n, z.m))
    return members[0], members[1]
