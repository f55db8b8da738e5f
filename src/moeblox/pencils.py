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
from .errors import NotHyperbolic, OnRadicalLocus, RankDeficient
from .numerics import DEFAULT_TOLERANCES, Tolerances


def zero_radius_members(
    A: Cycle, B: Cycle, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[Cycle, Cycle]:
    """The two point members of the hyperbolic pencil of A and B,
    canonicalised and in a deterministic order; any other pencil,
    coincident cycles included, raises NotHyperbolic.

    Solves <xA + yB, xA + yB> = 0 in homogeneous (x : y) with the
    cancellation-free root pairing, so a near-point A does not degrade
    the second root.
    """
    disc, scale = pencil_discriminant(A, B, tol)
    if _pencil_kind(disc, scale, tol) != PencilKind.HYPERBOLIC:
        raise NotHyperbolic(f"pencil discriminant {disc!r} is not positive")
    a = product(A, A)
    b = product(A, B)
    c = product(B, B)
    root = math.sqrt(disc)
    sb = 1.0 if b >= 0 else -1.0
    qq = -(b + sb * root)
    members = [
        canonicalize(combine(qq, A, a, B), tol),
        canonicalize(combine(c, A, qq, B), tol),
    ]
    members.sort(key=lambda z: (z.k, z.l, z.n, z.m))
    return members[0], members[1]


def orthogonal_cycle_through(
    A: Cycle, B: Cycle, P: Cycle, tol: Tolerances = DEFAULT_TOLERANCES
) -> Cycle:
    """The cycle orthogonal to A, B and the point cycle P.

    Orthogonality to a fixed cycle X is linear in the unknown quadruple,
    with row (-m_X, 2 l_X, 2 n_X, -k_X); the solution spans the null
    space of the stacked 3x4 system.  It is the generalised cross product
    of the rows: four 3x3 cofactors, expanded along the row of P over the
    six 2x2 minors of the rows of A and B.  With P a point member of the
    pencil of (A, B) the system drops rank and RankDeficient is raised.

    The rank test is the singular-value test s2 <= eps_product * s0
    without an SVD.  Over the singular values s0 >= s1 >= s2, the
    cofactor vector has norm s0 s1 s2, the eighteen 2x2 minors of the
    system have squared sum s0^2 s1^2 + s2^2 (s0^2 + s1^2), and the
    squared Frobenius norm is s0^2 + s1^2 + s2^2; the two sums give s0
    and s0 s1 up to a relative O(s2^2 / s1^2), which leaves the
    threshold where the SVD put it.  The rows are first scaled by one
    power of two, which is exact and keeps the cubic cofactors and
    their squares in range for any finite components: cofactors that
    pass the rank test are a valid cycle without a second check.
    """
    e = math.frexp(max(A.scale(), B.scale(), P.scale()))[1]
    ldexp = math.ldexp
    a0, a1, a2, a3 = -ldexp(A.m, -e), ldexp(A.l, 1 - e), ldexp(A.n, 1 - e), -ldexp(A.k, -e)
    b0, b1, b2, b3 = -ldexp(B.m, -e), ldexp(B.l, 1 - e), ldexp(B.n, 1 - e), -ldexp(B.k, -e)
    c0, c1, c2, c3 = -ldexp(P.m, -e), ldexp(P.l, 1 - e), ldexp(P.n, 1 - e), -ldexp(P.k, -e)
    # 2x2 minors of the row pairs (A, B), (A, P) and (B, P)
    ab01, ab02, ab03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
    ab12, ab13, ab23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
    ac01, ac02, ac03 = a0 * c1 - a1 * c0, a0 * c2 - a2 * c0, a0 * c3 - a3 * c0
    ac12, ac13, ac23 = a1 * c2 - a2 * c1, a1 * c3 - a3 * c1, a2 * c3 - a3 * c2
    bc01, bc02, bc03 = b0 * c1 - b1 * c0, b0 * c2 - b2 * c0, b0 * c3 - b3 * c0
    bc12, bc13, bc23 = b1 * c2 - b2 * c1, b1 * c3 - b3 * c1, b2 * c3 - b3 * c2
    # signed cofactors: v_j = (-1)^j det(rows without column j)
    v0 = c1 * ab23 - c2 * ab13 + c3 * ab12
    v1 = -(c0 * ab23 - c2 * ab03 + c3 * ab02)
    v2 = c0 * ab13 - c1 * ab03 + c3 * ab01
    v3 = -(c0 * ab12 - c1 * ab02 + c2 * ab01)
    frob = (
        a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3
        + b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3
        + c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3
    )
    minors = (
        ab01 * ab01 + ab02 * ab02 + ab03 * ab03 + ab12 * ab12 + ab13 * ab13 + ab23 * ab23
        + ac01 * ac01 + ac02 * ac02 + ac03 * ac03 + ac12 * ac12 + ac13 * ac13 + ac23 * ac23
        + bc01 * bc01 + bc02 * bc02 + bc03 * bc03 + bc12 * bc12 + bc13 * bc13 + bc23 * bc23
    )
    cof = v0 * v0 + v1 * v1 + v2 * v2 + v3 * v3
    s0_sq = 0.5 * (frob + math.sqrt(max(frob * frob - 4.0 * minors, 0.0)))
    eps_sq = tol.eps_product * tol.eps_product
    # s1 <= eps s0 bounds s2 as well, and there the cofactors are noise
    if minors <= eps_sq * s0_sq * s0_sq or cof <= eps_sq * s0_sq * minors:
        ratio = math.sqrt(cof / minors / s0_sq) if minors > 0.0 else 0.0
        raise RankDeficient(
            f"orthogonality system has rank < 3 (s2/s0 about {ratio!r})"
        )
    return canonicalize(Cycle._from_floats(v0, v1, v2, v3), tol)


def member_through(
    A: Cycle, B: Cycle, P: Cycle, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[Cycle, float | None]:
    """Member of the pencil of (A, B) through the point of the point cycle
    P, in homogeneous form, with its affine coefficient.

    Equivalent to the affine combination t A + (1 - t) B with
    t = -<P,B>/<P,A-B> on canonical representatives, but stays defined
    on the member where that t diverges (the radical member); there the
    affine coefficient is reported as None.  At a limit point of the
    pencil the member collapses to that point; a point on both A and B
    selects no member and raises OnRadicalLocus.
    """
    return _member_through(canonicalize(A, tol), canonicalize(B, tol), P, tol)


def _member_through(a: Cycle, b: Cycle, P: Cycle, tol: Tolerances) -> tuple[Cycle, float | None]:
    """``member_through`` on the canonical cycles a and b."""
    p = canonicalize(P, tol)
    alpha = product(b, p)
    beta = -product(a, p)
    scale = 4.0 * p.scale() * max(a.scale(), b.scale(), 1e-300)
    if max(abs(alpha), abs(beta)) <= tol.eps_product * scale:
        raise OnRadicalLocus("point is incident with both spanning cycles")
    member = combine(alpha, a, beta, b)
    s = alpha + beta
    t = alpha / s if abs(s) > tol.eps_product * (abs(alpha) + abs(beta)) else None
    return member, t
