"""The paper's pencil-product membership test, kept as a reference.

``contains_point`` decides membership in standard position.  The route
here reads the same two invariants off cycles instead: the hyperbolic
shift from the member of the disjoint pencil through the point, against
c2, and the elliptic rotation from the cycle orthogonal to c2, c3 and
the point, against c1.  Normalised products of projective cycles carry
a sign, so the congruence is folded, and the route cannot tell a spiral
from its mirror.  Its member through a point is also the reference for
the curve's fixed crossing angle with that pencil.  ``combine`` and
``root_pairing`` keep the point members as first built, a combination
canonicalised afterwards, which ``cycles._root_pairing`` matches bit for
bit.
"""

from __future__ import annotations

import math

import moeblox as mx
from moeblox.errors import InvalidInput, MoebloxError, NumericalBreakdown
from moeblox.loxodrome import CurveKind, _as_point, _prepared
from moeblox.numerics import congruent_mod

TWO_PI = 2.0 * math.pi


def clamped_acosh(x: float) -> float:
    """Inverse hyperbolic cosine tolerating an undershoot of 1e-9 below 1."""
    if x < 1.0 - 1e-9:
        raise NumericalBreakdown(f"acosh argument {x!r} below 1-eps")
    return math.acosh(max(1.0, x))


def clamped_acos(x: float) -> float:
    """Arc cosine tolerating an overshoot of 1e-9 beyond [-1, 1]."""
    if x < -1.0 - 1e-9 or x > 1.0 + 1e-9:
        raise NumericalBreakdown(f"acos argument {x!r} outside [-1-eps, 1+eps]")
    return math.acos(min(1.0, max(-1.0, x)))


def combine(alpha: float, C: mx.Cycle, beta: float, Cp: mx.Cycle) -> mx.Cycle:
    """Componentwise alpha C + beta C' (safe for a vanishing coefficient)."""
    return mx.Cycle(alpha * C.k + beta * Cp.k, alpha * C.l + beta * Cp.l,
                    alpha * C.n + beta * Cp.n, alpha * C.m + beta * Cp.m)


def root_pairing(pencil, tol=mx.DEFAULT_TOLERANCES):
    """``cycles._root_pairing`` as first written: each point member built
    by ``combine`` and then canonicalised, two cycles per member."""
    A, B, a, b, c = pencil.frame
    root = math.sqrt(pencil.disc)
    qq = -(b + (1.0 if b >= 0 else -1.0) * root)
    P, Q = mx.canonicalize(combine(qq, A, a, B), tol), mx.canonicalize(combine(c, A, qq, B), tol)
    return (P, Q) if tuple.__le__(P, Q) else (Q, P)


class RankDeficient(MoebloxError):
    """Linear system for the orthogonal cycle has a null space of dim > 1."""


class OnRadicalLocus(MoebloxError):
    """The point is incident with both cycles spanning the pencil."""


class PointOperand(MoebloxError):
    """A normalised product met a point cycle."""


def _cosine_of(a, b, tol):
    """``normalized_product`` of canonical a and b, with its refusal of a
    point cycle raised as PointOperand: the route reads that refusal as
    "not a member", and no other InvalidInput."""
    try:
        return mx.normalized_product(a, b, tol)
    except InvalidInput as exc:
        raise PointOperand(str(exc)) from None


def _member_through(a, b, P, tol=mx.DEFAULT_TOLERANCES):
    """Member of the pencil of the canonical cycles a and b through the
    point of the point cycle P, in homogeneous form.

    Equivalent to the affine combination t a + (1 - t) b with
    t = -<P,b>/<P,a-b>, but stays defined on the member where that t
    diverges (the radical member).  At a limit point of the pencil the
    member collapses to that point; a point on both a and b selects no
    member and raises OnRadicalLocus.
    """
    p = mx.canonicalize(P, tol)
    alpha = mx.product(b, p)
    beta = -mx.product(a, p)
    scale = 4.0 * p.scale() * max(a.scale(), b.scale(), 1e-300)
    if max(abs(alpha), abs(beta)) <= tol.eps_product * scale:
        raise OnRadicalLocus("point is incident with both spanning cycles")
    return combine(alpha, a, beta, b)


def orthogonal_cycle_through(A, B, P, tol=mx.DEFAULT_TOLERANCES):
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
    return mx.canonicalize(mx.Cycle(v0, v1, v2, v3), tol)


def contains_point(T, p, tol=mx.DEFAULT_TOLERANCES) -> bool:
    """Membership by the pencil products, with ``contains_point``'s
    circle, line and limit-point branches."""
    lox, p = _prepared(T, tol), _as_point(p)
    if lox.shape == CurveKind.CIRCLE:
        return mx.passes(lox.c2, p, tol)
    if any(p.approx_eq(z, tol) for z in lox.limit_points):
        return False
    if lox.shape == CurveKind.LINE:
        return mx.passes(lox.c1, p, tol)
    c0 = mx.zero_radius_at(p)
    c1, c2, c3 = (mx.canonicalize(C, tol) for C in (lox.c1, lox.c2, lox.c3))
    ch = _member_through(c2, c3, c0, tol)
    if mx.classify(ch, tol) == mx.CycleKind.POINT:
        return False
    try:
        ce = orthogonal_cycle_through(lox.c2, lox.c3, c0, tol)
        lam = abs(lox.param.lambda_tilde)
        h = mx.canonicalize(ch, tol)
        lhs = clamped_acosh(abs(_cosine_of(h, c2, tol))) / lam
        e = mx.canonicalize(ce, tol)
        rhs = clamped_acos(_cosine_of(e, c1, tol)) / TWO_PI
    except (RankDeficient, PointOperand):
        return False
    return congruent_mod(lhs, rhs, 0.5, tol) or congruent_mod(lhs, -rhs, 0.5, tol)
