"""Linear families spanned by two cycles.

A pencil is the projective line of cycles ``alpha A + beta B``.  Its
type follows the Cauchy-Schwarz trichotomy of the indefinite product:
crossing family (elliptic), tangent family (parabolic) or disjoint
family (hyperbolic).  A hyperbolic pencil contains exactly two point
members, the limit points; the elliptic pencil orthogonal to it is the
family of all cycles through both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cycles import (
    Cycle,
    canonicalize,
    combine,
    pencil_discriminant,
    product,
    projectively_equal,
)
from .errors import (
    CoincidentCycles,
    NotHyperbolic,
    OnRadicalLocus,
    RankDeficient,
)
from .numerics import DEFAULT_TOLERANCES, Tolerances


class PencilKind(Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class Pencil:
    """Ordered pair of independent cycles spanning the family."""

    A: Cycle
    B: Cycle

    def __post_init__(self):
        if projectively_equal(self.A, self.B):
            raise CoincidentCycles("a pencil needs two distinct cycles")


def classify_pencil(P: Pencil, tol: Tolerances = DEFAULT_TOLERANCES) -> PencilKind:
    """Compare <A,B>^2 against <A,A><B,B>: less is elliptic, equal
    parabolic, greater hyperbolic."""
    q, scale = pencil_discriminant(P.A, P.B, tol)
    thr = tol.eps_product * scale
    if q < -thr:
        return PencilKind.ELLIPTIC
    if q <= thr:
        return PencilKind.PARABOLIC
    return PencilKind.HYPERBOLIC


def zero_radius_members(
    P: Pencil, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[Cycle, Cycle]:
    """The two point members of a hyperbolic pencil, canonicalised and in
    a deterministic order.

    Solves <xA + yB, xA + yB> = 0 in homogeneous (x : y) with the
    cancellation-free root pairing, so a near-point A does not degrade
    the second root.
    """
    a = product(P.A, P.A)
    b = product(P.A, P.B)
    c = product(P.B, P.B)
    disc, scale = pencil_discriminant(P.A, P.B, tol)
    if disc <= tol.eps_product * scale:
        raise NotHyperbolic(f"pencil discriminant {disc!r} is not positive")
    root = math.sqrt(disc)
    sb = 1.0 if b >= 0 else -1.0
    qq = -(b + sb * root)
    members = [
        canonicalize(combine(qq, P.A, a, P.B), tol),
        canonicalize(combine(c, P.A, qq, P.B), tol),
    ]
    members.sort(key=lambda z: (z.k, z.l, z.n, z.m))
    return members[0], members[1]


def orthogonal_cycle_through(
    A: Cycle, B: Cycle, P: Cycle, tol: Tolerances = DEFAULT_TOLERANCES
) -> Cycle:
    """The cycle orthogonal to A, B and the point cycle P.

    Orthogonality to a fixed cycle X is linear in the unknown quadruple,
    with row (-m_X, 2 l_X, 2 n_X, -k_X); the solution is the null space
    of the stacked 3x4 system, extracted by a rank-revealing SVD.  With
    P a point member of the pencil of (A, B) the system drops rank and
    RankDeficient is raised.
    """
    rows = np.array(
        [[-X.m, 2.0 * X.l, 2.0 * X.n, -X.k] for X in (A, B, P)], dtype=float
    )
    _, sing, vt = np.linalg.svd(rows)
    if sing[2] <= tol.eps_product * sing[0]:
        raise RankDeficient(
            f"orthogonality system has rank < 3 (singular values {sing.tolist()!r})"
        )
    null = vt[-1]
    return canonicalize(Cycle(*null), tol)


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
    a = canonicalize(A, tol)
    b = canonicalize(B, tol)
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
