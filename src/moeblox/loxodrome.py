"""Logarithmic spirals under Moebius maps, parametrised by cycle triples.

The model curve with parameter ``lambda = lambda_tilde + 2 pi i`` is the
two-branch orbit ``{+-exp(lambda t)}`` of the point 1 under the diagonal
flow ``diag(+-exp(lambda t / 2), exp(-lambda t / 2))``; a loxodrome is
any Moebius image of it.  ``lambda_tilde`` is the conformal invariant:
``exp(lambda_tilde)`` is the modulus gained per full counterclockwise
turn.

A loxodrome is encoded by an ordered triple of cycles plus a chirality
sign: ``c1`` is a cycle of the elliptic pencil through the two
asymptotic endpoints, ``c2`` and ``c3`` span the orthogonal hyperbolic
pencil and sit one full turn apart on the curve.  The inverse hyperbolic
cosine of their normalised product recovers ``|lambda_tilde|``; the sign
cannot be read off the cycles (mirror spirals share them), so the triple
carries it explicitly.

A point is on the curve when the hyperbolic shift over ``lambda_tilde``
agrees with the elliptic rotation in turns.  Membership reads both in
standard position, where they are log|w| / lambda_tilde and arg w / 2 pi,
and compares them modulo 1/2: the model curve has two branches.  Angles
and tangency read the curve's velocity there, pushed back through the
map.  The congruence of ``equivalent`` is also taken with a sign fold: cycles are
projective, so normalised products carry a residual +- ambiguity, and
lines are undirected.

``Loxodrome`` is the prepared form of a triple and the one place that
holds what is derived from it: its canonical cycles, its kind,
lambda_tilde (0 for a circle, inf for a line), the point members of the
pencil of (c2, c3) and the normalising map.  The first query on a triple
keeps it on the triple; later ones pay only their per-point work.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .cycles import (
    Cycle,
    CycleKind,
    ExtendedPoint,
    MoebiusMap,
    PencilKind,
    _affine,
    _canonical_equal,
    _cosine,
    _line_frame,
    _norm_square,
    _pencil_kind,
    _point_sort_key,
    apply_to_cycle,
    apply_to_point,
    canonicalize,
    center_radius,
    classify,
    from_line,
    intersect,
    is_orthogonal,
    map_to_zero_one_inf,
    passes,
    pencil_discriminant,
    point_of,
    product,
)
from .errors import InvalidInput, PointNotOnCurve, TripleViolation
from .numerics import (
    DEFAULT_TOLERANCES,
    Tolerances,
    clamped_acos,
    clamped_acosh,
    congruent_mod,
    _float,
)
from .pencils import zero_radius_members

TWO_PI = 2.0 * math.pi
# lstsq's default rcond for a 4x2 system: machine epsilon times max(4, 2)
_LSTSQ_RCOND = 4.0 * sys.float_info.epsilon

_REAL_AXIS = Cycle(0.0, 0.0, 1.0, 0.0)
_UNIT_CIRCLE = Cycle(1.0, 0.0, 0.0, -1.0)

#: Branch-swapping reflection z -> -1/z; together with the diagonal flow
#: it generates the stabiliser of the model curve.
BRANCH_SWAP = MoebiusMap(0.0, -1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# the spiral parameter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlsParameter:
    """Extended real parameter of a spiral: a float, with 0 for the circle
    degeneration, or ``math.inf`` for the line degeneration."""

    lambda_tilde: float

    def __post_init__(self):
        if not (math.isfinite(self.lambda_tilde) or self.lambda_tilde == math.inf):
            raise InvalidInput(f"parameter must be a float or math.inf, got {self.lambda_tilde!r}")

    @classmethod
    def finite(cls, lambda_tilde: float) -> "SlsParameter":
        lt = float(lambda_tilde)
        if not math.isfinite(lt):
            raise InvalidInput("finite parameter must be a finite float")
        return cls(lt)

    @classmethod
    def infinite(cls) -> "SlsParameter":
        return cls(math.inf)

    @property
    def rate(self) -> complex:
        """Normalised complex exponent lambda_tilde + 2 pi i."""
        if self.lambda_tilde == math.inf:
            raise InvalidInput("infinite parameter has no finite exponent")
        return complex(self.lambda_tilde, TWO_PI)

    @property
    def a(self) -> float:
        """Modulus gained per full turn: exp(lambda_tilde), infinity for a line."""
        return math.exp(self.lambda_tilde)


def diagonal_flow(lam: complex, t: float, branch: int = 1) -> MoebiusMap:
    """diag(branch * exp(lam t / 2), exp(-lam t / 2)); acts on points as
    z -> branch * exp(lam t) z."""
    if branch not in (1, -1):
        raise InvalidInput("branch must be +1 or -1")
    lam = complex(lam)
    return MoebiusMap(
        branch * cmath.exp(lam * t / 2.0), 0.0, 0.0, cmath.exp(-lam * t / 2.0)
    )


# ---------------------------------------------------------------------------
# triples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoxodromeTriple:
    """Ordered cycles (c1, c2, c3) plus the chirality sign in {+1, -1}."""

    c1: Cycle
    c2: Cycle
    c3: Cycle
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise InvalidInput(f"sign must be +1 or -1, got {self.sign!r}")

    def to_json(self):
        return {
            "c1": self.c1.to_json(),
            "c2": self.c2.to_json(),
            "c3": self.c3.to_json(),
            "sign": self.sign,
        }


def standard_triple(param: SlsParameter) -> LoxodromeTriple:
    """Standard-position triple: real axis, unit circle, and the circle of
    radius exp(lambda_tilde).

    Degenerate cases: a zero parameter duplicates the unit circle, the
    infinite parameter uses the point cycle at infinity as third member.
    """
    lt = param.lambda_tilde
    if lt == math.inf:
        return LoxodromeTriple(_REAL_AXIS, _UNIT_CIRCLE, Cycle(0.0, 0.0, 0.0, 1.0), 1)
    if lt == 0.0:
        return LoxodromeTriple(_REAL_AXIS, _UNIT_CIRCLE, _UNIT_CIRCLE, 1)
    c3 = Cycle(1.0, 0.0, 0.0, -math.exp(2.0 * lt))
    return LoxodromeTriple(_REAL_AXIS, _UNIT_CIRCLE, c3, 1 if lt > 0 else -1)


def validate_triple(
    c1: Cycle,
    c2: Cycle,
    c3: Cycle,
    sign: int = 1,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> LoxodromeTriple:
    """Checked triple; raises the first of ``Loxodrome.violations``
    otherwise.  The form that checks it is not kept on the triple."""
    T = LoxodromeTriple(c1, c2, c3, sign)
    violations = Loxodrome(T, tol).violations()
    if violations:
        raise violations[0]
    return T


# ---------------------------------------------------------------------------
# the prepared form
# ---------------------------------------------------------------------------

class CurveKind(Enum):
    """What the spiral parameter makes of the curve."""

    SPIRAL = "spiral"  # finite nonzero parameter
    CIRCLE = "circle"  # zero parameter: the curve is c2
    LINE = "line"  # infinite parameter: the curve is an arc of c1


class Loxodrome:
    """A triple prepared once for every query on it at one tolerance.

    ``kind`` is what the cycles say; ``param`` follows from it, and
    ``shape``, the kind every query acts on, is read off lambda_tilde
    alone.  Canonical c2 and c3 are formed on construction; canonical
    c1, the self-products ``_n1`` to ``_n3`` of the canonical cycles,
    the parameter, the limit points and the map on first use, at most
    once.  Every query of this module gets one from ``_prepared``.  It
    holds the triple's cycles, not the triple that keeps it, so the two
    make no reference cycle for the garbage collector to find."""

    def __init__(self, triple: LoxodromeTriple, tol: Tolerances = DEFAULT_TOLERANCES):
        self.c1, self.c2, self.c3, self.sign = triple.c1, triple.c2, triple.c3, triple.sign
        self.tol = tol
        self._c2, self._c3 = canonicalize(self.c2, tol), canonicalize(self.c3, tol)
        if _canonical_equal(self._c2, self._c3, tol):
            self.kind = CurveKind.CIRCLE
        elif classify(self.c3, tol) == CycleKind.POINT:
            self.kind = CurveKind.LINE
        else:
            self.kind = CurveKind.SPIRAL

    _c1 = cached_property(lambda self: canonicalize(self.c1, self.tol))
    _n1 = cached_property(lambda self: _norm_square(self._c1))
    _n2 = cached_property(lambda self: _norm_square(self._c2))
    _n3 = cached_property(lambda self: _norm_square(self._c3))

    @cached_property
    def _pair_product(self) -> float:
        """|normalised product| of c2 and c3 (canonical disjoint cycles may pair negatively)."""
        return abs(_cosine(self._c2, self._c3, *self._n2, *self._n3, self.tol))

    @cached_property
    def param(self) -> SlsParameter:
        """acosh of ``_pair_product``, signed by the triple's chirality;
        0 for the circle kind, inf for the line kind."""
        if self.kind == CurveKind.CIRCLE:
            return SlsParameter(0.0)
        if self.kind == CurveKind.LINE:
            return SlsParameter.infinite()
        return SlsParameter.finite(self.sign * clamped_acosh(self._pair_product))

    @property
    def shape(self) -> CurveKind:
        """The kind the queries act on, read off lambda_tilde."""
        lt = self.param.lambda_tilde
        return CurveKind.CIRCLE if lt == 0.0 else CurveKind.LINE if lt == math.inf else CurveKind.SPIRAL

    @property
    def rate(self) -> complex:
        """The exponent of the model curve exp(rate t) in standard
        position: lambda_tilde + 2 pi i, or 1 for the line shape, whose
        model is the positive real axis."""
        return complex(1.0, 0.0) if self.shape == CurveKind.LINE else self.param.rate

    @cached_property
    def _point_members(self) -> tuple[Cycle, Cycle]:
        """The point cycles of the pencil of (c2, c3)."""
        return zero_radius_members(self._c2, self._c3, self.tol)

    @cached_property
    def limit_points(self) -> tuple[ExtendedPoint, ExtendedPoint]:
        """The points of ``_point_members``: the asymptotic endpoints of
        the curve."""
        z1, z2 = self._point_members
        return point_of(z1, self.tol), point_of(z2, self.tol)

    def violations(self) -> list:
        """All invariant violations of the triple, empty when valid.

        After the checks of each cycle and of c1's orthogonality, the
        spanning pair is checked by kind: a circle needs nothing more, a
        line needs its point c3 off c2 (the pencil of a cycle and a point
        is disjoint exactly when the point misses the cycle), a spiral
        needs a hyperbolic pencil.  Then c1 must pass both point members.
        Every product is formed on the canonical cycles, so a triple given
        at a large scale is checked as at unit scale; a product that still
        overflows a float raises NumericalBreakdown.
        """
        c1, c2, c3, tol = self._c1, self._c2, self._c3, self.tol
        out = []
        (s1, n1), (s2, n2), (s3, n3) = self._n1, self._n2, self._n3
        if s1 <= tol.eps_product * n1:
            out.append(TripleViolation("first cycle must be a line or proper circle", s1))
        if s2 <= tol.eps_product * n2:
            out.append(TripleViolation("second cycle must be a line or proper circle", s2))
        if s3 < -tol.eps_product * n3:
            out.append(TripleViolation("third cycle has no real locus", s3))
        for name, C in (("second", c2), ("third", c3)):
            r = product(c1, C)
            if abs(r) > tol.eps_product * 4.0 * c1.scale() * C.scale():
                out.append(TripleViolation(f"first and {name} cycle are not orthogonal", abs(r)))

        if self.kind == CurveKind.CIRCLE:
            return out
        if self.kind == CurveKind.LINE and is_orthogonal(c2, c3, tol):
            return out + [TripleViolation("third (point) cycle lies on the second cycle")]
        if self.kind == CurveKind.SPIRAL:
            q, scale = pencil_discriminant(c2, c3, tol)
            if _pencil_kind(q, scale, tol) != PencilKind.HYPERBOLIC:
                return out + [TripleViolation("second and third cycle neither disjoint nor equal", q)]
        for z in self._point_members:
            r = product(c1, z)
            if abs(r) > tol.eps_product * 4.0 * c1.scale() * z.scale():
                out.append(TripleViolation("first cycle misses a limit point of the pencil", abs(r)))
        return out

    @cached_property
    def map(self) -> MoebiusMap:
        """The map to standard position.  The circle shape takes c2 to the
        unit circle.  Otherwise the limit points go to 0 and infinity and a
        crossing of c1 and c2 to 1; a spiral is oriented by chirality as
        ``standard_map`` states."""
        tol = self.tol
        if self.shape == CurveKind.CIRCLE:
            return _map_cycle_to_unit_circle(self.c2, tol)
        p, q = self.limit_points
        crossings = intersect(self.c1, self.c2, tol)
        if len(crossings) != 2:
            raise TripleViolation("first and second cycle must cross at two points")
        u = max(crossings, key=_point_sort_key)
        M = map_to_zero_one_inf(p, u, q, tol)
        if self.shape == CurveKind.SPIRAL:
            _, r3 = center_radius(canonicalize(apply_to_cycle(M, self.c3, tol), tol), tol)
            if (r3 > 1.0) != (self.sign > 0):
                M = map_to_zero_one_inf(q, u, p, tol)
        return M

    def _standard_point(self, p: ExtendedPoint) -> complex | None:
        """The image of p under ``map``; None for the point at infinity."""
        w = apply_to_point(self.map, p)
        return None if w.is_infinity else w.as_complex()

    def _velocity(self, p: ExtendedPoint) -> complex:
        """The curve's velocity at the curve point p: the model velocity
        ``rate * w`` at w = map(p), pushed through the inverse map.  It is
        read in the affine chart at a finite p and in the chart 1/z at
        infinity, there up to a sign that every curve shares.  Angles
        are conformal, so this one derivative serves every question of
        direction; a limit point has none and raises PointNotOnCurve."""
        w = self._standard_point(p)
        if w is None or w == 0:
            raise PointNotOnCurve("point maps to a limit point under the normal form")
        inv = self.map.inverse()
        denom = inv.a * w + inv.b if p.is_infinity else inv.c * w + inv.d
        return (inv.det / (denom * denom)) * (self.rate * w)


def _prepared(T: LoxodromeTriple, tol: Tolerances) -> Loxodrome:
    """The prepared form of T at tol, kept on T by the first query for the
    next ones; a query at other tolerances prepares T afresh."""
    lox = vars(T).get("_loxodrome")
    if lox is None or lox.tol != tol:
        lox = Loxodrome(T, tol)
        object.__setattr__(T, "_loxodrome", lox)
    return lox


def lambda_from_triple(T: LoxodromeTriple, tol: Tolerances = DEFAULT_TOLERANCES) -> SlsParameter:
    """Recover the spiral parameter (see ``Loxodrome.param``): coincident
    c2, c3 give the zero parameter, a point c3 the infinite one."""
    return _prepared(T, tol).param


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

def standard_map(T: LoxodromeTriple, tol: Tolerances = DEFAULT_TOLERANCES) -> MoebiusMap:
    """The Moebius map carrying a non-degenerate triple to standard position.

    The two point members of the pencil of (c2, c3) go to 0 and
    infinity, a deterministically chosen crossing of c1 and c2 goes
    to 1.  Which limit point becomes the origin is fixed by chirality:
    the image of c3 must have radius above 1 for sign +1 and below 1
    for sign -1.  Either crossing of c1 and c2 would do (the two
    choices differ by the branch swap); the tie-break picks the
    lexicographically larger point, infinity last.
    """
    lox = _prepared(T, tol)
    if lox.shape != CurveKind.SPIRAL:
        raise TripleViolation("normal form needs a distinct, non-point third cycle")
    return lox.map


def _map_cycle_to_unit_circle(C: Cycle, tol: Tolerances) -> MoebiusMap:
    kind = classify(C, tol)
    if kind == CycleKind.CIRCLE:
        c, r = center_radius(C, tol)
        return MoebiusMap(1.0, -c, 0.0, r).normalized()
    if kind == CycleKind.LINE:
        anchor, direction = _line_frame(C, tol)
        to_axis = MoebiusMap(1.0, -anchor, 0.0, direction)
        cayley = MoebiusMap(1.0, -1j, 1.0, 1j)
        return (cayley @ to_axis).normalized()
    raise TripleViolation("curve cycle is a point")


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

def _span_test(a: Cycle, b: Cycle, tol: Tolerances):
    """The test whether a canonical cycle X is within eps_product of the
    span of the canonical cycles a and b, relative to max(1, |X|).

    Least squares by two-pass Gram-Schmidt: b is orthogonalised against
    a twice, which leaves the basis orthonormal to roundoff, and the
    residual of X is formed as a vector, so its norm is accurate down to
    the roundoff of |X|.  A residual taken from |X|^2 minus the squared
    projections, or a Gram determinant, would square the threshold below
    double precision.  As with lstsq's default rcond, b is dropped when
    the smaller singular value of [a b] is at most 4 machine epsilons of
    the larger: their product is |a| |b'| for the orthogonal part b' of
    b, and their squares sum to |a|^2 + |b|^2.  The basis is built once
    and serves every X tested against it.
    """
    hypot = math.hypot
    na = hypot(a.k, a.l, a.n, a.m)
    q0, q1, q2, q3 = a.k / na, a.l / na, a.n / na, a.m / na
    u0, u1, u2, u3 = b.k, b.l, b.n, b.m
    for _ in range(2):
        d = q0 * u0 + q1 * u1 + q2 * u2 + q3 * u3
        u0, u1, u2, u3 = u0 - d * q0, u1 - d * q1, u2 - d * q2, u3 - d * q3
    nu = hypot(u0, u1, u2, u3)
    h = hypot(na, b.k, b.l, b.n, b.m)
    full_rank = (na / h) * (nu / h) > _LSTSQ_RCOND
    if full_rank:
        w0, w1, w2, w3 = u0 / nu, u1 / nu, u2 / nu, u3 / nu

    def holds(x: Cycle) -> bool:
        d = q0 * x.k + q1 * x.l + q2 * x.n + q3 * x.m
        r0, r1, r2, r3 = x.k - d * q0, x.l - d * q1, x.n - d * q2, x.m - d * q3
        if full_rank:
            d = w0 * r0 + w1 * r1 + w2 * r2 + w3 * r3
            r0, r1, r2, r3 = r0 - d * w0, r1 - d * w1, r2 - d * w2, r3 - d * w3
        residual = hypot(r0, r1, r2, r3)
        return residual <= tol.eps_product * max(1.0, hypot(x.k, x.l, x.n, x.m))

    return holds


def equivalent(T: LoxodromeTriple, Tp: LoxodromeTriple, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Do two non-degenerate triples parametrise the same curve?

    Checks, in order: equal chirality; mutual span membership of the
    hyperbolic pairs; equal recovered parameter; and the coupling
    congruence (hyperbolic shift over the parameter against the elliptic
    rotation in turns).  The congruence is decided on the second cycles.
    """
    lox, loxp = _prepared(T, tol), _prepared(Tp, tol)
    if lox.shape != CurveKind.SPIRAL or loxp.shape != CurveKind.SPIRAL:
        raise TripleViolation("equivalence needs non-degenerate triples")
    if T.sign != Tp.sign:
        return False
    a2, a3, b2, b3 = lox._c2, lox._c3, loxp._c2, loxp._c3
    in_a, in_b = _span_test(a2, a3, tol), _span_test(b2, b3, tol)
    if not (in_a(b2) and in_a(b3) and in_b(a2) and in_b(a3)):
        return False
    x, xp = lox._pair_product, loxp._pair_product
    if abs(x - xp) > tol.eps_product * max(1.0, x, xp):
        return False
    lam = abs(lox.param.lambda_tilde)
    rhs = clamped_acos(_cosine(lox._c1, loxp._c1, *lox._n1, *loxp._n1, tol)) / TWO_PI
    lhs = clamped_acosh(abs(_cosine(a2, b2, *lox._n2, *loxp._n2, tol))) / lam
    return congruent_mod(lhs, rhs, 0.5, tol) or congruent_mod(lhs, -rhs, 0.5, tol)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipReport:
    member: bool
    lhs: float | None = None
    rhs: float | None = None
    flags: tuple[str, ...] = ()

    def to_json(self):
        return dict(vars(self), flags=list(self.flags))


def _as_point(p) -> ExtendedPoint:
    if isinstance(p, ExtendedPoint):
        return p
    return ExtendedPoint.from_complex(complex(p))


def contains_point(T: LoxodromeTriple, p, tol: Tolerances = DEFAULT_TOLERANCES) -> MembershipReport:
    """Decide curve membership in standard position.

    For a spiral, w is the image of the point under the normalising map
    and the report carries the hyperbolic shift over the signed
    parameter, lhs = log|w| / lambda_tilde, and the elliptic rotation in
    turns, rhs = arg w / 2 pi; membership is their congruence modulo 1/2
    (the two branches differ by half a turn).  The map is oriented by
    the triple's chirality, so points of the mirror spiral are refused.

    The two asymptotic endpoints are not on the curve: those report
    False with a ``limit_point`` flag.  Degenerate triples dispatch to
    plain incidence with the curve cycle.
    """
    return _contains(_prepared(T, tol), _as_point(p))


def _contains(lox: Loxodrome, p: ExtendedPoint) -> MembershipReport:
    tol = lox.tol
    if lox.shape == CurveKind.CIRCLE:
        return MembershipReport(member=passes(lox.c2, p, tol))
    if any(p.approx_eq(z, tol) for z in lox.limit_points):
        return MembershipReport(False, flags=("limit_point",))
    if lox.shape == CurveKind.LINE:
        return MembershipReport(passes(lox.c1, p, tol), flags=("degenerate_arc_unchecked",))
    w = lox._standard_point(p)
    if w is None or w == 0:
        return MembershipReport(False, flags=("limit_point",))
    lhs = math.log(abs(w)) / lox.param.lambda_tilde
    rhs = cmath.phase(w) / TWO_PI
    return MembershipReport(congruent_mod(lhs, rhs, 0.5, tol), lhs, rhs)


def contains_point_oracle(T: LoxodromeTriple, p, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """``contains_point(T, p, tol).member``."""
    return _contains(_prepared(T, tol), _as_point(p)).member


# ---------------------------------------------------------------------------
# angles and tangency
# ---------------------------------------------------------------------------

def _fold_half_open(x: float) -> float:
    """Fold an angle modulo pi into (-pi/2, pi/2]."""
    r = math.remainder(x, math.pi)
    if r <= -math.pi / 2.0:
        r += math.pi
    return r


def _cycle_tangent_direction(C: Cycle, p: ExtendedPoint, tol: Tolerances) -> complex:
    """A tangent direction (either orientation) of a cycle at a point on
    it.  At infinity it is read in the chart 1/z, which takes C to
    (m, l, -n, k): its direction there is n + i l, the conjugate of a
    line's own direction up to sign."""
    if p.is_infinity:
        return complex(C.n, C.l)
    if classify(C, tol) == CycleKind.LINE:
        return complex(-C.n, C.l)
    c, _ = center_radius(C, tol)
    return 1j * (p.as_complex() - c)


def _require_on_curves(p: ExtendedPoint, *curves: Loxodrome) -> None:
    """Refuse a point that misses one of the curves."""
    if not all(_contains(lox, p).member for lox in curves):
        where = "both curves" if len(curves) > 1 else "the curve"
        raise PointNotOnCurve(f"point {p.format()} is not on {where}")


def intersection_angle(T: LoxodromeTriple, Tp: LoxodromeTriple, p, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Crossing angle of two curves at a common point: the phase of the
    ratio of their velocities there (``Loxodrome._velocity``), folded
    modulo pi into (-pi/2, pi/2].  It is read off v * conj(v'), which is
    exactly real for v' = v, where the quotient v / v need not be 1."""
    p = _as_point(p)
    lox, loxp = _prepared(T, tol), _prepared(Tp, tol)
    _require_on_curves(p, lox, loxp)
    return _fold_half_open(cmath.phase(lox._velocity(p) * loxp._velocity(p).conjugate()))


def tangent_check(T: LoxodromeTriple, C: Cycle, p, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Is the cycle tangent to the curve at the given curve point?

    Two conditions: the cycle passes the point, and its direction there
    is parallel to the curve's velocity within eps_angle."""
    if classify(C, tol) == CycleKind.POINT:
        raise InvalidInput("tangency candidate must not be a point cycle")
    p = _as_point(p)
    lox = _prepared(T, tol)
    _require_on_curves(p, lox)
    if not passes(C, p, tol):
        return False
    turn = cmath.phase(_cycle_tangent_direction(C, p, tol) / lox._velocity(p))
    return abs(math.remainder(turn, math.pi)) <= tol.eps_angle


def tangent_line_at(T: LoxodromeTriple, p, tol: Tolerances = DEFAULT_TOLERANCES) -> Cycle:
    """Tangent line of the curve at a finite curve point, along the
    curve's velocity there."""
    p = _as_point(p)
    if p.is_infinity:
        raise InvalidInput("tangent line is constructed at finite points only")
    lox = _prepared(T, tol)
    _require_on_curves(p, lox)
    direction = lox._velocity(p)
    speed = abs(direction)
    if speed == 0 or not math.isfinite(speed):
        raise PointNotOnCurve("curve direction is undefined at this point")
    direction /= speed
    return from_line(p.as_complex(), p.as_complex() + direction, tol)


# ---------------------------------------------------------------------------
# sampling and transport
# ---------------------------------------------------------------------------

def _curve_points(
    lox: Loxodrome, t_min: float, t_max: float, count: int, sign: float
) -> list[complex | None]:
    """One branch of the curve on a uniform parameter grid, as bare
    complex numbers; None is the point at infinity.

    Each model point ``sign * exp(rate t)`` is sent back by
    ``(a w + b) / (c w + d)`` with the rules of ``ExtendedPoint``: a
    model point beyond the coordinate cap is infinity before the map, so
    its image is a / c; an image beyond the cap is infinity; a
    non-finite component raises InvalidInput.  An exponential that
    overflows gives infinity as the image itself; an angle that
    overflows raises InvalidInput.
    """
    rate = lox.rate
    back = lox.map.inverse()
    # the products apply_to_point forms on (z : 1) and on (1 : 0), so the
    # images equal ExtendedPoint arithmetic bit for bit, signed zeros too
    one, zero = complex(1.0), complex(0.0)
    a, c = back.a, back.c
    b, d = back.b * one, back.d * one
    far = _affine(a * one + back.b * zero, c * one + back.d * zero)
    step = (t_max - t_min) / (count - 1)
    out: list[complex | None] = []
    for i in range(count):
        try:
            w = sign * cmath.exp(rate * (t_min + step * i))
        except OverflowError:
            out.append(None)
            continue
        except ValueError:  # rate * t overflowed into an infinite angle
            raise InvalidInput(
                f"curve point at t={t_min + step * i!r} is undefined: rate * t is not finite"
            ) from None
        z = _affine(w, one)
        out.append(far if z is None else _affine(a * z + b, c * z + d))
    return out


def _check_grid(t_min: float, t_max: float, count: int) -> None:
    """Refuse a parameter grid whose bounds or step are not finite: its
    points would be NaN or infinity, and no error would name the cause."""
    for name, t in (("t_min", t_min), ("t_max", t_max)):
        if not math.isfinite(t):
            raise InvalidInput(f"{name} must be finite, got {t!r}")
    if not math.isfinite((t_max - t_min) / _float(count - 1, "sample count")):
        raise InvalidInput(
            f"t_min={t_min!r} to t_max={t_max!r} is too wide: the grid step is not finite"
        )


def sample_curve(
    T: LoxodromeTriple,
    t_min: float,
    t_max: float,
    count: int,
    branch: str = "+",
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[ExtendedPoint]:
    """Curve points on a uniform parameter grid, per branch.

    Points that leave the finite plane come back as the infinity point,
    which doubles as the break marker for polyline rendering.  For the
    line-degenerate curve the real exponential at unit rate is used as
    the model parametrisation.
    """
    if count < 2:
        raise InvalidInput(f"need at least two samples, got {count!r}")
    _check_grid(t_min, t_max, count)
    if not t_max >= t_min:
        raise InvalidInput("empty parameter range")
    signs = {"+": (1.0,), "-": (-1.0,), "both": (1.0, -1.0)}.get(branch)
    if signs is None:
        raise InvalidInput(f"branch must be '+', '-' or 'both', got {branch!r}")
    lox = _prepared(T, tol)
    return [
        ExtendedPoint._from_affine(z)
        for sgn in signs
        for z in _curve_points(lox, t_min, t_max, count, sgn)
    ]


def apply_map(
    M: MoebiusMap, T: LoxodromeTriple, tol: Tolerances = DEFAULT_TOLERANCES
) -> LoxodromeTriple:
    """Transport a triple by a Moebius map; chirality is preserved and the
    image is re-validated."""
    return validate_triple(
        apply_to_cycle(M, T.c1, tol),
        apply_to_cycle(M, T.c2, tol),
        apply_to_cycle(M, T.c3, tol),
        T.sign,
        tol,
    )
