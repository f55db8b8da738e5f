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

All congruence tests here work modulo 1/2 with a sign fold.  Cycles are
projective, so normalised products carry a residual +- ambiguity, lines
are undirected, and the model curve has two branches; folding makes the
checks well defined on exactly the data a triple carries.  A strict
modulo-1 variant is available for comparison via ``strict_mod1``.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .cycles import (
    Cycle,
    CycleKind,
    ExtendedPoint,
    MoebiusMap,
    _affine,
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
    normalized_product,
    passes,
    pencil_discriminant,
    point_of,
    product,
    projectively_equal,
    self_product,
    zero_radius_at,
)
from .errors import (
    C1NotInOrthogonalPencil,
    DegenerateTriple,
    InvalidInput,
    NotDisjoint,
    NotFinite,
    NotOrthogonal,
    PointNotOnBoth,
    PointNotOnCurve,
    RankDeficient,
    ZeroRadiusCandidate,
    ZeroRadiusOperand,
)
from .numerics import (
    DEFAULT_TOLERANCES,
    Tolerances,
    clamped_acos,
    clamped_acosh,
    congruent_mod,
)
from .pencils import (
    Pencil,
    member_through,
    orthogonal_cycle_through,
    zero_radius_members,
)

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

class SlsKind(Enum):
    FINITE = "finite"
    INFINITE = "infinite"
    POINT = "point"


class SlsClass(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class SlsParameter:
    """Extended real parameter of a spiral: finite value, infinity, or the
    fully degenerate point case."""

    kind: SlsKind
    lambda_tilde: float = 0.0

    def __post_init__(self):
        if self.kind != SlsKind.FINITE and self.lambda_tilde != 0.0:
            raise InvalidInput("only the finite kind carries a value")
        if not math.isfinite(self.lambda_tilde):
            raise InvalidInput("finite parameter must be a finite float")

    @classmethod
    def finite(cls, lambda_tilde: float) -> "SlsParameter":
        return cls(SlsKind.FINITE, float(lambda_tilde))

    @classmethod
    def infinite(cls) -> "SlsParameter":
        return cls(SlsKind.INFINITE)

    @classmethod
    def point(cls) -> "SlsParameter":
        return cls(SlsKind.POINT)

    @property
    def rate(self) -> complex:
        """Normalised complex exponent lambda_tilde + 2 pi i."""
        if self.kind != SlsKind.FINITE:
            raise NotFinite(f"{self.kind.value} parameter has no finite exponent")
        return complex(self.lambda_tilde, TWO_PI)

    @property
    def a(self) -> float:
        """Modulus gained per full turn: exp(lambda_tilde), or infinity."""
        if self.kind == SlsKind.INFINITE:
            return math.inf
        if self.kind == SlsKind.POINT:
            raise NotFinite("the point case has no turn modulus")
        return math.exp(self.lambda_tilde)


def classify_sls(lam: complex) -> SlsClass:
    """Sign of Re(lambda) * Im(lambda): positive spirals unwind
    counterclockwise, negative clockwise, zero product degenerates."""
    p = complex(lam).real * complex(lam).imag
    if p > 0:
        return SlsClass.POSITIVE
    if p < 0:
        return SlsClass.NEGATIVE
    return SlsClass.DEGENERATE


def lambda_tilde(lam: complex) -> SlsParameter:
    """Reduce a complex exponent to the conformal invariant 2 pi Re/Im."""
    lam = complex(lam)
    if lam.imag != 0:
        return SlsParameter.finite(TWO_PI * lam.real / lam.imag)
    if lam.real != 0:
        return SlsParameter.infinite()
    return SlsParameter.point()


def diagonal_flow(lam: complex, t: float, branch: int = 1) -> MoebiusMap:
    """diag(branch * exp(lam t / 2), exp(-lam t / 2)); acts on points as
    z -> branch * exp(lam t) z."""
    if branch not in (1, -1):
        raise InvalidInput("branch must be +1 or -1")
    lam = complex(lam)
    return MoebiusMap(
        branch * cmath.exp(lam * t / 2.0), 0.0, 0.0, cmath.exp(-lam * t / 2.0)
    )


def sample_sls(param: SlsParameter, t: float) -> tuple[ExtendedPoint, ExtendedPoint]:
    """Both branch points {+exp(lambda t), -exp(lambda t)} of the model curve."""
    w = cmath.exp(param.rate * t)
    return ExtendedPoint.from_complex(w), ExtendedPoint.from_complex(-w)


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

    @classmethod
    def from_json(cls, data) -> "LoxodromeTriple":
        if not isinstance(data, dict):
            raise InvalidInput("triple JSON must be an object")
        try:
            return cls(
                Cycle.from_json(data["c1"]),
                Cycle.from_json(data["c2"]),
                Cycle.from_json(data["c3"]),
                data.get("sign", 1),
            )
        except KeyError as exc:
            raise InvalidInput(f"triple JSON missing field {exc}") from exc


def standard_triple(param: SlsParameter) -> LoxodromeTriple:
    """Standard-position triple: real axis, unit circle, and the circle of
    radius exp(lambda_tilde).

    Degenerate cases: a zero parameter duplicates the unit circle, the
    infinite parameter uses the point cycle at infinity as third member.
    """
    if param.kind == SlsKind.POINT:
        raise DegenerateTriple("the single-point curve has no three-cycle form")
    if param.kind == SlsKind.INFINITE:
        return LoxodromeTriple(_REAL_AXIS, _UNIT_CIRCLE, Cycle(0.0, 0.0, 0.0, 1.0), 1)
    lt = param.lambda_tilde
    if lt == 0.0:
        return LoxodromeTriple(_REAL_AXIS, _UNIT_CIRCLE, _UNIT_CIRCLE, 1)
    c3 = Cycle(1.0, 0.0, 0.0, -math.exp(2.0 * lt))
    return LoxodromeTriple(_REAL_AXIS, _UNIT_CIRCLE, c3, 1 if lt > 0 else -1)


def triple_violations(
    c1: Cycle,
    c2: Cycle,
    c3: Cycle,
    sign: int = 1,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list:
    """All invariant violations of a candidate triple, empty when valid."""
    out = []
    s1 = self_product(c1)
    if s1 <= tol.eps_product * c1.scale() ** 2:
        out.append(
            C1NotInOrthogonalPencil("first cycle must be a line or proper circle", s1)
        )
    s2 = self_product(c2)
    if s2 <= tol.eps_product * c2.scale() ** 2:
        out.append(NotDisjoint("second cycle must be a line or proper circle", s2))
    s3 = self_product(c3)
    if s3 < -tol.eps_product * c3.scale() ** 2:
        out.append(NotDisjoint("third cycle has no real locus", s3))

    r12 = product(c1, c2)
    if abs(r12) > tol.eps_product * 4.0 * c1.scale() * c2.scale():
        out.append(
            NotOrthogonal("first and second cycle are not orthogonal", abs(r12))
        )
    r13 = product(c1, c3)
    if abs(r13) > tol.eps_product * 4.0 * c1.scale() * c3.scale():
        out.append(
            NotOrthogonal("first and third cycle are not orthogonal", abs(r13))
        )

    coincident = projectively_equal(c2, c3, tol)
    pencil_ok = coincident
    if not coincident:
        if classify(c3, tol) == CycleKind.POINT:
            # degenerate extension: the pencil of a cycle and an off-cycle
            # point is disjoint exactly when the point misses the cycle
            if is_orthogonal(c2, c3, tol):
                out.append(
                    NotDisjoint("third (point) cycle lies on the second cycle")
                )
            else:
                pencil_ok = True
        else:
            q, qs = pencil_discriminant(c2, c3, tol)
            if q <= tol.eps_product * qs:
                out.append(
                    NotDisjoint("second and third cycle neither disjoint nor equal", q)
                )
            else:
                pencil_ok = True
    if pencil_ok and not coincident:
        z1, z2 = zero_radius_members(Pencil(c2, c3), tol)
        for z in (z1, z2):
            r = product(c1, z)
            if abs(r) > tol.eps_product * 4.0 * c1.scale() * z.scale():
                out.append(
                    C1NotInOrthogonalPencil(
                        "first cycle misses a limit point of the pencil", abs(r)
                    )
                )
    return out


def validate_triple(
    c1: Cycle,
    c2: Cycle,
    c3: Cycle,
    sign: int = 1,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> LoxodromeTriple:
    """Checked triple; raises the first invariant violation otherwise."""
    if sign not in (1, -1):
        raise InvalidInput(f"sign must be +1 or -1, got {sign!r}")
    violations = triple_violations(c1, c2, c3, sign, tol)
    if violations:
        raise violations[0]
    return LoxodromeTriple(c1, c2, c3, sign)


# ---------------------------------------------------------------------------
# the prepared form
# ---------------------------------------------------------------------------

class CurveKind(Enum):
    """What the spanning pair (c2, c3) makes of the curve."""

    SPIRAL = "spiral"  # disjoint pair: finite nonzero parameter
    CIRCLE = "circle"  # coincident pair: zero parameter, the curve is c2
    LINE = "line"  # point c3: infinite parameter, the curve is an arc of c1


class Loxodrome:
    """A triple prepared once for every query of one call.

    ``kind`` is read off the cycles at construction.  The spiral
    parameter, the two limit points and the normalising map are derived
    on first use, each at most once, so a query pays only for what it
    reads.  Every public function of this module builds one from its
    triple and hands it to its helpers.
    """

    def __init__(self, triple: LoxodromeTriple, tol: Tolerances = DEFAULT_TOLERANCES):
        self.triple = triple
        self.tol = tol
        if projectively_equal(triple.c2, triple.c3, tol):
            self.kind = CurveKind.CIRCLE
        elif classify(triple.c3, tol) == CycleKind.POINT:
            self.kind = CurveKind.LINE
        else:
            self.kind = CurveKind.SPIRAL

    @classmethod
    def from_triple(
        cls, T: LoxodromeTriple, tol: Tolerances = DEFAULT_TOLERANCES
    ) -> "Loxodrome":
        return cls(T, tol)

    def to_triple(self, tol: Tolerances = DEFAULT_TOLERANCES) -> LoxodromeTriple:
        return apply_map(self.map.inverse(), standard_triple(self.param), tol)

    @cached_property
    def param(self) -> SlsParameter:
        """acosh of the normalised product of the spanning pair, signed by
        the triple's chirality.

        The absolute value of the product is taken first: the canonical
        representatives of a disjoint pair may pair negatively.
        """
        if self.kind == CurveKind.CIRCLE:
            return SlsParameter.finite(0.0)
        if self.kind == CurveKind.LINE:
            return SlsParameter.infinite()
        T = self.triple
        x = abs(normalized_product(T.c2, T.c3, self.tol))
        return SlsParameter.finite(T.sign * clamped_acosh(x, self.tol))

    @cached_property
    def shape(self) -> CurveKind:
        """The kind the queries act on: a spanning pair whose parameter
        rounds to zero is taken as the circle c2."""
        if self.kind == CurveKind.SPIRAL and self.param.lambda_tilde == 0.0:
            return CurveKind.CIRCLE
        return self.kind

    @property
    def crossing_angle(self) -> float:
        """The fixed angle arctan(lambda_tilde / 2 pi) at which the curve
        crosses every cycle of its disjoint pencil."""
        lam = math.inf if self.shape == CurveKind.LINE else self.param.lambda_tilde
        return math.atan(lam / TWO_PI)

    @cached_property
    def limit_points(self) -> tuple[ExtendedPoint, ExtendedPoint]:
        """The point members of the pencil of (c2, c3): the asymptotic
        endpoints of the curve."""
        z1, z2 = zero_radius_members(Pencil(self.triple.c2, self.triple.c3), self.tol)
        return point_of(z1, self.tol), point_of(z2, self.tol)

    @cached_property
    def map(self) -> MoebiusMap:
        """The map to standard position, covering the degenerate kinds too."""
        if self.shape == CurveKind.CIRCLE:
            return _map_cycle_to_unit_circle(self.triple.c2, self.tol)
        return self._three_point_map

    @cached_property
    def _three_point_map(self) -> MoebiusMap:
        """Limit points to 0 and infinity, a crossing of c1 and c2 to 1;
        for a spiral, oriented by chirality as ``standard_map`` states."""
        T, tol = self.triple, self.tol
        p, q = self.limit_points
        crossings = intersect(T.c1, T.c2, tol)
        if len(crossings) != 2:
            raise DegenerateTriple("first and second cycle must cross at two points")
        u = max(crossings, key=_point_sort_key)
        M = map_to_zero_one_inf(p, u, q, tol)
        if self.kind == CurveKind.SPIRAL:
            img3 = canonicalize(apply_to_cycle(M, T.c3, tol), tol)
            _, r3 = center_radius(img3, tol)
            if (r3 > 1.0) != (T.sign > 0):
                M = map_to_zero_one_inf(q, u, p, tol)
        return M

    def member_at(self, p: ExtendedPoint) -> Cycle:
        """The cycle of the disjoint pencil through a curve point."""
        if self.shape == CurveKind.CIRCLE:
            return canonicalize(self.triple.c2, self.tol)
        T, tol = self.triple, self.tol
        ch, _ = member_through(T.c2, T.c3, zero_radius_at(p), tol)
        if classify(ch, tol) == CycleKind.POINT:
            raise PointNotOnCurve("pencil member degenerates at a limit point")
        return ch


def lambda_from_triple(
    T: LoxodromeTriple, tol: Tolerances = DEFAULT_TOLERANCES
) -> SlsParameter:
    """Recover the spiral parameter (see ``Loxodrome.param``): coincident
    c2, c3 give the zero parameter, a point c3 the infinite one."""
    return Loxodrome(T, tol).param


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
    lox = Loxodrome(T, tol)
    if lox.kind != CurveKind.SPIRAL:
        raise DegenerateTriple("normal form needs a distinct, non-point third cycle")
    return lox._three_point_map


def _map_cycle_to_unit_circle(C: Cycle, tol: Tolerances) -> MoebiusMap:
    kind = classify(C, tol)
    if kind == CycleKind.CIRCLE:
        c, r = center_radius(C, tol)
        return MoebiusMap(1.0, -c, 0.0, r).normalized()
    if kind == CycleKind.LINE:
        line = canonicalize(C, tol)
        normal = complex(line.l, line.n)
        anchor = (line.m / 2.0) * normal
        direction = 1j * normal
        to_axis = MoebiusMap(1.0, -anchor, 0.0, direction)
        cayley = MoebiusMap(1.0, -1j, 1.0, 1j)
        return (cayley @ to_axis).normalized()
    raise DegenerateTriple("curve cycle is a point")


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

def _in_span(A: Cycle, B: Cycle, X: Cycle, tol: Tolerances) -> bool:
    """Is the canonical X within eps_product of the span of canonical A
    and B, relative to max(1, |X|)?

    Least squares by two-pass Gram-Schmidt: B is orthogonalised against
    A twice, which leaves the basis orthonormal to roundoff, and the
    residual of X is formed as a vector, so its norm is accurate down to
    the roundoff of |X|.  A residual taken from |X|^2 minus the squared
    projections, or a Gram determinant, would square the threshold below
    double precision.  As with lstsq's default rcond, B is dropped when
    the smaller singular value of [A B] is at most 4 machine epsilons of
    the larger: their product is |A| |B'| for the orthogonal part B' of
    B, and their squares sum to |A|^2 + |B|^2.
    """
    a, b, x = canonicalize(A, tol), canonicalize(B, tol), canonicalize(X, tol)
    hypot = math.hypot
    na = hypot(a.k, a.l, a.n, a.m)
    q0, q1, q2, q3 = a.k / na, a.l / na, a.n / na, a.m / na
    u0, u1, u2, u3 = b.k, b.l, b.n, b.m
    for _ in range(2):
        d = q0 * u0 + q1 * u1 + q2 * u2 + q3 * u3
        u0, u1, u2, u3 = u0 - d * q0, u1 - d * q1, u2 - d * q2, u3 - d * q3
    nu = hypot(u0, u1, u2, u3)
    d = q0 * x.k + q1 * x.l + q2 * x.n + q3 * x.m
    r0, r1, r2, r3 = x.k - d * q0, x.l - d * q1, x.n - d * q2, x.m - d * q3
    h = hypot(na, b.k, b.l, b.n, b.m)
    if (na / h) * (nu / h) > _LSTSQ_RCOND:
        w0, w1, w2, w3 = u0 / nu, u1 / nu, u2 / nu, u3 / nu
        d = w0 * r0 + w1 * r1 + w2 * r2 + w3 * r3
        r0, r1, r2, r3 = r0 - d * w0, r1 - d * w1, r2 - d * w2, r3 - d * w3
    residual = hypot(r0, r1, r2, r3)
    return residual <= tol.eps_product * max(1.0, hypot(x.k, x.l, x.n, x.m))


def _congruent_folded(
    lhs: float, rhs: float, strict_mod1: bool, tol: Tolerances
) -> bool:
    if strict_mod1:
        return congruent_mod(lhs, rhs, 1.0, tol)
    return congruent_mod(lhs, rhs, 0.5, tol) or congruent_mod(lhs, -rhs, 0.5, tol)


def equivalent(
    T: LoxodromeTriple,
    Tp: LoxodromeTriple,
    tol: Tolerances = DEFAULT_TOLERANCES,
    strict_mod1: bool = False,
) -> bool:
    """Do two non-degenerate triples parametrise the same curve?

    Checks, in order: equal chirality; mutual span membership of the
    hyperbolic pairs; equal recovered parameter; and the coupling
    congruence (hyperbolic shift over the parameter against the elliptic
    rotation in turns).  The congruence is decided on the second cycles
    and cross-checked on the third, warning on disagreement.
    """
    for X in (T, Tp):
        if Loxodrome(X, tol).kind != CurveKind.SPIRAL:
            raise DegenerateTriple("equivalence needs non-degenerate triples")
    if T.sign != Tp.sign:
        return False
    if not (
        _in_span(T.c2, T.c3, Tp.c2, tol)
        and _in_span(T.c2, T.c3, Tp.c3, tol)
        and _in_span(Tp.c2, Tp.c3, T.c2, tol)
        and _in_span(Tp.c2, Tp.c3, T.c3, tol)
    ):
        return False
    x = abs(normalized_product(T.c2, T.c3, tol))
    xp = abs(normalized_product(Tp.c2, Tp.c3, tol))
    if abs(x - xp) > tol.eps_product * max(1.0, x, xp):
        return False
    lam = clamped_acosh(x, tol)
    rhs = clamped_acos(normalized_product(T.c1, Tp.c1, tol), tol) / TWO_PI
    lhs2 = clamped_acosh(abs(normalized_product(T.c2, Tp.c2, tol)), tol) / lam
    ok2 = _congruent_folded(lhs2, rhs, strict_mod1, tol)
    lhs3 = clamped_acosh(abs(normalized_product(T.c3, Tp.c3, tol)), tol) / lam
    ok3 = _congruent_folded(lhs3, rhs, strict_mod1, tol)
    if ok2 != ok3:
        warnings.warn(
            "coupling congruence disagrees between second and third cycles",
            RuntimeWarning,
            stacklevel=2,
        )
    return ok2


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipReport:
    member: bool
    t_coeff: float | None = None
    lhs: float | None = None
    rhs: float | None = None
    flags: tuple[str, ...] = ()
    ch: Cycle | None = None
    ce: Cycle | None = None

    def to_json(self):
        return {
            "member": self.member,
            "t_coeff": self.t_coeff,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "flags": list(self.flags),
        }


def _as_point(p) -> ExtendedPoint:
    if isinstance(p, ExtendedPoint):
        return p
    return ExtendedPoint.from_complex(complex(p))


def contains_point(
    T: LoxodromeTriple,
    p,
    tol: Tolerances = DEFAULT_TOLERANCES,
    strict_mod1: bool = False,
) -> MembershipReport:
    """Decide curve membership from pencil data alone.

    For the generic case the report carries the pencil member through
    the point (ch), the orthogonal cycle through it (ce), the hyperbolic
    shift over the parameter (lhs) and the elliptic rotation in turns
    (rhs); membership is their congruence modulo 1/2 with sign fold
    (modulo 1 without fold under ``strict_mod1``).

    The two asymptotic endpoints are not on the curve: those report
    False with a ``limit_point`` flag.  Degenerate triples dispatch to
    plain incidence with the curve cycle.
    """
    p = _as_point(p)
    return _contains(Loxodrome(T, tol), p, strict_mod1)


def _contains(
    lox: Loxodrome, p: ExtendedPoint, strict_mod1: bool = False
) -> MembershipReport:
    T, tol = lox.triple, lox.tol
    flags = ("strict_mod1",) if strict_mod1 else ()
    if lox.shape == CurveKind.CIRCLE:
        return MembershipReport(member=passes(T.c2, p, tol), flags=flags)
    if any(p.approx_eq(z, tol) for z in lox.limit_points):
        return MembershipReport(False, flags=flags + ("limit_point",))
    if lox.shape == CurveKind.LINE:
        return MembershipReport(
            member=passes(T.c1, p, tol), flags=flags + ("degenerate_arc_unchecked",)
        )

    c0 = zero_radius_at(p)
    ch, t = member_through(T.c2, T.c3, c0, tol)
    if t is None:
        flags = flags + ("radical_member",)
    if classify(ch, tol) == CycleKind.POINT:
        return MembershipReport(False, t, flags=flags + ("limit_point",), ch=ch)
    try:
        ce = orthogonal_cycle_through(T.c2, T.c3, c0, tol)
        lam = abs(lox.param.lambda_tilde)
        lhs = clamped_acosh(abs(normalized_product(ch, T.c2, tol)), tol) / lam
        rhs = clamped_acos(normalized_product(ce, T.c1, tol), tol) / TWO_PI
    except (RankDeficient, ZeroRadiusOperand):
        return MembershipReport(False, t, flags=flags + ("limit_point",), ch=ch)
    member = _congruent_folded(lhs, rhs, strict_mod1, tol)
    return MembershipReport(member, t, lhs, rhs, flags, ch, ce)


def contains_point_oracle(
    T: LoxodromeTriple, p, tol: Tolerances = DEFAULT_TOLERANCES
) -> bool:
    """Ground truth by normalising: map the point to standard position and
    test it against the model curve directly.

    In standard position a point w is on the curve when its log modulus
    over the parameter agrees with its argument in turns modulo 1/2
    (the two branches differ by half a turn)."""
    p = _as_point(p)
    lox = Loxodrome(T, tol)
    w = apply_to_point(lox.map, p)
    if w.is_infinity:
        return False
    z = w.as_complex()
    if z == 0:
        return False
    if lox.shape == CurveKind.CIRCLE:
        return abs(math.log(abs(z))) <= tol.eps_mod
    if lox.shape == CurveKind.LINE:
        return abs(math.remainder(cmath.phase(z), math.pi)) <= TWO_PI * tol.eps_mod
    rho = math.log(abs(z)) / lox.param.lambda_tilde
    phi = cmath.phase(z) / TWO_PI
    return congruent_mod(rho, phi, 0.5, tol)


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
    """A tangent direction (either orientation) of a cycle at a finite
    point on it."""
    if classify(C, tol) == CycleKind.LINE:
        return complex(-C.n, C.l)
    c, _ = center_radius(C, tol)
    return 1j * (p.as_complex() - c)


def intersection_angle(
    T: LoxodromeTriple,
    Tp: LoxodromeTriple,
    p,
    tol: Tolerances = DEFAULT_TOLERANCES,
    check_membership: bool = True,
) -> float:
    """Crossing angle of two curves at a common point.

    The angle between the pencil members through the point, corrected by
    each curve's fixed crossing angle arctan(lambda_tilde / 2 pi)
    against its own pencil; folded modulo pi into (-pi/2, pi/2].

    The cycle-cycle term is the arc cosine of the members' normalised
    product with its branch pinned by their tangent directions at the
    point; the cosine alone cannot separate an angle from its
    supplement once representatives are canonicalised.
    """
    p = _as_point(p)
    lox, loxp = Loxodrome(T, tol), Loxodrome(Tp, tol)
    if check_membership:
        if not (_contains(lox, p).member and _contains(loxp, p).member):
            raise PointNotOnBoth(f"point {p.format()} is not on both curves")
    if p.is_infinity:
        # angles are preserved by conformal maps: move the point into view
        swap = MoebiusMap(0.0, 1.0, 1.0, 0.0)
        return intersection_angle(
            apply_map(swap, T, tol),
            apply_map(swap, Tp, tol),
            apply_to_point(swap, p),
            tol,
            check_membership=False,
        )
    ch = lox.member_at(p)
    chp = loxp.member_at(p)
    psi = cmath.phase(
        _cycle_tangent_direction(chp, p, tol) / _cycle_tangent_direction(ch, p, tol)
    )
    ang = -psi
    ang -= lox.crossing_angle
    ang += loxp.crossing_angle
    return _fold_half_open(ang)


def tangent_check(
    T: LoxodromeTriple, C: Cycle, p, tol: Tolerances = DEFAULT_TOLERANCES
) -> bool:
    """Is the cycle tangent to the curve at the given curve point?

    Two conditions: the cycle passes the point, and its crossing angle
    with the pencil member through the point equals the curve's fixed
    angle arctan(lambda_tilde / 2 pi) (both sign-folded)."""
    if classify(C, tol) == CycleKind.POINT:
        raise ZeroRadiusCandidate("tangency candidate must not be a point cycle")
    p = _as_point(p)
    lox = Loxodrome(T, tol)
    if not _contains(lox, p).member:
        raise PointNotOnCurve(f"point {p.format()} is not on the curve")
    if not passes(C, p, tol):
        return False
    ch = lox.member_at(p)
    crossing = abs(
        math.remainder(clamped_acos(normalized_product(C, ch, tol), tol), math.pi)
    )
    target = abs(lox.crossing_angle)
    return abs(crossing - target) <= tol.eps_angle


def _tangent_of_cycle_at(C: Cycle, p: ExtendedPoint, tol: Tolerances) -> Cycle:
    if not passes(C, p, tol):
        raise PointNotOnCurve("cycle does not pass the point")
    if classify(C, tol) == CycleKind.LINE:
        return canonicalize(C, tol)
    c, _ = center_radius(C, tol)
    u = p.as_complex() - c
    u /= abs(u)
    return from_line(p.as_complex(), p.as_complex() + 1j * u, tol)


def tangent_line_at(
    T: LoxodromeTriple, p, tol: Tolerances = DEFAULT_TOLERANCES
) -> Cycle:
    """Tangent line of the curve at a finite curve point, from the exact
    derivative of the normalised parametrisation."""
    p = _as_point(p)
    if p.is_infinity:
        raise InvalidInput("tangent line is constructed at finite points only")
    lox = Loxodrome(T, tol)
    if not _contains(lox, p).member:
        raise PointNotOnCurve(f"point {p.format()} is not on the curve")
    if lox.shape != CurveKind.SPIRAL:  # the curve lies on c1 (line) or c2 (circle)
        C = T.c1 if lox.shape == CurveKind.LINE else T.c2
        return _tangent_of_cycle_at(C, p, tol)
    M = lox.map
    w = apply_to_point(M, p)
    if w.is_infinity:
        raise PointNotOnCurve("point maps to infinity under the normal form")
    z = w.as_complex()
    inv = M.inverse()
    denom = inv.c * z + inv.d
    velocity = (inv.det / (denom * denom)) * (lox.param.rate * z)
    speed = abs(velocity)
    if speed == 0 or not math.isfinite(speed):
        raise PointNotOnCurve("curve direction is undefined at this point")
    velocity /= speed
    return from_line(p.as_complex(), p.as_complex() + velocity, tol)


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
    rate = complex(1.0, 0.0) if lox.shape == CurveKind.LINE else lox.param.rate
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
    if not math.isfinite((t_max - t_min) / (count - 1)):
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
    lox = Loxodrome(T, tol)
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
