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
pencil and sit one full turn apart on the curve.  Their pencil's
products recover ``|lambda_tilde|`` = asinh sqrt(disc / (<c2,c2><c3,c3>))
for disc = <c2,c3>^2 - <c2,c2><c3,c3>, with no cancellation; the sign
cannot be read off the cycles (mirror spirals share them), so the triple
carries it explicitly.

A point is on the curve when the hyperbolic shift over ``lambda_tilde``
agrees with the elliptic rotation in turns.  Membership reads both in
standard position, where they are log|w| / lambda_tilde and arg w / 2 pi,
and compares them modulo 1/2: the model curve has two branches.  Angles
and tangency read the curve's velocity there, pushed back through the
map.  Equivalence is read there too: triples of equal sign, parameter
and limit points draw the same curve exactly when a crossing of the
second's c1 and c2 lies on the first's curve.

``Loxodrome`` is the prepared form of a triple and the one place that
holds what is derived from it: the products of the pencil of (c2, c3),
its shape, lambda_tilde (0 for a circle, inf for a line), the limit
points and the normalising map.  The first query on a triple checks it
and keeps the form on it; later ones pay only their per-point work.
``apply_map`` only moves the cycles: the image's first query checks it.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from enum import Enum

from .cycles import (
    _COORD_CAP,
    Cycle,
    CycleKind,
    ExtendedPoint,
    MoebiusMap,
    PencilKind,
    _accurate_product,
    _act,
    _affine,
    _binary_scaled,
    _cycle_action,
    _locus,
    _orthogonality_residual,
    _pencil,
    _pencil_kind,
    _root_pairing,
    classify,
    from_line,
    passes,
    point_of,
    product,
)
from .errors import InvalidInput, NumericalBreakdown, PointNotOnCurve, TripleViolation
from .numerics import (
    DEFAULT_TOLERANCES,
    Tolerances,
    congruent_mod,
    _complex,
    _finite,
    _index,
    _quote,
    _Value,
)

TWO_PI = 2.0 * math.pi

_REAL_AXIS = Cycle(0.0, 0.0, 1.0, 0.0)
_UNIT_CIRCLE = Cycle(1.0, 0.0, 0.0, -1.0)

#: Branch-swapping reflection z -> -1/z; together with the diagonal flow
#: it generates the stabiliser of the model curve.
BRANCH_SWAP = MoebiusMap(0.0, -1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# the spiral parameter
# ---------------------------------------------------------------------------

class SlsParameter(_Value, namedtuple("SlsParameter", "lambda_tilde")):
    """Extended real parameter of a spiral: a float, with 0 for the circle
    degeneration, or ``math.inf`` for the line degeneration."""

    __slots__ = ()

    def __new__(cls, lambda_tilde: float):
        if not (_finite(lambda_tilde, "lambda_tilde") or lambda_tilde == math.inf):
            raise InvalidInput(f"parameter must be a float or math.inf, got {lambda_tilde!r}")
        return tuple.__new__(cls, (lambda_tilde,))

    @classmethod
    def finite(cls, lambda_tilde: float) -> "SlsParameter":
        if not _finite(lambda_tilde, "lambda_tilde"):
            raise InvalidInput("finite parameter must be a finite float")
        return cls(float(lambda_tilde))

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
        try:
            return math.exp(self.lambda_tilde)
        except OverflowError:
            raise NumericalBreakdown(f"exp(lambda_tilde) overflows at {self!r}") from None


def diagonal_flow(lam: complex, t: float, branch: int = 1) -> MoebiusMap:
    """diag(branch * exp(lam t / 2), exp(-lam t / 2)); acts on points as
    z -> branch * exp(lam t) z."""
    if branch not in (1, -1):
        raise InvalidInput("branch must be +1 or -1")
    lam = _complex(lam, "lam")
    _finite(t, "t")  # refuses a t that is no real number
    try:
        grow, shrink = cmath.exp(lam * t / 2.0), cmath.exp(-lam * t / 2.0)
    except OverflowError:
        raise NumericalBreakdown(f"exp(+-lam t / 2) overflows at lam={lam!r}, t={t!r}") from None
    return MoebiusMap(branch * grow, 0.0, 0.0, shrink)


# ---------------------------------------------------------------------------
# triples
# ---------------------------------------------------------------------------

class LoxodromeTriple(_Value, namedtuple("LoxodromeTriple", "c1 c2 c3 sign")):
    """Ordered cycles (c1, c2, c3) plus the chirality sign in {+1, -1}.

    It has no ``__slots__``: its instance dict holds the prepared form
    that ``_prepared`` keeps on it, which is not a field."""

    def __new__(cls, c1: Cycle, c2: Cycle, c3: Cycle, sign: int = 1):
        if type(sign) is not int or sign not in (1, -1):  # written out as given, so no bool or float
            raise InvalidInput(f"sign must be the int 1 or -1, got {_quote(sign)}")
        return tuple.__new__(cls, (c1, c2, c3, sign))

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
    if not isinstance(param, SlsParameter):
        raise InvalidInput(f"param must be an SlsParameter, got {_quote(param)}")
    lt = param.lambda_tilde
    if lt == math.inf:
        return LoxodromeTriple(_REAL_AXIS, _UNIT_CIRCLE, Cycle(0.0, 0.0, 0.0, 1.0), 1)
    if lt == 0.0:
        return LoxodromeTriple(_REAL_AXIS, _UNIT_CIRCLE, _UNIT_CIRCLE, 1)
    try:
        c3 = Cycle(1.0, 0.0, 0.0, -math.exp(2.0 * lt))
    except OverflowError:
        raise NumericalBreakdown(f"exp(2 lambda_tilde) overflows at lambda_tilde={lt!r}") from None
    return LoxodromeTriple(_REAL_AXIS, _UNIT_CIRCLE, c3, 1 if lt > 0 else -1)


# ---------------------------------------------------------------------------
# the prepared form
# ---------------------------------------------------------------------------

class CurveKind(Enum):
    """What the spiral parameter makes of the curve."""

    SPIRAL = "spiral"  # finite nonzero parameter
    CIRCLE = "circle"  # zero parameter: the curve is c2
    LINE = "line"  # infinite parameter: the curve is c1 less the limit points, its two arcs the branches


# bound once: a member read through its class costs ~0.12 us on CPython 3.11
_SPIRAL, _CIRCLE, _LINE = CurveKind.SPIRAL, CurveKind.CIRCLE, CurveKind.LINE


class Loxodrome:
    """A triple prepared once for every query on it at one tolerance.

    On construction it scales the cycles by ``_binary_scaled`` into
    ``_c1`` to ``_c3``, forms the ``_pencil`` of c2 and c3 and reads
    ``shape`` off it: coincident cycles make a circle, and a ratio
    <c2,c2><c3,c3> / <c2,c3>^2 = 1/cosh^2 lambda_tilde of at most
    eps_product (or negative: a point c3 up to roundoff) a line, in every
    image alike, as the ratio is projectively invariant.  The rest is
    derived on first read, each field by its entry in ``_DERIVE``, into
    its slot: ``_n1`` = (<c1,c1>, T(c1)), the parameter, the limit points,
    the map, its inverse ``_inverse`` and the membership kernel ``_member`` that
    ``_contains`` binds on the first membership question, so that every
    later one is one call.  ``_pencil`` canonicalises c2 and c3 only to test
    that they coincide, as in every circle-shape triple.  A derivation is
    deterministic, so threads that race on one store equal values.  The
    derived fields assume a triple with no ``violations``, and every query
    gets such a form from ``_prepared``.  It holds the triple's cycles, not
    the triple that keeps it: the two make no reference cycle."""

    def __init__(self, triple: LoxodromeTriple, tol: Tolerances = DEFAULT_TOLERANCES):
        self.c1, self.c2, self.c3, self.sign = triple
        self.tol = tol
        self._c1, self._c2, self._c3 = map(_binary_scaled, triple[:3])
        pencil = self._pencil = _pencil(self._c2, self._c3, tol)
        line = pencil.a * pencil.c <= tol.eps_product * pencil.scale
        self.shape = _CIRCLE if pencil.coincident else _LINE if line else _SPIRAL

    def __getattr__(self, name: str):
        """A derived field on its first read: only an empty slot gets here."""
        derive = Loxodrome._DERIVE.get(name)
        if derive is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = derive(self)
        setattr(self, name, value)
        return value

    def _param(self) -> SlsParameter:
        """asinh sqrt(disc / (<c2,c2><c3,c3>)) off ``_pencil``, signed by the
        triple's chirality; 0 for the circle shape, inf for the line shape.
        An unchecked pencil that is not disjoint raises NumericalBreakdown."""
        if self.shape is _CIRCLE:
            return SlsParameter(0.0)
        if self.shape is _LINE:
            return SlsParameter.infinite()
        pencil = self._pencil
        ac = pencil.a * pencil.c
        if not (pencil.disc > 0.0 and ac > 0.0):
            raise NumericalBreakdown("second and third cycle are not disjoint: their pencil has no spiral parameter")
        return SlsParameter.finite(self.sign * math.asinh(math.sqrt(pencil.disc / ac)))

    def _map(self) -> MoebiusMap:
        """The map to standard position.  The circle shape takes c2 to the
        unit circle.  Otherwise the limit points go to 0 and infinity and a
        crossing of c1 and c2 to 1; a spiral is oriented by chirality as
        ``standard_map`` states, with the radius r3 of the image of c3
        read off the point members P, Q that go to 0 and infinity before
        any map is built: r3^2 = <c3,P><c2,Q> / (<c3,Q><c2,P>).  The map
        is the frame F = (z - p) / (z - q) of the oriented limit points
        followed by z / w, for the ``_crossing`` w of c1 and c2 in that
        frame whose preimage is the larger by ``_point_sort_key``."""
        if self.shape is _CIRCLE:
            return _map_cycle_to_unit_circle(self._c2, self.tol)
        p, q = self.limit_points
        c1, c2 = self._c1, self._c2
        if self.shape is _SPIRAL:
            (P, Q), c3 = self._point_members, self._c3
            num, den = product(c3, P) * product(c2, Q), product(c3, Q) * product(c2, P)
            if (num > den if den > 0 else num < den) != (self.sign > 0):
                p, q = q, p
        F = MoebiusMap(p.w2, -p.w1, q.w2, -q.w1)
        w = _crossing(F, c1, c2)
        a, b, c, d = F
        if _point_sort_key(_affine(-d * w - b, c * w + a)) > _point_sort_key(_affine(d * w - b, a - c * w)):
            w = -w
        return MoebiusMap(a / w, b / w, c, d).normalized()

    _DERIVE = {
        "_n1": lambda self: _accurate_product(self._c1, self._c1),
        "param": _param,
        # the exponent of the model curve exp(rate t) in standard position: lambda_tilde + 2 pi i,
        # or 1 for the line shape, whose model is the positive real axis
        "rate": lambda self: complex(1.0, 0.0) if self.shape is _LINE else self.param.rate,
        # the point cycles of the pencil of (c2, c3), and their points: the curve's asymptotic endpoints;
        # solved on the scaled cycles, as canonical ones lose the far point of two nearby small circles
        "_point_members": lambda self: _root_pairing(self._pencil, self.tol),
        "limit_points": lambda self: tuple(map(point_of, self._point_members)),
        "map": _map,
        # the adjugate of map, projectively its inverse: velocities and samples are pushed through it
        "_inverse": lambda self: self.map.inverse(),
        # the membership kernel, bound on the first membership question: p -> (report, image of p)
        "_member": lambda self: _contains(self),
    }
    __slots__ = ("c1", "c2", "c3", "sign", "tol", "_c1", "_c2", "_c3", "_pencil", "shape", *_DERIVE)

    def violations(self) -> list:
        """All invariant violations of the triple, empty when valid.

        After the checks of each cycle and of c1's orthogonality, the
        spanning pair is checked by shape: a circle needs nothing more, a
        line needs c3, a point or a circle that the pencil cannot tell from
        one, off c2 (the pencil of a cycle and a point is disjoint exactly
        when the point misses the cycle), a spiral needs a hyperbolic
        pencil and c3 off c2.  Then c1 must pass both point members, each
        solved to its largest component s, so read at T = 6 s^2, that of
        (s, s, s, s).  Products are judged against their terms
        (``cycles._accurate_product``), on the scaled cycles.
        """
        c1, tol, pencil, out = self._c1, self.tol, self._pencil, []
        (n1, t1), (ta, tb, tc), eps = self._n1, pencil.terms, tol.eps_product
        if n1 <= eps * t1:
            out.append(TripleViolation("first cycle must be a line or proper circle", n1))
        if pencil.a <= eps * ta:
            out.append(TripleViolation("second cycle must be a line or proper circle", pencil.a))
        if pencil.c < -eps * tc:
            out.append(TripleViolation("third cycle has no real locus", pencil.c))
        for name, C, t in (("second", self._c2, ta), ("third", self._c3, tc)):
            if r := _orthogonality_residual(c1, C, t1, t, tol):
                out.append(TripleViolation(f"first and {name} cycle are not orthogonal", r))

        if self.shape is _CIRCLE:
            return out
        # <c2,c3> ~ 0 for a real c3, so no disjoint pair (<c2,c3>^2 > <c2,c2><c3,c3> >= 0): a point
        # on c2, whose products are all roundoff and read either shape, or a circle crossing c2
        meets = pencil.c >= -eps * tc and abs(pencil.b) <= eps * tb
        if meets and (self.shape is _LINE or pencil.c <= eps * tc):
            return out + [TripleViolation("third (point) cycle lies on the second cycle")]
        if meets or self.shape is _SPIRAL and _pencil_kind(pencil.disc, pencil.scale, tol) != PencilKind.HYPERBOLIC:
            return out + [TripleViolation("second and third cycle neither disjoint nor equal", pencil.disc)]
        for z in self._point_members:
            if r := _orthogonality_residual(c1, z, t1, 6.0 * z.scale() ** 2, tol):
                out.append(TripleViolation("first cycle misses a limit point of the pencil", r))
        return out

    def _velocity(self, p: ExtendedPoint, w: complex | None) -> complex:
        """The curve's velocity at the curve point p: the model velocity
        ``rate * w`` at the image w = map(p) that membership read, pushed
        through the inverse map.  It is read in the affine chart at a finite
        p and in the chart 1/z at infinity, there up to a sign that every
        curve shares.  Angles are conformal, so this one derivative serves
        every question of direction; a limit point has none and raises
        PointNotOnCurve (``_contains`` says where a member's w is one)."""
        if w is None or w == 0:
            raise PointNotOnCurve("point maps to a limit point under the normal form")
        a, b, c, d = self._inverse
        denom = a * w + b if p[1] == 0 else c * w + d  # p is infinity, (1 : 0)
        return ((a * d - b * c) / (denom * denom)) * (self.rate * w)  # the inverse's det


def _prepared(T: LoxodromeTriple, tol: Tolerances) -> Loxodrome:
    """The checked form of T at tol, kept on T by the first query for the
    next ones; a query at other tolerances checks T afresh, and an invalid
    T raises its first violation to every query.  The kept form is read
    here, and ``_check`` is called only when none matches."""
    lox = T.__dict__.get("_loxodrome")
    if lox is not None and (lox.tol is tol or lox.tol == tol):
        return lox
    lox, violations = _check(T, tol)
    if violations:
        raise violations[0]
    return lox


def _check(T: LoxodromeTriple, tol: Tolerances) -> tuple[Loxodrome, list]:
    """T's form at tol and its violations: the kept one, or a new one, kept on T when valid."""
    lox = T.__dict__.get("_loxodrome")
    if lox is not None and (lox.tol is tol or lox.tol == tol):
        return lox, []
    lox = Loxodrome(T, tol)
    violations = lox.violations()
    if not violations:
        T._loxodrome = lox
    return lox, violations


def lambda_from_triple(T: LoxodromeTriple, tol: Tolerances = DEFAULT_TOLERANCES) -> SlsParameter:
    """Recover the spiral parameter (see ``Loxodrome.param``): coincident
    c2, c3 give the zero parameter, the line shape the infinite one."""
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
    for sign -1.  The map is read off the frame of the limit points,
    in which c1 is a line through 0 and c2 a circle centred at 0, so
    no intersection is solved for (``Loxodrome._map``); c1 and c2 must
    cross at two points.  Either crossing would do (the two choices
    differ by the branch swap); the tie-break picks the
    lexicographically larger point, infinity last.
    """
    lox = _prepared(T, tol)
    if lox.shape is not _SPIRAL:
        raise TripleViolation("normal form needs a spiral: second and third cycle are coincident or of line shape")
    return lox.map


def _point_sort_key(z: complex | None) -> tuple:
    """The tie-break between the two crossings of c1 and c2: the larger
    point by real, then imaginary part, each rounded to 9 decimals, with
    the point at infinity (None) last."""
    if z is None:
        return (1, 0.0, 0.0)
    return (0, round(z.real, 9), round(z.imag, 9))


def _map_cycle_to_unit_circle(C: Cycle, tol: Tolerances) -> MoebiusMap:
    """The circle shape's map off one ``cycles._locus`` reading of C: z -> (z - c) / r
    for a circle of centre c and radius r; for a line, z -> (z - a) / u onto the real
    axis, for its anchor a and unit direction u, then the Cayley map."""
    kind, a, b = _locus(C, tol)
    M = MoebiusMap(1.0, -a, 0.0, b)
    return (M if kind is CycleKind.CIRCLE else MoebiusMap(1.0, -1j, 1.0, 1j) @ M).normalized()


def _crossing(F: MoebiusMap, c1: Cycle, c2: Cycle) -> complex:
    """A crossing w of c1 and c2 in the frame of a map F that takes their
    triple's limit points to 0 and infinity: there c1 is a line through 0
    with normal L = l + i n and c2 a circle of radius rho = sqrt(-m / k)
    centred at 0, so w = i rho L / |L|, and -w is the other crossing.  One
    ``_cycle_action`` of F moves both."""
    action = _cycle_action(F)
    line, circle = _act(action, c1), _act(action, c2)
    L = complex(line.l, line.n)
    try:
        w = 1j * math.sqrt(-circle.m / circle.k) * (L / abs(L))
    except (ZeroDivisionError, ValueError):
        w = 0j
    if not (w and cmath.isfinite(w)):
        raise NumericalBreakdown("first and second cycle have no crossing in the frame of the limit points")
    return w


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

def equivalent(T: LoxodromeTriple, Tp: LoxodromeTriple, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Do two non-degenerate triples parametrise the same curve?

    Checks, in order: equal chirality; equal lambda_tilde, within
    eps_product of the larger; the same limit points, as a set; and a
    ``_crossing`` of Tp's c1 and c2, taken in T's standard position, on
    T's model curve.  Then N N'^-1, for the normal forms N of T and N' of
    Tp, fixes {0, infinity} and takes 1 onto the model curve: it is a
    diagonal flow, with or without the branch swap, so it keeps the curve."""
    lox, loxp = _prepared(T, tol), _prepared(Tp, tol)
    if lox.shape is not _SPIRAL or loxp.shape is not _SPIRAL:
        raise TripleViolation("equivalence needs non-degenerate triples")
    if T.sign != Tp.sign:
        return False
    x, xp = lox.param.lambda_tilde, loxp.param.lambda_tilde
    if abs(x - xp) > tol.eps_product * max(abs(x), abs(xp)):
        return False
    (p, q), (pp, qp) = lox.limit_points, loxp.limit_points
    if not (p.approx_eq(pp, tol) and q.approx_eq(qp, tol) or p.approx_eq(qp, tol) and q.approx_eq(pp, tol)):
        return False
    w = _crossing(lox.map, loxp._c1, loxp._c2)
    return _spiral_report(w, lox.param.lambda_tilde, tol).member


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

class MembershipReport(_Value, namedtuple("MembershipReport", "member lhs rhs flags", defaults=(None, None, ()))):
    """``contains_point``'s answer: the congruence's two sides when one decided it, else flags."""

    __slots__ = ()

    def to_json(self):
        return dict(self._asdict(), flags=list(self.flags))


def _as_point(p) -> ExtendedPoint:
    if isinstance(p, ExtendedPoint):
        return p
    return ExtendedPoint.from_complex(_complex(p, "point"))


def contains_point(T: LoxodromeTriple, p, tol: Tolerances = DEFAULT_TOLERANCES) -> MembershipReport:
    """Decide curve membership in standard position.

    For a spiral, w is the image of the point under the normalising map
    and the report carries the hyperbolic shift over the signed
    parameter, lhs = log|w| / lambda_tilde, and the elliptic rotation in
    turns, rhs = arg w / 2 pi; membership is their congruence modulo 1/2
    (the two branches differ by half a turn).  The map is oriented by
    the triple's chirality, so points of the mirror spiral are refused.
    The line shape is the same congruence with lhs = 0 (lambda_tilde = inf).

    The two asymptotic endpoints are not on the curve: those report
    False with a ``limit_point`` flag.  The circle shape is incidence with c2.
    """
    return _prepared(T, tol)._member(_as_point(p))[0]


def _contains(lox: Loxodrome):
    """The membership kernel of a form (its ``_member``): p -> the report
    at p and the image w = map(p) that the decision read (None for
    infinity, and for a point off c2 or near a limit point, where none was
    read), so a query of direction maps p no second time.  The shape is
    read here, once per form, and not per question.  Each kernel closes
    over the map's entries and forms w from the products of
    ``apply_to_point`` by the rule of ``ExtendedPoint``: that point's
    coordinate bit for bit, with no point built.

    The circle shape's kernel is incidence with c2, and ``passes`` is wider than
    the map's reading of c2: a member's w may be 0 or None.  The others close over
    the limit points, lambda_tilde and the tolerances too, and answer as
    ``ExtendedPoint.approx_eq`` against each limit point and ``_spiral_report``
    would, bit for bit, so a member's w is finite and nonzero.  A finite point
    against finite limit points, all of them (z : 1), reads approx_eq's test
    specialised to that representative, which is exact; any other pair calls
    approx_eq.  ``_affine``'s rule is applied inline where both components of w
    are finite and inside the coordinate cap; elsewhere ``_affine`` itself
    decides, so a refusal keeps its class and message.  The spiral kernel
    decides the congruence itself, by ``_spiral_report``'s float operations in
    their order (``tests/test_loxodrome.py`` pins the two to each other), with
    the functions and eps_mod it reads bound here."""
    tol = lox.tol
    a, b, c, d = lox.map
    if lox.shape is _CIRCLE:
        c2 = lox._c2

        def on_c2(p: ExtendedPoint) -> tuple[MembershipReport, complex | None]:
            if not passes(c2, p, tol):
                return MembershipReport(member=False), None
            w1, w2 = p
            return MembershipReport(member=True), _affine(a * w1 + b * w2, c * w1 + d * w2)

        return on_c2
    z0, z1 = lox.limit_points
    lambda_tilde, eps, eps_mod = lox.param.lambda_tilde, tol.eps_product, tol.eps_mod
    cap, inf, two_pi = _COORD_CAP, math.inf, TWO_PI
    log, phase, remainder, new = math.log, cmath.phase, math.remainder, tuple.__new__
    finite = z0.w2 == 1.0 and z1.w2 == 1.0
    u, v = z0.w1, z1.w1
    au, av = abs(u), abs(v)
    eu, ev = eps * (au if au > 1.0 else 1.0), eps * (av if av > 1.0 else 1.0)  # eps * max(|u|, 1)
    limit = MembershipReport(False, flags=("limit_point",))  # a value: one serves every question

    def member(p: ExtendedPoint) -> tuple[MembershipReport, complex | None]:
        w1, w2 = p
        if finite and w2 == 1.0:
            # approx_eq of (w1 : 1) and (u : 1): its products w1 * 1 and 1 * u are w1 and u
            # up to the sign of a zero, so the cross product's modulus is x = |w1 - u|, and
            # x <= eps * max(|w1 u|, |w1|, |u|, 1) exactly when x <= eps * one of them
            ew = eps * abs(w1)
            x = abs(w1 - u)
            near = x <= eu or x <= ew or x <= eps * abs(w1 * u)
            if not near:
                x = abs(w1 - v)
                near = x <= ev or x <= ew or x <= eps * abs(w1 * v)
        else:
            near = p.approx_eq(z0, tol) or p.approx_eq(z1, tol)
        if near:
            return limit, None
        num, den = a * w1 + b * w2, c * w1 + d * w2
        try:  # a finite bound passes only finite components: then this is _affine's first branch
            w = num / den if den and abs(num) <= cap * abs(den) < inf else _affine(num, den)
        except OverflowError:  # abs of a complex beyond the float range: _affine refuses it
            w = _affine(num, den)
        if w is None or w == 0:
            return limit, w
        lhs = log(abs(w)) / lambda_tilde
        rhs = phase(w) / two_pi
        return new(MembershipReport, (abs(remainder(lhs - rhs, 0.5)) <= eps_mod, lhs, rhs, ())), w

    return member


def _spiral_report(w: complex, lambda_tilde: float, tol: Tolerances) -> MembershipReport:
    """Is w, a point of standard position other than 0 and infinity, on the
    model spiral: is lhs = log|w| / lambda_tilde congruent to rhs = arg w / 2 pi
    modulo 1/2, as the two branches differ by half a turn?  At lambda_tilde
    = inf, the line shape, lhs is +-0 and the model is the real axis.  The
    congruence of ``equivalent``; the spiral kernel of ``_contains`` makes
    the same float operations inline.  Its report is built by
    ``tuple.__new__``, as every field is given."""
    lhs = math.log(abs(w)) / lambda_tilde
    rhs = cmath.phase(w) / TWO_PI
    return tuple.__new__(MembershipReport, (congruent_mod(lhs, rhs, 0.5, tol), lhs, rhs, ()))


def contains_point_oracle(T: LoxodromeTriple, p, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """``contains_point(T, p, tol).member``."""
    return _prepared(T, tol)._member(_as_point(p))[0].member


# ---------------------------------------------------------------------------
# angles and tangency
# ---------------------------------------------------------------------------

def _fold_half_open(x: float) -> float:
    """Fold an angle modulo pi into (-pi/2, pi/2]."""
    r = math.remainder(x, math.pi)
    if r <= -math.pi / 2.0:
        r += math.pi
    return r


def _cycle_tangent_direction(C: Cycle, p: ExtendedPoint) -> complex:
    """A tangent direction (either orientation) of a cycle at a point on
    it: at a finite z, i (k z - L) for L = l + i n, the gradient of
    k |z|^2 - 2 Re(conj(L) z) + m turned a quarter turn, read binary-scaled.
    At infinity it is read in the chart 1/z, which takes C to (m, l, -n, k):
    there it is n + i l, the conjugate of a line's own direction up to sign."""
    if p.is_infinity:
        return complex(C.n, C.l)
    B = _binary_scaled(C)
    return 1j * (B.k * p.as_complex() - complex(B.l, B.n))


def intersection_angle(T: LoxodromeTriple, Tp: LoxodromeTriple, p, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Crossing angle of two curves at a common point: the phase of the
    ratio of their velocities there (``Loxodrome._velocity``), folded
    modulo pi into (-pi/2, pi/2].  It is read off v * conj(v'), which is
    exactly real for v' = v, where the quotient v / v need not be 1."""
    p = _as_point(p)
    lox, loxp = _prepared(T, tol), _prepared(Tp, tol)
    report, w = lox._member(p)
    if report.member:
        report, wp = loxp._member(p)
    if not report.member:
        raise PointNotOnCurve(f"point {p.format()} is not on both curves")
    return _fold_half_open(cmath.phase(lox._velocity(p, w) * loxp._velocity(p, wp).conjugate()))


def tangent_check(T: LoxodromeTriple, C: Cycle, p, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Is the cycle tangent to the curve at the given curve point?

    Two conditions: the cycle passes the point, and its direction there
    is parallel to the curve's velocity within eps_angle."""
    if classify(C, tol) == CycleKind.POINT:
        raise InvalidInput("tangency candidate must not be a point cycle")
    p = _as_point(p)
    lox = _prepared(T, tol)
    report, w = lox._member(p)
    if not report.member:
        raise PointNotOnCurve(f"point {p.format()} is not on the curve")
    if not passes(C, p, tol):
        return False
    turn = cmath.phase(_cycle_tangent_direction(C, p) / lox._velocity(p, w))
    return abs(math.remainder(turn, math.pi)) <= tol.eps_angle


def tangent_line_at(T: LoxodromeTriple, p, tol: Tolerances = DEFAULT_TOLERANCES) -> Cycle:
    """Tangent line of the curve at a finite curve point, along the
    curve's velocity there."""
    p = _as_point(p)
    z, w2 = p
    if w2 == 0:  # p is infinity, (1 : 0)
        raise InvalidInput("tangent line is constructed at finite points only")
    lox = _prepared(T, tol)
    report, w = lox._member(p)
    if not report.member:
        raise PointNotOnCurve(f"point {p.format()} is not on the curve")
    direction = lox._velocity(p, w)
    speed = abs(direction)
    if speed == 0 or not math.isfinite(speed):
        raise PointNotOnCurve("curve direction is undefined at this point")
    direction /= speed
    return from_line(z, z + direction, tol)


# ---------------------------------------------------------------------------
# sampling and transport
# ---------------------------------------------------------------------------

# A branch is regular when no model point can reach the coordinate cap
# (|w| <= e^30, about 1.1e13), no entry of the map can make a w + b or
# c w + d overflow, and every image lies within half the cap: then each
# image is the quotient that ``_affine`` would return, with room for the
# rounding of |num / den| against cap |den| (a subnormal den, whose
# quotient loses its relative accuracy, gives an image beyond 1e150 at
# these entries, as num c - den a = -1).
_REGULAR_EXPONENT = 30.0
_REGULAR_ENTRY = 2.0 ** 500
_REGULAR_IMAGE = 0.5 * _COORD_CAP


def _curve_points(lox: Loxodrome, t_min: float, t_max: float, count: int, signs: tuple):
    """The curve's branches ``sign * exp(rate t)``, one per sign and each
    formed when the one before it has been read, on a uniform parameter
    grid: per branch its images, each a bare complex number or None for
    the point at infinity, and the largest modulus among them, or inf
    where that was not read.

    Each model point is sent back by ``(a w + b) / (c w + d)`` with the
    rules of ``ExtendedPoint``: a model point beyond the coordinate cap
    is infinity before the map, so its image is a / c; an image beyond the
    cap is infinity; a non-finite component raises InvalidInput.  An
    exponential that overflows gives infinity as the image itself; an
    angle that overflows raises InvalidInput.

    Where the rate, the grid and the map keep a branch regular (see
    ``_REGULAR_EXPONENT``), each grid point's exponential is formed once
    for every branch and a branch's images array-at-a-time, by the float
    operations of the loop below in its order, the model point's ``/ one``
    included, which keeps signed zeros.  A zero denominator, or an image
    beyond half the cap or not finite, sends that branch to the loop, the
    one path that reads the cap's rules and raises.
    """
    rate = lox.rate
    back = lox._inverse
    # the products apply_to_point forms on (z : 1) and on (1 : 0), so the
    # images equal ExtendedPoint arithmetic bit for bit, signed zeros too
    one, zero = complex(1.0), complex(0.0)
    a, c = back.a, back.c
    b, d = back.b * one, back.d * one
    far = _affine(a * one + back.b * zero, c * one + back.d * zero)
    step = (t_max - t_min) / (count - 1)
    exps = None
    if (
        rate.real * t_min < _REGULAR_EXPONENT
        and rate.real * t_max < _REGULAR_EXPONENT
        and cmath.isfinite(rate)
        and all(abs(x.real) <= _REGULAR_ENTRY and abs(x.imag) <= _REGULAR_ENTRY for x in back)
    ):
        try:
            exps = [cmath.exp(rate * (t_min + step * i)) for i in range(count)]
        except ValueError:  # rate * t overflowed into an infinite angle: the loop refuses it
            pass
    for sign in signs:
        if exps is not None:
            try:
                images = [(a * z + b) / (c * z + d) for z in [sign * e / one for e in exps]]
            except ZeroDivisionError:  # a pole on the grid: the loop reads it as infinity
                pass
            else:
                moduli = list(map(abs, images))
                peak = max(moduli)  # max skips a NaN that is not first: sum does not
                if peak <= _REGULAR_IMAGE and math.isfinite(sum(moduli)):
                    yield images, peak
                    continue
        out = []
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
            if not cmath.isfinite(w):
                raise InvalidInput("homogeneous components must be finite")
            if abs(w) > _COORD_CAP:
                out.append(far)
            else:
                z = w / one
                out.append(_affine(a * z + b, c * z + d))
        yield out, math.inf


def _check_grid(t_min: float, t_max: float, count: int) -> None:
    """Refuse a parameter grid whose count is not an integer, or whose
    bounds, count or step are not finite real numbers: its points would
    be NaN or infinity, and no error would name the cause."""
    _index(count, "sample count")
    for name, t in (("t_min", t_min), ("t_max", t_max), ("sample count", count)):
        if not _finite(t, name):
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
    if _index(count, "sample count") < 2:
        raise InvalidInput(f"need at least two samples, got {count!r}")
    _check_grid(t_min, t_max, count)
    if not t_max >= t_min:
        raise InvalidInput("empty parameter range")
    signs = {"+": (1.0,), "-": (-1.0,), "both": (1.0, -1.0)}.get(branch)
    if signs is None:
        raise InvalidInput(f"branch must be '+', '-' or 'both', got {branch!r}")
    one, infinity, new = complex(1.0), ExtendedPoint.infinity(), tuple.__new__
    branches = _curve_points(_prepared(T, tol), t_min, t_max, count, signs)
    # (z, 1) is the point ExtendedPoint makes of the components whose quotient is z
    return [infinity if z is None else new(ExtendedPoint, (z, one)) for points, _ in branches for z in points]


def apply_map(M: MoebiusMap, T: LoxodromeTriple) -> LoxodromeTriple:
    """Transport a triple's cycles by one ``_cycle_action`` of a Moebius map,
    chirality preserved.  It checks nothing: the image's first query does."""
    action = _cycle_action(M)
    return LoxodromeTriple(_act(action, T.c1), _act(action, T.c2), _act(action, T.c3), T.sign)
