"""Circles, lines and points as homogeneous quadruples, and the matrix
calculus that turns Moebius transformations into linear algebra.

A cycle ``(k, l, n, m)`` stands for the locus

    k (x^2 + y^2) - 2 l x - 2 n y + m = 0

considered up to a real nonzero rescaling of the quadruple: ``k = 0``
gives a straight line, a vanishing ``<C, C> = 2 (l^2 + n^2 - m k)`` (the
triple check's point test) a single point, anything else a proper circle.
Packing the components into the 2x2 matrix

    [[ conj(L), -m ],
     [ k,       -L ]],        L = l + i n,

makes the map ``z -> (a z + b) / (c z + d)`` act on cycles by the
twisted conjugation ``C -> conj(M) C M^-1`` and makes the trace pairing

    <C, C'> = L conj(L') + conj(L) L' - m k' - k m'
            = 2 (l l' + n n') - m k' - k m'

invariant under that action.  The pairing is indefinite; its sign and
normalisation carry all the geometry used downstream (incidence,
orthogonality, angles, inversive distance).

A pencil is the projective line of cycles ``alpha A + beta B``; the
Cauchy-Schwarz trichotomy of the indefinite pairing makes it crossing
(elliptic), tangent (parabolic) or disjoint (hyperbolic), and a
disjoint pencil holds exactly two point members, its limit points.

Because cycles are projective, the *sign* of the quadruple is a free
choice.  :func:`canonicalize` fixes one representative per cycle, and
the signed quantities of this module are defined on canonical
representatives; the loxodrome module reads only quantities that are
invariant under the scale and sign of each cycle.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from enum import Enum

from .errors import InvalidInput
from .numerics import DEFAULT_TOLERANCES, Tolerances, _clear_negative_zero, _complex, _decimal, _finite, _quote, _Value

_COORD_CAP = 1e15  # beyond this a homogeneous point collapses to infinity
_KEPT_LOW, _KEPT_HIGH = 2.0 ** -100, 2.0 ** 99  # a cycle of scale in [low, high) has finite products


class CycleKind(Enum):
    LINE = "line"
    POINT = "point"
    CIRCLE = "circle"


class PencilKind(Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


# ---------------------------------------------------------------------------
# points of the extended plane
# ---------------------------------------------------------------------------

def _affine(w1: complex, w2: complex) -> complex | None:
    """The coordinate w1 / w2 of the homogeneous point (w1 : w2), or None
    for the point at infinity, which also takes every point beyond the
    coordinate cap.  The one normalisation rule of ``ExtendedPoint``;
    curve sampling applies it to bare complex numbers.  A component whose
    modulus is beyond the float range is refused as InvalidInput."""
    if not (cmath.isfinite(w1) and cmath.isfinite(w2)):
        raise InvalidInput("homogeneous components must be finite")
    try:
        if w2 and abs(w1) <= _COORD_CAP * abs(w2):
            return w1 / w2
    except OverflowError:  # abs of a complex beyond the float range
        raise InvalidInput(f"point ({w1!r} : {w2!r}) has a modulus beyond the float range") from None
    if not w1:
        raise InvalidInput("(0, 0) is not a point of the projective line")
    return None


# Cycle, ExtendedPoint and MoebiusMap check their components in a static
# ``__post_init__`` that ``__new__`` calls through the class and that
# returns the fields; bench/spans.py wraps it to count constructions.
class ExtendedPoint(_Value, namedtuple("ExtendedPoint", "w1 w2")):
    """Point of the extended complex plane in homogeneous form (w1 : w2).

    Representatives are normalised at construction: finite points are
    stored as ``(z, 1)``, the point at infinity as ``(1, 0)``.
    """

    __slots__ = ()

    def __new__(cls, w1: complex, w2: complex):
        return tuple.__new__(cls, cls.__post_init__(w1, w2))

    @staticmethod
    def __post_init__(w1, w2) -> tuple[complex, complex]:
        z = _affine(_complex(w1, "point component w1"), _complex(w2, "point component w2"))
        return (complex(1.0), complex(0.0)) if z is None else (z, complex(1.0))

    @classmethod
    def from_complex(cls, z: complex) -> "ExtendedPoint":
        return cls(z, 1.0)

    @classmethod
    def infinity(cls) -> "ExtendedPoint":
        return cls(1.0, 0.0)

    @classmethod
    def parse(cls, text: str) -> "ExtendedPoint":
        """Parse ``"x,y"``, with x and y ASCII decimals, or the literal
        ``"inf"``."""
        body = text.strip()
        if body == "inf":
            return cls.infinity()
        parts = body.split(",")
        if len(parts) != 2:
            raise InvalidInput(f"point literal must be 'x,y' or 'inf', got {_quote(text)}")
        what = f"point literal {_quote(text)}"
        z = complex(_decimal(parts[0], what), _decimal(parts[1], what))
        try:
            return cls.from_complex(z)
        except InvalidInput as exc:
            raise InvalidInput(f"{what}: {exc}") from None

    @property
    def is_infinity(self) -> bool:
        return self.w2 == 0

    def as_complex(self) -> complex:
        if self.is_infinity:
            raise InvalidInput("point at infinity has no complex coordinate")
        return self.w1

    def format(self, precision: int = 6) -> str:
        if self.is_infinity:
            return "inf"
        z = self.as_complex()
        return _clear_negative_zero(f"{z.real:.{precision}f},{z.imag:.{precision}f}", precision)

    def approx_eq(self, other: "ExtendedPoint", tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
        """Is the cross product w1 w2' - w2 w1' within eps_product of the
        largest of the four products w_i w_j' and 1?"""
        (w1, w2), (v1, v2) = self, other
        p12, p21 = w1 * v2, w2 * v1
        scale = max(abs(w1 * v1), abs(p12), abs(p21), abs(w2 * v2), 1.0)
        return abs(p12 - p21) <= tol.eps_product * scale


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------

class Cycle(_Value, namedtuple("Cycle", "k l n m")):
    """Homogeneous quadruple (k, l, n, m) of a circle, line or point."""

    __slots__ = ()

    def __new__(cls, k: float, l: float, n: float, m: float):
        return tuple.__new__(cls, cls.__post_init__(k, l, n, m))

    @staticmethod
    def __post_init__(k, l, n, m) -> tuple[float, float, float, float]:
        isfinite = math.isfinite
        try:
            finite = isfinite(k) and isfinite(l) and isfinite(n) and isfinite(m)
        except (TypeError, OverflowError):  # refused by name below
            finite = all(_finite(x, f"cycle component {name}") for name, x in zip("klnm", (k, l, n, m)))
        if not finite:
            raise InvalidInput("cycle components must be finite")
        if k == 0 and l == 0 and n == 0 and m == 0:
            raise InvalidInput("cycle components must not all vanish")
        return float(k), float(l), float(n), float(m)

    @property
    def L(self) -> complex:
        return complex(self.l, self.n)

    def matrix(self):
        """2x2 matrix form ((conj L, -m), (k, -L))."""
        L = self.L
        return ((L.conjugate(), complex(-self.m)), (complex(self.k), -L))

    def scale(self) -> float:
        k, l, n, m = self
        return max(abs(k), abs(l), abs(n), abs(m))

    def __mul__(self, t: float) -> "Cycle":
        return Cycle(t * self.k, t * self.l, t * self.n, t * self.m)

    __rmul__ = __mul__

    def to_json(self):
        return list(self)


# ---------------------------------------------------------------------------
# Moebius maps
# ---------------------------------------------------------------------------

class MoebiusMap(_Value, namedtuple("MoebiusMap", "a b c d")):
    """Invertible map z -> (a z + b) / (c z + d) of the extended plane."""

    __slots__ = ()

    def __new__(cls, a: complex, b: complex, c: complex, d: complex):
        return tuple.__new__(cls, cls.__post_init__(a, b, c, d))

    @staticmethod
    def __post_init__(a, b, c, d) -> tuple[complex, complex, complex, complex]:
        a, b = _complex(a, "matrix entry a"), _complex(b, "matrix entry b")
        c, d = _complex(c, "matrix entry c"), _complex(d, "matrix entry d")
        if not (cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(c) and cmath.isfinite(d)):
            raise InvalidInput("matrix entries must be finite")
        top = max(abs(a), abs(b), abs(c), abs(d))
        det = a * d - b * c
        if abs(det) <= DEFAULT_TOLERANCES.eps_product * top * top:
            raise InvalidInput(f"matrix determinant {det!r} vanishes at scale {top!r}")
        return a, b, c, d

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "MoebiusMap":
        # adjugate: projectively equal to the true inverse
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other: "MoebiusMap") -> "MoebiusMap":
        """Matrix product; (M2 @ M1) acts as M2 after M1."""
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def normalized(self) -> "MoebiusMap":
        """Determinant-1 representative with a deterministic overall sign."""
        root = cmath.sqrt(self.det)
        entries = [e / root for e in self]
        lead = max(entries, key=abs)
        if lead.real < 0 or (lead.real == 0 and lead.imag < 0):
            entries = [-e for e in entries]
        return MoebiusMap(*entries)

    def to_json(self):
        return [[e.real, e.imag] for e in self]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def from_circle(center: complex, radius: float) -> Cycle:
    """Cycle of the circle |z - center| = radius."""
    c = _complex(center, "center")
    _finite(radius, "radius")  # refuses a radius that is no real number
    if radius <= 0:
        raise InvalidInput(f"radius must be positive, got {radius!r}")
    return Cycle(1.0, c.real, c.imag, c.real * c.real + c.imag * c.imag - radius * radius)


def from_line(p: complex, q: complex, tol: Tolerances = DEFAULT_TOLERANCES) -> Cycle:
    """Canonicalised k = 0 cycle of the straight line through p and q."""
    p, q = _complex(p, "point p"), _complex(q, "point q")
    d = q - p
    if abs(d) <= tol.eps_product * max(abs(p), abs(q), 1.0):
        raise InvalidInput(f"line needs two distinct points, got {p!r} twice")
    normal = 1j * d  # left normal of the direction
    l, n = normal.real, normal.imag
    m = 2.0 * (l * p.real + n * p.imag)
    return canonicalize(Cycle(0.0, l, n, m), tol)


def zero_radius_at(p: ExtendedPoint | complex) -> Cycle:
    """Point cycle at p: (1, x, y, x^2 + y^2), or (0, 0, 0, 1) at infinity."""
    if isinstance(p, ExtendedPoint):
        if p.is_infinity:
            return Cycle(0.0, 0.0, 0.0, 1.0)
        z = p.as_complex()
    else:
        z = _complex(p, "point")
    return Cycle(1.0, z.real, z.imag, z.real * z.real + z.imag * z.imag)


# ---------------------------------------------------------------------------
# classification and coordinates
# ---------------------------------------------------------------------------

def _binary_scaled(C: Cycle) -> tuple[Cycle, float]:
    """C and its scale: as given when its scale is in [2^-100, 2^99), else
    scaled exactly by a power of two to a largest component in [0.5, 1),
    as products of it may overflow or underflow a float there."""
    if _KEPT_LOW <= (s := C.scale()) < _KEPT_HIGH:
        return C, s
    m, e = math.frexp(s)
    return Cycle(*(math.ldexp(x, -e) for x in C)), m


def classify(C: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> CycleKind:
    """LINE for k ~ 0, POINT for <C,C> ~ 0, CIRCLE otherwise, read on C
    binary-scaled, so at any float scale as at unit scale.  The point test
    is the triple check's: ``_accurate_product`` <C,C> within eps_product
    of the squared scale; it runs first so the point at infinity (0,0,0,1)
    classifies as a point, not a line.
    """
    B, s = _binary_scaled(C)
    if abs(_accurate_product(B, B)) <= tol.eps_product * s * s:
        return CycleKind.POINT
    if abs(B.k) <= tol.eps_product * s:
        return CycleKind.LINE
    return CycleKind.CIRCLE


def center_radius(C: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[complex, float]:
    """Centre and radius sqrt(<C,C> / 2) / |k| of a circle (0 for a point),
    read on C binary-scaled, so at any float scale as at unit scale; <C,C>
    is ``_accurate_product``'s, refused by the check's no-real-locus bound."""
    B, s = _binary_scaled(C)
    if abs(B.k) <= tol.eps_product * s:
        raise InvalidInput(f"cycle {C!r} has no centre")
    if (d := _accurate_product(B, B)) < -tol.eps_product * s * s:
        raise InvalidInput(f"cycle {C!r} has negative discriminant {d / 2!r}")
    return complex(B.l / B.k, B.n / B.k), math.sqrt(max(d / 2, 0.0)) / abs(B.k)


def _line_frame(C: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[complex, complex]:
    """A point and a unit direction of a line, read binary-scaled: the foot of
    its normal from the origin, and its canonical unit normal turned a quarter turn."""
    line = canonicalize(C, tol)
    normal = complex(line.l, line.n)
    return (line.m / 2.0) * normal, 1j * normal


def point_of(C: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> ExtendedPoint:
    """Point represented by a zero-radius cycle."""
    s = C.scale()
    if abs(C.k) <= tol.eps_product * s:
        return ExtendedPoint.infinity()
    return ExtendedPoint.from_complex(complex(C.l / C.k, C.n / C.k))


# ---------------------------------------------------------------------------
# the invariant product
# ---------------------------------------------------------------------------

def product(C: Cycle, Cp: Cycle) -> float:
    """Trace pairing 2(l l' + n n') - m k' - k m' on the given representatives.

    Scale-covariant, not scale-invariant: rescaling either argument
    rescales the value.
    """
    return 2.0 * (C.l * Cp.l + C.n * Cp.n) - C.m * Cp.k - C.k * Cp.m


def _accurate_product(C: Cycle, Cp: Cycle) -> float:
    """``product``, correctly rounded where it cancels below 1e-2 of the
    sum of its terms' sizes (as for a small circle far from the origin),
    else its float value.  Each term x y is split into p + e exactly by
    Dekker's TwoProduct, and ``math.fsum`` sums the parts (Ogita, Rump and
    Oishi, SIAM J. Sci. Comput. 26(6), 2005).  Components below about
    1e300, as of every binary-scaled cycle, split without overflow."""
    (k, l, n, m), (k2, l2, n2, m2) = C, Cp
    ll, nn, mk, km = l * l2, n * n2, m * k2, k * m2
    value = 2.0 * (ll + nn) - mk - km
    if abs(value) > 1e-2 * (2.0 * (abs(ll) + abs(nn)) + abs(mk) + abs(km)):
        return value
    parts = []
    for x, y, p, w in ((l, l2, ll, 2.0), (n, n2, nn, 2.0), (m, k2, mk, -1.0), (k, m2, km, -1.0)):
        xh, yh = (t := 134217729.0 * x) - (t - x), (u := 134217729.0 * y) - (u - y)
        xl, yl = x - xh, y - yh
        parts += (w * p, w * (xl * yl - (((p - xh * yh) - xl * yh) - xh * yl)))
    return math.fsum(parts)


def canonicalize(C: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> Cycle:
    """Fix the projective scale of C, read binary-scaled: k = +1 when k does
    not vanish, else a unit normal (l, n) with its first nonvanishing
    component positive, else m = +1."""
    B, s = _binary_scaled(C)
    return _canonical(*B, s, tol, C)


def _canonical(k: float, l: float, n: float, m: float, s: float, tol: Tolerances, given: Cycle | None = None) -> Cycle:
    """``canonicalize`` of the quadruple (k, l, n, m) of largest component
    s, built as one Cycle; ``given``, the quadruple's Cycle if one is
    built, is returned when it is canonical already."""
    if not 0.0 < s < math.inf:
        Cycle(k, l, n, m)  # no cycle has these components: refused as Cycle words it
    eps = tol.eps_product * s
    if abs(k) > eps:
        if k == 1.0 and given is not None:
            return given
        t = 1.0 / k
        k, l, n, m = 1.0, l * t, n * t, m * t  # exact pivot
    elif (r := math.hypot(l, n)) > eps:
        t = math.copysign(1.0, l if abs(l) > eps else n) / r
        k, l, n, m = k * t, l * t, n * t, m * t
    else:
        t = 1.0 / m
        k, l, n, m = k * t, l * t, n * t, 1.0
    return Cycle(k, l, n, m)  # refuses a component that overflowed


def normalized_product(C: Cycle, Cp: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """<C,C'> / sqrt(<C,C> <C',C'>) off the ``_pencil`` of the canonical
    representatives binary-scaled, so at any float scale; <C,C> or <C',C'>
    within the triple check's point bound refuses a point cycle.

    Deterministic up to the canonical sign convention: for concentric
    circles the value is +cosh of the log radius ratio, for crossing
    lines it is +-cos of the angle depending on which unit normals the
    canonicalisation picked.
    """
    (A, sa), (B, sb) = _binary_scaled(canonicalize(C, tol)), _binary_scaled(canonicalize(Cp, tol))
    pencil = _pencil(A, sa, B, sb, tol)
    if pencil.a <= tol.eps_product * sa * sa or pencil.c <= tol.eps_product * sb * sb:
        raise InvalidInput("normalised product needs two non-point cycles")
    return pencil.b / math.sqrt(pencil.a * pencil.c)


_Pencil = namedtuple("_Pencil", "a b c disc scale coincident frame")


def _pencil(A: Cycle, sa: float, B: Cycle, sb: float, tol: Tolerances) -> _Pencil:
    """The ``_accurate_product``s of the pencil of A and B, of scales sa and
    sb, formed once for every question on it: a = <A,A>, b = <A,B>,
    c = <B,B>, disc = b^2 - ac, the scale of its zero test (the
    products', floored at their roundoff), whether A and B are one cycle,
    and a frame (A', B', <A',A'>, <A',B'>, <B',B'>) of the pencil.  Where
    b^2 and ac outweigh disc, A' is the cycle of larger |<A,A>| / sa^2 (a
    choice no exact rescaling of A or B changes) and B' the other less its
    projection on A', so disc = -<A',A'><B',B'> cancels nothing.  The pair
    is one cycle when B' is within 4 eps_product of its source and their
    canonical forms agree to eps_product of max(1, their scales).  Its
    cycles come from ``_binary_scaled``, so no product overflows."""
    a, b, c = _accurate_product(A, A), _accurate_product(A, B), _accurate_product(B, B)
    ac, bb = a * c, b * b
    floor = tol.eps_product * 4.0 * sa * sb
    floor *= floor
    disc, frame, coincident = bb - ac, (A, B, a, b, c), False
    if ac > disc:
        X, Y, x, sy = (B, A, c, sa) if abs(c) * sa * sa > abs(a) * sb * sb else (A, B, a, sb)
        t = b / x
        k, l, n, m = Y.k - t * X.k, Y.l - t * X.l, Y.n - t * X.n, Y.m - t * X.m
        if max(abs(k), abs(l), abs(n), abs(m)) <= 4.0 * tol.eps_product * sy:
            P, Q = canonicalize(A, tol), canonicalize(B, tol)
            thr = tol.eps_product * max(1.0, P.scale(), Q.scale())
            coincident = all(abs(p - q) <= thr for p, q in zip(P, Q))
        if k or l or n or m:
            Y = Cycle(k, l, n, m)
            # compensated, though <A',B'> is near 0 by construction: as a float
            # product, TestLimitPointAccuracy::test_squeezed_maps misses its
            # 1e-8 bound by 1e4 (worst 1.0e-4), and the pass is no faster
            y, z = _accurate_product(X, Y), _accurate_product(Y, Y)
            disc, frame = y * y - x * z, (X, Y, x, y, z)
        else:  # B' vanishes to the last bit: the pencil is one cycle
            disc = 0.0
    return _Pencil(a, b, c, disc, max(bb, abs(ac), floor, 1e-300), coincident, frame)


def classify_pencil(C: Cycle, Cp: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> PencilKind:
    """Type of the pencil of C and C': <C,C'>^2 less than <C,C><C',C'> is
    elliptic (crossing), equal parabolic (tangent), greater hyperbolic
    (disjoint), each up to eps_product of the ``_pencil`` scale, formed on
    C and C' binary-scaled.  The one place that draws these lines."""
    pencil = _pencil(*_binary_scaled(C), *_binary_scaled(Cp), tol)
    return _pencil_kind(pencil.disc, pencil.scale, tol)


def _pencil_kind(q: float, scale: float, tol: Tolerances) -> PencilKind:
    """``classify_pencil`` on a discriminant and scale already formed."""
    thr = tol.eps_product * scale
    if q < -thr:
        return PencilKind.ELLIPTIC
    if q <= thr:
        return PencilKind.PARABOLIC
    return PencilKind.HYPERBOLIC


def zero_radius_members(A: Cycle, B: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[Cycle, Cycle]:
    """The two point members of the hyperbolic pencil of A and B,
    canonicalised and in a deterministic order, solved on A and B
    binary-scaled; any other pencil, coincident cycles included, raises
    InvalidInput."""
    return _root_pairing(_pencil(*_binary_scaled(A), *_binary_scaled(B), tol), tol)


def _root_pairing(pencil: _Pencil, tol: Tolerances) -> tuple[Cycle, Cycle]:
    """``zero_radius_members`` of a formed pencil: <xA' + yB', xA' + yB'> = 0
    solved on its frame in homogeneous (x : y) by the cancellation-free
    root pairing, so a near-point A' does not degrade the second root.
    Each member is formed componentwise and canonicalised as one Cycle."""
    if _pencil_kind(pencil.disc, pencil.scale, tol) != PencilKind.HYPERBOLIC:
        raise InvalidInput(f"pencil discriminant {pencil.disc!r} is not positive")
    A, B, a, b, c = pencil.frame
    root = math.sqrt(pencil.disc)
    sb = 1.0 if b >= 0 else -1.0
    qq = -(b + sb * root)
    P = (qq * A.k + a * B.k, qq * A.l + a * B.l, qq * A.n + a * B.n, qq * A.m + a * B.m)
    Q = (c * A.k + qq * B.k, c * A.l + qq * B.l, c * A.n + qq * B.n, c * A.m + qq * B.m)
    P, Q = (_canonical(*X, max(map(abs, X)), tol) for X in (P, Q))
    return (P, Q) if tuple.__le__(P, Q) else (Q, P)  # in the order of their components


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def _orthogonality_residual(C: Cycle, Cp: Cycle, scale: float, tol: Tolerances) -> float:
    """0.0 when the product of C and C' vanishes relative to ``scale``, the product
    of their component scales; else its size, the residual of the violation."""
    r = abs(product(C, Cp))
    return 0.0 if r <= tol.eps_product * 4.0 * max(scale, 1e-300) else r


def is_orthogonal(C: Cycle, Cp: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Vanishing product relative to the component scales."""
    return not _orthogonality_residual(C, Cp, C.scale() * Cp.scale(), tol)


def passes(C: Cycle, p: ExtendedPoint | complex, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Incidence: the product with the point cycle at p vanishes."""
    return is_orthogonal(C, zero_radius_at(p), tol)


# ---------------------------------------------------------------------------
# Moebius action
# ---------------------------------------------------------------------------

def apply_to_point(M: MoebiusMap, p: ExtendedPoint) -> ExtendedPoint:
    return ExtendedPoint(M.a * p.w1 + M.b * p.w2, M.c * p.w1 + M.d * p.w2)


def apply_to_cycle(M: MoebiusMap, C: Cycle) -> Cycle:
    """Image cycle of C under M: the matrix conj(M) C M^-1 for the
    representative of M with |det| = 1, in closed form on (k, L, m),

        k' = |d|^2 k + |c|^2 m + 2 Re(c conj(d) L)
        m' = |b|^2 k + |a|^2 m + 2 Re(a conj(b) L)
        L' = a conj(d) L + b conj(c) conj(L) + b conj(d) k + a conj(c) m.

    M acts on cycles as a real linear map that keeps the pairing, so the
    image is real by construction: there is no imaginary residue to snap.
    """
    return _act(_cycle_action(M), C)


def _cycle_action(M: MoebiusMap) -> tuple:
    """M's action on cycles, formed once for all it moves (``_act`` applies it):
    the ten products of its |det| = 1 entries in ``apply_to_cycle``'s form."""
    a, b, c, d = M
    r = abs(a * d - b * c) ** -0.5
    a, b, c, d = a * r, b * r, c * r, d * r
    ca, cb, cc, cd = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    return a * cd, b * cc, b * cd, a * cc, c * cd, a * cb, (a * ca).real, (b * cb).real, (c * cc).real, (d * cd).real


def _act(action: tuple, C: Cycle) -> Cycle:
    """The image of C under a ``_cycle_action``."""
    a_cd, b_cc, b_cd, a_cc, c_cd, a_cb, a2, b2, c2, d2 = action
    k, L, m = C.k, complex(C.l, C.n), C.m
    image = a_cd * L + b_cc * L.conjugate() + b_cd * k + a_cc * m
    return Cycle(d2 * k + c2 * m + 2.0 * (c_cd * L).real, image.real, image.imag,
                 b2 * k + a2 * m + 2.0 * (a_cb * L).real)
