"""Circles, lines and points as homogeneous quadruples, and the matrix
calculus that turns Moebius transformations into linear algebra.

A cycle ``(k, l, n, m)`` stands for the locus

    k (x^2 + y^2) - 2 l x - 2 n y + m = 0

considered up to a real nonzero rescaling of the quadruple: ``k = 0`` gives
a straight line, a vanishing ``<C, C> = 2 (l^2 + n^2 - m k)`` a single point,
anything else a proper circle.  Packing the components into the 2x2 matrix

    [[ conj(L), -m ],
     [ k,       -L ]],        L = l + i n,

makes the map ``z -> (a z + b) / (c z + d)`` act on cycles by the
twisted conjugation ``C -> conj(M) C M^-1`` and makes the trace pairing

    <C, C'> = L conj(L') + conj(L) L' - m k' - k m'
            = 2 (l l' + n n') - (m k' + k m')

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
        ad, bc = a * d, b * c
        if abs(ad - bc) <= DEFAULT_TOLERANCES.eps_product * (abs(ad) + abs(bc)):  # against its terms
            raise InvalidInput(f"matrix determinant {ad - bc!r} vanishes at scale {max(map(abs, (a, b, c, d)))!r}")
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
    C = Cycle(0.0, l, n, 2.0 * (l * p.real + n * p.imag))  # refuses an m that overflowed
    # canonicalize's reading of k = 0 is fixed: <B,B> = T(B) = 2(l^2 + n^2), no
    # point, s = sqrt(l^2 + n^2), whose squares do not underflow, as |p| < |d| / eps
    # makes m overflow before (l, n) is 2^-537 of it
    B = _binary_scaled(C)
    return _canonical(*B, math.sqrt(B.l * B.l + B.n * B.n), tol)


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

def _binary_scaled(C: Cycle) -> Cycle:
    """C as given when its scale is in [2^-100, 2^99), else scaled exactly
    by a power of two to a largest component in [0.5, 1), as products of
    it may overflow or underflow a float there."""
    if _KEPT_LOW <= (s := C.scale()) < _KEPT_HIGH:
        return C
    e = math.frexp(s)[1]
    return Cycle(*(math.ldexp(x, -e) for x in C))


def _reading(C: Cycle, tol: Tolerances) -> tuple[Cycle, float, float, bool, bool]:
    """The one reading of a cycle: C binary-scaled as B, d = <B,B>, s =
    sqrt(T(B) / 2), the point test |d| <= eps_product T(B) (the check's) and the
    line test: k vanishes, |k| <= eps_product s, and the normal (l, n) does not
    (where both vanish, k gives a circle about the origin).  T(C) / 2k^2 is |c|^2 +
    | |c|^2 - r^2 | for a circle of centre c and radius r; a cycle of no real locus
    is d < 0, no point."""
    d, terms = _accurate_product(B := _binary_scaled(C), B)
    s = math.sqrt(0.5 * terms)
    small = tol.eps_product * s  # the size at which k, or (l, n), vanishes
    return B, d, s, abs(d) <= tol.eps_product * terms, abs(B.k) <= small and math.hypot(B.l, B.n) > small


def classify(C: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> CycleKind:
    """POINT by the ``_reading``'s point test (first, so (0,0,0,1) is a
    point), LINE by its line test, CIRCLE otherwise."""
    _, _, _, point, line = _reading(C, tol)
    return CycleKind.POINT if point else CycleKind.LINE if line else CycleKind.CIRCLE


def center_radius(C: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[complex, float]:
    """Centre and radius sqrt(<C,C> / 2) / |k| of a circle (0 for a point),
    off ``classify``'s reading; a line, a point of k = 0 (at infinity) and a
    cycle of no real locus are refused."""
    B, d, _, point, line = _reading(C, tol)
    if line or (point and not B.k):
        raise InvalidInput(f"cycle {C!r} has no centre")
    if d < 0.0 and not point:
        raise InvalidInput(f"cycle {C!r} has negative discriminant {d / 2!r}")
    return complex(B.l / B.k, B.n / B.k), math.sqrt(max(d / 2, 0.0)) / abs(B.k)


def _locus(C: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple:
    """What C draws, off ``classify``'s reading: (POINT, ``point_of``, None);
    a cycle of no real locus refused as by ``center_radius``; (LINE, the foot
    of its normal from the origin, its canonical unit normal turned a quarter
    turn); else (CIRCLE, ``center_radius``'s centre and radius)."""
    B, d, s, point, line = _reading(C, tol)
    if point:
        return CycleKind.POINT, point_of(C), None
    if d < 0.0:
        raise InvalidInput(f"cycle {C!r} has negative discriminant {d / 2!r}")
    if line:
        frame = _canonical(*B, s, tol)
        normal = complex(frame.l, frame.n)
        return CycleKind.LINE, (frame.m / 2.0) * normal, 1j * normal
    return CycleKind.CIRCLE, complex(B.l / B.k, B.n / B.k), math.sqrt(d / 2) / abs(B.k)


def point_of(C: Cycle) -> ExtendedPoint:
    """Point of a zero-radius cycle, (L : k) or, where |m| > |k|, (m : conj L),
    for L = l + i n: ``ExtendedPoint``'s coordinate cap, no tolerance, makes infinity."""
    k, l, n, m = C
    return ExtendedPoint(m, complex(l, -n)) if abs(m) > abs(k) else ExtendedPoint(complex(l, n), k)


# ---------------------------------------------------------------------------
# the invariant product
# ---------------------------------------------------------------------------

def product(C: Cycle, Cp: Cycle) -> float:
    """Trace pairing 2(l l' + n n') - (m k' + k m') on the given representatives:
    scale-covariant, not scale-invariant."""
    return _float_product(C, Cp)[0]


def _float_product(C: Cycle, Cp: Cycle) -> tuple[float, float]:
    """``product`` and its terms T(C, C') = 2(|l l'| + |n n'|) + |m k'| + |k m'|,
    eps_product T being what rounding the components could change (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3): every
    zero test of a product reads it, a cross product through ``_cross_bound``."""
    (k, l, n, m), (k2, l2, n2, m2) = C, Cp
    ll, nn, mk, km = l * l2, n * n2, m * k2, k * m2
    return 2.0 * (ll + nn) - (mk + km), 2.0 * (abs(ll) + abs(nn)) + abs(mk) + abs(km)


def _accurate_product(C: Cycle, Cp: Cycle) -> tuple[float, float]:
    """``_float_product``, correctly rounded where it cancels below 1e-2 of T:
    Dekker's TwoProduct splits each term x y into p + e exactly and ``math.fsum``
    sums the parts (Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26(6), 2005)."""
    value, terms = _float_product(C, Cp)
    if abs(value) > 1e-2 * terms:
        return value, terms
    (k, l, n, m), (k2, l2, n2, m2), parts = C, Cp, []
    for x, y, w in ((l, l2, 2.0), (n, n2, 2.0), (m, k2, -1.0), (k, m2, -1.0)):
        p = x * y
        xh, yh = (t := 134217729.0 * x) - (t - x), (u := 134217729.0 * y) - (u - y)
        xl, yl = x - xh, y - yh
        parts += (w * p, w * (xl * yl - (((p - xh * yh) - xl * yh) - xh * yl)))
    return math.fsum(parts), terms


def _cross_bound(terms: float, ta: float, tb: float) -> float:
    """The scale against which a cross product <A,B> of terms T(A,B) vanishes:
    the larger of T(A,B) and sqrt(T(A)) sqrt(T(B)), the two cycles' own terms."""
    return max(terms, math.sqrt(ta) * math.sqrt(tb))


def canonicalize(C: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> Cycle:
    """Fix the projective scale of C binary-scaled off ``classify``'s reading: a point
    or a cycle of no real locus on ``point_of``'s chart; else k = +1 unless k vanishes,
    else a unit normal (l, n) with its first nonvanishing component positive, else m = +1."""
    B, d, s, point, _ = _reading(C, tol)
    return _canonical(*B, None if point or d < 0.0 else s, tol, C)


def _canonical(k: float, l: float, n: float, m: float, s: float | None, tol: Tolerances,
               given: Cycle | None = None) -> Cycle:
    """``canonicalize`` of (k, l, n, m), a component vanishing within eps_product s
    (s None pivots as ``point_of`` reads: on m where |m| > |k|, else on k), as one
    Cycle; ``given``, the quadruple's Cycle if built, is returned if canonical."""
    eps = (0.0 if abs(k) >= abs(m) else math.inf) if s is None else tol.eps_product * s
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
    pencil = _pencil(_binary_scaled(canonicalize(C, tol)), _binary_scaled(canonicalize(Cp, tol)), tol)
    if pencil.a <= tol.eps_product * pencil.terms[0] or pencil.c <= tol.eps_product * pencil.terms[2]:
        raise InvalidInput("normalised product needs two non-point cycles")
    return pencil.b / math.sqrt(pencil.a * pencil.c)


_Pencil = namedtuple("_Pencil", "a b c disc scale coincident frame terms")


def _pencil(A: Cycle, B: Cycle, tol: Tolerances) -> _Pencil:
    """The ``_accurate_product``s of the pencil of A and B, formed once for
    every question on it: a = <A,A>, b = <A,B>, c = <B,B>, disc = b^2 - ac,
    the scale of its zero test (b^2, ac or b's bound squared), whether A and
    B are one cycle, a frame (A', B', <A',A'>, <A',B'>, <B',B'>), and the
    ``terms`` T(A), b's ``_cross_bound`` and T(B).  Where b^2 and ac outweigh
    disc, A' is the cycle of larger |<A,A>| / T(A) and B' the other less its
    projection on A', so disc = -<A',A'><B',B'> cancels nothing.  The pair
    is one cycle when B' is within 4 eps_product of its source and their
    canonical forms agree to eps_product of max(1, their scales).  A and B
    come from ``_binary_scaled``, so no product overflows."""
    (a, ta), (b, tb), (c, tc) = _accurate_product(A, A), _accurate_product(A, B), _accurate_product(B, B)
    ac, bb, tb = a * c, b * b, _cross_bound(tb, ta, tc)
    disc, frame, coincident = bb - ac, (A, B, a, b, c), False
    if ac > disc:
        X, Y, x = (B, A, c) if abs(c) * ta > abs(a) * tc else (A, B, a)
        t = b / x
        k, l, n, m = Y.k - t * X.k, Y.l - t * X.l, Y.n - t * X.n, Y.m - t * X.m
        if max(abs(k), abs(l), abs(n), abs(m)) <= 4.0 * tol.eps_product * max(map(abs, Y)):
            P, Q = canonicalize(A, tol), canonicalize(B, tol)
            thr = tol.eps_product * max(1.0, P.scale(), Q.scale())
            coincident = all(abs(p - q) <= thr for p, q in zip(P, Q))
        if k or l or n or m:
            Y = Cycle(k, l, n, m)
            # compensated, though <A',B'> is near 0 by construction: as a float
            # product, TestLimitPointAccuracy::test_squeezed_maps misses its
            # 1e-8 bound by 1e4 (worst 1.0e-4), and the pass is no faster
            y, z = _accurate_product(X, Y)[0], _accurate_product(Y, Y)[0]
            disc, frame = y * y - x * z, (X, Y, x, y, z)
        else:  # B' vanishes to the last bit: the pencil is one cycle
            disc = 0.0
    return _Pencil(a, b, c, disc, max(bb, abs(ac), (tol.eps_product * tb) ** 2), coincident, frame, (ta, tb, tc))


def classify_pencil(C: Cycle, Cp: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> PencilKind:
    """Type of the pencil of C and C': <C,C'>^2 less than <C,C><C',C'> is
    elliptic (crossing), equal parabolic (tangent), greater hyperbolic
    (disjoint), each up to eps_product of the ``_pencil`` scale, formed on
    C and C' binary-scaled.  The one place that draws these lines."""
    pencil = _pencil(_binary_scaled(C), _binary_scaled(Cp), tol)
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
    return _root_pairing(_pencil(_binary_scaled(A), _binary_scaled(B), tol), tol)


def _root_pairing(pencil: _Pencil, tol: Tolerances) -> tuple[Cycle, Cycle]:
    """``zero_radius_members`` of a formed pencil: <xA' + yB', xA' + yB'> = 0
    solved on its frame in homogeneous (x : y) by the cancellation-free
    root pairing, so a near-point A' does not degrade the second root.
    Each member is formed componentwise and canonicalised as a point, as one Cycle."""
    if _pencil_kind(pencil.disc, pencil.scale, tol) != PencilKind.HYPERBOLIC:
        raise InvalidInput(f"pencil discriminant {pencil.disc!r} is not positive")
    A, B, a, b, c = pencil.frame
    root = math.sqrt(pencil.disc)
    sb = 1.0 if b >= 0 else -1.0
    qq = -(b + sb * root)
    P = (qq * A.k + a * B.k, qq * A.l + a * B.l, qq * A.n + a * B.n, qq * A.m + a * B.m)
    Q = (c * A.k + qq * B.k, c * A.l + qq * B.l, c * A.n + qq * B.n, c * A.m + qq * B.m)
    P, Q = (_canonical(*X, None, tol) for X in (P, Q))
    return (P, Q) if tuple.__le__(P, Q) else (Q, P)  # in the order of their components


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def _orthogonality_residual(C: Cycle, Cp: Cycle, tc: float, tcp: float, tol: Tolerances) -> float:
    """0.0 when the float ``product`` of C and C', of own terms tc and tcp,
    vanishes against ``_cross_bound``; else its size, the violation's residual."""
    r, terms = _float_product(C, Cp)
    return 0.0 if abs(r) <= tol.eps_product * _cross_bound(terms, tc, tcp) else abs(r)


def is_orthogonal(C: Cycle, Cp: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Vanishing product against its terms or the cycles' own, read binary-scaled."""
    A, B = _binary_scaled(C), _binary_scaled(Cp)
    return not _orthogonality_residual(A, B, _float_product(A, A)[1], _float_product(B, B)[1], tol)


def passes(C: Cycle, p: ExtendedPoint | complex, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Incidence: C binary-scaled is orthogonal to the point cycle at p (finite
    products inside the coordinate cap), whose T is read at least at 4, the
    point 1's, as ``approx_eq`` knows p to eps_product max(1, |p|)."""
    A, P = _binary_scaled(C), zero_radius_at(p)
    return not _orthogonality_residual(A, P, _float_product(A, A)[1], max(_float_product(P, P)[1], 4.0), tol)


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
