"""Circles, lines and points as homogeneous quadruples, and the matrix
calculus that turns Moebius transformations into linear algebra.

A cycle ``(k, l, n, m)`` stands for the locus

    k (x^2 + y^2) - 2 l x - 2 n y + m = 0

considered up to a real nonzero rescaling of the quadruple: ``k = 0``
gives a straight line, a vanishing discriminant ``l^2 + n^2 - m k`` a
single point (zero-radius circle), anything else a proper circle.
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
choice.  :func:`canonicalize` fixes one representative per cycle and
every signed quantity in this package is defined on canonical
representatives; callers that need sign-independence fold the residual
ambiguity explicitly (see the loxodrome module).
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from enum import Enum

from .errors import InvalidInput, NumericalBreakdown
from .numerics import DEFAULT_TOLERANCES, Tolerances, _clear_negative_zero, _complex, _decimal, _finite, _quote, _Value

_COORD_CAP = 1e15  # beyond this a homogeneous point collapses to infinity


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
    curve sampling applies it to bare complex numbers."""
    if not (cmath.isfinite(w1) and cmath.isfinite(w2)):
        raise InvalidInput("homogeneous components must be finite")
    if w2 and abs(w1) <= _COORD_CAP * abs(w2):
        return w1 / w2
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
        return cls.from_complex(complex(_decimal(parts[0], what), _decimal(parts[1], what)))

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

    @property
    def disc(self) -> float:
        """Discriminant l^2 + n^2 - m k; zero exactly for point cycles."""
        return self.l * self.l + self.n * self.n - self.m * self.k

    def matrix(self):
        """2x2 matrix form ((conj L, -m), (k, -L))."""
        L = self.L
        return ((L.conjugate(), complex(-self.m)), (complex(self.k), -L))

    def scale(self) -> float:
        return max(abs(self.k), abs(self.l), abs(self.n), abs(self.m))

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

def classify(C: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> CycleKind:
    """LINE for k ~ 0, POINT for vanishing discriminant, CIRCLE otherwise.

    The discriminant test runs first so the point at infinity (0,0,0,1)
    classifies as a point, not a line.  A discriminant or threshold that
    overflows a float raises NumericalBreakdown.
    """
    s = C.scale()
    d, thr = C.disc, tol.eps_product * s * s
    if not (math.isfinite(d) and math.isfinite(thr)):
        raise _overflow(C)
    if abs(d) <= thr:
        return CycleKind.POINT
    if abs(C.k) <= tol.eps_product * s:
        return CycleKind.LINE
    return CycleKind.CIRCLE


def center_radius(C: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[complex, float]:
    """Centre and radius of a circle (radius 0 for a point cycle)."""
    s = C.scale()
    if abs(C.k) <= tol.eps_product * s:
        raise InvalidInput(f"cycle {C!r} has no centre")
    d, thr = C.disc, tol.eps_product * s * s
    if not (math.isfinite(d) and math.isfinite(thr)):
        raise _overflow(C)
    if d < -thr:
        raise InvalidInput(f"cycle {C!r} has negative discriminant {d!r}")
    return complex(C.l / C.k, C.n / C.k), math.sqrt(max(d, 0.0)) / abs(C.k)


def _line_frame(C: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[complex, complex]:
    """A point and a unit direction of a line: the foot of its normal from
    the origin, and its canonical unit normal turned by a quarter turn."""
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
    Oishi, SIAM J. Sci. Comput. 26(6), 2005).  A pencil whose
    ``pencil_discriminant`` is finite has cycles that split without overflow."""
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


def _overflow(*cycles: Cycle) -> NumericalBreakdown:
    """The refusal of a zero test on products of the cycles that are not
    finite: a test against inf or NaN decides nothing."""
    return NumericalBreakdown(f"products of {' and '.join(map(_quote, cycles))} overflow a float")


def _norm_square(C: Cycle) -> tuple[float, float]:
    """<C,C> and the square of C's largest component, the scale of a zero
    test on <C,C>, both refused when not finite."""
    n = C.scale()
    s, n = product(C, C), n * n
    if not (math.isfinite(s) and math.isfinite(n)):
        raise _overflow(C)
    return s, n


def canonicalize(C: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> Cycle:
    """Fix the projective scale: k = +1 when k does not vanish, else a
    unit normal (l, n) with its first nonvanishing component positive,
    else m = +1."""
    s = C.scale()
    eps = tol.eps_product * s
    if abs(C.k) > eps:
        if C.k == 1.0:
            return C
        t = 1.0 / C.k
        k, l, n, m = 1.0, C.l * t, C.n * t, C.m * t  # exact pivot
    elif (r := math.hypot(C.l, C.n)) > eps:
        t = math.copysign(1.0, C.l if abs(C.l) > eps else C.n) / r
        k, l, n, m = C.k * t, C.l * t, C.n * t, C.m * t
    else:
        t = 1.0 / C.m
        k, l, n, m = C.k * t, C.l * t, C.n * t, 1.0
    return Cycle(k, l, n, m)  # refuses a component that overflowed


def _canonical_equal(a: Cycle, b: Cycle, tol: Tolerances) -> bool:
    """Are the canonical cycles a and b projectively equal: every
    component within eps_product of the other, relative to max(1, |a|, |b|)?"""
    thr = tol.eps_product * max(1.0, a.scale(), b.scale())
    return abs(a.k - b.k) <= thr and abs(a.l - b.l) <= thr and abs(a.n - b.n) <= thr and abs(a.m - b.m) <= thr


def normalized_product(C: Cycle, Cp: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """<C,C'> / sqrt(<C,C> <C',C'>) evaluated on canonical representatives.

    Deterministic up to the canonical sign convention: for concentric
    circles the value is +cosh of the log radius ratio, for crossing
    lines it is +-cos of the angle depending on which unit normals the
    canonicalisation picked.
    """
    a, b = canonicalize(C, tol), canonicalize(Cp, tol)
    return _cosine(a, b, *_norm_square(a), *_norm_square(b), tol)


def _cosine(a: Cycle, b: Cycle, sa: float, ra: float, sb: float, rb: float, tol: Tolerances) -> float:
    """``normalized_product`` of canonical a and b given their ``_norm_square``."""
    if sa <= tol.eps_product * ra or sb <= tol.eps_product * rb:
        raise InvalidInput("normalised product needs two non-point cycles")
    return product(a, b) / math.sqrt(sa * sb)


def combine(alpha: float, C: Cycle, beta: float, Cp: Cycle) -> Cycle:
    """Componentwise alpha C + beta C' (safe for a vanishing coefficient)."""
    return Cycle(alpha * C.k + beta * Cp.k, alpha * C.l + beta * Cp.l,
                 alpha * C.n + beta * Cp.n, alpha * C.m + beta * Cp.m)


def pencil_discriminant(
    C: Cycle, Cp: Cycle, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[float, float]:
    """(<C,C'>^2 - <C,C><C',C'>, comparison scale) for pencil trichotomy.

    The scale follows the products themselves, not the component norms:
    products are invariants, component sizes are an artifact of the
    representative (a far-translated circle has huge components but the
    same products).  A floor at the products' own roundoff level keeps
    the sign test meaningful for cancelling configurations.
    """
    ab = product(C, Cp)
    ab2, ss = ab * ab, product(C, C) * product(Cp, Cp)
    floor = tol.eps_product * 4.0 * C.scale() * Cp.scale()
    floor *= floor
    if not (math.isfinite(ab2) and math.isfinite(ss) and math.isfinite(floor)):
        raise _overflow(C, Cp)
    return ab2 - ss, max(ab2, abs(ss), floor, 1e-300)


def classify_pencil(C: Cycle, Cp: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> PencilKind:
    """Type of the pencil of C and C': <C,C'>^2 less than <C,C><C',C'> is
    elliptic (crossing), equal parabolic (tangent), greater hyperbolic
    (disjoint), each up to eps_product of the ``pencil_discriminant``
    scale.  The one place that draws these lines."""
    return _pencil_kind(*pencil_discriminant(C, Cp, tol), tol)


def _pencil_kind(q: float, scale: float, tol: Tolerances) -> PencilKind:
    """``classify_pencil`` on a ``pencil_discriminant`` already formed."""
    thr = tol.eps_product * scale
    if q < -thr:
        return PencilKind.ELLIPTIC
    if q <= thr:
        return PencilKind.PARABOLIC
    return PencilKind.HYPERBOLIC


def zero_radius_members(A: Cycle, B: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[Cycle, Cycle]:
    """The two point members of the hyperbolic pencil of A and B,
    canonicalised and in a deterministic order; any other pencil,
    coincident cycles included, raises InvalidInput.

    Solves <xA + yB, xA + yB> = 0 in homogeneous (x : y) with the
    cancellation-free root pairing, so a near-point A does not degrade
    the second root.  The discriminant <A,B>^2 - <A,A><B,B> of nearby
    cycles is the difference of two nearly equal terms, which would cost
    the roots a relative error of eps over its size.  So when those
    terms outweigh it, A becomes the cycle of larger |<A,A>| and B is
    replaced by B - (<A,B>/<A,A>) A: the same pencil, spanned by two
    orthogonal cycles, whose discriminant -<A,A><B,B> cancels nothing.
    Those products are ``_accurate_product``s: correctly rounded where they cancel.
    """
    disc, scale = pencil_discriminant(A, B, tol)
    if _pencil_kind(disc, scale, tol) != PencilKind.HYPERBOLIC:
        raise InvalidInput(f"pencil discriminant {disc!r} is not positive")
    a, c = _accurate_product(A, A), _accurate_product(B, B)
    if a * c > disc:
        if abs(c) > abs(a):
            A, B, a = B, A, c
        B = combine(1.0, B, -_accurate_product(A, B) / a, A)
    b, c = _accurate_product(A, B), _accurate_product(B, B)
    root = math.sqrt(b * b - a * c)
    sb = 1.0 if b >= 0 else -1.0
    qq = -(b + sb * root)
    members = [
        canonicalize(combine(qq, A, a, B), tol),
        canonicalize(combine(c, A, qq, B), tol),
    ]
    members.sort(key=lambda z: (z.k, z.l, z.n, z.m))
    return members[0], members[1]


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def _orthogonality_residual(C: Cycle, Cp: Cycle, tol: Tolerances) -> float:
    """0.0 when the product of C and C' vanishes relative to their
    component scales; else its size, the residual of the violation."""
    r = abs(product(C, Cp))
    return 0.0 if r <= tol.eps_product * 4.0 * max(C.scale() * Cp.scale(), 1e-300) else r


def is_orthogonal(C: Cycle, Cp: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Vanishing product relative to the component scales."""
    return not _orthogonality_residual(C, Cp, tol)


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
    a, b, c, d = M
    r = abs(a * d - b * c) ** -0.5
    a, b, c, d = a * r, b * r, c * r, d * r
    ca, cb, cc, cd = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    k, L, m = C.k, complex(C.l, C.n), C.m
    image = a * cd * L + b * cc * L.conjugate() + b * cd * k + a * cc * m
    return Cycle(
        (d * cd).real * k + (c * cc).real * m + 2.0 * (c * cd * L).real,
        image.real,
        image.imag,
        (b * cb).real * k + (a * ca).real * m + 2.0 * (a * cb * L).real,
    )
