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

Because cycles are projective, the *sign* of the quadruple is a free
choice.  :func:`canonicalize` fixes one representative per cycle and
every signed quantity in this package is defined on canonical
representatives; callers that need sign-independence fold the residual
ambiguity explicitly (see the loxodrome module).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidInput, NumericalBreakdown
from .numerics import DEFAULT_TOLERANCES, Tolerances, _decimal, _quote

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


@dataclass(frozen=True)
class ExtendedPoint:
    """Point of the extended complex plane in homogeneous form (w1 : w2).

    Representatives are normalised at construction: finite points are
    stored as ``(z, 1)``, the point at infinity as ``(1, 0)``.
    """

    w1: complex
    w2: complex

    def __post_init__(self):
        z = _affine(complex(self.w1), complex(self.w2))
        if z is not None:
            object.__setattr__(self, "w1", z)
            object.__setattr__(self, "w2", complex(1.0))
        else:
            object.__setattr__(self, "w1", complex(1.0))
            object.__setattr__(self, "w2", complex(0.0))

    @classmethod
    def from_complex(cls, z: complex) -> "ExtendedPoint":
        return cls(complex(z), 1.0)

    @classmethod
    def infinity(cls) -> "ExtendedPoint":
        return cls(1.0, 0.0)

    @classmethod
    def _from_affine(cls, z: complex | None) -> "ExtendedPoint":
        """The point for a value ``_affine`` returned, which needs no
        second check: (z : 1), or (1 : 0) for None."""
        p = object.__new__(cls)
        object.__setattr__(p, "w1", complex(1.0) if z is None else z)
        object.__setattr__(p, "w2", complex(0.0) if z is None else complex(1.0))
        return p

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
        return f"{z.real:.{precision}f},{z.imag:.{precision}f}"

    def approx_eq(self, other: "ExtendedPoint", tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
        cross = self.w1 * other.w2 - self.w2 * other.w1
        scale = max(
            abs(self.w1 * other.w1),
            abs(self.w1 * other.w2),
            abs(self.w2 * other.w1),
            abs(self.w2 * other.w2),
            1.0,
        )
        return abs(cross) <= tol.eps_product * scale


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cycle:
    """Homogeneous quadruple (k, l, n, m) of a circle, line or point."""

    k: float
    l: float
    n: float
    m: float

    def __post_init__(self):
        comps = (self.k, self.l, self.n, self.m)
        if not all(math.isfinite(c) for c in comps):
            raise InvalidInput("cycle components must be finite")
        if all(c == 0 for c in comps):
            raise InvalidInput("cycle components must not all vanish")
        for name in ("k", "l", "n", "m"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @classmethod
    def _from_floats(cls, k: float, l: float, n: float, m: float) -> "Cycle":
        """The cycle of finite float components, not all zero, unchecked."""
        C = object.__new__(cls)
        for name, value in (("k", k), ("l", l), ("n", n), ("m", m)):
            object.__setattr__(C, name, value)
        return C

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

    def __sub__(self, other: "Cycle") -> "Cycle":
        return Cycle(self.k - other.k, self.l - other.l, self.n - other.n, self.m - other.m)

    def to_json(self):
        return [self.k, self.l, self.n, self.m]


# ---------------------------------------------------------------------------
# Moebius maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MoebiusMap:
    """Invertible map z -> (a z + b) / (c z + d) of the extended plane."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        entries = [complex(getattr(self, name)) for name in "abcd"]
        if not all(
            math.isfinite(e.real) and math.isfinite(e.imag) for e in entries
        ):
            raise InvalidInput("matrix entries must be finite")
        top = max(abs(e) for e in entries)
        det = entries[0] * entries[3] - entries[1] * entries[2]
        if abs(det) <= DEFAULT_TOLERANCES.eps_product * top * top:
            raise InvalidInput(f"matrix determinant {det!r} vanishes at scale {top!r}")
        for name, e in zip("abcd", entries):
            object.__setattr__(self, name, e)

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
        entries = [e / root for e in (self.a, self.b, self.c, self.d)]
        lead = max(entries, key=abs)
        if lead.real < 0 or (lead.real == 0 and lead.imag < 0):
            entries = [-e for e in entries]
        return MoebiusMap(*entries)

    def to_json(self):
        return [[e.real, e.imag] for e in (self.a, self.b, self.c, self.d)]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def from_circle(center: complex, radius: float) -> Cycle:
    """Cycle of the circle |z - center| = radius."""
    if radius <= 0:
        raise InvalidInput(f"radius must be positive, got {radius!r}")
    c = complex(center)
    return Cycle(1.0, c.real, c.imag, c.real * c.real + c.imag * c.imag - radius * radius)


def from_line(p: complex, q: complex, tol: Tolerances = DEFAULT_TOLERANCES) -> Cycle:
    """Canonicalised k = 0 cycle of the straight line through p and q."""
    p, q = complex(p), complex(q)
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
        z = complex(p)
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


def self_product(C: Cycle) -> float:
    return product(C, C)


def _overflow(*cycles: Cycle) -> NumericalBreakdown:
    """The refusal of a zero test on products of the cycles that are not
    finite: a test against inf or NaN decides nothing."""
    return NumericalBreakdown(f"products of {' and '.join(map(_quote, cycles))} overflow a float")


def _norm_square(C: Cycle) -> tuple[float, float]:
    """<C,C> and the square of C's largest component, the scale of a zero
    test on <C,C>, both refused when not finite."""
    n = C.scale()
    s, n = self_product(C), n * n
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
        t = 1.0 / C.k
        k, l, n, m = 1.0, C.l * t, C.n * t, C.m * t  # exact pivot
    elif (r := math.hypot(C.l, C.n)) > eps:
        t = math.copysign(1.0, C.l if abs(C.l) > eps else C.n) / r
        k, l, n, m = C.k * t, C.l * t, C.n * t, C.m * t
    else:
        t = 1.0 / C.m
        k, l, n, m = C.k * t, C.l * t, C.n * t, 1.0
    # a unit pivot never vanishes; Cycle refuses a component that overflowed
    return Cycle._from_floats(k, l, n, m) if math.isfinite(k + l + n + m) else Cycle(k, l, n, m)


def _canonical_equal(a: Cycle, b: Cycle, tol: Tolerances) -> bool:
    """Are the canonical cycles a and b projectively equal: every
    component within eps_product of the other, relative to max(1, |a|, |b|)?"""
    thr = tol.eps_product * max(1.0, a.scale(), b.scale())
    return (
        abs(a.k - b.k) <= thr
        and abs(a.l - b.l) <= thr
        and abs(a.n - b.n) <= thr
        and abs(a.m - b.m) <= thr
    )


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
    return Cycle(
        alpha * C.k + beta * Cp.k,
        alpha * C.l + beta * Cp.l,
        alpha * C.n + beta * Cp.n,
        alpha * C.m + beta * Cp.m,
    )


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
    ab2, ss = ab * ab, self_product(C) * self_product(Cp)
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


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def is_orthogonal(C: Cycle, Cp: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Vanishing product relative to the component scales."""
    thr = tol.eps_product * 4.0 * max(C.scale() * Cp.scale(), 1e-300)
    return abs(product(C, Cp)) <= thr


def passes(C: Cycle, p: ExtendedPoint | complex, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Incidence: the product with the point cycle at p vanishes."""
    return is_orthogonal(C, zero_radius_at(p), tol)


# ---------------------------------------------------------------------------
# Moebius action
# ---------------------------------------------------------------------------

def apply_to_point(M: MoebiusMap, p: ExtendedPoint) -> ExtendedPoint:
    return ExtendedPoint(M.a * p.w1 + M.b * p.w2, M.c * p.w1 + M.d * p.w2)


def _mat2mul(X, Y):
    return (
        (X[0][0] * Y[0][0] + X[0][1] * Y[1][0], X[0][0] * Y[0][1] + X[0][1] * Y[1][1]),
        (X[1][0] * Y[0][0] + X[1][1] * Y[1][0], X[1][0] * Y[0][1] + X[1][1] * Y[1][1]),
    )


def apply_to_cycle(M: MoebiusMap, C: Cycle, tol: Tolerances = DEFAULT_TOLERANCES) -> Cycle:
    """Image cycle with matrix conj(M) C M^-1 on the determinant-1
    representative of M.

    The normalisation matters: with a complex determinant the raw
    conjugation returns the cycle matrix times a complex unit, which has
    no real quadruple.  On the det-1 representative the result is exact
    up to roundoff, so tiny imaginary residues on the k and m entries
    get snapped to zero; a residue above tolerance raises
    NumericalBreakdown.
    """
    root = cmath.sqrt(M.det)
    a, b, c, d = M.a / root, M.b / root, M.c / root, M.d / root
    inv = ((d, -b), (-c, a))
    conj = ((a.conjugate(), b.conjugate()), (c.conjugate(), d.conjugate()))
    R = _mat2mul(conj, _mat2mul(C.matrix(), inv))
    k2 = R[1][0]
    m2 = -R[0][1]
    # two independent estimates of L = l + i n: conj(R00) and -R11
    L2 = (R[0][0].conjugate() - R[1][1]) / 2.0
    scale = max(abs(R[0][0]), abs(R[0][1]), abs(R[1][0]), abs(R[1][1]), 1e-300)
    residue = max(
        abs(k2.imag),
        abs(m2.imag),
        abs(R[0][0].conjugate() + R[1][1]) / 2.0,
    )
    if residue > tol.eps_product * scale:
        raise NumericalBreakdown(
            f"imaginary residue {residue!r} exceeds tolerance at scale {scale!r}"
        )
    return Cycle(k2.real, L2.real, L2.imag, m2.real)


# ---------------------------------------------------------------------------
# intersections
# ---------------------------------------------------------------------------

def _point_sort_key(p: ExtendedPoint):
    if p.is_infinity:
        return (1, 0.0, 0.0)
    z = p.as_complex()
    return (0, round(z.real, 9), round(z.imag, 9))


def _line_circle_points(line: Cycle, circ: Cycle, tangent: bool, tol: Tolerances):
    c, r = center_radius(circ, tol)
    # canonical line: unit normal (l, n), offset m/2
    l, n, h = line.l, line.n, line.m / 2.0
    d = l * c.real + n * c.imag - h
    foot = c - d * complex(l, n)
    if tangent:
        return [ExtendedPoint.from_complex(foot)]
    half = math.sqrt(max(r * r - d * d, 0.0))
    tdir = complex(-n, l)
    return [
        ExtendedPoint.from_complex(foot - half * tdir),
        ExtendedPoint.from_complex(foot + half * tdir),
    ]


def intersect(
    C: Cycle, Cp: Cycle, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[ExtendedPoint, ...]:
    """Real intersection points of two distinct cycles.

    The count follows the pencil trichotomy by construction: two points
    for a crossing (elliptic) pair, one for tangency (parabolic), none
    for a disjoint (hyperbolic) pair.  Two crossing lines meet at their
    finite point and at infinity; parallel lines only at infinity.
    Circle pairs reduce to the radical line to avoid cancellation near
    tangency.  Defined for real loci (lines, points, proper circles).
    """
    a = canonicalize(C, tol)
    b = canonicalize(Cp, tol)
    if _canonical_equal(a, b, tol):
        raise InvalidInput("intersection of a cycle with itself is the cycle")
    kind = classify_pencil(C, Cp, tol)
    if kind == PencilKind.HYPERBOLIC:
        return ()
    tangent = kind == PencilKind.PARABOLIC

    a_line = abs(a.k) <= tol.eps_product * a.scale()
    b_line = abs(b.k) <= tol.eps_product * b.scale()

    if a_line and b_line:
        if tangent:  # parallel lines touch at infinity
            return (ExtendedPoint.infinity(),)
        det2 = a.l * b.n - a.n * b.l
        x = (a.m / 2.0 * b.n - a.n * b.m / 2.0) / det2
        y = (a.l * b.m / 2.0 - a.m / 2.0 * b.l) / det2
        pts = [ExtendedPoint.from_complex(complex(x, y)), ExtendedPoint.infinity()]
    elif a_line or b_line:
        line, circ = (a, b) if a_line else (b, a)
        pts = _line_circle_points(line, circ, tangent, tol)
    else:
        radical = canonicalize(a - b, tol)  # k = 0: the radical line
        pts = _line_circle_points(radical, a, tangent, tol)
    return tuple(sorted(pts, key=_point_sort_key))


# ---------------------------------------------------------------------------
# three-point normal form
# ---------------------------------------------------------------------------

def map_to_zero_one_inf(
    p0: ExtendedPoint,
    pu: ExtendedPoint,
    pinf: ExtendedPoint,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> MoebiusMap:
    """The Moebius map sending p0 -> 0, pu -> 1, pinf -> infinity.

    Built from cross-ratio determinants on homogeneous coordinates, so
    any of the three points may be infinity.
    """
    pts = (p0, pu, pinf)
    for i in range(3):
        for j in range(i + 1, 3):
            if pts[i].approx_eq(pts[j], tol):
                raise InvalidInput(f"points {i} and {j} coincide")

    def det(p: ExtendedPoint, q: ExtendedPoint) -> complex:
        return p.w1 * q.w2 - p.w2 * q.w1

    duc = det(pu, pinf)
    dua = det(pu, p0)
    M = MoebiusMap(
        p0.w2 * duc, -p0.w1 * duc, pinf.w2 * dua, -pinf.w1 * dua
    )
    return M.normalized()
