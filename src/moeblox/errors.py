"""Exception types raised by the geometry kernel."""


class MoebloxError(Exception):
    """Base class for every library-specific error."""


class InvalidInput(MoebloxError):
    """Malformed argument: wrong shape, non-finite number, bad literal."""


class DomainError(MoebloxError):
    """Scalar lies outside the tolerated domain of an inverse function."""


# cycle construction and queries -------------------------------------------

class InvalidRadius(MoebloxError):
    """Circle radius must be strictly positive."""


class DegenerateInput(MoebloxError):
    """Two construction points coincide."""


class IsLine(MoebloxError):
    """Centre/radius requested for a cycle with vanishing quadratic term."""


class ImaginaryRadius(MoebloxError):
    """Cycle has negative discriminant: no real locus."""


class ZeroRadiusOperand(MoebloxError):
    """Normalised product is undefined for point (zero-radius) cycles."""


class NumericalBreakdown(MoebloxError):
    """An identity that holds exactly failed beyond tolerance in floats."""


class CoincidentCycles(MoebloxError):
    """Two cycles are projectively equal where distinct ones are required."""


class CollidingPoints(MoebloxError):
    """Points that must be pairwise distinct coincide."""


class SingularMap(MoebloxError):
    """Matrix of a Moebius map is (numerically) non-invertible."""


# pencils --------------------------------------------------------------------

class NotHyperbolic(MoebloxError):
    """Operation requires a hyperbolic (disjoint) pencil."""


# loxodromes -----------------------------------------------------------------

class TripleViolation(MoebloxError):
    """A three-cycle parametrisation invariant failed.

    ``residual`` carries the magnitude of the violation when meaningful.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NotOrthogonal(TripleViolation):
    """First cycle is not orthogonal to the other two."""


class NotDisjoint(TripleViolation):
    """Second and third cycle neither disjoint nor coincident."""


class C1NotInOrthogonalPencil(TripleViolation):
    """First cycle does not pass both limit points of the pencil."""


class NotFinite(MoebloxError):
    """Operation requires a finite spiral parameter."""


class DegenerateTriple(MoebloxError):
    """Operation undefined for this degenerate parametrisation."""


class PointNotOnBoth(MoebloxError):
    """Intersection angle requested at a point missing from a curve."""


class ZeroRadiusCandidate(MoebloxError):
    """Tangency test candidate must not be a point cycle."""


class PointNotOnCurve(MoebloxError):
    """Requested curve construction at a point off the curve."""


class SceneError(MoebloxError):
    """Scene file failed to parse or validate; message carries diagnostics."""
