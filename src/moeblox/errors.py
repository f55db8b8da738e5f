"""Exception types raised by the geometry kernel: one for each thing a
caller can do about a refusal.  The message says which check failed."""


class MoebloxError(Exception):
    """Base class for every library-specific error."""


class InvalidInput(MoebloxError):
    """Malformed or unusable argument: fix it and ask again."""


class SceneError(InvalidInput):
    """Scene file failed to parse or validate; message carries diagnostics."""


class TripleViolation(MoebloxError):
    """The cycles are not a loxodrome triple, or not one the operation
    takes (a circle or line degeneration where a spiral is needed).

    ``residual`` carries the magnitude of the violation when meaningful.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class PointNotOnCurve(MoebloxError):
    """A query needs a point of the curve (of both curves, for an angle)."""


class NumericalBreakdown(MoebloxError):
    """The input lies outside the range floats decide: a product
    overflows, or an identity that holds exactly fails beyond tolerance."""
