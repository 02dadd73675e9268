"""Exception types shared across the package."""


class WhergoError(Exception):
    """Base class for all library errors."""


class ZeroTau(WhergoError):
    """The spectral map is undefined at tau = 0."""


class OutOfChart(WhergoError):
    """Point lies outside the exterior prolate-spheroidal chart."""


class ExtremalOrOverRotating(WhergoError):
    """Kerr parameters violate m > a >= 0."""


class ParameterViolation(WhergoError):
    """Model parameters outside their admissible domain."""


class SchemaError(WhergoError):
    """Malformed JSON model file."""


class InvariantViolation(WhergoError):
    """A loaded or constructed matrix fails a structural invariant."""


class NonSquareSystem(WhergoError):
    """Constraint assembly produced a structurally deficient system."""


class NotCanonical(WhergoError):
    """Solution matrix requested from a non-canonical outcome."""


class NonPhysicalM(WhergoError):
    """Solution matrix is not finite and real, or its coset form has a zero denominator."""


class NoRealSolution(WhergoError):
    """Closed-form curve has no real branch at the requested parameter."""


class NoCurveFound(WhergoError):
    """No D = 0 locus detected in the search box."""
