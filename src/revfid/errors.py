"""Exception hierarchy shared across the package."""


class RevfidError(Exception):
    """Base class for all library errors."""


class ValidationError(RevfidError):
    """Input fails a structural contract (shape, trace, normalization)."""


class DimensionMismatchError(ValidationError):
    """Operands have incompatible dimensions."""


class DomainError(RevfidError):
    """Input is structurally valid but outside the operation's domain."""


class NotPsdError(DomainError):
    """Matrix has an eigenvalue below the PSD tolerance, both printed in the message."""


class SingularStateError(DomainError):
    """State lacks the strict positivity the operation requires."""
