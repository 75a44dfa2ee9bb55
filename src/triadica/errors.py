"""Exception hierarchy shared across the package."""


class TriadicaError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(TriadicaError):
    """A matrix or tensor has a shape inconsistent with its declared context."""


class InvariantError(TriadicaError):
    """An internal consistency check failed: a bug, or input that slipped
    past the validators."""


class UsageError(TriadicaError):
    """Ill-formed request: wrong target shape or an unknown name."""
