"""Exception types shared across the package."""


class HoloentError(Exception):
    """Base class for all package errors."""


class ZeroState(HoloentError):
    """Operation requires a nonzero state."""


class NotNormalized(HoloentError):
    """Operation requires a unit-norm input."""


class IndexOutOfRange(HoloentError):
    """Basis index outside [0, k]."""


class DomainError(HoloentError):
    """Arguments outside the domain of a closed-form expression."""


class NotOrthonormal(HoloentError, ValueError):
    """A supplied basis fails the orthonormality check."""


class SingularFit(HoloentError):
    """Least-squares design matrix is rank deficient or underdetermined."""


class DegenerateSpectrum(UserWarning):
    """Schmidt values collide within tolerance; gradients use a subgradient choice."""
