"""Exception types shared across the package; argument errors are also ValueError/IndexError."""


class HoloentError(Exception):
    """Base class for all package errors."""


class ZeroState(HoloentError):
    """Operation requires a nonzero state."""


class NotNormalized(HoloentError):
    """Operation requires a unit-norm input."""


class IndexOutOfRange(HoloentError, IndexError):
    """Basis index outside [0, k], or Fourier mode outside [-k, k]."""


class DomainError(HoloentError, ValueError):
    """Argument outside a function's domain, such as a level k that is not an integer >= 1."""


class NotOrthonormal(HoloentError, ValueError):
    """A supplied basis fails the orthonormality check."""


class SingularFit(HoloentError):
    """Least-squares design matrix is rank deficient or underdetermined."""


class DegenerateSpectrum(UserWarning):
    """Schmidt values collide within tolerance; gradients use a subgradient choice."""
