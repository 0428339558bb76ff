"""Orthonormal monomial basis of degree-k sections on the sphere.

In the affine chart z = z0/z1 the basis is e_j = N_{k,j} z^j with
N_{k,j} = sqrt((k+1) * binom(k, j)); the Fubini-Study measure is
normalized to total volume 1, which is exactly the choice that makes
these e_j orthonormal. Monomial moments of that measure have the closed
form a! (N-a)! / (N+1)! and are kept as exact rationals. The product
e_i (x) e_j of two basis sections carries the weight
sqrt(binom(k,i) binom(k,j)), and only pairs on one diagonal i - j = d
ever meet: in a Fourier mode of the circle restriction, in one block of
its kernel, in a shifted diagonal of a Toeplitz factor. The weights are
therefore kept per mode, one vector for each diagonal, built here once
per level and shared by the restriction and Toeplitz layers.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from fractions import Fraction

import numpy as np

from .errors import DomainError, IndexOutOfRange

# Largest level of the weight table. _exact_sqrt builds it up to k = 1029 and
# the restriction norm (k+1) sqrt(binom(2k,k)) is finite up to k = 1016, but
# the cap stays until restriction residuals are scale-aware.
WEIGHT_LEVEL_MAX = 516


def _is_integer(value, least: int) -> bool:
    """True if value is an integer >= least; numpy integers pass, bool does not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


def _is_finite_number(value) -> bool:
    """True if value is a finite real or complex number; numpy numbers pass, bool does not."""
    if not isinstance(value, numbers.Number) or isinstance(value, bool):
        return False
    try:
        return cmath.isfinite(complex(value))
    except OverflowError:  # an exact rational or integer beyond the float range
        return False


def _is_finite_real(value) -> bool:
    """True if value is a finite real number (see _is_finite_number)."""
    return isinstance(value, numbers.Real) and _is_finite_number(value)


def _is_positive_real(value) -> bool:
    """True if value is a finite real number > 0 (see _is_finite_real)."""
    return _is_finite_real(value) and value > 0


def _check_level(k: int) -> None:
    """DomainError naming k unless k is an integer >= 1 (see _is_integer)."""
    if not _is_integer(k, 1):
        raise DomainError(f"level k must be >= 1 and an integer, got {k!r}")


def _check_index(k: int, j: int) -> None:
    """IndexOutOfRange naming j unless j is an integer in [0, k] (see _is_integer)."""
    _check_level(k)
    if not (_is_integer(j, 0) and j <= k):
        raise IndexOutOfRange(f"basis index {j!r} outside [0, {k}] or not an integer")


def basis_norm_const(k: int, j: int) -> float:
    """Normalization constant sqrt((k+1) * binom(k, j)) of the basis section e_j.

    Raises
    ------
    DomainError
        If the constant exceeds the largest float (from k = 2043, near j = k/2).
    """
    _check_index(k, j)
    try:
        return _exact_sqrt((k + 1) * math.comb(k, j))
    except OverflowError:
        raise DomainError(f"sqrt((k+1) binom(k,{j})) overflows a float at k={k}") from None


def _exact_sqrt(m: int) -> float:
    """sqrt(m) of a nonnegative integer, exact when m is a perfect square.

    An m too large for a float (from 2^1024) has its square root taken as
    the float of its integer square root, within one ulp; OverflowError
    when that too exceeds the float range.
    """
    r = math.isqrt(m)
    if r * r != m:
        try:
            return math.sqrt(m)
        except OverflowError:
            pass
    return float(r)


@functools.lru_cache
def _mode_weights(k: int) -> tuple[np.ndarray, ...]:
    """Per-mode weights: entry d+k holds sqrt(binom(k,i) binom(k,i-d)) for d = -k..k.

    Entry d+k runs over the rows i = max(0, d)..min(k, k+d) of the
    diagonal i - j = d, which is np.diagonal(c, -d) of a (k+1)x(k+1)
    matrix c. Modes d and -d have the same weights, so they share one
    vector. The table is cached per level; its vectors are read-only.

    Raises
    ------
    DomainError
        If k exceeds WEIGHT_LEVEL_MAX = 516, which says why the cap stays there.
    """
    if k > WEIGHT_LEVEL_MAX:
        raise DomainError(f"level k={k} is above the largest supported level {WEIGHT_LEVEL_MAX}")
    binoms = [math.comb(k, j) for j in range(k + 1)]
    half = []
    for d in range(k + 1):
        w = np.array([_exact_sqrt(binoms[i] * binoms[i - d]) for i in range(d, k + 1)])
        w.setflags(write=False)
        half.append(w)
    return tuple(half[:0:-1] + half)


def monomial_integral(a: int, N: int) -> Fraction:
    """Moment integral of |z|^(2a) / (1+|z|^2)^N over the normalized measure.

    Exact value a! (N-a)! / (N+1)! = 1 / ((N+1) binom(N, a)) for
    integers 0 <= a <= N (bool excluded); elsewhere the integral diverges
    or is undefined, and DomainError names the moment.
    """
    if not (_is_integer(a, 0) and _is_integer(N, a)):
        raise DomainError(f"moment ({a!r}, {N!r}) needs integers 0 <= a <= N")
    return Fraction(1, (N + 1) * math.comb(N, a))


def section_inner_product(k: int, i: int, j: int) -> float:
    """Inner product <e_i, e_j>; the angular integral kills i != j."""
    _check_index(k, i)
    _check_index(k, j)
    if i != j:
        return 0.0
    return basis_norm_const(k, i) * basis_norm_const(k, j) * float(monomial_integral(i, k))


def basis_values(k: int, z: complex) -> np.ndarray:
    """Vector of all basis section values (e_0(z), ..., e_k(z)) in the affine frame.

    DomainError naming k and z if a value is not finite, as when z^k
    overflows a float (k = 200 at |z| = 1e3) or z is not finite.
    """
    _check_level(k)
    consts = np.array([basis_norm_const(k, j) for j in range(k + 1)])
    with np.errstate(over="ignore", invalid="ignore"):
        values = consts * np.power(complex(z), np.arange(k + 1))
    if not np.all(np.isfinite(values)):
        raise DomainError(f"basis section values at level k={k} are not finite at z={z!r}")
    return values


def evaluate_section(state, z: complex, w: complex) -> complex:
    """Pointwise value sum_ij C_ij e_i(z) e_j(w) in the affine frame z1 = w1 = 1.

    DomainError naming k and the point if a value is not finite:
    basis_values raises it, naming z or w, when a basis value overflows,
    and this function, naming (z, w), when only their products do.
    """
    vz = basis_values(state.k, z)
    vw = basis_values(state.k, w)
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(vz @ state.coeffs @ vw)
    if not cmath.isfinite(value):
        raise DomainError(
            f"section value at level k={state.k} is not finite at (z, w) = ({z!r}, {w!r})"
        )
    return value
