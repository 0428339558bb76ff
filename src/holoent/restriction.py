"""Restriction of product sections to the antidiagonal circle.

The circle is z = e^{it}, w = e^{-it} in the affine frame, so the basis
product e_i (x) e_j restricts to a single Fourier mode of frequency
d = i - j with amplitude (k+1) sqrt(binom(k,i) binom(k,j)). The map is
held as the per-mode weight vectors of sections._mode_weights: mode d
of the restriction is the weighted sum of the diagonal i - j = d, and
kernel membership is one homogeneous linear condition per mode. The
conditions of different modes involve disjoint coefficients, so the
kernel is built mode by mode: on the diagonal i - j = d it is the
orthocomplement of that diagonal's weight vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import IndexOutOfRange
from .sections import _check_level, _mode_weights
from .states import StateTensor, _freeze_field


@dataclass(frozen=True)
class LambdaRestriction:
    """Fourier coefficients of a restricted section, modes d = -k..k."""

    k: int
    fourier: np.ndarray

    def __post_init__(self):
        _freeze_field(self, "fourier", lambda k: (2 * k + 1,))

    def mode(self, d: int) -> complex:
        if not -self.k <= d <= self.k:
            raise IndexOutOfRange(f"mode {d} outside [-{self.k}, {self.k}]")
        return complex(self.fourier[d + self.k])

    def rows(self) -> list[tuple[int, float, float]]:
        """CSV-ready rows (d, re, im), one per Fourier mode."""
        return [
            (d, float(self.fourier[d + self.k].real), float(self.fourier[d + self.k].imag))
            for d in range(-self.k, self.k + 1)
        ]

    def evaluate(self, t: float) -> complex:
        """Value of the restricted section at angle t."""
        d = np.arange(-self.k, self.k + 1)
        return complex(np.sum(self.fourier * np.exp(1j * d * t)))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.fourier)))


def restrict(state: StateTensor) -> LambdaRestriction:
    """Restrict a state to the antidiagonal circle.

    Mode d collects (k+1) sum_{i-j=d} C_ij sqrt(binom(k,i) binom(k,j));
    the restricted section is sum_d fourier_d e^{i d t} in the affine frame.
    """
    k, c = state.k, state.coeffs
    weights = _mode_weights(k)
    # entries with i - j = d sit on the numpy diagonal of offset -d
    fourier = [(k + 1) * (c.diagonal(-d) * weights[d + k]).sum() for d in range(-k, k + 1)]
    return LambdaRestriction(k, fourier)


def _fix_column_signs(columns: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column real positive."""
    cols = columns.copy()
    for c in range(cols.shape[1]):
        pivot = int(np.argmax(np.abs(cols[:, c])))
        if cols[pivot, c] < 0:
            cols[:, c] = -cols[:, c]
    return cols


def _orthocomplement(weights: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of a nonzero vector, as columns.

    A single nonzero row has rank exactly 1, so the result always has
    len(weights) - 1 columns; signs are fixed for reproducible output.
    """
    return _fix_column_signs(scipy.linalg.null_space(weights[None, :]))


def kernel_basis(k: int) -> list[StateTensor]:
    """Orthonormal basis of the restriction kernel, exactly k^2 elements.

    Mode d = i - j constrains only the coefficients on that diagonal, so
    its kernel block is the orthocomplement of the weights
    sqrt(binom(k,i) binom(k,i-d)) placed back on the diagonal: k - |d|
    states per mode. States are listed mode by mode, d = -k..k.

    The states are read-only views into one (k^2, k+1, k+1) block, which
    is freed once no state of the basis is referenced.
    """
    _check_level(k)
    weights = _mode_weights(k)
    stack = np.zeros((k * k, k + 1, k + 1), dtype=complex)
    start = 0
    for d in range(-k, k + 1):
        rows = np.arange(max(0, d), min(k, k + d) + 1)
        block = _orthocomplement(weights[d + k]).T
        stack[start:start + len(block), rows, rows - d] = block
        start += len(block)
    stack.setflags(write=False)
    return [StateTensor(k, c) for c in stack]


def diagonal_kernel_basis(k: int) -> list[StateTensor]:
    """Orthonormal basis of the diagonal part of the kernel, k elements.

    Diagonal states sum_j a_j e_j (x) e_j lie in the kernel exactly when
    sum_j binom(k,j) a_j = 0, so this is the orthocomplement of the
    binomial vector inside the diagonal subspace: the d = 0 block of
    kernel_basis.
    """
    _check_level(k)
    null = _orthocomplement(_mode_weights(k)[k])
    return [StateTensor.from_diagonal(k, null[:, c]) for c in range(null.shape[1])]


def near_product_vector(k: int) -> StateTensor:
    """Unit kernel state on modes 0 and 1 that tends to a product state.

    The diagonal coefficients are a_0 = -k/sqrt(1+k^2), a_1 = 1/sqrt(1+k^2);
    its entanglement entropy decays to zero as the level grows.
    """
    _check_level(k)
    s = 1.0 / math.sqrt(1.0 + k * k)
    diag = np.zeros(k + 1, dtype=complex)
    diag[0] = -k * s
    diag[1] = s
    return StateTensor.from_diagonal(k, diag)


def near_product_entropy(k: int) -> float:
    """Closed-form entropy of near_product_vector(k)."""
    _check_level(k)
    p = 1.0 / (1.0 + k * k)
    q = (k * k) / (1.0 + k * k)
    return -p * math.log(p) - q * math.log(q)


def bell_vector(k: int) -> StateTensor:
    """Bell-type kernel state pairing the lowest and highest modes.

    (e_0 (x) e_0 - e_k (x) e_k)/sqrt(2); entropy ln 2 at every level.
    """
    _check_level(k)
    diag = np.zeros(k + 1, dtype=complex)
    diag[0] = 1.0 / math.sqrt(2.0)
    diag[k] = -1.0 / math.sqrt(2.0)
    return StateTensor.from_diagonal(k, diag)


def max_entropy_vector(k: int) -> StateTensor:
    """Diagonal kernel state of extremal entropy at every level.

    a_j = (-1)^j / sqrt(k+1): the alternating signs cancel against the
    binomial weights because sum_j (-1)^j binom(k,j) = 0, and the equal
    moduli give full Schmidt rank and entropy ln(k+1), the global bound.

    Geometrically it is (-1)^k sigma^k / ||sigma^k|| with
    sigma = z0 w0 - z1 w1: in the affine frame its value is
    sqrt(k+1) (1 - z w)^k, so it vanishes to order k on the curve
    {sigma = 0}, which contains the antidiagonal circle.
    """
    _check_level(k)
    signs = np.where(np.arange(k + 1) % 2 == 0, 1.0, -1.0)
    return StateTensor.from_diagonal(k, signs / math.sqrt(k + 1.0))
