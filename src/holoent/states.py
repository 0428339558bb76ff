"""Bipartite states over two copies of a (k+1)-dimensional space.

A state is stored through its coefficient matrix C in the product basis
e_i (x) e_j, so every bipartite quantity (Schmidt data, reduced density
matrix, entanglement entropy) reduces to dense linear algebra on C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotNormalized, NotOrthonormal, ZeroState
from .sections import _check_index, _check_level

# Squared Schmidt values below this are treated as exact zeros when
# evaluating -sum(p ln p); keeps machine noise out of the entropy.
ENTROPY_ZERO_FLOOR = 1e-14

NORM_TOL = 1e-10
ZERO_NORM_TOL = 1e-14
ORTHONORMAL_TOL = 1e-10


def _freeze_field(record, field: str, shape) -> None:
    """Check a level-k record and freeze its array field in place.

    DomainError unless record.k is a level, ValueError naming the field
    unless the array has shape(k). A read-only complex ndarray is kept as
    given (many records may be views into one block); anything else is copied.
    """
    _check_level(record.k)
    a = getattr(record, field)
    if not (isinstance(a, np.ndarray) and a.dtype == complex and not a.flags.writeable):
        a = np.array(a, dtype=complex)
        a.setflags(write=False)
    if a.shape != shape(record.k):
        raise ValueError(
            f"{type(record).__name__}.{field} must have shape {shape(record.k)}, got {a.shape}"
        )
    object.__setattr__(record, field, a)


@dataclass(frozen=True)
class StateTensor:
    """Coefficient matrix of a vector in the two-fold tensor product.

    Entry (i, j) multiplies the product basis element e_i (x) e_j of the
    two (k+1)-dimensional factors. Coefficients are stored as a read-only
    complex array (see _freeze_field); instances are safe to share
    between threads.
    """

    k: int
    coeffs: np.ndarray

    def __post_init__(self):
        _freeze_field(self, "coeffs", lambda k: (k + 1, k + 1))

    @property
    def dim(self) -> int:
        return self.k + 1

    @classmethod
    def basis_element(cls, k: int, i: int, j: int) -> "StateTensor":
        """Unit state e_i (x) e_j; IndexOutOfRange unless both indices lie in [0, k]."""
        _check_index(k, i)
        _check_index(k, j)
        c = np.zeros((k + 1, k + 1), dtype=complex)
        c[i, j] = 1.0
        return cls(k, c)

    @classmethod
    def from_diagonal(cls, k: int, diag) -> "StateTensor":
        """State sum_j a_j e_j (x) e_j from the diagonal coefficients a."""
        _check_level(k)
        a = np.asarray(diag, dtype=complex)
        if a.shape != (k + 1,):
            raise ValueError(f"need {k + 1} diagonal coefficients, got {a.shape}")
        return cls(k, np.diag(a))

    def is_diagonal(self, tol: float = 1e-12) -> bool:
        off = self.coeffs - np.diag(np.diag(self.coeffs))
        return bool(np.max(np.abs(off)) <= tol) if off.size else True

    def to_dict(self) -> dict:
        """JSON-ready record: {"k", "re", "im"}."""
        return {
            "k": self.k,
            "re": self.coeffs.real.tolist(),
            "im": self.coeffs.imag.tolist(),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "StateTensor":
        """Inverse of to_dict.

        Raises ValueError, naming the field at fault, unless the record is
        a dict with fields "k", "re" and "im", its "k" is a valid level and
        its coefficients are finite matrices of numbers.
        """
        if not isinstance(record, dict):
            raise ValueError(f"state record must be a JSON object, got {type(record).__name__}")
        missing = [field for field in ("k", "re", "im") if field not in record]
        if missing:
            raise ValueError(f"state record is missing field {missing[0]!r}")
        re = _coefficient_field(record, "re")
        im = _coefficient_field(record, "im")
        if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
            raise ValueError("state coefficients must be finite")
        return cls(record["k"], re + 1j * im)


def _coefficient_field(record: dict, field: str) -> np.ndarray:
    """Float array of a state record's coefficient field, or ValueError naming it."""
    try:
        return np.asarray(record[field], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"state field {field!r} must be a matrix of numbers ({exc})") from None


@dataclass(frozen=True)
class SchmidtData:
    """Descending nonnegative Schmidt coefficients of a state."""

    alphas: np.ndarray

    def __post_init__(self):
        a = np.array(self.alphas, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "alphas", a)

    def entropy(self) -> float:
        """-sum a^2 ln(a^2) over the coefficients, squares below 1e-14 dropped."""
        return float(entropy_from_squared_schmidt(self.alphas**2))

    def rank(self, tol: float = 1e-8) -> int:
        """Number of coefficients above tol times the largest one."""
        return int(np.count_nonzero(self.alphas > tol * self.alphas[0]))


@dataclass(frozen=True)
class ReducedDensity:
    """Reduced density matrix after tracing out the first tensor factor."""

    k: int
    matrix: np.ndarray

    def __post_init__(self):
        _freeze_field(self, "matrix", lambda k: (k + 1, k + 1))


def frobenius_norm(state: StateTensor) -> float:
    """Norm of the state, i.e. the Frobenius norm of its coefficient matrix."""
    return float(np.linalg.norm(state.coeffs))


def unit_norm(state: StateTensor) -> float:
    """Norm of a state that must be a unit state.

    Raises
    ------
    NotNormalized
        If the norm deviates from 1 by more than 1e-10.
    """
    nrm = frobenius_norm(state)
    if abs(nrm - 1.0) > NORM_TOL:
        raise NotNormalized(f"state norm is {nrm!r}; normalize before computing entropy")
    return nrm


def orthonormal_rows(states) -> np.ndarray:
    """Read-only (m, (k+1)^2) complex matrix whose rows are the flattened states.

    Raises
    ------
    NotOrthonormal
        If the Gram matrix of the states deviates from the identity by
        more than 1e-10.
    """
    rows = np.stack([s.coeffs.reshape(-1) for s in states])
    gram = rows.conj() @ rows.T
    defect = float(np.max(np.abs(gram - np.eye(len(rows)))))
    if defect > ORTHONORMAL_TOL:
        raise NotOrthonormal(f"basis Gram matrix deviates from identity by {defect:.3e}")
    rows.setflags(write=False)
    return rows


def schmidt(state: StateTensor) -> SchmidtData:
    """Schmidt coefficients of a state, descending.

    The coefficients are the singular values of the coefficient matrix;
    computing them straight from C (rather than from eigenvalues of the
    reduced density matrix) is better conditioned near degeneracies.

    Raises
    ------
    ZeroState
        If the state has norm below 1e-14.
    """
    if frobenius_norm(state) < ZERO_NORM_TOL:
        raise ZeroState("Schmidt decomposition of the zero state is undefined")
    return SchmidtData(np.linalg.svd(state.coeffs, compute_uv=False))


def partial_trace_first(state: StateTensor) -> ReducedDensity:
    """Reduced density matrix with the first tensor factor traced out.

    For a unit state the result is Hermitian, positive semidefinite and
    has unit trace; its eigenvalues are the squared Schmidt coefficients.

    Raises
    ------
    ZeroState
        If the state has norm below 1e-14.
    """
    if frobenius_norm(state) < ZERO_NORM_TOL:
        raise ZeroState("partial trace of the zero state is undefined")
    c = state.coeffs
    # Tracing the FIRST factor of sum C_ij C*_kl |e_i><e_k| (x) |e_j><e_l|
    # leaves rho[j, l] = sum_i C_ij conj(C_il).
    return ReducedDensity(state.k, c.T @ c.conj())


def entropy_from_squared_schmidt(p: np.ndarray) -> np.ndarray:
    """-sum p ln p along the last axis, with values below the zero floor dropped."""
    terms = np.where(p > ENTROPY_ZERO_FLOOR, -p * np.log(np.maximum(p, ENTROPY_ZERO_FLOOR)), 0.0)
    return np.maximum(terms.sum(axis=-1), 0.0)


def entanglement_entropy(state: StateTensor) -> float:
    """Entanglement entropy -sum_j a_j^2 ln(a_j^2) of a unit state.

    The value lies in [0, ln(k+1)] and vanishes exactly when the state is
    decomposable. Squared Schmidt coefficients below 1e-14 are dropped
    (the 0 ln 0 = 0 convention).

    Raises
    ------
    NotNormalized
        If the norm of the state deviates from 1 by more than 1e-10.
    """
    unit_norm(state)
    return schmidt(state).entropy()


def schmidt_rank(state: StateTensor, tol: float = 1e-8) -> int:
    """Number of Schmidt coefficients above tol times the largest one.

    Rank 1 characterizes decomposable (product) states.

    Raises
    ------
    ZeroState
        If the state has norm below 1e-14.
    """
    return schmidt(state).rank(tol)
