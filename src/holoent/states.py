"""Bipartite states over two copies of a (k+1)-dimensional space.

A state is stored through its coefficient matrix C in the product basis
e_i (x) e_j, so every bipartite quantity (Schmidt data, reduced density
matrix, entanglement entropy) reduces to dense linear algebra on C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotNormalized, NotOrthonormal, ZeroState
from .sections import _check_index, _check_level

# Squared Schmidt values below this are treated as exact zeros when
# evaluating -sum(p ln p); keeps machine noise out of the entropy.
ENTROPY_ZERO_FLOOR = 1e-14

NORM_TOL = 1e-10
ZERO_NORM_TOL = 1e-14
ORTHONORMAL_TOL = 1e-10
# Schmidt coefficients above this times the largest one count toward the rank
RANK_TOL = 1e-8


def _freeze_field(record, field: str, shape) -> None:
    """Check a level-k record and freeze its array field in place.

    DomainError unless record.k is a level, ValueError naming the field
    unless the array has shape(k). The level is stored as a Python int, so
    a NumPy-integer level still serializes. A read-only complex ndarray is
    kept as given (many records may be views into one block); anything
    else is copied.
    """
    _check_level(record.k)
    object.__setattr__(record, "k", int(record.k))
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
        a dict with fields "k", "re" and "im", its "k" is a valid level
        (DomainError) and its coefficients are finite (k+1, k+1) matrices
        of numbers.
        """
        if not isinstance(record, dict):
            raise ValueError(f"state record must be a JSON object, got {type(record).__name__}")
        missing = [field for field in ("k", "re", "im") if field not in record]
        if missing:
            raise ValueError(f"state record is missing field {missing[0]!r}")
        _check_level(record["k"])
        re = _coefficient_field(record, "re")
        im = _coefficient_field(record, "im")
        if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
            raise ValueError("state coefficients must be finite")
        return cls(record["k"], re + 1j * im)


def _coefficient_field(record: dict, field: str) -> np.ndarray:
    """Float (k+1, k+1) array of a state record's coefficient field, or ValueError naming it."""
    try:
        a = np.asarray(record[field], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"state field {field!r} must be a matrix of numbers ({exc})") from None
    shape = (record["k"] + 1,) * 2
    if a.shape != shape:
        raise ValueError(f"state field {field!r} must have shape {shape}, got {a.shape}")
    return a


@dataclass(frozen=True)
class SchmidtData:
    """Descending nonnegative Schmidt coefficients of a state.

    ValueError naming alphas unless they form a nonempty, 1-D, finite,
    nonnegative and non-increasing array.
    """

    alphas: np.ndarray

    def __post_init__(self):
        try:
            a = np.array(self.alphas, dtype=float)
        except (TypeError, ValueError):
            a = None
        if not (a is not None and a.ndim == 1 and a.size and np.all(np.isfinite(a))
                and a[-1] >= 0 and np.all(a[1:] <= a[:-1])):
            raise ValueError("alphas must be a nonempty 1-D array of finite, nonnegative, "
                             f"non-increasing values, got {self.alphas!r}")
        a.setflags(write=False)
        object.__setattr__(self, "alphas", a)

    def entropy(self) -> float:
        """-sum a^2 ln(a^2) over the coefficients, squares below 1e-14 dropped."""
        return float(entropy_from_squared_schmidt(self.alphas**2))

    def rank(self) -> int:
        """Number of coefficients above RANK_TOL (1e-8) times the largest one."""
        return int(np.count_nonzero(self.alphas > RANK_TOL * self.alphas[0]))


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
        If the norm deviates from 1 by more than 1e-10, or is NaN.
    """
    nrm = frobenius_norm(state)
    if not abs(nrm - 1.0) <= NORM_TOL:
        raise NotNormalized(f"state norm is {nrm!r}; normalize before computing entropy")
    return nrm


def _mode_blocks(rows: np.ndarray):
    """Blocks of a level-k row matrix, as (row indices, column indices, mode).

    k is read off the (k+1)^2 columns; column i(k+1) + j holds e_i (x) e_j,
    of mode d = i - j. Each row spans the modes from its lowest to its
    highest nonzero coefficient (a zero row spans them all); a block is a
    maximal run of rows whose ranges chain-overlap, and its columns are
    every coefficient whose mode lies in the run, so different blocks
    share no column. Blocks come in ascending mode, with ascending indices.
    mode is the run's one mode d when its rows span only d, else None.
    """
    n = math.isqrt(rows.shape[1])
    i, j = np.divmod(np.arange(n * n), n)
    mode = i - j
    # one flat scan of the support; each present row's cells form one run
    row, col = np.divmod(np.flatnonzero(rows != 0), n * n)
    starts = np.flatnonzero(np.diff(row, prepend=-1))
    low = np.full(len(rows), -(n - 1))
    high = np.full(len(rows), n - 1)
    low[row[starts]] = np.minimum.reduceat(mode[col], starts)
    high[row[starts]] = np.maximum.reduceat(mode[col], starts)
    order = np.argsort(low, kind="stable")
    low, reach = low[order], np.maximum.accumulate(high[order])
    bounds = [0, *(np.flatnonzero(low[1:] > reach[:-1]) + 1), len(order)]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        first, last = int(low[start]), int(reach[stop - 1])
        cols = np.flatnonzero((mode >= first) & (mode <= last))
        yield np.sort(order[start:stop]), cols, first if first == last else None


def _orthonormal_blocks(states):
    """Check an orthonormal set; return its level k and its mode blocks.

    The set may be any iterable of states, a one-shot iterator included.
    A block is a maximal run of states whose mode ranges [lowest i - j,
    highest i - j] over their nonzero coefficients chain-overlap (see
    _mode_blocks), as the tuple (rows, cols, submatrix, mode): its
    states' indices in the set, which blocks partition, the flat indices
    i(k+1) + j it owns, off which its states vanish, and their
    coefficients there, all three read-only; mode is the block's one
    mode d when its columns are the k+1-|d| cells of a single diagonal,
    None when it spans several. Blocks share no coefficient, so the Gram
    matrix is block diagonal (entries between blocks are exactly 0) and
    is checked block by block. A dense set is one block.

    Raises
    ------
    ValueError
        If the set is empty.
    DomainError
        If the states are not all at one level.
    NotOrthonormal
        If the Gram matrix of the states deviates from the identity by
        more than 1e-10, or is not finite.
    """
    states = tuple(states)
    if not states:
        raise ValueError("an orthonormal set needs at least one state")
    levels = sorted({s.k for s in states})
    if len(levels) > 1:
        raise DomainError(f"basis states have levels {levels}, expected one level")
    rows = np.stack([s.coeffs.reshape(-1) for s in states])
    blocks = []
    defects = [0.0]
    for row_idx, col_idx, mode in _mode_blocks(rows):
        block = rows[row_idx[:, None], col_idx]
        gram = block.conj() @ block.T
        defects.append(np.max(np.abs(gram - np.eye(len(block)))))
        for a in (row_idx, col_idx, block):
            a.setflags(write=False)
        blocks.append((row_idx, col_idx, block, mode))
    defect = float(np.max(defects))  # np.max, not max(): a NaN defect must survive
    if not defect <= ORTHONORMAL_TOL:
        raise NotOrthonormal(f"basis Gram matrix deviates from identity by {defect:.3e}")
    return levels[0], tuple(blocks)


def _check_finite_nonzero(state: StateTensor, operation: str) -> None:
    """NotNormalized unless the state's norm is finite, ZeroState if it is below 1e-14."""
    nrm = frobenius_norm(state)
    if not math.isfinite(nrm):
        raise NotNormalized(f"state norm is {nrm!r}; the {operation} needs finite coefficients")
    if nrm < ZERO_NORM_TOL:
        raise ZeroState(f"{operation} of the zero state is undefined")


def schmidt(state: StateTensor) -> SchmidtData:
    """Schmidt coefficients of a state, descending.

    The coefficients are the singular values of the coefficient matrix;
    computing them straight from C (rather than from eigenvalues of the
    reduced density matrix) is better conditioned near degeneracies.

    Raises
    ------
    NotNormalized
        If the norm is not finite: a NaN or infinite coefficient, or a
        norm beyond the float range.
    ZeroState
        If the state has norm below 1e-14.
    """
    _check_finite_nonzero(state, "Schmidt decomposition")
    return SchmidtData(np.linalg.svd(state.coeffs, compute_uv=False))


def partial_trace_first(state: StateTensor) -> ReducedDensity:
    """Reduced density matrix with the first tensor factor traced out.

    For a unit state the result is Hermitian, positive semidefinite and
    has unit trace; its eigenvalues are the squared Schmidt coefficients.

    Raises
    ------
    NotNormalized
        If the norm is not finite: a NaN or infinite coefficient, or a
        norm beyond the float range.
    ZeroState
        If the state has norm below 1e-14.
    """
    _check_finite_nonzero(state, "partial trace")
    c = state.coeffs
    # Tracing the FIRST factor of sum C_ij C*_kl |e_i><e_k| (x) |e_j><e_l|
    # leaves rho[j, l] = sum_i C_ij conj(C_il).
    return ReducedDensity(state.k, c.T @ c.conj())


def entropy_from_squared_schmidt(p: np.ndarray) -> np.ndarray:
    """-sum p ln p along the last axis, with values below the zero floor dropped.

    Entries not above the floor (1e-14), NaN included, count as 0. The
    result is >= 0, and +0.0 (never -0.0) for a product spectrum such as
    [1.0]. The sum is negated once rather than term by term; IEEE rounding
    is symmetric in sign, so the bits are those of summing -p ln p.
    """
    # a dropped entry becomes 1, whose term 1 ln 1 is exactly +0.0
    q = np.where(p > ENTROPY_ZERO_FLOOR, p, 1.0)
    # 0.0 - s, not -s, so that a zero sum gives +0.0
    return np.maximum(0.0 - np.add.reduce(q * np.log(q), axis=-1), 0.0)


def entanglement_entropy(state: StateTensor) -> float:
    """Entanglement entropy -sum_j a_j^2 ln(a_j^2) of a unit state.

    The value lies in [0, ln(k+1)] and vanishes exactly when the state is
    decomposable. Squared Schmidt coefficients below 1e-14 are dropped
    (the 0 ln 0 = 0 convention).

    Raises
    ------
    NotNormalized
        If the norm of the state deviates from 1 by more than 1e-10, or is NaN.
    """
    unit_norm(state)
    return schmidt(state).entropy()


def schmidt_rank(state: StateTensor) -> int:
    """Number of Schmidt coefficients above RANK_TOL (1e-8) times the largest one.

    Rank 1 characterizes decomposable (product) states.

    Raises
    ------
    NotNormalized
        If the norm is not finite: a NaN or infinite coefficient, or a
        norm beyond the float range.
    ZeroState
        If the state has norm below 1e-14.
    """
    return schmidt(state).rank()
