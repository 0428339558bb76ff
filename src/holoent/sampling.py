"""Monte-Carlo averages of entanglement entropy over the unit sphere.

A uniform unit state is a normalized complex Gaussian (Ginibre)
coefficient matrix, the unique rotation-invariant construction, and its
entropy depends only on the matrix's squared singular values. Their law
is that of a real (k+1) x (k+1) upper-bidiagonal matrix with independent
chi-distributed entries, the beta = 2 Laguerre model of Dumitriu and
Edelman (Matrix models for beta ensembles, J. Math. Phys. 43, 2002), so
each sample draws its 2k+1 bidiagonal entries instead of the 2(k+1)^2
Gaussian coefficients. Estimates agree with sample_uniform_state in law,
not stream by stream; sample_uniform_state stays the coefficient-level
sampler. Sampling is blocked: block b of a run uses a generator seeded
with (seed, b), and the reduction follows block order, so estimates are
reproducible and independent of how blocks are scheduled. Blocks run
concurrently at every level, on up to one thread per CPU available to
the process. Each thread draws and processes its block in chunks of at
most _CHUNK_COEFFS matrix entries, so its memory is bounded by the chunk
size, not the block size. The estimate is bit-identical to a serial run
of the blocks in order. The exact finite-dimensional mean (Page's
harmonic-number formula) serves as the ground-truth oracle for the
sampler.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularFit
from .sections import _check_level, _is_finite_real, _is_integer
from .states import StateTensor, entropy_from_squared_schmidt

BLOCK_SIZE = 4096
# Entries of the real (k+1) x (k+1) bidiagonal matrices processed at once
# within a block: about 600 samples at k = 20, a few MB of temporaries per
# thread at any level.
_CHUNK_COEFFS = 1 << 18


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean and standard error of entropy over uniform states."""

    k: int
    n_samples: int
    mean: float
    stderr: float
    seed: int


def sample_uniform_state(k: int, rng: np.random.Generator) -> StateTensor:
    """One uniform unit state: normalized standard complex Gaussian coefficients."""
    _check_level(k)
    x = rng.standard_normal((2, k + 1, k + 1))
    c = x[0] + 1j * x[1]
    return StateTensor(k, c / np.linalg.norm(c))


def _block_entropies(k: int, count: int, seed: int, block: int) -> np.ndarray:
    """Entropies of `count` consecutive samples from the block's own generator.

    Each sample is a real upper-bidiagonal B whose squared diagonal is
    chi-square with 2(k+1), 2k, ..., 2 degrees of freedom and whose squared
    superdiagonal is chi-square with 2k, ..., 2. Its squared singular values,
    divided by their sum, have the law of the squared Schmidt coefficients
    of a uniform unit state (Dumitriu-Edelman, beta = 2 Laguerre). A sample
    takes its 2k+1 variates in a row of one sample-major draw per chunk, so
    the chunked run is bit-identical to one draw of the whole block.
    """
    rng = np.random.default_rng([seed, block])
    n = k + 1
    dof = 2.0 * np.concatenate([np.arange(n, 0, -1), np.arange(k, 0, -1)])
    diag = np.arange(n)
    chunk = max(1, _CHUNK_COEFFS // n**2)
    values = np.empty(count)
    for start in range(0, count, chunk):
        m = min(chunk, count - start)
        x = np.sqrt(rng.chisquare(dof, size=(m, 2 * k + 1)))
        b = np.zeros((m, n, n))
        b[:, diag, diag] = x[:, :n]
        b[:, diag[:-1], diag[1:]] = x[:, n:]
        p = np.linalg.svd(b, compute_uv=False) ** 2
        values[start : start + m] = entropy_from_squared_schmidt(p / p.sum(axis=1, keepdims=True))
    return values


def _worker_count(blocks: int) -> int:
    """Threads for a run: one per CPU available to the process, at most one per block."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, blocks))


def mc_mean_entropy(k: int, n: int, seed: int) -> MCEstimate:
    """Monte-Carlo mean entropy over n uniform states at level k.

    Deterministic given (k, n, seed). The standard error is the sample
    standard deviation divided by sqrt(n). Each sample's Schmidt spectrum
    is drawn from the bidiagonal beta = 2 Laguerre model of Dumitriu and
    Edelman (see _block_entropies): the estimate agrees in law with
    entropies of sample_uniform_state draws, not stream by stream. The
    BLOCK_SIZE blocks run concurrently at every level, on up to one thread
    per available CPU, each thread holding one chunk of samples at a time;
    results are reduced in block order, so the estimate is bit-identical
    to running the blocks serially.

    Raises
    ------
    DomainError
        Naming the argument, unless k >= 1, n >= 100 and seed >= 0 are
        integers (bool excluded).
    """
    _check_level(k)
    if not _is_integer(n, 100):
        raise DomainError(f"sample count must be an integer >= 100, got n={n!r}")
    if not _is_integer(seed, 0):
        raise DomainError(f"seed must be an integer >= 0, got seed={seed!r}")
    starts = range(0, n, BLOCK_SIZE)

    def block_entropies(block: int) -> np.ndarray:
        count = min(BLOCK_SIZE, n - starts[block])
        return _block_entropies(k, count, seed, block)

    with ThreadPoolExecutor(max_workers=_worker_count(len(starts))) as pool:
        values = np.concatenate(list(pool.map(block_entropies, range(len(starts)))))
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(n))
    return MCEstimate(k=k, n_samples=n, mean=mean, stderr=stderr, seed=seed)


def _reciprocal_sum(a: int, b: int) -> tuple[int, int]:
    """Integers (p, q) with p/q = sum of 1/i for a <= i < b and q = a (a+1) ... (b-1).

    Binary splitting: the halves are summed over the product of their
    denominators, so the big multiplications are few and balanced.
    """
    if b - a <= 16:
        p, q = 0, 1
        for i in range(a, b):
            p, q = p * i + q, q * i
        return p, q
    mid = (a + b) // 2
    p1, q1 = _reciprocal_sum(a, mid)
    p2, q2 = _reciprocal_sum(mid, b)
    return p1 * q2 + p2 * q1, q1 * q2


def page_mean(d: int) -> float:
    """Exact mean entanglement entropy of a uniform pure state on a d x d space.

    H(d^2) - H(d) - (d-1)/(2d) with H the harmonic numbers, evaluated in
    exact integer arithmetic: H(d^2) - H(d) = p/q by binary splitting,
    then one correctly rounded division (2d p - (d-1) q) / (2d q).

    Raises
    ------
    DomainError
        Naming d, unless d is an integer >= 1 (bool excluded).
    """
    if not _is_integer(d, 1):
        raise DomainError(f"dimension must be an integer >= 1, got d={d!r}")
    p, q = _reciprocal_sum(d + 1, d * d + 1)
    return (2 * d * p - (d - 1) * q) / (2 * d * q)


def asymptotic_mean_entropy(k: int) -> float:
    """Large-level sphere average ln(k+1) - 1/2 of the entropy at level k.

    A uniform state on two copies of the degree-k sections is a Page state
    of dimension N(k) = k + 1, the dimension of the sections by
    Riemann-Roch, so its mean entropy is ln N - 1/2 + O(N^-2). The value
    lies below page_mean(k+1) by at most 7/(12 (k+1)^2).
    """
    _check_level(k)
    return math.log(k + 1) - 0.5


def fit_tail(pairs) -> tuple[float, float]:
    """Least-squares fit of mean - ln k against (1, 1/k).

    Returns (c0, c1): the constant term, comparable to -1/2, and the 1/k
    coefficient, comparable to 1 since ln(k+1) = ln k + 1/k + O(1/k^2).

    Raises
    ------
    DomainError
        If some level is not an integer >= 1 (see sections._check_level),
        or some mean is not a finite real number (bool excluded).
    SingularFit
        With fewer than 3 distinct levels, or a rank-deficient design.
    """
    pairs = list(pairs)  # a one-shot iterable is read once
    for k, mean in pairs:
        _check_level(k)
        if not _is_finite_real(mean):
            raise DomainError(f"mean at level {k} must be a finite real number, got {mean!r}")
    ks, means = np.array(pairs, dtype=float).reshape(-1, 2).T
    if len(set(ks.tolist())) < 3:
        raise SingularFit("need at least 3 distinct levels")
    design = np.column_stack([np.ones_like(ks), 1.0 / ks])
    coeffs, _, rank, _ = np.linalg.lstsq(design, means - np.log(ks), rcond=None)
    if rank < 2:
        raise SingularFit("design matrix is rank deficient")
    return float(coeffs[0]), float(coeffs[1])
