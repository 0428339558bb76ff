"""Monte-Carlo averages of entanglement entropy over the unit sphere.

States are drawn uniformly by normalizing complex Gaussian coefficient
matrices, the unique rotation-invariant construction. Sampling is
blocked: block b of a run uses a generator seeded with (seed, b), and the
reduction follows block order, so estimates are reproducible and
independent of how blocks are scheduled. Blocks run concurrently, on up
to one thread per CPU available to the process (on one thread above
level 63, where the SVDs run on BLAS threads of their own). Each thread
draws and processes its block in chunks of at most _CHUNK_COEFFS
coefficients, so its memory is bounded by the chunk size, not the block
size. The estimate is bit-identical to a serial run of the blocks in
order. The exact finite-dimensional mean (Page's harmonic-number
formula) serves as the ground-truth oracle for the sampler.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import SingularFit
from .states import StateTensor, entropy_from_squared_schmidt

BLOCK_SIZE = 4096
# Complex coefficients drawn and processed at once within a block: about
# 600 samples at k = 20, a few MB of temporaries per thread at any level.
_CHUNK_COEFFS = 1 << 18
# Above this level OpenBLAS runs the level-2 kernels inside each SVD on its
# own threads (from 65 x 65 matrices), and concurrent blocks contend with
# them: two blocks on two threads took 1.05-1.66x their serial time at
# k = 64..200 on 2 cores, against 0.53-0.75x at k = 40..63. Higher levels
# run their blocks on one thread.
_CONCURRENT_LEVEL_MAX = 63


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
    x = rng.standard_normal((2, k + 1, k + 1))
    c = x[0] + 1j * x[1]
    return StateTensor(k, c / np.linalg.norm(c))


def _block_entropies(k: int, count: int, seed: int, block: int) -> np.ndarray:
    """Entropies of `count` consecutive samples from the block's own generator.

    The samples are drawn and processed in consecutive chunks; the
    generator stream and the per-sample arithmetic are those of one draw
    of the whole block, so the values are too.
    """
    rng = np.random.default_rng([seed, block])
    chunk = max(1, _CHUNK_COEFFS // (k + 1) ** 2)
    values = np.empty(count)
    for start in range(0, count, chunk):
        m = min(chunk, count - start)
        x = rng.standard_normal((m, 2, k + 1, k + 1))
        c = x[:, 0] + 1j * x[:, 1]
        norms = np.sqrt(np.sum(np.abs(c) ** 2, axis=(1, 2)))
        c /= norms[:, None, None]
        sig = np.linalg.svd(c, compute_uv=False)
        values[start : start + m] = entropy_from_squared_schmidt(sig**2)
    return values


def _worker_count(k: int, blocks: int) -> int:
    """Threads for a run: one per CPU available to the process, at most one per block.

    One thread above _CONCURRENT_LEVEL_MAX, where the SVDs use threads of their own.
    """
    if k > _CONCURRENT_LEVEL_MAX:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, blocks))


def mc_mean_entropy(k: int, n: int, seed: int) -> MCEstimate:
    """Monte-Carlo mean entropy over n uniform states at level k.

    Deterministic given (k, n, seed). The standard error is the sample
    standard deviation divided by sqrt(n). The BLOCK_SIZE blocks run
    concurrently on up to one thread per available CPU (on one thread
    for k > 63, where each SVD already uses BLAS threads), each thread
    holding one chunk of samples at a time; results are reduced in block
    order, so the estimate is bit-identical to running the blocks serially.
    """
    if k < 1:
        raise ValueError("level k must be >= 1")
    if n < 100:
        raise ValueError("need at least 100 samples")
    starts = range(0, n, BLOCK_SIZE)

    def block_entropies(block: int) -> np.ndarray:
        count = min(BLOCK_SIZE, n - starts[block])
        return _block_entropies(k, count, seed, block)

    with ThreadPoolExecutor(max_workers=_worker_count(k, len(starts))) as pool:
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
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    p, q = _reciprocal_sum(d + 1, d * d + 1)
    return (2 * d * p - (d - 1) * q) / (2 * d * q)


def asymptotic_mean_entropy(k: int) -> float:
    """Large-level sphere average ln(k+1) - 1/2 of the entropy at level k.

    A uniform state on two copies of the degree-k sections is a Page state
    of dimension N(k) = k + 1, the dimension of the sections by
    Riemann-Roch, so its mean entropy is ln N - 1/2 + O(N^-2). The value
    lies below page_mean(k+1) by at most 7/(12 (k+1)^2).
    """
    if k < 1:
        raise ValueError("level k must be >= 1")
    return math.log(k + 1) - 0.5


def fit_tail(pairs) -> tuple[float, float]:
    """Least-squares fit of mean - ln k against (1, 1/k).

    Returns (c0, c1): the constant term, comparable to -1/2, and the 1/k
    coefficient, comparable to 1 since ln(k+1) = ln k + 1/k + O(1/k^2).

    Raises
    ------
    SingularFit
        With fewer than 3 distinct levels, or a rank-deficient design.
    """
    ks = np.array([float(k) for k, _ in pairs])
    means = np.array([float(m) for _, m in pairs])
    if len(set(ks.tolist())) < 3:
        raise SingularFit("need at least 3 distinct levels")
    design = np.column_stack([np.ones_like(ks), 1.0 / ks])
    coeffs, _, rank, _ = np.linalg.lstsq(design, means - np.log(ks), rcond=None)
    if rank < 2:
        raise SingularFit("design matrix is rank deficient")
    return float(coeffs[0]), float(coeffs[1])
