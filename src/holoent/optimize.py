"""Entropy maximization over the unit sphere of a subspace of states.

Projected gradient ascent with Barzilai-Borwein trial steps, a
nonmonotone Armijo backtracking line search and renormalization as the
spherical retraction. A step is accepted against the Zhang-Hager
reference (SIAM J. Optim. 14, 2004), a running weighted average of the
accepted values, rather than against the current value: the ascent may
dip on the way, never below its start, and it is not cut back where the
maximum is degenerate (k = 2) or where the required increase falls below
the rounding of the entropy near a critical point. The ascent runs in complex
coordinates c over the mode blocks of the orthonormal basis, as the
projection does (see states._orthonormal_blocks); under the real inner
product Re<x, y> that is the Euclidean geometry of the 2m real and
imaginary parts. A subspace that is one block on a single mode diagonal,
such as the diagonal kernel, holds only states already in Schmidt form, so
the value and gradient are read off that diagonal in closed form; any
other subspace takes an SVD of the coefficient matrix per evaluation.
Restarts are independently seeded, so results are reproducible and
restart loops may be distributed without changing the reported optimum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpectrum, DomainError, NotNormalized
from .sections import _is_integer, _is_positive_real
from .states import (
    NORM_TOL,
    StateTensor,
    _orthonormal_blocks,
    entropy_from_squared_schmidt,
    schmidt,
    unit_norm,
)

DEGENERACY_GAP = 1e-10
# logarithm floor used inside gradients only; reported values drop
# near-zero Schmidt weights instead of flooring them
GRAD_LOG_FLOOR = 1e-12
ARMIJO_C = 1e-4
# weight of the past in the Zhang-Hager reference; 0 is the monotone search
REFERENCE_DECAY = 0.85
ARMIJO_SHRINK = 0.5
MAX_BACKTRACKS = 60
STEP_GROWTH = 2.0
STEP0 = 1.0  # the first Barzilai-Borwein trial step of every ascent
STEP_MIN = 1e-8
STEP_MAX = 1e4
# squared Schmidt coefficients below this are outside critical_residual's support
SUPPORT_TOL = 1e-10


@dataclass(frozen=True)
class OptProblem:
    """Maximization setup over the unit sphere of an orthonormal subspace.

    ``blocks`` is derived, not set: the subspace's mode blocks, as
    (rows, cols, submatrix, mode) tuples (see states._orthonormal_blocks).
    """

    subspace: tuple
    max_iters: int = 1000
    tol_grad: float = 1e-8
    restarts: int = 16
    seed: int = 0
    blocks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "subspace", tuple(self.subspace))
        object.__setattr__(self, "blocks", _orthonormal_blocks(self.subspace)[1])
        for name in ("max_iters", "restarts", "seed", "tol_grad"):
            value = getattr(self, name)
            # only the seed may be 0
            valid = (_is_positive_real(value) if name == "tol_grad"
                     else _is_integer(value, 0 if name == "seed" else 1))
            if not valid:
                raise DomainError(f"invalid optimizer settings: {name}={value!r}")


@dataclass(frozen=True)
class OptResult:
    """Best point found, with the gradient norm and residual diagnostics.

    ``critical_residual`` is critical_residual(best_state), the Schmidt
    spread on the support; it is finite for every best state.
    """

    best_value: float
    best_state: StateTensor
    grad_norm: float
    iterations: int
    critical_residual: float
    converged: bool
    restart_values: tuple


def _coefficients(k, blocks, coords):
    """Coefficient matrix sum_i coords_i B_i of the level-k states, filled block by block."""
    flat = np.zeros((k + 1) ** 2, dtype=complex)
    for rows, cols, block, _ in blocks:
        flat[cols] = coords[rows] @ block
    return flat.reshape(k + 1, k + 1)


def _value_and_gradient(k, blocks, coords, warn_degenerate=False):
    """Entropy of the state sum_i coords_i B_i and its tangential gradient at coords.

    When the states are one block on a single mode d (blocks[0][3], fixed
    by states._orthonormal_blocks), the state's coefficients a on that
    diagonal are its Schmidt form: the values are read off in closed form,
    with no matrix built and no SVD taken. Otherwise the coefficient
    matrix is assembled and its full SVD taken. The DegenerateSpectrum
    rule sees the same k+1 Schmidt values on either path.
    """
    # dS = sum_j w_j d sigma_j = Re<G, dM> with G = U diag(w) V^H and
    # w_j = -2 sigma_j (ln sigma_j^2 + 1); dM = sum_i dc_i B_i, so the
    # gradient under Re<x, y> has entries <B_i, G> = sum conj(B_i) G, over
    # the columns of B_i's block
    if len(blocks) == 1 and blocks[0][3] is not None:
        # the Schmidt values are |a| plus |d| structural zeros, and G is
        # a w / |a| = -2 a (ln |a|^2 + 1) on the diagonal, 0 off it; the
        # one block's rows are all the states, in order
        block = blocks[0][2]
        a = coords @ block
        sig = np.abs(a)
        p = sig**2
        grad = block.conj() @ (-2.0 * a * (np.log(np.maximum(p, GRAD_LOG_FLOOR)) + 1.0))
    else:
        u, sig, vh = np.linalg.svd(_coefficients(k, blocks, coords))
        p = sig**2
        weights = -2.0 * sig * (np.log(np.maximum(p, GRAD_LOG_FLOOR)) + 1.0)
        g = ((u * weights) @ vh).reshape(-1)
        grad = np.empty(len(coords), dtype=complex)
        for rows, cols, block, _ in blocks:
            grad[rows] = block.conj() @ g[cols]
    if warn_degenerate:
        spectrum = np.sort(np.concatenate([sig, np.zeros(k + 1 - sig.size)]))
        if spectrum.size > 1 and np.min(np.diff(spectrum)) < DEGENERACY_GAP:
            warnings.warn("Schmidt values collide; gradient is a subgradient choice",
                          DegenerateSpectrum, stacklevel=3)
    value = float(entropy_from_squared_schmidt(p))
    return value, grad - np.vdot(coords, grad).real * coords


def entropy_and_gradient(subspace, coords):
    """Entropy at a unit coordinate vector over the subspace basis, with gradient.

    A coordinate vector of length m combines the m basis states with real
    weights; one of length 2m is read as real and imaginary weight blocks
    and spans the complex subspace. The gradient is real, of the same
    length, and tangential to the coordinate sphere. Colliding Schmidt
    values trigger a DegenerateSpectrum warning (the returned direction is
    then one valid subgradient choice).

    Raises
    ------
    ValueError, DomainError, NotOrthonormal
        If the subspace is empty, at mixed levels or not orthonormal (see
        states._orthonormal_blocks), checked first.
    DomainError
        Naming coords, if the coordinate vector is complex.
    NotNormalized
        If the coordinate vector is not unit within 1e-10 (states.NORM_TOL),
        or its norm is NaN.
    """
    subspace = tuple(subspace)
    k, blocks = _orthonormal_blocks(subspace)
    if np.iscomplexobj(coords):
        raise DomainError("coords must be real; pass complex weights as the 2m real and "
                          "imaginary parts")
    coords = np.asarray(coords, dtype=float)
    nrm = np.linalg.norm(coords)
    if not abs(nrm - 1.0) <= NORM_TOL:
        raise NotNormalized(f"coordinate norm is {nrm!r}")
    m = len(subspace)
    if coords.shape not in ((m,), (2 * m,)):
        raise ValueError(f"coordinate vector must have length {m} or {2 * m}")
    real_only = coords.shape == (m,)
    c = coords.astype(complex) if real_only else coords[:m] + 1j * coords[m:]
    value, grad = _value_and_gradient(k, blocks, c, warn_degenerate=True)
    return value, grad.real if real_only else np.concatenate([grad.real, grad.imag])


def _norm(x):
    """Euclidean norm of a complex vector, bit for bit np.linalg.norm(x).

    This is numpy's own formula for a complex vector, two real dots and no
    rescaling, so the sum underflows and overflows exactly where numpy's
    does; it skips only np.linalg.norm's argument dispatch.
    """
    real, imag = x.real, x.imag
    return math.sqrt(real.dot(real) + imag.dot(imag))


def _ascend(k, blocks, u0, max_iters, tol_grad):
    """Run one ascent from u0; returns (u, history, grad_norm, iterations, converged).

    ``history`` holds the value of every accepted iterate, the start
    first, so ``iterations`` is len(history) - 1. ``u`` is the last
    iterate when the ascent converged and the best one seen (the latest
    of equals) otherwise, since the nonmonotone search may have moved
    below it; ``grad_norm`` is the gradient norm at ``u``.
    """
    u = u0
    f, g = _value_and_gradient(k, blocks, u)
    history = [f]
    best = (f, u, g)
    trial = STEP0
    # Zhang-Hager reference C, the q-weighted average of accepted values
    ref, q = f, 1.0
    # every norm is _norm, numpy's two real dots: np.vdot(g, g).real sums
    # in another order, so its last bits, and the iterates, would differ
    while True:
        gnorm = _norm(g)
        if gnorm <= tol_grad:
            return u, history, gnorm, len(history) - 1, True
        if len(history) > max_iters:  # iteration cap
            break
        step = trial
        for _ in range(MAX_BACKTRACKS):
            cand = u + step * g
            cand = cand / _norm(cand)
            f_new, g_new = _value_and_gradient(k, blocks, cand)
            if f_new >= ref + ARMIJO_C * step * gnorm * gnorm:
                break
            step *= ARMIJO_SHRINK
        else:
            break  # stalled at numerical precision
        # Barzilai-Borwein trial step for the next iteration; the Armijo
        # backtracking above keeps every value at or above the reference.
        du = cand - u
        dg = g - g_new
        curvature = np.vdot(du, dg).real
        if curvature > 0:
            trial = np.vdot(du, du).real / curvature
            trial = min(max(trial, STEP_MIN), STEP_MAX)
        else:
            trial = min(step * STEP_GROWTH, STEP_MAX)
        u, g = cand, g_new
        q_new = REFERENCE_DECAY * q + 1.0
        ref, q = (REFERENCE_DECAY * q * ref + f_new) / q_new, q_new
        history.append(f_new)
        if f_new >= best[0]:
            best = (f_new, u, g)
    _, u, g = best
    return u, history, _norm(g), len(history) - 1, False


def maximize(problem: OptProblem) -> OptResult:
    """Best entropy over the unit sphere of the subspace, over all restarts.

    The ascent runs in complex coordinates over the basis, so the search
    covers the full complex sphere; phases connect the real sign patterns
    that would otherwise trap it. Restart r starts from a standard normal
    draw of 2m reals from a generator seeded with seed + r, normalized and
    read as real and imaginary coordinate blocks. A restart's value is that
    of the iterate its ascent returns: the last one when it converged, the
    best one seen otherwise. Among equal values the lowest restart index
    wins, so the result is deterministic regardless of execution order.
    The result is flagged as not converged when no restart reached the
    gradient tolerance.
    """
    k = problem.subspace[0].k
    m = len(problem.subspace)
    records = []  # (value, u, grad_norm, iterations, converged) per restart
    for r in range(problem.restarts):
        rng = np.random.default_rng(problem.seed + r)
        x = rng.standard_normal(2 * m)
        x /= np.linalg.norm(x)
        u, history, gnorm, iters, converged = _ascend(
            k, problem.blocks, x[:m] + 1j * x[m:], problem.max_iters, problem.tol_grad)
        records.append((history[-1] if converged else max(history), u, gnorm, iters, converged))
    # max keeps the first of equal values
    value, u, gnorm, iters, _ = max(records, key=lambda record: record[0])
    coeffs = _coefficients(k, problem.blocks, u)
    state = StateTensor(k, coeffs / np.linalg.norm(coeffs))
    return OptResult(
        best_value=value,
        best_state=state,
        grad_norm=gnorm,
        iterations=iters,
        critical_residual=critical_residual(state),
        converged=any(record[4] for record in records),
        restart_values=tuple(record[0] for record in records),
    )


def critical_residual(state: StateTensor) -> float:
    """Spread max p - min p of the squared Schmidt coefficients p on their support.

    Zero means a flat Schmidt spectrum, entropy ln(rank), the largest
    entropy at that rank; it is the stationarity certificate on any
    subspace. Squared coefficients below SUPPORT_TOL (1e-10) are outside
    the support, so states with vanishing coefficients, such as the
    Bell-type pair, are certified on their support. Finite for every unit
    state, whose largest squared coefficient is at least about 1/(k+1).

    Raises
    ------
    NotNormalized
        If the norm deviates from 1 by more than 1e-10, or is NaN (see
        states.unit_norm).
    """
    unit_norm(state)
    p = schmidt(state).alphas ** 2
    p = p[p >= SUPPORT_TOL]
    return float(p[0] - p[-1])
