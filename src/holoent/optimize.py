"""Entropy maximization over the unit sphere of a subspace of states.

Projected gradient ascent with an Armijo backtracking line search and
renormalization as the spherical retraction. Restarts are independently
seeded, so results are reproducible and restart loops may be distributed
without changing the reported optimum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, NotNormalized
from .states import (
    ORTHONORMAL_TOL,
    StateTensor,
    entropy_from_squared_schmidt,
    orthonormality_defect,
)

COORD_NORM_TOL = 1e-8
DEGENERACY_GAP = 1e-10
# logarithm floor used inside gradients only; reported values drop
# near-zero Schmidt weights instead of flooring them
GRAD_LOG_FLOOR = 1e-12
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
MAX_BACKTRACKS = 60
STEP_GROWTH = 2.0
STEP_MIN = 1e-8
STEP_MAX = 1e4


@dataclass(frozen=True)
class OptProblem:
    """Maximization setup over the unit sphere of an orthonormal subspace."""

    subspace: tuple
    max_iters: int = 1000
    step0: float = 1.0
    tol_grad: float = 1e-8
    restarts: int = 16
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "subspace", tuple(self.subspace))
        if not self.subspace:
            raise ValueError("subspace must be nonempty")
        vectors = np.column_stack([v.coeffs.reshape(-1) for v in self.subspace])
        defect = orthonormality_defect(vectors)
        if defect > ORTHONORMAL_TOL:
            raise ValueError(f"subspace is not orthonormal (defect {defect:.3e})")
        if self.max_iters < 1 or self.step0 <= 0 or self.tol_grad <= 0 or self.restarts < 1:
            raise ValueError("invalid optimizer settings")


@dataclass(frozen=True)
class OptResult:
    """Best point found, with the gradient norm and residual diagnostics."""

    best_value: float
    best_state: StateTensor
    grad_norm: float
    iterations: int
    critical_residual: float
    converged: bool
    restart_values: tuple


def _combine(basis_mats: np.ndarray, coords: np.ndarray) -> np.ndarray:
    return np.tensordot(coords, basis_mats, axes=1)


def _realified_basis(subspace) -> np.ndarray:
    """Stack (B_1..B_m, iB_1..iB_m): real coordinates over it span the complex subspace."""
    mats = np.stack([v.coeffs for v in subspace])
    return np.concatenate([mats, 1j * mats])


def _value_and_gradient(basis_mats, coords, warn_degenerate=False):
    """Entropy of the embedded state and its tangential gradient at coords."""
    m = _combine(basis_mats, coords)
    u, sig, vh = np.linalg.svd(m)
    if warn_degenerate and sig.size > 1 and np.min(np.abs(np.diff(sig))) < DEGENERACY_GAP:
        warnings.warn("Schmidt values collide; gradient is a subgradient choice",
                      DegenerateSpectrum, stacklevel=3)
    value = float(entropy_from_squared_schmidt(sig**2))
    # d sigma_j / d coords_i = Re(u_j^H B_i v_j); chain through -2s(ln s^2 + 1)
    weights = -2.0 * sig * (np.log(np.maximum(sig**2, GRAD_LOG_FLOOR)) + 1.0)
    v = vh.conj().T
    dsig = np.einsum("aj,iab,bj->ij", u.conj(), basis_mats, v).real
    grad = dsig @ weights
    grad = grad - (grad @ coords) * coords
    return value, grad


def entropy_and_gradient(subspace, coords):
    """Entropy at a unit coordinate vector over the subspace basis, with gradient.

    A coordinate vector of length m combines the m basis states with real
    weights; one of length 2m is read as real and imaginary weight blocks
    and spans the complex subspace. The gradient is tangential to the
    coordinate sphere. Colliding Schmidt values trigger a
    DegenerateSpectrum warning (the returned direction is then one valid
    subgradient choice).

    Raises
    ------
    NotNormalized
        If the coordinate vector is not unit within 1e-8.
    """
    coords = np.asarray(coords, dtype=float)
    nrm = np.linalg.norm(coords)
    if abs(nrm - 1.0) > COORD_NORM_TOL:
        raise NotNormalized(f"coordinate norm is {nrm!r}")
    m = len(subspace)
    if coords.shape == (m,):
        basis_mats = np.stack([v.coeffs for v in subspace])
    elif coords.shape == (2 * m,):
        basis_mats = _realified_basis(subspace)
    else:
        raise ValueError(f"coordinate vector must have length {m} or {2 * m}")
    return _value_and_gradient(basis_mats, coords, warn_degenerate=True)


def _ascend(basis_mats, u0, max_iters, step0, tol_grad):
    """Run one ascent from u0; returns (u, history, grad_norm, iterations, converged)."""
    u = u0
    f, g = _value_and_gradient(basis_mats, u)
    history = [f]
    iterations = 0
    trial = step0
    for _ in range(max_iters):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol_grad:
            return u, history, gnorm, iterations, True
        step = trial
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            cand = u + step * g
            cand = cand / np.linalg.norm(cand)
            f_new, g_new = _value_and_gradient(basis_mats, cand)
            if f_new >= f + ARMIJO_C * step * gnorm * gnorm:
                accepted = True
                break
            step *= ARMIJO_SHRINK
        if not accepted:
            # stalled at numerical precision
            break
        # Barzilai-Borwein trial step for the next iteration; the Armijo
        # backtracking above keeps the ascent monotone regardless.
        du = cand - u
        dg = g - g_new
        curvature = float(du @ dg)
        if curvature > 0:
            trial = float(du @ du) / curvature
            trial = min(max(trial, STEP_MIN), STEP_MAX)
        else:
            trial = min(step * STEP_GROWTH, STEP_MAX)
        u, f, g = cand, f_new, g_new
        history.append(f)
        iterations += 1
    gnorm = float(np.linalg.norm(g))
    return u, history, gnorm, iterations, gnorm <= tol_grad


def maximize(problem: OptProblem) -> OptResult:
    """Best entropy over the unit sphere of the subspace, over all restarts.

    The ascent runs in realified coordinates (real and imaginary weight
    blocks over the basis), so the search covers the full complex sphere;
    phases connect the real sign patterns that would otherwise trap it.
    Each restart r draws its start from a generator seeded with seed + r;
    among equal values the lowest restart index wins, so the result is
    deterministic regardless of execution order. The result is flagged as
    not converged when no restart reached the gradient tolerance.
    """
    basis_mats = _realified_basis(problem.subspace)
    m = 2 * len(problem.subspace)
    best = None
    restart_values = []
    any_converged = False
    for r in range(problem.restarts):
        rng = np.random.default_rng(problem.seed + r)
        u0 = rng.standard_normal(m)
        u0 /= np.linalg.norm(u0)
        u, history, gnorm, iters, converged = _ascend(
            basis_mats, u0, problem.max_iters, problem.step0, problem.tol_grad
        )
        restart_values.append(history[-1])
        any_converged = any_converged or converged
        if best is None or history[-1] > best[0]:
            best = (history[-1], u, gnorm, iters)
    value, u, gnorm, iters = best
    coeffs = _combine(basis_mats, u)
    coeffs = coeffs / np.linalg.norm(coeffs)
    state = StateTensor(problem.subspace[0].k, coeffs)
    residual = critical_residual(state) if state.is_diagonal() else float("nan")
    return OptResult(
        best_value=value,
        best_state=state,
        grad_norm=gnorm,
        iterations=iters,
        critical_residual=residual,
        converged=any_converged,
        restart_values=tuple(restart_values),
    )


def critical_residual(state: StateTensor, support_tol: float = 1e-10) -> float:
    """Spread of the squared diagonal coefficients of a unit diagonal state.

    Stationary diagonal states have all squared coefficients equal on
    their support, so zero residual is the stationarity certificate.
    Entries below support_tol are ignored, so states with vanishing
    coefficients, such as the Bell-type pair, are certified on their
    support.
    """
    if not state.is_diagonal():
        raise ValueError("critical residual is defined for diagonal states")
    a = np.diag(state.coeffs)
    weights = np.abs(a) ** 2
    nrm = float(weights.sum())
    if abs(nrm - 1.0) > 1e-8:
        raise NotNormalized(f"state squared norm is {nrm!r}")
    pool = np.append(weights, 1.0 - weights[1:].sum())
    pool = pool[pool >= support_tol]
    if pool.size == 0:
        return 0.0
    return float(pool.max() - pool.min())
