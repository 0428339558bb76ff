"""Entropy maximization over the unit sphere of a subspace of states.

Projected gradient ascent with Barzilai-Borwein trial steps, a
nonmonotone Armijo backtracking line search and renormalization as the
spherical retraction. A step is accepted against the Zhang-Hager
reference (SIAM J. Optim. 14, 2004), a running weighted average of the
accepted values, rather than against the current value: the ascent may
dip on the way, never below its start, and it is not cut back where the
maximum is degenerate (k = 2) or where the required increase falls below
the rounding of the entropy near a critical point. The ascent runs in complex
coordinates c over one (m, (k+1)^2) matrix of flattened orthonormal basis
states; under the real inner product Re<x, y> that is the Euclidean
geometry of the 2m real and imaginary parts. Restarts are independently
seeded, so results are reproducible and restart loops may be distributed
without changing the reported optimum.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpectrum, DomainError, NotNormalized
from .states import (
    NORM_TOL,
    StateTensor,
    entropy_from_squared_schmidt,
    orthonormal_rows,
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
STEP_MIN = 1e-8
STEP_MAX = 1e4


@dataclass(frozen=True)
class OptProblem:
    """Maximization setup over the unit sphere of an orthonormal subspace.

    ``basis`` is derived, not set: the read-only matrix whose rows are the
    flattened subspace states (see states.orthonormal_rows).
    """

    subspace: tuple
    max_iters: int = 1000
    step0: float = 1.0
    tol_grad: float = 1e-8
    restarts: int = 16
    seed: int = 0
    basis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "subspace", tuple(self.subspace))
        if not self.subspace:
            raise ValueError("subspace must be nonempty")
        object.__setattr__(self, "basis", orthonormal_rows(self.subspace))
        for name in ("max_iters", "restarts", "seed", "step0", "tol_grad"):
            value = getattr(self, name)
            if name in ("step0", "tol_grad"):
                valid = math.isfinite(value) and value > 0
            else:  # integers, bool excluded; only the seed may be 0
                integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
                valid = integral and value >= (0 if name == "seed" else 1)
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


def _value_and_gradient(basis, coords, warn_degenerate=False):
    """Entropy of the state coords @ basis and its tangential gradient at coords."""
    n = math.isqrt(basis.shape[1])
    u, sig, vh = np.linalg.svd((coords @ basis).reshape(n, n))
    if warn_degenerate and sig.size > 1 and np.min(np.abs(np.diff(sig))) < DEGENERACY_GAP:
        warnings.warn("Schmidt values collide; gradient is a subgradient choice",
                      DegenerateSpectrum, stacklevel=3)
    value = float(entropy_from_squared_schmidt(sig**2))
    # dS = sum_j w_j d sigma_j = Re<G, dM> with G = U diag(w) V^H and
    # w_j = -2 sigma_j (ln sigma_j^2 + 1); dM = sum_i dc_i B_i, so the
    # gradient under Re<x, y> has entries <B_i, G> = sum conj(B_i) G
    weights = -2.0 * sig * (np.log(np.maximum(sig**2, GRAD_LOG_FLOOR)) + 1.0)
    grad = basis.conj() @ ((u * weights) @ vh).reshape(-1)
    grad = grad - np.vdot(coords, grad).real * coords
    return value, grad


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
    NotNormalized
        If the coordinate vector is not unit within 1e-10 (states.NORM_TOL).
    NotOrthonormal
        If the subspace states are not orthonormal.
    """
    coords = np.asarray(coords, dtype=float)
    nrm = np.linalg.norm(coords)
    if abs(nrm - 1.0) > NORM_TOL:
        raise NotNormalized(f"coordinate norm is {nrm!r}")
    m = len(subspace)
    if coords.shape not in ((m,), (2 * m,)):
        raise ValueError(f"coordinate vector must have length {m} or {2 * m}")
    real_only = coords.shape == (m,)
    c = coords.astype(complex) if real_only else coords[:m] + 1j * coords[m:]
    value, grad = _value_and_gradient(orthonormal_rows(subspace), c, warn_degenerate=True)
    return value, grad.real if real_only else np.concatenate([grad.real, grad.imag])


def _ascend(basis, u0, max_iters, step0, tol_grad):
    """Run one ascent from u0; returns (u, history, grad_norm, iterations, converged).

    ``history`` holds the value of every accepted iterate. ``u`` is the
    last iterate when the ascent converged and the best one seen (the
    latest of equals) otherwise, since the nonmonotone search may have
    moved below it; ``grad_norm`` is the gradient norm at ``u``.
    """
    u = u0
    f, g = _value_and_gradient(basis, u)
    history = [f]
    best = (f, u, g)
    iterations = 0
    trial = step0
    # Zhang-Hager reference C, the q-weighted average of accepted values
    ref, q = f, 1.0
    for _ in range(max_iters):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol_grad:
            return u, history, gnorm, iterations, True
        step = trial
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            cand = u + step * g
            cand = cand / np.linalg.norm(cand)
            f_new, g_new = _value_and_gradient(basis, cand)
            if f_new >= ref + ARMIJO_C * step * gnorm * gnorm:
                accepted = True
                break
            step *= ARMIJO_SHRINK
        if not accepted:
            # stalled at numerical precision
            break
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
        iterations += 1
        if f_new >= best[0]:
            best = (f_new, u, g)
    gnorm = float(np.linalg.norm(g))
    if gnorm <= tol_grad:
        return u, history, gnorm, iterations, True
    _, u, g = best
    return u, history, float(np.linalg.norm(g)), iterations, False


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
    basis = problem.basis
    m = len(basis)
    best = None
    restart_values = []
    any_converged = False
    for r in range(problem.restarts):
        rng = np.random.default_rng(problem.seed + r)
        x = rng.standard_normal(2 * m)
        x /= np.linalg.norm(x)
        u, history, gnorm, iters, converged = _ascend(
            basis, x[:m] + 1j * x[m:], problem.max_iters, problem.step0, problem.tol_grad
        )
        value = history[-1] if converged else max(history)
        restart_values.append(value)
        any_converged = any_converged or converged
        if best is None or value > best[0]:
            best = (value, u, gnorm, iters)
    value, u, gnorm, iters = best
    coeffs = u @ basis
    k = problem.subspace[0].k
    state = StateTensor(k, (coeffs / np.linalg.norm(coeffs)).reshape(k + 1, k + 1))
    return OptResult(
        best_value=value,
        best_state=state,
        grad_norm=gnorm,
        iterations=iters,
        critical_residual=critical_residual(state),
        converged=any_converged,
        restart_values=tuple(restart_values),
    )


def critical_residual(state: StateTensor, support_tol: float = 1e-10) -> float:
    """Spread max p - min p of the squared Schmidt coefficients p on their support.

    Zero means a flat Schmidt spectrum, entropy ln(rank), the largest
    entropy at that rank; it is the stationarity certificate on any
    subspace. Squared coefficients below support_tol are outside the
    support, so states with vanishing coefficients, such as the Bell-type
    pair, are certified on their support. Finite for every unit state.

    Raises
    ------
    NotNormalized
        If the norm deviates from 1 by more than 1e-10 (see states.unit_norm).
    """
    unit_norm(state)
    p = schmidt(state).alphas ** 2
    p = p[p >= support_tol]
    return float(p[0] - p[-1])
