"""Gradient correctness and entropy maximization over kernel subspaces."""

import math

import numpy as np
import pytest

from holoent import (
    DegenerateSpectrum,
    NotNormalized,
    NotOrthonormal,
    OptProblem,
    StateTensor,
    bell_vector,
    critical_residual,
    diagonal_kernel_basis,
    entanglement_entropy,
    entropy_and_gradient,
    kernel_basis,
    max_entropy_vector,
    maximize,
)
from holoent.optimize import GRAD_LOG_FLOOR, _ascend
from holoent.states import entropy_from_squared_schmidt, orthonormal_rows


def entropy_of_coords(subspace, coords):
    """Scale-invariant entropy of the embedded state, for finite differencing."""
    mats = [v.coeffs for v in subspace]
    if len(coords) == 2 * len(mats):
        mats = mats + [1j * m for m in mats]
    m = sum(c * b for c, b in zip(coords, mats))
    m = m / np.linalg.norm(m)
    sig = np.linalg.svd(m, compute_uv=False)
    return float(entropy_from_squared_schmidt(sig**2))


def finite_difference_gradient(subspace, coords, h=1e-5):
    grad = np.zeros_like(coords)
    for i in range(len(coords)):
        up = coords.copy()
        dn = coords.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (entropy_of_coords(subspace, up) - entropy_of_coords(subspace, dn)) / (2 * h)
    return grad


def realified_entropy_and_gradient(subspace, coords):
    """Reference: real coordinates over the doubled stack (B_1..B_m, iB_1..iB_m).

    Length-m coordinates use the plain stack. Each real coordinate's
    derivative sum_j w_j Re(u_j^H B_i v_j) is taken with one einsum over
    all stacked matrices.
    """
    mats = np.stack([v.coeffs for v in subspace])
    if len(coords) == 2 * len(mats):
        mats = np.concatenate([mats, 1j * mats])
    u, sig, vh = np.linalg.svd(np.tensordot(coords, mats, axes=1))
    value = float(entropy_from_squared_schmidt(sig**2))
    weights = -2.0 * sig * (np.log(np.maximum(sig**2, GRAD_LOG_FLOOR)) + 1.0)
    dsig = np.einsum("aj,iab,bj->ij", u.conj(), mats, vh.conj().T).real
    grad = dsig @ weights
    return value, grad - (grad @ coords) * coords


def test_single_ray_value_and_zero_gradient():
    value, grad = entropy_and_gradient([bell_vector(1)], np.array([1.0]))
    assert abs(value - math.log(2)) < 1e-12
    assert np.allclose(grad, 0.0, atol=1e-14)


def test_decomposable_direction_hits_entropy_floor():
    subspace = [StateTensor.basis_element(2, 0, 0)]
    value, _ = entropy_and_gradient(subspace, np.array([1.0]))
    assert value == 0.0


def test_gradient_requires_unit_coords():
    with pytest.raises(NotNormalized):
        entropy_and_gradient([bell_vector(1)], np.array([0.5]))


def test_gradient_rejects_bad_length():
    with pytest.raises(ValueError):
        entropy_and_gradient([bell_vector(1)], np.array([1.0, 0.0, 0.0]))


def test_degenerate_spectrum_warns():
    with pytest.warns(DegenerateSpectrum):
        entropy_and_gradient([bell_vector(1)], np.array([1.0]))


@pytest.mark.parametrize("k", list(range(1, 9)))
def test_gradient_matches_finite_differences(k):
    subspace = diagonal_kernel_basis(k)
    rng = np.random.default_rng(50 + k)
    m = len(subspace)
    for trial in range(50):
        size = m if trial % 2 == 0 else 2 * m
        coords = rng.standard_normal(size)
        coords /= np.linalg.norm(coords)
        value, grad = entropy_and_gradient(subspace, coords)
        assert abs(value - entropy_of_coords(subspace, coords)) < 1e-12
        fd = finite_difference_gradient(subspace, coords)
        scale = max(1.0, float(np.linalg.norm(fd)))
        assert np.max(np.abs(grad - fd)) <= 1e-6 * scale


@pytest.mark.filterwarnings("ignore::holoent.DegenerateSpectrum")
@pytest.mark.parametrize("build", [diagonal_kernel_basis, kernel_basis])
@pytest.mark.parametrize("k", list(range(1, 13)))
def test_gradient_matches_realified_reference(k, build):
    # a random unitary mix of the real kernel states spans the same
    # subspace through a complex orthonormal basis
    rng = np.random.default_rng(300 + k)
    basis = build(k)
    m = len(basis)
    mix, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    stack = np.tensordot(mix, np.stack([v.coeffs for v in basis]), axes=1)
    subspace = [StateTensor(k, c) for c in stack]
    for size in (m, 2 * m) * 3:
        coords = rng.standard_normal(size)
        coords /= np.linalg.norm(coords)
        value, grad = entropy_and_gradient(subspace, coords)
        ref_value, ref_grad = realified_entropy_and_gradient(subspace, coords)
        assert grad.shape == coords.shape and grad.dtype == float
        assert abs(value - ref_value) <= 1e-12
        scale = max(1.0, float(np.linalg.norm(ref_grad)))
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * scale


def test_gradient_rejects_non_orthonormal_subspace():
    skewed = StateTensor(1, bell_vector(1).coeffs * 0.5)
    with pytest.raises(NotOrthonormal):
        entropy_and_gradient([skewed], np.array([1.0]))


def test_maximize_single_ray():
    result = maximize(OptProblem(subspace=(bell_vector(1),), seed=1))
    assert abs(result.best_value - math.log(2)) < 1e-12
    assert result.converged
    assert result.iterations == 0


def test_maximize_diagonal_kernel_level3():
    result = maximize(OptProblem(subspace=tuple(diagonal_kernel_basis(3)), seed=5))
    assert result.best_value >= math.log(4) - 1e-6
    assert result.best_value <= math.log(4) + 1e-9
    assert result.converged
    assert result.critical_residual <= 1e-6


def test_maximize_diagonal_kernel_level4_reaches_at_least_ln4():
    result = maximize(OptProblem(subspace=tuple(diagonal_kernel_basis(4)), seed=5))
    assert result.best_value >= math.log(4) - 1e-6
    # no state exceeds the global bound, which max_entropy_vector attains
    assert result.best_value <= math.log(5) + 1e-9


@pytest.mark.parametrize("k", list(range(2, 9)))
def test_maximize_never_exceeds_global_bound(k):
    result = maximize(
        OptProblem(subspace=tuple(diagonal_kernel_basis(k)), restarts=4, seed=9)
    )
    assert result.best_value <= math.log(k + 1) + 1e-9


def test_maximize_is_deterministic():
    problem = OptProblem(subspace=tuple(diagonal_kernel_basis(4)), seed=77)
    a = maximize(problem)
    b = maximize(problem)
    assert a.best_value == b.best_value
    assert a.grad_norm == b.grad_norm
    assert a.iterations == b.iterations
    assert a.restart_values == b.restart_values
    assert np.array_equal(a.best_state.coeffs, b.best_state.coeffs)


def test_maximize_invariant_under_global_phase_of_basis():
    basis = diagonal_kernel_basis(3)
    rotated = [StateTensor(3, np.exp(0.7j) * v.coeffs) for v in basis]
    plain = maximize(OptProblem(subspace=tuple(basis), seed=3))
    twisted = maximize(OptProblem(subspace=tuple(rotated), seed=3))
    assert abs(plain.best_value - twisted.best_value) <= 1e-9


def test_ascent_history_is_monotone():
    basis = diagonal_kernel_basis(5)
    rows = orthonormal_rows(basis)
    m = len(basis)
    rng = np.random.default_rng(8)
    for _ in range(5):
        u0 = rng.standard_normal(2 * m)
        u0 /= np.linalg.norm(u0)
        _, history, _, _, _ = _ascend(rows, u0[:m] + 1j * u0[m:], 200, 1.0, 1e-8)
        assert all(b >= a for a, b in zip(history, history[1:]))


def test_no_convergence_is_flagged_not_fatal():
    problem = OptProblem(
        subspace=tuple(diagonal_kernel_basis(2)),
        max_iters=1,
        tol_grad=1e-15,
        restarts=2,
        seed=0,
    )
    result = maximize(problem)
    assert not result.converged
    assert result.best_value > 0.0


def test_best_state_is_unit_and_in_subspace():
    basis = diagonal_kernel_basis(5)
    result = maximize(OptProblem(subspace=tuple(basis), seed=11))
    state = result.best_state
    assert abs(np.linalg.norm(state.coeffs) - 1.0) < 1e-12
    vectors = np.column_stack([v.coeffs.reshape(-1) for v in basis])
    flat = state.coeffs.reshape(-1)
    inside = vectors @ (vectors.conj().T @ flat)
    assert np.linalg.norm(inside - flat) < 1e-9


def test_problem_validation():
    with pytest.raises(ValueError):
        OptProblem(subspace=())
    skewed = StateTensor(1, bell_vector(1).coeffs * 0.5)
    with pytest.raises(ValueError):
        OptProblem(subspace=(skewed,))


@pytest.mark.parametrize("settings", [
    {"tol_grad": math.nan},
    {"tol_grad": math.inf},
    {"tol_grad": 0.0},
    {"step0": math.nan},
    {"step0": math.inf},
    {"step0": -1.0},
])
def test_problem_rejects_non_finite_or_non_positive_settings(settings):
    with pytest.raises(ValueError, match="invalid optimizer settings"):
        OptProblem(subspace=tuple(diagonal_kernel_basis(2)), **settings)


@pytest.mark.parametrize("k", [2, 5])
def test_restart_r_starts_from_the_documented_draw(k):
    # a gradient tolerance this loose stops every ascent at its start
    basis = diagonal_kernel_basis(k)
    m = len(basis)
    seed = 40
    result = maximize(OptProblem(subspace=tuple(basis), tol_grad=1e300, restarts=3, seed=seed))
    assert result.converged and result.iterations == 0
    starts = []
    for r in range(3):
        x = np.random.default_rng(seed + r).standard_normal(2 * m)
        x /= np.linalg.norm(x)
        coeffs = sum((a + 1j * b) * v.coeffs for a, b, v in zip(x[:m], x[m:], basis))
        starts.append(StateTensor(k, coeffs / np.linalg.norm(coeffs)))
    values = [entanglement_entropy(state) for state in starts]
    assert np.max(np.abs(np.array(result.restart_values) - values)) <= 1e-12
    best = starts[int(np.argmax(result.restart_values))]
    assert np.max(np.abs(result.best_state.coeffs - best.coeffs)) <= 1e-14


def test_critical_residual_at_odd_extremal():
    assert critical_residual(max_entropy_vector(3)) <= 1e-12


def test_critical_residual_at_even_extremal_ignores_zero_entry():
    # equal squared weights off a vanishing middle entry
    zero_middle = StateTensor.from_diagonal(4, np.array([1, 1, 0, -1, -1]) / 2)
    assert critical_residual(zero_middle) <= 1e-12


def test_critical_residual_zero_on_bell_support():
    # squared weights are (1/2, 0, 1/2); the vanishing middle entry is
    # outside the support, so the spread over the support is zero
    assert critical_residual(bell_vector(2)) <= 1e-12


def test_critical_residual_detects_uneven_spectrum():
    state = StateTensor.from_diagonal(1, [math.sqrt(0.8), -math.sqrt(0.2)])
    assert critical_residual(state) == pytest.approx(0.6, abs=1e-12)


def test_critical_residual_requires_diagonal_unit_state():
    with pytest.raises(ValueError):
        critical_residual(StateTensor.basis_element(1, 0, 1))
    with pytest.raises(NotNormalized):
        critical_residual(StateTensor.from_diagonal(1, [0.25, 0.25]))
